//! The traced run: host time per layer, measured from outside.
//!
//! Every figure here comes from timing calls into one crate's public
//! functions from this file, or from counters the simulator already
//! returns. The simulator itself is never instrumented, so the timed
//! end-to-end runs pay nothing for this.

use crate::cells::{request_stream, Cell, Outcome};
use ladder_core::{LadderConfig, LadderEngine, LadderVariant};
use ladder_cpu::TraceOp;
use ladder_faults::{CellFaultModel, FaultConfig, SharedCellFaultModel};
use ladder_memctrl::{MemCtrlConfig, MemoryController, Tables};
use ladder_reram::{AddressMap, EventQueue, Geometry, Instant, LineStore};
use ladder_sim::wallclock::Stopwatch;
use ladder_sim::{ArrivalKind, RemapKind, Scheme, ServiceConfig};
use ladder_trace::{Trace, TraceRecord, C_LRS_UNTRACKED};
use ladder_wear::{RemapBackend, SharedPadRemapper, SharedRetirePool};
use ladder_workloads::service::{
    ArrivalProcess, BurstyArrivals, PoissonArrivals, ServiceGen, TenantMix,
};
use ladder_xbar::{CrossbarParams, TimingTable};
use std::hint::black_box;

/// Requests of each cell's stream that the controller and engine replays
/// re-execute.
pub const REPLAY_OPS: usize = 20_000;
/// Minimum operations a micro replay (lookup, queue) repeats to, so its
/// time is well above the clock's resolution.
const MICRO_OPS: u64 = 200_000;

/// One timed interval of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `memctrl.replay`.
    pub name: &'static str,
    /// Cell or phase the span belongs to.
    pub scope: String,
    /// Workload of the run.
    pub workload: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Host ns since the run started.
    pub start_ns: u64,
    /// Host ns since the run started; 0 while open.
    pub end_ns: u64,
}

/// An in-memory span log, written out once when the run ends.
#[derive(Debug)]
pub struct Spans {
    clock: Stopwatch,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new(workload: &'static str) -> Self {
        Self {
            clock: Stopwatch::start(),
            workload,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, scope: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            scope: scope.to_string(),
            workload: self.workload,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        match self.spans.get_mut(id) {
            Some(s) => {
                s.end_ns = end;
                end.saturating_sub(s.start_ns)
            }
            None => 0,
        }
    }

    /// Runs `f` inside a span and returns its result and duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        scope: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, scope, parent);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    /// Span `id`'s duration minus the part of it its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let Some(span) = self.spans.get(id) else {
            return 0;
        };
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.end_ns.saturating_sub(span.start_ns) - covered
    }

    /// All spans, as one JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"scope\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    s.scope,
                    s.workload,
                    s.start_ns,
                    s.end_ns,
                    self.self_ns(id)
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// The open-loop request generator for `service`, built from the
/// workloads crate's public parts over the default geometry.
pub fn service_gen(service: &ServiceConfig, seed: u64) -> ServiceGen {
    let pages = Geometry::default().pages() as u64;
    let base = pages / 16;
    let mix = TenantMix::standard(
        service.tenants,
        base,
        pages - base,
        service.zipf_theta,
        service.read_fraction,
    );
    let arrivals: Box<dyn ArrivalProcess> = match service.arrival {
        ArrivalKind::Poisson => Box::new(PoissonArrivals::with_load(service.load)),
        ArrivalKind::Bursty => Box::new(BurstyArrivals::with_load(service.load)),
    };
    ServiceGen::new(arrivals, mix, seed, service.requests)
}

/// Host time and work of each layer, summed over the cells of a
/// workload.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Host ns of the untraced simulations.
    pub run_ns: u64,
    /// Host ns of the same simulations with the simulator's trace on.
    pub traced_ns: u64,
    /// Requests completed by the simulations.
    pub requests: u64,
    /// Kernel events dispatched.
    pub events: u64,
    /// Controller wakes dispatched.
    pub ctrl_wakes: u64,
    /// Core wakes dispatched.
    pub core_wakes: u64,
    /// Retry-pulse wakes dispatched.
    pub retry_pulses: u64,
    /// Data writes serviced.
    pub data_writes: u64,
    /// SMB dependency reads issued.
    pub smb_reads: u64,
    /// Data writes of the cells that report a metadata-cache hit ratio.
    pub cache_writes: u64,
    /// Hit ratio × data writes over those cells.
    pub cache_hits_weighted: f64,
    /// Open-loop arrivals.
    pub arrivals: u64,
    /// Open-loop arrivals deferred into the backlog.
    pub deferred: u64,
    /// Coding-layer resolves (all tiers).
    pub resolves: u64,
    /// Pages moved by the remap backend.
    pub remaps: u64,
    /// Trace records the simulator's recorder dropped.
    pub dropped_records: u64,
    /// Generator: host ns, requests drawn.
    pub gen: (u64, u64),
    /// Timing-table lookups: host ns, lookups.
    pub lookup: (u64, u64),
    /// Event-queue replay: host ns, schedule+pop operations.
    pub queue: (u64, u64),
    /// Deepest event-queue replay.
    pub queue_peak: u64,
    /// LADDER engine: host ns, writes.
    pub engine: (u64, u64),
    /// Controller replay without faults: host ns, requests.
    pub memctrl: (u64, u64),
    /// Controller replay with the fault model, minus without: host ns,
    /// data writes.
    pub faults: (i64, u64),
    /// Host ns of the simulations that the generator and controller
    /// replays do not account for.
    pub kernel_self_ns: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl LayerTotals {
    /// The per-layer metrics, by name, with their units.
    pub fn metrics(&self, table_build_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let per = |(ns, n): (u64, u64)| ratio(ns as f64, n as f64);
        let req = self.requests as f64;
        vec![
            ("xbar.table_build_s", table_build_s, "s"),
            ("xbar.lookup_ns", per(self.lookup), "ns"),
            ("workloads.gen_ns_per_request", per(self.gen), "ns"),
            ("reram.queue_ns_per_op", per(self.queue), "ns"),
            ("reram.queue_peak_len", self.queue_peak as f64, "count"),
            ("core.engine_ns_per_write", per(self.engine), "ns"),
            (
                "core.metadata_hit_ratio",
                ratio(self.cache_hits_weighted, self.cache_writes as f64),
                "ratio",
            ),
            (
                "core.smb_reads_per_write",
                ratio(self.smb_reads as f64, self.data_writes as f64),
                "ratio",
            ),
            ("memctrl.ns_per_request", per(self.memctrl), "ns"),
            (
                "memctrl.wakes_per_request",
                ratio(self.ctrl_wakes as f64, req),
                "ratio",
            ),
            (
                "cpu.core_wakes_per_request",
                ratio(self.core_wakes as f64, req),
                "ratio",
            ),
            (
                "sim.events_per_request",
                ratio(self.events as f64, req),
                "ratio",
            ),
            (
                "sim.events_per_s",
                ratio(self.events as f64 * 1e9, self.run_ns as f64),
                "1/s",
            ),
            (
                "sim.kernel_self_ns_per_event",
                ratio(self.kernel_self_ns, self.events as f64),
                "ns",
            ),
            (
                "sim.deferred_ratio",
                ratio(self.deferred as f64, self.arrivals as f64),
                "ratio",
            ),
            (
                "faults.retry_pulses_per_write",
                ratio(self.retry_pulses as f64, self.data_writes as f64),
                "ratio",
            ),
            (
                "faults.ns_per_write",
                ratio(self.faults.0 as f64, self.faults.1 as f64),
                "ns",
            ),
            (
                "coding.resolves_per_kwrite",
                ratio(self.resolves as f64 * 1000.0, self.data_writes as f64),
                "ratio",
            ),
            ("wear.remaps", self.remaps as f64, "count"),
            (
                "trace.overhead_ratio",
                ratio(self.traced_ns as f64, self.run_ns as f64),
                "ratio",
            ),
            (
                "trace.dropped_records",
                self.dropped_records as f64,
                "count",
            ),
        ]
    }

    /// Adds one cell's simulator counters.
    pub fn add_outcome(&mut self, out: &Outcome) {
        let e = &out.events;
        self.requests += out.requests;
        self.events += e.total();
        self.ctrl_wakes += e.ctrl_work_arrived
            + e.ctrl_bank_free
            + e.ctrl_queue_slot_free
            + e.ctrl_dep_ready
            + e.ctrl_mode_switch
            + e.ctrl_retry_pulse;
        self.core_wakes += e.core_wake;
        self.retry_pulses += e.ctrl_retry_pulse;
        self.data_writes += out.mem.data_writes;
        self.smb_reads += out.mem.smb_reads;
        if let Some(hit) = out.cache_hit {
            self.cache_writes += out.mem.data_writes;
            self.cache_hits_weighted += hit * out.mem.data_writes as f64;
        }
        if let Some((arrivals, _, _, deferred)) = out.service {
            self.arrivals += arrivals;
            self.deferred += deferred;
        }
        if let Some((resolves, remaps)) = out.coding {
            self.resolves += resolves;
            self.remaps += remaps;
        }
    }
}

/// Runs every layer replay of one cell inside `parent`, adding to
/// `totals`. `traces` are the cell's traced-run record streams and
/// `run_ns` the host time of its untraced simulation.
#[allow(clippy::too_many_arguments)]
pub fn replay_cell(
    spans: &mut Spans,
    parent: usize,
    cell: &Cell,
    ecfg: &ladder_sim::experiments::ExperimentConfig,
    tables: &Tables,
    traces: &[Trace],
    out: &Outcome,
    run_ns: u64,
    totals: &mut LayerTotals,
) -> Result<(), String> {
    let scope = cell.label.as_str();

    // workloads: draw the whole stream, keeping nothing.
    let (drawn, gen_ns) = spans.time("workloads.gen", scope, Some(parent), || {
        drain_stream(cell, ecfg)
    });
    totals.gen.0 += gen_ns;
    totals.gen.1 += drawn;

    let ops = request_stream(cell, ecfg, REPLAY_OPS);
    let writes = ops
        .iter()
        .filter(|(_, op)| matches!(op, TraceOp::Write { .. }))
        .count() as u64;

    // memctrl (with the policy, and hence core and xbar, beneath it).
    let (replayed, memctrl_ns) = spans.time("memctrl.replay", scope, Some(parent), || {
        drive_controller(cell.cfg.scheme, tables, &ops, None)
    });
    replayed?;
    totals.memctrl.0 += memctrl_ns;
    totals.memctrl.1 += ops.len() as u64;
    let mut replay_ns = memctrl_ns;

    // faults: the same replay with the cell's fault model installed.
    if let Some(fcfg) = cell.cfg.faults {
        let faults = Some((fcfg, cell.cfg.coding, cell.cfg.remap));
        let (replayed, ns) = spans.time("faults.replay", scope, Some(parent), || {
            drive_controller(cell.cfg.scheme, tables, &ops, faults)
        });
        replayed?;
        totals.faults.0 += ns as i64 - memctrl_ns as i64;
        totals.faults.1 += writes;
        replay_ns = ns;
    }

    // core: the LADDER engine alone over the write stream.
    if let Some(variant) = variant_of(cell.cfg.scheme) {
        let (n, ns) = spans.time("core.engine", scope, Some(parent), || {
            drive_engine(variant, &ops)
        });
        totals.engine.0 += ns;
        totals.engine.1 += n;
    }

    // xbar: the run's own ⟨WL, BL, C⟩ pulse coordinates.
    let coords: Vec<(usize, usize, usize)> = traces
        .iter()
        .flat_map(|t| t.parts.iter())
        .flat_map(|p| p.events.iter())
        .filter_map(|e| match e.record {
            TraceRecord::ResetPulse { wl, bl, c_lrs, .. } if c_lrs != C_LRS_UNTRACKED => {
                Some((wl as usize, bl as usize, c_lrs as usize))
            }
            _ => None,
        })
        .collect();
    if !coords.is_empty() {
        let (n, ns) = spans.time("xbar.lookup", scope, Some(parent), || {
            lookups(&tables.ladder, &coords)
        });
        totals.lookup.0 += ns;
        totals.lookup.1 += n;
    }

    // reram: the run's dispatch instants through the event queue.
    let (times, lead) = dispatch_times(traces);
    if !times.is_empty() {
        let ((n, peak), ns) = spans.time("reram.queue", scope, Some(parent), || {
            replay_queue(cell, &times, lead)
        });
        totals.queue.0 += ns;
        totals.queue.1 += n;
        totals.queue_peak = totals.queue_peak.max(peak);
    }

    // sim: what the generator and controller replays leave of the run,
    // scaled from the replayed share to the whole run.
    let per_req = ratio(gen_ns as f64, drawn as f64) + ratio(replay_ns as f64, ops.len() as f64);
    totals.kernel_self_ns += run_ns as f64 - per_req * out.requests as f64;
    Ok(())
}

fn variant_of(scheme: Scheme) -> Option<LadderVariant> {
    match scheme {
        Scheme::LadderBasic => Some(LadderVariant::Basic),
        Scheme::LadderEst => Some(LadderVariant::Est),
        Scheme::LadderHybrid => Some(LadderVariant::Hybrid),
        _ => None,
    }
}

/// Draws `cell`'s whole request stream from its generators and returns
/// the number of requests drawn.
fn drain_stream(cell: &Cell, ecfg: &ladder_sim::experiments::ExperimentConfig) -> u64 {
    let mut n = 0u64;
    match &cell.cfg.service {
        Some(s) => {
            for shard in 0..cell.shards() {
                let mut gen = service_gen(s, ecfg.seed.wrapping_add(shard));
                while let Some(r) = gen.next_request() {
                    black_box(&r);
                    n += 1;
                }
            }
        }
        None => {
            for (core, bench) in cell.cfg.workload.members().into_iter().enumerate() {
                let (mut src, _) = ladder_sim::experiments::trace_for(bench, core, ecfg);
                while let Some(ev) = src.next_event() {
                    black_box(&ev);
                    n += 1;
                }
            }
        }
    }
    n
}

/// Drives a fresh controller for `scheme` with `ops`: each op is offered
/// at its arrival time (or as soon as the queues accept it), and the
/// controller processes every wake in between. Returns the requests
/// accepted.
fn drive_controller(
    scheme: Scheme,
    tables: &Tables,
    ops: &[(u64, TraceOp)],
    faults: Option<(FaultConfig, ladder_sim::CodingKind, RemapKind)>,
) -> Result<u64, String> {
    let map = AddressMap::new(Geometry::default());
    let policy = scheme.build_policy(
        &CrossbarParams::default(),
        &tables.ladder,
        &tables.blp,
        &map,
        false,
    );
    let mut mc = MemoryController::new(MemCtrlConfig::default(), map.clone(), policy);
    if let Some((fcfg, coding, remap)) = faults {
        let pages = Geometry::default().pages() as u64;
        let frames: Vec<u64> = (pages / 32..pages / 32 + 2048).collect();
        let backend = match remap {
            RemapKind::Retire => RemapBackend::Retire(SharedRetirePool::with_spares(frames)),
            RemapKind::Pad => RemapBackend::Pad(SharedPadRemapper::new(frames, 100_000)),
        };
        let model = CellFaultModel::new(fcfg, tables.ladder.clone(), map)
            .with_coding(coding)
            .with_remap_backend(backend);
        mc.set_fault_injector(SharedCellFaultModel::new(model));
    }
    let stalled = || "controller replay stalled with a full queue".to_string();
    let mut now = Instant::ZERO;
    for (at, op) in ops {
        let due = Instant::from_ps(*at).max(now);
        while let Some(wake) = mc.next_wake(now) {
            if wake > due {
                break;
            }
            now = wake;
            mc.process(now);
        }
        now = due;
        match op {
            TraceOp::Read { addr, .. } => {
                while mc.enqueue_read(*addr, now).is_none() {
                    mc.process(now);
                    now = mc.next_wake(now).ok_or_else(stalled)?;
                }
            }
            TraceOp::Write { addr, data } => {
                while !mc.enqueue_write(*addr, **data, now) {
                    mc.process(now);
                    now = mc.next_wake(now).ok_or_else(stalled)?;
                }
            }
        }
        mc.process(now);
        black_box(mc.take_completed_reads());
    }
    black_box(mc.finish(now));
    Ok(ops.len() as u64)
}

/// Runs the LADDER engine's prepare+service path over the writes of
/// `ops`, cold. Returns the writes serviced.
fn drive_engine(variant: LadderVariant, ops: &[(u64, TraceOp)]) -> u64 {
    let map = AddressMap::new(Geometry::default());
    let mut engine = LadderEngine::new(LadderConfig::for_variant(variant), map);
    let mut store = LineStore::new();
    let mut n = 0;
    for (_, op) in ops {
        if let TraceOp::Write { addr, data } = op {
            let prep = engine.prepare_write(*addr);
            if prep.spilled {
                continue;
            }
            black_box(engine.service_write(*addr, **data, &mut store));
            n += 1;
        }
    }
    n
}

/// Times `lookup_ps` over `coords`, repeated to at least [`MICRO_OPS`]
/// lookups. Returns the lookups made.
fn lookups(table: &TimingTable, coords: &[(usize, usize, usize)]) -> u64 {
    let rounds = MICRO_OPS.div_ceil(coords.len() as u64);
    let mut acc = 0u64;
    for _ in 0..rounds {
        for &(wl, bl, c) in coords {
            acc = acc.wrapping_add(table.lookup_ps(black_box(wl), black_box(bl), black_box(c)));
        }
    }
    black_box(acc);
    rounds * coords.len() as u64
}

/// The kernel-dispatch instants the traced run kept, in order, and the
/// mean service window (dispatch to completion) of its retained RESET
/// pulses: the horizon at which the kernel registers a bank's wake.
fn dispatch_times(traces: &[Trace]) -> (Vec<u64>, u64) {
    let mut times = Vec::new();
    let (mut window_ps, mut windows) = (0u128, 0u128);
    for t in traces {
        for part in &t.parts {
            for e in &part.events {
                match e.record {
                    TraceRecord::KernelDispatch { .. } => times.push(e.at.as_ps()),
                    TraceRecord::ResetPulse { service, .. } => {
                        window_ps += service.as_ps() as u128;
                        windows += 1;
                    }
                    _ => {}
                }
            }
        }
    }
    let lead = u64::try_from(window_ps / windows.max(1)).unwrap_or(0);
    (times, lead)
}

/// Replays dispatch instants through the cell's event-queue backend:
/// each event is scheduled `lead` ps before it fires, and everything due
/// by then is popped first. Repeated to at least [`MICRO_OPS`]
/// operations. Returns `(operations, peak queue length)`.
fn replay_queue(cell: &Cell, times: &[u64], lead: u64) -> (u64, u64) {
    let mut ops = 0u64;
    let mut peak = 0usize;
    while ops < MICRO_OPS {
        let mut q: EventQueue<usize> = EventQueue::with_backend(cell.cfg.queue);
        for (i, &t) in times.iter().enumerate() {
            let at = t.saturating_sub(lead);
            while q.peek_time().is_some_and(|p| p.as_ps() <= at) {
                black_box(q.pop());
                ops += 1;
            }
            q.schedule(Instant::from_ps(t), i);
            ops += 1;
            peak = peak.max(q.len());
        }
        while let Some(e) = q.pop() {
            black_box(e);
            ops += 1;
        }
    }
    (ops, peak as u64)
}
