//! The benchmark's workloads: which simulations ("cells") each one runs,
//! how one cell is run through the public API, and the correctness gate
//! every cell's outputs must pass.

use ladder_cpu::{TraceOp, TraceSource};
use ladder_faults::FaultConfig;
use ladder_memctrl::{MemStats, Tables};
use ladder_sim::experiments::{trace_for, ExperimentConfig, Workload as Mix};
use ladder_sim::{
    run_sharded, run_sim, ArrivalKind, CodingKind, EventCounts, RemapKind, Runner, Scheme,
    ServiceConfig, SimConfig, Topology,
};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Instructions each core of a `closed-mix` cell executes.
pub const CLOSED_INSTRUCTIONS: u64 = 1_000_000;
/// Requests per `open-loop` cell.
pub const OPEN_REQUESTS: u64 = 100_000;
/// Requests per shard of a `lifetime` cell.
pub const LIFETIME_REQUESTS: u64 = 8_000;
/// Open-loop load below capacity (requests/µs): nothing is deferred.
pub const LOAD_LOW: f64 = 6.0;
/// Saturating open-loop load (requests/µs): the backlog grows.
pub const LOAD_SATURATED: f64 = 1000.0;
/// Offered load of the lifetime campaign (requests/µs per shard).
pub const LIFETIME_LOAD: f64 = 4.0;
/// The campaign's top BER, and the stress BER at which the coding tiers
/// resolve.
pub const LIFETIME_BERS: [f64; 2] = [5e-3, 5e-2];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop 4-core Table-3 mixes under four write schemes.
    ClosedMix,
    /// The open-loop multi-tenant service stream, Baseline vs LADDER-Est.
    OpenLoop,
    /// Lifetime-campaign cells: sharded, faults and wear on.
    Lifetime,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::ClosedMix, Workload::OpenLoop, Workload::Lifetime];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedMix => "closed-mix",
            Workload::OpenLoop => "open-loop",
            Workload::Lifetime => "lifetime",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (closed-mix|open-loop|lifetime)"))
    }

    /// The experiment parameters every cell of this workload shares.
    pub fn experiment(self, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            instructions_per_core: CLOSED_INSTRUCTIONS,
            seed,
            ..ExperimentConfig::default()
        }
    }

    /// The cells this workload runs, in order.
    pub fn cells(self, seed: u64) -> Result<Vec<Cell>, String> {
        match self {
            Workload::ClosedMix => Ok(closed_mix_cells()),
            Workload::OpenLoop => Ok(open_loop_cells()),
            Workload::Lifetime => lifetime_cells(seed),
        }
    }
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Human-readable identity, e.g. `mix-1/LADDER-Est`.
    pub label: String,
    /// The run configuration.
    pub cfg: SimConfig,
    /// The speed-up pair this cell belongs to, if any: its LADDER-Est and
    /// Baseline cells share the key.
    pub pair: Option<String>,
}

impl Cell {
    /// Number of shards the cell runs as.
    pub fn shards(&self) -> u64 {
        self.cfg.shards() as u64
    }
}

fn closed_mix_cells() -> Vec<Cell> {
    let schemes = [
        Scheme::Baseline,
        Scheme::LadderBasic,
        Scheme::LadderEst,
        Scheme::LadderHybrid,
    ];
    let mut cells = Vec::new();
    for mix in ["mix-1", "mix-5"] {
        for scheme in schemes {
            cells.push(Cell {
                label: format!("{mix}/{}", scheme.name()),
                cfg: SimConfig::new(scheme, Mix::Mix(mix)),
                pair: paired(scheme).then(|| mix.to_string()),
            });
        }
    }
    cells
}

fn open_loop_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for arrival in ArrivalKind::ALL {
        for load in [LOAD_LOW, LOAD_SATURATED] {
            for scheme in [Scheme::Baseline, Scheme::LadderEst] {
                let service = ServiceConfig::builder()
                    .arrival(arrival)
                    .load(load)
                    .tenants(3)
                    .zipf_theta(0.99)
                    .read_fraction(0.9)
                    .requests(OPEN_REQUESTS)
                    .build();
                cells.push(Cell {
                    label: format!("{arrival}@{load}/{}", scheme.name()),
                    cfg: SimConfig::builder().scheme(scheme).service(service).build(),
                    pair: paired(scheme).then(|| format!("{arrival}@{load}")),
                });
            }
        }
    }
    cells
}

fn lifetime_cells(seed: u64) -> Result<Vec<Cell>, String> {
    let topology = Topology::new(2, 2)?;
    let service = ServiceConfig::builder()
        .load(LIFETIME_LOAD)
        .zipf_theta(0.99)
        .requests(LIFETIME_REQUESTS)
        .build();
    let cell = |scheme: Scheme, ber: f64, coding: CodingKind, remap: RemapKind| Cell {
        label: format!(
            "ber{ber:e}/{}/{}/{}",
            coding.name(),
            remap.name(),
            scheme.name()
        ),
        cfg: SimConfig::builder()
            .scheme(scheme)
            .service(service)
            .topology(topology)
            .track_wear(true)
            .faults(FaultConfig::with_ber(seed, ber))
            .coding(coding)
            .remap(remap)
            .build(),
        // The speed-up pairs LADDER-Est with Baseline on the campaign's
        // default reliability stack.
        pair: (coding == CodingKind::Flat && remap == RemapKind::Retire)
            .then(|| format!("ber{ber:e}")),
    };
    let mut cells = Vec::new();
    for ber in LIFETIME_BERS {
        for coding in [CodingKind::Flat, CodingKind::TieredBch] {
            for remap in RemapKind::ALL {
                cells.push(cell(Scheme::LadderEst, ber, coding, remap));
            }
        }
        cells.push(cell(
            Scheme::Baseline,
            ber,
            CodingKind::Flat,
            RemapKind::Retire,
        ));
    }
    Ok(cells)
}

/// Whether `scheme` is one half of a LADDER-Est vs Baseline speed-up pair.
fn paired(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::LadderEst | Scheme::Baseline)
}

/// What a cell's run expects to see, computed once from its inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    /// Instructions each core must retire (closed loop).
    pub instructions: Vec<u64>,
    /// Requests the stream offers (open loop: arrivals over all shards).
    pub arrivals: u64,
}

/// Derives the expected request budget of `cell` by draining the same
/// generators the simulator uses (closed loop) or from its configured
/// request count (open loop).
pub fn expected(cell: &Cell, ecfg: &ExperimentConfig) -> Expected {
    match &cell.cfg.service {
        Some(s) => Expected {
            instructions: Vec::new(),
            arrivals: s.requests * cell.shards(),
        },
        None => {
            // A core retires each event's compute gap plus the memory
            // instruction itself.
            let instructions = cell
                .cfg
                .workload
                .members()
                .into_iter()
                .enumerate()
                .map(|(core, bench)| {
                    let (mut src, _) = trace_for(bench, core, ecfg);
                    let mut n = 0;
                    while let Some(ev) = src.next_event() {
                        n += ev.gap_instructions + 1;
                    }
                    n
                })
                .collect();
            Expected {
                instructions,
                arrivals: 0,
            }
        }
    }
}

/// The deterministic outputs of one simulation, and the figures the
/// benchmark derives from them.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulated memory requests completed (demand reads + data writes).
    pub requests: u64,
    /// Kernel dispatch counters.
    pub events: EventCounts,
    /// Folded controller statistics.
    pub mem: MemStats,
    /// Final simulated time, ps.
    pub end_ps: u64,
    /// Sum of per-core IPC (closed loop).
    pub ipc_sum: f64,
    /// Instructions each core retired (closed loop).
    pub retired: Vec<u64>,
    /// Whether some core finished after the run's end.
    pub core_overran: bool,
    /// Metadata-cache hit ratio (LADDER schemes, monolithic runs).
    pub cache_hit: Option<f64>,
    /// Open-loop `(arrivals, reads_completed, writes_accepted, deferred)`.
    pub service: Option<(u64, u64, u64, u64)>,
    /// Coding-layer resolves over all tiers, and remaps.
    pub coding: Option<(u64, u64)>,
    /// Digest of every deterministic output above plus the full
    /// statistics structs.
    pub digest: u64,
}

/// Runs `cell` to completion on one worker. A panic inside the simulator
/// is returned as an error.
pub fn run_cell(
    cell: &Cell,
    ecfg: &ExperimentConfig,
    tables: &Tables,
    trace: bool,
) -> Result<(Outcome, Vec<ladder_trace::Trace>), String> {
    let mut cfg = cell.cfg;
    cfg.trace = trace;
    catch_unwind(AssertUnwindSafe(|| {
        let (events, mem, end, service, faults, coding, hist, cores, cache_hit, traces) =
            if cfg.topology.is_some() {
                // A fresh runner per simulation: a `Runner` keeps every
                // job's statistics for its whole life, so reusing one would
                // grow the heap with the length of the benchmark run.
                let run = run_sharded(&cfg, ecfg, tables, &Runner::sequential());
                let cache_hit = pooled_hit_ratio(&run.shards);
                let traces = run.shards.into_iter().filter_map(|r| r.trace).collect();
                (
                    run.events,
                    run.mem,
                    run.end,
                    run.service,
                    run.faults,
                    run.coding,
                    run.read_histogram,
                    Vec::new(),
                    cache_hit,
                    traces,
                )
            } else {
                let run = run_sim(&cfg, ecfg, tables);
                (
                    run.events,
                    run.mem,
                    run.end,
                    run.service,
                    run.faults,
                    run.coding,
                    run.read_histogram,
                    run.cores,
                    run.cache_hit,
                    run.trace.into_iter().collect(),
                )
            };
        let mut text = String::new();
        for c in &cores {
            let _ = write!(
                text,
                "{}:{}:{}:{};",
                c.label,
                c.retired,
                c.ipc,
                c.finish.as_ps()
            );
        }
        let _ = write!(
            text,
            "{events:?}{mem:?}{}{service:?}{faults:?}{coding:?}{cache_hit:?}{hist:?}",
            end.as_ps()
        );
        let out = Outcome {
            requests: mem.demand_reads + mem.data_writes,
            events,
            mem,
            end_ps: end.as_ps(),
            ipc_sum: cores.iter().map(|c| c.ipc).sum(),
            retired: cores.iter().map(|c| c.retired).collect(),
            core_overran: cores.iter().any(|c| c.finish > end),
            cache_hit,
            service: service
                .as_ref()
                .map(|s| (s.arrivals, s.reads_completed, s.writes_accepted, s.deferred)),
            coding: coding.map(|c| (c.resolves.iter().sum(), c.remaps)),
            digest: fnv(text.as_bytes()),
        };
        (out, traces)
    }))
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{}: simulator panicked: {msg}", cell.label)
    })
}

/// The shards' metadata-cache hit ratios, weighted by their data writes.
fn pooled_hit_ratio(shards: &[ladder_sim::RunResult]) -> Option<f64> {
    let (mut hits, mut writes) = (0.0, 0u64);
    for r in shards {
        let hit = r.cache_hit?;
        hits += hit * r.mem.data_writes as f64;
        writes += r.mem.data_writes;
    }
    (writes > 0).then(|| hits / writes as f64)
}

/// Checks the conservation invariants of one outcome against what its
/// inputs promise.
pub fn check(cell: &Cell, want: &Expected, out: &Outcome) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}: {what}", cell.label));
    if out.requests == 0 || out.events.total() == 0 || out.end_ps == 0 {
        return fail("empty run".to_string());
    }
    match out.service {
        Some((arrivals, reads, writes, _)) => {
            if arrivals != want.arrivals {
                return fail(format!("{arrivals} arrivals, {} offered", want.arrivals));
            }
            if arrivals != reads + writes {
                return fail(format!(
                    "{arrivals} arrivals != {reads} reads completed + {writes} writes accepted"
                ));
            }
        }
        None => {
            if out.retired != want.instructions {
                return fail(format!(
                    "cores retired {:?} instructions, budgets are {:?}",
                    out.retired, want.instructions
                ));
            }
            if out.core_overran {
                return fail("a core finished after the run ended".to_string());
            }
        }
    }
    Ok(())
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds `digest` into a running workload digest (order-sensitive).
pub fn fold_digest(acc: u64, digest: u64) -> u64 {
    fnv(&[acc.to_le_bytes(), digest.to_le_bytes()].concat())
}

/// The ops one cell's generators emit, in stream order: `(arrival ps,
/// op)`. Closed-loop streams carry no arrival times (0), so a replay
/// offers them back to back; open-loop streams carry the arrival
/// process's timestamps. At most `limit` ops are collected.
pub fn request_stream(cell: &Cell, ecfg: &ExperimentConfig, limit: usize) -> Vec<(u64, TraceOp)> {
    let mut ops = Vec::with_capacity(limit);
    match &cell.cfg.service {
        Some(s) => {
            let mut gen = crate::layers::service_gen(s, ecfg.seed);
            while ops.len() < limit {
                match gen.next_request() {
                    Some(r) => ops.push((r.at_ps, r.op)),
                    None => break,
                }
            }
        }
        None => {
            // Interleave the cores round-robin, as they share the
            // controller.
            let mut srcs: Vec<Box<dyn TraceSource>> = cell
                .cfg
                .workload
                .members()
                .into_iter()
                .enumerate()
                .map(|(core, bench)| trace_for(bench, core, ecfg).0)
                .collect();
            let mut live = true;
            while live && ops.len() < limit {
                live = false;
                for src in srcs.iter_mut() {
                    if let Some(ev) = src.next_event() {
                        live = true;
                        if ops.len() < limit {
                            ops.push((0, ev.op));
                        }
                    }
                }
            }
        }
    }
    ops
}
