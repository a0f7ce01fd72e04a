//! The sharded multi-channel runner: one controller and event stream per
//! channel, folded bit-reproducibly.
//!
//! A topology `C x R` splits the module into `C` shards, each a
//! one-channel slice ([`Topology::shard_geometry`]) driven by its own
//! event kernel (the same system assembly as [`crate::run_sim`]) with a
//! shard-salted workload stream. Shards are fully independent
//! simulations, so they fan out on the work-stealing [`Runner`] — and
//! because the runner returns results in submission order, every merged
//! statistic and the merged golden-trace digest are bit-identical at any
//! `--jobs`.

use crate::config::{workload_cores, SimConfig};
use crate::experiments::ExperimentConfig;
use crate::runner::{Runner, RunnerStats};
use crate::service::ServiceStats;
use crate::system::{simulate, EventCounts, RunResult};
use ladder_coding::CodingStats;
use ladder_energy::EnergyBreakdown;
use ladder_faults::FaultStats;
use ladder_memctrl::{LatencyHistogram, MemStats, Tables};
use ladder_reram::{Geometry, Instant, Interleave, Topology};
use ladder_trace::{merge_digests, Mergeable, TraceDigest};

/// Outcome of one sharded run: the per-shard results plus every
/// cross-shard fold a figure or gate consumes.
#[derive(Debug)]
pub struct ShardedRun {
    /// The topology that was simulated.
    pub topology: Topology,
    /// The address striping policy the shards decoded with.
    pub interleave: Interleave,
    /// Per-shard results, in shard-index (= channel) order.
    pub shards: Vec<RunResult>,
    /// Memory-controller statistics folded over all shards.
    pub mem: MemStats,
    /// Event-kernel dispatch counters folded over all shards.
    pub events: EventCounts,
    /// Dynamic energy summed over all shards.
    pub energy: EnergyBreakdown,
    /// Final simulated time: the slowest shard's end.
    pub end: Instant,
    /// Demand-read latency distribution folded over all shards.
    pub read_histogram: LatencyHistogram,
    /// Fault-model counters folded over all shards, when fault injection
    /// was requested.
    pub faults: Option<FaultStats>,
    /// Coding-layer counters folded over all shards, when fault injection
    /// was requested.
    pub coding: Option<CodingStats>,
    /// Open-loop service statistics folded over all shards, when the
    /// config selected service mode.
    pub service: Option<ServiceStats>,
    /// Merged golden-trace digest (shard digests folded in shard order),
    /// when tracing was requested and every shard produced a trace.
    pub digest: Option<TraceDigest>,
    /// Total trace records across shards.
    pub records: u64,
    /// Timing observability for the shard batch.
    pub stats: RunnerStats,
}

impl ShardedRun {
    /// Instructions retired summed over every core of every shard.
    pub fn retired(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|r| r.cores.iter())
            .map(|c| c.retired)
            .sum()
    }

    /// Renders a human-readable report of the merged run.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "topology {} ({} interleave), {} shards",
            self.topology,
            self.interleave,
            self.shards.len()
        );
        for (i, r) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i}: {} retired, {} writes, {} reads, end {:.1} us",
                r.cores.iter().map(|c| c.retired).sum::<u64>(),
                r.mem.data_writes,
                r.mem.demand_reads,
                r.end.as_ps() as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "  merged: {} writes, {} reads, {:.1} nJ, end {:.1} us, {} kernel events",
            self.mem.data_writes,
            self.mem.demand_reads,
            self.energy.total_pj() / 1000.0,
            self.end.as_ps() as f64 / 1e6,
            self.events.total()
        );
        if let Some(d) = self.digest {
            let _ = writeln!(out, "  merged trace digest: {d} ({} records)", self.records);
        }
        out
    }
}

/// Runs the sharded topology described by `cfg`: one independent
/// event-kernel simulation per channel, fanned out on `runner` and folded
/// in shard order.
///
/// # Panics
///
/// Panics if `cfg.topology` is `None`: a monolithic config belongs to
/// [`crate::config::run_sim`].
pub fn run_sharded(
    cfg: &SimConfig,
    ecfg: &ExperimentConfig,
    tables: &Tables,
    runner: &Runner,
) -> ShardedRun {
    #[expect(
        clippy::expect_used,
        reason = "entry-point contract: mixing the monolithic and sharded paths is a caller bug, documented under # Panics"
    )]
    let topology = cfg
        .topology
        .expect("run_sharded requires a topology; monolithic configs go through run_sim");
    let shard_geometry = topology.shard_geometry(&Geometry::default());
    let (shards, stats) = runner.run_jobs(topology.shards(), |s| {
        let shard = Some(s as u32);
        let cores = workload_cores(cfg, ecfg, &shard_geometry, shard);
        simulate(cfg, ecfg, tables, shard_geometry.clone(), shard, cores)
    });

    let mut mem = MemStats::default();
    let mut events = EventCounts::default();
    let mut energy = EnergyBreakdown::default();
    let mut end = Instant::ZERO;
    let mut read_histogram = LatencyHistogram::default();
    let mut faults: Option<FaultStats> = None;
    let mut coding: Option<CodingStats> = None;
    let mut service: Option<ServiceStats> = None;
    let mut records = 0;
    let mut shard_digests = Vec::with_capacity(shards.len());
    for r in &shards {
        mem.merge_from(&r.mem);
        events.merge_from(&r.events);
        energy.read_pj += r.energy.read_pj;
        energy.write_pj += r.energy.write_pj;
        end = end.max(r.end);
        read_histogram.merge_from(&r.read_histogram);
        if let Some(f) = &r.faults {
            faults.get_or_insert_with(FaultStats::default).merge_from(f);
        }
        if let Some(c) = &r.coding {
            coding
                .get_or_insert_with(CodingStats::default)
                .merge_from(c);
        }
        if let Some(s) = &r.service {
            service
                .get_or_insert_with(ServiceStats::default)
                .merge_from(s);
        }
        if let Some(t) = &r.trace {
            records += t.records;
            shard_digests.push(t.digest);
        }
    }
    // All shards share one tracing flag, so a partial digest set can only
    // mean a logic error; fold only when complete.
    let digest =
        (cfg.trace && shard_digests.len() == shards.len()).then(|| merge_digests(shard_digests));

    ShardedRun {
        topology,
        interleave: cfg.interleave,
        shards,
        mem,
        events,
        energy,
        end,
        read_histogram,
        faults,
        coding,
        service,
        digest,
        records,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Workload;
    use crate::scheme::Scheme;

    fn sharded_cfg(channels: usize) -> SimConfig {
        SimConfig::builder()
            .scheme(Scheme::LadderEst)
            .workload(Workload::Single("astar"))
            .topology(Topology::new(channels, 2).expect("valid topology"))
            .trace(true)
            .build()
    }

    fn tiny_ecfg() -> ExperimentConfig {
        ExperimentConfig {
            instructions_per_core: 15_000,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "requires a topology")]
    fn run_sharded_rejects_monolithic_configs() {
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        run_sharded(
            &SimConfig::new(Scheme::Baseline, Workload::Single("astar")),
            &ecfg,
            &tables,
            &Runner::sequential(),
        );
    }

    #[test]
    fn shards_are_distinct_and_folds_cover_them() {
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let run = run_sharded(&sharded_cfg(2), &ecfg, &tables, &Runner::sequential());
        assert_eq!(run.shards.len(), 2);
        // Shard-salted seeds: the two channels simulate different streams.
        assert_ne!(
            run.shards[0].trace.as_ref().map(|t| t.digest),
            run.shards[1].trace.as_ref().map(|t| t.digest)
        );
        // The folds cover every shard.
        let writes: u64 = run.shards.iter().map(|r| r.mem.data_writes).sum();
        assert_eq!(run.mem.data_writes, writes);
        assert_eq!(
            run.end,
            run.shards.iter().map(|r| r.end).max().expect("two shards")
        );
        assert!(run.digest.is_some());
        assert!(run.records > 0);
        let s = run.summary();
        assert!(s.contains("topology 2x2"), "{s}");
        assert!(s.contains("merged trace digest"), "{s}");
    }

    #[test]
    fn sharded_service_runs_fold_tenant_stats_jobs_invariantly() {
        use crate::service::ServiceConfig;

        let cfg = SimConfig::builder()
            .scheme(Scheme::LadderEst)
            .workload(Workload::Single("astar"))
            .topology(Topology::new(4, 2).expect("valid topology"))
            .service(ServiceConfig::builder().load(6.0).requests(800).build())
            .build();
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let seq = run_sharded(&cfg, &ecfg, &tables, &Runner::sequential());
        let par = run_sharded(&cfg, &ecfg, &tables, &Runner::with_jobs(4));
        let svc = seq.service.as_ref().expect("service mode");
        // 4 shards × 800 requests, all serviced.
        assert_eq!(svc.arrivals, 4 * 800);
        assert_eq!(svc.reads_completed + svc.writes_accepted, 4 * 800);
        // Per-shard streams are salted differently but tenant names align,
        // so the fold groups by tenant across shards.
        assert_eq!(svc.tenants.iter().count(), 3);
        // The fold is bit-reproducible at any --jobs.
        assert_eq!(seq.service, par.service);
        assert_eq!(seq.end, par.end);
    }

    #[test]
    fn merged_digest_is_jobs_invariant() {
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let seq = run_sharded(&sharded_cfg(4), &ecfg, &tables, &Runner::sequential());
        let par = run_sharded(&sharded_cfg(4), &ecfg, &tables, &Runner::with_jobs(4));
        assert_eq!(seq.digest, par.digest);
        assert_eq!(seq.mem.data_writes, par.mem.data_writes);
        assert_eq!(seq.end, par.end);
    }

    #[test]
    fn each_shard_is_stamped_with_its_index() {
        let ecfg = tiny_ecfg();
        let tables = ecfg.tables();
        let run = run_sharded(&sharded_cfg(2), &ecfg, &tables, &Runner::sequential());
        for (i, r) in run.shards.iter().enumerate() {
            let t = r.trace.as_ref().expect("tracing on");
            assert_eq!(
                t.totals.shard_tags, 1,
                "shard {i} must carry exactly one ShardTag"
            );
        }
    }
}
