//! The topology-aware simulation configuration: [`SimConfig`] and its
//! builder — the single front door for launching simulations.
//!
//! A [`SimConfig`] names the scheme and workload of a run plus everything
//! that modifies it: an optional sharded [`Topology`], the address
//! [`Interleave`] policy, controller/engine/leveling/fault/tracing
//! options. Monolithic runs (no topology) go through [`run_sim`]; sharded
//! runs go through [`crate::shard::run_sharded`], which spawns one
//! controller per channel and folds the shards deterministically; runs
//! driven by caller-supplied traces go through [`run_traces`]. All three
//! assemble their system in the same place.
//!
//! Construction goes through [`SimConfig::builder`]: the struct carries a
//! private field, so no module but this one can write a struct literal,
//! and new knobs can be added without breaking callers.

use crate::experiments::{shard_trace_for, ExperimentConfig, Workload};
use crate::scheme::Scheme;
use crate::service::ServiceConfig;
use crate::system::{simulate, CoreTrace, RunResult};
use ladder_coding::CodingKind;
use ladder_core::LadderConfig;
use ladder_faults::FaultConfig;
use ladder_memctrl::{MemCtrlConfig, Tables};
use ladder_reram::{Geometry, Interleave, QueueBackend, Topology};
use ladder_wear::{HotPageRemapper, RemapKind, SegmentVwl, StartGap, WearLeveler};

/// Full description of one simulation: scheme, workload, topology and
/// every run-modifying option.
///
/// Build with [`SimConfig::builder`] (or [`SimConfig::new`] for a plain
/// `(scheme, workload)` cell):
///
/// ```
/// use ladder_sim::{Scheme, SimConfig};
/// use ladder_sim::experiments::Workload;
///
/// let cfg = SimConfig::builder()
///     .scheme(Scheme::LadderEst)
///     .workload(Workload::Single("astar"))
///     .topology("4x2".parse().unwrap())
///     .trace(true)
///     .build();
/// assert_eq!(cfg.topology.unwrap().channels, 4);
/// ```
///
/// A struct literal, even one that fills the rest from a built config, does
/// not compile outside this module:
///
/// ```compile_fail
/// use ladder_sim::SimConfig;
///
/// let cfg = SimConfig {
///     trace: true,
///     ..SimConfig::builder().build()
/// };
/// ```
#[derive(Debug, Clone, Copy)]
#[expect(
    clippy::manual_non_exhaustive,
    reason = "the private field also rejects struct literals in the rest of this crate"
)]
pub struct SimConfig {
    /// The write scheme under test.
    pub scheme: Scheme,
    /// The workload driving the cores.
    pub workload: Workload,
    /// Sharded topology: `Some(CxR)` runs one controller per channel
    /// ([`crate::shard::run_sharded`]); `None` is the paper's monolithic
    /// single-controller configuration.
    pub topology: Option<Topology>,
    /// Address striping policy (default: the legacy channel-fastest
    /// order).
    pub interleave: Interleave,
    /// Track per-write exact counters (Fig. 15).
    pub track_exact: bool,
    /// Track per-line wear (Section 6.4).
    pub track_wear: bool,
    /// Wear-leveling wrapped around the address path (Section 6.4).
    pub leveling: Leveling,
    /// Memory-controller configuration: queue depths and drain
    /// watermarks (paper Table 2 by default).
    pub mem_ctrl: MemCtrlConfig,
    /// LADDER engine override (cache geometry, shifting, FNW policy,
    /// low-precision rows) for ablations; its `variant` is replaced by
    /// the scheme's. `None` runs each variant's paper configuration;
    /// non-LADDER schemes ignore it.
    pub ladder: Option<LadderConfig>,
    /// Install the device fault model (stuck-at + transient write
    /// failures, P&V retries, ECC/remap recovery).
    pub faults: Option<FaultConfig>,
    /// Code scheme consulted by the fault model's resolve path. The
    /// default, [`CodingKind::Flat`], is the legacy flat-ECC budget —
    /// byte-identical to runs predating this knob. Only meaningful when
    /// `faults` is set.
    pub coding: CodingKind,
    /// Remap backend absorbing faulty pages. The default,
    /// [`RemapKind::Retire`], is the legacy one-way retirement pool —
    /// byte-identical to runs predating this knob. Only meaningful when
    /// `faults` is set.
    pub remap: RemapKind,
    /// Event-queue backend; the binary heap is the only one.
    ///
    /// Kept only so that perfbench's queue replay compiles; the next benchmark change deletes it.
    pub queue: QueueBackend,
    /// Capture a structured trace ([`RunResult::trace`]).
    pub trace: bool,
    /// Open-loop service mode: `Some` replaces the closed-loop cores with
    /// a timestamped multi-tenant request stream
    /// ([`crate::service::ServiceConfig`]); the `workload` field is then
    /// unused. `None` is the legacy closed-loop path, byte-compatible
    /// with the golden digests.
    pub service: Option<ServiceConfig>,
    /// Keeps struct literals out of every module but this one.
    _private: (),
}

impl SimConfig {
    /// Starts a builder with the defaults: baseline scheme, `astar`
    /// single workload, monolithic topology, channel interleave, no
    /// tracking, no faults, no trace.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig {
                scheme: Scheme::Baseline,
                workload: Workload::Single("astar"),
                topology: None,
                interleave: Interleave::Channel,
                track_exact: false,
                track_wear: false,
                leveling: Leveling::Off,
                mem_ctrl: MemCtrlConfig::default(),
                ladder: None,
                faults: None,
                coding: CodingKind::Flat,
                remap: RemapKind::Retire,
                queue: QueueBackend::Heap,
                trace: false,
                service: None,
                _private: (),
            },
        }
    }

    /// A plain `(scheme, workload)` cell with every option at its
    /// default — the common case of evaluation matrices.
    pub fn new(scheme: Scheme, workload: Workload) -> Self {
        Self::builder().scheme(scheme).workload(workload).build()
    }

    /// Number of independent simulations this config describes: the shard
    /// count of its topology, or 1 for a monolithic run.
    pub fn shards(&self) -> usize {
        self.topology.map(|t| t.shards()).unwrap_or(1)
    }
}

/// Wear-leveling scheme applied to every write before it reaches the
/// controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leveling {
    /// No leveling: logical lines map straight to physical lines.
    Off,
    /// Segment-based vertical wear-leveling plus horizontal byte rotation
    /// — the LADDER-friendly kind (Section 6.4).
    Segment,
    /// Line-based start-gap over the data region, which scatters a page's
    /// lines across wordline groups (Section 6.4's counter-example).
    StartGap,
    /// Adaptive remapping of write-hot pages into the bottom (fast)
    /// wordlines — the Section 8 extension.
    HotPage,
}

/// Builder for [`SimConfig`] — see [`SimConfig::builder`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the write scheme under test.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Sets the workload driving the cores.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.cfg.workload = workload;
        self
    }

    /// Requests a sharded `channels × ranks` run (one controller and
    /// event stream per channel).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.cfg.topology = Some(topology);
        self
    }

    /// Sets the address striping policy.
    pub fn interleave(mut self, interleave: Interleave) -> Self {
        self.cfg.interleave = interleave;
        self
    }

    /// Tracks per-write exact counters (Fig. 15).
    pub fn track_exact(mut self, on: bool) -> Self {
        self.cfg.track_exact = on;
        self
    }

    /// Tracks per-line wear (Section 6.4).
    pub fn track_wear(mut self, on: bool) -> Self {
        self.cfg.track_wear = on;
        self
    }

    /// Selects the wear-leveling scheme (default: none).
    pub fn leveling(mut self, leveling: Leveling) -> Self {
        self.cfg.leveling = leveling;
        self
    }

    /// Overrides the memory-controller configuration (queue depths, drain
    /// watermarks).
    pub fn mem_ctrl(mut self, mem_ctrl: MemCtrlConfig) -> Self {
        self.cfg.mem_ctrl = mem_ctrl;
        self
    }

    /// Overrides the LADDER engine configuration for ablation studies.
    pub fn ladder(mut self, ladder: LadderConfig) -> Self {
        self.cfg.ladder = Some(ladder);
        self
    }

    /// Installs the device fault model.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.faults = Some(faults);
        self
    }

    /// Selects the code scheme the fault model resolves residues with
    /// (default: the legacy flat-ECC budget).
    pub fn coding(mut self, kind: CodingKind) -> Self {
        self.cfg.coding = kind;
        self
    }

    /// Selects the remap backend absorbing faulty pages (default: the
    /// legacy one-way retirement pool).
    pub fn remap(mut self, kind: RemapKind) -> Self {
        self.cfg.remap = kind;
        self
    }

    /// Captures a structured trace ([`RunResult::trace`]).
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Selects open-loop service mode: the run is driven by `service`'s
    /// timestamped multi-tenant request stream instead of closed-loop
    /// cores, and the result carries per-tenant latency statistics.
    pub fn service(mut self, service: ServiceConfig) -> Self {
        self.cfg.service = Some(service);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> SimConfig {
        self.cfg
    }
}

/// The closed-loop cores `cfg.workload` places on `geometry` (none in
/// service mode, where the request stream replaces them). `shard` salts
/// the workload seeds.
pub(crate) fn workload_cores(
    cfg: &SimConfig,
    ecfg: &ExperimentConfig,
    geometry: &Geometry,
    shard: Option<u32>,
) -> Vec<CoreTrace> {
    if cfg.service.is_some() {
        return Vec::new();
    }
    cfg.workload
        .members()
        .into_iter()
        .enumerate()
        .map(|(core, bench)| shard_trace_for(bench, core, ecfg, geometry, shard))
        .collect()
}

/// The vertical leveler `leveling` installs over the data region of
/// `geometry` (above the metadata/reserve pages at `pages/16`), if any.
pub(crate) fn make_leveler(
    leveling: Leveling,
    ecfg: &ExperimentConfig,
    geometry: &Geometry,
) -> Option<Box<dyn WearLeveler>> {
    let pages = geometry.pages() as u64;
    let data_base = pages / 16;
    match leveling {
        Leveling::Off => None,
        // 16 MB segments (4096 pages), swapping every 100k writes.
        Leveling::Segment => {
            let pages_per_segment = 4096;
            let segments = (pages - data_base) / pages_per_segment;
            Some(Box::new(SegmentVwl::new(
                data_base,
                segments,
                pages_per_segment,
                100_000,
                ecfg.seed,
            )))
        }
        // One gap line rotating every 100 writes.
        Leveling::StartGap => {
            let base_line = data_base * 64;
            Some(Box::new(StartGap::new(
                base_line,
                geometry.lines() - base_line - 1,
                100,
            )))
        }
        // Frames: data pages in the lowest 32 wordlines, below the cores'
        // windows so no workload data is displaced; a page is promoted
        // after 400 writes.
        Leveling::HotPage => {
            let wl_div = geometry.total_banks() as u64;
            let frames: Vec<u64> = (0..pages)
                .filter(|&p| (p / wl_div) % (geometry.mat_rows as u64) < 32 && p < data_base)
                .take(4096)
                .collect();
            Some(Box::new(HotPageRemapper::new(frames, 400)))
        }
    }
}

/// Runs one monolithic (single-controller) simulation described by `cfg`.
///
/// This is the topology-free entry point — the replacement for the old
/// positional `run_one(scheme, workload, cfg, tables, opts)` call. Sharded
/// configurations go through [`crate::shard::run_sharded`].
///
/// # Panics
///
/// Panics if `cfg.topology` is set: a sharded run produces one result per
/// shard and must be launched through the sharded runner.
pub fn run_sim(cfg: &SimConfig, ecfg: &ExperimentConfig, tables: &Tables) -> RunResult {
    assert!(
        cfg.topology.is_none(),
        "run_sim is the monolithic path; run topology {} through shard::run_sharded",
        cfg.topology.map(|t| t.to_string()).unwrap_or_default()
    );
    let geometry = Geometry::default();
    let cores = workload_cores(cfg, ecfg, &geometry, None);
    simulate(cfg, ecfg, tables, geometry, None, cores)
}

/// Runs one monolithic simulation whose cores replay caller-supplied
/// trace sources — `(trace, MLP)` per core — instead of `cfg.workload`.
/// Every other knob of `cfg` applies as in [`run_sim`].
///
/// # Panics
///
/// Panics if `cores` is empty, or if `cfg` names a topology or a service
/// stream: both replace the caller's cores, so they run through
/// [`crate::shard::run_sharded`] and [`run_sim`].
pub fn run_traces(
    cfg: &SimConfig,
    ecfg: &ExperimentConfig,
    tables: &Tables,
    cores: Vec<CoreTrace>,
) -> RunResult {
    assert!(
        cfg.topology.is_none() && cfg.service.is_none(),
        "run_traces drives caller-supplied cores on the monolithic path; run topologies \
         through shard::run_sharded and service streams through run_sim"
    );
    simulate(cfg, ecfg, tables, Geometry::default(), None, cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_core::LadderVariant;

    #[test]
    fn builder_defaults_are_the_monolithic_baseline() {
        let cfg = SimConfig::builder().build();
        assert_eq!(cfg.scheme, Scheme::Baseline);
        assert_eq!(cfg.workload, Workload::Single("astar"));
        assert!(cfg.topology.is_none());
        assert_eq!(cfg.interleave, Interleave::Channel);
        assert!(!cfg.track_exact && !cfg.track_wear);
        assert_eq!(cfg.leveling, Leveling::Off);
        assert_eq!(cfg.mem_ctrl, MemCtrlConfig::default());
        assert!(cfg.ladder.is_none());
        assert!(cfg.faults.is_none() && !cfg.trace);
        assert_eq!(cfg.coding, CodingKind::Flat);
        assert_eq!(cfg.remap, RemapKind::Retire);
        assert_eq!(cfg.queue, QueueBackend::Heap);
        assert!(cfg.service.is_none());
        assert_eq!(cfg.shards(), 1);
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = SimConfig::builder()
            .scheme(Scheme::LadderHybrid)
            .workload(Workload::Mix("mix-1"))
            .topology(Topology::new(4, 2).unwrap())
            .interleave(Interleave::Page)
            .track_exact(true)
            .track_wear(true)
            .leveling(Leveling::StartGap)
            .mem_ctrl(MemCtrlConfig {
                drain_high: 40,
                ..MemCtrlConfig::default()
            })
            .ladder(LadderConfig::for_variant(LadderVariant::Hybrid))
            .faults(FaultConfig::with_ber(7, 1e-5))
            .coding(CodingKind::TieredBch)
            .remap(RemapKind::Pad)
            .trace(true)
            .service(ServiceConfig::builder().load(6.0).build())
            .build();
        assert_eq!(cfg.scheme, Scheme::LadderHybrid);
        assert_eq!(cfg.shards(), 4);
        assert_eq!(cfg.interleave, Interleave::Page);
        assert!(cfg.track_exact && cfg.track_wear && cfg.trace);
        assert_eq!(cfg.leveling, Leveling::StartGap);
        assert_eq!(cfg.mem_ctrl.drain_high, 40);
        assert_eq!(cfg.ladder.unwrap().variant, LadderVariant::Hybrid);
        assert!(cfg.faults.is_some());
        assert_eq!(cfg.coding, CodingKind::TieredBch);
        assert_eq!(cfg.remap, RemapKind::Pad);
        assert_eq!(cfg.service.unwrap().load, 6.0);
    }

    #[test]
    #[should_panic(expected = "monolithic path")]
    fn run_sim_rejects_sharded_configs() {
        let cfg = SimConfig::builder()
            .topology(Topology::new(2, 2).unwrap())
            .build();
        let ecfg = ExperimentConfig::quick();
        let tables = ecfg.tables();
        let _ = run_sim(&cfg, &ecfg, &tables);
    }

    #[test]
    #[should_panic(expected = "caller-supplied cores")]
    fn run_traces_rejects_sharded_configs() {
        let cfg = SimConfig::builder()
            .topology(Topology::new(2, 2).unwrap())
            .build();
        let ecfg = ExperimentConfig::quick();
        let tables = ecfg.tables();
        let _ = run_traces(&cfg, &ecfg, &tables, Vec::new());
    }

    #[test]
    #[should_panic(expected = "caller-supplied cores")]
    fn run_traces_rejects_service_configs() {
        let cfg = SimConfig::builder()
            .service(ServiceConfig::builder().build())
            .build();
        let ecfg = ExperimentConfig::quick();
        let tables = ecfg.tables();
        let _ = run_traces(&cfg, &ecfg, &tables, Vec::new());
    }
}
