//! Cross-crate integration tests: whole-system runs under every scheme,
//! checking the invariants the paper's evaluation relies on.

use ladder::sim::experiments::{ExperimentConfig, Workload};
use ladder::sim::{run_sim, Leveling, RunResult, Scheme, SimConfig};

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        instructions_per_core: 60_000,
        ..ExperimentConfig::default()
    }
}

fn run(scheme: Scheme, workload: Workload, cfg: &ExperimentConfig) -> RunResult {
    let tables = cfg.tables();
    run_sim(&SimConfig::new(scheme, workload), cfg, &tables)
}

#[test]
fn every_scheme_completes_a_single_workload() {
    let cfg = quick_cfg();
    let tables = cfg.tables();
    for scheme in Scheme::MAIN_EVAL {
        let r = run_sim(
            &SimConfig::new(scheme, Workload::Single("astar")),
            &cfg,
            &tables,
        );
        assert!(r.cores[0].retired > 0, "{scheme}: no instructions retired");
        assert!(r.mem.data_writes > 0, "{scheme}: no writes serviced");
        assert!(r.mem.demand_reads > 0, "{scheme}: no reads serviced");
        assert!(r.energy.total_pj() > 0.0);
    }
}

#[test]
fn runs_are_deterministic() {
    let cfg = quick_cfg();
    let a = run(Scheme::LadderHybrid, Workload::Single("mcf"), &cfg);
    let b = run(Scheme::LadderHybrid, Workload::Single("mcf"), &cfg);
    assert_eq!(a.mem.data_writes, b.mem.data_writes);
    assert_eq!(a.mem.demand_read_latency, b.mem.demand_read_latency);
    assert_eq!(a.mem.t_wr_data, b.mem.t_wr_data);
    assert_eq!(a.end, b.end);
    assert_eq!(a.cores[0].retired, b.cores[0].retired);
}

#[test]
fn seed_changes_the_run() {
    let cfg = quick_cfg();
    let mut cfg2 = quick_cfg();
    cfg2.seed = 777;
    let a = run(Scheme::Baseline, Workload::Single("lbm"), &cfg);
    let b = run(Scheme::Baseline, Workload::Single("lbm"), &cfg2);
    assert_ne!(a.end, b.end, "different seeds must yield different traces");
}

#[test]
fn paper_scheme_ordering_holds_on_write_service() {
    // Figure 12's ordering: oracle ≤ LADDER variants < BLP < baseline, and
    // Split-reset < baseline.
    let cfg = quick_cfg();
    let tables = cfg.tables();
    let w = Workload::Single("fsim");
    let get = |s| {
        run_sim(&SimConfig::new(s, w), &cfg, &tables)
            .avg_write_service()
            .as_ns()
    };
    let baseline = get(Scheme::Baseline);
    let split = get(Scheme::SplitReset);
    let blp = get(Scheme::Blp);
    let est = get(Scheme::LadderEst);
    let oracle = get(Scheme::Oracle);
    assert!(oracle <= est * 1.02, "oracle {oracle} vs est {est}");
    assert!(est < blp, "LADDER-Est {est} must beat BLP {blp}");
    assert!(blp < split, "BLP {blp} must beat Split-reset {split}");
    assert!(
        split < baseline,
        "Split-reset {split} must beat baseline {baseline}"
    );
}

#[test]
fn ladder_speedup_is_substantial_on_mixes() {
    let cfg = quick_cfg();
    let tables = cfg.tables();
    let w = Workload::Mix("mix-7");
    let base = run_sim(&SimConfig::new(Scheme::Baseline, w), &cfg, &tables);
    let hyb = run_sim(&SimConfig::new(Scheme::LadderHybrid, w), &cfg, &tables);
    let speedup: f64 = hyb
        .cores
        .iter()
        .zip(&base.cores)
        .map(|(a, b)| a.ipc / b.ipc)
        .sum::<f64>()
        / 4.0;
    assert!(speedup > 1.2, "mix speedup {speedup} too small");
}

#[test]
fn metadata_traffic_ranks_basic_above_est_above_hybrid() {
    let cfg = ExperimentConfig {
        instructions_per_core: 120_000,
        ..ExperimentConfig::default()
    };
    let tables = cfg.tables();
    let w = Workload::Single("cannl");
    let basic = run_sim(&SimConfig::new(Scheme::LadderBasic, w), &cfg, &tables);
    let est = run_sim(&SimConfig::new(Scheme::LadderEst, w), &cfg, &tables);
    let hybrid = run_sim(&SimConfig::new(Scheme::LadderHybrid, w), &cfg, &tables);
    assert!(
        basic.mem.additional_read_fraction() > est.mem.additional_read_fraction(),
        "SMB reads must make Basic's read overhead the largest"
    );
    assert!(
        est.mem.additional_read_fraction() >= hybrid.mem.additional_read_fraction(),
        "Hybrid must not read more metadata than Est"
    );
    assert!(basic.mem.additional_write_fraction() > hybrid.mem.additional_write_fraction());
}

#[test]
fn wear_leveling_keeps_most_of_the_performance() {
    let cfg = quick_cfg();
    let tables = cfg.tables();
    let w = Workload::Single("lbm");
    let plain = run_sim(&SimConfig::new(Scheme::LadderHybrid, w), &cfg, &tables);
    let leveled = run_sim(
        &SimConfig::builder()
            .scheme(Scheme::LadderHybrid)
            .workload(w)
            .leveling(Leveling::Segment)
            .track_wear(true)
            .build(),
        &cfg,
        &tables,
    );
    let ratio = leveled.ipc0() / plain.ipc0();
    assert!(ratio > 0.9, "wear-leveling cost too high: {ratio}");
    assert!(leveled.wear.is_some());
}

#[test]
fn shrunk_range_still_beats_baseline() {
    let cfg = quick_cfg();
    let v = ladder::sim::experiments::variability(
        &cfg,
        Workload::Single("astar"),
        &ladder::Runner::new(),
    );
    assert!(v.speedup_full > 1.0);
    assert!(v.speedup_shrunk > 1.0, "shrunk-range LADDER must still win");
    assert!(v.speedup_shrunk < v.speedup_full * 1.02);
}
