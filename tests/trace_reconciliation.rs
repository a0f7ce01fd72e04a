//! The observability layer's central invariant: trace-derived totals
//! reconcile **exactly** with the ad-hoc statistics the simulator already
//! keeps. Every trace record is emitted at the site where the matching
//! counter increments, so a drifting total means a record site was lost —
//! this test is the tripwire.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use ladder::faults::FaultConfig;
use ladder::reram::Picos;
use ladder::sim::experiments::{ExperimentConfig, Workload};
use ladder::sim::{run_sim, RunResult, Runner, Scheme, SimConfig};
use ladder::trace::{fold, DispatchKind, TraceTotals};
use std::sync::Arc;

fn quick_traced(scheme: Scheme, bench: &'static str, faults: Option<FaultConfig>) -> RunResult {
    let cfg = ExperimentConfig::quick();
    let tables = cfg.tables();
    let mut b = SimConfig::builder()
        .scheme(scheme)
        .workload(Workload::Single(bench))
        .trace(true);
    if let Some(f) = faults {
        b = b.faults(f);
    }
    run_sim(&b.build(), &cfg, &tables)
}

/// Every reconcilable total, asserted exactly (no tolerances: the trace is
/// bookkeeping of the same events, not a re-measurement).
fn assert_reconciles(r: &RunResult) {
    let trace = r.trace.as_ref().expect("tracing was requested");
    let t = &trace.totals;
    let m = &r.mem;

    // Pulses ↔ serviced writes.
    assert_eq!(t.data_pulses, m.data_writes, "data pulses");
    assert_eq!(t.metadata_pulses, m.metadata_writes, "metadata pulses");
    assert_eq!(t.pulse_time, m.t_wr_data, "charged data pulse time");
    assert_eq!(
        t.metadata_pulse_time, m.t_wr_metadata,
        "charged metadata pulse time"
    );

    // Reads, by class, plus the exact demand-latency sum.
    assert_eq!(t.demand_reads, m.demand_reads, "demand reads");
    assert_eq!(t.smb_reads, m.smb_reads, "SMB reads");
    assert_eq!(t.metadata_reads, m.metadata_reads, "metadata reads");
    assert_eq!(
        t.demand_read_latency, m.demand_read_latency,
        "demand read latency sum"
    );

    // Program-and-verify and recovery.
    assert_eq!(t.failed_verifies, m.failed_verifies, "failed verifies");
    assert_eq!(t.failed_verifies, m.retries_issued, "retries");
    assert_eq!(t.retry_time, m.retry_time, "retry time");
    assert_eq!(t.ecc_corrected_bits, m.ecc_corrected_bits, "ECC bits");
    assert_eq!(t.uncorrectable, m.uncorrectable_writes, "uncorrectable");

    // Kernel dispatches, per kind and in total.
    assert_eq!(t.dispatch(DispatchKind::CoreWake), r.events.core_wake);
    assert_eq!(
        t.dispatch(DispatchKind::ReadComplete),
        r.events.read_complete
    );
    assert_eq!(
        t.dispatch(DispatchKind::CtrlWorkArrived),
        r.events.ctrl_work_arrived
    );
    assert_eq!(
        t.dispatch(DispatchKind::CtrlBankFree),
        r.events.ctrl_bank_free
    );
    assert_eq!(
        t.dispatch(DispatchKind::CtrlQueueSlotFree),
        r.events.ctrl_queue_slot_free
    );
    assert_eq!(
        t.dispatch(DispatchKind::CtrlDepReady),
        r.events.ctrl_dep_ready
    );
    assert_eq!(
        t.dispatch(DispatchKind::CtrlModeSwitch),
        r.events.ctrl_mode_switch
    );
    assert_eq!(
        t.dispatch(DispatchKind::CtrlRetryPulse),
        r.events.ctrl_retry_pulse
    );
    assert_eq!(t.dispatch_total(), r.events.total(), "dispatch total");

    // Data-write service time: the trace also charges metadata-writeback
    // service, so it can only exceed the data-only stat — and matches it
    // exactly when no metadata was written back.
    assert!(t.service_time >= m.write_service_time, "service time");
    if m.metadata_writes == 0 {
        assert_eq!(t.service_time, m.write_service_time);
    }

    // Attribution identities: the per-phase decomposition partitions the
    // end-to-end write time, and pulse savings partition the worst-case.
    assert_eq!(
        t.pulse_time + t.retry_time + t.overhead_time(),
        t.service_time,
        "service decomposition"
    );
    assert_eq!(
        t.location_saving() + t.content_saving() + t.pulse_time,
        t.worst_pulse_time,
        "pulse-width decomposition"
    );

    // Cache activity: the trace's hit ratio must agree with the policy's
    // own report (both are ratios of the same integer counters).
    if let Some(reported) = r.cache_hit {
        let traced = t.cache_hit_ratio();
        assert!(
            (traced - reported).abs() < 1e-12,
            "cache hit ratio: trace {traced} vs policy {reported}"
        );
    } else {
        assert_eq!(t.cache_hits + t.cache_misses, 0, "untracked policy");
    }
}

#[test]
fn trace_totals_reconcile_for_every_scheme() {
    for scheme in [
        Scheme::Baseline,
        Scheme::SplitReset,
        Scheme::Blp,
        Scheme::LadderEst,
        Scheme::LadderHybrid,
        Scheme::Oracle,
    ] {
        let r = quick_traced(scheme, "astar", None);
        assert!(r.mem.data_writes > 0, "{scheme:?}: no writes simulated");
        assert_reconciles(&r);
    }
}

#[test]
fn trace_totals_reconcile_under_faults() {
    let r = quick_traced(
        Scheme::LadderEst,
        "mcf",
        Some(FaultConfig::with_ber(7, 1e-4)),
    );
    let t = &r.trace.as_ref().unwrap().totals;
    assert!(
        t.failed_verifies > 0,
        "fault config produced no retries — raise the BER"
    );
    assert!(t.retry_time > Picos::ZERO);
    assert_reconciles(&r);
}

/// The per-worker recorders fold exactly like the stats they shadow: the
/// sum of each run's trace totals equals the batch totals at any `--jobs`.
#[test]
fn folded_trace_totals_match_runner_aggregates() {
    let cfg = ExperimentConfig::quick();
    let tables = Arc::new(cfg.tables());
    let configs: Vec<SimConfig> = [
        (Scheme::LadderEst, "astar"),
        (Scheme::LadderEst, "mcf"),
        (Scheme::Baseline, "libq"),
        (Scheme::Blp, "astar"),
    ]
    .into_iter()
    .map(|(s, b)| {
        SimConfig::builder()
            .scheme(s)
            .workload(Workload::Single(b))
            .trace(true)
            .build()
    })
    .collect();

    let fold_batch = |jobs: usize| {
        let (results, stats) = Runner::with_jobs(jobs).run_configs(&cfg, &tables, &configs);
        let folded: TraceTotals = fold(
            results
                .iter()
                .map(|r| r.trace.as_ref().expect("tracing requested").totals),
        );
        assert_eq!(
            folded.dispatch_total(),
            stats.events.total(),
            "folded dispatches vs batch stats at jobs={jobs}"
        );
        for r in &results {
            assert_reconciles(r);
        }
        folded
    };

    let seq = fold_batch(1);
    let par = fold_batch(4);
    assert_eq!(seq, par, "folded totals diverged across worker counts");
}
