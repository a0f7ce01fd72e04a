//! Golden-trace regression gate: the canonical `--quick` workloads must
//! produce bit-identical trace digests run after run, at any worker count.
//!
//! The digest folds every trace record (kind, payload, sim-time stamp) in
//! emission order, so it moves whenever the simulator's event sequence
//! moves — a scheduling change, a timing-table change, a policy change.
//! That is the point: an intentional change regenerates the golden file
//! and shows up in review as a one-line diff, an unintentional one fails
//! here first.
//!
//! Regenerate with `just regen-golden` (or
//! `GOLDEN_REGEN=1 cargo test --test golden_trace -- --nocapture`).

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use ladder::sim::experiments::{ExperimentConfig, Workload};
use ladder::sim::{Runner, Scheme, SimConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// The canonical seeded workloads: the paper's scheme (estimator variant)
/// on a read-heavy and a write-heavy benchmark, plus the worst-case
/// baseline as a policy-independent control.
const CANONICAL: [(Scheme, &str); 3] = [
    (Scheme::LadderEst, "astar"),
    (Scheme::LadderEst, "mcf"),
    (Scheme::Baseline, "astar"),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_trace.digest")
}

/// One line per canonical run: digest plus the headline totals, so a
/// regression's diff already hints at what moved.
fn canonical_digest(jobs: usize) -> String {
    let cfg = ExperimentConfig::quick();
    let tables = Arc::new(cfg.tables());
    let configs: Vec<SimConfig> = CANONICAL
        .iter()
        .map(|&(s, b)| {
            SimConfig::builder()
                .scheme(s)
                .workload(Workload::Single(b))
                .trace(true)
                .build()
        })
        .collect();
    let (results, _) = Runner::with_jobs(jobs).run_configs(&cfg, &tables, &configs);
    let mut out = String::new();
    for (&(scheme, bench), r) in CANONICAL.iter().zip(&results) {
        let trace = r.trace.as_ref().expect("tracing was requested");
        out.push_str(&format!(
            "{}/{} digest={} records={} pulses={} reads={} dispatches={}\n",
            scheme.name(),
            bench,
            trace.digest,
            trace.records,
            trace.totals.data_pulses + trace.totals.metadata_pulses,
            trace.totals.demand_reads + trace.totals.smb_reads + trace.totals.metadata_reads,
            trace.totals.dispatch_total(),
        ));
    }
    out
}

#[test]
fn golden_trace_digest_is_bit_identical_at_any_jobs() {
    let seq = canonical_digest(1);
    let par = canonical_digest(4);
    assert_eq!(
        seq, par,
        "trace digests diverged between --jobs 1 and --jobs 4"
    );

    let path = golden_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &seq).unwrap();
        eprintln!("regenerated {}:\n{seq}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `just regen-golden`",
            path.display()
        )
    });
    assert_eq!(
        seq,
        golden,
        "canonical --quick trace diverged from {}; if the simulator change \
         is intentional, run `just regen-golden` and commit the diff",
        path.display()
    );
}
