//! Criterion benches for the crossbar-physics kernels: the analytic IR-drop
//! estimator, full table generation (one table, and the two-table bundle
//! every simulation starts from), and the exact MNA solver.

#![expect(
    clippy::expect_used,
    reason = "bench set-up aborts the measurement on a broken invariant"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use ladder_memctrl::standard_tables;
use ladder_xbar::{
    analytic, solve_reset, CrossbarParams, PatternSpec, ResetOp, SolverKind, TableConfig,
    TimingTable,
};
use std::hint::black_box;

fn bench_analytic(c: &mut Criterion) {
    let params = CrossbarParams::default();
    let op = analytic::OperatingPoint {
        target_wl: 400,
        target_bls: (504..512).collect(),
        wl_ones: 256,
        bl_ones: 512,
    };
    c.bench_function("analytic_estimate_vd_512x512", |b| {
        b.iter(|| analytic::estimate_vd(black_box(&params), black_box(&op)))
    });
}

fn bench_table_generation(c: &mut Criterion) {
    let cfg = TableConfig::ladder_default();
    c.bench_function("timing_table_generate_8x8x8", |b| {
        b.iter(|| TimingTable::generate(black_box(&cfg)).expect("table"))
    });
}

fn bench_standard_tables(c: &mut Criterion) {
    let cfg = TableConfig::ladder_default();
    c.bench_function("standard_tables_both_axes", |b| {
        b.iter(|| standard_tables(black_box(&cfg)))
    });
}

fn bench_mna(c: &mut Criterion) {
    let params = CrossbarParams::with_size(64, 64);
    let grid = PatternSpec::WorstCaseWl { wl_ones: 32 }.materialize(64, 64, 63, &[56, 63]);
    let op = ResetOp::new(63, vec![56, 63]);
    c.bench_function("mna_line_relaxation_64x64", |b| {
        b.iter(|| {
            solve_reset(
                black_box(&params),
                black_box(&grid),
                black_box(&op),
                SolverKind::LineRelaxation,
            )
            .expect("solve")
        })
    });
}

criterion_group!(
    benches,
    bench_analytic,
    bench_table_generation,
    bench_standard_tables,
    bench_mna
);
criterion_main!(benches);
