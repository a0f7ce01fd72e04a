#!/usr/bin/env bash
# Tier-1 verification gate: release build, tests, clippy-clean, plus a
# quick-mode smoke run of every figure/table binary.
# The workspace is fully path-local, so everything runs with --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test -q"
cargo test -q --workspace --offline

# Rustdoc with warnings denied: a doc link to an item that was deleted,
# made private or became ambiguous fails here instead of rotting.
echo "==> cargo doc -- -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Clippy also enforces the determinism and panic-policy invariants
# (clippy.toml + [workspace.lints]); every suppression is an
# `#[expect(lint, reason = "...")]`, and a stale one fails here as
# `unfulfilled_lint_expectations`.
echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Those clippy-enforced invariants keep a fixture corpus: every marked bad
# fixture must fire its lint and every clean line must stay silent.
echo "==> clippy fixtures (hash-iter / wall-clock / ambient-rng / panic-policy / #[expect])"
./scripts/clippy-fixtures.sh

# perfbench/ is a package of its own, so --workspace never builds it; test
# it here so an API change cannot break the benchmark unseen.
echo "==> perfbench package tests"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Domain-rule gate: per-file rules (lossy-cast / bench-flags /
# flat-options) plus the cross-crate semantic pass (fast-ref-twin,
# mergeable-coverage, unit-mixing, counter-overflow-policy) over every
# workspace source file — fails on any finding.
# Exit codes are part of the CLI contract (0 clean / 1 findings / 2 usage
# or I/O error) and both corpus self-checks assert them explicitly.
# Runs before the slow bench smoke so violations fail fast.
echo "==> ladder-lint (workspace invariants, both passes)"
cargo run --release -q -p ladder-lint --offline -- --root .
set +e
cargo run --release -q -p ladder-lint --offline -- \
    --fixtures crates/lint/fixtures/bad >/dev/null 2>&1
bad_rc=$?
cargo run --release -q -p ladder-lint --offline -- \
    --fixtures crates/lint/fixtures/clean >/dev/null 2>&1
clean_rc=$?
set -e
if [ "$bad_rc" -ne 1 ]; then
    echo "error: bad-fixture corpus self-check exited $bad_rc (want 1: findings)" >&2
    exit 1
fi
if [ "$clean_rc" -ne 0 ]; then
    echo "error: clean-fixture corpus self-check exited $clean_rc (want 0: clean)" >&2
    exit 1
fi

# The criterion-shim benches double as gates: trace_overhead asserts the
# write hot path performs zero allocations with tracing disabled.
echo "==> bench smoke + tracing allocation gate"
cargo test -q -p ladder-bench --benches --offline

# Every ladder-bench binary must at least complete a scaled-down run:
# this catches panics in experiment drivers that unit tests don't reach
# (arg parsing, figure assembly, the event kernel under each scheme).
echo "==> smoke: ladder-bench binaries (--quick --jobs 2)"
for bin in fig2 fig4b fig11 fig15 main_eval lifetime variability tables \
           ablations crash mna_table extension faults interleave service \
           lifetime_campaign hotloop; do
    echo "  -> $bin"
    ./target/release/"$bin" --quick --jobs 2 >/dev/null
done

# `cargo test` compiles the examples but never runs them; run each once
# (~5 s in total) so an API change cannot leave one panicking.
echo "==> smoke: examples"
cargo build --release --examples --offline
for ex in quickstart latency_explorer scheme_shootout kv_store_flush; do
    echo "  -> $ex"
    ./target/release/examples/"$ex" >/dev/null
done

# Hot-loop gate: the fast/reference equivalence battery (SWAR kernels,
# quantized table lookup, calendar queue — including the differential
# full quick run on both queue backends) must pass, and the hotloop
# bench itself exits non-zero if the two backends' trace digests ever
# diverge (it already ran in the smoke loop above).
echo "==> hotloop: fast-path vs reference-path equivalence battery"
cargo test -q --offline --test hotloop_equivalence >/dev/null

# The --trace flag must produce valid-looking chrome://tracing JSON, and
# the canonical --quick digests must match tests/golden/.
echo "==> trace smoke (--trace) + golden-trace check"
trace_out=$(mktemp)
./target/release/fig2 --quick --jobs 2 --trace "$trace_out" >/dev/null 2>&1
grep -q '"traceEvents"' "$trace_out"
grep -q '"displayTimeUnit"' "$trace_out"
rm -f "$trace_out"
cargo test -q --offline --test golden_trace >/dev/null

# Sharded scale-out gate: the interleave sweep's whole output (per-cell
# merged trace digests included) must be bit-identical across worker
# counts, and the shard golden digests must match tests/golden/.
echo "==> shard smoke: --topology 4x2 jobs-invariance + shard golden check"
shard_seq=$(./target/release/interleave --quick --topology 4x2 --jobs 1 2>/dev/null)
shard_par=$(./target/release/interleave --quick --topology 4x2 --jobs 4 2>/dev/null)
if [ "$shard_seq" != "$shard_par" ]; then
    echo "error: sharded interleave sweep diverged between --jobs 1 and --jobs 4" >&2
    exit 1
fi
echo "$shard_seq" | grep -q 'digest' || {
    echo "error: interleave sweep emitted no merged digests" >&2
    exit 1
}
cargo test -q --offline --test shard_determinism >/dev/null

# Open-loop service gate: the SLO sweep (per-tenant tail quantiles and
# the merged service-trace digest) must be bit-identical across worker
# counts, and the service golden digest must match tests/golden/.
echo "==> service smoke: open-loop SLO sweep jobs-invariance + service golden check"
svc_seq=$(./target/release/service --quick --topology 2x2 --jobs 1 2>/dev/null)
svc_par=$(./target/release/service --quick --topology 2x2 --jobs 4 2>/dev/null)
if [ "$svc_seq" != "$svc_par" ]; then
    echo "error: open-loop service sweep diverged between --jobs 1 and --jobs 4" >&2
    exit 1
fi
echo "$svc_seq" | grep -q 'p99/ns' || {
    echo "error: service sweep emitted no SLO reports" >&2
    exit 1
}
cargo test -q --offline --test service_determinism >/dev/null

# Lifetime-campaign gate: the device-lifetime sweep CSV (skew × BER ×
# remap backend × code scheme) must be bit-identical across worker
# counts, and the coding/remap golden digest must match tests/golden/.
echo "==> lifetime smoke: campaign CSV jobs-invariance + lifetime golden check"
camp_seq=$(./target/release/lifetime_campaign --quick --jobs 1 2>/dev/null)
camp_par=$(./target/release/lifetime_campaign --quick --jobs 4 2>/dev/null)
if [ "$camp_seq" != "$camp_par" ]; then
    echo "error: lifetime campaign diverged between --jobs 1 and --jobs 4" >&2
    exit 1
fi
echo "$camp_seq" | grep -q 'device_years' || {
    echo "error: lifetime campaign emitted no CSV header" >&2
    exit 1
}
cargo test -q --offline --test lifetime_determinism >/dev/null

echo "verify: OK"
