# Developer entry points. `just verify` is the gate every change must pass.

# Build + test + lint, all offline (the workspace has no external deps).
verify:
    ./scripts/verify.sh

build:
    cargo build --release --workspace --offline

test:
    cargo test -q --workspace --offline

clippy:
    cargo clippy --workspace --all-targets --offline -- -D warnings

# API docs with warnings denied (dangling, private or ambiguous links
# fail), as verify.sh runs them.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Project-invariant static analysis. The generic rules (hash-iter,
# wall-clock, ambient-rng, panic-policy) are clippy lints, checked
# against their fixture corpus; ladder-lint runs the domain rules
# (lossy-cast, bench-flags, flat-options) and the cross-crate pass
# (fast/reference twins, Mergeable coverage, time-unit mixing, counter
# overflow policy). `--json`, `--sarif`, `--stats` and `--list-rules` are
# also available on the binary; see DESIGN.md §11 and §16.
lint:
    ./scripts/clippy-fixtures.sh
    cargo run --release -q -p ladder-lint --offline -- --root .

# Machine-readable lint report for CI annotation: SARIF 2.1.0 into
# results/lint.sarif (written even when findings exist; the recipe still
# fails on findings so gates behave like `just lint`).
lint-sarif:
    mkdir -p results
    cargo run --release -q -p ladder-lint --offline -- --root . --sarif > results/lint.sarif

# Test the benchmark package (a package of its own, so `--workspace`
# never builds it).
perfbench-check:
    cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Run the criterion-shim benches once each, which also enforces the
# tracing disabled-path allocation gate (trace_overhead).
bench-check:
    cargo test -q -p ladder-bench --benches --offline

# Regenerate the golden trace digests (monolithic and sharded) after an
# intentional simulator change (commit the resulting tests/golden/ diff).
regen-golden:
    GOLDEN_REGEN=1 cargo test -q --offline --test golden_trace -- --nocapture
    GOLDEN_REGEN=1 cargo test -q --offline --test shard_determinism -- --nocapture
    GOLDEN_REGEN=1 cargo test -q --offline --test service_determinism -- --nocapture
    GOLDEN_REGEN=1 cargo test -q --offline --test lifetime_determinism -- --nocapture

# Sharded scale-out smoke: the interleave sweep (merged trace digests
# included) must be bit-identical across worker counts.
shards:
    cargo build --release -p ladder-bench --offline
    a=$$(./target/release/interleave --quick --topology 4x2 --jobs 1 2>/dev/null); \
    b=$$(./target/release/interleave --quick --topology 4x2 --jobs 4 2>/dev/null); \
    [ "$$a" = "$$b" ] && echo "shards: jobs-invariant OK"
    cargo test -q --offline --test shard_determinism

# Regenerate the paper's main evaluation (set jobs, e.g. `just main-eval 8`).
main-eval jobs="4":
    cargo run --release -p ladder-bench --bin main_eval -- --jobs {{jobs}}

# Quick-mode smoke run of every figure/table binary, then one run of
# every example (what verify.sh runs after the test suite).
smoke:
    cargo build --release -p ladder-bench --offline
    cargo build --release --examples --offline
    for bin in fig2 fig4b fig11 fig15 main_eval lifetime variability tables \
               ablations crash mna_table extension faults interleave service \
               lifetime_campaign hotloop; do \
        echo "-> $bin"; \
        ./target/release/$bin --quick --jobs 2 >/dev/null; \
    done
    for ex in quickstart latency_explorer scheme_shootout kv_store_flush; do \
        echo "-> $ex"; \
        ./target/release/examples/$ex >/dev/null; \
    done

# Hot-loop smoke: the fast/reference equivalence battery plus the hotloop
# throughput bench in --quick mode (the bench exits non-zero if the
# calendar and heap queue backends ever produce different trace digests).
hotloop:
    cargo build --release -p ladder-bench --offline
    cargo test -q --offline --test hotloop_equivalence
    ./target/release/hotloop --quick --jobs 2

# Open-loop tail-latency SLO sweep: offered load x arrival process x
# scheme, per-tenant p50/p99/p999 report per cell (see EXPERIMENTS.md).
# Extra flags pass through, e.g. `just slo "--load 2,8 --tenants 5"`.
slo extra="":
    cargo run --release -p ladder-bench --bin service --offline -- --quick {{extra}}

# Multi-year device-lifetime campaign: write-skew x BER x remap backend x
# code scheme, one CSV row per cell (see EXPERIMENTS.md). Extra flags
# pass through, e.g. `just lifetime-campaign "--zipf 0.5 --topology 4x2"`.
lifetime-campaign extra="":
    cargo run --release -p ladder-bench --bin lifetime_campaign --offline -- --quick {{extra}}
