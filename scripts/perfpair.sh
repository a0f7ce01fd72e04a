#!/usr/bin/env bash
# Paired perfbench comparison of the working tree against a parent revision.
#
#   scripts/perfpair.sh <parent-rev> <workload> [pairs] [seconds] [seed]
#
# Builds perfbench twice, offline: from a clean export of <parent-rev>
# (`git archive` into "${TMPDIR:-/tmp}/perfpair-<sha>", built with its own
# CARGO_TARGET_DIR there, and reused by later calls for the same revision)
# and from the working tree (into perfbench/target, as the benchmark
# command builds it). Then it runs <pairs> interleaved parent/change pairs
# of `--trace 0` runs; the side that runs first alternates from pair to
# pair, so slow drift of the host falls on both sides alike.
#
# Output: one `run` row per run (pair, side, sim_digest, failed, attempted
# and the five end-to-end metrics), then per metric the median, q1 and q3
# of each side (inclusive quartiles) and the change's wins and losses over
# the pairs (ties count for neither); then, for requests_per_s, each
# pair's change/parent ratio and the median of those ratios (on a noisy
# host the paired ratio is much steadier than either side's median); then
# whether every run of both sides printed the same sim_digest.
#
# Defaults: 10 pairs, 30 s per run, seed 2021. Only reads perfbench/ and
# the parent revision; bash and awk only.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <workload> [pairs] [seconds] [seed]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 5 ] || usage
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-30}
seed=${5:-2021}
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || {
    echo "error: unknown revision $rev" >&2
    exit 2
}
base="${TMPDIR:-/tmp}/perfpair-$sha"
if [ ! -f "$base/tree/perfbench/Cargo.toml" ]; then
    rm -rf "$base/tree"
    mkdir -p "$base/tree"
    git -C "$root" archive "$sha" | tar -x -C "$base/tree"
fi

build() { # <source root> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml"
}
echo "building perfbench at ${sha:0:12} and from the working tree" >&2
build "$base/tree" "$base/target"
build "$root" "$root/perfbench/target"
parent_bin=$base/target/release/ladder-perfbench
change_bin=$root/perfbench/target/release/ladder-perfbench

# Metric order and direction; the names are perfbench's end-to-end metrics.
metrics="setup_s:lower requests_per_s:higher peak_heap_mb:lower sim_speedup_est:higher sim_write_ns_est:lower"

run() { # <pair> <side> <binary>: prints one `run` row
    "$3" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null |
        awk -v pair="$1" -v side="$2" -v metrics="$metrics" '
            $1 == "sim_digest" { digest = $NF }
            /^\{/ { json = $0 }
            function field(name,   m) {
                if (!match(json, "\"" name "\": (\\{\"value\": )?[-0-9.eE+]+")) return "NA"
                m = substr(json, RSTART, RLENGTH)
                sub(/.*[ :]/, "", m)
                return m
            }
            END {
                if (json == "") { print "error: " side " run printed no result line" > "/dev/stderr"; exit 1 }
                row = "run " pair " " side " " digest " " field("failed") " " field("attempted")
                n = split(metrics, ms, " ")
                for (i = 1; i <= n; i++) { split(ms[i], nb, ":"); row = row " " field(nb[1]) }
                print row
            }'
}

echo "perfpair $workload seed $seed, $pairs pairs x ${seconds} s, parent ${sha:0:12}"
header="run pair side sim_digest failed attempted"
for m in $metrics; do header+=" ${m%%:*}"; done
echo "$header"
rows="$base/runs.$$"
trap 'rm -f "$rows"' EXIT
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then
        run "$p" parent "$parent_bin"
        run "$p" change "$change_bin"
    else
        run "$p" change "$change_bin"
        run "$p" parent "$parent_bin"
    fi
done | tee "$rows"
awk -v metrics="$metrics" '
    # Inclusive quartile (linear interpolation) of the sorted v[1..n].
    function quant(v, n, q,   h, lo) {
        h = 1 + q * (n - 1)
        lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function isort(v, n,   i, j, t) {
        for (i = 2; i <= n; i++) {
            t = v[i]
            for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
    }
    function sorted_stats(side, m,   v, n, i) {
        n = 0
        for (i = 1; i <= npairs; i++) if ((i, side) in val) v[++n] = val[i, side, m]
        isort(v, n)
        return sprintf("%12.6g %12.6g %12.6g", quant(v, n, 0.5), quant(v, n, 0.25), quant(v, n, 0.75))
    }
    $1 == "run" {
        pair = $2; side = $3
        if (pair > npairs) npairs = pair
        val[pair, side] = 1
        digests[$4] = 1
        failed[side] += $5; attempted[side] += $6
        for (i = 7; i <= NF; i++) val[pair, side, i - 6] = $i
    }
    END {
        nm = split(metrics, ms, " ")
        printf "\n%-18s %12s %12s %12s | %12s %12s %12s | %4s %6s\n", "metric", "parent med", "q1", "q3", "change med", "q1", "q3", "wins", "losses"
        for (m = 1; m <= nm; m++) {
            split(ms[m], nb, ":")
            wins = losses = 0
            for (i = 1; i <= npairs; i++) {
                if (!((i, "parent") in val) || !((i, "change") in val)) continue
                d = val[i, "change", m] - val[i, "parent", m]
                if (nb[2] == "lower") d = -d
                if (d > 0) wins++
                else if (d < 0) losses++
            }
            printf "%-18s %s | %s | %4d %6d\n", nb[1], sorted_stats("parent", m), sorted_stats("change", m), wins, losses
            if (nb[1] == "requests_per_s") rps = m
        }
        nr = 0
        row = ""
        for (i = 1; i <= npairs; i++) {
            if (!((i, "parent") in val) || !((i, "change") in val) || val[i, "parent", rps] == 0) continue
            ratio[++nr] = val[i, "change", rps] / val[i, "parent", rps]
            row = row sprintf(" %.4f", ratio[nr])
        }
        if (nr > 0) {
            printf "\nrequests_per_s change/parent by pair:%s\n", row
            isort(ratio, nr)
            printf "requests_per_s median paired ratio: %.4f\n", quant(ratio, nr, 0.5)
        }
        nd = 0
        for (d in digests) { nd++; one = d }
        printf "\nfailed/attempted: parent %d/%d, change %d/%d\n", failed["parent"], attempted["parent"], failed["change"], attempted["change"]
        if (nd == 1) print "sim_digest: identical on every run (" one ")"
        else { print "sim_digest: DIFFERS between runs"; exit 1 }
    }' "$rows"
