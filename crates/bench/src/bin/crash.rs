//! Regenerates the Section 7 crash-consistency study: write-latency decay
//! after lazy LRS-metadata correction.

#![expect(
    clippy::expect_used,
    reason = "a bench binary reports a broken run invariant by aborting"
)]

use ladder_bench::BenchArgs;
use ladder_sim::experiments::crash_recovery;

fn main() {
    // One crash-recovery run per benchmark, sequential by design; `--jobs`
    // is accepted (by BenchArgs) for interface uniformity.
    let args = BenchArgs::parse();
    let cfg = args.cfg.clone();
    for bench in ["astar", "libq"] {
        let r = crash_recovery(&cfg, bench);
        println!("{bench}: steady-state mean tWR = {:.1} ns", r.steady_twr_ns);
        for (i, w) in r.post_crash_windows_ns.iter().enumerate() {
            println!("  window {:>2} after crash: {:>7.1} ns", i + 1, w);
        }
        let last = *r.post_crash_windows_ns.last().expect("windows");
        println!(
            "  -> recovered to {:.0}% of steady state\n",
            100.0 * r.steady_twr_ns / last.max(1e-9)
        );
    }
    args.emit_trace_if_requested(&cfg);
}
