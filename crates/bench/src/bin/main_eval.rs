//! Regenerates the main evaluation: Figures 12 (write service time),
//! 13 (read latency), 14a/14b (metadata traffic), 16 (speedup) and
//! 17 (dynamic energy), all from one 16-workload × 7-scheme run matrix.
//!
//! Pass `--csv DIR` to additionally write one CSV per figure into `DIR`.

#![expect(
    clippy::expect_used,
    reason = "a bench binary reports a broken run invariant by aborting"
)]

use ladder_bench::BenchArgs;
use ladder_sim::experiments::MainEval;

fn main() {
    let args = BenchArgs::parse();
    let cfg = args.cfg.clone();
    let runner = args.runner();
    eprintln!(
        "running 16 workloads x 7 schemes at {} instructions/core on {} worker(s) ...",
        cfg.instructions_per_core,
        runner.jobs()
    );
    let eval = MainEval::builder(&cfg).run(&runner);
    eprintln!("{}", eval.stats.summary());
    println!(
        "Figure 12 — normalized write service time\n{}",
        eval.fig12_write_service().to_table()
    );
    println!(
        "Figure 13 — normalized read latency\n{}",
        eval.fig13_read_latency().to_table()
    );
    println!(
        "Figure 14a — additional reads (fraction of demand reads)\n{}",
        eval.fig14a_additional_reads().to_table()
    );
    println!(
        "Figure 14b — additional writes (fraction of data writes)\n{}",
        eval.fig14b_additional_writes().to_table()
    );
    println!(
        "Figure 16 — speedup over baseline\n{}",
        eval.fig16_speedup().to_table()
    );
    println!("Figure 17 — normalized dynamic energy (read + write = total)");
    for (wl, cols) in eval.fig17_energy() {
        print!("{wl:<9}");
        for (scheme, rd, wr) in cols {
            print!("  {}={:.2}+{:.2}", scheme.name(), rd, wr);
        }
        println!();
    }
    println!();
    for s in ladder_sim::Scheme::MAIN_EVAL {
        println!("avg normalized energy, {}: {:.3}", s, eval.avg_energy_of(s));
    }
    if let Some(dir) = args.csv.as_ref().map(std::path::PathBuf::from) {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        let dump = |name: &str, csv: String| {
            std::fs::write(dir.join(name), csv).expect("write csv");
        };
        dump(
            "fig12_write_service.csv",
            eval.fig12_write_service().to_csv(),
        );
        dump("fig13_read_latency.csv", eval.fig13_read_latency().to_csv());
        dump(
            "fig14a_additional_reads.csv",
            eval.fig14a_additional_reads().to_csv(),
        );
        dump(
            "fig14b_additional_writes.csv",
            eval.fig14b_additional_writes().to_csv(),
        );
        dump("fig16_speedup.csv", eval.fig16_speedup().to_csv());
        eprintln!("CSV written to {}", dir.display());
    }
    args.emit_trace_if_requested(&cfg);
}
