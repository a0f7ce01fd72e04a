//! End-to-end and per-layer host-time benchmark of the LADDER simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload closed-mix --seed 2021 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times whole simulations and prints the end-to-end metrics;
//! `--trace 1` makes the traced run and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for what each metric means.

mod cells;
mod heap;
mod layers;

use cells::{check, expected, fold_digest, run_cell, Cell, Expected, Outcome, Workload};
use ladder_memctrl::Tables;
use ladder_sim::experiments::ExperimentConfig;
use ladder_sim::wallclock::Stopwatch;
use ladder_sim::Scheme;
use layers::{replay_cell, LayerTotals, Spans};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Timing-table builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 5;

/// The end-to-end metrics, in print order, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("peak_heap_mb", "MB"),
    ("sim_speedup_est", "x"),
    ("sim_write_ns_est", "ns"),
];

/// Metric values by name, in print order.
type Metrics = Vec<(&'static str, f64)>;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2021;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Simulations attempted and failed, and the outputs each cell must keep
/// reproducing.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first: Vec<Option<Outcome>>,
}

impl Tally {
    fn new(cells: usize) -> Self {
        Self {
            first: vec![None; cells],
            ..Self::default()
        }
    }

    /// Counts one simulation of cell `i`: it fails if it panicked, broke
    /// a conservation invariant, or differs from the cell's first run.
    /// Returns the outcome when it passed.
    fn record(
        &mut self,
        i: usize,
        cell: &Cell,
        want: &Expected,
        result: Result<Outcome, String>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let verdict = result.and_then(|out| {
            check(cell, want, &out)?;
            match self.first.get(i).and_then(Option::as_ref) {
                Some(first) if first.digest != out.digest => Err(format!(
                    "{}: outputs differ between repeats ({:016x} vs {:016x})",
                    cell.label, first.digest, out.digest
                )),
                _ => Ok(out),
            }
        });
        match verdict {
            Ok(out) => {
                if let Some(slot @ None) = self.first.get_mut(i) {
                    *slot = Some(out.clone());
                }
                Some(out)
            }
            Err(e) => {
                eprintln!("error: {e}");
                self.failed += 1;
                None
            }
        }
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The workload digest: every cell's first outputs, folded in order.
    fn digest(&self) -> u64 {
        self.first
            .iter()
            .map(|o| o.as_ref().map_or(0, |o| o.digest))
            .fold(0, fold_digest)
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Runs `build` (a timed timing-table build) `SETUP_BUILDS` times and
/// returns the last tables and the median build time in seconds.
fn setup(mut build: impl FnMut() -> (Tables, f64)) -> (Tables, f64) {
    let (mut tables, first) = build();
    let mut secs = vec![first];
    for _ in 1..SETUP_BUILDS {
        let (t, s) = build();
        tables = t;
        secs.push(s);
    }
    (tables, median(&mut secs))
}

/// The simulated figures of merit, from each cell's first outcome:
/// LADDER-Est's speed-up over Baseline (mean over pairs) and its mean
/// charged data-write service time in ns.
fn simulated(cells: &[Cell], first: &[Option<Outcome>]) -> (f64, f64) {
    let mut speedups = Vec::new();
    let (mut service_ps, mut writes) = (0u128, 0u128);
    for (cell, out) in cells.iter().zip(first) {
        let Some(out) = out else { continue };
        if cell.cfg.scheme == Scheme::LadderEst {
            service_ps += out.mem.write_service_time.as_ps() as u128;
            writes += out.mem.data_writes as u128;
        }
        let (Some(key), Scheme::LadderEst) = (&cell.pair, cell.cfg.scheme) else {
            continue;
        };
        let base = cells.iter().zip(first).find_map(|(c, o)| {
            (c.pair.as_ref() == Some(key) && c.cfg.scheme == Scheme::Baseline)
                .then_some(o.as_ref())
                .flatten()
        });
        if let Some(base) = base {
            speedups.push(if cell.cfg.service.is_none() {
                out.ipc_sum / base.ipc_sum
            } else {
                base.end_ps as f64 / out.end_ps as f64
            });
        }
    }
    let speedup = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let write_ns = service_ps as f64 / writes.max(1) as f64 / 1000.0;
    (speedup, write_ns)
}

/// The timed run: whole simulations, tracing off, one runner worker,
/// repeated in rounds until `seconds` have passed.
fn timed(args: &Args, cells: &[Cell], ecfg: &ExperimentConfig) -> (Tally, Metrics) {
    let (tables, setup_s) = setup(|| {
        let sw = Stopwatch::start();
        let t = ecfg.tables();
        (t, sw.elapsed_secs())
    });
    let want: Vec<Expected> = cells.iter().map(|c| expected(c, ecfg)).collect();
    let mut tally = Tally::new(cells.len());
    let mut rates = Vec::new();
    let clock = Stopwatch::start();
    loop {
        let (mut requests, mut secs) = (0u64, 0.0f64);
        for (i, cell) in cells.iter().enumerate() {
            let sw = Stopwatch::start();
            let result = run_cell(cell, ecfg, &tables, false).map(|(o, _)| o);
            let elapsed = sw.elapsed_secs();
            if let Some(out) = tally.record(i, cell, &want[i], result) {
                requests += out.requests;
                secs += elapsed;
            }
        }
        if secs > 0.0 {
            rates.push(requests as f64 / secs);
        }
        if clock.elapsed_secs() >= args.seconds {
            break;
        }
    }
    let requests_per_s = median(&mut rates);
    eprintln!(
        "timed: {} rounds of {} cells, requests/s min {:.0} median {requests_per_s:.0} max {:.0}",
        rates.len(),
        cells.len(),
        rates.first().copied().unwrap_or(0.0),
        rates.last().copied().unwrap_or(0.0)
    );
    let (speedup, write_ns) = simulated(cells, &tally.first);
    let metrics = vec![
        ("setup_s", setup_s),
        ("requests_per_s", requests_per_s),
        (
            "peak_heap_mb",
            heap::peak_bytes() as f64 / (1u64 << 20) as f64,
        ),
        ("sim_speedup_est", speedup),
        ("sim_write_ns_est", write_ns),
    ];
    (tally, metrics)
}

/// The traced run: each cell untraced and traced, then every layer's
/// replay, in passes until `seconds` have passed.
fn traced(args: &Args, cells: &[Cell], ecfg: &ExperimentConfig) -> (Tally, Metrics) {
    let mut spans = Spans::new(args.workload.name());
    let root = spans.open("run", args.workload.name(), None);
    let (tables, table_build_s) = setup(|| {
        let (t, ns) = spans.time("xbar.standard_tables", "setup", Some(root), || {
            ecfg.tables()
        });
        (t, ns as f64 * 1e-9)
    });
    let want: Vec<Expected> = cells.iter().map(|c| expected(c, ecfg)).collect();
    let mut tally = Tally::new(cells.len());
    let mut totals = LayerTotals::default();
    let clock = Stopwatch::start();
    loop {
        for (i, cell) in cells.iter().enumerate() {
            let id = spans.open("cell", &cell.label, Some(root));
            let (plain, run_ns) = spans.time("sim.run", &cell.label, Some(id), || {
                run_cell(cell, ecfg, &tables, false)
            });
            let (with_trace, traced_ns) =
                spans.time("sim.run_traced", &cell.label, Some(id), || {
                    run_cell(cell, ecfg, &tables, true)
                });
            let plain = tally.record(i, cell, &want[i], plain.map(|(o, _)| o));
            let (out_traced, traces) = match with_trace {
                Ok((o, t)) => (Ok(o), t),
                Err(e) => (Err(e), Vec::new()),
            };
            let out_traced = tally.record(i, cell, &want[i], out_traced);
            if let (Some(out), Some(_)) = (plain, out_traced) {
                totals.run_ns += run_ns;
                totals.traced_ns += traced_ns;
                totals.add_outcome(&out);
                totals.dropped_records += traces.iter().map(|t| t.dropped).sum::<u64>();
                let replay = replay_cell(
                    &mut spans,
                    id,
                    cell,
                    ecfg,
                    &tables,
                    &traces,
                    &out,
                    run_ns,
                    &mut totals,
                );
                tally.attempted += 1;
                if let Err(e) = replay {
                    eprintln!("error: {}: layer replay: {e}", cell.label);
                    tally.failed += 1;
                }
            }
            spans.close(id);
        }
        if clock.elapsed_secs() >= args.seconds {
            break;
        }
    }
    spans.close(root);
    eprintln!("spans: {}", spans.to_json());
    let metrics = totals
        .metrics(table_build_s)
        .into_iter()
        .map(|(name, value, _)| (name, value))
        .collect();
    (tally, metrics)
}

/// The unit a metric is printed with.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            LayerTotals::default()
                .metrics(0.0)
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, _, u)| u)
        })
        .unwrap_or("count")
}

/// The result line: the JSON object the benchmark ends with.
fn result_line(tally: &Tally, metrics: &[(&str, f64)]) -> String {
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let ecfg = args.workload.experiment(args.seed);
    let cells = args.workload.cells(args.seed)?;
    let (tally, metrics) = if args.trace {
        traced(args, &cells, &ecfg)
    } else {
        timed(args, &cells, &ecfg)
    };
    if tally.attempted == 0 {
        return Err("no simulation ran".to_string());
    }
    println!(
        "sim_digest {} seed {} {:016x}",
        args.workload.name(),
        args.seed,
        tally.digest()
    );
    println!(
        "error_rate {} ({} failed of {} simulations)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    println!("{}", result_line(&tally, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload closed-mix|open-loop|lifetime [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_sim::experiments::ExperimentConfig;

    /// A workload's first `n` cells, scaled down to test size.
    fn small(workload: Workload, seed: u64, n: usize) -> (Vec<Cell>, ExperimentConfig) {
        let mut ecfg = workload.experiment(seed);
        ecfg.instructions_per_core = 4_000;
        let mut cells = workload.cells(seed).expect("cells");
        cells.truncate(n);
        for c in &mut cells {
            if let Some(s) = c.cfg.service.as_mut() {
                s.requests = 600;
            }
        }
        (cells, ecfg)
    }

    fn digest_of(workload: Workload, seed: u64) -> u64 {
        let (cells, ecfg) = small(workload, seed, 2);
        let tables = ecfg.tables();
        let mut tally = Tally::new(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let want = expected(cell, &ecfg);
            let out = run_cell(cell, &ecfg, &tables, false).map(|(o, _)| o);
            assert!(
                tally.record(i, cell, &want, out).is_some(),
                "{}",
                cell.label
            );
        }
        assert_eq!(tally.failed, 0);
        tally.digest()
    }

    #[test]
    fn same_seed_gives_the_same_sim_digest() {
        for workload in Workload::ALL {
            let a = digest_of(workload, 7);
            assert_eq!(a, digest_of(workload, 7), "{}", workload.name());
            assert_ne!(a, digest_of(workload, 8), "{}", workload.name());
        }
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        for workload in Workload::ALL {
            let (cells, ecfg) = small(workload, 3, 1);
            let tables = ecfg.tables();
            let (plain, _) = run_cell(&cells[0], &ecfg, &tables, false).expect("run");
            let (traced, traces) = run_cell(&cells[0], &ecfg, &tables, true).expect("run");
            assert_eq!(plain.digest, traced.digest, "{}", workload.name());
            assert!(!traces.is_empty(), "{}", workload.name());
        }
    }

    #[test]
    fn perturbed_results_count_in_error_rate() {
        for workload in Workload::ALL {
            let (cells, ecfg) = small(workload, 5, 1);
            let cell = &cells[0];
            let want = expected(cell, &ecfg);
            let tables = ecfg.tables();
            let (good, _) = run_cell(cell, &ecfg, &tables, false).expect("run");
            let mut tally = Tally::new(1);
            assert!(tally.record(0, cell, &want, Ok(good.clone())).is_some());

            // One dropped arrival, or one instruction a core never retired.
            let mut dropped = good.clone();
            match dropped.service.as_mut() {
                Some(s) => s.1 -= 1,
                None => dropped.retired[0] -= 1,
            }
            assert!(tally.record(0, cell, &want, Ok(dropped)).is_none());

            // Outputs that differ from the first repeat.
            let mut drifted = good.clone();
            drifted.digest ^= 1;
            assert!(tally.record(0, cell, &want, Ok(drifted)).is_none());

            // A simulator panic.
            assert!(tally
                .record(0, cell, &want, Err("panicked".to_string()))
                .is_none());

            assert_eq!((tally.attempted, tally.failed), (4, 3));
            assert_eq!(tally.error_rate(), 0.75);
            assert!(result_line(&tally, &[]).starts_with("{\"correct\": false"));
        }
    }

    /// The `"name"` values of one top-level section of BENCHMARK.json.
    fn names_in(json: &str, section: &str, next: Option<&str>) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let end = next.map_or(json.len(), |n| {
            json.find(&format!("\"{n}\"")).expect("next")
        });
        let body = &json[start..end];
        body.match_indices("\"name\"")
            .map(|(at, _)| {
                let rest = &body[at + 6..];
                let open = rest.find('"').expect("value");
                let close = rest[open + 1..].find('"').expect("end");
                rest[open + 1..open + 1 + close].to_string()
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names_in(&json, "workloads", Some("end_to_end")), workloads);
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end", Some("per_layer")), e2e);
        let layers: Vec<String> = LayerTotals::default()
            .metrics(0.0)
            .iter()
            .map(|(n, _, _)| n.to_string())
            .collect();
        assert_eq!(names_in(&json, "per_layer", None), layers);
        for name in e2e.iter().chain(&layers) {
            let unit = format!("\"unit\": \"{}\"", unit_of(name));
            let entry = &json[json.find(&format!("\"{name}\"")).expect("entry")..];
            let entry = &entry[..entry.find('}').expect("entry end")];
            assert!(entry.contains(&unit), "{name}: want {unit} in {entry}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload lifetime --seed 9 --seconds 2 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Lifetime, 9, 2.0, true)
        );
        assert_eq!(args("--workload open-loop").expect("valid").seed, 2021);
        for bad in [
            "",
            "--workload nope",
            "--workload lifetime --trace 2",
            "--workload lifetime --seconds 0",
            "--workload lifetime --seconds nan",
            "--workload lifetime --seed",
            "--workload lifetime --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}
