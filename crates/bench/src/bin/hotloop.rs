//! Extension — hot-loop throughput report: end-to-end simulated
//! writes/sec and events/sec on the canonical workloads, plus
//! fast-path vs. reference-path comparisons for the overhauled kernels
//! (SWAR bit paths, quantized timing-table lookup) and the default
//! binary-heap event queue against the opt-in calendar queue.
//!
//! The end-to-end section runs the same three seeded workloads as the
//! golden-trace gate on both queue backends and *asserts* that their
//! trace digests agree — a digest divergence exits non-zero, so the
//! `just hotloop` smoke stage doubles as a differential regression
//! gate. See `DESIGN.md` §15 for the fast-path/reference-path
//! discipline.

use ladder_bench::{report_runner, BenchArgs};
use ladder_sim::experiments::Workload;
use ladder_sim::wallclock::Stopwatch;
use ladder_sim::{QueueBackend, Scheme, SimConfig};
use std::hint::black_box;
use std::sync::Arc;

/// The golden-trace gate's canonical seeded workloads (kept in sync with
/// `tests/golden_trace.rs`).
const CANONICAL: [(Scheme, &str); 3] = [
    (Scheme::LadderEst, "astar"),
    (Scheme::LadderEst, "mcf"),
    (Scheme::Baseline, "astar"),
];

/// Iterations for the kernel micro-sections, scaled down under `--quick`.
fn micro_iters(quick: bool) -> u64 {
    if quick {
        20_000
    } else {
        200_000
    }
}

fn main() {
    let args = BenchArgs::parse();
    let cfg = args.cfg.clone();
    let runner = args.runner();
    println!("Extension — hot-loop throughput (default paths vs. alternatives)");

    // ---- end-to-end: canonical workloads on both queue backends ----
    let tables = Arc::new(cfg.tables());
    let configs = |backend: QueueBackend| -> Vec<SimConfig> {
        CANONICAL
            .iter()
            .map(|&(s, b)| {
                SimConfig::builder()
                    .scheme(s)
                    .workload(Workload::Single(b))
                    .queue(backend)
                    .trace(true)
                    .build()
            })
            .collect()
    };
    println!(
        "{:<10}{:>12}{:>14}{:>14}{:>14}{:>14}",
        "queue", "wall s", "events", "events/s", "writes/s", "speedup"
    );
    let mut digests: Vec<Vec<String>> = Vec::new();
    let mut heap_wall = 0.0f64;
    for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
        let sw = Stopwatch::start();
        let (results, _) = runner.run_configs(&cfg, &tables, &configs(backend));
        let wall = sw.elapsed_secs().max(1e-9);
        let events: u64 = results.iter().map(|r| r.events.total()).sum();
        let writes: u64 = results.iter().map(|r| r.mem.data_writes).sum();
        let mut run_digests = Vec::new();
        for r in &results {
            let Some(trace) = r.trace.as_ref() else {
                eprintln!("error: traced run returned no trace buffer");
                std::process::exit(1);
            };
            run_digests.push(trace.digest.to_string());
        }
        digests.push(run_digests);
        let label = match backend {
            QueueBackend::Calendar => "calendar",
            QueueBackend::Heap => "heap",
        };
        let speedup = if heap_wall > 0.0 {
            format!("{:>13.2}x", heap_wall / wall)
        } else {
            format!("{:>14}", "1.00x (base)")
        };
        println!(
            "{label:<10}{wall:>12.3}{events:>14}{:>14.0}{:>14.0}{speedup}",
            events as f64 / wall,
            writes as f64 / wall,
        );
        if heap_wall == 0.0 {
            heap_wall = wall;
        }
    }
    if digests[0] != digests[1] {
        eprintln!("error: trace digests diverged between queue backends");
        eprintln!("  heap:     {:?}", digests[0]);
        eprintln!("  calendar: {:?}", digests[1]);
        std::process::exit(1);
    }
    println!(
        "digests: {} canonical runs bit-identical on both backends",
        CANONICAL.len()
    );

    // ---- kernel micro-sections: default path vs. alternative ----
    let iters = micro_iters(args.quick);
    println!(
        "\n{:<26}{:>14}{:>14}{:>10}",
        "kernel", "default Mop/s", "alt Mop/s", "speedup"
    );
    bench_bits(iters);
    bench_table(iters);
    bench_queue(iters);

    report_runner(&runner);
    args.emit_trace_if_requested(&cfg);
}

/// Deterministic pseudo-random line generator (splitmix64) so the micro
/// sections measure the same byte stream every invocation.
fn fill_lines(seed: u64, n: usize) -> Vec<[u8; 64]> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let mut line = [0u8; 64];
            for chunk in line.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            line
        })
        .collect()
}

/// One kernel row: the op rate of the path the simulator runs (`default`
/// seconds) and of its alternative (`alt` seconds: the reference twin, or
/// the opt-in calendar queue), and the default's speedup over it.
fn rate_line(label: &str, ops: u64, default: f64, alt: f64) {
    let (default, alt) = (default.max(1e-9), alt.max(1e-9));
    println!(
        "{label:<26}{:>14.1}{:>14.1}{:>9.1}x",
        ops as f64 / default / 1e6,
        ops as f64 / alt / 1e6,
        alt / default
    );
}

fn bench_bits(iters: u64) {
    use ladder_reram::bits;
    let lines = fill_lines(2021, 256);
    let pairs: Vec<(&[u8; 64], &[u8; 64])> = lines.iter().zip(lines.iter().rev()).collect();

    let sw = Stopwatch::start();
    let mut acc = 0u32;
    for _ in 0..iters / 256 {
        for l in &lines {
            acc = acc.wrapping_add(bits::ones(black_box(&l[..])));
        }
    }
    let fast = sw.elapsed_secs();
    let sw = Stopwatch::start();
    let mut racc = 0u32;
    for _ in 0..iters / 256 {
        for l in &lines {
            racc = racc.wrapping_add(bits::reference::ones(black_box(&l[..])));
        }
    }
    rate_line("bits::ones", iters / 256 * 256, fast, sw.elapsed_secs());
    assert_eq!(acc, racc, "popcount fast/reference checksum mismatch");

    let sw = Stopwatch::start();
    let mut acc = (0u32, 0u32);
    for _ in 0..iters / 256 {
        for (a, b) in &pairs {
            let (s, r) = bits::delta_ones(black_box(&a[..]), black_box(&b[..]));
            acc = (acc.0.wrapping_add(s), acc.1.wrapping_add(r));
        }
    }
    let fast = sw.elapsed_secs();
    let sw = Stopwatch::start();
    let mut racc = (0u32, 0u32);
    for _ in 0..iters / 256 {
        for (a, b) in &pairs {
            let (s, r) = bits::reference::delta_ones(black_box(&a[..]), black_box(&b[..]));
            racc = (racc.0.wrapping_add(s), racc.1.wrapping_add(r));
        }
    }
    rate_line(
        "bits::delta_ones",
        iters / 256 * 256,
        fast,
        sw.elapsed_secs(),
    );
    assert_eq!(acc, racc, "delta fast/reference checksum mismatch");

    let sw = Stopwatch::start();
    let mut acc = 0u32;
    for _ in 0..iters / 256 {
        for l in &lines {
            acc = acc.wrapping_add(bits::worst_byte_ones(black_box(&l[..])));
        }
    }
    let fast = sw.elapsed_secs();
    let sw = Stopwatch::start();
    let mut racc = 0u32;
    for _ in 0..iters / 256 {
        for l in &lines {
            racc = racc.wrapping_add(bits::reference::worst_byte_ones(black_box(&l[..])));
        }
    }
    rate_line(
        "bits::worst_byte_ones",
        iters / 256 * 256,
        fast,
        sw.elapsed_secs(),
    );
    assert_eq!(acc, racc, "worst-byte fast/reference checksum mismatch");
}

fn bench_table(iters: u64) {
    use ladder_xbar::{TableConfig, TimingTable};
    let table = match TimingTable::generate(&TableConfig::ladder_default()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot generate timing table: {e}");
            std::process::exit(1);
        }
    };
    let mut coords = Vec::new();
    let mut state = 7u64;
    for _ in 0..4096 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let wl = (state >> 33) as usize % 512;
        let bl = (state >> 12) as usize % 512;
        let c = (state >> 3) as usize % 513;
        coords.push((wl, bl, c));
    }
    let n = coords.len() as u64;

    let sw = Stopwatch::start();
    let mut acc = 0u64;
    for _ in 0..iters / n {
        for &(wl, bl, c) in &coords {
            acc = acc.wrapping_add(table.lookup_ps(black_box(wl), black_box(bl), black_box(c)));
        }
    }
    let fast = sw.elapsed_secs();
    let sw = Stopwatch::start();
    let mut racc = 0u64;
    for _ in 0..iters / n {
        for &(wl, bl, c) in &coords {
            racc = racc.wrapping_add(table.lookup_ps_reference(
                black_box(wl),
                black_box(bl),
                black_box(c),
            ));
        }
    }
    rate_line("table::lookup_ps", iters / n * n, fast, sw.elapsed_secs());
    assert_eq!(acc, racc, "table fast/reference checksum mismatch");
}

fn bench_queue(iters: u64) {
    use ladder_reram::{EventQueue, Instant};
    // Schedule/pop churn shaped like the kernel's: bursts of near-future
    // wakes with frequent equal-time collisions.
    let run = |backend: QueueBackend| -> (f64, u64) {
        let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
        let mut state = 99u64;
        let mut now = 0u64;
        let mut acc = 0u64;
        let sw = Stopwatch::start();
        for i in 0..iters {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.schedule(Instant::from_ps(now + (state >> 40) % 4096), i);
            if i % 2 == 1 {
                if let Some((at, k)) = q.pop() {
                    now = at.as_ps();
                    acc = acc.wrapping_add(k).wrapping_add(at.as_ps());
                }
            }
        }
        while let Some((at, k)) = q.pop() {
            acc = acc.wrapping_add(k).wrapping_add(at.as_ps());
        }
        (sw.elapsed_secs(), acc)
    };
    let (heap, acc) = run(QueueBackend::Heap);
    let (calendar, cacc) = run(QueueBackend::Calendar);
    // Each scheduled event is also popped: 2 ops per event.
    rate_line("queue schedule+pop", iters * 2, heap, calendar);
    assert_eq!(acc, cacc, "queue heap/calendar checksum mismatch");
}
