//! A key-value store checkpoint flush: the write-burst scenario the
//! paper's introduction motivates (long writes blocking reads).
//!
//! A synthetic KV store periodically flushes dirty pages while serving
//! point lookups. Under the pessimistic baseline every flushed line costs
//! the worst-case RESET; under LADDER-Hybrid the flush drains several times
//! faster and lookups observe far lower tail latency.
//!
//! Run with: `cargo run --release --example kv_store_flush`

use ladder_cpu::{MemEvent, TraceOp, VecTrace};
use ladder_reram::LineAddr;
use ladder_sim::experiments::ExperimentConfig;
use ladder_sim::{run_traces, Scheme, SimConfig};

/// Builds the flush-plus-lookups trace: bursts of 200 write-backs (the
/// checkpoint) interleaved with dependent point lookups.
fn kv_trace(base_page: u64) -> VecTrace {
    let mut events = Vec::new();
    let mut x = 0xD1CEu64;
    let mut rng = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    for burst in 0..10u64 {
        // Checkpoint: flush 200 dirty lines (values are small integers and
        // string-ish bytes — realistically compressible, sparse data).
        for i in 0..200u64 {
            let addr = LineAddr::new((base_page + burst * 4 + i / 64) * 64 + i % 64);
            let mut data = [0u8; 64];
            for (j, b) in data.iter_mut().enumerate() {
                *b = if j % 4 == 0 { (rng() % 100) as u8 } else { 0 };
            }
            events.push(MemEvent {
                gap_instructions: 50,
                op: TraceOp::Write {
                    addr,
                    data: Box::new(data),
                },
            });
        }
        // Serving phase: 600 dependent lookups scattered over the store.
        for _ in 0..600 {
            let addr = LineAddr::new((base_page + rng() % 1000) * 64 + rng() % 64);
            events.push(MemEvent {
                gap_instructions: 120,
                op: TraceOp::Read {
                    addr,
                    critical: true,
                },
            });
        }
    }
    VecTrace::new("kv-store", events)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ecfg = ExperimentConfig::default();
    let tables = ecfg.tables();
    let base_page = 40_000;
    println!("KV-store checkpoint flush: 10 bursts x 200 write-backs + 600 lookups\n");
    println!(
        "{:<16}{:>11}{:>10}{:>10}{:>15}{:>9}{:>14}",
        "scheme", "read (ns)", "P95 (ns)", "P99 (ns)", "write svc (ns)", "IPC", "runtime (us)"
    );
    for scheme in [
        Scheme::Baseline,
        Scheme::SplitReset,
        Scheme::Blp,
        Scheme::LadderHybrid,
    ] {
        let cfg = SimConfig::builder().scheme(scheme).build();
        let r = run_traces(
            &cfg,
            &ecfg,
            &tables,
            vec![(Box::new(kv_trace(base_page)), 8)],
        );
        println!(
            "{:<16}{:>11.1}{:>10.1}{:>10.1}{:>15.1}{:>9.3}{:>14.1}",
            scheme.name(),
            r.avg_read_latency().as_ns(),
            r.read_histogram.percentile(0.95).as_ns(),
            r.read_histogram.percentile(0.99).as_ns(),
            r.avg_write_service().as_ns(),
            r.ipc0(),
            r.end.as_ps() as f64 / 1e6
        );
    }
    println!("\nLADDER keeps checkpoint flushes off the lookup critical path.");
    Ok(())
}
