//! Criterion bench gating the simulator's per-event allocation contract:
//! with tracing off (the default), the controller's write and read hot
//! paths must not allocate at all in steady state, a disabled
//! [`TraceRecorder`] must never allocate, and recording into a registered
//! tenant's latency group must not allocate. Run by `cargo test --benches`
//! (one checked iteration) and by `cargo bench` (measured).

#![expect(
    clippy::expect_used,
    reason = "bench set-up aborts the measurement on a broken invariant"
)]
#![expect(
    unsafe_code,
    reason = "the counting allocator implements the unsafe `GlobalAlloc` trait; \
              the one sanctioned unsafe block in the workspace"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use ladder_memctrl::{standard_tables, FixedWorstPolicy, MemCtrlConfig, MemoryController};
use ladder_reram::{AddressMap, Geometry, Instant, LineAddr, Picos};
use ladder_trace::{DispatchKind, TenantLatencies, TraceRecord, TraceRecorder};
use ladder_xbar::{TableConfig, TimingTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter, so the benches can
/// assert "zero allocations" over a region of code.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A disabled recorder's `record` is a branch and nothing else: no ring,
/// no digest, no totals, and — gated here — no allocation, ever (not even
/// a first lazy one).
fn bench_disabled_recorder(c: &mut Criterion) {
    c.bench_function("trace_recorder_disabled_100k_records", |b| {
        b.iter(|| {
            let mut rec = TraceRecorder::disabled();
            let before = allocations();
            for i in 0..100_000u64 {
                rec.record(
                    Instant::from_ps(i),
                    TraceRecord::KernelDispatch {
                        kind: DispatchKind::CoreWake,
                    },
                );
            }
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "disabled TraceRecorder::record allocated"
            );
            black_box(rec.records())
        })
    });
}

/// Drives `writes` line writes through a controller, letting it drain
/// whenever the queue is full, and returns the finish time.
fn drive_writes(mc: &mut MemoryController, mut now: Instant, writes: u64) -> Instant {
    for i in 0..writes {
        let addr = LineAddr::new(40_000 * 64 + (i * 17 % 8192) * 64);
        while !mc.enqueue_write(addr, [i as u8; 64], now) {
            now = mc.next_wake(now).expect("progress");
            mc.process(now);
        }
        mc.process(now);
    }
    now
}

fn fresh_controller(table: &TimingTable) -> MemoryController {
    let map = AddressMap::new(Geometry::default());
    let policy = Box::new(FixedWorstPolicy::new(table));
    MemoryController::new(MemCtrlConfig::default(), map, policy)
}

/// With tracing disabled (the default controller state), the steady-state
/// write hot path — enqueue, drain scheduling, pulse issue, completion —
/// must be allocation-free: queues and event heaps keep their warmed
/// capacity, and the disabled recorder adds nothing. This is the gate that
/// the tracing subsystem costs nothing when off.
fn bench_write_hotpath_disabled(c: &mut Criterion) {
    let table = standard_tables(&TableConfig::ladder_default()).ladder;
    c.bench_function("controller_write_hotpath_tracing_disabled", |b| {
        b.iter(|| {
            let mut mc = fresh_controller(&table);
            // Warm-up: let every queue, heap and map reach capacity.
            let now = drive_writes(&mut mc, Instant::ZERO, 2_000);
            let before = allocations();
            let now = drive_writes(&mut mc, now, 2_000);
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "write hot path allocated with tracing disabled"
            );
            black_box(mc.finish(now))
        })
    });
}

/// Drives `reads` demand reads through a controller, stepping time
/// whenever the read queue is full and draining the completions after
/// every `process`, and returns the last instant.
fn drive_reads(mc: &mut MemoryController, mut now: Instant, reads: u64) -> Instant {
    for i in 0..reads {
        let addr = LineAddr::new((i * 17 % 8192) * 64);
        while mc.enqueue_read(addr, now).is_none() {
            now = mc.next_wake(now).expect("progress");
            mc.process(now);
            black_box(mc.take_completed_reads().count());
        }
        mc.process(now);
        black_box(mc.take_completed_reads().count());
    }
    now
}

/// With tracing disabled, the steady-state read hot path — enqueue,
/// issue, completion, and the kernel's drain of the completed reads —
/// must be allocation-free: the completion buffer is drained in place and
/// keeps its warmed capacity.
fn bench_read_hotpath_disabled(c: &mut Criterion) {
    let table = standard_tables(&TableConfig::ladder_default()).ladder;
    c.bench_function("controller_read_hotpath_tracing_disabled", |b| {
        b.iter(|| {
            let mut mc = fresh_controller(&table);
            let now = drive_reads(&mut mc, Instant::ZERO, 2_000);
            let before = allocations();
            let now = drive_reads(&mut mc, now, 2_000);
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "read hot path allocated with tracing disabled"
            );
            black_box(mc.finish(now))
        })
    });
}

/// Recording a completed read or an accepted write for a tenant
/// registered with `ensure` looks the name up without allocating a key.
fn bench_tenant_record(c: &mut Criterion) {
    c.bench_function("tenant_latencies_record_100", |b| {
        b.iter(|| {
            let mut groups = TenantLatencies::default();
            groups.ensure("t1", 500_000, 2);
            let before = allocations();
            for i in 0..100u64 {
                groups.record_read(black_box("t1"), Picos::from_ps(40_000 + i));
                groups.note_write(black_box("t1"));
            }
            let after = allocations();
            assert_eq!(after - before, 0, "tenant latency recording allocated");
            black_box(groups.total_reads() + groups.total_writes())
        })
    });
}

/// The same hot path with an enabled recorder, for comparison in bench
/// output. Not allocation-gated: the ring buffer grows to its bounded
/// capacity on first use, which is the documented enabled-mode cost.
fn bench_write_hotpath_traced(c: &mut Criterion) {
    let table = standard_tables(&TableConfig::ladder_default()).ladder;
    c.bench_function("controller_write_hotpath_tracing_enabled", |b| {
        b.iter(|| {
            let mut mc = fresh_controller(&table);
            mc.set_trace_recorder(TraceRecorder::enabled());
            let now = drive_writes(&mut mc, Instant::ZERO, 4_000);
            let end = mc.finish(now);
            let rec = mc.take_trace_recorder();
            assert!(rec.records() > 0, "enabled recorder captured nothing");
            assert!(rec.totals().pulse_time > Picos::ZERO);
            black_box((end, rec.digest()))
        })
    });
}

criterion_group!(
    benches,
    bench_disabled_recorder,
    bench_write_hotpath_disabled,
    bench_read_hotpath_disabled,
    bench_tenant_record,
    bench_write_hotpath_traced
);
criterion_main!(benches);
