//! The hot-loop equivalence battery: every fast path introduced by the
//! performance overhaul (SWAR bit kernels, quantized timing-table lookup)
//! is proven bit-identical to its retained reference implementation, and
//! the opt-in calendar event queue to the default binary heap — on
//! arbitrary inputs via the offline proptest shim, and end-to-end via a
//! differential full quick run on both queue backends.
//!
//! See `DESIGN.md` §15 for the fast-path/reference-path discipline.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use ladder::core::PartialCounters;
use ladder::reram::{bits, EventQueue, Instant, QueueBackend};
use ladder::sim::experiments::{ExperimentConfig, Workload};
use ladder::sim::{run_sim, Scheme, SimConfig};
use ladder::xbar::{TableConfig, TimingTable};
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = [u8; 64]> {
    prop::collection::vec(any::<u8>(), 64).prop_map(|v| {
        let mut a = [0u8; 64];
        a.copy_from_slice(&v);
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- SWAR kernels ≡ byte-wise reference on arbitrary LineData ----

    #[test]
    fn swar_popcount_matches_reference(line in arb_line()) {
        prop_assert_eq!(bits::ones(&line), bits::reference::ones(&line));
    }

    #[test]
    fn swar_xor_delta_matches_reference(a in arb_line(), b in arb_line()) {
        prop_assert_eq!(bits::xor_ones(&a, &b), bits::reference::xor_ones(&a, &b));
        prop_assert_eq!(bits::delta_ones(&a, &b), bits::reference::delta_ones(&a, &b));
        // The delta split is consistent with the Hamming distance.
        let (set, reset) = bits::delta_ones(&a, &b);
        prop_assert_eq!(set + reset, bits::xor_ones(&a, &b));
    }

    #[test]
    fn swar_worst_byte_matches_reference(line in arb_line()) {
        prop_assert_eq!(
            bits::worst_byte_ones(&line),
            bits::reference::worst_byte_ones(&line)
        );
    }

    // ---- unaligned tails: arbitrary lengths, not just whole lines ----

    #[test]
    fn swar_kernels_match_reference_on_unaligned_tails(
        a in prop::collection::vec(any::<u8>(), 0..100),
        b in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        prop_assert_eq!(bits::ones(&a), bits::reference::ones(&a));
        prop_assert_eq!(bits::worst_byte_ones(&a), bits::reference::worst_byte_ones(&a));
        let n = a.len().min(b.len());
        prop_assert_eq!(
            bits::xor_ones(&a[..n], &b[..n]),
            bits::reference::xor_ones(&a[..n], &b[..n])
        );
        prop_assert_eq!(
            bits::delta_ones(&a[..n], &b[..n]),
            bits::reference::delta_ones(&a[..n], &b[..n])
        );
    }

    // ---- per-mat partial counts go through the worst-byte kernel ----

    #[test]
    fn partial_counters_match_bytewise_definition(line in arb_line()) {
        let pc = PartialCounters::from_line(&line);
        for j in 0..4 {
            let worst = bits::reference::worst_byte_ones(&line[j * 16..(j + 1) * 16]);
            let expect = match worst {
                0..=1 => 1,
                2..=3 => 3,
                4..=5 => 5,
                _ => 8,
            };
            prop_assert_eq!(pc.decode(j), expect);
        }
    }

    #[test]
    fn swar_shift_group_matches_reference(group in any::<u64>(), offset in 0usize..8) {
        let fast = bits::shift_group(group, offset);
        prop_assert_eq!(fast, bits::reference::shift_group(group, offset));
        prop_assert_eq!(bits::unshift_group(fast, offset), group);
        prop_assert_eq!(
            bits::unshift_group(group, offset),
            bits::reference::unshift_group(group, offset)
        );
    }

    // ---- calendar queue ≡ heap on arbitrary schedules ----

    #[test]
    fn calendar_queue_pops_like_the_heap(
        times in prop::collection::vec(0u64..5000, 1..200),
        pop_every in 1usize..8,
    ) {
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        let mut popped = Vec::new();
        // Interleave schedules and pops so the day cursor, bucket resizes
        // and the FIFO tie-break (coarse times collide often) all engage.
        for (i, &t) in times.iter().enumerate() {
            let at = Instant::from_ps(t);
            cal.schedule(at, i);
            heap.schedule(at, i);
            prop_assert_eq!(cal.len(), heap.len());
            if i % pop_every == pop_every - 1 {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                popped.push(a);
            }
        }
        // Drain the rest: what remains must come out in nondecreasing time
        // order (interleaved pops above may legally precede later-scheduled
        // earlier events, so monotonicity only holds within the drain).
        let mut drained = Vec::new();
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            match a {
                Some(e) => drained.push(e),
                None => break,
            }
        }
        prop_assert_eq!(popped.len() + drained.len(), times.len());
        for w in drained.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn calendar_queue_is_fifo_at_equal_times(
        n in 1usize..64,
        at in 0u64..1_000_000,
    ) {
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        for i in 0..n {
            q.schedule(Instant::from_ps(at), i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop(), Some((Instant::from_ps(at), i)));
        }
    }

    // ---- quantized table lookup ≡ legacy nested-division lookup ----

    #[test]
    fn quantized_table_lookup_matches_reference(
        wl in 0usize..512,
        bl in 0usize..512,
        c in prop_oneof![Just(0usize), 0usize..=512, Just(usize::MAX)],
    ) {
        let t = shared_table();
        prop_assert_eq!(t.lookup_ps(wl, bl, c), t.lookup_ps_reference(wl, bl, c));
    }
}

/// The default LADDER table, generated once per process (analytic source;
/// generating it per proptest case would dominate the suite's runtime).
fn shared_table() -> &'static TimingTable {
    use std::sync::OnceLock;
    static TABLE: OnceLock<TimingTable> = OnceLock::new();
    TABLE.get_or_init(|| TimingTable::generate(&TableConfig::ladder_default()).expect("generate"))
}

/// Differential full quick run: the calendar-queue kernel must reproduce
/// the heap-queue kernel bit-for-bit — same trace digest, same simulated
/// end time, same event and write totals.
#[test]
fn full_quick_run_is_identical_on_both_queue_backends() {
    let ecfg = ExperimentConfig::quick();
    let tables = ecfg.tables();
    for (scheme, bench) in [(Scheme::LadderEst, "astar"), (Scheme::Baseline, "mcf")] {
        let run = |backend: QueueBackend| {
            let cfg = SimConfig::builder()
                .scheme(scheme)
                .workload(Workload::Single(bench))
                .queue(backend)
                .trace(true)
                .build();
            run_sim(&cfg, &ecfg, &tables)
        };
        let cal = run(QueueBackend::Calendar);
        let heap = run(QueueBackend::Heap);
        let label = format!("{}/{bench}", scheme.name());
        assert_eq!(cal.end, heap.end, "{label}: end time diverged");
        assert_eq!(
            cal.events.total(),
            heap.events.total(),
            "{label}: event counts diverged"
        );
        assert_eq!(
            cal.mem.data_writes, heap.mem.data_writes,
            "{label}: write counts diverged"
        );
        let (ct, ht) = (
            cal.trace.as_ref().expect("trace requested"),
            heap.trace.as_ref().expect("trace requested"),
        );
        assert_eq!(ct.records, ht.records, "{label}: record counts diverged");
        assert_eq!(
            ct.digest, ht.digest,
            "{label}: trace digests diverged between queue backends"
        );
    }
}
