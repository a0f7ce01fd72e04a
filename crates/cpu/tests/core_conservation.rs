//! Property tests of the core state machine: instruction conservation,
//! monotone time, and stall accounting under arbitrary traces and arbitrary
//! (but causal) memory-system behaviour.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use ladder_cpu::{Core, CoreAction, CoreConfig, MemEvent, TraceOp, VecTrace};
use ladder_reram::{Instant, LineAddr, Picos};
use proptest::prelude::*;

fn arb_event() -> impl Strategy<Value = MemEvent> {
    (0u64..500, 0u64..10_000, any::<bool>(), any::<bool>()).prop_map(
        |(gap, addr, is_write, critical)| MemEvent {
            gap_instructions: gap,
            op: if is_write {
                TraceOp::Write {
                    addr: LineAddr::new(addr),
                    data: Box::new([0xA5; 64]),
                }
            } else {
                TraceOp::Read {
                    addr: LineAddr::new(addr),
                    critical,
                }
            },
        },
    )
}

/// Drives a core against a synthetic memory system that completes reads
/// after `read_delay` and rejects each write `write_rejects` times first.
fn drive(events: Vec<MemEvent>, read_delay: u64, write_rejects: u32) -> (Core, Instant) {
    let total_instructions: u64 = events.iter().map(|e| e.gap_instructions + 1).sum();
    let mut core = Core::new(
        CoreConfig::default(),
        Box::new(VecTrace::new("prop", events)),
    );
    let mut now = Instant::ZERO;
    let mut next_id = 0u64;
    let mut outstanding: Vec<(u64, Instant)> = Vec::new();
    let mut rejects_left = write_rejects;
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "driver runaway");
        // Deliver due completions.
        outstanding.retain(|&(id, at)| {
            if at <= now {
                core.on_read_completed(id, at);
                false
            } else {
                true
            }
        });
        match core.next_action(now) {
            CoreAction::Finished => break,
            CoreAction::Idle { until: Some(t) } => now = t.max(now + Picos::from_ps(1)),
            CoreAction::Idle { until: None } => {
                // Blocked on memory: advance to the next completion.
                let next = outstanding.iter().map(|&(_, at)| at).min();
                now = next.expect("blocked with nothing outstanding");
            }
            CoreAction::IssueRead { .. } => {
                let id = next_id;
                next_id += 1;
                core.on_read_issued(id, now);
                outstanding.push((id, now + Picos::from_ps(read_delay)));
            }
            CoreAction::IssueWrite { .. } => {
                if rejects_left > 0 {
                    rejects_left -= 1;
                    core.on_write_rejected(now);
                    now += Picos::from_ps(50);
                    // The retry presents the same write.
                    match core.next_action(now) {
                        CoreAction::IssueWrite { .. } => core.on_write_accepted(now),
                        other => panic!("expected write retry, got {other:?}"),
                    }
                } else {
                    core.on_write_accepted(now);
                }
            }
        }
    }
    assert_eq!(core.retired_instructions(), total_instructions);
    (core, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn core_retires_every_instruction(
        events in prop::collection::vec(arb_event(), 1..60),
        read_delay in 1u64..200_000,
        write_rejects in 0u32..3,
    ) {
        let (core, end) = drive(events, read_delay, write_rejects);
        prop_assert!(core.is_finished());
        // Stalls cannot exceed wall-clock time.
        prop_assert!(core.stall_time() <= end.duration_since(Instant::ZERO));
        // IPC is positive and bounded by the configured base rate.
        let ipc = core.ipc(end.max(Instant::from_ps(1)));
        prop_assert!(ipc >= 0.0);
    }

    #[test]
    fn slower_memory_never_finishes_earlier(
        events in prop::collection::vec(arb_event(), 5..40),
    ) {
        let (_, fast_end) = drive(events.clone(), 10_000, 0);
        let (_, slow_end) = drive(events, 500_000, 0);
        prop_assert!(slow_end >= fast_end, "slower reads finished earlier");
    }
}
