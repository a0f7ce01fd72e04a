//! The P&V accounting invariants, end to end through the memory
//! controller: every failed verify is answered by exactly one retry pulse
//! while the budget lasts, the residue is fully accounted by ECC or data
//! loss, and an inert injector leaves the controller bit-identical to one
//! with no injector at all.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use ladder_faults::{CellFaultModel, FaultConfig, SharedCellFaultModel};
use ladder_memctrl::{standard_tables, FixedWorstPolicy, MemCtrlConfig, MemoryController, Tables};
use ladder_reram::{AddressMap, Geometry, Instant, LineAddr, LineData, LINE_BYTES};
use ladder_xbar::TableConfig;

fn controller(tables: &Tables) -> MemoryController {
    let map = AddressMap::new(Geometry::default());
    let policy = Box::new(FixedWorstPolicy::new(&tables.ladder));
    MemoryController::new(MemCtrlConfig::default(), map, policy)
}

/// Feed `n` data writes through the controller, pumping its event loop
/// whenever the write queue refuses new work (the `fig15` idiom).
fn feed_writes(mc: &mut MemoryController, n: u64) -> Instant {
    let mut now = Instant::ZERO;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // A small hot set so per-line write counts climb (stuck-at channel)
        // with varied content (transient channel).
        let addr = LineAddr::new(40_000 * 64 + x % 256);
        let mut data: LineData = [0; LINE_BYTES];
        for (j, b) in data.iter_mut().enumerate() {
            *b = (x >> (j % 8)) as u8 ^ i as u8;
        }
        while !mc.enqueue_write(addr, data, now) {
            now = mc
                .next_wake(now)
                .expect("controller wedged with a full queue");
            mc.process(now);
        }
        mc.process(now);
    }
    mc.finish(now)
}

#[test]
fn retries_issued_equals_failed_verifies() {
    let tables = standard_tables(&TableConfig::ladder_default());
    let cfg = FaultConfig::with_ber(7, 5e-3);
    let map = AddressMap::new(Geometry::default());
    let shared = SharedCellFaultModel::new(CellFaultModel::new(cfg, tables.ladder.clone(), map));
    let mut mc = controller(&tables);
    mc.set_fault_injector(shared.clone());
    feed_writes(&mut mc, 4000);

    let stats = mc.stats();
    assert!(stats.failed_verifies > 0, "5e-3 BER must trip verifies");
    assert_eq!(
        stats.retries_issued, stats.failed_verifies,
        "every failed verify is followed by exactly one retry while the budget lasts"
    );
    assert!(stats.retry_time > ladder_reram::Picos::ZERO);

    let fstats = shared.stats();
    assert!(fstats.transient_bit_errors > 0);
    assert!(
        fstats.stuck_cells > 0,
        "hot 256-line set at endurance 1000 must mint stuck cells"
    );
    assert_eq!(fstats.data_writes, stats.data_writes);
    // Residues are fully accounted: either corrected or counted as loss.
    assert_eq!(
        stats.ecc_corrected_bits, fstats.corrected_bits,
        "controller and model agree on corrected bits"
    );
    assert_eq!(stats.uncorrectable_writes, fstats.uncorrectable_lines);
    // Stuck cells really landed in the store's fault masks.
    assert!(mc.store().faulted_lines() > 0);
}

#[test]
fn inert_injector_is_bit_identical_to_no_injector() {
    let tables = standard_tables(&TableConfig::ladder_default());

    let mut plain = controller(&tables);
    let end_plain = feed_writes(&mut plain, 1500);

    let map = AddressMap::new(Geometry::default());
    let inert = SharedCellFaultModel::new(CellFaultModel::new(
        FaultConfig::new(7),
        tables.ladder.clone(),
        map,
    ));
    let mut with_inert = controller(&tables);
    with_inert.set_fault_injector(inert.clone());
    let end_inert = feed_writes(&mut with_inert, 1500);

    assert_eq!(end_plain, end_inert, "inert injector must add zero latency");
    assert_eq!(plain.stats(), with_inert.stats());
    assert_eq!(with_inert.stats().failed_verifies, 0);
    assert_eq!(with_inert.stats().retry_time, ladder_reram::Picos::ZERO);
    assert_eq!(inert.stats().transient_bit_errors, 0);
    // The model still observed every data write (its wear map fills), it
    // just never failed one.
    assert_eq!(inert.stats().data_writes, plain.stats().data_writes);
}

#[test]
fn fault_pressure_is_deterministic_across_runs() {
    let tables = standard_tables(&TableConfig::ladder_default());
    let run = || {
        let cfg = FaultConfig::with_ber(99, 2e-3);
        let map = AddressMap::new(Geometry::default());
        let shared =
            SharedCellFaultModel::new(CellFaultModel::new(cfg, tables.ladder.clone(), map));
        let mut mc = controller(&tables);
        mc.set_fault_injector(shared.clone());
        let end = feed_writes(&mut mc, 2000);
        (end, mc.stats(), shared.stats())
    };
    assert_eq!(run(), run());
}
