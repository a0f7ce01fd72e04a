//! Device fault injection and recovery for the LADDER reproduction.
//!
//! The reliability literature the repo cites makes two claims this crate
//! reproduces: WoLFRaM-style wear-induced *permanent* stuck-at faults
//! (SA0/SA1) whose arrival rate grows with consumed endurance, and the
//! variability channel models' *transient* write failures whose
//! probability is location- and content-dependent — exactly the two axes
//! LADDER's timing table already parameterizes, so the table's IR-drop
//! margin is reused as the failure-probability proxy (far cells and
//! LRS-heavy lines fail more).
//!
//! Three layers:
//!
//! 1. [`CellFaultModel`] — the seeded, deterministic per-cell fault model.
//!    Determinism is structural: every sample is a pure hash of
//!    `(seed, line, per-line write index, attempt)`, so results are
//!    identical at any `--jobs` level and across reruns.
//! 2. Program-and-verify — the model plugs into the memory controller as a
//!    [`ladder_memctrl::FaultInjector`]; the controller fires bounded,
//!    escalated retry pulses on failed verifies and charges their latency
//!    against the write's bank occupancy.
//! 3. Recovery — a per-line SEC-DED-style correction budget absorbs small
//!    residues; uncorrectable lines count as data loss and retire their
//!    page into a spare frame through
//!    [`ladder_wear::SharedRetirePool`].
//!
//! With every rate at zero the model is inert: no retries, no masks, no
//! extra latency — a rate-0.0 run is bit-identical to a run without the
//! model installed (enforced by the `fault_injection` integration tests).
//!
//! # Examples
//!
//! ```
//! use ladder_faults::{CellFaultModel, FaultConfig, SharedCellFaultModel};
//! use ladder_memctrl::{standard_tables, FixedWorstPolicy, MemCtrlConfig, MemoryController};
//! use ladder_reram::{AddressMap, Geometry, Instant, LineAddr};
//! use ladder_xbar::TableConfig;
//!
//! let tables = standard_tables(&TableConfig::ladder_default());
//! let map = AddressMap::new(Geometry::default());
//! let cfg = FaultConfig {
//!     transient_ber: 1e-3,
//!     ..FaultConfig::new(7)
//! };
//! let shared = SharedCellFaultModel::new(CellFaultModel::new(cfg, tables.ladder.clone(), map.clone()));
//! let policy = Box::new(FixedWorstPolicy::new(&tables.ladder));
//! let mut mc = MemoryController::new(MemCtrlConfig::default(), map, policy);
//! mc.set_fault_injector(shared.clone());
//! mc.enqueue_write(LineAddr::new(40_000 * 64), [0xFF; 64], Instant::ZERO);
//! mc.finish(Instant::ZERO);
//! assert_eq!(mc.stats().retries_issued, mc.stats().failed_verifies);
//! ```

// hash-iter: no HashMap/HashSet outside test code (see clippy.toml).
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

mod model;

pub use model::{CellFaultModel, FaultStats, SharedCellFaultModel};

/// Configuration of the device fault model. All-zero rates make the model
/// inert (useful for A/B-identical control runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; every sample in the model derives from it.
    pub seed: u64,
    /// Raw transient bit-error rate: per-bit probability that the initial
    /// pulse fails to program a cell at the worst IR-drop corner. Scaled
    /// down for better-margin (near / HRS-heavy) locations.
    pub transient_ber: f64,
    /// Probability that a write mints a new permanent stuck-at cell once
    /// the line has consumed its full endurance budget; scales linearly
    /// with consumed endurance below that.
    pub stuck_rate: f64,
    /// Per-cell endurance (writes) used to scale stuck-at arrival.
    pub endurance: u64,
    /// Retry-pulse budget per write.
    pub max_retries: u32,
    /// Each retry pulse is lengthened by this fraction of the base `tWR`
    /// per attempt (percent): attempt `k` runs at `base × (1 + k·pct/100)`.
    pub retry_escalation_pct: u32,
    /// SEC-DED-style per-line correction budget in bits (a 64 B line holds
    /// eight 8 B ECC words, each correcting one bit).
    pub ecc_correctable_bits: u32,
    /// Stuck cells accumulated on one page before it is retired
    /// proactively (an uncorrectable write retires its page immediately).
    pub retire_stuck_threshold: u32,
}

impl FaultConfig {
    /// An inert (all rates zero) configuration with standard retry/ECC
    /// parameters, for control runs that must match the no-fault path.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            transient_ber: 0.0,
            stuck_rate: 0.0,
            endurance: 10_000_000,
            max_retries: 3,
            retry_escalation_pct: 50,
            ecc_correctable_bits: 8,
            retire_stuck_threshold: 64,
        }
    }

    /// Default stuck-at/transient rate ratio used by [`Self::with_ber`]:
    /// simulated runs are ~10^5 writes, not the 10^7 a device endures, so
    /// the stuck-at channel is scaled up 20× relative to the transient BER
    /// to make wear-out observable inside a simulation window. Campaigns
    /// that sweep the ratio use [`Self::with_ber_ratio`] directly.
    pub const DEFAULT_STUCK_RATIO: f64 = 20.0;

    /// A configuration exercising both fault classes at the given raw
    /// transient bit-error rate, with stuck-at arrival scaled by
    /// [`Self::DEFAULT_STUCK_RATIO`].
    pub fn with_ber(seed: u64, ber: f64) -> Self {
        Self::with_ber_ratio(seed, ber, Self::DEFAULT_STUCK_RATIO)
    }

    /// Like [`Self::with_ber`] but with an explicit stuck-at ratio:
    /// `stuck_rate = ber × stuck_ratio`.
    ///
    /// # Panics
    ///
    /// Panics if `ber` or `stuck_ratio` is negative, NaN, or infinite —
    /// a non-finite rate would silently disable whole fault channels
    /// (every `unit(h) < p` comparison is false against NaN), so it is
    /// rejected at construction.
    pub fn with_ber_ratio(seed: u64, ber: f64, stuck_ratio: f64) -> Self {
        assert!(
            ber.is_finite() && ber >= 0.0,
            "transient BER must be finite and non-negative, got {ber}"
        );
        assert!(
            stuck_ratio.is_finite() && stuck_ratio >= 0.0,
            "stuck ratio must be finite and non-negative, got {stuck_ratio}"
        );
        Self {
            transient_ber: ber,
            stuck_rate: ber * stuck_ratio,
            endurance: 1_000,
            ..Self::new(seed)
        }
    }

    /// Whether every fault channel is disabled.
    pub fn is_inert(&self) -> bool {
        self.transient_ber == 0.0 && self.stuck_rate == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::new(2021)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_ber_uses_the_documented_default_ratio() {
        let cfg = FaultConfig::with_ber(7, 1e-3);
        let explicit = FaultConfig::with_ber_ratio(7, 1e-3, FaultConfig::DEFAULT_STUCK_RATIO);
        assert_eq!(cfg, explicit);
        assert!((cfg.stuck_rate - 2e-2).abs() < 1e-12);
    }

    #[test]
    fn custom_ratio_scales_the_stuck_channel() {
        let cfg = FaultConfig::with_ber_ratio(7, 1e-3, 5.0);
        assert!((cfg.stuck_rate - 5e-3).abs() < 1e-12);
        let inert = FaultConfig::with_ber_ratio(7, 0.0, 5.0);
        assert!(inert.is_inert());
    }

    #[test]
    #[should_panic(expected = "transient BER must be finite")]
    fn nan_ber_is_rejected() {
        let _ = FaultConfig::with_ber(1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "transient BER must be finite")]
    fn negative_ber_is_rejected() {
        let _ = FaultConfig::with_ber(1, -1e-3);
    }

    #[test]
    #[should_panic(expected = "stuck ratio must be finite")]
    fn infinite_ratio_is_rejected() {
        let _ = FaultConfig::with_ber_ratio(1, 1e-3, f64::INFINITY);
    }
}
