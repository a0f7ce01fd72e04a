//! Location-dependent error channel and coding-layer schemes for the
//! LADDER reproduction.
//!
//! The reliability literature the repo cites (Chen & Dolecek's 1S1R
//! channel models; the locally-rewritable-code line of work) makes the
//! raw bit-error rate of a crossbar write a function of the write's
//! ⟨WL, BL⟩ position and its line content — exactly the two axes LADDER's
//! timing table already parameterizes. This crate turns that table into
//! an explicit *channel* and layers code schemes on top of it:
//!
//! * [`LocationChannel`] — derives per-line raw BER and stuck-at arrival
//!   probability from crossbar position and IR-drop margin, calibrated
//!   against the `ladder-xbar` MNA timing table. It is the single error
//!   source the fault stack samples from (replacing flat per-run knobs).
//! * [`CodeScheme`] — what the ECC layer can correct per line, and what
//!   that protection costs in parity write amplification. Three
//!   implementations: [`FlatEcc`] (today's uniform SEC-DED budget,
//!   byte-compatible with the pre-coding fault stack), [`TieredBch`]
//!   (position-tiered BCH-style budgets — far, high-margin regions get
//!   deeper correction), and [`LocalRewrite`] (a locally-rewritable-code
//!   model: per-group repair at low parity cost).
//! * [`CodingStats`] — per-tier correction counters folded across shards
//!   through [`ladder_trace::Mergeable`] like every other aggregate.
//!
//! Everything here is pure arithmetic over the channel: no RNG, no
//! clocks, no ambient state — the same determinism contract as the rest
//! of the workspace.

// hash-iter: no HashMap/HashSet outside test code (see clippy.toml).
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

mod channel;
mod scheme;
mod stats;

pub use channel::LocationChannel;
pub use scheme::{CodeScheme, CodingKind, FlatEcc, LocalRewrite, TieredBch};
pub use stats::{CodingStats, CODING_BUCKETS};
