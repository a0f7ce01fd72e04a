//! Circuit-level model of crossbar ReRAM RESET timing.
//!
//! This crate is the physics substrate of the LADDER reproduction: it
//! answers the question *"how long does a RESET take, given where the
//! target cells sit and what the crossbar currently stores?"*
//!
//! The answer is assembled in three layers:
//!
//! 1. [`solve_reset`] — exact modified nodal analysis of the crossbar's
//!    resistive network (wire segments, drivers, cells with non-linear
//!    selectors), by line relaxation, cross-validated in tests against a
//!    dense LU reference.
//! 2. [`analytic`] — a fast, conservative first-order IR-drop estimator
//!    used for bulk table generation.
//! 3. [`TimingTable`] — the quantized 8×8×8 lookup structure the memory
//!    controller consults at run time, plus the latency-law calibration
//!    shared across every scheme in a comparison.
//!
//! # Examples
//!
//! ```
//! use ladder_xbar::{TableConfig, TimingTable};
//!
//! let table = TimingTable::generate(&TableConfig::ladder_default())?;
//! // A write landing near the drivers into a sparse wordline is fast …
//! let fast = table.lookup_ps(10, 10, 0);
//! // … while the far corner of a dense wordline needs the full latency.
//! let slow = table.lookup_ps(511, 511, 512);
//! assert!(slow > 4 * fast);
//! # Ok::<(), ladder_xbar::MnaError>(())
//! ```

pub mod analytic;
mod latency;
mod mna;
mod params;
mod pattern;
mod solve;
mod table;

pub use latency::LatencyLaw;
pub use mna::{kirchhoff_residual, solve_reset, MnaError, ResetOp, Solution, SolverKind};
pub use params::CrossbarParams;
pub use pattern::{BitGrid, PatternSpec};
pub use solve::{dense, tridiag};
pub use table::{
    calibrate_device_law, latency_vs_wl_content, worst_latency_for_selected, ContentAxis,
    TableConfig, TableSource, TimingTable,
};
