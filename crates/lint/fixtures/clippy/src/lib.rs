//! Clippy fixture corpus. Every line that must fire a lint ends in a
//! `//~` marker followed by the lint names; unmarked lines must stay
//! silent.

// Scoped like a determinism-critical crate (sim, trace, faults, wear,
// coding): hash containers are denied outside test code.
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

pub mod ambient_rng;
pub mod hash_iter;
pub mod panic_policy;
pub mod suppressions;
pub mod wall_clock;
