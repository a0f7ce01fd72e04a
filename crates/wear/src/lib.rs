//! Wear-leveling and lifetime analysis for the LADDER reproduction
//! (paper Section 6.4).
//!
//! Vertical wear-leveling ([`StartGap`], [`SegmentVwl`]) remaps line
//! addresses *before* LADDER, so metadata is always indexed by physical
//! location (paper Fig. 18a); horizontal wear-leveling ([`RotateHwl`])
//! rotates bytes inside a line and needs no metadata handling. Lifetime is
//! judged by the worst-stressed line through [`WearMap`].

// hash-iter: no HashMap/HashSet outside test code (see clippy.toml).
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

mod leveling;
mod lifetime;
mod remap;
mod rng_util;

pub use leveling::{NoLeveling, RotateHwl, SegmentVwl, StartGap, WearLeveler};
pub use lifetime::{relative_lifetime, SharedWearMap, WearMap};
pub use remap::{
    HotPageRemapper, PadRemapper, RemapBackend, RemapKind, RetirePool, SharedPadRemapper,
    SharedRetirePool,
};
