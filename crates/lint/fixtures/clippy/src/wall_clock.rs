//! wall-clock: host-clock reads couple simulated results to machine speed.

use std::time::{Duration, Instant, SystemTime};

/// An `Instant::now()` outside the sanctioned wall-clock module.
pub fn stamp() -> Duration {
    let t0 = Instant::now(); //~ disallowed_methods
    t0.elapsed()
}

/// Wall-clock state in simulated logic breaks run-to-run identity.
pub fn epoch_secs() -> u64 {
    match SystemTime::UNIX_EPOCH.elapsed() { //~ disallowed_methods
        Ok(d) => d.as_secs(),
        Err(_) => 0,
    }
}

/// `SystemTime::now()` reads the host clock as well.
pub fn now() -> SystemTime {
    SystemTime::now() //~ disallowed_methods
}

/// The sanctioned site: a justified `#[expect]` silences the read.
#[expect(clippy::disallowed_methods, reason = "the sanctioned host-clock read")]
pub fn stopwatch() -> Instant {
    Instant::now()
}
