//! ambient-rng: randomness outside the seeded generators escapes the
//! master-seed discipline, in test code too. (`disallowed_types` also
//! names `RandomState` in the determinism-critical crates, which catches
//! `RandomState::default()`; no method path can name that impl.)

use std::collections::hash_map::RandomState; //~ disallowed_types
use std::hash::{BuildHasher, Hasher};

/// Seeds a hasher from the process's random keys.
pub fn roll() -> u64 {
    let state = RandomState::new(); //~ disallowed_methods disallowed_types
    state.build_hasher().finish()
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::RandomState;

    #[test]
    fn test_code_is_in_scope_too() {
        let _ = RandomState::new(); //~ disallowed_methods
    }
}
