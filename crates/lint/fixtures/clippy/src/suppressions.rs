//! Suppressions: every one is an `#[expect]` with a reason, and an
//! expectation that nothing fulfils is itself an error.

/// `#[allow]` is banned outright, and so is a missing reason.
#[allow(clippy::unwrap_used)] //~ allow_attributes allow_attributes_without_reason
pub fn bare_allow(x: Option<u64>) -> u64 {
    x.unwrap()
}

/// An `#[expect]` must say why.
#[expect(clippy::unwrap_used)] //~ allow_attributes_without_reason
pub fn unexplained(x: Option<u64>) -> u64 {
    x.unwrap()
}

/// The panic this expectation once justified was refactored away.
#[expect(clippy::panic, reason = "was: zero is rejected upstream")] //~ unfulfilled_lint_expectations
pub fn remaining(total: u64, done: u64) -> u64 {
    total.saturating_sub(done)
}

/// A misspelled lint name is an error, never a silent no-op.
#[expect(clippy::unwarp_used, reason = "typo in the lint name")] //~ unknown_lints
pub fn typo(x: Option<u64>) -> u64 {
    x.unwrap_or(0)
}
