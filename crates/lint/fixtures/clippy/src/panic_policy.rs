//! panic-policy: library code returns errors instead of panicking.

/// Library code must not unwrap.
pub fn head(xs: &[u64]) -> u64 {
    xs.first().copied().unwrap() //~ unwrap_used
}

/// Library code must not expect.
pub fn head_or_abort(xs: &[u64]) -> u64 {
    xs.first().copied().expect("nonempty input") //~ expect_used
}

/// Library code must not panic!.
pub fn check(x: u64) {
    if x == 0 {
        panic!("zero is not allowed"); //~ panic
    }
}

/// A justified `#[expect]` is the sanctioned escape hatch.
#[expect(clippy::unwrap_used, reason = "invariant: callers guarantee xs is nonempty")]
pub fn head_justified(xs: &[u64]) -> u64 {
    xs.first().copied().unwrap()
}

#[cfg(test)]
mod tests {
    fn helper(xs: &[u64]) -> u64 {
        xs.first().copied().unwrap()
    }

    #[test]
    fn test_code_may_unwrap_expect_and_panic() {
        assert_eq!(helper(&[1]), 1);
        assert_eq!([2u64].first().copied().expect("nonempty"), 2);
        if helper(&[3]) != 3 {
            panic!("unreachable");
        }
    }
}
