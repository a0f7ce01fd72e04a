//! hash-iter: folding over a hash container makes export order depend on
//! the per-process hasher seed.

use std::collections::BTreeMap;

/// Folding over a `HashMap` makes export order depend on the hasher seed.
pub fn fold(m: &std::collections::HashMap<u64, u64>) -> u64 { //~ disallowed_types
    m.values().sum()
}

/// Picking "any" element of a `HashSet` is a nondeterministic choice.
pub fn first(s: &std::collections::HashSet<u64>) -> Option<u64> { //~ disallowed_types
    s.iter().next().copied()
}

/// Sorted iteration is deterministic by construction.
pub fn fold_sorted(m: &BTreeMap<u64, u64>) -> u64 {
    m.values().sum()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_code_may_hash() {
        let mut m = HashMap::new();
        m.insert(1u64, 2u64);
        assert_eq!(m.len(), 1);
    }
}
