//! The symbol index is pass 1 of the analyzer: every semantic rule reads
//! it, so its contents must not depend on the order the walker happened
//! to visit files in. The property: for any permutation of the corpus,
//! `SymbolIndex::from_units` produces the identical index.

use ladder_lint::index::SymbolIndex;
use ladder_lint::SourceUnit;
use proptest::prelude::*;

fn unit(path: &str, src: &str) -> SourceUnit {
    SourceUnit {
        rel_path: path.to_string(),
        source: src.to_string(),
    }
}

/// A small but representative corpus: modules, impls, counter structs,
/// generics, and a test file.
fn corpus() -> Vec<SourceUnit> {
    vec![
        unit(
            "crates/a/src/lib.rs",
            "pub fn ones(x: u64) -> u32 { x.count_ones() }\n\
             pub mod wide {\n    pub fn ones(x: u128) -> u32 { x.count_ones() }\n}\n",
        ),
        unit(
            "crates/a/tests/kernels.rs",
            "fn check() { assert_eq!(ones(1), wide::ones(1)); }\n",
        ),
        unit(
            "crates/b/src/stats.rs",
            "pub struct IoStats { pub reads: u64, pub label: String }\n\
             impl Mergeable for IoStats {\n    fn merge_from(&mut self, o: &Self) {\n        self.reads = self.reads.saturating_add(o.reads);\n    }\n}\n",
        ),
        unit(
            "crates/b/src/fold.rs",
            "pub fn fold(r: &mut RunResult, s: &IoStats) { r.io.merge_from(s); }\n",
        ),
        unit(
            "crates/c/src/time.rs",
            "pub enum Backend { Heap }\n\
             pub fn lookup_ps(cell: u8) -> u64 { 0 }\n",
        ),
        unit(
            "crates/c/src/geometry.rs",
            "pub struct Grid<T> { pub cells: Vec<T> }\n\
             impl<T> Grid<T> {\n    pub fn area(&self, rows_x: usize, cols_y: usize) -> usize { rows_x * cols_y }\n}\n",
        ),
    ]
}

/// Deterministic Fisher–Yates driven by a SplitMix64 stream.
fn shuffle(units: &mut [SourceUnit], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..units.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        units.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn symbol_index_is_visit_order_independent(seed in any::<u64>()) {
        let baseline = SymbolIndex::from_units(&corpus());
        let mut shuffled = corpus();
        shuffle(&mut shuffled, seed);
        let index = SymbolIndex::from_units(&shuffled);
        prop_assert_eq!(index, baseline);
    }

    #[test]
    fn dropping_a_file_changes_the_index(drop in 0usize..6) {
        let baseline = SymbolIndex::from_units(&corpus());
        let mut partial = corpus();
        partial.remove(drop);
        let index = SymbolIndex::from_units(&partial);
        prop_assert_ne!(index, baseline);
    }
}
