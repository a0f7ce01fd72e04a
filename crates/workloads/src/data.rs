//! Synthetic line-content generation.
//!
//! Written data drives four scheme-relevant behaviours: the LRS population
//! of wordlines (latency), the clustering of `1`s into hot bytes (what
//! intra-line shifting fixes), page-level pattern repetition (why
//! clustering hurts: consecutive lines stack their dense bytes on the same
//! mats), and FPC compressibility (Split-reset). The generator reproduces
//! each knob explicitly and deterministically.

use crate::rng::SplitMix64;
use ladder_reram::{bits, LineData, LINE_BYTES};

/// Per-page pattern state: hot-byte positions repeat across the lines of a
/// page, as observed in real applications (paper Section 4.1, citing
/// DEUCE's repetitive-pattern observation).
#[derive(Debug, Clone)]
pub struct PagePattern {
    /// One hot byte index per 8-byte chip group.
    hot_bytes: [usize; 8],
}

impl PagePattern {
    /// Derives the page's hot-byte layout from its page number.
    pub fn for_page(page: u64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ page.wrapping_mul(0x5851_f42d_4c95_7f2d));
        let mut hot_bytes = [0usize; 8];
        for (g, h) in hot_bytes.iter_mut().enumerate() {
            *h = g * 8 + (rng.next_u64() % 8) as usize;
        }
        Self { hot_bytes }
    }
}

/// Parameters for one generated line.
#[derive(Debug, Clone, Copy)]
pub struct DataSpec {
    /// Mean fraction of `1` bits.
    pub bit_density: f64,
    /// Fraction of the `1`s packed into the page's hot bytes.
    pub clustering: f64,
    /// Probability the line is FPC-half-compressible.
    pub compressible_fraction: f64,
}

/// Generates the contents of one written line.
pub fn generate_line(spec: &DataSpec, pattern: &PagePattern, rng: &mut SplitMix64) -> LineData {
    if rng.next_f64() < spec.compressible_fraction {
        return compressible_line(rng);
    }
    dense_line(spec, pattern, rng)
}

/// A line that FPC compresses to ≤ half size: zeros, small integers or a
/// repeated byte.
fn compressible_line(rng: &mut SplitMix64) -> LineData {
    let mut line = [0u8; LINE_BYTES];
    match rng.next_u64() % 3 {
        0 => {} // all-zero
        1 => {
            // Small positive integers, one per 32-bit word.
            for w in 0..LINE_BYTES / 4 {
                let v = (rng.next_u64() % 128) as u32;
                line[w * 4..w * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => {
            // Repeated byte (struct padding / fill patterns).
            let b = (rng.next_u64() % 256) as u8;
            line.fill(b);
        }
    }
    line
}

/// An incompressible line with the requested density and clustering.
fn dense_line(spec: &DataSpec, pattern: &PagePattern, rng: &mut SplitMix64) -> LineData {
    let mut line = [0u8; LINE_BYTES];
    let total_ones = (spec.bit_density * (LINE_BYTES * 8) as f64).round() as usize;
    let clustered = (total_ones as f64 * spec.clustering).round() as usize;
    let scattered = total_ones - clustered;
    // Clustered ones: fill the page's hot bytes (one per chip group),
    // spilling into the byte after each hot byte when they overflow.
    let mut remaining = clustered;
    let mut level = 0usize;
    while remaining > 0 && level < 16 {
        for g in 0..8 {
            if remaining == 0 {
                break;
            }
            let byte = (pattern.hot_bytes[g] + level / 8) % LINE_BYTES;
            let bit = level % 8;
            if line[byte] & (1 << bit) == 0 {
                line[byte] |= 1 << bit;
                remaining -= 1;
            }
        }
        level += 1;
    }
    // Scattered ones: uniform random positions, set on the line's
    // little-endian u64 words (bit `pos` of the line is bit `pos % 64` of
    // word `pos / 64`); only newly set bits count toward `scattered`.
    let mut words = [0u64; LINE_BYTES / 8];
    for (i, w) in words.iter_mut().enumerate() {
        *w = bits::le_word(&line, i * 8);
    }
    let mut placed = 0;
    let mut guard = 0;
    while placed < scattered && guard < scattered * 8 {
        guard += 1;
        let pos = (rng.next_u64() % (LINE_BYTES * 8) as u64) as usize;
        let w = &mut words[pos / 64];
        let m = 1u64 << (pos % 64);
        placed += usize::from(*w & m == 0);
        *w |= m;
    }
    for (i, &w) in words.iter().enumerate() {
        bits::write_le_word(&mut line, i * 8, w);
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_baselines::is_half_compressible;

    fn spec(d: f64, c: f64, z: f64) -> DataSpec {
        DataSpec {
            bit_density: d,
            clustering: c,
            compressible_fraction: z,
        }
    }

    fn ones(l: &LineData) -> usize {
        bits::ones(l) as usize
    }

    /// The byte-wise generator the word-wise scatter replaced, kept as
    /// the reference the fast path must match draw for draw.
    fn generate_line_bytewise(
        spec: &DataSpec,
        pattern: &PagePattern,
        rng: &mut SplitMix64,
    ) -> LineData {
        if rng.next_f64() < spec.compressible_fraction {
            return compressible_line(rng);
        }
        let mut line = [0u8; LINE_BYTES];
        let total_ones = (spec.bit_density * (LINE_BYTES * 8) as f64).round() as usize;
        let clustered = (total_ones as f64 * spec.clustering).round() as usize;
        let scattered = total_ones - clustered;
        let mut remaining = clustered;
        let mut level = 0usize;
        while remaining > 0 && level < 16 {
            for g in 0..8 {
                if remaining == 0 {
                    break;
                }
                let byte = (pattern.hot_bytes[g] + level / 8) % LINE_BYTES;
                let bit = level % 8;
                if line[byte] & (1 << bit) == 0 {
                    line[byte] |= 1 << bit;
                    remaining -= 1;
                }
            }
            level += 1;
        }
        let mut placed = 0;
        let mut guard = 0;
        while placed < scattered && guard < scattered * 8 {
            guard += 1;
            let pos = (rng.next_u64() % (LINE_BYTES * 8) as u64) as usize;
            let (byte, bit) = (pos / 8, pos % 8);
            if line[byte] & (1 << bit) == 0 {
                line[byte] |= 1 << bit;
                placed += 1;
            }
        }
        line
    }

    #[test]
    fn word_wise_generator_matches_the_byte_wise_reference() {
        let mut guard_exhausted = 0;
        for density in [0.0, 0.05, 0.5, 0.95, 1.0] {
            for clustering in [0.0, 0.5, 1.0] {
                for compressible in [0.0, 0.3] {
                    let s = spec(density, clustering, compressible);
                    for seed in 0..64u64 {
                        let pattern = PagePattern::for_page(seed % 7, seed);
                        let mut fast = SplitMix64::new(seed);
                        let mut reference = fast.clone();
                        for draw in 0..8 {
                            let got = generate_line(&s, &pattern, &mut fast);
                            let want = generate_line_bytewise(&s, &pattern, &mut reference);
                            assert_eq!(
                                got, want,
                                "line: density {density} clustering {clustering} seed {seed} draw {draw}"
                            );
                            assert_eq!(
                                fast, reference,
                                "rng: density {density} clustering {clustering} seed {seed} draw {draw}"
                            );
                            if density == 1.0 && clustering == 0.0 && ones(&got) < LINE_BYTES * 8 {
                                guard_exhausted += 1;
                            }
                        }
                    }
                }
            }
        }
        // Full-density scatter runs out of draws before it fills the line
        // now and then; the comparison must cover that exit too.
        assert!(guard_exhausted > 0, "no case exhausted the guard");
    }

    #[test]
    fn density_is_respected_on_average() {
        let pattern = PagePattern::for_page(3, 42);
        let mut rng = SplitMix64::new(7);
        let s = spec(0.2, 0.3, 0.0);
        let mean: f64 = (0..200)
            .map(|_| ones(&generate_line(&s, &pattern, &mut rng)) as f64)
            .sum::<f64>()
            / 200.0;
        let target = 0.2 * 512.0;
        assert!(
            (mean - target).abs() < target * 0.15,
            "mean {mean} vs {target}"
        );
    }

    #[test]
    fn compressible_lines_actually_compress() {
        let pattern = PagePattern::for_page(0, 1);
        let mut rng = SplitMix64::new(9);
        let s = spec(0.3, 0.3, 1.0);
        for _ in 0..50 {
            let l = generate_line(&s, &pattern, &mut rng);
            assert!(is_half_compressible(&l));
        }
    }

    #[test]
    fn clustering_concentrates_ones_in_hot_bytes() {
        let pattern = PagePattern::for_page(11, 5);
        let mut rng = SplitMix64::new(3);
        let tight = spec(0.1, 1.0, 0.0);
        let loose = spec(0.1, 0.0, 0.0);
        let worst_byte = |l: &LineData| bits::worst_byte_ones(l);
        let tight_worst: u32 = (0..50)
            .map(|_| worst_byte(&generate_line(&tight, &pattern, &mut rng)))
            .sum();
        let loose_worst: u32 = (0..50)
            .map(|_| worst_byte(&generate_line(&loose, &pattern, &mut rng)))
            .sum();
        assert!(
            tight_worst > loose_worst,
            "clustered lines must have denser worst bytes ({tight_worst} vs {loose_worst})"
        );
    }

    #[test]
    fn page_pattern_repeats_within_page_and_differs_across() {
        let a1 = PagePattern::for_page(5, 99);
        let a2 = PagePattern::for_page(5, 99);
        let b = PagePattern::for_page(6, 99);
        assert_eq!(a1.hot_bytes, a2.hot_bytes);
        assert_ne!(a1.hot_bytes, b.hot_bytes);
        // Hot bytes stay inside their chip group.
        for (g, h) in a1.hot_bytes.iter().enumerate() {
            assert!((g * 8..(g + 1) * 8).contains(h));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let pattern = PagePattern::for_page(1, 2);
        let s = spec(0.25, 0.5, 0.5);
        let mut r1 = SplitMix64::new(1234);
        let mut r2 = SplitMix64::new(1234);
        for _ in 0..20 {
            assert_eq!(
                generate_line(&s, &pattern, &mut r1),
                generate_line(&s, &pattern, &mut r2)
            );
        }
    }
}
