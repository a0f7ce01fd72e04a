//! SWAR bit-counting kernels shared by every hot path that inspects line
//! contents.
//!
//! LADDER's per-write work is dominated by popcounts over 64 B lines: LRS
//! deltas for the counters, Flip-N-Write flip decisions, worst-byte partial
//! counters and the intra-line shift. These kernels process lines in u64
//! chunks — eight bytes per operation instead of one — using SIMD-within-a-
//! register (SWAR) arithmetic, and accept arbitrary slices so callers with
//! unaligned tails (metadata fragments, sub-line regions) get the same
//! answers.
//!
//! Every kernel has a byte-wise twin in [`reference`](mod@reference) with
//! the obvious one-byte-at-a-time implementation. The fast path is only
//! trusted because property tests (`tests/hotloop_equivalence.rs`) prove
//! the two agree on arbitrary inputs; see `DESIGN.md` §15 for the
//! discipline.

/// The least-significant bit of every byte lane of a u64.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;

/// Bytes per SWAR chunk.
const CHUNK: usize = 8;

/// Loads the 8-byte little-endian word starting at `base`.
///
/// # Panics
///
/// Panics if `bytes[base..base + 8]` is out of bounds.
#[inline]
pub fn le_word(bytes: &[u8], base: usize) -> u64 {
    let mut w = [0u8; CHUNK];
    w.copy_from_slice(&bytes[base..base + CHUNK]);
    u64::from_le_bytes(w)
}

/// Stores `word` as 8 little-endian bytes starting at `base`.
///
/// # Panics
///
/// Panics if `bytes[base..base + 8]` is out of bounds.
#[inline]
pub fn write_le_word(bytes: &mut [u8], base: usize, word: u64) {
    bytes[base..base + CHUNK].copy_from_slice(&word.to_le_bytes());
}

/// Per-byte popcounts of a u64, one count per byte lane (each lane ≤ 8).
///
/// The classic SWAR reduction: pairwise, then nibble-wise sums that never
/// overflow their lane.
#[inline]
pub fn lane_ones(x: u64) -> u64 {
    let x = x - ((x >> 1) & 0x5555_5555_5555_5555);
    let x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    (x.wrapping_add(x >> 4)) & 0x0f0f_0f0f_0f0f_0f0f
}

/// Number of `1` bits in a byte slice, eight bytes per step.
pub fn ones(bytes: &[u8]) -> u32 {
    let mut total = 0u32;
    let mut chunks = bytes.chunks_exact(CHUNK);
    for c in chunks.by_ref() {
        total += le_word(c, 0).count_ones();
    }
    for &b in chunks.remainder() {
        total += b.count_ones();
    }
    total
}

/// Hamming distance between two equal-length byte slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_ones(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len(), "xor_ones length mismatch");
    let mut total = 0u32;
    let mut ac = a.chunks_exact(CHUNK);
    let mut bc = b.chunks_exact(CHUNK);
    for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
        total += (le_word(ca, 0) ^ le_word(cb, 0)).count_ones();
    }
    for (&xa, &xb) in ac.remainder().iter().zip(bc.remainder()) {
        total += (xa ^ xb).count_ones();
    }
    total
}

/// `(sets, resets)` between an old and a new image: bits going `0 → 1` and
/// bits going `1 → 0`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn delta_ones(new: &[u8], old: &[u8]) -> (u32, u32) {
    assert_eq!(new.len(), old.len(), "delta_ones length mismatch");
    let mut set = 0u32;
    let mut reset = 0u32;
    let mut nc = new.chunks_exact(CHUNK);
    let mut oc = old.chunks_exact(CHUNK);
    for (cn, co) in nc.by_ref().zip(oc.by_ref()) {
        let n = le_word(cn, 0);
        let o = le_word(co, 0);
        set += (n & !o).count_ones();
        reset += (!n & o).count_ones();
    }
    for (&bn, &bo) in nc.remainder().iter().zip(oc.remainder()) {
        set += (bn & !bo).count_ones();
        reset += (!bn & bo).count_ones();
    }
    (set, reset)
}

/// Popcount of the densest byte in the slice (0 for an empty slice).
///
/// Accumulates a *lanewise* running maximum across whole words with
/// branchless SWAR selection (valid because every lane holds a popcount
/// ≤ 8, far below the 7-bit limit of the compare trick), deferring the
/// horizontal max to a single pass at the end.
pub fn worst_byte_ones(bytes: &[u8]) -> u32 {
    const LANE_MSB: u64 = 0x8080_8080_8080_8080;
    let mut worst_lanes = 0u64;
    let mut chunks = bytes.chunks_exact(CHUNK);
    for c in chunks.by_ref() {
        let lanes = lane_ones(le_word(c, 0));
        // Per-lane `lanes >= worst_lanes` mask: borrow-free 7-bit compare.
        let ge = (((lanes | LANE_MSB) - worst_lanes) & LANE_MSB) >> 7;
        let mask = ge * 0xff;
        worst_lanes = (lanes & mask) | (worst_lanes & !mask);
    }
    let mut worst = 0u32;
    for lane in worst_lanes.to_le_bytes() {
        worst = worst.max(lane as u32);
    }
    for &b in chunks.remainder() {
        worst = worst.max(b.count_ones());
    }
    worst
}

/// Applies the intra-line shift to one 8-byte chip group held as a
/// little-endian u64: bit `j` of byte `k` moves to byte
/// `(k + j + offset) mod 8`, keeping its bit position.
///
/// Each of the 8 bit planes is a `LANE_LSB << j` mask; moving a plane by
/// `s` bytes with wraparound is a rotate by `8·s` bits.
///
/// # Panics
///
/// Debug-asserts `offset < 8`.
#[inline]
pub fn shift_group(group: u64, offset: usize) -> u64 {
    debug_assert!(offset < 8, "shift offset out of range");
    let mut out = 0u64;
    for j in 0..8 {
        let plane = group & (LANE_LSB << j);
        out |= plane.rotate_left((((j + offset) % 8) * 8) as u32);
    }
    out
}

/// Reverses [`shift_group`].
///
/// # Panics
///
/// Debug-asserts `offset < 8`.
#[inline]
pub fn unshift_group(group: u64, offset: usize) -> u64 {
    debug_assert!(offset < 8, "shift offset out of range");
    let mut out = 0u64;
    for j in 0..8 {
        let plane = group & (LANE_LSB << j);
        out |= plane.rotate_right((((j + offset) % 8) * 8) as u32);
    }
    out
}

/// Byte-at-a-time reference implementations of every kernel above.
///
/// These are the *definitions* the SWAR paths must match; they stay in the
/// build (not just in tests) so property tests and the `hotloop` bench can
/// compare against them at any time.
pub mod reference {
    /// Popcount, one byte at a time.
    pub fn ones(bytes: &[u8]) -> u32 {
        bytes.iter().map(|b| b.count_ones()).sum()
    }

    /// Hamming distance, one byte at a time.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn xor_ones(a: &[u8], b: &[u8]) -> u32 {
        assert_eq!(a.len(), b.len(), "xor_ones length mismatch");
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    /// `(sets, resets)`, one byte at a time.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn delta_ones(new: &[u8], old: &[u8]) -> (u32, u32) {
        assert_eq!(new.len(), old.len(), "delta_ones length mismatch");
        let mut set = 0u32;
        let mut reset = 0u32;
        for (n, o) in new.iter().zip(old) {
            set += (n & !o).count_ones();
            reset += (!n & o).count_ones();
        }
        (set, reset)
    }

    /// Worst-byte popcount, one byte at a time.
    pub fn worst_byte_ones(bytes: &[u8]) -> u32 {
        bytes.iter().map(|b| b.count_ones()).max().unwrap_or(0)
    }

    /// Intra-line shift of one chip group, one bit at a time.
    pub fn shift_group(group: u64, offset: usize) -> u64 {
        let bytes = group.to_le_bytes();
        let mut out = [0u8; 8];
        for (k, &b) in bytes.iter().enumerate() {
            for j in 0..8 {
                if (b >> j) & 1 == 1 {
                    out[(k + j + offset) % 8] |= 1 << j;
                }
            }
        }
        u64::from_le_bytes(out)
    }

    /// Inverse intra-line shift of one chip group, one bit at a time.
    pub fn unshift_group(group: u64, offset: usize) -> u64 {
        let bytes = group.to_le_bytes();
        let mut out = [0u8; 8];
        for (k, &b) in bytes.iter().enumerate() {
            for j in 0..8 {
                if (b >> j) & 1 == 1 {
                    out[(k + 8 - (j + offset) % 8) % 8] |= 1 << j;
                }
            }
        }
        u64::from_le_bytes(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn rand_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len).map(|_| (splitmix(&mut s) >> 24) as u8).collect()
    }

    #[test]
    fn lane_ones_counts_every_byte_value() {
        for b in 0..=u8::MAX {
            let lanes = lane_ones(u64::from_le_bytes([b; 8])).to_le_bytes();
            for lane in lanes {
                assert_eq!(lane as u32, b.count_ones());
            }
        }
    }

    #[test]
    fn kernels_match_reference_on_all_lengths() {
        // Every length 0..=96 exercises both the chunked body and every
        // possible unaligned tail.
        for len in 0..=96 {
            let a = rand_bytes(len as u64 + 1, len);
            let b = rand_bytes(len as u64 + 1000, len);
            assert_eq!(ones(&a), reference::ones(&a), "ones len {len}");
            assert_eq!(xor_ones(&a, &b), reference::xor_ones(&a, &b));
            assert_eq!(delta_ones(&a, &b), reference::delta_ones(&a, &b));
            assert_eq!(worst_byte_ones(&a), reference::worst_byte_ones(&a));
        }
    }

    #[test]
    fn shift_group_matches_reference_and_inverts() {
        let mut s = 42u64;
        for _ in 0..200 {
            let g = splitmix(&mut s);
            for offset in 0..8 {
                let fast = shift_group(g, offset);
                assert_eq!(fast, reference::shift_group(g, offset));
                assert_eq!(unshift_group(fast, offset), g);
                assert_eq!(
                    unshift_group(g, offset),
                    reference::unshift_group(g, offset)
                );
            }
        }
    }

    #[test]
    fn word_round_trip() {
        let mut buf = [0u8; 16];
        write_le_word(&mut buf, 3, 0x0102_0304_0506_0708);
        assert_eq!(le_word(&buf, 3), 0x0102_0304_0506_0708);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(ones(&[]), 0);
        assert_eq!(worst_byte_ones(&[]), 0);
        assert_eq!(xor_ones(&[], &[]), 0);
        assert_eq!(delta_ones(&[], &[]), (0, 0));
    }
}
