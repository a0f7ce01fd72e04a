//! Physical address mapping: line addresses → (channel, rank, bank,
//! wordline, mat group, block slot).
//!
//! Under the default [`Interleave::Channel`] policy, consecutive 4 KB pages
//! rotate across channels, then ranks, then banks, then wordlines, then mat
//! groups: sequential traffic spreads over all the parallelism the module
//! offers *and* over the whole wordline range (the location dimension of
//! the timing model), while each page stays whole inside one wordline group
//! (the invariant LADDER's metadata layout relies on). The other
//! [`Interleave`] policies permute the same mixed-radix digits in a
//! different order, trading bank parallelism against wordline spread.

use crate::geometry::{Geometry, LINES_PER_WLG};
use std::fmt;

/// Index of a 64 B memory line (line number, not a byte address).
///
/// # Examples
///
/// ```
/// use ladder_reram::LineAddr;
/// let a = LineAddr::new(1000);
/// assert_eq!(a.page(), 15);
/// assert_eq!(a.block_slot(), 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Wraps a raw line index.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// The 4 KB page this line belongs to.
    pub const fn page(self) -> u64 {
        self.0 / LINES_PER_WLG as u64
    }

    /// The line's slot (0–63) within its wordline group.
    pub const fn block_slot(self) -> usize {
        (self.0 % LINES_PER_WLG as u64) as usize
    }

    /// Raw line index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Byte address of the line's first byte.
    pub const fn byte_address(self) -> u64 {
        self.0 * crate::geometry::LINE_BYTES as u64
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

/// Globally unique wordline-group identifier (equal to the page number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WlgId(pub u64);

impl fmt::Display for WlgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wlg {:#x}", self.0)
    }
}

/// How consecutive pages stripe across the module's physical dimensions.
///
/// Every policy is a permutation of the same mixed-radix page digits
/// (channel, rank, bank, wordline, mat group), so each is a bijection over
/// the address space — they differ only in which dimension rotates fastest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Interleave {
    /// Channels rotate fastest (the legacy/default order): maximum
    /// module-level parallelism for sequential traffic.
    #[default]
    Channel,
    /// Banks rotate fastest, then ranks, then channels: sequential traffic
    /// first exploits bank parallelism inside one channel.
    Bank,
    /// Wordlines rotate fastest: consecutive pages sweep the full wordline
    /// range of one bank (maximum location diversity, minimum
    /// parallelism).
    Page,
}

/// One mixed-radix digit of the page number.
#[derive(Debug, Clone, Copy)]
enum Dim {
    Channel,
    Rank,
    Bank,
    Wordline,
    MatGroup,
}

impl Interleave {
    /// Every policy, in sweep order.
    pub const ALL: [Interleave; 3] = [Interleave::Channel, Interleave::Bank, Interleave::Page];

    /// Display/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Interleave::Channel => "channel",
            Interleave::Bank => "bank",
            Interleave::Page => "page",
        }
    }

    /// Parses a CLI name (`channel`, `bank`, `page`).
    ///
    /// # Errors
    ///
    /// Returns a description listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "channel" => Ok(Interleave::Channel),
            "bank" => Ok(Interleave::Bank),
            "page" => Ok(Interleave::Page),
            _ => Err(format!(
                "unknown interleave {s:?} (expected channel, bank or page)"
            )),
        }
    }

    /// The digit order of this policy, fastest-rotating first, paired with
    /// each digit's radix under `g`.
    fn order(self, g: &Geometry) -> [(Dim, u64); 5] {
        let ch = (Dim::Channel, g.channels as u64);
        let rk = (Dim::Rank, g.ranks_per_channel as u64);
        let bk = (Dim::Bank, g.banks_per_rank as u64);
        let wl = (Dim::Wordline, g.mat_rows as u64);
        let mg = (Dim::MatGroup, g.mat_groups_per_bank() as u64);
        match self {
            Interleave::Channel => [ch, rk, bk, wl, mg],
            Interleave::Bank => [bk, rk, ch, wl, mg],
            Interleave::Page => [wl, mg, bk, rk, ch],
        }
    }
}

impl fmt::Display for Interleave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Interleave {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// A line address decoded into its physical coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decoded {
    /// Memory channel.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank within the rank.
    pub bank: usize,
    /// Mat group within the bank.
    pub mat_group: usize,
    /// Wordline index within the mats (0 = nearest the bitline driver).
    pub wordline: usize,
    /// The line's slot (0–63) within its wordline group.
    pub block_slot: usize,
}

impl Decoded {
    /// A flat bank identifier unique across the module, used to index bank
    /// state arrays in the memory controller.
    pub fn flat_bank(&self, g: &Geometry) -> usize {
        (self.channel * g.ranks_per_channel + self.rank) * g.banks_per_rank + self.bank
    }
}

/// The module's address map.
///
/// # Examples
///
/// ```
/// use ladder_reram::{AddressMap, Geometry, LineAddr};
///
/// let map = AddressMap::new(Geometry::default());
/// let d = map.decode(LineAddr::new(12345));
/// assert_eq!(map.encode(&d), LineAddr::new(12345));
/// ```
#[derive(Debug, Clone)]
pub struct AddressMap {
    geometry: Geometry,
    interleave: Interleave,
    /// The policy's digit order under this geometry, cached so the per-line
    /// hot path never re-derives radixes (which costs a division).
    order: [(Dim, u64); 5],
    /// Cached module capacity in lines (for the decode bounds check).
    lines: u64,
    /// Shift/mask decode plan, present when every radix is a power of two
    /// (true for the default geometry): digit `i` is
    /// `(page >> plan[i].1) & plan[i].2`, replacing the mixed-radix
    /// divide/modulo chain. `None` falls back to the general path.
    pow2: Option<[(Dim, u32, u64); 5]>,
}

impl AddressMap {
    /// Builds the map for a geometry with the default
    /// [`Interleave::Channel`] striping (the paper's order — goldens
    /// depend on it).
    ///
    /// # Panics
    ///
    /// Panics if the geometry violates the structural constraints of
    /// [`Geometry::validate`].
    pub fn new(geometry: Geometry) -> Self {
        Self::with_interleave(geometry, Interleave::Channel)
    }

    /// Builds the map for a geometry under an explicit striping policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry violates the structural constraints of
    /// [`Geometry::validate`].
    pub fn with_interleave(geometry: Geometry, interleave: Interleave) -> Self {
        #[expect(
            clippy::panic,
            reason = "constructor contract: invalid geometry is a configuration bug, documented under # Panics"
        )]
        if let Err(msg) = geometry.validate() {
            panic!("unsupported geometry: {msg}");
        }
        let order = interleave.order(&geometry);
        let mut pow2 = None;
        if order.iter().all(|&(_, radix)| radix.is_power_of_two()) {
            let mut plan = [(Dim::Channel, 0u32, 0u64); 5];
            let mut shift = 0u32;
            for (slot, &(dim, radix)) in plan.iter_mut().zip(&order) {
                *slot = (dim, shift, radix - 1);
                shift += radix.trailing_zeros();
            }
            pow2 = Some(plan);
        }
        Self {
            lines: geometry.lines(),
            geometry,
            interleave,
            order,
            pow2,
        }
    }

    /// The underlying geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The active striping policy.
    pub fn interleave(&self) -> Interleave {
        self.interleave
    }

    /// Decodes a line address into physical coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the module capacity.
    pub fn decode(&self, line: LineAddr) -> Decoded {
        assert!(line.raw() < self.lines, "{line} beyond module capacity");
        let mut p = line.page();
        let (mut channel, mut rank, mut bank, mut wordline, mut mat_group) = (0, 0, 0, 0, 0);
        if let Some(plan) = &self.pow2 {
            for &(dim, shift, mask) in plan {
                let digit = ((p >> shift) & mask) as usize;
                match dim {
                    Dim::Channel => channel = digit,
                    Dim::Rank => rank = digit,
                    Dim::Bank => bank = digit,
                    Dim::Wordline => wordline = digit,
                    Dim::MatGroup => mat_group = digit,
                }
            }
        } else {
            for &(dim, radix) in &self.order {
                let digit = (p % radix) as usize;
                p /= radix;
                match dim {
                    Dim::Channel => channel = digit,
                    Dim::Rank => rank = digit,
                    Dim::Bank => bank = digit,
                    Dim::Wordline => wordline = digit,
                    Dim::MatGroup => mat_group = digit,
                }
            }
            debug_assert_eq!(p, 0);
        }
        Decoded {
            channel,
            rank,
            bank,
            mat_group,
            wordline,
            block_slot: line.block_slot(),
        }
    }

    /// Inverse of [`AddressMap::decode`].
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn encode(&self, d: &Decoded) -> LineAddr {
        let g = &self.geometry;
        assert!(
            d.channel < g.channels
                && d.rank < g.ranks_per_channel
                && d.bank < g.banks_per_rank
                && d.mat_group < g.mat_groups_per_bank()
                && d.wordline < g.mat_rows
                && d.block_slot < LINES_PER_WLG,
            "decoded coordinates out of range"
        );
        let mut p = 0u64;
        for (dim, radix) in self.order.iter().rev() {
            let digit = match dim {
                Dim::Channel => d.channel,
                Dim::Rank => d.rank,
                Dim::Bank => d.bank,
                Dim::Wordline => d.wordline,
                Dim::MatGroup => d.mat_group,
            };
            p = p * radix + digit as u64;
        }
        LineAddr::new(p * LINES_PER_WLG as u64 + d.block_slot as u64)
    }

    /// The wordline group a line belongs to (one WLG per page).
    pub fn wlg_of(&self, line: LineAddr) -> WlgId {
        WlgId(line.page())
    }

    /// All 64 lines sharing a wordline group.
    pub fn lines_of_wlg(&self, wlg: WlgId) -> impl Iterator<Item = LineAddr> {
        let base = wlg.0 * LINES_PER_WLG as u64;
        (0..LINES_PER_WLG as u64).map(move |i| LineAddr::new(base + i))
    }

    /// Location inputs for a timing-table lookup on a write to `line`:
    /// `(wordline index, worst bit column)`.
    pub fn write_location(&self, line: LineAddr) -> (usize, usize) {
        let d = self.decode(line);
        (d.wordline, self.geometry.worst_column_of_slot(d.block_slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The legacy mixed-radix divide/modulo decode, kept as the reference
    /// for the shift/mask fast path (see `DESIGN.md` §15).
    fn decode_reference(map: &AddressMap, line: LineAddr) -> Decoded {
        let mut p = line.page();
        let (mut channel, mut rank, mut bank, mut wordline, mut mat_group) = (0, 0, 0, 0, 0);
        for (dim, radix) in map.interleave.order(map.geometry()) {
            let digit = (p % radix) as usize;
            p /= radix;
            match dim {
                Dim::Channel => channel = digit,
                Dim::Rank => rank = digit,
                Dim::Bank => bank = digit,
                Dim::Wordline => wordline = digit,
                Dim::MatGroup => mat_group = digit,
            }
        }
        Decoded {
            channel,
            rank,
            bank,
            mat_group,
            wordline,
            block_slot: line.block_slot(),
        }
    }

    #[test]
    fn pow2_decode_plan_matches_mixed_radix_reference() {
        for interleave in Interleave::ALL {
            let map = AddressMap::with_interleave(Geometry::default(), interleave);
            assert!(map.pow2.is_some(), "default geometry is all power-of-two");
            let lines = map.geometry().lines();
            let mut x = 0x243f_6a88_85a3_08d3u64;
            for _ in 0..2000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = LineAddr::new(x % lines);
                assert_eq!(map.decode(a), decode_reference(&map, a), "{a}");
            }
        }
    }

    #[test]
    fn non_pow2_geometry_takes_the_general_path() {
        let g = Geometry {
            channels: 3,
            ..Geometry::default()
        };
        let map = AddressMap::new(g);
        assert!(map.pow2.is_none(), "radix 3 cannot use shift/mask decode");
        let lines = map.geometry().lines();
        let mut x = 0x1357_9bdf_0246_8aceu64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = LineAddr::new(x % lines);
            assert_eq!(map.decode(a), decode_reference(&map, a), "{a}");
            assert_eq!(map.encode(&map.decode(a)), a);
        }
    }

    #[test]
    fn decode_encode_roundtrip_samples() {
        let map = AddressMap::new(Geometry::default());
        let lines = map.geometry().lines();
        // Deterministic pseudo-random sample across the whole range.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = LineAddr::new(x % lines);
            assert_eq!(map.encode(&map.decode(a)), a);
        }
    }

    #[test]
    fn consecutive_pages_rotate_channels() {
        let map = AddressMap::new(Geometry::default());
        let a = map.decode(LineAddr::new(0));
        let b = map.decode(LineAddr::new(64));
        assert_ne!(a.channel, b.channel);
    }

    #[test]
    fn lines_of_a_page_share_wlg_and_wordline() {
        let map = AddressMap::new(Geometry::default());
        let wlg = map.wlg_of(LineAddr::new(64 * 777));
        let mut slots = std::collections::HashSet::new();
        let mut wordline = None;
        for line in map.lines_of_wlg(wlg) {
            let d = map.decode(line);
            slots.insert(d.block_slot);
            match wordline {
                None => wordline = Some((d.channel, d.rank, d.bank, d.mat_group, d.wordline)),
                Some(w) => {
                    assert_eq!(w, (d.channel, d.rank, d.bank, d.mat_group, d.wordline));
                }
            }
        }
        assert_eq!(slots.len(), LINES_PER_WLG);
    }

    #[test]
    fn write_location_tracks_slot() {
        let map = AddressMap::new(Geometry::default());
        let (wl0, col0) = map.write_location(LineAddr::new(0));
        let (wl1, col1) = map.write_location(LineAddr::new(63));
        assert_eq!(wl0, wl1, "same page, same wordline");
        assert_eq!(col0, 7);
        assert_eq!(col1, 511);
    }

    #[test]
    fn flat_bank_is_unique_per_bank() {
        let g = Geometry::default();
        let map = AddressMap::new(g.clone());
        let mut seen = std::collections::HashSet::new();
        for page in 0..g.total_banks() as u64 {
            let d = map.decode(LineAddr::new(page * 64));
            seen.insert(d.flat_bank(&g));
        }
        assert_eq!(seen.len(), g.total_banks());
    }

    #[test]
    #[should_panic(expected = "beyond module capacity")]
    fn oob_address_panics() {
        let g = Geometry::default();
        let lines = g.lines();
        let map = AddressMap::new(g);
        let _ = map.decode(LineAddr::new(lines));
    }

    /// A small but fully-featured geometry (every radix > 1) that is cheap
    /// to enumerate exhaustively.
    fn tiny_geometry() -> Geometry {
        Geometry {
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 2,
            mats_per_bank: 16,
            chips: 8,
            mat_rows: 4,
            mat_cols: 64,
        }
    }

    #[test]
    fn default_interleave_matches_legacy_channel_order() {
        // `AddressMap::new` must keep the exact legacy digit order —
        // golden-trace digests depend on it.
        let map = AddressMap::new(Geometry::default());
        assert_eq!(map.interleave(), Interleave::Channel);
        let g = map.geometry().clone();
        let mut x = 0x2545f4914f6cdd1du64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr::new(x % g.lines());
            let mut p = line.page();
            let channel = (p % g.channels as u64) as usize;
            p /= g.channels as u64;
            let rank = (p % g.ranks_per_channel as u64) as usize;
            p /= g.ranks_per_channel as u64;
            let bank = (p % g.banks_per_rank as u64) as usize;
            p /= g.banks_per_rank as u64;
            let wordline = (p % g.mat_rows as u64) as usize;
            p /= g.mat_rows as u64;
            let d = map.decode(line);
            assert_eq!(
                (d.channel, d.rank, d.bank, d.wordline, d.mat_group),
                (channel, rank, bank, wordline, p as usize)
            );
        }
    }

    #[test]
    fn every_interleave_is_a_bijection() {
        // Exhaustive over a tiny module: decode must be injective (hence,
        // with encode as verified inverse, a bijection over the space).
        let g = tiny_geometry();
        assert!(g.validate().is_ok());
        for policy in Interleave::ALL {
            let map = AddressMap::with_interleave(g.clone(), policy);
            let mut seen = std::collections::HashSet::new();
            for raw in 0..g.lines() {
                let a = LineAddr::new(raw);
                let d = map.decode(a);
                assert!(
                    seen.insert((
                        d.channel,
                        d.rank,
                        d.bank,
                        d.mat_group,
                        d.wordline,
                        d.block_slot
                    )),
                    "{policy}: {a} collides"
                );
                assert_eq!(map.encode(&d), a, "{policy}: encode is not the inverse");
            }
            assert_eq!(seen.len() as u64, g.lines());
        }
    }

    #[test]
    fn interleave_policies_rotate_their_fast_dimension() {
        let g = tiny_geometry();
        let page = |map: &AddressMap, p: u64| map.decode(LineAddr::new(p * LINES_PER_WLG as u64));
        let bank_map = AddressMap::with_interleave(g.clone(), Interleave::Bank);
        assert_ne!(page(&bank_map, 0).bank, page(&bank_map, 1).bank);
        assert_eq!(page(&bank_map, 0).channel, page(&bank_map, 1).channel);
        let page_map = AddressMap::with_interleave(g.clone(), Interleave::Page);
        assert_ne!(page(&page_map, 0).wordline, page(&page_map, 1).wordline);
        assert_eq!(page(&page_map, 0).bank, page(&page_map, 1).bank);
        let chan_map = AddressMap::with_interleave(g, Interleave::Channel);
        assert_ne!(page(&chan_map, 0).channel, page(&chan_map, 1).channel);
    }

    #[test]
    fn interleave_names_roundtrip() {
        for p in Interleave::ALL {
            assert_eq!(Interleave::parse(p.name()).unwrap(), p);
            assert_eq!(p.name().parse::<Interleave>().unwrap(), p);
        }
        assert!(Interleave::parse("diagonal").is_err());
        assert_eq!(Interleave::default(), Interleave::Channel);
    }
}
