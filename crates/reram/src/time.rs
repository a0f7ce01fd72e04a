//! Integer picosecond time base shared by the whole simulator.
//!
//! All device timings (tCL = 13.75 ns, tBURST = 5 ns, tWR = 29–658 ns, …)
//! are exact multiples of 1 ps, so simulation arithmetic is exact — no
//! floating-point drift across billions of cycles.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time in picoseconds.
///
/// # Overflow
///
/// Growth saturates: `+`, `+=`, `* u64` and [`Sum`] stop at `u64::MAX`
/// ps (about 213 simulated days) instead of wrapping, identically in
/// debug and release builds. No run comes near that bound; a span that
/// reaches it stays pinned at the maximum rather than wrapping to a short
/// one.
///
/// Subtraction is checked, not saturating: `a - b` and `a -= b` with
/// `b > a` are caller bugs and panic in debug and release builds alike,
/// rather than wrapping to a span of about 213 days. Use
/// [`Picos::saturating_sub`] where an underflow is expected.
///
/// # Examples
///
/// ```
/// use ladder_reram::Picos;
///
/// let t_cl = Picos::from_ns(13.75);
/// assert_eq!(t_cl.as_ps(), 13_750);
/// assert_eq!((t_cl + t_cl).as_ns(), 27.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(u64);

impl Picos {
    /// Zero-length span.
    pub const ZERO: Picos = Picos(0);

    /// Creates a span of `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Picos(ps)
    }

    /// Creates a span from nanoseconds, rounding up to whole picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "duration must be non-negative");
        Picos((ns * 1000.0).ceil() as u64)
    }

    /// The span in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The span in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        *self = *self + rhs;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        assert!(rhs.0 <= self.0, "Picos subtraction underflows");
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

/// An absolute simulated timestamp in picoseconds since simulation start.
///
/// # Overflow
///
/// `Instant + Picos` and `+=` saturate at `u64::MAX` ps, in debug and
/// release builds alike, following the [`Picos`] policy: an event
/// scheduled past the end of time lands at the last instant instead of
/// wrapping to an early one, which would reorder the event queue.
/// [`Instant::duration_since`] panics, in every build profile, when
/// given an instant later than `self`, like [`Picos`] subtraction.
///
/// # Examples
///
/// ```
/// use ladder_reram::{Instant, Picos};
///
/// let t0 = Instant::ZERO;
/// let t1 = t0 + Picos::from_ns(5.0);
/// assert_eq!(t1.duration_since(t0), Picos::from_ns(5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// Simulation start.
    pub const ZERO: Instant = Instant(0);

    /// Creates an instant at `ps` picoseconds after start.
    pub const fn from_ps(ps: u64) -> Self {
        Instant(ps)
    }

    /// Picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Elapsed span since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`, in debug and release
    /// builds alike.
    pub fn duration_since(self, earlier: Instant) -> Picos {
        assert!(earlier.0 <= self.0, "duration_since of a later instant");
        Picos(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: Instant) -> Instant {
        Instant(self.0.max(other.0))
    }
}

impl Add<Picos> for Instant {
    type Output = Instant;
    fn add(self, rhs: Picos) -> Instant {
        Instant(self.0.saturating_add(rhs.as_ps()))
    }
}

impl AddAssign<Picos> for Instant {
    fn add_assign(&mut self, rhs: Picos) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3} ns", self.0 as f64 / 1000.0)
    }
}

/// Which queue backs an [`EventQueue`]: the binary heap is the only one.
///
/// Kept only so that perfbench's queue replay compiles; the next benchmark change deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueBackend {
    /// Plain binary min-heap.
    #[default]
    Heap,
}

/// A deterministic discrete-event queue of `(Instant, K)` entries with
/// stable FIFO tie-breaking, backed by a binary min-heap.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled (each entry carries a monotonically increasing sequence
/// number), so a simulation driven by an `EventQueue` is reproducible
/// bit-for-bit.
///
/// # Examples
///
/// ```
/// use ladder_reram::{EventQueue, Instant};
///
/// let mut q = EventQueue::new();
/// q.schedule(Instant::from_ps(20), "late");
/// q.schedule(Instant::from_ps(10), "first");
/// q.schedule(Instant::from_ps(10), "second");
/// assert_eq!(q.pop(), Some((Instant::from_ps(10), "first")));
/// assert_eq!(q.pop(), Some((Instant::from_ps(10), "second")));
/// assert_eq!(q.pop(), Some((Instant::from_ps(20), "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Scheduled<K>>,
    seq: u64,
}

#[derive(Debug)]
struct Scheduled<K> {
    at: Instant,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for Scheduled<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<K> Eq for Scheduled<K> {}

impl<K> Ord for Scheduled<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on both keys: BinaryHeap is a max-heap, we want the
        // earliest instant first and, within an instant, the lowest
        // sequence number (FIFO).
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl<K> PartialOrd for Scheduled<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> EventQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Same as [`EventQueue::new`].
    ///
    /// Kept only so that perfbench's queue replay compiles; the next benchmark change deletes it.
    pub fn with_backend(_backend: QueueBackend) -> Self {
        Self::new()
    }

    /// Schedules `kind` to fire at `at`.
    pub fn schedule(&mut self, at: Instant, kind: K) {
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(Instant, K)> {
        self.heap.pop().map(|s| (s.at, s.kind))
    }

    /// The instant of the earliest scheduled event.
    pub fn peek_time(&self) -> Option<Instant> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of events currently scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ns_conversion_rounds_up() {
        assert_eq!(Picos::from_ns(13.75).as_ps(), 13_750);
        assert_eq!(Picos::from_ns(0.0001).as_ps(), 1);
        assert_eq!(Picos::from_ns(0.0).as_ps(), 0);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Picos::from_ps(100);
        let b = Picos::from_ps(40);
        assert_eq!((a + b).as_ps(), 140);
        assert_eq!((a - b).as_ps(), 60);
        assert_eq!((a * 3).as_ps(), 300);
        assert_eq!((a / 4).as_ps(), 25);
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
    }

    #[test]
    fn instants_order_and_advance() {
        let mut t = Instant::ZERO;
        t += Picos::from_ps(10);
        let later = t + Picos::from_ps(5);
        assert!(later > t);
        assert_eq!(later.duration_since(t).as_ps(), 5);
        assert_eq!(t.max(later), later);
    }

    #[test]
    fn sum_of_durations() {
        let total: Picos = (1..=4).map(Picos::from_ps).sum();
        assert_eq!(total.as_ps(), 10);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = Picos::from_ns(-1.0);
    }

    #[test]
    #[should_panic(expected = "subtraction underflows")]
    fn picos_subtraction_underflow_panics_in_every_profile() {
        let _ = Picos::from_ps(1) - Picos::from_ps(2);
    }

    #[test]
    #[should_panic(expected = "subtraction underflows")]
    fn picos_sub_assign_underflow_panics_in_every_profile() {
        let mut p = Picos::ZERO;
        p -= Picos::from_ps(1);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_a_later_instant_panics_in_every_profile() {
        let _ = Instant::from_ps(5).duration_since(Instant::from_ps(6));
    }

    #[test]
    fn additive_growth_saturates_at_the_end_of_time() {
        let max = Picos::from_ps(u64::MAX);
        let one = Picos::from_ps(1);
        assert_eq!(max + one, max);
        let mut p = max;
        p += Picos::from_ps(7);
        assert_eq!(p, max);
        assert_eq!(Picos::from_ps(u64::MAX / 2 + 1) * 2, max);
        let total: Picos = [max, one, one].into_iter().sum();
        assert_eq!(total, max);
        let end = Instant::from_ps(u64::MAX);
        assert_eq!(end + one, end);
        let mut t = Instant::from_ps(u64::MAX - 1);
        t += Picos::from_ps(5);
        assert_eq!(t, end);
        // Below the bound the arithmetic is exact.
        assert_eq!((max - one) + one, max);
        assert_eq!(Instant::from_ps(u64::MAX - 3) + Picos::from_ps(3), end);
    }

    #[test]
    fn event_queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_ps(300), 'c');
        q.schedule(Instant::from_ps(100), 'a');
        q.schedule(Instant::from_ps(200), 'b');
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Instant::from_ps(100)));
        assert_eq!(q.pop(), Some((Instant::from_ps(100), 'a')));
        assert_eq!(q.pop(), Some((Instant::from_ps(200), 'b')));
        assert_eq!(q.pop(), Some((Instant::from_ps(300), 'c')));
        assert!(q.is_empty());
    }

    #[test]
    fn event_queue_breaks_ties_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_ps(50);
        // Interleave with another instant so heap sift ordering gets a
        // chance to scramble equal-time entries if the tie-break were
        // missing.
        for i in 0..16u32 {
            q.schedule(t, i);
            q.schedule(Instant::from_ps(40), 1000 + i);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        let at_40: Vec<u32> = popped
            .iter()
            .filter(|(at, _)| *at == Instant::from_ps(40))
            .map(|&(_, k)| k)
            .collect();
        let at_50: Vec<u32> = popped
            .iter()
            .filter(|(at, _)| *at == t)
            .map(|&(_, k)| k)
            .collect();
        assert_eq!(at_40, (1000..1016).collect::<Vec<_>>());
        assert_eq!(at_50, (0..16).collect::<Vec<_>>());
        // All t=40 events come before any t=50 event.
        assert!(popped[..16]
            .iter()
            .all(|(at, _)| *at == Instant::from_ps(40)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn event_queue_is_fifo_at_equal_times(
            n in 1usize..64,
            at in 0u64..1_000_000,
        ) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(Instant::from_ps(at), i);
            }
            for i in 0..n {
                prop_assert_eq!(q.pop(), Some((Instant::from_ps(at), i)));
            }
        }
    }
}
