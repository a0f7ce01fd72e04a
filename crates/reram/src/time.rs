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
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
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
        Picos(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

/// An absolute simulated timestamp in picoseconds since simulation start.
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
    /// Panics (in debug builds) if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: Instant) -> Picos {
        debug_assert!(earlier.0 <= self.0, "duration_since of a later instant");
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
        Instant(self.0 + rhs.as_ps())
    }
}

impl AddAssign<Picos> for Instant {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.as_ps();
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3} ns", self.0 as f64 / 1000.0)
    }
}

/// Which data structure backs an [`EventQueue`].
///
/// Both backends pop events in exactly the same order — ascending
/// `(Instant, sequence)` — so a simulation is bit-identical under either.
/// [`QueueBackend::Calendar`] is the production default;
/// [`QueueBackend::Heap`] is the straightforward binary heap kept as the
/// reference implementation for differential tests and the `hotloop`
/// bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueBackend {
    /// Hierarchical calendar/bucket queue (fast path, default).
    #[default]
    Calendar,
    /// Plain binary min-heap (reference path).
    Heap,
}

/// A deterministic discrete-event queue of `(Instant, K)` entries with
/// stable FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled (each entry carries a monotonically increasing sequence
/// number), so a simulation driven by an `EventQueue` is reproducible
/// bit-for-bit regardless of queue internals. The backing structure is
/// chosen at construction ([`EventQueue::with_backend`]); see
/// [`QueueBackend`].
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
    inner: Inner<K>,
    seq: u64,
}

#[derive(Debug)]
enum Inner<K> {
    Heap(BinaryHeap<Scheduled<K>>),
    Calendar(Calendar<K>),
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
    /// An empty queue on the default (calendar) backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// An empty queue on an explicitly chosen backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        let inner = match backend {
            QueueBackend::Heap => Inner::Heap(BinaryHeap::new()),
            QueueBackend::Calendar => Inner::Calendar(Calendar::new()),
        };
        Self { inner, seq: 0 }
    }

    /// The backend this queue was constructed with.
    pub fn backend(&self) -> QueueBackend {
        match self.inner {
            Inner::Heap(_) => QueueBackend::Heap,
            Inner::Calendar(_) => QueueBackend::Calendar,
        }
    }

    /// Schedules `kind` to fire at `at`.
    pub fn schedule(&mut self, at: Instant, kind: K) {
        let s = Scheduled {
            at,
            seq: self.seq,
            kind,
        };
        match &mut self.inner {
            Inner::Heap(h) => h.push(s),
            Inner::Calendar(c) => c.push(s),
        }
        self.seq += 1;
    }

    /// Removes and returns the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(Instant, K)> {
        let s = match &mut self.inner {
            Inner::Heap(h) => h.pop(),
            Inner::Calendar(c) => c.pop(),
        };
        s.map(|s| (s.at, s.kind))
    }

    /// The instant of the earliest scheduled event.
    pub fn peek_time(&self) -> Option<Instant> {
        match &self.inner {
            Inner::Heap(h) => h.peek().map(|s| s.at),
            Inner::Calendar(c) => c.peek().map(|s| s.at),
        }
    }

    /// Number of events currently scheduled.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(h) => h.len(),
            Inner::Calendar(c) => c.len,
        }
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A hierarchical calendar (bucket) queue: events hash into `buckets.len()`
/// day buckets by `(at >> shift) % buckets.len()`, and a day cursor scans
/// forward from the last popped day. Each bucket is itself a small binary
/// heap (the "hierarchical" part), so a degenerate schedule that lands
/// everything in one bucket gracefully decays to the plain heap instead of
/// to a linked-list scan.
///
/// The bucket count and day width resize deterministically from the live
/// event count and span, so pop/push are O(1) amortized on the kernel's
/// typical schedules while the pop *order* — ascending `(at, seq)` — stays
/// exactly that of the reference heap.
#[derive(Debug)]
struct Calendar<K> {
    buckets: Vec<BinaryHeap<Scheduled<K>>>,
    /// log2 of the day width in picoseconds.
    shift: u32,
    /// Lower bound on the day index of every resident event.
    cur_day: u64,
    len: usize,
}

/// Initial (and minimum) bucket count; always a power of two.
const CAL_MIN_BUCKETS: usize = 16;
/// Maximum bucket count.
const CAL_MAX_BUCKETS: usize = 1 << 15;
/// Initial day width: 2^10 ps ≈ 1 ns.
const CAL_INIT_SHIFT: u32 = 10;
/// Maximum day width: 2^40 ps ≈ 1.1 ms.
const CAL_MAX_SHIFT: u32 = 40;

impl<K> Calendar<K> {
    fn new() -> Self {
        Self {
            buckets: (0..CAL_MIN_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            shift: CAL_INIT_SHIFT,
            cur_day: 0,
            len: 0,
        }
    }

    #[inline]
    fn day_of(&self, at: Instant) -> u64 {
        at.as_ps() >> self.shift
    }

    fn push(&mut self, s: Scheduled<K>) {
        let day = self.day_of(s.at);
        if self.len == 0 || day < self.cur_day {
            self.cur_day = day;
        }
        let mask = self.buckets.len() as u64 - 1;
        self.buckets[(day & mask) as usize].push(s);
        self.len += 1;
        if self.len > self.buckets.len() * 4 && self.buckets.len() < CAL_MAX_BUCKETS {
            self.resize();
        }
    }

    /// Index of the bucket holding the globally earliest event.
    ///
    /// Scans one calendar year (every bucket once) from the day cursor; a
    /// bucket's heap top belongs to the scanned day iff that day is the
    /// earliest populated one, because all resident days are ≥ `cur_day`
    /// and days congruent modulo the bucket count differ by a full year.
    /// If the year is empty (sparse far-future schedule), falls back to a
    /// direct min search over the bucket tops.
    fn find_min_bucket(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let mask = nb - 1;
        for day in self.cur_day..self.cur_day + nb {
            let b = (day & mask) as usize;
            if let Some(top) = self.buckets[b].peek() {
                if self.day_of(top.at) == day {
                    return Some(b);
                }
            }
        }
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, h)| h.peek().map(|top| (b, top)))
            .min_by_key(|&(_, top)| (top.at, top.seq))
            .map(|(b, _)| b)
    }

    fn peek(&self) -> Option<&Scheduled<K>> {
        self.find_min_bucket().and_then(|b| self.buckets[b].peek())
    }

    fn pop(&mut self) -> Option<Scheduled<K>> {
        let b = self.find_min_bucket()?;
        let s = self.buckets[b].pop()?;
        self.cur_day = self.day_of(s.at);
        self.len -= 1;
        if self.buckets.len() > CAL_MIN_BUCKETS && self.len < self.buckets.len() / 4 {
            self.resize();
        }
        Some(s)
    }

    /// Rebuilds the calendar around the current population: bucket count ~
    /// the live event count, day width ~ one event per day over the live
    /// span. Purely a function of resident `(at, seq)` pairs, so resizing
    /// is deterministic.
    fn resize(&mut self) {
        let mut items: Vec<Scheduled<K>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            items.extend(b.drain());
        }
        let nb = items
            .len()
            .next_power_of_two()
            .clamp(CAL_MIN_BUCKETS, CAL_MAX_BUCKETS);
        self.buckets = (0..nb).map(|_| BinaryHeap::new()).collect();
        if items.is_empty() {
            self.shift = CAL_INIT_SHIFT;
            self.cur_day = 0;
            self.len = 0;
            return;
        }
        let (lo, hi) = items.iter().fold((u64::MAX, 0u64), |(lo, hi), s| {
            (lo.min(s.at.as_ps()), hi.max(s.at.as_ps()))
        });
        let width = ((hi - lo) / items.len() as u64).max(1);
        self.shift = (63 - width.leading_zeros()).min(CAL_MAX_SHIFT);
        self.cur_day = lo >> self.shift;
        self.len = items.len();
        let mask = nb as u64 - 1;
        for s in items {
            let day = s.at.as_ps() >> self.shift;
            self.buckets[(day & mask) as usize].push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
