//! Pluggable event schedulers: a calendar queue and the classic binary
//! heap it is checked against.
//!
//! The engine orders every event by `(SimTime, EventKey)` — time first,
//! then the canonical per-event key of [`EventKey`], which depends only
//! on its emitter's own history and so orders events the same way in one
//! global queue as in per-region queues merged at window barriers. Two
//! schedulers with the same dequeue order drive byte-identical runs, so
//! the heap stays as the oracle the equivalence suite diffs against.
//!
//! # The calendar queue
//!
//! [`SchedulerKind::Wheel`] (DESIGN.md §14.2) keys events into *days*,
//! `day = (time * inv_width) as u64`. Multiplying by a positive constant
//! and truncating are both monotone, so `day(a) < day(b)` implies
//! `a < b` and equal times share a day: splitting entries by day can
//! never reorder them. Three tiers hold the pending entries:
//!
//! * **the open day** — every entry with `day <= cur_day`, in two parts:
//!   `today`, the day as it stood when it opened, sorted once and popped
//!   from the end of a `Vec`; and `late`, a `(time, key)` min-heap of
//!   whatever was inserted for a day already open. The earlier of their
//!   two heads is the global minimum, and every operation leaves one of
//!   them non-empty whenever the queue is, which keeps
//!   [`EventQueue::peek`] `&self` and O(1). No entry is ever inserted
//!   into sorted order: a same-instant burst (a cold start arms 100k+
//!   timers for one instant) lands in `late`, so the worst case stays
//!   the oracle's O(log n), and sorting a day of `d` entries costs what
//!   its `d` heap pops would.
//! * **near buckets** — entries with `cur_day < day < end_day` append
//!   unsorted to `buckets[day % n]`; the window is fixed between
//!   rotations, so a bucket holds one day. An occupancy bitmap finds the
//!   next populated day, whose buffer becomes `today` and is sorted.
//! * **far pile** — entries with `day >= end_day` (hold timers, flow
//!   RTOs) append to one unsorted vector; only its minimum is tracked.
//!
//! When the open day and the near tier are both empty the window *rotates*:
//! it restarts at the far minimum's day and one pass spreads every far
//! entry it now covers. That pass scans the whole pile, so the pops since
//! the previous rotation plus the entries this one captures must reach a
//! fixed share of the pile, or the days are doubled until they do. The
//! bucket count follows half the peak population since the last one.
//!
//! The day width follows the event density at the head: every *epoch* of
//! `max(MIN_EPOCH, 2 * len)` pops, if the simulated time that passed per
//! pop no longer puts between half and twice `PER_DAY` pops in a day,
//! every entry is tipped into the far pile and spread again under the
//! width that does — O(len) once per `2 * len` pops, O(1) per pop. A
//! width that stops fitting in mid-epoch costs speed, never order. There
//! is no cancellation: engine timers carry a generation, and a stale one
//! is dropped when it fires.

use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// Which data structure orders the engine's event queue.
///
/// Both produce the exact `(time, key)` dequeue order, so the choice can
/// never affect a trajectory — only throughput. The wheel is the default;
/// the heap is kept as the determinism oracle, and as the `O(log n)`
/// baseline its comparison count per hold is read against (DESIGN.md §8.6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Calendar queue: O(1) amortized enqueue and dequeue.
    #[default]
    Wheel,
    /// The classic global binary heap: O(log n) per operation.
    Heap,
}

/// The canonical tie-breaking key of one event: the raw id of the node
/// whose handler emitted it (`u32::MAX` for driver-side emissions) and
/// that emitter's private counter value at emission.
///
/// Keys are globally unique — two events can share `src` only with
/// distinct `k` — so `(time, key)` is a total order. Because a key
/// depends only on its emitter's local history, the order is invariant
/// under region partitioning: per-region queues merged at a barrier
/// produce exactly the sequence a single global queue would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Raw id of the emitting node, or `u32::MAX` for the driver.
    pub src: u32,
    /// The emitter's counter value (even = control lane, odd = traffic
    /// lane; the engine keeps separate counters so a traffic plane can
    /// be added without perturbing control-plane tie order).
    pub k: u64,
}

impl EventKey {
    /// The emitter id the engine uses for driver-side scheduling
    /// (external workload injections, test harness pushes).
    pub const DRIVER: u32 = u32::MAX;

    /// A key for a driver-side emission.
    #[must_use]
    pub fn driver(k: u64) -> Self {
        EventKey {
            src: Self::DRIVER,
            k,
        }
    }
}

/// A queued entry, ordered by `(time, key)` *reversed* for std's max-heap.
struct Entry<T> {
    time: SimTime,
    key: EventKey,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        #[cfg(test)]
        COMPARISONS.with(|c| c.set(c.get() + 1));
        (other.time, other.key).cmp(&(self.time, self.key))
    }
}

#[cfg(test)]
thread_local! {
    /// `(time, key)` comparisons made on this thread, by either backend.
    static COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bounds on the bucket count (a power of two).
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 16;
/// Starting day width in simulated seconds, and the bounds on widths.
const INITIAL_WIDTH: f64 = 0.5;
const MIN_WIDTH: f64 = 1e-9;
const MAX_WIDTH: f64 = 1e12;
/// Day numbers saturate here (`+∞` too), leaving room to add a window.
const LAST_DAY: u64 = u64::MAX - 2 * MAX_BUCKETS as u64;
/// Capacity a drained bucket keeps; a burst day's growth is given back.
const KEEP: usize = 8;
/// Pops per day the width rule aims for, within a factor of two.
const PER_DAY: f64 = 3.0;
/// Fewest pops between two density checks.
const MIN_EPOCH: u64 = 4096;
/// A rotation's scan of `f` far entries takes `f / PAID` pops or captures.
const PAID: usize = 4;

/// The calendar queue's tiers (see the module docs).
struct Calendar<T> {
    /// The open day, sorted descending by `(time, key)` — ascending in
    /// `Entry`'s reversed order — so its minimum is the last element. Keys
    /// are unique, so the unstable sort is deterministic.
    today: Vec<Entry<T>>,
    /// Entries inserted once their day was open (`day <= cur_day`).
    late: BinaryHeap<Entry<T>>,
    /// Bucket `b`: the one day in `(cur_day, end_day)` congruent to `b`.
    buckets: Vec<Vec<Entry<T>>>,
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: Vec<u64>,
    /// Total entries across `buckets`.
    near_len: usize,
    /// Entries with `day >= end_day`, unsorted.
    far: Vec<Entry<T>>,
    /// Earliest time in `far` (`+∞` when empty).
    far_min: SimTime,
    /// Reciprocal of the day width in simulated seconds.
    inv_width: f64,
    /// The cursor: `today` and `late` cover every day up to and including this.
    cur_day: u64,
    /// Exclusive horizon of the near tier, fixed between rotations.
    end_day: u64,
    /// Pops ever made, and their number at the last rotation.
    pops: u64,
    year_start: u64,
    /// The density epoch: (`pops`, popped time) at its start, `pops` at its end.
    epoch: (u64, f64),
    epoch_end: u64,
    /// Largest population seen since the last rotation.
    peak_len: usize,
    /// Entries scanned or moved by rotations and retunes.
    #[cfg(test)]
    touched: u64,
}

impl<T> Calendar<T> {
    fn new() -> Self {
        Calendar {
            today: Vec::new(),
            late: BinaryHeap::new(),
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: vec![0; MIN_BUCKETS / 64],
            near_len: 0,
            far: Vec::new(),
            far_min: SimTime::new(f64::INFINITY),
            inv_width: 1.0 / INITIAL_WIDTH,
            cur_day: 0,
            end_day: MIN_BUCKETS as u64 + 1,
            pops: 0,
            year_start: 0,
            epoch: (0, 0.0),
            epoch_end: MIN_EPOCH,
            peak_len: 0,
            #[cfg(test)]
            touched: 0,
        }
    }

    /// The day of `t`, monotone in `t` (the cast saturates).
    fn day(&self, t: SimTime) -> u64 {
        ((t.seconds() * self.inv_width) as u64).min(LAST_DAY)
    }

    fn len(&self) -> usize {
        self.today.len() + self.late.len() + self.near_len + self.far.len()
    }

    /// The earliest pending entry: the earlier of the open tiers' heads
    /// (`Entry` orders reversed, and `None` loses to any entry).
    fn head(&self) -> Option<&Entry<T>> {
        self.today.last().max(self.late.peek())
    }

    /// Counts towards `touched`; nothing outside tests.
    fn touch(&mut self, _entries: usize) {
        #[cfg(test)]
        {
            self.touched += _entries as u64;
        }
    }

    /// Restarts the window so that `cur_day` is the day of `first`.
    fn open_window(&mut self, first: SimTime) {
        self.cur_day = self.day(first);
        self.end_day = self.cur_day + self.buckets.len() as u64 + 1;
    }

    /// Inserts into whichever tier owns the entry's day.
    fn insert(&mut self, e: Entry<T>) {
        if self.today.is_empty() && self.late.is_empty() {
            self.open_window(e.time); // the queue is empty
        }
        let day = self.day(e.time);
        if day <= self.cur_day {
            self.late.push(e);
        } else if day < self.end_day {
            self.push_near(day, e);
        } else {
            self.far_min = self.far_min.min(e.time);
            self.far.push(e);
        }
    }

    fn push_near(&mut self, day: u64, e: Entry<T>) {
        let b = day as usize & (self.buckets.len() - 1);
        self.buckets[b].push(e);
        self.occupied[b / 64] |= 1 << (b % 64);
        self.near_len += 1;
    }

    /// Pops the minimum if admitted, from whichever open tier holds it;
    /// opens the next day once both are empty, checks the epoch.
    fn pop_if(&mut self, admit: impl FnOnce((SimTime, EventKey)) -> bool) -> Option<Entry<T>> {
        let late = self.late.peek();
        let from_late = late > self.today.last();
        let head = if from_late { late } else { self.today.last() }?;
        if !admit((head.time, head.key)) {
            return None;
        }
        let e = if from_late {
            self.late.pop()
        } else {
            self.today.pop()
        };
        let e = e.expect("the head was just seen");
        self.pops += 1;
        if self.today.is_empty() && self.late.is_empty() {
            self.advance();
        }
        if self.pops >= self.epoch_end {
            self.retune(e.time.seconds());
        }
        Some(e)
    }

    /// Opens the next populated day once `today` and `late` are empty, or
    /// rotates (which only parks the window if the far pile is empty).
    #[inline(never)]
    fn advance(&mut self) {
        self.peak_len = self.peak_len.max(self.near_len + self.far.len());
        if self.near_len == 0 {
            return self.rotate();
        }
        let mask = self.buckets.len() - 1;
        let start = (self.cur_day as usize + 1) & mask;
        // One lap over the bitmap from the cursor's bit, ending on the
        // start word again for the days that wrapped below that bit; the
        // near tier is not empty, so some bit is set.
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0 << (start % 64));
        while bits == 0 {
            w = (w + 1) & (self.occupied.len() - 1);
            bits = self.occupied[w];
        }
        let b = w * 64 + bits.trailing_zeros() as usize;
        self.occupied[w] &= bits - 1;
        self.cur_day += 1 + (b.wrapping_sub(start) & mask) as u64;
        // `today` is empty: trade buffers with the bucket and sort the day.
        std::mem::swap(&mut self.today, &mut self.buckets[b]);
        if self.buckets[b].capacity() > KEEP {
            self.buckets[b].shrink_to(KEEP);
        }
        self.near_len -= self.today.len();
        self.today.sort_unstable();
    }

    /// Rotation (every tier but the far pile is empty): widens the days
    /// until the scan is paid for, then spreads the pile.
    #[cold]
    fn rotate(&mut self) {
        let paid = (self.pops - self.year_start) as usize;
        if PAID * paid < self.far.len() {
            // `levels[j]`: far entries that `j` doublings bring into the
            // window. Entries on `LAST_DAY` are out of any window's reach.
            self.open_window(self.far_min);
            let year = self.end_day - self.cur_day;
            let mut levels = [0usize; 65];
            for e in &self.far {
                let day = self.day(e.time);
                if day < LAST_DAY {
                    let years = (day - self.cur_day) / year;
                    levels[(u64::BITS - years.leading_zeros()) as usize] += 1;
                }
            }
            self.touch(self.far.len());
            let reachable: usize = levels.iter().sum();
            let mut captured = 0;
            let doublings = levels.iter().position(|&at_level| {
                captured += at_level;
                PAID * (paid + captured) >= reachable
            });
            let doublings = doublings.expect("the last level reaches every entry");
            let wider = self.inv_width * 0.5f64.powi(doublings as i32);
            self.inv_width = wider.max(1.0 / MAX_WIDTH);
        }
        self.spread();
    }

    /// Restarts the window at the far minimum's day and moves every far
    /// entry it covers into `today` or its bucket, sorting `today` (every
    /// tier but the far pile is empty on entry). First, the bucket
    /// count follows half the peak population (down only once far off);
    /// at `PER_DAY` entries a day that fits the population 1.5 times.
    fn spread(&mut self) {
        let half = self.peak_len.max(self.far.len()) / 2;
        let target = half.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        if target > self.buckets.len() || target * 16 <= self.buckets.len() {
            self.buckets.resize_with(target, Vec::new);
            self.buckets.shrink_to_fit();
            self.occupied.resize(target / 64, 0);
        }
        self.peak_len = self.far.len();
        self.year_start = self.pops;
        self.open_window(self.far_min);
        self.touch(self.far.len());
        let mut far = std::mem::take(&mut self.far);
        self.far_min = SimTime::new(f64::INFINITY);
        let mut i = 0;
        while i < far.len() {
            let day = self.day(far[i].time);
            if day >= self.end_day {
                self.far_min = self.far_min.min(far[i].time);
                i += 1;
            } else if day == self.cur_day {
                self.today.push(far.swap_remove(i));
            } else {
                self.push_near(day, far.swap_remove(i));
            }
        }
        self.far = far;
        self.today.sort_unstable();
    }

    /// The density check at an epoch's end, `now` being the time just
    /// popped: re-buckets every entry if the day width no longer fits.
    #[cold]
    fn retune(&mut self, now: f64) {
        let gap = (now - self.epoch.1) / (self.pops - self.epoch.0) as f64;
        self.epoch = (self.pops, now);
        self.epoch_end = self.pops + MIN_EPOCH.max(2 * self.len() as u64);
        // Wanted width over actual width. No time passed (a same-instant
        // burst) or an infinite jump says nothing about density.
        let ratio = PER_DAY * gap * self.inv_width;
        let informed = gap > 0.0 && gap.is_finite() && !(0.5..=2.0).contains(&ratio);
        let Some(head) = self.head().filter(|_| informed) else {
            return;
        };
        self.far_min = head.time;
        self.far.append(&mut self.today);
        self.far.extend(self.late.drain());
        for bucket in &mut self.buckets {
            self.far.append(bucket);
        }
        self.occupied.fill(0);
        self.near_len = 0;
        self.touch(self.far.len());
        self.inv_width = 1.0 / (PER_DAY * gap).clamp(MIN_WIDTH, MAX_WIDTH);
        self.spread();
    }
}

/// Pops the top of `heap` if `admit` accepts its `(time, key)`.
fn pop_head<T>(
    heap: &mut BinaryHeap<Entry<T>>,
    admit: impl FnOnce((SimTime, EventKey)) -> bool,
) -> Option<Entry<T>> {
    let head = heap.peek()?;
    admit((head.time, head.key)).then(|| heap.pop())?
}

enum Inner<T> {
    Heap(BinaryHeap<Entry<T>>),
    Wheel(Calendar<T>),
}

/// The engine's event queue: a `(time, key)`-ordered priority queue with
/// a pluggable backend (see [`SchedulerKind`] and the module docs).
///
/// The caller supplies each entry's [`EventKey`]; dequeue order is exactly
/// ascending `(time, key)` for both backends. Keys must be unique among
/// pending entries (the engine's per-emitter counters guarantee this).
pub struct EventQueue<T> {
    inner: Inner<T>,
}

impl<T> fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("kind", &self.kind())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue on the chosen backend.
    pub fn new(kind: SchedulerKind) -> Self {
        let inner = match kind {
            SchedulerKind::Heap => Inner::Heap(BinaryHeap::new()),
            SchedulerKind::Wheel => Inner::Wheel(Calendar::new()),
        };
        EventQueue { inner }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> SchedulerKind {
        match self.inner {
            Inner::Heap(_) => SchedulerKind::Heap,
            Inner::Wheel(_) => SchedulerKind::Wheel,
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(h) => h.len(),
            Inner::Wheel(w) => w.len(),
        }
    }

    /// Whether no entry is pending.
    pub fn is_empty(&self) -> bool {
        self.peek().is_none()
    }

    /// Enqueues `item` at `time` under the canonical `key`.
    pub fn schedule(&mut self, time: SimTime, key: EventKey, item: T) {
        let e = Entry { time, key, item };
        match &mut self.inner {
            Inner::Heap(h) => h.push(e),
            Inner::Wheel(w) => w.insert(e),
        }
    }

    /// The earliest pending `(time, key)`, or `None` when empty. O(1):
    /// every mutating operation leaves the minimum surfaced.
    pub fn peek(&self) -> Option<(SimTime, EventKey)> {
        let e = match &self.inner {
            Inner::Heap(h) => h.peek(),
            Inner::Wheel(w) => w.head(),
        };
        e.map(|e| (e.time, e.key))
    }

    /// The earliest pending time, or `None` when empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(t, _)| t)
    }

    /// Dequeues the earliest pending entry.
    pub fn pop(&mut self) -> Option<(SimTime, EventKey, T)> {
        self.pop_if(|_| true)
    }

    /// Dequeues the earliest pending entry if `admit` accepts its
    /// `(time, key)`; otherwise leaves the queue untouched.
    pub fn pop_if(
        &mut self,
        admit: impl FnOnce((SimTime, EventKey)) -> bool,
    ) -> Option<(SimTime, EventKey, T)> {
        let e = match &mut self.inner {
            Inner::Heap(h) => pop_head(h, admit),
            Inner::Wheel(w) => w.pop_if(admit),
        }?;
        Some((e.time, e.key, e.item))
    }
}

// Shared with `tests/wheel_model.rs`, which checks the same sequences pop
// for pop against the sorted-set model.
#[cfg(test)]
#[path = "../tests/sequences/mod.rs"]
mod sequences;

#[cfg(test)]
mod tests {
    use super::*;

    /// A test key from node 0 with counter `k`.
    fn key(k: u64) -> EventKey {
        EventKey { src: 0, k }
    }

    fn drain(q: &mut EventQueue<u32>) -> Vec<(f64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, key, x)) = q.pop() {
            out.push((t.seconds(), key.k, x));
        }
        out
    }

    #[test]
    fn both_backends_pop_in_time_key_order() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let mut q = EventQueue::new(kind);
            q.schedule(SimTime::new(3.0), key(1), 30);
            q.schedule(SimTime::new(1.0), key(2), 10);
            q.schedule(SimTime::new(2.0), key(3), 20);
            q.schedule(SimTime::new(1.0), key(4), 11); // same time, later k
            assert_eq!(q.len(), 4);
            assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
            let order: Vec<u32> = drain(&mut q).iter().map(|&(_, _, x)| x).collect();
            assert_eq!(order, vec![10, 11, 20, 30], "{kind:?}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn same_time_ties_break_on_src_before_k() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let mut q = EventQueue::new(kind);
            // Node 5 scheduled first, but node 2's key sorts earlier;
            // the driver key (src = u32::MAX) sorts last.
            q.schedule(SimTime::new(1.0), EventKey { src: 5, k: 0 }, 50);
            q.schedule(SimTime::new(1.0), EventKey::driver(0), 99);
            q.schedule(SimTime::new(1.0), EventKey { src: 2, k: 7 }, 27);
            q.schedule(SimTime::new(1.0), EventKey { src: 2, k: 3 }, 23);
            let order: Vec<u32> = drain(&mut q).iter().map(|&(_, _, x)| x).collect();
            assert_eq!(order, vec![23, 27, 50, 99], "{kind:?}");
        }
    }

    #[test]
    fn far_pile_and_rotation() {
        let mut q = EventQueue::new(SchedulerKind::Wheel);
        // Far beyond the initial 64-bucket * 0.5s window: the far pile.
        q.schedule(SimTime::new(1_000_000.0), key(1), 1);
        q.schedule(SimTime::new(5.0), key(2), 2);
        q.schedule(SimTime::new(999_999.5), key(3), 3);
        q.schedule(SimTime::new(1_000_000.0), key(4), 4);
        let got = drain(&mut q);
        assert_eq!(
            got,
            vec![
                (5.0, 2, 2),
                (999_999.5, 3, 3),
                (1_000_000.0, 1, 1),
                (1_000_000.0, 4, 4),
            ]
        );
    }

    #[test]
    fn bucket_boundary_times_stay_ordered() {
        // Times at exact multiples of the initial width land on day
        // boundaries; ordering must be unaffected.
        let mut q = EventQueue::new(SchedulerKind::Wheel);
        let times = [0.0, 0.5, 0.5, 1.0, 31.5, 32.0, 32.5, 64.0];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::new(t), key(i as u64), i as u32);
        }
        let got: Vec<u32> = drain(&mut q).iter().map(|&(_, _, x)| x).collect();
        assert_eq!(got, (0..times.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pop_and_push_at_now() {
        // The engine's shape: pop an event, push successors at the same
        // or slightly later time, repeat.
        let mut q = EventQueue::new(SchedulerKind::Wheel);
        let mut next_k = 0u64;
        let mut k = || {
            next_k += 1;
            key(next_k)
        };
        q.schedule(SimTime::new(0.0), k(), 0);
        let mut popped = Vec::new();
        let mut injected = 1u32;
        while let Some((t, _, x)) = q.pop() {
            popped.push((t.seconds(), x));
            if injected <= 64 {
                q.schedule(t + 1.0, k(), injected);
                q.schedule(t + 1.0, k(), injected + 1000); // same-time tie
                injected += 1;
            }
        }
        let times: Vec<f64> = popped.iter().map(|&(t, _)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(times, sorted, "pops must be time-ordered");
        assert_eq!(popped.len(), 1 + 64 * 2);
    }

    #[test]
    fn pop_if_takes_the_head_only_when_admitted() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let mut q = EventQueue::new(kind);
            q.schedule(SimTime::new(2.0), key(1), 20);
            q.schedule(SimTime::new(f64::INFINITY), key(2), 99);
            assert!(q.pop_if(|(t, _)| t < SimTime::new(2.0)).is_none());
            assert_eq!(q.len(), 2, "{kind:?}: a refused pop changes nothing");
            assert_eq!(q.peek(), Some((SimTime::new(2.0), key(1))));
            let head = q.pop_if(|(t, k)| (t, k) == (SimTime::new(2.0), key(1)));
            assert_eq!(head.map(|(_, _, x)| x), Some(20), "{kind:?}");
            assert_eq!(q.pop().map(|(_, _, x)| x), Some(99), "{kind:?}");
            assert!(q.is_empty() && q.pop_if(|_| true).is_none());
        }
    }

    #[test]
    fn empty_reset_keeps_working_after_drain() {
        let mut q = EventQueue::new(SchedulerKind::Wheel);
        q.schedule(SimTime::new(10_000.0), key(1), 1);
        assert_eq!(drain(&mut q).len(), 1);
        // Re-use after drain from a large time: the cursor reset means a
        // small time is not "in the past" for the wheel.
        q.schedule(SimTime::new(0.25), key(2), 2);
        q.schedule(SimTime::new(9_999.0), key(3), 3);
        let got: Vec<u32> = drain(&mut q).iter().map(|&(_, _, x)| x).collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn past_inserts_behind_the_cursor_still_order_correctly() {
        // After the cursor jumps forward, an insert earlier than the
        // surfaced minimum must still pop first (the engine never does
        // this — pushes are at `time >= now` — but the property test
        // does, and correctness must not depend on the caller).
        let mut q = EventQueue::new(SchedulerKind::Wheel);
        q.schedule(SimTime::new(500.0), key(1), 1);
        assert_eq!(q.peek_time(), Some(SimTime::new(500.0)));
        q.schedule(SimTime::new(1.0), key(2), 2);
        let got: Vec<u32> = drain(&mut q).iter().map(|&(_, _, x)| x).collect();
        assert_eq!(got, vec![2, 1]);
    }

    /// The amortisation argument of the module docs, measured: over each
    /// long sequence the entries scanned or moved by rotations and
    /// retunes stay within a small constant per operation, the pops come
    /// out in order, and the sequence did leave the initial geometry.
    #[test]
    fn rotations_and_retunes_touch_a_constant_number_of_entries_per_operation() {
        for (name, ops) in sequences::all(0x15C0_FFEE) {
            let mut q: EventQueue<()> = EventQueue::new(SchedulerKind::Wheel);
            let (mut now, mut k) = (SimTime::ZERO, 0);
            for op in &ops {
                // Any unique key will do here: the keys `Follow` asks for
                // matter to the pop order, which `tests/wheel_model.rs`
                // checks.
                let at = match *op {
                    sequences::Op::At(time) => SimTime::new(time),
                    sequences::Op::After(dt) => now + dt,
                    sequences::Op::Follow => now,
                    sequences::Op::PopIf(_) => unreachable!("no long sequence refuses a pop"),
                    sequences::Op::Pop => {
                        if let Some((t, _, ())) = q.pop() {
                            assert!(t >= now, "{name}: popped {t} after {now}");
                            now = t;
                        }
                        continue;
                    }
                };
                q.schedule(at, key(k), ());
                k += 1;
            }
            let Inner::Wheel(w) = &q.inner else {
                unreachable!("built on the wheel")
            };
            let per_op = w.touched as f64 / ops.len() as f64;
            println!("{name}: {per_op:.3} entries touched per operation");
            assert!(per_op <= 3.0, "{name}: {per_op} entries per operation");
            assert!(
                w.buckets.len() > MIN_BUCKETS || w.inv_width != 1.0 / INITIAL_WIDTH,
                "{name} never retuned or resized"
            );
        }
    }

    const HOLDS: u64 = 200_000;

    /// The classic hold model: fill the queue to `depth`, then pop the
    /// earliest entry and schedule one a random increment (mean `depth`)
    /// later, [`HOLDS`] times. Returns the comparisons those holds made.
    fn hold_comparisons(kind: SchedulerKind, depth: u64) -> u64 {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut increment = || rng.gen_range(0.0..2.0 * depth as f64);
        let mut q = EventQueue::new(kind);
        for k in 0..depth {
            q.schedule(SimTime::new(increment()), key(k), ());
        }
        let before = COMPARISONS.with(std::cell::Cell::get);
        for k in depth..depth + HOLDS {
            let (t, _, ()) = q.pop().expect("the queue holds `depth` entries");
            q.schedule(t + increment(), key(k), ());
        }
        COMPARISONS.with(std::cell::Cell::get) - before
    }

    /// The calendar queue's claim, as a count: a hold costs the wheel a
    /// constant number of `(time, key)` comparisons at any depth (under
    /// two at both depths here), where the heap pays `O(log depth)`. The
    /// bounds are the counts measured with the open day sorted once and
    /// popped from a `Vec`; keeping the open day as a heap instead
    /// (sifting on every pop) exceeds them at both depths.
    #[test]
    fn a_hold_costs_the_wheel_a_constant_number_of_comparisons() {
        for (depth, bound) in [(1_000, 261_251), (300_000, 382_450)] {
            let wheel = hold_comparisons(SchedulerKind::Wheel, depth);
            let heap = hold_comparisons(SchedulerKind::Heap, depth);
            let per_hold = |n: u64| n as f64 / HOLDS as f64;
            println!(
                "depth {depth}: wheel {wheel} ({:.3} per hold), heap {heap} ({:.3} per hold)",
                per_hold(wheel),
                per_hold(heap)
            );
            assert!(wheel <= bound, "depth {depth}: {wheel} comparisons");
        }
    }
}
