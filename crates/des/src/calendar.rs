//! The event calendar: a priority queue of timestamped events.
//!
//! Events scheduled for the same instant are delivered in FIFO order of
//! scheduling (a monotone sequence number breaks ties), which makes
//! simulations fully deterministic.
//!
//! Internally the calendar is **two-tiered** (a calendar-queue / ladder
//! hybrid): a bounded ring of *near-horizon* time buckets fronting an
//! indexed **4-ary min-heap** overflow tier, both over stable event
//! *slots*:
//!
//! * Nodes are small `(time, seq, slot)` records ordered by `(time, seq)`.
//!   The `seq` counter is global across both tiers, so FIFO tie-breaking
//!   is preserved no matter which tier an event lands in.
//! * Schedules within [`NEAR_BUCKETS`] buckets of the clock (each bucket
//!   spans `2^BUCKET_SHIFT` µs — a ~262 ms horizon) append to a ring
//!   bucket in O(1); everything farther out goes to the heap. In the
//!   paper's model the dominant traffic — CPU/disk service completions in
//!   the tens of milliseconds — lands in the lane, while second-scale
//!   think-time arrivals and batch boundaries take the heap. `pop`
//!   compares the lane's minimum against the heap's live root and takes
//!   the global `(time, seq)` minimum, so delivery order is identical to
//!   a single heap.
//! * A 4-ary heap layout halves the tree depth of a binary heap and keeps
//!   the four children of a node in at most two cache lines, so the
//!   pop-side sift touches far less memory than `BinaryHeap` did.
//! * Event payloads live in a slot arena addressed by the nodes. A slot
//!   is recycled through a free list when its event is delivered or
//!   cancelled, so the steady-state schedule/pop cycle allocates nothing.
//! * [`Calendar::cancel`] is O(1) in both tiers: it empties the slot and
//!   bumps its generation; the matching node becomes *stale* and is
//!   discarded when it surfaces (heap root or lane-bucket scan). There is
//!   no tombstone set to hash into on the hot pop path.

use crate::time::SimTime;

/// Near-lane geometry: [`NEAR_BUCKETS`] ring slots of `2^BUCKET_SHIFT`
/// microseconds each — 256 buckets of ~1.05 ms cover a ~268 ms horizon.
const BUCKET_SHIFT: u32 = 10;
/// Number of buckets in the near-horizon ring.
const NEAR_BUCKETS: u64 = 256;

/// Cumulative operation counters for one [`Calendar`], split by tier.
///
/// `lane_schedules + heap_schedules == schedules` and
/// `lane_pops + heap_pops == pops`; the lane/heap split shows how much
/// traffic the O(1) near-horizon lane absorbs vs the log-time heap.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CalendarStats {
    /// Total events scheduled.
    pub schedules: u64,
    /// Total events delivered by [`Calendar::pop`].
    pub pops: u64,
    /// Successful cancellations (pending events withdrawn).
    pub cancels: u64,
    /// Schedules that landed in the near-horizon lane.
    pub lane_schedules: u64,
    /// Schedules beyond the horizon, pushed to the overflow heap.
    pub heap_schedules: u64,
    /// Pops served from the near-horizon lane.
    pub lane_pops: u64,
    /// Pops served from the overflow heap.
    pub heap_pops: u64,
}

/// Handle to a scheduled event, usable with [`Calendar::cancel`].
///
/// Packs the event's slot index and the slot's generation at scheduling
/// time; a stale handle (delivered, cancelled, or recycled slot) never
/// matches again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> Self {
        EventId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One heap node: the ordering key plus the slot holding the payload.
#[derive(Debug, Clone, Copy)]
struct Node {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Node {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A payload slot. `seq` identifies the occupant; `event` is `None` once
/// the occupant was cancelled (the slot is then already on the free list,
/// waiting for its stale node to surface and be discarded). `in_lane`
/// records which tier holds the occupant's node so cancellation can keep
/// the lane's live count exact.
#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    seq: u64,
    in_lane: bool,
    event: Option<E>,
}

/// One ring bucket of the near-horizon lane. `bucket` is the *absolute*
/// bucket index currently mapped onto this ring slot (`u64::MAX` when
/// unused); after a full ring rotation a slot is reclaimed by clearing any
/// leftover nodes — provably all stale, since a bucket that far behind the
/// clock lies entirely in the popped past.
#[derive(Debug)]
struct LaneBucket {
    bucket: u64,
    nodes: Vec<Node>,
    /// Set when the min-scan first parks on this bucket: `nodes` is then
    /// a binary min-heap by `(time, seq)` — pops take the root, late
    /// schedules into the bucket sift in, both O(log bucket). Until then
    /// the bucket is a plain append vector. Without this, a bucket dense
    /// with same-millisecond events (a million-scale regime packs
    /// thousands into one bucket) would pay a full scan per pop —
    /// quadratic in bucket population. A sorted vector is no better: the
    /// model schedules lock-grant wakeups at the current instant, which
    /// insert mid-bucket and pay a memmove each.
    heaped: bool,
}

// -- per-bucket binary-heap primitives (by `(time, seq)` key) -----------

fn bucket_sift_up(nodes: &mut [Node], mut i: usize) {
    let node = nodes[i];
    let key = node.key();
    while i > 0 {
        let parent = (i - 1) / 2;
        if key < nodes[parent].key() {
            nodes[i] = nodes[parent];
            i = parent;
        } else {
            break;
        }
    }
    nodes[i] = node;
}

fn bucket_sift_down(nodes: &mut [Node], mut i: usize) {
    let len = nodes.len();
    let node = nodes[i];
    let key = node.key();
    loop {
        let mut child = 2 * i + 1;
        if child >= len {
            break;
        }
        if child + 1 < len && nodes[child + 1].key() < nodes[child].key() {
            child += 1;
        }
        if nodes[child].key() < key {
            nodes[i] = nodes[child];
            i = child;
        } else {
            break;
        }
    }
    nodes[i] = node;
}

fn bucket_heapify(nodes: &mut [Node]) {
    for i in (0..nodes.len() / 2).rev() {
        bucket_sift_down(nodes, i);
    }
}

fn bucket_pop_root(nodes: &mut Vec<Node>) -> Node {
    let root = nodes.swap_remove(0);
    if !nodes.is_empty() {
        bucket_sift_down(nodes, 0);
    }
    root
}

/// A deterministic event calendar.
///
/// ```
/// use ccsim_des::{Calendar, SimTime};
///
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule(SimTime::from_secs(2), "second");
/// cal.schedule(SimTime::from_secs(1), "first");
/// let (t, e) = cal.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "first"));
/// ```
pub struct Calendar<E> {
    heap: Vec<Node>,
    /// When false, every schedule goes to the overflow heap — the
    /// single-tier baseline (see [`Calendar::heap_only`]).
    use_lane: bool,
    /// Near-horizon ring, indexed by `absolute_bucket % NEAR_BUCKETS`.
    lane: Vec<LaneBucket>,
    /// Live events currently stored in the lane (exact, not counting
    /// stale leftovers awaiting purge).
    lane_live: usize,
    /// Scan cursor: no live lane event sits in a bucket below this index.
    /// Lowered on schedule into an earlier bucket, advanced as the
    /// min-scan walks past drained buckets, keeping repeated scans
    /// amortized O(1).
    scan_from: u64,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Live (scheduled, neither delivered nor cancelled) events.
    live: usize,
    /// High-water mark of `live` over the calendar's lifetime.
    peak_live: usize,
    next_seq: u64,
    now: SimTime,
    stats: CalendarStats,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Create an empty calendar with the clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Calendar {
            heap: Vec::new(),
            use_lane: true,
            lane: (0..NEAR_BUCKETS)
                .map(|_| LaneBucket {
                    bucket: u64::MAX,
                    nodes: Vec::new(),
                    heaped: false,
                })
                .collect(),
            lane_live: 0,
            scan_from: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            stats: CalendarStats::default(),
        }
    }

    /// Create an empty calendar that bypasses the near-horizon lane: every
    /// event lands in the overflow heap. Delivery order is identical to
    /// [`Calendar::new`] — `(time, seq)` decides in both tiers — so the
    /// only difference is cost. This is the equivalence reference the
    /// determinism tests compare the two-tier calendar against;
    /// simulations have no reason to use it.
    #[must_use]
    pub fn heap_only() -> Self {
        Calendar {
            use_lane: false,
            ..Self::new()
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (zero before the first pop).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The most live events ever pending at once (peak occupancy).
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak_live
    }

    /// Cumulative operation counters (schedules, pops, cancels, and the
    /// near-lane vs overflow-heap split).
    #[must_use]
    pub fn stats(&self) -> CalendarStats {
        self.stats
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — the simulated past
    /// is immutable.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let bucket = at.as_micros() >> BUCKET_SHIFT;
        let cur = self.now.as_micros() >> BUCKET_SHIFT;
        let near = self.use_lane && bucket < cur + NEAR_BUCKETS;
        let (slot, generation) = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.seq = seq;
                sl.in_lane = near;
                sl.event = Some(event);
                (s, sl.generation)
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("calendar slot index overflow");
                self.slots.push(Slot {
                    generation: 0,
                    seq,
                    in_lane: near,
                    event: Some(event),
                });
                (s, 0)
            }
        };
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        self.stats.schedules += 1;
        let node = Node { at, seq, slot };
        if near {
            self.stats.lane_schedules += 1;
            self.lane_live += 1;
            if bucket < self.scan_from {
                self.scan_from = bucket;
            }
            let slots = &self.slots;
            let ring = &mut self.lane[(bucket % NEAR_BUCKETS) as usize];
            if ring.bucket != bucket {
                // Ring-slot reuse after a full rotation: leftover nodes
                // belong to a bucket ≥ NEAR_BUCKETS behind the clock, i.e.
                // entirely in the popped past, so they can only be stale.
                debug_assert!(ring.nodes.iter().all(|n| {
                    let sl = &slots[n.slot as usize];
                    sl.seq != n.seq || sl.event.is_none()
                }));
                ring.nodes.clear();
                ring.heaped = false;
                ring.bucket = bucket;
            }
            ring.nodes.push(node);
            if ring.heaped {
                let last = ring.nodes.len() - 1;
                bucket_sift_up(&mut ring.nodes, last);
            }
        } else {
            self.stats.heap_schedules += 1;
            self.heap.push(node);
            self.sift_up(self.heap.len() - 1);
        }
        EventId::new(slot, generation)
    }

    /// Cancel a previously scheduled event in O(1). Returns `true` if the
    /// event was still pending (i.e. had not yet been delivered or
    /// cancelled). The stale node is discarded lazily when it surfaces in
    /// its tier.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot()) else {
            return false;
        };
        if slot.generation != id.generation() || slot.event.is_none() {
            return false;
        }
        slot.event = None;
        slot.generation = slot.generation.wrapping_add(1);
        if slot.in_lane {
            self.lane_live -= 1;
        }
        self.free.push(id.slot() as u32);
        self.live -= 1;
        self.stats.cancels += 1;
        true
    }

    /// Locate the lane's live minimum: `(ring index, key)` — the minimum
    /// is always the parked bucket's heap root.
    ///
    /// Scans forward from the cursor and parks it on the first bucket with
    /// a live event, heapifying that bucket on first touch so the minimum
    /// — and every subsequent pop from the bucket — is a root read, not a
    /// scan. All live lane events sit in `[clock bucket, clock bucket +
    /// NEAR_BUCKETS)` and none below the cursor, so the walk is bounded;
    /// stale nodes are purged at heapify time or discarded once when they
    /// surface as the root.
    fn lane_min(&mut self) -> Option<(usize, (SimTime, u64))> {
        if self.lane_live == 0 {
            return None;
        }
        let cur = self.now.as_micros() >> BUCKET_SHIFT;
        let mut b = self.scan_from.max(cur);
        while b < cur + NEAR_BUCKETS {
            let ix = (b % NEAR_BUCKETS) as usize;
            if self.lane[ix].bucket == b {
                let slots = &self.slots;
                let ring = &mut self.lane[ix];
                if !ring.heaped {
                    ring.nodes.retain(|n| {
                        let sl = &slots[n.slot as usize];
                        sl.seq == n.seq && sl.event.is_some()
                    });
                    bucket_heapify(&mut ring.nodes);
                    ring.heaped = true;
                }
                while let Some(&root) = ring.nodes.first() {
                    let sl = &slots[root.slot as usize];
                    if sl.seq == root.seq && sl.event.is_some() {
                        self.scan_from = b;
                        return Some((ix, root.key()));
                    }
                    bucket_pop_root(&mut ring.nodes);
                }
                ring.heaped = false;
            }
            b += 1;
        }
        unreachable!(
            "lane accounting broken: {} live events unreachable within the horizon",
            self.lane_live
        );
    }

    /// Key of the heap's live root, purging stale roots on the way.
    fn heap_peek_key(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let node = *self.heap.first()?;
            let slot = &self.slots[node.slot as usize];
            if slot.seq == node.seq && slot.event.is_some() {
                return Some(node.key());
            }
            self.remove_root();
        }
    }

    /// Remove and return the earliest event together with its timestamp,
    /// advancing the clock. Cancelled events are skipped silently.
    ///
    /// The winner is the global `(time, seq)` minimum across both tiers —
    /// `seq` is assigned at schedule time regardless of tier, so same-time
    /// events keep strict FIFO order even when one sits in the lane and
    /// the other in the heap.
    ///
    /// Always inlined: the simulator compiles its event loop once per
    /// concurrency control protocol, and each copy pops once per event.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let lane = self.lane_min();
        let heap = self.heap_peek_key();
        let use_lane = match (lane, heap) {
            (Some((_, lk)), Some(hk)) => lk < hk,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let node = if use_lane {
            let (ring_ix, _) = lane.expect("lane candidate vanished");
            self.stats.lane_pops += 1;
            self.lane_live -= 1;
            bucket_pop_root(&mut self.lane[ring_ix].nodes)
        } else {
            self.stats.heap_pops += 1;
            let node = self.heap[0];
            self.remove_root();
            node
        };
        let slot = &mut self.slots[node.slot as usize];
        debug_assert_eq!(slot.seq, node.seq, "popped a stale node");
        let event = slot.event.take().expect("popped a cancelled node");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(node.slot);
        self.live -= 1;
        self.stats.pops += 1;
        debug_assert!(node.at >= self.now, "event calendar went backwards");
        self.now = node.at;
        Some((node.at, event))
    }

    /// Timestamp of the next live event, if any, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let lane = self.lane_min().map(|(_, key)| key);
        let heap = self.heap_peek_key();
        match (lane, heap) {
            (Some(l), Some(h)) => Some(l.min(h).0),
            (Some(l), None) => Some(l.0),
            (None, Some(h)) => Some(h.0),
            (None, None) => None,
        }
    }

    // -- 4-ary heap primitives ------------------------------------------

    fn remove_root(&mut self) {
        let last = self.heap.pop().expect("remove_root on empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let node = self.heap[i];
        let key = node.key();
        while i > 0 {
            let parent = (i - 1) / 4;
            if key < self.heap[parent].key() {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = node;
    }

    /// Bottom-up sift: the displaced node comes from the heap's last
    /// position, so it almost always belongs near the bottom again. Descend
    /// along the min-child path unconditionally (skipping the
    /// node-vs-child test per level that would nearly never terminate
    /// early), then bubble the node back up the few levels it needs.
    fn sift_down(&mut self, start: usize) {
        let len = self.heap.len();
        let node = self.heap[start];
        let mut i = start;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let end = (first + 4).min(len);
            let mut min = first;
            let mut min_key = self.heap[first].key();
            for c in first + 1..end {
                let k = self.heap[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            self.heap[i] = self.heap[min];
            i = min;
        }
        // `i` is now a leaf of the min-child path; bubble `node` up to its
        // place (never above `start`, whose subtree it came to fill).
        let key = node.key();
        while i > start {
            let parent = (i - 1) / 4;
            if key < self.heap[parent].key() {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3), 3u32);
        cal.schedule(SimTime::from_secs(1), 1u32);
        cal.schedule(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            cal.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(5), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(5), ());
        cal.pop();
        cal.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_secs(1), "a");
        cal.schedule(SimTime::from_secs(2), "b");
        assert!(cal.cancel(a));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop().map(|(_, e)| e), Some("b"));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn cancel_unknown_returns_false() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(!cal.cancel(EventId::new(99, 0)));
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_secs(1), ());
        assert!(cal.cancel(a));
        assert!(!cal.cancel(a));
    }

    #[test]
    fn cancel_after_delivery_returns_false() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_secs(1), ());
        assert_eq!(cal.pop(), Some((SimTime::from_secs(1), ())));
        assert!(!cal.cancel(a));
    }

    #[test]
    fn recycled_slot_does_not_resurrect_old_handle() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_secs(1), "a");
        assert!(cal.cancel(a));
        // The slot is recycled for a new event; the old handle must not be
        // able to cancel the newcomer, and the newcomer must deliver.
        let b = cal.schedule(SimTime::from_secs(2), "b");
        assert!(!cal.cancel(a));
        assert_eq!(cal.pop().map(|(_, e)| e), Some("b"));
        assert!(!cal.cancel(b));
    }

    #[test]
    fn fifo_order_survives_interleaved_cancellation() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(1);
        let ids: Vec<_> = (0..10).map(|i| cal.schedule(t, i)).collect();
        // Cancel the odd ones; evens must still come out in FIFO order.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                assert!(cal.cancel(*id));
            }
        }
        let order: Vec<usize> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_secs(1), "a");
        cal.schedule(SimTime::from_secs(2), "b");
        cal.cancel(a);
        assert_eq!(cal.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn schedule_same_time_as_now_is_ok() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(1), 1);
        cal.pop();
        // An event may fire "now" (zero-delay continuation).
        cal.schedule(cal.now() + SimDuration::ZERO, 2);
        assert_eq!(cal.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut cal = Calendar::new();
        let ids: Vec<_> = (0..5)
            .map(|i| cal.schedule(SimTime::from_secs(i + 1), i))
            .collect();
        assert_eq!(cal.len(), 5);
        cal.cancel(ids[0]);
        cal.cancel(ids[3]);
        assert_eq!(cal.len(), 3);
        assert!(!cal.is_empty());
    }

    #[test]
    fn cross_tier_same_time_ties_break_fifo() {
        // An event scheduled beyond the horizon (heap tier) and one
        // scheduled later — after the clock advanced — at the *same*
        // instant (lane tier) must still deliver in schedule order: the
        // seq counter is global across tiers.
        let mut cal = Calendar::new();
        let t = SimTime::from_millis(300); // beyond the ~268 ms horizon at clock 0
        cal.schedule(t, "heap-first");
        cal.schedule(SimTime::from_millis(100), "filler");
        assert_eq!(cal.pop().map(|(_, e)| e), Some("filler"));
        // Clock at 100 ms: 300 ms is now inside the horizon.
        cal.schedule(t, "lane-second");
        assert_eq!(cal.stats().heap_schedules, 1);
        assert_eq!(cal.stats().lane_schedules, 2);
        assert_eq!(cal.pop(), Some((t, "heap-first")));
        assert_eq!(cal.pop(), Some((t, "lane-second")));
    }

    #[test]
    fn far_events_overflow_to_heap_and_still_deliver_in_order() {
        let mut cal = Calendar::new();
        // Interleave near (lane) and far (heap) schedules.
        cal.schedule(SimTime::from_secs(2), 4u32);
        cal.schedule(SimTime::from_millis(1), 1u32);
        cal.schedule(SimTime::from_secs(1), 3u32);
        cal.schedule(SimTime::from_millis(50), 2u32);
        let stats = cal.stats();
        assert_eq!(stats.lane_schedules, 2);
        assert_eq!(stats.heap_schedules, 2);
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        let stats = cal.stats();
        assert_eq!(stats.pops, 4);
        // The far events were still in the heap when they surfaced (the
        // clock only reaches them when they are the minimum).
        assert_eq!(stats.lane_pops, 2);
        assert_eq!(stats.heap_pops, 2);
    }

    #[test]
    fn horizon_rollover_reuses_ring_buckets() {
        // March the clock through many full ring rotations with a short
        // event chain; every bucket gets reused repeatedly and order must
        // survive. 10 ms steps × 1000 = 10 s ≈ 37 rotations.
        let mut cal = Calendar::new();
        let mut t = SimTime::ZERO;
        cal.schedule(t + SimDuration::from_millis(10), 0u32);
        for i in 0..1000u32 {
            let (at, e) = cal.pop().expect("chain event");
            assert_eq!(e, i);
            assert!(at > t);
            t = at;
            cal.schedule(t + SimDuration::from_millis(10), i + 1);
        }
        assert_eq!(cal.stats().lane_schedules, 1001);
        assert_eq!(cal.stats().heap_schedules, 0);
    }

    #[test]
    fn cancels_tracked_in_both_tiers() {
        let mut cal = Calendar::new();
        let near = cal.schedule(SimTime::from_millis(1), "near");
        let far = cal.schedule(SimTime::from_secs(5), "far");
        cal.schedule(SimTime::from_millis(2), "keep");
        assert!(cal.cancel(near));
        assert!(cal.cancel(far));
        assert_eq!(cal.stats().cancels, 2);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop().map(|(_, e)| e), Some("keep"));
        assert!(cal.pop().is_none());
        assert!(cal.is_empty());
    }

    #[test]
    fn large_random_workload_pops_sorted_with_slot_reuse() {
        // Deterministic pseudo-random mix of schedules, cancels, and pops;
        // verifies heap order and slot recycling under churn.
        let mut cal = Calendar::new();
        let mut state = 0x9E37_79B9_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut pending: Vec<EventId> = Vec::new();
        let mut last = SimTime::ZERO;
        let mut delivered = 0u32;
        let mut scheduled = 0u32;
        let mut cancelled = 0u32;
        for _ in 0..10_000 {
            match next(4) {
                0 | 1 => {
                    let at = cal.now() + SimDuration::from_micros(next(1_000) + 1);
                    pending.push(cal.schedule(at, ()));
                    scheduled += 1;
                }
                2 if !pending.is_empty() => {
                    let i = next(pending.len() as u64) as usize;
                    if cal.cancel(pending.swap_remove(i)) {
                        cancelled += 1;
                    }
                }
                _ => {
                    if let Some((at, ())) = cal.pop() {
                        assert!(at >= last);
                        last = at;
                        delivered += 1;
                    }
                }
            }
        }
        while cal.pop().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered + cancelled, scheduled);
        assert!(cal.is_empty());
    }

    #[test]
    fn heap_only_delivers_the_same_order_as_two_tier() {
        let mut two_tier: Calendar<u64> = Calendar::new();
        let mut heap_only: Calendar<u64> = Calendar::heap_only();
        // Mixed near-horizon and far-future timestamps, including ties
        // (seq must break them identically in both tiers).
        let mut x = 0x9E37_79B9u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for i in 0..5_000u64 {
            let at = SimTime::from_micros(next(2_000_000));
            two_tier.schedule(at, i);
            heap_only.schedule(at, i);
        }
        assert_eq!(heap_only.stats().lane_schedules, 0);
        assert!(two_tier.stats().lane_schedules > 0);
        loop {
            match (two_tier.pop(), heap_only.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }
}
