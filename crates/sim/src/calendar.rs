//! A bucketed calendar queue over virtual time — the simulator's event
//! queue at million-node scale.
//!
//! The classic calendar-queue idea (Brown 1988): hash events into
//! fixed-width time buckets ("days") arranged in a ring (a "year"), serve
//! the bucket the clock is in, and keep an overflow list for events beyond
//! the ring's horizon. Insertion and extraction are O(1) amortized instead
//! of the binary heap's O(log n) — and, unlike a heap, the structure never
//! moves cold events around, so a million queued gossip ticks cost nothing
//! until their day arrives.
//!
//! **Determinism contract.** [`CalendarQueue`] pops events in *exactly*
//! ascending `(at, seq)` order — the same total order the previous
//! `BinaryHeap<ScheduledEvent>` produced. The argument:
//!
//! * every event sits in the bucket of its own day (`at >> BUCKET_SHIFT`);
//!   nothing is ever clamped into a wrong day. Pushes carry `at ≥ now`, and
//!   the cursor rewinds (with horizon repair) when a driver schedules
//!   behind it — e.g. issuing a query while only a far-future gossip tick
//!   is queued — so the serving day never exceeds the earliest queued day;
//! * buckets are served in day order, and any event in a later day has a
//!   strictly larger `at` than every event of an earlier day;
//! * within the serving bucket, events are sorted by `(at, seq)` — a total
//!   order, since `seq` is unique — lazily, once, when the bucket comes up
//!   for service; later insertions into a sorted serving bucket go through
//!   an order-preserving binary-search insert.
//!
//! Ties on `at` therefore pop in scheduling (`seq`) order, byte-identical
//! to the heap's reversed `(at, seq)` comparator, which is what keeps the
//! pinned sweepbench digests and the golden-determinism fingerprints
//! unchanged across the swap. An equivalence proptest
//! (`crates/sim/tests/calendar_queue.rs`) drives both structures through
//! random schedule/dispatch/drop/duplicate sequences and asserts identical
//! pop order.
//!
//! **Bucket width.** `256 ms` per bucket, `512` buckets — a 131-second
//! horizon that covers every recurring delay the simulator schedules
//! (1–100 ms link latencies, 10 s gossip periods, 5–60 s query timeouts)
//! without touching the overflow list; only far-future fault-plan events
//! (crashes hours out) land there, and they are redistributed when the
//! cursor's year wraps. Widening buckets trades fewer empty-bucket visits
//! for longer in-bucket sorts; 256 ms keeps the serving bucket in the
//! hundreds of events even for million-node gossip populations.

use crate::event::ScheduledEvent;

/// log2 of the bucket width in virtual ms (256 ms days).
const BUCKET_SHIFT: u32 = 8;
/// Buckets in the ring (the "year"); must be a power of two.
const NUM_BUCKETS: usize = 512;

/// A calendar/ladder event queue popping in ascending `(at, seq)` order.
///
/// Semantically a drop-in replacement for `BinaryHeap<ScheduledEvent>`
/// with the reversed comparator; see the module docs for the equivalence
/// argument.
pub(crate) struct CalendarQueue {
    /// Ring of day buckets; bucket `d % NUM_BUCKETS` holds day `d`'s
    /// events while `cursor_day ≤ d < cursor_day + NUM_BUCKETS`.
    buckets: Vec<Vec<ScheduledEvent>>,
    /// Events with `day ≥ cursor_day + NUM_BUCKETS`, unsorted; rebased
    /// back into the ring when the cursor's year wraps.
    overflow: Vec<ScheduledEvent>,
    /// The day currently being served.
    cursor_day: u64,
    /// Whether the serving bucket is sorted descending by `(at, seq)`
    /// (popped from the back). Reset whenever the cursor advances or the
    /// bucket is disturbed by an unordered removal.
    serving_sorted: bool,
    /// Total queued events (ring + overflow).
    len: usize,
}

impl std::fmt::Debug for CalendarQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("cursor_day", &self.cursor_day)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

fn day(at: u64) -> u64 {
    at >> BUCKET_SHIFT
}

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            cursor_day: 0,
            serving_sorted: false,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an event. Pushes never precede virtual `now`, but they may
    /// precede the *cursor*: `peek_at`/`pop` advance the cursor to the
    /// earliest queued day, and a driver can then schedule fresh work at
    /// `now` (e.g. issue queries while only a far-future gossip tick is
    /// pending). Such pushes rewind the cursor — see [`rewind_to`].
    pub(crate) fn push(&mut self, ev: ScheduledEvent) {
        let d = day(ev.at);
        if self.len == 0 {
            // Empty queue: rebase the calendar directly onto the event's
            // day instead of walking the cursor there bucket by bucket.
            self.cursor_day = d;
            self.serving_sorted = false;
        } else if d < self.cursor_day {
            self.rewind_to(d);
        }
        self.len += 1;
        if d >= self.cursor_day + NUM_BUCKETS as u64 {
            self.overflow.push(ev);
            return;
        }
        let bucket = &mut self.buckets[(d % NUM_BUCKETS as u64) as usize];
        if d == self.cursor_day && self.serving_sorted {
            // Keep the serving bucket's descending (at, seq) order intact.
            let key = (ev.at, ev.seq);
            let pos = bucket.partition_point(|e| (e.at, e.seq) > key);
            bucket.insert(pos, ev);
        } else {
            bucket.push(ev);
        }
    }

    /// Moves the cursor back to day `d` after a push earlier than the
    /// serving day. Ring buckets behind the old cursor are empty (their
    /// events were popped), but shrinking the horizon to `d + NUM_BUCKETS`
    /// invalidates two placements, both repaired here: ring events beyond
    /// the new horizon are evicted to overflow, and overflow events now
    /// inside it are pulled into the ring. O(ring + overflow) — rewinds
    /// happen once per driver-scheduling batch, not per event.
    fn rewind_to(&mut self, d: u64) {
        let new_horizon = d + NUM_BUCKETS as u64;
        for bucket in &mut self.buckets {
            let mut i = 0;
            while i < bucket.len() {
                if day(bucket[i].at) >= new_horizon {
                    let ev = bucket.swap_remove(i);
                    self.overflow.push(ev);
                } else {
                    i += 1;
                }
            }
        }
        self.cursor_day = d;
        self.serving_sorted = false;
        self.rebase_overflow();
    }

    /// Advances the cursor to the first non-empty bucket and sorts it for
    /// service. After this, if `len > 0`, the next event to pop is the last
    /// element of the serving bucket.
    fn normalize(&mut self) {
        if self.len == 0 {
            return;
        }
        loop {
            let idx = (self.cursor_day % NUM_BUCKETS as u64) as usize;
            if !self.buckets[idx].is_empty() {
                if !self.serving_sorted {
                    // Descending, so pops are cheap back-removals. `(at,
                    // seq)` is a total order (seq unique): the sort is
                    // deterministic regardless of insertion order.
                    self.buckets[idx].sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                    self.serving_sorted = true;
                }
                return;
            }
            self.cursor_day += 1;
            self.serving_sorted = false;
            if self.cursor_day.is_multiple_of(NUM_BUCKETS as u64) && !self.overflow.is_empty() {
                self.rebase_overflow();
            }
            if self.ring_is_empty() {
                // Only overflow remains: jump straight to its earliest day.
                if self.overflow.is_empty() {
                    return; // len == 0 was handled above; defensive
                }
                let min_day = self
                    .overflow
                    .iter()
                    .map(|e| day(e.at))
                    .min()
                    .expect("non-empty");
                self.cursor_day = min_day;
                self.rebase_overflow();
            }
        }
    }

    fn ring_is_empty(&self) -> bool {
        self.len == self.overflow.len()
    }

    /// Moves overflow events whose day now falls inside the ring into
    /// their buckets.
    fn rebase_overflow(&mut self) {
        let horizon = self.cursor_day + NUM_BUCKETS as u64;
        let mut i = 0;
        while i < self.overflow.len() {
            let d = day(self.overflow[i].at);
            if d < horizon {
                let ev = self.overflow.swap_remove(i);
                let idx = (d % NUM_BUCKETS as u64) as usize;
                self.buckets[idx].push(ev);
                if d == self.cursor_day {
                    self.serving_sorted = false;
                }
            } else {
                i += 1;
            }
        }
    }

    /// The earliest queued firing time, or `None` when empty.
    pub(crate) fn peek_at(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.normalize();
        let idx = (self.cursor_day % NUM_BUCKETS as u64) as usize;
        self.buckets[idx].last().map(|e| e.at)
    }

    /// Removes and returns the earliest event (ascending `(at, seq)`).
    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent> {
        if self.len == 0 {
            return None;
        }
        self.normalize();
        let idx = (self.cursor_day % NUM_BUCKETS as u64) as usize;
        let ev = self.buckets[idx].pop();
        if ev.is_some() {
            self.len -= 1;
        }
        ev
    }

    /// Iterates every queued event in unspecified order (callers sort by
    /// `(at, seq)` where order matters — `queued_events`, `state_hash`).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ScheduledEvent> {
        self.buckets.iter().flatten().chain(self.overflow.iter())
    }

    /// Removes and returns the event with sequence handle `seq`, if queued.
    /// O(queue) — serves the explorer's take/drop surgery on small
    /// scenarios, exactly like the heap's rebuild did.
    pub(crate) fn remove_seq(&mut self, seq: u64) -> Option<ScheduledEvent> {
        let serving_idx = (self.cursor_day % NUM_BUCKETS as u64) as usize;
        for (idx, bucket) in self.buckets.iter_mut().enumerate() {
            if let Some(i) = bucket.iter().position(|e| e.seq == seq) {
                let ev = bucket.swap_remove(i);
                self.len -= 1;
                if idx == serving_idx {
                    // swap_remove disturbed the order; re-sort on next serve.
                    self.serving_sorted = false;
                }
                return Some(ev);
            }
        }
        if let Some(i) = self.overflow.iter().position(|e| e.seq == seq) {
            let ev = self.overflow.swap_remove(i);
            self.len -= 1;
            return Some(ev);
        }
        None
    }

    /// The queued event with handle `seq`, if any.
    pub(crate) fn find_seq(&self, seq: u64) -> Option<&ScheduledEvent> {
        self.iter().find(|e| e.seq == seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(at: u64, seq: u64) -> ScheduledEvent {
        ScheduledEvent {
            at,
            seq,
            kind: EventKind::PollTimeouts { node: 0 },
        }
    }

    fn drain(q: &mut CalendarQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.at, e.seq))).collect()
    }

    #[test]
    fn pops_earliest_first_with_fifo_ties() {
        let mut q = CalendarQueue::new();
        q.push(ev(5, 0));
        q.push(ev(1, 2));
        q.push(ev(1, 1));
        q.push(ev(3, 3));
        assert_eq!(drain(&mut q), vec![(1, 1), (1, 2), (3, 3), (5, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn crosses_bucket_and_year_boundaries_in_order() {
        let width = 1u64 << BUCKET_SHIFT;
        let year = width * NUM_BUCKETS as u64;
        let mut q = CalendarQueue::new();
        // Same bucket, next bucket, next year, and far overflow.
        let times = [3, width - 1, width, 2 * width + 7, year + 5, 3 * year + 1];
        for (i, &at) in times.iter().enumerate() {
            q.push(ev(at, i as u64 + 1));
        }
        let order = drain(&mut q);
        let ats: Vec<u64> = order.iter().map(|&(at, _)| at).collect();
        let mut sorted = ats.clone();
        sorted.sort_unstable();
        assert_eq!(ats, sorted);
        assert_eq!(order.len(), times.len());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
        q.push(ev(10, 1));
        q.push(ev(20, 2));
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        // Push into the already-sorted serving bucket (same day as 20).
        q.push(ev(20, 3));
        q.push(ev(15, 4));
        assert_eq!(drain(&mut q), vec![(15, 4), (20, 2), (20, 3)]);
    }

    #[test]
    fn remove_and_find_by_seq() {
        let mut q = CalendarQueue::new();
        q.push(ev(10, 1));
        q.push(ev(1_000_000, 2)); // overflow at a fresh queue's horizon? (day 3906 < 512? no: overflow)
        q.push(ev(10, 3));
        assert_eq!(q.find_seq(2).map(|e| e.at), Some(1_000_000));
        assert_eq!(q.remove_seq(3).map(|e| e.at), Some(10));
        assert!(q.remove_seq(3).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (1_000_000, 2)]);
    }

    #[test]
    fn push_behind_cursor_rewinds_and_repairs_horizon() {
        let width = 1u64 << BUCKET_SHIFT;
        let year = width * NUM_BUCKETS as u64;
        let mut q = CalendarQueue::new();
        q.push(ev(1, 1));
        q.push(ev(year - width, 2)); // far-future tick, same year
        q.push(ev(2 * year, 3)); // overflow
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        // Cursor has advanced to day(year - width) via normalize; now the
        // driver schedules near-past-the-origin work, as issue_query does
        // while only a gossip tick is pending.
        assert_eq!(q.peek_at(), Some(year - width));
        q.push(ev(width, 4));
        assert_eq!(q.peek_at(), Some(width));
        assert_eq!(
            drain(&mut q),
            vec![(width, 4), (year - width, 2), (2 * year, 3)]
        );
    }

    #[test]
    fn empty_queue_rebases_to_far_future_push() {
        let mut q = CalendarQueue::new();
        q.push(ev(7, 1));
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        // Queue empty, cursor at day(7); a push eons later must not walk.
        q.push(ev(u64::from(u32::MAX) * 2, 2));
        assert_eq!(q.peek_at(), Some(u64::from(u32::MAX) * 2));
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
        assert!(q.pop().is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The queue is behaviorally identical to the `BinaryHeap` it
        /// replaced: any interleaving of schedules, pops, explorer-style
        /// drops and duplicates yields the exact same `(at, seq)` pop
        /// order and the same lengths throughout. `at` ranges past the
        /// ring horizon (512 × 256 ms) so rewinds, year crossings and
        /// overflow rebasing are all on the path.
        #[test]
        fn equivalent_to_binary_heap_reference(
            ops in proptest::collection::vec((0u8..10, 0u64..200_000u64), 1..250)
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let mut cal = CalendarQueue::new();
            #[allow(clippy::disallowed_types)] // binary-heap: test code; the reference model
            let mut heap: std::collections::BinaryHeap<ScheduledEvent> =
                std::collections::BinaryHeap::new();
            let mut next_seq = 0u64;
            for (op, at) in ops {
                match op {
                    0..=4 => {
                        // Schedule; pushes dominate so queues stay busy.
                        next_seq += 1;
                        cal.push(ev(at, next_seq));
                        heap.push(ev(at, next_seq));
                    }
                    5 | 6 => {
                        // Dispatch the earliest event.
                        let got = cal.pop().map(|e| (e.at, e.seq));
                        let want = heap.pop().map(|e| (e.at, e.seq));
                        prop_assert_eq!(got, want);
                    }
                    7 => {
                        prop_assert_eq!(cal.peek_at(), heap.peek().map(|e| e.at));
                    }
                    8 => {
                        // Drop a surviving event by handle (drop_queued).
                        let mut seqs: Vec<u64> = heap.iter().map(|e| e.seq).collect();
                        seqs.sort_unstable();
                        if !seqs.is_empty() {
                            let victim = seqs[(at as usize) % seqs.len()];
                            prop_assert!(cal.remove_seq(victim).is_some());
                            heap.retain(|e| e.seq != victim);
                        }
                    }
                    _ => {
                        // Duplicate an event at its own time, fresh handle
                        // (duplicate_queued).
                        let mut live: Vec<(u64, u64)> =
                            heap.iter().map(|e| (e.seq, e.at)).collect();
                        live.sort_unstable();
                        if !live.is_empty() {
                            let (_, t) = live[(at as usize) % live.len()];
                            next_seq += 1;
                            cal.push(ev(t, next_seq));
                            heap.push(ev(t, next_seq));
                        }
                    }
                }
                prop_assert_eq!(cal.len(), heap.len());
            }
            // Drain: the remaining pop order must match exactly.
            while let Some(want) = heap.pop() {
                let got = cal.pop().expect("calendar shorter than reference");
                prop_assert_eq!((got.at, got.seq), (want.at, want.seq));
            }
            prop_assert!(cal.pop().is_none());
        }
    }

    #[test]
    fn overflow_only_queue_jumps_not_walks() {
        let width = 1u64 << BUCKET_SHIFT;
        let year = width * NUM_BUCKETS as u64;
        let mut q = CalendarQueue::new();
        q.push(ev(1, 1));
        q.push(ev(100 * year, 2));
        q.push(ev(100 * year + 3, 3));
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        assert_eq!(drain(&mut q), vec![(100 * year, 2), (100 * year + 3, 3)]);
    }
}
