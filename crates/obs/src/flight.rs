//! Always-on flight recorder: the last K events, bounded memory, dump on
//! demand.
//!
//! Tracing everything at N = 1 000 000 is not an option — a JSONL sink
//! writes gigabytes per virtual hour and a [`TraceTree`](crate::TraceTree)
//! keeps every span alive. A [`FlightRecorder`] is the always-on
//! alternative: a fixed-capacity ring of recent typed [`Event`]s that
//! overwrites its oldest entry on wraparound, so memory is bounded by
//! construction and the recording cost per event is one slot write. When
//! something goes wrong — an [`InvariantChecker`] violation, a soak health
//! breach, an operator asking "what just happened?" — the ring holds the
//! last K events leading up to the fault and [`FlightRecorder::dump_jsonl`]
//! writes them out as ordinary trace JSONL, parseable by the same
//! closed-schema parser (`jsonl::parse_trace`) as a full trace.
//!
//! **Writer discipline.** The recorder is designed single-writer: one
//! emitting context (a simulator, or one live-runtime shard) per recorder. Under
//! `forbid(unsafe_code)` the slot write goes through a `Mutex`, but with a
//! single writer that mutex is uncontended on every push — a reader taking
//! a dump is the only thing that ever waits. Multiple writers are *safe*
//! (the lock serializes them) — their interleaving is simply whatever order
//! they took the lock in. The lock is a leaf: nothing else is locked or
//! called while it is held.
//!
//! [`InvariantChecker`]: ../overlay_sim/struct.InvariantChecker.html

use std::io::Write;
use std::sync::Mutex;

use crate::event::Event;
use crate::observer::Observer;

#[derive(Debug)]
struct Ring {
    /// Slots in ring order; grows to capacity once, then wraps.
    slots: Vec<Event>,
    /// Next slot to overwrite once `slots` is full.
    next: usize,
    /// Events ever pushed (so `dropped = total − len`).
    total: u64,
}

/// A fixed-capacity ring buffer of the most recent [`Event`]s.
///
/// Implements [`Observer`], so it can be installed anywhere a trace sink
/// can — including fanned out next to a [`Registry`](crate::Registry) — and
/// like every observer it never feeds back into the protocol.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        FlightRecorder {
            ring: Mutex::new(Ring { slots: Vec::with_capacity(capacity), next: 0, total: 0 }),
            capacity,
        }
    }

    /// The fixed slot count K.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring lock").slots.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever pushed, including those overwritten since.
    pub fn total_seen(&self) -> u64 {
        self.ring.lock().expect("flight ring lock").total
    }

    /// Events lost to wraparound (`total_seen − len`).
    pub fn dropped(&self) -> u64 {
        let ring = self.ring.lock().expect("flight ring lock");
        ring.total - ring.slots.len() as u64
    }

    /// Records one event, overwriting the oldest once full.
    pub fn push(&self, event: Event) {
        let mut ring = self.ring.lock().expect("flight ring lock");
        ring.total += 1;
        if ring.slots.len() < self.capacity {
            ring.slots.push(event);
        } else {
            let at = ring.next;
            ring.slots[at] = event;
            ring.next = (at + 1) % self.capacity;
        }
    }

    /// The held events, oldest first — exactly the most recent
    /// `min(total_seen, capacity)` pushes in push order.
    pub fn recent(&self) -> Vec<Event> {
        let ring = self.ring.lock().expect("flight ring lock");
        let mut out = Vec::with_capacity(ring.slots.len());
        if ring.slots.len() == self.capacity {
            out.extend_from_slice(&ring.slots[ring.next..]);
            out.extend_from_slice(&ring.slots[..ring.next]);
        } else {
            out.extend_from_slice(&ring.slots);
        }
        out
    }

    /// Empties the ring (the drop counter keeps counting from where it was).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().expect("flight ring lock");
        ring.slots.clear();
        ring.next = 0;
    }

    /// Writes the held events, oldest first, as trace JSONL — one
    /// [`Event::to_json`] line per event, parseable by
    /// [`jsonl::parse_trace`](crate::jsonl::parse_trace). Returns the
    /// number of lines written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn dump_jsonl<W: Write>(&self, out: &mut W) -> std::io::Result<u64> {
        let events = self.recent();
        for ev in &events {
            writeln!(out, "{}", ev.to_json())?;
        }
        Ok(events.len() as u64)
    }
}

impl Observer for FlightRecorder {
    fn on_event(&self, event: &Event) {
        self.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::parse_trace;

    fn ev(at: u64) -> Event {
        Event::NodeCrashed { at, node: at }
    }

    #[test]
    fn wraparound_keeps_exactly_the_most_recent_k_in_order() {
        let fr = FlightRecorder::new(4);
        for at in 0..11 {
            fr.push(ev(at));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.total_seen(), 11);
        assert_eq!(fr.dropped(), 7);
        let ats: Vec<u64> = fr.recent().iter().map(Event::at).collect();
        assert_eq!(ats, vec![7, 8, 9, 10], "last K pushes, oldest first");
        // One more push evicts exactly the oldest.
        fr.push(ev(11));
        let ats: Vec<u64> = fr.recent().iter().map(Event::at).collect();
        assert_eq!(ats, vec![8, 9, 10, 11]);
    }

    #[test]
    fn partial_ring_reports_everything_in_order() {
        let fr = FlightRecorder::new(10);
        for at in 0..3 {
            fr.push(ev(at));
        }
        assert_eq!(fr.dropped(), 0);
        let ats: Vec<u64> = fr.recent().iter().map(Event::at).collect();
        assert_eq!(ats, vec![0, 1, 2]);
    }

    #[test]
    fn dump_round_trips_through_the_trace_parser() {
        let fr = FlightRecorder::new(3);
        for at in 0..5 {
            fr.push(ev(at));
        }
        let mut buf = Vec::new();
        let n = fr.dump_jsonl(&mut buf).expect("in-memory write");
        assert_eq!(n, 3);
        let parsed = parse_trace(std::str::from_utf8(&buf).expect("utf8")).expect("valid JSONL");
        assert_eq!(parsed, fr.recent());
    }

    #[test]
    fn clear_resets_contents_but_not_history() {
        let fr = FlightRecorder::new(2);
        fr.push(ev(1));
        fr.push(ev(2));
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.total_seen(), 2);
        fr.push(ev(3));
        let ats: Vec<u64> = fr.recent().iter().map(Event::at).collect();
        assert_eq!(ats, vec![3]);
    }
}
