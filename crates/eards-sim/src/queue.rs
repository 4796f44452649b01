//! The pending-event set of the discrete-event engine.
//!
//! A binary min-heap ordered by `(time, sequence)`: two events scheduled for
//! the same instant pop in scheduling order, which makes runs reproducible
//! regardless of heap internals. Cancellation is *lazy*: a cancelled entry
//! stays in the heap as a tombstone and is discarded when it surfaces,
//! keeping both `schedule` and `cancel` O(log n) / O(1).
//!
//! Whether a sequence number is still pending is read from a dense table
//! indexed by sequence number, not from a hash set. The table holds one
//! byte for every event scheduled since the queue was created or restored
//! (about 70 KB for a simulated week of the paper's datacenter). It is not
//! trimmed: the runner schedules its whole arrival stream and its
//! long-range fault timers at t = 0, so the oldest pending event stays old
//! for most of a run and a window starting there would be nearly as long.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::time::SimTime;

/// An opaque handle identifying one scheduled event, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Manual impls: the heap is a max-heap, so reverse the natural order to get
// earliest-first, and among equal times, lowest sequence first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list: the core data structure of the DES engine.
pub struct EventQueue<E> {
    /// Live entries plus the tombstones of cancelled ones.
    heap: BinaryHeap<Entry<E>>,
    /// Pending flags of sequence numbers `base..next_seq`, indexed by
    /// `seq - base`: `true` while the event is scheduled and has neither
    /// fired nor been cancelled.
    pending: Vec<bool>,
    /// First sequence number `pending` covers: 0 for a new queue,
    /// `next_seq` for a restored one.
    base: u64,
    /// The live entries a restored queue inherited (all below `base`),
    /// ascending, with their pending flags. Keeping them apart lets
    /// restore allocate in proportion to the snapshot, not to the span of
    /// sequence numbers its entries cover.
    inherited: Vec<(u64, bool)>,
    /// Number of pending events.
    live: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: Vec::new(),
            base: 0,
            inherited: Vec::new(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Number of live (non-cancelled) scheduled events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `payload` at `time`, returning a handle for cancellation.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        self.pending.push(true);
        self.live += 1;
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired or been cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.settle(handle.0)
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim_cancelled();
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the next live event as `(time, handle, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventHandle, E)> {
        self.skim_cancelled();
        let entry = self.heap.pop()?;
        self.settle(entry.seq);
        Some((entry.time, EventHandle(entry.seq), entry.payload))
    }

    /// True if `seq` is scheduled and has neither fired nor been
    /// cancelled; false also for a sequence number never issued.
    fn is_pending(&self, seq: u64) -> bool {
        match seq.checked_sub(self.base) {
            Some(i) => usize::try_from(i)
                .ok()
                .and_then(|i| self.pending.get(i))
                .is_some_and(|&p| p),
            None => self
                .inherited
                .binary_search_by_key(&seq, |e| e.0)
                .is_ok_and(|i| self.inherited[i].1),
        }
    }

    /// Marks `seq` fired or cancelled; returns whether it was pending.
    fn settle(&mut self, seq: u64) -> bool {
        let flag = match seq.checked_sub(self.base) {
            Some(i) => usize::try_from(i)
                .ok()
                .and_then(|i| self.pending.get_mut(i)),
            None => match self.inherited.binary_search_by_key(&seq, |e| e.0) {
                Ok(i) => self.inherited.get_mut(i).map(|e| &mut e.1),
                Err(_) => None,
            },
        };
        let was_pending = flag.is_some_and(|p| std::mem::replace(p, false));
        if was_pending {
            self.live -= 1;
        }
        was_pending
    }

    /// Drops cancelled entries sitting at the top of the heap.
    fn skim_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.is_pending(top.seq) {
                break;
            }
            self.heap.pop();
        }
    }
}

crate::persist_struct!(EventHandle(seq));

/// Canonical state: `next_seq` plus the live entries with their original
/// sequence numbers, written sorted by `(time, seq)`. Cancelled tombstones
/// are compacted away, but sequence numbers are preserved so
/// [`EventHandle`]s held by callers remain valid across a snapshot.
// lint:allow(SNAP001): not field-for-field; live entries are written sorted without tombstones, and restore validates sequence numbers and rebuilds the pending table
impl<E: Persist> Persist for EventQueue<E> {
    fn persist(&self, w: &mut Writer) {
        let EventQueue {
            heap,
            pending: _,
            base: _,
            inherited: _,
            live: _,
            next_seq,
        } = self;
        w.put_u64(*next_seq);
        let mut live: Vec<&Entry<E>> = heap.iter().filter(|e| self.is_pending(e.seq)).collect();
        live.sort_by_key(|e| (e.time, e.seq));
        w.put_len(live.len());
        for entry in live {
            entry.time.persist(w);
            w.put_u64(entry.seq);
            entry.payload.persist(w);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let next_seq = r.get_u64()?;
        let n = r.get_len()?;
        let mut heap = BinaryHeap::with_capacity(n);
        let mut inherited = Vec::with_capacity(n);
        for _ in 0..n {
            let time = SimTime::restore(r)?;
            let seq = r.get_u64()?;
            let payload = E::restore(r)?;
            if seq >= next_seq {
                return Err(PersistError::Corrupt(format!(
                    "event seq {seq} not below next_seq {next_seq}"
                )));
            }
            inherited.push(seq);
            heap.push(Entry { time, seq, payload });
        }
        inherited.sort_unstable();
        let dup = inherited.windows(2).find_map(|pair| match *pair {
            [a, b] if a == b => Some(a),
            _ => None,
        });
        if let Some(seq) = dup {
            return Err(PersistError::Corrupt(format!("duplicate event seq {seq}")));
        }
        Ok(EventQueue {
            heap,
            pending: Vec::new(),
            base: next_seq,
            live: inherited.len(),
            inherited: inherited.into_iter().map(|seq| (seq, true)).collect(),
            next_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "c");
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(h1), "double cancel must fail");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_fails() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), ());
        let (_, popped, _) = q.pop().unwrap();
        assert_eq!(popped, h);
        assert!(!q.cancel(h));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_handle_fails() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventHandle(12345)));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "dead");
        q.schedule(t(2), "live");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("live"));
    }

    #[test]
    fn persist_round_trip_preserves_order_and_handles() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 50u64);
        let doomed = q.schedule(t(1), 10u64);
        q.schedule(t(3), 30u64);
        let live = q.schedule(t(3), 31u64);
        q.cancel(doomed);

        let mut w = crate::persist::Writer::new();
        q.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r = crate::persist::Reader::new(&bytes);
        let mut restored: EventQueue<u64> = EventQueue::restore(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.len(), q.len());
        // Handles issued before the snapshot still cancel the right entry.
        assert!(restored.cancel(live));
        assert!(q.cancel(live));
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b);
        // New schedules in both queues keep issuing identical handles.
        assert_eq!(q.schedule(t(9), 90u64), restored.schedule(t(9), 90u64));
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        q.schedule(t(20), 20);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(10));
        q.schedule(t(15), 15);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(15));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(20));
        assert_eq!(q.pop().map(|(ti, _, _)| ti), None);
        let _ = SimDuration::ZERO; // keep import used in this cfg
    }

    /// The runner's traffic: long-lived events scheduled first (its
    /// arrival stream and fault timers), then many schedule/cancel/pop
    /// cycles over a small live set. The old events stay pending and
    /// cancellable throughout, the table grows by one flag per scheduled
    /// event, and a persist→restore round trip starts a table sized by the
    /// snapshot's live entries, not by the sequence numbers issued so far.
    #[test]
    fn long_lived_events_survive_many_short_cycles() {
        let mut q = EventQueue::new();
        let far: Vec<EventHandle> = (0..4).map(|i| q.schedule(t(1_000_000 + i), i)).collect();
        let mut lcg = 0x2545_f491_u64;
        let mut delay = move || {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            1 + (lcg >> 33) % 50
        };
        let mut handles: Vec<EventHandle> = (0..16).map(|_| q.schedule(t(delay()), 99)).collect();
        for i in 0..50_000u64 {
            let (now, fired, payload) = q.pop().expect("the live set never empties");
            assert_eq!(payload, 99, "a long-lived event fired early");
            handles.retain(|&h| h != fired);
            if i % 3 == 0 {
                let victim = handles.remove((i as usize / 3) % handles.len());
                assert!(q.cancel(victim));
                handles.push(q.schedule(now + SimDuration::from_secs(delay()), 99));
            }
            handles.push(q.schedule(now + SimDuration::from_secs(delay()), 99));
            assert_eq!(q.len(), 20);
        }
        assert_eq!(q.pending.len() as u64, q.next_seq);
        assert!(q.cancel(far[1]));
        assert!(!q.cancel(far[1]));

        let mut w = crate::persist::Writer::new();
        q.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r: EventQueue<u64> =
            EventQueue::restore(&mut crate::persist::Reader::new(&bytes)).unwrap();
        assert_eq!((r.len(), r.pending.len(), r.inherited.len()), (19, 0, 19));
        assert!(!r.cancel(far[1]), "cancelled before the snapshot");
        for h in handles {
            assert!(r.cancel(h));
        }
        let rest: Vec<u64> = std::iter::from_fn(|| r.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(rest, vec![0, 2, 3]);
        assert!(!r.cancel(far[0]), "already fired");
    }

    #[test]
    fn restore_rejects_duplicate_and_future_sequence_numbers() {
        let encode = |next_seq: u64, seqs: &[u64]| {
            let mut w = crate::persist::Writer::new();
            w.put_u64(next_seq);
            w.put_len(seqs.len());
            for &seq in seqs {
                t(1).persist(&mut w);
                w.put_u64(seq);
                7u64.persist(&mut w);
            }
            w.into_bytes().unwrap()
        };
        let restore = |bytes: &[u8]| {
            EventQueue::<u64>::restore(&mut crate::persist::Reader::new(bytes)).map(|q| q.len())
        };
        assert_eq!(restore(&encode(9, &[4, 2, 8])).ok(), Some(3));
        // Restore allocates by entry count, not by the sequence-number span.
        assert_eq!(restore(&encode(1 << 62, &[4, 1 << 61])).ok(), Some(2));
        match restore(&encode(9, &[4, 2, 4])) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("duplicate event seq 4")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        match restore(&encode(9, &[9])) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("not below next_seq")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A restored queue serves the inherited handles from the sorted
    /// carry-over list and new ones from a table starting at `next_seq`.
    #[test]
    fn restored_handles_settle_once() {
        let mut q = EventQueue::new();
        let old: Vec<EventHandle> = (0..5).map(|i| q.schedule(t(10 + i), i)).collect();
        q.cancel(old[1]);
        let mut w = crate::persist::Writer::new();
        q.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r: EventQueue<u64> =
            EventQueue::restore(&mut crate::persist::Reader::new(&bytes)).unwrap();
        assert_eq!((r.len(), r.pending.len(), r.inherited.len()), (4, 0, 4));
        assert!(!r.cancel(old[1]), "cancelled before the snapshot");
        assert!(r.cancel(old[3]));
        assert!(!r.cancel(old[3]));
        let new = r.schedule(t(1), 99);
        assert_eq!(r.pop().map(|(_, h, p)| (h, p)), Some((new, 99)));
        assert_eq!(r.pop().map(|(_, h, p)| (h, p)), Some((old[0], 0)));
        assert!(!r.cancel(old[0]), "already fired");
        let rest: Vec<u64> = std::iter::from_fn(|| r.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(rest, vec![2, 4]);
        assert!(r.is_empty() && r.inherited.iter().all(|e| !e.1));
    }
}
