//! Bounded lock-free MPMC ring with per-slot sequence numbers.
//!
//! This is the data-plane half of the lock-free hot path (DESIGN.md §14):
//! a crossbeam-`ArrayQueue`-style ring where every slot carries a
//! sequence counter that encodes, relative to the unwrapped head/tail
//! positions, whether the slot is free for the push at that position,
//! holds a poppable item, or is mid-transfer. Producers and consumers
//! claim positions with a single CAS on `tail`/`head`; the payload
//! transfer itself is a plain (non-atomic) move guarded by the slot's
//! acquire/release sequence protocol.
//!
//! **Slot protocol** (capacity `cap`, position `pos`, slot `pos & mask`):
//!
//! | `seq` value     | meaning                                         |
//! |-----------------|-------------------------------------------------|
//! | `pos`           | free; the push that claims `pos` may write      |
//! | `pos + 1`       | full; the pop that claims `pos` may read        |
//! | `pos + cap`     | freed this lap; next-lap push at `pos+cap` sees it as free |
//! | anything less   | an earlier lap's transfer is still in flight    |
//!
//! **Transient full/empty is reported as full/empty.** When a competitor
//! has claimed a position but not yet released the slot (`seq` lags the
//! claimed position), `try_push`/`try_pop` return `Full`/`None` instead
//! of spinning until the competitor finishes. The caller treats it as a
//! capacity/empty condition and takes the parking path. This is what
//! keeps every loop here bounded: a retry happens only after a CAS
//! failure, which proves another thread advanced the counter. Under the
//! vendored loom scheduler (which may never preempt a runnable thread)
//! an unbounded "wait for the other thread's store" spin would livelock;
//! blocking on the parking condvar instead gives the model a schedulable
//! edge.

use crate::sync::atomic::{AtomicU64, Ordering};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

/// Pad to a cache line so head and tail don't false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T> {
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free MPMC ring. Capacity is rounded up to a power of two.
pub(crate) struct MpmcRing<T> {
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    slots: Box<[Slot<T>]>,
    mask: u64,
}

// SAFETY: slot payloads are transferred by value under the seq protocol —
// exactly one thread has claimed any given position between the claim CAS
// and the seq release-store, so the UnsafeCell is never accessed
// concurrently. T crossing threads requires T: Send; the ring itself
// never hands out references to the payload.
unsafe impl<T: Send> Send for MpmcRing<T> {}
unsafe impl<T: Send> Sync for MpmcRing<T> {}

impl<T> MpmcRing<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two() as u64;
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpmcRing {
            head: CachePadded(AtomicU64::new(0)),
            tail: CachePadded(AtomicU64::new(0)),
            slots,
            mask: cap - 1,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Items currently in the ring (racy snapshot; exact when quiescent).
    pub(crate) fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::SeqCst);
        let head = self.head.0.load(Ordering::SeqCst);
        tail.saturating_sub(head) as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push one item; `Err(value)` when the ring is full (or a transfer at
    /// the tail position is still in flight — treated as full, see the
    /// module docs).
    pub(crate) fn try_push(&self, value: T) -> Result<(), T> {
        let cap = self.slots.len() as u64;
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(tail & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == tail {
                match self.tail.0.compare_exchange(
                    tail,
                    tail + 1,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed position `tail`
                        // exclusively; the slot's seq said it is free.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(tail + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => tail = actual, // competitor advanced: retry
                }
            } else if seq < tail {
                // Occupied from the previous lap (full), or a pop at
                // `tail - cap` hasn't released yet (transient — also full).
                return Err(value);
            } else {
                // seq > tail: our tail read is stale; a push at `tail`
                // already completed, so the counter has moved.
                let cur = self.tail.0.load(Ordering::Relaxed);
                if cur == tail {
                    debug_assert!(seq >= tail + cap, "seq ahead of an unmoved tail");
                    return Err(value); // freed for a future lap we can't reach yet
                }
                tail = cur;
            }
        }
    }

    /// Pop one item; `None` when empty (or the push at the head position
    /// is still in flight — treated as empty).
    pub(crate) fn try_pop(&self) -> Option<T> {
        let cap = self.slots.len() as u64;
        let mut head = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(head & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == head + 1 {
                match self.head.0.compare_exchange(
                    head,
                    head + 1,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed position `head`
                        // exclusively; the slot's seq said it holds a value.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(head + cap, Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => head = actual,
                }
            } else if seq <= head {
                // Free (empty), or a push claimed `head` but hasn't
                // released (transient — also empty).
                return None;
            } else {
                let cur = self.head.0.load(Ordering::Relaxed);
                if cur == head {
                    return None;
                }
                head = cur;
            }
        }
    }
}

impl<T> Drop for MpmcRing<T> {
    fn drop(&mut self) {
        // Exclusive access: drain whatever is still in flight.
        while self.try_pop().is_some() {}
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let r: MpmcRing<u64> = MpmcRing::new(4);
        assert_eq!(r.capacity(), 4);
        for i in 0..4 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.try_push(99), Err(99));
        assert_eq!(r.len(), 4);
        for i in 0..4 {
            assert_eq!(r.try_pop(), Some(i));
        }
        assert_eq!(r.try_pop(), None);
        // Wrap-around: keeps working across laps.
        for lap in 0..10u64 {
            r.try_push(lap).unwrap();
            assert_eq!(r.try_pop(), Some(lap));
        }
    }

    #[test]
    fn drop_drains_in_flight_items() {
        let r: MpmcRing<std::sync::Arc<u64>> = MpmcRing::new(8);
        let v = std::sync::Arc::new(7u64);
        for _ in 0..5 {
            r.try_push(std::sync::Arc::clone(&v)).unwrap();
        }
        assert_eq!(std::sync::Arc::strong_count(&v), 6);
        drop(r);
        assert_eq!(std::sync::Arc::strong_count(&v), 1);
    }

    #[test]
    fn concurrent_mpmc_no_loss_no_dup() {
        use std::sync::atomic::{AtomicU64 as StdU64, Ordering as O};
        let r: MpmcRing<u64> = MpmcRing::new(64);
        const PER: u64 = 20_000;
        const PRODUCERS: u64 = 3;
        let sum = StdU64::new(0);
        let count = StdU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let r = &r;
                s.spawn(move || {
                    for i in 0..PER {
                        let mut v = p * PER + i;
                        loop {
                            match r.try_push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..3 {
                let (r, sum, count) = (&r, &sum, &count);
                s.spawn(move || loop {
                    if count.load(O::SeqCst) >= PRODUCERS * PER {
                        break;
                    }
                    match r.try_pop() {
                        Some(v) => {
                            sum.fetch_add(v, O::SeqCst);
                            count.fetch_add(1, O::SeqCst);
                        }
                        None => std::thread::yield_now(),
                    }
                });
            }
        });
        let n = PRODUCERS * PER;
        assert_eq!(count.load(O::SeqCst), n);
        assert_eq!(sum.load(O::SeqCst), n * (n - 1) / 2);
    }
}
