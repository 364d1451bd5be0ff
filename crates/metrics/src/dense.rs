//! Id-indexed table for the postmortem analyses: a dense `Vec` plus spill.
//!
//! Recorder ids are almost dense: a [`Trace`] hands out `0, 1, 2, …` and a
//! [`crate::LocalTrace`] hands them out in per-writer blocks, so every id
//! is below `Trace::next_item` and the holes are at most one block per
//! writer. The analyses therefore index by id instead of hashing it. What
//! keeps memory O(events) rather than O(largest id) is the bound fixed at
//! construction: keys at or above it (hand-built traces can carry any id)
//! live in a `BTreeMap` spill — the `vtime::TsStore` idiom. Correctness
//! never depends on which side a key landed on, and [`IdTable::iter`]
//! yields ascending keys either way.

use crate::trace::Trace;
use std::collections::BTreeMap;

/// Values by `u64` key; an absent key reads as `V::default()` or `None`.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdTable<V> {
    /// Keys below this index `dense`; the rest spill.
    bound: u64,
    /// Grown on demand to the largest dense key touched.
    dense: Vec<V>,
    spill: BTreeMap<u64, V>,
}

impl<V: Clone + Default> IdTable<V> {
    /// A table whose dense side never grows beyond `bound` slots.
    pub(crate) fn new(bound: u64) -> Self {
        IdTable {
            bound,
            dense: Vec::new(),
            spill: BTreeMap::new(),
        }
    }

    /// Sized for the item ids of `trace`: the recorder's id bound, capped by
    /// the event count (an id needs an event to matter) so a hand-set
    /// `next_item` cannot inflate it.
    pub(crate) fn for_items(trace: &Trace) -> Self {
        Self::new(trace.next_item().min(trace.len() as u64))
    }

    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        if key < self.bound {
            self.dense.get(key as usize)
        } else {
            self.spill.get(&key)
        }
    }

    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if key < self.bound {
            self.dense.get_mut(key as usize)
        } else {
            self.spill.get_mut(&key)
        }
    }

    /// The slot for `key`, created with the default value when absent.
    pub(crate) fn slot(&mut self, key: u64) -> &mut V {
        if key < self.bound {
            let i = key as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, V::default());
            }
            &mut self.dense[i]
        } else {
            self.spill.entry(key).or_default()
        }
    }

    /// Every slot in ascending key order (holes included, as defaults).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let dense = self.dense.iter().enumerate().map(|(i, v)| (i as u64, v));
        dense.chain(self.spill.iter().map(|(&k, v)| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_spill_agree_and_iterate_in_key_order() {
        let mut t: IdTable<u32> = IdTable::new(4);
        *t.slot(2) = 20;
        *t.slot(u64::MAX) = 9;
        *t.slot(7) = 70;
        *t.slot(0) = 1;
        assert_eq!(t.get(2), Some(&20));
        assert_eq!(t.get(1), Some(&0), "a hole reads as the default");
        assert_eq!(t.get(3), None, "beyond the grown prefix");
        assert_eq!(t.get(8), None);
        *t.get_mut(7).unwrap() += 1;
        let all: Vec<(u64, u32)> = t.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(all, vec![(0, 1), (1, 0), (2, 20), (7, 71), (u64::MAX, 9)]);
    }

    #[test]
    fn memory_follows_the_bound_not_the_key() {
        let mut t: IdTable<u64> = IdTable::new(2);
        *t.slot(u64::MAX - 1) = 5;
        *t.slot(1 << 40) = 6;
        assert!(t.dense.capacity() <= 2);
        assert_eq!(t.spill.len(), 2);
    }
}
