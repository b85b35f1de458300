//! [`SlotWindow`]: per-slot entries over a run of consecutive slots.
//!
//! Slots are dense — every server proposes into the lowest slot it has not
//! seen decided — so what the register bank and the decision log keep per
//! slot spans a short run of consecutive slots rather than points of an
//! ordered map: the decided values above the compacted prefix, the slots
//! decided ahead of the apply cursor, the applied slots some unsettled
//! request still belongs to.

use std::collections::VecDeque;

/// Per-slot entries over a run of consecutive slots: `items[k]` belongs to
/// slot `start + k`. Removing an end entry trims the run to the next held
/// slot, so the run always starts and ends at a held one, and its length
/// is the span between the lowest and the highest slot held. The deque
/// keeps its capacity, so a steady state of a slot or two in the run
/// allocates nothing.
#[derive(Debug)]
pub(crate) struct SlotWindow<T> {
    start: u64,
    items: VecDeque<Option<T>>,
}

impl<T> Default for SlotWindow<T> {
    fn default() -> Self {
        SlotWindow { start: 0, items: VecDeque::new() }
    }
}

impl<T> SlotWindow<T> {
    /// Where `slot` sits in the run, if it is inside it.
    fn at(&self, slot: u64) -> Option<usize> {
        let k = usize::try_from(slot.checked_sub(self.start)?).ok()?;
        (k < self.items.len()).then_some(k)
    }

    pub(crate) fn get(&self, slot: u64) -> Option<&T> {
        self.items[self.at(slot)?].as_ref()
    }

    pub(crate) fn get_mut(&mut self, slot: u64) -> Option<&mut T> {
        let k = self.at(slot)?;
        self.items[k].as_mut()
    }

    /// `slot`'s entry, the run grown to reach it.
    pub(crate) fn entry(&mut self, slot: u64) -> &mut Option<T> {
        if self.items.is_empty() {
            self.start = slot;
        }
        while slot < self.start {
            self.items.push_front(None);
            self.start -= 1;
        }
        let k = usize::try_from(slot - self.start).expect("a slot run fits the address space");
        if k >= self.items.len() {
            self.items.resize_with(k + 1, || None);
        }
        &mut self.items[k]
    }

    /// Takes `slot`'s entry out, trimming the run's empty ends.
    pub(crate) fn remove(&mut self, slot: u64) -> Option<T> {
        let k = self.at(slot)?;
        let item = self.items[k].take();
        while self.items.front().is_some_and(Option::is_none) {
            self.items.pop_front();
            self.start += 1;
        }
        while self.items.back().is_some_and(Option::is_none) {
            self.items.pop_back();
        }
        item
    }

    /// The lowest slot held.
    pub(crate) fn first(&self) -> Option<u64> {
        (!self.items.is_empty()).then_some(self.start)
    }

    /// The highest slot held.
    pub(crate) fn last(&self) -> Option<u64> {
        (!self.items.is_empty()).then(|| self.start + self.items.len() as u64 - 1)
    }

    /// How many slots hold an entry.
    pub(crate) fn held(&self) -> usize {
        self.items.iter().filter(|e| e.is_some()).count()
    }

    /// Whether the run starts and ends at a held slot (or is empty).
    #[cfg(test)]
    pub(crate) fn is_tight(&self) -> bool {
        self.items.front().is_none_or(Option::is_some)
            && self.items.back().is_none_or(Option::is_some)
    }

    /// The slots held, in order.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> impl Iterator<Item = u64> + '_ {
        let start = self.start;
        self.items
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(move |(k, _)| start + k as u64)
    }
}
