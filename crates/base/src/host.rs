//! The host core: what a node is, written once for both runtimes.
//!
//! The paper's §2 model is one model — a crash loses volatile state and
//! keeps stable storage ([`crate::wal::StableStorage`]), a paused process
//! is merely slow — so both hosts (the event kernel in `etx-sim`, on its
//! virtual clock as the simulator and on the wall clock as `etx-rt`'s
//! threaded host) implement it with these rules:
//!
//! * [`Life`] says which lifecycle transitions apply and what each
//!   records;
//! * [`TimeQueue`] orders timed actions by instant, ties in push order,
//!   in a radix heap that pops without comparing entries — nothing may be
//!   pushed before the last pop's instant — and drops cancelled timers,
//!   one at a time as they come due, and all at once when they are more
//!   than half the queue;
//! * [`record`] is how an event enters a run.
//!
//! What is left to the kernel is its own: one queue of every action of the
//! run, the paused nodes' stash and the clock, which decides when a step
//! runs and how long a link takes. Either way every node runs on the
//! thread that calls the run loop.

use crate::fault::{Prim, Triggers};
use crate::ids::TimerId;
use crate::time::Time;
use crate::trace::{Trace, TraceEvent, TraceKind};
use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};

/// Where a node stands in the §2 lifecycle. Each host keeps one per node
/// and changes it only through [`Life::next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Life {
    /// Running.
    Up,
    /// Alive but stopped: its inputs wait, nothing is lost.
    Paused,
    /// Crashed: volatile state gone, stable storage kept.
    Down,
}

impl Life {
    /// The transition a lifecycle primitive makes from here: the node's
    /// next state and the event that records it. A crash takes an up or a
    /// paused node down (which ends the pause), a recovery brings a down
    /// node up, a pause stops an up node and a resume restarts a paused
    /// one. Anything else — and a link primitive — is `None`: it does not
    /// apply and records nothing.
    pub fn next(self, prim: Prim) -> Option<(Life, TraceKind)> {
        match (self, prim) {
            (Life::Up | Life::Paused, Prim::Crash(_)) => Some((Life::Down, TraceKind::Crash)),
            (Life::Down, Prim::Recover(_)) => Some((Life::Up, TraceKind::Recover)),
            (Life::Up, Prim::Pause(_)) => Some((Life::Paused, TraceKind::Pause)),
            (Life::Paused, Prim::Resume(_)) => Some((Life::Up, TraceKind::Resume)),
            _ => None,
        }
    }
}

/// The one way an event enters a run, on either host: offered to the
/// armed triggers, then kept in the trace unless it is a span (spans are
/// summed per node, in [`crate::metrics::SpanTotals`]).
#[inline]
pub fn record(trace: &mut Trace, triggers: &mut Triggers, ev: TraceEvent) {
    triggers.offer(&ev);
    if !matches!(ev.kind, TraceKind::Span { .. }) {
        trace.push(ev);
    }
}

/// What a [`TimeQueue`] needs to know of an item: whether it fires a timer.
pub trait Timed {
    /// The timer this item fires, if it is one.
    fn timer(&self) -> Option<TimerId>;
}

/// A [`TimeQueue`] key: when an item is due and the slot it waits in.
#[derive(Clone, Copy)]
struct Key {
    at: Time,
    slot: u32,
}

/// Timed actions, popped in `(at, push order)` order: by instant, ties in
/// push order. The order is total, so a run that pushes the same entries
/// pops them the same way.
///
/// It is a radix heap: popping compares no two entries. Each item is
/// written once into a slot and read once from it; what moves is a
/// 16-byte key. A key due after the last pop's instant `last` waits in
/// bucket `b`, where bit `b` is the highest bit in which its instant
/// differs from `last`. A pop takes the lowest non-empty bucket: its only
/// key, or, when it holds several, moves `last` to their earliest instant
/// and spreads them, in their order, over the buckets below and the queue
/// of keys due at `last`.
///
/// **The push contract:** nothing is pushed before the last pop's instant
/// (a peek with [`TimeQueue::next_at`] does not count). The kernel
/// pushes at its clock plus a delay, and its clock is never behind the
/// last pop: on the wall clock a step runs at a reading taken after its
/// entry came due. A debug build asserts it.
///
/// **Why ties keep push order:** a key's bucket depends only on the bits
/// of its instant above the highest one that differs from `last`, and a
/// spread leaves those bits of `last` as they were; so keys of one
/// instant always share a bucket. Buckets are appended to in push order,
/// and a spread moves keys, in order, into buckets that are empty when it
/// starts.
///
/// A cancelled timer leaves the queue: popped, it comes back marked
/// cancelled and its id is forgotten; and once cancelled ids are *more than*
/// half the queue, one pass drops every cancelled timer and forgets the
/// ids, so a protocol that cancels what it no longer needs does not pay
/// to pop it. What stays pops exactly as it would have.
pub struct TimeQueue<T> {
    /// The items, each in the slot its key names; `None` in a free slot.
    slots: Vec<Option<T>>,
    /// Free slots, the last freed reused first.
    free: Vec<u32>,
    /// The instant of the last pop.
    last: Time,
    /// Keys due at `last`, in push order.
    due: VecDeque<Key>,
    /// Keys due after `last`, by the highest bit in which their instant
    /// differs from it; each bucket in push order. Inline: a new queue
    /// allocates nothing.
    buckets: [Vec<Key>; 64],
    /// Bit `b` is set when bucket `b` holds a key.
    occupied: u64,
    /// The earliest instant in the buckets, once a peek has found it: a
    /// push lowers it, a pop from the buckets or a compaction forgets it.
    /// The wall-clock run loop peeks before every step, and a scan per
    /// peek showed.
    min: Cell<Option<Time>>,
    /// Cancelled timers not yet popped or compacted away. Ordered, not
    /// hashed: a hash set that grows and shrinks reallocates or not by
    /// where its per-process random keys put the tombstones, and a run's
    /// allocation count is gated to repeat exactly (`tests/alloc_budget.rs`).
    cancelled: BTreeSet<u64>,
}

impl<T> Default for TimeQueue<T> {
    fn default() -> Self {
        TimeQueue {
            slots: Vec::new(),
            free: Vec::new(),
            last: Time::ZERO,
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            min: Cell::new(None),
            cancelled: BTreeSet::new(),
        }
    }
}

impl<T: Timed> TimeQueue<T> {
    /// Queues `item` at `at`, after everything already queued for `at`.
    /// `at` must not be before the last pop's instant.
    pub fn push(&mut self, at: Time, item: T) {
        debug_assert!(at >= self.last, "pushed at {at:?}, before the last pop at {:?}", self.last);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(item);
                slot
            }
            None => {
                self.slots.push(Some(item));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 entries queued")
            }
        };
        let key = Key { at, slot };
        if at == self.last {
            self.due.push_back(key);
        } else {
            let min = if self.occupied == 0 { Some(at) } else { self.min.get().map(|m| m.min(at)) };
            self.min.set(min);
            self.file(key);
        }
    }

    /// Puts a key due after `last` into its bucket.
    fn file(&mut self, key: Key) {
        let b = 63 - (key.at.0 ^ self.last.0).leading_zeros() as usize;
        self.buckets[b].push(key);
        self.occupied |= 1 << b;
    }

    /// When the earliest entry is due (it may be a cancelled timer).
    pub fn next_at(&self) -> Option<Time> {
        if !self.due.is_empty() {
            return Some(self.last);
        }
        if self.occupied == 0 {
            return None;
        }
        if self.min.get().is_none() {
            let lowest = &self.buckets[self.occupied.trailing_zeros() as usize];
            self.min.set(lowest.iter().map(|k| k.at).min());
        }
        self.min.get()
    }

    /// Entries queued, cancelled timers not yet dropped included.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cancelled ids not yet popped or compacted away.
    pub fn pending_cancels(&self) -> usize {
        self.cancelled.len()
    }

    /// Pops the earliest entry: its instant, its item, and whether the
    /// item is a cancelled timer — which a host drops unseen, and whose id
    /// is forgotten now. A flag beside the item, not an `Option` around
    /// it: moving the item through an `Option` made the simulator's
    /// paper-shape run about 10 % slower.
    pub fn pop(&mut self) -> Option<(Time, T, bool)> {
        let key = match self.due.pop_front() {
            Some(key) => key,
            None => self.advance()?,
        };
        let item =
            self.slots[key.slot as usize].take().expect("a queued key's slot holds its item");
        self.free.push(key.slot);
        let cancelled = item.timer().is_some_and(|id| self.cancelled.remove(&id.0));
        Some((key.at, item, cancelled))
    }

    /// Moves `last` to the earliest instant in the buckets and takes the
    /// first key due then; `None` if the buckets are empty.
    fn advance(&mut self) -> Option<Key> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let min = self.min.take();
        if self.buckets[b].len() == 1 {
            let key = self.buckets[b].pop().expect("one key");
            self.last = key.at;
            return Some(key);
        }
        let mut keys = std::mem::take(&mut self.buckets[b]);
        self.last = min.unwrap_or_else(|| keys.iter().map(|k| k.at).min().expect("occupied"));
        for &key in &keys {
            if key.at == self.last {
                self.due.push_back(key);
            } else {
                self.file(key);
            }
        }
        keys.clear();
        self.buckets[b] = keys;
        self.due.pop_front()
    }

    /// Cancels timer `id`; a no-op if it already fired or was cancelled.
    pub fn cancel(&mut self, id: TimerId) {
        self.cancelled.insert(id.0);
        if self.cancelled.len() * 2 > self.len() {
            self.compact();
        }
    }

    /// Drops every cancelled timer, in place, and forgets the ids.
    fn compact(&mut self) {
        let mut keep = |key: &Key| {
            let slot = key.slot as usize;
            let timer = self.slots[slot].as_ref().and_then(Timed::timer);
            let dead = timer.is_some_and(|id| self.cancelled.contains(&id.0));
            if dead {
                self.slots[slot] = None;
                self.free.push(key.slot);
            }
            !dead
        };
        self.due.retain(&mut keep);
        let mut occupied = self.occupied;
        while occupied != 0 {
            let b = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            self.buckets[b].retain(&mut keep);
            if self.buckets[b].is_empty() {
                self.occupied &= !(1 << b);
            }
        }
        self.min.set(None);
        self.cancelled.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultOp, TracePred};
    use crate::ids::NodeId;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn each_lifecycle_primitive_applies_from_its_states_only() {
        let n = NodeId(0);
        let (crash, recover, pause, resume) =
            (Prim::Crash(n), Prim::Recover(n), Prim::Pause(n), Prim::Resume(n));
        let table = [
            (Life::Up, crash, Some((Life::Down, TraceKind::Crash))),
            (Life::Paused, crash, Some((Life::Down, TraceKind::Crash))),
            (Life::Down, crash, None),
            (Life::Down, recover, Some((Life::Up, TraceKind::Recover))),
            (Life::Up, recover, None),
            (Life::Paused, recover, None),
            (Life::Up, pause, Some((Life::Paused, TraceKind::Pause))),
            (Life::Paused, pause, None),
            (Life::Down, pause, None),
            (Life::Paused, resume, Some((Life::Up, TraceKind::Resume))),
            (Life::Up, resume, None),
            (Life::Down, resume, None),
            (Life::Up, Prim::CutLink { from: n, to: n }, None),
        ];
        for (life, prim, want) in table {
            assert_eq!(life.next(prim), want, "{prim:?} from {life:?}");
        }
    }

    #[test]
    fn a_recorded_event_is_offered_then_kept_unless_it_is_a_span() {
        let (mut trace, mut triggers) = (Trace::default(), Triggers::default());
        let on_span: TracePred = Arc::new(|ev| matches!(ev.kind, TraceKind::Span { .. }));
        triggers.arm(on_span, FaultOp::Crash(NodeId(1)));
        let rid = crate::ids::ResultId::first(crate::ids::RequestId { client: NodeId(0), seq: 1 });
        let span = TraceKind::Span { rid, comp: crate::trace::Component::Sql };
        record(&mut trace, &mut triggers, TraceEvent::new(Time(1), NodeId(0), TraceKind::Crash));
        record(&mut trace, &mut triggers, TraceEvent::new(Time(2), NodeId(0), span));
        assert_eq!(triggers.fired(), [FaultOp::Crash(NodeId(1))], "the span was offered");
        assert_eq!(trace.len(), 1, "and not kept");
    }

    /// A timer numbered `id`, or (`None`) some other action.
    struct Item(Option<u64>);
    impl Timed for Item {
        fn timer(&self) -> Option<TimerId> {
            self.0.map(TimerId)
        }
    }

    /// Pops everything: each entry's instant, its item's number (`None`
    /// for an action that is not a timer), and whether it was cancelled.
    fn drain(q: &mut TimeQueue<Item>) -> Vec<(u64, Option<u64>, bool)> {
        std::iter::from_fn(|| q.pop())
            .map(|(at, item, cancelled)| (at.0, item.0, cancelled))
            .collect()
    }

    #[test]
    fn entries_pop_by_instant_then_push_order_and_a_cancelled_timer_pops_marked() {
        let mut q = TimeQueue::default();
        for (at, id) in [(2, 1), (1, 2), (2, 3), (1, 4)] {
            q.push(Time(at), Item(Some(id)));
        }
        q.push(Time(1), Item(None));
        q.cancel(TimerId(3));
        assert_eq!((q.len(), q.pending_cancels()), (5, 1), "one of five: no compaction");
        let live = |at, id| (at, Some(id), false);
        let popped = [live(1, 2), live(1, 4), (1, None, false), live(2, 1), (2, Some(3), true)];
        assert_eq!(drain(&mut q), popped);
        assert_eq!(q.pending_cancels(), 0, "popped, the cancelled id is forgotten");
    }

    #[test]
    fn more_cancelled_than_half_the_queue_compacts_it_in_order() {
        let mut q = TimeQueue::default();
        for id in 0..6 {
            q.push(Time(id % 2), Item(Some(id)));
        }
        for id in [0, 1, 2] {
            q.cancel(TimerId(id));
        }
        assert_eq!((q.len(), q.pending_cancels()), (6, 3), "half is not more than half");
        q.cancel(TimerId(4));
        assert_eq!((q.len(), q.pending_cancels()), (2, 0), "compacted and forgotten");
        assert_eq!(drain(&mut q), [(1, Some(3), false), (1, Some(5), false)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the last pop")]
    fn a_push_before_the_last_pop_is_refused_in_a_debug_build() {
        let mut q = TimeQueue::default();
        q.push(Time(5), Item(None));
        q.pop();
        q.push(Time(4), Item(None));
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Push at the last pop's instant plus the delay; a timer or not.
        Push(u64, bool),
        Pop,
        /// Cancel the `n`th (wrapping) live timer, popped timer, or an id
        /// never pushed.
        CancelLive(usize),
        CancelPopped(usize),
        CancelUnknown(u64),
        /// Peek. Only this op peeks, so a pop may or may not follow one.
        NextAt,
    }

    fn ops() -> impl proptest::strategy::Strategy<Value = Vec<Op>> {
        use proptest::strategy::Strategy;
        let op = (0u8..16, 0u64..8, 0u64..1 << 40, 0usize..64).prop_map(|(op, small, big, n)| {
            match op {
                // Ties at `last`, near instants that collide, far ones.
                0 | 1 => Op::Push(0, n % 3 != 0),
                2..=4 => Op::Push(small, n % 3 != 0),
                5 => Op::Push(big, n % 3 != 0),
                6..=9 => Op::Pop,
                10 | 11 => Op::CancelLive(n),
                12 => Op::CancelPopped(n),
                13 => Op::CancelUnknown(big | 1 << 50),
                _ => Op::NextAt,
            }
        });
        proptest::collection::vec(op, 1..200)
    }

    proptest::proptest! {
        /// The queue is a `BTreeMap<(at, push number), item>` with the
        /// same cancel rule: under random interleavings of pushes (ties at
        /// the last pop, near and far instants), pops, cancels of live,
        /// popped and unknown timers, and peeks, every pop, `len`,
        /// `pending_cancels` and `next_at` are the model's after every
        /// step (`next_at` at every peek), compactions at the
        /// more-than-half threshold included.
        #[test]
        fn the_queue_matches_an_ordered_map(ops in ops()) {
            let mut q = TimeQueue::default();
            let mut model: BTreeMap<(u64, u64), Option<u64>> = BTreeMap::new();
            let mut cancelled: BTreeSet<u64> = BTreeSet::new();
            let (mut pushes, mut last, mut popped) = (0u64, 0u64, Vec::new());
            for op in ops {
                match op {
                    Op::Push(delay, timer) => {
                        pushes += 1;
                        let id = timer.then_some(pushes);
                        q.push(Time(last + delay), Item(id));
                        model.insert((last + delay, pushes), id);
                    }
                    Op::Pop => {
                        let want = model.pop_first().map(|((at, _), id)| {
                            last = at;
                            (at, id, id.is_some_and(|id| cancelled.remove(&id)))
                        });
                        let got = q.pop().map(|(at, item, c)| (at.0, item.0, c));
                        proptest::prop_assert_eq!(got, want);
                        popped.extend(want.and_then(|(_, id, _)| id));
                    }
                    Op::CancelLive(_) | Op::CancelPopped(_) | Op::CancelUnknown(_) => {
                        let live: Vec<u64> = model.values().flatten().copied().collect();
                        let id = match op {
                            Op::CancelLive(n) if !live.is_empty() => live[n % live.len()],
                            Op::CancelPopped(n) if !popped.is_empty() => popped[n % popped.len()],
                            Op::CancelUnknown(id) => id,
                            _ => continue,
                        };
                        q.cancel(TimerId(id));
                        cancelled.insert(id);
                        if cancelled.len() * 2 > model.len() {
                            model.retain(|_, id| !id.is_some_and(|id| cancelled.contains(&id)));
                            cancelled.clear();
                        }
                    }
                    Op::NextAt => {
                        let want = model.keys().next().map(|&(at, _)| Time(at));
                        proptest::prop_assert_eq!(q.next_at(), want);
                    }
                }
                proptest::prop_assert_eq!(q.len(), model.len());
                proptest::prop_assert_eq!(q.is_empty(), model.is_empty());
                proptest::prop_assert_eq!(q.pending_cancels(), cancelled.len());
            }
        }
    }
}
