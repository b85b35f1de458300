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
//! * [`TimeQueue`] orders timed actions by the key `(at, seq)`: by
//!   instant, then by a sequence number it issues at each push — or
//!   earlier, to a caller that reserves one and pushes under it later. It
//!   is a radix heap that pops without comparing instants — nothing may be
//!   pushed before the last pop's instant — numbers the timers it queues
//!   so that an id names its timer's slot, and drops cancelled timers,
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
use std::collections::VecDeque;

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

/// A [`TimeQueue`] key: when an item is due, its sequence number, and the
/// slot it waits in.
#[derive(Clone, Copy)]
struct Key {
    at: Time,
    seq: u64,
    slot: u32,
}

/// Timed actions, popped in the order of the key `(at, seq)`: by instant,
/// ties by sequence number. The queue issues the numbers, from 1, one per
/// [`TimeQueue::push`] — so ties pop in push order — or one per
/// [`TimeQueue::reserve`], for an item the caller pushes later with
/// [`TimeQueue::push_at`]: that item pops where it would have had it been
/// pushed at its reservation. The key is unique, so the order is total,
/// and a run that pushes the same entries pops them the same way.
///
/// It is a radix heap: popping compares no two instants. Each item is
/// written once into a slot and read once from it; what moves is a
/// 24-byte key. A key due after the last pop's instant `last` waits in
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
/// **Why ties pop by sequence number:** a key's bucket depends only on the
/// bits of its instant above the highest one that differs from `last`,
/// and a spread leaves those bits of `last` as they were; so keys of one
/// instant always share a bucket, and they all reach the queue of keys due
/// at `last` before any of them pops. That queue inserts by sequence
/// number. A fresh number is the highest issued, so without reservations
/// every insert is at the back: buckets are appended to in push order,
/// and a spread moves keys, in order, into buckets that are empty when it
/// starts.
///
/// **Cancelling in the timer's own slot:** [`TimeQueue::push_timer`]
/// numbers each timer it queues and hands out an id that carries the slot
/// the timer waits in (its low 32 bits) beside that number (its high 32
/// bits), so ids are unique and order as the timers were armed. A cancel
/// reads the slot off the id, checks that the slot still holds that timer
/// — not one that has fired, nor a later entry that reused the slot — and
/// marks it, in O(1). A timer pushed again after a pop (a paused node's
/// stash, replayed) waits in another slot; the queue keeps the few such
/// timers in a short list beside the slots, and a cancel that misses the
/// home slot looks there.
///
/// A cancelled timer leaves the queue: popped, it comes back marked
/// cancelled; and once marked timers are *more than* half the queue, one
/// pass drops every one of them, so a protocol that cancels what it no
/// longer needs does not pay to pop it. Cancelling a timer that already
/// fired, or one already cancelled, changes nothing and counts nothing.
/// What stays pops exactly as it would have.
pub struct TimeQueue<T> {
    /// The entries, each in the slot its key names; no item in a free slot.
    slots: Vec<Entry<T>>,
    /// Free slots, the last freed reused first.
    free: Vec<u32>,
    /// The instant of the last pop.
    last: Time,
    /// Keys due at `last`, by sequence number.
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
    /// Sequence numbers issued so far: the last one issued.
    seqs: u64,
    /// Timers numbered so far: the high half of the last id issued.
    timers: u64,
    /// Queued timers marked cancelled.
    cancelled: usize,
    /// Timers queued in a slot other than the one their id names — pushed
    /// again after a pop — with the slot each waits in. Empty unless a
    /// paused node's stash was replayed, and short then.
    moved: Vec<(TimerId, u32)>,
}

/// One slot of a [`TimeQueue`].
struct Entry<T> {
    item: Option<T>,
    /// The item is a timer someone cancelled.
    cancelled: bool,
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
            seqs: 0,
            timers: 0,
            cancelled: 0,
            moved: Vec::new(),
        }
    }
}

/// The slot a [`TimeQueue`] timer id names.
fn home(id: TimerId) -> u32 {
    id.0 as u32
}

impl<T: Timed> TimeQueue<T> {
    /// Queues the timer `make` builds around the id this returns, at `at`
    /// (see [`TimeQueue::push`]). The id is the timer's number in this
    /// queue, from 1, above the slot it waits in; a queue numbers fewer
    /// than 2^32 timers.
    pub fn push_timer(&mut self, at: Time, make: impl FnOnce(TimerId) -> T) -> TimerId {
        self.timers += 1;
        assert!(self.timers >> 32 == 0, "fewer than 2^32 timers armed");
        let slot = self.free.last().map_or(self.slots.len() as u64, |&slot| u64::from(slot));
        let id = TimerId(self.timers << 32 | slot);
        self.push(at, make(id));
        id
    }

    /// Queues `item` at `at` under a fresh sequence number: after
    /// everything already queued for `at`. `at` must not be before the last
    /// pop's instant.
    pub fn push(&mut self, at: Time, item: T) {
        let seq = self.reserve();
        self.push_at(at, seq, item);
    }

    /// Issues the next sequence number without queueing anything, for an
    /// item that [`TimeQueue::push_at`] queues later.
    pub fn reserve(&mut self) -> u64 {
        self.seqs += 1;
        self.seqs
    }

    /// Queues `item` at `at` under `seq`, a number [`TimeQueue::reserve`]
    /// issued and no other item holds. `at` must not be before the last
    /// pop's instant. A timer that lands in a slot other than the one its
    /// id names — one pushed again after its pop — is noted where a cancel
    /// will look for it.
    pub fn push_at(&mut self, at: Time, seq: u64, item: T) {
        debug_assert!(at >= self.last, "pushed at {at:?}, before the last pop at {:?}", self.last);
        debug_assert!(seq <= self.seqs, "seq {seq} was never issued");
        let timer = item.timer();
        let entry = Entry { item: Some(item), cancelled: false };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 entries queued")
            }
        };
        if let Some(id) = timer.filter(|&id| home(id) != slot) {
            self.moved.push((id, slot));
        }
        let key = Key { at, seq, slot };
        if at == self.last {
            self.queue_due(key);
        } else {
            let min = if self.occupied == 0 { Some(at) } else { self.min.get().map(|m| m.min(at)) };
            self.min.set(min);
            self.file(key);
        }
    }

    /// Puts a key due at `last` behind every due key with a lower sequence
    /// number: at the back, unless it was pushed under a reservation.
    fn queue_due(&mut self, key: Key) {
        if self.due.back().is_none_or(|back| back.seq < key.seq) {
            return self.due.push_back(key);
        }
        let at = self.due.iter().rposition(|k| k.seq < key.seq).map_or(0, |i| i + 1);
        self.due.insert(at, key);
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

    /// Cancelled timers not yet popped or compacted away.
    pub fn pending_cancels(&self) -> usize {
        self.cancelled
    }

    /// Pops the entry with the lowest key: its instant, its sequence
    /// number, its item, and whether the item is a cancelled timer — which
    /// a host drops unseen. A flag beside the item, not an `Option` around
    /// it: moving the item through an `Option` made the simulator's
    /// paper-shape run about 10 % slower.
    pub fn pop(&mut self) -> Option<(Time, u64, T, bool)> {
        let key = match self.due.pop_front() {
            Some(key) => key,
            None => self.advance()?,
        };
        let entry = &mut self.slots[key.slot as usize];
        let item = entry.item.take().expect("a queued key's slot holds its item");
        let cancelled = std::mem::take(&mut entry.cancelled);
        self.cancelled -= usize::from(cancelled);
        self.free.push(key.slot);
        if !self.moved.is_empty() {
            self.moved.retain(|&(_, slot)| slot != key.slot);
        }
        Some((key.at, key.seq, item, cancelled))
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
                self.queue_due(key);
            } else {
                self.file(key);
            }
        }
        keys.clear();
        self.buckets[b] = keys;
        self.due.pop_front()
    }

    /// Cancels timer `id`, if it is queued. Either way, a queue whose
    /// cancelled timers are more than half of it compacts.
    pub fn cancel(&mut self, id: TimerId) {
        if let Some(slot) = self.slot_of(id) {
            let entry = &mut self.slots[slot as usize];
            self.cancelled += usize::from(!entry.cancelled);
            entry.cancelled = true;
        }
        if self.cancelled * 2 > self.len() {
            self.compact();
        }
    }

    /// The slot timer `id` waits in, if it is queued: the one its id
    /// names, unless that slot holds something else by now, or else the
    /// one it was pushed again into.
    fn slot_of(&self, id: TimerId) -> Option<u32> {
        let slot = home(id);
        let there = self.slots.get(slot as usize).and_then(|entry| entry.item.as_ref());
        if there.and_then(Timed::timer) == Some(id) {
            return Some(slot);
        }
        self.moved.iter().find(|&&(moved, _)| moved == id).map(|&(_, slot)| slot)
    }

    /// Drops every cancelled timer, in place.
    fn compact(&mut self) {
        let mut keep = |key: &Key| {
            let entry = &mut self.slots[key.slot as usize];
            if entry.cancelled {
                *entry = Entry { item: None, cancelled: false };
                self.free.push(key.slot);
            }
            entry.item.is_some()
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
        self.cancelled = 0;
        if !self.moved.is_empty() {
            let slots = &self.slots;
            self.moved.retain(|&(_, slot)| slots[slot as usize].item.is_some());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultOp, TracePred};
    use crate::ids::NodeId;
    use std::collections::{BTreeMap, BTreeSet};
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

    /// A timer, by the id its queue gave it, or (`None`) some other action.
    struct Item(Option<TimerId>);
    impl Timed for Item {
        fn timer(&self) -> Option<TimerId> {
            self.0
        }
    }

    /// Queues a timer at `at` and returns its id.
    fn timer(q: &mut TimeQueue<Item>, at: u64) -> TimerId {
        q.push_timer(Time(at), |id| Item(Some(id)))
    }

    /// Pops everything: each entry's instant, its timer's id (`None` for
    /// an action that is not a timer), and whether it was cancelled.
    fn drain(q: &mut TimeQueue<Item>) -> Vec<(u64, Option<TimerId>, bool)> {
        std::iter::from_fn(|| q.pop())
            .map(|(at, _, item, cancelled)| (at.0, item.0, cancelled))
            .collect()
    }

    #[test]
    fn entries_pop_by_instant_then_push_order_and_a_cancelled_timer_pops_marked() {
        let mut q = TimeQueue::default();
        let ids: Vec<TimerId> = [2, 1, 2, 1].into_iter().map(|at| timer(&mut q, at)).collect();
        q.push(Time(1), Item(None));
        q.cancel(ids[2]);
        assert_eq!((q.len(), q.pending_cancels()), (5, 1), "one of five: no compaction");
        let live = |at, i: usize| (at, Some(ids[i]), false);
        let popped =
            [live(1, 1), live(1, 3), (1, None, false), live(2, 0), (2, Some(ids[2]), true)];
        assert_eq!(drain(&mut q), popped);
        assert_eq!(q.pending_cancels(), 0, "popped, the mark goes with it");
    }

    #[test]
    fn a_timer_id_names_its_slot_beside_its_number() {
        let mut q = TimeQueue::default();
        let (a, b) = (timer(&mut q, 1), timer(&mut q, 1));
        assert_eq!(
            (a, b),
            (TimerId(1 << 32), TimerId(2 << 32 | 1)),
            "numbers from 1, slots from 0"
        );
        q.pop();
        let c = timer(&mut q, 2);
        assert_eq!(c, TimerId(3 << 32), "the slot `a` left, the next number");
        assert!(a < b && b < c, "ids order as the timers were armed");
    }

    #[test]
    fn a_cancel_of_a_fired_timer_leaves_the_entry_in_its_slot_live() {
        let mut q = TimeQueue::default();
        let fired = timer(&mut q, 1);
        q.pop();
        let later = timer(&mut q, 2);
        assert_eq!(home(later), home(fired), "the later timer took the fired one's slot");
        q.cancel(fired);
        q.cancel(fired);
        assert_eq!(q.pending_cancels(), 0, "nothing queued was cancelled");
        assert_eq!(drain(&mut q), [(2, Some(later), false)]);
    }

    #[test]
    fn a_timer_pushed_again_after_its_pop_is_cancelled_where_it_waits() {
        // A paused node's stash: the kernel pops a timer, holds it, and
        // pushes it again at the resume — into whatever slot is free then.
        let mut q = TimeQueue::default();
        let stashed = timer(&mut q, 1);
        let (_, _, item, _) = q.pop().expect("the timer");
        let squatter = timer(&mut q, 5);
        q.push(Time(2), item);
        q.cancel(stashed);
        assert_eq!(q.pending_cancels(), 1);
        assert_eq!(drain(&mut q), [(2, Some(stashed), true), (5, Some(squatter), false)]);
    }

    #[test]
    fn more_cancelled_than_half_the_queue_compacts_it_in_order() {
        let mut q = TimeQueue::default();
        let ids: Vec<TimerId> = (0..6).map(|i| timer(&mut q, i % 2)).collect();
        for &id in &ids[..3] {
            q.cancel(id);
        }
        assert_eq!((q.len(), q.pending_cancels()), (6, 3), "half is not more than half");
        q.cancel(ids[4]);
        assert_eq!((q.len(), q.pending_cancels()), (2, 0), "compacted");
        assert_eq!(drain(&mut q), [(1, Some(ids[3]), false), (1, Some(ids[5]), false)]);
    }

    #[test]
    fn an_item_pushed_under_a_reserved_seq_pops_where_its_reservation_stands() {
        let mut q = TimeQueue::default();
        let early = q.reserve();
        q.push(Time(1), Item(None));
        let at_the_tie = q.reserve();
        q.push(Time(1), Item(None));
        q.push(Time(2), Item(None));
        q.push_at(Time(1), at_the_tie, Item(None));
        q.push_at(Time(1), early, Item(None));
        let seqs: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop()).map(|(at, seq, ..)| (at.0, seq)).collect();
        assert_eq!(seqs, [(1, early), (1, 2), (1, at_the_tie), (1, 4), (2, 5)]);
        q.push(Time(2), Item(None));
        let late = q.reserve();
        q.push(Time(2), Item(None));
        q.push_at(Time(2), late, Item(None));
        let due: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, seq, ..)| seq).collect();
        assert_eq!(due, [6, late, 8], "a reserved seq among keys due at the last pop");
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
        /// Cancel the `n`th (wrapping) live timer; a popped one; a popped
        /// one whose slot a live timer holds now; a cancelled one still
        /// queued; or an id never issued.
        CancelLive(usize),
        CancelPopped(usize),
        CancelReused(usize),
        CancelAgain(usize),
        CancelUnknown(u64),
        /// Push the `n`th timer that popped live again, at the last pop's
        /// instant plus the delay, as the kernel replays a paused node's
        /// stash.
        Repush(usize, u64),
        /// Reserve a sequence number; push something under the `n`th
        /// reserved one not yet used, at the last pop's instant plus the
        /// delay, as the kernel moves a mailbox back into the queue.
        Reserve,
        PushReserved(usize, u64),
        /// Peek. Only this op peeks, so a pop may or may not follow one.
        NextAt,
    }

    fn ops() -> impl proptest::strategy::Strategy<Value = Vec<Op>> {
        use proptest::strategy::Strategy;
        let op = (0u8..22, 0u64..8, 0u64..1 << 40, 0usize..64).prop_map(|(op, small, big, n)| {
            match op {
                // Ties at `last`, near instants that collide, far ones.
                0 | 1 => Op::Push(0, n % 3 != 0),
                2..=4 => Op::Push(small, n % 3 != 0),
                5 => Op::Push(big, n % 3 != 0),
                6..=9 => Op::Pop,
                10 | 11 => Op::CancelLive(n),
                12 => Op::CancelPopped(n),
                13 => Op::CancelReused(n),
                14 => Op::CancelAgain(n),
                15 => Op::CancelUnknown(big | 1 << 50),
                16 => Op::Repush(n, small),
                17 => Op::Reserve,
                18 => Op::PushReserved(n, small),
                _ => Op::NextAt,
            }
        });
        proptest::collection::vec(op, 1..200)
    }

    proptest::proptest! {
        /// The queue is a `BTreeMap<(at, seq), item>` whose cancel marks a
        /// queued timer (and nothing else), under the same more-than-half
        /// compaction rule: under random interleavings of pushes (ties at
        /// the last pop, near and far instants), pops, re-pushes of popped
        /// timers, reservations and pushes under reserved numbers, cancels
        /// — of live timers, of fired ones, of fired ones whose slot a live
        /// timer reuses (which must stay live), of cancelled ones again, of
        /// ids never issued — and peeks, every pop (its sequence number
        /// included), `len`, `pending_cancels` and `next_at` are the
        /// model's after every step (`next_at` at every peek).
        #[test]
        fn the_queue_matches_an_ordered_map(ops in ops()) {
            let mut q = TimeQueue::default();
            let mut model: BTreeMap<(u64, u64), Option<TimerId>> = BTreeMap::new();
            let mut cancelled: BTreeSet<TimerId> = BTreeSet::new();
            let (mut seqs, mut last) = (0u64, 0u64);
            // Sequence numbers reserved and not yet pushed under.
            let mut reserved: Vec<u64> = Vec::new();
            // Timers popped: live ones (which a re-push may take back), all.
            let (mut fired, mut popped) = (Vec::new(), Vec::new());
            for op in ops {
                let live: Vec<TimerId> = model.values().flatten().copied().collect();
                match op {
                    Op::Push(delay, timer) => {
                        seqs += 1;
                        let id = if timer {
                            Some(q.push_timer(Time(last + delay), |id| Item(Some(id))))
                        } else {
                            q.push(Time(last + delay), Item(None));
                            None
                        };
                        model.insert((last + delay, seqs), id);
                    }
                    Op::Repush(n, delay) if !fired.is_empty() => {
                        seqs += 1;
                        let id: TimerId = fired.swap_remove(n % fired.len());
                        q.push(Time(last + delay), Item(Some(id)));
                        model.insert((last + delay, seqs), Some(id));
                    }
                    Op::Reserve => {
                        seqs += 1;
                        proptest::prop_assert_eq!(q.reserve(), seqs);
                        reserved.push(seqs);
                    }
                    Op::PushReserved(n, delay) if !reserved.is_empty() => {
                        let seq = reserved.swap_remove(n % reserved.len());
                        q.push_at(Time(last + delay), seq, Item(None));
                        model.insert((last + delay, seq), None);
                    }
                    Op::Pop => {
                        let want = model.pop_first().map(|((at, seq), id)| {
                            last = at;
                            (at, seq, id, id.is_some_and(|id| cancelled.remove(&id)))
                        });
                        let got = q.pop().map(|(at, seq, item, c)| (at.0, seq, item.0, c));
                        proptest::prop_assert_eq!(got, want);
                        if let Some((_, _, Some(id), c)) = want {
                            popped.push(id);
                            if !c {
                                fired.push(id);
                            }
                        }
                    }
                    Op::CancelLive(_) | Op::CancelPopped(_) | Op::CancelReused(_)
                    | Op::CancelAgain(_) | Op::CancelUnknown(_) => {
                        let reused: Vec<TimerId> = popped
                            .iter()
                            .filter(|&&id| !live.contains(&id))
                            .filter(|&&id| live.iter().any(|&l| home(l) == home(id)))
                            .copied()
                            .collect();
                        let again: Vec<TimerId> = cancelled.iter().copied().collect();
                        let pick = |from: &[TimerId], n: usize| {
                            (!from.is_empty()).then(|| from[n % from.len()])
                        };
                        let id = match op {
                            Op::CancelLive(n) => pick(&live, n),
                            Op::CancelPopped(n) => pick(&popped, n),
                            Op::CancelReused(n) => pick(&reused, n),
                            Op::CancelAgain(n) => pick(&again, n),
                            Op::CancelUnknown(id) => Some(TimerId(id)),
                            _ => unreachable!(),
                        };
                        let Some(id) = id else { continue };
                        q.cancel(id);
                        if live.contains(&id) {
                            cancelled.insert(id);
                        }
                        if cancelled.len() * 2 > model.len() {
                            model.retain(|_, id| !id.is_some_and(|id| cancelled.contains(&id)));
                            cancelled.clear();
                        }
                    }
                    Op::NextAt => {
                        let want = model.keys().next().map(|&(at, _)| Time(at));
                        proptest::prop_assert_eq!(q.next_at(), want);
                    }
                    Op::Repush(..) | Op::PushReserved(..) => continue,
                }
                proptest::prop_assert_eq!(q.len(), model.len());
                proptest::prop_assert_eq!(q.is_empty(), model.is_empty());
                proptest::prop_assert_eq!(q.pending_cancels(), cancelled.len());
            }
        }
    }
}
