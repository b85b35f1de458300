//! The host core: what a node is, written once for both runtimes.
//!
//! The paper's §2 model is one model — a crash loses volatile state and
//! keeps stable storage ([`crate::wal::StableStorage`]), a paused process
//! is merely slow — so both hosts (the simulator in `etx-sim`, the
//! threaded backend in `etx-rt`) implement it with the same rules:
//!
//! * [`Life`] says which lifecycle transitions apply and what each
//!   records;
//! * [`TimeQueue`] orders timed actions by `(at, seq)` and drops
//!   cancelled timers — one at a time as they come due, and all at once
//!   when they are more than half the queue;
//! * [`record`] is how an event enters a run.
//!
//! What is left to a host is its own. The simulator has its virtual-time
//! queue of every action of the run, its paused-node stash and its
//! network sampling. The threaded backend has its per-node inboxes, its
//! run queue, a deferred queue per node and the wall clock; like the
//! simulator, it runs every node on the thread that calls its run loop.

use crate::fault::{Prim, Triggers};
use crate::ids::TimerId;
use crate::time::Time;
use crate::trace::{Trace, TraceEvent, TraceKind};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap};

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

/// A [`TimeQueue`] entry, due `at`; `seq` breaks ties in push order.
struct Queued<T> {
    at: Time,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Queued<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Queued<T> {}
impl<T> PartialOrd for Queued<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Queued<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Timed actions, popped in `(at, seq)` order: by instant, ties in push
/// order. The order is total, so a run that pushes the same entries pops
/// them the same way.
///
/// A cancelled timer leaves the queue: popped, it comes back marked
/// cancelled and its id is forgotten; and once cancelled ids are *more than*
/// half the queue, one pass drops every cancelled timer and forgets the
/// ids, so a protocol that cancels what it no longer needs does not pay
/// to pop it. What stays pops exactly as it would have.
pub struct TimeQueue<T> {
    heap: BinaryHeap<Reverse<Queued<T>>>,
    seq: u64,
    /// Cancelled timers not yet popped or compacted away. Ordered, not
    /// hashed: a hash set that grows and shrinks reallocates or not by
    /// where its per-process random keys put the tombstones, and a run's
    /// allocation count is gated to repeat exactly (`tests/alloc_budget.rs`).
    cancelled: BTreeSet<u64>,
}

impl<T> Default for TimeQueue<T> {
    fn default() -> Self {
        TimeQueue { heap: BinaryHeap::new(), seq: 0, cancelled: BTreeSet::new() }
    }
}

impl<T: Timed> TimeQueue<T> {
    /// Queues `item` at `at`, after everything already queued for `at`.
    pub fn push(&mut self, at: Time, item: T) {
        self.seq += 1;
        self.heap.push(Reverse(Queued { at, seq: self.seq, item }));
    }

    /// When the earliest entry is due (it may be a cancelled timer).
    pub fn next_at(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(q)| q.at)
    }

    /// Entries queued, cancelled timers not yet dropped included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        let Reverse(Queued { at, item, .. }) = self.heap.pop()?;
        let cancelled = item.timer().is_some_and(|id| self.cancelled.remove(&id.0));
        Some((at, item, cancelled))
    }

    /// Cancels timer `id`; a no-op if it already fired or was cancelled.
    pub fn cancel(&mut self, id: TimerId) {
        self.cancelled.insert(id.0);
        if self.cancelled.len() * 2 > self.heap.len() {
            let cancelled = &self.cancelled;
            self.heap
                .retain(|Reverse(q)| !q.item.timer().is_some_and(|id| cancelled.contains(&id.0)));
            self.cancelled.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultOp, TracePred};
    use crate::ids::NodeId;
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
        let span =
            TraceKind::Span { rid, comp: crate::trace::Component::Sql, dur: crate::time::Dur(5) };
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
}
