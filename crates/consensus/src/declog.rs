//! The sequenced decision log: batched request outcomes over write-once
//! slots.
//!
//! The paper gives every attempt `j` its own decision register `regD[j]` —
//! one consensus instance per request outcome. This module generalises that
//! register array into a **log of consecutive slots** (`slot[0]`,
//! `slot[1]`, …), each a write-once register whose value is an *ordered
//! batch* of `(attempt, decision)` pairs. One consensus round now decides a
//! whole batch of requests; the single-request path is simply a batch of
//! one, so the degenerate configuration reproduces `regD` exactly.
//!
//! Three invariants carry the paper's properties over:
//!
//! * **Slot indivisibility** — a slot is a wo-register: either its whole
//!   batch is the decided value or none of it is. A primary crashing
//!   mid-batch can lose the proposal or land it, never split it.
//! * **In-order apply** — every server applies slots in log order
//!   (buffering slots decided ahead of a gap and pulling the gap), so all
//!   servers observe the same outcome sequence.
//! * **First occurrence wins** — an attempt may be proposed into several
//!   slots (an owner's commit and a cleaner's `(nil, abort)` race, or a
//!   losing batch is re-proposed); the entry in the *lowest* decided slot
//!   is the attempt's one true decision and every later entry for the same
//!   attempt is ignored. Because apply order is identical everywhere, this
//!   arbitration is exactly the write-once contract `regD[j]` provided.
//!
//! The log owns no consensus machinery: it sequences batches through the
//! same [`WoRegisters`] bank the owner-election registers use, so one
//! engine per application server keeps speaking for that server.

use crate::woreg::WoRegisters;
use crate::Suspects;
use etx_base::ids::{NodeId, RegId, ResultId};
use etx_base::runtime::Context;
use etx_base::value::{Decision, OutcomeBatch, RegValue};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One decided slot's worth of *newly final* outcomes, in slot order.
/// Entries whose attempt already surfaced in an earlier slot are filtered
/// out (first occurrence wins), so every attempt appears in exactly one
/// applied slot per server — and in the same one on every server.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedSlot {
    /// Log position.
    pub slot: u64,
    /// First-occurrence `(attempt, decision)` pairs this slot made final.
    pub entries: OutcomeBatch,
}

/// One application server's view of the sequenced decision log.
#[derive(Debug)]
pub struct DecisionLog {
    /// Largest batch one slot proposal may carry — the configured pipeline
    /// depth. At 1 every slot holds exactly one outcome (the degenerate
    /// per-request configuration, the paper's `regD` behaviour); without
    /// the cap a backed-up pending queue would flow into a single slot and
    /// silently batch even in the degenerate configuration.
    max_batch: usize,
    /// Maximum undecided slots this server keeps in flight at once — the
    /// configured pipeline window. At 1 the log runs one consensus round
    /// at a time (the PR 6/7/8 behaviour, byte-for-byte); at `K` it
    /// proposes up to `K` consecutive slots whose rounds overlap.
    window: usize,
    /// Outcomes waiting to be proposed (or re-proposed) into a slot.
    pending: OutcomeBatch,
    /// Our in-flight proposals, slot → batch, at most `window` of them.
    /// Batches are [`Arc`]-shared with the register write (and hence the
    /// consensus broadcasts), so proposing copies no outcomes.
    inflight: BTreeMap<u64, Arc<OutcomeBatch>>,
    /// Next slot index to apply (everything below is applied).
    next_apply: u64,
    /// Slots decided ahead of a gap, waiting for in-order apply. Decides
    /// may land out of slot order under a pipelined window; this buffer
    /// (plus the `next_apply` low-water mark) is what keeps promotion and
    /// apply strictly in slot order regardless.
    decided_ahead: BTreeMap<u64, Arc<OutcomeBatch>>,
    /// Final decision per attempt (the first-occurrence arbitration).
    seen: BTreeMap<ResultId, Decision>,
    /// Per-client GC watermarks: every request below the watermark is
    /// settled forever. Entries for settled requests are dropped at apply
    /// time even after their `seen` record was garbage-collected —
    /// otherwise a late in-flight proposal (say, a slow cleaner's
    /// `(nil, abort)`) could re-surface a settled attempt as a fresh
    /// "first occurrence" with a conflicting outcome.
    watermarks: BTreeMap<NodeId, u64>,
    /// Each applied slot that is not yet fully settled — the bookkeeping
    /// behind [`DecisionLog::gc_client`]'s return value, which is what lets
    /// the host compact a slot's consensus instance once no request in it
    /// can ever be asked about again. The decided batch itself is kept (a
    /// shared handle: the register bank holds the same allocation until
    /// that very compaction), so the compacted placeholder can keep the
    /// slot's arbitration content (results dropped). Bounded by the
    /// clients' unsettled windows, like everything else here.
    applied_members: BTreeMap<u64, AppliedMembers>,
    /// The members of `applied_members` not yet below their client's
    /// watermark, as `(attempt, slot)`: ordered by attempt, so the entries
    /// a watermark settles are one [`ResultId::below`] range and a GC pass
    /// visits only what it settles.
    unsettled: BTreeSet<(ResultId, u64)>,
    /// Applied slots with no unsettled member left, not yet handed to the
    /// host — [`DecisionLog::gc_client`] drains it.
    settled_slots: BTreeSet<u64>,
}

/// One applied slot's membership and how much of it is still unsettled.
#[derive(Debug)]
struct AppliedMembers {
    batch: Arc<OutcomeBatch>,
    /// This slot's entries in [`DecisionLog::unsettled`].
    unsettled: usize,
}

impl Default for DecisionLog {
    /// An unbounded log view (no batch cap, single-slot window).
    fn default() -> Self {
        DecisionLog::new(usize::MAX, 1)
    }
}

impl DecisionLog {
    /// An empty log view (apply cursor at slot 0) whose slot proposals
    /// carry at most `max_batch` outcomes each and keep at most `window`
    /// undecided slots in flight at once (both clamped to ≥ 1).
    pub fn new(max_batch: usize, window: usize) -> Self {
        DecisionLog {
            max_batch: max_batch.max(1),
            window: window.max(1),
            pending: OutcomeBatch::default(),
            inflight: BTreeMap::new(),
            next_apply: 0,
            decided_ahead: BTreeMap::new(),
            seen: BTreeMap::new(),
            watermarks: BTreeMap::new(),
            applied_members: BTreeMap::new(),
            unsettled: BTreeSet::new(),
            settled_slots: BTreeSet::new(),
        }
    }

    /// The final decision for `rid`, if some applied slot carried it — the
    /// log's `read()`: once `Some`, the answer never changes.
    pub fn decision_of(&self, rid: ResultId) -> Option<&Decision> {
        self.seen.get(&rid)
    }

    /// Next slot index this server will apply (diagnostics and tests).
    pub fn applied_up_to(&self) -> u64 {
        self.next_apply
    }

    /// Outcomes queued but not yet decided (diagnostics and tests).
    pub fn pending_len(&self) -> usize {
        self.pending.len() + self.inflight.values().map(|b| b.len()).sum::<usize>()
    }

    /// Number of our proposals currently awaiting a slot decision.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Our proposals currently awaiting a slot decision, in slot order:
    /// each the slot it went into and the batch it carries (a shared
    /// handle — a reference-count clone, never an entry copy). The
    /// speculation stage reads this right after [`DecisionLog::propose`]
    /// to learn where the flush landed — proposals that resolved
    /// synchronously are absent, because there is nothing left in flight
    /// and nothing worth speculating on.
    pub fn inflight_proposals(&self) -> Vec<(u64, Arc<OutcomeBatch>)> {
        self.inflight.iter().map(|(&slot, batch)| (slot, Arc::clone(batch))).collect()
    }

    /// Submits a batch of outcomes for sequencing and drives proposals.
    /// Entries already final (or already queued) are skipped. Returns any
    /// slots that became applied synchronously (single-replica quorums and
    /// already-decided slots resolve without waiting for the network).
    pub fn propose(
        &mut self,
        ctx: &mut dyn Context,
        regs: &mut WoRegisters,
        entries: OutcomeBatch,
        suspects: Suspects<'_>,
    ) -> Vec<AppliedSlot> {
        for (rid, decision) in entries {
            let queued = self.pending.iter().any(|(r, _)| *r == rid)
                || self.inflight.values().any(|b| b.iter().any(|(r, _)| *r == rid));
            if self.seen.contains_key(&rid) || self.settled(&rid) || queued {
                continue;
            }
            self.pending.push((rid, decision));
        }
        self.pump(ctx, regs, suspects)
    }

    /// Feeds a slot decision learned from the register bank (the owning
    /// process routes `WoEvent::Decided` for `slot[..]` registers here).
    /// Returns the slots that became applied, in order.
    pub fn on_slot_decided(
        &mut self,
        ctx: &mut dyn Context,
        regs: &mut WoRegisters,
        slot: u64,
        value: &RegValue,
        suspects: Suspects<'_>,
    ) -> Vec<AppliedSlot> {
        self.record_decided(slot, value);
        let mut out = self.drain_applied();
        self.request_gaps(ctx, regs);
        out.extend(self.pump(ctx, regs, suspects));
        out
    }

    /// Re-pulls undecided slots below the decided frontier (wo-register
    /// `read()` liveness for gaps): the owning process calls this on its
    /// consensus resync tick.
    pub fn request_gaps(&mut self, ctx: &mut dyn Context, regs: &mut WoRegisters) {
        let Some((&frontier, _)) = self.decided_ahead.iter().next_back() else { return };
        for k in self.next_apply..frontier {
            if !self.decided_ahead.contains_key(&k) {
                regs.pull(ctx, RegId::slot(k));
            }
        }
    }

    /// Drops the arbitration memory of every settled attempt of `client`
    /// below the `ack_below` watermark (server-side GC; safe because a
    /// settled request is never retransmitted, so its attempts can never be
    /// proposed again). Returns the applied slots that became **fully
    /// settled** — every member request below its client's watermark, in
    /// slot order — paired with an **outcomes-only tombstone batch** (the
    /// slot's entries with their result payloads dropped) for the host to
    /// compact each slot's consensus instance down to (§5's register-array
    /// cleanup). The tombstone must keep the `(attempt, outcome)` pairs:
    /// a server that resyncs the slot *after* compaction still needs the
    /// first-occurrence arbitration memory, because its cleaner — which
    /// never heard this client's watermark — may later re-propose a member
    /// attempt as `(nil, abort)`. Compacting to an empty batch erased that
    /// memory and let the conflicting abort surface as a fresh first
    /// occurrence (a real divergence: some databases applied the cleaner's
    /// abort after others applied the original commit). Only the results —
    /// the unbounded payload — are shed.
    pub fn gc_client(&mut self, client: NodeId, ack_below: u64) -> Vec<(u64, OutcomeBatch)> {
        let w = self.watermarks.entry(client).or_insert(0);
        *w = (*w).max(ack_below);
        // Everything keyed by attempt is ordered (client, seq, attempt):
        // the stale entries are one contiguous range per map, so this runs
        // on every client request and still costs only what it removes.
        let stale = ResultId::below(client, ack_below);
        self.seen.extract_if(stale.clone(), |_, _| true).for_each(drop);
        self.pending.retain(|(rid, _)| !stale.contains(rid));
        for (_, slot) in self.unsettled.extract_if((stale.start, 0)..(stale.end, 0), |_| true) {
            let applied = self.applied_members.get_mut(&slot).expect("indexed slot is applied");
            applied.unsettled -= 1;
            if applied.unsettled == 0 {
                self.settled_slots.insert(slot);
            }
        }
        std::mem::take(&mut self.settled_slots)
            .into_iter()
            .map(|slot| {
                let applied = self.applied_members.remove(&slot).expect("settled slot is applied");
                let tombstone = applied
                    .batch
                    .iter()
                    .map(|(rid, d)| (*rid, Decision { result: None, outcome: d.outcome }))
                    .collect();
                (slot, tombstone)
            })
            .collect()
    }

    /// Whether `rid`'s request is below its client's GC watermark (settled
    /// forever; any late entry for it must be ignored).
    pub fn settled(&self, rid: &ResultId) -> bool {
        self.watermarks.get(&rid.request.client).is_some_and(|&w| rid.request.seq < w)
    }

    // ---- internals -------------------------------------------------------

    /// Proposes pending outcomes into the lowest open slots until the
    /// pipeline window is full or the queue is empty, looping while
    /// proposals resolve synchronously. At window 1 this is exactly the
    /// single-slot propose loop of PR 6/7/8: one round in flight, the
    /// next proposal only after it decides.
    fn pump(
        &mut self,
        ctx: &mut dyn Context,
        regs: &mut WoRegisters,
        suspects: Suspects<'_>,
    ) -> Vec<AppliedSlot> {
        let mut out = Vec::new();
        loop {
            let seen = &self.seen;
            let watermarks = &self.watermarks;
            self.pending.retain(|(rid, _)| {
                !seen.contains_key(rid)
                    && watermarks.get(&rid.request.client).is_none_or(|&w| rid.request.seq >= w)
            });
            if self.inflight.len() >= self.window || self.pending.is_empty() {
                return out;
            }
            let slot = self.lowest_open_slot(regs);
            let take = self.pending.len().min(self.max_batch);
            let batch: Arc<OutcomeBatch> = Arc::new(self.pending.drain(..take).collect());
            self.inflight.insert(slot, Arc::clone(&batch));
            match regs.write(ctx, RegId::slot(slot), RegValue::Batch(batch), suspects) {
                // Round in flight; the decision arrives via handle(). Keep
                // looping — the window may have room for the next slot.
                None => {}
                Some(value) => {
                    // Decided synchronously (single-replica quorum, or the
                    // slot was already taken): absorb and keep pumping.
                    self.record_decided(slot, &value);
                    out.extend(self.drain_applied());
                    self.request_gaps(ctx, regs);
                }
            }
        }
    }

    /// The lowest slot index with no decision known locally and no
    /// proposal of ours in flight: gaps are filled before new tail slots
    /// are opened, which is what keeps a crashed proposer's abandoned slot
    /// from stalling the log (the next proposal lands there and consensus
    /// arbitrates).
    fn lowest_open_slot(&self, regs: &WoRegisters) -> u64 {
        let mut k = self.next_apply;
        while self.decided_ahead.contains_key(&k)
            || self.inflight.contains_key(&k)
            || regs.read(RegId::slot(k)).is_some()
        {
            k += 1;
        }
        k
    }

    fn record_decided(&mut self, slot: u64, value: &RegValue) {
        let Some(batch) = value.as_batch_shared() else {
            debug_assert!(false, "slot[{slot}] decided a non-batch value");
            return;
        };
        if slot >= self.next_apply {
            self.decided_ahead.entry(slot).or_insert_with(|| Arc::clone(&batch));
        }
        // Our proposal for this slot is settled: if another batch won, the
        // outcomes we carried go back to pending for the next slot. Other
        // in-flight slots are untouched — their rounds are still running.
        if let Some(ours) = self.inflight.remove(&slot) {
            for (rid, decision) in ours.iter() {
                if !batch.iter().any(|(r, _)| r == rid)
                    && !self.seen.contains_key(rid)
                    && !self.settled(rid)
                {
                    self.pending.push((*rid, decision.clone()));
                }
            }
        }
    }

    fn drain_applied(&mut self) -> Vec<AppliedSlot> {
        let mut out = Vec::new();
        while let Some(batch) = self.decided_ahead.remove(&self.next_apply) {
            let slot = self.next_apply;
            let mut unsettled = 0;
            let mut firsts = Vec::new();
            for (rid, decision) in batch.iter() {
                if self.settled(rid) {
                    continue;
                }
                if self.unsettled.insert((*rid, slot)) {
                    unsettled += 1;
                }
                if !self.seen.contains_key(rid) {
                    self.seen.insert(*rid, decision.clone());
                    firsts.push((*rid, decision.clone()));
                }
            }
            if unsettled == 0 {
                self.settled_slots.insert(slot);
            }
            self.applied_members.insert(slot, AppliedMembers { batch, unsettled });
            out.push(AppliedSlot { slot, entries: firsts });
            self.next_apply += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::ids::RequestId;
    use etx_base::value::Outcome;

    fn rid(seq: u64) -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq })
    }

    fn commit() -> Decision {
        Decision::commit(Default::default())
    }

    fn batch(seqs: &[u64]) -> OutcomeBatch {
        seqs.iter().map(|&s| (rid(s), commit())).collect()
    }

    fn slot_value(seqs: &[u64]) -> RegValue {
        RegValue::Batch(Arc::new(batch(seqs)))
    }

    #[test]
    fn first_occurrence_wins_across_slots() {
        let mut log = DecisionLog::default();
        log.record_decided(0, &RegValue::Batch(Arc::new(vec![(rid(1), commit())])));
        log.record_decided(1, &RegValue::Batch(Arc::new(vec![(rid(1), Decision::nil_abort())])));
        let applied = log.drain_applied();
        assert_eq!(applied.len(), 2);
        assert_eq!(applied[0].entries.len(), 1, "slot 0 carries the first occurrence");
        assert!(applied[1].entries.is_empty(), "slot 1's duplicate is filtered");
        assert_eq!(log.decision_of(rid(1)).unwrap().outcome, Outcome::Commit);
    }

    #[test]
    fn slots_apply_in_order_buffering_gaps() {
        let mut log = DecisionLog::default();
        log.record_decided(1, &slot_value(&[2]));
        assert!(log.drain_applied().is_empty(), "slot 1 waits for slot 0");
        assert_eq!(log.applied_up_to(), 0);
        log.record_decided(0, &slot_value(&[1]));
        let applied = log.drain_applied();
        assert_eq!(applied.len(), 2);
        assert_eq!((applied[0].slot, applied[1].slot), (0, 1));
        assert_eq!(log.applied_up_to(), 2);
    }

    #[test]
    fn losing_a_slot_requeues_unserved_outcomes() {
        let mut log = DecisionLog {
            inflight: BTreeMap::from([(0, Arc::new(batch(&[7, 8])))]),
            ..DecisionLog::default()
        };
        // Slot 0 decides with someone else's batch that covers 7 but not 8.
        log.record_decided(0, &slot_value(&[7]));
        log.drain_applied();
        assert!(log.inflight.is_empty());
        assert_eq!(log.pending, batch(&[8]), "only the unserved outcome is re-proposed");
        assert_eq!(log.decision_of(rid(7)).unwrap().outcome, Outcome::Commit);
    }

    #[test]
    fn out_of_order_decides_apply_in_slot_order_across_the_window() {
        // A pipelined window has slots 0 and 1 in flight; slot 1's round
        // finishes first. Nothing may apply until slot 0 decides, and the
        // apply order must be slot order, not decide order.
        let mut log = DecisionLog {
            window: 2,
            inflight: BTreeMap::from([(0, Arc::new(batch(&[1, 2]))), (1, Arc::new(batch(&[3])))]),
            ..DecisionLog::default()
        };
        log.record_decided(1, &slot_value(&[3]));
        assert!(log.drain_applied().is_empty(), "slot 1 buffers behind the gap at 0");
        assert_eq!(log.inflight_len(), 1, "slot 0's round is still running");
        assert_eq!(log.applied_up_to(), 0);
        log.record_decided(0, &slot_value(&[1, 2]));
        let applied = log.drain_applied();
        assert_eq!(applied.iter().map(|a| a.slot).collect::<Vec<_>>(), [0, 1]);
        assert!(log.inflight.is_empty() && log.pending.is_empty());
        assert_eq!(log.decision_of(rid(3)).unwrap().outcome, Outcome::Commit);
    }

    #[test]
    fn losing_a_mid_window_slot_requeues_only_that_slots_outcomes() {
        // Slot 0 is lost to another proposer's batch; slot 1's round (our
        // proposal) must stay in flight untouched, and only slot 0's
        // unserved outcomes go back to pending.
        let mut log = DecisionLog {
            window: 2,
            inflight: BTreeMap::from([(0, Arc::new(batch(&[7, 8]))), (1, Arc::new(batch(&[9])))]),
            ..DecisionLog::default()
        };
        log.record_decided(0, &slot_value(&[7]));
        log.drain_applied();
        assert_eq!(log.pending, batch(&[8]), "slot 0's unserved outcome is re-proposed");
        assert_eq!(
            log.inflight_proposals().iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            [1],
            "slot 1's proposal is untouched"
        );
    }

    #[test]
    fn gc_drops_settled_attempts_below_the_watermark() {
        let mut log = DecisionLog::default();
        log.record_decided(0, &slot_value(&[1, 2, 3]));
        log.drain_applied();
        log.gc_client(NodeId(0), 3);
        assert!(log.decision_of(rid(1)).is_none());
        assert!(log.decision_of(rid(2)).is_none());
        assert!(log.decision_of(rid(3)).is_some(), "watermark is exclusive");
        log.gc_client(NodeId(9), u64::MAX);
        assert!(log.decision_of(rid(3)).is_some(), "other clients untouched");
    }

    #[test]
    fn gc_reports_fully_settled_slots_exactly_once_in_order() {
        let mut log = DecisionLog::default();
        log.record_decided(0, &slot_value(&[1, 2]));
        log.record_decided(1, &slot_value(&[3]));
        log.drain_applied();
        assert!(log.gc_client(NodeId(0), 2).is_empty(), "slot 0 still carries unsettled request 2");
        let settled = log.gc_client(NodeId(0), 3);
        assert_eq!(settled.len(), 1, "slot 0 now fully settled");
        assert_eq!(settled[0].0, 0);
        assert_eq!(
            settled[0].1,
            vec![
                (rid(1), Decision { result: None, outcome: Outcome::Commit }),
                (rid(2), Decision { result: None, outcome: Outcome::Commit }),
            ],
            "tombstone keeps the outcomes, drops the results"
        );
        assert_eq!(log.gc_client(NodeId(0), 4).iter().map(|(s, _)| *s).collect::<Vec<_>>(), [1]);
        assert!(log.gc_client(NodeId(0), 10).is_empty(), "forgotten slots are not re-reported");
    }

    #[test]
    fn resynced_tombstone_slot_still_arbitrates_against_a_late_cleaner_abort() {
        // A server that resyncs a slot *after* its consensus instance was
        // compacted receives the outcomes-only tombstone. Its cleaner (which
        // never heard the client's watermark) may then propose `(nil, abort)`
        // for a member attempt — the tombstone's arbitration memory must
        // swallow it, or this server terminates the settled attempt with a
        // conflicting abort (an A.3 divergence across databases).
        let mut log = DecisionLog::default();
        let tombstone = vec![(rid(1), Decision { result: None, outcome: Outcome::Commit })];
        log.record_decided(0, &RegValue::Batch(Arc::new(tombstone)));
        let applied = log.drain_applied();
        assert_eq!(applied[0].entries.len(), 1, "tombstone entries apply as first occurrences");
        log.record_decided(1, &RegValue::Batch(Arc::new(vec![(rid(1), Decision::nil_abort())])));
        let applied = log.drain_applied();
        assert!(applied[0].entries.is_empty(), "late abort is a filtered duplicate");
        assert_eq!(log.decision_of(rid(1)).unwrap().outcome, Outcome::Commit);
    }

    #[test]
    fn late_entries_below_the_watermark_never_resurface() {
        // A settled request's seen-record is GC'd; a slow cleaner's
        // conflicting entry then arrives in a later slot. It must be
        // swallowed, not surfaced as a fresh first occurrence.
        let mut log = DecisionLog::default();
        log.record_decided(0, &RegValue::Batch(Arc::new(vec![(rid(1), commit())])));
        log.drain_applied();
        log.gc_client(NodeId(0), 2); // request 1 settled
        assert!(log.decision_of(rid(1)).is_none(), "arbitration memory GC'd");
        log.record_decided(1, &RegValue::Batch(Arc::new(vec![(rid(1), Decision::nil_abort())])));
        let applied = log.drain_applied();
        assert_eq!(applied.len(), 1);
        assert!(applied[0].entries.is_empty(), "settled attempt must not resurface");
        assert!(log.decision_of(rid(1)).is_none());
    }

    /// The GC this module ran before the per-client ranges — `retain` over
    /// every map on every call — kept as the reference the indexed version
    /// must match call for call.
    #[derive(Default)]
    struct ScanGc {
        seen: BTreeSet<ResultId>,
        watermarks: BTreeMap<NodeId, u64>,
        members: BTreeMap<u64, Vec<(ResultId, Outcome)>>,
    }

    impl ScanGc {
        fn settled(&self, rid: &ResultId) -> bool {
            self.watermarks.get(&rid.request.client).is_some_and(|&w| rid.request.seq < w)
        }

        fn apply(&mut self, slot: u64, batch: &OutcomeBatch) {
            self.members.insert(slot, batch.iter().map(|(rid, d)| (*rid, d.outcome)).collect());
            for (rid, _) in batch {
                if !self.settled(rid) {
                    self.seen.insert(*rid);
                }
            }
        }

        fn gc_client(&mut self, client: NodeId, ack_below: u64) -> Vec<(u64, OutcomeBatch)> {
            let w = self.watermarks.entry(client).or_insert(0);
            *w = (*w).max(ack_below);
            self.seen.retain(|rid| rid.request.client != client || rid.request.seq >= ack_below);
            let mut forgettable = Vec::new();
            let members = std::mem::take(&mut self.members);
            for (slot, m) in members {
                if m.iter().all(|(rid, _)| self.settled(rid)) {
                    let tombstone =
                        m.iter().map(|&(rid, outcome)| (rid, Decision { result: None, outcome }));
                    forgettable.push((slot, tombstone.collect()));
                } else {
                    self.members.insert(slot, m);
                }
            }
            forgettable
        }
    }

    proptest::proptest! {
        /// Range GC is `retain` GC: over random slot contents (shared and
        /// repeated attempts, several clients, slots settled before they
        /// apply) and random watermarks (regressing ones included), every
        /// call reports the same fully-settled slots with the same
        /// tombstones in the same order, and leaves the same memory.
        #[test]
        fn range_gc_matches_the_full_scan(
            steps in proptest::collection::vec(
                (
                    0u8..3,
                    0u32..3,
                    0u64..10,
                    proptest::collection::vec((0u32..3, 0u64..10, 1u32..3), 0..5),
                ),
                1..80,
            ),
        ) {
            let mut log = DecisionLog::default();
            let mut scan = ScanGc::default();
            let mut next_slot = 0;
            for (op, client, seq, entries) in steps {
                if op == 0 {
                    let batch: OutcomeBatch = entries
                        .into_iter()
                        .map(|(client, seq, attempt)| {
                            let request = RequestId { client: NodeId(client), seq };
                            (ResultId { request, attempt }, commit())
                        })
                        .collect();
                    scan.apply(next_slot, &batch);
                    log.record_decided(next_slot, &RegValue::Batch(Arc::new(batch)));
                    log.drain_applied();
                    next_slot += 1;
                } else {
                    proptest::prop_assert_eq!(
                        log.gc_client(NodeId(client), seq),
                        scan.gc_client(NodeId(client), seq)
                    );
                }
                proptest::prop_assert!(log.seen.keys().eq(scan.seen.iter()));
                proptest::prop_assert!(log.applied_members.keys().eq(scan.members.keys()));
                let unsettled: BTreeSet<(ResultId, u64)> = scan
                    .members
                    .iter()
                    .flat_map(|(&slot, m)| m.iter().map(move |&(rid, _)| (rid, slot)))
                    .filter(|(rid, _)| !scan.settled(rid))
                    .collect();
                proptest::prop_assert_eq!(&log.unsettled, &unsettled);
            }
        }
    }

    #[test]
    fn applied_cursor_and_pending_len_report_state() {
        let mut log = DecisionLog::default();
        assert_eq!(log.applied_up_to(), 0);
        assert_eq!(log.pending_len(), 0);
        log.pending = batch(&[1]);
        log.inflight.insert(0, Arc::new(batch(&[2, 3])));
        log.inflight.insert(1, Arc::new(batch(&[4])));
        assert_eq!(log.pending_len(), 4);
        assert_eq!(log.inflight_len(), 2);
    }
}
