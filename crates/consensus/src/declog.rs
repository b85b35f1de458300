//! The sequenced decision log: batched request outcomes and owner claims
//! over write-once slots.
//!
//! The paper gives every attempt `j` two write-once registers — `regA[j]`
//! for the ownership race and `regD[j]` for the decision — one consensus
//! instance each. This module generalises both arrays into one **log of
//! consecutive slots** (`slot[0]`, `slot[1]`, …), each a write-once
//! register whose value is an *ordered batch* of `(attempt, decision)`
//! pairs and `(attempt, server, client watermark)` owner claims
//! ([`SlotBatch`]). One consensus round now decides a whole batch of
//! requests; the single-request path is simply a batch of one, so the
//! degenerate configuration reproduces `regA`/`regD` exactly: one slot for
//! an attempt's claim, one for its outcome.
//!
//! Three invariants carry the paper's properties over:
//!
//! * **Slot indivisibility** — a slot is a wo-register: either its whole
//!   batch is the decided value or none of it is. A primary crashing
//!   mid-batch can lose the proposal or land it, never split it.
//! * **In-order apply** — every server applies slots in log order
//!   (buffering slots decided ahead of a gap and pulling the gap), so all
//!   servers observe the same entry sequence. A gap is pulled once when a
//!   decided slot above it first uncovers it and once per consensus resync
//!   tick until it decides ([`DecisionLog::request_gaps`]) — so a server
//!   catching up G slots sends pulls linear in G, not quadratic.
//! * **First occurrence wins** — an attempt may be proposed into several
//!   slots (an owner's commit and a cleaner's `(nil, abort)` race, two
//!   servers claim the same attempt, or a losing batch is re-proposed);
//!   the outcome in the *lowest* decided slot is the attempt's one true
//!   decision, the claim in the lowest decided slot names its one owner,
//!   and every later entry of the same kind for the same attempt is
//!   ignored. Because apply order is identical everywhere, this
//!   arbitration is exactly the write-once contract `regA[j]` and
//!   `regD[j]` provided.
//!
//! And five govern the claims:
//!
//! * **Ownership is a function of the log prefix.** [`DecisionLog::owner_of`]
//!   is the server named by the first claim for the attempt in slot order;
//!   the host starts computing an attempt on no other evidence. A
//!   recovered server that replays the log and finds its previous
//!   incarnation's claim is the owner, as a recovered `regA` winner was.
//! * **Claims obey the watermark like outcomes do.** A claim for a request
//!   below its client's watermark is ignored at apply time; re-queueing on
//!   a lost slot and the settled prefix ([`DecisionLog::gc_client`]) treat
//!   claim members like outcome members (a slot is settled only when its
//!   claimed attempts are too, and a slot of claims alone settles like any
//!   other). Every claim also *carries* its
//!   client's watermark as the proposer knew it, and every replica
//!   advances to it on apply — which is how the servers a client never
//!   talks to learn what they may forget.
//! * **A pre-claim is free or absent.** A claim queued without urgency
//!   never opens a slot: it rides the next slot proposed for another
//!   reason and is not counted against the batch cap. The host queues one
//!   for the attempt a client will send next, so that the request finds
//!   its owner already decided.
//! * **Dangling pre-claims are ordinary orphans.** An applied claim whose
//!   request never arrived is an owned attempt like any other: the host's
//!   cleaner `(nil, abort)`s it when its owner is suspected, and a later
//!   request for it is answered from [`DecisionLog::decision_of`].
//! * **Speculation is untouched.** Only [`SlotBatch::outcomes`] is ever
//!   executed ahead of a decision; claims change what a slot carries, not
//!   what the databases see.
//!
//! The log owns no consensus machinery: it sequences batches through the
//! server's [`WoRegisters`] bank, one consensus instance per slot, so one
//! bank per application server keeps speaking for that server. What it does own is its **pump** — the one
//! place a slot is opened — and so it is the one that says what each pump
//! opened ([`DecisionLog::opened_proposal`]: the host ships exactly that
//! for speculation, once, in the event that proposed it).
//!
//! A server keeps at most **one** proposal of its own in flight: while it
//! runs, the next batch fills, and batching carries the concurrency a
//! second undecided slot would add. Slots still decide out of order — a
//! peer's slot, a cleaner's, a crashed proposer's slot filled late — and
//! apply buffers them behind the gap.
//!
//! **The compacted prefix.** An applied slot is *settled* once every
//! request it carries — outcomes and claims, applied or ignored — is below
//! its client's watermark. Below the lowest applied slot some unsettled
//! request still belongs to ([`DecisionLog::settled_below`]) every slot is
//! settled, and that prefix is what the host compacts its register bank
//! over (§5's register-array cleanup): a compacted slot answers every late
//! pull, estimate and proposal with one shared placeholder, this server's
//! watermark table ([`DecisionLog::placeholder`]). One table stands for
//! every compacted slot, because each member was below its client's
//! watermark when its slot settled and watermarks only rise. A replica
//! that applies the placeholder advances to those watermarks and nothing
//! else: it settles every request the slot carried, so the
//! first-occurrence memory it never learns is memory of settled requests,
//! and every later entry for them — a slow cleaner's `(nil, abort)` for a
//! member attempt, say — is ignored there as it is everywhere. What the
//! log and the bank keep therefore follows the unsettled requests, not
//! the log's history.
//!
//! Slots are dense, so the log's per-slot state is kept in windows over
//! consecutive slots rather than in ordered maps: the slots decided ahead
//! of the apply cursor span from the lowest of them to the decided
//! frontier (the gap the pulls fill, a slot or two in steady state), and
//! the applied slots not yet settled span from the prefix up to the apply
//! cursor. An attempt's membership in the latter keeps its usual one or
//! two slots in place, and what a call applies comes back in [`Few`]s, so
//! the common event — one slot decided, one request in it — allocates
//! nothing for the log's own bookkeeping. The windows answer exactly what
//! the maps answered, in the same order, so no apply, pull or proposal
//! moves.

use crate::engine::WoRegisters;
use crate::few::Few;
use crate::window::SlotWindow;
use crate::Suspects;
use etx_base::attempts::AttemptWindows;
use etx_base::ids::{NodeId, RegId, ResultId};
use etx_base::runtime::Context;
use etx_base::value::{Decision, OutcomeBatch, OwnerClaim, RegValue, SlotBatch};
use std::sync::Arc;

/// One decided slot's worth of *newly final* entries, in slot order.
/// Entries whose attempt already surfaced in an earlier slot are filtered
/// out (first occurrence wins), so every attempt's outcome — and every
/// attempt's owner — appears in exactly one applied slot per server, and
/// in the same one on every server.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedSlot {
    /// Log position.
    pub slot: u64,
    /// First-occurrence `(attempt, decision)` pairs this slot made final.
    pub entries: Few<(ResultId, Decision)>,
    /// The claims of this slot that decided their attempt's owner.
    pub claims: Few<OwnerClaim>,
    /// Every advance of a client's GC watermark this slot's claims — or,
    /// for a compacted slot, its placeholder's table — caused here, with
    /// the new watermark, in apply order: what the host's own per-attempt
    /// state may now forget (the log has already forgotten its share).
    pub watermarks: Few<(NodeId, u64)>,
}

/// One application server's view of the sequenced decision log.
#[derive(Debug)]
pub struct DecisionLog {
    /// Largest number of members — outcomes plus urgent claims — one slot
    /// proposal may carry: the configured batch size. At 1 every slot
    /// holds exactly one outcome or one claim (the degenerate per-request
    /// configuration, the paper's two registers per attempt); without the
    /// cap a backed-up pending queue would flow into a single slot and
    /// silently batch even in the degenerate configuration.
    max_batch: usize,
    /// Outcomes waiting to be proposed (or re-proposed) into a slot.
    pending: OutcomeBatch,
    /// Attempts this server wants to own, waiting to be proposed (or
    /// re-proposed) as claims. Only the urgent ones can open a slot; the
    /// rest ride along.
    claims: Vec<ResultId>,
    /// Our one in-flight proposal: its slot and batch. The batch is
    /// [`Arc`]-shared with the register write (and hence the consensus
    /// broadcasts), so proposing copies no entries.
    inflight: Option<(u64, Arc<SlotBatch>)>,
    /// Whether the last pump opened `inflight`.
    opened: bool,
    /// Next slot index to apply (everything below is applied).
    next_apply: u64,
    /// Slots decided ahead of a gap, waiting for in-order apply. Another
    /// server's slot can decide before a lower one is known here; this
    /// buffer (plus the `next_apply` low-water mark) is what keeps
    /// promotion and apply strictly in slot order regardless. A window
    /// from the lowest slot decided at or above the apply cursor to the
    /// decided frontier: the gap it spans is what the pulls fill.
    decided_ahead: SlotWindow<RegValue>,
    /// One record per attempt, under its client's window — whose floor is
    /// the client's **GC watermark**: every request below it is settled
    /// forever. Entries for settled requests are dropped at apply time even
    /// after their record is gone — otherwise a late in-flight proposal
    /// (say, a slow cleaner's `(nil, abort)`) could re-surface a settled
    /// attempt as a fresh "first occurrence" with a conflicting outcome.
    attempts: AttemptWindows<Attempt>,
    /// Each applied slot not yet settled, with how many
    /// [`Attempt::slots`] still name it — the bookkeeping behind the
    /// settled prefix, which is what lets the host compact its register
    /// bank below it. A slot leaves when its last member settles, so the
    /// window starts at the prefix: it spans the slots applied since the
    /// oldest request some client has not settled (a client that stops
    /// pins it, as it pins the decided values the bank keeps).
    applied_members: SlotWindow<usize>,
    /// Compacted slots this view applied as their placeholder's
    /// watermarks (observability / catch-up tests).
    placeholders_applied: u64,
    /// Every gap slot below this has been pulled since the last resync
    /// tick: a decided slot pulls only the gaps it uncovers above it, and
    /// [`DecisionLog::request_gaps`] lowers it to re-pull them all.
    pulled_to: u64,
}

/// What the log remembers about one attempt at or above its client's
/// watermark: a GC pass drains a prefix of one client's records.
#[derive(Debug, Default)]
struct Attempt {
    /// The final decision (first-occurrence arbitration): the decided batch
    /// that carried it and its position there — a shared handle, no copy.
    decision: Option<(Arc<SlotBatch>, usize)>,
    /// The owner (first-claim arbitration) — the paper's `regA`, and what
    /// the host's cleaner walks.
    owner: Option<NodeId>,
    /// A request is waiting on this attempt's queued or in-flight claim.
    urgent: bool,
    /// The applied slots this attempt is a member of (as an outcome, a
    /// claim or both) and has not settled, in apply order.
    slots: Memberships,
}

/// An attempt's member slots, in apply order: the usual one or two in
/// place (a claim's slot and an outcome's), any further ones after them.
#[derive(Debug, Default)]
struct Memberships {
    first: Option<u64>,
    rest: Few<u64>,
}

impl Memberships {
    fn push(&mut self, slot: u64) {
        match self.first {
            None => self.first = Some(slot),
            Some(_) => self.rest.push(slot),
        }
    }

    fn last(&self) -> Option<u64> {
        self.rest.last().copied().or(self.first)
    }

    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.first.into_iter().chain(self.rest.iter().copied())
    }
}

impl Default for DecisionLog {
    /// An unbounded log view (no batch cap).
    fn default() -> Self {
        DecisionLog::new(usize::MAX, 1)
    }
}

impl DecisionLog {
    /// An empty log view (apply cursor at slot 0) whose slot proposals
    /// carry at most `max_batch` members each (clamped to ≥ 1). The second
    /// argument is ignored: it is kept only because `examples/etx_bench`
    /// names it.
    pub fn new(max_batch: usize, _window: usize) -> Self {
        DecisionLog {
            max_batch: max_batch.max(1),
            pending: OutcomeBatch::default(),
            claims: Vec::new(),
            inflight: None,
            opened: false,
            next_apply: 0,
            decided_ahead: SlotWindow::default(),
            attempts: AttemptWindows::new(),
            applied_members: SlotWindow::default(),
            placeholders_applied: 0,
            pulled_to: 0,
        }
    }

    /// The final decision for `rid`, if some applied slot carried it — the
    /// log's `regD[rid].read()`: once `Some`, the answer never changes.
    pub fn decision_of(&self, rid: ResultId) -> Option<&Decision> {
        let (batch, at) = self.attempts.get(rid)?.decision.as_ref()?;
        Some(&batch.outcomes[*at].1)
    }

    /// The owner of `rid`, if some applied slot carried a claim for it —
    /// the log's `regA[rid].read()`: once `Some`, the answer never changes.
    pub fn owner_of(&self, rid: ResultId) -> Option<NodeId> {
        self.attempts.get(rid)?.owner
    }

    /// Every owned attempt not yet below its client's watermark, in
    /// attempt order — the open work a cleaning pass inspects.
    pub fn owners(&self) -> impl Iterator<Item = (ResultId, NodeId)> + '_ {
        self.attempts.iter().filter_map(|(rid, a)| Some((rid, a.owner?)))
    }

    /// Next slot index this server will apply (diagnostics and tests).
    pub fn applied_up_to(&self) -> u64 {
        self.next_apply
    }

    /// Every applied slot below this is settled: the prefix the host may
    /// compact its register bank below. It is the lowest applied slot some
    /// unsettled request still belongs to, or the apply cursor.
    pub fn settled_below(&self) -> u64 {
        self.applied_members.first().unwrap_or(self.next_apply)
    }

    /// The value every compacted slot answers with: this server's client
    /// watermark table. `reuse`, the placeholder it replaces, is refilled in
    /// place while no message still holds it, so compaction allocates
    /// nothing per slot and, in the steady state, nothing at all.
    pub fn placeholder(&self, reuse: Option<RegValue>) -> RegValue {
        let mut table = match reuse {
            Some(RegValue::Watermarks(table)) => table,
            _ => Arc::default(),
        };
        let floors = Arc::make_mut(&mut table);
        floors.clear();
        floors.extend(self.attempts.floors());
        RegValue::Watermarks(table)
    }

    /// Compacted slots this view applied as watermarks only (diagnostics
    /// and catch-up tests).
    pub fn placeholders_applied(&self) -> u64 {
        self.placeholders_applied
    }

    /// Outcomes queued but not yet decided (diagnostics and tests).
    pub fn pending_len(&self) -> usize {
        self.pending.len() + self.inflight.as_ref().map_or(0, |(_, b)| b.outcomes.len())
    }

    /// Everything this view remembers per attempt: decisions, owners and
    /// the members of applied slots awaiting compaction — all of it at or
    /// above some client's watermark (observability / bounded-state tests).
    pub fn tracked_attempts(&self) -> usize {
        let tracked = |a: &Attempt| {
            usize::from(a.decision.is_some()) + usize::from(a.owner.is_some()) + a.slots.len()
        };
        self.attempts.iter().map(|(_, a)| tracked(a)).sum()
    }

    /// The proposal the last pump opened, if it is still in flight: the
    /// slot it went into and the batch it carries (a shared handle — a
    /// reference-count clone, never an entry copy). Every
    /// [`DecisionLog::propose`] and [`DecisionLog::on_slot_decided`] pumps
    /// afresh, so a host that reads this after each call sees every
    /// proposal once, in the event that proposed it. A proposal that
    /// resolved synchronously is absent: nothing is left in flight to
    /// overlap with.
    pub fn opened_proposal(&self) -> Option<(u64, Arc<SlotBatch>)> {
        self.inflight.clone().filter(|_| self.opened)
    }

    /// Queues a claim of `rid` for the proposing server (Figure 5's
    /// `regA[j].write(self)`); [`DecisionLog::propose`] sends it. An
    /// **urgent** claim — a request is waiting on it — opens a slot of its
    /// own if it must and counts against the batch cap like an outcome. A
    /// claim that is not urgent (a *pre-claim*) only ever rides a slot
    /// that is proposed for another reason, and rides it for free.
    /// Claiming an attempt whose claim is already queued or in flight
    /// changes nothing but its urgency; claiming one whose owner is known
    /// or whose request is settled does nothing.
    pub fn claim(&mut self, rid: ResultId, urgent: bool) {
        if urgent {
            match self.attempts.open(rid) {
                Some(attempt) if attempt.owner.is_none() => attempt.urgent = true,
                _ => return,
            }
        } else if !self.unowned(rid) {
            return;
        }
        let queued = self.claims.contains(&rid)
            || self.inflight.as_ref().is_some_and(|(_, b)| b.claims.iter().any(|c| c.rid == rid));
        if !queued {
            self.claims.push(rid);
        }
    }

    /// Submits a batch of outcomes for sequencing and drives proposals —
    /// queued claims leave with them. Entries already final (or already
    /// queued) are skipped. Returns any slots that became applied
    /// synchronously (single-replica quorums and already-decided slots
    /// resolve without waiting for the network).
    pub fn propose(
        &mut self,
        ctx: &mut dyn Context,
        regs: &mut WoRegisters,
        entries: OutcomeBatch,
        suspects: Suspects<'_>,
    ) -> Few<AppliedSlot> {
        for (rid, decision) in entries {
            let queued = self.pending.iter().any(|(r, _)| *r == rid)
                || self
                    .inflight
                    .as_ref()
                    .is_some_and(|(_, b)| b.outcomes.iter().any(|(r, _)| *r == rid));
            if self.undecided(rid) && !queued {
                self.pending.push((rid, decision));
            }
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
    ) -> Few<AppliedSlot> {
        self.record_decided(slot, value);
        let mut out = self.drain_applied();
        self.pull_gaps(ctx, regs);
        out.extend(self.pump(ctx, regs, suspects));
        out
    }

    /// Re-pulls every undecided slot below the decided frontier, once
    /// (wo-register `read()` liveness for gaps: keep invoking and you
    /// eventually see the value). The owning process calls this on its
    /// consensus resync tick; between two calls, a decided slot pulls only
    /// the gaps it newly uncovers, so a pull lost with a crashed peer or a
    /// dropped message is retried here and nowhere else.
    pub fn request_gaps(&mut self, ctx: &mut dyn Context, regs: &mut WoRegisters) {
        self.pulled_to = 0;
        self.pull_gaps(ctx, regs);
    }

    /// Drops the arbitration memory of every settled attempt of `client`
    /// below the `ack_below` watermark (server-side GC; safe because a
    /// settled request is never retransmitted, so its attempts can never be
    /// proposed again), and returns the settled prefix
    /// ([`DecisionLog::settled_below`]) it leaves: the prefix advances over
    /// every consecutive applied slot whose members — outcomes and claims
    /// alike — are now all below their clients' watermarks. The host
    /// compacts its register bank below it, to [`DecisionLog::placeholder`]
    /// (§5's register-array cleanup). A settled slot above an unsettled one
    /// waits for it: the prefix is what one watermark table can stand for.
    pub fn gc_client(&mut self, client: NodeId, ack_below: u64) -> u64 {
        self.advance_watermark(client, ack_below);
        self.settled_below()
    }

    /// Whether `rid`'s request is below its client's GC watermark (settled
    /// forever; any late entry for it must be ignored).
    pub fn settled(&self, rid: &ResultId) -> bool {
        rid.request.seq < self.watermark(rid.request.client)
    }

    /// `client`'s GC watermark as this replica has heard it: every request
    /// of the client below it is settled.
    pub fn watermark(&self, client: NodeId) -> u64 {
        self.attempts.floor(client)
    }

    // ---- internals -------------------------------------------------------

    /// Raises `client`'s watermark to `ack_below` and forgets everything
    /// it settles; `false` if the watermark was already there. The stale
    /// records are the front of the client's window, so this runs on every
    /// client request and every applied claim and still costs only what it
    /// removes. Nothing is ever recorded below a watermark, so a call that
    /// does not raise it has nothing to remove.
    fn advance_watermark(&mut self, client: NodeId, ack_below: u64) -> bool {
        let raised = self.attempts.below(client, ack_below, |_, attempt| {
            for slot in attempt.slots.iter() {
                let unsettled = self.applied_members.get_mut(slot).expect("member slot is applied");
                *unsettled -= 1;
                if *unsettled == 0 {
                    self.applied_members.remove(slot);
                }
            }
            false
        });
        if !raised {
            return false;
        }
        let stale = ResultId::below(client, ack_below);
        self.pending.retain(|(rid, _)| !stale.contains(rid));
        self.claims.retain(|rid| !stale.contains(rid));
        true
    }

    /// Proposes pending outcomes and claims into the lowest open slot
    /// unless a proposal of ours is in flight or nothing queued may open a
    /// slot, looping while proposals resolve synchronously: one round in
    /// flight, the next proposal only after it decides. Records whether it
    /// opened the one in flight.
    fn pump(
        &mut self,
        ctx: &mut dyn Context,
        regs: &mut WoRegisters,
        suspects: Suspects<'_>,
    ) -> Few<AppliedSlot> {
        let mut out = Few::new();
        self.opened = false;
        while self.inflight.is_none() {
            self.drop_served();
            let urgent = |rid: &ResultId| self.attempts.get(*rid).is_some_and(|a| a.urgent);
            if self.pending.is_empty() && !self.claims.iter().any(urgent) {
                break;
            }
            let slot = self.lowest_open_slot(regs);
            let batch = Arc::new(self.next_batch(ctx.me()));
            self.inflight = Some((slot, Arc::clone(&batch)));
            self.opened = true;
            // `None`: the round is in flight, and its decision arrives via
            // handle(). Otherwise it decided synchronously (single-replica
            // quorum, or the slot was already taken): absorb and pump on.
            if let Some(value) =
                regs.write(ctx, RegId::slot(slot), RegValue::Batch(batch), suspects)
            {
                self.record_decided(slot, &value);
                out.extend(self.drain_applied());
                self.pull_gaps(ctx, regs);
            }
        }
        out
    }

    /// Pulls each undecided slot between `pulled_to` (or the apply cursor,
    /// if higher) and the decided frontier, and raises `pulled_to` to the
    /// frontier: between resync ticks, each gap is pulled once, when it
    /// appears.
    fn pull_gaps(&mut self, ctx: &mut dyn Context, regs: &mut WoRegisters) {
        let Some(frontier) = self.decided_ahead.last() else { return };
        for k in self.next_apply.max(self.pulled_to)..frontier {
            if self.decided_ahead.get(k).is_none() {
                regs.pull(ctx, RegId::slot(k));
            }
        }
        self.pulled_to = self.pulled_to.max(frontier);
    }

    /// Drops queued entries the log has since answered: outcomes whose
    /// attempt is final, claims whose attempt has an owner, and anything
    /// below a watermark.
    fn drop_served(&mut self) {
        let (mut pending, mut claims) =
            (std::mem::take(&mut self.pending), std::mem::take(&mut self.claims));
        pending.retain(|(rid, _)| self.undecided(*rid));
        claims.retain(|rid| self.unowned(*rid));
        (self.pending, self.claims) = (pending, claims);
    }

    /// Whether an outcome for `rid` could still become its decision.
    fn undecided(&self, rid: ResultId) -> bool {
        let (floor, attempt) = self.attempts.get_with_floor(rid);
        rid.request.seq >= floor && attempt.is_none_or(|a| a.decision.is_none())
    }

    /// Whether a claim of `rid` could still name its owner.
    fn unowned(&self, rid: ResultId) -> bool {
        let (floor, attempt) = self.attempts.get_with_floor(rid);
        rid.request.seq >= floor && attempt.is_none_or(|a| a.owner.is_none())
    }

    /// Takes the next slot's worth off the queues: outcomes first, then
    /// urgent claims while the batch cap has room, then every pre-claim
    /// (free riders). Each claim is stamped with its client's watermark
    /// as this server knows it now.
    fn next_batch(&mut self, me: NodeId) -> SlotBatch {
        let take = self.pending.len().min(self.max_batch);
        let outcomes = self.pending.drain(..take).collect();
        let mut room = self.max_batch - take;
        let mut claims = Vec::new();
        let attempts = &self.attempts;
        self.claims.retain(|&rid| {
            let (ack_below, attempt) = attempts.get_with_floor(rid);
            if attempt.is_some_and(|a| a.urgent) {
                if room == 0 {
                    return true;
                }
                room -= 1;
            }
            claims.push(OwnerClaim { rid, server: me, ack_below });
            false
        });
        SlotBatch { outcomes, claims }
    }

    /// The lowest slot index with no decision known locally (the pump
    /// calls this only with nothing of ours in flight): gaps are filled
    /// before new tail slots are opened, which is what keeps a crashed
    /// proposer's abandoned slot from stalling the log (the next proposal
    /// lands there and consensus arbitrates).
    fn lowest_open_slot(&self, regs: &WoRegisters) -> u64 {
        let mut k = self.next_apply;
        while self.decided_ahead.get(k).is_some() || regs.read(RegId::slot(k)).is_some() {
            k += 1;
        }
        k
    }

    fn record_decided(&mut self, slot: u64, value: &RegValue) {
        if slot >= self.next_apply {
            self.decided_ahead.entry(slot).get_or_insert_with(|| value.clone());
        }
        // Our proposal for this slot is settled: if another batch won, the
        // entries we carried go back to their queues for the next slot
        // (claims keep their urgency). A compacted slot's placeholder
        // carries none of them; what its watermarks settle leaves the
        // queues when it applies.
        let Some((_, ours)) = self.inflight.take_if(|(s, _)| *s == slot) else { return };
        let (outcomes, claims) =
            value.batch().map_or((&[][..], &[][..]), |b| (&b.outcomes, &b.claims));
        for (rid, decision) in &ours.outcomes {
            if !outcomes.iter().any(|(r, _)| r == rid) && self.undecided(*rid) {
                self.pending.push((*rid, decision.clone()));
            }
        }
        for claim in &ours.claims {
            if !claims.iter().any(|c| c.rid == claim.rid) && self.unowned(claim.rid) {
                self.claims.push(claim.rid);
            }
        }
    }

    fn drain_applied(&mut self) -> Few<AppliedSlot> {
        let mut out = Few::new();
        while let Some(value) = self.decided_ahead.remove(self.next_apply) {
            let slot = self.next_apply;
            self.next_apply += 1;
            let mut applied = AppliedSlot {
                slot,
                entries: Few::new(),
                claims: Few::new(),
                watermarks: Few::new(),
            };
            let batch = match value {
                RegValue::Batch(batch) => batch,
                // A slot compacted where it was answered from: its
                // placeholder settles every request it carried, and it has
                // no member left to track.
                RegValue::Watermarks(table) => {
                    for &(client, floor) in table.iter() {
                        if self.advance_watermark(client, floor) {
                            applied.watermarks.push((client, floor));
                        }
                    }
                    self.placeholders_applied += 1;
                    out.push(applied);
                    continue;
                }
            };
            // Watermarks first: what they settle — members of this very
            // slot included — is ignored below, identically on every
            // replica that applies this slot.
            for claim in &batch.claims {
                let client = claim.rid.request.client;
                if self.advance_watermark(client, claim.ack_below) {
                    applied.watermarks.push((client, claim.ack_below));
                }
            }
            let mut unsettled = 0;
            // Slots apply in order, so an attempt already a member of this
            // one (claimed and decided here, or listed twice) has it last.
            let mut join = |attempt: &mut Attempt| {
                if attempt.slots.last() != Some(slot) {
                    attempt.slots.push(slot);
                    unsettled += 1;
                }
            };
            for claim in &batch.claims {
                let Some(attempt) = self.attempts.open(claim.rid) else { continue };
                join(attempt);
                if attempt.owner.is_none() {
                    attempt.owner = Some(claim.server);
                    attempt.urgent = false;
                    applied.claims.push(*claim);
                }
            }
            for (at, (rid, decision)) in batch.outcomes.iter().enumerate() {
                let Some(attempt) = self.attempts.open(*rid) else { continue };
                join(attempt);
                if attempt.decision.is_none() {
                    attempt.decision = Some((Arc::clone(&batch), at));
                    applied.entries.push((*rid, decision.clone()));
                }
            }
            if unsettled > 0 {
                *self.applied_members.entry(slot) = Some(unsettled);
            }
            out.push(applied);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Outbox;
    use crate::{EngineConfig, WoEvent};
    use etx_base::ids::RequestId;
    use etx_base::msg::{ConsensusMsg, Payload};
    use etx_base::runtime::Event;
    use etx_base::value::Outcome;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    const A: NodeId = NodeId(10);
    const B: NodeId = NodeId(11);
    const C: NodeId = NodeId(12);

    fn rid(seq: u64) -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq })
    }

    fn commit() -> Decision {
        Decision::commit(Default::default())
    }

    fn batch(seqs: &[u64]) -> OutcomeBatch {
        seqs.iter().map(|&s| (rid(s), commit())).collect()
    }

    fn claim(seq: u64, server: NodeId, ack_below: u64) -> OwnerClaim {
        OwnerClaim { rid: rid(seq), server, ack_below }
    }

    fn value(outcomes: OutcomeBatch, claims: Vec<OwnerClaim>) -> RegValue {
        RegValue::Batch(Arc::new(SlotBatch { outcomes, claims }))
    }

    fn slot_value(seqs: &[u64]) -> RegValue {
        value(batch(seqs), Vec::new())
    }

    fn outcomes_only(outcomes: OutcomeBatch) -> Arc<SlotBatch> {
        Arc::new(SlotBatch { outcomes, claims: Vec::new() })
    }

    /// Every slot membership awaiting compaction, as `(attempt, slot)` in
    /// order.
    fn unsettled(log: &DecisionLog) -> Vec<(ResultId, u64)> {
        log.attempts.iter().flat_map(|(rid, a)| a.slots.iter().map(move |s| (rid, s))).collect()
    }

    /// The attempts whose claim a request waits on, in order.
    fn urgent(log: &DecisionLog) -> Vec<ResultId> {
        log.attempts.iter().filter(|(_, a)| a.urgent).map(|(rid, _)| rid).collect()
    }

    /// The attempts with a recorded decision, in order.
    fn decided(log: &DecisionLog) -> Vec<ResultId> {
        log.attempts.iter().filter(|(_, a)| a.decision.is_some()).map(|(rid, _)| rid).collect()
    }

    #[test]
    fn first_occurrence_wins_across_slots() {
        let mut log = DecisionLog::default();
        log.record_decided(0, &value(vec![(rid(1), commit())], Vec::new()));
        log.record_decided(1, &value(vec![(rid(1), Decision::nil_abort())], Vec::new()));
        let applied = log.drain_applied();
        assert_eq!(applied.len(), 2);
        assert_eq!(applied[0].entries.len(), 1, "slot 0 carries the first occurrence");
        assert!(applied[1].entries.is_empty(), "slot 1's duplicate is filtered");
        assert_eq!(log.decision_of(rid(1)).unwrap().outcome, Outcome::Commit);
    }

    #[test]
    fn first_claim_wins_across_slots() {
        let mut log = DecisionLog::default();
        log.record_decided(0, &value(Vec::new(), vec![claim(1, A, 0)]));
        log.record_decided(1, &value(Vec::new(), vec![claim(1, B, 0), claim(2, B, 0)]));
        let applied = log.drain_applied();
        assert_eq!(applied[0].claims, [claim(1, A, 0)]);
        assert_eq!(applied[1].claims, [claim(2, B, 0)], "the second claim for 1 decides nothing");
        assert_eq!(log.owner_of(rid(1)), Some(A));
        assert_eq!(log.owner_of(rid(2)), Some(B));
        assert_eq!(log.owner_of(rid(3)), None);
        assert_eq!(log.owners().collect::<Vec<_>>(), [(rid(1), A), (rid(2), B)]);
    }

    #[test]
    fn a_claim_racing_a_cleaners_abort_changes_neither_register() {
        // A owns attempt 1 and is suspected: B's cleaner writes
        // `(nil, abort)` while B — a re-broadcast request in hand — also
        // claims the attempt. The two arbitrations are independent: A
        // stays the owner, the abort is the decision, and B (not the
        // owner) answers the request from the log's decision.
        let mut log = DecisionLog::default();
        log.record_decided(0, &value(Vec::new(), vec![claim(1, A, 0)]));
        log.record_decided(1, &value(vec![(rid(1), Decision::nil_abort())], vec![claim(1, B, 0)]));
        let applied = log.drain_applied();
        assert!(applied[1].claims.is_empty());
        assert_eq!(applied[1].entries, [(rid(1), Decision::nil_abort())]);
        assert_eq!(log.owner_of(rid(1)), Some(A));
        assert_eq!(log.decision_of(rid(1)), Some(&Decision::nil_abort()));
        // The owner's own outcome, arriving later, loses to the abort.
        log.record_decided(2, &slot_value(&[1]));
        assert!(log.drain_applied()[0].entries.is_empty());
        assert_eq!(
            unsettled(&log),
            [(rid(1), 0), (rid(1), 1), (rid(1), 2)],
            "one member per attempt and slot, claims-only slots included"
        );
    }

    #[test]
    fn a_claim_for_a_settled_request_is_ignored_but_its_watermark_is_not() {
        let mut log = DecisionLog::default();
        log.gc_client(NodeId(0), 3);
        log.claim(rid(2), true);
        assert!(log.claims.is_empty() && urgent(&log).is_empty(), "settled: nothing to claim");
        // A late claim for request 2 (settled here) that carries a newer
        // watermark than this replica has heard.
        log.record_decided(0, &value(batch(&[4]), vec![claim(2, A, 5), claim(5, A, 5)]));
        let applied = log.drain_applied();
        assert_eq!(applied[0].claims, [claim(5, A, 5)]);
        assert_eq!(applied[0].watermarks, [(NodeId(0), 5)]);
        assert!(
            applied[0].entries.is_empty(),
            "the slot's own watermark settles its outcome for 4"
        );
        assert_eq!(log.owner_of(rid(2)), None);
        assert!(log.settled(&rid(4)) && !log.settled(&rid(5)));
        assert_eq!(log.tracked_attempts(), 2, "request 5's owner and its slot membership");
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
            inflight: Some((0, outcomes_only(batch(&[7, 8])))),
            ..DecisionLog::default()
        };
        // Slot 0 decides with someone else's batch that covers 7 but not 8.
        log.record_decided(0, &slot_value(&[7]));
        log.drain_applied();
        assert!(log.inflight.is_none());
        assert_eq!(log.pending, batch(&[8]), "only the unserved outcome is re-proposed");
        assert_eq!(log.decision_of(rid(7)).unwrap().outcome, Outcome::Commit);
    }

    #[test]
    fn losing_a_slot_requeues_unserved_claims_with_their_urgency() {
        let ours = SlotBatch {
            outcomes: Vec::new(),
            claims: vec![claim(7, A, 0), claim(8, A, 0), claim(9, A, 0)],
        };
        let mut log = DecisionLog { inflight: Some((0, Arc::new(ours))), ..DecisionLog::default() };
        log.attempts.get_or_default(rid(8)).urgent = true;
        // Slot 0 goes to B's batch, which claims 7 — decided, if not for us.
        log.record_decided(0, &value(Vec::new(), vec![claim(7, B, 0)]));
        log.drain_applied();
        assert_eq!(log.owner_of(rid(7)), Some(B));
        assert_eq!(log.claims, [rid(8), rid(9)], "the unserved claims go back in the queue");
        assert_eq!(urgent(&log), [rid(8)], "and the one a request waits on stays urgent");
    }

    #[test]
    fn out_of_order_decides_apply_in_slot_order_across_the_window() {
        // Our proposal holds slot 0; a peer's slot 1 decides first. Nothing
        // may apply until slot 0 decides, our proposal stays in flight, and
        // the apply order must be slot order, not decide order.
        let mut log = DecisionLog {
            inflight: Some((0, outcomes_only(batch(&[1, 2])))),
            ..DecisionLog::default()
        };
        log.record_decided(1, &slot_value(&[3]));
        assert!(log.drain_applied().is_empty(), "slot 1 buffers behind the gap at 0");
        assert!(log.inflight.is_some(), "slot 0's round is still running");
        assert_eq!(log.applied_up_to(), 0);
        log.record_decided(0, &slot_value(&[1, 2]));
        let applied = log.drain_applied();
        assert_eq!(applied.iter().map(|a| a.slot).collect::<Vec<_>>(), [0, 1]);
        assert!(log.inflight.is_none() && log.pending.is_empty());
        assert_eq!(log.decision_of(rid(3)).unwrap().outcome, Outcome::Commit);
    }

    /// A one-replica register bank: every write decides synchronously, so
    /// a test can watch what `pump` puts into which slot.
    fn solo() -> (Outbox, WoRegisters) {
        (Outbox::new(A), WoRegisters::new(A, &[A], EngineConfig::default()))
    }

    /// Replica `A` of three: with nothing delivered, proposals stay in
    /// flight and every message stays in the outbox.
    fn trio() -> (Outbox, WoRegisters) {
        (Outbox::new(A), WoRegisters::new(A, &[A, B, C], EngineConfig::default()))
    }

    const TRUSTING: Suspects<'static> = &|_| false;

    #[test]
    fn a_pre_claim_is_never_proposed_alone_and_rides_for_free() {
        let (mut ctx, mut regs) = solo();
        let mut log = DecisionLog::new(2, 1);
        log.claim(rid(5), false);
        log.claim(rid(5), false);
        assert_eq!(log.claims, [rid(5)], "claiming twice queues once");
        let applied = log.propose(&mut ctx, &mut regs, Vec::new(), TRUSTING);
        assert!(applied.is_empty() && log.applied_up_to() == 0, "no slot for a pre-claim");
        // Two outcomes fill the batch cap; the pre-claim rides regardless.
        let applied = log.propose(&mut ctx, &mut regs, batch(&[3, 4]), TRUSTING);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].entries.len(), 2);
        assert_eq!(applied[0].claims, [claim(5, A, 0)]);
        assert_eq!(log.owner_of(rid(5)), Some(A));
        // Its owner known, claiming it again — urgently or not — is a no-op.
        log.claim(rid(5), true);
        assert!(log.claims.is_empty() && urgent(&log).is_empty());
    }

    #[test]
    fn urgent_claims_count_against_the_batch_cap_and_carry_the_watermark() {
        let (mut ctx, mut regs) = solo();
        let mut log = DecisionLog::new(1, 1);
        log.gc_client(NodeId(0), 4);
        log.claim(rid(6), true);
        log.claim(rid(7), true);
        let applied = log.propose(&mut ctx, &mut regs, batch(&[5]), TRUSTING);
        // Batch cap 1: nothing shares a slot, outcomes go first.
        assert_eq!(applied.len(), 3);
        assert_eq!((applied[0].entries.len(), applied[0].claims.len()), (1, 0));
        assert_eq!(applied[1].claims, [claim(6, A, 4)]);
        assert_eq!(applied[2].claims, [claim(7, A, 4)]);
        assert!(urgent(&log).is_empty(), "a decided owner is no longer waited on");
    }

    #[test]
    fn an_urgent_claim_flushes_with_the_window_open_and_waits_with_it_full() {
        let (mut ctx, mut regs) = trio();
        let mut log = DecisionLog::new(8, 1);
        log.claim(rid(1), true);
        log.propose(&mut ctx, &mut regs, Vec::new(), TRUSTING);
        assert!(log.inflight.is_some(), "nothing in flight: the claim opens a slot at once");
        // Slot 0 in flight. An outcome waits, and so does a pre-claim that
        // becomes urgent when its request arrives.
        log.propose(&mut ctx, &mut regs, batch(&[9]), TRUSTING);
        log.claim(rid(2), false);
        log.claim(rid(2), true);
        log.propose(&mut ctx, &mut regs, Vec::new(), TRUSTING);
        assert_eq!((log.pending_len(), log.claims.as_slice()), (1, &[rid(2)][..]), "they wait");
        assert_eq!(log.opened_proposal(), None);
        // Claiming what is already in flight queues nothing new.
        log.claim(rid(1), true);
        assert_eq!(log.claims, [rid(2)]);
        // Slot 0 decides as proposed: both leave in slot 1.
        let ours = RegValue::Batch(log.inflight.clone().expect("slot 0 in flight").1);
        let applied = log.on_slot_decided(&mut ctx, &mut regs, 0, &ours, TRUSTING);
        assert_eq!(applied[0].claims, [claim(1, A, 0)]);
        assert!(log.claims.is_empty() && log.pending.is_empty());
        let (slot, opened) = log.opened_proposal().expect("slot 1 opens");
        assert_eq!(
            (slot, &opened.outcomes[..], &opened.claims[..]),
            (1, &batch(&[9])[..], &[claim(2, A, 0)][..])
        );
    }

    /// The slot each call's pump reported as opened.
    fn opened(log: &DecisionLog) -> Option<u64> {
        log.opened_proposal().map(|(slot, _)| slot)
    }

    #[test]
    fn each_pump_reports_the_proposals_it_opened_once_in_slot_order() {
        let (mut ctx, mut regs) = trio();
        let mut log = DecisionLog::new(1, 1);
        log.propose(&mut ctx, &mut regs, batch(&[1, 2]), TRUSTING);
        assert_eq!(opened(&log), Some(0), "one slot, for the first outcome");
        log.propose(&mut ctx, &mut regs, batch(&[3]), TRUSTING);
        assert_eq!(opened(&log), None, "a proposal in flight: nothing opens");
        // Slot 0 decides: its pump opens slot 1 for the queued 2, and the
        // proposal it replaces is not reported again.
        let ours = RegValue::Batch(log.inflight.clone().expect("slot 0 in flight").1);
        log.on_slot_decided(&mut ctx, &mut regs, 0, &ours, TRUSTING);
        assert_eq!(opened(&log), Some(1));
        log.propose(&mut ctx, &mut regs, Vec::new(), TRUSTING);
        assert_eq!(opened(&log), None, "slot 1 is reported once");
        // A proposal decided in the event that proposed it is not reported.
        let (mut ctx, mut regs) = solo();
        let mut log = DecisionLog::new(1, 1);
        let applied = log.propose(&mut ctx, &mut regs, batch(&[1, 2]), TRUSTING);
        assert_eq!(applied.len(), 2);
        assert_eq!(opened(&log), None);
    }

    /// The slot pulls sent since the last call, as `(slot, peer)` — the
    /// outbox is emptied.
    fn pulls(ctx: &mut Outbox) -> Vec<(u64, NodeId)> {
        let pull = |(to, m)| match m {
            Payload::Consensus(ConsensusMsg::DecideReq { inst }) => Some((inst.slot_index()?, to)),
            _ => None,
        };
        ctx.sent.drain(..).filter_map(pull).collect()
    }

    #[test]
    fn a_gap_is_pulled_once_per_resync_period() {
        let (mut ctx, mut regs) = trio();
        let mut log = DecisionLog::default();
        let mut decide = |slot: u64| {
            log.on_slot_decided(&mut ctx, &mut regs, slot, &slot_value(&[slot]), TRUSTING);
            pulls(&mut ctx)
        };
        assert_eq!(decide(9).len(), 18, "slots 0..9, two peers each");
        for slot in [5, 7, 2] {
            assert_eq!(decide(slot), [], "slot {slot} uncovers no new gap");
        }
        log.request_gaps(&mut ctx, &mut regs);
        let gaps = [0, 1, 3, 4, 6, 8];
        let expect: Vec<_> = gaps.into_iter().flat_map(|k| [(k, B), (k, C)]).collect();
        assert_eq!(pulls(&mut ctx), expect, "the resync tick re-pulls every gap once per peer");
        log.on_slot_decided(&mut ctx, &mut regs, 12, &slot_value(&[12]), TRUSTING);
        let fresh = [(10, B), (10, C), (11, B), (11, C)];
        assert_eq!(pulls(&mut ctx), fresh, "only the new gaps 10 and 11");
    }

    #[test]
    fn gc_drops_settled_attempts_below_the_watermark() {
        let mut log = DecisionLog::default();
        log.record_decided(0, &value(batch(&[1, 2, 3]), vec![claim(2, A, 0), claim(3, A, 0)]));
        log.drain_applied();
        log.gc_client(NodeId(0), 3);
        assert!(log.decision_of(rid(1)).is_none());
        assert!(log.decision_of(rid(2)).is_none() && log.owner_of(rid(2)).is_none());
        assert!(log.decision_of(rid(3)).is_some(), "watermark is exclusive");
        assert_eq!(log.owner_of(rid(3)), Some(A));
        log.gc_client(NodeId(9), u64::MAX);
        assert!(log.decision_of(rid(3)).is_some(), "other clients untouched");
    }

    #[test]
    fn gc_reports_fully_settled_slots_exactly_once_in_order() {
        let mut log = DecisionLog::default();
        log.record_decided(0, &value(batch(&[1]), vec![claim(2, A, 0)]));
        log.record_decided(1, &slot_value(&[3]));
        log.record_decided(2, &value(Vec::new(), vec![claim(4, A, 0)]));
        log.drain_applied();
        assert_eq!(log.gc_client(NodeId(0), 2), 0, "slot 0 still carries the claim for 2");
        assert_eq!(log.gc_client(NodeId(0), 3), 1, "slot 0 settled, slot 1 carries 3");
        assert_eq!(log.gc_client(NodeId(0), 5), 3, "slot 1 and the claims-only slot 2 settle");
        assert_eq!(log.gc_client(NodeId(0), 10), 3, "the prefix ends at the apply cursor");
        assert_eq!(log.applied_members.slots().count(), 0);
        log.record_decided(3, &slot_value(&[11]));
        log.drain_applied();
        assert_eq!(log.settled_below(), 3, "an applied slot with an unsettled member");
    }

    #[test]
    fn a_client_that_stops_pins_the_prefix() {
        let other = |seq| ResultId::first(RequestId { client: NodeId(1), seq });
        let mut log = DecisionLog::default();
        // Client 1's last request sits in slot 1; client 0 goes on.
        log.record_decided(0, &slot_value(&[1]));
        log.record_decided(1, &value(vec![(other(7), commit())], Vec::new()));
        for slot in 2..6 {
            log.record_decided(slot, &slot_value(&[slot]));
        }
        log.drain_applied();
        assert_eq!(log.gc_client(NodeId(0), 100), 1, "settled slots above 1 wait behind it");
        assert_eq!(log.applied_members.slots().collect::<Vec<_>>(), [1]);
        assert_eq!(log.gc_client(NodeId(1), 8), 6, "the stopped client moves on");
    }

    #[test]
    fn a_slot_of_ignored_entries_settles_as_it_applies() {
        let mut log = DecisionLog::default();
        log.gc_client(NodeId(0), 5);
        // A slow cleaner's abort and a stale claim, both below the
        // watermark: nothing applies and nothing is left to settle.
        log.record_decided(0, &value(vec![(rid(2), Decision::nil_abort())], vec![claim(3, B, 0)]));
        let applied = log.drain_applied();
        assert!(applied[0].entries.is_empty() && applied[0].claims.is_empty());
        assert_eq!(log.settled_below(), 1);
        assert_eq!(log.tracked_attempts(), 0);
    }

    /// Replica A applied slot 0 and its client moved on, so A compacted
    /// the slot; replica B missed it. B pulls the slot and receives A's
    /// watermark table, not the slot's entries. B's cleaner, which never
    /// heard the client's watermark from the client, then proposes
    /// `(nil, abort)` for the member attempt: it must lose on both
    /// replicas — ignored as settled, never a first occurrence.
    #[test]
    fn a_pulled_placeholder_settles_its_slot_so_a_late_cleaner_abort_loses() {
        let (mut ctx, mut regs) = solo();
        let mut a = DecisionLog::new(1, 1);
        let applied = a.propose(&mut ctx, &mut regs, batch(&[1]), TRUSTING);
        assert_eq!(applied[0].entries.len(), 1);
        assert_eq!(a.gc_client(NodeId(0), 2), 1, "request 1 settled: slot 0 is the prefix");
        assert!(regs.compact_below(1, |reuse| a.placeholder(reuse)));
        // B's pull of slot 0 is answered with the table.
        let pull = ConsensusMsg::DecideReq { inst: RegId::slot(0) };
        regs.handle(
            &mut ctx,
            &Event::Message { from: B, payload: Payload::Consensus(pull) },
            TRUSTING,
        );
        let table = RegValue::Watermarks(Arc::new(vec![(NodeId(0), 2)]));
        let decide = ConsensusMsg::Decide { inst: RegId::slot(0), value: table.clone() };
        assert_eq!(ctx.sent.pop(), Some((B, Payload::Consensus(decide))));
        let mut b = DecisionLog::default();
        b.record_decided(0, &table);
        let applied = b.drain_applied();
        assert!(applied[0].entries.is_empty() && applied[0].claims.is_empty());
        assert_eq!(applied[0].watermarks, [(NodeId(0), 2)], "the table applies as watermarks");
        assert_eq!((b.placeholders_applied(), b.settled_below()), (1, 1));
        // The late abort, in slot 1 on both replicas.
        let abort = value(vec![(rid(1), Decision::nil_abort())], Vec::new());
        for log in [&mut a, &mut b] {
            log.record_decided(1, &abort);
            assert!(log.drain_applied()[0].entries.is_empty(), "the late abort is ignored");
            assert!(log.settled(&rid(1)) && log.decision_of(rid(1)).is_none());
        }
    }

    #[test]
    fn late_entries_below_the_watermark_never_resurface() {
        // A settled request's seen-record is GC'd; a slow cleaner's
        // conflicting entry then arrives in a later slot. It must be
        // swallowed, not surfaced as a fresh first occurrence.
        let mut log = DecisionLog::default();
        log.record_decided(0, &value(vec![(rid(1), commit())], Vec::new()));
        log.drain_applied();
        log.gc_client(NodeId(0), 2); // request 1 settled
        assert!(log.decision_of(rid(1)).is_none(), "arbitration memory GC'd");
        log.record_decided(1, &value(vec![(rid(1), Decision::nil_abort())], Vec::new()));
        let applied = log.drain_applied();
        assert_eq!(applied.len(), 1);
        assert!(applied[0].entries.is_empty(), "settled attempt must not resurface");
        assert!(log.decision_of(rid(1)).is_none());
    }

    /// The log as this module kept it before its slot windows and
    /// per-client ranges: ordered maps, in-order apply from a map of
    /// decided slots, and GC by `retain` over every map on every call —
    /// the reference the windows must match call for call. Its settled
    /// prefix is a scan from slot 0 for the first applied slot with an
    /// unsettled member.
    #[derive(Default)]
    struct ScanLog {
        next_apply: u64,
        decided: BTreeMap<u64, RegValue>,
        watermarks: BTreeMap<NodeId, u64>,
        seen: BTreeSet<ResultId>,
        owners: BTreeMap<ResultId, NodeId>,
        /// Every applied slot's members, settled or not.
        members: BTreeMap<u64, BTreeSet<ResultId>>,
    }

    impl ScanLog {
        fn settled(&self, rid: &ResultId) -> bool {
            self.watermarks.get(&rid.request.client).is_some_and(|&w| rid.request.seq < w)
        }

        fn raise(&mut self, client: NodeId, ack_below: u64) {
            let w = self.watermarks.entry(client).or_insert(0);
            *w = (*w).max(ack_below);
            let w = *w;
            let live = |rid: &ResultId| rid.request.client != client || rid.request.seq >= w;
            self.seen.retain(live);
            self.owners.retain(|rid, _| live(rid));
        }

        fn decide(&mut self, slot: u64, value: RegValue) {
            if slot >= self.next_apply {
                self.decided.entry(slot).or_insert(value);
            }
            while let Some(value) = self.decided.remove(&self.next_apply) {
                self.apply(self.next_apply, value);
                self.next_apply += 1;
            }
        }

        fn apply(&mut self, slot: u64, value: RegValue) {
            let batch = match value {
                RegValue::Batch(batch) => batch,
                RegValue::Watermarks(table) => {
                    for &(client, floor) in table.iter() {
                        self.raise(client, floor);
                    }
                    self.members.insert(slot, BTreeSet::new());
                    return;
                }
            };
            for c in &batch.claims {
                self.raise(c.rid.request.client, c.ack_below);
            }
            for c in &batch.claims {
                if !self.settled(&c.rid) {
                    self.owners.entry(c.rid).or_insert(c.server);
                }
            }
            for (rid, _) in &batch.outcomes {
                if !self.settled(rid) {
                    self.seen.insert(*rid);
                }
            }
            let rids = batch.claims.iter().map(|c| c.rid).chain(batch.outcomes.iter().map(|o| o.0));
            self.members.insert(slot, rids.collect());
        }

        /// The applied slots with an unsettled member, each with those
        /// members.
        fn unsettled(&self) -> BTreeMap<u64, BTreeSet<ResultId>> {
            let open = |(&slot, m): (&u64, &BTreeSet<ResultId>)| {
                let m: BTreeSet<ResultId> =
                    m.iter().copied().filter(|r| !self.settled(r)).collect();
                (!m.is_empty()).then_some((slot, m))
            };
            self.members.iter().filter_map(open).collect()
        }

        fn settled_below(&self) -> u64 {
            self.unsettled().keys().next().copied().unwrap_or(self.next_apply)
        }

        fn gc_client(&mut self, client: NodeId, ack_below: u64) -> u64 {
            self.raise(client, ack_below);
            self.settled_below()
        }
    }

    proptest::proptest! {
        /// The windows are the maps: over random slot contents (outcomes
        /// with and without results, claims that raise watermarks, slots
        /// of claims alone, slots whose entries are all below their
        /// watermarks, attempts repeated across three or more slots,
        /// several clients, compacted slots' watermark tables) decided in
        /// random order — gaps, slots decided far ahead of the apply
        /// cursor — and random watermarks (regressing ones included, and
        /// clients that stop and pin the prefix), every GC call reports
        /// the same settled prefix, and after every step the log applies,
        /// remembers, tracks and buffers exactly what the retain-everything
        /// reference does.
        #[test]
        fn range_gc_matches_the_full_scan(
            steps in proptest::collection::vec(
                (
                    0u8..4,
                    0u32..3,
                    0u64..8,
                    proptest::collection::vec((0u32..3, 0u64..6, 1u32..3, 0u8..4), 0..5),
                ),
                1..80,
            ),
        ) {
            let mut log = DecisionLog::default();
            let mut scan = ScanLog::default();
            for (op, client, seq, entries) in steps {
                if op <= 1 {
                    let value = if op == 0 {
                        let mut batch = SlotBatch { outcomes: Vec::new(), claims: Vec::new() };
                        for (client, seq, attempt, kind) in entries {
                            let request = RequestId { client: NodeId(client), seq };
                            let rid = ResultId { request, attempt };
                            match kind {
                                0 => batch.outcomes.push((rid, commit())),
                                1 => batch.outcomes.push((rid, Decision::nil_abort())),
                                _ => batch.claims.push(OwnerClaim { rid, server: A, ack_below: seq / 2 }),
                            }
                        }
                        RegValue::Batch(Arc::new(batch))
                    } else {
                        // A compacted slot's placeholder: one watermark
                        // per client, in client order.
                        let table: BTreeMap<NodeId, u64> =
                            entries.iter().map(|&(client, seq, ..)| (NodeId(client), seq)).collect();
                        RegValue::Watermarks(Arc::new(table.into_iter().collect()))
                    };
                    // `seq²` slots past the apply cursor: 0 fills the
                    // lowest gap, the rest decide ahead of it — or land on
                    // a slot decided already, whose first value stays.
                    let slot = scan.next_apply + seq * seq;
                    scan.decide(slot, value.clone());
                    log.record_decided(slot, &value);
                    log.drain_applied();
                } else {
                    let prefix = log.gc_client(NodeId(client), seq);
                    proptest::prop_assert_eq!(prefix, scan.gc_client(NodeId(client), seq));
                }
                proptest::prop_assert_eq!(log.applied_up_to(), scan.next_apply);
                proptest::prop_assert_eq!(log.settled_below(), scan.settled_below());
                proptest::prop_assert!(log.decided_ahead.slots().eq(scan.decided.keys().copied()));
                for (slot, value) in &scan.decided {
                    proptest::prop_assert_eq!(log.decided_ahead.get(*slot), Some(value));
                }
                proptest::prop_assert!(log.decided_ahead.is_tight() && log.applied_members.is_tight());
                proptest::prop_assert!(decided(&log).iter().eq(scan.seen.iter()));
                proptest::prop_assert!(log.owners().eq(scan.owners.iter().map(|(&r, &o)| (r, o))));
                let open = scan.unsettled();
                proptest::prop_assert!(log.applied_members.slots().eq(open.keys().copied()));
                let members: BTreeSet<(ResultId, u64)> = open
                    .iter()
                    .flat_map(|(&slot, m)| m.iter().map(move |&rid| (rid, slot)))
                    .collect();
                proptest::prop_assert_eq!(unsettled(&log), Vec::from_iter(members));
                for slot in log.applied_members.slots() {
                    let named = unsettled(&log).iter().filter(|(_, s)| *s == slot).count();
                    let applied = *log.applied_members.get(slot).expect("held");
                    proptest::prop_assert_eq!(applied, named, "slot {}", slot);
                }
            }
        }
    }

    #[test]
    fn an_attempt_in_three_slots_settles_all_three() {
        let mut log = DecisionLog::default();
        for slot in 0..3 {
            log.record_decided(slot, &slot_value(&[1]));
        }
        log.drain_applied();
        assert_eq!(unsettled(&log), [(rid(1), 0), (rid(1), 1), (rid(1), 2)]);
        assert_eq!(log.gc_client(NodeId(0), 2), 3, "all three settle at once");
        assert_eq!(log.applied_members.slots().count(), 0, "the window is empty again");
    }

    /// Three replicas — register bank and log view each — on a loopback
    /// network the test delivers by hand. Each compacts its bank below its
    /// log's settled prefix as a host does, so the batch a slot decided
    /// is kept here, as the retained log.
    struct Cluster {
        regs: Vec<WoRegisters>,
        logs: Vec<DecisionLog>,
        net: VecDeque<(NodeId, NodeId, Payload)>,
        truth: BTreeMap<u64, Arc<SlotBatch>>,
    }

    impl Cluster {
        const PEERS: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

        fn new(max_batch: usize) -> Self {
            let bank = |&p| WoRegisters::new(p, &Self::PEERS, EngineConfig::default());
            Cluster {
                regs: Self::PEERS.iter().map(bank).collect(),
                logs: Self::PEERS.iter().map(|_| DecisionLog::new(max_batch, 1)).collect(),
                net: VecDeque::new(),
                truth: BTreeMap::new(),
            }
        }

        /// Replica `n` compacts its bank below its log's settled prefix.
        fn compact(&mut self, n: usize) {
            let log = &self.logs[n];
            self.regs[n].compact_below(log.settled_below(), |reuse| log.placeholder(reuse));
        }

        fn gc_client(&mut self, n: usize, client: NodeId, ack_below: u64) {
            self.logs[n].gc_client(client, ack_below);
            self.compact(n);
        }

        fn propose(&mut self, n: usize, entries: OutcomeBatch) {
            let mut ctx = Outbox::new(Self::PEERS[n]);
            self.logs[n].propose(&mut ctx, &mut self.regs[n], entries, TRUSTING);
            self.net.extend(ctx.sent.into_iter().map(|(to, m)| (Self::PEERS[n], to, m)));
        }

        fn deliver(&mut self, pick: usize) {
            if self.net.is_empty() {
                return;
            }
            let (from, to, payload) = self.net.remove(pick % self.net.len()).expect("in range");
            let n = to.0 as usize;
            let mut ctx = Outbox::new(to);
            let event = Event::Message { from, payload };
            for ev in self.regs[n].handle(&mut ctx, &event, TRUSTING) {
                let WoEvent::Decided { reg, value } = ev;
                let slot = reg.slot_index().expect("only slots are written");
                if let Some(batch) = value.batch() {
                    let first = self.truth.entry(slot).or_insert_with(|| Arc::clone(batch));
                    assert_eq!(first, batch, "slot {slot} decided two batches");
                }
                self.logs[n].on_slot_decided(&mut ctx, &mut self.regs[n], slot, &value, TRUSTING);
            }
            self.compact(n);
            self.net.extend(ctx.sent.into_iter().map(|(to, m)| (Self::PEERS[n], to, m)));
        }

        /// Checks replica `n` against the retain-everything reference: the
        /// batches decided below its apply cursor, scanned from slot 0 with
        /// no memory ever dropped — whether the replica applied a slot's
        /// batch or a compacted slot's placeholder. Wherever the replica
        /// still tracks an attempt, owner and decision must be the
        /// reference's; and everything the reference knows, the replica
        /// knows or has settled.
        fn check(&self, n: usize) -> Result<(), proptest::test_runner::TestCaseError> {
            let log = &self.logs[n];
            let mut owners = BTreeMap::new();
            let mut decisions = BTreeMap::new();
            for slot in 0..log.applied_up_to() {
                // Whichever replica decided the slot, consensus made the
                // batch the same, and a placeholder stands only for a slot
                // some replica applied a batch for.
                let batch = self.truth.get(&slot).expect("an applied slot decided a batch");
                for c in &batch.claims {
                    owners.entry(c.rid).or_insert(c.server);
                }
                for (rid, d) in &batch.outcomes {
                    decisions.entry(*rid).or_insert(d.outcome);
                }
            }
            for (&rid, &owner) in &owners {
                if !log.settled(&rid) {
                    proptest::prop_assert_eq!(log.owner_of(rid), Some(owner), "owner of {}", rid);
                }
            }
            for (&rid, &outcome) in &decisions {
                if !log.settled(&rid) {
                    let known = log.decision_of(rid).map(|d| d.outcome);
                    proptest::prop_assert_eq!(known, Some(outcome), "decision of {}", rid);
                }
            }
            proptest::prop_assert!(log.owners().all(|(rid, o)| owners.get(&rid) == Some(&o)));
            proptest::prop_assert!(decided(log).iter().all(|rid| decisions.contains_key(rid)));
            Ok(())
        }
    }

    proptest::proptest! {
        /// One arbiter, three views: under random interleavings of outcome
        /// proposals, urgent claims and pre-claims from every replica,
        /// message deliveries in any order, and watermarks heard by one
        /// replica only (and then carried to the others by its claims, or
        /// by the placeholder of a slot it compacted), every replica's
        /// `owner_of` and `decision_of` are the first occurrences in its
        /// applied prefix — so any two replicas agree at equal prefixes —
        /// for every attempt the replica has not settled; and at
        /// quiescence all three hold the same log, each slot as its batch
        /// or compacted.
        #[test]
        fn replicas_agree_with_the_retained_log_at_every_prefix(
            max_batch in 1usize..4,
            steps in proptest::collection::vec(
                (0u8..12, 0usize..3, 0u32..2, 0u64..6, 1u32..3, 0usize..16),
                1..120,
            ),
        ) {
            let mut c = Cluster::new(max_batch);
            for (op, n, client, seq, attempt, pick) in steps {
                let request = RequestId { client: NodeId(100 + client), seq };
                let rid = ResultId { request, attempt };
                match op {
                    0 => c.propose(n, vec![(rid, commit())]),
                    1 => c.propose(n, vec![(rid, Decision::nil_abort())]),
                    2 => {
                        c.logs[n].claim(rid, true);
                        c.propose(n, Vec::new());
                    }
                    3 => c.logs[n].claim(rid, false),
                    4 => c.gc_client(n, request.client, seq),
                    _ => c.deliver(pick),
                }
                for n in 0..3 {
                    c.check(n)?;
                }
            }
            // Drain: every proposal in flight decides, every queued member
            // that may open a slot gets one.
            for _ in 0..10_000 {
                if c.net.is_empty() {
                    break;
                }
                c.deliver(0);
            }
            proptest::prop_assert!(c.net.is_empty(), "the network drains");
            for n in 0..3 {
                c.check(n)?;
                proptest::prop_assert!(c.logs[n].inflight.is_none());
                proptest::prop_assert!(c.logs[n].pending.is_empty() && urgent(&c.logs[n]).is_empty());
            }
            // Each replica holds every slot's batch or a placeholder for it.
            let frontier = c.logs.iter().map(|l| l.applied_up_to()).max().expect("three logs");
            for n in 0..3 {
                for slot in 0..frontier {
                    let value = c.regs[n].read(RegId::slot(slot));
                    proptest::prop_assert!(
                        matches!(value, Some(RegValue::Watermarks(_)))
                            || value.and_then(RegValue::batch) == c.truth.get(&slot),
                        "slot {} at replica {}: {:?}", slot, n, value
                    );
                }
            }
        }

        /// A gap is pulled once per resync period: over random orders of
        /// decided slots with resync ticks interleaved, no slot is pulled
        /// from a peer twice between two ticks; after every step each gap
        /// below the frontier has been pulled from every peer since the
        /// last tick; and each tick pulls exactly the gaps, once per peer.
        #[test]
        fn a_gap_is_pulled_once_per_peer_between_resync_ticks(
            steps in proptest::collection::vec((0u8..5, 0u64..24), 1..60),
        ) {
            let (mut ctx, mut regs) = trio();
            let mut log = DecisionLog::default();
            let mut decided = BTreeSet::new();
            let mut period: BTreeMap<(u64, NodeId), usize> = BTreeMap::new();
            for (op, slot) in steps {
                let sent = if op == 0 {
                    log.request_gaps(&mut ctx, &mut regs);
                    period.clear();
                    pulls(&mut ctx)
                } else if decided.insert(slot) {
                    log.on_slot_decided(&mut ctx, &mut regs, slot, &slot_value(&[slot]), TRUSTING);
                    pulls(&mut ctx)
                } else {
                    continue;
                };
                let frontier = decided.last().copied().unwrap_or(0);
                let gaps: Vec<_> = (0..frontier)
                    .filter(|k| !decided.contains(k))
                    .flat_map(|k| [(k, B), (k, C)])
                    .collect();
                if op == 0 {
                    proptest::prop_assert_eq!(&sent, &gaps, "a tick pulls exactly the gaps");
                }
                for pull in sent {
                    *period.entry(pull).or_default() += 1;
                }
                proptest::prop_assert!(period.values().all(|&n| n == 1), "{:?}", period);
                proptest::prop_assert!(gaps.iter().all(|g| period.contains_key(g)));
            }
        }
    }

    #[test]
    fn applied_cursor_and_pending_len_report_state() {
        let mut log = DecisionLog::default();
        assert_eq!(log.applied_up_to(), 0);
        assert_eq!(log.pending_len(), 0);
        log.pending = batch(&[1]);
        log.inflight = Some((0, outcomes_only(batch(&[2, 3]))));
        assert_eq!(log.pending_len(), 3);
    }
}
