//! Rotating-coordinator consensus, one instance per write-once register.
//!
//! The paper builds wo-registers from "a consensus protocol executed among
//! the application servers (e.g. \[4\])" — Chandra & Toueg's ◇S algorithm —
//! and Appendix 3 assumes the optimised variant where, in nice runs, "it
//! takes only a round trip message for the first primary to write into the
//! register". This module implements that family:
//!
//! * rounds `r = 0, 1, 2, …` with coordinator `alist[r mod n]`;
//! * **round 0 fast path**: nothing can have been decided before the first
//!   round, so its coordinator may propose the first estimate it knows (its
//!   own, if it is the writer) without collecting a majority — one round
//!   trip to decide;
//! * **rounds > 0**: the classic three phases — participants send their
//!   `(estimate, ts)` to the round's coordinator; the coordinator waits for
//!   a majority, picks the estimate with the highest `ts` (this is what
//!   preserves agreement across rounds), proposes it; participants adopt and
//!   ack, or nack if they have moved on. An estimate adopted from round
//!   `r`'s proposal carries `ts = r + 1`, an initial one `ts = 0`: a value
//!   round 0 may have decided outranks every value nobody adopted;
//! * a coordinator with a majority of acks **decides** and broadcasts the
//!   decision; undecided replicas also **pull** decisions periodically
//!   (`DecideReq`), which implements the liveness half of the wo-register
//!   `read()` spec;
//! * round changes are driven *only* by failure-detector suspicion of the
//!   current coordinator (plus a patience re-check timer) — never by fixed
//!   timeouts — keeping the protocol asynchronous in the paper's sense.
//!
//! Safety (agreement, validity, integrity) holds under any failure-detector
//! behaviour **while no server recovers after losing its round state**;
//! only termination needs ◇P accuracy and a correct majority, mirroring
//! the paper's §4/§5 discussion. Nothing here is stable: a recovered
//! server is a fresh engine that acks and coordinates as if it had never
//! voted, so an acceptor that forgets its round-0 ack, or a coordinator
//! that forgets its own decision, lets a later round decide a second
//! value for the same slot. A whole tier that loses everything at once
//! forgets every vote together and starts over; the loss of some round
//! state beside survivors that kept theirs is the unsafe case.
//!
//! **Storage by slot.** Every instance is a decision-log slot, and slots
//! are dense: each server proposes into the lowest slot it has not seen
//! decided, so the slots in use are `0..frontier` with at most a handful
//! undecided. The decided values therefore sit in a window over
//! consecutive slots, not in a map, and the window starts at the
//! **compacted prefix** ([`ConsensusEngine::compact_below`]): every slot
//! below it answers with one shared placeholder, so what the engine keeps
//! follows the slots still in use, not the log's history.
//! An undecided instance keeps its round's estimates and acks by the
//! sender's position in the peer list, in place for groups of up to five
//! and in one heap block per instance beyond. What a call decides comes
//! back in a [`Few`], which holds the usual one decision without
//! allocating. This layout changes no decision, message or message order:
//! lookups answer what the ordered maps it replaced answered, the
//! estimate choice still compares `(ts, sender id)`, and broadcasts walk
//! the same peer list in the same order — so the simulator's traces are
//! what they were under the maps.

use crate::few::Few;
use crate::window::SlotWindow;
use etx_base::ids::{NodeId, RegId};
use etx_base::msg::{ConsensusMsg, Payload};
use etx_base::runtime::{Context, Event, TimerTag};
use etx_base::time::Dur;
use etx_base::value::RegValue;
use std::collections::BTreeMap;

/// Predicate type used to query the owner's failure detector.
pub type Suspects<'a> = &'a dyn Fn(NodeId) -> bool;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Re-check interval for coordinator suspicion while waiting in a round.
    pub patience: Dur,
    /// Period of the decision push/pull resync.
    pub resync: Dur,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { patience: Dur::from_millis(40), resync: Dur::from_millis(120) }
    }
}

/// Peers whose round state an instance holds in place; a larger group
/// keeps it in one heap block per instance.
const INLINE_PEERS: usize = 5;

/// One entry per peer, at the peer's position in the engine's `peers`: a
/// round's estimates or acks. No map, no per-round allocation for groups
/// of up to [`INLINE_PEERS`].
#[derive(Debug)]
enum ByPeer<T> {
    Inline([Option<T>; INLINE_PEERS]),
    Heap(Box<[Option<T>]>),
}

impl<T> ByPeer<T> {
    fn new(peers: usize) -> Self {
        if peers <= INLINE_PEERS {
            ByPeer::Inline(std::array::from_fn(|_| None))
        } else {
            ByPeer::Heap((0..peers).map(|_| None).collect())
        }
    }

    /// The entries, by peer position (an inline array may be longer than
    /// the group; its tail stays empty).
    fn entries(&self) -> &[Option<T>] {
        match self {
            ByPeer::Inline(entries) => entries,
            ByPeer::Heap(entries) => entries,
        }
    }

    fn entries_mut(&mut self) -> &mut [Option<T>] {
        match self {
            ByPeer::Inline(entries) => entries,
            ByPeer::Heap(entries) => entries,
        }
    }

    fn set(&mut self, at: usize, value: T) {
        self.entries_mut()[at] = Some(value);
    }

    fn clear(&mut self) {
        self.entries_mut().iter_mut().for_each(|e| *e = None);
    }

    fn count(&self) -> usize {
        self.entries().iter().filter(|e| e.is_some()).count()
    }
}

/// The round state of one undecided instance.
#[derive(Debug)]
struct Instance {
    round: u32,
    est: Option<RegValue>,
    /// One more than the round in which `est` was adopted from a
    /// coordinator's proposal; 0 while `est` is this server's own initial
    /// value (or none). A value adopted in round 0 thus outranks every
    /// initial value, which is what lets a later round's coordinator find
    /// the value round 0 may have decided.
    ts: u32,
    /// Coordinator-side: estimates collected for the current round.
    estimates: ByPeer<(Option<RegValue>, u32)>,
    /// Coordinator-side: the value proposed in the current round.
    proposal: Option<RegValue>,
    /// Coordinator-side: acks collected for the current round.
    acks: ByPeer<()>,
    /// Participant-side: whether we already acked this round.
    acked: bool,
}

impl Instance {
    fn new(peers: usize) -> Self {
        Instance {
            round: 0,
            est: None,
            ts: 0,
            estimates: ByPeer::new(peers),
            proposal: None,
            acks: ByPeer::new(peers),
            acked: false,
        }
    }
}

/// The dense index of an instance: its decision-log slot.
fn index(inst: RegId) -> u64 {
    inst.slot_index().expect("every register is a slot")
}

/// Multi-instance consensus engine. One per application server, embedded in
/// its process (it is a component, not a node).
#[derive(Debug)]
pub struct ConsensusEngine {
    me: NodeId,
    /// `me`'s position in `peers`: where its own estimate and ack go.
    me_at: usize,
    peers: Vec<NodeId>,
    majority: usize,
    cfg: EngineConfig,
    /// The undecided instances: what the message handlers work on and the
    /// resync timer and suspicion changes iterate, so their cost follows
    /// the rounds in flight rather than every register this server has
    /// ever heard of. An instance enters on first contact
    /// ([`Self::instance_mut`]) and leaves when it decides
    /// ([`Self::record_decision`]).
    instances: BTreeMap<RegId, Instance>,
    /// Every decision this server knows at or above `compacted_below`, by
    /// slot — a window from the lowest such slot to the decided frontier.
    /// Every message and timer for a decided instance is answered from
    /// here or, below the prefix, with `placeholder`.
    decided: SlotWindow<RegValue>,
    /// Every slot below this is decided here and compacted: its value is
    /// gone and `placeholder` answers for it.
    compacted_below: u64,
    /// The one value every compacted slot answers with (`None` until the
    /// first compaction).
    placeholder: Option<RegValue>,
    /// Decisions reached since the last `handle`/`propose` drain.
    fresh: Few<(RegId, RegValue)>,
    started: bool,
}

impl ConsensusEngine {
    /// Creates an engine for `me` among `peers` (which must include `me`).
    ///
    /// # Panics
    ///
    /// Panics if `peers` does not contain `me`.
    pub fn new(me: NodeId, peers: &[NodeId], cfg: EngineConfig) -> Self {
        let me_at = peers.iter().position(|&p| p == me);
        ConsensusEngine {
            me,
            me_at: me_at.expect("engine peers must include the owner"),
            peers: peers.to_vec(),
            majority: peers.len() / 2 + 1,
            cfg,
            instances: BTreeMap::new(),
            decided: SlotWindow::default(),
            compacted_below: 0,
            placeholder: None,
            fresh: Few::new(),
            started: false,
        }
    }

    /// Starts the resync timer. Call from the owning process's `Init`.
    pub fn on_init(&mut self, ctx: &mut dyn Context) {
        if !self.started {
            self.started = true;
            ctx.set_timer(self.cfg.resync, TimerTag::ConsensusResync);
        }
    }

    fn coord(&self, round: u32) -> NodeId {
        self.peers[(round as usize) % self.peers.len()]
    }

    /// `node`'s position in `peers`: where its estimate and ack are kept.
    fn position(&self, node: NodeId) -> Option<usize> {
        self.peers.iter().position(|&p| p == node)
    }

    /// Locally known decision, if any (the wo-register `read()` fast path):
    /// the placeholder for a compacted slot.
    pub fn decided(&self, inst: RegId) -> Option<&RegValue> {
        let slot = index(inst);
        if slot < self.compacted_below {
            return self.placeholder.as_ref();
        }
        self.decided.get(slot)
    }

    /// Decided values the engine still stores: those at or above the
    /// compacted prefix (observability / bounded-state tests).
    pub fn held_slots(&self) -> usize {
        self.decided.held()
    }

    /// Number of undecided instances — the open work the periodic timers
    /// pay for (observability / bounded-state tests).
    pub fn open_instances(&self) -> usize {
        self.instances.len()
    }

    /// The round state of an instance the caller knows to be undecided,
    /// created on first contact.
    fn instance_mut(&mut self, inst: RegId) -> &mut Instance {
        debug_assert!(self.decided(inst).is_none(), "{inst} is decided");
        let peers = self.peers.len();
        self.instances.entry(inst).or_insert_with(|| Instance::new(peers))
    }

    /// Sends `msg()` to every peer but this server, walking `peers` in
    /// order.
    fn broadcast(&self, ctx: &mut dyn Context, msg: impl Fn() -> ConsensusMsg) {
        for &p in &self.peers {
            if p != self.me {
                ctx.send(p, Payload::Consensus(msg()));
            }
        }
    }

    /// Proposes `value` for `inst`. If the instance is already decided
    /// locally, returns the decision immediately (the wo-register `write()`
    /// returning "some other value already written"); otherwise the outcome
    /// arrives later from [`Self::handle`].
    pub fn propose(
        &mut self,
        ctx: &mut dyn Context,
        inst: RegId,
        value: RegValue,
        suspects: Suspects<'_>,
    ) -> Option<RegValue> {
        if let Some(d) = self.decided(inst) {
            return Some(d.clone());
        }
        let me = self.me;
        let (round, est, ts) = {
            let i = self.instance_mut(inst);
            if i.est.is_none() {
                i.est = Some(value);
                i.ts = 0;
            }
            (i.round, i.est.clone(), i.ts)
        };
        let coord = self.coord(round);
        if coord == me {
            let i = self.instances.get_mut(&inst).expect("just created");
            i.estimates.set(self.me_at, (est.clone(), ts));
            if round > 0 {
                // Announce the round so peers join and contribute the
                // majority of estimates this round needs.
                self.send_estimates(ctx, inst, round, est, ts);
            }
            self.try_propose(ctx, inst);
        } else {
            self.send_estimates(ctx, inst, round, est, ts);
            ctx.set_timer(self.cfg.patience, TimerTag::ConsensusRound { inst, round });
        }
        // The coordinator might already be suspected; don't wait for the
        // patience timer in that case.
        self.reevaluate_instance(ctx, inst, suspects);
        // A degenerate quorum (single replica) can decide synchronously.
        let d = self.decided(inst)?.clone();
        self.fresh.retain(|(r, _)| *r != inst);
        Some(d)
    }

    /// Broadcasts a pull for a decision not known here (wo-register
    /// `read()` liveness: keep invoking and you eventually see the written
    /// value): one message per peer, none if already decided. Callers pull
    /// a slot once per resync period.
    pub fn pull(&mut self, ctx: &mut dyn Context, inst: RegId) {
        if self.decided(inst).is_some() {
            return;
        }
        self.instance_mut(inst);
        self.broadcast(ctx, || ConsensusMsg::DecideReq { inst });
    }

    /// Feeds one runtime event. Returns instances decided *by this call*
    /// (usually none or one, which a [`Few`] holds without allocating).
    pub fn handle(
        &mut self,
        ctx: &mut dyn Context,
        event: &Event,
        suspects: Suspects<'_>,
    ) -> Few<(RegId, RegValue)> {
        match event {
            Event::Message { from, payload: Payload::Consensus(m) } => {
                self.on_msg(ctx, *from, m.clone(), suspects);
            }
            Event::Timer { tag: TimerTag::ConsensusRound { inst, round }, .. } => {
                let (inst, round) = (*inst, *round);
                let waiting = |e: &Self| e.instances.get(&inst).is_some_and(|i| i.round == round);
                if waiting(self) {
                    self.reevaluate_instance(ctx, inst, suspects);
                    // Still undecided in the same round: keep watching.
                    if waiting(self) {
                        ctx.set_timer(self.cfg.patience, TimerTag::ConsensusRound { inst, round });
                    }
                }
            }
            Event::Timer { tag: TimerTag::ConsensusResync, .. } => {
                self.resync(ctx);
                ctx.set_timer(self.cfg.resync, TimerTag::ConsensusResync);
            }
            _ => {}
        }
        std::mem::take(&mut self.fresh)
    }

    /// Re-evaluates every undecided instance after a suspicion change (the
    /// owning server calls this on failure-detector transitions).
    pub fn on_suspicion_change(&mut self, ctx: &mut dyn Context, suspects: Suspects<'_>) {
        for inst in Vec::from_iter(self.instances.keys().copied()) {
            self.reevaluate_instance(ctx, inst, suspects);
        }
    }

    // ---- internals -------------------------------------------------------

    /// If we are stuck waiting on a suspected coordinator, nack and advance
    /// (possibly across several suspected coordinators).
    fn reevaluate_instance(&mut self, ctx: &mut dyn Context, inst: RegId, suspects: Suspects<'_>) {
        for _ in 0..self.peers.len() {
            let Some(i) = self.instances.get(&inst) else { return };
            let round = i.round;
            let coord = self.coord(round);
            if coord == self.me || !suspects(coord) {
                return;
            }
            ctx.send(coord, Payload::Consensus(ConsensusMsg::Nack { inst, round }));
            self.enter_round(ctx, inst, round + 1);
        }
    }

    /// Moves an instance to `round` (> current), performing participant
    /// duties for the new round.
    fn enter_round(&mut self, ctx: &mut dyn Context, inst: RegId, round: u32) {
        let me = self.me;
        let coord = self.coord(round);
        let Some(i) = self.instances.get_mut(&inst) else { return };
        // Never called for round 0 (that entry happens in `propose`); only
        // forward moves are meaningful.
        if round <= i.round {
            return;
        }
        i.round = round;
        i.estimates.clear();
        i.acks.clear();
        i.proposal = None;
        i.acked = false;
        let est = i.est.clone();
        let ts = i.ts;
        if coord == me {
            i.estimates.set(self.me_at, (est.clone(), ts));
            // enter_round is only called with round ≥ 1: announce so peers
            // join (they may never have heard of this instance).
            self.send_estimates(ctx, inst, round, est, ts);
            self.try_propose(ctx, inst);
        } else {
            self.send_estimates(ctx, inst, round, est, ts);
            ctx.set_timer(self.cfg.patience, TimerTag::ConsensusRound { inst, round });
        }
    }

    /// Sends this participant's estimate for `round`. Round 0 goes to the
    /// coordinator only (the fast path needs nothing more). Later rounds
    /// are **broadcast**: peers that have never heard of the instance must
    /// join the round and contribute estimates, or a coordinator could wait
    /// forever for a majority it cannot assemble (the original writers may
    /// all have crashed).
    fn send_estimates(
        &mut self,
        ctx: &mut dyn Context,
        inst: RegId,
        round: u32,
        est: Option<RegValue>,
        ts: u32,
    ) {
        let coord = self.coord(round);
        if round == 0 {
            ctx.send(coord, Payload::Consensus(ConsensusMsg::Estimate { inst, round, est, ts }));
            return;
        }
        self.broadcast(ctx, || ConsensusMsg::Estimate { inst, round, est: est.clone(), ts });
    }

    /// Coordinator-side: propose if this round's preconditions are met.
    fn try_propose(&mut self, ctx: &mut dyn Context, inst: RegId) {
        let majority = self.majority;
        let Some(i) = self.instances.get_mut(&inst) else { return };
        if i.proposal.is_some() {
            return;
        }
        let round = i.round;
        // Pick the estimate with the highest adoption timestamp; ties broken
        // by sender id for determinism.
        let best = i
            .estimates
            .entries()
            .iter()
            .zip(&self.peers)
            .filter_map(|(e, &n)| {
                let (est, ts) = e.as_ref()?;
                Some((*ts, n, est.as_ref()?))
            })
            .max_by_key(|&(ts, n, _)| (ts, n))
            .map(|(_, _, v)| v.clone());
        let ready = if round == 0 {
            // Fast path: all timestamps are 0, any known estimate is safe.
            best.is_some()
        } else {
            i.estimates.count() >= majority && best.is_some()
        };
        if !ready {
            return;
        }
        let value = best.expect("checked is_some");
        i.proposal = Some(value.clone());
        // The coordinator adopts its own proposal and acks itself.
        i.est = Some(value.clone());
        i.ts = round + 1;
        i.acks.set(self.me_at, ());
        self.broadcast(ctx, || ConsensusMsg::Propose { inst, round, value: value.clone() });
        // Single-replica degenerate case decides instantly.
        self.try_decide(ctx, inst);
    }

    fn try_decide(&mut self, ctx: &mut dyn Context, inst: RegId) {
        let majority = self.majority;
        let Some(i) = self.instances.get_mut(&inst) else { return };
        if i.acks.count() < majority {
            return;
        }
        let value = i.proposal.clone().expect("acks imply a proposal");
        self.record_decision(inst, value.clone());
        self.broadcast(ctx, || ConsensusMsg::Decide { inst, value: value.clone() });
    }

    fn learn(&mut self, inst: RegId, value: RegValue) {
        if self.decided(inst).is_none() {
            self.record_decision(inst, value);
        }
    }

    /// Closes an undecided instance with its final value: the round state
    /// goes, the value stays.
    fn record_decision(&mut self, inst: RegId, value: RegValue) {
        self.instances.remove(&inst);
        debug_assert!(index(inst) >= self.compacted_below, "{inst} is compacted");
        *self.decided.entry(index(inst)) = Some(value.clone());
        self.fresh.push((inst, value));
    }

    fn on_msg(
        &mut self,
        ctx: &mut dyn Context,
        from: NodeId,
        msg: ConsensusMsg,
        suspects: Suspects<'_>,
    ) {
        match msg {
            ConsensusMsg::Estimate { inst, round, est, ts } => {
                if let Some(v) = self.decided(inst).cloned() {
                    ctx.send(from, Payload::Consensus(ConsensusMsg::Decide { inst, value: v }));
                    return;
                }
                let cur = self.instance_mut(inst).round;
                if round < cur {
                    ctx.send(from, Payload::Consensus(ConsensusMsg::Nack { inst, round }));
                    return;
                }
                if round > cur {
                    // Join the round we just learned about (this also sends
                    // our own estimate out).
                    self.enter_round(ctx, inst, round);
                }
                let from_at = self.position(from);
                let Some(i) = self.instances.get_mut(&inst) else { return };
                if let Some(at) = from_at.filter(|_| i.round == round) {
                    i.estimates.set(at, (est, ts));
                }
                if self.coord(round) == self.me {
                    self.try_propose(ctx, inst);
                }
            }
            ConsensusMsg::Propose { inst, round, value } => {
                if let Some(v) = self.decided(inst).cloned() {
                    ctx.send(from, Payload::Consensus(ConsensusMsg::Decide { inst, value: v }));
                    return;
                }
                let cur = self.instance_mut(inst).round;
                if round < cur {
                    ctx.send(from, Payload::Consensus(ConsensusMsg::Nack { inst, round }));
                    return;
                }
                if round > cur {
                    self.enter_round(ctx, inst, round);
                }
                let Some(i) = self.instances.get_mut(&inst) else { return };
                if i.round == round && !i.acked {
                    i.est = Some(value);
                    i.ts = round + 1;
                    i.acked = true;
                    ctx.send(from, Payload::Consensus(ConsensusMsg::Ack { inst, round }));
                } else if i.round == round {
                    // A second proposal in one round: its coordinator
                    // crashed and recovered without its round state, and
                    // waits for acks this round already gave. Nobody
                    // suspects it, so only a nack moves the round on.
                    ctx.send(from, Payload::Consensus(ConsensusMsg::Nack { inst, round }));
                }
            }
            ConsensusMsg::Ack { inst, round } => {
                let from_at = self.position(from);
                let Some(i) = self.instances.get_mut(&inst) else { return };
                if i.round == round && i.proposal.is_some() {
                    if let Some(at) = from_at {
                        i.acks.set(at, ());
                    }
                    self.try_decide(ctx, inst);
                }
            }
            ConsensusMsg::Nack { inst, round } => {
                let Some(i) = self.instances.get_mut(&inst) else { return };
                if i.round == round {
                    self.enter_round(ctx, inst, round + 1);
                    self.reevaluate_instance(ctx, inst, suspects);
                }
            }
            ConsensusMsg::Decide { inst, value } => {
                self.learn(inst, value);
            }
            ConsensusMsg::DecideReq { inst } => {
                if let Some(v) = self.decided(inst).cloned() {
                    ctx.send(from, Payload::Consensus(ConsensusMsg::Decide { inst, value: v }));
                }
            }
        }
    }

    /// Periodic decision resync: undecided instances pull, decided ones stay
    /// quiet (answers are demand-driven).
    fn resync(&mut self, ctx: &mut dyn Context) {
        for (&inst, i) in &self.instances {
            if i.est.is_none() {
                continue; // heard of, never proposed here: no value of ours to chase
            }
            self.broadcast(ctx, || ConsensusMsg::DecideReq { inst });
        }
    }

    /// Compacts the decided slots below `slot` (garbage collection; see
    /// the paper's §5 remark on cleaning the register arrays): their values
    /// go, and every one of them answers reads, pulls and proposals with
    /// one placeholder from then on — so a replica that missed a decision
    /// can never re-open the position and re-decide it. The prefix
    /// advances over consecutive decided slots only, and stops at the
    /// first one undecided here. When it advances, `placeholder` is given
    /// the current placeholder (`None` before the first compaction) and
    /// returns the one that now answers for the whole prefix, so a caller
    /// can refill it in place. The caller asserts the placeholder stands
    /// for every value compacted (for a decision-log slot: every request
    /// in it is settled, and the placeholder says so). Returns whether the
    /// prefix advanced.
    pub fn compact_below(
        &mut self,
        slot: u64,
        placeholder: impl FnOnce(Option<RegValue>) -> RegValue,
    ) -> bool {
        let from = self.compacted_below;
        while self.compacted_below < slot && self.decided.remove(self.compacted_below).is_some() {
            self.compacted_below += 1;
        }
        if self.compacted_below == from {
            return false;
        }
        self.placeholder = Some(placeholder(self.placeholder.take()));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{claim_by, claimant, Outbox};
    use etx_base::ids::TimerId;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, VecDeque};
    use std::sync::Arc;

    const ME: NodeId = NodeId(0);
    const PEERS: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    fn reg(slot: u64) -> RegId {
        RegId::slot(slot)
    }

    /// What a resync tick must pull, in the order it must send it: every
    /// undecided instance this server holds an estimate for.
    fn resync_by_full_scan(engine: &ConsensusEngine) -> Vec<(NodeId, Payload)> {
        let mut out = Vec::new();
        for (&inst, i) in &engine.instances {
            if engine.decided(inst).is_none() && i.est.is_some() {
                for p in PEERS.into_iter().filter(|&p| p != ME) {
                    out.push((p, Payload::Consensus(ConsensusMsg::DecideReq { inst })));
                }
            }
        }
        out
    }

    /// A participant acks one proposal per round. A second one for the
    /// same round comes from a coordinator that recovered without its
    /// round state; the nack moves that coordinator to the next round.
    #[test]
    fn a_second_proposal_in_an_acked_round_is_nacked() {
        let mut engine = ConsensusEngine::new(ME, &PEERS, EngineConfig::default());
        let inst = reg(0);
        let coord = PEERS[1];
        let no_one = |_: NodeId| false;
        let mut propose = |value| {
            let mut ctx = Outbox::new(ME);
            let m = ConsensusMsg::Propose { inst, round: 0, value };
            let event = Event::Message { from: coord, payload: Payload::Consensus(m) };
            engine.handle(&mut ctx, &event, &no_one);
            ctx.sent
        };
        let ack = Payload::Consensus(ConsensusMsg::Ack { inst, round: 0 });
        let nack = Payload::Consensus(ConsensusMsg::Nack { inst, round: 0 });
        assert_eq!(propose(claim_by(NodeId(1))), [(coord, ack)]);
        assert_eq!(propose(claim_by(NodeId(2))), [(coord, nack)]);
    }

    /// Seven engines, more than [`INLINE_PEERS`]: their round state lives
    /// on the heap. Round 0 decides one register; for a second, every
    /// server but n0 suspects n0, so round 1's coordinator gathers a
    /// majority of four estimates and acks by position. All agree.
    #[test]
    fn a_group_larger_than_the_inline_round_state_decides() {
        let peers: Vec<NodeId> = (0..7).map(NodeId).collect();
        assert!(peers.len() > INLINE_PEERS);
        let mut engines: Vec<_> = peers
            .iter()
            .map(|&p| ConsensusEngine::new(p, &peers, EngineConfig::default()))
            .collect();
        let mut decided: BTreeMap<(NodeId, RegId), RegValue> = BTreeMap::new();
        for (inst, writers) in [(reg(0), 0..1), (reg(1), 1..7)] {
            let n0_down = inst == reg(1);
            let sus = move |n: NodeId| n0_down && n == NodeId(0);
            let mut net = VecDeque::new();
            for w in writers {
                let mut ctx = Outbox::new(peers[w]);
                if let Some(v) = engines[w].propose(&mut ctx, inst, claim_by(peers[w]), &sus) {
                    decided.insert((peers[w], inst), v);
                }
                net.extend(ctx.sent.into_iter().map(|(to, m)| (peers[w], to, m)));
            }
            while let Some((from, to, payload)) = net.pop_front() {
                if n0_down && (from == NodeId(0) || to == NodeId(0)) {
                    continue;
                }
                let mut ctx = Outbox::new(to);
                let event = Event::Message { from, payload };
                for (r, v) in engines[to.0 as usize].handle(&mut ctx, &event, &sus) {
                    decided.insert((to, r), v);
                }
                net.extend(ctx.sent.into_iter().map(|(t, m)| (to, t, m)));
            }
            let live = if n0_down { 1..7 } else { 0..7 };
            let values: Vec<_> = live.map(|n| decided.get(&(peers[n], inst))).collect();
            assert!(values.iter().all(|v| v.is_some() && *v == values[0]), "{inst}: {values:?}");
        }
        assert_eq!(claimant(&decided[&(NodeId(0), reg(0))]), NodeId(0), "round 0's writer");
    }

    /// A register universe with two slots far ahead of the first four.
    const UNIVERSE: [u64; 6] = [0, 1, 2, 3, 40, 64];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// Whatever interleaving of writes, peer messages, pulls, timers,
        /// suspicion flips, GC calls and recoveries an engine sees —
        /// decisions out of slot order and far ahead of the lowest open
        /// slot, a recovered (empty) engine pulling from slot 0 — its
        /// slot-indexed state matches an ordered-map model: `decided()`
        /// answers what the engine reported deciding, or the latest
        /// placeholder below the compacted prefix, and nothing else;
        /// `compact_below` advances the prefix over consecutive decided
        /// slots, stops at the first undecided one and hands back the
        /// placeholder it replaces; the instances it keeps round state for are
        /// exactly its undecided ones — deciding moves an instance out,
        /// nothing moves it back — and a resync tick pulls exactly those
        /// it holds an estimate for.
        #[test]
        fn open_set_is_the_undecided_instances(
            steps in proptest::collection::vec(
                (0u8..13, 0usize..6, 0u32..3, 1u32..3, 0u32..3, 0u8..8),
                1..120,
            ),
        ) {
            let mut engine = ConsensusEngine::new(ME, &PEERS, EngineConfig::default());
            let mut model: BTreeMap<RegId, RegValue> = BTreeMap::new();
            // The model's prefix and the placeholder answering below it.
            let (mut compacted, mut placeholder): (u64, Option<RegValue>) = (0, None);
            let known = |model: &BTreeMap<RegId, RegValue>, compacted, placeholder: &Option<RegValue>, r: RegId| {
                if r.slot_index().expect("a slot") < compacted {
                    placeholder.clone()
                } else {
                    model.get(&r).cloned()
                }
            };
            for (op, pick, round, from, v, suspected) in steps {
                let inst = RegId::slot(UNIVERSE[pick]);
                let value = claim_by(NodeId(v));
                let sus = move |n: NodeId| suspected & (1 << n.0) != 0;
                let mut ctx = Outbox::new(ME);
                let mut reported = Vec::new();
                let msg = match op {
                    0 => Some(ConsensusMsg::Estimate { inst, round, est: Some(value), ts: round }),
                    1 => Some(ConsensusMsg::Estimate { inst, round, est: None, ts: 0 }),
                    2 => Some(ConsensusMsg::Propose { inst, round, value }),
                    3 => Some(ConsensusMsg::Ack { inst, round }),
                    4 => Some(ConsensusMsg::Nack { inst, round }),
                    5 => Some(ConsensusMsg::Decide { inst, value }),
                    6 => Some(ConsensusMsg::DecideReq { inst }),
                    7 => {
                        let known = known(&model, compacted, &placeholder, inst);
                        let answer = engine.propose(&mut ctx, inst, value, &sus);
                        match known {
                            Some(d) => prop_assert_eq!(answer, Some(d), "a decided write answers"),
                            None => reported.extend(answer.map(|d| (inst, d))),
                        }
                        None
                    }
                    8 => {
                        engine.pull(&mut ctx, inst);
                        engine.on_suspicion_change(&mut ctx, &sus);
                        None
                    }
                    9 => {
                        let tag = TimerTag::ConsensusRound { inst, round };
                        reported.extend(engine.handle(&mut ctx, &Event::Timer { id: TimerId(0), tag }, &sus));
                        None
                    }
                    10 => {
                        // Compact below the slot picked, or one past it.
                        let below = UNIVERSE[pick] + u64::from(round % 2);
                        let mut to = compacted;
                        while to < below && model.contains_key(&RegId::slot(to)) {
                            to += 1;
                        }
                        let fresh = RegValue::Watermarks(Arc::new(vec![(NodeId(7), to)]));
                        let mut handed = None;
                        let advanced = engine.compact_below(below, |old| {
                            handed = Some(old);
                            fresh.clone()
                        });
                        prop_assert_eq!(advanced, to > compacted, "compact_below({})", below);
                        prop_assert_eq!(handed, advanced.then(|| placeholder.clone()));
                        if advanced {
                            (compacted, placeholder) = (to, Some(fresh));
                        }
                        None
                    }
                    11 => {
                        // A recovered server: no decision, no round state.
                        engine = ConsensusEngine::new(ME, &PEERS, EngineConfig::default());
                        model.clear();
                        (compacted, placeholder) = (0, None);
                        None
                    }
                    _ => {
                        // Its resync from slot 0, up to the slot picked.
                        for k in UNIVERSE.iter().filter(|&&k| k <= UNIVERSE[pick]) {
                            engine.pull(&mut ctx, RegId::slot(*k));
                        }
                        None
                    }
                };
                if let Some(m) = msg {
                    let event = Event::Message { from: NodeId(from), payload: Payload::Consensus(m) };
                    reported.extend(engine.handle(&mut ctx, &event, &sus));
                }
                // Decisions a call left in the buffer surface at the next
                // event, whatever it is.
                reported.extend(engine.handle(&mut ctx, &Event::Init, &sus));
                for (r, d) in reported {
                    prop_assert!(model.insert(r, d).is_none(), "{} decided twice", r);
                }
                for k in UNIVERSE.into_iter().chain([4, 5, 63, 65, 1_000]) {
                    let r = RegId::slot(k);
                    let expect = known(&model, compacted, &placeholder, r);
                    prop_assert_eq!(engine.decided(r), expect.as_ref(), "decided({})", r);
                }
                let held = model.keys().filter(|r| r.slot_index().expect("a slot") >= compacted);
                prop_assert_eq!(engine.held_slots(), held.count());
                let open: BTreeSet<RegId> = engine.instances.keys().copied().collect();
                let undecided: BTreeSet<RegId> =
                    open.iter().copied().filter(|k| !model.contains_key(k)).collect();
                prop_assert_eq!(&open, &undecided, "after op {} on {}", op, inst);
                let mut pulled = Outbox::new(ME);
                engine.resync(&mut pulled);
                prop_assert_eq!(pulled.sent, resync_by_full_scan(&engine));
            }
        }
    }
}
