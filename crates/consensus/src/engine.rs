//! Rotating-coordinator consensus, one instance per write-once register.
//!
//! The paper builds wo-registers from "a consensus protocol executed among
//! the application servers (e.g. \[4\])" — Chandra & Toueg's ◇S algorithm —
//! and Appendix 3 assumes the optimised variant where, in nice runs, "it
//! takes only a round trip message for the first primary to write into the
//! register". This module implements that family:
//!
//! * rounds `r = 0, 1, 2, …` with coordinator `alist[r mod n]`;
//! * **round 0 fast path**: every participant's adoption timestamp is still
//!   0, so the coordinator may propose the first estimate it knows (its own,
//!   if it is the writer) without collecting a majority — one round trip to
//!   decide;
//! * **rounds > 0**: the classic three phases — participants send their
//!   `(estimate, ts)` to the round's coordinator; the coordinator waits for
//!   a majority, picks the estimate with the highest `ts` (this is what
//!   preserves agreement across rounds), proposes it; participants adopt and
//!   ack, or nack if they have moved on;
//! * a coordinator with a majority of acks **decides** and broadcasts the
//!   decision; undecided replicas also **pull** decisions periodically
//!   (`DecideReq`), which implements the liveness half of the wo-register
//!   `read()` spec;
//! * round changes are driven *only* by failure-detector suspicion of the
//!   current coordinator (plus a patience re-check timer) — never by fixed
//!   timeouts — keeping the protocol asynchronous in the paper's sense.
//!
//! Safety (agreement, validity, integrity) holds under any failure-detector
//! behaviour; only termination needs ◇P accuracy and a correct majority,
//! mirroring the paper's §4/§5 discussion.

use etx_base::ids::{NodeId, RegId};
use etx_base::msg::{ConsensusMsg, Payload};
use etx_base::runtime::{Context, Event, TimerTag};
use etx_base::time::Dur;
use etx_base::value::RegValue;
use std::collections::{BTreeMap, BTreeSet};

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

/// The round state of one undecided instance.
#[derive(Debug, Default)]
struct Instance {
    round: u32,
    est: Option<RegValue>,
    /// Round in which `est` was adopted from a coordinator (0 = own/initial).
    ts: u32,
    /// Coordinator-side: estimates collected for the current round.
    estimates: BTreeMap<NodeId, (Option<RegValue>, u32)>,
    /// Coordinator-side: the value proposed in the current round.
    proposal: Option<RegValue>,
    /// Coordinator-side: acks collected for the current round.
    acks: BTreeSet<NodeId>,
    /// Participant-side: whether we already acked this round.
    acked: bool,
}

/// Multi-instance consensus engine. One per application server, embedded in
/// its process (it is a component, not a node).
#[derive(Debug)]
pub struct ConsensusEngine {
    me: NodeId,
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
    /// Every decision this server knows — the one map that grows with the
    /// log, so it holds the value and nothing else. Every message and
    /// timer for a decided instance is answered from here.
    decided: BTreeMap<RegId, RegValue>,
    /// Decisions reached since the last `handle`/`propose` drain.
    fresh: Vec<(RegId, RegValue)>,
    started: bool,
}

impl ConsensusEngine {
    /// Creates an engine for `me` among `peers` (which must include `me`).
    ///
    /// # Panics
    ///
    /// Panics if `peers` does not contain `me`.
    pub fn new(me: NodeId, peers: &[NodeId], cfg: EngineConfig) -> Self {
        assert!(peers.contains(&me), "engine peers must include the owner");
        ConsensusEngine {
            me,
            peers: peers.to_vec(),
            majority: peers.len() / 2 + 1,
            cfg,
            instances: BTreeMap::new(),
            decided: BTreeMap::new(),
            fresh: Vec::new(),
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

    /// Locally known decision, if any (the wo-register `read()` fast path).
    pub fn decided(&self, inst: RegId) -> Option<&RegValue> {
        self.decided.get(&inst)
    }

    /// Number of undecided instances — the open work the periodic timers
    /// pay for (observability / bounded-state tests).
    pub fn open_instances(&self) -> usize {
        self.instances.len()
    }

    /// The round state of an instance the caller knows to be undecided,
    /// created on first contact.
    fn instance_mut(&mut self, inst: RegId) -> &mut Instance {
        debug_assert!(!self.decided.contains_key(&inst), "{inst} is decided");
        self.instances.entry(inst).or_default()
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
            self.instances
                .get_mut(&inst)
                .expect("just created")
                .estimates
                .insert(me, (est.clone(), ts));
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
        if self.decided.contains_key(&inst) {
            return;
        }
        self.instance_mut(inst);
        for p in self.peers.clone() {
            if p != self.me {
                ctx.send(p, Payload::Consensus(ConsensusMsg::DecideReq { inst }));
            }
        }
    }

    /// Feeds one runtime event. Returns instances decided *by this call*.
    pub fn handle(
        &mut self,
        ctx: &mut dyn Context,
        event: &Event,
        suspects: Suspects<'_>,
    ) -> Vec<(RegId, RegValue)> {
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
            i.estimates.insert(me, (est.clone(), ts));
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
        for p in self.peers.clone() {
            if p != self.me {
                ctx.send(
                    p,
                    Payload::Consensus(ConsensusMsg::Estimate {
                        inst,
                        round,
                        est: est.clone(),
                        ts,
                    }),
                );
            }
        }
    }

    /// Coordinator-side: propose if this round's preconditions are met.
    fn try_propose(&mut self, ctx: &mut dyn Context, inst: RegId) {
        let me = self.me;
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
            .iter()
            .filter_map(|(&n, (e, ts))| e.clone().map(|v| (*ts, n, v)))
            .max_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
            .map(|(_, _, v)| v);
        let ready = if round == 0 {
            // Fast path: all timestamps are 0, any known estimate is safe.
            best.is_some()
        } else {
            i.estimates.len() >= majority && best.is_some()
        };
        if !ready {
            return;
        }
        let value = best.expect("checked is_some");
        i.proposal = Some(value.clone());
        // The coordinator adopts its own proposal and acks itself.
        i.est = Some(value.clone());
        i.ts = round;
        i.acks.insert(me);
        for p in self.peers.clone() {
            if p != me {
                ctx.send(
                    p,
                    Payload::Consensus(ConsensusMsg::Propose { inst, round, value: value.clone() }),
                );
            }
        }
        // Single-replica degenerate case decides instantly.
        self.try_decide(ctx, inst);
    }

    fn try_decide(&mut self, ctx: &mut dyn Context, inst: RegId) {
        let me = self.me;
        let majority = self.majority;
        let Some(i) = self.instances.get_mut(&inst) else { return };
        if i.acks.len() < majority {
            return;
        }
        let value = i.proposal.clone().expect("acks imply a proposal");
        self.record_decision(inst, value.clone());
        for p in self.peers.clone() {
            if p != me {
                ctx.send(
                    p,
                    Payload::Consensus(ConsensusMsg::Decide { inst, value: value.clone() }),
                );
            }
        }
    }

    fn learn(&mut self, inst: RegId, value: RegValue) {
        if !self.decided.contains_key(&inst) {
            self.record_decision(inst, value);
        }
    }

    /// Closes an undecided instance with its final value: the round state
    /// goes, the value stays.
    fn record_decision(&mut self, inst: RegId, value: RegValue) {
        self.instances.remove(&inst);
        self.decided.insert(inst, value.clone());
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
                let Some(i) = self.instances.get_mut(&inst) else { return };
                if i.round == round {
                    i.estimates.insert(from, (est, ts));
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
                    i.ts = round;
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
                let Some(i) = self.instances.get_mut(&inst) else { return };
                if i.round == round && i.proposal.is_some() {
                    i.acks.insert(from);
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
            for &p in self.peers.iter().filter(|&&p| p != self.me) {
                ctx.send(p, Payload::Consensus(ConsensusMsg::DecideReq { inst }));
            }
        }
    }

    /// Compacts a *decided* instance to `placeholder`, dropping the
    /// original payload but keeping the instance
    /// answerable (garbage-collection hook; see the paper's §5 remark on
    /// cleaning the register arrays). A compacted instance still answers
    /// reads and pulls (with the placeholder) and still short-circuits
    /// proposals — the position can never be re-opened and re-decided by
    /// a replica that missed the original decision. The caller asserts
    /// the original value can no longer matter to anyone (e.g. a
    /// decision-log slot whose every request is settled).
    pub fn compact(&mut self, inst: RegId, placeholder: RegValue) -> bool {
        match self.decided.get_mut(&inst) {
            Some(value) => {
                *value = placeholder;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{claim_by, Outbox};
    use etx_base::ids::TimerId;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const ME: NodeId = NodeId(0);
    const PEERS: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    /// A small register universe, so steps collide on instances.
    fn reg(pick: u8) -> RegId {
        RegId::slot(u64::from(pick % 4))
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// Whatever interleaving of writes, peer messages, pulls, timers,
        /// suspicion flips and GC calls an engine sees, the instances it
        /// keeps round state for are exactly its undecided ones — deciding
        /// moves an instance out, nothing moves it back — and a resync
        /// tick pulls exactly those it holds an estimate for.
        #[test]
        fn open_set_is_the_undecided_instances(
            steps in proptest::collection::vec(
                (0u8..11, 0u8..4, 0u32..3, 1u32..3, 0u32..3, 0u8..8),
                1..120,
            ),
        ) {
            let mut engine = ConsensusEngine::new(ME, &PEERS, EngineConfig::default());
            for (op, pick, round, from, v, suspected) in steps {
                let inst = reg(pick);
                let value = claim_by(NodeId(v));
                let sus = move |n: NodeId| suspected & (1 << n.0) != 0;
                let mut ctx = Outbox::new(ME);
                let msg = match op {
                    0 => Some(ConsensusMsg::Estimate { inst, round, est: Some(value), ts: round }),
                    1 => Some(ConsensusMsg::Estimate { inst, round, est: None, ts: 0 }),
                    2 => Some(ConsensusMsg::Propose { inst, round, value }),
                    3 => Some(ConsensusMsg::Ack { inst, round }),
                    4 => Some(ConsensusMsg::Nack { inst, round }),
                    5 => Some(ConsensusMsg::Decide { inst, value }),
                    6 => Some(ConsensusMsg::DecideReq { inst }),
                    7 => {
                        engine.propose(&mut ctx, inst, value, &sus);
                        None
                    }
                    8 => {
                        engine.pull(&mut ctx, inst);
                        engine.on_suspicion_change(&mut ctx, &sus);
                        None
                    }
                    9 => {
                        let tag = TimerTag::ConsensusRound { inst, round };
                        engine.handle(&mut ctx, &Event::Timer { id: TimerId(0), tag }, &sus);
                        None
                    }
                    _ => {
                        engine.compact(inst, claim_by(NodeId(7)));
                        None
                    }
                };
                if let Some(m) = msg {
                    let event = Event::Message { from: NodeId(from), payload: Payload::Consensus(m) };
                    engine.handle(&mut ctx, &event, &sus);
                }
                let open: BTreeSet<RegId> = engine.instances.keys().copied().collect();
                let undecided: BTreeSet<RegId> =
                    open.iter().copied().filter(|&k| engine.decided(k).is_none()).collect();
                prop_assert_eq!(&open, &undecided, "after op {} on {}", op, inst);
                let mut pulled = Outbox::new(ME);
                engine.resync(&mut pulled);
                prop_assert_eq!(pulled.sent, resync_by_full_scan(&engine));
            }
        }
    }
}
