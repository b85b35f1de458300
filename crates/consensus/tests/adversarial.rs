//! Adversarial consensus testing: the engine is driven *directly* (no
//! simulator) with proptest-chosen message interleavings, drops to a
//! crashed minority, and hostile suspicion oracles. Agreement and validity
//! must survive anything; termination must hold whenever a majority is
//! alive and the oracle eventually tells the truth.

use etx_base::ids::{NodeId, RegId, RequestId, ResultId, TimerId};
use etx_base::msg::Payload;
use etx_base::runtime::{Context, Event, TimerTag};
use etx_base::time::{Dur, Time};
use etx_base::trace::TraceKind;
use etx_base::value::{OwnerClaim, RegValue, SlotBatch};
use etx_base::wal::StableRecord;
use etx_consensus::{ConsensusEngine, EngineConfig};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// A mock context that records outgoing messages for the adversary to
/// deliver (or not) in any order it likes.
struct MockCtx {
    me: NodeId,
    now: Time,
    out: Vec<(NodeId, Payload)>,
    timer_seq: u64,
}

impl MockCtx {
    fn new(me: NodeId) -> Self {
        MockCtx { me, now: Time::ZERO, out: Vec::new(), timer_seq: 0 }
    }
}

impl Context for MockCtx {
    fn now(&self) -> Time {
        self.now
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn set_timer(&mut self, _d: Dur, _tag: TimerTag) -> TimerId {
        self.timer_seq += 1;
        TimerId(self.timer_seq)
    }
    fn cancel_timer(&mut self, _id: TimerId) {}
    fn random_u64(&mut self) -> u64 {
        0xDEAD_BEEF
    }
    fn log_append(&mut self, _log: &'static str, _rec: StableRecord, _forced: bool) -> Dur {
        Dur::ZERO
    }
    fn log_read(&self, _log: &'static str) -> Vec<StableRecord> {
        Vec::new()
    }
    fn trace(&mut self, _kind: TraceKind) {}
    fn depth(&self) -> u32 {
        0
    }
    fn send_after_at_depth(&mut self, _depth: u32, _d: Dur, to: NodeId, payload: Payload) {
        self.out.push((to, payload));
    }
    fn subscribe_node_events(&mut self) {}
}

fn inst() -> RegId {
    RegId::slot(0)
}

/// A slot value distinguishable by the server it names: `server` claiming
/// one fixed attempt.
fn claim_by(server: NodeId) -> RegValue {
    let rid = ResultId::first(RequestId { client: NodeId(100), seq: 1 });
    let claims = vec![OwnerClaim { rid, server, ack_below: 0 }];
    RegValue::Batch(Arc::new(SlotBatch { outcomes: Vec::new(), claims }))
}

/// The server a [`claim_by`] value names.
fn claimant(value: &RegValue) -> NodeId {
    value.as_batch_shared().claims[0].server
}

/// A little world of `n` engines plus an in-flight message bag the
/// adversary controls.
struct World {
    engines: Vec<Option<ConsensusEngine>>,    // None = crashed
    bag: VecDeque<(NodeId, NodeId, Payload)>, // (from, to, payload)
    decided: Vec<Option<RegValue>>,
    crashed: Vec<NodeId>,
}

impl World {
    fn new(n: usize, crashed: Vec<usize>) -> Self {
        let peers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let engines = peers
            .iter()
            .map(|&p| {
                if crashed.contains(&(p.0 as usize)) {
                    None
                } else {
                    Some(ConsensusEngine::new(p, &peers, EngineConfig::default()))
                }
            })
            .collect();
        World {
            engines,
            bag: VecDeque::new(),
            decided: vec![None; n],
            crashed: crashed.into_iter().map(|i| NodeId(i as u32)).collect(),
        }
    }

    #[allow(dead_code)] // part of the World harness API; kept for ad-hoc debugging
    fn suspects(&self) -> impl Fn(NodeId) -> bool + '_ {
        let crashed = self.crashed.clone();
        move |n| crashed.contains(&n)
    }

    fn drain(&mut self, node: NodeId, ctx: MockCtx) {
        for (to, payload) in ctx.out {
            self.bag.push_back((node, to, payload));
        }
    }

    fn propose(&mut self, idx: usize, value: RegValue) {
        let me = NodeId(idx as u32);
        let mut ctx = MockCtx::new(me);
        let crashed = self.crashed.clone();
        let sus = move |n: NodeId| crashed.contains(&n);
        if let Some(engine) = self.engines[idx].as_mut() {
            if let Some(v) = engine.propose(&mut ctx, inst(), value, &sus) {
                self.decided[idx] = Some(v);
            }
        }
        self.drain(me, ctx);
    }

    /// Delivers the `k`-th in-flight message (adversary's pick); drops it
    /// silently if the target crashed.
    fn deliver_nth(&mut self, k: usize) {
        if self.bag.is_empty() {
            return;
        }
        let k = k % self.bag.len();
        let (from, to, payload) = self.bag.remove(k).expect("index in range");
        let idx = to.0 as usize;
        let Some(engine) = self.engines[idx].as_mut() else {
            return; // crashed target: message lost
        };
        let mut ctx = MockCtx::new(to);
        let crashed = self.crashed.clone();
        let sus = move |n: NodeId| crashed.contains(&n);
        let event = Event::Message { from, payload };
        for (reg, value) in engine.handle(&mut ctx, &event, &sus) {
            assert_eq!(reg, inst());
            self.decided[idx] = Some(value);
        }
        self.drain(to, ctx);
    }

    /// Fires the patience re-check at every live engine (models timers).
    fn tick_all(&mut self) {
        for idx in 0..self.engines.len() {
            let me = NodeId(idx as u32);
            let mut ctx = MockCtx::new(me);
            let crashed = self.crashed.clone();
            let sus = move |n: NodeId| crashed.contains(&n);
            if let Some(engine) = self.engines[idx].as_mut() {
                engine.on_suspicion_change(&mut ctx, &sus);
                // Resync pull as well (read liveness).
                let ev = Event::Timer { id: TimerId(0), tag: TimerTag::ConsensusResync };
                for (_, value) in engine.handle(&mut ctx, &ev, &sus) {
                    self.decided[idx] = Some(value);
                }
            }
            self.drain(me, ctx);
        }
    }

    fn live_decisions(&self) -> Vec<&RegValue> {
        self.decided.iter().flatten().collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// Agreement + validity under arbitrary delivery orders, with up to a
    /// minority crashed from the start; termination given fair ticks.
    #[test]
    fn agreement_under_arbitrary_interleavings(
        n in prop_oneof![Just(3usize), Just(5usize)],
        crash_one in any::<bool>(),
        crash_pick in 0usize..5,
        proposers in proptest::collection::vec(any::<bool>(), 5),
        schedule in proptest::collection::vec(0usize..64, 0..200),
    ) {
        let crashed = if crash_one { vec![crash_pick % n] } else { vec![] };
        let mut w = World::new(n, crashed.clone());
        // Every live server marked as proposer proposes its own id; ensure
        // at least one proposer exists.
        let mut any_proposer = false;
        #[allow(clippy::needless_range_loop)] // i is a node id, not just an index
        for i in 0..n {
            if crashed.contains(&i) { continue; }
            if proposers[i] || !any_proposer {
                w.propose(i, claim_by(NodeId(i as u32)));
                any_proposer = true;
            }
        }
        // Adversarial delivery.
        for k in &schedule {
            w.deliver_nth(*k);
        }
        // Fair closure: alternate ticks and full drains until quiescent.
        for _ in 0..(4 * n + 8) {
            w.tick_all();
            for _ in 0..200 {
                if w.bag.is_empty() { break; }
                w.deliver_nth(0);
            }
        }
        // Agreement: every decided replica agrees.
        let decisions = w.live_decisions();
        prop_assert!(
            decisions.windows(2).all(|p| p[0] == p[1]),
            "agreement violated: {decisions:?}"
        );
        // Validity: the decision is one of the proposed values.
        for d in &decisions {
            prop_assert!((claimant(d).0 as usize) < n);
        }
        // Termination: with a live majority and truthful oracle, every live
        // replica decides.
        let live = n - crashed.len();
        prop_assert_eq!(
            decisions.len(),
            live,
            "termination violated: only {} of {} live replicas decided",
            decisions.len(),
            live
        );
    }

    /// Write-once: a second value proposed after a decision never wins.
    #[test]
    fn write_once_under_late_proposals(
        late_proposer in 0usize..3,
        schedule in proptest::collection::vec(0usize..64, 0..100),
    ) {
        let mut w = World::new(3, vec![]);
        w.propose(0, claim_by(NodeId(0)));
        // Fully settle the first write.
        for _ in 0..20 {
            w.tick_all();
            for _ in 0..200 {
                if w.bag.is_empty() { break; }
                w.deliver_nth(0);
            }
        }
        let first = w.decided[0].clone().expect("settled");
        // Now a late writer proposes something else.
        w.propose(late_proposer, claim_by(NodeId(9)));
        for k in &schedule {
            w.deliver_nth(*k);
        }
        for _ in 0..20 {
            w.tick_all();
            for _ in 0..200 {
                if w.bag.is_empty() { break; }
                w.deliver_nth(0);
            }
        }
        for d in w.live_decisions() {
            prop_assert_eq!(d, &first, "write-once violated");
        }
    }
}

/// Compaction safety: a replica that missed a slot's decision and finds its
/// peers already compacted cannot re-open the position — its late proposal
/// resolves to the compacted placeholder, never to its own value.
#[test]
fn compacted_instance_answers_late_writers_instead_of_reopening() {
    let mut w = World::new(3, vec![]);
    w.propose(0, claim_by(NodeId(0)));
    // Deliver everything except messages to node 2: the majority {0, 1}
    // decides; node 2 misses the decision entirely.
    for _ in 0..20 {
        w.tick_all();
        for _ in 0..400 {
            w.bag.retain(|(_, to, _)| *to != NodeId(2));
            if w.bag.is_empty() {
                break;
            }
            w.deliver_nth(0);
        }
    }
    w.bag.retain(|(_, to, _)| *to != NodeId(2));
    let original = w.decided[0].clone().expect("majority decided");
    assert_eq!(w.decided[1].as_ref(), Some(&original));
    assert_eq!(w.decided[2], None, "node 2 must have missed the decision");
    // Both deciders compact the instance (all its requests settled).
    let placeholder = RegValue::Batch(Arc::new(SlotBatch::default()));
    for idx in [0usize, 1] {
        assert!(
            w.engines[idx].as_mut().expect("live").compact(inst(), placeholder.clone()),
            "decided instances compact"
        );
    }
    // Node 2 now proposes its own value into the position it thinks is
    // open. Full connectivity again: it must learn the placeholder.
    w.propose(2, claim_by(NodeId(2)));
    for _ in 0..20 {
        w.tick_all();
        for _ in 0..400 {
            if w.bag.is_empty() {
                break;
            }
            w.deliver_nth(0);
        }
    }
    assert_eq!(
        w.decided[2].as_ref(),
        Some(&placeholder),
        "the late writer must adopt the compacted decision, not re-decide the position"
    );
}
