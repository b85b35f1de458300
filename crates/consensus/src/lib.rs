//! # etx-consensus — consensus and write-once registers
//!
//! The synchronisation core of the e-Transaction protocol (§4): write-once
//! registers built from rotating-coordinator consensus among the
//! application servers, and the decision log that folds the paper's two
//! per-attempt register arrays (`regA[j]`, `regD[j]`) into one sequence of
//! them.
//!
//! * [`engine::ConsensusEngine`] — multi-instance Chandra–Toueg-style
//!   consensus with the round-0 fast path ("one round trip for the first
//!   primary") and FD-driven round changes;
//! * [`woreg::WoRegisters`] — the CD-ROM abstraction on top: `write()` once,
//!   `read()` many;
//! * [`declog::DecisionLog`] — the sequenced decision log over wo-register
//!   slots: ordered batches of request outcomes and owner claims, one
//!   consensus round per batch, with first-occurrence arbitration
//!   replacing per-attempt `regA` and `regD`.
//!
//! All are *components* owned by an application-server process; they are
//! driven by forwarding runtime events.

pub mod declog;
pub mod engine;
pub mod woreg;

pub use declog::{AppliedSlot, DecisionLog};
pub use engine::{ConsensusEngine, EngineConfig, Suspects};
pub use woreg::{WoEvent, WoRegisters};

/// What the unit tests of this crate share: an inert [`Context`] that
/// records sends, and a register value that names a server.
///
/// [`Context`]: etx_base::runtime::Context
#[cfg(test)]
pub(crate) mod testutil {
    use etx_base::ids::{NodeId, RequestId, ResultId, TimerId};
    use etx_base::msg::Payload;
    use etx_base::runtime::{Context, TimerTag};
    use etx_base::time::{Dur, Time};
    use etx_base::trace::TraceKind;
    use etx_base::value::{OwnerClaim, RegValue, SlotBatch};
    use etx_base::wal::StableRecord;
    use std::sync::Arc;

    /// Records what its owner sends; everything else is inert.
    pub struct Outbox {
        pub me: NodeId,
        pub sent: Vec<(NodeId, Payload)>,
    }

    impl Outbox {
        pub fn new(me: NodeId) -> Self {
            Outbox { me, sent: Vec::new() }
        }
    }

    impl Context for Outbox {
        fn now(&self) -> Time {
            Time::ZERO
        }
        fn me(&self) -> NodeId {
            self.me
        }
        fn set_timer(&mut self, _d: Dur, _tag: TimerTag) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
        fn random_u64(&mut self) -> u64 {
            0
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
            self.sent.push((to, payload));
        }
        fn subscribe_node_events(&mut self) {}
    }

    /// A slot value distinguishable by the server it names: `server`
    /// claiming one fixed attempt.
    pub fn claim_by(server: NodeId) -> RegValue {
        let rid = ResultId::first(RequestId { client: NodeId(99), seq: 1 });
        let claims = vec![OwnerClaim { rid, server, ack_below: 0 }];
        RegValue::Batch(Arc::new(SlotBatch { outcomes: Vec::new(), claims }))
    }

    /// The server a [`claim_by`] value names.
    pub fn claimant(value: &RegValue) -> NodeId {
        value.as_batch_shared().claims[0].server
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{claim_by, claimant};
    use super::*;
    use etx_base::config::FdConfig;
    use etx_base::fault::{FaultOp, NemesisWhen};
    use etx_base::ids::{NodeId, RegId};
    use etx_base::runtime::{Context, Event, Host, Process};
    use etx_base::time::{Dur, Time};
    use etx_base::trace::TraceKind;
    use etx_base::value::RegValue;
    use etx_fd::{FailureDetector, HeartbeatFd};
    use etx_sim::{Sim, SimConfig};
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    /// Shared observation board the test hosts report decisions to.
    type Board = Arc<Mutex<BTreeMap<(NodeId, RegId), RegValue>>>;

    /// A host that proposes planned values and records every decision: on
    /// the board, and as a "decided" note in the trace.
    struct RegHost {
        me: NodeId,
        fd: HeartbeatFd,
        regs: WoRegisters,
        planned: Vec<(Time, RegId, RegValue)>,
        board: Board,
    }

    impl RegHost {
        fn fire_due(&mut self, ctx: &mut dyn Context) {
            let now = ctx.now();
            let (fire, keep): (Vec<_>, Vec<_>) =
                self.planned.drain(..).partition(|(at, _, _)| *at <= now);
            self.planned = keep;
            for (_, reg, value) in fire {
                let fd = &self.fd;
                let sus = move |n: NodeId| fd.suspects(n);
                if let Some(v) = self.regs.write(ctx, reg, value, &sus) {
                    self.board.lock().unwrap().insert((self.me, reg), v);
                }
            }
        }
    }

    impl Process for RegHost {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if matches!(event, Event::Init) {
                self.fd.on_init(ctx);
                self.regs.on_init(ctx);
            }
            let transitions = self.fd.handle(ctx, &event);
            let fd = &self.fd;
            let sus = move |n: NodeId| fd.suspects(n);
            if !transitions.is_empty() {
                self.regs.on_suspicion_change(ctx, &sus);
            }
            for ev in self.regs.handle(ctx, &event, &sus) {
                let WoEvent::Decided { reg, value } = ev;
                ctx.trace(TraceKind::Note("decided"));
                self.board.lock().unwrap().insert((self.me, reg), value);
            }
            self.fire_due(ctx);
        }
    }

    fn reg(seq: u64) -> RegId {
        RegId::slot(seq)
    }

    fn build(
        seed: u64,
        n: usize,
        plans: Vec<Vec<(Time, RegId, RegValue)>>,
    ) -> (Sim, Vec<NodeId>, Board) {
        let board: Board = Arc::new(Mutex::new(BTreeMap::new()));
        let mut sim = Sim::new(SimConfig::with_seed(seed));
        let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        for i in 0..n {
            let ids_c = ids.clone();
            let plan = plans.get(i).cloned().unwrap_or_default();
            let board_c = board.clone();
            sim.add_node(
                "reg",
                Box::new(move |me| {
                    Box::new(RegHost {
                        me,
                        fd: HeartbeatFd::new(me, &ids_c, FdConfig::default()),
                        regs: WoRegisters::new(me, &ids_c, EngineConfig::default()),
                        planned: plan.clone(),
                        board: board_c.clone(),
                    })
                }),
            );
        }
        (sim, ids, board)
    }

    fn decisions_for(board: &Board, reg: RegId) -> Vec<RegValue> {
        let b = board.lock().unwrap();
        b.iter().filter(|((_, r), _)| *r == reg).map(|(_, v)| v.clone()).collect()
    }

    #[test]
    fn single_writer_decides_own_value_fast() {
        let r = reg(1);
        let (mut sim, _ids, board) = build(1, 3, vec![vec![(Time::ZERO, r, claim_by(NodeId(0)))]]);
        let board_c = board.clone();
        sim.run_until(move |_| decisions_for(&board_c, r).len() == 3);
        let vals = decisions_for(&board, r);
        assert_eq!(vals.len(), 3, "all replicas learn");
        for v in &vals {
            assert_eq!(v, &claim_by(NodeId(0)), "validity: only the proposed value");
        }
        // Fast path: the writer is round 0's coordinator; one round trip to
        // decide plus one hop to disseminate.
        assert!(sim.now() < Time(10_000), "fast path too slow: {}", sim.now());
    }

    #[test]
    fn concurrent_writers_agree_on_one_value() {
        for seed in 0..20u64 {
            let r = reg(2);
            let plans = vec![
                vec![(Time::ZERO, r, claim_by(NodeId(0)))],
                vec![(Time::ZERO, r, claim_by(NodeId(1)))],
                vec![(Time::ZERO, r, claim_by(NodeId(2)))],
            ];
            let (mut sim, _, board) = build(seed, 3, plans);
            let board_c = board.clone();
            sim.run_until(move |_| decisions_for(&board_c, r).len() == 3);
            let vals = decisions_for(&board, r);
            assert_eq!(vals.len(), 3);
            assert!(
                vals.windows(2).all(|w| w[0] == w[1]),
                "agreement violated at seed {seed}: {vals:?}"
            );
            assert!(claimant(&vals[0]).0 <= 2, "validity violated at seed {seed}");
        }
    }

    #[test]
    fn write_after_decide_returns_existing_value() {
        let r = reg(3);
        // Node 0 writes at t=0; node 1 writes the same register much later
        // and must get node 0's value back.
        let plans = vec![
            vec![(Time::ZERO, r, claim_by(NodeId(0)))],
            vec![(Time(300_000), r, claim_by(NodeId(1)))],
        ];
        let (mut sim, _, board) = build(7, 3, plans);
        let board_c = board.clone();
        sim.run_until(move |s| s.now() > Time(600_000) && decisions_for(&board_c, r).len() == 3);
        let vals = decisions_for(&board, r);
        assert!(vals.iter().all(|v| *v == claim_by(NodeId(0))), "write-once: {vals:?}");
    }

    #[test]
    fn decision_survives_coordinator_crash_after_write() {
        // Writer/coordinator node 0 crashes right after its register
        // decides; the survivors must still converge on node 0's value.
        let r = reg(4);
        let (mut sim, ids, board) = build(11, 3, vec![vec![(Time::ZERO, r, claim_by(NodeId(0)))]]);
        sim.schedule_fault(
            NemesisWhen::on_trace(|ev| ev.kind == TraceKind::Note("decided")),
            FaultOp::Crash(ids[0]),
        )
        .unwrap();
        let board_c = board.clone();
        sim.run_until(move |_| decisions_for(&board_c, r).len() >= 2);
        let vals = decisions_for(&board, r);
        assert!(vals.iter().all(|v| *v == claim_by(NodeId(0))));
    }

    #[test]
    fn writer_cut_off_before_majority_lets_others_take_over() {
        // Node 1 proposes but is partitioned away, so its write cannot reach
        // anyone; node 2 later proposes its own value. The connected
        // majority must decide without node 1, and everyone must agree once
        // the partition heals.
        let r = reg(5);
        let plans = vec![
            vec![],
            vec![(Time::ZERO, r, claim_by(NodeId(1)))],
            vec![(Time(500_000), r, claim_by(NodeId(2)))],
        ];
        let (mut sim, ids, board) = build(13, 3, plans);
        let cut = FaultOp::Partition {
            a: vec![ids[1]],
            b: vec![ids[0], ids[2]],
            heal_after: Dur(5_000_000),
        };
        sim.schedule_fault(NemesisWhen::Now, cut).unwrap();
        let board_c = board.clone();
        let out = sim.run_until(move |_| {
            let b = board_c.lock().unwrap();
            b.contains_key(&(NodeId(0), r)) && b.contains_key(&(NodeId(2), r))
        });
        assert_eq!(out, etx_sim::RunOutcome::Predicate, "connected majority must decide");
        let vals = decisions_for(&board, r);
        assert!(vals.windows(2).all(|w| w[0] == w[1]), "{vals:?}");
    }

    #[test]
    fn many_instances_in_parallel() {
        let regs: Vec<RegId> = (0..10).map(reg).collect();
        let plans = vec![
            regs.iter().step_by(2).map(|&r| (Time::ZERO, r, claim_by(NodeId(0)))).collect(),
            regs.iter().skip(1).step_by(2).map(|&r| (Time::ZERO, r, claim_by(NodeId(1)))).collect(),
            vec![],
        ];
        let (mut sim, _, board) = build(17, 3, plans);
        let board_c = board.clone();
        let regs_c = regs.clone();
        sim.run_until(move |_| {
            let b = board_c.lock().unwrap();
            regs_c.iter().all(|r| (0..3).all(|n| b.contains_key(&(NodeId(n), *r))))
        });
        for r in &regs {
            let vals = decisions_for(&board, *r);
            assert_eq!(vals.len(), 3);
            assert!(vals.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn late_replica_learns_via_delayed_delivery_or_pull() {
        // Node 2 is cut off while 0+1 decide; after the heal it must still
        // converge on the decided value (via the delayed Decide and/or its
        // periodic DecideReq pull).
        let r = reg(7);
        let (mut sim, ids, board) = build(19, 3, vec![vec![(Time::ZERO, r, claim_by(NodeId(0)))]]);
        let cut = FaultOp::Partition {
            a: vec![ids[2]],
            b: vec![ids[0], ids[1]],
            heal_after: Dur(400_000),
        };
        sim.schedule_fault(NemesisWhen::Now, cut).unwrap();
        let board_c = board.clone();
        let out = sim.run_until(move |_| board_c.lock().unwrap().contains_key(&(NodeId(2), r)));
        assert_eq!(out, etx_sim::RunOutcome::Predicate);
        let vals = decisions_for(&board, r);
        assert!(vals.iter().all(|v| *v == claim_by(NodeId(0))));
        assert!(sim.now() >= Time(400_000), "node 2 can only learn after the heal");
    }

    #[test]
    fn single_replica_quorum_decides_synchronously() {
        // peers = {me}: propose must decide immediately and compact() must
        // work right after.
        let r = reg(6);
        let out = Arc::new(Mutex::new(None));
        struct Once {
            r: RegId,
            out: Arc<Mutex<Option<bool>>>,
        }
        impl Process for Once {
            fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
                if matches!(event, Event::Init) {
                    let me = ctx.me();
                    let mut e = ConsensusEngine::new(me, &[me], EngineConfig::default());
                    let sus = |_: NodeId| false;
                    let v = e.propose(ctx, self.r, claim_by(me), &sus);
                    assert_eq!(v, Some(claim_by(me)));
                    assert!(!e.compact(reg(999), claim_by(me)), "cannot compact unknown instance");
                    *self.out.lock().unwrap() = Some(e.compact(self.r, claim_by(me)));
                }
            }
        }
        let mut sim = Sim::new(SimConfig::with_seed(1));
        let out_c = out.clone();
        sim.add_node("x", Box::new(move |_| Box::new(Once { r, out: out_c.clone() })));
        sim.run_until(|_| false);
        assert_eq!(*out.lock().unwrap(), Some(true));
    }
}
