//! # etx-sim — deterministic discrete-event simulation kernel
//!
//! Hosts every process of a three-tier run on a virtual clock. The kernel
//! implements the system model of the paper's §2 exactly:
//!
//! * **asynchronous message passing** with configurable latency and loss
//!   ([`net`]), exposed to protocols as the *reliable channel* abstraction
//!   of §4 (termination + integrity; loss becomes delay via modelled
//!   retransmission, a cut link holds its traffic until it heals,
//!   duplicates never surface);
//! * **crash failures**: crashing a process drops its volatile state; its
//!   [`storage::StableStorage`] survives, and recovery rebuilds the process
//!   from its factory (crash-recovery for database servers, crash-stop for
//!   application servers — the protocol never recovers those);
//! * **determinism**: every run is a pure function of its seed. Event
//!   ordering ties are broken by insertion sequence; randomness comes from a
//!   self-contained SplitMix64 stream ([`rng`]).
//!
//! The kernel additionally tracks **causal depth** per message (the number
//! of sequential communication steps since the client issued its request),
//! which is how the Figure 7 "communication steps" comparison is measured
//! rather than hand-counted.
//!
//! ```
//! use etx_sim::{Sim, SimConfig};
//! use etx_base::runtime::{Context, Event, Process};
//! use etx_base::msg::{Payload, FdMsg};
//!
//! struct Echo;
//! impl Process for Echo {
//!     fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
//!         if let Event::Message { from, .. } = event {
//!             ctx.send(from, Payload::Fd(FdMsg::Heartbeat { seq: 1 }));
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::with_seed(7));
//! let a = sim.add_node("a", Box::new(|_| Box::new(Echo)));
//! let _b = sim.add_node("b", Box::new(|_| Box::new(Echo)));
//! # let _ = a;
//! sim.run_until(|s| s.processed() > 2);
//! ```

pub mod kernel;
pub mod net;
pub mod observe;
pub mod storage;

/// Deterministic SplitMix64 stream (shared with the threaded backend; the
/// module moved to `etx-base` with the runtime seam).
pub use etx_base::rng;

pub use kernel::{RunOutcome, Sim, SimConfig};
pub use net::NetConfig;
pub use observe::{MsgStats, Trace};
pub use rng::Rng;
pub use storage::StableStorage;

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::fault::{FaultOp, NemesisWhen};
    use etx_base::ids::{NodeId, RequestId, ResultId};
    use etx_base::msg::{FdMsg, Payload};
    use etx_base::runtime::{Context, Event, Host, Process, TimerTag};
    use etx_base::time::{Dur, Time};
    use etx_base::trace::{Component, TraceEvent, TraceKind};
    use etx_base::wal::{StableRecord, LOG_WAL};

    /// Sends `n` pings to a peer on Init; counts pongs via trace notes.
    struct Pinger {
        peer: Option<NodeId>,
        n: u64,
    }
    impl Process for Pinger {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    if let Some(peer) = self.peer {
                        for i in 0..self.n {
                            ctx.send(peer, Payload::Fd(FdMsg::Heartbeat { seq: i }));
                        }
                    }
                }
                Event::Message { .. } => ctx.trace(TraceKind::Note("pong")),
                _ => {}
            }
        }
    }

    #[test]
    fn messages_deliver_within_latency_bounds() {
        let mut sim = Sim::new(SimConfig::with_seed(1));
        let _a = sim.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 5 })));
        let _b = sim.add_node("b", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        let out =
            sim.run_until(|s| s.trace().count_kind(|k| matches!(k, TraceKind::Note("pong"))) == 5);
        assert_eq!(out, RunOutcome::Predicate);
        assert!(sim.now() <= Time(2_500), "all pings within max one-way latency");
        assert_eq!(sim.stats().sent("Heartbeat"), 5);
    }

    struct TimerBox {
        fired: u32,
    }
    impl Process for TimerBox {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    let keep = ctx.set_timer(Dur::from_millis(10), TimerTag::CleanerTick);
                    let kill = ctx.set_timer(Dur::from_millis(5), TimerTag::BatchFlush);
                    ctx.cancel_timer(kill);
                    let _ = keep;
                }
                Event::Timer { tag, .. } => {
                    self.fired += 1;
                    assert_eq!(tag, TimerTag::CleanerTick, "cancelled timer must not fire");
                    ctx.trace(TraceKind::Note("tick"));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut sim = Sim::new(SimConfig::with_seed(2));
        sim.add_node("t", Box::new(|_| Box::new(TimerBox { fired: 0 })));
        sim.run_until_time(Time(100_000));
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Note("tick"))), 1);
    }

    /// A timer told apart from the others by `seq`.
    fn numbered(seq: u64) -> TimerTag {
        let rid = ResultId::first(RequestId { client: NodeId(0), seq });
        TimerTag::Dispatch { rid, stage: 0 }
    }

    /// Arms `timers` (delay in ms, cancel it?) on Init, in order, then
    /// cancels the marked ones; `fired` is the `seq` of every timer that
    /// fired, in order.
    struct Numbered {
        timers: Vec<(u64, bool)>,
        fired: Vec<u64>,
    }
    impl Process for Numbered {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    let armed: Vec<_> = (0..)
                        .zip(&self.timers)
                        .map(|(seq, &(ms, cancel))| {
                            (ctx.set_timer(Dur::from_millis(ms), numbered(seq)), cancel)
                        })
                        .collect();
                    for (id, _) in armed.into_iter().filter(|&(_, cancel)| cancel) {
                        ctx.cancel_timer(id);
                    }
                }
                Event::Timer { tag: TimerTag::Dispatch { rid, .. }, .. } => {
                    self.fired.push(rid.request.seq);
                }
                _ => {}
            }
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    fn fired(sim: &Sim, node: NodeId) -> Vec<u64> {
        let any = sim.process_ref(node).and_then(|p| p.as_any()).expect("a live process");
        any.downcast_ref::<Numbered>().expect("a Numbered").fired.clone()
    }

    #[test]
    fn a_compaction_keeps_firing_order_and_ties() {
        // Twenty timers over three instants, eleven of them cancelled: the
        // eleventh cancel finds more cancelled ids than half the queue and
        // compacts. The nine left fire by instant, ties in arming order, and
        // no cancelled one is ever popped.
        let timers: Vec<(u64, bool)> = (0..20).map(|i| (1 + i % 3, i == 0 || i % 2 == 1)).collect();
        let mut sim = Sim::new(SimConfig::with_seed(2));
        let n = sim.add_node(
            "t",
            Box::new(move |_| Box::new(Numbered { timers: timers.clone(), fired: Vec::new() })),
        );
        sim.run_until_time(Time(100_000));
        assert_eq!(fired(&sim, n), [6, 12, 18, 4, 10, 16, 2, 8, 14]);
        assert_eq!(sim.processed(), 1 + 9, "Init and the nine live timers, nothing else");
    }

    #[test]
    fn a_timer_cancelled_before_a_pause_stays_dead_through_a_compaction() {
        // `p` cancels its 5 ms timer (seq 0) with its 50 ms one (seq 1) still
        // queued, so nothing compacts yet. It pauses at 1 ms; the dead timer
        // comes due while it sleeps. At 10 ms `q` cancels a burst of its own
        // timers, which compacts the queue and forgets every cancelled id.
        // `p` resumes at 20 ms: the dead timer must not fire then either.
        let mut sim = Sim::new(SimConfig::with_seed(3));
        let p = sim.add_node(
            "p",
            Box::new(|_| {
                Box::new(Numbered { timers: vec![(5, true), (50, false)], fired: Vec::new() })
            }),
        );
        sim.add_node("q", Box::new(|_| Box::new(Burst)));
        let pause = FaultOp::PauseFor { node: p, down_for: Dur::from_millis(19) };
        sim.schedule_fault(NemesisWhen::After(Dur::from_millis(1)), pause).unwrap();
        sim.run_until_time(Time(200_000));
        assert_eq!(fired(&sim, p), [1], "only the live timer, after the resume");
    }

    /// At 10 ms, arms eight timers and cancels every one.
    struct Burst;
    impl Process for Burst {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    ctx.set_timer(Dur::from_millis(10), TimerTag::CleanerTick);
                }
                Event::Timer { tag: TimerTag::CleanerTick, .. } => {
                    for seq in 0..8 {
                        let id = ctx.set_timer(Dur::from_millis(100), numbered(seq));
                        ctx.cancel_timer(id);
                    }
                }
                _ => {}
            }
        }
    }

    /// Writes to stable storage on Init, notes recovery content on Recovered.
    struct Durable;
    impl Process for Durable {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    let rid = etx_base::ids::ResultId::first(etx_base::ids::RequestId {
                        client: NodeId(0),
                        seq: 1,
                    });
                    let d = ctx.log_append(LOG_WAL, StableRecord::CoordStart { rid }, true);
                    assert!(d > Dur::ZERO, "forced writes cost time");
                    // Arm a timer that must NOT survive the crash.
                    ctx.set_timer(Dur::from_millis(50), TimerTag::CleanerTick);
                }
                Event::Recovered => {
                    let recs = ctx.log_read(LOG_WAL);
                    if recs.len() == 1 {
                        ctx.trace(TraceKind::Note("log-survived"));
                    }
                }
                Event::Timer { .. } => ctx.trace(TraceKind::Note("stale-timer")),
                _ => {}
            }
        }
    }

    #[test]
    fn crash_preserves_storage_and_kills_timers() {
        let mut sim = Sim::new(SimConfig::with_seed(3));
        let n = sim.add_node("d", Box::new(|_| Box::new(Durable)));
        let op = FaultOp::CrashFor { node: n, down_for: Dur(10_000) };
        sim.schedule_fault(NemesisWhen::After(Dur(10_000)), op).unwrap();
        sim.run_until_time(Time(200_000));
        assert!(sim.is_up(n));
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Note("log-survived"))), 1);
        assert_eq!(
            sim.trace().count_kind(|k| matches!(k, TraceKind::Note("stale-timer"))),
            0,
            "pre-crash timers must not fire after recovery"
        );
        assert_eq!(sim.storage(n).len(LOG_WAL), 1);
        // Crash + Recover appear in the trace.
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Crash)), 1);
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Recover)), 1);
    }

    #[test]
    fn messages_to_down_nodes_are_dropped() {
        let mut sim = Sim::new(SimConfig::with_seed(4));
        let _a = sim.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 3 })));
        let b = sim.add_node("b", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        sim.schedule_fault(NemesisWhen::After(Dur::ZERO), FaultOp::Crash(b)).unwrap();
        sim.run_until_time(Time(100_000));
        assert_eq!(sim.stats().dropped_to_down(), 3);
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Note("pong"))), 0);
    }

    /// Subscribes to node events (perfect FD oracle).
    struct Watcher;
    impl Process for Watcher {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => ctx.subscribe_node_events(),
                Event::NodeDown(_) => ctx.trace(TraceKind::Note("down")),
                Event::NodeUp(_) => ctx.trace(TraceKind::Note("up")),
                _ => {}
            }
        }
    }

    #[test]
    fn perfect_fd_oracle_notifies_subscribers() {
        let mut sim = Sim::new(SimConfig::with_seed(5));
        let _w = sim.add_node("w", Box::new(|_| Box::new(Watcher)));
        let v = sim.add_node("v", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        let op = FaultOp::CrashFor { node: v, down_for: Dur(4_000) };
        sim.schedule_fault(NemesisWhen::After(Dur(5_000)), op).unwrap();
        sim.run_until_time(Time(50_000));
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Note("down"))), 1);
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Note("up"))), 1);
    }

    #[test]
    fn trace_trigger_crashes_node() {
        let mut sim = Sim::new(SimConfig::with_seed(6));
        let a = sim.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 1 })));
        let b = sim.add_node("b", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        // Crash `b` as soon as it logs its first pong.
        sim.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == b && matches!(ev.kind, TraceKind::Note("pong"))
            }),
            FaultOp::Crash(b),
        )
        .unwrap();
        sim.run_until_time(Time(100_000));
        assert!(!sim.is_up(b));
        assert!(sim.is_up(a));
    }

    /// Charges a 5 µs `Sql` span per message.
    struct Charger;
    impl Process for Charger {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Message { .. } = event {
                let rid = ResultId::first(RequestId { client: NodeId(0), seq: 1 });
                ctx.span(rid, Component::Sql, Dur(5));
            }
        }
    }

    #[test]
    fn spans_are_summed_and_shown_to_triggers_but_never_traced() {
        let mut sim = Sim::new(SimConfig::with_seed(10));
        sim.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 3 })));
        let b = sim.add_node("b", Box::new(|_| Box::new(Charger)));
        let on_sql =
            |ev: &TraceEvent| matches!(ev.kind, TraceKind::Span { comp: Component::Sql, .. });
        sim.schedule_fault(NemesisWhen::on_trace(on_sql), FaultOp::Crash(b)).unwrap();
        sim.run_until_time(Time(100_000));
        assert!(!sim.is_up(b), "the first span crashed its node");
        let sql = sim.spans().count(Component::Sql);
        assert!((1..3).contains(&sql), "{sql} spans: the crash came after the first");
        assert_eq!(sim.spans().total(Component::Sql), Dur(5 * sql));
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Span { .. })), 0);
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Sim::new(SimConfig::with_seed(seed));
            sim.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 10 })));
            sim.add_node("b", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
            sim.run_until_time(Time(1_000_000));
            (sim.processed(), sim.now(), sim.stats().total())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, 0);
    }

    #[test]
    fn run_outcomes() {
        let mut sim = Sim::new(SimConfig::with_seed(7));
        sim.add_node("a", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        // Queue drains after Init.
        assert_eq!(sim.run_until(|_| false), RunOutcome::Exhausted);
        // Predicate outcome.
        let mut sim2 = Sim::new(SimConfig::with_seed(8));
        sim2.add_node("a", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        assert_eq!(sim2.run_until(|_| true), RunOutcome::Predicate);
    }

    #[test]
    fn partition_delays_delivery_until_heal() {
        let mut sim = Sim::new(SimConfig::with_seed(9));
        let a = sim.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 1 })));
        let b = sim.add_node("b", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        let op = FaultOp::Partition { a: vec![a], b: vec![b], heal_after: Dur(500_000) };
        sim.schedule_fault(NemesisWhen::Now, op).unwrap();
        sim.run_until(|s| s.trace().count_kind(|k| matches!(k, TraceKind::Note("pong"))) == 1);
        assert!(sim.now() >= Time(500_000), "delivered only after heal: {}", sim.now());
    }
}
