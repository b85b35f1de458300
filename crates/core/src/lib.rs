//! # etx-core — the e-Transaction protocol
//!
//! The paper's primary contribution: exactly-once transactions for
//! three-tier architectures through asynchronous replication of the
//! *transaction-processing state* among stateless application servers.
//!
//! The protocol's three parts map onto three process types:
//!
//! | Paper | Module |
//! |---|---|
//! | Figure 2 — client `issue()` | [`client::EtxClient`] |
//! | Figures 4–6 — application server (compute + clean + terminate) | [`appserver::AppServer`] |
//! | Figure 4 `prepare()` / `terminate()`, Figure 5 `compute()` — one attempt's database-facing stages, shared with the Figure 7 baselines | [`xa::Xa`] |
//! | Figure 3 — database server | [`dbserver::DbServer`] |
//!
//! The guarantees (§3) are: **termination** (T.1 the client eventually
//! delivers a result, T.2 every voted branch eventually commits or aborts),
//! **agreement** (A.1 only committed results are delivered, A.2 at most one
//! result commits per request, A.3 databases never disagree) and
//! **validity** (V.1 delivered results were really computed, V.2 commits
//! require unanimous yes votes). The integration and chaos test-suites
//! check all seven on recorded histories.

pub mod appserver;
pub mod client;
pub mod dbserver;
pub(crate) mod readlane;
pub mod resultbuild;
pub mod router;
pub mod xa;

pub use appserver::AppServer;
pub use client::{EtxClient, IssueMode};
pub use dbserver::{DbServer, ReplRole};
pub use router::{route, RoutedPlan};

#[cfg(test)]
pub(crate) mod recorder {
    //! A [`Context`] for unit tests that records what a process does —
    //! sends, timers and their cancels, traces, WAL appends — and charges
    //! nothing.

    use etx_base::ids::{NodeId, ResultId, TimerId};
    use etx_base::msg::{DbReplyMsg, Payload};
    use etx_base::runtime::{Context, TimerTag};
    use etx_base::time::{Dur, Time};
    use etx_base::trace::TraceKind;
    use etx_base::value::Outcome;
    use etx_base::wal::StableRecord;

    #[derive(Default)]
    pub(crate) struct Recorder {
        /// What `now` reads: zero unless a test sets it.
        pub now: Time,
        pub sent: Vec<(NodeId, Payload)>,
        /// The delay each send asked for (zero for a plain one), in call
        /// order.
        pub delays: Vec<Dur>,
        /// Timers in arming order; the `n`-th armed is `TimerId(n)`, from 1.
        pub timers: Vec<(Dur, TimerTag)>,
        pub cancelled: Vec<TimerId>,
        pub wal: Vec<StableRecord>,
        pub traced: Vec<TraceKind>,
    }

    impl Context for Recorder {
        fn now(&self) -> Time {
            self.now
        }
        fn me(&self) -> NodeId {
            NodeId(2)
        }
        fn set_timer(&mut self, delay: Dur, tag: TimerTag) -> TimerId {
            self.timers.push((delay, tag));
            self.last_timer()
        }
        fn cancel_timer(&mut self, id: TimerId) {
            self.cancelled.push(id);
        }
        fn random_u64(&mut self) -> u64 {
            0
        }
        fn log_append(&mut self, _: &'static str, rec: StableRecord, _: bool) -> Dur {
            self.wal.push(rec);
            Dur::ZERO
        }
        fn log_read(&self, _: &'static str) -> Vec<StableRecord> {
            self.wal.clone()
        }
        fn trace(&mut self, kind: TraceKind) {
            self.traced.push(kind);
        }
        fn depth(&self) -> u32 {
            0
        }
        fn send_after_at_depth(&mut self, _: u32, delay: Dur, to: NodeId, payload: Payload) {
            self.delays.push(delay);
            self.sent.push((to, payload));
        }
        fn subscribe_node_events(&mut self) {}
    }

    impl Recorder {
        /// The id of the timer armed last.
        pub fn last_timer(&self) -> TimerId {
            TimerId(self.timers.len() as u64)
        }

        /// The `(branch, applied outcome)` pairs acknowledged so far.
        pub fn acks(&self) -> Vec<(ResultId, Outcome)> {
            let acked = |(_, p): &(NodeId, Payload)| match p {
                Payload::DbReply(DbReplyMsg::AckDecide { entries, .. }) => entries.clone(),
                _ => Vec::new(),
            };
            self.sent.iter().flat_map(acked).collect()
        }

        /// The WAL with every group frame unfolded.
        pub fn leaves(&self) -> Vec<StableRecord> {
            self.wal.iter().flat_map(|r| r.leaves()).cloned().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::config::{BatchingConfig, CostModel, FdConfig, ProtocolConfig};
    use etx_base::fault::{FaultOp, NemesisWhen};
    use etx_base::ids::{NodeId, RequestId, ResultId, Topology};
    use etx_base::msg::{ClientMsg, Payload};
    use etx_base::retry::IssuePlan;
    use etx_base::runtime::{Context, Event, Host, Process};
    use etx_base::time::{Dur, Time};
    use etx_base::trace::TraceKind;
    use etx_base::value::{DbOp, Outcome, Request, RequestScript, Vote};
    use etx_fd::HeartbeatFd;
    use etx_sim::{NetConfig, Sim, SimConfig};

    /// Builds a full three-tier system: one client process made by
    /// `client`, the application servers and databases of `topo` under
    /// `pcfg`. Node ids follow `Topology::new` order: client first.
    fn build_with(
        seed: u64,
        topo: &Topology,
        pcfg: ProtocolConfig,
        client: etx_base::runtime::NodeFactory,
        seed_data: Vec<(String, i64)>,
    ) -> Sim {
        let mut cfg = SimConfig::with_seed(seed);
        cfg.cost = CostModel::fast_for_tests();
        cfg.net = NetConfig {
            min_delay: Dur::from_micros(100),
            max_delay: Dur::from_micros(300),
            ..NetConfig::default()
        };
        let mut sim = Sim::new(cfg);
        let fd_cfg = FdConfig {
            heartbeat_every: Dur::from_millis(2),
            initial_timeout: Dur::from_millis(8),
            timeout_increment: Dur::from_millis(4),
            max_timeout: Dur::from_millis(200),
        };
        sim.add_node("client", client);
        for _ in &topo.app_servers {
            let topo_c = topo.clone();
            let pcfg = pcfg.clone();
            sim.add_node(
                "app",
                Box::new(move |me| {
                    Box::new(AppServer::new(
                        me,
                        topo_c.clone(),
                        pcfg.clone(),
                        CostModel::fast_for_tests(),
                        Box::new(HeartbeatFd::new(me, &topo_c.app_servers, fd_cfg)),
                    ))
                }),
            );
        }
        for _ in &topo.db_servers {
            let alist = topo.app_servers.clone();
            let data = seed_data.clone();
            sim.add_node(
                "db",
                Box::new(move |_| {
                    Box::new(DbServer::new(
                        alist.clone(),
                        CostModel::fast_for_tests(),
                        data.clone(),
                    ))
                }),
            );
        }
        sim
    }

    /// 1 client issuing `plan`, `apps` app servers, `dbs` databases.
    fn build_system(
        seed: u64,
        apps: usize,
        dbs: usize,
        plan: Vec<Request>,
        seed_data: Vec<(String, i64)>,
    ) -> (Sim, Topology) {
        let topo = Topology::new(1, apps, dbs);
        let alist = topo.app_servers.clone();
        let plan = IssuePlan::from(plan);
        let client = Box::new(move |_| {
            Box::new(EtxClient::new(alist.clone(), ProtocolConfig::fast_for_tests(), plan.clone()))
                as _
        });
        (build_with(seed, &topo, ProtocolConfig::fast_for_tests(), client, seed_data), topo)
    }

    fn bank_request(client: NodeId, seq: u64, db: NodeId) -> Request {
        Request {
            id: RequestId { client, seq },
            script: RequestScript::single(db, vec![DbOp::Add { key: "acct".into(), delta: 100 }]),
        }
    }

    fn delivered_commits(sim: &Sim) -> usize {
        sim.trace().count_kind(|k| matches!(k, TraceKind::Deliver { outcome: Outcome::Commit, .. }))
    }

    #[test]
    fn failure_free_commit_delivers_exactly_once() {
        let topo = Topology::new(1, 3, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, _) = build_system(1, 3, 1, vec![req], vec![("acct".into(), 0)]);
        let out = sim.run_until(|s| delivered_commits(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate, "T.1: client must deliver");
        let commits = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }));
        assert_eq!(commits, 1, "A.2: exactly one committed result");
        let aborts = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Abort, .. }));
        assert_eq!(aborts, 0, "nice run needs no aborts");
    }

    #[test]
    fn doomed_branch_keeps_aborting_and_never_delivers() {
        let topo = Topology::new(1, 3, 1);
        let client = topo.clients[0];
        let db = topo.db_servers[0];
        let req = Request {
            id: RequestId { client, seq: 1 },
            script: RequestScript::single(db, vec![DbOp::Doom]),
        };
        let (mut sim, _) = build_system(3, 3, 1, vec![req], vec![]);
        sim.run_until_time(Time(400_000));
        let aborts = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Abort, .. }));
        assert!(aborts >= 2, "client must retry aborted attempts (got {aborts} aborts)");
        assert_eq!(delivered_commits(&sim), 0, "a doomed script can never commit");
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Deliver { .. })), 0);
    }

    #[test]
    fn sold_out_is_delivered_exactly_once_as_a_result() {
        // Reserving from an empty inventory must still commit and deliver an
        // informative result (paper footnote 4).
        let topo = Topology::new(1, 3, 1);
        let client = topo.clients[0];
        let db = topo.db_servers[0];
        let req = Request {
            id: RequestId { client, seq: 1 },
            script: RequestScript::single(db, vec![DbOp::Reserve { key: "seats".into(), qty: 1 }]),
        };
        let (mut sim, _) = build_system(5, 3, 1, vec![req], vec![("seats".into(), 0)]);
        let out = sim.run_until(|s| delivered_commits(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate);
        assert_eq!(
            sim.trace()
                .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. })),
            1
        );
    }

    #[test]
    fn multiple_sequential_requests_all_commit() {
        let topo = Topology::new(1, 3, 1);
        let client = topo.clients[0];
        let db = topo.db_servers[0];
        let plan: Vec<Request> = (1..=5).map(|i| bank_request(client, i, db)).collect();
        let (mut sim, _) = build_system(7, 3, 1, plan, vec![("acct".into(), 0)]);
        let out = sim.run_until(|s| delivered_commits(s) == 5);
        assert_eq!(out, etx_sim::RunOutcome::Predicate);
        let commits = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }));
        assert_eq!(commits, 5);
    }

    #[test]
    fn primary_crash_before_request_fails_over_via_backoff_broadcast() {
        let topo = Topology::new(1, 3, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build_system(9, 3, 1, vec![req], vec![("acct".into(), 0)]);
        sim.schedule_fault(NemesisWhen::After(Dur::ZERO), FaultOp::Crash(topo.app_servers[0]))
            .unwrap();
        let out = sim.run_until(|s| delivered_commits(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate, "back-off broadcast must fail over");
        let commits = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }));
        assert_eq!(commits, 1, "A.2 under fail-over");
    }

    #[test]
    fn owner_crash_after_rega_is_cleaned_with_abort_then_retry_commits() {
        // Figure 1(d): the owner crashes right after winning regA (before
        // computing). The cleaner must abort the attempt; the client retries
        // and the retry commits. Exactly one commit overall.
        let topo = Topology::new(1, 3, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build_system(11, 3, 1, vec![req], vec![("acct".into(), 0)]);
        let a1 = topo.app_servers[0];
        sim.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == a1
                    && matches!(
                        ev.kind,
                        TraceKind::Span { comp: etx_base::trace::Component::LogStart, .. }
                    )
            }),
            FaultOp::Crash(a1),
        )
        .unwrap();
        let out = sim.run_until(|s| delivered_commits(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate, "cleaner + retry must finish the job");
        let commits = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }));
        assert_eq!(commits, 1, "A.2: still exactly one commit");
        let delivered_attempt = sim
            .trace()
            .events()
            .iter()
            .find_map(|e| match e.kind {
                TraceKind::Deliver { rid, .. } => Some(rid.attempt),
                _ => None,
            })
            .unwrap();
        assert!(delivered_attempt >= 2, "first attempt was owned by the crashed primary");
        assert!(sim.trace().count_kind(|k| matches!(k, TraceKind::CleanerTakeover { .. })) >= 1);
    }

    #[test]
    fn the_tick_that_first_suspects_a_crashed_owner_runs_the_cleaner_at_that_step() {
        // As above, the owner crashes right after winning regA. A detector
        // tick that turns a suspicion on goes on past the detector: every
        // survivor takes the orphan over in the step whose check first
        // suspected its owner, not at a later cleaner tick.
        let topo = Topology::new(1, 3, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build_system(11, 3, 1, vec![req], vec![("acct".into(), 0)]);
        let a1 = topo.app_servers[0];
        sim.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == a1
                    && matches!(
                        ev.kind,
                        TraceKind::Span { comp: etx_base::trace::Component::LogStart, .. }
                    )
            }),
            FaultOp::Crash(a1),
        )
        .unwrap();
        let out = sim.run_until(|s| delivered_commits(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate);
        let events = sim.trace().events();
        for &survivor in &topo.app_servers[1..] {
            let first = |what: &dyn Fn(&TraceKind) -> bool| {
                events.iter().find(|e| e.node == survivor && what(&e.kind)).map(|e| e.at)
            };
            let suspected = first(&|k| matches!(k, TraceKind::Suspect { peer } if *peer == a1));
            let took_over =
                first(&|k| matches!(k, TraceKind::CleanerTakeover { owner, .. } if *owner == a1));
            assert!(suspected.is_some(), "{survivor} suspects the crashed owner");
            assert_eq!(took_over, suspected, "{survivor} cleans at the suspecting tick");
        }
    }

    #[test]
    fn owner_crash_after_regd_commit_is_finished_by_cleaner_fig1c() {
        // Figure 1(c): the owner crashes after regD decides commit but
        // before terminating. The cleaner's write returns (result, commit)
        // and must FINISH the commitment — the client delivers attempt 1.
        let topo = Topology::new(1, 3, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build_system(13, 3, 1, vec![req], vec![("acct".into(), 0)]);
        let a1 = topo.app_servers[0];
        sim.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == a1
                    && matches!(
                        ev.kind,
                        TraceKind::Span { comp: etx_base::trace::Component::LogOutcome, .. }
                    )
            }),
            FaultOp::Crash(a1),
        )
        .unwrap();
        let out = sim.run_until(|s| delivered_commits(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate, "fail-over with commit must deliver");
        let (delivered_attempt, outcome) = sim
            .trace()
            .events()
            .iter()
            .find_map(|e| match e.kind {
                TraceKind::Deliver { rid, outcome, .. } => Some((rid.attempt, outcome)),
                _ => None,
            })
            .unwrap();
        assert_eq!(outcome, Outcome::Commit);
        assert_eq!(delivered_attempt, 1, "the ORIGINAL attempt's commit is delivered");
        let commits = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }));
        assert_eq!(commits, 1);
    }

    #[test]
    fn db_crash_recovery_mid_protocol_does_not_lose_exactly_once() {
        // Crash the database right after it votes; it recovers with the
        // prepared branch in-doubt and must still terminate (T.2).
        let topo = Topology::new(1, 3, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build_system(15, 3, 1, vec![req], vec![("acct".into(), 0)]);
        let db = topo.db_servers[0];
        sim.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == db && matches!(ev.kind, TraceKind::DbVote { .. })
            }),
            FaultOp::CrashFor { node: db, down_for: Dur::from_millis(20) },
        )
        .unwrap();
        let out = sim.run_until(|s| delivered_commits(s) >= 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate, "client must eventually deliver");
        let commits = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }));
        assert_eq!(commits, 1, "A.2 across database crash-recovery");
    }

    #[test]
    fn multi_database_transaction_commits_atomically() {
        let topo = Topology::new(1, 3, 2);
        let client = topo.clients[0];
        let (d1, d2) = (topo.db_servers[0], topo.db_servers[1]);
        let req = Request {
            id: RequestId { client, seq: 1 },
            script: RequestScript::from_calls(vec![
                etx_base::value::DbCall::new(
                    d1,
                    vec![DbOp::Add { key: "checking".into(), delta: -50 }],
                ),
                etx_base::value::DbCall::new(
                    d2,
                    vec![DbOp::Add { key: "savings".into(), delta: 50 }],
                ),
            ]),
        };
        let (mut sim, _) = build_system(
            17,
            3,
            2,
            vec![req],
            vec![("checking".into(), 100), ("savings".into(), 0)],
        );
        let out = sim.run_until(|s| delivered_commits(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate);
        let commits = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }));
        assert_eq!(commits, 2, "both branches commit (A.3)");
    }
    /// A client whose every move is scripted: it sends each planned frame
    /// at its instant and ignores the replies.
    struct Puppet(Vec<(Dur, NodeId, ClientMsg)>);

    impl Process for Puppet {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if matches!(event, Event::Init) {
                for (at, to, msg) in self.0.drain(..) {
                    ctx.send_after(at, to, Payload::Client(msg));
                }
            }
        }
    }

    #[test]
    fn a_watermark_that_overtakes_a_queued_outcome_aborts_the_attempt() {
        // Backup B owns attempt (c, 1, 1): computed, prepared, voted yes,
        // its outcome waiting in B's pipeline queue (B is not idle — its
        // attempt for request 3 waits on a dead database — and the flush
        // window is 50 ms away). Now request 1 settles behind B's back, as
        // when a cleaner's slot that B has not applied yet decided it and
        // the client's retry committed elsewhere: the client's next
        // request goes to the primary with watermark 2, and that claim
        // carries the watermark to B through the log. The log will ignore
        // B's outcome from here on, so B must abort the attempt itself —
        // or its branch stays prepared, and its lock held, forever.
        let topo = Topology::new(1, 3, 3);
        let (client, a, b) = (topo.clients[0], topo.app_servers[0], topo.app_servers[1]);
        let (db1, dead, db3) = (topo.db_servers[0], topo.db_servers[1], topo.db_servers[2]);
        let frame = |seq, db, ack_below| ClientMsg::Request {
            request: bank_request(client, seq, db),
            attempt: 1,
            ack_below,
            stamps: Vec::new(),
        };
        let plan = vec![
            (Dur::ZERO, b, frame(3, dead, 1)),
            (Dur::ZERO, b, frame(1, db1, 1)),
            (Dur::from_millis(10), a, frame(2, db3, 2)),
        ];
        let mut pcfg = ProtocolConfig::fast_for_tests();
        pcfg.features.batching = BatchingConfig::new(64, Dur::from_millis(50));
        let puppet = Box::new(move |_| Box::new(Puppet(plan.clone())) as _);
        let mut sim = build_with(23, &topo, pcfg, puppet, vec![("acct".into(), 0)]);
        sim.schedule_fault(NemesisWhen::After(Dur::ZERO), FaultOp::Crash(dead)).unwrap();
        sim.run_until_time(Time(40_000));

        let victim = ResultId::first(RequestId { client, seq: 1 });
        let at_db1 = |pred: fn(&TraceKind, ResultId) -> bool| {
            sim.trace().events().iter().any(|e| e.node == db1 && pred(&e.kind, victim))
        };
        assert!(
            at_db1(|k, v| matches!(k, TraceKind::DbVote { rid, vote: Vote::Yes } if *rid == v)),
            "the attempt must have prepared at its database"
        );
        assert!(
            at_db1(|k, v| *k == TraceKind::DbDecide { rid: v, outcome: Outcome::Abort }),
            "the watermark dropped the queued outcome: its owner must abort the branch"
        );
    }
}
