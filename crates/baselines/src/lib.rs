//! # etx-baselines — the comparison protocols of Appendix 3
//!
//! Three real, message-level protocols over the same simulated network and
//! the same XA databases as the e-Transaction protocol:
//!
//! * [`unreliable::BaselineServer`] — Figure 7a: no guarantees, the latency
//!   floor (the "cost of reliability" baseline);
//! * [`tpc::TpcServer`] — Figure 7b: presumed-nothing two-phase commit with
//!   eager coordinator logging: at-most-once, **blocking** on coordinator
//!   crash;
//! * [`pb::PbServer`] — Figure 7c: primary-backup e-Transactions, which
//!   needs a *perfect* failure detector (provided here by the simulator's
//!   crash oracle — no asynchronous network can offer one, which is the
//!   paper's argument for the wo-register design);
//! * [`clients::SimpleClient`] — the at-most-once client, with an optional
//!   naive-retry mode that reproduces the "charged twice" motivation.
//!
//! The paper draws all three as the e-Transaction skeleton with something
//! different *between* the steps, and so they are built: each server keeps
//! an attempt's `compute()` / `prepare()` / `terminate()` in the shared
//! [`etx_core::xa::Xa`] and owns only what it puts in between.

pub mod clients;
pub mod pb;
pub mod tpc;
pub mod unreliable;

pub use clients::{RetryPolicy, SimpleClient};
pub use pb::{PbRole, PbServer};
pub use tpc::TpcServer;
pub use unreliable::BaselineServer;

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::config::CostModel;
    use etx_base::fault::{FaultOp, NemesisWhen};
    use etx_base::ids::{NodeId, RequestId, Topology};
    use etx_base::retry::IssuePlan;
    use etx_base::runtime::Host;
    use etx_base::time::{Dur, Time};
    use etx_base::trace::TraceKind;
    use etx_base::value::{DbOp, Outcome, Request, RequestScript};
    use etx_core::DbServer;
    use etx_sim::{NetConfig, Sim, SimConfig};

    /// The decide re-push period of the servers under test.
    const RETRY: Dur = Dur::from_millis(150);

    fn fast_net() -> NetConfig {
        NetConfig {
            min_delay: Dur::from_micros(100),
            max_delay: Dur::from_micros(300),
            ..NetConfig::default()
        }
    }

    fn bank_request(client: NodeId, seq: u64, db: NodeId) -> Request {
        Request {
            id: RequestId { client, seq },
            script: RequestScript::single(db, vec![DbOp::Add { key: "acct".into(), delta: 100 }]),
        }
    }

    enum Kind {
        Baseline,
        Tpc,
        Pb,
    }

    /// Builds a system with the given middle tier. Topology: 1 client,
    /// 1 or 2 app servers, 1 db.
    fn build(seed: u64, kind: Kind, policy: RetryPolicy, plan: Vec<Request>) -> (Sim, Topology) {
        let apps = if matches!(kind, Kind::Pb) { 2 } else { 1 };
        let topo = Topology::new(1, apps, 1);
        let mut cfg = SimConfig::with_seed(seed);
        cfg.cost = CostModel::fast_for_tests();
        cfg.net = fast_net();
        let mut sim = Sim::new(cfg);
        let server = topo.app_servers[0];
        {
            let plan = IssuePlan::from(plan);
            sim.add_node(
                "client",
                Box::new(move |_| {
                    Box::new(SimpleClient::new(server, Dur::from_millis(80), policy, plan.clone()))
                }),
            );
        }
        match kind {
            Kind::Baseline => {
                sim.add_node(
                    "baseline",
                    Box::new(move |_| Box::new(BaselineServer::new(CostModel::fast_for_tests()))),
                );
            }
            Kind::Tpc => {
                let dlist = topo.db_servers.clone();
                sim.add_node(
                    "tpc",
                    Box::new(move |_| {
                        Box::new(TpcServer::new(dlist.clone(), CostModel::fast_for_tests(), RETRY))
                    }),
                );
            }
            Kind::Pb => {
                let (p, b) = (topo.app_servers[0], topo.app_servers[1]);
                for (name, role, peer) in
                    [("pb-primary", PbRole::Primary, b), ("pb-backup", PbRole::Backup, p)]
                {
                    let (dlist, cost) = (topo.db_servers.clone(), CostModel::fast_for_tests());
                    sim.add_node(
                        name,
                        Box::new(move |_| {
                            Box::new(PbServer::new(role, peer, dlist.clone(), cost.clone(), RETRY))
                        }),
                    );
                }
            }
        }
        {
            let alist = topo.app_servers.clone();
            sim.add_node(
                "db",
                Box::new(move |_| {
                    Box::new(DbServer::new(
                        alist.clone(),
                        CostModel::fast_for_tests(),
                        vec![("acct".into(), 0)],
                    ))
                }),
            );
        }
        (sim, topo)
    }

    fn delivered(sim: &Sim) -> usize {
        sim.trace().count_kind(|k| matches!(k, TraceKind::Deliver { .. }))
    }

    fn db_commits(sim: &Sim) -> usize {
        sim.trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }))
    }

    /// Spans charged to the two Figure 8 log rows.
    fn log_spans(sim: &Sim) -> u64 {
        use etx_base::trace::Component;
        sim.spans().count(Component::LogStart) + sim.spans().count(Component::LogOutcome)
    }

    #[test]
    fn baseline_happy_path_commits() {
        let topo = Topology::new(1, 1, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, _) = build(1, Kind::Baseline, RetryPolicy::GiveUp, vec![req]);
        let out = sim.run_until(|s| delivered(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate);
        assert_eq!(db_commits(&sim), 1);
    }

    #[test]
    fn baseline_server_crash_means_exception_and_no_answer() {
        let topo = Topology::new(1, 1, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build(2, Kind::Baseline, RetryPolicy::GiveUp, vec![req]);
        sim.schedule_fault(NemesisWhen::After(Dur::ZERO), FaultOp::Crash(topo.app_servers[0]))
            .unwrap();
        sim.run_until_time(Time(1_000_000));
        assert_eq!(delivered(&sim), 0);
        assert_eq!(
            sim.trace().count_kind(|k| matches!(k, TraceKind::Exception { .. })),
            1,
            "the user gets an exception — the ambiguity the paper complains about"
        );
    }

    #[test]
    fn tpc_happy_path_commits_with_two_forced_logs() {
        let topo = Topology::new(1, 1, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build(3, Kind::Tpc, RetryPolicy::GiveUp, vec![req]);
        let out = sim.run_until(|s| delivered(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate);
        assert_eq!(db_commits(&sim), 1);
        // Two forced coordinator records: start + outcome.
        use etx_base::wal::LOG_COORD;
        assert_eq!(sim.storage(topo.app_servers[0]).len(LOG_COORD), 2);
        // Span evidence for the Figure 8 log rows.
        assert_eq!(log_spans(&sim), 2);
    }

    #[test]
    fn tpc_blocks_databases_while_coordinator_is_down() {
        // Crash the coordinator right after the database votes: the branch
        // stays in-doubt (locks held!) until the coordinator recovers —
        // 2PC's blocking weakness, which the e-Transaction protocol's T.2
        // specifically removes.
        let topo = Topology::new(1, 1, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build(4, Kind::Tpc, RetryPolicy::GiveUp, vec![req]);
        let coord = topo.app_servers[0];
        let db = topo.db_servers[0];
        sim.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == db && matches!(ev.kind, TraceKind::DbVote { .. })
            }),
            FaultOp::Crash(coord),
        )
        .unwrap();
        // Run long past the client's timeout.
        sim.run_until_time(Time(2_000_000));
        assert_eq!(delivered(&sim), 0);
        assert_eq!(
            sim.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { .. })),
            0,
            "in-doubt branch blocked while the coordinator is down"
        );
        // Now let the coordinator recover: presumed-nothing recovery aborts
        // the in-doubt branch and unblocks the database.
        sim.schedule_fault(NemesisWhen::After(Dur(100_000)), FaultOp::Recover(coord)).unwrap();
        sim.run_until(|s| s.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { .. })) >= 1);
        let aborts = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Abort, .. }));
        assert_eq!(aborts, 1, "recovery resolves the in-doubt branch to abort");
    }

    #[test]
    fn tpc_naive_retry_can_execute_twice() {
        // The "charged twice" scenario (§1): coordinator crashes after
        // committing but before answering; the user's retry executes the
        // request again as a fresh transaction. Two commits for one logical
        // request — at-least-once, not exactly-once.
        let topo = Topology::new(1, 1, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) =
            build(5, Kind::Tpc, RetryPolicy::NaiveResend { max_retries: 3 }, vec![req]);
        let coord = topo.app_servers[0];
        let db = topo.db_servers[0];
        // The outage outlasts the client's 80 ms patience, so the user
        // retries into the void first, then into the recovered (and
        // amnesiac, connection-wise) coordinator.
        sim.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == db
                    && matches!(ev.kind, TraceKind::DbDecide { outcome: Outcome::Commit, .. })
            }),
            FaultOp::CrashFor { node: coord, down_for: Dur::from_millis(200) },
        )
        .unwrap();
        let out = sim.run_until(|s| db_commits(s) >= 2);
        assert_eq!(out, etx_sim::RunOutcome::Predicate, "naive retry duplicated the execution");
        // The account was charged twice — the motivation for e-Transactions.
    }

    #[test]
    fn pb_happy_path_commits_with_mirrored_state() {
        let topo = Topology::new(1, 2, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, _) = build(6, Kind::Pb, RetryPolicy::GiveUp, vec![req]);
        let out = sim.run_until(|s| delivered(s) == 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate);
        assert_eq!(db_commits(&sim), 1);
        // The two replication round trips are charged like log writes.
        assert_eq!(log_spans(&sim), 2);
    }

    #[test]
    fn pb_backup_completes_after_primary_crash_with_outcome() {
        // Primary crashes right after recording the outcome at the backup:
        // the backup (perfect FD) pushes the decision to the database —
        // non-blocking, unlike 2PC.
        let topo = Topology::new(1, 2, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build(7, Kind::Pb, RetryPolicy::GiveUp, vec![req]);
        let primary = topo.app_servers[0];
        sim.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == primary
                    && matches!(
                        ev.kind,
                        TraceKind::Span { comp: etx_base::trace::Component::LogOutcome, .. }
                    )
            }),
            FaultOp::Crash(primary),
        )
        .unwrap();
        let out = sim
            .run_until(|s| s.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { .. })) >= 1);
        assert_eq!(out, etx_sim::RunOutcome::Predicate, "backup must drive a decision");
    }

    #[test]
    fn pb_backup_aborts_unfinished_work_without_outcome() {
        // Primary crashes after Start but before Outcome: the backup must
        // abort the orphaned attempt (releasing any database locks).
        let topo = Topology::new(1, 2, 1);
        let req = bank_request(topo.clients[0], 1, topo.db_servers[0]);
        let (mut sim, topo) = build(8, Kind::Pb, RetryPolicy::GiveUp, vec![req]);
        let primary = topo.app_servers[0];
        let db = topo.db_servers[0];
        sim.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == db && matches!(ev.kind, TraceKind::DbVote { .. })
            }),
            FaultOp::Crash(primary),
        )
        .unwrap();
        let out = sim.run_until(|s| {
            s.trace()
                .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Abort, .. }))
                >= 1
        });
        assert_eq!(out, etx_sim::RunOutcome::Predicate);
        assert_eq!(db_commits(&sim), 0, "nothing commits without the outcome record");
    }
}
