//! Cross-protocol contrast tests: the guarantees table of the paper, made
//! executable. Same workload, same fault, four protocols, four different
//! user experiences.

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::time::{Dur, Time};
use etx::base::trace::{Component, TraceKind};
use etx::base::value::Outcome;
use etx::baselines::RetryPolicy;
use etx::harness::{check, LivenessChecks, MiddleTier, ScenarioBuilder, Workload};

fn commits(s: &etx::harness::Scenario) -> usize {
    s.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }))
}

/// Crash the (sole/primary) application server right after the database
/// votes, in every protocol.
fn crash_after_vote(tier: MiddleTier, seed: u64) -> etx::harness::Scenario {
    let mut s = ScenarioBuilder::fast(tier, seed)
        .workload(Workload::BankUpdate { amount: 50 })
        .requests(1)
        .build();
    let victim = s.topo.app_servers[0];
    let db = s.topo.db_servers[0];
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == db && matches!(ev.kind, TraceKind::DbVote { .. })
        }),
        FaultOp::Crash(victim),
    )
    .unwrap();
    s
}

#[test]
fn same_fault_four_protocols_four_outcomes() {
    // e-Transactions: delivers, exactly once.
    let mut etx_run = crash_after_vote(MiddleTier::Etx { apps: 3 }, 1);
    let out = etx_run.run_until_settled(1);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    etx_run.quiesce(Dur::from_millis(300));
    assert_eq!(etx_run.delivered_commits(), 1, "e-Transactions deliver through the crash");
    assert_eq!(commits(&etx_run), 1);

    // Primary-backup: database unblocked by the backup (needs perfect FD).
    let mut pb = crash_after_vote(MiddleTier::Pb, 2);
    pb.sim_mut()
        .run_until(|s| s.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { .. })) >= 1);
    assert!(
        pb.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { .. })) >= 1,
        "the backup resolves the branch"
    );

    // 2PC: the database is BLOCKED until the coordinator returns.
    let mut tpc = crash_after_vote(MiddleTier::Tpc, 3);
    tpc.sim_mut().run_until_time(Time(1_500_000));
    assert_eq!(
        tpc.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { .. })),
        0,
        "2PC leaves the branch in-doubt while the coordinator is down"
    );

    // Baseline: nothing; the user gets an exception.
    let mut base = crash_after_vote(MiddleTier::Baseline, 4);
    // (The baseline never reaches a vote — it one-phase-commits — so crash
    // at vote never fires; crash immediately instead for the contrast.)
    let server = base.topo.app_servers[0];
    base.schedule_fault(NemesisWhen::After(Dur(1_000)), FaultOp::Crash(server)).unwrap();
    base.sim_mut().run_until_time(Time(1_000_000));
    assert_eq!(
        base.trace().count_kind(|k| matches!(k, TraceKind::Exception { .. })),
        1,
        "baseline surfaces the ambiguity to the user"
    );
}

#[test]
fn tpc_coordinator_crash_blocks_where_etx_delivers() {
    // The paper's blocking argument, end to end: kill the coordinator after
    // the database votes and give both stacks a long horizon. The
    // e-Transaction replicas take over and deliver; 2PC leaves the branch
    // in-doubt for the entire horizon and the user only ever sees a
    // timeout exception.
    let mut etx_run = crash_after_vote(MiddleTier::Etx { apps: 3 }, 21);
    let out = etx_run.run_until_settled(1);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    etx_run.quiesce(Dur::from_millis(300));
    assert_eq!(etx_run.delivered_commits(), 1, "etx delivers through the coordinator crash");

    let mut tpc = crash_after_vote(MiddleTier::Tpc, 21);
    tpc.sim_mut().run_until_time(Time(5_000_000));
    assert_eq!(tpc.delivered_commits(), 0, "2PC delivers nothing while blocked");
    assert_eq!(
        tpc.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { .. })),
        0,
        "2PC's voted branch must stay in-doubt as long as the coordinator is down"
    );
    assert!(
        tpc.trace().count_kind(|k| matches!(k, TraceKind::Exception { .. })) >= 1,
        "the 2PC user times out instead of receiving a result"
    );
}

#[test]
fn property_checker_flags_naive_retry_duplicate_commit() {
    // The unreliable baseline's signature failure: crash the coordinator
    // right after the database commits, let the client naively resend, and
    // the same request commits twice. The §3 property checker must call
    // that out as an A.2 (at-most-once) violation.
    let mut tpc = ScenarioBuilder::fast(MiddleTier::Tpc, 31)
        .workload(Workload::BankUpdate { amount: 100 })
        .client_retry(RetryPolicy::NaiveResend { max_retries: 4 })
        .requests(1)
        .build();
    let coord = tpc.topo.app_servers[0];
    let db = tpc.topo.db_servers[0];
    tpc.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == db && matches!(ev.kind, TraceKind::DbDecide { outcome: Outcome::Commit, .. })
        }),
        FaultOp::CrashFor { node: coord, down_for: Dur::from_millis(200) },
    )
    .unwrap();
    tpc.sim_mut().run_until(|s| {
        s.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }))
            >= 2
    });
    tpc.quiesce(Dur::from_millis(100));
    assert!(commits(&tpc) >= 2, "the fault schedule must actually produce a double charge");

    let report = check(tpc.trace().events(), &tpc.topo.clients, LivenessChecks::default());
    assert!(!report.ok(), "the checker must reject the duplicated execution");
    assert!(
        report.violations.iter().any(|v| v.contains("A.2")),
        "the duplicate commit must be flagged as an A.2 violation, got: {:?}",
        report.violations
    );

    // Control: the e-Transaction stack under the same fault passes clean.
    let mut etx_run = crash_after_vote(MiddleTier::Etx { apps: 3 }, 31);
    etx_run.run_until_settled(1);
    etx_run.quiesce(Dur::from_millis(300));
    check(etx_run.trace().events(), &etx_run.topo.clients, LivenessChecks::default()).assert_ok();
}

#[test]
fn etx_client_never_sees_exceptions() {
    // Under a harsh schedule the e-Transaction client still never raises:
    // that is the liveness dimension the abstraction adds (§1).
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 9)
        .workload(Workload::BankUpdate { amount: 1 })
        .requests(3)
        .build();
    let a1 = s.topo.primary();
    s.schedule_fault(NemesisWhen::After(Dur(5_000)), FaultOp::Crash(a1)).unwrap();
    let db = s.topo.db_servers[0];
    s.schedule_fault(NemesisWhen::After(Dur(15_000)), FaultOp::Crash(db)).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur(45_000)), FaultOp::Recover(db)).unwrap();
    let out = s.run_until_settled(3);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    assert_eq!(
        s.trace().count_kind(|k| matches!(k, TraceKind::Exception { .. })),
        0,
        "no exception ever reaches the e-Transaction user"
    );
    assert_eq!(s.delivered_commits(), 3);
}

#[test]
fn pb_and_etx_have_equal_failure_free_message_depth() {
    // The paper's analytic claim, cross-checked outside figure7: PB and AR
    // impose the same client-visible step count in nice runs.
    let run = |tier| {
        let mut s = ScenarioBuilder::fast(tier, 5).requests(1).build();
        s.run_until_settled(1);
        s.deliveries()[0].2
    };
    assert_eq!(run(MiddleTier::Etx { apps: 3 }), run(MiddleTier::Pb));
}

/// One `BankUpdate` against a database that goes down for 5 ms the first
/// time `node` traces a span of `comp` — and comes back with `[Ready]`.
fn db_down_at_first_span(tier: MiddleTier, comp: Component, at_db: bool) -> etx::harness::Scenario {
    let mut s = ScenarioBuilder::fast(tier, 17)
        .workload(Workload::BankUpdate { amount: 50 })
        .requests(1)
        .build();
    let db = s.topo.db_servers[0];
    let node = if at_db { db } else { s.topo.app_servers[0] };
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == node && matches!(ev.kind, TraceKind::Span { comp: c, .. } if c == comp)
        }),
        FaultOp::CrashFor { node: db, down_for: Dur::from_millis(5) },
    )
    .unwrap();
    s.sim_mut().run_until_time(Time(3_000_000));
    s
}

#[test]
fn a_database_that_recovers_mid_attempt_ends_the_attempt_in_every_tier() {
    // Figure 4 reads a database's `[Ready]` the same way whoever runs it.
    // Down from its first SQL span: the branch it executed is gone, the
    // `Prepare` finds nobody, and `Ready` counts as the vote — no. Down
    // from the server's dispatch: the `Exec` itself dies with it, and
    // `Ready` ends `compute()`. Either way the attempt aborts instead of
    // waiting for a reply that cannot come.
    for (comp, at_db) in [(Component::Sql, true), (Component::Start, false)] {
        for tier in [MiddleTier::Etx { apps: 3 }, MiddleTier::Pb] {
            // The e-Transaction client retries the aborted attempt.
            let s = db_down_at_first_span(tier, comp, at_db);
            assert_eq!(s.delivered_commits(), 1, "{}, down at {comp:?}", tier.label());
            assert_eq!(commits(&s), 1, "{}, down at {comp:?}", tier.label());
            let all = LivenessChecks { t1: true, t2: true };
            let report = check(s.trace().events(), &s.topo.clients, all);
            assert!(report.ok(), "{}, down at {comp:?}: {:?}", tier.label(), report.violations);
        }
        // 2PC's client does not retry: what the protocol owes is a decision
        // wherever a branch voted (T.2), and one exception for the user.
        let tpc = db_down_at_first_span(MiddleTier::Tpc, comp, at_db);
        let decided = LivenessChecks { t1: false, t2: true };
        let report = check(tpc.trace().events(), &tpc.topo.clients, decided);
        assert!(report.ok(), "2PC, down at {comp:?}: {:?}", report.violations);
        assert_eq!(
            tpc.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { .. })),
            1,
            "2PC, down at {comp:?}: the attempt must reach its decision"
        );
        assert_eq!(
            tpc.trace().count_kind(|k| matches!(k, TraceKind::Exception { .. })),
            1,
            "2PC, down at {comp:?}"
        );
    }
}

#[test]
fn the_section_3_judge_reads_every_tier() {
    // `Computed` is traced where the shared `compute()` returns, so V.1 —
    // and with it the whole §3 checker — applies to the protocols the paper
    // is compared against. A failure-free run satisfies it in all four.
    let tiers =
        [MiddleTier::Etx { apps: 3 }, MiddleTier::Tpc, MiddleTier::Pb, MiddleTier::Baseline];
    for tier in tiers {
        let mut s = ScenarioBuilder::fast(tier, 23)
            .workload(Workload::BankUpdate { amount: 10 })
            .requests(3)
            .build();
        assert_eq!(s.run_until_settled(3), etx::sim::RunOutcome::Predicate, "{}", tier.label());
        s.quiesce(Dur::from_millis(400));
        let report =
            check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true });
        assert!(report.ok(), "{}: {:?}", tier.label(), report.violations);
    }
}
