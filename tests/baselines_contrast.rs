//! Cross-protocol contrast tests: the guarantees table of the paper, made
//! executable. Same workload, same fault, four protocols, four different
//! user experiences.

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::time::{Dur, Time};
use etx::base::trace::TraceKind;
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
