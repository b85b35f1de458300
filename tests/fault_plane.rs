//! The backend-neutral fault plane against the simulator: every fault a
//! test injects goes through `Scenario::schedule_fault` / `FaultOp`, the
//! one nemesis language both runtimes speak. What a schedule must never
//! change is the outcome — the §3 properties and the committed state —
//! and that is what is checked here; that a schedule *replays* per seed is
//! `tests/determinism.rs`'s job.

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::{TraceEvent, TraceKind};
use etx::harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};
use etx::sim::RunOutcome;

fn sharded(seed: u64) -> Scenario {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .runtime(RuntimeKind::Sim)
        .shards(2)
        .replication(2)
        .clients(2)
        .requests(4)
        .workload(Workload::HotShard { accounts: 8, hot_pct: 70, amount: 10 })
        .build()
}

fn settle(s: &mut Scenario) {
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(400));
}

/// State equivalence under faults (the sim twin of
/// `threaded_chaos::group_append_crash_on_threads_recovers_to_the_fault_free_state`):
/// one schedule with all three trigger kinds — a shard primary crashed at
/// its first vote and back 15 ms later, a follower of the other shard
/// crashed and recovered on the clock, and that follower's replication
/// link blocked across its crash — costs the run time and nothing else.
/// Every request of the workload is a commutative `Add` that commits
/// exactly once, so the committed state is schedule-independent: every
/// replica must rebuild from its WAL to the state of the fault-free run of
/// the same seed.
#[test]
fn faulted_run_rebuilds_to_the_fault_free_state() {
    let seed = 0xFA17;
    let mut reference = sharded(seed);
    settle(&mut reference);

    let mut s = sharded(seed);
    let victim = s.shard_primary(0);
    let lag_primary = s.shard_replicas(1)[0];
    let follower = s.shard_replicas(1)[1];
    let first_vote =
        move |ev: &TraceEvent| ev.node == victim && matches!(ev.kind, TraceKind::DbVote { .. });
    let crash_for = FaultOp::CrashFor { node: victim, down_for: Dur::from_millis(15) };
    s.schedule_fault(NemesisWhen::on_trace(first_vote), crash_for).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(30)), FaultOp::Crash(follower)).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(50)), FaultOp::Recover(follower)).unwrap();
    let heal_after = Dur::from_millis(40);
    s.fault(FaultOp::BlockLink { from: lag_primary, to: follower, heal_after }).unwrap();
    settle(&mut s);

    // Both crash/recovery cycles genuinely happened...
    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Crash)), 2);
    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Recover)), 2);
    // ...the §3 checker is the judge...
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
    // ...and every replica holds the fault-free committed state.
    for shard in 0..2 {
        let expect = reference.rebuilt_committed(reference.shard_primary(shard));
        for replica in s.shard_replicas(shard).to_vec() {
            assert_eq!(
                s.rebuilt_committed(replica),
                expect,
                "replica {replica} of shard {shard} diverged from the fault-free run"
            );
        }
    }
}

/// Pause/resume on the simulator: a paused node receives nothing and
/// processes nothing while paused; on resume it drains its backlog and
/// the run settles with §3 intact. (The threaded twin of this scenario
/// lives in threaded_chaos.rs — same ops, real parked threads.)
#[test]
fn sim_pause_stalls_a_replica_and_resume_drains_it() {
    let mut s = sharded(21);
    let parked = s.shard_replicas(0)[1];
    s.schedule_fault(
        NemesisWhen::After(Dur::from_millis(2)),
        FaultOp::PauseFor { node: parked, down_for: Dur::from_millis(30) },
    )
    .unwrap();
    settle(&mut s);

    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Pause)), 1);
    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Resume)), 1);
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

/// Link faults on the simulator: a dropping link parts ways with the
/// reliable-channel model, so the kernel *holds* the traffic and
/// re-injects it at heal — reliable channels mean loss manifests as
/// delay, never absence. The counter still records what was stopped.
#[test]
fn sim_dropping_link_holds_traffic_until_healed() {
    let mut s = sharded(33);
    let from = s.shard_replicas(0)[0];
    let to = s.shard_replicas(0)[1];
    s.fault(FaultOp::CutLink { from, to }).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(40)), FaultOp::HealLink { from, to })
        .unwrap();
    settle(&mut s);

    assert!(
        s.stats().dropped_on_link() > 0,
        "the replication stream must actually have been interrupted"
    );
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}
