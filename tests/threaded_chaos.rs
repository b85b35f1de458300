//! Real fault injection on the threaded runtime, with the §3 checker as
//! judge.
//!
//! The simulator's chaos suite proves the *protocol* tolerates faults
//! under a deterministic schedule; this suite proves the *implementation*
//! tolerates them on the wall clock: killed nodes whose stable logs
//! survive into recovery, parked nodes whose leases lapse while they
//! wait, links that stop carrying traffic, partitions that heal. Every scenario
//! here pins `RuntimeKind::Threaded` explicitly (except the two-backend
//! watchdog test), injects through the backend-neutral fault plane
//! (`Scenario::schedule_fault` / `FaultOp`), and hands the resulting
//! history to the same §3 checker the simulator answers to.

use etx::base::config::{
    BatchingConfig, CostModel, FdConfig, FeatureSet, ProtocolConfig, ReadLeaseConfig,
    ReadPathConfig,
};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::runtime::RuntimeKind;
use etx::base::time::{Dur, Time};
use etx::base::trace::{TraceEvent, TraceKind};
use etx::harness::{
    check, feature_corners, run_chaos, ChaosOptions, LivenessChecks, MiddleTier, ScenarioBuilder,
    Schedule, Workload,
};
use etx::sim::RunOutcome;
use std::time::{Duration, Instant};

// ---- the acceptance scenario: crash a shard primary mid-group-append --------

/// Kill shard 0's primary database the moment it frames a multi-record
/// group WAL append, and bring it back 20 ms later.
/// The crash must lose the node's volatile state but not its `StableStorage`;
/// recovery replays the half-termination group frame; and the final state
/// of every replica equals the fault-free reference run's. (The burst
/// workload commits every request exactly once, so its final state is
/// schedule-independent — the simulator's fault-free run is a valid
/// reference for the threaded faulted one.)
#[test]
fn group_append_crash_on_threads_recovers_to_the_fault_free_state() {
    let seed = 0xC4A0;
    let build = |kind: RuntimeKind| {
        ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
            .runtime(kind)
            .shards(2)
            .replication(2)
            .clients(4)
            .requests(8)
            .batching(BatchingConfig::new(8, Dur::from_millis(1)))
            .workload(Workload::OpenLoopBurst { accounts: 16, amount: 1 })
            .build()
    };

    let mut reference = build(RuntimeKind::Sim);
    let n = reference.requests as usize;
    assert_eq!(reference.run_until_settled(n), RunOutcome::Predicate);
    reference.quiesce(Dur::from_millis(400));

    let mut s = build(RuntimeKind::Threaded);
    let victim = s.shard_primary(0);
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == victim && matches!(ev.kind, TraceKind::GroupAppend { len } if len >= 2)
        }),
        FaultOp::CrashFor { node: victim, down_for: Dur::from_millis(20) },
    )
    .expect("the threaded backend supports fault injection");

    assert_eq!(
        s.run_until_settled(n),
        RunOutcome::Predicate,
        "every request must settle despite the mid-batch crash"
    );
    s.quiesce(Dur::from_millis(400));
    s.stop();

    // The crash genuinely happened (the trigger is armed once)...
    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Crash)), 1, "no crash fired");
    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Recover)), 1, "no recovery");

    // ...the §3 checker is the judge...
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();

    // ...and the recovered primary (plus every other replica) rebuilds
    // from its surviving WAL to the fault-free committed state.
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

// ---- pause: a parked lease holder must fall out of lease --------------------

/// Park a lease-holding follower (the SIGSTOP story) for many
/// lease terms, triggered by the first lease grant. While parked it
/// cannot serve, and by the time it resumes its lease has long lapsed —
/// the backlog it drains must not include in-lease serves from the stale
/// grant. Reads routed at it meanwhile fall to the retry backstop and the
/// primary. The §3 checker (read-your-writes included) judges the result.
#[test]
fn paused_lease_holder_expires_while_parked_and_stays_safe() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0x1EA5)
        .runtime(RuntimeKind::Threaded)
        .shards(2)
        .replication(2)
        .clients(2)
        .requests(8)
        .read_path(ReadPathConfig::follower_reads())
        .read_leases(ReadLeaseConfig::fast_for_tests())
        .workload(Workload::ReadAfterWrite { accounts: 16, amount: 10 })
        .build();

    let parked = s.shard_replicas(0)[1];
    s.schedule_fault(
        NemesisWhen::on_trace(|ev| matches!(ev.kind, TraceKind::LeaseGrant { .. })),
        FaultOp::PauseFor { node: parked, down_for: Dur::from_millis(25) },
    )
    .expect("the threaded backend supports fault injection");

    let n = s.requests as usize;
    assert_eq!(
        s.run_until_settled(n),
        RunOutcome::Predicate,
        "reads must settle around the parked follower"
    );
    s.quiesce(Dur::from_millis(400));
    s.stop();

    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Pause)), 1, "no pause fired");
    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Resume)), 1, "no resume fired");
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

// ---- partition: the proposer mid-burst, with a backoff ceiling --------------

/// Partition the proposing application server away from its two peers the
/// moment it decides its first slot of two or more outcomes — mid-burst,
/// with the next batch queued behind it. Its next round stalls until the
/// partition heals; the majority side keeps serving; clients that went
/// wide retransmit under the bounded back-off ceiling (base 20 ms doubling
/// to 160 ms) instead of flooding the partition at full cadence.
/// Everything must settle once healed, and §3 must hold across the stall.
///
/// Whether traffic is still crossing the cut when it lands depends on real
/// thread scheduling, so the scenario retries across seeds: every attempt
/// must settle with §3 green (partitioned or not), and at least one
/// attempt must genuinely interrupt traffic at the partitioned links.
#[test]
fn partition_on_the_primarys_first_batched_slot_heals_and_settles() {
    // The fast-test protocol profile, plus a real back-off ceiling (the
    // stock profiles keep base == max, i.e. the paper's flat cadence).
    let pcfg = ProtocolConfig {
        client_rebroadcast_max: Dur::from_millis(160),
        ..ProtocolConfig::fast_for_tests()
    };
    let mut exercised = false;
    for attempt in 0u64..6 {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0xB1BE + attempt)
            .runtime(RuntimeKind::Threaded)
            .protocol(pcfg.clone())
            .shards(2)
            .replication(2)
            .clients(8)
            .requests(4)
            .batching(BatchingConfig::new(2, Dur::from_millis(1)))
            .workload(Workload::OpenLoopBurst { accounts: 16, amount: 1 })
            .build();

        let a1 = s.topo.primary();
        let peers: Vec<_> = s.topo.app_servers.iter().copied().filter(|&a| a != a1).collect();
        s.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == a1 && matches!(ev.kind, TraceKind::BatchDecided { len, .. } if len >= 2)
            }),
            FaultOp::Partition { a: vec![a1], b: peers, heal_after: Dur::from_millis(60) },
        )
        .expect("the threaded backend supports fault injection");

        let n = s.requests as usize;
        assert_eq!(
            s.run_until_settled(n),
            RunOutcome::Predicate,
            "the run must settle after the partition heals"
        );
        s.quiesce(Dur::from_millis(400));
        s.stop();
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();

        if s.stats().dropped_on_link() > 0 {
            exercised = true;
            break;
        }
    }
    assert!(exercised, "no attempt partitioned the proposer with real dropped traffic");
}

// ---- recovery: a restarted application server rejoins failure detection -----

/// The threaded twin of `failover_matrix::a_recovered_app_server_rejoins_
/// failure_detection`, at `commit_thr4`'s deployment-scale detector: server
/// *a* is down 20–50 ms, *b* crashes for good at 200 ms. The recovered *a*
/// must run its detector again — suspect *b*, and beat so that nobody
/// suspects *a* once it is back. The run waits for that suspicion, not for
/// a fixed time: on a loaded machine the detector's 200 ms can stretch.
#[test]
fn a_recovered_app_server_rejoins_failure_detection_on_threads() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0x2EC0)
        .runtime(RuntimeKind::Threaded)
        .fd(FdConfig {
            heartbeat_every: Dur::from_millis(20),
            initial_timeout: Dur::from_millis(200),
            timeout_increment: Dur::from_millis(50),
            max_timeout: Dur::from_millis(2_000),
        })
        .clients(2)
        .requests(40)
        .build();
    let (a, b) = (s.topo.app_servers[0], s.topo.app_servers[1]);
    let down = FaultOp::CrashFor { node: a, down_for: Dur::from_millis(30) };
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(20)), down).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(200)), FaultOp::Crash(b)).unwrap();
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), RunOutcome::Predicate);
    // Suspicions of `peer` traced after `a` came back, once it has.
    let suspicions = |events: &[TraceEvent], peer| {
        let back = events.iter().find(|e| e.node == a && e.kind == TraceKind::Recover);
        let back = back.map_or(Time(u64::MAX), |e| e.at);
        events
            .iter()
            .filter(move |e| {
                e.at > back && matches!(e.kind, TraceKind::Suspect { peer: p } if p == peer)
            })
            .map(|e| e.node)
            .collect::<Vec<_>>()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        s.quiesce(Dur::from_millis(50));
        if suspicions(s.trace().events(), b).contains(&a) || Instant::now() > deadline {
            break;
        }
    }
    s.stop();
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();

    let events = s.trace().events();
    assert!(
        suspicions(events, b).contains(&a),
        "the recovered server never suspected the crashed one"
    );
    assert_eq!(suspicions(events, a), [], "the recovered server was suspected");
}

// ---- the watchdog: a wedged run times out on either backend -----------------

/// Pause the entire middle tier before the first message: no application
/// server can ever answer, so the run cannot settle. Both backends must
/// return `RunOutcome::TimeLimit` at the scenario's `wall_limit` — the
/// threaded host on its wall-clock watchdog, the simulator on its
/// virtual-time stop — rather than hanging the test process.
#[test]
fn wedged_runs_return_time_limit_on_both_backends() {
    for kind in [RuntimeKind::Sim, RuntimeKind::Threaded] {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 9)
            .runtime(kind)
            .wall_limit(Dur::from_millis(80))
            .requests(1)
            .build();
        let apps = s.topo.app_servers.clone();
        for app in apps {
            s.fault(FaultOp::Pause(app)).expect("both backends support the fault plane");
        }
        let out = s.run_until_settled(1);
        assert_eq!(
            out,
            RunOutcome::TimeLimit,
            "a wedged {} run must time out, not hang",
            kind.label()
        );
        s.stop();
    }
}

// ---- the ported chaos runners, on real threads ------------------------------

/// The same nemesis schedules the simulator chaos suite runs — hot-shard
/// crash/recovery cycles, the mid-batch primary kill, the speculation-
/// buffer wipe — executed against the threaded host, each judged by the
/// full §3 checker. One schedule, two backends.
#[test]
fn chaos_runners_pass_the_spec_on_real_threads() {
    let opts = ChaosOptions {
        apps: 3,
        clients: 2,
        requests: 4,
        shards: Some(2),
        replication: 2,
        features: FeatureSet {
            batching: BatchingConfig::new(4, Dur::from_millis(1)),
            ..FeatureSet::default()
        },
        ..ChaosOptions::default()
    };
    for (seed, schedule) in
        [(11, Schedule::MidBatch), (12, Schedule::HotShard), (13, Schedule::Speculation)]
    {
        run_chaos(seed, &ChaosOptions { schedule, ..opts.clone() }, RuntimeKind::Threaded)
            .assert_ok();
    }
}

// ---- stop() and convergence at the size the bench cannot check --------------

/// `etx_bench` does `mem::forget` its threaded scenarios, so on threads it
/// never stops a host and never compares replicas. This does both, at four
/// times `commit_thr4`'s shard count: the bench's pipelined feature set and
/// failure-detector timeouts, zero modelled cost, 16 shards × rf 2 under a
/// saturating closed loop, twelve seeds. `stop()` must return promptly
/// however much is still queued, §3 must hold, and every follower must
/// rebuild from its own log to its primary's committed state.
#[test]
fn stop_is_prompt_and_replicas_converge_at_sixteen_shards() {
    let (_, pipelined) = feature_corners()[1];
    for seed in 0u64..12 {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0x16_0000 + seed)
            .runtime(RuntimeKind::Threaded)
            .features(pipelined)
            .cost(CostModel::zeroed())
            .fd(FdConfig {
                heartbeat_every: Dur::from_millis(20),
                initial_timeout: Dur::from_millis(200),
                timeout_increment: Dur::from_millis(50),
                max_timeout: Dur::from_millis(2_000),
            })
            .shards(16)
            .replication(2)
            .clients(16)
            .requests(200)
            .workload(Workload::ShardedBank {
                accounts: 1_024,
                cross_pct: 10,
                amount: 1 + seed as i64,
            })
            .wall_limit(Dur::from_secs(20))
            .build();

        let n = s.requests as usize;
        assert_eq!(s.run_until_settled(n), RunOutcome::Predicate, "seed {seed} did not settle");
        s.quiesce(Dur::from_millis(100));
        let stopping = Instant::now();
        s.stop();
        let took = stopping.elapsed();
        assert!(took < Duration::from_secs(1), "seed {seed}: stop() took {took:?}");

        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();
        for shard in 0..16 {
            let replicas = s.shard_replicas(shard).to_vec();
            let expect = s.rebuilt_committed(replicas[0]);
            for &follower in &replicas[1..] {
                assert_eq!(
                    s.rebuilt_committed(follower),
                    expect,
                    "seed {seed}: follower {follower} of shard {shard} diverged from its primary"
                );
            }
        }
    }
}
