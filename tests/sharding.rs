//! The sharded back end, end to end: cross-shard e-Transactions, the
//! single-shard fast path, shard-primary loss mid-commit, intra-shard
//! replica convergence, and the hot-shard chaos scenario.

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::runtime::RuntimeKind;
use etx::base::shard::{ShardMap, ShardSpec};
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::base::value::Outcome;
use etx::harness::{
    check, run_chaos, ChaosOptions, LivenessChecks, MiddleTier, ScenarioBuilder, Schedule, Workload,
};

fn sharded(
    seed: u64,
    shards: u32,
    repl: usize,
    cross_pct: u8,
    requests: u64,
) -> etx::harness::Scenario {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .shards(shards)
        .replication(repl)
        .workload(Workload::ShardedBank { accounts: shards * 8, cross_pct, amount: 10 })
        .requests(requests)
        .build()
}

/// Sums every `acct*` key across all shard primaries' committed state.
fn total_money(s: &mut etx::harness::Scenario) -> i64 {
    (0..s.shard_map.shard_count())
        .map(|g| {
            s.rebuilt_committed(s.shard_primary(g))
                .iter()
                .filter(|(k, _)| k.starts_with("acct"))
                .map(|(_, &v)| v)
                .sum::<i64>()
        })
        .sum()
}

#[test]
fn cross_shard_transfers_commit_atomically_and_conserve_money() {
    let mut s = sharded(11, 4, 1, 100, 6);
    let initial = total_money(&mut s);
    let out = s.run_until_settled(6);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(300));
    assert_eq!(s.deliveries().len(), 6, "every request delivered");
    assert!(s.cross_shard_routes() > 0, "100% transfer mix must produce cross-shard routes");
    // Transfers only move money between accounts: conservation across the
    // whole partitioned keyspace proves the multi-branch commit is atomic
    // (a half-applied transfer would create or destroy money).
    assert_eq!(total_money(&mut s), initial, "cross-shard transfers conserve total balance");
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

#[test]
fn single_shard_transactions_keep_the_fast_path() {
    let mut s = sharded(7, 4, 1, 0, 5);
    let out = s.run_until_settled(5);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(200));
    // Each attempt was voted on by exactly one database — every plan
    // stayed on one shard, the paper's one-database pattern, untouched by
    // sharding.
    let mut voters_per_attempt = std::collections::BTreeMap::new();
    for e in s.trace().events() {
        if let TraceKind::DbVote { rid, .. } = e.kind {
            voters_per_attempt.entry(rid).or_insert_with(Vec::new).push(e.node);
        }
    }
    assert!(!voters_per_attempt.is_empty());
    for (rid, voters) in voters_per_attempt {
        assert_eq!(voters.len(), 1, "{rid} should have exactly one voting branch");
    }
}

#[test]
fn losing_a_shard_primary_mid_commit_still_delivers_exactly_once() {
    // A 100%-cross-shard transfer spans two shards; crash whichever branch
    // primary votes first, right after it votes (the branch is prepared
    // and in-doubt — the worst moment) and recover it later. The replica
    // group's follower keeps the shard's committed history available.
    let mut s = sharded(23, 4, 2, 100, 1);
    for g in 0..4 {
        let p = s.shard_primary(g);
        s.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == p && matches!(ev.kind, TraceKind::DbVote { .. })
            }),
            FaultOp::CrashFor { node: p, down_for: Dur::from_millis(25) },
        )
        .unwrap();
    }
    let run = s.run_until_settled(1);
    assert_eq!(run, etx::sim::RunOutcome::Predicate, "the client must still settle");
    s.quiesce(Dur::from_millis(500));
    let deliveries = s.deliveries();
    assert_eq!(deliveries.len(), 1, "a single outcome, delivered exactly once");
    assert_eq!(deliveries[0].1, Outcome::Commit);
    let report = check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true });
    report.assert_ok();
}

#[test]
fn crashing_the_actual_voting_primary_mid_commit_terminates() {
    // Stronger variant: the crashed node is exactly the one that voted
    // first, whichever shard that is.
    for seed in [1u64, 5, 9, 14] {
        let mut s = sharded(seed, 4, 1, 100, 2);
        // One-shot trigger armed per db primary: the first to vote dies.
        for g in 0..4 {
            let p = s.shard_primary(g);
            s.schedule_fault(
                NemesisWhen::on_trace(move |ev| {
                    ev.node == p && matches!(ev.kind, TraceKind::DbVote { .. })
                }),
                FaultOp::CrashFor { node: p, down_for: Dur::from_millis(30) },
            )
            .unwrap();
        }
        let run = s.run_until_settled(2);
        assert_eq!(run, etx::sim::RunOutcome::Predicate, "seed {seed} failed to settle");
        s.quiesce(Dur::from_millis(500));
        let per_request: std::collections::BTreeMap<_, usize> =
            s.deliveries().iter().fold(Default::default(), |mut m, (rid, _, _, _)| {
                *m.entry(rid.request).or_default() += 1;
                m
            });
        assert_eq!(per_request.len(), 2, "seed {seed}: both requests settled");
        assert!(per_request.values().all(|&n| n == 1), "seed {seed}: exactly-once delivery");
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();
    }
}

#[test]
fn replica_groups_converge_through_async_replication() {
    let mut s = sharded(42, 2, 3, 50, 8);
    // Cycle one follower of shard 0 mid-run: it must catch up via the
    // snapshot pull when it comes back.
    let follower = s.shard_replicas(0)[1];
    s.schedule_fault(NemesisWhen::After(Dur(5_000)), FaultOp::Crash(follower)).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur(60_000)), FaultOp::Recover(follower)).unwrap();
    let run = s.run_until_settled(8);
    assert_eq!(run, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(800));
    for g in 0..2 {
        let primary_state = s.rebuilt_committed(s.shard_primary(g));
        let followers: Vec<_> = s.shard_replicas(g).iter().skip(1).copied().collect();
        for r in followers {
            assert_eq!(
                s.rebuilt_committed(r),
                primary_state,
                "replica {r} of shard {g} diverged from its primary"
            );
        }
    }
    assert!(
        s.trace().count_kind(|k| matches!(k, TraceKind::DbReplicated { .. })) > 0,
        "followers must have applied replicated commits"
    );
}

#[test]
fn sharded_chaos_schedules_hold_the_spec() {
    let opts = ChaosOptions {
        shards: Some(4),
        replication: 2,
        requests: 2,
        max_db_cycles: 3,
        ..ChaosOptions::default()
    };
    for seed in 0..25u64 {
        run_chaos(seed, &opts, RuntimeKind::Sim).assert_ok();
    }
}

#[test]
fn hot_shard_chaos_is_green() {
    let opts = ChaosOptions {
        schedule: Schedule::HotShard,
        shards: Some(4),
        replication: 2,
        requests: 3,
        ..ChaosOptions::default()
    };
    for seed in 0..15u64 {
        run_chaos(seed, &opts, RuntimeKind::Sim).assert_ok();
    }
}

#[test]
fn range_partitioning_routes_by_key_order() {
    // The ShardMap is usable directly for range-partitioned deployments.
    let dbs: Vec<_> = (0..3).map(etx::base::ids::NodeId).collect();
    let map = ShardMap::build(
        ShardSpec::Range { boundaries: vec!["acct3".into(), "acct6".into()] },
        &dbs,
        1,
    );
    assert_eq!(map.shard_of("acct1").0, 0);
    assert_eq!(map.shard_of("acct4").0, 1);
    assert_eq!(map.shard_of("acct9").0, 2);
}
