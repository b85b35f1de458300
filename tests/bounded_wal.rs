//! A database's write-ahead log is one checkpoint plus a tail: it is
//! bounded by the database's state, not by its history, and a database
//! that recovers from a checkpointed log rejoins its replica group.
//!
//! A database checkpoints once the records appended since its last
//! checkpoint reach `max(256, entries of its last image)`, where an image
//! holds the committed keys, the in-doubt branches and the decide memo. So
//! the log it keeps holds at most the checkpoint record, fewer than that
//! many tail records, and the records of the append that reached it. A
//! follower decides nothing and keeps no memo, so its bound is a fixed 256
//! records plus one append; a primary's grows only with its memo.

use etx::base::fault::FaultOp;
use etx::base::ids::NodeId;
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::base::wal::{StableRecord, StableStorage, LOG_WAL};
use etx::harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};
use etx::sim::RunOutcome;
use etx::store::Engine;

/// The fewest records a database appends between two checkpoints (the
/// database server's private trigger).
const CHECKPOINT_MIN: usize = 256;

/// Records beyond the checkpoint and the tail that a log may hold at the
/// end: the rest of the append that reached the trigger (a batch of one
/// here), and in-doubt branches of the last image that have settled since.
const SLACK: usize = 8;

/// Two shards of two replicas, eight clients, `requests` transfers each.
fn bank(seed: u64, requests: u64, runtime: RuntimeKind) -> Scenario {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .runtime(runtime)
        .shards(2)
        .replication(2)
        .clients(8)
        .requests(requests)
        .workload(Workload::ShardedBank { accounts: 16, cross_pct: 10, amount: 3 })
        .build()
}

fn storage(s: &Scenario, db: NodeId) -> &StableStorage {
    match s.threaded() {
        Some(host) => host.storage(db),
        None => s.sim().storage(db),
    }
}

/// Every replica of every shard rebuilds its primary's committed state
/// from its WAL, and the history satisfies §3.
fn assert_converged_and_correct(s: &Scenario) {
    for g in 0..2 {
        let primary = s.rebuilt_committed(s.shard_primary(g));
        for &r in &s.shard_replicas(g)[1..] {
            assert_eq!(s.rebuilt_committed(r), primary, "replica {r} of shard {g} diverged");
        }
    }
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

/// What each database's WAL holds at the end of a settled run of
/// `requests` per client: `(node, is follower, records held, records ever
/// appended, entries of the image its log rebuilds)`.
fn wal_sizes(requests: u64) -> Vec<(NodeId, bool, usize, u64, usize)> {
    let mut s = bank(44, requests, RuntimeKind::Sim);
    assert_eq!(s.run_until_settled(s.requests as usize), RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(50));
    assert_converged_and_correct(&s);
    let mut sizes = Vec::new();
    for g in 0..2 {
        for (i, &db) in s.shard_replicas(g).iter().enumerate() {
            let st = storage(&s, db);
            let image = Engine::recover(st.read(LOG_WAL)).image().len();
            sizes.push((db, i > 0, st.len(LOG_WAL), st.appended(LOG_WAL), image));
        }
    }
    sizes
}

#[test]
fn the_wal_a_database_keeps_does_not_grow_with_history() {
    const N: u64 = 40;
    let short = wal_sizes(N);
    let long = wal_sizes(4 * N);
    let appended = |sizes: &[(_, bool, usize, u64, usize)]| sizes.iter().map(|d| d.3).sum::<u64>();
    let ratio = appended(&long) as f64 / appended(&short) as f64;
    assert!((3.5..=4.5).contains(&ratio), "appended records grew {ratio:.2}x, not about 4x");
    for &(db, follower, held, total, image) in &long {
        // A log past its first checkpoint holds far less than was appended.
        assert!(total > 2 * CHECKPOINT_MIN as u64, "db {db} appended only {total} records");
        // The bound: the checkpoint, a tail shorter than the trigger, slack.
        let trigger = CHECKPOINT_MIN.max(image);
        assert!(held <= 1 + trigger + SLACK, "db {db} holds {held} records (image {image})");
        if follower {
            // No memo: the fixed bound.
            assert!(held <= 1 + CHECKPOINT_MIN + SLACK, "follower {db} holds {held} records");
        }
    }
    let largest = |sizes: &[(_, bool, usize, u64, usize)]| {
        sizes.iter().filter(|d| d.1).map(|d| d.2).max().unwrap_or(0)
    };
    assert!(largest(&long) <= 1 + CHECKPOINT_MIN + SLACK, "followers: {long:?}");
    assert!(largest(&short) <= 1 + CHECKPOINT_MIN + SLACK, "followers: {short:?}");
}

/// Crashes shard 0's primary and shard 1's follower once each has
/// checkpointed its WAL at least twice, and checks that both recover from
/// their checkpointed logs, rejoin, and converge with their groups.
fn recover_from_checkpointed_logs(runtime: RuntimeKind) {
    const REQUESTS: u64 = 320;
    let mut s = bank(45, REQUESTS, runtime);
    let primary = s.shard_primary(0);
    let follower = s.shard_replicas(1)[1];
    // Settle most of the run first; by then both have checkpointed twice.
    let before = s.requests as usize * 6 / 10;
    assert_eq!(s.run_until_settled(before), RunOutcome::Predicate);
    let mut appended = [0; 2];
    for (i, db) in [primary, follower].into_iter().enumerate() {
        let st = storage(&s, db);
        assert!(st.checkpoints(LOG_WAL) >= 2, "db {db} checkpointed {}x", st.checkpoints(LOG_WAL));
        assert!(matches!(st.read(LOG_WAL)[0], StableRecord::Checkpoint(_)));
        appended[i] = st.appended(LOG_WAL);
    }
    for node in [primary, follower] {
        s.fault(FaultOp::CrashFor { node, down_for: Dur::from_millis(20) }).unwrap();
    }
    assert_eq!(s.run_until_settled(s.requests as usize), RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(200));
    s.stop();
    let crashes = s.trace().count_kind(|k| matches!(k, TraceKind::Crash));
    let recoveries = s.trace().count_kind(|k| matches!(k, TraceKind::Recover));
    assert_eq!((crashes, recoveries), (2, 2));
    // Both rejoined: each appended again after it came back.
    for (i, db) in [primary, follower].into_iter().enumerate() {
        assert!(storage(&s, db).appended(LOG_WAL) > appended[i], "db {db} never rejoined");
    }
    assert_converged_and_correct(&s);
}

#[test]
fn a_primary_and_a_follower_recover_from_checkpointed_logs_on_the_simulator() {
    recover_from_checkpointed_logs(RuntimeKind::Sim);
}

#[test]
fn a_primary_and_a_follower_recover_from_checkpointed_logs_on_threads() {
    recover_from_checkpointed_logs(RuntimeKind::Threaded);
}
