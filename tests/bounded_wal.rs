//! What a database keeps does not grow with history: its write-ahead log is
//! one checkpoint plus a tail, its decide memo holds only what its clients'
//! watermarks have not settled, and a database that recovers from a
//! checkpointed log rejoins its replica group and keeps refusing what it
//! drained. An application server's register bank likewise holds only
//! the decision log's unsettled tail, and one that recovers after its
//! peers compacted a prefix catches up on their watermark table.
//!
//! A database checkpoints once the records appended since its last
//! checkpoint reach `max(256, entries of its last image)`, where an image
//! holds the committed keys, the in-doubt branches and the decide memo. So
//! the log it keeps holds at most the checkpoint record, fewer than that
//! many tail records, and the records of the append that reached it. A
//! follower decides nothing and keeps no memo. A primary's memo holds, per
//! client, only the attempts at or above the watermark its last `Exec`
//! carried, so its image stays under 256 entries too: every replica's log
//! holds at most a fixed 256 records plus one append.

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::ids::{NodeId, ResultId};
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::{Component, TraceKind};
use etx::base::value::Vote;
use etx::base::wal::{StableRecord, StableStorage, LOG_WAL};
use etx::harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};
use etx::protocol::{AppServer, DbServer};
use etx::sim::RunOutcome;
use etx::store::Engine;
use std::collections::BTreeSet;

/// The fewest records a database appends between two checkpoints (the
/// database server's private trigger).
const CHECKPOINT_MIN: usize = 256;

/// Records beyond the checkpoint and the tail that a log may hold at the
/// end: the rest of the append that reached the trigger (a batch of one
/// here), and in-doubt branches of the last image that have settled since.
const SLACK: usize = 8;

/// Accounts of the bank the tests run (the most keys a shard holds).
const ACCOUNTS: u32 = 16;

/// The decided attempts a database may remember per client: those of the
/// one request a sequential client has in flight, at or above the
/// watermark its last `Exec` carried, retries included.
const CLIENT_WINDOW: usize = 4;

/// Two shards of two replicas, `clients` clients, `requests` transfers each.
fn bank(seed: u64, clients: usize, requests: u64, runtime: RuntimeKind) -> Scenario {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .runtime(runtime)
        .shards(2)
        .replication(2)
        .clients(clients)
        .requests(requests)
        .workload(Workload::ShardedBank { accounts: ACCOUNTS, cross_pct: 10, amount: 3 })
        .build()
}

fn storage(s: &Scenario, db: NodeId) -> &StableStorage {
    match s.threaded() {
        Some(host) => host.storage(db),
        None => s.sim().storage(db),
    }
}

/// Each application server's register bank at the end of a run: the
/// decided values it holds and the log slots it applied.
fn banks(s: &Scenario) -> Vec<(usize, u64)> {
    let bank = |node| {
        let process = match s.threaded() {
            Some(host) => host.process_ref(node),
            None => s.sim().process_ref(node),
        };
        let any = process.and_then(|p| p.as_any()).expect("a live application server");
        let app = any.downcast_ref::<AppServer>().expect("an application server");
        (app.held_slots(), app.log_applied_up_to())
    };
    s.topo.app_servers.iter().map(|&node| bank(node)).collect()
}

/// The live database server process at `db`.
fn db_server(s: &Scenario, db: NodeId) -> &DbServer {
    let process = match s.threaded() {
        Some(host) => host.process_ref(db),
        None => s.sim().process_ref(db),
    };
    let any = process.and_then(|p| p.as_any()).expect("a live database server");
    any.downcast_ref::<DbServer>().expect("a database server")
}

/// Every replica of every shard rebuilds its primary's committed state
/// from its WAL, holds no lock, and the history satisfies §3.
fn assert_converged_and_correct(s: &Scenario, shards: u32) {
    for g in 0..shards {
        let primary = s.rebuilt_committed(s.shard_primary(g));
        for &r in &s.shard_replicas(g)[1..] {
            assert_eq!(s.rebuilt_committed(r), primary, "replica {r} of shard {g} diverged");
        }
        for &r in s.shard_replicas(g) {
            assert_eq!(db_server(s, r).locked_keys(), 0, "db {r} holds locks at quiesce");
        }
    }
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

/// What one database keeps at the end of a settled run.
#[derive(Debug)]
struct Kept {
    db: NodeId,
    follower: bool,
    /// Records its WAL holds.
    held: usize,
    /// Records ever appended to its WAL.
    appended: u64,
    /// Entries of the image its last checkpoint holds (0 before the
    /// first).
    image: usize,
    /// Outcomes its live decide memo holds.
    memo: usize,
}

/// What each database keeps at the end of a settled run of `requests` per
/// client, on `runtime`, and each application server's register bank.
fn kept(clients: usize, requests: u64, runtime: RuntimeKind) -> (Vec<Kept>, Vec<(usize, u64)>) {
    let mut s = bank(44, clients, requests, runtime);
    assert_eq!(s.run_until_settled(s.requests as usize), RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(50));
    s.stop();
    assert_converged_and_correct(&s, 2);
    let banks = banks(&s);
    let mut kept = Vec::new();
    for g in 0..2 {
        for (i, &db) in s.shard_replicas(g).iter().enumerate() {
            let st = storage(&s, db);
            kept.push(Kept {
                db,
                follower: i > 0,
                held: st.len(LOG_WAL),
                appended: st.appended(LOG_WAL),
                image: match st.read(LOG_WAL).first() {
                    Some(StableRecord::Checkpoint(image)) => image.len(),
                    _ => 0,
                },
                memo: db_server(&s, db).memo_len(),
            });
        }
    }
    (kept, banks)
}

/// Every primary's memo and image, and every database's log, stay under
/// the fixed bounds. (A follower decides only what a cleaner pushes to every
/// replica, and receives no `Exec` to drain it by.)
fn assert_bounded(kept: &[Kept], clients: usize) {
    for k in kept {
        assert!(
            k.held <= 1 + CHECKPOINT_MIN + SLACK,
            "db {} holds {} records: {k:?}",
            k.db,
            k.held
        );
        if !k.follower {
            assert!(k.memo <= clients * CLIENT_WINDOW, "db {} remembers {} outcomes", k.db, k.memo);
            let image_bound = ACCOUNTS as usize + clients * CLIENT_WINDOW;
            assert!(k.image <= image_bound, "db {} images {} entries: {k:?}", k.db, k.image);
        }
    }
}

#[test]
fn the_wal_a_database_keeps_does_not_grow_with_history() {
    const N: u64 = 40;
    const CLIENTS: usize = 8;
    let (short, _) = kept(CLIENTS, N, RuntimeKind::Sim);
    let (long, _) = kept(CLIENTS, 4 * N, RuntimeKind::Sim);
    let appended = |kept: &[Kept]| kept.iter().map(|k| k.appended).sum::<u64>();
    let ratio = appended(&long) as f64 / appended(&short) as f64;
    assert!((3.5..=4.5).contains(&ratio), "appended records grew {ratio:.2}x, not about 4x");
    for (s, l) in short.iter().zip(&long) {
        // A log past its first checkpoint holds far less than was appended.
        assert!(l.appended > 2 * CHECKPOINT_MIN as u64, "db {} appended only {}", l.db, l.appended);
        if !l.follower {
            // The memo follows the watermarks, not the history: what a
            // primary images does not grow with four times the requests.
            assert!(
                l.image <= s.image + CLIENTS,
                "db {}: image {} at N, {} at 4N",
                l.db,
                s.image,
                l.image
            );
        }
    }
    assert_bounded(&short, CLIENTS);
    assert_bounded(&long, CLIENTS);
}

/// A long run on each host: every primary's memo, image and log stay under
/// the fixed bounds after 2 000 requests per client, and every application
/// server's register bank holds only the log's unsettled tail. A client's
/// last request stays unsettled (no later request carries its watermark),
/// so the compacted prefix stops at the slot of the first client to stop:
/// the bank keeps the slots decided after it — 1 014 of 43 998 on the
/// simulator — and under a twentieth of the log on either host.
/// (`--ignored`: CI's determinism job runs it once, in release.)
#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn the_memo_image_and_log_stay_bounded_over_a_long_run_on_both_hosts() {
    const CLIENTS: usize = 8;
    for runtime in [RuntimeKind::Sim, RuntimeKind::Threaded] {
        let (kept, banks) = kept(CLIENTS, 2_000, runtime);
        assert_bounded(&kept, CLIENTS);
        for (held, applied) in banks {
            assert!(held as u64 * 20 <= applied, "{runtime:?}: {held} of {applied} slots held");
        }
    }
}

/// Crashes shard 0's primary and shard 1's follower once each has
/// checkpointed its WAL at least twice, and checks that both recover from
/// their checkpointed logs, rejoin, and converge with their groups.
fn recover_from_checkpointed_logs(runtime: RuntimeKind) {
    const REQUESTS: u64 = 320;
    let mut s = bank(45, 8, REQUESTS, runtime);
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
    assert_converged_and_correct(&s, 2);
}

#[test]
fn a_primary_and_a_follower_recover_from_checkpointed_logs_on_the_simulator() {
    recover_from_checkpointed_logs(RuntimeKind::Sim);
}

#[test]
fn a_primary_and_a_follower_recover_from_checkpointed_logs_on_threads() {
    recover_from_checkpointed_logs(RuntimeKind::Threaded);
}

/// Crashes a backup application server once every server has compacted a
/// prefix of the decision log, and checks that it recovers, catches up on
/// the slots its peers compacted as their watermark table, and that §3
/// holds and the database replicas converge.
fn recover_an_app_server_over_a_compacted_prefix(runtime: RuntimeKind) {
    let mut s = bank(47, 4, 120, runtime);
    let backup = s.topo.app_servers[1];
    assert_ne!(backup, s.primary());
    assert_eq!(s.run_until_settled(s.requests as usize / 2), RunOutcome::Predicate);
    for (held, applied) in banks(&s) {
        assert!((held as u64) < applied / 2, "{held} of {applied} slots held: nothing compacted");
    }
    s.fault(FaultOp::CrashFor { node: backup, down_for: Dur::from_millis(20) }).unwrap();
    assert_eq!(s.run_until_settled(s.requests as usize), RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(200));
    s.stop();
    let recoveries = s.trace().count_kind(|k| matches!(k, TraceKind::Recover));
    assert_eq!(recoveries, 1);
    let process = match s.threaded() {
        Some(host) => host.process_ref(backup),
        None => s.sim().process_ref(backup),
    };
    let app = process.and_then(|p| p.as_any()).and_then(|any| any.downcast_ref::<AppServer>());
    let placeholders = app.expect("the backup recovered").placeholders_applied();
    assert!(placeholders > 0, "the recovered server pulled no compacted slot");
    assert_converged_and_correct(&s, 2);
}

#[test]
fn an_app_server_recovers_over_a_compacted_prefix_on_the_simulator() {
    recover_an_app_server_over_a_compacted_prefix(RuntimeKind::Sim);
}

#[test]
fn an_app_server_recovers_over_a_compacted_prefix_on_threads() {
    recover_an_app_server_over_a_compacted_prefix(RuntimeKind::Threaded);
}

/// A held link delivers a late `Prepare` and late `Exec`s to a database
/// primary after everything they belong to has settled, its memo has
/// drained them, and the database has crashed and recovered from a
/// checkpoint holding its floors.
///
/// The link from the primary application server `a1` to the shard
/// primary `d` is cut as `d` executes its first branch, so what `a1`
/// sends `d` next is held: that branch's `Prepare` and the `Exec`s of the
/// attempts it claims after. `a1` then crashes; the cleaners abort its
/// attempts, the clients retry them elsewhere and go on. Once `d`'s log
/// holds floors above every held attempt, `d` crashes and recovers, and
/// the link heals. The late `Prepare` must vote no, each late `Exec` must
/// open no branch and take no lock, §3 must hold, no database may hold a
/// lock at quiesce, and the replicas must converge.
#[test]
fn late_messages_below_the_floor_change_nothing_after_a_recovery() {
    const CLIENTS: usize = 4;
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 46)
        .shards(1)
        .replication(2)
        .clients(CLIENTS)
        .requests(100)
        .workload(Workload::ShardedBank { accounts: ACCOUNTS, cross_pct: 0, amount: 3 })
        .build();
    let (a1, d) = (s.primary(), s.shard_primary(0));
    let first_sql = NemesisWhen::on_trace(move |ev| {
        ev.node == d && matches!(ev.kind, TraceKind::Span { comp: Component::Sql, .. })
    });
    s.schedule_fault(first_sql, FaultOp::CutLink { from: a1, to: d }).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(5)), FaultOp::Crash(a1)).unwrap();
    assert_eq!(s.run_until_settled(s.requests as usize / 2), RunOutcome::Predicate);

    // What the cut holds: `a1`'s attempts the cleaners took over.
    let held = s.stats().dropped_on_link();
    let taken: BTreeSet<ResultId> = (s.trace().events().iter())
        .filter_map(|e| match e.kind {
            TraceKind::CleanerTakeover { rid, owner } if owner == a1 => Some(rid),
            _ => None,
        })
        .collect();
    let computed = |rid: ResultId| {
        (s.trace().events().iter())
            .any(|e| e.node == a1 && matches!(e.kind, TraceKind::Computed { rid: r } if r == rid))
    };
    let prepared: Vec<ResultId> = taken.iter().copied().filter(|&r| computed(r)).collect();
    let executing: Vec<ResultId> = taken.iter().copied().filter(|&r| !computed(r)).collect();
    assert!(!prepared.is_empty() && !executing.is_empty(), "held: {prepared:?} {executing:?}");
    assert!(held as usize >= taken.len(), "{held} held for {taken:?}");
    // `d`'s log already holds floors above every held attempt.
    let log = Engine::recover(storage(&s, d).read(LOG_WAL));
    for rid in &taken {
        assert!(log.floor(rid.request.client) > rid.request.seq, "{rid} is not below a floor");
    }
    s.fault(FaultOp::CrashFor { node: d, down_for: Dur::from_millis(20) }).unwrap();
    s.quiesce(Dur::from_millis(40));
    s.fault(FaultOp::HealLink { from: a1, to: d }).unwrap();
    s.quiesce(Dur::from_millis(5));
    let after_heal = s.trace().len();
    s.fault(FaultOp::Recover(a1)).unwrap();
    assert_eq!(s.run_until_settled(s.requests as usize), RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(50));

    // The late `Prepare`s were answered no, after `d` recovered.
    let recovered = (s.trace().events().iter())
        .rposition(|e| e.node == d && matches!(e.kind, TraceKind::Recover))
        .expect("d recovered");
    for &rid in &prepared {
        let late = s.trace().events()[recovered..after_heal].iter().find(|e| {
            e.node == d && matches!(e.kind, TraceKind::DbVote { rid: r, .. } if r == rid)
        });
        let vote = late.map(|e| e.kind.clone());
        assert_eq!(vote, Some(TraceKind::DbVote { rid, vote: Vote::No }), "late prepare of {rid}");
    }
    // The late `Exec`s opened nothing: no lock anywhere, no branch here.
    for &rid in &executing {
        assert!(!db_server(&s, d).is_prepared(rid));
    }
    assert_converged_and_correct(&s, 1);
}
