//! Ownership through the decision log, end to end on the simulated clock.
//!
//! The log is the only write-once arbiter of the middle tier: an attempt's
//! owner is the first claim for it in slot order. Six guarantees:
//!
//! * **the paper's shape is unchanged** — where nothing shares a slot,
//!   every attempt still costs two consensus instances (claim, outcome)
//!   and a log-start round;
//! * **pre-claims take the round off the critical path** — where slots
//!   carry batches, only a client's first request waits for its claim, and
//!   the databases end in the state the paper's shape leaves;
//! * **dangling pre-claims are ordinary orphans** — a primary that dies
//!   over a slot full of them costs its clients one abort each, never a
//!   request;
//! * **a decided attempt is never computed** — a request for an attempt a
//!   cleaner already aborted is answered from the log;
//! * **ownership returns to the primary** — once it is back, requests are
//!   as fast as if it had never left;
//! * **only the server a client tries first pre-claims** — after a commit
//!   that is the default primary, never a backup; after an abort it is
//!   whichever server answered, backups included, since the client
//!   retries there.

use etx::base::config::FeatureSet;
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::ids::{RequestId, ResultId};
use etx::base::time::Dur;
use etx::base::trace::{Component, TraceKind};
use etx::base::value::Outcome;
use etx::harness::{
    check, feature_corners, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload,
};
use etx::sim::RunOutcome;
use std::collections::BTreeMap;

const CONSENSUS_LABELS: [&str; 6] =
    ["CEstimate", "CPropose", "CAck", "CNack", "CDecide", "CDecideReq"];

fn log_starts(s: &Scenario) -> usize {
    s.spans().count(Component::LogStart) as usize
}

fn settle(mut s: Scenario) -> Scenario {
    let expected = s.requests as usize;
    assert_eq!(s.run_until_settled(expected), RunOutcome::Predicate, "every request must settle");
    s.quiesce(Dur::from_millis(400));
    assert_eq!(s.delivered_commits(), expected, "every request delivered exactly once");
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
    s
}

/// The `commit_sim16` workload of the benchmark at a quarter of its
/// shards and clients, under `features`.
fn sharded_bank(seed: u64, features: FeatureSet) -> ScenarioBuilder {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .shards(4)
        .replication(2)
        .clients(16)
        .requests(50)
        .features(features)
        .workload(Workload::ShardedBank { accounts: 256, cross_pct: 10, amount: 3 })
}

fn pipelined() -> FeatureSet {
    feature_corners()[1].1
}

#[test]
fn the_paper_shape_keeps_two_instances_and_a_log_start_round_per_attempt() {
    let s = settle(
        ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 1701)
            .workload(Workload::BankUpdate { amount: 5 })
            .requests(50)
            .build(),
    );
    let attempts = s.trace().count_kind(|k| matches!(k, TraceKind::Computed { .. }));
    assert_eq!(attempts, 50, "a lone sequential client never aborts");
    assert_eq!(log_starts(&s), attempts, "every attempt waits for its own claim slot");
    // The primary coordinates round 0 of both of an attempt's slots and
    // proposes each to its two peers — the message count of regA + regD.
    assert_eq!(s.stats().sent("CPropose"), 2 * 2 * attempts as u64);
    assert_eq!(s.batched_slots(), 0);
}

#[test]
fn pre_claims_leave_one_log_start_round_per_client_and_the_paper_shapes_state() {
    // Consensus messages per commit move with the schedule (1.78–2.10 over
    // seeds 1702–1721), so the bound holds over ten seeds' sum, not one.
    let (mut consensus, mut commits, mut first) = (0u64, 0u64, None);
    for seed in 1702..1712 {
        let fast = settle(sharded_bank(seed, pipelined()).build());
        let clients = fast.topo.clients.len();
        assert!(
            log_starts(&fast) <= clients,
            "seed {seed}: {} log-start rounds for {clients} clients: only a first request may \
             find itself unclaimed",
            log_starts(&fast)
        );
        consensus += CONSENSUS_LABELS.iter().map(|l| fast.stats().sent(l)).sum::<u64>();
        commits += fast.delivered_commits() as u64;
        first.get_or_insert(fast);
    }
    let per_commit = consensus as f64 / commits as f64;
    println!("{consensus} consensus messages for {commits} commits: {per_commit:.3} per commit");
    assert!(
        consensus <= 2 * commits,
        "{consensus} consensus messages for {commits} commits: claims must ride outcome slots"
    );
    let fast = first.expect("ten seeds ran");
    // Same requests under the paper's feature set: every request commits
    // exactly once either way and the bank's operations commute, so both
    // runs must leave every replica of every shard in the same state.
    let paper = settle(sharded_bank(1702, Default::default()).build());
    assert!(log_starts(&paper) >= paper.requests as usize);
    for shard in 0..4 {
        let expect = paper.rebuilt_committed(paper.shard_primary(shard));
        for replica in fast.shard_replicas(shard).to_vec() {
            assert_eq!(fast.rebuilt_committed(replica), expect, "shard {shard} at {replica}");
        }
    }
}

#[test]
fn a_primary_crash_over_a_slot_of_pre_claims_costs_aborts_never_requests() {
    for seed in 0..6u64 {
        let mut s = sharded_bank(1710 + seed, pipelined()).build();
        let a1 = s.primary();
        s.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == a1 && matches!(ev.kind, TraceKind::BatchDecided { len, .. } if len >= 2)
            }),
            FaultOp::CrashFor { node: a1, down_for: Dur::from_millis(40) },
        )
        .expect("the simulator injects faults");
        let s = settle(s);
        let crashed = s.trace().count_kind(|k| matches!(k, TraceKind::Crash));
        assert_eq!(crashed, 1, "seed {seed}: the batch that triggers the crash must form");
        // The crashed primary's pre-claims were cleaned, not computed…
        let takeovers: Vec<ResultId> = s
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::CleanerTakeover { rid, owner } if owner == a1 => Some(rid),
                _ => None,
            })
            .collect();
        assert!(!takeovers.is_empty(), "seed {seed}: survivors must clean the primary's attempts");
        // …and every request still delivered exactly once (`settle`), in
        // at most a handful of attempts.
        let worst = s.deliveries().iter().map(|(rid, ..)| rid.attempt).max().expect("deliveries");
        assert!(worst <= 6, "seed {seed}: a request needed {worst} attempts");
    }
}

#[test]
fn a_request_for_an_attempt_the_log_already_aborted_is_answered_without_computing() {
    // One client, batching on: request 1's outcome slot carries the
    // primary's pre-claim of request 2. The client is parked for 40 ms
    // from the moment that slot applies (its reply and its next request
    // wait), and the primary for 20 ms from the moment it replies: both
    // backups stop hearing it, suspect it, find request 2 owned by a
    // suspect and undecided, and abort it. The primary wakes to that
    // decision in the log. When the client wakes and sends request 2 —
    // to the primary, which has no state for the attempt — the log
    // already holds `(nil, abort)` for it. (Before this was checked on
    // arrival, the owner ran the whole attempt — SQL, prepare, votes —
    // only for `submit_outcome` to find the abort.)
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 1720)
        .features(pipelined())
        .workload(Workload::BankUpdate { amount: 5 })
        .requests(2)
        .build();
    let (client, a1) = (s.topo.clients[0], s.primary());
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::BatchDecided { .. })
        }),
        FaultOp::PauseFor { node: client, down_for: Dur::from_millis(40) },
    )
    .expect("the simulator injects faults");
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::Span { comp: Component::End, .. })
        }),
        FaultOp::PauseFor { node: a1, down_for: Dur::from_millis(20) },
    )
    .expect("the simulator injects faults");
    let s = settle(s);

    let preclaimed = ResultId::first(RequestId { client, seq: 2 });
    let about = |rid: ResultId| {
        s.trace()
            .events()
            .iter()
            .filter(move |e| match e.kind {
                TraceKind::Computed { rid: r } | TraceKind::DbVote { rid: r, .. } => r == rid,
                _ => false,
            })
            .count()
    };
    assert!(
        s.trace().events().iter().any(
            |e| matches!(e.kind, TraceKind::CleanerTakeover { rid, owner } if rid == preclaimed && owner == a1)
        ),
        "a backup's cleaner must have taken the pre-claimed attempt over"
    );
    assert_eq!(
        about(preclaimed),
        0,
        "an attempt the log has decided is never computed or voted on"
    );
    assert!(
        s.trace().events().iter().any(|e| e.kind == TraceKind::ClientRetry { rid: preclaimed }),
        "the client hears the abort and retries"
    );
    let delivered: BTreeMap<RequestId, u32> =
        s.deliveries().iter().map(|(rid, ..)| (rid.request, rid.attempt)).collect();
    assert_eq!(delivered[&preclaimed.request], 2, "the retry is the attempt that commits");
    let commits_of_request_2 = s
        .trace()
        .events()
        .iter()
        .filter(|e| {
            matches!(e.kind, TraceKind::DbDecide { rid, outcome: Outcome::Commit } if rid.request == preclaimed.request)
        })
        .count();
    assert_eq!(commits_of_request_2, 1, "and it commits exactly once");
}

#[test]
fn ownership_returns_to_the_recovered_primary() {
    // While the primary is down every request pays the client's back-off
    // and is owned by whichever backup claims it. Backups never pre-claim
    // (the client would not look for its next attempt there first), so
    // once the primary is back each client's next request lands on it
    // unclaimed, is claimed there, and pre-claims its successors: the tail
    // of the run is as fast as a run that never lost its primary.
    let tail_median_ms = |crash: bool| {
        let mut s = sharded_bank(1730, pipelined()).build();
        if crash {
            let a1 = s.primary();
            s.schedule_fault(
                NemesisWhen::After(Dur::from_millis(40)),
                FaultOp::CrashFor { node: a1, down_for: Dur::from_millis(60) },
            )
            .expect("the simulator injects faults");
        }
        let s = settle(s);
        let latencies = s.request_latencies_ms();
        let mut tail = latencies[latencies.len() - 100..].to_vec();
        tail.sort_by(f64::total_cmp);
        (tail[49] + tail[50]) / 2.0
    };
    let (fault_free, recovered) = (tail_median_ms(false), tail_median_ms(true));
    assert!(
        (recovered - fault_free).abs() <= 0.05 * fault_free,
        "last 100 requests: median {recovered:.3} ms after the outage vs {fault_free:.3} ms without"
    );
}

#[test]
fn only_the_server_a_client_tries_first_pre_claims() {
    // The default primary dead from the start: every request is claimed
    // by a backup after the client's back-off broadcast.
    let run = |workload: Workload, clients: usize| {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 1740)
            .features(pipelined())
            .workload(workload)
            .clients(clients)
            .requests(8)
            .build();
        let a1 = s.primary();
        s.fault(FaultOp::Crash(a1)).expect("the simulator injects faults");
        settle(s)
    };
    // After a commit the client sends its next request to the dead
    // primary first, so a backup that pre-claimed it would own an attempt
    // nobody sends it before the back-off broadcast — nothing gained. It
    // must not, and every attempt pays its own log-start round.
    let faithful = run(Workload::BankUpdate { amount: 5 }, 1);
    assert_eq!(log_starts(&faithful), 8, "no backup pre-claims the request after a commit");
    // After an abort the client retries at the server that answered it,
    // the backup that owned the attempt. That backup pre-claims the retry,
    // so only first attempts pay a log-start round.
    let contended = run(Workload::HotSpot, 3);
    let retries = contended.trace().count_kind(|k| matches!(k, TraceKind::ClientRetry { .. }));
    assert!(retries > 0, "the hot key makes owners vote abort");
    assert_eq!(log_starts(&contended), 3 * 8, "{retries} retries, each pre-claimed by its owner");
}
