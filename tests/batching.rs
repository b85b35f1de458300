//! The commit pipeline end to end: batched consensus slots, group WAL
//! appends, batched replica shipping — checked against the full §3
//! specification, including mid-batch crashes.

use etx::base::config::{BatchingConfig, FeatureSet};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::ids::{NodeId, ResultId};
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::{Component, TraceKind};
use etx::base::wal::{StableRecord, LOG_WAL};
use etx::harness::{
    check, run_chaos, run_mid_batch_chaos, ChaosOptions, LivenessChecks, MiddleTier, Scenario,
    ScenarioBuilder, Workload,
};
use etx::sim::RunOutcome;
use std::collections::BTreeMap;

#[test]
fn open_loop_burst_fills_real_batches_and_preserves_the_spec() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 4101)
        .shards(4)
        .clients(2)
        .requests(12)
        .batching(BatchingConfig::new(8, Dur::from_millis(1)))
        .workload(Workload::OpenLoopBurst { accounts: 32, amount: 1 })
        .build();
    let expected = s.requests as usize;
    let out = s.run_until_settled(expected);
    assert_eq!(out, RunOutcome::Predicate, "every burst request must settle");
    s.quiesce(Dur::from_millis(300));
    assert_eq!(s.delivered_commits(), expected);
    assert!(
        s.batched_slots() >= 1,
        "an open-loop burst through an 8-deep pipeline must put >1 request in some slot"
    );
    assert!(s.group_appends() >= 1, "multi-request slots must reach the WAL as group appends");
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

#[test]
fn batch_of_one_reproduces_the_unbatched_protocol_exactly() {
    // A sequential client under a deep pipeline must compute, vote, decide
    // and deliver exactly like the paper's per-request protocol: the
    // idle-flush rule turns every outcome into a batch of one in the same
    // event that queued it. Ownership is where the two part ways, by
    // design: the per-request configuration pays a log-start round per
    // attempt (nothing shares a slot), the deep one pre-claims the client's
    // next request in the slot its current outcome takes anyway.
    let run = |size: usize, window_ms: u64| {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 4102)
            .workload(Workload::BankUpdate { amount: 7 })
            .requests(6)
            .batching(BatchingConfig::new(size, Dur::from_millis(window_ms)))
            .build();
        let out = s.run_until_settled(6);
        assert_eq!(out, RunOutcome::Predicate);
        s.quiesce(Dur::from_millis(200));
        s
    };
    // What each node did on the outcome path, in its own order (the order
    // across nodes follows link jitter, which the two runs draw differently).
    let outcome_path = |s: &Scenario| {
        let mut path: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
        for e in s.trace().events() {
            let step = match &e.kind {
                TraceKind::Computed { rid } => format!("computed {rid}"),
                TraceKind::DbVote { rid, vote } => format!("voted {vote} on {rid}"),
                TraceKind::BatchDecided { len, .. } => format!("batch of {len}"),
                TraceKind::DbDecide { rid, outcome } => format!("decided {outcome} on {rid}"),
                TraceKind::Deliver { rid, outcome, .. } => format!("delivered {outcome} of {rid}"),
                _ => continue,
            };
            path.entry(e.node).or_default().push(step);
        }
        path
    };
    let log_starts = |s: &Scenario| s.spans().count(Component::LogStart);
    let deep = run(64, 2);
    let degenerate = run(1, 0);
    assert_eq!(deep.delivered_commits(), 6);
    assert_eq!(
        outcome_path(&deep),
        outcome_path(&degenerate),
        "identical outcome paths: the single-request path is a batch of one"
    );
    assert_eq!(deep.delivered_results(), degenerate.delivered_results());
    assert_eq!(deep.batched_slots(), 0, "a sequential client never forms real batches");
    assert_eq!(log_starts(&degenerate), 6, "per-request slots: one claim round per attempt");
    assert_eq!(log_starts(&deep), 1, "only the first request finds itself unclaimed");
}

#[test]
fn deep_pipeline_outcommits_per_request_slots_under_load() {
    // The tentpole's point, in miniature: same open-loop workload, same
    // seed — batching must deliver strictly more committed requests per
    // simulated second than per-request slots.
    let throughput = |batch: usize| {
        let window = if batch > 1 { Dur::from_millis(1) } else { Dur::ZERO };
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 4103)
            .shards(4)
            .clients(4)
            .requests(16)
            .batching(BatchingConfig::new(batch, window))
            .workload(Workload::OpenLoopBurst { accounts: 64, amount: 1 })
            .build();
        let expected = s.requests as usize;
        let out = s.run_until_settled(expected);
        assert_eq!(out, RunOutcome::Predicate, "batch={batch} run must settle");
        check(s.trace().events(), &s.topo.clients, LivenessChecks::default()).assert_ok();
        s.delivered_commits() as f64 / s.now().as_millis_f64()
    };
    let per_request = throughput(1);
    let batched = throughput(16);
    assert!(
        batched > per_request,
        "16-deep pipeline ({batched:.4} req/ms) must beat per-request slots \
         ({per_request:.4} req/ms)"
    );
}

#[test]
fn mid_batch_primary_crash_chaos_holds_the_spec() {
    // Crash the default primary the moment it applies its first
    // multi-request batch, and cycle a shard primary on its first group
    // append. A decided batch must stay all-or-nothing per request: every
    // request terminates exactly once with its slot outcome.
    let opts = ChaosOptions {
        apps: 3,
        clients: 2,
        requests: 8,
        shards: Some(2),
        replication: 2,
        ..ChaosOptions::default()
    };
    let mut batched_runs = 0;
    for seed in 0..12 {
        let out = run_mid_batch_chaos(seed, &opts, RuntimeKind::Sim);
        out.assert_ok();
        if out.batched_slots > 0 {
            batched_runs += 1;
        }
    }
    assert!(
        batched_runs >= 6,
        "most chaos runs must actually exercise multi-request batches \
         (got {batched_runs}/12)"
    );
}

#[test]
fn generic_chaos_stays_green_with_batching_enabled() {
    let opts = ChaosOptions {
        clients: 2,
        requests: 3,
        shards: Some(4),
        replication: 2,
        features: FeatureSet {
            batching: BatchingConfig::new(16, Dur::from_millis(1)),
            ..FeatureSet::default()
        },
        ..ChaosOptions::default()
    };
    for seed in 0..10 {
        run_chaos(seed, &opts).assert_ok();
    }
}

#[test]
fn follower_recovering_into_an_empty_batch_window_catches_up_as_a_noop() {
    // Every batched commit settles and ships BEFORE the follower cycles:
    // its WAL restores the replication cursor on recovery, so the catch-up
    // snapshot it pulls carries nothing new (the batch window since its
    // crash is empty). The stale snapshot must be ignored — converged
    // state, zero re-applies — rather than re-adopted wholesale.
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 4104)
        .shards(2)
        .replication(2)
        .clients(2)
        .requests(8)
        .batching(BatchingConfig::new(8, Dur::from_millis(1)))
        .workload(Workload::OpenLoopBurst { accounts: 16, amount: 1 })
        .build();
    let expected = s.requests as usize;
    let out = s.run_until_settled(expected);
    assert_eq!(out, RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(400)); // every batch fully shipped and applied
    let follower = s.shard_replicas(0)[1];
    let settled = s.rebuilt_committed(follower);
    assert_eq!(settled, s.rebuilt_committed(s.shard_primary(0)), "converged before the cycle");
    let back_at = s.now() + Dur(5_000);
    s.schedule_fault(
        NemesisWhen::After(Dur(1_000)),
        FaultOp::CrashFor { node: follower, down_for: Dur(4_000) },
    )
    .unwrap();
    s.quiesce(Dur::from_millis(100)); // recovery + sync round trips
    assert_eq!(
        s.rebuilt_committed(follower),
        settled,
        "an empty-window catch-up must not change the follower's state"
    );
    let reapplied = s
        .trace()
        .events()
        .iter()
        .filter(|e| {
            e.node == follower
                && e.at >= back_at
                && matches!(e.kind, TraceKind::DbReplicated { .. })
        })
        .count();
    assert_eq!(reapplied, 0, "nothing shipped since the crash, so nothing may be re-applied");
}

#[test]
fn catch_up_snapshot_straddling_a_partially_shipped_batch_applies_exactly_once() {
    // Cycle a follower while batched commits are in full flight: the
    // ApplyBatch messages in the air at the crash are lost, the recovery
    // snapshot lands mid-stream, and the shipped tail arriving after it
    // must mesh with the snapshot — every batch item applied exactly once,
    // none skipped, none doubled.
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 4106)
        .shards(2)
        .replication(2)
        .clients(4)
        .requests(8)
        .batching(BatchingConfig::new(8, Dur::from_millis(1)))
        .workload(Workload::OpenLoopBurst { accounts: 32, amount: 1 })
        .build();
    // Crash the follower the instant its primary commits for the first
    // time: the shipment leaving in that same event is lost in flight, so
    // the recovery snapshot is guaranteed to cover writes the follower
    // never saw — whatever the pipeline depth.
    let follower = s.shard_replicas(0)[1];
    let shard0_primary = s.shard_primary(0);
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == shard0_primary
                && matches!(
                    ev.kind,
                    TraceKind::DbDecide { outcome: etx::base::value::Outcome::Commit, .. }
                )
        }),
        FaultOp::CrashFor { node: follower, down_for: Dur::from_millis(4) },
    )
    .unwrap();
    let expected = s.requests as usize;
    let out = s.run_until_settled(expected);
    assert_eq!(out, RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(800));
    for g in 0..2 {
        let primary_state = s.rebuilt_committed(s.shard_primary(g));
        let followers: Vec<_> = s.shard_replicas(g).iter().skip(1).copied().collect();
        for r in followers {
            assert_eq!(s.rebuilt_committed(r), primary_state, "replica {r} of shard {g} diverged");
        }
    }
    // Exactly-once, straight from the follower's durable log: replication
    // seqs must be strictly increasing (a double-apply would repeat one, a
    // skipped item would still break convergence above), and the recovery
    // must actually have adopted a fresh snapshot to jump the gap the
    // crash tore into the apply stream.
    let log = s.sim().storage(follower).read(LOG_WAL);
    let repl: Vec<(u64, ResultId)> = log
        .iter()
        .flat_map(|r| r.leaves())
        .filter_map(|r| match r {
            StableRecord::Replicated { seq, rid, .. } => Some((*seq, *rid)),
            _ => None,
        })
        .collect();
    assert!(
        repl.windows(2).all(|w| w[0].0 < w[1].0),
        "replication seqs in the follower's WAL must be strictly increasing: {repl:?}"
    );
    assert!(
        repl.iter().any(|(_, rid)| *rid == ResultId::repl_snapshot()),
        "the follower must have adopted a catch-up snapshot after its mid-run crash"
    );
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

#[test]
fn chaos_seed_varies_faults_independently_of_the_run_seed() {
    // The chaos/workload RNG split: the same run seed with different chaos
    // seeds yields different fault schedules (and both must still satisfy
    // the spec). Before the split, fault draws and workload choice shared
    // one stream, so fault-budget changes silently changed the workload.
    let base = ChaosOptions { requests: 3, ..ChaosOptions::default() };
    let a =
        run_chaos(77, &ChaosOptions { chaos_seed: Some(1), max_app_crashes: 1, ..base.clone() });
    let b =
        run_chaos(77, &ChaosOptions { chaos_seed: Some(2), max_app_crashes: 1, ..base.clone() });
    a.assert_ok();
    b.assert_ok();
    assert_ne!(a.faults, b.faults, "distinct chaos seeds must produce distinct schedules");
}
