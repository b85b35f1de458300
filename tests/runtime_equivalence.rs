//! Runtime equivalence: the deterministic simulator and the
//! multi-threaded backend host the *same* protocol state machines behind
//! the same `Host` seam, so a workload that terminates must settle on the
//! same committed decisions regardless of which runtime carried the
//! messages. These tests run identical scenarios on both backends and
//! compare what the protocol actually promised: the set of committed
//! requests, the recovered database state, and the §3 safety/liveness
//! properties — not schedules or timings, which legitimately differ.

use std::collections::{BTreeMap, BTreeSet};

use etx::base::ids::ResultId;
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::value::{Decision, Outcome};
use etx::harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};

/// Runs `workload` to completion on the given backend and returns the
/// settled scenario (threads joined, final trace snapshot taken).
fn settle(
    kind: RuntimeKind,
    seed: u64,
    workload: Workload,
    clients: usize,
    requests: u64,
    shards: u32,
) -> Scenario {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .runtime(kind)
        .shards(shards)
        .replication(2)
        .clients(clients)
        .requests(requests)
        .workload(workload)
        .build();
    let n = s.requests as usize;
    let out = s.run_until_settled(n);
    assert_eq!(
        out,
        etx::sim::RunOutcome::Predicate,
        "{} backend must settle all {n} requests",
        kind.label()
    );
    s.quiesce(Dur::from_millis(50));
    s.stop();
    s
}

/// The per-shard committed state as recovered from each shard primary's
/// decision log — the protocol's authoritative answer to "what happened".
fn primary_states(s: &mut Scenario, shards: u32) -> Vec<BTreeMap<String, i64>> {
    (0..shards).map(|g| s.rebuilt_committed(s.shard_primary(g))).collect()
}

fn committed_requests(results: &[(ResultId, Decision)]) -> BTreeSet<etx::base::ids::RequestId> {
    results
        .iter()
        .filter(|(_, d)| d.outcome == Outcome::Commit)
        .map(|(rid, _)| rid.request)
        .collect()
}

// ---- single-client determinism: full decision equality ----------------------

/// With one closed-loop client the execution is serial, so not just the
/// outcomes but the full delivered decisions (result values included) are
/// backend-independent: the threaded runtime must reproduce the
/// simulator's answers bit for bit.
#[test]
fn serial_sharded_bank_delivers_identical_decisions_on_both_backends() {
    let workload = Workload::ShardedBank { accounts: 32, cross_pct: 100, amount: 10 };
    let mut on_sim = settle(RuntimeKind::Sim, 0x5EA7, workload.clone(), 1, 8, 4);
    let mut on_rt = settle(RuntimeKind::Threaded, 0x5EA7, workload, 1, 8, 4);

    let mut sim_results = on_sim.delivered_results();
    let mut rt_results = on_rt.delivered_results();
    sim_results.sort_by_key(|(rid, _)| *rid);
    rt_results.sort_by_key(|(rid, _)| *rid);
    assert_eq!(sim_results.len(), 8);
    assert_eq!(
        sim_results, rt_results,
        "serial runs must deliver byte-identical decisions on both runtimes"
    );

    // The recovered state agrees shard by shard, and money is conserved:
    // a 100% transfer mix only moves it around, so the grand total stays
    // at the seeded 32 accounts × 1 000.
    let sim_state = primary_states(&mut on_sim, 4);
    let rt_state = primary_states(&mut on_rt, 4);
    assert_eq!(sim_state, rt_state, "shard primaries diverged across runtimes");
    let grand: i64 = rt_state.iter().flat_map(|m| m.values()).sum();
    assert_eq!(grand, 32_000, "transfers must conserve the seeded total");

    for s in [&on_sim, &on_rt] {
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();
    }
}

// ---- concurrent clients: same committed set, same final state ---------------

/// Four concurrent clients transferring within fixed conserved pairs.
/// Interleavings (and therefore abort/retry attempts) legitimately differ
/// between a discrete-event schedule and real threads, but exactly-once
/// delivery pins the *committed set*: every request commits exactly once
/// on both backends, and because each request's delta is fixed by the
/// workload plan, the final recovered state is order-independent and must
/// match exactly.
#[test]
fn concurrent_conserved_pairs_commit_the_same_set_on_both_backends() {
    let workload = Workload::ConservedPairs { pairs: 8, read_pct: 0, amount: 7 };
    let mut on_sim = settle(RuntimeKind::Sim, 41, workload.clone(), 4, 12, 4);
    let mut on_rt = settle(RuntimeKind::Threaded, 41, workload, 4, 12, 4);
    let total = on_sim.requests as usize; // 4 clients × 12 requests each

    let sim_results = on_sim.delivered_results();
    let rt_results = on_rt.delivered_results();
    let sim_committed = committed_requests(&sim_results);
    let rt_committed = committed_requests(&rt_results);
    assert_eq!(sim_committed.len(), total, "every request must commit on the simulator");
    assert_eq!(sim_committed, rt_committed, "committed request sets diverged across runtimes");

    let sim_state = primary_states(&mut on_sim, 4);
    let rt_state = primary_states(&mut on_rt, 4);
    assert_eq!(sim_state, rt_state, "recovered shard state diverged across runtimes");
    let grand: i64 = rt_state.iter().flat_map(|m| m.values()).sum();
    assert_eq!(grand, 16_000, "8 conserved pairs of 2 000 apiece");

    for s in [&on_sim, &on_rt] {
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();
    }
}

// ---- the fault plane: one meaning per operation -----------------------------

/// A bounded cut is hold-and-reinject on both backends. One schedule —
/// `BlockLink` on shard 0's replication link from time zero, `Partition`
/// of one application server from its peers shortly after — runs on the
/// simulator and on real threads. On both, traffic is *held* at the cut
/// links (the counter says so: a backend that merely pre-delayed it would
/// read 0) and re-injected at heal, so the run settles, §3 holds with both
/// liveness checks, and every follower rebuilds to its primary's state.
#[test]
fn a_bounded_cut_means_the_same_on_both_backends() {
    use etx::base::fault::{FaultOp, NemesisSchedule};
    for kind in [RuntimeKind::Sim, RuntimeKind::Threaded] {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 33)
            .runtime(kind)
            .shards(2)
            .replication(2)
            .clients(2)
            .requests(4)
            .workload(Workload::HotShard { accounts: 8, hot_pct: 70, amount: 10 })
            .build();
        let (primary, follower) = (s.shard_replicas(0)[0], s.shard_replicas(0)[1]);
        let apps = s.topo.app_servers.clone();
        let heal_after = Dur::from_millis(40);
        let schedule = NemesisSchedule::new()
            .now(FaultOp::BlockLink { from: primary, to: follower, heal_after })
            .at(
                Dur::from_millis(1),
                FaultOp::Partition { a: vec![apps[2]], b: apps[..2].to_vec(), heal_after },
            );
        s.apply_schedule(&schedule).unwrap();

        let n = s.requests as usize;
        let out = s.run_until_settled(n);
        assert_eq!(out, etx::sim::RunOutcome::Predicate, "{}: must settle", kind.label());
        s.quiesce(Dur::from_millis(400));
        s.stop();

        assert!(
            s.stats().dropped_on_link() > 0,
            "{}: a cut link holds what is sent on it, and counts it",
            kind.label()
        );
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();
        for shard in 0..2 {
            let expect = s.rebuilt_committed(s.shard_primary(shard));
            for replica in s.shard_replicas(shard).to_vec() {
                assert_eq!(
                    s.rebuilt_committed(replica),
                    expect,
                    "{}: replica {replica} of shard {shard} did not catch up after the heal",
                    kind.label()
                );
            }
        }
    }
}

// ---- threaded smoke of the read fast lane -----------------------------------

/// The consensus-free read lane on real threads: a read-heavy conserved-
/// pair mix with follower reads enabled. Reads race genuinely concurrent
/// transfers on OS threads, yet the snapshot-validation invariant holds
/// exactly as in the simulator — every delivered pair read observes a
/// conserved sum, never a half-landed transfer.
#[test]
fn threaded_read_path_preserves_snapshot_invariants() {
    let workload = Workload::ConservedPairs { pairs: 8, read_pct: 60, amount: 7 };
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 7)
        .runtime(RuntimeKind::Threaded)
        .shards(2)
        .replication(2)
        .clients(4)
        .requests(16)
        .read_path(etx::base::config::ReadPathConfig::follower_reads())
        .workload(workload.clone())
        .build();
    assert_eq!(s.runtime_kind(), RuntimeKind::Threaded);

    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(50));
    s.stop();

    // The lane must actually be exercised. (A read whose snapshot
    // validation runs out of collects answers abort — `read_fallbacks` —
    // and its retry commits on the locking path; every first attempt of a
    // read is a `fast_path_reads` either way.)
    assert!(s.fast_path_reads() >= 1, "no read took the fast lane");

    let mut reads_checked = 0usize;
    for (rid, decision) in s.delivered_results() {
        let request = workload.request(&s.topo, rid.request.client, rid.request.seq);
        if !request.script.is_read_only() {
            continue;
        }
        reads_checked += 1;
        let result = decision.result.expect("reads carry results");
        let total: i64 =
            result.entries.iter().filter(|(l, _)| l.starts_with("acct")).map(|&(_, v)| v).sum();
        assert_eq!(total, 2_000, "{rid}: fractured cross-shard read on the threaded backend");
    }
    assert!(reads_checked >= 5, "too few pair reads ({reads_checked}) to mean anything");

    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

// ---- the threaded trace cache -----------------------------------------------

/// The threaded scenario caches the host's trace and brings the cache up to
/// date at every run, quiesce and stop boundary by appending only what is
/// new. Across several boundaries the cache must still be the host's trace
/// event for event: nothing lost at a boundary, nothing appended twice.
#[test]
fn the_threaded_trace_cache_appends_each_event_once() {
    use etx::base::trace::TraceKind;
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 5)
        .runtime(RuntimeKind::Threaded)
        .shards(2)
        .replication(2)
        .clients(3)
        .requests(6)
        .workload(Workload::ShardedBank { accounts: 16, cross_pct: 50, amount: 3 })
        .build();
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(20));
    s.quiesce(Dur::from_millis(20));
    s.stop();

    let host = s.threaded().expect("threaded backend").trace_snapshot();
    assert_eq!(s.trace().events(), host.events(), "the cache diverged from the host's trace");
    let mut issued = BTreeMap::new();
    for e in s.trace().events() {
        if let TraceKind::Issue { request } = e.kind {
            *issued.entry(request).or_insert(0) += 1;
        }
    }
    assert_eq!(issued.len(), n, "every request is issued");
    assert!(issued.values().all(|&k| k == 1), "an Issue was cached twice: {issued:?}");
}

// ---- the capability fence ---------------------------------------------------

/// Virtual time, mid-run storage reads, and deterministic replay are
/// simulator internals; a threaded scenario must refuse direct simulator
/// access loudly rather than silently no-op. (Fault injection is *not*
/// behind this fence any more — `Scenario::schedule_fault` spans both
/// backends; see the threaded_chaos suite.)
#[test]
#[should_panic(expected = "threaded backend")]
fn threaded_scenarios_reject_simulator_internals() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 1 }, 1)
        .runtime(RuntimeKind::Threaded)
        .build();
    let _ = s.sim_mut(); // must panic: no virtual time on real threads
}

/// The fault plane is backend-neutral: a threaded scenario accepts a
/// nemesis schedule, and a stopped host refuses with a typed
/// [`CapabilityError`] instead of a panic.
#[test]
fn threaded_scenarios_accept_fault_schedules() {
    use etx::base::fault::{FaultOp, NemesisSchedule};
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 3)
        .runtime(RuntimeKind::Threaded)
        .requests(1)
        .build();
    let app = s.topo.app_servers[2];
    let schedule = NemesisSchedule::new()
        .at(Dur::from_millis(1), FaultOp::PauseFor { node: app, down_for: Dur::from_millis(2) });
    s.apply_schedule(&schedule).expect("threaded backend accepts nemesis schedules");
    assert_eq!(s.run_until_settled(1), etx::sim::RunOutcome::Predicate);
    s.stop();
    let err =
        s.fault(FaultOp::Pause(app)).expect_err("a stopped host cannot inject faults any more");
    let msg = err.to_string();
    assert!(msg.contains("stopped"), "error should say the host is stopped: {msg}");
}
