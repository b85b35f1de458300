//! Runtime equivalence: the deterministic simulator and the
//! multi-threaded backend host the *same* protocol state machines behind
//! the same `Host` seam, so a workload that terminates must settle on the
//! same committed decisions regardless of which runtime carried the
//! messages. These tests run identical scenarios on both backends and
//! compare what the protocol actually promised: the set of committed
//! requests, the recovered database state, and the §3 safety/liveness
//! properties — not schedules or timings, which legitimately differ.

use std::collections::{BTreeMap, BTreeSet};

use etx::base::config::{FdConfig, ProtocolConfig};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::ids::{NodeId, ResultId};
use etx::base::msg::{FdMsg, Payload};
use etx::base::runtime::{Context, Event, Host, Process, RuntimeKind};
use etx::base::time::Dur;
use etx::base::trace::{Component, Trace, TraceKind};
use etx::base::value::{Decision, Outcome};
use etx::harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};
use etx::rt::{ThreadedConfig, ThreadedHost};
use etx::sim::{Sim, SimConfig};

/// Runs `workload` to completion on the given backend and returns the
/// settled, stopped scenario. `fd` replaces `ScenarioBuilder::fast`'s
/// failure detector when given.
fn settle(
    kind: RuntimeKind,
    seed: u64,
    workload: Workload,
    clients: usize,
    requests: u64,
    shards: u32,
    fd: Option<FdConfig>,
) -> Scenario {
    let mut b = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed);
    if let Some(fd) = fd {
        b = b.fd(fd);
    }
    let mut s = b
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
///
/// Serial holds only while no server is falsely suspected: a suspicion
/// hands a request to the cleaner, and it may then commit as a later
/// attempt — legal, but not bit-equal. `ScenarioBuilder::fast`'s 8 ms detector
/// does suspect on the wall clock now and then, so both legs run the
/// default 80 ms one, and the threaded leg proves its premise.
#[test]
fn serial_sharded_bank_delivers_identical_decisions_on_both_backends() {
    let workload = Workload::ShardedBank { accounts: 32, cross_pct: 100, amount: 10 };
    let fd = Some(FdConfig::default());
    let mut on_sim = settle(RuntimeKind::Sim, 0x5EA7, workload.clone(), 1, 8, 4, fd);
    let mut on_rt = settle(RuntimeKind::Threaded, 0x5EA7, workload, 1, 8, 4, fd);
    let suspects = on_rt.trace().count_kind(|k| matches!(k, TraceKind::Suspect { .. }));
    assert_eq!(
        suspects, 0,
        "the threaded leg falsely suspected a server {suspects} times: the serial premise \
         is broken (a loaded machine starves the 80 ms failure detector)"
    );

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
    let mut on_sim = settle(RuntimeKind::Sim, 41, workload.clone(), 4, 12, 4, None);
    let mut on_rt = settle(RuntimeKind::Threaded, 41, workload, 4, 12, 4, None);
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
        s.fault(FaultOp::BlockLink { from: primary, to: follower, heal_after }).unwrap();
        let partition = FaultOp::Partition { a: vec![apps[2]], b: apps[..2].to_vec(), heal_after };
        s.schedule_fault(NemesisWhen::After(Dur::from_millis(1)), partition).unwrap();

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

/// Does nothing: a node whose only events are its lifecycle's.
struct Idle;
impl Process for Idle {
    fn on_event(&mut self, _ctx: &mut dyn Context, _event: Event) {}
}

/// Pauses an idle node for 20 ms, crashes it at 5 ms and lets 60 ms pass;
/// returns the node.
fn pause_then_crash(host: &mut dyn Host) -> NodeId {
    let n = host.add_node("idle", Box::new(|_| Box::new(Idle)));
    let pause = FaultOp::PauseFor { node: n, down_for: Dur::from_millis(20) };
    host.schedule_fault(NemesisWhen::Now, pause).unwrap();
    host.schedule_fault(NemesisWhen::After(Dur::from_millis(5)), FaultOp::Crash(n)).unwrap();
    host.quiesce_for(Dur::from_millis(60));
    n
}

/// A crash ends a pause, on both backends: the pause's own undo, due
/// 15 ms after the crash, finds a node that is down and records nothing.
#[test]
fn a_crash_ends_a_pause_the_same_way_on_both_backends() {
    let lifecycle = |trace: &Trace, n: NodeId| -> Vec<TraceKind> {
        let of_life = |k: &TraceKind| {
            matches!(
                k,
                TraceKind::Pause | TraceKind::Resume | TraceKind::Crash | TraceKind::Recover
            )
        };
        trace
            .events()
            .iter()
            .filter(|ev| ev.node == n && of_life(&ev.kind))
            .map(|ev| ev.kind.clone())
            .collect()
    };
    let mut sim = Sim::new(SimConfig::with_seed(36));
    let n = pause_then_crash(&mut sim);
    assert_eq!(lifecycle(sim.trace(), n), [TraceKind::Pause, TraceKind::Crash], "sim");
    let mut threads = ThreadedHost::new(ThreadedConfig::with_seed(36));
    let n = pause_then_crash(&mut threads);
    threads.stop();
    assert_eq!(lifecycle(threads.trace(), n), [TraceKind::Pause, TraceKind::Crash], "threaded");
}

/// Notes "x" at Init and sends itself a message; notes "y" when it
/// arrives.
struct NotesThenSelfSends;
impl Process for NotesThenSelfSends {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init => {
                ctx.trace(TraceKind::Note("x"));
                let me = ctx.me();
                ctx.send(me, Payload::Fd(FdMsg::Heartbeat { seq: 0 }));
            }
            Event::Message { .. } => ctx.trace(TraceKind::Note("y")),
            _ => {}
        }
    }
}

/// Arms `OnTrace("x") → Crash` on a [`NotesThenSelfSends`] node, lets
/// 20 ms pass and returns the node's notes and crashes, in trace order.
fn crash_on_x(host: &mut dyn Host) -> Vec<TraceKind> {
    let n = host.add_node("x", Box::new(|_| Box::new(NotesThenSelfSends)));
    let on_x = NemesisWhen::on_trace(|ev| ev.kind == TraceKind::Note("x"));
    host.schedule_fault(on_x, FaultOp::Crash(n)).unwrap();
    host.quiesce_for(Dur::from_millis(20));
    let noted = |k: &TraceKind| matches!(k, TraceKind::Note(_) | TraceKind::Crash);
    host.trace().events().iter().filter(|ev| noted(&ev.kind)).map(|ev| ev.kind.clone()).collect()
}

/// A trace-triggered fault lands right after the handler that recorded
/// the matching event, on both backends: the crash armed on "x" comes
/// before the node handles the message its `Init` sent itself.
#[test]
fn a_trace_triggered_crash_lands_before_the_nodes_next_handler_on_both_backends() {
    let want = [TraceKind::Note("x"), TraceKind::Crash];
    assert_eq!(crash_on_x(&mut Sim::new(SimConfig::with_seed(40))), want, "sim");
    let mut threads = ThreadedHost::new(ThreadedConfig::with_seed(40));
    assert_eq!(crash_on_x(&mut threads), want, "threaded");
}

/// Sends `b` one message 10 ms after `Init`, as a service time
/// (`send_after`); notes "got" when one arrives.
struct SendsLate;
impl Process for SendsLate {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init if ctx.me() == NodeId(0) => {
                let payload = Payload::Fd(FdMsg::Heartbeat { seq: 0 });
                ctx.send_after(Dur::from_millis(10), NodeId(1), payload);
            }
            Event::Message { .. } => ctx.trace(TraceKind::Note("got")),
            _ => {}
        }
    }
}

/// Crashes node 0 of two [`SendsLate`] nodes at 3 ms, lets 40 ms pass and
/// returns each node's crashes and notes, in trace order.
fn crash_the_late_sender(host: &mut dyn Host) -> Vec<(NodeId, TraceKind)> {
    let a = host.add_node("a", Box::new(|_| Box::new(SendsLate)));
    host.add_node("b", Box::new(|_| Box::new(SendsLate)));
    host.schedule_fault(NemesisWhen::After(Dur::from_millis(3)), FaultOp::Crash(a)).unwrap();
    host.quiesce_for(Dur::from_millis(40));
    let kept = |k: &TraceKind| matches!(k, TraceKind::Note(_) | TraceKind::Crash);
    host.trace()
        .events()
        .iter()
        .filter(|ev| kept(&ev.kind))
        .map(|ev| (ev.node, ev.kind.clone()))
        .collect()
}

/// A send in service is queued when it is made, on both backends: the
/// message a node sends with a 10 ms service time arrives although the
/// node crashes 3 ms in.
#[test]
fn an_in_service_send_outlives_its_sender_on_both_backends() {
    let want = [(NodeId(0), TraceKind::Crash), (NodeId(1), TraceKind::Note("got"))];
    assert_eq!(crash_the_late_sender(&mut Sim::new(SimConfig::with_seed(44))), want, "sim");
    let mut threads = ThreadedHost::new(ThreadedConfig::with_seed(44));
    assert_eq!(crash_the_late_sender(&mut threads), want, "threaded");
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

// ---- one trace on the threaded host -----------------------------------------

/// The threaded host owns the run's one trace, and the scenario reads it
/// in place: across several run, quiesce and stop boundaries nothing is
/// lost and nothing is appended twice.
#[test]
fn the_threaded_scenario_reads_the_hosts_one_trace_in_place() {
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

    let host = s.threaded().expect("threaded backend");
    assert!(std::ptr::eq(s.trace(), host.trace()), "the scenario holds a copy of the trace");
    let mut issued = BTreeMap::new();
    for e in s.trace().events() {
        if let TraceKind::Issue { request } = e.kind {
            *issued.entry(request).or_insert(0) += 1;
        }
    }
    assert_eq!(issued.len(), n, "every request is issued");
    assert!(issued.values().all(|&k| k == 1), "an Issue was appended twice: {issued:?}");
}

// ---- Figure 8 spans: summed per node, never stored ----------------------------

/// One fault-free request at the paper's timer scale (the client's 800 ms
/// back-off keeps a slow thread from sending it to a second server) with a
/// deployment-scale failure detector, settled and stopped.
fn one_request(kind: RuntimeKind) -> Scenario {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0xF18)
        .runtime(kind)
        .protocol(ProtocolConfig::default())
        .fd(deployment_fd())
        .requests(1)
        .build();
    assert_eq!(s.run_until_settled(1), etx::sim::RunOutcome::Predicate, "{}", kind.label());
    s.quiesce(Dur::from_millis(50));
    s.stop();
    s
}

fn deployment_fd() -> FdConfig {
    FdConfig {
        heartbeat_every: Dur::from_millis(20),
        initial_timeout: Dur::from_millis(200),
        timeout_increment: Dur::from_millis(50),
        max_timeout: Dur::from_millis(2_000),
    }
}

fn is_span(kind: &TraceKind) -> bool {
    matches!(kind, TraceKind::Span { .. })
}

/// Every component of one request's path is charged once on either host,
/// and neither host stores a span in its trace.
#[test]
fn one_request_charges_the_same_spans_on_both_backends_and_traces_none() {
    let (on_sim, on_rt) = (one_request(RuntimeKind::Sim), one_request(RuntimeKind::Threaded));
    for comp in Component::ALL {
        assert_eq!(on_sim.spans().count(comp), 1, "{comp}: one request, one span");
        assert_eq!(on_rt.spans().count(comp), 1, "{comp}: the threaded host disagrees");
    }
    let host = on_rt.threaded().expect("threaded backend").trace_snapshot();
    for (name, trace) in [("sim", on_sim.trace()), ("threaded", on_rt.trace()), ("host", &host)] {
        assert!(!trace.is_empty(), "{name}: nothing traced");
        assert_eq!(trace.count_kind(is_span), 0, "{name}: a span was stored in the trace");
    }
}

/// A span is still trigger evidence: crashing the primary the moment it
/// charges `LogOutcome` (Figure 1(c)) fires on both hosts, and the cleaner
/// finishes the request, delivered exactly once.
#[test]
fn a_crash_on_the_primarys_log_outcome_span_fires_on_both_backends() {
    for kind in [RuntimeKind::Sim, RuntimeKind::Threaded] {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0x1C)
            .runtime(kind)
            .fd(deployment_fd())
            .requests(1)
            .build();
        let a1 = s.topo.primary();
        s.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == a1
                    && matches!(ev.kind, TraceKind::Span { comp: Component::LogOutcome, .. })
            }),
            FaultOp::Crash(a1),
        )
        .unwrap();
        assert_eq!(s.run_until_settled(1), etx::sim::RunOutcome::Predicate, "{}", kind.label());
        s.quiesce(Dur::from_millis(50));
        s.stop();
        let crashed = s.trace().find(|e| e.node == a1 && e.kind == TraceKind::Crash);
        assert!(crashed.is_some(), "{}: the span trigger never fired", kind.label());
        assert_eq!(s.deliveries().len(), 1, "{}: delivered more than once", kind.label());
        assert_eq!(s.delivered_commits(), 1, "{}", kind.label());
        assert_eq!(s.trace().count_kind(is_span), 0, "{}", kind.label());
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();
    }
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
/// scheduled fault, and a stopped host refuses with a typed
/// [`CapabilityError`] instead of a panic.
#[test]
fn threaded_scenarios_accept_fault_schedules() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 3)
        .runtime(RuntimeKind::Threaded)
        .requests(1)
        .build();
    let app = s.topo.app_servers[2];
    let pause = FaultOp::PauseFor { node: app, down_for: Dur::from_millis(2) };
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(1)), pause)
        .expect("threaded backend accepts scheduled faults");
    assert_eq!(s.run_until_settled(1), etx::sim::RunOutcome::Predicate);
    s.stop();
    let err =
        s.fault(FaultOp::Pause(app)).expect_err("a stopped host cannot inject faults any more");
    let msg = err.to_string();
    assert!(msg.contains("stopped"), "error should say the host is stopped: {msg}");
}
