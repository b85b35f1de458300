//! Extensions beyond the paper's core: garbage collection of register
//! arrays (§5 names it as open) and the client's retry trace.

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::ids::NodeId;
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};
use etx::protocol::AppServer;

/// Decision-log slots a sequential client's open request pins in every
/// register bank: its claim's slot and its outcome's. Every slot below
/// them is settled and compacted.
const HELD_PER_OPEN_REQUEST: usize = 2;

/// The application server at `node`, which must be up.
fn app_server(s: &Scenario, node: NodeId) -> &AppServer {
    s.sim()
        .process_ref(node)
        .expect("no application server crashed")
        .as_any()
        .and_then(|any| any.downcast_ref())
        .expect("application servers expose themselves for introspection")
}

#[test]
fn long_request_stream_stays_correct_with_gc() {
    // 30 sequential requests: GC must not break exactly-once, and the run
    // must stay healthy end to end (memory boundedness is asserted
    // indirectly — GC removes terminated attempts, so replays/duplicates
    // would surface as property violations if the bookkeeping were wrong).
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 881)
        .workload(Workload::BankUpdate { amount: 1 })
        .requests(30)
        .build();
    let out = s.run_until_settled(30);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(300));
    assert_eq!(s.delivered_commits(), 30);
    assert_eq!(s.db_commits(), 30);
    // Every replica's register bank must shed decision-log slots as the
    // client's watermark advances — a long stream may not accumulate one
    // decided value per slot forever. The sequential client's window is
    // its one open request: only that request's slots may still be held,
    // at the ingress server and at the two that follow the watermark
    // through the log alike.
    for &node in &s.topo.app_servers {
        let held = app_server(&s, node).held_slots();
        assert!(held <= HELD_PER_OPEN_REQUEST, "{node}: {held} decided slots held");
    }
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

#[test]
fn two_thousand_requests_leave_only_open_work_behind() {
    // The stateless-middle-tier claim, as sizes: after a long sequential
    // stream an application server holds state for the attempts still in
    // its client's window, not for the 2 000 it has finished. The primary
    // hears the client's watermark on every request; the backups hear it
    // from the owner claims the log carries. So on all three servers the
    // per-attempt maps, the cleaner's `clist` and what the decision log
    // tracks per attempt (decisions, owners, unsettled slot members — what
    // a cleaning pass walks) stay at a handful of entries, the consensus
    // engine's open set — what the resync timer walks — holds only
    // undecided registers, and the register bank holds the decided values
    // of the open request's slots alone: as many after 200 requests as
    // after 2 000.
    let held = |requests: u64| {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 885)
            .runtime(RuntimeKind::Sim)
            .workload(Workload::BankUpdate { amount: 1 })
            .requests(requests)
            .build();
        assert_eq!(s.run_until_settled(requests as usize), etx::sim::RunOutcome::Predicate);
        s.quiesce(Dur::from_millis(300));
        assert_eq!(s.delivered_commits(), requests as usize);
        let mut held = Vec::new();
        for &node in &s.topo.app_servers {
            let app = app_server(&s, node);
            assert!(app.open_registers() <= 4, "{node}: {} open registers", app.open_registers());
            assert!(app.in_flight_attempts() <= 4, "{node}: {} attempts", app.in_flight_attempts());
            assert!(app.cleaned_attempts() <= 4, "{node}: {} in clist", app.cleaned_attempts());
            assert!(
                app.log_tracked_attempts() <= 4,
                "{node}: the log tracks {} attempts",
                app.log_tracked_attempts()
            );
            assert!(
                app.held_slots() <= HELD_PER_OPEN_REQUEST,
                "{node}: {} of {} decided slots held",
                app.held_slots(),
                app.log_applied_up_to()
            );
            held.push(app.held_slots());
        }
        held
    };
    assert_eq!(held(2_000), held(200), "held slots do not grow with the request count");
}

#[test]
fn gc_with_failover_in_the_middle_of_the_stream() {
    // GC must not erase state the cleaner still needs: crash the primary
    // mid-stream and keep going.
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 883)
        .workload(Workload::BankUpdate { amount: 1 })
        .requests(10)
        .build();
    let a1 = s.topo.primary();
    s.schedule_fault(NemesisWhen::After(Dur(20_000)), FaultOp::Crash(a1)).unwrap();
    let out = s.run_until_settled(10);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(300));
    assert_eq!(s.delivered_commits(), 10);
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

#[test]
fn client_retry_trace_reflects_attempt_progression() {
    // AlwaysDoomed: attempts 1..k abort; ClientRetry events must carry
    // strictly increasing attempt numbers.
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 889)
        .workload(Workload::AlwaysDoomed)
        .requests(1)
        .build();
    s.sim_mut().run_until(|sim| {
        sim.trace().count_kind(|k| matches!(k, TraceKind::ClientRetry { .. })) >= 4
    });
    let attempts: Vec<u32> = s
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::ClientRetry { rid } => Some(rid.attempt),
            _ => None,
        })
        .collect();
    assert!(attempts.windows(2).all(|w| w[1] == w[0] + 1), "{attempts:?}");
}
