//! Extensions beyond the paper's core: garbage collection of register
//! arrays (§5 names it as open) and the adaptive client-routing flag.

use etx::base::config::ProtocolConfig;
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::harness::{check, LivenessChecks, MiddleTier, ScenarioBuilder, Workload};
use etx::protocol::AppServer;

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
    // The register bank must shed decision-log slots as the client's
    // watermark advances — a long stream may not accumulate one consensus
    // instance per slot forever.
    assert!(
        s.trace().count_kind(|k| matches!(k, TraceKind::SlotGc { .. })) > 0,
        "settled decision-log slots must be garbage-collected"
    );
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
    // a cleaning pass walks) stay at a handful of entries, and the
    // consensus engine's open set — what the resync timer walks — holds
    // only undecided registers.
    const REQUESTS: u64 = 2_000;
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 885)
        .runtime(RuntimeKind::Sim)
        .workload(Workload::BankUpdate { amount: 1 })
        .requests(REQUESTS)
        .build();
    assert_eq!(s.run_until_settled(REQUESTS as usize), etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(300));
    assert_eq!(s.delivered_commits(), REQUESTS as usize);
    for &node in &s.topo.app_servers {
        let process = s.sim().process_ref(node).expect("no application server crashed");
        let app: &AppServer = process
            .as_any()
            .and_then(|any| any.downcast_ref())
            .expect("application servers expose themselves for introspection");
        assert!(app.open_registers() <= 4, "{node}: {} open registers", app.open_registers());
        assert!(app.in_flight_attempts() <= 4, "{node}: {} attempts", app.in_flight_attempts());
        assert!(app.cleaned_attempts() <= 4, "{node}: {} in clist", app.cleaned_attempts());
        assert!(
            app.log_tracked_attempts() <= 4,
            "{node}: the log tracks {} attempts",
            app.log_tracked_attempts()
        );
    }
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
fn adaptive_routing_recovers_faster_after_primary_death() {
    // With route_to_last_responder the client skips the dead default
    // primary on retries; the total time for a stream of requests after
    // the primary's crash must strictly beat the paper-faithful policy
    // (which pays one back-off per request).
    let run = |adaptive: bool| {
        let mut pcfg = ProtocolConfig {
            client_backoff: Dur::from_millis(30),
            client_rebroadcast: Dur::from_millis(20),
            client_rebroadcast_max: Dur::from_millis(20),
            terminate_retry: Dur::from_millis(10),
            cleaner_interval: Dur::from_millis(5),
            consensus_resync: Dur::from_millis(8),
            consensus_round_patience: Dur::from_millis(4),
            route_to_last_responder: adaptive,
            features: etx_base::config::FeatureSet::default(),
        };
        pcfg.route_to_last_responder = adaptive;
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 887)
            .protocol(pcfg)
            .workload(Workload::BankUpdate { amount: 1 })
            .requests(6)
            .build();
        let a1 = s.topo.primary();
        s.schedule_fault(NemesisWhen::After(Dur::ZERO), FaultOp::Crash(a1)).unwrap();
        let out = s.run_until_settled(6);
        assert_eq!(out, etx::sim::RunOutcome::Predicate);
        s.now()
    };
    let faithful = run(false);
    let adaptive = run(true);
    assert!(
        adaptive < faithful,
        "adaptive routing ({adaptive}) must beat per-request back-off ({faithful})"
    );
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
