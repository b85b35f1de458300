//! Crash-point matrix: kill the primary at *every* observable protocol
//! stage and check that the system still satisfies the full specification
//! and the client still delivers (T.1 under fail-over).

use etx::base::config::FdConfig;
use etx::base::fault::{FaultOp, NemesisWhen, TracePred};
use etx::base::time::Dur;
use etx::base::trace::{Component, TraceKind};
use etx::harness::{check, feature_corners, LivenessChecks, MiddleTier, ScenarioBuilder, Workload};
use etx::protocol::AppServer;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Stage {
    OnRequestArrival,
    AfterRegAWrite,
    AfterSqlAtDb,
    AfterDbVote,
    AfterRegDWrite,
    AfterDbCommit,
}

const STAGES: [Stage; 6] = [
    Stage::OnRequestArrival,
    Stage::AfterRegAWrite,
    Stage::AfterSqlAtDb,
    Stage::AfterDbVote,
    Stage::AfterRegDWrite,
    Stage::AfterDbCommit,
];

fn run_stage(stage: Stage, seed: u64) {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .workload(Workload::BankUpdate { amount: 9 })
        .requests(1)
        .build();
    let a1 = s.topo.primary();
    let pred: TracePred = match stage {
        Stage::OnRequestArrival => Arc::new(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::Span { comp: Component::Start, .. })
        }),
        Stage::AfterRegAWrite => Arc::new(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::Span { comp: Component::LogStart, .. })
        }),
        Stage::AfterSqlAtDb => {
            Arc::new(move |ev| matches!(ev.kind, TraceKind::Span { comp: Component::Sql, .. }))
        }
        Stage::AfterDbVote => Arc::new(move |ev| matches!(ev.kind, TraceKind::DbVote { .. })),
        Stage::AfterRegDWrite => Arc::new(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::Span { comp: Component::LogOutcome, .. })
        }),
        Stage::AfterDbCommit => Arc::new(move |ev| matches!(ev.kind, TraceKind::DbDecide { .. })),
    };
    s.schedule_fault(NemesisWhen::OnTrace(pred), FaultOp::Crash(a1)).unwrap();
    let out = s.run_until_settled(1);
    assert_eq!(
        out,
        etx::sim::RunOutcome::Predicate,
        "stage {stage:?} seed {seed}: client must still deliver (T.1)"
    );
    s.quiesce(Dur::from_millis(400));
    assert_eq!(s.delivered_commits(), 1, "stage {stage:?} seed {seed}");
    // Exactly one commit — never zero (lost) or two (duplicated).
    assert_eq!(s.db_commits(), 1, "stage {stage:?} seed {seed}: A.2");
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

#[test]
fn primary_crash_at_every_stage_preserves_exactly_once() {
    for (i, stage) in STAGES.iter().enumerate() {
        for seed in 0..3u64 {
            run_stage(*stage, 1000 + i as u64 * 17 + seed);
        }
    }
}

#[test]
fn double_crash_still_tolerated_with_five_replicas() {
    // Five replicas tolerate two crashes: kill the primary at regA and the
    // second server shortly after.
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 5 }, 2024)
        .workload(Workload::BankUpdate { amount: 3 })
        .requests(1)
        .build();
    let a1 = s.topo.app_servers[0];
    let a2 = s.topo.app_servers[1];
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::Span { comp: Component::LogStart, .. })
        }),
        FaultOp::Crash(a1),
    )
    .unwrap();
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            matches!(ev.kind, TraceKind::CleanerTakeover { .. }) && ev.node == a2
        }),
        FaultOp::Crash(a2),
    )
    .unwrap();
    let out = s.run_until_settled(1);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(400));
    assert_eq!(s.db_commits(), 1);
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

#[test]
fn db_crash_at_vote_and_at_decide_points() {
    for (i, kind) in ["vote", "decide"].iter().enumerate() {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 3000 + i as u64)
            .workload(Workload::BankUpdate { amount: 2 })
            .requests(1)
            .build();
        let db = s.topo.db_servers[0];
        let pred: TracePred = if i == 0 {
            Arc::new(move |ev| ev.node == db && matches!(ev.kind, TraceKind::DbVote { .. }))
        } else {
            Arc::new(move |ev| ev.node == db && matches!(ev.kind, TraceKind::DbDecide { .. }))
        };
        s.schedule_fault(
            NemesisWhen::OnTrace(pred),
            FaultOp::CrashFor { node: db, down_for: Dur::from_millis(25) },
        )
        .unwrap();
        let out = s.run_until_settled(1);
        assert_eq!(out, etx::sim::RunOutcome::Predicate, "{kind}: must deliver");
        s.quiesce(Dur::from_millis(400));
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();
    }
}

/// Both hosts bring a crashed server back as a fresh incarnation from its
/// factory, with `Event::Recovered` instead of `Init`. An application server
/// must restart its failure detector then, or ◇P breaks both ways: it never
/// suspects a peer that crashes later (completeness), and, silent, it is
/// suspected although alive (eventual accuracy).
#[test]
fn a_recovered_app_server_rejoins_failure_detection() {
    for seed in 1..=5u64 {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
            .clients(2)
            .requests(40)
            .build();
        let (a, b) = (s.topo.app_servers[0], s.topo.app_servers[1]);
        let down = FaultOp::CrashFor { node: a, down_for: Dur::from_millis(30) };
        s.schedule_fault(NemesisWhen::After(Dur::from_millis(20)), down).unwrap();
        s.schedule_fault(NemesisWhen::After(Dur::from_millis(200)), FaultOp::Crash(b)).unwrap();
        let n = s.requests as usize;
        assert_eq!(s.run_until_settled(n), etx::sim::RunOutcome::Predicate, "seed {seed}");
        s.quiesce(Dur::from_millis(1_500));
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();

        let events = s.trace().events();
        let back = events.iter().find(|e| e.node == a && e.kind == TraceKind::Recover).unwrap().at;
        let suspicions = |peer| {
            events.iter().filter(move |e| {
                e.at > back && matches!(e.kind, TraceKind::Suspect { peer: p } if p == peer)
            })
        };
        assert!(
            suspicions(b).any(|e| e.node == a),
            "seed {seed}: the recovered server never suspected the crashed one"
        );
        assert_eq!(suspicions(a).count(), 0, "seed {seed}: the recovered server was suspected");
    }
}

/// A coordinator that crashes between proposing a decision-log slot and
/// deciding it comes back without that round's state. Its peers acked the
/// proposal and, trusting the recovered server (down 30 ms against a
/// 200 ms detector), wait on it; its fresh proposal for the same slot is
/// nacked into the next round, which decides. On this seed the crash lands
/// in that window; the run wedged at its watchdog before the nack.
#[test]
fn a_coordinator_that_forgot_its_proposal_is_nacked_into_the_next_round() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0x2ECA)
        .fd(FdConfig {
            heartbeat_every: Dur::from_millis(20),
            initial_timeout: Dur::from_millis(200),
            timeout_increment: Dur::from_millis(50),
            max_timeout: Dur::from_millis(2_000),
        })
        .clients(2)
        .requests(40)
        .wall_limit(Dur::from_millis(3_000))
        .build();
    let (a, b) = (s.topo.app_servers[0], s.topo.app_servers[1]);
    let down = FaultOp::CrashFor { node: a, down_for: Dur::from_millis(30) };
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(20)), down).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(200)), FaultOp::Crash(b)).unwrap();
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), etx::sim::RunOutcome::Predicate);
    assert!(s.stats().sent("CNack") > 0, "no proposal was nacked: the crash missed the window");
    s.quiesce(Dur::from_millis(400));
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

/// A recovered application server relearns the decision log by pulling
/// every slot it missed. Each gap is pulled once when a decided slot above
/// it uncovers it and again only on a resync tick — so the whole catch-up
/// costs pulls linear in the log, not one pull per gap per later decided
/// slot. On these seeds the log reaches 521–551 slots; re-pulling every
/// gap on every decided slot cost 11 306–14 398 `DecideReq`s, pulling each
/// once per resync period costs 370–540. The slots its peers compacted
/// while it was down come back as their watermark table, which the
/// recovered server applies as watermarks only; it then holds no more
/// decided values than its peers do.
#[test]
fn a_recovered_app_server_catches_up_in_linear_messages() {
    for seed in 1..=5u64 {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
            .shards(4)
            .replication(2)
            .clients(16)
            .requests(100)
            .features(feature_corners()[1].1)
            .workload(Workload::ShardedBank { accounts: 256, cross_pct: 10, amount: 7 })
            .build();
        let recovered = s.primary();
        let down = FaultOp::CrashFor { node: recovered, down_for: Dur::from_millis(100) };
        s.schedule_fault(NemesisWhen::After(Dur::from_millis(100)), down).unwrap();
        let n = s.requests as usize;
        assert_eq!(s.run_until_settled(n), etx::sim::RunOutcome::Predicate, "seed {seed}");
        s.quiesce(Dur::from_millis(100));
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();

        let app = |node| -> &AppServer {
            let process = s.sim().process_ref(node).expect("every server recovered");
            process
                .as_any()
                .and_then(|any| any.downcast_ref())
                .expect("application servers expose themselves for introspection")
        };
        let servers = &s.topo.app_servers;
        let slots = servers.iter().map(|&n| app(n).log_applied_up_to()).max().expect("three");
        assert!(slots > 0, "seed {seed}: the log decided slots");
        let pulls = s.stats().sent("CDecideReq");
        assert!(pulls <= 2 * slots, "seed {seed}: {pulls} pulls over a log of {slots} slots");
        let placeholders = app(recovered).placeholders_applied();
        assert!(placeholders > 0, "seed {seed}: the recovered server applied no placeholder");
        let peers = servers.iter().filter(|&&n| n != recovered);
        let held = peers.map(|&n| app(n).held_slots()).max().expect("two peers");
        assert!(
            app(recovered).held_slots() <= held,
            "seed {seed}: the recovered server holds {} decided slots, its peers at most {held}",
            app(recovered).held_slots()
        );
    }
}

#[test]
fn false_suspicion_storm_costs_only_aborts_never_safety() {
    // Every server suspects the (alive!) primary for a while — the regime
    // where "all application servers try to concurrently commit or abort a
    // result" (§5, active-replication mode). Safety must hold; the client
    // must still deliver.
    use etx::base::time::Time;
    use etx::fd::ForcedSuspicion;
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 4001)
        .workload(Workload::BankUpdate { amount: 8 })
        .requests(2)
        .force_suspicions(vec![ForcedSuspicion {
            peer: etx::base::ids::NodeId(1), // the default primary
            from: Time(2_000),
            until: Time(40_000),
        }])
        .build();
    let out = s.run_until_settled(2);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(400));
    assert_eq!(s.delivered_commits(), 2);
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
    let hash = format!("{:#?}", s.trace().events())
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    assert_eq!(hash, GOLDEN_STORM, "the forced windows acted at other events");
}

/// The FNV-1a hash of the storm's debug trace. The forced window acts
/// wherever the servers ask `suspects`, which a heartbeat or a detector
/// tick that moves no suspicion never reaches; a change that means to
/// leave the protocol alone leaves this alone.
const GOLDEN_STORM: u64 = 0x9BC5_35BE_8278_86F7;

/// The primary application server is down 30 ms, against an 8 ms detector
/// timeout, while four clients keep requests in flight: both survivors
/// suspect it, and once it is back its heartbeats withdraw the suspicion.
/// Heartbeats are in flight to every server throughout, so the run
/// crosses each server's detector from trusting to suspecting and back
/// while deliveries to it wait.
#[test]
fn a_suspected_primary_that_comes_back_is_unsuspected() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0x5B5E)
        .workload(Workload::BankUpdate { amount: 6 })
        .clients(4)
        .requests(40)
        .build();
    let a = s.primary();
    let down = FaultOp::CrashFor { node: a, down_for: Dur::from_millis(30) };
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(15)), down).unwrap();
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(100));
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
    let about_a = |ev: &etx::base::trace::TraceEvent| match ev.kind {
        TraceKind::Suspect { peer } if peer == a => Some((ev.node, true)),
        TraceKind::Unsuspect { peer } if peer == a => Some((ev.node, false)),
        _ => None,
    };
    let moves: Vec<_> = s.trace().events().iter().filter_map(about_a).collect();
    for &survivor in s.topo.app_servers.iter().filter(|&&n| n != a) {
        let seen: Vec<bool> =
            moves.iter().filter(|(n, _)| *n == survivor).map(|&(_, up)| up).collect();
        assert_eq!(seen, [true, false], "{survivor} suspects the primary once, then trusts it");
    }
    let hash = format!("{:#?}", s.trace().events())
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    assert_eq!(hash, GOLDEN_COMEBACK, "the suspicion or its withdrawal moved");
}

/// The FNV-1a hash of the comeback run's debug trace: every suspicion, its
/// withdrawal, and what the servers did in between.
const GOLDEN_COMEBACK: u64 = 0x3244_69BF_619F_DCBE;

#[test]
fn failure_free_latency_does_not_depend_on_the_fd_timeout() {
    // The control row of the fail-over evaluation §5 calls for: the
    // failure detector only matters once something fails, so without a
    // crash the paper-scale request latency is flat across its timeout.
    let latency_ms = |fd_timeout_ms: u64| {
        let fd =
            FdConfig { initial_timeout: Dur::from_millis(fd_timeout_ms), ..FdConfig::default() };
        let mut s =
            ScenarioBuilder::new(MiddleTier::Etx { apps: 3 }, 0xF161).fd(fd).requests(1).build();
        assert_eq!(s.run_until_settled(1), etx::sim::RunOutcome::Predicate);
        s.deliveries()[0].3.as_millis_f64()
    };
    let at_40 = latency_ms(40);
    for fd_timeout_ms in [80, 160, 320] {
        let at = latency_ms(fd_timeout_ms);
        assert!(
            (at - at_40).abs() < 1.0,
            "FD timeout {fd_timeout_ms} ms moved the failure-free latency: {at:.1} vs {at_40:.1} ms"
        );
    }
}
