//! The read fast lane, end to end.
//!
//! Three families of guarantees:
//!
//! * **trace identity off** — with `ReadPathConfig` disabled (the
//!   default), three scenarios replay pinned traces byte for byte (FNV-1a
//!   hashes of the full debug trace): the guard against a change that
//!   moves a message, a timer or a trace event without meaning to;
//! * **fast-lane shape** — with the lane on, read-only scripts are
//!   classified, routed around the commit pipeline (no votes, no decides,
//!   no consensus for them), fanned out per shard, merged, and delivered
//!   exactly once with correct values;
//! * **follower staleness bound** — an up-to-date follower serves
//!   locally; a follower behind the read's freshness stamp forwards to
//!   the primary and the client still observes its own writes;
//! * **cross-shard atomicity** — a fan-out read racing cross-shard
//!   transfers never observes one half-applied (the snapshot-validation
//!   loop), checked via the conserved-pair invariant.

use etx::base::config::{BatchingConfig, ReadLeaseConfig, ReadPathConfig};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::ids::ResultId;
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::base::value::Outcome;
use etx::harness::{
    check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Summary, Workload,
};
use std::collections::HashSet;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---- trace identity with the lane off --------------------------------------

/// Golden hashes of three traces with the read lane off (fail-over,
/// sharded crash-recovery, a batched burst). They guard against an *unintended*
/// trace change: a PR that means to leave messages, timers and trace
/// events alone must leave these alone, and one that changes the protocol
/// on purpose re-pins them once and says so. (Last re-pinned when the
/// trace stopped storing the kinds nobody read — register decisions, slot
/// GC, shard routes, held votes and snapshot re-collects: each hash is
/// that of the earlier trace with those events removed. The time before,
/// spans left the trace for the nodes' span totals the same way.)
const GOLDEN_FAILOVER: u64 = 0x5FB4_BCC7_6508_1EC4;
const GOLDEN_SHARDED: u64 = 0x054D_B9C8_EFE7_BB6C;
const GOLDEN_BATCHED: u64 = 0x9C08_E903_1643_97D8;

fn trace_bytes(mut s: Scenario, settle: usize) -> Vec<u8> {
    s.run_until_settled(settle);
    s.quiesce(Dur::from_millis(50));
    format!("{:#?}", s.trace().events()).into_bytes()
}

#[test]
fn fast_path_off_replays_pre_existing_traces_byte_identically() {
    // Scenario 1: flat back end, primary crash mid-protocol (the
    // determinism suite's failover run).
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0xE7A)
        .workload(Workload::BankUpdate { amount: 7 })
        .requests(2)
        .build();
    let victim = s.topo.primary();
    let db = s.topo.db_servers[0];
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == db && matches!(ev.kind, TraceKind::DbVote { .. })
        }),
        FaultOp::Crash(victim),
    )
    .unwrap();
    assert_eq!(fnv1a(&trace_bytes(s, 2)), GOLDEN_FAILOVER, "the lane-off failover trace changed");

    // Scenario 2: 4 shards × 2 replicas, cross-shard transfers, shard
    // primary crash/recovery (routing + replication + catch-up).
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0x5A4D)
        .shards(4)
        .replication(2)
        .workload(Workload::ShardedBank { accounts: 32, cross_pct: 100, amount: 5 })
        .requests(2)
        .build();
    let victim = s.shard_primary(0);
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == victim && matches!(ev.kind, TraceKind::DbVote { .. })
        }),
        FaultOp::CrashFor { node: victim, down_for: Dur::from_millis(20) },
    )
    .unwrap();
    assert_eq!(fnv1a(&trace_bytes(s, 2)), GOLDEN_SHARDED, "the lane-off sharded trace changed");

    // Scenario 3: batched open-loop burst (the commit pipeline under
    // concurrency — the path the lane routes around).
    let s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0xABC)
        .shards(4)
        .clients(4)
        .requests(6)
        .batching(BatchingConfig::new(8, Dur::from_millis(1)))
        .workload(Workload::OpenLoopBurst { accounts: 32, amount: 1 })
        .build();
    let n = s.requests as usize;
    assert_eq!(fnv1a(&trace_bytes(s, n)), GOLDEN_BATCHED, "the lane-off batched trace changed");
}

// ---- fast-lane shape --------------------------------------------------------

fn read_scenario(seed: u64, read_path: ReadPathConfig, read_pct: u8) -> Scenario {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .shards(4)
        .replication(2)
        .clients(4)
        .requests(8)
        .read_path(read_path)
        .workload(Workload::ReadMostly { accounts: 32, read_pct, amount: 10 })
        .build()
}

#[test]
fn pure_reads_skip_the_commit_machinery_entirely() {
    let mut s = read_scenario(11, ReadPathConfig::primary_only(), 100);
    let n = s.requests as usize;
    let out = s.run_until_settled(n);
    assert_eq!(out, etx::sim::RunOutcome::Predicate, "every read must deliver");
    s.quiesce(Dur::from_millis(50));
    assert_eq!(s.delivered_commits(), n, "reads deliver as committed results");
    assert_eq!(s.fast_path_reads(), n, "every request took the fast lane");
    let trace = s.trace();
    assert_eq!(
        trace.count_kind(|k| matches!(k, TraceKind::DbVote { .. })),
        0,
        "a pure-read run must never open the voting phase"
    );
    assert_eq!(
        trace.count_kind(|k| matches!(k, TraceKind::DbDecide { .. })),
        0,
        "a pure-read run must never reach decide()"
    );
    assert_eq!(
        trace.count_kind(|k| matches!(k, TraceKind::BatchDecided { .. })),
        0,
        "a pure-read run must never open a decision-log slot"
    );
    // No writes happened, so every read must observe exactly the seed data.
    for (rid, decision) in read_deliveries(&mut s) {
        let result = decision.result.expect("reads carry results");
        for (label, value) in &result.entries {
            if label.starts_with("acct") {
                assert_eq!(*value, 1_000, "{rid}: {label} must read the seed value");
            }
        }
    }
}

#[test]
fn fast_path_off_sends_reads_down_the_old_route() {
    let mut s = read_scenario(11, ReadPathConfig::disabled(), 100);
    let n = s.requests as usize;
    let out = s.run_until_settled(n);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(50));
    assert_eq!(s.fast_path_reads(), 0, "disabled lane classifies nothing");
    assert!(
        s.trace().count_kind(|k| matches!(k, TraceKind::DbVote { .. })) >= n,
        "slow-path reads run the full voting phase"
    );
}

#[test]
fn cross_shard_reads_fan_out_and_merge() {
    let mut s = read_scenario(23, ReadPathConfig::primary_only(), 100);
    let n = s.requests as usize;
    let out = s.run_until_settled(n);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(50));
    // Some ReadMostly reads span two accounts; with 4 shards most pairs
    // land on distinct shards — the fan-out path.
    let multi = s
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ReadFastPath { shards, .. } if shards >= 2))
        .count();
    assert!(multi >= 1, "the sweep must exercise cross-shard read fan-out");
    // Every two-key read's merged result carries both keys' values.
    for (rid, decision) in read_deliveries(&mut s) {
        let result = decision.result.expect("reads carry results");
        let keys = result.entries.iter().filter(|(l, _)| l.starts_with("acct")).count();
        assert!(keys >= 1, "{rid}: merged read result lost its entries: {result}");
        for (label, value) in &result.entries {
            if label.starts_with("acct") {
                assert_eq!(*value, 1_000, "{rid}: {label} stale or fabricated");
            }
        }
    }
}

/// Delivered `(rid, decision)` pairs, read out of the client processes.
fn read_deliveries(
    s: &mut Scenario,
) -> Vec<(etx::base::ids::ResultId, etx::base::value::Decision)> {
    s.delivered_results()
}

// ---- the follower staleness bound (seed sweep) ------------------------------

/// Sequential write-then-read pairs with follower reads on. Two regimes
/// per seed:
///
/// * **up-to-date follower** — replication is allowed to flow, so by the
///   time each read lands the follower has applied the write: reads serve
///   locally (`FollowerRead`), nothing forwards;
/// * **lagging follower** — the primary→follower links are blocked for
///   the whole run, so every stamped read aimed at a follower is behind:
///   it must forward (`ReadForwarded`), and the delivered value must
///   still be the client's own write (never the stale pre-write state).
#[test]
fn follower_staleness_bound_over_seed_sweep() {
    for seed in [3u64, 17, 99, 2024] {
        // Regime 1: follower caught up → serve locally.
        let mut s = staleness_scenario(seed);
        let out = s.run_until_settled(8);
        assert_eq!(out, etx::sim::RunOutcome::Predicate, "seed {seed}: must settle");
        s.quiesce(Dur::from_millis(50));
        assert!(
            s.follower_reads_served() >= 1,
            "seed {seed}: an up-to-date follower must serve reads locally"
        );
        assert_read_your_writes(&mut s, seed);

        // Regime 2: followers starved of replication → forward, stay fresh.
        let mut s = staleness_scenario(seed);
        for shard in 0..4u32 {
            let replicas = s.shard_replicas(shard).to_vec();
            for &f in &replicas[1..] {
                s.fault(FaultOp::BlockLink {
                    from: replicas[0],
                    to: f,
                    heal_after: Dur(3_600_000_000),
                })
                .unwrap();
            }
        }
        let out = s.run_until_settled(8);
        assert_eq!(out, etx::sim::RunOutcome::Predicate, "seed {seed}: lagging run must settle");
        s.quiesce(Dur::from_millis(50));
        assert!(
            s.reads_forwarded() >= 1,
            "seed {seed}: a follower behind the stamp must forward, not serve stale"
        );
        assert_read_your_writes(&mut s, seed);
    }
}

fn staleness_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .shards(4)
        .replication(2)
        .requests(8) // four write→read pairs
        .read_path(ReadPathConfig::follower_reads())
        .workload(Workload::ReadAfterWrite { accounts: 16, amount: 10 })
        .build()
}

/// Every even-seq read must observe the value its preceding write
/// committed: seed 1000 plus the pair's increment.
fn assert_read_your_writes(s: &mut Scenario, seed: u64) {
    let mut reads = 0;
    for (rid, decision) in read_deliveries(s) {
        if rid.request.seq % 2 == 0 {
            reads += 1;
            assert_eq!(decision.outcome, Outcome::Commit);
            let result = decision.result.expect("reads carry results");
            let value = result
                .entries
                .iter()
                .find(|(l, _)| l.starts_with("acct"))
                .map(|&(_, v)| v)
                .expect("read result names its account");
            assert_eq!(
                value, 1_010,
                "seed {seed}, {rid}: read served stale state (want the pair's own write)"
            );
        }
    }
    assert_eq!(reads, 4, "seed {seed}: all four reads must deliver");
}

// ---- fast-vs-slow read equivalence under chaos ------------------------------

/// The equivalence property: on a pure-read workload (committed state is
/// frozen at the seed data), the fast lane and the slow route must deliver
/// the *same values* for every request — under database crash/recovery
/// chaos, message loss, and follower lag. Attempt numbers may differ (the
/// slow route can abort and retry), so only the data entries compare.
#[test]
fn fast_and_slow_paths_deliver_equal_read_values_under_chaos() {
    for seed in [7u64, 41, 128, 555] {
        let fast = chaotic_pure_read_run(seed, ReadPathConfig::follower_reads());
        let slow = chaotic_pure_read_run(seed, ReadPathConfig::disabled());
        assert_eq!(fast.len(), slow.len(), "seed {seed}: both routes must settle every request");
        for (req, fast_vals) in &fast {
            let slow_vals = slow
                .iter()
                .find(|(r, _)| r == req)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("seed {seed}: {req} delivered fast but not slow"));
            assert_eq!(
                fast_vals, slow_vals,
                "seed {seed}: {req} read different values down the two routes"
            );
        }
    }
}

/// Runs a pure-read workload under a fixed chaos schedule (a db
/// crash/recovery cycle, message loss, a blocked replication link) and
/// returns each request's delivered data entries (attempt label stripped).
fn chaotic_pure_read_run(
    seed: u64,
    read_path: ReadPathConfig,
) -> Vec<(etx::base::ids::RequestId, Vec<(String, i64)>)> {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .shards(4)
        .replication(2)
        .clients(2)
        .requests(6)
        .read_path(read_path)
        .net(etx::sim::NetConfig {
            min_delay: Dur::from_micros(100),
            max_delay: Dur::from_micros(300),
            loss_rate: 0.05,
            retransmit_gap: Dur::from_millis(2),
        })
        .workload(Workload::ReadMostly { accounts: 32, read_pct: 100, amount: 10 })
        .build();
    // Chaos: cycle one shard replica mid-run and starve another shard's
    // follower of replication (irrelevant to frozen state, lethal to a
    // fast path that forgot its freshness gate or retry backstop).
    let victim = s.shard_replicas(0)[1];
    s.schedule_fault(NemesisWhen::After(Dur(2_000)), FaultOp::Crash(victim)).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur(20_000)), FaultOp::Recover(victim)).unwrap();
    let lag = s.shard_replicas(1).to_vec();
    s.fault(FaultOp::BlockLink { from: lag[0], to: lag[1], heal_after: Dur(100_000) }).unwrap();
    let n = s.requests as usize;
    let out = s.run_until_settled(n);
    assert_eq!(out, etx::sim::RunOutcome::Predicate, "seed {seed}: pure-read run must settle");
    s.quiesce(Dur::from_millis(100));
    let mut rows: Vec<_> = read_deliveries(&mut s)
        .into_iter()
        .map(|(rid, decision)| {
            assert_eq!(decision.outcome, Outcome::Commit);
            let result = decision.result.expect("reads carry results");
            let vals: Vec<(String, i64)> =
                result.entries.iter().filter(|(l, _)| l != "attempt").cloned().collect();
            (rid.request, vals)
        })
        .collect();
    rows.sort_by_key(|(req, _)| *req);
    rows
}

// ---- the read-path chaos scenario -------------------------------------------

/// A follower crashes on the first classified fast-path read, another
/// shard's follower is starved of replication mid-run — the full §3
/// specification must still hold and every request must settle.
#[test]
fn read_path_chaos_holds_the_spec_across_seeds() {
    let opts = etx::harness::ChaosOptions {
        schedule: etx::harness::Schedule::ReadPath,
        apps: 3,
        clients: 2,
        requests: 8,
        shards: Some(4),
        replication: 2,
        ..Default::default()
    };
    let mut any_forwarded = false;
    for seed in [5u64, 77, 303, 9001] {
        let outcome = etx::harness::run_chaos(seed, &opts, etx::base::runtime::RuntimeKind::Sim);
        outcome.assert_ok();
        any_forwarded |= outcome.scenario.reads_forwarded() > 0;
    }
    // The blocked replication link plus the read mix must force the
    // forward path somewhere in the sweep.
    assert!(any_forwarded, "the chaos sweep never exercised the lagging-follower forward path");
}

// ---- what the lane buys ------------------------------------------------------

/// A read-heavy open-loop mix (32 clients × 12 requests) at 16 shards ×
/// 2 replicas, down one read route: committed requests per simulated
/// second, and the mean request latency in milliseconds.
fn read_mix(read_pct: u8, read_path: ReadPathConfig, read_leases: ReadLeaseConfig) -> (f64, f64) {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0x0EAD)
        .shards(16)
        .replication(2)
        .clients(32)
        .requests(12)
        .batching(BatchingConfig::new(8, Dur::from_millis(1)))
        .read_path(read_path)
        .read_leases(read_leases)
        .workload(Workload::ReadMostly { accounts: 128, read_pct, amount: 1 })
        .build();
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), etx::sim::RunOutcome::Predicate);
    let per_second = s.delivered_commits() as f64 / (s.now().as_millis_f64() / 1_000.0);
    (per_second, Summary::of(&s.request_latencies_ms()).mean)
}

/// Skipping the decision log, the WAL and replica shipment must at least
/// double the modelled system's throughput on a 90 %-read mix down every
/// fast route, and spreading reads over each shard's replicas must beat
/// queueing them all on the primaries. At 99 % reads — where multi-shard
/// collects dominate and write churn is thin — serving collects from
/// in-lease followers must beat plain follower reads, which force them to
/// primaries.
#[test]
fn fast_routes_double_read_heavy_throughput_and_replicas_add_capacity() {
    let (unleased, leases) = (ReadLeaseConfig::disabled(), ReadLeaseConfig::on());
    let follower = ReadPathConfig::follower_reads();
    let (off, _) = read_mix(90, ReadPathConfig::disabled(), unleased);
    let (primary, _) = read_mix(90, ReadPathConfig::primary_only(), unleased);
    let (plain, _) = read_mix(90, follower, unleased);
    let (leased, _) = read_mix(90, follower, leases);
    assert!(primary >= 2.0 * off, "primary-only lane {primary:.0} vs commit route {off:.0} /s");
    assert!(plain >= 2.0 * off, "follower lane {plain:.0} vs commit route {off:.0} /s");
    assert!(leased >= 2.0 * off, "leased lane {leased:.0} vs commit route {off:.0} /s");
    assert!(plain > primary, "follower reads {plain:.0} vs primary-only {primary:.0} /s");
    // At 99 % the burst's rate is 384 commits over the time of its *last*
    // delivery, which on either route is one straggling collect's 10 ms
    // retry backstop (the lease wins that on 14 of 24 seeds). What the
    // lease buys every request — fewer forced trips to a queueing
    // primary, 40 % fewer retries — shows in the mean latency, on 24 of 24.
    let (_, plain) = read_mix(99, follower, unleased);
    let (_, leased) = read_mix(99, follower, leases);
    assert!(leased < plain, "leased {leased:.3} ms vs plain follower reads {plain:.3} ms at 99 %");
}

// ---- cross-shard read atomicity (the conserved-pair invariant) --------------

/// The isolation property the snapshot-validation loop exists for: a
/// cross-shard fan-out read racing cross-shard transfers must observe
/// either all or none of any transfer — never shard A post-commit and
/// shard B pre-commit. `ConservedPairs` transfers money within fixed
/// account pairs (pair sum invariantly 2 000 at every transactionally
/// consistent snapshot) while pair reads fan out across the shards the
/// pair straddles; a fractured read surfaces as a sum ≠ 2 000. Run down
/// both fast routes over a seed sweep, with enough open-loop concurrency
/// that reads genuinely interleave with half-landed transfers. Message
/// loss is what makes the race wide enough to bite: a transfer whose
/// `Decide` to one shard is dropped stays half-applied for a whole
/// retransmit period, and reads land inside that window constantly.
///
/// The parameters are tuned so BOTH halves of the validation check are
/// load-bearing (verified by knocking each out): accepting every
/// collect unvalidated fractures on the first seed, and keeping the
/// position checks but dropping the in-doubt veto still fractures on
/// seeds 83 and 1009 — the read-heavy mix keeps the freshness stamps
/// exact, so during a lost-`Decide` window only the veto stands between
/// a half-applied transfer and an accepted snapshot.
#[test]
fn cross_shard_fast_reads_never_observe_fractured_transfers() {
    for seed in [2u64, 19, 83, 1009] {
        for cfg in [ReadPathConfig::primary_only(), ReadPathConfig::follower_reads()] {
            fractured_transfer_run(seed, cfg);
        }
    }
}

const CONSERVED_PAIRS: Workload = Workload::ConservedPairs { pairs: 8, read_pct: 80, amount: 7 };

/// One settled, quiesced run of the scenario above, with its conserved-sum
/// checks made.
fn fractured_transfer_run(seed: u64, cfg: ReadPathConfig) -> Scenario {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .shards(4)
        .replication(2)
        .clients(8)
        .requests(14)
        .read_path(cfg)
        .net(etx::sim::NetConfig {
            min_delay: Dur::from_micros(100),
            max_delay: Dur::from_micros(300),
            loss_rate: 0.12,
            retransmit_gap: Dur::from_millis(8),
        })
        .workload(CONSERVED_PAIRS)
        .build();
    let n = s.requests as usize;
    let out = s.run_until_settled(n);
    assert_eq!(out, etx::sim::RunOutcome::Predicate, "seed {seed}: must settle");
    s.quiesce(Dur::from_millis(100));
    // The run must actually exercise the path under test: pair
    // reads fanning out over more than one shard.
    let multi = s
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ReadFastPath { shards, .. } if shards >= 2))
        .count();
    assert!(multi >= 1, "seed {seed}: no cross-shard fast read in the run");
    // Every delivered pair read must observe a conserved sum.
    let mut reads_checked = 0usize;
    for (rid, decision) in read_deliveries(&mut s) {
        let request = CONSERVED_PAIRS.request(&s.topo, rid.request.client, rid.request.seq);
        if !request.script.is_read_only() {
            continue;
        }
        reads_checked += 1;
        let result = decision.result.expect("reads carry results");
        let total: i64 =
            result.entries.iter().filter(|(l, _)| l.starts_with("acct")).map(|&(_, v)| v).sum();
        assert_eq!(total, 2_000, "seed {seed}, {rid}: fractured cross-shard read — {result}");
    }
    assert!(reads_checked >= 40, "seed {seed}: too few pair reads to mean anything");
    // Post-state sanity: the total across the shard primaries
    // equals the seeded total (transfers only moved money around;
    // followers hold replicated copies and would double-count).
    let grand: i64 = (0..4u32)
        .map(|shard| s.rebuilt_committed(s.shard_primary(shard)).values().sum::<i64>())
        .sum();
    assert_eq!(grand, 16_000, "seed {seed}: transfers must conserve the grand total");
    s
}

/// An attempt id names one computation: the lane serves a read's first
/// attempt, the commit path every other attempt, and nothing moves an
/// attempt from one to the other. A lane read whose snapshot validation
/// runs out of collects (`ReadFallback`) answers abort, and the client's
/// next attempt locks. The scenario above is the one that exhausts
/// validation: lost `Decide`s keep keys in doubt for a retransmit period.
#[test]
fn no_attempt_is_served_by_both_paths() {
    let mut fallbacks = 0usize;
    for seed in 1..=40u64 {
        let s = fractured_transfer_run(seed, ReadPathConfig::follower_reads());
        let events = s.trace().events();
        check(events, &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
        let lane: HashSet<ResultId> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::ReadFastPath { rid, .. } => Some(rid),
                _ => None,
            })
            .collect();
        for e in events {
            match e.kind {
                TraceKind::DbVote { rid, .. } | TraceKind::DbDecide { rid, .. } => assert!(
                    !lane.contains(&rid),
                    "seed {seed}: {rid} took the lane and reached a database's commit path"
                ),
                TraceKind::ReadFallback { rid, .. } => {
                    fallbacks += 1;
                    assert!(
                        !lane.contains(&rid.next_attempt()),
                        "seed {seed}: the retry of exhausted {rid} took the lane again"
                    );
                    // The abort moves the client on — unless another
                    // server's lane had answered this attempt already.
                    let moved_on = events.iter().any(|l| match l.kind {
                        TraceKind::ClientRetry { rid: r } | TraceKind::Deliver { rid: r, .. } => {
                            r == rid
                        }
                        _ => false,
                    });
                    assert!(moved_on, "seed {seed}: exhausted {rid} neither retried nor delivered");
                }
                _ => {}
            }
        }
    }
    assert!(fallbacks >= 1, "the sweep never exhausted a snapshot validation");
}

// ---- reads never doom writers ----------------------------------------------

/// A fast-path read racing a writer on the same key must not doom the
/// writer's branch: snapshot reads take no locks. (The engine-level
/// guarantee has a unit test in etx-store; this is the end-to-end shape.)
#[test]
fn concurrent_reads_never_abort_writers() {
    // 50/50 read-write mix hammering 4 accounts over 2 shards: plenty of
    // read-write key collisions in flight at once.
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 31)
        .shards(2)
        .replication(2)
        .clients(4)
        .requests(6)
        .read_path(ReadPathConfig::follower_reads())
        .workload(Workload::ReadMostly { accounts: 4, read_pct: 50, amount: 1 })
        .build();
    let n = s.requests as usize;
    let out = s.run_until_settled(n);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(100));
    // Writers may still conflict with each other (no-wait locking), but a
    // doomed-by-read writer would show as aborts in a run whose only lock
    // traffic besides writers is reads. Compare against the same run with
    // reads down the slow path (where reads DO lock): the fast lane must
    // produce no more aborts.
    let fast_aborts =
        s.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Abort, .. }));
    let mut slow = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 31)
        .shards(2)
        .replication(2)
        .clients(4)
        .requests(6)
        .read_path(ReadPathConfig::disabled())
        .workload(Workload::ReadMostly { accounts: 4, read_pct: 50, amount: 1 })
        .build();
    let out = slow.run_until_settled(n);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    slow.quiesce(Dur::from_millis(100));
    let slow_aborts = slow
        .trace()
        .count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Abort, .. }));
    assert!(
        fast_aborts <= slow_aborts,
        "lock-free reads must not create aborts the locking route avoids \
         (fast {fast_aborts} vs slow {slow_aborts})"
    );
}

// ---- retry rotation and epoch restart (regression) --------------------------

/// A read target that crashes with calls in flight must neither stall
/// the read nor stampede straight to the primaries. The backstop's first
/// firing restarts a multi-shard collect as a **fresh wire epoch** —
/// every stamp re-observed at one instant, stale replies dropped by the
/// round check — and rotates each call to a *different* replica of the
/// same shard; only the second firing escalates to the shard primary.
/// Pure reads on frozen state make any mis-rotation or fractured stamp
/// refresh visible as a wrong value or an unsettled request.
#[test]
fn read_retry_rotates_replicas_before_escalating_to_primaries() {
    let mut retried_total = 0usize;
    let mut rotated_serve = false;
    for seed in [11u64, 42, 170, 901] {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
            .shards(4)
            .replication(3)
            .clients(3)
            .requests(9)
            .read_path(ReadPathConfig::follower_reads())
            .workload(Workload::ReadMostly { accounts: 24, read_pct: 100, amount: 10 })
            .build();
        // Kill one shard-0 replica just as the read burst takes off and
        // bring it back long after: every call routed at it goes
        // unanswered until the backstop rotates the pick.
        let victim = s.shard_replicas(0)[1];
        s.schedule_fault(NemesisWhen::After(Dur(200)), FaultOp::Crash(victim)).unwrap();
        s.schedule_fault(NemesisWhen::After(Dur(60_000)), FaultOp::Recover(victim)).unwrap();
        let n = s.requests as usize;
        let out = s.run_until_settled(n);
        assert_eq!(out, etx::sim::RunOutcome::Predicate, "seed {seed}: must settle");
        s.quiesce(Dur::from_millis(100));
        // Frozen state: every delivered read is exact.
        for (rid, decision) in read_deliveries(&mut s) {
            assert_eq!(decision.outcome, Outcome::Commit, "seed {seed}, {rid}");
            let result = decision.result.expect("reads carry results");
            for (label, value) in result.entries.iter().filter(|(l, _)| l.starts_with("acct")) {
                assert_eq!(*value, 1_000, "seed {seed}, {rid}, {label}: wrong frozen value");
            }
        }
        retried_total += s.reads_retried();
        // The escalation ladder is short: rotate once, then primary. A
        // backoff past 2 would mean the backstop kept shooting past a
        // live, answering primary.
        let mut first_retry: std::collections::HashMap<etx::base::ids::ResultId, _> =
            std::collections::HashMap::new();
        for e in s.trace().events() {
            if let TraceKind::ReadRetried { rid, backoff } = e.kind {
                assert!(
                    backoff <= 2,
                    "seed {seed}, {rid}: retry escalated past the primary tier (backoff {backoff})"
                );
                first_retry.entry(rid).or_insert(e.at);
            }
        }
        // S2's point: the first firing lands on a *replica*, not the
        // primary — somewhere in the sweep a retried read must end up
        // follower-served after its retry.
        for e in s.trace().events() {
            if let TraceKind::FollowerRead { rid } = e.kind {
                if first_retry.get(&rid).is_some_and(|&t| e.at > t) {
                    rotated_serve = true;
                }
            }
        }
    }
    assert!(retried_total >= 1, "the sweep never exercised the read-retry backstop");
    assert!(
        rotated_serve,
        "no retried read was ever served by a rotated-to follower — the first \
         backstop firing is escalating straight to the primaries"
    );
}
