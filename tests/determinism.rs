//! The simulation kernel's reproducibility contract: one seed, one
//! history. Every debugging and property-checking workflow in this repo
//! leans on replayability, so this guard runs the same scenario twice and
//! demands byte-identical traces — and demands that different seeds
//! actually explore different interleavings.

use etx::base::config::{BatchingConfig, FeatureSet, SpeculationConfig};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::runtime::RuntimeKind;
use etx::base::time::{Dur, Time};
use etx::base::trace::{Component, TraceKind};
use etx::harness::{MiddleTier, ScenarioBuilder, Workload};

/// A non-trivial run: three replicas, two requests, and a primary crash
/// injected mid-protocol, so the trace covers failover, not just the happy
/// path. Returns the full trace as bytes.
fn run_traced(seed: u64) -> Vec<u8> {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
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
    s.run_until_settled(2);
    s.quiesce(Dur::from_millis(50));
    format!("{:#?}", s.trace().events()).into_bytes()
}

/// The sharded variant: 4 shards × 2 replicas, cross-shard transfers, and
/// a crash/recovery cycle on one shard's primary — covers shard routing,
/// the multi-branch decide path, and intra-shard replication catch-up.
fn run_traced_sharded(seed: u64) -> Vec<u8> {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
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
    s.run_until_settled(2);
    s.quiesce(Dur::from_millis(50));
    format!("{:#?}", s.trace().events()).into_bytes()
}

/// The fail-over shape that used to diverge: a shard primary crashes and
/// recovers while 8 closed-loop clients keep a batched, speculating server
/// busy, so its `Ready` notice finds many attempts mid-protocol at once.
/// The order in which the application server walks them decides which
/// `Decide`s and refused votes go out first; that walk once followed a
/// `HashMap`'s per-instance random order, so one seed gave a different
/// run every time — even twice in one process, because every map draws
/// fresh hash keys.
fn run_traced_busy_failover(seed: u64) -> Vec<u8> {
    let features = FeatureSet {
        batching: BatchingConfig::new(64, Dur::from_millis(1)),
        speculation: SpeculationConfig::on(),
        ..FeatureSet::default()
    };
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .runtime(RuntimeKind::Sim)
        .features(features)
        .shards(4)
        .replication(2)
        .clients(8)
        .workload(Workload::ShardedBank { accounts: 64, cross_pct: 10, amount: 3 })
        .requests(60)
        .build();
    let victim = s.shard_primary(0);
    for at in [20, 60] {
        s.schedule_fault(
            NemesisWhen::After(Dur::from_millis(at)),
            FaultOp::CrashFor { node: victim, down_for: Dur::from_millis(15) },
        )
        .expect("the simulator injects faults");
    }
    s.run_until_settled(8 * 60);
    s.quiesce(Dur::from_millis(50));
    assert_eq!(s.delivered_commits(), 8 * 60, "the run must survive its crashes");
    format!("{:#?}", s.trace().events()).into_bytes()
}

/// The comparison protocols under the shape that exposes a walk in hash
/// order: 8 clients keep several cross-database attempts open at once
/// while database 0 goes down for 2 ms three times, so each `Ready` finds
/// attempts in every stage. The primary-backup leg also loses its primary
/// with attempts mirrored at the backup, so the take-over walks them too.
fn run_traced_baseline(tier: MiddleTier, seed: u64) -> Vec<u8> {
    let mut s = ScenarioBuilder::fast(tier, seed)
        .dbs(2)
        .clients(8)
        .workload(Workload::Travel)
        .requests(6)
        .build();
    let db = s.topo.db_servers[0];
    for at in [3, 9, 15] {
        s.schedule_fault(
            NemesisWhen::After(Dur::from_millis(at)),
            FaultOp::CrashFor { node: db, down_for: Dur::from_millis(2) },
        )
        .expect("the simulator injects faults");
    }
    let primary = s.topo.primary();
    if tier == MiddleTier::Pb {
        s.schedule_fault(NemesisWhen::After(Dur::from_millis(12)), FaultOp::Crash(primary))
            .expect("the simulator injects faults");
    }
    s.sim_mut().run_until_time(Time(400_000));
    if tier == MiddleTier::Pb {
        // Every `LogStart` span is a start record the backup acknowledged to
        // the primary (a backup that took over has nobody to mirror to):
        // what its take-over has to walk.
        let mirrored = s.spans().count(Component::LogStart);
        assert!(mirrored >= 2, "the take-over must find several mirrored attempts");
    }
    format!("{:#?}", s.trace().events()).into_bytes()
}

#[test]
fn same_seed_replays_byte_identical_traces_in_the_comparison_protocols() {
    for tier in [MiddleTier::Tpc, MiddleTier::Pb] {
        for seed in 1..=10 {
            assert!(
                run_traced_baseline(tier, seed) == run_traced_baseline(tier, seed),
                "{}, seed {seed}: a database recovering under load replayed differently — \
                 something walks a randomly ordered collection",
                tier.label()
            );
        }
    }
}

#[test]
fn same_seed_replays_byte_identical_traces_through_a_busy_shard_failover() {
    for seed in [7, 0xFA11] {
        assert!(
            run_traced_busy_failover(seed) == run_traced_busy_failover(seed),
            "seed {seed}: a shard-primary crash under load replayed differently — \
             something walks a randomly ordered collection"
        );
    }
}

#[test]
fn same_seed_replays_byte_identical_traces() {
    let first = run_traced(0xE7A);
    let second = run_traced(0xE7A);
    assert_eq!(first, second, "two runs with one seed diverged: the sim kernel broke determinism");
}

#[test]
fn same_seed_replays_byte_identical_sharded_traces() {
    let first = run_traced_sharded(0x5A4D);
    let second = run_traced_sharded(0x5A4D);
    assert_eq!(
        first, second,
        "sharded runs with one seed diverged: routing or replication broke determinism"
    );
}

#[test]
fn different_seeds_explore_different_sharded_interleavings() {
    assert_ne!(run_traced_sharded(21), run_traced_sharded(22));
}

#[test]
fn different_seeds_explore_different_interleavings() {
    let seeds = [1u64, 2, 3];
    let traces: Vec<Vec<u8>> = seeds.iter().map(|&s| run_traced(s)).collect();
    for i in 0..traces.len() {
        for j in (i + 1)..traces.len() {
            assert_ne!(
                traces[i], traces[j],
                "seeds {} and {} produced identical traces: seeding has no effect",
                seeds[i], seeds[j]
            );
        }
    }
}
