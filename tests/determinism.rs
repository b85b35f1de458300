//! The simulation kernel's reproducibility contract: one seed, one
//! history. Every debugging and property-checking workflow in this repo
//! leans on replayability, so this guard runs the same scenario twice and
//! demands byte-identical traces — and demands that different seeds
//! actually explore different interleavings.

use etx::base::config::{BatchingConfig, FeatureSet, PipelineConfig, SpeculationConfig};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
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
/// recovers while 8 closed-loop clients keep a batched, pipelined server
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
        pipeline: PipelineConfig::new(4),
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
