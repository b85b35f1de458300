//! The pipelined decision log, end to end.
//!
//! Four families of guarantees:
//!
//! * **compatibility** — depth 1 *is* the single-slot pipeline: a depth-1
//!   run (and a deep window that never fills) replays the pre-pipeline
//!   trace byte for byte;
//! * **overlap shape** — under load, a deep window genuinely keeps ≥ 2
//!   decision-log slots in consensus at once (the `PipelineWindow` trace
//!   high-water mark), ships a `SpecExec` for every proposed slot, and
//!   still applies strictly in slot order;
//! * **equivalence** — whatever the window depth, the pipeline commits
//!   exactly what the depth-1 strict run commits: same delivered counts,
//!   same durable per-shard state, rebuilt from the WAL;
//! * **fault tolerance** — crashing the proposing primary with ≥ 2
//!   undecided slots in flight, or a shard primary holding a stash for
//!   each of them, leaves the full §3 specification intact and the
//!   replayed values equal to the depth-1 run's.
//!
//! And one pinned trace: the pipelined feature set (speculation on, a deep
//! window) with that primary crash replays a golden hash byte for byte.

use etx::base::config::{BatchingConfig, PipelineConfig, SpeculationConfig};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::harness::{
    check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Summary, Workload,
};
use etx::sim::RunOutcome;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// The canonical pipelining workload: an open-loop burst through small
/// batches, so consecutive flushes land in separate slots and a deep
/// window has rounds to overlap.
fn burst(seed: u64, depth: usize, spec: SpeculationConfig) -> Scenario {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .shards(2)
        .replication(2)
        .clients(8)
        .requests(32)
        .batching(BatchingConfig::new(2, Dur::from_millis(1)))
        .pipeline(PipelineConfig::new(depth))
        .speculation(spec)
        .workload(Workload::OpenLoopBurst { accounts: 32, amount: 1 })
        .build()
}

/// Runs a scenario to settlement, checks §3, and returns it for state
/// inspection.
fn settle(mut s: Scenario) -> Scenario {
    let expected = s.requests as usize;
    let out = s.run_until_settled(expected);
    assert_eq!(out, RunOutcome::Predicate, "every burst request must settle");
    s.quiesce(Dur::from_millis(400));
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
    s
}

/// The durable per-shard state of the depth-1 strict run: every burst
/// request committed exactly once, rebuilt from the shard primaries' WALs.
/// The burst's keys are a fixed hash of client and sequence number and
/// every request commits, so this state is the same for every seed and
/// every schedule — one run serves as the reference for every test here.
fn depth_one_state() -> &'static [BTreeMap<String, i64>] {
    static STATE: OnceLock<Vec<BTreeMap<String, i64>>> = OnceLock::new();
    STATE.get_or_init(|| {
        let mut one = settle(burst(5201, 1, SpeculationConfig::disabled()));
        assert_eq!(one.delivered_commits(), one.requests as usize);
        assert_eq!(one.pipeline_window_peak(), 0, "depth 1 never overlaps rounds");
        (0..2).map(|shard| one.rebuilt_committed(one.shard_primary(shard))).collect()
    })
}

/// Asserts every replica of every shard rebuilds from its WAL to the
/// reference state — the strongest equivalence a reordering optimisation
/// can be held to.
fn assert_matches_reference(run: &mut Scenario, reference: &[BTreeMap<String, i64>], label: &str) {
    for (shard, expect) in reference.iter().enumerate() {
        let replicas: Vec<_> = run.shard_replicas(shard as u32).to_vec();
        for replica in replicas {
            assert_eq!(
                &run.rebuilt_committed(replica),
                expect,
                "{label}: replica {replica} of shard {shard} diverged from the depth-1 run"
            );
        }
    }
}

#[test]
fn depth_one_replays_the_single_slot_pipeline_byte_for_byte() {
    // A sequential client never has two outcomes pending at once, so the
    // window never fills whatever its depth: depth 1 and a deep depth-8
    // window must produce the same trace, byte for byte.
    let run = |depth: usize| {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 5101)
            .workload(Workload::BankUpdate { amount: 7 })
            .requests(6)
            .batching(BatchingConfig::new(64, Dur::from_millis(2)))
            .pipeline(PipelineConfig::new(depth))
            .build();
        let out = s.run_until_settled(6);
        assert_eq!(out, RunOutcome::Predicate);
        s.quiesce(Dur::from_millis(200));
        s
    };
    let one = run(1);
    let deep = run(8);
    assert_eq!(one.delivered_commits(), 6);
    assert_eq!(
        one.trace().events(),
        deep.trace().events(),
        "a window a sequential client cannot fill must leave no trace of itself"
    );
    assert_eq!(deep.pipeline_window_peak(), 0, "no overlap ever happened");
}

#[test]
fn deep_window_overlaps_rounds_and_commits_the_depth_one_state() {
    // Same seed, depth 4 (speculating) vs depth 1 (strict): the deep run
    // must genuinely overlap consensus rounds — ≥ 2 undecided slots in
    // flight at its peak — and ship SpecExec frames for more than one
    // distinct slot, yet end in exactly the strict run's durable state.
    let mut deep = settle(burst(5201, 4, SpeculationConfig::on()));
    assert_eq!(deep.delivered_commits(), deep.requests as usize);
    assert!(
        deep.pipeline_window_peak() >= 2,
        "a depth-4 open-loop burst must keep ≥2 slots in consensus at once \
         (peak {})",
        deep.pipeline_window_peak()
    );
    let spec_slots: BTreeSet<u64> = deep
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::SpecExec { slot, .. } => Some(slot),
            _ => None,
        })
        .collect();
    assert!(
        spec_slots.len() >= 2,
        "every proposed slot in the window ships for speculation, not just the head \
         (got slots {spec_slots:?})"
    );
    // Each proposal ships once: a frame shipped twice would find its stash
    // already there and be refused untraced.
    let stashed = deep.trace().events().iter();
    let stashed = stashed.filter(|e| matches!(e.kind, TraceKind::SpecExec { .. })).count();
    assert_eq!(
        deep.stats().sent("SpecExec"),
        stashed as u64,
        "every frame shipped is stashed once"
    );
    assert!(deep.spec_hits() >= 1, "fault-free overlap must promote at least one batch");
    assert_matches_reference(&mut deep, depth_one_state(), "deep window");
}

#[test]
fn a_deep_window_lowers_latency_when_flushes_outrun_the_consensus_round() {
    // A single undecided slot only serialises anything when flushes arrive
    // faster than a round decides: sixteen closed-loop clients over eight
    // shards with a 200 µs flush window (below the ~0.35 ms write round of
    // the fast cost model), on an account space wide enough that lock
    // conflicts — whose retries swamp a sub-millisecond effect — stay
    // rare. There, depth 1 parks each flush behind the round in flight
    // and a depth-4 window does not: about 0.06 ms off a 5.6 ms mean, on
    // 39 of 40 seeds. Summed over three, because one run's mean still
    // moves with which requests happen to collide. (A burst against a
    // single shard cannot show this: its one database serialises 2 ms of
    // SQL per attempt, outcomes leave it slower than rounds decide, and
    // depth 4 then wins or loses by which requests conflict — 26 of 60
    // seeds.)
    let mean_latency_ms = |depth: usize| -> f64 {
        (0..3)
            .map(|seed| {
                let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0xBA7C4 + seed)
                    .shards(8)
                    .clients(16)
                    .requests(12)
                    .batching(BatchingConfig::new(64, Dur::from_micros(200)))
                    .speculation(SpeculationConfig::on())
                    .pipeline(PipelineConfig::new(depth))
                    .workload(Workload::ShardedBank { accounts: 4096, cross_pct: 0, amount: 1 })
                    .build();
                let n = s.requests as usize;
                assert_eq!(s.run_until_settled(n), RunOutcome::Predicate);
                Summary::of(&s.request_latencies_ms()).mean
            })
            .sum::<f64>()
            / 3.0
    };
    let (one, deep) = (mean_latency_ms(1), mean_latency_ms(4));
    assert!(deep < one, "depth 4 ({deep:.3} ms) must beat the single-slot log ({one:.3} ms)");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The FNV-1a hash of the full debug trace of a pipelined burst —
/// speculation on, window depth 4 — whose default primary crashes the
/// moment it first holds two undecided slots. The read-path goldens cover
/// depth 1 without speculation; this one pins what they cannot: where
/// `SpecExec` frames ship, where `PipelineWindow` is traced (and so where
/// the crash lands), and how the survivors finish the orphaned slots. A
/// change that means to leave the protocol alone leaves it alone.
const GOLDEN_PIPELINED: u64 = 0xC0DE_88F3_6ECA_57D1;

#[test]
fn the_pipelined_feature_set_replays_its_golden_trace() {
    let mut s = burst(5300, 4, SpeculationConfig::on());
    let a1 = s.topo.primary();
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::PipelineWindow { open } if open >= 2)
        }),
        FaultOp::Crash(a1),
    )
    .unwrap();
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(50));
    let events = s.trace().events();
    assert!(events.iter().any(|e| e.node == a1 && matches!(e.kind, TraceKind::Crash)));
    let hash = fnv1a(format!("{events:#?}").as_bytes());
    assert_eq!(hash, GOLDEN_PIPELINED, "the pipelined trace changed");
}

#[test]
fn primary_crash_with_a_deep_window_replays_to_the_depth_one_values() {
    // The chaos sweep of the pipelined window: crash the default primary
    // the moment *it* reports ≥ 2 undecided slots in flight — both rounds
    // are mid-consensus, so surviving replicas must arbitrate the orphaned
    // slots, re-propose unserved outcomes, and abort any stash a slot
    // outdecided. Every seed must hold the full §3 specification and
    // land exactly on the depth-1 run's values. (One thread per seed: the
    // runs are independent, and the sweep is most of this file's time.)
    let one = depth_one_state();
    let crash_run = |seed: u64| {
        let mut s = burst(5300 + seed, 4, SpeculationConfig::on());
        let a1 = s.topo.primary();
        s.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == a1 && matches!(ev.kind, TraceKind::PipelineWindow { open } if open >= 2)
            }),
            FaultOp::Crash(a1),
        )
        .unwrap();
        let mut s = settle(s);
        assert_eq!(
            s.delivered_commits(),
            s.requests as usize,
            "seed {seed}: every request commits"
        );
        assert_matches_reference(&mut s, one, &format!("seed {seed}"));
        s.pipeline_window_peak() >= 2
    };
    let deep_windows = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..12u64).map(|seed| scope.spawn(move || crash_run(seed))).collect();
        runs.into_iter()
            .map(|run| run.join().expect("a sweep seed failed"))
            .filter(|&deep| deep)
            .count()
    });
    assert!(
        deep_windows >= 6,
        "most sweep runs must actually crash the primary with ≥2 undecided slots \
         (got {deep_windows}/12)"
    );
}

#[test]
fn stacked_speculation_buffers_die_with_the_shard_primary() {
    // Under a deep window a shard primary holds one stash per proposed
    // slot. Cycle it on its first SpecExec: the stashes and their pre-paid
    // instants are volatile, so the recovered primary decides every
    // affected slot decide-then-execute — and every replica must still
    // rebuild to the depth-1 run's state from its WAL.
    let mut s = burst(5401, 4, SpeculationConfig::on());
    let victim = s.shard_primary(0);
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == victim && matches!(ev.kind, TraceKind::SpecExec { .. })
        }),
        FaultOp::CrashFor { node: victim, down_for: Dur::from_millis(10) },
    )
    .unwrap();
    let mut s = settle(s);
    assert_eq!(s.delivered_commits(), s.requests as usize);
    assert_matches_reference(&mut s, depth_one_state(), "stash crash");
}
