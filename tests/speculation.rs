//! Speculative queue-oriented execution, end to end.
//!
//! Four families of guarantees:
//!
//! * **overlap shape** — with speculation on, flushed pipeline batches
//!   reach the shard primaries as `SpecExec` frames while their
//!   decision-log slot is still running consensus, and matching decisions
//!   promote the stash (`SpecHit`) instead of paying for the commit again;
//! * **equivalence** — the speculative pipeline commits exactly what the
//!   strict decide-then-execute pipeline commits: same delivered counts,
//!   same durable per-shard state, rebuilt from the WAL;
//! * **mis-speculation** — a decided batch that differs from the
//!   stashed one drops that stash and decides the ordinary way
//!   (`SpecAbort`), to the non-speculative run's values;
//! * **volatility** — a stash is not state: it writes no WAL frame, ships
//!   nothing to followers, and vanishes in a crash, leaving exactly the
//!   recovery obligations of the non-speculative pipeline.
//!
//! And one pinned trace, the only golden with speculation on: a burst
//! whose primary crashes on its first multi-outcome slot replays a golden
//! hash byte for byte.
//!
//! What a full stash drops and keeps is a `DbServer` unit test
//! (`crates/core/src/dbserver.rs`): no scenario knob sizes the stash.

use etx::base::config::{BatchingConfig, SpeculationConfig};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::ids::{NodeId, RequestId, ResultId};
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::base::value::{DbOp, Outcome, Vote};
use etx::harness::{
    check, run_chaos, ChaosOptions, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder,
    Schedule, Summary, Workload,
};
use etx::sim::RunOutcome;
use etx::store::{Engine, Promotion};
use proptest::prelude::*;

/// The canonical speculation workload: an open-loop burst through batches
/// of eight over a sharded, replicated back end.
fn burst(seed: u64, spec: SpeculationConfig) -> Scenario {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .shards(2)
        .replication(2)
        .clients(4)
        .requests(8)
        .batching(BatchingConfig::new(8, Dur::from_millis(1)))
        .speculation(spec)
        .workload(Workload::OpenLoopBurst { accounts: 16, amount: 1 })
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

#[test]
fn speculation_overlaps_consensus_and_commits_what_the_strict_pipeline_commits() {
    // Same seed, both pipelines: the speculative one must actually
    // speculate (SpecExec shipped, matching decisions promoted) and end
    // in exactly the strict pipeline's durable state. The burst workload
    // commits every request exactly once, so the final state is
    // schedule-independent — the strongest equivalence a reordering
    // optimisation can be held to.
    let on = settle(burst(4201, SpeculationConfig::on()));
    let off = settle(burst(4201, SpeculationConfig::disabled()));
    let expected = on.requests as usize;
    assert_eq!(on.delivered_commits(), expected);
    assert_eq!(off.delivered_commits(), expected);
    assert!(on.spec_execs() >= 1, "a deep open-loop burst must ship speculative batches");
    assert!(on.spec_hits() >= 1, "fault-free speculation must promote at least one batch");
    // Each proposal ships once: a frame shipped twice would find its stash
    // already there and be refused untraced.
    assert_eq!(
        on.stats().sent("SpecExec"),
        on.spec_execs() as u64,
        "every frame shipped is stashed once"
    );
    assert_eq!(off.spec_execs(), 0, "speculation off must not ship SpecExec frames");
    assert_eq!(off.spec_hits() + off.spec_aborts(), 0);
    // What the overlap buys, on the simulated clock: execution no longer
    // waits out the consensus round, so the same burst delivers sooner.
    let mean_ms = |s: &Scenario| Summary::of(&s.request_latencies_ms()).mean;
    assert!(
        mean_ms(&on) < mean_ms(&off),
        "speculation must lower mean issue→deliver latency ({:.3} vs {:.3} ms)",
        mean_ms(&on),
        mean_ms(&off)
    );
    for shard in 0..2 {
        let reference = off.rebuilt_committed(off.shard_primary(shard));
        let replicas: Vec<_> = on.shard_replicas(shard).to_vec();
        for replica in replicas {
            assert_eq!(
                on.rebuilt_committed(replica),
                reference,
                "speculative replica {replica} of shard {shard} diverged from the strict run"
            );
        }
    }
}

#[test]
fn mis_speculation_aborts_and_replays_to_the_nonspeculative_values() {
    // Force proposal races for the same decision-log slot: crash the
    // default primary the moment a database stashes its first speculative
    // batch — the proposal is mid-consensus, so a surviving replica
    // re-proposes the orphaned outcomes and the slot can decide with a
    // batch the stash does not match. Across a seed sweep at least one
    // run must take the SpecAbort path, and every run — aborted or not —
    // must still commit exactly the strict pipeline's state.
    let mut aborts = 0;
    for seed in 0..12u64 {
        let mut s = burst(4300 + seed, SpeculationConfig::on());
        let a1 = s.topo.primary();
        s.schedule_fault(
            NemesisWhen::on_trace(move |ev| matches!(ev.kind, TraceKind::SpecExec { .. })),
            FaultOp::Crash(a1),
        )
        .unwrap();
        let s = settle(s);
        aborts += s.spec_aborts();
        let off = settle(burst(4300 + seed, SpeculationConfig::disabled()));
        let expected = s.requests as usize;
        assert_eq!(s.delivered_commits(), expected, "seed {seed}: every request commits");
        assert_eq!(off.delivered_commits(), expected);
        for shard in 0..2 {
            let reference = off.rebuilt_committed(off.shard_primary(shard));
            let replicas: Vec<_> = s.shard_replicas(shard).to_vec();
            for replica in replicas {
                assert_eq!(
                    s.rebuilt_committed(replica),
                    reference,
                    "seed {seed}: replica {replica} of shard {shard} diverged after replay"
                );
            }
        }
    }
    assert!(
        aborts >= 1,
        "the sweep must force at least one mis-speculation (got {aborts} SpecAborts)"
    );
}

#[test]
fn speculation_chaos_crash_between_spec_and_decide_holds_the_spec() {
    // The chaos runner cycles a shard primary the instant it stashes its
    // first speculative batch — strictly between SpecExec and the slot's
    // decision. The buffer is volatile, so the recovered primary replays
    // on the strict path; the full §3 specification must hold throughout.
    let opts = ChaosOptions {
        schedule: Schedule::Speculation,
        apps: 3,
        clients: 2,
        requests: 8,
        shards: Some(2),
        replication: 2,
        ..ChaosOptions::default()
    };
    let mut speculated_runs = 0;
    for seed in 0..12 {
        let out = run_chaos(seed, &opts, RuntimeKind::Sim);
        out.assert_ok();
        if out.scenario.spec_hits() + out.scenario.spec_aborts() > 0 {
            speculated_runs += 1;
        }
    }
    assert!(
        speculated_runs >= 6,
        "most chaos runs must actually resolve speculative batches \
         (got {speculated_runs}/12)"
    );
}

#[test]
fn crashed_speculation_buffer_leaves_no_durable_trace() {
    // Cycle shard 0's primary on its first SpecExec, before the slot
    // decides: the stash dies with the process, and the recovered primary
    // decides the slot decide-then-execute. Afterwards every replica of
    // every shard must rebuild from its WAL to the strict run's committed
    // state — a speculative write that had reached the log or the
    // shipping stream would break convergence.
    let off = settle(burst(4400, SpeculationConfig::disabled()));
    let mut s = burst(4400, SpeculationConfig::on());
    let victim = s.shard_primary(0);
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == victim && matches!(ev.kind, TraceKind::SpecExec { .. })
        }),
        FaultOp::CrashFor { node: victim, down_for: Dur::from_millis(10) },
    )
    .unwrap();
    let s = settle(s);
    assert_eq!(s.delivered_commits(), s.requests as usize);
    for shard in 0..2 {
        let reference = off.rebuilt_committed(off.shard_primary(shard));
        let replicas: Vec<_> = s.shard_replicas(shard).to_vec();
        for replica in replicas {
            assert_eq!(
                s.rebuilt_committed(replica),
                reference,
                "replica {replica} of shard {shard} diverged after the speculation crash"
            );
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The FNV-1a hash of the full debug trace of a speculating burst — 8
/// clients × 32 requests through batches of two — whose default primary
/// crashes the moment it applies its first slot of two or more outcomes.
/// The read-path goldens cover runs without speculation; this one pins
/// what they cannot: where `SpecExec` frames ship, where the crash lands,
/// and how the survivors finish the orphaned slots. A change that means
/// to leave the protocol alone leaves it alone. Re-pinned from
/// `0xC684_A150_57E0_D61E` when a commit pushed at a database that never
/// held the branch stopped making a record, a memo entry, a shipment and
/// a service-time draw, and from `0xC50A_1821_5042_DD3D` when a cleaner's
/// abort stopped reaching the shard followers, which hold no branch: the
/// survivors' cleaner aborts now reach the shard primaries only.
const GOLDEN_PIPELINED: u64 = 0x5938_435D_6115_ED7B;

#[test]
fn the_speculating_burst_replays_its_golden_trace() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 5300)
        .shards(2)
        .replication(2)
        .clients(8)
        .requests(32)
        .batching(BatchingConfig::new(2, Dur::from_millis(1)))
        .speculation(SpeculationConfig::on())
        .workload(Workload::OpenLoopBurst { accounts: 32, amount: 1 })
        .build();
    let a1 = s.topo.primary();
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::BatchDecided { len, .. } if len >= 2)
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
    assert_eq!(hash, GOLDEN_PIPELINED, "the speculating trace changed");
}

// ---- engine-level property: speculation is invisible until promotion -------

fn rid(n: u64) -> ResultId {
    ResultId::first(RequestId { client: NodeId(0), seq: n })
}

fn arb_op() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        (0..4u8, -50..50i64).prop_map(|(k, v)| DbOp::Put { key: format!("k{k}"), value: v }),
        (0..4u8, -10..10i64).prop_map(|(k, d)| DbOp::Add { key: format!("k{k}"), delta: d }),
        (0..4u8, 1..3i64).prop_map(|(k, q)| DbOp::Reserve { key: format!("k{k}"), qty: q }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random interleavings of execute/vote/speculate/decide/promote:
    /// a speculative write never reaches the committed map, the outbox,
    /// or a follower before its slot decides, and the primary's state is
    /// always exactly what a never-speculating twin holds.
    #[test]
    fn speculative_writes_never_reach_a_follower(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(arb_op(), 1..4),
                proptest::collection::vec(arb_op(), 1..4),
                0..3u8, // 0 = no speculation, 1 = promote match, 2 = mismatch
            ),
            1..6,
        ),
    ) {
        let mut primary = Engine::new();
        let mut plain = Engine::new();
        let mut follower = Engine::new();
        for (slot, (ops_a, ops_b, mode)) in rounds.iter().enumerate() {
            let slot = slot as u64;
            let (ra, rb) = (rid(slot * 2 + 1), rid(slot * 2 + 2));
            let mut entries = Vec::new();
            for (r, ops) in [(ra, ops_a), (rb, ops_b)] {
                primary.execute(r, ops);
                plain.execute(r, ops);
                let (vote, _) = primary.vote(r);
                let (twin_vote, _) = plain.vote(r);
                prop_assert_eq!(vote, twin_vote);
                let outcome = if vote == Vote::Yes { Outcome::Commit } else { Outcome::Abort };
                entries.push((r, outcome));
            }
            if *mode > 0 {
                let before = (primary.snapshot().clone(), primary.ship_position());
                prop_assert!(primary.speculate(slot, &entries, Dur::ZERO, 4).is_some());
                // Buffered, not state: nothing committed, nothing shipped.
                prop_assert_eq!(primary.snapshot(), &before.0);
                prop_assert_eq!(primary.ship_position(), before.1);
                prop_assert!(primary.take_repl_outbox().is_empty());
            }
            // The decided batch: as speculated on a match, reversed on a
            // forced mismatch (a genuinely different slot order).
            let decided: Vec<_> = if *mode == 2 && entries.len() > 1 {
                entries.iter().rev().cloned().collect()
            } else {
                entries.clone()
            };
            match primary.promote_speculation(slot, &decided) {
                Promotion::Hit(_) => prop_assert!(*mode == 1),
                other => {
                    let stashed = if *mode == 0 { Promotion::Absent } else { Promotion::Miss };
                    prop_assert_eq!(other, stashed);
                    let _ = primary.decide_batch(&decided);
                }
            }
            let _ = plain.decide_batch(&decided);
            prop_assert_eq!(
                primary.snapshot(), plain.snapshot(),
                "slot {} (mode {}): speculation changed the decided state", slot, mode
            );
            // Ship to the follower: it must land exactly on the primary.
            let shipped = primary.take_repl_outbox();
            let _ = follower.apply_replicated_batch(shipped);
            prop_assert_eq!(follower.snapshot(), primary.snapshot());
        }
        prop_assert_eq!(primary.spec_slots(), 0, "every stash resolved or discarded");
    }
}
