//! Time-bounded read leases, end to end.
//!
//! Four families of guarantees:
//!
//! * **forward-free serving** — with leases on and replication healthy,
//!   an in-lease follower serves every fast-path read (including
//!   multi-shard collects) locally: zero `ReadForwarded` hops at scale;
//! * **staleness bound** — a follower cut off from its primary keeps
//!   serving only until its last grant expires, then refuses and forwards
//!   (`LeaseExpired`): the lease duration is a hard bound on how long a
//!   partitioned replica may answer;
//! * **failover drain** — a recovering grantor fences its write
//!   acknowledgements until every lease its previous incarnation could
//!   have granted has lapsed, so nothing a still-leased follower serves
//!   can contradict an acknowledged post-recovery write;
//! * **atomicity and causality survive** — the 12 %-loss fracture sweep
//!   stays green with follower-served collects, read-your-writes holds
//!   across lease boundaries, and leases-off is byte-identical to the
//!   lease-free build (pinned in `read_path.rs`).

use etx::base::config::{ReadLeaseConfig, ReadPathConfig};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::runtime::RuntimeKind;
use etx::base::time::{Dur, Time};
use etx::base::trace::TraceKind;
use etx::base::value::Outcome;
use etx::harness::{
    run_chaos, ChaosOptions, MiddleTier, Scenario, ScenarioBuilder, Schedule, Workload,
};
use etx::sim::RunOutcome;

fn settle(s: &mut Scenario) {
    let n = s.requests as usize;
    let out = s.run_until_settled(n);
    assert_eq!(out, RunOutcome::Predicate, "every request must settle");
    s.quiesce(Dur::from_millis(100));
}

// ---- forward-free serving at scale ------------------------------------------

/// The tentpole's acceptance shape: 16 shards, 90 % reads, leases on —
/// in-lease followers serve every read that reaches them, and no read
/// takes the `ReadForwarded` hop. (With healthy replication every
/// follower is continuously in lease, so "zero forwards in in-lease
/// windows" is simply zero forwards.)
#[test]
fn sixteen_shards_ninety_percent_reads_never_forward_while_leased() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 161)
        .shards(16)
        .replication(2)
        .clients(4)
        .requests(10)
        .read_path(ReadPathConfig::follower_reads())
        .read_leases(ReadLeaseConfig::fast_for_tests())
        .workload(Workload::ReadMostly { accounts: 64, read_pct: 90, amount: 10 })
        .build();
    settle(&mut s);
    assert!(s.lease_grants() >= 1, "primaries must be granting leases");
    assert!(s.follower_reads_served() >= 1, "followers must serve reads locally");
    assert_eq!(s.reads_forwarded(), 0, "an in-lease follower must never take the forward hop");
    assert_eq!(s.lease_expired_reads(), 0, "healthy renewals must never lapse");
}

/// Multi-shard collects — primary-only before this change — are served by
/// in-lease followers: at least one fan-out read resolves with a follower
/// serving one of its shard calls, and none of them forwards.
#[test]
fn in_lease_followers_serve_multi_shard_collects() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 47)
        .shards(4)
        .replication(2)
        .clients(4)
        .requests(8)
        .read_path(ReadPathConfig::follower_reads())
        .read_leases(ReadLeaseConfig::fast_for_tests())
        .workload(Workload::ReadMostly { accounts: 32, read_pct: 100, amount: 10 })
        .build();
    settle(&mut s);
    let trace = s.trace();
    let multi: Vec<_> = trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::ReadFastPath { rid, shards } if shards >= 2 => Some(rid),
            _ => None,
        })
        .collect();
    assert!(!multi.is_empty(), "the mix must produce cross-shard fan-out reads");
    let follower_served_collect = trace
        .events()
        .iter()
        .any(|e| matches!(e.kind, TraceKind::FollowerRead { rid } if multi.contains(&rid)));
    assert!(
        follower_served_collect,
        "a multi-shard collect must be served (at least partly) by an in-lease follower"
    );
    assert_eq!(s.reads_forwarded(), 0, "no collect call may forward while leased");
}

// ---- the staleness bound ----------------------------------------------------

/// A follower cut off from its primary mid-run: renewals ride the
/// replication stream, so the grant lapses one lease duration after the
/// partition, and every later read aimed at that follower is refused
/// (`LeaseExpired`) and forwarded. Before the cut the same follower was
/// serving in-lease. State is frozen (pure reads), so every delivered
/// value must be the seed value throughout.
#[test]
fn starved_follower_serves_until_expiry_then_forwards() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 83)
        .shards(2)
        .replication(2)
        .clients(4)
        .requests(24)
        .read_path(ReadPathConfig::follower_reads())
        .read_leases(ReadLeaseConfig::fast_for_tests())
        .workload(Workload::ReadMostly { accounts: 8, read_pct: 100, amount: 10 })
        .build();
    // Cut shard 0's replication (and with it lease renewal) 6 ms in —
    // far beyond the first grants, well before the run drains.
    let replicas = s.shard_replicas(0).to_vec();
    s.quiesce(Dur::from_millis(6));
    s.fault(FaultOp::BlockLink {
        from: replicas[0],
        to: replicas[1],
        heal_after: Dur(3_600_000_000),
    })
    .unwrap();
    settle(&mut s);
    assert!(
        s.follower_reads_served() >= 1,
        "the follower must serve in-lease before the partition"
    );
    assert!(
        s.lease_expired_reads() >= 1,
        "reads after the grant lapses must be refused with LeaseExpired"
    );
    for (rid, decision) in s.delivered_results() {
        assert_eq!(decision.outcome, Outcome::Commit);
        let result = decision.result.expect("reads carry results");
        for (label, value) in &result.entries {
            if label.starts_with("acct") {
                assert_eq!(*value, 1_000, "{rid}: {label} served stale or fabricated state");
            }
        }
    }
}

// ---- the failover drain -----------------------------------------------------

/// A crashed grantor recovers while leases it granted may still be live.
/// Recovery must fence its commit acknowledgements until those leases
/// have provably lapsed: any write it decides inside the fence window
/// cannot reach its client before the fence lifts (the acknowledgement —
/// which is what lets application servers treat the write as readable —
/// is what the fence delays).
#[test]
fn recovered_grantor_fences_acks_until_granted_leases_lapse() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 29)
        .shards(2)
        .replication(2)
        .clients(4)
        .requests(10)
        .read_path(ReadPathConfig::follower_reads())
        .read_leases(ReadLeaseConfig::fast_for_tests())
        .workload(Workload::ReadAfterWrite { accounts: 16, amount: 10 })
        .build();
    let grantor = s.shard_primary(0);
    let t_rec = Time(8_000);
    s.schedule_fault(NemesisWhen::After(Dur(5_000)), FaultOp::Crash(grantor)).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur(t_rec.0)), FaultOp::Recover(grantor)).unwrap();
    settle(&mut s);
    assert!(s.lease_fences() >= 1, "recovery with leases on must install a fence");
    let trace = s.trace();
    let until = trace
        .events()
        .iter()
        .find_map(|e| match e.kind {
            TraceKind::LeaseFence { until } if e.node == grantor && e.at >= t_rec => Some(until),
            _ => None,
        })
        .expect("the recovered grantor must trace its fence");
    assert!(until > t_rec, "the fence must extend past recovery");
    // Every write the grantor decided inside the fence window delivers to
    // its client only after the fence lifts.
    let fenced_rids: Vec<_> = trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::DbDecide { rid, outcome: Outcome::Commit }
                if e.node == grantor && e.at >= t_rec && e.at < until =>
            {
                Some(rid)
            }
            _ => None,
        })
        .collect();
    assert!(
        !fenced_rids.is_empty(),
        "the backlog must land at the recovered grantor inside the fence window"
    );
    for e in trace.events() {
        if let TraceKind::Deliver { rid, .. } = e.kind {
            if fenced_rids.contains(&rid) {
                assert!(
                    e.at >= until,
                    "{rid}: delivered at {:?}, before the fence lifted at {until:?} — \
                     a still-leased follower could contradict this acknowledged write",
                    e.at
                );
            }
        }
    }
}

// ---- atomicity under loss (the fracture sweep, lease edition) ---------------

/// The conserved-pair invariant with leases on: multi-shard collects
/// served by in-lease followers under 12 % message loss never observe a
/// cross-shard transfer half-applied. This is the lease soundness
/// argument's load-bearing test — the lease duration sits below the
/// exec→commit-visible protocol floor, so a follower that could serve a
/// fractured prefix is out of lease at the dangerous moment and forwards
/// into the primary's in-doubt veto.
#[test]
fn leased_cross_shard_reads_never_observe_fractured_transfers() {
    let workload = Workload::ConservedPairs { pairs: 8, read_pct: 80, amount: 7 };
    for seed in [2u64, 19, 1009] {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
            .shards(4)
            .replication(2)
            .clients(8)
            .requests(14)
            .read_path(ReadPathConfig::follower_reads())
            .read_leases(ReadLeaseConfig::fast_for_tests())
            .net(etx::sim::NetConfig {
                min_delay: Dur::from_micros(100),
                max_delay: Dur::from_micros(300),
                loss_rate: 0.12,
                retransmit_gap: Dur::from_millis(8),
            })
            .workload(workload.clone())
            .build();
        settle(&mut s);
        let trace = s.trace();
        let multi: Vec<_> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::ReadFastPath { rid, shards } if shards >= 2 => Some(rid),
                _ => None,
            })
            .collect();
        assert!(!multi.is_empty(), "seed {seed}: no cross-shard fast read in the run");
        assert!(
            trace
                .events()
                .iter()
                .any(|e| matches!(e.kind, TraceKind::FollowerRead { rid } if multi.contains(&rid))),
            "seed {seed}: the sweep must exercise follower-served collects"
        );
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
            assert_eq!(total, 2_000, "seed {seed}, {rid}: fractured leased read — {result}");
        }
        assert!(reads_checked >= 40, "seed {seed}: too few pair reads to mean anything");
        let grand: i64 = (0..4u32)
            .map(|shard| s.rebuilt_committed(s.shard_primary(shard)).values().sum::<i64>())
            .sum();
        assert_eq!(grand, 16_000, "seed {seed}: transfers must conserve the grand total");
    }
}

// ---- read-your-writes across lease boundaries -------------------------------

/// Sequential write→read pairs with leases on: every read must observe
/// its own preceding write, whether the follower serves it in lease (the
/// causality-token floor replaces the server-wide stamp) or replication
/// lag forces the pair's read back to the primary.
#[test]
fn read_your_writes_holds_across_lease_boundaries() {
    for seed in [3u64, 17, 99, 2024] {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
            .shards(4)
            .replication(2)
            .requests(8)
            .read_path(ReadPathConfig::follower_reads())
            .read_leases(ReadLeaseConfig::fast_for_tests())
            .workload(Workload::ReadAfterWrite { accounts: 16, amount: 10 })
            .build();
        settle(&mut s);
        let mut reads = 0;
        for (rid, decision) in s.delivered_results() {
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
                    "seed {seed}, {rid}: leased read missed the pair's own write"
                );
            }
        }
        assert_eq!(reads, 4, "seed {seed}: all four reads must deliver");
    }
}

// ---- leases need the read lane ----------------------------------------------

/// Leases cover fast-lane reads and nothing else: asked for without the
/// lane, the builder disables them, so no grant timer, lease frame or
/// recovery fence ever enters the schedule of a write-only scenario.
#[test]
fn leases_without_the_read_lane_are_disabled() {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 7)
        .shards(2)
        .replication(2)
        .clients(2)
        .requests(8)
        .read_leases(ReadLeaseConfig::fast_for_tests())
        .workload(Workload::ReadMostly { accounts: 16, read_pct: 50, amount: 10 })
        .build();
    settle(&mut s);
    assert_eq!(s.fast_path_reads(), 0, "the lane is off: reads take the commit route");
    assert_eq!(s.lease_grants(), 0, "no lane, no leases to grant");
}

// ---- the read-lease chaos scenario ------------------------------------------

/// The grantor primary is crash/recovery-cycled on the first fast-path
/// read (leases outstanding), another shard's replication stream is
/// blocked (lease starvation) — the full §3 specification must hold and
/// the lease machinery must demonstrably engage across the sweep.
#[test]
fn read_lease_chaos_holds_the_spec_across_seeds() {
    let opts = ChaosOptions {
        schedule: Schedule::ReadLease,
        apps: 3,
        clients: 2,
        requests: 8,
        shards: Some(4),
        replication: 2,
        ..Default::default()
    };
    let mut any_granted = false;
    let mut any_lapsed = false;
    for seed in [5u64, 77, 303, 9001] {
        let outcome = run_chaos(seed, &opts, RuntimeKind::Sim);
        outcome.assert_ok();
        let s = &outcome.scenario;
        any_granted |= s.lease_grants() > 0;
        any_lapsed |= s.lease_expired_reads() > 0 || s.reads_forwarded() > 0;
    }
    assert!(any_granted, "the chaos sweep never had leases outstanding");
    assert!(any_lapsed, "the starved shard must force lapsed or forwarded reads somewhere");
}

// ---- determinism ------------------------------------------------------------

/// Lease timers, renewals and fences are on the simulated clock like
/// everything else: one seed, one history, byte for byte.
#[test]
fn leased_runs_replay_byte_identical_traces() {
    let run = || {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0x1EA5E)
            .shards(4)
            .replication(2)
            .clients(2)
            .requests(8)
            .read_path(ReadPathConfig::follower_reads())
            .read_leases(ReadLeaseConfig::fast_for_tests())
            .workload(Workload::ReadAfterWrite { accounts: 16, amount: 10 })
            .build();
        let grantor = s.shard_primary(0);
        s.schedule_fault(NemesisWhen::After(Dur(5_000)), FaultOp::Crash(grantor)).unwrap();
        s.schedule_fault(NemesisWhen::After(Dur(8_000)), FaultOp::Recover(grantor)).unwrap();
        settle(&mut s);
        format!("{:#?}", s.trace().events()).into_bytes()
    };
    assert_eq!(run(), run(), "a leased failover run diverged between replays");
}
