//! Chaos: randomized fault schedules, each fully derived from a seed, each
//! checked against the complete §3 specification. A failing seed is a
//! one-line repro.

use etx::base::config::FeatureSet;
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::harness::{feature_corners, run_chaos, ChaosOptions, Schedule, TierCrashOn};

/// The five option sets this file sweeps, over a given feature set:
/// defaults; five replicas with a crashable pair; contending clients under
/// suspicion storms; a lossy network in front of two databases; and four
/// clients whose primary goes down for 30 ms on its first multi-outcome
/// slot — the slot that carries its pre-claims of every member's next
/// attempt, which the survivors must clean and the clients retry past.
fn schedules(features: FeatureSet) -> [ChaosOptions; 5] {
    let base = ChaosOptions { features, ..ChaosOptions::default() };
    [
        base.clone(),
        // Two crashes are still a minority of five.
        ChaosOptions { apps: 5, max_app_crashes: 2, max_db_cycles: 3, ..base.clone() },
        ChaosOptions { clients: 2, requests: 2, max_false_suspicions: 3, ..base.clone() },
        ChaosOptions { dbs: 2, loss_rate: 0.1, max_db_cycles: 2, ..base.clone() },
        ChaosOptions {
            clients: 4,
            requests: 4,
            max_app_crashes: 0,
            primary_outage_on_batch: Some(Dur::from_millis(30)),
            ..base
        },
    ]
}

fn sweep(opts: &ChaosOptions, seeds: u64) {
    for seed in 0..seeds {
        run_chaos(seed, opts, RuntimeKind::Sim).assert_ok();
    }
}

#[test]
fn hundred_chaos_schedules_on_default_options() {
    sweep(&schedules(FeatureSet::default())[0], 100);
}

#[test]
fn chaos_with_more_crashes_and_five_replicas() {
    sweep(&schedules(FeatureSet::default())[1], 40);
}

#[test]
fn chaos_with_contending_clients() {
    sweep(&schedules(FeatureSet::default())[2], 40);
}

#[test]
fn chaos_with_lossy_network_and_two_dbs() {
    sweep(&schedules(FeatureSet::default())[3], 40);
}

#[test]
fn chaos_with_a_primary_outage_on_its_first_batch() {
    // The paper's shape never forms a batch, so the outage is swept over
    // the pipelined feature set (every corner gets fewer seeds below).
    let opts = &schedules(feature_corners()[1].1)[4];
    let mut fired = 0;
    for seed in 0..40 {
        let out = run_chaos(seed, opts, RuntimeKind::Sim);
        out.assert_ok();
        fired += usize::from(out.scenario.batched_slots() >= 1);
    }
    assert!(fired >= 30, "only {fired} of 40 seeds formed the batch that triggers the outage");
}

/// The schedules above (fewer seeds each) plus multi-client hot-shard
/// chaos over a sharded, replicated back end, in every row of the
/// feature table — so each configuration the benchmark measures is also
/// §3-checked under faults, and is proven to have been the configuration
/// that actually ran.
#[test]
fn every_feature_corner_holds_the_spec_under_chaos() {
    for (corner, features) in feature_corners() {
        for opts in &schedules(features) {
            sweep(opts, 10);
        }

        let hot = ChaosOptions {
            schedule: Schedule::HotShard,
            clients: 4,
            requests: 4,
            shards: Some(4),
            replication: 2,
            features,
            ..ChaosOptions::default()
        };
        let (mut batched, mut speculated, mut leased) = (0, 0, 0);
        for seed in 0..8u64 {
            let out = run_chaos(seed, &hot, RuntimeKind::Sim);
            out.assert_ok();
            let s = &out.scenario;
            batched += s.batched_slots();
            speculated += s.spec_hits() + s.spec_aborts();
            leased += s.lease_grants();
        }
        let pipelined = features.batching.is_batching();
        assert_eq!(batched >= 1, pipelined, "{corner}: {batched} multi-request slots");
        assert_eq!(speculated >= 1, pipelined, "{corner}: {speculated} speculated slots resolved");
        assert_eq!(
            leased >= 1,
            features.read_leases.enabled,
            "{corner}: {leased} timer-driven lease grants"
        );
    }
}

/// The whole middle tier down at once: every application server crashes
/// for 50 ms on the run's first delivery, first vote or first decide, so
/// no round state survives anywhere in the tier — in every feature
/// corner, with one client and with four. The paper's shape runs the flat
/// bank; the pipelined corners a 2-shard × rf 2 bank with cross-shard
/// transfers. §3 must hold with both liveness properties, and every run
/// must have taken all three servers down.
#[test]
fn the_whole_middle_tier_down_at_once_holds_the_spec() {
    for (corner, features) in feature_corners() {
        let shards = (corner != "paper").then_some(2);
        for on in [TierCrashOn::Deliver, TierCrashOn::DbVote, TierCrashOn::DbDecide] {
            for clients in [1, 4] {
                let opts = ChaosOptions {
                    schedule: Schedule::WholeTier(on),
                    clients,
                    requests: 30,
                    shards,
                    replication: 2,
                    features,
                    ..ChaosOptions::default()
                };
                for seed in 1..=6 {
                    let out = run_chaos(seed, &opts, RuntimeKind::Sim);
                    out.assert_ok();
                    let s = &out.scenario;
                    let crashed = s.trace().events().iter().filter(|e| {
                        matches!(e.kind, TraceKind::Crash) && s.topo.app_servers.contains(&e.node)
                    });
                    assert_eq!(
                        crashed.count(),
                        3,
                        "{corner}, {on:?}, {clients} clients, seed {seed}"
                    );
                }
            }
        }
    }
}
