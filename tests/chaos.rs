//! Chaos: randomized fault schedules, each fully derived from a seed, each
//! checked against the complete §3 specification. A failing seed is a
//! one-line repro.

use etx::base::config::FeatureSet;
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::harness::{feature_corners, run_chaos, run_hot_shard_chaos, ChaosOptions};

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
        run_chaos(seed, opts).assert_ok();
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
        let out = run_chaos(seed, opts);
        out.assert_ok();
        fired += usize::from(out.batched_slots >= 1);
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
            clients: 4,
            requests: 4,
            shards: Some(4),
            replication: 2,
            features,
            ..ChaosOptions::default()
        };
        let (mut batched, mut speculated, mut leased) = (0, 0, 0);
        for seed in 0..8u64 {
            let out = run_hot_shard_chaos(seed, &hot, RuntimeKind::Sim);
            out.assert_ok();
            batched += out.batched_slots;
            speculated += out.spec_hits + out.spec_aborts;
            leased += out.lease_grants;
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
