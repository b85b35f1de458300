//! Randomized fault-schedule exploration ("chaos testing").
//!
//! A seed deterministically generates a fault schedule — application-server
//! crashes (bounded by the minority assumption), database crash/recovery
//! cycles, false-suspicion windows, message loss — and the runner checks
//! the full e-Transaction specification on the resulting history. Every
//! failure is reproducible from its seed.
//!
//! Faults are expressed through the backend-neutral fault plane
//! ([`Scenario::schedule_fault`] / [`etx_base::fault::FaultOp`]), so one
//! nemesis schedule drives either runtime: the runners that take a
//! [`RuntimeKind`] run the same schedule on the simulator or against the
//! wall-clock host — real clocks, real crashes, the same §3 judge.

use crate::properties::{check, LivenessChecks, PropertyReport};
use crate::scenario::{MiddleTier, Scenario, ScenarioBuilder};
use crate::workloads::Workload;
use etx_base::config::{
    BatchingConfig, FeatureSet, ReadLeaseConfig, ReadPathConfig, SpeculationConfig,
};
use etx_base::fault::{FaultOp, NemesisWhen};
use etx_base::runtime::RuntimeKind;
use etx_base::time::{Dur, Time};
use etx_base::trace::TraceKind;
use etx_fd::ForcedSuspicion;
use etx_sim::{NetConfig, Rng, RunOutcome};

/// Knobs of the chaos generator.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Application-server replicas (3 or 5 keep a crashable minority).
    pub apps: usize,
    /// Databases.
    pub dbs: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests per client.
    pub requests: u64,
    /// Maximum app-server crashes (clamped to a minority).
    pub max_app_crashes: usize,
    /// Maximum database crash/recovery cycles.
    pub max_db_cycles: usize,
    /// Maximum forced false-suspicion windows.
    pub max_false_suspicions: usize,
    /// Crash the default primary for this long the moment it applies its
    /// first decision-log slot carrying two or more outcomes. Such a slot
    /// also carries the primary's pre-claims of every member's next
    /// attempt, so the crash leaves one owned, never-requested attempt per
    /// client in the batch for the survivors' cleaners to abort — and the
    /// recovered primary replays the log over its own old claims. Never
    /// fires where slots hold one outcome (the paper's shape). Counts as
    /// an application-server crash: combine it with `max_app_crashes: 0`
    /// on three replicas.
    pub primary_outage_on_batch: Option<Dur>,
    /// Message-loss probability (absorbed by reliable channels as delay).
    pub loss_rate: f64,
    /// Sharded back end: partition the keyspace over this many shards and
    /// run key-addressed workloads. `None` keeps the flat `dbs` tier and
    /// the original explicitly-addressed workloads.
    pub shards: Option<u32>,
    /// Replica-group size per shard (only meaningful with `shards`).
    pub replication: usize,
    /// Seed of the **fault schedule**, independent of the scenario seed.
    /// `None` derives it from the run seed (the reproducible default).
    /// Keeping chaos randomness out of the workload/scenario stream is what
    /// makes parameter sweeps (e.g. `.shards()`) comparable across chaos
    /// on/off: the same run seed drives the same workload either way.
    pub chaos_seed: Option<u64>,
    /// The protocol features the scenario runs with (default: the paper's
    /// shape). Runners that exist to exercise one feature switch it on
    /// over whatever is set here.
    pub features: FeatureSet,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            apps: 3,
            dbs: 1,
            clients: 1,
            requests: 2,
            max_app_crashes: 1,
            max_db_cycles: 2,
            max_false_suspicions: 2,
            primary_outage_on_batch: None,
            loss_rate: 0.05,
            shards: None,
            replication: 1,
            chaos_seed: None,
            features: FeatureSet::default(),
        }
    }
}

/// The three feature sets the benchmark of record (`examples/etx_bench`)
/// runs, by name: the paper's shape; the saturated commit pipeline (batch
/// 64 / 1 ms, speculation); and that plus follower reads under fast-test
/// leases. The chaos suites sweep their schedules over every row, so each
/// configuration that is measured is also §3-checked under faults.
pub fn feature_corners() -> [(&'static str, FeatureSet); 3] {
    let pipelined = FeatureSet {
        batching: BatchingConfig::new(64, Dur::from_millis(1)),
        speculation: SpeculationConfig::on(),
        ..FeatureSet::default()
    };
    let reads = FeatureSet {
        read_path: ReadPathConfig::follower_reads(),
        read_leases: ReadLeaseConfig::fast_for_tests(),
        ..pipelined
    };
    [("paper", FeatureSet::default()), ("pipelined", pipelined), ("pipelined+reads", reads)]
}

/// `features` with the pipeline floored at 8 outcomes per slot (1 ms
/// window) — for the runners whose fault triggers are multi-request
/// batches, which a shallower pipeline would never form.
fn batching_at_least_8(mut features: FeatureSet) -> FeatureSet {
    if features.batching.max_batch < 8 {
        features.batching = BatchingConfig::new(8, Dur::from_millis(1));
    }
    features
}

/// Result of a chaos run.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Seed it was generated from (reproduction handle).
    pub seed: u64,
    /// How the run loop ended.
    pub run: RunOutcome,
    /// Whether every client settled all its requests.
    pub settled: bool,
    /// Property-check report.
    pub report: PropertyReport,
    /// Faults injected, human-readable (diagnostics on failure).
    pub faults: Vec<String>,
    /// Decision-log slots that carried more than one request (evidence
    /// that a run genuinely exercised the batched commit path).
    pub batched_slots: usize,
    /// Fast-path reads a lagging follower forwarded to its primary
    /// (evidence that a run genuinely exercised the freshness gate).
    pub forwarded_reads: usize,
    /// Decided slots whose speculatively executed batch was promoted
    /// (evidence that a run genuinely overlapped execution with consensus).
    pub spec_hits: usize,
    /// Decided slots whose speculation buffer was discarded and replayed
    /// (evidence that a run genuinely exercised mis-speculation recovery).
    pub spec_aborts: usize,
    /// Read leases minted by shard primaries (evidence that a run
    /// genuinely had leases outstanding when its faults landed).
    pub lease_grants: usize,
    /// Follower reads refused because the replica's lease had lapsed
    /// (evidence that the staleness bound, not luck, kept reads fresh).
    pub lease_expired_reads: usize,
}

impl ChaosOutcome {
    /// Panics with full context if the run violated the specification.
    pub fn assert_ok(&self) {
        assert!(
            self.report.ok() && self.settled,
            "chaos seed {} failed (settled={}, run={:?}):\nfaults: {:#?}\nviolations: {:#?}",
            self.seed,
            self.settled,
            self.run,
            self.faults,
            self.report.violations,
        );
    }
}

/// Shared tail of every chaos runner: run to settlement, drain background
/// work, stop the backend (a no-op on the simulator), check the full §3
/// specification, and assemble the outcome.
fn settle_and_check(mut scenario: Scenario, seed: u64, faults: Vec<String>) -> ChaosOutcome {
    let expected = scenario.requests as usize;
    let run = scenario.run_until_settled(expected);
    let settled = run == RunOutcome::Predicate;
    // Give retransmissions / terminate loops time to finish (T.2 needs it).
    scenario.quiesce(Dur::from_millis(400));
    scenario.stop();

    let report = check(
        scenario.trace().events(),
        &scenario.topo.clients,
        LivenessChecks { t1: settled, t2: settled },
    );
    ChaosOutcome {
        seed,
        run,
        settled,
        report,
        faults,
        batched_slots: scenario.batched_slots(),
        forwarded_reads: scenario.reads_forwarded(),
        spec_hits: scenario.spec_hits(),
        spec_aborts: scenario.spec_aborts(),
        lease_grants: scenario.lease_grants(),
        lease_expired_reads: scenario.lease_expired_reads(),
    }
}

/// Every built-in backend implements the fault plane, so a refusal here is
/// a wiring bug, not a runtime condition.
const FAULT_PLANE: &str = "both built-in backends implement the fault plane";

/// The moment `server` first applies a decision-log slot that made two or
/// more outcomes final: the slot is decided, termination has barely
/// started, and (where the server pre-claims) it carries the claim of
/// every member's next attempt.
fn on_first_batch_at(server: etx_base::ids::NodeId) -> NemesisWhen {
    NemesisWhen::on_trace(move |ev| {
        ev.node == server && matches!(ev.kind, TraceKind::BatchDecided { len, .. } if len >= 2)
    })
}

/// Runs one chaos schedule derived from `seed`.
///
/// Two independent RNG streams are in play: the **workload stream**
/// (derived from `seed` alone) picks what the clients run, and the **chaos
/// stream** (derived from [`ChaosOptions::chaos_seed`], defaulting to
/// `seed`) times the faults. The split means chaos on/off — or a different
/// fault budget — never changes which workload a given seed exercises, so
/// sweeps stay comparable.
///
/// Pinned to the simulator: the schedule leans on the simulated network
/// (message loss as delay) that the threaded host does not model.
pub fn run_chaos(seed: u64, opts: &ChaosOptions) -> ChaosOutcome {
    let mut wl_rng = Rng::new(seed ^ 0x3B0B_10AD); // workload stream
    let mut rng = Rng::new(opts.chaos_seed.unwrap_or(seed) ^ 0xC0FFEE); // chaos stream
    let horizon_ms = 200u64; // fault window (fast cost model timescale)
    let mut faults = Vec::new();

    // Fault plan -----------------------------------------------------------
    let minority = (opts.apps - 1) / 2;
    let app_crashes = (rng.range_u64(0, opts.max_app_crashes as u64) as usize).min(minority);
    let db_cycles = rng.range_u64(0, opts.max_db_cycles as u64) as usize;
    let suspicions = rng.range_u64(0, opts.max_false_suspicions as u64) as usize;

    let workload = match opts.shards {
        // Sharded runs draw from the key-addressed families so routing,
        // the multi-branch decide path and replication all get exercised.
        Some(shards) => match wl_rng.range_u64(0, 2) {
            0 => Workload::ShardedBank { accounts: shards * 4, cross_pct: 40, amount: 10 },
            1 => Workload::ShardedBank { accounts: shards * 4, cross_pct: 100, amount: 10 },
            _ => Workload::HotShard { accounts: shards * 4, hot_pct: 80, amount: 10 },
        },
        None => match wl_rng.range_u64(0, 2) {
            0 => Workload::BankUpdate { amount: 10 },
            1 => Workload::Travel,
            _ => Workload::HotSpot,
        },
    };

    let mut forced = Vec::new();
    let mut builder = ScenarioBuilder::fast(MiddleTier::Etx { apps: opts.apps }, seed)
        .dbs(opts.dbs)
        .clients(opts.clients)
        .requests(opts.requests)
        .features(opts.features)
        .workload(workload.clone());
    if let Some(shards) = opts.shards {
        builder = builder.shards(shards).replication(opts.replication);
    }
    if opts.loss_rate > 0.0 {
        builder = builder.net(NetConfig {
            min_delay: Dur::from_micros(100),
            max_delay: Dur::from_micros(300),
            loss_rate: opts.loss_rate,
            retransmit_gap: Dur::from_millis(2),
        });
    }

    // Forced suspicion windows must be known before building (they live
    // inside each server's ScriptedFd).
    let topo_preview = etx_base::ids::Topology::new(opts.clients, opts.apps, opts.dbs);
    for _ in 0..suspicions {
        let peer_idx = rng.range_u64(0, opts.apps as u64 - 1) as usize;
        let from = Time(rng.range_u64(0, horizon_ms) * 1_000);
        let until = from + Dur::from_millis(rng.range_u64(5, 40));
        let peer = topo_preview.app_servers[peer_idx];
        forced.push(ForcedSuspicion { peer, from, until });
        faults.push(format!("false-suspect {peer} in [{from}, {until})"));
    }
    if !forced.is_empty() {
        builder = builder.force_suspicions(forced);
    }

    let mut scenario = builder.build();

    // App-server crashes (crash-stop; bounded by the minority assumption,
    // and never the consensus-critical majority).
    let mut crashed = Vec::new();
    for _ in 0..app_crashes {
        let idx = rng.range_u64(0, opts.apps as u64 - 1) as usize;
        let node = scenario.topo.app_servers[idx];
        if crashed.contains(&node) {
            continue;
        }
        crashed.push(node);
        let at = Time(rng.range_u64(0, horizon_ms) * 1_000);
        scenario
            .schedule_fault(NemesisWhen::After(Dur(at.0)), FaultOp::Crash(node))
            .expect(FAULT_PLANE);
        faults.push(format!("crash app {node} at {at}"));
    }

    if let Some(down_for) = opts.primary_outage_on_batch {
        let a1 = scenario.topo.primary();
        scenario
            .schedule_fault(on_first_batch_at(a1), FaultOp::CrashFor { node: a1, down_for })
            .expect(FAULT_PLANE);
        faults.push(format!("crash primary {a1} on its first multi-outcome slot, back {down_for}"));
    }

    // Database crash/recovery cycles (good databases: always recover).
    let db_count = scenario.topo.db_servers.len() as u64;
    for _ in 0..db_cycles {
        let idx = rng.range_u64(0, db_count - 1) as usize;
        let node = scenario.topo.db_servers[idx];
        let at = Time(rng.range_u64(0, horizon_ms) * 1_000);
        let back = at + Dur::from_millis(rng.range_u64(5, 60));
        scenario
            .schedule_fault(NemesisWhen::After(Dur(at.0)), FaultOp::Crash(node))
            .expect(FAULT_PLANE);
        scenario
            .schedule_fault(NemesisWhen::After(Dur(back.0)), FaultOp::Recover(node))
            .expect(FAULT_PLANE);
        faults.push(format!("cycle db {node} at {at} → {back}"));
    }

    settle_and_check(scenario, seed, faults)
}

/// The hot-shard chaos scenario: a skewed key-addressed workload hammers
/// one shard while that shard's replicas are crash/recovery-cycled
/// **mid-commit** (the first crash triggers off the hot primary's first
/// vote, i.e. between prepare and decide); the other shards' traffic
/// proceeds throughout. Checks the full §3 specification afterwards — in
/// particular that every request still terminates with a single outcome
/// delivered exactly once.
///
/// `runtime` picks the backend: the threaded host runs the same nemesis
/// schedule on the wall clock (trace-triggered faults fire off the same
/// events).
pub fn run_hot_shard_chaos(seed: u64, opts: &ChaosOptions, runtime: RuntimeKind) -> ChaosOutcome {
    // Fault timing comes from the chaos stream only — the scenario (and
    // its workload RNG, seeded by `seed`) is identical with chaos on or
    // off, so `.shards()` sweeps compare like for like.
    let mut rng = Rng::new(opts.chaos_seed.unwrap_or(seed) ^ 0x5AD_C0DE);
    let shards = opts.shards.unwrap_or(4).max(2);
    let replication = opts.replication.max(1);
    let workload = Workload::HotShard { accounts: shards * 4, hot_pct: 70, amount: 10 };
    let mut scenario = ScenarioBuilder::fast(MiddleTier::Etx { apps: opts.apps }, seed)
        .runtime(runtime)
        .shards(shards)
        .replication(replication)
        .clients(opts.clients)
        .requests(opts.requests)
        .features(opts.features)
        .workload(workload)
        .build();

    let mut faults = Vec::new();
    // The hot key is acct0; its shard is where the skew lands.
    let hot_shard = scenario.shard_map.shard_of("acct0");
    let hot_replicas: Vec<_> = scenario.shard_map.replicas(hot_shard).to_vec();
    let hot_primary = hot_replicas[0];

    // Crash the hot primary right after it votes (mid-commit: the branch
    // is prepared/in-doubt, the decision push is about to land) and bring
    // it back shortly after — the paper's good-database model.
    let down_for = Dur::from_millis(rng.range_u64(10, 40));
    scenario
        .schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == hot_primary && matches!(ev.kind, TraceKind::DbVote { .. })
            }),
            FaultOp::CrashFor { node: hot_primary, down_for },
        )
        .expect(FAULT_PLANE);
    faults.push(format!("crash hot-shard primary {hot_primary} on first vote, back {down_for}"));

    // Cycle the hot shard's followers too, while the other shards proceed.
    for &f in hot_replicas.iter().skip(1) {
        let at = Time(rng.range_u64(0, 100) * 1_000);
        let back = at + Dur::from_millis(rng.range_u64(5, 50));
        scenario
            .schedule_fault(NemesisWhen::After(Dur(at.0)), FaultOp::Crash(f))
            .expect(FAULT_PLANE);
        scenario
            .schedule_fault(NemesisWhen::After(Dur(back.0)), FaultOp::Recover(f))
            .expect(FAULT_PLANE);
        faults.push(format!("cycle hot-shard follower {f} at {at} → {back}"));
    }

    settle_and_check(scenario, seed, faults)
}

/// The mid-batch chaos scenario for the commit pipeline: an open-loop
/// burst fills the application server's pipeline queue so decision-log
/// slots carry real batches, then
///
/// * the default primary `a1` is **crashed the moment it applies its first
///   multi-request batch** — the decided slot is final but termination has
///   barely started, so the surviving replicas' cleaners must finish every
///   request in the batch with the *decided* outcomes;
/// * a shard primary is crash/recovery-cycled on its first multi-record
///   **group WAL append**, so recovery replays a group frame written
///   mid-stream.
///
/// The full §3 specification is checked afterwards. What this certifies is
/// the batch atomicity claim: a decided batch is all-or-nothing per
/// request — every request in it terminates with its slot outcome exactly
/// once, and none is duplicated or split by the crashes.
pub fn run_mid_batch_chaos(seed: u64, opts: &ChaosOptions, runtime: RuntimeKind) -> ChaosOutcome {
    let mut rng = Rng::new(opts.chaos_seed.unwrap_or(seed) ^ 0x0BA7_C4A0);
    let shards = opts.shards.unwrap_or(4).max(1);
    let workload = Workload::OpenLoopBurst { accounts: shards * 8, amount: 1 };
    let mut scenario = ScenarioBuilder::fast(MiddleTier::Etx { apps: opts.apps }, seed)
        .runtime(runtime)
        .shards(shards)
        .replication(opts.replication.max(1))
        .clients(opts.clients)
        .requests(opts.requests)
        .features(batching_at_least_8(opts.features))
        .workload(workload)
        .build();

    let mut faults = Vec::new();
    let a1 = scenario.topo.primary();
    scenario.schedule_fault(on_first_batch_at(a1), FaultOp::Crash(a1)).expect(FAULT_PLANE);
    faults.push(format!("crash primary {a1} on its first applied multi-request batch"));

    let victim_shard = rng.range_u64(0, u64::from(shards) - 1) as u32;
    let victim = scenario.shard_primary(victim_shard);
    let down_for = Dur::from_millis(rng.range_u64(5, 30));
    scenario
        .schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == victim && matches!(ev.kind, TraceKind::GroupAppend { len } if len >= 2)
            }),
            FaultOp::CrashFor { node: victim, down_for },
        )
        .expect(FAULT_PLANE);
    faults.push(format!(
        "cycle shard-{victim_shard} primary {victim} on its first group append, back {down_for}"
    ));

    settle_and_check(scenario, seed, faults)
}

/// The speculation chaos scenario: an open-loop burst fills the pipeline
/// with real batches under speculative execution, and a shard primary is
/// **crash/recovery-cycled the moment it stashes its first speculative
/// batch** — strictly between `SpecExec` and the slot's decision. The
/// crash wipes the (volatile) speculation buffer, so the decided slot
/// arrives at a recovered primary with nothing stashed and must replay on
/// the ordinary decide-then-execute path.
///
/// The full §3 specification is checked afterwards. What this certifies
/// is the speculation stage's durability claim: a speculatively buffered
/// batch is *not yet state* — it writes no WAL frame, ships nothing to
/// followers, and a crash at the worst moment leaves exactly the
/// recovery obligations of the non-speculative pipeline.
pub fn run_speculation_chaos(seed: u64, opts: &ChaosOptions, runtime: RuntimeKind) -> ChaosOutcome {
    let mut rng = Rng::new(opts.chaos_seed.unwrap_or(seed) ^ 0x5BEC_0DE5);
    let shards = opts.shards.unwrap_or(4).max(1);
    let workload = Workload::OpenLoopBurst { accounts: shards * 8, amount: 1 };
    let mut scenario = ScenarioBuilder::fast(MiddleTier::Etx { apps: opts.apps }, seed)
        .runtime(runtime)
        .shards(shards)
        .replication(opts.replication.max(1))
        .clients(opts.clients)
        .requests(opts.requests)
        .features(batching_at_least_8(opts.features))
        .speculation(SpeculationConfig::on())
        .workload(workload)
        .build();

    let mut faults = Vec::new();
    let victim_shard = rng.range_u64(0, u64::from(shards) - 1) as u32;
    let victim = scenario.shard_primary(victim_shard);
    let down_for = Dur::from_millis(rng.range_u64(5, 30));
    scenario
        .schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == victim && matches!(ev.kind, TraceKind::SpecExec { .. })
            }),
            FaultOp::CrashFor { node: victim, down_for },
        )
        .expect(FAULT_PLANE);
    faults.push(format!(
        "cycle shard-{victim_shard} primary {victim} on its first speculative batch, \
         back {down_for}"
    ));

    settle_and_check(scenario, seed, faults)
}

/// The read-path chaos scenario: a read-dominated open-loop workload runs
/// with the fast lane and follower reads enabled while
///
/// * one shard's follower is **crash/recovery-cycled the moment the first
///   fast-path read is classified** — reads in flight to it vanish and the
///   application server's retry backstop must finish them against the
///   shard primary;
/// * another shard's follower is **starved of its primary's replication
///   stream** (the primary→follower link is blocked for a window) while
///   writes keep committing — every stamped read aimed at it during the
///   window must take the forward path rather than serve stale state.
///
/// The full §3 specification is checked afterwards. What this certifies is
/// the fast lane's safety claim: consensus-free reads stay exactly-once
/// *observable* (one delivery per request, committed results only) and
/// never surface state older than the issuing server has observed.
pub fn run_read_path_chaos(seed: u64, opts: &ChaosOptions) -> ChaosOutcome {
    let mut rng = Rng::new(opts.chaos_seed.unwrap_or(seed) ^ 0xFA57_1A4E);
    let shards = opts.shards.unwrap_or(4).max(2);
    let replication = opts.replication.max(2);
    // Sequential write→read pairs: each read is issued only after its
    // write delivered, so the issuing server holds a fresh stamp for the
    // write's shard — the precondition that makes a starved follower
    // actually *lag* (and therefore forward) rather than trivially serve.
    let workload = Workload::ReadAfterWrite { accounts: shards * 8, amount: 10 };
    let mut scenario = ScenarioBuilder::fast(MiddleTier::Etx { apps: opts.apps }, seed)
        .shards(shards)
        .replication(replication)
        .clients(opts.clients)
        .requests(opts.requests)
        .features(opts.features)
        .read_path(ReadPathConfig::follower_reads())
        .workload(workload)
        .build();

    let mut faults = Vec::new();

    // Fault 1: cycle shard 0's follower on the first classified fast-path
    // read — a read racing a crashing replica.
    let crash_victim = scenario.shard_replicas(0)[1];
    let down_for = Dur::from_millis(rng.range_u64(5, 30));
    scenario
        .schedule_fault(
            NemesisWhen::on_trace(move |ev| matches!(ev.kind, TraceKind::ReadFastPath { .. })),
            FaultOp::CrashFor { node: crash_victim, down_for },
        )
        .expect(FAULT_PLANE);
    faults.push(format!(
        "cycle shard-0 follower {crash_victim} on the first fast-path read, back {down_for}"
    ));

    // Fault 2: starve shard 1's follower of replication for a window —
    // commits during the window make it lag, so stamped reads aimed at it
    // must forward to the primary instead of serving stale state.
    let lag_primary = scenario.shard_replicas(1)[0];
    let lag_follower = scenario.shard_replicas(1)[1];
    let heal = Time(rng.range_u64(60, 150) * 1_000);
    scenario
        .fault(FaultOp::BlockLink { from: lag_primary, to: lag_follower, heal_after: Dur(heal.0) })
        .expect(FAULT_PLANE);
    faults.push(format!(
        "block replication {lag_primary} → {lag_follower} until {heal} (lagging follower)"
    ));

    settle_and_check(scenario, seed, faults)
}

/// The read-lease chaos scenario: the lease fast path (follower reads
/// served with **no stamp check and no forward hop** while the replica's
/// lease is live) runs under the two faults that attack its soundness
/// argument directly:
///
/// * shard 0's **primary** — the lease grantor — is crash/recovery-cycled
///   the moment the first fast-path read is classified, with leases
///   outstanding at every replica and appserver. Recovery must fence its
///   write acknowledgements until every lease its previous incarnation
///   could have granted has lapsed (the failover drain), or a pre-crash
///   in-lease read could contradict a post-crash acknowledged write;
/// * shard 1's **replication stream** (primary → follower) is blocked for
///   a window. Lease renewals ride that stream, so the follower must fall
///   out of lease and start forwarding (`LeaseExpired`) no later than one
///   lease duration after the partition — the staleness bound.
///
/// The full §3 specification is checked afterwards: exactly-once delivery,
/// committed results only, and read-your-writes all have to survive the
/// lease machinery's consensus-free serving.
pub fn run_read_lease_chaos(seed: u64, opts: &ChaosOptions) -> ChaosOutcome {
    let mut rng = Rng::new(opts.chaos_seed.unwrap_or(seed) ^ 0x1EA5_EFA1);
    let shards = opts.shards.unwrap_or(4).max(2);
    let replication = opts.replication.max(2);
    let workload = Workload::ReadAfterWrite { accounts: shards * 8, amount: 10 };
    let mut scenario = ScenarioBuilder::fast(MiddleTier::Etx { apps: opts.apps }, seed)
        .shards(shards)
        .replication(replication)
        .clients(opts.clients)
        .requests(opts.requests)
        .features(opts.features)
        .read_path(ReadPathConfig::follower_reads())
        .read_leases(ReadLeaseConfig::fast_for_tests())
        .workload(workload)
        .build();

    let mut faults = Vec::new();

    // Fault 1: cycle shard 0's PRIMARY on the first classified fast-path
    // read — the grantor dies with its leases still outstanding, so the
    // post-recovery fence is what stands between in-lease follower serves
    // and the recovered primary's fresh acknowledgements.
    let grantor = scenario.shard_replicas(0)[0];
    let down_for = Dur::from_millis(rng.range_u64(5, 30));
    scenario
        .schedule_fault(
            NemesisWhen::on_trace(move |ev| matches!(ev.kind, TraceKind::ReadFastPath { .. })),
            FaultOp::CrashFor { node: grantor, down_for },
        )
        .expect(FAULT_PLANE);
    faults.push(format!(
        "cycle shard-0 primary {grantor} on the first fast-path read, back {down_for}"
    ));

    // Fault 2: block shard 1's replication stream — renewals stop with it,
    // so the follower's lease lapses and its reads must forward instead of
    // serving what is now unboundedly stale state.
    let lag_primary = scenario.shard_replicas(1)[0];
    let lag_follower = scenario.shard_replicas(1)[1];
    let heal = Time(rng.range_u64(60, 150) * 1_000);
    scenario
        .fault(FaultOp::BlockLink { from: lag_primary, to: lag_follower, heal_after: Dur(heal.0) })
        .expect(FAULT_PLANE);
    faults.push(format!(
        "block replication {lag_primary} → {lag_follower} until {heal} (lease starvation)"
    ));

    settle_and_check(scenario, seed, faults)
}
