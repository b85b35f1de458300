//! Fault-schedule exploration ("chaos testing").
//!
//! One runner, [`run_chaos`], follows the plan that
//! [`ChaosOptions::schedule`] names: the seed-drawn [`Schedule::Random`]
//! mix — application-server crashes (bounded by the minority assumption),
//! database crash/recovery cycles, false-suspicion windows, message loss —
//! or one of the event-placed plans, each a crash or two landed on the
//! first trace event of a kind (a vote, a batch, a speculative stash, a
//! fast-path read, a delivery), the way the paper's Figure 1(c)/(d) place
//! theirs. The runner builds the scenario, arms the plan, settles the run
//! and checks the full e-Transaction specification on the history. Every
//! failure is reproducible from its seed.
//!
//! Faults are expressed through the backend-neutral fault plane
//! ([`Scenario::schedule_fault`] / [`etx_base::fault::FaultOp`]), so the
//! event-placed plans drive either runtime: the same schedule on the
//! simulator or against the wall-clock host — real clocks, real crashes,
//! the same §3 judge.

use crate::properties::{check, LivenessChecks, PropertyReport};
use crate::scenario::{MiddleTier, Scenario, ScenarioBuilder};
use crate::workloads::Workload;
use etx_base::config::{
    BatchingConfig, FeatureSet, ReadLeaseConfig, ReadPathConfig, SpeculationConfig,
};
use etx_base::fault::{FaultOp, NemesisWhen};
use etx_base::ids::{NodeId, Topology};
use etx_base::runtime::RuntimeKind;
use etx_base::time::{Dur, Time};
use etx_base::trace::TraceKind;
use etx_fd::ForcedSuspicion;
use etx_sim::{NetConfig, Rng, RunOutcome};

/// The fault plan a chaos run follows.
///
/// [`Schedule::Random`] honours every field of [`ChaosOptions`]. The
/// event-placed plans take the shape (`apps`, `dbs`, `clients`, `requests`,
/// `shards`, `replication`, `features`, `chaos_seed`) and place their own
/// faults: the fault budgets, `loss_rate` and `primary_outage_on_batch`
/// are the random mix's. Each plan that needs a sharded back end floors
/// the shape it is given (4 shards when `shards` is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Seed-drawn faults over a seed-drawn workload family: app-server
    /// crashes, database cycles and false-suspicion windows within the
    /// budgets, message loss, and the optional primary outage.
    #[default]
    Random,
    /// A skewed workload hammers one shard (≥ 2 shards) whose primary
    /// crashes on its first vote — between prepare and decide — and comes
    /// back; its followers are cycled while the other shards proceed.
    HotShard,
    /// An open-loop burst through ≥ 8-outcome batches: the default primary
    /// crashes for good on applying its first multi-request batch, so the
    /// survivors' cleaners finish the batch with its decided outcomes, and
    /// a shard primary is cycled on its first multi-record group append.
    /// Certifies that a decided batch is all-or-nothing per request.
    MidBatch,
    /// The same burst, speculating: a shard primary is cycled the moment
    /// it stashes its first speculative batch, strictly between `SpecExec`
    /// and the slot's decision, so the decided slot replays on the
    /// ordinary path. Certifies that a stashed batch is not yet state.
    Speculation,
    /// Write→read pairs over follower reads (≥ 2 shards × rf 2): shard 0's
    /// follower is cycled on the first fast-path read, and shard 1's
    /// replication stream is blocked for a window, so stamped reads aimed
    /// at its lagging follower must forward rather than serve stale state.
    ReadPath,
    /// [`Schedule::ReadPath`] under read leases: the grantor — shard 0's
    /// primary — is cycled on the first fast-path read with leases
    /// outstanding, and the blocked stream starves shard 1's follower of
    /// renewals, so it must fall out of lease and forward.
    ReadLease,
    /// The whole middle tier down at once: every application server
    /// crashes for 50 ms on the run's first event of the given kind, so
    /// every round state is lost together. Transfers over the shape's
    /// bank (flat, or 30 % cross-shard).
    WholeTier(TierCrashOn),
}

/// The event whose first occurrence, at any node, takes the whole middle
/// tier down in [`Schedule::WholeTier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierCrashOn {
    /// A client's first delivery.
    Deliver,
    /// A database's first vote.
    DbVote,
    /// A database's first decide.
    DbDecide,
}

impl Schedule {
    /// The salt of the plan's chaos stream.
    fn salt(self) -> u64 {
        match self {
            Self::Random => 0xC0FFEE,
            Self::HotShard => 0x5AD_C0DE,
            Self::MidBatch => 0x0BA7_C4A0,
            Self::Speculation => 0x5BEC_0DE5,
            Self::ReadPath => 0xFA57_1A4E,
            Self::ReadLease => 0x1EA5_EFA1,
            Self::WholeTier(_) => 0x7_1E4D, // draws nothing
        }
    }

    /// The sharded shape the plan runs on (`None`: the options' flat tier).
    fn shape(self, opts: &ChaosOptions) -> Option<(u32, usize)> {
        let floor = |s, r| Some((opts.shards.unwrap_or(4).max(s), opts.replication.max(r)));
        match self {
            Self::Random | Self::WholeTier(_) => opts.shards.map(|n| (n, opts.replication)),
            Self::HotShard => floor(2, 1),
            Self::MidBatch | Self::Speculation => floor(1, 1),
            Self::ReadPath | Self::ReadLease => floor(2, 2),
        }
    }

    /// `features` with whatever the plan exists to exercise switched on:
    /// the batch plans floor the pipeline at 8 outcomes per slot (1 ms
    /// window), which their fault triggers need to ever fire.
    fn features(self, mut features: FeatureSet) -> FeatureSet {
        if matches!(self, Self::MidBatch | Self::Speculation) && features.batching.max_batch < 8 {
            features.batching = BatchingConfig::new(8, Dur::from_millis(1));
        }
        match self {
            Self::Speculation => features.speculation = SpeculationConfig::on(),
            Self::ReadPath => features.read_path = ReadPathConfig::follower_reads(),
            Self::ReadLease => {
                features.read_path = ReadPathConfig::follower_reads();
                features.read_leases = ReadLeaseConfig::fast_for_tests();
            }
            _ => {}
        }
        features
    }

    /// The plan's workload over `shards` (`None`: flat). Only the random
    /// mix draws it, from the workload stream `wl_rng`.
    fn workload(self, shards: Option<u32>, wl_rng: &mut Rng) -> Workload {
        let (n, accounts) = (shards.unwrap_or(0), shards.unwrap_or(0) * 8);
        match (self, shards) {
            // Sharded runs draw from the key-addressed families so routing,
            // the multi-branch decide path and replication all get exercised.
            (Self::Random, Some(_)) => match wl_rng.range_u64(0, 2) {
                0 => Workload::ShardedBank { accounts: n * 4, cross_pct: 40, amount: 10 },
                1 => Workload::ShardedBank { accounts: n * 4, cross_pct: 100, amount: 10 },
                _ => Workload::HotShard { accounts: n * 4, hot_pct: 80, amount: 10 },
            },
            (Self::Random, None) => match wl_rng.range_u64(0, 2) {
                0 => Workload::BankUpdate { amount: 10 },
                1 => Workload::Travel,
                _ => Workload::HotSpot,
            },
            (Self::HotShard, _) => Workload::HotShard { accounts: n * 4, hot_pct: 70, amount: 10 },
            (Self::MidBatch | Self::Speculation, _) => {
                Workload::OpenLoopBurst { accounts, amount: 1 }
            }
            // Sequential write→read pairs: each read is issued only after
            // its write delivered, so the issuing server holds a fresh
            // stamp for the write's shard — what makes a starved follower
            // actually lag (and forward) rather than trivially serve.
            (Self::ReadPath | Self::ReadLease, _) => {
                Workload::ReadAfterWrite { accounts, amount: 10 }
            }
            (Self::WholeTier(_), Some(_)) => {
                Workload::ShardedBank { accounts, cross_pct: 30, amount: 10 }
            }
            (Self::WholeTier(_), None) => Workload::BankUpdate { amount: 10 },
        }
    }
}

/// Knobs of the chaos generator.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// The fault plan (default: the random mix).
    pub schedule: Schedule,
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
    /// shape). Schedules that exist to exercise one feature switch it on
    /// over whatever is set here.
    pub features: FeatureSet,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            schedule: Schedule::Random,
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
    /// The settled, stopped run: its accessors say what it exercised
    /// (multi-request slots, speculation, leases, forwarded reads).
    pub scenario: Scenario,
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

/// The faults a plan places, in arming order, and their descriptions.
#[derive(Default)]
struct Plan {
    armed: Vec<(NemesisWhen, FaultOp)>,
    faults: Vec<String>,
}

impl Plan {
    fn add(&mut self, when: NemesisWhen, op: FaultOp, what: String) {
        self.armed.push((when, op));
        self.faults.push(what);
    }

    /// Crashes `node` at `at` and recovers it at `back` (run offsets).
    fn cycle(&mut self, node: NodeId, at: Time, back: Time, what: String) {
        self.armed.push((after(at), FaultOp::Crash(node)));
        self.add(after(back), FaultOp::Recover(node), what);
    }
}

/// `at` as an offset from the run start.
fn after(at: Time) -> NemesisWhen {
    NemesisWhen::After(Dur(at.0))
}

/// The first trace event whose kind `kind` matches, at `node` (at any node
/// when `None`).
fn first(node: Option<NodeId>, kind: fn(&TraceKind) -> bool) -> NemesisWhen {
    NemesisWhen::on_trace(move |ev| node.is_none_or(|n| ev.node == n) && kind(&ev.kind))
}

/// Runs the chaos schedule `opts.schedule` derived from `seed`.
///
/// Two independent RNG streams are in play: the **workload stream**
/// (derived from `seed` alone) picks what the clients run, and the **chaos
/// stream** (derived from [`ChaosOptions::chaos_seed`], defaulting to
/// `seed`, salted per schedule) times the faults. The split means chaos
/// on/off — or a different fault budget — never changes which workload a
/// given seed exercises, so sweeps stay comparable.
///
/// `runtime` picks the backend the event-placed plans run on; their
/// trace-triggered faults fire off the same events on either clock.
/// [`Schedule::Random`] stays on the simulator: its message loss is the
/// virtual clock's network model, which the threaded host does not have.
///
/// # Panics
///
/// Panics if `opts.schedule` is [`Schedule::Random`] and `runtime` is
/// not [`RuntimeKind::Sim`].
pub fn run_chaos(seed: u64, opts: &ChaosOptions, runtime: RuntimeKind) -> ChaosOutcome {
    let schedule = opts.schedule;
    let random = schedule == Schedule::Random;
    assert!(!random || runtime == RuntimeKind::Sim, "the random mix runs on the simulator");
    let mut rng = Rng::new(opts.chaos_seed.unwrap_or(seed) ^ schedule.salt()); // chaos stream
    let mut wl_rng = Rng::new(seed ^ 0x3B0B_10AD); // workload stream
    let horizon_ms = 200u64; // the random mix's fault window (fast cost model timescale)
    let mut plan = Plan::default();

    // The random mix's budget, drawn first (app crashes stay a minority).
    let mut budget = |max: usize| if random { rng.range_u64(0, max as u64) as usize } else { 0 };
    let app_crashes = budget(opts.max_app_crashes).min((opts.apps - 1) / 2);
    let (db_cycles, suspicions) = (budget(opts.max_db_cycles), budget(opts.max_false_suspicions));

    let shape = schedule.shape(opts);
    let mut builder = ScenarioBuilder::fast(MiddleTier::Etx { apps: opts.apps }, seed)
        .runtime(runtime)
        .dbs(opts.dbs)
        .clients(opts.clients)
        .requests(opts.requests)
        .features(schedule.features(opts.features))
        .workload(schedule.workload(shape.map(|(shards, _)| shards), &mut wl_rng));
    if let Some((shards, replication)) = shape {
        builder = builder.shards(shards).replication(replication);
    }
    if random && opts.loss_rate > 0.0 {
        builder = builder.net(NetConfig {
            min_delay: Dur::from_micros(100),
            max_delay: Dur::from_micros(300),
            loss_rate: opts.loss_rate,
            retransmit_gap: Dur::from_millis(2),
        });
    }

    // Forced suspicion windows must be known before building (they live
    // inside each server's ScriptedFd).
    let app_servers = Topology::new(opts.clients, opts.apps, opts.dbs).app_servers;
    let mut forced = Vec::new();
    for _ in 0..suspicions {
        let peer = app_servers[rng.range_u64(0, opts.apps as u64 - 1) as usize];
        let from = Time(rng.range_u64(0, horizon_ms) * 1_000);
        let until = from + Dur::from_millis(rng.range_u64(5, 40));
        forced.push(ForcedSuspicion { peer, from, until });
        plan.faults.push(format!("false-suspect {peer} in [{from}, {until})"));
    }
    let mut scenario = builder.force_suspicions(forced).build();
    let s = &scenario;
    let batch = |k: &TraceKind| matches!(k, TraceKind::BatchDecided { len, .. } if *len >= 2);

    match schedule {
        Schedule::Random => {
            // App-server crashes (crash-stop; bounded by the minority
            // assumption, and never the consensus-critical majority).
            let mut crashed = Vec::new();
            for _ in 0..app_crashes {
                let node = s.topo.app_servers[rng.range_u64(0, opts.apps as u64 - 1) as usize];
                if !crashed.contains(&node) {
                    crashed.push(node);
                    let at = Time(rng.range_u64(0, horizon_ms) * 1_000);
                    plan.add(after(at), FaultOp::Crash(node), format!("crash app {node} at {at}"));
                }
            }
            if let Some(down_for) = opts.primary_outage_on_batch {
                let a1 = s.topo.primary();
                let what =
                    format!("crash primary {a1} on its first multi-outcome slot, back {down_for}");
                plan.add(first(Some(a1), batch), FaultOp::CrashFor { node: a1, down_for }, what);
            }
            // Database crash/recovery cycles (good databases: always recover).
            for _ in 0..db_cycles {
                let node = s.topo.db_servers
                    [rng.range_u64(0, s.topo.db_servers.len() as u64 - 1) as usize];
                let at = Time(rng.range_u64(0, horizon_ms) * 1_000);
                let back = at + Dur::from_millis(rng.range_u64(5, 60));
                plan.cycle(node, at, back, format!("cycle db {node} at {at} → {back}"));
            }
        }
        Schedule::HotShard => {
            // The hot key is acct0; its shard is where the skew lands.
            let hot = s.shard_map.replicas(s.shard_map.shard_of("acct0"));
            let (node, down_for) = (hot[0], Dur::from_millis(rng.range_u64(10, 40)));
            let what = format!("crash hot-shard primary {node} on first vote, back {down_for}");
            let vote = |k: &TraceKind| matches!(k, TraceKind::DbVote { .. });
            plan.add(first(Some(node), vote), FaultOp::CrashFor { node, down_for }, what);
            for &f in &hot[1..] {
                let at = Time(rng.range_u64(0, 100) * 1_000);
                let back = at + Dur::from_millis(rng.range_u64(5, 50));
                plan.cycle(f, at, back, format!("cycle hot-shard follower {f} at {at} → {back}"));
            }
        }
        Schedule::MidBatch | Schedule::Speculation => {
            let mid_batch = schedule == Schedule::MidBatch;
            if mid_batch {
                let a1 = s.topo.primary();
                let what = format!("crash primary {a1} on its first applied multi-request batch");
                plan.add(first(Some(a1), batch), FaultOp::Crash(a1), what);
            }
            let shard = rng.range_u64(0, u64::from(shape.map_or(1, |(n, _)| n)) - 1) as u32;
            let (node, down_for) = (s.shard_primary(shard), Dur::from_millis(rng.range_u64(5, 30)));
            let (on, kind): (_, fn(&TraceKind) -> bool) = if mid_batch {
                ("group append", |k| matches!(k, TraceKind::GroupAppend { len } if *len >= 2))
            } else {
                ("speculative batch", |k| matches!(k, TraceKind::SpecExec { .. }))
            };
            let what =
                format!("cycle shard-{shard} primary {node} on its first {on}, back {down_for}");
            plan.add(first(Some(node), kind), FaultOp::CrashFor { node, down_for }, what);
        }
        Schedule::ReadPath | Schedule::ReadLease => {
            let lease = schedule == Schedule::ReadLease;
            let (role, node) = if lease { ("primary", 0) } else { ("follower", 1) };
            let (node, down_for) =
                (s.shard_replicas(0)[node], Dur::from_millis(rng.range_u64(5, 30)));
            let what =
                format!("cycle shard-0 {role} {node} on the first fast-path read, back {down_for}");
            let read = |k: &TraceKind| matches!(k, TraceKind::ReadFastPath { .. });
            plan.add(first(None, read), FaultOp::CrashFor { node, down_for }, what);
            let (from, to) = (s.shard_replicas(1)[0], s.shard_replicas(1)[1]);
            let heal = Time(rng.range_u64(60, 150) * 1_000);
            let why = if lease { "lease starvation" } else { "lagging follower" };
            let what = format!("block replication {from} → {to} until {heal} ({why})");
            let block = FaultOp::BlockLink { from, to, heal_after: Dur(heal.0) };
            plan.add(NemesisWhen::Now, block, what);
        }
        Schedule::WholeTier(on) => {
            let kind: fn(&TraceKind) -> bool = match on {
                TierCrashOn::Deliver => |k| matches!(k, TraceKind::Deliver { .. }),
                TierCrashOn::DbVote => |k| matches!(k, TraceKind::DbVote { .. }),
                TierCrashOn::DbDecide => |k| matches!(k, TraceKind::DbDecide { .. }),
            };
            let down_for = Dur::from_millis(50);
            for &node in &s.topo.app_servers {
                let what = format!("crash app {node} on the first {on:?}, back {down_for}");
                plan.add(first(None, kind), FaultOp::CrashFor { node, down_for }, what);
            }
        }
    }

    // Every built-in backend implements the fault plane, so a refusal here
    // is a wiring bug, not a runtime condition.
    for (when, op) in plan.armed {
        scenario.schedule_fault(when, op).expect("both backends implement the fault plane");
    }
    let run = scenario.run_until_settled(scenario.requests as usize);
    let settled = run == RunOutcome::Predicate;
    // Give retransmissions / terminate loops time to finish (T.2 needs it).
    scenario.quiesce(Dur::from_millis(400));
    scenario.stop();
    let live = LivenessChecks { t1: settled, t2: settled };
    let report = check(scenario.trace().events(), &scenario.topo.clients, live);
    ChaosOutcome { seed, run, settled, report, faults: plan.faults, scenario }
}
