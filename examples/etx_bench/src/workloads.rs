//! The five closed-loop workloads. Each is a fixed, fully resolved
//! [`ScenarioBuilder`] configuration: every feature knob is set explicitly
//! (so no `ETX_*` environment variable can move a number) and recorded in
//! the output JSON next to the numbers it produced.

use crate::json::Json;
use etx::base::config::{
    BatchingConfig, CostModel, FdConfig, FeatureSet, PipelineConfig, ReadLeaseConfig,
    ReadPathConfig, SpeculationConfig,
};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::harness::{MiddleTier, Scenario, ScenarioBuilder, Workload};

/// One benchmark workload: topology, load and feature set.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README table.
    pub why: &'static str,
    pub runtime: RuntimeKind,
    /// `true` = `ScenarioBuilder::new` (paper cost model, 1.5–2.5 ms links);
    /// `false` = `ScenarioBuilder::fast` (100–300 µs links).
    pub paper_scale: bool,
    /// `(shards, replication)`; `None` is the flat one-database tier.
    pub sharding: Option<(u32, usize)>,
    pub clients: usize,
    /// Requests per client, full size.
    pub requests: u64,
    pub accounts: u32,
    pub kind: LoadKind,
    pub features: FeatureSet,
    /// Cost-model override (`None` keeps the builder's).
    pub cost: Option<CostModel>,
    /// Failure-detector override (`None` keeps the builder's).
    pub fd: Option<FdConfig>,
    /// Crashes injected through the fault plane, on the backend's clock.
    pub faults: Vec<Fault>,
    /// Repeats of a full `run`.
    pub repeats: usize,
    /// Wall seconds one full-size leg is expected to take on the 2-core
    /// reference container; the watchdog kills a child at 10× this.
    pub expected_s: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadKind {
    /// The paper's single-account update on one database.
    BankUpdate,
    /// Write-only sharded bank, `cross_pct` percent two-account transfers.
    ShardedBank { cross_pct: u8 },
    /// Write, then read the same key back.
    ReadAfterWrite,
}

/// Which node a scheduled crash hits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Victim {
    AppPrimary,
    ShardPrimary(u32),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    pub victim: Victim,
    pub at: Dur,
    pub down_for: Dur,
}

/// The write-path feature set the four sharded workloads share: batch 64
/// with a 1 ms flush window, speculation on, four concurrent slots.
fn pipelined(read_path: ReadPathConfig, read_leases: ReadLeaseConfig) -> FeatureSet {
    FeatureSet {
        batching: BatchingConfig::new(64, Dur::from_millis(1)),
        read_path,
        read_leases,
        speculation: SpeculationConfig::on(),
        pipeline: PipelineConfig::new(4),
    }
}

fn write_only() -> FeatureSet {
    pipelined(ReadPathConfig::disabled(), ReadLeaseConfig::disabled())
}

pub const NAMES: [&str; 5] =
    ["paper_seq1", "commit_sim16", "readwrite_sim16", "commit_thr4", "failover_sim4"];

pub fn all() -> Vec<Spec> {
    NAMES.iter().map(|n| by_name(n).expect("listed workload")).collect()
}

pub fn by_name(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        why: "",
        runtime: RuntimeKind::Sim,
        paper_scale: false,
        sharding: Some((16, 2)),
        clients: 64,
        requests: 400,
        accounts: 1_024,
        kind: LoadKind::ShardedBank { cross_pct: 10 },
        features: write_only(),
        cost: None,
        fd: None,
        faults: Vec::new(),
        repeats: 5,
        expected_s: 1.5,
    };
    Some(match name {
        "paper_seq1" => Spec {
            name: "paper_seq1",
            why: "the paper's Figure 8 run: one sequential client, paper cost model, no batching; \
                  un-batched per-request path plus every periodic timer over growing history",
            paper_scale: true,
            sharding: None,
            clients: 1,
            requests: 4_000,
            accounts: 1,
            kind: LoadKind::BankUpdate,
            features: FeatureSet::default(),
            expected_s: 1.2,
            ..base
        },
        "commit_sim16" => Spec {
            name: "commit_sim16",
            why: "saturated write-only commit pipeline on one thread: 16 shards x rf 2, 64 closed-\
                  loop clients, batch 64, speculation, depth 4; consensus+store do the work, rt none",
            ..base
        },
        "readwrite_sim16" => Spec {
            name: "readwrite_sim16",
            why: "same stack, every second request a follower read that bypasses consensus, WAL \
                  and locks but must honour the freshness stamp of the write before it",
            requests: 600,
            kind: LoadKind::ReadAfterWrite,
            features: pipelined(
                ReadPathConfig::follower_reads(),
                ReadLeaseConfig::fast_for_tests(),
            ),
            ..base
        },
        "commit_thr4" => Spec {
            name: "commit_thr4",
            why: "the only workload where the threaded runtime does the work: 19 node threads, \
                  mpsc, global trace mutex, zero injected delay so latency is processor time only",
            runtime: RuntimeKind::Threaded,
            sharding: Some((4, 2)),
            clients: 8,
            requests: 1_500,
            accounts: 256,
            cost: Some(CostModel::zeroed()),
            // Deployment-scale timeouts: with the sim-scale 8 ms timeout a
            // descheduled thread is falsely suspected and the run measures
            // a Decide storm instead of throughput (README, hazard 2).
            fd: Some(FdConfig {
                heartbeat_every: Dur::from_millis(20),
                initial_timeout: Dur::from_millis(200),
                timeout_increment: Dur::from_millis(50),
                max_timeout: Dur::from_millis(2_000),
            }),
            repeats: 7,
            ..base
        },
        "failover_sim4" => Spec {
            name: "failover_sim4",
            why: "non-blocking fail-over: primary app server and shard-0 primary db crash and \
                  recover under load; only reliable-channel, FD, cleaner and recovery work moves it",
            sharding: Some((4, 2)),
            clients: 32,
            requests: 500,
            accounts: 256,
            faults: std::iter::once(Fault {
                victim: Victim::AppPrimary,
                at: Dur::from_millis(300),
                down_for: Dur::from_millis(100),
            })
            .chain([900, 1_500, 2_100].map(|at| Fault {
                victim: Victim::ShardPrimary(0),
                at: Dur::from_millis(at),
                down_for: Dur::from_millis(50),
            }))
            .collect(),
            expected_s: 2.5,
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    pub fn is_sim(&self) -> bool {
        self.runtime == RuntimeKind::Sim
    }

    /// Requests across all clients at the given scale (`--quick` divides
    /// the per-client count by ten).
    pub fn total_requests(&self, quick: bool) -> u64 {
        self.per_client(quick) * self.clients as u64
    }

    fn per_client(&self, quick: bool) -> u64 {
        if quick {
            (self.requests / 10).max(2)
        } else {
            self.requests
        }
    }

    /// The harness workload. `--seed` reaches the inputs through `amount`
    /// (the value every update credits or moves) and the backend's own
    /// seed (link delays, service-time jitter, per-node randomness); the
    /// key each request touches is a fixed hash of (client, sequence
    /// number) inside the harness and cannot be re-seeded from outside.
    fn workload(&self, seed: u64) -> Workload {
        let amount = 1 + (seed % 97) as i64;
        match self.kind {
            LoadKind::BankUpdate => Workload::BankUpdate { amount },
            LoadKind::ShardedBank { cross_pct } => {
                Workload::ShardedBank { accounts: self.accounts, cross_pct, amount }
            }
            LoadKind::ReadAfterWrite => {
                Workload::ReadAfterWrite { accounts: self.accounts, amount }
            }
        }
    }

    /// The fully configured builder for one leg. `wall_limit` is on the
    /// backend's clock: simulated time on sim, wall time on threaded.
    pub fn builder(&self, seed: u64, quick: bool, wall_limit: Dur) -> ScenarioBuilder {
        let tier = MiddleTier::Etx { apps: 3 };
        let mut b = if self.paper_scale {
            ScenarioBuilder::new(tier, seed)
        } else {
            ScenarioBuilder::fast(tier, seed)
        };
        b = b
            .runtime(self.runtime)
            .features(self.features)
            .clients(self.clients)
            .requests(self.per_client(quick))
            .workload(self.workload(seed))
            .wall_limit(wall_limit);
        if let Some((shards, repl)) = self.sharding {
            b = b.shards(shards).replication(repl);
        }
        if let Some(cost) = &self.cost {
            b = b.cost(cost.clone());
        }
        if let Some(fd) = self.fd {
            b = b.fd(fd);
        }
        b
    }

    /// Schedules this workload's crashes on the fault plane.
    pub fn schedule_faults(&self, s: &mut Scenario) {
        for f in &self.faults {
            let node = match f.victim {
                Victim::AppPrimary => s.primary(),
                Victim::ShardPrimary(shard) => s.shard_primary(shard),
            };
            s.schedule_fault(
                NemesisWhen::After(f.at),
                FaultOp::CrashFor { node, down_for: f.down_for },
            )
            .expect("both built-in backends inject faults");
        }
    }

    /// The resolved configuration, recorded beside every number.
    pub fn config_json(&self, quick: bool) -> Json {
        // The builder's own Debug output is the one complete source for
        // the cost model, network, protocol timers and FD it resolves to.
        let resolved = format!("{:?}", self.builder(0, quick, Dur::from_secs(3_600)));
        Json::obj([
            ("backend", Json::str(self.runtime.label())),
            ("builder", Json::str(if self.paper_scale { "new (paper scale)" } else { "fast" })),
            ("apps", Json::num(3.0)),
            ("shards", Json::num(self.sharding.map_or(1, |(s, _)| s) as f64)),
            ("replication", Json::num(self.sharding.map_or(1, |(_, r)| r) as f64)),
            ("clients", Json::num(self.clients as f64)),
            ("requests_per_client", Json::num(self.per_client(quick) as f64)),
            ("requests", Json::num(self.total_requests(quick) as f64)),
            ("issue_mode", Json::str("closed loop (IssueMode::Sequential)")),
            ("load", Json::str(&format!("{:?} over {} accounts", self.kind, self.accounts))),
            ("faults", Json::str(&format!("{:?}", self.faults))),
            ("resolved_builder", Json::str(&resolved)),
        ])
    }
}
