//! Scenario construction: one call builds a complete three-tier system
//! under any of the four middle-tier protocols, on either runtime backend,
//! ready to run and observe.

use crate::workloads::Workload;
use etx_base::config::{
    BatchingConfig, CostModel, FdConfig, FeatureSet, ProtocolConfig, ReadLeaseConfig,
    ReadPathConfig, SpeculationConfig,
};
use etx_base::fault::{CapabilityError, FaultOp, NemesisWhen};
use etx_base::ids::{NodeId, ResultId, Topology};
use etx_base::metrics::SpanTotals;
use etx_base::retry::IssuePlan;
use etx_base::runtime::{Host, RuntimeKind};
use etx_base::shard::{ShardId, ShardMap, ShardSpec};
use etx_base::time::{Dur, Time};
use etx_base::trace::{MsgStats, Trace, TraceKind};
use etx_base::value::Outcome;
use etx_baselines::{BaselineServer, PbRole, PbServer, RetryPolicy, SimpleClient, TpcServer};
use etx_core::{AppServer, DbServer, EtxClient, IssueMode, ReplRole};
use etx_fd::{ForcedSuspicion, HeartbeatFd, ScriptedFd};
use etx_rt::{ThreadedConfig, ThreadedHost};
use etx_sim::{NetConfig, RunOutcome, Sim, SimConfig};
use std::sync::Arc;

/// Which protocol runs the middle tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiddleTier {
    /// The paper's asynchronous-replication e-Transaction protocol with
    /// `apps` replicas (the paper's evaluation uses 3).
    Etx {
        /// Number of application-server replicas.
        apps: usize,
    },
    /// Unreliable baseline (Figure 7a): one server.
    Baseline,
    /// Presumed-nothing 2PC (Figure 7b): one coordinator.
    Tpc,
    /// Primary-backup (Figure 7c): primary + backup.
    Pb,
}

impl MiddleTier {
    /// Number of application servers this tier deploys.
    pub fn app_count(&self) -> usize {
        match self {
            MiddleTier::Etx { apps } => *apps,
            MiddleTier::Baseline | MiddleTier::Tpc => 1,
            MiddleTier::Pb => 2,
        }
    }

    /// Row label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            MiddleTier::Etx { .. } => "AR",
            MiddleTier::Baseline => "baseline",
            MiddleTier::Tpc => "2PC",
            MiddleTier::Pb => "PB",
        }
    }
}

/// Everything needed to build a run.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    seed: u64,
    tier: MiddleTier,
    clients: usize,
    dbs: usize,
    /// Sharded back end: `Some((shards, replication))` spawns
    /// `shards × replication` database servers organised into per-shard
    /// replica groups; `None` keeps the flat `dbs` tier.
    sharding: Option<(u32, usize)>,
    requests: u64,
    workload: Workload,
    cost: CostModel,
    net: NetConfig,
    pcfg: ProtocolConfig,
    fd: FdConfig,
    client_timeout: Dur,
    client_retry: RetryPolicy,
    forced_suspicions: Vec<ForcedSuspicion>,
    /// Run-time ceiling: wall clock for the threaded backend's watchdog,
    /// virtual time for the simulator's `max_time` stop. `None` keeps each
    /// backend's default.
    wall_limit: Option<Dur>,
    /// Which runtime backend hosts the scenario (default: the simulator).
    runtime: RuntimeKind,
}

impl ScenarioBuilder {
    /// A scenario with the paper's environment constants (Appendix 3) and
    /// the bank-update workload.
    pub fn new(tier: MiddleTier, seed: u64) -> Self {
        ScenarioBuilder {
            seed,
            tier,
            clients: 1,
            dbs: 1,
            sharding: None,
            requests: 1,
            workload: Workload::BankUpdate { amount: 100 },
            cost: CostModel::default(),
            net: NetConfig::paper_lan(),
            pcfg: ProtocolConfig::default(),
            fd: FdConfig::default(),
            client_timeout: Dur::from_millis(800),
            client_retry: RetryPolicy::GiveUp,
            forced_suspicions: Vec::new(),
            wall_limit: None,
            runtime: RuntimeKind::Sim,
        }
    }

    /// A scenario with miniature service times for fast tests.
    pub fn fast(tier: MiddleTier, seed: u64) -> Self {
        let mut b = Self::new(tier, seed);
        b.cost = CostModel::fast_for_tests();
        b.net = NetConfig::fast_for_tests();
        b.pcfg = ProtocolConfig::fast_for_tests();
        b.fd = FdConfig::fast_for_tests();
        b.client_timeout = Dur::from_millis(80);
        b
    }

    /// Number of databases.
    pub fn dbs(mut self, n: usize) -> Self {
        self.dbs = n;
        self
    }

    /// Partitions the keyspace over `n` hash shards (single-replica groups;
    /// see [`ScenarioBuilder::replication`] to widen them). Overrides
    /// [`ScenarioBuilder::dbs`]: the back end gets one replica group per
    /// shard. Only meaningful for key-addressed workloads under
    /// [`MiddleTier::Etx`].
    pub fn shards(mut self, n: u32) -> Self {
        let repl = self.sharding.map_or(1, |(_, r)| r);
        self.sharding = Some((n.max(1), repl));
        self
    }

    /// Sets the replica-group size of every shard (default 1). Implies a
    /// sharded back end (1 shard if [`ScenarioBuilder::shards`] was not
    /// called).
    pub fn replication(mut self, r: usize) -> Self {
        let shards = self.sharding.map_or(1, |(s, _)| s);
        self.sharding = Some((shards, r.max(1)));
        self
    }

    /// Selects the runtime backend: the deterministic simulator (default)
    /// or the wall-clock host. On [`RuntimeKind::Threaded`] the
    /// scenario's network model is ignored (channels are genuinely
    /// reliable and undelayed unless a link fault says otherwise). Fault
    /// injection works on both backends through the shared
    /// [`Scenario::schedule_fault`] plane; only simulator *internals*
    /// (virtual-time stepping, deterministic replay) stay behind
    /// [`Scenario::sim_mut`].
    pub fn runtime(mut self, kind: RuntimeKind) -> Self {
        self.runtime = kind;
        self
    }

    /// Caps the run on the hosting backend's clock: the threaded host's
    /// wall-clock watchdog and the simulator's virtual-time stop both
    /// return [`etx_sim::RunOutcome::TimeLimit`] instead of hanging the
    /// test process when a fault wedges the run. The same limit means the
    /// same thing on either backend — "this scenario is allowed this much
    /// of its host's time".
    pub fn wall_limit(mut self, limit: Dur) -> Self {
        self.wall_limit = Some(limit);
        self
    }

    /// Sets all optional protocol features in one call.
    pub fn features(mut self, f: FeatureSet) -> Self {
        self.pcfg.features = f;
        self
    }

    /// Enables commit-pipeline batching: application servers accumulate up
    /// to `cfg.max_batch` concurrent request outcomes (or wait at most
    /// `cfg.window`) and decide them in one decision-log slot.
    /// `max_batch = 1` is the degenerate per-request configuration.
    pub fn batching(mut self, cfg: BatchingConfig) -> Self {
        self.pcfg.features.batching = cfg;
        self
    }

    /// Configures speculation: with `enabled`, the shard primaries pay for
    /// a flushed pipeline batch's commit processing *while* its
    /// decision-log slot runs consensus, and the slot's decide applies the
    /// batch without paying again if it decided as proposed.
    pub fn speculation(mut self, cfg: SpeculationConfig) -> Self {
        self.pcfg.features.speculation = cfg;
        self
    }

    /// Configures the read fast lane: with `enabled`, read-only scripts
    /// (all-`Get`) route around the commit pipeline as direct snapshot
    /// reads; with `follower_reads` on top, they spread over each shard's
    /// replicas, gated on the per-shard freshness stamp.
    pub fn read_path(mut self, cfg: ReadPathConfig) -> Self {
        self.pcfg.features.read_path = cfg;
        self
    }

    /// Configures time-bounded read leases: shard primaries grant their
    /// followers "my ship position is authoritative through T" and
    /// advertise the grants to application servers, which then route any
    /// fast-path read — multi-shard snapshot-validation collects included
    /// — at in-lease followers with no stamp gate and no forward hop.
    /// Only meaningful on top of an enabled read fast lane:
    /// [`ScenarioBuilder::build`] disables leases when the lane is off.
    pub fn read_leases(mut self, cfg: ReadLeaseConfig) -> Self {
        self.pcfg.features.read_leases = cfg;
        self
    }

    /// Number of concurrent clients (each issues its own request plan;
    /// concurrent clients generate genuine lock contention).
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n.max(1);
        self
    }

    /// Number of sequential requests the client issues.
    pub fn requests(mut self, n: u64) -> Self {
        self.requests = n;
        self
    }

    /// The workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// Cost model override.
    pub fn cost(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Network override.
    pub fn net(mut self, n: NetConfig) -> Self {
        self.net = n;
        self
    }

    /// Protocol configuration override.
    pub fn protocol(mut self, p: ProtocolConfig) -> Self {
        self.pcfg = p;
        self
    }

    /// Failure-detector configuration override.
    pub fn fd(mut self, f: FdConfig) -> Self {
        self.fd = f;
        self
    }

    /// Baseline-client retry policy (ignored by the e-Transaction client,
    /// which never needs one).
    pub fn client_retry(mut self, p: RetryPolicy) -> Self {
        self.client_retry = p;
        self
    }

    /// Injects false-suspicion windows into every e-Transaction server's
    /// failure detector (chaos testing).
    pub fn force_suspicions(mut self, windows: Vec<ForcedSuspicion>) -> Self {
        self.forced_suspicions = windows;
        self
    }

    /// Builds the system with all processes registered on the selected
    /// runtime backend.
    pub fn build(mut self) -> Scenario {
        // Leases exist to serve the read fast lane; without it there is
        // nothing to lease-cover, so the grant machinery (renewal timers,
        // piggybacked grants, recovery fences) stays out of the schedule.
        if !self.pcfg.features.read_path.enabled {
            self.pcfg.features.read_leases = ReadLeaseConfig::disabled();
        }
        let db_count = match self.sharding {
            Some((shards, repl)) => shards as usize * repl,
            None => self.dbs,
        };
        let topo = Topology::new(self.clients, self.tier.app_count(), db_count);
        // The shard map every application server routes against. Flat
        // scenarios keep the implicit one-shard-per-db layout, so explicit
        // scripts behave exactly as before sharding existed.
        let shard_map = match self.sharding {
            Some((shards, repl)) => {
                ShardMap::build(ShardSpec::Hash { shards }, &topo.db_servers, repl)
            }
            None => ShardMap::one_per_db(&topo.db_servers),
        };
        let mut backend = match self.runtime {
            RuntimeKind::Sim => {
                let mut sim_cfg = SimConfig::with_seed(self.seed);
                sim_cfg.cost = self.cost.clone();
                sim_cfg.net = self.net.clone();
                if let Some(limit) = self.wall_limit {
                    sim_cfg.max_time = Time(limit.0);
                }
                Backend::Sim(Box::new(Sim::new(sim_cfg)))
            }
            RuntimeKind::Threaded => {
                // The network model is the virtual clock's: on the wall
                // clock a link adds no delay. Modelled *service* times
                // (the cost model) are honored on both.
                let mut tcfg = ThreadedConfig::with_seed(self.seed);
                tcfg.cost = self.cost.clone();
                if let Some(limit) = self.wall_limit {
                    tcfg.wall_limit = std::time::Duration::from_micros(limit.0);
                }
                Backend::Threaded(Box::new(ThreadedHost::new(tcfg)))
            }
        };
        let sim = backend.host_mut();
        let seed_data = self.workload.seed_data();

        // Clients first (ids must match Topology::new order). A client's
        // plan is a generator over one shared copy of the workload and the
        // topology: each request is made when the client issues it.
        let shared = Arc::new((self.workload.clone(), topo.clone()));
        for &client in &topo.clients {
            let made = Arc::clone(&shared);
            let plan = IssuePlan::new(self.requests, move |seq| {
                let (workload, topo) = &*made;
                workload.request(topo, client, seq)
            });
            match self.tier {
                MiddleTier::Etx { .. } | MiddleTier::Pb => {
                    let alist = topo.app_servers.clone();
                    let pcfg = self.pcfg.clone();
                    let mode = if self.workload.is_open_loop() {
                        IssueMode::OpenLoop
                    } else {
                        IssueMode::Sequential
                    };
                    sim.add_node(
                        "client",
                        Box::new(move |_| {
                            Box::new(EtxClient::with_mode(
                                alist.clone(),
                                pcfg.clone(),
                                plan.clone(),
                                mode,
                            ))
                        }),
                    );
                }
                MiddleTier::Baseline | MiddleTier::Tpc => {
                    let server = topo.app_servers[0];
                    let timeout = self.client_timeout;
                    let policy = self.client_retry;
                    sim.add_node(
                        "client",
                        Box::new(move |_| {
                            Box::new(SimpleClient::new(server, timeout, policy, plan.clone()))
                        }),
                    );
                }
            }
        }

        // Middle tier.
        match self.tier {
            MiddleTier::Etx { apps } => {
                for _ in 0..apps {
                    let topo_c = topo.clone();
                    let pcfg = self.pcfg.clone();
                    let cost = self.cost.clone();
                    let fd_cfg = self.fd;
                    let forced = self.forced_suspicions.clone();
                    let map = shard_map.clone();
                    sim.add_node(
                        "app",
                        Box::new(move |me| {
                            let inner = HeartbeatFd::new(me, &topo_c.app_servers, fd_cfg);
                            let fd: Box<dyn etx_fd::FailureDetector> = if forced.is_empty() {
                                Box::new(inner)
                            } else {
                                Box::new(ScriptedFd::new(inner, forced.clone()))
                            };
                            Box::new(AppServer::with_shards(
                                me,
                                topo_c.clone(),
                                pcfg.clone(),
                                cost.clone(),
                                map.clone(),
                                fd,
                            ))
                        }),
                    );
                }
            }
            MiddleTier::Baseline => {
                let cost = self.cost.clone();
                sim.add_node(
                    "baseline",
                    Box::new(move |_| Box::new(BaselineServer::new(cost.clone()))),
                );
            }
            MiddleTier::Tpc => {
                let dlist = topo.db_servers.clone();
                let cost = self.cost.clone();
                let retry = self.pcfg.terminate_retry;
                sim.add_node(
                    "tpc",
                    Box::new(move |_| Box::new(TpcServer::new(dlist.clone(), cost.clone(), retry))),
                );
            }
            MiddleTier::Pb => {
                let (p, b) = (topo.app_servers[0], topo.app_servers[1]);
                for (name, role, peer) in
                    [("pb-primary", PbRole::Primary, b), ("pb-backup", PbRole::Backup, p)]
                {
                    let dlist = topo.db_servers.clone();
                    let cost = self.cost.clone();
                    let retry = self.pcfg.terminate_retry;
                    sim.add_node(
                        name,
                        Box::new(move |_| {
                            Box::new(PbServer::new(role, peer, dlist.clone(), cost.clone(), retry))
                        }),
                    );
                }
            }
        }

        // Back end: one process per database server. Under sharding each
        // server holds only its shard's slice of the seed data and knows
        // its replica-group role; followers pull snapshots at twice the
        // terminate-retry cadence until caught up.
        let sync_retry = Dur(self.pcfg.terminate_retry.0 * 2);
        let mut db_seeds = std::collections::HashMap::new();
        for &node in &topo.db_servers {
            let alist = topo.app_servers.clone();
            let cost = self.cost.clone();
            let (data, repl) = match self.sharding {
                None => (seed_data.clone(), ReplRole::default()),
                Some(_) => {
                    let shard = shard_map.shard_of_node(node).expect("every db is in a group");
                    let data: Vec<(String, i64)> = seed_data
                        .iter()
                        .filter(|(k, _)| shard_map.shard_of(k) == shard)
                        .cloned()
                        .collect();
                    let primary = shard_map.primary(shard);
                    let repl = if node == primary {
                        ReplRole {
                            followers: shard_map.peers_of(node),
                            sync_from: None,
                            sync_retry,
                        }
                    } else {
                        ReplRole { followers: Vec::new(), sync_from: Some(primary), sync_retry }
                    };
                    (data, repl)
                }
            };
            db_seeds.insert(node, data.clone());
            let features = self.pcfg.features;
            sim.add_node(
                "db",
                Box::new(move |_| {
                    Box::new(
                        DbServer::with_replication(
                            alist.clone(),
                            cost.clone(),
                            data.clone(),
                            repl.clone(),
                        )
                        .with_features(features),
                    )
                }),
            );
        }

        Scenario {
            backend,
            topo,
            shard_map,
            db_seeds,
            requests: self.requests * self.clients as u64,
        }
    }
}

/// The runtime backend a built scenario runs on. Either host owns the
/// run's one trace and its totals and lends them out in place
/// ([`Host::trace`], [`Host::stats`], [`Host::spans`]); the scenario keeps
/// no copy. Both are boxed: the simulator's event queue keeps its 64
/// buckets inline, and the enum stays one pointer wide either way.
#[derive(Debug)]
pub enum Backend {
    /// The deterministic discrete-event simulator.
    Sim(Box<Sim>),
    /// The wall-clock host, which runs every node on the thread that
    /// calls the run.
    Threaded(Box<ThreadedHost>),
}

impl Backend {
    fn host(&self) -> &dyn Host {
        match self {
            Backend::Sim(sim) => &**sim,
            Backend::Threaded(host) => &**host,
        }
    }

    fn host_mut(&mut self) -> &mut dyn Host {
        match self {
            Backend::Sim(sim) => &mut **sim,
            Backend::Threaded(host) => &mut **host,
        }
    }

    fn kind(&self) -> RuntimeKind {
        match self {
            Backend::Sim(_) => RuntimeKind::Sim,
            Backend::Threaded(_) => RuntimeKind::Threaded,
        }
    }
}

/// A built system plus convenience queries over its trace.
#[derive(Debug)]
pub struct Scenario {
    /// Which backend hosts the run. Prefer the backend-neutral accessors
    /// ([`Scenario::trace`], [`Scenario::stats`], [`Scenario::now`]) and
    /// the capability gates ([`Scenario::sim`], [`Scenario::sim_mut`]).
    backend: Backend,
    /// Who is who.
    pub topo: Topology,
    /// How the keyspace maps onto the database tier (flat topologies get
    /// the implicit one-shard-per-db map).
    pub shard_map: ShardMap,
    /// The seed data each database server started with (per-shard slices
    /// under sharding) — the baseline for state reconstruction.
    db_seeds: std::collections::HashMap<NodeId, Vec<(String, i64)>>,
    /// Total number of requests across all clients.
    pub requests: u64,
}

impl Scenario {
    /// Which runtime backend hosts this scenario.
    pub fn runtime_kind(&self) -> RuntimeKind {
        self.backend.kind()
    }

    /// Injects one fault right now, backend-neutral: the simulator applies
    /// it at the current virtual instant, the threaded host at the current
    /// wall-clock one (or at startup when scheduled before the first
    /// run). Every backend injects every fault; the one
    /// [`CapabilityError`] left is a threaded host that was already stopped.
    pub fn fault(&mut self, op: FaultOp) -> Result<(), CapabilityError> {
        self.backend.host_mut().schedule_fault(NemesisWhen::Now, op)
    }

    /// Schedules one fault on the hosting backend: `when` is an offset on
    /// the backend's own clock (virtual for the simulator, wall for the
    /// threaded host) or a trace predicate evaluated as events land.
    pub fn schedule_fault(
        &mut self,
        when: NemesisWhen,
        op: FaultOp,
    ) -> Result<(), CapabilityError> {
        self.backend.host_mut().schedule_fault(when, op)
    }

    /// The simulator, for internals only it has (virtual-time stepping,
    /// deterministic replay). Fault injection is
    /// **not** such a capability — use
    /// [`Scenario::fault`] / [`Scenario::schedule_fault`], which work on
    /// both backends.
    ///
    /// # Panics
    ///
    /// Panics on the threaded backend: virtual time and deterministic
    /// replay are simulator internals by design, and pretending otherwise
    /// would silently change what a test measures.
    pub fn sim(&self) -> &Sim {
        match &self.backend {
            Backend::Sim(sim) => sim,
            Backend::Threaded(_) => panic!(
                "this scenario runs on the threaded backend: virtual time and \
                 deterministic replay are simulator internals — \
                 build with RuntimeKind::Sim for those, and use \
                 Scenario::schedule_fault for fault injection, which works on both \
                 backends"
            ),
        }
    }

    /// Mutable simulator access (run_until / virtual-time stepping). Same
    /// capability gate as [`Scenario::sim`]; for fault injection use the
    /// backend-neutral [`Scenario::schedule_fault`] instead.
    ///
    /// # Panics
    ///
    /// Panics on the threaded backend, like [`Scenario::sim`].
    pub fn sim_mut(&mut self) -> &mut Sim {
        match &mut self.backend {
            Backend::Sim(sim) => sim,
            Backend::Threaded(_) => panic!(
                "this scenario runs on the threaded backend: virtual time and \
                 deterministic replay are simulator internals — \
                 build with RuntimeKind::Sim for those, and use \
                 Scenario::schedule_fault for fault injection, which works on both \
                 backends"
            ),
        }
    }

    /// The threaded host, when this scenario runs on it (introspection in
    /// runtime-equivalence tests; `None` on the simulator).
    pub fn threaded(&self) -> Option<&ThreadedHost> {
        match &self.backend {
            Backend::Threaded(host) => Some(host),
            Backend::Sim(_) => None,
        }
    }

    /// The collected trace, backend-neutral and read in place.
    pub fn trace(&self) -> &Trace {
        self.backend.host().trace()
    }

    /// Message statistics, backend-neutral and read in place.
    pub fn stats(&self) -> &MsgStats {
        self.backend.host().stats()
    }

    /// Figure 8 spans, summed per component over every node, read like
    /// [`Scenario::stats`]. No span is in the trace: this is where the
    /// modelled service time of a run is.
    pub fn spans(&self) -> &SpanTotals {
        self.backend.host().spans()
    }

    /// Current time on the hosting backend's clock (virtual for the
    /// simulator, monotonic-since-start for the threaded host).
    pub fn now(&self) -> Time {
        self.backend.host().host_now()
    }

    /// Counts trace events whose kind matches `pred` — the one filtered
    /// count every `*_reads` / `spec_*` / `lease_*` accessor routes
    /// through.
    fn count(&self, pred: impl FnMut(&TraceKind) -> bool) -> usize {
        self.trace().count_kind(pred)
    }

    /// Collects the distinct attempt ids of trace events `f` maps to
    /// `Some(rid)` — deduplicated because every replica that processes an
    /// attempt traces its own copy of most per-attempt events.
    fn distinct_rids(&self, mut f: impl FnMut(&TraceKind) -> Option<ResultId>) -> usize {
        let mut rids = std::collections::BTreeSet::new();
        for e in self.trace().events() {
            if let Some(rid) = f(&e.kind) {
                rids.insert(rid);
            }
        }
        rids.len()
    }

    /// Runs until the client has delivered (or been told the fate of) `n`
    /// requests — deliveries for e-Transactions, deliveries+exceptions for
    /// baselines.
    pub fn run_until_settled(&mut self, n: usize) -> RunOutcome {
        let mut scanned = 0usize;
        let mut done = 0usize;
        self.backend.host_mut().run_trace_until(Box::new(move |trace| {
            let events = trace.events();
            for e in &events[scanned..] {
                if matches!(e.kind, TraceKind::Deliver { .. } | TraceKind::Exception { .. }) {
                    done += 1;
                }
            }
            scanned = events.len();
            done >= n
        }))
    }

    /// Lets in-flight background work (decide pushes, acks) finish.
    pub fn quiesce(&mut self, extra: Dur) {
        self.backend.host_mut().quiesce_for(extra);
    }

    /// Shuts the run down: on the threaded backend, nothing runs from here
    /// and no fault is accepted; every process and log stays readable.
    /// No-op on the simulator. (A node whose handler panicked has already
    /// failed the scenario: the panic unwinds out of the run call, on
    /// either backend.)
    pub fn stop(&mut self) {
        if let Backend::Threaded(host) = &mut self.backend {
            host.stop();
        }
    }

    /// All deliveries so far: (attempt, outcome, steps, at).
    pub fn deliveries(&self) -> Vec<(ResultId, Outcome, u32, Time)> {
        self.trace()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Deliver { rid, outcome, steps } => Some((rid, outcome, steps, e.at)),
                _ => None,
            })
            .collect()
    }

    /// Count of committed deliveries.
    pub fn delivered_commits(&self) -> usize {
        self.deliveries().iter().filter(|(_, o, _, _)| *o == Outcome::Commit).count()
    }

    /// Every delivered `(attempt, decision)` pair — results included —
    /// read straight out of the client processes. Unlike
    /// [`Scenario::deliveries`] this exposes the delivered *values*, which
    /// the trace deliberately does not carry; value-level assertions (the
    /// read-equivalence property among them) live here.
    ///
    /// Either host reads its live processes, and the run can go on.
    pub fn delivered_results(&self) -> Vec<(ResultId, etx_base::value::Decision)> {
        let mut out = Vec::new();
        for &client in &self.topo.clients {
            let proc_ref = match &self.backend {
                Backend::Sim(sim) => sim.process_ref(client),
                Backend::Threaded(host) => host.process_ref(client),
            };
            let Some(proc_ref) = proc_ref else { continue };
            let Some(any) = proc_ref.as_any() else { continue };
            if let Some(c) = any.downcast_ref::<EtxClient>() {
                out.extend(c.delivered().iter().cloned());
            }
        }
        out
    }

    /// Count of decision-log slots applied with **more than one** request
    /// outcome — the definition of "this run exercised real batches",
    /// shared by the chaos runners and the batching tests.
    pub fn batched_slots(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::BatchDecided { len, .. } if *len >= 2))
    }

    /// Count of group WAL appends framing more than one record (group
    /// commit / batched replication apply actually amortising the log).
    pub fn group_appends(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::GroupAppend { len } if *len >= 2))
    }

    /// Count of batches a shard primary stashed and pre-paid while the
    /// decision-log slot was still running consensus.
    pub fn spec_execs(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::SpecExec { .. }))
    }

    /// Count of decided slots whose stash was promoted (the decided batch
    /// matched the proposed one).
    pub fn spec_hits(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::SpecHit { .. }))
    }

    /// Count of decided slots whose stash was dropped and which decided on
    /// the decide-then-execute path (mis-speculation).
    pub fn spec_aborts(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::SpecAbort { .. }))
    }

    /// Always 0: an application server keeps one decision-log slot in
    /// flight, so no window deepens. Kept only because `examples/etx_bench`
    /// names it.
    pub fn pipeline_window_peak(&self) -> u32 {
        0
    }

    /// Distinct attempts that took the read fast lane (classified
    /// read-only and routed around the commit pipeline).
    pub fn fast_path_reads(&self) -> usize {
        self.distinct_rids(|k| match k {
            TraceKind::ReadFastPath { rid, .. } => Some(*rid),
            _ => None,
        })
    }

    /// Count of fast-path reads served locally by a shard follower.
    pub fn follower_reads_served(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::FollowerRead { .. }))
    }

    /// Count of fast-path reads a lagging follower forwarded to its
    /// primary (the freshness gate firing).
    pub fn reads_forwarded(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::ReadForwarded { .. }))
    }

    /// Count of timer-driven lease grants shard primaries issued (the
    /// piggybacked renewals on commit shipments are untraced).
    pub fn lease_grants(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::LeaseGrant { .. }))
    }

    /// Count of fast-path reads a follower refused because its read lease
    /// had expired (each is followed by a `ReadForwarded` hop).
    pub fn lease_expired_reads(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::LeaseExpired { .. }))
    }

    /// Count of write-ack fences recovering lease-granting primaries
    /// installed (each withholds commit acks for one full lease term).
    pub fn lease_fences(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::LeaseFence { .. }))
    }

    /// Count of retry-backstop firings for fast-path reads (each re-sends
    /// the unanswered calls of the current collect).
    pub fn reads_retried(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::ReadRetried { .. }))
    }

    /// Count of fast-path reads that exhausted their snapshot-validation
    /// budget and answered abort (the client's next attempt takes the
    /// locking commit path).
    pub fn read_fallbacks(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::ReadFallback { .. }))
    }

    /// Database commit events (per (db, rid), at most one each).
    pub fn db_commits(&self) -> usize {
        self.count(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }))
    }

    /// The default primary application server.
    pub fn primary(&self) -> NodeId {
        self.topo.primary()
    }

    /// The primary database replica of a shard.
    pub fn shard_primary(&self, shard: u32) -> NodeId {
        self.shard_map.primary(ShardId(shard))
    }

    /// The full replica group of a shard (index 0 is the primary).
    pub fn shard_replicas(&self, shard: u32) -> &[NodeId] {
        self.shard_map.replicas(ShardId(shard))
    }

    /// Count of distinct attempts voted on (`DbVote`) at more than one
    /// shard of [`Scenario::shard_map`]: transactions whose branches really
    /// spanned shards. An attempt counts once however many replicas,
    /// re-sent prepares or crashes it met, and not at all if it ended
    /// before a second shard voted. (Flat scenarios map one shard to each
    /// database.)
    pub fn cross_shard_routes(&self) -> usize {
        let mut voted: std::collections::BTreeMap<ResultId, ShardId> =
            std::collections::BTreeMap::new();
        let mut spanning = std::collections::BTreeSet::new();
        for e in self.trace().events() {
            if let TraceKind::DbVote { rid, .. } = e.kind {
                let Some(shard) = self.shard_map.shard_of_node(e.node) else { continue };
                if *voted.entry(rid).or_insert(shard) != shard {
                    spanning.insert(rid);
                }
            }
        }
        spanning.len()
    }

    /// Per-request client-perceived latency in milliseconds: delivery time
    /// minus the request's first issue. (Delivery *timestamps* are only a
    /// latency for single-request runs; a sequential client's k-th request
    /// carries its predecessors' time in its timestamp.)
    pub fn request_latencies_ms(&self) -> Vec<f64> {
        let mut issues: std::collections::BTreeMap<etx_base::ids::RequestId, Time> =
            std::collections::BTreeMap::new();
        for e in self.trace().events() {
            if let TraceKind::Issue { request } = e.kind {
                issues.entry(request).or_insert(e.at);
            }
        }
        self.deliveries()
            .iter()
            .filter_map(|(rid, _, _, at)| {
                issues.get(&rid.request).map(|&t0| at.since(t0).as_millis_f64())
            })
            .collect()
    }

    /// Reconstructs a database server's committed state from its durable
    /// log: both hosts keep each node's
    /// [`StableStorage`](etx_base::wal::StableStorage) (not its process
    /// memory), and recovery is deterministic, so replaying the WAL, read
    /// in place, over the server's seed slice yields exactly what the
    /// server holds committed. This is how tests assert replica-group
    /// convergence; it reads storage mid-run as well, on either host.
    pub fn rebuilt_committed(&self, db: NodeId) -> std::collections::BTreeMap<String, i64> {
        let seed = self.db_seeds.get(&db).cloned().unwrap_or_default();
        let storage = match &self.backend {
            Backend::Sim(sim) => sim.storage(db),
            Backend::Threaded(host) => host.storage(db),
        };
        let log = storage.read(etx_base::wal::LOG_WAL);
        etx_store::Engine::recover_with_seed(seed, log).snapshot().clone()
    }
}
