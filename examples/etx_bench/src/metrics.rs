//! The metric tables: every name the benchmark reports, with its unit,
//! direction and regression bound. `BENCHMARK.json` is the projection of
//! these tables onto the driver's contract (`etx_bench contract` prints it).

use crate::workloads::Spec;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which workloads report an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum On {
    All,
    /// The workloads on the simulated clock.
    Sim,
    /// The workloads that inject faults.
    Faulted,
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub on: On,
    /// Regression bound of `compare`, as a share of A's median, on a
    /// workload whose clock is simulated (the value repeats exactly for a
    /// seed) and on one whose clock is the wall.
    pub bound_sim: f64,
    pub bound_wall: f64,
    /// The one bound `BENCHMARK.json` can carry for this metric: it has to
    /// hold on the noisiest workload (`commit_thr4`, 19 threads on 2
    /// cores), so it is looser than either bound above. 0 keeps the
    /// metric out of the contract's end-to-end list: it is not defined on
    /// every workload, or (`latency_p99_ms`: a wall-clock tail on shared
    /// cores) no bound of at most 25 % holds on `commit_thr4`.
    pub contract_bound: f64,
    /// Whether the value is read off the backend's own clock (simulated
    /// on sim workloads) rather than this machine's.
    pub backend_clock: bool,
    pub what: &'static str,
}

impl EndToEnd {
    pub fn applies(&self, spec: &Spec) -> bool {
        match self.on {
            On::All => true,
            On::Sim => spec.is_sim(),
            On::Faulted => !spec.faults.is_empty(),
        }
    }

    /// Whether the metric is in the end-to-end list of `BENCHMARK.json`
    /// (the rest ride at the head of its per-layer list).
    pub fn in_contract(&self) -> bool {
        self.contract_bound > 0.0
    }

    /// `compare`'s bound for this metric on this workload.
    pub fn bound(&self, spec: &Spec) -> f64 {
        if spec.is_sim() {
            self.bound_sim
        } else {
            self.bound_wall
        }
    }
}

/// Below this many seconds a `setup_s` difference is not a regression,
/// whatever its share of the median.
pub const SETUP_FLOOR_S: f64 = 0.05;

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        on: On::All,
        bound_sim: 0.25,
        bound_wall: 0.25,
        contract_bound: 0.25,
        backend_clock: false,
        what: "ScenarioBuilder::build() through the first Issue (threaded: includes thread spawn)",
    },
    EndToEnd {
        name: "commit_per_s",
        unit: "1/s",
        better: Better::Higher,
        on: On::All,
        bound_sim: 0.08,
        bound_wall: 0.10,
        contract_bound: 0.25,
        backend_clock: false,
        what: "delivered commits / wall seconds of run_until_settled",
    },
    EndToEnd {
        name: "cpu_us_per_commit",
        unit: "us",
        better: Better::Lower,
        on: On::All,
        bound_sim: 0.08,
        bound_wall: 0.10,
        contract_bound: 0.25,
        backend_clock: false,
        what: "process CPU time (all threads) over the same window / commits",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        on: On::All,
        bound_sim: 0.02,
        bound_wall: 0.10,
        contract_bound: 0.25,
        backend_clock: true,
        what: "client Issue -> Deliver, backend clock (simulated ms on sim, wall ms on threaded); \
               on paper_seq1 this is the paper's Figure 8 total",
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        on: On::All,
        bound_sim: 0.02,
        bound_wall: 0.15,
        contract_bound: 0.0,
        backend_clock: true,
        what: "as latency_p50_ms, 99th percentile",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        on: On::All,
        bound_sim: 0.05,
        bound_wall: 0.05,
        contract_bound: 0.05,
        backend_clock: false,
        what: "VmHWM of the child process when the leg ends",
    },
    EndToEnd {
        name: "model_commit_per_s",
        unit: "1/s",
        better: Better::Higher,
        on: On::Sim,
        bound_sim: 0.02,
        bound_wall: 0.02,
        contract_bound: 0.0,
        backend_clock: true,
        what: "commits / simulated seconds",
    },
    EndToEnd {
        name: "app_failover_ms",
        unit: "ms",
        better: Better::Lower,
        on: On::Faulted,
        bound_sim: 0.02,
        bound_wall: 0.02,
        contract_bound: 0.0,
        backend_clock: true,
        what: "median latency of the requests in flight when the primary app server crashes",
    },
    EndToEnd {
        name: "db_failover_ms",
        unit: "ms",
        better: Better::Lower,
        on: On::Faulted,
        bound_sim: 0.02,
        bound_wall: 0.02,
        contract_bound: 0.0,
        backend_clock: true,
        what: "median latency of requests in flight at a shard-0 primary crash that have a \
               DbVote/DbDecide at the victim, pooled over the three crashes",
    },
];

/// `failed_pct` is the tenth end-to-end metric: it is a count, has no
/// quartiles, and its rule is "no increase", so it lives outside the table.
pub const FAILED_PCT: &str = "failed_pct";

/// A per-layer metric: (name, unit, direction, what it measures).
pub type Layer = (&'static str, &'static str, Better, &'static str);

use Better::{Higher, Lower};

/// Reconstructed from each workload's trace and message statistics.
pub const TRACE_LAYERS: [Layer; 29] = [
    ("core.stage.compute_ms_p50", "ms", Lower, "Issue -> Computed"),
    ("core.stage.compute_ms_p99", "ms", Lower, "Issue -> Computed"),
    ("core.stage.vote_ms_p50", "ms", Lower, "Computed -> last DbVote"),
    ("core.stage.commit_ms_p50", "ms", Lower, "last DbVote -> last commit DbDecide"),
    ("core.stage.commit_ms_p99", "ms", Lower, "last DbVote -> last commit DbDecide"),
    ("core.stage.deliver_ms_p50", "ms", Lower, "last commit DbDecide -> Deliver"),
    ("core.read_ms_p50", "ms", Lower, "Issue -> Deliver of fast-lane reads"),
    ("core.read_fast_share", "ratio", Higher, "fast-lane reads / delivered requests"),
    ("core.follower_read_share", "ratio", Higher, "FollowerRead / fast-lane reads"),
    ("core.read_forwarded_per_read", "ratio", Lower, "ReadForwarded / fast-lane reads"),
    ("core.read_fallbacks", "count", Lower, "reads that fell back to the locking path"),
    ("core.client_retries_per_commit", "ratio", Lower, "ClientRetry / commits"),
    ("core.cleaner_takeovers", "count", Lower, "CleanerTakeover events"),
    ("consensus.commits_per_slot", "ratio", Higher, "outcomes per decided decision-log slot"),
    ("consensus.window_peak", "count", Higher, "most undecided slots in flight at once"),
    ("consensus.msgs_per_commit", "ratio", Lower, "C*-labelled messages / commits"),
    ("store.group_appends_per_commit", "ratio", Lower, "GroupAppend events / commits"),
    ("store.wal_records_per_commit", "ratio", Lower, "top-level WAL records / commits (sim only)"),
    ("store.spec_hit_ratio", "ratio", Higher, "SpecHit / SpecExec"),
    ("store.repl_lag_ms_p50", "ms", Lower, "primary DbDecide -> follower DbReplicated"),
    ("store.repl_lag_ms_p99", "ms", Lower, "primary DbDecide -> follower DbReplicated"),
    ("fd.false_suspicions", "count", Lower, "Suspect events before the first injected crash"),
    ("fd.msgs_share", "ratio", Lower, "heartbeats / all messages"),
    ("base.msgs_per_commit", "ratio", Lower, "MsgStats::protocol_total / commits"),
    ("base.trace_events_per_commit", "ratio", Lower, "Trace::len / commits"),
    ("sim.events_per_s", "1/s", Higher, "Sim::processed / wall seconds (sim only)"),
    ("harness.spec_check_ms", "ms", Lower, "properties::check over the trace, outside the window"),
    ("trace_overhead_pct", "%", Lower, "traced leg's commit_per_s against a plain leg's"),
    ("host_speed", "ratio", Higher, "this machine against the reference, over the traced leg"),
];

/// From the layer microbenches (`micro.rs`): each layer's own ceiling.
pub const MICRO_LAYERS: [Layer; 24] = [
    ("sim.pingpong_msgs_per_s", "1/s", Higher, "two Process nodes on Sim through the Host seam"),
    ("sim.storage_append_ns", "ns", Lower, "StableStorage::append"),
    ("rt.pingpong_msgs_per_s", "1/s", Higher, "two nodes on ThreadedHost"),
    ("rt.fanin_msgs_per_s", "1/s", Higher, "two senders -> one receiver on ThreadedHost"),
    ("rt.trace_events_per_s", "1/s", Higher, "two nodes calling ctx.trace() concurrently"),
    ("rt.timer_lag_us_p50", "us", Lower, "lateness of set_timer(1 ms) on ThreadedHost"),
    ("rt.timer_lag_us_p99", "us", Lower, "lateness of set_timer(1 ms) on ThreadedHost"),
    ("rt.spawn_ms", "ms", Lower, "start of 16 idle nodes on ThreadedHost"),
    (
        "consensus.slots_per_s",
        "1/s",
        Higher,
        "3 WoRegisters + DecisionLog, loopback, batch 1 depth 1",
    ),
    ("consensus.outcomes_per_s_b64w4", "1/s", Higher, "same, batch 64 depth 4"),
    ("consensus.msgs_per_slot", "ratio", Lower, "messages per decided slot, batch 1 depth 1"),
    ("store.xa_txn_ns", "ns", Lower, "Engine execute + vote + decide"),
    ("store.decide_batch64_ns_per_txn", "ns", Lower, "Engine::decide_batch of 64"),
    (
        "store.spec_promote64_ns_per_txn",
        "ns",
        Lower,
        "Engine speculate + promote_speculation of 64",
    ),
    ("store.apply_replicated64_ns_per_txn", "ns", Lower, "follower apply_replicated_batch of 64"),
    ("store.read_only_ns", "ns", Lower, "Engine::read_only of one Get"),
    ("store.lock_cycle_ns", "ns", Lower, "LockTable acquire + release_all"),
    ("store.recover_100k_ms", "ms", Lower, "Engine::recover over a 100 000-record WAL"),
    ("core.route_ns", "ns", Lower, "router::route of a 2-key script on a 16-shard map"),
    ("base.trace_push_ns", "ns", Lower, "Trace::push"),
    ("fd.heartbeat_cycle_ns", "ns", Lower, "HeartbeatFd beat + 2 heartbeats heard + check"),
    ("baselines.tpc_model_latency_ms", "ms", Lower, "paper_seq1 shape, 1 000 requests, 2PC"),
    ("baselines.pb_model_latency_ms", "ms", Lower, "same, primary-backup"),
    ("baselines.unreplicated_model_latency_ms", "ms", Lower, "same, single unreplicated server"),
];

/// The contract's per-layer list: the end-to-end metrics its end-to-end
/// list cannot hold, then the layer metrics proper. (name, unit, direction.)
pub fn contract_per_layer() -> Vec<(&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .filter(|m| !m.in_contract())
        .map(|m| (m.name, m.unit, m.better))
        .chain(TRACE_LAYERS.iter().chain(&MICRO_LAYERS).map(|&(n, u, b, _)| (n, u, b)))
        .collect()
}
