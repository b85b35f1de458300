//! Layer microbenches: each layer's own ceiling, measured from outside by
//! timing calls into its public functions. Every leg is wrapped in a
//! benchmark-owned span (name, start, end, parent); spans are held in
//! memory and handed back with the numbers.

use crate::json::Json;
use crate::stats;
use etx::base::config::{CostModel, FdConfig};
use etx::base::ids::{NodeId, RequestId, ResultId, TimerId};
use etx::base::msg::{FdMsg, Payload};
use etx::base::runtime::{Context, Event, Host, Process, TimerTag};
use etx::base::shard::{ShardMap, ShardSpec};
use etx::base::time::{Dur, Time};
use etx::base::trace::{Trace, TraceEvent, TraceKind};
use etx::base::value::{DbOp, Decision, Outcome, OutcomeBatch, ShippedCommit};
use etx::base::wal::{StableRecord, LOG_WAL};
use etx::consensus::{DecisionLog, EngineConfig, WoEvent, WoRegisters};
use etx::fd::{FailureDetector, HeartbeatFd};
use etx::harness::{MiddleTier, ScenarioBuilder};
use etx::protocol::route;
use etx::rt::{ThreadedConfig, ThreadedHost};
use etx::sim::{Sim, SimConfig, StableStorage};
use etx::store::{Engine, LockMode, LockTable};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The metrics by name, and the benchmark-owned spans around the legs that
/// produced them (microseconds since the recorder was created).
pub struct Spans {
    epoch: Instant,
    rows: Vec<(String, f64, f64, String)>,
    pub metrics: BTreeMap<String, f64>,
}

impl Spans {
    fn new() -> Self {
        Spans { epoch: Instant::now(), rows: Vec::new(), metrics: BTreeMap::new() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn record<T>(&mut self, name: &str, parent: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let start = self.now_us();
        let out = f(self);
        self.rows.push((name.to_string(), start, self.now_us(), parent.to_string()));
        out
    }

    /// One leg: a span named after the metric it measures.
    fn leg(&mut self, name: &str, parent: &str, f: impl FnOnce() -> f64) {
        let value = self.record(name, parent, |_| f());
        self.put(name, value);
    }

    fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|(name, start, end, parent)| {
                    Json::obj([
                        ("name", Json::str(name)),
                        ("start_us", Json::num(*start)),
                        ("end_us", Json::num(*end)),
                        ("parent", if parent.is_empty() { Json::Null } else { Json::str(parent) }),
                    ])
                })
                .collect(),
        )
    }
}

fn rid(seq: u64) -> ResultId {
    ResultId::first(RequestId { client: NodeId(0), seq })
}

/// Repeats `batch` (which returns the operations it performed) until
/// `budget` has elapsed; returns (operations, seconds inside `batch`).
fn timed(budget: Duration, mut batch: impl FnMut() -> u64) -> (f64, f64) {
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < budget {
        ops += batch();
    }
    (ops as f64, started.elapsed().as_secs_f64())
}

/// [`timed`], as nanoseconds per operation.
fn ns_per_op(budget: Duration, batch: impl FnMut() -> u64) -> f64 {
    let (ops, secs) = timed(budget, batch);
    secs * 1e9 / ops
}

// ---- Host-seam nodes ------------------------------------------------------

fn beat(seq: u64) -> Payload {
    Payload::Fd(FdMsg::Heartbeat { seq })
}

/// Bounces every message back; the kicking side counts `left` replies and
/// then traces "done".
struct PingPong {
    kick: Option<NodeId>,
    left: u64,
}

impl Process for PingPong {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init => {
                if let Some(peer) = self.kick {
                    ctx.send(peer, beat(0));
                }
            }
            Event::Message { from, .. } if self.left > 0 => {
                self.left -= 1;
                if self.left == 0 {
                    ctx.trace(TraceKind::Note("done"));
                } else {
                    ctx.send(from, beat(self.left));
                }
            }
            _ => {}
        }
    }
}

/// Fires `n` messages at `to` from its `Init` handler.
struct Burst {
    to: NodeId,
    n: u64,
}

impl Process for Burst {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        if event == Event::Init {
            for i in 0..self.n {
                ctx.send(self.to, beat(i));
            }
        }
    }
}

/// Counts `left` messages, then traces "done".
struct Sink {
    left: u64,
}

impl Process for Sink {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        if let Event::Message { .. } = event {
            self.left -= 1;
            if self.left == 0 {
                ctx.trace(TraceKind::Note("done"));
            }
        }
    }
}

/// Traces `n` events from `Init`, then "done".
struct Tracer {
    n: u64,
}

impl Process for Tracer {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        if event == Event::Init {
            for _ in 0..self.n {
                ctx.trace(TraceKind::Note("x"));
            }
            ctx.trace(TraceKind::Note("done"));
        }
    }
}

/// Arms a 1 ms timer `left` times, tracing "armed" / "fired" around each.
struct TimerNode {
    left: u64,
}

impl TimerNode {
    fn arm(&self, ctx: &mut dyn Context) {
        ctx.trace(TraceKind::Note("armed"));
        ctx.set_timer(Dur::from_millis(1), TimerTag::CleanerTick);
    }
}

impl Process for TimerNode {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init => self.arm(ctx),
            Event::Timer { .. } => {
                ctx.trace(TraceKind::Note("fired"));
                self.left -= 1;
                if self.left == 0 {
                    ctx.trace(TraceKind::Note("done"));
                } else {
                    self.arm(ctx);
                }
            }
            _ => {}
        }
    }
}

struct Idle;

impl Process for Idle {
    fn on_event(&mut self, _: &mut dyn Context, _: Event) {}
}

/// Runs `host` until `dones` "done" notes are traced; returns the seconds
/// that took (on the threaded host: from thread spawn).
fn run_until_done(host: &mut dyn Host, dones: usize) -> f64 {
    let (mut scanned, mut seen) = (0usize, 0usize);
    let started = Instant::now();
    host.run_trace_until(Box::new(move |trace: &Trace| {
        let events = trace.events();
        seen +=
            events[scanned..].iter().filter(|e| matches!(e.kind, TraceKind::Note("done"))).count();
        scanned = events.len();
        seen >= dones
    }));
    started.elapsed().as_secs_f64()
}

fn threaded() -> ThreadedHost {
    let mut cfg = ThreadedConfig::with_seed(1);
    cfg.cost = CostModel::zeroed();
    cfg.wall_limit = Duration::from_secs(20);
    ThreadedHost::new(cfg)
}

/// Two nodes bouncing one message through the `Host` seam; messages/s.
fn pingpong(host: &mut dyn Host, round_trips: u64) -> f64 {
    host.add_node(
        "ping",
        Box::new(move |_| Box::new(PingPong { kick: Some(NodeId(1)), left: round_trips })),
    );
    host.add_node("pong", Box::new(|_| Box::new(PingPong { kick: None, left: u64::MAX })));
    let secs = run_until_done(host, 1);
    // Counted by the host, not assumed: a run cut short by a host limit
    // must not read as a fast one.
    let mut sent = 0;
    host.with_stats(&mut |stats| sent = stats.total());
    sent as f64 / secs
}

// ---- consensus on a loopback context --------------------------------------

/// A `Context` with no host behind it: sends go to an in-memory queue the
/// leg drains itself, timers are accepted and never fire (no replica
/// fails, so no retransmission or round change is ever needed), logs and
/// traces are discarded.
struct Loopback {
    me: NodeId,
    now: Time,
    queue: VecDeque<(NodeId, NodeId, Payload)>,
    sent: u64,
    timers: u64,
}

impl Loopback {
    fn new() -> Self {
        Loopback { me: NodeId(0), now: Time::ZERO, queue: VecDeque::new(), sent: 0, timers: 0 }
    }
}

impl Context for Loopback {
    fn now(&self) -> Time {
        self.now
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn send(&mut self, to: NodeId, payload: Payload) {
        self.sent += 1;
        self.queue.push_back((self.me, to, payload));
    }
    fn send_after(&mut self, _: Dur, to: NodeId, payload: Payload) {
        self.send(to, payload);
    }
    fn set_timer(&mut self, _: Dur, _: TimerTag) -> TimerId {
        self.timers += 1;
        TimerId(self.timers)
    }
    fn cancel_timer(&mut self, _: TimerId) {}
    fn random_u64(&mut self) -> u64 {
        self.sent
    }
    fn log_append(&mut self, _: &'static str, _: StableRecord, _: bool) -> Dur {
        Dur::ZERO
    }
    fn log_read(&self, _: &'static str) -> Vec<StableRecord> {
        Vec::new()
    }
    fn trace(&mut self, _: TraceKind) {}
    fn depth(&self) -> u32 {
        0
    }
    fn send_at_depth(&mut self, _: u32, to: NodeId, payload: Payload) {
        self.send(to, payload);
    }
    fn send_after_at_depth(&mut self, _: u32, _: Dur, to: NodeId, payload: Payload) {
        self.send(to, payload);
    }
    fn subscribe_node_events(&mut self) {}
}

/// Three `WoRegisters` + `DecisionLog` replicas, node 0 proposing. Returns
/// (outcomes applied at node 0, slots applied at node 0, messages, secs).
fn decision_log(batch: usize, depth: usize, budget: Duration) -> (f64, f64, f64, f64) {
    let peers = [NodeId(0), NodeId(1), NodeId(2)];
    let trusting = |_: NodeId| false;
    let mut lb = Loopback::new();
    let mut regs: Vec<WoRegisters> =
        peers.iter().map(|&p| WoRegisters::new(p, &peers, EngineConfig::default())).collect();
    let mut logs: Vec<DecisionLog> = peers.iter().map(|_| DecisionLog::new(batch, depth)).collect();
    for (i, r) in regs.iter_mut().enumerate() {
        lb.me = peers[i];
        r.on_init(&mut lb);
    }
    let (mut next, mut outcomes, mut slots) = (0u64, 0u64, 0u64);
    let (_, secs) = timed(budget, || {
        let entries: OutcomeBatch = (0..(batch * depth) as u64)
            .map(|i| (rid(next + i), Decision { result: None, outcome: Outcome::Commit }))
            .collect();
        next += entries.len() as u64;
        lb.me = peers[0];
        let mut applied = logs[0].propose(&mut lb, &mut regs[0], entries, &trusting);
        while let Some((from, to, payload)) = lb.queue.pop_front() {
            let n = to.0 as usize;
            lb.me = to;
            for ev in regs[n].handle(&mut lb, &Event::Message { from, payload }, &trusting) {
                let WoEvent::Decided { reg, value } = ev;
                if let Some(slot) = reg.slot_index() {
                    let a = logs[n].on_slot_decided(&mut lb, &mut regs[n], slot, &value, &trusting);
                    if n == 0 {
                        applied.extend(a);
                    }
                }
            }
        }
        slots += applied.len() as u64;
        outcomes += applied.iter().map(|a| a.entries.len() as u64).sum::<u64>();
        0
    });
    (outcomes as f64, slots as f64, lb.sent as f64, secs)
}

// ---- store ------------------------------------------------------------------

fn add(i: u64) -> [DbOp; 1] {
    [DbOp::Add { key: format!("k{}", i % 1024), delta: 1 }]
}

/// 64 prepared branches on distinct keys, ready to decide; returns the
/// decide entries.
fn prepare64(e: &mut Engine, base: u64) -> Vec<(ResultId, Outcome)> {
    (0..64)
        .map(|i| {
            let r = rid(base + i);
            e.execute(r, &add(base + i));
            e.vote(r);
            (r, Outcome::Commit)
        })
        .collect()
}

/// Runs `op` on freshly prepared 64-branch batches until `budget` elapses,
/// timing only `op`; returns nanoseconds per transaction.
fn per_txn64(
    budget: Duration,
    mut op: impl FnMut(&mut Engine, u64, &[(ResultId, Outcome)]),
) -> f64 {
    let mut e = Engine::new();
    let (mut base, mut inside) = (0u64, Duration::ZERO);
    let started = Instant::now();
    while started.elapsed() < budget {
        let entries = prepare64(&mut e, base);
        let t = Instant::now();
        op(&mut e, base / 64, &entries);
        inside += t.elapsed();
        base += 64;
    }
    inside.as_secs_f64() * 1e9 / base as f64
}

/// A WAL of `txns` committed single-key transactions (two records each).
fn wal(txns: u64) -> Vec<StableRecord> {
    let mut e = Engine::new();
    let mut log = Vec::new();
    for i in 0..txns {
        let r = rid(i);
        e.execute(r, &add(i));
        log.extend(e.vote(r).1.into_iter().map(|w| w.rec));
        log.extend(e.decide(r, Outcome::Commit).1.into_iter().map(|w| w.rec));
    }
    log
}

// ---- the run ------------------------------------------------------------------

/// Median issue -> deliver latency of 1 000 sequential bank updates under
/// the paper's cost model, for one of the comparison middle tiers.
fn baseline_latency_ms(tier: MiddleTier, seed: u64) -> f64 {
    let mut s = ScenarioBuilder::new(tier, seed).requests(1_000).build();
    s.run_until_settled(1_000);
    let mut lat = s.request_latencies_ms();
    stats::median(&mut lat)
}

/// Runs every layer microbench with `budget` of measuring per leg; returns
/// the metrics by name and the spans.
pub fn run(seed: u64, budget: Duration) -> Spans {
    let mut spans = Spans::new();
    // Fixed-size legs (a host run cannot be cut short) scale with the budget.
    let scale = budget.as_secs_f64() / 0.25;
    let sized = |n: f64| (n * scale).max(100.0) as u64;

    spans.record("micro", "", |spans| {
        spans.record("sim", "micro", |spans| {
            spans.leg("sim.pingpong_msgs_per_s", "sim", || {
                // Every hop costs simulated milliseconds; lift the default
                // one-simulated-hour stop out of the way.
                let cfg = SimConfig { max_time: Time(u64::MAX / 2), ..SimConfig::with_seed(seed) };
                pingpong(&mut Sim::new(cfg), sized(1_000_000.0))
            });
            spans.leg("sim.storage_append_ns", "sim", || {
                let mut st = StableStorage::new();
                let ns = ns_per_op(budget, || {
                    for i in 0..1_000 {
                        let rec = StableRecord::DbOutcome { rid: rid(i), outcome: Outcome::Commit };
                        st.append(LOG_WAL, black_box(rec));
                    }
                    1_000
                });
                black_box(st.len(LOG_WAL));
                ns
            });
        });

        spans.record("rt", "micro", |spans| {
            spans.leg("rt.pingpong_msgs_per_s", "rt", || pingpong(&mut threaded(), sized(8_000.0)));
            spans.leg("rt.fanin_msgs_per_s", "rt", || {
                let n = sized(400_000.0);
                let mut host = threaded();
                host.add_node("sink", Box::new(move |_| Box::new(Sink { left: 2 * n })));
                for _ in 0..2 {
                    host.add_node("burst", Box::new(move |_| Box::new(Burst { to: NodeId(0), n })));
                }
                2.0 * n as f64 / run_until_done(&mut host, 1)
            });
            spans.leg("rt.trace_events_per_s", "rt", || {
                let n = sized(250_000.0);
                let mut host = threaded();
                for _ in 0..2 {
                    host.add_node("tracer", Box::new(move |_| Box::new(Tracer { n })));
                }
                2.0 * n as f64 / run_until_done(&mut host, 2)
            });
            let mut lag = spans.record("rt.timer_lag_us", "rt", |_| {
                let n = sized(100.0);
                let mut host = threaded();
                host.add_node("timer", Box::new(move |_| Box::new(TimerNode { left: n })));
                run_until_done(&mut host, 1);
                let trace = host.trace_snapshot();
                let at = |note| {
                    let is = move |e: &&TraceEvent| e.kind == TraceKind::Note(note);
                    trace.events().iter().filter(is).map(|e| e.at).collect::<Vec<_>>()
                };
                let (armed, fired) = (at("armed"), at("fired"));
                let late = |(a, f): (&Time, &Time)| f.since(*a).0.saturating_sub(1_000) as f64;
                armed.iter().zip(&fired).map(late).collect::<Vec<f64>>()
            });
            lag.sort_by(f64::total_cmp);
            spans.put("rt.timer_lag_us_p50", stats::percentile(&lag, 50.0));
            spans.put("rt.timer_lag_us_p99", stats::percentile(&lag, 99.0));
            spans.leg("rt.spawn_ms", "rt", || {
                let mut spawn: Vec<f64> = (0..5)
                    .map(|_| {
                        let mut host = threaded();
                        for _ in 0..16 {
                            host.add_node("idle", Box::new(|_| Box::new(Idle)));
                        }
                        let started = Instant::now();
                        host.run_trace_until(Box::new(|_| true));
                        started.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                stats::median(&mut spawn)
            });
        });

        spans.record("consensus", "micro", |spans| {
            let (_, slots, msgs, secs) =
                spans.record("consensus.slots_per_s", "consensus", |_| decision_log(1, 1, budget));
            spans.put("consensus.slots_per_s", slots / secs);
            spans.put("consensus.msgs_per_slot", msgs / slots);
            let (outcomes, _, _, secs) =
                spans.record("consensus.outcomes_per_s_b64w4", "consensus", |_| {
                    decision_log(64, 4, budget)
                });
            spans.put("consensus.outcomes_per_s_b64w4", outcomes / secs);
        });

        spans.record("store", "micro", |spans| {
            spans.leg("store.xa_txn_ns", "store", || {
                let mut e = Engine::new();
                let mut next = 0u64;
                ns_per_op(budget, || {
                    for _ in 0..256 {
                        let r = rid(next);
                        e.execute(r, &add(next));
                        e.vote(r);
                        black_box(e.decide(r, Outcome::Commit));
                        next += 1;
                    }
                    256
                })
            });
            spans.leg("store.decide_batch64_ns_per_txn", "store", || {
                per_txn64(budget, |e, _, entries| {
                    black_box(e.decide_batch(entries));
                })
            });
            spans.leg("store.spec_promote64_ns_per_txn", "store", || {
                per_txn64(budget, |e, slot, entries| {
                    e.speculate(slot, entries, Dur::ZERO, 4);
                    black_box(e.promote_speculation(slot, entries));
                })
            });
            spans.leg("store.apply_replicated64_ns_per_txn", "store", || {
                let mut follower = Engine::new();
                let (mut seq, mut inside) = (0u64, Duration::ZERO);
                let started = Instant::now();
                while started.elapsed() < budget {
                    let items: Vec<ShippedCommit> = (1..=64)
                        .map(|i| {
                            let key = format!("k{}", (seq + i) % 1024);
                            (seq + i, rid(seq + i), vec![(key, 1i64)].into())
                        })
                        .collect();
                    let t = Instant::now();
                    black_box(follower.apply_replicated_batch(items));
                    inside += t.elapsed();
                    seq += 64;
                }
                inside.as_secs_f64() * 1e9 / seq as f64
            });
            spans.leg("store.read_only_ns", "store", || {
                let e = Engine::with_data((0..1024).map(|i| (format!("k{i}"), 1_000)));
                let reads: Vec<[DbOp; 1]> =
                    (0..1024).map(|i| [DbOp::Get { key: format!("k{i}") }]).collect();
                ns_per_op(budget, || {
                    for r in &reads {
                        black_box(e.read_only(r));
                    }
                    1024
                })
            });
            spans.leg("store.lock_cycle_ns", "store", || {
                let mut locks = LockTable::new();
                let keys: Vec<String> = (0..1024).map(|i| format!("k{i}")).collect();
                ns_per_op(budget, || {
                    for (i, k) in keys.iter().enumerate() {
                        let r = rid(i as u64);
                        black_box(locks.acquire(k, r, LockMode::Exclusive));
                        locks.release_all(r);
                    }
                    1024
                })
            });
            spans.leg("store.recover_100k_ms", "store", || {
                let log = wal(50_000);
                let mut ms: Vec<f64> = (0..3)
                    .map(|_| {
                        let t = Instant::now();
                        black_box(Engine::recover(&log).snapshot().len());
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                stats::median(&mut ms)
            });
        });

        spans.record("core+base+fd", "micro", |spans| {
            spans.leg("core.route_ns", "core+base+fd", || {
                let dbs: Vec<NodeId> = (0..32).map(NodeId).collect();
                let map = ShardMap::build(ShardSpec::Hash { shards: 16 }, &dbs, 2);
                let scripts: Vec<[DbOp; 2]> = (0..1024u64)
                    .map(|i| {
                        [
                            DbOp::Add { key: format!("acct{i}"), delta: -1 },
                            DbOp::Add { key: format!("acct{}", (i * 7 + 1) % 1024), delta: 1 },
                        ]
                    })
                    .collect();
                ns_per_op(budget, || {
                    for s in &scripts {
                        black_box(route(s, &map));
                    }
                    1024
                })
            });
            spans.leg("base.trace_push_ns", "core+base+fd", || {
                ns_per_op(budget, || {
                    let mut t = Trace::default();
                    for i in 0..4096u64 {
                        let kind = TraceKind::Computed { rid: rid(i) };
                        t.push(black_box(TraceEvent::new(Time(i), NodeId(0), kind)));
                    }
                    black_box(t.len());
                    4096
                })
            });
            spans.leg("fd.heartbeat_cycle_ns", "core+base+fd", || {
                let peers = [NodeId(0), NodeId(1), NodeId(2)];
                let mut lb = Loopback::new();
                let mut fd = HeartbeatFd::new(NodeId(0), &peers, FdConfig::default());
                fd.on_init(&mut lb);
                let timer = |tag| Event::Timer { id: TimerId(0), tag };
                ns_per_op(budget, || {
                    for _ in 0..256 {
                        lb.now += Dur::from_millis(20);
                        fd.handle(&mut lb, &timer(TimerTag::FdHeartbeat));
                        for &from in &peers[1..] {
                            fd.handle(&mut lb, &Event::Message { from, payload: beat(0) });
                        }
                        black_box(fd.handle(&mut lb, &timer(TimerTag::FdCheck)));
                        lb.queue.clear();
                    }
                    256
                })
            });
        });

        spans.record("baselines", "micro", |spans| {
            for (name, tier) in [
                ("baselines.tpc_model_latency_ms", MiddleTier::Tpc),
                ("baselines.pb_model_latency_ms", MiddleTier::Pb),
                ("baselines.unreplicated_model_latency_ms", MiddleTier::Baseline),
            ] {
                spans.leg(name, "baselines", || baseline_latency_ms(tier, seed));
            }
        });
    });
    spans
}
