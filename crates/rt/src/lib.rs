//! # etx-rt — the multi-threaded runtime backend
//!
//! Runs the *identical* protocol state machines the deterministic simulator
//! hosts, but on real hardware: one OS thread and one mpsc inbox per node,
//! real monotonic clocks behind timers, and in-memory stable logs mutated
//! behind the same `log_append`/`log_read` contract. This is the backend
//! that turns every simulated bench figure into an honest wall-clock
//! number — commits per second on the host, not per simulated second.
//!
//! Faults here are **real**, not simulated: the fault plane
//! ([`Host::schedule_fault`]) crashes a node by poisoning its inbox and
//! joining its OS thread (volatile state dies with the thread; the
//! `LogStore` survives for restart), pauses a node by parking the thread
//! with its inbox gated (the SIGSTOP story — messages pile up, timers go
//! overdue, nothing is lost), and degrades links through a filter table
//! consulted on every send (drop, delay, duplicate, partition). The §3
//! checker then judges the resulting trace exactly as it judges a
//! simulated one.
//!
//! What deliberately does **not** exist here:
//!
//! * **Modelled network delay and loss.** Channels are genuinely reliable
//!   and as fast as the machine; the reliable-channel abstraction of §4
//!   holds by construction — and the fault plane preserves it. A `drop`
//!   fault stops traffic at the link and re-injects it when the link
//!   heals (a TCP partition: loss is delay, never absence — the same
//!   model the simulator applies, and a liveness requirement, since
//!   consensus advances rounds on *suspicion* and a silently lost
//!   message to a live coordinator would wedge an instance forever).
//!   Crashes are the genuinely lossy fault: a killed node's inbox and
//!   volatile state are really gone, only its stable log survives.
//! * **The perfect-failure-detector oracle.** `subscribe_node_events` is
//!   accepted and never fires — real deployments have no such oracle, and
//!   the e-Transaction protocol pointedly does not need one. (The
//!   primary-backup baseline that does is a simulator-only experiment.)
//! * **Determinism.** Per-node randomness is still seeded (same master
//!   seed → same per-node streams), but thread interleaving is the OS
//!   scheduler's. Byte-identical replay remains the simulator's job.
//!
//! Cost-model service times are honored exactly as in the simulator — a
//! forced `log_append` returns the modelled duration and `send_after`
//! really does wait — so a scenario built on the paper's cost model behaves
//! recognizably on both backends. Wall-clock benches pass
//! [`etx_base::config::CostModel::zeroed`] instead, which removes every
//! modelled stall and leaves only what the hardware charges.

use etx_base::config::CostModel;
use etx_base::fault::{CapabilityError, FaultOp, LinkFault, NemesisWhen, TracePred};
use etx_base::ids::{NodeId, TimerId};
use etx_base::msg::Payload;
use etx_base::rng::Rng;
use etx_base::runtime::{Context, Event, Host, NodeFactory, Process, RunOutcome, TimerTag};
use etx_base::time::{Dur, Time};
use etx_base::trace::{MsgStats, Trace, TraceEvent, TraceKind};
use etx_base::wal::StableRecord;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Threaded-host parameters.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Master seed: each node derives an independent randomness stream from
    /// it (deterministic per node; interleaving is not).
    pub seed: u64,
    /// Environment cost constants. Modelled service times are honored with
    /// real waits; use [`CostModel::zeroed`] for pure-hardware numbers.
    pub cost: CostModel,
    /// Hard stop for [`Host::run_trace_until`]: longest wall-clock wait for
    /// the predicate before giving up with [`RunOutcome::TimeLimit`].
    pub wall_limit: Duration,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig { seed: 0, cost: CostModel::default(), wall_limit: Duration::from_secs(60) }
    }
}

impl ThreadedConfig {
    /// Config with a given seed and defaults elsewhere.
    pub fn with_seed(seed: u64) -> Self {
        ThreadedConfig { seed, ..ThreadedConfig::default() }
    }
}

/// One node's in-memory stable logs (same named-append-only-log contract as
/// the simulator's `StableStorage`). This is the "stable storage" of §2: a
/// fault-plane crash joins the node's thread and drops its process, but the
/// `LogStore` is carried through the crash and handed to the restarted
/// incarnation.
#[derive(Debug, Default)]
struct LogStore {
    logs: BTreeMap<&'static str, Vec<StableRecord>>,
}

impl LogStore {
    fn append(&mut self, log: &'static str, rec: StableRecord) {
        self.logs.entry(log).or_default().push(rec);
    }

    fn read(&self, log: &'static str) -> Vec<StableRecord> {
        self.logs.get(log).cloned().unwrap_or_default()
    }
}

/// What travels over a node's inbox.
enum Wire {
    Msg {
        from: NodeId,
        payload: Payload,
        depth: u32,
    },
    /// Wake the thread so it re-reads its control flags promptly (sent by
    /// the fault plane after setting `killed`/`paused`); carries nothing.
    Nudge,
    Stop,
}

/// Per-node control flags read at the top of the node loop — the fault
/// plane's handle on a running thread.
#[derive(Default)]
struct CtlFlags {
    /// Parked by the fault plane (SIGSTOP): the thread waits on the
    /// condvar, its inbox accumulating, until resumed/killed/stopping.
    paused: bool,
    /// Crashed by the fault plane: the thread exits its loop as soon as it
    /// observes the flag (at most the in-flight handler completes first).
    killed: bool,
    /// Host shutdown: only relevant to *paused* threads, which must wake
    /// and drain normally; running threads still exit on [`Wire::Stop`]
    /// so their queued backlog is processed, not dropped.
    stopping: bool,
}

#[derive(Default)]
struct NodeCtl {
    flags: Mutex<CtlFlags>,
    cv: Condvar,
}

/// Fault state shared by the driver and every node thread: per-node down
/// flags (a crashed node's inbox is poisoned — sends to it are dropped,
/// like the simulator's drop-to-down accounting) and the link-filter
/// table consulted on every send. `links_active` keeps the fault-free
/// fast path to one relaxed atomic load per send.
struct FaultState {
    down: Vec<AtomicBool>,
    links_active: AtomicBool,
    links: Mutex<HashMap<(NodeId, NodeId), LinkFault>>,
    /// Traffic stopped by a `drop` fault, in send order per link. §4's
    /// reliable-channel assumption is load-bearing for liveness (consensus
    /// round advancement is suspicion-driven, so a silently lost estimate
    /// to a *live* coordinator would wedge an instance forever), so a
    /// faulted link models a TCP partition: messages are held here and
    /// re-injected at heal — loss is delay, never absence, exactly the
    /// simulator's model. Crashes are the genuinely lossy fault.
    held: Mutex<HeldTraffic>,
}

/// Per-link queues of `(payload, depth)` pairs stopped by a `drop` fault.
type HeldTraffic = HashMap<(NodeId, NodeId), Vec<(Payload, u32)>>;

impl FaultState {
    fn new(n: usize) -> Self {
        FaultState {
            down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            links_active: AtomicBool::new(false),
            links: Mutex::new(HashMap::new()),
            held: Mutex::new(HashMap::new()),
        }
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.down.get(node.0 as usize).is_some_and(|f| f.load(Ordering::Acquire))
    }

    fn fault_on(&self, from: NodeId, to: NodeId) -> Option<LinkFault> {
        if !self.links_active.load(Ordering::Relaxed) {
            return None;
        }
        self.links.lock().expect("link table lock").get(&(from, to)).copied()
    }
}

/// The shared observability sink all node threads write into. Trace
/// timestamps are taken *inside* the trace lock from the shared monotonic
/// epoch, so trace order and timestamp order agree — the property checker's
/// happened-before comparisons hold exactly as on the simulator.
struct Sink {
    epoch: Instant,
    trace: Mutex<Trace>,
    stats: Mutex<MsgStats>,
}

impl Sink {
    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_micros() as u64)
    }
}

/// A deferred local action: a timer armed through `set_timer`, or the tail
/// of a `send_after` whose modelled service time has not elapsed yet.
struct Deferred {
    due: Time,
    seq: u64,
    kind: DeferredKind,
}

enum DeferredKind {
    Timer {
        id: TimerId,
        tag: TimerTag,
        depth: u32,
    },
    /// `delayed` marks a send already processed by the link-fault filter
    /// (a delay fault deferred it): at fire time it goes straight onto
    /// the destination inbox instead of through the filter again, so a
    /// persistent delay fault postpones each message once, not forever.
    Send {
        to: NodeId,
        payload: Payload,
        depth: u32,
        delayed: bool,
    },
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Per-node runtime state living on the node's own thread.
struct NodeRt {
    me: NodeId,
    senders: Arc<Vec<Sender<Wire>>>,
    sink: Arc<Sink>,
    faults: Arc<FaultState>,
    cost: CostModel,
    rng: Rng,
    storage: LogStore,
    deferred: BinaryHeap<Reverse<Deferred>>,
    cancelled: HashSet<u64>,
    timer_seq: u64,
    defer_seq: u64,
}

impl NodeRt {
    fn dispatch(&mut self, process: &mut Box<dyn Process>, event: Event, depth: u32) {
        let now = self.sink.now();
        let mut ctx = ThreadCtx { rt: self, now, depth };
        process.on_event(&mut ctx, event);
    }

    /// Fires every deferred action that is due, in (due, seq) order.
    fn fire_due(&mut self, process: &mut Box<dyn Process>) {
        loop {
            let now = self.sink.now();
            match self.deferred.peek() {
                Some(Reverse(d)) if d.due <= now => {}
                _ => return,
            }
            let Reverse(d) = self.deferred.pop().expect("peeked");
            match d.kind {
                DeferredKind::Timer { id, tag, depth } => {
                    if !self.cancelled.remove(&id.0) {
                        self.dispatch(process, Event::Timer { id, tag }, depth);
                    }
                }
                DeferredKind::Send { to, payload, depth, delayed } => {
                    if delayed {
                        self.push_wire(to, payload, depth);
                    } else {
                        self.transmit(to, payload, depth);
                    }
                }
            }
        }
    }

    /// Wall-clock wait until the next deferred action (None = nothing
    /// pending).
    fn next_wait(&self) -> Option<Duration> {
        self.deferred.peek().map(|Reverse(d)| {
            let now = self.sink.now();
            Duration::from_micros(d.due.0.saturating_sub(now.0))
        })
    }

    /// Puts a message on the destination's inbox, running it through the
    /// fault plane's link filter first: a `drop` fault stops it at the
    /// link (held in [`FaultState::held`] and re-injected when the link
    /// heals — the reliable-channel model of §4, see there for why), a
    /// `delay` fault defers it once, a `duplicate` fault delivers two
    /// copies.
    fn transmit(&mut self, to: NodeId, payload: Payload, depth: u32) {
        let background = payload.is_background();
        self.sink.stats.lock().expect("stats lock").record_sent(payload.label(), background);
        if let Some(fault) = self.faults.fault_on(self.me, to) {
            if fault.drop {
                self.sink.stats.lock().expect("stats lock").record_dropped_on_link();
                self.faults
                    .held
                    .lock()
                    .expect("held-traffic lock")
                    .entry((self.me, to))
                    .or_default()
                    .push((payload, depth));
                return;
            }
            let copies = if fault.duplicate { 2 } else { 1 };
            if let Some(extra) = fault.delay {
                let due = self.sink.now() + extra;
                for _ in 0..copies {
                    let payload = payload.clone();
                    self.defer(due, DeferredKind::Send { to, payload, depth, delayed: true });
                }
                return;
            }
            for _ in 1..copies {
                self.push_wire(to, payload.clone(), depth);
            }
        }
        self.push_wire(to, payload, depth);
    }

    /// The raw inbox append, past the link filter. A crashed
    /// destination's inbox is poisoned: the message is dropped and
    /// counted, matching the simulator's drop-to-down accounting.
    fn push_wire(&mut self, to: NodeId, payload: Payload, depth: u32) {
        if self.faults.is_down(to) {
            self.sink.stats.lock().expect("stats lock").record_dropped_to_down();
            return;
        }
        if let Some(tx) = self.senders.get(to.0 as usize) {
            let _ = tx.send(Wire::Msg { from: self.me, payload, depth });
        }
    }

    fn defer(&mut self, due: Time, kind: DeferredKind) {
        self.defer_seq += 1;
        self.deferred.push(Reverse(Deferred { due, seq: self.defer_seq, kind }));
    }
}

/// The `Context` capability surface, threaded-backend flavour. `now` is
/// pinned at handler entry — same convention as the simulator, where a
/// handler runs instantaneously at one instant.
struct ThreadCtx<'a> {
    rt: &'a mut NodeRt,
    now: Time,
    depth: u32,
}

impl ThreadCtx<'_> {
    fn send_impl(&mut self, depth_base: u32, extra: Dur, to: NodeId, payload: Payload) {
        let background = payload.is_background();
        let depth = if background { 0 } else { depth_base + 1 };
        if extra == Dur::ZERO {
            self.rt.transmit(to, payload, depth);
        } else {
            let due = self.now + extra;
            self.rt.defer(due, DeferredKind::Send { to, payload, depth, delayed: false });
        }
    }
}

impl Context for ThreadCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }

    fn me(&self) -> NodeId {
        self.rt.me
    }

    fn send(&mut self, to: NodeId, payload: Payload) {
        self.send_impl(self.depth, Dur::ZERO, to, payload);
    }

    fn send_after(&mut self, delay: Dur, to: NodeId, payload: Payload) {
        self.send_impl(self.depth, delay, to, payload);
    }

    fn set_timer(&mut self, delay: Dur, tag: TimerTag) -> TimerId {
        self.rt.timer_seq += 1;
        let id = TimerId(self.rt.timer_seq);
        let due = self.now + delay;
        self.rt.defer(due, DeferredKind::Timer { id, tag, depth: self.depth });
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.rt.cancelled.insert(id.0);
    }

    fn random_u64(&mut self) -> u64 {
        self.rt.rng.next_u64()
    }

    fn log_append(&mut self, log: &'static str, rec: StableRecord, forced: bool) -> Dur {
        self.rt.storage.append(log, rec);
        if forced {
            self.rt.rng.jitter(self.rt.cost.log_force, self.rt.cost.jitter)
        } else {
            Dur::ZERO
        }
    }

    fn log_read(&self, log: &'static str) -> Vec<StableRecord> {
        self.rt.storage.read(log)
    }

    fn trace(&mut self, kind: TraceKind) {
        // Timestamp under the lock: trace order == timestamp order.
        let mut trace = self.rt.sink.trace.lock().expect("trace lock");
        let at = self.rt.sink.now();
        trace.push(TraceEvent::new(at, self.rt.me, kind));
    }

    fn depth(&self) -> u32 {
        self.depth
    }

    fn send_at_depth(&mut self, depth: u32, to: NodeId, payload: Payload) {
        self.send_impl(depth, Dur::ZERO, to, payload);
    }

    fn send_after_at_depth(&mut self, depth: u32, delay: Dur, to: NodeId, payload: Payload) {
        self.send_impl(depth, delay, to, payload);
    }

    fn subscribe_node_events(&mut self) {
        // Accepted and inert: the perfect-failure-detector oracle is a
        // simulator-only experiment aid. Real crashes on this backend are
        // detected the way real deployments detect them — heartbeat
        // failure detectors — never by magic notification.
    }
}

/// What a node thread hands back when it exits: the process (for post-run
/// introspection through `Process::as_any`; `None` after a fault-plane
/// crash wiped the volatile state), its stable logs (which survive
/// crashes, per §2), and its inbox receiver — preserved so senders stay
/// connected across a crash and a restarted incarnation can reuse the
/// same channel.
struct NodeShell {
    process: Option<Box<dyn Process>>,
    storage: LogStore,
    rx: Receiver<Wire>,
}

enum Phase {
    /// Nodes may still be registered; no thread exists yet.
    Building,
    /// Threads are live and processing.
    Running,
    /// Threads joined; shells available for introspection.
    Stopped,
}

/// One scheduled fault awaiting its trigger, pumped from the driver
/// thread (never from a node thread — applying a crash means joining the
/// victim, and a node cannot join itself).
struct NemesisEntry {
    /// Fires when the host clock reaches this instant (`None` for
    /// trace-triggered entries).
    due: Option<Time>,
    /// Fires on the first matching trace event (`None` for timed entries).
    pred: Option<TracePred>,
    op: FaultOp,
    done: bool,
}

/// The multi-threaded host. Register nodes, then [`ThreadedHost::start`]
/// (or let the first run call do it), run, and [`ThreadedHost::stop`] to
/// join the node threads and unlock post-run introspection
/// ([`ThreadedHost::process_ref`], [`ThreadedHost::log_read`]).
///
/// Faults scheduled through [`Host::schedule_fault`] are applied by the
/// driver thread inside [`Host::run_trace_until`] / [`Host::quiesce_for`]
/// polling loops: a crash kills and joins the victim's thread (keeping
/// its stable logs for restart), a pause parks it on a condvar with the
/// inbox gated, link faults install entries in the shared filter table.
pub struct ThreadedHost {
    cfg: ThreadedConfig,
    phase: Phase,
    pending: Vec<(&'static str, NodeFactory)>,
    names: Vec<&'static str>,
    /// Factories retained across [`ThreadedHost::start`] so a crashed
    /// node can be rebuilt at recovery (volatile state from scratch).
    factories: Vec<NodeFactory>,
    senders: Arc<Vec<Sender<Wire>>>,
    handles: Vec<Option<JoinHandle<NodeShell>>>,
    shells: Vec<Option<NodeShell>>,
    ctls: Vec<Arc<NodeCtl>>,
    faults: Arc<FaultState>,
    incarnations: Vec<u32>,
    panicked: Vec<&'static str>,
    nemesis: Vec<NemesisEntry>,
    nemesis_scanned: usize,
    sink: Arc<Sink>,
}

impl std::fmt::Debug for ThreadedHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedHost")
            .field("nodes", &self.names.len())
            .field(
                "phase",
                &match self.phase {
                    Phase::Building => "building",
                    Phase::Running => "running",
                    Phase::Stopped => "stopped",
                },
            )
            .finish()
    }
}

impl ThreadedHost {
    /// Creates an empty host. The wall clock starts at [`ThreadedHost::start`].
    pub fn new(cfg: ThreadedConfig) -> Self {
        ThreadedHost {
            cfg,
            phase: Phase::Building,
            pending: Vec::new(),
            names: Vec::new(),
            factories: Vec::new(),
            senders: Arc::new(Vec::new()),
            handles: Vec::new(),
            shells: Vec::new(),
            ctls: Vec::new(),
            faults: Arc::new(FaultState::new(0)),
            incarnations: Vec::new(),
            panicked: Vec::new(),
            nemesis: Vec::new(),
            nemesis_scanned: 0,
            sink: Arc::new(Sink {
                epoch: Instant::now(),
                trace: Mutex::new(Trace::default()),
                stats: Mutex::new(MsgStats::default()),
            }),
        }
    }

    /// Spawns every registered node on its own thread and delivers
    /// `Event::Init` to each (in registration order on each node's own
    /// thread; cross-node Init interleaving is unordered, exactly like any
    /// real deployment's staggered start).
    pub fn start(&mut self) {
        if !matches!(self.phase, Phase::Building) {
            return;
        }
        // Reset the epoch so Time(0) is the moment processing begins, not
        // host construction.
        self.sink = Arc::new(Sink {
            epoch: Instant::now(),
            trace: Mutex::new(Trace::default()),
            stats: Mutex::new(MsgStats::default()),
        });
        let n = self.pending.len();
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Wire>();
            senders.push(tx);
            receivers.push(rx);
        }
        self.senders = Arc::new(senders);
        self.faults = Arc::new(FaultState::new(n));
        self.ctls = (0..n).map(|_| Arc::new(NodeCtl::default())).collect();
        self.incarnations = vec![0; n];
        self.shells = (0..n).map(|_| None).collect();
        // Faults scheduled before the run (`NemesisWhen::Now` on a
        // building host) that need no live thread — link faults and
        // pauses — are put in force *before* any node's Init runs, so a
        // pre-partitioned or pre-paused start is exactly that.
        let mut i = 0;
        while i < self.nemesis.len() {
            let eligible = !self.nemesis[i].done
                && self.nemesis[i].due == Some(Time::ZERO)
                && matches!(
                    self.nemesis[i].op,
                    FaultOp::SetLink { .. }
                        | FaultOp::HealLink { .. }
                        | FaultOp::BlockLink { .. }
                        | FaultOp::Partition { .. }
                        | FaultOp::Pause(_)
                        | FaultOp::PauseFor { .. }
                );
            if eligible {
                self.nemesis[i].done = true;
                let op = self.nemesis[i].op.clone();
                self.apply_fault_now(op);
            }
            i += 1;
        }
        let mut master = Rng::new(self.cfg.seed);
        let pending = std::mem::take(&mut self.pending);
        for (idx, ((name, mut factory), rx)) in pending.into_iter().zip(receivers).enumerate() {
            let me = NodeId(idx as u32);
            let rng = master.fork();
            let process = factory(me);
            self.factories.push(factory);
            let handle =
                self.spawn_node(name, me, process, LogStore::default(), rx, rng, Event::Init);
            self.handles.push(Some(handle));
        }
        self.phase = Phase::Running;
    }

    /// Spawns one node incarnation on a fresh OS thread. Used at startup
    /// (with `Event::Init` and empty logs) and at fault-plane recovery
    /// (with `Event::Recovered` and the crashed incarnation's logs).
    #[allow(clippy::too_many_arguments)] // one value per piece of incarnation state
    fn spawn_node(
        &self,
        name: &'static str,
        me: NodeId,
        mut process: Box<dyn Process>,
        storage: LogStore,
        rx: Receiver<Wire>,
        rng: Rng,
        first: Event,
    ) -> JoinHandle<NodeShell> {
        let senders = Arc::clone(&self.senders);
        let sink = Arc::clone(&self.sink);
        let faults = Arc::clone(&self.faults);
        let ctl = Arc::clone(&self.ctls[me.0 as usize]);
        let cost = self.cfg.cost.clone();
        std::thread::Builder::new()
            .name(format!("etx-{name}-{}", me.0))
            .spawn(move || {
                let mut rt = NodeRt {
                    me,
                    senders,
                    sink,
                    faults,
                    cost,
                    rng,
                    storage,
                    deferred: BinaryHeap::new(),
                    cancelled: HashSet::new(),
                    timer_seq: 0,
                    defer_seq: 0,
                };
                rt.dispatch(&mut process, first, 0);
                node_main(&mut rt, &mut process, &rx, &ctl);
                NodeShell { process: Some(process), storage: rt.storage, rx }
            })
            .expect("spawn node thread")
    }

    /// Signals every node thread to exit, joins them, and keeps each node's
    /// final process + stable logs for introspection. Idempotent.
    ///
    /// A node thread that *panicked* is recorded rather than propagated —
    /// `stop()` runs from `Drop`, where a panic would abort the process.
    /// Callers that must fail the scenario on a dead node (the harness
    /// does) check [`ThreadedHost::panicked_nodes`] after stopping.
    pub fn stop(&mut self) {
        match self.phase {
            Phase::Building => {
                // Nothing ever ran; still transition so introspection of an
                // empty run does not hang.
                self.phase = Phase::Stopped;
                return;
            }
            Phase::Stopped => return,
            Phase::Running => {}
        }
        // Wake paused threads out of the condvar gate; running threads
        // ignore the flag and still drain their backlog up to Wire::Stop.
        for ctl in &self.ctls {
            let mut flags = ctl.flags.lock().expect("ctl lock");
            flags.stopping = true;
            ctl.cv.notify_all();
        }
        for tx in self.senders.iter() {
            let _ = tx.send(Wire::Stop);
        }
        for idx in 0..self.handles.len() {
            if let Some(handle) = self.handles[idx].take() {
                match handle.join() {
                    Ok(shell) => self.shells[idx] = Some(shell),
                    Err(_) => self.panicked.push(self.names[idx]),
                }
            }
            // Nodes crashed by the fault plane already parked their shell
            // (stable logs intact) when they were joined at crash time.
        }
        self.phase = Phase::Stopped;
    }

    /// Names of node threads that exited by panicking (either mid-run —
    /// observed when the fault plane joined them — or at [`ThreadedHost::stop`]).
    /// A non-empty list means the run's results are untrustworthy; the
    /// harness turns it into a scenario failure.
    pub fn panicked_nodes(&self) -> &[&'static str] {
        &self.panicked
    }

    /// Whether [`ThreadedHost::stop`] has run.
    pub fn is_stopped(&self) -> bool {
        matches!(self.phase, Phase::Stopped)
    }

    /// Node name (diagnostics).
    pub fn node_name(&self, node: NodeId) -> &'static str {
        self.names[node.0 as usize]
    }

    /// Read access to a node's final process state. Only available after
    /// [`ThreadedHost::stop`] — while threads run, each process belongs to
    /// its thread.
    ///
    /// # Panics
    ///
    /// Panics if the host has not been stopped.
    pub fn process_ref(&self, node: NodeId) -> Option<&dyn Process> {
        assert!(
            self.is_stopped(),
            "threaded-host process introspection requires stop() — node threads own their \
             processes while running"
        );
        self.shells.get(node.0 as usize).and_then(|s| s.as_ref()).and_then(|s| s.process.as_deref())
    }

    /// Reads back a node's stable log. Only available after
    /// [`ThreadedHost::stop`], for the same ownership reason as
    /// [`ThreadedHost::process_ref`].
    ///
    /// # Panics
    ///
    /// Panics if the host has not been stopped.
    pub fn log_read(&self, node: NodeId, log: &'static str) -> Vec<StableRecord> {
        assert!(
            self.is_stopped(),
            "threaded-host log introspection requires stop() — node threads own their logs \
             while running"
        );
        self.shells
            .get(node.0 as usize)
            .and_then(|s| s.as_ref())
            .map(|s| s.storage.read(log))
            .unwrap_or_default()
    }

    // ---- fault plane (driver-thread only) --------------------------------

    /// Pushes a kernel-emitted trace event (timestamp under the trace
    /// lock, like every node-thread event, so trace order == timestamp
    /// order holds across fault events too).
    fn trace_fault(&self, node: NodeId, kind: TraceKind) {
        let mut trace = self.sink.trace.lock().expect("trace lock");
        let at = self.sink.now();
        trace.push(TraceEvent::new(at, node, kind));
    }

    /// Crashes a node for real: poisons its inbox (down flag — senders'
    /// messages drop from here), sets the kill flag, wakes and **joins**
    /// the OS thread. The thread's shell — stable logs and inbox receiver
    /// — is parked for recovery; its process is dropped, wiping all
    /// volatile state, exactly the §2 crash model.
    fn crash_node(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.faults.is_down(node) {
            return;
        }
        let Some(handle) = self.handles.get_mut(idx).and_then(|h| h.take()) else {
            return;
        };
        self.faults.down[idx].store(true, Ordering::Release);
        {
            let mut flags = self.ctls[idx].flags.lock().expect("ctl lock");
            flags.killed = true;
            self.ctls[idx].cv.notify_all();
        }
        // Wake the thread if it is idle in recv_timeout; it observes the
        // kill flag at the top of its loop and exits (at most the handler
        // already in flight completes first — a real crash also finishes
        // the instruction it is on).
        let _ = self.senders[idx].send(Wire::Nudge);
        match handle.join() {
            Ok(mut shell) => {
                shell.process = None; // volatile state dies with the crash
                self.shells[idx] = Some(shell);
            }
            Err(_) => self.panicked.push(self.names[idx]),
        }
        self.trace_fault(node, TraceKind::Crash);
    }

    /// Restarts a crashed node: drains the stale inbox (messages sent to
    /// a down node are lost, as on the simulator), rebuilds the process
    /// from its retained factory, and spawns a fresh incarnation over the
    /// crashed one's stable logs with `Event::Recovered` first.
    fn recover_node(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if !self.faults.is_down(node) {
            return;
        }
        let Some(shell) = self.shells.get_mut(idx).and_then(|s| s.take()) else {
            return; // crashed *and* panicked: nothing coherent to restart
        };
        while shell.rx.try_recv().is_ok() {}
        self.incarnations[idx] += 1;
        {
            let mut flags = self.ctls[idx].flags.lock().expect("ctl lock");
            *flags = CtlFlags::default();
        }
        let process = (self.factories[idx])(node);
        // Fresh deterministic stream per incarnation: same master seed +
        // node + incarnation → same stream, never a replay of the
        // pre-crash one.
        let rng =
            Rng::new(self.cfg.seed ^ ((idx as u64) << 32) ^ u64::from(self.incarnations[idx]));
        self.faults.down[idx].store(false, Ordering::Release);
        let handle = self.spawn_node(
            self.names[idx],
            node,
            process,
            shell.storage,
            shell.rx,
            rng,
            Event::Recovered,
        );
        self.handles[idx] = Some(handle);
        self.trace_fault(node, TraceKind::Recover);
    }

    /// Pauses a node: its thread parks on the control condvar at the top
    /// of its loop, inbox accumulating, timers going overdue — SIGSTOP
    /// semantics without the signal.
    fn pause_node(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.faults.is_down(node) || self.ctls.get(idx).is_none() {
            return;
        }
        {
            let mut flags = self.ctls[idx].flags.lock().expect("ctl lock");
            if flags.paused {
                return;
            }
            flags.paused = true;
        }
        let _ = self.senders[idx].send(Wire::Nudge);
        self.trace_fault(node, TraceKind::Pause);
    }

    /// Resumes a paused node: the thread wakes, fires every overdue timer
    /// and drains the accumulated inbox — late, as after a real SIGCONT.
    fn resume_node(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        {
            let Some(ctl) = self.ctls.get(idx) else { return };
            let mut flags = ctl.flags.lock().expect("ctl lock");
            if !flags.paused {
                return;
            }
            flags.paused = false;
            ctl.cv.notify_all();
        }
        self.trace_fault(node, TraceKind::Resume);
    }

    /// Applies one fault operation right now. Driver-thread only: a crash
    /// joins the victim's thread, and must never run on a node thread (a
    /// node cannot join itself) or while holding the trace lock (the
    /// victim may be blocked on it mid-handler).
    fn apply_fault_now(&mut self, op: FaultOp) {
        let now = self.sink.now();
        match op {
            FaultOp::Crash(n) => self.crash_node(n),
            FaultOp::Recover(n) => self.recover_node(n),
            FaultOp::CrashFor { node, down_for } => {
                self.crash_node(node);
                self.nemesis.push(NemesisEntry {
                    due: Some(now + down_for),
                    pred: None,
                    op: FaultOp::Recover(node),
                    done: false,
                });
            }
            FaultOp::Pause(n) => self.pause_node(n),
            FaultOp::Resume(n) => self.resume_node(n),
            FaultOp::PauseFor { node, down_for } => {
                self.pause_node(node);
                self.nemesis.push(NemesisEntry {
                    due: Some(now + down_for),
                    pred: None,
                    op: FaultOp::Resume(node),
                    done: false,
                });
            }
            FaultOp::SetLink { from, to, fault } => self.set_link_fault(from, to, fault),
            FaultOp::HealLink { from, to } => self.set_link_fault(from, to, LinkFault::default()),
            FaultOp::BlockLink { from, to, heal_after } => {
                self.set_link_fault(from, to, LinkFault::drop_all());
                self.nemesis.push(NemesisEntry {
                    due: Some(now + heal_after),
                    pred: None,
                    op: FaultOp::HealLink { from, to },
                    done: false,
                });
            }
            FaultOp::Partition { a, b, heal_after } => {
                for &x in &a {
                    for &y in &b {
                        self.set_link_fault(x, y, LinkFault::drop_all());
                        self.set_link_fault(y, x, LinkFault::drop_all());
                        self.nemesis.push(NemesisEntry {
                            due: Some(now + heal_after),
                            pred: None,
                            op: FaultOp::HealLink { from: x, to: y },
                            done: false,
                        });
                        self.nemesis.push(NemesisEntry {
                            due: Some(now + heal_after),
                            pred: None,
                            op: FaultOp::HealLink { from: y, to: x },
                            done: false,
                        });
                    }
                }
            }
        }
    }

    fn set_link_fault(&self, from: NodeId, to: NodeId, fault: LinkFault) {
        {
            let mut links = self.faults.links.lock().expect("link table lock");
            if fault.is_noop() {
                links.remove(&(from, to));
            } else {
                links.insert((from, to), fault);
                self.faults.links_active.store(true, Ordering::Relaxed);
            }
        }
        // The link no longer drops: re-inject what it held, in send order
        // — the partition was a delay, not a loss (reliable channels). A
        // destination that crashed meanwhile still loses them, with the
        // usual drop-to-down accounting.
        if !fault.drop {
            let drained = self.faults.held.lock().expect("held-traffic lock").remove(&(from, to));
            for (payload, depth) in drained.into_iter().flatten() {
                if self.faults.is_down(to) {
                    self.sink.stats.lock().expect("stats lock").record_dropped_to_down();
                    continue;
                }
                if let Some(tx) = self.senders.get(to.0 as usize) {
                    let _ = tx.send(Wire::Msg { from, payload, depth });
                }
            }
        }
    }

    /// Fires every due/triggered nemesis entry. Called from the driver's
    /// polling loops ([`Host::run_trace_until`], [`Host::quiesce_for`]).
    /// The trace is scanned under its lock but ops are applied *after*
    /// releasing it (a crash joins the victim, which may itself be
    /// waiting on the trace lock). Iterates by index because applying an
    /// op may append follow-up entries (the heal of a `BlockLink`, the
    /// recovery of a `CrashFor`).
    fn pump_nemesis(&mut self) {
        if self.nemesis.iter().all(|e| e.done) {
            return;
        }
        let mut fired: Vec<FaultOp> = Vec::new();
        {
            let trace = self.sink.trace.lock().expect("trace lock");
            let events = &trace.events()[self.nemesis_scanned.min(trace.len())..];
            for e in self.nemesis.iter_mut() {
                if e.done {
                    continue;
                }
                if let Some(pred) = &e.pred {
                    if events.iter().any(|ev| pred(ev)) {
                        e.done = true;
                        fired.push(e.op.clone());
                    }
                }
            }
            self.nemesis_scanned = trace.len();
        }
        let now = self.sink.now();
        let mut i = 0;
        while i < self.nemesis.len() {
            let e = &mut self.nemesis[i];
            if !e.done && e.due.is_some_and(|d| d <= now) {
                e.done = true;
                fired.push(e.op.clone());
            }
            i += 1;
        }
        for op in fired {
            self.apply_fault_now(op);
        }
    }

    /// A snapshot of the trace collected so far.
    pub fn trace_snapshot(&self) -> Trace {
        self.sink.trace.lock().expect("trace lock").clone()
    }

    /// A snapshot of the message statistics collected so far.
    pub fn stats_snapshot(&self) -> MsgStats {
        self.sink.stats.lock().expect("stats lock").clone()
    }
}

impl Drop for ThreadedHost {
    fn drop(&mut self) {
        self.stop();
    }
}

fn node_main(rt: &mut NodeRt, process: &mut Box<dyn Process>, rx: &Receiver<Wire>, ctl: &NodeCtl) {
    // Idle wait when no timer is pending: purely a wake-up bound for
    // catching Stop/disconnect promptly; protocol liveness never relies on
    // it because every retry path arms a real timer.
    const IDLE_WAIT: Duration = Duration::from_millis(50);
    loop {
        // Fault-plane gate. Paused: park with the inbox accumulating
        // (SIGSTOP) until resumed, killed, or host shutdown. Killed: exit
        // immediately — the driver is joining this thread; the process is
        // about to be dropped, wiping volatile state.
        {
            let mut flags = ctl.flags.lock().expect("ctl lock");
            while flags.paused && !flags.killed && !flags.stopping {
                flags = ctl.cv.wait(flags).expect("ctl wait");
            }
            if flags.killed {
                return;
            }
        }
        rt.fire_due(process);
        let wait = rt.next_wait().unwrap_or(IDLE_WAIT).min(IDLE_WAIT);
        match rx.recv_timeout(wait) {
            Ok(Wire::Msg { from, payload, depth }) => {
                rt.dispatch(process, Event::Message { from, payload }, depth);
            }
            Ok(Wire::Nudge) => {} // just re-read the control flags
            Ok(Wire::Stop) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

impl Host for ThreadedHost {
    fn add_node(&mut self, name: &'static str, factory: NodeFactory) -> NodeId {
        assert!(
            matches!(self.phase, Phase::Building),
            "threaded host: all nodes must be registered before the run starts"
        );
        let id = NodeId(self.pending.len() as u32);
        self.pending.push((name, factory));
        self.names.push(name);
        id
    }

    fn host_now(&self) -> Time {
        self.sink.now()
    }

    fn run_trace_until(&mut self, mut pred: Box<dyn FnMut(&Trace) -> bool + '_>) -> RunOutcome {
        self.start();
        let poll = Duration::from_micros(200);
        loop {
            // The nemesis is pumped here, on the driver thread — crashes
            // join the victim thread, which a node thread could never do
            // to itself.
            self.pump_nemesis();
            {
                let trace = self.sink.trace.lock().expect("trace lock");
                if pred(&trace) {
                    return RunOutcome::Predicate;
                }
            }
            // The wall-clock watchdog: a paused or wedged node must turn
            // into a diagnosable timeout, never a hung test run.
            if self.sink.epoch.elapsed() > self.cfg.wall_limit {
                return RunOutcome::TimeLimit;
            }
            std::thread::sleep(poll);
        }
    }

    fn quiesce_for(&mut self, extra: Dur) {
        self.start();
        // Sliced sleep so timed nemesis entries (recoveries, link heals)
        // still fire while the driver is "just waiting".
        let deadline = Instant::now() + Duration::from_micros(extra.0);
        loop {
            self.pump_nemesis();
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return;
            }
            std::thread::sleep(remaining.min(Duration::from_millis(1)));
        }
    }

    fn with_trace(&self, f: &mut dyn FnMut(&Trace)) {
        let trace = self.sink.trace.lock().expect("trace lock");
        f(&trace)
    }

    fn with_stats(&self, f: &mut dyn FnMut(&MsgStats)) {
        let stats = self.sink.stats.lock().expect("stats lock");
        f(&stats)
    }

    fn supports_fault_injection(&self) -> bool {
        true
    }

    fn schedule_fault(&mut self, when: NemesisWhen, op: FaultOp) -> Result<(), CapabilityError> {
        if matches!(self.phase, Phase::Stopped) {
            return Err(CapabilityError::new("threaded (stopped)", op.label()));
        }
        match when {
            NemesisWhen::Now => {
                if matches!(self.phase, Phase::Running) {
                    self.apply_fault_now(op);
                } else {
                    // Before start() there is no thread to fault; applied
                    // at the first nemesis pump after the run begins.
                    self.nemesis.push(NemesisEntry {
                        due: Some(Time::ZERO),
                        pred: None,
                        op,
                        done: false,
                    });
                }
            }
            NemesisWhen::After(d) => {
                let due = if matches!(self.phase, Phase::Running) {
                    self.sink.now() + d
                } else {
                    Time::ZERO + d // offset from the run's epoch
                };
                self.nemesis.push(NemesisEntry { due: Some(due), pred: None, op, done: false });
            }
            NemesisWhen::OnTrace(pred) => {
                self.nemesis.push(NemesisEntry { due: None, pred: Some(pred), op, done: false });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::msg::FdMsg;
    use etx_base::wal::LOG_WAL;

    /// Sends `n` pings to a peer on Init; notes pongs.
    struct Pinger {
        peer: Option<NodeId>,
        n: u64,
    }
    impl Process for Pinger {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    if let Some(peer) = self.peer {
                        for i in 0..self.n {
                            ctx.send(peer, Payload::Fd(FdMsg::Heartbeat { seq: i }));
                        }
                    }
                }
                Event::Message { .. } => ctx.trace(TraceKind::Note("pong")),
                _ => {}
            }
        }
    }

    fn pongs(t: &Trace) -> usize {
        t.count_kind(|k| matches!(k, TraceKind::Note("pong")))
    }

    #[test]
    fn messages_flow_between_threads() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(1));
        let _a = host.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 5 })));
        let _b = host.add_node("b", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        let out = host.run_trace_until(Box::new(|t| pongs(t) == 5));
        assert_eq!(out, RunOutcome::Predicate);
        host.stop();
        assert_eq!(host.stats_snapshot().sent("Heartbeat"), 5);
    }

    struct TimerBox;
    impl Process for TimerBox {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    let keep = ctx.set_timer(Dur::from_millis(5), TimerTag::CleanerTick);
                    let kill = ctx.set_timer(Dur::from_millis(1), TimerTag::FdCheck);
                    ctx.cancel_timer(kill);
                    let _ = keep;
                }
                Event::Timer { tag, .. } => {
                    assert_eq!(tag, TimerTag::CleanerTick, "cancelled timer must not fire");
                    ctx.trace(TraceKind::Note("tick"));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn timers_fire_on_the_real_clock_and_cancel() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(2));
        host.add_node("t", Box::new(|_| Box::new(TimerBox)));
        let out = host.run_trace_until(Box::new(|t| {
            t.count_kind(|k| matches!(k, TraceKind::Note("tick"))) == 1
        }));
        assert_eq!(out, RunOutcome::Predicate);
        assert!(host.host_now() >= Time(5_000), "timer must not fire early");
        host.stop();
    }

    struct Durable;
    impl Process for Durable {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Init = event {
                let rid = etx_base::ids::ResultId::first(etx_base::ids::RequestId {
                    client: NodeId(0),
                    seq: 1,
                });
                let d = ctx.log_append(LOG_WAL, StableRecord::CoordStart { rid }, true);
                assert!(d > Dur::ZERO, "forced writes cost modelled time");
                assert_eq!(ctx.log_read(LOG_WAL).len(), 1, "read-your-append");
                ctx.trace(TraceKind::Note("logged"));
            }
        }
    }

    #[test]
    fn stable_logs_survive_to_introspection() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(3));
        let n = host.add_node("d", Box::new(|_| Box::new(Durable)));
        host.run_trace_until(Box::new(|t| {
            t.count_kind(|k| matches!(k, TraceKind::Note("logged"))) == 1
        }));
        host.stop();
        assert_eq!(host.log_read(n, LOG_WAL).len(), 1);
        assert!(host.process_ref(n).is_some());
    }

    #[test]
    fn fault_plane_is_supported() {
        let mut host = ThreadedHost::new(ThreadedConfig::default());
        assert!(host.supports_fault_injection());
        // Scheduling before start() is accepted (applied at first pump).
        assert!(host
            .schedule_fault(NemesisWhen::After(Dur::from_millis(1)), FaultOp::Crash(NodeId(0)))
            .is_ok());
        // A stopped host refuses with the typed capability error.
        host.stop();
        let err = host
            .schedule_fault(NemesisWhen::Now, FaultOp::Pause(NodeId(0)))
            .expect_err("stopped host must refuse");
        assert_eq!(err.op, "pause");
    }

    /// Crash + recover through the fault plane: volatile state is wiped,
    /// stable logs survive, the restarted incarnation sees
    /// `Event::Recovered`, and messages sent while down are dropped.
    struct CrashDummy {
        lives: u32,
    }
    impl Process for CrashDummy {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    let rid = etx_base::ids::ResultId::first(etx_base::ids::RequestId {
                        client: NodeId(0),
                        seq: 9,
                    });
                    ctx.log_append(LOG_WAL, StableRecord::CoordStart { rid }, false);
                    ctx.trace(TraceKind::Note("init"));
                }
                Event::Recovered => {
                    assert_eq!(self.lives, 0, "factory must rebuild volatile state from scratch");
                    self.lives += 1;
                    let prior = ctx.log_read(LOG_WAL);
                    assert!(!prior.is_empty(), "stable log must survive the crash");
                    ctx.trace(TraceKind::Note("reborn"));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn crash_preserves_stable_logs_and_recovers() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(7));
        let n = host.add_node("c", Box::new(|_| Box::new(CrashDummy { lives: 0 })));
        host.schedule_fault(
            NemesisWhen::on_trace(|ev| matches!(ev.kind, TraceKind::Note("init"))),
            FaultOp::CrashFor { node: n, down_for: Dur::from_millis(5) },
        )
        .unwrap();
        let out = host.run_trace_until(Box::new(|t| {
            t.count_kind(|k| matches!(k, TraceKind::Note("reborn"))) == 1
        }));
        assert_eq!(out, RunOutcome::Predicate);
        host.stop();
        assert!(host.panicked_nodes().is_empty());
        let trace = host.trace_snapshot();
        assert_eq!(trace.count_kind(|k| matches!(k, TraceKind::Crash)), 1);
        assert_eq!(trace.count_kind(|k| matches!(k, TraceKind::Recover)), 1);
        assert_eq!(host.log_read(n, LOG_WAL).len(), 1, "log written before the crash survives");
    }

    #[test]
    fn paused_node_stalls_and_resume_drains_the_backlog() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(8));
        let a = host.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 5 })));
        let _b = host.add_node("b", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        host.schedule_fault(NemesisWhen::Now, FaultOp::Pause(NodeId(1))).unwrap();
        host.start();
        // Give the pause a chance to land before the pings fly.
        host.quiesce_for(Dur::from_millis(5));
        let _ = a;
        host.schedule_fault(NemesisWhen::After(Dur::from_millis(10)), FaultOp::Resume(NodeId(1)))
            .unwrap();
        let out = host.run_trace_until(Box::new(|t| pongs(t) == 5));
        assert_eq!(out, RunOutcome::Predicate, "resume must release the gated inbox");
        host.stop();
        let trace = host.trace_snapshot();
        assert_eq!(trace.count_kind(|k| matches!(k, TraceKind::Pause)), 1);
        assert_eq!(trace.count_kind(|k| matches!(k, TraceKind::Resume)), 1);
    }

    #[test]
    fn dropping_link_fault_holds_traffic_until_healed() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(9));
        let a = host.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 4 })));
        let b = host.add_node("b", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        host.schedule_fault(
            NemesisWhen::Now,
            FaultOp::SetLink { from: a, to: b, fault: LinkFault::drop_all() },
        )
        .unwrap();
        host.quiesce_for(Dur::from_millis(30));
        {
            let trace = host.trace_snapshot();
            assert_eq!(pongs(&trace), 0, "nothing crosses a dropping link");
        }
        assert_eq!(host.stats_snapshot().dropped_on_link(), 4);
        // Heal: the held pings arrive late, in order — loss was delay.
        host.schedule_fault(NemesisWhen::Now, FaultOp::HealLink { from: a, to: b }).unwrap();
        let out = host.run_trace_until(Box::new(|t| pongs(t) == 4));
        assert_eq!(out, RunOutcome::Predicate, "healed links re-deliver what they held");
        host.stop();
    }

    struct Panicker;
    impl Process for Panicker {
        fn on_event(&mut self, _ctx: &mut dyn Context, event: Event) {
            if let Event::Message { .. } = event {
                panic!("injected node-thread panic");
            }
        }
    }

    #[test]
    fn node_thread_panic_is_recorded_not_swallowed() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(10));
        let _a = host.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 1 })));
        let _p = host.add_node("victim", Box::new(|_| Box::new(Panicker)));
        host.quiesce_for(Dur::from_millis(20));
        host.stop();
        assert_eq!(host.panicked_nodes(), &["victim"]);
    }

    #[test]
    fn run_times_out_when_predicate_never_holds() {
        let mut cfg = ThreadedConfig::with_seed(4);
        cfg.wall_limit = Duration::from_millis(50);
        let mut host = ThreadedHost::new(cfg);
        host.add_node("a", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        assert_eq!(host.run_trace_until(Box::new(|_| false)), RunOutcome::TimeLimit);
    }
}
