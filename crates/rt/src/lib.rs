//! # etx-rt — the wall-clock runtime backend
//!
//! Runs the *identical* protocol state machines the deterministic simulator
//! hosts, but on the wall clock: per-node inboxes, real monotonic clocks
//! behind timers, and each node's in-memory [`StableStorage`] — the
//! simulator's type — behind the same `log_append`/`log_read` contract.
//! This is the backend that turns every simulated bench figure into an
//! honest wall-clock number — commits per second on the host, not per
//! simulated second.
//!
//! **The caller's thread runs every node.** Nodes run only inside
//! [`Host::run_trace_until`] and [`Host::quiesce_for`], on the thread that
//! calls them, as the simulator's do. A send appends to the destination's
//! inbox and, unless the node is queued already, puts it on the FIFO run
//! queue; a turn pops a node, fires its due timers and handles a bounded
//! batch of its inbox. The paper's nodes are sequential processes that
//! exchange small messages, and a handler takes about a microsecond: a hop
//! to another core costs more than that (the message and the node's state
//! change caches, a parked peer needs a wake-up), so one thread runs every
//! node, whatever the topology or the core count, and a message hop is a
//! queue push. Every handler's context borrows one host-owned struct — the
//! inboxes, the run queue, the wake-up heap, the link table, the trace and
//! its triggers, the message and span totals — so the host needs no lock.
//! Between slices of at most 200 µs of handlers a run applies its due
//! faults and checks its predicate; with no node to run it sleeps until
//! the next timer, the next timed fault or its deadline.
//!
//! Faults here are **real**, not simulated: the fault plane
//! ([`Host::schedule_fault`]) applies them on the wall clock, between two
//! handlers. A crash drops the node's process, timers and inbox (volatile
//! state); its stable storage survives for restart. A pause leaves the
//! node unrun (the SIGSTOP story — messages pile up, timers go overdue,
//! nothing is lost), and a cut link holds what is sent on it. A
//! trace-triggered fault lands right after the handler that recorded the
//! matching event, as on the simulator; a timed one at the next slice
//! boundary, at most 200 µs late. What a fault *means* — how a bounded or
//! compound operation lowers to primitives, what a cut link holds, when a
//! trace trigger fires — is `etx_base::fault`'s, and what a node is —
//! which crashes, recoveries, pauses and resumes apply and what each
//! records, the order of its deferred actions (by instant, ties in push
//! order) and how they are cancelled, how an event is recorded — is
//! `etx_base::host`'s: the simulator runs the same code for all of it.
//! The §3 checker then judges the resulting trace exactly as it judges a
//! simulated one.
//!
//! What deliberately does **not** exist here:
//!
//! * **Modelled network delay and loss.** Channels are genuinely reliable
//!   and as fast as the machine; the reliable-channel abstraction of §4
//!   holds by construction — and the fault plane preserves it: a cut
//!   link holds its traffic and re-injects it at heal
//!   ([`etx_base::fault::Links`], which says why that is a liveness
//!   requirement). Crashes are the genuinely lossy fault: a killed node's
//!   inbox and volatile state are really gone, only its stable log
//!   survives.
//! * **The perfect-failure-detector oracle.** `subscribe_node_events` is
//!   accepted and never fires — real deployments have no such oracle, and
//!   the e-Transaction protocol pointedly does not need one. (The
//!   primary-backup baseline that does is a simulator-only experiment.)
//! * **Determinism.** Per-node randomness is still seeded (same master
//!   seed → same per-node streams), but which timers are due and which
//!   messages wait at a turn depends on how long handlers really took.
//!   Byte-identical replay remains the simulator's job.
//!
//! Cost-model service times are honored exactly as in the simulator — a
//! forced `log_append` returns the modelled duration and `send_after`
//! really does wait — so a scenario built on the paper's cost model behaves
//! recognizably on both backends. Wall-clock benches pass
//! [`etx_base::config::CostModel::zeroed`] instead, which removes every
//! modelled stall and leaves only what the hardware charges.

use etx_base::config::CostModel;
use etx_base::fault::{CapabilityError, FaultOp, Links, NemesisWhen, Prim, Triggers};
use etx_base::host::{record, Life, TimeQueue, Timed};
use etx_base::ids::{NodeId, ResultId, TimerId};
use etx_base::metrics::SpanTotals;
use etx_base::msg::Payload;
use etx_base::rng::Rng;
use etx_base::runtime::{Context, Event, Host, NodeFactory, Process, RunOutcome, TimerTag};
use etx_base::time::{Dur, Time};
use etx_base::trace::{Component, MsgStats, Trace, TraceEvent, TraceKind};
use etx_base::wal::{StableRecord, StableStorage};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Threaded-host parameters.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Master seed: each node derives an independent randomness stream from
    /// it (deterministic per node; the schedule is not).
    pub seed: u64,
    /// Environment cost constants. Modelled service times are honored with
    /// real waits; use [`CostModel::zeroed`] for pure-hardware numbers.
    pub cost: CostModel,
    /// Hard stop for [`Host::run_trace_until`]: once this much wall-clock
    /// time has passed since the run started (not since the call), it
    /// gives up with [`RunOutcome::TimeLimit`] — the simulator's
    /// `max_time`, on the real clock.
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

/// What travels over a node's inbox: one message, past the link filter.
struct Wire {
    from: NodeId,
    payload: Payload,
    depth: u32,
}

/// A deferred local action: a timer armed through `set_timer`, or the tail
/// of a `send_after` whose modelled service time has not elapsed yet.
enum Deferred {
    Timer { id: TimerId, tag: TimerTag, depth: u32 },
    Send { to: NodeId, payload: Payload, depth: u32 },
}

impl Timed for Deferred {
    fn timer(&self) -> Option<TimerId> {
        match self {
            Deferred::Timer { id, .. } => Some(*id),
            Deferred::Send { .. } => None,
        }
    }
}

/// Handlers one node may run before it goes to the back of the run queue.
const TURN_BATCH: usize = 64;

/// How long a run handles nodes before it applies its due timed faults
/// and checks its predicate again.
const SLICE: Duration = Duration::from_micros(200);

/// What a node's handlers and the fault plane share: everything a send, a
/// trace event or a span touches beyond the node itself.
struct Net {
    /// `Time(0)`: the moment [`ThreadedHost::start`] ran.
    epoch: Instant,
    /// Per node, indexed by id.
    mail: Vec<Mailbox>,
    /// Nodes with work, FIFO; a node is in it at most once.
    run: VecDeque<usize>,
    /// `(due, node)`: look at `node` at `due` because it has a deferred
    /// action then. May hold stale entries — a wake-up that finds nothing
    /// due costs one empty turn.
    wakeups: BinaryHeap<Reverse<(Time, usize)>>,
    links: Links,
    trace: Trace,
    triggers: Triggers,
    stats: MsgStats,
    spans: SpanTotals,
}

/// What others see of one node.
struct Mailbox {
    inbox: VecDeque<Wire>,
    /// The node is in the run queue.
    queued: bool,
    /// Decides whether the node runs (`Up`) and whether a message to it
    /// is dropped (`Down`).
    life: Life,
    /// The earliest wake-up of this node still in `wakeups`; `None` once
    /// it has been served. A node re-registers only when its earliest
    /// deferred action moved before this.
    registered: Option<Time>,
}

impl Net {
    fn time(&self, at: Instant) -> Time {
        Time(at.saturating_duration_since(self.epoch).as_micros() as u64)
    }

    fn now(&self) -> Time {
        self.time(Instant::now())
    }

    fn instant(&self, at: Time) -> Instant {
        self.epoch + Duration::from_micros(at.0)
    }

    fn record(&mut self, at: Time, node: NodeId, kind: TraceKind) {
        record(&mut self.trace, &mut self.triggers, TraceEvent::new(at, node, kind));
    }

    /// Puts a node on the run queue unless it is there already.
    fn enqueue(&mut self, idx: usize) {
        let mail = &mut self.mail[idx];
        if !mail.queued {
            mail.queued = true;
            self.run.push_back(idx);
        }
    }

    /// A send leaving `from`: counted, then held if the link is cut (see
    /// [`Links`]) or delivered.
    fn transmit(&mut self, from: NodeId, to: NodeId, payload: Payload, depth: u32) {
        self.stats.record_sent(&payload);
        match self.links.send(from, to, payload, depth) {
            Some(payload) => self.deliver(to, Wire { from, payload, depth }),
            None => self.stats.record_dropped_on_link(),
        }
    }

    /// The inbox append, past the link filter. A message to a down node
    /// is dropped and counted, matching the simulator's drop-to-down
    /// accounting, so nothing sent to a crashed incarnation reaches the
    /// next one.
    fn deliver(&mut self, to: NodeId, wire: Wire) {
        let idx = to.0 as usize;
        let Some(mail) = self.mail.get_mut(idx) else { return };
        if mail.life == Life::Down {
            return self.stats.record_dropped_to_down();
        }
        mail.inbox.push_back(wire);
        self.enqueue(idx);
    }

    /// Moves every wake-up due at `now` onto the run queue (on every call,
    /// so timers are served under saturation, not only when the queue runs
    /// dry) and pops the next node.
    fn next(&mut self, now: Time) -> Option<usize> {
        while let Some(&Reverse((due, idx))) = self.wakeups.peek() {
            if due > now {
                break;
            }
            self.wakeups.pop();
            self.mail[idx].registered = None;
            self.enqueue(idx);
        }
        let idx = self.run.pop_front()?;
        self.mail[idx].queued = false;
        Some(idx)
    }

    /// Asks for a look at `idx` at `due`, its earliest deferred action.
    fn register(&mut self, idx: usize, due: Time) {
        let registered = &mut self.mail[idx].registered;
        if registered.is_none_or(|at| due < at) {
            *registered = Some(due);
            self.wakeups.push(Reverse((due, idx)));
        }
    }
}

/// A node's volatile runtime state, lent to its handlers' contexts.
struct NodeRt {
    me: NodeId,
    rng: Rng,
    deferred: TimeQueue<Deferred>,
    timer_seq: u64,
}

/// One incarnation of a node, from its start or recovery to its crash.
struct Node {
    process: Box<dyn Process>,
    /// `Init` or `Recovered`, delivered before anything else.
    first: Option<Event>,
    rt: NodeRt,
}

impl Node {
    fn new(me: NodeId, process: Box<dyn Process>, rng: Rng, first: Event) -> Self {
        let rt = NodeRt { me, rng, deferred: TimeQueue::default(), timer_seq: 0 };
        Node { process, first: Some(first), rt }
    }

    /// One scheduling turn: the first event if still owed, every deferred
    /// action due at `now`, then at most [`TURN_BATCH`] of the messages
    /// waiting when the turn began, in inbox order. It ends early after a
    /// handler whose events hit an armed trigger, so the fault lands
    /// before the node's next handler.
    fn turn(&mut self, net: &mut Net, storage: &mut StableStorage, cost: &CostModel, now: Time) {
        if let Some(first) = self.first.take() {
            if self.handle(net, storage, cost, first, 0) {
                return;
            }
        }
        while self.rt.deferred.next_at().is_some_and(|due| due <= now) {
            match self.rt.deferred.pop().expect("peeked") {
                (_, _, true) => {} // a cancelled timer
                (_, Deferred::Timer { id, tag, depth }, false) => {
                    if self.handle(net, storage, cost, Event::Timer { id, tag }, depth) {
                        return;
                    }
                }
                (_, Deferred::Send { to, payload, depth }, false) => {
                    net.transmit(self.rt.me, to, payload, depth)
                }
            }
        }
        let idx = self.rt.me.0 as usize;
        for _ in 0..net.mail[idx].inbox.len().min(TURN_BATCH) {
            let Some(Wire { from, payload, depth }) = net.mail[idx].inbox.pop_front() else {
                break;
            };
            if self.handle(net, storage, cost, Event::Message { from, payload }, depth) {
                return;
            }
        }
    }

    /// Runs one handler at the clock's current reading; says whether an
    /// event it recorded hit an armed trigger.
    fn handle(
        &mut self,
        net: &mut Net,
        storage: &mut StableStorage,
        cost: &CostModel,
        event: Event,
        depth: u32,
    ) -> bool {
        let now = net.now();
        let mut ctx = ThreadCtx { net, rt: &mut self.rt, storage, cost, now, depth };
        self.process.on_event(&mut ctx, event);
        ctx.net.triggers.hit()
    }
}

/// The `Context` capability surface, threaded-backend flavour. `now` is
/// pinned at handler entry and stamps every event the handler records —
/// same convention as the simulator, where a handler runs instantaneously
/// at one instant. One thread records the trace, so it stays in time
/// order.
struct ThreadCtx<'a> {
    net: &'a mut Net,
    rt: &'a mut NodeRt,
    storage: &'a mut StableStorage,
    cost: &'a CostModel,
    now: Time,
    depth: u32,
}

impl ThreadCtx<'_> {
    fn send_impl(&mut self, depth_base: u32, extra: Dur, to: NodeId, payload: Payload) {
        let background = payload.is_background();
        let depth = if background { 0 } else { depth_base + 1 };
        if extra == Dur::ZERO {
            self.net.transmit(self.rt.me, to, payload, depth);
        } else {
            self.rt.deferred.push(self.now + extra, Deferred::Send { to, payload, depth });
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

    fn set_timer(&mut self, delay: Dur, tag: TimerTag) -> TimerId {
        self.rt.timer_seq += 1;
        let id = TimerId(self.rt.timer_seq);
        self.rt.deferred.push(self.now + delay, Deferred::Timer { id, tag, depth: self.depth });
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.rt.deferred.cancel(id);
    }

    fn random_u64(&mut self) -> u64 {
        self.rt.rng.next_u64()
    }

    fn log_append(&mut self, log: &'static str, rec: StableRecord, forced: bool) -> Dur {
        self.storage.append(log, rec);
        if forced {
            self.rt.rng.jitter(self.cost.log_force, self.cost.jitter)
        } else {
            Dur::ZERO
        }
    }

    fn log_checkpoint(&mut self, log: &'static str, rec: StableRecord) {
        self.storage.checkpoint(log, rec);
    }

    fn log_read(&self, log: &'static str) -> Vec<StableRecord> {
        self.storage.read(log).to_vec()
    }

    fn trace(&mut self, kind: TraceKind) {
        self.net.record(self.now, self.rt.me, kind);
    }

    /// Summed, and recorded (so offered to the armed triggers, and not
    /// kept) only while a trigger is armed.
    fn span(&mut self, rid: ResultId, comp: Component, dur: Dur) {
        self.net.spans.record(comp, dur);
        if !self.net.triggers.is_empty() {
            self.net.record(self.now, self.rt.me, TraceKind::Span { rid, comp, dur });
        }
    }

    fn depth(&self) -> u32 {
        self.depth
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

/// One node's place in the host, kept from registration to the end.
struct Slot {
    name: &'static str,
    /// Builds the process at start and again at every recovery (volatile
    /// state from scratch).
    factory: NodeFactory,
    incarnation: u32,
    /// `None` before start, while crashed, and after a handler panicked.
    node: Option<Node>,
    /// Survives crashes (§2), for the recovered incarnation and for
    /// introspection.
    storage: StableStorage,
    /// A handler panicked: the node never runs again, nor recovers.
    panicked: bool,
}

enum Phase {
    /// Nodes may still be registered; none has run.
    Building,
    /// Nodes run inside the run calls.
    Running,
    /// Nothing runs any more.
    Stopped,
}

/// What the fault plane owes at a host-clock instant.
enum Due {
    /// A scheduled operation, lowered when it fires.
    Op(FaultOp),
    /// The undo a bounded operation left behind when it fired.
    Undo(Vec<Prim>),
}

/// The wall-clock host. Register nodes, then [`ThreadedHost::start`] (or
/// let the first run call do it), run, and [`ThreadedHost::stop`].
///
/// Nodes run only inside [`Host::run_trace_until`] and
/// [`Host::quiesce_for`], on the thread that calls them. Between two
/// handlers nothing runs, so everything the host holds reads live at any
/// time: the trace ([`Host::trace`]), the totals ([`Host::stats`],
/// [`Host::spans`]), each node's process ([`ThreadedHost::process_ref`])
/// and stable storage ([`ThreadedHost::storage`]). A fault scheduled
/// through [`Host::schedule_fault`] applies between two handlers: a
/// crash drops the victim's process, deferred actions and inbox (keeping
/// its stable logs for restart), a pause leaves it unrun with its inbox
/// accumulating, a cut enters the link in the table every send consults.
/// "Threaded" names the real thread the nodes run on — the caller's — as
/// against the simulator's virtual time.
pub struct ThreadedHost {
    cfg: ThreadedConfig,
    phase: Phase,
    slots: Vec<Slot>,
    net: Net,
    /// Timed faults not yet due, in scheduling order; an entry leaves
    /// when it fires.
    nemesis: Vec<(Time, Due)>,
}

impl std::fmt::Debug for ThreadedHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedHost")
            .field("nodes", &self.slots.len())
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
        let net = Net {
            epoch: Instant::now(),
            mail: Vec::new(),
            run: VecDeque::new(),
            wakeups: BinaryHeap::new(),
            links: Links::default(),
            trace: Trace::default(),
            triggers: Triggers::default(),
            stats: MsgStats::default(),
            spans: SpanTotals::default(),
        };
        ThreadedHost { cfg, phase: Phase::Building, slots: Vec::new(), net, nemesis: Vec::new() }
    }

    /// Builds every registered node with `Event::Init` owed and queues it,
    /// in id order; the first run call handles them. Idempotent.
    pub fn start(&mut self) {
        if !matches!(self.phase, Phase::Building) {
            return;
        }
        // Time(0) is the moment processing begins, not host construction.
        self.net.epoch = Instant::now();
        // Faults scheduled before the run (`NemesisWhen::Now` on a
        // building host) that need no live node — cuts and pauses — are
        // put in force *before* any node's Init runs, so a pre-partitioned
        // or pre-paused start is exactly that.
        let early = self.nemesis.extract_if(.., |(at, due)| {
            let Due::Op(op) = due else { return false };
            let no_node = |p: &Prim| !matches!(p, Prim::Crash(_) | Prim::Recover(_));
            *at == Time::ZERO && op.clone().lower().now.iter().all(no_node)
        });
        for (_, due) in early.collect::<Vec<_>>() {
            self.fire(due);
        }
        let mut master = Rng::new(self.cfg.seed);
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let me = NodeId(idx as u32);
            let rng = master.fork();
            let process = (slot.factory)(me);
            slot.node = Some(Node::new(me, process, rng, Event::Init));
            self.net.enqueue(idx);
        }
        self.phase = Phase::Running;
    }

    /// Stops the host: from here nothing runs (what is still queued is
    /// left unhandled) and no fault is accepted. Every node's process and
    /// stable logs stay readable. Idempotent.
    ///
    /// A node that *panicked* is recorded rather than propagated. Callers
    /// that must fail the scenario on a dead node (the harness does) check
    /// [`ThreadedHost::panicked_nodes`].
    pub fn stop(&mut self) {
        self.phase = Phase::Stopped;
    }

    /// Names of nodes whose handler panicked, in id order. A non-empty
    /// list means the run's results are untrustworthy; the harness turns
    /// it into a scenario failure.
    pub fn panicked_nodes(&self) -> Vec<&'static str> {
        self.slots.iter().filter(|s| s.panicked).map(|s| s.name).collect()
    }

    /// Whether [`ThreadedHost::stop`] has run.
    pub fn is_stopped(&self) -> bool {
        matches!(self.phase, Phase::Stopped)
    }

    /// Node name (diagnostics).
    pub fn node_name(&self, node: NodeId) -> &'static str {
        self.slots[node.0 as usize].name
    }

    /// Read access to a node's process: `None` before start, while the
    /// node is crashed and after a handler of it panicked. Pair with
    /// [`Process::as_any`] to downcast — test and harness introspection
    /// only, never a protocol channel.
    pub fn process_ref(&self, node: NodeId) -> Option<&dyn Process> {
        self.slots[node.0 as usize].node.as_ref().map(|n| &*n.process)
    }

    /// A node's stable storage, which survives its crashes.
    pub fn storage(&self, node: NodeId) -> &StableStorage {
        &self.slots[node.0 as usize].storage
    }

    /// A copy of the run's trace. [`Host::trace`] lends the same trace in
    /// place; this remains for callers that want it owned.
    pub fn trace_snapshot(&self) -> Trace {
        self.net.trace.clone()
    }

    // ---- the run loop ------------------------------------------------------

    /// Runs nodes on the calling thread until `pred` holds or `deadline`
    /// passes. Each pass applies the timed faults that are due, checks
    /// `pred` and runs one slice; only after a slice found no node to run
    /// does it sleep, until the earliest of the next wake-up, the next
    /// timed fault and `deadline`. A stopped host runs nothing and waits
    /// for nothing.
    fn drive(&mut self, deadline: Instant, pred: &mut dyn FnMut(&Trace) -> bool) -> RunOutcome {
        loop {
            if !self.is_stopped() {
                self.pump_nemesis();
            }
            if pred(&self.net.trace) {
                return RunOutcome::Predicate;
            }
            let now = Instant::now();
            if now >= deadline || self.is_stopped() {
                return RunOutcome::TimeLimit;
            }
            if !self.slice(now + SLICE) {
                let next_wakeup = self.net.wakeups.peek().map(|&Reverse((due, _))| due);
                let next_fault = self.nemesis.iter().map(|&(at, _)| at).min();
                let wake = next_wakeup.into_iter().chain(next_fault).min();
                let until = wake.map_or(deadline, |at| self.net.instant(at).min(deadline));
                std::thread::sleep(until.saturating_duration_since(Instant::now()));
            }
        }
    }

    /// Runs turns until no node has work or `until` passes, firing what
    /// each turn's events triggered before the next turn starts. Returns
    /// whether any node was run.
    fn slice(&mut self, until: Instant) -> bool {
        let mut ran = false;
        loop {
            let at = Instant::now();
            if at >= until {
                return ran;
            }
            let now = self.net.time(at);
            let Some(idx) = self.net.next(now) else { return ran };
            ran = true;
            self.turn(idx, now);
            self.fire_triggered();
        }
    }

    /// One turn of a node, unless it is paused, down or has panicked (a
    /// `Resume` or `Recover` queues it again). Then the node's earliest
    /// deferred action is registered as a wake-up, and a node with
    /// messages left goes to the back of the run queue.
    fn turn(&mut self, idx: usize, now: Time) {
        let net = &mut self.net;
        let slot = &mut self.slots[idx];
        if net.mail[idx].life != Life::Up {
            return;
        }
        let Some(node) = slot.node.as_mut() else { return };
        let (storage, cost) = (&mut slot.storage, &self.cfg.cost);
        // A panicking handler is the node's bug, not the host's: it must
        // not unwind through the caller's run.
        match catch_unwind(AssertUnwindSafe(|| node.turn(net, storage, cost, now))) {
            Ok(()) => {
                if let Some(due) = node.rt.deferred.next_at() {
                    net.register(idx, due);
                }
                if !net.mail[idx].inbox.is_empty() {
                    net.enqueue(idx);
                }
            }
            Err(_) => {
                slot.node = None;
                slot.panicked = true;
            }
        }
    }

    // ---- fault plane -------------------------------------------------------

    /// A lifecycle primitive, where [`Life::next`] says it applies: the
    /// node's new state and its record, then what the host makes of it.
    fn transition(&mut self, node: NodeId, prim: Prim) {
        let idx = node.0 as usize;
        let Some(mail) = self.net.mail.get_mut(idx) else { return };
        let Some((life, kind)) = mail.life.next(prim) else { return };
        let slot = &mut self.slots[idx];
        // A node that panicked left nothing coherent to restart: it stays
        // down.
        if matches!(prim, Prim::Recover(_)) && slot.panicked {
            return;
        }
        mail.life = life;
        match prim {
            // The process, its deferred actions and its inbox go: all
            // volatile state, exactly the §2 crash model. The stable
            // storage stays in the slot.
            Prim::Crash(_) => {
                slot.node = None;
                mail.inbox.clear();
            }
            // A fresh process from the factory over the crashed
            // incarnation's stable logs, `Event::Recovered` first. Nothing
            // sent while it was down reaches it: those sends were dropped.
            Prim::Recover(_) => {
                slot.incarnation += 1;
                // Fresh deterministic stream per incarnation: same master
                // seed + node + incarnation → same stream, never a replay of
                // the pre-crash one.
                let rng =
                    Rng::new(self.cfg.seed ^ ((idx as u64) << 32) ^ u64::from(slot.incarnation));
                let process = (slot.factory)(node);
                slot.node = Some(Node::new(node, process, rng, Event::Recovered));
                self.net.enqueue(idx);
            }
            // No turn of it runs from here, inbox accumulating, timers
            // going overdue — SIGSTOP semantics without the signal.
            Prim::Pause(_) => {}
            // Queued again, it fires every overdue timer and drains the
            // accumulated inbox — late, as after a real SIGCONT.
            Prim::Resume(_) => self.net.enqueue(idx),
            Prim::CutLink { .. } | Prim::HealLink { .. } => {}
        }
        let now = self.net.now();
        self.net.record(now, node, kind);
    }

    /// A scheduled entry fires: an operation is lowered, its primitives
    /// apply now and its undo is owed `after` from now. Then whatever the
    /// events they recorded triggered fires too.
    fn fire(&mut self, due: Due) {
        let prims = match due {
            Due::Undo(prims) => prims,
            Due::Op(op) => {
                let lowered = op.lower();
                if let Some((after, undo)) = lowered.undo {
                    self.nemesis.push((self.net.now() + after, Due::Undo(undo)));
                }
                lowered.now
            }
        };
        for prim in prims {
            match prim {
                Prim::Crash(n) | Prim::Recover(n) | Prim::Pause(n) | Prim::Resume(n) => {
                    self.transition(n, prim)
                }
                Prim::CutLink { from, to } => self.net.links.cut(from, to),
                // What the link held goes out in send order, behind nothing
                // (a later send on the link queues behind it: FIFO per link
                // survives the cut). A destination that crashed meanwhile
                // still loses it, with the usual drop-to-down accounting.
                Prim::HealLink { from, to } => {
                    for (payload, depth) in self.net.links.heal(from, to) {
                        self.net.deliver(to, Wire { from, payload, depth });
                    }
                }
            }
        }
        self.fire_triggered();
    }

    /// Fires the faults of the triggers hit since the last call, in
    /// arming order.
    fn fire_triggered(&mut self) {
        for op in self.net.triggers.fired() {
            self.fire(Due::Op(op));
        }
    }

    /// Fires every timed entry that is due.
    fn pump_nemesis(&mut self) {
        let now = self.net.now();
        let due: Vec<Due> =
            self.nemesis.extract_if(.., |(at, _)| *at <= now).map(|(_, due)| due).collect();
        for due in due {
            self.fire(due);
        }
    }
}

impl Host for ThreadedHost {
    fn add_node(&mut self, name: &'static str, factory: NodeFactory) -> NodeId {
        assert!(
            matches!(self.phase, Phase::Building),
            "threaded host: all nodes must be registered before the run starts"
        );
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(Slot {
            name,
            factory,
            incarnation: 0,
            node: None,
            storage: StableStorage::new(),
            panicked: false,
        });
        self.net.mail.push(Mailbox {
            inbox: VecDeque::new(),
            queued: false,
            life: Life::Up,
            registered: None,
        });
        id
    }

    fn host_now(&self) -> Time {
        self.net.now()
    }

    fn run_trace_until(&mut self, mut pred: Box<dyn FnMut(&Trace) -> bool + '_>) -> RunOutcome {
        self.start();
        // The wall-clock watchdog: a paused or wedged node must turn into
        // a diagnosable timeout, never a hung test run.
        let deadline = self.net.epoch + self.cfg.wall_limit;
        self.drive(deadline, &mut pred)
    }

    fn quiesce_for(&mut self, extra: Dur) {
        self.start();
        let deadline = Instant::now() + Duration::from_micros(extra.0);
        self.drive(deadline, &mut |_| false);
    }

    fn trace(&self) -> &Trace {
        &self.net.trace
    }

    fn stats(&self) -> &MsgStats {
        &self.net.stats
    }

    fn spans(&self) -> &SpanTotals {
        &self.net.spans
    }

    fn schedule_fault(&mut self, when: NemesisWhen, op: FaultOp) -> Result<(), CapabilityError> {
        if self.is_stopped() {
            return Err(CapabilityError::new("threaded (stopped)", op.label()));
        }
        // Before start() there is no node to fault and the clock reads
        // from the run's epoch: `Now` waits for `start()` or the first pump.
        let running = matches!(self.phase, Phase::Running);
        let now = if running { self.net.now() } else { Time::ZERO };
        match when {
            NemesisWhen::Now if running => self.fire(Due::Op(op)),
            NemesisWhen::Now => self.nemesis.push((now, Due::Op(op))),
            NemesisWhen::After(d) => self.nemesis.push((now + d, Due::Op(op))),
            NemesisWhen::OnTrace(pred) => self.net.triggers.arm(pred, op),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::msg::FdMsg;
    use etx_base::wal::LOG_WAL;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

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
        assert_eq!(host.stats().sent("Heartbeat"), 5);
    }

    struct TimerBox;
    impl Process for TimerBox {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    let keep = ctx.set_timer(Dur::from_millis(5), TimerTag::CleanerTick);
                    let kill = ctx.set_timer(Dur::from_millis(1), TimerTag::BatchFlush);
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

    /// Arms one live timer and eight it cancels at once, then says so.
    struct CancelBurst;
    impl Process for CancelBurst {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    ctx.set_timer(Dur::from_millis(20), TimerTag::CleanerTick);
                    let dead: Vec<_> = (0..8)
                        .map(|_| ctx.set_timer(Dur::from_secs(3_600), TimerTag::BatchFlush))
                        .collect();
                    for id in dead {
                        ctx.cancel_timer(id);
                    }
                    ctx.trace(TraceKind::Note("armed"));
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
    fn a_burst_of_cancels_leaves_only_the_live_timers() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(2));
        host.add_node("t", Box::new(|_| Box::new(CancelBurst)));
        let noted = |what| move |t: &Trace| t.count_kind(|k| *k == TraceKind::Note(what)) == 1;
        assert_eq!(host.run_trace_until(Box::new(noted("armed"))), RunOutcome::Predicate);
        let deferred = &host.slots[0].node.as_ref().expect("the node is up").rt.deferred;
        assert_eq!(deferred.len(), 1, "the cancels compacted the queue to the live timer");
        assert_eq!(deferred.pending_cancels(), 0, "and forgot their ids");
        assert_eq!(host.run_trace_until(Box::new(noted("tick"))), RunOutcome::Predicate);
        host.stop();
    }

    /// Charges a 5 µs `Sql` span per message, then notes it.
    struct Charger;
    impl Process for Charger {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Message { .. } = event {
                let rid = ResultId::first(etx_base::ids::RequestId { client: NodeId(0), seq: 1 });
                ctx.span(rid, Component::Sql, Dur(5));
                ctx.trace(TraceKind::Note("charged"));
            }
        }
    }

    fn charged(t: &Trace) -> usize {
        t.count_kind(|k| matches!(k, TraceKind::Note("charged")))
    }

    #[test]
    fn spans_are_summed_per_node_and_left_for_no_one_while_no_trigger_is_armed() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(16));
        host.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 3 })));
        host.add_node("b", Box::new(|_| Box::new(Charger)));
        assert_eq!(host.run_trace_until(Box::new(|t| charged(t) == 3)), RunOutcome::Predicate);
        let spanned = host.trace().count_kind(|k| matches!(k, TraceKind::Span { .. }));
        assert_eq!(spanned, 0, "a span was recorded for nobody");
        let spans = *host.spans();
        assert_eq!((spans.count(Component::Sql), spans.total(Component::Sql)), (3, Dur(15)));
        host.stop();
        assert_eq!(*host.spans(), spans);
    }

    #[test]
    fn a_span_fires_a_trigger_armed_before_start_and_survives_the_crash() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(17));
        host.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 3 })));
        let b = host.add_node("b", Box::new(|_| Box::new(Charger)));
        let on_sql =
            |ev: &TraceEvent| matches!(ev.kind, TraceKind::Span { comp: Component::Sql, .. });
        host.schedule_fault(NemesisWhen::on_trace(on_sql), FaultOp::Crash(b)).unwrap();
        let crashed = |t: &Trace| t.count_kind(|k| matches!(k, TraceKind::Crash)) == 1;
        assert_eq!(host.run_trace_until(Box::new(crashed)), RunOutcome::Predicate);
        assert!(host.net.triggers.is_empty(), "fired: nothing left armed");
        let sql = host.spans().count(Component::Sql);
        assert!(sql >= 1, "the crashed incarnation's spans are the host's now");
        host.stop();
        assert_eq!(host.spans().count(Component::Sql), sql);
        assert_eq!(host.trace().count_kind(|k| matches!(k, TraceKind::Span { .. })), 0);
    }

    /// Each boundary takes the live nodes' counts into the host's totals,
    /// and a crash the victim's: whatever comes next — another boundary,
    /// `stop()` — nothing is counted twice or lost.
    #[test]
    fn totals_count_each_message_and_span_once_across_boundaries_and_a_crash() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(20));
        host.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 5 })));
        let b = host.add_node("b", Box::new(|_| Box::new(Charger)));
        // `b` crashes after its fifth span, before any boundary took them.
        let seen = AtomicUsize::new(0);
        let fifth = move |ev: &TraceEvent| {
            ev.kind == TraceKind::Note("charged") && seen.fetch_add(1, Ordering::Relaxed) == 4
        };
        host.schedule_fault(NemesisWhen::on_trace(fifth), FaultOp::Crash(b)).unwrap();
        let once = |host: &ThreadedHost, when: &str| {
            let (sent, sql) = (host.stats().sent("Heartbeat"), host.spans().count(Component::Sql));
            assert_eq!((sent, sql), (5, 5), "{when}: sent, spans");
        };
        let crashed = |t: &Trace| t.count_kind(|k| *k == TraceKind::Crash) == 1;
        assert_eq!(host.run_trace_until(Box::new(crashed)), RunOutcome::Predicate);
        once(&host, "run");
        host.quiesce_for(Dur::from_millis(2));
        once(&host, "first quiesce");
        host.quiesce_for(Dur::from_millis(2));
        once(&host, "second quiesce");
        host.stop();
        once(&host, "stop");
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
        assert_eq!(host.storage(n).len(LOG_WAL), 1);
        assert!(host.process_ref(n).is_some());
    }

    #[test]
    fn fault_plane_is_supported() {
        let mut host = ThreadedHost::new(ThreadedConfig::default());
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
        assert_eq!(host.storage(n).len(LOG_WAL), 1, "log written before the crash survives");
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
        host.schedule_fault(NemesisWhen::Now, FaultOp::CutLink { from: a, to: b }).unwrap();
        host.quiesce_for(Dur::from_millis(30));
        {
            let trace = host.trace_snapshot();
            assert_eq!(pongs(&trace), 0, "nothing crosses a dropping link");
        }
        assert_eq!(host.stats().dropped_on_link(), 4);
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
        assert_eq!(host.panicked_nodes(), ["victim"]);
    }

    /// Notes "done" at Init and arms one timer, far away.
    struct DoneThenIdle;
    impl Process for DoneThenIdle {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Init = event {
                ctx.trace(TraceKind::Note("done"));
                ctx.set_timer(Dur::from_secs(30), TimerTag::CleanerTick);
            }
        }
    }

    /// The predicate is checked before the run sleeps: a host that made it
    /// hold and then went idle returns at once, not at the next wake-up or
    /// the watchdog.
    #[test]
    fn a_run_returns_promptly_when_its_predicate_holds_and_the_host_goes_idle() {
        let mut cfg = ThreadedConfig::with_seed(22);
        cfg.wall_limit = Duration::from_secs(5);
        let mut host = ThreadedHost::new(cfg);
        host.add_node("d", Box::new(|_| Box::new(DoneThenIdle)));
        let started = Instant::now();
        let done = |t: &Trace| t.count_kind(|k| *k == TraceKind::Note("done")) == 1;
        assert_eq!(host.run_trace_until(Box::new(done)), RunOutcome::Predicate);
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "the run returned after {took:?}");
    }

    #[test]
    fn run_times_out_when_predicate_never_holds() {
        let mut cfg = ThreadedConfig::with_seed(4);
        cfg.wall_limit = Duration::from_millis(50);
        let mut host = ThreadedHost::new(cfg);
        host.add_node("a", Box::new(|_| Box::new(Pinger { peer: None, n: 0 })));
        assert_eq!(host.run_trace_until(Box::new(|_| false)), RunOutcome::TimeLimit);
    }

    // ---- what one thread running every node must never break -------------

    fn idle() -> Box<dyn Process> {
        Box::new(Pinger { peer: None, n: 0 })
    }

    /// Notes the thread that runs its `Init`.
    struct WhoRuns {
        threads: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    }
    impl Process for WhoRuns {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Init = event {
                self.threads.lock().unwrap().push(std::thread::current().id());
                ctx.trace(TraceKind::Note("init"));
            }
        }
    }

    #[test]
    fn the_host_runs_every_node_on_the_callers_thread() {
        let threads = Arc::new(Mutex::new(Vec::new()));
        let mut host = ThreadedHost::new(ThreadedConfig::default());
        for _ in 0..16 {
            let t = Arc::clone(&threads);
            host.add_node("who", Box::new(move |_| Box::new(WhoRuns { threads: Arc::clone(&t) })));
        }
        let inits = |t: &Trace| t.count_kind(|k| *k == TraceKind::Note("init")) == 16;
        assert_eq!(host.run_trace_until(Box::new(inits)), RunOutcome::Predicate);
        host.stop();
        let threads = threads.lock().unwrap();
        assert_eq!(threads.len(), 16);
        let caller = std::thread::current().id();
        assert!(threads.iter().all(|&t| t == caller), "a node ran off the caller's thread");
    }

    /// Sends one ping to `to`, 3 ms after Init.
    struct Late {
        to: NodeId,
    }
    impl Process for Late {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    ctx.set_timer(Dur::from_millis(3), TimerTag::CleanerTick);
                }
                Event::Timer { .. } => ctx.send(self.to, Payload::Fd(FdMsg::Heartbeat { seq: 0 })),
                _ => {}
            }
        }
    }

    #[test]
    fn healed_link_table_gives_the_send_fast_path_back() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(11));
        let a = host.add_node("a", Box::new(|_| Box::new(Late { to: NodeId(1) })));
        let b = host.add_node("b", Box::new(|_| idle()));
        host.schedule_fault(NemesisWhen::Now, FaultOp::CutLink { from: a, to: b }).unwrap();
        host.start();
        assert!(!host.net.links.is_empty());
        host.schedule_fault(NemesisWhen::Now, FaultOp::HealLink { from: a, to: b }).unwrap();
        assert!(host.net.links.is_empty(), "the heal left the link in the table");
        let out = host.run_trace_until(Box::new(|t| pongs(t) == 1));
        assert_eq!(out, RunOutcome::Predicate, "a send after the heal still crosses");
    }

    /// Checks, on every message, that no other handler of this node is
    /// running and that each sender's sequence numbers only go up.
    struct Exclusive {
        busy: Arc<AtomicBool>,
        last: BTreeMap<NodeId, u64>,
        violations: Arc<AtomicUsize>,
        handled: Arc<AtomicUsize>,
    }
    impl Process for Exclusive {
        fn on_event(&mut self, _ctx: &mut dyn Context, event: Event) {
            let Event::Message { from, payload: Payload::Fd(FdMsg::Heartbeat { seq }) } = event
            else {
                return;
            };
            let overlapped = self.busy.swap(true, Ordering::SeqCst);
            let reordered = self.last.insert(from, seq).is_some_and(|prev| prev >= seq);
            if overlapped || reordered {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
            self.busy.store(false, Ordering::SeqCst);
            self.handled.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn one_handler_per_node_at_a_time_and_fifo_per_link() {
        const PER_SENDER: u64 = 3_000;
        let (busy, violations, handled) = (Arc::default(), Arc::default(), Arc::default());
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(12));
        let (b, v, h) = (Arc::clone(&busy), Arc::clone(&violations), Arc::clone(&handled));
        host.add_node(
            "receiver",
            Box::new(move |_| {
                Box::new(Exclusive {
                    busy: Arc::clone(&b),
                    last: BTreeMap::new(),
                    violations: Arc::clone(&v),
                    handled: Arc::clone(&h),
                })
            }),
        );
        for _ in 0..3 {
            host.add_node(
                "sender",
                Box::new(|_| Box::new(Pinger { peer: Some(NodeId(0)), n: PER_SENDER })),
            );
        }
        let all = 3 * PER_SENDER as usize;
        let out = host.run_trace_until(Box::new(|_| handled.load(Ordering::SeqCst) == all));
        assert_eq!(out, RunOutcome::Predicate);
        host.stop();
        assert_eq!(violations.load(Ordering::SeqCst), 0);
        assert!(!busy.load(Ordering::SeqCst));
    }

    /// Bounces every message straight back until the clock passes `until`.
    struct Bouncer {
        kick: Option<NodeId>,
        until: Time,
    }
    impl Process for Bouncer {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            let to = match event {
                Event::Init => self.kick,
                Event::Message { from, .. } => Some(from),
                _ => None,
            };
            match to {
                Some(to) if ctx.now() < self.until => {
                    ctx.send(to, Payload::Fd(FdMsg::Heartbeat { seq: 0 }));
                }
                Some(_) => ctx.trace(TraceKind::Note("done")),
                None => {}
            }
        }
    }

    /// Arms a 1 ms timer over and over until `until`, noting whether one
    /// fired early and the worst lateness (µs).
    struct Ticker {
        until: Time,
        due: Time,
        early: Arc<AtomicBool>,
        worst_late: Arc<AtomicU64>,
    }
    impl Process for Ticker {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {}
                Event::Timer { .. } => {
                    if ctx.now() < self.due {
                        self.early.store(true, Ordering::SeqCst);
                    }
                    let late = ctx.now().0.saturating_sub(self.due.0);
                    self.worst_late.fetch_max(late, Ordering::SeqCst);
                    if ctx.now() >= self.until {
                        ctx.trace(TraceKind::Note("done"));
                        return;
                    }
                }
                _ => return,
            }
            self.due = ctx.now() + Dur::from_millis(1);
            ctx.set_timer(Dur::from_millis(1), TimerTag::CleanerTick);
        }
    }

    #[test]
    fn timers_are_served_while_every_worker_is_busy() {
        let until = Time(50_000);
        let (early, worst_late) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicU64::new(0)));
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(13));
        host.add_node(
            "ping",
            Box::new(move |_| Box::new(Bouncer { kick: Some(NodeId(1)), until })),
        );
        host.add_node("pong", Box::new(move |_| Box::new(Bouncer { kick: None, until })));
        let (e, w) = (Arc::clone(&early), Arc::clone(&worst_late));
        host.add_node(
            "ticker",
            Box::new(move |_| {
                Box::new(Ticker {
                    until,
                    due: Time::ZERO,
                    early: Arc::clone(&e),
                    worst_late: Arc::clone(&w),
                })
            }),
        );
        let done = |t: &Trace| t.count_kind(|k| matches!(k, TraceKind::Note("done"))) == 2;
        assert_eq!(host.run_trace_until(Box::new(done)), RunOutcome::Predicate);
        host.stop();
        assert!(!early.load(Ordering::SeqCst), "a timer fired before it was due");
        // The failure detector's 200 ms timeout must be out of starvation's reach.
        let worst = worst_late.load(Ordering::SeqCst);
        assert!(worst < 20_000, "a 1 ms timer fired {worst} us late under saturation");
    }

    /// Counts the messages it handles.
    struct Counter {
        handled: Arc<AtomicUsize>,
    }
    impl Process for Counter {
        fn on_event(&mut self, _ctx: &mut dyn Context, event: Event) {
            if let Event::Message { .. } = event {
                self.handled.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Sends 20 messages to `to` every 100 µs until `total` are out.
    struct Drip {
        to: NodeId,
        total: usize,
        sent: Arc<AtomicUsize>,
    }
    impl Process for Drip {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if !matches!(event, Event::Init | Event::Timer { .. }) {
                return;
            }
            let sent = self.sent.load(Ordering::SeqCst);
            let burst = (self.total - sent).min(20);
            for seq in 0..burst as u64 {
                ctx.send(self.to, Payload::Fd(FdMsg::Heartbeat { seq }));
            }
            self.sent.store(sent + burst, Ordering::SeqCst);
            if sent + burst < self.total {
                ctx.set_timer(Dur::from_micros(100), TimerTag::CleanerTick);
            }
        }
    }

    #[test]
    fn no_handler_runs_between_pause_returning_and_resume() {
        const TOTAL: usize = 4_000;
        let (handled, sent) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(14));
        let h = Arc::clone(&handled);
        let n = host
            .add_node("counter", Box::new(move |_| Box::new(Counter { handled: Arc::clone(&h) })));
        let s = Arc::clone(&sent);
        host.add_node(
            "drip",
            Box::new(move |_| Box::new(Drip { to: n, total: TOTAL, sent: Arc::clone(&s) })),
        );
        host.run_trace_until(Box::new(|_| handled.load(Ordering::SeqCst) > 0));
        host.schedule_fault(NemesisWhen::Now, FaultOp::Pause(n)).unwrap();
        let (handled_at_pause, sent_at_pause) =
            (handled.load(Ordering::SeqCst), sent.load(Ordering::SeqCst));
        host.quiesce_for(Dur::from_millis(10));
        assert!(sent.load(Ordering::SeqCst) > sent_at_pause, "the flood must go on");
        assert_eq!(handled.load(Ordering::SeqCst), handled_at_pause, "a paused node ran");
        host.schedule_fault(NemesisWhen::Now, FaultOp::Resume(n)).unwrap();
        let out = host.run_trace_until(Box::new(|_| handled.load(Ordering::SeqCst) == TOTAL));
        assert_eq!(out, RunOutcome::Predicate, "resume must drain the whole backlog");
    }

    /// Appends two stable records per message, 2 ms apart.
    struct TwoStep;
    impl Process for TwoStep {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Message { .. } = event {
                let rid = etx_base::ids::ResultId::first(etx_base::ids::RequestId {
                    client: NodeId(0),
                    seq: 1,
                });
                ctx.log_append(LOG_WAL, StableRecord::CoordStart { rid }, false);
                ctx.trace(TraceKind::Note("mid"));
                std::thread::sleep(Duration::from_millis(2));
                ctx.log_append(LOG_WAL, StableRecord::CoordStart { rid }, false);
            }
        }
    }

    #[test]
    fn crash_waits_out_the_handler_in_flight() {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(15));
        let _a = host.add_node("a", Box::new(|_| Box::new(Pinger { peer: Some(NodeId(1)), n: 5 })));
        let victim = host.add_node("victim", Box::new(|_| Box::new(TwoStep)));
        host.schedule_fault(
            NemesisWhen::on_trace(|ev| matches!(ev.kind, TraceKind::Note("mid"))),
            FaultOp::Crash(victim),
        )
        .unwrap();
        let crashed = |t: &Trace| t.count_kind(|k| matches!(k, TraceKind::Crash)) == 1;
        assert_eq!(host.run_trace_until(Box::new(crashed)), RunOutcome::Predicate);
        host.stop();
        let survived = host.storage(victim).len(LOG_WAL);
        assert!(
            survived >= 2 && survived.is_multiple_of(2),
            "a pair was torn: {survived} records survive"
        );
    }

    // ---- the one trace ---------------------------------------------------

    /// Traces `SpecAbort { slot }` for slot 0, 1, 2, … up to `total`, 100 a
    /// turn, each turn ending in a message to itself that queues the next;
    /// notes "done" after the last.
    struct Numbered {
        next: u64,
        total: u64,
    }
    impl Process for Numbered {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if !matches!(event, Event::Init | Event::Message { .. }) {
                return;
            }
            let end = (self.next + 100).min(self.total);
            for slot in self.next..end {
                ctx.trace(TraceKind::SpecAbort { slot });
            }
            self.next = end;
            if end < self.total {
                let me = ctx.me();
                ctx.send(me, Payload::Fd(FdMsg::Heartbeat { seq: end }));
            } else {
                ctx.trace(TraceKind::Note("done"));
            }
        }
    }

    #[test]
    fn nodes_tracing_at_once_leave_one_trace_in_time_order_and_each_in_its_own() {
        const NODES: usize = 4;
        const EACH: u64 = 5_000;
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(18));
        for _ in 0..NODES {
            host.add_node("numbered", Box::new(|_| Box::new(Numbered { next: 0, total: EACH })));
        }
        // The four nodes' turns interleave on the one thread, each turn
        // tracing a hundred events.
        let done = |t: &Trace| t.count_kind(|k| *k == TraceKind::Note("done")) == NODES;
        assert_eq!(host.run_trace_until(Box::new(done)), RunOutcome::Predicate);
        host.stop();
        let events = host.trace().events();
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "the trace went back in time");
        let mut next = [0; NODES];
        for e in events {
            if let TraceKind::SpecAbort { slot } = e.kind {
                let expected = &mut next[e.node.0 as usize];
                assert_eq!(slot, *expected, "{:?} traced out of its own order", e.node);
                *expected += 1;
            }
        }
        assert_eq!(next, [EACH; NODES], "an event was lost");
    }

    /// Notes "x" at Init and once more 1 ms later.
    struct NotesTwice;
    impl Process for NotesTwice {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    ctx.trace(TraceKind::Note("x"));
                    ctx.set_timer(Dur::from_millis(1), TimerTag::CleanerTick);
                }
                Event::Timer { .. } => ctx.trace(TraceKind::Note("x")),
                _ => {}
            }
        }
    }

    /// Runs [`NotesTwice`] to its first "x" — then arms a trigger that
    /// never matches, if `beside_another` — and on to its second, then
    /// arms `OnTrace("x") → Crash` and returns the crashes.
    fn crashes_after_arming_on_a_pending_x(seed: u64, beside_another: bool) -> usize {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(seed));
        let n = host.add_node("x", Box::new(|_| Box::new(NotesTwice)));
        let xs = |t: &Trace| t.count_kind(|k| *k == TraceKind::Note("x"));
        assert_eq!(host.run_trace_until(Box::new(move |t| xs(t) >= 1)), RunOutcome::Predicate);
        if beside_another {
            host.schedule_fault(NemesisWhen::on_trace(|_| false), FaultOp::Crash(n)).unwrap();
        }
        assert_eq!(host.run_trace_until(Box::new(move |t| xs(t) >= 2)), RunOutcome::Predicate);
        let is_x = |ev: &TraceEvent| ev.kind == TraceKind::Note("x");
        host.schedule_fault(NemesisWhen::on_trace(is_x), FaultOp::Crash(n)).unwrap();
        host.quiesce_for(Dur::from_millis(20));
        host.stop();
        assert_eq!(xs(host.trace()), 2);
        host.trace().count_kind(|k| *k == TraceKind::Crash)
    }

    #[test]
    fn a_trigger_never_fires_on_an_event_traced_before_it_was_armed() {
        let crashes = crashes_after_arming_on_a_pending_x(19, false);
        assert_eq!(crashes, 0, "a trigger fired on an event traced before it was armed");
    }

    /// The pending event is offered to the trigger armed before it only.
    #[test]
    fn a_trigger_armed_beside_another_never_fires_on_an_event_pending_at_its_arming() {
        let crashes = crashes_after_arming_on_a_pending_x(21, true);
        assert_eq!(crashes, 0, "a trigger fired on an event pending when it was armed");
    }
}
