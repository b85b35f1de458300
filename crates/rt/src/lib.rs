//! # etx-rt — the multi-threaded runtime backend
//!
//! Runs the *identical* protocol state machines the deterministic simulator
//! hosts, but on real hardware: a core-sized pool of worker threads
//! draining per-node inboxes, real monotonic clocks behind timers, and
//! each node's in-memory [`StableStorage`] — the simulator's type — behind
//! the same `log_append`/`log_read` contract. This is the backend that
//! turns every simulated bench figure into an honest wall-clock number —
//! commits per second on the host, not per simulated second.
//!
//! **Workers, not a thread per node.** Every node owns a *slot*: its inbox,
//! a `queued` flag and its private state behind the slot lock. A send
//! appends to the destination's inbox and, if that flips `queued`, puts the
//! node on one shared FIFO run queue; a worker pops a node, takes its slot
//! lock, fires its due timers and handles a bounded batch of its inbox. The
//! slot lock is what makes a node single-threaded — one handler per node at
//! a time, inbox order per node and therefore FIFO per link — whichever
//! worker runs it. Under load no worker parks, so a message hop is a queue
//! push, not a thread wake-up. The number of OS threads is
//! `available_parallelism()` (capped at the node count), whatever the
//! topology.
//!
//! Faults here are **real**, not simulated: the fault plane
//! ([`Host::schedule_fault`]) crashes a node by marking it down and taking
//! its state out of the slot under the slot lock — which waits out the
//! handler in flight; volatile state is dropped, the inbox cleared, the
//! stable storage survives for restart. It pauses a node by setting a flag
//! workers honour before running it (the SIGSTOP story — messages pile up,
//! timers go overdue, nothing is lost; the slot lock taken once is the
//! barrier after which no handler runs), and cuts links through a table
//! consulted on every send while any link is cut. What a fault *means* —
//! how a bounded or compound operation lowers to those primitives, what a
//! cut link holds, when a trace trigger fires — is `etx_base::fault`'s, and
//! what a node is — which crashes, recoveries, pauses and resumes apply
//! and what each records, the `(at, seq)` order of its deferred actions
//! and how they are cancelled, how an event is recorded — is
//! `etx_base::host`'s: the simulator runs the same code for all of it. The
//! §3 checker then judges the resulting trace exactly as it judges a
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
//!   seed → same per-node streams, per node and never per worker), but
//!   interleaving is the OS scheduler's. Byte-identical replay remains the
//!   simulator's job.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// Link state shared by the driver and every node. `links_active` (true
/// exactly while a link is cut) keeps the fault-free send to one relaxed
/// atomic load; past it, one mutex covers "is this link cut" and "hold
/// it", so a send cannot slip between a heal's drain and its re-injection.
#[derive(Default)]
struct FaultState {
    links_active: AtomicBool,
    links: Mutex<Links>,
}

impl FaultState {
    fn links(&self) -> MutexGuard<'_, Links> {
        self.links.lock().expect("link table lock")
    }
}

/// The shared observability sink every node writes into. A recorded event
/// goes into `pending`, what was recorded since the driver last drained
/// it ([`ThreadedHost`] owns the run's trace, and offers each drained
/// event to the armed triggers). Timestamps are taken *inside* the
/// `pending` lock from the shared monotonic epoch, and a drain appends
/// what it takes in order, so trace order and timestamp order agree
/// across the whole trace and each node's events keep its own order — the
/// property checker's happened-before comparisons hold exactly as on the
/// simulator. The buffer holds about one polling interval's events, so no
/// worker grows the run's trace under the lock.
///
/// Spans are not traced: each node sums its own. While a trace trigger is
/// armed (`offering`), a node also records each span in `pending`, for
/// the drain to offer and drop; otherwise a span takes no shared lock.
/// The flag publishes nothing but itself: a span that misses a trigger
/// armed a moment ago is one that came before the arming, as a traced
/// event just before it would be.
struct Sink {
    epoch: Instant,
    pending: Mutex<Vec<TraceEvent>>,
    offering: AtomicBool,
}

impl Sink {
    fn new() -> Self {
        Sink {
            epoch: Instant::now(),
            pending: Mutex::new(Vec::new()),
            offering: AtomicBool::new(false),
        }
    }

    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_micros() as u64)
    }

    fn pending(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        self.pending.lock().expect("trace lock")
    }

    fn push(&self, node: NodeId, kind: TraceKind) {
        let mut pending = self.pending();
        let at = self.now();
        pending.push(TraceEvent::new(at, node, kind));
    }
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

/// One node's place in the pool. Senders touch `inbox` and `queued`; the
/// node's private state sits behind `state`, a lock only the worker
/// currently running the node and the driver's fault plane ever take.
#[derive(Default)]
struct Slot {
    inbox: Mutex<VecDeque<Wire>>,
    /// The node is in the run queue or being run. Set by whoever flips it
    /// false→true (and therefore queues the node), cleared by the worker
    /// at the end of a turn, *under the slot lock* — so the fault plane,
    /// having taken that lock once, knows an earlier skipped turn cannot
    /// swallow the `enqueue` it makes next.
    queued: AtomicBool,
    /// Crashed: sends to it are dropped and counted, like the simulator's
    /// drop-to-down accounting, and no turn starts.
    down: AtomicBool,
    /// Paused by the fault plane: no turn starts, the inbox accumulates.
    paused: AtomicBool,
    /// `None` while crashed (and before `start`, and after `stop`).
    state: Mutex<Option<NodeState>>,
}

impl Slot {
    fn inbox(&self) -> MutexGuard<'_, VecDeque<Wire>> {
        self.inbox.lock().expect("inbox lock")
    }

    /// The slot lock. Handlers run inside `catch_unwind` under it, so it is
    /// not poisoned by a panicking node; it is tolerated anyway because
    /// `stop()` takes it from `Drop`, where a second panic aborts.
    fn state(&self) -> MutexGuard<'_, Option<NodeState>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fault plane wants this node to stand still. Both flags are set
    /// by the driver *before* it takes the slot lock, so a turn that reads
    /// them under that lock (Acquire, pairing with the driver's Release
    /// stores) never starts after `Crash`/`Pause` returned.
    fn halted(&self) -> bool {
        self.down.load(Ordering::Acquire) || self.paused.load(Ordering::Acquire)
    }
}

/// What a slot holds while its node is up.
struct NodeState {
    rt: NodeRt,
    process: Box<dyn Process>,
    /// `Init` or `Recovered`, delivered before anything else.
    first: Option<Event>,
    /// The part of the inbox this turn took out; empty between turns. Kept
    /// so the two buffers swap instead of reallocating.
    batch: VecDeque<Wire>,
    /// A handler panicked: recorded for `panicked_nodes()`, never run again.
    panicked: bool,
}

/// Handlers one node may run before it goes to the back of the run queue.
const TURN_BATCH: usize = 64;

impl NodeState {
    /// One scheduling turn: the first event if still owed, every deferred
    /// action due at `now`, then at most [`TURN_BATCH`] messages in inbox
    /// order. What is left of the inbox goes back in front of whatever
    /// arrived meanwhile.
    fn turn(&mut self, slot: &Slot, now: Time) {
        if let Some(first) = self.first.take() {
            self.rt.dispatch(&mut self.process, first, 0);
        }
        self.rt.fire_due(&mut self.process, now);
        std::mem::swap(&mut self.batch, &mut *slot.inbox());
        for _ in 0..TURN_BATCH {
            // At most the handler in flight completes after a crash or a
            // pause was asked for, not the rest of the batch.
            if slot.halted() {
                break;
            }
            let Some(Wire { from, payload, depth }) = self.batch.pop_front() else { break };
            self.rt.dispatch(&mut self.process, Event::Message { from, payload }, depth);
        }
        if !self.batch.is_empty() {
            let mut inbox = slot.inbox();
            self.batch.append(&mut inbox);
            std::mem::swap(&mut self.batch, &mut *inbox);
        }
    }
}

/// What the workers share about *which* node runs next and *when* an idle
/// one must be looked at again.
struct Sched {
    /// Nodes with work, FIFO.
    run: VecDeque<usize>,
    /// `(due, node)`: look at `node` at `due` because it has a deferred
    /// action then. May hold stale entries — a wake-up that finds nothing
    /// due costs one empty turn.
    wakeups: BinaryHeap<Reverse<(Time, usize)>>,
    /// Per node, the earliest wake-up still in `wakeups`; `None` once it
    /// has been served. A node re-registers only when its earliest
    /// deferred action moved before this.
    registered: Vec<Option<Time>>,
    /// Workers waiting on [`Pool::idle`].
    parked: usize,
    stopping: bool,
}

/// Everything the workers, the nodes and the driver share.
struct Pool {
    slots: Vec<Slot>,
    sched: Mutex<Sched>,
    /// Where a worker with nothing to run waits, until a node is queued or
    /// the earliest wake-up comes due.
    idle: Condvar,
    sink: Sink,
    faults: FaultState,
}

impl Pool {
    fn new(nodes: usize) -> Self {
        Pool {
            slots: (0..nodes).map(|_| Slot::default()).collect(),
            sched: Mutex::new(Sched {
                run: VecDeque::new(),
                wakeups: BinaryHeap::new(),
                registered: vec![None; nodes],
                parked: 0,
                stopping: false,
            }),
            idle: Condvar::new(),
            sink: Sink::new(),
            faults: FaultState::default(),
        }
    }

    fn sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().expect("scheduler lock")
    }

    /// The raw inbox append, past the link filter. Returns `false` when the
    /// destination is down: the message is dropped and the caller counts
    /// it, matching the simulator's drop-to-down accounting. `down` is read
    /// under the inbox lock, and a crash clears the inbox after setting it,
    /// so nothing sent to a crashed incarnation reaches the next one.
    fn push_wire(&self, to: NodeId, wire: Wire) -> bool {
        let idx = to.0 as usize;
        let Some(slot) = self.slots.get(idx) else { return true };
        {
            let mut inbox = slot.inbox();
            if slot.down.load(Ordering::Acquire) {
                return false;
            }
            inbox.push_back(wire);
        }
        self.enqueue(idx);
        true
    }

    /// Puts a node on the run queue unless it is there (or being run)
    /// already, waking a worker only if one is parked. The swap pairs with
    /// the worker's Release store at the end of a turn: whoever appended to
    /// the inbox before a swap that read `true` is seen by that worker's
    /// refill check, which follows its store.
    fn enqueue(&self, idx: usize) {
        if self.slots[idx].queued.swap(true, Ordering::AcqRel) {
            return;
        }
        let wake = {
            let mut sched = self.sched();
            sched.run.push_back(idx);
            sched.parked > 0
        };
        if wake {
            self.idle.notify_one();
        }
    }

    /// A worker's main loop.
    fn work(&self) {
        let mut done = None;
        while let Some((idx, now)) = self.next_node(done) {
            done = self.run_node(idx, now).map(|due| (idx, due));
        }
    }

    /// Registers the wake-up the turn just finished asked for, moves every
    /// due wake-up onto the run queue (on every call — so timers are served
    /// under saturation, not only when a worker runs dry) and pops the next
    /// node, parking until there is one. Returns the node and the clock
    /// reading it was picked at — the one read a turn decides by; `None`
    /// means the host is stopping.
    fn next_node(&self, done: Option<(usize, Time)>) -> Option<(usize, Time)> {
        let mut now = self.sink.now();
        let mut sched = self.sched();
        if let Some((idx, due)) = done {
            if sched.registered[idx].is_none_or(|at| due < at) {
                sched.registered[idx] = Some(due);
                sched.wakeups.push(Reverse((due, idx)));
            }
        }
        loop {
            if sched.stopping {
                return None;
            }
            while let Some(&Reverse((due, idx))) = sched.wakeups.peek() {
                if due > now {
                    break;
                }
                sched.wakeups.pop();
                // Served: a node that is mid-turn right now re-registers
                // at the end of that turn, whatever it saw of this due.
                sched.registered[idx] = None;
                if !self.slots[idx].queued.swap(true, Ordering::AcqRel) {
                    sched.run.push_back(idx);
                }
            }
            if let Some(idx) = sched.run.pop_front() {
                // More than this worker can take (wake-ups come due in
                // bunches): hand the rest to a parked one.
                let wake = !sched.run.is_empty() && sched.parked > 0;
                drop(sched);
                if wake {
                    self.idle.notify_one();
                }
                return Some((idx, now));
            }
            sched.parked += 1;
            sched = match sched.wakeups.peek() {
                Some(&Reverse((due, _))) => {
                    let wait = Duration::from_micros(due.0 - now.0);
                    self.idle.wait_timeout(sched, wait).expect("scheduler lock").0
                }
                None => self.idle.wait(sched).expect("scheduler lock"),
            };
            sched.parked -= 1;
            now = self.sink.now();
        }
    }

    /// Runs one turn of a node under its slot lock, unless the fault plane
    /// halted it, it is crashed or it has panicked. Returns the node's
    /// earliest deferred `due`, for the wake-up heap.
    fn run_node(&self, idx: usize, now: Time) -> Option<Time> {
        let slot = &self.slots[idx];
        let mut next_due = None;
        let mut ran = false;
        {
            let mut state = slot.state();
            if let Some(node) = state.as_mut().filter(|n| !n.panicked && !slot.halted()) {
                ran = true;
                // A panicking handler is the node's bug, not the pool's:
                // it must neither kill this worker nor poison the slot.
                match catch_unwind(AssertUnwindSafe(|| node.turn(slot, now))) {
                    Ok(()) => next_due = node.rt.deferred.next_at(),
                    Err(_) => node.panicked = true,
                }
            }
            slot.queued.store(false, Ordering::Release);
        }
        // Refilled while it ran (or more than a batch was waiting): back of
        // the queue. A turn that did not run re-queues nothing — `Resume`
        // and `Recover` queue the node themselves.
        if ran && !slot.inbox().is_empty() {
            self.enqueue(idx);
        }
        next_due
    }
}

/// Per-node runtime state, touched only under the node's slot lock.
struct NodeRt {
    me: NodeId,
    pool: Arc<Pool>,
    cost: CostModel,
    rng: Rng,
    storage: StableStorage,
    /// This node's sends and drops since the driver last took them into
    /// the host's totals, so no send takes a shared lock for accounting.
    stats: MsgStats,
    /// This node's Figure 8 spans, kept and taken the same way.
    spans: SpanTotals,
    deferred: TimeQueue<Deferred>,
    timer_seq: u64,
}

impl NodeRt {
    fn dispatch(&mut self, process: &mut Box<dyn Process>, event: Event, depth: u32) {
        let now = self.pool.sink.now();
        let mut ctx = ThreadCtx { rt: self, now, depth };
        process.on_event(&mut ctx, event);
    }

    /// Fires every deferred action due at `now`, in (due, seq) order.
    fn fire_due(&mut self, process: &mut Box<dyn Process>, now: Time) {
        while self.deferred.next_at().is_some_and(|due| due <= now) {
            match self.deferred.pop().expect("peeked") {
                (_, _, true) => {} // a cancelled timer
                (_, Deferred::Timer { id, tag, depth }, false) => {
                    self.dispatch(process, Event::Timer { id, tag }, depth);
                }
                (_, Deferred::Send { to, payload, depth }, false) => {
                    self.transmit(to, payload, depth)
                }
            }
        }
    }

    /// Puts a message on the destination's inbox — unless the link is cut,
    /// which holds it until the heal (see [`Links`]).
    fn transmit(&mut self, to: NodeId, mut payload: Payload, depth: u32) {
        self.stats.record_sent(payload.label(), payload.is_background());
        let faults = &self.pool.faults;
        if faults.links_active.load(Ordering::Relaxed) {
            match faults.links().send(self.me, to, payload, depth) {
                Some(whole) => payload = whole,
                None => return self.stats.record_dropped_on_link(),
            }
        }
        self.push_wire(to, payload, depth);
    }

    fn push_wire(&mut self, to: NodeId, payload: Payload, depth: u32) {
        if !self.pool.push_wire(to, Wire { from: self.me, payload, depth }) {
            self.stats.record_dropped_to_down();
        }
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
        self.rt.storage.append(log, rec);
        if forced {
            self.rt.rng.jitter(self.rt.cost.log_force, self.rt.cost.jitter)
        } else {
            Dur::ZERO
        }
    }

    fn log_read(&self, log: &'static str) -> Vec<StableRecord> {
        self.rt.storage.read(log).to_vec()
    }

    fn trace(&mut self, kind: TraceKind) {
        self.rt.pool.sink.push(self.rt.me, kind);
    }

    fn span(&mut self, rid: ResultId, comp: Component, dur: Dur) {
        self.rt.spans.record(comp, dur);
        let sink = &self.rt.pool.sink;
        if sink.offering.load(Ordering::Acquire) {
            sink.push(self.rt.me, TraceKind::Span { rid, comp, dur });
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

/// What is left of a node once its state has been taken out of its slot,
/// at a crash or at `stop()`: the process (for post-run introspection
/// through `Process::as_any`; `None` after a fault-plane crash wiped the
/// volatile state) and its stable logs (which survive crashes, per §2).
struct NodeShell {
    process: Option<Box<dyn Process>>,
    storage: StableStorage,
}

enum Phase {
    /// Nodes may still be registered; no worker exists yet.
    Building,
    /// Workers are live and processing.
    Running,
    /// Workers joined; shells available for introspection.
    Stopped,
}

/// What the driver owes at a host-clock instant. Pumped from the driver
/// thread, never from a worker — applying a crash means taking the
/// victim's slot lock, which the worker running the victim holds.
enum Due {
    /// A scheduled operation, lowered when it fires.
    Op(FaultOp),
    /// The undo a bounded operation left behind when it fired.
    Undo(Vec<Prim>),
}

/// The multi-threaded host. Register nodes, then [`ThreadedHost::start`]
/// (or let the first run call do it), run, and [`ThreadedHost::stop`] to
/// join the workers and unlock post-run introspection
/// ([`ThreadedHost::process_ref`], [`ThreadedHost::storage`]).
///
/// The driver — the thread calling these methods — owns the run's one
/// [`Trace`] and its totals. Each pass of its polling loops
/// ([`Host::run_trace_until`], [`Host::quiesce_for`]) first drains what
/// the workers recorded since the last pass, offering each event to the
/// armed triggers and keeping all but spans, then applies the faults
/// scheduled through [`Host::schedule_fault`] that are due or triggered:
/// a crash takes the victim's state out of its slot (keeping its stable
/// logs for restart), a pause gates the slot with the inbox accumulating,
/// a cut enters the link in the shared table. Arming a trace trigger and
/// [`ThreadedHost::stop`] drain too, so a trigger never sees an event
/// recorded before it was armed and a stopped host's trace is complete.
/// Whenever the driver returns to its caller it takes every live node's
/// counts and spans into its own, so [`Host::stats`] and [`Host::spans`]
/// read as of that return.
pub struct ThreadedHost {
    cfg: ThreadedConfig,
    phase: Phase,
    pending: Vec<(&'static str, NodeFactory)>,
    names: Vec<&'static str>,
    /// Factories retained across [`ThreadedHost::start`] so a crashed
    /// node can be rebuilt at recovery (volatile state from scratch).
    factories: Vec<NodeFactory>,
    pool: Arc<Pool>,
    /// `available_parallelism()` threads, capped at the node count —
    /// every OS thread this host owns.
    workers: Vec<JoinHandle<()>>,
    shells: Vec<Option<NodeShell>>,
    /// The run's message counts as of the driver's last return: taken
    /// from the live nodes then, from a crashed or stopped incarnation as
    /// it leaves its slot, plus the driver's own (re-injection at a link
    /// heal).
    stats: MsgStats,
    /// The run's Figure 8 spans, gathered the same way.
    spans: SpanTotals,
    incarnations: Vec<u32>,
    /// Each node's lifecycle state. Only the driver changes it, so it is
    /// what decides whether a fault applies; the slots' `down` / `paused`
    /// flags are what the workers read of it.
    lives: Vec<Life>,
    panicked: Vec<&'static str>,
    /// Timed faults not yet due, in scheduling order; an entry leaves
    /// when it fires.
    nemesis: Vec<(Time, Due)>,
    triggers: Triggers,
    /// The run's trace up to the last drain. Only the driver grows it, so
    /// reading it takes no lock.
    trace: Trace,
    /// The empty buffer a drain swaps in for the sink's pending one, so
    /// the two buffers' capacity is reused.
    spare: Vec<TraceEvent>,
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
            pool: Arc::new(Pool::new(0)),
            workers: Vec::new(),
            shells: Vec::new(),
            stats: MsgStats::default(),
            spans: SpanTotals::default(),
            incarnations: Vec::new(),
            lives: Vec::new(),
            panicked: Vec::new(),
            nemesis: Vec::new(),
            triggers: Triggers::default(),
            trace: Trace::default(),
            spare: Vec::new(),
        }
    }

    /// Installs every registered node in its slot with `Event::Init` owed
    /// (cross-node Init interleaving is unordered, exactly like any real
    /// deployment's staggered start) and spawns the workers.
    pub fn start(&mut self) {
        if !matches!(self.phase, Phase::Building) {
            return;
        }
        let n = self.pending.len();
        // A fresh pool also resets the epoch, so Time(0) is the moment
        // processing begins, not host construction.
        self.pool = Arc::new(Pool::new(n));
        self.pool.sink.offering.store(!self.triggers.is_empty(), Ordering::Release);
        self.incarnations = vec![0; n];
        self.lives = vec![Life::Up; n];
        self.shells = (0..n).map(|_| None).collect();
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
        for (idx, (_, mut factory)) in std::mem::take(&mut self.pending).into_iter().enumerate() {
            let me = NodeId(idx as u32);
            let rng = master.fork();
            let process = factory(me);
            self.factories.push(factory);
            self.install(me, process, StableStorage::new(), rng, Event::Init);
        }
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(n);
        self.workers = (0..workers)
            .map(|i| {
                let pool = Arc::clone(&self.pool);
                std::thread::Builder::new()
                    .name(format!("etx-worker-{i}"))
                    .spawn(move || pool.work())
                    .expect("spawn worker thread")
            })
            .collect();
        self.phase = Phase::Running;
    }

    /// Puts one node incarnation into its slot and queues it. Used at
    /// startup (with `Event::Init` and empty logs) and at fault-plane
    /// recovery (with `Event::Recovered` and the crashed incarnation's
    /// logs).
    fn install(
        &self,
        me: NodeId,
        process: Box<dyn Process>,
        storage: StableStorage,
        rng: Rng,
        first: Event,
    ) {
        let rt = NodeRt {
            me,
            pool: Arc::clone(&self.pool),
            cost: self.cfg.cost.clone(),
            rng,
            storage,
            stats: MsgStats::default(),
            spans: SpanTotals::default(),
            deferred: TimeQueue::default(),
            timer_seq: 0,
        };
        let idx = me.0 as usize;
        *self.pool.slots[idx].state() = Some(NodeState {
            rt,
            process,
            first: Some(first),
            batch: VecDeque::new(),
            panicked: false,
        });
        self.pool.enqueue(idx);
    }

    /// Keeps what survives of a node whose state left its slot: the counts
    /// and spans not yet taken always, its logs and (unless `crashed`) its
    /// process if it did not panic. Dropping the rest drops the node's
    /// handle on the pool.
    fn retire(&mut self, idx: usize, state: NodeState, crashed: bool) {
        self.stats.merge(&state.rt.stats);
        self.spans.merge(&state.rt.spans);
        if state.panicked {
            self.panicked.push(self.names[idx]);
            return;
        }
        let process = (!crashed).then_some(state.process);
        self.shells[idx] = Some(NodeShell { process, storage: state.rt.storage });
    }

    /// Stops and joins the workers (what is still queued is left
    /// unhandled) and keeps each node's final process + stable logs for
    /// introspection. Idempotent.
    ///
    /// A node that *panicked* is recorded rather than propagated —
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
        self.pool.sched.lock().unwrap_or_else(PoisonError::into_inner).stopping = true;
        self.pool.idle.notify_all();
        for worker in std::mem::take(&mut self.workers) {
            if worker.join().is_err() {
                self.panicked.push("etx-worker");
            }
        }
        // Taking every state out also breaks the pool → state → `NodeRt` →
        // pool reference cycle. Nodes crashed by the fault plane already
        // parked their shell (stable logs intact) at crash time.
        for idx in 0..self.pool.slots.len() {
            let state = self.pool.slots[idx].state().take();
            if let Some(state) = state {
                self.retire(idx, state, false);
            }
        }
        self.drain_trace();
        self.phase = Phase::Stopped;
    }

    /// Names of nodes whose handler panicked (observed when the fault
    /// plane crashed them, or at [`ThreadedHost::stop`]). A non-empty list
    /// means the run's results are untrustworthy; the harness turns it
    /// into a scenario failure.
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
    /// [`ThreadedHost::stop`] — while workers run, each process belongs to
    /// its slot.
    ///
    /// # Panics
    ///
    /// Panics if the host has not been stopped.
    pub fn process_ref(&self, node: NodeId) -> Option<&dyn Process> {
        assert!(
            self.is_stopped(),
            "threaded-host process introspection requires stop() — the workers own the \
             processes while running"
        );
        self.shells.get(node.0 as usize).and_then(|s| s.as_ref()).and_then(|s| s.process.as_deref())
    }

    /// A node's stable storage (empty for a node that panicked). Only
    /// available after [`ThreadedHost::stop`], for the same ownership
    /// reason as [`ThreadedHost::process_ref`].
    ///
    /// # Panics
    ///
    /// Panics if the host has not been stopped.
    pub fn storage(&self, node: NodeId) -> &StableStorage {
        assert!(
            self.is_stopped(),
            "threaded-host log introspection requires stop() — the workers own the logs \
             while running"
        );
        static NONE: StableStorage = StableStorage::new();
        self.shells.get(node.0 as usize).and_then(|s| s.as_ref()).map_or(&NONE, |s| &s.storage)
    }

    // ---- fault plane (driver-thread only) --------------------------------

    /// A lifecycle primitive, where [`Life::next`] says it applies, done
    /// for real. A crash or a pause is recorded after its barrier (the
    /// slot lock, which waits out the handler in flight), so it follows
    /// every event of that handler; a recovery or a resume is recorded
    /// before the node can run again, so it precedes all the node does
    /// next.
    fn transition(&mut self, node: NodeId, prim: Prim) {
        let idx = node.0 as usize;
        let Some((life, kind)) = self.lives.get(idx).and_then(|l| l.next(prim)) else {
            return;
        };
        let slot = &self.pool.slots[idx];
        match prim {
            // Marked down first: senders' messages drop from here and no
            // turn starts. Then the state is taken under the slot lock — a
            // real crash also finishes the instruction it is on. The stable
            // logs are parked for recovery; the process is dropped and the
            // inbox cleared, wiping all volatile state, exactly the §2
            // crash model.
            Prim::Crash(_) => {
                slot.down.store(true, Ordering::Release);
                let state = slot.state().take();
                slot.inbox().clear();
                if let Some(state) = state {
                    self.retire(idx, state, true);
                }
                self.pool.sink.push(node, kind);
            }
            // A fresh process from the retained factory over the crashed
            // incarnation's stable logs, `Event::Recovered` first. (Nothing
            // sent while it was down reaches it: those sends were dropped at
            // the inbox.) A node that panicked left no shell: nothing
            // coherent to restart, so it stays down.
            Prim::Recover(_) => {
                let Some(shell) = self.shells[idx].take() else { return };
                self.incarnations[idx] += 1;
                let process = (self.factories[idx])(node);
                // Fresh deterministic stream per incarnation: same master
                // seed + node + incarnation → same stream, never a replay of
                // the pre-crash one.
                let rng = Rng::new(
                    self.cfg.seed ^ ((idx as u64) << 32) ^ u64::from(self.incarnations[idx]),
                );
                self.pool.sink.push(node, kind);
                slot.paused.store(false, Ordering::Release);
                slot.down.store(false, Ordering::Release);
                self.install(node, process, shell.storage, rng, Event::Recovered);
            }
            // No turn of it starts from here, inbox accumulating, timers
            // going overdue — SIGSTOP semantics without the signal. Past
            // the barrier, the handler that was in flight is done and none
            // runs until `Resume`.
            Prim::Pause(_) => {
                slot.paused.store(true, Ordering::Release);
                drop(slot.state());
                self.pool.sink.push(node, kind);
            }
            // Queued again, it fires every overdue timer and drains the
            // accumulated inbox — late, as after a real SIGCONT. A worker
            // that found the node paused clears `queued` under the slot
            // lock; past this barrier the enqueue cannot be lost.
            Prim::Resume(_) => {
                self.pool.sink.push(node, kind);
                slot.paused.store(false, Ordering::Release);
                drop(slot.state());
                self.pool.enqueue(idx);
            }
            Prim::CutLink { .. } | Prim::HealLink { .. } => return,
        }
        self.lives[idx] = life;
    }

    /// A scheduled entry fires: an operation is lowered, its primitives
    /// apply now and its undo is owed `after` from now. Driver-thread
    /// only: a crash takes the victim's slot lock, and must never run
    /// while holding the trace lock (the victim may be blocked on it
    /// mid-handler).
    fn fire(&mut self, due: Due) {
        let prims = match due {
            Due::Undo(prims) => prims,
            Due::Op(op) => {
                let lowered = op.lower();
                if let Some((after, undo)) = lowered.undo {
                    self.nemesis.push((self.pool.sink.now() + after, Due::Undo(undo)));
                }
                lowered.now
            }
        };
        for prim in prims {
            match prim {
                Prim::Crash(n) | Prim::Recover(n) | Prim::Pause(n) | Prim::Resume(n) => {
                    self.transition(n, prim)
                }
                Prim::CutLink { from, to } => {
                    let mut links = self.pool.faults.links();
                    links.cut(from, to);
                    self.pool.faults.links_active.store(true, Ordering::Relaxed);
                }
                // Re-injected under the table lock and before the flag
                // clears, so a later send on the link queues behind what
                // the link held (FIFO per link survives the cut). A
                // destination that crashed meanwhile still loses them,
                // with the usual drop-to-down accounting.
                Prim::HealLink { from, to } => {
                    let mut links = self.pool.faults.links();
                    for (payload, depth) in links.heal(from, to) {
                        if !self.pool.push_wire(to, Wire { from, payload, depth }) {
                            self.stats.record_dropped_to_down();
                        }
                    }
                    self.pool.faults.links_active.store(!links.is_empty(), Ordering::Relaxed);
                }
            }
        }
    }

    /// Records what the workers pushed since the last drain, in order
    /// (see [`record`]). The sink's lock is held for one buffer swap.
    fn drain_trace(&mut self) {
        std::mem::swap(&mut self.spare, &mut *self.pool.sink.pending());
        for ev in self.spare.drain(..) {
            record(&mut self.trace, &mut self.triggers, ev);
        }
    }

    /// Drains the trace, then fires every triggered and every due nemesis
    /// entry. Called from the driver's polling loops
    /// ([`Host::run_trace_until`], [`Host::quiesce_for`]). What fired is
    /// applied with no sink lock held (a crash waits for the victim's
    /// handler, which may itself be waiting on that lock).
    fn pump_nemesis(&mut self) {
        self.drain_trace();
        let mut fired: Vec<Due> = self.triggers.fired().into_iter().map(Due::Op).collect();
        if !fired.is_empty() && self.triggers.is_empty() {
            self.pool.sink.offering.store(false, Ordering::Release);
        }
        let now = self.pool.sink.now();
        fired.extend(self.nemesis.extract_if(.., |(at, _)| *at <= now).map(|(_, due)| due));
        for due in fired {
            self.fire(due);
        }
    }

    /// A copy of the trace collected so far: the drained trace
    /// ([`Host::trace`]) plus what the workers traced since the last drain.
    /// Like the drained trace, it holds no span.
    pub fn trace_snapshot(&self) -> Trace {
        let (mut trace, mut unarmed) = (self.trace.clone(), Triggers::default());
        for ev in self.pool.sink.pending().iter() {
            record(&mut trace, &mut unarmed, ev.clone());
        }
        trace
    }

    /// Takes every live node's counts and spans into the host's totals,
    /// each under its slot lock, leaving the node's empty: what a node
    /// counted is in the totals once, whenever it is taken.
    fn fold_totals(&mut self) {
        for slot in &self.pool.slots {
            if let Some(node) = slot.state().as_mut() {
                self.stats.merge(&std::mem::take(&mut node.rt.stats));
                self.spans.merge(&std::mem::take(&mut node.rt.spans));
            }
        }
    }
}

impl Drop for ThreadedHost {
    fn drop(&mut self) {
        self.stop();
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
        self.pool.sink.now()
    }

    fn run_trace_until(&mut self, mut pred: Box<dyn FnMut(&Trace) -> bool + '_>) -> RunOutcome {
        self.start();
        let poll = Duration::from_micros(200);
        let outcome = loop {
            // The nemesis is pumped here, on the driver thread — a crash
            // takes the victim's slot lock, which a worker in the middle
            // of that node's handler could never do. The pump drains the
            // trace first, so the predicate reads it without a lock.
            self.pump_nemesis();
            if pred(&self.trace) {
                break RunOutcome::Predicate;
            }
            // The wall-clock watchdog: a paused or wedged node must turn
            // into a diagnosable timeout, never a hung test run.
            if self.pool.sink.epoch.elapsed() > self.cfg.wall_limit {
                break RunOutcome::TimeLimit;
            }
            std::thread::sleep(poll);
        };
        self.fold_totals();
        outcome
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
                break;
            }
            std::thread::sleep(remaining.min(Duration::from_millis(1)));
        }
        self.fold_totals();
    }

    /// The run's trace as of the driver's last drain;
    /// [`ThreadedHost::trace_snapshot`] adds what is still pending.
    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn stats(&self) -> &MsgStats {
        &self.stats
    }

    fn spans(&self) -> &SpanTotals {
        &self.spans
    }

    fn schedule_fault(&mut self, when: NemesisWhen, op: FaultOp) -> Result<(), CapabilityError> {
        if matches!(self.phase, Phase::Stopped) {
            return Err(CapabilityError::new("threaded (stopped)", op.label()));
        }
        // Before start() there is no node to fault and the clock reads
        // from the run's epoch: `Now` waits for `start()` or the first pump.
        let running = matches!(self.phase, Phase::Running);
        let now = if running { self.pool.sink.now() } else { Time::ZERO };
        match when {
            NemesisWhen::Now if running => self.fire(Due::Op(op)),
            NemesisWhen::Now => self.nemesis.push((now, Due::Op(op))),
            NemesisWhen::After(d) => self.nemesis.push((now + d, Due::Op(op))),
            NemesisWhen::OnTrace(pred) => {
                // Drained first: what was recorded before the trigger
                // existed is offered only to the triggers armed before it.
                self.drain_trace();
                self.pool.sink.offering.store(true, Ordering::Release);
                self.triggers.arm(pred, op);
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
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

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
        {
            let state = host.pool.slots[0].state();
            let rt = &state.as_ref().expect("the node is up").rt;
            assert_eq!(rt.deferred.len(), 1, "the cancels compacted the queue to the live timer");
            assert_eq!(rt.deferred.pending_cancels(), 0, "and forgot their ids");
        }
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
        host.start();
        assert!(!host.pool.sink.offering.load(Ordering::Acquire));
        // No pump runs while waiting, so nothing drains the sink: a span
        // pushed for nobody would still be pending behind its note.
        while charged(&host.trace_snapshot()) < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let is_span = |ev: &&TraceEvent| matches!(ev.kind, TraceKind::Span { .. });
        let spanned = host.pool.sink.pending().iter().filter(is_span).count();
        assert_eq!(spanned, 0, "a span took the shared lock for nobody");
        assert_eq!(host.run_trace_until(Box::new(|t| charged(t) == 3)), RunOutcome::Predicate);
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
        assert!(!host.pool.sink.offering.load(Ordering::Acquire), "fired: nothing left armed");
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

    // ---- what the pool must never break ----------------------------------
    //
    // The thread-per-node loop satisfied these by owning one thread per
    // node; a pool has to earn them.

    fn idle() -> Box<dyn Process> {
        Box::new(Pinger { peer: None, n: 0 })
    }

    #[test]
    fn the_host_owns_one_thread_per_core_not_per_node() {
        let mut host = ThreadedHost::new(ThreadedConfig::default());
        for _ in 0..16 {
            host.add_node("idle", Box::new(|_| idle()));
        }
        host.start();
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(host.workers.len(), cores.min(16));
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
        assert!(host.pool.faults.links_active.load(Ordering::Relaxed));
        host.schedule_fault(NemesisWhen::Now, FaultOp::HealLink { from: a, to: b }).unwrap();
        assert!(
            !host.pool.faults.links_active.load(Ordering::Relaxed),
            "an empty link table must not cost every send a mutex"
        );
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
        host.start();
        // Two workers at least, whatever the affinity mask allows, so the
        // nodes really do trace at the same time.
        while host.workers.len() < 2 {
            let pool = Arc::clone(&host.pool);
            host.workers.push(std::thread::spawn(move || pool.work()));
        }
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
        assert_eq!(host.trace_snapshot().events(), events, "stop() left events pending");
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

    /// Runs [`NotesTwice`] to its first "x", then arms `OnTrace("x") →
    /// Crash` while the second is still pending — after arming a trigger
    /// that never matches, if `beside_another` — and returns the crashes.
    fn crashes_after_arming_on_a_pending_x(seed: u64, beside_another: bool) -> usize {
        let mut host = ThreadedHost::new(ThreadedConfig::with_seed(seed));
        let n = host.add_node("x", Box::new(|_| Box::new(NotesTwice)));
        let xs = |t: &Trace| t.count_kind(|k| *k == TraceKind::Note("x"));
        assert_eq!(host.run_trace_until(Box::new(move |t| xs(t) >= 1)), RunOutcome::Predicate);
        if beside_another {
            host.schedule_fault(NemesisWhen::on_trace(|_| false), FaultOp::Crash(n)).unwrap();
        }
        // The second "x" is traced meanwhile, and with no pump it is still
        // pending when the trigger is armed.
        while xs(&host.trace_snapshot()) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
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
