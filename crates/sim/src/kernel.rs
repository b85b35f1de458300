//! The discrete-event simulation kernel.
//!
//! One [`Sim`] hosts all processes of a run. Time is virtual; the kernel
//! pops the next scheduled action off a priority queue (ordered by time,
//! tie-broken by insertion sequence, so runs are bit-deterministic per
//! seed), dispatches it, and collects whatever the handler emits.
//! Cancelled timers leave the queue: a popped one is dropped unseen, and
//! once they are more than half of it one pass removes them all, so a
//! protocol that cancels what it no longer needs does not pay to pop it.
//!
//! Fault injection is first-class and has one entry,
//! [`Host::schedule_fault`]: crashes, pauses, cut links and partitions
//! fire immediately, after a delay, or on a trace event ("crash the owner
//! right after its first vote"), which is how the integration tests
//! enumerate the adversarial schedules of the paper's Figure 1(c)/(d) and
//! beyond. What a fault *means* is `etx_base::fault`'s to say (lowering,
//! held links, triggers); the kernel's own part is the six primitives and
//! the queue entries that carry them.

use crate::net::{sample_delivery_delay, NetConfig};
use crate::observe::{MsgStats, Trace};
use crate::rng::Rng;
use crate::storage::StableStorage;
use etx_base::config::CostModel;
use etx_base::fault::{CapabilityError, FaultOp, Links, NemesisWhen, Prim, Triggers};
use etx_base::ids::{NodeId, ResultId, TimerId};
use etx_base::metrics::SpanTotals;
use etx_base::msg::Payload;
use etx_base::runtime::{Context, Event, Host, NodeFactory, Process, TimerTag};

pub use etx_base::runtime::RunOutcome;
use etx_base::time::{Dur, Time};
use etx_base::trace::{Component, TraceEvent, TraceKind};
use etx_base::wal::StableRecord;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Kernel parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; everything random in the run derives from it.
    pub seed: u64,
    /// Network model.
    pub net: NetConfig,
    /// Environment cost constants (service times, forced-I/O cost).
    pub cost: CostModel,
    /// Hard stop: simulated time limit.
    pub max_time: Time,
    /// Hard stop: processed-event limit (guards against live-lock bugs).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            net: NetConfig::default(),
            cost: CostModel::default(),
            max_time: Time(3_600_000_000), // one simulated hour
            max_events: 50_000_000,
        }
    }
}

impl SimConfig {
    /// Config with a given seed and defaults elsewhere.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig { seed, ..SimConfig::default() }
    }
}

/// A process factory: invoked at node creation and again at every recovery
/// (volatile state is rebuilt from scratch; stable storage persists).
pub type Factory = NodeFactory;

/// A queue entry. `Fault` is a scheduled fault-plane operation, lowered
/// when it fires; `Undo` is what a bounded one left behind when it did.
enum Action {
    Init { node: NodeId },
    Deliver { from: NodeId, to: NodeId, payload: Payload, depth: u32 },
    Timer { node: NodeId, incarnation: u32, id: TimerId, tag: TimerTag, depth: u32 },
    NotifyPeer { node: NodeId, about: NodeId, up: bool },
    Fault { op: FaultOp },
    Undo { prims: Vec<Prim> },
}

/// The node an action is *delivered to* — the one whose paused state
/// gates it. A fault-plane action returns `None`: a paused node can still
/// be crashed or resumed.
fn action_target(a: &Action) -> Option<NodeId> {
    match a {
        Action::Init { node } => Some(*node),
        Action::Deliver { to, .. } => Some(*to),
        Action::Timer { node, .. } => Some(*node),
        Action::NotifyPeer { node, .. } => Some(*node),
        Action::Fault { .. } | Action::Undo { .. } => None,
    }
}

struct Entry {
    at: Time,
    seq: u64,
    action: Action,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Slot {
    name: &'static str,
    up: bool,
    paused: bool,
    incarnation: u32,
    process: Option<Box<dyn Process>>,
    factory: Factory,
    storage: StableStorage,
}

/// The simulator. See the crate docs for a usage walkthrough.
pub struct Sim {
    cfg: SimConfig,
    now: Time,
    processed: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<Entry>>,
    nodes: Vec<Slot>,
    rng: Rng,
    /// Cut links and what each holds until it heals.
    links: Links,
    trace: Trace,
    stats: MsgStats,
    /// The Figure 8 spans of every node, summed: the simulator runs one
    /// node at a time, so one accumulator is each node's own.
    spans: SpanTotals,
    timer_seq: u64,
    /// Cancelled timers not yet popped or compacted away. Ordered, not
    /// hashed: a hash set that grows and shrinks reallocates or not by
    /// where its per-process random keys put the tombstones, and a run's
    /// allocation count is gated to repeat exactly (`tests/alloc_budget.rs`).
    cancelled: BTreeSet<u64>,
    fd_subscribers: Vec<NodeId>,
    triggers: Triggers,
    /// Events popped while their target node was paused, in pop order;
    /// replayed (with fresh sequence numbers, at resume time) when the
    /// node resumes, discarded if it crashes first.
    stash: Vec<(NodeId, Action)>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("queued", &self.queue.len())
            .field("processed", &self.processed)
            .finish()
    }
}

impl Sim {
    /// Creates an empty simulation.
    pub fn new(cfg: SimConfig) -> Self {
        let rng = Rng::new(cfg.seed);
        Sim {
            cfg,
            now: Time::ZERO,
            processed: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            rng,
            links: Links::default(),
            trace: Trace::default(),
            stats: MsgStats::default(),
            spans: SpanTotals::default(),
            timer_seq: 0,
            cancelled: BTreeSet::new(),
            fd_subscribers: Vec::new(),
            triggers: Triggers::default(),
            stash: Vec::new(),
        }
    }

    /// Registers a node. Ids are assigned contiguously in registration
    /// order, matching `Topology::new` (clients, then app servers, then
    /// databases). The factory builds the process now and again at every
    /// recovery.
    pub fn add_node(&mut self, name: &'static str, mut factory: Factory) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let process = factory(id);
        self.nodes.push(Slot {
            name,
            up: true,
            paused: false,
            incarnation: 0,
            process: Some(process),
            factory,
            storage: StableStorage::new(),
        });
        self.push(Time::ZERO, Action::Init { node: id });
        id
    }

    fn push(&mut self, at: Time, action: Action) {
        self.seq += 1;
        self.queue.push(Reverse(Entry { at, seq: self.seq, action }));
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The run's trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Message statistics so far.
    pub fn stats(&self) -> &MsgStats {
        &self.stats
    }

    /// Figure 8 spans so far, per component. No span is in the trace.
    pub fn spans(&self) -> &SpanTotals {
        &self.spans
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cfg.cost
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].up
    }

    /// Read access to a node's stable storage (test assertions).
    pub fn storage(&self, node: NodeId) -> &StableStorage {
        &self.nodes[node.0 as usize].storage
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    // ---- fault injection -------------------------------------------------

    /// A fault-plane operation fires: its primitives apply at the current
    /// instant, its undo (the recovery of a bounded crash, the heals of a
    /// partition) becomes one queue entry.
    fn fire(&mut self, op: FaultOp) {
        let lowered = op.lower();
        self.apply(lowered.now);
        if let Some((after, prims)) = lowered.undo {
            self.push(self.now + after, Action::Undo { prims });
        }
    }

    fn apply(&mut self, prims: Vec<Prim>) {
        for prim in prims {
            match prim {
                Prim::Crash(n) => self.do_crash(n),
                Prim::Recover(n) => self.do_recover(n),
                Prim::Pause(n) => self.do_pause(n),
                Prim::Resume(n) => self.do_resume(n),
                Prim::CutLink { from, to } => self.links.cut(from, to),
                // What the link held goes out in send order, each with a
                // freshly sampled delay from the current instant (the
                // reliable channel's retransmission finally getting through).
                Prim::HealLink { from, to } => {
                    for (payload, depth) in self.links.heal(from, to) {
                        let at = self.now + sample_delivery_delay(&self.cfg.net, &mut self.rng);
                        self.push(at, Action::Deliver { from, to, payload, depth });
                    }
                }
            }
        }
    }

    // ---- run loop --------------------------------------------------------

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(entry)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = entry.at;
        self.processed += 1;
        // A cancelled timer goes nowhere — not to its node, not to a paused
        // node's stash, not to a stale incarnation — and frees its id.
        if matches!(&entry.action, Action::Timer { id, .. } if self.cancelled.remove(&id.0)) {
            self.scan_triggers();
            return true;
        }
        // A paused node's inputs are stashed, not dispatched — its inbox
        // keeps filling while it makes no progress (the SIGSTOP story).
        // Fault-plane actions have no target and always execute.
        if let Some(target) = action_target(&entry.action) {
            if self.nodes[target.0 as usize].paused {
                self.stash.push((target, entry.action));
                self.scan_triggers();
                return true;
            }
        }
        match entry.action {
            Action::Init { node } => self.dispatch(node, Event::Init, 0),
            Action::Deliver { from, to, payload, depth } => {
                if self.nodes[to.0 as usize].up {
                    self.dispatch(to, Event::Message { from, payload }, depth);
                } else {
                    self.stats.record_dropped_to_down();
                }
            }
            Action::Timer { node, incarnation, id, tag, depth } => {
                let slot = &self.nodes[node.0 as usize];
                if slot.up && slot.incarnation == incarnation {
                    self.dispatch(node, Event::Timer { id, tag }, depth);
                }
            }
            Action::NotifyPeer { node, about, up } => {
                if self.nodes[node.0 as usize].up {
                    let ev = if up { Event::NodeUp(about) } else { Event::NodeDown(about) };
                    self.dispatch(node, ev, 0);
                }
            }
            Action::Fault { op } => self.fire(op),
            Action::Undo { prims } => self.apply(prims),
        }
        self.scan_triggers();
        true
    }

    /// Runs until the predicate holds (checked between events), the queue
    /// drains, or a limit is hit.
    pub fn run_until(&mut self, mut pred: impl FnMut(&Sim) -> bool) -> RunOutcome {
        loop {
            if pred(self) {
                return RunOutcome::Predicate;
            }
            if self.processed >= self.cfg.max_events {
                return RunOutcome::EventLimit;
            }
            if !self.step() {
                return RunOutcome::Exhausted;
            }
            if self.now > self.cfg.max_time {
                return RunOutcome::TimeLimit;
            }
        }
    }

    /// Runs until simulated time reaches `deadline` (or the queue drains).
    pub fn run_until_time(&mut self, deadline: Time) -> RunOutcome {
        loop {
            match self.queue.peek() {
                None => return RunOutcome::Exhausted,
                Some(Reverse(e)) if e.at > deadline => {
                    self.now = deadline;
                    return RunOutcome::Predicate;
                }
                Some(_) => {}
            }
            if self.processed >= self.cfg.max_events {
                return RunOutcome::EventLimit;
            }
            self.step();
            if self.now > self.cfg.max_time {
                return RunOutcome::TimeLimit;
            }
        }
    }

    // ---- internals -------------------------------------------------------

    fn do_crash(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if !self.nodes[idx].up {
            return;
        }
        self.nodes[idx].up = false;
        self.nodes[idx].process = None;
        // A paused node can crash; its undelivered inbox dies with it.
        self.nodes[idx].paused = false;
        self.stash.retain(|(n, _)| *n != node);
        self.trace.push(TraceEvent::new(self.now, node, TraceKind::Crash));
        let detect = self.cfg.net.min_delay;
        for &s in self.fd_subscribers.clone().iter() {
            if s != node {
                self.push(
                    self.now + detect,
                    Action::NotifyPeer { node: s, about: node, up: false },
                );
            }
        }
    }

    fn do_recover(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.nodes[idx].up {
            return;
        }
        self.nodes[idx].up = true;
        self.nodes[idx].incarnation += 1;
        let process = (self.nodes[idx].factory)(node);
        self.nodes[idx].process = Some(process);
        self.trace.push(TraceEvent::new(self.now, node, TraceKind::Recover));
        self.dispatch(node, Event::Recovered, 0);
        let detect = self.cfg.net.min_delay;
        for &s in self.fd_subscribers.clone().iter() {
            if s != node {
                self.push(self.now + detect, Action::NotifyPeer { node: s, about: node, up: true });
            }
        }
    }

    fn do_pause(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if !self.nodes[idx].up || self.nodes[idx].paused {
            return;
        }
        self.nodes[idx].paused = true;
        self.trace.push(TraceEvent::new(self.now, node, TraceKind::Pause));
    }

    fn do_resume(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if !self.nodes[idx].paused {
            return;
        }
        self.nodes[idx].paused = false;
        self.trace.push(TraceEvent::new(self.now, node, TraceKind::Resume));
        // Replay everything that arrived during the pause, in arrival
        // order, at the current instant — late, like after a real SIGCONT.
        let mut replay = Vec::new();
        let mut kept = Vec::new();
        for entry in self.stash.drain(..) {
            if entry.0 == node {
                replay.push(entry.1);
            } else {
                kept.push(entry);
            }
        }
        self.stash = kept;
        for action in replay {
            self.push(self.now, action);
        }
    }

    fn dispatch(&mut self, node: NodeId, event: Event, depth: u32) {
        let idx = node.0 as usize;
        let mut process = match self.nodes[idx].process.take() {
            Some(p) => p,
            None => return, // crashed between scheduling and dispatch
        };
        let mut subscribe = false;
        {
            let slot = &mut self.nodes[idx];
            let mut ctx = SimCtx {
                now: self.now,
                me: node,
                depth,
                incarnation: slot.incarnation,
                net: &self.cfg.net,
                cost: &self.cfg.cost,
                links: &mut self.links,
                rng: &mut self.rng,
                storage: &mut slot.storage,
                trace: &mut self.trace,
                stats: &mut self.stats,
                spans: &mut self.spans,
                triggers: &mut self.triggers,
                queue: &mut self.queue,
                seq: &mut self.seq,
                timer_seq: &mut self.timer_seq,
                cancelled: &mut self.cancelled,
                subscribe: &mut subscribe,
            };
            process.on_event(&mut ctx, event);
        }
        if subscribe && !self.fd_subscribers.contains(&node) {
            self.fd_subscribers.push(node);
        }
        // The node may have crashed *during* its own handler only via
        // external scheduling, which is processed later; put it back.
        if self.nodes[idx].up {
            self.nodes[idx].process = Some(process);
        }
    }

    fn scan_triggers(&mut self) {
        for op in self.triggers.scan(self.trace.events()) {
            self.push(self.now, Action::Fault { op });
        }
    }

    /// Node name (diagnostics).
    pub fn node_name(&self, node: NodeId) -> &'static str {
        self.nodes[node.0 as usize].name
    }

    /// Read access to a live process (None while the node is crashed).
    /// Pair with [`Process::as_any`] to downcast — test/harness
    /// introspection only, never a protocol channel.
    pub fn process_ref(&self, node: NodeId) -> Option<&dyn Process> {
        self.nodes[node.0 as usize].process.as_deref()
    }
}

/// The simulator is the deterministic implementation of the runtime seam:
/// virtual clock, byte-identical replay per seed, and simulated fault
/// injection — every fault-plane operation is one queue entry
/// (`Action::Fault`) or one trace trigger that pushes one, and the undo of
/// a bounded one is one more (`Action::Undo`), so a nemesis schedule
/// replays with the run.
impl Host for Sim {
    fn add_node(&mut self, name: &'static str, factory: NodeFactory) -> NodeId {
        Sim::add_node(self, name, factory)
    }

    fn host_now(&self) -> Time {
        self.now()
    }

    fn run_trace_until(
        &mut self,
        mut pred: Box<dyn FnMut(&etx_base::trace::Trace) -> bool + '_>,
    ) -> RunOutcome {
        self.run_until(move |s| pred(s.trace()))
    }

    fn quiesce_for(&mut self, extra: Dur) {
        let deadline = self.now() + extra;
        let _ = self.run_until_time(deadline);
    }

    fn trace(&self) -> &etx_base::trace::Trace {
        Sim::trace(self)
    }

    fn with_stats(&self, f: &mut dyn FnMut(&etx_base::trace::MsgStats)) {
        f(self.stats())
    }

    fn schedule_fault(&mut self, when: NemesisWhen, op: FaultOp) -> Result<(), CapabilityError> {
        match when {
            NemesisWhen::Now => self.fire(op),
            NemesisWhen::After(d) => self.push(self.now + d, Action::Fault { op }),
            NemesisWhen::OnTrace(pred) => self.triggers.arm(self.trace.len(), pred, op),
        }
        Ok(())
    }
}

struct SimCtx<'a> {
    now: Time,
    me: NodeId,
    depth: u32,
    incarnation: u32,
    net: &'a NetConfig,
    cost: &'a CostModel,
    links: &'a mut Links,
    rng: &'a mut Rng,
    storage: &'a mut StableStorage,
    trace: &'a mut Trace,
    stats: &'a mut MsgStats,
    spans: &'a mut SpanTotals,
    triggers: &'a mut Triggers,
    queue: &'a mut BinaryHeap<Reverse<Entry>>,
    seq: &'a mut u64,
    timer_seq: &'a mut u64,
    cancelled: &'a mut BTreeSet<u64>,
    subscribe: &'a mut bool,
}

impl SimCtx<'_> {
    fn push(&mut self, at: Time, action: Action) {
        *self.seq += 1;
        self.queue.push(Reverse(Entry { at, seq: *self.seq, action }));
    }

    fn send_impl(&mut self, depth_base: u32, extra: Dur, to: NodeId, payload: Payload) {
        let background = payload.is_background();
        let depth = if background { 0 } else { depth_base + 1 };
        let depart = self.now + extra;
        self.stats.record_sent(payload.label(), background);
        // With no link cut this lookup is the fault plane's only cost: a
        // run that cuts none draws no randomness and consumes no sequence
        // number here.
        let Some(payload) = self.links.send(self.me, to, payload, depth) else {
            self.stats.record_dropped_on_link();
            return;
        };
        let delay = sample_delivery_delay(self.net, self.rng);
        self.push(depart + delay, Action::Deliver { from: self.me, to, payload, depth });
    }
}

impl Context for SimCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }

    fn me(&self) -> NodeId {
        self.me
    }

    fn set_timer(&mut self, delay: Dur, tag: TimerTag) -> TimerId {
        *self.timer_seq += 1;
        let id = TimerId(*self.timer_seq);
        let (node, incarnation, depth) = (self.me, self.incarnation, self.depth);
        self.push(self.now + delay, Action::Timer { node, incarnation, id, tag, depth });
        id
    }

    /// Once cancelled ids are more than half the queue, one pass drops every
    /// cancelled timer from it and forgets the ids. The queue is totally
    /// ordered by `(at, seq)`, so what stays pops exactly as it would have.
    fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled.insert(id.0);
        if self.cancelled.len() * 2 > self.queue.len() {
            let cancelled = &*self.cancelled;
            self.queue.retain(|Reverse(e)| {
                !matches!(e.action, Action::Timer { id, .. } if cancelled.contains(&id.0))
            });
            self.cancelled.clear();
        }
    }

    fn random_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn log_append(&mut self, log: &'static str, rec: StableRecord, forced: bool) -> Dur {
        self.storage.append(log, rec);
        if forced {
            self.rng.jitter(self.cost.log_force, self.cost.jitter)
        } else {
            Dur::ZERO
        }
    }

    fn log_read(&self, log: &'static str) -> Vec<StableRecord> {
        self.storage.read(log).to_vec()
    }

    fn trace(&mut self, kind: TraceKind) {
        self.trace.push(TraceEvent::new(self.now, self.me, kind));
    }

    /// Summed, and shown to the armed triggers, which fire on it after this
    /// step exactly as they did when spans were traced.
    fn span(&mut self, rid: ResultId, comp: Component, dur: Dur) {
        self.spans.record(comp, dur);
        if !self.triggers.is_empty() {
            let kind = TraceKind::Span { rid, comp, dur };
            self.triggers.offer(&TraceEvent::new(self.now, self.me, kind));
        }
    }

    fn depth(&self) -> u32 {
        self.depth
    }

    fn send_after_at_depth(&mut self, depth: u32, delay: Dur, to: NodeId, payload: Payload) {
        self.send_impl(depth, delay, to, payload);
    }

    fn subscribe_node_events(&mut self) {
        *self.subscribe = true;
    }
}
