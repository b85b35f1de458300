//! The event kernel: one host for every process of a run, on either of two
//! clocks.
//!
//! A [`Kernel`] keeps one [`TimeQueue`] of every action of the run —
//! deliveries, timers, crash-oracle notices, timed faults and their undos
//! — and pops it by the key `(at, seq)`: by instant, ties by the sequence
//! number the queue issued at the push, cancelled timers unseen. Each pop
//! is one *step*: the action is dispatched to its node (or stashed, if the
//! node is paused, until it resumes), whatever the handler emits is queued
//! at once — a send when it is made, so a message in service outlives a
//! sender that crashes before it leaves — and the faults of the trace
//! triggers the step hit apply at the step's end, before anything else
//! runs. One seeded RNG serves every node, and every process is built
//! when its node is added.
//!
//! **Mailboxes.** A background send (a heartbeat) to a node whose last
//! event left it inert ([`Process::background_inert`]) skips the queue:
//! it draws its link delay as any send does, reserves its sequence number
//! from the queue, and waits in the node's mailbox under that key. Three
//! rules keep the run what it would have been with every heartbeat
//! queued:
//!
//! * **Draining.** Before anything pops for a node, and before a
//!   lifecycle transition applies to it, every held delivery whose key is
//!   below the key of the current step (the last pop) is handled, in key
//!   order, as a step would have: absorbed at the clock's reading for its
//!   instant if the node is up ([`Process::absorb`], which gets no
//!   [`Context`] and so cannot emit), stashed if it is paused. Each counts
//!   as a processed event, not as a handler run ([`Kernel::runs`]). Being
//!   inert, the node would have emitted nothing then either, so nothing
//!   else in the run can tell that it came late; a debug build asserts
//!   that the node is still inert after each one.
//! * **Moving back.** A dispatch that leaves the node no longer inert, or
//!   a crash, puts what its mailbox still holds into the queue under the
//!   held keys.
//! * **Queue order.** Those keys are the queue's own, so a delivery moved
//!   back pops exactly where it would have.
//!
//! A run that stops (at a deadline, a predicate or a limit) leaves what
//! its mailboxes hold unhandled, and [`Kernel::processed`] lower by that
//! much; what was due by a deadline is handed over before anything that
//! is scheduled from there. The queue being shorter, its more-than-half
//! rule may drop cancelled timers at other cancels, which moves that
//! count too, and nothing a process sees. A run whose queue runs dry stops without
//! handing over what is held, at the last pop's instant rather than the
//! last held one; an application server, the one process that promises
//! to be inert, keeps its detector tick queued while it is up, so its
//! runs do not end that way unless every server is paused and nothing
//! else is queued.
//!
//! The [`Clock`] decides the rest:
//!
//! * **`now`.** On the [`Virtual`] clock a step runs at the popped
//!   entry's instant, so a run is a pure function of its seed. On the
//!   wall clock (`etx-rt`'s `ThreadedHost`) it runs at the time since
//!   the run's epoch, read before the pop.
//! * **Link delay.** The virtual clock samples each transmission's delay
//!   from [`NetConfig`] (latency plus a retransmission gap per lost
//!   attempt); the wall clock adds none, so a message is due when it is
//!   sent.
//! * **Waiting.** The virtual clock jumps to the next entry. The wall
//!   clock pops what is due and otherwise sleeps until the next entry or
//!   the run's deadline; a timed fault is a queue entry on both.
//! * **Limits.** The virtual run loops stop at [`SimConfig::max_time`]
//!   and [`SimConfig::max_events`], or when the queue drains. A wall-clock
//!   run stops at its wall-clock watchdog.
//!
//! So the wall clock runs no per-node turns (a node's messages are not
//! batched; entries pop in the same global order as on the simulator),
//! draws from no per-node RNG streams (the one stream is drawn in step
//! order, which the wall clock's readings decide), and its crash oracle
//! ([`Context::subscribe_node_events`]) fires as the simulator's does.
//!
//! Fault injection has one entry, [`Kernel::schedule`] (the hosts'
//! [`Host::schedule_fault`]): crashes, pauses, cut links and partitions
//! fire immediately, after a delay, or on a trace event ("crash the owner
//! right after its first vote"), which is how the integration tests
//! enumerate the adversarial schedules of the paper's Figure 1(c)/(d) and
//! beyond. What a fault *means* is `etx_base::fault`'s to say (lowering,
//! held links, triggers), and what a node is — its lifecycle, its stable
//! storage, its timers, how its events are recorded — is
//! `etx_base::host`'s.

use crate::net::{sample_delivery_delay, NetConfig};
use crate::rng::Rng;
use etx_base::config::CostModel;
use etx_base::fault::{CapabilityError, FaultOp, Links, NemesisWhen, Prim, Triggers};
use etx_base::host::{record, Life, TimeQueue, Timed};
use etx_base::ids::{NodeId, ResultId, TimerId};
use etx_base::metrics::SpanTotals;
use etx_base::msg::{FdMsg, Payload};
use etx_base::runtime::{Context, Event, Host, NodeFactory, Process, TimerTag};

pub use etx_base::runtime::RunOutcome;
use etx_base::time::{Dur, Time};
use etx_base::trace::{Component, MsgStats, Trace, TraceEvent, TraceKind};
use etx_base::wal::{StableRecord, StableStorage};

/// What a kernel's clock decides: when a step runs and how long a
/// transmission takes.
pub trait Clock {
    /// The instant a step that popped an entry due at `at` runs at.
    fn now(&self, at: Time) -> Time;

    /// The delay of one transmission over a link.
    fn link_delay(&self, net: &NetConfig, rng: &mut Rng) -> Dur;
}

/// The simulator's clock: a step runs at its entry's instant, and every
/// transmission draws its delay from the network model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Virtual;

impl Clock for Virtual {
    fn now(&self, at: Time) -> Time {
        at
    }

    fn link_delay(&self, net: &NetConfig, rng: &mut Rng) -> Dur {
        sample_delivery_delay(net, rng)
    }
}

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

impl Timed for Action {
    fn timer(&self) -> Option<TimerId> {
        match self {
            Action::Timer { id, .. } => Some(*id),
            _ => None,
        }
    }
}

/// A background delivery held in its receiver's mailbox, under the key
/// the queue would have popped it by. Background traffic is the failure
/// detector's ([`Payload::is_background`]), so it keeps just the message.
struct Mail {
    at: Time,
    seq: u64,
    from: NodeId,
    msg: FdMsg,
}

impl Mail {
    /// The queue entry it would have been, a delivery to `to`.
    fn action(self, to: NodeId) -> Action {
        Action::Deliver { from: self.from, to, payload: Payload::Fd(self.msg), depth: 0 }
    }
}

/// One node's mailbox: whether its last event left it inert, and what it
/// holds, by key.
#[derive(Default)]
struct Mailbox {
    inert: bool,
    held: Vec<Mail>,
}

struct Slot {
    name: &'static str,
    life: Life,
    incarnation: u32,
    process: Option<Box<dyn Process>>,
    factory: NodeFactory,
    storage: StableStorage,
}

/// The event kernel over clock `C`. See the module docs.
pub struct Kernel<C> {
    clock: C,
    cfg: SimConfig,
    now: Time,
    processed: u64,
    /// Steps: entries popped from the queue.
    pops: u64,
    /// Handler runs: [`Process::on_event`] calls.
    runs: u64,
    queue: TimeQueue<Action>,
    /// The key of the last pop (or past a quiesce's deadline): a held
    /// delivery below it is one the queue would have handed over already.
    cursor: (Time, u64),
    nodes: Vec<Slot>,
    /// Each node's mailbox, by node id.
    mail: Vec<Mailbox>,
    rng: Rng,
    /// Cut links and what each holds until it heals.
    links: Links,
    trace: Trace,
    stats: MsgStats,
    /// The Figure 8 spans of every node, summed: the kernel runs one
    /// node at a time, so one accumulator is each node's own.
    spans: SpanTotals,
    fd_subscribers: Vec<NodeId>,
    /// Offered every event as it is recorded; what it hit fires at the
    /// end of the step.
    triggers: Triggers,
    /// Events popped while their target node was paused, in pop order;
    /// replayed (with fresh sequence numbers, at resume time) when the
    /// node resumes, discarded if it crashes first.
    stash: Vec<(NodeId, Action)>,
}

/// The deterministic simulator: the kernel on the virtual clock. See the
/// crate docs for a usage walkthrough.
pub type Sim = Kernel<Virtual>;

impl<C> std::fmt::Debug for Kernel<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
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
        Kernel::with_clock(cfg, Virtual)
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
    /// Reaching it, it stands there: held deliveries due by then count as
    /// handed over.
    pub fn run_until_time(&mut self, deadline: Time) -> RunOutcome {
        match self.run_until(|s| s.queue.next_at().is_none_or(|at| at > deadline)) {
            RunOutcome::Predicate if self.queue.is_empty() => RunOutcome::Exhausted,
            RunOutcome::Predicate => {
                self.now = deadline;
                self.cursor = self.cursor.max((deadline, u64::MAX));
                RunOutcome::Predicate
            }
            out => out,
        }
    }
}

impl<C: Clock> Kernel<C> {
    /// Creates an empty kernel on `clock`.
    pub fn with_clock(cfg: SimConfig, clock: C) -> Self {
        let rng = Rng::new(cfg.seed);
        Kernel {
            clock,
            cfg,
            now: Time::ZERO,
            processed: 0,
            pops: 0,
            runs: 0,
            queue: TimeQueue::default(),
            cursor: (Time::ZERO, 0),
            nodes: Vec::new(),
            mail: Vec::new(),
            rng,
            links: Links::default(),
            trace: Trace::default(),
            stats: MsgStats::default(),
            spans: SpanTotals::default(),
            fd_subscribers: Vec::new(),
            triggers: Triggers::default(),
            stash: Vec::new(),
        }
    }

    /// The clock.
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// The clock, to move it (the wall clock's reading).
    pub fn clock_mut(&mut self) -> &mut C {
        &mut self.clock
    }

    /// Registers a node. Ids are assigned contiguously in registration
    /// order, matching `Topology::new` (clients, then app servers, then
    /// databases). The factory builds the process now and again at every
    /// recovery; its `Init` is queued at the current instant.
    pub fn add_node(&mut self, name: &'static str, mut factory: NodeFactory) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let process = factory(id);
        self.mail.push(Mailbox { inert: process.background_inert(), ..Mailbox::default() });
        self.nodes.push(Slot {
            name,
            life: Life::Up,
            incarnation: 0,
            process: Some(process),
            factory,
            storage: StableStorage::new(),
        });
        self.queue.push(self.now, Action::Init { node: id });
        id
    }

    /// The instant of the last step (or of the last [`Kernel::advance`]).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Moves the kernel's instant forward to `to` (never back), so that
    /// what is scheduled from outside a step counts from there: the wall
    /// clock's reading between two steps.
    pub fn advance(&mut self, to: Time) {
        self.now = self.now.max(to);
    }

    /// When the earliest queued entry is due.
    pub fn next_at(&self) -> Option<Time> {
        self.queue.next_at()
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

    /// Whether a node is currently up (running or paused).
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].life != Life::Down
    }

    /// Read access to a node's stable storage (test assertions).
    pub fn storage(&self, node: NodeId) -> &StableStorage {
        &self.nodes[node.0 as usize].storage
    }

    /// Number of events processed so far: every step, and every held
    /// delivery handed over.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of steps so far: entries popped from the queue.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Number of handler runs so far: [`Process::on_event`] calls. A held
    /// delivery absorbed is not one.
    pub fn runs(&self) -> u64 {
        self.runs
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

    // ---- fault injection -------------------------------------------------

    /// Schedules one fault-plane operation: `Now` fires it at the current
    /// instant (with whatever triggers its events hit), `After` queues it,
    /// `OnTrace` arms a trigger that fires it at the end of the step that
    /// records the first matching event.
    pub fn schedule(&mut self, when: NemesisWhen, op: FaultOp) {
        match when {
            NemesisWhen::Now => {
                self.fire(op);
                self.fire_triggers();
            }
            NemesisWhen::After(d) => self.queue.push(self.now + d, Action::Fault { op }),
            NemesisWhen::OnTrace(pred) => self.triggers.arm(pred, op),
        }
    }

    /// A fault-plane operation fires: its primitives apply at the current
    /// instant, its undo (the recovery of a bounded crash, the heals of a
    /// partition) becomes one queue entry.
    fn fire(&mut self, op: FaultOp) {
        let lowered = op.lower();
        self.apply(lowered.now);
        if let Some((after, prims)) = lowered.undo {
            self.queue.push(self.now + after, Action::Undo { prims });
        }
    }

    fn apply(&mut self, prims: Vec<Prim>) {
        for prim in prims {
            match prim {
                Prim::Crash(n) | Prim::Recover(n) | Prim::Pause(n) | Prim::Resume(n) => {
                    self.transition(n, prim)
                }
                Prim::CutLink { from, to } => self.links.cut(from, to),
                // What the link held goes out in send order, each with a
                // fresh link delay from the current instant (the reliable
                // channel's retransmission finally getting through).
                Prim::HealLink { from, to } => {
                    for (payload, depth) in self.links.heal(from, to) {
                        let at = self.now + self.clock.link_delay(&self.cfg.net, &mut self.rng);
                        self.queue.push(at, Action::Deliver { from, to, payload, depth });
                    }
                }
            }
        }
    }

    /// Fires the faults of the triggers hit since the last call, in
    /// arming order, then those that their own events hit, until none is
    /// left.
    fn fire_triggers(&mut self) {
        while self.triggers.hit() {
            for op in self.triggers.fired() {
                self.fire(op);
            }
        }
    }

    // ---- the step --------------------------------------------------------

    /// Pops the earliest entry and handles it at the instant the clock
    /// gives it. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, seq, action, cancelled)) = self.queue.pop() else {
            return false;
        };
        let now = self.clock.now(at);
        debug_assert!(now >= self.now, "time went backwards");
        self.now = now;
        self.cursor = (at, seq);
        self.processed += 1;
        self.pops += 1;
        // A cancelled timer goes nowhere — not to its node, not to a paused
        // node's stash, not to a stale incarnation.
        if cancelled {
            return true;
        }
        // A paused node's inputs are stashed, not dispatched — its inbox
        // keeps filling while it makes no progress (the SIGSTOP story).
        // Fault-plane actions have no target and always execute.
        if let Some(target) = action_target(&action) {
            self.drain(target);
            if self.nodes[target.0 as usize].life == Life::Paused {
                self.stash.push((target, action));
                return true;
            }
        }
        match action {
            Action::Init { node } => self.dispatch(node, Event::Init, 0),
            Action::Deliver { from, to, payload, depth } => {
                if self.is_up(to) {
                    self.dispatch(to, Event::Message { from, payload }, depth);
                } else {
                    self.stats.record_dropped_to_down();
                }
            }
            Action::Timer { node, incarnation, id, tag, depth } => {
                if self.is_up(node) && self.nodes[node.0 as usize].incarnation == incarnation {
                    self.dispatch(node, Event::Timer { id, tag }, depth);
                }
            }
            Action::NotifyPeer { node, about, up } => {
                if self.is_up(node) {
                    let ev = if up { Event::NodeUp(about) } else { Event::NodeDown(about) };
                    self.dispatch(node, ev, 0);
                }
            }
            Action::Fault { op } => self.fire(op),
            Action::Undo { prims } => self.apply(prims),
        }
        self.fire_triggers();
        true
    }

    /// Hands `node`, in key order, every delivery its mailbox holds below
    /// the current step's key, each as [`Kernel::step`] would have at its
    /// own instant.
    fn drain(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        let cursor = self.cursor;
        let held = &mut self.mail[idx].held;
        let due = held.iter().take_while(|m| (m.at, m.seq) < cursor).count();
        if due == 0 {
            return;
        }
        self.processed += due as u64;
        let slot = &mut self.nodes[idx];
        match slot.life {
            Life::Paused => self.stash.extend(held.drain(..due).map(|m| (node, m.action(node)))),
            Life::Down => {
                held.drain(..due).for_each(|_| self.stats.record_dropped_to_down());
            }
            Life::Up => {
                let process = slot.process.as_mut().expect("an up node has its process");
                for mail in held.drain(..due) {
                    process.absorb(self.clock.now(mail.at), mail.from, &mail.msg);
                    debug_assert!(process.background_inert(), "{node} stopped being inert");
                }
            }
        }
    }

    /// Notes whether `node`'s last event left it inert (a down node is
    /// not); if not, what its mailbox holds goes into the queue under the
    /// held keys.
    fn settle(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        let inert = self.nodes[idx].process.as_ref().is_some_and(|p| p.background_inert());
        let mailbox = &mut self.mail[idx];
        mailbox.inert = inert;
        if !inert && !mailbox.held.is_empty() {
            for mail in mailbox.held.drain(..) {
                self.queue.push_at(mail.at, mail.seq, mail.action(node));
            }
        }
    }

    /// A lifecycle primitive, where [`Life::next`] says it applies: the
    /// node's new state, its record, then what the kernel makes of it.
    fn transition(&mut self, node: NodeId, prim: Prim) {
        let idx = node.0 as usize;
        let Some((life, kind)) = self.nodes[idx].life.next(prim) else {
            return;
        };
        self.drain(node);
        self.nodes[idx].life = life;
        record(&mut self.trace, &mut self.triggers, TraceEvent::new(self.now, node, kind));
        match prim {
            // A paused node's undelivered inbox dies with it.
            Prim::Crash(_) => {
                self.nodes[idx].process = None;
                self.stash.retain(|(n, _)| *n != node);
                self.settle(node);
                self.notify_subscribers(node, false);
            }
            Prim::Recover(_) => {
                let slot = &mut self.nodes[idx];
                slot.incarnation += 1;
                slot.process = Some((slot.factory)(node));
                self.dispatch(node, Event::Recovered, 0);
                self.notify_subscribers(node, true);
            }
            // Replay everything that arrived during the pause, in arrival
            // order, at the current instant — late, like after a real SIGCONT.
            Prim::Resume(_) => {
                for (_, action) in self.stash.extract_if(.., |(n, _)| *n == node) {
                    self.queue.push(self.now, action);
                }
            }
            _ => {}
        }
    }

    /// Tells every subscriber but `about` itself that it went down or up,
    /// one minimum network delay from now (the perfect-FD oracle).
    fn notify_subscribers(&mut self, about: NodeId, up: bool) {
        let at = self.now + self.cfg.net.min_delay;
        for &s in &self.fd_subscribers {
            if s != about {
                self.queue.push(at, Action::NotifyPeer { node: s, about, up });
            }
        }
    }

    /// Runs `node`'s handler for `event` now, then notes whether that left
    /// it inert.
    fn dispatch(&mut self, node: NodeId, event: Event, depth: u32) {
        self.run(node, self.now, event, depth);
        self.settle(node);
    }

    /// Runs `node`'s handler for `event` at `now`.
    fn run(&mut self, node: NodeId, now: Time, event: Event, depth: u32) {
        let idx = node.0 as usize;
        let mut process = match self.nodes[idx].process.take() {
            Some(p) => p,
            None => return, // crashed between scheduling and dispatch
        };
        self.runs += 1;
        let mut subscribe = false;
        {
            let slot = &mut self.nodes[idx];
            let mut ctx = Ctx {
                now,
                me: node,
                depth,
                incarnation: slot.incarnation,
                clock: &self.clock,
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
                mail: &mut self.mail,
                subscribe: &mut subscribe,
            };
            process.on_event(&mut ctx, event);
        }
        if subscribe && !self.fd_subscribers.contains(&node) {
            self.fd_subscribers.push(node);
        }
        // The node may have crashed *during* its own handler only via
        // external scheduling, which is processed later; put it back.
        if self.is_up(node) {
            self.nodes[idx].process = Some(process);
        }
    }
}

/// The simulator is the deterministic implementation of the runtime seam:
/// virtual clock, byte-identical replay per seed, and simulated fault
/// injection — every fault-plane operation is one queue entry
/// (`Action::Fault`) or one trace trigger that fires at the end of the
/// step that hit it, and the undo of a bounded one is one more queue
/// entry (`Action::Undo`), so a nemesis schedule replays with the run.
impl Host for Sim {
    fn add_node(&mut self, name: &'static str, factory: NodeFactory) -> NodeId {
        Kernel::add_node(self, name, factory)
    }

    fn host_now(&self) -> Time {
        self.now()
    }

    fn run_trace_until(&mut self, mut pred: Box<dyn FnMut(&Trace) -> bool + '_>) -> RunOutcome {
        self.run_until(move |s| pred(s.trace()))
    }

    fn quiesce_for(&mut self, extra: Dur) {
        let deadline = self.now() + extra;
        let _ = self.run_until_time(deadline);
    }

    fn trace(&self) -> &Trace {
        Kernel::trace(self)
    }

    fn stats(&self) -> &MsgStats {
        Kernel::stats(self)
    }

    fn spans(&self) -> &SpanTotals {
        Kernel::spans(self)
    }

    fn schedule_fault(&mut self, when: NemesisWhen, op: FaultOp) -> Result<(), CapabilityError> {
        self.schedule(when, op);
        Ok(())
    }
}

/// The `Context` a handler gets: everything it may touch, borrowed from
/// the kernel for the one step.
struct Ctx<'a, C> {
    now: Time,
    me: NodeId,
    depth: u32,
    incarnation: u32,
    clock: &'a C,
    net: &'a NetConfig,
    cost: &'a CostModel,
    links: &'a mut Links,
    rng: &'a mut Rng,
    storage: &'a mut StableStorage,
    trace: &'a mut Trace,
    stats: &'a mut MsgStats,
    spans: &'a mut SpanTotals,
    triggers: &'a mut Triggers,
    queue: &'a mut TimeQueue<Action>,
    mail: &'a mut [Mailbox],
    subscribe: &'a mut bool,
}

impl<C: Clock> Context for Ctx<'_, C> {
    fn now(&self) -> Time {
        self.now
    }

    fn me(&self) -> NodeId {
        self.me
    }

    /// The queue numbers the timer: its id names the slot it waits in,
    /// which is how a cancel finds it.
    fn set_timer(&mut self, delay: Dur, tag: TimerTag) -> TimerId {
        let (node, incarnation, depth) = (self.me, self.incarnation, self.depth);
        let timer = |id| Action::Timer { node, incarnation, id, tag, depth };
        self.queue.push_timer(self.now + delay, timer)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.queue.cancel(id);
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

    fn log_checkpoint(&mut self, log: &'static str, rec: StableRecord) {
        self.storage.checkpoint(log, rec);
    }

    fn log_read(&self, log: &'static str) -> Vec<StableRecord> {
        self.storage.read(log).to_vec()
    }

    fn trace(&mut self, kind: TraceKind) {
        record(self.trace, self.triggers, TraceEvent::new(self.now, self.me, kind));
    }

    /// Summed, and recorded (so offered to the armed triggers, and not
    /// kept) only while a trigger is armed.
    fn span(&mut self, rid: ResultId, comp: Component, dur: Dur) {
        self.spans.record(comp, dur);
        if !self.triggers.is_empty() {
            let kind = TraceKind::Span { rid, comp };
            record(self.trace, self.triggers, TraceEvent::new(self.now, self.me, kind));
        }
    }

    fn depth(&self) -> u32 {
        self.depth
    }

    /// Counted, then held if the link is cut (see [`Links`]) or queued
    /// at once, `delay` plus a link delay from now: a send in service
    /// outlives a sender that crashes before it leaves. A background send
    /// to an inert node waits in its mailbox instead, under a key the
    /// queue reserves for it.
    fn send_after_at_depth(&mut self, depth: u32, delay: Dur, to: NodeId, payload: Payload) {
        let depth = if payload.is_background() { 0 } else { depth + 1 };
        let depart = self.now + delay;
        self.stats.record_sent(&payload);
        // With no link cut this lookup is the fault plane's only cost: a
        // run that cuts none draws no randomness and consumes no sequence
        // number here.
        let Some(payload) = self.links.send(self.me, to, payload, depth) else {
            self.stats.record_dropped_on_link();
            return;
        };
        let at = depart + self.clock.link_delay(self.net, self.rng);
        let mailbox = &mut self.mail[to.0 as usize];
        match payload {
            Payload::Fd(msg) if mailbox.inert => {
                let mail = Mail { at, seq: self.queue.reserve(), from: self.me, msg };
                // Its seq is the largest yet, so it goes after every held
                // arrival not later than its own: mostly, at the back.
                let held = &mut mailbox.held;
                if held.last().is_none_or(|m| m.at <= at) {
                    held.push(mail);
                } else {
                    let i = held.iter().rposition(|m| m.at <= at).map_or(0, |i| i + 1);
                    held.insert(i, mail);
                }
            }
            payload => self.queue.push(at, Action::Deliver { from: self.me, to, payload, depth }),
        }
    }

    fn subscribe_node_events(&mut self) {
        *self.subscribe = true;
    }
}
