//! The runtime abstraction protocol state machines are written against.
//!
//! The paper's pseudo-code uses blocking threads (`cobegin`/`coend`,
//! `wait until`). This implementation turns every participant into an
//! event-driven state machine: a [`Process`] receives [`Event`]s (messages,
//! timers, lifecycle notifications) and reacts through a [`Context`]
//! (sending messages, arming timers, reading the clock, tracing).
//!
//! Writing protocols against `dyn Context` keeps them runtime-agnostic, and
//! the [`Host`] trait is the other half of that seam: a host owns node
//! registration, the run loop, and the trace sink, and keeps its nodes by
//! the rules of [`crate::host`]. Two hosts exist, one event kernel
//! (`etx_sim::Kernel`) on two clocks — the deterministic simulator in
//! `etx-sim` (virtual clock, byte-identical replay) and the wall-clock
//! backend in `etx-rt` (real monotonic clock, wall-clock numbers); both
//! run every node on the thread that calls the run. The *identical*
//! protocol state machines run on both, and [`Host::schedule_fault`] is
//! the one way a fault enters either — the sim's simulated ones and the
//! threaded backend's real ones alike.

use crate::fault::{CapabilityError, FaultOp, NemesisWhen};
use crate::ids::{NodeId, ResultId, TimerId};
use crate::metrics::SpanTotals;
use crate::msg::{FdMsg, Payload};
use crate::time::{Dur, Time};
use crate::trace::{Component, MsgStats, Trace, TraceKind};
use crate::wal::StableRecord;

/// What a timer means when it fires. Like [`Payload`], timer vocabulary is
/// centralised so the simulation kernel stays monomorphic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerTag {
    /// Client back-off expired without a result: broadcast the request to
    /// all application servers (Figure 2 lines 5–6).
    ClientBackoff {
        /// Attempt the back-off was armed for.
        rid: ResultId,
    },
    /// Client periodic re-broadcast while still waiting (keeps liveness
    /// under crash/recovery without violating the paper's structure).
    ClientRebroadcast {
        /// Attempt being waited on.
        rid: ResultId,
    },
    /// Application server retransmits `[Decide]` until every database
    /// acknowledges (Figure 4 terminate() repeat-loop).
    TerminateRetry {
        /// Attempt being terminated.
        rid: ResultId,
    },
    /// A plain timer with no protocol meaning: no production code arms it
    /// (the cleaner runs on the failure detector's tick). The kernel tests
    /// and `examples/etx_bench` arm it.
    CleanerTick,
    /// The application server's pipeline queue hit its time window: flush
    /// the accumulated outcomes into a decision-log slot even though the
    /// size threshold was not reached.
    BatchFlush,
    /// A shard follower re-requests a recovery snapshot from its primary
    /// until one arrives (intra-shard replication catch-up liveness).
    ReplSyncRetry,
    /// A shard primary's read-lease renewal tick: grant the followers a
    /// fresh lease (unless withheld) and re-arm. Armed only when
    /// [`crate::config::ReadLeaseConfig::enabled`] is set — a leases-off
    /// run schedules no such timer.
    LeaseRenewTick,
    /// A lease-granting primary's held cross-shard vote reaches its escape
    /// horizon: every lease that was outstanding when the vote was held has
    /// provably lapsed, so the vote may be released even though some
    /// follower never acknowledged the branch's intent (covers a crashed
    /// or partitioned follower without blocking commit liveness).
    VoteEscape {
        /// The branch whose vote was held.
        rid: ResultId,
    },
    /// An application server re-issues the unanswered calls of an in-flight
    /// fast-path read, falling back to the shard primaries (covers a read
    /// target that crashed with the request in flight).
    ReadRetry {
        /// The read-only attempt being retried.
        rid: ResultId,
    },
    /// Failure detector: send the next heartbeat round, then check every
    /// peer's liveness (one tick per period does both).
    FdHeartbeat,
    /// Armed and handled by nothing: the heartbeat tick does the check.
    /// Kept only because `examples/etx_bench` names it.
    FdCheck,
    /// Consensus: periodic pull of every decision this server is missing
    /// (wo-register `read()` liveness); no decision is re-broadcast.
    ConsensusResync,
    /// Deferred local work, used to model service-time costs (e.g. the ORB
    /// dispatch cost before the protocol acts on a request).
    Dispatch {
        /// Attempt the deferred work belongs to.
        rid: ResultId,
        /// Which stage to run; meaning is protocol-private.
        stage: u8,
    },
}

/// An input delivered to a [`Process`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// First activation at the start of the run.
    Init,
    /// Re-activation after a crash: volatile state is gone, the stable
    /// storage is intact (§2: "the crash of a process has no impact on its
    /// stable storage").
    Recovered,
    /// A message arrived.
    Message {
        /// Sender.
        from: NodeId,
        /// Content.
        payload: Payload,
    },
    /// A timer armed through [`Context::set_timer`] fired.
    Timer {
        /// Handle returned when arming.
        id: TimerId,
        /// Meaning.
        tag: TimerTag,
    },
    /// Another node crashed. Only delivered to processes that subscribed via
    /// [`Context::subscribe_node_events`] — this is the *perfect* failure
    /// detector the primary-backup baseline requires (Appendix 3) and that
    /// the e-Transaction protocol pointedly does *not* use.
    NodeDown(NodeId),
    /// A crashed node recovered (same subscription).
    NodeUp(NodeId),
}

/// Capabilities a running process can use. Implemented by the event
/// kernel's per-step context, on either clock; protocols hold it only for
/// the duration of one event handler.
///
/// A host implements one send, [`Context::send_after_at_depth`]; the three
/// other sends are that one with the current depth, no extra delay, or
/// both.
pub trait Context {
    /// Current time.
    fn now(&self) -> Time;

    /// This process's identity.
    fn me(&self) -> NodeId;

    /// Sends `payload` to `to` over the reliable channel (termination +
    /// integrity as defined in §4).
    fn send(&mut self, to: NodeId, payload: Payload) {
        self.send_after_at_depth(self.depth(), Dur::ZERO, to, payload);
    }

    /// Sends after an extra local delay (models service time spent before
    /// the message leaves, e.g. SQL execution or a forced log write).
    fn send_after(&mut self, delay: Dur, to: NodeId, payload: Payload) {
        self.send_after_at_depth(self.depth(), delay, to, payload);
    }

    /// Arms a one-shot timer `delay` from now.
    fn set_timer(&mut self, delay: Dur, tag: TimerTag) -> TimerId;

    /// Cancels a pending timer; no-op if it already fired or was cancelled.
    fn cancel_timer(&mut self, id: TimerId);

    /// Deterministic pseudo-randomness (seeded per run by the simulator).
    fn random_u64(&mut self) -> u64;

    /// Appends a record to one of this node's stable logs (its
    /// [`crate::wal::StableStorage`], which the host keeps across crashes)
    /// and returns the modelled duration of the write. If `forced` is true
    /// the duration is the synchronous-I/O cost from the cost model (the
    /// caller must delay its next protocol action by that much — see
    /// [`Context::send_after`]); otherwise the write is buffered and free.
    fn log_append(&mut self, log: &'static str, rec: StableRecord, forced: bool) -> Dur;

    /// Replaces a stable log with the single record `rec`, a checkpoint of
    /// everything the log held ([`crate::wal::StableStorage::checkpoint`]).
    /// The write is unforced and draws no randomness. Both hosts override
    /// this; the default, for a context that keeps no storage of its own,
    /// is a plain unforced append, which recovery reads the same way (it
    /// starts from the last checkpoint record).
    fn log_checkpoint(&mut self, log: &'static str, rec: StableRecord) {
        self.log_append(log, rec, false);
    }

    /// Reads back a stable log (survives crashes).
    fn log_read(&self, log: &'static str) -> Vec<StableRecord>;

    /// Emits a trace event (observability + the experiment harness's raw
    /// data).
    fn trace(&mut self, kind: TraceKind);

    /// Charges `dur` of modelled service time to the Figure 8 component
    /// `comp`, on behalf of attempt `rid`. A host adds it to its
    /// [`SpanTotals`] and, while a trace trigger is armed,
    /// [records](crate::host::record) it as a [`TraceKind::Span`]: offered
    /// to the triggers, not kept in the trace. The default, for a context
    /// that keeps no totals, traces it (without `dur`, which only totals
    /// keep).
    fn span(&mut self, rid: ResultId, comp: Component, _dur: Dur) {
        self.trace(TraceKind::Span { rid, comp });
    }

    /// Causal depth of the event currently being handled (number of
    /// sequential communication steps since the client issued; Figure 7's
    /// unit of comparison).
    fn depth(&self) -> u32;

    /// Like [`Context::send`] but stamps an explicit causal depth, used when
    /// a protocol aggregates several incoming messages (the next step is
    /// causally after *all* of them, i.e. their max depth).
    fn send_at_depth(&mut self, depth: u32, to: NodeId, payload: Payload) {
        self.send_after_at_depth(depth, Dur::ZERO, to, payload);
    }

    /// Like [`Context::send_after`] with an explicit causal depth — the
    /// one send a host implements.
    fn send_after_at_depth(&mut self, depth: u32, delay: Dur, to: NodeId, payload: Payload);

    /// Subscribe to [`Event::NodeDown`]/[`Event::NodeUp`] — the simulator's
    /// perfect-failure-detector oracle. The e-Transaction protocol never
    /// calls this; the primary-backup baseline needs it.
    fn subscribe_node_events(&mut self);
}

/// Draws a uniform `f64` in `[0, 1)` from the context's deterministic
/// randomness.
pub fn uniform_f64(ctx: &mut dyn Context) -> f64 {
    // 53 high-quality mantissa bits.
    (ctx.random_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Applies multiplicative jitter to a modelled service time: uniform in
/// `[1 - frac, 1 + frac]`. With `frac = 0` this is the identity, which keeps
/// step-count experiments bit-deterministic.
pub fn jittered(ctx: &mut dyn Context, d: Dur, frac: f64) -> Dur {
    if frac <= 0.0 {
        return d;
    }
    let factor = 1.0 - frac + 2.0 * frac * uniform_f64(ctx);
    d.scaled(factor)
}

/// A protocol participant: one state machine per hosted process. Both
/// hosts run every process on the thread that calls their run loop.
pub trait Process {
    /// Handles one event. All sends/timers go through `ctx`. The handler
    /// runs to completion instantaneously in simulated time; real elapsed
    /// work is modelled with [`Context::send_after`] / dispatch timers.
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event);

    /// Human-readable name for traces.
    fn name(&self) -> &'static str {
        "process"
    }

    /// Whether a background delivery ([`Payload::is_background`], a
    /// heartbeat) would pass through this process unseen from outside.
    /// `true` promises that such a delivery, handled in the current state
    /// at any instant before the process's next event, emits nothing
    /// through its [`Context`] — no send, timer, cancel, trace, span, log
    /// write or random draw — and that the promise still holds after it.
    /// The host may then hold the delivery back until the process's next
    /// event and hand it over just before, at its own instant, through
    /// [`Process::absorb`]. `false` (the default) is always safe.
    fn background_inert(&self) -> bool {
        false
    }

    /// Takes a held heartbeat `msg` from `from`, due at `now`: the host
    /// calls it in place of [`Process::on_event`], and only while
    /// [`Process::background_inert`] answers `true`. It must leave the
    /// process as `on_event` of that delivery at `now` would have; having
    /// no [`Context`], it cannot emit. A process that never promises is
    /// never called, so the default panics.
    fn absorb(&mut self, now: Time, from: NodeId, msg: &FdMsg) {
        let _ = (now, msg);
        panic!("a heartbeat from {from} absorbed by a process that never promised to be inert")
    }

    /// Optional introspection hook: processes that want hosts (tests, the
    /// harness) to read their concrete state return `Some(self)`. The
    /// default opts out — protocol correctness must never depend on it.
    fn as_any(&self) -> Option<&dyn core::any::Any> {
        None
    }
}

/// A process factory: invoked at node creation and — on hosts that support
/// crash/recovery — again at every recovery (volatile state is rebuilt from
/// scratch; stable storage persists).
pub type NodeFactory = Box<dyn FnMut(NodeId) -> Box<dyn Process>>;

/// Why a host run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The caller's predicate became true.
    Predicate,
    /// The event queue drained completely (simulator only; a threaded run
    /// with nothing queued waits for its deadline).
    Exhausted,
    /// The host's clock exceeded its configured limit.
    TimeLimit,
    /// More than the configured number of events were processed.
    EventLimit,
}

/// Which runtime backend hosts a scenario: the value the harness's
/// `ScenarioBuilder::runtime` call takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuntimeKind {
    /// The deterministic discrete-event simulator (`etx-sim`): virtual
    /// clock, byte-identical replay per seed, first-class fault injection.
    /// The default — every deterministic test and golden trace lives here.
    #[default]
    Sim,
    /// The wall-clock backend (`etx-rt`): the simulator's kernel on a real
    /// monotonic clock, every node run on the thread that calls the run,
    /// wall-clock throughput, and *real* fault injection between two
    /// handlers — a crash drops the victim's volatile state, a pause
    /// stashes what comes due for it. "Threaded" names the real thread
    /// the nodes run on, as against the simulator's virtual time. Not
    /// deterministic — which entries are due at a step follows how long
    /// the steps before it took; golden traces stay on the simulator.
    Threaded,
}

impl RuntimeKind {
    /// Stable label (diagnostics, bench tables).
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Threaded => "threaded",
        }
    }
}

/// A runtime backend hosting a set of [`Process`] state machines.
///
/// A host owns the four things the harness seam needs and nothing more:
/// **node registration** (ids contiguous in registration order, so
/// `Topology::new` layouts hold on every backend), the **run loop**, the
/// run's **trace and totals** ([`Host::trace`], [`Host::stats`],
/// [`Host::spans`], each lent in place), and the **fault plane**
/// ([`Host::schedule_fault`]) through which one fault vocabulary drives
/// simulated *and* real faults. What a node is — which lifecycle
/// transitions apply, its stable storage, its timer queue, how each event
/// it records reaches the triggers and the trace — is [`crate::host`]'s,
/// the same for every host. Everything beyond this — virtual-time
/// stepping, storage inspection mid-run — is a backend capability exposed
/// on the concrete type.
pub trait Host {
    /// Registers a node. Ids are assigned contiguously in registration
    /// order. The factory builds the process at startup (and again at every
    /// recovery, on hosts that can crash nodes).
    fn add_node(&mut self, name: &'static str, factory: NodeFactory) -> NodeId;

    /// Current time on this host's clock (virtual for the simulator,
    /// monotonic-since-start for the threaded backend).
    fn host_now(&self) -> Time;

    /// Drives the system until `pred` over the collected trace holds, the
    /// host's own limits hit, or (simulator only) the event queue drains.
    fn run_trace_until(&mut self, pred: Box<dyn FnMut(&Trace) -> bool + '_>) -> RunOutcome;

    /// Lets in-flight background work (decide pushes, acks) drain for
    /// `extra` on this host's clock.
    fn quiesce_for(&mut self, extra: Dur);

    /// The trace collected so far, read in place.
    fn trace(&self) -> &Trace;

    /// Message statistics so far, read in place.
    fn stats(&self) -> &MsgStats;

    /// Figure 8 spans so far, per component, read like [`Host::stats`].
    fn spans(&self) -> &SpanTotals;

    /// [`Host::stats`] through a callback.
    fn with_stats(&self, f: &mut dyn FnMut(&MsgStats)) {
        f(self.stats())
    }

    /// Schedules one fault-plane operation. `when` decides the trigger
    /// (immediately, after a host-clock delay, or on the first matching
    /// trace event); `op` is what happens — [`FaultOp::lower`] says what
    /// that is, identically on every host. Every host injects every
    /// fault; the only refusal is a threaded host that was already
    /// stopped.
    fn schedule_fault(&mut self, when: NemesisWhen, op: FaultOp) -> Result<(), CapabilityError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RequestId;
    use crate::wal::{LOG_COORD, LOG_WAL};

    #[test]
    fn timer_tags_are_hashable_and_comparable() {
        use std::collections::HashSet;
        let rid = ResultId::first(RequestId { client: NodeId(0), seq: 1 });
        let mut set = HashSet::new();
        set.insert(TimerTag::ClientBackoff { rid });
        set.insert(TimerTag::CleanerTick);
        set.insert(TimerTag::CleanerTick);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn log_name_constants_are_distinct() {
        assert_ne!(LOG_WAL, LOG_COORD);
    }
}
