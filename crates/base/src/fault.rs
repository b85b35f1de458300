//! The fault plane: one nemesis-schedule vocabulary for every runtime.
//!
//! The paper's guarantees (§3: at-most-once A.1–A.3, termination T.1/T.2,
//! validity V.1/V.2) are *fault-tolerance* claims — they mean nothing
//! until crashes, pauses and link failures are actually injected. This
//! module is the backend-neutral half of that story: a small algebra of
//! fault operations ([`FaultOp`]), trigger conditions ([`NemesisWhen`])
//! and schedules ([`NemesisSchedule`]) that both hosts implement through
//! [`crate::runtime::Host::schedule_fault`]:
//!
//! * the deterministic simulator turns every operation into an entry of
//!   its virtual-time event queue (or a one-shot trace trigger that pushes
//!   one), so a schedule replays with the run, per seed;
//! * the multi-threaded backend applies the *same* operations for real: a
//!   crash takes the node's state out from under its workers (stable logs
//!   survive for restart, volatile state does not), a pause gates the node
//!   with its inbox accumulating — the SIGSTOP story — and link faults
//!   drop, delay or duplicate real sends.
//!
//! A [`LinkFault`] with `drop` set means the same thing on both: the
//! messages are *held* at the faulted link and re-injected when it heals
//! — the paper's §4 reliable channel, where loss is delay and never
//! absence (see [`LinkFault::drop`] for why that is a liveness
//! requirement). Crashes are the genuinely lossy fault on either backend.
//!
//! Hosts that cannot inject a given fault return a typed
//! [`CapabilityError`] instead of panicking or silently no-opping, so
//! chaos tooling can probe and fail loudly.

use crate::ids::NodeId;
use crate::time::Dur;
use crate::trace::TraceEvent;
use core::fmt;
use std::error::Error;
use std::sync::Arc;

/// A fault-plane request the hosting backend cannot honor. Returned by
/// [`crate::runtime::Host::schedule_fault`] (and the harness entry points
/// layered on it) instead of a panic: the *typed* refusal lets chaos
/// tooling route around a capability gap or fail with full context, while
/// a silently ignored fault would turn a chaos test into a green no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapabilityError {
    /// Label of the backend that refused (`"sim"`, `"threaded"`, ...).
    pub backend: &'static str,
    /// Label of the refused operation (see [`FaultOp::label`]).
    pub op: &'static str,
}

impl CapabilityError {
    /// Convenience constructor.
    pub fn new(backend: &'static str, op: &'static str) -> Self {
        CapabilityError { backend, op }
    }
}

impl fmt::Display for CapabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the {} backend does not support fault injection ({}); probe \
             Host::supports_fault_injection before scheduling a nemesis",
            self.backend, self.op
        )
    }
}

impl Error for CapabilityError {}

/// What happens to messages on one directed link while a fault is
/// installed. Fields compose: `delay` + `duplicate` delivers two delayed
/// copies; `drop` wins over both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFault {
    /// Messages on the link are stopped. Both backends honor the §4
    /// reliable-channel model: traffic is held at the faulted link and
    /// re-injected when it heals — loss is delay, never absence (a TCP
    /// partition, not UDP loss). That is a *liveness requirement*, not a
    /// softness: consensus advances rounds on suspicion, so a silently
    /// destroyed message to a live coordinator would wedge an instance
    /// forever. Crashes are the genuinely lossy fault on both backends.
    pub drop: bool,
    /// Extra delivery delay added to every message on the link.
    pub delay: Option<Dur>,
    /// Every message on the link is delivered twice (duplicate-absorption
    /// is part of the at-most-once claim, so it deserves direct attack).
    pub duplicate: bool,
}

impl LinkFault {
    /// A fault that loses every message on the link.
    pub fn drop_all() -> Self {
        LinkFault { drop: true, ..LinkFault::default() }
    }

    /// A fault that delays every message on the link by `d`.
    pub fn delay_by(d: Dur) -> Self {
        LinkFault { delay: Some(d), ..LinkFault::default() }
    }

    /// A fault that delivers every message on the link twice.
    pub fn duplicating() -> Self {
        LinkFault { duplicate: true, ..LinkFault::default() }
    }

    /// Whether the fault changes anything at all.
    pub fn is_noop(&self) -> bool {
        !self.drop && self.delay.is_none() && !self.duplicate
    }
}

/// One fault-plane operation, applied by a [`crate::runtime::Host`] when
/// its trigger condition ([`NemesisWhen`]) fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOp {
    /// Crash a node: volatile state is lost, stable storage survives (§2:
    /// "the crash of a process has no impact on its stable storage"). On
    /// the threaded backend this waits out the handler in flight, then
    /// drops the process and its inbox, preserving its `LogStore` for
    /// restart.
    Crash(NodeId),
    /// Recover a previously crashed node: the factory rebuilds the
    /// process, which receives [`crate::runtime::Event::Recovered`] over
    /// its intact stable logs.
    Recover(NodeId),
    /// Crash a node and bring it back `down_for` later (the paper's
    /// good-database crash/recovery cycle in one operation).
    CrashFor {
        /// The victim.
        node: NodeId,
        /// How long it stays down.
        down_for: Dur,
    },
    /// Pause a node: it stops processing messages and timers but loses
    /// nothing — the SIGSTOP story. Its inbox keeps accumulating; on the
    /// threaded backend no worker runs the node from then on. A paused
    /// node is exactly the "slow process" asynchrony §4 allows, which is
    /// why it must *not* violate safety.
    Pause(NodeId),
    /// Resume a paused node: queued messages and overdue timers are
    /// processed (late, as after a real SIGCONT).
    Resume(NodeId),
    /// Pause a node and resume it `down_for` later.
    PauseFor {
        /// The victim.
        node: NodeId,
        /// How long it stays paused.
        down_for: Dur,
    },
    /// Install a [`LinkFault`] on the directed link `from → to`,
    /// replacing any previous fault on that link. Lasts until
    /// [`FaultOp::HealLink`].
    SetLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
        /// What happens to messages meanwhile.
        fault: LinkFault,
    },
    /// Remove the fault on the directed link `from → to` (held messages,
    /// on backends that hold rather than drop, are re-injected).
    HealLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
    },
    /// Make the directed link `from → to` lossy for `heal_after`, then
    /// heal it. The bounded form of `SetLink(drop) … HealLink`.
    BlockLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
        /// How long the link stays down.
        heal_after: Dur,
    },
    /// Partition two node sets from each other (both directions of every
    /// cross pair) for `heal_after`, then heal every link.
    Partition {
        /// One side.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
        /// How long the partition lasts.
        heal_after: Dur,
    },
}

impl FaultOp {
    /// Stable label (diagnostics, [`CapabilityError`], fault logs).
    pub fn label(&self) -> &'static str {
        match self {
            FaultOp::Crash(_) => "crash",
            FaultOp::Recover(_) => "recover",
            FaultOp::CrashFor { .. } => "crash-for",
            FaultOp::Pause(_) => "pause",
            FaultOp::Resume(_) => "resume",
            FaultOp::PauseFor { .. } => "pause-for",
            FaultOp::SetLink { .. } => "set-link",
            FaultOp::HealLink { .. } => "heal-link",
            FaultOp::BlockLink { .. } => "block-link",
            FaultOp::Partition { .. } => "partition",
        }
    }
}

/// A trace predicate deciding when a trace-triggered fault fires.
/// `Send + Sync` because the threaded backend's driver scans traces
/// produced by other threads.
pub type TracePred = Arc<dyn Fn(&TraceEvent) -> bool + Send + Sync>;

/// When a scheduled fault applies.
#[derive(Clone)]
pub enum NemesisWhen {
    /// Immediately (or, scheduled before the run starts, at startup).
    Now,
    /// After `Dur` on the host's clock — virtual time offset from the
    /// current instant on the simulator (which is the run start when
    /// scheduled before running), wall-clock offset from run start on the
    /// threaded backend.
    After(Dur),
    /// The first time the predicate matches a trace event (one-shot).
    /// This is how a schedule lands a fault *mid-protocol* — "crash the
    /// primary right after its first vote" — on either backend.
    OnTrace(TracePred),
}

impl NemesisWhen {
    /// Trace-trigger constructor that wraps the closure for you.
    pub fn on_trace(pred: impl Fn(&TraceEvent) -> bool + Send + Sync + 'static) -> Self {
        NemesisWhen::OnTrace(Arc::new(pred))
    }
}

impl fmt::Debug for NemesisWhen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NemesisWhen::Now => write!(f, "Now"),
            NemesisWhen::After(d) => write!(f, "After({d:?})"),
            NemesisWhen::OnTrace(_) => write!(f, "OnTrace(..)"),
        }
    }
}

/// An ordered list of `(when, op)` pairs — the nemesis schedule one run
/// injects. The representation is deliberately host-agnostic: the same
/// value drives the simulator and the threaded backend, which is what
/// makes a chaos scenario portable across runtimes.
#[derive(Debug, Clone, Default)]
pub struct NemesisSchedule {
    /// The schedule, applied in order.
    pub events: Vec<(NemesisWhen, FaultOp)>,
}

impl NemesisSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        NemesisSchedule::default()
    }

    /// Appends an immediate fault.
    pub fn now(mut self, op: FaultOp) -> Self {
        self.events.push((NemesisWhen::Now, op));
        self
    }

    /// Appends a time-triggered fault.
    pub fn at(mut self, after: Dur, op: FaultOp) -> Self {
        self.events.push((NemesisWhen::After(after), op));
        self
    }

    /// Appends a trace-triggered fault.
    pub fn on_trace(
        mut self,
        pred: impl Fn(&TraceEvent) -> bool + Send + Sync + 'static,
        op: FaultOp,
    ) -> Self {
        self.events.push((NemesisWhen::on_trace(pred), op));
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use crate::trace::TraceKind;

    #[test]
    fn capability_error_displays_and_is_std_error() {
        let e = CapabilityError::new("threaded", "pause");
        let msg = format!("{e}");
        assert!(msg.contains("threaded") && msg.contains("pause"));
        let _: &dyn Error = &e;
    }

    #[test]
    fn capability_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CapabilityError>();
        assert_send_sync::<NemesisSchedule>();
    }

    #[test]
    fn link_fault_constructors() {
        assert!(LinkFault::default().is_noop());
        assert!(LinkFault::drop_all().drop);
        assert_eq!(LinkFault::delay_by(Dur(5)).delay, Some(Dur(5)));
        assert!(LinkFault::duplicating().duplicate);
        assert!(!LinkFault::drop_all().is_noop());
    }

    #[test]
    fn schedule_builder_keeps_order() {
        let s = NemesisSchedule::new()
            .at(Dur(10), FaultOp::Crash(NodeId(1)))
            .on_trace(|ev| matches!(ev.kind, TraceKind::Crash), FaultOp::Recover(NodeId(1)))
            .now(FaultOp::Pause(NodeId(2)));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(matches!(s.events[0], (NemesisWhen::After(Dur(10)), FaultOp::Crash(NodeId(1)))));
        assert!(matches!(s.events[2], (NemesisWhen::Now, FaultOp::Pause(NodeId(2)))));
        // The trace predicate survives the round trip.
        let (NemesisWhen::OnTrace(p), _) = &s.events[1] else { panic!("trace trigger") };
        assert!(p(&TraceEvent::new(Time(0), NodeId(0), TraceKind::Crash)));
        assert!(!p(&TraceEvent::new(Time(0), NodeId(0), TraceKind::Recover)));
    }

    #[test]
    fn fault_op_labels_are_stable() {
        assert_eq!(FaultOp::Crash(NodeId(0)).label(), "crash");
        assert_eq!(FaultOp::PauseFor { node: NodeId(0), down_for: Dur(1) }.label(), "pause-for");
        assert_eq!(
            FaultOp::Partition { a: vec![], b: vec![], heal_after: Dur(1) }.label(),
            "partition"
        );
    }

    #[test]
    fn nemesis_when_debug_is_readable() {
        assert_eq!(format!("{:?}", NemesisWhen::Now), "Now");
        assert!(format!("{:?}", NemesisWhen::on_trace(|_| true)).contains("OnTrace"));
    }
}
