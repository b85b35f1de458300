//! The fault plane: one nemesis-schedule vocabulary for every runtime,
//! and the one place that says what a fault *means*.
//!
//! The paper's guarantees (§3: at-most-once A.1–A.3, termination T.1/T.2,
//! validity V.1/V.2) are *fault-tolerance* claims — they mean nothing
//! until crashes, pauses and link failures are actually injected. This
//! module is the backend-neutral half of that story: fault operations
//! ([`FaultOp`]) and trigger conditions ([`NemesisWhen`]) that both hosts
//! take through [`crate::runtime::Host::schedule_fault`] — and the
//! interpreter both hosts run them with:
//!
//! * [`FaultOp::lower`] turns any operation into the six [`Prim`]itives a
//!   host can do — crash, recover, pause, resume, cut a link, heal a link
//!   — to apply now, plus the undo to apply a [`Dur`] later. A host never
//!   sees a bounded or compound operation, only what it lowers to.
//! * [`Links`] is what a cut does to a send: the message is *held* at the
//!   link and handed back, in send order, when the link heals — the
//!   paper's §4 reliable channel, where a failed link is delay and never
//!   absence (a TCP partition, not UDP loss). That is a *liveness
//!   requirement*, not a softness: consensus advances rounds on
//!   suspicion, so a silently destroyed message to a live coordinator
//!   would wedge an instance forever. Crashes are the genuinely lossy
//!   fault on either backend.
//! * [`Triggers`] is what a trace-triggered fault is: one-shot, fired by
//!   the first matching event a host records after it was armed — traced,
//!   or a span the trace does not keep — several firing in the order they
//!   were armed. A host offers each event as it records it.
//!
//! Which lifecycle primitive applies to a node, and what it records, is
//! [`crate::host::Life`]'s to say. What is left to a host is its own: both
//! hosts are one event kernel (`etx_sim::Kernel`), which makes every timed
//! operation an entry of its event queue and fires a triggered one at the
//! end of the step that hit it — on the virtual clock, so a schedule
//! replays with the run, per seed, and on the wall clock, where a crash
//! really drops the node's process and timers (stable logs survive for
//! restart, volatile state does not), a pause really stashes what comes
//! due for the node (the SIGSTOP story) and a cut holds real sends.

use crate::ids::NodeId;
use crate::msg::Payload;
use crate::time::Dur;
use crate::trace::TraceEvent;
use core::fmt;
use std::collections::BTreeMap;
use std::error::Error;
use std::sync::Arc;

/// A fault-plane request the hosting backend refused. Returned by
/// [`crate::runtime::Host::schedule_fault`] (and the harness entry points
/// layered on it) instead of a panic or a silently ignored fault, which
/// would turn a chaos test into a green no-op. Every host injects every
/// fault; the one refusal left is a threaded host that was already
/// stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapabilityError {
    /// Label of the backend that refused (`"threaded (stopped)"`).
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
        write!(f, "the {} backend cannot inject a fault ({})", self.backend, self.op)
    }
}

impl Error for CapabilityError {}

/// One fault-plane operation, applied by a [`crate::runtime::Host`] when
/// its trigger condition ([`NemesisWhen`]) fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOp {
    /// Crash a node: volatile state is lost, stable storage survives (§2:
    /// "the crash of a process has no impact on its stable storage"). It
    /// lands between two handlers and drops the process and its timers,
    /// keeping its [`crate::wal::StableStorage`] for restart; what was
    /// already sent, even with a service time still to run, is delivered.
    /// Crashing a paused node ends the pause.
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
    /// nothing — the SIGSTOP story. What comes due for it is stashed, and
    /// no handler of it runs until it resumes. A paused
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
    /// Cut the directed link `from → to`: what is sent on it from now on
    /// is held at the link (see [`Links`]). Lasts until
    /// [`FaultOp::HealLink`]; cutting a cut link changes nothing.
    CutLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
    },
    /// Heal the directed link `from → to`: what it held is re-injected in
    /// send order. Healing a whole link changes nothing.
    HealLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
    },
    /// Cut the directed link `from → to` and heal it `heal_after` later:
    /// the bounded form of `CutLink … HealLink`, and nothing more — a heal
    /// heals, so of two overlapping `BlockLink`s on one link the *first*
    /// heal ends both (on both backends).
    BlockLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
        /// How long the link stays down.
        heal_after: Dur,
    },
    /// Partition two node sets from each other — cut both directions of
    /// every cross pair — and heal every one of those links `heal_after`
    /// later. Overlapping partitions end at the first heal of each link,
    /// as with [`FaultOp::BlockLink`].
    Partition {
        /// One side.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
        /// How long the partition lasts.
        heal_after: Dur,
    },
}

/// What a host can do to its nodes and links: the six verbs every
/// [`FaultOp`] lowers to. Hosts interpret these and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prim {
    /// See [`FaultOp::Crash`].
    Crash(NodeId),
    /// See [`FaultOp::Recover`].
    Recover(NodeId),
    /// See [`FaultOp::Pause`].
    Pause(NodeId),
    /// See [`FaultOp::Resume`].
    Resume(NodeId),
    /// See [`FaultOp::CutLink`].
    CutLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
    },
    /// See [`FaultOp::HealLink`].
    HealLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
    },
}

/// A [`FaultOp`] as a host sees it, see [`FaultOp::lower`].
#[derive(Debug, PartialEq, Eq)]
pub struct Lowered {
    /// Applied, in order, at the instant the operation fires.
    pub now: Vec<Prim>,
    /// Applied, in order, this long after that instant.
    pub undo: Option<(Dur, Vec<Prim>)>,
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
            FaultOp::CutLink { .. } => "cut-link",
            FaultOp::HealLink { .. } => "heal-link",
            FaultOp::BlockLink { .. } => "block-link",
            FaultOp::Partition { .. } => "partition",
        }
    }

    /// The operation in primitives. Hosts call this when the operation
    /// *fires*, so the undo of a trace-triggered `CrashFor` counts from
    /// its trigger, not from when it was scheduled.
    pub fn lower(self) -> Lowered {
        let once = |p| Lowered { now: vec![p], undo: None };
        let bounded = |p, d, q| Lowered { now: vec![p], undo: Some((d, vec![q])) };
        match self {
            FaultOp::Crash(n) => once(Prim::Crash(n)),
            FaultOp::Recover(n) => once(Prim::Recover(n)),
            FaultOp::Pause(n) => once(Prim::Pause(n)),
            FaultOp::Resume(n) => once(Prim::Resume(n)),
            FaultOp::CutLink { from, to } => once(Prim::CutLink { from, to }),
            FaultOp::HealLink { from, to } => once(Prim::HealLink { from, to }),
            FaultOp::CrashFor { node, down_for } => {
                bounded(Prim::Crash(node), down_for, Prim::Recover(node))
            }
            FaultOp::PauseFor { node, down_for } => {
                bounded(Prim::Pause(node), down_for, Prim::Resume(node))
            }
            FaultOp::BlockLink { from, to, heal_after } => {
                bounded(Prim::CutLink { from, to }, heal_after, Prim::HealLink { from, to })
            }
            FaultOp::Partition { a, b, heal_after } => {
                let links = a.iter().flat_map(|&x| b.iter().flat_map(move |&y| [(x, y), (y, x)]));
                Lowered {
                    now: links.clone().map(|(from, to)| Prim::CutLink { from, to }).collect(),
                    undo: Some((
                        heal_after,
                        links.map(|(from, to)| Prim::HealLink { from, to }).collect(),
                    )),
                }
            }
        }
    }
}

/// The cut links of a run and what each holds: per directed link, the
/// `(payload, causal depth)` pairs sent on it since it was cut, in send
/// order. An ordered map, so a simulated run allocates the same whatever
/// the process's hash keys.
#[derive(Debug, Default)]
pub struct Links {
    cut: BTreeMap<(NodeId, NodeId), Vec<(Payload, u32)>>,
}

impl Links {
    /// Whether no link is cut (a host's send path may skip [`Links::send`]
    /// while this holds).
    pub fn is_empty(&self) -> bool {
        self.cut.is_empty()
    }

    /// Cuts `from → to`. A second cut keeps what the first one holds.
    pub fn cut(&mut self, from: NodeId, to: NodeId) {
        self.cut.entry((from, to)).or_default();
    }

    /// Heals `from → to` and returns what it held, in send order, for the
    /// host to re-inject; nothing if the link was whole.
    pub fn heal(&mut self, from: NodeId, to: NodeId) -> Vec<(Payload, u32)> {
        self.cut.remove(&(from, to)).unwrap_or_default()
    }

    /// One send on `from → to`: a whole link gives the payload back for
    /// delivery, a cut one holds it and answers `None`.
    #[inline]
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Payload,
        depth: u32,
    ) -> Option<Payload> {
        match self.cut.get_mut(&(from, to)) {
            Some(held) => {
                held.push((payload, depth));
                None
            }
            None => Some(payload),
        }
    }
}

/// The armed trace triggers of a run. Each is one-shot. A host
/// [offers](Triggers::offer) every event to them as it records it, traced
/// or a span the trace does not keep, and takes what that hit from
/// [`Triggers::fired`]. A trigger sees only what is offered after it was
/// armed, each event once.
#[derive(Default)]
pub struct Triggers {
    /// Each trigger, and whether an offered event has matched it.
    armed: Vec<(TracePred, FaultOp, bool)>,
}

impl Triggers {
    /// Whether no trigger is armed (a host need not offer, nor collect
    /// spans to offer, while this holds).
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Arms a trigger. Events offered from now on can fire it.
    pub fn arm(&mut self, pred: TracePred, op: FaultOp) {
        self.armed.push((pred, op, false));
    }

    /// Shows one just-recorded event to every armed trigger it has not
    /// already hit.
    pub fn offer(&mut self, ev: &TraceEvent) {
        for (pred, _, hit) in self.armed.iter_mut().filter(|(_, _, hit)| !*hit) {
            *hit = pred(ev);
        }
    }

    /// Whether an offered event has hit an armed trigger that
    /// [`Triggers::fired`] has not returned yet.
    pub fn hit(&self) -> bool {
        self.armed.iter().any(|(_, _, hit)| *hit)
    }

    /// Disarms and returns the triggers an offered event hit, in the
    /// order they were armed.
    pub fn fired(&mut self) -> Vec<FaultOp> {
        self.armed.extract_if(.., |(_, _, hit)| *hit).map(|(_, op, _)| op).collect()
    }
}

/// A trace predicate deciding when a trace-triggered fault fires. Both
/// hosts offer it events on the thread that runs their nodes.
pub type TracePred = Arc<dyn Fn(&TraceEvent) -> bool>;

/// When a scheduled fault applies.
#[derive(Clone)]
pub enum NemesisWhen {
    /// Immediately (or, scheduled before the run starts, at startup).
    Now,
    /// After `Dur` on the host's clock, from its current instant (the run
    /// start when scheduled before running): virtual time on the
    /// simulator, wall-clock time on the threaded backend.
    After(Dur),
    /// The first time the predicate matches a trace event (one-shot).
    /// This is how a schedule lands a fault *mid-protocol* — "crash the
    /// primary right after its first vote" — on either backend.
    OnTrace(TracePred),
}

impl NemesisWhen {
    /// Trace-trigger constructor that wraps the closure for you.
    pub fn on_trace(pred: impl Fn(&TraceEvent) -> bool + 'static) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::FdMsg;
    use crate::time::Time;
    use crate::trace::TraceKind;

    const N: [NodeId; 4] = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];

    /// The whole lowering table: each of the ten operations, its
    /// primitives and its undo delay.
    #[test]
    fn every_op_lowers_to_its_primitives_and_its_undo() {
        let (n, from, to, d) = (N[0], N[1], N[2], Dur(7));
        let once = |p| Lowered { now: vec![p], undo: None };
        let bounded = |p, q| Lowered { now: vec![p], undo: Some((d, vec![q])) };
        let (cut, heal) = (Prim::CutLink { from, to }, Prim::HealLink { from, to });
        let table = [
            (FaultOp::Crash(n), once(Prim::Crash(n))),
            (FaultOp::Recover(n), once(Prim::Recover(n))),
            (FaultOp::Pause(n), once(Prim::Pause(n))),
            (FaultOp::Resume(n), once(Prim::Resume(n))),
            (FaultOp::CutLink { from, to }, once(cut)),
            (FaultOp::HealLink { from, to }, once(heal)),
            (FaultOp::CrashFor { node: n, down_for: d }, bounded(Prim::Crash(n), Prim::Recover(n))),
            (FaultOp::PauseFor { node: n, down_for: d }, bounded(Prim::Pause(n), Prim::Resume(n))),
            (FaultOp::BlockLink { from, to, heal_after: d }, bounded(cut, heal)),
            (
                FaultOp::Partition { a: vec![from], b: vec![to], heal_after: d },
                Lowered {
                    now: vec![cut, Prim::CutLink { from: to, to: from }],
                    undo: Some((d, vec![heal, Prim::HealLink { from: to, to: from }])),
                },
            ),
        ];
        for (op, want) in table {
            assert_eq!(op.clone().lower(), want, "{}", op.label());
        }
    }

    #[test]
    fn partition_cuts_and_heals_both_directions_of_every_cross_pair() {
        let (a, b) = (vec![N[0], N[1]], vec![N[2], N[3]]);
        let Lowered { now, undo } =
            FaultOp::Partition { a: a.clone(), b: b.clone(), heal_after: Dur(9) }.lower();
        let (after, heals) = undo.expect("a partition heals");
        assert_eq!((after, now.len(), heals.len()), (Dur(9), 8, 8));
        for &x in &a {
            for &y in &b {
                for (from, to) in [(x, y), (y, x)] {
                    assert!(now.contains(&Prim::CutLink { from, to }), "{from} -> {to} not cut");
                    assert!(
                        heals.contains(&Prim::HealLink { from, to }),
                        "{from} -> {to} stays cut"
                    );
                }
            }
        }
        // Links inside one side are left alone.
        let touches = |p: &Prim| matches!(p, Prim::CutLink { from, to } if a.contains(from) == a.contains(to));
        assert!(!now.iter().any(touches));
    }

    fn beat(seq: u64) -> Payload {
        Payload::Fd(FdMsg::Heartbeat { seq })
    }

    fn seqs(held: Vec<(Payload, u32)>) -> Vec<(u64, u32)> {
        let seq = |p| match p {
            Payload::Fd(FdMsg::Heartbeat { seq }) => seq,
            other => panic!("not a heartbeat: {other:?}"),
        };
        held.into_iter().map(|(p, depth)| (seq(p), depth)).collect()
    }

    #[test]
    fn a_cut_link_holds_per_link_in_send_order_and_heal_returns_it() {
        let mut links = Links::default();
        assert!(links.is_empty());
        assert_eq!(links.send(N[0], N[1], beat(0), 1), Some(beat(0)), "a whole link passes");
        links.cut(N[0], N[1]);
        links.cut(N[0], N[2]);
        assert!(!links.is_empty());
        for (to, seq) in [(N[1], 1), (N[2], 2), (N[1], 3)] {
            assert_eq!(links.send(N[0], to, beat(seq), seq as u32), None, "a cut link holds");
        }
        assert_eq!(links.send(N[1], N[0], beat(4), 1), Some(beat(4)), "cuts are directed");
        // A second cut keeps what the first one holds.
        links.cut(N[0], N[1]);
        assert_eq!(seqs(links.heal(N[0], N[1])), [(1, 1), (3, 3)]);
        assert_eq!(links.send(N[0], N[1], beat(5), 1), Some(beat(5)), "healed");
        assert!(links.heal(N[0], N[1]).is_empty(), "healing a whole link returns nothing");
        assert_eq!(seqs(links.heal(N[0], N[2])), [(2, 2)]);
        assert!(links.is_empty());
    }

    /// Two overlapping `BlockLink`s on one link: a heal heals, so the
    /// first undo ends both and the second finds a whole link.
    #[test]
    fn overlapping_bounded_cuts_end_at_the_first_heal() {
        let block = |d| FaultOp::BlockLink { from: N[0], to: N[1], heal_after: Dur(d) }.lower();
        let (long, short) = (block(100), block(40));
        let mut links = Links::default();
        let apply = |links: &mut Links, prims: &[Prim]| -> usize {
            let mut released = 0;
            for p in prims {
                match *p {
                    Prim::CutLink { from, to } => links.cut(from, to),
                    Prim::HealLink { from, to } => released += links.heal(from, to).len(),
                    _ => unreachable!(),
                }
            }
            released
        };
        apply(&mut links, &long.now);
        assert_eq!(links.send(N[0], N[1], beat(1), 1), None);
        apply(&mut links, &short.now);
        assert_eq!(links.send(N[0], N[1], beat(2), 1), None);
        assert_eq!(apply(&mut links, &short.undo.unwrap().1), 2, "the first heal releases all");
        assert_eq!(links.send(N[0], N[1], beat(3), 1), Some(beat(3)), "and the link is whole");
        assert_eq!(apply(&mut links, &long.undo.unwrap().1), 0);
    }

    fn note(what: &'static str) -> TraceEvent {
        TraceEvent::new(Time(0), N[0], TraceKind::Note(what))
    }

    fn on(what: &'static str) -> TracePred {
        Arc::new(move |ev| matches!(ev.kind, TraceKind::Note(w) if w == what))
    }

    #[test]
    fn triggers_are_one_shot_and_fire_in_arming_order() {
        let mut t = Triggers::default();
        assert!(t.is_empty());
        t.arm(on("b"), FaultOp::Crash(N[1]));
        t.arm(on("a"), FaultOp::Crash(N[2]));
        t.arm(on("c"), FaultOp::Crash(N[3]));
        // `a` is offered before `b`; the triggers still fire as armed.
        assert!(!t.hit());
        for what in ["a", "b", "a"] {
            t.offer(&note(what));
        }
        assert!(t.hit(), "an offered event hit a trigger");
        assert_eq!(t.fired(), [FaultOp::Crash(N[1]), FaultOp::Crash(N[2])]);
        assert!(!t.hit(), "and collecting it clears the hit");
        // One-shot: more matching events fire nothing more.
        t.offer(&note("a"));
        t.offer(&note("b"));
        assert!(t.fired().is_empty());
        assert!(!t.is_empty(), "the third is still armed");
        t.offer(&note("c"));
        assert_eq!(t.fired(), [FaultOp::Crash(N[3])]);
        assert!(t.is_empty());
    }

    #[test]
    fn an_offered_event_fires_at_the_next_scan_in_arming_order() {
        let mut t = Triggers::default();
        t.offer(&note("b"));
        t.arm(on("a"), FaultOp::Crash(N[1]));
        t.arm(on("b"), FaultOp::Crash(N[2]));
        assert!(t.fired().is_empty(), "offered before arming: nothing fires");
        t.offer(&note("b"));
        t.offer(&note("b"));
        // `b` was offered first; both fire at the next collection, as armed.
        t.offer(&note("a"));
        assert_eq!(t.fired(), [FaultOp::Crash(N[1]), FaultOp::Crash(N[2])]);
        assert!(t.is_empty());
    }

    #[test]
    fn no_event_is_scanned_twice_and_none_from_before_arming() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let shown = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&shown);
        let never: TracePred = Arc::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
            false
        });
        let mut t = Triggers::default();
        t.offer(&note("old"));
        t.offer(&note("old"));
        assert!(t.fired().is_empty(), "nothing armed, nothing fires");
        t.arm(never, FaultOp::Crash(N[0]));
        // What was offered before arming never fires a trigger.
        t.arm(on("old"), FaultOp::Crash(N[1]));
        t.offer(&note("x"));
        t.offer(&note("y"));
        assert!(t.fired().is_empty());
        assert!(t.fired().is_empty());
        t.offer(&note("z"));
        assert!(t.fired().is_empty());
        assert_eq!(shown.load(Ordering::Relaxed), 3, "x, y and z, once each");
    }

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
