//! # etx-fd — failure detectors for the application-server tier
//!
//! The e-Transaction protocol assumes an **eventually perfect (◇P)** failure
//! detector among application servers (§4): *completeness* (a crashed server
//! is eventually suspected by every correct server, permanently) and
//! *eventual accuracy* (there is a time after which no correct server is
//! suspected). Suspicion mistakes are tolerated — they may cost aborted
//! attempts, never safety.
//!
//! [`HeartbeatFd`] implements ◇P the standard way: periodic heartbeats and a
//! per-peer **adaptive timeout** that grows whenever a suspicion turns out
//! to be false, so in runs where message delays are eventually bounded and
//! crashes stop, suspicions eventually stabilise to exactly the crashed set.
//!
//! [`ScriptedFd`] wraps any detector and forces suspicion windows — the
//! instrument used by tests to drive the protocol into its
//! multiple-concurrent-primaries regime ("active replication mode", §5).
//!
//! The detector is a *component*, not a process: the application server owns
//! one and feeds it every runtime event first — its own ticks and the
//! peers' heartbeats, and every protocol message, each a proof of life
//! from its sender (a [`ScriptedFd`] also reads its clock off them). An
//! event only the detector reads — a heartbeat delivery or a tick — ends
//! there unless it moved a suspicion; a transition goes on to wake the
//! consensus engine and, for a fresh suspicion, the cleaner, at the same
//! step. Everything downstream asks [`FailureDetector::suspects`] in place.
//!
//! So while its detector is [`FailureDetector::quiet`] — it suspects no
//! peer, so no heartbeat can withdraw a suspicion — and its pipeline queue
//! is empty or has its window timer armed, an application server handles
//! a heartbeat without a trace: it notes when it heard from the sender and
//! emits nothing. That is its `Process::background_inert` promise, and the
//! kernel then lets heartbeats to it wait in its mailbox until its next
//! event instead of queueing each one as a step of its own. It hands each
//! over through `Process::absorb`, which reaches the detector as
//! [`FailureDetector::absorb`]: with no [`Context`], so no handler call,
//! just the note of when the sender was heard. A [`ScriptedFd`] is as
//! quiet as its inner detector (a forced window traces no transition, so
//! no heartbeat moves one), and [`NullFd`] always is.
//! The primary-backup baseline does **not** use this crate — it needs a
//! *perfect* detector, which only the simulator's crash oracle can provide
//! (that fragility is the paper's point).

use etx_base::config::FdConfig;
use etx_base::ids::NodeId;
use etx_base::msg::{FdMsg, Payload};
use etx_base::runtime::{Context, Event, TimerTag};
use etx_base::time::{Dur, Time};
use etx_base::trace::TraceKind;

/// A suspicion-state change, reported so callers can trace and react.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdTransition {
    /// `peer` is now suspected.
    Suspect(NodeId),
    /// `peer` is no longer suspected (we heard from it again).
    Unsuspect(NodeId),
}

/// Interface the application server programs against (the paper's
/// `suspect()` predicate, Appendix 1).
pub trait FailureDetector {
    /// Called once from the owning process's `Init`.
    fn on_init(&mut self, ctx: &mut dyn Context);

    /// Feeds a runtime event to the detector: its tick, a heartbeat, or a
    /// protocol message (a proof of life from its sender); anything else
    /// is ignored. Returns the suspicion transitions it caused — usually
    /// none, which allocates nothing.
    fn handle(&mut self, ctx: &mut dyn Context, event: &Event) -> Vec<FdTransition>;

    /// The paper's `suspect(a_i)` predicate.
    fn suspects(&self, peer: NodeId) -> bool;

    /// Whether [`FailureDetector::handle`] of a heartbeat, or of any other
    /// proof of life, would now emit nothing: no suspicion it traced
    /// stands, so none can be withdrawn. The default, `false`, is always
    /// safe.
    fn quiet(&self) -> bool {
        false
    }

    /// Takes a heartbeat from `from`, due at `now`, while the detector is
    /// [`FailureDetector::quiet`]: it leaves the detector as
    /// [`FailureDetector::handle`] of that delivery at `now` would have,
    /// which, quiet, emits nothing and so needs no [`Context`].
    fn absorb(&mut self, now: Time, from: NodeId);
}

/// Heartbeat-based ◇P detector with adaptive per-peer timeouts.
#[derive(Debug)]
pub struct HeartbeatFd {
    cfg: FdConfig,
    /// One record per monitored peer, in the order the peers were given
    /// (the order `check` traces suspicions in).
    peers: Vec<Peer>,
    seq: u64,
    started: bool,
}

/// What the detector knows about one peer.
#[derive(Debug)]
struct Peer {
    id: NodeId,
    last_heard: Time,
    timeout: Dur,
    suspected: bool,
}

impl HeartbeatFd {
    /// Creates a detector for `me` monitoring `peers` (our own id is
    /// filtered out defensively).
    pub fn new(me: NodeId, peers: &[NodeId], cfg: FdConfig) -> Self {
        let peers = peers
            .iter()
            .filter(|&&id| id != me)
            .map(|&id| Peer {
                id,
                last_heard: Time::ZERO,
                timeout: cfg.initial_timeout,
                suspected: false,
            })
            .collect();
        HeartbeatFd { cfg, peers, seq: 0, started: false }
    }

    fn beat(&mut self, ctx: &mut dyn Context) {
        self.seq += 1;
        for p in &self.peers {
            ctx.send(p.id, Payload::Fd(FdMsg::Heartbeat { seq: self.seq }));
        }
        ctx.set_timer(self.cfg.heartbeat_every, TimerTag::FdHeartbeat);
    }

    fn check(&mut self, ctx: &mut dyn Context) -> Vec<FdTransition> {
        let now = ctx.now();
        let mut out = Vec::new();
        for p in &mut self.peers {
            if !p.suspected && now.since(p.last_heard) > p.timeout {
                p.suspected = true;
                ctx.trace(TraceKind::Suspect { peer: p.id });
                out.push(FdTransition::Suspect(p.id));
            }
        }
        out
    }

    fn heard_from(&mut self, ctx: &mut dyn Context, from: NodeId) -> Vec<FdTransition> {
        let Some(p) = hear(&mut self.peers, ctx.now(), from) else {
            return Vec::new();
        };
        if !p.suspected {
            return Vec::new();
        }
        // False suspicion: be more patient with this peer from now on —
        // the adaptation that yields eventual accuracy.
        p.suspected = false;
        p.timeout = (p.timeout + self.cfg.timeout_increment).min(self.cfg.max_timeout);
        ctx.trace(TraceKind::Unsuspect { peer: from });
        vec![FdTransition::Unsuspect(from)]
    }
}

/// Notes that `from` was heard at `now`, and returns its record, if it is
/// one of `peers`.
fn hear(peers: &mut [Peer], now: Time, from: NodeId) -> Option<&mut Peer> {
    let p = peers.iter_mut().find(|p| p.id == from)?;
    p.last_heard = now;
    Some(p)
}

impl FailureDetector for HeartbeatFd {
    fn on_init(&mut self, ctx: &mut dyn Context) {
        if self.started {
            return;
        }
        self.started = true;
        let now = ctx.now();
        for p in &mut self.peers {
            p.last_heard = now;
        }
        self.beat(ctx);
    }

    fn handle(&mut self, ctx: &mut dyn Context, event: &Event) -> Vec<FdTransition> {
        match event {
            // One tick per period: the next round out, then the check.
            Event::Timer { tag: TimerTag::FdHeartbeat, .. } => {
                self.beat(ctx);
                self.check(ctx)
            }
            Event::Message { from, payload: Payload::Fd(FdMsg::Heartbeat { .. }) } => {
                self.heard_from(ctx, *from)
            }
            // Any protocol message from a peer is also a proof of life.
            Event::Message { from, payload } if !payload.is_background() => {
                self.heard_from(ctx, *from)
            }
            _ => Vec::new(),
        }
    }

    fn suspects(&self, peer: NodeId) -> bool {
        self.peers.iter().any(|p| p.id == peer && p.suspected)
    }

    fn quiet(&self) -> bool {
        !self.peers.iter().any(|p| p.suspected)
    }

    fn absorb(&mut self, now: Time, from: NodeId) {
        let p = hear(&mut self.peers, now, from);
        debug_assert!(p.is_none_or(|p| !p.suspected), "absorbed a heartbeat from suspected {from}");
    }
}

/// A forced-suspicion window for fault-injection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedSuspicion {
    /// Who to falsely suspect.
    pub peer: NodeId,
    /// Window start (inclusive).
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
}

/// Wraps an inner detector and adds scripted false-suspicion windows. Used
/// by tests to exercise the protocol's tolerance of unreliable failure
/// detection (multiple concurrent primaries, cleaner-vs-owner races).
pub struct ScriptedFd<I> {
    inner: I,
    forced: Vec<ForcedSuspicion>,
    now: Time,
}

impl<I: std::fmt::Debug> std::fmt::Debug for ScriptedFd<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedFd")
            .field("inner", &self.inner)
            .field("forced", &self.forced)
            .finish()
    }
}

impl<I: FailureDetector> ScriptedFd<I> {
    /// Wraps `inner`, forcing the given suspicion windows.
    pub fn new(inner: I, forced: Vec<ForcedSuspicion>) -> Self {
        ScriptedFd { inner, forced, now: Time::ZERO }
    }

    fn forced_now(&self, peer: NodeId) -> bool {
        self.forced.iter().any(|w| w.peer == peer && w.from <= self.now && self.now < w.until)
    }
}

impl<I: FailureDetector> FailureDetector for ScriptedFd<I> {
    fn on_init(&mut self, ctx: &mut dyn Context) {
        self.now = ctx.now();
        self.inner.on_init(ctx);
    }

    fn handle(&mut self, ctx: &mut dyn Context, event: &Event) -> Vec<FdTransition> {
        self.now = ctx.now();
        self.inner.handle(ctx, event)
    }

    fn suspects(&self, peer: NodeId) -> bool {
        self.forced_now(peer) || self.inner.suspects(peer)
    }

    /// A forced window traces no transition, so a heartbeat moves a
    /// suspicion only if the inner detector's does.
    fn quiet(&self) -> bool {
        self.inner.quiet()
    }

    fn absorb(&mut self, now: Time, from: NodeId) {
        self.now = now;
        self.inner.absorb(now, from);
    }
}

/// A detector that never suspects anyone. Useful for failure-free
/// experiments where FD noise would only add trace volume.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullFd;

impl FailureDetector for NullFd {
    fn on_init(&mut self, _: &mut dyn Context) {}
    fn handle(&mut self, _: &mut dyn Context, _: &Event) -> Vec<FdTransition> {
        Vec::new()
    }
    fn suspects(&self, _: NodeId) -> bool {
        false
    }
    fn quiet(&self) -> bool {
        true
    }
    fn absorb(&mut self, _: Time, _: NodeId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::fault::{FaultOp, NemesisWhen};
    use etx_base::ids::TimerId;
    use etx_base::runtime::{Host, Process};
    use etx_base::wal::StableRecord;
    use etx_sim::{Sim, SimConfig};

    /// Host process that just runs a detector and nothing else.
    struct FdHost {
        fd: Box<dyn FailureDetector>,
        /// Arms a stray `FdCheck` this long after `Init`.
        stray_check: Option<Dur>,
        /// Every timer handed to the detector, with what it returned.
        timers: Vec<(TimerTag, Vec<FdTransition>)>,
    }
    impl FdHost {
        fn new(fd: impl FailureDetector + 'static) -> Self {
            FdHost { fd: Box::new(fd), stray_check: None, timers: Vec::new() }
        }
    }
    impl Process for FdHost {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    self.fd.on_init(ctx);
                    if let Some(after) = self.stray_check {
                        ctx.set_timer(after, TimerTag::FdCheck);
                    }
                }
                Event::Timer { tag, .. } => {
                    let transitions = self.fd.handle(ctx, &event);
                    self.timers.push((tag, transitions));
                }
                _ => {
                    self.fd.handle(ctx, &event);
                }
            }
        }
        fn as_any(&self) -> Option<&dyn core::any::Any> {
            Some(self)
        }
    }

    fn timers(sim: &Sim, node: NodeId) -> &[(TimerTag, Vec<FdTransition>)] {
        let host = sim.process_ref(node).and_then(|p| p.as_any()).unwrap();
        &host.downcast_ref::<FdHost>().unwrap().timers
    }

    fn three_hosts(seed: u64) -> (Sim, Vec<NodeId>) {
        let mut sim = Sim::new(SimConfig::with_seed(seed));
        let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
        for _ in 0..3 {
            let peers = ids.clone();
            sim.add_node(
                "fd",
                Box::new(move |me| {
                    Box::new(FdHost::new(HeartbeatFd::new(me, &peers, FdConfig::default())))
                }),
            );
        }
        (sim, ids)
    }

    #[test]
    fn one_timer_per_period() {
        let (mut sim, ids) = three_hosts(5);
        sim.run_until_time(Time(1_000_000));
        for id in ids {
            let count = |tag| timers(&sim, id).iter().filter(|(t, _)| *t == tag).count();
            assert_eq!(count(TimerTag::FdHeartbeat), 50, "{id}: one tick per 20 ms");
            assert_eq!(count(TimerTag::FdCheck), 0, "{id}: the tick does the check");
        }
    }

    #[test]
    fn a_stray_check_changes_nothing_and_arms_nothing() {
        // Node 1 never beats: a check at 90 ms (past the 80 ms timeout,
        // between two ticks) would suspect it. Only the 100 ms tick may.
        let mut sim = Sim::new(SimConfig::with_seed(6));
        let ids = [NodeId(0), NodeId(1)];
        sim.add_node(
            "fd",
            Box::new(move |me| {
                let fd = HeartbeatFd::new(me, &ids, FdConfig::default());
                Box::new(FdHost { stray_check: Some(Dur::from_millis(90)), ..FdHost::new(fd) })
            }),
        );
        sim.add_node("silent", Box::new(|_| Box::new(FdHost::new(NullFd))));
        sim.run_until_time(Time(200_000));
        let fired = timers(&sim, ids[0]);
        let checks: Vec<_> = fired.iter().filter(|(t, _)| *t == TimerTag::FdCheck).collect();
        assert_eq!(checks, [&(TimerTag::FdCheck, vec![])], "no transition, no re-arm");
        let suspicions: Vec<_> = fired.iter().flat_map(|(_, tr)| tr).collect();
        assert_eq!(suspicions, [&FdTransition::Suspect(ids[1])], "the tick still checks");
    }

    #[test]
    fn no_suspicions_without_crashes() {
        let (mut sim, _) = three_hosts(1);
        sim.run_until_time(Time(2_000_000));
        assert_eq!(sim.trace().count_kind(|k| matches!(k, TraceKind::Suspect { .. })), 0);
    }

    #[test]
    fn completeness_crashed_peer_gets_suspected_by_all() {
        let (mut sim, ids) = three_hosts(2);
        sim.schedule_fault(NemesisWhen::After(Dur(500_000)), FaultOp::Crash(ids[0])).unwrap();
        sim.run_until_time(Time(2_000_000));
        let suspects_of_crashed = sim
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Suspect { peer } if peer == ids[0]))
            .map(|e| e.node)
            .collect::<std::collections::BTreeSet<_>>();
        assert_eq!(suspects_of_crashed.len(), 2, "both survivors must suspect the crashed node");
        // And never unsuspect it.
        assert_eq!(
            sim.trace()
                .count_kind(|k| matches!(k, TraceKind::Unsuspect { peer } if *peer == ids[0])),
            0
        );
    }

    #[test]
    fn eventual_accuracy_after_transient_partition() {
        let (mut sim, ids) = three_hosts(3);
        // Cut node 0 off for 400 ms — long enough to trigger suspicion with
        // the 80 ms initial timeout.
        let cut = FaultOp::Partition {
            a: vec![ids[0]],
            b: vec![ids[1], ids[2]],
            heal_after: Dur(400_000),
        };
        sim.schedule_fault(NemesisWhen::Now, cut).unwrap();
        sim.run_until_time(Time(3_000_000));
        let false_suspicions =
            sim.trace().count_kind(|k| matches!(k, TraceKind::Suspect { peer } if *peer == ids[0]));
        assert!(false_suspicions >= 1, "partition should cause false suspicion");
        let unsuspects = sim
            .trace()
            .count_kind(|k| matches!(k, TraceKind::Unsuspect { peer } if *peer == ids[0]));
        assert!(unsuspects >= 1, "suspicion must be withdrawn after heal");
        // After things settle, nobody suspects anybody: no transitions in
        // the last second.
        let late_suspects = sim
            .trace()
            .events()
            .iter()
            .filter(|e| e.at > Time(2_000_000))
            .filter(|e| matches!(e.kind, TraceKind::Suspect { .. }))
            .count();
        assert_eq!(late_suspects, 0, "no suspicions once delays are bounded again");
    }

    #[test]
    fn adaptive_timeout_grows_on_false_suspicion() {
        let cfg = FdConfig::default();
        let mut sim = Sim::new(SimConfig::with_seed(4));
        let ids: Vec<NodeId> = (0..2).map(NodeId).collect();
        for _ in 0..2 {
            let peers = ids.clone();
            sim.add_node(
                "fd",
                Box::new(move |me| Box::new(FdHost::new(HeartbeatFd::new(me, &peers, cfg)))),
            );
        }
        // Repeated short partitions: each false suspicion should bump the
        // timeout, so the *number* of suspicions should be sub-linear in the
        // number of partitions.
        for i in 0..6u64 {
            let cut =
                FaultOp::Partition { a: vec![ids[0]], b: vec![ids[1]], heal_after: Dur(150_000) };
            sim.schedule_fault(NemesisWhen::After(Dur(200_000 + i * 400_000)), cut).unwrap();
        }
        sim.run_until_time(Time(4_000_000));
        let suspicions =
            sim.trace().count_kind(|k| matches!(k, TraceKind::Suspect { peer } if *peer == ids[0]));
        assert!(
            suspicions < 6,
            "adaptation should eliminate later false suspicions (got {suspicions})"
        );
    }

    /// A context at one instant that counts what a handler emits.
    #[derive(Default)]
    struct At {
        now: Time,
        emitted: u64,
    }
    impl Context for At {
        fn now(&self) -> Time {
            self.now
        }
        fn me(&self) -> NodeId {
            NodeId(0)
        }
        fn set_timer(&mut self, _: Dur, _: TimerTag) -> TimerId {
            self.emitted += 1;
            TimerId(self.emitted)
        }
        fn cancel_timer(&mut self, _: TimerId) {
            self.emitted += 1;
        }
        fn random_u64(&mut self) -> u64 {
            self.emitted += 1;
            0
        }
        fn log_append(&mut self, _: &'static str, _: StableRecord, _: bool) -> Dur {
            self.emitted += 1;
            Dur::ZERO
        }
        fn log_read(&self, _: &'static str) -> Vec<StableRecord> {
            Vec::new()
        }
        fn trace(&mut self, _: TraceKind) {
            self.emitted += 1;
        }
        fn depth(&self) -> u32 {
            0
        }
        fn send_after_at_depth(&mut self, _: u32, _: Dur, _: NodeId, _: Payload) {
            self.emitted += 1;
        }
        fn subscribe_node_events(&mut self) {
            self.emitted += 1;
        }
    }

    #[test]
    fn absorbing_a_heartbeat_leaves_a_quiet_detector_as_handling_it_would() {
        let ids = [NodeId(0), NodeId(1), NodeId(2)];
        let started = || {
            let mut fd = HeartbeatFd::new(ids[0], &ids, FdConfig::default());
            fd.on_init(&mut At::default());
            fd
        };
        let (mut handled, mut absorbed) = (started(), started());
        assert!(handled.quiet());
        let at = Time(70_000);
        let beat =
            Event::Message { from: ids[1], payload: Payload::Fd(FdMsg::Heartbeat { seq: 3 }) };
        let mut ctx = At { now: at, ..At::default() };
        assert_eq!(handled.handle(&mut ctx, &beat), [], "no transition");
        assert_eq!(ctx.emitted, 0, "a quiet detector's heartbeat emits nothing");
        absorbed.absorb(at, ids[1]);
        assert_eq!(format!("{absorbed:?}"), format!("{handled:?}"), "the same last_heard");
        // The next tick is past node 2's 80 ms timeout, not past node 1's
        // heartbeat at 70 ms.
        let tick = Event::Timer { id: TimerId(9), tag: TimerTag::FdHeartbeat };
        let next =
            |fd: &mut HeartbeatFd| fd.handle(&mut At { now: Time(100_000), emitted: 0 }, &tick);
        assert_eq!(next(&mut absorbed), [FdTransition::Suspect(ids[2])]);
        assert_eq!(next(&mut handled), [FdTransition::Suspect(ids[2])]);
    }

    #[test]
    fn a_scripted_detector_absorbs_as_it_handles() {
        let window = ForcedSuspicion { peer: NodeId(1), from: Time(100), until: Time(200) };
        let (mut handled, mut absorbed) =
            (ScriptedFd::new(NullFd, vec![window]), ScriptedFd::new(NullFd, vec![window]));
        assert!(absorbed.quiet(), "a forced window moves no suspicion on a heartbeat");
        let beat =
            Event::Message { from: NodeId(1), payload: Payload::Fd(FdMsg::Heartbeat { seq: 1 }) };
        for at in [Time(150), Time(200)] {
            let mut ctx = At { now: at, ..At::default() };
            assert_eq!(handled.handle(&mut ctx, &beat), []);
            absorbed.absorb(at, NodeId(1));
            assert_eq!(ctx.emitted, 0);
            let forced = at < window.until;
            assert_eq!(absorbed.suspects(NodeId(1)), forced, "{at}: the clock moved to it");
            assert_eq!(handled.suspects(NodeId(1)), forced);
            assert!(absorbed.quiet());
        }
    }

    #[test]
    fn scripted_fd_forces_windows() {
        let mut fd = ScriptedFd::new(
            NullFd,
            vec![ForcedSuspicion { peer: NodeId(7), from: Time(100), until: Time(200) }],
        );
        // Before the window.
        assert!(!fd.suspects(NodeId(7)));
        fd.now = Time(150);
        assert!(fd.suspects(NodeId(7)));
        assert!(!fd.suspects(NodeId(6)), "only the window's peer");
        fd.now = Time(250);
        assert!(!fd.suspects(NodeId(7)));
    }

    #[test]
    fn null_fd_is_silent() {
        let fd = NullFd;
        assert!(!fd.suspects(NodeId(0)));
    }

    #[test]
    fn own_id_filtered_from_peers() {
        let fd =
            HeartbeatFd::new(NodeId(1), &[NodeId(0), NodeId(1), NodeId(2)], FdConfig::default());
        let ids: Vec<NodeId> = fd.peers.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(2)]);
    }
}
