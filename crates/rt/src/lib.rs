//! # etx-rt — the event kernel on the wall clock
//!
//! [`ThreadedHost`] is `etx-sim`'s [`Kernel`] on the wall clock: the
//! same queue of every action of the run, popped by the same `(at, seq)`
//! key, the same steps, mailboxes, paused-node stash, fault
//! plane and crash oracle as on the simulator (the kernel's module doc
//! says what the clock decides and what it leaves alone). Only the clock
//! differs: a step runs at the time since the run started, a message is
//! due when it is sent, and with nothing due the run sleeps until the next
//! entry or its deadline. So this backend turns every simulated bench
//! figure into an honest wall-clock number — commits per second on the
//! host, not per simulated second — while the protocol state machines,
//! and everything that hosts them, stay the simulator's.
//!
//! "Threaded" names the one real thread every node runs on: the one that
//! calls [`Host::run_trace_until`] or [`Host::quiesce_for`]. Between two
//! run calls nothing runs, so the trace, the totals, each node's process
//! and its stable storage read live at any time.
//!
//! Faults are **real** here: they apply on the wall clock, between two
//! steps — a timed one when it is due, a trace-triggered one at the end
//! of the step that recorded the matching event. A crash drops the node's
//! process and timers (its stable storage survives for the recovery), a
//! pause stashes what comes due for the node until it resumes, and a cut
//! link holds what is sent on it until it heals. Byte-identical replay
//! stays the simulator's: which entries are due at a step depends on how
//! long the handlers before it really took.
//!
//! Cost-model service times are honored as on the simulator — a forced
//! `log_append` returns the modelled duration and `send_after` really does
//! wait — so a scenario built on the paper's cost model behaves
//! recognizably on both clocks. Wall-clock benches pass
//! [`etx_base::config::CostModel::zeroed`] instead, which removes every
//! modelled stall and leaves only what the hardware charges.

use etx_base::config::CostModel;
use etx_base::fault::{CapabilityError, FaultOp, NemesisWhen};
use etx_base::ids::NodeId;
use etx_base::metrics::SpanTotals;
use etx_base::rng::Rng;
use etx_base::runtime::{Host, NodeFactory, Process, RunOutcome};
use etx_base::time::{Dur, Time};
use etx_base::trace::{MsgStats, Trace};
use etx_base::wal::StableStorage;
use etx_sim::{Clock, Kernel, NetConfig, SimConfig};
use std::time::{Duration, Instant};

/// Threaded-host parameters.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Master seed of the run's one random stream, as on the simulator.
    /// The stream is drawn in step order, and the wall clock decides that
    /// order, so a seed fixes the draws but not which node gets which.
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

/// The wall clock: a step runs at the time since the run's epoch, read by
/// the run loop before the pop, and a link adds no delay.
#[derive(Debug, Default)]
struct Wall {
    /// `Time(0)`: when the host started. Before that the clock reads zero.
    epoch: Option<Instant>,
    /// The run loop's last reading.
    reading: Time,
}

impl Wall {
    /// The time since the epoch.
    fn elapsed(&self) -> Time {
        self.epoch.map_or(Time::ZERO, |epoch| Time(epoch.elapsed().as_micros() as u64))
    }

    fn read(&mut self) -> Time {
        self.reading = self.elapsed();
        self.reading
    }
}

impl Clock for Wall {
    fn now(&self, at: Time) -> Time {
        self.reading.max(at)
    }

    fn link_delay(&self, _: &NetConfig, _: &mut Rng) -> Dur {
        Dur::ZERO
    }
}

/// The wall-clock host: the kernel on the wall clock. Register nodes,
/// run (the first run call starts the clock, or [`ThreadedHost::start`]),
/// and [`ThreadedHost::stop`].
#[derive(Debug)]
pub struct ThreadedHost {
    kernel: Kernel<Wall>,
    wall_limit: Duration,
    stopped: bool,
}

impl ThreadedHost {
    /// Creates an empty host. The wall clock starts at [`ThreadedHost::start`].
    pub fn new(cfg: ThreadedConfig) -> Self {
        // No modelled latency: the crash oracle, too, notifies at once.
        let net = NetConfig { min_delay: Dur::ZERO, max_delay: Dur::ZERO, ..NetConfig::default() };
        let sim = SimConfig { seed: cfg.seed, net, cost: cfg.cost, ..SimConfig::default() };
        let kernel = Kernel::with_clock(sim, Wall::default());
        ThreadedHost { kernel, wall_limit: cfg.wall_limit, stopped: false }
    }

    /// Starts the wall clock: `Time(0)` is now. What was scheduled before
    /// counts from here. Idempotent.
    pub fn start(&mut self) {
        self.kernel.clock_mut().epoch.get_or_insert_with(Instant::now);
    }

    /// Stops the host: from here nothing runs (what is still queued is
    /// left unhandled) and no fault is accepted. Every node's process and
    /// stable logs stay readable. Idempotent.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Node name (diagnostics).
    pub fn node_name(&self, node: NodeId) -> &'static str {
        self.kernel.node_name(node)
    }

    /// Read access to a node's process: `None` while the node is crashed.
    /// Pair with [`Process::as_any`] to downcast — test and harness
    /// introspection only, never a protocol channel.
    pub fn process_ref(&self, node: NodeId) -> Option<&dyn Process> {
        self.kernel.process_ref(node)
    }

    /// A node's stable storage, which survives its crashes.
    pub fn storage(&self, node: NodeId) -> &StableStorage {
        self.kernel.storage(node)
    }

    /// A copy of the run's trace. [`Host::trace`] lends the same trace in
    /// place; this remains for callers that want it owned.
    pub fn trace_snapshot(&self) -> Trace {
        self.kernel.trace().clone()
    }

    /// Steps every entry as it comes due until `pred` holds or the clock
    /// reaches `deadline`; with nothing due, sleeps until the next entry
    /// or `deadline`. `pred` is checked before every step, so a run that
    /// made it hold returns before it sleeps. A stopped host runs nothing.
    fn drive(&mut self, deadline: Time, pred: &mut dyn FnMut(&Trace) -> bool) -> RunOutcome {
        self.start();
        loop {
            if pred(self.kernel.trace()) {
                return RunOutcome::Predicate;
            }
            let now = self.kernel.clock_mut().read();
            if self.stopped || now >= deadline {
                return RunOutcome::TimeLimit;
            }
            match self.kernel.next_at() {
                Some(at) if at <= now => {
                    self.kernel.step();
                }
                next => {
                    let until = next.map_or(deadline, |at| at.min(deadline));
                    std::thread::sleep(Duration::from_micros(until.since(now).0));
                }
            }
        }
    }
}

impl Host for ThreadedHost {
    fn add_node(&mut self, name: &'static str, factory: NodeFactory) -> NodeId {
        self.kernel.add_node(name, factory)
    }

    fn host_now(&self) -> Time {
        self.kernel.clock().elapsed()
    }

    fn run_trace_until(&mut self, mut pred: Box<dyn FnMut(&Trace) -> bool + '_>) -> RunOutcome {
        // The watchdog: a paused or wedged node must turn into a
        // diagnosable timeout, never a hung test run.
        self.drive(Time(self.wall_limit.as_micros() as u64), &mut pred)
    }

    fn quiesce_for(&mut self, extra: Dur) {
        self.start();
        let deadline = self.kernel.clock().elapsed() + extra;
        self.drive(deadline, &mut |_| false);
    }

    fn trace(&self) -> &Trace {
        self.kernel.trace()
    }

    fn stats(&self) -> &MsgStats {
        self.kernel.stats()
    }

    fn spans(&self) -> &SpanTotals {
        self.kernel.spans()
    }

    /// As on the simulator, from the clock's current reading (zero before
    /// the start); a stopped host refuses.
    fn schedule_fault(&mut self, when: NemesisWhen, op: FaultOp) -> Result<(), CapabilityError> {
        if self.stopped {
            return Err(CapabilityError::new("threaded (stopped)", op.label()));
        }
        let now = self.kernel.clock_mut().read();
        self.kernel.advance(now);
        self.kernel.schedule(when, op);
        Ok(())
    }
}

/// The behaviour suite of the kernel on both clocks: each test runs once
/// on the simulator (the virtual clock, its links a fixed 2 ms so they are
/// FIFO as the wall clock's are) and once on [`ThreadedHost`].
#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::ids::{RequestId, ResultId};
    use etx_base::msg::{FdMsg, Payload};
    use etx_base::runtime::{Context, Event, TimerTag};
    use etx_base::trace::{Component, TraceEvent, TraceKind};
    use etx_base::wal::{StableRecord, LOG_WAL};
    use etx_sim::Sim;
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    /// What the suite reads of a host beyond [`Host`].
    trait Probe: Host {
        fn clock(&self) -> &'static str;
        fn storage(&self, node: NodeId) -> &StableStorage;
        fn process_ref(&self, node: NodeId) -> Option<&dyn Process>;
    }

    impl Probe for Sim {
        fn clock(&self) -> &'static str {
            "virtual"
        }
        fn storage(&self, node: NodeId) -> &StableStorage {
            Kernel::storage(self, node)
        }
        fn process_ref(&self, node: NodeId) -> Option<&dyn Process> {
            Kernel::process_ref(self, node)
        }
    }

    impl Probe for ThreadedHost {
        fn clock(&self) -> &'static str {
            "wall"
        }
        fn storage(&self, node: NodeId) -> &StableStorage {
            ThreadedHost::storage(self, node)
        }
        fn process_ref(&self, node: NodeId) -> Option<&dyn Process> {
            ThreadedHost::process_ref(self, node)
        }
    }

    const WATCHDOG: Duration = Duration::from_secs(60);

    /// A fresh host on each clock; `limit` is the simulator's `max_time`
    /// and the wall clock's `wall_limit`.
    fn clocks(seed: u64, limit: Duration) -> [Box<dyn Probe>; 2] {
        let net = NetConfig::deterministic();
        let max_time = Time(limit.as_micros() as u64);
        let sim = Sim::new(SimConfig { net, max_time, ..SimConfig::with_seed(seed) });
        let wall = ThreadedConfig { wall_limit: limit, ..ThreadedConfig::with_seed(seed) };
        [Box::new(sim), Box::new(ThreadedHost::new(wall))]
    }

    fn rid(seq: u64) -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq })
    }

    fn notes(t: &Trace, what: &'static str) -> usize {
        t.count_kind(|k| *k == TraceKind::Note(what))
    }

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

    fn pinger(peer: u32, n: u64) -> NodeFactory {
        Box::new(move |_| Box::new(Pinger { peer: Some(NodeId(peer)), n }))
    }

    fn idle() -> NodeFactory {
        Box::new(|_| Box::new(Pinger { peer: None, n: 0 }))
    }

    fn pongs(t: &Trace) -> usize {
        notes(t, "pong")
    }

    #[test]
    fn messages_flow_between_threads() {
        for mut host in clocks(1, WATCHDOG) {
            host.add_node("a", pinger(1, 5));
            host.add_node("b", idle());
            let out = host.run_trace_until(Box::new(|t| pongs(t) == 5));
            assert_eq!(out, RunOutcome::Predicate, "{}", host.clock());
            assert_eq!(host.stats().sent("Heartbeat"), 5, "{}", host.clock());
        }
    }

    struct TimerBox;
    impl Process for TimerBox {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    ctx.set_timer(Dur::from_millis(5), TimerTag::CleanerTick);
                    let kill = ctx.set_timer(Dur::from_millis(1), TimerTag::BatchFlush);
                    ctx.cancel_timer(kill);
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
        for mut host in clocks(2, WATCHDOG) {
            host.add_node("t", Box::new(|_| Box::new(TimerBox)));
            let out = host.run_trace_until(Box::new(|t| notes(t, "tick") == 1));
            assert_eq!(out, RunOutcome::Predicate, "{}", host.clock());
            assert!(host.host_now() >= Time(5_000), "{}: a timer fired early", host.clock());
        }
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
        for mut host in clocks(2, WATCHDOG) {
            let clock = host.clock();
            host.add_node("t", Box::new(|_| Box::new(CancelBurst)));
            let armed = host.run_trace_until(Box::new(|t| notes(t, "armed") == 1));
            assert_eq!(armed, RunOutcome::Predicate, "{clock}");
            let ticked = host.run_trace_until(Box::new(|t| notes(t, "tick") == 1));
            assert_eq!(ticked, RunOutcome::Predicate, "{clock}");
        }
    }

    /// Charges a 5 µs `Sql` span per message, then notes it.
    struct Charger;
    impl Process for Charger {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Message { .. } = event {
                ctx.span(rid(1), Component::Sql, Dur(5));
                ctx.trace(TraceKind::Note("charged"));
            }
        }
    }

    fn charged(t: &Trace) -> usize {
        notes(t, "charged")
    }

    #[test]
    fn spans_are_summed_per_node_and_left_for_no_one_while_no_trigger_is_armed() {
        for mut host in clocks(16, WATCHDOG) {
            let clock = host.clock();
            host.add_node("a", pinger(1, 3));
            host.add_node("b", Box::new(|_| Box::new(Charger)));
            let out = host.run_trace_until(Box::new(|t| charged(t) == 3));
            assert_eq!(out, RunOutcome::Predicate, "{clock}");
            let spanned = host.trace().count_kind(|k| matches!(k, TraceKind::Span { .. }));
            assert_eq!(spanned, 0, "{clock}: a span was recorded for nobody");
            let spans = host.spans();
            assert_eq!((spans.count(Component::Sql), spans.total(Component::Sql)), (3, Dur(15)));
        }
    }

    #[test]
    fn a_span_fires_a_trigger_armed_before_start_and_survives_the_crash() {
        for mut host in clocks(17, WATCHDOG) {
            let clock = host.clock();
            host.add_node("a", pinger(1, 3));
            let b = host.add_node("b", Box::new(|_| Box::new(Charger)));
            let on_sql =
                |ev: &TraceEvent| matches!(ev.kind, TraceKind::Span { comp: Component::Sql, .. });
            host.schedule_fault(NemesisWhen::on_trace(on_sql), FaultOp::Crash(b)).unwrap();
            let crashed = |t: &Trace| t.count_kind(|k| *k == TraceKind::Crash) == 1;
            assert_eq!(host.run_trace_until(Box::new(crashed)), RunOutcome::Predicate, "{clock}");
            host.quiesce_for(Dur::from_millis(10));
            assert_eq!(charged(host.trace()), 1, "{clock}: the crash came after the first span");
            assert_eq!(host.spans().count(Component::Sql), 1, "{clock}: the crashed node's span");
            assert_eq!(host.trace().count_kind(|k| matches!(k, TraceKind::Span { .. })), 0);
        }
    }

    /// Whatever comes after a crash — another run call, a quiesce —
    /// nothing is counted twice or lost.
    #[test]
    fn totals_count_each_message_and_span_once_across_boundaries_and_a_crash() {
        for mut host in clocks(20, WATCHDOG) {
            let clock = host.clock();
            host.add_node("a", pinger(1, 5));
            let b = host.add_node("b", Box::new(|_| Box::new(Charger)));
            // `b` crashes after its fifth span.
            let seen = Cell::new(0);
            let fifth = move |ev: &TraceEvent| {
                seen.set(seen.get() + usize::from(ev.kind == TraceKind::Note("charged")));
                seen.get() == 5
            };
            host.schedule_fault(NemesisWhen::on_trace(fifth), FaultOp::Crash(b)).unwrap();
            let once = |host: &dyn Probe, when: &str| {
                let (sent, sql) =
                    (host.stats().sent("Heartbeat"), host.spans().count(Component::Sql));
                assert_eq!((sent, sql), (5, 5), "{clock}, {when}: sent, spans");
            };
            let crashed = |t: &Trace| t.count_kind(|k| *k == TraceKind::Crash) == 1;
            assert_eq!(host.run_trace_until(Box::new(crashed)), RunOutcome::Predicate, "{clock}");
            once(&*host, "run");
            host.quiesce_for(Dur::from_millis(2));
            once(&*host, "first quiesce");
            host.quiesce_for(Dur::from_millis(2));
            once(&*host, "second quiesce");
        }
    }

    struct Durable;
    impl Process for Durable {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Init = event {
                let d = ctx.log_append(LOG_WAL, StableRecord::CoordStart { rid: rid(1) }, true);
                assert!(d > Dur::ZERO, "forced writes cost modelled time");
                assert_eq!(ctx.log_read(LOG_WAL).len(), 1, "read-your-append");
                ctx.trace(TraceKind::Note("logged"));
            }
        }
    }

    #[test]
    fn stable_logs_survive_to_introspection() {
        for mut host in clocks(3, WATCHDOG) {
            let n = host.add_node("d", Box::new(|_| Box::new(Durable)));
            host.run_trace_until(Box::new(|t| notes(t, "logged") == 1));
            assert_eq!(host.storage(n).len(LOG_WAL), 1, "{}", host.clock());
            assert!(host.process_ref(n).is_some(), "{}", host.clock());
        }
    }

    /// A wall-clock host takes faults before it starts and refuses them
    /// once stopped (the simulator never stops).
    #[test]
    fn fault_plane_is_supported() {
        let mut host = ThreadedHost::new(ThreadedConfig::default());
        let crash = FaultOp::Crash(NodeId(0));
        assert!(host.schedule_fault(NemesisWhen::After(Dur::from_millis(1)), crash).is_ok());
        host.stop();
        let err = host
            .schedule_fault(NemesisWhen::Now, FaultOp::Pause(NodeId(0)))
            .expect_err("stopped host must refuse");
        assert_eq!(err.op, "pause");
    }

    /// Crash + recover through the fault plane: volatile state is wiped,
    /// stable logs survive, the restarted incarnation sees
    /// `Event::Recovered`.
    struct CrashDummy {
        lives: u32,
    }
    impl Process for CrashDummy {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {
                    ctx.log_append(LOG_WAL, StableRecord::CoordStart { rid: rid(9) }, false);
                    ctx.trace(TraceKind::Note("init"));
                }
                Event::Recovered => {
                    assert_eq!(self.lives, 0, "factory must rebuild volatile state from scratch");
                    self.lives += 1;
                    assert!(!ctx.log_read(LOG_WAL).is_empty(), "stable log must survive the crash");
                    ctx.trace(TraceKind::Note("reborn"));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn crash_preserves_stable_logs_and_recovers() {
        for mut host in clocks(7, WATCHDOG) {
            let clock = host.clock();
            let n = host.add_node("c", Box::new(|_| Box::new(CrashDummy { lives: 0 })));
            host.schedule_fault(
                NemesisWhen::on_trace(|ev| ev.kind == TraceKind::Note("init")),
                FaultOp::CrashFor { node: n, down_for: Dur::from_millis(5) },
            )
            .unwrap();
            let out = host.run_trace_until(Box::new(|t| notes(t, "reborn") == 1));
            assert_eq!(out, RunOutcome::Predicate, "{clock}");
            assert_eq!(host.trace().count_kind(|k| *k == TraceKind::Crash), 1, "{clock}");
            assert_eq!(host.trace().count_kind(|k| *k == TraceKind::Recover), 1, "{clock}");
            assert_eq!(host.storage(n).len(LOG_WAL), 1, "{clock}: the log survives the crash");
        }
    }

    #[test]
    fn paused_node_stalls_and_resume_drains_the_backlog() {
        for mut host in clocks(8, WATCHDOG) {
            let clock = host.clock();
            host.add_node("a", pinger(1, 5));
            let b = host.add_node("b", idle());
            host.schedule_fault(NemesisWhen::Now, FaultOp::Pause(b)).unwrap();
            host.quiesce_for(Dur::from_millis(5));
            assert_eq!(pongs(host.trace()), 0, "{clock}: a paused node ran");
            let resume = FaultOp::Resume(b);
            host.schedule_fault(NemesisWhen::After(Dur::from_millis(10)), resume).unwrap();
            let out = host.run_trace_until(Box::new(|t| pongs(t) == 5));
            assert_eq!(out, RunOutcome::Predicate, "{clock}: resume must release the backlog");
            assert_eq!(host.trace().count_kind(|k| *k == TraceKind::Pause), 1, "{clock}");
            assert_eq!(host.trace().count_kind(|k| *k == TraceKind::Resume), 1, "{clock}");
        }
    }

    #[test]
    fn dropping_link_fault_holds_traffic_until_healed() {
        for mut host in clocks(9, WATCHDOG) {
            let clock = host.clock();
            let a = host.add_node("a", pinger(1, 4));
            let b = host.add_node("b", idle());
            host.schedule_fault(NemesisWhen::Now, FaultOp::CutLink { from: a, to: b }).unwrap();
            host.quiesce_for(Dur::from_millis(30));
            assert_eq!(pongs(host.trace()), 0, "{clock}: nothing crosses a cut link");
            assert_eq!(host.stats().dropped_on_link(), 4, "{clock}");
            // Heal: the held pings arrive late — loss was delay.
            host.schedule_fault(NemesisWhen::Now, FaultOp::HealLink { from: a, to: b }).unwrap();
            let out = host.run_trace_until(Box::new(|t| pongs(t) == 4));
            assert_eq!(out, RunOutcome::Predicate, "{clock}: a healed link delivers what it held");
        }
    }

    struct Panicker;
    impl Process for Panicker {
        fn on_event(&mut self, _ctx: &mut dyn Context, event: Event) {
            if let Event::Message { .. } = event {
                panic!("injected handler panic");
            }
        }
    }

    /// A handler's panic is the node's bug: it unwinds out of the run call
    /// that ran the handler.
    fn panic_in_a_handler(mut host: Box<dyn Probe>) {
        host.add_node("a", pinger(1, 1));
        host.add_node("victim", Box::new(|_| Box::new(Panicker)));
        host.quiesce_for(Dur::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "injected handler panic")]
    fn a_handler_panic_unwinds_out_of_the_run_call_on_the_virtual_clock() {
        let [sim, _] = clocks(10, WATCHDOG);
        panic_in_a_handler(sim);
    }

    #[test]
    #[should_panic(expected = "injected handler panic")]
    fn a_handler_panic_unwinds_out_of_the_run_call_on_the_wall_clock() {
        let [_, wall] = clocks(10, WATCHDOG);
        panic_in_a_handler(wall);
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

    /// The predicate is checked before the run waits: a host that made it
    /// hold and then went idle returns at once, not at the next entry or
    /// the watchdog.
    #[test]
    fn a_run_returns_promptly_when_its_predicate_holds_and_the_host_goes_idle() {
        for mut host in clocks(22, Duration::from_secs(5)) {
            host.add_node("d", Box::new(|_| Box::new(DoneThenIdle)));
            let started = Instant::now();
            let out = host.run_trace_until(Box::new(|t| notes(t, "done") == 1));
            assert_eq!(out, RunOutcome::Predicate, "{}", host.clock());
            assert!(host.host_now() < Time(1_000_000), "{}: the clock ran on", host.clock());
            let took = started.elapsed();
            assert!(took < Duration::from_secs(1), "{}: returned after {took:?}", host.clock());
        }
    }

    /// Arms a 1 ms timer over and over.
    struct Forever;
    impl Process for Forever {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Init | Event::Timer { .. } = event {
                ctx.set_timer(Dur::from_millis(1), TimerTag::CleanerTick);
            }
        }
    }

    #[test]
    fn run_times_out_when_predicate_never_holds() {
        for mut host in clocks(4, Duration::from_millis(50)) {
            host.add_node("a", Box::new(|_| Box::new(Forever)));
            let out = host.run_trace_until(Box::new(|_| false));
            assert_eq!(out, RunOutcome::TimeLimit, "{}", host.clock());
        }
    }

    /// Checks, on every message, that no other handler of this node is
    /// running and that each sender's sequence numbers only go up.
    struct Exclusive {
        busy: Rc<Cell<bool>>,
        last: BTreeMap<NodeId, u64>,
        violations: Rc<Cell<usize>>,
        handled: Rc<Cell<usize>>,
    }
    impl Process for Exclusive {
        fn on_event(&mut self, _ctx: &mut dyn Context, event: Event) {
            let Event::Message { from, payload: Payload::Fd(FdMsg::Heartbeat { seq }) } = event
            else {
                return;
            };
            let overlapped = self.busy.replace(true);
            let reordered = self.last.insert(from, seq).is_some_and(|prev| prev >= seq);
            if overlapped || reordered {
                self.violations.set(self.violations.get() + 1);
            }
            self.busy.set(false);
            self.handled.set(self.handled.get() + 1);
        }
    }

    #[test]
    fn one_handler_per_node_at_a_time_and_fifo_per_link() {
        const PER_SENDER: u64 = 3_000;
        for mut host in clocks(12, WATCHDOG) {
            let (busy, violations, handled) = (Rc::default(), Rc::default(), Rc::default());
            let (b, v, h) = (Rc::clone(&busy), Rc::clone(&violations), Rc::clone(&handled));
            host.add_node(
                "receiver",
                Box::new(move |_| {
                    Box::new(Exclusive {
                        busy: Rc::clone(&b),
                        last: BTreeMap::new(),
                        violations: Rc::clone(&v),
                        handled: Rc::clone(&h),
                    })
                }),
            );
            for _ in 0..3 {
                host.add_node("sender", pinger(0, PER_SENDER));
            }
            let all = 3 * PER_SENDER as usize;
            let count = Rc::clone(&handled);
            let out = host.run_trace_until(Box::new(move |_| count.get() == all));
            assert_eq!(out, RunOutcome::Predicate, "{}", host.clock());
            assert_eq!(violations.get(), 0, "{}", host.clock());
            assert!(!busy.get());
        }
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
        early: Rc<Cell<bool>>,
        worst_late: Rc<Cell<u64>>,
    }
    impl Process for Ticker {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            match event {
                Event::Init => {}
                Event::Timer { .. } => {
                    if ctx.now() < self.due {
                        self.early.set(true);
                    }
                    let late = ctx.now().0.saturating_sub(self.due.0);
                    self.worst_late.set(self.worst_late.get().max(late));
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

    /// Two nodes bounce a message as fast as they can while a third ticks:
    /// its timers stay on time, because a send is queued at the sender's
    /// `now` and so behind every timer already due.
    #[test]
    fn timers_are_served_while_every_worker_is_busy() {
        let until = Time(50_000);
        for mut host in clocks(13, WATCHDOG) {
            let clock = host.clock();
            let (early, worst_late) = (Rc::new(Cell::new(false)), Rc::new(Cell::new(0)));
            host.add_node(
                "ping",
                Box::new(move |_| Box::new(Bouncer { kick: Some(NodeId(1)), until })),
            );
            host.add_node("pong", Box::new(move |_| Box::new(Bouncer { kick: None, until })));
            let (e, w) = (Rc::clone(&early), Rc::clone(&worst_late));
            host.add_node(
                "ticker",
                Box::new(move |_| {
                    Box::new(Ticker {
                        until,
                        due: Time::ZERO,
                        early: Rc::clone(&e),
                        worst_late: Rc::clone(&w),
                    })
                }),
            );
            let out = host.run_trace_until(Box::new(|t| notes(t, "done") == 2));
            assert_eq!(out, RunOutcome::Predicate, "{clock}");
            assert!(!early.get(), "{clock}: a timer fired before it was due");
            // The failure detector's 200 ms timeout must be out of starvation's reach.
            let worst = worst_late.get();
            assert!(worst < 20_000, "{clock}: a 1 ms timer fired {worst} us late under saturation");
        }
    }

    /// Counts the messages it handles.
    struct Counter {
        handled: Rc<Cell<usize>>,
    }
    impl Process for Counter {
        fn on_event(&mut self, _ctx: &mut dyn Context, event: Event) {
            if let Event::Message { .. } = event {
                self.handled.set(self.handled.get() + 1);
            }
        }
    }

    /// Sends 20 messages to `to` every 100 µs until `total` are out.
    struct Drip {
        to: NodeId,
        total: usize,
        sent: Rc<Cell<usize>>,
    }
    impl Process for Drip {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if !matches!(event, Event::Init | Event::Timer { .. }) {
                return;
            }
            let sent = self.sent.get();
            let burst = (self.total - sent).min(20);
            for seq in 0..burst as u64 {
                ctx.send(self.to, Payload::Fd(FdMsg::Heartbeat { seq }));
            }
            self.sent.set(sent + burst);
            if sent + burst < self.total {
                ctx.set_timer(Dur::from_micros(100), TimerTag::CleanerTick);
            }
        }
    }

    #[test]
    fn no_handler_runs_between_pause_returning_and_resume() {
        const TOTAL: usize = 4_000;
        for mut host in clocks(14, WATCHDOG) {
            let clock = host.clock();
            let (handled, sent) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
            let h = Rc::clone(&handled);
            let n = host.add_node(
                "counter",
                Box::new(move |_| Box::new(Counter { handled: Rc::clone(&h) })),
            );
            let s = Rc::clone(&sent);
            host.add_node(
                "drip",
                Box::new(move |_| Box::new(Drip { to: n, total: TOTAL, sent: Rc::clone(&s) })),
            );
            let first = Rc::clone(&handled);
            host.run_trace_until(Box::new(move |_| first.get() > 0));
            host.schedule_fault(NemesisWhen::Now, FaultOp::Pause(n)).unwrap();
            let (handled_at_pause, sent_at_pause) = (handled.get(), sent.get());
            // Quiesce in steps until the drip has sent again: on a loaded
            // machine one wall-clock step may run no handler at all.
            let started = Instant::now();
            while sent.get() == sent_at_pause && started.elapsed() < WATCHDOG {
                host.quiesce_for(Dur::from_millis(10));
            }
            assert!(sent.get() > sent_at_pause, "{clock}: the flood must go on");
            assert_eq!(handled.get(), handled_at_pause, "{clock}: a paused node ran");
            host.schedule_fault(NemesisWhen::Now, FaultOp::Resume(n)).unwrap();
            let all = Rc::clone(&handled);
            let out = host.run_trace_until(Box::new(move |_| all.get() == TOTAL));
            assert_eq!(out, RunOutcome::Predicate, "{clock}: resume must drain the whole backlog");
        }
    }

    /// Appends two stable records per message, 2 ms apart.
    struct TwoStep;
    impl Process for TwoStep {
        fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
            if let Event::Message { .. } = event {
                ctx.log_append(LOG_WAL, StableRecord::CoordStart { rid: rid(1) }, false);
                ctx.trace(TraceKind::Note("mid"));
                std::thread::sleep(Duration::from_millis(2));
                ctx.log_append(LOG_WAL, StableRecord::CoordStart { rid: rid(1) }, false);
            }
        }
    }

    #[test]
    fn crash_waits_out_the_handler_in_flight() {
        for mut host in clocks(15, WATCHDOG) {
            host.add_node("a", pinger(1, 5));
            let victim = host.add_node("victim", Box::new(|_| Box::new(TwoStep)));
            host.schedule_fault(
                NemesisWhen::on_trace(|ev| ev.kind == TraceKind::Note("mid")),
                FaultOp::Crash(victim),
            )
            .unwrap();
            let crashed = |t: &Trace| t.count_kind(|k| *k == TraceKind::Crash) == 1;
            assert_eq!(host.run_trace_until(Box::new(crashed)), RunOutcome::Predicate);
            let survived = host.storage(victim).len(LOG_WAL);
            assert_eq!(survived, 2, "{}: the crash tore the handler's pair", host.clock());
        }
    }

    /// Traces `SpecAbort { slot }` for slot 0, 1, 2, … up to `total`, 100
    /// a handler, each handler ending in a message to itself that queues
    /// the next; notes "done" after the last.
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
        for mut host in clocks(18, WATCHDOG) {
            let clock = host.clock();
            for _ in 0..NODES {
                host.add_node(
                    "numbered",
                    Box::new(|_| Box::new(Numbered { next: 0, total: EACH })),
                );
            }
            let out = host.run_trace_until(Box::new(|t| notes(t, "done") == NODES));
            assert_eq!(out, RunOutcome::Predicate, "{clock}");
            let events = host.trace().events();
            assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "{clock}: back in time");
            let mut next = [0; NODES];
            for e in events {
                if let TraceKind::SpecAbort { slot } = e.kind {
                    let expected = &mut next[e.node.0 as usize];
                    assert_eq!(slot, *expected, "{clock}: {:?} traced out of its order", e.node);
                    *expected += 1;
                }
            }
            assert_eq!(next, [EACH; NODES], "{clock}: an event was lost");
        }
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
    /// arms `OnTrace("x") → Crash` on each clock and returns the crashes.
    fn crashes_after_arming_on_a_pending_x(seed: u64, beside_another: bool) -> [usize; 2] {
        clocks(seed, WATCHDOG).map(|mut host| {
            let n = host.add_node("x", Box::new(|_| Box::new(NotesTwice)));
            let xs = |t: &Trace| notes(t, "x");
            assert_eq!(host.run_trace_until(Box::new(move |t| xs(t) >= 1)), RunOutcome::Predicate);
            if beside_another {
                host.schedule_fault(NemesisWhen::on_trace(|_| false), FaultOp::Crash(n)).unwrap();
            }
            assert_eq!(host.run_trace_until(Box::new(move |t| xs(t) >= 2)), RunOutcome::Predicate);
            let is_x = |ev: &TraceEvent| ev.kind == TraceKind::Note("x");
            host.schedule_fault(NemesisWhen::on_trace(is_x), FaultOp::Crash(n)).unwrap();
            host.quiesce_for(Dur::from_millis(20));
            assert_eq!(xs(host.trace()), 2, "{}", host.clock());
            host.trace().count_kind(|k| *k == TraceKind::Crash)
        })
    }

    #[test]
    fn a_trigger_never_fires_on_an_event_traced_before_it_was_armed() {
        let crashes = crashes_after_arming_on_a_pending_x(19, false);
        assert_eq!(crashes, [0, 0], "a trigger fired on an event traced before it was armed");
    }

    /// The pending event is offered to the trigger armed before it only.
    #[test]
    fn a_trigger_armed_beside_another_never_fires_on_an_event_pending_at_its_arming() {
        let crashes = crashes_after_arming_on_a_pending_x(21, true);
        assert_eq!(crashes, [0, 0], "a trigger fired on an event pending when it was armed");
    }
}
