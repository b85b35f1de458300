//! Causal-depth tracking: the mechanism behind the Figure 7 step counts.
//! A chain of relays must see depth grow by exactly one per hop; timer
//! continuations inherit the arming event's depth; background traffic
//! stays at depth zero.

use etx_base::ids::{NodeId, RequestId, ResultId};
use etx_base::msg::{FdMsg, Payload, PbMsg};
use etx_base::runtime::{Context, Event, Process, TimerTag};
use etx_base::time::{Dur, Time};
use etx_base::trace::TraceKind;
use etx_sim::{Sim, SimConfig};

fn rid() -> ResultId {
    ResultId::first(RequestId { client: NodeId(0), seq: 1 })
}

/// Relays a protocol message down a chain, probing observed depth through
/// the `steps` field of a Deliver trace event.
struct Relay {
    next: Option<NodeId>,
}

impl Process for Relay {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init if ctx.me() == NodeId(0) => {
                // Kick the chain with a protocol (non-background) message.
                ctx.send(NodeId(1), Payload::Pb(PbMsg::AckStart { rid: rid() }));
            }
            Event::Message { payload: Payload::Pb(_), .. } => {
                ctx.trace(TraceKind::Deliver {
                    rid: rid(),
                    outcome: etx_base::value::Outcome::Commit,
                    steps: ctx.depth(),
                });
                if let Some(next) = self.next {
                    ctx.send(next, Payload::Pb(PbMsg::AckStart { rid: rid() }));
                }
            }
            _ => {}
        }
    }
}

#[test]
fn depth_grows_one_per_hop() {
    let mut sim = Sim::new(SimConfig::with_seed(1));
    for i in 0..5u32 {
        let next = if i < 4 { Some(NodeId(i + 1)) } else { None };
        sim.add_node("relay", Box::new(move |_| Box::new(Relay { next })));
    }
    sim.run_until_time(Time(60_000));
    let depths: Vec<u32> = sim
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Deliver { steps, .. } => Some(steps),
            _ => None,
        })
        .collect();
    assert_eq!(depths, vec![1, 2, 3, 4], "one step per hop");
}

/// A timer continuation must inherit the depth of the event that armed it.
struct TimerChain;

impl Process for TimerChain {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init if ctx.me() == NodeId(0) => {
                ctx.send(NodeId(1), Payload::Pb(PbMsg::AckStart { rid: rid() }));
            }
            Event::Message { payload: Payload::Pb(_), .. } => {
                // Defer the next step through a timer (like a service cost).
                ctx.set_timer(Dur::from_millis(1), TimerTag::CleanerTick);
            }
            Event::Timer { .. } => {
                ctx.trace(TraceKind::Deliver {
                    rid: rid(),
                    outcome: etx_base::value::Outcome::Commit,
                    steps: ctx.depth(),
                });
            }
            _ => {}
        }
    }
}

#[test]
fn timer_continuations_preserve_causal_depth() {
    let mut sim = Sim::new(SimConfig::with_seed(2));
    sim.add_node("a", Box::new(|_| Box::new(TimerChain)));
    sim.add_node("b", Box::new(|_| Box::new(TimerChain)));
    sim.run_until_time(Time(60_000));
    let depth = sim
        .trace()
        .events()
        .iter()
        .find_map(|e| match e.kind {
            TraceKind::Deliver { steps, .. } => Some(steps),
            _ => None,
        })
        .unwrap();
    // The message arrived at depth 1; the timer continues at depth 1
    // (service time adds latency, not a communication step).
    assert_eq!(depth, 1);
}

/// Heartbeats are background: they never contribute depth.
struct Beater;

impl Process for Beater {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init => {
                ctx.send(NodeId(1 - ctx.me().0), Payload::Fd(FdMsg::Heartbeat { seq: 0 }));
            }
            Event::Message { payload: Payload::Fd(_), .. } => {
                ctx.trace(TraceKind::Deliver {
                    rid: rid(),
                    outcome: etx_base::value::Outcome::Commit,
                    steps: ctx.depth(),
                });
            }
            _ => {}
        }
    }
}

#[test]
fn background_messages_have_zero_depth() {
    let mut sim = Sim::new(SimConfig::with_seed(3));
    sim.add_node("a", Box::new(|_| Box::new(Beater)));
    sim.add_node("b", Box::new(|_| Box::new(Beater)));
    sim.run_until_time(Time(60_000));
    let depths: Vec<u32> = sim
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Deliver { steps, .. } => Some(steps),
            _ => None,
        })
        .collect();
    assert!(!depths.is_empty());
    assert!(depths.iter().all(|&d| d == 0), "{depths:?}");
}

/// Explicit-depth sends (`send_at_depth`) override the automatic rule —
/// the aggregation hook protocols use after wait-for-all points.
struct Aggregator;

impl Process for Aggregator {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init if ctx.me() == NodeId(0) => {
                ctx.send_at_depth(9, NodeId(1), Payload::Pb(PbMsg::AckStart { rid: rid() }));
            }
            Event::Message { payload: Payload::Pb(_), .. } => {
                ctx.trace(TraceKind::Deliver {
                    rid: rid(),
                    outcome: etx_base::value::Outcome::Commit,
                    steps: ctx.depth(),
                });
            }
            _ => {}
        }
    }
}

#[test]
fn explicit_depth_override() {
    let mut sim = Sim::new(SimConfig::with_seed(4));
    sim.add_node("a", Box::new(|_| Box::new(Aggregator)));
    sim.add_node("b", Box::new(|_| Box::new(Aggregator)));
    sim.run_until_time(Time(60_000));
    let depth = sim
        .trace()
        .events()
        .iter()
        .find_map(|e| match e.kind {
            TraceKind::Deliver { steps, .. } => Some(steps),
            _ => None,
        })
        .unwrap();
    assert_eq!(depth, 10, "explicit base depth 9 + one hop");
}
