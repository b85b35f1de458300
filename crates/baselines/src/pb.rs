//! Primary-backup e-Transactions (Appendix 3, Figure 7c).
//!
//! The comparison protocol the authors adapted from their tech report \[18\]:
//! a primary application server processes requests and synchronously ships
//! the *processing state* to a single backup — a `Start` record before
//! touching the databases and an `Outcome` record once the votes are in.
//! On a primary crash the backup finishes in-flight work: attempts with a
//! recorded outcome are completed, attempts without one are aborted.
//!
//! The catch — and the paper's point — is that this design **requires a
//! perfect failure detector**: if the backup takes over while the primary
//! is actually alive, both may decide, and with no wo-register to
//! arbitrate, they can decide *differently*. Here the perfection comes from
//! the simulator's crash oracle ([`Context::subscribe_node_events`]);
//! no real asynchronous network can provide it, which is why the paper's
//! protocol exists.
//!
//! Failure-free latency components are identical to the asynchronous
//! replication scheme (the paper skips measuring it for that reason): the
//! two backup round trips take the place of the two wo-register writes.

use etx_base::config::CostModel;
use etx_base::ids::{NodeId, RequestId, ResultId};
use etx_base::msg::{AppMsg, ClientMsg, DbReplyMsg, Payload, PbMsg};
use etx_base::runtime::{jittered, Context, Event, Process, TimerTag};
use etx_base::time::{Dur, Time};
use etx_base::trace::Component;
use etx_base::value::{Decision, Outcome, Request};
use etx_core::xa::{Entered, Step, Xa};
use std::collections::BTreeMap;

/// Role of a [`PbServer`] at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbRole {
    /// Handles requests.
    Primary,
    /// Mirrors the primary's processing state; takes over on its crash.
    Backup,
}

/// `Xa` is the attempt at the databases: computing, collecting votes or
/// pushing the decision; the other phases are what this protocol adds.
#[derive(Debug)]
enum Phase {
    AwaitingStartAck { request: Request, t0: Time },
    Xa(Xa),
    AwaitingOutcomeAck { decision: Decision, involved: Vec<NodeId>, t0: Time },
    Done { decision: Decision },
}

/// One of the two application servers in the primary-backup scheme.
#[derive(Debug)]
pub struct PbServer {
    role: PbRole,
    peer: NodeId,
    peer_up: bool,
    dlist: Vec<NodeId>,
    cost: CostModel,
    /// How often an unacknowledged decision is pushed again.
    terminate_retry: Dur,
    /// Ordered, like the mirror: a database's `Ready` and the backup's
    /// take-over walk the attempts the same way on every run.
    attempts: BTreeMap<ResultId, Phase>,
    /// Backup-side mirror of the primary's processing state.
    mirror_start: BTreeMap<ResultId, Request>,
    mirror_outcome: BTreeMap<ResultId, Decision>,
    committed_cache: BTreeMap<RequestId, (ResultId, Decision)>,
}

impl PbServer {
    /// Creates a primary or backup over the given databases, re-pushing an
    /// unacknowledged decision every `terminate_retry`.
    pub fn new(
        role: PbRole,
        peer: NodeId,
        dlist: Vec<NodeId>,
        cost: CostModel,
        terminate_retry: Dur,
    ) -> Self {
        PbServer {
            role,
            peer,
            peer_up: true,
            dlist,
            cost,
            terminate_retry,
            attempts: BTreeMap::new(),
            mirror_start: BTreeMap::new(),
            mirror_outcome: BTreeMap::new(),
            committed_cache: BTreeMap::new(),
        }
    }

    // ---- primary side ------------------------------------------------------

    fn on_request(&mut self, ctx: &mut dyn Context, request: Request, attempt: u32) {
        if self.role == PbRole::Backup {
            // Not ours to serve (a broadcast reached us while the primary
            // is alive). If the primary is gone we have been promoted and
            // `role` is already Primary.
            return;
        }
        let rid = ResultId { request: request.id, attempt };
        let answer = match (self.committed_cache.get(&request.id), self.attempts.get(&rid)) {
            (Some((crid, decision)), _) => Some((*crid, decision.clone())),
            (None, Some(Phase::Done { decision })) => Some((rid, decision.clone())),
            (None, Some(_)) => return, // in flight
            (None, None) => None,
        };
        if let Some((rid, decision)) = answer {
            let result = AppMsg::Result { rid, decision, stamps: Vec::new() };
            ctx.send(request.id.client, Payload::App(result));
            return;
        }
        let dur = jittered(ctx, self.cost.start, self.cost.jitter);
        ctx.span(rid, Component::Start, dur);
        self.attempts.insert(rid, Phase::AwaitingStartAck { request, t0: ctx.now() });
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 0 });
    }

    fn ship_start(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::AwaitingStartAck { request, t0 }) = self.attempts.get_mut(&rid) else {
            return;
        };
        *t0 = ctx.now();
        if self.peer_up {
            let request = request.clone();
            ctx.send(self.peer, Payload::Pb(PbMsg::Start { rid, request }));
        } else {
            // Solo mode: no backup left to mirror to.
            self.begin_exec(ctx, rid);
        }
    }

    fn begin_exec(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::AwaitingStartAck { request, .. }) = self.attempts.get(&rid) else { return };
        let next = Xa::compute(ctx, rid, request.clone(), true, 0);
        self.enter(ctx, rid, next);
    }

    fn xa_mut(&mut self, rid: ResultId) -> Option<&mut Xa> {
        match self.attempts.get_mut(&rid)? {
            Phase::Xa(xa) => Some(xa),
            _ => None,
        }
    }

    /// The attempt enters a database-facing stage — which may have nobody
    /// to wait for and end at once.
    fn enter(&mut self, ctx: &mut dyn Context, rid: ResultId, (xa, step): Entered) {
        self.attempts.insert(rid, Phase::Xa(xa));
        self.on_step(ctx, rid, step);
    }

    /// A stage of `rid` ended (if `step` says so). What primary-backup puts
    /// between the stages is the outcome's round trip to the backup.
    fn on_step(&mut self, ctx: &mut dyn Context, rid: ResultId, step: Option<Step>) {
        match step {
            None => {}
            Some(Step::Computed { result, involved, .. }) => {
                let next = Xa::prepare(ctx, rid, result, involved);
                self.enter(ctx, rid, next);
            }
            Some(Step::Voted { decision, targets: involved }) => {
                let (mirrored, t0) = (decision.clone(), ctx.now());
                let waiting = Phase::AwaitingOutcomeAck { decision: mirrored, involved, t0 };
                self.attempts.insert(rid, waiting);
                if self.peer_up {
                    ctx.send(self.peer, Payload::Pb(PbMsg::Outcome { rid, decision }));
                } else {
                    self.begin_decide(ctx, rid);
                }
            }
            Some(Step::Terminated { decision, .. }) => {
                if decision.outcome == Outcome::Commit {
                    self.committed_cache.insert(rid.request, (rid, decision.clone()));
                }
                self.attempts.insert(rid, Phase::Done { decision: decision.clone() });
                let dur = jittered(ctx, self.cost.end, self.cost.jitter);
                ctx.span(rid, Component::End, dur);
                let result = AppMsg::Result { rid, decision, stamps: Vec::new() };
                ctx.send_after(dur, rid.request.client, Payload::App(result));
            }
        }
    }

    fn begin_decide(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::AwaitingOutcomeAck { decision, involved, .. }) = self.attempts.get(&rid)
        else {
            return;
        };
        let (decision, targets) = (decision.clone(), involved.clone());
        let next = Xa::terminate(ctx, rid, decision, targets, self.terminate_retry, true);
        self.enter(ctx, rid, next);
    }

    // ---- backup side ---------------------------------------------------------

    fn on_pb(&mut self, ctx: &mut dyn Context, from: NodeId, msg: PbMsg) {
        match msg {
            PbMsg::Start { rid, request } => {
                self.mirror_start.insert(rid, request);
                ctx.send(from, Payload::Pb(PbMsg::AckStart { rid }));
            }
            PbMsg::Outcome { rid, decision } => {
                self.mirror_outcome.insert(rid, decision);
                ctx.send(from, Payload::Pb(PbMsg::AckOutcome { rid }));
            }
            PbMsg::AckStart { rid } => {
                if let Some(Phase::AwaitingStartAck { t0, .. }) = self.attempts.get(&rid) {
                    let dur = ctx.now().since(*t0);
                    ctx.span(rid, Component::LogStart, dur);
                    self.begin_exec(ctx, rid);
                }
            }
            PbMsg::AckOutcome { rid } => {
                if let Some(Phase::AwaitingOutcomeAck { t0, .. }) = self.attempts.get(&rid) {
                    let dur = ctx.now().since(*t0);
                    ctx.span(rid, Component::LogOutcome, dur);
                    self.begin_decide(ctx, rid);
                }
            }
        }
    }

    /// Fail-over (perfect-FD driven): complete mirrored work.
    fn take_over(&mut self, ctx: &mut dyn Context) {
        self.role = PbRole::Primary;
        self.peer_up = false;
        let rids: Vec<ResultId> = self.mirror_start.keys().copied().collect();
        for rid in rids {
            if self.attempts.contains_key(&rid) {
                continue;
            }
            let decision =
                self.mirror_outcome.get(&rid).cloned().unwrap_or_else(Decision::nil_abort);
            // Push the decision to every database (abort is presumed at
            // uninvolved servers, which keep nothing of a commit).
            let targets = self.dlist.clone();
            let next = Xa::terminate(ctx, rid, decision, targets, self.terminate_retry, true);
            self.enter(ctx, rid, next);
        }
    }
}

impl Process for PbServer {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init => {
                // The perfect failure detector the scheme cannot live
                // without — only an oracle can provide it.
                ctx.subscribe_node_events();
            }
            Event::NodeDown(n) if n == self.peer => {
                self.peer_up = false;
                if self.role == PbRole::Backup {
                    self.take_over(ctx);
                }
            }
            Event::NodeUp(n) if n == self.peer => {
                // Crash-stop model for app servers: a recovered peer rejoins
                // as a cold backup only in extensions; ignore here.
            }
            Event::Message {
                payload: Payload::Client(ClientMsg::Request { request, attempt, .. }),
                ..
            } => self.on_request(ctx, request, attempt),
            Event::Message { from, payload: Payload::Pb(m) } => self.on_pb(ctx, from, m),
            Event::Message { from, payload: Payload::DbReply(reply) } => match reply {
                DbReplyMsg::ExecReply { rid, status } => {
                    let step = self.xa_mut(rid).and_then(|xa| xa.exec_reply(ctx, rid, status));
                    self.on_step(ctx, rid, step);
                }
                DbReplyMsg::Vote { rid, vote } => {
                    let step = self.xa_mut(rid).and_then(|xa| xa.vote(from, vote));
                    self.on_step(ctx, rid, step);
                }
                DbReplyMsg::AckDecide { entries, .. } => {
                    for (rid, _) in entries {
                        let step = self.xa_mut(rid).and_then(|xa| xa.ack(ctx, from));
                        self.on_step(ctx, rid, step);
                    }
                }
                DbReplyMsg::Ready => {
                    let rids: Vec<ResultId> = self.attempts.keys().copied().collect();
                    for rid in rids {
                        let step = self.xa_mut(rid).and_then(|xa| xa.ready(ctx, rid, from));
                        self.on_step(ctx, rid, step);
                    }
                }
                _ => {}
            },
            Event::Timer { tag: TimerTag::Dispatch { rid, stage: 0 }, .. } => {
                self.ship_start(ctx, rid)
            }
            Event::Timer { tag: TimerTag::TerminateRetry { rid }, .. } => {
                let period = self.terminate_retry;
                if let Some(xa) = self.xa_mut(rid) {
                    xa.retry(ctx, rid, period);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "pb-server"
    }
}
