//! Presumed-nothing two-phase commit (Appendix 3, Figure 7b).
//!
//! One coordinator application server drives the classic protocol the paper
//! measures at +23% over the baseline:
//!
//! 1. **force-log a start record** (the "log-start" row: eager disk I/O);
//! 2. run the business logic;
//! 3. send `Prepare`, collect votes;
//! 4. **force-log the outcome** (the "log-outcome" row);
//! 5. send `Decide`, collect acks, answer the client.
//!
//! Guarantees: at-most-once. If the coordinator crashes between 3 and 5 the
//! databases stay **blocked** — prepared branches hold their locks until
//! the coordinator recovers and completes from its log (2PC is a blocking
//! protocol \[3\]). The client, meanwhile, has only a timeout. Both
//! weaknesses are demonstrated in the test-suite against identical fault
//! schedules where the e-Transaction protocol sails through.

use etx_base::config::CostModel;
use etx_base::ids::{NodeId, ResultId};
use etx_base::msg::{AppMsg, ClientMsg, DbReplyMsg, Payload};
use etx_base::runtime::{jittered, Context, Event, Process, TimerTag};
use etx_base::time::Dur;
use etx_base::trace::Component;
use etx_base::value::{Decision, Outcome, Request};
use etx_base::wal::{StableRecord, LOG_COORD};
use etx_core::xa::{Entered, Step, Xa};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `Xa` is the attempt at the databases: computing, collecting votes or
/// pushing the decision; the other phases are what this protocol adds.
#[derive(Debug)]
enum Phase {
    LoggingStart { request: Request },
    Xa(Xa),
    LoggingOutcome { decision: Decision, involved: Vec<NodeId> },
    Done { decision: Decision },
}

/// The 2PC coordinator process (also the application server).
#[derive(Debug)]
pub struct TpcServer {
    dlist: Vec<NodeId>,
    cost: CostModel,
    /// How often an unacknowledged decision is pushed again.
    terminate_retry: Dur,
    /// Ordered, so that a database's `Ready` walks the attempts the same
    /// way on every run.
    attempts: BTreeMap<ResultId, Phase>,
    /// Transactions completed by crash recovery: the client's connection
    /// died with the old incarnation, so no reply can be sent (the user is
    /// left with a timeout — the paper's §1 ambiguity).
    no_reply: BTreeSet<ResultId>,
}

impl TpcServer {
    /// Creates a 2PC coordinator over the given database list, re-pushing
    /// an unacknowledged decision every `terminate_retry`.
    pub fn new(dlist: Vec<NodeId>, cost: CostModel, terminate_retry: Dur) -> Self {
        let (attempts, no_reply) = (BTreeMap::new(), BTreeSet::new());
        TpcServer { dlist, cost, terminate_retry, attempts, no_reply }
    }

    fn on_request(&mut self, ctx: &mut dyn Context, request: Request, attempt: u32) {
        let rid = ResultId { request: request.id, attempt };
        match self.attempts.get(&rid) {
            Some(Phase::Done { decision }) => {
                let result = AppMsg::Result { rid, decision: decision.clone(), stamps: Vec::new() };
                ctx.send(rid.request.client, Payload::App(result));
                return;
            }
            Some(_) => return, // in flight
            None => {}
        }
        self.attempts.insert(rid, Phase::LoggingStart { request });
        let dur = jittered(ctx, self.cost.start, self.cost.jitter);
        ctx.span(rid, Component::Start, dur);
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 0 });
    }

    /// Stage 0: the forced start record ("presumed nothing", the paper's
    /// log-start ≈ 12.5 ms).
    fn log_start(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::LoggingStart { .. }) = self.attempts.get(&rid) else { return };
        let dur = ctx.log_append(LOG_COORD, StableRecord::CoordStart { rid }, true);
        ctx.span(rid, Component::LogStart, dur);
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 1 });
    }

    /// Stage 1: begin the business logic.
    fn begin_exec(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::LoggingStart { request }) = self.attempts.get(&rid) else { return };
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

    /// A stage of `rid` ended (if `step` says so). What 2PC puts between
    /// the stages is its forced log writes.
    fn on_step(&mut self, ctx: &mut dyn Context, rid: ResultId, step: Option<Step>) {
        match step {
            None => {}
            Some(Step::Computed { result, involved, .. }) => {
                let next = Xa::prepare(ctx, rid, result, involved);
                self.enter(ctx, rid, next);
            }
            // The forced outcome record (the paper's log-outcome ≈ 12.7 ms).
            Some(Step::Voted { decision, targets: involved }) => {
                let (outcome, result) = (decision.outcome, decision.result.as_deref().cloned());
                let record = StableRecord::CoordOutcome { rid, outcome, result };
                let dur = ctx.log_append(LOG_COORD, record, true);
                ctx.span(rid, Component::LogOutcome, dur);
                self.attempts.insert(rid, Phase::LoggingOutcome { decision, involved });
                ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 2 });
            }
            Some(Step::Terminated { decision, .. }) => {
                self.attempts.insert(rid, Phase::Done { decision: decision.clone() });
                // Completed by crash recovery: the database is unblocked,
                // but the client's connection is gone and the user hears
                // nothing.
                if !self.no_reply.contains(&rid) {
                    let dur = jittered(ctx, self.cost.end, self.cost.jitter);
                    ctx.span(rid, Component::End, dur);
                    let result = AppMsg::Result { rid, decision, stamps: Vec::new() };
                    ctx.send_after(dur, rid.request.client, Payload::App(result));
                }
            }
        }
    }

    /// Stage 2: push the decision.
    fn begin_decide(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::LoggingOutcome { decision, involved }) = self.attempts.get(&rid) else {
            return;
        };
        let (decision, targets) = (decision.clone(), involved.clone());
        let next = Xa::terminate(ctx, rid, decision, targets, self.terminate_retry, true);
        self.enter(ctx, rid, next);
    }

    /// Coordinator recovery (presumed nothing): a start record without an
    /// outcome means abort; an outcome record is pushed again until the
    /// databases acknowledge. This is what eventually *unblocks* the
    /// in-doubt databases — but only when the coordinator comes back.
    fn recover(&mut self, ctx: &mut dyn Context) {
        let mut started: Vec<ResultId> = Vec::new();
        let mut outcomes: BTreeMap<ResultId, Decision> = BTreeMap::new();
        for rec in ctx.log_read(LOG_COORD) {
            match rec {
                StableRecord::CoordStart { rid } => started.push(rid),
                StableRecord::CoordOutcome { rid, outcome, result } => {
                    outcomes.insert(rid, Decision { result: result.map(Arc::new), outcome });
                }
                _ => {}
            }
        }
        for rid in started {
            let decision =
                outcomes.remove(&rid).unwrap_or(Decision { result: None, outcome: Outcome::Abort });
            // Re-drive the decision; the involved set is unknown after the
            // crash, so push to every database (aborts are presumed, and a
            // server that never held the branch keeps nothing of a commit).
            self.no_reply.insert(rid);
            let targets = self.dlist.clone();
            let next = Xa::terminate(ctx, rid, decision, targets, self.terminate_retry, true);
            self.enter(ctx, rid, next);
        }
    }
}

impl Process for TpcServer {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Recovered => self.recover(ctx),
            Event::Message {
                payload: Payload::Client(ClientMsg::Request { request, attempt, .. }),
                ..
            } => self.on_request(ctx, request, attempt),
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
            Event::Timer { tag: TimerTag::Dispatch { rid, stage }, .. } => match stage {
                0 => self.log_start(ctx, rid),
                1 => self.begin_exec(ctx, rid),
                2 => self.begin_decide(ctx, rid),
                _ => {}
            },
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
        "tpc-coordinator"
    }
}
