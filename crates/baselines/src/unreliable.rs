//! The unreliable baseline protocol (Appendix 3, Figure 7a).
//!
//! One application server, no replication, no voting, no logging: execute
//! the business logic and one-phase-commit at each database. It offers *no*
//! guarantee — a crash anywhere loses the request, and with several
//! databases it is not even atomic. It exists as the latency floor the
//! paper's "cost of reliability" row is computed against.

use etx_base::config::CostModel;
use etx_base::ids::{NodeId, ResultId};
use etx_base::msg::{AppMsg, ClientMsg, DbMsg, DbReplyMsg, Payload};
use etx_base::runtime::{jittered, Context, Event, Process, TimerTag};
use etx_base::trace::Component;
use etx_base::value::{Decision, Request, ResultValue};
use etx_core::xa::{Step, Xa};
use std::collections::{BTreeMap, BTreeSet};

/// `Xa` is `compute()`, the one stage this server shares with the others.
#[derive(Debug)]
enum Phase {
    Dispatching {
        request: Request,
    },
    Xa(Xa),
    Committing {
        result: ResultValue,
        targets: Vec<NodeId>,
        acked: BTreeSet<NodeId>,
        any_failed: bool,
    },
    Done,
}

/// The Figure 7a server process.
#[derive(Debug)]
pub struct BaselineServer {
    cost: CostModel,
    attempts: BTreeMap<ResultId, Phase>,
}

impl BaselineServer {
    /// Creates the baseline middle tier.
    pub fn new(cost: CostModel) -> Self {
        BaselineServer { cost, attempts: BTreeMap::new() }
    }

    fn on_request(&mut self, ctx: &mut dyn Context, request: Request, attempt: u32) {
        let rid = ResultId { request: request.id, attempt };
        if self.attempts.contains_key(&rid) {
            return; // duplicate in flight — baseline has no better answer
        }
        self.attempts.insert(rid, Phase::Dispatching { request });
        let dur = jittered(ctx, self.cost.start, self.cost.jitter);
        ctx.span(rid, Component::Start, dur);
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 0 });
    }

    fn begin_exec(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::Dispatching { request }) = self.attempts.get(&rid) else { return };
        // xa = false: the baseline's SQL path has no XA bracketing overhead.
        let (xa, step) = Xa::compute(ctx, rid, request.clone(), false, 0);
        self.attempts.insert(rid, Phase::Xa(xa));
        self.on_step(ctx, rid, step);
    }

    /// `compute()` returned (if `step` says so): one-phase-commit wherever
    /// it ran. A lock conflict has no retry machinery to go to: surface it.
    fn on_step(&mut self, ctx: &mut dyn Context, rid: ResultId, step: Option<Step>) {
        match step {
            Some(Step::Computed { conflict: true, .. }) => {
                self.attempts.insert(rid, Phase::Done);
                let (request, reason) = (rid.request, "lock conflict".into());
                ctx.send(request.client, Payload::App(AppMsg::Exception { request, reason }));
            }
            Some(Step::Computed { result, involved, .. }) if involved.is_empty() => {
                self.finish(ctx, rid, result, false);
            }
            Some(Step::Computed { result, involved: targets, .. }) => {
                for db in &targets {
                    ctx.send(*db, Payload::Db(DbMsg::CommitOnePhase { rid }));
                }
                let (acked, any_failed) = (BTreeSet::new(), false);
                self.attempts.insert(rid, Phase::Committing { result, targets, acked, any_failed });
            }
            _ => {}
        }
    }

    fn on_commit_ack(&mut self, ctx: &mut dyn Context, from: NodeId, rid: ResultId, ok: bool) {
        let Some(Phase::Committing { result, targets, acked, any_failed }) =
            self.attempts.get_mut(&rid)
        else {
            return;
        };
        if !targets.contains(&from) {
            return;
        }
        acked.insert(from);
        *any_failed |= !ok;
        if acked.len() == targets.len() {
            let (result, failed) = (result.clone(), *any_failed);
            self.finish(ctx, rid, result, failed);
        }
    }

    fn finish(&mut self, ctx: &mut dyn Context, rid: ResultId, result: ResultValue, failed: bool) {
        self.attempts.insert(rid, Phase::Done);
        let dur = jittered(ctx, self.cost.end, self.cost.jitter);
        ctx.span(rid, Component::End, dur);
        let payload = if failed {
            Payload::App(AppMsg::Exception { request: rid.request, reason: "commit failed".into() })
        } else {
            Payload::App(AppMsg::Result {
                rid,
                decision: Decision::commit(result),
                stamps: Vec::new(),
            })
        };
        ctx.send_after(dur, rid.request.client, payload);
    }
}

impl Process for BaselineServer {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Message {
                payload: Payload::Client(ClientMsg::Request { request, attempt, .. }),
                ..
            } => self.on_request(ctx, request, attempt),
            Event::Message { from, payload: Payload::DbReply(reply) } => match reply {
                DbReplyMsg::ExecReply { rid, status } => {
                    let step = match self.attempts.get_mut(&rid) {
                        Some(Phase::Xa(xa)) => xa.exec_reply(ctx, rid, status),
                        _ => None,
                    };
                    self.on_step(ctx, rid, step);
                }
                DbReplyMsg::AckCommitOnePhase { rid, ok } => self.on_commit_ack(ctx, from, rid, ok),
                _ => {}
            },
            Event::Timer { tag: TimerTag::Dispatch { rid, stage: 0 }, .. } => {
                self.begin_exec(ctx, rid)
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "baseline-server"
    }
}
