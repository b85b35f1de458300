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
use etx_base::trace::{Component, TraceKind};
use etx_base::value::{Decision, ExecStatus, Request};
use etx_core::resultbuild;
use std::collections::{HashMap, HashSet};

#[derive(Debug)]
enum Phase {
    Executing {
        request: Request,
        call_idx: usize,
        acc: Vec<(String, i64)>,
    },
    Committing {
        result: etx_base::value::ResultValue,
        targets: Vec<NodeId>,
        acked: HashSet<NodeId>,
        any_failed: bool,
    },
    Done,
}

/// The Figure 7a server process.
pub struct BaselineServer {
    cost: CostModel,
    fsms: HashMap<ResultId, Phase>,
}

impl std::fmt::Debug for BaselineServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineServer").field("in_flight", &self.fsms.len()).finish()
    }
}

impl BaselineServer {
    /// Creates the baseline middle tier.
    pub fn new(cost: CostModel) -> Self {
        BaselineServer { cost, fsms: HashMap::new() }
    }

    fn on_request(&mut self, ctx: &mut dyn Context, request: Request, attempt: u32) {
        let rid = ResultId { request: request.id, attempt };
        if self.fsms.contains_key(&rid) {
            return; // duplicate in flight — baseline has no better answer
        }
        self.fsms.insert(rid, Phase::Executing { request, call_idx: 0, acc: Vec::new() });
        let dur = jittered(ctx, self.cost.start, self.cost.jitter);
        ctx.trace(TraceKind::Span { rid, comp: Component::Start, dur });
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 0 });
    }

    fn send_current_exec(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::Executing { request, call_idx, .. }) = self.fsms.get(&rid) else {
            return;
        };
        if *call_idx >= request.script.calls.len() {
            self.start_commit(ctx, rid);
            return;
        }
        let call = request.script.calls[*call_idx].clone();
        // xa = false: the baseline's SQL path has no XA bracketing overhead.
        ctx.send(call.db, Payload::Db(DbMsg::Exec { rid, ops: call.ops, xa: false }));
    }

    fn on_exec_reply(&mut self, ctx: &mut dyn Context, rid: ResultId, status: ExecStatus) {
        let Some(Phase::Executing { request, call_idx, acc }) = self.fsms.get_mut(&rid) else {
            return;
        };
        match status {
            ExecStatus::Done(outputs) => {
                let call = &request.script.calls[*call_idx];
                resultbuild::accumulate(call, &outputs, acc);
                *call_idx += 1;
                self.send_current_exec(ctx, rid);
            }
            ExecStatus::Conflict => {
                // No retry machinery: surface the failure.
                let client = rid.request.client;
                self.fsms.insert(rid, Phase::Done);
                ctx.send(
                    client,
                    Payload::App(AppMsg::Exception {
                        request: rid.request,
                        reason: "lock conflict".into(),
                    }),
                );
            }
        }
    }

    fn start_commit(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::Executing { request, acc, .. }) = self.fsms.get(&rid) else { return };
        let result = resultbuild::finish(acc.clone(), rid.attempt);
        let targets = request.script.databases();
        if targets.is_empty() {
            self.finish(ctx, rid, result, false);
            return;
        }
        for db in &targets {
            ctx.send(*db, Payload::Db(DbMsg::CommitOnePhase { rid }));
        }
        self.fsms.insert(
            rid,
            Phase::Committing { result, targets, acked: HashSet::new(), any_failed: false },
        );
    }

    fn on_commit_ack(&mut self, ctx: &mut dyn Context, from: NodeId, rid: ResultId, ok: bool) {
        let Some(Phase::Committing { targets, acked, any_failed, .. }) = self.fsms.get_mut(&rid)
        else {
            return;
        };
        if !targets.contains(&from) {
            return;
        }
        acked.insert(from);
        *any_failed |= !ok;
        if acked.len() == targets.len() {
            let (result, failed) = match self.fsms.get(&rid) {
                Some(Phase::Committing { result, any_failed, .. }) => (result.clone(), *any_failed),
                _ => unreachable!(),
            };
            self.finish(ctx, rid, result, failed);
        }
    }

    fn finish(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        result: etx_base::value::ResultValue,
        failed: bool,
    ) {
        self.fsms.insert(rid, Phase::Done);
        let dur = jittered(ctx, self.cost.end, self.cost.jitter);
        ctx.trace(TraceKind::Span { rid, comp: Component::End, dur });
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
                DbReplyMsg::ExecReply { rid, status } => self.on_exec_reply(ctx, rid, status),
                DbReplyMsg::AckCommitOnePhase { rid, ok } => self.on_commit_ack(ctx, from, rid, ok),
                _ => {}
            },
            Event::Timer { tag: TimerTag::Dispatch { rid, stage: 0 }, .. } => {
                self.send_current_exec(ctx, rid)
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "baseline-server"
    }
}
