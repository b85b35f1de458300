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
use etx_base::msg::{AppMsg, ClientMsg, DbMsg, DbReplyMsg, Payload};
use etx_base::runtime::{jittered, Context, Event, Process, TimerTag};
use etx_base::trace::{Component, TraceKind};
use etx_base::value::{Decision, ExecStatus, Outcome, Request, ResultValue, Vote};
use etx_base::wal::{StableRecord, LOG_COORD};
use etx_core::resultbuild;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

#[derive(Debug)]
enum Phase {
    LoggingStart { request: Request },
    Executing { request: Request, call_idx: usize, acc: Vec<(String, i64)> },
    Preparing { result: ResultValue, involved: Vec<NodeId>, votes: HashMap<NodeId, Vote> },
    LoggingOutcome { decision: Decision, involved: Vec<NodeId> },
    Deciding { decision: Decision, targets: Vec<NodeId>, acked: HashSet<NodeId> },
    Done { decision: Decision },
}

/// The 2PC coordinator process (also the application server).
pub struct TpcServer {
    dlist: Vec<NodeId>,
    cost: CostModel,
    fsms: HashMap<ResultId, Phase>,
    /// Transactions completed by crash recovery: the client's connection
    /// died with the old incarnation, so no reply can be sent (the user is
    /// left with a timeout — the paper's §1 ambiguity).
    no_reply: std::collections::HashSet<ResultId>,
}

impl std::fmt::Debug for TpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TpcServer").field("in_flight", &self.fsms.len()).finish()
    }
}

impl TpcServer {
    /// Creates a 2PC coordinator over the given database list.
    pub fn new(dlist: Vec<NodeId>, cost: CostModel) -> Self {
        TpcServer { dlist, cost, fsms: HashMap::new(), no_reply: std::collections::HashSet::new() }
    }

    fn on_request(&mut self, ctx: &mut dyn Context, request: Request, attempt: u32) {
        let rid = ResultId { request: request.id, attempt };
        match self.fsms.get(&rid) {
            Some(Phase::Done { decision }) => {
                let decision = decision.clone();
                ctx.send(
                    rid.request.client,
                    Payload::App(AppMsg::Result { rid, decision, stamps: Vec::new() }),
                );
                return;
            }
            Some(_) => return, // in flight
            None => {}
        }
        self.fsms.insert(rid, Phase::LoggingStart { request });
        let dur = jittered(ctx, self.cost.start, self.cost.jitter);
        ctx.trace(TraceKind::Span { rid, comp: Component::Start, dur });
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 0 });
    }

    /// Stage 0: the forced start record ("presumed nothing", the paper's
    /// log-start ≈ 12.5 ms).
    fn log_start(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::LoggingStart { .. }) = self.fsms.get(&rid) else { return };
        let dur = ctx.log_append(LOG_COORD, StableRecord::CoordStart { rid }, true);
        ctx.trace(TraceKind::Span { rid, comp: Component::LogStart, dur });
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 1 });
    }

    /// Stage 1: begin the business logic.
    fn begin_exec(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::LoggingStart { request }) = self.fsms.get(&rid) else { return };
        let request = request.clone();
        self.fsms.insert(rid, Phase::Executing { request, call_idx: 0, acc: Vec::new() });
        self.send_current_exec(ctx, rid);
    }

    fn send_current_exec(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::Executing { request, call_idx, .. }) = self.fsms.get(&rid) else {
            return;
        };
        if *call_idx >= request.script.calls.len() {
            self.start_prepare(ctx, rid);
            return;
        }
        let call = request.script.calls[*call_idx].clone();
        ctx.send(call.db, Payload::Db(DbMsg::Exec { rid, ops: call.ops, xa: true }));
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
                acc.push(("conflict".to_string(), 1));
                self.start_prepare(ctx, rid);
            }
        }
    }

    fn start_prepare(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::Executing { request, acc, .. }) = self.fsms.get(&rid) else { return };
        let result = resultbuild::finish(acc.clone(), rid.attempt);
        let involved = request.script.databases();
        if involved.is_empty() {
            let decision = Decision::commit(result);
            self.log_outcome(ctx, rid, decision, Vec::new());
            return;
        }
        let cross = involved.len() > 1;
        for db in &involved {
            ctx.send(*db, Payload::Db(DbMsg::Prepare { rid, cross }));
        }
        self.fsms.insert(rid, Phase::Preparing { result, involved, votes: HashMap::new() });
    }

    fn on_vote(&mut self, ctx: &mut dyn Context, from: NodeId, rid: ResultId, vote: Vote) {
        let Some(Phase::Preparing { votes, involved, .. }) = self.fsms.get_mut(&rid) else {
            return;
        };
        if involved.contains(&from) {
            votes.insert(from, vote);
        }
        let (all_in, involved_c) = {
            let Some(Phase::Preparing { votes, involved, .. }) = self.fsms.get(&rid) else {
                return;
            };
            (votes.len() == involved.len(), involved.clone())
        };
        if !all_in {
            return;
        }
        let Some(Phase::Preparing { result, involved, votes }) = self.fsms.get(&rid) else {
            return;
        };
        let outcome = if involved.iter().all(|d| votes.get(d) == Some(&Vote::Yes)) {
            Outcome::Commit
        } else {
            Outcome::Abort
        };
        let decision = Decision { result: Some(Arc::new(result.clone())), outcome };
        self.log_outcome(ctx, rid, decision, involved_c);
    }

    /// The forced outcome record (the paper's log-outcome ≈ 12.7 ms).
    fn log_outcome(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        decision: Decision,
        involved: Vec<NodeId>,
    ) {
        let dur = ctx.log_append(
            LOG_COORD,
            StableRecord::CoordOutcome {
                rid,
                outcome: decision.outcome,
                result: decision.result.as_deref().cloned(),
            },
            true,
        );
        ctx.trace(TraceKind::Span { rid, comp: Component::LogOutcome, dur });
        self.fsms.insert(rid, Phase::LoggingOutcome { decision, involved });
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 2 });
    }

    /// Stage 2: push the decision.
    fn begin_decide(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::LoggingOutcome { decision, involved }) = self.fsms.get(&rid) else {
            return;
        };
        let (decision, targets) = (decision.clone(), involved.clone());
        if targets.is_empty() {
            self.fsms.insert(
                rid,
                Phase::Deciding { decision, targets: Vec::new(), acked: HashSet::new() },
            );
            self.complete(ctx, rid);
            return;
        }
        for db in &targets {
            ctx.send(*db, Payload::Db(DbMsg::decide_one(rid, decision.outcome)));
        }
        ctx.set_timer(self.retry_period(), TimerTag::TpcTick);
        self.fsms.insert(rid, Phase::Deciding { decision, targets, acked: HashSet::new() });
    }

    fn retry_period(&self) -> etx_base::time::Dur {
        etx_base::time::Dur::from_millis(150)
    }

    fn on_ack_decide(&mut self, ctx: &mut dyn Context, from: NodeId, rid: ResultId) {
        let Some(Phase::Deciding { targets, acked, .. }) = self.fsms.get_mut(&rid) else {
            return;
        };
        if targets.contains(&from) {
            acked.insert(from);
            if acked.len() == targets.len() {
                self.complete(ctx, rid);
            }
        }
    }

    fn complete(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::Deciding { decision, .. }) = self.fsms.get(&rid) else { return };
        let decision = decision.clone();
        self.fsms.insert(rid, Phase::Done { decision: decision.clone() });
        if self.no_reply.contains(&rid) {
            // Completed during crash recovery: the client connection is
            // gone; the database is unblocked but the user hears nothing.
            return;
        }
        let dur = jittered(ctx, self.cost.end, self.cost.jitter);
        ctx.trace(TraceKind::Span { rid, comp: Component::End, dur });
        ctx.send_after(
            dur,
            rid.request.client,
            Payload::App(AppMsg::Result { rid, decision, stamps: Vec::new() }),
        );
    }

    fn retry_decides(&mut self, ctx: &mut dyn Context) {
        let mut any = false;
        for (&rid, phase) in self.fsms.iter() {
            if let Phase::Deciding { decision, targets, acked } = phase {
                for db in targets {
                    if !acked.contains(db) {
                        ctx.send(*db, Payload::Db(DbMsg::decide_one(rid, decision.outcome)));
                        any = true;
                    }
                }
            }
        }
        if any {
            ctx.set_timer(self.retry_period(), TimerTag::TpcTick);
        }
    }

    /// Coordinator recovery (presumed nothing): a start record without an
    /// outcome means abort; an outcome record is pushed again until the
    /// databases acknowledge. This is what eventually *unblocks* the
    /// in-doubt databases — but only when the coordinator comes back.
    fn recover(&mut self, ctx: &mut dyn Context) {
        let log = ctx.log_read(LOG_COORD);
        let mut started: Vec<ResultId> = Vec::new();
        let mut outcomes: HashMap<ResultId, Decision> = HashMap::new();
        for rec in log {
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
            // crash, so push to every database (aborts are presumed and
            // commits are vacuous at uninvolved servers).
            self.no_reply.insert(rid);
            let targets = self.dlist.clone();
            for db in &targets {
                ctx.send(*db, Payload::Db(DbMsg::decide_one(rid, decision.outcome)));
            }
            self.fsms.insert(rid, Phase::Deciding { decision, targets, acked: HashSet::new() });
        }
        if !self.fsms.is_empty() {
            ctx.set_timer(self.retry_period(), TimerTag::TpcTick);
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
                DbReplyMsg::ExecReply { rid, status } => self.on_exec_reply(ctx, rid, status),
                DbReplyMsg::Vote { rid, vote } => self.on_vote(ctx, from, rid, vote),
                DbReplyMsg::AckDecide { entries, .. } => {
                    for (rid, _) in entries {
                        self.on_ack_decide(ctx, from, rid);
                    }
                }
                DbReplyMsg::Ready => {
                    // Treat like the e-Transaction server: missing votes
                    // become no; pending decides are re-pushed.
                    let rids: Vec<ResultId> = self.fsms.keys().copied().collect();
                    for rid in rids {
                        if let Some(Phase::Preparing { votes, involved, .. }) =
                            self.fsms.get_mut(&rid)
                        {
                            if involved.contains(&from) && !votes.contains_key(&from) {
                                votes.insert(from, Vote::No);
                                self.on_vote(ctx, from, rid, Vote::No);
                            }
                        }
                    }
                    self.retry_decides(ctx);
                }
                _ => {}
            },
            Event::Timer { tag: TimerTag::Dispatch { rid, stage }, .. } => match stage {
                0 => self.log_start(ctx, rid),
                1 => self.begin_exec(ctx, rid),
                2 => self.begin_decide(ctx, rid),
                _ => {}
            },
            Event::Timer { tag: TimerTag::TpcTick, .. } => self.retry_decides(ctx),
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "tpc-coordinator"
    }
}
