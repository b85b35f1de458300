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
use etx_base::msg::{AppMsg, ClientMsg, DbMsg, DbReplyMsg, Payload, PbMsg};
use etx_base::runtime::{jittered, Context, Event, Process, TimerTag};
use etx_base::time::Time;
use etx_base::trace::{Component, TraceKind};
use etx_base::value::{Decision, ExecStatus, Outcome, Request, ResultValue, Vote};
use etx_core::resultbuild;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Role of a [`PbServer`] at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbRole {
    /// Handles requests.
    Primary,
    /// Mirrors the primary's processing state; takes over on its crash.
    Backup,
}

#[derive(Debug)]
enum Phase {
    AwaitingStartAck { request: Request, t0: Time },
    Executing { request: Request, call_idx: usize, acc: Vec<(String, i64)> },
    Preparing { result: ResultValue, involved: Vec<NodeId>, votes: HashMap<NodeId, Vote> },
    AwaitingOutcomeAck { decision: Decision, involved: Vec<NodeId>, t0: Time },
    Deciding { decision: Decision, targets: Vec<NodeId>, acked: HashSet<NodeId> },
    Done { decision: Decision },
}

/// One of the two application servers in the primary-backup scheme.
pub struct PbServer {
    role: PbRole,
    peer: NodeId,
    peer_up: bool,
    dlist: Vec<NodeId>,
    cost: CostModel,
    fsms: HashMap<ResultId, Phase>,
    /// Backup-side mirror of the primary's processing state.
    mirror_start: HashMap<ResultId, Request>,
    mirror_outcome: HashMap<ResultId, Decision>,
    committed_cache: HashMap<RequestId, (ResultId, Decision)>,
}

impl std::fmt::Debug for PbServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PbServer").field("role", &self.role).finish()
    }
}

impl PbServer {
    /// Creates a primary or backup over the given databases.
    pub fn new(role: PbRole, peer: NodeId, dlist: Vec<NodeId>, cost: CostModel) -> Self {
        PbServer {
            role,
            peer,
            peer_up: true,
            dlist,
            cost,
            fsms: HashMap::new(),
            mirror_start: HashMap::new(),
            mirror_outcome: HashMap::new(),
            committed_cache: HashMap::new(),
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
        if let Some((crid, decision)) = self.committed_cache.get(&request.id).cloned() {
            ctx.send(
                rid.request.client,
                Payload::App(AppMsg::Result { rid: crid, decision, stamps: Vec::new() }),
            );
            return;
        }
        match self.fsms.get(&rid) {
            Some(Phase::Done { decision }) => {
                let decision = decision.clone();
                ctx.send(
                    rid.request.client,
                    Payload::App(AppMsg::Result { rid, decision, stamps: Vec::new() }),
                );
                return;
            }
            Some(_) => return,
            None => {}
        }
        let dur = jittered(ctx, self.cost.start, self.cost.jitter);
        ctx.trace(TraceKind::Span { rid, comp: Component::Start, dur });
        self.fsms.insert(rid, Phase::AwaitingStartAck { request, t0: ctx.now() });
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 0 });
    }

    fn ship_start(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::AwaitingStartAck { request, .. }) = self.fsms.get_mut(&rid) else {
            return;
        };
        let request = request.clone();
        if let Some(Phase::AwaitingStartAck { t0, .. }) = self.fsms.get_mut(&rid) {
            *t0 = ctx.now();
        }
        if self.peer_up {
            ctx.send(self.peer, Payload::Pb(PbMsg::Start { rid, request }));
        } else {
            // Solo mode: no backup left to mirror to.
            self.begin_exec(ctx, rid);
        }
    }

    fn begin_exec(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::AwaitingStartAck { request, .. } | Phase::Executing { request, .. }) =
            self.fsms.get(&rid)
        else {
            return;
        };
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
            self.ship_outcome(ctx, rid, decision, Vec::new());
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
        let Some(Phase::Preparing { result, involved, votes }) = self.fsms.get(&rid) else {
            return;
        };
        if votes.len() < involved.len() {
            return;
        }
        let outcome = if involved.iter().all(|d| votes.get(d) == Some(&Vote::Yes)) {
            Outcome::Commit
        } else {
            Outcome::Abort
        };
        let decision = Decision { result: Some(Arc::new(result.clone())), outcome };
        let involved = involved.clone();
        self.ship_outcome(ctx, rid, decision, involved);
    }

    fn ship_outcome(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        decision: Decision,
        involved: Vec<NodeId>,
    ) {
        self.fsms.insert(
            rid,
            Phase::AwaitingOutcomeAck { decision: decision.clone(), involved, t0: ctx.now() },
        );
        if self.peer_up {
            ctx.send(self.peer, Payload::Pb(PbMsg::Outcome { rid, decision }));
        } else {
            self.begin_decide(ctx, rid);
        }
    }

    fn begin_decide(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(Phase::AwaitingOutcomeAck { decision, involved, .. }) = self.fsms.get(&rid) else {
            return;
        };
        let (decision, targets) = (decision.clone(), involved.clone());
        if targets.is_empty() {
            self.fsms.insert(
                rid,
                Phase::Deciding {
                    decision: decision.clone(),
                    targets: Vec::new(),
                    acked: HashSet::new(),
                },
            );
            self.complete(ctx, rid);
            return;
        }
        for db in &targets {
            ctx.send(*db, Payload::Db(DbMsg::decide_one(rid, decision.outcome)));
        }
        ctx.set_timer(etx_base::time::Dur::from_millis(150), TimerTag::PbTick);
        self.fsms.insert(rid, Phase::Deciding { decision, targets, acked: HashSet::new() });
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
        if decision.outcome == Outcome::Commit {
            self.committed_cache.insert(rid.request, (rid, decision.clone()));
        }
        self.fsms.insert(rid, Phase::Done { decision: decision.clone() });
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
            ctx.set_timer(etx_base::time::Dur::from_millis(150), TimerTag::PbTick);
        }
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
                if let Some(Phase::AwaitingStartAck { t0, .. }) = self.fsms.get(&rid) {
                    let dur = ctx.now().since(*t0);
                    ctx.trace(TraceKind::Span { rid, comp: Component::LogStart, dur });
                    self.begin_exec(ctx, rid);
                }
            }
            PbMsg::AckOutcome { rid } => {
                if let Some(Phase::AwaitingOutcomeAck { t0, .. }) = self.fsms.get(&rid) {
                    let dur = ctx.now().since(*t0);
                    ctx.trace(TraceKind::Span { rid, comp: Component::LogOutcome, dur });
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
            if self.fsms.contains_key(&rid) {
                continue;
            }
            let decision =
                self.mirror_outcome.get(&rid).cloned().unwrap_or_else(Decision::nil_abort);
            // Push the decision to every database (abort is presumed at
            // uninvolved servers; commit is vacuous there).
            let targets = self.dlist.clone();
            for db in &targets {
                ctx.send(*db, Payload::Db(DbMsg::decide_one(rid, decision.outcome)));
            }
            self.fsms.insert(rid, Phase::Deciding { decision, targets, acked: HashSet::new() });
        }
        if !self.fsms.is_empty() {
            ctx.set_timer(etx_base::time::Dur::from_millis(150), TimerTag::PbTick);
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
                DbReplyMsg::ExecReply { rid, status } => self.on_exec_reply(ctx, rid, status),
                DbReplyMsg::Vote { rid, vote } => self.on_vote(ctx, from, rid, vote),
                DbReplyMsg::AckDecide { entries, .. } => {
                    for (rid, _) in entries {
                        self.on_ack_decide(ctx, from, rid);
                    }
                }
                DbReplyMsg::Ready => self.retry_decides(ctx),
                _ => {}
            },
            Event::Timer { tag: TimerTag::Dispatch { rid, stage: 0 }, .. } => {
                self.ship_start(ctx, rid)
            }
            Event::Timer { tag: TimerTag::PbTick, .. } => self.retry_decides(ctx),
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "pb-server"
    }
}
