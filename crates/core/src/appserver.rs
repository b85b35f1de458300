//! The application-server protocol (Figures 4, 5, 6).
//!
//! The paper's middle tier is *stateless* with respect to the application
//! (no state survives across requests) but runs the replication machinery:
//!
//! * the **computation thread** (Figure 5) — on a client request, race for
//!   ownership of the attempt through `regA[j].write(self)`; the winner
//!   computes the result against the databases, runs the voting phase, and
//!   writes the decision into `regD[j]`;
//! * the **cleaning thread** (Figure 6) — when a peer is suspected, walk
//!   every open attempt it owns and force each to a decision (writing
//!   `(nil, abort)` into `regD[j]`, which returns the owner's decision if
//!   one was already written) and terminate it;
//! * **compute()**, **prepare()** and **terminate()** (Figures 4–5) — the
//!   database-facing stages of an attempt are [`crate::xa::Xa`], the state
//!   this server shares with the Figure 7 baselines; what is here is when
//!   each stage starts and what the stage's end sets off (`on_step`).
//!
//! The pseudo-code's blocking threads become one state machine per attempt
//! (one `Phase` per attempt); `cobegin` concurrency becomes event interleaving.
//!
//! ## The commit pipeline
//!
//! Both of the paper's per-attempt registers live in one sequenced
//! **decision log** ([`etx_consensus::DecisionLog`]), whose slots are the
//! only write-once registers this server writes.
//!
//! Figure 5's `regA[j].write(self)` is an **owner claim** entry
//! `(attempt, server, client watermark)` in a slot's value; the first
//! claim for an attempt in slot order is its owner — `regA[j].read()` is
//! [`DecisionLog::owner_of`] — and nothing else ever starts a computation.
//! A request that finds no owner claims explicitly and waits for that slot
//! (the Figure 8 "log-start" round). When slots carry batches, the server a
//! client tries first also **pre-claims** the attempt the client will send
//! next, in the slot that carries the current attempt's outcome anyway
//! (`preclaim_successor`): the next request then finds its owner decided
//! and computes at once. A pre-claim whose owner crashes before the request
//! arrives is an orphan like any other owned attempt — the cleaner aborts
//! it, and the request is answered from that decision and retried.
//!
//! Figure 5's `regD[j].write(decision)` is an **outcome** entry: instead
//! of one consensus instance per outcome, the server accumulates concurrent
//! outcomes in a bounded **pipeline queue** and proposes them as one batch
//! into the next log slot — one consensus round per batch. The queue
//! flushes when it reaches [`etx_base::BatchingConfig::max_batch`]
//! outcomes, when its time window expires, or eagerly when no other attempt
//! is mid-flight (so a lone sequential request never waits — the
//! single-request path is a batch of one). Termination then pushes each
//! slot's outcomes to the databases as one `Decide` message per database,
//! which the back end applies behind a single group WAL append.
//!
//! The log pumps — opens a slot, one of ours at a time — when a flush
//! proposes and when a slot decides, and after either the server does one
//! thing (`after_pump`): it ships the proposal the log reports that pump
//! opened as `SpecExec` frames, then applies the slots it decided. Every database's share of a
//! proposal is pre-paid: a `SpecExec` and the `Decide` that later resolves
//! it come from one per-database split (`split`), and every decided
//! outcome this server initiated reaches the databases through one entry,
//! `terminate`.
//!
//! ## The read fast lane
//!
//! With [`etx_base::config::ReadPathConfig::enabled`], the first attempt
//! of a read-only script never enters the machinery above: it is served by
//! `crate::readlane` as direct snapshot reads against the shard replicas.
//! An attempt takes the lane or the commit path, never both — `on_request`
//! decides once, from the request itself — and a lane read that cannot
//! validate a snapshot answers abort like any other failed attempt, so the
//! client's next attempt claims, computes, votes and decides here. What
//! this file keeps of a lane read is its end (`on_read_end`).
//!
//! ## When the whole tier restarts
//!
//! Nothing here is stable: a recovered server is a fresh incarnation with
//! an empty register bank and decision log. When every server loses its
//! state at once, the client's retransmission of its attempt in flight
//! reaches a server whose log restarts at slot 1 and knows no owner, so
//! the attempt is claimed and computed again under the same attempt id.
//! What answers it is the databases' state for that id, not the tier's:
//! a branch still prepared (the tier went down after the vote) or a
//! commit in the decide memo (after the decide) refuses the new `Exec` as
//! a conflict and votes yes — from the prepared branch or the memo — so
//! the attempt commits the first execution's effects, once, and the
//! client is delivered the re-execution's result, cut short by its
//! `conflict` note. A tier that goes down between requests runs the next
//! one afresh. Traced on the harness's whole-tier chaos schedule.

use crate::readlane::{ReadEnd, ReadLane};
use crate::xa::{Entered, Step, Xa};
use etx_base::attempts::AttemptWindows;
use etx_base::config::{CostModel, ProtocolConfig};
use etx_base::ids::{NodeId, RequestId, ResultId, TimerId, Topology};
use etx_base::msg::{AppMsg, ClientMsg, DbMsg, DbReplyMsg, FdMsg, Payload, ReplMsg};
use etx_base::runtime::{jittered, Context, Event, Process, TimerTag};
use etx_base::shard::ShardMap;
use etx_base::time::{Dur, Time};
use etx_base::trace::{Component, TraceKind};
use etx_base::value::{Decision, Outcome, Request};
use etx_consensus::{AppliedSlot, DecisionLog, EngineConfig, Few, WoEvent, WoRegisters};
use etx_fd::FailureDetector;
use std::collections::BTreeMap;

/// Per-attempt protocol state (the paper's compute thread, unrolled).
#[derive(Debug)]
enum Phase {
    /// A request is here and the attempt's owner is not known yet
    /// (Figure 5's `regA[j].write(this)`). `since` is `None` while the
    /// dispatch cost is being charged, then the instant this server found
    /// no owner in the log and started waiting for the slot that carries
    /// its claim.
    Claiming { request: Request, since: Option<Time> },
    /// Another server owns this attempt; we only watch (and clean if it
    /// crashes).
    Watching,
    /// The attempt is at the databases: we own it and compute or collect
    /// votes, or — owner or cleaner — push its decision.
    Xa(Xa),
    /// `regD[j].write(decision)` issued; awaiting the decision register.
    WritingRegD,
    /// Terminated; result sent to the client. Kept to answer duplicates.
    Done { decision: Decision },
}

/// Everything this server holds for one attempt, under one key.
#[derive(Debug, Default)]
struct Attempt {
    /// The compute thread's state, once a request or a termination got here.
    phase: Option<Phase>,
    /// Set while a `regD` write *we* initiated (owner or cleaner) is
    /// undecided — we terminate once the log decides: the databases to
    /// cover, and when we submitted (the Figure 8 log-outcome span).
    outcome: Option<(Vec<NodeId>, Time)>,
    /// The paper's `clist` (Figure 6): the cleaner took this attempt over.
    /// Only set at or above the client's watermark — below it, being
    /// settled *is* being cleaned (see `run_cleaner`).
    cleaned: bool,
}

/// A slot's outcomes split per database, in slot order — each outcome goes
/// to every database its attempt targets. The shares a proposal ships as
/// `SpecExec` and the shares its decided slot pushes as `Decide` both come
/// from here, so a database's stash and the push that resolves it hold the
/// same entries when the slot decides as proposed.
fn split<'a>(
    outcomes: impl Iterator<Item = (ResultId, Outcome, &'a [NodeId])>,
) -> BTreeMap<NodeId, Vec<(ResultId, Outcome)>> {
    let mut per_db: BTreeMap<NodeId, Vec<(ResultId, Outcome)>> = BTreeMap::new();
    for (rid, outcome, targets) in outcomes {
        for &db in targets {
            per_db.entry(db).or_default().push((rid, outcome));
        }
    }
    per_db
}

/// A request's key in the committed-result cache (attempts start at 1).
fn cached(request: RequestId) -> ResultId {
    ResultId { request, attempt: 0 }
}

/// The middle-tier process: computation thread + cleaning thread + the
/// wo-register machinery, as one event-driven state machine.
///
/// Everything keyed by attempt lives in per-client windows
/// ([`AttemptWindows`]): the attempts a client's watermark settles are the
/// front of that client's run, so the per-request GC pass (`gc_below`) is
/// one drain per table and costs what it removes, not what the server
/// holds. The windows iterate in `(client, seq, attempt)` order, so every
/// walk over them (a database's `Ready`, the idle check) replays exactly.
pub struct AppServer {
    me: NodeId,
    topo: Topology,
    cfg: ProtocolConfig,
    cost: CostModel,
    /// Back-end addressing: key-addressed scripts are split into per-shard
    /// XA branches against this map. Identical on every replica, so branch
    /// layout never depends on which replica owns the attempt.
    shards: ShardMap,
    fd: Box<dyn FailureDetector>,
    regs: WoRegisters,
    /// The sequenced decision log (replaces per-attempt `regA` and `regD`).
    log: DecisionLog,
    /// Pipeline queue: outcomes accumulated for the next decision-log slot.
    batch_queue: Vec<(ResultId, Decision)>,
    /// Pending window-flush timer for the pipeline queue, if armed.
    batch_timer: Option<TimerId>,
    /// Protocol state: one record per attempt of the clients' open windows.
    attempts: AttemptWindows<Attempt>,
    /// The read fast lane, and the freshness table the commit path feeds
    /// (decide acknowledgements, client tokens) and stamps its results from.
    lane: ReadLane,
    /// Committed decisions we *finished terminating*, for answering client
    /// retransmissions (Figure 5 lines 3–4); one per request, under
    /// [`cached`]. Commit-path decisions only: a lane result is kept under
    /// its own attempt (`Phase::Done`), so a client that a lane abort has
    /// moved to the next attempt is not answered with this one's result.
    committed_cache: AttemptWindows<(ResultId, Decision)>,
}

impl std::fmt::Debug for AppServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppServer")
            .field("me", &self.me)
            .field("attempts", &self.in_flight_attempts())
            .finish()
    }
}

impl AppServer {
    /// Builds an application server over a flat (unsharded) back end:
    /// key-addressed scripts treat each database server as its own
    /// single-replica shard. Use [`AppServer::with_shards`] for partitioned
    /// deployments.
    ///
    /// `fd` is the eventually-perfect failure detector of §4;
    /// the wo-registers replicate across `topo.app_servers`.
    pub fn new(
        me: NodeId,
        topo: Topology,
        cfg: ProtocolConfig,
        cost: CostModel,
        fd: Box<dyn FailureDetector>,
    ) -> Self {
        let shards = ShardMap::one_per_db(&topo.db_servers);
        Self::with_shards(me, topo, cfg, cost, shards, fd)
    }

    /// Builds an application server that routes key-addressed scripts
    /// against an explicit shard map (partitioned keyspace, per-shard
    /// replica groups).
    pub fn with_shards(
        me: NodeId,
        topo: Topology,
        cfg: ProtocolConfig,
        cost: CostModel,
        shards: ShardMap,
        fd: Box<dyn FailureDetector>,
    ) -> Self {
        let engine_cfg =
            EngineConfig { patience: cfg.consensus_round_patience, resync: cfg.consensus_resync };
        let regs = WoRegisters::new(me, &topo.app_servers, engine_cfg);
        let log = DecisionLog::new(cfg.features.batching.max_batch, 1);
        AppServer {
            lane: ReadLane::new(me, &cfg, shards.clone()),
            me,
            topo,
            cfg,
            cost,
            shards,
            fd,
            regs,
            log,
            batch_queue: Vec::new(),
            batch_timer: None,
            attempts: AttemptWindows::new(),
            committed_cache: AttemptWindows::new(),
        }
    }

    fn phase(&self, rid: ResultId) -> Option<&Phase> {
        self.attempts.get(rid)?.phase.as_ref()
    }

    fn phase_mut(&mut self, rid: ResultId) -> Option<&mut Phase> {
        self.attempts.get_mut(rid)?.phase.as_mut()
    }

    fn set_phase(&mut self, rid: ResultId, phase: Phase) {
        self.attempts.get_or_default(rid).phase = Some(phase);
    }

    /// The attempt's database-facing stage, if it is in one.
    fn xa_mut(&mut self, rid: ResultId) -> Option<&mut Xa> {
        match self.phase_mut(rid)? {
            Phase::Xa(xa) => Some(xa),
            _ => None,
        }
    }

    /// Feeds the attempt's database-facing stage, if it is in one, through
    /// `f`, and follows where the stage's end leads. A computation that
    /// ends enters the voting phase in place, without looking the attempt
    /// up again.
    fn on_xa(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        f: impl FnOnce(&mut Xa, &mut dyn Context) -> Option<Step>,
    ) {
        let Some(Phase::Xa(xa)) = self.attempts.get_mut(rid).and_then(|a| a.phase.as_mut()) else {
            return;
        };
        let mut step = f(xa, ctx);
        // Figure 5 line 8: `compute()` returned, on to the voting phase.
        while let Some(Step::Computed { result, involved, .. }) = step {
            (*xa, step) = Xa::prepare(ctx, rid, result, involved);
        }
        self.on_step(ctx, rid, step);
    }

    /// Drops protocol state for every *terminated* attempt of `client` with
    /// a sequence number below the client's `ack_below` watermark:
    /// per-attempt FSMs, cached decisions, the wo-registers' replication
    /// state and the decision log's arbitration memory. Bounds memory to
    /// the client's in-flight window (plus one cached decision per client
    /// per unsettled request). Sequential clients send their current
    /// sequence number (everything earlier is implicitly acknowledged);
    /// open-loop clients send their lowest unfinished sequence number.
    ///
    /// Runs on every client request and on every applied claim that
    /// carried a newer watermark (how the servers a client never talks to
    /// hear it), so it is one prefix drain of the client's window in each
    /// table: the cost is what it removes (plus any stale attempt still
    /// mid-protocol), independent of requests served.
    ///
    /// A stale attempt whose outcome this server initiated and the log has
    /// not decided — queued here, queued in the log or in a slot still in
    /// flight — is **aborted on the spot**. The log ignores every entry
    /// for a settled request, so that outcome can never be sequenced and
    /// nobody would ever terminate the attempt: its branches would stay
    /// prepared, and their locks held, forever. (How a request settles
    /// under an outcome this server still owes: the server lags the log.
    /// Another initiator's slot — the owner's while this server cleans, a
    /// cleaner's while it owns — decided the attempt, the client got its
    /// answer and moved on, and its watermark, straight off its next
    /// request, gets here before that slot does. The suite reaches this
    /// with a scripted client that forces the overtaking:
    /// `tests::a_watermark_that_overtakes_a_queued_outcome_aborts_the_attempt`.)
    /// The abort is safe wherever the attempt did terminate elsewhere: a
    /// request settles only after its result reached the client, which is
    /// after every database decided, and a decided database answers a late
    /// `Decide` from its memo.
    fn gc_below(&mut self, ctx: &mut dyn Context, client: NodeId, ack_below: u64) {
        // At rest: terminated, watched — or still waiting for an owner,
        // which the log will never name for a settled request. What stays
        // is mid-protocol, or owes the log an outcome (aborted below). The
        // cleaner reads settled as cleaned, so the `clist` marks go too.
        let mut undecided = Vec::new();
        self.attempts.below(client, ack_below, |rid, attempt| {
            attempt.phase.take_if(|p| {
                matches!(p, Phase::Done { .. } | Phase::Watching | Phase::Claiming { .. })
            });
            attempt.cleaned = false;
            if attempt.outcome.is_some() {
                undecided.push(rid);
            }
            attempt.phase.is_some() || attempt.outcome.is_some()
        });
        // The settled prefix of the log sheds its consensus values too —
        // without this the register bank keeps one decided value per slot
        // forever, unbounding memory with total throughput. Compacted, not
        // forgotten: a replica that pulls a compacted slot gets this
        // server's watermark table, which settles every request the slot
        // carried there — a late `(nil, abort)` its cleaner re-proposes for
        // a member attempt is then ignored there as everywhere.
        let settled = self.log.gc_client(client, ack_below);
        self.compact_below(settled);
        self.lane.gc_below(client, ack_below);
        // Outcomes this server still owed a decision never reach
        // apply_slots now: terminate them here.
        for rid in undecided {
            self.terminate(ctx, None, [(rid, Decision::nil_abort())]);
        }
        let stale = ResultId::below(client, ack_below);
        self.batch_queue.retain(|(rid, _)| !stale.contains(rid));
        self.committed_cache.below(client, ack_below, |_, _| false);
    }

    /// Compacts the register bank below `slot`, the log's settled prefix,
    /// to the log's watermark table, refilled in place.
    fn compact_below(&mut self, slot: u64) {
        let log = &self.log;
        self.regs.compact_below(slot, |reuse| log.placeholder(reuse));
    }

    /// Number of per-attempt state machines currently held (observability /
    /// GC tests).
    pub fn in_flight_attempts(&self) -> usize {
        self.attempts.iter().filter(|(_, a)| a.phase.is_some()).count()
    }

    /// Size of the cleaner's `clist` (observability / GC tests).
    pub fn cleaned_attempts(&self) -> usize {
        self.attempts.iter().filter(|(_, a)| a.cleaned).count()
    }

    /// Undecided registers in this server's consensus engine — what its
    /// resync timer walks (observability / GC tests).
    pub fn open_registers(&self) -> usize {
        self.regs.open_registers()
    }

    /// The next decision-log slot this server will apply: every slot below
    /// it is decided and applied here (observability / catch-up tests).
    pub fn log_applied_up_to(&self) -> u64 {
        self.log.applied_up_to()
    }

    /// Decided values the register bank still stores: the slots at or
    /// above the compacted prefix, which starts at the oldest slot some
    /// unsettled request belongs to (observability / GC tests).
    pub fn held_slots(&self) -> usize {
        self.regs.held_slots()
    }

    /// Compacted decision-log slots this server applied as watermarks only
    /// — what it pulled from a peer that had compacted them (observability
    /// / catch-up tests).
    pub fn placeholders_applied(&self) -> u64 {
        self.log.placeholders_applied()
    }

    /// Per-attempt records the decision log holds — decisions, owners (what
    /// a cleaning pass walks) and the members of slots awaiting compaction,
    /// none of them below its client's watermark (observability / GC tests).
    pub fn log_tracked_attempts(&self) -> usize {
        self.log.tracked_attempts()
    }

    // ---- computation thread (Figure 5) ------------------------------------

    fn on_request(
        &mut self,
        ctx: &mut dyn Context,
        request: Request,
        attempt: u32,
        ack_below: u64,
        stamps: Vec<(NodeId, u64)>,
    ) {
        let rid = ResultId { request: request.id, attempt };
        // Causality token first: whatever positions this client has
        // observed (through any server) bound the freshness of every read
        // this request may trigger here — including this very request. The
        // token itself is kept around: in lease mode it is the per-call
        // read-your-writes floor a fast-path read sends to followers.
        for &(db, seq) in &stamps {
            self.lane.observe(db, seq);
        }
        // Garbage collection (§5 leaves it open; this is the natural hook):
        // the client's watermark tells us which of its requests are settled
        // forever — their attempts can never be retransmitted again and
        // their register/log state can go. The replicas that do not hear
        // from the client follow the watermark through the log.
        self.gc_below(ctx, request.id.client, ack_below);
        // Figure 5 line 3: if this request already committed, answer from
        // the cached decision.
        if let Some((crid, decision)) = self.committed_cache.get(cached(request.id)).cloned() {
            let stamps = self.lane.all_stamps();
            ctx.send(
                rid.request.client,
                Payload::App(AppMsg::Result { rid: crid, decision, stamps }),
            );
            return;
        }
        match self.phase(rid) {
            Some(Phase::Done { decision }) => {
                let decision = decision.clone();
                let stamps = self.lane.all_stamps();
                ctx.send(
                    rid.request.client,
                    Payload::App(AppMsg::Result { rid, decision, stamps }),
                );
            }
            Some(_) => { /* already in progress; duplicates are absorbed */ }
            // A straggling duplicate of a request the client has since
            // settled (through another server's answer): nobody waits for
            // a reply, and the log would ignore every entry for it.
            None if self.log.settled(&rid) => {}
            None => {
                // New attempt: resolve key-addressed scripts into per-shard
                // XA branches (deterministic — every replica derives the
                // same plan), charge the dispatch cost ("start" row), then
                // find out who owns it.
                let request = crate::router::materialize(request, &self.shards);
                // Already decided — a cleaner aborted it before the request
                // got here (a crashed server's pre-claim, typically): there
                // is nothing to compute. Terminate with the log's decision,
                // which also answers the client.
                if let Some(decision) = self.log.decision_of(rid).cloned() {
                    self.submit_outcome(ctx, rid, decision, request.script.databases());
                    return;
                }
                // One attempt, one path, chosen here from the request
                // itself: an all-Get script is idempotent and needs none of
                // the commit machinery the write-once regD contract exists
                // for, so its first attempt goes around the pipeline as
                // direct snapshot reads. A later attempt follows an abort —
                // the lane's own, when the keys would not stand still — and
                // takes the locking path. (Duplicates of an in-flight read
                // are absorbed like any other in-progress attempt.)
                let fast = self.cfg.features.read_path.enabled
                    && request.script.is_read_only()
                    && rid.attempt == 1;
                if fast && self.lane.contains(rid) {
                    return;
                }
                let stage = if fast {
                    self.lane.start(ctx, rid, request.script.calls, &stamps);
                    1
                } else {
                    self.set_phase(rid, Phase::Claiming { request, since: None });
                    0
                };
                let dur = jittered(ctx, self.cost.start, self.cost.jitter);
                ctx.span(rid, Component::Start, dur);
                ctx.set_timer(dur, TimerTag::Dispatch { rid, stage });
            }
        }
    }

    /// A lane read ended: an accepted snapshot is a commit decision that
    /// goes straight to the client — no voting, no decision log, no
    /// termination push — and an exhausted one is an abort, so the client's
    /// next attempt takes the commit path. Either way the attempt is done
    /// here, like any other.
    fn on_read_end(&mut self, ctx: &mut dyn Context, rid: ResultId, end: ReadEnd) {
        let (decision, stamps) = match end {
            ReadEnd::Snapshot { result, stamps } => {
                ctx.trace(TraceKind::Computed { rid });
                (Decision::commit(result), stamps)
            }
            ReadEnd::Exhausted { rounds } => {
                ctx.trace(TraceKind::ReadFallback { rid, rounds });
                (Decision::nil_abort(), Vec::new())
            }
        };
        self.preclaim_successor(rid, decision.outcome);
        self.reply_done(ctx, rid, decision, stamps);
    }

    /// The attempt is over here: keep its decision for duplicates and
    /// reply to the client, charging the "end" dispatch cost.
    fn reply_done(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        decision: Decision,
        stamps: Vec<(NodeId, u64)>,
    ) {
        self.set_phase(rid, Phase::Done { decision: decision.clone() });
        let dur = jittered(ctx, self.cost.end, self.cost.jitter);
        ctx.span(rid, Component::End, dur);
        let result = AppMsg::Result { rid, decision, stamps };
        ctx.send_after(dur, rid.request.client, Payload::App(result));
    }

    /// Figure 5's `regA[j].write(self)`, once the dispatch cost is charged.
    /// The log is the register: if it already names the attempt's owner —
    /// this server's pre-claim applied, or another server got there first —
    /// there is nothing to write. Otherwise claim the attempt urgently
    /// (which only raises the urgency of a pre-claim still queued or in
    /// flight), flush, and wait for the slot.
    fn dispatch_claim(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let owner = self.log.owner_of(rid);
        let Some(Phase::Claiming { since: since @ None, .. }) = self.phase_mut(rid) else { return };
        match owner {
            Some(owner) => self.on_owner(ctx, rid, owner),
            None => {
                *since = Some(ctx.now());
                self.log.claim(rid, true);
                self.flush_batch(ctx);
            }
        }
    }

    /// `regA[j]` returned `owner` for an attempt whose request waits here:
    /// the owner computes, everyone else watches. A claim that had to wait
    /// for its slot closes the Figure 8 log-start span.
    fn on_owner(&mut self, ctx: &mut dyn Context, rid: ResultId, owner: NodeId) {
        let Some(phase) = self.attempts.get_mut(rid).and_then(|a| a.phase.as_mut()) else {
            return;
        };
        let Phase::Claiming { request, since } = phase else { return };
        if owner != self.me {
            *phase = Phase::Watching;
            return;
        }
        if let Some(t0) = *since {
            ctx.span(rid, Component::LogStart, ctx.now().since(t0));
        }
        // The databases forget what the client's watermark settles.
        let floor = self.log.watermark(rid.request.client);
        let (xa, step) = Xa::compute(ctx, rid, request.clone(), true, floor);
        *phase = Phase::Xa(xa);
        self.on_step(ctx, rid, step);
    }

    /// Queues this server's claim of the attempt `rid`'s client will send
    /// next — the same request's next attempt after an abort, the next
    /// request's first after a commit — so that it finds its owner decided
    /// and skips the log-start round. The claim is not urgent: it rides the
    /// next slot this server proposes anyway (the one carrying `rid`'s
    /// outcome, usually) and never costs a round of its own. Hence two
    /// conditions. Slots must carry batches — where nothing shares a slot a
    /// claim is a consensus round whichever attempt pays for it. And this
    /// must be the server the client will try first, or the attempt would
    /// sit here, owned and unrequested, until the client's back-off
    /// broadcast reached it.
    fn preclaim_successor(&mut self, rid: ResultId, outcome: Outcome) {
        let tried_first = self.cfg.route_to_last_responder || self.me == self.topo.app_servers[0];
        if !self.cfg.features.batching.is_batching() || !tried_first {
            return;
        }
        let RequestId { client, seq } = rid.request;
        self.log.claim(
            match outcome {
                Outcome::Commit => ResultId::first(RequestId { client, seq: seq + 1 }),
                Outcome::Abort => rid.next_attempt(),
            },
            false,
        );
    }

    /// The attempt enters a database-facing stage — which may have nobody
    /// to wait for and end at once.
    fn enter(&mut self, ctx: &mut dyn Context, rid: ResultId, (xa, step): Entered) {
        self.set_phase(rid, Phase::Xa(xa));
        self.on_step(ctx, rid, step);
    }

    /// A stage of `rid` ended (if `step` says so): what that sets off here.
    fn on_step(&mut self, ctx: &mut dyn Context, rid: ResultId, step: Option<Step>) {
        match step {
            None => {}
            // Figure 5 line 8: `compute()` returned, on to the voting phase.
            Some(Step::Computed { result, involved, .. }) => {
                let next = Xa::prepare(ctx, rid, result, involved);
                self.enter(ctx, rid, next);
            }
            // Figure 5 lines 9–10: the votes are in, write the decision.
            Some(Step::Voted { decision, targets }) => {
                self.preclaim_successor(rid, decision.outcome);
                self.submit_outcome(ctx, rid, decision, targets);
            }
            // Figure 4 terminate() line 7: every target acknowledged,
            // reply to the client.
            Some(Step::Terminated { decision, targets }) => {
                // Stamp the result with the positions this server observed
                // for the decision's shards — for a commit, those acks
                // included the write itself, so the client's causality
                // token now covers it.
                let stamps = self.lane.stamps_for(&targets);
                if decision.outcome == Outcome::Commit {
                    self.committed_cache.insert(cached(rid.request), (rid, decision.clone()));
                }
                self.reply_done(ctx, rid, decision, stamps);
            }
        }
    }

    /// Figure 5 line 10 / Figure 6 line 7: record the attempt's outcome for
    /// sequencing. The outcome enters the pipeline queue and is decided by
    /// the slot batch it flushes into (the paper's `regD[j].write`,
    /// amortised); if the log already holds a decision for this attempt
    /// (another initiator's slot applied first), termination starts
    /// immediately with that decision — the write-once return value.
    fn submit_outcome(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        decision: Decision,
        targets: Vec<NodeId>,
    ) {
        let attempt = self.attempts.get_or_default(rid);
        attempt.outcome = Some((targets, ctx.now()));
        if matches!(attempt.phase, Some(Phase::Xa(Xa::Preparing { .. } | Xa::Computing { .. }))) {
            attempt.phase = Some(Phase::WritingRegD);
        }
        if let Some(final_decision) = self.log.decision_of(rid).cloned() {
            self.terminate(ctx, None, [(rid, final_decision)]);
            return;
        }
        // The client settled this request while the attempt ran here: a
        // cleaner's abort was sequenced while this server still computed
        // or collected votes, the client's retry committed elsewhere, and
        // the watermark took the log's record of that abort (`gc_below`
        // names the same lag for an outcome already queued). The log
        // ignores every entry for a settled request, so this outcome can
        // never be sequenced — and since its owner never proposes one, no
        // server can ever commit the attempt. Abort it here: proposing
        // would leave its branches prepared, and their locks held, forever.
        if self.log.settled(&rid) {
            self.terminate(ctx, None, [(rid, Decision::nil_abort())]);
            return;
        }
        if !self.batch_queue.iter().any(|(r, _)| *r == rid) {
            self.batch_queue.push((rid, decision));
        }
        // The queue flushes at the end of this event (size / idle policy)
        // or when the window timer fires — see `maybe_flush`.
    }

    // ---- the pipeline queue ------------------------------------------------

    /// Flush policy, evaluated once per handled event: flush when the queue
    /// hit the size threshold, when batching is off, or when no other
    /// attempt is mid-flight (nothing further could join the batch soon);
    /// otherwise arm the window timer as the latency backstop.
    fn maybe_flush(&mut self, ctx: &mut dyn Context) {
        if self.batch_queue.is_empty() {
            return;
        }
        let batching = self.cfg.features.batching;
        // Size and window checks are O(1); the idle check walks every
        // in-flight FSM, so it runs only when the cheap rules don't already
        // force a flush (they always do in the per-request configuration).
        let idle = || {
            use Xa::{Computing, Preparing};
            let busy = |p: &Phase| {
                matches!(p, Phase::Claiming { .. } | Phase::Xa(Computing { .. } | Preparing { .. }))
            };
            !self.attempts.iter().any(|(_, a)| a.phase.as_ref().is_some_and(busy))
        };
        if self.batch_queue.len() >= batching.max_batch.max(1)
            || batching.window == Dur::ZERO
            || idle()
        {
            self.flush_batch(ctx);
        } else if self.batch_timer.is_none() {
            self.batch_timer = Some(ctx.set_timer(batching.window, TimerTag::BatchFlush));
        }
    }

    /// Proposes the queued outcomes — and whatever claims the log has
    /// queued — as one decision-log slot.
    fn flush_batch(&mut self, ctx: &mut dyn Context) {
        if let Some(t) = self.batch_timer.take() {
            ctx.cancel_timer(t);
        }
        let entries = std::mem::take(&mut self.batch_queue);
        let applied = self.log.propose(ctx, &mut self.regs, entries, &|n| self.fd.suspects(n));
        self.after_pump(ctx, applied);
    }

    /// What follows every pump of the log — a flush's proposal or a
    /// decided slot's. First the speculation stage: the proposal the pump
    /// opened, if any, ships to the shard primaries as `SpecExec` frames,
    /// in the event that started its consensus round, split as termination
    /// will split it if the slot decides as proposed. A primary stashes its
    /// share, pre-pays the commit processing while the round runs, and
    /// resolves the stash when the slot's `Decide` names it. Then the
    /// slots the pump decided apply.
    fn after_pump(&mut self, ctx: &mut dyn Context, applied: Few<AppliedSlot>) {
        if let Some((slot, batch)) =
            self.log.opened_proposal().filter(|_| self.cfg.features.speculation.enabled)
        {
            // An entry whose attempt this server no longer holds (a
            // watermark took it while the entry was queued) ships to every
            // shard primary: a follower never holds a branch.
            let primaries = std::cell::OnceCell::new();
            let targets = |rid| match self.attempts.get(rid).and_then(|a| a.outcome.as_ref()) {
                Some((targets, _)) => &targets[..],
                None => &primaries.get_or_init(|| self.shards.primaries())[..],
            };
            let outcomes = batch.outcomes.iter().map(|(rid, d)| (*rid, d.outcome, targets(*rid)));
            for (db, entries) in split(outcomes) {
                ctx.send(db, Payload::Db(DbMsg::SpecExec { slot, entries }));
            }
        }
        self.apply_slots(ctx, applied);
    }

    /// Processes decided, in-order slots. Watermarks the slot's claims
    /// carried settle their clients' older requests here as a request from
    /// the client would. Every first claim names an owner: a request
    /// waiting on it computes or watches. Every first-occurrence outcome is
    /// final, and the ones this server initiated terminate now — grouped,
    /// so one slot becomes one `Decide` per involved database.
    fn apply_slots(&mut self, ctx: &mut dyn Context, applied: Few<AppliedSlot>) {
        for slot in applied {
            for (client, ack_below) in slot.watermarks {
                self.gc_below(ctx, client, ack_below);
            }
            for claim in slot.claims {
                if matches!(self.phase(claim.rid), Some(Phase::Claiming { since: Some(_), .. })) {
                    self.on_owner(ctx, claim.rid, claim.server);
                }
            }
            if slot.entries.is_empty() {
                continue; // nothing became final: claims only, or duplicates
            }
            ctx.trace(TraceKind::BatchDecided { slot: slot.slot, len: slot.entries.len() as u32 });
            self.terminate(ctx, Some(slot.slot), slot.entries);
        }
        // A slot whose members were all settled when it applied (a
        // placeholder's after the first, or one of late entries alone)
        // raises no watermark, so no GC pass would compact it.
        self.compact_below(self.log.settled_below());
    }

    // ---- terminate() (Figure 4) --------------------------------------------

    /// Figure 4's `terminate()` for decided attempts: a slot's, or one whose
    /// decision was already final when this server became its initiator
    /// (the wo-register "write returns the earlier value"). An attempt is
    /// this server's to terminate if it initiated the outcome, as owner or
    /// cleaner, and is not terminating already. Each such attempt closes
    /// its log-outcome span and enters `terminate()`. Their first pushes
    /// coalesce into one `Decide` per database, which names `slot` — the
    /// slot whose `SpecExec` stash it resolves. Retries stay per attempt:
    /// retransmission is the rare path.
    fn terminate(
        &mut self,
        ctx: &mut dyn Context,
        slot: Option<u64>,
        decided: impl IntoIterator<Item = (ResultId, Decision)>,
    ) {
        let mut items = Vec::new();
        for (rid, decision) in decided {
            let Some(attempt) = self.attempts.get_mut(rid) else { continue };
            let Some((targets, t0)) = attempt.outcome.take() else {
                continue; // another server's (or an earlier slot's) to terminate
            };
            let terminating = matches!(
                attempt.phase,
                Some(Phase::Done { .. } | Phase::Xa(Xa::Terminating { .. }))
            );
            let dur = ctx.now().since(t0);
            ctx.span(rid, Component::LogOutcome, dur);
            if !terminating {
                items.push((rid, decision, targets));
            }
        }
        let pushes = split(items.iter().map(|(rid, d, targets)| (*rid, d.outcome, &targets[..])));
        for (rid, decision, targets) in items {
            let next = Xa::terminate(ctx, rid, decision, targets, self.cfg.terminate_retry, false);
            self.enter(ctx, rid, next);
        }
        for (db, entries) in pushes {
            ctx.send(db, Payload::Db(DbMsg::Decide { entries, slot }));
        }
    }

    // ---- cleaning thread (Figure 6) -----------------------------------------

    /// One cleaning pass: every attempt the log says a suspected server
    /// owns — requested or merely pre-claimed — is forced to a decision and
    /// terminated. The log's owner map holds open work only (attempts at
    /// or above their client's watermark), so that is all a pass walks.
    fn run_cleaner(&mut self, ctx: &mut dyn Context) {
        if !self.topo.app_servers.iter().any(|&n| self.fd.suspects(n)) {
            return;
        }
        let cleaned = |rid| self.attempts.get(rid).is_some_and(|a| a.cleaned);
        let orphans: Vec<(ResultId, NodeId)> = self
            .log
            .owners()
            .filter(|&(rid, owner)| self.fd.suspects(owner) && !cleaned(rid))
            .collect();
        for (rid, owner) in orphans {
            let attempt = self.attempts.get_or_default(rid);
            attempt.cleaned = true;
            if matches!(attempt.phase, Some(Phase::Done { .. })) {
                continue;
            }
            ctx.trace(TraceKind::CleanerTakeover { rid, owner });
            // Figure 6 line 7: regD[j].write(nil, abort), now an entry
            // proposed into the decision log; first occurrence in slot
            // order arbitrates, so if the owner's decision got there first
            // the cleaner terminates with it. Only shard primaries hold
            // branches (the router addresses them), so only they hear it.
            let targets = self.shards.primaries();
            self.submit_outcome(ctx, rid, Decision::nil_abort(), targets);
        }
    }
}

impl Process for AppServer {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        // A recovered server is a fresh incarnation from the factory: it
        // restarts detection, resync and cleaning like a new one.
        if matches!(event, Event::Init | Event::Recovered) {
            self.fd.on_init(ctx);
            self.regs.on_init(ctx);
            ctx.set_timer(self.cfg.cleaner_interval, TimerTag::CleanerTick);
        }
        // 1. Failure detection first: every event reaches the detector (a
        //    proof of life, and a scripted detector's clock), and
        //    everything downstream asks it `suspects` in place. An event
        //    only the detector reads — a peer's heartbeat, its own tick —
        //    ends here unless it moved a suspicion: stages 2–4 do nothing
        //    with one, and the flush policy (5) ran at the end of the last
        //    event over the same state. Unless that policy's own flush
        //    applied a slot that queued an outcome again: then no window
        //    timer is armed, and the policy looks once more. So with the
        //    detector quiet and the policy idle, a heartbeat emits nothing
        //    (`background_inert`), and the detector's note of it is all it
        //    does: a heartbeat the host held comes through `absorb`
        //    instead, and only the heartbeats it queued arrive here.
        let transitions = self.fd.handle(ctx, &event);
        let detector_only = matches!(
            event,
            Event::Message { payload: Payload::Fd(_), .. }
                | Event::Timer { tag: TimerTag::FdHeartbeat, .. }
        );
        if detector_only && transitions.is_empty() {
            if self.batch_timer.is_none() {
                self.maybe_flush(ctx);
            }
            return;
        }
        let newly_suspected =
            transitions.iter().any(|t| matches!(t, etx_fd::FdTransition::Suspect(_)));
        // 2. Registers: consensus traffic, round patience, resync. Slot
        //    decisions feed the decision log, which applies them in order.
        //    A suspicion transition re-evaluates every undecided instance.
        if !transitions.is_empty() {
            self.regs.on_suspicion_change(ctx, &|n| self.fd.suspects(n));
        }
        for ev in self.regs.handle(ctx, &event, &|n| self.fd.suspects(n)) {
            let WoEvent::Decided { reg, value } = ev;
            let Some(slot) = reg.slot_index() else { continue };
            // A decided slot lets the log pump the next pending batch into
            // a fresh proposal — overlap that one too.
            let sus = &|n| self.fd.suspects(n);
            let applied = self.log.on_slot_decided(ctx, &mut self.regs, slot, &value, sus);
            self.after_pump(ctx, applied);
        }
        // 3. A fresh suspicion triggers an immediate cleaning pass
        //    (Figure 6's loop reacts to suspect() turning true).
        if newly_suspected {
            self.run_cleaner(ctx);
        }
        // 4. Protocol messages and timers.
        match event {
            Event::Message {
                payload: Payload::Client(ClientMsg::Request { request, attempt, ack_below, stamps }),
                ..
            } => {
                self.on_request(ctx, request, attempt, ack_below, stamps);
            }
            Event::Message { from, payload: Payload::DbReply(reply) } => match reply {
                DbReplyMsg::ExecReply { rid, status } => {
                    self.on_xa(ctx, rid, |xa, ctx| xa.exec_reply(ctx, rid, status));
                }
                DbReplyMsg::Vote { rid, vote } => {
                    self.on_xa(ctx, rid, |xa, _| xa.vote(from, vote));
                }
                DbReplyMsg::AckDecide { entries, seq, lease } => {
                    self.lane.observe(from, seq);
                    self.lane.observe_lease(from, lease);
                    for (rid, _) in entries {
                        self.on_xa(ctx, rid, |xa, ctx| xa.ack(ctx, from));
                    }
                }
                DbReplyMsg::ReadReply { rid, call, round, outputs, pos, indoubt, lease } => {
                    let end =
                        self.lane.reply(ctx, from, rid, call, round, outputs, pos, indoubt, lease);
                    if let Some(end) = end {
                        self.on_read_end(ctx, rid, end);
                    }
                }
                // A database's crash-recovery notice: every attempt at the
                // databases applies Figure 4 to it, in the windows' order.
                DbReplyMsg::Ready => {
                    let rids: Vec<ResultId> = self.attempts.iter().map(|(rid, _)| rid).collect();
                    for rid in rids {
                        self.on_xa(ctx, rid, |xa, ctx| xa.ready(ctx, rid, from));
                    }
                }
                DbReplyMsg::AckCommitOnePhase { .. } => { /* baseline-only message */ }
            },
            // A shard primary's bare lease grant (startup establishment or
            // the renewal heartbeat): fold the advert into the routing
            // table so collects spread at in-lease followers even on
            // workloads whose decide traffic would never piggyback one.
            Event::Message {
                from,
                payload: Payload::Repl(ReplMsg::LeaseRenew { through, floor: _ }),
            } => {
                self.lane.observe_lease(from, Some(through));
            }
            Event::Timer { tag, .. } => match tag {
                TimerTag::Dispatch { rid, stage: 0 } => self.dispatch_claim(ctx, rid),
                TimerTag::Dispatch { rid, stage: 1 } => self.lane.dispatch(ctx, rid),
                TimerTag::ReadRetry { rid } => self.lane.retry(ctx, rid),
                TimerTag::TerminateRetry { rid } => {
                    let period = self.cfg.terminate_retry;
                    if let Some(xa) = self.xa_mut(rid) {
                        xa.retry(ctx, rid, period);
                    }
                }
                TimerTag::BatchFlush => {
                    self.batch_timer = None;
                    self.flush_batch(ctx);
                }
                TimerTag::CleanerTick => {
                    self.run_cleaner(ctx);
                    ctx.set_timer(self.cfg.cleaner_interval, TimerTag::CleanerTick);
                }
                TimerTag::ConsensusResync => {
                    // The engine already re-armed itself; piggyback the
                    // decision log's gap pulls on the same cadence — the
                    // only re-pull a gap gets after the one that found it.
                    self.log.request_gaps(ctx, &mut self.regs);
                }
                _ => {}
            },
            _ => {}
        }
        // 5. Pipeline flush policy — once per event that got past stage 1,
        //    after everything that could have queued an outcome or changed
        //    in-flight state.
        self.maybe_flush(ctx);
    }

    fn name(&self) -> &'static str {
        "appserver"
    }

    /// Stage 1 of `on_event` ends a heartbeat that moves no suspicion; it
    /// emits nothing when the detector is quiet and the flush policy has
    /// nothing to do: no queued outcome, or its window timer armed.
    fn background_inert(&self) -> bool {
        self.fd.quiet() && (self.batch_queue.is_empty() || self.batch_timer.is_some())
    }

    /// Stage 1 of an inert server's heartbeat: the detector notes it.
    fn absorb(&mut self, now: Time, from: NodeId, _: &FdMsg) {
        self.fd.absorb(now, from);
    }

    fn as_any(&self) -> Option<&dyn core::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use etx_base::config::FdConfig;
    use etx_base::value::{DbOp, RequestScript};
    use etx_fd::HeartbeatFd;

    /// The recorder's own node (`NodeId(2)`), the second of three
    /// application servers, after its `Init`, with a request from the
    /// client at the dispatch stage; and the detector's period.
    fn started() -> (AppServer, Dur) {
        let topo = Topology::new(1, 3, 1);
        let fd = FdConfig::default();
        let me = Recorder::default().me();
        let detector = Box::new(HeartbeatFd::new(me, &topo.app_servers, fd));
        let cfg = ProtocolConfig::fast_for_tests();
        let mut app = AppServer::new(me, topo.clone(), cfg, CostModel::fast_for_tests(), detector);
        let mut ctx = Recorder::default();
        app.on_event(&mut ctx, Event::Init);
        let request = Request {
            id: RequestId { client: topo.clients[0], seq: 1 },
            script: RequestScript::single(topo.db_servers[0], vec![DbOp::Get { key: "k".into() }]),
        };
        let msg = ClientMsg::Request { request, attempt: 1, ack_below: 1, stamps: Vec::new() };
        let from = topo.clients[0];
        app.on_event(&mut ctx, Event::Message { from, payload: Payload::Client(msg) });
        assert!(
            ctx.timers.iter().any(|(_, tag)| matches!(tag, TimerTag::Dispatch { .. })),
            "the request is in flight here"
        );
        (app, fd.heartbeat_every)
    }

    #[test]
    fn a_tick_that_moves_no_suspicion_sends_its_round_and_arms_the_next_tick_only() {
        let (mut app, period) = started();
        let mut ctx = Recorder::default();
        app.on_event(&mut ctx, Event::Timer { id: TimerId(1), tag: TimerTag::FdHeartbeat });
        let round: Vec<NodeId> = ctx.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(round, [NodeId(1), NodeId(3)], "a heartbeat to each peer");
        assert!(ctx.sent.iter().all(|(_, p)| matches!(p, Payload::Fd(FdMsg::Heartbeat { .. }))));
        assert_eq!(ctx.timers, [(period, TimerTag::FdHeartbeat)]);
        assert!(ctx.cancelled.is_empty() && ctx.traced.is_empty() && ctx.wal.is_empty());
    }

    #[test]
    fn a_heartbeat_delivery_that_moves_no_suspicion_sends_and_arms_nothing() {
        let (mut app, _) = started();
        let mut ctx = Recorder::default();
        let beat = Payload::Fd(FdMsg::Heartbeat { seq: 1 });
        app.on_event(&mut ctx, Event::Message { from: NodeId(1), payload: beat });
        assert!(ctx.sent.is_empty() && ctx.timers.is_empty() && ctx.cancelled.is_empty());
        assert!(ctx.traced.is_empty() && ctx.wal.is_empty());
    }

    #[test]
    fn an_inert_server_absorbs_a_heartbeat_as_its_handler_would_take_it() {
        let (mut handled, _) = started();
        let (mut absorbed, _) = started();
        let (mut unheard, _) = started();
        assert!(handled.background_inert(), "started: quiet, nothing queued");
        let (at, beat) = (Time(70_000), FdMsg::Heartbeat { seq: 1 });
        let mut ctx = Recorder { now: at, ..Recorder::default() };
        handled.on_event(&mut ctx, Event::Message { from: NodeId(1), payload: Payload::Fd(beat) });
        assert!(ctx.sent.is_empty() && ctx.timers.is_empty() && ctx.cancelled.is_empty());
        assert!(ctx.traced.is_empty() && ctx.wal.is_empty(), "the handler emits nothing");
        absorbed.absorb(at, NodeId(1), &beat);
        assert!(absorbed.background_inert() && handled.background_inert(), "still inert");
        // The next tick is past node 3's 80 ms timeout, not past node 1's
        // heartbeat at 70 ms: what it emits shows what each detector heard.
        let tick = |app: &mut AppServer| {
            let mut ctx = Recorder { now: Time(100_000), ..Recorder::default() };
            app.on_event(&mut ctx, Event::Timer { id: TimerId(1), tag: TimerTag::FdHeartbeat });
            let suspected: Vec<_> = ctx
                .traced
                .iter()
                .filter_map(|k| match k {
                    TraceKind::Suspect { peer } => Some(*peer),
                    _ => None,
                })
                .collect();
            (suspected, format!("{:?} {:?} {:?}", ctx.sent, ctx.timers, ctx.traced))
        };
        let (verdict, emitted) = tick(&mut absorbed);
        assert_eq!(verdict, [NodeId(3)]);
        assert_eq!(tick(&mut handled), (verdict, emitted), "an equal detector");
        assert_eq!(tick(&mut unheard).0, [NodeId(1), NodeId(3)], "the heartbeat counted");
    }
}
