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
//! ## The read fast lane
//!
//! The write-once `regD` contract exists to make retries of *effectful*
//! transactions safe; a read-only script (all `Get`s) is idempotent and
//! needs none of it. With [`etx_base::config::ReadPathConfig::enabled`],
//! such scripts are classified after shard routing and sent around the
//! whole pipeline as direct snapshot reads against the shard replicas —
//! no ownership race, no votes, no decision-log slot, no termination
//! push. Follower reads are gated on a per-shard freshness stamp: the
//! highest commit-ship position this server has observed (decide
//! acknowledgements), max-folded with the client's causality token
//! (stamps carried on every request), so a lagging follower forwards
//! rather than serve stale state and read-your-writes survives client
//! failover. Multi-shard reads additionally run the snapshot-validation
//! loop documented on `ReadState`, which is what makes a cross-shard
//! fan-out read transactionally atomic rather than a fractured per-shard
//! sample; validation that cannot converge falls back to the locking slow
//! path.

use crate::xa::{Entered, Step, Xa};
use etx_base::attempts::AttemptWindows;
use etx_base::config::{CostModel, ProtocolConfig};
use etx_base::ids::{NodeId, RegId, RequestId, ResultId, TimerId, Topology};
use etx_base::msg::{AppMsg, ClientMsg, DbMsg, DbReplyMsg, Payload, ReplMsg};
use etx_base::runtime::{jittered, Context, Event, Process, TimerTag};
use etx_base::shard::ShardMap;
use etx_base::time::{Dur, Time};
use etx_base::trace::{Component, TraceKind};
use etx_base::value::{DbCall, Decision, OpOutput, Outcome, RegValue, Request};
use etx_consensus::{AppliedSlot, DecisionLog, EngineConfig, WoEvent, WoRegisters};
use etx_fd::FailureDetector;
use std::collections::{BTreeMap, BTreeSet};

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

/// Whether one database's share of a slot is worth pre-paying while the
/// slot's consensus round runs. The one rule `ship_speculation` (what ships
/// as `SpecExec`) and `start_terminate_group` (which pushes name their slot)
/// both apply, so a database holds a stash exactly for the pushes that ask
/// it to resolve one.
fn speculable(entries: &[(ResultId, Outcome)]) -> bool {
    entries.len() >= 2
}

/// A request's key in the committed-result cache (attempts start at 1).
fn cached(request: RequestId) -> ResultId {
    ResultId { request, attempt: 0 }
}

/// One in-flight fast-path read: the routed calls of a read-only script
/// and the per-call outputs collected so far. No consensus state, no
/// termination targets — nothing here needs surviving this server, because
/// reads are idempotent and the client's retry machinery re-runs them
/// anywhere.
///
/// Multi-shard reads additionally run **snapshot validation** over the
/// collected rounds: a collect is accepted only when every shard's commit
/// position matches the previous collect and no read key had an in-doubt
/// write. Because a collect only starts after every reply of its
/// predecessor arrived, two agreeing collects bracket an instant at which
/// all returned values held simultaneously — and the in-doubt check rules
/// out a cross-shard transaction that had committed at some shards but was
/// still prepared at another. That is exactly the fractured read the
/// locking slow path forbids, forbidden here without locks.
#[derive(Debug)]
struct ReadState {
    /// The routed request (kept so an exhausted validation budget can
    /// re-route the attempt down the locking slow path).
    request: Request,
    /// Routed per-shard calls, in script order.
    calls: Vec<DbCall>,
    /// Outputs per call; `None` until the call's `ReadReply` arrives.
    outputs: Vec<Option<Vec<OpOutput>>>,
    /// Serving replica's commit position per call (valid where `outputs`
    /// is `Some`).
    positions: Vec<u64>,
    /// The freshness stamp each call was sent with (the position this
    /// server had observed for the shard at send time). If a reply's
    /// position still equals it, the shard committed nothing between the
    /// stamp's observation and the read — which lets the **first** collect
    /// accept without a validation round (see `on_read_reply`).
    sent_stamps: Vec<u64>,
    /// Per-call read-your-writes floor: the highest position the issuing
    /// *client's* causality token carried for the call's shard. In lease
    /// mode this — not the server-wide stamp — is the `min_seq` a
    /// follower-routed call is gated on: an in-lease follower's prefix is
    /// authoritative, so the only staleness that matters is relative to
    /// what this client has itself observed.
    floors: Vec<u64>,
    /// Whether any reply of the current collect flagged an in-doubt write
    /// on a read key.
    indoubt: bool,
    /// The previous completed collect's positions (`None` until one
    /// collect completes).
    prev_positions: Option<Vec<u64>>,
    /// Current collect round (0-based; echoed on the wire so replies from
    /// superseded rounds are dropped).
    round: u32,
    /// How many times the loss backstop has fired for this attempt (drives
    /// its exponential back-off).
    backoff: u32,
}

/// Deterministic follower choice for a fast-path read: all replicas
/// derive the same pick for the same attempt/call, and distinct attempts
/// spread over the shard's followers.
fn read_pick(rid: ResultId, call: usize, n: usize) -> usize {
    let mut z = (u64::from(rid.request.client.0) << 40)
        ^ rid.request.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(rid.attempt) << 17)
        ^ ((call as u64) << 3);
    z ^= z >> 33;
    z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^= z >> 33;
    (z % n as u64) as usize
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
    /// The decision-log slots whose in-flight proposals were already
    /// shipped as `SpecExec` frames (so each proposal is shipped at
    /// most once); pruned to the live proposal window on every shipment.
    spec_shipped: BTreeSet<u64>,
    /// High-water mark of concurrently undecided slots this server has had
    /// in flight — traced (once per new depth ≥ 2) as `PipelineWindow`, so
    /// a depth-1 run's trace is untouched.
    window_peak: u32,
    /// Protocol state: one record per attempt of the clients' open windows.
    attempts: AttemptWindows<Attempt>,
    /// In-flight fast-path reads (read-only scripts routed around the
    /// commit pipeline).
    reads: AttemptWindows<ReadState>,
    /// Highest commit-ship position observed per shard primary — the
    /// freshness stamp follower reads are gated on. Fed from two sides:
    /// decide acknowledgements this server received, and the causality
    /// token each client request carries (stamps from results delivered to
    /// that client, possibly by *other* servers) — the latter is what
    /// keeps read-your-writes intact across client failover. Ordered so
    /// stamp vectors serialize deterministically.
    shard_seq: BTreeMap<NodeId, u64>,
    /// Latest read-lease expiry advertised per shard primary (ridden on
    /// decide acknowledgements and primary-served read replies). While the
    /// advertisement is in force, the shard's followers hold a grant at
    /// most `renew_margin` older — so the read lane may route any call at
    /// them, including multi-shard snapshot-validation collects, without
    /// the forward hop. Only populated when leases are enabled.
    shard_lease: BTreeMap<NodeId, Time>,
    /// Latest applied position observed *per serving replica* (fed by
    /// read replies, keyed by the actual answering node — unlike
    /// [`AppServer::shard_seq`], which is keyed by shard primary and fed
    /// by commit acknowledgements too). A follower-routed call of a
    /// leased collect validates `fresh` against this: positions are
    /// monotone, so a reply matching the last position this replica ever
    /// reported proves the replica stood still from that observation to
    /// the sample — an interval containing the send instant, exactly the
    /// common-instant bracket the primary-stamp argument uses. (Without
    /// it, a follower lagging the primary-fed stamp by even one apply
    /// forces every leased collect into a second validation round.)
    replica_seq: BTreeMap<NodeId, u64>,
    /// Committed decisions we *finished terminating*, for answering client
    /// retransmissions (Figure 5 lines 3–4); one per request, under
    /// [`cached`].
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
        let log = DecisionLog::new(cfg.features.batching.max_batch, cfg.features.pipeline.window());
        AppServer {
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
            spec_shipped: BTreeSet::new(),
            window_peak: 0,
            attempts: AttemptWindows::new(),
            reads: AttemptWindows::new(),
            shard_seq: BTreeMap::new(),
            shard_lease: BTreeMap::new(),
            replica_seq: BTreeMap::new(),
            committed_cache: AttemptWindows::new(),
        }
    }

    fn suspicion_snapshot(&self) -> Vec<NodeId> {
        self.fd.suspected()
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
    /// mid-protocol), independent of requests served. Returns the
    /// outcome-carrying decision-log slots this pass compacted.
    ///
    /// A stale attempt whose outcome this server initiated and the log has
    /// not decided — queued here, queued in the log or in a slot still in
    /// flight — is **aborted on the spot**. The log ignores every entry
    /// for a settled request, so that outcome can never be sequenced and
    /// nobody would ever terminate the attempt: its branches would stay
    /// prepared, and their locks held, forever. (How a request settles
    /// under a running attempt: another server's read lane answered it.)
    /// The abort is safe wherever the attempt did terminate elsewhere: a
    /// request settles only after its result reached the client, which is
    /// after every database decided, and a decided database answers a late
    /// `Decide` from its memo.
    fn gc_below(&mut self, ctx: &mut dyn Context, client: NodeId, ack_below: u64) -> Vec<u64> {
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
        // Slots whose every member is settled shed their consensus payload
        // too — without this the register bank retains one decided batch
        // (results included) per slot forever, unbounding memory with total
        // throughput. Compacted (not forgotten), and down to an
        // outcomes-only tombstone rather than an empty batch: a replica
        // that resyncs the slot after compaction still needs the
        // `(attempt, outcome)` pairs for first-occurrence arbitration — its
        // cleaner may not have heard this client's watermark and re-propose a
        // member attempt as `(nil, abort)`, which must lose to the original
        // outcome everywhere. Only the result payloads are shed.
        let mut shed = Vec::new();
        for (slot, tombstone) in self.log.gc_client(client, ack_below) {
            if self.regs.compact(RegId::slot(slot), RegValue::Batch(tombstone)) {
                shed.push(slot);
            }
        }
        // Settled fast-path reads drop with the same watermark.
        self.reads.below(client, ack_below, |_, _| false);
        // Outcomes this server still owed a decision never reach
        // apply_slots now: terminate them here.
        for rid in undecided {
            self.outcome_final(ctx, rid, Decision::nil_abort());
        }
        let stale = ResultId::below(client, ack_below);
        self.batch_queue.retain(|(rid, _)| !stale.contains(rid));
        self.committed_cache.below(client, ack_below, |_, _| false);
        shed
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
            self.observe_shard_seq(db, seq);
        }
        let token = stamps;
        // Garbage collection (§5 leaves it open; this is the natural hook):
        // the client's watermark tells us which of its requests are settled
        // forever — their attempts can never be retransmitted again and
        // their register/log state can go. The trace records the slots
        // shed here, where the watermark enters the middle tier; the
        // replicas that follow it through the log shed theirs silently.
        for slot in self.gc_below(ctx, request.id.client, ack_below) {
            ctx.trace(TraceKind::SlotGc { slot });
        }
        // Figure 5 line 3: if this request already committed, answer from
        // the cached decision.
        if let Some((crid, decision)) = self.committed_cache.get(cached(request.id)).cloned() {
            let stamps = self.all_stamps();
            ctx.send(
                rid.request.client,
                Payload::App(AppMsg::Result { rid: crid, decision, stamps }),
            );
            return;
        }
        match self.phase(rid) {
            Some(Phase::Done { decision }) => {
                let decision = decision.clone();
                let stamps = self.all_stamps();
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
                let (request, routed) = crate::router::materialize(request, &self.shards);
                if let Some(span) = routed {
                    ctx.trace(TraceKind::ShardRoute { rid, shards: span });
                }
                // Already decided — a cleaner aborted it before the request
                // got here (a crashed server's pre-claim, typically): there
                // is nothing to compute. Terminate with the log's decision,
                // which also answers the client.
                if let Some(decision) = self.log.decision_of(rid).cloned() {
                    self.submit_outcome(ctx, rid, decision, request.script.databases());
                    return;
                }
                // Read fast lane: an all-Get script is idempotent, so it
                // needs none of the commit machinery the write-once regD
                // contract exists for. Route it around the pipeline as
                // direct snapshot reads (duplicates of an in-flight read
                // are absorbed like any other in-progress attempt).
                if self.cfg.features.read_path.enabled && request.script.is_read_only() {
                    if self.reads.get(rid).is_none() {
                        self.start_read(ctx, rid, request, &token);
                    }
                    return;
                }
                self.set_phase(rid, Phase::Claiming { request, since: None });
                let dur = jittered(ctx, self.cost.start, self.cost.jitter);
                ctx.trace(TraceKind::Span { rid, comp: Component::Start, dur });
                ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 0 });
            }
        }
    }

    // ---- the read fast lane ------------------------------------------------

    /// Starts a fast-path read: records the routed calls, charges the
    /// dispatch cost and defers the fan-out behind it (stage-1 dispatch).
    fn start_read(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        request: Request,
        token: &[(NodeId, u64)],
    ) {
        let calls = request.script.calls.clone();
        ctx.trace(TraceKind::ReadFastPath { rid, shards: calls.len() as u32 });
        let dur = jittered(ctx, self.cost.start, self.cost.jitter);
        ctx.trace(TraceKind::Span { rid, comp: Component::Start, dur });
        let n = calls.len();
        let floors = calls
            .iter()
            .map(|c| {
                token.iter().filter(|(db, _)| *db == c.db).map(|&(_, seq)| seq).max().unwrap_or(0)
            })
            .collect();
        self.reads.insert(
            rid,
            ReadState {
                request,
                calls,
                outputs: vec![None; n],
                positions: vec![0; n],
                sent_stamps: vec![0; n],
                floors,
                indoubt: false,
                prev_positions: None,
                round: 0,
                backoff: 0,
            },
        );
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 1 });
    }

    /// Fans a fast-path read out: one `Read` message per routed call, then
    /// arms the retry backstop (covers read targets that crash with the
    /// request in flight). Multi-shard reads go straight to the shard
    /// primaries — snapshot validation needs the authoritative positions.
    fn dispatch_reads(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let calls = match self.reads.get(rid) {
            Some(state) => state.calls.clone(),
            None => return,
        };
        let multi = calls.len() > 1;
        let mut stamps = Vec::with_capacity(calls.len());
        for (idx, call) in calls.iter().enumerate() {
            let to_primary = self.read_to_primary(ctx.now(), multi, call.db);
            stamps.push(self.send_read_call(ctx, rid, idx, call, 0, to_primary, 0));
        }
        if let Some(state) = self.reads.get_mut(rid) {
            state.sent_stamps = stamps;
        }
        ctx.set_timer(self.cfg.terminate_retry, TimerTag::ReadRetry { rid });
    }

    /// Whether the shard's advertised lease is in force right now.
    fn lease_active(&self, now: Time, db: NodeId) -> bool {
        self.shard_lease.get(&db).is_some_and(|&through| through > now)
    }

    /// Folds a lease advertisement (ridden on a decide acknowledgement or
    /// a primary-served read reply) into the per-shard lease table.
    fn observe_shard_lease(&mut self, db: NodeId, lease: Option<Time>) {
        if let Some(through) = lease {
            let slot = self.shard_lease.entry(db).or_insert(Time::ZERO);
            if *slot < through {
                *slot = through;
            }
        }
    }

    /// First-dispatch routing rule for one call of a fast-path read.
    /// Single-shard reads spread over the replica group (when follower
    /// reads are on). Multi-shard collects historically went straight to
    /// the shard primaries — snapshot validation needed the authoritative
    /// positions — but an in-force lease makes the followers' positions
    /// authoritative too, so the collect may spread as well: that is the
    /// forward hop the lease exists to kill.
    fn read_to_primary(&self, now: Time, multi: bool, db: NodeId) -> bool {
        multi && !(self.cfg.features.read_leases.enabled && self.lease_active(now, db))
    }

    /// Sends one read call, stamped with the highest commit seq this server
    /// has observed for the target shard (client causality tokens folded
    /// in). With follower reads enabled (and `to_primary` not forced), the
    /// call spreads deterministically over the shard's **whole replica
    /// group** — every replica's read lane serves a slice of the read
    /// traffic, which is what multiplies read capacity with the
    /// replication factor. A chosen follower serves locally if it has
    /// caught up to the stamp and forwards to the primary otherwise.
    /// Returns the server-wide stamp observed at send time — what the
    /// collect's freshness validation compares reply positions against,
    /// regardless of what `min_seq` went on the wire.
    ///
    /// `salt` rotates the deterministic replica pick (0 on first dispatch;
    /// the retry backstop passes its back-off count so a re-send lands on
    /// a *different* replica than the one that went unanswered).
    #[allow(clippy::too_many_arguments)] // one knob per routing dimension
    fn send_read_call(
        &self,
        ctx: &mut dyn Context,
        rid: ResultId,
        idx: usize,
        call: &DbCall,
        round: u32,
        to_primary: bool,
        salt: u32,
    ) -> u64 {
        let stamp = self.shard_seq.get(&call.db).copied().unwrap_or(0);
        let leased = self.cfg.features.read_leases.enabled && self.lease_active(ctx.now(), call.db);
        let spread = !to_primary && (self.cfg.features.read_path.follower_reads || leased);
        let target = if !spread {
            call.db
        } else {
            match self.shards.shard_of_node(call.db) {
                Some(shard) => {
                    let replicas = self.shards.replicas(shard);
                    match replicas.len() {
                        0 => call.db,
                        n => replicas[(read_pick(rid, idx, n) + salt as usize) % n],
                    }
                }
                None => call.db,
            }
        };
        // In lease mode a follower-routed call is gated on the issuing
        // client's own causality floor, not the server-wide stamp: the
        // in-lease follower's prefix is authoritative, so the only
        // staleness that matters is read-your-writes relative to this
        // client. Everywhere else the server-wide stamp gates as before.
        let min_seq = if leased && target != call.db {
            self.reads.get(rid).map_or(stamp, |s| s.floors[idx])
        } else {
            stamp
        };
        ctx.send(
            target,
            Payload::Db(DbMsg::Read {
                rid,
                call: idx as u32,
                round,
                ops: call.ops.clone(),
                min_seq,
                reply_to: self.me,
            }),
        );
        // The stamp `fresh` validates against is the last position the
        // *target node itself* reported: for a primary that is the
        // server-wide shard stamp; for a follower it is the replica's own
        // observed position (primary-fed stamps would run ahead of a
        // healthy follower by in-flight shipments and force a second
        // collect round). Either way the argument is the same — positions
        // are monotone, so a reply equal to a stamp observed before the
        // send proves the serving node stood still across an interval
        // containing the send instant.
        if target == call.db {
            stamp
        } else {
            self.replica_seq.get(&target).copied().unwrap_or(0)
        }
    }

    /// A read call answered. Replies from superseded collect rounds are
    /// dropped (their samples predate the current round's start and would
    /// unsound the validation argument). Once the round is complete, a
    /// single-shard read finishes immediately — it sampled one replica at
    /// one instant, atomic by construction. A multi-shard read finishes
    /// only when the collect is provably a snapshot (see `accept` below);
    /// otherwise it re-collects, and after
    /// [`etx_base::config::ReadPathConfig::max_snapshot_rounds`] collects
    /// it falls back to the locking slow path.
    #[allow(clippy::too_many_arguments)] // mirrors the ReadReply frame field-for-field
    fn on_read_reply(
        &mut self,
        ctx: &mut dyn Context,
        from: NodeId,
        rid: ResultId,
        call: u32,
        round: u32,
        outputs: Vec<OpOutput>,
        pos: u64,
        indoubt: bool,
        lease: Option<Time>,
    ) {
        // A primary-served reply advertises the shard's current lease
        // offer (followers send `None`) — fold it in even if the read
        // itself has already settled.
        self.observe_shard_lease(from, lease);
        let Some(state) = self.reads.get_mut(rid) else {
            return; // settled (or GC'd) read; late duplicate reply
        };
        if round != state.round {
            return; // a superseded collect's answer
        }
        let idx = call as usize;
        if idx >= state.outputs.len() || state.outputs[idx].is_some() {
            return;
        }
        state.outputs[idx] = Some(outputs);
        state.positions[idx] = pos;
        state.indoubt |= indoubt;
        let db = state.calls[idx].db;
        let done = !state.outputs.iter().any(Option::is_none);
        // Every reply is also a freshness observation of its shard — and
        // of the specific replica that answered.
        self.observe_shard_seq(db, pos);
        let slot = self.replica_seq.entry(from).or_insert(0);
        if *slot < pos {
            *slot = pos;
        }
        if !done {
            return;
        }
        // The collect is complete — decide its fate. It is an atomic
        // snapshot when every shard provably stood still across an
        // interval containing one common instant:
        //
        // * `fresh` — each position equals the stamp this server had
        //   *already observed* before sending, so the shard committed
        //   nothing between that observation and the read; the common
        //   instant is the send. This is the one-round happy path (reads
        //   fold their positions back into the stamps, keeping them
        //   exact while traffic is read-dominated).
        // * `stable` — each position equals the previous collect's, so
        //   nothing committed between the two non-overlapping collects.
        //
        // Either way, an in-doubt key vetoes: a cross-shard transaction
        // already committed elsewhere but still prepared here is
        // half-applied without moving this shard's position.
        let state = self.reads.get(rid).expect("read still in flight");
        let multi = state.calls.len() > 1;
        let fresh = state.positions.iter().zip(&state.sent_stamps).all(|(p, s)| p == s);
        let stable = state.prev_positions.as_deref() == Some(&state.positions[..]);
        // Leases never weaken this rule: they only change *routing* (which
        // replica a call lands on), while acceptance stays
        // freshness/stability + the in-doubt veto. What makes the rule
        // sound against a follower that cannot see another shard's
        // prepared branches is server-side: a lease-granting primary
        // holds its yes vote on a cross-shard branch until its followers
        // acknowledge the branch's in-doubt intent (or every outstanding
        // lease lapses), so any collect observing the transaction's
        // effects anywhere postdates that release — and the stale shard's
        // in-lease follower then forwards into the primary's in-doubt
        // veto rather than serving the fractured half.
        let accept = !multi || (!state.indoubt && (fresh || stable));
        let exhausted = state.round + 1 >= self.cfg.features.read_path.snapshot_rounds();
        if accept {
            self.finish_read(ctx, rid);
        } else if exhausted {
            self.fallback_read(ctx, rid);
        } else {
            let state = self.reads.get_mut(rid).expect("read still in flight");
            // Start the next collect: remember this round's positions,
            // clear the slate, and re-sample every shard primary. The loss
            // backstop's back-off deliberately does NOT reset here: a
            // collect that just completed proves the lane is answering, so
            // there is no loss evidence to cover — and under a saturated
            // burst, re-arming the backstop at its base period once per
            // validation round turns queued-but-coming replies into
            // duplicate sends that feed the very queue delaying them
            // (measured: −28% commit/s on the primary route's 99%-read
            // leg). A genuinely lost re-send is still covered, just at the
            // already-backed-off cadence.
            state.prev_positions = Some(state.positions.clone());
            state.round += 1;
            state.indoubt = false;
            for slot in &mut state.outputs {
                *slot = None;
            }
            let round = state.round;
            let calls = state.calls.clone();
            ctx.trace(TraceKind::ReadSnapshotRound { rid, round });
            // Re-collects follow first-dispatch routing: primaries by
            // default (authoritative positions make `stable` attainable),
            // in-lease followers when a lease is in force — a follower
            // standing still across two collects proves `stable` just as
            // soundly, since the vote-hold handshake pins any half-applied
            // cross-shard transaction behind its in-doubt veto. Each
            // re-send's freshly observed stamp replaces the stale one — a
            // shard that moved since the original dispatch can still prove
            // `fresh` against the position this server knows *now*.
            let mut stamps = Vec::with_capacity(calls.len());
            for (idx, call) in calls.iter().enumerate() {
                let to_primary = self.read_to_primary(ctx.now(), true, call.db);
                stamps.push(self.send_read_call(ctx, rid, idx, call, round, to_primary, 0));
            }
            let state = self.reads.get_mut(rid).expect("read still in flight");
            state.sent_stamps = stamps;
        }
    }

    /// An accepted collect: the per-shard outputs merge into one result
    /// (the read-only analogue of `compute()` returning) and the commit
    /// decision goes straight to the client — no voting, no decision log,
    /// no termination push. The serving positions ride along as the
    /// client's causality stamps.
    fn finish_read(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(state) = self.reads.remove(rid) else { return };
        let stamps: Vec<(NodeId, u64)> =
            state.calls.iter().zip(&state.positions).map(|(call, &pos)| (call.db, pos)).collect();
        let outs: Vec<Vec<OpOutput>> =
            state.outputs.into_iter().map(|o| o.expect("all calls answered")).collect();
        let result = crate::resultbuild::merge_read(&state.calls, &outs, rid.attempt);
        ctx.trace(TraceKind::Computed { rid });
        let decision = Decision::commit(result);
        self.committed_cache.insert(cached(rid.request), (rid, decision.clone()));
        self.set_phase(rid, Phase::Done { decision: decision.clone() });
        self.preclaim_successor(rid, Outcome::Commit);
        let dur = jittered(ctx, self.cost.end, self.cost.jitter);
        ctx.trace(TraceKind::Span { rid, comp: Component::End, dur });
        ctx.send_after(
            dur,
            rid.request.client,
            Payload::App(AppMsg::Result { rid, decision, stamps }),
        );
    }

    /// Snapshot validation exhausted its collect budget (keys too hot to
    /// catch standing still): re-route the attempt through the locking
    /// slow path, whose XA read locks make it atomic under any contention.
    /// Everything downstream is the ordinary write machinery — ownership
    /// claim, compute, votes — so liveness and exactly-once come for free.
    fn fallback_read(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(state) = self.reads.remove(rid) else { return };
        ctx.trace(TraceKind::ReadFallback { rid, rounds: state.round + 1 });
        self.set_phase(rid, Phase::Claiming { request: state.request, since: None });
        let dur = jittered(ctx, self.cost.start, self.cost.jitter);
        ctx.trace(TraceKind::Span { rid, comp: Component::Start, dur });
        ctx.set_timer(dur, TimerTag::Dispatch { rid, stage: 0 });
    }

    /// Retry backstop for fast-path reads (a crashed replica or a lost
    /// message must not stall an idempotent read). Re-sends exactly the
    /// unanswered calls of the current collect, *within the same collect
    /// epoch and against their original stamps*. Every stamp of the round
    /// still dates from the one dispatch instant, so the freshness
    /// argument is untouched (a reply matching its stamp proves the shard
    /// stood still from that shared instant to the sample, re-sent or
    /// not), collected replies keep their progress, and — crucially — a
    /// backstop firing on replies that are merely *queued* behind a busy
    /// lane never abandons them: the originals still land and fill their
    /// slots, the duplicates are dropped by the per-call fill guard.
    /// (An earlier draft restarted a fully unanswered collect as a fresh
    /// wire epoch with refreshed stamps; under a saturated burst that
    /// orphans every queued reply of the old epoch and re-queues the whole
    /// fan-out each firing — measured at −20..28% commit/s on the
    /// saturated 16-shard legs. The price of keeping the epoch is that a
    /// genuinely lost call whose shard moved during the timeout fails
    /// `fresh` and costs one validation round — and *that* round refreshes
    /// every stamp at a single instant, in `on_read_reply`, which is the
    /// only place a refresh is sound: completing a partially answered
    /// collect against refreshed stamps would mix observation instants
    /// with no common point, exactly the fractured cross-shard read the
    /// validation exists to forbid.)
    ///
    /// Routing: the first re-send rotates to a *different* replica of the
    /// same shard — the unanswered one may be down, and its crash is
    /// invisible here by design — and from the second firing on it
    /// escalates to the shard primary, which is always eventually
    /// reachable. The timer re-arms with exponential back-off while
    /// anything is pending — a reply that is merely queued behind a busy
    /// read lane should not draw repeated duplicate load onto the
    /// primaries.
    fn on_read_retry(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(state) = self.reads.get_mut(rid) else { return };
        state.backoff += 1;
        let backoff = state.backoff;
        let multi = state.calls.len() > 1;
        ctx.trace(TraceKind::ReadRetried { rid, backoff });
        let unanswered: Vec<usize> = state
            .outputs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_none())
            .map(|(idx, _)| idx)
            .collect();
        let round = state.round;
        let calls = state.calls.clone();
        for idx in unanswered {
            let call = &calls[idx];
            let to_primary = backoff > 1 || self.read_to_primary(ctx.now(), multi, call.db);
            self.send_read_call(ctx, rid, idx, call, round, to_primary, backoff);
        }
        let shift = backoff.min(3);
        let delay = Dur(self.cfg.terminate_retry.0.saturating_mul(1 << shift));
        ctx.set_timer(delay, TimerTag::ReadRetry { rid });
    }

    /// Folds a decide acknowledgement's ship position into the per-shard
    /// freshness stamp.
    fn observe_shard_seq(&mut self, db: NodeId, seq: u64) {
        let slot = self.shard_seq.entry(db).or_insert(0);
        if *slot < seq {
            *slot = seq;
        }
    }

    /// Every per-shard position this server has observed, as result
    /// stamps (cached-decision replies, where the original targets are no
    /// longer tracked, send the whole map — any valid observation may ride
    /// a result).
    fn all_stamps(&self) -> Vec<(NodeId, u64)> {
        self.shard_seq.iter().map(|(&db, &seq)| (db, seq)).collect()
    }

    /// The observed positions for the given databases (termination replies
    /// stamp exactly the shards the decision touched).
    fn stamps_for(&self, dbs: &[NodeId]) -> Vec<(NodeId, u64)> {
        dbs.iter().filter_map(|db| self.shard_seq.get(db).map(|&seq| (*db, seq))).collect()
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
        let Some(Phase::Claiming { request, since }) = self.phase(rid) else { return };
        if owner != self.me {
            self.set_phase(rid, Phase::Watching);
            return;
        }
        if let Some(t0) = *since {
            ctx.trace(TraceKind::Span { rid, comp: Component::LogStart, dur: ctx.now().since(t0) });
        }
        let next = Xa::compute(ctx, rid, request.clone(), true);
        self.enter(ctx, rid, next);
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
            // reply to the client (charging the "end" dispatch cost).
            Some(Step::Terminated { decision, targets }) => {
                self.set_phase(rid, Phase::Done { decision: decision.clone() });
                // Stamp the result with the positions this server observed
                // for the decision's shards — for a commit, those acks
                // included the write itself, so the client's causality
                // token now covers it.
                let stamps = self.stamps_for(&targets);
                if decision.outcome == Outcome::Commit {
                    self.committed_cache.insert(cached(rid.request), (rid, decision.clone()));
                }
                let dur = jittered(ctx, self.cost.end, self.cost.jitter);
                ctx.trace(TraceKind::Span { rid, comp: Component::End, dur });
                let result = AppMsg::Result { rid, decision, stamps };
                ctx.send_after(dur, rid.request.client, Payload::App(result));
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
            self.outcome_final(ctx, rid, final_decision);
            return;
        }
        // The client settled this request while the attempt ran here (the
        // read lane of another server answered it, say). The log ignores
        // every entry for a settled request, so this outcome can never be
        // sequenced — and since its owner never proposes one, no server
        // can ever commit the attempt. Abort it here: proposing would
        // leave its branches prepared, and their locks held, forever.
        if self.log.settled(&rid) {
            self.outcome_final(ctx, rid, Decision::nil_abort());
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
        let sus_vec = self.suspicion_snapshot();
        let sus = move |n: NodeId| sus_vec.contains(&n);
        let applied = self.log.propose(ctx, &mut self.regs, entries, &sus);
        // Speculation stage: ship the proposals to the shard primaries in
        // the same event that started their consensus rounds, so their
        // commit processing is paid for while the rounds run.
        self.ship_speculation(ctx);
        self.note_window(ctx);
        self.apply_slots(ctx, applied);
    }

    /// Ships every not-yet-shipped in-flight slot proposal to the shard
    /// primaries as `SpecExec` frames (at most once per slot): a primary
    /// stashes each proposal under its slot and pre-pays its commit
    /// processing while the slot's consensus round runs, and resolves
    /// each stash on its own when that slot's decide lands. Under a
    /// pipelined window several proposals may be in flight at once — all
    /// of them ship, not just the head. A proposal that resolved
    /// synchronously leaves nothing in flight — and nothing worth
    /// overlapping with.
    fn ship_speculation(&mut self, ctx: &mut dyn Context) {
        if !self.cfg.features.speculation.enabled {
            return;
        }
        let proposals = self.log.inflight_proposals();
        // Decided slots left the window; forget them so the set stays
        // bounded by the window depth.
        let live: BTreeSet<u64> = proposals.iter().map(|(slot, _)| *slot).collect();
        self.spec_shipped.retain(|slot| live.contains(slot));
        for (slot, batch) in proposals {
            if !self.spec_shipped.insert(slot) {
                continue;
            }
            // Split the proposal per database exactly as termination will
            // if the slot decides as proposed: same targets, same slot
            // order. Splits that are not `speculable` are skipped, and
            // terminate without naming their slot.
            let mut per_db: BTreeMap<NodeId, Vec<(ResultId, Outcome)>> = BTreeMap::new();
            for (rid, decision) in &batch.outcomes {
                let targets = match self.attempts.get(*rid).and_then(|a| a.outcome.as_ref()) {
                    Some((targets, _)) => targets,
                    None => &self.topo.db_servers,
                };
                for &db in targets {
                    per_db.entry(db).or_default().push((*rid, decision.outcome));
                }
            }
            for (db, entries) in per_db {
                if speculable(&entries) {
                    ctx.send(db, Payload::Db(DbMsg::SpecExec { slot, entries }));
                }
            }
        }
    }

    /// Traces a new high-water mark of concurrently undecided slots. Only
    /// depths ≥ 2 are traced (and each new peak once): the event marks
    /// genuine cross-slot overlap for tests and chaos runners to key on,
    /// which a depth-1 pipeline never has.
    fn note_window(&mut self, ctx: &mut dyn Context) {
        let open = self.log.inflight_len() as u32;
        if open >= 2 && open > self.window_peak {
            self.window_peak = open;
            ctx.trace(TraceKind::PipelineWindow { open });
        }
    }

    /// Processes decided, in-order slots. Watermarks the slot's claims
    /// carried settle their clients' older requests here as a request from
    /// the client would. Every first claim names an owner: a request
    /// waiting on it computes or watches. Every first-occurrence outcome is
    /// final, and the ones this server initiated terminate now — grouped,
    /// so one slot becomes one `Decide` per involved database.
    fn apply_slots(&mut self, ctx: &mut dyn Context, applied: Vec<AppliedSlot>) {
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
            let group: Vec<_> = slot
                .entries
                .into_iter()
                .filter_map(|(rid, decision)| self.claim_initiated(ctx, rid, decision))
                .collect();
            self.start_terminate_group(ctx, Some(slot.slot), group);
        }
    }

    /// An attempt whose decision was already final when this server became
    /// an initiator (the wo-register "write returns the earlier value").
    fn outcome_final(&mut self, ctx: &mut dyn Context, rid: ResultId, decision: Decision) {
        if let Some(item) = self.claim_initiated(ctx, rid, decision) {
            self.start_terminate_group(ctx, None, vec![item]);
        }
    }

    /// Resolves a finalised outcome into a termination work item if this
    /// server initiated it: consumes the initiator claim, closes the
    /// log-outcome span and takes the termination targets. `None` when some
    /// other server (or an earlier slot) already owns termination here.
    fn claim_initiated(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        decision: Decision,
    ) -> Option<(ResultId, Decision, Vec<NodeId>)> {
        let (targets, t0) = self.attempts.get_mut(rid)?.outcome.take()?;
        ctx.trace(TraceKind::Span { rid, comp: Component::LogOutcome, dur: ctx.now().since(t0) });
        Some((rid, decision, targets))
    }

    // ---- terminate() (Figure 4) --------------------------------------------

    /// Starts termination for a group of finalised attempts, coalescing
    /// their `[Decide]` pushes into one message per database. A push names
    /// its slot exactly when `ship_speculation` would have shipped it,
    /// so a database consults its stash for those pushes and no others.
    /// Retries stay per-attempt — retransmission is the rare path.
    fn start_terminate_group(
        &mut self,
        ctx: &mut dyn Context,
        slot: Option<u64>,
        items: Vec<(ResultId, Decision, Vec<NodeId>)>,
    ) {
        let mut per_db: BTreeMap<NodeId, Vec<(ResultId, Outcome)>> = BTreeMap::new();
        for (rid, decision, targets) in items {
            if matches!(
                self.phase(rid),
                Some(Phase::Done { .. } | Phase::Xa(Xa::Terminating { .. }))
            ) {
                continue; // already terminating/terminated here
            }
            for &db in &targets {
                per_db.entry(db).or_default().push((rid, decision.outcome));
            }
            let next = Xa::terminate(ctx, rid, decision, targets, self.cfg.terminate_retry, false);
            self.enter(ctx, rid, next);
        }
        for (db, entries) in per_db {
            let slot = slot.filter(|_| speculable(&entries));
            ctx.send(db, Payload::Db(DbMsg::Decide { entries, slot }));
        }
    }

    // ---- cleaning thread (Figure 6) -----------------------------------------

    /// One cleaning pass: every attempt the log says a suspected server
    /// owns — requested or merely pre-claimed — is forced to a decision and
    /// terminated. The log's owner map holds open work only (attempts at
    /// or above their client's watermark), so that is all a pass walks.
    fn run_cleaner(&mut self, ctx: &mut dyn Context) {
        let suspected = self.suspicion_snapshot();
        if suspected.is_empty() {
            return;
        }
        let cleaned = |rid| self.attempts.get(rid).is_some_and(|a| a.cleaned);
        let orphans: Vec<(ResultId, NodeId)> = self
            .log
            .owners()
            .filter(|(rid, owner)| suspected.contains(owner) && !cleaned(*rid))
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
            // the cleaner terminates with it.
            let targets = self.topo.db_servers.clone();
            self.submit_outcome(ctx, rid, Decision::nil_abort(), targets);
        }
    }
}

impl Process for AppServer {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        if matches!(event, Event::Init) {
            self.fd.on_init(ctx);
            self.regs.on_init(ctx);
            ctx.set_timer(self.cfg.cleaner_interval, TimerTag::CleanerTick);
        }
        // 1. Failure detection first: everything downstream may consult it.
        let transitions = self.fd.handle(ctx, &event);
        let sus_vec = self.suspicion_snapshot();
        let newly_suspected =
            transitions.iter().any(|t| matches!(t, etx_fd::FdTransition::Suspect(_)));
        // 2. Registers: consensus traffic, round patience, resync. Slot
        //    decisions feed the decision log, which applies them in order.
        let wo_events = {
            let sus = |n: NodeId| sus_vec.contains(&n);
            if !transitions.is_empty() {
                self.regs.on_suspicion_change(ctx, &sus);
            }
            self.regs.handle(ctx, &event, &sus)
        };
        for ev in wo_events {
            let WoEvent::Decided { reg, value } = ev;
            let Some(slot) = reg.slot_index() else { continue };
            let applied = {
                let sus = |n: NodeId| sus_vec.contains(&n);
                self.log.on_slot_decided(ctx, &mut self.regs, slot, &value, &sus)
            };
            // A decided slot lets the log pump the next pending batch into
            // a fresh proposal — overlap that one too.
            self.ship_speculation(ctx);
            self.note_window(ctx);
            self.apply_slots(ctx, applied);
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
                    let step = self.xa_mut(rid).and_then(|xa| xa.exec_reply(ctx, rid, status));
                    self.on_step(ctx, rid, step);
                }
                DbReplyMsg::Vote { rid, vote } => {
                    let step = self.xa_mut(rid).and_then(|xa| xa.vote(from, vote));
                    self.on_step(ctx, rid, step);
                }
                DbReplyMsg::AckDecide { entries, seq, lease } => {
                    self.observe_shard_seq(from, seq);
                    self.observe_shard_lease(from, lease);
                    for (rid, _) in entries {
                        let step = self.xa_mut(rid).and_then(|xa| xa.ack(from));
                        self.on_step(ctx, rid, step);
                    }
                }
                DbReplyMsg::ReadReply { rid, call, round, outputs, pos, indoubt, lease } => {
                    self.on_read_reply(ctx, from, rid, call, round, outputs, pos, indoubt, lease);
                }
                // A database's crash-recovery notice: every attempt at the
                // databases applies Figure 4 to it, in the windows' order.
                DbReplyMsg::Ready => {
                    let rids: Vec<ResultId> = self.attempts.iter().map(|(rid, _)| rid).collect();
                    for rid in rids {
                        let step = self.xa_mut(rid).and_then(|xa| xa.ready(ctx, rid, from));
                        self.on_step(ctx, rid, step);
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
                self.observe_shard_lease(from, Some(through));
            }
            Event::Timer { tag, .. } => match tag {
                TimerTag::Dispatch { rid, stage: 0 } => self.dispatch_claim(ctx, rid),
                TimerTag::Dispatch { rid, stage: 1 } => self.dispatch_reads(ctx, rid),
                TimerTag::ReadRetry { rid } => self.on_read_retry(ctx, rid),
                TimerTag::TerminateRetry { rid } => {
                    if let Some(Phase::Xa(xa)) = self.phase(rid) {
                        xa.retry(ctx, rid, self.cfg.terminate_retry);
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
                    // decision log's gap pulls on the same cadence.
                    self.log.request_gaps(ctx, &mut self.regs);
                }
                _ => {}
            },
            _ => {}
        }
        // 5. Pipeline flush policy — once per event, after everything that
        //    could have queued an outcome or changed in-flight state.
        self.maybe_flush(ctx);
    }

    fn name(&self) -> &'static str {
        "appserver"
    }

    fn as_any(&self) -> Option<&dyn core::any::Any> {
        Some(self)
    }
}
