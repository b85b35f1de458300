//! The client protocol (Figure 2): `issue()` as a state machine.
//!
//! The client submits attempt `j` of its request to the default primary
//! `a1`, arms the back-off period, and — if no result arrives in time —
//! broadcasts the request to *all* application servers (Figure 2 lines 5–6),
//! then keeps re-broadcasting until it receives the attempt's result
//! (§4: "the client keeps retransmitting the request ... until it receives
//! back a committed result"; duplicates are absorbed by the servers'
//! idempotence). A commit result is **delivered** (`issue()` returns); an
//! abort result moves the client to attempt `j + 1`.
//!
//! Attempt bookkeeping (current attempt id, timer validity, stale-result
//! filtering, the `Issue` trace) lives in the shared
//! [`etx_base::retry`] driver, so this client and the baseline clients
//! measure identically; only the policy here — back-off, broadcast,
//! transparent retry — is e-Transaction-specific.
//!
//! Two issue disciplines share the machinery:
//!
//! * **sequential** (the paper's Figure 2): one request in flight, the
//!   next issued when the previous delivers;
//! * **open-loop**: the whole plan is issued up front and every request
//!   runs its own attempt chain concurrently — the high-concurrency load
//!   shape that feeds the application server's commit pipeline.
//!
//! A client holds its window, not its plan: the plan is an
//! [`IssuePlan`] — a length and a generator — and each request is made
//! when it is issued, so what the client holds is the requests it has in
//! flight (one, in the paper's discipline), however long its plan.
//!
//! The client is diskless and stateless across requests, as the three-tier
//! model demands — no stable storage is ever touched here.

use etx_base::config::ProtocolConfig;
use etx_base::ids::{NodeId, RequestId, ResultId};
use etx_base::msg::{AppMsg, Payload};
use etx_base::retry::{AttemptDriver, IssuePlan, RetryTimer};
use etx_base::runtime::{Context, Event, Process, TimerTag};
use etx_base::time::Dur;
use etx_base::trace::TraceKind;
use etx_base::value::{Decision, Outcome};
use std::collections::BTreeMap;

/// How the client walks its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueMode {
    /// One request in flight at a time (Figure 2's `issue()` loop).
    Sequential,
    /// Every request issued immediately; attempts run concurrently.
    OpenLoop,
}

/// The e-Transaction client: issues each request in its plan and records
/// deliveries. `issue()` never raises an exception — that is the
/// abstraction's contract.
pub struct EtxClient {
    alist: Vec<NodeId>,
    cfg: ProtocolConfig,
    mode: IssueMode,
    plan: IssuePlan,
    inflight: BTreeMap<RequestId, AttemptDriver>,
    delivered: Vec<(ResultId, Decision)>,
    /// Adaptive-routing extension: last server that answered us (kept
    /// across requests; only consulted when the config flag is on).
    last_responder: Option<NodeId>,
    /// Causality token: per shard primary, the highest commit-ship
    /// position any delivered result has carried. Sent with every request
    /// so whichever server handles it stamps this client's reads at least
    /// this fresh — read-your-writes and per-client monotonic reads hold
    /// even when retries land on a server that observed nothing.
    stamps: BTreeMap<NodeId, u64>,
}

impl std::fmt::Debug for EtxClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EtxClient")
            .field("mode", &self.mode)
            .field("inflight", &self.inflight.len())
            .field("delivered", &self.delivered.len())
            .finish()
    }
}

impl EtxClient {
    /// A sequential client issuing `plan` one request at a time against the
    /// application servers in `alist` (index 0 = default primary). A
    /// `Vec<Request>` is a plan too.
    pub fn new(alist: Vec<NodeId>, cfg: ProtocolConfig, plan: impl Into<IssuePlan>) -> Self {
        Self::with_mode(alist, cfg, plan, IssueMode::Sequential)
    }

    /// A client with an explicit issue discipline.
    pub fn with_mode(
        alist: Vec<NodeId>,
        cfg: ProtocolConfig,
        plan: impl Into<IssuePlan>,
        mode: IssueMode,
    ) -> Self {
        EtxClient {
            alist,
            cfg,
            mode,
            plan: plan.into(),
            inflight: BTreeMap::new(),
            delivered: Vec::new(),
            last_responder: None,
            stamps: BTreeMap::new(),
        }
    }

    /// Results delivered so far (for assertions via the process handle).
    pub fn delivered(&self) -> &[(ResultId, Decision)] {
        &self.delivered
    }

    /// GC watermark sent with every request: the lowest sequence number
    /// this client may still retransmit. With nothing in flight, everything
    /// below the next unissued request is settled.
    fn ack_below(&self) -> u64 {
        self.inflight.keys().next().map_or(self.plan.next_seq(), |req| req.seq)
    }

    fn issue_next(&mut self, ctx: &mut dyn Context) {
        if let Some(request) = self.plan.issue_next(ctx) {
            let id = request.id;
            self.inflight.insert(id, AttemptDriver::new(request));
            self.start_attempt(ctx, id);
        }
    }

    /// The causality token as it rides on the wire.
    fn stamp_vec(&self) -> Vec<(NodeId, u64)> {
        self.stamps.iter().map(|(&db, &seq)| (db, seq)).collect()
    }

    /// Max-folds the stamps a result carried into the causality token.
    fn fold_stamps(&mut self, stamps: Vec<(NodeId, u64)>) {
        for (db, seq) in stamps {
            let slot = self.stamps.entry(db).or_insert(0);
            if *slot < seq {
                *slot = seq;
            }
        }
    }

    fn start_attempt(&mut self, ctx: &mut dyn Context, id: RequestId) {
        let ack_below = self.ack_below();
        // Figure 2 line 2: send to the default primary first (or, with the
        // adaptive-routing extension enabled, to whoever answered us last).
        let first = match (self.cfg.route_to_last_responder, self.last_responder) {
            (true, Some(p)) => p,
            _ => self.alist[0],
        };
        let backoff = self.cfg.client_backoff;
        let stamps = self.stamp_vec();
        let Some(flight) = self.inflight.get_mut(&id) else { return };
        flight.send_to(ctx, first, ack_below, &stamps);
        let rid = flight.rid();
        flight.arm(ctx, RetryTimer::Primary, backoff, TimerTag::ClientBackoff { rid });
    }

    fn broadcast(&mut self, ctx: &mut dyn Context, id: RequestId) {
        let ack_below = self.ack_below();
        let alist = self.alist.clone();
        let base = self.cfg.client_rebroadcast;
        let max = self.cfg.client_rebroadcast_max;
        let stamps = self.stamp_vec();
        let Some(flight) = self.inflight.get_mut(&id) else { return };
        flight.broadcast(ctx, &alist, ack_below, &stamps);
        let rid = flight.rid();
        // Bounded back-off: the gap doubles per re-broadcast of this
        // attempt, capped at the ceiling (equal base and ceiling — the
        // default — is the paper's flat retransmission cadence). The
        // counter resets with the attempt, so an answered retry starts
        // over at the base.
        let n = flight.note_rebroadcast();
        let gap = Dur(base.0.checked_shl(n.min(16)).unwrap_or(u64::MAX).min(max.0));
        flight.arm(ctx, RetryTimer::Secondary, gap, TimerTag::ClientRebroadcast { rid });
    }

    fn on_result(&mut self, ctx: &mut dyn Context, rid: ResultId, decision: Decision) {
        let id = rid.request;
        let Some(flight) = self.inflight.get_mut(&id) else {
            return; // late duplicate of a settled request
        };
        if !flight.matches(rid) {
            return; // stale attempt (an old abort arriving late)
        }
        flight.cancel_all(ctx);
        match decision.outcome {
            Outcome::Commit => {
                // Figure 2 lines 8–9: deliver and return.
                ctx.trace(TraceKind::Deliver { rid, outcome: Outcome::Commit, steps: ctx.depth() });
                self.delivered.push((rid, decision));
                self.inflight.remove(&id);
                if self.mode == IssueMode::Sequential {
                    self.issue_next(ctx);
                }
            }
            Outcome::Abort => {
                // Figure 2 line 10: j := j + 1 and retry the same request.
                ctx.trace(TraceKind::ClientRetry { rid });
                flight.next_attempt(ctx);
                self.start_attempt(ctx, id);
            }
        }
    }
}

impl Process for EtxClient {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init => match self.mode {
                IssueMode::Sequential => self.issue_next(ctx),
                IssueMode::OpenLoop => {
                    while !self.plan.exhausted() {
                        self.issue_next(ctx);
                    }
                }
            },
            Event::Timer { id, tag: TimerTag::ClientBackoff { rid } } => {
                let key = rid.request;
                let current = self
                    .inflight
                    .get(&key)
                    .is_some_and(|f| f.timer_is_current(RetryTimer::Primary, id, rid));
                if current {
                    if let Some(f) = self.inflight.get_mut(&key) {
                        f.clear(RetryTimer::Primary);
                    }
                    // Figure 2 lines 5–6: patience exhausted; go wide.
                    self.broadcast(ctx, key);
                }
            }
            Event::Timer { id, tag: TimerTag::ClientRebroadcast { rid } } => {
                let key = rid.request;
                let current = self
                    .inflight
                    .get(&key)
                    .is_some_and(|f| f.timer_is_current(RetryTimer::Secondary, id, rid));
                if current {
                    self.broadcast(ctx, key);
                }
            }
            Event::Message {
                from,
                payload: Payload::App(AppMsg::Result { rid, decision, stamps }),
            } => {
                self.last_responder = Some(from);
                self.fold_stamps(stamps);
                self.on_result(ctx, rid, decision);
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "etx-client"
    }

    fn as_any(&self) -> Option<&dyn core::any::Any> {
        Some(self)
    }
}
