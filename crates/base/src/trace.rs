//! Trace events: the raw observable record of a run.
//!
//! Every run produces a totally ordered trace (simulated time, then a
//! deterministic tie-break). The experiment harness derives from it the
//! Figure 7 step counts and — crucially — the *history* against which the
//! e-Transaction properties (T.1, T.2, A.1–A.3, V.1, V.2 of §3) are
//! checked after the fact. The Figure 8 latency breakdown is not in it:
//! it comes from the per-component totals each host sums beside the
//! trace ([`crate::metrics::SpanTotals`]).
//!
//! A kind is stored because someone reads it: the §3 checker
//! (`etx_harness::properties::check`), the benchmark (`etx_bench`), or a
//! test accessor on the scenario (fault triggers match on kinds so read).
//! A fact that only a test checks is read from the process's own state
//! through an observability accessor instead, not recorded once per
//! occurrence in every run.

use crate::ids::{NodeId, RequestId, ResultId};
use crate::msg::Payload;
use crate::time::Time;
use crate::value::{Outcome, Vote};
use core::fmt;

/// Latency components of the Figure 8 table. The paper attributes measured
/// client latency to these buckets; we do the same from the span totals
/// each host sums per component ([`crate::metrics::SpanTotals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// Request dispatch at the application server ("start" row).
    Start,
    /// Reply marshalling at the application server ("end" row).
    End,
    /// Database commit processing.
    Commit,
    /// Database prepare processing (vote).
    Prepare,
    /// Business-logic / SQL execution at the database.
    Sql,
    /// Durable record of *processing started*: forced coordinator log write
    /// (2PC) or the paper's `regA` wo-register write (asynchronous
    /// replication) — here the wait for the decision-log slot that carries
    /// the attempt's owner claim, traced only when a request had to wait.
    LogStart,
    /// Durable record of *the outcome*: forced coordinator log write (2PC)
    /// or the paper's `regD` wo-register write (asynchronous replication)
    /// — here the decision-log slot that carries the attempt's outcome.
    LogOutcome,
}

impl Component {
    /// All components, in the paper's row order.
    pub const ALL: [Component; 7] = [
        Component::Start,
        Component::End,
        Component::Commit,
        Component::Prepare,
        Component::Sql,
        Component::LogStart,
        Component::LogOutcome,
    ];

    /// Row label used in Figure 8.
    pub fn label(self) -> &'static str {
        match self {
            Component::Start => "start",
            Component::End => "end",
            Component::Commit => "commit",
            Component::Prepare => "prepare",
            Component::Sql => "SQL",
            Component::LogStart => "log-start",
            Component::LogOutcome => "log-outcome",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When it happened (simulated clock).
    pub at: Time,
    /// Where it happened.
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
}

/// The vocabulary of observable happenings.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// Client invoked `issue()` (Figure 2).
    Issue {
        /// The request issued.
        request: RequestId,
    },
    /// Client delivered a result to the end user: `issue()` returned.
    Deliver {
        /// The attempt whose result was delivered.
        rid: ResultId,
        /// Outcome carried by the delivered decision (must be commit —
        /// property A.1 is checked from this).
        outcome: Outcome,
        /// Causal depth of the delivering event (communication steps,
        /// Figure 7). Only a client's *first* delivery is a per-request
        /// step count — the one Figure 7 reads. A sequential client issues
        /// request k + 1 inside request k's delivery, so later deliveries
        /// carry the depth accumulated over every request before them
        /// (about 12 per request in the paper's shape: the 4 000th delivery
        /// reads some 48 000).
        steps: u32,
    },
    /// A baseline client gave up with an exception (never emitted by the
    /// e-Transaction client).
    Exception {
        /// The failed request.
        request: RequestId,
    },
    /// The e-Transaction client observed an abort for `rid` and moved to
    /// the next attempt (Figure 2 line 10).
    ClientRetry {
        /// The aborted attempt.
        rid: ResultId,
    },
    /// An application server computed a result for a request (Figure 5
    /// line 8) — ground truth for validity V.1.
    Computed {
        /// The attempt computed.
        rid: ResultId,
    },
    /// A database voted on a branch (T.2's antecedent; V.2's evidence).
    DbVote {
        /// Branch voted on.
        rid: ResultId,
        /// The vote.
        vote: Vote,
    },
    /// A database applied a decision (commit/abort applied durably) —
    /// evidence for T.2, A.2, A.3.
    DbDecide {
        /// Branch decided.
        rid: ResultId,
        /// Applied outcome.
        outcome: Outcome,
    },
    /// A follower database applied replicated committed state from its
    /// shard primary (asynchronous intra-shard replication).
    DbReplicated {
        /// The branch whose commit was replicated.
        rid: ResultId,
    },
    /// An application server classified an attempt as read-only and routed
    /// it around the commit pipeline: no decision-log slot, no WAL append,
    /// no replica shipment — direct snapshot reads against the shard
    /// replicas (the read fast path).
    ReadFastPath {
        /// The read-only attempt.
        rid: ResultId,
        /// How many shard calls it fans out into.
        shards: u32,
    },
    /// A shard **follower** served a fast-path read locally: its applied
    /// replication position was at or past the read's freshness stamp.
    FollowerRead {
        /// The read-only attempt served.
        rid: ResultId,
    },
    /// A multi-shard fast-path read exhausted its snapshot-validation
    /// budget and its attempt ended: the server answers abort, and the
    /// client's next attempt takes the locking commit path (always live
    /// under contention). The attempt itself never enters that path.
    ReadFallback {
        /// The attempt that ended (its successor is the one that locks).
        rid: ResultId,
        /// Collects spent before giving up.
        rounds: u32,
    },
    /// A lagging shard follower refused to serve a fast-path read and
    /// forwarded it to its primary: its applied replication position was
    /// behind the read's freshness stamp (the read-your-writes gate).
    ///
    /// The payload is boxed whole: inline, its id and two positions made
    /// this the one variant over 24 bytes, and every event is as large as
    /// the largest variant. Forwards are rare; events are not.
    ReadForwarded(Box<Forwarded>),
    /// The issuer's retry backstop re-sent a fast-path read's unanswered
    /// calls (a crashed replica or a lost message must not stall an
    /// idempotent read). Only emitted by the read fast lane.
    ReadRetried {
        /// The read-only attempt being chased.
        rid: ResultId,
        /// Consecutive backstop firings without an intervening collect
        /// round (drives the exponential back-off; reset when a new
        /// snapshot-validation round starts).
        backoff: u32,
    },
    /// A shard primary's renewal timer granted its followers a fresh read
    /// lease: their applied prefixes are authoritative through `through`.
    /// (Piggybacked renewals on commit shipments are not traced — they
    /// ride existing messages; this event marks the timer-driven grants
    /// that keep leases alive through write-quiet stretches.)
    LeaseGrant {
        /// The instant the grant is valid through.
        through: Time,
    },
    /// A shard follower refused to serve a fast-path read because its read
    /// lease had expired (it forwards to the primary, like a stamp-gated
    /// lagging follower — `ReadForwarded` follows this event).
    LeaseExpired {
        /// The read-only attempt refused.
        rid: ResultId,
    },
    /// A recovering shard primary installed its write-ack fence: commit
    /// acknowledgements are withheld until `until`, by which point every
    /// read lease the deposed incarnation could have granted has expired —
    /// the drain that keeps pre-crash in-lease follower reads consistent
    /// with what has been acknowledged.
    LeaseFence {
        /// When the fence lifts.
        until: Time,
    },
    /// An application server applied a decided decision-log slot: `len`
    /// request outcomes became final in one consensus round. Emitted by the
    /// first in-order apply at each server (once per slot per server).
    BatchDecided {
        /// Log position of the slot.
        slot: u64,
        /// Number of first-occurrence outcomes the slot carried here.
        len: u32,
    },
    /// A database appended one group WAL record framing `len` member
    /// records (group commit: one durable append covers the whole batch).
    GroupAppend {
        /// Number of framed records.
        len: u32,
    },
    /// A shard primary stashed a proposed pipeline batch under its slot
    /// and pre-paid the batch's commit processing on its log device while
    /// the slot was still running consensus: nothing applied, nothing
    /// durable, nothing shipped.
    SpecExec {
        /// The decision-log slot the batch was proposed into.
        slot: u64,
        /// Number of proposed outcomes stashed.
        len: u32,
    },
    /// The decided slot matched the stashed batch: the primary applied it
    /// with the ordinary (group) WAL append and acknowledged it at the
    /// instant pre-paid at `SpecExec`.
    SpecHit {
        /// The decided slot.
        slot: u64,
        /// Number of outcomes whose commit processing was pre-paid.
        len: u32,
    },
    /// The decided slot diverged from the stashed batch (another proposer
    /// won the slot, or first-occurrence filtering reordered the entries):
    /// the primary dropped that slot's stash and decided the batch on the
    /// decide-then-execute path.
    SpecAbort {
        /// The decided slot whose speculation was thrown away.
        slot: u64,
    },
    /// A latency span attributed to a Figure 8 component, offered to the
    /// armed fault triggers and never kept. Its modelled duration is not
    /// in the event: each host sums it per component in
    /// [`crate::metrics::SpanTotals`], which is where Figure 8 reads it.
    Span {
        /// The attempt the work belongs to.
        rid: ResultId,
        /// Bucket.
        comp: Component,
    },
    /// Process crashed (kernel-emitted).
    Crash,
    /// Process recovered (kernel-emitted).
    Recover,
    /// Process paused by the fault plane (kernel-emitted): it stops
    /// processing but loses nothing — the SIGSTOP story. A paused node is
    /// the "arbitrarily slow process" §4's asynchrony assumption already
    /// covers, so no §3 property may depend on its absence.
    Pause,
    /// Process resumed after a pause (kernel-emitted): queued messages
    /// and overdue timers are processed from here, late.
    Resume,
    /// A failure detector started suspecting `peer`.
    Suspect {
        /// The suspected application server.
        peer: NodeId,
    },
    /// A failure detector stopped suspecting `peer` (it was alive after all).
    Unsuspect {
        /// The formerly suspected application server.
        peer: NodeId,
    },
    /// The cleaner began terminating an orphaned attempt (Figure 6).
    CleanerTakeover {
        /// Orphaned attempt.
        rid: ResultId,
        /// The suspected owner being cleaned up after.
        owner: NodeId,
    },
    /// Free-form annotation (tests and examples).
    Note(&'static str),
}

// A trace holds millions of events: a new variant that outgrows the others
// regrows every one of them.
const _: () = assert!(size_of::<TraceKind>() == 24);
const _: () = assert!(size_of::<TraceEvent>() == 40);

/// What a [`TraceKind::ReadForwarded`] event records.
#[derive(Debug, Clone, PartialEq)]
pub struct Forwarded {
    /// The read-only attempt forwarded.
    pub rid: ResultId,
    /// The follower's applied replication position.
    pub have: u64,
    /// The read's freshness stamp it fell short of.
    pub need: u64,
}

impl TraceEvent {
    /// Convenience constructor.
    pub fn new(at: Time, node: NodeId, kind: TraceKind) -> Self {
        TraceEvent { at, node, kind }
    }
}

/// The totally ordered record of everything observable that happened in a
/// run. Both runtime backends — the deterministic simulator and the
/// wall-clock host — collect into this same type, which is what keeps
/// the experiment harness and the §3 property checker backend-neutral.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Appends an event. Host-internal: only runtime backends push; tests
    /// read.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// All events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Counts events matching a predicate on the kind.
    pub fn count_kind(&self, mut pred: impl FnMut(&TraceKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// First event matching a predicate.
    pub fn find(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> Option<&TraceEvent> {
        self.events.iter().find(|e| pred(e))
    }
}

/// Message-volume accounting, used by the Figure 7 experiment ("total
/// messages exchanged") and by tests asserting protocol overheads. Like
/// [`Trace`], one per run, filled by whichever runtime backend hosts it.
/// Sends are counted per label in an array indexed by
/// [`Payload::label_index`].
#[derive(Debug, Clone)]
pub struct MsgStats {
    sent: [u64; Payload::LABELS.len()],
    total: u64,
    background: u64,
    dropped_to_down: u64,
    dropped_on_link: u64,
}

impl Default for MsgStats {
    fn default() -> Self {
        MsgStats {
            sent: [0; Payload::LABELS.len()],
            total: 0,
            background: 0,
            dropped_to_down: 0,
            dropped_on_link: 0,
        }
    }
}

impl MsgStats {
    /// Records one sent message. Host-internal.
    pub fn record_sent(&mut self, payload: &Payload) {
        self.sent[payload.label_index()] += 1;
        self.total += 1;
        if payload.is_background() {
            self.background += 1;
        }
    }

    /// Records a message whose receiver was down at delivery time.
    /// Host-internal.
    pub fn record_dropped_to_down(&mut self) {
        self.dropped_to_down += 1;
    }

    /// Records a message lost (or held) by a fault-plane link fault.
    /// Host-internal.
    pub fn record_dropped_on_link(&mut self) {
        self.dropped_on_link += 1;
    }

    /// Messages sent with the given label (0 for a label no message has).
    pub fn sent(&self, label: &str) -> u64 {
        Payload::LABELS.iter().position(|&l| l == label).map_or(0, |i| self.sent[i])
    }

    /// Total messages sent (including background heartbeats).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Protocol messages only (heartbeats excluded).
    pub fn protocol_total(&self) -> u64 {
        self.total - self.background
    }

    /// Messages whose receiver was down at delivery time.
    pub fn dropped_to_down(&self) -> u64 {
        self.dropped_to_down
    }

    /// Messages lost (or held) by fault-plane link faults.
    pub fn dropped_on_link(&self) -> u64 {
        self.dropped_on_link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_rows_match_paper_order_and_labels() {
        let labels: Vec<&str> = Component::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec!["start", "end", "commit", "prepare", "SQL", "log-start", "log-outcome"]
        );
    }

    #[test]
    fn trace_event_construction() {
        let ev = TraceEvent::new(Time(42), NodeId(1), TraceKind::Note("hello"));
        assert_eq!(ev.at, Time(42));
        assert_eq!(ev.node, NodeId(1));
        assert_eq!(format!("{}", Component::Sql), "SQL");
    }

    #[test]
    fn trace_collects_in_order() {
        let mut t = Trace::default();
        assert!(t.is_empty());
        t.push(TraceEvent::new(Time(1), NodeId(0), TraceKind::Note("a")));
        t.push(TraceEvent::new(Time(2), NodeId(1), TraceKind::Note("b")));
        assert_eq!(t.len(), 2);
        assert_eq!(t.count_kind(|k| matches!(k, TraceKind::Note(_))), 2);
        assert_eq!(t.find(|e| e.node == NodeId(1)).unwrap().at, Time(2));
    }

    /// One message of every kind, with the label each must count under.
    fn one_of_each() -> Vec<(Payload, &'static str)> {
        use crate::ids::RegId;
        use crate::msg::*;
        use crate::value::{Decision, ExecStatus, RegValue, Request, RequestScript, SlotBatch};
        use std::sync::Arc;
        let rid = ResultId::first(RequestId { client: NodeId(0), seq: 1 });
        let request = Request { id: rid.request, script: RequestScript::default() };
        let inst = RegId::slot(0);
        let value = RegValue::Batch(Arc::new(SlotBatch::default()));
        let entries = vec![(rid, Outcome::Commit)];
        vec![
            (
                Payload::Client(ClientMsg::Request {
                    request: request.clone(),
                    attempt: 1,
                    ack_below: 1,
                    stamps: vec![],
                }),
                "Request",
            ),
            (
                Payload::App(AppMsg::Result {
                    rid,
                    decision: Decision::nil_abort(),
                    stamps: vec![],
                }),
                "Result",
            ),
            (
                Payload::App(AppMsg::Exception { request: rid.request, reason: String::new() }),
                "Exception",
            ),
            (Payload::Db(DbMsg::Exec { rid, ops: Arc::from([]), xa: true, floor: 0 }), "Exec"),
            (Payload::Db(DbMsg::Prepare { rid, cross: false }), "Prepare"),
            (Payload::Db(DbMsg::decide_one(rid, Outcome::Commit)), "Decide"),
            (Payload::Db(DbMsg::CommitOnePhase { rid }), "Commit1P"),
            (Payload::Db(DbMsg::SpecExec { slot: 0, entries: entries.clone() }), "SpecExec"),
            (
                Payload::Db(DbMsg::Read {
                    rid,
                    call: 0,
                    round: 0,
                    ops: Arc::from([]),
                    min_seq: 0,
                    reply_to: NodeId(1),
                }),
                "ReadRequest",
            ),
            (
                Payload::DbReply(DbReplyMsg::ReadReply {
                    rid,
                    call: 0,
                    round: 0,
                    outputs: vec![],
                    pos: 0,
                    indoubt: false,
                    lease: None,
                }),
                "ReadReply",
            ),
            (
                Payload::DbReply(DbReplyMsg::ExecReply { rid, status: ExecStatus::Conflict }),
                "ExecReply",
            ),
            (Payload::DbReply(DbReplyMsg::Vote { rid, vote: Vote::Yes }), "Vote"),
            (
                Payload::DbReply(DbReplyMsg::AckDecide {
                    entries: entries.clone(),
                    seq: 1,
                    lease: None,
                }),
                "AckDecide",
            ),
            (Payload::DbReply(DbReplyMsg::AckCommitOnePhase { rid, ok: true }), "AckCommit1P"),
            (Payload::DbReply(DbReplyMsg::Ready), "Ready"),
            (Payload::Repl(ReplMsg::Apply { items: vec![], lease: None }), "ReplApply"),
            (Payload::Repl(ReplMsg::LeaseRenew { through: Time(1), floor: 0 }), "LeaseRenew"),
            (Payload::Repl(ReplMsg::Intent { rid, at: Time(1) }), "Intent"),
            (Payload::Repl(ReplMsg::IntentAck { rid }), "IntentAck"),
            (Payload::Repl(ReplMsg::SyncReq), "ReplSyncReq"),
            (Payload::Repl(ReplMsg::SyncState { seq: 0, entries: vec![] }), "ReplSyncState"),
            (
                Payload::Consensus(ConsensusMsg::Estimate { inst, round: 0, est: None, ts: 0 }),
                "CEstimate",
            ),
            (
                Payload::Consensus(ConsensusMsg::Propose { inst, round: 0, value: value.clone() }),
                "CPropose",
            ),
            (Payload::Consensus(ConsensusMsg::Ack { inst, round: 0 }), "CAck"),
            (Payload::Consensus(ConsensusMsg::Nack { inst, round: 0 }), "CNack"),
            (Payload::Consensus(ConsensusMsg::Decide { inst, value }), "CDecide"),
            (Payload::Consensus(ConsensusMsg::DecideReq { inst }), "CDecideReq"),
            (Payload::Fd(FdMsg::Heartbeat { seq: 1 }), "Heartbeat"),
            (Payload::Pb(PbMsg::Start { rid, request }), "PbStart"),
            (Payload::Pb(PbMsg::AckStart { rid }), "PbAckStart"),
            (Payload::Pb(PbMsg::Outcome { rid, decision: Decision::nil_abort() }), "PbOutcome"),
            (Payload::Pb(PbMsg::AckOutcome { rid }), "PbAckOutcome"),
        ]
    }

    #[test]
    fn every_message_kind_counts_under_its_own_label() {
        let kinds = one_of_each();
        assert_eq!(kinds.len(), Payload::LABELS.len(), "one message of every kind");
        let mut s = MsgStats::default();
        // Kind `i` is sent `i + 1` times, so a count landing under a
        // neighbour's label shows.
        for (i, (payload, _)) in kinds.iter().enumerate() {
            for _ in 0..=i {
                s.record_sent(payload);
            }
        }
        for (i, (payload, label)) in kinds.iter().enumerate() {
            assert_eq!(payload.label(), *label);
            assert_eq!(s.sent(label), i as u64 + 1, "{label}");
        }
        assert_eq!(s.sent("nope"), 0, "an unknown label reads 0");
        let n = kinds.len() as u64;
        assert_eq!(s.total(), n * (n + 1) / 2);
        let heartbeats = s.sent("Heartbeat");
        assert!(heartbeats > 0);
        assert_eq!(s.protocol_total(), s.total() - heartbeats, "heartbeats are background");
        s.record_dropped_to_down();
        s.record_dropped_on_link();
        s.record_dropped_on_link();
        assert_eq!((s.dropped_to_down(), s.dropped_on_link()), (1, 2));
    }
}
