//! The wire-message vocabulary shared by every protocol in the workspace.
//!
//! Message names follow the paper's pseudo-code: `[Request, request, j]`,
//! `[Result, j, decision]`, `[Prepare, j]`, `[Vote, j, vote]`,
//! `[Decide, j, outcome]`, `[AckDecide, j]`, `[Ready]` (Figures 2–6), plus
//! the consensus messages that implement wo-registers, failure-detector
//! heartbeats, and the extra messages used by the comparison protocols of
//! Appendix 3 (2PC and primary-backup).

use crate::ids::{NodeId, RegId, RequestId, ResultId};
use crate::time::Time;
use crate::value::{
    DbOp, Decision, ExecStatus, OpOutput, Outcome, RegValue, Request, ShippedCommit, Vote,
};
use std::sync::Arc;

/// Everything that can travel on the simulated wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Client → application server.
    Client(ClientMsg),
    /// Application server → client.
    App(AppMsg),
    /// Application server → database server.
    Db(DbMsg),
    /// Database server → application server.
    DbReply(DbReplyMsg),
    /// Database server ↔ database server (intra-shard asynchronous
    /// replication: commit shipping and recovery catch-up).
    Repl(ReplMsg),
    /// Application server ↔ application server (wo-register consensus).
    Consensus(ConsensusMsg),
    /// Failure-detector traffic among application servers.
    Fd(FdMsg),
    /// Primary-backup baseline traffic (Appendix 3, Figure 7c).
    Pb(PbMsg),
}

impl Payload {
    /// Background traffic (heartbeats) is excluded from causal-depth
    /// accounting so that "communication steps as seen by the client"
    /// (Figure 7) counts only protocol messages.
    pub fn is_background(&self) -> bool {
        matches!(self, Payload::Fd(_))
    }

    /// Every label [`Payload::label`] returns, at its
    /// [`Payload::label_index`].
    pub const LABELS: [&'static str; 32] = [
        "Request",
        "Result",
        "Exception",
        "Exec",
        "Prepare",
        "Decide",
        "Commit1P",
        "SpecExec",
        "ReadRequest",
        "ReadReply",
        "ExecReply",
        "Vote",
        "AckDecide",
        "AckCommit1P",
        "Ready",
        "ReplApply",
        "LeaseRenew",
        "Intent",
        "IntentAck",
        "ReplSyncReq",
        "ReplSyncState",
        "CEstimate",
        "CPropose",
        "CAck",
        "CNack",
        "CDecide",
        "CDecideReq",
        "Heartbeat",
        "PbStart",
        "PbAckStart",
        "PbOutcome",
        "PbAckOutcome",
    ];

    /// Short label for traces and message-count tables.
    pub fn label(&self) -> &'static str {
        Self::LABELS[self.label_index()]
    }

    /// Where this message's label sits in [`Payload::LABELS`]: one index
    /// per message kind, so a count per label is an array.
    pub fn label_index(&self) -> usize {
        match self {
            Payload::Client(ClientMsg::Request { .. }) => 0,
            Payload::App(AppMsg::Result { .. }) => 1,
            Payload::App(AppMsg::Exception { .. }) => 2,
            Payload::Db(DbMsg::Exec { .. }) => 3,
            Payload::Db(DbMsg::Prepare { .. }) => 4,
            Payload::Db(DbMsg::Decide { .. }) => 5,
            Payload::Db(DbMsg::CommitOnePhase { .. }) => 6,
            Payload::Db(DbMsg::SpecExec { .. }) => 7,
            Payload::Db(DbMsg::Read { .. }) => 8,
            Payload::DbReply(DbReplyMsg::ReadReply { .. }) => 9,
            Payload::DbReply(DbReplyMsg::ExecReply { .. }) => 10,
            Payload::DbReply(DbReplyMsg::Vote { .. }) => 11,
            Payload::DbReply(DbReplyMsg::AckDecide { .. }) => 12,
            Payload::DbReply(DbReplyMsg::AckCommitOnePhase { .. }) => 13,
            Payload::DbReply(DbReplyMsg::Ready) => 14,
            Payload::Repl(ReplMsg::Apply { .. }) => 15,
            Payload::Repl(ReplMsg::LeaseRenew { .. }) => 16,
            Payload::Repl(ReplMsg::Intent { .. }) => 17,
            Payload::Repl(ReplMsg::IntentAck { .. }) => 18,
            Payload::Repl(ReplMsg::SyncReq) => 19,
            Payload::Repl(ReplMsg::SyncState { .. }) => 20,
            Payload::Consensus(ConsensusMsg::Estimate { .. }) => 21,
            Payload::Consensus(ConsensusMsg::Propose { .. }) => 22,
            Payload::Consensus(ConsensusMsg::Ack { .. }) => 23,
            Payload::Consensus(ConsensusMsg::Nack { .. }) => 24,
            Payload::Consensus(ConsensusMsg::Decide { .. }) => 25,
            Payload::Consensus(ConsensusMsg::DecideReq { .. }) => 26,
            Payload::Fd(FdMsg::Heartbeat { .. }) => 27,
            Payload::Pb(PbMsg::Start { .. }) => 28,
            Payload::Pb(PbMsg::AckStart { .. }) => 29,
            Payload::Pb(PbMsg::Outcome { .. }) => 30,
            Payload::Pb(PbMsg::AckOutcome { .. }) => 31,
        }
    }
}

/// Client-originated messages (Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// `[Request, request, j]` — submit attempt `j` of a request.
    Request {
        /// The request (business-logic script included).
        request: Request,
        /// The paper's `j`.
        attempt: u32,
        /// Garbage-collection watermark: every request of this client with a
        /// sequence number below `ack_below` is settled and will never be
        /// retransmitted. Sequential clients send their current sequence
        /// number (the paper's implicit acknowledgement); open-loop clients
        /// send their lowest unfinished sequence number, which is what makes
        /// server-side GC safe with many requests in flight.
        ack_below: u64,
        /// Causality token: per shard primary, the highest commit-ship
        /// position any result delivered to this client has carried
        /// ([`AppMsg::Result::stamps`], max-folded). The application server
        /// merges it into its own per-shard freshness observations before
        /// stamping follower reads, so read-your-writes (and per-client
        /// monotonic reads) hold even when a retry lands on a server that
        /// never observed the write's acknowledgement. Empty for baseline
        /// clients, whose protocols have no follower reads.
        stamps: Vec<(NodeId, u64)>,
    },
}

/// Application-server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum AppMsg {
    /// `[Result, j, decision]` — the outcome of attempt `j` (Figure 4
    /// terminate(), line 7).
    Result {
        /// Which attempt this answers.
        rid: ResultId,
        /// The decided (result, outcome) pair.
        decision: Decision,
        /// Freshness stamps backing the client's causality token: for each
        /// shard primary this decision touched, the commit-ship position
        /// the answering server had observed when it replied (which, for a
        /// committed write, includes the write itself). The client
        /// max-folds these into [`ClientMsg::Request::stamps`]. Baseline
        /// protocols send it empty.
        stamps: Vec<(NodeId, u64)>,
    },
    /// Failure notification used by the *unreliable* baseline and 2PC
    /// clients only: the e-Transaction protocol never raises exceptions to
    /// the end user — that is its whole point.
    Exception {
        /// The request that failed.
        request: RequestId,
        /// Human-readable reason.
        reason: String,
    },
}

/// Application-server → database messages (Figure 3 inputs, plus the
/// business-logic manipulation the paper abstracts as `compute()`).
#[derive(Debug, Clone, PartialEq)]
pub enum DbMsg {
    /// Execute business-logic operations inside branch `rid` (transient
    /// manipulation; not committed).
    Exec {
        /// Transaction branch.
        rid: ResultId,
        /// Operations to run (Arc-shared with the script they came from —
        /// an Exec send is a refcount bump, not an op-vector copy).
        ops: Arc<[DbOp]>,
        /// Whether the branch runs under XA bracketing (AR and 2PC do; the
        /// unreliable baseline does not). Figure 8 shows the XA path costs a
        /// few extra milliseconds of SQL time.
        xa: bool,
        /// The sender's watermark for `rid`'s client: every request of the
        /// client below it is settled. The database drains its decide memo
        /// below it and refuses branches below it (`etx_store::Engine::
        /// settle_below`). 0 from a sender that keeps no watermark.
        floor: u64,
    },
    /// `[Prepare, j]` — request a vote.
    Prepare {
        /// Transaction branch.
        rid: ResultId,
        /// Whether the transaction spans more than one shard. A
        /// lease-granting primary holds its *yes* vote on a cross-shard
        /// branch until every follower has acknowledged the branch's
        /// [`ReplMsg::Intent`] (or every outstanding lease has provably
        /// lapsed) — the handshake that keeps an in-lease follower from
        /// serving the stale half of a half-applied cross-shard
        /// transaction. Single-shard branches never fracture, so their
        /// votes are never held.
        cross: bool,
    },
    /// `[Decide, j, outcome]` — deliver decisions: the outcomes that concern
    /// this database, in one message. The database applies all of them
    /// behind a single (group) WAL append, one commit-processing charge and
    /// one acknowledgement; the paper's per-attempt push is the one-entry
    /// form ([`DbMsg::decide_one`]).
    Decide {
        /// `(branch, outcome)` pairs, in slot order.
        entries: Vec<(ResultId, Outcome)>,
        /// The decision-log slot the entries were decided in, present on
        /// the first push of every decided slot (with speculation on, each
        /// share of its proposal shipped as a [`DbMsg::SpecExec`]). A
        /// speculating database resolves its stash for the slot against it
        /// (promote on match, discard and replay on mismatch). `None` —
        /// retransmissions, `Ready` and cleaner re-pushes, an attempt
        /// finalised outside a slot, the baselines — never touches the
        /// stash.
        slot: Option<u64>,
    },
    /// One-phase commit used by the unreliable baseline (Figure 7a): commit
    /// immediately, no vote.
    CommitOnePhase {
        /// Transaction branch.
        rid: ResultId,
    },
    /// A *proposed* (not yet decided) pipeline batch: the application
    /// server ships this to a shard primary in the same event that proposes
    /// the batch into decision-log slot `slot`. The database stashes the
    /// entries under the slot and claims its log device for their commit
    /// processing now, while consensus runs — nothing is applied, made
    /// durable or shipped to followers until the slot decides. Purely an
    /// optimisation: losing or ignoring this message costs nothing but the
    /// overlap.
    SpecExec {
        /// The decision-log slot the batch was proposed into.
        slot: u64,
        /// Proposed `(branch, outcome)` pairs, in proposal order.
        entries: Vec<(ResultId, Outcome)>,
    },
    /// `[ReadRequest]` — one call of a read-only e-Transaction, executed
    /// against committed state with **no** XA branch, no locks and no
    /// consensus (the read fast path). A shard *follower* receiving one
    /// compares `min_seq` with its applied replication position: behind it,
    /// the follower forwards this same message to its primary instead of
    /// serving stale state; at or past it, the follower serves locally.
    /// With read leases active the follower additionally requires its own
    /// grant window to be unexpired — an expired lease forwards regardless
    /// of position, which is what turns per-read gating into a pure
    /// time-bounded staleness contract.
    Read {
        /// The read-only attempt this call belongs to.
        rid: ResultId,
        /// Index of the call within the attempt's routed script (read-only
        /// scripts fan out one `Read` per touched shard).
        call: u32,
        /// Which snapshot-validation collect of the attempt this send
        /// belongs to (0 for the first; multi-shard reads re-collect until
        /// two consecutive rounds agree or the attempt's fixed collect
        /// budget is spent — see [`crate::config::ReadPathConfig`]).
        /// Echoed in the reply so the issuer can drop answers from
        /// superseded rounds.
        round: u32,
        /// The `Get` operations to execute (Arc-shared: fan-out, forwards
        /// and retries clone a reference count, not the ops).
        ops: Arc<[DbOp]>,
        /// Freshness gate for follower serving: the maximum of (a) the
        /// highest commit-ship position the issuing application server has
        /// observed for this shard and (b) the client's own causality token
        /// ([`ClientMsg::Request::stamps`]). (b) is what makes
        /// read-your-writes hold unconditionally: even when the read
        /// reaches a server that never saw the write's acknowledgement,
        /// the client's stamp — carried from the write's own
        /// [`AppMsg::Result`] — keeps a lagging follower from serving
        /// pre-write state. With read leases active
        /// ([`crate::config::ReadLeaseConfig`]), the issuer sends only (b):
        /// an in-lease follower owes the client its own writes, while
        /// staleness against everything else is bounded by lease expiry
        /// rather than per-read gating.
        min_seq: u64,
        /// Where the answer must go (preserved across forwards, so the
        /// primary answering a forwarded read replies straight to the
        /// application server).
        reply_to: NodeId,
    },
}

impl DbMsg {
    /// The paper's `[Decide, j, outcome]`: a one-entry decide outside any
    /// slot.
    pub fn decide_one(rid: ResultId, outcome: Outcome) -> Self {
        DbMsg::Decide { entries: vec![(rid, outcome)], slot: None }
    }
}

/// Database → application-server messages (Figure 3 outputs).
#[derive(Debug, Clone, PartialEq)]
pub enum DbReplyMsg {
    /// Results of an `Exec` batch.
    ExecReply {
        /// Transaction branch.
        rid: ResultId,
        /// Per-op outputs or a conflict notice.
        status: ExecStatus,
    },
    /// `[Vote, j, vote]`.
    Vote {
        /// Transaction branch.
        rid: ResultId,
        /// Yes or no.
        vote: Vote,
    },
    /// `[AckDecide, j]` — every entry of a [`DbMsg::Decide`] was applied
    /// durably (behind one WAL append).
    AckDecide {
        /// `(branch, applied outcome)` pairs, mirroring the request.
        entries: Vec<(ResultId, Outcome)>,
        /// The replying primary's commit-ship position after applying.
        /// Application servers fold this into their per-shard freshness
        /// stamp for follower reads ([`DbMsg::Read::min_seq`]).
        seq: u64,
        /// Read-lease advertisement (piggybacked renewal): when the
        /// primary's replica leases are active, the instant through which
        /// its followers' applied prefixes are authoritative. Application
        /// servers fold it into their per-shard lease view and route reads
        /// — including multi-shard collects — at followers while it is in
        /// force. `None` whenever leases are disabled or withheld.
        lease: Option<Time>,
    },
    /// Baseline's one-phase commit acknowledgement.
    AckCommitOnePhase {
        /// Transaction branch.
        rid: ResultId,
        /// Whether the commit succeeded.
        ok: bool,
    },
    /// Answer to a [`DbMsg::Read`]: the per-op outputs of one read-only
    /// call, served from committed state, plus the consistency metadata
    /// the issuer's snapshot validation runs on (multi-shard reads only
    /// accept a collect once every shard's `pos` matched the previous
    /// collect and no `indoubt` flag is set — that is what makes a
    /// cross-shard fan-out read transactionally atomic instead of a
    /// fractured per-shard sample).
    ReadReply {
        /// The read-only attempt.
        rid: ResultId,
        /// Which call of the attempt's script this answers.
        call: u32,
        /// The collect round this answers ([`DbMsg::Read::round`] echoed);
        /// the issuer ignores replies from superseded rounds.
        round: u32,
        /// Per-op outputs (`Value(..)` per `Get`).
        outputs: Vec<OpOutput>,
        /// The serving replica's commit position when the values were
        /// sampled: the primary's commit-ship counter, or a follower's
        /// applied replication position (same scale — a follower at `pos`
        /// holds exactly the primary's committed state at ship position
        /// `pos`).
        pos: u64,
        /// Whether any **prepared** (in-doubt) branch at the serving
        /// server has a pending write to one of the keys read: a
        /// cross-shard transaction between its first and last per-shard
        /// commit is exactly "prepared at the shards that have not applied
        /// it yet", so this flag is how the laggard shard exposes a
        /// half-applied transaction to the validation check.
        indoubt: bool,
        /// Read-lease advertisement from a serving *primary* (same role as
        /// [`DbReplyMsg::AckDecide::lease`]; what keeps application
        /// servers routing at followers through read-dominated stretches
        /// where no decide traffic would otherwise refresh the view).
        /// Followers send `None` — the advertisement tracks what the
        /// grantor has granted, not what a grantee holds.
        lease: Option<Time>,
    },
    /// `[Ready]` — recovery notification (Figure 3 line 2): "I crashed and
    /// came back; anything I had not prepared is gone."
    Ready,
}

/// Intra-shard replication traffic between the database servers of one
/// replica group. The primary ships every committed write set to its
/// followers *asynchronously* (off the transaction's critical path — the
/// same design move the paper makes for the middle tier); a recovering
/// follower pulls a snapshot from its primary to catch up on anything it
/// missed while down.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// Primary → followers: the branches one engine interaction committed,
    /// with their post-commit values. Appliers process strictly in `seq`
    /// order (buffering gaps), so a follower's state is always a prefix of
    /// the primary's history.
    Apply {
        /// `(seq, branch, post-commit key values)` triples, in ship order.
        /// `seq` is the dense per-primary ship counter, starting at 1; the
        /// values are absolute, not deltas (replay-safe), and Arc-shared so
        /// per-follower broadcast copies are refcount bumps.
        items: Vec<ShippedCommit>,
        /// Piggybacked read-lease renewal: the follower's applied prefix is
        /// authoritative through this instant (`None` when leases are
        /// disabled, or withheld because a cross-shard branch is live).
        lease: Option<Time>,
    },
    /// Primary → followers *and application servers*: a bare read-lease
    /// renewal, sent at startup and from the renewal timer when no commit
    /// shipment has ridden one recently (write-quiet stretches must not
    /// let follower leases lapse, and a read-only workload must not leave
    /// the application servers' routing tables blind to the grants). The
    /// followers' applied prefixes are authoritative through `through`.
    /// Never sent with leases disabled.
    LeaseRenew {
        /// The instant the grant is valid through.
        through: Time,
        /// Grant floor: the grantor's commit-ship position when the grant
        /// was minted. A follower adopting this renewal may serve reads
        /// under it only once its applied position has reached the floor —
        /// otherwise a bare renewal racing ahead of a lost or delayed
        /// `Apply` would re-authorize a prefix that is *missing* commits
        /// the rest of the system has already observed. (Application
        /// servers ignore the field; it gates serving, not routing.)
        floor: u64,
    },
    /// Lease-granting primary → followers: branch `rid` is a **cross-shard
    /// in-doubt intent**. The primary is holding its yes vote for `rid`
    /// hostage to this notice: until every follower acknowledges (or every
    /// outstanding lease lapses), no coordinator can decide the branch, so
    /// no sibling shard can commit it either. A follower holding a live
    /// intent forwards in-lease reads to the primary — whose ordinary
    /// in-doubt check then vetoes fractured snapshots — until the intent
    /// resolves (the branch's commit applies, or a renewal minted after
    /// the branch settled clears it). Never retransmitted: a lost intent
    /// just means the vote waits out the escape horizon.
    Intent {
        /// The cross-shard branch.
        rid: ResultId,
        /// When the primary recorded the intent (used by followers to
        /// expire intents older than a later renewal's mint instant —
        /// which is how aborted branches, whose outcome never ships, get
        /// cleared).
        at: Time,
    },
    /// Follower → its shard primary: intent recorded; release the vote.
    IntentAck {
        /// The acknowledged branch.
        rid: ResultId,
    },
    /// Follower → its shard primary: "send me your state" (recovery, or a
    /// detected gap in the apply stream).
    SyncReq,
    /// Primary → follower: full committed snapshot at ship position `seq`.
    SyncState {
        /// The primary's ship counter at snapshot time.
        seq: u64,
        /// The primary's committed key values.
        entries: Vec<(String, i64)>,
    },
}

/// Messages of the rotating-coordinator consensus that implements
/// wo-registers (§4; one instance per register).
#[derive(Debug, Clone, PartialEq)]
pub enum ConsensusMsg {
    /// Phase 1: participant → coordinator of `round`; carries the
    /// participant's current estimate and the round in which it was adopted.
    Estimate {
        /// Register / consensus instance.
        inst: RegId,
        /// Destination round.
        round: u32,
        /// Current estimate, if any.
        est: Option<RegValue>,
        /// Round in which `est` was adopted (0 = initial).
        ts: u32,
    },
    /// Phase 2: coordinator → all; proposes a value for the round.
    Propose {
        /// Register / consensus instance.
        inst: RegId,
        /// Round number.
        round: u32,
        /// Proposed value.
        value: RegValue,
    },
    /// Phase 3 positive reply: participant adopted the proposal.
    Ack {
        /// Register / consensus instance.
        inst: RegId,
        /// Round number.
        round: u32,
    },
    /// Phase 3 negative reply: participant suspects the coordinator and
    /// moved on.
    Nack {
        /// Register / consensus instance.
        inst: RegId,
        /// Round the participant abandoned.
        round: u32,
    },
    /// Decision dissemination (reliable broadcast, also re-sent on demand).
    Decide {
        /// Register / consensus instance.
        inst: RegId,
        /// Decided value.
        value: RegValue,
    },
    /// Pull request: "if this instance is decided, tell me" — implements the
    /// liveness half of the wo-register `read()` specification.
    DecideReq {
        /// Register / consensus instance.
        inst: RegId,
    },
}

/// Failure-detector traffic (heartbeat-based ◇P among application servers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdMsg {
    /// Periodic liveness beacon.
    Heartbeat {
        /// Monotonic per-sender sequence number.
        seq: u64,
    },
}

/// Primary-backup replication messages (the comparison protocol the authors
/// adapted from their TR \[18\]; Appendix 3, Figure 7c).
#[derive(Debug, Clone, PartialEq)]
pub enum PbMsg {
    /// Primary → backup: a request entered processing.
    Start {
        /// Attempt being processed.
        rid: ResultId,
        /// The request itself (so the backup can take over).
        request: Request,
    },
    /// Backup → primary: start recorded.
    AckStart {
        /// Attempt acknowledged.
        rid: ResultId,
    },
    /// Primary → backup: the decision for the attempt.
    Outcome {
        /// Attempt decided.
        rid: ResultId,
        /// Decision reached.
        decision: Decision,
    },
    /// Backup → primary: outcome recorded.
    AckOutcome {
        /// Attempt acknowledged.
        rid: ResultId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, RequestId};
    use crate::value::RequestScript;

    fn rid() -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq: 1 })
    }

    #[test]
    fn background_classification() {
        assert!(Payload::Fd(FdMsg::Heartbeat { seq: 1 }).is_background());
        assert!(!Payload::Db(DbMsg::Prepare { rid: rid(), cross: false }).is_background());
    }

    #[test]
    fn labels_are_distinct_for_protocol_phases() {
        let labels = [
            Payload::Client(ClientMsg::Request {
                request: Request { id: rid().request, script: RequestScript::default() },
                attempt: 1,
                ack_below: 1,
                stamps: Vec::new(),
            })
            .label(),
            Payload::Db(DbMsg::Prepare { rid: rid(), cross: false }).label(),
            Payload::Db(DbMsg::decide_one(rid(), Outcome::Commit)).label(),
            Payload::Db(DbMsg::SpecExec { slot: 0, entries: vec![(rid(), Outcome::Commit)] })
                .label(),
            Payload::Db(DbMsg::Read {
                rid: rid(),
                call: 0,
                round: 0,
                ops: Arc::from([]),
                min_seq: 0,
                reply_to: NodeId(1),
            })
            .label(),
            Payload::DbReply(DbReplyMsg::ReadReply {
                rid: rid(),
                call: 0,
                round: 0,
                outputs: vec![],
                pos: 0,
                indoubt: false,
                lease: None,
            })
            .label(),
            Payload::DbReply(DbReplyMsg::AckDecide {
                entries: vec![(rid(), Outcome::Commit)],
                seq: 1,
                lease: None,
            })
            .label(),
            Payload::Repl(ReplMsg::Apply { items: vec![(1, rid(), Arc::from([]))], lease: None })
                .label(),
            Payload::Repl(ReplMsg::LeaseRenew { through: Time(1), floor: 0 }).label(),
            Payload::Repl(ReplMsg::Intent { rid: rid(), at: Time(1) }).label(),
            Payload::Repl(ReplMsg::IntentAck { rid: rid() }).label(),
            Payload::DbReply(DbReplyMsg::Ready).label(),
            Payload::Consensus(ConsensusMsg::DecideReq { inst: RegId::slot(0) }).label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
