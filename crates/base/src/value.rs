//! Requests, database operations, results, votes, outcomes and decisions.
//!
//! These model the paper's domains (§2): `Request`, `Result`,
//! `Vote = {yes, no}`, `Outcome = {commit, abort}`, and the pair
//! `(result, outcome)` the protocol calls a *decision* (the value stored in
//! `regD[j]`).
//!
//! The paper abstracts the business logic behind a non-deterministic
//! `compute()` function that manipulates the databases without committing.
//! Here a request carries a [`RequestScript`] — the sequence of database
//! calls the business logic performs — and the application server executes
//! it transactionally. The script's effects depend on current database state
//! (e.g. [`DbOp::Reserve`] may find a flight sold out), which is exactly the
//! non-determinism the paper's wo-registers exist to tame.

use crate::ids::{NodeId, RequestId, ResultId};
use core::fmt;
use std::sync::Arc;

/// A database vote on a prepared transaction branch (§2): `yes` means the
/// database server agrees to commit the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vote {
    /// The branch is prepared durably; the server can commit it.
    Yes,
    /// The server refuses (unknown branch, doomed branch, constraint
    /// violation, or it crashed and lost the branch).
    No,
}

/// The fate of a result / transaction (§2): input and output domain of the
/// XA-style `decide()` primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// All effects are made durable.
    Commit,
    /// All effects are discarded.
    Abort,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Commit => "commit",
            Outcome::Abort => "abort",
        })
    }
}

impl fmt::Display for Vote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Vote::Yes => "yes",
            Vote::No => "no",
        })
    }
}

/// One logical operation inside the business logic's transactional
/// manipulation of a database.
///
/// Operations are deliberately domain-flavoured: `Reserve` models the
/// travel-booking example from the paper's introduction (book a seat if one
/// is available, otherwise report the problem *as a regular result* — the
/// paper's treatment of user-level aborts, §2 and footnote 4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DbOp {
    /// Read a key (shared lock).
    Get { key: String },
    /// Overwrite a key (exclusive lock).
    Put { key: String, value: i64 },
    /// Read-modify-write: add `delta` to the key (exclusive lock). Missing
    /// keys read as 0.
    Add { key: String, delta: i64 },
    /// Decrement `key` by `qty` if at least `qty` remains; otherwise performs
    /// no write and reports [`OpOutput::SoldOut`]. This is a *user-level
    /// abort*: a regular result value, not a transaction failure.
    Reserve { key: String, qty: i64 },
    /// Declares the branch doomed: the database will vote **no** at prepare
    /// time. Models integrity-constraint violations discovered by the
    /// database; used by tests and fault-injection workloads.
    Doom,
}

impl DbOp {
    /// The key this operation touches, if any.
    pub fn key(&self) -> Option<&str> {
        match self {
            DbOp::Get { key }
            | DbOp::Put { key, .. }
            | DbOp::Add { key, .. }
            | DbOp::Reserve { key, .. } => Some(key),
            DbOp::Doom => None,
        }
    }

    /// Whether the operation needs an exclusive lock.
    pub fn is_write(&self) -> bool {
        matches!(self, DbOp::Put { .. } | DbOp::Add { .. } | DbOp::Reserve { .. })
    }

    /// Whether the operation is a pure read ([`DbOp::Get`]): no effect on
    /// database state, safe to execute against a committed snapshot without
    /// an XA branch. The read fast path exists for scripts made of these.
    pub fn is_read(&self) -> bool {
        matches!(self, DbOp::Get { .. })
    }
}

/// Result of one [`DbOp`], reported back to the application server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpOutput {
    /// Value read (or `None` if the key is absent).
    Value(Option<i64>),
    /// Value after an update (`Put`/`Add`).
    Updated(i64),
    /// Reservation succeeded; `remaining` units left.
    Reserved { remaining: i64 },
    /// Reservation failed — no stock. A regular (informative) result.
    SoldOut,
    /// `Doom` acknowledged.
    Doomed,
}

/// Result of executing a whole batch of operations at one database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecStatus {
    /// All operations executed; per-op outputs inside.
    Done(Vec<OpOutput>),
    /// A lock conflict with a concurrent transaction; the branch is doomed
    /// and will vote no. The client-side protocol will retry the request as
    /// a fresh attempt.
    Conflict,
}

/// One sequential step of the business logic: a batch of operations sent to
/// a single database server.
///
/// The op vector is [`Arc`]-shared: cloning a call (and therefore a script,
/// a request, or a message that carries one) bumps a reference count
/// instead of deep-copying every operation — client retries, broadcast
/// fan-out and read fan-out all reuse one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbCall {
    /// Target database server.
    pub db: NodeId,
    /// Operations executed atomically within this request's branch there.
    pub ops: Arc<[DbOp]>,
}

impl DbCall {
    /// A call from its operations (an array or a vector; the shared
    /// allocation every subsequent clone reuses — one allocation from an
    /// array, a vector's is copied into it).
    pub fn new(db: NodeId, ops: impl Into<Arc<[DbOp]>>) -> Self {
        DbCall { db, ops: ops.into() }
    }
}

/// The transactional manipulation performed by `compute()` (Figure 5 line 8),
/// expressed as data so it can cross the simulated wire.
///
/// A script addresses the back end in one of two ways:
///
/// * **explicitly** — `calls` names a concrete database server per batch
///   (the original form; baselines and fixed-topology workloads use it);
/// * **by key** — `keyed_ops` carries operations without a destination;
///   the *application server* consults its shard map and splits them into
///   one XA branch per touched shard. This is what makes the back end
///   horizontally partitionable without the client knowing the layout.
///
/// A script uses one form or the other, never both.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestScript {
    /// Database calls, issued in order (each call may target a different
    /// database; all branches belong to the same distributed transaction).
    pub calls: Vec<DbCall>,
    /// Key-addressed operations, routed to shards by the application
    /// server. Empty for explicitly-addressed scripts.
    pub keyed_ops: Arc<[DbOp]>,
}

impl RequestScript {
    /// A script with a single call to one database.
    pub fn single(db: NodeId, ops: impl Into<Arc<[DbOp]>>) -> Self {
        RequestScript { calls: vec![DbCall::new(db, ops)], keyed_ops: Arc::from([]) }
    }

    /// An explicitly-addressed script from pre-built calls.
    pub fn from_calls(calls: Vec<DbCall>) -> Self {
        RequestScript { calls, keyed_ops: Arc::from([]) }
    }

    /// A key-addressed script: the application server's shard router
    /// decides which database servers run which operations. From an array
    /// the op slice is one allocation.
    pub fn keyed(ops: impl Into<Arc<[DbOp]>>) -> Self {
        RequestScript { calls: Vec::new(), keyed_ops: ops.into() }
    }

    /// Whether this script still needs shard routing before execution.
    pub fn is_keyed(&self) -> bool {
        !self.keyed_ops.is_empty()
    }

    /// Whether every operation in the script is a pure read ([`DbOp::Get`])
    /// — and there is at least one, so the degenerate empty script keeps
    /// its historical route through the commit machinery. Read-only
    /// e-Transactions are idempotent: the write-once `regD` contract exists
    /// to make retries of *effectful* transactions safe, so these can skip
    /// it entirely (the read fast path).
    pub fn is_read_only(&self) -> bool {
        let mut ops = self.calls.iter().flat_map(|c| c.ops.iter()).chain(self.keyed_ops.iter());
        let mut any = false;
        for op in &mut ops {
            if !op.is_read() {
                return false;
            }
            any = true;
        }
        any
    }

    /// All distinct databases this script touches, in first-use order.
    /// Keyed scripts touch none until routed.
    pub fn databases(&self) -> Vec<NodeId> {
        let mut dbs = Vec::new();
        for c in &self.calls {
            if !dbs.contains(&c.db) {
                dbs.push(c.db);
            }
        }
        dbs
    }
}

/// A client request (§2 "Request" domain): uniquely identified, and carrying
/// the business-logic script to run on its behalf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Unique id (client + per-client sequence number).
    pub id: RequestId,
    /// What the business logic does.
    pub script: RequestScript,
}

/// A result value (§2 "Result" domain): information computed by the business
/// logic that must be returned to the user — reservation numbers, hotel
/// names, or an informative "sold out" notice.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResultValue {
    /// Labelled fields, e.g. `("flight_seat", 41)` or `("sold_out", 1)`.
    pub entries: Vec<(String, i64)>,
}

impl ResultValue {
    /// Builds a result from labelled entries.
    pub fn new(entries: Vec<(String, i64)>) -> Self {
        ResultValue { entries }
    }

    /// Looks up a field by label.
    pub fn field(&self, label: &str) -> Option<i64> {
        self.entries.iter().find(|(l, _)| l == label).map(|&(_, v)| v)
    }

    /// True if the business logic reported a user-level problem (e.g. sold
    /// out). Still a perfectly committable result — see paper footnote 4.
    pub fn is_user_level_problem(&self) -> bool {
        self.field("sold_out").is_some() || self.field("conflict").is_some()
    }
}

impl fmt::Display for ResultValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (l, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// A decision — the pair `(result, outcome)` written into `regD[j]`
/// (Figure 5 line 10). The cleaner writes `(nil, abort)` (Figure 6 line 7),
/// hence the `Option`.
///
/// The result is [`Arc`]-shared: a decision is copied at every hop between
/// the vote count and the client's delivery (pipeline queue, slot batch,
/// every replica's apply, termination, the retransmission cache, the wire),
/// and each copy is a reference count, not the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The computed result; `None` for the cleaner's `(nil, abort)`.
    pub result: Option<Arc<ResultValue>>,
    /// Commit or abort.
    pub outcome: Outcome,
}

impl Decision {
    /// The cleaner's decision: `(nil, abort)`.
    pub fn nil_abort() -> Self {
        Decision { result: None, outcome: Outcome::Abort }
    }

    /// A commit decision carrying a result.
    pub fn commit(result: ResultValue) -> Self {
        Decision { result: Some(Arc::new(result)), outcome: Outcome::Commit }
    }

    /// An abort decision that still carries the (refused) result.
    pub fn abort(result: ResultValue) -> Self {
        Decision { result: Some(Arc::new(result)), outcome: Outcome::Abort }
    }

    /// True iff the outcome is commit.
    pub fn is_commit(&self) -> bool {
        self.outcome == Outcome::Commit
    }
}

/// One position of the sequenced decision log: an ordered batch of request
/// outcomes decided by a single consensus round. The write-once register
/// contract makes a decided batch indivisible — either every entry is in
/// the slot or none is, which is what keeps mid-batch crashes from ever
/// splitting a request's fate.
pub type OutcomeBatch = Vec<(ResultId, Decision)>;

/// Post-commit key values of one shipped commit, [`Arc`]-shared so that a
/// primary broadcasting the same write set to every follower clones a
/// reference count, not the values.
pub type ShippedEntries = Arc<[(String, i64)]>;

/// One committed write set in ship order: `(ship position, branch,
/// post-commit key values)` — the unit of intra-shard replication, both in
/// the engine's outbox and on the wire ([`crate::msg::ReplMsg::Apply`]).
pub type ShippedCommit = (u64, ResultId, ShippedEntries);

/// One entry of the ownership race (Figure 5's `regA[j].write(self)`),
/// carried in a decision-log slot: `server` claims attempt `rid`. The first
/// claim for an attempt in slot order names its owner; every later one is
/// ignored, exactly as first-occurrence arbitration decides outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnerClaim {
    /// The attempt being claimed.
    pub rid: ResultId,
    /// The application server claiming it.
    pub server: NodeId,
    /// The issuing client's GC watermark as the proposer knew it: every
    /// request of that client below it is settled forever. Riding on the
    /// claim is what carries the watermark to the replicas the client
    /// never talks to.
    pub ack_below: u64,
}

/// The value of one decision-log slot: the outcomes and the owner claims a
/// single consensus round decides together. The two lists are independent
/// registers (`regD` and `regA`) sharing a round, so their relative order
/// inside a slot carries no meaning.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlotBatch {
    /// Per-attempt decisions, in proposal order.
    pub outcomes: OutcomeBatch,
    /// Ownership claims, in proposal order.
    pub claims: Vec<OwnerClaim>,
}

/// The value of a write-once register: a decision-log slot holds an ordered
/// batch of decisions and owner claims, or — once the slot is compacted —
/// the answering server's client watermarks. Both are [`Arc`]-shared so the
/// decision log, the in-flight proposal window, and every consensus
/// broadcast that carries the slot value clone a reference count, not the
/// entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegValue {
    /// The outcomes and owner claims of one log position (for `slot[k]`).
    Batch(Arc<SlotBatch>),
    /// What a compacted log position answers with: the answering server's
    /// `(client, watermark)` table, in client order. Every request the
    /// position carried was below its client's watermark there when it
    /// was compacted, and watermarks only rise, so one table stands for
    /// every compacted position: a replica that applies it settles all
    /// their requests and needs none of their entries.
    Watermarks(Arc<Vec<(NodeId, u64)>>),
}

impl RegValue {
    /// The slot batch, unless this is a compacted position's watermarks.
    pub fn batch(&self) -> Option<&Arc<SlotBatch>> {
        match self {
            RegValue::Batch(b) => Some(b),
            RegValue::Watermarks(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(DbOp::Put { key: "a".into(), value: 1 }.is_write());
        assert!(DbOp::Reserve { key: "a".into(), qty: 1 }.is_write());
        assert!(!DbOp::Get { key: "a".into() }.is_write());
        assert_eq!(DbOp::Doom.key(), None);
        assert_eq!(DbOp::Get { key: "xy".into() }.key(), Some("xy"));
    }

    #[test]
    fn script_database_dedup_preserves_order() {
        let (a, b) = (NodeId(10), NodeId(11));
        let script = RequestScript::from_calls(vec![
            DbCall::new(b, vec![]),
            DbCall::new(a, vec![]),
            DbCall::new(b, vec![]),
        ]);
        assert_eq!(script.databases(), vec![b, a]);
    }

    #[test]
    fn read_only_classification() {
        let get = |k: &str| DbOp::Get { key: k.into() };
        assert!(RequestScript::keyed(vec![get("a"), get("b")]).is_read_only());
        assert!(RequestScript::single(NodeId(4), vec![get("a")]).is_read_only());
        assert!(!RequestScript::keyed(vec![get("a"), DbOp::Add { key: "a".into(), delta: 1 }])
            .is_read_only());
        assert!(!RequestScript::keyed(vec![DbOp::Doom]).is_read_only());
        // The empty script keeps its historical route (vacuous commit).
        assert!(!RequestScript::default().is_read_only());
        // Multi-call explicit scripts classify over every call.
        let cross = RequestScript::from_calls(vec![
            DbCall::new(NodeId(5), vec![get("a")]),
            DbCall::new(NodeId(6), vec![get("b")]),
        ]);
        assert!(cross.is_read_only());
    }

    #[test]
    fn script_clones_share_op_payloads() {
        let script = RequestScript::keyed(vec![
            DbOp::Get { key: "a".into() },
            DbOp::Add { key: "a".into(), delta: 1 },
        ]);
        let copy = script.clone();
        assert!(
            Arc::ptr_eq(&script.keyed_ops, &copy.keyed_ops),
            "clone must share the op allocation, not duplicate it"
        );
        let explicit = RequestScript::single(NodeId(1), vec![DbOp::Get { key: "k".into() }]);
        let copy2 = explicit.clone();
        assert!(Arc::ptr_eq(&explicit.calls[0].ops, &copy2.calls[0].ops));
    }

    #[test]
    fn keyed_scripts_classify_and_route_nowhere_until_materialized() {
        let s = RequestScript::keyed(vec![DbOp::Add { key: "a".into(), delta: 1 }]);
        assert!(s.is_keyed());
        assert!(s.databases().is_empty());
        let e = RequestScript::single(NodeId(4), vec![]);
        assert!(!e.is_keyed());
    }

    #[test]
    fn result_value_fields() {
        let r = ResultValue::new(vec![("seat".into(), 12), ("sold_out".into(), 1)]);
        assert_eq!(r.field("seat"), Some(12));
        assert_eq!(r.field("absent"), None);
        assert!(r.is_user_level_problem());
        assert_eq!(format!("{r}"), "{seat: 12, sold_out: 1}");
    }

    #[test]
    fn decision_constructors() {
        assert_eq!(Decision::nil_abort().result, None);
        assert_eq!(Decision::nil_abort().outcome, Outcome::Abort);
        let c = Decision::commit(ResultValue::default());
        assert!(c.is_commit());
        let a = Decision::abort(ResultValue::default());
        assert!(!a.is_commit());
        assert!(a.result.is_some());
    }

    #[test]
    fn regvalue_projections() {
        let rid = ResultId::first(RequestId { client: NodeId(0), seq: 1 });
        let b = RegValue::Batch(Arc::new(SlotBatch {
            outcomes: vec![(rid, Decision::nil_abort())],
            claims: vec![OwnerClaim { rid, server: NodeId(4), ack_below: 1 }],
        }));
        let batch = b.batch().expect("a batch");
        assert_eq!((batch.outcomes.len(), batch.claims[0].server), (1, NodeId(4)));
        assert_eq!(RegValue::Watermarks(Arc::new(vec![(NodeId(0), 2)])).batch(), None);
    }
}
