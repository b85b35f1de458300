//! The transactional engine: an XA resource manager in miniature.
//!
//! The paper treats a database server as "a stateful, autonomous resource
//! that runs the XA interface" (§1) and models only its commitment surface:
//! `vote()` (XA prepare) and `decide()` (XA commit/rollback) with the
//! contract of §2:
//!
//! * `decide(j, abort)` returns abort;
//! * if the server voted **yes** for `j` and the input is commit, the
//!   return is commit;
//! * a yes vote is a durable promise: the branch's redo information is
//!   **forced** to the write-ahead log before the vote leaves the server,
//!   and recovery restores prepared branches *with their locks held*
//!   (in-doubt transactions — the reason the paper's T.2 matters).
//!
//! The engine is sans-I/O: it mutates in-memory state and *returns* the log
//! records (with force flags) for its host process to append via the
//! runtime, so the same engine is testable in isolation and drivable from
//! the simulator.

use crate::locks::{LockGrant, LockMode, LockTable};
use etx_base::attempts::AttemptWindows;
use etx_base::ids::{NodeId, ResultId};
use etx_base::time::{Dur, Time};
use etx_base::value::{DbOp, ExecStatus, OpOutput, Outcome, Vote};
use etx_base::wal::{Image, StableRecord};
use std::collections::BTreeMap;

/// A log record the host must append, and whether it must be forced
/// (synchronous) before the operation's reply may leave the server.
#[derive(Debug, Clone, PartialEq)]
pub struct LogWrite {
    /// The record.
    pub rec: StableRecord,
    /// Forced (synchronous) or buffered.
    pub force: bool,
}

impl LogWrite {
    /// Frames several `writes` in place into one [`StableRecord::Group`]
    /// append, in order; one record stays bare (a frame around it would buy
    /// nothing). The frame is forced iff any member would have been, so
    /// framing never weakens a record's durability; its record vector is
    /// allocated at its length, as it stays in the log. Frames never nest:
    /// the engine frames only the records of one call.
    pub fn frame(writes: &mut Vec<LogWrite>) {
        if writes.len() > 1 {
            let force = writes.iter().any(|w| w.force);
            let mut records = Vec::with_capacity(writes.len());
            records.extend(writes.drain(..).map(|w| w.rec));
            writes.push(LogWrite { rec: StableRecord::Group { records }, force });
        }
    }
}

/// A live (undecided) branch.
#[derive(Debug)]
enum Branch {
    /// Executing: its write set so far, key → new value (redo information).
    Active(BTreeMap<String, i64>),
    /// A lock conflict or a `Doom` ended it: it votes no.
    Doomed,
    /// Voted yes: the write set, sealed once, in key order. The `Prepared`
    /// record shares it, and so does the commit's shipment.
    Prepared(ShippedEntries),
}

pub use etx_base::value::{ShippedCommit, ShippedEntries};

/// A reservation for one *proposed* decision-log slot: the batch a server
/// proposed into it, the log-device time the host pre-paid for it while
/// consensus ran, and the instant that device work completes. Nothing is
/// executed ahead of the decision — a stash changes no data, lock, memo,
/// WAL record or shipment — and the stash is volatile: a crash discards it
/// and recovery replays only decided state.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecSlot {
    /// The proposed `(branch, outcome)` pairs, in proposal order. The
    /// decided slot must match these exactly for the stash to promote.
    pub entries: Vec<(ResultId, Outcome)>,
    /// Device time the host pre-paid for the batch at `SpecExec` (so
    /// promotion can attribute latency spans to it).
    pub cost: Dur,
    /// When the pre-paid device work completes: the instant a matching
    /// decision can be acknowledged, whatever the device was charged
    /// since. The host sets it on the stash [`Engine::speculate`] returns;
    /// a fresh stash is ready at once.
    pub ready: Time,
}

/// What promoting a matched speculation yields: exactly what
/// [`Engine::decide_batch`] would have returned, plus what was pre-paid.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecPromotion {
    /// Per-branch applied outcomes, for the batched acknowledgement.
    pub acks: Vec<(ResultId, Outcome)>,
    /// The WAL append the promotion must make durable.
    pub writes: Vec<LogWrite>,
    /// Device time already charged at speculation time.
    pub cost: Dur,
    /// When that device work completes ([`SpecSlot::ready`]).
    pub ready: Time,
}

/// What [`Engine::promote_speculation`] found for a decided slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Promotion {
    /// The slot decided as stashed, and its batch applied.
    Hit(SpecPromotion),
    /// The slot's stash diverged from the decided batch: it is dropped and
    /// nothing applied.
    Miss,
    /// Nothing was stashed for the slot.
    Absent,
}

/// What [`Engine::apply_replicated_batch`] did with an incoming shipment.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplApply {
    /// The log append for every apply that landed (the shipment's in-order
    /// items plus any buffered successors they unblocked): at most one
    /// record, a group frame when more than one landed.
    pub writes: Vec<LogWrite>,
    /// The apply arrived beyond a gap — the caller should request a
    /// snapshot from the primary.
    pub need_sync: bool,
}

/// The in-memory transactional engine of one database server.
///
/// Besides the XA surface, the engine carries both sides of intra-shard
/// asynchronous replication: as a **primary** it counts every local commit
/// into a dense ship sequence and queues the write set in an outbox for
/// the host to broadcast; as a **follower** it applies shipped commits
/// strictly in sequence order (buffering out-of-order arrivals) so its
/// state is always a prefix of the primary's committed history.
///
/// The decide memo, which every `execute`, `vote` and `decide` consults
/// first, is kept per client ([`AttemptWindows`]): a client's branches
/// reach a database in `seq` order, so the lookup of a new branch and its
/// insertion compare one key however long the history. The live branches
/// stay in a `BTreeMap`: it holds only them and stays small, while a
/// window per client seen (and its run's capacity) would outlive them.
///
/// The memo is bounded by the clients' watermarks. Each `Exec` carries
/// its sender's watermark for the client, and [`Engine::settle_below`]
/// raises the client's *floor* to it and drains the memo's prefix below.
/// A request below the floor is settled: its client has its result, so
/// every database involved has decided it already. The memo therefore
/// never holds an outcome below its client's floor, and a message below
/// it follows four rules:
///
/// * a late `Exec` is refused like a lock conflict, opening no branch and
///   taking no lock;
/// * a late `Prepare` for an attempt with no live branch votes no, as for
///   any unknown branch;
/// * a late `Decide` for an attempt with no live branch changes nothing:
///   no memo entry, no log record, no ship position, no shipment;
/// * an attempt with a live branch is decided as any other (its outcome
///   is logged, not memoised).
///
/// A *commit* for a branch this database does not hold changes nothing
/// either, above the floor too. Every database involved in an attempt
/// voted yes on a branch it holds until the decision (V.2), so such a
/// commit reaches only a database that was never involved — a cleaner's
/// or a recovering coordinator's push to every database — and no later
/// `Exec` or `Prepare` can name the attempt here. An *abort* for a branch
/// not held is memoised and logged above the floor: it can overtake this
/// database's own `Exec`, which must then be refused.
///
/// [`Engine::image`] is what recovery would rebuild from the log written so
/// far — committed data, in-doubt branches, the memo, the floors and both
/// replication positions — taken from live state, so that a host can
/// replace the log with one [`StableRecord::Checkpoint`]. Everything else
/// here is volatile. A floor raised since the last checkpoint is volatile
/// too: a recovered engine keeps the outcomes it drained, which only makes
/// it answer more from its memo.
#[derive(Debug, Default)]
pub struct Engine {
    data: BTreeMap<String, i64>,
    branches: BTreeMap<ResultId, Branch>,
    locks: LockTable,
    /// The decide memo: each branch's applied outcome, so a late or
    /// duplicated `Decide` (or a `Prepare` or `Exec` after one) is answered
    /// as the first was; and per client the floor below which every
    /// request is settled and nothing is kept.
    decided: AttemptWindows<Outcome>,
    /// Primary role: dense counter of locally decided commits (ship order).
    ship_seq: u64,
    /// Primary role: committed write sets awaiting broadcast by the host.
    outbox: Vec<ShippedCommit>,
    /// Follower role: highest contiguously applied ship position.
    repl_last_seq: u64,
    /// Follower role: out-of-order applies waiting for their predecessors.
    repl_pending: BTreeMap<u64, (ResultId, ShippedEntries)>,
    /// Primary role: stashed proposals, keyed by the proposed decision-log
    /// slot. Volatile by design — never recovered.
    spec: BTreeMap<u64, SpecSlot>,
}

impl Engine {
    /// Empty engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Engine pre-seeded with committed data (workload setup).
    pub fn with_data(data: impl IntoIterator<Item = (String, i64)>) -> Self {
        Engine { data: data.into_iter().collect(), ..Engine::default() }
    }

    /// Committed value of `key` (ignores uncommitted branch writes).
    pub fn committed(&self, key: &str) -> Option<i64> {
        self.data.get(key).copied()
    }

    /// All committed data (test assertions).
    pub fn snapshot(&self) -> &BTreeMap<String, i64> {
        &self.data
    }

    /// Memoized decision for a branch, if any (idempotence across
    /// retransmitted `Decide` messages).
    pub fn decision(&self, rid: ResultId) -> Option<Outcome> {
        self.decided.get(rid).copied()
    }

    /// Whether a `Decide` for `rid` would change nothing: its outcome is in
    /// the memo, or it is below its client's floor with no live branch.
    pub fn answered(&self, rid: ResultId) -> bool {
        let (floor, decided) = self.decided.get_with_floor(rid);
        decided.is_some() || (rid.request.seq < floor && !self.branches.contains_key(&rid))
    }

    /// Decided outcomes the memo holds (observability / bounded-state
    /// tests).
    pub fn memo_len(&self) -> usize {
        self.decided.len()
    }

    /// `client`'s floor: every request of it below this is settled.
    pub fn floor(&self, client: NodeId) -> u64 {
        self.decided.floor(client)
    }

    /// Raises `client`'s floor to `floor` (floors never fall) and drains
    /// the memo's outcomes below it: one prefix drain, visiting only what
    /// it removes. `floor` must be a watermark the client has sent: every
    /// request of the client below it has its result, so no database
    /// involved in one still waits for its decision.
    pub fn settle_below(&mut self, client: NodeId, floor: u64) {
        self.decided.below(client, floor, |_, _| false);
    }

    /// Whether `rid` is an in-doubt (prepared, undecided) branch.
    pub fn is_prepared(&self, rid: ResultId) -> bool {
        matches!(self.branches.get(&rid), Some(Branch::Prepared(_)))
    }

    /// The in-doubt branches and their sealed write sets, in branch order.
    fn prepared(&self) -> impl Iterator<Item = (ResultId, &ShippedEntries)> + '_ {
        self.branches.iter().filter_map(|(&rid, b)| match b {
            Branch::Prepared(writes) => Some((rid, writes)),
            _ => None,
        })
    }

    /// Every in-doubt (prepared, undecided) branch. Used by a recovering
    /// lease-granting primary to rebuild its renewal-withholding set: a
    /// WAL-recovered prepared branch is a live cross-shard transaction,
    /// and leases must not be renewed while one exists.
    pub fn prepared_rids(&self) -> Vec<ResultId> {
        self.prepared().map(|(rid, _)| rid).collect()
    }

    /// Number of keys currently locked (diagnostics).
    pub fn locked_keys(&self) -> usize {
        self.locks.locked_keys()
    }

    /// Snapshot read: executes a batch of pure [`DbOp::Get`] operations
    /// against **committed** state, opening no branch, taking no locks and
    /// writing nothing. This is the engine half of the read fast path:
    /// because the lock table is never consulted, a snapshot read can
    /// never conflict with — and therefore never doom — a concurrent
    /// writer, and a concurrent writer's uncommitted branch writes are
    /// never visible to it.
    ///
    /// Non-read operations are a caller bug (the router only sends
    /// all-`Get` scripts down this path); they are answered as absent
    /// values in release builds and panic in debug builds.
    pub fn read_only(&self, ops: &[DbOp]) -> Vec<OpOutput> {
        ops.iter()
            .map(|op| match op {
                DbOp::Get { key } => OpOutput::Value(self.committed(key)),
                other => {
                    debug_assert!(false, "non-read op {other:?} on the snapshot-read path");
                    OpOutput::Value(None)
                }
            })
            .collect()
    }

    /// Primary role: current commit-ship position (the dense counter of
    /// locally decided commits). Piggybacked on decide acknowledgements so
    /// application servers can stamp follower reads with the freshest
    /// position they have observed.
    pub fn ship_position(&self) -> u64 {
        self.ship_seq
    }

    /// Whether any **prepared** (in-doubt) branch holds a pending write to
    /// a key one of `ops` reads. This is the store half of multi-shard
    /// snapshot validation: a cross-shard transaction between its first
    /// and last per-shard commit is prepared exactly at the shards that
    /// have not applied it yet, so a snapshot that read those keys here
    /// while seeing the transaction's effect elsewhere would be fractured.
    /// Active and doomed branches are ignored — their writes cannot have
    /// committed anywhere yet.
    pub fn indoubt_read_conflict(&self, ops: &[DbOp]) -> bool {
        let writes = |w: &ShippedEntries, key: &str| {
            w.binary_search_by(|(k, _)| k.as_str().cmp(key)).is_ok()
        };
        self.prepared().any(|(_, w)| ops.iter().filter_map(DbOp::key).any(|k| writes(w, k)))
    }

    fn doom(&mut self, rid: ResultId) {
        self.locks.release_all(rid);
        self.branches.insert(rid, Branch::Doomed);
    }

    /// Applies committed values to the data, updating a present key in
    /// place: a key is cloned only the first time it is written.
    fn apply_committed(&mut self, writes: &[(String, i64)]) {
        for (k, v) in writes {
            match self.data.get_mut(k) {
                Some(slot) => *slot = *v,
                None => {
                    self.data.insert(k.clone(), *v);
                }
            }
        }
    }

    /// Executes a batch of business-logic operations inside branch `rid`
    /// (the transient manipulation behind the paper's `compute()`). Creates
    /// the branch on first use.
    ///
    /// A lock conflict dooms the branch (no-wait policy), releases its locks
    /// and returns [`ExecStatus::Conflict`]; the branch will vote no.
    ///
    /// A decided branch, or one below its client's floor, is refused the
    /// same way before anything is opened or locked: such an `Exec` is a
    /// duplicate or a very late message.
    pub fn execute(&mut self, rid: ResultId, ops: &[DbOp]) -> ExecStatus {
        let (floor, decided) = self.decided.get_with_floor(rid);
        if decided.is_some() || rid.request.seq < floor {
            return ExecStatus::Conflict;
        }
        let Engine { branches, locks, data, .. } = self;
        let Branch::Active(writes) = branches.entry(rid).or_insert(Branch::Active(BTreeMap::new()))
        else {
            return ExecStatus::Conflict; // doomed, or prepared
        };
        let mut outputs = Vec::with_capacity(ops.len());
        // What ends the batch early, once the branch is no longer borrowed:
        // a lock conflict or a `Doom` dooms the branch and returns this.
        let mut doomed = None;
        for op in ops {
            // Locking.
            if let Some(key) = op.key() {
                let mode = if op.is_write() { LockMode::Exclusive } else { LockMode::Shared };
                if locks.acquire(key, rid, mode) == LockGrant::Conflict {
                    doomed = Some(ExecStatus::Conflict);
                    break;
                }
            }
            // Semantics: the branch reads its own writes, then committed data.
            let effective = |key: &str| writes.get(key).or_else(|| data.get(key)).copied();
            let out = match op {
                DbOp::Get { key } => OpOutput::Value(effective(key)),
                DbOp::Put { key, value } => {
                    writes.insert(key.clone(), *value);
                    OpOutput::Updated(*value)
                }
                DbOp::Add { key, delta } => {
                    let new = effective(key).unwrap_or(0) + delta;
                    writes.insert(key.clone(), new);
                    OpOutput::Updated(new)
                }
                DbOp::Reserve { key, qty } => {
                    let have = effective(key).unwrap_or(0);
                    if have >= *qty {
                        let remaining = have - qty;
                        writes.insert(key.clone(), remaining);
                        OpOutput::Reserved { remaining }
                    } else {
                        OpOutput::SoldOut
                    }
                }
                DbOp::Doom => {
                    outputs.push(OpOutput::Doomed);
                    doomed = Some(ExecStatus::Done(std::mem::take(&mut outputs)));
                    break;
                }
            };
            outputs.push(out);
        }
        if let Some(status) = doomed {
            self.doom(rid);
            return status;
        }
        ExecStatus::Done(outputs)
    }

    /// XA prepare: returns the vote and the log write the host must apply,
    /// if any. A yes vote is accompanied by a **forced** `Prepared` record
    /// carrying the branch's redo set, sealed here once: the record, the
    /// branch and (on commit) the shipment share it.
    ///
    /// A branch this database does not hold votes no — the server crashed
    /// and lost it unprepared (the `Ready` path), or a late `Prepare` names
    /// an attempt below its client's floor whose outcome the memo has
    /// drained.
    pub fn vote(&mut self, rid: ResultId) -> (Vote, Option<LogWrite>) {
        if let Some(outcome) = self.decided.get(rid) {
            // Already decided (e.g. duplicated Prepare after a Decide): the
            // vote follows the decision.
            return match outcome {
                Outcome::Commit => (Vote::Yes, None),
                Outcome::Abort => (Vote::No, None),
            };
        }
        let Some(branch) = self.branches.get_mut(&rid) else {
            return (Vote::No, None);
        };
        match &mut *branch {
            Branch::Active(writes) => {
                let writes: ShippedEntries = std::mem::take(writes).into_iter().collect();
                *branch = Branch::Prepared(writes.clone());
                (
                    Vote::Yes,
                    Some(LogWrite { rec: StableRecord::Prepared { rid, writes }, force: true }),
                )
            }
            Branch::Prepared(_) => (Vote::Yes, None),
            Branch::Doomed => (Vote::No, None),
        }
    }

    /// XA decide, with the §2 contract. Returns the applied outcome and log
    /// writes (commit records are forced; abort is presumed and buffered).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if asked to commit a branch that never voted
    /// yes — the protocol's validity property V.2 makes that unreachable;
    /// release builds conservatively abort instead.
    pub fn decide(&mut self, rid: ResultId, outcome: Outcome) -> (Outcome, Vec<LogWrite>) {
        let (applied, write) = self.decide_one(rid, outcome);
        (applied, write.into_iter().collect())
    }

    /// [`Engine::decide`] proper: a branch yields at most one log record,
    /// and the record is what the decide did — none when it changed nothing.
    ///
    /// A branch this database does not hold is answered with `outcome` and
    /// changes nothing when it is settled (below its client's floor) or the
    /// outcome is a commit (see [`Engine`]); an abort for one above the
    /// floor is memoised and logged. The outcome of a branch it does hold
    /// is logged, and memoised above the floor.
    fn decide_one(&mut self, rid: ResultId, outcome: Outcome) -> (Outcome, Option<LogWrite>) {
        let (floor, prev) = self.decided.get_with_floor(rid);
        if let Some(&prev) = prev {
            return (prev, None); // idempotent re-delivery
        }
        let settled = rid.request.seq < floor;
        if !self.branches.contains_key(&rid) && (settled || outcome == Outcome::Commit) {
            return (outcome, None);
        }
        let applied = match (outcome, self.branches.remove(&rid)) {
            (Outcome::Commit, Some(Branch::Prepared(writes))) => {
                self.apply_committed(&writes);
                self.ship_seq += 1;
                self.outbox.push((self.ship_seq, rid, writes));
                Outcome::Commit
            }
            (Outcome::Commit, b) => {
                // A branch this server executed (or doomed) but never
                // successfully prepared can only be committed by a caller
                // violating V.2 — unreachable under the protocol.
                debug_assert!(
                    false,
                    "decide(commit) for unprepared branch {rid} ({b:?}) — V.2 violated by caller"
                );
                Outcome::Abort
            }
            (Outcome::Abort, _) => Outcome::Abort,
        };
        self.locks.release_all(rid);
        if !settled {
            self.decided.insert(rid, applied);
        }
        let force = applied == Outcome::Commit;
        (applied, Some(LogWrite { rec: StableRecord::DbOutcome { rid, outcome: applied }, force }))
    }

    /// XA decide for a whole batch (one decided decision-log slot's worth
    /// of outcomes): applies every entry with the exact per-branch
    /// semantics of [`Engine::decide`], then frames all resulting records
    /// into **one** group WAL append — the group-commit move that pays a
    /// single log force for N outcomes. Returns the per-branch applied
    /// outcomes (for the batched acknowledgement) and at most one
    /// [`LogWrite`] ([`LogWrite::frame`]). Its `DbOutcome` records name
    /// exactly the entries the batch changed, each with its applied
    /// outcome: a host reads what to trace and charge off them.
    pub fn decide_batch(
        &mut self,
        entries: &[(ResultId, Outcome)],
    ) -> (Vec<(ResultId, Outcome)>, Vec<LogWrite>) {
        let mut acks = Vec::with_capacity(entries.len());
        let mut writes = Vec::with_capacity(entries.len());
        for &(rid, outcome) in entries {
            let (applied, write) = self.decide_one(rid, outcome);
            acks.push((rid, applied));
            writes.extend(write);
        }
        LogWrite::frame(&mut writes);
        (acks, writes)
    }

    // ---- speculation: reserving a proposed slot ----------------------------

    /// Stashes a *proposed* (not yet decided) batch under its slot, with
    /// the device time `cost` the host pre-paid for it, touching nothing
    /// else. Each stash stands alone: prepared branches hold disjoint
    /// exclusive locks, so no slot's batch can depend on another's. The
    /// first proposal stashed for a slot wins (a second is refused), and
    /// at `cap` stashes the oldest slot makes room — it is the next to
    /// decide, and will decide the ordinary way.
    ///
    /// Returns the new stash, for the host to set when its pre-paid work
    /// completes ([`SpecSlot::ready`]), or `None` if it was refused.
    /// Refusals are harmless: the slot simply decides the ordinary
    /// decide-then-execute way.
    pub fn speculate(
        &mut self,
        slot: u64,
        entries: &[(ResultId, Outcome)],
        cost: Dur,
        cap: usize,
    ) -> Option<&mut SpecSlot> {
        if self.spec.contains_key(&slot) {
            return None;
        }
        while self.spec.len() >= cap.max(1) {
            self.spec.pop_first();
        }
        let stash = SpecSlot { entries: entries.to_vec(), cost, ready: Time::ZERO };
        Some(self.spec.entry(slot).or_insert(stash))
    }

    /// Resolves the stash for slot `slot` against its **decided** batch.
    /// On an exact match (same branches, same outcomes, same order) this
    /// runs [`Engine::decide_batch`] — the applied state, WAL framing, ship
    /// sequence and acknowledgements *are* those of the non-speculative
    /// path — and returns them with what was pre-paid. A mismatch (another
    /// proposer won the slot, or first-occurrence filtering changed the
    /// batch) is a [`Promotion::Miss`], no stash a [`Promotion::Absent`]:
    /// either way the batch decides on the ordinary path.
    ///
    /// The stash for `slot` and every one below it is dropped either way:
    /// slots apply in order, so those proposals can never decide again.
    /// Stashes above `slot` are untouched.
    pub fn promote_speculation(&mut self, slot: u64, decided: &[(ResultId, Outcome)]) -> Promotion {
        let stash = self.spec.remove(&slot);
        self.spec.retain(|&s, _| s > slot);
        match stash {
            Some(SpecSlot { entries, cost, ready }) if entries == decided => {
                let (acks, writes) = self.decide_batch(decided);
                Promotion::Hit(SpecPromotion { acks, writes, cost, ready })
            }
            Some(_) => Promotion::Miss,
            None => Promotion::Absent,
        }
    }

    /// The stash for a proposed slot, if any.
    pub fn speculation(&self, slot: u64) -> Option<&SpecSlot> {
        self.spec.get(&slot)
    }

    /// Number of proposals currently stashed.
    pub fn spec_slots(&self) -> usize {
        self.spec.len()
    }

    /// One-phase commit for the unreliable baseline (Figure 7a): commit an
    /// *active* branch directly, no vote, no forced protocol log (the
    /// database's own commit cost is modelled by the host). The redo set is
    /// logged, unforced, ahead of the commit record, so that recovery
    /// restores the commit like any other.
    pub fn commit_one_phase(&mut self, rid: ResultId) -> (bool, Vec<LogWrite>) {
        if self.decided.get(rid) == Some(&Outcome::Commit) {
            return (true, Vec::new());
        }
        let Some(Branch::Active(writes)) = self.branches.get_mut(&rid) else {
            return (false, Vec::new());
        };
        let writes: ShippedEntries = std::mem::take(writes).into_iter().collect();
        self.branches.remove(&rid);
        self.apply_committed(&writes);
        self.locks.release_all(rid);
        self.ship_seq += 1;
        self.outbox.push((self.ship_seq, rid, writes.clone()));
        self.decided.insert(rid, Outcome::Commit);
        let commit = StableRecord::DbOutcome { rid, outcome: Outcome::Commit };
        (
            true,
            vec![
                LogWrite { rec: StableRecord::Prepared { rid, writes }, force: false },
                LogWrite { rec: commit, force: true },
            ],
        )
    }

    // ---- intra-shard asynchronous replication -------------------------------

    /// Primary role: drains the committed write sets queued since the last
    /// drain, in ship order. The host ships them as one `ReplMsg::Apply` to
    /// each of the shard's followers (a host without followers just drops
    /// them).
    pub fn take_repl_outbox(&mut self) -> Vec<ShippedCommit> {
        std::mem::take(&mut self.outbox)
    }

    /// Primary role: the current committed state and ship position, for
    /// answering a follower's `SyncReq`.
    pub fn repl_snapshot(&self) -> (u64, Vec<(String, i64)>) {
        (self.ship_seq, self.data.iter().map(|(k, &v)| (k.clone(), v)).collect())
    }

    /// Follower role: highest contiguously applied ship position
    /// (diagnostics and tests).
    pub fn repl_position(&self) -> u64 {
        self.repl_last_seq
    }

    /// Follower role: processes a shipment (the primary's commits of one
    /// engine interaction, in ship order). Each item is applied (with any
    /// buffered successors it unblocks) if it is next in sequence, buffered
    /// if it is ahead of a gap, and dropped if it duplicates something
    /// already applied. The records of whatever landed are framed into one
    /// append, as [`Engine::decide_batch`] frames a decided batch's;
    /// `need_sync` reports whether a gap remained after the last item, for
    /// the host to request a snapshot.
    pub fn apply_replicated_batch(&mut self, items: Vec<ShippedCommit>) -> ReplApply {
        let mut writes = Vec::new();
        let mut need_sync = false;
        for item in items {
            need_sync = self.apply_one(item, &mut writes);
        }
        LogWrite::frame(&mut writes);
        ReplApply { writes, need_sync }
    }

    /// One item of [`Engine::apply_replicated_batch`]: appends the records
    /// of whatever landed to `out` and returns whether a gap remains.
    fn apply_one(&mut self, (seq, rid, entries): ShippedCommit, out: &mut Vec<LogWrite>) -> bool {
        if seq <= self.repl_last_seq {
            return false;
        }
        self.repl_pending.insert(seq, (rid, entries));
        self.drain_repl_pending(out);
        // Anything still pending is beyond a gap: commits this follower
        // missed (it was down when they shipped). Ask for a snapshot.
        !self.repl_pending.is_empty()
    }

    /// Follower role: adopts a full snapshot from the primary (recovery
    /// catch-up). A stale snapshot (at or below the current position) is
    /// ignored; a fresh one replaces the committed state wholesale and
    /// fast-forwards the position, after which buffered applies beyond it
    /// drain in order.
    pub fn adopt_repl_snapshot(&mut self, seq: u64, entries: Vec<(String, i64)>) -> Vec<LogWrite> {
        if seq <= self.repl_last_seq {
            return Vec::new();
        }
        self.data = entries.iter().cloned().collect();
        self.repl_last_seq = seq;
        self.repl_pending.retain(|&s, _| s > seq);
        let rid = ResultId::repl_snapshot();
        let mut writes = vec![LogWrite {
            rec: StableRecord::Replicated { seq, rid, writes: entries.into() },
            force: false,
        }];
        self.drain_repl_pending(&mut writes);
        writes
    }

    fn drain_repl_pending(&mut self, out: &mut Vec<LogWrite>) {
        while let Some((rid, writes)) = self.repl_pending.remove(&(self.repl_last_seq + 1)) {
            self.apply_committed(&writes);
            self.repl_last_seq += 1;
            // A record is immutable, so sharing the shipment's entries is
            // as good as owning a copy (a file-backed log serializes them
            // at append anyway): the write set the primary sealed at its
            // vote is the one this record holds.
            out.push(LogWrite {
                rec: StableRecord::Replicated { seq: self.repl_last_seq, rid, writes },
                force: false,
            });
        }
    }

    /// What recovery would rebuild from the log written so far, from live
    /// state: committed data, the in-doubt branches with their write sets,
    /// the decide memo, the clients' floors and both replication
    /// positions. A host may replace its log with this image as one
    /// [`StableRecord::Checkpoint`].
    pub fn image(&self) -> Image {
        Image {
            data: self.data.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            prepared: self.prepared().map(|(rid, w)| (rid, w.clone())).collect(),
            decided: self.decided.iter().map(|(rid, &o)| (rid, o)).collect(),
            floors: self.decided.floors().collect(),
            ship_seq: self.ship_seq,
            repl_last_seq: self.repl_last_seq,
        }
    }

    /// Rebuilds an engine from the write-ahead log after a crash:
    /// committed branches are replayed (redo), prepared-but-undecided
    /// branches are restored **with their exclusive locks re-acquired**
    /// (in-doubt), everything else is gone (presumed abort).
    pub fn recover(log: &[StableRecord]) -> Engine {
        Self::recover_with_seed(Vec::<(String, i64)>::new(), log)
    }

    /// [`Engine::recover`] starting from pre-crash seed data (the workload's
    /// initial table contents, which a real database would have on disk
    /// already); replayed log values overwrite seeds. A log holding a
    /// [`StableRecord::Checkpoint`] restarts from the last one, whose image
    /// replaces the seed, and replays only the tail after it; the image's
    /// floors hold again once the tail is in.
    pub fn recover_with_seed(
        seed: impl IntoIterator<Item = (String, i64)>,
        log: &[StableRecord],
    ) -> Engine {
        let last = log.iter().rposition(|r| matches!(r, StableRecord::Checkpoint(_)));
        let floors = match last.map(|at| &log[at]) {
            Some(StableRecord::Checkpoint(image)) => &image.floors[..],
            _ => &[],
        };
        let (mut e, mut prepared, tail) = match last.map(|at| (&log[at], &log[at + 1..])) {
            Some((StableRecord::Checkpoint(image), tail)) => {
                let mut e = Engine {
                    data: image.data.iter().cloned().collect(),
                    ship_seq: image.ship_seq,
                    repl_last_seq: image.repl_last_seq,
                    ..Engine::default()
                };
                for &(rid, outcome) in &image.decided {
                    e.decided.insert(rid, outcome);
                }
                (e, image.prepared.iter().cloned().collect(), tail)
            }
            _ => (Engine::with_data(seed), BTreeMap::new(), log),
        };
        // Group frames (batched commit / batched replication appends)
        // unfold to their members in order: framing is a durability
        // optimisation, invisible to replay semantics.
        for rec in tail.iter().flat_map(|r| r.leaves()) {
            match rec {
                StableRecord::Prepared { rid, writes } => {
                    prepared.insert(*rid, writes.clone());
                }
                StableRecord::DbOutcome { rid, outcome } => {
                    if let Some(writes) = prepared.remove(rid) {
                        if *outcome == Outcome::Commit {
                            e.apply_committed(&writes);
                        }
                    }
                    if *outcome == Outcome::Commit {
                        // Restore the primary-role ship counter: every
                        // logged commit outcome was (or will be, see the
                        // host's outbox drain) shipped exactly once, so the
                        // counter is the count of commit records.
                        e.ship_seq += 1;
                    }
                    e.decided.insert(*rid, *outcome);
                }
                StableRecord::Replicated { seq, rid: _, writes } => {
                    // Follower-role replay: records were appended in apply
                    // order, so the last one fixes the replication cursor.
                    e.apply_committed(writes);
                    e.repl_last_seq = *seq;
                }
                // Coordinator records belong to the 2PC baseline's log and
                // are ignored by database recovery. Groups never appear as
                // leaves (flattened above), and the tail holds no
                // checkpoint (it starts after the last one).
                StableRecord::CoordStart { .. }
                | StableRecord::CoordOutcome { .. }
                | StableRecord::Group { .. }
                | StableRecord::Checkpoint(_) => {}
            }
        }
        // The tail's outcomes below a floor are settled: the live engine
        // kept none of them.
        for &(client, floor) in floors {
            e.settle_below(client, floor);
        }
        // Whatever is still prepared is in-doubt: restore branch + locks.
        for (rid, writes) in prepared {
            for (k, _) in writes.iter() {
                let g = e.locks.acquire(k, rid, LockMode::Exclusive);
                debug_assert_eq!(g, LockGrant::Granted, "in-doubt locks cannot conflict");
            }
            e.branches.insert(rid, Branch::Prepared(writes));
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::ids::{NodeId, RequestId};
    use std::collections::BTreeSet;

    fn rid(n: u64) -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq: n })
    }

    fn put(key: &str, value: i64) -> DbOp {
        DbOp::Put { key: key.into(), value }
    }

    /// Ships commit `seq` (of branch `rid(seq)`) to follower `f` alone: a
    /// shipment of one item.
    fn ship(f: &mut Engine, seq: u64, entries: &[(&str, i64)]) -> ReplApply {
        let entries = entries.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        f.apply_replicated_batch(vec![(seq, rid(seq), entries)])
    }

    /// The leaf records `writes` append.
    fn leaves(writes: &[LogWrite]) -> usize {
        writes.iter().map(|w| w.rec.leaves().len()).sum()
    }

    #[test]
    fn execute_prepare_commit_roundtrip() {
        let mut e = Engine::new();
        let r = rid(1);
        let st = e.execute(r, &[put("acct", 100), DbOp::Add { key: "acct".into(), delta: -30 }]);
        assert_eq!(st, ExecStatus::Done(vec![OpOutput::Updated(100), OpOutput::Updated(70)]));
        // Nothing committed yet.
        assert_eq!(e.committed("acct"), None);
        let (v, log) = e.vote(r);
        assert_eq!(v, Vote::Yes);
        assert!(log.expect("a prepare record").force, "prepare record must be forced");
        let (o, logs2) = e.decide(r, Outcome::Commit);
        assert_eq!(o, Outcome::Commit);
        assert!(logs2[0].force, "commit record must be forced");
        assert_eq!(e.committed("acct"), Some(70));
        assert_eq!(e.locked_keys(), 0, "commit releases locks");
    }

    #[test]
    fn abort_discards_everything() {
        let mut e = Engine::with_data([("k".to_string(), 5)]);
        let r = rid(1);
        e.execute(r, &[put("k", 99)]);
        let (v, _) = e.vote(r);
        assert_eq!(v, Vote::Yes);
        let (o, logs) = e.decide(r, Outcome::Abort);
        assert_eq!(o, Outcome::Abort);
        assert!(!logs[0].force, "abort records are presumed (lazy)");
        assert_eq!(e.committed("k"), Some(5));
        assert_eq!(e.locked_keys(), 0);
    }

    #[test]
    fn decide_is_idempotent() {
        let mut e = Engine::new();
        let r = rid(1);
        e.execute(r, &[put("k", 1)]);
        e.vote(r);
        let (o1, l1) = e.decide(r, Outcome::Commit);
        let (o2, l2) = e.decide(r, Outcome::Commit);
        assert_eq!(o1, Outcome::Commit);
        assert_eq!(o2, Outcome::Commit);
        assert_eq!(l1.len(), 1);
        assert!(l2.is_empty(), "re-delivery writes nothing");
        // decide(abort) after commit returns the memoized commit — the
        // paper's A.3 makes conflicting inputs unreachable, but the engine
        // still answers deterministically.
        let (o3, _) = e.decide(r, Outcome::Abort);
        assert_eq!(o3, Outcome::Commit);
    }

    #[test]
    fn vote_unknown_branch_is_no() {
        let mut e = Engine::new();
        let (v, log) = e.vote(rid(9));
        assert_eq!(v, Vote::No);
        assert!(log.is_none());
    }

    #[test]
    fn vote_is_idempotent_single_force() {
        let mut e = Engine::new();
        let r = rid(1);
        e.execute(r, &[put("k", 1)]);
        let (v1, l1) = e.vote(r);
        let (v2, l2) = e.vote(r);
        assert_eq!((v1, v2), (Vote::Yes, Vote::Yes));
        assert!(l1.is_some());
        assert!(l2.is_none(), "second prepare forces nothing new");
    }

    #[test]
    fn doomed_branch_votes_no_and_releases_locks() {
        let mut e = Engine::new();
        let r = rid(1);
        let st = e.execute(r, &[put("k", 1), DbOp::Doom]);
        assert!(matches!(st, ExecStatus::Done(ref o) if o.last() == Some(&OpOutput::Doomed)));
        assert_eq!(e.locked_keys(), 0, "doom releases locks immediately");
        assert_eq!(e.vote(r).0, Vote::No);
        // Another branch can take the key at once.
        assert!(matches!(e.execute(rid(2), &[put("k", 7)]), ExecStatus::Done(_)));
    }

    #[test]
    fn lock_conflict_dooms_requester_not_holder() {
        let mut e = Engine::new();
        let (r1, r2) = (rid(1), rid(2));
        assert!(matches!(e.execute(r1, &[put("k", 1)]), ExecStatus::Done(_)));
        assert_eq!(e.execute(r2, &[put("k", 2)]), ExecStatus::Conflict);
        assert_eq!(e.vote(r2).0, Vote::No);
        assert_eq!(e.vote(r1).0, Vote::Yes, "holder unaffected");
    }

    #[test]
    fn reserve_semantics() {
        let mut e = Engine::with_data([("seats".to_string(), 2)]);
        let r = rid(1);
        let st = e.execute(
            r,
            &[
                DbOp::Reserve { key: "seats".into(), qty: 1 },
                DbOp::Reserve { key: "seats".into(), qty: 1 },
                DbOp::Reserve { key: "seats".into(), qty: 1 },
            ],
        );
        assert_eq!(
            st,
            ExecStatus::Done(vec![
                OpOutput::Reserved { remaining: 1 },
                OpOutput::Reserved { remaining: 0 },
                OpOutput::SoldOut,
            ])
        );
        e.vote(r);
        e.decide(r, Outcome::Commit);
        assert_eq!(e.committed("seats"), Some(0));
    }

    #[test]
    fn sold_out_is_still_committable() {
        // The paper's user-level abort: an informative result that commits.
        let mut e = Engine::with_data([("seats".to_string(), 0)]);
        let r = rid(1);
        let st = e.execute(r, &[DbOp::Reserve { key: "seats".into(), qty: 1 }]);
        assert_eq!(st, ExecStatus::Done(vec![OpOutput::SoldOut]));
        assert_eq!(e.vote(r).0, Vote::Yes);
        assert_eq!(e.decide(r, Outcome::Commit).0, Outcome::Commit);
        assert_eq!(e.committed("seats"), Some(0));
    }

    #[test]
    fn recovery_replays_committed_and_restores_indoubt() {
        let mut e = Engine::new();
        let mut wal: Vec<StableRecord> = Vec::new();
        // r1 commits fully.
        let r1 = rid(1);
        e.execute(r1, &[put("a", 10)]);
        let (_, l) = e.vote(r1);
        wal.extend(l.into_iter().map(|w| w.rec));
        let (_, l) = e.decide(r1, Outcome::Commit);
        wal.extend(l.into_iter().map(|w| w.rec));
        // r2 prepares, then the server "crashes" before any decide.
        let r2 = rid(2);
        e.execute(r2, &[put("b", 20)]);
        let (_, l) = e.vote(r2);
        wal.extend(l.into_iter().map(|w| w.rec));
        // r3 was active, never prepared — its writes must vanish.
        let r3 = rid(3);
        e.execute(r3, &[put("c", 30)]);

        let mut recovered = Engine::recover(&wal);
        assert_eq!(recovered.committed("a"), Some(10), "committed data survives");
        assert_eq!(recovered.committed("b"), None, "in-doubt not visible");
        assert_eq!(recovered.committed("c"), None, "unprepared work is gone");
        assert!(recovered.is_prepared(r2), "in-doubt branch restored");
        // In-doubt branch still holds its lock: a new writer conflicts.
        assert_eq!(recovered.execute(rid(4), &[put("b", 99)]), ExecStatus::Conflict);
        // vote() after recovery: r2 yes (prepared), r3 no (lost).
        assert_eq!(recovered.vote(r2).0, Vote::Yes);
        assert_eq!(recovered.vote(r3).0, Vote::No);
        // Late decide(commit) lands correctly.
        let (o, _) = recovered.decide(r2, Outcome::Commit);
        assert_eq!(o, Outcome::Commit);
        assert_eq!(recovered.committed("b"), Some(20));
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut e = Engine::new();
        let mut wal: Vec<StableRecord> = Vec::new();
        let r = rid(1);
        e.execute(r, &[put("x", 1)]);
        let (_, l) = e.vote(r);
        wal.extend(l.into_iter().map(|w| w.rec));
        let (_, l) = e.decide(r, Outcome::Commit);
        wal.extend(l.into_iter().map(|w| w.rec));
        let once = Engine::recover(&wal);
        let twice = Engine::recover(&wal);
        assert_eq!(once.snapshot(), twice.snapshot());
        assert_eq!(once.decision(r), twice.decision(r));
    }

    #[test]
    fn decided_memo_survives_recovery() {
        // A Decide retransmitted after a crash must be answered from the
        // log, not re-applied.
        let mut e = Engine::new();
        let mut wal: Vec<StableRecord> = Vec::new();
        let r = rid(1);
        e.execute(r, &[put("x", 5)]);
        wal.extend(e.vote(r).1.map(|w| w.rec));
        for w in e.decide(r, Outcome::Commit).1 {
            wal.push(w.rec);
        }
        let mut rec = Engine::recover(&wal);
        let (o, logs) = rec.decide(r, Outcome::Commit);
        assert_eq!(o, Outcome::Commit);
        assert!(logs.is_empty());
        assert_eq!(rec.committed("x"), Some(5));
    }

    #[test]
    fn indoubt_read_conflict_tracks_the_prepared_window() {
        let mut e = Engine::with_data([("k".to_string(), 1), ("other".to_string(), 2)]);
        let r = rid(1);
        let read = [DbOp::Get { key: "k".into() }];
        let miss = [DbOp::Get { key: "other".into() }];
        // Active branch: writes cannot have committed anywhere — no flag.
        e.execute(r, &[put("k", 9)]);
        assert!(!e.indoubt_read_conflict(&read));
        // Prepared (in-doubt): the half-applied window — flag on the
        // written key only.
        e.vote(r);
        assert!(e.indoubt_read_conflict(&read));
        assert!(!e.indoubt_read_conflict(&miss));
        // Decided: window closed.
        e.decide(r, Outcome::Commit);
        assert!(!e.indoubt_read_conflict(&read));
    }

    #[test]
    fn one_phase_commit_baseline() {
        let mut e = Engine::new();
        let r = rid(1);
        e.execute(r, &[put("k", 3)]);
        let (ok, logs) = e.commit_one_phase(r);
        assert!(ok);
        assert_eq!(logs.len(), 2, "the redo set, then the commit");
        assert_eq!(e.committed("k"), Some(3));
        let wal: Vec<StableRecord> = logs.into_iter().map(|w| w.rec).collect();
        assert_eq!(Engine::recover(&wal).image(), e.image(), "recovery restores the commit");
        // Idempotent.
        let (ok2, logs2) = e.commit_one_phase(r);
        assert!(ok2);
        assert!(logs2.is_empty());
        // Unknown branch fails.
        assert!(!e.commit_one_phase(rid(9)).0);
    }

    #[test]
    fn exec_after_prepare_is_rejected() {
        let mut e = Engine::new();
        let r = rid(1);
        e.execute(r, &[put("k", 1)]);
        e.vote(r);
        assert_eq!(e.execute(r, &[put("k", 2)]), ExecStatus::Conflict);
    }

    #[test]
    fn commits_enter_the_replication_outbox_in_ship_order() {
        let mut e = Engine::new();
        for i in 1..=3u64 {
            let r = rid(i);
            e.execute(r, &[put(&format!("k{i}"), i as i64)]);
            e.vote(r);
            e.decide(r, if i == 2 { Outcome::Abort } else { Outcome::Commit });
        }
        let box1 = e.take_repl_outbox();
        assert_eq!(box1.len(), 2, "aborts do not ship");
        assert_eq!(box1[0].0, 1);
        assert_eq!(box1[1].0, 2);
        assert_eq!(box1[0].2.to_vec(), vec![("k1".to_string(), 1)]);
        assert!(e.take_repl_outbox().is_empty(), "drain empties the outbox");
    }

    #[test]
    fn follower_applies_in_sequence_and_buffers_gaps() {
        let mut f = Engine::new();
        // seq 2 arrives first: buffered, gap detected.
        let r2 = ship(&mut f, 2, &[("b", 2)]);
        assert!(r2.writes.is_empty());
        assert!(r2.need_sync);
        assert_eq!(f.committed("b"), None);
        // seq 1 arrives: both drain, in order, behind one framed append.
        let r1 = ship(&mut f, 1, &[("a", 1)]);
        assert!(
            matches!(r1.writes[..], [LogWrite { rec: StableRecord::Group { .. }, force: false }]),
            "{:?}",
            r1.writes
        );
        assert_eq!(leaves(&r1.writes), 2);
        assert!(!r1.need_sync);
        assert_eq!(f.committed("a"), Some(1));
        assert_eq!(f.committed("b"), Some(2));
        assert_eq!(f.repl_position(), 2);
        // Duplicates are dropped.
        let dup = ship(&mut f, 1, &[("a", 99)]);
        assert!(dup.writes.is_empty() && !dup.need_sync);
        assert_eq!(f.committed("a"), Some(1));
    }

    #[test]
    fn snapshot_adoption_fast_forwards_and_ignores_stale() {
        let mut f = Engine::with_data([("seed".to_string(), 7)]);
        ship(&mut f, 1, &[("a", 1)]);
        // Buffered apply beyond the snapshot drains after adoption.
        let pending = ship(&mut f, 5, &[("e", 5)]);
        assert!(pending.need_sync);
        let writes =
            f.adopt_repl_snapshot(4, vec![("seed".into(), 7), ("a".into(), 1), ("d".into(), 4)]);
        assert_eq!(writes.len(), 2, "snapshot record plus the drained apply");
        assert_eq!(f.repl_position(), 5);
        assert_eq!(f.committed("d"), Some(4));
        assert_eq!(f.committed("e"), Some(5));
        // Stale snapshot is a no-op.
        assert!(f.adopt_repl_snapshot(3, vec![("x".into(), 9)]).is_empty());
        assert_eq!(f.committed("x"), None);
    }

    #[test]
    fn recovery_restores_both_replication_roles() {
        // Primary side: ship counter equals logged commit outcomes.
        let mut p = Engine::new();
        let mut wal = Vec::new();
        for i in 1..=2u64 {
            let r = rid(i);
            p.execute(r, &[put("k", i as i64)]);
            wal.extend(p.vote(r).1.map(|w| w.rec));
            for w in p.decide(r, Outcome::Commit).1 {
                wal.push(w.rec);
            }
        }
        let p2 = Engine::recover(&wal);
        let (seq, snap) = p2.repl_snapshot();
        assert_eq!(seq, 2);
        assert_eq!(snap, vec![("k".to_string(), 2)]);

        // Follower side: replicated records restore data and the cursor.
        let mut f = Engine::new();
        let mut fwal = Vec::new();
        for w in ship(&mut f, 1, &[("a", 1)]).writes {
            fwal.push(w.rec);
        }
        for w in ship(&mut f, 2, &[("a", 3)]).writes {
            fwal.push(w.rec);
        }
        let f2 = Engine::recover(&fwal);
        assert_eq!(f2.committed("a"), Some(3));
        assert_eq!(f2.repl_position(), 2);
    }

    #[test]
    fn decide_batch_frames_one_group_record_and_matches_singleton_semantics() {
        let mut e = Engine::new();
        for i in 1..=3u64 {
            e.execute(rid(i), &[put(&format!("k{i}"), i as i64)]);
            e.vote(rid(i));
        }
        let entries =
            vec![(rid(1), Outcome::Commit), (rid(2), Outcome::Abort), (rid(3), Outcome::Commit)];
        let (acks, writes) = e.decide_batch(&entries);
        assert_eq!(acks, entries, "every branch applies its own outcome");
        assert_eq!(writes.len(), 1, "one group append for the whole batch");
        assert!(writes[0].force, "a batch containing commits forces once");
        let leaves = writes[0].rec.leaves();
        assert_eq!(leaves.len(), 3, "frame carries all member outcome records");
        assert_eq!(e.committed("k1"), Some(1));
        assert_eq!(e.committed("k2"), None, "abort inside a batch still discards");
        assert_eq!(e.committed("k3"), Some(3));
        // Re-delivery of the whole batch writes nothing (memoized).
        let (acks2, writes2) = e.decide_batch(&entries);
        assert_eq!(acks2, entries);
        assert!(writes2.is_empty());
        // A batch of one stays a bare record — on-disk shape identical to
        // the unbatched protocol.
        let mut e2 = Engine::new();
        e2.execute(rid(9), &[put("x", 1)]);
        e2.vote(rid(9));
        let (_, w) = e2.decide_batch(&[(rid(9), Outcome::Commit)]);
        assert_eq!(w.len(), 1);
        assert!(matches!(w[0].rec, StableRecord::DbOutcome { .. }), "no frame around one record");
    }

    #[test]
    fn a_decided_batch_leaves_a_frame_at_its_length() {
        let mut e = Engine::new();
        let entries: Vec<_> = (1..=11u64)
            .map(|i| {
                e.execute(rid(i), &[put(&format!("f{i}"), 1)]);
                e.vote(rid(i));
                (rid(i), Outcome::Commit)
            })
            .collect();
        let (_, writes) = e.decide_batch(&entries);
        let [LogWrite { rec: StableRecord::Group { records }, force: true }] = writes.as_slice()
        else {
            panic!("one forced frame: {writes:?}");
        };
        assert_eq!((records.len(), records.capacity()), (11, 11), "no growth slack in the log");
        let unforced = |i| LogWrite { rec: StableRecord::CoordStart { rid: rid(i) }, force: false };
        let mut writes = vec![unforced(1), unforced(2)];
        LogWrite::frame(&mut writes);
        assert!(matches!(writes[..], [LogWrite { force: false, .. }]), "forced iff a member is");
    }

    #[test]
    fn recovery_unfolds_group_frames() {
        let mut e = Engine::new();
        let mut wal: Vec<StableRecord> = Vec::new();
        for i in 1..=2u64 {
            e.execute(rid(i), &[put(&format!("g{i}"), 10 + i as i64)]);
            wal.extend(e.vote(rid(i)).1.map(|w| w.rec));
        }
        let (_, writes) = e.decide_batch(&[(rid(1), Outcome::Commit), (rid(2), Outcome::Commit)]);
        for w in writes {
            wal.push(w.rec);
        }
        let rec = Engine::recover(&wal);
        assert_eq!(rec.committed("g1"), Some(11));
        assert_eq!(rec.committed("g2"), Some(12));
        assert_eq!(rec.decision(rid(1)), Some(Outcome::Commit));
        assert_eq!(rec.decision(rid(2)), Some(Outcome::Commit));
        let (seq, _) = rec.repl_snapshot();
        assert_eq!(seq, 2, "ship counter counts commits inside frames too");
    }

    #[test]
    fn batched_apply_equals_sequential_apply() {
        let mut a = Engine::new();
        let mut b = Engine::new();
        let items: Vec<ShippedCommit> = vec![
            (1u64, rid(1), vec![("x".to_string(), 1)].into()),
            (2u64, rid(2), vec![("y".to_string(), 2)].into()),
            (4u64, rid(4), vec![("z".to_string(), 4)].into()),
        ];
        for item in items.clone() {
            a.apply_replicated_batch(vec![item]);
        }
        let res = b.apply_replicated_batch(items);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.repl_position(), b.repl_position());
        assert!(res.need_sync, "the 3→4 gap surfaces from the batched path too");
        assert_eq!((res.writes.len(), leaves(&res.writes)), (1, 2), "what landed, in one frame");
    }

    #[test]
    fn snapshot_catchup_into_empty_batch_window_is_a_safe_noop() {
        // A follower recovers into a window where the primary committed
        // NOTHING since the follower's crash: the catch-up snapshot carries
        // the ship position the follower already holds. Adoption must be a
        // no-op that loses nothing and leaves the follower ready for the
        // next shipped batch.
        let mut f = Engine::new();
        ship(&mut f, 1, &[("a", 1)]);
        ship(&mut f, 2, &[("b", 2)]);
        let before = f.snapshot().clone();
        let writes = f.adopt_repl_snapshot(2, vec![("a".into(), 1), ("b".into(), 2)]);
        assert!(writes.is_empty(), "empty window: nothing to adopt, nothing to log");
        assert_eq!(f.snapshot(), &before);
        assert_eq!(f.repl_position(), 2);
        // The stream continues seamlessly after the no-op catch-up.
        let next = ship(&mut f, 3, &[("c", 3)]);
        assert_eq!(next.writes.len(), 1);
        assert!(!next.need_sync);
        assert_eq!(f.committed("c"), Some(3));
    }

    #[test]
    fn snapshot_straddling_a_partially_shipped_batch_converges() {
        // The primary group-commits a batch that ships as positions 3..=5.
        // The follower crashed after applying 3, then receives a catch-up
        // snapshot taken at position 4 — *inside* the shipped batch — while
        // the batch's tail (5) arrives around it out of order. The follower
        // must converge on exactly the primary's state: no lost entry from
        // the straddled batch, no double-apply.
        let mut f = Engine::new();
        ship(&mut f, 1, &[("k1", 1)]);
        ship(&mut f, 2, &[("k2", 2)]);
        ship(&mut f, 3, &[("k3", 3)]);
        // Tail of the batch arrives first (4 was lost while the follower
        // was down): buffered beyond the gap, sync requested.
        let tail = ship(&mut f, 5, &[("k5", 5)]);
        assert!(tail.writes.is_empty() && tail.need_sync);
        // Snapshot taken mid-batch, at position 4.
        let snap: Vec<(String, i64)> =
            vec![("k1".into(), 1), ("k2".into(), 2), ("k3".into(), 3), ("k4".into(), 4)];
        let writes = f.adopt_repl_snapshot(4, snap);
        assert_eq!(writes.len(), 2, "snapshot record plus the drained batch tail");
        assert_eq!(f.repl_position(), 5);
        for (k, v) in [("k1", 1), ("k2", 2), ("k3", 3), ("k4", 4), ("k5", 5)] {
            assert_eq!(f.committed(k), Some(v), "{k} must hold the primary's value");
        }
        // A late duplicate of the straddled batch's head is dropped.
        let dup = ship(&mut f, 4, &[("k4", 99)]);
        assert!(dup.writes.is_empty() && !dup.need_sync);
        assert_eq!(f.committed("k4"), Some(4), "no double-apply of the straddled entry");
    }

    #[test]
    fn speculation_buffers_without_touching_observable_state() {
        let mut e = Engine::with_data([("k".to_string(), 1)]);
        e.execute(rid(1), &[put("k", 5)]);
        e.vote(rid(1));
        let entries = vec![(rid(1), Outcome::Commit)];
        assert!(e.speculate(7, &entries, Dur::from_millis(1), 4).is_some());
        // Nothing a client, follower or the WAL could see has changed.
        assert_eq!(e.committed("k"), Some(1), "a stash must not write through");
        assert!(e.take_repl_outbox().is_empty(), "nothing ships speculatively");
        assert_eq!(e.decision(rid(1)), None, "no decision memoized");
        assert!(e.is_prepared(rid(1)), "branch stays in-doubt, locks held");
        assert_eq!(e.ship_position(), 0);
        let s = e.speculation(7).expect("stashed");
        assert_eq!(s.entries, entries);
        assert_eq!(s.cost, Dur::from_millis(1));
        assert_eq!(s.ready, Time::ZERO, "ready at once until the host says otherwise");
        // First proposal stashed for a slot wins; a second is refused.
        assert!(e.speculate(7, &entries, Dur::ZERO, 4).is_none());
    }

    #[test]
    fn promotion_on_match_equals_the_nonspeculative_run() {
        let build = || {
            let mut e = Engine::with_data([("a".to_string(), 0)]);
            for i in 1..=2u64 {
                e.execute(rid(i), &[put(&format!("a{i}"), i as i64)]);
                e.vote(rid(i));
            }
            e
        };
        let entries = vec![(rid(1), Outcome::Commit), (rid(2), Outcome::Abort)];
        // Speculating twin.
        let mut spec = build();
        let ready = Time::ZERO + Dur::from_millis(5);
        spec.speculate(0, &entries, Dur::from_millis(3), 4).expect("stashed").ready = ready;
        let Promotion::Hit(p) = spec.promote_speculation(0, &entries) else {
            panic!("an exact match promotes");
        };
        assert_eq!((p.cost, p.ready), (Dur::from_millis(3), ready), "what was pre-paid");
        // Plain twin.
        let mut plain = build();
        let (acks, writes) = plain.decide_batch(&entries);
        assert_eq!(p.acks, acks);
        assert_eq!(p.writes, writes, "identical WAL bytes, identical framing");
        assert_eq!(spec.snapshot(), plain.snapshot());
        assert_eq!(spec.take_repl_outbox(), plain.take_repl_outbox());
        assert_eq!(spec.ship_position(), plain.ship_position());
        assert_eq!(spec.spec_slots(), 0, "promotion consumes the stash");
    }

    #[test]
    fn mismatched_speculation_discards_and_replays_cleanly() {
        let build = || {
            let mut e = Engine::new();
            for i in 1..=2u64 {
                e.execute(rid(i), &[put(&format!("m{i}"), 10 + i as i64)]);
                e.vote(rid(i));
            }
            e
        };
        let speculated = vec![(rid(1), Outcome::Commit), (rid(2), Outcome::Commit)];
        // The slot decides in the *other* order (another proposer won).
        let decided = vec![(rid(2), Outcome::Commit), (rid(1), Outcome::Commit)];
        let mut spec = build();
        assert!(spec.speculate(0, &speculated, Dur::from_millis(2), 4).is_some());
        assert_eq!(spec.promote_speculation(0, &decided), Promotion::Miss, "order mismatch");
        assert_eq!(spec.spec_slots(), 0, "mismatch still consumes the stash");
        // Replay on the ordinary path lands exactly the plain run's state.
        let (acks, writes) = spec.decide_batch(&decided);
        let mut plain = build();
        let (packs, pwrites) = plain.decide_batch(&decided);
        assert_eq!(acks, packs);
        assert_eq!(writes, pwrites);
        assert_eq!(spec.snapshot(), plain.snapshot());
        assert_eq!(spec.take_repl_outbox(), plain.take_repl_outbox());
    }

    /// The slots among `0..8` that hold a stash.
    fn stashed(e: &Engine) -> Vec<u64> {
        (0..8).filter(|&s| e.speculation(s).is_some()).collect()
    }

    #[test]
    fn speculation_stash_is_capped_and_gcs_below_the_decided_slot() {
        let mut e = Engine::new();
        let entries = |i: u64| vec![(rid(i), Outcome::Abort)];
        // Cap 2: stashing a third slot drops the oldest and nothing else.
        for slot in 0..3 {
            assert!(e.speculate(slot, &entries(slot + 1), Dur::ZERO, 2).is_some());
        }
        assert_eq!(stashed(&e), [1, 2], "oldest makes room");
        // Resolving slot 2 promotes it and drops slot 1 below it (slots
        // apply in order: slot 1 can never decide again); a stash above
        // is untouched.
        assert!(e.speculate(3, &entries(4), Dur::ZERO, 3).is_some());
        assert!(matches!(e.promote_speculation(2, &entries(3)), Promotion::Hit(_)));
        assert_eq!(stashed(&e), [3], "slot 3's stash survives a match below");
        // Resolving a later slot with no stash still GCs stale ones.
        assert_eq!(e.promote_speculation(5, &entries(9)), Promotion::Absent);
        assert_eq!(e.spec_slots(), 0);
    }

    #[test]
    fn a_mismatch_drops_its_own_stash_and_the_slot_above_still_promotes() {
        let build = || {
            let mut e = Engine::new();
            for i in 1..=3u64 {
                e.execute(rid(i), &[put(&format!("k{i}"), i as i64)]);
                e.vote(rid(i));
            }
            e
        };
        let slot1 = vec![(rid(1), Outcome::Commit), (rid(2), Outcome::Commit)];
        let slot2 = vec![(rid(3), Outcome::Commit)];
        // Slot 1 decides without its second member (another proposer won).
        let decided1 = vec![(rid(1), Outcome::Commit)];
        let mut spec = build();
        assert!(spec.speculate(1, &slot1, Dur::from_millis(1), 4).is_some());
        assert!(spec.speculate(2, &slot2, Dur::from_millis(2), 4).is_some());
        assert_eq!(spec.promote_speculation(1, &decided1), Promotion::Miss);
        assert_eq!(stashed(&spec), [2], "each stash stands alone");
        spec.decide_batch(&decided1);
        let Promotion::Hit(p) = spec.promote_speculation(2, &slot2) else {
            panic!("slot 2 decided as proposed");
        };
        assert_eq!(p.cost, Dur::from_millis(2));
        // Same acks, WAL and state as the twin that never speculated.
        let mut plain = build();
        plain.decide_batch(&decided1);
        let (acks, writes) = plain.decide_batch(&slot2);
        assert_eq!((p.acks, p.writes), (acks, writes));
        assert_eq!(spec.snapshot(), plain.snapshot());
        assert_eq!(spec.take_repl_outbox(), plain.take_repl_outbox());
    }

    #[test]
    fn speculation_never_leaks_into_recovery() {
        // A primary crashes between SpecExec and the slot decision: its
        // WAL has no trace of the speculative execution, so recovery
        // rebuilds pre-batch state with the in-doubt branch intact.
        let mut e = Engine::new();
        let mut wal: Vec<StableRecord> = Vec::new();
        e.execute(rid(1), &[put("s", 9)]);
        wal.extend(e.vote(rid(1)).1.map(|w| w.rec));
        assert!(e.speculate(3, &[(rid(1), Outcome::Commit)], Dur::ZERO, 4).is_some());
        // Crash now: only the WAL survives.
        let r = Engine::recover(&wal);
        assert_eq!(r.committed("s"), None, "speculative write never became durable");
        assert!(r.is_prepared(rid(1)), "in-doubt branch restored, locks held");
        assert_eq!(r.spec_slots(), 0, "the stash is volatile");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "V.2 violated"))]
    fn decide_commit_unprepared_panics_in_debug() {
        let mut e = Engine::new();
        let r = rid(1);
        e.execute(r, &[put("k", 1)]);
        // No vote! decide(commit) violates V.2.
        let (o, _) = e.decide(r, Outcome::Commit);
        // Release builds: conservative abort.
        assert_eq!(o, Outcome::Abort);
    }

    // ---- the memo's floor ---------------------------------------------------

    /// An engine whose client 0 is floored at 5, beside the engine
    /// recovered from its checkpointed log: `rid(2)` committed and drained,
    /// `rid(3)` prepared on key `k3` (a live branch below the floor),
    /// `rid(6)` committed above the floor. The rules below the floor must
    /// hold on both.
    fn floored() -> [(Engine, Vec<StableRecord>); 2] {
        let mut e = Engine::new();
        for (n, commit) in [(2, true), (3, false), (6, true)] {
            e.execute(rid(n), &[put(&format!("k{n}"), n as i64)]);
            e.vote(rid(n));
            if commit {
                e.decide(rid(n), Outcome::Commit);
            }
        }
        e.take_repl_outbox();
        e.settle_below(NodeId(0), 5);
        assert_eq!((e.memo_len(), e.decision(rid(6))), (1, Some(Outcome::Commit)));
        let wal = vec![StableRecord::Checkpoint(Box::new(e.image()))];
        let recovered = Engine::recover(&wal);
        assert_eq!(recovered.image(), e.image(), "the floors survive the checkpoint");
        assert_eq!(recovered.floor(NodeId(0)), 5);
        [(e, wal.clone()), (recovered, wal)]
    }

    #[test]
    fn a_late_exec_below_the_floor_is_refused_opening_no_branch_and_taking_no_lock() {
        for (mut e, _) in floored() {
            for n in [1, 2] {
                assert_eq!(e.execute(rid(n), &[put("fresh", 1)]), ExecStatus::Conflict);
                assert_eq!(e.vote(rid(n)), (Vote::No, None), "no branch was opened");
            }
            assert_eq!(e.locked_keys(), 1, "only the in-doubt branch holds a lock");
            assert!(matches!(e.execute(rid(5), &[put("fresh", 1)]), ExecStatus::Done(_)));
        }
    }

    #[test]
    fn a_late_prepare_below_the_floor_with_no_live_branch_votes_no() {
        for (mut e, _) in floored() {
            // Committed and drained, and never seen here.
            assert_eq!(e.vote(rid(2)), (Vote::No, None));
            assert_eq!(e.vote(rid(1)), (Vote::No, None));
            // The live branch below the floor still votes as prepared.
            assert_eq!(e.vote(rid(3)), (Vote::Yes, None));
        }
    }

    #[test]
    fn a_late_decide_below_the_floor_with_no_live_branch_changes_nothing() {
        for (mut e, _) in floored() {
            let before = e.image();
            for n in [1, 2] {
                assert!(e.answered(rid(n)));
                for outcome in [Outcome::Commit, Outcome::Abort] {
                    assert_eq!(e.decide(rid(n), outcome), (outcome, Vec::new()));
                }
            }
            let (acks, writes) = e.decide_batch(&[(rid(1), Outcome::Commit)]);
            assert_eq!((acks, writes), (vec![(rid(1), Outcome::Commit)], Vec::new()));
            assert_eq!(e.image(), before, "no memo entry, no data, no ship position");
            assert!(e.take_repl_outbox().is_empty(), "no shipment");
        }
    }

    #[test]
    fn a_live_branch_below_the_floor_is_decided_like_any_other() {
        for (mut e, mut wal) in floored() {
            assert!(!e.answered(rid(3)));
            let (applied, writes) = e.decide(rid(3), Outcome::Commit);
            assert_eq!(applied, Outcome::Commit);
            assert!(matches!(writes[..], [LogWrite { force: true, .. }]), "{writes:?}");
            assert_eq!((e.committed("k3"), e.locked_keys(), e.ship_position()), (Some(3), 0, 3));
            assert_eq!(e.take_repl_outbox().len(), 1, "shipped");
            // Logged, not memoised: the floor settles it from here on.
            assert_eq!(e.decision(rid(3)), None);
            assert!(e.answered(rid(3)));
            assert_eq!(e.decide(rid(3), Outcome::Commit), (Outcome::Commit, Vec::new()));
            // The log rebuilds the same, and its tail's outcome stays out of
            // the recovered memo too.
            wal.extend(writes.into_iter().map(|w| w.rec));
            assert_eq!(Engine::recover(&wal).image(), e.image());
        }
    }

    /// Attempts above every floor that the engines of [`floored`] never
    /// held: `rid(7)` of the floored client, and one of a client never seen.
    fn never_held() -> [ResultId; 2] {
        [rid(7), ResultId::first(RequestId { client: NodeId(3), seq: 1 })]
    }

    #[test]
    fn a_commit_for_a_branch_never_held_changes_nothing() {
        for (mut e, _) in floored() {
            let before = e.image();
            for r in never_held() {
                assert!(!e.answered(r), "above the floor, and not in the memo");
                assert_eq!(e.decide(r, Outcome::Commit), (Outcome::Commit, Vec::new()));
                assert_eq!(e.decision(r), None, "no memo entry");
            }
            let (acks, writes) = e.decide_batch(&never_held().map(|r| (r, Outcome::Commit)));
            assert_eq!(acks, never_held().map(|r| (r, Outcome::Commit)));
            assert!(writes.is_empty(), "no record");
            assert_eq!(e.image(), before, "no memo entry, no data, no ship position");
            assert!(e.take_repl_outbox().is_empty(), "no shipment");
        }
    }

    #[test]
    fn an_abort_for_a_branch_never_held_is_memoised_logged_and_refuses_a_late_exec() {
        for (mut e, mut wal) in floored() {
            let (ship, memo) = (e.ship_position(), e.memo_len());
            for r in never_held() {
                let (applied, writes) = e.decide(r, Outcome::Abort);
                assert_eq!(applied, Outcome::Abort);
                let abort = StableRecord::DbOutcome { rid: r, outcome: Outcome::Abort };
                assert_eq!(writes, [LogWrite { rec: abort, force: false }], "logged, presumed");
                wal.extend(writes.into_iter().map(|w| w.rec));
            }
            assert_eq!((e.ship_position(), e.memo_len()), (ship, memo + 2));
            assert!(e.take_repl_outbox().is_empty(), "an abort ships nothing");
            // The abort overtook this database's own `Exec` and `Prepare`:
            // both are refused, here and after a recovery from the log.
            let mut recovered = Engine::recover(&wal);
            for e in [&mut e, &mut recovered] {
                for r in never_held() {
                    assert_eq!(e.decision(r), Some(Outcome::Abort), "memoised");
                    assert_eq!(e.execute(r, &[put("fresh", 1)]), ExecStatus::Conflict);
                    assert_eq!(e.vote(r), (Vote::No, None));
                }
                assert_eq!(e.locked_keys(), 1, "only the in-doubt branch holds a lock");
            }
        }
    }

    /// One step of [`the_decide_memo_answers_like_an_ordered_map`].
    #[derive(Debug, Clone)]
    enum MemoOp {
        /// `execute` a `Get` (`true`) or an `Add` on one of three keys.
        Execute(ResultId, usize, bool),
        Vote(ResultId),
        Decide(ResultId, Outcome),
        /// `settle_below` a client's floor (an `Exec`'s watermark).
        Settle(NodeId, u64),
        /// Replace the log with one checkpoint of the live image.
        Checkpoint,
    }

    const CLIENTS: [u32; 4] = [0, 1, 7, u32::MAX];

    fn memo_ops() -> impl proptest::strategy::Strategy<Value = Vec<MemoOp>> {
        use proptest::strategy::Strategy;
        // Dense and sparse clients, the reserved marker id among them;
        // sequence numbers drawn in any order, repeated, two attempts each;
        // floors raised anywhere in the same range, so late messages land
        // below them.
        let branch = (0usize..4, 0u64..6, 1u32..3).prop_map(|(c, seq, attempt)| ResultId {
            request: RequestId { client: NodeId(CLIENTS[c]), seq },
            attempt,
        });
        let op = (0u8..11, branch, 0usize..3).prop_map(|(op, rid, key)| match op {
            0 | 1 => MemoOp::Execute(rid, key, false),
            2 => MemoOp::Execute(rid, key, true),
            3 | 4 => MemoOp::Vote(rid),
            5 | 6 => MemoOp::Decide(rid, Outcome::Commit),
            7 => MemoOp::Decide(rid, Outcome::Abort),
            8 | 9 => MemoOp::Settle(rid.request.client, rid.request.seq + key as u64),
            _ => MemoOp::Checkpoint,
        });
        proptest::collection::vec(op, 1..100)
    }

    proptest::proptest! {
        /// The decide memo is a `BTreeMap<ResultId, Outcome>` drained below
        /// per-client floors: under random executes, votes, decides (commit
        /// and abort, first and duplicate), floor raises and checkpoints
        /// over several clients, `decision()` answers as the model after
        /// every step; an execute on a decided branch or below its floor is
        /// refused; a vote follows the memo, and below the floor with no
        /// live branch is no; a decide below the floor with no live branch,
        /// and a commit for a branch never held, writes and remembers
        /// nothing, and one with a live branch below the floor is logged
        /// and not remembered. The locked keys are, after every
        /// step, those of the live branches' granted operations: a release
        /// finds every lock its branch took, reads included. The engine
        /// recovered from the written log (checkpoints included) holds the
        /// last checkpoint's floors and, with the model's floors applied,
        /// answers as the model.
        #[test]
        fn the_decide_memo_answers_like_an_ordered_map(ops in memo_ops()) {
            let mut e = Engine::new();
            let mut wal: Vec<StableRecord> = Vec::new();
            let mut memo: BTreeMap<ResultId, Outcome> = BTreeMap::new();
            let mut floors: BTreeMap<NodeId, u64> = BTreeMap::new();
            // The floors the log's checkpoint holds.
            let mut logged: BTreeMap<NodeId, u64> = BTreeMap::new();
            let below = |floors: &BTreeMap<NodeId, u64>, rid: ResultId| {
                floors.get(&rid.request.client).is_some_and(|&f| rid.request.seq < f)
            };
            // Branches the engine holds: executed (doomed ones included),
            // not yet decided.
            let mut live: BTreeSet<ResultId> = BTreeSet::new();
            // Live branches that are not prepared: committing one would
            // violate V.2, so the test aborts them.
            let mut unprepared: BTreeSet<ResultId> = BTreeSet::new();
            let mut seen: BTreeSet<ResultId> = BTreeSet::new();
            // The keys each active or prepared branch was granted.
            let mut held: BTreeMap<ResultId, BTreeSet<String>> = BTreeMap::new();
            for op in ops {
                match op {
                    MemoOp::Execute(rid, key, read) => {
                        seen.insert(rid);
                        let prepared = e.is_prepared(rid);
                        let key = format!("k{key}");
                        let op = if read {
                            DbOp::Get { key: key.clone() }
                        } else {
                            DbOp::Add { key: key.clone(), delta: 1 }
                        };
                        let status = e.execute(rid, &[op]);
                        if memo.contains_key(&rid) || below(&floors, rid) {
                            proptest::prop_assert_eq!(status, ExecStatus::Conflict);
                        } else if !prepared {
                            live.insert(rid);
                            unprepared.insert(rid);
                            match status {
                                ExecStatus::Done(_) => {
                                    held.entry(rid).or_default().insert(key);
                                }
                                ExecStatus::Conflict => {
                                    held.remove(&rid); // doomed
                                }
                            }
                        }
                    }
                    MemoOp::Vote(rid) => {
                        seen.insert(rid);
                        let (vote, write) = e.vote(rid);
                        wal.extend(write.map(|w| w.rec));
                        match memo.get(&rid) {
                            Some(&o) => proptest::prop_assert_eq!(vote, if o == Outcome::Commit { Vote::Yes } else { Vote::No }),
                            None if !live.contains(&rid) => proptest::prop_assert_eq!(vote, Vote::No),
                            None if vote == Vote::Yes => {
                                unprepared.remove(&rid);
                            }
                            None => {}
                        }
                    }
                    MemoOp::Decide(rid, outcome) => {
                        seen.insert(rid);
                        let outcome = if unprepared.contains(&rid) { Outcome::Abort } else { outcome };
                        let (applied, writes) = e.decide(rid, outcome);
                        let settled = below(&floors, rid);
                        if let Some(&first) = memo.get(&rid) {
                            proptest::prop_assert_eq!(applied, first, "a duplicate answers as the first");
                            proptest::prop_assert!(writes.is_empty());
                        } else if (settled || outcome == Outcome::Commit) && !live.contains(&rid) {
                            proptest::prop_assert_eq!((applied, writes.is_empty()), (outcome, true), "settled, or never held: nothing changes");
                        } else {
                            proptest::prop_assert_eq!((applied, writes.len()), (outcome, 1));
                            if !settled {
                                memo.insert(rid, outcome);
                            }
                        }
                        wal.extend(writes.into_iter().map(|w| w.rec));
                        live.remove(&rid);
                        unprepared.remove(&rid);
                        held.remove(&rid);
                    }
                    MemoOp::Settle(client, floor) => {
                        e.settle_below(client, floor);
                        let f = floors.entry(client).or_insert(0);
                        *f = (*f).max(floor);
                        memo.retain(|rid, _| !below(&floors, *rid));
                    }
                    MemoOp::Checkpoint => {
                        wal = vec![StableRecord::Checkpoint(Box::new(e.image()))];
                        logged = floors.clone();
                    }
                }
                let locked: BTreeSet<&String> = held.values().flatten().collect();
                proptest::prop_assert_eq!(e.locked_keys(), locked.len());
                proptest::prop_assert_eq!(e.memo_len(), memo.len());
                for &rid in &seen {
                    proptest::prop_assert_eq!(e.decision(rid), memo.get(&rid).copied());
                }
                for &client in &CLIENTS {
                    let client = NodeId(client);
                    proptest::prop_assert_eq!(e.floor(client), floors.get(&client).copied().unwrap_or(0));
                }
            }
            let mut recovered = Engine::recover(&wal);
            for (&client, &floor) in &floors {
                let checkpointed = logged.get(&client).copied().unwrap_or(0);
                proptest::prop_assert_eq!(recovered.floor(client), checkpointed, "the checkpoint's floor");
                recovered.settle_below(client, floor);
            }
            proptest::prop_assert_eq!(recovered.image(), e.image());
            for &rid in &seen {
                proptest::prop_assert_eq!(recovered.decision(rid), memo.get(&rid).copied());
                if let Some(&o) = memo.get(&rid) {
                    let vote = if o == Outcome::Commit { Vote::Yes } else { Vote::No };
                    proptest::prop_assert_eq!(recovered.vote(rid), (vote, None));
                }
            }
        }
    }
}
