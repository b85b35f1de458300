//! Stable storage and its record formats.
//!
//! Two kinds of durable logs exist in the system:
//!
//! * the **database write-ahead log** ([`LOG_WAL`]) — every database server
//!   forces a `Prepared` record (with the branch's write set) before voting
//!   yes, and an `Outcome` record when it learns commit/abort. Recovery
//!   replays this log: committed effects are reapplied, prepared-but-
//!   undecided branches are restored *with their locks* (they are in-doubt
//!   and must wait for a `Decide`, paper §2 / T.2);
//! * the **2PC coordinator log** ([`LOG_COORD`]) — the presumed-nothing
//!   two-phase-commit baseline forces a `Start` record before sending
//!   prepares and an `Outcome` record once the outcome is known
//!   (Appendix 3). The e-Transaction protocol never writes this log — that
//!   is precisely the forced I/O it replaces with wo-register round trips.
//!
//! Both live in a node's [`StableStorage`], which each host keeps outside
//! the node's process so that a crash cannot touch it.
//!
//! A database's WAL is **one checkpoint plus a tail**. A
//! [`StableRecord::Checkpoint`] holds an [`Image`] of everything recovery
//! would rebuild from the records before it, and
//! [`StableStorage::checkpoint`] replaces the whole log with that one
//! record; recovery starts from the last checkpoint and replays the tail
//! after it. A database takes one once the records appended since the last
//! reach the size of its last image (and at least a fixed minimum), so the
//! log it keeps is bounded by its state rather than by its history, and
//! copying the image costs O(1) per appended record. That state is bounded
//! too: the decide memo an image carries holds only what its clients'
//! watermarks have not settled, and the image keeps those watermarks
//! ([`Image::floors`]).
//!
//! *The durability boundary.* Both hosts keep storage in memory and treat
//! an append as durable once it returns, so dropping the prefix at once is
//! safe. A file-backed log must make the checkpoint record durable (force
//! it) **before** it truncates the prefix: a crash between the two must
//! find either the old log or the checkpoint, never neither.

use crate::ids::{NodeId, ResultId};
use crate::value::{Outcome, ResultValue, ShippedEntries};
use std::collections::BTreeMap;

/// Name of the database write-ahead log within a node's stable storage.
pub const LOG_WAL: &str = "wal";
/// Name of the 2PC coordinator log within a node's stable storage.
pub const LOG_COORD: &str = "coord";

/// One durable record. A single enum covers both logs so
/// [`StableStorage`] stays untyped-but-safe.
///
/// A record is immutable once written, so the write sets it carries are
/// [`ShippedEntries`]: sealed once when the branch votes, then shared by
/// the `Prepared` record, the commit's shipment and the follower's
/// `Replicated` record. Sharing an immutable value is equivalent to owning
/// it, and a file-backed log would serialize the bytes at append anyway.
#[derive(Debug, Clone, PartialEq)]
pub enum StableRecord {
    /// Database: branch `rid` is prepared; `writes` is its redo set
    /// (key, new value), in key order. Forced before voting yes.
    Prepared {
        /// Transaction branch.
        rid: ResultId,
        /// Redo information: key → new value.
        writes: ShippedEntries,
    },
    /// Database: branch `rid` was decided. Forced on commit; lazy on abort
    /// (presumed abort).
    DbOutcome {
        /// Transaction branch.
        rid: ResultId,
        /// Commit or abort.
        outcome: Outcome,
    },
    /// Database (shard follower): committed values received from the shard
    /// primary via asynchronous replication — either one branch's write set
    /// (`Apply`) or a recovery snapshot (`SyncState`). Buffered, not forced:
    /// replication is off the commit path, and a lost suffix is re-fetched
    /// from the primary on recovery.
    Replicated {
        /// Position in the primary's ship order (dense, starting at 1);
        /// replay restores the follower's replication cursor.
        seq: u64,
        /// The branch whose commit this replicates; snapshot catch-ups use
        /// [`ResultId::repl_snapshot`] as a marker.
        rid: ResultId,
        /// Post-commit key values.
        writes: ShippedEntries,
    },
    /// Group append: one durable record framing the records of a whole
    /// decided batch (commit/abort outcomes of one `Decide`, or the
    /// applies one shipment landed at a follower). The frame is what makes
    /// group commit pay **one** log force for N outcomes; recovery unfolds
    /// it and replays the members in order, so a batch is indivisible on
    /// disk — it replays completely or (if the append never happened) not
    /// at all, never partially.
    Group {
        /// The framed records, in batch order.
        records: Vec<StableRecord>,
    },
    /// Database: the state every record before it rebuilds, which
    /// [`StableStorage::checkpoint`] wrote in place of those records.
    /// Recovery starts from the last one. Boxed: every record is as large
    /// as the largest variant.
    Checkpoint(Box<Image>),
    /// 2PC coordinator: processing of `rid` started (presumed-nothing start
    /// record, forced).
    CoordStart {
        /// Transaction the coordinator began.
        rid: ResultId,
    },
    /// 2PC coordinator: outcome determined (forced), with the computed
    /// result so a recovering coordinator can still answer the client.
    CoordOutcome {
        /// Transaction decided.
        rid: ResultId,
        /// Commit or abort.
        outcome: Outcome,
        /// The result computed for the client (None when aborting).
        result: Option<ResultValue>,
    },
}

impl StableRecord {
    /// The transaction branch this record concerns. Group frames and
    /// checkpoints span many branches and answer with the reserved
    /// [`ResultId::group_marker`].
    pub fn rid(&self) -> ResultId {
        match self {
            StableRecord::Prepared { rid, .. }
            | StableRecord::DbOutcome { rid, .. }
            | StableRecord::Replicated { rid, .. }
            | StableRecord::CoordStart { rid }
            | StableRecord::CoordOutcome { rid, .. } => *rid,
            StableRecord::Group { .. } | StableRecord::Checkpoint(_) => ResultId::group_marker(),
        }
    }

    /// This record's leaf records: a group frame's members in order (frames
    /// never nest), every other record itself. Recovery and log-inspection
    /// code iterate leaves so framing stays invisible to replay semantics.
    pub fn leaves(&self) -> &[StableRecord] {
        match self {
            StableRecord::Group { records } => records,
            other => std::slice::from_ref(other),
        }
    }
}

// A log holds a record per prepare and per decide: a new variant that
// outgrows the others regrows every one of them (the checkpoint is boxed
// for that reason).
const _: () = assert!(size_of::<StableRecord>() == 48);

/// What a database's recovery rebuilds from a log prefix, as one
/// [`StableRecord::Checkpoint`] holds it. Every list is in key order, so
/// two images of the same state are equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Image {
    /// Committed data: key → value.
    pub data: Vec<(String, i64)>,
    /// Prepared, undecided (in-doubt) branches and their redo sets.
    pub prepared: Vec<(ResultId, ShippedEntries)>,
    /// The decide memo: the applied outcome of every decided branch at or
    /// above its client's floor.
    pub decided: Vec<(ResultId, Outcome)>,
    /// Per client, in client order, the floor below which every request is
    /// settled: the memo holds nothing below it, and a recovered database
    /// keeps refusing what it drained. Clients at floor 0 are left out.
    pub floors: Vec<(NodeId, u64)>,
    /// Primary role: the count of logged commit outcomes (ship position).
    pub ship_seq: u64,
    /// Follower role: the highest contiguously applied ship position.
    pub repl_last_seq: u64,
}

impl Image {
    /// Entries the image holds: keys, in-doubt branches and memo entries.
    pub fn len(&self) -> usize {
        self.data.len() + self.prepared.len() + self.decided.len()
    }

    /// Whether the image holds no entry at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One named log: its records, how many were ever appended to it, and how
/// many checkpoints replaced them.
#[derive(Debug, Default)]
struct Log {
    records: Vec<StableRecord>,
    appended: u64,
    checkpoints: u64,
}

/// One node's stable storage: named logs that survive its crashes (§2:
/// "the crash of a process has no impact on its stable storage"). Both
/// hosts keep one per node, beside the process rather than in it, and hand
/// it to the recovered incarnation. What a *forced* write costs is the
/// host's cost model's to say, not this type's.
///
/// A log only grows by [`StableStorage::append`] and only shrinks by
/// [`StableStorage::checkpoint`], which replaces all of it with one record.
#[derive(Debug, Default)]
pub struct StableStorage {
    logs: BTreeMap<&'static str, Log>,
}

impl StableStorage {
    /// Empty storage.
    pub const fn new() -> Self {
        StableStorage { logs: BTreeMap::new() }
    }

    /// Appends a record to `log`, creating the log on first use.
    pub fn append(&mut self, log: &'static str, rec: StableRecord) {
        let log = self.logs.entry(log).or_default();
        log.records.push(rec);
        log.appended += 1;
    }

    /// Replaces every record of `log` with `rec`, a checkpoint of the state
    /// they rebuild. The log keeps its capacity, as it refills to about
    /// the same length. See the [module documentation](self) for the
    /// durability boundary a file-backed log must respect here.
    pub fn checkpoint(&mut self, log: &'static str, rec: StableRecord) {
        let log = self.logs.entry(log).or_default();
        log.records.clear();
        log.records.push(rec);
        log.checkpoints += 1;
    }

    /// Reads a log back (empty if never written).
    pub fn read(&self, log: &'static str) -> &[StableRecord] {
        self.logs.get(log).map_or(&[], |l| l.records.as_slice())
    }

    /// Records ever appended to `log`, those a checkpoint dropped included
    /// (a checkpoint itself is not counted: it replaces, not appends).
    pub fn appended(&self, log: &'static str) -> u64 {
        self.logs.get(log).map_or(0, |l| l.appended)
    }

    /// Checkpoints ever taken of `log`.
    pub fn checkpoints(&self, log: &'static str) -> u64 {
        self.logs.get(log).map_or(0, |l| l.checkpoints)
    }

    /// Number of records in a log.
    pub fn len(&self, log: &'static str) -> usize {
        self.read(log).len()
    }

    /// Whether the named log has no records.
    pub fn is_empty(&self, log: &'static str) -> bool {
        self.len(log) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, RequestId};

    #[test]
    fn record_rid_projection() {
        let rid = ResultId::first(RequestId { client: NodeId(9), seq: 3 });
        let records = [
            StableRecord::Prepared { rid, writes: [("acct".to_string(), 10)].into() },
            StableRecord::DbOutcome { rid, outcome: Outcome::Commit },
            StableRecord::CoordStart { rid },
            StableRecord::CoordOutcome { rid, outcome: Outcome::Abort, result: None },
        ];
        for r in &records {
            assert_eq!(r.rid(), rid);
        }
    }

    #[test]
    fn group_frames_flatten_to_their_members_in_order() {
        let rid1 = ResultId::first(RequestId { client: NodeId(1), seq: 1 });
        let rid2 = ResultId::first(RequestId { client: NodeId(1), seq: 2 });
        let group = StableRecord::Group {
            records: vec![
                StableRecord::DbOutcome { rid: rid1, outcome: Outcome::Commit },
                StableRecord::DbOutcome { rid: rid2, outcome: Outcome::Abort },
            ],
        };
        assert_eq!(group.rid(), ResultId::group_marker());
        let leaves = group.leaves();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].rid(), rid1);
        assert_eq!(leaves[1].rid(), rid2);
        // A plain record is its own single leaf.
        assert_eq!(leaves[0].leaves().len(), 1);
    }

    #[test]
    fn a_checkpoint_replaces_the_log_and_appends_keep_counting() {
        let rid = |seq| ResultId::first(RequestId { client: NodeId(1), seq });
        let outcome = |seq| StableRecord::DbOutcome { rid: rid(seq), outcome: Outcome::Commit };
        let mut s = StableStorage::new();
        assert_eq!((s.appended(LOG_WAL), s.checkpoints(LOG_WAL)), (0, 0));
        for seq in 1..=3 {
            s.append(LOG_WAL, outcome(seq));
        }
        s.append(LOG_COORD, StableRecord::CoordStart { rid: rid(9) });
        let image = Image { ship_seq: 3, ..Image::default() };
        s.checkpoint(LOG_WAL, StableRecord::Checkpoint(Box::new(image.clone())));
        s.append(LOG_WAL, outcome(4));
        assert_eq!(s.read(LOG_WAL), [StableRecord::Checkpoint(Box::new(image)), outcome(4)]);
        assert_eq!((s.appended(LOG_WAL), s.checkpoints(LOG_WAL)), (4, 1));
        assert_eq!(s.len(LOG_COORD), 1, "other logs are untouched");
    }
}
