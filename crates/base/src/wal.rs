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

use crate::ids::ResultId;
use crate::value::{Outcome, ResultValue};
use std::collections::BTreeMap;

/// Name of the database write-ahead log within a node's stable storage.
pub const LOG_WAL: &str = "wal";
/// Name of the 2PC coordinator log within a node's stable storage.
pub const LOG_COORD: &str = "coord";

/// One durable record. A single enum covers both logs so
/// [`StableStorage`] stays untyped-but-safe.
#[derive(Debug, Clone, PartialEq)]
pub enum StableRecord {
    /// Database: branch `rid` is prepared; `writes` is its redo set
    /// (key, new value). Forced before voting yes.
    Prepared {
        /// Transaction branch.
        rid: ResultId,
        /// Redo information: key → new value.
        writes: Vec<(String, i64)>,
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
        writes: Vec<(String, i64)>,
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
    /// The transaction branch this record concerns. Group frames span many
    /// branches and answer with the reserved [`ResultId::group_marker`].
    pub fn rid(&self) -> ResultId {
        match self {
            StableRecord::Prepared { rid, .. }
            | StableRecord::DbOutcome { rid, .. }
            | StableRecord::Replicated { rid, .. }
            | StableRecord::CoordStart { rid }
            | StableRecord::CoordOutcome { rid, .. } => *rid,
            StableRecord::Group { .. } => ResultId::group_marker(),
        }
    }

    /// Flattens this record to its leaf records (a group frame yields its
    /// members in order; every other record yields itself). Recovery and
    /// log-inspection code iterate leaves so framing stays invisible to
    /// replay semantics.
    pub fn leaves(&self) -> Vec<&StableRecord> {
        match self {
            StableRecord::Group { records } => records.iter().flat_map(|r| r.leaves()).collect(),
            other => vec![other],
        }
    }
}

/// One node's stable storage: named append-only logs that survive its
/// crashes (§2: "the crash of a process has no impact on its stable
/// storage"). Both hosts keep one per node, beside the process rather
/// than in it, and hand it to the recovered incarnation. What a *forced*
/// write costs is the host's cost model's to say, not this type's.
#[derive(Debug, Default)]
pub struct StableStorage {
    logs: BTreeMap<&'static str, Vec<StableRecord>>,
}

impl StableStorage {
    /// Empty storage.
    pub const fn new() -> Self {
        StableStorage { logs: BTreeMap::new() }
    }

    /// Appends a record to `log`, creating the log on first use.
    pub fn append(&mut self, log: &'static str, rec: StableRecord) {
        self.logs.entry(log).or_default().push(rec);
    }

    /// Reads a log back (empty if never written).
    pub fn read(&self, log: &'static str) -> &[StableRecord] {
        self.logs.get(log).map_or(&[], Vec::as_slice)
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
            StableRecord::Prepared { rid, writes: vec![("acct".into(), 10)] },
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
}
