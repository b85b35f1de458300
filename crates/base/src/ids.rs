//! Process, request, result and register identities.
//!
//! The paper (§2) distinguishes three kinds of processes — clients `c_i`,
//! application servers `a_i`, and database servers `s_i` — and identifies
//! every result (and its transaction) with an integer `j`. Because this
//! implementation supports many clients and many concurrent requests, the
//! paper's integer `j` generalises to [`ResultId`], which nests the issuing
//! client and request: `(client, request seq, attempt j)`.

use core::fmt;

/// Identity of a process (any tier). Flat id space; the harness assigns
/// contiguous ids per role and records the mapping in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Unique identity of a client request (§2 "each request is uniquely
/// identified"). A client issues requests one at a time, so `seq` increases
/// monotonically per client.
///
/// Packed to 4-byte alignment: 12 bytes instead of 16, which makes a
/// [`ResultId`] 16 bytes instead of 24 — and every trace event, WAL record,
/// message and per-attempt table entry that carries one shrinks with it.
/// The derived traits read the fields in the same order, so ordering,
/// hashing and `Debug` text are those of the unpacked type. The one cost is
/// that `seq` may sit at an address no `&u64` can point to: the compiler
/// refuses a reference to it (E0793), so code that needs one copies the
/// field first (`{ id.seq }`, or a `let`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C, packed(4))]
pub struct RequestId {
    /// Issuing client.
    pub client: NodeId,
    /// Per-client sequence number, starting at 1.
    pub seq: u64,
}

impl RequestId {
    /// Every request of `client` with a sequence number below `seq`, as a
    /// key range: the derived order is `(client, seq)`, so a client's
    /// settled requests are one contiguous prefix of an ordered map and a
    /// watermark GC can drop them without visiting anything else.
    pub fn below(client: NodeId, seq: u64) -> core::ops::Range<RequestId> {
        RequestId { client, seq: 0 }..RequestId { client, seq }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let seq = self.seq;
        write!(f, "{}#r{seq}", self.client)
    }
}

/// Unique identity of one *result* (equivalently, of its transaction): the
/// paper's integer `j`, scoped to the request it belongs to. Attempt numbers
/// start at 1 and increase every time the client sees an abort and retries
/// (Figure 2, line 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResultId {
    /// The request this result answers.
    pub request: RequestId,
    /// The paper's `j`: which try this is, starting at 1.
    pub attempt: u32,
}

impl ResultId {
    /// First attempt for a request.
    pub fn first(request: RequestId) -> Self {
        ResultId { request, attempt: 1 }
    }

    /// The identifier the client moves to after an abort (Figure 2 line 10).
    pub fn next_attempt(self) -> Self {
        ResultId { request: self.request, attempt: self.attempt + 1 }
    }

    /// Every attempt of every request of `client` below sequence number
    /// `seq`, as a key range (the derived order is `(client, seq,
    /// attempt)`) — the [`RequestId::below`] prefix for per-attempt maps.
    pub fn below(client: NodeId, seq: u64) -> core::ops::Range<ResultId> {
        let bounds = RequestId::below(client, seq);
        ResultId { request: bounds.start, attempt: 0 }..ResultId { request: bounds.end, attempt: 0 }
    }

    /// Marker id used by intra-shard replication snapshot log records —
    /// snapshots replicate the whole committed state, not one branch, so
    /// they carry this reserved id (no client ever owns `NodeId(u32::MAX)`).
    pub fn repl_snapshot() -> Self {
        ResultId::first(RequestId { client: NodeId(u32::MAX), seq: 0 })
    }

    /// Marker id used by group WAL records: one durable record framing the
    /// commit records of a whole decided batch belongs to no single branch.
    pub fn group_marker() -> Self {
        ResultId::first(RequestId { client: NodeId(u32::MAX), seq: 1 })
    }
}

impl fmt::Display for ResultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/j{}", self.request, self.attempt)
    }
}

// The ids' natural sizes: a new field (or a lost `packed`) cannot silently
// regrow every record that carries one.
const _: () = assert!(size_of::<RequestId>() == 12);
const _: () = assert!(size_of::<ResultId>() == 16);

/// Identity of one write-once register — also the identity of the consensus
/// instance that implements it: `slot[k]`, position `k` of the sequenced
/// decision log, whose value is a whole *batch* of request outcomes and
/// owner claims. The paper's two per-attempt arrays (§4, Figure 4) —
/// `regA[j]`, the application server that owns attempt `j`, and `regD[j]`,
/// the decision for it — are entries of slot values here, so a single
/// consensus round decides many requests at once and the single-request
/// path is a batch of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegId(u64);

impl RegId {
    /// `slot[index]` — position `index` of the sequenced decision log.
    pub fn slot(index: u64) -> Self {
        RegId(index)
    }
    /// The register's log position. Every register is a slot, so this is
    /// always `Some`.
    pub fn slot_index(&self) -> Option<u64> {
        Some(self.0)
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot[{}]", self.0)
    }
}

/// Handle for a pending timer, returned by [`crate::Context::set_timer`].
/// A host's ids are unique and order as the timers were armed; the
/// kernel's also name the queue slot the timer waits in
/// ([`crate::host::TimeQueue::push_timer`]), which is how a cancel finds
/// it. A process compares them and hands them back, nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// Static description of who is who in a run: the membership lists the
/// paper's algorithms take as givens (`alist`, `dlist`, the client set).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    /// All client processes.
    pub clients: Vec<NodeId>,
    /// All application servers (`alist`), in order; index 0 is the default
    /// primary `a1`.
    pub app_servers: Vec<NodeId>,
    /// All database servers (`dlist`).
    pub db_servers: Vec<NodeId>,
}

impl Topology {
    /// Builds a topology with the given tier sizes, assigning contiguous ids:
    /// clients first, then app servers, then database servers.
    pub fn new(clients: usize, app_servers: usize, db_servers: usize) -> Self {
        let mut next = 0u32;
        let mut take = |n: usize| {
            let v: Vec<NodeId> = (0..n).map(|i| NodeId(next + i as u32)).collect();
            next += n as u32;
            v
        };
        Topology {
            clients: take(clients),
            app_servers: take(app_servers),
            db_servers: take(db_servers),
        }
    }

    /// Total number of processes.
    pub fn len(&self) -> usize {
        self.clients.len() + self.app_servers.len() + self.db_servers.len()
    }

    /// True when the topology has no processes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The default primary application server `a1` (Figure 2).
    ///
    /// # Panics
    ///
    /// Panics if the topology has no application servers.
    pub fn primary(&self) -> NodeId {
        self.app_servers[0]
    }

    /// Size of a majority quorum among application servers (§4 assumes a
    /// majority of app servers are correct).
    pub fn app_majority(&self) -> usize {
        self.app_servers.len() / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_assigns_contiguous_ids() {
        let t = Topology::new(1, 3, 2);
        assert_eq!(t.clients, vec![NodeId(0)]);
        assert_eq!(t.app_servers, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.db_servers, vec![NodeId(4), NodeId(5)]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(t.primary(), NodeId(1));
    }

    #[test]
    fn majority_sizes() {
        assert_eq!(Topology::new(1, 3, 1).app_majority(), 2);
        assert_eq!(Topology::new(1, 4, 1).app_majority(), 3);
        assert_eq!(Topology::new(1, 5, 1).app_majority(), 3);
        assert_eq!(Topology::new(1, 7, 1).app_majority(), 4);
    }

    #[test]
    fn result_id_attempt_chain() {
        let rid = ResultId::first(RequestId { client: NodeId(0), seq: 7 });
        assert_eq!(rid.attempt, 1);
        let next = rid.next_attempt();
        assert_eq!(next.attempt, 2);
        assert_eq!(next.request, rid.request);
        assert!(rid < next);
    }

    #[test]
    fn below_ranges_cover_exactly_a_clients_settled_prefix() {
        let rid = |client, seq, attempt| ResultId {
            request: RequestId { client: NodeId(client), seq },
            attempt,
        };
        let stale = ResultId::below(NodeId(2), 5);
        assert!(stale.contains(&rid(2, 0, 0)) && stale.contains(&rid(2, 4, u32::MAX)));
        assert!(!stale.contains(&rid(2, 5, 1)), "the watermark is exclusive");
        assert!(!stale.contains(&rid(1, 9, 1)) && !stale.contains(&rid(3, 0, 1)));
        assert!(ResultId::below(NodeId(2), 0).is_empty());
        assert!(RequestId::below(NodeId(2), 5).contains(&RequestId { client: NodeId(2), seq: 4 }));
    }

    #[test]
    fn slot_ids_follow_the_log_order() {
        let s0 = RegId::slot(0);
        let s7 = RegId::slot(7);
        assert_eq!(s0.slot_index(), Some(0));
        assert_eq!(s7.slot_index(), Some(7));
        assert!(s0 < s7, "slot order follows the log order");
        assert_eq!(format!("{s7}"), "slot[7]");
        assert_ne!(ResultId::group_marker(), ResultId::repl_snapshot());
    }

    #[test]
    fn display_formats_are_nonempty_and_stable() {
        let rid = ResultId::first(RequestId { client: NodeId(3), seq: 2 });
        assert_eq!(format!("{rid}"), "n3#r2/j1");
    }

    /// The golden trace hashes are FNV-1a of `Debug` text, so packing must
    /// not change a character of it.
    #[test]
    fn debug_text_is_that_of_the_unpacked_ids() {
        let request = RequestId { client: NodeId(3), seq: 2 };
        assert_eq!(format!("{request:?}"), "RequestId { client: NodeId(3), seq: 2 }");
        assert_eq!(
            format!("{:?}", ResultId { request, attempt: 4 }),
            "ResultId { request: RequestId { client: NodeId(3), seq: 2 }, attempt: 4 }"
        );
        assert_eq!(
            format!("{request:#?}"),
            "RequestId {\n    client: NodeId(\n        3,\n    ),\n    seq: 2,\n}"
        );
    }
}
