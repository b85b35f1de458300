//! The e-Transaction property checker (§3 of the paper).
//!
//! Takes a finished run's trace, reconstructs the history (issues,
//! deliveries, votes, decides, computations), and checks every property the
//! paper proves in Appendix 2:
//!
//! * **T.1** every issued request is eventually delivered (checked only
//!   when the run reached quiescence with a correct client);
//! * **T.2** every voted branch is eventually decided at that database
//!   (same caveat — these are liveness properties);
//! * **A.1** no result delivered unless committed by every involved
//!   database (safety: checked unconditionally, with commit-before-deliver
//!   ordering);
//! * **A.2** at most one attempt per request ever commits, and the client
//!   delivers at most one result per request;
//! * **A.3** no two databases decide differently on the same attempt;
//! * **V.1** every delivered result was computed by an application server
//!   from a request the client issued;
//! * **V.2** nothing commits if any database voted no for it.

use etx_base::ids::{NodeId, RequestId, ResultId};
use etx_base::time::Time;
use etx_base::trace::{TraceEvent, TraceKind};
use etx_base::value::{Outcome, Vote};
use std::collections::{BTreeMap, BTreeSet};

/// Which liveness checks to run (safety is always checked).
#[derive(Debug, Clone, Copy, Default)]
pub struct LivenessChecks {
    /// Check T.1 (requires: client correct, run quiesced).
    pub t1: bool,
    /// Check T.2 (requires: run quiesced well past retransmission periods).
    pub t2: bool,
}

/// Outcome of checking a run.
#[derive(Debug, Default)]
pub struct PropertyReport {
    /// Human-readable violations; empty means the run satisfied everything.
    pub violations: Vec<String>,
}

impl PropertyReport {
    /// True when no property was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the violation list if any property failed (test helper).
    pub fn assert_ok(&self) {
        assert!(self.ok(), "e-Transaction properties violated:\n{}", self.violations.join("\n"));
    }
}

/// The run's history, indexed so that every property is checked in one
/// pass with map probes: votes and decides are keyed attempt-first, so
/// "every database that voted on `rid`" is a key range, not a scan of all
/// votes per delivery — the checker is O(n log n) in the trace, where the
/// scans made it quadratic (93 s on a 64 000-request trace).
#[derive(Debug, Default)]
struct History {
    issues: BTreeMap<RequestId, Time>,
    delivers: Vec<(ResultId, Outcome, Time)>,
    computed: BTreeSet<ResultId>,
    votes: BTreeMap<(ResultId, NodeId), (Vote, Time)>,
    decides: BTreeMap<(ResultId, NodeId), (Outcome, Time)>,
    client_crashes: BTreeSet<NodeId>,
}

impl History {
    /// The votes cast on `rid`, by database.
    fn votes_on(&self, rid: ResultId) -> impl Iterator<Item = (NodeId, Vote)> + '_ {
        self.votes
            .range((rid, NodeId(0))..=(rid, NodeId(u32::MAX)))
            .map(|(&(_, db), &(vote, _))| (db, vote))
    }
}

fn extract(events: &[TraceEvent], clients: &[NodeId]) -> History {
    let mut h = History::default();
    for e in events {
        match &e.kind {
            TraceKind::Issue { request } => {
                h.issues.entry(*request).or_insert(e.at);
            }
            TraceKind::Deliver { rid, outcome, .. } => h.delivers.push((*rid, *outcome, e.at)),
            TraceKind::Computed { rid } => {
                h.computed.insert(*rid);
            }
            TraceKind::DbVote { rid, vote } => {
                h.votes.entry((*rid, e.node)).or_insert((*vote, e.at));
            }
            TraceKind::DbDecide { rid, outcome } => {
                h.decides.entry((*rid, e.node)).or_insert((*outcome, e.at));
            }
            TraceKind::Crash if clients.contains(&e.node) => {
                h.client_crashes.insert(e.node);
            }
            _ => {}
        }
    }
    h
}

/// Checks all properties over a finished run's trace.
///
/// `clients` identifies the client nodes (so client crashes relax T.1).
pub fn check(
    events: &[TraceEvent],
    clients: &[NodeId],
    liveness: LivenessChecks,
) -> PropertyReport {
    let h = extract(events, clients);
    let mut report = PropertyReport::default();
    let mut violate = |msg: String| report.violations.push(msg);

    // ---- A.1: delivered ⇒ committed at every involved database, before
    // delivery. "Involved" = the databases that voted for the attempt.
    for (rid, outcome, at) in &h.delivers {
        if *outcome != Outcome::Commit {
            violate(format!("A.1: client delivered non-commit outcome for {rid}"));
            continue;
        }
        for (d, _) in h.votes_on(*rid) {
            match h.decides.get(&(*rid, d)) {
                Some((Outcome::Commit, t)) if t <= at => {}
                Some((Outcome::Commit, t)) => {
                    violate(format!("A.1: {rid} delivered at {at} before db {d} committed at {t}"))
                }
                Some((Outcome::Abort, _)) => {
                    violate(format!("A.1: {rid} delivered but db {d} aborted it"))
                }
                None => violate(format!("A.1: {rid} delivered but db {d} never decided it")),
            }
        }
    }

    // ---- A.2: per request, at most one attempt commits anywhere; and the
    // client delivers at most once per request.
    let mut committed_attempts: BTreeMap<RequestId, BTreeSet<u32>> = BTreeMap::new();
    for ((rid, _), (outcome, _)) in &h.decides {
        if *outcome == Outcome::Commit {
            committed_attempts.entry(rid.request).or_default().insert(rid.attempt);
        }
    }
    for (req, attempts) in &committed_attempts {
        if attempts.len() > 1 {
            violate(format!(
                "A.2: request {req} committed {} different results: {attempts:?}",
                attempts.len()
            ));
        }
    }
    let mut delivered_per_request: BTreeMap<RequestId, usize> = BTreeMap::new();
    for (rid, _, _) in &h.delivers {
        *delivered_per_request.entry(rid.request).or_insert(0) += 1;
    }
    for (req, n) in &delivered_per_request {
        if *n > 1 {
            violate(format!("A.2: request {req} delivered {n} times"));
        }
    }

    // ---- A.3: per attempt, all databases that decided agree.
    let mut outcomes_per_rid: BTreeMap<ResultId, BTreeSet<&'static str>> = BTreeMap::new();
    for ((rid, _), (outcome, _)) in &h.decides {
        let tag = match outcome {
            Outcome::Commit => "commit",
            Outcome::Abort => "abort",
        };
        outcomes_per_rid.entry(*rid).or_default().insert(tag);
    }
    for (rid, set) in &outcomes_per_rid {
        if set.len() > 1 {
            violate(format!("A.3: databases disagree on {rid}: {set:?}"));
        }
    }

    // ---- V.1: delivered results were computed, for issued requests.
    for (rid, _, _) in &h.delivers {
        if !h.computed.contains(rid) {
            violate(format!("V.1: {rid} delivered but never computed by any app server"));
        }
        if !h.issues.contains_key(&rid.request) {
            violate(format!("V.1: {rid} delivered but request was never issued"));
        }
    }

    // ---- V.2: committed ⇒ nobody voted no.
    for (rid, set) in &outcomes_per_rid {
        if set.contains("commit") {
            for (d, vote) in h.votes_on(*rid) {
                if vote == Vote::No {
                    violate(format!("V.2: {rid} committed but db {d} voted no"));
                }
            }
        }
    }

    // ---- T.1 (opt-in liveness).
    if liveness.t1 {
        for req in h.issues.keys() {
            if h.client_crashes.contains(&req.client) {
                continue; // "unless it crashes"
            }
            if !delivered_per_request.contains_key(req) {
                violate(format!("T.1: request {req} issued but never delivered"));
            }
        }
    }

    // ---- T.2 (opt-in liveness).
    if liveness.t2 {
        for (rid, d) in h.votes.keys() {
            if !h.decides.contains_key(&(*rid, *d)) {
                violate(format!("T.2: db {d} voted for {rid} but never decided it"));
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::ids::{NodeId, RequestId};

    fn rid(attempt: u32) -> ResultId {
        ResultId { request: RequestId { client: NodeId(0), seq: 1 }, attempt }
    }

    fn ev(at: u64, node: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent::new(Time(at), NodeId(node), kind)
    }

    fn full_liveness() -> LivenessChecks {
        LivenessChecks { t1: true, t2: true }
    }

    #[test]
    fn clean_commit_history_passes() {
        let events = vec![
            ev(0, 0, TraceKind::Issue { request: rid(1).request }),
            ev(1, 1, TraceKind::Computed { rid: rid(1) }),
            ev(2, 4, TraceKind::DbVote { rid: rid(1), vote: Vote::Yes }),
            ev(3, 4, TraceKind::DbDecide { rid: rid(1), outcome: Outcome::Commit }),
            ev(4, 0, TraceKind::Deliver { rid: rid(1), outcome: Outcome::Commit, steps: 12 }),
        ];
        check(&events, &[NodeId(0)], full_liveness()).assert_ok();
    }

    #[test]
    fn deliver_before_commit_violates_a1() {
        let events = vec![
            ev(0, 0, TraceKind::Issue { request: rid(1).request }),
            ev(1, 1, TraceKind::Computed { rid: rid(1) }),
            ev(2, 4, TraceKind::DbVote { rid: rid(1), vote: Vote::Yes }),
            ev(3, 0, TraceKind::Deliver { rid: rid(1), outcome: Outcome::Commit, steps: 12 }),
            ev(4, 4, TraceKind::DbDecide { rid: rid(1), outcome: Outcome::Commit }),
        ];
        let r = check(&events, &[NodeId(0)], LivenessChecks::default());
        assert!(!r.ok());
        assert!(r.violations[0].contains("A.1"));
    }

    #[test]
    fn two_committed_attempts_violate_a2() {
        let events = vec![
            ev(0, 4, TraceKind::DbDecide { rid: rid(1), outcome: Outcome::Commit }),
            ev(1, 4, TraceKind::DbDecide { rid: rid(2), outcome: Outcome::Commit }),
        ];
        let r = check(&events, &[NodeId(0)], LivenessChecks::default());
        assert!(r.violations.iter().any(|v| v.contains("A.2")));
    }

    #[test]
    fn db_disagreement_violates_a3() {
        let events = vec![
            ev(0, 4, TraceKind::DbDecide { rid: rid(1), outcome: Outcome::Commit }),
            ev(1, 5, TraceKind::DbDecide { rid: rid(1), outcome: Outcome::Abort }),
        ];
        let r = check(&events, &[NodeId(0)], LivenessChecks::default());
        assert!(r.violations.iter().any(|v| v.contains("A.3")));
    }

    #[test]
    fn uncomputed_delivery_violates_v1() {
        let events = vec![
            ev(0, 0, TraceKind::Issue { request: rid(1).request }),
            ev(2, 4, TraceKind::DbVote { rid: rid(1), vote: Vote::Yes }),
            ev(3, 4, TraceKind::DbDecide { rid: rid(1), outcome: Outcome::Commit }),
            ev(4, 0, TraceKind::Deliver { rid: rid(1), outcome: Outcome::Commit, steps: 1 }),
        ];
        let r = check(&events, &[NodeId(0)], LivenessChecks::default());
        assert!(r.violations.iter().any(|v| v.contains("V.1")));
    }

    #[test]
    fn commit_with_no_vote_violates_v2() {
        let events = vec![
            ev(0, 4, TraceKind::DbVote { rid: rid(1), vote: Vote::No }),
            ev(1, 5, TraceKind::DbVote { rid: rid(1), vote: Vote::Yes }),
            ev(2, 5, TraceKind::DbDecide { rid: rid(1), outcome: Outcome::Commit }),
        ];
        let r = check(&events, &[NodeId(0)], LivenessChecks::default());
        assert!(r.violations.iter().any(|v| v.contains("V.2")));
    }

    #[test]
    fn undelivered_request_violates_t1_unless_client_crashed() {
        let events = vec![ev(0, 0, TraceKind::Issue { request: rid(1).request })];
        let r = check(&events, &[NodeId(0)], full_liveness());
        assert!(r.violations.iter().any(|v| v.contains("T.1")));
        // With a client crash, T.1 is vacuous.
        let events2 = vec![
            ev(0, 0, TraceKind::Issue { request: rid(1).request }),
            ev(1, 0, TraceKind::Crash),
        ];
        check(&events2, &[NodeId(0)], full_liveness()).assert_ok();
    }

    #[test]
    fn unresolved_vote_violates_t2() {
        let events = vec![ev(0, 4, TraceKind::DbVote { rid: rid(1), vote: Vote::Yes })];
        let r = check(&events, &[NodeId(0)], full_liveness());
        assert!(r.violations.iter().any(|v| v.contains("T.2")));
    }

    #[test]
    fn a_long_clean_history_checks_in_linear_time() {
        // 20 000 requests, two databases each. With a scan of every vote
        // per delivery this history took 127 s unoptimised; indexed it
        // takes 0.4 s (75 ms optimised). The bound leaves room for a busy
        // CI machine and is still far below anything quadratic.
        let mut events = Vec::new();
        for seq in 0..20_000u64 {
            let request = RequestId { client: NodeId((seq % 8) as u32), seq };
            let rid = ResultId::first(request);
            let at = seq * 10;
            events.push(ev(at, request.client.0, TraceKind::Issue { request }));
            events.push(ev(at + 1, 9, TraceKind::Computed { rid }));
            for db in [12, 13] {
                events.push(ev(at + 2, db, TraceKind::DbVote { rid, vote: Vote::Yes }));
                events.push(ev(at + 3, db, TraceKind::DbDecide { rid, outcome: Outcome::Commit }));
            }
            let deliver = TraceKind::Deliver { rid, outcome: Outcome::Commit, steps: 12 };
            events.push(ev(at + 4, request.client.0, deliver));
        }
        let clients: Vec<NodeId> = (0..8).map(NodeId).collect();
        let started = std::time::Instant::now();
        check(&events, &clients, full_liveness()).assert_ok();
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "checker took {took:?}");
    }

    #[test]
    fn abort_then_retry_commit_is_legal() {
        let events = vec![
            ev(0, 0, TraceKind::Issue { request: rid(1).request }),
            ev(1, 4, TraceKind::DbVote { rid: rid(1), vote: Vote::No }),
            ev(2, 4, TraceKind::DbDecide { rid: rid(1), outcome: Outcome::Abort }),
            ev(3, 1, TraceKind::Computed { rid: rid(2) }),
            ev(4, 4, TraceKind::DbVote { rid: rid(2), vote: Vote::Yes }),
            ev(5, 4, TraceKind::DbDecide { rid: rid(2), outcome: Outcome::Commit }),
            ev(6, 0, TraceKind::Deliver { rid: rid(2), outcome: Outcome::Commit, steps: 9 }),
        ];
        check(&events, &[NodeId(0)], full_liveness()).assert_ok();
    }
}
