//! The shared client-side retry driver.
//!
//! Every client protocol in the workspace — the e-Transaction client
//! (Figure 2) and the baseline/2PC clients — runs the same mechanical loop
//! underneath its policy: walk a plan of requests, keep one attempt of the
//! current request identified by a [`ResultId`], arm timers against it,
//! discard stale timer fires and stale results, and advance the attempt
//! counter on retry. Before this module each client re-implemented that
//! loop; now they share it, so the batched e-Transaction client and the
//! baseline clients *measure the same thing*: an `Issue` trace per request,
//! identical attempt bookkeeping, identical stale-event filtering. Only the
//! policy layered on top differs (back-off + broadcast vs. timeout +
//! resend/give-up).
//!
//! The driver is runtime-agnostic: it talks to the same [`Context`] the
//! protocols do and owns no policy — it never decides *when* to retry, only
//! keeps the bookkeeping straight when the policy does.

use crate::ids::{NodeId, ResultId, TimerId};
use crate::msg::{ClientMsg, Payload};
use crate::runtime::{Context, TimerTag};
use crate::time::Dur;
use crate::trace::TraceKind;
use crate::value::Request;
use std::sync::Arc;

/// Which of an attempt's (up to two) timers a call concerns. The
/// e-Transaction client arms `Primary` for the back-off period and
/// `Secondary` for the re-broadcast cadence; baseline clients use only
/// `Primary` (their single patience timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryTimer {
    /// First-line timer (back-off / patience).
    Primary,
    /// Second-line timer (re-broadcast cadence).
    Secondary,
}

/// Plan iteration shared by every client: makes the next request at issue
/// and emits its `Issue` trace exactly once.
///
/// A plan is a length and a generator, not a list: request `seq` (1-based)
/// is made by calling the generator when it is issued, so a client holds
/// only the requests it has in flight, whatever the length of its plan.
/// The generator is shared — cloning a plan (a node factory does, at every
/// start and recovery) bumps a reference count. It must be a pure function
/// of `seq` whose request carries `id.seq == seq`: a recovered client
/// re-issues from the start and must make the same requests.
#[derive(Clone)]
pub struct IssuePlan {
    make: Arc<dyn Fn(u64) -> Request>,
    len: u64,
    next: u64,
}

impl std::fmt::Debug for IssuePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IssuePlan").field("len", &self.len).field("next", &self.next).finish()
    }
}

impl IssuePlan {
    /// A plan of `len` requests, request `seq` made by `make(seq)` when it
    /// is issued, in order from 1.
    pub fn new(len: u64, make: impl Fn(u64) -> Request + 'static) -> Self {
        IssuePlan { make: Arc::new(make), len, next: 1 }
    }

    /// Issues the next request (tracing `Issue`), or `None` when the plan
    /// is exhausted.
    pub fn issue_next(&mut self, ctx: &mut dyn Context) -> Option<Request> {
        if self.exhausted() {
            return None;
        }
        let request = (self.make)(self.next);
        self.next += 1;
        ctx.trace(TraceKind::Issue { request: request.id });
        Some(request)
    }

    /// Sequence number the next issued request will carry (1-based); one
    /// past the last plan entry once exhausted.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Whether every request has been issued.
    pub fn exhausted(&self) -> bool {
        self.next > self.len
    }

    /// Total number of requests in the plan.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A plan over requests already made: request `seq` is the vector's entry
/// `seq - 1`, which must carry that sequence number.
impl From<Vec<Request>> for IssuePlan {
    fn from(requests: Vec<Request>) -> Self {
        debug_assert!(
            requests.iter().zip(1..).all(|(r, seq)| { r.id.seq } == seq),
            "a plan's requests are numbered 1, 2, …"
        );
        let len = requests.len() as u64;
        IssuePlan::new(len, move |seq| requests[seq as usize - 1].clone())
    }
}

/// The attempt chain of one in-flight request: current [`ResultId`],
/// pending timers, and the retry counter. One driver per logical request —
/// sequential clients hold one, open-loop clients hold one per in-flight
/// request.
#[derive(Debug, Clone)]
pub struct AttemptDriver {
    request: Request,
    rid: ResultId,
    timers: [Option<TimerId>; 2],
    retries: u32,
    rebroadcasts: u32,
}

impl AttemptDriver {
    /// Starts the attempt chain for `request` at attempt 1.
    pub fn new(request: Request) -> Self {
        let rid = ResultId::first(request.id);
        AttemptDriver { request, rid, timers: [None, None], retries: 0, rebroadcasts: 0 }
    }

    /// The request this chain answers.
    pub fn request(&self) -> &Request {
        &self.request
    }

    /// The current attempt's identity.
    pub fn rid(&self) -> ResultId {
        self.rid
    }

    /// How many times the policy has retried (attempt advances and
    /// policy-level resends both count).
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Sends the current attempt to `to` as a `[Request, request, j]`
    /// message carrying the client's GC watermark and causality token
    /// (`stamps`; baseline clients pass `&[]`).
    pub fn send_to(
        &self,
        ctx: &mut dyn Context,
        to: NodeId,
        ack_below: u64,
        stamps: &[(NodeId, u64)],
    ) {
        ctx.send(
            to,
            Payload::Client(ClientMsg::Request {
                request: self.request.clone(),
                attempt: self.rid.attempt,
                ack_below,
                stamps: stamps.to_vec(),
            }),
        );
    }

    /// Broadcasts the current attempt to every server in `alist`.
    pub fn broadcast(
        &self,
        ctx: &mut dyn Context,
        alist: &[NodeId],
        ack_below: u64,
        stamps: &[(NodeId, u64)],
    ) {
        for &a in alist {
            self.send_to(ctx, a, ack_below, stamps);
        }
    }

    /// Arms (or replaces) one of the attempt's timers.
    pub fn arm(&mut self, ctx: &mut dyn Context, which: RetryTimer, delay: Dur, tag: TimerTag) {
        let id = ctx.set_timer(delay, tag);
        self.timers[which as usize] = Some(id);
    }

    /// Whether a fired timer is the *current* one for this attempt: the ids
    /// must match and the tag's attempt must be current. Stale fires (an
    /// earlier attempt's timer, or a replaced timer) answer `false` and
    /// must be ignored — this is the filtering every client used to
    /// open-code.
    pub fn timer_is_current(&self, which: RetryTimer, id: TimerId, rid: ResultId) -> bool {
        self.rid == rid && self.timers[which as usize] == Some(id)
    }

    /// Clears a timer slot once its fire has been accepted (a one-shot
    /// timer that fired no longer needs cancelling).
    pub fn clear(&mut self, which: RetryTimer) {
        self.timers[which as usize] = None;
    }

    /// Whether a result for `rid` answers the current attempt.
    pub fn matches(&self, rid: ResultId) -> bool {
        self.rid == rid
    }

    /// Whether a result for `rid` belongs to this request at all (any
    /// attempt — baseline clients accept late results of earlier attempts).
    pub fn same_request(&self, rid: ResultId) -> bool {
        self.rid.request == rid.request
    }

    /// Cancels every pending timer (call before delivering or retrying).
    pub fn cancel_all(&mut self, ctx: &mut dyn Context) {
        for t in &mut self.timers {
            if let Some(id) = t.take() {
                ctx.cancel_timer(id);
            }
        }
    }

    /// Advances to the next attempt (Figure 2 line 10: `j := j + 1`):
    /// cancels timers, bumps the attempt and the retry counter. The
    /// re-broadcast back-off resets with the attempt — a fresh attempt
    /// means a server answered, so the network is evidently passable and
    /// the cadence starts over at its base.
    pub fn next_attempt(&mut self, ctx: &mut dyn Context) -> ResultId {
        self.cancel_all(ctx);
        self.rid = self.rid.next_attempt();
        self.retries += 1;
        self.rebroadcasts = 0;
        self.rid
    }

    /// Records one broadcast of the current attempt and returns how many
    /// came *before* it — the exponent of the bounded re-broadcast
    /// back-off (0 for the initial post-patience broadcast, so the first
    /// gap is the base cadence).
    pub fn note_rebroadcast(&mut self) -> u32 {
        let n = self.rebroadcasts;
        self.rebroadcasts = self.rebroadcasts.saturating_add(1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{RequestId, TimerId};
    use crate::msg::Payload;
    use crate::time::Time;
    use crate::value::RequestScript;
    use crate::wal::StableRecord;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A context that keeps the trace and nothing else.
    #[derive(Default)]
    struct Traced(Vec<TraceKind>);

    impl Context for Traced {
        fn now(&self) -> Time {
            Time::ZERO
        }
        fn me(&self) -> NodeId {
            NodeId(0)
        }
        fn set_timer(&mut self, _: Dur, _: TimerTag) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _: TimerId) {}
        fn random_u64(&mut self) -> u64 {
            0
        }
        fn log_append(&mut self, _: &'static str, _: StableRecord, _: bool) -> Dur {
            Dur::ZERO
        }
        fn log_read(&self, _: &'static str) -> Vec<StableRecord> {
            Vec::new()
        }
        fn trace(&mut self, kind: TraceKind) {
            self.0.push(kind);
        }
        fn depth(&self) -> u32 {
            0
        }
        fn send_after_at_depth(&mut self, _: u32, _: Dur, _: NodeId, _: Payload) {}
        fn subscribe_node_events(&mut self) {}
    }

    fn req(seq: u64) -> Request {
        Request { id: RequestId { client: NodeId(0), seq }, script: RequestScript::default() }
    }

    #[test]
    fn issue_plan_walks_in_order_and_reports_next_seq() {
        // No Context needed for the pure parts.
        let p = IssuePlan::from(vec![req(1), req(2)]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.next_seq(), 1);
        assert!(!p.exhausted());
        assert!(IssuePlan::new(0, req).exhausted());
    }

    #[test]
    fn issue_plan_makes_each_request_at_issue_and_shares_its_generator() {
        let mut ctx = Traced::default();
        let made = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&made);
        let mut p = IssuePlan::new(3, move |seq| {
            counter.fetch_add(1, Ordering::Relaxed);
            req(seq)
        });
        let copy = p.clone();
        assert_eq!(made.load(Ordering::Relaxed), 0, "nothing is made up front");
        let seqs: Vec<u64> =
            std::iter::from_fn(|| p.issue_next(&mut ctx)).map(|r| r.id.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
        assert_eq!(made.load(Ordering::Relaxed), 3, "one request made per issue");
        assert_eq!(ctx.0.len(), 3, "one Issue traced per request");
        assert!(p.exhausted());
        assert_eq!(p.next_seq(), 4);
        assert_eq!(copy.next_seq(), 1, "a clone walks on its own");
        assert!(Arc::ptr_eq(&p.make, &copy.make), "a clone shares the generator");
    }

    #[test]
    fn attempt_driver_chain_and_matching() {
        let d = AttemptDriver::new(req(3));
        assert_eq!(d.rid().attempt, 1);
        assert_eq!(d.retries(), 0);
        assert!(d.matches(d.rid()));
        assert!(d.same_request(d.rid().next_attempt()));
        assert!(!d.matches(d.rid().next_attempt()));
        let other = ResultId::first(RequestId { client: NodeId(9), seq: 3 });
        assert!(!d.same_request(other));
    }

    #[test]
    fn note_rebroadcast_returns_prior_count() {
        let mut d = AttemptDriver::new(req(1));
        assert_eq!(d.note_rebroadcast(), 0, "first broadcast gets the base gap");
        assert_eq!(d.note_rebroadcast(), 1);
        assert_eq!(d.note_rebroadcast(), 2);
    }
}
