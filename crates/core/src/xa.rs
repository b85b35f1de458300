//! Figure 5's `compute()` and Figure 4's `prepare()` and `terminate()`, once.
//!
//! The paper writes these functions once, calls them from the compute
//! thread and from the cleaner, and draws its comparison protocols
//! (Figure 7 a–c) as the same skeleton with something different *between*
//! the steps: nothing, two forced log writes, two backup round trips, two
//! wo-register writes. [`Xa`] is that skeleton — one attempt in its three
//! database-facing stages. It is passive and holds no policy: a server
//! keeps it among its own phases, hands it the replies, `Ready` notices and
//! retry timers that concern the attempt, and matches on the [`Step`] a
//! stage returns when it ends. *When* the next stage starts, and what
//! happens in between, is what makes each server itself. A timer outlives
//! nothing it was armed for: `terminate()` keeps the id of the retry it
//! armed last, and the last acknowledgement cancels it.

use crate::resultbuild;
use etx_base::ids::{NodeId, ResultId, TimerId};
use etx_base::msg::{DbMsg, Payload};
use etx_base::runtime::{Context, TimerTag};
use etx_base::time::Dur;
use etx_base::trace::TraceKind;
use etx_base::value::{Decision, ExecStatus, Outcome, Request, ResultValue, Vote};
use std::sync::Arc;

/// One attempt's database-facing stage.
#[derive(Debug)]
pub enum Xa {
    /// `compute()`: the script runs one database call at a time, each an
    /// `Exec` that opens an XA branch iff `xa` and carries the client's
    /// watermark `floor`.
    Computing { request: Request, xa: bool, floor: u64, call_idx: usize, acc: Vec<(String, i64)> },
    /// `prepare()`: `votes[i]` is what `involved[i]` answered.
    Preparing { result: Arc<ResultValue>, involved: Vec<NodeId>, votes: Vec<Option<Vote>> },
    /// `terminate()`: `acked[i]` once `targets[i]` acknowledged the decision;
    /// `retry` is the `TerminateRetry` timer armed last, cancelled by the
    /// last acknowledgement.
    Terminating {
        decision: Decision,
        targets: Vec<NodeId>,
        acked: Vec<bool>,
        retry: Option<TimerId>,
    },
}

/// A stage just entered — and its [`Step`], if with no call to make or
/// nobody to wait for it ended at once.
pub type Entered = (Xa, Option<Step>);

/// What a stage hands its server when it ends.
#[derive(Debug)]
pub enum Step {
    /// `compute()` returned: the result and the databases that must vote on
    /// it; `conflict` if a lock conflict cut the script short.
    Computed { result: ResultValue, involved: Vec<NodeId>, conflict: bool },
    /// `prepare()` returned: commit iff every involved database voted yes.
    Voted { decision: Decision, targets: Vec<NodeId> },
    /// `terminate()` returned: every target acknowledged the decision.
    Terminated { decision: Decision, targets: Vec<NodeId> },
}

impl Xa {
    /// Figure 5 `compute()`: starts running `request`'s script, its result
    /// sized once ([`resultbuild::accumulator`]). Every `Exec` carries
    /// `floor`, the caller's watermark for the client (0 for none): the
    /// databases forget what is settled below it.
    pub fn compute(
        ctx: &mut dyn Context,
        rid: ResultId,
        request: Request,
        xa: bool,
        floor: u64,
    ) -> Entered {
        let acc = resultbuild::accumulator(&request.script.calls);
        let mut stage = Xa::Computing { request, xa, floor, call_idx: 0, acc };
        let step = stage.run(ctx, rid, None);
        (stage, step)
    }

    /// The awaited `ExecReply`: its outputs join the result and the script
    /// moves on. A lock conflict ends it where it stands — the refused
    /// branch will vote no.
    pub fn exec_reply(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        status: ExecStatus,
    ) -> Option<Step> {
        let Xa::Computing { request, call_idx, acc, .. } = self else { return None };
        match status {
            ExecStatus::Done(outputs) => {
                resultbuild::accumulate(request.script.calls.get(*call_idx)?, &outputs, acc);
                *call_idx += 1;
                self.run(ctx, rid, None)
            }
            ExecStatus::Conflict => self.run(ctx, rid, Some("conflict")),
        }
    }

    /// Sends the script's current call. With none left — or the script cut
    /// short, and a `note` of why left in the result — `compute()` returns
    /// (Figure 5 line 8): the one place a computed result is built.
    fn run(&mut self, ctx: &mut dyn Context, rid: ResultId, note: Option<&str>) -> Option<Step> {
        let Xa::Computing { request, xa, floor, call_idx, acc } = self else { return None };
        if let (None, Some(call)) = (note, request.script.calls.get(*call_idx)) {
            let (ops, xa, floor) = (call.ops.clone(), *xa, *floor);
            ctx.send(call.db, Payload::Db(DbMsg::Exec { rid, ops, xa, floor }));
            return None;
        }
        acc.extend(note.map(|why| (why.to_string(), 1)));
        let result = resultbuild::finish(std::mem::take(acc), rid.attempt);
        ctx.trace(TraceKind::Computed { rid });
        let (involved, conflict) = (request.script.databases(), note == Some("conflict"));
        Some(Step::Computed { result, involved, conflict })
    }

    /// Figure 4 `prepare()`: asks every involved database for its vote.
    /// With nobody to ask the answer is a vacuous all-yes.
    pub fn prepare(
        ctx: &mut dyn Context,
        rid: ResultId,
        result: ResultValue,
        involved: Vec<NodeId>,
    ) -> Entered {
        let cross = involved.len() > 1;
        for &db in &involved {
            ctx.send(db, Payload::Db(DbMsg::Prepare { rid, cross }));
        }
        let votes = vec![None; involved.len()];
        let mut stage = Xa::Preparing { result: Arc::new(result), involved, votes };
        let step = stage.count_votes();
        (stage, step)
    }

    /// A vote arrived. One from a database that is not involved is
    /// ignored, and an answer already in stands.
    pub fn vote(&mut self, from: NodeId, vote: Vote) -> Option<Step> {
        let Xa::Preparing { involved, votes, .. } = self else { return None };
        votes[involved.iter().position(|d| *d == from)?].get_or_insert(vote);
        self.count_votes()
    }

    /// Figure 4 `prepare()` line 5, once the last vote is in: commit iff
    /// every database voted yes. The stage hands its state on.
    fn count_votes(&mut self) -> Option<Step> {
        let Xa::Preparing { result, involved, votes } = self else { return None };
        if votes.contains(&None) {
            return None;
        }
        let all_yes = votes.iter().all(|v| *v == Some(Vote::Yes));
        let outcome = if all_yes { Outcome::Commit } else { Outcome::Abort };
        let decision = Decision { result: Some(Arc::clone(result)), outcome };
        Some(Step::Voted { decision, targets: std::mem::take(involved) })
    }

    /// Figure 4 `terminate()`: holds `decision` until every target has
    /// acknowledged it, pushing it again every `period` on the attempt's
    /// own `TerminateRetry` timer (armed here; the server routes the firings
    /// to [`Xa::retry`], and the last acknowledgement cancels it). A server
    /// that sends the first push itself, in a `Decide` shared with other
    /// attempts, passes `first_push: false`.
    pub fn terminate(
        ctx: &mut dyn Context,
        rid: ResultId,
        decision: Decision,
        targets: Vec<NodeId>,
        period: Dur,
        first_push: bool,
    ) -> Entered {
        let acked = vec![false; targets.len()];
        let mut stage = Xa::Terminating { decision, targets, acked, retry: None };
        let step = stage.count_acks(ctx);
        if step.is_none() {
            if first_push {
                stage.push(ctx, rid, None);
            }
            stage.arm(ctx, rid, period);
        }
        (stage, step)
    }

    /// Arms the attempt's next `TerminateRetry` and keeps its id.
    fn arm(&mut self, ctx: &mut dyn Context, rid: ResultId, period: Dur) {
        if let Xa::Terminating { retry, .. } = self {
            *retry = Some(ctx.set_timer(period, TimerTag::TerminateRetry { rid }));
        }
    }

    /// Pushes the decision to the targets that have not acknowledged it —
    /// to `only` this one of them, if given.
    fn push(&self, ctx: &mut dyn Context, rid: ResultId, only: Option<NodeId>) {
        let Xa::Terminating { decision, targets, acked, .. } = self else { return };
        for (&db, &acked) in targets.iter().zip(acked) {
            if !acked && only.is_none_or(|o| o == db) {
                ctx.send(db, Payload::Db(DbMsg::decide_one(rid, decision.outcome)));
            }
        }
    }

    /// The attempt's `TerminateRetry` fired (`terminate()`'s repeat loop).
    pub fn retry(&mut self, ctx: &mut dyn Context, rid: ResultId, period: Dur) {
        if matches!(self, Xa::Terminating { .. }) {
            self.push(ctx, rid, None);
            self.arm(ctx, rid, period);
        }
    }

    /// A decide acknowledgement arrived; a stranger's is ignored.
    pub fn ack(&mut self, ctx: &mut dyn Context, from: NodeId) -> Option<Step> {
        let Xa::Terminating { targets, acked, .. } = self else { return None };
        acked[targets.iter().position(|d| *d == from)?] = true;
        self.count_acks(ctx)
    }

    /// `terminate()` returns once every target acknowledged: its retry
    /// timer has nothing left to push, and is cancelled.
    fn count_acks(&mut self, ctx: &mut dyn Context) -> Option<Step> {
        let Xa::Terminating { decision, targets, acked, retry } = self else { return None };
        if acked.contains(&false) {
            return None;
        }
        if let Some(id) = retry.take() {
            ctx.cancel_timer(id);
        }
        Some(Step::Terminated { decision: decision.clone(), targets: std::mem::take(targets) })
    }

    /// `[Ready]` from `db` (Figure 4): it crashed and came back, and what
    /// it had not made durable for this attempt is gone. An awaited `Exec`
    /// died with it: `compute()` returns with a recovery notice, and the
    /// vote will refuse. A missing vote counts as a reply (`prepare()`
    /// line 4) — no, an unprepared branch did not survive. A missing
    /// acknowledgement gets the decision pushed again (`terminate()` lines
    /// 4–5).
    pub fn ready(&mut self, ctx: &mut dyn Context, rid: ResultId, db: NodeId) -> Option<Step> {
        match self {
            Xa::Computing { request, call_idx, .. } => {
                let awaited = request.script.calls.get(*call_idx).is_some_and(|c| c.db == db);
                awaited.then(|| self.run(ctx, rid, Some("db_recovered")))?
            }
            Xa::Preparing { .. } => self.vote(db, Vote::No),
            Xa::Terminating { .. } => {
                self.push(ctx, rid, Some(db));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use etx_base::ids::RequestId;
    use etx_base::value::{DbCall, DbOp, OpOutput, RequestScript};

    const A: NodeId = NodeId(10);
    const B: NodeId = NodeId(11);
    const STRANGER: NodeId = NodeId(12);
    const PERIOD: Dur = Dur::from_millis(10);

    fn rid(seq: u64) -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq })
    }

    /// A request adding 1 to one key at each of `dbs`, in order.
    fn request(seq: u64, dbs: &[NodeId]) -> Request {
        let call = |&db| DbCall::new(db, vec![DbOp::Add { key: format!("k{}", db.0), delta: 1 }]);
        Request {
            id: rid(seq).request,
            script: RequestScript::from_calls(dbs.iter().map(call).collect()),
        }
    }

    fn done() -> ExecStatus {
        ExecStatus::Done(vec![OpOutput::Updated(1)])
    }

    /// The decides sent so far, as `(attempt, database)`.
    fn decides(ctx: &Recorder) -> Vec<(ResultId, NodeId)> {
        let decide = |(to, p): &(NodeId, Payload)| match p {
            Payload::Db(DbMsg::Decide { entries, slot: None }) => Some((entries[0].0, *to)),
            _ => None,
        };
        ctx.sent.iter().filter_map(decide).collect()
    }

    /// An attempt pushing `commit` at `targets`, its first push included.
    fn terminating(ctx: &mut Recorder, seq: u64, targets: &[NodeId]) -> Xa {
        let decision = Decision::commit(ResultValue::default());
        let (xa, step) = Xa::terminate(ctx, rid(seq), decision, targets.to_vec(), PERIOD, true);
        assert!(step.is_none(), "somebody is waited for");
        xa
    }

    #[test]
    fn compute_walks_the_script_and_traces_computed_once() {
        let mut ctx = Recorder::default();
        let (mut xa, step) = Xa::compute(&mut ctx, rid(1), request(1, &[A, B]), true, 0);
        assert!(step.is_none());
        assert!(xa.exec_reply(&mut ctx, rid(1), done()).is_none(), "one call left");
        let execs: Vec<NodeId> = ctx.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(execs, [A, B], "one Exec at a time, in script order");
        assert!(ctx.traced.is_empty());
        let Some(Step::Computed { result, involved, conflict }) =
            xa.exec_reply(&mut ctx, rid(1), done())
        else {
            panic!("the last reply returns from compute()");
        };
        assert_eq!((involved, conflict), (vec![A, B], false));
        assert_eq!((result.field("k10"), result.field("k11")), (Some(1), Some(1)));
        assert_eq!(ctx.traced, [TraceKind::Computed { rid: rid(1) }]);
        assert!(xa.exec_reply(&mut ctx, rid(1), done()).is_none(), "a late reply folds nothing");

        // A conflict ends the script where it stands, and says so.
        let (mut xa, _) = Xa::compute(&mut ctx, rid(2), request(2, &[A, B]), true, 0);
        let Some(Step::Computed { result, involved, conflict: true }) =
            xa.exec_reply(&mut ctx, rid(2), ExecStatus::Conflict)
        else {
            panic!("a conflict returns from compute()");
        };
        assert_eq!((involved, result.field("conflict")), (vec![A, B], Some(1)));
    }

    #[test]
    fn a_finished_result_is_kept_at_its_length() {
        for dbs in [&[A][..], &[A, B]] {
            let mut ctx = Recorder::default();
            let (mut xa, _) = Xa::compute(&mut ctx, rid(1), request(1, dbs), true, 0);
            let step = dbs.iter().find_map(|_| xa.exec_reply(&mut ctx, rid(1), done()));
            let Some(Step::Computed { result, .. }) = step else { panic!("compute() returns") };
            assert_eq!(result.entries.len(), dbs.len() + 1, "one entry per key, and the attempt");
            assert_eq!(result.entries.capacity(), result.entries.len(), "{} key(s)", dbs.len());
        }
    }

    #[test]
    fn a_stage_with_nobody_to_wait_for_ends_as_it_is_entered() {
        let mut ctx = Recorder::default();
        let (_, step) = Xa::compute(&mut ctx, rid(1), request(1, &[]), true, 0);
        let Some(Step::Computed { result, involved, .. }) = step else { panic!("empty script") };
        let (_, step) = Xa::prepare(&mut ctx, rid(1), result, involved);
        let Some(Step::Voted { decision, targets }) = step else { panic!("nobody votes") };
        assert_eq!(decision.outcome, Outcome::Commit, "vacuously all-yes");
        let (_, step) = Xa::terminate(&mut ctx, rid(1), decision, targets, PERIOD, true);
        assert!(matches!(step, Some(Step::Terminated { .. })));
        assert!(ctx.sent.is_empty() && ctx.timers.is_empty(), "nothing to send or to retry");
        assert!(ctx.cancelled.is_empty());
    }

    #[test]
    fn the_vote_is_all_yes_or_abort_and_only_the_involved_are_counted() {
        let mut ctx = Recorder::default();
        let prepare =
            |ctx: &mut Recorder| Xa::prepare(ctx, rid(1), ResultValue::default(), vec![A, B]).0;
        let mut xa = prepare(&mut ctx);
        let prepares: Vec<_> = ctx.sent.drain(..).collect();
        let cross = |to| (to, Payload::Db(DbMsg::Prepare { rid: rid(1), cross: true }));
        assert_eq!(prepares, [cross(A), cross(B)]);
        assert!(xa.vote(STRANGER, Vote::No).is_none(), "not involved: not counted");
        assert!(xa.vote(A, Vote::Yes).is_none());
        assert!(xa.vote(A, Vote::No).is_none(), "a duplicate neither counts nor overrules");
        let Some(Step::Voted { decision, targets }) = xa.vote(B, Vote::Yes) else {
            panic!("the last vote returns from prepare()");
        };
        assert_eq!((decision.outcome, targets), (Outcome::Commit, vec![A, B]));

        let mut xa = prepare(&mut ctx);
        assert!(xa.vote(B, Vote::No).is_none());
        let Some(Step::Voted { decision, .. }) = xa.vote(A, Vote::Yes) else { panic!("all in") };
        assert_eq!(decision.outcome, Outcome::Abort, "one refusal aborts");
    }

    /// N attempts terminating against a silent database: one period is N
    /// re-pushes and N re-armed timers, each attempt's own — a period's
    /// cost grows with the attempts that are open, not with their square.
    #[test]
    fn one_period_re_pushes_each_attempt_once_on_its_own_timer() {
        const N: u64 = 5;
        let mut ctx = Recorder::default();
        let mut stages: Vec<Xa> = (1..=N).map(|seq| terminating(&mut ctx, seq, &[A])).collect();
        let per_attempt: Vec<_> = (1..=N).map(|seq| (rid(seq), A)).collect();
        let timers: Vec<_> =
            (1..=N).map(|seq| (PERIOD, TimerTag::TerminateRetry { rid: rid(seq) })).collect();
        assert_eq!((decides(&ctx), &ctx.timers), (per_attempt.clone(), &timers), "first pushes");
        ctx.sent.clear();
        ctx.timers.clear();
        for (seq, xa) in (1..=N).zip(&mut stages) {
            xa.retry(&mut ctx, rid(seq), PERIOD);
        }
        assert_eq!((decides(&ctx), &ctx.timers), (per_attempt, &timers), "one period later");
    }

    #[test]
    fn a_duplicate_ack_and_a_strangers_ack_change_nothing() {
        let mut ctx = Recorder::default();
        let mut xa = terminating(&mut ctx, 1, &[A, B]);
        assert!(xa.ack(&mut ctx, STRANGER).is_none());
        assert!(xa.ack(&mut ctx, A).is_none());
        assert!(xa.ack(&mut ctx, A).is_none(), "A twice is not A and B");
        ctx.sent.clear();
        xa.retry(&mut ctx, rid(1), PERIOD);
        assert_eq!(decides(&ctx), [(rid(1), B)], "exactly the unacknowledged target");
        let Some(Step::Terminated { decision, targets }) = xa.ack(&mut ctx, B) else {
            panic!("the last ack returns from terminate()");
        };
        assert_eq!((decision.outcome, targets), (Outcome::Commit, vec![A, B]));
    }

    /// The retry timer lives exactly as long as somebody owes an ack: the
    /// last ack cancels the one `terminate()` or its latest retry armed.
    #[test]
    fn the_last_ack_cancels_the_retry_timer_armed_last() {
        let mut ctx = Recorder::default();
        let mut xa = terminating(&mut ctx, 1, &[A, B]);
        assert!(xa.ack(&mut ctx, A).is_none());
        assert!(ctx.cancelled.is_empty(), "B still owes its ack");
        xa.retry(&mut ctx, rid(1), PERIOD);
        let armed = ctx.last_timer();
        assert_eq!(armed, TimerId(2), "terminate() armed one, the retry another");
        assert!(xa.ack(&mut ctx, B).is_some());
        assert!(xa.ack(&mut ctx, B).is_none(), "a late duplicate is nobody's");
        assert_eq!(ctx.cancelled, [armed]);

        let mut xa = terminating(&mut ctx, 2, &[A]);
        let armed = ctx.last_timer();
        assert!(xa.ack(&mut ctx, A).is_some());
        assert_eq!(ctx.cancelled[1..], [armed], "no retry fired: terminate()'s own");
    }

    #[test]
    fn ready_applies_figure_4_to_whichever_stage_the_attempt_is_in() {
        let mut ctx = Recorder::default();
        // compute(): only the database whose reply is awaited matters.
        let (mut xa, _) = Xa::compute(&mut ctx, rid(1), request(1, &[A, B]), true, 0);
        assert!(xa.ready(&mut ctx, rid(1), B).is_none(), "B's call was not sent yet");
        let Some(Step::Computed { result, involved, .. }) = xa.ready(&mut ctx, rid(1), A) else {
            panic!("the awaited Exec died with A");
        };
        assert_eq!((result.field("db_recovered"), ctx.traced.len()), (Some(1), 1));
        // prepare(): a missing vote becomes a no, a vote already in stands.
        let (mut xa, _) = Xa::prepare(&mut ctx, rid(1), result, involved);
        assert!(xa.vote(B, Vote::Yes).is_none());
        assert!(
            xa.ready(&mut ctx, rid(1), B).is_none()
                && xa.ready(&mut ctx, rid(1), STRANGER).is_none()
        );
        let Some(Step::Voted { decision, targets }) = xa.ready(&mut ctx, rid(1), A) else {
            panic!("Ready counts as A's reply");
        };
        assert_eq!(decision.outcome, Outcome::Abort);
        // terminate(): the decision goes again to a target that still owes
        // its acknowledgement, and to no one else.
        let (mut xa, _) = Xa::terminate(&mut ctx, rid(1), decision, targets, PERIOD, false);
        assert!(decides(&ctx).is_empty(), "the first push was the caller's");
        assert!(xa.ack(&mut ctx, B).is_none());
        for db in [A, B, STRANGER] {
            assert!(xa.ready(&mut ctx, rid(1), db).is_none());
        }
        assert_eq!(decides(&ctx), [(rid(1), A)]);
    }
}
