//! Clients for the comparison protocols.
//!
//! Unlike the e-Transaction client, these surface failures to the end user:
//! a timeout or an abort becomes an *exception* whose meaning is exactly the
//! ambiguity the paper's introduction complains about — "this does not
//! convey what had actually happened, and whether the actual request was
//! indeed performed or not".
//!
//! [`RetryPolicy::NaiveResend`] models what end users actually do with such
//! exceptions: retry. Under 2PC that can execute the request twice (the
//! "charged twice" motivation, §1) — test `exactly_once.rs` demonstrates it
//! against an identical crash schedule where e-Transactions stay
//! exactly-once.
//!
//! The mechanical attempt bookkeeping — plan walking, the `Issue` trace,
//! current-attempt identity, timer validity, stale-result filtering — comes
//! from the shared [`etx_base::retry`] driver, the same machinery the
//! e-Transaction client runs on. Baselines and the batched protocol
//! therefore *measure the same thing*; only the policy differs (single
//! patience timeout + give-up/naive-resend here).

use etx_base::ids::{NodeId, RequestId};
use etx_base::msg::{AppMsg, Payload};
use etx_base::retry::{AttemptDriver, IssuePlan, RetryTimer};
use etx_base::runtime::{Context, Event, Process, TimerTag};
use etx_base::time::Dur;
use etx_base::trace::TraceKind;
use etx_base::value::Outcome;

/// What to do when `issue()` would raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// At-most-once discipline: give up (deliver the exception).
    GiveUp,
    /// What real users do: resubmit the request as a fresh transaction, up
    /// to `max_retries` times. Under non-exactly-once protocols this risks
    /// duplicate execution.
    NaiveResend {
        /// Resubmission budget.
        max_retries: u32,
    },
}

/// A baseline client: sends each request to one server, waits with a
/// timeout, and treats aborts/timeouts per its [`RetryPolicy`].
pub struct SimpleClient {
    server: NodeId,
    timeout: Dur,
    policy: RetryPolicy,
    plan: IssuePlan,
    flight: Option<AttemptDriver>,
}

impl std::fmt::Debug for SimpleClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimpleClient").field("server", &self.server).finish()
    }
}

impl SimpleClient {
    /// Creates a client talking to `server` with the given patience and
    /// retry policy, issuing `plan` (a `Vec<Request>` is a plan too).
    pub fn new(
        server: NodeId,
        timeout: Dur,
        policy: RetryPolicy,
        plan: impl Into<IssuePlan>,
    ) -> Self {
        SimpleClient { server, timeout, policy, plan: plan.into(), flight: None }
    }

    fn issue_next(&mut self, ctx: &mut dyn Context) {
        match self.plan.issue_next(ctx) {
            Some(request) => {
                self.flight = Some(AttemptDriver::new(request));
                self.send_attempt(ctx);
            }
            None => self.flight = None,
        }
    }

    /// Sends the current attempt and arms the patience timeout. The client
    /// is sequential, so its GC watermark is the current sequence number.
    fn send_attempt(&mut self, ctx: &mut dyn Context) {
        let server = self.server;
        let timeout = self.timeout;
        let Some(driver) = &mut self.flight else { return };
        let ack_below = driver.request().id.seq;
        driver.send_to(ctx, server, ack_below, &[]);
        let rid = driver.rid();
        driver.arm(ctx, RetryTimer::Primary, timeout, TimerTag::ClientBackoff { rid });
    }

    fn give_up(&mut self, ctx: &mut dyn Context, request: RequestId) {
        ctx.trace(TraceKind::Exception { request });
        self.issue_next(ctx);
    }
}

impl Process for SimpleClient {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            Event::Init => self.issue_next(ctx),
            Event::Timer { id, tag: TimerTag::ClientBackoff { rid } } => {
                let Some(driver) = &mut self.flight else { return };
                if !driver.timer_is_current(RetryTimer::Primary, id, rid) {
                    return;
                }
                driver.clear(RetryTimer::Primary);
                let request = driver.request().id;
                match self.policy {
                    RetryPolicy::GiveUp => self.give_up(ctx, request),
                    RetryPolicy::NaiveResend { max_retries } => {
                        if driver.retries() < max_retries {
                            // The dangerous move: resubmit as a NEW attempt.
                            driver.next_attempt(ctx);
                            self.send_attempt(ctx);
                        } else {
                            self.give_up(ctx, request);
                        }
                    }
                }
            }
            Event::Message { payload: Payload::App(msg), .. } => match msg {
                AppMsg::Result { rid, decision, .. } => {
                    let Some(driver) = &mut self.flight else { return };
                    // Late results of earlier attempts still answer the
                    // request (at-most-once protocols have no attempt
                    // arbitration to wait for).
                    if !driver.same_request(rid) {
                        return;
                    }
                    driver.cancel_all(ctx);
                    match decision.outcome {
                        Outcome::Commit => {
                            ctx.trace(TraceKind::Deliver {
                                rid,
                                outcome: Outcome::Commit,
                                steps: ctx.depth(),
                            });
                        }
                        Outcome::Abort => {
                            // At-most-once protocols surface aborts to the
                            // user; there is no transparent retry here.
                            ctx.trace(TraceKind::Exception { request: rid.request });
                        }
                    }
                    self.issue_next(ctx);
                }
                AppMsg::Exception { request, .. } => {
                    let Some(driver) = &mut self.flight else { return };
                    if driver.request().id == request {
                        driver.cancel_all(ctx);
                        self.give_up(ctx, request);
                    }
                }
            },
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "simple-client"
    }
}
