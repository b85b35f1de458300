//! The read fast lane of the application server.
//!
//! The write-once `regD` contract exists to make retries of *effectful*
//! transactions safe; a read-only script (all `Get`s) is idempotent and
//! needs none of it. With [`etx_base::config::ReadPathConfig::enabled`],
//! the **first attempt** of such a script is classified after shard routing
//! and sent around the whole pipeline as direct snapshot reads against the
//! shard replicas — no ownership race, no votes, no decision-log slot, no
//! termination push. Follower reads are gated on a per-shard freshness
//! stamp: the highest commit-ship position this server has observed (decide
//! acknowledgements), max-folded with the client's causality token
//! (stamps carried on every request), so a lagging follower forwards
//! rather than serve stale state and read-your-writes survives client
//! failover. Multi-shard reads additionally run the snapshot-validation
//! loop documented on `ReadState`, which is what makes a cross-shard
//! fan-out read transactionally atomic rather than a fractured per-shard
//! sample.
//!
//! An attempt has one path. Validation that cannot converge within
//! [`SNAPSHOT_ROUNDS`] collects *ends* the attempt ([`ReadEnd::Exhausted`]):
//! the server answers abort, and the client's next attempt — whose number
//! keeps it out of the lane — takes the locking commit path, whose XA read
//! locks make it atomic under any contention, under ordinary ownership
//! arbitration. Nothing here reaches back into the attempt state machine:
//! [`ReadEnd`] is all [`crate::AppServer`] sees of a read.

use etx_base::attempts::AttemptWindows;
use etx_base::config::ProtocolConfig;
use etx_base::ids::{NodeId, ResultId, TimerId};
use etx_base::msg::{DbMsg, Payload};
use etx_base::runtime::{Context, TimerTag};
use etx_base::shard::ShardMap;
use etx_base::time::{Dur, Time};
use etx_base::trace::TraceKind;
use etx_base::value::{DbCall, OpOutput, ResultValue};
use std::collections::BTreeMap;

/// Collects a multi-shard read may issue before it ends in
/// [`ReadEnd::Exhausted`]. One collect plus one validation is the minimum
/// that can ever accept; only contended keyspaces retry at all.
const SNAPSHOT_ROUNDS: u32 = 4;

/// How a lane read ended.
#[derive(Debug)]
pub(crate) enum ReadEnd {
    /// An accepted collect: the per-shard outputs merged into one result
    /// (the read-only analogue of `compute()` returning), and the serving
    /// positions, which ride along as the client's causality stamps.
    Snapshot { result: ResultValue, stamps: Vec<(NodeId, u64)> },
    /// Snapshot validation exhausted its collect budget (keys too hot to
    /// catch standing still) after `rounds` collects.
    Exhausted { rounds: u32 },
}

/// One routed call of an in-flight read.
#[derive(Debug)]
struct Call {
    call: DbCall,
    /// Read-your-writes floor: the highest position the issuing *client's*
    /// causality token carried for the call's shard. In lease mode this —
    /// not the server-wide stamp — is the `min_seq` a follower-routed call
    /// is gated on: an in-lease follower's prefix is authoritative, so the
    /// only staleness that matters is relative to what this client has
    /// itself observed.
    floor: u64,
    /// The freshness stamp the call was sent with (the position this
    /// server had observed for the target at send time). If the reply's
    /// position still equals it, the shard committed nothing between the
    /// stamp's observation and the read — which lets the **first** collect
    /// accept without a validation round (see `reply`).
    stamp: u64,
    /// `None` until the call's `ReadReply` of the current collect arrives.
    outputs: Option<Vec<OpOutput>>,
    /// Serving replica's commit position (valid where `outputs` is `Some`).
    pos: u64,
    /// The previous completed collect's position (`None` until one collect
    /// completes).
    prev: Option<u64>,
}

/// One in-flight fast-path read: the routed calls of a read-only script
/// and the per-call outputs collected so far. No consensus state, no
/// termination targets — nothing here needs surviving this server, because
/// reads are idempotent and the client's retry machinery re-runs them
/// anywhere.
///
/// Multi-shard reads additionally run **snapshot validation** over the
/// collected rounds: a collect is accepted only when every shard's commit
/// position matches the previous collect and no read key had an in-doubt
/// write. Because a collect only starts after every reply of its
/// predecessor arrived, two agreeing collects bracket an instant at which
/// all returned values held simultaneously — and the in-doubt check rules
/// out a cross-shard transaction that had committed at some shards but was
/// still prepared at another. That is exactly the fractured read the
/// locking slow path forbids, forbidden here without locks.
#[derive(Debug)]
struct ReadState {
    /// Routed per-shard calls, in script order.
    calls: Vec<Call>,
    /// Whether any reply of the current collect flagged an in-doubt write
    /// on a read key.
    indoubt: bool,
    /// Current collect round (0-based; echoed on the wire so replies from
    /// superseded rounds are dropped).
    round: u32,
    /// How many times the loss backstop has fired for this attempt (drives
    /// its exponential back-off).
    backoff: u32,
    /// The backstop's `ReadRetry` armed last; whichever way the read ends,
    /// it is cancelled.
    retry: Option<TimerId>,
}

/// Deterministic follower choice for a fast-path read: all replicas
/// derive the same pick for the same attempt/call, and distinct attempts
/// spread over the shard's followers.
fn read_pick(rid: ResultId, call: usize, n: usize) -> usize {
    let mut z = (u64::from(rid.request.client.0) << 40)
        ^ rid.request.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(rid.attempt) << 17)
        ^ ((call as u64) << 3);
    z ^= z >> 33;
    z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^= z >> 33;
    (z % n as u64) as usize
}

/// The lane's one routing rule: which node call `idx` of `rid`, addressed
/// at shard primary `db`, is sent to.
///
/// Single-shard reads spread deterministically over the shard's **whole
/// replica group** when follower reads are on — every replica's read lane
/// serves a slice of the read traffic, which is what multiplies read
/// capacity with the replication factor. A chosen follower serves locally
/// if it has caught up to the call's `min_seq` and forwards to the primary
/// otherwise. Multi-shard collects go straight to the shard primaries —
/// snapshot validation needs the authoritative positions — unless the
/// shard's lease is in force (`leased`): that makes the followers'
/// positions authoritative too, so the collect may spread as well, which
/// is the forward hop the lease exists to kill.
///
/// `salt` rotates the pick (0 when a collect opens; the retry backstop
/// passes its back-off count): the first re-send lands on a *different*
/// replica of the same shard — the unanswered one may be down, and its
/// crash is invisible here by design — and from the second firing on the
/// call escalates to the shard primary, which is always eventually
/// reachable.
#[allow(clippy::too_many_arguments)] // one input per routing dimension
fn route(
    shards: &ShardMap,
    follower_reads: bool,
    rid: ResultId,
    idx: usize,
    db: NodeId,
    multi: bool,
    leased: bool,
    salt: u32,
) -> NodeId {
    let to_primary = salt > 1 || (multi && !leased);
    if to_primary || !(follower_reads || leased) {
        return db;
    }
    match shards.shard_of_node(db).map(|shard| shards.replicas(shard)) {
        Some(replicas) if !replicas.is_empty() => {
            let n = replicas.len();
            replicas[(read_pick(rid, idx, n) + salt as usize) % n]
        }
        _ => db,
    }
}

/// The application server's read fast lane: the in-flight lane reads, and
/// the freshness and lease tables their routing and validation consult
/// (which the commit path feeds and stamps its results from).
#[derive(Debug)]
pub(crate) struct ReadLane {
    me: NodeId,
    follower_reads: bool,
    leases: bool,
    /// Base period of the loss backstop.
    retry_period: Dur,
    shards: ShardMap,
    /// In-flight fast-path reads (read-only scripts routed around the
    /// commit pipeline).
    reads: AttemptWindows<ReadState>,
    /// Highest position observed per database node. Ordered so stamp
    /// vectors serialize deterministically.
    ///
    /// A **shard primary's** entry is the freshness stamp follower reads
    /// are gated on — the highest commit-ship position observed for the
    /// shard. Fed from three sides: decide acknowledgements this server
    /// received, every read reply for the shard, and the causality token
    /// each client request carries (stamps from results delivered to that
    /// client, possibly by *other* servers) — the latter is what keeps
    /// read-your-writes intact across client failover.
    ///
    /// A **follower's** entry is the latest applied position that replica
    /// itself reported (fed by its own read replies only). A
    /// follower-routed call of a leased collect validates `fresh` against
    /// this: positions are monotone, so a reply matching the last position
    /// this replica ever reported proves the replica stood still from that
    /// observation to the sample — an interval containing the send
    /// instant, exactly the common-instant bracket the primary-stamp
    /// argument uses. (Without it, a follower lagging the primary-fed
    /// stamp by even one apply forces every leased collect into a second
    /// validation round.)
    seq: BTreeMap<NodeId, u64>,
    /// Latest read-lease expiry advertised per shard primary (ridden on
    /// decide acknowledgements and primary-served read replies). While the
    /// advertisement is in force, the shard's followers hold a grant at
    /// most `renew_margin` older — so the read lane may route any call at
    /// them, including multi-shard snapshot-validation collects, without
    /// the forward hop. Only populated when leases are enabled.
    lease: BTreeMap<NodeId, Time>,
}

impl ReadLane {
    pub(crate) fn new(me: NodeId, cfg: &ProtocolConfig, shards: ShardMap) -> Self {
        ReadLane {
            me,
            follower_reads: cfg.features.read_path.follower_reads,
            leases: cfg.features.read_leases.enabled,
            retry_period: cfg.terminate_retry,
            shards,
            reads: AttemptWindows::new(),
            seq: BTreeMap::new(),
            lease: BTreeMap::new(),
        }
    }

    /// Whether `rid` is a read in flight here.
    pub(crate) fn contains(&self, rid: ResultId) -> bool {
        self.reads.get(rid).is_some()
    }

    /// Admits a read-only attempt: records its routed calls, each with the
    /// floor the client's causality `token` carries for its shard. The
    /// caller charges the dispatch cost and calls `dispatch` behind it.
    pub(crate) fn start(
        &mut self,
        ctx: &mut dyn Context,
        rid: ResultId,
        calls: Vec<DbCall>,
        token: &[(NodeId, u64)],
    ) {
        ctx.trace(TraceKind::ReadFastPath { rid, shards: calls.len() as u32 });
        let floor = |db| token.iter().filter(|(d, _)| *d == db).map(|&(_, seq)| seq).max();
        let calls = calls
            .into_iter()
            .map(|call| Call {
                floor: floor(call.db).unwrap_or(0),
                call,
                stamp: 0,
                outputs: None,
                pos: 0,
                prev: None,
            })
            .collect();
        let state = ReadState { calls, indoubt: false, round: 0, backoff: 0, retry: None };
        self.reads.insert(rid, state);
    }

    /// Fans a read out: one `Read` message per routed call, then arms the
    /// retry backstop (covers read targets that crash with the request in
    /// flight).
    pub(crate) fn dispatch(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        if self.contains(rid) {
            self.send_round(ctx, rid, 0);
            self.arm(ctx, rid, self.retry_period);
        }
    }

    /// Arms `rid`'s next backstop firing and keeps its id.
    fn arm(&mut self, ctx: &mut dyn Context, rid: ResultId, delay: Dur) {
        if let Some(state) = self.reads.get_mut(rid) {
            state.retry = Some(ctx.set_timer(delay, TimerTag::ReadRetry { rid }));
        }
    }

    /// Takes a read that ended out of flight; its backstop goes with it.
    fn finish(&mut self, ctx: &mut dyn Context, rid: ResultId) -> Option<ReadState> {
        let state = self.reads.remove(rid)?;
        if let Some(id) = state.retry {
            ctx.cancel_timer(id);
        }
        Some(state)
    }

    /// Sends every unanswered call of `rid`'s current collect, each stamped
    /// with the highest commit seq this server has observed for the target
    /// shard (client causality tokens folded in) and routed by [`route`].
    /// `salt == 0` opens a collect: every call is unanswered, and each
    /// records the stamp its reply is validated against. A backstop firing
    /// (`salt` = its back-off count) re-sends within the same collect and
    /// against the original stamps — see `retry` for why.
    fn send_round(&mut self, ctx: &mut dyn Context, rid: ResultId, salt: u32) {
        let Some(state) = self.reads.get_mut(rid) else { return };
        let (now, multi, round) = (ctx.now(), state.calls.len() > 1, state.round);
        let unanswered = state.calls.iter_mut().enumerate().filter(|(_, c)| c.outputs.is_none());
        for (idx, c) in unanswered {
            let db = c.call.db;
            let stamp = self.seq.get(&db).copied().unwrap_or(0);
            let leased = self.leases && self.lease.get(&db).is_some_and(|&through| through > now);
            let target =
                route(&self.shards, self.follower_reads, rid, idx, db, multi, leased, salt);
            // In lease mode a follower-routed call is gated on the issuing
            // client's own causality floor, not the server-wide stamp: the
            // in-lease follower's prefix is authoritative, so the only
            // staleness that matters is read-your-writes relative to this
            // client. Everywhere else the server-wide stamp gates as before.
            let min_seq = if leased && target != db { c.floor } else { stamp };
            let ops = c.call.ops.clone();
            let read =
                DbMsg::Read { rid, call: idx as u32, round, ops, min_seq, reply_to: self.me };
            ctx.send(target, Payload::Db(read));
            // The stamp `fresh` validates against is the last position the
            // *target node itself* reported: for a primary that is the
            // server-wide shard stamp; for a follower it is the replica's own
            // observed position (primary-fed stamps would run ahead of a
            // healthy follower by in-flight shipments and force a second
            // collect round). Either way the argument is the same — positions
            // are monotone, so a reply equal to a stamp observed before the
            // send proves the serving node stood still across an interval
            // containing the send instant.
            if salt == 0 {
                c.stamp = self.seq.get(&target).copied().unwrap_or(0);
            }
        }
    }

    /// A read call answered. Replies from superseded collect rounds are
    /// dropped (their samples predate the current round's start and would
    /// unsound the validation argument). Once the round is complete, a
    /// single-shard read finishes immediately — it sampled one replica at
    /// one instant, atomic by construction. A multi-shard read finishes
    /// only when the collect is provably a snapshot (see `accept` below);
    /// otherwise it re-collects, and after [`SNAPSHOT_ROUNDS`] collects it
    /// ends exhausted.
    #[allow(clippy::too_many_arguments)] // mirrors the ReadReply frame field-for-field
    pub(crate) fn reply(
        &mut self,
        ctx: &mut dyn Context,
        from: NodeId,
        rid: ResultId,
        call: u32,
        round: u32,
        outputs: Vec<OpOutput>,
        pos: u64,
        indoubt: bool,
        lease: Option<Time>,
    ) -> Option<ReadEnd> {
        // A primary-served reply advertises the shard's current lease
        // offer (followers send `None`) — fold it in even if the read
        // itself has already settled.
        self.observe_lease(from, lease);
        let state = self.reads.get_mut(rid)?; // else settled (or GC'd): a late duplicate
        if round != state.round {
            return None; // a superseded collect's answer
        }
        let slot = state.calls.get_mut(call as usize).filter(|c| c.outputs.is_none())?;
        slot.outputs = Some(outputs);
        slot.pos = pos;
        let db = slot.call.db;
        state.indoubt |= indoubt;
        // Every reply is also a freshness observation of its shard — and
        // of the specific replica that answered.
        self.observe(db, pos);
        self.observe(from, pos);
        let state = self.reads.get_mut(rid).expect("read still in flight");
        if state.calls.iter().any(|c| c.outputs.is_none()) {
            return None;
        }
        // The collect is complete — decide its fate. It is an atomic
        // snapshot when every shard provably stood still across an
        // interval containing one common instant:
        //
        // * `fresh` — each position equals the stamp this server had
        //   *already observed* before sending, so the shard committed
        //   nothing between that observation and the read; the common
        //   instant is the send. This is the one-round happy path (reads
        //   fold their positions back into the stamps, keeping them
        //   exact while traffic is read-dominated).
        // * `stable` — each position equals the previous collect's, so
        //   nothing committed between the two non-overlapping collects.
        //
        // Either way, an in-doubt key vetoes: a cross-shard transaction
        // already committed elsewhere but still prepared here is
        // half-applied without moving this shard's position.
        let multi = state.calls.len() > 1;
        let fresh = state.calls.iter().all(|c| c.pos == c.stamp);
        let stable = state.calls.iter().all(|c| c.prev == Some(c.pos));
        // Leases never weaken this rule: they only change *routing* (which
        // replica a call lands on), while acceptance stays
        // freshness/stability + the in-doubt veto. What makes the rule
        // sound against a follower that cannot see another shard's
        // prepared branches is server-side: a lease-granting primary
        // holds its yes vote on a cross-shard branch until its followers
        // acknowledge the branch's in-doubt intent (or every outstanding
        // lease lapses), so any collect observing the transaction's
        // effects anywhere postdates that release — and the stale shard's
        // in-lease follower then forwards into the primary's in-doubt
        // veto rather than serving the fractured half.
        let accept = !multi || (!state.indoubt && (fresh || stable));
        if accept {
            let state = self.finish(ctx, rid)?;
            let stamps = state.calls.iter().map(|c| (c.call.db, c.pos)).collect();
            let (calls, outs): (Vec<DbCall>, Vec<Vec<OpOutput>>) = state
                .calls
                .into_iter()
                .map(|c| (c.call, c.outputs.expect("all calls answered")))
                .unzip();
            let result = crate::resultbuild::merge_read(&calls, &outs, rid.attempt);
            return Some(ReadEnd::Snapshot { result, stamps });
        }
        let rounds = state.round + 1;
        if rounds >= SNAPSHOT_ROUNDS {
            self.finish(ctx, rid);
            return Some(ReadEnd::Exhausted { rounds });
        }
        // Start the next collect: remember this round's positions,
        // clear the slate, and re-sample every shard primary. The loss
        // backstop's back-off deliberately does NOT reset here: a
        // collect that just completed proves the lane is answering, so
        // there is no loss evidence to cover — and under a saturated
        // burst, re-arming the backstop at its base period once per
        // validation round turns queued-but-coming replies into
        // duplicate sends that feed the very queue delaying them
        // (measured: −28% commit/s on the primary route's 99%-read
        // leg). A genuinely lost re-send is still covered, just at the
        // already-backed-off cadence.
        for c in &mut state.calls {
            c.prev = Some(c.pos);
            c.outputs = None;
        }
        state.round = rounds;
        state.indoubt = false;
        // Re-collects follow first-dispatch routing: primaries by
        // default (authoritative positions make `stable` attainable),
        // in-lease followers when a lease is in force — a follower
        // standing still across two collects proves `stable` just as
        // soundly, since the vote-hold handshake pins any half-applied
        // cross-shard transaction behind its in-doubt veto. Each
        // re-send's freshly observed stamp replaces the stale one — a
        // shard that moved since the original dispatch can still prove
        // `fresh` against the position this server knows *now*.
        self.send_round(ctx, rid, 0);
        None
    }

    /// Retry backstop for fast-path reads (a crashed replica or a lost
    /// message must not stall an idempotent read). Re-sends exactly the
    /// unanswered calls of the current collect, *within the same collect
    /// epoch and against their original stamps*. Every stamp of the round
    /// still dates from the one dispatch instant, so the freshness
    /// argument is untouched (a reply matching its stamp proves the shard
    /// stood still from that shared instant to the sample, re-sent or
    /// not), collected replies keep their progress, and — crucially — a
    /// backstop firing on replies that are merely *queued* behind a busy
    /// lane never abandons them: the originals still land and fill their
    /// slots, the duplicates are dropped by the per-call fill guard.
    /// (An earlier draft restarted a fully unanswered collect as a fresh
    /// wire epoch with refreshed stamps; under a saturated burst that
    /// orphans every queued reply of the old epoch and re-queues the whole
    /// fan-out each firing — measured at −20..28% commit/s on the
    /// saturated 16-shard legs. The price of keeping the epoch is that a
    /// genuinely lost call whose shard moved during the timeout fails
    /// `fresh` and costs one validation round — and *that* round refreshes
    /// every stamp at a single instant, in `reply`, which is the
    /// only place a refresh is sound: completing a partially answered
    /// collect against refreshed stamps would mix observation instants
    /// with no common point, exactly the fractured cross-shard read the
    /// validation exists to forbid.)
    ///
    /// Routing is [`route`]'s with the back-off count as salt: rotate
    /// once, then the primary. The timer re-arms with exponential back-off
    /// while anything is pending — a reply that is merely queued behind a
    /// busy read lane should not draw repeated duplicate load onto the
    /// primaries.
    pub(crate) fn retry(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        let Some(state) = self.reads.get_mut(rid) else { return };
        state.backoff += 1;
        let backoff = state.backoff;
        ctx.trace(TraceKind::ReadRetried { rid, backoff });
        self.send_round(ctx, rid, backoff);
        let delay = Dur(self.retry_period.0.saturating_mul(1 << backoff.min(3)));
        self.arm(ctx, rid, delay);
    }

    /// Settled reads drop with the client's watermark.
    pub(crate) fn gc_below(&mut self, client: NodeId, ack_below: u64) {
        self.reads.below(client, ack_below, |_, _| false);
    }

    /// Folds an observed position of database node `db` — a decide
    /// acknowledgement's ship position, a client token's entry, a read
    /// reply's serving position — into the freshness table.
    pub(crate) fn observe(&mut self, db: NodeId, seq: u64) {
        let slot = self.seq.entry(db).or_insert(0);
        *slot = seq.max(*slot);
    }

    /// Folds a lease advertisement (ridden on a decide acknowledgement, a
    /// primary-served read reply or a bare renewal) into the lease table.
    pub(crate) fn observe_lease(&mut self, db: NodeId, lease: Option<Time>) {
        if let Some(through) = lease {
            let slot = self.lease.entry(db).or_insert(Time::ZERO);
            *slot = through.max(*slot);
        }
    }

    /// Every per-shard position this server has observed, as result
    /// stamps (cached-decision replies, where the original targets are no
    /// longer tracked, send the whole map — any valid observation may ride
    /// a result). A follower's entry speaks of that replica, not of its
    /// shard, and stays here.
    pub(crate) fn all_stamps(&self) -> Vec<(NodeId, u64)> {
        let follower =
            |db| self.shards.shard_of_node(db).is_some_and(|s| self.shards.primary(s) != db);
        self.seq.iter().filter(|(&db, _)| !follower(db)).map(|(&db, &seq)| (db, seq)).collect()
    }

    /// The observed positions for the given databases (termination replies
    /// stamp exactly the shards the decision touched).
    pub(crate) fn stamps_for(&self, dbs: &[NodeId]) -> Vec<(NodeId, u64)> {
        dbs.iter().filter_map(|db| self.seq.get(db).map(|&seq| (*db, seq))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use etx_base::config::{ReadLeaseConfig, ReadPathConfig};
    use etx_base::ids::RequestId;
    use etx_base::shard::ShardSpec;
    use etx_base::value::DbOp;

    /// Two shards × three replicas; index 0 of each group is the primary.
    const GROUPS: [[NodeId; 3]; 2] =
        [[NodeId(10), NodeId(11), NodeId(12)], [NodeId(20), NodeId(21), NodeId(22)]];

    fn lane(follower_reads: bool, leases: bool) -> ReadLane {
        let mut cfg = ProtocolConfig::default();
        cfg.features.read_path = if follower_reads {
            ReadPathConfig::follower_reads()
        } else {
            ReadPathConfig::primary_only()
        };
        cfg.features.read_leases =
            if leases { ReadLeaseConfig::on() } else { ReadLeaseConfig::disabled() };
        ReadLane::new(
            NodeId(2),
            &cfg,
            ShardMap::build(ShardSpec::Hash { shards: 2 }, &GROUPS.concat(), 3),
        )
    }

    fn rid(seq: u64) -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq })
    }

    /// One `Get` per shard of `GROUPS[..shards]`, addressed at the primary.
    fn calls(shards: usize) -> Vec<DbCall> {
        let get = |g: &[NodeId; 3]| DbCall::new(g[0], vec![DbOp::Get { key: "k".into() }]);
        GROUPS[..shards].iter().map(get).collect()
    }

    /// The `(target, call, min_seq)` of every `Read` sent since the last call.
    fn reads_sent(ctx: &mut Recorder) -> Vec<(NodeId, u32, u64)> {
        let read = |(to, p)| match p {
            Payload::Db(DbMsg::Read { call, min_seq, .. }) => Some((to, call, min_seq)),
            _ => None,
        };
        ctx.sent.drain(..).filter_map(read).collect()
    }

    #[test]
    fn the_router_is_one_table() {
        #[derive(Debug, PartialEq, Clone, Copy)]
        enum To {
            Primary,
            Spread,
        }
        use To::{Primary, Spread};
        // (calls, lease in force, follower_reads) → where a collect opens.
        // The back-off ladder is the same on every row: a spread call
        // rotates to the next replica of its group once, and from the
        // second firing on everything goes to the primary.
        let table = [
            (1, false, false, Primary),
            (1, false, true, Spread),
            (1, true, false, Spread),
            (1, true, true, Spread),
            (2, false, false, Primary),
            (2, false, true, Primary),
            (2, true, false, Spread),
            (2, true, true, Spread),
        ];
        for (shards, leased, follower_reads, opens) in table {
            let row =
                format!("{shards} shard(s), leased {leased}, follower_reads {follower_reads}");
            let mut followers_hit = 0;
            for seq in 1..=12 {
                let (mut lane, mut ctx) = (lane(follower_reads, leased), Recorder::default());
                for group in GROUPS {
                    // The recorder's clock stands at zero: `Time(1)` is in force.
                    lane.observe_lease(group[0], leased.then_some(Time(1)));
                }
                lane.start(&mut ctx, rid(seq), calls(shards), &[]);
                lane.dispatch(&mut ctx, rid(seq));
                let first = reads_sent(&mut ctx);
                lane.retry(&mut ctx, rid(seq));
                let rotated = reads_sent(&mut ctx);
                lane.retry(&mut ctx, rid(seq));
                let escalated = reads_sent(&mut ctx);
                assert_eq!(first.len(), shards, "{row}: one Read per call");
                for (idx, group) in GROUPS[..shards].iter().enumerate() {
                    let (target, call, _) = first[idx];
                    assert_eq!(call as usize, idx);
                    let at = group.iter().position(|&n| n == target).expect("stays in its group");
                    let next = match opens {
                        Primary => group[0],
                        Spread => group[(at + 1) % 3],
                    };
                    assert!(opens == Spread || at == 0, "{row}: opens at {target}");
                    assert_eq!(rotated[idx].0, next, "{row}: first firing");
                    assert_eq!(escalated[idx].0, group[0], "{row}: second firing");
                    followers_hit += usize::from(at != 0);
                }
            }
            assert_eq!(followers_hit > 0, opens == Spread, "{row}: spread over the group");
        }
    }

    #[test]
    fn one_position_table_holds_what_the_two_held() {
        let [primary, follower, other] = GROUPS[0];
        let (mut lane, mut ctx) = (lane(true, true), Recorder::default());
        lane.observe_lease(primary, Some(Time(1)));
        lane.observe(primary, 5); // a decide acknowledgement
        lane.observe(primary, 7); // a client token
        lane.observe(primary, 6); // a stale one: max-folded
        assert_eq!(lane.seq, BTreeMap::from([(primary, 7)]));
        // A leased single-shard read that opens at a follower: gated on the
        // client's floor, validated against that follower's own entry.
        let seq = (1..).find(|&seq| {
            route(&lane.shards, true, rid(seq), 0, primary, false, true, 0) == follower
        });
        let rid = rid(seq.expect("some attempt picks the follower"));
        lane.start(&mut ctx, rid, calls(1), &[(primary, 4)]);
        lane.dispatch(&mut ctx, rid);
        assert_eq!(reads_sent(&mut ctx), [(follower, 0, 4)]);
        let end = lane.reply(
            &mut ctx,
            follower,
            rid,
            0,
            0,
            vec![OpOutput::Value(Some(1))],
            3,
            false,
            None,
        );
        assert!(
            matches!(end, Some(ReadEnd::Snapshot { ref stamps, .. }) if stamps == &[(primary, 3)])
        );
        // The follower's reply is an observation of the shard (the primary's
        // entry, already ahead) and of the follower itself.
        assert_eq!(lane.seq, BTreeMap::from([(primary, 7), (follower, 3)]));
        // The primary's own replies feed only the primary's entry.
        lane.start(&mut ctx, ResultId { attempt: 2, ..rid }, calls(1), &[]);
        lane.reply(&mut ctx, primary, ResultId { attempt: 2, ..rid }, 0, 0, vec![], 9, false, None);
        assert_eq!(lane.seq, BTreeMap::from([(primary, 9), (follower, 3)]));
        assert_eq!(lane.seq.get(&other), None);
        // Results are stamped per shard: a replica's entry never rides one.
        assert_eq!(lane.stamps_for(&[primary, GROUPS[1][0]]), [(primary, 9)]);
        assert_eq!(lane.all_stamps(), [(primary, 9)]);
    }

    #[test]
    fn a_collect_that_never_stands_still_ends_exhausted() {
        let (mut lane, mut ctx) = (lane(false, false), Recorder::default());
        let (a, b) = (GROUPS[0][0], GROUPS[1][0]);
        lane.start(&mut ctx, rid(1), calls(2), &[]);
        lane.dispatch(&mut ctx, rid(1));
        // Shard `a` moves between every two collects, so no collect is
        // `fresh` (its stamp is one behind) or `stable`.
        for round in 0..SNAPSHOT_ROUNDS {
            assert_eq!(reads_sent(&mut ctx).len(), 2, "round {round} samples both shards");
            let pos = u64::from(round) + 1;
            assert!(lane.reply(&mut ctx, b, rid(1), 1, round, vec![], 0, false, None).is_none());
            let end = lane.reply(&mut ctx, a, rid(1), 0, round, vec![], pos, false, None);
            match end {
                None => assert!(round + 1 < SNAPSHOT_ROUNDS),
                Some(ReadEnd::Exhausted { rounds }) => assert_eq!((round + 1, rounds), (4, 4)),
                Some(end) => panic!("round {round}: {end:?}"),
            }
        }
        assert!(!lane.contains(rid(1)), "an exhausted read is over");
        assert!(reads_sent(&mut ctx).is_empty(), "and sends nothing more");
        assert_eq!(ctx.cancelled, [ctx.last_timer()], "nor keeps its backstop");
    }

    #[test]
    fn a_snapshot_cancels_the_backstop_armed_last() {
        let (mut lane, mut ctx) = (lane(false, false), Recorder::default());
        lane.start(&mut ctx, rid(1), calls(1), &[]);
        lane.dispatch(&mut ctx, rid(1));
        lane.retry(&mut ctx, rid(1));
        let armed = ctx.last_timer();
        assert_eq!(armed, TimerId(2), "the dispatch armed one, the firing another");
        let out = vec![OpOutput::Value(Some(1))];
        let end = lane.reply(&mut ctx, GROUPS[0][0], rid(1), 0, 0, out, 0, false, None);
        assert!(matches!(end, Some(ReadEnd::Snapshot { .. })));
        assert_eq!(ctx.cancelled, [armed]);
    }
}
