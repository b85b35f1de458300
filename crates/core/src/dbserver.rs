//! The database-server process (Figure 3).
//!
//! A *pure server*: it never calls anyone, it only answers. It hosts an
//! [`etx_store::Engine`] (the XA resource manager) and implements the
//! paper's loop:
//!
//! * `[Prepare, j]` → `vote(j)` → `[Vote, j, vote]`;
//! * `[Decide, j, outcome]` → `terminate(j, outcome)` → `[AckDecide, j]`,
//!   for every `j` a message names — one entry is the paper's message;
//! * on recovery, broadcast `[Ready]` to all application servers (Figure 3
//!   line 2) — the crash-notification scheme §5 describes.
//!
//! Service times are modelled here, where the work happens: SQL execution,
//! prepare and commit costs are drawn from the cost model (with jitter) and
//! charged by delaying the reply; each charge is recorded as a latency
//! [`Component`] span so the harness can rebuild Figure 8's rows.
//!
//! The log records the engine returns are the one statement of what a
//! decide did: an entry the engine changed yields exactly one `DbOutcome`
//! record, and an entry it only answered (a re-delivery, a settled
//! attempt, a commit for a branch this database never held) yields none.
//! The `DbDecide` traces, the commit-processing charge and the `Commit`
//! spans are read off those records, whatever path — ordinary, promoted
//! speculation, one-phase commit — produced them.
//!
//! Two kinds of work are charged differently. SQL execution runs on the
//! database's many connections, so concurrent `Exec`s overlap freely.
//! Prepare and commit/abort processing *include the database's own log
//! force* (the paper's 19 ms prepare and 18 ms commit rows), and a log
//! device is a **serial** resource: concurrent commitment work queues
//! behind a per-server busy horizon. That serialisation is precisely why
//! group commit pays — a `Decide` claims the log once for all its entries,
//! where the same outcomes arriving as N one-entry messages would occupy
//! it N times.

use etx_base::config::{CostModel, FeatureSet};
use etx_base::ids::{NodeId, ResultId};
use etx_base::msg::{DbMsg, DbReplyMsg, Payload, ReplMsg};
use etx_base::runtime::{jittered, Context, Event, Process, TimerTag};
use etx_base::time::{Dur, Time};
use etx_base::trace::{Component, Forwarded, TraceKind};
use etx_base::value::{Outcome, Vote};
use etx_base::wal::{StableRecord, LOG_WAL};
use etx_store::{Engine, LogWrite, Promotion};
use std::collections::{BTreeMap, BTreeSet};

/// A database server's place in its shard replica group.
///
/// The **primary** executes and prepares the shard's XA branches and ships
/// every committed write set to its followers asynchronously — replication
/// stays off the transaction's critical path, mirroring the paper's core
/// move of replacing synchronous I/O with asynchronous replication. A
/// **follower** applies shipped commits in sequence order and catches up
/// via a snapshot pull after recovering from a crash.
#[derive(Debug, Clone, Default)]
pub struct ReplRole {
    /// Followers to ship committed write sets to (primary role).
    pub followers: Vec<NodeId>,
    /// The shard primary to pull snapshots from (follower role; `None`
    /// when this server is the primary or the group has size 1).
    pub sync_from: Option<NodeId>,
    /// How often a catching-up follower re-requests a snapshot until one
    /// arrives (covers a primary that is itself down).
    pub sync_retry: Dur,
}

/// The back-end tier process: an XA engine behind the paper's Figure 3 loop.
pub struct DbServer {
    alist: Vec<NodeId>,
    cost: CostModel,
    engine: Engine,
    seed_data: Vec<(String, i64)>,
    repl: ReplRole,
    /// Follower role: a snapshot pull is in flight (cleared by `SyncState`).
    awaiting_sync: bool,
    /// When the serial commitment path (prepare/commit processing, i.e. the
    /// log device) frees up. Volatile: a crash empties the queue with the
    /// rest of the in-flight work.
    log_busy_until: Time,
    /// When the serial snapshot-read lane (the replica's query executor)
    /// frees up. Separate from the log device: reads never force the log,
    /// and commitment work never waits behind reads. This per-replica lane
    /// is what follower reads multiply — every replica serving reads adds
    /// one more lane.
    read_busy_until: Time,
    /// The deployment's feature set; this tier reads two of its parts.
    /// With `speculation` off (the default) `SpecExec` frames are ignored
    /// (they are purely advisory); with `read_leases` off there are no
    /// grants, no renewal timer, no lease advertised on any outgoing
    /// message, and reads are gated by position stamps alone.
    features: FeatureSet,
    /// Primary role: the latest lease expiry offered to this shard's
    /// followers (what decide acknowledgements and primary-served read
    /// replies advertise to application servers). Volatile — which is why
    /// recovery installs [`DbServer::lease_fence`] instead of trusting it.
    lease_granted: Time,
    /// Follower role: the instant through which this replica's applied
    /// prefix is authoritative (granted by the primary, renewed by
    /// piggyback on commit shipments and by bare `LeaseRenew` frames).
    /// Serving a fast-path read past this instant is forbidden.
    lease_through: Time,
    /// Primary role, recovery only: commit acknowledgements are withheld
    /// until this instant, by which point every lease the pre-crash
    /// incarnation could have granted has expired — a deposed primary's
    /// leases drain before the recovered one acknowledges its first write.
    lease_fence: Time,
    /// Primary role: cross-shard XA branches currently live here (from
    /// `Prepare` until their decide arrives), plus WAL-recovered prepared
    /// branches after a crash. Lease renewal is **withheld** while this is
    /// non-empty: a grant minted mid-branch would extend the window a
    /// held vote must wait out, and the intent-staleness rule (a renewal
    /// clears intents older than its mint) leans on every mint postdating
    /// the settlement of everything prepared before it. Only populated
    /// when leases are enabled.
    unsettled_xa: BTreeSet<ResultId>,
    /// Primary role: yes votes on cross-shard branches being withheld
    /// until every follower acknowledges the branch's [`ReplMsg::Intent`]
    /// — or until the escape horizon at which every lease outstanding
    /// when the vote was computed has provably lapsed. This is the
    /// soundness linchpin of follower-served collects: a decide can only
    /// postdate its votes, so by the time *any* shard applies the
    /// transaction, every in-lease follower of this shard either knows
    /// the branch is in doubt (and forwards reads into the primary's
    /// in-doubt veto) or holds no valid lease at all. Volatile: a crash
    /// drops held votes with the rest of the in-flight work, and the
    /// cleaner aborts the orphaned branches.
    held_votes: BTreeMap<ResultId, HeldVote>,
    /// Follower role: cross-shard branches announced as in doubt by this
    /// shard's primary ([`ReplMsg::Intent`]) and not yet resolved. While
    /// any intent is live the follower forwards fast-path reads to the
    /// primary — the coarse, conservative counterpart of the primary's
    /// key-level in-doubt veto. An intent resolves when the branch's
    /// commit applies here, or when a lease renewal minted after the
    /// branch settled arrives (which is how aborts — whose outcome never
    /// ships — get cleared). Volatile, like the lease it guards.
    live_intents: BTreeMap<ResultId, Time>,
    /// Follower role: the grant floor of the lease held ([`ReplMsg::
    /// LeaseRenew::floor`]): serving under the lease additionally requires
    /// the applied position to have reached it, so a bare renewal can
    /// never re-authorize a prefix that lost a commit shipment.
    lease_floor: u64,
    /// Records still to append before the next WAL checkpoint (see
    /// [`DbServer::checkpoint_if_due`]). Volatile: a recovered incarnation
    /// counts the records it read back against its first one.
    wal_due: usize,
}

/// The fewest records a database appends to its WAL between two
/// checkpoints. Past it the gap is the size of the last image, so copying
/// images costs O(1) per appended record and the log holds O(image)
/// records however long the history.
const CHECKPOINT_MIN: usize = 256;

/// How many proposed slots a speculating primary holds a stash for at
/// once. Each application server has one slot in flight, and a stash can
/// outlive its slot (the slot decided without this database's share, or
/// its decide is still on the wire) until a later slot's decide collects
/// it.
const SPEC_STASH_CAP: usize = 4;

/// Claims a serial resource whose queue ends at `busy_until` for `service`
/// time: the work starts when the resource frees up and the reply leaves
/// when it finishes. Returns the reply delay relative to `now` (queueing
/// wait + service time). A server has two such resources — its log device
/// and its snapshot-read lane — each with its own horizon.
fn queue(busy_until: &mut Time, now: Time, service: Dur) -> Dur {
    let done = (*busy_until).max(now) + service;
    *busy_until = done;
    done.since(now)
}

/// A yes vote a lease-granting primary is withholding on a cross-shard
/// branch until its followers acknowledge the branch's in-doubt intent.
struct HeldVote {
    /// Where the vote reply goes (the preparing application server).
    to: NodeId,
    /// The withheld vote (always `Yes` — no votes are never held).
    vote: Vote,
    /// When the vote reply would have left without the hold (prepare
    /// service time was charged normally); releasing never sends earlier
    /// than this.
    send_at: Time,
    /// Followers that have acknowledged the intent so far.
    acks: BTreeSet<NodeId>,
}

impl std::fmt::Debug for DbServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbServer").field("alist", &self.alist).finish()
    }
}

impl DbServer {
    /// Creates a standalone database server (no replica group) that will
    /// notify `alist` on recovery and start from `seed_data` (the
    /// workload's initial table contents).
    pub fn new(alist: Vec<NodeId>, cost: CostModel, seed_data: Vec<(String, i64)>) -> Self {
        Self::with_replication(alist, cost, seed_data, ReplRole::default())
    }

    /// Creates a database server inside a shard replica group.
    pub fn with_replication(
        alist: Vec<NodeId>,
        cost: CostModel,
        seed_data: Vec<(String, i64)>,
        repl: ReplRole,
    ) -> Self {
        let engine = Engine::with_data(seed_data.clone());
        DbServer {
            alist,
            cost,
            engine,
            seed_data,
            repl,
            awaiting_sync: false,
            log_busy_until: Time::ZERO,
            read_busy_until: Time::ZERO,
            features: FeatureSet::default(),
            lease_granted: Time::ZERO,
            lease_through: Time::ZERO,
            lease_fence: Time::ZERO,
            unsettled_xa: BTreeSet::new(),
            held_votes: BTreeMap::new(),
            live_intents: BTreeMap::new(),
            lease_floor: 0,
            wal_due: CHECKPOINT_MIN,
        }
    }

    /// Sets the feature set this server runs under (builder style).
    pub fn with_features(mut self, features: FeatureSet) -> Self {
        self.features = features;
        self
    }

    /// Whether this server grants leases at all: a lease-enabled shard
    /// primary with at least one follower to grant to.
    fn grants_leases(&self) -> bool {
        self.features.read_leases.enabled
            && self.repl.sync_from.is_none()
            && !self.repl.followers.is_empty()
    }

    /// Whether a grant may be (re)issued right now. Renewal is withheld
    /// while any cross-shard XA branch is live on this primary — see
    /// [`etx_base::config::ReadLeaseConfig`] for why that timing is what
    /// keeps in-lease follower collects transactionally atomic.
    fn lease_safe(&self) -> bool {
        self.grants_leases() && self.unsettled_xa.is_empty()
    }

    /// Issues a grant valid through `now + duration` (when permitted) and
    /// records it as the latest offer. Returns what should ride the
    /// outgoing message: the fresh grant, or `None` when withheld.
    fn mint_lease(&mut self, now: Time) -> Option<Time> {
        if !self.lease_safe() {
            return None;
        }
        let through = now + self.features.read_leases.duration;
        if through > self.lease_granted {
            self.lease_granted = through;
        }
        Some(through)
    }

    /// Mints a grant (when safe) and pushes it as a bare `LeaseRenew`
    /// frame to every follower — and to every application server, whose
    /// routing table is what actually steers collects at followers: fed
    /// only by piggybacked adverts, a read-only workload would stay blind
    /// to the leases and keep routing collects at the primary. The startup
    /// establishment and the renewal heartbeat both come through here.
    fn grant_lease_now(&mut self, ctx: &mut dyn Context) {
        if let Some(through) = self.mint_lease(ctx.now()) {
            let floor = self.engine.ship_position();
            ctx.trace(TraceKind::LeaseGrant { through });
            for f in self.repl.followers.clone() {
                ctx.send(f, Payload::Repl(ReplMsg::LeaseRenew { through, floor }));
            }
            for a in self.alist.clone() {
                ctx.send(a, Payload::Repl(ReplMsg::LeaseRenew { through, floor }));
            }
        }
    }

    /// The escape horizon for a vote held right now: the instant by which
    /// every lease this primary has outstanding — including any the
    /// pre-crash incarnation could have granted, which is exactly what the
    /// recovery fence bounds — has provably expired. Minting is withheld
    /// while the branch is unsettled, so the horizon cannot move while a
    /// hold is waiting on it.
    fn vote_horizon(&self) -> Time {
        self.lease_granted.max(self.lease_fence)
    }

    /// Releases a held cross-shard vote (all intents acknowledged, or the
    /// escape horizon passed). No-op if the vote was already released —
    /// the escape timer always fires eventually, acks or not. The vote
    /// goes out no earlier than the instant its network delay would have
    /// delivered it unheld; if the handshake outlasted that (an intent
    /// ack round trip usually does), it goes out immediately.
    fn release_vote(&mut self, ctx: &mut dyn Context, rid: ResultId) {
        if let Some(h) = self.held_votes.remove(&rid) {
            let dur = if h.send_at > ctx.now() { h.send_at.since(ctx.now()) } else { Dur::ZERO };
            ctx.send_after(dur, h.to, Payload::DbReply(DbReplyMsg::Vote { rid, vote: h.vote }));
        }
    }

    /// The lease advertisement a primary attaches to decide
    /// acknowledgements and read replies: the latest *offered* expiry, if
    /// still in force. Advertising only what followers were actually
    /// offered (rather than minting here) keeps application servers from
    /// routing reads at followers whose own grants are older.
    fn advertised_lease(&self, now: Time) -> Option<Time> {
        if self.grants_leases() && self.lease_granted > now {
            Some(self.lease_granted)
        } else {
            None
        }
    }

    /// Applies the recovery write-ack fence to a commit acknowledgement's
    /// reply delay: until every pre-crash lease has provably expired, no
    /// decide may be acknowledged (the drain that keeps still-leased
    /// followers' pre-crash prefixes consistent with everything any
    /// application server has observed).
    fn fence_ack(&self, ctx: &dyn Context, dur: Dur) -> Dur {
        let now = ctx.now();
        if self.lease_fence > now {
            dur.max(self.lease_fence.since(now))
        } else {
            dur
        }
    }

    /// Ships any freshly committed write sets to this shard's followers
    /// (asynchronous; called after every engine interaction that may have
    /// committed): one `Apply` per follower carries everything the
    /// interaction put in the outbox, mirroring the group commit that
    /// produced it.
    fn ship_commits(&mut self, ctx: &mut dyn Context) {
        let items = self.engine.take_repl_outbox();
        if items.is_empty() {
            return;
        }
        // Lease renewal rides the shipment itself: the follower that
        // applies these items is, at that instant, exactly as caught up as
        // the grant asserts. Withheld (None) while a cross-shard branch is
        // live — the follower's lease then simply runs out its term — and
        // on a server with no follower to grant to.
        let lease = self.mint_lease(ctx.now());
        let Some((&last, rest)) = self.repl.followers.split_last() else { return };
        for &f in rest {
            ctx.send(f, Payload::Repl(ReplMsg::Apply { items: items.clone(), lease }));
        }
        ctx.send(last, Payload::Repl(ReplMsg::Apply { items, lease }));
    }

    /// The commit-processing time one message's fresh entries cost: a
    /// jittered `db_commit` if any of them commits, else a jittered
    /// `db_abort` if any aborts, else nothing (a pure re-delivery draws no
    /// randomness).
    fn service_time(&self, ctx: &mut dyn Context, fresh_commits: u32, fresh_aborts: u32) -> Dur {
        if fresh_commits > 0 {
            jittered(ctx, self.cost.db_commit, self.cost.jitter)
        } else if fresh_aborts > 0 {
            jittered(ctx, self.cost.db_abort, self.cost.jitter)
        } else {
            Dur::ZERO
        }
    }

    fn request_sync(&mut self, ctx: &mut dyn Context) {
        let Some(primary) = self.repl.sync_from else { return };
        if !self.awaiting_sync {
            self.awaiting_sync = true;
            ctx.set_timer(self.repl.sync_retry, TimerTag::ReplSyncRetry);
        }
        ctx.send(primary, Payload::Repl(ReplMsg::SyncReq));
    }

    /// Follower role: adopts a (piggybacked or bare) lease renewal carrying
    /// grant floor `floor`, and expires intents the renewal settles.
    fn renew_lease(&mut self, lease: Option<Time>, floor: u64) {
        if let Some(through) = lease {
            if self.features.read_leases.enabled && through > self.lease_through {
                self.lease_through = through;
                self.lease_floor = self.lease_floor.max(floor);
                // A grant is minted only while no cross-shard branch is
                // unsettled at the primary, so a branch whose intent was
                // recorded strictly before this grant's mint instant
                // (`through - duration`) had already been decided there:
                // a commit is covered by the grant's floor, and an abort
                // never becomes visible at all. Either way the intent is
                // resolved.
                let dur = self.features.read_leases.duration;
                self.live_intents.retain(|_, at| *at + dur >= through);
            }
        }
    }

    fn on_repl_msg(&mut self, ctx: &mut dyn Context, from: NodeId, msg: ReplMsg) {
        match msg {
            ReplMsg::Apply { items, lease } => {
                let floor = items.iter().map(|(seq, _, _)| *seq).max().unwrap_or(0);
                let res = self.engine.apply_replicated_batch(items);
                for rec in res.writes.iter().flat_map(|w| w.rec.leaves()) {
                    ctx.trace(TraceKind::DbReplicated { rid: rec.rid() });
                    // An applied commit resolves its in-doubt intent: the
                    // transaction is now in this replica's served prefix.
                    self.live_intents.remove(&rec.rid());
                }
                self.append(ctx, res.writes, |_, _| {});
                if res.need_sync {
                    // The apply stream has a gap (commits shipped while we
                    // were down): pull a snapshot to jump over it.
                    self.request_sync(ctx);
                }
                // Adopt the piggybacked renewal only after applying, with
                // the shipment's own position as its floor — the grant
                // asserts exactly "caught up through this shipment", so a
                // lost or gapped apply leaves the lease unservable rather
                // than re-authorizing a stale prefix.
                self.renew_lease(lease, floor);
            }
            ReplMsg::LeaseRenew { through, floor } => {
                self.renew_lease(Some(through), floor);
            }
            ReplMsg::Intent { rid, at } => {
                // Record the in-doubt branch and release the primary's held
                // vote. Only meaningful on a lease-holding follower; a
                // primary never receives intents (it sends them).
                if self.features.read_leases.enabled && self.repl.sync_from.is_some() {
                    self.live_intents.insert(rid, at);
                    ctx.send(from, Payload::Repl(ReplMsg::IntentAck { rid }));
                }
            }
            ReplMsg::IntentAck { rid } => {
                let release = match self.held_votes.get_mut(&rid) {
                    Some(h) => {
                        h.acks.insert(from);
                        h.acks.len() >= self.repl.followers.len()
                    }
                    None => false,
                };
                if release {
                    self.release_vote(ctx, rid);
                }
            }
            ReplMsg::SyncReq => {
                let (seq, entries) = self.engine.repl_snapshot();
                ctx.send(from, Payload::Repl(ReplMsg::SyncState { seq, entries }));
            }
            ReplMsg::SyncState { seq, entries } => {
                self.awaiting_sync = false;
                let writes = self.engine.adopt_repl_snapshot(seq, entries);
                self.append(ctx, writes, |ctx, rec| {
                    ctx.trace(TraceKind::DbReplicated { rid: rec.rid() });
                });
            }
        }
    }

    /// Appends the engine's `writes` to the WAL, one record each, and
    /// checkpoints when one is due. A group frame (the engine frames
    /// whatever one decide or one shipment logged) is traced with its
    /// length; `logged` then sees each of the record's leaves, in order.
    fn append(
        &mut self,
        ctx: &mut dyn Context,
        writes: impl IntoIterator<Item = LogWrite>,
        mut logged: impl FnMut(&mut dyn Context, &StableRecord),
    ) {
        let mut appended = 0;
        for w in writes {
            if let StableRecord::Group { records } = &w.rec {
                ctx.trace(TraceKind::GroupAppend { len: records.len() as u32 });
            }
            for leaf in w.rec.leaves() {
                logged(ctx, leaf);
            }
            // Forced-ness is folded into the prepare/commit service costs
            // (as in Oracle, where the paper's 19 ms prepare and 18 ms
            // commit rows *include* the database's own log forces), so the
            // append itself is charged as unforced here.
            ctx.log_append(LOG_WAL, w.rec, false);
            appended += 1;
        }
        if appended > 0 {
            self.wal_due = self.wal_due.saturating_sub(appended);
            self.checkpoint_if_due(ctx);
        }
    }

    /// Replaces the WAL with one checkpoint of the engine's live state once
    /// enough records have been appended since the last
    /// ([`CHECKPOINT_MIN`], or the size of the last image if larger). Runs
    /// right after an append, when the live state is exactly what the log
    /// rebuilds; debug builds check that against a replay of the log the
    /// checkpoint replaces.
    fn checkpoint_if_due(&mut self, ctx: &mut dyn Context) {
        if self.wal_due > 0 {
            return;
        }
        let image = self.engine.image();
        // The log rebuilds the outcomes the floors raised since the last
        // checkpoint drained; the image holds those floors and none of them.
        debug_assert_eq!(
            image,
            {
                let mut rebuilt =
                    Engine::recover_with_seed(self.seed_data.clone(), &ctx.log_read(LOG_WAL));
                for &(client, floor) in &image.floors {
                    rebuilt.settle_below(client, floor);
                }
                rebuilt.image()
            },
            "a checkpoint must hold what its log rebuilds"
        );
        self.wal_due = image.len().max(CHECKPOINT_MIN);
        ctx.log_checkpoint(LOG_WAL, StableRecord::Checkpoint(Box::new(image)));
    }

    /// Appends the records a decide logged and charges for them. Each
    /// `DbOutcome` among them is an entry the decide changed, traced as a
    /// `DbDecide`. One commit-processing cost covers them all — `prepaid`
    /// at `SpecExec` (that cost, and the instant the device completes it),
    /// drawn now otherwise ([`Self::service_time`]) — and is shared across
    /// the commits' latency spans, so per-request breakdowns stay
    /// additive. Returns the reply delay.
    fn log_decided(
        &mut self,
        ctx: &mut dyn Context,
        writes: Vec<LogWrite>,
        prepaid: Option<(Dur, Time)>,
    ) -> Dur {
        let (mut commits, mut aborts) = (0u32, 0u32);
        for rec in writes.iter().flat_map(|w| w.rec.leaves()) {
            match rec {
                StableRecord::DbOutcome { outcome: Outcome::Commit, .. } => commits += 1,
                StableRecord::DbOutcome { outcome: Outcome::Abort, .. } => aborts += 1,
                _ => {}
            }
        }
        let cost = match prepaid {
            Some((cost, _)) => cost,
            None => self.service_time(ctx, commits, aborts),
        };
        let share = cost.scaled(1.0 / f64::from(commits.max(1)));
        self.append(ctx, writes, |ctx, rec| {
            if let StableRecord::DbOutcome { rid, outcome } = *rec {
                ctx.trace(TraceKind::DbDecide { rid, outcome });
                if outcome == Outcome::Commit {
                    ctx.span(rid, Component::Commit, share);
                }
            }
        });
        let now = ctx.now();
        match prepaid {
            // The device was claimed at SpecExec time; the reply waits only
            // until *that* pre-paid work completes — later arrivals queued
            // behind it are not its problem.
            Some((_, ready)) => ready.max(now).since(now),
            None if commits + aborts > 0 => queue(&mut self.log_busy_until, now, cost),
            None => Dur::ZERO,
        }
    }

    fn on_db_msg(&mut self, ctx: &mut dyn Context, from: NodeId, msg: DbMsg) {
        match msg {
            DbMsg::Exec { rid, ops, xa, floor } => {
                self.engine.settle_below(rid.request.client, floor);
                let status = self.engine.execute(rid, &ops);
                let mut dur = jittered(ctx, self.cost.sql, self.cost.jitter);
                if xa {
                    dur += jittered(ctx, self.cost.sql_xa_overhead, self.cost.jitter);
                }
                ctx.span(rid, Component::Sql, dur);
                ctx.send_after(dur, from, Payload::DbReply(DbReplyMsg::ExecReply { rid, status }));
            }
            DbMsg::Prepare { rid, cross } => {
                // Lease bookkeeping: from here until its decide arrives, a
                // cross-shard branch is (or is about to be) in doubt on
                // this primary, so lease renewal is withheld. Gated on the
                // leases knob — the set stays empty (and renewal logic
                // untouched) otherwise.
                if self.features.read_leases.enabled
                    && cross
                    && self.repl.sync_from.is_none()
                    && !self.engine.answered(rid)
                {
                    self.unsettled_xa.insert(rid);
                }
                let (vote, write) = self.engine.vote(rid);
                self.append(ctx, write, |_, _| {});
                let service = jittered(ctx, self.cost.db_prepare, self.cost.jitter);
                let dur = queue(&mut self.log_busy_until, ctx.now(), service);
                ctx.trace(TraceKind::DbVote { rid, vote });
                ctx.span(rid, Component::Prepare, service);
                if self.held_votes.contains_key(&rid) {
                    // Duplicate Prepare while the vote is held: the pending
                    // release will answer it.
                } else if vote == Vote::Yes
                    && cross
                    && self.grants_leases()
                    && self.vote_horizon() > ctx.now()
                {
                    // Cross-shard vote hold: no coordinator may learn this
                    // yes — and therefore no sibling shard may commit the
                    // transaction — until every follower knows the branch
                    // is in doubt, or every lease outstanding right now
                    // has lapsed. Any later `fresh`/`stable` collect that
                    // observes the transaction's effects at some shard
                    // necessarily postdates this release, so an in-lease
                    // follower here either forwards into the in-doubt veto
                    // or is no longer leased. Intents are not
                    // retransmitted: a lost one just rides out the escape
                    // horizon (minting is withheld while the branch is
                    // unsettled, so the horizon cannot grow meanwhile).
                    let at = ctx.now();
                    self.held_votes.insert(
                        rid,
                        HeldVote {
                            to: from,
                            vote,
                            send_at: ctx.now() + dur,
                            acks: BTreeSet::new(),
                        },
                    );
                    for f in self.repl.followers.clone() {
                        ctx.send(f, Payload::Repl(ReplMsg::Intent { rid, at }));
                    }
                    ctx.set_timer(
                        self.vote_horizon().since(ctx.now()),
                        TimerTag::VoteEscape { rid },
                    );
                } else {
                    ctx.send_after(dur, from, Payload::DbReply(DbReplyMsg::Vote { rid, vote }));
                }
            }
            DbMsg::SpecExec { slot, entries } => {
                // Speculation stage: the batch just got *proposed* into
                // `slot`; stash it and pay for its commit processing now,
                // while consensus runs. Primary-only and purely advisory —
                // followers and speculation-off servers ignore the frame.
                if !self.features.speculation.enabled || self.repl.sync_from.is_some() {
                    return;
                }
                // The first proposal stashed for a slot wins; a second
                // frame is refused before it draws any randomness.
                if self.engine.speculation(slot).is_some() {
                    return;
                }
                let (mut fresh_commits, mut fresh_aborts) = (0u32, 0u32);
                for &(rid, outcome) in &entries {
                    if !self.engine.answered(rid) {
                        match outcome {
                            Outcome::Commit => fresh_commits += 1,
                            Outcome::Abort => fresh_aborts += 1,
                        }
                    }
                }
                let service = self.service_time(ctx, fresh_commits, fresh_aborts);
                // Pre-pay the commit processing on the serial log device
                // *now* — this is the overlap with the consensus round. If
                // the slot decides as proposed, the work is already done
                // (or at least already queued ahead of newer arrivals), and
                // the stash's completion instant — not the then-current
                // device horizon — is all the acknowledgement waits for.
                let now = ctx.now();
                if let Some(stash) = self.engine.speculate(slot, &entries, service, SPEC_STASH_CAP)
                {
                    stash.ready = now + queue(&mut self.log_busy_until, now, service);
                }
                ctx.trace(TraceKind::SpecExec { slot, len: entries.len() as u32 });
            }
            DbMsg::Decide { entries, slot } => {
                for (rid, _) in &entries {
                    self.unsettled_xa.remove(rid);
                    // A decision makes a held vote moot (the cleaner can
                    // abort a branch whose vote never arrived): drop it
                    // unsent.
                    self.held_votes.remove(rid);
                }
                // Group commit: the whole message applies behind ONE
                // durable append and one commit-processing charge, with the
                // per-branch semantics of `Engine::decide` (idempotent
                // re-delivery, presumed abort, the §2 decide contract). What
                // the engine logged is what it changed: entries it only
                // answered are acknowledged, never traced or charged.
                //
                // Speculation resolution, for a push that names its slot: a
                // stash whose proposal matches the decided entries exactly
                // is promoted (its device time was pre-paid at SpecExec); a
                // mismatched stash is dropped and the entries decide on
                // the ordinary path. A slot-less push never touches the
                // stash — it may name members of a slot whose own push is
                // still to come.
                let mut promoted = None;
                if let Some(slot) = slot {
                    match self.engine.promote_speculation(slot, &entries) {
                        Promotion::Hit(p) => {
                            ctx.trace(TraceKind::SpecHit { slot, len: p.acks.len() as u32 });
                            promoted = Some(p);
                        }
                        Promotion::Miss => ctx.trace(TraceKind::SpecAbort { slot }),
                        Promotion::Absent => {}
                    }
                }
                let (acks, dur) = match promoted {
                    Some(p) => (p.acks, self.log_decided(ctx, p.writes, Some((p.cost, p.ready)))),
                    None => {
                        let (acks, writes) = self.engine.decide_batch(&entries);
                        (acks, self.log_decided(ctx, writes, None))
                    }
                };
                let seq = self.engine.ship_position();
                let dur = self.fence_ack(ctx, dur);
                let lease = self.advertised_lease(ctx.now());
                ctx.send_after(
                    dur,
                    from,
                    Payload::DbReply(DbReplyMsg::AckDecide { entries: acks, seq, lease }),
                );
            }
            DbMsg::Read { rid, call, round, ops, min_seq, reply_to } => {
                // The read fast path: execute pure Gets against committed
                // state — no XA branch, no locks, no log traffic. A
                // follower behind the read's freshness stamp must not
                // serve stale state: it forwards the message (reply_to
                // preserved) to its primary, whose committed state is the
                // source of truth the stamp was observed against.
                let is_follower = self.repl.sync_from.is_some();
                // Lease mode: an in-lease follower's applied prefix is
                // authoritative, so the only stamp it must still honour is
                // the issuing client's own causality floor (read-your-writes
                // across a lease boundary). Past expiry it behaves exactly
                // like a stamp-gated lagging follower: forward to the
                // primary.
                let lease_expired = self.features.read_leases.enabled
                    && is_follower
                    && ctx.now() >= self.lease_through;
                // Even inside the grant window, serving is refused when the
                // applied prefix has not reached the grant's floor (a bare
                // renewal must not paper over a lost commit shipment) or
                // when any cross-shard branch is announced in doubt here —
                // the forward lands the read on the primary, whose
                // key-level in-doubt check vetoes fractured snapshots.
                let lease_blocked = self.features.read_leases.enabled
                    && is_follower
                    && !lease_expired
                    && (self.engine.repl_position() < self.lease_floor
                        || !self.live_intents.is_empty());
                if is_follower
                    && (lease_expired || lease_blocked || self.engine.repl_position() < min_seq)
                {
                    let primary = self.repl.sync_from.expect("follower has a primary");
                    if lease_expired {
                        ctx.trace(TraceKind::LeaseExpired { rid });
                    }
                    ctx.trace(TraceKind::ReadForwarded(Box::new(Forwarded {
                        rid,
                        have: self.engine.repl_position(),
                        need: min_seq,
                    })));
                    ctx.send(
                        primary,
                        Payload::Db(DbMsg::Read { rid, call, round, ops, min_seq, reply_to }),
                    );
                    return;
                }
                if is_follower {
                    ctx.trace(TraceKind::FollowerRead { rid });
                }
                // Values, position and in-doubt flag are sampled at one
                // instant (this event), which is what the issuer's
                // snapshot validation reasons about; the read-lane charge
                // below only delays when the reply *leaves*.
                let outputs = self.engine.read_only(&ops);
                let pos = if is_follower {
                    self.engine.repl_position()
                } else {
                    self.engine.ship_position()
                };
                let indoubt = self.engine.indoubt_read_conflict(&ops);
                let service = jittered(ctx, self.cost.sql_read, self.cost.jitter);
                let dur = queue(&mut self.read_busy_until, ctx.now(), service);
                ctx.span(rid, Component::Sql, service);
                // Only primaries advertise grants onward.
                let lease = if is_follower { None } else { self.advertised_lease(ctx.now()) };
                ctx.send_after(
                    dur,
                    reply_to,
                    Payload::DbReply(DbReplyMsg::ReadReply {
                        rid,
                        call,
                        round,
                        outputs,
                        pos,
                        indoubt,
                        lease,
                    }),
                );
            }
            DbMsg::CommitOnePhase { rid } => {
                self.unsettled_xa.remove(&rid);
                let (ok, writes) = self.engine.commit_one_phase(rid);
                let dur = self.log_decided(ctx, writes, None);
                let dur = self.fence_ack(ctx, dur);
                ctx.send_after(
                    dur,
                    from,
                    Payload::DbReply(DbReplyMsg::AckCommitOnePhase { rid, ok }),
                );
            }
        }
        // Anything the engine just committed ships to the shard's followers
        // (a no-op for standalone servers and non-commit messages).
        self.ship_commits(ctx);
    }

    /// Committed value of a key (test / harness assertions through the
    /// process, without reaching into the engine).
    pub fn committed(&self, key: &str) -> Option<i64> {
        self.engine.committed(key)
    }

    /// Whether a branch is in-doubt right now.
    pub fn is_prepared(&self, rid: ResultId) -> bool {
        self.engine.is_prepared(rid)
    }

    /// Decided outcomes the engine's memo holds (bounded-state tests).
    pub fn memo_len(&self) -> usize {
        self.engine.memo_len()
    }

    /// Keys locked right now (a quiesced run holds none).
    pub fn locked_keys(&self) -> usize {
        self.engine.locked_keys()
    }
}

impl Process for DbServer {
    fn on_event(&mut self, ctx: &mut dyn Context, event: Event) {
        match event {
            // Fresh start: nothing to announce (Figure 3 takes
            // `recovery = false` here). A lease-granting primary
            // establishes leases immediately — a read burst that lands
            // before the first heartbeat must find the followers
            // already authoritative — then starts its renewal clock so
            // grants stay alive through write-quiet stretches.
            Event::Init if self.grants_leases() => {
                self.grant_lease_now(ctx);
                ctx.set_timer(self.features.read_leases.renew_period(), TimerTag::LeaseRenewTick);
            }
            Event::Init => {}
            Event::Recovered => {
                // This runs on a factory-fresh process (both hosts recover
                // a node by calling its factory), so every volatile field
                // is at its default. Rebuild from the WAL over the seed
                // data, then tell the application servers we are back
                // (Figure 3 lines 1–2).
                let log = ctx.log_read(LOG_WAL);
                self.engine = Engine::recover_with_seed(self.seed_data.clone(), &log);
                self.wal_due = CHECKPOINT_MIN.saturating_sub(log.len());
                // Prepared branches recovered from the WAL are live
                // cross-shard work: lease renewal stays withheld until
                // their decides arrive.
                if self.features.read_leases.enabled {
                    self.unsettled_xa = self.engine.prepared_rids().into_iter().collect();
                }
                // The pre-crash incarnation's grants are unknown (volatile
                // bookkeeping): fence commit acknowledgements for one full
                // lease term so every lease it could have granted provably
                // expires before the recovered primary acks a write.
                if self.grants_leases() {
                    self.lease_fence = ctx.now() + self.features.read_leases.duration;
                    ctx.trace(TraceKind::LeaseFence { until: self.lease_fence });
                    // Fresh grants are safe straight away — a lease only
                    // authorizes serving the follower's *applied prefix*;
                    // it is the write acknowledgements the fence delays.
                    // (Minting is still withheld while WAL-recovered
                    // prepared branches are unsettled, via `lease_safe`.)
                    self.grant_lease_now(ctx);
                    ctx.set_timer(
                        self.features.read_leases.renew_period(),
                        TimerTag::LeaseRenewTick,
                    );
                }
                for a in self.alist.clone() {
                    ctx.send(a, Payload::DbReply(DbReplyMsg::Ready));
                }
                // Follower role: pull a snapshot to recover the commits the
                // primary shipped while this replica was down.
                self.request_sync(ctx);
            }
            Event::Message { from, payload: Payload::Db(m) } => self.on_db_msg(ctx, from, m),
            Event::Message { from, payload: Payload::Repl(m) } => self.on_repl_msg(ctx, from, m),
            Event::Timer { tag: TimerTag::ReplSyncRetry, .. } if self.awaiting_sync => {
                if let Some(primary) = self.repl.sync_from {
                    ctx.send(primary, Payload::Repl(ReplMsg::SyncReq));
                }
                ctx.set_timer(self.repl.sync_retry, TimerTag::ReplSyncRetry);
            }
            Event::Timer { tag: TimerTag::VoteEscape { rid }, .. } => {
                // Escape horizon reached: every lease outstanding when the
                // vote was held has lapsed, so releasing is safe even if
                // some follower never acknowledged the intent.
                self.release_vote(ctx, rid);
            }
            Event::Timer { tag: TimerTag::LeaseRenewTick, .. } => {
                // Renewal heartbeat: grant when safe (withheld while a
                // cross-shard branch is live — the follower's lease then
                // runs out its term and reads forward to the primary's
                // in-doubt veto), and always re-arm.
                self.grant_lease_now(ctx);
                ctx.set_timer(self.features.read_leases.renew_period(), TimerTag::LeaseRenewTick);
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "dbserver"
    }

    fn as_any(&self) -> Option<&dyn core::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use etx_base::config::SpeculationConfig;
    use etx_base::ids::RequestId;
    use etx_base::value::DbOp;
    use std::sync::Arc;

    const APP: NodeId = NodeId(1);

    fn rid(n: u64) -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq: n })
    }

    /// A speculating standalone server with branches `1..=n` prepared, each
    /// writing its own key.
    fn prepared(n: u64) -> (DbServer, Recorder) {
        prepared_at(n, CostModel::zeroed())
    }

    fn prepared_at(n: u64, cost: CostModel) -> (DbServer, Recorder) {
        let features = FeatureSet { speculation: SpeculationConfig::on(), ..FeatureSet::default() };
        let mut db = DbServer::new(vec![APP], cost, Vec::new()).with_features(features);
        let mut ctx = Recorder::default();
        for i in 1..=n {
            let ops: Arc<[DbOp]> = Arc::from([DbOp::Put { key: format!("k{i}"), value: i as i64 }]);
            db.on_db_msg(&mut ctx, APP, DbMsg::Exec { rid: rid(i), ops, xa: true, floor: 0 });
            db.on_db_msg(&mut ctx, APP, DbMsg::Prepare { rid: rid(i), cross: false });
        }
        (db, ctx)
    }

    /// The `DbServer`-level input of the store's
    /// `decide_batch_…matches_singleton_semantics`: N one-entry decides and
    /// one N-entry decide are the same decision.
    #[test]
    fn one_entry_decides_equal_one_decide_of_all_of_them() {
        let entries =
            vec![(rid(1), Outcome::Commit), (rid(2), Outcome::Abort), (rid(3), Outcome::Commit)];
        let (mut one_by_one, mut ctx1) = prepared(3);
        for &(rid, outcome) in &entries {
            one_by_one.on_db_msg(&mut ctx1, APP, DbMsg::decide_one(rid, outcome));
        }
        let (mut at_once, mut ctx2) = prepared(3);
        at_once.on_db_msg(&mut ctx2, APP, DbMsg::Decide { entries: entries.clone(), slot: None });

        assert_eq!(ctx1.acks(), entries);
        assert_eq!(ctx2.acks(), entries);
        assert_eq!(one_by_one.engine.snapshot(), at_once.engine.snapshot());
        assert_eq!(one_by_one.engine.ship_position(), at_once.engine.ship_position());
        // On disk the two differ in framing only — three bare records
        // against one group of three — and recovery cannot tell.
        assert_eq!(ctx1.wal.len(), 3 + 3);
        assert_eq!(ctx2.wal.len(), 3 + 1);
        assert_eq!(ctx1.leaves(), ctx2.leaves());
        let (r1, r2) = (Engine::recover(&ctx1.wal), Engine::recover(&ctx2.wal));
        assert_eq!(r1.snapshot(), at_once.engine.snapshot());
        assert_eq!(r1.snapshot(), r2.snapshot());
        for &(rid, outcome) in &entries {
            assert_eq!((r1.decision(rid), r2.decision(rid)), (Some(outcome), Some(outcome)));
        }
    }

    /// Only a push that names its slot resolves the stash for it. A
    /// slot-less decide naming a stashed member (a retransmission, a
    /// cleaner or `Ready` re-push) leaves the stash alone, and the slot's
    /// own push still promotes it — to the state, acks and WAL of the run
    /// without the interloper.
    #[test]
    fn a_slotless_decide_leaves_the_stash_to_the_push_that_names_its_slot() {
        let entries = vec![(rid(1), Outcome::Commit), (rid(2), Outcome::Commit)];
        let run = |interloper: bool| {
            let (mut db, mut ctx) = prepared(2);
            db.on_db_msg(&mut ctx, APP, DbMsg::SpecExec { slot: 7, entries: entries.clone() });
            assert_eq!(db.engine.spec_slots(), 1);
            if interloper {
                db.on_db_msg(&mut ctx, APP, DbMsg::decide_one(rid(1), Outcome::Commit));
                assert!(
                    db.engine.speculation(7).is_some(),
                    "a slot-less decide never touches the stash"
                );
            }
            ctx.sent.clear();
            db.on_db_msg(&mut ctx, APP, DbMsg::Decide { entries: entries.clone(), slot: Some(7) });
            assert_eq!(db.engine.spec_slots(), 0);
            assert!(ctx.traced.contains(&TraceKind::SpecHit { slot: 7, len: 2 }));
            (db.engine.snapshot().clone(), ctx.acks(), ctx.leaves())
        };
        assert_eq!(run(true), run(false));
    }

    /// Each stash stands alone: a slot that decides differently from its
    /// proposal aborts its own stash and decides the ordinary way, and the
    /// slot above it still promotes — acknowledged at the instant its
    /// `SpecExec` pre-paid, not behind the device time the mismatch cost.
    #[test]
    fn a_mismatch_aborts_its_own_slot_and_the_slot_above_promotes_at_its_prepaid_instant() {
        let ms = Dur::from_millis;
        let commit = ms(10);
        let (mut db, mut ctx) =
            prepared_at(4, CostModel { db_commit: commit, ..CostModel::zeroed() });
        let slot1 = vec![(rid(1), Outcome::Commit), (rid(2), Outcome::Commit)];
        let slot2 = vec![(rid(3), Outcome::Commit), (rid(4), Outcome::Commit)];
        db.on_db_msg(&mut ctx, APP, DbMsg::SpecExec { slot: 1, entries: slot1.clone() });
        db.on_db_msg(&mut ctx, APP, DbMsg::SpecExec { slot: 2, entries: slot2.clone() });
        let ready = |db: &DbServer, slot| db.engine.speculation(slot).map(|s| s.ready);
        assert_eq!(ready(&db, 2), Some(Time::ZERO + ms(20)));

        // Slot 1 decides in the other order (another proposer won it).
        let decided1: Vec<_> = slot1.iter().rev().copied().collect();
        db.on_db_msg(&mut ctx, APP, DbMsg::Decide { entries: decided1.clone(), slot: Some(1) });
        assert!(ctx.traced.contains(&TraceKind::SpecAbort { slot: 1 }));
        assert_eq!(ctx.acks(), decided1, "decided the ordinary way");
        assert_eq!(ctx.delays.last(), Some(&ms(30)), "behind both pre-paid batches");
        assert_eq!((ready(&db, 1), ready(&db, 2)), (None, Some(Time::ZERO + ms(20))));

        db.on_db_msg(&mut ctx, APP, DbMsg::Decide { entries: slot2, slot: Some(2) });
        assert!(ctx.traced.contains(&TraceKind::SpecHit { slot: 2, len: 2 }));
        assert_eq!(ctx.delays.last(), Some(&ms(20)), "the instant pre-paid at SpecExec");
        assert_eq!(db.engine.spec_slots(), 0);
        for i in 1..=4 {
            assert_eq!(db.committed(&format!("k{i}")), Some(i));
        }
    }

    /// More un-decided `SpecExec` frames than the stash holds: the oldest
    /// slot makes room each time, a slot that lost its stash decides the
    /// ordinary way and a survivor still promotes — all to the state, acks
    /// and WAL of a server that was never sent a `SpecExec`.
    #[test]
    fn a_full_stash_drops_its_oldest_slot_and_a_survivor_still_promotes() {
        let cap = SPEC_STASH_CAP as u64;
        let n = cap + 2;
        let batch = |slot: u64| vec![(rid(slot), Outcome::Commit)];
        let run = |speculate: bool| {
            let (mut db, mut ctx) = prepared(n);
            for slot in (1..=n).filter(|_| speculate) {
                db.on_db_msg(&mut ctx, APP, DbMsg::SpecExec { slot, entries: batch(slot) });
                let stashed: Vec<u64> =
                    (1..=n).filter(|&s| db.engine.speculation(s).is_some()).collect();
                let oldest = (slot + 1).saturating_sub(cap).max(1);
                assert_eq!(stashed, (oldest..=slot).collect::<Vec<_>>(), "oldest makes room");
            }
            ctx.traced.clear();
            for slot in 1..=n {
                db.on_db_msg(
                    &mut ctx,
                    APP,
                    DbMsg::Decide { entries: batch(slot), slot: Some(slot) },
                );
                let hit = ctx.traced.contains(&TraceKind::SpecHit { slot, len: 1 });
                assert_eq!(hit, speculate && slot > n - cap, "slot {slot}");
            }
            assert!(!ctx.traced.iter().any(|t| matches!(t, TraceKind::SpecAbort { .. })));
            assert_eq!(db.engine.spec_slots(), 0);
            (db.engine.snapshot().clone(), ctx.acks(), ctx.leaves())
        };
        assert_eq!(run(true), run(false));
    }

    /// A decide's effects are read off the records the engine logged. A
    /// commit pushed at a branch this server never held (a cleaner's push
    /// to every database) is acknowledged and nothing else: no record,
    /// trace, charge, memo entry or ship position. An abort for one is
    /// logged, traced and charged; and a commit of a held branch beside an
    /// unheld one takes the whole commit charge and span.
    #[test]
    fn a_commit_for_a_branch_never_held_is_acknowledged_and_nothing_else() {
        let ms = Dur::from_millis;
        let cost = CostModel { db_commit: ms(10), db_abort: ms(3), ..CostModel::zeroed() };
        let (mut db, mut ctx) = prepared_at(1, cost);
        let wal = ctx.wal.len();
        ctx.traced.clear();
        db.on_db_msg(&mut ctx, APP, DbMsg::decide_one(rid(9), Outcome::Commit));
        assert_eq!(ctx.acks(), [(rid(9), Outcome::Commit)]);
        assert_eq!(ctx.delays.last(), Some(&Dur::ZERO), "no charge");
        assert_eq!((ctx.wal.len(), &ctx.traced[..]), (wal, &[][..]), "no record, no trace");
        assert_eq!((db.memo_len(), db.engine.ship_position()), (0, 0));

        db.on_db_msg(&mut ctx, APP, DbMsg::decide_one(rid(8), Outcome::Abort));
        assert_eq!(ctx.traced, [TraceKind::DbDecide { rid: rid(8), outcome: Outcome::Abort }]);
        assert_eq!(ctx.delays.last(), Some(&ms(3)), "charged as an abort");
        assert_eq!((ctx.wal.len(), db.memo_len()), (wal + 1, 1));

        ctx.traced.clear();
        let entries = vec![(rid(1), Outcome::Commit), (rid(7), Outcome::Commit)];
        db.on_db_msg(&mut ctx, APP, DbMsg::Decide { entries: entries.clone(), slot: None });
        assert_eq!(ctx.acks()[2..], entries);
        let commit = [
            TraceKind::DbDecide { rid: rid(1), outcome: Outcome::Commit },
            TraceKind::Span { rid: rid(1), comp: Component::Commit },
        ];
        assert_eq!(ctx.traced, commit, "the held branch alone, one bare record");
        assert_eq!(ctx.delays.last(), Some(&ms(13)), "one commit charge, behind the abort");
        assert_eq!((ctx.wal.len(), db.engine.ship_position()), (wal + 2, 1));
    }

    /// A follower applies whatever one shipment lands behind one append: a
    /// one-item shipment that drains a buffered gap frames the records it
    /// unblocked, and recovery unfolds the frame to the state the bare
    /// records give.
    #[test]
    fn a_shipment_that_drains_a_gap_appends_one_group_frame() {
        let role = ReplRole { sync_from: Some(NodeId(3)), ..ReplRole::default() };
        let mut db = DbServer::with_replication(vec![APP], CostModel::zeroed(), Vec::new(), role);
        let mut ctx = Recorder::default();
        let ship = |seq: u64| ReplMsg::Apply {
            items: vec![(seq, rid(seq), Arc::from([(format!("k{seq}"), seq as i64)]))],
            lease: None,
        };
        db.on_repl_msg(&mut ctx, NodeId(3), ship(2));
        assert!(ctx.wal.is_empty(), "beyond a gap: buffered, nothing durable yet");
        assert_eq!(ctx.sent, [(NodeId(3), Payload::Repl(ReplMsg::SyncReq))]);
        db.on_repl_msg(&mut ctx, NodeId(3), ship(1));
        assert!(
            matches!(ctx.wal.as_slice(), [StableRecord::Group { records }] if records.len() == 2)
        );
        assert!(ctx.traced.contains(&TraceKind::GroupAppend { len: 2 }));
        let framed = Engine::recover(&ctx.wal);
        let bare = Engine::recover(&ctx.leaves());
        assert_eq!(framed.snapshot(), bare.snapshot());
        assert_eq!(framed.snapshot(), db.engine.snapshot());
        assert_eq!((framed.repl_position(), bare.repl_position()), (2, 2));
    }
}
