//! Configuration: protocol knobs, failure-detector tuning, and the cost
//! model that grounds simulated latencies in the paper's measured
//! environment constants (Appendix 3).

use crate::time::Dur;

/// Commit-pipeline batching knobs: how the application server groups
/// concurrent request outcomes into decision-log slots.
///
/// The pipeline queue flushes a batch when **any** of these holds:
///
/// * the queue reaches `max_batch` outcomes;
/// * `window` of simulated time passed since the first queued outcome;
/// * the server has no other attempt mid-flight that could still join
///   (idle flush — this is what keeps a sequential client's latency
///   identical to the unbatched protocol even at `max_batch = 64`).
///
/// `max_batch = 1` is the degenerate configuration: every outcome is its
/// own slot, which reproduces the paper's per-attempt `regD` behaviour
/// exactly (a batch of one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchingConfig {
    /// Flush threshold: outcomes per decision-log slot (≥ 1).
    pub max_batch: usize,
    /// Flush deadline: longest a queued outcome may wait for company.
    pub window: Dur,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig { max_batch: 1, window: Dur::ZERO }
    }
}

impl BatchingConfig {
    /// A batching configuration with the given threshold and window.
    pub fn new(max_batch: usize, window: Dur) -> Self {
        BatchingConfig { max_batch: max_batch.max(1), window }
    }

    /// Whether outcomes can ever share a slot.
    pub fn is_batching(&self) -> bool {
        self.max_batch > 1
    }
}

/// Read-path fast-lane knobs: how the application server routes read-only
/// e-Transactions (scripts whose every operation is a `Get`).
///
/// With the lane **disabled** (the default), read-only scripts take the
/// paper's full commit machinery — decision-log slot, WAL append, replica
/// shipment. With it **enabled**, the application server sends each
/// read-only script's per-shard calls as direct `Read` messages against
/// committed state: no XA branch, no locks, no consensus. Reads are
/// idempotent, so the write-once `regD` contract they skip was never
/// protecting anything.
///
/// ## Isolation of multi-shard fast reads
///
/// A read that fans out over several shards samples each shard at a
/// different moment, so a naive fan-out could observe a cross-shard write
/// half-applied (shard A post-commit, shard B pre-commit) — an isolation
/// the locking slow path never allows. Multi-shard fast reads therefore
/// run a **snapshot validation** loop: every call goes to the shard
/// *primary* (whose commit position is authoritative), the reply carries
/// that position plus an in-doubt flag over the keys read, and a collect
/// is accepted only when it agrees position-for-position with the
/// previous collect **and** no key has a prepared-but-undecided write.
/// Two such back-to-back collects pin one instant at which every returned
/// value held simultaneously and no spanning transaction was mid-commit —
/// a transactionally atomic snapshot. Disagreeing collects retry (writes
/// landed mid-read); after a fixed budget of collects (four) the attempt
/// ends with abort, and the client's next attempt — the lane serves first
/// attempts only — takes the locking commit path, which is always live.
/// An attempt is served by the lane or by the commit path, never by both.
/// Single-shard reads are atomic by construction and skip all of this —
/// one round, follower-servable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadPathConfig {
    /// Route read-only scripts around the commit pipeline.
    pub enabled: bool,
    /// Serve **single-shard** reads from shard *followers* (replication
    /// factor permitting) instead of always hitting the primary. Every
    /// read is stamped with the highest commit-ship position the issuing
    /// application server has observed for the shard, max-folded with the
    /// client's own causality token (`ClientMsg::Request::stamps`); a
    /// follower behind that stamp forwards to the primary instead of
    /// serving stale state.
    ///
    /// The client token makes read-your-writes (and per-client monotonic
    /// reads) hold regardless of which server handles the read: the stamp
    /// travels with the client, so failover to a server that never
    /// observed the write's acknowledgement no longer re-opens the window.
    /// What the gate still cannot see is *other* clients' writes that
    /// neither this server nor this client has observed — the same bound
    /// asymmetric-replication reads give without leases;
    /// [`ReadLeaseConfig`] closes that window by construction.
    ///
    /// Multi-shard reads ignore this flag and always read primaries: the
    /// snapshot validation above needs the authoritative position, which
    /// a lagging follower cannot supply.
    pub follower_reads: bool,
}

impl ReadPathConfig {
    /// Fast lane off: reads take the paper's commit route.
    pub fn disabled() -> Self {
        ReadPathConfig::default()
    }

    /// Fast lane on, reads served by shard primaries only.
    pub fn primary_only() -> Self {
        ReadPathConfig { enabled: true, follower_reads: false }
    }

    /// Fast lane on, single-shard reads spread over shard followers
    /// (freshness-gated); multi-shard reads stay primary-validated.
    pub fn follower_reads() -> Self {
        ReadPathConfig { enabled: true, follower_reads: true }
    }
}

/// Time-bounded read-lease knobs: how shard primaries let their replicas
/// (and the application servers that route reads at them) serve fast-path
/// reads **without** the per-read freshness-stamp gate.
///
/// With leases **disabled** (the default) the read fast lane behaves
/// exactly as [`ReadPathConfig`] describes: every follower read is gated
/// on the issuing server's freshness stamp and forwards to the primary
/// when the follower trails, and multi-shard snapshot-validation collects
/// go to primaries only. No lease frames, timers, or trace events exist.
///
/// With leases **enabled**, a shard primary grants each follower a lease
/// asserting "serving your applied prefix is authoritative through `T`",
/// renewed by piggybacking on the commit shipments the follower receives
/// anyway (plus a renewal timer that covers write-quiet stretches) and
/// advertised to application servers on `AckDecide`,
/// primary-served read replies, and bare `LeaseRenew` frames. An in-lease
/// follower serves any read — including its calls of a multi-shard
/// snapshot-validation collect, which without leases go primary-only —
/// with the server-wide `min_seq` gate replaced by the *client's own*
/// causality floor (so read-your-writes still holds exactly); lease
/// expiry, not per-read gating, bounds staleness. Each grant carries a
/// **floor** (the grantor's ship position at mint): a follower serves
/// in-lease only once its applied prefix has reached the floor, so a
/// renewal can never retroactively bless a prefix older than what the
/// primary had already shipped when it minted.
///
/// ## Why in-lease collects cannot observe a fractured transfer
///
/// Leases change **routing only**. A multi-shard collect is still
/// accepted by the application server's snapshot validation — every
/// reply's position matching its per-replica freshness stamp (`fresh`),
/// or positions unchanged across two consecutive collects (`stable`),
/// with the in-doubt veto on both — positions are monotone, so either
/// proof brackets a common instant at which all replies coexisted.
///
/// What the validation cannot see from an appserver is a cross-shard
/// transaction *already half-applied* at a follower that knows nothing of
/// the other shard's branch. That hole is closed on the **write side**:
/// a lease-granting primary **holds its yes vote** on a cross-shard
/// branch, shipping the branch's in-doubt intent to its followers, and
/// releases the vote only when every follower has acknowledged the intent
/// — or, if an intent frame is lost (they are deliberately never
/// retransmitted), when every lease outstanding at hold time has provably
/// lapsed (grant minting is withheld while the branch is unsettled, so
/// that horizon cannot grow while a hold waits on it). A follower holding
/// a live intent forwards reads to its primary, whose in-doubt veto
/// catches the straddle. Since no coordinator can learn the yes — and
/// hence no sibling shard can commit the transaction — before the
/// release, any collect that observes the transfer's effects anywhere
/// postdates it: the laggard shard's follower either still holds the
/// intent (forwards), has applied the commit too (consistent), or missed
/// the intent frame and is provably out of lease (forwards).
///
/// After a crash, a recovering primary cannot know which leases were
/// outstanding, so it installs a **write-ack fence** of one `duration`:
/// commit acknowledgements are withheld until every lease the deposed
/// incarnation could have granted has provably expired. Followers keep
/// serving their (pre-crash) prefix in-lease meanwhile — consistent,
/// because nothing newer has been acknowledged to anyone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadLeaseConfig {
    /// Grant, renew and honor read leases on the shard replica groups.
    pub enabled: bool,
    /// How long a grant is authoritative for, on the simulated clock.
    /// Soundness does not depend on it (the vote-hold handshake does
    /// that); raising it trades a longer forward-free window for a longer
    /// partition staleness bound, recovery fence, and vote-escape horizon.
    pub duration: Dur,
}

impl Default for ReadLeaseConfig {
    fn default() -> Self {
        ReadLeaseConfig::disabled()
    }
}

impl ReadLeaseConfig {
    /// Leases off: the stamp-gated read path.
    pub fn disabled() -> Self {
        ReadLeaseConfig { enabled: false, duration: Dur::from_millis(40) }
    }

    /// Leases on at paper-environment scale (Appendix 3 cost model): a
    /// 40 ms grant keeps the staleness bound, recovery fence and
    /// vote-escape horizon each well under a failure-detector timeout.
    pub fn on() -> Self {
        ReadLeaseConfig { enabled: true, ..ReadLeaseConfig::disabled() }
    }

    /// Leases on at [`CostModel::fast_for_tests`] scale: a 2 ms grant,
    /// proportionally shrunk with that model's costs.
    pub fn fast_for_tests() -> Self {
        ReadLeaseConfig { enabled: true, duration: Dur::from_micros(2_000) }
    }

    /// The renewal-timer period: three quarters of `duration` (never zero),
    /// so an idle follower's lease is renewed while a quarter of its term
    /// is still to run.
    pub fn renew_period(&self) -> Dur {
        Dur((self.duration.0 - self.duration.0 / 4).max(1))
    }
}

/// Speculation knob: whether shard primaries do a flushed batch's commit
/// processing *while* its decision-log slot is still running consensus,
/// instead of strictly after the slot decides.
///
/// With speculation **disabled** (the default), the pipeline is the
/// paper's decide-then-execute shape: no extra messages, no extra trace
/// events. With it **enabled**, the application server ships every
/// flushed batch to the shard primaries as a `SpecExec` frame the moment
/// it proposes the batch into a slot; the primary stashes the proposal
/// under its slot and claims the serial log device for the batch's commit
/// processing there and then — nothing is applied, logged or shipped ahead
/// of the decision. When the slot decides, the primary compares the
/// decided batch against the stashed one: on a match it applies the batch
/// with the usual group WAL append and acknowledges as soon as the
/// pre-paid device time has elapsed (`SpecHit`); on a mismatch that stash
/// is dropped and the batch decides on the ordinary decide-then-execute
/// path (`SpecAbort`). Either way the write-once `regD` contract and
/// first-occurrence-in-slot-order arbitration are exactly those of the
/// non-speculative pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculationConfig {
    /// Ship flushed batches to shard primaries for speculative execution.
    pub enabled: bool,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig::disabled()
    }
}

impl SpeculationConfig {
    /// Speculation off: the paper's strict decide-then-execute pipeline.
    pub fn disabled() -> Self {
        SpeculationConfig { enabled: false }
    }

    /// Speculation on.
    pub fn on() -> Self {
        SpeculationConfig { enabled: true }
    }
}

/// Configures nothing: every application server keeps one decision-log
/// proposal of its own in flight. Kept only because `examples/etx_bench`
/// names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineConfig;

impl PipelineConfig {
    /// The one configuration; `_depth` is ignored.
    pub fn new(_depth: usize) -> Self {
        PipelineConfig
    }
}

/// The optional protocol features layered over the paper's core pipeline,
/// gathered in one place: commit-pipeline batching, the read fast lane,
/// time-bounded read leases and speculative batch execution. The default
/// set is every feature off — the paper-faithful shape.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FeatureSet {
    /// Commit-pipeline batching: how request outcomes group into
    /// decision-log slots (default: batches of one — the paper's shape).
    pub batching: BatchingConfig,
    /// Read fast lane: consensus-free routing of read-only scripts
    /// (default: disabled — reads take the paper's commit route).
    pub read_path: ReadPathConfig,
    /// Time-bounded read leases on the shard replica groups (default:
    /// disabled — follower reads stay freshness-stamp gated).
    pub read_leases: ReadLeaseConfig,
    /// Speculative batch execution: overlap commit application with the
    /// consensus round (default: disabled — strict decide-then-execute).
    pub speculation: SpeculationConfig,
    /// Configures nothing. Kept only because `examples/etx_bench` names it.
    pub pipeline: PipelineConfig,
}

/// Tunables of the e-Transaction protocol itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// The client's back-off period (Figure 2 line 3): how long it waits on
    /// the server it sent an attempt to before broadcasting to all
    /// application servers. A request's first attempt goes to the default
    /// primary; the attempt after an abort goes to the server that answered
    /// that abort.
    pub client_backoff: Dur,
    /// After broadcasting, the client re-broadcasts at this period while
    /// still waiting (implements "keeps retransmitting the request", §4,
    /// against crash/recovery races; duplicates are absorbed by the
    /// protocol's idempotence).
    pub client_rebroadcast: Dur,
    /// Ceiling of the re-broadcast cadence: the gap doubles per
    /// re-broadcast of the same attempt, bounded by this value, and resets
    /// when the attempt advances. Equal to [`client_rebroadcast`] (the
    /// default) the cadence is flat — the paper's constant retransmission.
    /// A larger ceiling keeps a client partitioned away from every server
    /// from flooding the network at full cadence for the whole partition.
    ///
    /// [`client_rebroadcast`]: ProtocolConfig::client_rebroadcast
    pub client_rebroadcast_max: Dur,
    /// Retransmission period of the terminate() repeat-loop (Figure 4
    /// lines 2–6) while waiting for every database's `AckDecide`.
    pub terminate_retry: Dur,
    /// Period of the consensus resync: a `DecideReq` pull for every slot
    /// this server has not seen decided (it re-broadcasts no decision) —
    /// the wo-register `read()` liveness mechanism.
    pub consensus_resync: Dur,
    /// The optional protocol features (batching, read fast lane, read
    /// leases, speculation), defaulting to all-off — the paper's shape.
    pub features: FeatureSet,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            client_backoff: Dur::from_millis(800),
            client_rebroadcast: Dur::from_millis(400),
            client_rebroadcast_max: Dur::from_millis(400),
            terminate_retry: Dur::from_millis(150),
            consensus_resync: Dur::from_millis(120),
            features: FeatureSet::default(),
        }
    }
}

impl ProtocolConfig {
    /// The protocol timers at [`CostModel::fast_for_tests`] scale: every
    /// period shrunk to milliseconds, with the default's orderings (the
    /// back-off above the re-broadcast, both above the terminate retry) and
    /// its flat re-broadcast cadence, and features off.
    pub fn fast_for_tests() -> Self {
        ProtocolConfig {
            client_backoff: Dur::from_millis(30),
            client_rebroadcast: Dur::from_millis(20),
            client_rebroadcast_max: Dur::from_millis(20),
            terminate_retry: Dur::from_millis(10),
            consensus_resync: Dur::from_millis(8),
            ..ProtocolConfig::default()
        }
    }
}

/// Heartbeat failure-detector tuning (◇P among application servers, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdConfig {
    /// Heartbeat period, which is also the check period: each tick sends
    /// one heartbeat round, then checks every peer's timeout.
    pub heartbeat_every: Dur,
    /// Initial suspicion timeout (no heartbeat for this long ⇒ suspect).
    pub initial_timeout: Dur,
    /// Added to a peer's timeout whenever we falsely suspected it — this is
    /// what makes the detector *eventually* accurate.
    pub timeout_increment: Dur,
    /// Upper bound on the adaptive timeout.
    pub max_timeout: Dur,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            heartbeat_every: Dur::from_millis(20),
            initial_timeout: Dur::from_millis(80),
            timeout_increment: Dur::from_millis(40),
            max_timeout: Dur::from_millis(2_000),
        }
    }
}

impl FdConfig {
    /// The detector at [`CostModel::fast_for_tests`] scale: a 2 ms tick,
    /// suspicion after 8 ms of silence, 4 ms more per false suspicion, up
    /// to 200 ms.
    pub fn fast_for_tests() -> Self {
        FdConfig {
            heartbeat_every: Dur::from_millis(2),
            initial_timeout: Dur::from_millis(8),
            timeout_increment: Dur::from_millis(4),
            max_timeout: Dur::from_millis(200),
        }
    }
}

/// Environment constants, mirroring the measured components of the paper's
/// testbed (Appendix 3, Figure 8): Orbix 2.3 RPC on HP C180s over 10 Mbit
/// Ethernet, Oracle 8.0.3 with XA.
///
/// These constants parameterise *how long things take*; which of them occur,
/// how many times, and on whose critical path is decided by the protocols
/// themselves as they execute in the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Request dispatch cost at the application server (Figure 8 "start").
    pub start: Dur,
    /// Reply marshalling cost at the application server (Figure 8 "end").
    pub end: Dur,
    /// Business-logic / SQL execution at a database (Figure 8 "SQL",
    /// baseline column).
    pub sql: Dur,
    /// Snapshot-read service time at a database replica: executing a pure
    /// `Get` batch against committed state (no XA bracketing, no locking,
    /// no log force). Charged on a per-replica **serial read lane** — the
    /// single-threaded query executor each replica contributes — which is
    /// why follower reads add real capacity: spreading reads over a shard's
    /// replicas multiplies the lanes.
    pub sql_read: Dur,
    /// Extra SQL-path cost when the manipulation runs inside an XA branch
    /// (the paper's AR/2PC columns show SQL ≈ 3–6 ms above baseline).
    pub sql_xa_overhead: Dur,
    /// Database-side prepare processing (Figure 8 "prepare").
    pub db_prepare: Dur,
    /// Database-side commit processing (Figure 8 "commit").
    pub db_commit: Dur,
    /// Database-side abort processing.
    pub db_abort: Dur,
    /// One synchronous (forced) log write at the 2PC coordinator
    /// (Figure 8 shows ≈ 12.5 ms per forced write).
    pub log_force: Dur,
    /// Multiplicative jitter applied to service times, uniform in
    /// `[1-jitter, 1+jitter]`. The paper reports 90% confidence intervals
    /// under 10% of the mean; 0.04 reproduces that spread.
    pub jitter: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            start: Dur::from_millis_f64(3.4),
            end: Dur::from_millis_f64(3.4),
            sql: Dur::from_millis_f64(187.0),
            sql_read: Dur::from_millis_f64(24.0),
            sql_xa_overhead: Dur::from_millis_f64(4.5),
            db_prepare: Dur::from_millis_f64(19.0),
            db_commit: Dur::from_millis_f64(18.0),
            db_abort: Dur::from_millis_f64(9.0),
            log_force: Dur::from_millis_f64(12.5),
            jitter: 0.04,
        }
    }
}

impl CostModel {
    /// A zero-jitter copy (used by step-count experiments where determinism
    /// of the *schedule*, not just the seed, matters).
    pub fn without_jitter(mut self) -> Self {
        self.jitter = 0.0;
        self
    }

    /// A fast variant for unit/integration tests: all service times shrunk
    /// so chaos tests run thousands of schedules per second. Ratios between
    /// components are preserved (so shape assertions still hold).
    pub fn fast_for_tests() -> Self {
        CostModel {
            start: Dur::from_micros(150),
            end: Dur::from_micros(150),
            sql: Dur::from_micros(2_000),
            sql_read: Dur::from_micros(500),
            sql_xa_overhead: Dur::from_micros(100),
            db_prepare: Dur::from_micros(400),
            db_commit: Dur::from_micros(380),
            db_abort: Dur::from_micros(200),
            log_force: Dur::from_micros(600),
            jitter: 0.05,
        }
    }

    /// Every service time zero and no jitter: nothing stalls on a modelled
    /// cost. On the simulator this collapses latency to pure message
    /// ordering; on the threaded backend it is the honest wall-clock
    /// configuration — throughput bounded by the hardware (threads, locks,
    /// channels), not by sleeps replaying the paper's 1999 testbed.
    pub fn zeroed() -> Self {
        CostModel {
            start: Dur::ZERO,
            end: Dur::ZERO,
            sql: Dur::ZERO,
            sql_read: Dur::ZERO,
            sql_xa_overhead: Dur::ZERO,
            db_prepare: Dur::ZERO,
            db_commit: Dur::ZERO,
            db_abort: Dur::ZERO,
            log_force: Dur::ZERO,
            jitter: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_environment() {
        let c = CostModel::default();
        assert_eq!(c.sql, Dur::from_micros(187_000));
        assert_eq!(c.log_force, Dur::from_micros(12_500));
    }

    #[test]
    fn fast_model_preserves_component_ordering() {
        let f = CostModel::fast_for_tests();
        assert!(f.sql > f.db_prepare);
    }

    #[test]
    fn jitter_strip() {
        let c = CostModel::default().without_jitter();
        assert_eq!(c.jitter, 0.0);
    }

    #[test]
    fn batching_defaults_to_the_paper_shape() {
        let b = BatchingConfig::default();
        assert_eq!(b.max_batch, 1, "degenerate batches of one by default");
        assert!(!b.is_batching());
        assert!(BatchingConfig::new(0, Dur::ZERO).max_batch >= 1, "threshold clamps to 1");
        assert!(BatchingConfig::new(64, Dur::from_millis(2)).is_batching());
    }

    #[test]
    fn read_path_defaults_off_and_presets_compose() {
        let r = ReadPathConfig::default();
        assert!(!r.enabled, "paper-faithful default: reads take the commit route");
        assert!(!r.follower_reads);
        assert_eq!(ReadPathConfig::disabled(), ReadPathConfig::default());
        assert!(ReadPathConfig::primary_only().enabled);
        assert!(!ReadPathConfig::primary_only().follower_reads);
        assert!(ReadPathConfig::follower_reads().enabled);
        assert!(ReadPathConfig::follower_reads().follower_reads);
        let c = CostModel::default();
        assert!(c.sql_read < c.sql, "a pure Get batch is cheaper than the full manipulation");
        let f = CostModel::fast_for_tests();
        assert!(f.sql_read < f.sql);
    }

    #[test]
    fn read_leases_default_off_and_presets_compose() {
        let l = ReadLeaseConfig::default();
        assert!(!l.enabled, "paper-faithful default: stamp-gated follower reads");
        assert_eq!(ReadLeaseConfig::disabled(), ReadLeaseConfig::default());
        assert!(ReadLeaseConfig::on().enabled);
        assert!(ReadLeaseConfig::fast_for_tests().enabled);
        // The renewal timer fires while the previous grant still has a
        // quarter of its term to run: 30 ms and 1.5 ms for the presets.
        assert_eq!(ReadLeaseConfig::on().renew_period(), Dur::from_millis(30));
        assert_eq!(ReadLeaseConfig::fast_for_tests().renew_period(), Dur::from_micros(1_500));
        for cfg in [ReadLeaseConfig::on(), ReadLeaseConfig::fast_for_tests()] {
            assert!(cfg.renew_period() < cfg.duration);
            assert!(cfg.renew_period().0 > 0);
        }
        let degenerate = ReadLeaseConfig { enabled: true, duration: Dur(1) };
        assert_eq!(degenerate.renew_period(), Dur(1), "never a zero period");
        // Soundness of in-lease collects leans on the grant expiring below
        // the exec→commit-visible protocol floor of the matching cost model
        // (SQL execution + prepare + commit is a conservative under-count
        // of that path — the real one adds network hops and a consensus
        // round).
        let paper = CostModel::default();
        assert!(
            ReadLeaseConfig::on().duration
                < Dur(paper.sql.0 + paper.db_prepare.0 + paper.db_commit.0)
        );
        let fast = CostModel::fast_for_tests();
        assert!(
            ReadLeaseConfig::fast_for_tests().duration
                < Dur(fast.sql.0 + fast.db_prepare.0 + fast.db_commit.0)
        );
    }

    #[test]
    fn speculation_defaults_off_and_presets_compose() {
        let s = SpeculationConfig::default();
        assert!(!s.enabled, "paper-faithful default: decide before executing");
        assert_eq!(SpeculationConfig::disabled(), SpeculationConfig::default());
        assert!(SpeculationConfig::on().enabled);
    }

    #[test]
    fn protocol_defaults_are_sane() {
        let p = ProtocolConfig::default();
        assert!(p.client_backoff > p.terminate_retry);
        assert!(!p.features.batching.is_batching(), "paper-faithful default pipeline");
        assert!(!p.features.read_path.enabled, "paper-faithful default read route");
        assert!(!p.features.read_leases.enabled, "paper-faithful default follower gate");
        assert!(!p.features.speculation.enabled, "paper-faithful default execute order");
        // The fast preset only shrinks timers: the same orderings, the same
        // flat cadence and features as the default.
        let fast = ProtocolConfig::fast_for_tests();
        // The detector's tick is the cleaner's and the consensus rounds'
        // suspicion poll: it comes round before a terminate retry or a
        // resync would.
        for (q, fd) in [(&p, FdConfig::default()), (&fast, FdConfig::fast_for_tests())] {
            assert!(q.client_backoff > q.client_rebroadcast);
            assert!(q.client_rebroadcast > q.terminate_retry);
            assert_eq!(q.client_rebroadcast_max, q.client_rebroadcast, "flat cadence");
            assert!(fd.heartbeat_every < q.terminate_retry);
            assert!(fd.heartbeat_every < q.consensus_resync);
            assert!(fd.initial_timeout > fd.heartbeat_every);
            assert!(fd.max_timeout > fd.initial_timeout);
        }
        assert!(
            fast.client_backoff < p.client_backoff && fast.consensus_resync < p.consensus_resync
        );
        assert_eq!(fast.features, FeatureSet::default());
    }

    #[test]
    fn zeroed_cost_model_never_stalls() {
        let z = CostModel::zeroed();
        assert_eq!(z.log_force + z.sql + z.start + z.end, Dur::ZERO);
        assert_eq!(z.jitter, 0.0);
    }
}
