//! Property-based testing with proptest: the chaos space and the
//! transactional engine's invariants under arbitrary operation sequences
//! and crash points.

use etx::base::ids::{NodeId, RequestId, ResultId};
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::value::{DbOp, Outcome, Vote};
use etx::base::wal::StableRecord;
use etx::harness::{feature_corners, run_chaos, ChaosOptions};
use etx::store::{Engine, LogWrite};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn rid(n: u64) -> ResultId {
    ResultId::first(RequestId { client: NodeId(0), seq: n })
}

fn arb_op() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        (0..4u8).prop_map(|k| DbOp::Get { key: format!("k{k}") }),
        (0..4u8, -50..50i64).prop_map(|(k, v)| DbOp::Put { key: format!("k{k}"), value: v }),
        (0..4u8, -10..10i64).prop_map(|(k, d)| DbOp::Add { key: format!("k{k}"), delta: d }),
        (0..4u8, 1..3i64).prop_map(|(k, q)| DbOp::Reserve { key: format!("k{k}"), qty: q }),
    ]
}

/// Branch `n` of the checkpoint test: two clients, so the decide memo holds
/// more than one window.
fn branch(n: u64) -> ResultId {
    ResultId::first(RequestId { client: NodeId((n % 2) as u32), seq: n })
}

/// The branch numbers the checkpoint test draws from.
const BRANCHES: std::ops::Range<u64> = 1..12;

/// One step of `a_checkpointed_log_recovers_like_the_full_log`: work at a
/// shard primary, shipments to its follower, and checkpoints of either log.
#[derive(Debug, Clone)]
enum LogStep {
    /// Branch `n` executes a batch at the primary.
    Execute(u64, Vec<DbOp>),
    /// Branch `n` votes.
    Vote(u64),
    /// Branch `n` is decided, commit when `true`. A number drawn again is a
    /// duplicate decide; a commit of one never executed changes nothing.
    Decide(u64, bool),
    /// What the primary committed since the last shipment reaches the
    /// follower in one batch: in order (0), without its first item (1, a
    /// lost apply: the rest waits beyond a gap) or reversed (2).
    Ship(u8),
    /// The follower adopts the primary's snapshot.
    Sync,
    /// The primary's (`false`) or the follower's (`true`) log is replaced
    /// by one checkpoint of its engine's live state.
    Checkpoint(bool),
}

fn arb_log_step() -> impl Strategy<Value = LogStep> {
    let execute = || {
        (BRANCHES, proptest::collection::vec(arb_op(), 1..3))
            .prop_map(|(n, ops)| LogStep::Execute(n, ops))
    };
    let vote = || BRANCHES.prop_map(LogStep::Vote);
    let decide = || (BRANCHES, any::<bool>()).prop_map(|(n, commit)| LogStep::Decide(n, commit));
    // Work at the primary twice as often as each of the other steps.
    prop_oneof![
        execute(),
        execute(),
        vote(),
        vote(),
        decide(),
        decide(),
        (0..3u8).prop_map(LogStep::Ship),
        Just(LogStep::Sync),
        any::<bool>().prop_map(LogStep::Checkpoint),
    ]
}

/// Two recovered engines answer alike: data, in-doubt branches, locks, the
/// memo for every branch, and both replication positions.
fn same_recovery(got: &Engine, want: &Engine, at: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.snapshot(), want.snapshot(), "data, {}", at);
    prop_assert_eq!(got.prepared_rids(), want.prepared_rids(), "in-doubt branches, {}", at);
    prop_assert_eq!(got.locked_keys(), want.locked_keys(), "locked keys, {}", at);
    for n in BRANCHES {
        prop_assert_eq!(got.decision(branch(n)), want.decision(branch(n)), "memo of {}, {}", n, at);
    }
    prop_assert_eq!(got.repl_position(), want.repl_position(), "follower position, {}", at);
    prop_assert_eq!(got.ship_position(), want.ship_position(), "ship position, {}", at);
    Ok(())
}

/// One database of the checkpoint test: its engine, the log it would keep
/// without checkpoints, and the log it keeps with them.
#[derive(Default)]
struct Logged {
    engine: Engine,
    full: Vec<StableRecord>,
    checkpointed: Vec<StableRecord>,
    /// Length of `full` when `checkpointed` was last replaced, if it was:
    /// record `1 + i` of `checkpointed` is then record `cut + i` of `full`.
    cut: Option<usize>,
}

impl Logged {
    fn append(&mut self, writes: Vec<LogWrite>) {
        for w in writes {
            self.full.push(w.rec.clone());
            self.checkpointed.push(w.rec);
        }
    }

    /// Checkpoints the log as a database does: its live image, which must
    /// be what the replaced log rebuilds.
    fn checkpoint(&mut self) -> Result<(), TestCaseError> {
        self.prefixes_recover()?;
        let image = self.engine.image();
        prop_assert_eq!(&image, &Engine::recover(&self.full).image(), "live image against replay");
        self.checkpointed = vec![StableRecord::Checkpoint(Box::new(image))];
        self.cut = Some(self.full.len());
        Ok(())
    }

    /// The checkpointed log recovers as the full log does.
    fn recovers(&self) -> Result<(), TestCaseError> {
        same_recovery(
            &Engine::recover(&self.checkpointed),
            &Engine::recover(&self.full),
            "whole log",
        )
    }

    /// A crash after any record of the checkpointed log recovers what a
    /// crash after the same record of the full log does.
    fn prefixes_recover(&self) -> Result<(), TestCaseError> {
        let (cut, skip) = self.cut.map_or((0, 0), |cut| (cut, 1));
        for len in skip..=self.checkpointed.len() {
            let full = &self.full[..cut + len - skip];
            let at = format!("prefix of {len} records");
            same_recovery(
                &Engine::recover(&self.checkpointed[..len]),
                &Engine::recover(full),
                &at,
            )?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The whole protocol stack under arbitrary chaos seeds/options, in
    /// any row of the feature table.
    #[test]
    fn spec_holds_under_arbitrary_chaos(
        seed in 0u64..5_000,
        apps in prop_oneof![Just(3usize), Just(5usize)],
        dbs in 1usize..3,
        loss in prop_oneof![Just(0.0f64), Just(0.05), Just(0.15)],
        requests in 1u64..3,
        corner in 0usize..3,
        outage in any::<bool>(),
    ) {
        let mut opts = ChaosOptions {
            apps,
            dbs,
            requests,
            loss_rate: loss,
            features: feature_corners()[corner].1,
            ..ChaosOptions::default()
        };
        if outage {
            // Enough concurrency to form a batch, whose first application
            // takes the primary down over its pre-claims (that outage is
            // the run's one application-server crash).
            opts = ChaosOptions {
                clients: 4,
                max_app_crashes: 0,
                primary_outage_on_batch: Some(Dur::from_millis(30)),
                ..opts
            };
        }
        run_chaos(seed, &opts, RuntimeKind::Sim).assert_ok();
    }

    /// Committed effects survive any crash point: for every prefix of the
    /// WAL, recovery never invents data and never loses a committed write.
    #[test]
    fn store_recovery_is_prefix_safe(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 1..5), 1..8),
    ) {
        let mut engine = Engine::new();
        let mut wal = Vec::new();
        let mut committed = std::collections::BTreeMap::new();
        for (i, ops) in batches.iter().enumerate() {
            let r = rid(i as u64 + 1);
            let st = engine.execute(r, ops);
            let (vote, write) = engine.vote(r);
            wal.extend(write.map(|w| w.rec));
            if vote == Vote::Yes {
                let (o, writes) = engine.decide(r, Outcome::Commit);
                for w in writes { wal.push(w.rec); }
                prop_assert_eq!(o, Outcome::Commit);
                committed.clear();
                committed.extend(engine.snapshot().clone());
            } else {
                let (_, writes) = engine.decide(r, Outcome::Abort);
                for w in writes { wal.push(w.rec); }
            }
            let _ = st;
            // Crash NOW at this wal prefix: recovery must equal the
            // committed state exactly.
            let recovered = Engine::recover(&wal);
            prop_assert_eq!(recovered.snapshot(), engine.snapshot(),
                "recovered state diverged at batch {}", i);
        }
    }

    /// A checkpointed log recovers like the full log. Random executes,
    /// votes, commit and abort decides (duplicates and commits of branches
    /// never held among them) at a primary; shipments to its follower that arrive in
    /// order, past a gap or reversed; snapshot adoptions; and checkpoints
    /// of either log at random points. After every step, recovering each
    /// checkpointed log answers as recovering its full log; each checkpoint
    /// holds what its replaced log rebuilds; and a crash after any record
    /// of a checkpointed log recovers as one after the same record of the
    /// full log does, so checkpointing keeps the log prefix-safe.
    #[test]
    fn a_checkpointed_log_recovers_like_the_full_log(
        steps in proptest::collection::vec(arb_log_step(), 1..60),
    ) {
        let (mut primary, mut follower) = (Logged::default(), Logged::default());
        let mut shipped = Vec::new();
        let mut executed = std::collections::BTreeSet::new();
        for step in steps {
            match step {
                LogStep::Execute(n, ops) => {
                    executed.insert(n);
                    primary.engine.execute(branch(n), &ops);
                }
                LogStep::Vote(n) => {
                    let (_, write) = primary.engine.vote(branch(n));
                    primary.append(write.into_iter().collect());
                }
                LogStep::Decide(n, commit) => {
                    let r = branch(n);
                    let e = &primary.engine;
                    // Committing a branch that executed but never voted yes
                    // would break V.2: such a branch only aborts.
                    let unprepared =
                        executed.contains(&n) && e.decision(r).is_none() && !e.is_prepared(r);
                    let outcome = if commit && !unprepared { Outcome::Commit } else { Outcome::Abort };
                    let (_, writes) = primary.engine.decide(r, outcome);
                    primary.append(writes);
                }
                LogStep::Ship(mode) => {
                    let mut items = std::mem::take(&mut shipped);
                    match mode {
                        0 => {}
                        1 if !items.is_empty() => {
                            items.remove(0);
                        }
                        _ => items.reverse(),
                    }
                    let writes = follower.engine.apply_replicated_batch(items).writes;
                    follower.append(writes);
                }
                LogStep::Sync => {
                    let (seq, entries) = primary.engine.repl_snapshot();
                    let writes = follower.engine.adopt_repl_snapshot(seq, entries);
                    follower.append(writes);
                }
                LogStep::Checkpoint(false) => primary.checkpoint()?,
                LogStep::Checkpoint(true) => follower.checkpoint()?,
            }
            shipped.extend(primary.engine.take_repl_outbox());
            primary.recovers()?;
            follower.recovers()?;
        }
        primary.prefixes_recover()?;
        follower.prefixes_recover()?;
    }

    /// Recovery is idempotent and insensitive to being re-run.
    #[test]
    fn store_recovery_idempotent(
        n in 1usize..10,
    ) {
        let mut engine = Engine::new();
        let mut wal = Vec::new();
        for i in 0..n {
            let r = rid(i as u64 + 1);
            engine.execute(r, &[DbOp::Add { key: "x".into(), delta: 1 }]);
            wal.extend(engine.vote(r).1.map(|w| w.rec));
            for w in engine.decide(r, Outcome::Commit).1 { wal.push(w.rec); }
        }
        let once = Engine::recover(&wal);
        let twice = Engine::recover(&wal);
        prop_assert_eq!(once.snapshot(), twice.snapshot());
        prop_assert_eq!(once.committed("x"), Some(n as i64));
    }

    /// In-doubt branches keep their locks across recovery; everything else
    /// releases.
    #[test]
    fn store_indoubt_locks_survive(
        prepare_first in any::<bool>(),
    ) {
        let mut engine = Engine::new();
        let mut wal = Vec::new();
        let r1 = rid(1);
        engine.execute(r1, &[DbOp::Put { key: "a".into(), value: 1 }]);
        if prepare_first {
            wal.extend(engine.vote(r1).1.map(|w| w.rec));
        }
        let recovered = Engine::recover(&wal);
        if prepare_first {
            prop_assert!(recovered.is_prepared(r1));
            let mut rec = recovered;
            prop_assert_eq!(
                rec.execute(rid(2), &[DbOp::Put { key: "a".into(), value: 2 }]),
                etx::base::value::ExecStatus::Conflict
            );
        } else {
            prop_assert!(!recovered.is_prepared(r1));
            prop_assert_eq!(recovered.snapshot().len(), 0);
        }
    }
}
