//! Property-based testing with proptest: the chaos space and the
//! transactional engine's invariants under arbitrary operation sequences
//! and crash points.

use etx::base::ids::{NodeId, RequestId, ResultId};
use etx::base::time::Dur;
use etx::base::value::{DbOp, Outcome, Vote};
use etx::harness::{feature_corners, run_chaos, ChaosOptions};
use etx::store::Engine;
use proptest::prelude::*;

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
        run_chaos(seed, &opts).assert_ok();
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
            let (vote, writes) = engine.vote(r);
            for w in writes { wal.push(w.rec); }
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
            for w in engine.vote(r).1 { wal.push(w.rec); }
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
            for w in engine.vote(r1).1 { wal.push(w.rec); }
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
