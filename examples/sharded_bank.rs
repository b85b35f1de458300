//! A cross-shard funds transfer on a partitioned back end.
//!
//! Four hash shards, two replicas each. The client's script is
//! *key-addressed* — it names accounts, not servers; the application
//! server's shard router splits it into one XA branch per touched shard
//! and drives the paper's vote/decide protocol across both. Mid-commit we
//! crash one branch's shard primary; the transfer still terminates with a
//! single outcome, delivered exactly once, and the shard's follower
//! converges on the committed state via asynchronous replication.
//!
//! ```sh
//! cargo run --example sharded_bank
//! ```

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::base::value::Outcome;
use etx::harness::{check, LivenessChecks, MiddleTier, ScenarioBuilder, Workload};

fn main() {
    println!("== a cross-shard transfer that loses a shard primary mid-commit ==\n");

    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 0xBA4C)
        .shards(4)
        .replication(2)
        .workload(Workload::ShardedBank { accounts: 32, cross_pct: 100, amount: 10 })
        .requests(2)
        .build();

    println!(
        "topology : {} shards × {} replicas = {} database servers",
        s.shard_map.shard_count(),
        s.shard_map.replication(),
        s.topo.db_servers.len()
    );

    // Crash whichever shard primary votes first — the transfer's branch is
    // prepared (in-doubt) at that instant — and recover it 25 ms later.
    for g in 0..4 {
        let p = s.shard_primary(g);
        s.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == p && matches!(ev.kind, TraceKind::DbVote { .. })
            }),
            FaultOp::CrashFor { node: p, down_for: Dur::from_millis(25) },
        )
        .unwrap();
    }

    let initial: i64 =
        (0..4).map(|g| s.rebuilt_committed(s.shard_primary(g)).values().sum::<i64>()).sum();

    s.run_until_settled(2);
    s.quiesce(Dur::from_millis(500));

    let deliveries = s.deliveries();
    let crashes = s.trace().count_kind(|k| matches!(k, TraceKind::Crash));
    let cross = s.cross_shard_routes();
    println!("faults   : {crashes} crash(es) injected mid-commit");
    println!("routing  : {cross} transaction(s) spanned more than one shard");
    for (rid, outcome, _, at) in &deliveries {
        println!("delivered: {rid} → {outcome} at {at}");
    }

    let total: i64 =
        (0..4).map(|g| s.rebuilt_committed(s.shard_primary(g)).values().sum::<i64>()).sum();
    println!("balance  : {initial} before, {total} after (transfers conserve money)");

    // Follower convergence: every replica of every shard agrees with its
    // primary once replication quiesces.
    for g in 0..4 {
        let primary_state = s.rebuilt_committed(s.shard_primary(g));
        let followers: Vec<_> = s.shard_replicas(g).iter().skip(1).copied().collect();
        for r in followers {
            assert_eq!(s.rebuilt_committed(r), primary_state, "shard {g} replica diverged");
        }
    }
    println!("replicas : all shard followers converged with their primaries");

    assert_eq!(deliveries.len(), 2, "both requests delivered exactly once");
    assert!(deliveries.iter().all(|(_, o, _, _)| *o == Outcome::Commit));
    assert!(cross >= 1, "the 100% transfer mix must cross shards");
    assert_eq!(initial, total);
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
    println!("\nspec     : T.1 T.2 A.1 A.2 A.3 V.1 V.2 all hold ✓");
}
