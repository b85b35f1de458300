//! The "charged twice" story from the paper's introduction, played out.
//!
//! Scenario: the server crashes right after the database commits the
//! payment but before the user hears back. The user (or their browser)
//! retries.
//!
//! * Under **2PC with naive retry**: the request executes again — the
//!   account is charged twice (at-least-once).
//! * Under **e-Transactions**: the identical crash schedule yields exactly
//!   one charge and a delivered result.
//!
//! ```sh
//! cargo run --example bank_transfer
//! ```

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::base::value::Outcome;
use etx::baselines::RetryPolicy;
use etx::harness::{MiddleTier, ScenarioBuilder, Workload};

fn commits(s: &etx::harness::Scenario) -> usize {
    s.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }))
}

fn main() {
    println!("== the same crash, two protocols ==\n");

    // --- 2PC + the retry every real user performs -----------------------
    let mut tpc = ScenarioBuilder::fast(MiddleTier::Tpc, 1)
        .workload(Workload::BankUpdate { amount: 100 })
        .client_retry(RetryPolicy::NaiveResend { max_retries: 4 })
        .requests(1)
        .build();
    let coord = tpc.topo.app_servers[0];
    let db = tpc.topo.db_servers[0];
    tpc.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == db && matches!(ev.kind, TraceKind::DbDecide { outcome: Outcome::Commit, .. })
        }),
        FaultOp::CrashFor { node: coord, down_for: Dur::from_millis(200) },
    )
    .unwrap();
    tpc.sim_mut().run_until(|s| {
        s.trace().count_kind(|k| matches!(k, TraceKind::DbDecide { outcome: Outcome::Commit, .. }))
            >= 2
    });
    tpc.quiesce(Dur::from_millis(100));
    println!("2PC + naive retry : {} database commits — the user paid twice!", commits(&tpc));

    // --- e-Transactions under the same fault ----------------------------
    let mut etx_run = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 1)
        .workload(Workload::BankUpdate { amount: 100 })
        .requests(1)
        .build();
    let a1 = etx_run.topo.primary();
    let db2 = etx_run.topo.db_servers[0];
    // app servers are crash-stop; replicas cover
    etx_run
        .schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == db2
                    && matches!(ev.kind, TraceKind::DbDecide { outcome: Outcome::Commit, .. })
            }),
            FaultOp::Crash(a1),
        )
        .unwrap();
    etx_run.run_until_settled(1);
    etx_run.quiesce(Dur::from_millis(100));
    println!(
        "e-Transactions    : {} database commit(s) — exactly once, result delivered",
        commits(&etx_run)
    );
    assert!(commits(&tpc) >= 2);
    assert_eq!(commits(&etx_run), 1);
    assert_eq!(etx_run.delivered_commits(), 1);
}
