//! The census: four fixed simulator runs, one row each, that say whether a
//! change moved the protocol. Each row is the shape's events, queue pops,
//! handler runs, messages, trace length and the FNV-1a hash of the debug
//! trace, at seed 7 with a 50 ms quiesce after the last request settled.
//! A change that only re-arranges timers may lower the first three and
//! must leave the last three equal.
//!
//! The shapes are the paper's (Figure 8: one client, 4 000 requests at
//! paper scale) and the benchmark's three sharded simulator workloads,
//! `commit_sim16`, `readwrite_sim16` and `failover_sim4`, at full size.
//!
//! ```sh
//! cargo run --release --example census            # every shape, ~30 s
//! cargo run --release --example census -- paper   # the shapes named
//! ```

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::time::Dur;
use etx::harness::{feature_corners, MiddleTier, Scenario, ScenarioBuilder, Workload};
use std::fmt::Write;

const SEED: u64 = 7;
/// What `etx_bench` credits or moves per request at `--seed 7`.
const AMOUNT: i64 = 1 + (SEED % 97) as i64;

/// FNV-1a over whatever is written to it, so the debug trace (hundreds of
/// MB on the sharded shapes) is hashed without being held.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

fn build(shape: &str) -> Scenario {
    let tier = MiddleTier::Etx { apps: 3 };
    let [_, (_, pipelined), (_, reads)] = feature_corners();
    let sharded = |features, shards, clients, requests, workload| {
        ScenarioBuilder::fast(tier, SEED)
            .features(features)
            .shards(shards)
            .replication(2)
            .clients(clients)
            .requests(requests)
            .workload(workload)
            .build()
    };
    match shape {
        "paper" => ScenarioBuilder::new(tier, SEED).requests(4_000).build(),
        "commit_sim16" => sharded(
            pipelined,
            16,
            64,
            400,
            Workload::ShardedBank { accounts: 1_024, cross_pct: 10, amount: AMOUNT },
        ),
        "readwrite_sim16" => sharded(
            reads,
            16,
            64,
            600,
            Workload::ReadAfterWrite { accounts: 1_024, amount: AMOUNT },
        ),
        "failover_sim4" => {
            let mut s = sharded(
                pipelined,
                4,
                32,
                500,
                Workload::ShardedBank { accounts: 256, cross_pct: 10, amount: AMOUNT },
            );
            let crash = |node, at, down_for| {
                (
                    NemesisWhen::After(Dur::from_millis(at)),
                    FaultOp::CrashFor { node, down_for: Dur::from_millis(down_for) },
                )
            };
            let (app, db) = (s.primary(), s.shard_primary(0));
            let faults = [crash(app, 300, 100)]
                .into_iter()
                .chain([900, 1_500, 2_100].map(|at| crash(db, at, 50)));
            for (when, op) in faults {
                s.schedule_fault(when, op).expect("the simulator injects every fault");
            }
            s
        }
        _ => panic!("unknown shape {shape}: paper, commit_sim16, readwrite_sim16, failover_sim4"),
    }
}

fn main() {
    let all = ["paper", "commit_sim16", "readwrite_sim16", "failover_sim4"];
    let named: Vec<String> = std::env::args().skip(1).collect();
    println!("| shape | events | pops | runs | messages | trace events | hash |");
    println!("|---|---|---|---|---|---|---|");
    for shape in all.into_iter().filter(|s| named.is_empty() || named.iter().any(|n| n == s)) {
        let mut s = build(shape);
        let requests = s.requests as usize;
        s.run_until_settled(requests);
        s.quiesce(Dur::from_millis(50));
        let mut hash = Fnv(0xCBF2_9CE4_8422_2325);
        write!(hash, "{:#?}", s.trace().events()).expect("hashing cannot fail");
        let sim = s.sim();
        println!(
            "| `{shape}` | {} | {} | {} | {} | {} | `{:016x}` |",
            sim.processed(),
            sim.pops(),
            sim.runs(),
            s.stats().total(),
            s.trace().len(),
            hash.0
        );
    }
}
