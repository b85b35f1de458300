//! Workload generators: the concrete business logics requests run.

use etx_base::ids::{NodeId, RequestId, Topology};
use etx_base::value::{DbCall, DbOp, Request, RequestScript};

/// splitmix64 — derives per-request choices (which accounts, cross-shard or
/// not) deterministically from the request identity, so workloads need no
/// shared RNG and replay identically on every application-server replica.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A family of requests a client can issue.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The paper's measured experiment (Appendix 3): "execute some SQL
    /// statements to update a bank account on a single database".
    BankUpdate {
        /// Amount credited per request.
        amount: i64,
    },
    /// A two-database funds transfer — exercises distributed atomic
    /// commitment across resource managers.
    BankTransfer {
        /// Amount moved from `checking` (db 0) to `savings` (db 1).
        amount: i64,
    },
    /// The travel example from the paper's introduction: book a flight, a
    /// hotel and a car, spread across the available databases. Reservations
    /// that find empty inventory yield the informative `sold_out` result.
    Travel,
    /// All requests fight over one key — generates lock conflicts and
    /// therefore aborts + client retries.
    HotSpot,
    /// Business logic that the databases always refuse to commit (vote no).
    AlwaysDoomed,
    /// Shard-aware bank: `accounts` keys (`acct0`…) spread over the
    /// partitioned keyspace by the application server's shard router.
    /// Each request is a single-account update, except that `cross_pct`
    /// percent of requests are two-account transfers — the cross-shard
    /// percentage sweep of STAR's Figure 1, reproduced for e-Transactions.
    /// Key-addressed: only runs meaningfully under `MiddleTier::Etx`.
    ShardedBank {
        /// Number of bank accounts (keys).
        accounts: u32,
        /// Percentage (0–100) of requests that touch two accounts.
        cross_pct: u8,
        /// Amount credited / transferred per request.
        amount: i64,
    },
    /// Skewed shard-aware bank: `hot_pct` percent of requests hammer
    /// `acct0` (whose shard becomes the hot shard); the rest spread
    /// uniformly. The chaos suite crashes the hot shard's replicas
    /// mid-commit while traffic to the other shards proceeds.
    HotShard {
        /// Number of bank accounts (keys).
        accounts: u32,
        /// Percentage (0–100) of requests aimed at the hot key.
        hot_pct: u8,
        /// Amount credited per request.
        amount: i64,
    },
    /// High-concurrency open-loop burst: uniform single-account updates
    /// over `accounts` keys, issued by an **open-loop** client that fires
    /// its whole plan at start instead of waiting for deliveries. This is
    /// the load shape that exercises the commit pipeline — with many
    /// requests concurrently in flight the application server's pipeline
    /// queue actually fills, so decision-log slots carry real batches.
    /// The `ScenarioBuilder` switches clients to open-loop mode for this
    /// workload automatically.
    OpenLoopBurst {
        /// Number of bank accounts (keys).
        accounts: u32,
        /// Amount credited per request.
        amount: i64,
    },
    /// Read-dominated open-loop traffic: `read_pct` percent of requests
    /// are pure-`Get` scripts (one account, or two — a cross-shard
    /// read-only fan-out — every fourth read), the rest single-account
    /// `Add` updates. The workload family the read fast lane exists for;
    /// issued open-loop so read and write traffic genuinely interleave.
    ReadMostly {
        /// Number of bank accounts (keys).
        accounts: u32,
        /// Percentage (0–100) of requests that are read-only.
        read_pct: u8,
        /// Amount credited per write request.
        amount: i64,
    },
    /// Conserved-pair traffic for the cross-shard read-atomicity
    /// invariant: the keyspace is `pairs` fixed account pairs
    /// (`acct0`/`acct1`, `acct2`/`acct3`, …) seeded with 1 000 each.
    /// Write requests transfer `amount` *within* one pair — so the pair's
    /// sum is 2 000 at every transactionally consistent snapshot — and
    /// read requests (`read_pct` percent) read **both** accounts of a
    /// pair in one read-only script. Under hash sharding most pairs
    /// straddle two shards, so a fractured cross-shard fan-out read shows
    /// up as a sum ≠ 2 000. Issued open-loop so reads genuinely race the
    /// transfers they must never observe half-applied.
    ConservedPairs {
        /// Number of account pairs (2 × this many keys).
        pairs: u32,
        /// Percentage (0–100) of requests that are pair reads.
        read_pct: u8,
        /// Amount moved within a pair per transfer.
        amount: i64,
    },
    /// Sequential write-then-read pairs over the keyspace: odd sequence
    /// numbers update an account, the following even sequence number reads
    /// that same account back. Because the client is sequential, the write
    /// is delivered (committed at its shard primary) before the read is
    /// issued — the read-your-writes shape the follower-read freshness
    /// stamp must protect against asynchronous shipping lag.
    ReadAfterWrite {
        /// Number of bank accounts (keys).
        accounts: u32,
        /// Amount credited per write.
        amount: i64,
    },
}

impl Workload {
    /// Seed data the databases should start with.
    pub fn seed_data(&self) -> Vec<(String, i64)> {
        match self {
            Workload::BankUpdate { .. } => vec![("acct".into(), 1_000)],
            Workload::BankTransfer { .. } => {
                vec![("checking".into(), 10_000), ("savings".into(), 0)]
            }
            Workload::Travel => vec![
                ("flight:LX1612".into(), 50),
                ("hotel:Beau-Rivage".into(), 10),
                ("car:compact".into(), 25),
            ],
            Workload::HotSpot => vec![("hot".into(), 0)],
            Workload::AlwaysDoomed => vec![],
            Workload::ShardedBank { accounts, .. }
            | Workload::HotShard { accounts, .. }
            | Workload::OpenLoopBurst { accounts, .. }
            | Workload::ReadMostly { accounts, .. }
            | Workload::ReadAfterWrite { accounts, .. } => {
                (0..*accounts).map(|i| (format!("acct{i}"), 1_000)).collect()
            }
            Workload::ConservedPairs { pairs, .. } => {
                (0..pairs * 2).map(|i| (format!("acct{i}"), 1_000)).collect()
            }
        }
    }

    /// Builds request `seq` for `client` against the given topology — a
    /// pure function of the two, which is what lets a client make each
    /// request when it issues it instead of holding its plan.
    pub fn request(&self, topo: &Topology, client: NodeId, seq: u64) -> Request {
        let id = RequestId { client, seq };
        let db = |i: usize| topo.db_servers[i % topo.db_servers.len()];
        let script = match self {
            Workload::BankUpdate { amount } => RequestScript::single(
                db(0),
                [
                    DbOp::Get { key: "acct".into() },
                    DbOp::Add { key: "acct".into(), delta: *amount },
                ],
            ),
            Workload::BankTransfer { amount } => RequestScript::from_calls(vec![
                DbCall::new(db(0), [DbOp::Add { key: "checking".into(), delta: -amount }]),
                DbCall::new(db(1), [DbOp::Add { key: "savings".into(), delta: *amount }]),
            ]),
            Workload::Travel => RequestScript::from_calls(vec![
                DbCall::new(db(0), [DbOp::Reserve { key: "flight:LX1612".into(), qty: 1 }]),
                DbCall::new(db(1), [DbOp::Reserve { key: "hotel:Beau-Rivage".into(), qty: 1 }]),
                DbCall::new(
                    db(2 % topo.db_servers.len().max(1)),
                    [DbOp::Reserve { key: "car:compact".into(), qty: 1 }],
                ),
            ]),
            Workload::HotSpot => {
                RequestScript::single(db(0), [DbOp::Add { key: "hot".into(), delta: 1 }])
            }
            Workload::AlwaysDoomed => RequestScript::single(db(0), [DbOp::Doom]),
            Workload::ShardedBank { accounts, cross_pct, amount } => {
                let n = (*accounts).max(1) as u64;
                let h = mix(u64::from(client.0) << 32 | seq);
                let a = h % n;
                let cross = (h >> 16) % 100 < u64::from(*cross_pct) && n > 1;
                if cross {
                    // Transfer a → b (b distinct from a).
                    let b = (a + 1 + (h >> 32) % (n - 1)) % n;
                    RequestScript::keyed([
                        DbOp::Add { key: format!("acct{a}"), delta: -amount },
                        DbOp::Add { key: format!("acct{b}"), delta: *amount },
                    ])
                } else {
                    RequestScript::keyed([DbOp::Add { key: format!("acct{a}"), delta: *amount }])
                }
            }
            Workload::HotShard { accounts, hot_pct, amount } => {
                let n = (*accounts).max(1) as u64;
                let h = mix(u64::from(client.0) << 32 | seq);
                let a = if (h >> 8) % 100 < u64::from(*hot_pct) { 0 } else { h % n };
                RequestScript::keyed([DbOp::Add { key: format!("acct{a}"), delta: *amount }])
            }
            Workload::OpenLoopBurst { accounts, amount } => {
                let n = (*accounts).max(1) as u64;
                let h = mix(u64::from(client.0) << 32 | seq);
                let a = h % n;
                RequestScript::keyed([DbOp::Add { key: format!("acct{a}"), delta: *amount }])
            }
            Workload::ReadMostly { accounts, read_pct, amount } => {
                let n = (*accounts).max(1) as u64;
                let h = mix(u64::from(client.0) << 32 | seq);
                let a = h % n;
                if h % 100 < u64::from(*read_pct) {
                    // Read-only script; every fourth read spans two
                    // accounts so cross-shard read fan-out gets exercised.
                    if (h >> 40).is_multiple_of(4) && n > 1 {
                        let b = (a + 1 + (h >> 32) % (n - 1)) % n;
                        RequestScript::keyed([
                            DbOp::Get { key: format!("acct{a}") },
                            DbOp::Get { key: format!("acct{b}") },
                        ])
                    } else {
                        RequestScript::keyed([DbOp::Get { key: format!("acct{a}") }])
                    }
                } else {
                    RequestScript::keyed([DbOp::Add { key: format!("acct{a}"), delta: *amount }])
                }
            }
            Workload::ConservedPairs { pairs, read_pct, amount } => {
                let n = (*pairs).max(1) as u64;
                let h = mix(u64::from(client.0) << 32 | seq);
                let p = h % n;
                let (a, b) = (2 * p, 2 * p + 1);
                if h % 100 < u64::from(*read_pct) {
                    // Read both accounts of the pair in one script: the
                    // merged result's sum is the invariant under test.
                    RequestScript::keyed([
                        DbOp::Get { key: format!("acct{a}") },
                        DbOp::Get { key: format!("acct{b}") },
                    ])
                } else {
                    // Transfer within the pair; direction flips per draw so
                    // balances wander but the pair sum never moves. Ops are
                    // emitted in canonical key order (lower account first,
                    // direction carried by the deltas' signs): shard routing
                    // is first-touch order, so opposite-direction transfers
                    // written as (from, to) would acquire their two shards'
                    // locks in opposite orders and can livelock under
                    // no-wait locking with immediate client retries.
                    let d = if (h >> 20) & 1 == 0 { *amount } else { -amount };
                    RequestScript::keyed([
                        DbOp::Add { key: format!("acct{a}"), delta: -d },
                        DbOp::Add { key: format!("acct{b}"), delta: d },
                    ])
                }
            }
            Workload::ReadAfterWrite { accounts, amount } => {
                let n = (*accounts).max(1) as u64;
                // Pair index: requests (1,2) share a key, (3,4) the next…
                // Consecutive pairs take consecutive accounts from a
                // client-specific offset, so up to `accounts` pairs touch
                // *distinct* keys — each read observes exactly its own
                // pair's write.
                let pair = seq.div_ceil(2);
                let a = (mix(u64::from(client.0)) + pair) % n;
                if seq % 2 == 1 {
                    RequestScript::keyed([DbOp::Add { key: format!("acct{a}"), delta: *amount }])
                } else {
                    RequestScript::keyed([DbOp::Get { key: format!("acct{a}") }])
                }
            }
        };
        Request { id, script }
    }

    /// Whether this workload expects an open-loop client (whole plan in
    /// flight at once) rather than the paper's sequential `issue()` loop.
    pub fn is_open_loop(&self) -> bool {
        matches!(
            self,
            Workload::OpenLoopBurst { .. }
                | Workload::ReadMostly { .. }
                | Workload::ConservedPairs { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_update_targets_single_db() {
        let topo = Topology::new(1, 3, 1);
        let w = Workload::BankUpdate { amount: 10 };
        let r = w.request(&topo, topo.clients[0], 1);
        assert_eq!(r.script.databases(), vec![topo.db_servers[0]]);
        assert_eq!(w.seed_data()[0].0, "acct");
    }

    #[test]
    fn transfer_spans_two_dbs() {
        let topo = Topology::new(1, 3, 2);
        let w = Workload::BankTransfer { amount: 100 };
        let r = w.request(&topo, topo.clients[0], 1);
        assert_eq!(r.script.databases().len(), 2);
    }

    #[test]
    fn travel_folds_onto_available_dbs() {
        let topo1 = Topology::new(1, 3, 1);
        let r1 = Workload::Travel.request(&topo1, topo1.clients[0], 1);
        assert_eq!(r1.script.databases().len(), 1, "one db hosts everything");
        let topo3 = Topology::new(1, 3, 3);
        let r3 = Workload::Travel.request(&topo3, topo3.clients[0], 1);
        assert_eq!(r3.script.databases().len(), 3);
    }

    #[test]
    fn sharded_bank_is_keyed_and_deterministic() {
        let topo = Topology::new(1, 3, 4);
        let w = Workload::ShardedBank { accounts: 16, cross_pct: 50, amount: 10 };
        let r1 = w.request(&topo, topo.clients[0], 7);
        let r2 = w.request(&topo, topo.clients[0], 7);
        assert_eq!(r1, r2, "same identity, same script");
        assert!(r1.script.is_keyed());
        let sizes: Vec<usize> = (1..=100)
            .map(|s| w.request(&topo, topo.clients[0], s).script.keyed_ops.len())
            .collect();
        assert!(sizes.contains(&1) && sizes.contains(&2), "mix of singles and transfers");
    }

    #[test]
    fn sharded_bank_cross_pct_bounds() {
        let topo = Topology::new(1, 3, 4);
        let never = Workload::ShardedBank { accounts: 8, cross_pct: 0, amount: 1 };
        assert!(
            (1..=50).all(|s| never.request(&topo, topo.clients[0], s).script.keyed_ops.len() == 1)
        );
        let always = Workload::ShardedBank { accounts: 8, cross_pct: 100, amount: 1 };
        assert!(
            (1..=50).all(|s| always.request(&topo, topo.clients[0], s).script.keyed_ops.len() == 2)
        );
    }

    #[test]
    fn hot_shard_skews_towards_acct0() {
        let topo = Topology::new(1, 3, 4);
        let w = Workload::HotShard { accounts: 16, hot_pct: 90, amount: 1 };
        let hot = (1..=200u64)
            .filter(|&s| {
                let r = w.request(&topo, topo.clients[0], s);
                r.script.keyed_ops[0].key() == Some("acct0")
            })
            .count();
        assert!(hot > 140, "≈90% of 200 requests should hit acct0, got {hot}");
        assert_eq!(w.seed_data().len(), 16);
    }

    #[test]
    fn open_loop_burst_is_keyed_uniform_and_flagged() {
        let topo = Topology::new(1, 3, 4);
        let w = Workload::OpenLoopBurst { accounts: 8, amount: 1 };
        assert!(w.is_open_loop());
        assert!(!Workload::HotSpot.is_open_loop());
        assert_eq!(w.seed_data().len(), 8);
        let distinct: std::collections::BTreeSet<String> = (1..=64u64)
            .filter_map(|s| {
                let r = w.request(&topo, topo.clients[0], s);
                assert!(r.script.is_keyed());
                r.script.keyed_ops[0].key().map(str::to_string)
            })
            .collect();
        assert!(distinct.len() >= 6, "64 draws must spread over the keyspace: {distinct:?}");
    }

    #[test]
    fn read_mostly_mixes_reads_and_writes_by_fraction() {
        let topo = Topology::new(1, 3, 4);
        let w = Workload::ReadMostly { accounts: 16, read_pct: 90, amount: 1 };
        assert!(w.is_open_loop(), "read traffic interleaves with writes");
        let reqs: Vec<_> = (1..=200u64).map(|s| w.request(&topo, topo.clients[0], s)).collect();
        let reads = reqs.iter().filter(|r| r.script.is_read_only()).count();
        assert!(
            (150..=200).contains(&reads),
            "≈90% of 200 requests should be read-only, got {reads}"
        );
        assert!(
            reqs.iter().any(|r| r.script.is_read_only() && r.script.keyed_ops.len() == 2),
            "some reads must span two accounts (cross-shard fan-out)"
        );
        let all_reads = Workload::ReadMostly { accounts: 16, read_pct: 100, amount: 1 };
        assert!(
            (1..=50u64).all(|s| all_reads.request(&topo, topo.clients[0], s).script.is_read_only())
        );
        let no_reads = Workload::ReadMostly { accounts: 16, read_pct: 0, amount: 1 };
        assert!(
            (1..=50u64).all(|s| !no_reads.request(&topo, topo.clients[0], s).script.is_read_only())
        );
    }

    #[test]
    fn conserved_pairs_reads_whole_pairs_and_transfers_within_them() {
        let topo = Topology::new(1, 3, 4);
        let w = Workload::ConservedPairs { pairs: 8, read_pct: 50, amount: 7 };
        assert!(w.is_open_loop(), "reads must race transfers");
        assert_eq!(w.seed_data().len(), 16, "two accounts per pair");
        let pair_of = |key: &str| key[4..].parse::<u32>().unwrap() / 2;
        let (mut reads, mut writes) = (0, 0);
        for s in 1..=200u64 {
            let r = w.request(&topo, topo.clients[0], s);
            let keys: Vec<&str> = r.script.keyed_ops.iter().filter_map(|op| op.key()).collect();
            assert_eq!(keys.len(), 2, "every request touches exactly one pair");
            assert_eq!(pair_of(keys[0]), pair_of(keys[1]), "never across pairs");
            if r.script.is_read_only() {
                reads += 1;
            } else {
                writes += 1;
                let deltas: Vec<i64> = r
                    .script
                    .keyed_ops
                    .iter()
                    .map(|op| match op {
                        DbOp::Add { delta, .. } => *delta,
                        other => panic!("transfer must be Adds, got {other:?}"),
                    })
                    .collect();
                assert_eq!(deltas.iter().sum::<i64>(), 0, "transfers conserve the pair sum");
            }
        }
        assert!((70..=130).contains(&reads), "≈50% reads, got {reads}");
        assert!(writes > 0);
    }

    #[test]
    fn read_after_write_pairs_share_a_key() {
        let topo = Topology::new(1, 3, 4);
        let w = Workload::ReadAfterWrite { accounts: 8, amount: 5 };
        assert!(!w.is_open_loop(), "write must deliver before its read issues");
        for pair in 1..=10u64 {
            let write = w.request(&topo, topo.clients[0], 2 * pair - 1);
            let read = w.request(&topo, topo.clients[0], 2 * pair);
            assert!(!write.script.is_read_only());
            assert!(read.script.is_read_only());
            assert_eq!(
                write.script.keyed_ops[0].key(),
                read.script.keyed_ops[0].key(),
                "pair {pair} must read back the key it wrote"
            );
        }
    }

    #[test]
    fn plan_is_sequential() {
        // The scenario's plans are made request by request: request `seq`
        // carries `seq`, and making it twice makes the same request.
        let topo = Topology::new(1, 3, 1);
        let client = topo.clients[0];
        let plan: Vec<Request> =
            (1..=4).map(|seq| Workload::HotSpot.request(&topo, client, seq)).collect();
        assert_eq!(plan.len(), 4);
        assert_eq!({ plan[0].id.seq }, 1);
        assert_eq!({ plan[3].id.seq }, 4);
        assert_eq!(plan[3], Workload::HotSpot.request(&topo, client, 4));
    }
}
