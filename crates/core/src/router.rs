//! Shard routing: turning key-addressed scripts into per-shard XA branches.
//!
//! The paper's application server calls `compute()`, which "manipulates the
//! databases" (Figure 5) — *which* databases is an addressing concern the
//! protocol is agnostic about. This module is that addressing layer for a
//! partitioned back end: given a [`ShardMap`], a key-addressed script is
//! split into one [`DbCall`] per touched shard, each aimed at the shard's
//! primary replica. The resulting explicit calls flow through the existing
//! compute → prepare → decide machinery unchanged, which is exactly what
//! makes every shard an autonomous XA branch of the same distributed
//! transaction.
//!
//! Routing is deterministic and local: every application-server replica
//! holds the same map, so an attempt's branch layout never depends on
//! which replica wins `regA`. Single-shard transactions produce a single
//! call — byte-for-byte the plan an unsharded scenario would have used, so
//! the paper's one-database fast path (one Exec, one Prepare, one Decide)
//! is preserved.

use etx_base::shard::{ShardId, ShardMap};
use etx_base::value::{DbCall, DbOp, Request, RequestScript};

/// A routed plan: explicit per-shard calls plus the shards they span.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedPlan {
    /// One call per touched shard, in first-touch order, each addressed to
    /// the shard's primary replica.
    pub calls: Vec<DbCall>,
    /// The touched shards, aligned with `calls`.
    pub shards: Vec<ShardId>,
}

/// Splits key-addressed operations into per-shard batches.
///
/// Grouping is by the shard of each operation's key, in first-touch order;
/// the relative order of operations within a shard is preserved. Keyless
/// operations ([`DbOp::Doom`]) stick to the shard of the most recent keyed
/// operation (or the first shard of the map when the script leads with
/// one) — dooming is a branch-local statement, so it belongs to whichever
/// branch the business logic was talking to.
pub fn route(ops: &[DbOp], map: &ShardMap) -> RoutedPlan {
    let mut shards: Vec<ShardId> = Vec::new();
    let mut batches: Vec<Vec<DbOp>> = Vec::new();
    let mut current = ShardId(0);
    for op in ops {
        let shard = match op.key() {
            Some(key) => map.shard_of(key),
            None => current,
        };
        current = shard;
        let idx = match shards.iter().position(|&s| s == shard) {
            Some(i) => i,
            None => {
                shards.push(shard);
                batches.push(Vec::new());
                shards.len() - 1
            }
        };
        batches[idx].push(op.clone());
    }
    let calls = shards
        .iter()
        .zip(batches)
        .map(|(&shard, ops)| DbCall::new(map.primary(shard), ops))
        .collect();
    RoutedPlan { calls, shards }
}

/// Materializes a request for execution: key-addressed scripts are routed
/// into explicit per-shard calls, one per shard the transaction spans;
/// explicitly-addressed scripts pass through untouched.
pub fn materialize(request: Request, map: &ShardMap) -> Request {
    if !request.script.is_keyed() {
        return request;
    }
    let plan = route(&request.script.keyed_ops, map);
    Request { id: request.id, script: RequestScript::from_calls(plan.calls) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::ids::{NodeId, RequestId};
    use etx_base::shard::ShardSpec;

    fn map(shards: u32) -> ShardMap {
        let dbs: Vec<NodeId> = (10..10 + shards).map(NodeId).collect();
        ShardMap::build(ShardSpec::Hash { shards }, &dbs, 1)
    }

    fn add(key: &str) -> DbOp {
        DbOp::Add { key: key.into(), delta: 1 }
    }

    #[test]
    fn single_shard_scripts_route_to_one_call() {
        let m = map(4);
        let plan = route(&[add("k"), DbOp::Get { key: "k".into() }], &m);
        assert_eq!(plan.calls.len(), 1);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.calls[0].db, m.primary(plan.shards[0]));
        assert_eq!(plan.calls[0].ops.len(), 2);
    }

    #[test]
    fn ops_group_by_shard_preserving_order() {
        let m = map(8);
        // Find two keys on different shards.
        let (mut a, mut b) = (String::new(), String::new());
        for i in 0..64 {
            let k = format!("key{i}");
            if a.is_empty() {
                a = k;
            } else if m.shard_of(&k) != m.shard_of(&a) {
                b = k;
                break;
            }
        }
        assert!(!b.is_empty(), "hash must spread 64 keys over 8 shards");
        let plan = route(&[add(&a), add(&b), DbOp::Get { key: a.clone() }], &m);
        assert_eq!(plan.calls.len(), 2, "two shards, two branches");
        assert_eq!(plan.shards[0], m.shard_of(&a), "first-touch order");
        assert_eq!(plan.calls[0].ops.len(), 2, "both ops on a's shard batched together");
        assert_eq!(plan.calls[1].ops.len(), 1);
        let total: usize = plan.calls.iter().map(|c| c.ops.len()).sum();
        assert_eq!(total, 3, "every op routed exactly once");
    }

    #[test]
    fn doom_sticks_to_the_current_branch() {
        let m = map(4);
        let plan = route(&[add("x"), DbOp::Doom], &m);
        assert_eq!(plan.calls.len(), 1, "doom joins x's branch");
        let leading = route(&[DbOp::Doom], &m);
        assert_eq!(leading.shards, vec![ShardId(0)], "leading doom lands on shard 0");
    }

    #[test]
    fn materialize_keyed_and_passthrough() {
        let m = map(2);
        let id = RequestId { client: NodeId(0), seq: 1 };
        let keyed = Request { id, script: RequestScript::keyed(vec![add("k")]) };
        let routed = materialize(keyed, &m);
        assert!(!routed.script.is_keyed());
        assert_eq!(routed.script.calls.len(), 1, "one key, one shard, one call");

        let explicit = Request { id, script: RequestScript::single(NodeId(11), vec![add("k")]) };
        let same = materialize(explicit.clone(), &m);
        assert_eq!(same, explicit, "explicit scripts bypass routing");
    }

    #[test]
    fn routing_is_deterministic_across_rebuilt_maps() {
        let ops: Vec<DbOp> = (0..20).map(|i| add(&format!("acct{i}"))).collect();
        let p1 = route(&ops, &map(4));
        let p2 = route(&ops, &map(4));
        assert_eq!(p1, p2);
    }
}
