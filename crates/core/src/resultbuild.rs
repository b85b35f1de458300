//! Turning database-operation outputs into a user-facing [`ResultValue`].
//!
//! The paper's `compute()` returns "information computed by the business
//! logic, such as reservation number and hotel name" (§2). Our generic
//! business logic labels each operation's outcome with the key it touched,
//! so a travel booking yields entries like `("booked:flight-LH100", 41)` and
//! a failed reservation yields the user-level `("sold_out", 1)` notice.
//! Every protocol in the workspace (e-Transactions and all three baselines)
//! builds results the same way, so latency comparisons compare like with
//! like.

use etx_base::value::{DbCall, OpOutput, ResultValue};

/// An empty accumulator for a result over `calls`, sized once for an entry
/// per operation and the attempt's: a result is kept as long as its
/// decision, so it keeps no room to grow.
pub fn accumulator(calls: &[DbCall]) -> Vec<(String, i64)> {
    Vec::with_capacity(calls.iter().map(|c| c.ops.len()).sum::<usize>() + 1)
}

/// Folds one call's outputs into the accumulating result entries.
pub fn accumulate(call: &DbCall, outputs: &[OpOutput], acc: &mut Vec<(String, i64)>) {
    for (op, out) in call.ops.iter().zip(outputs.iter()) {
        match (op.key(), out) {
            (Some(k), OpOutput::Value(v)) => acc.push((k.to_string(), v.unwrap_or(-1))),
            (Some(k), OpOutput::Updated(v)) => acc.push((k.to_string(), *v)),
            (Some(k), OpOutput::Reserved { remaining }) => {
                acc.push((format!("booked:{k}"), *remaining));
            }
            (_, OpOutput::SoldOut) => acc.push(("sold_out".to_string(), 1)),
            (_, OpOutput::Doomed) => acc.push(("doomed".to_string(), 1)),
            _ => {}
        }
    }
}

/// Finishes a result: appends the attempt number (a visible, unique
/// confirmation element) and wraps up.
pub fn finish(mut acc: Vec<(String, i64)>, attempt: u32) -> ResultValue {
    acc.push(("attempt".to_string(), attempt as i64));
    ResultValue::new(acc)
}

/// Merges the per-shard outputs of a fan-out **fast-path read** into one
/// user-facing result: each call's outputs accumulate in script order —
/// exactly the labelling the slow path performs call by call during
/// `compute()`. The caller only invokes this with an *accepted* collect
/// (single-shard, or a snapshot-validated multi-shard round — see
/// `AppServer`'s read lane), so the merged values are ones a committed
/// read-only transaction could have returned: the fan-out never leaks a
/// fractured cross-shard state into a result.
pub fn merge_read(calls: &[DbCall], outputs: &[Vec<OpOutput>], attempt: u32) -> ResultValue {
    debug_assert_eq!(calls.len(), outputs.len(), "one output batch per routed call");
    let mut acc = accumulator(calls);
    for (call, outs) in calls.iter().zip(outputs) {
        accumulate(call, outs, &mut acc);
    }
    finish(acc, attempt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::ids::NodeId;
    use etx_base::value::DbOp;

    #[test]
    fn accumulate_labels_outputs() {
        let call = DbCall::new(
            NodeId(5),
            vec![
                DbOp::Get { key: "hotel".into() },
                DbOp::Reserve { key: "seat".into(), qty: 1 },
                DbOp::Reserve { key: "car".into(), qty: 1 },
            ],
        );
        let outputs =
            vec![OpOutput::Value(Some(3)), OpOutput::Reserved { remaining: 9 }, OpOutput::SoldOut];
        let mut acc = Vec::new();
        accumulate(&call, &outputs, &mut acc);
        let result = finish(acc, 2);
        assert_eq!(result.field("hotel"), Some(3));
        assert_eq!(result.field("booked:seat"), Some(9));
        assert_eq!(result.field("sold_out"), Some(1));
        assert_eq!(result.field("attempt"), Some(2));
        assert!(result.is_user_level_problem());
    }

    #[test]
    fn missing_value_reads_as_minus_one() {
        let call = DbCall::new(NodeId(0), vec![DbOp::Get { key: "nope".into() }]);
        let mut acc = Vec::new();
        accumulate(&call, &[OpOutput::Value(None)], &mut acc);
        assert_eq!(acc, vec![("nope".to_string(), -1)]);
    }

    #[test]
    fn merge_read_folds_calls_in_script_order() {
        let calls = vec![
            DbCall::new(NodeId(10), vec![DbOp::Get { key: "a".into() }]),
            DbCall::new(NodeId(11), vec![DbOp::Get { key: "b".into() }]),
        ];
        let outputs = vec![vec![OpOutput::Value(Some(1))], vec![OpOutput::Value(Some(2))]];
        let merged = merge_read(&calls, &outputs, 3);
        assert_eq!(merged.field("a"), Some(1));
        assert_eq!(merged.field("b"), Some(2));
        assert_eq!(merged.field("attempt"), Some(3));
        assert_eq!(merged.entries[0].0, "a", "script order preserved across the fan-out");
    }
}
