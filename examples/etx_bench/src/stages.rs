//! Per-layer metrics reconstructed, after a run, from the public `Trace`
//! and `MsgStats` it left behind — per request id, in the backend's own
//! clock. The benchmark does nothing per event while the run is timed.

use crate::stats;
use crate::workloads::Spec;
use etx::base::ids::{NodeId, RequestId, ResultId};
use etx::base::time::Time;
use etx::base::trace::{TraceEvent, TraceKind};
use etx::base::value::Outcome;
use etx::base::wal::LOG_WAL;
use etx::harness::Scenario;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// The `C*`-labelled consensus messages of `MsgStats`.
const CONSENSUS_LABELS: [&str; 6] =
    ["CEstimate", "CPropose", "CAck", "CNack", "CDecide", "CDecideReq"];

/// Requests that have a `DbVote` or `DbDecide` at `node`.
pub fn requests_at(events: &[TraceEvent], node: NodeId) -> BTreeSet<RequestId> {
    events
        .iter()
        .filter(|e| e.node == node)
        .filter_map(|e| match e.kind {
            TraceKind::DbVote { rid, .. } | TraceKind::DbDecide { rid, .. } => Some(rid.request),
            _ => None,
        })
        .collect()
}

/// The stamps of one attempt.
#[derive(Default, Clone, Copy)]
struct Attempt {
    computed: Option<Time>,
    last_vote: Option<Time>,
    last_commit: Option<Time>,
    fast_read: bool,
}

/// Milliseconds from `from` to `to`.
pub fn ms(from: Time, to: Time) -> f64 {
    to.since(from).as_millis_f64()
}

fn put_percentiles(out: &mut BTreeMap<String, f64>, name: &str, xs: &mut [f64], with_p99: bool) {
    xs.sort_by(f64::total_cmp);
    out.insert(format!("{name}_p50"), stats::percentile(xs, 50.0));
    if with_p99 {
        out.insert(format!("{name}_p99"), stats::percentile(xs, 99.0));
    }
}

pub fn layer_metrics(
    spec: &Spec,
    s: &Scenario,
    spans: &BTreeMap<RequestId, (Time, Option<Time>)>,
    commits: f64,
) -> BTreeMap<String, f64> {
    let events = s.trace().events();
    let mut attempts: HashMap<ResultId, Attempt> = HashMap::new();
    let mut delivered: Vec<(ResultId, Time)> = Vec::new();
    // Primary-side commit instants, for replication lag.
    let mut decided_at: HashMap<(NodeId, ResultId), Time> = HashMap::new();
    let mut voted: HashSet<(NodeId, ResultId)> = HashSet::new();
    let mut lag = Vec::new();
    let mut slots: BTreeMap<u64, u32> = BTreeMap::new();
    let (mut retries, mut takeovers, mut group_appends) = (0u64, 0u64, 0u64);
    let (mut spec_execs, mut spec_hits) = (0u64, 0u64);
    let (mut follower_reads, mut forwarded, mut fallbacks) = (0u64, 0u64, 0u64);
    let (mut false_suspicions, mut faulted) = (0u64, false);

    for e in events {
        match e.kind {
            TraceKind::Computed { rid } => {
                attempts.entry(rid).or_default().computed.get_or_insert(e.at);
            }
            // A recovered server votes and decides again for attempts it
            // had settled before the crash: each database counts once, at
            // its first stamp, and the stage ends at the last database.
            TraceKind::DbVote { rid, .. } if voted.insert((e.node, rid)) => {
                attempts.entry(rid).or_default().last_vote = Some(e.at);
            }
            TraceKind::DbDecide { rid, outcome: Outcome::Commit } => {
                if let Entry::Vacant(first) = decided_at.entry((e.node, rid)) {
                    first.insert(e.at);
                    attempts.entry(rid).or_default().last_commit = Some(e.at);
                }
            }
            TraceKind::DbReplicated { rid } => {
                let primary = s.shard_map.shard_of_node(e.node).map(|sh| s.shard_map.primary(sh));
                if let Some(&t0) = primary.and_then(|p| decided_at.get(&(p, rid))) {
                    lag.push(ms(t0, e.at));
                }
            }
            TraceKind::ReadFastPath { rid, .. } => {
                attempts.entry(rid).or_default().fast_read = true
            }
            TraceKind::Deliver { rid, .. } => delivered.push((rid, e.at)),
            TraceKind::BatchDecided { slot, len } => {
                slots.entry(slot).or_insert(len);
            }
            TraceKind::ClientRetry { .. } => retries += 1,
            TraceKind::CleanerTakeover { .. } => takeovers += 1,
            TraceKind::GroupAppend { .. } => group_appends += 1,
            TraceKind::SpecExec { .. } => spec_execs += 1,
            TraceKind::SpecHit { .. } => spec_hits += 1,
            TraceKind::FollowerRead { .. } => follower_reads += 1,
            TraceKind::ReadForwarded { .. } => forwarded += 1,
            TraceKind::ReadFallback { .. } => fallbacks += 1,
            TraceKind::Crash => faulted = true,
            TraceKind::Suspect { .. } if !faulted => false_suspicions += 1,
            _ => {}
        }
    }

    let (mut compute, mut vote, mut commit, mut deliver, mut read) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(rid, at) in &delivered {
        let Some(&(issued, _)) = spans.get(&rid.request) else { continue };
        let a = attempts.get(&rid).copied().unwrap_or_default();
        if a.fast_read {
            read.push(ms(issued, at));
            continue;
        }
        let (Some(c), Some(v), Some(d)) = (a.computed, a.last_vote, a.last_commit) else {
            continue;
        };
        compute.push(ms(issued, c));
        vote.push(ms(c, v));
        commit.push(ms(v, d));
        deliver.push(ms(d, at));
    }
    let reads = read.len() as f64;

    let mut m = BTreeMap::new();
    put_percentiles(&mut m, "core.stage.compute_ms", &mut compute, true);
    put_percentiles(&mut m, "core.stage.vote_ms", &mut vote, false);
    put_percentiles(&mut m, "core.stage.commit_ms", &mut commit, true);
    put_percentiles(&mut m, "core.stage.deliver_ms", &mut deliver, false);
    put_percentiles(&mut m, "core.read_ms", &mut read, false);
    put_percentiles(&mut m, "store.repl_lag_ms", &mut lag, true);
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { f64::NAN };
    m.insert("core.read_fast_share".into(), per(reads, delivered.len() as f64));
    m.insert("core.follower_read_share".into(), per(follower_reads as f64, reads));
    m.insert("core.read_forwarded_per_read".into(), per(forwarded as f64, reads));
    m.insert("core.read_fallbacks".into(), fallbacks as f64);
    m.insert("core.client_retries_per_commit".into(), per(retries as f64, commits));
    m.insert("core.cleaner_takeovers".into(), takeovers as f64);
    let slot_commits: u64 = slots.values().map(|&len| u64::from(len)).sum();
    m.insert("consensus.commits_per_slot".into(), per(slot_commits as f64, slots.len() as f64));
    m.insert("consensus.window_peak".into(), f64::from(s.pipeline_window_peak()));
    let consensus_msgs: u64 = CONSENSUS_LABELS.iter().map(|l| s.stats().sent(l)).sum();
    m.insert("consensus.msgs_per_commit".into(), per(consensus_msgs as f64, commits));
    m.insert("store.group_appends_per_commit".into(), per(group_appends as f64, commits));
    // Stable logs are readable mid-run on sim only; the threaded host
    // yields them after `stop()`, which this benchmark does not call.
    let wal_records = if spec.is_sim() {
        s.topo.db_servers.iter().map(|&db| s.sim().storage(db).len(LOG_WAL)).sum::<usize>() as f64
    } else {
        f64::NAN
    };
    m.insert("store.wal_records_per_commit".into(), per(wal_records, commits));
    m.insert("store.spec_hit_ratio".into(), per(spec_hits as f64, spec_execs as f64));
    m.insert("fd.false_suspicions".into(), false_suspicions as f64);
    let total = s.stats().total() as f64;
    m.insert("fd.msgs_share".into(), per(total - s.stats().protocol_total() as f64, total));
    m.insert("base.msgs_per_commit".into(), per(s.stats().protocol_total() as f64, commits));
    m.insert("base.trace_events_per_commit".into(), per(events.len() as f64, commits));
    m
}
