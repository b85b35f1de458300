//! One leg: build one workload's scenario, run it to completion inside a
//! timed window, then — outside the window — check the outputs and derive
//! the metrics. Runs inside a child process (see `parent.rs`), which
//! prints the returned report as its one line of output.

use crate::calib;
use crate::json::Json;
use crate::parent;
use crate::stages::{self, ms};
use crate::stats;
use crate::workloads::Spec;
use etx::base::ids::RequestId;
use etx::base::time::{Dur, Time};
use etx::base::trace::{TraceEvent, TraceKind};
use etx::base::value::Outcome;
use etx::harness::properties::{self, LivenessChecks};
use etx::harness::Scenario;
use etx::sim::RunOutcome;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Quiesce long enough for every retransmission period of the workload's
/// scale to pass, so the T.2 liveness check is meaningful.
fn quiesce_for(spec: &Spec) -> Dur {
    if spec.paper_scale {
        Dur::from_millis(1_000)
    } else {
        Dur::from_millis(100)
    }
}

/// CPU time this process has consumed, all threads, in seconds.
/// `/proc/self/task/*/schedstat` is nanosecond-resolution time on a CPU;
/// `/proc/self/stat` would quantise a two-second window to 10 ms ticks.
fn cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return f64::NAN };
    let mut ns = 0u64;
    for task in tasks.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += text.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        }
    }
    ns as f64 / 1e9
}

/// Issue → Deliver per request, on the backend's clock, in milliseconds,
/// with each request's issue and delivery instants.
pub fn request_spans(events: &[TraceEvent]) -> BTreeMap<RequestId, (Time, Option<Time>)> {
    let mut spans: BTreeMap<RequestId, (Time, Option<Time>)> = BTreeMap::new();
    for e in events {
        match e.kind {
            TraceKind::Issue { request } => {
                spans.entry(request).or_insert((e.at, None));
            }
            TraceKind::Deliver { rid, .. } => {
                if let Some(span) = spans.get_mut(&rid.request) {
                    span.1.get_or_insert(e.at);
                }
            }
            _ => {}
        }
    }
    spans
}

/// Latencies of the requests that were in flight (issued, not yet
/// delivered) at `at` and satisfy `touches`.
fn in_flight_ms(
    spans: &BTreeMap<RequestId, (Time, Option<Time>)>,
    at: Time,
    touches: impl Fn(RequestId) -> bool,
) -> Vec<f64> {
    spans
        .iter()
        .filter_map(|(&req, &(issued, delivered))| {
            let delivered = delivered?;
            (issued <= at && delivered > at && touches(req)).then(|| ms(issued, delivered))
        })
        .collect()
}

/// Requests per slice handed to the §3 checker.
const CHECK_SLICE: usize = 256;

/// `properties::check` over the whole trace, fed in slices of
/// [`CHECK_SLICE`] requests. Every §3 property is a statement about one
/// request and its attempts, so slicing by request can hide no violation —
/// but the checker scans all votes per delivery, and on a 64 000-request
/// trace a single call takes 93 s.
fn check_properties(s: &Scenario) -> Vec<String> {
    let mut slice_of: BTreeMap<RequestId, usize> = BTreeMap::new();
    let mut slices: Vec<Vec<TraceEvent>> = Vec::new();
    for e in s.trace().events() {
        let request = match e.kind {
            TraceKind::Issue { request } => request,
            TraceKind::Deliver { rid, .. }
            | TraceKind::Computed { rid }
            | TraceKind::DbVote { rid, .. }
            | TraceKind::DbDecide { rid, .. } => rid.request,
            // A client crash relaxes T.1 for that client's requests.
            TraceKind::Crash if s.topo.clients.contains(&e.node) => {
                slices.iter_mut().for_each(|sl| sl.push(e.clone()));
                continue;
            }
            _ => continue,
        };
        let next = slice_of.len() / CHECK_SLICE;
        let idx = *slice_of.entry(request).or_insert(next);
        if idx == slices.len() {
            slices.push(Vec::new());
        }
        slices[idx].push(e.clone());
    }
    let liveness = LivenessChecks { t1: true, t2: true };
    slices
        .iter()
        .flat_map(|sl| properties::check(sl, &s.topo.clients, liveness).violations)
        .collect()
}

/// The correctness checks, outside the timed window. Returns the reasons
/// the leg is not correct (empty = correct).
fn check(spec: &Spec, s: &mut Scenario, requests: u64) -> (Vec<String>, u64, f64) {
    let mut problems = Vec::new();
    let mut seen = BTreeSet::new();
    let mut twice = 0u64;
    let mut committed = 0u64;
    for e in s.trace().events() {
        if let TraceKind::Deliver { rid, outcome, .. } = e.kind {
            if !seen.insert(rid.request) {
                twice += 1;
            } else if outcome == Outcome::Commit {
                committed += 1;
            }
        }
    }
    if twice > 0 {
        problems.push(format!("{twice} request(s) delivered more than once"));
    }
    if committed != requests {
        problems.push(format!("{committed} of {requests} requests delivered committed"));
    }
    let started = Instant::now();
    let violations = check_properties(s);
    let spec_check_ms = started.elapsed().as_secs_f64() * 1e3;
    if let Some(first) = violations.first() {
        problems.push(format!("{} property violation(s), first: {first}", violations.len()));
    }
    // Replica convergence needs each server's stable log, which the
    // threaded host only yields after `stop()` — the call this benchmark
    // must not make (README, hazard 1). Sim reads storage in place.
    if spec.is_sim() {
        if let Some((shards, _)) = spec.sharding {
            for shard in 0..shards {
                let replicas = s.shard_replicas(shard).to_vec();
                let primary = s.rebuilt_committed(replicas[0]);
                for &follower in &replicas[1..] {
                    if s.rebuilt_committed(follower) != primary {
                        problems.push(format!("shard {shard}: follower {follower} diverged"));
                    }
                }
            }
        }
    }
    let failed = requests.saturating_sub(committed) + twice;
    (problems, failed.min(requests), spec_check_ms)
}

/// Runs one leg and returns its report.
pub fn run(spec: &Spec, seed: u64, quick: bool, trace: bool, wall_limit_s: f64) -> Json {
    let requests = spec.total_requests(quick);
    // On sim `wall_limit` is simulated time: generous, the parent's
    // watchdog is what bounds wall time there.
    let limit = if spec.is_sim() {
        Dur::from_secs(3_600)
    } else {
        Dur::from_micros((wall_limit_s * 1e6) as u64)
    };

    // The host-speed loops bracket the whole leg. (Not the window alone:
    // on the threaded backend the system is live from the first `Issue`,
    // so nothing may come between set-up and the window.)
    let mut helper = calib::Helper::spawn();
    let speed_before = helper.rates();

    let setup_started = Instant::now();
    let mut s = spec.builder(seed, quick, limit).build();
    spec.schedule_faults(&mut s);
    // Set-up ends at the first `Issue`: nodes registered, threads spawned
    // (threaded), every `Init` handler run.
    run_until_first_issue(&mut s);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let cpu0 = cpu_seconds();
    let run_started = Instant::now();
    let outcome = s.run_until_settled(requests as usize);
    let wall_s = run_started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let speed = calib::host_speed(speed_before, helper.rates());
    drop(helper);
    let settled_at = s.now();

    s.quiesce(quiesce_for(spec));

    let (mut problems, failed, spec_check_ms) = check(spec, &mut s, requests);
    if outcome != RunOutcome::Predicate {
        problems.insert(0, format!("run ended with {outcome:?}, not settled"));
    }
    let commits = (requests - failed) as f64;

    let events = s.trace().events();
    let spans = request_spans(events);
    let mut latencies: Vec<f64> =
        spans.values().filter_map(|&(i, d)| d.map(|d| ms(i, d))).collect();
    latencies.sort_by(f64::total_cmp);

    // Everything read off this machine's clock is reported in reference
    // seconds (measured seconds x host_speed, see `calib.rs`); simulated
    // time and memory are reported as they are. `raw` keeps the measured
    // values.
    let wall_latency = if spec.is_sim() { 1.0 } else { speed };
    let measured = [
        ("setup_s", setup_s, speed),
        ("commit_per_s", commits / wall_s, 1.0 / speed),
        ("cpu_us_per_commit", cpu_s * 1e6 / commits, speed),
        ("latency_p50_ms", stats::percentile(&latencies, 50.0), wall_latency),
        ("latency_p99_ms", stats::percentile(&latencies, 99.0), wall_latency),
        ("peak_rss_mb", parent::status_mb("self", "VmHWM:").unwrap_or(f64::NAN), 1.0),
    ];
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut raw: BTreeMap<String, f64> = BTreeMap::new();
    for (name, value, scale) in measured {
        m.insert(name.into(), value * scale);
        raw.insert(name.into(), value);
    }
    raw.insert("host_speed".into(), speed);
    if spec.is_sim() {
        m.insert("model_commit_per_s".into(), commits / (settled_at.as_millis_f64() / 1e3));
    }
    // Fail-over gaps: what a request that was in flight at a crash paid.
    let mut app_gap = Vec::new();
    let mut db_gap = Vec::new();
    for e in events {
        if !matches!(e.kind, TraceKind::Crash) {
            continue;
        }
        if e.node == s.primary() {
            app_gap.extend(in_flight_ms(&spans, e.at, |_| true));
        } else {
            let at_victim = stages::requests_at(events, e.node);
            db_gap.extend(in_flight_ms(&spans, e.at, |r| at_victim.contains(&r)));
        }
    }
    if !spec.faults.is_empty() {
        m.insert("app_failover_ms".into(), stats::median(&mut app_gap));
        m.insert("db_failover_ms".into(), stats::median(&mut db_gap));
    }

    let mut layers = BTreeMap::new();
    if trace {
        layers = stages::layer_metrics(spec, &s, &spans, commits);
        layers.insert("host_speed".into(), speed);
        layers.insert("harness.spec_check_ms".into(), spec_check_ms);
        if spec.is_sim() {
            let reference_s = wall_s * speed;
            layers.insert("sim.events_per_s".into(), s.sim().processed() as f64 / reference_s);
        }
    }

    // A run that did not settle is diagnosed while the evidence is at
    // hand; one that settled but fails a check is `incorrect`.
    let reason = if outcome != RunOutcome::Predicate {
        let takeovers =
            events.iter().filter(|e| matches!(e.kind, TraceKind::CleanerTakeover { .. }));
        Some(if takeovers.count() > 1_000 { "decide-storm" } else { "stall" })
    } else if !problems.is_empty() {
        Some("incorrect")
    } else {
        None
    };
    let report = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::num(seed as f64)),
        ("attempted", Json::num(requests as f64)),
        ("failed", Json::num(if reason.is_none() { failed } else { requests } as f64)),
        ("reason", reason.map_or(Json::Null, Json::str)),
        ("problems", Json::Arr(problems.iter().map(|p| Json::str(p)).collect())),
        (
            "counts",
            Json::obj([
                ("wall_s", Json::num(wall_s)),
                ("latency_n", Json::num(latencies.len() as f64)),
                ("app_failover_n", Json::num(app_gap.len() as f64)),
                ("db_failover_n", Json::num(db_gap.len() as f64)),
            ]),
        ),
        ("metrics", Json::from_map(&m)),
        ("raw", Json::from_map(&raw)),
        ("layers", Json::from_map(&layers)),
    ]);
    // Dropping a threaded scenario calls `ThreadedHost::stop()`, which can
    // livelock after a settled run (README, hazard 1). The process exits
    // right after this report is printed, so nothing needs tearing down.
    std::mem::forget(s);
    report
}

/// Drives the scenario until the first client has issued. `Scenario` has
/// no run-until-predicate for callers, so this polls in 100 µs quiesce
/// steps of the backend's clock (on sim the first step runs every `Init`
/// and ends before any message can arrive); the first step is also what
/// starts the threaded host's node threads.
fn run_until_first_issue(s: &mut Scenario) {
    let give_up = Instant::now() + std::time::Duration::from_secs(5);
    loop {
        s.quiesce(Dur::from_micros(100));
        let issued = s.trace().events().iter().any(|e| matches!(e.kind, TraceKind::Issue { .. }));
        if issued || Instant::now() > give_up {
            return;
        }
    }
}
