//! Isolation and watchdog: every leg runs in a child process of this same
//! executable, so a leg that livelocks, storms or balloons cannot hang the
//! run or take the machine down. The parent polls the child's resident set
//! and wall time, kills it past either limit, and books the loss.

use crate::json::Json;
use crate::stats::Summary;
use crate::workloads::Spec;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child is killed when its resident set passes this.
const RSS_LIMIT_MB: f64 = 2_048.0;

#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// One tenth of the requests: smoke use only, never comparable.
    pub quick: bool,
    /// Overrides the watchdog's wall limit (seconds per child).
    pub watchdog_s: Option<f64>,
}

/// What one child reported, or why it could not.
#[derive(Debug, Clone)]
pub struct Leg {
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Why the leg counts as failed: `stall`, `decide-storm` (the child's
    /// own `wall_limit` hit), `timeout`, `oom` (killed by the watchdog),
    /// `incorrect` (an output check failed), `crashed`.
    pub reason: Option<String>,
    pub problems: Vec<String>,
    /// Wall seconds from spawn to exit.
    pub child_s: f64,
    pub metrics: BTreeMap<String, f64>,
    /// The wall-clock metrics as measured, before scaling to reference
    /// seconds, and the `host_speed` they were scaled by.
    pub raw: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    pub counts: Json,
}

impl Leg {
    pub fn ok(&self) -> bool {
        self.reason.is_none()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::num(self.seed as f64)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("reason", self.reason.as_deref().map_or(Json::Null, Json::str)),
            ("problems", Json::Arr(self.problems.iter().map(|p| Json::str(p)).collect())),
            ("child_s", Json::num(self.child_s)),
            ("counts", self.counts.clone()),
            ("metrics", Json::from_map(&self.metrics)),
            ("raw", Json::from_map(&self.raw)),
        ])
    }
}

/// A kB field of `/proc/<pid>/status` (`VmRSS:`, `VmHWM:`), in MB.
pub fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: f64 = value.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs this executable with `args` under the watchdog. Returns the
/// child's standard output, or the reason it was killed.
fn supervise(args: &[String], limit_s: f64) -> (Result<String, &'static str>, f64) {
    let exe = std::env::current_exe().expect("path of this executable");
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn a child of this executable");
    let verdict = loop {
        match child.try_wait().expect("poll the child") {
            Some(status) if status.success() => break Ok(()),
            Some(_) => break Err("crashed"),
            None => {}
        }
        let rss = status_mb(&child.id().to_string(), "VmRSS:").unwrap_or(0.0);
        let reason = if rss > RSS_LIMIT_MB {
            Some("oom")
        } else if started.elapsed().as_secs_f64() > limit_s {
            Some("timeout")
        } else {
            None
        };
        if let Some(reason) = reason {
            // Kill, then reap, so no process outlives the run.
            let _ = child.kill();
            let _ = child.wait();
            break Err(reason);
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    // A report is one line of a few kilobytes: it fits the pipe buffer, so
    // the child never blocks on a parent that reads only after exit.
    let mut out = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        let _ = pipe.read_to_string(&mut out);
    }
    (verdict.map(|()| out), started.elapsed().as_secs_f64())
}

/// The watchdog's wall limit for one child of `spec`.
fn limit_s(spec: &Spec, opts: Options) -> f64 {
    opts.watchdog_s.unwrap_or(10.0 * spec.expected_s)
}

/// Runs one leg of `spec` in a child and books its outcome.
pub fn run_leg(spec: &Spec, seed: u64, trace: bool, opts: Options) -> Leg {
    let attempted = spec.total_requests(opts.quick);
    let limit = limit_s(spec, opts);
    let args = [
        "child".to_string(),
        spec.name.to_string(),
        seed.to_string(),
        u8::from(opts.quick).to_string(),
        u8::from(trace).to_string(),
        // The child gives up on its own a little earlier, so that a
        // wedged run is usually reported by the child, with a diagnosis.
        (0.8 * limit).to_string(),
    ];
    let (out, child_s) = supervise(&args, limit);
    let mut leg = Leg {
        seed,
        attempted,
        failed: attempted,
        reason: None,
        problems: Vec::new(),
        child_s,
        metrics: BTreeMap::new(),
        raw: BTreeMap::new(),
        layers: BTreeMap::new(),
        counts: Json::Null,
    };
    let report = match out.map(|o| Json::parse(o.lines().last().unwrap_or(""))) {
        Ok(Ok(report)) => report,
        Ok(Err(_)) => {
            leg.reason = Some("crashed".into());
            return leg;
        }
        Err(reason) => {
            leg.reason = Some(reason.into());
            return leg;
        }
    };
    leg.problems = report
        .get("problems")
        .map(|p| p.items().iter().filter_map(Json::as_str).map(String::from).collect())
        .unwrap_or_default();
    leg.reason = report.get("reason").and_then(Json::as_str).map(String::from);
    leg.failed = report.get("failed").and_then(Json::as_f64).unwrap_or(attempted as f64) as u64;
    leg.metrics = report.get("metrics").map(Json::to_map).unwrap_or_default();
    leg.raw = report.get("raw").map(Json::to_map).unwrap_or_default();
    leg.layers = report.get("layers").map(Json::to_map).unwrap_or_default();
    leg.counts = report.get("counts").cloned().unwrap_or(Json::Null);
    leg
}

/// Runs the layer microbenches in a child; returns (metrics, spans).
pub fn run_micro(seed: u64, budget: Duration) -> Result<(BTreeMap<String, f64>, Json), String> {
    let args = ["child-micro".to_string(), seed.to_string(), budget.as_millis().to_string()];
    // ~30 legs of `budget` each, plus fixed-size legs and set-up.
    let limit = 60.0 + 60.0 * budget.as_secs_f64();
    let (out, _) = supervise(&args, limit);
    let report = Json::parse(out?.lines().last().unwrap_or(""))?;
    Ok((
        report.get("metrics").map(Json::to_map).unwrap_or_default(),
        report.get("spans").cloned().unwrap_or(Json::Null),
    ))
}

/// When to stop starting legs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Repeats(usize),
    Seconds(f64),
}

/// The seed of leg `i` of a run seeded `base`.
pub fn leg_seed(base: u64, i: usize) -> u64 {
    base.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Runs plain (untraced) legs of `spec` until `stop`.
pub fn run_legs(spec: &Spec, base_seed: u64, stop: Stop, opts: Options) -> Vec<Leg> {
    let started = Instant::now();
    let mut legs = Vec::new();
    loop {
        let more = match stop {
            Stop::Repeats(n) => legs.len() < n,
            // Another leg only if one of average length still fits.
            Stop::Seconds(s) => {
                let elapsed = started.elapsed().as_secs_f64();
                legs.is_empty() || elapsed + elapsed / legs.len() as f64 <= s
            }
        };
        if !more {
            return legs;
        }
        legs.push(run_leg(spec, leg_seed(base_seed, legs.len()), false, opts));
    }
}

/// Operations attempted and failed over a set of legs.
pub fn tally(legs: &[Leg]) -> (u64, u64) {
    legs.iter().fold((0, 0), |(a, f), l| (a + l.attempted, f + l.failed))
}

/// Per-metric summaries over the legs that completed correctly.
pub fn summarise(legs: &[Leg]) -> BTreeMap<String, Summary> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for leg in legs.iter().filter(|l| l.ok()) {
        for (name, &v) in &leg.metrics {
            values.entry(name.clone()).or_default().push(v);
        }
    }
    values.into_iter().map(|(name, vs)| (name, Summary::of(&vs))).collect()
}
