//! The `run` and `trace` subcommands: all five workloads, every metric
//! printed by name with its unit, and the JSON the benchmark writes itself.

use crate::json::Json;
use crate::metrics::{self, Better, EndToEnd};
use crate::parent::{self, Leg, Options, Stop};
use crate::stats::Summary;
use crate::workloads::Spec;
use crate::Flags;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What a number must never again be separated from.
fn header(seed: u64, opts: Options) -> Json {
    let unknown = || "unknown".to_string();
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("git_rev", Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("nproc", Json::num(cores as f64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown))),
        ("seed", Json::num(seed as f64)),
        ("quick", Json::Bool(opts.quick)),
        ("comparable", Json::Bool(!opts.quick)),
        ("args", Json::Arr(std::env::args().skip(1).map(Json::Str).collect())),
    ])
}

fn out_path(kind: &str, seed: u64) -> Result<PathBuf, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = PathBuf::from(target).join("etx-bench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir.join(format!("{kind}-{seed}.json")))
}

fn write(path: &PathBuf, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn failed_pct(attempted: u64, failed: u64) -> f64 {
    100.0 * failed as f64 / attempted.max(1) as f64
}

fn print_failures(legs: &[Leg]) {
    for leg in legs.iter().filter(|l| !l.ok()) {
        let reason = leg.reason.as_deref().unwrap_or("?");
        println!("  FAILED leg seed {}: {reason} {:?}", leg.seed, leg.problems);
    }
}

fn print_row(name: &str, unit: &str, better: Better, s: &Summary, bound: Option<f64>) {
    let bound = bound.map_or(String::new(), |b| format!("{:.0}%", b * 100.0));
    println!(
        "  {name:<24}{unit:>6} {:>7}{:>16.4}{:>16.4}{:>16.4}{:>8.2}%{bound:>7}",
        better.label(),
        s.median,
        s.q1,
        s.q3,
        100.0 * s.spread()
    );
}

/// A plain leg and a traced leg of one seed. Returns both legs and the
/// per-layer values of the traced one, with `trace_overhead_pct` and the
/// end-to-end metrics the contract's end-to-end list cannot hold.
pub fn traced_pair(spec: &Spec, seed: u64, opts: Options) -> (Vec<Leg>, BTreeMap<String, f64>) {
    let leg_seed = parent::leg_seed(seed, 0);
    let plain = parent::run_leg(spec, leg_seed, false, opts);
    let traced = parent::run_leg(spec, leg_seed, true, opts);
    let mut layers = traced.layers.clone();
    for m in metrics::END_TO_END.iter().filter(|m| !m.in_contract()) {
        if let Some(&v) = traced.metrics.get(m.name) {
            layers.insert(m.name.into(), v);
        }
    }
    let rate = |leg: &Leg| leg.metrics.get("commit_per_s").copied().unwrap_or(f64::NAN);
    layers.insert("trace_overhead_pct".into(), 100.0 * (1.0 - rate(&traced) / rate(&plain)));
    (vec![plain, traced], layers)
}

/// Whether a second leg of `first`'s seed reproduced every backend-clock
/// metric bit for bit. `None` on the threaded backend, whose clock is the
/// wall.
fn replay_equal(spec: &Spec, first: &Leg, opts: Options) -> Option<bool> {
    if !spec.is_sim() || !first.ok() {
        return None;
    }
    let again = parent::run_leg(spec, first.seed, false, opts);
    let clocked = |m: &&EndToEnd| m.backend_clock && m.applies(spec);
    Some(metrics::END_TO_END.iter().filter(clocked).all(|m| {
        let bits = |leg: &Leg| leg.metrics.get(m.name).map(|v| v.to_bits());
        bits(first) == bits(&again)
    }))
}

pub fn run(flags: &Flags) -> Result<ExitCode, String> {
    let opts = flags.options()?;
    let seed: u64 = flags.num("seed")?.unwrap_or(1);
    let repeats: Option<usize> = flags.num("repeats")?;
    if opts.quick {
        println!("--quick: 1 repeat, requests / 10. Smoke use only: NOT comparable to full runs.");
    }
    let mut workloads = Vec::new();
    let mut any_failed = false;
    for spec in flags.specs()? {
        let n = repeats.unwrap_or(if opts.quick { 1 } else { spec.repeats });
        let legs = parent::run_legs(&spec, seed, Stop::Repeats(n), opts);
        let (attempted, failed) = parent::tally(&legs);
        let replay = replay_equal(&spec, &legs[0], opts);
        let summaries = parent::summarise(&legs);
        any_failed |= failed > 0;

        println!(
            "\n== {} ({} on {}) — {n} repeat(s), attempted {attempted}, failed {failed} \
             (failed_pct {:.3} %)",
            spec.name,
            spec.runtime.label(),
            if spec.is_sim() { "the simulated clock" } else { "the wall clock" },
            failed_pct(attempted, failed)
        );
        print_failures(&legs);
        match replay {
            Some(true) => println!("  replay: simulated-time metrics bit-equal for one seed"),
            Some(false) => println!("  replay: MISMATCH — one seed, two different simulated runs"),
            None => {}
        }
        println!(
            "  {:<24}{:>6} {:>7}{:>16}{:>16}{:>16}{:>9}{:>7}",
            "metric", "unit", "better", "median", "q1", "q3", "iqr/med", "bound"
        );
        for m in metrics::END_TO_END.iter().filter(|m| m.applies(&spec)) {
            if let Some(s) = summaries.get(m.name) {
                print_row(m.name, m.unit, m.better, s, Some(m.bound(&spec)));
            }
        }
        // How fast the machine was while these legs ran: the factor their
        // wall-clock metrics were scaled by (`calib.rs`).
        let speeds: Vec<f64> =
            legs.iter().filter_map(|l| l.raw.get("host_speed").copied()).collect();
        let host_speed = Summary::of(&speeds);
        if !speeds.is_empty() {
            print_row("host_speed", "ratio", Better::Higher, &host_speed, None);
        }
        workloads.push((
            spec.name.to_string(),
            Json::obj([
                ("why", Json::str(spec.why)),
                ("host_speed", host_speed.to_json()),
                ("config", spec.config_json(opts.quick)),
                ("repeats", Json::num(n as f64)),
                ("attempted", Json::num(attempted as f64)),
                ("failed", Json::num(failed as f64)),
                (metrics::FAILED_PCT, Json::num(failed_pct(attempted, failed))),
                ("replay_equal", replay.map_or(Json::Null, Json::Bool)),
                (
                    "metrics",
                    Json::Obj(summaries.iter().map(|(k, s)| (k.clone(), s.to_json())).collect()),
                ),
                ("legs", Json::Arr(legs.iter().map(Leg::to_json).collect())),
            ]),
        ));
    }
    let legend = metrics::END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
            ("what", Json::str(m.what)),
        ])
    });
    let doc = Json::obj([
        ("tool", Json::str("etx_bench run")),
        ("header", header(seed, opts)),
        ("legend", Json::Arr(legend.collect())),
        ("workloads", Json::Obj(workloads)),
    ]);
    write(&out_path("run", seed)?, &doc)?;
    Ok(if any_failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

pub fn trace(flags: &Flags) -> Result<ExitCode, String> {
    let opts = flags.options()?;
    let seed: u64 = flags.num("seed")?.unwrap_or(1);
    if opts.quick {
        println!("--quick: requests / 10. Smoke use only: NOT comparable to full runs.");
    }
    let mut workloads = Vec::new();
    let mut any_failed = false;
    for spec in flags.specs()? {
        let (legs, layers) = traced_pair(&spec, seed, opts);
        let (attempted, failed) = parent::tally(&legs);
        any_failed |= failed > 0;
        println!("\n== {} — traced leg, attempted {attempted}, failed {failed}", spec.name);
        print_failures(&legs);
        for (name, unit, _) in metrics::contract_per_layer() {
            if let Some(v) = layers.get(name).filter(|v| v.is_finite()) {
                println!("  {name:<36}{v:>18.4} {unit}");
            }
        }
        workloads.push((spec.name.to_string(), Json::from_map(&layers)));
    }
    // Full-size legs: a second of measuring each (or the op count the
    // fixed-size legs scale to), a fifth of that under --quick.
    let budget = Duration::from_millis(if opts.quick { 200 } else { 1_000 });
    let (micro, spans) = parent::run_micro(seed, budget)?;
    println!("\n== layer microbenches ({} ms per leg)", budget.as_millis());
    for (name, unit, _, what) in metrics::MICRO_LAYERS {
        if let Some(v) = micro.get(name) {
            println!("  {name:<40}{v:>16.3} {unit:<6} {what}");
        }
    }
    let spans_path = out_path("spans", seed)?;
    write(&spans_path, &spans)?;
    let doc = Json::obj([
        ("tool", Json::str("etx_bench trace")),
        ("header", header(seed, opts)),
        ("workloads", Json::Obj(workloads)),
        ("micro", Json::from_map(&micro)),
        ("spans_file", Json::Str(spans_path.display().to_string())),
    ]);
    write(&out_path("trace", seed)?, &doc)?;
    Ok(if any_failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
