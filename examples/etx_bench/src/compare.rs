//! `compare a.json b.json`: the bounds applied to two `run` files, one row
//! per (workload, metric). This replaces the absolute bars of the old
//! benches: a number is judged against the same code path's own number,
//! measured the same way, never against a constant.

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::Summary;
use crate::workloads;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("tool").and_then(Json::as_str) != Some("etx_bench run") {
        return Err(format!("{path}: not written by `etx_bench run`"));
    }
    Ok(doc)
}

fn quick(doc: &Json) -> bool {
    doc.get("header").and_then(|h| h.get("quick")).and_then(Json::as_bool).unwrap_or(false)
}

/// By how much B is worse than A, as a share of A's median (negative when
/// B is better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if quick(&a) != quick(&b) {
        return Err("one file is a --quick run and the other is not: not comparable".into());
    }
    if quick(&a) {
        println!("both files are --quick runs: smoke numbers, the verdicts below mean nothing");
    }
    let seed = |doc: &Json| doc.get("header").and_then(|h| h.get("seed")).and_then(Json::as_f64);
    let same_seeds = seed(&a).is_some() && seed(&a) == seed(&b);
    let mut worse = 0;
    println!(
        "{:<16}{:<22}{:>14}{:>22}{:>14}{:>22}{:>7}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "bound"
    );
    for spec in workloads::all() {
        let workload = |doc: &Json| doc.get("workloads").and_then(|w| w.get(spec.name)).cloned();
        let (Some(wa), Some(wb)) = (workload(&a), workload(&b)) else { continue };
        let replays = |w: &Json| w.get("replay_equal").and_then(Json::as_bool).unwrap_or(false);
        for m in metrics::END_TO_END.iter().filter(|m| m.applies(&spec)) {
            let summary = |w: &Json| {
                w.get("metrics").and_then(|ms| ms.get(m.name)).and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (summary(&wa), summary(&wb)) else { continue };
            let bound = m.bound(&spec);
            let delta = worse_by(m.better, sa.median, sb.median);
            // Set-up takes milliseconds; a share of that is not a regression
            // until it is also a visible amount of time.
            let visible =
                m.name != "setup_s" || (sb.median - sa.median).abs() > metrics::SETUP_FLOOR_S;
            // A simulated-clock value repeats exactly for a seed, so between
            // two runs of the same seeds its quartiles are the spread
            // across seeds, not noise, and the medians compare as they are.
            let exact = same_seeds && m.backend_clock && spec.is_sim() && replays(&wa);
            let verdict = if !exact && sa.spread() > bound {
                "unresolved"
            } else if delta > bound && visible {
                worse += 1;
                "WORSE"
            } else if delta < -bound && visible {
                "better"
            } else {
                "same"
            };
            let iqr = |s: &Summary| format!("[{:.4}, {:.4}]", s.q1, s.q3);
            println!(
                "{:<16}{:<22}{:>14.4}{:>22}{:>14.4}{:>22}{:>6.0}%  {verdict} ({:+.2}%)",
                spec.name,
                m.name,
                sa.median,
                iqr(&sa),
                sb.median,
                iqr(&sb),
                bound * 100.0,
                100.0 * (sb.median - sa.median) / sa.median.abs(),
            );
        }
        let pct = |w: &Json| w.get(metrics::FAILED_PCT).and_then(Json::as_f64).unwrap_or(0.0);
        let verdict = if pct(&wb) > pct(&wa) {
            worse += 1;
            "WORSE"
        } else {
            "same"
        };
        println!(
            "{:<16}{:<22}{:>14.4}{:>22}{:>14.4}{:>22}{:>7}  {verdict}",
            spec.name,
            metrics::FAILED_PCT,
            pct(&wa),
            "",
            pct(&wb),
            "",
            "none"
        );
    }
    println!("{worse} row(s) worse");
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
