//! Regenerating the paper's evaluation artifacts: Figure 8 (the latency
//! table), Figure 7 (communication steps / message counts) and Figure 1
//! (the four canonical executions).

use crate::latency::breakdown_for;
use crate::scenario::{MiddleTier, ScenarioBuilder};
use crate::stats::Summary;
use crate::workloads::Workload;
use etx_base::config::CostModel;
use etx_base::fault::{FaultOp, NemesisWhen};
use etx_base::ids::RequestId;
use etx_base::runtime::RuntimeKind;
use etx_base::trace::{Component, TraceKind};
use etx_base::value::Outcome;
use etx_sim::{NetConfig, RunOutcome};
use std::collections::BTreeMap;

/// One protocol column of the Figure 8 table.
#[derive(Debug, Clone)]
pub struct Fig8Column {
    /// Column header ("baseline", "AR", "2PC").
    pub label: &'static str,
    /// Mean per-component milliseconds.
    pub components: BTreeMap<Component, f64>,
    /// Mean "other" (unaccounted) milliseconds.
    pub other: f64,
    /// Total latency summary over all trials.
    pub total: Summary,
    /// Overhead vs. the baseline column, in percent.
    pub overhead_pct: f64,
}

/// The regenerated Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Table {
    /// Columns in paper order: baseline, AR, 2PC.
    pub columns: Vec<Fig8Column>,
    /// Trials per column.
    pub trials: usize,
}

/// Runs one failure-free trial of `tier` and returns the latency breakdown.
fn one_trial(tier: MiddleTier, seed: u64, cost: CostModel) -> Option<crate::latency::Breakdown> {
    let mut scenario =
        ScenarioBuilder::new(tier, seed).runtime(RuntimeKind::Sim).cost(cost).requests(1).build();
    let out = scenario.run_until_settled(1);
    if out != RunOutcome::Predicate {
        return None;
    }
    let client = scenario.topo.clients[0];
    breakdown_for(scenario.trace().events(), RequestId { client, seq: 1 })
}

/// Regenerates Figure 8: `trials` failure-free bank-update runs per
/// protocol under the paper's cost model.
pub fn figure8(trials: usize, base_seed: u64) -> Fig8Table {
    figure8_with_cost(trials, base_seed, CostModel::default())
}

/// [`figure8`] with a custom cost model (used by the cross-over sweep).
pub fn figure8_with_cost(trials: usize, base_seed: u64, cost: CostModel) -> Fig8Table {
    let tiers = [MiddleTier::Baseline, MiddleTier::Etx { apps: 3 }, MiddleTier::Tpc];
    let mut columns = Vec::new();
    let mut baseline_mean = 0.0;
    for tier in tiers {
        let mut totals = Vec::new();
        let mut comp_sums: BTreeMap<Component, f64> = BTreeMap::new();
        let mut other_sum = 0.0;
        for t in 0..trials {
            let seed = base_seed.wrapping_mul(1_000_003).wrapping_add(t as u64);
            if let Some(b) = one_trial(tier, seed, cost.clone()) {
                totals.push(b.total);
                for (c, v) in &b.per {
                    *comp_sums.entry(*c).or_insert(0.0) += v;
                }
                other_sum += b.other;
            }
        }
        let n = totals.len().max(1) as f64;
        let components: BTreeMap<Component, f64> =
            comp_sums.into_iter().map(|(c, v)| (c, v / n)).collect();
        let total = Summary::of(&totals);
        if tier == MiddleTier::Baseline {
            baseline_mean = total.mean;
        }
        let overhead_pct =
            if baseline_mean > 0.0 { (total.mean / baseline_mean - 1.0) * 100.0 } else { 0.0 };
        columns.push(Fig8Column {
            label: tier.label(),
            components,
            other: other_sum / n,
            total,
            overhead_pct,
        });
    }
    Fig8Table { columns, trials }
}

impl Fig8Table {
    /// Renders the table in the paper's layout (milliseconds).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let w = 12usize;
        out.push_str(&format!("{:<14}", "protocol"));
        for c in &self.columns {
            out.push_str(&format!("{:>w$}", c.label));
        }
        out.push('\n');
        for comp in Component::ALL {
            // Paper row order: start, end, commit, prepare, SQL, log-start,
            // log-outcome.
            out.push_str(&format!("{:<14}", comp.label()));
            for c in &self.columns {
                out.push_str(&format!("{:>w$.1}", c.components.get(&comp).copied().unwrap_or(0.0)));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<14}", "other"));
        for c in &self.columns {
            out.push_str(&format!("{:>w$.1}", c.other));
        }
        out.push('\n');
        out.push_str(&format!("{:<14}", "total"));
        for c in &self.columns {
            out.push_str(&format!("{:>w$.1}", c.total.mean));
        }
        out.push('\n');
        out.push_str(&format!("{:<14}", "90% CI ±"));
        for c in &self.columns {
            out.push_str(&format!("{:>w$.1}", c.total.ci90_half));
        }
        out.push('\n');
        out.push_str(&format!("{:<14}", "reliability"));
        for c in &self.columns {
            out.push_str(&format!("{:>w$}", format!("{:+.0}%", c.overhead_pct)));
        }
        out.push('\n');
        out
    }

    /// Column by label.
    pub fn column(&self, label: &str) -> Option<&Fig8Column> {
        self.columns.iter().find(|c| c.label == label)
    }
}

/// One row of the Figure 7 comparison.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Protocol label.
    pub label: &'static str,
    /// Client-visible communication steps (measured causal depth).
    pub steps: u32,
    /// Protocol messages sent until delivery (heartbeats excluded).
    pub protocol_msgs: u64,
    /// Total messages (background included).
    pub total_msgs: u64,
}

/// Regenerates the Figure 7 comparison: failure-free, zero-jitter runs of
/// all four protocols; steps are *measured* causal depth, not hand counts.
pub fn figure7(base_seed: u64) -> Vec<Fig7Row> {
    let tiers =
        [MiddleTier::Baseline, MiddleTier::Tpc, MiddleTier::Pb, MiddleTier::Etx { apps: 3 }];
    let mut rows = Vec::new();
    for tier in tiers {
        let mut scenario = ScenarioBuilder::new(tier, base_seed)
            .runtime(RuntimeKind::Sim)
            .cost(CostModel::default().without_jitter())
            .net(NetConfig::deterministic())
            .requests(1)
            .build();
        let out = scenario.run_until_settled(1);
        assert_eq!(out, RunOutcome::Predicate, "{}: failure-free run must deliver", tier.label());
        let steps = scenario.deliveries().first().map(|(_, _, s, _)| *s).expect("delivered");
        rows.push(Fig7Row {
            label: tier.label(),
            steps,
            protocol_msgs: scenario.stats().protocol_total(),
            total_msgs: scenario.stats().total(),
        });
    }
    rows
}

/// Renders the Figure 7 rows.
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12}{:>8}{:>16}{:>14}\n",
        "protocol", "steps", "protocol msgs", "total msgs"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12}{:>8}{:>16}{:>14}\n",
            r.label, r.steps, r.protocol_msgs, r.total_msgs
        ));
    }
    out
}

/// The four canonical executions of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig1Scenario {
    /// (a) failure-free run with commit.
    FailureFreeCommit,
    /// (b) failure-free run with abort (databases refuse).
    FailureFreeAbort,
    /// (c) fail-over with commit: owner crashes after `regD` decides.
    FailoverCommit,
    /// (d) fail-over with abort: owner crashes after `regA` decides.
    FailoverAbort,
}

impl Fig1Scenario {
    /// Panel label.
    pub fn label(&self) -> &'static str {
        match self {
            Fig1Scenario::FailureFreeCommit => "1(a) failure-free commit",
            Fig1Scenario::FailureFreeAbort => "1(b) failure-free abort",
            Fig1Scenario::FailoverCommit => "1(c) fail-over with commit",
            Fig1Scenario::FailoverAbort => "1(d) fail-over with abort",
        }
    }
}

/// What happened in a Figure 1 run.
#[derive(Debug, Clone)]
pub struct Fig1Report {
    /// Which panel.
    pub scenario: Fig1Scenario,
    /// Attempt number whose outcome reached the client first (commit) or
    /// that aborted first (abort panels).
    pub attempt: u32,
    /// Final client-visible outcome of that attempt.
    pub outcome: Outcome,
    /// Whether a cleaner takeover happened.
    pub cleaner_used: bool,
    /// End-to-end duration until the reported event, ms.
    pub millis: f64,
    /// All §3 safety properties held.
    pub safety_ok: bool,
}

/// Runs one Figure 1 scenario under the paper's cost model and reports.
pub fn figure1(scenario: Fig1Scenario, seed: u64) -> Fig1Report {
    let workload = match scenario {
        Fig1Scenario::FailureFreeAbort => Workload::AlwaysDoomed,
        _ => Workload::BankUpdate { amount: 100 },
    };
    let mut s = ScenarioBuilder::new(MiddleTier::Etx { apps: 3 }, seed)
        .runtime(RuntimeKind::Sim)
        .workload(workload)
        .requests(1)
        .build();
    let a1 = s.topo.primary();
    match scenario {
        Fig1Scenario::FailoverCommit => {
            s.schedule_fault(
                NemesisWhen::on_trace(move |ev| {
                    ev.node == a1
                        && matches!(ev.kind, TraceKind::Span { comp: Component::LogOutcome, .. })
                }),
                FaultOp::Crash(a1),
            )
            .unwrap();
        }
        Fig1Scenario::FailoverAbort => {
            s.schedule_fault(
                NemesisWhen::on_trace(move |ev| {
                    ev.node == a1
                        && matches!(ev.kind, TraceKind::Span { comp: Component::LogStart, .. })
                }),
                FaultOp::Crash(a1),
            )
            .unwrap();
        }
        _ => {}
    }
    // Run until the client observes the first decisive event.
    let deadline = match scenario {
        Fig1Scenario::FailureFreeAbort => {
            // Run until the client has seen the abort of attempt 1.
            s.sim_mut().run_until(|sim| {
                sim.trace().count_kind(|k| matches!(k, TraceKind::ClientRetry { .. })) >= 1
            })
        }
        Fig1Scenario::FailoverAbort => s.sim_mut().run_until(|sim| {
            sim.trace().count_kind(|k| {
                matches!(k, TraceKind::ClientRetry { .. } | TraceKind::Deliver { .. })
            }) >= 1
        }),
        _ => s.sim_mut().run_until(|sim| {
            sim.trace().count_kind(|k| matches!(k, TraceKind::Deliver { .. })) >= 1
        }),
    };
    assert_eq!(deadline, RunOutcome::Predicate, "{}: run must settle", scenario.label());
    let trace = s.trace().events();
    let (attempt, outcome, at) = trace
        .iter()
        .find_map(|e| match e.kind {
            TraceKind::Deliver { rid, outcome, .. } => Some((rid.attempt, outcome, e.at)),
            TraceKind::ClientRetry { rid } => Some((rid.attempt, Outcome::Abort, e.at)),
            _ => None,
        })
        .expect("decisive client event");
    let cleaner_used = s.trace().count_kind(|k| matches!(k, TraceKind::CleanerTakeover { .. })) > 0;
    let safety_ok = crate::properties::check(
        trace,
        &s.topo.clients,
        crate::properties::LivenessChecks::default(),
    )
    .ok();
    Fig1Report { scenario, attempt, outcome, cleaner_used, millis: at.as_millis_f64(), safety_ok }
}

/// Runs all four Figure 1 panels and renders a summary.
pub fn figure1_all(seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<30}{:>9}{:>9}{:>10}{:>12}{:>9}\n",
        "scenario", "attempt", "outcome", "cleaner", "ms", "safety"
    ));
    for sc in [
        Fig1Scenario::FailureFreeCommit,
        Fig1Scenario::FailureFreeAbort,
        Fig1Scenario::FailoverCommit,
        Fig1Scenario::FailoverAbort,
    ] {
        let r = figure1(sc, seed);
        out.push_str(&format!(
            "{:<30}{:>9}{:>9}{:>10}{:>12.1}{:>9}\n",
            r.scenario.label(),
            r.attempt,
            r.outcome.to_string(),
            if r.cleaner_used { "yes" } else { "no" },
            r.millis,
            if r.safety_ok { "ok" } else { "VIOLATED" },
        ));
    }
    out
}
