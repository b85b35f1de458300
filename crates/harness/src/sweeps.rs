//! Parameter sweeps beyond the paper's tables: the forced-I/O crossover,
//! an ablation of the paper's headline design choice (network round trips
//! instead of forced disk writes).

use crate::figures::figure8_with_cost;
use etx_base::config::CostModel;
use etx_base::time::Dur;

/// One point of the forced-I/O crossover sweep (X3).
#[derive(Debug, Clone)]
pub struct CrossoverPoint {
    /// Forced-log cost in ms.
    pub log_force_ms: f64,
    /// AR total latency (mean, ms).
    pub ar_ms: f64,
    /// 2PC total latency (mean, ms).
    pub tpc_ms: f64,
}

/// X3: AR never touches a disk; 2PC pays two forced writes. Sweeping the
/// forced-write cost shows where the paper's conclusion flips: with fast
/// stable storage (≲ one consensus round trip) 2PC would win; on the
/// paper's 12.5 ms disks AR wins.
pub fn crossover_sweep(trials: usize, seed: u64, force_ms: &[f64]) -> Vec<CrossoverPoint> {
    let mut rows = Vec::new();
    for &f in force_ms {
        let cost = CostModel { log_force: Dur::from_millis_f64(f), ..CostModel::default() };
        let table = figure8_with_cost(trials, seed, cost);
        let ar = table.column("AR").expect("AR column").total.mean;
        let tpc = table.column("2PC").expect("2PC column").total.mean;
        rows.push(CrossoverPoint { log_force_ms: f, ar_ms: ar, tpc_ms: tpc });
    }
    rows
}

/// Renders the crossover sweep.
pub fn render_crossover(rows: &[CrossoverPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>14}{:>12}{:>12}{:>10}\n",
        "log-force ms", "AR ms", "2PC ms", "winner"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>14.1}{:>12.1}{:>12.1}{:>10}\n",
            r.log_force_ms,
            r.ar_ms,
            r.tpc_ms,
            if r.ar_ms <= r.tpc_ms { "AR" } else { "2PC" }
        ));
    }
    out
}
