//! # etx-harness — experiments, workloads, chaos and the property checker
//!
//! Everything needed to *evaluate* the protocols:
//!
//! * [`scenario`] — one-call construction of a full three-tier system under
//!   any middle tier (e-Transactions, baseline, 2PC, primary-backup);
//! * [`workloads`] — the bank-update experiment of Appendix 3, a
//!   two-database transfer, the intro's travel booking, and adversarial
//!   workloads (hot-spot contention, always-doomed);
//! * [`properties`] — the §3 specification (T.1, T.2, A.1–A.3, V.1, V.2)
//!   checked against recorded histories;
//! * [`figures`] — regenerates Figure 8 (latency table), Figure 7
//!   (communication steps) and Figure 1 (canonical executions);
//! * [`sweeps`] — the forced-I/O crossover (where 2PC would beat AR);
//! * [`chaos`] — seed-derived randomized fault schedules with full
//!   specification checking;
//! * [`stats`] — means and 90% confidence intervals (the paper's
//!   methodology);
//! * [`latency`] — per-component breakdowns from the nodes' span totals.

pub mod chaos;
pub mod figures;
pub mod latency;
pub mod properties;
pub mod scenario;
pub mod stats;
pub mod sweeps;
pub mod workloads;

pub use chaos::{
    feature_corners, run_chaos, run_hot_shard_chaos, run_mid_batch_chaos, run_read_lease_chaos,
    run_read_path_chaos, run_speculation_chaos, ChaosOptions, ChaosOutcome,
};
pub use figures::{figure1, figure1_all, figure7, figure8, Fig1Scenario, Fig8Table};
pub use latency::Breakdown;
pub use properties::{check, LivenessChecks, PropertyReport};
pub use scenario::{MiddleTier, Scenario, ScenarioBuilder};
pub use stats::Summary;
pub use workloads::Workload;
