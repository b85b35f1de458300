//! The network model: latency and loss (absorbed by the reliable-channel
//! layer).
//!
//! The paper assumes *reliable channels* (§4: termination + integrity) and
//! notes (§5) that in practice they are "implemented by retransmitting
//! messages and tracking duplicates", and that link failures are tolerated
//! "as long as any link failure is eventually repaired". The kernel models
//! exactly that: each logical send is delivered exactly once; message loss
//! translates into extra delay (retransmission gaps), not into a silent
//! drop, and a cut link holds what is sent on it until it heals — that half
//! is [`etx_base::fault::Links`], the same on every host; what a healed
//! link re-injects is sampled here like any fresh send. A message to a
//! *crashed* process is dropped — the
//! reliable-channel obligation is void when the receiver crashes, and every
//! protocol layer that must survive crash/recovery retransmits on its own
//! (client re-broadcast, terminate() repeat-loop, consensus resync), just
//! like the paper's algorithms.

use crate::rng::Rng;
use etx_base::time::Dur;

/// Static network parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Minimum one-way latency.
    pub min_delay: Dur,
    /// Maximum one-way latency.
    pub max_delay: Dur,
    /// Probability that a single transmission attempt is lost. The reliable
    /// channel retransmits after [`NetConfig::retransmit_gap`], so loss
    /// manifests as latency, never as absence.
    pub loss_rate: f64,
    /// Gap before a lost transmission is retried.
    pub retransmit_gap: Dur,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            min_delay: Dur::from_micros(1_500),
            max_delay: Dur::from_micros(2_500),
            loss_rate: 0.0,
            retransmit_gap: Dur::from_millis(10),
        }
    }
}

impl NetConfig {
    /// A LAN-ish profile matching the paper's testbed (3–5 ms RPC round
    /// trips ⇒ 1.5–2.5 ms one-way).
    pub fn paper_lan() -> Self {
        NetConfig::default()
    }

    /// The one-way latencies at [`CostModel::fast_for_tests`] scale,
    /// 100–300 µs.
    ///
    /// [`CostModel::fast_for_tests`]: etx_base::config::CostModel::fast_for_tests
    pub fn fast_for_tests() -> Self {
        NetConfig {
            min_delay: Dur::from_micros(100),
            max_delay: Dur::from_micros(300),
            ..NetConfig::default()
        }
    }

    /// A lossy profile for chaos tests.
    pub fn lossy(loss_rate: f64) -> Self {
        NetConfig { loss_rate, ..NetConfig::default() }
    }

    /// Zero-jitter profile: every message takes exactly the mean latency.
    /// Used by step-count experiments (Figure 7) where determinism of the
    /// interleaving matters.
    pub fn deterministic() -> Self {
        let mean = Dur::from_micros(2_000);
        NetConfig {
            min_delay: mean,
            max_delay: mean,
            loss_rate: 0.0,
            retransmit_gap: Dur::from_millis(10),
        }
    }
}

/// Samples the end-to-end delay of one logical (reliable) transmission:
/// base latency plus a retransmission gap per lost attempt.
pub fn sample_delivery_delay(cfg: &NetConfig, rng: &mut Rng) -> Dur {
    let mut delay = Dur::ZERO;
    // Geometric number of lost attempts, each costing a retransmission gap.
    let mut attempts: u32 = 0;
    while rng.chance(cfg.loss_rate) && attempts < 1_000 {
        attempts += 1;
        delay += cfg.retransmit_gap;
    }
    delay + rng.range_dur(cfg.min_delay, cfg.max_delay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::config::CostModel;

    #[test]
    fn paper_lan_matches_the_papers_round_trip() {
        // RPC round trip in the paper's environment: 3–5 ms.
        let n = NetConfig::paper_lan();
        assert!(n.min_delay + n.min_delay >= Dur::from_millis(3));
        assert!(n.max_delay + n.max_delay <= Dur::from_millis(5));
    }

    #[test]
    fn fast_hops_are_outweighed_by_a_prepare_and_a_forced_write() {
        let (f, n) = (CostModel::fast_for_tests(), NetConfig::fast_for_tests());
        assert!(f.db_prepare > n.max_delay);
        assert!(f.log_force > n.max_delay, "forced IO must dominate a one-way hop");
    }

    #[test]
    fn lossless_delay_within_bounds() {
        let cfg = NetConfig::default();
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let d = sample_delivery_delay(&cfg, &mut rng);
            assert!(d >= cfg.min_delay && d <= cfg.max_delay, "{d:?}");
        }
    }

    #[test]
    fn loss_adds_retransmission_gaps() {
        let cfg = NetConfig::lossy(0.5);
        let mut rng = Rng::new(2);
        let n = 10_000;
        let total: u64 = (0..n).map(|_| sample_delivery_delay(&cfg, &mut rng).0).sum();
        let mean = Dur(total / n);
        // Expected ≈ 1 extra gap on average at 50% loss (geometric mean 1).
        assert!(mean > cfg.retransmit_gap, "mean {mean}");
        assert!(mean < Dur::from_millis(40), "mean {mean}");
    }
}
