//! Node-owned metrics: what a host adds up per node and folds into its
//! own totals, instead of recording one trace event per occurrence for the
//! whole run.
//!
//! The trace stays the evidence — what the §3 checker, the tests and the
//! fault plane's triggers read. A figure that is only ever *summed* does not
//! need an event per occurrence, and on the threaded host it should not
//! cost a shared lock either. [`SpanTotals`] is the first such figure: the
//! paper's Figure 8 allocates client latency to software components, which
//! is a sum per component. Like [`crate::trace::MsgStats`], every node keeps
//! its own, and a host lends the run's totals in place
//! (`Host::spans`): the simulator runs one node at a time and keeps one
//! accumulator, the threaded host takes each node's into its own whenever
//! its driver returns to the caller.

use crate::time::Dur;
use crate::trace::Component;

/// Modelled service time per Figure 8 [`Component`]: how many spans each
/// component was charged, and their total duration.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotals {
    count: [u64; Component::ALL.len()],
    total: [Dur; Component::ALL.len()],
}

impl SpanTotals {
    /// Charges one span of `dur` to `comp`. Host-internal.
    pub fn record(&mut self, comp: Component, dur: Dur) {
        let i = comp as usize;
        self.count[i] += 1;
        self.total[i] += dur;
    }

    /// Adds `other`'s spans to this instance's — the result is what one
    /// instance would hold had it recorded both histories. Host-internal:
    /// a backend that counts per node folds the nodes into one view.
    pub fn merge(&mut self, other: &SpanTotals) {
        for i in 0..Component::ALL.len() {
            self.count[i] += other.count[i];
            self.total[i] += other.total[i];
        }
    }

    /// Spans charged to `comp`.
    pub fn count(&self, comp: Component) -> u64 {
        self.count[comp as usize]
    }

    /// Total modelled time charged to `comp`.
    pub fn total(&self, comp: Component) -> Dur {
        self.total[comp as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_component_has_its_own_slot() {
        for (i, comp) in Component::ALL.into_iter().enumerate() {
            assert_eq!(comp as usize, i, "{comp}: ALL is in declaration order");
        }
    }

    #[test]
    fn merged_totals_equal_one_instance_recording_every_span() {
        let spans = [
            (Component::Sql, 180),
            (Component::Start, 3),
            (Component::Sql, 7),
            (Component::LogOutcome, 4),
            (Component::Start, 2),
        ];
        let (mut one, mut a, mut b) =
            (SpanTotals::default(), SpanTotals::default(), SpanTotals::default());
        for (i, &(comp, ms)) in spans.iter().enumerate() {
            one.record(comp, Dur::from_millis(ms));
            if i % 2 == 0 { &mut a } else { &mut b }.record(comp, Dur::from_millis(ms));
        }
        a.merge(&b);
        assert_eq!(a, one);
        assert_eq!(
            (one.count(Component::Sql), one.total(Component::Sql)),
            (2, Dur::from_millis(187))
        );
        assert_eq!((one.count(Component::Commit), one.total(Component::Commit)), (0, Dur::ZERO));
    }
}
