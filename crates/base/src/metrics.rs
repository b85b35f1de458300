//! Summed metrics: what a host adds up over the run, instead of recording
//! one trace event per occurrence.
//!
//! The trace stays the evidence — what the §3 checker, the tests and the
//! fault plane's triggers read. A figure that is only ever *summed* does not
//! need an event per occurrence. [`SpanTotals`] is the first such figure:
//! the paper's Figure 8 allocates client latency to software components,
//! which is a sum per component. Like [`crate::trace::MsgStats`], each host
//! keeps one accumulator for the run — both run one node at a time — and
//! lends it in place (`Host::spans`).

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
}
