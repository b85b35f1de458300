//! The Figure 8 latency breakdown of a run.
//!
//! The paper measures end-to-end client latency and "allocates portions of
//! this time to specific software components". We do the same: the modelled
//! service time the nodes charged to each component ([`SpanTotals`]) is that
//! component's portion; everything unaccounted for is "other" — which, as
//! in the paper, is dominated by client-server communication. The totals
//! cover the whole run, so they are one request's in a run of one
//! failure-free request: the paper's Figure 8 configuration.

use etx_base::metrics::SpanTotals;
use etx_base::trace::{Component, TraceEvent, TraceKind};
use std::collections::BTreeMap;

/// Per-request latency breakdown, all values in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Per-component totals (absent components read 0).
    pub per: BTreeMap<Component, f64>,
    /// End-to-end latency (issue → deliver).
    pub total: f64,
    /// `total − Σ components` — communication and queueing.
    pub other: f64,
}

impl Breakdown {
    /// The breakdown of a run of one request, if it was delivered: its
    /// latency runs from the first `Issue` in `events` to the first
    /// `Deliver`, and `spans` are the run's per-component totals.
    pub fn of_run(events: &[TraceEvent], spans: &SpanTotals) -> Option<Breakdown> {
        let first = |is: fn(&TraceKind) -> bool| events.iter().find(|e| is(&e.kind)).map(|e| e.at);
        let issue = first(|k| matches!(k, TraceKind::Issue { .. }))?;
        let deliver = first(|k| matches!(k, TraceKind::Deliver { .. }))?;
        let per: BTreeMap<Component, f64> = Component::ALL
            .into_iter()
            .filter(|&c| spans.count(c) > 0)
            .map(|c| (c, spans.total(c).as_millis_f64()))
            .collect();
        let total = deliver.since(issue).as_millis_f64();
        let accounted: f64 = per.values().sum();
        Some(Breakdown { per, total, other: total - accounted })
    }

    /// Value for one component (0 if absent).
    pub fn component(&self, c: Component) -> f64 {
        self.per.get(&c).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::ids::{NodeId, RequestId, ResultId};
    use etx_base::time::{Dur, Time};
    use etx_base::value::Outcome;

    fn issue() -> TraceEvent {
        let request = RequestId { client: NodeId(0), seq: 1 };
        TraceEvent::new(Time(0), NodeId(0), TraceKind::Issue { request })
    }

    #[test]
    fn breakdown_sums_spans_and_computes_other() {
        let rid = ResultId::first(RequestId { client: NodeId(0), seq: 1 });
        let deliver = TraceKind::Deliver { rid, outcome: Outcome::Commit, steps: 6 };
        let events = vec![issue(), TraceEvent::new(Time(200_000), NodeId(0), deliver)];
        let mut spans = SpanTotals::default();
        spans.record(Component::Start, Dur::from_millis(3));
        spans.record(Component::Sql, Dur::from_millis(100));
        spans.record(Component::Sql, Dur::from_millis(80));
        let b = Breakdown::of_run(&events, &spans).unwrap();
        assert_eq!(b.total, 200.0);
        assert_eq!(b.component(Component::Start), 3.0);
        assert_eq!(b.component(Component::Sql), 180.0);
        assert_eq!(b.component(Component::Commit), 0.0);
        assert!(!b.per.contains_key(&Component::Commit), "no span, no row entry");
        assert!((b.other - 17.0).abs() < 1e-9);
    }

    #[test]
    fn missing_delivery_yields_none() {
        let mut spans = SpanTotals::default();
        spans.record(Component::Start, Dur::from_millis(3));
        assert!(Breakdown::of_run(&[issue()], &spans).is_none());
    }
}
