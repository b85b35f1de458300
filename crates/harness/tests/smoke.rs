//! The paper's figures at small trial counts: the shape each one claims
//! (Figure 8 overheads and confidence intervals, Figure 7 step ordering,
//! Figure 1 safety), asserted on the simulated clock. `etx_bench`'s
//! `paper_seq1` workload and `baselines.*` rows are the full-size
//! Figure 8 run.

use etx_harness::figures::{figure1_all, figure7, figure8, render_fig7};

#[test]
fn figure8_shape_holds_with_small_trials() {
    let table = figure8(5, 42);
    let base = table.column("baseline").unwrap();
    let ar = table.column("AR").unwrap();
    let tpc = table.column("2PC").unwrap();
    println!("{}", table.render());
    assert!(base.total.mean > 150.0, "baseline ≈ paper's 217 ms scale: {}", base.total.mean);
    assert!(ar.overhead_pct > 5.0 && ar.overhead_pct < 30.0, "AR overhead {}", ar.overhead_pct);
    assert!(tpc.overhead_pct > ar.overhead_pct, "2PC must cost more than AR");
    for c in table.columns.iter() {
        assert!(
            c.total.ci90_rel_width() < 0.10,
            "{}: CI width {:.1}% exceeds the paper's 10% discipline",
            c.label,
            c.total.ci90_rel_width() * 100.0
        );
    }
}

#[test]
fn figure7_orderings_hold() {
    let rows = figure7(7);
    println!("{}", render_fig7(&rows));
    let steps = |l: &str| rows.iter().find(|r| r.label == l).unwrap().steps;
    assert_eq!(steps("AR"), steps("PB"), "AR and PB have identical step counts");
    assert!(steps("AR") > steps("2PC"));
    assert!(steps("2PC") > steps("baseline"));
}

#[test]
fn figure1_panels_behave() {
    let report = figure1_all(3);
    println!("{report}");
    assert!(report.contains("ok"));
    assert!(!report.contains("VIOLATED"));
}
