//! Where does the paper's headline — "AR beats 2PC because it replaces
//! forced disk I/O with network round trips" — flip? Sweeping the
//! forced-log cost shows 2PC winning once a forced write is cheaper than
//! a consensus round trip, and AR winning on the paper's 12.5 ms disks.
//!
//! ```sh
//! cargo run --release --example crossover
//! ```

use etx::harness::sweeps::{crossover_sweep, render_crossover};

fn main() {
    println!("\nForced-I/O cost vs protocol totals (paper cost model, 12 trials per cell):\n");
    let forces = [1.0, 2.0, 4.0, 8.0, 12.5, 20.0, 35.0, 50.0];
    let rows = crossover_sweep(12, 0xF1_C3, &forces);
    println!("{}", render_crossover(&rows));
    let at_paper = rows.iter().find(|r| r.log_force_ms == 12.5).expect("12.5 ms is swept");
    assert!(at_paper.ar_ms < at_paper.tpc_ms, "paper's conclusion must hold at 12.5 ms");
    let (fastest, slowest) = (&rows[0], &rows[rows.len() - 1]);
    assert!(fastest.tpc_ms < fastest.ar_ms, "with 1 ms forced writes 2PC must win");
    assert!(slowest.tpc_ms > at_paper.tpc_ms, "a slower disk only makes 2PC worse");
    println!(
        "2PC wins at 1 ms forced writes, AR at the paper's 12.5 ms; 2PC degrades with the disk."
    );
}
