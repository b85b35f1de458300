//! Regenerates the paper's Figure 8 latency table in a few seconds
//! (`etx_bench`'s `paper_seq1` workload is the full-size run).
//!
//! ```sh
//! cargo run --release --example latency_table
//! ```

use etx::harness::figures::figure8;

fn main() {
    let table = figure8(15, 2024);
    println!("\nFigure 8 — comparing the latency of the protocols (ms):\n");
    println!("{}", table.render());
    println!("paper reference: baseline 217.4 | AR 252.3 (+16%) | 2PC 266.5 (+23%)");
}
