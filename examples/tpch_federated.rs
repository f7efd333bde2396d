//! Regenerate **Figure 14** (runtime benefit of remote materialization)
//! and **Figure 15** (materialization overhead) of the paper.
//!
//! The setup mirrors §4.4: TPC-H data with LINEITEM, CUSTOMER, ORDERS,
//! PARTSUPP (and usually PART) federated at a simulated Hive/Hadoop
//! cluster reached over SDA, while SUPPLIER, NATION and REGION (plus
//! PART for Q14/Q19) live in HANA column tables. Every query runs in
//! SDA normal mode, then with `WITH HINT (USE_REMOTE_CACHE)` twice —
//! the first hinted run pays the CTAS materialization, the second reads
//! the materialized temp table through Hive's fetch task. Each mode
//! prints the MR jobs it launched, the start-up and transfer time the
//! cluster modelled (charged, never slept) and the measured wall time;
//! the percentages are computed on modelled + measured.
//!
//! Run with: `cargo run --release --example tpch_federated [scale]`

use hana_bench::{render_figures, run_materialization_experiment, WorldConfig};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);
    let config = WorldConfig {
        scale,
        ..WorldConfig::default()
    };
    println!(
        "Building TPC-H federation worlds at SF {scale} \
         (this loads Hive and HANA twice, for both PART placements)...\n"
    );
    let rows = run_materialization_experiment(&config).expect("experiment");
    println!("{}", render_figures(&rows));

    // Shape checks against the paper.
    let avg = |all_remote: bool| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.all_remote == all_remote)
            .map(|r| r.benefit_percent())
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let (remote_avg, mixed_avg) = (avg(true), avg(false));
    println!("average benefit, all-remote queries: {remote_avg:.1}%");
    println!("average benefit, mixed queries:      {mixed_avg:.1}%");
    println!(
        "paper shape (all-remote > mixed, both positive): {}",
        if remote_avg > mixed_avg && mixed_avg > 0.0 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
