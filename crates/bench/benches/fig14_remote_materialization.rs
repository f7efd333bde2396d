//! E4/E5 / Figures 14 and 15 — remote materialization on the federated
//! TPC-H setup.
//!
//! The full 12-query tables are produced by
//! `cargo run --release --example tpch_federated`; this generator takes
//! representative queries from both groups (all-remote Q6/Q1* and mixed
//! Q14) in SDA-normal vs. cache-hit mode, plus the one-time
//! materialization (CTAS) cost. Per row: the MR jobs one execution
//! launches and the time the cluster models for it (both repeat
//! exactly), and the measured median of 15 executions.

use std::time::Duration;

use hana_bench::{median_nanos, QueryRun, TpchWorld, WorldConfig};
use hana_tpch::{queries, TpchQuery};

fn config() -> WorldConfig {
    WorldConfig {
        scale: 0.002,
        seed: 2015,
        job_startup: Duration::from_millis(2),
        task_startup: Duration::from_micros(200),
        worker_slots: 4,
        block_size: 1024 * 1024,
        odbc_row_cost_us: 30,
    }
}

/// One row: `first` gives the job count and the modelled time, the
/// measured column is the median over 15 further executions.
fn report(label: &str, first: QueryRun, mut run: impl FnMut() -> QueryRun) {
    let measured = median_nanos(|| {
        run();
    });
    println!(
        "{label:<14} | {:>4} | {:>6.1}ms | {:>6.2}ms",
        first.mr_jobs,
        first.modelled.as_secs_f64() * 1e3,
        measured as f64 / 1e6
    );
}

fn main() {
    let cfg = config();
    let remote_world = TpchWorld::build(&cfg, false).unwrap();
    let local_part_world = TpchWorld::build(&cfg, true).unwrap();
    remote_world.hana.set_remote_cache(true, 1_000_000);
    local_part_world.hana.set_remote_cache(true, 1_000_000);
    let all = queries();
    let query = |name: &str| -> TpchQuery { all.iter().find(|q| q.name == name).unwrap().clone() };

    println!("query/mode     | jobs | modelled | measured");
    for name in ["Q6", "Q1*", "Q14"] {
        let q = query(name);
        let world = if remote_world.fits(name) {
            &remote_world
        } else {
            &local_part_world
        };
        report(
            &format!("{name}/normal"),
            world.run(&q, false).unwrap(),
            || world.run(&q, false).unwrap(),
        );
        // Materialize once, then measure steady-state hits.
        world.run(&q, true).unwrap();
        report(
            &format!("{name}/cache_hit"),
            world.run(&q, true).unwrap(),
            || world.run(&q, true).unwrap(),
        );
    }

    // Figure 15: the one-time materialization cost (CTAS) for Q6. Each
    // execution gets a predicate no earlier one used (a distinct cache
    // key), so every one of them materializes.
    let q6 = query("Q6");
    let mut n = 0;
    let mut fresh_ctas = || {
        n += 1;
        let mut q = q6.clone();
        q.sql = q
            .sql
            .replace("l_quantity < 24", &format!("l_quantity < {}", 24 + n));
        remote_world.run(&q, true).unwrap()
    };
    let first = fresh_ctas();
    report("Q6/ctas", first, fresh_ctas);
}
