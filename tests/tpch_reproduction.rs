//! E4/E5 — the Figure 14/15 shape, asserted end to end at a small scale
//! factor on modelled + measured time and on MR job counts: every query
//! returns identical results in normal, first-cached and steady-cached
//! mode (checked inside the harness); every cache hit is cheaper than
//! normal execution; the all-remote group benefits more than the mixed
//! group; materialization overhead stays bounded; and the modelled part
//! is a function of the configuration, not of the run.

use std::time::Duration;

use hana_bench::{run_materialization_experiment, MaterializationRow, QueryRun, WorldConfig};

#[test]
fn figure_14_15_shape_reproduced() {
    let config = WorldConfig {
        scale: 0.002,
        seed: 7,
        job_startup: Duration::from_millis(4),
        task_startup: Duration::from_micros(500),
        worker_slots: 4,
        block_size: 1024 * 1024,
        odbc_row_cost_us: 60,
    };
    let first = run_materialization_experiment(&config).expect("experiment");
    let second = run_materialization_experiment(&config).expect("second experiment");
    assert_eq!(first.len(), 12, "all twelve paper queries ran");

    // The modelled part is a function of the configuration alone: both
    // experiments charge the same time and launch the same jobs per
    // query and mode.
    let modelled = |rows: &[MaterializationRow]| -> Vec<_> {
        rows.iter()
            .map(|r| {
                [r.normal, r.first_cached, r.steady_cached].map(|run| (run.modelled, run.mr_jobs))
            })
            .collect()
    };
    assert_eq!(modelled(&first), modelled(&second));

    // The measured part is one sample per query and mode on a shared
    // box: keep the faster of the two, so that one scheduling hiccup
    // cannot decide a figure.
    let faster = |a: QueryRun, b: QueryRun| QueryRun {
        measured: a.measured.min(b.measured),
        ..a
    };
    let rows: Vec<MaterializationRow> = first
        .iter()
        .zip(&second)
        .map(|(a, b)| MaterializationRow {
            normal: faster(a.normal, b.normal),
            first_cached: faster(a.first_cached, b.first_cached),
            steady_cached: faster(a.steady_cached, b.steady_cached),
            ..a.clone()
        })
        .collect();

    // Figure 14: every query benefits from remote materialization.
    for r in &rows {
        assert!(
            r.benefit_percent() > 0.0,
            "{} must benefit, got {:.1}%",
            r.name,
            r.benefit_percent()
        );
        // Where the benefit comes from: a hit re-runs none of the jobs
        // of a materialized sub-query, and materializing runs the jobs
        // of the normal plan once more inside the CTAS. A sub-query the
        // cache policy bypasses runs its jobs in every mode, hence `<=`.
        assert!(
            r.steady_cached.mr_jobs <= r.normal.mr_jobs
                && r.normal.mr_jobs <= r.first_cached.mr_jobs,
            "{}: MR jobs steady {} <= normal {} <= first {}",
            r.name,
            r.steady_cached.mr_jobs,
            r.normal.mr_jobs,
            r.first_cached.mr_jobs
        );
        assert!(r.normal.mr_jobs > 0, "{} ships an MR DAG", r.name);
        assert!(
            r.steady_cached.modelled < r.normal.modelled
                && r.normal.modelled < r.first_cached.modelled,
            "{}: modelled steady {:?} < normal {:?} < first {:?}",
            r.name,
            r.steady_cached.modelled,
            r.normal.modelled,
            r.first_cached.modelled
        );
        if r.all_remote {
            assert_eq!(
                r.steady_cached.mr_jobs, 0,
                "{}: an all-remote hit is one Hive fetch task",
                r.name
            );
        }
    }
    // The paper's grouping: the all-remote queries gain more than the
    // queries joined with local HANA tables.
    let avg = |all_remote: bool| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.all_remote == all_remote)
            .map(|r| r.benefit_percent())
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(
        avg(true) > avg(false),
        "all-remote avg {:.1}% must exceed mixed avg {:.1}%",
        avg(true),
        avg(false)
    );
    assert!(avg(true) > 75.0, "paper: top group gains >75%");

    // Figure 15: the one-time overhead is bounded (the paper's worst
    // case is ~63%).
    for r in &rows {
        assert!(
            r.overhead_percent() < 150.0,
            "{} overhead {:.1}% looks pathological",
            r.name,
            r.overhead_percent()
        );
    }
}
