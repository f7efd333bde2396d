//! A Hive statement leaves nothing behind in HDFS: each statement's jobs
//! write under one scratch directory, deleted when the statement ends.

use std::time::Duration;

use hana_bench::{TpchWorld, WorldConfig};

#[test]
fn the_paper_queries_leave_only_the_tables_in_hdfs() {
    let config = WorldConfig {
        scale: 0.002,
        seed: 7,
        job_startup: Duration::ZERO,
        task_startup: Duration::ZERO,
        odbc_row_cost_us: 0,
        ..WorldConfig::default()
    };
    let mut ran = 0;
    for part_local in [false, true] {
        let world = TpchWorld::build(&config, part_local).unwrap();
        let queries = hana_data_platform::tpch::queries();
        for q in queries.iter().filter(|q| world.fits(q.name)) {
            assert!(world.run(q, false).unwrap().mr_jobs > 0, "{}", q.name);
            ran += 1;
        }
        let hdfs = world.hive.cluster().hdfs();
        assert_eq!(hdfs.list("/tmp/hive"), Vec::<String>::new());
        let tables = hdfs
            .list("/warehouse")
            .into_iter()
            .map(|f| hdfs.len(&f).unwrap());
        assert_eq!(hdfs.used_bytes(), tables.sum::<usize>());
    }
    assert_eq!(ran, 12, "all twelve paper queries ran");
}
