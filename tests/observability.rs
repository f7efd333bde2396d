//! Observability acceptance tests: `observability_snapshot()` must show
//! non-zero exec, SDA and IQ activity after a federated query under
//! chaos injection, and `profile_query()` must yield a profile tree
//! whose span wall times nest consistently. The property sweep at the
//! bottom checks span accounting and registry monotonicity across
//! scan, group-by and federated plan shapes.

use std::sync::Arc;
use std::time::Duration;

use hana_data_platform::hadoop::{Hdfs, Hive, MrCluster, MrConfig, MrFunctionRegistry};
use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::sda::{BreakerConfig, ChaosConfig, RemoteCacheConfig, RetryPolicy};
use hana_data_platform::{DataType, Row, Schema, Value};
use proptest::prelude::*;

/// Platform with one Hive remote source (`hive1`) holding an
/// `orders` table, mirroring the remote-materialization tests.
fn federated_setup(remote_rows: i64) -> (Arc<HanaPlatform>, Session, Arc<Hive>) {
    let mr = Arc::new(MrCluster::new(
        Arc::new(Hdfs::new(4)),
        MrConfig {
            worker_slots: 4,
            job_startup: Duration::from_micros(200),
            task_startup: Duration::from_micros(20),
        },
    ));
    let hive = Arc::new(Hive::new(Arc::clone(&mr)));
    hive.create_table(
        "orders",
        Schema::of(&[
            ("o_id", DataType::Int),
            ("o_status", DataType::Varchar),
            ("o_total", DataType::Double),
        ]),
    )
    .unwrap();
    let rows: Vec<Row> = (0..remote_rows)
        .map(|i| {
            Row::from_values([
                Value::Int(i),
                Value::from(if i % 2 == 0 { "OPEN" } else { "DONE" }),
                Value::Double(i as f64),
            ])
        })
        .collect();
    hive.load("orders", &rows).unwrap();

    let hana = Arc::new(HanaPlatform::new_in_memory());
    let session = hana.connect("SYSTEM", "manager").unwrap();
    hana.attach_hadoop(Arc::clone(&hive), Arc::new(MrFunctionRegistry::new(mr)));
    hana.execute_sql(
        &session,
        "CREATE REMOTE SOURCE HIVE1 ADAPTER \"hiveodbc\" CONFIGURATION 'DSN=hive1'",
    )
    .unwrap();
    hana.execute_sql(&session, "CREATE VIRTUAL TABLE orders AT hive1.d.d.orders")
        .unwrap();
    (hana, session, hive)
}

/// Generous retries with microsecond backoff so chaos-injected calls
/// still converge quickly.
fn resilient_federation_config() -> RemoteCacheConfig {
    RemoteCacheConfig::default()
        .with_retry(
            RetryPolicy::default()
                .with_max_attempts(8)
                .with_base_backoff(Duration::from_micros(100))
                .with_max_backoff(Duration::from_millis(2)),
        )
        .with_breaker(
            BreakerConfig::default()
                .with_failure_threshold(64)
                .with_cooldown(Duration::from_millis(5)),
        )
}

/// A column table big enough (>= 65_536 rows) to cross the executor's
/// parallel-scan threshold, so the morsel pool actually runs.
fn load_big_lineitem(hana: &HanaPlatform, s: &Session) {
    hana.execute_sql(
        s,
        "CREATE COLUMN TABLE lineitem (l_id INTEGER, l_status VARCHAR(4), l_total DOUBLE)",
    )
    .unwrap();
    let rows: Vec<Row> = (0..70_000)
        .map(|i| {
            Row::from_values([
                Value::Int(i),
                Value::from(if i % 3 == 0 { "A" } else { "B" }),
                Value::Double((i % 997) as f64),
            ])
        })
        .collect();
    hana.load_rows(s, "lineitem", &rows).unwrap();
}

const FEDERATED_QUERY: &str = "SELECT o_status, COUNT(*) AS n, SUM(o_total) AS total \
                               FROM orders GROUP BY o_status";
const GROUP_BY_QUERY: &str = "SELECT l_status, COUNT(*) AS n, SUM(l_total) AS total \
                              FROM lineitem GROUP BY l_status";

#[test]
fn snapshot_sees_exec_sda_and_iq_after_federated_chaos_query() {
    let (hana, s, _hive) = federated_setup(2_000);
    hana.set_remote_cache_config(resilient_federation_config());
    hana.inject_chaos(
        "hive1",
        ChaosConfig {
            failure_rate: 0.6,
            timeout_share: 0.5,
            ..ChaosConfig::default()
        },
    )
    .unwrap();

    // Exec traffic: parallel scan + aggregation over 70k local rows.
    load_big_lineitem(&hana, &s);
    hana.execute_sql(&s, GROUP_BY_QUERY).unwrap();

    // IQ traffic: extended-storage table read twice (miss then hit).
    hana.execute_sql(
        &s,
        "CREATE TABLE coldlog (id INTEGER, sev VARCHAR(8)) USING EXTENDED STORAGE",
    )
    .unwrap();
    let rows: Vec<Row> = (0..2_000)
        .map(|i| Row::from_values([Value::Int(i), Value::from("INFO")]))
        .collect();
    hana.load_rows(&s, "coldlog", &rows).unwrap();
    // Drop the buffer cache so the first scan reads pages cold; the
    // second scan then hits the warmed cache.
    hana.iq().cache().clear();
    hana.execute_sql(&s, "SELECT COUNT(*) AS n FROM coldlog")
        .unwrap();
    hana.execute_sql(&s, "SELECT COUNT(*) AS n FROM coldlog")
        .unwrap();

    // SDA traffic: several federated round trips through the fault
    // injector; retries are deterministic in (seed, call index).
    for _ in 0..6 {
        hana.execute_sql(&s, FEDERATED_QUERY).unwrap();
    }

    let snap = hana.observability_snapshot();

    // Exec: the pool scattered morsels for the big scan.
    assert!(snap.counter("hana_exec_morsels_total") > 0, "{snap:?}");
    assert!(snap.counter("hana_exec_tasks_total") > 0);
    assert!(snap.counter("hana_exec_scatters_total") > 0);
    assert!(snap.gauge("hana_exec_workers") > 0);

    // SDA: attempts recorded per source, with round-trip latencies;
    // a 60% failure rate over 6+ calls must have burned retries.
    assert!(snap.counter("hana_sda_attempts_total_hive1") >= 6);
    assert!(snap.counter_sum("hana_sda_retries_total") > 0, "{snap:?}");
    let rt = snap.histogram("hana_sda_roundtrip_ns_hive1");
    assert!(rt.count >= 6);
    assert!(rt.p50 <= rt.p95 && rt.p95 <= rt.p99);

    // IQ: pages were read from extended storage and the second scan
    // hit the buffer cache.
    assert!(snap.counter("hana_iq_pages_read_total") > 0);
    assert!(snap.counter("hana_iq_cache_hits_total") > 0);
    assert!(snap.gauge("hana_iq_cache_hit_ratio_permille") > 0);

    // Both encodings render the populated registry.
    let prom = snap.to_prometheus();
    assert!(prom.contains("hana_exec_morsels_total"));
    assert!(prom.contains("hana_sda_roundtrip_ns_hive1_count"));
    let json = snap.to_json();
    assert!(json.contains("\"hana_iq_pages_read_total\""));
}

#[test]
fn profile_query_group_by_nests_consistently() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    load_big_lineitem(&hana, &s);

    let (rs, profile) = hana.profile_query(&s, GROUP_BY_QUERY).unwrap();
    assert_eq!(rs.len(), 2);

    assert_eq!(profile.spans_started, profile.spans_finished);
    assert!(profile.nests_consistently(), "{}", profile.render());
    assert!(profile.total_wall_ns() > 0);

    // query -> plan + group_by -> column_scan[lineitem], with the scan
    // fanned out across the worker pool.
    let root = &profile.roots[0];
    assert_eq!(root.name, "query");
    let group_by = profile.find("group_by").expect("group_by span");
    assert!(group_by.rows.unwrap_or(0) >= 2);
    // The group key reaches the group-by as a dictionary column and
    // is grouped on its vids.
    assert!(
        group_by
            .attrs
            .iter()
            .any(|(k, v)| k == "vid_keys" && *v == 1),
        "the group-by should key on vids: {}",
        profile.render()
    );
    let scan = profile.find("column_scan[lineitem]").expect("scan span");
    assert_eq!(scan.rows, Some(70_000));
    assert!(
        scan.workers.unwrap_or(0) >= 1,
        "parallel scan should engage the pool: {}",
        profile.render()
    );
    assert!(profile.find("plan").is_some());

    let report = profile.render();
    assert!(report.contains("group_by"), "{report}");
    assert!(report.contains("column_scan[lineitem]"), "{report}");
}

#[test]
fn profile_query_federated_records_remote_span() {
    let (hana, s, _hive) = federated_setup(500);
    let (rs, profile) = hana.profile_query(&s, FEDERATED_QUERY).unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(profile.spans_started, profile.spans_finished);
    assert!(profile.nests_consistently(), "{}", profile.render());
    let remote = profile
        .find("remote_query[hive1]")
        .expect("remote span in profile");
    assert!(remote.rows.unwrap_or(0) > 0);
    assert!(remote.bytes.unwrap_or(0) > 0);
}

/// A lone virtual table is fetched with the columns the query names,
/// not with `SELECT *`: Q14 reads 4 of LINEITEM's 15 columns.
#[test]
fn explain_shows_the_select_list_a_remote_scan_ships() {
    let config = hana_bench::WorldConfig {
        scale: 0.002,
        job_startup: Duration::ZERO,
        task_startup: Duration::ZERO,
        odbc_row_cost_us: 0,
        ..hana_bench::WorldConfig::default()
    };
    let world = hana_bench::TpchWorld::build(&config, true).unwrap();
    let queries = hana_data_platform::tpch::queries();
    let q14 = queries.iter().find(|q| q.name == "Q14").unwrap();
    let explain = format!("EXPLAIN {}", q14.sql);
    let plan = world.hana.execute_sql(&world.session, &explain).unwrap();
    let shipped: Vec<String> = plan
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .filter(|line| line.contains("Shipped:"))
        .collect();
    assert_eq!(
        shipped.iter().map(|l| l.trim()).collect::<Vec<_>>(),
        [
            "Shipped: SELECT l.l_partkey, l.l_extendedprice, l.l_discount, l.l_shipdate \
          FROM lineitem l WHERE ((l.l_shipdate >= DATE '1995-09-01') \
          AND (l.l_shipdate < DATE '1995-10-01'))"
        ]
    );
    // The narrow fetch answers what the wide one did.
    let rs = world.hana.execute_sql(&world.session, &q14.sql).unwrap();
    assert_eq!(rs.len(), 1);
    assert!(rs.rows[0][1].as_f64().unwrap() > 0.0, "{:?}", rs.rows[0]);
}

fn attr(node: &hana_data_platform::obs::ProfileNode, name: &str) -> u64 {
    let found = node.attrs.iter().find(|(n, _)| n == name);
    found
        .unwrap_or_else(|| panic!("span {} has no attr {name}: {:?}", node.name, node.attrs))
        .1
}

/// The profile alone says what a join and its leaves cost: which input
/// the hash table went over, how many rows each side had, and how many
/// of the table's columns each leaf materialised.
#[test]
fn profile_query_shows_build_side_and_leaf_columns() {
    use hana_data_platform::query::{BUILD_LEFT, BUILD_RIGHT};
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE t (k INTEGER, v INTEGER, note VARCHAR(8))",
    )
    .unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE d (id INTEGER, name VARCHAR(8), pad INTEGER)",
    )
    .unwrap();
    let rows =
        (0..1_000).map(|i| Row::from_values([Value::Int(i), Value::Int(i % 7), Value::from("n")]));
    hana.load_rows(&s, "t", &rows.collect::<Vec<_>>()).unwrap();
    let rows = (0..7).map(|i| Row::from_values([Value::Int(i), Value::from("d"), Value::Int(0)]));
    hana.load_rows(&s, "d", &rows.collect::<Vec<_>>()).unwrap();

    // Whichever way round the join is written, the 7-row input is built.
    for (sql, side) in [
        (
            "SELECT t.k, d.name FROM t JOIN d ON t.v = d.id",
            BUILD_RIGHT,
        ),
        ("SELECT t.k, d.name FROM d JOIN t ON t.v = d.id", BUILD_LEFT),
    ] {
        let (rs, profile) = hana.profile_query(&s, sql).unwrap();
        assert_eq!(rs.len(), 1_000, "{sql}");
        let join = profile.find("hash_join").expect("hash_join span");
        assert_eq!(attr(join, "build_rows"), 7, "{}", profile.render());
        assert_eq!(attr(join, "probe_rows"), 1_000);
        assert_eq!(attr(join, "build_side"), side, "{}", profile.render());
        for leaf in ["column_scan[t]", "column_scan[d]"] {
            let scan = profile.find(leaf).expect("leaf span");
            assert_eq!(attr(scan, "columns"), 2, "{}", profile.render());
            assert_eq!(attr(scan, "table_columns"), 3);
        }
    }
    // An outer join keeps its build side: unmatched left rows fall out
    // of the probe.
    let (_, profile) = hana
        .profile_query(&s, "SELECT t.k, d.name FROM d LEFT JOIN t ON t.v = d.id")
        .unwrap();
    let join = profile.find("hash_join").expect("hash_join span");
    assert_eq!(attr(join, "build_side"), BUILD_RIGHT);
    assert_eq!(attr(join, "build_rows"), 1_000);

    // A leaf pruned to the named columns still feeds the vid-keyed
    // group-by; `SELECT *` still materialises every column.
    let (rs, profile) = hana
        .profile_query(&s, "SELECT v, COUNT(*), SUM(k) FROM t GROUP BY v")
        .unwrap();
    assert_eq!(rs.len(), 7);
    let group_by = profile.find("group_by").expect("group_by span");
    assert_eq!(attr(group_by, "vid_keys"), 1, "{}", profile.render());
    let (_, profile) = hana
        .profile_query(&s, "SELECT * FROM t WHERE k < 5")
        .unwrap();
    let scan = profile.find("column_scan[t]").expect("leaf span");
    assert_eq!(attr(scan, "columns"), 3);
}

/// An operator span reports the bytes it hands on only when traced, and
/// traced it still does.
#[test]
fn traced_operator_spans_carry_bytes() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    load_big_lineitem(&hana, &s);
    let (_, profile) = hana
        .profile_query(
            &s,
            "SELECT l_status, SUM(l_total) AS total FROM lineitem \
             WHERE l_id < 100 GROUP BY l_status",
        )
        .unwrap();
    for name in ["column_scan[lineitem]", "group_by", "finish"] {
        let span = profile.find(name).expect("operator span");
        assert!(span.bytes.unwrap_or(0) > 0, "{name}: {}", profile.render());
    }
    // 100 rows of an integer, a one-letter string and a double.
    let scan = profile.find("column_scan[lineitem]").unwrap();
    assert_eq!(scan.bytes, Some(100 * (8 + 1 + 8)), "{}", profile.render());
}

/// Every counter present in `before` must be <= its value in `after`.
fn assert_monotone(
    before: &hana_data_platform::obs::RegistrySnapshot,
    after: &hana_data_platform::obs::RegistrySnapshot,
) {
    for (name, v) in &before.counters {
        assert!(
            after.counter(name) >= *v,
            "counter {name} went backwards: {} -> {}",
            v,
            after.counter(name)
        );
    }
    for (name, h) in &before.histograms {
        let now = after.histogram(name);
        assert!(now.count >= h.count, "histogram {name} count shrank");
        assert!(now.sum >= h.sum, "histogram {name} sum shrank");
    }
}

proptest! {
    /// Across scan / group-by / federated plan shapes: every started
    /// span is finished exactly once, the profile nests, and global
    /// registry snapshots only ever move forward.
    #[test]
    fn profiles_close_spans_and_snapshots_stay_monotone(
        shape in 0u8..3,
        threshold in 0i64..500,
    ) {
        let (hana, s, _hive) = federated_setup(200);
        hana.execute_sql(
            &s,
            "CREATE COLUMN TABLE small (id INTEGER, grp VARCHAR(4), v DOUBLE)",
        )
        .unwrap();
        let rows: Vec<Row> = (0..600)
            .map(|i| {
                Row::from_values([
                    Value::Int(i),
                    Value::from(if i % 2 == 0 { "X" } else { "Y" }),
                    Value::Double(i as f64),
                ])
            })
            .collect();
        hana.load_rows(&s, "small", &rows).unwrap();

        let sql = match shape {
            0 => format!("SELECT id, v FROM small WHERE id >= {threshold}"),
            1 => format!(
                "SELECT grp, COUNT(*) AS n, SUM(v) AS total \
                 FROM small WHERE id >= {threshold} GROUP BY grp"
            ),
            _ => format!(
                "SELECT o_status, COUNT(*) AS n FROM orders \
                 WHERE o_id >= {threshold} GROUP BY o_status"
            ),
        };

        let before = hana.observability_snapshot();
        let (_rs, profile) = hana.profile_query(&s, &sql).unwrap();
        let after = hana.observability_snapshot();

        prop_assert!(profile.spans_started > 0);
        prop_assert_eq!(profile.spans_started, profile.spans_finished);
        prop_assert!(profile.nests_consistently());
        prop_assert_eq!(profile.roots.len(), 1);
        assert_monotone(&before, &after);
    }
}
