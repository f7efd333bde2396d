//! End-to-end tests of the Hive layer: HiveQL over MapReduce.

use std::sync::Arc;
use std::time::Duration;

use hana_hadoop::{Hdfs, Hive, MrCluster, MrConfig, MrFunction, MrFunctionRegistry, KV};
use hana_sql::{parse_statement, Statement};
use hana_types::{DataType, Row, Schema, Value};

fn fast_cluster() -> Arc<MrCluster> {
    let cfg = MrConfig {
        worker_slots: 4,
        job_startup: Duration::from_micros(200),
        task_startup: Duration::from_micros(20),
    };
    Arc::new(MrCluster::new(Arc::new(Hdfs::new(4)), cfg))
}

fn setup_hive() -> Hive {
    let hive = Hive::new(fast_cluster());
    hive.create_table(
        "customer",
        Schema::of(&[
            ("c_custkey", DataType::Int),
            ("c_name", DataType::Varchar),
            ("c_mktsegment", DataType::Varchar),
        ]),
    )
    .unwrap();
    hive.create_table(
        "orders",
        Schema::of(&[
            ("o_orderkey", DataType::Int),
            ("o_custkey", DataType::Int),
            ("o_orderstatus", DataType::Varchar),
            ("o_totalprice", DataType::Double),
        ]),
    )
    .unwrap();
    let customers: Vec<Row> = (0..20)
        .map(|i| {
            Row::from_values([
                Value::Int(i),
                Value::from(format!("Customer#{i}")),
                Value::from(if i % 4 == 0 {
                    "HOUSEHOLD"
                } else {
                    "AUTOMOBILE"
                }),
            ])
        })
        .collect();
    hive.load("customer", &customers).unwrap();
    let orders: Vec<Row> = (0..100)
        .map(|i| {
            Row::from_values([
                Value::Int(1000 + i),
                Value::Int(i % 20),
                Value::from(if i % 2 == 0 { "O" } else { "F" }),
                Value::Double(100.0 + i as f64),
            ])
        })
        .collect();
    hive.load("orders", &orders).unwrap();
    hive
}

#[test]
fn metastore_tracks_stats() {
    let hive = setup_hive();
    let stats = hive.table_stats("orders").unwrap();
    assert_eq!(stats.row_count, 100);
    assert_eq!(stats.file_count, 1);
    assert!(hive.has_table("CUSTOMER"), "case-insensitive");
    assert_eq!(hive.list_tables(), vec!["customer", "orders"]);
    assert!(hive.table_stats("nope").is_err());
}

#[test]
fn fetch_task_runs_no_mr_job() {
    let hive = setup_hive();
    let before = hive.cluster().counters().0;
    let rs = hive.execute("SELECT c_name FROM customer").unwrap();
    assert_eq!(rs.len(), 20);
    assert_eq!(
        hive.cluster().counters().0,
        before,
        "bare projection must use the fetch task, not MR"
    );
}

#[test]
fn filtered_scan_is_one_map_only_job() {
    let hive = setup_hive();
    let before = hive.cluster().counters();
    let rs = hive
        .execute("SELECT c_custkey FROM customer WHERE c_mktsegment = 'HOUSEHOLD'")
        .unwrap();
    assert_eq!(rs.len(), 5);
    let after = hive.cluster().counters();
    assert_eq!(after.0 - before.0, 1, "exactly one MR job");
    assert_eq!(after.2 - before.2, 0, "map-only");
}

#[test]
fn paper_join_query() {
    // The example query of §4.4.
    let hive = setup_hive();
    let rs = hive
        .execute(
            "SELECT c_custkey, c_name, o_orderkey, o_orderstatus \
             FROM customer JOIN orders ON c_custkey = o_custkey \
             WHERE c_mktsegment = 'HOUSEHOLD'",
        )
        .unwrap();
    // 5 HOUSEHOLD customers x 5 orders each.
    assert_eq!(rs.len(), 25);
    let custkeys: std::collections::HashSet<i64> =
        rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(custkeys, [0i64, 4, 8, 12, 16].into_iter().collect());
}

#[test]
fn group_by_aggregation_with_having() {
    let hive = setup_hive();
    let rs = hive
        .execute(
            "SELECT o_orderstatus, COUNT(*) AS cnt, SUM(o_totalprice) AS total \
             FROM orders GROUP BY o_orderstatus HAVING COUNT(*) > 10 \
             ORDER BY o_orderstatus",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[0][0], Value::from("F"));
    assert_eq!(rs.rows[0][1], Value::Int(50));
    // F orders are the odd i: totals 101, 103, ..., 199.
    assert_eq!(
        rs.rows[0][2],
        Value::Double(
            (0..100)
                .filter(|i| i % 2 == 1)
                .map(|i| 100.0 + i as f64)
                .sum()
        )
    );
}

#[test]
fn global_aggregate_without_group_by() {
    let hive = setup_hive();
    let rs = hive
        .execute("SELECT COUNT(*), AVG(o_totalprice) FROM orders WHERE o_totalprice >= 150")
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(50));
    let avg = rs.rows[0][1].as_f64().unwrap();
    assert!((avg - 174.5).abs() < 1e-9, "avg = {avg}");
}

#[test]
fn join_plus_aggregation_dag() {
    let hive = setup_hive();
    let before = hive.cluster().counters().0;
    let rs = hive
        .execute(
            "SELECT c_mktsegment, COUNT(*) AS orders_cnt \
             FROM customer JOIN orders ON c_custkey = o_custkey \
             GROUP BY c_mktsegment ORDER BY c_mktsegment",
        )
        .unwrap();
    let jobs = hive.cluster().counters().0 - before;
    assert!(jobs >= 2, "join + group-by is a multi-job DAG, got {jobs}");
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[0][0], Value::from("AUTOMOBILE"));
    assert_eq!(rs.rows[0][1], Value::Int(75));
    assert_eq!(rs.rows[1][1], Value::Int(25));
}

#[test]
fn distinct_and_limit() {
    let hive = setup_hive();
    let rs = hive
        .execute("SELECT DISTINCT o_orderstatus FROM orders WHERE o_totalprice > 0")
        .unwrap();
    assert_eq!(rs.len(), 2);
    let rs = hive
        .execute("SELECT o_orderkey FROM orders LIMIT 7")
        .unwrap();
    assert_eq!(rs.len(), 7);
}

#[test]
fn ctas_is_two_phase_and_registers_stats() {
    let hive = setup_hive();
    let Statement::Query(q) =
        parse_statement("SELECT c_custkey, c_name FROM customer WHERE c_mktsegment = 'HOUSEHOLD'")
            .unwrap()
    else {
        panic!()
    };
    let stats = hive
        .create_table_as_select("household_customers", &q)
        .unwrap();
    assert_eq!(stats.rows, 5);
    assert!(stats.select_jobs >= 1);
    let ts = hive.table_stats("household_customers").unwrap();
    assert_eq!(ts.row_count, 5);
    // The materialized table reads back via the fetch task.
    let before = hive.cluster().counters().0;
    let rs = hive.execute("SELECT * FROM household_customers").unwrap();
    assert_eq!(rs.len(), 5);
    assert_eq!(hive.cluster().counters().0, before, "fetch task, no MR");
}

#[test]
fn modification_tick_advances_on_load() {
    let hive = setup_hive();
    let t1 = hive.table_stats("orders").unwrap().last_modified;
    hive.load(
        "orders",
        &[Row::from_values([
            Value::Int(9999),
            Value::Int(1),
            Value::from("O"),
            Value::Double(1.0),
        ])],
    )
    .unwrap();
    let t2 = hive.table_stats("orders").unwrap().last_modified;
    assert!(t2 > t1);
}

#[test]
fn virtual_function_registry_runs_custom_jobs() {
    let cluster = fast_cluster();
    let registry = MrFunctionRegistry::new(Arc::clone(&cluster));
    // Raw sensor lines in HDFS, as the ESP adapter would write them.
    cluster
        .hdfs()
        .append_lines(
            "/plant100/sensors/day1",
            &["P-100,95.2", "P-101,88.0", "P-100,97.9", "P-102,91.5"],
        )
        .unwrap();
    // The "custom jar": parse lines, keep max pressure per equipment.
    let mapper = |_k: &str, line: &str, out: &mut Vec<KV>| {
        if let Some((id, p)) = line.split_once(',') {
            out.push((id.to_string(), p.to_string()));
        }
    };
    struct MaxReducer;
    impl hana_hadoop::Reducer for MaxReducer {
        fn reduce(
            &self,
            key: &str,
            values: &[String],
            out: &mut Vec<String>,
        ) -> hana_types::Result<()> {
            let max = values
                .iter()
                .filter_map(|v| v.parse::<f64>().ok())
                .fold(f64::MIN, f64::max);
            out.push(hana_hadoop::output_line(&[
                key.to_string(),
                max.to_string(),
            ]));
            Ok(())
        }
    }
    registry.register(
        "com.customer.hadoop.SensorMRDriver",
        MrFunction {
            inputs: vec!["/plant100/sensors".into()],
            mapper: Arc::new(mapper),
            reducer: Some(Arc::new(MaxReducer)),
            num_reducers: 2,
            output_schema: Schema::of(&[
                ("equip_id", DataType::Varchar),
                ("pressure", DataType::Double),
            ]),
        },
    );
    assert!(registry.has("com.customer.hadoop.SensorMRDriver"));
    let rs = registry
        .invoke("com.customer.hadoop.SensorMRDriver")
        .unwrap();
    assert_eq!(rs.len(), 3);
    let sorted = rs.sorted_by(&[0]);
    assert_eq!(sorted.rows[0][0], Value::from("P-100"));
    assert_eq!(sorted.rows[0][1], Value::Double(97.9));
    assert!(registry.invoke("no.such.Driver").is_err());
}

// ---- the text format reads back what `load` accepted, or the job fails ----

/// `u(k INT, t TIMESTAMP, s VARCHAR)` with strings the old reader took
/// for NULL.
fn hive_with_u() -> Hive {
    let hive = Hive::new(fast_cluster());
    hive.create_table(
        "u",
        Schema::of(&[
            ("k", DataType::Int),
            ("t", DataType::Timestamp),
            ("s", DataType::Varchar),
        ]),
    )
    .unwrap();
    let row = |k: i64, s: Value| Row::from_values([Value::Int(k), Value::Timestamp(k * 5), s]);
    hive.load(
        "u",
        &[
            row(1, Value::from("null")),
            row(2, Value::from("")),
            row(3, Value::Null),
        ],
    )
    .unwrap();
    hive
}

#[test]
fn every_data_type_round_trips_through_the_text_format() {
    let hive = hive_with_u();
    let rs = hive.execute("SELECT * FROM u").unwrap().sorted_by(&[0]);
    assert_eq!(rs.rows[0][1], Value::Timestamp(5));
    assert_eq!(rs.rows[0][2], Value::from("null"), "'null' is a string");
    assert_eq!(rs.rows[1][2], Value::from(""), "'' is a string");
    assert_eq!(rs.rows[2][2], Value::Null, "only \\N is NULL");
    // The same through MR jobs: no row vanishes on the way.
    let rs = hive.execute("SELECT k FROM u WHERE k >= 1").unwrap();
    assert_eq!(rs.len(), 3);
    let rs = hive.execute("SELECT COUNT(*), COUNT(s) FROM u").unwrap();
    assert_eq!(rs.rows[0].values(), &[Value::Int(3), Value::Int(2)]);
    let rs = hive
        .execute("SELECT k FROM u WHERE t > 5 AND s = ''")
        .unwrap();
    assert_eq!(rs.rows, vec![Row::from_values([Value::Int(2)])]);
}

#[test]
fn what_the_text_format_cannot_hold_is_rejected_at_load() {
    let hive = hive_with_u();
    for s in ["a\u{1}b", "two\nlines", "\\N"] {
        let row = Row::from_values([Value::Int(9), Value::Timestamp(9), Value::from(s)]);
        assert!(hive.load("u", &[row]).is_err(), "{s:?} must not load");
    }
    assert_eq!(hive.table_stats("u").unwrap().row_count, 3);
}

#[test]
fn a_line_that_does_not_decode_fails_the_job() {
    let hive = hive_with_u();
    // A data file written behind Hive's back: `k` is not a number.
    hive.cluster()
        .hdfs()
        .append_lines("/warehouse/u/data-99999", &["x\u{1}5\u{1}s"])
        .unwrap();
    let err = hive.execute("SELECT s FROM u WHERE k >= 1").unwrap_err();
    assert!(err.to_string().contains("cannot parse 'x'"), "{err}");
    assert!(hive
        .execute("SELECT COUNT(k) FROM u WHERE s = 's'")
        .is_err());
    // Lazy decoding: a statement that never reads `k` never trips on it.
    let rs = hive.execute("SELECT s FROM u WHERE s = 's'").unwrap();
    assert_eq!(rs.len(), 1);
    // A line of the wrong arity is corrupt for every statement.
    hive.cluster()
        .hdfs()
        .append_lines("/warehouse/u/data-99999", &["1\u{1}5"])
        .unwrap();
    let err = hive.execute("SELECT s FROM u WHERE s = 's'").unwrap_err();
    assert!(err.to_string().contains("2 fields"), "{err}");
}

#[test]
fn a_predicate_that_cannot_be_evaluated_fails_the_job() {
    let hive = hive_with_u();
    // NOT of a string: an evaluation error, which used to read as "false".
    assert!(hive.execute("SELECT k FROM u WHERE NOT s").is_err());
    assert!(hive
        .execute("SELECT UPPER(k), COUNT(*) FROM u GROUP BY UPPER(k)")
        .is_err());
}

#[test]
fn an_unknown_column_is_a_compile_error_before_any_job() {
    let hive = setup_hive();
    let before = hive.cluster().counters().0;
    for sql in [
        "SELECT c_custkey FROM customer WHERE no_such > 1",
        "SELECT c_name, COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey \
         WHERE c_custkey + o_nope > 1 GROUP BY c_name",
        "SELECT COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey GROUP BY nope",
        "SELECT SUM(nope) FROM orders WHERE o_totalprice > 0",
        // The driver's epilogue is compiled with the jobs.
        "SELECT nope FROM customer WHERE c_custkey > 1",
        "SELECT c_name FROM customer JOIN orders ON c_custkey = o_custkey ORDER BY nope",
        "SELECT c_name, COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey \
         GROUP BY c_name ORDER BY nope",
    ] {
        let err = hive.execute(sql).unwrap_err();
        assert!(err.to_string().contains("unknown column"), "{sql}: {err}");
    }
    assert_eq!(hive.cluster().counters().0, before, "no job was launched");
}

// ---- aggregates keep their types from the map task to the driver ----

#[test]
fn aggregates_do_not_guess_types_back_from_text() {
    let hive = Hive::new(fast_cluster());
    hive.create_table(
        "t",
        Schema::of(&[
            ("k", DataType::Varchar),
            ("s", DataType::Varchar),
            ("d", DataType::Date),
        ]),
    )
    .unwrap();
    let date = |s: &str| Value::Date(hana_types::Date::parse(s).unwrap());
    // A group key with the separator of the old composite shuffle key.
    let odd_key = "a\u{2}b";
    hive.load(
        "t",
        &[
            Row::from_values([Value::from("x"), Value::from("007"), date("1995-06-17")]),
            Row::from_values([Value::from("x"), Value::from("7"), date("1994-01-02")]),
            Row::from_values([Value::from("y"), Value::from("1e3"), date("1996-03-04")]),
            Row::from_values([Value::from(odd_key), Value::from("z"), Value::Null]),
        ],
    )
    .unwrap();
    let rs = hive
        .execute(
            "SELECT k, s, MIN(s), MAX(s), MIN(d), MAX(d), COUNT(d) FROM t \
             WHERE s <> 'none' GROUP BY k, s",
        )
        .unwrap()
        .sorted_by(&[0, 1]);
    assert_eq!(rs.len(), 4);
    let rs = hive
        .execute("SELECT k, MIN(s), MAX(s), MIN(d), MAX(d), COUNT(d) FROM t GROUP BY k")
        .unwrap()
        .sorted_by(&[0]);
    let expect = [
        (odd_key, "z", "z", Value::Null, Value::Null, 0),
        ("x", "007", "7", date("1994-01-02"), date("1995-06-17"), 2),
        ("y", "1e3", "1e3", date("1996-03-04"), date("1996-03-04"), 1),
    ];
    assert_eq!(rs.len(), expect.len());
    assert_eq!(rs.schema.column(1).data_type, DataType::Varchar);
    assert_eq!(rs.schema.column(3).data_type, DataType::Date);
    for (row, (k, min_s, max_s, min_d, max_d, n)) in rs.rows.iter().zip(expect) {
        let want = [
            Value::from(k),
            Value::from(min_s),
            Value::from(max_s),
            min_d,
            max_d,
            Value::Int(n),
        ];
        assert_eq!(row.values(), &want);
    }
    // Typed as it is valued: the result materializes (remote cache, CTAS).
    let Statement::Query(q) = parse_statement("SELECT k, MIN(s) AS lo FROM t GROUP BY k").unwrap()
    else {
        panic!()
    };
    assert_eq!(hive.create_table_as_select("lows", &q).unwrap().rows, 3);
    let lows = hive.execute("SELECT lo FROM lows").unwrap().sorted_by(&[0]);
    assert_eq!(lows.rows[0][0], Value::from("007"));
}

#[test]
fn partial_states_merge_across_map_tasks() {
    // 64-byte blocks: a few rows per split, so every group is merged
    // from many partial states, sums of integers stay integers and AVG
    // is a quotient of merged sums, not an average of averages.
    let cfg = MrConfig {
        worker_slots: 3,
        job_startup: Duration::ZERO,
        task_startup: Duration::ZERO,
    };
    let cluster = Arc::new(MrCluster::new(Arc::new(Hdfs::with_config(3, 64, 1)), cfg));
    let hive = Hive::new(cluster);
    hive.create_table(
        "m",
        Schema::of(&[
            ("g", DataType::Int),
            ("v", DataType::Int),
            ("x", DataType::Double),
        ]),
    )
    .unwrap();
    let rows: Vec<Row> = (0..500i64)
        .map(|i| {
            let x = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Double(i as f64 / 4.0)
            };
            Row::from_values([Value::Int(i % 3), Value::Int(i), x])
        })
        .collect();
    hive.load("m", &rows).unwrap();
    let before = hive.cluster().counters();
    let rs = hive
        .execute(
            "SELECT g, COUNT(*), COUNT(x), SUM(v), AVG(v), MIN(x), MAX(v + 1) \
             FROM m WHERE v >= 0 GROUP BY g",
        )
        .unwrap()
        .sorted_by(&[0]);
    let after = hive.cluster().counters();
    assert_eq!(
        after.0 - before.0,
        1,
        "one group-by job, scanning in its map tasks"
    );
    assert!(after.1 - before.1 > 50, "many splits: {:?}", after);
    for g in 0..3i64 {
        let vs: Vec<i64> = (0..500).filter(|i| i % 3 == g).collect();
        let xs: Vec<f64> = vs
            .iter()
            .filter(|i| *i % 7 != 0)
            .map(|i| *i as f64 / 4.0)
            .collect();
        let sum: i64 = vs.iter().sum();
        let want = [
            Value::Int(g),
            Value::Int(vs.len() as i64),
            Value::Int(xs.len() as i64),
            Value::Int(sum),
            Value::Double(sum as f64 / vs.len() as f64),
            Value::Double(xs.iter().copied().fold(f64::MAX, f64::min)),
            Value::Int(vs.iter().max().unwrap() + 1),
        ];
        assert_eq!(rs.rows[g as usize].values(), &want, "group {g}");
    }
    // A global aggregate whose predicate keeps nothing is one row of
    // empty aggregates, and a grouped one no row.
    let rs = hive
        .execute("SELECT COUNT(*), SUM(v), MIN(x) FROM m WHERE v < 0")
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![Row::from_values([Value::Int(0), Value::Null, Value::Null])]
    );
    let rs = hive
        .execute("SELECT g, COUNT(*) FROM m WHERE v < 0 GROUP BY g")
        .unwrap();
    assert!(rs.is_empty());
}

// ---- column pruning changes what a job carries, never what it answers ----

/// `a(k, v, x)`, `b(k, w, x)`, `c(w, y)`: `k` and `x` exist in two
/// bindings, `w` in two others.
fn hive_with_overlapping_names() -> Hive {
    let hive = Hive::new(fast_cluster());
    let int3 = |a: &str, b: &str, c: &str| {
        Schema::of(&[(a, DataType::Int), (b, DataType::Int), (c, DataType::Int)])
    };
    hive.create_table("a", int3("k", "v", "x")).unwrap();
    hive.create_table("b", int3("k", "w", "x")).unwrap();
    hive.create_table(
        "c",
        Schema::of(&[("w", DataType::Int), ("y", DataType::Varchar)]),
    )
    .unwrap();
    let ints = |vals: [i64; 3]| Row::from_values(vals.map(Value::Int));
    let a: Vec<Row> = (0..40).map(|i| ints([i % 10, i, i % 4])).collect();
    let b: Vec<Row> = (0..30).map(|i| ints([i % 10, i % 6, i % 5])).collect();
    let c: Vec<Row> = (0..6)
        .map(|i| Row::from_values([Value::Int(i), Value::from(format!("y{}", i % 2))]))
        .collect();
    hive.load("a", &a).unwrap();
    hive.load("b", &b).unwrap();
    hive.load("c", &c).unwrap();
    hive
}

fn sorted_rows(rs: &hana_types::ResultSet) -> Vec<Row> {
    let mut rows = rs.rows.clone();
    rows.sort();
    rows
}

#[test]
fn pruned_plan_answers_like_the_plan_with_every_column_kept() {
    let hive = hive_with_overlapping_names();
    const FROM2: &str = "FROM a JOIN b ON a.k = b.k";
    const FROM3: &str = "FROM a JOIN b ON a.k = b.k JOIN c ON b.w = c.w";
    // (select list, FROM, rest): no select list keeps every column, so
    // `SELECT *` projected by the test is the unpruned plan.
    let plain = [
        ("a.v, b.w", FROM2, "WHERE a.x > 1"),
        ("v, w", FROM2, "WHERE a.x > b.x"),
        ("v, b.x", FROM2, "WHERE v > 3 AND b.x < 4"),
        ("a.k, y, v", FROM3, "WHERE y = 'y1' AND a.x + b.x > 2"),
        ("c.w, a.x", FROM3, ""),
        // Unqualified and in two bindings: ambiguous both ways.
        ("v, x", FROM2, ""),
        ("v", FROM2, "WHERE x > 1"),
        ("v, w", FROM3, ""),
        // ON resolves each side within its own input: `k` is `a.k`.
        ("a.v", "FROM a JOIN b ON k = b.k", ""),
    ];
    let mut answered = 0;
    for (select, from, rest) in plain {
        let pruned = hive.execute(&format!("SELECT {select} {from} {rest}"));
        let kept = hive.execute(&format!("SELECT * {from} {rest}"));
        let (pruned, kept) = match (pruned, kept) {
            (Ok(p), Ok(k)) => (p, k),
            (Err(_), Err(_)) => continue,
            // `SELECT *` names no column, so only the pruned statement
            // can trip on an ambiguous select item.
            (Err(e), Ok(_)) => {
                assert!(e.to_string().contains("ambiguous"), "{select}: {e}");
                continue;
            }
            (Ok(_), Err(e)) => panic!("{select} {rest}: only the unpruned plan fails: {e}"),
        };
        // Project the unpruned result by the pruned statement's names.
        let cols: Vec<usize> = select
            .split(", ")
            .map(|name| {
                let bare = name.rsplit('.').next().unwrap();
                let hits: Vec<usize> = (0..kept.schema.len())
                    .filter(|&i| {
                        let col = &kept.schema.column(i).name;
                        col == name || (!name.contains('.') && col.ends_with(&format!(".{bare}")))
                    })
                    .collect();
                assert_eq!(hits.len(), 1, "{name} in {}", kept.schema);
                hits[0]
            })
            .collect();
        let mut projected: Vec<Row> = kept.rows.iter().map(|r| r.project(&cols)).collect();
        projected.sort();
        assert!(!projected.is_empty(), "{select} {rest}: a vacuous case");
        assert_eq!(sorted_rows(&pruned), projected, "{select} {from} {rest}");
        answered += 1;
    }
    assert_eq!(
        answered, 6,
        "the three ambiguous statements fail, the rest answer"
    );

    // Aggregated statements: the unpruned variant counts every column
    // of every binding, which keeps them all in every stage.
    let every_column = "COUNT(a.k), COUNT(a.v), COUNT(a.x), COUNT(b.k), COUNT(b.w), COUNT(b.x)";
    for (select, rest) in [
        ("a.k, SUM(v), MAX(b.x)", "WHERE a.x > 0 GROUP BY a.k"),
        (
            "w, COUNT(*), MIN(a.x + b.x)",
            "GROUP BY w HAVING COUNT(*) > 2",
        ),
        ("SUM(v * w)", "WHERE a.x < b.x"),
    ] {
        let width = select.split(", ").count();
        let pruned = hive
            .execute(&format!("SELECT {select} {FROM2} {rest}"))
            .unwrap();
        let kept = hive
            .execute(&format!("SELECT {select}, {every_column} {FROM2} {rest}"))
            .unwrap();
        let cols: Vec<usize> = (0..width).collect();
        let mut projected: Vec<Row> = kept.rows.iter().map(|r| r.project(&cols)).collect();
        projected.sort();
        assert!(!projected.is_empty(), "{select} {rest}: a vacuous case");
        assert_eq!(sorted_rows(&pruned), projected, "{select} {rest}");
    }
}

// ---- the DAG is Hive's own: scans run inside the jobs that read them ----

/// `(jobs, reduce tasks)` a statement launched, and its answer.
fn launched(hive: &Hive, sql: &str) -> ((u64, u64), hana_types::Result<hana_types::ResultSet>) {
    let before = hive.cluster().counters();
    let rs = hive.execute(sql);
    let after = hive.cluster().counters();
    ((after.0 - before.0, after.2 - before.2), rs)
}

#[test]
fn scans_and_spanning_conjuncts_run_inside_the_join_and_group_by_jobs() {
    let hive = setup_hive();
    let ((jobs, reducers), rs) = launched(
        &hive,
        "SELECT c_mktsegment, COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey \
         WHERE o_totalprice > 120 GROUP BY c_mktsegment",
    );
    assert_eq!(rs.unwrap().len(), 2);
    assert_eq!(jobs, 2, "a join and a group-by, no scan job in front");
    assert_eq!(reducers, 3 + 3, "both jobs reduce: none is map-only");

    // A conjunct over both sides is evaluated in the join's reducer.
    let ((jobs, _), rs) = launched(
        &hive,
        "SELECT c_custkey, o_orderkey FROM customer JOIN orders ON c_custkey = o_custkey \
         WHERE c_custkey * 100 + 1000 < o_orderkey",
    );
    assert_eq!(jobs, 1, "no job for the spanning conjunct");
    // customer: c_custkey = i for i < 20; orders: (1000 + j, j % 20).
    let mut want: Vec<Row> = (0..100i64)
        .map(|j| (j % 20, 1000 + j))
        .filter(|(c, o)| c * 100 + 1000 < *o)
        .map(|(c, o)| Row::from_values([Value::Int(c), Value::Int(o)]))
        .collect();
    want.sort();
    assert!(!want.is_empty(), "a vacuous case");
    assert_eq!(sorted_rows(&rs.unwrap()), want);

    // And one that cannot be evaluated fails the statement.
    let (_, rs) = launched(
        &hive,
        "SELECT c_custkey FROM customer JOIN orders ON c_custkey = o_custkey \
         WHERE NOT (c_custkey + o_orderkey)",
    );
    assert!(rs.is_err(), "{rs:?}");
}

#[test]
fn a_self_join_scans_each_side_with_its_own_predicate() {
    // Both sides read a's files: a task's side is the job input it was
    // scheduled for, not the file it reads.
    let hive = hive_with_overlapping_names();
    let rs = hive
        .execute("SELECT p.v, q.v FROM a p JOIN a q ON p.k = q.k WHERE p.x = 1 AND q.v > 25")
        .unwrap();
    // a(k, v, x) = (i % 10, i, i % 4) for i < 40.
    let a: Vec<[i64; 3]> = (0..40).map(|i| [i % 10, i, i % 4]).collect();
    let p = a.iter().filter(|p| p[2] == 1);
    let pairs = p.flat_map(|p| {
        a.iter()
            .filter(move |q| q[0] == p[0] && q[1] > 25)
            .map(move |q| (p, q))
    });
    let mut want: Vec<Row> = pairs
        .map(|(p, q)| Row::from_values([Value::Int(p[1]), Value::Int(q[1])]))
        .collect();
    want.sort();
    assert!(!want.is_empty(), "a vacuous case");
    assert_eq!(sorted_rows(&rs), want);
}

#[test]
fn join_keys_meet_as_values_not_as_their_text() {
    let hive = Hive::new(fast_cluster());
    let one = |name: &str, col: &str, ty: DataType, values: &[Value]| {
        hive.create_table(name, Schema::of(&[(col, ty)])).unwrap();
        let rows: Vec<Row> = values
            .iter()
            .map(|v| Row::from_values([v.clone()]))
            .collect();
        hive.load(name, &rows).unwrap();
        rows
    };
    let ints = one("ints", "k", DataType::Int, &[Value::Int(1), Value::Int(0)]);
    let dbls = one(
        "dbls",
        "d",
        DataType::Double,
        &[Value::Double(1.0), Value::Double(-0.0)],
    );
    let zero = one("zero", "z", DataType::Double, &[Value::Double(0.0)]);
    // The local hash join matches keys by `Value` equality: INT 1 is
    // DOUBLE 1.0, and -0.0 is 0.0.
    let local = |l: &[Row], r: &[Row]| {
        let pairs = l
            .iter()
            .flat_map(|a| r.iter().filter(move |b| a[0] == b[0]).map(move |b| (a, b)));
        let mut rows: Vec<Row> = pairs
            .map(|(a, b)| Row::from_values([a[0].clone(), b[0].clone()]))
            .collect();
        rows.sort();
        rows
    };
    for (sql, want) in [
        (
            "SELECT k, d FROM ints JOIN dbls ON k = d",
            local(&ints, &dbls),
        ),
        (
            "SELECT d, z FROM dbls JOIN zero ON d = z",
            local(&dbls, &zero),
        ),
    ] {
        assert!(!want.is_empty(), "{sql}: a vacuous case");
        assert_eq!(sorted_rows(&hive.execute(sql).unwrap()), want, "{sql}");
    }
    assert_eq!(local(&ints, &dbls).len(), 2);
    // A scan's predicate compares the same way.
    let rs = hive.execute("SELECT d FROM dbls WHERE d = 0").unwrap();
    assert_eq!(rs.len(), 1);
}

#[test]
fn a_short_circuit_answers_like_the_local_engine_in_every_stage() {
    let hive = Hive::new(fast_cluster());
    let schema = Schema::of(&[("k", DataType::Int), ("x", DataType::Double)]);
    hive.create_table("v", schema.clone()).unwrap();
    let xs = [
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(0.25),
        Value::Double(1.0),
        Value::Double(-2.0),
        Value::Null,
        Value::Double(0.4),
    ];
    let rows: Vec<Row> = (0i64..)
        .zip(xs)
        .map(|(k, x)| Row::from_values([Value::Int(k), x]))
        .collect();
    hive.load("v", &rows).unwrap();
    // The local engine answers as `hana_sql::evaluate` does, row by row
    // (`batch_equivalence` holds it to that).
    let local = |pred: &str| -> hana_types::Result<Vec<Row>> {
        let Statement::Query(q) =
            parse_statement(&format!("SELECT * FROM v WHERE {pred}")).unwrap()
        else {
            panic!()
        };
        let pred = q.filter.unwrap().resolve(&schema, &[]).unwrap();
        let mut kept = Vec::new();
        for r in &rows {
            if hana_sql::evaluate_predicate(&pred, r)? {
                kept.push(r.clone());
            }
        }
        Ok(kept)
    };
    // Only the short circuit keeps `1 / x` from dividing by zero.
    for (pred, fails) in [("x = 0 OR 1 / x > 2", false), ("1 / x > 2", true)] {
        let want = local(pred);
        assert_eq!(want.is_err(), fails, "{pred}: {want:?}");
        let hit = |r: &Row| match &want {
            Ok(kept) => kept.contains(r),
            Err(_) => false,
        };
        let keys = |f: &dyn Fn(&Row) -> bool| -> Vec<Row> {
            let kept = rows.iter().filter(|r| f(r));
            kept.map(|r| Row::from_values([r[0].clone()])).collect()
        };
        let case = format!("CASE WHEN {pred} THEN 'hit' ELSE 'miss' END");
        let statements = [
            // Pushed into the scan of `v`.
            (format!("SELECT k FROM v WHERE {pred}"), keys(&hit)),
            // Spanning both sides: the join's reducer runs it.
            (
                format!(
                    "SELECT a.k FROM v a JOIN v b ON a.k = b.k WHERE {}",
                    pred.replace("x = 0", "a.x = 0").replace("/ x", "/ b.x")
                ),
                keys(&hit),
            ),
            // Inside a group key: the map task's group-by runs it.
            (
                format!("SELECT {case}, COUNT(*) FROM v GROUP BY {case}"),
                ["hit", "miss"]
                    .into_iter()
                    .map(|g| {
                        let n = rows.iter().filter(|r| hit(r) == (g == "hit")).count();
                        Row::from_values([Value::from(g), Value::Int(n as i64)])
                    })
                    .filter(|r| r[1] != Value::Int(0))
                    .collect(),
            ),
        ];
        for (sql, want_rows) in statements {
            match (hive.execute(&sql), &want) {
                (Ok(rs), Ok(_)) => {
                    assert!(!want_rows.is_empty(), "{sql}: a vacuous case");
                    assert_eq!(sorted_rows(&rs), want_rows, "{sql}");
                }
                (Err(got), Err(want)) => assert_eq!(got.kind(), want.kind(), "{sql}: {got}"),
                (got, want) => panic!("{sql}: hive {got:?}, local {want:?}"),
            }
        }
    }
}

// ---- VARCHAR fields decode into split-local dictionaries ----

#[test]
fn split_local_dictionaries_answer_like_the_local_engine() {
    // 64-byte blocks: a handful of lines per split, so every split
    // meets the values of `s` in another order and numbers its
    // dictionary differently; groups and join keys must meet by value.
    let cfg = MrConfig {
        worker_slots: 3,
        job_startup: Duration::ZERO,
        task_startup: Duration::ZERO,
    };
    let cluster = Arc::new(MrCluster::new(Arc::new(Hdfs::with_config(3, 64, 1)), cfg));
    let hive = Hive::new(cluster);
    let schema = Schema::of(&[
        ("k", DataType::Int),
        ("s", DataType::Varchar),
        ("v", DataType::Int),
    ]);
    hive.create_table("t", schema.clone()).unwrap();
    let names = [
        Value::from("beta"),
        Value::from("alpha"),
        Value::from(""),
        Value::Null,
        Value::from("null"),
        Value::from("bravo"),
        Value::from("gamma"),
    ];
    let rows: Vec<Row> = (0..120i64)
        .map(|i| {
            let s = names[((i * 5 + i / 7) % names.len() as i64) as usize].clone();
            Row::from_values([Value::Int(i), s, Value::Int(i % 11)])
        })
        .collect();
    hive.load("t", &rows).unwrap();
    hive.create_table(
        "d",
        Schema::of(&[("ds", DataType::Varchar), ("w", DataType::Int)]),
    )
    .unwrap();
    let dims: Vec<Row> = names
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_null())
        .map(|(i, s)| Row::from_values([s.clone(), Value::Int(100 + i as i64)]))
        .collect();
    hive.load("d", &dims).unwrap();
    // The first split's first values differ from the second's.
    let firsts: Vec<&Value> = rows.iter().map(|r| &r[1]).take(8).collect();
    assert_ne!(firsts[0], firsts[4], "a vacuous interleaving");

    // The local engine's row evaluator decides each predicate.
    let local = |pred: &str| -> Vec<Row> {
        let Statement::Query(q) =
            parse_statement(&format!("SELECT * FROM t WHERE {pred}")).unwrap()
        else {
            panic!()
        };
        let pred = q.filter.unwrap().resolve(&schema, &[]).unwrap();
        let kept = rows
            .iter()
            .filter(|r| hana_sql::evaluate_predicate(&pred, r).unwrap());
        let mut kept: Vec<Row> = kept.map(|r| Row::from_values([r[0].clone()])).collect();
        kept.sort();
        kept
    };
    for pred in [
        "s IN ('alpha', '', 'gamma')",
        "s LIKE 'b%'",
        "s <> 'beta'",
        "s = 'null'",
        "s NOT IN ('alpha', 'null')",
    ] {
        let want = local(pred);
        assert!(!want.is_empty(), "{pred}: a vacuous case");
        let rs = hive
            .execute(&format!("SELECT k FROM t WHERE {pred}"))
            .unwrap();
        assert_eq!(sorted_rows(&rs), want, "{pred}");
    }

    // GROUP BY the dictionary column: one group per value, NULL included.
    let mut groups: std::collections::BTreeMap<Value, (i64, i64)> = Default::default();
    for r in &rows {
        let g = groups.entry(r[1].clone()).or_default();
        g.0 += 1;
        g.1 += r[2].as_i64().unwrap();
    }
    let want: Vec<Row> = groups
        .into_iter()
        .map(|(s, (n, sum))| Row::from_values([s, Value::Int(n), Value::Int(sum)]))
        .collect();
    assert_eq!(want.len(), names.len());
    let rs = hive
        .execute("SELECT s, COUNT(*), SUM(v) FROM t WHERE v >= 0 GROUP BY s")
        .unwrap();
    assert_eq!(sorted_rows(&rs), want);

    // A join on the dictionary column: NULL joins nothing, '' and 'null'
    // are strings. The second statement's scan decodes the key for its
    // own predicate, and the join takes that column.
    let joined = |keep: &dyn Fn(&Row) -> bool| -> Vec<Row> {
        let kept = rows.iter().filter(|r| keep(r));
        let mut want: Vec<Row> = kept
            .flat_map(|r| {
                let hits = dims.iter().filter(|d| !r[1].is_null() && d[0] == r[1]);
                hits.map(|d| Row::from_values([r[0].clone(), d[1].clone()]))
            })
            .collect();
        want.sort();
        want
    };
    let small_v = |r: &Row| r[2].as_i64().unwrap() < 9;
    for (sql, want) in [
        (
            "SELECT k, w FROM t JOIN d ON s = ds WHERE v < 9",
            joined(&small_v),
        ),
        (
            "SELECT k, w FROM t JOIN d ON s = ds WHERE s <> 'beta'",
            joined(&|r| r[1] != Value::from("beta")),
        ),
    ] {
        assert!(!want.is_empty(), "{sql}: a vacuous join");
        assert_eq!(sorted_rows(&hive.execute(sql).unwrap()), want, "{sql}");
    }
    // And a group-by over the join, keyed on both sides' columns.
    let rs = hive
        .execute("SELECT ds, COUNT(*) FROM t JOIN d ON s = ds GROUP BY ds")
        .unwrap();
    let non_null = rows.iter().filter(|r| !r[1].is_null()).count() as i64;
    let counted: i64 = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!((rs.len(), counted), (names.len() - 1, non_null));
}
