//! End-to-end federation tests: local execution, strategy selection
//! (Figure 7), whole-query and prefix shipping, hybrid scans.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use hana_columnar::ColumnPredicate;
use hana_columnar::ColumnTable;
use hana_hadoop::{Hdfs, Hive, MrCluster, MrConfig};
use hana_iq::IqEngine;
use hana_query::{
    execute_plan, execute_query, BuildSide, Catalog, DistJoinStrategy, EstSource,
    FederationStrategy, Operand, PlanNode, PlanOp, PlanPredicate, PlannerContext, TableSource,
};
use hana_rowstore::RowTable;
use hana_sda::{
    CapabilitySet, HiveOdbcAdapter, IqAdapter, RemoteContext, RemoteStats, SdaAdapter, SdaRegistry,
};
use hana_sql::{parse_statement, JoinKind, Query, Statement};
use hana_types::{DataType, HanaError, Result, ResultSet, Row, Schema, Value};

/// A catalog assembling every storage kind for the tests.
struct TestCatalog {
    tables: HashMap<String, TableSource>,
    sda: SdaRegistry,
    iq: Arc<IqEngine>,
}

impl Catalog for TestCatalog {
    fn resolve_table(&self, name: &str) -> Result<TableSource> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| HanaError::Catalog(format!("unknown table '{name}'")))
    }

    fn sda(&self) -> &SdaRegistry {
        &self.sda
    }

    fn iq_engine(&self, _source: &str) -> Result<Arc<IqEngine>> {
        Ok(Arc::clone(&self.iq))
    }
}

fn query(sql: &str) -> hana_sql::Query {
    let Statement::Query(q) = parse_statement(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    q
}

/// An IQ adapter that writes down the text of every query it runs.
struct Recording {
    inner: IqAdapter,
    shipped: Mutex<Vec<String>>,
}

impl SdaAdapter for Recording {
    fn adapter_name(&self) -> &'static str {
        self.inner.adapter_name()
    }
    fn host(&self) -> &str {
        self.inner.host()
    }
    fn capabilities(&self) -> CapabilitySet {
        self.inner.capabilities()
    }
    fn remote_schema(&self, table: &str) -> Result<Schema> {
        self.inner.remote_schema(table)
    }
    fn table_stats(&self, table: &str) -> Result<RemoteStats> {
        self.inner.table_stats(table)
    }
    fn execute(&self, q: &Query, ctx: &RemoteContext) -> Result<ResultSet> {
        self.shipped.lock().push(q.to_string());
        self.inner.execute(q, ctx)
    }
    fn estimate_selectivity(&self, table: &str, column: &str, p: &ColumnPredicate) -> Option<f64> {
        self.inner.estimate_selectivity(table, column, p)
    }
    fn column_distinct(&self, table: &str, column: &str) -> Option<u64> {
        self.inner.column_distinct(table, column)
    }
}

/// Build a world:
/// * local column table `dim` (100 rows) and row table `codes`,
/// * local column table `keyed` (`k_id` 3, NULL, 1, 3, NULL, 2, 1),
/// * extended (IQ) table `fact` (20k rows),
/// * Hive virtual tables `ev_orders` (2k rows) and `ev_customer` (100),
/// * hybrid table `sales` (50 hot + 5000 cold rows).
fn world() -> TestCatalog {
    let sda = SdaRegistry::new();

    // Local column table.
    let mut dim = ColumnTable::new(
        "dim",
        Schema::of(&[("d_id", DataType::Int), ("d_name", DataType::Varchar)]),
    );
    for i in 0..100i64 {
        dim.insert(&[Value::Int(i), Value::from(format!("dim-{i}"))], 1)
            .unwrap();
    }
    dim.merge_delta();

    // Local column table with NULL and repeated keys.
    let mut keyed = ColumnTable::new(
        "keyed",
        Schema::of(&[("k_id", DataType::Int), ("k_tag", DataType::Varchar)]),
    );
    let ids = [Some(3), None, Some(1), Some(3), None, Some(2), Some(1)];
    for (i, id) in ids.into_iter().enumerate() {
        let id = id.map_or(Value::Null, Value::Int);
        keyed
            .insert(&[id, Value::from(format!("tag-{i}"))], 1)
            .unwrap();
    }

    // Local row table.
    let mut codes = RowTable::new(
        "codes",
        Schema::of(&[("code", DataType::Int), ("label", DataType::Varchar)]),
        Some("code"),
    )
    .unwrap();
    for i in 0..10i64 {
        codes
            .insert(vec![Value::Int(i), Value::from(format!("label-{i}"))], 1)
            .unwrap();
    }

    // Extended storage with a big fact table.
    let iq = Arc::new(IqEngine::new("iq-fed", 512).unwrap());
    iq.create_table(
        "fact",
        Schema::of(&[
            ("f_dim", DataType::Int),
            ("f_val", DataType::Double),
            ("f_flag", DataType::Varchar),
        ]),
    )
    .unwrap();
    let fact_rows: Vec<Row> = (0..20_000)
        .map(|i| {
            Row::from_values([
                Value::Int((i % 100) as i64),
                Value::Double(i as f64),
                Value::from(if i % 5 == 0 { "A" } else { "B" }),
            ])
        })
        .collect();
    iq.direct_load("fact", &fact_rows, 1).unwrap();
    let iq_adapter: Arc<dyn SdaAdapter> = Arc::new(IqAdapter::new(Arc::clone(&iq)));
    sda.create_remote_source("iqstore", iq_adapter, "internal", None)
        .unwrap();

    // Hive with two tables.
    let mr = Arc::new(MrCluster::new(
        Arc::new(Hdfs::new(4)),
        MrConfig {
            worker_slots: 4,
            job_startup: Duration::from_micros(300),
            task_startup: Duration::from_micros(30),
        },
    ));
    let hive = Arc::new(Hive::new(mr));
    hive.create_table(
        "ev_orders",
        Schema::of(&[
            ("o_id", DataType::Int),
            ("o_cust", DataType::Int),
            ("o_total", DataType::Double),
        ]),
    )
    .unwrap();
    hive.load(
        "ev_orders",
        &(0..2000)
            .map(|i| {
                Row::from_values([Value::Int(i), Value::Int(i % 100), Value::Double(i as f64)])
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    hive.create_table(
        "ev_customer",
        Schema::of(&[("c_id", DataType::Int), ("c_seg", DataType::Varchar)]),
    )
    .unwrap();
    hive.load(
        "ev_customer",
        &(0..100)
            .map(|i| {
                Row::from_values([
                    Value::Int(i),
                    Value::from(if i % 4 == 0 { "HOUSEHOLD" } else { "OTHER" }),
                ])
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let hive_adapter: Arc<dyn SdaAdapter> = Arc::new(HiveOdbcAdapter::new(hive, "DSN=hive1"));
    sda.create_remote_source("hive1", hive_adapter, "DSN=hive1", None)
        .unwrap();

    // Hybrid table: hot in-memory + cold in IQ.
    let mut hot = ColumnTable::new(
        "sales",
        Schema::of(&[
            ("s_id", DataType::Int),
            ("s_amt", DataType::Double),
            ("s_cold", DataType::Bool),
        ]),
    );
    for i in 0..50i64 {
        hot.insert(
            &[Value::Int(i), Value::Double(i as f64), Value::Bool(false)],
            1,
        )
        .unwrap();
    }
    iq.create_table(
        "sales_cold",
        Schema::of(&[
            ("s_id", DataType::Int),
            ("s_amt", DataType::Double),
            ("s_cold", DataType::Bool),
        ]),
    )
    .unwrap();
    let cold_rows: Vec<Row> = (1000..6000)
        .map(|i| Row::from_values([Value::Int(i), Value::Double(i as f64), Value::Bool(true)]))
        .collect();
    iq.direct_load("sales_cold", &cold_rows, 1).unwrap();

    let mut tables = HashMap::new();
    tables.insert(
        "dim".to_string(),
        TableSource::Column(Arc::new(RwLock::new(dim))),
    );
    tables.insert(
        "keyed".to_string(),
        TableSource::Column(Arc::new(RwLock::new(keyed))),
    );
    tables.insert(
        "codes".to_string(),
        TableSource::Row(Arc::new(RwLock::new(codes))),
    );
    tables.insert(
        "fact".to_string(),
        TableSource::Extended {
            source: "iqstore".into(),
            remote_table: "fact".into(),
            schema: iq.table_schema("fact").unwrap(),
        },
    );
    tables.insert(
        "orders_v".to_string(),
        TableSource::Virtual {
            source: "hive1".into(),
            remote_table: "ev_orders".into(),
            schema: Schema::of(&[
                ("o_id", DataType::Int),
                ("o_cust", DataType::Int),
                ("o_total", DataType::Double),
            ]),
        },
    );
    tables.insert(
        "customer_v".to_string(),
        TableSource::Virtual {
            source: "hive1".into(),
            remote_table: "ev_customer".into(),
            schema: Schema::of(&[("c_id", DataType::Int), ("c_seg", DataType::Varchar)]),
        },
    );
    tables.insert(
        "sales".to_string(),
        TableSource::Hybrid {
            hot: Arc::new(RwLock::new(hot)),
            source: "iqstore".into(),
            cold_table: "sales_cold".into(),
            aging_column: "s_cold".into(),
        },
    );

    TestCatalog { tables, sda, iq }
}

#[test]
fn local_scan_filter_project() {
    let cat = world();
    let rs = execute_query(
        &query("SELECT d_name FROM dim WHERE d_id BETWEEN 10 AND 12"),
        &cat,
        1,
    )
    .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.schema.index_of("d_name"), Some(0));
}

#[test]
fn local_aggregation_with_having_and_order() {
    let cat = world();
    let rs = execute_query(
        &query(
            "SELECT label, COUNT(*) AS n FROM codes WHERE code < 8 \
             GROUP BY label HAVING COUNT(*) > 0 ORDER BY label DESC LIMIT 3",
        ),
        &cat,
        1,
    )
    .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.rows[0][0], Value::from("label-7"));
}

#[test]
fn local_join_column_and_row_tables() {
    let cat = world();
    let rs = execute_query(
        &query(
            "SELECT d.d_name, c.label FROM dim d JOIN codes c ON d.d_id = c.code \
             WHERE c.code >= 5",
        ),
        &cat,
        1,
    )
    .unwrap();
    assert_eq!(rs.len(), 5);
}

/// Figure 7: selective local predicate -> the optimizer must pick the
/// semijoin against the big extended table, and results must be correct.
#[test]
fn figure7_semijoin_selected_and_correct() {
    let cat = world();
    let q = query(
        "SELECT d.d_name, f.f_val FROM dim d JOIN fact f ON d.d_id = f.f_dim \
         WHERE d.d_id = 42",
    );
    let plan = PlannerContext::new(&cat).planner().plan(&q).unwrap();
    assert!(
        plan.strategies().contains(&FederationStrategy::SemiJoin),
        "expected semijoin, plan:\n{}",
        plan.explain()
    );
    let rs = execute_query(&q, &cat, 1).unwrap();
    assert_eq!(rs.len(), 200, "20000 rows / 100 dims = 200 matches");
    assert!(rs.rows.iter().all(|r| r[0] == Value::from("dim-42")));
}

/// With no selective local predicate but a highly selective remote one,
/// the remote scan strategy wins.
#[test]
fn remote_scan_when_remote_filter_is_selective() {
    let cat = world();
    let q = query(
        "SELECT d.d_name, f.f_val FROM dim d JOIN fact f ON d.d_id = f.f_dim \
         WHERE f.f_val < 3",
    );
    let plan = PlannerContext::new(&cat).planner().plan(&q).unwrap();
    assert!(
        plan.strategies().contains(&FederationStrategy::RemoteScan),
        "plan:\n{}",
        plan.explain()
    );
    let rs = execute_query(&q, &cat, 1).unwrap();
    assert_eq!(rs.len(), 3);
}

/// The remote-scan leaf of that plan is priced as the strategy choice
/// priced its table: from the extended store's zone maps (3 rows), not
/// at a default selectivity (6 000 of 20 000).
#[test]
fn a_remote_leaf_is_priced_as_its_join_was() {
    let cat = world();
    let q = query(
        "SELECT d.d_name, f.f_val FROM dim d JOIN fact f ON d.d_id = f.f_dim \
         WHERE f.f_val < 3",
    );
    let plan = PlannerContext::new(&cat).planner().plan(&q).unwrap();
    let leaf = remote_leaf(&plan).expect("a remote-scan leaf");
    let returned = execute_plan(leaf, &cat, 1).unwrap().len() as f64;
    assert_eq!(returned, 3.0);
    assert!(
        leaf.est_rows <= returned * 10.0 && returned <= leaf.est_rows * 10.0,
        "estimated {} rows, returned {returned}:\n{}",
        leaf.est_rows,
        plan.explain()
    );
}

fn remote_leaf(node: &PlanNode) -> Option<&PlanNode> {
    match &node.op {
        PlanOp::RemoteQuery { .. } => Some(node),
        PlanOp::HashJoin { left, right, .. } => remote_leaf(left).or_else(|| remote_leaf(right)),
        PlanOp::Filter { input, .. } | PlanOp::Finish { input, .. } => remote_leaf(input),
        _ => None,
    }
}

/// `keyed k` (under `preds`) joined with the extended `fact f` on
/// `k.k_id = f.f_dim`: by a semijoin, or by a hash join over a remote
/// scan of the whole table.
fn keyed_join(strategy: FederationStrategy, preds: Vec<PlanPredicate>) -> PlanNode {
    let local_schema = Schema::of(&[("k_id", DataType::Int), ("k_tag", DataType::Varchar)]);
    let local_schema = local_schema.qualified("k");
    let fact = Schema::of(&[
        ("f_dim", DataType::Int),
        ("f_val", DataType::Double),
        ("f_flag", DataType::Varchar),
    ])
    .qualified("f");
    let local = PlanNode {
        op: PlanOp::ColumnScan {
            binding: "k".into(),
            table: "keyed".into(),
            preds,
            projection: vec![0, 1],
        },
        schema: local_schema.clone(),
        est_rows: 7.0,
        est_source: EstSource::Heuristic,
    };
    let schema = local_schema.join(&fact).unwrap();
    let op = match strategy {
        FederationStrategy::RemoteScan => {
            let remote = PlanNode {
                op: PlanOp::RemoteQuery {
                    source: "iqstore".into(),
                    query: query("SELECT * FROM fact f"),
                    label: "remote scan".into(),
                },
                schema: fact,
                est_rows: 20_000.0,
                est_source: EstSource::Heuristic,
            };
            PlanOp::HashJoin {
                left: Box::new(local),
                right: Box::new(remote),
                left_key: 0,
                right_key: 0,
                kind: JoinKind::Inner,
                build: BuildSide::Left,
                dist: DistJoinStrategy::Repartition,
            }
        }
        strategy => PlanOp::RemoteJoin {
            strategy,
            local: Box::new(local),
            local_key: 0, // k.k_id
            source: "iqstore".into(),
            remote_table: "fact".into(),
            remote_preds: Vec::new(),
            remote_key: 0, // f_dim
            remote_binding: "f".into(),
        },
    };
    PlanNode {
        op,
        schema,
        est_rows: 600.0,
        est_source: EstSource::Heuristic,
    }
}

/// `cat`'s extended store behind an adapter that records what it runs.
fn recording(cat: &TestCatalog) -> Arc<Recording> {
    let rec = Arc::new(Recording {
        inner: IqAdapter::new(Arc::clone(&cat.iq)),
        shipped: Mutex::new(Vec::new()),
    });
    let adapter: Arc<dyn SdaAdapter> = rec.clone();
    cat.sda.replace_adapter("iqstore", adapter).unwrap();
    rec
}

/// A semijoin whose local side is empty makes no remote round trip.
#[test]
fn a_semijoin_over_no_local_row_ships_nothing() {
    let cat = world();
    let rec = recording(&cat);
    let before = cat.sda.source_stats("iqstore").unwrap();
    let none = ColumnPredicate::Gt(Operand::Lit(Value::Int(100)));
    let plan = keyed_join(FederationStrategy::SemiJoin, vec![("k_id".into(), none)]);
    let rs = execute_plan(&plan, &cat, 1).unwrap();
    assert_eq!(rs.len(), 0);
    assert_eq!(cat.sda.source_stats("iqstore").unwrap(), before);
    assert_eq!(*rec.shipped.lock(), Vec::<String>::new());
}

/// Local keys 3, NULL, 1, 3, NULL, 2, 1 ship as 1, 2, 3 — each non-NULL
/// key once, ascending — and the semijoin returns the rows a hash join
/// over a remote scan of the whole table does.
#[test]
fn a_semijoin_ships_each_non_null_key_once_in_order() {
    let cat = world();
    let rec = recording(&cat);
    let semijoin = execute_plan(
        &keyed_join(FederationStrategy::SemiJoin, Vec::new()),
        &cat,
        1,
    )
    .unwrap();
    assert_eq!(
        *rec.shipped.lock(),
        ["SELECT * FROM fact f WHERE f.f_dim IN (1, 2, 3)"]
    );
    let scan = execute_plan(
        &keyed_join(FederationStrategy::RemoteScan, Vec::new()),
        &cat,
        1,
    )
    .unwrap();
    // Five non-NULL local rows, 200 fact rows per key.
    assert_eq!(semijoin.len(), 5 * 200);
    let sorted = |rs: ResultSet| {
        let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };
    assert_eq!(sorted(semijoin), sorted(scan));
}

/// All tables at one Hive source with supported shapes: the whole query
/// ships (Figure 12) — including the aggregation.
#[test]
fn whole_query_ships_to_hive() {
    let cat = world();
    let q = query(
        "SELECT c.c_seg, COUNT(*) AS n FROM customer_v c JOIN orders_v o \
         ON c.c_id = o.o_cust GROUP BY c.c_seg ORDER BY c.c_seg",
    );
    let plan = PlannerContext::new(&cat).planner().plan(&q).unwrap();
    let text = plan.explain();
    assert!(
        text.contains("whole query"),
        "expected whole-query shipping:\n{text}"
    );
    let rs = execute_query(&q, &cat, 1).unwrap();
    assert_eq!(rs.len(), 2);
    // 25 HOUSEHOLD customers x 20 orders each = 500.
    let household = rs
        .rows
        .iter()
        .find(|r| r[0] == Value::from("HOUSEHOLD"))
        .unwrap();
    assert_eq!(household[1], Value::Int(500));
}

/// Hive prefix + local table: the prefix ships as one sub-query, the
/// local join runs in HANA (Figure 13's mixed situation).
#[test]
fn remote_prefix_then_local_join() {
    let cat = world();
    let q = query(
        "SELECT d.d_name, o.o_total FROM orders_v o JOIN customer_v c ON o.o_cust = c.c_id \
         JOIN dim d ON o.o_cust = d.d_id \
         WHERE c.c_seg = 'HOUSEHOLD' AND o.o_total < 100",
    );
    let plan = PlannerContext::new(&cat).planner().plan(&q).unwrap();
    let text = plan.explain();
    assert!(
        text.contains("remote prefix"),
        "expected prefix shipping:\n{text}"
    );
    let rs = execute_query(&q, &cat, 1).unwrap();
    // Orders 0..100 with o_cust % 4 == 0: o_cust in {0,4,...} -> o_id
    // multiples matching; count: o_id 0..100 where (o_id%100)%4==0 -> 25.
    assert_eq!(rs.len(), 25);
}

#[test]
fn hybrid_scan_unions_hot_and_cold() {
    let cat = world();
    let q = query("SELECT COUNT(*) FROM sales WHERE s_amt >= 0");
    let plan = PlannerContext::new(&cat).planner().plan(&q).unwrap();
    assert!(
        plan.strategies().contains(&FederationStrategy::UnionPlan),
        "plan:\n{}",
        plan.explain()
    );
    let rs = execute_query(&q, &cat, 1).unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(5050));
    // Predicates prune on both sides.
    let rs = execute_query(
        &query("SELECT COUNT(*) FROM sales WHERE s_id < 1005"),
        &cat,
        1,
    )
    .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(55));
}

#[test]
fn explain_shows_shipped_sql_and_exchange_boundary() {
    let cat = world();
    let q = query("SELECT o_id FROM orders_v WHERE o_total > 1990");
    let text = PlannerContext::new(&cat)
        .planner()
        .plan(&q)
        .unwrap()
        .explain();
    assert!(text.contains("Remote Row Scan"), "{text}");
    assert!(text.contains("Shipped: SELECT"), "{text}");
}

#[test]
fn snapshot_isolation_respected_locally() {
    let cat = world();
    // dim rows were inserted with cid 1; a snapshot at 0 sees nothing.
    let rs = execute_query(&query("SELECT COUNT(*) FROM dim"), &cat, 0).unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(0));
    let rs = execute_query(&query("SELECT COUNT(*) FROM dim"), &cat, 1).unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(100));
}

#[test]
fn errors_surface() {
    let cat = world();
    assert!(execute_query(&query("SELECT * FROM missing"), &cat, 1).is_err());
    assert!(execute_query(&query("SELECT nope FROM dim"), &cat, 1).is_err());
    // Failure of the extended store aborts the query (§3.1).
    cat.iq.set_failing(true);
    let err = execute_query(&query("SELECT COUNT(*) FROM fact"), &cat, 1).unwrap_err();
    assert_eq!(err.kind(), "remote_unavailable");
    assert!(err.is_retryable());
}
