//! Table relocation ships local rows into a Hive temp table and joins
//! there: the temp table goes on every path, and concurrent relocations
//! never share one.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use parking_lot::RwLock;

use hana_columnar::ColumnTable;
use hana_hadoop::{Hdfs, Hive, MrCluster, MrConfig};
use hana_iq::IqEngine;
use hana_query::{execute_plan, Catalog, EstSource, PlanNode, PlanOp, TableSource};
use hana_sda::{HiveOdbcAdapter, RemoteContext, SdaAdapter, SdaRegistry};
use hana_types::{DataType, HanaError, Result, Row, Schema, Value};

struct TestCatalog {
    dim: Arc<RwLock<ColumnTable>>,
    sda: SdaRegistry,
}

impl Catalog for TestCatalog {
    fn resolve_table(&self, name: &str) -> Result<TableSource> {
        match name {
            "dim" => Ok(TableSource::Column(Arc::clone(&self.dim))),
            _ => Err(HanaError::Catalog(format!("unknown table '{name}'"))),
        }
    }
    fn sda(&self) -> &SdaRegistry {
        &self.sda
    }
    fn iq_engine(&self, source: &str) -> Result<Arc<IqEngine>> {
        Err(HanaError::Catalog(format!(
            "no IQ engine behind '{source}'"
        )))
    }
}

fn hive() -> Arc<Hive> {
    let config = MrConfig {
        worker_slots: 2,
        job_startup: Duration::ZERO,
        task_startup: Duration::ZERO,
    };
    let hive = Arc::new(Hive::new(Arc::new(MrCluster::new(
        Arc::new(Hdfs::new(2)),
        config,
    ))));
    let schema = Schema::of(&[("e_id", DataType::Int), ("e_val", DataType::Double)]);
    hive.create_table("events", schema).unwrap();
    let rows: Vec<Row> = (0..20)
        .map(|i| Row::from_values([Value::Int(i % 5), Value::Double(i as f64)]))
        .collect();
    hive.load("events", &rows).unwrap();
    hive
}

/// A local `dim` with the names given, and Hive behind source `hive1`.
fn catalog(hive: &Arc<Hive>, names: &[&str]) -> TestCatalog {
    let schema = Schema::of(&[("d_id", DataType::Int), ("d_name", DataType::Varchar)]);
    let mut dim = ColumnTable::new("dim", schema);
    for (i, name) in names.iter().enumerate() {
        dim.insert(&[Value::Int(i as i64), Value::from(*name)], 1)
            .unwrap();
    }
    let sda = SdaRegistry::new();
    let adapter: Arc<dyn SdaAdapter> = Arc::new(HiveOdbcAdapter::new(Arc::clone(hive), "DSN=h"));
    sda.create_remote_source("hive1", adapter, "DSN=h", None)
        .unwrap();
    TestCatalog {
        dim: Arc::new(RwLock::new(dim)),
        sda,
    }
}

/// `dim d` relocated to join `remote_table e` on `d.d_id = e.e_id`.
fn relocation(cat: &TestCatalog, remote_table: &str) -> PlanNode {
    let local_schema = cat.dim.read().schema().qualified("d");
    let remote = Schema::of(&[("e_id", DataType::Int), ("e_val", DataType::Double)]);
    let local = PlanNode {
        op: PlanOp::ColumnScan {
            binding: "d".into(),
            table: "dim".into(),
            preds: Vec::new(),
            projection: vec![0, 1],
        },
        schema: local_schema.clone(),
        est_rows: 3.0,
        est_source: EstSource::Heuristic,
    };
    PlanNode {
        op: PlanOp::RelocateJoin {
            local: Box::new(local),
            local_key: 0, // d.d_id
            source: "hive1".into(),
            remote_table: remote_table.into(),
            remote_preds: Vec::new(),
            remote_key: 0, // e_id
            remote_binding: "e".into(),
        },
        schema: local_schema.join(&remote.qualified("e")).unwrap(),
        est_rows: 12.0,
        est_source: EstSource::Heuristic,
    }
}

fn temp_tables(hive: &Hive) -> Vec<String> {
    let names = hive.list_tables().into_iter();
    names.filter(|t| t.starts_with("tmp_shipped_")).collect()
}

#[test]
fn a_relocated_join_leaves_no_temp_table_whether_it_works_or_not() {
    let hive = hive();
    let cat = catalog(&hive, &["a", "b", "c"]);
    let rs = execute_plan(&relocation(&cat, "events"), &cat, 1).unwrap();
    assert_eq!(rs.len(), 12, "ids 0..3 meet four events each");
    assert_eq!(temp_tables(&hive), Vec::<String>::new());
    // The remote join fails after the rows were shipped.
    let err = execute_plan(&relocation(&cat, "no_such_table"), &cat, 1).unwrap_err();
    assert!(err.to_string().contains("no_such_table"), "{err}");
    assert_eq!(temp_tables(&hive), Vec::<String>::new());
}

#[test]
fn rows_hive_refuses_leave_no_temp_table() {
    let hive = hive();
    let cat = catalog(&hive, &["a", "line\nbreak"]);
    let err = execute_plan(&relocation(&cat, "events"), &cat, 1).unwrap_err();
    assert_eq!(err.kind(), "unsupported", "{err}");
    assert_eq!(temp_tables(&hive), Vec::<String>::new());
}

#[test]
fn concurrent_relocations_get_distinct_temp_tables() {
    let hive = hive();
    let adapter = HiveOdbcAdapter::new(Arc::clone(&hive), "DSN=h");
    let schema = Schema::of(&[("x", DataType::Int)]);
    let rows = [Row::from_values([Value::Int(1)])];
    // Eight shipments at once, a few times over: each gets its own table.
    for round in 1..=10 {
        let start = Barrier::new(8);
        let shipped: Vec<Result<String>> = std::thread::scope(|s| {
            let ship = || {
                start.wait();
                let ctx = RemoteContext::snapshot(1);
                adapter.create_temp_table(schema.clone(), &rows, &ctx)
            };
            let threads: Vec<_> = (0..8).map(|_| s.spawn(ship)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let names = shipped.into_iter().collect::<Result<Vec<_>>>().unwrap();
        let mut distinct = names.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 8, "round {round}: {names:?}");
        assert_eq!(temp_tables(&hive).len(), 8 * round);
    }
}
