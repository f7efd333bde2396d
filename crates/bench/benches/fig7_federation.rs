//! E2 / Figure 7 — the federated join strategies against the extended
//! storage: remote scan vs. semijoin vs. table relocation, under the
//! paper's scenario (selective local predicate, large remote table),
//! plus the optimizer's own choice.
//!
//! Plans are constructed explicitly so each strategy is measured even
//! when the cost model would not pick it. Times are measured medians
//! of 15 runs; there is no modelled component — the extended store is
//! reached in-process and its adapter charges no start-up or transfer
//! cost (only the Hive cluster of Figures 14/15 does).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use hana_bench::median_nanos;
use hana_columnar::{ColumnPredicate, ColumnTable};
use hana_iq::IqEngine;
use hana_query::{
    execute_plan, Catalog, EstSource, FederationStrategy, Operand, PlanNode, PlanOp,
    PlannerContext, TableSource,
};
use hana_sda::{IqAdapter, SdaAdapter, SdaRegistry};
use hana_sql::{parse_statement, Expr, JoinKind, Statement};
use hana_types::{DataType, HanaError, Result, Row, Schema, Value};
use parking_lot::RwLock;

const DIM_ROWS: i64 = 1_000;
const FACT_ROWS: i64 = 100_000;

struct BenchCatalog {
    tables: HashMap<String, TableSource>,
    sda: SdaRegistry,
    iq: Arc<IqEngine>,
}

impl Catalog for BenchCatalog {
    fn resolve_table(&self, name: &str) -> Result<TableSource> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| HanaError::Catalog(name.into()))
    }
    fn sda(&self) -> &SdaRegistry {
        &self.sda
    }
    fn iq_engine(&self, _source: &str) -> Result<Arc<IqEngine>> {
        Ok(Arc::clone(&self.iq))
    }
}

fn world() -> BenchCatalog {
    let mut dim = ColumnTable::new(
        "dim",
        Schema::of(&[("d_id", DataType::Int), ("d_name", DataType::Varchar)]),
    );
    for i in 0..DIM_ROWS {
        dim.insert(&[Value::Int(i), Value::from(format!("d{i}"))], 1)
            .unwrap();
    }
    dim.merge_delta();
    let iq = Arc::new(IqEngine::new("iq-fig7", 2048).unwrap());
    iq.create_table(
        "fact",
        Schema::of(&[("f_dim", DataType::Int), ("f_val", DataType::Double)]),
    )
    .unwrap();
    let rows: Vec<Row> = (0..FACT_ROWS)
        .map(|i| Row::from_values([Value::Int(i % DIM_ROWS), Value::Double(i as f64)]))
        .collect();
    iq.direct_load("fact", &rows, 1).unwrap();
    let sda = SdaRegistry::new();
    let adapter: Arc<dyn SdaAdapter> = Arc::new(IqAdapter::new(Arc::clone(&iq)));
    sda.create_remote_source("iq", adapter, "internal", None)
        .unwrap();
    let mut tables = HashMap::new();
    tables.insert(
        "dim".into(),
        TableSource::Column(Arc::new(RwLock::new(dim))),
    );
    tables.insert(
        "fact".into(),
        TableSource::Extended {
            source: "iq".into(),
            remote_table: "fact".into(),
            schema: iq.table_schema("fact").unwrap(),
        },
    );
    BenchCatalog { tables, sda, iq }
}

/// The local side of the Figure 7 scenario: `dim` filtered to one row.
fn local_scan(cat: &BenchCatalog) -> PlanNode {
    let schema = cat.tables["dim"].schema().qualified("d");
    PlanNode {
        op: PlanOp::ColumnScan {
            binding: "d".into(),
            table: "dim".into(),
            preds: vec![(
                "d_id".into(),
                ColumnPredicate::Eq(Operand::Lit(Value::Int(42))),
            )],
            projection: vec![0, 1],
        },
        schema,
        est_rows: 1.0,
        est_source: EstSource::Heuristic,
    }
}

fn strategy_plan(cat: &BenchCatalog, strategy: FederationStrategy) -> PlanNode {
    let local = local_scan(cat);
    let fact_schema = cat.tables["fact"].schema().qualified("f");
    let joined = local.schema.join(&fact_schema).unwrap();
    match strategy {
        FederationStrategy::RemoteScan => {
            let remote = PlanNode {
                op: PlanOp::RemoteQuery {
                    source: "iq".into(),
                    query: match parse_statement("SELECT * FROM fact f").unwrap() {
                        Statement::Query(q) => q,
                        _ => unreachable!(),
                    },
                    label: "remote scan".into(),
                },
                schema: fact_schema,
                est_rows: FACT_ROWS as f64,
                est_source: EstSource::Heuristic,
            };
            PlanNode {
                op: PlanOp::HashJoin {
                    left: Box::new(local),
                    right: Box::new(remote),
                    left_key: 0,  // d.d_id
                    right_key: 0, // f.f_dim
                    kind: JoinKind::Inner,
                    // The one-row dimension side is the table.
                    build: hana_query::BuildSide::Left,
                    dist: hana_query::DistJoinStrategy::Repartition,
                },
                schema: joined,
                est_rows: 100.0,
                est_source: EstSource::Heuristic,
            }
        }
        strategy => PlanNode {
            op: PlanOp::RemoteJoin {
                strategy,
                local: Box::new(local),
                local_key: 0, // d.d_id
                source: "iq".into(),
                remote_table: "fact".into(),
                remote_preds: Vec::<Expr>::new(),
                remote_key: 0, // f_dim
                remote_binding: "f".into(),
            },
            schema: joined,
            est_rows: 100.0,
            est_source: EstSource::Heuristic,
        },
    }
}

fn main() {
    let cat = world();
    let expected = (FACT_ROWS / DIM_ROWS) as usize;
    println!("strategy          | measured (modelled: none)");
    let report = |name: &str, nanos: u128| println!("{name:<17} | {:>6.2}ms", nanos as f64 / 1e6);

    for strategy in [
        FederationStrategy::RemoteScan,
        FederationStrategy::SemiJoin,
        FederationStrategy::TableRelocation,
    ] {
        let plan = strategy_plan(&cat, strategy);
        report(
            strategy.name(),
            median_nanos(|| {
                let rs = execute_plan(&plan, &cat, 1).unwrap();
                assert_eq!(rs.len(), expected, "{strategy:?}");
                black_box(rs);
            }),
        );
    }
    // What the cost-based optimizer actually picks for the scenario.
    let Statement::Query(q) = parse_statement(
        "SELECT d.d_name, f.f_val FROM dim d JOIN fact f ON d.d_id = f.f_dim \
         WHERE d.d_id = 42",
    )
    .unwrap() else {
        unreachable!()
    };
    let chosen = PlannerContext::new(&cat).planner().plan(&q).unwrap();
    assert!(chosen.strategies().contains(&FederationStrategy::SemiJoin));
    report(
        "optimizer choice",
        median_nanos(|| {
            black_box(execute_plan(&chosen, &cat, 1).unwrap());
        }),
    );
    println!(
        "optimizer choice for the Figure 7 scenario: {:?}",
        chosen.strategies()
    );
}
