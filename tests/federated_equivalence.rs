//! The twelve paper queries answer the same whether their big tables
//! live at Hive (both placements of §4.4) or all in HANA — with HDFS
//! blocks so small that LINEITEM is cut into well over a hundred input
//! splits — and each launches the MapReduce DAG it always launched.

use std::sync::Arc;
use std::time::Duration;

use hana_bench::{TpchWorld, WorldConfig};
use hana_data_platform::platform::HanaPlatform;
use hana_data_platform::{ResultSet, Row, Value};

const SCALE: f64 = 0.002;
const SEED: u64 = 7;

/// MR jobs per query in SDA normal mode: one repartition join per
/// shipped JOIN and one group-by job when the aggregation ships too,
/// each scanning its tables in its map tasks; a shipped scan with
/// neither is one map-only job.
const MR_JOBS: [(&str, u64); 12] = [
    ("Q1*", 1),
    ("Q6", 1),
    ("Q4", 2),
    ("Q12*", 2),
    ("Q13*", 2),
    ("Q3*", 3),
    ("Q18*", 3),
    ("Q5*", 2),
    ("Q10", 2),
    ("Q16", 1),
    ("Q14", 1),
    ("Q19", 1),
];

/// Every TPC-H table as a merged local column table.
fn all_local() -> (Arc<HanaPlatform>, hana_data_platform::platform::Session) {
    let data = hana_data_platform::tpch::generate(SCALE, SEED);
    let hana = Arc::new(HanaPlatform::new_in_memory());
    let session = hana.connect("SYSTEM", "manager").unwrap();
    for t in &data.tables {
        let cols: Vec<String> = t
            .schema
            .columns()
            .iter()
            .map(|c| format!("{} {}", c.name, c.data_type.sql_name()))
            .collect();
        let ddl = format!("CREATE COLUMN TABLE {} ({})", t.name, cols.join(", "));
        hana.execute_sql(&session, &ddl).unwrap();
        hana.load_rows(&session, t.name, &t.rows).unwrap();
        let merge = format!("MERGE DELTA OF {}", t.name);
        hana.execute_sql(&session, &merge).unwrap();
    }
    (hana, session)
}

/// Rows in an order that does not depend on the last digits of a sum:
/// exact values first, doubles rounded to nine digits after them.
fn canonical(rs: &ResultSet) -> Vec<Row> {
    let key = |row: &Row| {
        let (mut exact, mut rounded) = (String::new(), String::new());
        for v in row.values() {
            match v {
                Value::Double(x) => rounded.push_str(&format!("{x:.9e}|")),
                Value::Int(i) => exact.push_str(&format!("{i:020}|")),
                other => exact.push_str(&format!("{other}|")),
            }
        }
        exact + &rounded
    };
    let mut rows = rs.rows.clone();
    rows.sort_by_cached_key(key);
    rows
}

fn agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(_), _) | (_, Value::Double(_)) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
            _ => false,
        },
        _ => a == b,
    }
}

#[test]
fn federated_answers_equal_local_ones_over_many_small_splits() {
    let config = WorldConfig {
        scale: SCALE,
        seed: SEED,
        job_startup: Duration::ZERO,
        task_startup: Duration::ZERO,
        block_size: 8 * 1024,
        odbc_row_cost_us: 0,
        ..WorldConfig::default()
    };
    let worlds = [
        TpchWorld::build(&config, false).unwrap(),
        TpchWorld::build(&config, true).unwrap(),
    ];
    let hdfs = worlds[0].hive.cluster().hdfs();
    let lineitem = &hdfs.list("/warehouse/lineitem")[0];
    let splits = hdfs.block_count(lineitem).unwrap();
    assert!(splits > 100, "LINEITEM is {splits} input splits");

    let (local, local_session) = all_local();
    let queries = hana_data_platform::tpch::queries();
    assert_eq!(queries.len(), MR_JOBS.len());
    for q in &queries {
        let world = worlds.iter().find(|w| w.fits(q.name)).unwrap();
        let jobs_before = world.hive.cluster().counters().0;
        let federated = world.hana.execute_sql(&world.session, &q.sql).unwrap();
        let jobs = world.hive.cluster().counters().0 - jobs_before;
        let pinned = MR_JOBS.iter().find(|(name, _)| *name == q.name).unwrap().1;
        assert_eq!(jobs, pinned, "{}: MR jobs of the shipped DAG", q.name);

        let expected = local.execute_sql(&local_session, &q.sql).unwrap();
        let (got, want) = (canonical(&federated), canonical(&expected));
        assert!(!want.is_empty(), "{}: a vacuous comparison", q.name);
        assert_eq!(got.len(), want.len(), "{}: row count", q.name);
        for (g, w) in got.iter().zip(&want) {
            let same =
                g.len() == w.len() && g.values().iter().zip(w.values()).all(|(a, b)| agree(a, b));
            assert!(same, "{}: {g:?} against {w:?}", q.name);
        }
    }
}
