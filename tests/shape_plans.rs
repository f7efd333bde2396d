//! Plan stability: lifting a statement's compared literals to slots
//! changes nothing about how it is planned. For the twelve paper
//! queries — all tables local, and both federated placements of §4.4 —
//! EXPLAIN of the lifted shape with its values is EXPLAIN of the literal
//! statement, `Shipped:` text included, and the session's shape path
//! returns what `execute_sql` returns and finds the remote
//! materialization `execute_sql` left behind (the remote-cache key is a
//! function of the shipped text).

use std::sync::Arc;
use std::time::Duration;

use hana_bench::{TpchWorld, WorldConfig};
use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::query::Catalog as _;
use hana_data_platform::sql::{parse_statement, Query, Statement};
use hana_data_platform::{ResultSet, Row, Value};
use hana_session::SessionManager;

const SCALE: f64 = 0.002;
const SEED: u64 = 7;

fn all_local() -> (Arc<HanaPlatform>, Session) {
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

fn query(sql: &str) -> Query {
    let Statement::Query(q) = parse_statement(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    q
}

/// Rows in an order that does not depend on the last digits of a sum.
fn canonical(rs: &ResultSet) -> Vec<String> {
    let text = |row: &Row| {
        let cell = |v: &Value| match v {
            Value::Double(x) => format!("{x:.6e}"),
            other => other.to_string(),
        };
        row.values().iter().map(cell).collect::<Vec<_>>().join("|")
    };
    let mut rows: Vec<String> = rs.rows.iter().map(text).collect();
    rows.sort();
    rows
}

/// EXPLAIN of `sql` planned as written, and planned as its shape with
/// the lifted values beside it.
fn explain_both_ways(hana: &HanaPlatform, session: &Session, sql: &str) -> (String, String) {
    let literal = hana.plan_query(session, &query(sql)).unwrap().explain();
    let mut shape = query(sql);
    let (user, values) = shape.lift_literals();
    assert_eq!(user, 0);
    let plan = hana.plan_shape(session, &shape, &values).unwrap();
    (literal, plan.explain_bound(&values))
}

#[test]
fn the_twelve_queries_plan_alike_lifted_or_literal() {
    let config = WorldConfig {
        scale: SCALE,
        seed: SEED,
        job_startup: Duration::ZERO,
        task_startup: Duration::ZERO,
        odbc_row_cost_us: 0,
        ..WorldConfig::default()
    };
    let (local, local_session) = all_local();
    let worlds = [
        TpchWorld::build(&config, false).unwrap(),
        TpchWorld::build(&config, true).unwrap(),
    ];
    let mut lifted_values = 0;
    for q in hana_data_platform::tpch::queries() {
        let mut shape = query(&q.sql);
        lifted_values += shape.lift_literals().1.len();

        // Local, and in *both* placements (the one the paper runs the
        // query in and the other).
        let (literal, lifted) = explain_both_ways(&local, &local_session, &q.sql);
        assert_eq!(lifted, literal, "{} local", q.name);
        for world in &worlds {
            let (literal, lifted) = explain_both_ways(&world.hana, &world.session, &q.sql);
            assert_eq!(
                lifted, literal,
                "{} part_local={}",
                q.name, world.part_local
            );
            assert!(literal.contains("Shipped:"), "{}: {literal}", q.name);
            assert!(!lifted.contains('?'), "{}: a slot left the engine", q.name);
        }

        // The session runs the shape; the platform runs the text.
        let mgr = SessionManager::new(Arc::clone(&local));
        let session = mgr.connect("SYSTEM", "manager").unwrap();
        let want = local.execute_sql(&local_session, &q.sql).unwrap();
        assert!(!want.rows.is_empty(), "{}: a vacuous comparison", q.name);
        for _ in 0..2 {
            let got = session.execute(&q.sql).unwrap();
            assert_eq!(canonical(&got), canonical(&want), "{} local", q.name);
            assert_eq!(got.schema, want.schema, "{} local", q.name);
        }
        assert_eq!(mgr.plan_cache().stats(), (1, 1), "{}: planned once", q.name);
    }
    assert!(lifted_values > 30, "the queries do hold literals to lift");
}

/// What the platform materialized remotely under a statement's text,
/// the session's shape path finds: the sub-query it ships is bound back
/// to the same text, so the remote-cache key is the same.
#[test]
fn the_shape_path_hits_the_remote_cache_the_text_path_filled() {
    let config = WorldConfig {
        scale: SCALE,
        seed: SEED,
        job_startup: Duration::ZERO,
        task_startup: Duration::ZERO,
        odbc_row_cost_us: 0,
        ..WorldConfig::default()
    };
    let mut materialized = 0;
    for part_local in [false, true] {
        let world = TpchWorld::build(&config, part_local).unwrap();
        world.hana.set_remote_cache(true, 1_000_000);
        let mgr = SessionManager::new(Arc::clone(&world.hana));
        let session = mgr.connect("SYSTEM", "manager").unwrap();
        let cache = &world.hana.catalog().sda().cache;
        for q in hana_data_platform::tpch::queries() {
            if !world.fits(q.name) {
                continue;
            }
            let hinted = format!("{} WITH HINT (USE_REMOTE_CACHE)", q.sql);
            let (hits0, misses0) = cache.stats();
            let want = world.hana.execute_sql(&world.session, &hinted).unwrap();
            let (hits1, misses1) = cache.stats();
            let jobs = world.hive.cluster().counters().0;
            let got = session.execute(&hinted).unwrap();
            let (hits2, misses2) = cache.stats();
            assert_eq!(canonical(&got), canonical(&want), "{}", q.name);
            // Every sub-query the text path materialized or found, the
            // shape path finds; it materializes nothing.
            let shipped = (misses1 - misses0) + (hits1 - hits0);
            assert_eq!(misses2, misses1, "{}: materialized again", q.name);
            assert_eq!(hits2 - hits1, shipped, "{}: remote-cache hits", q.name);
            assert_eq!(
                world.hive.cluster().counters().0,
                jobs,
                "{}: MR jobs",
                q.name
            );
            materialized += misses1 - misses0;
        }
    }
    assert!(
        materialized >= 10,
        "{materialized} sub-queries materialized"
    );
}
