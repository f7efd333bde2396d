//! Differential oracle for the write path's row location: UPDATE and
//! DELETE find their victims with the access path the planner picks
//! for the equivalent SELECT (pushed-down predicates, index seeks,
//! partition pruning, residuals on candidates only), so over every
//! storage kind, index shape and merge state
//!
//! * `DELETE WHERE p` removes exactly the rows `SELECT … WHERE p`
//!   returned at the same snapshot,
//! * `UPDATE … SET … WHERE p` rewrites exactly them — a partition-key
//!   update moving the row to its new home node,
//! * the returned counts match, and rows not matching `p` are
//!   byte-identical before and after.
//!
//! The oracle is `hana_sql::evaluate_predicate` over a full `SELECT *`
//! — it lives here, not in the engine.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::query::{locate_rows, TableSource};
use hana_data_platform::sql::{evaluate, evaluate_predicate, parse_statement, Expr, Statement};
use hana_data_platform::{Row, Schema, Value};

const KINDS: [&str; 5] = ["column", "row", "hybrid", "hash", "range"];

fn create(hana: &HanaPlatform, s: &Session, kind: &str) {
    let cols = "(k INTEGER, g INTEGER, v DOUBLE, s VARCHAR(8), n INTEGER, aged BOOLEAN)";
    let ddl = match kind {
        "column" => format!("CREATE COLUMN TABLE t {cols}"),
        "row" => format!("CREATE ROW TABLE t {cols}"),
        "hybrid" => {
            format!("CREATE COLUMN TABLE t {cols} USING HYBRID EXTENDED STORAGE AGING ON aged")
        }
        "hash" => format!("CREATE COLUMN TABLE t {cols} PARTITION BY HASH(k) PARTITIONS 3"),
        "range" => format!("CREATE COLUMN TABLE t {cols} PARTITION BY RANGE(k) SPLIT AT (10, 20)"),
        other => unreachable!("{other}"),
    };
    hana.execute_sql(s, &ddl).unwrap();
}

fn random_row(rng: &mut TestRng) -> Row {
    let s = ["ab", "abc", "b", "", "zz"][rng.below(5) as usize];
    let n = match rng.below(3) {
        0 => Value::Null,
        _ => Value::Int(rng.below(6) as i64),
    };
    Row::from_values([
        Value::Int(rng.below(30) as i64),
        Value::Int(rng.below(5) as i64),
        Value::Double(rng.below(40) as f64 / 4.0),
        Value::from(s),
        n,
        Value::Bool(false),
    ])
}

/// One random conjunct: lowerable shapes (eq / range / IN / BETWEEN /
/// LIKE / NULL tests) and shapes only the expression engine evaluates
/// (OR trees, arithmetic, column-to-column, negated forms, CASE).
fn random_conjunct(rng: &mut TestRng) -> String {
    let k = rng.below(30);
    let g = rng.below(5);
    match rng.below(16) {
        0 | 1 => format!("k = {k}"),
        2 => format!("k > {k}"),
        3 => format!("k <= {k}"),
        4 => format!("k BETWEEN {} AND {}", k / 2, k),
        5 => format!("g IN ({g}, {})", (g + 2) % 5),
        6 => format!("v < {}.5", rng.below(10)),
        7 => "n IS NULL".into(),
        8 => "n IS NOT NULL".into(),
        9 => "s LIKE 'a%'".into(),
        10 => format!("(k = {k} OR g = {g})"),
        11 => format!("k + g > {k}"),
        12 => format!("k * 2 = {}", k * 2),
        13 => "k > g * 4".into(),
        14 => format!("g NOT IN ({g}, 0)"),
        _ => format!("CASE WHEN n IS NULL THEN 0 ELSE n END = {}", rng.below(6)),
    }
}

fn all_rows(hana: &HanaPlatform, s: &Session) -> Vec<Row> {
    hana.execute_sql(s, "SELECT * FROM t").unwrap().rows
}

/// Byte-level multiset view of rows (`Value`'s own equality treats
/// `2` and `2.0` alike; this does not).
fn multiset(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn filter_of(sql: &str) -> Expr {
    match parse_statement(sql).unwrap() {
        Statement::Query(q) => q.filter.unwrap(),
        other => panic!("not a query: {other:?}"),
    }
}

/// Every row of a distributed table sits on the node its key routes to.
fn assert_rows_at_home(hana: &HanaPlatform, cid: u64) {
    if let TableSource::Distributed(dt) = &hana.catalog().table("t").unwrap().source {
        for node in dt.nodes() {
            for row in node.snapshot_rows(cid) {
                assert_eq!(dt.route(row.values()), node.id(), "stray row {row:?}");
            }
        }
    }
}

proptest! {
    #[test]
    fn dml_touches_exactly_the_rows_select_returns(
        kind in 0usize..5,
        index in 0u8..3,
        merge in 0u8..3,
        update in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind];
        let mut rng = TestRng::deterministic(&format!("dml_locate-{seed}"));
        let hana = HanaPlatform::new_in_memory();
        let s = hana.connect("SYSTEM", "manager").unwrap();
        create(&hana, &s, kind);
        let n = 20 + rng.below(60) as usize;
        let rows: Vec<Row> = (0..n).map(|_| random_row(&mut rng)).collect();
        hana.load_rows(&s, "t", &rows).unwrap();
        // Index shapes (column-backed single-fragment tables only).
        if matches!(kind, "column" | "hybrid") {
            match index {
                1 => drop(hana.execute_sql(&s, "CREATE INDEX ix ON t (k)").unwrap()),
                2 => drop(hana.execute_sql(&s, "CREATE INDEX ix ON t (g, k)").unwrap()),
                _ => {}
            }
        }
        // Merge states: never merged / merged / merged + fresh delta.
        if kind != "row" && merge > 0 {
            hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
            if merge == 2 {
                let fresh: Vec<Row> = (0..10).map(|_| random_row(&mut rng)).collect();
                for r in &fresh {
                    let vals: Vec<String> = r.values().iter().map(|v| match v {
                        Value::Varchar(s) => format!("'{s}'"),
                        other => other.to_string(),
                    }).collect();
                    hana.execute_sql(&s, &format!("INSERT INTO t VALUES ({})", vals.join(", ")))
                        .unwrap();
                }
            }
        }

        let conjuncts: Vec<String> =
            (0..1 + rng.below(3)).map(|_| random_conjunct(&mut rng)).collect();
        let p = conjuncts.join(" AND ");
        let select = format!("SELECT * FROM t WHERE {p}");
        let schema: Schema = hana.catalog().table("t").unwrap().source.schema();
        let filter = filter_of(&select).resolve(&schema, &[]).unwrap();

        let before = all_rows(&hana, &s);
        let (hit, miss): (Vec<Row>, Vec<Row>) = before
            .iter()
            .cloned()
            .partition(|r| evaluate_predicate(&filter, r).unwrap());
        let selected = hana.execute_sql(&s, &select).unwrap().rows;
        prop_assert_eq!(multiset(&selected), multiset(&hit), "SELECT vs oracle: {}", p);

        // Hybrid tables delete from the extended store by pushed-down
        // predicates only; a filter with other conjuncts is refused
        // whole, and the statement must then change nothing.
        let (dml, expected) = if update {
            // `k + 11` crosses hash buckets and range split points.
            let assignments = [("k", "k + 11"), ("v", "v * 2 + 1"), ("s", "'upd'")];
            let (col, expr) = assignments[rng.below(3) as usize];
            let set = filter_of(&format!("SELECT * FROM t WHERE {expr} = 0"));
            let Expr::Binary { left: new_value, .. } = set else { unreachable!() };
            let at = schema.require(col).unwrap();
            let new_value = new_value.resolve(&schema, &[]).unwrap();
            let mut expected = miss.clone();
            for old in &hit {
                let mut new = old.clone();
                new.0[at] = evaluate(&new_value, old).unwrap();
                expected.push(new);
            }
            (format!("UPDATE t SET {col} = {expr} WHERE {p}"), expected)
        } else {
            (format!("DELETE FROM t WHERE {p}"), miss.clone())
        };
        match hana.execute_sql(&s, &dml) {
            Ok(rs) => {
                prop_assert_eq!(
                    rs.scalar().unwrap().as_i64(),
                    Some(hit.len() as i64),
                    "rows affected by {}", dml
                );
                prop_assert_eq!(multiset(&all_rows(&hana, &s)), multiset(&expected), "{}", dml);
            }
            Err(e) => {
                prop_assert!(
                    kind == "hybrid" && !update && e.to_string().contains("not fully pushable"),
                    "{dml}: {e}"
                );
                prop_assert_eq!(multiset(&all_rows(&hana, &s)), multiset(&before), "{}", dml);
            }
        }
        assert_rows_at_home(&hana, hana.transaction_manager().last_commit_id());
    }
}

fn attr(node: &hana_data_platform::obs::ProfileNode, name: &str) -> u64 {
    node.attrs
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("span {} has no attr {name}: {:?}", node.name, node.attrs))
        .1
}

/// The filter is never evaluated on a row the index or the lowered
/// predicates already excluded: the statement's own profile shows the
/// access path and how many candidate rows it handed back.
#[test]
fn keyed_dml_on_a_large_table_seeks_instead_of_scanning() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(&s, "CREATE COLUMN TABLE big (k INTEGER, v INTEGER)")
        .unwrap();
    let rows: Vec<Row> = (0..100_000)
        .map(|i| Row::from_values([Value::Int(i), Value::Int(i % 7)]))
        .collect();
    hana.load_rows(&s, "big", &rows).unwrap();
    hana.execute_sql(&s, "MERGE DELTA OF big").unwrap();
    hana.execute_sql(&s, "CREATE INDEX ix_k ON big (k)")
        .unwrap();

    let (rs, profile) = hana
        .profile_query(&s, "DELETE FROM big WHERE k = 4242")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(1));
    let seek = profile.find("index_seek[big.ix_k]").expect("DELETE seeks");
    assert_eq!(attr(seek, "input_rows"), 100_000);
    assert_eq!(attr(seek, "seek_hits"), 1);
    assert_eq!(attr(seek, "candidate_rows"), 1);
    assert!(profile.find("column_scan[big]").is_none());

    // A non-lowerable conjunct is evaluated on the seek's candidates.
    let (rs, profile) = hana
        .profile_query(&s, "UPDATE big SET v = 99 WHERE k = 77 AND v + k > 0")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(1));
    let seek = profile.find("index_seek[big.ix_k]").expect("UPDATE seeks");
    assert_eq!(attr(seek, "candidate_rows"), 1);
    assert_eq!(seek.rows, Some(1));

    // Without an index the lowered predicate runs in the scan kernels
    // and only its hits become candidates.
    hana.execute_sql(&s, "DROP INDEX ix_k ON big").unwrap();
    let (rs, profile) = hana
        .profile_query(&s, "DELETE FROM big WHERE k = 5 AND v * 2 < 100")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64(), Some(1));
    let scan = profile.find("column_scan[big]").expect("DELETE scans");
    assert_eq!(attr(scan, "candidate_rows"), 1);

    let left = hana.execute_sql(&s, "SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(left.scalar().unwrap().as_i64(), Some(99_998));
}

/// `locate_rows` plans `SELECT *`: whatever the filter names, a located
/// row carries every column of the table (an UPDATE rewrites the whole
/// row from it), never the SELECT path's pruned leaf projection.
#[test]
fn located_rows_carry_every_column() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    create(&hana, &s, "column");
    let mut rng = TestRng::deterministic("dml_locate-columns");
    let rows: Vec<Row> = (0..50).map(|_| random_row(&mut rng)).collect();
    hana.load_rows(&s, "t", &rows).unwrap();
    hana.execute_sql(&s, "CREATE INDEX ix_k ON t (k)").unwrap();

    let cid = hana.transaction_manager().last_commit_id();
    let exec = hana_exec::ExecContext::global();
    let schema: Schema = hana.catalog().table("t").unwrap().source.schema();
    for sql in [
        "SELECT g FROM t WHERE k = 7",
        "SELECT g FROM t WHERE g + 1 > 2",
    ] {
        let filter = filter_of(sql);
        let located = locate_rows(exec, hana.catalog().as_ref(), "t", Some(&filter), cid).unwrap();
        let got: Vec<Row> = located.into_iter().flat_map(|l| l.rows).collect();
        let resolved = filter.resolve(&schema, &[]).unwrap();
        let want: Vec<Row> = rows
            .iter()
            .filter(|r| evaluate_predicate(&resolved, r).unwrap())
            .cloned()
            .collect();
        assert!(!want.is_empty(), "{sql}");
        assert_eq!(multiset(&got), multiset(&want), "{sql}");
    }
}
