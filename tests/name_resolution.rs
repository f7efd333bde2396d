//! Column names are resolved once, when the statement is planned:
//! ORDER BY sorts by what it names, and an unknown or ambiguous column
//! is an error whether or not a row ever reaches the expression that
//! names it — EXPLAIN included.

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::query::PlannerContext;
use hana_data_platform::sql::{parse_statement, Statement};
use hana_data_platform::{Row, Value};

/// `t (k, v)`, seven rows: `v = 20` twice (k 1, 2), `v = 30` four times
/// (k 3–6), `v = 10` once (k 7), inserted in `k` order; `e` is empty.
fn seven_rows() -> (HanaPlatform, Session) {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, v INTEGER)")
        .unwrap();
    hana.execute_sql(&s, "CREATE COLUMN TABLE e (k INTEGER, v INTEGER)")
        .unwrap();
    for (k, v) in [
        (1, 20),
        (2, 20),
        (3, 30),
        (4, 30),
        (5, 30),
        (6, 30),
        (7, 10),
    ] {
        hana.execute_sql(&s, &format!("INSERT INTO t VALUES ({k}, {v})"))
            .unwrap();
    }
    (hana, s)
}

fn rows(hana: &HanaPlatform, s: &Session, sql: &str) -> Vec<Vec<i64>> {
    let rs = hana
        .execute_sql(s, sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let int = |v: &Value| v.as_i64().unwrap_or_else(|| panic!("{sql}: {v}"));
    rs.rows
        .iter()
        .map(|r: &Row| r.values().iter().map(int).collect())
        .collect()
}

fn assert_unknown_column(hana: &HanaPlatform, s: &Session, sql: &str) {
    let err = hana
        .execute_sql(s, sql)
        .err()
        .unwrap_or_else(|| panic!("{sql} ran"));
    assert!(
        err.to_string().contains("unknown column 'nosuch'"),
        "{sql}: {err}"
    );
}

#[test]
fn order_by_an_aggregate_sorts_by_it() {
    let (hana, s) = seven_rows();
    assert_eq!(
        rows(
            &hana,
            &s,
            "SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY COUNT(*) DESC"
        ),
        [[30, 4], [20, 2], [10, 1]]
    );
    // Not in the select list: the aggregation stage's `_aN` column.
    assert_eq!(
        rows(&hana, &s, "SELECT v FROM t GROUP BY v ORDER BY SUM(k)"),
        [[20], [10], [30]]
    );
}

#[test]
fn order_by_a_group_key_outside_the_select_list() {
    let (hana, s) = seven_rows();
    assert_eq!(
        rows(
            &hana,
            &s,
            "SELECT COUNT(*) FROM t GROUP BY v ORDER BY v DESC"
        ),
        [[4], [2], [1]]
    );
}

#[test]
fn order_by_an_input_column_outside_the_select_list() {
    let (hana, s) = seven_rows();
    assert_eq!(
        rows(&hana, &s, "SELECT k FROM t ORDER BY v DESC, k"),
        [[3], [4], [5], [6], [1], [2], [7]]
    );
    // An alias is an output column and wins over the input column.
    assert_eq!(
        rows(&hana, &s, "SELECT v AS k FROM t WHERE k > 4 ORDER BY k"),
        [[10], [30], [30]]
    );
    // Under DISTINCT the key must be a select item.
    assert_eq!(
        rows(&hana, &s, "SELECT DISTINCT v FROM t ORDER BY t.v DESC"),
        [[30], [20], [10]]
    );
    let err = hana
        .execute_sql(&s, "SELECT DISTINCT v FROM t ORDER BY k")
        .unwrap_err();
    assert!(err.to_string().contains("SELECT DISTINCT"), "{err}");
}

#[test]
fn order_by_an_unknown_column_is_an_error() {
    let (hana, s) = seven_rows();
    assert_unknown_column(&hana, &s, "SELECT k FROM t ORDER BY nosuch");
}

#[test]
fn an_unknown_select_item_fails_with_no_row_to_evaluate() {
    let (hana, s) = seven_rows();
    assert_unknown_column(&hana, &s, "SELECT nosuch FROM e");
    assert_unknown_column(&hana, &s, "SELECT nosuch FROM t WHERE k = 99");
}

#[test]
fn an_unknown_column_in_an_arm_no_row_takes_fails() {
    let (hana, s) = seven_rows();
    assert_unknown_column(
        &hana,
        &s,
        "SELECT CASE WHEN k > 100 THEN nosuch ELSE 0 END FROM t",
    );
}

#[test]
fn an_update_naming_an_unknown_column_fails_with_no_row_located() {
    let (hana, s) = seven_rows();
    assert_unknown_column(&hana, &s, "UPDATE t SET nosuch = 1 WHERE k = 99");
    assert_unknown_column(&hana, &s, "UPDATE t SET v = nosuch + 1 WHERE k = 99");
    assert_eq!(
        rows(&hana, &s, "SELECT SUM(v) FROM t"),
        [[170]],
        "nothing changed"
    );
}

#[test]
fn explain_fails_on_an_unknown_or_ambiguous_column_in_every_clause() {
    let (hana, _) = seven_rows();
    let explain = |sql: &str| {
        let Ok(Statement::Query(q)) = parse_statement(sql) else {
            panic!("not a query: {sql}")
        };
        let plan = PlannerContext::new(hana.catalog().as_ref())
            .planner()
            .plan(&q);
        plan.map(|p| p.explain())
    };
    // `t` and `e` both have `k` and `v`: a bare one in a join of the two
    // is ambiguous.
    let join = "FROM t JOIN e ON t.k = e.k";
    for (clause, unknown, ambiguous) in [
        (
            "residual WHERE",
            format!("SELECT t.k {join} WHERE t.v < nosuch"),
            format!("SELECT t.v {join} WHERE k > 1"),
        ),
        (
            "GROUP BY",
            "SELECT COUNT(*) FROM t GROUP BY nosuch".to_string(),
            format!("SELECT COUNT(*) {join} GROUP BY k"),
        ),
        (
            "HAVING",
            "SELECT v FROM t GROUP BY v HAVING nosuch > 1".to_string(),
            format!("SELECT t.v {join} GROUP BY t.v HAVING MAX(k) > 1"),
        ),
        (
            "ORDER BY",
            "SELECT k FROM t ORDER BY nosuch".to_string(),
            format!("SELECT t.v {join} ORDER BY k"),
        ),
        (
            "select list",
            "SELECT nosuch FROM t".to_string(),
            format!("SELECT k {join}"),
        ),
        (
            "join ON",
            "SELECT t.k FROM t JOIN e ON t.k = nosuch".to_string(),
            "SELECT t.v FROM t JOIN e ON t.k = k + 0".to_string(),
        ),
    ] {
        let err = explain(&unknown).expect_err(&unknown).to_string();
        assert!(err.contains("unknown column 'nosuch'"), "{clause}: {err}");
        let err = explain(&ambiguous).expect_err(&ambiguous).to_string();
        assert!(err.contains("ambiguous column 'k'"), "{clause}: {err}");
    }
}
