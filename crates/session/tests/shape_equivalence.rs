//! Parameterised ≡ literal: a statement run as a prepared shape with
//! values, as ad-hoc text through the session, and as text through
//! `HanaPlatform::execute_sql` (which lifts nothing and caches nothing)
//! returns the same rows — over column tables with rows in main and
//! delta, with and without an index, and a row table. The literal
//! statement through the platform is the oracle; it lives here, in
//! tests, and nowhere on the statement path.

use std::sync::{Arc, OnceLock};

use hana_core::HanaPlatform;
use hana_session::SessionManager;
use hana_sql::probe;
use hana_types::{Date, ResultSet, Row, Value};
use proptest::prelude::*;

const MAIN_ROWS: i64 = 300;
const DELTA_ROWS: i64 = 100;
const STRINGS: [&str; 6] = ["plain", "it's", "what?", "a?'b", "", "?"];

fn day(n: i64) -> Date {
    Date::parse(&format!("1995-01-{:02}", 1 + n.rem_euclid(28))).unwrap()
}

fn fact_row(k: i64) -> Row {
    Row::from_values([
        Value::Int(k),
        Value::Int(k % 7 - 3),
        if k % 11 == 0 {
            Value::Null
        } else {
            Value::from(STRINGS[k as usize % STRINGS.len()])
        },
        Value::Date(day(k)),
        Value::Double(k as f64 / 2.0 - 50.5),
    ])
}

/// `ci` (indexed on `(g, k)` and on `(x)`), `cn` (no index) and `rt`
/// (a row table) hold the same 400 rows — 300 merged into main, 100 in
/// the delta — and `dim` names each `g`.
fn platform() -> &'static Arc<HanaPlatform> {
    static PLATFORM: OnceLock<Arc<HanaPlatform>> = OnceLock::new();
    PLATFORM.get_or_init(|| {
        let hana = Arc::new(HanaPlatform::new_in_memory());
        let s = hana.connect("SYSTEM", "manager").unwrap();
        let cols = "(k INT, g INT, s VARCHAR(8), d DATE, x DOUBLE)";
        let main: Vec<Row> = (0..MAIN_ROWS).map(fact_row).collect();
        let delta: Vec<Row> = (MAIN_ROWS..MAIN_ROWS + DELTA_ROWS).map(fact_row).collect();
        for (kind, name) in [("COLUMN", "ci"), ("COLUMN", "cn"), ("ROW", "rt")] {
            let ddl = format!("CREATE {kind} TABLE {name} {cols}");
            hana.execute_sql(&s, &ddl).unwrap();
            hana.load_rows(&s, name, &main).unwrap();
            if kind == "COLUMN" {
                let merge = format!("MERGE DELTA OF {name}");
                hana.execute_sql(&s, &merge).unwrap();
            }
            hana.load_rows(&s, name, &delta).unwrap();
        }
        hana.execute_sql(&s, "CREATE INDEX ix_gk ON ci (g, k)")
            .unwrap();
        hana.execute_sql(&s, "CREATE INDEX ix_x ON ci (x)").unwrap();
        hana.execute_sql(&s, "CREATE COLUMN TABLE dim (g INT, name VARCHAR(8))")
            .unwrap();
        let dims: Vec<Row> = (-3..4)
            .map(|g| Row::from_values([Value::Int(g), Value::from(format!("g{g}"))]))
            .collect();
        hana.load_rows(&s, "dim", &dims).unwrap();
        hana
    })
}

/// A statement template over table `{t}` with one `?` per value, and
/// how to draw its values from three integers.
struct Template {
    sql: &'static str,
    values: fn(i64, i64, i64) -> Vec<Value>,
    plans: Plans,
}

/// How many plans the bindings of one template may end up with.
#[derive(Clone, Copy, PartialEq)]
enum Plans {
    /// Equality and `IN` slots only: one plan, whatever the values.
    One,
    /// A range slot: a binding 10× wider or narrower plans its own.
    Banded,
    /// A `?` where no literal is lifted, so the ad-hoc text (which has
    /// the literal there) is a shape of its own.
    Unshared,
}

fn lo_hi(a: i64, b: i64) -> (i64, i64) {
    (a.min(b), a.max(b))
}

const TEMPLATES: &[Template] = &[
    // Point read.
    Template {
        sql: "SELECT k, s FROM {t} WHERE k = ?",
        values: |a, _, _| vec![Value::Int(a)],
        plans: Plans::One,
    },
    // Range, the literal on either side.
    Template {
        sql: "SELECT k FROM {t} WHERE k > ? AND ? >= k",
        values: |a, b, _| {
            let (lo, hi) = lo_hi(a, b);
            vec![Value::Int(lo), Value::Int(hi)]
        },
        plans: Plans::Banded,
    },
    // BETWEEN over doubles, negative numbers included.
    Template {
        sql: "SELECT k, x FROM {t} WHERE x BETWEEN ? AND ?",
        values: |a, b, _| {
            let (lo, hi) = lo_hi(a, b);
            vec![
                Value::Double(lo as f64 / 2.0 - 60.25),
                Value::Double(hi as f64 / 2.0 - 60.25),
            ]
        },
        plans: Plans::Banded,
    },
    Template {
        sql: "SELECT k FROM {t} WHERE k IN (?, ?, ?)",
        values: |a, b, c| vec![Value::Int(a), Value::Int(b), Value::Int(c)],
        plans: Plans::One,
    },
    // Two-column index prefix + range on the next key column.
    Template {
        sql: "SELECT k, g FROM {t} WHERE g = ? AND k >= ? AND k < ?",
        values: |a, b, c| {
            let (lo, hi) = lo_hi(b, c);
            vec![Value::Int(a % 7 - 3), Value::Int(lo), Value::Int(hi)]
        },
        plans: Plans::Banded,
    },
    // Join with a literal in ON (a nested-loop join) ...
    Template {
        sql: "SELECT t.k, d.name FROM {t} t JOIN dim d ON t.g = d.g AND d.g < ? WHERE t.k < ?",
        values: |a, b, _| vec![Value::Int(a % 7 - 3), Value::Int(b / 4)],
        plans: Plans::Banded,
    },
    // ... and an equi join with literals on both sides of it.
    Template {
        sql: "SELECT t.k, d.name FROM {t} t JOIN dim d ON t.g = d.g WHERE d.name = ? AND t.k > ?",
        values: |a, b, _| vec![Value::from(format!("g{}", a % 7 - 3)), Value::Int(b)],
        plans: Plans::Banded,
    },
    // HAVING with a literal.
    Template {
        sql: "SELECT g, COUNT(*) AS n FROM {t} WHERE k < ? GROUP BY g HAVING COUNT(*) > ?",
        values: |a, b, _| vec![Value::Int(a), Value::Int(b % 60)],
        plans: Plans::Banded,
    },
    // NULL compares with nothing.
    Template {
        sql: "SELECT k FROM {t} WHERE s = ? OR k = ?",
        values: |a, _, _| vec![Value::Null, Value::Int(a)],
        plans: Plans::One,
    },
    // Strings holding `'` and `?`.
    Template {
        sql: "SELECT k, s FROM {t} WHERE s = ? AND k <> ?",
        values: |a, b, _| {
            vec![
                Value::from(STRINGS[a.rem_euclid(6) as usize]),
                Value::Int(b),
            ]
        },
        plans: Plans::Banded,
    },
    // DATE literals.
    Template {
        sql: "SELECT k, d FROM {t} WHERE d >= ? AND d < ? AND NOT (g = ?)",
        values: |a, b, c| {
            let (lo, hi) = lo_hi(a.rem_euclid(28), b.rem_euclid(28));
            vec![
                Value::Date(day(lo)),
                Value::Date(day(hi)),
                Value::Int(c % 7 - 3),
            ]
        },
        plans: Plans::Banded,
    },
    // The user's own `?` outside any comparison: select list,
    // aggregate argument, arithmetic operand.
    Template {
        sql: "SELECT k + ?, s FROM {t} WHERE k - ? = 10 ORDER BY 1",
        values: |a, b, _| vec![Value::Int(a), Value::Int(b)],
        plans: Plans::Unshared,
    },
    Template {
        sql: "SELECT g, SUM(k * ?), SUM(k * ?) FROM {t} WHERE k <= ? GROUP BY g",
        values: |a, b, c| vec![Value::Int(a % 5), Value::Int(b % 5), Value::Int(c)],
        plans: Plans::Unshared,
    },
];

/// `template` with each `?` replaced by the literal that writes `v`.
fn literal_text(template: &str, values: &[Value]) -> String {
    let mut parts = template.split('?');
    let mut sql = parts.next().unwrap().to_string();
    for (v, rest) in values.iter().zip(parts) {
        sql.push_str(&hana_sql::Expr::Literal(v.clone()).to_string());
        sql.push_str(rest);
    }
    sql
}

/// A result as a multiset: column names, then rows in sorted order (or
/// the kind of the error).
fn outcome(r: hana_types::Result<ResultSet>) -> Result<(Vec<String>, Vec<Row>), &'static str> {
    let rs = r.map_err(|e| e.kind())?;
    let names = rs.schema.columns().iter().map(|c| c.name.clone());
    let mut rows = rs.rows;
    rows.sort();
    Ok((names.collect(), rows))
}

proptest! {
    #[test]
    fn prepared_shape_equals_literal_text_equals_the_platform(
        a in -40i64..460,
        b in -40i64..460,
        c in -40i64..460,
        a2 in -40i64..460,
        b2 in -40i64..460,
    ) {
        let hana = platform();
        let sys = hana.connect("SYSTEM", "manager").unwrap();
        for template in TEMPLATES {
            for table in ["ci", "cn", "rt"] {
                let mgr = SessionManager::new(Arc::clone(hana));
                let session = mgr.connect("SYSTEM", "manager").unwrap();
                let sql = template.sql.replace("{t}", table);
                let prepared = session.prepare(&sql).unwrap();
                for (round, values) in [(template.values)(a, b, c), (template.values)(a2, b2, c)]
                    .iter()
                    .enumerate()
                {
                    let text = literal_text(&sql, values);
                    let oracle = outcome(hana.execute_sql(&sys, &text));
                    prop_assert!(oracle.is_ok(), "{text}: {oracle:?}");
                    let shaped = outcome(session.execute_prepared(&prepared, values));
                    prop_assert_eq!(&shaped, &oracle, "prepared {} {:?}", sql, values);
                    let adhoc = outcome(session.execute(&text));
                    prop_assert_eq!(&adhoc, &oracle, "ad-hoc {}", text);
                    // One plan serves the shape: other values plan
                    // nothing, unless a range among them is 10× wider or
                    // narrower and gets a plan of its own.
                    let (_, misses) = mgr.plan_cache().stats();
                    let entries = mgr.plan_cache().len();
                    match template.plans {
                        Plans::One => prop_assert_eq!((entries, misses), (1, 1), "{}", sql),
                        Plans::Banded => {
                            prop_assert!(entries <= 1 + round, "{sql}: {entries} entries")
                        }
                        Plans::Unshared => {}
                    }
                }
            }
        }
    }
}

fn manager() -> (SessionManager, hana_session::Session) {
    let mgr = SessionManager::new(Arc::new(HanaPlatform::new_in_memory()));
    let s = mgr.connect("SYSTEM", "manager").unwrap();
    s.execute("CREATE COLUMN TABLE accounts (k INT, v INT, note VARCHAR(16))")
        .unwrap();
    (mgr, s)
}

/// 10 000 distinct keys, prepared and ad-hoc, from two sessions: one
/// entry, planned once.
#[test]
fn every_key_of_one_shape_shares_one_plan() {
    let (mgr, s1) = manager();
    let rows: Vec<Row> = (0..10_000i64)
        .map(|k| Row::from_values([Value::Int(k), Value::Int(k * 3), Value::from("n")]))
        .collect();
    let sys = mgr.platform().connect("SYSTEM", "manager").unwrap();
    mgr.platform().load_rows(&sys, "accounts", &rows).unwrap();
    s1.execute("MERGE DELTA OF accounts").unwrap();
    s1.execute("CREATE INDEX ix_k ON accounts (k)").unwrap();
    let s2 = mgr.connect("SYSTEM", "manager").unwrap();
    let p1 = s1.prepare("SELECT v FROM accounts WHERE k = ?").unwrap();
    let p2 = s2.prepare("select v from accounts where k=?").unwrap();
    for k in 0..10_000i64 {
        let rs = match k % 4 {
            0 => s1.execute_prepared(&p1, &[Value::Int(k)]),
            1 => s2.execute(&format!("SELECT v FROM accounts WHERE k = {k}")),
            2 => s2.execute_prepared(&p2, &[Value::Int(k)]),
            _ => s1.execute(&format!("SELECT v FROM accounts WHERE k = {k}")),
        }
        .unwrap();
        assert_eq!(rs.rows, vec![Row::from_values([Value::Int(k * 3)])]);
    }
    assert_eq!(mgr.plan_cache().len(), 1);
    assert_eq!(mgr.plan_cache().stats(), (9_999, 1));
}

/// The type of a value is part of the key: a plan's estimates and the
/// types it infers depend on it.
#[test]
fn bindings_of_different_types_never_share_a_plan() {
    let (mgr, s) = manager();
    s.execute("INSERT INTO accounts (k, v, note) VALUES (5, 50, 'five')")
        .unwrap();
    let p = s.prepare("SELECT v FROM accounts WHERE k = ?").unwrap();
    assert_eq!(s.execute_prepared(&p, &[Value::Int(5)]).unwrap().len(), 1);
    assert_eq!(mgr.plan_cache().len(), 1);
    assert_eq!(
        s.execute_prepared(&p, &[Value::from("x")]).unwrap().len(),
        0
    );
    assert_eq!(mgr.plan_cache().len(), 2, "Int and Varchar: two entries");
    s.execute_prepared(&p, &[Value::Int(6)]).unwrap();
    s.execute("SELECT v FROM accounts WHERE k = 'y'").unwrap();
    assert_eq!(mgr.plan_cache().len(), 2);
    assert_eq!(mgr.plan_cache().stats().1, 2);
}

#[test]
fn a_bind_mismatch_names_both_counts() {
    let (_, s) = manager();
    let p = s
        .prepare("SELECT v FROM accounts WHERE k = ? AND v > ?")
        .unwrap();
    assert_eq!(p.param_count(), 2);
    let err = s.execute_prepared(&p, &[Value::Int(1)]).unwrap_err();
    assert_eq!(err.kind(), "plan");
    assert!(
        err.to_string()
            .contains("statement declares 2 parameter(s) but 1 value(s) were bound"),
        "{err}"
    );
    let dml = s.prepare("DELETE FROM accounts WHERE k = ?").unwrap();
    let err = s.execute_prepared(&dml, &[]).unwrap_err();
    assert!(
        err.to_string()
            .contains("statement declares 1 parameter(s) but 0 value(s) were bound"),
        "{err}"
    );
    // Ad-hoc text has no values to give its placeholders.
    let err = s.execute("SELECT v FROM accounts WHERE k = ?").unwrap_err();
    assert!(err.to_string().contains("declares 1 parameter(s)"), "{err}");
    // And a `?` where no value can go never gets as far as a bind.
    let err = s.prepare("SELECT v FROM accounts LIMIT ?").err().unwrap();
    assert_eq!(err.kind(), "parse");
}

/// What a plan-cache hit costs, counted where the work is done
/// (`hana_sql::probe`): no AST copy, no plan, no plan clone — and for a
/// prepared statement no rendering either. Ad-hoc text renders once: the
/// text of its shape *is* its key.
#[test]
fn a_hit_binds_renders_plans_and_clones_nothing() {
    let (_, s) = manager();
    for k in 0..50 {
        s.execute(&format!(
            "INSERT INTO accounts (k, v, note) VALUES ({k}, {k}, 'n')"
        ))
        .unwrap();
    }
    let point = s.prepare("SELECT v FROM accounts WHERE k = ?").unwrap();
    let range = s
        .prepare("SELECT k, v + 1 FROM accounts WHERE k BETWEEN ? AND 40 AND note <> 'x'")
        .unwrap();
    s.execute_prepared(&point, &[Value::Int(1)]).unwrap();
    s.execute_prepared(&range, &[Value::Int(10)]).unwrap();

    let before = probe::counts();
    for k in 2..20 {
        let rs = s.execute_prepared(&point, &[Value::Int(k)]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(k));
        let rs = s.execute_prepared(&range, &[Value::Int(k)]).unwrap();
        assert_eq!(rs.len(), 41 - k as usize);
    }
    assert_eq!(probe::counts(), before, "[bind, render, plan, plan clone]");

    s.execute("SELECT v FROM accounts WHERE k = 7").unwrap();
    let after = probe::counts();
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(delta, [0, 1, 0, 0], "ad-hoc: the key is rendered, once");

    // Prepared DML binds its values but renders nothing: the log takes
    // the rows it writes, not its text.
    let insert = s
        .prepare("INSERT INTO accounts (k, v, note) VALUES (?, ?, ?)")
        .unwrap();
    let update = s.prepare("UPDATE accounts SET v = ? WHERE k = ?").unwrap();
    let before = probe::counts();
    for k in 100..110 {
        let params = [Value::Int(k), Value::Int(k), Value::from("p")];
        s.execute_prepared(&insert, &params).unwrap();
        s.execute_prepared(&update, &[Value::Int(-k), Value::Int(k)])
            .unwrap();
    }
    let renders =
        probe::counts()[probe::Work::Render as usize] - before[probe::Work::Render as usize];
    assert_eq!(renders, 0, "prepared INSERT and UPDATE render nothing");
}

/// The band: one prepared handle over a skewed indexed column seeks the
/// index for a narrow range and scans for a wide one — two plans under
/// one shape, side by side, each returning what the literal statement
/// returns.
#[test]
fn a_range_ten_times_wider_gets_its_own_plan() {
    let (mgr, s) = manager();
    // Half the rows share k = 0; the other half spread over 1..=5000.
    let rows: Vec<Row> = (0..10_000i64)
        .map(|i| {
            let k = if i % 2 == 0 { 0 } else { i / 2 + 1 };
            Row::from_values([Value::Int(k), Value::Int(i), Value::from("n")])
        })
        .collect();
    let sys = mgr.platform().connect("SYSTEM", "manager").unwrap();
    mgr.platform().load_rows(&sys, "accounts", &rows).unwrap();
    s.execute("MERGE DELTA OF accounts").unwrap();
    s.execute("CREATE INDEX ix_k ON accounts (k)").unwrap();

    let explain = |lo: i64, hi: i64| -> String {
        let sql = format!("EXPLAIN SELECT v FROM accounts WHERE k BETWEEN {lo} AND {hi}");
        let rs = s.execute(&sql).unwrap();
        rs.rows.iter().map(|r| r[0].to_string() + "\n").collect()
    };
    assert!(
        explain(100, 104).contains("Index Seek"),
        "{}",
        explain(100, 104)
    );
    assert!(
        explain(0, 4000).contains("Column Scan"),
        "{}",
        explain(0, 4000)
    );

    let p = s
        .prepare("SELECT v FROM accounts WHERE k BETWEEN ? AND ?")
        .unwrap();
    let literal = |lo: i64, hi: i64| {
        let sql = format!("SELECT v FROM accounts WHERE k BETWEEN {lo} AND {hi}");
        outcome(mgr.platform().execute_sql(&sys, &sql))
    };
    let narrow = outcome(s.execute_prepared(&p, &[Value::Int(100), Value::Int(104)]));
    assert_eq!(narrow, literal(100, 104));
    assert_eq!(mgr.plan_cache().len(), 1);
    let wide = outcome(s.execute_prepared(&p, &[Value::Int(0), Value::Int(4000)]));
    assert_eq!(wide, literal(0, 4000));
    assert_eq!(wide.as_ref().unwrap().1.len(), 5_000 + 4_000);
    assert_eq!(
        mgr.plan_cache().len(),
        2,
        "the wide binding planned its own"
    );

    // Both stay: each binding finds its plan again, and plans nothing.
    let (_, misses) = mgr.plan_cache().stats();
    let spans = |lo: i64, hi: i64| -> String {
        let tracer = hana_obs::Tracer::new();
        let _installed = tracer.install();
        s.execute_prepared(&p, &[Value::Int(lo), Value::Int(hi)])
            .unwrap();
        drop(_installed);
        tracer.profile().render()
    };
    assert!(
        spans(200, 203).contains("index_seek["),
        "{}",
        spans(200, 203)
    );
    assert!(
        spans(1, 3000).contains("column_scan["),
        "{}",
        spans(1, 3000)
    );
    assert_eq!(mgr.plan_cache().len(), 2);
    assert_eq!(mgr.plan_cache().stats().1, misses);
}
