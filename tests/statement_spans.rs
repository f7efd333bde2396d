//! A session statement explains its own time: `Session::execute` and
//! `Session::execute_prepared` open a root `statement` span whose
//! children — `parse` (text only), `lift`, `cache_get`, `plan` (cache
//! miss only), `admit`, `execute` — cover it. Without a tracer the
//! spans are inert. A MERGE DELTA opens `merge_delta[<table>]`, a bulk
//! load `bulk_load[<table>]` and a durable reopen `open`, whose phases
//! cover them the same way, and a durable INSERT commits under its
//! `execute`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use hana_core::HanaPlatform;
use hana_obs::{SpanRecord, Tracer};
use hana_session::{Session, SessionManager};
use hana_types::{Row, Value};

/// Every test here times spans, so they run one at a time: none times
/// another's work.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A session over an `accounts` table of `rows` rows, loaded, merged
/// and indexed on `k`.
fn accounts(rows: i64) -> (SessionManager, Session) {
    let platform = Arc::new(HanaPlatform::new_in_memory());
    let admin = platform.connect("SYSTEM", "manager").unwrap();
    platform
        .execute_sql(
            &admin,
            "CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER)",
        )
        .unwrap();
    let data: Vec<Row> = (0..rows)
        .map(|k| Row::from_values([Value::Int(k), Value::Int(k % 97)]))
        .collect();
    platform.load_rows(&admin, "accounts", &data).unwrap();
    platform
        .execute_sql(&admin, "MERGE DELTA OF accounts")
        .unwrap();
    platform
        .execute_sql(&admin, "CREATE INDEX ix_accounts_k ON accounts (k)")
        .unwrap();
    let manager = SessionManager::new(platform);
    let session = manager.connect("SYSTEM", "manager").unwrap();
    (manager, session)
}

/// The spans of one call run under a fresh tracer.
fn traced(f: impl FnOnce()) -> Vec<SpanRecord> {
    let tracer = Tracer::new();
    {
        let _installed = tracer.install();
        f();
    }
    tracer.spans()
}

/// One traced statement's root wall and its children's walls by name.
struct Split {
    root_ns: u64,
    children: BTreeMap<String, u64>,
}

fn split(spans: &[SpanRecord]) -> Split {
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one root span: {spans:?}");
    let root = roots[0];
    assert_eq!(root.name, "statement");
    let mut children = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == Some(root.id)) {
        *children.entry(s.name.clone()).or_insert(0) += s.wall_ns();
    }
    Split {
        root_ns: root.wall_ns(),
        children,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// `reads` traced point reads of each kind, the prepared one first.
fn traced_reads(session: &Session, rows: i64, reads: i64) -> [Vec<Split>; 2] {
    let lookup = session
        .prepare("SELECT v FROM accounts WHERE k = ?")
        .unwrap();
    let key = |i: i64| (i * 7_919) % rows;
    let prepared = |i: i64| {
        let rs = session.execute_prepared(&lookup, &[Value::Int(key(i))]);
        assert_eq!(rs.unwrap().rows[0][0], Value::Int(key(i) % 97));
    };
    let adhoc = |i: i64| {
        let rs = session.execute(&format!("SELECT v FROM accounts WHERE k = {}", key(i)));
        assert_eq!(rs.unwrap().rows[0][0], Value::Int(key(i) % 97));
    };
    // Warm: the shape's one plan is cached, so no read below plans.
    for i in 0..32 {
        prepared(i);
        adhoc(i);
    }
    let runs = |read: &dyn Fn(i64)| {
        (0..reads)
            .map(|i| split(&traced(|| read(i))))
            .collect::<Vec<_>>()
    };
    [runs(&prepared), runs(&adhoc)]
}

#[test]
fn a_point_reads_children_cover_its_statement_span() {
    let _alone = alone();
    let (_manager, session) = accounts(20_000);
    let [prepared, adhoc] = traced_reads(&session, 20_000, 200);
    for (kind, splits, names) in [
        (
            "prepared",
            &prepared,
            &["admit", "cache_get", "execute", "lift"][..],
        ),
        (
            "ad hoc",
            &adhoc,
            &["admit", "cache_get", "execute", "lift", "parse"][..],
        ),
    ] {
        for s in splits {
            let got: Vec<&str> = s.children.keys().map(String::as_str).collect();
            assert_eq!(got, names, "{kind}: a cache hit binds and plans nothing");
        }
        let coverage = median(
            (splits.iter())
                .map(|s| s.children.values().sum::<u64>() as f64 / s.root_ns as f64)
                .collect(),
        );
        assert!(
            coverage >= 0.95,
            "{kind}: the children cover {coverage:.3} of the statement span"
        );
    }
}

/// Under a tracer, the `execute` child of a point read costs about the
/// same over 200 000 rows as over 2 000: the index seek hands back the
/// row it found, and nothing on the read's path is sized by the table.
/// The other children do not see the table at all.
#[test]
fn a_point_reads_execute_span_does_not_grow_with_the_table() {
    let _alone = alone();
    let fastest_execute = |rows: i64| {
        let (_manager, session) = accounts(rows);
        let [prepared, adhoc] = traced_reads(&session, rows, 300);
        let fastest = |splits: &[Split]| {
            (splits.iter())
                .map(|s| s.children["execute"])
                .min()
                .unwrap()
        };
        [fastest(&prepared), fastest(&adhoc)]
    };
    let small = fastest_execute(2_000);
    let large = fastest_execute(200_000);
    for (kind, small, large) in [
        ("prepared", small[0], large[0]),
        ("ad hoc", small[1], large[1]),
    ] {
        eprintln!(
            "{kind}: fastest execute span {small} ns over 2 000 rows, {large} ns over 200 000"
        );
        assert!(
            large < 2 * small,
            "{kind}: execute took {large} ns over 200 000 rows, {small} ns over 2 000"
        );
    }
}

/// A traced MERGE DELTA explains its own time: its
/// `merge_delta[<table>]` span's children — `merge_columns` and
/// `rebuild_indexes` from the column table, then `statistics` and
/// `checkpoint` — cover it, and `merge_columns` reports the rows it
/// merged and the dictionary entries the delta added.
#[test]
fn a_merge_deltas_children_cover_its_span() {
    let _alone = alone();
    let dir = std::env::temp_dir().join(format!("hana-merge-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (platform, _) = HanaPlatform::open_durable(&dir).unwrap();
    let admin = platform.connect("SYSTEM", "manager").unwrap();
    let sql = |q: &str| platform.execute_sql(&admin, q).unwrap();
    sql("CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER)");
    let load = |keys: std::ops::Range<i64>| {
        let data: Vec<Row> = keys
            .map(|k| Row::from_values([Value::Int(k), Value::Int(k % 97)]))
            .collect();
        platform.load_rows(&admin, "accounts", &data).unwrap();
    };
    load(0..20_000);
    sql("MERGE DELTA OF accounts");
    sql("CREATE INDEX ix_accounts_k ON accounts (k)");
    let mut coverage = Vec::new();
    for round in 0..3 {
        let first = 20_000 + round * 3_000;
        load(first..first + 3_000);
        let spans = traced(|| {
            sql("MERGE DELTA OF accounts");
        });
        let merge = (spans.iter())
            .find(|s| s.name == "merge_delta[accounts]")
            .unwrap_or_else(|| panic!("no merge span: {spans:?}"));
        let children: Vec<&SpanRecord> = (spans.iter())
            .filter(|s| s.parent == Some(merge.id))
            .collect();
        let names: Vec<&str> = children.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "merge_columns",
                "rebuild_indexes",
                "statistics",
                "checkpoint"
            ]
        );
        let attrs = |name: &str| (children.iter().find(|s| s.name == name).unwrap().attrs).clone();
        let rows = (first + 3_000) as u64;
        assert_eq!(
            attrs("merge_columns"),
            [
                ("rows".to_string(), rows),
                ("delta_rows".to_string(), 3_000),
                ("entries_added".to_string(), 3_000),
            ]
        );
        let covered: u64 = children.iter().map(|s| s.wall_ns()).sum();
        coverage.push(covered as f64 / merge.wall_ns() as f64);
    }
    drop(platform);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("merge span coverage per round: {coverage:.3?}");
    let coverage = median(coverage);
    assert!(
        coverage >= 0.95,
        "the children cover {coverage:.3} of the merge span"
    );
}

/// The children of the one span named `name` in `spans`, and the share
/// of its wall they cover.
fn children_of<'a>(spans: &'a [SpanRecord], name: &str) -> (Vec<&'a SpanRecord>, f64) {
    let parent = (spans.iter())
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no {name} span: {spans:?}"));
    let children: Vec<&SpanRecord> = (spans.iter())
        .filter(|s| s.parent == Some(parent.id))
        .collect();
    let covered: u64 = children.iter().map(|s| s.wall_ns()).sum();
    (children, covered as f64 / parent.wall_ns() as f64)
}

fn names<'a>(spans: &[&'a SpanRecord]) -> Vec<&'a str> {
    spans.iter().map(|s| s.name.as_str()).collect()
}

/// A traced bulk load explains its own time: its `bulk_load[<table>]`
/// span's children — `encode` (every row checked and encoded), `commit`,
/// `statistics` and `checkpoint` — cover it.
#[test]
fn a_bulk_loads_children_cover_its_span() {
    let _alone = alone();
    let dir = std::env::temp_dir().join(format!("hana-load-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (platform, _) = HanaPlatform::open_durable(&dir).unwrap();
    let admin = platform.connect("SYSTEM", "manager").unwrap();
    platform
        .execute_sql(
            &admin,
            "CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER)",
        )
        .unwrap();
    let mut coverage = Vec::new();
    for round in 0..3 {
        let data: Vec<Row> = (round * 20_000..(round + 1) * 20_000)
            .map(|k| Row::from_values([Value::Int(k), Value::Int(k % 97)]))
            .collect();
        let spans = traced(|| {
            platform.load_rows(&admin, "accounts", &data).unwrap();
        });
        let (children, covered) = children_of(&spans, "bulk_load[accounts]");
        assert_eq!(
            names(&children),
            ["encode", "commit", "statistics", "checkpoint"]
        );
        coverage.push(covered);
    }
    drop(platform);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("bulk load span coverage per round: {coverage:.3?}");
    let coverage = median(coverage);
    assert!(
        coverage >= 0.95,
        "the children cover {coverage:.3} of the bulk load span"
    );
}

/// A traced durable reopen explains its own time: `open`'s children —
/// `log_read`, `restore` (the checkpoint's) and `redo` (the log after
/// it) — cover it, and `restore`'s — `tables`, `rows`, `indexes` and
/// `statistics` — cover the restore.
#[test]
fn a_durable_reopens_children_cover_its_span() {
    let _alone = alone();
    let dir = std::env::temp_dir().join(format!("hana-open-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    {
        let (platform, _) = HanaPlatform::open_durable(&dir).unwrap();
        let admin = platform.connect("SYSTEM", "manager").unwrap();
        let sql = |q: &str| platform.execute_sql(&admin, q).unwrap();
        sql("CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER)");
        sql("CREATE INDEX ix_accounts_k ON accounts (k)");
        let data: Vec<Row> = (0..20_000)
            .map(|k| Row::from_values([Value::Int(k), Value::Int(k % 97)]))
            .collect();
        // The load checkpoints; the inserts after it are redone.
        platform.load_rows(&admin, "accounts", &data).unwrap();
        for k in 20_000..20_050 {
            sql(&format!("INSERT INTO accounts VALUES ({k}, 1)"));
        }
    }
    let (mut open, mut restore) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut reopened = None;
        let spans = traced(|| {
            reopened = Some(HanaPlatform::open_durable(&dir).unwrap());
        });
        let (platform, redone) = reopened.unwrap();
        assert_eq!(redone, 50);
        drop(platform);
        let (children, covered) = children_of(&spans, "open");
        assert_eq!(names(&children), ["log_read", "restore", "redo"]);
        open.push(covered);
        let (children, covered) = children_of(&spans, "restore");
        assert_eq!(
            names(&children),
            ["tables", "rows", "indexes", "statistics"]
        );
        restore.push(covered);
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("open span coverage per reopen: {open:.3?}; restore: {restore:.3?}");
    for (name, coverage) in [("open", median(open)), ("restore", median(restore))] {
        assert!(
            coverage >= 0.95,
            "the children cover {coverage:.3} of the {name} span"
        );
    }
}

/// A traced durable INSERT explains its own time the same way: `parse`,
/// `admit` and `execute` cover its statement span, and its commit's
/// `commit_wait` (the fsync) and `publish` (its CID passing the commit
/// watermark) run under `execute`.
#[test]
fn a_durable_inserts_children_cover_its_statement_span() {
    let _alone = alone();
    let dir = std::env::temp_dir().join(format!("hana-insert-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (platform, _) = HanaPlatform::open_durable(&dir).unwrap();
    let manager = SessionManager::new(Arc::new(platform));
    let session = manager.connect("SYSTEM", "manager").unwrap();
    session
        .execute("CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER)")
        .unwrap();
    let mut coverage = Vec::new();
    for k in 0..50 {
        let spans = traced(|| {
            session
                .execute(&format!("INSERT INTO accounts VALUES ({k}, 1)"))
                .unwrap();
        });
        let s = split(&spans);
        let got: Vec<&str> = s.children.keys().map(String::as_str).collect();
        assert_eq!(got, ["admit", "execute", "parse"]);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap().id;
        let execute = (spans.iter())
            .find(|s| s.name == "execute" && s.parent == Some(root))
            .unwrap()
            .id;
        let under_execute = |span: &SpanRecord| {
            let mut parent = span.parent;
            while let Some(id) = parent.filter(|&id| id != execute) {
                parent = spans.iter().find(|s| s.id == id).and_then(|s| s.parent);
            }
            parent == Some(execute)
        };
        let waits: Vec<&SpanRecord> = (spans.iter())
            .filter(|s| s.name == "commit_wait" || s.name == "publish")
            .collect();
        for name in ["commit_wait", "publish"] {
            assert!(waits.iter().any(|s| s.name == name), "no {name}: {spans:?}");
        }
        assert!(waits.iter().all(|s| under_execute(s)), "{spans:?}");
        coverage.push(s.children.values().sum::<u64>() as f64 / s.root_ns as f64);
    }
    drop((session, manager));
    let _ = std::fs::remove_dir_all(&dir);
    let coverage = median(coverage);
    assert!(
        coverage >= 0.95,
        "the children cover {coverage:.3} of a durable INSERT's statement span"
    );
}
