//! E9 — seamless growth into the extended storage: data beyond the
//! in-memory budget lives on real disk pages, direct load bypasses the
//! in-memory store, and pushdown keeps response times reasonable.

use hana_data_platform::platform::HanaPlatform;
use hana_data_platform::{Row, Value};

#[test]
fn growth_beyond_memory_lands_on_disk_pages() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE TABLE bulk (id INTEGER, payload VARCHAR(64)) USING EXTENDED STORAGE",
    )
    .unwrap();
    let pages_before = hana.iq().cache().file().allocated_pages();
    let rows: Vec<Row> = (0..50_000)
        .map(|i| Row::from_values([Value::Int(i), Value::from(format!("payload-{i:058}"))]))
        .collect();
    hana.load_rows(&s, "bulk", &rows).unwrap();
    let pages_after = hana.iq().cache().file().allocated_pages();
    // ~50k rows * ~70 bytes over 16 KiB pages: real on-disk footprint.
    assert!(
        pages_after - pages_before > 100,
        "expected >100 disk pages, got {}",
        pages_after - pages_before
    );
    let (_, writes) = hana.iq().cache().file().stats.snapshot();
    assert!(writes > 100, "pages actually written: {writes}");

    // The data remains fully queryable with pushdown.
    let rs = hana
        .execute_sql(&s, "SELECT COUNT(*) FROM bulk WHERE id >= 49000")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(1000));
}

#[test]
fn chunk_pruning_limits_disk_reads() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE TABLE series (ts INTEGER, v DOUBLE) USING EXTENDED STORAGE",
    )
    .unwrap();
    // Time-ordered load: zone maps become selective per chunk.
    let rows: Vec<Row> = (0..40_000)
        .map(|i| Row::from_values([Value::Int(i), Value::Double((i % 100) as f64)]))
        .collect();
    hana.load_rows(&s, "series", &rows).unwrap();

    let pruned_before = hana
        .iq()
        .stats
        .chunks_pruned
        .load(std::sync::atomic::Ordering::Relaxed);
    let rs = hana
        .execute_sql(
            &s,
            "SELECT COUNT(*) FROM series WHERE ts BETWEEN 100 AND 200",
        )
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(101));
    let pruned = hana
        .iq()
        .stats
        .chunks_pruned
        .load(std::sync::atomic::Ordering::Relaxed)
        - pruned_before;
    assert!(
        pruned >= 8,
        "zone maps should prune most chunks, got {pruned}"
    );
}

#[test]
fn hot_and_cold_deletes_and_snapshots() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE TABLE log (id INTEGER, level VARCHAR(8)) USING EXTENDED STORAGE",
    )
    .unwrap();
    for i in 0..100 {
        hana.execute_sql(
            &s,
            &format!(
                "INSERT INTO log VALUES ({i}, '{}')",
                if i % 10 == 0 { "ERROR" } else { "INFO" }
            ),
        )
        .unwrap();
    }
    let rs = hana
        .execute_sql(&s, "DELETE FROM log WHERE level = 'INFO'")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(90));
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM log").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(10));
}

/// A join of two extended tables answers as the same join of column
/// tables holding the same rows: a qualified predicate filters the table
/// its qualifier names (both tables have a `w`), the ON clause reads
/// either way round, a LEFT OUTER JOIN keeps its unmatched row, and a
/// select item, ORDER BY or GROUP BY key reads the `w` it qualifies.
#[test]
fn extended_joins_answer_like_their_column_table_twins() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    let a_rows = [[1, 10, 5], [2, 20, 6], [3, 30, 7]];
    let c_rows = [[1, 100, 6], [2, 200, 5]];
    for (storage, a, c) in [("USING EXTENDED STORAGE", "ea", "ec"), ("", "ca", "cc")] {
        let column = if storage.is_empty() { "COLUMN " } else { "" };
        for (t, k, v, rows) in [(a, "ka", "va", &a_rows[..]), (c, "kc", "vc", &c_rows[..])] {
            hana.execute_sql(
                &s,
                &format!(
                    "CREATE {column}TABLE {t} ({k} INTEGER, {v} INTEGER, w INTEGER) {storage}"
                ),
            )
            .unwrap();
            let rows: Vec<Row> = rows
                .iter()
                .map(|r| Row::from_values(r.map(|x| Value::Int(x as i64))))
                .collect();
            hana.load_rows(&s, t, &rows).unwrap();
        }
    }
    for sql in [
        "SELECT a.ka, c.vc FROM {a} a JOIN {c} c ON a.ka = c.kc WHERE c.w = 5 ORDER BY a.ka",
        "SELECT a.ka, c.vc FROM {a} a JOIN {c} c ON c.kc = a.ka ORDER BY a.ka",
        "SELECT a.ka, c.vc FROM {a} a LEFT OUTER JOIN {c} c ON a.ka = c.kc ORDER BY a.ka",
        // `w` names a column of both tables: each reference reads the
        // one its qualifier names, in the select list, ORDER BY and
        // GROUP BY alike.
        "SELECT a.w, c.vc FROM {a} a JOIN {c} c ON a.ka = c.kc ORDER BY a.w",
        "SELECT c.w, SUM(a.va) FROM {a} a JOIN {c} c ON a.ka = c.kc GROUP BY c.w ORDER BY c.w",
    ] {
        let run = |a: &str, c: &str| {
            hana.execute_sql(&s, &sql.replace("{a}", a).replace("{c}", c))
                .unwrap_or_else(|e| panic!("{sql} over {a}, {c}: {e}"))
                .rows
        };
        assert_eq!(run("ea", "ec"), run("ca", "cc"), "{sql}");
    }
}

#[test]
fn bitmap_index_serves_low_cardinality_predicates() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE TABLE events (kind VARCHAR(8), n INTEGER) USING EXTENDED STORAGE",
    )
    .unwrap();
    let rows: Vec<Row> = (0..8192)
        .map(|i| {
            Row::from_values([
                Value::from(["click", "view", "buy"][i % 3]),
                Value::Int(i as i64),
            ])
        })
        .collect();
    hana.load_rows(&s, "events", &rows).unwrap();
    let hits_before = hana
        .iq()
        .stats
        .bitmap_index_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    let rs = hana
        .execute_sql(&s, "SELECT COUNT(*) FROM events WHERE kind = 'buy'")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_i64().unwrap(), 2730);
    let hits = hana
        .iq()
        .stats
        .bitmap_index_hits
        .load(std::sync::atomic::Ordering::Relaxed)
        - hits_before;
    assert!(hits >= 1, "FP-style bitmap index answered the equality");
}
