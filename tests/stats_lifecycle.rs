//! Statistics lifecycle: synopses are collected at delta-merge and bulk
//! load, versioned in the catalog, kept per-partition for distributed
//! tables, survive backup/restore, and — being advisory — can go stale
//! without ever corrupting results.

use hana_data_platform::columnar::TableStatistics;
use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::query::{Catalog, TableSource};
use hana_data_platform::{Row, Value};

fn connect() -> (HanaPlatform, Session) {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    (hana, s)
}

fn load(hana: &HanaPlatform, s: &Session, table: &str, n: i64) {
    let rows: Vec<Row> = (0..n)
        .map(|i| Row::from_values([Value::Int(i % 23), Value::Int(i)]))
        .collect();
    hana.load_rows(s, table, &rows).unwrap();
}

fn stats_of(hana: &HanaPlatform, table: &str) -> std::sync::Arc<TableStatistics> {
    hana.catalog()
        .statistics(table)
        .unwrap_or_else(|| panic!("no synopsis for '{table}'"))
        .table
}

/// MERGE DELTA collects a fresh synopsis and stamps it with the catalog
/// version, so cached plans built against the old one are invalidated.
#[test]
fn merge_delta_collects_and_versions_statistics() {
    let (hana, s) = connect();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, v INTEGER)")
        .unwrap();
    assert!(
        hana.catalog().statistics("t").is_none(),
        "an empty, never-merged table has no synopsis yet"
    );

    load(&hana, &s, "t", 1_000);
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    let first = hana.catalog().statistics("t").unwrap();
    assert_eq!(first.table.row_count, 1_000);
    let k = first.table.column("k").unwrap();
    assert_eq!(k.distinct_count, 23);
    assert_eq!(
        (k.min.clone(), k.max.clone()),
        (Some(Value::Int(0)), Some(Value::Int(22)))
    );

    // Grow the table; the next merge refreshes the synopsis and records
    // a strictly newer catalog version.
    load(&hana, &s, "t", 500);
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    let second = hana.catalog().statistics("t").unwrap();
    assert_eq!(second.table.row_count, 1_500);
    assert!(
        second.version > first.version,
        "refresh must move the synopsis version forward ({} -> {})",
        first.version,
        second.version
    );
}

/// Bulk load alone (no explicit merge) is a statistics trigger too.
#[test]
fn bulk_load_collects_statistics() {
    let (hana, s) = connect();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, v INTEGER)")
        .unwrap();
    load(&hana, &s, "t", 400);
    let stats = stats_of(&hana, "t");
    assert_eq!(stats.row_count, 400);
    assert_eq!(stats.column("v").unwrap().distinct_count, 400);
}

/// Backup, diverge, restore: the synopsis describes the restored data,
/// not the divergent pre-restore state.
#[test]
fn statistics_survive_backup_restore() {
    let (hana, s) = connect();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, v INTEGER)")
        .unwrap();
    load(&hana, &s, "t", 800);
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    let backup = hana.backup(&s).unwrap();

    // Diverge: grow the table past the backup point and refresh, so the
    // live synopsis no longer matches the backup image.
    load(&hana, &s, "t", 400);
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    assert_eq!(stats_of(&hana, "t").row_count, 1_200);

    hana.restore(&s, &backup).unwrap();
    let restored = stats_of(&hana, "t");
    assert_eq!(restored.row_count, 800, "synopsis matches restored data");
    assert_eq!(restored.column("k").unwrap().distinct_count, 23);
    let rs = hana.execute_sql(&s, "SELECT k FROM t").unwrap();
    assert_eq!(rs.rows.len(), 800, "and the data really is back at 800");
}

/// Distributed tables keep one synopsis per partition (feeding skew-aware
/// pricing in hana-dist) plus the merged table-level view; the partition
/// breakdown is consistent with the actual node layout, for both HASH
/// and RANGE (split-point) schemes.
#[test]
fn partitioned_tables_keep_per_partition_statistics() {
    let (hana, s) = connect();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE h (k INTEGER, v INTEGER) PARTITION BY HASH(k) PARTITIONS 4",
    )
    .unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE r (k INTEGER, v INTEGER) PARTITION BY RANGE(k) SPLIT AT (6, 12, 18)",
    )
    .unwrap();
    for t in ["h", "r"] {
        load(&hana, &s, t, 1_000);
        hana.execute_sql(&s, &format!("MERGE DELTA OF {t}"))
            .unwrap();
        let entry = hana.catalog().statistics(t).unwrap();
        let parts = entry
            .partitions
            .as_ref()
            .unwrap_or_else(|| panic!("'{t}' must carry per-partition synopses"));
        assert_eq!(parts.len(), 4);
        assert_eq!(
            parts.iter().map(|p| p.row_count).sum::<u64>(),
            1_000,
            "partition synopses of '{t}' must add up to the table"
        );
        assert_eq!(entry.table.row_count, 1_000);
        // Cross-check each synopsis against its node's fragment.
        let TableSource::Distributed(dt) = hana.catalog().resolve_table(t).unwrap() else {
            panic!("'{t}' should be distributed");
        };
        for (node, part) in dt.nodes().iter().zip(parts.iter()) {
            assert_eq!(
                part.row_count,
                node.table().read().row_count() as u64,
                "node fragment of '{t}' disagrees with its synopsis"
            );
        }
    }
    // RANGE split points shape the fragments: every partition synopsis
    // of `r` covers a disjoint key band.
    let entry = hana.catalog().statistics("r").unwrap();
    let parts = entry.partitions.as_ref().unwrap();
    let bands: Vec<(Value, Value)> = parts
        .iter()
        .map(|p| {
            let k = p.column("k").unwrap();
            (k.min.clone().unwrap(), k.max.clone().unwrap())
        })
        .collect();
    for pair in bands.windows(2) {
        assert!(
            pair[0].1 < pair[1].0,
            "range bands must not overlap: {bands:?}"
        );
    }
}

/// EXPLAIN provenance: a merged table plans from its synopsis and says
/// so; a table that never merged (delta-only) has none, and plans from
/// its live row count and the predicates' default selectivities — the
/// planner never reads table data to make up for a missing synopsis.
#[test]
fn explain_reports_estimate_provenance() {
    let (hana, s) = connect();
    hana.execute_sql(&s, "CREATE COLUMN TABLE merged (k INTEGER, v INTEGER)")
        .unwrap();
    load(&hana, &s, "merged", 200);
    hana.execute_sql(&s, "MERGE DELTA OF merged").unwrap();
    hana.execute_sql(&s, "CREATE COLUMN TABLE fresh (k INTEGER, v INTEGER)")
        .unwrap();
    for i in 0..20 {
        hana.execute_sql(&s, &format!("INSERT INTO fresh (k, v) VALUES ({i}, {i})"))
            .unwrap();
    }

    let explain = |sql: &str| {
        let rs = hana.execute_sql(&s, sql).unwrap();
        rs.rows
            .iter()
            .map(|r| format!("{:?}", r))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let stats_backed = explain("EXPLAIN SELECT v FROM merged WHERE k < 10");
    assert!(
        stats_backed.contains("[stats]"),
        "merged table must plan from its synopsis:\n{stats_backed}"
    );
    // Every `fresh.k` is below 1000, so any estimate derived from the
    // data would say 20 rows; the default range selectivity says 6.
    let no_synopsis = explain("EXPLAIN SELECT v FROM fresh WHERE k < 1000");
    assert!(
        no_synopsis.contains("est 6 rows [heuristic]"),
        "never-merged table: 20 live rows x 0.3 default selectivity:\n{no_synopsis}"
    );
}

/// Unmerged inserts make the synopsis stale; queries still see every
/// row because statistics only steer plans, never filter data.
#[test]
fn stale_statistics_do_not_hide_rows() {
    let (hana, s) = connect();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, v INTEGER)")
        .unwrap();
    load(&hana, &s, "t", 100);
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    assert_eq!(stats_of(&hana, "t").row_count, 100);

    // 50 more rows, all far outside the synopsis' [0, 22] key range,
    // sitting in the unmerged delta.
    for i in 0..50 {
        hana.execute_sql(
            &s,
            &format!("INSERT INTO t (k, v) VALUES ({}, {})", 1_000 + i, i),
        )
        .unwrap();
    }
    let rs = hana
        .execute_sql(&s, "SELECT k FROM t WHERE k >= 1000 ORDER BY k")
        .unwrap();
    assert_eq!(rs.rows.len(), 50, "stale synopsis must not hide delta rows");
    let all = hana.execute_sql(&s, "SELECT k FROM t").unwrap();
    assert_eq!(all.rows.len(), 150);

    // DROP TABLE retires the synopsis with the table.
    hana.execute_sql(&s, "DROP TABLE t").unwrap();
    assert!(hana.catalog().statistics("t").is_none());
}
