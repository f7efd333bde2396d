//! E13 — partitioned scale-out execution: distributed plans must return
//! byte-identical results to single-node plans, ship partial aggregates
//! instead of rows, prune partitions from predicates, and degrade under
//! link faults along the SDA error taxonomy.

use hana_data_platform::dist::FaultPlan;
use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::query::TableSource;
use hana_data_platform::{Row, Value};
use proptest::prelude::*;

/// An attribute of one operator span of a statement's own profile. The
/// `hana_dist_*` counters carry the same numbers process-wide, where
/// sibling tests move them; the profile belongs to the statement.
fn span_attr(profile: &hana_data_platform::obs::QueryProfile, span: &str, attr: &str) -> u64 {
    let node = profile
        .find(span)
        .unwrap_or_else(|| panic!("no {span} span in:\n{}", profile.render()));
    node.attrs
        .iter()
        .find(|(k, _)| k == attr)
        .unwrap_or_else(|| panic!("{span} has no {attr} attribute"))
        .1
}

/// A platform with a hash-partitioned table `t` and an identical
/// single-node column table `solo`, both loaded with `rows` rows of
/// `(k = i % 23, v = i)`.
fn setup(parts: usize, rows: usize) -> (HanaPlatform, Session) {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        &format!(
            "CREATE COLUMN TABLE t (k INTEGER, v INTEGER) \
             PARTITION BY HASH(k) PARTITIONS {parts}"
        ),
    )
    .unwrap();
    hana.execute_sql(&s, "CREATE COLUMN TABLE solo (k INTEGER, v INTEGER)")
        .unwrap();
    let data: Vec<Row> = (0..rows)
        .map(|i| Row::from_values([Value::Int((i % 23) as i64), Value::Int(i as i64)]))
        .collect();
    hana.load_rows(&s, "t", &data).unwrap();
    hana.load_rows(&s, "solo", &data).unwrap();
    (hana, s)
}

fn dist_table(
    hana: &HanaPlatform,
    name: &str,
) -> std::sync::Arc<hana_data_platform::dist::DistTable> {
    match hana.catalog().table(name).unwrap().source {
        TableSource::Distributed(dt) => dt,
        _ => panic!("'{name}' is not distributed"),
    }
}

#[test]
fn partitioned_group_by_is_byte_identical_and_ships_partials() {
    let (hana, s) = setup(4, 5_000);
    let dt = dist_table(&hana, "t");
    assert_eq!(dt.node_count(), 4);
    assert!(
        dt.nodes().iter().all(|n| n.row_count() > 0),
        "hash routing spreads rows over all four nodes"
    );

    let sql = "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY k ORDER BY k";
    let (dist, profile) = hana.profile_query(&s, sql).unwrap();
    let shuffled = profile
        .find("exchange[partial_agg]")
        .and_then(|x| x.rows)
        .expect("partial-aggregate exchange reports its shipped groups");
    let solo = hana
        .execute_sql(&s, &sql.replace("FROM t", "FROM solo"))
        .unwrap();

    assert_eq!(dist.rows.len(), 23);
    assert_eq!(
        dist.rows, solo.rows,
        "distributed GROUP BY is byte-identical"
    );
    // The shuffle carried partial aggregate states, not rows: at most
    // one state per (group, node), far below the 5 000 scanned rows.
    assert!(shuffled > 0, "partials crossed the links");
    assert!(
        shuffled <= 23 * 4,
        "shipped {shuffled} items; expected at most groups x nodes = 92"
    );
}

#[test]
fn selective_predicate_prunes_partitions() {
    let (hana, s) = setup(4, 2_000);

    let (dist, profile) = hana
        .profile_query(&s, "SELECT COUNT(*) FROM t WHERE k = 7")
        .unwrap();
    let scanned = span_attr(&profile, "dist_scan[t]", "partitions_scanned");
    let pruned = span_attr(&profile, "dist_scan[t]", "partitions_pruned");

    let solo = hana
        .execute_sql(&s, "SELECT COUNT(*) FROM solo WHERE k = 7")
        .unwrap();
    assert_eq!(dist.scalar().unwrap(), solo.scalar().unwrap());
    assert_eq!(scanned, 1, "a point predicate hits exactly one partition");
    assert_eq!(pruned, 3, "the other three partitions were skipped");
}

#[test]
fn range_partitioning_prunes_order_predicates() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE r (k INTEGER, v INTEGER) \
         PARTITION BY RANGE(k) SPLIT AT (6, 12, 18)",
    )
    .unwrap();
    let data: Vec<Row> = (0..1_000)
        .map(|i| Row::from_values([Value::Int((i % 23) as i64), Value::Int(i as i64)]))
        .collect();
    hana.load_rows(&s, "r", &data).unwrap();

    let (rs, profile) = hana
        .profile_query(&s, "SELECT k, v FROM r WHERE k < 6 ORDER BY v")
        .unwrap();
    let pruned = span_attr(&profile, "dist_scan[r]", "partitions_pruned");
    assert_eq!(
        pruned, 3,
        "k < 6 lives entirely in the first range partition"
    );
    let expected: usize = (0..1_000).filter(|i| i % 23 < 6).count();
    assert_eq!(rs.rows.len(), expected);
    assert!(rs.rows.iter().all(|r| r[0] < Value::Int(6)));
}

#[test]
fn profile_shows_exchange_spans_and_explain_shows_dist_scan() {
    let (hana, s) = setup(4, 1_000);

    let explain = hana
        .execute_sql(&s, "EXPLAIN SELECT k FROM t WHERE k = 3")
        .unwrap();
    let text: Vec<String> = explain.rows.iter().map(|r| format!("{:?}", r[0])).collect();
    assert!(
        text.iter().any(|l| l.contains("Dist Scan")),
        "EXPLAIN shows the distributed scan: {text:?}"
    );

    let (_rs, profile) = hana
        .profile_query(&s, "SELECT k, SUM(v) AS total FROM t GROUP BY k")
        .unwrap();
    let rendered = profile.render();
    assert!(
        rendered.contains("dist_scan[t]"),
        "profile shows the scan: {rendered}"
    );
    assert!(
        rendered.contains("exchange[partial_agg]"),
        "profile shows the partial-aggregate exchange: {rendered}"
    );
    assert_eq!(profile.spans_started, profile.spans_finished);

    let (_rs, profile) = hana
        .profile_query(&s, "SELECT k, v FROM t WHERE k >= 5")
        .unwrap();
    let rendered = profile.render();
    assert!(
        rendered.contains("exchange[gather]"),
        "plain distributed scans gather over the links: {rendered}"
    );
}

#[test]
fn broadcast_join_matches_single_node() {
    let (hana, s) = setup(4, 3_000);
    hana.execute_sql(&s, "CREATE COLUMN TABLE d (k INTEGER, name VARCHAR(8))")
        .unwrap();
    let dim: Vec<Row> = (0..23)
        .filter(|k| k % 2 == 0)
        .map(|k| Row::from_values([Value::Int(k), Value::from(format!("g{k}").as_str())]))
        .collect();
    hana.load_rows(&s, "d", &dim).unwrap();

    let sql = "SELECT a.v, d.name FROM t AS a JOIN d ON a.k = d.k ORDER BY a.v";
    let (dist, profile) = hana.profile_query(&s, sql).unwrap();
    let solo = hana
        .execute_sql(&s, &sql.replace("FROM t ", "FROM solo "))
        .unwrap();
    assert!(!dist.rows.is_empty());
    assert_eq!(dist.rows, solo.rows, "broadcast join is byte-identical");
    assert!(
        profile.render().contains("exchange[broadcast]"),
        "small build side was broadcast: {}",
        profile.render()
    );

    // Left outer: unmatched probe rows pad with NULLs on every node.
    let sql = "SELECT a.v, d.name FROM t AS a LEFT JOIN d ON a.k = d.k ORDER BY a.v";
    let dist = hana.execute_sql(&s, sql).unwrap();
    let solo = hana
        .execute_sql(&s, &sql.replace("FROM t ", "FROM solo "))
        .unwrap();
    assert_eq!(dist.rows.len(), 3_000);
    assert_eq!(dist.rows, solo.rows, "left outer broadcast join matches");
}

#[test]
fn routed_dml_keeps_fragments_consistent() {
    let (hana, s) = setup(4, 200);
    let dt = dist_table(&hana, "t");

    // Routed INSERT lands at the key's home node.
    hana.execute_sql(&s, "INSERT INTO t VALUES (99, 7777)")
        .unwrap();
    hana.execute_sql(&s, "INSERT INTO solo VALUES (99, 7777)")
        .unwrap();
    let home = dt.spec().partition_of(&Value::Int(99));
    let rs = hana
        .execute_sql(&s, "SELECT k, v FROM t WHERE v = 7777")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    let cid = hana.transaction_manager().current_snapshot().cid();
    let node_rows = dt.nodes()[home]
        .scan(
            &[(
                "v".to_string(),
                hana_data_platform::columnar::ColumnPredicate::Eq(Value::Int(7777)),
            )],
            cid,
        )
        .unwrap();
    assert_eq!(node_rows.len(), 1, "insert routed to the home fragment");

    // A partition-key UPDATE moves the row to its new home node.
    hana.execute_sql(&s, "UPDATE t SET k = 5 WHERE v = 7777")
        .unwrap();
    hana.execute_sql(&s, "UPDATE solo SET k = 5 WHERE v = 7777")
        .unwrap();
    let cid = hana.transaction_manager().current_snapshot().cid();
    for (id, node) in dt.nodes().iter().enumerate() {
        let hits = node
            .scan(
                &[(
                    "v".to_string(),
                    hana_data_platform::columnar::ColumnPredicate::Eq(Value::Int(7777)),
                )],
                cid,
            )
            .unwrap();
        let expected = usize::from(id == dt.spec().partition_of(&Value::Int(5)));
        assert_eq!(hits.len(), expected, "node {id} after key update");
    }

    // DELETE and MERGE DELTA apply across all fragments.
    hana.execute_sql(&s, "DELETE FROM t WHERE k = 3").unwrap();
    hana.execute_sql(&s, "DELETE FROM solo WHERE k = 3")
        .unwrap();
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    let dist = hana
        .execute_sql(&s, "SELECT k, v FROM t ORDER BY v")
        .unwrap();
    let solo = hana
        .execute_sql(&s, "SELECT k, v FROM solo ORDER BY v")
        .unwrap();
    assert_eq!(dist.rows, solo.rows, "DML streams stayed in sync");
}

#[test]
fn backup_restore_preserves_partitioning() {
    let (hana, s) = setup(4, 500);
    let backup = hana.backup(&s).unwrap();
    // Mutate after the backup point, then restore.
    hana.execute_sql(&s, "DELETE FROM t WHERE k >= 0").unwrap();
    hana.restore(&s, &backup).unwrap();
    let kinds = hana.catalog().list_tables();
    assert!(
        kinds.contains(&("t".to_string(), "DISTRIBUTED".to_string())),
        "restored table keeps its DISTRIBUTED kind: {kinds:?}"
    );
    let dt = dist_table(&hana, "t");
    assert_eq!(dt.node_count(), 4, "partition count survives restore");
    let dist = hana
        .execute_sql(&s, "SELECT k, v FROM t ORDER BY v")
        .unwrap();
    let solo = hana
        .execute_sql(&s, "SELECT k, v FROM solo ORDER BY v")
        .unwrap();
    assert_eq!(dist.rows, solo.rows);
}

#[test]
fn shuffle_faults_degrade_along_the_sda_taxonomy() {
    let (hana, s) = setup(4, 1_000);
    let dt = dist_table(&hana, "t");

    // A permanently failing link: the query errors with a remote kind
    // and returns no partial result.
    dt.link(0).set_fault(Some(
        FaultPlan::flaky(0xC4A05, 1.0).with_permanent_share(1.0),
    ));
    let err = hana
        .execute_sql(&s, "SELECT k, v FROM t")
        .expect_err("a dead link fails the gather");
    assert_eq!(err.kind(), "remote", "permanent faults are not retried");

    // A flaky link recovers within the retry budget: results complete,
    // nothing lost or duplicated, and the retries are visible.
    dt.link(0).set_fault(Some(FaultPlan::flaky(0xC4A05, 0.4)));
    let dist = hana
        .execute_sql(&s, "SELECT k, v FROM t ORDER BY v")
        .unwrap();
    let solo = hana
        .execute_sql(&s, "SELECT k, v FROM solo ORDER BY v")
        .unwrap();
    assert_eq!(
        dist.rows, solo.rows,
        "retries neither lose nor duplicate rows"
    );
    assert!(
        dt.link(0).stats().faults > 0,
        "the flaky link did inject faults"
    );

    dt.link(0).set_fault(None);
}

proptest! {
    /// Distributed scan, group-by and join return exactly the
    /// single-node results across partition counts 1–8 and both
    /// partitioning schemes.
    #[test]
    fn distributed_queries_match_single_node(
        parts in 1usize..9,
        hash_scheme in any::<bool>(),
        seed in any::<u64>(),
        n in 50usize..250,
        cutoff in 0i64..20,
    ) {
        let hana = HanaPlatform::new_in_memory();
        let s = hana.connect("SYSTEM", "manager").unwrap();
        let clause = if hash_scheme {
            format!("PARTITION BY HASH(k) PARTITIONS {parts}")
        } else {
            // `parts` range partitions need `parts - 1` ascending
            // split points (at least one).
            let splits: Vec<String> = (1..parts.max(2)).map(|i| (i as i64 * 3).to_string()).collect();
            format!("PARTITION BY RANGE(k) SPLIT AT ({})", splits.join(", "))
        };
        hana.execute_sql(
            &s,
            &format!("CREATE COLUMN TABLE t (k INTEGER, v INTEGER) {clause}"),
        )
        .unwrap();
        hana.execute_sql(&s, "CREATE COLUMN TABLE solo (k INTEGER, v INTEGER)").unwrap();
        hana.execute_sql(&s, "CREATE COLUMN TABLE d (k INTEGER, name VARCHAR(8))").unwrap();

        let mut x = seed;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as i64
        };
        let data: Vec<Row> = (0..n)
            .map(|i| Row::from_values([Value::Int(next().rem_euclid(20)), Value::Int(i as i64)]))
            .collect();
        hana.load_rows(&s, "t", &data).unwrap();
        hana.load_rows(&s, "solo", &data).unwrap();
        let dim: Vec<Row> = (0..20)
            .step_by(3)
            .map(|k| Row::from_values([Value::Int(k), Value::from(format!("g{k}").as_str())]))
            .collect();
        hana.load_rows(&s, "d", &dim).unwrap();

        for sql in [
            format!("SELECT k, v FROM {{}} WHERE k >= {cutoff} ORDER BY v"),
            "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx \
             FROM {} GROUP BY k ORDER BY k".to_string(),
            format!("SELECT a.v, d.name FROM {{}} AS a JOIN d ON a.k = d.k \
                     WHERE a.k >= {cutoff} ORDER BY a.v"),
        ] {
            let dist = hana.execute_sql(&s, &sql.replace("{}", "t")).unwrap();
            let solo = hana.execute_sql(&s, &sql.replace("{}", "solo")).unwrap();
            prop_assert_eq!(&dist.rows, &solo.rows, "query: {}", sql);
        }
    }
}
