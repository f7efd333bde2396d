//! Semijoin reduction inside one engine: an inner hash join hands its
//! build side's distinct keys to the column leaf below its probe side,
//! which reads only the rows that can match. Over local TPC-H tables
//! (merged, with statistics, as the benchmark loads them), the lineitem
//! leaf under the lineitem join of Q4, Q3* and Q10 hands over at most
//! three rows per joined row; without the key filter it reads every row
//! its own predicates pass, 14–126× the join's output at SF 0.02.

use hana_data_platform::obs::ProfileNode;
use hana_data_platform::HanaPlatform;

/// Every table of TPC-H at `scale` as a merged column table.
fn load(scale: f64) -> (HanaPlatform, hana_data_platform::platform::Session) {
    let data = hana_data_platform::tpch::generate(scale, 2015);
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    for t in &data.tables {
        let cols: Vec<String> = (t.schema.columns().iter())
            .map(|c| format!("{} {}", c.name, c.data_type.sql_name()))
            .collect();
        let ddl = format!("CREATE COLUMN TABLE {} ({})", t.name, cols.join(", "));
        hana.execute_sql(&s, &ddl).unwrap();
        hana.load_rows(&s, t.name, &t.rows).unwrap();
        hana.execute_sql(&s, &format!("MERGE DELTA OF {}", t.name))
            .unwrap();
    }
    (hana, s)
}

fn attr(node: &ProfileNode, name: &str) -> Option<u64> {
    node.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

#[test]
fn a_join_probe_leaf_reads_only_rows_its_build_keys_can_match() {
    let (hana, s) = load(0.005);
    let queries = hana_data_platform::tpch::queries();
    for name in ["Q4", "Q3*", "Q10"] {
        let q = queries.iter().find(|q| q.name == name).unwrap();
        let (rs, profile) = hana.profile_query(&s, &q.sql).unwrap();
        assert!(!rs.rows.is_empty(), "{name} returned nothing");
        // The lineitem join is the topmost one in all three plans.
        let join = profile.find("hash_join").expect("hash_join span");
        let leaf = profile
            .find("column_scan[lineitem]")
            .expect("lineitem leaf");
        let (joined, read) = (join.rows.unwrap(), leaf.rows.unwrap());
        assert!(
            read <= 3 * joined,
            "{name}: the probe leaf read {read} rows for {joined} joined rows\n{}",
            profile.render()
        );
        assert!(
            attr(leaf, "key_filter").is_some(),
            "{name}\n{}",
            profile.render()
        );
    }
}
