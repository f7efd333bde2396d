//! Streaming ingest and the shared plan cache: micro-batch epoch
//! commits deliberately do *not* bump the catalog version (a bump per
//! batch would purge every cached session plan at streaming cadence),
//! while MERGE DELTA — the natural consolidation point — still does.

use std::sync::Arc;

use hana_core::{HanaPlatform, IngestCommit};
use hana_session::SessionManager;
use hana_types::{Row, Value};

#[test]
fn ingest_batches_keep_cached_plans_valid_until_merge() {
    let platform = Arc::new(HanaPlatform::new_in_memory());
    let sys = platform.connect("SYSTEM", "manager").unwrap();
    platform
        .execute_sql(&sys, "CREATE COLUMN TABLE readings (k INT, v INT)")
        .unwrap();

    let manager = SessionManager::new(Arc::clone(&platform));
    let session = manager.connect("SYSTEM", "manager").unwrap();
    let lookup = session
        .prepare("SELECT COUNT(*) FROM readings WHERE k = ?")
        .unwrap();
    session.execute_prepared(&lookup, &[Value::Int(1)]).unwrap();
    assert_eq!(manager.plan_cache().len(), 1);

    // A streaming cadence of epoch commits: the cached plan must keep
    // hitting (no catalog version bump per micro-batch).
    let v_before = platform.catalog_version();
    let (hits_before, misses_before) = manager.plan_cache().stats();
    for epoch in 1..=10u64 {
        let rows: Vec<Row> = (0..8i64)
            .map(|i| Row::from_values([Value::Int(i % 3), Value::Int(epoch as i64 * 8 + i)]))
            .collect();
        let c = platform
            .commit_ingest_batch(&sys, "feed", epoch, "readings", &rows)
            .unwrap();
        assert!(matches!(c, IngestCommit::Committed { .. }));
        let rs = session.execute_prepared(&lookup, &[Value::Int(1)]).unwrap();
        assert!(rs.scalar().is_ok());
    }
    assert_eq!(
        platform.catalog_version(),
        v_before,
        "epoch commits must not bump the catalog version"
    );
    assert_eq!(
        manager.plan_cache().stats(),
        (hits_before + 10, misses_before),
        "every per-epoch lookup reused the cached plan"
    );

    // MERGE DELTA is where freshly ingested rows consolidate — and
    // where cached plans are allowed to go stale.
    let inv_before = hana_obs::registry()
        .counter("hana_session_plan_cache_invalidations_total")
        .get();
    session.execute("MERGE DELTA OF readings").unwrap();
    session.execute_prepared(&lookup, &[Value::Int(1)]).unwrap();
    assert!(
        hana_obs::registry()
            .counter("hana_session_plan_cache_invalidations_total")
            .get()
            > inv_before,
        "MERGE DELTA still invalidates cached plans"
    );
    // And the data is all there regardless.
    let rs = session.execute("SELECT COUNT(*) FROM readings").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(80));
}
