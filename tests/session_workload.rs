//! Multi-session integration tests: shared plan cache invalidation,
//! prepared-statement re-preparation, and workload-class admission
//! under concurrent load.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hana_core::HanaPlatform;
use hana_exec::ClassConfig;
use hana_session::{SessionManager, WorkloadClass, WorkloadConfig};
use hana_types::{Row, Value};

use proptest::prelude::*;

fn counter(name: &str) -> u64 {
    hana_obs::registry().counter(name).get()
}

/// Platform with an `accounts` column table of `n` rows (k, v).
fn platform_with_accounts(n: i64) -> Arc<HanaPlatform> {
    let platform = Arc::new(HanaPlatform::new_in_memory());
    let session = platform.connect("SYSTEM", "manager").unwrap();
    platform
        .execute_sql(&session, "CREATE COLUMN TABLE accounts (k INT, v INT)")
        .unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| Row::from_values([Value::Int(i), Value::Int(i % 97)]))
        .collect();
    platform.load_rows(&session, "accounts", &rows).unwrap();
    platform
        .execute_sql(&session, "MERGE DELTA OF accounts")
        .unwrap();
    platform
}

/// Admission bounds OLAP concurrency while OLTP point lookups keep
/// running — the ISSUE 6 acceptance scenario.
#[test]
fn admission_bounds_olap_while_oltp_keeps_running() {
    const OLAP_LIMIT: usize = 2;
    const OLAP_THREADS: usize = 8;

    let platform = platform_with_accounts(50_000);
    let manager = Arc::new(SessionManager::with_config(
        platform,
        256,
        WorkloadConfig {
            olap: ClassConfig::new(OLAP_LIMIT)
                .with_queue(OLAP_THREADS * 4)
                .with_timeout(Duration::from_secs(30)),
            ..WorkloadConfig::default()
        },
    ));

    let olap_running = Arc::new(AtomicUsize::new(0));
    let olap_peak = Arc::new(AtomicUsize::new(0));
    let storm_over = Arc::new(AtomicBool::new(false));
    let oltp_during_storm = Arc::new(AtomicUsize::new(0));

    // The OLTP side: point lookups in a loop until the OLAP storm ends.
    let oltp_handle = {
        let (manager, storm_over, done) = (
            Arc::clone(&manager),
            Arc::clone(&storm_over),
            Arc::clone(&oltp_during_storm),
        );
        std::thread::spawn(move || {
            let session = manager.connect("SYSTEM", "manager").unwrap();
            let lookup = session
                .prepare("SELECT v FROM accounts WHERE k = ?")
                .unwrap();
            // Cycle a small hot key set: bound parameters appear as
            // literals in the cache key, so a repetitive OLTP workload
            // means repeating *bindings*, not just the statement text.
            let mut k = 0i64;
            while !storm_over.load(Ordering::Relaxed) {
                let rs = session
                    .execute_prepared(&lookup, &[Value::Int(k % 16)])
                    .expect("OLTP must keep flowing during the OLAP storm");
                assert_eq!(rs.rows.len(), 1);
                done.fetch_add(1, Ordering::Relaxed);
                k += 1;
            }
        })
    };

    // The OLAP storm: more aggregate queries than slots.
    let olap_handles: Vec<_> = (0..OLAP_THREADS)
        .map(|_| {
            let (manager, running, peak) = (
                Arc::clone(&manager),
                Arc::clone(&olap_running),
                Arc::clone(&olap_peak),
            );
            std::thread::spawn(move || {
                let session = manager.connect("SYSTEM", "manager").unwrap();
                for _ in 0..3 {
                    let rs = session
                        .execute("SELECT v, COUNT(*), SUM(k) FROM accounts GROUP BY v ORDER BY v")
                        .unwrap();
                    assert_eq!(rs.rows.len(), 97);
                    // Track our own view of concurrency from inside the
                    // admitted region's results (coarse, but together
                    // with the controller's peak gauge it corroborates
                    // the bound).
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    running.fetch_sub(1, Ordering::SeqCst);
                }
            })
        })
        .collect();

    for h in olap_handles {
        h.join().unwrap();
    }
    storm_over.store(true, Ordering::Relaxed);
    oltp_handle.join().unwrap();

    let (_, _, olap_peak_running) = manager.workload().class_stats(WorkloadClass::Olap);
    assert!(
        olap_peak_running <= OLAP_LIMIT,
        "controller admitted {olap_peak_running} concurrent OLAP statements, limit {OLAP_LIMIT}"
    );
    assert!(
        olap_peak_running >= 1,
        "the storm must actually have exercised the OLAP class"
    );
    assert!(
        counter("hana_admission_queued_total_olap") > 0,
        "with {OLAP_THREADS} threads and {OLAP_LIMIT} slots, someone must have queued"
    );
    assert!(
        oltp_during_storm.load(Ordering::Relaxed) > 0,
        "OLTP point lookups must have completed during the storm"
    );
    // Steady state: the repeated aggregate + repeated lookups hit the
    // shared plan cache far more often than they miss.
    let (hits, misses) = manager.plan_cache().stats();
    assert!(
        hits > misses,
        "cache hits ({hits}) must dominate misses ({misses}) on a repetitive workload"
    );
}

/// A saturated class with a zero-length queue sheds load with the
/// retryable `overloaded` error; a short queue times out the same way.
#[test]
fn admission_rejections_follow_error_taxonomy() {
    let platform = platform_with_accounts(1_000);
    let manager = Arc::new(SessionManager::with_config(
        platform,
        64,
        WorkloadConfig {
            olap: ClassConfig::new(1)
                .with_queue(0)
                .with_timeout(Duration::from_millis(50)),
            ..WorkloadConfig::default()
        },
    ));

    // Hold the only OLAP slot directly through the workload manager,
    // then observe a session's OLAP statement being refused.
    let permit = manager.workload().admit(WorkloadClass::Olap).unwrap();
    let session = manager.connect("SYSTEM", "manager").unwrap();
    let err = session
        .execute("SELECT v, COUNT(*) FROM accounts GROUP BY v")
        .unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    assert!(err.is_retryable(), "clients are told to back off and retry");
    drop(permit);

    // With the slot free the same statement succeeds.
    session
        .execute("SELECT v, COUNT(*) FROM accounts GROUP BY v")
        .unwrap();
}

/// DDL and transaction control take no admission slot: with both pools
/// full and no queue, CREATE / DROP / BEGIN / COMMIT still run while DML
/// is refused.
#[test]
fn ddl_and_transaction_control_bypass_admission() {
    let platform = platform_with_accounts(10);
    let full = || ClassConfig::new(1).with_queue(0);
    let manager = SessionManager::with_config(
        platform,
        64,
        WorkloadConfig {
            oltp: full(),
            olap: full(),
        },
    );
    let _oltp = manager.workload().admit(WorkloadClass::Oltp).unwrap();
    let _olap = manager.workload().admit(WorkloadClass::Olap).unwrap();
    let session = manager.connect("SYSTEM", "manager").unwrap();
    let err = session
        .execute("INSERT INTO accounts (k, v) VALUES (100, 1)")
        .unwrap_err();
    assert_eq!(err.kind(), "overloaded", "DML waits for an OLTP slot");
    for sql in [
        "CREATE COLUMN TABLE other (x INT)",
        "BEGIN",
        "COMMIT",
        "DROP TABLE other",
    ] {
        session
            .execute(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

/// DDL (CREATE/DROP) and MERGE DELTA bump the catalog version and evict
/// stale plans; prepared statements re-prepare transparently.
#[test]
fn ddl_and_merge_delta_invalidate_cached_plans() {
    let platform = platform_with_accounts(1_000);
    let manager = SessionManager::new(Arc::clone(&platform));
    let session = manager.connect("SYSTEM", "manager").unwrap();

    let lookup = session
        .prepare("SELECT v FROM accounts WHERE k = ?")
        .unwrap();
    session.execute_prepared(&lookup, &[Value::Int(5)]).unwrap();
    assert_eq!(manager.plan_cache().len(), 1);

    // CREATE TABLE bumps the version: next lookup purges + re-plans.
    let v_before = platform.catalog_version();
    session
        .execute("CREATE COLUMN TABLE other (x INT)")
        .unwrap();
    assert!(
        platform.catalog_version() > v_before,
        "CREATE bumps version"
    );
    let inv_before = counter("hana_session_plan_cache_invalidations_total");
    session.execute_prepared(&lookup, &[Value::Int(5)]).unwrap();
    assert!(
        counter("hana_session_plan_cache_invalidations_total") > inv_before,
        "stale plan was purged on the next lookup"
    );

    // MERGE DELTA also bumps (synopses/estimates are rebuilt).
    let v_before = platform.catalog_version();
    session
        .execute("INSERT INTO accounts (k, v) VALUES (100000, 42)")
        .unwrap();
    session.execute("MERGE DELTA OF accounts").unwrap();
    assert!(
        platform.catalog_version() > v_before,
        "MERGE DELTA bumps version"
    );

    // DROP + re-CREATE under the same name: the prepared statement
    // keeps working against the new incarnation.
    session.execute("DROP TABLE accounts").unwrap();
    session
        .execute("CREATE COLUMN TABLE accounts (k INT, v INT)")
        .unwrap();
    session
        .execute("INSERT INTO accounts (k, v) VALUES (5, 555)")
        .unwrap();
    let rs = session.execute_prepared(&lookup, &[Value::Int(5)]).unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(555), "re-prepared transparently");
}

proptest! {
    /// Sessions agree with the raw platform: for a random mix of
    /// lookups, aggregates and interleaved delta merges, going through
    /// the plan cache must be result-equivalent to parsing/planning
    /// every time.
    #[test]
    fn cached_results_equal_uncached(seed in any::<u64>(), n_rows in 50i64..400) {
        let platform = platform_with_accounts(n_rows);
        let manager = SessionManager::new(Arc::clone(&platform));
        let session = manager.connect("SYSTEM", "manager").unwrap();
        let raw = platform.connect("SYSTEM", "manager").unwrap();
        let lookup = session.prepare("SELECT v FROM accounts WHERE k = ?").unwrap();

        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..40 {
            match next() % 4 {
                0 | 1 => {
                    let k = (next() % n_rows as u64) as i64;
                    let via_cache = session
                        .execute_prepared(&lookup, &[Value::Int(k)])
                        .unwrap();
                    let direct = platform
                        .execute_sql(&raw, &format!("SELECT v FROM accounts WHERE k = {k}"))
                        .unwrap();
                    prop_assert_eq!(via_cache.rows, direct.rows);
                }
                2 => {
                    let via_cache = session
                        .execute("SELECT v, COUNT(*) FROM accounts GROUP BY v ORDER BY v")
                        .unwrap();
                    let direct = platform
                        .execute_sql(
                            &raw,
                            "SELECT v, COUNT(*) FROM accounts GROUP BY v ORDER BY v",
                        )
                        .unwrap();
                    prop_assert_eq!(via_cache.rows, direct.rows);
                }
                _ => {
                    // Mutate + merge: bumps the catalog version, so the
                    // cache must re-plan rather than serve stale plans.
                    let k = n_rows + (next() % 1000) as i64;
                    session
                        .execute(&format!("INSERT INTO accounts (k, v) VALUES ({k}, 7)"))
                        .unwrap();
                    session.execute("MERGE DELTA OF accounts").unwrap();
                }
            }
        }
    }
}
