//! Integration tests for the extended-storage engine: scans, pushdown,
//! transactions and failure injection.

use std::sync::Arc;

use hana_columnar::ColumnPredicate;
use hana_iq::{IqEngine, IqPlan};
use hana_txn::{TransactionManager, TwoPhaseParticipant};
use hana_types::{AggFunc, DataType, Row, Schema, Value};

fn orders_schema() -> Schema {
    Schema::of(&[
        ("o_id", DataType::Int),
        ("o_status", DataType::Varchar),
        ("o_total", DataType::Double),
    ])
}

fn order_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::from_values([
                Value::Int(i as i64),
                Value::from(if i % 3 == 0 { "OPEN" } else { "DONE" }),
                Value::Double(i as f64 * 1.5),
            ])
        })
        .collect()
}

fn engine_with_data(n: usize) -> IqEngine {
    let iq = IqEngine::new("iq-test", 256).unwrap();
    iq.create_table("orders", orders_schema()).unwrap();
    iq.direct_load("orders", &order_rows(n), 1).unwrap();
    iq
}

#[test]
fn scan_with_predicates_and_projection() {
    let iq = engine_with_data(10_000);
    let rs = iq
        .scan(
            "orders",
            &[
                ("o_status".into(), ColumnPredicate::Eq(Value::from("OPEN"))),
                ("o_total".into(), ColumnPredicate::Lt(Value::Double(15.0))),
            ],
            Some(&["o_id".to_string()]),
            1,
        )
        .unwrap();
    // OPEN rows are multiples of 3; o_total < 15 means id < 10.
    let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![0, 3, 6, 9]);
    assert_eq!(rs.schema.len(), 1);
}

#[test]
fn zone_maps_prune_chunks() {
    let iq = engine_with_data(20_000); // 5 chunks of 4096
    iq.scan(
        "orders",
        &[(
            "o_id".into(),
            ColumnPredicate::Between(Value::Int(0), Value::Int(100)),
        )],
        None,
        1,
    )
    .unwrap();
    let pruned = iq
        .stats
        .chunks_pruned
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        pruned >= 4,
        "expected at least 4 pruned chunks, got {pruned}"
    );
}

#[test]
fn bitmap_index_answers_equality() {
    let iq = engine_with_data(4000);
    iq.scan(
        "orders",
        &[("o_status".into(), ColumnPredicate::Eq(Value::from("OPEN")))],
        Some(&["o_status".to_string()]),
        1,
    )
    .unwrap();
    let hits = iq
        .stats
        .bitmap_index_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(hits >= 1, "status equality should use the bitmap index");
}

#[test]
fn pushed_down_group_by_matches_manual() {
    let iq = engine_with_data(5000);
    let plan = IqPlan::Aggregate {
        input: Box::new(IqPlan::scan("orders")),
        group_by: vec!["o_status".into()],
        aggregates: vec![
            (AggFunc::CountStar, None),
            (AggFunc::Sum, Some("o_total".into())),
        ],
    };
    let rs = iq.execute(&plan, 1).unwrap();
    assert_eq!(rs.len(), 2);
    let done = rs
        .rows
        .iter()
        .find(|r| r[0] == Value::from("DONE"))
        .unwrap();
    // 5000 rows, every 3rd is OPEN -> 1667 OPEN, 3333 DONE.
    assert_eq!(done[1], Value::Int(3333));
}

#[test]
fn join_pushdown() {
    let iq = engine_with_data(100);
    iq.create_table(
        "status_names",
        Schema::of(&[("code", DataType::Varchar), ("label", DataType::Varchar)]),
    )
    .unwrap();
    iq.direct_load(
        "status_names",
        &[
            Row::from_values([Value::from("OPEN"), Value::from("In progress")]),
            Row::from_values([Value::from("DONE"), Value::from("Completed")]),
        ],
        1,
    )
    .unwrap();
    let plan = IqPlan::Join {
        left: Box::new(IqPlan::scan("status_names")),
        right: Box::new(IqPlan::scan_where(
            "orders",
            vec![("o_id".into(), ColumnPredicate::Lt(Value::Int(10)))],
        )),
        left_col: "code".into(),
        right_col: "o_status".into(),
    };
    let rs = iq.execute(&plan, 1).unwrap();
    // Every one of ids 0..9 has a status with a label.
    assert_eq!(rs.len(), 10);
    let label = rs.schema.index_of("label").unwrap();
    let status = rs.schema.index_of("o_status").unwrap();
    for r in &rs.rows {
        let want = if r[status] == Value::from("OPEN") {
            "In progress"
        } else {
            "Completed"
        };
        assert_eq!(r[label], Value::from(want));
    }
}

#[test]
fn transactional_insert_via_2pc() {
    let tm = TransactionManager::new();
    let iq = Arc::new(engine_with_data(10));
    // Advance the TM past the direct load's cid (1) so snapshots align.
    tm.commit(tm.begin(), &[]).unwrap();
    let txn = tm.begin();
    iq.buffer_insert(txn.tid, "orders", order_rows(5)).unwrap();
    let before = tm.current_snapshot().cid();
    assert_eq!(before, 1);
    assert_eq!(
        iq.row_count("orders", before).unwrap(),
        10,
        "not visible yet"
    );
    let participants: Vec<Arc<dyn TwoPhaseParticipant>> = vec![iq.clone()];
    let receipt = tm.commit(txn, &participants).unwrap();
    assert_eq!(iq.row_count("orders", receipt.cid).unwrap(), 15);
    assert_eq!(
        iq.row_count("orders", before).unwrap(),
        10,
        "old snapshot stable"
    );
}

#[test]
fn aborted_transaction_leaves_no_trace() {
    let tm = TransactionManager::new();
    let iq = Arc::new(engine_with_data(10));
    let txn = tm.begin();
    iq.buffer_insert(txn.tid, "orders", order_rows(5)).unwrap();
    let participants: Vec<Arc<dyn TwoPhaseParticipant>> = vec![iq.clone()];
    tm.abort(txn, &participants).unwrap();
    assert_eq!(iq.row_count("orders", u64::MAX - 1).unwrap(), 10);
}

#[test]
fn transactional_delete() {
    let tm = TransactionManager::new();
    let iq = Arc::new(engine_with_data(30));
    let txn = tm.begin();
    let n = iq
        .buffer_delete(
            txn.tid,
            "orders",
            &[("o_status".into(), ColumnPredicate::Eq(Value::from("OPEN")))],
            txn.snapshot.cid().max(1),
        )
        .unwrap();
    assert_eq!(n, 10);
    let participants: Vec<Arc<dyn TwoPhaseParticipant>> = vec![iq.clone()];
    let receipt = tm.commit(txn, &participants).unwrap();
    assert_eq!(iq.row_count("orders", receipt.cid).unwrap(), 20);
}

#[test]
fn failure_injection_aborts_access_and_transactions() {
    let tm = TransactionManager::new();
    let iq = Arc::new(engine_with_data(10));
    iq.set_failing(true);
    // Every access to the extended store throws (§3.1).
    assert_eq!(
        iq.scan("orders", &[], None, 1).unwrap_err().kind(),
        "remote_unavailable"
    );
    // A transaction touching the failed store aborts entirely.
    let txn = tm.begin();
    let participants: Vec<Arc<dyn TwoPhaseParticipant>> = vec![iq.clone()];
    // Buffering fails fast too; but even a txn with earlier buffered work
    // fails at prepare.
    assert!(iq.buffer_insert(txn.tid, "orders", order_rows(1)).is_err());
    iq.set_failing(false);
    iq.buffer_insert(txn.tid, "orders", order_rows(1)).unwrap();
    iq.set_failing(true);
    assert!(tm.commit(txn, &participants).is_err());
    iq.set_failing(false);
    assert_eq!(iq.row_count("orders", u64::MAX - 1).unwrap(), 10);
}

#[test]
fn temp_tables_for_semijoin_shipping() {
    let iq = engine_with_data(100);
    let schema = Schema::of(&[("key", DataType::Int)]);
    let shipped = vec![Row::from_values([Value::Int(7)])];
    let tmp = iq.create_temp_table(schema, &shipped, 1).unwrap();
    // Semijoin: filter the big table through the shipped keys.
    let plan = IqPlan::Join {
        left: Box::new(IqPlan::scan(&tmp)),
        right: Box::new(IqPlan::scan("orders")),
        left_col: "key".into(),
        right_col: "o_id".into(),
    };
    let rs = iq.execute(&plan, 1).unwrap();
    assert_eq!(rs.len(), 1);
    iq.drop_table(&tmp).unwrap();
    assert!(!iq.has_table(&tmp));
}

#[test]
fn catalog_errors() {
    let iq = IqEngine::new("iq", 16).unwrap();
    assert!(iq.scan("missing", &[], None, 1).is_err());
    iq.create_table("t", orders_schema()).unwrap();
    assert!(
        iq.create_table("T", orders_schema()).is_err(),
        "case-insensitive"
    );
    assert!(iq.drop_table("nope").is_err());
    // Bad rows rejected on direct load.
    assert!(iq
        .direct_load("t", &[Row::from_values([Value::Int(1)])], 1)
        .is_err());
}
