//! Admission rules of the workload-class pools, driven through
//! `WorkloadManager`: waiters of a class are admitted in arrival order,
//! a waiter that times out at the head of the queue hands the next slot
//! to the one behind it, OLTP never waits on OLAP, and each admission
//! event moves its `hana_admission_*` counter.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use hana_exec::ClassConfig;
use hana_session::{WorkloadClass, WorkloadConfig, WorkloadManager};

/// The admission counters are process-global, so the tests of this
/// file run one at a time and can assert exact deltas.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn manager(olap: ClassConfig) -> Arc<WorkloadManager> {
    Arc::new(WorkloadManager::new(WorkloadConfig {
        olap,
        ..WorkloadConfig::default()
    }))
}

/// Block until `class` has exactly `n` statements queued.
fn until_queued(m: &WorkloadManager, class: WorkloadClass, n: usize) {
    while m.class_stats(class).1 != n {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A thread that waits for an OLAP slot and returns how long it waited
/// (or the rejection's error kind).
fn olap_waiter(m: &Arc<WorkloadManager>) -> JoinHandle<Result<Duration, &'static str>> {
    let m = Arc::clone(m);
    std::thread::spawn(move || {
        m.admit(WorkloadClass::Olap)
            .map(|permit| permit.admitted_after())
            .map_err(|e| e.kind())
    })
}

#[test]
fn queued_waiters_are_admitted_in_arrival_order() {
    let _serial = serial();
    let m = manager(
        ClassConfig::new(1)
            .with_queue(8)
            .with_timeout(Duration::from_secs(30)),
    );
    // Waiters woken together race for the lock; repeat so that an
    // order kept only by that race would show.
    for _round in 0..20 {
        let held = m.admit(WorkloadClass::Olap).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let waiters: Vec<_> = (0..5)
            .map(|i| {
                let (waiter_m, order) = (Arc::clone(&m), Arc::clone(&order));
                let h = std::thread::spawn(move || {
                    let _permit = waiter_m.admit(WorkloadClass::Olap).unwrap();
                    order.lock().unwrap().push(i);
                });
                until_queued(&m, WorkloadClass::Olap, i + 1);
                h
            })
            .collect();
        drop(held);
        for h in waiters {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }
    assert_eq!(m.class_stats(WorkloadClass::Olap), (0, 0, 1));
}

#[test]
fn a_timed_out_head_hands_the_next_slot_to_the_waiter_behind_it() {
    let _serial = serial();
    let timeout = Duration::from_secs(1);
    let m = manager(ClassConfig::new(1).with_queue(4).with_timeout(timeout));
    let held = m.admit(WorkloadClass::Olap).unwrap();
    let head = olap_waiter(&m);
    until_queued(&m, WorkloadClass::Olap, 1);
    // The second waiter's deadline falls half a timeout after the head's.
    std::thread::sleep(timeout / 2);
    let behind = olap_waiter(&m);
    until_queued(&m, WorkloadClass::Olap, 2);

    assert_eq!(
        head.join().unwrap(),
        Err("overloaded"),
        "the head times out"
    );
    assert_eq!(
        m.class_stats(WorkloadClass::Olap),
        (1, 1, 1),
        "the slot is still held and the second waiter still queued"
    );
    drop(held);
    let waited = behind
        .join()
        .unwrap()
        .expect("the freed slot goes to the waiter behind");
    assert!(
        waited < timeout,
        "admitted after {waited:?}, before its own deadline"
    );
    assert_eq!(m.class_stats(WorkloadClass::Olap), (0, 0, 1));
}

#[test]
fn oltp_admits_at_once_while_the_olap_pool_is_full_and_queued() {
    let _serial = serial();
    let m = Arc::new(WorkloadManager::new(WorkloadConfig {
        // No queue: an OLTP statement that had to wait would be refused.
        oltp: ClassConfig::new(1).with_queue(0),
        olap: ClassConfig::new(1)
            .with_queue(4)
            .with_timeout(Duration::from_secs(30)),
    }));
    let held = m.admit(WorkloadClass::Olap).unwrap();
    let waiter = olap_waiter(&m);
    until_queued(&m, WorkloadClass::Olap, 1);

    let oltp = m
        .admit(WorkloadClass::Oltp)
        .expect("OLTP shares no slot with OLAP");
    assert_eq!(m.class_stats(WorkloadClass::Oltp), (1, 0, 1));
    assert_eq!(m.class_stats(WorkloadClass::Olap), (1, 1, 1));
    drop(oltp);
    drop(held);
    waiter.join().unwrap().unwrap();
}

#[test]
fn every_admission_event_moves_its_counter() {
    let _serial = serial();
    let events = ["admitted", "queued", "rejected", "timeout"];
    let counts = || {
        events.map(|e| {
            hana_obs::registry()
                .counter(&format!("hana_admission_{e}_total_olap"))
                .get()
        })
    };
    let m = manager(
        ClassConfig::new(1)
            .with_queue(1)
            .with_timeout(Duration::from_millis(200)),
    );
    let before = counts();

    // An admit.
    let held = m.admit(WorkloadClass::Olap).unwrap();
    // A queued wait that times out ...
    let timed_out = olap_waiter(&m);
    until_queued(&m, WorkloadClass::Olap, 1);
    // ... while a third arrival finds the queue of one full.
    assert_eq!(
        m.admit(WorkloadClass::Olap).unwrap_err().kind(),
        "overloaded"
    );
    assert_eq!(timed_out.join().unwrap(), Err("overloaded"));
    // A queued wait that is admitted.
    let admitted = olap_waiter(&m);
    until_queued(&m, WorkloadClass::Olap, 1);
    drop(held);
    admitted.join().unwrap().unwrap();

    let after = counts();
    let deltas: Vec<_> = events
        .iter()
        .zip(after.iter().zip(before))
        .map(|(e, (a, b))| (*e, a - b))
        .collect();
    assert_eq!(
        deltas,
        vec![
            ("admitted", 2),
            ("queued", 2),
            ("rejected", 1),
            ("timeout", 1)
        ]
    );
}
