//! Group commit shares fsyncs without a batching window (its own test
//! binary, because `hana_wal_fsyncs_total` is process-wide and a sibling
//! test's log would move it): tickets queued before the first wait
//! share a flush, a lone committer pays one fsync per commit and waits
//! for nobody, and committers that meet while a flush runs share the
//! next one. The cases run in one test, one after another, so no other
//! log moves the counter while a case counts.

use std::path::PathBuf;
use std::sync::Barrier;

use hana_txn::{LogRecord, Wal};

const COMMITS: u64 = 64;
const THREADS: u64 = 8;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hana-groupcommit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// fsyncs paid while `work` runs over a fresh log, which must then
/// recover `commits` committed transactions.
fn fsyncs_paid(tag: &str, commits: u64, work: impl FnOnce(&Wal)) -> u64 {
    let dir = scratch(tag);
    let wal = Wal::open_dir(&dir).unwrap();
    let fsyncs = hana_obs::registry().counter("hana_wal_fsyncs_total");
    let before = fsyncs.get();
    work(&wal);
    let paid = fsyncs.get() - before;
    assert_eq!(wal.recover().unwrap().committed.len() as u64, commits);
    drop(wal);
    std::fs::remove_dir_all(&dir).ok();
    paid
}

fn commit(tid: u64) -> LogRecord {
    LogRecord::Commit { tid, cid: tid }
}

#[test]
fn flushes_are_shared_under_load_and_never_waited_for() {
    // (a) Every ticket is queued before the first wait: the first wait
    // leads one flush that covers them all.
    let queued = fsyncs_paid("queued", COMMITS, |wal| {
        let tickets: Vec<_> = (1..=COMMITS)
            .map(|tid| wal.submit_durable(commit(tid)))
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
    });
    assert!(
        queued <= 2,
        "{queued} fsyncs for {COMMITS} commits queued before the first wait"
    );

    // (b) One committer at a time: each commit leads its own flush.
    let serial = fsyncs_paid("serial", COMMITS, |wal| {
        for tid in 1..=COMMITS {
            wal.submit_durable(commit(tid)).wait().unwrap();
        }
    });
    assert_eq!(serial, COMMITS, "a lone committer pays one fsync a commit");

    // (c) Threads that all submit before any waits share the flush the
    // first of them leads.
    let met = fsyncs_paid("barrier", THREADS, |wal| {
        let all_queued = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for tid in 1..=THREADS {
                let all_queued = &all_queued;
                s.spawn(move || {
                    let ticket = wal.submit_durable(commit(tid));
                    all_queued.wait();
                    ticket.wait().unwrap();
                });
            }
        });
    });
    assert!(
        met <= 2,
        "{met} fsyncs for {THREADS} commits submitted before any waited"
    );
}
