//! Group commit shares fsyncs (always-on; its own test binary, because
//! `hana_wal_fsyncs_total` is process-wide and a sibling test's log
//! would move it): commits enqueued inside one batching window are
//! made durable by far fewer fsyncs than commits, while window zero
//! pays one fsync per commit.

use std::time::Duration;

use hana_txn::{LogRecord, Wal, WalConfig};

const COMMITS: u64 = 64;

/// fsyncs paid for `COMMITS` commits enqueued back to back, all awaited.
fn fsyncs_paid(tag: &str, window: Duration) -> u64 {
    let dir = std::env::temp_dir().join(format!("hana-groupcommit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = WalConfig {
        group_commit_window: window,
        ..WalConfig::default()
    };
    let wal = Wal::open_dir_with(&dir, config).unwrap();
    let fsyncs = hana_obs::registry().counter("hana_wal_fsyncs_total");
    let before = fsyncs.get();
    let tickets: Vec<_> = (1..=COMMITS)
        .map(|tid| wal.submit_durable(LogRecord::Commit { tid, cid: tid }))
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let paid = fsyncs.get() - before;
    assert_eq!(wal.recover().committed.len() as u64, COMMITS);
    drop(wal);
    std::fs::remove_dir_all(&dir).ok();
    paid
}

#[test]
fn commits_inside_one_window_share_fsyncs() {
    let per_commit = fsyncs_paid("direct", Duration::ZERO);
    assert_eq!(per_commit, COMMITS, "window zero: one fsync per commit");
    // The window is far longer than enqueuing 64 records takes, so they
    // land in one batch or two.
    let grouped = fsyncs_paid("grouped", Duration::from_millis(20));
    assert!(
        grouped * 8 <= COMMITS,
        "{grouped} fsyncs for {COMMITS} commits inside a 20 ms window"
    );
}
