//! The commit watermark never stalls: every CID the commit point
//! assigns passes it — a read-only commit's, one whose commit record
//! never became durable, one whose participant was left in doubt or
//! panicked, and one redone at open. After each, the commit that follows returns
//! within a timeout with the watermark at its CID. Each commit runs on
//! a thread of its own, so a stalled watermark fails the test instead
//! of hanging it.

use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use hana_txn::{RecoveryReport, TransactionManager, TwoPhaseParticipant, Vote, Wal, WalConfig};
use hana_types::{HanaError, Result};

/// A participant that votes `vote` and runs `phase_two` as its commit.
struct Part {
    vote: Vote,
    phase_two: fn() -> Result<()>,
}

impl TwoPhaseParticipant for Part {
    fn name(&self) -> &str {
        "hana"
    }
    fn prepare(&self, _tid: u64) -> Result<Vote> {
        Ok(self.vote)
    }
    fn commit(&self, _tid: u64, _cid: u64) -> Result<()> {
        (self.phase_two)()
    }
    fn abort(&self, _tid: u64) -> Result<()> {
        Ok(())
    }
}

fn part(vote: Vote, phase_two: fn() -> Result<()>) -> Vec<Arc<dyn TwoPhaseParticipant>> {
    vec![Arc::new(Part { vote, phase_two })]
}

fn writer() -> Vec<Arc<dyn TwoPhaseParticipant>> {
    part(Vote::Prepared, || Ok(()))
}

fn lost() -> Result<()> {
    Err(HanaError::remote_unavailable("lost connection"))
}

/// Commit a fresh transaction of `tm` across `participants` on a thread
/// of its own: the commit's CID (or error) and the watermark when it
/// returned. Fails the test if it has not returned within five seconds.
fn commit_within(
    tm: &Arc<TransactionManager>,
    participants: Vec<Arc<dyn TwoPhaseParticipant>>,
) -> (Result<u64>, u64) {
    let tm = Arc::clone(tm);
    let (done, returned) = mpsc::channel();
    std::thread::spawn(move || {
        let t = tm.begin();
        let outcome = tm.commit(t, &participants).map(|r| r.cid);
        let _ = done.send((outcome, tm.current_snapshot().cid()));
    });
    returned
        .recv_timeout(Duration::from_secs(5))
        .expect("the commit did not return: the watermark stalled")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hana-watermark-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_read_only_commit_passes_the_watermark() {
    let tm = Arc::new(TransactionManager::new());
    let (read_only, seen) = commit_within(&tm, part(Vote::ReadOnly, || Ok(())));
    assert_eq!((read_only.unwrap(), seen), (1, 1));
    let (empty, seen) = commit_within(&tm, Vec::new());
    assert_eq!((empty.unwrap(), seen), (2, 2));
    let (next, seen) = commit_within(&tm, writer());
    assert_eq!((next.unwrap(), seen), (3, 3));
}

/// The log fails its second fsync and stays failed, so every commit
/// after it fails too; each still passes the watermark.
#[test]
fn a_commit_that_was_never_durable_passes_the_watermark() {
    let dir = scratch("fsync");
    let config = WalConfig {
        fsyncs_until_fail: Some(1),
        ..WalConfig::default()
    };
    let wal = Arc::new(Wal::open_dir_with(&dir, config).unwrap());
    let tm = Arc::new(TransactionManager::recovered(
        wal,
        &RecoveryReport::default(),
    ));
    let (first, seen) = commit_within(&tm, writer());
    assert_eq!((first.unwrap(), seen), (1, 1));
    let (lost, seen) = commit_within(&tm, writer());
    assert_eq!((lost.unwrap_err().kind(), seen), ("transaction", 2));
    let (next, seen) = commit_within(&tm, Vec::new());
    assert_eq!((next.unwrap_err().kind(), seen), ("transaction", 3));
    assert_eq!(tm.active_count(), 0);
    drop(tm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_participant_left_in_doubt_passes_the_watermark() {
    let tm = Arc::new(TransactionManager::new());
    let (in_doubt, seen) = commit_within(&tm, part(Vote::Prepared, lost));
    assert_eq!(
        (in_doubt.unwrap(), seen),
        (1, 1),
        "early ack: the commit stands"
    );
    assert_eq!(tm.in_doubt().len(), 1);
    let (next, seen) = commit_within(&tm, writer());
    assert_eq!((next.unwrap(), seen), (2, 2));
}

/// A participant that panics in phase 2 takes its committing thread
/// down, and the CID still passes the watermark as the thread unwinds.
#[test]
fn a_panicking_participant_passes_the_watermark() {
    let tm = Arc::new(TransactionManager::new());
    let crashing = Arc::clone(&tm);
    let crashed = std::thread::spawn(move || {
        let t = crashing.begin();
        crashing.commit(t, &part(Vote::Prepared, || panic!("participant crashed")))
    });
    assert!(crashed.join().is_err(), "the participant's panic unwinds");
    assert_eq!(tm.current_snapshot().cid(), 1);
    assert_eq!(tm.active_count(), 0);
    let (next, seen) = commit_within(&tm, writer());
    assert_eq!((next.unwrap(), seen), (2, 2));
}

/// Redo at open commits under fresh CIDs after the log's; each is
/// visible when `redo` returns, a failed one's included, and the first
/// new commit follows them.
#[test]
fn redo_at_open_passes_the_watermark() {
    let dir = scratch("redo");
    {
        let wal = Arc::new(Wal::open_dir(&dir).unwrap());
        let tm = Arc::new(TransactionManager::recovered(
            wal,
            &RecoveryReport::default(),
        ));
        for cid in 1..=2 {
            assert_eq!(commit_within(&tm, writer()).0.unwrap(), cid);
        }
    }
    let wal = Arc::new(Wal::open_dir(&dir).unwrap());
    let report = wal.recover().unwrap();
    let tm = Arc::new(TransactionManager::recovered(wal, &report));
    assert_eq!(tm.current_snapshot().cid(), 2);
    assert_eq!(tm.redo(&writer(), |_| Ok(())).unwrap(), 3);
    assert_eq!(tm.current_snapshot().cid(), 3);
    assert!(tm.redo(&part(Vote::Prepared, lost), |_| Ok(())).is_err());
    assert_eq!(
        tm.current_snapshot().cid(),
        4,
        "a failed redo's CID passes too"
    );
    let (next, seen) = commit_within(&tm, writer());
    assert_eq!((next.unwrap(), seen), (5, 5));
    drop(tm);
    std::fs::remove_dir_all(&dir).ok();
}
