//! A reader's snapshot holds whole commits. One session loops `BEGIN;
//! INSERT INTO a; INSERT INTO b; COMMIT` while another loops `BEGIN;
//! COUNT a; COUNT b; COUNT a; COMMIT` for a fixed time: every reader
//! transaction sees both inserts of a commit or neither, and its two
//! counts of `a` agree. `a` is a column table and `b` a row table. It
//! holds on a durable log, where each commit waits for its fsync, and on
//! a volatile one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::Value;

const RUN: Duration = Duration::from_secs(2);

fn count(hana: &HanaPlatform, s: &Session, table: &str) -> i64 {
    let rs = hana
        .execute_sql(s, &format!("SELECT COUNT(*) FROM {table}"))
        .unwrap();
    match rs.rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("COUNT(*) returned {v:?}"),
    }
}

/// Run the writer and the reader on `hana` for [`RUN`]; fail if any
/// reader transaction saw part of a commit.
fn readers_see_whole_commits(hana: &HanaPlatform) {
    let admin = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(&admin, "CREATE COLUMN TABLE a (k INTEGER)")
        .unwrap();
    hana.execute_sql(&admin, "CREATE ROW TABLE b (k INTEGER)")
        .unwrap();
    let stop = AtomicBool::new(false);
    let (commits, [reads, split, moved]) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let w = hana.connect("SYSTEM", "manager").unwrap();
            let mut commits = 0;
            while !stop.load(Ordering::Relaxed) {
                for sql in [
                    "BEGIN".to_string(),
                    format!("INSERT INTO a VALUES ({commits})"),
                    format!("INSERT INTO b VALUES ({commits})"),
                    "COMMIT".to_string(),
                ] {
                    hana.execute_sql(&w, &sql).unwrap();
                }
                commits += 1;
            }
            commits
        });
        let r = hana.connect("SYSTEM", "manager").unwrap();
        let [mut reads, mut split, mut moved] = [0; 3];
        let start = Instant::now();
        while start.elapsed() < RUN {
            hana.execute_sql(&r, "BEGIN").unwrap();
            let first = count(hana, &r, "a");
            let other = count(hana, &r, "b");
            let again = count(hana, &r, "a");
            hana.execute_sql(&r, "COMMIT").unwrap();
            reads += 1;
            split += usize::from(first != other);
            moved += usize::from(first != again);
        }
        stop.store(true, Ordering::Relaxed);
        (writer.join().unwrap(), [reads, split, moved])
    });
    assert!(commits > 0 && reads > 0, "{commits} commits, {reads} reads");
    assert_eq!(
        (split, moved),
        (0, 0),
        "of {reads} reader transactions over {commits} commits, {split} saw a ≠ b \
         and {moved} saw a's count change under one snapshot"
    );
    assert_eq!(count(hana, &admin, "a"), commits);
    assert_eq!(count(hana, &admin, "b"), commits);
}

#[test]
fn a_reader_sees_whole_commits_on_a_volatile_log() {
    readers_see_whole_commits(&HanaPlatform::new_in_memory());
}

#[test]
fn a_reader_sees_whole_commits_on_a_durable_log() {
    let dir = std::env::temp_dir().join(format!("hana-snapshot-reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (hana, _) = HanaPlatform::open_durable(&dir).unwrap();
    readers_see_whole_commits(&hana);
    drop(hana);
    let _ = std::fs::remove_dir_all(&dir);
}
