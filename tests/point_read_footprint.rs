//! A point read costs its hit, not its table: one prepared
//! `SELECT v FROM accounts WHERE k = ?` on a plan-cache hit allocates a
//! few kilobytes whether `accounts` holds 2 000 rows or 200 000. An
//! index seek returns the row ids it found, so nothing on the read's
//! path is sized by the row domain (a hit bitmap over 200 000 rows
//! alone would be 25 000 bytes).
//!
//! The binary's global allocator counts the bytes each thread requests;
//! a point read runs inline on the calling thread, so the calling
//! thread's count is the read's whole footprint.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use hana_core::HanaPlatform;
use hana_session::SessionManager;
use hana_types::{Row, Value};

/// The system allocator, counting the bytes requested on each thread.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the calling thread requests while `f` runs.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// Bytes one warm prepared point read requests on an `accounts` table
/// of `rows` rows, loaded, merged and indexed on `k`, as the OLTP
/// benchmark builds it.
fn point_read_bytes(rows: i64) -> usize {
    let platform = Arc::new(HanaPlatform::new_in_memory());
    let admin = platform.connect("SYSTEM", "manager").unwrap();
    platform
        .execute_sql(
            &admin,
            "CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER, note VARCHAR(32))",
        )
        .unwrap();
    let data: Vec<Row> = (0..rows)
        .map(|k| {
            Row::from_values([
                Value::Int(k),
                Value::Int(k % 97),
                Value::Varchar(format!("note-{k}")),
            ])
        })
        .collect();
    platform.load_rows(&admin, "accounts", &data).unwrap();
    platform
        .execute_sql(&admin, "MERGE DELTA OF accounts")
        .unwrap();
    platform
        .execute_sql(&admin, "CREATE INDEX ix_accounts_k ON accounts (k)")
        .unwrap();

    let manager = SessionManager::new(platform);
    let session = manager.connect("SYSTEM", "manager").unwrap();
    let lookup = session
        .prepare("SELECT v FROM accounts WHERE k = ?")
        .unwrap();
    let read = |k: i64| {
        let rs = session.execute_prepared(&lookup, &[Value::Int(k)]).unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(k % 97));
    };
    // Plan, cache entry, registry instruments and pools are in place.
    for k in 0..16 {
        read(k * (rows / 16));
    }
    let ((), bytes) = requested_by(|| read(rows / 2 + 1));
    bytes
}

#[test]
fn a_point_read_allocates_for_its_hit_not_for_its_table() {
    let small = point_read_bytes(2_000);
    let large = point_read_bytes(200_000);
    assert!(
        large < 8 * 1024,
        "a point read over 200 000 rows requested {large} B (2 000 rows: {small} B)"
    );
    assert!(
        large <= small + 512,
        "a point read requested {large} B over 200 000 rows but {small} B over 2 000: \
         something on its path grows with the table"
    );
}
