//! # hana-txn
//!
//! Transaction, snapshot and distributed-commit management — the §3.1
//! "Transactions" machinery of the paper: the coordinator generates
//! transaction IDs and commit IDs, drives an improved two-phase commit
//! across the in-memory store and extended (IQ) stores, logs to one
//! shared write-ahead log — a directory of rolling segments, or a
//! volatile log that stores nothing — whose classified records
//! ([`Wal::recover_records`], up to a point in time) and checkpoints
//! the platform redoes, and surfaces **in-doubt** transactions for
//! manual abortion after a crash of the extended store. A checkpoint
//! prunes only segments sealed before its cut, and only when no
//! transaction was active at it ([`TransactionManager::checkpoint_cut`]),
//! so every record of every later commit survives.
//!
//! ```
//! use hana_txn::TransactionManager;
//!
//! let tm = TransactionManager::new();
//! let txn = tm.begin();
//! // ... buffer writes, then commit across participants ...
//! let receipt = tm.commit(txn, &[]).unwrap();
//! assert!(tm.current_snapshot().sees(receipt.cid));
//! ```

mod manager;
mod participant;
mod snapshot;
mod wal;

pub use manager::{CheckpointCut, CommitReceipt, TransactionManager, TxnHandle};
pub use participant::{TwoPhaseParticipant, Vote};
pub use snapshot::Snapshot;
pub use wal::{DurableTicket, LogRecord, RecoveryReport, Wal, WalCheckpoint, WalConfig};
