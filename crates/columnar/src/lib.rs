//! # hana-columnar
//!
//! The in-memory column store of the platform — the "SAP HANA core
//! in-memory engine" of §3.1: dictionary-encoded columns with a
//! read-optimized **main** fragment (ordered dictionary + compressed
//! value IDs) and a write-optimized **delta** fragment, merged on demand;
//! predicate evaluation in dictionary space; MVCC row versions; and the
//! native time-series tables of Figure 2.
//!
//! ```
//! use hana_columnar::{ColumnTable, ColumnPredicate};
//! use hana_exec::ExecContext;
//! use hana_types::{Schema, DataType, Value};
//!
//! let mut t = ColumnTable::new("sensors", Schema::of(&[
//!     ("equip_id", DataType::Varchar),
//!     ("pressure", DataType::Double),
//! ]));
//! t.insert(&[Value::from("P-100"), Value::Double(97.5)], 1).unwrap();
//! t.insert(&[Value::from("P-200"), Value::Double(42.0)], 1).unwrap();
//! let preds = [(1, ColumnPredicate::Gt(Value::Double(90.0)))];
//! let hits = t.scan_all(ExecContext::global(), &preds, 1).unwrap();
//! assert_eq!(hits.count(), 1);
//! ```

mod bitmap;
mod bitpack;
mod codec;
mod column;
mod dictionary;
mod index;
mod predicate;
mod stats;
mod table;
mod timeseries;

pub use bitmap::{RowIdBitmap, SetBits};
pub use bitpack::{width_for, BitPackedVec, Unpacked, BLOCK_ROWS};
pub use codec::{BlockSynopsis, VidCodec, VidRepr};
pub use column::{plain_columnar_bytes, row_layout_bytes, DeltaColumn, MainColumn};
pub use dictionary::{DeltaDictionary, OrderedDictionary, NULL_VID};
pub use index::{IndexDef, SecondaryIndex};
pub use predicate::{ColumnPredicate, MatchKind, VidMatch};
pub use stats::{ColumnStats, StatsBucket, TableStatistics, DEFAULT_STATS_BUCKETS};
pub use table::{ColumnTable, InsertBatch, RowVersions, NEVER};
pub use timeseries::{Compensation, CompressedDoubles, TimeSeriesTable};
