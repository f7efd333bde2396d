//! # hana-esp
//!
//! The event stream processor ("HANA ESP", §3.2 of the paper): a CCL
//! subset over input streams, count/time windows with retention and
//! aggregation, stateless derived streams with **ESP joins** against
//! reference data pushed from HANA, pattern detection with time budgets,
//! adapters forwarding into HANA tables or archiving raw events to HDFS,
//! and replay of archived streams.
//!
//! ```
//! use hana_esp::EspEngine;
//! use hana_types::{Row, Value};
//!
//! let esp = EspEngine::new();
//! esp.deploy(
//!     "CREATE INPUT STREAM calls SCHEMA (cell VARCHAR(10), dropped INT);
//!      CREATE OUTPUT WINDOW drops AS
//!          SELECT cell, SUM(dropped) AS d FROM calls GROUP BY cell
//!          KEEP 100 ROWS;",
//! ).unwrap();
//! esp.send("calls", 0, Row::from_values([Value::from("c1"), Value::Int(2)])).unwrap();
//! let snap = esp.window_snapshot("drops").unwrap();
//! assert_eq!(snap.len(), 1);
//! ```

mod ccl;
mod engine;
mod pattern;
mod window;

pub use ccl::{parse_ccl, parse_ccl_statement, CclStatement};
pub use engine::{
    parse_archive_line, EspEngine, EspTargetKind, Sink, SinkId, TableWriter,
    DEFAULT_INPUT_QUEUE_EVENTS,
};
pub use pattern::PatternMatcher;
pub use window::{validate_window_query, Keep, WindowQuery, WindowState};
