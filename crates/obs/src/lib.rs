//! # hana-obs
//!
//! Unified observability for the platform: a lock-cheap global
//! [`Registry`] of named counters, gauges and log-bucketed latency
//! histograms; a span-based [`Tracer`] (explicit start/finish spans
//! with parent ids — no external dependencies, works in the
//! vendored-offline build); and a per-query [`QueryProfile`] tree
//! assembled from finished spans that renders as an
//! `EXPLAIN ANALYZE`-style report.
//!
//! The registry answers "how is the system doing" (throughput, cache
//! hit ratios, retry counts, latency percentiles, since process
//! start); the tracer answers "where did *this* query spend its time"
//! (wall time, rows, bytes and worker count per operator).
//!
//! ```
//! use hana_obs::{registry, span, Tracer};
//!
//! // Metrics: named instruments, get-or-create, atomic updates.
//! registry().counter("demo_rows_total").add(42);
//! registry().histogram("demo_latency_ns").record(1_500);
//! let snap = registry().snapshot();
//! assert_eq!(snap.counter("demo_rows_total"), 42);
//!
//! // Tracing: install a tracer, emit nested spans, build the profile.
//! let tracer = Tracer::new();
//! {
//!     let _g = tracer.install();
//!     let root = span("query");
//!     {
//!         let scan = span("scan");
//!         scan.set_rows(1000);
//!     }
//!     root.set_rows(10);
//! }
//! let profile = tracer.profile();
//! assert_eq!(profile.roots[0].name, "query");
//! assert_eq!(profile.roots[0].children[0].rows, Some(1000));
//! ```

mod profile;
mod registry;
mod trace;

pub use profile::{ProfileNode, QueryProfile};
pub use registry::{
    registry, warn, Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
};
pub use trace::{current_tracer, span, span_with, Span, SpanRecord, Tracer, TracerGuard};
