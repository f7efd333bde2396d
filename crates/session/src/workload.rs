//! Statement classification and workload-class admission.
//!
//! Every statement is classified from its *plan shape* before it
//! touches the execution pool: aggregations, federated operators and
//! large estimated scans are OLAP; short point lookups and DML are
//! OLTP. The [`WorkloadManager`] then admission-controls the statement
//! through the hana-exec [`AdmissionController`] — OLTP outranks OLAP
//! by default, so analytical bursts queue (and eventually shed with a
//! retryable `overloaded` error) while point lookups keep flowing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hana_exec::{AdmissionController, AdmissionPermit, ClassConfig, Rejection};
use hana_obs::{Counter, Histogram};
use hana_query::{PlanNode, PlanOp};
use hana_types::{HanaError, Result};

/// Workload classes the session layer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Short transactional statements: point lookups, single-row DML.
    Oltp,
    /// Scan/aggregate-heavy analytical statements.
    Olap,
}

impl WorkloadClass {
    /// The class label used for admission and metric names.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadClass::Oltp => "oltp",
            WorkloadClass::Olap => "olap",
        }
    }
}

/// Workload-management configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// OLTP class limits (default: 64 concurrent, queue 256, 2 s
    /// timeout, priority 10).
    pub oltp: ClassConfig,
    /// OLAP class limits (default: 8 concurrent, queue 32, 5 s
    /// timeout, priority 1).
    pub olap: ClassConfig,
    /// Optional shared cap across both classes.
    pub total_limit: Option<usize>,
    /// Plans whose largest scan estimates at least this many rows are
    /// OLAP even without an aggregate.
    pub olap_row_threshold: f64,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            oltp: ClassConfig::new("oltp", 64)
                .with_queue(256)
                .with_timeout(Duration::from_secs(2))
                .with_priority(10),
            olap: ClassConfig::new("olap", 8)
                .with_queue(32)
                .with_timeout(Duration::from_secs(5))
                .with_priority(1),
            total_limit: None,
            olap_row_threshold: 100_000.0,
        }
    }
}

/// The per-class instruments of the global `hana-obs` registry,
/// resolved once: `hana_session_latency_ns_<class>`,
/// `hana_session_statements_total_<class>`,
/// `hana_session_errors_total_<class>`.
struct ClassInstruments {
    latency: Arc<Histogram>,
    statements: Arc<Counter>,
    errors: Arc<Counter>,
}

impl ClassInstruments {
    fn of(class: WorkloadClass) -> ClassInstruments {
        let obs = hana_obs::registry();
        let name = class.name();
        ClassInstruments {
            latency: obs.histogram(&format!("hana_session_latency_ns_{name}")),
            statements: obs.counter(&format!("hana_session_statements_total_{name}")),
            errors: obs.counter(&format!("hana_session_errors_total_{name}")),
        }
    }
}

/// Classifies statements and admission-controls them per class.
pub struct WorkloadManager {
    controller: AdmissionController,
    olap_row_threshold: f64,
    oltp: ClassInstruments,
    olap: ClassInstruments,
}

impl WorkloadManager {
    /// A manager over the given configuration.
    pub fn new(cfg: WorkloadConfig) -> WorkloadManager {
        WorkloadManager {
            controller: AdmissionController::new(vec![cfg.oltp, cfg.olap], cfg.total_limit),
            olap_row_threshold: cfg.olap_row_threshold,
            oltp: ClassInstruments::of(WorkloadClass::Oltp),
            olap: ClassInstruments::of(WorkloadClass::Olap),
        }
    }

    /// Record one executed statement of `class`: its latency since
    /// `start` and its outcome.
    pub fn record(&self, class: WorkloadClass, start: Instant, ok: bool) {
        let instruments = match class {
            WorkloadClass::Oltp => &self.oltp,
            WorkloadClass::Olap => &self.olap,
        };
        instruments
            .latency
            .record(start.elapsed().as_nanos() as u64);
        instruments.statements.inc();
        if !ok {
            instruments.errors.inc();
        }
    }

    /// Classify a compiled plan by shape and cardinality estimates.
    pub fn classify(&self, plan: &PlanNode) -> WorkloadClass {
        if is_olap_shape(plan, self.olap_row_threshold) {
            WorkloadClass::Olap
        } else {
            WorkloadClass::Oltp
        }
    }

    /// Wait for (or be refused) an execution slot for `class`,
    /// translating admission rejections onto the platform error
    /// taxonomy (`overloaded`, retryable).
    pub fn admit(&self, class: WorkloadClass) -> Result<AdmissionPermit<'_>> {
        let span = hana_obs::span("admission");
        match self.controller.admit(class.name()) {
            Ok(permit) => {
                span.attr("wait_ns", permit.admitted_after().as_nanos() as u64);
                Ok(permit)
            }
            Err(r) => Err(reject_to_error(r)),
        }
    }

    /// `(running, queued, peak_running)` for a class.
    pub fn class_stats(&self, class: WorkloadClass) -> (usize, usize, usize) {
        self.controller
            .class_stats(class.name())
            .unwrap_or((0, 0, 0))
    }
}

fn reject_to_error(r: Rejection) -> HanaError {
    HanaError::overloaded(r.to_string())
}

/// Whether the plan is analytical: any aggregation or federated
/// operator, or a scan whose cardinality estimate reaches `threshold`.
fn is_olap_shape(n: &PlanNode, threshold: f64) -> bool {
    match &n.op {
        PlanOp::Aggregate { .. } => true,
        // Federated and semi/relocation joins ship data across the
        // landscape — never point lookups.
        PlanOp::RemoteQuery { .. } | PlanOp::SemiJoin { .. } | PlanOp::RelocateJoin { .. } => true,
        // Index seeks are the OLTP hot path, but a wide range seek can
        // still return a large fraction of the table — classify by the
        // estimate like any other access path.
        PlanOp::ColumnScan { .. }
        | PlanOp::IndexSeek { .. }
        | PlanOp::RowScan { .. }
        | PlanOp::DistScan { .. }
        | PlanOp::HybridScan { .. } => n.est_rows >= threshold,
        PlanOp::FunctionScan { .. } => false,
        PlanOp::HashJoin { left, right, .. } => {
            is_olap_shape(left, threshold) || is_olap_shape(right, threshold)
        }
        PlanOp::NestedLoopJoin { left, right, .. } => {
            is_olap_shape(left, threshold) || is_olap_shape(right, threshold)
        }
        PlanOp::Filter { input, .. } | PlanOp::Finish { input, .. } => {
            is_olap_shape(input, threshold)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_types::Schema;

    fn scan(est: f64) -> PlanNode {
        PlanNode {
            op: PlanOp::ColumnScan {
                binding: "t".into(),
                table: "t".into(),
                preds: Vec::new(),
            },
            schema: Schema::of(&[]),
            est_rows: est,
            est_source: hana_query::EstSource::Heuristic,
        }
    }

    fn manager() -> WorkloadManager {
        WorkloadManager::new(WorkloadConfig::default())
    }

    #[test]
    fn point_lookup_is_oltp_large_scan_is_olap() {
        let m = manager();
        assert_eq!(m.classify(&scan(1.0)), WorkloadClass::Oltp);
        assert_eq!(m.classify(&scan(1_000_000.0)), WorkloadClass::Olap);
    }

    #[test]
    fn aggregate_is_olap_regardless_of_cardinality() {
        let m = manager();
        let agg = PlanNode {
            op: PlanOp::Aggregate {
                input: Box::new(scan(10.0)),
                group_by: Vec::new(),
                aggs: Vec::new(),
            },
            schema: Schema::of(&[]),
            est_rows: 1.0,
            est_source: hana_query::EstSource::Heuristic,
        };
        assert_eq!(m.classify(&agg), WorkloadClass::Olap);
    }

    #[test]
    fn finish_over_small_scan_stays_oltp() {
        let m = manager();
        let q = hana_sql::parse_statement("SELECT v FROM t WHERE k = 1").unwrap();
        let query = match q {
            hana_sql::Statement::Query(q) => q,
            _ => unreachable!(),
        };
        let finish = PlanNode {
            op: PlanOp::Finish {
                input: Box::new(scan(1.0)),
                query,
            },
            schema: Schema::of(&[]),
            est_rows: 1.0,
            est_source: hana_query::EstSource::Heuristic,
        };
        assert_eq!(m.classify(&finish), WorkloadClass::Oltp);
    }

    #[test]
    fn rejections_map_to_retryable_overloaded() {
        let m = WorkloadManager::new(WorkloadConfig {
            olap: ClassConfig::new("olap", 1)
                .with_queue(0)
                .with_timeout(Duration::from_millis(10)),
            ..WorkloadConfig::default()
        });
        let held = m.admit(WorkloadClass::Olap).unwrap();
        let err = m.admit(WorkloadClass::Olap).unwrap_err();
        assert_eq!(err.kind(), "overloaded");
        assert!(err.is_retryable(), "clients are told to back off + retry");
        drop(held);
        assert_eq!(m.class_stats(WorkloadClass::Olap).0, 0);
    }
}
