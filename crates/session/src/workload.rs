//! Statement classification and workload-class admission.
//!
//! Every statement is classified from its *plan shape* before it
//! touches the execution pool: aggregations, federated operators and
//! large estimated scans are OLAP; short point lookups and DML are
//! OLTP. The [`WorkloadManager`] then admits the statement through its
//! class's hana-exec [`AdmissionController`]. The two pools share no
//! slot and no lock, so an analytical burst queues (and eventually
//! sheds with a retryable `overloaded` error) in the OLAP pool while
//! point lookups keep flowing through the OLTP one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hana_exec::{AdmissionController, AdmissionPermit, ClassConfig};
use hana_obs::{Counter, Histogram};
use hana_query::{PlanNode, PlanOp};
use hana_types::{HanaError, Result};

/// Plans whose largest scan estimates at least this many rows are OLAP
/// even without an aggregate.
const OLAP_ROW_THRESHOLD: f64 = 100_000.0;

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

/// Workload-management configuration: the limits of each class's pool.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// OLTP limits (default: 64 concurrent, queue 256, 2 s timeout).
    pub oltp: ClassConfig,
    /// OLAP limits (default: 8 concurrent, queue 32, 5 s timeout).
    pub olap: ClassConfig,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            oltp: ClassConfig::new(64)
                .with_queue(256)
                .with_timeout(Duration::from_secs(2)),
            olap: ClassConfig::new(8)
                .with_queue(32)
                .with_timeout(Duration::from_secs(5)),
        }
    }
}

/// One class: its admission pool and its session instruments in the
/// global `hana-obs` registry, resolved once:
/// `hana_session_latency_ns_<class>`,
/// `hana_session_statements_total_<class>`,
/// `hana_session_errors_total_<class>`.
struct Class {
    pool: AdmissionController,
    latency: Arc<Histogram>,
    statements: Arc<Counter>,
    errors: Arc<Counter>,
}

impl Class {
    fn new(class: WorkloadClass, cfg: ClassConfig) -> Class {
        let obs = hana_obs::registry();
        let name = class.name();
        Class {
            pool: AdmissionController::new(name, cfg),
            latency: obs.histogram(&format!("hana_session_latency_ns_{name}")),
            statements: obs.counter(&format!("hana_session_statements_total_{name}")),
            errors: obs.counter(&format!("hana_session_errors_total_{name}")),
        }
    }
}

/// Classifies statements and admits them through their class's pool.
pub struct WorkloadManager {
    oltp: Class,
    olap: Class,
}

impl WorkloadManager {
    /// A manager over the given configuration.
    pub fn new(cfg: WorkloadConfig) -> WorkloadManager {
        WorkloadManager {
            oltp: Class::new(WorkloadClass::Oltp, cfg.oltp),
            olap: Class::new(WorkloadClass::Olap, cfg.olap),
        }
    }

    fn class(&self, class: WorkloadClass) -> &Class {
        match class {
            WorkloadClass::Oltp => &self.oltp,
            WorkloadClass::Olap => &self.olap,
        }
    }

    /// Record one executed statement of `class`: its latency since
    /// `start` and its outcome.
    pub fn record(&self, class: WorkloadClass, start: Instant, ok: bool) {
        let class = self.class(class);
        class.latency.record(start.elapsed().as_nanos() as u64);
        class.statements.inc();
        if !ok {
            class.errors.inc();
        }
    }

    /// Classify a compiled plan by shape and cardinality estimates.
    pub fn classify(&self, plan: &PlanNode) -> WorkloadClass {
        if is_olap_shape(plan) {
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
        let permit = self
            .class(class)
            .pool
            .admit()
            .map_err(|r| HanaError::overloaded(r.to_string()))?;
        span.attr("wait_ns", permit.admitted_after().as_nanos() as u64);
        Ok(permit)
    }

    /// `(running, queued, peak_running)` for a class.
    pub fn class_stats(&self, class: WorkloadClass) -> (usize, usize, usize) {
        self.class(class).pool.class_stats()
    }
}

/// Whether the plan is analytical: any aggregation or federated
/// operator, or a scan whose cardinality estimate reaches
/// [`OLAP_ROW_THRESHOLD`].
fn is_olap_shape(n: &PlanNode) -> bool {
    match &n.op {
        PlanOp::Aggregate { .. } => true,
        // Remote scans and remote joins ship data across the
        // landscape — never point lookups.
        PlanOp::RemoteQuery { .. } | PlanOp::RemoteJoin { .. } => true,
        // Index seeks are the OLTP hot path, but a wide range seek can
        // still return a large fraction of the table — classify by the
        // estimate like any other access path.
        PlanOp::ColumnScan { .. }
        | PlanOp::IndexSeek { .. }
        | PlanOp::RowScan { .. }
        | PlanOp::DistScan { .. }
        | PlanOp::HybridScan { .. } => n.est_rows >= OLAP_ROW_THRESHOLD,
        PlanOp::FunctionScan { .. } => false,
        PlanOp::HashJoin { left, right, .. } | PlanOp::NestedLoopJoin { left, right, .. } => {
            is_olap_shape(left) || is_olap_shape(right)
        }
        PlanOp::Filter { input, .. } | PlanOp::Finish { input, .. } => is_olap_shape(input),
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
                projection: Vec::new(),
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
        let input = Schema::of(&[("v", hana_types::DataType::Int)]);
        let finish = PlanNode {
            op: PlanOp::Finish {
                input: Box::new(scan(1.0)),
                epilogue: hana_sql::finish::Epilogue::new(&input, &query, &[]).unwrap(),
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
            olap: ClassConfig::new(1)
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
