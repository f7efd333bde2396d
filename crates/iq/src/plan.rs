//! Remote plans executed inside the extended storage.
//!
//! Per §3.1, SAP HANA pushes whole sub-plans below the distributed
//! exchange operator to the IQ query processor: scans with predicates,
//! group-bys, joins and nested sub-plans. [`IqPlan`] is the shape of
//! those shipped sub-plans; the driver epilogue
//! (`hana_sql::finish::Epilogue`) sorts and limits what they return.

use hana_columnar::ColumnPredicate;
use hana_types::AggFunc;

/// A sub-plan shipped to the extended storage for local execution.
#[derive(Debug, Clone)]
pub enum IqPlan {
    /// Scan a table with conjunctive column predicates and an optional
    /// projection (column names; `None` = all columns).
    Scan {
        /// Table to scan.
        table: String,
        /// Conjunctive predicates by column name.
        predicates: Vec<(String, ColumnPredicate)>,
        /// Output columns, or `None` for all.
        projection: Option<Vec<String>>,
    },
    /// Hash equi-join of two sub-plans.
    Join {
        /// Build side.
        left: Box<IqPlan>,
        /// Probe side.
        right: Box<IqPlan>,
        /// Join column in the left output.
        left_col: String,
        /// Join column in the right output.
        right_col: String,
    },
    /// Hash aggregation. With an empty `group_by`, produces one row.
    Aggregate {
        /// Input plan.
        input: Box<IqPlan>,
        /// Grouping columns (by name in the input's output).
        group_by: Vec<String>,
        /// Aggregates: function + input column (`None` for `COUNT(*)`).
        aggregates: Vec<(AggFunc, Option<String>)>,
    },
}

impl IqPlan {
    /// Convenience: a full scan of `table`.
    pub fn scan(table: &str) -> IqPlan {
        IqPlan::Scan {
            table: table.to_string(),
            predicates: Vec::new(),
            projection: None,
        }
    }

    /// Convenience: a filtered scan.
    pub fn scan_where(table: &str, predicates: Vec<(String, ColumnPredicate)>) -> IqPlan {
        IqPlan::Scan {
            table: table.to_string(),
            predicates,
            projection: None,
        }
    }

    /// One-line plan rendering for EXPLAIN output and tests.
    pub fn describe(&self) -> String {
        match self {
            IqPlan::Scan {
                table, predicates, ..
            } => {
                if predicates.is_empty() {
                    format!("IQ Scan({table})")
                } else {
                    format!("IQ Scan({table}, {} preds)", predicates.len())
                }
            }
            IqPlan::Join {
                left,
                right,
                left_col,
                right_col,
            } => format!(
                "IQ Join({} = {})[{}, {}]",
                left_col,
                right_col,
                left.describe(),
                right.describe()
            ),
            IqPlan::Aggregate {
                input, group_by, ..
            } => format!("IQ GroupBy({:?})[{}]", group_by, input.describe()),
        }
    }
}
