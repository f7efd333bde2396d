//! Stream windows with retention and incremental aggregation.

use std::collections::{HashMap, VecDeque};

use hana_sql::finish::{aggregate_output_schema, as_aggregate, collect_aggregates, finish_query};
use hana_sql::{evaluate, evaluate_predicate, Expr, Query};
use hana_types::{Accumulator, AggFunc, HanaError, Result, Row, Schema, Value};

/// Retention policy of a window (`KEEP n ROWS` / `KEEP n SECONDS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Keep the most recent `n` rows.
    Rows(usize),
    /// Keep rows younger than `n` seconds (event time).
    Seconds(i64),
    /// Keep everything until explicitly flushed (tumbling on demand).
    All,
}

/// One window's live contents: filtered events with their event-time
/// timestamps, plus (for aggregating windows) per-group accumulators
/// maintained incrementally where retraction is supported.
pub struct WindowState {
    keep: Keep,
    rows: VecDeque<(i64, Row)>,
    /// Total events ever admitted (monitoring).
    pub admitted: u64,
    /// Events expired by retention.
    pub expired: u64,
}

impl WindowState {
    /// A fresh window with the given retention.
    pub fn new(keep: Keep) -> WindowState {
        WindowState {
            keep,
            rows: VecDeque::new(),
            admitted: 0,
            expired: 0,
        }
    }

    /// The retention policy.
    pub fn keep(&self) -> Keep {
        self.keep
    }

    /// Admit one event (must arrive in non-decreasing event time for
    /// time-based retention to be exact).
    pub fn push(&mut self, ts: i64, row: Row) {
        self.rows.push_back((ts, row));
        self.admitted += 1;
        self.retire(ts);
    }

    /// Apply retention relative to `now`.
    pub fn retire(&mut self, now: i64) {
        match self.keep {
            Keep::Rows(n) => {
                while self.rows.len() > n {
                    self.rows.pop_front();
                    self.expired += 1;
                }
            }
            Keep::Seconds(s) => {
                let horizon = now - s * 1_000_000;
                while self.rows.front().is_some_and(|(ts, _)| *ts < horizon) {
                    self.rows.pop_front();
                    self.expired += 1;
                }
            }
            Keep::All => {}
        }
    }

    /// Current number of retained rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Snapshot the retained rows.
    pub fn rows(&self) -> Vec<Row> {
        self.rows.iter().map(|(_, r)| r.clone()).collect()
    }

    /// Clear the window (tumbling emission).
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

/// A window definition's SELECT, its WHERE filter, group keys and
/// aggregate arguments resolved against the input stream once, when
/// the window is defined: an unknown column is a definition error, not
/// an event dropped.
pub struct WindowQuery {
    query: Query,
    input_schema: Schema,
    filter: Option<Expr>,
    group_by: Vec<Expr>,
    aggs: Vec<(AggFunc, Option<Expr>)>,
}

impl WindowQuery {
    /// Validate `query` ([`validate_window_query`]) and resolve it over
    /// events of `input_schema`.
    pub fn new(query: Query, input_schema: Schema) -> Result<WindowQuery> {
        validate_window_query(&query)?;
        let resolve = |e: &Expr| e.resolve(&input_schema, &[]);
        let filter = query.filter.as_ref().map(resolve).transpose()?;
        let group_by = query.group_by.iter().map(resolve).collect::<Result<_>>()?;
        let arg =
            |(f, arg): &(AggFunc, Option<Expr>)| Ok((*f, arg.as_ref().map(resolve).transpose()?));
        let aggs = collect_aggregates(&query)
            .iter()
            .map(arg)
            .collect::<Result<_>>()?;
        Ok(WindowQuery {
            query,
            input_schema,
            filter,
            group_by,
            aggs,
        })
    }

    /// Whether an event passes the WHERE filter (applied before
    /// retention).
    pub fn admits(&self, row: &Row) -> Result<bool> {
        self.filter
            .as_ref()
            .map_or(Ok(true), |f| evaluate_predicate(f, row))
    }

    /// Evaluate the SELECT over the retained rows, producing the
    /// window's output relation.
    ///
    /// Uses the shared `_g/_a` convention and driver epilogue, so windows
    /// aggregate exactly like every other engine in the platform.
    pub fn output(&self, state: &WindowState) -> Result<ResultRows> {
        let (query, rows) = (&self.query, state.rows());
        if query.group_by.is_empty() && self.aggs.is_empty() {
            // Plain (non-aggregating) window: retained rows, projected.
            let (out, schema) = finish_query(rows, &self.input_schema, query)?;
            return Ok(ResultRows { rows: out, schema });
        }
        // Hash-aggregate the window contents.
        let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        for r in &rows {
            let key = self.group_by.iter().map(|g| evaluate(g, r));
            let accs = groups
                .entry(key.collect::<Result<_>>()?)
                .or_insert_with(|| self.aggs.iter().map(|(f, _)| f.accumulator()).collect());
            for (acc, (_, arg)) in accs.iter_mut().zip(&self.aggs) {
                match arg {
                    Some(e) => acc.add(&evaluate(e, r)?),
                    None => acc.add(&Value::Null),
                }
            }
        }
        if groups.is_empty() && query.group_by.is_empty() {
            groups.insert(
                Vec::new(),
                self.aggs.iter().map(|(f, _)| f.accumulator()).collect(),
            );
        }
        let agg_schema = aggregate_output_schema(query, &self.input_schema)?;
        let mut agg_rows: Vec<Row> = groups
            .into_iter()
            .map(|(mut k, accs)| {
                k.extend(accs.iter().map(|a| a.finish()));
                Row(k)
            })
            .collect();
        agg_rows.sort();
        let (out, schema) = finish_query(agg_rows, &agg_schema, query)?;
        Ok(ResultRows { rows: out, schema })
    }
}

/// A window's output relation.
pub struct ResultRows {
    /// Output rows.
    pub rows: Vec<Row>,
    /// Output schema.
    pub schema: Schema,
}

/// Validate at definition time that a window query's aggregates are
/// supported (guards against late runtime surprises).
pub fn validate_window_query(query: &Query) -> Result<()> {
    for (f, arg) in collect_aggregates(query) {
        if f == AggFunc::Count && arg.is_none() {
            return Err(HanaError::Stream("COUNT requires an argument".into()));
        }
    }
    for item in &query.select {
        // Nested aggregates are invalid.
        let mut depth_err = false;
        item.expr.walk(&mut |e| {
            if let Some((_, Some(arg))) = as_aggregate(e) {
                if arg.contains_aggregate() {
                    depth_err = true;
                }
            }
        });
        if depth_err {
            return Err(HanaError::Stream(format!(
                "nested aggregate in window select: {}",
                item.expr
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_sql::{parse_statement, Statement};
    use hana_types::DataType;

    fn q(sql: &str) -> Query {
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        q
    }

    fn schema() -> Schema {
        Schema::of(&[("cell", DataType::Varchar), ("load", DataType::Double)])
    }

    fn ev(cell: &str, load: f64) -> Row {
        Row::from_values([Value::from(cell), Value::Double(load)])
    }

    fn output(w: &WindowState, sql: &str) -> ResultRows {
        let window = WindowQuery::new(q(sql), schema()).unwrap();
        window.output(w).unwrap()
    }

    #[test]
    fn row_retention() {
        let mut w = WindowState::new(Keep::Rows(3));
        for i in 0..5 {
            w.push(i, ev("c1", i as f64));
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.expired, 2);
        assert_eq!(w.rows()[0][1], Value::Double(2.0));
    }

    #[test]
    fn time_retention() {
        let mut w = WindowState::new(Keep::Seconds(10));
        w.push(0, ev("c1", 1.0));
        w.push(5_000_000, ev("c1", 2.0));
        w.push(11_000_000, ev("c1", 3.0)); // expires ts=0
        assert_eq!(w.len(), 2);
        w.retire(30_000_000);
        assert_eq!(w.len(), 0);
        assert_eq!(w.expired, 3);
    }

    #[test]
    fn aggregating_window_output() {
        let mut w = WindowState::new(Keep::All);
        for (c, l) in [("c1", 10.0), ("c2", 20.0), ("c1", 30.0)] {
            w.push(0, ev(c, l));
        }
        let out = output(
            &w,
            "SELECT cell, AVG(load) AS avg_load, COUNT(*) FROM s GROUP BY cell ORDER BY cell",
        );
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][1], Value::Double(20.0));
        assert_eq!(out.schema.index_of("avg_load"), Some(1));
    }

    #[test]
    fn plain_window_projects() {
        let mut w = WindowState::new(Keep::Rows(10));
        w.push(0, ev("c9", 99.0));
        let out = output(&w, "SELECT load FROM s WHERE cell = 'c9'");
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::Double(99.0));
    }

    #[test]
    fn empty_window_global_aggregate() {
        let w = WindowState::new(Keep::Rows(5));
        let out = output(&w, "SELECT COUNT(*), SUM(load) FROM s");
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::Int(0));
        assert!(out.rows[0][1].is_null());
    }

    #[test]
    fn validation_rejects_nested_aggregates() {
        assert!(validate_window_query(&q("SELECT SUM(load) FROM s")).is_ok());
        assert!(validate_window_query(&q("SELECT SUM(AVG(load)) FROM s")).is_err());
    }
}
