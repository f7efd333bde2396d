//! Event pattern detection.
//!
//! §3.2: "The SAP Sybase ESP may also detect predefined patterns in the
//! event stream and trigger corresponding actions on the application
//! side." A pattern is an ordered sequence of predicates that must match
//! successive events within a time budget (`WITHIN n SECONDS`).

use hana_sql::{evaluate_predicate, Expr};
use hana_types::{Result, Row, Schema};

/// A compiled pattern matcher over one stream.
pub struct PatternMatcher {
    /// The steps, resolved against the stream schema.
    steps: Vec<Expr>,
    within_us: i64,
    /// Partial matches: (start event time, next step index, captured rows).
    partial: Vec<(i64, usize, Vec<Row>)>,
}

impl PatternMatcher {
    /// Build a matcher for `steps` (each a boolean expression over
    /// `schema`, resolved here: an unknown column is an error now, not a
    /// step that never matches) that must complete within `within_secs`.
    pub fn new(steps: Vec<Expr>, within_secs: i64, schema: &Schema) -> Result<PatternMatcher> {
        let steps = steps.iter().map(|s| s.resolve(schema, &[]));
        Ok(PatternMatcher {
            steps: steps.collect::<Result<_>>()?,
            within_us: within_secs * 1_000_000,
            partial: Vec::new(),
        })
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the pattern has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Feed one event; returns the sequences completed by this event
    /// (each is the captured row per step). A step that fails to
    /// evaluate is the error, and the matcher's state is left as it was.
    pub fn on_event(&mut self, ts: i64, row: &Row) -> Result<Vec<Vec<Row>>> {
        if self.steps.is_empty() {
            return Ok(Vec::new());
        }
        let matches = self.steps.iter().map(|s| evaluate_predicate(s, row));
        let matches = matches.collect::<Result<Vec<bool>>>()?;
        // Expire partials that ran out of time.
        self.partial
            .retain(|(start, _, _)| ts - start <= self.within_us);

        let mut completed = Vec::new();

        // Advance existing partials (each at most one step per event).
        let mut advanced = Vec::new();
        for (start, next, mut captured) in std::mem::take(&mut self.partial) {
            if matches[next] {
                captured.push(row.clone());
                if next + 1 == self.steps.len() {
                    completed.push(captured);
                } else {
                    advanced.push((start, next + 1, captured));
                }
            } else {
                advanced.push((start, next, captured));
            }
        }
        self.partial = advanced;

        // Start a new partial if the event matches step 0.
        if matches[0] {
            if self.steps.len() == 1 {
                completed.push(vec![row.clone()]);
            } else {
                self.partial.push((ts, 1, vec![row.clone()]));
            }
        }
        Ok(completed)
    }

    /// Currently tracked partial matches (monitoring).
    pub fn partial_count(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_sql::{parse_statement, Statement};
    use hana_types::{DataType, Value};

    fn pred(sql: &str) -> Expr {
        let Statement::Query(q) = parse_statement(&format!("SELECT * FROM t WHERE {sql}")).unwrap()
        else {
            panic!()
        };
        q.filter.unwrap()
    }

    fn schema() -> Schema {
        Schema::of(&[("kind", DataType::Varchar), ("v", DataType::Double)])
    }

    fn ev(kind: &str, v: f64) -> Row {
        Row::from_values([Value::from(kind), Value::Double(v)])
    }

    #[test]
    fn sequence_completes_in_order() {
        let mut m = PatternMatcher::new(
            vec![pred("kind = 'warn'"), pred("kind = 'error'")],
            10,
            &schema(),
        )
        .unwrap();
        assert!(m.on_event(0, &ev("ok", 0.0)).unwrap().is_empty());
        assert!(m.on_event(1_000_000, &ev("warn", 1.0)).unwrap().is_empty());
        assert_eq!(m.partial_count(), 1);
        let done = m.on_event(2_000_000, &ev("error", 2.0)).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].len(), 2);
        assert_eq!(done[0][0][0], Value::from("warn"));
        assert_eq!(m.partial_count(), 0);
    }

    #[test]
    fn timeout_expires_partials() {
        let mut m = PatternMatcher::new(
            vec![pred("kind = 'warn'"), pred("kind = 'error'")],
            5,
            &schema(),
        )
        .unwrap();
        m.on_event(0, &ev("warn", 1.0)).unwrap();
        // 6 seconds later: the partial is stale.
        let done = m.on_event(6_000_000, &ev("error", 2.0)).unwrap();
        assert!(done.is_empty());
        assert_eq!(m.partial_count(), 0);
    }

    #[test]
    fn overlapping_matches() {
        let mut m =
            PatternMatcher::new(vec![pred("kind = 'a'"), pred("kind = 'b'")], 100, &schema())
                .unwrap();
        m.on_event(0, &ev("a", 1.0)).unwrap();
        m.on_event(1, &ev("a", 2.0)).unwrap();
        let done = m.on_event(2, &ev("b", 3.0)).unwrap();
        assert_eq!(done.len(), 2, "both partials complete on one 'b'");
    }

    #[test]
    fn single_step_pattern_fires_immediately() {
        let mut m = PatternMatcher::new(vec![pred("v > 95")], 1, &schema()).unwrap();
        assert_eq!(m.on_event(0, &ev("x", 99.0)).unwrap().len(), 1);
        assert!(m.on_event(1, &ev("x", 10.0)).unwrap().is_empty());
    }
}
