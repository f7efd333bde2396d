//! Capability descriptions of remote sources.
//!
//! "SDA relies on a description of the capabilities of a remote server …
//! In the capability property file one finds, e.g. `CAP_JOINS : true`
//! and `CAP_JOINS_OUTER : true`" (§4.2). The optimizer consults these
//! flags before shipping plan fragments to a source.

use hana_sql::{JoinKind, Query, TableRef};
use hana_types::{HanaError, Result};

/// The capability flags of one adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapabilitySet {
    /// Basic SELECT shipping.
    pub cap_select: bool,
    /// Predicate pushdown (WHERE).
    pub cap_where: bool,
    /// Inner joins.
    pub cap_joins: bool,
    /// Outer joins.
    pub cap_joins_outer: bool,
    /// GROUP BY / aggregation.
    pub cap_group_by: bool,
    /// ORDER BY.
    pub cap_order_by: bool,
    /// LIMIT / TOP.
    pub cap_limit: bool,
    /// INSERT / UPDATE / DELETE.
    pub cap_dml: bool,
    /// Transactional guarantees (participates in distributed commits).
    pub cap_transactions: bool,
    /// Semi-join reduction: the source accepts shipped key sets.
    pub cap_semi_join: bool,
    /// Remote result materialization (CTAS-based caching).
    pub cap_remote_cache: bool,
}

impl CapabilitySet {
    /// Capabilities of a Hive/Hadoop source (§4.2: "for Hive and Hadoop
    /// only select statements without transactional guarantees are
    /// supported", but joins/grouping can be pushed).
    pub fn hive() -> CapabilitySet {
        CapabilitySet {
            cap_select: true,
            cap_where: true,
            cap_joins: true,
            cap_joins_outer: false,
            cap_group_by: true,
            cap_order_by: true,
            cap_limit: true,
            cap_dml: false,
            cap_transactions: false,
            cap_semi_join: true,
            cap_remote_cache: true,
        }
    }

    /// Capabilities of the tightly-integrated IQ extended storage
    /// (§3.1: inserts/updates/deletes, order by, group by, joins,
    /// nested queries, full transactions). Its plan compiler joins
    /// inner only, so an outer join over extended tables runs locally
    /// over shipped scans.
    pub fn iq() -> CapabilitySet {
        CapabilitySet {
            cap_select: true,
            cap_where: true,
            cap_joins: true,
            cap_joins_outer: false,
            cap_group_by: true,
            cap_order_by: true,
            cap_limit: true,
            cap_dml: true,
            cap_transactions: true,
            cap_semi_join: true,
            cap_remote_cache: false,
        }
    }

    /// Capabilities of the raw-MapReduce adapter: it can only invoke
    /// registered jobs, nothing can be pushed down.
    pub fn hadoop_mr() -> CapabilitySet {
        CapabilitySet {
            cap_select: false,
            cap_where: false,
            cap_joins: false,
            cap_joins_outer: false,
            cap_group_by: false,
            cap_order_by: false,
            cap_limit: false,
            cap_dml: false,
            cap_transactions: false,
            cap_semi_join: false,
            cap_remote_cache: false,
        }
    }

    /// Can the whole query be shipped to a source with these flags?
    /// (All sources in the query must live on that source; the caller
    /// checks placement, this checks shapes.)
    pub fn supports_query(&self, q: &Query) -> bool {
        if !self.cap_select {
            return false;
        }
        if q.filter.is_some() && !self.cap_where {
            return false;
        }
        for j in &q.joins {
            let ok = match j.kind {
                JoinKind::Inner => self.cap_joins,
                JoinKind::LeftOuter => self.cap_joins_outer,
            };
            if !ok {
                return false;
            }
        }
        if (!q.group_by.is_empty() || q.select.iter().any(|s| s.expr.contains_aggregate()))
            && !self.cap_group_by
        {
            return false;
        }
        if !q.order_by.is_empty() && !self.cap_order_by {
            return false;
        }
        if q.limit.is_some() && !self.cap_limit {
            return false;
        }
        // Derived tables need nested-query support; approximate with
        // joins capability.
        if matches!(q.from, Some(TableRef::Subquery { .. })) {
            return false;
        }
        true
    }

    /// Render as a capability property file (the paper's format).
    pub fn to_property_file(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.entries() {
            out.push_str(&format!("{name} : {v}\n"));
        }
        out
    }

    /// Parse a capability property file.
    pub fn from_property_file(text: &str) -> Result<CapabilitySet> {
        let mut caps = CapabilitySet::hadoop_mr(); // all-false base
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| {
                HanaError::Config(format!("capability file line {} malformed", lineno + 1))
            })?;
            let v = match value.trim() {
                "true" => true,
                "false" => false,
                other => {
                    return Err(HanaError::Config(format!(
                        "capability value '{other}' is not a boolean"
                    )))
                }
            };
            caps.set(name.trim(), v)?;
        }
        Ok(caps)
    }

    fn entries(&self) -> Vec<(&'static str, bool)> {
        vec![
            ("CAP_SELECT", self.cap_select),
            ("CAP_WHERE", self.cap_where),
            ("CAP_JOINS", self.cap_joins),
            ("CAP_JOINS_OUTER", self.cap_joins_outer),
            ("CAP_GROUP_BY", self.cap_group_by),
            ("CAP_ORDER_BY", self.cap_order_by),
            ("CAP_LIMIT", self.cap_limit),
            ("CAP_DML", self.cap_dml),
            ("CAP_TRANSACTIONS", self.cap_transactions),
            ("CAP_SEMI_JOIN", self.cap_semi_join),
            ("CAP_REMOTE_CACHE", self.cap_remote_cache),
        ]
    }

    fn set(&mut self, name: &str, v: bool) -> Result<()> {
        match name {
            "CAP_SELECT" => self.cap_select = v,
            "CAP_WHERE" => self.cap_where = v,
            "CAP_JOINS" => self.cap_joins = v,
            "CAP_JOINS_OUTER" => self.cap_joins_outer = v,
            "CAP_GROUP_BY" => self.cap_group_by = v,
            "CAP_ORDER_BY" => self.cap_order_by = v,
            "CAP_LIMIT" => self.cap_limit = v,
            "CAP_DML" => self.cap_dml = v,
            "CAP_TRANSACTIONS" => self.cap_transactions = v,
            "CAP_SEMI_JOIN" => self.cap_semi_join = v,
            "CAP_REMOTE_CACHE" => self.cap_remote_cache = v,
            other => return Err(HanaError::Config(format!("unknown capability '{other}'"))),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_sql::{parse_statement, Statement};

    fn query(sql: &str) -> Query {
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        q
    }

    #[test]
    fn property_file_round_trip() {
        let caps = CapabilitySet::hive();
        let text = caps.to_property_file();
        assert!(text.contains("CAP_JOINS : true"));
        assert!(text.contains("CAP_JOINS_OUTER : false"));
        let parsed = CapabilitySet::from_property_file(&text).unwrap();
        assert_eq!(parsed, caps);
    }

    #[test]
    fn property_file_errors() {
        assert!(CapabilitySet::from_property_file("CAP_JOINS = yes").is_err());
        assert!(CapabilitySet::from_property_file("CAP_JOINS : maybe").is_err());
        assert!(CapabilitySet::from_property_file("CAP_NOPE : true").is_err());
        // Comments and blanks are fine.
        let c = CapabilitySet::from_property_file("# all defaults\n\nCAP_SELECT : true\n").unwrap();
        assert!(c.cap_select && !c.cap_joins);
    }

    #[test]
    fn shape_checks() {
        let hive = CapabilitySet::hive();
        assert!(hive.supports_query(&query("SELECT a FROM t WHERE a > 1")));
        assert!(hive.supports_query(&query(
            "SELECT a, COUNT(*) FROM t JOIN u ON a = b GROUP BY a"
        )));
        assert!(!hive.supports_query(&query("SELECT a FROM t LEFT OUTER JOIN u ON a = b")));
        let mr = CapabilitySet::hadoop_mr();
        assert!(!mr.supports_query(&query("SELECT a FROM t")));
        let iq = CapabilitySet::iq();
        assert!(!iq.supports_query(&query("SELECT a FROM t LEFT OUTER JOIN u ON a = b")));
        assert!(iq.supports_query(&query("SELECT a FROM t JOIN u ON a = b")));
        assert!(!iq.supports_query(&query("SELECT x.a FROM (SELECT a FROM t) x")));
    }
}
