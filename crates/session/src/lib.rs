//! # hana-session
//!
//! Multi-session front end over [`HanaPlatform`]: many concurrent
//! [`Session`] handles share one platform, one parse/plan cache and one
//! [`WorkloadManager`]. This is the layer that turns the single-caller
//! engine into the paper's "one platform, many applications" shape —
//! prepared statements amortize parsing and planning across
//! executions, the shared cache amortizes them across *sessions*, and
//! per-class admission control keeps analytical bursts from starving
//! point lookups.
//!
//! ```
//! use std::sync::Arc;
//! use hana_core::HanaPlatform;
//! use hana_session::SessionManager;
//! use hana_types::Value;
//!
//! let platform = Arc::new(HanaPlatform::new_in_memory());
//! let manager = SessionManager::new(platform);
//! let session = manager.connect("SYSTEM", "manager").unwrap();
//! session.execute("CREATE COLUMN TABLE t (k INT, v INT)").unwrap();
//! session.execute("INSERT INTO t (k, v) VALUES (1, 10)").unwrap();
//!
//! let lookup = session.prepare("SELECT v FROM t WHERE k = ?").unwrap();
//! let rs = session.execute_prepared(&lookup, &[Value::Int(1)]).unwrap();
//! assert_eq!(rs.rows[0][0], Value::Int(10));
//! ```

mod plan_cache;
mod workload;

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use hana_core::HanaPlatform;
use hana_query::PlanNode;
use hana_sql::{parse_statement, Query, Statement};
use hana_types::{HanaError, Result, ResultSet, Value};

pub use plan_cache::{PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
pub use workload::{WorkloadClass, WorkloadConfig, WorkloadManager};

/// Shared front end: hands out [`Session`]s over one platform, one
/// plan cache and one workload manager.
pub struct SessionManager {
    platform: Arc<HanaPlatform>,
    cache: Arc<PlanCache>,
    workload: Arc<WorkloadManager>,
}

impl SessionManager {
    /// A manager with the default plan-cache capacity and workload
    /// configuration.
    pub fn new(platform: Arc<HanaPlatform>) -> SessionManager {
        Self::with_config(
            platform,
            DEFAULT_PLAN_CACHE_CAPACITY,
            WorkloadConfig::default(),
        )
    }

    /// A manager with explicit cache capacity and workload limits.
    pub fn with_config(
        platform: Arc<HanaPlatform>,
        cache_capacity: usize,
        workload: WorkloadConfig,
    ) -> SessionManager {
        SessionManager {
            platform,
            cache: Arc::new(PlanCache::new(cache_capacity)),
            workload: Arc::new(WorkloadManager::new(workload)),
        }
    }

    /// Authenticate and open a session.
    pub fn connect(&self, user: &str, password: &str) -> Result<Session> {
        let auth = self.platform.connect(user, password)?;
        hana_obs::registry()
            .counter("hana_session_connects_total")
            .inc();
        Ok(Session {
            platform: Arc::clone(&self.platform),
            cache: Arc::clone(&self.cache),
            workload: Arc::clone(&self.workload),
            auth,
        })
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The shared workload manager.
    pub fn workload(&self) -> &WorkloadManager {
        &self.workload
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Arc<HanaPlatform> {
        &self.platform
    }
}

/// A query as the plan cache knows it: its shape (compared literals
/// lifted to slots after the user's own `?`), the shape's canonical
/// text, and the lifted values. Two statements that differ only in the
/// values they compare with have one shape, one text and one plan.
struct Shape {
    query: Query,
    text: String,
    lifted: Vec<Value>,
}

impl Shape {
    /// The shape of `query`, and how many `?` the query itself declares.
    fn of(mut query: Query) -> (Shape, usize) {
        let (params, lifted) = query.lift_literals();
        let shape = Shape {
            text: query.to_string(),
            query,
            lifted,
        };
        (shape, params)
    }

    /// The plan-cache key for one value vector: the shape's text and
    /// the type of each value, so `k = 5` and `k = 'x'` never share a
    /// plan (a plan's estimates, and the names and types it gives
    /// output columns, depend on value types and on nothing else of a
    /// value). The tags follow a `:`, which is not one of them.
    fn key(&self, values: &[Value]) -> String {
        let mut key = String::with_capacity(self.text.len() + 2 + values.len());
        key.push_str(&self.text);
        key.push_str(" :");
        key.extend(values.iter().map(|v| match v {
            Value::Null => 'n',
            Value::Bool(_) => 'b',
            Value::Int(_) => 'i',
            Value::Double(_) => 'd',
            Value::Varchar(_) => 's',
            Value::Date(_) => 't',
            Value::Timestamp(_) => 'u',
        }));
        key
    }
}

enum Prepared {
    /// A query: planned per shape, executed with values beside it.
    Query(Shape),
    /// Anything else runs from its bound text (the WAL logs it).
    Other(Statement),
}

/// A statement parsed once, executable many times with different
/// positional parameters. Create with [`Session::prepare`].
pub struct PreparedStatement {
    prepared: Prepared,
    param_count: usize,
    sql: String,
}

impl PreparedStatement {
    /// Number of `?` placeholders the statement declares.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

/// One application connection. Cheap to create; safe to use from the
/// owning thread while other sessions run concurrently on others.
pub struct Session {
    platform: Arc<HanaPlatform>,
    cache: Arc<PlanCache>,
    workload: Arc<WorkloadManager>,
    auth: hana_core::Session,
}

impl Session {
    /// The session id assigned at connect.
    pub fn id(&self) -> u64 {
        self.auth.id
    }

    /// The authenticated user.
    pub fn user(&self) -> &str {
        &self.auth.user
    }

    /// Parse once — and, for a query, find its shape and cache key
    /// once; execute later with [`Session::execute_prepared`].
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        let stmt = parse_statement(sql)?;
        hana_obs::registry()
            .counter("hana_session_prepares_total")
            .inc();
        let (prepared, param_count) = match stmt {
            Statement::Query(q) => {
                let (shape, params) = Shape::of(q);
                (Prepared::Query(shape), params)
            }
            other => {
                let params = other.param_count();
                (Prepared::Other(other), params)
            }
        };
        Ok(PreparedStatement {
            prepared,
            param_count,
            sql: sql.to_string(),
        })
    }

    /// Execute a prepared statement with positional parameter values
    /// (one per `?`, in text order).
    pub fn execute_prepared(
        &self,
        prepared: &PreparedStatement,
        params: &[Value],
    ) -> Result<ResultSet> {
        check_arity(prepared.param_count, params)?;
        match &prepared.prepared {
            Prepared::Query(shape) => self.execute_shape(shape, params),
            Prepared::Other(stmt) => {
                let bound = stmt.bind_params(params)?;
                // The WAL/DDL log must see the *bound* text (literals,
                // not `?`); statements the renderer doesn't cover can't
                // carry parameters, so their original text is exact.
                let text = bound.to_sql_text().unwrap_or_else(|| prepared.sql.clone());
                self.execute_statement(bound, &text)
            }
        }
    }

    /// Parse and execute one SQL statement. A query finds the plan of
    /// its shape, so it shares one cache entry with every statement —
    /// ad-hoc or prepared — that differs from it only in the values it
    /// compares with.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        match parse_statement(sql)? {
            Statement::Query(q) => {
                let (shape, params) = Shape::of(q);
                check_arity(params, &[])?;
                self.execute_shape(&shape, &[])
            }
            other => self.execute_statement(other, sql),
        }
    }

    fn execute_statement(&self, stmt: Statement, sql_text: &str) -> Result<ResultSet> {
        let _session_span = hana_obs::span("session_statement");
        match stmt {
            // DML is transactional work: admitted as OLTP so analytical
            // floods cannot starve writes, but never plan-cached (DML
            // goes through the platform's WAL/txn path wholesale).
            dml @ (Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => {
                let _permit = self.workload.admit(WorkloadClass::Oltp)?;
                let start = Instant::now();
                let result = self.platform.execute_parsed(&self.auth, dml, sql_text);
                self.workload
                    .record(WorkloadClass::Oltp, start, result.is_ok());
                result
            }
            // DDL and transaction control bypass admission: they hold
            // no pool slots worth rationing, and blocking a COMMIT
            // behind a full OLAP queue would invert priorities.
            other => self.platform.execute_parsed(&self.auth, other, sql_text),
        }
    }

    /// The one route of a query: the plan of its shape, run with the
    /// user's parameters followed by the lifted values. A cache hit
    /// copies no AST, renders nothing and plans nothing.
    fn execute_shape(&self, shape: &Shape, params: &[Value]) -> Result<ResultSet> {
        let _session_span = hana_obs::span("session_statement");
        let values: Cow<[Value]> = if shape.lifted.is_empty() {
            Cow::Borrowed(params)
        } else {
            Cow::Owned([params, &shape.lifted].concat())
        };
        let key = shape.key(&values);
        let version = self.platform.catalog_version();
        let mut plan = self.cached_plan(&key, version, shape, &values)?;
        // A cached plan is correct for any values; it stays *good* while
        // its range leaves are priced within 10× of what these values
        // select. Beyond that, bindings of this size get their own.
        if let Some(class) = self.platform.plan_drift(&plan, &values) {
            plan = self.cached_plan(&format!("{key} #{class}"), version, shape, &values)?;
        }
        let class = self.workload.classify(&plan);
        let _permit = self.workload.admit(class)?;
        let start = Instant::now();
        let result = self.platform.execute_plan_bound(&self.auth, &plan, &values);
        self.workload.record(class, start, result.is_ok());
        result
    }

    /// The plan cached under `key`, compiled for `values` and inserted
    /// when there is none.
    fn cached_plan(
        &self,
        key: &str,
        version: u64,
        shape: &Shape,
        values: &[Value],
    ) -> Result<Arc<PlanNode>> {
        if let Some(plan) = self.cache.get(key, version) {
            return Ok(plan);
        }
        let compiled = Arc::new(self.platform.plan_shape(&self.auth, &shape.query, values)?);
        self.cache
            .insert(key.to_string(), version, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Shortcut: this session's view of the platform's observability
    /// snapshot.
    pub fn observability_snapshot(&self) -> hana_obs::RegistrySnapshot {
        self.platform.observability_snapshot()
    }
}

/// A bind mismatch is a caller bug worth failing loudly on.
fn check_arity(declared: usize, params: &[Value]) -> Result<()> {
    if declared == params.len() {
        return Ok(());
    }
    Err(HanaError::Plan(format!(
        "statement declares {declared} parameter(s) but {} value(s) were bound",
        params.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> SessionManager {
        SessionManager::new(Arc::new(HanaPlatform::new_in_memory()))
    }

    fn setup(mgr: &SessionManager) -> Session {
        let s = mgr.connect("SYSTEM", "manager").unwrap();
        s.execute("CREATE COLUMN TABLE t (k INT, v INT)").unwrap();
        for i in 0..10 {
            s.execute(&format!("INSERT INTO t (k, v) VALUES ({i}, {})", i * 10))
                .unwrap();
        }
        s
    }

    #[test]
    fn prepared_point_lookup_round_trips() {
        let mgr = manager();
        let s = setup(&mgr);
        let ps = s.prepare("SELECT v FROM t WHERE k = ?").unwrap();
        assert_eq!(ps.param_count(), 1);
        for k in 0..10 {
            let rs = s.execute_prepared(&ps, &[Value::Int(k)]).unwrap();
            assert_eq!(rs.rows.len(), 1);
            assert_eq!(rs.rows[0][0], Value::Int(k * 10));
        }
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_across_sessions() {
        let mgr = manager();
        let s1 = setup(&mgr);
        let ps = s1.prepare("SELECT v FROM t WHERE k = ?").unwrap();
        s1.execute_prepared(&ps, &[Value::Int(1)]).unwrap();
        assert_eq!(mgr.plan_cache().len(), 1);
        let (hits, _) = mgr.plan_cache().stats();
        // Same binding again: a hit, from a different session too.
        s1.execute_prepared(&ps, &[Value::Int(1)]).unwrap();
        let s2 = mgr.connect("SYSTEM", "manager").unwrap();
        let ps2 = s2.prepare("SELECT v FROM t WHERE k = ?").unwrap();
        s2.execute_prepared(&ps2, &[Value::Int(1)]).unwrap();
        assert_eq!(
            mgr.plan_cache().stats().0,
            hits + 2,
            "repeat executions hit the shared cache"
        );
    }

    #[test]
    fn ddl_invalidates_and_prepared_statements_reprepare() {
        let mgr = manager();
        let s = setup(&mgr);
        let ps = s.prepare("SELECT v FROM t WHERE k = ?").unwrap();
        assert_eq!(
            s.execute_prepared(&ps, &[Value::Int(1)]).unwrap().rows[0][0],
            Value::Int(10)
        );
        // DROP + CREATE with different contents: the cached plan is
        // stale; the prepared handle must transparently re-plan.
        s.execute("DROP TABLE t").unwrap();
        s.execute("CREATE COLUMN TABLE t (k INT, v INT)").unwrap();
        s.execute("INSERT INTO t (k, v) VALUES (1, 777)").unwrap();
        assert_eq!(
            s.execute_prepared(&ps, &[Value::Int(1)]).unwrap().rows[0][0],
            Value::Int(777),
            "prepared statement re-prepared against the new table"
        );
    }

    #[test]
    fn create_index_invalidates_cached_plans() {
        let mgr = manager();
        let s = setup(&mgr);
        let ps = s.prepare("SELECT v FROM t WHERE k = ?").unwrap();
        s.execute_prepared(&ps, &[Value::Int(1)]).unwrap();
        let invalidations = || {
            hana_obs::registry()
                .counter("hana_session_plan_cache_invalidations_total")
                .get()
        };
        let before = invalidations();
        // CREATE INDEX bumps the catalog version: the cached plan (a
        // full scan) is stale, and the prepared handle must re-prepare
        // transparently into an index seek.
        s.execute("CREATE INDEX ix_k ON t (k)").unwrap();
        let rs = s.execute_prepared(&ps, &[Value::Int(1)]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(10));
        // The counter is process-global (sibling tests purge their own
        // caches), so the delta is a lower bound.
        assert!(invalidations() > before, "stale plan dropped, not reused");
        let explain = s.execute("EXPLAIN SELECT v FROM t WHERE k = 1").unwrap();
        let text: Vec<String> = explain.rows.iter().map(|r| r[0].to_string()).collect();
        assert!(
            text.iter().any(|l| l.contains("Index Seek")),
            "re-planned query seeks the new index: {text:?}"
        );
        // DROP INDEX invalidates again; the seek plan must not outlive
        // the index it depends on.
        let before = invalidations();
        s.execute("DROP INDEX ix_k").unwrap();
        let rs = s.execute_prepared(&ps, &[Value::Int(1)]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(10));
        assert!(invalidations() > before);
    }

    #[test]
    fn bind_mismatch_is_a_plan_error() {
        let mgr = manager();
        let s = setup(&mgr);
        let ps = s.prepare("SELECT v FROM t WHERE k = ?").unwrap();
        let err = s.execute_prepared(&ps, &[]).unwrap_err();
        assert_eq!(err.kind(), "plan");
    }
}
