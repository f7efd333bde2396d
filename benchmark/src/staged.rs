//! The staged driver of the traced run: `hana_session::Session::execute`
//! and `execute_prepared`, one public call at a time, each call under a
//! benchmark-owned span named after the layer it enters. It shares the
//! session manager's plan cache and admission controller with the
//! untraced sessions, so both paths see the same state.

use std::sync::Arc;

use hana_obs::span;
use hana_session::{SessionManager, WorkloadClass};
use hana_sql::{parse_statement, Statement};
use hana_types::{Result, ResultSet, Value};

pub struct Staged<'m> {
    mgr: &'m SessionManager,
    auth: hana_core::Session,
}

/// A statement parsed once for the staged path (the session layer's
/// `PreparedStatement` keeps its AST private).
pub struct StagedPrepared {
    stmt: Statement,
    sql: String,
}

impl<'m> Staged<'m> {
    pub fn connect(mgr: &'m SessionManager) -> Result<Staged<'m>> {
        let auth = mgr.platform().connect("SYSTEM", "manager")?;
        Ok(Staged { mgr, auth })
    }

    pub fn prepare(&self, sql: &str) -> Result<StagedPrepared> {
        Ok(StagedPrepared {
            stmt: parse_statement(sql)?,
            sql: sql.to_string(),
        })
    }

    /// `Session::execute`.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        let stmt = {
            let _s = span("sql.parse");
            parse_statement(sql)?
        };
        self.execute_statement(stmt, sql)
    }

    /// `Session::execute_prepared`: bind, render the text the log must
    /// see, execute.
    pub fn execute_prepared(&self, p: &StagedPrepared, params: &[Value]) -> Result<ResultSet> {
        let (bound, text) = {
            let _s = span("session.bind");
            let bound = p.stmt.bind_params(params)?;
            let text = bound.to_sql_text().unwrap_or_else(|| p.sql.clone());
            (bound, text)
        };
        self.execute_statement(bound, &text)
    }

    fn execute_statement(&self, stmt: Statement, sql_text: &str) -> Result<ResultSet> {
        let platform = self.mgr.platform();
        match stmt {
            Statement::Query(q) => self.execute_query(q),
            dml @ (Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => {
                let _permit = {
                    let _s = span("session.admit");
                    self.mgr.workload().admit(WorkloadClass::Oltp)?
                };
                let _s = span(match dml {
                    Statement::Insert { .. } => "core.dml_insert",
                    Statement::Update { .. } => "core.dml_update",
                    _ => "core.dml_delete",
                });
                platform.execute_parsed(&self.auth, dml, sql_text)
            }
            other => {
                let _s = span("core.statement");
                platform.execute_parsed(&self.auth, other, sql_text)
            }
        }
    }

    fn execute_query(&self, q: hana_sql::Query) -> Result<ResultSet> {
        let platform = self.mgr.platform();
        let cache = self.mgr.plan_cache();
        let key = {
            let _s = span("session.key_render");
            q.to_string()
        };
        let version = platform.catalog_version();
        let hit = {
            let _s = span("session.plan_cache_get");
            cache.get(&key, version)
        };
        let plan = match hit {
            Some(plan) => plan,
            None => {
                let compiled = {
                    let _s = span("query.plan");
                    Arc::new(platform.plan_query(&self.auth, &q)?)
                };
                let _s = span("session.plan_cache_insert");
                cache.insert(key, version, Arc::clone(&compiled));
                compiled
            }
        };
        let _permit = {
            let _s = span("session.admit");
            let class = self.mgr.workload().classify(&plan);
            self.mgr.workload().admit(class)?
        };
        let _s = span("query.execute");
        platform.execute_plan(&self.auth, &plan)
    }
}
