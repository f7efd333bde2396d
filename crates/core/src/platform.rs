//! `HanaPlatform` — the single point of access and control (§2, §5).
//!
//! The facade owns every component of Figure 1: the in-memory column and
//! row stores, the transaction coordinator, the shielded IQ extended
//! storage, the ESP engine, Smart Data Access with the remote cache, the
//! artifact repository, the security manager, and the coordinated
//! backup/recovery spanning the in-memory and extended stores.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use hana_esp::{EspEngine, Sink};
use hana_exec::ExecContext;
use hana_hadoop::{Hive, MrFunctionRegistry};
use hana_iq::IqEngine;
use hana_query::{execute_query_with, Catalog as _, PlannerContext, TableFunction, TableSource};
use hana_sda::{
    ChaosAdapter, ChaosConfig, HadoopMrAdapter, HiveOdbcAdapter, IqAdapter, RemoteCacheConfig,
    SdaAdapter,
};
use hana_sql::{parse_script, parse_statement, Statement};
use hana_txn::{TransactionManager, TwoPhaseParticipant, TxnHandle};
use hana_types::{ColumnDef, DataType, HanaError, Result, ResultSet, Row, Schema, Value};

use crate::catalog::{PlatformCatalog, TableEntry, TableKindInfo};
use crate::ddl::indexed_fragment;
use crate::ingest::IngestDriver;
use crate::repository::{ArtifactKind, DeliveryUnit, Repository};
use crate::security::{Privilege, SecurityManager, Session};
use crate::writes::LocalWrites;

/// SDA source name of the internal, shielded IQ instance.
pub const INTERNAL_IQ_SOURCE: &str = "_iq_internal";

type AdapterFactory = Box<dyn Fn(&str) -> Arc<dyn SdaAdapter> + Send + Sync>;

/// The platform facade.
pub struct HanaPlatform {
    pub(crate) catalog: Arc<PlatformCatalog>,
    pub(crate) tm: Arc<TransactionManager>,
    pub(crate) iq: Arc<IqEngine>,
    pub(crate) exec: Arc<ExecContext>,
    esp: Arc<EspEngine>,
    pub(crate) security: SecurityManager,
    repository: Mutex<Repository>,
    pub(crate) local_writes: Arc<LocalWrites>,
    /// session id -> open explicit transaction.
    active_txns: Mutex<HashMap<u64, TxnHandle>>,
    adapter_factories: RwLock<HashMap<String, AdapterFactory>>,
    /// Streaming-ingest epoch ledger + checkpoint fence.
    pub(crate) ingest: crate::ingest::IngestLedger,
    /// The registered `CREATE STREAM SINK` driver (hana-ingest).
    ingest_driver: RwLock<Option<Arc<dyn crate::ingest::IngestDriver>>>,
}

impl HanaPlatform {
    /// A platform with a volatile WAL and a fresh extended store.
    pub fn new_in_memory() -> HanaPlatform {
        Self::build(TransactionManager::new())
    }

    /// A platform whose WAL persists to `path` (enables
    /// [`HanaPlatform::recover_replay`]).
    pub fn with_log_file(path: &Path) -> Result<HanaPlatform> {
        Ok(Self::build(TransactionManager::with_log_file(path)?))
    }

    /// Open (or create) a durable platform over the segmented log
    /// directory `dir` and recover its state: restore the latest
    /// checkpoint snapshot, then replay every committed suffix record.
    /// Returns the platform and the number of replayed statements.
    pub fn open_durable(dir: &Path) -> Result<(HanaPlatform, usize)> {
        Self::open_durable_with(dir, hana_txn::WalConfig::default())
    }

    /// [`open_durable`](Self::open_durable) with an explicit WAL
    /// configuration (group-commit window, segment size, failpoints).
    pub fn open_durable_with(
        dir: &Path,
        config: hana_txn::WalConfig,
    ) -> Result<(HanaPlatform, usize)> {
        let wal = Arc::new(hana_txn::Wal::open_dir_with(dir, config)?);
        let platform = Self::build(TransactionManager::with_shared_wal(Arc::clone(&wal)));
        let replayed = platform.recover_from_wal(&wal)?;
        Ok((platform, replayed))
    }

    fn build(tm: TransactionManager) -> HanaPlatform {
        let iq = Arc::new(IqEngine::new("iq", 1024).expect("extended store"));
        let catalog = Arc::new(PlatformCatalog::new());
        catalog.register_iq_engine(INTERNAL_IQ_SOURCE, Arc::clone(&iq));
        let iq_adapter: Arc<dyn SdaAdapter> = Arc::new(IqAdapter::new(Arc::clone(&iq)));
        catalog
            .sda()
            .create_remote_source(INTERNAL_IQ_SOURCE, iq_adapter, "internal", None)
            .expect("fresh registry");
        HanaPlatform {
            catalog,
            tm: Arc::new(tm),
            iq,
            exec: Arc::clone(ExecContext::global()),
            esp: Arc::new(EspEngine::new()),
            security: SecurityManager::new(),
            repository: Mutex::new(Repository::new()),
            local_writes: Arc::new(LocalWrites::new()),
            active_txns: Mutex::new(HashMap::new()),
            adapter_factories: RwLock::new(HashMap::new()),
            ingest: crate::ingest::IngestLedger::new(),
            ingest_driver: RwLock::new(None),
        }
    }

    // ---- component access ----

    /// The platform catalog (implements the query layer's `Catalog`).
    pub fn catalog(&self) -> &Arc<PlatformCatalog> {
        &self.catalog
    }

    /// The transaction coordinator.
    pub fn transaction_manager(&self) -> &Arc<TransactionManager> {
        &self.tm
    }

    /// The extended storage engine (admin/testing; applications go
    /// through SQL).
    pub fn iq(&self) -> &Arc<IqEngine> {
        &self.iq
    }

    /// The parallel execution engine (worker pool, morsel config and
    /// per-query metrics). Shared with the query layer; sized from the
    /// machine's available parallelism.
    pub fn exec(&self) -> &Arc<ExecContext> {
        &self.exec
    }

    /// The integrated event stream processor.
    pub fn esp(&self) -> &Arc<EspEngine> {
        &self.esp
    }

    /// The security manager.
    pub fn security(&self) -> &SecurityManager {
        &self.security
    }

    /// Connect with credentials.
    pub fn connect(&self, user: &str, password: &str) -> Result<Session> {
        self.security.connect(user, password)
    }

    /// Attach a Hadoop environment: registers the `hiveodbc` and
    /// `hadoop` adapters for `CREATE REMOTE SOURCE`.
    pub fn attach_hadoop(&self, hive: Arc<Hive>, functions: Arc<MrFunctionRegistry>) {
        let mut factories = self.adapter_factories.write();
        let h = Arc::clone(&hive);
        factories.insert(
            "hiveodbc".into(),
            Box::new(move |cfg| Arc::new(HiveOdbcAdapter::new(Arc::clone(&h), cfg))),
        );
        factories.insert(
            "hadoop".into(),
            Box::new(move |cfg| Arc::new(HadoopMrAdapter::new(Arc::clone(&functions), cfg))),
        );
    }

    /// Configure the remote materialization cache (§4.4's
    /// `enable_remote_cache` / `remote_cache_validity`). Resilience
    /// knobs keep their current values.
    pub fn set_remote_cache(&self, enable: bool, validity: u64) {
        let cfg = self
            .remote_cache_config()
            .with_remote_cache(enable)
            .with_validity(validity);
        self.catalog.sda().set_cache_config(cfg);
    }

    /// The current federation configuration (cache + resilience knobs).
    pub fn remote_cache_config(&self) -> RemoteCacheConfig {
        self.catalog.sda().cache.config()
    }

    /// Replace the whole federation configuration — remote cache,
    /// stale-fallback bounds, default retry policy and breaker
    /// thresholds. Per-source breakers are rebuilt with the new
    /// thresholds.
    pub fn set_remote_cache_config(&self, config: RemoteCacheConfig) {
        self.catalog.sda().set_cache_config(config);
    }

    /// Interpose a deterministic fault injector around a registered
    /// remote source (testing/drills). Returns the chaos handle so the
    /// caller can flip [`ChaosAdapter::force_down`] or read the injected
    /// counters; the wrapped source keeps its name, configuration and
    /// credentials.
    pub fn inject_chaos(&self, source: &str, config: ChaosConfig) -> Result<Arc<ChaosAdapter>> {
        let sda = self.catalog.sda();
        let existing = sda.source(source)?;
        let chaos = Arc::new(ChaosAdapter::new(existing.adapter, config));
        sda.replace_adapter(source, Arc::clone(&chaos) as Arc<dyn SdaAdapter>)?;
        Ok(chaos)
    }

    // ---- observability ----

    /// One unified snapshot of the platform's metrics: the global
    /// `hana-obs` registry (exec pool throughput, SDA per-source
    /// attempts/retries/breaker trips and round-trip latencies, IQ
    /// buffer-cache traffic, columnar delta-merge durations), with the
    /// derived gauges refreshed first. The snapshot is plain data and
    /// renders via [`hana_obs::RegistrySnapshot::to_json`] or
    /// [`hana_obs::RegistrySnapshot::to_prometheus`].
    pub fn observability_snapshot(&self) -> hana_obs::RegistrySnapshot {
        let obs = hana_obs::registry();
        // Exec pool gauges (utilization, queue depth) refresh as a
        // side effect of reading the pool metrics.
        let _ = self.exec.pool_metrics();
        // IQ buffer cache: hit ratio and residency.
        let (hits, misses) = self.iq.cache().stats();
        if let Some(ratio) = (hits * 1000).checked_div(hits + misses) {
            obs.gauge("hana_iq_cache_hit_ratio_permille")
                .set(ratio as i64);
        }
        obs.gauge("hana_iq_cache_resident_pages")
            .set(self.iq.cache().resident_pages() as i64);
        // SDA breaker states (0 = closed, 1 = half-open, 2 = open).
        let sda = self.catalog.sda();
        for source in sda.list_sources() {
            if let Ok(stats) = sda.source_stats(&source) {
                let state = match stats.breaker_state {
                    hana_sda::BreakerState::Closed => 0,
                    hana_sda::BreakerState::HalfOpen => 1,
                    hana_sda::BreakerState::Open => 2,
                };
                obs.gauge(&format!("hana_sda_breaker_state_{source}"))
                    .set(state);
            }
        }
        obs.snapshot()
    }

    /// Run one SQL query under a fresh tracer and return its result
    /// together with the `EXPLAIN ANALYZE`-style profile tree (wall
    /// time, rows, bytes and worker count per operator). UPDATE and
    /// DELETE report the leaf they located their rows with; other
    /// statements execute normally but produce an empty tree.
    pub fn profile_query(
        &self,
        session: &Session,
        sql: &str,
    ) -> Result<(ResultSet, hana_obs::QueryProfile)> {
        let tracer = hana_obs::Tracer::new();
        let result = {
            let _installed = tracer.install();
            let root = hana_obs::span("query");
            let result = self.execute_sql(session, sql);
            if let Ok(rs) = &result {
                root.set_rows(rs.rows.len() as u64);
                root.set_bytes(rs.approx_bytes());
            }
            result
        };
        Ok((result?, tracer.profile()))
    }

    // ---- transactions ----

    pub(crate) fn participants(&self) -> Vec<Arc<dyn TwoPhaseParticipant>> {
        vec![
            Arc::clone(&self.local_writes) as Arc<dyn TwoPhaseParticipant>,
            Arc::clone(&self.iq) as Arc<dyn TwoPhaseParticipant>,
        ]
    }

    /// Snapshot the session reads under.
    fn snapshot_cid(&self, session: &Session) -> u64 {
        self.active_txns
            .lock()
            .get(&session.id)
            .map(|t| t.snapshot.cid())
            .unwrap_or_else(|| self.tm.current_snapshot().cid())
    }

    /// The session's transaction, or a fresh auto-commit one.
    fn txn_for(&self, session: &Session) -> (TxnHandle, bool) {
        match self.active_txns.lock().get(&session.id) {
            Some(t) => (*t, false),
            None => (self.tm.begin(), true),
        }
    }

    // ---- the single point of access ----

    /// Execute one SQL statement.
    pub fn execute_sql(&self, session: &Session, sql: &str) -> Result<ResultSet> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(session, stmt, sql)
    }

    /// Execute an already-parsed statement. The session layer parses a
    /// prepared statement once and replays the (bound) AST here on each
    /// execution, skipping the lexer/parser on the hot path.
    pub fn execute_parsed(
        &self,
        session: &Session,
        stmt: Statement,
        sql_text: &str,
    ) -> Result<ResultSet> {
        self.execute_statement(session, stmt, sql_text)
    }

    /// Compile a query against the current catalog without executing
    /// it. Pair with [`HanaPlatform::execute_plan`] and
    /// [`HanaPlatform::catalog_version`] to build a plan cache: a plan
    /// compiled under version N stays valid until the version moves.
    pub fn plan_query(
        &self,
        session: &Session,
        q: &hana_sql::Query,
    ) -> Result<hana_query::PlanNode> {
        self.plan_shape(session, q, &[])
    }

    /// Compile a statement *shape* — a query whose compared literals
    /// are slots ([`hana_sql::Query::lift_literals`]) — priced for
    /// `values` and valid for every value vector of the shape.
    /// [`HanaPlatform::plan_query`] is the zero-value call.
    pub fn plan_shape(
        &self,
        session: &Session,
        shape: &hana_sql::Query,
        values: &[Value],
    ) -> Result<hana_query::PlanNode> {
        self.security.check(session, Privilege::Select)?;
        let planner = PlannerContext::new(self.catalog.as_ref()).planner();
        planner.plan_with(shape, values)
    }

    /// Whether `plan`, compiled for another value vector of its shape,
    /// is priced more than 10× off for `values`: `Some` of the
    /// magnitude class to keep a second plan under
    /// ([`hana_query::Planner::drift`]).
    pub fn plan_drift(&self, plan: &hana_query::PlanNode, values: &[Value]) -> Option<String> {
        let planner = PlannerContext::new(self.catalog.as_ref()).planner();
        planner.drift(plan, values)
    }

    /// Execute a previously compiled plan under the session's current
    /// snapshot. Table bindings resolve through the catalog at run
    /// time, so a cached plan sees data changes (inserts, merges) made
    /// since it was compiled — only *metadata* changes invalidate it.
    pub fn execute_plan(
        &self,
        session: &Session,
        plan: &hana_query::PlanNode,
    ) -> Result<ResultSet> {
        self.execute_plan_bound(session, plan, &[])
    }

    /// Execute a plan compiled by [`HanaPlatform::plan_shape`] with the
    /// values its slots read. [`HanaPlatform::execute_plan`] is the
    /// zero-value call.
    pub fn execute_plan_bound(
        &self,
        session: &Session,
        plan: &hana_query::PlanNode,
        values: &[Value],
    ) -> Result<ResultSet> {
        self.security.check(session, Privilege::Select)?;
        let cid = self.snapshot_cid(session);
        hana_query::execute_plan_bound(&self.exec, plan, values, self.catalog.as_ref(), cid)
    }

    /// Current catalog version (bumped by DDL, function registration and
    /// delta merges).
    pub fn catalog_version(&self) -> u64 {
        self.catalog.version()
    }

    /// Execute a script of `;`-separated statements, returning the last
    /// result.
    pub fn execute_script(&self, session: &Session, sql: &str) -> Result<ResultSet> {
        let mut last = ResultSet::default();
        for piece in split_sql_script(sql) {
            let stmt = parse_statement(&piece)?;
            last = self.execute_statement(session, stmt, &piece)?;
        }
        Ok(last)
    }

    fn execute_statement(
        &self,
        session: &Session,
        stmt: Statement,
        sql_text: &str,
    ) -> Result<ResultSet> {
        match stmt {
            Statement::Query(q) => {
                self.security.check(session, Privilege::Select)?;
                let cid = self.snapshot_cid(session);
                execute_query_with(&self.exec, &q, self.catalog.as_ref(), cid)
            }
            Statement::Explain(q) => {
                self.security.check(session, Privilege::Select)?;
                let plan = PlannerContext::new(self.catalog.as_ref())
                    .planner()
                    .plan(&q)?;
                let lines: Vec<Row> = plan
                    .explain()
                    .lines()
                    .map(|l| Row::from_values([Value::from(l)]))
                    .collect();
                Ok(ResultSet::new(
                    Schema::of(&[("plan", DataType::Varchar)]),
                    lines,
                ))
            }
            Statement::CreateTable(ct) => {
                self.security.check(session, Privilege::Ddl)?;
                self.create_table(ct)?;
                self.log_ddl(sql_text)?;
                Ok(ok_result())
            }
            Statement::DropTable { name } => {
                self.security.check(session, Privilege::Ddl)?;
                self.drop_table(&name)?;
                self.log_ddl(sql_text)?;
                Ok(ok_result())
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => {
                self.security.check(session, Privilege::Ddl)?;
                let entry = self.catalog.table(&table)?;
                indexed_fragment(&entry.source)
                    .ok_or_else(|| {
                        HanaError::Unsupported(format!(
                            "'{table}' does not support secondary indexes"
                        ))
                    })?
                    .write()
                    .create_index(&name, &columns)?;
                // Index metadata changes which plans are valid: bump the
                // catalog version so cached plans re-prepare.
                self.catalog.bump_version();
                self.log_ddl(sql_text)?;
                Ok(ok_result())
            }
            Statement::DropIndex { name, table } => {
                self.security.check(session, Privilege::Ddl)?;
                let owner = match table {
                    Some(t) => t,
                    None => self.find_index_owner(&name)?,
                };
                let entry = self.catalog.table(&owner)?;
                indexed_fragment(&entry.source)
                    .ok_or_else(|| {
                        HanaError::Catalog(format!("table '{owner}' has no index '{name}'"))
                    })?
                    .write()
                    .drop_index(&name)?;
                self.catalog.bump_version();
                self.log_ddl(sql_text)?;
                Ok(ok_result())
            }
            Statement::CreateRemoteSource {
                name,
                adapter,
                configuration,
                credentials,
                ..
            } => {
                self.security.check(session, Privilege::Ddl)?;
                let factories = self.adapter_factories.read();
                let factory = factories
                    .get(&adapter.to_ascii_lowercase())
                    .ok_or_else(|| {
                        HanaError::Config(format!(
                            "no adapter '{adapter}' available; attach the environment first"
                        ))
                    })?;
                let instance = factory(&configuration);
                self.catalog.sda().create_remote_source(
                    &name,
                    instance,
                    &configuration,
                    credentials.as_deref(),
                )?;
                Ok(ok_result())
            }
            Statement::CreateVirtualTable { name, remote_path } => {
                self.security.check(session, Privilege::Ddl)?;
                if remote_path.len() < 2 {
                    return Err(HanaError::Parse(
                        "virtual table path needs source and table".into(),
                    ));
                }
                let source = &remote_path[0];
                let remote_table = remote_path.last().expect("len >= 2");
                self.catalog
                    .sda()
                    .create_virtual_table(&name, source, remote_table)?;
                let vt = self
                    .catalog
                    .sda()
                    .virtual_table(&name)
                    .expect("just created");
                self.catalog.add_table(
                    &name,
                    TableEntry {
                        source: TableSource::Virtual {
                            source: vt.source,
                            remote_table: vt.remote_table,
                            schema: vt.schema,
                        },
                        kind: TableKindInfo::Virtual,
                    },
                )?;
                Ok(ok_result())
            }
            Statement::CreateVirtualFunction {
                name,
                returns,
                configuration,
                source,
            } => {
                self.security.check(session, Privilege::Ddl)?;
                let cols: Vec<ColumnDef> = returns
                    .iter()
                    .map(|(n, t)| Ok(ColumnDef::new(n, DataType::parse_sql(t)?)))
                    .collect::<Result<_>>()?;
                let schema = Schema::new(cols)?;
                self.catalog.sda().create_virtual_function(
                    &name,
                    &source,
                    &configuration,
                    schema.clone(),
                )?;
                self.catalog.add_function(
                    &name,
                    Arc::new(VirtualFunctionProxy {
                        catalog: Arc::downgrade(&self.catalog),
                        name: name.clone(),
                        schema,
                    }),
                );
                Ok(ok_result())
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                self.security.check(session, Privilege::Write)?;
                let n = self.run_dml(session, sql_text, |p, tid, _| {
                    p.dml_insert(tid, &table, columns.as_deref(), &rows)
                })?;
                Ok(count_result(n))
            }
            Statement::Delete { table, filter } => {
                self.security.check(session, Privilege::Write)?;
                let n = self.run_dml(session, sql_text, |p, tid, cid| {
                    p.dml_delete(tid, cid, &table, filter.as_ref())
                })?;
                Ok(count_result(n))
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                self.security.check(session, Privilege::Write)?;
                let n = self.run_dml(session, sql_text, |p, tid, cid| {
                    p.dml_update(tid, cid, &table, &assignments, filter.as_ref())
                })?;
                Ok(count_result(n))
            }
            Statement::Begin => {
                let mut txns = self.active_txns.lock();
                if txns.contains_key(&session.id) {
                    return Err(HanaError::Transaction(
                        "a transaction is already open in this session".into(),
                    ));
                }
                txns.insert(session.id, self.tm.begin());
                Ok(ok_result())
            }
            Statement::Commit => {
                let txn = self
                    .active_txns
                    .lock()
                    .remove(&session.id)
                    .ok_or_else(|| HanaError::Transaction("no open transaction".into()))?;
                self.tm.commit(txn, &self.participants())?;
                Ok(ok_result())
            }
            Statement::Rollback => {
                let txn = self
                    .active_txns
                    .lock()
                    .remove(&session.id)
                    .ok_or_else(|| HanaError::Transaction("no open transaction".into()))?;
                self.tm.abort(txn, &self.participants())?;
                Ok(ok_result())
            }
            Statement::MergeDelta { table } => {
                self.security.check(session, Privilege::Ddl)?;
                let entry = self.catalog.table(&table)?;
                match &entry.source {
                    TableSource::Column(t) => {
                        t.write().merge_delta();
                    }
                    TableSource::Hybrid { hot, .. } => {
                        hot.write().merge_delta();
                    }
                    TableSource::Distributed(dt) => {
                        dt.merge_delta();
                    }
                    _ => {
                        return Err(HanaError::Unsupported(format!(
                            "'{table}' has no delta to merge"
                        )))
                    }
                }
                // A merge rewrites the main fragment: re-collect the
                // persisted synopses (which bumps the catalog version,
                // invalidating cached plans). Sources without
                // collectable columns still get the version bump.
                if !self.refresh_statistics(&table)? {
                    self.catalog.bump_version();
                }
                // MERGE DELTA is a checkpoint barrier: the merged main
                // fragment is exactly the state worth snapshotting, and
                // pruning here keeps the replay suffix short.
                self.maybe_checkpoint();
                Ok(ok_result())
            }
            Statement::CreateStreamSink {
                name,
                source,
                table,
            } => {
                self.security.check(session, Privilege::Stream)?;
                // Runtime wiring, like CREATE REMOTE SOURCE: not WAL-
                // logged; pipelines are re-attached after restart (the
                // ledger makes re-delivery harmless).
                self.ingest_driver()?
                    .create_sink(session, &name, &source, &table)?;
                Ok(ok_result())
            }
            Statement::DropStreamSink { name } => {
                self.security.check(session, Privilege::Stream)?;
                if !self.ingest_driver()?.drop_sink(&name)? {
                    return Err(HanaError::Stream(format!("unknown stream sink '{name}'")));
                }
                Ok(ok_result())
            }
        }
    }

    /// Run a buffered DML statement inside the session's (or a fresh
    /// auto-commit) transaction, logging it for recovery.
    fn run_dml(
        &self,
        session: &Session,
        sql_text: &str,
        f: impl FnOnce(&Self, u64, u64) -> Result<usize>,
    ) -> Result<usize> {
        let (txn, auto) = self.txn_for(session);
        let result = f(self, txn.tid, txn.snapshot.cid());
        match result {
            Ok(n) => {
                self.tm.log_data(txn.tid, "hana", sql_text)?;
                if auto {
                    self.tm.commit(txn, &self.participants())?;
                }
                Ok(n)
            }
            Err(e) => {
                if auto {
                    let _ = self.tm.abort(txn, &self.participants());
                }
                Err(e)
            }
        }
    }

    fn log_ddl(&self, sql: &str) -> Result<()> {
        let txn = self.tm.begin();
        self.tm.log_data(txn.tid, "hana", sql)?;
        self.tm.commit(txn, &[])?;
        Ok(())
    }

    /// The highest committed epoch of an ingest pipeline (`0` = none).
    /// Pipelines resume numbering from here after a restart.
    pub fn ingest_epoch(&self, pipeline: &str) -> u64 {
        self.ingest.last_epoch(pipeline)
    }

    /// Register the `CREATE STREAM SINK` driver (hana-ingest's runtime
    /// installs itself here). Replaces any previous driver.
    pub fn register_ingest_driver(&self, driver: Arc<dyn IngestDriver>) {
        *self.ingest_driver.write() = Some(driver);
    }

    fn ingest_driver(&self) -> Result<Arc<dyn IngestDriver>> {
        self.ingest_driver.read().clone().ok_or_else(|| {
            HanaError::Config(
                "no ingest driver installed; install hana-ingest's IngestRuntime first".into(),
            )
        })
    }

    /// Collect and persist optimizer statistics for `table`: per-column
    /// row/null/distinct counts, min/max and equi-depth histograms —
    /// per-partition for distributed tables, merged for the table-level
    /// view. Returns `false` (leaving heuristic estimation in force)
    /// for sources without locally collectable columns (row, hybrid,
    /// extended, virtual).
    pub fn refresh_statistics(&self, table: &str) -> Result<bool> {
        let entry = self.catalog.table(table)?;
        let key = table.to_ascii_lowercase();
        match &entry.source {
            TableSource::Column(t) => {
                let mut stats = t.read().collect_statistics();
                stats.table = key;
                self.catalog.put_statistics(table, stats, None);
                Ok(true)
            }
            TableSource::Distributed(dt) => {
                let parts: Vec<hana_columnar::TableStatistics> = dt
                    .nodes()
                    .iter()
                    .map(|n| n.table().read().collect_statistics())
                    .collect();
                let merged = hana_columnar::TableStatistics::merge(&key, &parts);
                self.catalog.put_statistics(table, merged, Some(parts));
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    // ---- ESP wiring ----

    /// A sink forwarding rows into a platform table (ESP use case 1).
    pub fn table_sink(self: &Arc<Self>, session: &Session, table: &str) -> Result<Sink> {
        self.security.check(session, Privilege::Stream)?;
        self.catalog.table(table)?; // must exist
        let weak = Arc::downgrade(self);
        let session = session.clone();
        Ok(Sink::Table {
            table: table.to_string(),
            writer: Arc::new(move |table, _schema, rows| {
                let platform = weak
                    .upgrade()
                    .ok_or_else(|| HanaError::Stream("platform shut down".into()))?;
                platform.load_rows(&session, table, rows)?;
                Ok(())
            }),
        })
    }

    /// Expose a live ESP window as a table function for HANA joins
    /// (ESP use case 3).
    pub fn expose_esp_window(&self, session: &Session, window: &str) -> Result<()> {
        self.security.check(session, Privilege::Stream)?;
        let schema = self.esp.window_schema(window)?;
        self.catalog.add_function(
            window,
            Arc::new(EspWindowFunction {
                esp: Arc::clone(&self.esp),
                window: window.to_string(),
                schema,
            }),
        );
        Ok(())
    }

    /// Push a table's current content to the ESP as reference data
    /// (ESP use case 2).
    pub fn push_reference_to_esp(
        &self,
        session: &Session,
        table: &str,
        reference_name: &str,
    ) -> Result<()> {
        self.security.check(session, Privilege::Stream)?;
        let rs = self.execute_sql(session, &format!("SELECT * FROM {table}"))?;
        self.esp.register_reference(reference_name, rs);
        Ok(())
    }

    // ---- repository / lifecycle ----

    /// Store an artifact in the repository.
    pub fn put_artifact(
        &self,
        session: &Session,
        name: &str,
        kind: ArtifactKind,
        content: &str,
    ) -> Result<u64> {
        self.security.check(session, Privilege::Operate)?;
        Ok(self.repository.lock().put(name, kind, content))
    }

    /// Export artifacts as a delivery unit.
    pub fn export_delivery_unit(
        &self,
        session: &Session,
        unit: &str,
        names: &[&str],
    ) -> Result<DeliveryUnit> {
        self.security.check(session, Privilege::Operate)?;
        self.repository.lock().export(unit, names)
    }

    /// Import and **deploy** a delivery unit atomically: all SQL and CCL
    /// artifacts are validated before any is executed.
    pub fn deploy_delivery_unit(&self, session: &Session, du: &DeliveryUnit) -> Result<()> {
        self.security.check(session, Privilege::Operate)?;
        // Validate.
        for a in &du.artifacts {
            match a.kind {
                ArtifactKind::SqlScript => {
                    parse_script(&a.content)?;
                }
                ArtifactKind::CclScript => {
                    hana_esp::parse_ccl(&a.content)?;
                }
                _ => {}
            }
        }
        self.repository.lock().import(du)?;
        // Deploy.
        for a in &du.artifacts {
            match a.kind {
                ArtifactKind::SqlScript => {
                    self.execute_script(session, &a.content)?;
                }
                ArtifactKind::CclScript => {
                    self.esp.deploy(&a.content)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Landscape summary (single administration interface, §2).
    pub fn landscape_info(&self) -> String {
        let tables = self.catalog.list_tables();
        let (hits, misses) = self.catalog.sda().cache.stats();
        let (reads, writes) = self.iq.cache().file().stats.snapshot();
        format!(
            "HANA data platform: {} tables ({}), last commit id {}, \
             remote cache {}h/{}m, extended store I/O {}r/{}w pages, \
             ESP windows: {:?}",
            tables.len(),
            tables
                .iter()
                .map(|(n, k)| format!("{n}:{k}"))
                .collect::<Vec<_>>()
                .join(", "),
            self.tm.last_commit_id(),
            hits,
            misses,
            reads,
            writes,
            self.esp.window_names(),
        )
    }
}

fn ok_result() -> ResultSet {
    ResultSet::empty(Schema::of(&[("result", DataType::Varchar)]))
}

fn count_result(n: usize) -> ResultSet {
    ResultSet::new(
        Schema::of(&[("rows_affected", DataType::BigInt)]),
        vec![Row::from_values([Value::Int(n as i64)])],
    )
}

/// Split a script on semicolons outside string literals, so each
/// statement's exact text reaches the recovery log.
fn split_sql_script(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ';' if !in_str => {
                if !cur.trim().is_empty() {
                    out.push(cur.trim().to_string());
                }
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Table function proxy for SDA virtual functions.
struct VirtualFunctionProxy {
    catalog: std::sync::Weak<PlatformCatalog>,
    name: String,
    schema: Schema,
}

impl TableFunction for VirtualFunctionProxy {
    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn invoke(&self, _args: &[Value]) -> Result<ResultSet> {
        let catalog = self
            .catalog
            .upgrade()
            .ok_or_else(|| HanaError::Catalog("platform shut down".into()))?;
        catalog.sda().invoke_virtual_function(&self.name)
    }
}

/// Table function exposing a live ESP window.
struct EspWindowFunction {
    esp: Arc<EspEngine>,
    window: String,
    schema: Schema,
}

impl TableFunction for EspWindowFunction {
    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn invoke(&self, _args: &[Value]) -> Result<ResultSet> {
        self.esp.window_snapshot(&self.window)
    }
}
