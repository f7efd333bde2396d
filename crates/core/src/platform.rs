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

use hana_columnar::{ColumnTable, IndexDef};
use hana_esp::{EspEngine, Sink};
use hana_exec::ExecContext;
use hana_hadoop::{Hive, MrFunctionRegistry};
use hana_iq::IqEngine;
use hana_query::{execute_query_with, Catalog as _, PlannerContext, TableFunction, TableSource};
use hana_rowstore::RowTable;
use hana_sda::{
    ChaosAdapter, ChaosConfig, HadoopMrAdapter, HiveOdbcAdapter, IqAdapter, RemoteCacheConfig,
    RemoteContext, RemoteSourceStats, RetryPolicy, SdaAdapter,
};
use hana_sql::{
    evaluate, evaluate_predicate, parse_script, parse_statement, ColumnSpec, CreateTable, Expr,
    PartitionBy, Statement, TableKind,
};
use hana_txn::{TransactionManager, TwoPhaseParticipant, TxnHandle};
use hana_types::{ColumnDef, DataType, HanaError, Result, ResultSet, Row, Schema, Value};

use crate::catalog::{PlatformCatalog, TableEntry, TableKindInfo};
use crate::ingest::{IngestCommit, IngestDriver};
use crate::repository::{ArtifactKind, DeliveryUnit, Repository};
use crate::security::{Privilege, SecurityManager, Session};
use crate::writes::{LocalOp, LocalWrites};

/// SDA source name of the internal, shielded IQ instance.
pub const INTERNAL_IQ_SOURCE: &str = "_iq_internal";

/// Record separator for bulk-load WAL payloads.
const ROW_SEP: char = '\u{1e}';

/// Marker payload prefix for distributed bulk loads whose row data lives
/// in the per-partition logs rather than the coordinator log.
const DIST_LOAD_MARKER: &str = "--DISTLOAD\u{1}";

/// Payload prefix of a streaming-ingest epoch whose rows are inline:
/// `INGEST <pipeline> <epoch> <table> <rows>` (field-separated).
const INGEST_MARKER: &str = "INGEST\u{1}";

/// Payload prefix of a streaming-ingest epoch into a distributed table:
/// the rows live in the per-partition logs, the coordinator record only
/// carries `INGESTD <pipeline> <epoch> <table>`.
const INGEST_DIST_MARKER: &str = "INGESTD\u{1}";

type AdapterFactory = Box<dyn Fn(&str) -> Arc<dyn SdaAdapter> + Send + Sync>;

/// A logical, transactionally consistent backup spanning the in-memory
/// store and the extended storage (§3.1: "consistent backup and recovery
/// of both engines").
pub struct Backup {
    /// The snapshot commit ID everything was captured under.
    pub cid: u64,
    pub(crate) entries: Vec<BackupEntry>,
    /// Streaming-ingest ledger at the snapshot cut: `(pipeline,
    /// highest committed epoch)` — restoring it keeps epoch dedup
    /// working after the log prefix holding those epochs is pruned.
    pub(crate) ingest_epochs: Vec<(String, u64)>,
}

pub(crate) struct BackupEntry {
    pub(crate) name: String,
    pub(crate) kind: TableKindInfo,
    pub(crate) schema: Schema,
    pub(crate) rows: Vec<Row>,
    pub(crate) cold_rows: Vec<Row>,
    /// Secondary index definitions (checkpoints prune the log, so
    /// CREATE INDEX records cannot be relied on surviving replay).
    pub(crate) indexes: Vec<IndexDef>,
}

impl Backup {
    /// Number of captured tables.
    pub fn table_count(&self) -> usize {
        self.entries.len()
    }

    /// Total captured rows.
    pub fn row_count(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.rows.len() + e.cold_rows.len())
            .sum()
    }
}

/// The platform facade.
pub struct HanaPlatform {
    catalog: Arc<PlatformCatalog>,
    tm: Arc<TransactionManager>,
    iq: Arc<IqEngine>,
    exec: Arc<ExecContext>,
    esp: Arc<EspEngine>,
    security: SecurityManager,
    repository: Mutex<Repository>,
    local_writes: Arc<LocalWrites>,
    /// session id -> open explicit transaction.
    active_txns: Mutex<HashMap<u64, TxnHandle>>,
    adapter_factories: RwLock<HashMap<String, AdapterFactory>>,
    /// Streaming-ingest epoch ledger + checkpoint fence.
    ingest: crate::ingest::IngestLedger,
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

    /// Restore the checkpoint and replay the committed log suffix. The
    /// platform's own WAL is put in passive mode for the duration so
    /// replaying a statement does not log it a second time.
    fn recover_from_wal(&self, wal: &hana_txn::Wal) -> Result<usize> {
        wal.set_passive(true);
        let result = (|| {
            let report = wal.recover();
            let session = self.connect("SYSTEM", "manager")?;
            let mut after_cid = 0;
            if let Some(ckpt) = wal.latest_checkpoint() {
                let backup = crate::durability::decode_backup(&ckpt.payload)?;
                after_cid = ckpt.cid;
                self.restore(&session, &backup)?;
            }
            let committed: HashMap<u64, u64> = report.committed.iter().copied().collect();
            self.replay_records(&session, wal, &committed, after_cid)
        })();
        wal.set_passive(false);
        result
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

    /// Resilience statistics of one remote source: breaker state and
    /// counters, retries spent, stale fallbacks served.
    pub fn remote_source_stats(&self, source: &str) -> Result<RemoteSourceStats> {
        self.catalog.sda().source_stats(source)
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
    /// time, rows, bytes and worker count per operator). Statements
    /// other than queries execute normally but produce an empty tree.
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

    fn participants(&self) -> Vec<Arc<dyn TwoPhaseParticipant>> {
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
        self.security.check(session, Privilege::Select)?;
        PlannerContext::new(self.catalog.as_ref()).planner().plan(q)
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
        self.security.check(session, Privilege::Select)?;
        let cid = self.snapshot_cid(session);
        hana_query::execute_plan_with(&self.exec, plan, self.catalog.as_ref(), cid)
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
                match &entry.source {
                    TableSource::Column(t) => t.write().create_index(&name, &columns)?,
                    TableSource::Hybrid { hot, .. } => hot.write().create_index(&name, &columns)?,
                    _ => {
                        return Err(HanaError::Unsupported(format!(
                            "'{table}' does not support secondary indexes"
                        )))
                    }
                }
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
                match &entry.source {
                    TableSource::Column(t) => t.write().drop_index(&name)?,
                    TableSource::Hybrid { hot, .. } => hot.write().drop_index(&name)?,
                    _ => {
                        return Err(HanaError::Catalog(format!(
                            "table '{owner}' has no index '{name}'"
                        )))
                    }
                }
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
                let n = self.run_dml(session, sql_text, |p, tid, cid| {
                    p.buffer_insert(tid, cid, &table, columns.as_deref(), &rows)
                })?;
                Ok(count_result(n))
            }
            Statement::Delete { table, filter } => {
                self.security.check(session, Privilege::Write)?;
                let n = self.run_dml(session, sql_text, |p, tid, cid| {
                    p.buffer_delete(tid, cid, &table, filter.as_ref())
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
                    p.buffer_update(tid, cid, &table, &assignments, filter.as_ref())
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

    // ---- DDL ----

    fn create_table(&self, ct: CreateTable) -> Result<()> {
        let schema = schema_from_specs(&ct.columns)?;
        if let Some(p) = &ct.partition {
            // Partitioned scale-out table: fragments on the in-process
            // node landscape, one per partition.
            if ct.extended.is_some() {
                return Err(HanaError::Unsupported(
                    "PARTITION BY cannot be combined with extended storage".into(),
                ));
            }
            if ct.kind != TableKind::Column {
                return Err(HanaError::Unsupported(
                    "PARTITION BY is supported on column tables only".into(),
                ));
            }
            let dt = Arc::new(hana_dist::DistTable::new(
                &ct.name,
                schema,
                partition_spec(p),
            )?);
            if let Some(base) = self.tm.wal().dir() {
                // Durable platform: give every partition its own log
                // under the coordinator's directory so scale-out loads
                // are durable per partition.
                let pdir = base.join("dist").join(ct.name.to_ascii_lowercase());
                dt.attach_wal(&pdir)?;
            }
            return self.catalog.add_table(
                &ct.name,
                TableEntry {
                    source: TableSource::Distributed(dt),
                    kind: TableKindInfo::Distributed {
                        partition: p.clone(),
                    },
                },
            );
        }
        match &ct.extended {
            None => match ct.kind {
                TableKind::Column => {
                    let table = ColumnTable::new(&ct.name, schema);
                    self.catalog.add_table(
                        &ct.name,
                        TableEntry {
                            source: TableSource::Column(Arc::new(RwLock::new(table))),
                            kind: TableKindInfo::Column,
                        },
                    )
                }
                TableKind::Row => {
                    let pk = ct
                        .columns
                        .iter()
                        .find(|c| c.primary_key)
                        .map(|c| c.name.clone());
                    let table = RowTable::new(&ct.name, schema, pk.as_deref())?;
                    self.catalog.add_table(
                        &ct.name,
                        TableEntry {
                            source: TableSource::Row(Arc::new(RwLock::new(table))),
                            kind: TableKindInfo::Row,
                        },
                    )
                }
            },
            Some(ext) if !ext.hybrid => {
                // Whole table in the extended store (§3.1 scenario 1).
                self.iq.create_table(&ct.name, schema.clone())?;
                self.catalog.add_table(
                    &ct.name,
                    TableEntry {
                        source: TableSource::Extended {
                            source: INTERNAL_IQ_SOURCE.into(),
                            remote_table: ct.name.to_ascii_lowercase(),
                            schema,
                        },
                        kind: TableKindInfo::Extended,
                    },
                )
            }
            Some(ext) => {
                // Hybrid table (§3.1 scenario 2): hot in-memory
                // partition + cold IQ partition, aged by the flag column.
                let aging = ext.aging_column.clone().ok_or_else(|| {
                    HanaError::Parse("hybrid tables need AGING ON <flag column>".into())
                })?;
                let idx = schema.require(&aging)?;
                if schema.column(idx).data_type != DataType::Bool {
                    return Err(HanaError::Catalog(format!(
                        "aging column '{aging}' must be BOOLEAN"
                    )));
                }
                let cold_table = format!("{}__cold", ct.name.to_ascii_lowercase());
                self.iq.create_table(&cold_table, schema.clone())?;
                let hot = ColumnTable::new(&ct.name, schema);
                self.catalog.add_table(
                    &ct.name,
                    TableEntry {
                        source: TableSource::Hybrid {
                            hot: Arc::new(RwLock::new(hot)),
                            source: INTERNAL_IQ_SOURCE.into(),
                            cold_table: cold_table.clone(),
                            aging_column: aging.clone(),
                        },
                        kind: TableKindInfo::Hybrid {
                            aging_column: aging,
                            cold_table,
                        },
                    },
                )
            }
        }
    }

    fn drop_table(&self, name: &str) -> Result<()> {
        let entry = self.catalog.remove_table(name)?;
        if let TableSource::Distributed(dt) = &entry.source {
            if let Some(wals) = dt.partition_wals() {
                // The table is gone; its partition logs are dead weight.
                let dir = wals.dir().to_path_buf();
                drop(wals);
                if let Err(e) = std::fs::remove_dir_all(&dir) {
                    hana_obs::warn(format!(
                        "could not remove partition logs at {}: {e}",
                        dir.display()
                    ));
                }
            }
        }
        match entry.kind {
            TableKindInfo::Extended => self.iq.drop_table(name)?,
            TableKindInfo::Hybrid { cold_table, .. } => self.iq.drop_table(&cold_table)?,
            _ => {}
        }
        Ok(())
    }

    /// Resolve which table owns an index named without an `ON` clause.
    fn find_index_owner(&self, index: &str) -> Result<String> {
        for (name, _) in self.catalog.list_tables() {
            let Ok(entry) = self.catalog.table(&name) else {
                continue;
            };
            let found = match &entry.source {
                TableSource::Column(t) => t.read().index(index).is_some(),
                TableSource::Hybrid { hot, .. } => hot.read().index(index).is_some(),
                _ => false,
            };
            if found {
                return Ok(name);
            }
        }
        Err(HanaError::Catalog(format!("unknown index '{index}'")))
    }

    fn log_ddl(&self, sql: &str) -> Result<()> {
        let txn = self.tm.begin();
        self.tm.log_data(txn.tid, "hana", sql)?;
        self.tm.commit(txn, &[])?;
        Ok(())
    }

    // ---- DML buffering ----

    fn buffer_insert(
        &self,
        tid: u64,
        _cid: u64,
        table: &str,
        columns: Option<&[String]>,
        value_rows: &[Vec<Expr>],
    ) -> Result<usize> {
        let entry = self.catalog.table(table)?;
        let schema = entry.source.schema();
        let empty = Schema::default();
        let mut rows = Vec::with_capacity(value_rows.len());
        for exprs in value_rows {
            let values: Vec<Value> = exprs
                .iter()
                .map(|e| evaluate(e, &empty, &Row::new()))
                .collect::<Result<_>>()?;
            let row = match columns {
                None => values,
                Some(cols) => {
                    if cols.len() != values.len() {
                        return Err(HanaError::Execution(format!(
                            "{} columns but {} values",
                            cols.len(),
                            values.len()
                        )));
                    }
                    let mut full = vec![Value::Null; schema.len()];
                    for (c, v) in cols.iter().zip(values) {
                        full[schema.require(c)?] = v;
                    }
                    full
                }
            };
            schema.check_row(&row)?;
            rows.push(row);
        }
        let n = rows.len();
        match &entry.source {
            TableSource::Column(t) => {
                for row in rows {
                    self.local_writes.buffer(
                        tid,
                        LocalOp::ColumnInsert {
                            table: Arc::clone(t),
                            row,
                        },
                    );
                }
            }
            TableSource::Row(t) => {
                for row in rows {
                    self.local_writes.buffer(
                        tid,
                        LocalOp::RowInsert {
                            table: Arc::clone(t),
                            row,
                        },
                    );
                }
            }
            TableSource::Hybrid { hot, .. } => {
                for row in rows {
                    self.local_writes.buffer(
                        tid,
                        LocalOp::ColumnInsert {
                            table: Arc::clone(hot),
                            row,
                        },
                    );
                }
            }
            TableSource::Extended { remote_table, .. } => {
                self.iq
                    .buffer_insert(tid, remote_table, rows.into_iter().map(Row).collect())?;
            }
            TableSource::Distributed(dt) => {
                // Routed insert: each row buffers against its home
                // node's fragment.
                for row in rows {
                    let node = dt.route(&row);
                    self.local_writes.buffer(
                        tid,
                        LocalOp::ColumnInsert {
                            table: Arc::clone(dt.nodes()[node].table()),
                            row,
                        },
                    );
                }
            }
            TableSource::Virtual { .. } => {
                return Err(HanaError::Unsupported(format!(
                    "virtual table '{table}' is read-only (no CAP_DML)"
                )));
            }
        }
        Ok(n)
    }

    fn buffer_delete(
        &self,
        tid: u64,
        cid: u64,
        table: &str,
        filter: Option<&Expr>,
    ) -> Result<usize> {
        let entry = self.catalog.table(table)?;
        match &entry.source {
            TableSource::Column(t) => {
                let victims = {
                    let tr = t.read();
                    matching_column_rows(&tr, filter, cid)?
                };
                let n = victims.len();
                for row_id in victims {
                    self.local_writes.buffer(
                        tid,
                        LocalOp::ColumnDelete {
                            table: Arc::clone(t),
                            row_id,
                        },
                    );
                }
                Ok(n)
            }
            TableSource::Row(t) => {
                let tr = t.read();
                let schema = tr.schema().clone();
                let slots = tr.slots_matching(hana_txn::Snapshot::at(cid), |row| match filter {
                    None => true,
                    Some(f) => evaluate_predicate(f, &schema, row).unwrap_or(false),
                });
                drop(tr);
                let n = slots.len();
                for slot in slots {
                    self.local_writes.buffer(
                        tid,
                        LocalOp::RowDelete {
                            table: Arc::clone(t),
                            slot,
                        },
                    );
                }
                Ok(n)
            }
            TableSource::Hybrid {
                hot, cold_table, ..
            } => {
                let victims = {
                    let tr = hot.read();
                    matching_column_rows(&tr, filter, cid)?
                };
                let mut n = victims.len();
                for row_id in victims {
                    self.local_writes.buffer(
                        tid,
                        LocalOp::ColumnDelete {
                            table: Arc::clone(hot),
                            row_id,
                        },
                    );
                }
                n += self.iq_delete(tid, cid, cold_table, filter)?;
                Ok(n)
            }
            TableSource::Extended { remote_table, .. } => {
                self.iq_delete(tid, cid, remote_table, filter)
            }
            TableSource::Distributed(dt) => {
                let mut n = 0;
                for node in dt.nodes() {
                    let victims = {
                        let tr = node.table().read();
                        matching_column_rows(&tr, filter, cid)?
                    };
                    n += victims.len();
                    for row_id in victims {
                        self.local_writes.buffer(
                            tid,
                            LocalOp::ColumnDelete {
                                table: Arc::clone(node.table()),
                                row_id,
                            },
                        );
                    }
                }
                Ok(n)
            }
            TableSource::Virtual { .. } => Err(HanaError::Unsupported(format!(
                "virtual table '{table}' is read-only (no CAP_DML)"
            ))),
        }
    }

    fn iq_delete(
        &self,
        tid: u64,
        cid: u64,
        remote_table: &str,
        filter: Option<&Expr>,
    ) -> Result<usize> {
        let preds = match filter {
            None => Vec::new(),
            Some(f) => {
                let (pushed, residual) = hana_sda::split_pushdown(f);
                if !residual.is_empty() {
                    return Err(HanaError::Unsupported(format!(
                        "DELETE filter not fully pushable to the extended store: {residual:?}"
                    )));
                }
                pushed
            }
        };
        self.iq.buffer_delete(tid, remote_table, &preds, cid)
    }

    fn buffer_update(
        &self,
        tid: u64,
        cid: u64,
        table: &str,
        assignments: &[(String, Expr)],
        filter: Option<&Expr>,
    ) -> Result<usize> {
        let entry = self.catalog.table(table)?;
        let schema = entry.source.schema();
        let apply = |row: &Row| -> Result<Vec<Value>> {
            let mut new_row = row.values().to_vec();
            for (col, e) in assignments {
                new_row[schema.require(col)?] = evaluate(e, &schema, row)?;
            }
            Ok(new_row)
        };
        match &entry.source {
            // Hybrid tables update their hot partition; cold data is
            // read-mostly ("rarely accessed", §3.1) and must be un-aged
            // before modification.
            TableSource::Column(t) | TableSource::Hybrid { hot: t, .. } => {
                let (victims, new_rows) = {
                    let tr = t.read();
                    let victims = matching_column_rows(&tr, filter, cid)?;
                    let new_rows: Vec<Vec<Value>> = victims
                        .iter()
                        .map(|&r| {
                            apply(&Row::from_values((0..schema.len()).map(|c| tr.value(r, c))))
                        })
                        .collect::<Result<_>>()?;
                    (victims, new_rows)
                };
                let n = victims.len();
                for (row_id, row) in victims.into_iter().zip(new_rows) {
                    self.local_writes.buffer(
                        tid,
                        LocalOp::ColumnDelete {
                            table: Arc::clone(t),
                            row_id,
                        },
                    );
                    self.local_writes.buffer(
                        tid,
                        LocalOp::ColumnInsert {
                            table: Arc::clone(t),
                            row,
                        },
                    );
                }
                Ok(n)
            }
            TableSource::Row(t) => {
                let tr = t.read();
                let sch = tr.schema().clone();
                let slots = tr.slots_matching(hana_txn::Snapshot::at(cid), |row| match filter {
                    None => true,
                    Some(f) => evaluate_predicate(f, &sch, row).unwrap_or(false),
                });
                let updates: Vec<(usize, Vec<Value>)> = slots
                    .iter()
                    .map(|&s| {
                        let old = tr.slot_values(s).expect("slot exists").clone();
                        Ok((s, apply(&old)?))
                    })
                    .collect::<Result<_>>()?;
                drop(tr);
                let n = updates.len();
                for (slot, row) in updates {
                    self.local_writes.buffer(
                        tid,
                        LocalOp::RowDelete {
                            table: Arc::clone(t),
                            slot,
                        },
                    );
                    self.local_writes.buffer(
                        tid,
                        LocalOp::RowInsert {
                            table: Arc::clone(t),
                            row,
                        },
                    );
                }
                Ok(n)
            }
            TableSource::Distributed(dt) => {
                let mut n = 0;
                for node in dt.nodes() {
                    let (victims, new_rows) = {
                        let tr = node.table().read();
                        let victims = matching_column_rows(&tr, filter, cid)?;
                        let new_rows: Vec<Vec<Value>> = victims
                            .iter()
                            .map(|&r| {
                                apply(&Row::from_values((0..schema.len()).map(|c| tr.value(r, c))))
                            })
                            .collect::<Result<_>>()?;
                        (victims, new_rows)
                    };
                    n += victims.len();
                    for (row_id, row) in victims.into_iter().zip(new_rows) {
                        self.local_writes.buffer(
                            tid,
                            LocalOp::ColumnDelete {
                                table: Arc::clone(node.table()),
                                row_id,
                            },
                        );
                        // Re-route the new image: a partition-key update
                        // may move the row to a different node.
                        let home = dt.route(&row);
                        self.local_writes.buffer(
                            tid,
                            LocalOp::ColumnInsert {
                                table: Arc::clone(dt.nodes()[home].table()),
                                row,
                            },
                        );
                    }
                }
                Ok(n)
            }
            _ => Err(HanaError::Unsupported(format!(
                "UPDATE is supported on local tables only, not '{table}'"
            ))),
        }
    }

    // ---- bulk load ----

    /// Bulk-load rows through a single transaction. For extended tables
    /// this is the §3.1 **direct load** path ("directly moves the data
    /// into the external store without taking a detour via the in-memory
    /// store").
    pub fn load_rows(&self, session: &Session, table: &str, rows: &[Row]) -> Result<usize> {
        self.security.check(session, Privilege::Write)?;
        let entry = self.catalog.table(table)?;
        let schema = entry.source.schema();
        for row in rows {
            schema.check_row(row.values())?;
        }
        let txn = self.tm.begin();
        let dist_logged = match self.bulk_buffer(&txn, table, &entry, rows) {
            Ok(d) => d,
            Err(e) => {
                // Abort so a retry of the same load starts clean.
                let _ = self.tm.abort(txn, &self.participants());
                return Err(e);
            }
        };
        // Log the bulk load for point-in-time recovery: a marker when
        // the rows already sit durably in partition logs, the full row
        // payload otherwise.
        let payload = if dist_logged {
            format!("{DIST_LOAD_MARKER}{table}")
        } else {
            format!("LOAD\u{1}{table}\u{1}{}", encode_rows(rows))
        };
        let tid = txn.tid;
        self.tm.log_data(tid, "hana", &payload)?;
        let receipt = self.tm.commit(txn, &self.participants())?;
        if dist_logged {
            if let TableSource::Distributed(dt) = &entry.source {
                // Best-effort bookkeeping marker in the partition logs;
                // the coordinator's commit record is the source of truth.
                dt.log_commit(tid, receipt.cid);
            }
        }
        // Bulk load is a natural statistics trigger (§3.1 synopses):
        // restore and ESP ingestion funnel through here too, so
        // recovered tables come back with fresh statistics.
        self.refresh_statistics(table)?;
        // Bulk load is also a checkpoint barrier: the snapshot it
        // triggers keeps recovery from replaying the (potentially large)
        // load payload ever again.
        self.maybe_checkpoint();
        Ok(rows.len())
    }

    /// Buffer `rows` into `entry`'s storage under `txn` — the shared
    /// apply half of [`load_rows`](Self::load_rows) and
    /// [`commit_ingest_batch`](Self::commit_ingest_batch). Distributed
    /// tables route through the repartition exchange and write their
    /// per-partition logs; returns whether they did (`dist_logged`).
    fn bulk_buffer(
        &self,
        txn: &TxnHandle,
        table: &str,
        entry: &TableEntry,
        rows: &[Row],
    ) -> Result<bool> {
        let mut dist_logged = false;
        match &entry.source {
            TableSource::Column(t) | TableSource::Hybrid { hot: t, .. } => {
                for row in rows {
                    self.local_writes.buffer(
                        txn.tid,
                        LocalOp::ColumnInsert {
                            table: Arc::clone(t),
                            row: row.values().to_vec(),
                        },
                    );
                }
            }
            TableSource::Row(t) => {
                for row in rows {
                    self.local_writes.buffer(
                        txn.tid,
                        LocalOp::RowInsert {
                            table: Arc::clone(t),
                            row: row.values().to_vec(),
                        },
                    );
                }
            }
            TableSource::Extended { remote_table, .. } => {
                self.iq
                    .buffer_insert(txn.tid, remote_table, rows.to_vec())?;
            }
            TableSource::Distributed(dt) => {
                // Bulk load goes through the repartition exchange: rows
                // are bucketed by partition key and shipped to their
                // home nodes over the links (accounted + fault-checked).
                let ctx = RemoteContext::snapshot(txn.snapshot.cid());
                let buckets =
                    hana_dist::repartition(dt, &ctx, &RetryPolicy::default(), rows.to_vec())?;
                for (node, bucket) in buckets.into_iter().enumerate() {
                    for row in bucket {
                        self.local_writes.buffer(
                            txn.tid,
                            LocalOp::ColumnInsert {
                                table: Arc::clone(dt.nodes()[node].table()),
                                row: row.0,
                            },
                        );
                    }
                }
                // Coordinated durability: write the rows to their home
                // partitions' logs and fsync them *before* the
                // coordinator's commit record, so a committed coordinator
                // record guarantees every partition has its rows. The
                // coordinator log then only carries a marker.
                if dt.wal_attached() && !self.tm.wal().passive() {
                    for row in rows {
                        dt.log_insert(txn.tid, row.values())?;
                    }
                    dt.sync_wal()?;
                    dist_logged = true;
                }
            }
            TableSource::Virtual { .. } => {
                return Err(HanaError::Unsupported(format!(
                    "virtual table '{table}' is read-only"
                )));
            }
        }
        Ok(dist_logged)
    }

    // ---- streaming ingest (exactly-once epochs) ----

    /// Commit one streaming-ingest batch under `(pipeline, epoch)`,
    /// exactly once: if the ledger already covers `epoch` (producer
    /// retry after a lost ack, or WAL replay), nothing is applied and
    /// [`IngestCommit::Deduplicated`] is returned. Otherwise the rows
    /// are bulk-applied (distributed tables via the repartition
    /// exchange + per-partition logs), the epoch is logged with the
    /// batch's transaction, and the ledger advances — all under the
    /// epoch fence, so a concurrent checkpoint cut (MERGE DELTA, bulk
    /// load) sees either none or all of the epoch.
    ///
    /// Deliberately *not* per-batch: statistics refresh (a catalog
    /// version bump would invalidate every cached session plan on each
    /// micro-batch) and checkpointing (a full snapshot per batch).
    /// Delta merges and explicit checkpoints cover both at a sane
    /// cadence.
    pub fn commit_ingest_batch(
        &self,
        session: &Session,
        pipeline: &str,
        epoch: u64,
        table: &str,
        rows: &[Row],
    ) -> Result<IngestCommit> {
        self.security.check(session, Privilege::Stream)?;
        let entry = self.catalog.table(table)?;
        let schema = entry.source.schema();
        for row in rows {
            schema.check_row(row.values())?;
        }
        let _fence = self.ingest.fence();
        let last = self.ingest.last_epoch(pipeline);
        if epoch <= last {
            hana_obs::registry()
                .counter("hana_ingest_epochs_deduped_total")
                .inc();
            return Ok(IngestCommit::Deduplicated { last_epoch: last });
        }
        let txn = self.tm.begin();
        let dist_logged = match self.bulk_buffer(&txn, table, &entry, rows) {
            Ok(d) => d,
            Err(e) => {
                // Abort so a chunk-level or batch-level retry of the
                // same epoch starts from a clean slate.
                let _ = self.tm.abort(txn, &self.participants());
                return Err(e);
            }
        };
        let payload = if dist_logged {
            format!("{INGEST_DIST_MARKER}{pipeline}\u{1}{epoch}\u{1}{table}")
        } else {
            format!(
                "{INGEST_MARKER}{pipeline}\u{1}{epoch}\u{1}{table}\u{1}{}",
                encode_rows(rows)
            )
        };
        let tid = txn.tid;
        if let Err(e) = self.tm.log_data(tid, "ingest", &payload) {
            let _ = self.tm.abort(txn, &self.participants());
            return Err(e);
        }
        let receipt = self.tm.commit(txn, &self.participants())?;
        if dist_logged {
            if let TableSource::Distributed(dt) = &entry.source {
                dt.log_commit(tid, receipt.cid);
            }
        }
        self.ingest.note(pipeline, epoch);
        hana_obs::registry()
            .counter("hana_ingest_epochs_committed_total")
            .inc();
        hana_obs::registry()
            .counter("hana_ingest_rows_committed_total")
            .add(rows.len() as u64);
        Ok(IngestCommit::Committed { cid: receipt.cid })
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

    // ---- aging (§3.1 "built-in aging mechanism") ----

    /// Move rows whose aging flag is set from the hot partition to the
    /// cold (extended) partition of a hybrid table. Returns moved rows.
    pub fn run_aging(&self, session: &Session, table: &str) -> Result<usize> {
        self.security.check(session, Privilege::Write)?;
        let entry = self.catalog.table(table)?;
        let TableSource::Hybrid {
            hot,
            cold_table,
            aging_column,
            ..
        } = &entry.source
        else {
            return Err(HanaError::Unsupported(format!(
                "'{table}' is not a hybrid table"
            )));
        };
        let cid = self.tm.current_snapshot().cid();
        let (victims, rows) = {
            let tr = hot.read();
            let col = tr.schema().require(aging_column)?;
            let hits = tr.scan(
                col,
                &hana_columnar::ColumnPredicate::Eq(Value::Bool(true)),
                cid,
            )?;
            let victims: Vec<usize> = hits.iter().collect();
            let rows = tr.collect_rows(&hits, &[]);
            (victims, rows)
        };
        if victims.is_empty() {
            return Ok(0);
        }
        let txn = self.tm.begin();
        self.iq.buffer_insert(txn.tid, cold_table, rows)?;
        for row_id in &victims {
            self.local_writes.buffer(
                txn.tid,
                LocalOp::ColumnDelete {
                    table: Arc::clone(hot),
                    row_id: *row_id,
                },
            );
        }
        self.tm
            .log_data(txn.tid, "hana", &format!("-- aging {table}"))?;
        self.tm.commit(txn, &self.participants())?;
        Ok(victims.len())
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

    // ---- backup / recovery ----

    /// Take a consistent logical backup across the in-memory store and
    /// the extended storage (one snapshot CID for both).
    pub fn backup(&self, session: &Session) -> Result<Backup> {
        self.security.check(session, Privilege::Operate)?;
        self.snapshot_backup()
    }

    /// Durably checkpoint the platform: capture a transactionally
    /// consistent snapshot of every table, write it as the WAL's
    /// checkpoint sidecar and prune sealed log segments, so the next
    /// recovery restores the snapshot and replays only the log suffix.
    /// Returns the snapshot commit ID. Errors if the platform's WAL is
    /// not a durable segment directory.
    pub fn write_checkpoint(&self) -> Result<u64> {
        let backup = self.snapshot_backup()?;
        let cid = backup.cid;
        let payload = crate::durability::encode_backup(&backup);
        self.tm.checkpoint(cid, &payload)?;
        Ok(cid)
    }

    /// Checkpoint barrier: merge-delta and bulk load call this. A no-op
    /// on non-durable platforms and during recovery replay; a checkpoint
    /// failure is surfaced as a warning, never as a failure of the
    /// statement that triggered it (the log alone still recovers).
    fn maybe_checkpoint(&self) {
        let wal = self.tm.wal();
        if !wal.is_durable_dir() || wal.passive() {
            return;
        }
        if let Err(e) = self.write_checkpoint() {
            hana_obs::warn(format!("checkpoint barrier failed: {e}"));
        }
    }

    fn snapshot_backup(&self) -> Result<Backup> {
        // Epoch fence (see `IngestLedger`): no ingest epoch can commit
        // between reading the snapshot cid and reading the ledger, so
        // the captured table rows and ledger agree on exactly which
        // epochs are inside the snapshot. Without this, a checkpoint
        // cut racing an epoch commit could snapshot the rows but not
        // the ledger entry (replay double-applies) or vice versa
        // (replay loses the epoch).
        let _fence = self.ingest.fence();
        // Cut at a commit ID whose predecessors have all applied: a
        // commit still between CID assignment and phase 2 would be
        // recorded as covered without its rows.
        let cid = self.tm.applied_commit_id();
        let mut entries = Vec::new();
        for (name, _) in self.catalog.list_tables() {
            let entry = self.catalog.table(&name)?;
            let schema = entry.source.schema();
            let (rows, cold_rows) = match &entry.source {
                TableSource::Column(t) => (t.read().snapshot_rows(cid), Vec::new()),
                TableSource::Row(t) => (t.read().scan(hana_txn::Snapshot::at(cid)), Vec::new()),
                TableSource::Extended { remote_table, .. } => {
                    (self.iq.scan(remote_table, &[], None, cid)?.rows, Vec::new())
                }
                TableSource::Hybrid {
                    hot, cold_table, ..
                } => (
                    hot.read().snapshot_rows(cid),
                    self.iq.scan(cold_table, &[], None, cid)?.rows,
                ),
                TableSource::Distributed(dt) => (dt.snapshot_rows(cid), Vec::new()),
                TableSource::Virtual { .. } => continue, // remote data
            };
            let indexes = match &entry.source {
                TableSource::Column(t) => t.read().index_defs(),
                TableSource::Hybrid { hot, .. } => hot.read().index_defs(),
                _ => Vec::new(),
            };
            entries.push(BackupEntry {
                name,
                kind: entry.kind.clone(),
                schema,
                rows,
                cold_rows,
                indexes,
            });
        }
        Ok(Backup {
            cid,
            entries,
            ingest_epochs: self.ingest.entries(),
        })
    }

    /// Restore a backup: captured tables are dropped, recreated and
    /// reloaded (in-memory and extended partitions together).
    pub fn restore(&self, session: &Session, backup: &Backup) -> Result<()> {
        self.security.check(session, Privilege::Operate)?;
        // Ledger first: any epoch captured in the snapshot must dedup
        // if the log suffix (or a producer) re-delivers it.
        for (pipeline, epoch) in &backup.ingest_epochs {
            self.ingest.note(pipeline, *epoch);
        }
        for e in &backup.entries {
            if self.catalog.has_table(&e.name) {
                self.drop_table(&e.name)?;
            }
            let specs: Vec<ColumnSpec> = e
                .schema
                .columns()
                .iter()
                .map(|c| ColumnSpec {
                    name: c.name.clone(),
                    type_name: c.data_type.sql_name().to_string(),
                    not_null: !c.nullable,
                    primary_key: false,
                })
                .collect();
            let (kind, extended) = match &e.kind {
                TableKindInfo::Column
                | TableKindInfo::Virtual
                | TableKindInfo::Distributed { .. } => (TableKind::Column, None),
                TableKindInfo::Row => (TableKind::Row, None),
                TableKindInfo::Extended => (
                    TableKind::Column,
                    Some(hana_sql::ExtendedSpec {
                        hybrid: false,
                        aging_column: None,
                    }),
                ),
                TableKindInfo::Hybrid { aging_column, .. } => (
                    TableKind::Column,
                    Some(hana_sql::ExtendedSpec {
                        hybrid: true,
                        aging_column: Some(aging_column.clone()),
                    }),
                ),
            };
            let partition = match &e.kind {
                TableKindInfo::Distributed { partition } => Some(partition.clone()),
                _ => None,
            };
            self.create_table(CreateTable {
                name: e.name.clone(),
                kind,
                columns: specs,
                extended,
                partition,
            })?;
            if !e.rows.is_empty() {
                self.load_rows(session, &e.name, &e.rows)?;
            }
            if !e.indexes.is_empty() {
                let entry = self.catalog.table(&e.name)?;
                for ix in &e.indexes {
                    match &entry.source {
                        TableSource::Column(t) => t.write().create_index(&ix.name, &ix.columns)?,
                        TableSource::Hybrid { hot, .. } => {
                            hot.write().create_index(&ix.name, &ix.columns)?
                        }
                        _ => {}
                    }
                }
            }
            if !e.cold_rows.is_empty() {
                // Straight into the cold partition.
                let entry = self.catalog.table(&e.name)?;
                if let TableSource::Hybrid { cold_table, .. } = &entry.source {
                    let txn = self.tm.begin();
                    self.iq
                        .buffer_insert(txn.tid, cold_table, e.cold_rows.clone())?;
                    self.tm.commit(txn, &self.participants())?;
                }
            }
        }
        Ok(())
    }

    /// Rebuild a platform by replaying the WAL at `path` up to
    /// `upto_cid` (`None` = everything) — logical point-in-time
    /// recovery. Returns the platform and the number of replayed
    /// statements.
    pub fn recover_replay(path: &Path, upto_cid: Option<u64>) -> Result<(HanaPlatform, usize)> {
        let wal = hana_txn::Wal::with_file(path)?;
        let report = match upto_cid {
            Some(cid) => wal.recover_to(cid),
            None => wal.recover(),
        };
        let committed: HashMap<u64, u64> = report.committed.iter().copied().collect();
        let platform = HanaPlatform::new_in_memory();
        let session = platform.connect("SYSTEM", "manager")?;
        let replayed = platform.replay_records(&session, &wal, &committed, 0)?;
        Ok((platform, replayed))
    }

    /// Re-apply the committed records of `wal` whose commit IDs are
    /// greater than `after_cid` — the "roll forward from a backup" half
    /// of point-in-time recovery: restore a [`Backup`], then replay the
    /// log after [`Backup::cid`]. When `wal` is the platform's own log
    /// the replay runs in passive mode so nothing is logged twice.
    pub fn replay_wal_after(
        &self,
        session: &Session,
        wal: &hana_txn::Wal,
        after_cid: u64,
    ) -> Result<usize> {
        self.security.check(session, Privilege::Operate)?;
        let report = wal.recover();
        let committed: HashMap<u64, u64> = report.committed.iter().copied().collect();
        let own = Arc::clone(self.tm.wal());
        let replaying_own_log = std::ptr::eq(own.as_ref(), wal as *const _);
        if replaying_own_log {
            own.set_passive(true);
        }
        let result = self.replay_records(session, wal, &committed, after_cid);
        if replaying_own_log {
            own.set_passive(false);
        }
        result
    }

    /// Shared redo loop: walk `wal`'s data records, keep those of
    /// committed transactions past `after_cid`, and re-apply each
    /// through the normal execution path (bulk loads through
    /// [`load_rows`](Self::load_rows), distributed-load markers through
    /// partition-log redo, everything else as SQL).
    fn replay_records(
        &self,
        session: &Session,
        wal: &hana_txn::Wal,
        committed: &HashMap<u64, u64>,
        after_cid: u64,
    ) -> Result<usize> {
        let mut replayed = 0usize;
        for rec in wal.records() {
            let hana_txn::LogRecord::Data { tid, payload, .. } = rec else {
                continue;
            };
            let Some(&cid) = committed.get(&tid) else {
                continue;
            };
            if cid <= after_cid {
                continue;
            }
            if let Some(table) = payload.strip_prefix(DIST_LOAD_MARKER) {
                // The coordinator log only holds a marker; the rows live
                // in the table's per-partition logs. Allocate a fresh
                // commit ID for the redone rows, then pull them in.
                let entry = self.catalog.table(table)?;
                let TableSource::Distributed(dt) = &entry.source else {
                    return Err(HanaError::Io(format!(
                        "DISTLOAD record for non-distributed table '{table}'"
                    )));
                };
                let txn = self.tm.begin();
                let receipt = self.tm.commit(txn, &[])?;
                dt.redo_txn(tid, receipt.cid)?;
                self.refresh_statistics(table)?;
            } else if let Some(rest) = payload.strip_prefix(INGEST_DIST_MARKER) {
                // Distributed ingest epoch: rows live in the partition
                // logs. Replay through the ledger so an epoch that is
                // already inside the restored checkpoint (or appears
                // twice in the log) applies exactly once.
                let (pipeline, epoch, table) = parse_ingest_header(rest)?;
                let _fence = self.ingest.fence();
                if epoch <= self.ingest.last_epoch(pipeline) {
                    hana_obs::registry()
                        .counter("hana_ingest_epochs_deduped_total")
                        .inc();
                    continue;
                }
                let entry = self.catalog.table(table)?;
                let TableSource::Distributed(dt) = &entry.source else {
                    return Err(HanaError::Io(format!(
                        "INGESTD record for non-distributed table '{table}'"
                    )));
                };
                let txn = self.tm.begin();
                let receipt = self.tm.commit(txn, &[])?;
                dt.redo_txn(tid, receipt.cid)?;
                self.ingest.note(pipeline, epoch);
                hana_obs::registry()
                    .counter("hana_ingest_epochs_replayed_total")
                    .inc();
            } else if let Some(rest) = payload.strip_prefix(INGEST_MARKER) {
                let (pipeline, epoch, rest) = {
                    let mut parts = rest.splitn(4, '\u{1}');
                    let (Some(p), Some(e), Some(t), Some(rows_text)) =
                        (parts.next(), parts.next(), parts.next(), parts.next())
                    else {
                        return Err(HanaError::Io("corrupt INGEST record".into()));
                    };
                    let epoch: u64 = e
                        .parse()
                        .map_err(|_| HanaError::Io("corrupt INGEST epoch".into()))?;
                    (p, epoch, (t, rows_text))
                };
                let (table, rows_text) = rest;
                let schema = self.catalog.table(table)?.source.schema();
                let rows: Vec<Row> = rows_text
                    .split(ROW_SEP)
                    .filter(|s| !s.is_empty())
                    .map(|line| parse_load_row(line, &schema))
                    .collect::<Result<_>>()?;
                // The normal commit path dedups against the ledger and,
                // with the WAL passive, logs nothing a second time.
                match self.commit_ingest_batch(session, pipeline, epoch, table, &rows)? {
                    IngestCommit::Committed { .. } => {
                        hana_obs::registry()
                            .counter("hana_ingest_epochs_replayed_total")
                            .inc();
                    }
                    IngestCommit::Deduplicated { .. } => continue,
                }
            } else if payload.starts_with("--") {
                continue; // structural marker, nothing to redo
            } else if let Some(rest) = payload.strip_prefix("LOAD\u{1}") {
                let (table, rows_text) = rest
                    .split_once('\u{1}')
                    .ok_or_else(|| HanaError::Io("corrupt LOAD record".into()))?;
                let schema = self.catalog.table(table)?.source.schema();
                let rows: Vec<Row> = rows_text
                    .split(ROW_SEP)
                    .filter(|s| !s.is_empty())
                    .map(|line| parse_load_row(line, &schema))
                    .collect::<Result<_>>()?;
                self.load_rows(session, table, &rows)?;
            } else {
                self.execute_sql(session, &payload)?;
            }
            replayed += 1;
        }
        Ok(replayed)
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

/// Resolve matching row IDs of a column table at statement time.
fn matching_column_rows(
    table: &ColumnTable,
    filter: Option<&Expr>,
    cid: u64,
) -> Result<Vec<usize>> {
    let schema = table.schema().clone();
    let visible = table.visible(cid);
    let mut out = Vec::new();
    for row_id in visible.iter() {
        let row = Row::from_values((0..schema.len()).map(|c| table.value(row_id, c)));
        let keep = match filter {
            None => true,
            Some(f) => evaluate_predicate(f, &schema, &row)?,
        };
        if keep {
            out.push(row_id);
        }
    }
    Ok(out)
}

/// Translate the parsed `PARTITION BY` clause into a runtime spec.
fn partition_spec(p: &PartitionBy) -> hana_dist::PartitionSpec {
    match p {
        PartitionBy::Hash { column, partitions } => hana_dist::PartitionSpec::Hash {
            column: column.clone(),
            partitions: *partitions,
        },
        PartitionBy::Range {
            column,
            split_points,
        } => hana_dist::PartitionSpec::Range {
            column: column.clone(),
            split_points: split_points.clone(),
        },
    }
}

fn schema_from_specs(specs: &[ColumnSpec]) -> Result<Schema> {
    let cols: Vec<ColumnDef> = specs
        .iter()
        .map(|c| {
            Ok(ColumnDef {
                name: c.name.clone(),
                data_type: DataType::parse_sql(&c.type_name)?,
                nullable: !c.not_null && !c.primary_key,
            })
        })
        .collect::<Result<_>>()?;
    Schema::new(cols)
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

/// Split the `pipeline \u{1} epoch \u{1} table` header of an INGESTD
/// payload.
fn parse_ingest_header(rest: &str) -> Result<(&str, u64, &str)> {
    let mut parts = rest.splitn(3, '\u{1}');
    let (Some(pipeline), Some(epoch), Some(table)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HanaError::Io("corrupt INGESTD record".into()));
    };
    let epoch = epoch
        .parse()
        .map_err(|_| HanaError::Io("corrupt INGESTD epoch".into()))?;
    Ok((pipeline, epoch, table))
}

/// Delimit rows for a WAL payload (inverse of [`parse_load_row`]).
fn encode_rows(rows: &[Row]) -> String {
    rows.iter()
        .map(|r| r.to_delimited('\u{1f}'))
        .collect::<Vec<_>>()
        .join(&ROW_SEP.to_string())
}

fn parse_load_row(line: &str, schema: &Schema) -> Result<Row> {
    let fields: Vec<&str> = line.split('\u{1f}').collect();
    if fields.len() != schema.len() {
        return Err(HanaError::Io("corrupt LOAD row".into()));
    }
    let mut vals = Vec::with_capacity(fields.len());
    for (f, c) in fields.iter().zip(schema.columns()) {
        vals.push(Value::parse_typed(f, c.data_type)?);
    }
    Ok(Row(vals))
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
