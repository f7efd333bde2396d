//! The SDA registry: remote sources, virtual tables, virtual functions.
//!
//! Backs the DDL of §4.2/§4.3: `CREATE REMOTE SOURCE` registers an
//! adapter instance, `CREATE VIRTUAL TABLE` wraps a remote table so it
//! "can be referenced like tables or views in SAP HANA queries", and
//! `CREATE VIRTUAL FUNCTION` exposes a registered MR program as a table
//! function.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use hana_obs::{Counter, Histogram};
use hana_types::{HanaError, Result, ResultSet, Schema};

use crate::adapter::SdaAdapter;
use crate::breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use crate::cache::{CacheOutcome, RemoteCache, RemoteCacheConfig};
use crate::context::RemoteContext;
use crate::retry::run_with_retry;

/// A registered remote source.
#[derive(Clone)]
pub struct RemoteSource {
    /// Source name (from `CREATE REMOTE SOURCE`).
    pub name: String,
    /// The adapter instance.
    pub adapter: Arc<dyn SdaAdapter>,
    /// The raw configuration string.
    pub configuration: String,
    /// Credential payload, if any (single credential control, §2).
    pub credentials: Option<String>,
}

/// A virtual table: local name -> (source, remote table).
#[derive(Debug, Clone)]
pub struct VirtualTable {
    /// Local name.
    pub name: String,
    /// Remote source name.
    pub source: String,
    /// Table name at the remote source.
    pub remote_table: String,
    /// Cached remote schema.
    pub schema: Schema,
}

/// A virtual function: local name -> (source, configuration, schema).
#[derive(Debug, Clone)]
pub struct VirtualFunction {
    /// Local name.
    pub name: String,
    /// Remote source name.
    pub source: String,
    /// Configuration (driver class, jars, reducer count …).
    pub configuration: String,
    /// Declared output schema.
    pub schema: Schema,
}

/// Per-source resilience state: one circuit breaker, counters, and the
/// source's instruments in the global `hana-obs` registry, resolved
/// when the state is built.
struct SourceResilience {
    breaker: CircuitBreaker,
    retries: AtomicU64,
    stale_fallbacks: AtomicU64,
    /// `hana_sda_attempts_total_<source>`.
    attempts_total: Arc<Counter>,
    /// `hana_sda_retries_total_<source>`.
    retries_total: Arc<Counter>,
    /// `hana_sda_breaker_trips_total_<source>`.
    breaker_trips_total: Arc<Counter>,
    /// `hana_sda_breaker_rejections_total_<source>`.
    breaker_rejections_total: Arc<Counter>,
    /// `hana_sda_stale_fallbacks_total_<source>`.
    stale_fallbacks_total: Arc<Counter>,
    /// `hana_sda_roundtrip_ns_<source>`.
    roundtrip_ns: Arc<Histogram>,
}

impl SourceResilience {
    fn new(source: &str, breaker: BreakerConfig) -> SourceResilience {
        let obs = hana_obs::registry();
        let counter = |metric: &str| obs.counter(&format!("hana_sda_{metric}_total_{source}"));
        SourceResilience {
            breaker: CircuitBreaker::new(breaker),
            retries: AtomicU64::new(0),
            stale_fallbacks: AtomicU64::new(0),
            attempts_total: counter("attempts"),
            retries_total: counter("retries"),
            breaker_trips_total: counter("breaker_trips"),
            breaker_rejections_total: counter("breaker_rejections"),
            stale_fallbacks_total: counter("stale_fallbacks"),
            roundtrip_ns: obs.histogram(&format!("hana_sda_roundtrip_ns_{source}")),
        }
    }
}

/// Observable per-source resilience statistics
/// ([`SdaRegistry::source_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteSourceStats {
    /// Current breaker state.
    pub breaker_state: BreakerState,
    /// Breaker counters (successes, failures, rejections, transitions).
    pub breaker: BreakerStats,
    /// Retry attempts beyond the first, summed over all calls.
    pub retries: u64,
    /// Queries served from the stale local fallback store.
    pub stale_fallbacks: u64,
}

/// The registry owned by the platform.
pub struct SdaRegistry {
    sources: RwLock<HashMap<String, RemoteSource>>,
    virtual_tables: RwLock<HashMap<String, VirtualTable>>,
    virtual_functions: RwLock<HashMap<String, VirtualFunction>>,
    resilience: RwLock<HashMap<String, Arc<SourceResilience>>>,
    /// The remote materialization cache (shared across sources; keys
    /// include the host).
    pub cache: RemoteCache,
}

impl SdaRegistry {
    /// An empty registry with the default (disabled) cache config.
    pub fn new() -> SdaRegistry {
        SdaRegistry {
            sources: RwLock::new(HashMap::new()),
            virtual_tables: RwLock::new(HashMap::new()),
            virtual_functions: RwLock::new(HashMap::new()),
            resilience: RwLock::new(HashMap::new()),
            cache: RemoteCache::default(),
        }
    }

    /// Register a remote source.
    pub fn create_remote_source(
        &self,
        name: &str,
        adapter: Arc<dyn SdaAdapter>,
        configuration: &str,
        credentials: Option<&str>,
    ) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut sources = self.sources.write();
        if sources.contains_key(&key) {
            return Err(HanaError::Catalog(format!(
                "remote source '{name}' already exists"
            )));
        }
        sources.insert(
            key.clone(),
            RemoteSource {
                name: key,
                adapter,
                configuration: configuration.to_string(),
                credentials: credentials.map(|c| c.to_string()),
            },
        );
        Ok(())
    }

    /// Look up a remote source.
    pub fn source(&self, name: &str) -> Result<RemoteSource> {
        self.sources
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| HanaError::Catalog(format!("unknown remote source '{name}'")))
    }

    /// Registered source names.
    pub fn list_sources(&self) -> Vec<String> {
        let mut v: Vec<String> = self.sources.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Create a virtual table over `source_name`.`remote_table`,
    /// importing (and caching) the remote schema.
    pub fn create_virtual_table(
        &self,
        local_name: &str,
        source_name: &str,
        remote_table: &str,
    ) -> Result<()> {
        let source = self.source(source_name)?;
        let schema = source.adapter.remote_schema(remote_table)?;
        let key = local_name.to_ascii_lowercase();
        let mut vts = self.virtual_tables.write();
        if vts.contains_key(&key) {
            return Err(HanaError::Catalog(format!(
                "virtual table '{local_name}' already exists"
            )));
        }
        vts.insert(
            key.clone(),
            VirtualTable {
                name: key,
                source: source.name.clone(),
                remote_table: remote_table.to_string(),
                schema,
            },
        );
        Ok(())
    }

    /// Look up a virtual table by local name.
    pub fn virtual_table(&self, name: &str) -> Option<VirtualTable> {
        self.virtual_tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    /// Register a virtual function.
    pub fn create_virtual_function(
        &self,
        name: &str,
        source_name: &str,
        configuration: &str,
        schema: Schema,
    ) -> Result<()> {
        // Validate the source exists up front.
        let source = self.source(source_name)?;
        let key = name.to_ascii_lowercase();
        let mut vfs = self.virtual_functions.write();
        if vfs.contains_key(&key) {
            return Err(HanaError::Catalog(format!(
                "virtual function '{name}' already exists"
            )));
        }
        vfs.insert(
            key.clone(),
            VirtualFunction {
                name: key,
                source: source.name.clone(),
                configuration: configuration.to_string(),
                schema,
            },
        );
        Ok(())
    }

    /// Look up a virtual function by name.
    pub fn virtual_function(&self, name: &str) -> Option<VirtualFunction> {
        self.virtual_functions
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    /// Invoke a virtual function, validating the declared schema against
    /// what the job produced. MR invocations run under the same
    /// breaker/retry regime as remote queries.
    pub fn invoke_virtual_function(&self, name: &str) -> Result<ResultSet> {
        let vf = self
            .virtual_function(name)
            .ok_or_else(|| HanaError::Catalog(format!("unknown virtual function '{name}'")))?;
        let source = self.source(&vf.source)?;
        let res = self.resilience_for(&source.name);
        if !res.breaker.try_acquire() {
            return Err(self.breaker_open_error(&source.name, &res));
        }
        let ctx = RemoteContext::snapshot(0);
        let policy = self.cache.config().retry;
        let rs = self.with_breaker(&res, || {
            run_with_retry(&policy, &ctx, &format!("virtual function '{name}'"), |_| {
                source.adapter.invoke_function(&vf.configuration)
            })
        })?;
        res.retries
            .fetch_add(ctx.attempts().saturating_sub(1) as u64, Ordering::Relaxed);
        if rs.schema.len() != vf.schema.len() {
            return Err(HanaError::remote(format!(
                "virtual function '{name}' returned {} columns, declared {}",
                rs.schema.len(),
                vf.schema.len()
            )));
        }
        // Present rows under the *declared* schema (SDA applies the
        // data-type mapping).
        Ok(ResultSet::new(vf.schema.clone(), rs.rows))
    }

    /// Execute a query against a source through the remote cache, under
    /// the full resilience regime:
    ///
    /// 1. an **open circuit breaker** fails fast — the stale local
    ///    fallback is served if one exists, else a *non-retryable*
    ///    remote error returns immediately (never a hang);
    /// 2. otherwise the call runs with **retry** (the context's policy,
    ///    or the configured default) against the context's deadline,
    ///    every attempt feeding the breaker;
    /// 3. if the retry budget exhausts on a retryable error, the stale
    ///    fallback is tried before the error surfaces.
    pub fn execute_remote(
        &self,
        source_name: &str,
        q: &hana_sql::Query,
        ctx: &RemoteContext,
    ) -> Result<(ResultSet, CacheOutcome)> {
        let source = self.source(source_name)?;
        let res = self.resilience_for(&source.name);
        let span = hana_obs::span("sda_execute");
        let stale_fallback = || {
            let rs = self.cache.stale_lookup(q, source.adapter.host())?;
            res.stale_fallbacks.fetch_add(1, Ordering::Relaxed);
            res.stale_fallbacks_total.inc();
            span.attr("stale_fallback", 1);
            Some((rs, CacheOutcome::StaleFallback))
        };
        if !res.breaker.try_acquire() {
            res.breaker_rejections_total.inc();
            return stale_fallback().ok_or_else(|| self.breaker_open_error(&source.name, &res));
        }
        let policy = ctx.retry().copied().unwrap_or(self.cache.config().retry);
        let attempts_before = ctx.attempts();
        let opened_before = res.breaker.stats().opened;
        let started = std::time::Instant::now();
        let outcome = self.with_breaker(&res, || {
            run_with_retry(
                &policy,
                ctx,
                &format!("remote query on '{}'", source.name),
                |_| self.cache.execute(&source.adapter, q, ctx),
            )
        });
        // Per-source observability: attempt/retry/trip counters plus
        // the remote round-trip latency histogram.
        let attempts = (ctx.attempts() - attempts_before) as u64;
        let retries = attempts.saturating_sub(1);
        res.retries.fetch_add(retries, Ordering::Relaxed);
        res.roundtrip_ns.record(started.elapsed().as_nanos() as u64);
        res.attempts_total.add(attempts.max(1));
        res.retries_total.add(retries);
        res.breaker_trips_total
            .add(res.breaker.stats().opened - opened_before);
        span.attr("attempts", attempts.max(1));
        span.attr("retries", retries);
        match outcome {
            Ok((rs, cache_outcome)) => {
                span.set_rows(rs.rows.len() as u64);
                span.set_bytes(rs.approx_bytes());
                Ok((rs, cache_outcome))
            }
            Err(e) if e.is_retryable() => stale_fallback().ok_or(e),
            Err(e) => Err(e),
        }
    }

    /// Resilience statistics of one source (breaker state/counters,
    /// retries, stale fallbacks served).
    pub fn source_stats(&self, name: &str) -> Result<RemoteSourceStats> {
        // Validate the source exists even if it was never queried.
        let source = self.source(name)?;
        let res = self.resilience_for(&source.name);
        Ok(RemoteSourceStats {
            breaker_state: res.breaker.state(),
            breaker: res.breaker.stats(),
            retries: res.retries.load(Ordering::Relaxed),
            stale_fallbacks: res.stale_fallbacks.load(Ordering::Relaxed),
        })
    }

    /// Current breaker state of a source.
    pub fn breaker_state(&self, name: &str) -> Result<BreakerState> {
        Ok(self.source_stats(name)?.breaker_state)
    }

    /// Replace the adapter behind a registered source (keeps the
    /// configuration/credentials). Used to interpose wrappers such as
    /// [`crate::ChaosAdapter`].
    pub fn replace_adapter(&self, name: &str, adapter: Arc<dyn SdaAdapter>) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut sources = self.sources.write();
        let source = sources
            .get_mut(&key)
            .ok_or_else(|| HanaError::Catalog(format!("unknown remote source '{name}'")))?;
        source.adapter = adapter;
        Ok(())
    }

    /// Set the federation configuration. Per-source breakers are rebuilt
    /// so new thresholds take effect immediately.
    pub fn set_cache_config(&self, config: RemoteCacheConfig) {
        self.cache.set_config(config);
        self.resilience.write().clear();
    }

    fn resilience_for(&self, key: &str) -> Arc<SourceResilience> {
        if let Some(r) = self.resilience.read().get(key) {
            return Arc::clone(r);
        }
        let mut map = self.resilience.write();
        Arc::clone(
            map.entry(key.to_string()).or_insert_with(|| {
                Arc::new(SourceResilience::new(key, self.cache.config().breaker))
            }),
        )
    }

    /// Run `f`, feeding its outcome to the source's breaker: successes
    /// close the failure streak, retryable failures extend it. Permanent
    /// errors (bad SQL, schema mismatches) say nothing about source
    /// health and leave the breaker alone.
    fn with_breaker<T>(&self, res: &SourceResilience, f: impl FnOnce() -> Result<T>) -> Result<T> {
        match f() {
            Ok(v) => {
                res.breaker.record_success();
                Ok(v)
            }
            Err(e) => {
                if e.is_retryable() {
                    res.breaker.record_failure();
                }
                Err(e)
            }
        }
    }

    fn breaker_open_error(&self, name: &str, res: &SourceResilience) -> HanaError {
        HanaError::remote(format!(
            "circuit breaker open for remote source '{name}' — failing fast \
             ({} consecutive-failure threshold reached, {} rejections so far)",
            res.breaker.config().failure_threshold,
            res.breaker.stats().rejections,
        ))
    }
}

impl Default for SdaRegistry {
    fn default() -> Self {
        SdaRegistry::new()
    }
}
