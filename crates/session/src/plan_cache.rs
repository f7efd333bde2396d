//! Shared parse/plan cache.
//!
//! Plans are cached under their canonical SQL text (the parser's AST
//! rendered back to text, so formatting differences collapse onto one
//! entry) together with the catalog version they were compiled under.
//! Any DDL — CREATE/DROP, function registration, delta merge — bumps
//! the version, and the next lookup purges every stale entry, so a
//! prepared statement re-prepares transparently instead of executing a
//! plan that references dropped tables or stale cardinalities.
//!
//! Counters in the global `hana-obs` registry:
//! `hana_session_plan_cache_{hits,misses,evictions,invalidations}_total`
//! and the `hana_session_plan_cache_entries` gauge. Those are shared by
//! every cache in the process; [`PlanCache::stats`] reads this cache's
//! own hit/miss counts.

use std::collections::HashMap;
use std::sync::Arc;

use hana_query::PlanNode;
use parking_lot::Mutex;

/// Default maximum number of cached plans.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 4096;

struct CacheEntry {
    plan: Arc<PlanNode>,
    version: u64,
    last_used: u64,
}

struct CacheState {
    entries: HashMap<String, CacheEntry>,
    /// Newest catalog version any caller has presented; entries older
    /// than this are purged on the next lookup.
    seen_version: u64,
    /// Logical clock for LRU ordering.
    tick: u64,
    /// Lookups this cache answered / could not answer.
    hits: u64,
    misses: u64,
}

/// Shared, version-aware LRU plan cache.
pub struct PlanCache {
    capacity: usize,
    state: Mutex<CacheState>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least one).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                seen_version: 0,
                tick: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Look up the plan cached for `key` under catalog version
    /// `version`. Seeing a newer version than any before purges all
    /// stale entries first (counted as invalidations, not evictions).
    pub fn get(&self, key: &str, version: u64) -> Option<Arc<PlanNode>> {
        let obs = hana_obs::registry();
        let mut st = self.state.lock();
        if version > st.seen_version {
            st.seen_version = version;
            let before = st.entries.len();
            st.entries.retain(|_, e| e.version == version);
            let purged = before - st.entries.len();
            if purged > 0 {
                obs.counter("hana_session_plan_cache_invalidations_total")
                    .add(purged as u64);
            }
        }
        st.tick += 1;
        let tick = st.tick;
        let hit = match st.entries.get_mut(key) {
            Some(e) if e.version == version => {
                e.last_used = tick;
                Some(Arc::clone(&e.plan))
            }
            _ => None,
        };
        let outcome_counter = if hit.is_some() {
            st.hits += 1;
            "hana_session_plan_cache_hits_total"
        } else {
            st.misses += 1;
            "hana_session_plan_cache_misses_total"
        };
        obs.gauge("hana_session_plan_cache_entries")
            .set(st.entries.len() as i64);
        drop(st);
        obs.counter(outcome_counter).inc();
        hit
    }

    /// Insert a plan compiled under `version`. At capacity the
    /// least-recently-used entry is evicted.
    pub fn insert(&self, key: String, version: u64, plan: Arc<PlanNode>) {
        let obs = hana_obs::registry();
        let mut st = self.state.lock();
        if version < st.seen_version {
            // Compiled against an already-superseded catalog: caching
            // it would resurrect a stale plan.
            return;
        }
        st.tick += 1;
        let tick = st.tick;
        if st.entries.len() >= self.capacity && !st.entries.contains_key(&key) {
            if let Some(lru) = st
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                st.entries.remove(&lru);
                obs.counter("hana_session_plan_cache_evictions_total").inc();
            }
        }
        st.entries.insert(
            key,
            CacheEntry {
                plan,
                version,
                last_used: tick,
            },
        );
        obs.gauge("hana_session_plan_cache_entries")
            .set(st.entries.len() as i64);
    }

    /// `(hits, misses)` of this cache's lookups since it was created.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.hits, st.misses)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counted as invalidations).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        let n = st.entries.len();
        st.entries.clear();
        let obs = hana_obs::registry();
        if n > 0 {
            obs.counter("hana_session_plan_cache_invalidations_total")
                .add(n as u64);
        }
        obs.gauge("hana_session_plan_cache_entries").set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_query::PlanOp;
    use hana_types::Schema;

    fn plan(est: f64) -> Arc<PlanNode> {
        Arc::new(PlanNode {
            op: PlanOp::ColumnScan {
                binding: "t".into(),
                table: "t".into(),
                preds: Vec::new(),
            },
            schema: Schema::of(&[]),
            est_rows: est,
            est_source: hana_query::EstSource::Heuristic,
        })
    }

    /// A process-global counter: sibling tests move it too, so assert
    /// lower bounds on its deltas, never equality.
    fn counter(name: &str) -> u64 {
        hana_obs::registry().counter(name).get()
    }

    #[test]
    fn hit_after_insert_same_version() {
        let cache = PlanCache::new(8);
        assert!(cache.get("q1", 1).is_none());
        cache.insert("q1".into(), 1, plan(10.0));
        let hit = cache.get("q1", 1).expect("hit");
        assert_eq!(hit.est_rows, 10.0);
        assert_eq!(cache.stats(), (1, 1), "one miss, then one hit");
    }

    #[test]
    fn newer_version_purges_stale_entries() {
        let cache = PlanCache::new(8);
        cache.insert("q1".into(), 1, plan(10.0));
        cache.insert("q2".into(), 1, plan(20.0));
        let inv_before = counter("hana_session_plan_cache_invalidations_total");
        assert!(cache.get("q1", 2).is_none(), "stale entry must not hit");
        assert!(
            counter("hana_session_plan_cache_invalidations_total") >= inv_before + 2,
            "both version-1 entries purged"
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn stale_insert_is_refused() {
        let cache = PlanCache::new(8);
        // A lookup at version 5 moves the watermark...
        assert!(cache.get("q1", 5).is_none());
        // ...so a plan compiled under version 3 must not be cached.
        cache.insert("q1".into(), 3, plan(10.0));
        assert!(cache.get("q1", 5).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = PlanCache::new(2);
        cache.insert("a".into(), 1, plan(1.0));
        cache.insert("b".into(), 1, plan(2.0));
        // Touch "a" so "b" is the LRU.
        assert!(cache.get("a", 1).is_some());
        let ev_before = counter("hana_session_plan_cache_evictions_total");
        cache.insert("c".into(), 1, plan(3.0));
        assert!(counter("hana_session_plan_cache_evictions_total") > ev_before);
        assert!(cache.get("a", 1).is_some(), "recently used survives");
        assert!(cache.get("b", 1).is_none(), "LRU evicted");
        assert!(cache.get("c", 1).is_some());
    }
}
