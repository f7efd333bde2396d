//! Shared plan cache.
//!
//! A plan is cached under the key of its statement *shape* — the
//! shape's canonical text (the parser's AST rendered back, so formatting
//! differences collapse onto one entry, with compared literals lifted to
//! slots) plus the type of each value it runs with — together with the
//! catalog version it was compiled under. Any DDL — CREATE/DROP,
//! function registration, delta merge — bumps the version, and the next
//! lookup purges every stale entry, so a prepared statement re-prepares
//! transparently instead of executing a plan that references dropped
//! tables or stale cardinalities.
//!
//! Eviction is exact LRU in O(1): entries sit in a slab threaded as a
//! recency list, a hit moves its entry to the front, a full cache drops
//! the back. The mutex is held for the map and list operation only; the
//! instruments are resolved once, when the cache is built, and moved
//! after the lock is released.
//!
//! Counters in the global `hana-obs` registry:
//! `hana_session_plan_cache_{hits,misses,evictions,invalidations}_total`
//! and the `hana_session_plan_cache_entries` gauge. Those are shared by
//! every cache in the process; [`PlanCache::stats`] reads this cache's
//! own hit/miss counts.

use std::collections::HashMap;
use std::sync::Arc;

use hana_obs::{Counter, Gauge};
use hana_query::PlanNode;
use parking_lot::Mutex;

/// Default maximum number of cached plans.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 4096;

/// "No slot": the end of the recency list.
const NIL: usize = usize::MAX;

struct Slot {
    key: Arc<str>,
    plan: Arc<PlanNode>,
    version: u64,
    /// Neighbours in the recency list (towards the front / the back).
    newer: usize,
    older: usize,
}

struct CacheState {
    /// Key → position in `slots`.
    index: HashMap<Arc<str>, usize>,
    /// Entries, threaded most- to least-recently used from `front` to
    /// `back`; positions in `free` hold no entry.
    slots: Vec<Slot>,
    free: Vec<usize>,
    front: usize,
    back: usize,
    /// Newest catalog version any caller has presented; entries older
    /// than this are purged on the next lookup.
    seen_version: u64,
    /// Lookups this cache answered / could not answer.
    hits: u64,
    misses: u64,
}

impl CacheState {
    fn unlink(&mut self, i: usize) {
        let (newer, older) = (self.slots[i].newer, self.slots[i].older);
        match newer {
            NIL => self.front = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.back = newer,
            o => self.slots[o].newer = newer,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].newer = NIL;
        self.slots[i].older = self.front;
        match self.front {
            NIL => self.back = i,
            f => self.slots[f].newer = i,
        }
        self.front = i;
    }

    /// Drop the entry at `i` and free its slot.
    fn remove(&mut self, i: usize) {
        self.unlink(i);
        self.index.remove(&self.slots[i].key);
        self.free.push(i);
    }

    /// Drop every entry compiled under another version than `version`;
    /// returns how many.
    fn purge_stale(&mut self, version: u64) -> usize {
        let stale: Vec<usize> = self
            .index
            .values()
            .copied()
            .filter(|&i| self.slots[i].version != version)
            .collect();
        for &i in &stale {
            self.remove(i);
        }
        if self.index.is_empty() {
            // The usual case: a version bump strands every plan. Let
            // them go now, not when their slots are reused.
            self.slots.clear();
            self.free.clear();
        }
        stale.len()
    }
}

/// Shared, version-aware LRU plan cache.
pub struct PlanCache {
    capacity: usize,
    state: Mutex<CacheState>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
    entries: Arc<Gauge>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least one).
    pub fn new(capacity: usize) -> PlanCache {
        let obs = hana_obs::registry();
        PlanCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState {
                index: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                front: NIL,
                back: NIL,
                seen_version: 0,
                hits: 0,
                misses: 0,
            }),
            hits: obs.counter("hana_session_plan_cache_hits_total"),
            misses: obs.counter("hana_session_plan_cache_misses_total"),
            evictions: obs.counter("hana_session_plan_cache_evictions_total"),
            invalidations: obs.counter("hana_session_plan_cache_invalidations_total"),
            entries: obs.gauge("hana_session_plan_cache_entries"),
        }
    }

    /// Look up the plan cached for `key` under catalog version
    /// `version`. Seeing a newer version than any before purges all
    /// stale entries first (counted as invalidations, not evictions).
    pub fn get(&self, key: &str, version: u64) -> Option<Arc<PlanNode>> {
        let mut st = self.state.lock();
        let mut purged = 0;
        if version > st.seen_version {
            st.seen_version = version;
            purged = st.purge_stale(version);
        }
        let hit = match st.index.get(key).copied() {
            Some(i) if st.slots[i].version == version => {
                if st.front != i {
                    st.unlink(i);
                    st.push_front(i);
                }
                st.hits += 1;
                Some(Arc::clone(&st.slots[i].plan))
            }
            _ => {
                st.misses += 1;
                None
            }
        };
        let len = st.index.len();
        drop(st);
        if purged > 0 {
            self.invalidations.add(purged as u64);
        }
        match hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        self.entries.set(len as i64);
        hit
    }

    /// Insert a plan compiled under `version`. At capacity the
    /// least-recently-used entry is evicted.
    pub fn insert(&self, key: String, version: u64, plan: Arc<PlanNode>) {
        let mut st = self.state.lock();
        if version < st.seen_version {
            // Compiled against an already-superseded catalog: caching
            // it would resurrect a stale plan.
            return;
        }
        let mut evicted = false;
        match st.index.get(key.as_str()).copied() {
            Some(i) => {
                st.slots[i].plan = plan;
                st.slots[i].version = version;
                st.unlink(i);
                st.push_front(i);
            }
            None => {
                if st.index.len() >= self.capacity {
                    let lru = st.back;
                    st.remove(lru);
                    evicted = true;
                }
                let key: Arc<str> = key.into();
                let slot = Slot {
                    key: Arc::clone(&key),
                    plan,
                    version,
                    newer: NIL,
                    older: NIL,
                };
                let i = match st.free.pop() {
                    Some(i) => {
                        st.slots[i] = slot;
                        i
                    }
                    None => {
                        st.slots.push(slot);
                        st.slots.len() - 1
                    }
                };
                st.index.insert(key, i);
                st.push_front(i);
            }
        }
        let len = st.index.len();
        drop(st);
        if evicted {
            self.evictions.inc();
        }
        self.entries.set(len as i64);
    }

    /// `(hits, misses)` of this cache's lookups since it was created.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.hits, st.misses)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.state.lock().index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counted as invalidations).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        let n = st.index.len();
        st.index.clear();
        st.slots.clear();
        st.free.clear();
        st.front = NIL;
        st.back = NIL;
        drop(st);
        if n > 0 {
            self.invalidations.add(n as u64);
        }
        self.entries.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_query::PlanOp;
    use hana_types::Schema;
    use proptest::prelude::*;

    impl PlanCache {
        /// `(key, version)` of every entry, most recently used first.
        fn recency(&self) -> Vec<(String, u64)> {
            let st = self.state.lock();
            let mut out = Vec::new();
            let mut i = st.front;
            while i != NIL {
                out.push((st.slots[i].key.to_string(), st.slots[i].version));
                i = st.slots[i].older;
            }
            assert_eq!(out.len(), st.index.len(), "list and index agree");
            out
        }
    }

    /// The cache as one would write it without caring for speed: a
    /// vector in recency order, scanned.
    struct NaiveLru {
        capacity: usize,
        /// Most recently used first.
        entries: Vec<(String, u64, f64)>,
        seen_version: u64,
    }

    impl NaiveLru {
        fn get(&mut self, key: &str, version: u64) -> Option<f64> {
            if version > self.seen_version {
                self.seen_version = version;
                self.entries.retain(|e| e.1 == version);
            }
            let at = self
                .entries
                .iter()
                .position(|e| e.0 == key && e.1 == version)?;
            let hit = self.entries.remove(at);
            self.entries.insert(0, hit);
            Some(self.entries[0].2)
        }

        /// Returns the victim, if the insert evicted one.
        fn insert(&mut self, key: &str, version: u64, id: f64) -> Option<String> {
            if version < self.seen_version {
                return None;
            }
            let mut victim = None;
            match self.entries.iter().position(|e| e.0 == key) {
                Some(at) => {
                    self.entries.remove(at);
                }
                None if self.entries.len() >= self.capacity => {
                    victim = self.entries.pop().map(|e| e.0);
                }
                None => {}
            }
            self.entries.insert(0, (key.to_string(), version, id));
            victim
        }
    }

    proptest! {
        /// Random lookups, inserts and version bumps: the slab-and-list
        /// cache and the naive one give the same hits, evict the same
        /// victims and hold the same entries in the same recency order.
        #[test]
        fn behaves_like_a_naive_lru(
            capacity in 1usize..6,
            ops in prop::collection::vec((0u8..3, 0usize..8, 0u64..2), 1..200),
        ) {
            let cache = PlanCache::new(capacity);
            let mut model = NaiveLru { capacity, entries: Vec::new(), seen_version: 0 };
            let mut version = 1u64;
            let (mut hits, mut misses) = (0u64, 0u64);
            for (step, (op, key, lag)) in ops.into_iter().enumerate() {
                let key = format!("q{key}");
                // Mostly the current version, sometimes a stale caller.
                let v = version - lag.min(version - 1);
                match op {
                    0 => {
                        let got = cache.get(&key, v).map(|p| p.est_rows);
                        prop_assert_eq!(got, model.get(&key, v), "step {}", step);
                        match got {
                            Some(_) => hits += 1,
                            None => misses += 1,
                        }
                    }
                    1 => {
                        let before = cache.recency();
                        cache.insert(key.clone(), v, plan(step as f64));
                        let victim = model.insert(&key, v, step as f64);
                        let after = cache.recency();
                        let gone: Vec<&String> = before
                            .iter()
                            .map(|e| &e.0)
                            .filter(|k| !after.iter().any(|e| &e.0 == *k))
                            .collect();
                        prop_assert_eq!(gone, victim.iter().collect::<Vec<_>>(), "step {}", step);
                    }
                    _ => version += 1,
                }
                let want: Vec<(String, u64)> =
                    model.entries.iter().map(|e| (e.0.clone(), e.1)).collect();
                prop_assert_eq!(cache.recency(), want, "step {}", step);
                prop_assert_eq!(cache.len(), model.entries.len());
                prop_assert_eq!(cache.stats(), (hits, misses));
            }
        }
    }

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
