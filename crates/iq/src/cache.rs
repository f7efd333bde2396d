//! LRU buffer cache over the page file.
//!
//! The extended storage "may rely on a more powerful I/O subsystem …
//! and usually requires less main memory" (§3.1): its working set lives
//! on disk and only a bounded number of pages are cached. The cache
//! counts hits and misses so experiments can attribute cost to disk I/O.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use hana_types::Result;

use crate::page::{PageFile, PageId};

/// A read-through, write-through LRU page cache.
///
/// Hit/miss totals are mirrored into the global observability
/// registry (`hana_iq_cache_hits_total`, `hana_iq_cache_misses_total`,
/// `hana_iq_pages_read_total`) so the platform snapshot can derive the
/// buffer-cache hit ratio without reaching into each engine.
pub struct BufferCache {
    file: Arc<PageFile>,
    capacity: usize,
    inner: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    obs_hits: Arc<hana_obs::Counter>,
    obs_misses: Arc<hana_obs::Counter>,
    obs_pages_read: Arc<hana_obs::Counter>,
}

#[derive(Default)]
struct Lru {
    /// page -> (data, last-use tick)
    map: HashMap<PageId, (Arc<Vec<u8>>, u64)>,
    tick: u64,
}

impl BufferCache {
    /// A cache of `capacity` pages over `file`.
    pub fn new(file: Arc<PageFile>, capacity: usize) -> BufferCache {
        let obs = hana_obs::registry();
        BufferCache {
            file,
            capacity: capacity.max(1),
            inner: Mutex::new(Lru::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            obs_hits: obs.counter("hana_iq_cache_hits_total"),
            obs_misses: obs.counter("hana_iq_cache_misses_total"),
            obs_pages_read: obs.counter("hana_iq_pages_read_total"),
        }
    }

    /// The underlying page file.
    pub fn file(&self) -> &Arc<PageFile> {
        &self.file
    }

    /// Fetch a page, reading from disk on a miss.
    pub fn get(&self, page: PageId) -> Result<Arc<Vec<u8>>> {
        {
            let mut lru = self.inner.lock();
            lru.tick += 1;
            let tick = lru.tick;
            if let Some((data, last)) = lru.map.get_mut(&page) {
                *last = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs_hits.inc();
                return Ok(Arc::clone(data));
            }
        }
        // Miss: read outside the lock, then insert.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs_misses.inc();
        self.obs_pages_read.inc();
        let data = Arc::new(self.file.read_page(page)?);
        self.insert(page, Arc::clone(&data));
        Ok(data)
    }

    /// Write a page through the cache to disk.
    pub fn put(&self, page: PageId, data: &[u8]) -> Result<()> {
        self.file.write_page(page, data)?;
        let mut padded = data.to_vec();
        padded.resize(crate::page::PAGE_SIZE, 0);
        self.insert(page, Arc::new(padded));
        Ok(())
    }

    /// Drop a page from the cache (e.g. after freeing it on disk).
    pub fn evict(&self, page: PageId) {
        self.inner.lock().map.remove(&page);
    }

    /// Drop every resident page, forcing the next reads back to disk
    /// (cold-start drills and cache-metric tests).
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }

    fn insert(&self, page: PageId, data: Arc<Vec<u8>>) {
        let mut lru = self.inner.lock();
        lru.tick += 1;
        let tick = lru.tick;
        lru.map.insert(page, (data, tick));
        while lru.map.len() > self.capacity {
            // Evict the least recently used entry.
            if let Some((&victim, _)) = lru.map.iter().min_by_key(|(_, (_, t))| *t) {
                lru.map.remove(&victim);
            } else {
                break;
            }
        }
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached pages.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(capacity: usize) -> BufferCache {
        let file = Arc::new(PageFile::temp("cache").unwrap());
        BufferCache::new(file, capacity)
    }

    #[test]
    fn read_through_and_hit() {
        let c = setup(4);
        let p = c.file().allocate();
        c.file().write_page(p, b"abc").unwrap();
        let d1 = c.get(p).unwrap();
        let d2 = c.get(p).unwrap();
        assert_eq!(&d1[..3], b"abc");
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(c.stats(), (1, 1));
        std::fs::remove_file(c.file().path()).ok();
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = setup(2);
        let pages: Vec<PageId> = (0..3).map(|_| c.file().allocate()).collect();
        for (i, &p) in pages.iter().enumerate() {
            c.file().write_page(p, &[i as u8]).unwrap();
        }
        c.get(pages[0]).unwrap();
        c.get(pages[1]).unwrap();
        c.get(pages[2]).unwrap(); // evicts pages[0]
        assert_eq!(c.resident_pages(), 2);
        c.get(pages[0]).unwrap(); // miss again
        assert_eq!(c.stats(), (0, 4));
        std::fs::remove_file(c.file().path()).ok();
    }

    #[test]
    fn write_through_populates_cache() {
        let c = setup(4);
        let p = c.file().allocate();
        c.put(p, b"xyz").unwrap();
        let d = c.get(p).unwrap();
        assert_eq!(&d[..3], b"xyz");
        assert_eq!(c.stats(), (1, 0), "write-through avoids the read miss");
        std::fs::remove_file(c.file().path()).ok();
    }
}
