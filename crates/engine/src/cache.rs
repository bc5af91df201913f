//! Content-addressed memoization of datasets and releases.
//!
//! The cache maps content fingerprints (see [`crate::fingerprint`]) to the
//! expensive artifacts of a sweep: synthesized [`Dataset`]s and anonymized
//! releases. Because the engine derives per-job seeds from the same
//! fingerprints, a cached release is bit-for-bit what a fresh computation
//! would produce — memoization never changes results, only wall-clock.
//!
//! # Bounded operation
//!
//! A long-lived process (the `anoncmp-serve` daemon) cannot let the cache
//! grow without bound: every distinct release a client ever asked for
//! would stay resident forever. The release and property-vector maps are
//! therefore [`LruCache`]s — capacity-bounded, least-recently-used
//! eviction, O(1) per operation. Capacity `0` (the default) means
//! unbounded, which preserves the exact batch-sweep behavior the
//! experiments and benches rely on. Eviction never changes results: an
//! evicted release is recomputed from its spec with the same derived seed,
//! so the recomputation is bit-identical to the evicted entry.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use anoncmp_core::prelude::PropertyVector;
use anoncmp_microdata::numeric::Release;
use anoncmp_microdata::parallel::lock;
use anoncmp_microdata::prelude::Dataset;
use serde::Serialize;

/// Hit/miss counters of a [`MemoCache`], as exposed in sweep reports.
///
/// Counters cover *release* lookups only; dataset materialization is an
/// implementation detail and not part of the reported statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CacheStats {
    /// Release lookups served from the cache.
    pub hits: u64,
    /// Release lookups that had to compute.
    pub misses: u64,
    /// Releases currently stored.
    pub entries: u64,
    /// Releases evicted to stay within the configured capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Difference from an earlier snapshot — the activity of one sweep.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        // The counters only grow; saturating keeps a misordered pair of
        // snapshots from panicking.
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

const NIL: usize = usize::MAX;

/// One slab slot of an [`LruCache`]: a key/value pair threaded into the
/// recency list.
#[derive(Debug)]
struct LruEntry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A capacity-bounded map with least-recently-used eviction.
///
/// Entries live in a slab (`Vec`) threaded into an intrusive doubly-linked
/// recency list; the index map points at slab slots. Every operation —
/// lookup (which refreshes recency), insert, evict — is O(1). Capacity `0`
/// means unbounded.
///
/// This is the eviction policy behind [`MemoCache`]'s release and vector
/// maps; it is generic so tests (and future cache layers) can exercise it
/// directly.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<LruEntry<K, V>>,
    free: Vec<usize>,
    /// Most recently used entry, `NIL` when empty.
    head: usize,
    /// Least recently used entry, `NIL` when empty.
    tail: usize,
    capacity: usize,
    evictions: u64,
}

impl<K: Copy + Eq + Hash, V: Clone> LruCache<K, V> {
    /// An empty cache. `capacity == 0` means unbounded.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            evictions: 0,
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Changes the capacity, evicting least-recently-used entries if the
    /// cache currently exceeds the new bound.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if capacity > 0 {
            while self.map.len() > capacity {
                self.evict_lru();
            }
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(self.slab[idx].value.clone())
    }

    /// Inserts `key → value` unless present, returning the stored value
    /// (the existing one on a double-insert, so every holder sees the same
    /// `Arc`). Refreshes the entry's recency either way, evicting the
    /// least-recently-used entry when a fresh insert exceeds capacity.
    pub fn get_or_insert(&mut self, key: K, value: V) -> V {
        if let Some(&idx) = self.map.get(&key) {
            self.touch(idx);
            return self.slab[idx].value.clone();
        }
        if self.capacity > 0 && self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = LruEntry {
                    key,
                    value: value.clone(),
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slab.push(LruEntry {
                    key,
                    value: value.clone(),
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        value
    }

    /// Drops every entry (capacity and the eviction counter are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Moves `idx` to the front (most recently used) of the recency list.
    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slab[h].prev = idx,
        }
        self.head = idx;
    }

    fn evict_lru(&mut self) {
        let idx = self.tail;
        if idx == NIL {
            return;
        }
        self.unlink(idx);
        let key = self.slab[idx].key;
        self.map.remove(&key);
        self.free.push(idx);
        self.evictions += 1;
    }
}

/// Thread-safe memoization cache shared by all workers of an [`Engine`].
///
/// [`Engine`]: crate::engine::Engine
#[derive(Debug)]
pub struct MemoCache {
    releases: Mutex<LruCache<u64, Arc<Release>>>,
    datasets: Mutex<HashMap<u64, Arc<Dataset>>>,
    /// Extracted property vectors, keyed by (release *content* digest,
    /// property tag). Content addressing means a vector computed for one
    /// job serves every job whose release has the same cells — whatever
    /// algorithm or parameters produced it.
    vectors: Mutex<LruCache<(u64, &'static str), Arc<PropertyVector>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    vector_hits: AtomicU64,
    vector_misses: AtomicU64,
}

impl Default for MemoCache {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        MemoCache {
            releases: Mutex::new(LruCache::new(0)),
            datasets: Mutex::new(HashMap::new()),
            vectors: Mutex::new(LruCache::new(0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            vector_hits: AtomicU64::new(0),
            vector_misses: AtomicU64::new(0),
        }
    }

    /// Bounds the release and vector maps (`0` = unbounded), evicting
    /// least-recently-used entries immediately if either already exceeds
    /// its new capacity.
    pub fn set_capacity(&self, releases: usize, vectors: usize) {
        lock(&self.releases).set_capacity(releases);
        lock(&self.vectors).set_capacity(vectors);
    }

    /// Looks up a release (either family) by fingerprint, counting a hit
    /// or miss.
    pub fn get_release(&self, fingerprint: u64) -> Option<Arc<Release>> {
        let found = lock(&self.releases).get(&fingerprint);
        match found {
            Some(t) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(t)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a computed release. Keeps the existing entry on a racing
    /// double-insert so every holder sees the same `Arc`.
    pub fn insert_release(&self, fingerprint: u64, release: Arc<Release>) -> Arc<Release> {
        lock(&self.releases).get_or_insert(fingerprint, release)
    }

    /// Materializes a dataset through the cache: synthesizes via `build`
    /// only if no other job has already done so.
    pub fn dataset_or_insert_with(
        &self,
        fingerprint: u64,
        build: impl FnOnce() -> Arc<Dataset>,
    ) -> Arc<Dataset> {
        if let Some(ds) = lock(&self.datasets).get(&fingerprint).cloned() {
            return ds;
        }
        // Synthesize outside the lock; racing builders produce identical
        // datasets, and the entry API keeps whichever landed first.
        let built = build();
        lock(&self.datasets)
            .entry(fingerprint)
            .or_insert(built)
            .clone()
    }

    /// Looks up an extracted property vector by release content digest and
    /// property tag, counting a vector-cache hit or miss.
    pub fn get_vector(&self, digest: u64, tag: &'static str) -> Option<Arc<PropertyVector>> {
        let found = lock(&self.vectors).get(&(digest, tag));
        match found {
            Some(v) => {
                self.vector_hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.vector_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an extracted property vector. Keeps the existing entry on a
    /// racing double-insert so every holder sees the same `Arc`.
    pub fn insert_vector(
        &self,
        digest: u64,
        tag: &'static str,
        vector: Arc<PropertyVector>,
    ) -> Arc<PropertyVector> {
        lock(&self.vectors).get_or_insert((digest, tag), vector)
    }

    /// Vector-cache `(hits, misses)`. Scheduling-dependent — two workers
    /// racing on same-content releases can both miss — so these counters
    /// stay out of [`CacheStats`] and every determinism-compared report.
    pub fn vector_stats(&self) -> (u64, u64) {
        (
            self.vector_hits.load(Ordering::Relaxed),
            self.vector_misses.load(Ordering::Relaxed),
        )
    }

    /// Property vectors evicted to stay within the vector-map capacity.
    pub fn vector_evictions(&self) -> u64 {
        lock(&self.vectors).evictions()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let releases = lock(&self.releases);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: releases.len() as u64,
            evictions: releases.evictions(),
        }
    }

    /// Drops cached releases but keeps materialized datasets, extracted
    /// vectors (content-addressed, so still valid), and the counters.
    /// Benchmarks use this to re-measure anonymization cost without paying
    /// dataset synthesis on every iteration.
    pub fn clear_releases(&self) {
        lock(&self.releases).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Arc<Dataset> {
        crate::job::DatasetSpec::Census {
            rows: 30,
            seed: 3,
            zip_pool: 5,
        }
        .materialize()
    }

    #[test]
    fn counts_hits_and_misses() {
        let cache = MemoCache::new();
        assert!(cache.get_release(42).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 0));

        let ds = tiny_dataset();
        let table = anoncmp_anonymize::prelude::Anonymizer::anonymize(
            &anoncmp_anonymize::prelude::Datafly,
            &ds,
            &anoncmp_anonymize::prelude::Constraint::k_anonymity(2).with_suppression(3),
        )
        .expect("datafly on tiny census");
        cache.insert_release(42, Arc::new(Release::Generalized(table)));
        assert!(cache.get_release(42).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        let delta = stats.since(&CacheStats {
            hits: 0,
            misses: 1,
            entries: 0,
            evictions: 0,
        });
        assert_eq!((delta.hits, delta.misses), (1, 0));
    }

    #[test]
    fn dataset_memoization_returns_shared_arc() {
        let cache = MemoCache::new();
        let a = cache.dataset_or_insert_with(7, tiny_dataset);
        let b = cache.dataset_or_insert_with(7, || panic!("must not rebuild a cached dataset"));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut lru: LruCache<u64, u64> = LruCache::new(3);
        for k in 1..=3u64 {
            lru.get_or_insert(k, k * 10);
        }
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(lru.get(&1), Some(10));
        lru.get_or_insert(4, 40);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.get(&2), None, "least recently used entry evicted");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.get(&4), Some(40));
    }

    #[test]
    fn lru_double_insert_keeps_first_value_and_refreshes_recency() {
        let mut lru: LruCache<u64, u64> = LruCache::new(2);
        lru.get_or_insert(1, 100);
        lru.get_or_insert(2, 200);
        // Double-insert of 1: value kept, recency refreshed → 2 is LRU.
        assert_eq!(lru.get_or_insert(1, 999), 100);
        lru.get_or_insert(3, 300);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(100));
    }

    #[test]
    fn lru_unbounded_never_evicts() {
        let mut lru: LruCache<u64, u64> = LruCache::new(0);
        for k in 0..10_000u64 {
            lru.get_or_insert(k, k);
        }
        assert_eq!(lru.len(), 10_000);
        assert_eq!(lru.evictions(), 0);
    }

    #[test]
    fn lru_capacity_shrink_evicts_down() {
        let mut lru: LruCache<u64, u64> = LruCache::new(0);
        for k in 0..8u64 {
            lru.get_or_insert(k, k);
        }
        lru.set_capacity(3);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.evictions(), 5);
        // The three most recently inserted survive.
        for k in 5..8u64 {
            assert_eq!(lru.get(&k), Some(k));
        }
    }

    #[test]
    fn lru_slab_slots_are_reused() {
        let mut lru: LruCache<u64, u64> = LruCache::new(2);
        for k in 0..100u64 {
            lru.get_or_insert(k, k);
        }
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions(), 98);
        assert!(
            lru.slab.len() <= 3,
            "evicted slots recycled through the free list"
        );
    }

    #[test]
    fn bounded_release_cache_recomputes_after_eviction() {
        let cache = MemoCache::new();
        cache.set_capacity(1, 0);
        let ds = tiny_dataset();
        let table = Arc::new(Release::Generalized(
            anoncmp_anonymize::prelude::Anonymizer::anonymize(
                &anoncmp_anonymize::prelude::Datafly,
                &ds,
                &anoncmp_anonymize::prelude::Constraint::k_anonymity(2).with_suppression(3),
            )
            .expect("datafly on tiny census"),
        ));
        cache.insert_release(1, table.clone());
        cache.insert_release(2, table);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert!(cache.get_release(1).is_none(), "entry 1 was evicted");
        assert!(cache.get_release(2).is_some());
    }
}
