//! Sharded, internally synchronized LRU caches for the shared-read query
//! path.
//!
//! [`QueryEngine`](crate::plan::QueryEngine) memoizes one compiled entry
//! per query shape. Under the concurrent
//! [`EstimatorService`](crate::service::EstimatorService) many reader
//! threads consult that cache on every query, so a single global mutex
//! would serialize the whole read path. [`ShardedLru`] splits one logical
//! LRU into [`DEFAULT_SHARD_COUNT`] independent shards, each behind its
//! own mutex; a key's shard is chosen by hash, so concurrent lookups of
//! different keys contend only when they land on the same shard.
//!
//! Correctness note: the cache is *memoization* — a cached value is
//! bit-identical to the value recomputed from the immutable factors, so
//! shard-local eviction order and racing duplicate inserts can change
//! hit rates but never change an estimate. That is what keeps concurrent
//! estimates bit-identical to the serial engine (pinned by
//! `tests/concurrent_equivalence.rs`). All state, recency ticks included,
//! lives inside the shard mutexes.

use std::hash::{BuildHasher, Hash};
use std::sync::{Mutex, MutexGuard, PoisonError};

use dbhist_distribution::fxhash::{FxBuildHasher, FxHashMap};

/// Number of independent shards in a [`ShardedLru`]. Eight mutexes keep
/// contention negligible for the reader counts the service targets while
/// costing a few hundred bytes when idle.
pub const DEFAULT_SHARD_COUNT: usize = 8;

/// Minimum entries each shard retains. Small logical capacities would
/// otherwise give every shard capacity 1 and thrash whenever two hot keys
/// hash to the same shard; the floor trades a bounded retention overshoot
/// (at most `shards × floor` entries) for stable hit rates.
pub const MIN_SHARD_CAPACITY: usize = 4;

/// Locks `m`, recovering from poisoning: cache state is only ever
/// memoized derived data, so a panicking peer cannot leave it logically
/// corrupt.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small least-recently-used cache with O(1) lookups and O(capacity)
/// eviction scans (capacities here are a few hundred at most).
///
/// Single-threaded; [`ShardedLru`] wraps one per shard for concurrent
/// use.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, (u64, V)>,
    capacity: usize,
    tick: u64,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// Creates a cache retaining at most `capacity` entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { map: FxHashMap::default(), capacity: capacity.max(1), tick: 0 }
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Fetches `key`, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(stamp, v)| {
            *stamp = tick;
            &*v
        })
    }

    /// Inserts `key → value`, evicting the least-recently-used entry when
    /// a new key arrives at capacity (the capacity is fixed, so one
    /// eviction always makes room).
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) =
                // lint:allow-next-line(hash-iter-order): stamps are unique, so the min is order-independent; eviction never reaches estimates
                self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Applies `f` to every cached value in place (recency unchanged).
    pub fn for_each_value(&mut self, mut f: impl FnMut(&mut V)) {
        // lint:allow-next-line(hash-iter-order): each value is rewritten independently, so visit order cannot matter
        self.map.values_mut().for_each(|(_, v)| f(v));
    }
}

/// A sharded LRU cache callable from many threads through `&self`.
///
/// The logical capacity is split evenly across [`DEFAULT_SHARD_COUNT`]
/// shards (`ceil(capacity / shards)` each, floored at
/// [`MIN_SHARD_CAPACITY`], so the retained total can round up — an
/// approximation standard for sharded LRUs, where the bound matters at
/// large capacities and hit-rate stability at small ones).
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
    hasher: FxBuildHasher,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a cache with `capacity` total entries across
    /// [`DEFAULT_SHARD_COUNT`] shards.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(DEFAULT_SHARD_COUNT).max(MIN_SHARD_CAPACITY);
        Self {
            shards: (0..DEFAULT_SHARD_COUNT)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            hasher: FxBuildHasher::default(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<LruCache<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        // Length is the compile-time DEFAULT_SHARD_COUNT, so the modulo
        // index is always in range.
        &self.shards[h % self.shards.len()]
    }

    /// Fetches a clone of `key`'s value, refreshing its recency.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        lock(self.shard(key)).get(key).cloned()
    }

    /// Inserts `key → value` into its shard, evicting that shard's
    /// least-recently-used entry at capacity.
    pub fn insert(&self, key: K, value: V) {
        lock(self.shard(&key)).insert(key, value);
    }

    /// Applies `f` to every cached value in place, one shard lock at a
    /// time (recency unchanged).
    pub fn for_each_value(&self, mut f: impl FnMut(&mut V)) {
        for shard in &self.shards {
            lock(shard).for_each_value(&mut f);
        }
    }

    /// Total number of cached entries across shards. Each shard is
    /// counted under its own lock, so under concurrent mutation the sum
    /// has no global atomic cut.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// `true` when no shard holds an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).is_empty())
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Clone for ShardedLru<K, V> {
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.iter().map(|s| Mutex::new(lock(s).clone())).collect(),
            hasher: FxBuildHasher::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(&10)); // refresh 1
        cache.insert(3, 30); // evicts 2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(&10));
        assert_eq!(cache.get(&3), Some(&30));
        // Re-inserting an existing key must not evict.
        cache.insert(1, 11);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(&11));
    }

    #[test]
    fn sharded_round_trip() {
        let cache: ShardedLru<u32, String> = ShardedLru::new(16);
        assert!(cache.is_empty());
        for i in 0..10u32 {
            cache.insert(i, format!("v{i}"));
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.get(&3), Some("v3".to_string()));
        assert_eq!(cache.get(&99), None);
        cache.for_each_value(|v| v.push('!'));
        assert_eq!(cache.get(&3), Some("v3!".to_string()));
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn sharded_eviction_is_bounded_per_shard() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(DEFAULT_SHARD_COUNT);
        // Per-shard capacity is MIN_SHARD_CAPACITY; no shard may exceed
        // it, so the total stays ≤ shards × floor no matter how many
        // keys stream in.
        for i in 0..10_000u32 {
            cache.insert(i, i);
        }
        let bound = DEFAULT_SHARD_COUNT * MIN_SHARD_CAPACITY;
        assert!(cache.len() <= bound, "len {} exceeds {bound}", cache.len());
    }

    #[test]
    fn sharded_concurrent_smoke() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 500 + i) % 97;
                        cache.insert(k, k * 2);
                        if let Some(v) = cache.get(&k) {
                            assert_eq!(v, k * 2, "a cached value is never torn");
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 64 + DEFAULT_SHARD_COUNT);
    }

    #[test]
    fn clone_carries_entries() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(8);
        cache.insert(1, 10);
        let copy = cache.clone();
        assert_eq!(copy.get(&1), Some(10));
        copy.insert(2, 20);
        assert_eq!(cache.get(&2), None, "clones are independent");
    }
}
