//! Memoized marginal entropies.
//!
//! Forward model selection (paper §3.1) scores every candidate interaction
//! edge `(u, v)` with separator `S` from four marginal entropies —
//! `E(S∪{u})`, `E(S∪{v})`, `E(S)`, `E(S∪{u,v})` — and the same subsets
//! recur across steps. [`EntropyCache`] computes each marginal entropy once
//! from the base relation and memoizes it by canonical [`AttrSet`] key. The
//! paper's full version highlights minimizing the *number of entropy
//! calculations* as the key cost lever of selection; the cache exposes a
//! counter so tests and benches can verify that optimization.
//!
//! Each computation is one [`Relation::marginal_entropy`] call: the rows'
//! packed codes are counted and `f·ln f` is summed over the ordered counts,
//! without materializing the marginal as a [`Distribution`]. That keeps
//! the cost of each calculation low as well as their number.
//!
//! [`Distribution`]: crate::Distribution

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::attr::AttrSet;
use crate::fxhash::FxHashMap;
use crate::relation::Relation;

/// `E(f_S)` for one subset, counted from the relation's rows: `0` for the
/// empty set, and `0` for a subset outside the schema (callers only query
/// schema attributes; a corrupt query contributes zero entropy rather than
/// aborting selection).
fn marginal_entropy(relation: &Relation, attrs: &AttrSet) -> f64 {
    if attrs.is_empty() {
        return 0.0;
    }
    relation.marginal_entropy(attrs).unwrap_or(0.0)
}

/// Memoizes `E(f_S)` for attribute subsets `S` of a fixed relation.
#[derive(Debug)]
pub struct EntropyCache<'a> {
    relation: &'a Relation,
    entropies: FxHashMap<AttrSet, f64>,
    computed: usize,
    hits: usize,
}

impl<'a> EntropyCache<'a> {
    /// Creates an empty cache over `relation`.
    #[must_use]
    pub fn new(relation: &'a Relation) -> Self {
        Self { relation, entropies: FxHashMap::default(), computed: 0, hits: 0 }
    }

    /// The relation the cache computes entropies from.
    #[must_use]
    pub fn relation(&self) -> &'a Relation {
        self.relation
    }

    /// Entropy `E(f_S)` of the marginal over `attrs`, computing and caching
    /// it on first access. A subset outside the relation's schema has
    /// entropy `0`.
    pub fn entropy(&mut self, attrs: &AttrSet) -> f64 {
        if let Some(&h) = self.entropies.get(attrs) {
            self.hits += 1;
            return h;
        }
        let h = marginal_entropy(self.relation, attrs);
        self.computed += 1;
        self.entropies.insert(attrs.clone(), h);
        h
    }

    /// Number of marginal entropies actually computed (cache misses).
    #[must_use]
    pub fn computations(&self) -> usize {
        self.computed
    }

    /// Number of [`EntropyCache::entropy`] calls answered from the cache.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of cached subsets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entropies.len()
    }

    /// `true` if nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entropies.is_empty()
    }
}

/// A thread-safe [`EntropyCache`]: memoizes `E(f_S)` behind a read-write
/// lock so that parallel forward selection can score candidate edges from
/// shared entropies.
///
/// Entropy is a pure function of `(relation, attrs)`, so concurrent
/// fills are benign: two threads that race on the same subset compute the
/// same `f64` bit-for-bit, and whichever insert lands second is a no-op.
/// The entropy *values* observed are therefore identical to the serial
/// cache's; only [`SyncEntropyCache::computations`] can exceed the serial
/// count when races duplicate work (parallel selection avoids even that by
/// pre-warming deduplicated subsets).
#[derive(Debug)]
pub struct SyncEntropyCache<'a> {
    relation: &'a Relation,
    entropies: RwLock<FxHashMap<AttrSet, f64>>,
    computed: AtomicUsize,
    hits: AtomicUsize,
}

fn read_entropies(
    lock: &RwLock<FxHashMap<AttrSet, f64>>,
) -> RwLockReadGuard<'_, FxHashMap<AttrSet, f64>> {
    // A poisoned lock only means another thread panicked mid-insert; the
    // map itself is always in a consistent state (single insert calls).
    lock.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_entropies(
    lock: &RwLock<FxHashMap<AttrSet, f64>>,
) -> RwLockWriteGuard<'_, FxHashMap<AttrSet, f64>> {
    lock.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<'a> SyncEntropyCache<'a> {
    /// Creates an empty cache over `relation`.
    #[must_use]
    pub fn new(relation: &'a Relation) -> Self {
        Self {
            relation,
            entropies: RwLock::new(FxHashMap::default()),
            computed: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }

    /// The relation the cache computes entropies from.
    #[must_use]
    pub fn relation(&self) -> &'a Relation {
        self.relation
    }

    /// Entropy `E(f_S)` of the marginal over `attrs`, computing and
    /// caching it on first access. Takes `&self`: safe to call from many
    /// threads at once.
    pub fn entropy(&self, attrs: &AttrSet) -> f64 {
        if let Some(&h) = read_entropies(&self.entropies).get(attrs) {
            // lint:allow-next-line(atomic-ordering): monotonic stat counter; crate layering puts this below the telemetry registry
            self.hits.fetch_add(1, Ordering::Relaxed);
            return h;
        }
        // Compute outside any lock; a racing thread computes the same value.
        let h = self.compute(attrs);
        write_entropies(&self.entropies).entry(attrs.clone()).or_insert(h);
        h
    }

    /// `true` if the subset's entropy is already cached.
    #[must_use]
    pub fn contains(&self, attrs: &AttrSet) -> bool {
        read_entropies(&self.entropies).get(attrs).is_some()
    }

    /// Computes the entropy without touching the cache map (still counts
    /// toward [`SyncEntropyCache::computations`]). Used by parallel
    /// pre-warming, which inserts results in a deterministic batch.
    pub fn compute(&self, attrs: &AttrSet) -> f64 {
        let h = marginal_entropy(self.relation, attrs);
        // lint:allow-next-line(atomic-ordering): monotonic stat counter; crate layering puts this below the telemetry registry
        self.computed.fetch_add(1, Ordering::Relaxed);
        h
    }

    /// Inserts a precomputed entropy (no-op if already present).
    pub fn insert(&self, attrs: AttrSet, entropy: f64) {
        write_entropies(&self.entropies).entry(attrs).or_insert(entropy);
    }

    /// Number of marginal entropies actually computed (cache misses).
    #[must_use]
    pub fn computations(&self) -> usize {
        // lint:allow-next-line(atomic-ordering): monotonic stat counter read; no ordering dependency with the cache map
        self.computed.load(Ordering::Relaxed)
    }

    /// Number of [`SyncEntropyCache::entropy`] calls answered from the
    /// cache (pure read hits; [`SyncEntropyCache::contains`] probes are
    /// not counted).
    #[must_use]
    pub fn hits(&self) -> usize {
        // lint:allow-next-line(atomic-ordering): monotonic stat counter read; no ordering dependency with the cache map
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cached subsets.
    #[must_use]
    pub fn len(&self) -> usize {
        read_entropies(&self.entropies).len()
    }

    /// `true` if nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        read_entropies(&self.entropies).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Schema;

    fn relation() -> Relation {
        let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 2)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..64u32).map(|i| vec![i % 4, (i / 4) % 4, i % 2]).collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn caches_and_counts() {
        let rel = relation();
        let mut cache = EntropyCache::new(&rel);
        let s = AttrSet::from_ids([0, 1]);
        let h1 = cache.entropy(&s);
        let h2 = cache.entropy(&s);
        assert_eq!(h1, h2);
        assert_eq!(cache.computations(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        cache.entropy(&AttrSet::singleton(2));
        assert_eq!(cache.computations(), 2);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn matches_direct_computation() {
        let rel = relation();
        let mut cache = EntropyCache::new(&rel);
        for attrs in
            [AttrSet::singleton(0), AttrSet::from_ids([0, 2]), AttrSet::from_ids([0, 1, 2])]
        {
            let direct = rel.marginal(&attrs).unwrap().entropy();
            assert!((cache.entropy(&attrs) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn sync_cache_matches_serial_cache() {
        let rel = relation();
        let mut serial = EntropyCache::new(&rel);
        let shared = SyncEntropyCache::new(&rel);
        let subsets = [
            AttrSet::empty(),
            AttrSet::singleton(1),
            AttrSet::from_ids([0, 1]),
            AttrSet::from_ids([0, 1, 2]),
        ];
        for attrs in &subsets {
            assert_eq!(serial.entropy(attrs).to_bits(), shared.entropy(attrs).to_bits());
        }
        assert_eq!(shared.computations(), serial.computations());
        assert_eq!(shared.len(), serial.len());
        assert!(shared.contains(&AttrSet::from_ids([0, 1])));
        assert!(!shared.contains(&AttrSet::singleton(0)));
        // Re-reads hit the cache.
        let hits_before = shared.hits();
        shared.entropy(&AttrSet::from_ids([0, 1]));
        assert_eq!(shared.computations(), serial.computations());
        assert_eq!(shared.hits(), hits_before + 1);
        // Prewarm path: compute + insert, then entropy() is a pure read.
        let s = AttrSet::from_ids([1, 2]);
        let h = shared.compute(&s);
        shared.insert(s.clone(), h);
        let before = shared.computations();
        assert_eq!(shared.entropy(&s).to_bits(), h.to_bits());
        assert_eq!(shared.computations(), before);
    }

    #[test]
    fn sync_cache_concurrent_reads_agree() {
        let rel = relation();
        let shared = SyncEntropyCache::new(&rel);
        let subsets: Vec<AttrSet> =
            vec![AttrSet::singleton(0), AttrSet::from_ids([0, 1]), AttrSet::from_ids([1, 2])];
        let baseline: Vec<u64> = subsets.iter().map(|s| shared.entropy(s).to_bits()).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (s, &bits) in subsets.iter().zip(&baseline) {
                        assert_eq!(shared.entropy(s).to_bits(), bits);
                    }
                });
            }
        });
        assert_eq!(shared.len(), subsets.len());
    }

    #[test]
    fn empty_set_entropy_zero() {
        let rel = relation();
        let mut cache = EntropyCache::new(&rel);
        assert_eq!(cache.entropy(&AttrSet::empty()), 0.0);
        assert!(!cache.is_empty());
    }
}
