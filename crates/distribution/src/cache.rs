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
//! Each computation counts packed codes and sums `f·ln f` over the ordered
//! counts, without materializing the marginal as a [`Distribution`], and
//! is bit-identical to [`Relation::marginal_entropy`]. The cache counts
//! through a [`Columns`] copy of the relation, so each marginal reads only
//! its own attributes' byte columns. That keeps the cost of each
//! calculation low as well as their number. A synopsis build lends the
//! cache the [`Columns`] it later counts the clique marginals from
//! ([`EntropyCache::with_columns`]).
//!
//! Selection's first round scores every pair of attributes, and a pair's
//! table already holds both attributes' own counts. Before that round,
//! [`EntropyCache::count_pairs`] counts each pair once
//! ([`Columns::pair_entropies`]) and keeps the entropies aside. Each set
//! counted that way is one computation, and its first read is neither a
//! computation nor a hit, so once the round has read them the counters
//! are what counting each set on its first read gives.
//!
//! [`Distribution`]: crate::Distribution

use std::borrow::Cow;

use crate::attr::AttrSet;
use crate::count::Columns;
use crate::fxhash::FxHashMap;
use crate::relation::Relation;

/// Memoizes `E(f_S)` for attribute subsets `S` of a fixed relation.
#[derive(Debug)]
pub struct EntropyCache<'a> {
    columns: Cow<'a, Columns<'a>>,
    entropies: FxHashMap<AttrSet, f64>,
    /// Entropies counted, and counted as computations, ahead of their
    /// first read ([`EntropyCache::count_pairs`]).
    counted: FxHashMap<AttrSet, f64>,
    computed: usize,
    hits: usize,
}

impl<'a> EntropyCache<'a> {
    /// Creates an empty cache over `relation`, with a [`Columns`] copy of
    /// its own.
    #[must_use]
    pub fn new(relation: &'a Relation) -> Self {
        Self::over(Cow::Owned(Columns::new(relation)))
    }

    /// Creates an empty cache that counts from `columns`.
    #[must_use]
    pub fn with_columns(columns: &'a Columns<'a>) -> Self {
        Self::over(Cow::Borrowed(columns))
    }

    fn over(columns: Cow<'a, Columns<'a>>) -> Self {
        Self {
            columns,
            entropies: FxHashMap::default(),
            counted: FxHashMap::default(),
            computed: 0,
            hits: 0,
        }
    }

    /// Counts every pair of attributes once, ahead of a selection round
    /// that reads them all, together with each attribute's own entropy
    /// from the first pair table that holds it ([`Columns::pair_entropies`]).
    /// Each such set not cached yet is one computation now, and its first
    /// read is neither a computation nor a hit. A relation without byte
    /// columns counts nothing here: its sets are counted on first read.
    pub fn count_pairs(&mut self) {
        for (attrs, h) in self.columns.pair_entropies() {
            if !self.entropies.contains_key(&attrs) && self.counted.insert(attrs, h).is_none() {
                self.computed += 1;
            }
        }
    }

    /// The relation the cache computes entropies from.
    #[must_use]
    pub fn relation(&self) -> &'a Relation {
        self.columns.relation()
    }

    /// Entropy `E(f_S)` of the marginal over `attrs`, computing and caching
    /// it on first access. The empty set has entropy `0`, and so does a
    /// subset outside the relation's schema (callers only query schema
    /// attributes; a corrupt query contributes zero entropy rather than
    /// aborting selection).
    pub fn entropy(&mut self, attrs: &AttrSet) -> f64 {
        if let Some(&h) = self.entropies.get(attrs) {
            self.hits += 1;
            return h;
        }
        let h = if let Some(h) = self.counted.remove(attrs) {
            h
        } else {
            self.computed += 1;
            if attrs.is_empty() {
                0.0
            } else {
                self.columns.marginal_entropy(attrs).unwrap_or(0.0)
            }
        };
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
            let direct = rel.marginal_entropy(&attrs).unwrap();
            assert_eq!(cache.entropy(&attrs).to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn empty_set_entropy_zero() {
        let rel = relation();
        let mut cache = EntropyCache::new(&rel);
        assert_eq!(cache.entropy(&AttrSet::empty()), 0.0);
        assert!(!cache.is_empty());
    }
}
