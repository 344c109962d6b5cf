//! Data sets, query pools and the request feed: everything the program
//! under test receives is generated here.
//!
//! A pool is a fixed *sequence*: position `p` always has the same shape
//! (set of constrained attributes) whatever the seed, and clients serve
//! the positions in order. The first [`FIXED_QUERIES`] positions draw their
//! ranges from [`FIXED_SEED`]; every later position draws them from the
//! run's `--seed`.
//!
//! Query cost is set mostly by shape, and the slow workloads serve only a
//! prefix of their sequence in a window, so a fixed shape sequence gives
//! every seed the same work: on Census-2 at 20 KB, the first 40 to 120
//! queries of two seeds cost within 2% of each other, where a seeded shape
//! order drew a different subset of shapes (per-shape cost varies 0.8x its
//! mean) on every run.

use std::ops::RangeInclusive;
use std::sync::{Mutex, PoisonError};

use dbhist_core::Query;
use dbhist_data::census;
use dbhist_distribution::{AttrId, Relation};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's Census sizes (125,705×6 and 83,566×12).
    Paper,
    /// 4,000×6 and 3,000×12 rows, for the smoke test.
    Smoke,
}

impl Scale {
    /// Queries matching fewer base rows are redrawn (the paper's
    /// truncation rule is 100 at full size).
    pub fn min_count(self) -> f64 {
        match self {
            Scale::Paper => 100.0,
            Scale::Smoke => 10.0,
        }
    }
}

/// Census data set 1 (6 attributes), from the `dbhist-data` generator.
pub fn census1(scale: Scale) -> Relation {
    match scale {
        Scale::Paper => census::census_data_set_1(),
        Scale::Smoke => census::census_data_set_1_with(4_000, 0x2001_5161),
    }
}

/// Census data set 2 (12 attributes), from the `dbhist-data` generator.
pub fn census2(scale: Scale) -> Relation {
    match scale {
        Scale::Paper => census::census_data_set_2(),
        Scale::Smoke => census::census_data_set_2_with(3_000, 0x2001_5162),
    }
}

/// Seed of every input's fixed part: the shapes of every pool position,
/// the order of the positions, the ranges of the first [`FIXED_QUERIES`],
/// and the first cycle of the ingest stream. Like the data sets, these do
/// not depend on `--seed`, so `rel_error_mean` and `tune()`'s decisions
/// repeat exactly and move only when estimates do.
pub const FIXED_SEED: u64 = 0xACC0_2001;

/// Pool positions whose ranges come from [`FIXED_SEED`]: the paper's
/// 100-query workload size. They are the accuracy set `rel_error_mean` is
/// measured on.
pub const FIXED_QUERIES: usize = 100;

/// A pool query with its exact answer on the base relation.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    /// The range predicate sent to the service.
    pub query: Query,
    /// Base rows matching it.
    pub exact: f64,
}

/// How a pool chooses the shape of each position.
#[derive(Debug, Clone)]
pub enum Shapes {
    /// Every attribute subset whose size lies in `dims`, `per_shape`
    /// times each.
    Every { dims: RangeInclusive<usize>, per_shape: usize },
    /// `per_dim` random subsets of each size in `dims`, drawn as
    /// `dbhist-data`'s `Workload` draws them (repeats allowed).
    Random { dims: RangeInclusive<usize>, per_dim: usize },
}

/// Random draws per accepted query before a position falls back to
/// full-domain ranges.
const MAX_ATTEMPTS: usize = 500;

/// The shape of every position, in sequence order (independent of the
/// run's seed).
fn shape_sequence(arity: usize, shapes: &Shapes) -> Vec<Vec<AttrId>> {
    let mut rng = StdRng::seed_from_u64(FIXED_SEED);
    let mut out = Vec::new();
    match shapes {
        Shapes::Every { dims, per_shape } => {
            let all: Vec<Vec<AttrId>> = dims.clone().flat_map(|k| subsets(arity, k)).collect();
            for _ in 0..*per_shape {
                out.extend(all.iter().cloned());
            }
        }
        Shapes::Random { dims, per_dim } => {
            let attrs: Vec<AttrId> = (0..arity).filter_map(|a| AttrId::try_from(a).ok()).collect();
            for k in dims.clone() {
                for _ in 0..*per_dim {
                    let mut shape: Vec<AttrId> =
                        attrs.choose_multiple(&mut rng, k).copied().collect();
                    shape.sort_unstable();
                    out.push(shape);
                }
            }
        }
    }
    out.shuffle(&mut rng);
    out
}

/// The first `len` positions (all when `None`) of a pool in sequence
/// order: the shapes of [`shape_sequence`], each with ranges drawn as the
/// paper's workloads draw them (two uniform endpoints per attribute),
/// redrawn until at least `min_count` base rows match. Positions below
/// [`FIXED_QUERIES`] draw from [`FIXED_SEED`], the rest from `seed`; each
/// position has its own generator, so a position's query depends neither
/// on the others nor on `len`. Generated on two threads.
pub fn pool(
    relation: &Relation,
    shapes: &Shapes,
    len: Option<usize>,
    min_count: f64,
    seed: u64,
) -> Result<Vec<PoolQuery>, String> {
    let schema = relation.schema();
    let joint = relation.distribution();
    let mut sequence = shape_sequence(schema.arity(), shapes);
    sequence.truncate(len.unwrap_or(usize::MAX));
    let position = |p: usize, shape: &[AttrId]| {
        let base = if p < FIXED_QUERIES { FIXED_SEED } else { seed };
        let mut rng = StdRng::seed_from_u64(base ^ (p as u64 + 1).wrapping_mul(0x9E37_79B9));
        let mut draw = || -> Vec<(AttrId, u32, u32)> {
            shape
                .iter()
                .map(|&a| {
                    let d = schema.domain_size(a);
                    let (x, y) = (rng.gen_range(0..d), rng.gen_range(0..d));
                    (a, x.min(y), x.max(y))
                })
                .collect()
        };
        let accepted = (0..MAX_ATTEMPTS).find_map(|_| {
            let ranges = draw();
            let exact = joint.range_mass(&ranges).round();
            (exact >= min_count).then_some((ranges, exact))
        });
        let (ranges, exact) = accepted.unwrap_or_else(|| {
            let full: Vec<_> = shape.iter().map(|&a| (a, 0, schema.domain_size(a) - 1)).collect();
            let exact = joint.range_mass(&full).round();
            (full, exact)
        });
        PoolQuery { query: Query::from(ranges), exact }
    };
    let half = sequence.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = sequence
            .chunks(half)
            .enumerate()
            .map(|(c, part)| {
                let position = &position;
                s.spawn(move || {
                    part.iter()
                        .enumerate()
                        .map(|(i, shape)| position(c * half + i, shape))
                        .collect()
                })
            })
            .collect();
        let mut pool = Vec::with_capacity(sequence.len());
        for h in handles {
            let part: Vec<PoolQuery> =
                h.join().map_err(|_| "pool generator thread panicked".to_string())?;
            pool.extend(part);
        }
        Ok(pool)
    })
}

/// Every `k`-subset of `0..n`, in lexicographic order.
fn subsets(n: usize, k: usize) -> Vec<Vec<AttrId>> {
    fn rec(
        start: usize,
        n: usize,
        k: usize,
        current: &mut Vec<AttrId>,
        out: &mut Vec<Vec<AttrId>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for a in start..n {
            current.push(AttrId::try_from(a).unwrap_or(AttrId::MAX));
            rec(a + 1, n, k, current, out);
            current.pop();
        }
    }
    let mut out = Vec::new();
    rec(0, n, k, &mut Vec::with_capacity(k), &mut out);
    out
}

/// `pool` with each exact answer recomputed on the table `rows` (rows of
/// `base`'s schema).
pub fn with_exact_counts(
    base: &Relation,
    rows: Vec<Vec<u32>>,
    pool: &[PoolQuery],
) -> Result<Vec<PoolQuery>, String> {
    let table = Relation::from_rows(base.schema().clone(), rows)
        .map_err(|e| format!("live table rejected: {e}"))?;
    let joint = table.distribution();
    Ok(pool
        .iter()
        .map(|q| PoolQuery {
            query: q.query.clone(),
            exact: joint.range_mass(q.query.ranges()).round(),
        })
        .collect())
}

/// Whether `row` satisfies every range of `query`.
pub fn matches(query: &Query, row: &[u32]) -> bool {
    query
        .ranges()
        .iter()
        .all(|&(a, lo, hi)| row.get(usize::from(a)).is_some_and(|&v| lo <= v && v <= hi))
}

/// The request source a workload's clients share: hands out sequence
/// indices in order (index `i` is pool position `i % len`), so whichever
/// client asks, the queries served up to any moment are a prefix of the
/// sequence.
#[derive(Debug, Default)]
pub struct Feed {
    next: Mutex<usize>,
}

impl Feed {
    /// A feed starting at index 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The first of the next `n` indices, or `None` (without advancing)
    /// when they would pass `end`.
    pub fn take(&self, n: usize, end: usize) -> Option<usize> {
        // A panicking holder cannot leave the counter invalid.
        let mut next = self.next.lock().unwrap_or_else(PoisonError::into_inner);
        let first = *next;
        *next = first.checked_add(n).filter(|&after| after <= end)?;
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsets_enumerate_every_shape_once() {
        assert_eq!(subsets(6, 1).len(), 6);
        assert_eq!(subsets(6, 2).len(), 15);
        assert_eq!(subsets(12, 4).len(), 495);
        assert_eq!(subsets(4, 2)[0], vec![0, 1]);
        assert_eq!(subsets(4, 2)[5], vec![2, 3]);
    }

    #[test]
    fn shapes_are_fixed_and_ranges_seeded_past_the_fixed_prefix() {
        let rel = census1(Scale::Smoke);
        let every = Shapes::Every { dims: 1..=2, per_shape: 8 };
        let a = pool(&rel, &every, None, 10.0, 7).unwrap();
        let b = pool(&rel, &every, None, 10.0, 7).unwrap();
        let c = pool(&rel, &every, None, 10.0, 8).unwrap();
        let prefix = pool(&rel, &every, Some(120), 10.0, 7).unwrap();
        assert_eq!(prefix.len(), 120);
        assert!(prefix.iter().zip(&a).all(|(x, y)| x.query == y.query));
        assert_eq!(a.len(), (6 + 15) * 8);
        assert_eq!(c.len(), a.len());
        let attrs = |q: &PoolQuery| q.query.ranges().iter().map(|r| r.0).collect::<Vec<_>>();
        assert!(a.iter().zip(&c).all(|(x, y)| attrs(x) == attrs(y)));
        assert!(a.iter().zip(&b).all(|(x, y)| x.query == y.query));
        assert!(a[..FIXED_QUERIES].iter().zip(&c).all(|(x, y)| x.query == y.query));
        assert!(a[FIXED_QUERIES..]
            .iter()
            .zip(&c[FIXED_QUERIES..])
            .any(|(x, y)| x.query != y.query));
        for q in &a {
            assert!(q.exact >= 10.0);
            assert_eq!(q.exact, rel.count_range(q.query.ranges()) as f64);
        }
        let random = Shapes::Random { dims: 2..=3, per_dim: 5 };
        let r = pool(&census2(Scale::Smoke), &random, None, 10.0, 1).unwrap();
        assert_eq!(r.iter().filter(|q| q.query.ranges().len() == 3).count(), 5);
    }

    #[test]
    fn feed_serves_a_prefix_and_stops_at_its_end() {
        let feed = Feed::new();
        assert_eq!(feed.take(3, 8), Some(0));
        assert_eq!(feed.take(4, 8), Some(3));
        assert_eq!(feed.take(2, 8), None);
        assert_eq!(feed.take(1, 8), Some(7));
        assert_eq!(feed.take(1, usize::MAX), Some(8));
    }

    #[test]
    fn matches_checks_every_range() {
        let q = Query::range(0, 1, 2).and(2, 5, 5);
        assert!(matches(&q, &[1, 9, 5]));
        assert!(!matches(&q, &[3, 9, 5]));
        assert!(!matches(&q, &[1, 9, 4]));
    }
}
