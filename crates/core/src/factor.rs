//! The factor abstraction `ComputeMarginal` operates over.
//!
//! The paper's selectivity-estimation procedure (§3.3) combines clique
//! histograms through `project` and `product` operations read off the
//! junction tree. The same procedure applies verbatim when the "clique
//! histograms" are *exact* marginal distributions — the configuration of
//! the paper's Fig. 6 experiment, where "each projection, in effect,
//! corresponds to a clique histogram with an unlimited number of buckets".
//! [`Factor`] captures the shared interface; [`ExactFactor`] adapts
//! [`Distribution`] to it.

use dbhist_distribution::{AttrId, AttrSet, Distribution};
use dbhist_histogram::{GridHistogram, HistogramError, SplitTree};

use crate::error::SynopsisError;

/// A multiplicative factor over a subset of attributes: the unit
/// `ComputeMarginal` multiplies and projects.
pub trait Factor: Sized + Clone {
    /// The attributes the factor covers.
    fn attrs(&self) -> &AttrSet;

    /// Total frequency mass.
    fn total(&self) -> f64;

    /// A rough size measure (buckets / support cells), used by the
    /// interpreter to decide whether an intermediate projection is
    /// worthwhile.
    fn len_hint(&self) -> usize;

    /// Estimated frequency mass inside a conjunction of inclusive ranges;
    /// constraints on uncovered attributes are ignored.
    fn mass_in_box(&self, ranges: &[(AttrId, u32, u32)]) -> f64;

    /// Calls `visit(ranges, frequency)` once per bucket, `ranges` aligned
    /// with [`Factor::attrs`], without allocating per bucket. The factor
    /// spreads each bucket's frequency uniformly over its box; support
    /// cells of exact distributions are point boxes. The range-restricted
    /// evaluator ([`crate::evaluate`]) reads every factor family through
    /// this one method.
    fn for_each_bucket(&self, visit: impl FnMut(&[(u32, u32)], f64));

    /// Projects onto a non-empty subset of the covered attributes.
    ///
    /// # Errors
    ///
    /// Rejects empty or non-subset targets.
    fn project(&self, attrs: &AttrSet) -> Result<Self, SynopsisError>;

    /// Multiplies with another factor using the separation formula
    /// `f_{Ci∪Cj} = f_{Ci} · f_{Cj} / f_{Ci∩Cj}`.
    ///
    /// # Errors
    ///
    /// Rejects operands with incompatible shared domains.
    fn product(&self, other: &Self) -> Result<Self, SynopsisError>;
}

impl Factor for SplitTree {
    fn attrs(&self) -> &AttrSet {
        SplitTree::attrs(self)
    }

    fn total(&self) -> f64 {
        SplitTree::total(self)
    }

    fn len_hint(&self) -> usize {
        SplitTree::bucket_count(self)
    }

    fn mass_in_box(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        SplitTree::mass_in_box(self, ranges)
    }

    fn for_each_bucket(&self, visit: impl FnMut(&[(u32, u32)], f64)) {
        SplitTree::for_each_bucket(self, visit);
    }

    fn project(&self, attrs: &AttrSet) -> Result<Self, SynopsisError> {
        Ok(SplitTree::project(self, attrs)?)
    }

    fn product(&self, other: &Self) -> Result<Self, SynopsisError> {
        Ok(SplitTree::product(self, other)?)
    }
}

impl Factor for GridHistogram {
    fn attrs(&self) -> &AttrSet {
        GridHistogram::attrs(self)
    }

    fn total(&self) -> f64 {
        GridHistogram::total(self)
    }

    fn len_hint(&self) -> usize {
        GridHistogram::bucket_count(self)
    }

    fn mass_in_box(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        GridHistogram::mass_in_box(self, ranges)
    }

    fn for_each_bucket(&self, visit: impl FnMut(&[(u32, u32)], f64)) {
        GridHistogram::for_each_bucket(self, visit);
    }

    fn project(&self, attrs: &AttrSet) -> Result<Self, SynopsisError> {
        Ok(GridHistogram::project(self, attrs)?)
    }

    fn product(&self, other: &Self) -> Result<Self, SynopsisError> {
        Ok(GridHistogram::product(self, other)?)
    }
}

/// Positions of each of `sub`'s attributes within `attrs`.
///
/// # Errors
///
/// Errors if `sub` is not a subset of `attrs` — the operands handed to a
/// factor operation are inconsistent.
fn shared_positions(attrs: &AttrSet, sub: &AttrSet) -> Result<Vec<usize>, SynopsisError> {
    sub.iter()
        .map(|a| {
            attrs.position(a).ok_or_else(|| SynopsisError::Budget {
                reason: format!("shared attribute {a} missing from a product operand"),
            })
        })
        .collect()
}

/// An exact sparse marginal acting as a factor — a "clique histogram with
/// an unlimited number of buckets" (paper §4.2.1).
#[derive(Debug, Clone)]
pub struct ExactFactor(pub Distribution);

impl Factor for ExactFactor {
    fn attrs(&self) -> &AttrSet {
        self.0.attrs()
    }

    fn total(&self) -> f64 {
        self.0.total()
    }

    fn len_hint(&self) -> usize {
        self.0.support_size()
    }

    fn mass_in_box(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        self.0.range_mass(ranges)
    }

    fn for_each_bucket(&self, mut visit: impl FnMut(&[(u32, u32)], f64)) {
        let mut cell = Vec::with_capacity(self.0.attrs().len());
        for (key, f) in self.0.iter() {
            cell.clear();
            cell.extend(key.iter().map(|&v| (v, v)));
            visit(&cell, f);
        }
    }

    fn project(&self, attrs: &AttrSet) -> Result<Self, SynopsisError> {
        if attrs.is_empty() {
            return Err(SynopsisError::Histogram(HistogramError::InvalidRequest {
                reason: "cannot project onto the empty attribute set".into(),
            }));
        }
        Ok(Self(self.0.marginal(attrs)?))
    }

    fn product(&self, other: &Self) -> Result<Self, SynopsisError> {
        let shared = self.0.attrs().intersection(other.0.attrs());
        let union = self.0.attrs().union(other.0.attrs());
        let mut out = Distribution::empty(self.0.schema().clone(), union.clone())?;

        // Group the right operand's cells by their shared-attribute
        // sub-key so each left cell pairs only with compatible partners.
        let other_shared_pos = shared_positions(other.0.attrs(), &shared)?;
        let mut groups: dbhist_distribution::fxhash::FxHashMap<Vec<u32>, Vec<(&[u32], f64)>> =
            dbhist_distribution::fxhash::FxHashMap::default();
        for (key, f) in other.0.iter() {
            let sub: Vec<u32> = other_shared_pos.iter().map(|&p| key[p]).collect();
            groups.entry(sub).or_default().push((key, f));
        }

        let separator = if shared.is_empty() { None } else { Some(self.0.marginal(&shared)?) };
        let self_shared_pos = shared_positions(self.0.attrs(), &shared)?;

        // Precompute, for each union attribute, where its value comes from.
        enum Source {
            Left(usize),
            Right(usize),
        }
        let mut sources: Vec<Source> = Vec::with_capacity(union.len());
        for a in union.iter() {
            if let Some(p) = self.0.attrs().position(a) {
                sources.push(Source::Left(p));
            } else if let Some(p) = other.0.attrs().position(a) {
                sources.push(Source::Right(p));
            } else {
                return Err(SynopsisError::Budget {
                    reason: format!("attribute {a} missing from both product operands"),
                });
            }
        }

        let mut out_key = vec![0u32; union.len()];
        for (lkey, lf) in self.0.iter() {
            let sub: Vec<u32> = self_shared_pos.iter().map(|&p| lkey[p]).collect();
            let denom = match &separator {
                Some(sep) => sep.frequency(&sub),
                None => self.0.total(),
            };
            if denom <= 0.0 {
                continue;
            }
            let Some(partners) = groups.get(&sub) else { continue };
            for &(rkey, rf) in partners {
                for (slot, src) in out_key.iter_mut().zip(&sources) {
                    *slot = match src {
                        Source::Left(p) => lkey[*p],
                        Source::Right(p) => rkey[*p],
                    };
                }
                out.add(&out_key, lf * rf / denom);
            }
        }
        Ok(Self(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::{Relation, Schema};

    /// a depends on b, c depends on b, a ⊥ c | b.
    fn relation() -> Relation {
        let schema = Schema::new(vec![("a", 4), ("b", 3), ("c", 4)]).unwrap();
        let mut rows = Vec::new();
        for b in 0..3u32 {
            for a in 0..4u32 {
                for c in 0..4u32 {
                    let fa = if a % 3 == b { 3 } else { 1 };
                    let fc = if c % 3 == b { 2 } else { 1 };
                    for _ in 0..fa * fc {
                        rows.push(vec![a, b, c]);
                    }
                }
            }
        }
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn exact_product_matches_closed_form() {
        let rel = relation();
        let ab = ExactFactor(rel.marginal(&AttrSet::from_ids([0, 1])).unwrap());
        let bc = ExactFactor(rel.marginal(&AttrSet::from_ids([1, 2])).unwrap());
        let prod = ab.product(&bc).unwrap();
        assert_eq!(prod.attrs(), &AttrSet::from_ids([0, 1, 2]));
        let b_marg = rel.marginal(&AttrSet::singleton(1)).unwrap();
        for a in 0..4u32 {
            for b in 0..3u32 {
                for c in 0..4u32 {
                    let expect =
                        ab.0.frequency(&[a, b]) * bc.0.frequency(&[b, c]) / b_marg.frequency(&[b]);
                    let got = prod.0.frequency(&[a, b, c]);
                    assert!((got - expect).abs() < 1e-9, "({a},{b},{c})");
                }
            }
        }
        // Conditional independence holds exactly for this relation, so the
        // product reproduces the joint.
        let joint = rel.distribution();
        for (k, f) in joint.iter() {
            assert!((prod.0.frequency(k) - f).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_product_disjoint_uses_total() {
        let rel = relation();
        let a = ExactFactor(rel.marginal(&AttrSet::singleton(0)).unwrap());
        let c = ExactFactor(rel.marginal(&AttrSet::singleton(2)).unwrap());
        let prod = a.product(&c).unwrap();
        assert!((prod.total() - rel.row_count() as f64).abs() < 1e-9);
    }

    #[test]
    fn exact_project_and_mass() {
        let rel = relation();
        let joint = ExactFactor(rel.distribution());
        let ab = joint.project(&AttrSet::from_ids([0, 1])).unwrap();
        assert_eq!(ab.attrs().len(), 2);
        assert!(joint.project(&AttrSet::empty()).is_err());
        let mass = joint.mass_in_box(&[(0, 0, 1)]);
        assert_eq!(mass, rel.count_range(&[(0, 0, 1)]) as f64);
        assert!((ab.total() - joint.total()).abs() < 1e-9);
    }

    #[test]
    fn histogram_factors_compile_through_trait() {
        // Smoke check the SplitTree/Grid impls through the Factor trait.
        fn mass<F: Factor>(f: &F) -> f64 {
            f.mass_in_box(&[])
        }
        let rel = relation();
        let dist = rel.marginal(&AttrSet::from_ids([0, 1])).unwrap();
        let tree = dbhist_histogram::mhist::MhistBuilder::build(
            &dist,
            8,
            dbhist_histogram::SplitCriterion::MaxDiff,
        )
        .unwrap();
        assert!((mass(&tree) - rel.row_count() as f64).abs() < 1e-9);
        let grid = dbhist_histogram::grid::GridBuilder::build(
            &dist,
            8,
            dbhist_histogram::SplitCriterion::MaxDiff,
        )
        .unwrap();
        assert!((mass(&grid) - rel.row_count() as f64).abs() < 1e-9);
    }
}
