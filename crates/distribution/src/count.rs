//! Exact cell counts of a relation's projection onto an attribute set.
//!
//! Every marginal built from rows — [`Distribution::from_relation`] and
//! [`Relation::marginal_entropy`] — counts through [`CellCounts`], the one
//! counting kernel of the crate (DESIGN.md §10, "Counting marginals").
//!
//! Each row's projection becomes a mixed-radix `u64` code: attributes in
//! ascending [`AttrSet`] order, the first most significant, each radix the
//! attribute's domain size. Ascending code order is then exactly the
//! lexicographic key order a [`Distribution`] iterates in. When the next
//! radix would overflow `u64`, the codes so far are replaced by their
//! dense ranks, which preserves their order; a representative row per rank
//! recovers the ranked attributes' values when a code is decoded.
//!
//! Codes are counted into a dense `Vec<u32>` when the code space is small
//! (at most `max(rows, 2^16)` cells) and by sorting plus run-length
//! otherwise. Both yield the distinct cells in ascending key order with
//! exact counts. Transient memory is at most one `u64` per row, and the
//! sorted codes are compacted to the distinct cells before a caller builds
//! anything per cell.
//!
//! A row-major scan brings every row into cache whatever the attribute
//! set. [`Columns`] is a column-major byte copy for a caller that counts
//! many small marginals of one relation (forward selection's entropies):
//! it counts one- and two-attribute sets from just their columns, into
//! the same dense code layout.
//!
//! [`Distribution`]: crate::Distribution
//! [`Distribution::from_relation`]: crate::Distribution::from_relation

use crate::attr::AttrSet;
use crate::distribution::entropy;
use crate::error::DistributionError;
use crate::relation::Relation;

/// Code spaces up to this many cells are always counted densely, however
/// few rows the relation has.
const DENSE_FLOOR: usize = 1 << 16;

/// The distinct cells of a relation's projection onto an attribute set,
/// with exact counts, in ascending key order.
#[derive(Debug)]
pub(crate) struct CellCounts<'a> {
    rel: &'a Relation,
    /// `(column, radix)` per attribute, in ascending attribute order.
    digits: Vec<(usize, u64)>,
    /// The first `ranked` attributes are folded into a dense rank that
    /// forms the most significant digit of every code.
    ranked: usize,
    /// `reps[r]` is a row whose first `ranked` attributes have rank `r`.
    reps: Vec<usize>,
    counts: Counts,
}

#[derive(Debug)]
enum Counts {
    /// The count of every code in the space, indexed by code.
    Dense(Vec<u32>),
    /// The distinct codes, ascending, and the count of each.
    Sorted(Vec<u64>, Vec<u32>),
}

impl<'a> CellCounts<'a> {
    /// Counts the rows of `rel` projected onto `attrs`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` references an
    /// attribute outside the relation's schema.
    pub(crate) fn new(rel: &'a Relation, attrs: &AttrSet) -> Result<Self, DistributionError> {
        let schema = rel.schema();
        let digits = attrs
            .iter()
            .map(|a| Ok((usize::from(a), u64::from(schema.attr(a)?.domain_size))))
            .collect::<Result<Vec<_>, DistributionError>>()?;
        let rows = rel.row_count();
        let space = digits.iter().fold(1u64, |s, &(_, radix)| s.saturating_mul(radix));
        if space <= rows.max(DENSE_FLOOR) as u64 {
            // The space fits in `usize` (it is at most a row count), so the
            // codes index the counts directly without being materialized.
            let mut counts = vec![0u32; space as usize];
            for row in rel.rows() {
                let code = digits
                    .iter()
                    .fold(0, |code, &(col, radix)| code * radix as usize + row[col] as usize);
                counts[code] += 1;
            }
            return Ok(Self {
                rel,
                digits,
                ranked: 0,
                reps: Vec::new(),
                counts: Counts::Dense(counts),
            });
        }

        let mut codes = vec![0u64; rows];
        let mut ranked = 0;
        let mut reps = Vec::new();
        let mut space = 1u64;
        for (j, &(col, radix)) in digits.iter().enumerate() {
            if space.checked_mul(radix).is_none() {
                // At most `rows` ranks remain and `rows < 2^32`, so the
                // next radix (below 2^32) always fits after compression.
                reps = compress(&mut codes);
                ranked = j;
                space = reps.len() as u64;
            }
            space *= radix;
            for (code, row) in codes.iter_mut().zip(rel.rows()) {
                *code = *code * radix + u64::from(row[col]);
            }
        }
        let (codes, counts) = run_lengths(codes);
        Ok(Self { rel, digits, ranked, reps, counts: Counts::Sorted(codes, counts) })
    }

    /// Number of distinct cells.
    pub(crate) fn cell_count(&self) -> usize {
        match &self.counts {
            Counts::Dense(counts) => counts.iter().filter(|&&count| count > 0).count(),
            Counts::Sorted(codes, _) => codes.len(),
        }
    }

    /// `(code, count)` per distinct cell, in ascending code (= key) order.
    /// Every count is at least 1.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (dense, sorted) = match &self.counts {
            Counts::Dense(counts) => (Some(counts), None),
            Counts::Sorted(codes, counts) => (None, Some((codes, counts))),
        };
        let dense = dense.into_iter().flat_map(|counts| {
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(code, &count)| (code as u64, u64::from(count)))
        });
        let sorted = sorted.into_iter().flat_map(|(codes, counts)| {
            codes.iter().zip(counts).map(|(&code, &count)| (code, u64::from(count)))
        });
        dense.chain(sorted)
    }

    /// The cell key (values in ascending attribute order) of `code`.
    pub(crate) fn key(&self, mut code: u64) -> Box<[u32]> {
        let mut key = vec![0u32; self.digits.len()];
        let (prefix, suffix) = key.split_at_mut(self.ranked);
        for (value, &(_, radix)) in suffix.iter_mut().zip(&self.digits[self.ranked..]).rev() {
            // The remainder is below the radix, a `u32` domain size.
            *value = (code % radix) as u32;
            code /= radix;
        }
        if let Some(&rep) = self.reps.get(code as usize) {
            let row = self.rel.row(rep);
            for (value, &(col, _)) in prefix.iter_mut().zip(&self.digits) {
                *value = row[col];
            }
        }
        key.into_boxed_slice()
    }
}

/// A column-major copy of a relation whose every attribute domain fits a
/// byte, one byte per value.
#[derive(Debug)]
pub(crate) struct Columns<'a> {
    rel: &'a Relation,
    columns: Vec<Vec<u8>>,
}

impl<'a> Columns<'a> {
    /// Transposes `rel`, or returns `None` if an attribute's domain has
    /// more than 256 values.
    pub(crate) fn new(rel: &'a Relation) -> Option<Self> {
        let schema = rel.schema();
        if schema.iter().any(|(_, attr)| attr.domain_size > 256) {
            return None;
        }
        let mut columns: Vec<Vec<u8>> =
            (0..schema.arity()).map(|_| Vec::with_capacity(rel.row_count())).collect();
        for row in rel.rows() {
            for (column, &v) in columns.iter_mut().zip(row) {
                // A value is below its domain size, at most 256.
                column.push(v as u8);
            }
        }
        Some(Self { rel, columns })
    }

    /// Entropy of the projection onto `attrs`, bit-identical to
    /// [`Relation::marginal_entropy`]. A one- or two-attribute set is
    /// counted here from its columns into the dense code layout
    /// [`CellCounts`] uses for it (its code space is at most `2^16`
    /// cells), so the same counts are summed in the same ascending key
    /// order; any other set is counted from the rows.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` references an
    /// attribute outside the relation's schema.
    pub(crate) fn marginal_entropy(&self, attrs: &AttrSet) -> Result<f64, DistributionError> {
        let schema = self.rel.schema();
        let domain = |a| schema.attr(a).map(|attr| attr.domain_size as usize);
        let column = |a: u16| &self.columns[usize::from(a)];
        let counts = match *attrs.as_slice() {
            [a] => {
                let mut counts = vec![0u32; domain(a)?];
                for &x in column(a) {
                    counts[usize::from(x)] += 1;
                }
                counts
            }
            [a, b] => {
                let radix = domain(b)?;
                let mut counts = vec![0u32; domain(a)? * radix];
                for (&x, &y) in column(a).iter().zip(column(b)) {
                    counts[usize::from(x) * radix + usize::from(y)] += 1;
                }
                counts
            }
            _ => return self.rel.marginal_entropy(attrs),
        };
        let cells = counts.into_iter().filter(|&count| count > 0);
        Ok(entropy(self.rel.row_count() as f64, cells.map(f64::from)))
    }
}

/// Sorts `codes` and run-length compacts them in place: the distinct
/// codes, ascending, and the count of each.
fn run_lengths(mut codes: Vec<u64>) -> (Vec<u64>, Vec<u32>) {
    codes.sort_unstable();
    // `codes[..counts.len()]` holds the distinct codes seen so far.
    let mut counts: Vec<u32> = Vec::new();
    for i in 0..codes.len() {
        let (code, distinct) = (codes[i], counts.len());
        if distinct > 0 && codes[distinct - 1] == code {
            counts[distinct - 1] += 1;
        } else {
            codes[distinct] = code;
            counts.push(1);
        }
    }
    codes.truncate(counts.len());
    // Return the tail to the allocator before callers allocate per cell.
    codes.shrink_to_fit();
    (codes, counts)
}

/// Replaces every code by its dense rank among the distinct codes (which
/// preserves their order) and returns, per rank, one row holding it.
fn compress(codes: &mut [u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..codes.len()).collect();
    order.sort_unstable_by_key(|&i| codes[i]);
    let mut reps = Vec::new();
    let mut previous = None;
    for i in order {
        let code = codes[i];
        if previous != Some(code) {
            previous = Some(code);
            reps.push(i);
        }
        codes[i] = (reps.len() - 1) as u64;
    }
    reps
}
