//! Exact cell counts of a relation's projection onto an attribute set.
//!
//! [`CellCounts`] is the one counting kernel of the crate (DESIGN.md §10,
//! "Counting marginals"). It reads attribute values from one of two
//! sources: the relation's rows, or [`Columns`], a byte-per-value
//! column-major copy. A synopsis build makes one [`Columns`] copy and
//! counts every selection entropy and clique marginal from it, each set
//! reading only its own columns; [`Distribution::from_relation`] and
//! [`Relation::marginal_entropy`] count one-off marginals from the rows,
//! as does a [`Columns`] of a relation with a domain over 256 values.
//!
//! Each row's projection becomes a mixed-radix code: attributes in
//! ascending [`AttrSet`] order, the first most significant, each radix the
//! attribute's domain size. Ascending code order is then exactly the
//! lexicographic key order a [`Distribution`] iterates in.
//!
//! Codes are counted into a dense array when the code space is small (at
//! most `max(rows, 2^16)` cells), four interleaved count lanes per cell
//! (see [`tally`]) that every reader sums per cell as it goes, and by
//! sorting plus run-length otherwise: as `u64` codes when the space fits
//! them, as `u128` codes when it fits those (Census-2's 12-attribute
//! joint needs 65.2 bits).
//! Past `u128`, the `u64` codes so far are replaced by their dense ranks
//! whenever the next radix would overflow, which preserves their order;
//! a representative row per rank recovers the ranked attributes' values
//! when a code is decoded. Every path yields the distinct cells in
//! ascending key order with exact counts, so entropies and distributions
//! are the same bits whichever source and path counted them. The sorted
//! codes are compacted to the distinct cells before a caller builds
//! anything per cell.
//!
//! Forward selection scores every pair of attributes, so
//! [`Columns::pair_entropies`] counts each pair's table once and also
//! reads each attribute's own counts off the first table that holds it,
//! as its row or column sums. Entropies take `c · ln c` for small counts
//! from a table ([`C_LN_C`]) that holds the very products
//! [`crate::distribution::entropy`] would compute.
//!
//! [`Distribution`]: crate::Distribution
//! [`Distribution::from_relation`]: crate::Distribution::from_relation

use std::ops::{Add, Div, Mul, Rem};
use std::sync::LazyLock;

use crate::attr::AttrSet;
use crate::distribution::{entropy_from_terms, Distribution};
use crate::error::DistributionError;
use crate::relation::Relation;

/// Code spaces up to this many cells are always counted densely, however
/// few rows the relation has.
const DENSE_FLOOR: usize = 1 << 16;

/// Whether a code space of `space` cells over `rows` rows is counted
/// densely.
fn is_dense(space: u128, rows: usize) -> bool {
    space <= rows.max(DENSE_FLOOR) as u128
}

/// Rows counted into interleaved lanes: row `i` goes to lane `i % LANES`.
const LANES: usize = 4;

/// One dense cell's count, split over its lanes.
type Lanes = [u32; LANES];

/// Counts below this take `c · ln c` from [`C_LN_C`].
const C_LN_C_LEN: usize = 1 << 12;

/// `c · ln c` for every count `c` below [`C_LN_C_LEN`], the exact product
/// [`crate::distribution::entropy`] forms from `c as f64` (`+0.0` for an
/// empty cell, and for `c = 1`).
static C_LN_C: LazyLock<[f64; C_LN_C_LEN]> = LazyLock::new(|| {
    std::array::from_fn(|c| {
        let f = c as f64;
        if c == 0 {
            0.0
        } else {
            f * f.ln()
        }
    })
});

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
    /// The count of every code in the space, indexed by code, in lanes.
    Dense(Vec<Lanes>),
    /// The distinct `u64` codes, ascending, and the count of each.
    Sorted(Vec<u64>, Vec<u32>),
    /// The same for a code space past `u64`.
    Wide(Vec<u128>, Vec<u32>),
}

impl<'a> CellCounts<'a> {
    /// Counts the rows of `rel` projected onto `attrs`, reading their
    /// values from `bytes` (one byte column per attribute, see
    /// [`Columns`]) when given and from the rows otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` references an
    /// attribute outside the relation's schema.
    pub(crate) fn new(
        rel: &'a Relation,
        attrs: &AttrSet,
        bytes: Option<&[Vec<u8>]>,
    ) -> Result<Self, DistributionError> {
        let schema = rel.schema();
        let digits = attrs
            .iter()
            .map(|a| Ok((usize::from(a), u64::from(schema.attr(a)?.domain_size))))
            .collect::<Result<Vec<_>, DistributionError>>()?;
        let source = match bytes {
            Some(bytes) => Source::Bytes(bytes),
            None => Source::Rows(rel),
        };
        let rows = rel.row_count();
        let space = digits.iter().try_fold(1u128, |s, &(_, radix)| s.checked_mul(radix.into()));
        let (mut ranked, mut reps) = (0, Vec::new());
        let counts = match space {
            Some(space) if is_dense(space, rows) => {
                // The space is at most a row count (or 2^16), so it fits
                // `usize` and the codes index the counts directly without
                // being materialized.
                Counts::Dense(source.dense_counts(&digits, space as usize, rows))
            }
            Some(space) if u64::try_from(space).is_ok() => {
                let mut codes = vec![0u64; rows];
                for &(col, radix) in &digits {
                    source.push_digit(&mut codes, col, radix);
                }
                let (codes, counts) = run_lengths(codes);
                Counts::Sorted(codes, counts)
            }
            Some(_) => {
                let mut codes = vec![0u128; rows];
                for &(col, radix) in &digits {
                    source.push_digit(&mut codes, col, radix);
                }
                let (codes, counts) = run_lengths(codes);
                Counts::Wide(codes, counts)
            }
            None => {
                let mut codes = vec![0u64; rows];
                let mut space = 1u64;
                for (j, &(col, radix)) in digits.iter().enumerate() {
                    if space.checked_mul(radix).is_none() {
                        // At most `rows` ranks remain and `rows < 2^32`, so
                        // the next radix (below 2^32) always fits after
                        // compression.
                        reps = compress(&mut codes);
                        ranked = j;
                        space = reps.len() as u64;
                    }
                    space *= radix;
                    source.push_digit(&mut codes, col, radix);
                }
                let (codes, counts) = run_lengths(codes);
                Counts::Sorted(codes, counts)
            }
        };
        Ok(Self { rel, digits, ranked, reps, counts })
    }

    /// Number of distinct cells.
    pub(crate) fn cell_count(&self) -> usize {
        match &self.counts {
            Counts::Dense(lanes) => lanes.iter().filter(|&cell| total(cell) > 0).count(),
            Counts::Sorted(_, counts) | Counts::Wide(_, counts) => counts.len(),
        }
    }

    /// Entropy of the counted projection: every count, in ascending key
    /// order, summed without decoding a cell.
    pub(crate) fn entropy(&self) -> f64 {
        let rows = self.rel.row_count();
        match &self.counts {
            Counts::Dense(lanes) => count_entropy(rows, lanes.iter().map(total)),
            Counts::Sorted(_, counts) | Counts::Wide(_, counts) => {
                count_entropy(rows, counts.iter().map(|&c| u64::from(c)))
            }
        }
    }

    /// `(code, count)` per distinct cell, in ascending code (= key) order.
    /// Every count is at least 1.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (u128, u64)> + '_ {
        let (mut dense, mut sorted, mut wide) = (None, None, None);
        match &self.counts {
            Counts::Dense(counts) => dense = Some(counts),
            Counts::Sorted(codes, counts) => sorted = Some((codes, counts)),
            Counts::Wide(codes, counts) => wide = Some((codes, counts)),
        }
        let dense = dense.into_iter().flat_map(|lanes| {
            let cells = lanes.iter().map(total).enumerate().filter(|&(_, count)| count > 0);
            cells.map(|(code, count)| (code as u128, count))
        });
        let sorted = sorted.into_iter().flat_map(|(codes, counts)| {
            codes.iter().zip(counts).map(|(&code, &count)| (code.into(), u64::from(count)))
        });
        let wide = wide.into_iter().flat_map(|(codes, counts)| {
            codes.iter().zip(counts).map(|(&code, &count)| (code, u64::from(count)))
        });
        dense.chain(sorted).chain(wide)
    }

    /// The cell key (values in ascending attribute order) of `code`.
    pub(crate) fn key(&self, code: u128) -> Box<[u32]> {
        let mut key = vec![0u32; self.digits.len()];
        self.decode_into(code, &mut key);
        key.into_boxed_slice()
    }

    /// The counted cells column by column, in ascending key order: per
    /// attribute each cell's value, and each cell's count as a frequency.
    fn into_columns(self, attrs: &AttrSet) -> CellColumns {
        let schema = self.rel.schema();
        let cells = self.cell_count();
        let mut values: Vec<Vec<u32>> =
            self.digits.iter().map(|_| Vec::with_capacity(cells)).collect();
        let mut freqs = Vec::with_capacity(cells);
        if let Counts::Dense(lanes) = &self.counts {
            // A dense space has no ranked digits and fits `usize`.
            for (code, cell) in lanes.iter().enumerate() {
                let count = total(cell);
                if count == 0 {
                    continue;
                }
                let mut code = code;
                for (column, &(_, radix)) in values.iter_mut().zip(&self.digits).rev() {
                    let radix = radix as usize;
                    // The remainder is below the radix, a `u32` domain size.
                    column.push((code % radix) as u32);
                    code /= radix;
                }
                freqs.push(count as f64);
            }
        } else {
            let mut key = vec![0u32; self.digits.len()];
            for (code, count) in self.cells() {
                self.decode_into(code, &mut key);
                for (column, &value) in values.iter_mut().zip(&key) {
                    column.push(value);
                }
                freqs.push(count as f64);
            }
        }
        let domains = attrs.iter().map(|a| schema.domain_size(a)).collect();
        let total = self.rel.row_count() as f64;
        CellColumns { attrs: attrs.clone(), domains, values, freqs, total }
    }

    /// Writes the cell key of `code` into `key`.
    fn decode_into(&self, code: u128, key: &mut [u32]) {
        // Only a space past `u64` needs `u128` arithmetic.
        match u64::try_from(code) {
            Ok(code) => self.decode(code, key),
            Err(_) => self.decode(code, key),
        }
    }

    fn decode<T>(&self, mut code: T, key: &mut [u32])
    where
        T: Copy + From<u64> + Rem<Output = T> + Div<Output = T> + TryInto<u32> + TryInto<usize>,
    {
        let (prefix, suffix) = key.split_at_mut(self.ranked);
        for (value, &(_, radix)) in suffix.iter_mut().zip(&self.digits[self.ranked..]).rev() {
            // The remainder is below the radix, a `u32` domain size.
            *value = (code % T::from(radix)).try_into().unwrap_or(u32::MAX);
            code = code / T::from(radix);
        }
        let rank: Option<usize> = code.try_into().ok();
        if let Some(&rep) = rank.and_then(|rank| self.reps.get(rank)) {
            let row = self.rel.row(rep);
            for (value, &(col, _)) in prefix.iter_mut().zip(&self.digits) {
                *value = row[col];
            }
        }
    }
}

/// A marginal's distinct cells column by column, in ascending key order:
/// the form an MHIST builder's cell arena starts from, without a
/// [`Distribution`]'s map in between.
#[derive(Debug, Clone, PartialEq)]
pub struct CellColumns {
    /// The marginal's attributes.
    pub attrs: AttrSet,
    /// Each attribute's domain size, in the order of `attrs`.
    pub domains: Vec<u32>,
    /// Per attribute, in the order of `attrs`, each cell's value.
    pub values: Vec<Vec<u32>>,
    /// Each cell's frequency.
    pub freqs: Vec<f64>,
    /// The marginal's total frequency.
    pub total: f64,
}

/// Where [`CellCounts`] reads attribute values.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// The relation's row-major values.
    Rows(&'a Relation),
    /// One byte column per attribute (see [`Columns`]).
    Bytes(&'a [Vec<u8>]),
}

impl Source<'_> {
    /// Counts every row's code over `digits` into a dense array of
    /// `space` cells.
    fn dense_counts(self, digits: &[(usize, u64)], space: usize, rows: usize) -> Vec<Lanes> {
        match self {
            Source::Rows(rel) => tally(
                space,
                rel.rows().map(|row| {
                    digits
                        .iter()
                        .fold(0, |code, &(col, radix)| code * radix as usize + row[col] as usize)
                }),
            ),
            // Selection's singletons and pairs, the hottest counts, read
            // their one or two columns in lockstep.
            Source::Bytes(bytes) => match *digits {
                [(a, _)] => tally(space, bytes[a].iter().map(|&x| usize::from(x))),
                [(a, _), (b, radix)] => tally_pair(space, &bytes[a], &bytes[b], radix as usize),
                _ => tally(
                    space,
                    (0..rows).map(|i| {
                        digits.iter().fold(0, |code, &(col, radix)| {
                            code * radix as usize + usize::from(bytes[col][i])
                        })
                    }),
                ),
            },
        }
    }

    /// Appends column `col`'s value, in base `radix`, to every row's code.
    /// One column at a time, the rows' multiply-adds are independent and
    /// pipeline; folding each row's digits in turn would chain them.
    fn push_digit<T>(self, codes: &mut [T], col: usize, radix: u64)
    where
        T: Copy + From<u32> + From<u64> + Mul<Output = T> + Add<Output = T>,
    {
        let radix = T::from(radix);
        match self {
            Source::Rows(rel) => {
                for (code, row) in codes.iter_mut().zip(rel.rows()) {
                    *code = *code * radix + T::from(row[col]);
                }
            }
            Source::Bytes(bytes) => {
                for (code, &x) in codes.iter_mut().zip(&bytes[col]) {
                    *code = *code * radix + T::from(u32::from(x));
                }
            }
        }
    }
}

/// A relation copied column-major, one byte per value, when every
/// attribute domain fits a byte: the counting source for a caller that
/// counts many marginals of one relation.
///
/// A synopsis build makes one and counts everything from it: forward
/// selection's entropies ([`crate::EntropyCache::with_columns`]) and then
/// the chosen model's clique marginals ([`Columns::marginal`]). A set
/// reads only its own columns, where a row-major scan brings every row's
/// cache line in whatever the set. Counts are exact and come out in key
/// order, so every entropy and distribution is bit-identical to the one
/// counted from the rows. A relation with a domain over 256 values has no
/// byte copy and is counted from its rows.
#[derive(Debug, Clone)]
pub struct Columns<'a> {
    rel: &'a Relation,
    /// One byte column per attribute; `None` when a domain has more than
    /// 256 values.
    bytes: Option<Vec<Vec<u8>>>,
}

impl<'a> Columns<'a> {
    /// Copies `rel` column-major, one byte per value, unless a domain has
    /// more than 256 values.
    #[must_use]
    pub fn new(rel: &'a Relation) -> Self {
        let schema = rel.schema();
        if schema.iter().any(|(_, attr)| attr.domain_size > 256) {
            return Self { rel, bytes: None };
        }
        let mut columns = vec![vec![0u8; rel.row_count()]; schema.arity()];
        for (i, row) in rel.rows().enumerate() {
            for (column, &v) in columns.iter_mut().zip(row) {
                // A value is below its domain size, at most 256.
                column[i] = v as u8;
            }
        }
        Self { rel, bytes: Some(columns) }
    }

    /// The relation the columns copy.
    #[must_use]
    pub fn relation(&self) -> &'a Relation {
        self.rel
    }

    fn count(&self, attrs: &AttrSet) -> Result<CellCounts<'a>, DistributionError> {
        CellCounts::new(self.rel, attrs, self.bytes.as_deref())
    }

    /// Entropy of the projection onto `attrs`, bit-identical to
    /// [`Relation::marginal_entropy`]: the same exact counts, summed in
    /// the same ascending key order.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` references an
    /// attribute outside the relation's schema.
    pub fn marginal_entropy(&self, attrs: &AttrSet) -> Result<f64, DistributionError> {
        Ok(self.count(attrs)?.entropy())
    }

    /// The marginal distribution over `attrs`, equal cell for cell and bit
    /// for bit to [`Relation::marginal`].
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` references an
    /// attribute outside the relation's schema.
    pub fn marginal(&self, attrs: &AttrSet) -> Result<Distribution, DistributionError> {
        Ok(Distribution::from_counts(self.rel, attrs, self.count(attrs)?))
    }

    /// The cells of the marginal over `attrs` column by column, equal
    /// cell for cell and bit for bit to [`Distribution::cell_columns`] of
    /// [`Columns::marginal`], taken straight from the counts.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` references an
    /// attribute outside the relation's schema.
    pub fn cell_columns(&self, attrs: &AttrSet) -> Result<CellColumns, DistributionError> {
        Ok(self.count(attrs)?.into_columns(attrs))
    }

    /// The entropy of every pair of attributes, each pair's table counted
    /// once from the byte columns, and of every attribute: its counts are
    /// the row (first attribute of the pair) or column (second) sums of
    /// the first pair table that holds it. Each entropy is bit-identical
    /// to [`Columns::marginal_entropy`] of its set. A relation without
    /// byte columns gives none. Each table is dropped once its entropies
    /// are read.
    pub(crate) fn pair_entropies(&self) -> Vec<(AttrSet, f64)> {
        let Some(bytes) = &self.bytes else {
            return Vec::new();
        };
        let rows = self.rel.row_count();
        // Byte columns exist only when every domain has at most 256
        // values, so every pair's space (at most 2^16 cells) is counted
        // densely.
        let domains: Vec<usize> =
            self.rel.schema().iter().map(|(_, attr)| attr.domain_size as usize).collect();
        let mut entropies = Vec::new();
        let mut summed = vec![false; domains.len()];
        for a in 0..domains.len() {
            for b in a + 1..domains.len() {
                let (ra, rb) = (domains[a], domains[b]);
                debug_assert!(is_dense((ra * rb) as u128, rows));
                let lanes = tally_pair(ra * rb, &bytes[a], &bytes[b], rb);
                let pair = AttrSet::from_ids([a as u16, b as u16]);
                entropies.push((pair, count_entropy(rows, lanes.iter().map(total))));
                if !summed[a] {
                    let sums = lanes.chunks_exact(rb).map(|row| row.iter().map(total).sum());
                    entropies.push((AttrSet::singleton(a as u16), count_entropy(rows, sums)));
                    summed[a] = true;
                }
                if !summed[b] {
                    let mut sums = vec![0u64; rb];
                    for row in lanes.chunks_exact(rb) {
                        for (sum, cell) in sums.iter_mut().zip(row) {
                            *sum += total(cell);
                        }
                    }
                    entropies.push((
                        AttrSet::singleton(b as u16),
                        count_entropy(rows, sums.into_iter()),
                    ));
                    summed[b] = true;
                }
            }
        }
        entropies
    }
}

/// Counts `codes` (each below `space`) into a dense array. Consecutive
/// rows go round-robin into [`LANES`] interleaved counters per cell:
/// rows that hit the same dominant cell then update different words
/// instead of each waiting on the previous row's store. A cell's count is
/// the [`total`] of its lanes, the integer one array would hold.
fn tally(space: usize, codes: impl Iterator<Item = usize>) -> Vec<Lanes> {
    let mut lanes = vec![[0; LANES]; space];
    for (i, code) in codes.enumerate() {
        lanes[code][i % LANES] += 1;
    }
    lanes
}

/// [`tally`] of the pair codes `x · radix + y` of two byte columns, four
/// rows a step: row `4j + l` goes into lane `l`, as in [`tally`].
fn tally_pair(space: usize, xs: &[u8], ys: &[u8], radix: usize) -> Vec<Lanes> {
    let mut lanes = vec![[0; LANES]; space];
    let code = |x: u8, y: u8| usize::from(x) * radix + usize::from(y);
    let (xs, ys) = (xs.chunks_exact(LANES), ys.chunks_exact(LANES));
    let tail = xs.remainder().iter().zip(ys.remainder());
    for (x, y) in xs.zip(ys) {
        lanes[code(x[0], y[0])][0] += 1;
        lanes[code(x[1], y[1])][1] += 1;
        lanes[code(x[2], y[2])][2] += 1;
        lanes[code(x[3], y[3])][3] += 1;
    }
    for (lane, (&x, &y)) in tail.enumerate() {
        lanes[code(x, y)][lane] += 1;
    }
    lanes
}

/// A dense cell's count: the sum of its lanes.
fn total(cell: &Lanes) -> u64 {
    cell.iter().map(|&count| u64::from(count)).sum()
}

/// Entropy of `rows` rows counted into cells of `counts`, in the order
/// given (zero counts are empty cells). Each count adds its `c · ln c`,
/// from [`C_LN_C`] below [`C_LN_C_LEN`]. An empty cell and a count of 1
/// add exactly `+0.0`, which leaves the sum (never `-0.0`) as it is, so
/// the sum has the bits of one over the non-empty cells without a branch
/// on each count.
fn count_entropy(rows: usize, counts: impl Iterator<Item = u64>) -> f64 {
    let table: &[f64] = &*C_LN_C;
    let c_ln_c = |count: u64| match table.get(count as usize) {
        Some(&term) => term,
        None => {
            let f = count as f64;
            f * f.ln()
        }
    };
    entropy_from_terms(rows as f64, counts.map(c_ln_c))
}

/// Sorts `codes` and run-length compacts them in place: the distinct
/// codes, ascending, and the count of each.
fn run_lengths<T: Ord + Copy>(mut codes: Vec<T>) -> (Vec<T>, Vec<u32>) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Schema;
    use crate::distribution::entropy;

    /// `rows` pseudo-random rows over attributes with the given domain
    /// sizes. Every third row repeats an earlier one, so cells hold
    /// counts above 1.
    fn relation(domains: &[u32], rows: usize) -> Relation {
        let schema =
            Schema::new(domains.iter().enumerate().map(|(i, &d)| (format!("a{i}"), d))).unwrap();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut values: Vec<Vec<u32>> = Vec::with_capacity(rows);
        for i in 0..rows {
            if i % 3 == 2 {
                values.push(values[i / 2].clone());
                continue;
            }
            values.push(
                domains
                    .iter()
                    .map(|&d| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % u64::from(d)) as u32
                    })
                    .collect(),
            );
        }
        Relation::from_rows(schema, values).unwrap()
    }

    fn assert_same_bits(columns: &Columns<'_>, rel: &Relation, attrs: &AttrSet) {
        let from_columns = columns.marginal_entropy(attrs).unwrap();
        let from_rows = rel.marginal_entropy(attrs).unwrap();
        assert_eq!(from_columns.to_bits(), from_rows.to_bits(), "entropy over {attrs:?}");
        let (from_columns, from_rows) =
            (columns.marginal(attrs).unwrap(), rel.marginal(attrs).unwrap());
        let cells =
            |d: &Distribution| d.iter().map(|(k, f)| (k.to_vec(), f.to_bits())).collect::<Vec<_>>();
        assert_eq!(cells(&from_columns), cells(&from_rows), "cells over {attrs:?}");
        assert_eq!(from_columns.total().to_bits(), from_rows.total().to_bits());
    }

    /// `rows` rows over domains 3, 5 and 7 in which the cell `(1, 2, 3)`
    /// holds every row but each fifth: consecutive rows hit one cell.
    fn skewed(rows: usize) -> Relation {
        let schema = Schema::new([("a", 3), ("b", 5), ("c", 7)]).unwrap();
        let values: Vec<Vec<u32>> = (0..rows as u32)
            .map(|i| if i % 5 == 4 { vec![i % 3, i % 5, i % 7] } else { vec![1, 2, 3] })
            .collect();
        Relation::from_rows(schema, values).unwrap()
    }

    /// The lanes of `tally` sum to the counts of one array bumped row by
    /// row, bit for bit in cells and entropy, from both sources, for
    /// every arity, for row counts that leave each possible tail (`4k + 3`
    /// included) and for a relation whose rows pile into one cell.
    /// Dropping the rows past the last full group of four, or one lane
    /// from the fold, fails it.
    #[test]
    fn dense_lanes_match_one_array() {
        for rows in [0, 1, 3, 4, 5, 4 * 50 + 3] {
            for rel in [relation(&[3, 5, 7], rows), skewed(rows)] {
                let columns = Columns::new(&rel);
                for ids in [&[1][..], &[0, 2], &[0, 1, 2]] {
                    let attrs = AttrSet::from_ids(ids.iter().copied());
                    let radices: Vec<usize> = ids.iter().map(|&a| [3, 5, 7][a as usize]).collect();
                    let mut reference = vec![0u32; radices.iter().product()];
                    for row in rel.rows() {
                        let code = ids
                            .iter()
                            .zip(&radices)
                            .fold(0, |code, (&a, &radix)| code * radix + row[a as usize] as usize);
                        reference[code] += 1;
                    }
                    let cells = reference.iter().filter(|&&count| count > 0);
                    let expected = entropy(rows as f64, cells.map(|&count| f64::from(count)));
                    for bytes in [None, columns.bytes.as_deref()] {
                        let counted = CellCounts::new(&rel, &attrs, bytes).unwrap();
                        let Counts::Dense(lanes) = &counted.counts else {
                            panic!("{attrs:?} is counted densely")
                        };
                        let dense: Vec<u32> = lanes.iter().map(|cell| cell.iter().sum()).collect();
                        let source = if bytes.is_some() { "bytes" } else { "rows" };
                        assert_eq!(dense, reference, "{rows} rows, {attrs:?}, {source}");
                        assert_eq!(
                            counted.entropy().to_bits(),
                            expected.to_bits(),
                            "{rows} rows, {attrs:?}, {source}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn column_counts_match_row_counts() {
        // Nine byte-wide attributes: 2^72 codes, past `u64` but not `u128`.
        let wide = relation(&[256; 9], 600);
        let columns = Columns::new(&wide);
        for (attrs, past_u64) in [
            (AttrSet::from_ids([0, 1, 2]), false),
            (AttrSet::from_ids([1, 4, 7, 8]), false),
            (AttrSet::from_ids(0..8), true),
            (wide.schema().all_attrs(), true),
        ] {
            let counts = columns.count(&attrs).unwrap();
            assert_eq!(matches!(counts.counts, Counts::Wide(..)), past_u64, "{attrs:?}");
            assert_eq!(counts.ranked, 0, "{attrs:?} needs no ranks");
            assert_same_bits(&columns, &wide, &attrs);
        }
        // Seventeen: 2^136 codes overflow `u128` too, so the leading
        // attributes fold into ranks; fifteen of them (2^120) still fit.
        let wider = relation(&[256; 17], 300);
        let columns = Columns::new(&wider);
        let all = wider.schema().all_attrs();
        assert!(columns.count(&all).unwrap().ranked > 0);
        assert_eq!(columns.count(&AttrSet::from_ids(0..15)).unwrap().ranked, 0);
        assert_same_bits(&columns, &wider, &all);
        // A domain of more than 256 values has no byte column: the rows
        // are counted.
        let odd = relation(&[300, 4, 4], 100);
        let columns = Columns::new(&odd);
        assert!(columns.bytes.is_none());
        assert_same_bits(&columns, &odd, &odd.schema().all_attrs());
    }
}
