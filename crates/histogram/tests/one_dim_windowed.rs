//! The windowed (partition-point) range scan of `OneDimHistogram` sums
//! exactly what the linear scan it replaced summed.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist_distribution::{Relation, Schema};
use dbhist_histogram::{OneDimHistogram, SplitCriterion};
use proptest::prelude::*;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The windowed (partition-point) 1-D range scan is bit-identical to
    /// the pre-windowing linear scan for every box over random skewed
    /// histograms — the O(log b) seek must never change a sum.
    #[test]
    fn windowed_range_sums_bit_identical_to_linear(
        domain in 2u32..=48,
        buckets in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let schema = Schema::new(vec![("x", domain)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..200)
            .map(|_| {
                // Quadratic skew concentrates mass at high values, so
                // bucket widths vary and partial overlaps are common.
                let r = xorshift(&mut state) % u64::from(domain);
                let v = (r * r / u64::from(domain).max(1)) as u32;
                vec![v.min(domain - 1)]
            })
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let h = OneDimHistogram::build(
            &rel.distribution(), 0, buckets, SplitCriterion::MaxDiff).unwrap();
        for lo in 0..domain {
            for hi in 0..domain {
                // The pre-windowing linear scan, verbatim.
                let mut reference = 0.0;
                if lo <= hi {
                    for b in h.buckets() {
                        if b.hi < lo || b.lo > hi {
                            continue;
                        }
                        let olo = b.lo.max(lo);
                        let ohi = b.hi.min(hi);
                        reference += b.freq * ((f64::from(ohi - olo) + 1.0) / b.width() as f64);
                    }
                }
                prop_assert_eq!(h.estimate_range(lo, hi).to_bits(), reference.to_bits());
            }
        }
    }
}
