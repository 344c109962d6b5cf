//! Property tests: concurrent serving is bit-identical to the serial
//! engine, per synopsis generation, across mid-run hot swaps.
//!
//! M client threads hammer one `EstimatorService` while the main thread
//! swaps in new generations under load. Every `BatchReply` is tagged
//! with the generation that answered it; its estimates must match, bit
//! for bit, what that generation's synopsis answers serially. This pins
//! the two concurrency claims of the serving layer: the sharded
//! shape cache is pure memoization (reader count can change
//! hit rates, never estimates), and `swap()` is atomic from a client's
//! point of view (a batch is answered wholly by one generation, and no
//! query is dropped while generations change underneath).

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::service::{EstimatorService, ServiceConfig};
use dbhist::core::{Query, SelectivityEstimator, Synopsis, SynopsisBuilder};
use dbhist::distribution::{AttrId, Relation, Schema};
use proptest::prelude::*;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random relation where even attributes correlate with a shared
/// per-row base value and odd attributes are independent noise.
fn random_relation(arity: usize, domain: u32, rows: usize, seed: u64) -> (Relation, u64) {
    let mut state = seed | 1;
    let schema = Schema::new((0..arity).map(|i| (format!("a{i}"), domain))).unwrap();
    let data: Vec<Vec<u32>> = (0..rows)
        .map(|_| {
            let base = (xorshift(&mut state) % u64::from(domain)) as u32;
            (0..arity)
                .map(|i| {
                    if i % 2 == 0 && !xorshift(&mut state).is_multiple_of(3) {
                        base
                    } else {
                        (xorshift(&mut state) % u64::from(domain)) as u32
                    }
                })
                .collect()
        })
        .collect();
    (Relation::from_rows(schema, data).unwrap(), state)
}

/// Random conjunctive boxes over random attribute subsets.
fn random_queries(arity: usize, domain: u32, state: &mut u64, count: usize) -> Vec<Query> {
    let mut queries = Vec::new();
    while queries.len() < count {
        let mask = xorshift(state) % (1u64 << arity);
        if mask == 0 {
            continue;
        }
        queries.push(
            (0..arity as AttrId)
                .filter(|&a| mask & (1 << u64::from(a)) != 0)
                .map(|a| {
                    let lo = (xorshift(state) % u64::from(domain)) as u32;
                    let width = (xorshift(state) % u64::from(domain)) as u32;
                    (a, lo, (lo + width).min(domain - 1))
                })
                .collect::<Vec<_>>()
                .into(),
        );
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Four client threads × repeated batches against a 3-worker service
    /// with two mid-run swaps: every reply is bit-identical to the
    /// serial answer of the generation that served it.
    #[test]
    fn concurrent_service_bit_identical_to_serial_across_swaps(
        arity in 3usize..=4,
        domain in 2u32..=5,
        rows in 30usize..=120,
        budget in 150usize..=600,
        seed in any::<u64>(),
    ) {
        let (rel, mut state) = random_relation(arity, domain, rows, seed);
        let queries = random_queries(arity, domain, &mut state, 6);

        // Three generations over the same relation with different
        // budgets — different bucketizations, so the generations are
        // genuinely distinguishable by their estimates.
        let generations: Vec<Synopsis> = [budget, budget + 64, budget + 160]
            .iter()
            .map(|&b| SynopsisBuilder::new(&rel).budget(b).build().unwrap())
            .collect();

        // Serial reference: expected[g][q] = generation g+1's answer,
        // computed single-threaded before the service ever sees it.
        let expected: Vec<Vec<u64>> = generations
            .iter()
            .map(|s| queries.iter().map(|q| s.estimate(q).to_bits()).collect())
            .collect();

        let mut gens = generations.into_iter();
        let service =
            EstimatorService::start(gens.next().unwrap(), ServiceConfig { workers: 3, ..ServiceConfig::default() });

        const CLIENTS: u64 = 4;
        const BATCHES_PER_CLIENT: u64 = 12;
        let total_batches = CLIENTS * BATCHES_PER_CLIENT;
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                let service = &service;
                let queries = &queries;
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..BATCHES_PER_CLIENT {
                        let reply = service.estimate_batch(queries.clone()).unwrap();
                        let g = usize::try_from(reply.generation).unwrap();
                        assert!(g >= 1 && g <= expected.len(), "generation {g} out of range");
                        assert_eq!(reply.estimates.len(), queries.len(), "no query dropped");
                        for (i, est) in reply.estimates.iter().enumerate() {
                            assert_eq!(
                                est.to_bits(),
                                expected[g - 1][i],
                                "gen {g}, query {i}: concurrent answer diverged from serial"
                            );
                        }
                    }
                });
            }
            // Swap under load: wait until some traffic has flowed, then
            // install the next generation; repeat. Yielding keeps this
            // deterministic-enough on a single core without sleeps.
            for (i, next) in gens.enumerate() {
                let threshold = (i as u64 + 1) * total_batches / 3;
                while service.stats().batches < threshold.min(total_batches - 1) {
                    std::thread::yield_now();
                }
                service.swap(next);
            }
        });

        let stats = service.stats();
        prop_assert_eq!(stats.swaps, 2);
        prop_assert_eq!(stats.batches, total_batches);
        prop_assert_eq!(stats.requests, total_batches * queries.len() as u64);
        prop_assert_eq!(stats.dropped_replies, 0, "swap must never drop a query");
        let served: u64 = stats.per_generation.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(served, stats.requests, "per-generation counts partition the requests");
        prop_assert_eq!(stats.swap_latency.count, stats.swaps, "every swap is timed");
    }
}
