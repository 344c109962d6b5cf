//! Property tests for streaming ingest: batched `IngestSession` updates
//! are bit-identical to one-shot application of the same tuple stream,
//! crash recovery from snapshot + WAL restores the same bit patterns,
//! and WAL corruption is always detected and typed — a prefix of a
//! valid log either replays cleanly or errors, never silently diverges.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::ingest::{IngestConfig, IngestSession};
use dbhist::core::maintenance::MaintainedDbHistogram;
use dbhist::core::synopsis::DbConfig;
use dbhist::core::{Query, SelectivityEstimator};
use dbhist::distribution::{Relation, Schema};
use dbhist::persist::wal::{self, WalOp};
use dbhist::persist::PersistError;
use proptest::prelude::*;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A correlated 4-attribute relation: a0 ≈ a1, a2/a3 independent.
fn seed_relation(rows: usize, domain: u32, seed: u64) -> Relation {
    let mut state = seed | 1;
    let schema = Schema::new((0..4).map(|i| (format!("a{i}"), domain))).unwrap();
    let data: Vec<Vec<u32>> = (0..rows)
        .map(|_| {
            let base = (xorshift(&mut state) % u64::from(domain)) as u32;
            vec![
                base,
                if xorshift(&mut state).is_multiple_of(4) {
                    (xorshift(&mut state) % u64::from(domain)) as u32
                } else {
                    base
                },
                (xorshift(&mut state) % u64::from(domain)) as u32,
                (xorshift(&mut state) % u64::from(domain)) as u32,
            ]
        })
        .collect();
    Relation::from_rows(schema, data).unwrap()
}

/// A deterministic op stream over the seeded multiset: deletes only
/// ever target a row still present (seeded or previously inserted), so
/// the net multiset — and thus every marginal count — stays exact.
fn op_stream(rel: &Relation, count: usize, domain: u32, seed: u64) -> Vec<WalOp> {
    let mut state = seed | 1;
    let mut available: Vec<Vec<u32>> = rel.rows().map(<[u32]>::to_vec).collect();
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let delete = xorshift(&mut state) % 4 < 2 && !available.is_empty();
        if delete {
            let idx = (xorshift(&mut state) as usize) % available.len();
            ops.push(WalOp::Delete(available.swap_remove(idx)));
        } else {
            let row: Vec<u32> =
                (0..4).map(|_| (xorshift(&mut state) % u64::from(domain)) as u32).collect();
            available.push(row.clone());
            ops.push(WalOp::Insert(row));
        }
    }
    ops
}

fn probe_queries(domain: u32) -> Vec<Query> {
    let hi = domain.saturating_sub(1);
    vec![
        Query::all(),
        Query::range(0, 0, hi / 2),
        Query::range(1, hi / 3, hi),
        Query::equals(2, hi / 2),
        Query::range(3, 0, hi),
    ]
}

fn bit_patterns(est: &impl SelectivityEstimator, queries: &[Query]) -> Vec<u64> {
    queries.iter().map(|q| est.estimate(q).to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched ingest ≡ one-shot updates, and the maintained per-clique
    /// marginals ≡ marginals a fresh scan of the final multiset would
    /// produce — both at the bit level.
    #[test]
    fn batched_ingest_matches_one_shot(
        rows in 256usize..1024,
        domain in 4u32..12,
        n_ops in 32usize..300,
        batch in 1usize..48,
        seed in any::<u64>(),
    ) {
        let rel = seed_relation(rows, domain, seed);
        let built = MaintainedDbHistogram::build(&rel, DbConfig::new(700)).unwrap();
        let mut one_shot = built.clone();
        let mut session = IngestSession::begin(built, &rel, IngestConfig::default()).unwrap();
        let ops = op_stream(&rel, n_ops, domain, seed ^ 0xDEAD_BEEF);
        for chunk in ops.chunks(batch) {
            session.apply_batch(chunk).unwrap();
        }
        for op in &ops {
            match op {
                WalOp::Insert(row) => one_shot.insert(row),
                WalOp::Delete(row) => one_shot.delete(row),
            }
        }
        let queries = probe_queries(domain);
        prop_assert_eq!(
            bit_patterns(session.estimator(), &queries),
            bit_patterns(&one_shot, &queries),
            "batch partitioning must not change any estimate bit"
        );

        // Maintained marginals vs a fresh scan of the final multiset.
        // (Deletes can leave zero/negative cells resident in the tracked
        // marginal; compare frequencies, which agree cell-by-cell.)
        if session.marginals_tracked() {
            let mut final_rows: Vec<Vec<u32>> = rel.rows().map(<[u32]>::to_vec).collect();
            for op in &ops {
                match op {
                    WalOp::Insert(row) => final_rows.push(row.clone()),
                    WalOp::Delete(row) => {
                        if let Some(pos) = final_rows.iter().position(|r| r == row) {
                            final_rows.swap_remove(pos);
                        }
                    }
                }
            }
            let final_rel = Relation::from_rows(rel.schema().clone(), final_rows).unwrap();
            let cliques = session.estimator().synopsis().model().cliques().to_vec();
            for (i, clique) in cliques.iter().enumerate() {
                let fresh = final_rel.marginal(clique).unwrap();
                let tracked = session.marginal(i).unwrap();
                for (key, w) in fresh.iter() {
                    prop_assert_eq!(
                        tracked.frequency(key).to_bits(),
                        w.to_bits(),
                        "clique {} cell {:?}", i, key
                    );
                }
                // Cells the fresh scan lacks must have net-zero mass.
                for (key, w) in tracked.iter() {
                    if fresh.frequency(key) == 0.0 {
                        prop_assert!(w.abs() < 1e-9, "clique {} ghost cell {:?} = {}", i, key, w);
                    }
                }
            }
        }
    }

    /// Crash recovery (snapshot at session start + full WAL tail) is
    /// bit-identical to the uninterrupted session.
    #[test]
    fn recovery_is_bit_identical(
        rows in 256usize..768,
        domain in 4u32..10,
        n_ops in 16usize..160,
        batch in 1usize..32,
        seed in any::<u64>(),
    ) {
        let dir = std::env::temp_dir();
        let tag = format!("{}-{seed:x}", std::process::id());
        let snap = dir.join(format!("dbhist-eqv-{tag}.dbhs"));
        let walp = dir.join(format!("dbhist-eqv-{tag}.wal"));
        let rel = seed_relation(rows, domain, seed);
        let built = MaintainedDbHistogram::build(&rel, DbConfig::new(700)).unwrap();
        let mut session = IngestSession::begin(built, &rel, IngestConfig::default())
            .unwrap()
            .with_durability(&snap, &walp)
            .unwrap();
        let ops = op_stream(&rel, n_ops, domain, seed ^ 0x5EED);
        for chunk in ops.chunks(batch) {
            session.apply_batch(chunk).unwrap();
        }
        let queries = probe_queries(domain);
        let live = bit_patterns(session.estimator(), &queries);
        drop(session); // crash: nothing flushed beyond the per-batch fsyncs
        let (recovered, report) =
            IngestSession::recover(&snap, &walp, DbConfig::new(700), IngestConfig::default())
                .unwrap();
        prop_assert_eq!(report.ops_replayed as usize, ops.len());
        prop_assert!(report.tail_discarded.is_none());
        prop_assert_eq!(
            bit_patterns(recovered.estimator(), &queries),
            live,
            "recovery must replay to the same bits"
        );
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&walp).ok();
    }
}

/// Truncation sweep: EVERY byte-prefix of a valid WAL either parses
/// strictly to a batch prefix (when it ends exactly on a record
/// boundary) or yields a typed error — and tolerant recovery always
/// returns an exact committed-batch prefix. No prefix is ever read as
/// something the writer did not acknowledge.
#[test]
fn wal_truncation_sweep_never_silently_diverges() {
    let mut state = 0xABCD_EF01u64;
    let batches: Vec<Vec<WalOp>> = (0..6)
        .map(|_| {
            (0..1 + xorshift(&mut state) % 4)
                .map(|_| {
                    let row: Vec<u32> =
                        (0..3).map(|_| (xorshift(&mut state) % 16) as u32).collect();
                    if xorshift(&mut state).is_multiple_of(3) {
                        WalOp::Delete(row)
                    } else {
                        WalOp::Insert(row)
                    }
                })
                .collect()
        })
        .collect();
    let path = std::env::temp_dir().join(format!("dbhist-sweep-{}.wal", std::process::id()));
    let mut w = dbhist::persist::WalWriter::create(&path, 3).unwrap();
    let mut boundaries = vec![wal::WAL_HEADER_LEN];
    for ops in &batches {
        w.append(ops).unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        boundaries.push(usize::try_from(bytes).unwrap());
    }
    let full = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    for cut in 0..=full.len() {
        let prefix = &full[..cut];
        let strict = wal::read(prefix);
        if cut < wal::WAL_HEADER_LEN {
            assert!(
                matches!(strict, Err(PersistError::Truncated { .. })),
                "headerless prefix {cut} must be a typed truncation"
            );
            assert!(wal::recover(prefix).is_err(), "recover needs a header too");
            continue;
        }
        let committed = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        if boundaries.contains(&cut) {
            // Exactly on a record boundary: a valid (shorter) log.
            let contents = strict.unwrap_or_else(|e| panic!("boundary cut {cut}: {e}"));
            assert_eq!(contents.batches.len(), committed);
            for (got, want) in contents.batches.iter().zip(&batches) {
                assert_eq!(&got.ops, want);
            }
        } else {
            // Mid-record: strict read errors, typed.
            let err = strict.expect_err("mid-record prefix must not parse");
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::WalRecordCrc { .. }
                        | PersistError::Corrupt { .. }
                ),
                "cut {cut}: unexpected error {err:?}"
            );
        }
        // Tolerant recovery agrees on the committed prefix in all cases.
        let recovery = wal::recover(prefix).unwrap();
        assert_eq!(recovery.batches.len(), committed, "cut {cut}");
        for (got, want) in recovery.batches.iter().zip(&batches) {
            assert_eq!(&got.ops, want);
        }
        assert_eq!(recovery.tail_error.is_none(), boundaries.contains(&cut), "cut {cut}");
    }
}

/// Flipping any single byte of a committed record is detected: the
/// strict read errors (typed), and recovery never returns a batch
/// stream that disagrees with what the writer acknowledged before the
/// corrupted record.
#[test]
fn wal_bitflips_are_always_detected() {
    let path = std::env::temp_dir().join(format!("dbhist-flip-{}.wal", std::process::id()));
    let mut w = dbhist::persist::WalWriter::create(&path, 2).unwrap();
    w.append(&[WalOp::Insert(vec![1, 2]), WalOp::Delete(vec![3, 4])]).unwrap();
    w.append(&[WalOp::Insert(vec![5, 6])]).unwrap();
    let full = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let reference = wal::read(&full).unwrap();

    for pos in 0..full.len() {
        let mut mutated = full.clone();
        mutated[pos] ^= 0x01;
        match wal::read(&mutated) {
            Err(_) => {} // typed rejection: good
            Ok(contents) => {
                // A flip the strict reader accepts must be... impossible
                // for CRC-protected payloads; only header/frame bytes
                // could theoretically alias, and none do.
                assert_eq!(
                    contents, reference,
                    "byte {pos}: accepted mutation changed the decoded stream"
                );
            }
        }
        // Tolerant recovery, when the header survives, returns a prefix
        // of the acknowledged batches — never altered content.
        if let Ok(rec) = wal::recover(&mutated) {
            for (got, want) in rec.batches.iter().zip(&reference.batches) {
                assert_eq!(got, want, "byte {pos}: recovery diverged");
            }
        }
    }
}

/// An op whose value lies outside its attribute's domain is rejected
/// before anything is journaled or applied, and a log that holds such an
/// op anyway fails recovery with a typed error instead of a panic.
#[test]
fn out_of_domain_ops_are_rejected_before_the_wal() {
    let dir = std::env::temp_dir();
    let tag = format!("{}-domain", std::process::id());
    let snap = dir.join(format!("dbhist-eqv-{tag}.dbhs"));
    let walp = dir.join(format!("dbhist-eqv-{tag}.wal"));
    let domain = 8;
    let rel = seed_relation(512, domain, 11);
    let built = MaintainedDbHistogram::build(&rel, DbConfig::new(700)).unwrap();
    let mut session = IngestSession::begin(built, &rel, IngestConfig::default())
        .unwrap()
        .with_durability(&snap, &walp)
        .unwrap();
    session.apply_batch(&op_stream(&rel, 16, domain, 3)).unwrap();
    let queries = probe_queries(domain);
    let estimates = bit_patterns(session.estimator(), &queries);
    let wal_bytes = std::fs::read(&walp).unwrap();

    let poisoned = [WalOp::Insert(vec![1, 1, 1, 1]), WalOp::Insert(vec![1, 1, domain + 1, 1])];
    let err = session.apply_batch(&poisoned).unwrap_err();
    assert!(
        matches!(err, dbhist::core::SynopsisError::InvalidConfig { parameter: "ops", .. }),
        "{err:?}"
    );
    assert_eq!(std::fs::read(&walp).unwrap(), wal_bytes, "a rejected batch is not journaled");
    assert_eq!(session.batches_applied(), 1);
    assert_eq!(bit_patterns(session.estimator(), &queries), estimates);
    drop(session);

    // A log written without the check: recovery refuses the logged op.
    let mut wal = dbhist::persist::WalWriter::open(&walp, 4).unwrap();
    wal.append(&poisoned).unwrap();
    drop(wal);
    let err = IngestSession::recover(&snap, &walp, DbConfig::new(700), IngestConfig::default())
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, dbhist::core::SynopsisError::InvalidConfig { parameter: "wal_path", .. }),
        "{err:?}"
    );
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&walp).ok();
}
