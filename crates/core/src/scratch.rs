//! Reusable per-query scratch buffers for kernel walks and evaluations.
//!
//! A lowered-kernel evaluation ([`crate::kernel::MassKernel`]) needs two
//! small `(lo, hi)` vectors per walk — the descending node box and the
//! intersected query constraint. Allocating them per query would put two
//! heap round-trips on the hottest path in the engine, so the
//! [`QueryEngine`](crate::plan::QueryEngine) owns a [`ScratchPool`] of
//! [`PlanScratch`] arenas: a walk pops one (or creates the first), reuses
//! its capacity, and pushes it back. The range-restricted evaluator
//! ([`crate::evaluate`]) draws its buffers from a second pool the same
//! way. Buffers are cleared and refilled at
//! the start of every walk, so reuse can never leak state between
//! queries — pinned by the interleaved-query proptests in
//! `tests/plan_equivalence.rs`.

use std::sync::Mutex;

use crate::sharded::lock;

/// Retained arenas per pool; beyond this, returned scratch is dropped.
/// Bounds worst-case idle memory at `MAX_POOLED ×` a few hundred bytes
/// while still covering every realistic reader-thread count.
const MAX_POOLED: usize = 64;

/// One query's worth of kernel-walk scratch: the mutable node box and the
/// query constraint, both indexed by attribute position.
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// Current node bounds during the walk (mutated and restored).
    pub(crate) bounds: Vec<(u32, u32)>,
    /// The query box intersected with the factor domain.
    pub(crate) constraint: Vec<(u32, u32)>,
}

impl PlanScratch {
    /// A fresh, empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A small free-list of scratch arenas ([`PlanScratch`] for kernel
/// walks, [`crate::evaluate::EvalScratch`] for the evaluator) shared by
/// every query on one engine; `&self` access from any thread.
#[derive(Debug)]
pub(crate) struct ScratchPool<T = PlanScratch> {
    pool: Mutex<Vec<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self { pool: Mutex::new(Vec::new()) }
    }
}

impl<T: Default> ScratchPool<T> {
    /// Pops a pooled arena, or creates one when the pool is empty.
    pub(crate) fn acquire(&self) -> T {
        lock(&self.pool).pop().unwrap_or_default()
    }

    /// [`ScratchPool::acquire`] plus whether the arena was reused from
    /// the pool (`false` = freshly allocated). Only the explain path
    /// calls this; the plain path keeps its branch-free `acquire`.
    pub(crate) fn acquire_tracked(&self) -> (T, bool) {
        match lock(&self.pool).pop() {
            Some(scratch) => (scratch, true),
            None => (T::default(), false),
        }
    }

    /// Returns an arena to the pool (dropped when the pool is full).
    pub(crate) fn release(&self, scratch: T) {
        let mut pool = lock(&self.pool);
        if pool.len() < MAX_POOLED {
            pool.push(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_capacity() {
        let pool: ScratchPool = ScratchPool::default();
        let mut s = pool.acquire();
        s.bounds.extend_from_slice(&[(0, 7), (0, 7)]);
        s.constraint.extend_from_slice(&[(1, 3), (0, 7)]);
        let ptr = s.bounds.as_ptr();
        pool.release(s);
        let s2 = pool.acquire();
        assert_eq!(s2.bounds.as_ptr(), ptr, "the same allocation comes back");
        assert_eq!(s2.bounds.len(), 2, "contents are cleared by the walk, not the pool");
    }

    #[test]
    fn tracked_acquire_reports_reuse() {
        let pool: ScratchPool = ScratchPool::default();
        let (s, reused) = pool.acquire_tracked();
        assert!(!reused, "empty pool allocates fresh scratch");
        pool.release(s);
        let (_, reused) = pool.acquire_tracked();
        assert!(reused, "the pooled arena is reported as reused");
    }

    #[test]
    fn pool_is_bounded() {
        let pool: ScratchPool = ScratchPool::default();
        let many: Vec<PlanScratch> = (0..200).map(|_| pool.acquire()).collect();
        for s in many {
            pool.release(s);
        }
        assert!(lock(&pool.pool).len() <= MAX_POOLED);
    }
}
