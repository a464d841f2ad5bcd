//! Shape-keyed workspace arena.
//!
//! The paper's execution model assumes every task runs its sequential
//! kernels on a *private working set*; this module makes that working set
//! literal. A [`Workspace`] is a slab pool of [`Matrix`] buffers keyed by
//! shape: `checkout` pops a recycled buffer (or cold-allocates on first
//! use), `give_back` returns it, and a warmed-up workspace services a
//! fixed-shape kernel sequence with zero heap allocations.
//!
//! Cells, merge/dense layers and the serving batch assembly all thread a
//! caller-provided workspace through their `_ws` entry points; the plan
//! layer keeps one arena's worth of persistent buffers alive per
//! `CompiledPlan` so `Runtime::replay` never touches the allocator.

use std::collections::HashMap;

use crate::matrix::Matrix;
use crate::scalar::Float;

/// Counters describing a workspace's allocation behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Bytes of backing storage ever allocated by this workspace.
    pub bytes: usize,
    /// Checkouts served from the pool without allocating.
    pub reuses: u64,
    /// Checkouts that had to allocate a fresh buffer (cold path).
    pub cold_allocs: u64,
}

/// A shape-keyed pool of reusable [`Matrix`] buffers.
///
/// ```
/// use bpar_tensor::Workspace;
/// let mut ws: Workspace<f32> = Workspace::new();
/// let a = ws.checkout(4, 8); // cold: allocates
/// ws.give_back(a);
/// let b = ws.checkout(4, 8); // warm: reuses, no allocation
/// assert_eq!(ws.stats().reuses, 1);
/// # drop(b);
/// ```
#[derive(Debug, Default)]
pub struct Workspace<T: Float = f32> {
    pool: HashMap<(usize, usize), Vec<Matrix<T>>>,
    stats: WorkspaceStats,
}

impl<T: Float> Workspace<T> {
    /// An empty workspace.
    pub fn new() -> Self {
        Self {
            pool: HashMap::new(),
            stats: WorkspaceStats::default(),
        }
    }

    /// Checks a `rows × cols` buffer out of the pool.
    ///
    /// The returned matrix is always zeroed so checkout order cannot leak
    /// stale values into kernel results (determinism over speed on the
    /// cold path; warm reuse is a `fill` of resident memory).
    pub fn checkout(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        match self.pool.get_mut(&(rows, cols)).and_then(|v| v.pop()) {
            Some(mut m) => {
                self.stats.reuses += 1;
                m.fill_zero();
                m
            }
            None => {
                self.stats.cold_allocs += 1;
                let m = Matrix::zeros(rows, cols);
                self.stats.bytes += m.nbytes();
                m
            }
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn give_back(&mut self, m: Matrix<T>) {
        if m.is_empty() {
            return;
        }
        self.pool.entry(m.shape()).or_default().push(m);
    }

    /// Drops every pooled buffer but keeps the lifetime byte counter
    /// (checkout/reset semantics: the next checkout of each shape is cold
    /// again).
    pub fn reset(&mut self) {
        self.pool.clear();
    }

    /// Allocation counters.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Bytes of backing storage ever allocated by this workspace.
    pub fn bytes(&self) -> usize {
        self.stats.bytes
    }

    /// Number of buffers currently resident in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_warm() {
        let mut ws: Workspace<f32> = Workspace::new();
        let a = ws.checkout(3, 4);
        assert_eq!(a.shape(), (3, 4));
        assert_eq!(ws.stats().cold_allocs, 1);
        assert_eq!(ws.bytes(), 3 * 4 * 4);
        ws.give_back(a);
        let b = ws.checkout(3, 4);
        assert_eq!(ws.stats().reuses, 1);
        assert_eq!(ws.stats().cold_allocs, 1);
        assert_eq!(ws.bytes(), 3 * 4 * 4); // no new storage
        ws.give_back(b);
    }

    #[test]
    fn checkout_is_zeroed_after_reuse() {
        let mut ws: Workspace<f64> = Workspace::new();
        let mut a = ws.checkout(2, 2);
        a.fill(7.0);
        ws.give_back(a);
        let b = ws.checkout(2, 2);
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shapes_pool_independently() {
        let mut ws: Workspace<f32> = Workspace::new();
        let a = ws.checkout(2, 3);
        let b = ws.checkout(3, 2);
        ws.give_back(a);
        ws.give_back(b);
        assert_eq!(ws.pooled(), 2);
        let c = ws.checkout(2, 3);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(ws.stats().reuses, 1);
    }

    #[test]
    fn interleaved_shape_thrash_allocates_once_per_shape() {
        let mut ws: Workspace<f32> = Workspace::new();
        for _ in 0..16 {
            for &(r, c) in &[(2usize, 8usize), (4, 4), (1, 16)] {
                let m = ws.checkout(r, c);
                ws.give_back(m);
            }
        }
        assert_eq!(ws.stats().cold_allocs, 3);
        assert_eq!(ws.stats().reuses, 45);
    }

    #[test]
    fn reset_forgets_pool_but_keeps_bytes() {
        let mut ws: Workspace<f32> = Workspace::new();
        let a = ws.checkout(2, 2);
        ws.give_back(a);
        ws.reset();
        assert_eq!(ws.pooled(), 0);
        let bytes = ws.bytes();
        let _ = ws.checkout(2, 2);
        assert_eq!(ws.stats().cold_allocs, 2);
        assert_eq!(ws.bytes(), bytes + 16);
    }
}
