//! Sparse gradient accumulation for the SGD stepping paths.
//!
//! A source (one online batch, one gradient shard, or one proactive chunk)
//! touches a few rows' worth of coordinates, far fewer than the model's
//! dimension. [`GradRun`] keeps its gradient as a sorted sparse run instead
//! of a dense buffer, so accumulating, combining and pooling a source cost
//! O(nnz), never O(dim).
//!
//! **Bit-identity contract.** A canonical run holds, for each coordinate it
//! covers, exactly the value a zeroed dense accumulator would hold after the
//! same `axpy` calls, and every coordinate it omits is that buffer's `+0.0`:
//!
//! * [`GradRun::canonicalize`] stably orders the pushes by index and folds
//!   each index's pushes in push order, starting from the literal `0.0` —
//!   the same IEEE additions the dense buffer performs on that coordinate.
//! * A fold that starts from `+0.0` can never produce `-0.0`, and neither
//!   can the sum of two such values. So wherever the dense path adds the
//!   `+0.0` of an untouched coordinate (`x + 0.0`), the result is exactly
//!   `x`, and a run may simply omit the coordinate.
//! * [`GradRun::merge`] adds `left + right` on shared indices and keeps the
//!   others, which is the dense `axpy(1.0, …)` combine coordinate by
//!   coordinate; driven by the same fixed [`cdp_engine::tree_reduce`] shape,
//!   it yields the same bits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use cdp_storage::RowView;

/// Low key bits holding a push's sequence number before
/// [`GradRun::canonicalize`]; the coordinate index sits above them. A
/// source would need 2^32 pushes (64 GiB of run) to wrap the sequence, and
/// every row index fits the remaining 32 bits (CSR indices are `u32`).
const SEQ_BITS: u32 = 32;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// One source's gradient as a sparse run of `(index, value)` entries.
#[derive(Debug, Default)]
pub(crate) struct GradRun {
    /// Canonical entries `(index, folded value)`, indices strictly
    /// increasing: every push made before the first one in `pending`.
    entries: Vec<(u64, f64)>,
    /// Later pushes, not yet folded, keyed `index << SEQ_BITS | push
    /// sequence` so an unstable sort orders equal indices by push order.
    pending: Vec<(u64, f64)>,
    /// The width a dense accumulator would have grown to.
    width: usize,
}

impl GradRun {
    /// Accumulates `coeff · row` over exactly the coordinates
    /// `axpy_into_growing(coeff, …)` touches for the same row.
    ///
    /// With nothing pending, a row whose coordinates all have entries may
    /// add straight into them: no push of any index is waiting to be
    /// folded, so push order is kept. Only the O(1) case is taken — entries
    /// exactly `0..len` and a row no wider, which is what the first row of
    /// a dense source leaves — so sources of equal-width dense rows never
    /// sort. Every other row is pushed.
    pub(crate) fn push_row(&mut self, coeff: f64, row: &RowView<'_>) {
        let entries = &mut self.entries;
        let contiguous =
            entries.last().map_or(0, |&(index, _)| index as usize + 1) == entries.len();
        if self.pending.is_empty() && contiguous && row.dim() <= entries.len() {
            row.for_each_touched(|j, x| {
                if let Some(entry) = entries.get_mut(j) {
                    entry.1 += coeff * x;
                }
            });
            return;
        }
        let pending = &mut self.pending;
        let width = row.for_each_touched(|j, x| {
            let seq = pending.len() as u64 & SEQ_MASK;
            pending.push(((j as u64) << SEQ_BITS | seq, coeff * x));
        });
        self.width = self.width.max(width);
        if self.entries.is_empty() {
            // The first row seeds the entries (one sorted row: a cheap
            // sort), so later rows can take the direct path above.
            self.canonicalize();
        }
    }

    /// Folds every pending push into the entries: afterwards there is one
    /// entry per touched index, in index order, each the push-order sum
    /// starting from `0.0`.
    pub(crate) fn canonicalize(&mut self) {
        self.pending.sort_unstable_by_key(|&(key, _)| key);
        fold_in(&mut self.entries, &self.pending, SEQ_BITS);
        self.pending.clear();
    }

    /// `self += other` over two canonical runs: `self + other` on shared
    /// indices, either side's value elsewhere.
    pub(crate) fn merge(&mut self, other: &GradRun) {
        fold_in(&mut self.entries, &other.entries, 0);
        self.width = self.width.max(other.width);
    }

    /// The width a dense accumulator would have grown to.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Writes each entry's value into `dense` at its index (a canonical run
    /// never reaches past its width, so callers size `dense` to cover it).
    pub(crate) fn scatter(&self, dense: &mut [f64]) {
        for &(index, value) in &self.entries {
            if let Some(slot) = dense.get_mut(index as usize) {
                *slot = value;
            }
        }
    }

    /// Zeroes in `dense` exactly the coordinates [`GradRun::scatter`] wrote.
    pub(crate) fn unscatter(&self, dense: &mut [f64]) {
        for &(index, _) in &self.entries {
            if let Some(slot) = dense.get_mut(index as usize) {
                *slot = 0.0;
            }
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.pending.clear();
        self.width = 0;
    }
}

/// Folds `pushes` — sorted by key, index `key >> shift` — into the
/// canonical `entries`, continuing each index's fold from its entry, or
/// from `0.0` for an index without one. Works back to front inside
/// `entries`' (pooled) allocation, so no buffer is created.
fn fold_in(entries: &mut Vec<(u64, f64)>, pushes: &[(u64, f64)], shift: u32) {
    let old = entries.len();
    entries.resize(old + pushes.len(), (0, 0.0));
    // Unread entries sit in `entries[..i]`, unread pushes in `pushes[..j]`
    // and output in `entries[k..]`. Every output slot consumes at least one
    // unread entry or push, so `k >= i + j` and a write at `k - 1` never
    // clobbers an unread entry.
    let (mut i, mut j, mut k) = (old, pushes.len(), old + pushes.len());
    while j > 0 {
        let index = pushes[j - 1].0 >> shift;
        let mut start = j - 1;
        while start > 0 && pushes[start - 1].0 >> shift == index {
            start -= 1;
        }
        while i > 0 && entries[i - 1].0 > index {
            k -= 1;
            i -= 1;
            entries[k] = entries[i];
        }
        let mut sum = 0.0;
        if i > 0 && entries[i - 1].0 == index {
            i -= 1;
            sum = entries[i].1;
        }
        for &(_, value) in &pushes[start..j] {
            sum += value;
        }
        k -= 1;
        entries[k] = (index, sum);
        j = start;
    }
    // `entries[..i]` is already in place; drop the slots left unused.
    entries.drain(i..k);
}

/// A pool of recycled gradient runs shared by every training path, so
/// steady-state steps allocate no per-source gradient buffers.
///
/// Reuse can never perturb a result: [`GradScratch::acquire`] hands out an
/// empty run, indistinguishable from a fresh one except for its capacity,
/// so pop order is irrelevant. The reuse/alloc split *is* timing-dependent
/// (two workers may both find the pool empty), which is why it surfaces
/// through observability as histogram samples, not deterministic counters.
#[derive(Debug, Default)]
pub(crate) struct GradScratch {
    pool: Mutex<Vec<GradRun>>,
    reused: AtomicU64,
    allocated: AtomicU64,
}

impl GradScratch {
    /// An empty run, recycled when the pool has one.
    pub(crate) fn acquire(&self) -> GradRun {
        let recycled = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match recycled {
            Some(mut run) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                run.clear();
                run
            }
            None => {
                self.allocated.fetch_add(1, Ordering::Relaxed);
                GradRun::default()
            }
        }
    }

    /// Returns a run to the pool for a later step to reuse.
    pub(crate) fn release(&self, run: GradRun) {
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(run);
    }

    /// Cumulative `(reused, allocated)` acquisition counts.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.reused.load(Ordering::Relaxed),
            self.allocated.load(Ordering::Relaxed),
        )
    }
}

/// Scratch state is transient by definition: clones and deserialized
/// trainers start with an empty pool, and pool contents never participate
/// in trainer equality (they are invisible to results).
impl Clone for GradScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for GradScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_linalg::{DenseVector, SparseVector, Vector};
    use cdp_storage::LabeledPoint;

    fn sparse(pairs: &[(u32, f64)]) -> LabeledPoint {
        let (idx, val): (Vec<u32>, Vec<f64>) = pairs.iter().copied().unzip();
        LabeledPoint::new(
            1.0,
            Vector::Sparse(SparseVector::new(16, idx, val).expect("valid test vector")),
        )
    }

    /// The dense accumulation the run replaces.
    fn dense_sum(rows: &[(f64, &LabeledPoint)]) -> DenseVector {
        let mut acc = DenseVector::zeros(0);
        for (coeff, p) in rows {
            p.features.axpy_into_growing(*coeff, &mut acc);
        }
        acc
    }

    fn densify(run: &GradRun) -> DenseVector {
        let mut out = DenseVector::zeros(run.width());
        run.scatter(out.as_mut_slice());
        out
    }

    fn bits(v: &DenseVector) -> Vec<u64> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn canonical_run_matches_a_zeroed_dense_accumulator() {
        let a = sparse(&[(1, 0.1), (3, -0.0), (9, 1e300)]);
        let b = sparse(&[(1, 0.2), (3, -0.0), (5, 0.0)]);
        let c = LabeledPoint::new(1.0, Vector::from(vec![0.3, -0.0, 0.0, 7.0]));
        let d = sparse(&[(1, 0.3), (9, 1e300)]);
        let rows = [(1.0, &a), (-3.0, &b), (0.5, &c), (2.0, &d)];
        let mut run = GradRun::default();
        for (coeff, p) in rows {
            run.push_row(coeff, &RowView::Point(p));
        }
        run.canonicalize();
        assert_eq!(bits(&densify(&run)), bits(&dense_sum(&rows)));
        // Only `+0.0`, never `-0.0`, even where every push was `-0.0`.
        assert_eq!(densify(&run)[5].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn merge_matches_the_dense_combine() {
        let a = sparse(&[(0, 1.0), (4, 2.0), (7, -1.0)]);
        let b = sparse(&[(2, 3.0), (4, -2.0), (15, 0.5)]);
        let mut left = GradRun::default();
        left.push_row(0.7, &RowView::Point(&a));
        left.canonicalize();
        let mut right = GradRun::default();
        right.push_row(-1.3, &RowView::Point(&b));
        right.canonicalize();
        let mut dense_left = dense_sum(&[(0.7, &a)]);
        let mut dense_right = dense_sum(&[(-1.3, &b)]);
        let width = dense_left.dim().max(dense_right.dim());
        dense_left.grow_to(width);
        dense_right.grow_to(width);
        dense_left
            .axpy(1.0, &dense_right)
            .expect("padded to one width");
        left.merge(&right);
        assert_eq!(left.width(), width);
        assert_eq!(bits(&densify(&left)), bits(&dense_left));
        // Index 4 cancels to `+0.0` and stays an entry, as in the dense sum.
        assert_eq!(left.entries.len(), 5);
    }

    #[test]
    fn scratch_recycles_cleared_runs() {
        let scratch = GradScratch::default();
        let mut run = scratch.acquire();
        run.push_row(1.0, &RowView::Point(&sparse(&[(3, 1.0)])));
        scratch.release(run);
        let run = scratch.acquire();
        assert_eq!(
            (run.entries.len(), run.pending.len(), run.width()),
            (0, 0, 0)
        );
        assert_eq!(scratch.counters(), (1, 1));
    }
}
