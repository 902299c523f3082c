//! Columnar chunk slabs: the v2 storage representation.
//!
//! A [`ColumnSlab`] stores a chunk's examples column-major — one label
//! column plus either dense column slabs (`Vec<f64>` per feature column) or
//! a CSR-style sparse block — so the pipeline, the trainer, and the fused
//! transform+gradient pass can iterate examples without allocating a
//! `LabeledPoint` per row. [`FeatureChunk`](crate::FeatureChunk) is a thin
//! view (slab + row range) over an `Arc<ColumnSlab>`; compaction merges
//! adjacent small slabs and re-points the views without touching their
//! logical contents.
//!
//! **Bit-identity contract.** Every numeric access through [`RowView`]
//! replicates the exact floating-point operation order of the row layout it
//! replaced ([`Vector::dot_padded`], [`Vector::axpy_into_growing`], …):
//! dense rows are read column-ascending, CSR rows in stored-index order,
//! and the heterogeneous [`SlabLayout::Rows`] fallback keeps the original
//! `Vector` per row. Per-row byte accounting is preserved by construction
//! (dense row = `8 + dim*8`, CSR row = `8 + nnz*12`, fallback row =
//! `8 + vector bytes` — identical to `LabeledPoint::size_bytes`), so budget
//! and eviction decisions cannot drift from the row-layout semantics.

use serde::{Deserialize, Serialize};

use cdp_linalg::{DenseVector, SparseVector, Vector};

use crate::chunk::LabeledPoint;

/// The column-major payload of one slab.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SlabLayout {
    /// All rows dense with one shared dimension: `cols[j][i]` is feature
    /// `j` of row `i`.
    Dense {
        /// Shared row dimension.
        dim: usize,
        /// One column slab per feature, each `n_rows` long.
        cols: Vec<Vec<f64>>,
    },
    /// All rows sparse with one shared nominal dimension, in CSR form: row
    /// `i` owns `indices[row_ptr[i]..row_ptr[i+1]]` and the parallel
    /// `values` range, indices strictly increasing within a row.
    Csr {
        /// Shared nominal dimension.
        dim: usize,
        /// `n_rows + 1` offsets into `indices`/`values`.
        row_ptr: Vec<u32>,
        /// Concatenated per-row sorted indices.
        indices: Vec<u32>,
        /// Values parallel to `indices`.
        values: Vec<f64>,
    },
    /// Heterogeneous fallback (mixed layouts or differing dimensions): the
    /// original vectors, row-major. Guarantees every input chunk has a
    /// columnar home without changing any representation.
    Rows(Vec<Vector>),
}

/// A column-major chunk of labeled examples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSlab {
    labels: Vec<f64>,
    layout: SlabLayout,
}

impl ColumnSlab {
    /// Builds a slab from row-major points, choosing the densest layout the
    /// rows admit: all-dense one-dimension rows become column slabs,
    /// all-sparse one-dimension rows become a CSR block, anything else
    /// keeps its original vectors row-major.
    pub fn from_points(points: Vec<LabeledPoint>) -> Self {
        let labels: Vec<f64> = points.iter().map(|p| p.label).collect();
        let layout = Self::pick_layout(points);
        Self { labels, layout }
    }

    fn pick_layout(points: Vec<LabeledPoint>) -> SlabLayout {
        let all_dense_dim = match points.first() {
            Some(LabeledPoint {
                features: Vector::Dense(v),
                ..
            }) => {
                let dim = v.dim();
                points
                    .iter()
                    .all(|p| matches!(&p.features, Vector::Dense(d) if d.dim() == dim))
                    .then_some(dim)
            }
            _ => None,
        };
        if let Some(dim) = all_dense_dim {
            let n = points.len();
            let mut cols: Vec<Vec<f64>> = (0..dim).map(|_| Vec::with_capacity(n)).collect();
            for p in &points {
                if let Vector::Dense(v) = &p.features {
                    for (col, &x) in cols.iter_mut().zip(v.as_slice()) {
                        col.push(x);
                    }
                }
            }
            return SlabLayout::Dense { dim, cols };
        }
        let all_sparse_dim = match points.first() {
            Some(LabeledPoint {
                features: Vector::Sparse(v),
                ..
            }) => {
                let dim = v.dim();
                points
                    .iter()
                    .all(|p| matches!(&p.features, Vector::Sparse(s) if s.dim() == dim))
                    .then_some(dim)
            }
            _ => None,
        };
        if let Some(dim) = all_sparse_dim {
            let mut row_ptr = Vec::with_capacity(points.len() + 1);
            let mut indices = Vec::new();
            let mut values = Vec::new();
            row_ptr.push(0u32);
            for p in &points {
                if let Vector::Sparse(s) = &p.features {
                    indices.extend_from_slice(s.indices());
                    values.extend_from_slice(s.values());
                }
                row_ptr.push(indices.len() as u32);
            }
            return SlabLayout::Csr {
                dim,
                row_ptr,
                indices,
                values,
            };
        }
        SlabLayout::Rows(points.into_iter().map(|p| p.features).collect())
    }

    /// Rebuilds a slab from decoded columnar parts (spill codec v3).
    pub(crate) fn from_parts(labels: Vec<f64>, layout: SlabLayout) -> Self {
        Self { labels, layout }
    }

    /// The layout payload (spill codec v3).
    pub(crate) fn layout(&self) -> &SlabLayout {
        &self.layout
    }

    /// The label column.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the slab has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// A zero-copy view of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= self.len()` (slice-index discipline).
    pub fn row(&self, i: usize) -> RowView<'_> {
        assert!(i < self.len(), "row {i} out of {} slab rows", self.len());
        RowView::Slab { slab: self, row: i }
    }

    /// Heap bytes attributed to row `i` — identical to what
    /// `LabeledPoint::size_bytes` reports for the same row in row layout.
    pub fn row_size_bytes(&self, i: usize) -> usize {
        let label = std::mem::size_of::<f64>();
        match &self.layout {
            SlabLayout::Dense { dim, .. } => label + dim * std::mem::size_of::<f64>(),
            SlabLayout::Csr { row_ptr, .. } => {
                let nnz = (row_ptr[i + 1] - row_ptr[i]) as usize;
                label + nnz * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
            }
            SlabLayout::Rows(rows) => label + rows[i].size_bytes(),
        }
    }

    /// The CSR index/value slices of row `i` (`None` for non-CSR layouts).
    fn csr_row(&self, i: usize) -> Option<(&[u32], &[f64], usize)> {
        match &self.layout {
            SlabLayout::Csr {
                dim,
                row_ptr,
                indices,
                values,
            } => {
                let (a, b) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
                Some((&indices[a..b], &values[a..b], *dim))
            }
            _ => None,
        }
    }

    /// Merges row ranges of several slabs into one slab, preserving every
    /// row's representation: dense ranges of one dimension concatenate
    /// column-wise, CSR ranges of one dimension concatenate with offset
    /// row pointers, and anything mixed falls back to row-major vectors —
    /// so per-row bytes, lookups, and float orders are unchanged.
    pub fn merge(parts: &[(&ColumnSlab, usize, usize)]) -> ColumnSlab {
        let mut labels = Vec::new();
        for (slab, start, end) in parts {
            labels.extend_from_slice(&slab.labels[*start..*end]);
        }
        let occupied: Vec<&(&ColumnSlab, usize, usize)> =
            parts.iter().filter(|(_, s, e)| e > s).collect();
        let dense_dim = match occupied.first() {
            Some((slab, _, _)) => match &slab.layout {
                SlabLayout::Dense { dim, .. } => {
                    let dim = *dim;
                    occupied
                        .iter()
                        .all(|(s, _, _)| matches!(&s.layout, SlabLayout::Dense { dim: d, .. } if *d == dim))
                        .then_some(dim)
                }
                _ => None,
            },
            None => Some(0),
        };
        if let Some(dim) = dense_dim {
            let mut cols: Vec<Vec<f64>> =
                (0..dim).map(|_| Vec::with_capacity(labels.len())).collect();
            for (slab, start, end) in &occupied {
                if let SlabLayout::Dense { cols: src, .. } = &slab.layout {
                    for (dst, col) in cols.iter_mut().zip(src) {
                        dst.extend_from_slice(&col[*start..*end]);
                    }
                }
            }
            return ColumnSlab {
                labels,
                layout: SlabLayout::Dense { dim, cols },
            };
        }
        let csr_dim = match occupied.first() {
            Some((slab, _, _)) => match &slab.layout {
                SlabLayout::Csr { dim, .. } => {
                    let dim = *dim;
                    occupied
                        .iter()
                        .all(|(s, _, _)| matches!(&s.layout, SlabLayout::Csr { dim: d, .. } if *d == dim))
                        .then_some(dim)
                }
                _ => None,
            },
            None => None,
        };
        if let Some(dim) = csr_dim {
            let mut row_ptr = vec![0u32];
            let mut indices = Vec::new();
            let mut values = Vec::new();
            for (slab, start, end) in &occupied {
                for i in *start..*end {
                    if let Some((idx, val, _)) = slab.csr_row(i) {
                        indices.extend_from_slice(idx);
                        values.extend_from_slice(val);
                    }
                    row_ptr.push(indices.len() as u32);
                }
            }
            return ColumnSlab {
                labels,
                layout: SlabLayout::Csr {
                    dim,
                    row_ptr,
                    indices,
                    values,
                },
            };
        }
        let mut rows = Vec::with_capacity(labels.len());
        for (slab, start, end) in parts {
            for i in *start..*end {
                rows.push(slab.row(i).to_vector());
            }
        }
        ColumnSlab {
            labels,
            layout: SlabLayout::Rows(rows),
        }
    }
}

/// A zero-copy view of one labeled example, either inside a [`ColumnSlab`]
/// or borrowing a row-layout [`LabeledPoint`]. `Copy`, so the trainer can
/// shard and re-iterate views freely.
#[derive(Debug, Clone, Copy)]
pub enum RowView<'a> {
    /// A row of a columnar slab.
    Slab {
        /// The owning slab.
        slab: &'a ColumnSlab,
        /// Row index within the slab.
        row: usize,
    },
    /// A borrowed row-layout point (compatibility path for streamed points
    /// that never materialize into a slab).
    Point(&'a LabeledPoint),
}

impl<'a> From<&'a LabeledPoint> for RowView<'a> {
    fn from(p: &'a LabeledPoint) -> Self {
        RowView::Point(p)
    }
}

impl<'a> RowView<'a> {
    /// The example's label.
    pub fn label(&self) -> f64 {
        match self {
            RowView::Slab { slab, row } => slab.labels[*row],
            RowView::Point(p) => p.label,
        }
    }

    /// The feature vector's nominal dimension.
    pub fn dim(&self) -> usize {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { dim, .. } => *dim,
                SlabLayout::Csr { dim, .. } => *dim,
                SlabLayout::Rows(rows) => rows[*row].dim(),
            },
            RowView::Point(p) => p.features.dim(),
        }
    }

    /// Number of non-zero coordinates (dense rows count stored zeros out,
    /// exactly like `Vector::nnz`).
    pub fn nnz(&self) -> usize {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { dim, cols } => {
                    let zeros = cols.iter().filter(|c| c[*row] == 0.0).count();
                    *dim - zeros
                }
                SlabLayout::Csr { row_ptr, .. } => (row_ptr[*row + 1] - row_ptr[*row]) as usize,
                SlabLayout::Rows(rows) => rows[*row].nnz(),
            },
            RowView::Point(p) => p.features.nnz(),
        }
    }

    /// Heap bytes the storage layer attributes to this example — identical
    /// to `LabeledPoint::size_bytes` for the same row in row layout.
    pub fn size_bytes(&self) -> usize {
        match self {
            RowView::Slab { slab, row } => slab.row_size_bytes(*row),
            RowView::Point(p) => p.size_bytes(),
        }
    }

    /// Dot product with a dense weight vector that may be narrower than the
    /// row — bit-identical to `Vector::dot_padded` on the same example:
    /// dense coordinates ascending, CSR entries in stored order with the
    /// same `take_while` cutoff, same accumulation order.
    pub fn dot_padded(&self, weights: &DenseVector) -> f64 {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { dim, cols } => {
                    let n = (*dim).min(weights.dim());
                    let w = &weights.as_slice()[..n];
                    cols[..n].iter().zip(w).map(|(col, b)| col[*row] * b).sum()
                }
                SlabLayout::Csr { .. } => {
                    let (indices, values, _) = match slab.csr_row(*row) {
                        Some(parts) => parts,
                        None => unreachable!("layout checked above"),
                    };
                    let slice = weights.as_slice();
                    indices
                        .iter()
                        .zip(values.iter())
                        .take_while(|(&i, _)| (i as usize) < slice.len())
                        .map(|(&i, &v)| v * slice[i as usize])
                        .sum()
                }
                SlabLayout::Rows(rows) => rows[*row].dot_padded(weights),
            },
            RowView::Point(p) => p.features.dot_padded(weights),
        }
    }

    /// Visits `(j, x_j)` for exactly the coordinates
    /// [`Vector::axpy_into_growing`] touches on the same example, in the
    /// same order — every column of a dense row (stored zeros included),
    /// the stored entries of a sparse row — and returns the width that call
    /// would grow its target to: a dense row's dimension, a sparse row's
    /// last index plus one (`0` when it stores nothing).
    pub fn for_each_touched(&self, mut f: impl FnMut(usize, f64)) -> usize {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { dim, cols } => {
                    for (j, col) in cols.iter().enumerate() {
                        f(j, col[*row]);
                    }
                    *dim
                }
                SlabLayout::Csr { .. } => {
                    let (indices, values, _) = match slab.csr_row(*row) {
                        Some(parts) => parts,
                        None => unreachable!("layout checked above"),
                    };
                    for_each_stored(indices, values, f)
                }
                SlabLayout::Rows(rows) => for_each_coord(&rows[*row], f),
            },
            RowView::Point(p) => for_each_coord(&p.features, f),
        }
    }

    /// Reconstructs the row's feature vector in its original representation
    /// (dense rows come back dense, CSR rows sparse).
    pub fn to_vector(&self) -> Vector {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { cols, .. } => {
                    Vector::Dense(DenseVector::new(cols.iter().map(|c| c[*row]).collect()))
                }
                SlabLayout::Csr { .. } => {
                    let (indices, values, dim) = match slab.csr_row(*row) {
                        Some(parts) => parts,
                        None => unreachable!("layout checked above"),
                    };
                    match SparseVector::new(dim, indices.to_vec(), values.to_vec()) {
                        Ok(v) => Vector::Sparse(v),
                        // Slab rows only ever come from valid sparse
                        // vectors, whose indices stay sorted and in bounds.
                        Err(e) => unreachable!("CSR row invariant broken: {e}"),
                    }
                }
                SlabLayout::Rows(rows) => rows[*row].clone(),
            },
            RowView::Point(p) => p.features.clone(),
        }
    }

    /// Reconstructs the row as an owned [`LabeledPoint`].
    pub fn to_point(&self) -> LabeledPoint {
        LabeledPoint::new(self.label(), self.to_vector())
    }
}

/// [`RowView::for_each_touched`] over a row-layout vector.
fn for_each_coord(v: &Vector, mut f: impl FnMut(usize, f64)) -> usize {
    match v {
        Vector::Dense(d) => {
            for (j, &x) in d.as_slice().iter().enumerate() {
                f(j, x);
            }
            d.dim()
        }
        Vector::Sparse(s) => for_each_stored(s.indices(), s.values(), f),
    }
}

/// [`RowView::for_each_touched`] over sparse index/value arrays.
fn for_each_stored(indices: &[u32], values: &[f64], mut f: impl FnMut(usize, f64)) -> usize {
    for (&i, &v) in indices.iter().zip(values) {
        f(i as usize, v);
    }
    indices.last().map_or(0, |&last| last as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(label: f64, values: &[f64]) -> LabeledPoint {
        LabeledPoint::new(label, Vector::Dense(DenseVector::new(values.to_vec())))
    }

    fn sparse(label: f64, dim: usize, pairs: &[(u32, f64)]) -> LabeledPoint {
        let (idx, val): (Vec<u32>, Vec<f64>) = pairs.iter().copied().unzip();
        let v = match SparseVector::new(dim, idx, val) {
            Ok(v) => v,
            Err(e) => panic!("valid test vector: {e}"),
        };
        LabeledPoint::new(label, Vector::Sparse(v))
    }

    #[test]
    fn dense_points_become_column_slabs() {
        let points = vec![dense(1.0, &[1.0, 2.0]), dense(-1.0, &[3.0, 4.0])];
        let slab = ColumnSlab::from_points(points.clone());
        assert!(matches!(slab.layout(), SlabLayout::Dense { dim: 2, .. }));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(slab.row(i).to_point(), *p);
            assert_eq!(slab.row(i).size_bytes(), p.size_bytes());
            assert_eq!(slab.row(i).nnz(), p.features.nnz());
        }
    }

    #[test]
    fn sparse_points_become_csr() {
        let points = vec![
            sparse(1.0, 16, &[(0, 1.0), (7, -2.0)]),
            sparse(0.0, 16, &[]),
            sparse(-1.0, 16, &[(3, 5.0)]),
        ];
        let slab = ColumnSlab::from_points(points.clone());
        assert!(matches!(slab.layout(), SlabLayout::Csr { dim: 16, .. }));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(slab.row(i).to_point(), *p);
            assert_eq!(slab.row(i).size_bytes(), p.size_bytes());
            assert_eq!(slab.row(i).nnz(), p.features.nnz());
        }
    }

    #[test]
    fn mixed_layouts_fall_back_to_rows() {
        let points = vec![dense(1.0, &[1.0]), sparse(0.0, 4, &[(2, 2.0)])];
        let slab = ColumnSlab::from_points(points.clone());
        assert!(matches!(slab.layout(), SlabLayout::Rows(_)));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(slab.row(i).to_point(), *p);
            assert_eq!(slab.row(i).size_bytes(), p.size_bytes());
        }
    }

    #[test]
    fn differing_dense_dims_fall_back_to_rows() {
        let points = vec![dense(1.0, &[1.0]), dense(1.0, &[1.0, 2.0])];
        let slab = ColumnSlab::from_points(points.clone());
        assert!(matches!(slab.layout(), SlabLayout::Rows(_)));
        assert_eq!(slab.row(1).to_point(), points[1]);
    }

    /// `w + alpha * row` through [`RowView::for_each_touched`].
    fn axpy_by_visit(row: RowView<'_>, alpha: f64, w: &DenseVector) -> DenseVector {
        let mut touched = Vec::new();
        let width = row.for_each_touched(|j, x| touched.push((j, x)));
        let mut out = w.clone();
        out.grow_to(width);
        for (j, x) in touched {
            out.as_mut_slice()[j] += alpha * x;
        }
        out
    }

    #[test]
    fn row_ops_are_bit_identical_to_vector_ops() {
        let points = vec![
            dense(1.0, &[0.5, -1.5, 3.25]),
            dense(-1.0, &[2.0, 0.0, -0.125]),
        ];
        let slab = ColumnSlab::from_points(points.clone());
        // Narrower, covering, and wider weight vectors all agree bitwise.
        for w in [
            DenseVector::new(vec![1.5, -2.5]),
            DenseVector::new(vec![1.5, -2.5, 0.75]),
            DenseVector::new(vec![1.5, -2.5, 0.75, 9.0]),
        ] {
            for (i, p) in points.iter().enumerate() {
                assert_eq!(
                    slab.row(i).dot_padded(&w).to_bits(),
                    p.features.dot_padded(&w).to_bits()
                );
                let mut b = w.clone();
                p.features.axpy_into_growing(0.3, &mut b);
                assert_eq!(axpy_by_visit(slab.row(i), 0.3, &w), b);
            }
        }
        let sp = vec![
            sparse(1.0, 8, &[(1, 2.0), (6, -1.0)]),
            sparse(0.0, 8, &[(0, 4.0)]),
        ];
        let slab = ColumnSlab::from_points(sp.clone());
        for w in [DenseVector::new(vec![1.0, 2.0]), DenseVector::zeros(8)] {
            for (i, p) in sp.iter().enumerate() {
                assert_eq!(
                    slab.row(i).dot_padded(&w).to_bits(),
                    p.features.dot_padded(&w).to_bits()
                );
                let mut b = w.clone();
                p.features.axpy_into_growing(-0.7, &mut b);
                assert_eq!(axpy_by_visit(slab.row(i), -0.7, &w), b);
            }
        }
    }

    #[test]
    fn merge_preserves_rows_and_bytes() {
        let a = ColumnSlab::from_points(vec![dense(1.0, &[1.0, 2.0])]);
        let b = ColumnSlab::from_points(vec![dense(2.0, &[3.0, 4.0]), dense(3.0, &[5.0, 6.0])]);
        let merged = ColumnSlab::merge(&[(&a, 0, 1), (&b, 0, 2)]);
        assert!(matches!(merged.layout(), SlabLayout::Dense { dim: 2, .. }));
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.row(0).to_point(), a.row(0).to_point());
        assert_eq!(merged.row(1).to_point(), b.row(0).to_point());
        assert_eq!(merged.row(2).to_point(), b.row(1).to_point());
        assert_eq!(merged.row_size_bytes(2), b.row_size_bytes(1));

        let s1 = ColumnSlab::from_points(vec![sparse(1.0, 8, &[(2, 1.0)])]);
        let s2 = ColumnSlab::from_points(vec![sparse(0.0, 8, &[(0, 2.0), (7, 3.0)])]);
        let merged = ColumnSlab::merge(&[(&s1, 0, 1), (&s2, 0, 1)]);
        assert!(matches!(merged.layout(), SlabLayout::Csr { dim: 8, .. }));
        assert_eq!(merged.row(0).to_point(), s1.row(0).to_point());
        assert_eq!(merged.row(1).to_point(), s2.row(0).to_point());

        // Mixed layouts fall back to row vectors, preserving representation.
        let merged = ColumnSlab::merge(&[(&a, 0, 1), (&s1, 0, 1)]);
        assert!(matches!(merged.layout(), SlabLayout::Rows(_)));
        assert_eq!(merged.row(0).to_point(), a.row(0).to_point());
        assert_eq!(merged.row(1).to_point(), s1.row(0).to_point());
        assert_eq!(merged.row_size_bytes(1), s1.row_size_bytes(0));
    }

    #[test]
    fn empty_slab_merges_cleanly() {
        let empty = ColumnSlab::from_points(vec![]);
        let a = ColumnSlab::from_points(vec![sparse(1.0, 4, &[(1, 1.0)])]);
        let merged = ColumnSlab::merge(&[(&empty, 0, 0), (&a, 0, 1)]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.row(0).to_point(), a.row(0).to_point());
    }
}
