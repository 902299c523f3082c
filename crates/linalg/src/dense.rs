//! Dense, heap-allocated `f64` vectors.
//!
//! [`DenseVector`] is the workhorse for model weights: even when the feature
//! rows are sparse, the weight vector of a linear model is dense (every
//! coordinate may receive an update from the regularizer or the adaptive
//! learning-rate state).

use serde::{Deserialize, Serialize};

use crate::LinalgError;

/// A dense vector of `f64` values.
#[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct DenseVector {
    values: Vec<f64>,
}

impl Clone for DenseVector {
    fn clone(&self) -> Self {
        Self {
            values: self.values.clone(),
        }
    }

    /// Reuses `self`'s allocation when it is large enough.
    fn clone_from(&mut self, source: &Self) {
        self.values.clone_from(&source.values);
    }
}

impl DenseVector {
    /// Creates a dense vector from raw values.
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            values: vec![0.0; dim],
        }
    }

    /// Creates a vector of dimension `dim` filled with `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        Self {
            values: vec![value; dim],
        }
    }

    /// The dimension (number of coordinates).
    #[inline]
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector has zero dimension.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Immutable view of the underlying slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the underlying slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }

    /// Returns the value at `index`, or `None` when out of range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<f64> {
        self.values.get(index).copied()
    }

    /// Sets the value at `index`.
    ///
    /// # Errors
    /// Returns [`LinalgError::IndexOutOfBounds`] when `index >= dim`.
    pub fn set(&mut self, index: usize, value: f64) -> Result<(), LinalgError> {
        match self.values.get_mut(index) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(LinalgError::IndexOutOfBounds {
                index,
                dim: self.values.len(),
            }),
        }
    }

    /// Dot product with another dense vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn dot(&self, other: &DenseVector) -> Result<f64, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(self
            .values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// `self += alpha * other` (the BLAS `axpy` kernel).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &DenseVector) -> Result<(), LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        for (slot, v) in self.values.iter_mut().zip(other.values.iter()) {
            *slot += alpha * v;
        }
        Ok(())
    }

    /// Multiplies every coordinate by `factor` in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Euclidean (L2) norm.
    pub fn norm_l2(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Manhattan (L1) norm.
    pub fn norm_l1(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// Maximum absolute coordinate (L∞ norm); `0.0` for the empty vector.
    pub fn norm_linf(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }

    /// Number of exactly-zero coordinates.
    pub fn count_zeros(&self) -> usize {
        self.values.iter().filter(|v| **v == 0.0).count()
    }

    /// Iterator over `(index, value)` pairs, including zeros.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values.iter().copied().enumerate()
    }

    /// Squared Euclidean distance to another vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn distance_sq(&self, other: &DenseVector) -> Result<f64, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(self
            .values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }

    /// Grows the vector with zero padding up to `dim`. No-op when already large enough.
    ///
    /// Used when the feature space grows over time (the URL dataset adds new
    /// features during deployment, §5.3 of the paper).
    pub fn grow_to(&mut self, dim: usize) {
        if dim > self.values.len() {
            self.values.resize(dim, 0.0);
        }
    }
}

impl From<Vec<f64>> for DenseVector {
    fn from(values: Vec<f64>) -> Self {
        Self::new(values)
    }
}

impl FromIterator<f64> for DenseVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl std::ops::Index<usize> for DenseVector {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.values[index]
    }
}

impl std::ops::IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.values[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_dim_and_zero_norm() {
        let v = DenseVector::zeros(4);
        assert_eq!(v.dim(), 4);
        assert_eq!(v.norm_l2(), 0.0);
        assert_eq!(v.count_zeros(), 4);
    }

    #[test]
    fn dot_product_matches_manual() {
        let a = DenseVector::new(vec![1.0, 2.0, 3.0]);
        let b = DenseVector::new(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn dot_dimension_mismatch_errors() {
        let a = DenseVector::zeros(2);
        let b = DenseVector::zeros(3);
        assert_eq!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { left: 2, right: 3 })
        );
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = DenseVector::new(vec![1.0, 1.0]);
        let b = DenseVector::new(vec![2.0, 3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn scale_multiplies_all() {
        let mut a = DenseVector::new(vec![1.0, -2.0]);
        a.scale(-2.0);
        assert_eq!(a.as_slice(), &[-2.0, 4.0]);
    }

    #[test]
    fn norms_are_consistent() {
        let v = DenseVector::new(vec![3.0, -4.0]);
        assert_eq!(v.norm_l2(), 5.0);
        assert_eq!(v.norm_l1(), 7.0);
        assert_eq!(v.norm_linf(), 4.0);
    }

    #[test]
    fn set_out_of_bounds_errors() {
        let mut v = DenseVector::zeros(1);
        assert!(v.set(0, 2.0).is_ok());
        assert_eq!(
            v.set(5, 1.0),
            Err(LinalgError::IndexOutOfBounds { index: 5, dim: 1 })
        );
    }

    #[test]
    fn grow_to_pads_with_zeros() {
        let mut v = DenseVector::new(vec![1.0]);
        v.grow_to(3);
        assert_eq!(v.as_slice(), &[1.0, 0.0, 0.0]);
        v.grow_to(2); // shrinking never happens
        assert_eq!(v.dim(), 3);
    }

    #[test]
    fn distance_sq_is_symmetric() {
        let a = DenseVector::new(vec![1.0, 2.0]);
        let b = DenseVector::new(vec![4.0, 6.0]);
        assert_eq!(a.distance_sq(&b).unwrap(), 25.0);
        assert_eq!(b.distance_sq(&a).unwrap(), 25.0);
    }
}
