//! Dense row-major `f32` tensors.

use crate::shape::Shape;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the working numeric type of the whole reproduction. The eNODE
/// prototype computes in FP16; we compute in `f32` and account storage in
/// 2-byte elements (see [`crate::f16`]), which keeps the algorithms
/// numerically robust while preserving the paper's memory accounting.
///
/// # Example
///
/// ```
/// use enode_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
/// let b = a.scale(2.0);
/// assert_eq!(b.data(), &[2.0, 4.0, 6.0]);
/// assert!((a.norm_l2() - 14f32.sqrt()).abs() < 1e-6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape} ({} elements)",
            data.len(),
            shape.len()
        );
        Tensor { shape, data }
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.len();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.len();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// A rank-1 tensor holding a scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(vec![value], &[1])
    }

    /// A tensor shaped like `other`, filled with zeros.
    pub fn zeros_like(other: &Tensor) -> Self {
        Tensor::zeros(other.shape())
    }

    /// The dimension extents.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The shape object (strides, offsets).
    #[inline]
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the element storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the element storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Copies `other`'s elements into `self` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[inline]
    pub fn copy_from(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Element at a 4-D index.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.offset4(n, c, h, w)]
    }

    /// Mutable element at a 4-D index.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let off = self.shape.offset4(n, c, h, w);
        &mut self.data[off]
    }

    /// Returns a tensor with the same data and a new shape of equal length.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(&self, dims: &[usize]) -> Tensor {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combination of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other);
        Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self * k` (returns a new tensor).
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|x| x * k)
    }

    /// In-place `self += k * other` (the BLAS `axpy` primitive; this is the
    /// core accumulate operation of a Runge–Kutta partial-state update).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[inline]
    pub fn axpy(&mut self, k: f32, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// In-place scale: `self *= k`.
    #[inline]
    pub fn scale_mut(&mut self, k: f32) {
        for a in self.data.iter_mut() {
            *a *= k;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Euclidean (L2) norm over all elements.
    pub fn norm_l2(&self) -> f32 {
        self.data
            .iter()
            .map(|x| (*x as f64).powi(2))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Max-absolute-value (L∞) norm.
    pub fn norm_inf(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum::<f64>() as f32
    }

    /// True when every element is finite.
    ///
    /// An element is `±inf` or NaN exactly when its exponent bits are all
    /// ones. The test is OR-folded over every element with no early exit,
    /// so the loop vectorizes; the adaptive stepper scans each trial's
    /// candidate state with it.
    #[inline]
    pub fn is_finite(&self) -> bool {
        const EXPONENT: u32 = 0x7f80_0000;
        let non_finite = |x: &f32| u32::from(x.to_bits() & EXPONENT == EXPONENT);
        self.data.iter().fold(0, |acc, x| acc | non_finite(x)) == 0
    }

    /// Storage footprint in bytes at the given element width (the eNODE
    /// prototype stores FP16, i.e. 2 bytes/element).
    pub fn storage_bytes(&self, bytes_per_element: usize) -> usize {
        self.len() * bytes_per_element
    }

    #[inline]
    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {} vs {}",
            self.shape,
            other.shape
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "Tensor({}, {:?})", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor({}, [{:.4}, {:.4}, ... {:.4}])",
                self.shape,
                self.data[0],
                self.data[1],
                self.data[self.len() - 1]
            )
        }
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, k: f32) -> Tensor {
        self.scale(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 2, 2]);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(1, 2, 1, 1), 23.0);
        assert_eq!(t.len(), 24);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn wrong_length_rejected() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn axpy_shape_checked() {
        let mut a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        a.axpy(1.0, &b);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(vec![3.0, -4.0], &[2]);
        assert!((t.norm_l2() - 5.0).abs() < 1e-6);
        assert_eq!(t.norm_inf(), 4.0);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert!((a.dot(&b) - 32.0).abs() < 1e-6);
    }

    #[test]
    fn operators() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!((&a + &b).data(), &[4.0, 7.0]);
        assert_eq!((&b - &a).data(), &[2.0, 3.0]);
        assert_eq!((&a * 3.0).data(), &[3.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = a.reshaped(&[4]);
        assert_eq!(b.shape(), &[4]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn storage_bytes_fp16() {
        let a = Tensor::zeros(&[64, 64, 64]);
        assert_eq!(a.storage_bytes(2), 64 * 64 * 64 * 2);
    }

    #[test]
    fn finite_detection() {
        // Extreme finite values (largest, smallest subnormal, −0.0) pass;
        // one NaN or ±inf anywhere fails, whatever the length and offset
        // within the vectorized fold.
        let finite = [f32::MAX, f32::MIN, f32::from_bits(1), -0.0, 1.0, -3.5];
        for len in 1..=70usize {
            let clean: Vec<f32> = (0..len).map(|i| finite[i % finite.len()]).collect();
            assert!(
                Tensor::from_vec(clean.clone(), &[len]).is_finite(),
                "len {len}"
            );
            for pos in 0..len {
                for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut data = clean.clone();
                    data[pos] = bad;
                    let t = Tensor::from_vec(data, &[len]);
                    assert!(!t.is_finite(), "len {len} pos {pos} value {bad}");
                }
            }
        }
    }
}
