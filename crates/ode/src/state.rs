//! The state-vector abstraction integrated by the solvers.

use enode_tensor::Tensor;

/// Operations a state type must support to be integrated by a Runge–Kutta
/// method: linear combinations and a norm for error control.
///
/// Implemented for `Vec<f64>` (dynamic-system workloads, ground-truth
/// integration) and [`Tensor`] (Neural-ODE feature-map states).
pub trait StateOps: Clone {
    /// A zero state with the same shape as `self`.
    fn zeros_like(&self) -> Self;

    /// `self += k * other`.
    ///
    /// # Panics
    ///
    /// Implementations panic if the shapes differ.
    fn axpy(&mut self, k: f64, other: &Self);

    /// `self *= k`.
    fn scale_mut(&mut self, k: f64);

    /// Euclidean norm over all elements.
    fn norm_l2(&self) -> f64;

    /// Number of scalar elements.
    fn dof(&self) -> usize;

    /// True when every element is finite.
    fn is_finite(&self) -> bool;

    /// Overwrites `self` with `other` without reallocating, so solver
    /// scratch states can be reused across stages and steps.
    ///
    /// # Panics
    ///
    /// Implementations panic if the shapes differ.
    fn copy_from(&mut self, other: &Self) {
        *self = other.clone();
    }
}

impl StateOps for Vec<f64> {
    fn zeros_like(&self) -> Self {
        vec![0.0; self.len()]
    }

    fn axpy(&mut self, k: f64, other: &Self) {
        assert_eq!(self.len(), other.len(), "state length mismatch");
        for (a, &b) in self.iter_mut().zip(other) {
            *a += k * b;
        }
    }

    fn scale_mut(&mut self, k: f64) {
        for a in self.iter_mut() {
            *a *= k;
        }
    }

    fn norm_l2(&self) -> f64 {
        self.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    fn dof(&self) -> usize {
        self.len()
    }

    fn is_finite(&self) -> bool {
        self.iter().all(|x| x.is_finite())
    }

    fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "state length mismatch");
        self.copy_from_slice(other);
    }
}

impl StateOps for Tensor {
    #[inline]
    fn zeros_like(&self) -> Self {
        Tensor::zeros_like(self)
    }

    #[inline]
    fn axpy(&mut self, k: f64, other: &Self) {
        Tensor::axpy(self, k as f32, other);
    }

    #[inline]
    fn scale_mut(&mut self, k: f64) {
        Tensor::scale_mut(self, k as f32);
    }

    #[inline]
    fn norm_l2(&self) -> f64 {
        Tensor::norm_l2(self) as f64
    }

    #[inline]
    fn dof(&self) -> usize {
        self.len()
    }

    #[inline]
    fn is_finite(&self) -> bool {
        Tensor::is_finite(self)
    }

    #[inline]
    fn copy_from(&mut self, other: &Self) {
        Tensor::copy_from(self, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_state_ops() {
        let mut a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        a.axpy(2.0, &b);
        assert_eq!(a, vec![7.0, 10.0]);
        a.scale_mut(0.5);
        assert_eq!(a, vec![3.5, 5.0]);
        assert_eq!(a.dof(), 2);
        assert!(a.is_finite());
        a.copy_from(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn tensor_state_ops() {
        let mut a = Tensor::ones(&[2, 2]);
        let b = Tensor::full(&[2, 2], 2.0);
        StateOps::axpy(&mut a, 1.5, &b);
        assert_eq!(a.data(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(StateOps::norm_l2(&a), 8.0);
        assert_eq!(StateOps::dof(&a), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vec_shape_checked() {
        let mut a = vec![1.0];
        a.axpy(1.0, &vec![1.0, 2.0]);
    }
}
