//! Tensor shapes and index arithmetic.

use std::fmt;

/// A tensor shape: the extent of each dimension, row-major (last dimension
/// contiguous).
///
/// Shapes up to rank [`Shape::MAX_RANK`] are used throughout
/// (`[N, C, H, W]` for feature maps, `[M, C, Kh, Kw]` for convolution
/// kernels, `[N, D]` for flat states). The extents are stored inline, so a
/// `Shape` is `Copy` and a [`crate::Tensor`] costs one heap allocation
/// (its data), not two.
///
/// # Example
///
/// ```
/// use enode_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4, 4]);
/// assert_eq!(s.len(), 96);
/// assert_eq!(s.rank(), 4);
/// assert_eq!(s.strides(), vec![48, 16, 4, 1]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Extents `dims[..rank]`; the unused tail stays zero, so the derived
    /// equality and hash see only the real extents.
    dims: [usize; Shape::MAX_RANK],
    rank: usize,
}

impl Shape {
    /// The largest rank a shape can have.
    pub const MAX_RANK: usize = 4;

    /// Creates a shape from dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, has more than [`Shape::MAX_RANK`]
    /// extents, or any extent is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.len() <= Shape::MAX_RANK,
            "shape rank {} exceeds the maximum rank {}, got {dims:?}",
            dims.len(),
            Shape::MAX_RANK
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "shape extents must be non-zero, got {dims:?}"
        );
        let mut inline = [0; Shape::MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: inline,
            rank: dims.len(),
        }
    }

    /// The dimension extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This shape with the extent of `axis` replaced by `extent`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is not below the rank or `extent` is zero.
    pub(crate) fn with_extent(mut self, axis: usize, extent: usize) -> Shape {
        assert!(
            axis < self.rank && extent > 0,
            "cannot set extent {extent} on axis {axis} of {self:?}"
        );
        self.dims[axis] = extent;
        self
    }

    /// Total number of elements.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    /// Interprets this shape as a 4-D `[N, C, H, W]` feature map.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not 4.
    pub fn nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.rank(), 4, "expected rank-4 shape, got {self:?}");
        (self.dims[0], self.dims[1], self.dims[2], self.dims[3])
    }

    /// Flat row-major offset of a 4-D index.
    #[inline]
    pub fn offset4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.rank(), 4);
        ((n * self.dims[1] + c) * self.dims[2] + h) * self.dims[3] + w
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.dims().iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const R: usize> From<[usize; R]> for Shape {
    fn from(dims: [usize; R]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 5]);
        assert_eq!(s.strides(), vec![15, 5, 1]);
    }

    #[test]
    fn offset4_matches_strides() {
        let s = Shape::new(&[2, 3, 4, 5]);
        let st = s.strides();
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..4 {
                    for w in 0..5 {
                        assert_eq!(
                            s.offset4(n, c, h, w),
                            n * st[0] + c * st[1] + h * st[2] + w * st[3]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn len_is_product() {
        assert_eq!(Shape::new(&[7]).len(), 7);
        assert_eq!(Shape::new(&[2, 3, 4]).len(), 24);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_extent_rejected() {
        let _ = Shape::new(&[2, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_rejected() {
        let _ = Shape::new(&[]);
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum rank 4")]
    fn rank_above_four_rejected() {
        let _ = Shape::new(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn display_compact() {
        assert_eq!(Shape::new(&[64, 64, 64]).to_string(), "64x64x64");
    }

    #[test]
    fn debug_and_display_list_only_the_real_extents() {
        // The inline storage pads to rank 4; neither format may show it.
        assert_eq!(format!("{:?}", Shape::new(&[7])), "Shape[7]");
        assert_eq!(format!("{:?}", Shape::new(&[2, 3])), "Shape[2, 3]");
        assert_eq!(
            format!("{:?}", Shape::new(&[2, 3, 4, 5])),
            "Shape[2, 3, 4, 5]"
        );
        assert_eq!(Shape::new(&[7]).to_string(), "7");
        assert_eq!(Shape::new(&[2, 3, 4, 5]).to_string(), "2x3x4x5");
    }

    #[test]
    fn equality_and_hash_ignore_the_padding() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &Shape| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let (a, b) = (Shape::new(&[2, 3]), Shape::from([2, 3]));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 1]));
        assert_ne!(Shape::new(&[6]), Shape::new(&[6, 1]));
    }

    #[test]
    fn from_array() {
        let s: Shape = [1, 2, 3].into();
        assert_eq!(s.dims(), &[1, 2, 3]);
    }
}
