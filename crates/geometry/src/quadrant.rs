//! The binary quadrant partition of the data space.
//!
//! In high-dimensional spaces no more than a *binary* partition of each
//! dimension is feasible (a complete binary split of a 16-d space already
//! yields 65 536 partitions), so the paper takes the buckets to be the 2^d
//! **quadrants** of the data space. A bucket is characterized by a bit per
//! dimension — `0` if the point lies below the split value of that
//! dimension, `1` otherwise — and identified by its *bucket number*
//! `bn(b) = Σ c_i · 2^i` (Definition 2).
//!
//! Two buckets are **direct neighbors** if their bitstrings differ in
//! exactly one bit and **indirect neighbors** if they differ in exactly two
//! bits (Definition 3). These relations define the disk assignment graph the
//! declustering crate colors.

use serde::{Deserialize, Serialize};

use crate::error::GeometryError;
use crate::point::Point;
use crate::rect::HyperRect;

/// Maximum dimensionality representable by a [`BucketId`] bitstring.
pub const MAX_QUADRANT_DIM: usize = 63;

/// A bucket (quadrant) number: the d-bit string `(c_0 … c_{d-1})` packed
/// into a `u64` with bit `i` = `c_i` (Definition 2 of the paper).
pub type BucketId = u64;

/// Returns whether two buckets are direct neighbors (differ in exactly one
/// bit). Applying XOR to direct neighbors yields a bitstring of the form
/// `0…010…0`.
#[inline]
pub fn are_direct_neighbors(b: BucketId, c: BucketId) -> bool {
    (b ^ c).count_ones() == 1
}

/// Returns whether two buckets are indirect neighbors (differ in exactly two
/// bits). Applying XOR to indirect neighbors yields a bitstring with exactly
/// two bits set.
#[inline]
pub fn are_indirect_neighbors(b: BucketId, c: BucketId) -> bool {
    (b ^ c).count_ones() == 2
}

/// Enumerates the `d` direct neighbors of bucket `b` in a d-dimensional
/// space.
pub fn direct_neighbors(b: BucketId, dim: usize) -> impl Iterator<Item = BucketId> {
    debug_assert!(dim <= MAX_QUADRANT_DIM);
    (0..dim).map(move |i| b ^ (1u64 << i))
}

/// Enumerates the `d·(d−1)/2` indirect neighbors of bucket `b`.
pub fn indirect_neighbors(b: BucketId, dim: usize) -> impl Iterator<Item = BucketId> {
    debug_assert!(dim <= MAX_QUADRANT_DIM);
    (0..dim).flat_map(move |i| (i + 1..dim).map(move |j| b ^ (1u64 << i) ^ (1u64 << j)))
}

/// Enumerates direct and indirect neighbors (the edge set of the disk
/// assignment graph incident to `b`).
pub fn all_neighbors(b: BucketId, dim: usize) -> impl Iterator<Item = BucketId> {
    direct_neighbors(b, dim).chain(indirect_neighbors(b, dim))
}

/// Number of buckets an algorithm considering `levels` levels of indirection
/// would have to distribute: `1 + Σ_{k=1..levels} C(d, k)` (Section 3.1 of
/// the paper; for two levels in 16-d this is already 137, which is why the
/// paper stops at two).
pub fn neighborhood_size(dim: usize, levels: u32) -> u128 {
    let mut total: u128 = 1;
    for k in 1..=levels as u128 {
        total += binomial(dim as u128, k);
    }
    total
}

fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

/// Maps points to quadrant bucket numbers using per-dimension split values.
///
/// With the default mid-point splits this is the partition of Section 3.1;
/// with data-dependent 0.5-quantile splits it is the skew adaptation of
/// Section 4.3.
///
/// ```
/// use parsim_geometry::{Point, QuadrantSplitter};
///
/// let q = QuadrantSplitter::midpoint(3).unwrap();
/// // Bit i is set iff coordinate i lies in the upper half.
/// let p = Point::new(vec![0.9, 0.1, 0.9]).unwrap();
/// assert_eq!(q.bucket_of(&p), 0b101);
/// assert!(q.bucket_region(0b101).contains_point(&p));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuadrantSplitter {
    splits: Box<[f64]>,
}

impl QuadrantSplitter {
    /// Splits every dimension at the midpoint `0.5` of the unit data space.
    pub fn midpoint(dim: usize) -> Result<Self, GeometryError> {
        Self::with_splits(vec![0.5; dim])
    }

    /// Splits dimension `i` at `splits[i]` (e.g. measured 0.5-quantiles).
    pub fn with_splits(splits: Vec<f64>) -> Result<Self, GeometryError> {
        if splits.is_empty() {
            return Err(GeometryError::ZeroDimensional);
        }
        if splits.len() > MAX_QUADRANT_DIM {
            return Err(GeometryError::DimensionTooLarge {
                requested: splits.len(),
                max: MAX_QUADRANT_DIM,
            });
        }
        for (axis, &value) in splits.iter().enumerate() {
            if !value.is_finite() {
                return Err(GeometryError::NonFiniteCoordinate { axis, value });
            }
        }
        Ok(QuadrantSplitter {
            splits: splits.into_boxed_slice(),
        })
    }

    /// Dimensionality of the partitioned space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.splits.len()
    }

    /// The split value of dimension `axis`.
    #[inline]
    pub fn split(&self, axis: usize) -> f64 {
        self.splits[axis]
    }

    /// Total number of buckets, `2^d`.
    pub fn bucket_count(&self) -> u64 {
        1u64 << self.dim()
    }

    /// The bucket number of a point: bit `i` is set iff
    /// `p[i] >= split[i]`.
    #[inline]
    pub fn bucket_of(&self, p: &Point) -> BucketId {
        debug_assert_eq!(p.dim(), self.dim(), "dimension mismatch");
        // Branch-free: on uniform data every comparison is a coin flip.
        p.iter()
            .zip(&self.splits)
            .enumerate()
            .fold(0, |id, (i, (&c, &split))| id | (u64::from(c >= split) << i))
    }

    /// The region of the data space covered by bucket `id`, as a
    /// hyper-rectangle inside `[0,1]^d`.
    pub fn bucket_region(&self, id: BucketId) -> HyperRect {
        let d = self.dim();
        let mut lo = vec![0.0; d];
        let mut hi = vec![1.0; d];
        for i in 0..d {
            if id & (1u64 << i) != 0 {
                lo[i] = self.splits[i];
            } else {
                hi[i] = self.splits[i];
            }
        }
        HyperRect::new(lo, hi).expect("bucket region bounds are ordered by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).unwrap()
    }

    #[test]
    fn bucket_of_midpoint_2d() {
        let q = QuadrantSplitter::midpoint(2).unwrap();
        assert_eq!(q.bucket_of(&p(&[0.1, 0.1])), 0b00);
        assert_eq!(q.bucket_of(&p(&[0.9, 0.1])), 0b01);
        assert_eq!(q.bucket_of(&p(&[0.1, 0.9])), 0b10);
        assert_eq!(q.bucket_of(&p(&[0.9, 0.9])), 0b11);
        // Boundary belongs to the upper bucket.
        assert_eq!(q.bucket_of(&p(&[0.5, 0.5])), 0b11);
    }

    #[test]
    fn custom_splits() {
        let q = QuadrantSplitter::with_splits(vec![0.9, 0.1]).unwrap();
        assert_eq!(q.bucket_of(&p(&[0.5, 0.5])), 0b10);
    }

    #[test]
    fn splitter_validation() {
        assert!(QuadrantSplitter::with_splits(vec![]).is_err());
        assert!(QuadrantSplitter::with_splits(vec![f64::NAN]).is_err());
        assert!(QuadrantSplitter::with_splits(vec![0.5; 64]).is_err());
        assert!(QuadrantSplitter::with_splits(vec![0.5; 63]).is_ok());
    }

    #[test]
    fn bucket_region_round_trip() {
        let q = QuadrantSplitter::midpoint(3).unwrap();
        for id in 0..q.bucket_count() {
            let region = q.bucket_region(id);
            let center = region.center();
            assert_eq!(q.bucket_of(&center), id, "bucket {id}");
        }
    }

    #[test]
    fn regions_tile_the_space() {
        let q = QuadrantSplitter::midpoint(4).unwrap();
        let total: f64 = (0..q.bucket_count())
            .map(|id| q.bucket_region(id).volume())
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn direct_neighbor_relation() {
        assert!(are_direct_neighbors(0b000, 0b001));
        assert!(are_direct_neighbors(0b101, 0b100));
        assert!(!are_direct_neighbors(0b000, 0b011));
        assert!(!are_direct_neighbors(0b000, 0b000));
    }

    #[test]
    fn indirect_neighbor_relation() {
        assert!(are_indirect_neighbors(0b000, 0b011));
        assert!(are_indirect_neighbors(0b110, 0b000));
        assert!(!are_indirect_neighbors(0b000, 0b001));
        assert!(!are_indirect_neighbors(0b000, 0b111));
    }

    #[test]
    fn neighbor_counts() {
        let d = 5;
        let b = 0b10101;
        assert_eq!(direct_neighbors(b, d).count(), d);
        assert_eq!(indirect_neighbors(b, d).count(), d * (d - 1) / 2);
        assert_eq!(all_neighbors(b, d).count(), d + d * (d - 1) / 2);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let d = 6;
        for b in 0..(1u64 << d) {
            for c in direct_neighbors(b, d) {
                assert!(direct_neighbors(c, d).any(|x| x == b));
            }
            for c in indirect_neighbors(b, d) {
                assert!(indirect_neighbors(c, d).any(|x| x == b));
            }
        }
    }

    #[test]
    fn paper_neighborhood_size_example() {
        // Section 3.1: two levels of indirection in a 16-d space give
        // 1 + 16 + 120 = 137 buckets.
        assert_eq!(neighborhood_size(16, 2), 137);
        // One level: 1 + d.
        assert_eq!(neighborhood_size(16, 1), 17);
        assert_eq!(neighborhood_size(3, 2), 7);
    }

    #[test]
    fn direct_neighbor_regions_share_a_face() {
        // Direct neighbors share a (d-1)-dimensional surface, indirect
        // neighbors a (d-2)-dimensional one (Section 3.1).
        let q = QuadrantSplitter::midpoint(3).unwrap();
        let a = q.bucket_region(0b000);
        let b = q.bucket_region(0b001);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_volume(&b), 0.0);
    }
}
