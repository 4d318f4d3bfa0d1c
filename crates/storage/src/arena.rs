//! Flat, row-major storage for fixed-dimension vectors.
//!
//! The paper's hot loop — scanning the points of a leaf page against a
//! query — is memory-bound long before it is compute-bound. Storing each
//! point as its own heap allocation (`Vec<Point>`, each a `Box<[f64]>`)
//! makes that scan a pointer chase; a [`VectorArena`] instead packs all
//! rows of one leaf into a single `Vec<f64>`:
//!
//! ```text
//! dim = 3, len = 4
//! data: [ x0 y0 z0 | x1 y1 z1 | x2 y2 z2 | x3 y3 z3 ]
//!         row(0)     row(1)     row(2)     row(3)
//! ```
//!
//! so a leaf scan is one linear sweep the prefetcher can follow, and the
//! whole block can be handed to the batch distance kernel
//! (`parsim_geometry::kernel::dist2_batch`) at once.

/// A row-major block of `len()` vectors of `dim` coordinates each.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorArena {
    dim: usize,
    data: Vec<f64>,
}

impl VectorArena {
    /// An empty arena for vectors of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        VectorArena::with_capacity(dim, 0)
    }

    /// An empty arena with room for `rows` vectors before reallocation.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        assert!(dim > 0, "zero-dimensional arena");
        VectorArena {
            dim,
            data: Vec::with_capacity(dim * rows),
        }
    }

    /// Vector dimension of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True if no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    #[inline]
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.data.extend_from_slice(row);
    }

    /// The `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole arena as one flat row-major slice — the block view the
    /// exact batch distance kernel consumes.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Iterates over the rows in order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// Removes row `i` by moving the last row into its slot (O(dim), does
    /// not preserve order) — mirrors `Vec::swap_remove`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        assert!(i <= last, "row index out of bounds");
        if i < last {
            for c in 0..self.dim {
                self.data[i * self.dim + c] = self.data[last * self.dim + c];
            }
        }
        self.data.truncate(last * self.dim);
    }

    /// Removes all rows, keeping the allocation and the dimension.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_and_flat_views_agree() {
        let mut a = VectorArena::new(3);
        assert!(a.is_empty());
        a.push(&[1.0, 2.0, 3.0]);
        a.push(&[4.0, 5.0, 6.0]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.dim(), 3);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.as_flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let rows: Vec<&[f64]> = a.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
    }

    #[test]
    fn swap_remove_moves_last_row() {
        let mut a = VectorArena::with_capacity(2, 3);
        a.push(&[1.0, 1.0]);
        a.push(&[2.0, 2.0]);
        a.push(&[3.0, 3.0]);
        a.swap_remove(0);
        assert_eq!(a.len(), 2);
        assert_eq!(a.row(0), &[3.0, 3.0]);
        assert_eq!(a.row(1), &[2.0, 2.0]);
        // Removing the last row is a plain truncate.
        a.swap_remove(1);
        assert_eq!(a.len(), 1);
        assert_eq!(a.row(0), &[3.0, 3.0]);
    }

    #[test]
    fn clear_keeps_dimension() {
        let mut a = VectorArena::new(4);
        a.push(&[0.0; 4]);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.dim(), 4);
        a.push(&[1.0; 4]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn push_rejects_wrong_dimension() {
        VectorArena::new(3).push(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn zero_dim_rejected() {
        VectorArena::new(0);
    }
}
