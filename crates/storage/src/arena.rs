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
//!
//! # Precision mirror
//!
//! Next to the canonical f64 rows the arena maintains an **f32 mirror**
//! (same row-major layout, each coordinate cast), kept in sync on every
//! [`VectorArena::push`] / `swap_remove` / `clear` so bulk load,
//! persistence and incremental inserts all get it for free, together with
//! [`VectorArena::f32_radius`] — the largest certified displacement
//! `‖row − row₃₂‖₂` over all rows.
//!
//! The mirror never answers anything on its own; the two-phase leaf scan
//! uses it with the certified lower-bound helpers in
//! `parsim_geometry::kernel` and re-ranks every surviving row with the f64
//! kernels. The radius is deliberately maintained as an *overestimate* (a
//! `swap_remove` keeps the old maximum): a too-large radius only weakens
//! pruning, never correctness.

use parsim_geometry::kernel::displacement_norm_f32;

/// A row-major block of `len()` vectors of `dim` coordinates each, plus an
/// f32 mirror for the cheap scan tier (see the module docs).
#[derive(Clone, Debug)]
pub struct VectorArena {
    dim: usize,
    /// Canonical rows.
    data: Vec<f64>,
    /// Row-major f32 casts of the rows.
    mirror32: Vec<f32>,
    /// Max over rows of the certified displacement `‖row − row₃₂‖₂`.
    r32: f64,
}

/// Two arenas are equal when they hold the same rows. The mirror state is
/// excluded on purpose: it is a derived cache whose radius depends on the
/// *history* of pushes and removals (overestimates are kept across
/// `swap_remove`), so two arenas with identical contents built along
/// different paths still compare equal.
impl PartialEq for VectorArena {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.data == other.data
    }
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
            mirror32: Vec::with_capacity(dim * rows),
            r32: 0.0,
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

    /// Appends one row and its f32 mirror.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    #[inline]
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.data.extend_from_slice(row);
        // Cast the row, fold its displacement into the radius.
        let start32 = self.mirror32.len();
        self.mirror32.extend(row.iter().map(|&v| v as f32));
        self.r32 = self
            .r32
            .max(displacement_norm_f32(row, &self.mirror32[start32..]));
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

    /// The f32 mirror as one flat row-major slice.
    #[inline]
    pub fn as_flat_f32(&self) -> &[f32] {
        &self.mirror32
    }

    /// Certified overestimate of `max_rows ‖row − row₃₂‖₂` — the `r_x`
    /// input of the f32 lower-bound helpers. May be stale-high after
    /// removals (overestimates are always safe).
    #[inline]
    pub fn f32_radius(&self) -> f64 {
        self.r32
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
                self.mirror32[i * self.dim + c] = self.mirror32[last * self.dim + c];
            }
        }
        self.data.truncate(last * self.dim);
        self.mirror32.truncate(last * self.dim);
        // The radius stays: it remains valid for the surviving rows
        // (shrinking it would require a rescan).
    }

    /// Removes all rows, keeping the allocation and the dimension.
    pub fn clear(&mut self) {
        self.data.clear();
        self.mirror32.clear();
        self.r32 = 0.0;
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
    fn f32_mirror_tracks_rows_and_radius() {
        let mut a = VectorArena::new(2);
        a.push(&[0.1, 0.2]);
        a.push(&[0.3, 0.4]);
        assert_eq!(a.as_flat_f32().len(), 4);
        for (v, m) in a.as_flat().iter().zip(a.as_flat_f32()) {
            assert_eq!(*m, *v as f32);
        }
        // The radius bounds every row's actual displacement.
        for (row, m) in a
            .iter()
            .zip(a.as_flat_f32().chunks_exact(2))
            .collect::<Vec<_>>()
        {
            let d: f64 = row
                .iter()
                .zip(m)
                .map(|(x, y)| (x - *y as f64).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(d <= a.f32_radius());
        }
        // swap_remove keeps the mirror aligned.
        a.push(&[0.5, 0.6]);
        a.swap_remove(0);
        for (v, m) in a.as_flat().iter().zip(a.as_flat_f32()) {
            assert_eq!(*m, *v as f32);
        }
    }

    #[test]
    fn clear_resets_mirrors() {
        let mut a = VectorArena::new(2);
        a.push(&[0.0, 1.0]);
        a.push(&[0.5, 0.25]);
        a.clear();
        assert!(a.as_flat_f32().is_empty());
        assert_eq!(a.f32_radius(), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn zero_dim_rejected() {
        VectorArena::new(0);
    }
}
