//! Unrolled distance kernels over flat `&[f64]` slices.
//!
//! Every distance the workspace computes ultimately lands here: the
//! [`crate::Point`] methods and the [`crate::Metric`] implementations all
//! delegate to these kernels, so the arena-backed leaf scans and the
//! `Vec<Point>` paths produce **bit-identical** results by construction.
//!
//! The kernels process coordinates in chunks of four with four independent
//! accumulators, which breaks the add-latency dependency chain and lets the
//! compiler keep four FMAs (or mul+adds) in flight. The tail (`dim % 4`
//! coordinates) is folded into the first accumulator, and the accumulators
//! are combined as `(s0 + s1) + (s2 + s3)` — a fixed reduction order, so a
//! given build computes one well-defined value per input pair.
//!
//! The `*_bounded` variants implement **partial-distance early abandon**:
//! after each chunk of [`CHECKPOINT_LANES`] terms they compare the running
//! sum against the caller's bound (the current k-th-best distance) and bail
//! with `None` once it is exceeded. Because every term is non-negative and
//! IEEE-754 rounding is monotone, the running sum never decreases, so a
//! checkpoint that exceeds the bound proves the full distance would too —
//! abandoning is *exact*, never approximate. When the scan survives every
//! checkpoint, the returned `Some(value)` is bit-identical to the unbounded
//! kernel because both run the very same accumulation.

/// Accumulator-lane count of every kernel in this module — and therefore
/// the **checkpoint cadence** of the `*_bounded` variants, which compare
/// the running sum against the bound once per `CHECKPOINT_LANES` terms.
///
/// The kernel bodies hard-code the width in their `chunks_exact(4)` /
/// `xa[0..=3]` shape; the compile-time guard below and
/// `checkpoint_cadence_is_four_lanes` in the test module keep the constant
/// and the bodies from drifting apart, so the abandon-depth counters stay
/// in units of this many coordinates.
pub const CHECKPOINT_LANES: usize = 4;

// The kernel bodies index lanes 0..=3 explicitly; they must agree with the
// advertised cadence.
const _: () = assert!(CHECKPOINT_LANES == 4);

/// Fused multiply-add when the target actually has an FMA unit, plain
/// mul+add otherwise.
///
/// On the baseline `x86-64` target (SSE2 only) `f64::mul_add` lowers to a
/// libm soft-float call that is an order of magnitude slower than a mul and
/// an add, so the fused form is only worth emitting when
/// `target_feature = "fma"` is enabled (e.g. `-C target-cpu=native`).
#[inline(always)]
fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// Squared Euclidean distance between two coordinate slices.
///
/// This is *the* canonical L2 arithmetic of the workspace:
/// [`crate::Point::dist2`] delegates here.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        let d0 = xa[0] - xb[0];
        let d1 = xa[1] - xb[1];
        let d2 = xa[2] - xb[2];
        let d3 = xa[3] - xb[3];
        s0 = fmadd(d0, d0, s0);
        s1 = fmadd(d1, d1, s1);
        s2 = fmadd(d2, d2, s2);
        s3 = fmadd(d3, d3, s3);
    }
    for (x, y) in ta.iter().zip(tb) {
        let d = x - y;
        s0 = fmadd(d, d, s0);
    }
    (s0 + s1) + (s2 + s3)
}

/// Manhattan (L1) distance between two coordinate slices.
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        s0 += (xa[0] - xb[0]).abs();
        s1 += (xa[1] - xb[1]).abs();
        s2 += (xa[2] - xb[2]).abs();
        s3 += (xa[3] - xb[3]).abs();
    }
    for (x, y) in ta.iter().zip(tb) {
        s0 += (x - y).abs();
    }
    (s0 + s1) + (s2 + s3)
}

/// Chebyshev (L∞ / maximum) distance between two coordinate slices.
///
/// `max` is exactly order-independent over non-negative terms, so this
/// kernel agrees bit-for-bit with any sequential fold.
#[inline]
pub fn chebyshev(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        s0 = s0.max((xa[0] - xb[0]).abs());
        s1 = s1.max((xa[1] - xb[1]).abs());
        s2 = s2.max((xa[2] - xb[2]).abs());
        s3 = s3.max((xa[3] - xb[3]).abs());
    }
    for (x, y) in ta.iter().zip(tb) {
        s0 = s0.max((x - y).abs());
    }
    (s0.max(s1)).max(s2.max(s3))
}

/// Squared Euclidean distance with partial-distance early abandon.
///
/// Returns `None` as soon as a chunk checkpoint proves the full distance
/// exceeds `bound`; otherwise `Some(d2)` where `d2` is bit-identical to
/// [`dist2`]. `Some(d2)` with `d2 > bound` is possible when only the tail
/// coordinates push the sum over — callers comparing against an exact
/// radius must re-check.
#[inline]
pub fn dist2_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    dist2_bounded_depth(a, b, bound).0
}

/// [`dist2_bounded`] plus the number of checkpoint comparisons performed.
///
/// The second value is the **abandon depth** in units of
/// [`CHECKPOINT_LANES`] coordinates: an abandon at the `c`-th checkpoint
/// returns `(None, c)`, meaning `c · CHECKPOINT_LANES` coordinates were
/// consumed before the partial sum cleared the bound; a survivor returns
/// `(Some(d2), dim / CHECKPOINT_LANES)`. The `Option` is bit-identical to
/// [`dist2_bounded`] — the counter only observes the checkpoints the
/// shared accumulation already evaluates.
#[inline]
pub fn dist2_bounded_depth(a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, u64) {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let mut cp = 0u64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        let d0 = xa[0] - xb[0];
        let d1 = xa[1] - xb[1];
        let d2 = xa[2] - xb[2];
        let d3 = xa[3] - xb[3];
        s0 = fmadd(d0, d0, s0);
        s1 = fmadd(d1, d1, s1);
        s2 = fmadd(d2, d2, s2);
        s3 = fmadd(d3, d3, s3);
        cp += 1;
        if (s0 + s1) + (s2 + s3) > bound {
            return (None, cp);
        }
    }
    for (x, y) in ta.iter().zip(tb) {
        let d = x - y;
        s0 = fmadd(d, d, s0);
    }
    (Some((s0 + s1) + (s2 + s3)), cp)
}

/// Manhattan distance with partial-distance early abandon (see
/// [`dist2_bounded`] for the contract).
#[inline]
pub fn manhattan_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        s0 += (xa[0] - xb[0]).abs();
        s1 += (xa[1] - xb[1]).abs();
        s2 += (xa[2] - xb[2]).abs();
        s3 += (xa[3] - xb[3]).abs();
        if (s0 + s1) + (s2 + s3) > bound {
            return None;
        }
    }
    for (x, y) in ta.iter().zip(tb) {
        s0 += (x - y).abs();
    }
    Some((s0 + s1) + (s2 + s3))
}

/// Chebyshev distance with early abandon (see [`dist2_bounded`] for the
/// contract).
#[inline]
pub fn chebyshev_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        s0 = s0.max((xa[0] - xb[0]).abs());
        s1 = s1.max((xa[1] - xb[1]).abs());
        s2 = s2.max((xa[2] - xb[2]).abs());
        s3 = s3.max((xa[3] - xb[3]).abs());
        if (s0.max(s1)).max(s2.max(s3)) > bound {
            return None;
        }
    }
    for (x, y) in ta.iter().zip(tb) {
        s0 = s0.max((x - y).abs());
    }
    Some((s0.max(s1)).max(s2.max(s3)))
}

/// Scans a whole row-major block of vectors against one query, writing the
/// squared Euclidean distance of every row into `out`.
///
/// `block` must hold `out.len()` rows of `dim` coordinates each. Each
/// written distance is bit-identical to [`dist2`] on the corresponding row.
///
/// # Panics
///
/// Panics if `block.len() != out.len() * dim` or the query has the wrong
/// dimension.
pub fn dist2_batch(query: &[f64], block: &[f64], dim: usize, out: &mut [f64]) {
    assert!(dim > 0, "zero-dimensional block");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(block.len(), out.len() * dim, "block/out shape mismatch");
    for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
        *slot = dist2(query, row);
    }
}

/// Squared Euclidean distance between two f32 slices, single precision.
///
/// Kept, with [`dist2_batch_f32`], only because the `perfbench` benchmark
/// times the f32 kernel (`kernel.f32_ns_per_row`); no engine scan uses it.
/// Four-lane accumulation like [`dist2`], as plain mul+add.
#[inline]
pub fn dist2_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f32;
    let mut s1 = 0.0f32;
    let mut s2 = 0.0f32;
    let mut s3 = 0.0f32;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        let d0 = xa[0] - xb[0];
        let d1 = xa[1] - xb[1];
        let d2 = xa[2] - xb[2];
        let d3 = xa[3] - xb[3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    for (x, y) in ta.iter().zip(tb) {
        let d = x - y;
        s0 += d * d;
    }
    (s0 + s1) + (s2 + s3)
}

/// Scans a row-major f32 block against one f32 query, writing every row's
/// [`dist2_f32`] into `out`. Kept for the `perfbench` benchmark only (see
/// [`dist2_f32`]).
///
/// # Panics
///
/// Panics if `block.len() != out.len() * dim` or the query has the wrong
/// dimension.
pub fn dist2_batch_f32(query: &[f32], block: &[f32], dim: usize, out: &mut [f32]) {
    assert!(dim > 0, "zero-dimensional block");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(block.len(), out.len() * dim, "block/out shape mismatch");
    for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
        *slot = dist2_f32(query, row);
    }
}

/// Magnitude cap on the wide i32 query codes of the weighted q8 kernels.
///
/// Kept, with [`dist2_q8w_bounded_depth`] and
/// [`dist2_batch_q8w_bounded_depth`], only because the `perfbench`
/// benchmark times the weighted q8 kernel (`kernel.q8w_ns_per_row`); no
/// engine scan tier uses them.
///
/// With `|code| ≤ 2²⁵` the difference against a row code (`∈ [0, 255]`)
/// stays below `2²⁶`, so its square is below `2⁵²` and exactly
/// representable in f64. Callers clamp query codes to this cap.
pub const Q8W_CODE_CAP: i32 = 1 << 25;

/// Weighted code-space squared distance for **per-dimension** 8-bit grids,
/// `Σ_j w[j] · (a[j] − b[j])²` accumulated in f64 (`w[j]` the squared grid
/// step of lane `j`), with early abandon at the [`CHECKPOINT_LANES`]
/// cadence plus the checkpoint count (see [`dist2_bounded_depth`]).
///
/// Kept for the `perfbench` benchmark only (see [`Q8W_CODE_CAP`]). The
/// query side `a` is wide i32 codes that may leave `[0, 255]`; the integer
/// code difference squared is exact in f64, so the only rounding is the
/// weight product and the four-lane accumulation. Every term is
/// non-negative and IEEE addition is monotone, so a checkpoint above
/// `bound` proves the full sum would be too.
#[inline]
pub fn dist2_q8w_bounded_depth(a: &[i32], b: &[u8], w: &[f64], bound: f64) -> (Option<f64>, u64) {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    debug_assert_eq!(a.len(), w.len(), "weight dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let mut cp = 0u64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let cw = w.chunks_exact(4);
    let (ta, tb, tw) = (ca.remainder(), cb.remainder(), cw.remainder());
    for ((xa, xb), xw) in ca.zip(cb).zip(cw) {
        let d0 = (xa[0] as i64 - xb[0] as i64).pow(2) as f64;
        let d1 = (xa[1] as i64 - xb[1] as i64).pow(2) as f64;
        let d2 = (xa[2] as i64 - xb[2] as i64).pow(2) as f64;
        let d3 = (xa[3] as i64 - xb[3] as i64).pow(2) as f64;
        s0 += xw[0] * d0;
        s1 += xw[1] * d1;
        s2 += xw[2] * d2;
        s3 += xw[3] * d3;
        cp += 1;
        if (s0 + s1) + (s2 + s3) > bound {
            return (None, cp);
        }
    }
    for ((x, y), wj) in ta.iter().zip(tb).zip(tw) {
        let d = (*x as i64 - *y as i64).pow(2) as f64;
        s0 += wj * d;
    }
    (Some((s0 + s1) + (s2 + s3)), cp)
}

/// Scans a row-major q8 code block against one quantized query with
/// [`dist2_q8w_bounded_depth`], abandoning rows at `bound` and returning
/// `(abandoned_rows, abandon_checkpoints)`: the second figure sums the
/// checkpoint count of every **abandoned** row, so `abandon_checkpoints /
/// abandoned_rows` is the mean abandon depth in [`CHECKPOINT_LANES`]
/// units. Kept for the `perfbench` benchmark only (see [`Q8W_CODE_CAP`]).
///
/// # Panics
///
/// Panics if `block.len() != out.len() * dim`, or the query or weight
/// vector has the wrong dimension.
pub fn dist2_batch_q8w_bounded_depth(
    query: &[i32],
    block: &[u8],
    w: &[f64],
    dim: usize,
    bound: f64,
    out: &mut [Option<f64>],
) -> (u64, u64) {
    assert!(dim > 0, "zero-dimensional block");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(w.len(), dim, "weight dimension mismatch");
    assert_eq!(block.len(), out.len() * dim, "block/out shape mismatch");
    let (mut rows, mut cps) = (0u64, 0u64);
    for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
        let (s, cp) = dist2_q8w_bounded_depth(query, row, w, bound);
        if s.is_none() {
            rows += 1;
            cps += cp;
        }
        *slot = s;
    }
    (rows, cps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dist2(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    fn vecs(dim: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic, mildly irregular coordinates covering the tail
        // paths of every chunking scheme.
        let a: Vec<f64> = (0..dim)
            .map(|i| (i as f64 * 0.37).sin() * 0.5 + 0.5)
            .collect();
        let b: Vec<f64> = (0..dim)
            .map(|i| (i as f64 * 0.61).cos() * 0.5 + 0.5)
            .collect();
        (a, b)
    }

    #[test]
    fn dist2_matches_naive_closely_for_all_tail_lengths() {
        for dim in 1..=17 {
            let (a, b) = vecs(dim);
            let k = dist2(&a, &b);
            let n = naive_dist2(&a, &b);
            assert!((k - n).abs() <= 1e-12 * n.max(1.0), "dim {dim}: {k} vs {n}");
        }
    }

    #[test]
    fn small_dims_are_exact() {
        // Dims below the unroll width take the pure tail path, which is the
        // plain sequential sum.
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(manhattan(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
        assert_eq!(chebyshev(&[0.0, 0.0], &[3.0, 4.0]), 4.0);
    }

    #[test]
    fn bounded_some_is_bit_identical_to_full() {
        for dim in [1usize, 3, 4, 5, 8, 13, 16, 31] {
            let (a, b) = vecs(dim);
            let full = dist2(&a, &b);
            // A bound the scan always survives.
            let got = dist2_bounded(&a, &b, f64::INFINITY).unwrap();
            assert_eq!(got.to_bits(), full.to_bits(), "dim {dim}");
            let full = manhattan(&a, &b);
            let got = manhattan_bounded(&a, &b, f64::INFINITY).unwrap();
            assert_eq!(got.to_bits(), full.to_bits(), "dim {dim}");
            let full = chebyshev(&a, &b);
            let got = chebyshev_bounded(&a, &b, f64::INFINITY).unwrap();
            assert_eq!(got.to_bits(), full.to_bits(), "dim {dim}");
        }
    }

    #[test]
    fn bounded_abandons_only_above_the_bound() {
        let (a, b) = vecs(32);
        let full = dist2(&a, &b);
        // Bound below the true distance: may abandon (and here, with 8
        // chunks, certainly does for a tiny bound).
        assert_eq!(dist2_bounded(&a, &b, full / 16.0), None);
        // Bound at exactly the true distance: `>` means it must survive.
        assert_eq!(dist2_bounded(&a, &b, full), Some(full));
        assert_eq!(
            manhattan_bounded(&a, &b, manhattan(&a, &b)),
            Some(manhattan(&a, &b))
        );
        assert_eq!(
            chebyshev_bounded(&a, &b, chebyshev(&a, &b)),
            Some(chebyshev(&a, &b))
        );
    }

    #[test]
    fn batch_matches_single_rows() {
        let dim = 7;
        let rows = 5;
        let (q, _) = vecs(dim);
        let block: Vec<f64> = (0..rows * dim).map(|i| (i as f64 * 0.13).fract()).collect();
        let mut out = vec![0.0; rows];
        dist2_batch(&q, &block, dim, &mut out);
        for (r, row) in block.chunks_exact(dim).enumerate() {
            assert_eq!(out[r].to_bits(), dist2(&q, row).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn batch_rejects_ragged_blocks() {
        let mut out = vec![0.0; 2];
        dist2_batch(&[0.5, 0.5], &[0.0; 5], 2, &mut out);
    }

    /// Pins the checkpoint cadence the depth counters report in: bounded
    /// kernels check once per [`CHECKPOINT_LANES`] coordinates and never in
    /// the tail. If someone widens the unroll without updating
    /// [`CHECKPOINT_LANES`], this fails.
    #[test]
    fn checkpoint_cadence_is_four_lanes() {
        // One full chunk whose sum exceeds the bound: must abandon at the
        // first (and only) checkpoint.
        let big = vec![10.0f64; CHECKPOINT_LANES * 2];
        let zero = vec![0.0f64; CHECKPOINT_LANES * 2];
        assert_eq!(dist2_bounded(&big, &zero, 1.0), None);
        // Same mass moved entirely into the tail (dim = lanes + 1, chunk
        // part zero): the tail is never checkpointed, so the kernel must
        // return Some(value > bound) instead of abandoning.
        let mut tail_heavy = vec![0.0f64; CHECKPOINT_LANES + 1];
        tail_heavy[CHECKPOINT_LANES] = 10.0;
        let zeros = vec![0.0f64; CHECKPOINT_LANES + 1];
        let got = dist2_bounded(&tail_heavy, &zeros, 1.0);
        assert_eq!(got, Some(100.0), "tail coordinates must not checkpoint");
    }

    #[test]
    fn f32_kernel_matches_f64_shape() {
        for dim in [1usize, 3, 4, 5, 8, 13, 16, 31] {
            let (a, b) = vecs(dim);
            let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            let s = dist2_f32(&a32, &b32);
            let full = dist2(&a, &b);
            // Same accumulation shape, lower precision: close, not equal.
            assert!(
                (s as f64 - full).abs() <= 1e-5 * full.max(1.0),
                "dim {dim}: {s} vs {full}"
            );
        }
    }

    #[test]
    fn tier_batches_match_row_kernels() {
        let dim = 7;
        let rows = 5;
        let block32: Vec<f32> = (0..rows * dim).map(|i| (i as f32 * 0.13).fract()).collect();
        let q32: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).fract()).collect();
        let mut out32 = vec![0.0f32; rows];
        dist2_batch_f32(&q32, &block32, dim, &mut out32);
        for (r, row) in block32.chunks_exact(dim).enumerate() {
            assert_eq!(out32[r].to_bits(), dist2_f32(&q32, row).to_bits());
        }
    }

    #[test]
    fn depth_variants_are_bit_identical_and_count_checkpoints() {
        for dim in [1usize, 3, 4, 5, 8, 13, 16, 32] {
            let (a, b) = vecs(dim);
            // Survivors: same value, checkpoints = full chunks.
            let (s, cp) = dist2_bounded_depth(&a, &b, f64::INFINITY);
            assert_eq!(s.unwrap().to_bits(), dist2(&a, &b).to_bits(), "dim {dim}");
            assert_eq!(cp, (dim / CHECKPOINT_LANES) as u64, "dim {dim}");
        }
        // An abandon reports the checkpoint it fired at: uniform mass means
        // the very first checkpoint clears a tiny bound.
        let big = vec![1.0f64; 32];
        let zero = vec![0.0f64; 32];
        assert_eq!(dist2_bounded_depth(&big, &zero, 1.0), (None, 1));
        // Mass only in the last chunk: every earlier checkpoint survives.
        let mut late = vec![0.0f64; 32];
        late[31] = 10.0;
        assert_eq!(dist2_bounded_depth(&late, &zero, 1.0), (None, 8));
    }

    #[test]
    fn q8w_kernel_matches_naive_weighted_sum() {
        for dim in [1usize, 3, 4, 5, 8, 13, 16, 31] {
            // Query codes are wide i32 and may leave [0, 255].
            let a: Vec<i32> = (0..dim).map(|i| (i as i32 * 37 % 600) - 100).collect();
            let b: Vec<u8> = (0..dim).map(|i| (i * 91 % 256) as u8).collect();
            let w: Vec<f64> = (0..dim).map(|i| ((i * 7 % 5) as f64) * 1e-4).collect();
            let naive: f64 = a
                .iter()
                .zip(&b)
                .zip(&w)
                .map(|((&x, &y), &wj)| {
                    let d = ((x as i64 - y as i64).pow(2)) as f64;
                    wj * d
                })
                .sum();
            // Unbounded survival returns the full sum, and the checkpoint
            // cadence matches the other kernels.
            let (s, cp) = dist2_q8w_bounded_depth(&a, &b, &w, f64::INFINITY);
            let got = s.unwrap();
            assert!(
                (got - naive).abs() <= 1e-12 * naive.max(1.0),
                "dim {dim}: {got} vs {naive}"
            );
            assert_eq!(cp, (dim / CHECKPOINT_LANES) as u64);
            // The batch form runs the same kernel per row.
            let mut out = vec![None; 2];
            let block: Vec<u8> = b.iter().chain(&b).copied().collect();
            let (ab, _) =
                dist2_batch_q8w_bounded_depth(&a, &block, &w, dim, f64::INFINITY, &mut out);
            assert_eq!(ab, 0);
            assert_eq!(out, vec![Some(got); 2], "dim {dim}");
        }
        // Abandon fires at the checkpoint, never in the tail.
        let big = vec![200i32; CHECKPOINT_LANES * 2];
        let zero = vec![0u8; CHECKPOINT_LANES * 2];
        let w = vec![1.0f64; CHECKPOINT_LANES * 2];
        assert_eq!(dist2_q8w_bounded_depth(&big, &zero, &w, 10.0), (None, 1));
        let mut tq = vec![0i32; CHECKPOINT_LANES + 1];
        tq[CHECKPOINT_LANES] = 200;
        let w = vec![1.0f64; CHECKPOINT_LANES + 1];
        assert_eq!(
            dist2_q8w_bounded_depth(&tq, &vec![0u8; tq.len()], &w, 10.0).0,
            Some(40_000.0)
        );
        // Wide codes at the cap stay exact: d² = (2²⁵ − 255)² round-trips
        // through f64 with no rounding.
        let far = vec![Q8W_CODE_CAP];
        let row = vec![255u8];
        let d = Q8W_CODE_CAP as i64 - 255;
        let exact = |a: &[i32]| dist2_q8w_bounded_depth(a, &row, &[1.0], f64::INFINITY).0;
        assert_eq!(exact(&[-255i32]), Some((510i64 * 510) as f64));
        assert_eq!(exact(&far), Some((d * d) as f64));
    }
}
