//! Property tests for the unrolled distance kernels.
//!
//! The kernels accumulate in four lanes, so their sums may differ from a
//! naive sequential loop by rounding only — the properties here pin the
//! tolerance for all dimensions `1..=64` and all three metrics. The
//! early-abandon variants must be *bit-for-bound* honest: a returned
//! value is bit-identical to the full kernel, and `None` occurs only when
//! the true result exceeds the caller's bound.

use parsim_geometry::kernel;
use proptest::prelude::*;

fn naive_dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn naive_manhattan(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

fn naive_chebyshev(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Two random vectors of one random dimension in `1..=max_dim`.
fn pair(max_dim: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1usize..=max_dim).prop_flat_map(|dim| {
        (
            prop::collection::vec(-1.0f64..1.0, dim),
            prop::collection::vec(-1.0f64..1.0, dim),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dist2_matches_naive((a, b) in pair(64)) {
        let got = kernel::dist2(&a, &b);
        let want = naive_dist2(&a, &b);
        prop_assert!(
            (got - want).abs() <= 1e-12 * want.max(1.0),
            "dim {}: {got} vs {want}", a.len()
        );
    }

    #[test]
    fn manhattan_matches_naive((a, b) in pair(64)) {
        let got = kernel::manhattan(&a, &b);
        let want = naive_manhattan(&a, &b);
        prop_assert!(
            (got - want).abs() <= 1e-12 * want.max(1.0),
            "dim {}: {got} vs {want}", a.len()
        );
    }

    #[test]
    fn chebyshev_is_bit_identical_to_naive((a, b) in pair(64)) {
        // Max has no rounding, so lane order cannot change the result.
        let got = kernel::chebyshev(&a, &b);
        prop_assert_eq!(got.to_bits(), naive_chebyshev(&a, &b).to_bits());
    }

    #[test]
    fn bounded_kernels_are_bit_for_bound((a, b) in pair(64), frac in 0.0f64..1.5) {
        type Full = fn(&[f64], &[f64]) -> f64;
        type Bounded = fn(&[f64], &[f64], f64) -> Option<f64>;
        let cases: [(Full, Bounded); 3] = [
            (kernel::dist2, kernel::dist2_bounded),
            (kernel::manhattan, kernel::manhattan_bounded),
            (kernel::chebyshev, kernel::chebyshev_bounded),
        ];
        for (full, bounded) in cases {
            let v = full(&a, &b);
            let bound = v * frac;
            match bounded(&a, &b, bound) {
                // A returned value is the full kernel's value, bit for bit.
                Some(got) => prop_assert_eq!(got.to_bits(), v.to_bits()),
                // Abandoning is only allowed when the truth exceeds the bound.
                None => prop_assert!(v > bound, "abandoned although {v} <= {bound}"),
            }
        }
    }

    #[test]
    fn batch_matches_row_kernels(
        (dim, q, block) in (1usize..=32).prop_flat_map(|dim| {
            (
                Just(dim),
                prop::collection::vec(-1.0f64..1.0, dim),
                (0usize..=8).prop_flat_map(move |rows| {
                    prop::collection::vec(-1.0f64..1.0, rows * dim)
                }),
            )
        })
    ) {
        let rows = block.len() / dim;
        let mut out = vec![0.0f64; rows];
        kernel::dist2_batch(&q, &block, dim, &mut out);
        for (i, o) in out.iter().enumerate() {
            let row = &block[i * dim..(i + 1) * dim];
            prop_assert_eq!(o.to_bits(), kernel::dist2(&q, row).to_bits());
        }
    }
}
