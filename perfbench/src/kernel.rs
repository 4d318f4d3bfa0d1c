//! `geometry::kernel` timed on its own: the full-scan batch kernels of
//! the three precision tiers over the workload's own rows.

use std::hint::black_box;
use std::time::{Duration, Instant};

use parsim_geometry::kernel::{
    dist2_batch, dist2_batch_f32, dist2_batch_q8w_bounded_depth, Q8W_CODE_CAP,
};
use parsim_geometry::Point;

use crate::stats::median;

/// A per-dimension 8-bit grid over `rows` (the weighted q8 layout): row
/// codes, per-lane minimum and step, and the kernel weights `step²`.
struct Q8Grid {
    codes: Vec<u8>,
    mins: Vec<f64>,
    steps: Vec<f64>,
    weights: Vec<f64>,
}

impl Q8Grid {
    fn new(rows: &[Point], dim: usize) -> Q8Grid {
        let mut mins = vec![f64::INFINITY; dim];
        let mut maxs = vec![f64::NEG_INFINITY; dim];
        for p in rows {
            for (j, &x) in p.coords().iter().enumerate() {
                mins[j] = mins[j].min(x);
                maxs[j] = maxs[j].max(x);
            }
        }
        let steps: Vec<f64> = mins
            .iter()
            .zip(&maxs)
            .map(|(lo, hi)| (hi - lo) / 255.0)
            .collect();
        let codes = rows
            .iter()
            .flat_map(|p| {
                p.coords()
                    .iter()
                    .zip(mins.iter().zip(&steps))
                    .map(|(&x, (lo, s))| {
                        if *s > 0.0 {
                            ((x - lo) / s).round() as u8
                        } else {
                            0
                        }
                    })
                    .collect::<Vec<u8>>()
            })
            .collect();
        let weights = steps.iter().map(|s| s * s).collect();
        Q8Grid {
            codes,
            mins,
            steps,
            weights,
        }
    }

    fn encode_query(&self, q: &Point) -> Vec<i32> {
        q.coords()
            .iter()
            .zip(self.mins.iter().zip(&self.steps))
            .map(|(&x, (lo, s))| {
                if *s > 0.0 {
                    ((x - lo) / s)
                        .round()
                        .clamp(-(Q8W_CODE_CAP as f64), Q8W_CODE_CAP as f64)
                        as i32
                } else {
                    0
                }
            })
            .collect()
    }
}

/// Median ns per row of one full pass of each tier's batch kernel over
/// `rows`: `(f64, f32, q8w, passes per tier)`. Each tier runs passes,
/// cycling through `queries`, until `budget` is spent (at least three).
pub fn ns_per_row(rows: &[Point], queries: &[Point], budget: Duration) -> (f64, f64, f64, usize) {
    let dim = rows.first().map_or(1, Point::dim);
    let n = rows.len();
    let flat: Vec<f64> = rows
        .iter()
        .flat_map(|p| p.coords().iter().copied())
        .collect();
    let flat32: Vec<f32> = flat.iter().map(|&x| x as f32).collect();
    let grid = Q8Grid::new(rows, dim);

    let time_passes = |mut pass: Box<dyn FnMut(&Point) + '_>| -> (f64, usize) {
        let mut per_row = Vec::new();
        let start = Instant::now();
        while per_row.len() < 3 || start.elapsed() < budget {
            let q = &queries[per_row.len() % queries.len()];
            let t0 = Instant::now();
            pass(q);
            per_row.push(t0.elapsed().as_nanos() as f64 / n as f64);
        }
        let passes = per_row.len();
        (median(&mut per_row), passes)
    };

    let mut out64 = vec![0.0f64; n];
    let (f64_ns, passes) = time_passes(Box::new(|q| {
        dist2_batch(black_box(q.coords()), black_box(&flat), dim, &mut out64);
        black_box(&out64);
    }));
    let mut out32 = vec![0.0f32; n];
    let (f32_ns, _) = time_passes(Box::new(|q| {
        let q32: Vec<f32> = q.coords().iter().map(|&x| x as f32).collect();
        dist2_batch_f32(black_box(&q32), black_box(&flat32), dim, &mut out32);
        black_box(&out32);
    }));
    let mut out8 = vec![None; n];
    let (q8w_ns, _) = time_passes(Box::new(|q| {
        let codes = grid.encode_query(q);
        // An infinite bound never abandons, so the pass scans every row
        // in full like the other two tiers.
        dist2_batch_q8w_bounded_depth(
            black_box(&codes),
            black_box(&grid.codes),
            &grid.weights,
            dim,
            f64::INFINITY,
            &mut out8,
        );
        black_box(&out8);
    }));
    (f64_ns, f32_ns, q8w_ns, passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q8_grid_reconstructs_rows_within_half_a_step() {
        let rows: Vec<Point> = (0..50)
            .map(|i| Point::from_vec(vec![i as f64 / 49.0, 0.5, (i % 7) as f64]))
            .collect();
        let grid = Q8Grid::new(&rows, 3);
        for (r, p) in rows.iter().enumerate() {
            for j in 0..3 {
                let back = grid.mins[j] + grid.codes[r * 3 + j] as f64 * grid.steps[j];
                assert!((back - p.coords()[j]).abs() <= grid.steps[j] / 2.0 + 1e-12);
            }
        }
        // The constant lane carries no weight.
        assert_eq!(grid.weights[1], 0.0);
    }

    #[test]
    fn every_tier_reports_a_positive_time() {
        let rows: Vec<Point> = (0..512)
            .map(|i| {
                Point::from_vec(
                    (0..16)
                        .map(|j| ((i * 31 + j * 7) % 97) as f64 / 97.0)
                        .collect(),
                )
            })
            .collect();
        let (a, b, c, passes) = ns_per_row(&rows, &rows[..4], Duration::from_millis(5));
        assert!(a > 0.0 && b > 0.0 && c > 0.0);
        assert!(passes >= 3);
    }
}
