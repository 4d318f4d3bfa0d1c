//! Distance-kernel microbenchmarks: naive per-coordinate loop vs the
//! unrolled kernel vs the early-abandon variant under a tight bound.
//!
//! The abandon rows use the median full distance of the workload as the
//! bound, so roughly half the evaluations can stop at a checkpoint —
//! a stand-in for the k-th-best bound the k-NN scan prunes against.
//!
//! The `f32_lower_bound` row measures the tiered scan's phase 1 under the
//! same median bound: the f32 bounded kernel against the certified prune
//! threshold — the per-row cost that replaces a full f64 evaluation for
//! every row the tier proves away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use parsim_datagen::{DataGenerator, UniformGenerator};
use parsim_geometry::kernel;

fn naive_dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_kernels");
    for dim in [8usize, 16, 32, 64] {
        let rows: Vec<Vec<f64>> = UniformGenerator::new(dim)
            .generate(256, 1)
            .into_iter()
            .map(|p| p.coords().to_vec())
            .collect();
        let query = UniformGenerator::new(dim).generate(1, 2)[0]
            .coords()
            .to_vec();
        let mut dists: Vec<f64> = rows.iter().map(|r| kernel::dist2(&query, r)).collect();
        dists.sort_by(f64::total_cmp);
        let bound = dists[dists.len() / 2];

        group.bench_with_input(BenchmarkId::new("naive", dim), &dim, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for r in &rows {
                    acc += naive_dist2(black_box(&query), r);
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("kernel", dim), &dim, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for r in &rows {
                    acc += kernel::dist2(black_box(&query), r);
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("early_abandon", dim), &dim, |b, _| {
            b.iter(|| {
                let mut kept = 0usize;
                for r in &rows {
                    if kernel::dist2_bounded(black_box(&query), r, bound).is_some() {
                        kept += 1;
                    }
                }
                kept
            })
        });

        // Phase-1 f32 mirror scan: certified threshold, bounded kernel.
        let rows32: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| r.iter().map(|&c| c as f32).collect())
            .collect();
        let query32: Vec<f32> = query.iter().map(|&c| c as f32).collect();
        let rq32 = kernel::displacement_norm_f32(&query, &query32);
        let rx32 = rows
            .iter()
            .zip(&rows32)
            .map(|(r, m)| kernel::displacement_norm_f32(r, m))
            .fold(0.0f64, f64::max);
        let t32 = kernel::f32_prune_threshold(bound, rq32, rx32, dim);
        let b32 = kernel::f32_kernel_bound(t32);
        group.bench_with_input(BenchmarkId::new("f32_lower_bound", dim), &dim, |b, _| {
            b.iter(|| {
                let mut pruned = 0usize;
                for m in &rows32 {
                    if kernel::f32_row_prunable(
                        kernel::dist2_f32_bounded(black_box(&query32), m, b32),
                        t32,
                    ) {
                        pruned += 1;
                    }
                }
                pruned
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
