//! Distance-kernel microbenchmarks: naive per-coordinate loop vs the
//! unrolled kernel vs the early-abandon variant under a tight bound.
//!
//! The abandon rows use the median full distance of the workload as the
//! bound, so roughly half the evaluations can stop at a checkpoint —
//! a stand-in for the k-th-best bound the k-NN scan prunes against.

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
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
