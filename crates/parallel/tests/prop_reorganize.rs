//! Property test of a live `reorganize()`: an engine that buffered
//! inserts and then folded them into a freshly bulk-loaded interior
//! (rebuilding every leaf block) must answer bit-identically to brute
//! force — distances and items — on clustered, correlated, and uniform
//! data, before and after the swap.

use proptest::prelude::*;

use parsim_datagen::{ClusteredGenerator, CorrelatedGenerator, DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::knn::brute_force_knn;
use parsim_parallel::{IngestConfig, ParallelKnnEngine, QueryOptions};

const DIM: usize = 6;
const DISKS: usize = 8;
const N: usize = 1200;
const K: usize = 10;

fn data(shape: u8, seed: u64, n: usize) -> Vec<Point> {
    match shape % 3 {
        0 => UniformGenerator::new(DIM).generate(n, seed),
        1 => ClusteredGenerator::new(DIM, 8, 0.05).generate(n, seed),
        _ => CorrelatedGenerator::new(DIM, 0.05).generate(n, seed),
    }
}

fn assert_exact(e: &ParallelKnnEngine, all: &[(Point, u64)], queries: &[Point]) {
    for q in queries {
        let want = brute_force_knn(all, q, K);
        let opts = QueryOptions::new(K).with_workers(1);
        let got = e
            .query_batch(std::slice::from_ref(q), &opts)
            .unwrap()
            .pop()
            .unwrap();
        prop_assert_eq!(got.neighbors.len(), want.len());
        for (g, w) in got.neighbors.iter().zip(&want) {
            prop_assert_eq!((g.item, g.dist.to_bits()), (w.item, w.dist.to_bits()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn live_reorganize_stays_bit_identical_to_brute_force(
        seed in any::<u64>(),
        shape in any::<u8>(),
    ) {
        let pts = data(shape, seed, N);
        let extra = data(shape, seed.wrapping_add(2), 40);
        let queries = data(shape, seed.wrapping_add(1), 4);
        let e = ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .ingest(IngestConfig::new(64))
            .build(&pts)
            .unwrap();
        let mut all: Vec<(Point, u64)> = pts.iter().cloned().zip(0..).collect();
        for p in &extra {
            let item = e.insert(p.clone()).unwrap();
            all.push((p.clone(), item));
        }
        assert_exact(&e, &all, &queries);
        e.reorganize().unwrap();
        prop_assert_eq!(e.delta_size(), 0);
        prop_assert_eq!(e.len(), all.len());
        assert_exact(&e, &all, &queries);
    }
}
