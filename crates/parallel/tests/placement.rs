//! The default placement: the paper's near-optimal coloring over a median
//! quadrant partition, with every bucket denser than
//! `2 × disks × leaf_capacity` points re-declustered at its own medians
//! (Section 4.3). Clustered data must reach every disk, answers must stay
//! exact, and every rebuild must re-derive the refinement.

use std::collections::BTreeSet;
use std::sync::Arc;

use parsim_datagen::{ClusteredGenerator, DataGenerator, FourierGenerator, UniformGenerator};
use parsim_decluster::{median_splits, BucketBased, Declusterer, NearOptimal};
use parsim_geometry::Point;
use parsim_index::knn::brute_force_knn;
use parsim_index::node::Node;
use parsim_parallel::{IngestConfig, ParallelKnnEngine, QueryOptions};

const DIM: usize = 16;
const DISKS: usize = 8;
const K: usize = 10;

/// The flat placement the default used to be: near-optimal coloring over
/// one median quadrant partition of `points`.
fn flat(points: &[Point]) -> Arc<dyn Declusterer> {
    Arc::new(BucketBased::new(
        NearOptimal::new(points[0].dim(), DISKS).unwrap(),
        median_splits(points).unwrap(),
    ))
}

/// Busiest-disk load over the mean load.
fn max_over_avg(loads: &[usize]) -> f64 {
    let total: usize = loads.iter().sum();
    *loads.iter().max().unwrap() as f64 / (total as f64 / loads.len() as f64)
}

/// The disk whose primary tree holds each of `items`.
fn disks_of(e: &ParallelKnnEngine, items: &[u64]) -> Vec<usize> {
    let wanted: BTreeSet<u64> = items.iter().copied().collect();
    let mut found = std::collections::BTreeMap::new();
    let mut disk = 0;
    e.for_each_tree(|tree| {
        for node in tree.iter_nodes() {
            if let Node::Leaf { entries, .. } = node {
                for (_, item) in entries.iter() {
                    if wanted.contains(&item) {
                        found.insert(item, disk);
                    }
                }
            }
        }
        disk += 1;
    });
    items.iter().map(|i| found[i]).collect()
}

/// Mean per-query busiest-disk imbalance; asserts every answer's distance
/// sequence is bit-identical to the brute-force reference.
fn mean_imbalance(e: &ParallelKnnEngine, points: &[Point], queries: &[Point]) -> f64 {
    let items: Vec<(Point, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let mut sum = 0.0;
    for q in queries {
        let res = e.query(q, &QueryOptions::new(K)).unwrap();
        let got: Vec<u64> = res.neighbors.iter().map(|n| n.dist.to_bits()).collect();
        let want: Vec<u64> = brute_force_knn(&items, q, K)
            .iter()
            .map(|n| n.dist.to_bits())
            .collect();
        assert_eq!(got, want, "{}", e.declusterer().name());
        sum += res.cost.imbalance();
    }
    sum / queries.len() as f64
}

#[test]
fn refined_default_balances_clustered_queries_and_stays_exact() {
    let all = ClusteredGenerator::new(DIM, 8, 0.05).generate(16_060, 21);
    let (points, queries) = all.split_at(16_000);
    let refined = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .build(points)
        .unwrap();
    let baseline = ParallelKnnEngine::builder(DIM)
        .declusterer(flat(points))
        .build(points)
        .unwrap();
    assert!(refined.declusterer().name().contains("recursive(x"));
    let refined_imb = mean_imbalance(&refined, points, queries);
    let flat_imb = mean_imbalance(&baseline, points, queries);
    assert!(
        refined_imb < 0.7 * flat_imb,
        "refined {refined_imb:.3} vs flat {flat_imb:.3}"
    );
}

#[test]
fn refined_default_is_exact_on_duplicate_heavy_fourier_data() {
    // At d = 8 the Fourier descriptors of near-identical part variants
    // coincide: hundreds of exact duplicates, i.e. exact distance ties.
    let dim = 8;
    let all = FourierGenerator::new(dim).generate(12_040, 4);
    let (points, queries) = all.split_at(12_000);
    let distinct: BTreeSet<Vec<u64>> = points
        .iter()
        .map(|p| p.iter().map(|c| c.to_bits()).collect())
        .collect();
    assert!(points.len() - distinct.len() > 100, "expected duplicates");
    let queries: Vec<Point> = queries.iter().chain(&points[..20]).cloned().collect();
    let refined = ParallelKnnEngine::builder(dim)
        .disks(DISKS)
        .build(points)
        .unwrap();
    assert!(!refined.declusterer().name().ends_with("(x1)"));
    let baseline = ParallelKnnEngine::builder(dim)
        .declusterer(flat(points))
        .build(points)
        .unwrap();
    mean_imbalance(&refined, points, &queries);
    mean_imbalance(&baseline, points, &queries);
}

#[test]
fn inserts_into_a_refined_region_land_on_the_child_partitions_disks() {
    let points = ClusteredGenerator::new(DIM, 8, 0.05).generate(16_000, 8);
    let e = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .ingest(IngestConfig::new(4096).with_rebuild_threshold(4096))
        .build(&points)
        .unwrap();
    // The densest root bucket and its own per-axis medians.
    let root = median_splits(&points).unwrap();
    let mut buckets = std::collections::HashMap::<u64, Vec<&Point>>::new();
    for p in &points {
        buckets.entry(root.bucket_of(p)).or_default().push(p);
    }
    let dense = buckets.values().max_by_key(|b| b.len()).unwrap();
    assert!(dense.len() > 2 * DISKS * 30, "no dense bucket");
    let center: Vec<f64> = (0..DIM)
        .map(|axis| {
            let mut col: Vec<f64> = dense.iter().map(|p| p[axis]).collect();
            col.sort_by(f64::total_cmp);
            col[col.len() / 2]
        })
        .collect();
    // A tight blob around that center: under the flat placement it sits in
    // the dense bucket, on one disk.
    let blob = ClusteredGenerator::new(DIM, 1, 0.002).generate(400, 3);
    let inserted: Vec<(Point, u64)> = blob
        .iter()
        .map(|b| {
            let p = Point::new(
                (0..DIM)
                    .map(|axis| center[axis] + (b[axis] - blob[0][axis]))
                    .collect(),
            )
            .unwrap();
            let id = e.insert(p.clone()).unwrap();
            (p, id)
        })
        .collect();
    e.flush().unwrap();
    assert_eq!(e.delta_size(), 0);
    let ids: Vec<u64> = inserted.iter().map(|&(_, id)| id).collect();
    let placed = disks_of(&e, &ids);
    let declusterer = e.declusterer();
    for ((p, id), disk) in inserted.iter().zip(&placed) {
        assert_eq!(*disk, declusterer.assign(*id, p));
    }
    let all: Vec<Point> = points
        .iter()
        .chain(inserted.iter().map(|(p, _)| p))
        .cloned()
        .collect();
    let flat = flat(&all);
    let flat_disks: BTreeSet<usize> = inserted.iter().map(|(p, id)| flat.assign(*id, p)).collect();
    let refined_disks: BTreeSet<usize> = placed.into_iter().collect();
    assert_eq!(refined_disks.len(), DISKS, "{refined_disks:?}");
    assert!(flat_disks.len() <= 2, "{flat_disks:?}");
}

#[test]
fn reorganize_spreads_a_cluster_taken_in_after_a_uniform_build() {
    let points = UniformGenerator::new(DIM).generate(8_000, 5);
    let e = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .ingest(IngestConfig::new(4096).with_rebuild_threshold(4096))
        .build(&points)
        .unwrap();
    // Uniform data: no bucket is dense, the placement is the flat one.
    assert!(e.declusterer().name().ends_with("(x1)"));
    // A tight box near a corner, inside one root bucket of the union's
    // medians: the flat placement puts all of it on one disk.
    let cluster: Vec<Point> = UniformGenerator::new(DIM)
        .generate(2_000, 6)
        .iter()
        .map(|u| {
            let coords = (0..DIM).map(|axis| {
                let corner = if axis % 2 == 0 { 0.15 } else { 0.85 };
                corner + (u[axis] - 0.5) * 0.06
            });
            Point::new(coords.collect()).unwrap()
        })
        .collect();
    for p in &cluster {
        e.insert(p.clone()).unwrap();
    }
    let all: Vec<Point> = points.iter().chain(&cluster).cloned().collect();
    let flat = flat(&all);
    let mut flat_loads = vec![0usize; DISKS];
    for (i, p) in all.iter().enumerate() {
        flat_loads[flat.assign(i as u64, p)] += 1;
    }
    e.reorganize().unwrap();
    let loads = e.load_distribution();
    assert_eq!(loads.iter().sum::<usize>(), all.len());
    assert!(!e.declusterer().name().ends_with("(x1)"));
    let (refined, flat) = (max_over_avg(&loads), max_over_avg(&flat_loads));
    assert!(refined < 1.3, "refined {refined:.3}: {loads:?}");
    assert!(
        refined < 0.75 * flat,
        "refined {refined:.3} vs flat {flat:.3}"
    );
}
