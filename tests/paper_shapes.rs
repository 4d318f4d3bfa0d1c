//! Integration tests asserting the qualitative *shapes* of the paper's
//! evaluation — small-scale versions of the figures that must hold on
//! every run (the full-scale versions live in the `figures` binary).

use std::sync::Arc;

use parsim::decluster::quantile::median_splits;
use parsim::parallel::metrics::run_declustered_workload;
use parsim::parallel::DeclusteredXTree;
use parsim::prelude::*;

fn avg_max_pages(engine: &DeclusteredXTree, queries: &[Point], k: usize) -> f64 {
    run_declustered_workload(engine, queries, k)
        .unwrap()
        .avg_max_reads
}

/// Figure 1's shape: sequential NN search cost grows steeply with the
/// dimension.
#[test]
fn sequential_cost_degenerates_with_dimension() {
    let n = 8_000;
    let mut costs = Vec::new();
    for dim in [4usize, 8, 12] {
        let data = UniformGenerator::new(dim).generate(n, 1);
        let config = EngineConfig::paper_defaults(dim);
        let engine = DeclusteredXTree::build_near_optimal(&data, 1, config).unwrap();
        let queries = UniformGenerator::new(dim).generate(5, 2);
        costs.push(avg_max_pages(&engine, &queries, 10));
    }
    assert!(costs[1] > 2.0 * costs[0], "{costs:?}");
    assert!(costs[2] > 2.0 * costs[1], "{costs:?}");
}

/// Figures 13/14's shape: on clustered (Fourier) data the near-optimal
/// declustering clearly beats Hilbert, which beats FX.
#[test]
fn method_ranking_on_fourier_data() {
    let dim = 12;
    let n = 20_000;
    let gen = FourierGenerator::new(dim);
    let data = gen.generate(n, 7);
    let queries = QueryWorkload::DataLike { data_count: n }.generate(&gen, 8, 7);
    let config = EngineConfig::paper_defaults(dim);

    let build = |m: Arc<dyn BucketDecluster>| {
        DeclusteredXTree::build_bucket(&data, m, median_splits(&data).unwrap(), config).unwrap()
    };
    let ours = build(Arc::new(NearOptimal::new(dim, 16).unwrap()));
    let hil = build(Arc::new(HilbertDecluster::new(dim, 16).unwrap()));
    let fx = build(Arc::new(FxXor::new(16).unwrap()));

    let ours_cost = avg_max_pages(&ours, &queries, 10);
    let hil_cost = avg_max_pages(&hil, &queries, 10);
    let fx_cost = avg_max_pages(&fx, &queries, 10);

    assert!(
        ours_cost < hil_cost,
        "near-optimal {ours_cost} !< hilbert {hil_cost}"
    );
    assert!(hil_cost < fx_cost, "hilbert {hil_cost} !< fx {fx_cost}");
    // The paper's headline: a substantial factor over Hilbert.
    assert!(
        hil_cost / ours_cost > 1.3,
        "improvement only {:.2}",
        hil_cost / ours_cost
    );
}

/// Figure 15's shape: scale-up stays bounded when disks and data grow
/// proportionally.
#[test]
fn scale_up_is_nearly_constant() {
    let dim = 12;
    let gen = FourierGenerator::new(dim);
    let config = EngineConfig::paper_defaults(dim);
    let mut times = Vec::new();
    for (disks, n) in [(4usize, 10_000usize), (16, 40_000)] {
        let data = gen.generate(n, 3);
        let queries = QueryWorkload::DataLike { data_count: n }.generate(&gen, 6, 3);
        let engine = DeclusteredXTree::build_near_optimal(&data, disks, config).unwrap();
        times.push(avg_max_pages(&engine, &queries, 10));
    }
    let ratio = times[1] / times[0];
    assert!(
        (0.4..2.5).contains(&ratio),
        "4x problem growth changed cost by {ratio}: {times:?}"
    );
}

/// Figure 16's shape: recursive declustering rescues correlated data.
#[test]
fn recursive_declustering_rescues_correlated_data() {
    use parsim::decluster::recursive::RecursiveConfig;

    let dim = 10;
    let n = 10_000;
    let gen = CorrelatedGenerator::new(dim, 0.05);
    let data = gen.generate(n, 5);
    let queries = QueryWorkload::DataLike { data_count: n }.generate(&gen, 8, 5);
    let config = EngineConfig::paper_defaults(dim);

    let flat_method = BucketBased::new(
        NearOptimal::new(dim, 16).unwrap(),
        median_splits(&data).unwrap(),
    );
    let flat = DeclusteredXTree::build(&data, Arc::new(flat_method), config).unwrap();
    let recursive = RecursiveDeclusterer::build(&data, 16, RecursiveConfig::default()).unwrap();
    assert!(recursive.levels() > 1, "refinement must trigger");
    let rec = DeclusteredXTree::build(&data, Arc::new(recursive), config).unwrap();

    let flat_cost = avg_max_pages(&flat, &queries, 1);
    let rec_cost = avg_max_pages(&rec, &queries, 1);
    assert!(
        rec_cost < 0.7 * flat_cost,
        "flat {flat_cost} vs recursive {rec_cost}"
    );
}

/// Figure 5's shape through the public API: surface concentration.
#[test]
fn surface_concentration_shape() {
    use parsim::geometry::highdim::surface_probability;
    assert!(surface_probability(2, 0.1) < 0.5);
    assert!(surface_probability(16, 0.1) > 0.97);
}

/// The shared-bound parallel search reads no more total pages than the
/// independent per-disk variant — the reason the engine defaults to it.
#[test]
fn shared_bound_beats_independent_search() {
    let dim = 10;
    let data = UniformGenerator::new(dim).generate(15_000, 11);
    let config = EngineConfig::paper_defaults(dim);
    let engine = ParallelKnnEngine::builder(dim)
        .config(config)
        .disks(8)
        .build(&data)
        .unwrap();
    let queries = UniformGenerator::new(dim).generate(10, 12);
    let mut shared = 0u64;
    let mut independent = 0u64;
    for q in &queries {
        let (_, c) = engine.knn(q, 10).unwrap();
        shared += c.total_reads;
        // The share-nothing baseline: every disk's local top-10 searched
        // to completion, with no bound shared between the disks.
        let array = engine.array();
        let scope = array.begin_query();
        engine.for_each_tree(|tree| {
            tree.knn(q, 10, KnnAlgorithm::Rkv);
        });
        independent += scope.finish(&array).total_reads;
    }
    assert!(
        shared <= independent,
        "shared {shared} > independent {independent}"
    );
}
