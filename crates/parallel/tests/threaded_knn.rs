//! End-to-end tests of the threaded query paths.
//!
//! The per-disk parallel search ([`ParallelKnnEngine::knn`] /
//! [`ParallelKnnEngine::query`]) and the batched worker pool
//! ([`ParallelKnnEngine::query_batch`]) must return exactly the answers
//! of the single-disk [`SequentialEngine`] under any worker count, and the
//! per-query traces must account for every page the shared disks served —
//! even while many queries run concurrently.

use parsim_datagen::{ClusteredGenerator, CorrelatedGenerator, DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::knn::{brute_force_knn, Neighbor};
use parsim_index::KnnAlgorithm;
use parsim_parallel::{
    EngineConfig, ExecutionMode, LshConfig, ParallelKnnEngine, QueryOptions, QueryTrace,
    SequentialEngine,
};

const DIM: usize = 8;
const DISKS: usize = 8;

/// One traced query: its neighbors and its trace.
fn traced(e: &ParallelKnnEngine, q: &Point, k: usize) -> (Vec<Neighbor>, QueryTrace) {
    let r = e.query(q, &QueryOptions::traced(k)).unwrap();
    (r.neighbors, r.trace.expect("trace was requested"))
}

/// `query_batch` under `opts`, unpacked into `(neighbors, trace)` pairs.
fn traced_batch(
    e: &ParallelKnnEngine,
    queries: &[Point],
    opts: QueryOptions,
) -> Vec<(Vec<Neighbor>, QueryTrace)> {
    e.query_batch(queries, &opts)
        .unwrap()
        .into_iter()
        .map(|r| (r.neighbors, r.trace.expect("trace was requested")))
        .collect()
}

fn setup() -> (ParallelKnnEngine, SequentialEngine, Vec<Point>) {
    let pts = UniformGenerator::new(DIM).generate(4000, 21);
    let config = EngineConfig::paper_defaults(DIM);
    let par = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .build(&pts)
        .unwrap();
    let seq = SequentialEngine::build(&pts, config).unwrap();
    let queries = UniformGenerator::new(DIM).generate(24, 77);
    (par, seq, queries)
}

/// The `(item, dist-bits)` sequence of an answer. Every data set here is
/// drawn from a continuous generator without forced duplicates, so equal
/// arithmetic on both paths means equal items too.
fn bits(answer: &[Neighbor]) -> Vec<(u64, u64)> {
    answer.iter().map(|n| (n.item, n.dist.to_bits())).collect()
}

fn assert_same_answers(got: &[Neighbor], want: &[Neighbor]) {
    assert_eq!(bits(got), bits(want));
}

#[test]
fn threaded_knn_matches_sequential_rkv() {
    let (par, seq, queries) = setup();
    for q in &queries {
        let (got, _) = par.knn(q, 10).unwrap();
        let (want, _) = seq.knn(q, 10).unwrap();
        assert_same_answers(&got, &want);
    }
}

#[test]
fn batch_matches_sequential_under_1_2_8_workers() {
    let (par, seq, queries) = setup();
    let want: Vec<Vec<Neighbor>> = queries.iter().map(|q| seq.knn(q, 10).unwrap().0).collect();
    for workers in [1, 2, 8] {
        let got = traced_batch(
            &par,
            &queries,
            QueryOptions::traced(10).with_workers(workers),
        );
        assert_eq!(got.len(), queries.len());
        for ((g, _), w) in got.iter().zip(&want) {
            assert_same_answers(g, w);
        }
    }
}

#[test]
fn batch_traces_are_identical_across_worker_counts() {
    // Each query's trace is computed by exactly one worker running the
    // deterministic forest search, so worker interleaving must not change
    // a single counter.
    let (par, _, queries) = setup();
    let baseline = traced_batch(&par, &queries, QueryOptions::traced(10).with_workers(1));
    for workers in [2, 8] {
        let got = traced_batch(
            &par,
            &queries,
            QueryOptions::traced(10).with_workers(workers),
        );
        for ((_, g), (_, b)) in got.iter().zip(&baseline) {
            assert_eq!(g.per_disk_pages, b.per_disk_pages);
            assert_eq!(g.candidates_pruned, b.candidates_pruned);
        }
    }
}

#[test]
fn batch_traces_account_for_every_page_served() {
    // The sum of the locally-counted per-query traces must equal the
    // global disk-counter delta over the whole concurrent batch: no page
    // is lost or double-counted under contention.
    let (par, _, queries) = setup();
    let scope = par.array().begin_query();
    let results = traced_batch(&par, &queries, QueryOptions::traced(10).with_workers(8));
    let cost = scope.finish(&par.array());

    let mut summed = vec![0u64; DISKS];
    for (_, trace) in &results {
        for (acc, p) in summed.iter_mut().zip(&trace.per_disk_pages) {
            *acc += p;
        }
    }
    assert_eq!(summed, cost.per_disk_reads);
}

#[test]
fn threaded_traces_account_for_every_page_served() {
    // Same accounting identity for the intra-query (per-disk threads)
    // path: the trace of each query counts exactly the pages its threads
    // charged to the disks.
    let (par, _, queries) = setup();
    let scope = par.array().begin_query();
    let mut summed = vec![0u64; DISKS];
    for q in &queries {
        let (_, trace) = traced(&par, q, 10);
        assert_eq!(trace.per_disk_pages.len(), DISKS);
        assert!(trace.total_pages() > 0);
        for (acc, p) in summed.iter_mut().zip(&trace.per_disk_pages) {
            *acc += p;
        }
    }
    let cost = scope.finish(&par.array());
    assert_eq!(summed, cost.per_disk_reads);
}

#[test]
fn shared_bound_prunes_work() {
    // Var. 3 with the shared bound must read fewer pages than independent
    // per-disk searches run to completion.
    let (par, _, queries) = setup();
    let mut bounded = 0u64;
    let mut independent = 0u64;
    let mut pruned = 0u64;
    for q in &queries {
        let (_, trace) = traced(&par, q, 10);
        bounded += trace.total_pages();
        pruned += trace.candidates_pruned;
        // The share-nothing baseline: every disk's local top-10 searched
        // to completion, with no bound shared between the disks.
        let array = par.array();
        let scope = array.begin_query();
        par.for_each_tree(|tree| {
            tree.knn(q, 10, KnnAlgorithm::Rkv);
        });
        independent += scope.finish(&array).total_reads;
    }
    assert!(pruned > 0, "no subtree was ever pruned over the workload");
    assert!(
        bounded <= independent,
        "shared bound read more pages ({bounded}) than independent searches ({independent})"
    );
}

#[test]
fn cached_engine_reports_cache_hits() {
    let pts = UniformGenerator::new(DIM).generate(3000, 5);
    let par = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .page_cache(4096)
        .build(&pts)
        .unwrap();
    let q = &UniformGenerator::new(DIM).generate(1, 9)[0];

    let (_, cold) = traced(&par, q, 10);
    assert_eq!(cold.cache_hits, 0, "first query cannot hit an empty cache");
    let (_, warm) = traced(&par, q, 10);
    // Identical query, ample cache: the repeat is (at least partly —
    // thread interleaving may shift the visited set slightly) served from
    // memory. Every tree re-reads its root, so hits are guaranteed.
    assert!(warm.cache_hits > 0, "second run should hit the cache");
}

#[test]
fn clustered_knn_is_bit_identical_and_abandons_distances() {
    // Regression guard for the early-abandon kernels: on fixed-seed
    // clustered data the threaded engine must return distances that are
    // *bit-identical* to the sequential baseline and to brute force (the
    // abandon checkpoints may only skip points, never change arithmetic),
    // while the trace proves the partial-distance cutoff actually fired.
    let pts = ClusteredGenerator::new(DIM, 8, 0.03).generate(4000, 21);
    let data: Vec<(Point, u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let config = EngineConfig::paper_defaults(DIM);
    let par = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .build(&pts)
        .unwrap();
    let seq = SequentialEngine::build(&pts, config).unwrap();
    // Query from the same distribution so queries land inside clusters.
    let queries = ClusteredGenerator::new(DIM, 8, 0.03).generate(16, 77);

    let mut evals = 0u64;
    let mut saved = 0u64;
    for q in &queries {
        let (got, trace) = traced(&par, q, 10);
        let (want, _) = seq.knn(q, 10).unwrap();
        let brute = brute_force_knn(&data, q, 10);
        assert_eq!(got.len(), 10);
        assert_eq!(bits(&got), bits(&want), "threaded vs sequential");
        assert_eq!(bits(&got), bits(&brute), "threaded vs brute force");
        evals += trace.dist_evals;
        saved += trace.dist_evals_saved;
    }
    assert!(evals > 0, "leaf scans must evaluate distances");
    assert!(saved > 0, "early abandon never fired on clustered data");
    assert!(
        saved <= evals,
        "cannot abandon more evaluations than started"
    );
}

/// Builds scoped and pooled engines over the same points with the same
/// configuration — the pair every backbone parity test compares.
fn engine_pair(pts: &[Point]) -> (ParallelKnnEngine, ParallelKnnEngine) {
    let config = EngineConfig::paper_defaults(DIM);
    let scoped = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .build(pts)
        .unwrap();
    let pooled = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .execution(ExecutionMode::Pooled)
        .build(pts)
        .unwrap();
    (scoped, pooled)
}

/// The backbone bit-identity regression: pooled execution must return
/// the same neighbor lists as scoped execution, the sequential baseline,
/// and brute force, AND the same deterministic work trace
/// (`per_disk_pages`, `dist_evals`, pruning counters) as the scoped batch
/// path. Cache hits are excluded: they are execution-order dependent by
/// nature.
fn check_pooled_bit_identity(pts: &[Point], queries: &[Point]) {
    let (scoped, pooled) = engine_pair(pts);
    let config = EngineConfig::paper_defaults(DIM);
    let seq = SequentialEngine::build(pts, config).unwrap();
    let data: Vec<(Point, u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();

    let scoped_batch = traced_batch(&scoped, queries, QueryOptions::traced(10));
    let pooled_batch = traced_batch(&pooled, queries, QueryOptions::traced(10));
    for (qi, q) in queries.iter().enumerate() {
        let (sres, strace) = &scoped_batch[qi];
        let (pres, ptrace) = &pooled_batch[qi];
        // Single pooled queries go through the same pipeline as batches.
        let (single, single_trace) = traced(&pooled, q, 10);
        let (seq_res, _) = seq.knn(q, 10).unwrap();
        let brute = brute_force_knn(&data, q, 10);

        assert_eq!(bits(pres), bits(sres), "pooled vs scoped, q{qi}");
        assert_eq!(bits(pres), bits(&single), "batch vs single, q{qi}");
        assert_eq!(bits(pres), bits(&seq_res), "pooled vs sequential, q{qi}");
        assert_eq!(bits(pres), bits(&brute), "pooled vs brute force, q{qi}");
        assert_eq!(
            ptrace.per_disk_pages, strace.per_disk_pages,
            "page trace diverged on query {qi}"
        );
        assert_eq!(
            ptrace.dist_evals, strace.dist_evals,
            "dist_evals diverged on query {qi}"
        );
        assert_eq!(
            ptrace.dist_evals_saved, strace.dist_evals_saved,
            "dist_evals_saved diverged on query {qi}"
        );
        assert_eq!(
            ptrace.candidates_pruned, strace.candidates_pruned,
            "pruning trace diverged on query {qi}"
        );
        assert_eq!(single_trace.per_disk_pages, strace.per_disk_pages);
        assert_eq!(single_trace.dist_evals, strace.dist_evals);
    }
}

#[test]
fn pooled_execution_is_bit_identical_on_clustered_data() {
    let pts = ClusteredGenerator::new(DIM, 8, 0.03).generate(4000, 21);
    let queries = ClusteredGenerator::new(DIM, 8, 0.03).generate(16, 77);
    check_pooled_bit_identity(&pts, &queries);
}

#[test]
fn pooled_execution_is_bit_identical_on_correlated_data() {
    let pts = CorrelatedGenerator::new(DIM, 0.05).generate(4000, 22);
    let queries = CorrelatedGenerator::new(DIM, 0.05).generate(16, 78);
    check_pooled_bit_identity(&pts, &queries);
}

#[test]
fn pooled_batch_pipelines_without_reordering_results() {
    // Results come back in submission order even though queries overlap
    // across disks, and every trace stays per-query exact (the summed
    // traces equal the global disk-counter delta).
    let pts = UniformGenerator::new(DIM).generate(4000, 24);
    let (_, pooled) = engine_pair(&pts);
    let queries = UniformGenerator::new(DIM).generate(32, 80);
    let scope = pooled.array().begin_query();
    let results = traced_batch(&pooled, &queries, QueryOptions::traced(5));
    let cost = scope.finish(&pooled.array());
    assert_eq!(results.len(), queries.len());
    let mut summed = vec![0u64; DISKS];
    for (i, (res, trace)) in results.iter().enumerate() {
        let (want, _) = traced(&pooled, &queries[i], 5);
        assert_same_answers(res, &want);
        for (acc, p) in summed.iter_mut().zip(&trace.per_disk_pages) {
            *acc += p;
        }
    }
    assert_eq!(summed, cost.per_disk_reads);
}

#[test]
fn batch_handles_edge_cases() {
    let (par, _, queries) = setup();
    // Empty batch.
    assert!(par
        .query_batch(&[], &QueryOptions::traced(10).with_workers(4))
        .unwrap()
        .is_empty());
    // More workers than queries, and a zero worker count (clamped to 1).
    for workers in [64, 0] {
        let got = traced_batch(
            &par,
            &queries[..2],
            QueryOptions::traced(3).with_workers(workers),
        );
        assert_eq!(got.len(), 2);
        for (res, trace) in &got {
            assert_eq!(res.len(), 3);
            assert!(trace.total_pages() > 0);
        }
    }
    // Dimension mismatch is rejected.
    let wrong = Point::new(vec![0.5; DIM + 1]).unwrap();
    assert!(par
        .query_batch(&[wrong], &QueryOptions::traced(1).with_workers(2))
        .is_err());
}

/// Scoped and pooled engines over the same points, replicated and with
/// the LSH tier, so one pair serves exact, approximate, and failed-disk
/// batches.
fn replicated_pair(pts: &[Point]) -> (ParallelKnnEngine, ParallelKnnEngine) {
    let build = |execution| {
        ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .replicas(1)
            .approx(LshConfig::new(3))
            .execution(execution)
            .build(pts)
            .unwrap()
    };
    (build(ExecutionMode::Scoped), build(ExecutionMode::Pooled))
}

/// Runs `opts` as a traced batch on both engines at 1 and 2 workers and
/// requires identical `(item, dist-bits)` answers and identical work
/// traces, query by query.
fn assert_same_batches(
    scoped: &ParallelKnnEngine,
    pooled: &ParallelKnnEngine,
    queries: &[Point],
    opts: QueryOptions,
    label: &str,
) {
    for workers in [1, 2] {
        let opts = opts.with_trace(true).with_workers(workers);
        let s = scoped.query_batch(queries, &opts).unwrap();
        let p = pooled.query_batch(queries, &opts).unwrap();
        assert_eq!(s.len(), p.len());
        for (qi, (s, p)) in s.iter().zip(&p).enumerate() {
            let at = format!("{label}, {workers} workers, q{qi}");
            assert_eq!(bits(&s.neighbors), bits(&p.neighbors), "answers: {at}");
            let (st, pt) = (s.trace.as_ref().unwrap(), p.trace.as_ref().unwrap());
            assert_eq!(st.per_disk_pages, pt.per_disk_pages, "pages: {at}");
            assert_eq!(st.dist_evals, pt.dist_evals, "dist_evals: {at}");
            assert_eq!(st.candidates_pruned, pt.candidates_pruned, "pruned: {at}");
            assert_eq!(st.lsh_probes, pt.lsh_probes, "lsh_probes: {at}");
            assert_eq!(st.lsh_candidates, pt.lsh_candidates, "lsh_candidates: {at}");
            assert_eq!(
                st.lsh_empty_probes, pt.lsh_empty_probes,
                "empty probes: {at}"
            );
            let failover = |t: &QueryTrace| {
                t.degraded
                    .as_ref()
                    .map(|d| (d.failed_over.clone(), d.replica_pages))
            };
            assert_eq!(failover(st), failover(pt), "degraded record: {at}");
        }
    }
}

#[test]
fn scoped_and_pooled_batches_agree_on_answers_and_traces() {
    // Both backbones run the same query task, so a batch returns the same
    // answers and the same traces on either: exact, approximate, and with
    // a failed disk served from the replicas.
    let generator = ClusteredGenerator::new(DIM, 8, 0.03);
    let pts = generator.generate(3000, 41);
    let queries = generator.generate(16, 85);
    let (scoped, pooled) = replicated_pair(&pts);
    let exact = QueryOptions::new(10);
    let approx = QueryOptions::approx(10, 2);
    assert_same_batches(&scoped, &pooled, &queries, exact, "exact");
    assert_same_batches(&scoped, &pooled, &queries, approx, "approx");
    let failed = scoped
        .load_distribution()
        .iter()
        .position(|&l| l > 0)
        .expect("some disk holds data");
    for e in [&scoped, &pooled] {
        e.faults().fail(failed);
    }
    let label = format!("disk {failed} failed");
    assert_same_batches(
        &scoped,
        &pooled,
        &queries,
        exact,
        &format!("exact, {label}"),
    );
    assert_same_batches(
        &scoped,
        &pooled,
        &queries,
        approx,
        &format!("approx, {label}"),
    );
}
