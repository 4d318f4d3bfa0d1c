//! Lifecycle tests of the persistent worker pool: engine drop must join
//! every per-disk worker without deadlocking — even with queries still
//! queued — and degraded execution must behave identically on the pooled
//! and scoped backbones.

use parsim_datagen::{ClusteredGenerator, DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::knn::Neighbor;
use parsim_parallel::{
    ExecutionMode, LshConfig, ParallelKnnEngine, PendingQuery, QueryOptions, QueryTrace,
};

const DIM: usize = 6;
const DISKS: usize = 10; // colors_required(6) == 8: disks 8 and 9 are mirror spares
const K: usize = 10;

/// One traced query: its neighbors and its trace.
fn traced(e: &ParallelKnnEngine, q: &Point, k: usize) -> (Vec<Neighbor>, QueryTrace) {
    let r = e.query(q, &QueryOptions::traced(k)).unwrap();
    (r.neighbors, r.trace.expect("trace was requested"))
}

fn points() -> Vec<Point> {
    UniformGenerator::new(DIM).generate(3000, 7)
}

fn pooled_engine(pts: &[Point], replicas: usize) -> ParallelKnnEngine {
    ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .replicas(replicas)
        .execution(ExecutionMode::Pooled)
        .build(pts)
        .unwrap()
}

fn scoped_engine(pts: &[Point], replicas: usize) -> ParallelKnnEngine {
    ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .replicas(replicas)
        .build(pts)
        .unwrap()
}

/// Dropping the engine while a large batch is still queued must drain
/// every in-flight query, join all workers, and leave every handle
/// resolvable afterwards.
#[test]
fn drop_mid_batch_drains_queued_queries() {
    let pts = points();
    let queries = UniformGenerator::new(DIM).generate(96, 31);
    let scoped = scoped_engine(&pts, 0);
    let want: Vec<_> = queries
        .iter()
        .map(|q| scoped.knn(q, K).unwrap().0)
        .collect();

    let engine = pooled_engine(&pts, 0);
    let opts = QueryOptions::new(K);
    let pending: Vec<PendingQuery> = queries
        .iter()
        .map(|q| engine.submit(q, &opts).unwrap())
        .collect();
    // Drop with (almost certainly) most of the batch still queued. The
    // pool's drain-then-stop shutdown must finish every accepted query
    // before the workers exit.
    drop(engine);
    for (handle, want) in pending.into_iter().zip(&want) {
        let result = handle.wait().unwrap();
        assert_eq!(&result.neighbors, want);
    }
}

/// Dropping the engine AND the un-waited handles must not deadlock or
/// panic: completions outlive nobody, workers still drain and join.
#[test]
fn drop_engine_and_handles_without_waiting() {
    let pts = points();
    let queries = UniformGenerator::new(DIM).generate(64, 32);
    let engine = pooled_engine(&pts, 0);
    let opts = QueryOptions::new(K);
    let pending: Vec<PendingQuery> = queries
        .iter()
        .map(|q| engine.submit(q, &opts).unwrap())
        .collect();
    drop(pending);
    drop(engine);
}

/// An engine that never ran a query still shuts its pool down cleanly.
#[test]
fn drop_idle_engine() {
    let engine = pooled_engine(&points(), 0);
    assert_eq!(engine.execution(), ExecutionMode::Pooled);
    drop(engine);
}

/// Repeatedly creating and dropping pooled engines (with a query in
/// between) leaks no wedged worker: every drop returns.
#[test]
fn repeated_create_query_drop_cycles() {
    let pts = points();
    let q = UniformGenerator::new(DIM).generate(1, 33).pop().unwrap();
    let mut last = None;
    for _ in 0..5 {
        let engine = pooled_engine(&pts, 0);
        let (res, _) = engine.knn(&q, K).unwrap();
        if let Some(prev) = &last {
            assert_eq!(&res, prev);
        }
        last = Some(res);
    }
}

/// Degraded execution parity: a hard disk failure is handled identically
/// by the pooled pipeline and the scoped reference — same neighbors, same
/// failover record, same pages, down to the per-disk trace.
#[test]
fn pooled_degraded_failover_matches_scoped() {
    let pts = points();
    let queries = UniformGenerator::new(DIM).generate(6, 34);
    let scoped = scoped_engine(&pts, 1);
    let pooled = pooled_engine(&pts, 1);
    let failed = scoped
        .load_distribution()
        .iter()
        .position(|&l| l > 0)
        .expect("some disk holds data");
    scoped.faults().fail(failed);
    pooled.faults().fail(failed);
    for q in &queries {
        let (sres, strace) = traced(&scoped, q, K);
        let (pres, ptrace) = traced(&pooled, q, K);
        assert_eq!(pres, sres);
        assert_eq!(ptrace.per_disk_pages, strace.per_disk_pages);
        let sdeg = strace.degraded.expect("scoped degraded record");
        let pdeg = ptrace.degraded.expect("pooled degraded record");
        assert_eq!(pdeg.failed_over, sdeg.failed_over);
        assert_eq!(pdeg.replica_pages, sdeg.replica_pages);
        assert_eq!(pdeg.retries, sdeg.retries);
    }
}

/// Flaky reads with a fixed injector seed draw the same retry stream on
/// both backbones: the pooled degraded pipeline visits disks in the same
/// order as the scoped sequential loop.
#[test]
fn pooled_degraded_retries_match_scoped() {
    let pts = points();
    let queries = UniformGenerator::new(DIM).generate(4, 35);
    let scoped = scoped_engine(&pts, 1);
    let pooled = pooled_engine(&pts, 1);
    let flaky = scoped
        .load_distribution()
        .iter()
        .position(|&l| l > 0)
        .expect("some disk holds data");
    for engine in [&scoped, &pooled] {
        engine.faults().seed(flaky, 4242);
        engine.faults().flaky(flaky, 0.3);
    }
    for q in &queries {
        let (sres, strace) = traced(&scoped, q, K);
        let (pres, ptrace) = traced(&pooled, q, K);
        assert_eq!(pres, sres);
        assert_eq!(ptrace.per_disk_pages, strace.per_disk_pages);
        let sdeg = strace.degraded.expect("scoped degraded record");
        let pdeg = ptrace.degraded.expect("pooled degraded record");
        assert_eq!(pdeg.retries, sdeg.retries);
        assert_eq!(pdeg.failed_over, sdeg.failed_over);
    }
}

/// The worker queue-depth gauges drain back to exactly zero once the
/// pool does: every submit/forward increment is matched by a receive
/// decrement, even when the engine is dropped with the batch still
/// queued. The snapshot is taken through a kept registry handle after
/// the drain-then-join drop completes.
#[test]
fn queue_depth_gauges_return_to_zero_after_drain_then_drop() {
    let pts = points();
    let queries = UniformGenerator::new(DIM).generate(80, 37);
    let engine = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .execution(ExecutionMode::Pooled)
        .metrics(true)
        .build(&pts)
        .unwrap();
    let metrics = std::sync::Arc::clone(engine.metrics().expect("metrics enabled"));
    let disks = engine.disks(); // capped below DISKS without replicas
    let opts = QueryOptions::new(K);
    let pending: Vec<PendingQuery> = queries
        .iter()
        .map(|q| engine.submit(q, &opts).unwrap())
        .collect();
    // Drop mid-batch: the pool drains every accepted query, so by the
    // time drop returns each gauge has seen matched inc/dec pairs.
    drop(engine);
    let snapshot = metrics.snapshot();
    let depths = snapshot.gauges("parsim_worker_queue_depth");
    assert_eq!(depths.len(), disks);
    for (labels, depth) in depths {
        assert_eq!(depth, 0, "gauge {labels:?} did not drain");
    }
    assert_eq!(
        snapshot.counter_total("parsim_queries_completed_total"),
        queries.len() as u64
    );
    for handle in pending {
        handle.wait().unwrap();
    }
}

/// An unavailable bucket is the same typed error through the pool, and an
/// error mid-batch does not wedge the shutdown.
#[test]
fn pooled_errors_propagate_and_do_not_wedge_shutdown() {
    let pts = points();
    let queries = UniformGenerator::new(DIM).generate(8, 36);
    let engine = pooled_engine(&pts, 0);
    let failed = engine
        .load_distribution()
        .iter()
        .position(|&l| l > 0)
        .expect("some disk holds data");
    engine.faults().fail(failed);
    let opts = QueryOptions::new(K);
    let pending: Vec<PendingQuery> = queries
        .iter()
        .map(|q| engine.submit(q, &opts).unwrap())
        .collect();
    drop(engine);
    for handle in pending {
        let err = handle.wait().unwrap_err();
        assert_eq!(
            err,
            parsim_parallel::EngineError::BucketUnavailable { disk: failed }
        );
    }
}

/// Approximate failover parity: with one mirror per LSH shard, a failed
/// disk's probe targets are served from its mirror, so the degraded
/// approx answer equals the healthy one as `(item, dist-bits)` on both
/// backbones, and the scoped and pooled traces agree on pages, LSH
/// candidates, and the failover record.
#[test]
fn approx_failover_matches_healthy_on_both_backbones() {
    const APPROX_DIM: usize = 16;
    let generator = ClusteredGenerator::new(APPROX_DIM, 8, 0.05);
    let pts = generator.generate(6000, 7);
    let queries = generator.generate(30, 8);
    let build = |execution| {
        ParallelKnnEngine::builder(APPROX_DIM)
            .disks(8)
            .replicas(1)
            .approx(LshConfig::new(5))
            .execution(execution)
            .build(&pts)
            .unwrap()
    };
    let scoped = build(ExecutionMode::Scoped);
    let pooled = build(ExecutionMode::Pooled);
    let opts = QueryOptions::approx(K, 2).with_trace(true);
    let answer = |e: &ParallelKnnEngine, q: &Point| -> (Vec<(u64, u64)>, QueryTrace) {
        let r = e.query(q, &opts).unwrap();
        let ids = r
            .neighbors
            .iter()
            .map(|n| (n.item, n.dist.to_bits()))
            .collect();
        (ids, r.trace.expect("trace was requested"))
    };
    let healthy: Vec<_> = queries.iter().map(|q| answer(&scoped, q).0).collect();
    for failed in [0, 3] {
        let mut engaged = 0;
        for e in [&scoped, &pooled] {
            e.faults().heal_all();
            e.faults().fail(failed);
        }
        for (qi, (q, want)) in queries.iter().zip(&healthy).enumerate() {
            let (s, strace) = answer(&scoped, q);
            let (p, ptrace) = answer(&pooled, q);
            assert_eq!(&s, want, "scoped, disk {failed} failed, q{qi}");
            assert_eq!(&p, want, "pooled, disk {failed} failed, q{qi}");
            assert_eq!(ptrace.per_disk_pages, strace.per_disk_pages, "q{qi}");
            assert_eq!(ptrace.lsh_candidates, strace.lsh_candidates, "q{qi}");
            let sdeg = strace.degraded.expect("scoped degraded record");
            let pdeg = ptrace.degraded.expect("pooled degraded record");
            assert_eq!(pdeg.failed_over, sdeg.failed_over, "q{qi}");
            assert_eq!(pdeg.replica_pages, sdeg.replica_pages, "q{qi}");
            engaged += usize::from(!sdeg.failed_over.is_empty());
        }
        assert!(engaged > 0, "disk {failed} never failed over");
    }
}
