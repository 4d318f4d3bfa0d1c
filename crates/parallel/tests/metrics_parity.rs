//! Trace conformance of the engine-wide metrics registry: on a seeded
//! workload the registry's cumulative totals must **exactly** equal the
//! sums over the individual per-query [`QueryTrace`]s — in both execution
//! modes, healthy and with faults armed. The registry is not a second
//! measurement that happens to be close; it is the same events counted
//! once, so any drift is a bug.
//!
//! The per-shard page-cache counters are the one layer counted
//! independently of the traces (inside [`parsim_storage::ShardedLru`]
//! itself), so their agreement with the trace sums is a real cross-check,
//! not an identity.

use std::time::Duration;

use parsim_datagen::{ClusteredGenerator, CorrelatedGenerator, DataGenerator};
use parsim_geometry::Point;
use parsim_obs::RegistrySnapshot;
use parsim_parallel::{ExecutionMode, ParallelKnnEngine, QueryOptions, QueryTrace, RetryPolicy};

const DIM: usize = 6;
const DISKS: usize = 8;
const K: usize = 10;

/// One traced query's trace.
fn traced(e: &ParallelKnnEngine, q: &Point) -> QueryTrace {
    traced_with(e, q, QueryOptions::traced(K))
}

/// One query's trace under `opts` (which must request one).
fn traced_with(e: &ParallelKnnEngine, q: &Point, opts: QueryOptions) -> QueryTrace {
    let r = e.query(q, &opts).unwrap();
    r.trace.expect("trace was requested")
}

fn clustered_points() -> Vec<Point> {
    ClusteredGenerator::new(DIM, 8, 0.05).generate(2500, 7)
}

fn clustered_queries() -> Vec<Point> {
    ClusteredGenerator::new(DIM, 8, 0.05).generate(24, 40)
}

fn correlated_points() -> Vec<Point> {
    CorrelatedGenerator::new(DIM, 0.1).generate(2500, 8)
}

fn correlated_queries() -> Vec<Point> {
    CorrelatedGenerator::new(DIM, 0.1).generate(24, 41)
}

fn engine(points: &[Point], execution: ExecutionMode, replicas: usize) -> ParallelKnnEngine {
    ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .replicas(replicas)
        .page_cache(128)
        .execution(execution)
        .metrics(true)
        .build(points)
        .unwrap()
}

/// Sums over a workload's traces — the ground truth the registry must hit.
#[derive(Default)]
struct TraceTotals {
    pages: Vec<u64>,
    pruned: u64,
    dist_evals: u64,
    dist_evals_saved: u64,
    cache_hits: u64,
    degraded: u64,
    retries: u64,
    replica_pages: u64,
}

fn sum_traces(traces: &[QueryTrace]) -> TraceTotals {
    let mut t = TraceTotals {
        pages: vec![0; DISKS],
        ..TraceTotals::default()
    };
    for trace in traces {
        for (d, &p) in trace.per_disk_pages.iter().enumerate() {
            t.pages[d] += p;
        }
        t.pruned += trace.candidates_pruned;
        t.dist_evals += trace.dist_evals;
        t.dist_evals_saved += trace.dist_evals_saved;
        t.cache_hits += trace.cache_hits;
        if let Some(deg) = &trace.degraded {
            t.degraded += 1;
            t.retries += deg.retries;
            t.replica_pages += deg.replica_pages;
        }
    }
    t
}

/// Asserts every registry total equals the trace-summed ground truth.
fn assert_parity(s: &RegistrySnapshot, traces: &[QueryTrace], want: &TraceTotals) {
    let n = traces.len() as u64;
    assert_eq!(s.counter_total("parsim_queries_started_total"), n);
    assert_eq!(s.counter_total("parsim_queries_completed_total"), n);
    assert_eq!(s.counter_total("parsim_queries_failed_total"), 0);
    assert_eq!(
        s.counter_total("parsim_queries_degraded_total"),
        want.degraded
    );
    for (d, &pages) in want.pages.iter().enumerate() {
        let label = d.to_string();
        assert_eq!(
            s.counter_with("parsim_disk_pages_total", &[("disk", &label)]),
            Some(pages),
            "pages of disk {d}"
        );
        // The per-disk service histogram saw one sample per query that
        // touched the disk.
        let touched = traces.iter().filter(|t| t.per_disk_pages[d] > 0).count() as u64;
        let h = s
            .histogram_with("parsim_disk_service_micros", &[("disk", &label)])
            .unwrap();
        assert_eq!(h.count, touched, "service samples of disk {d}");
    }
    assert_eq!(
        s.counter_total("parsim_disk_pages_total"),
        want.pages.iter().sum::<u64>()
    );
    assert_eq!(
        s.counter_total("parsim_candidates_pruned_total"),
        want.pruned
    );
    assert_eq!(s.counter_total("parsim_dist_evals_total"), want.dist_evals);
    assert_eq!(
        s.counter_total("parsim_dist_evals_saved_total"),
        want.dist_evals_saved
    );
    assert_eq!(
        s.counter_total("parsim_query_cache_hits_total"),
        want.cache_hits
    );
    assert_eq!(s.counter_total("parsim_read_retries_total"), want.retries);
    assert_eq!(
        s.counter_total("parsim_replica_pages_total"),
        want.replica_pages
    );
    // The end-to-end latency histogram saw every completed query.
    let lat = s
        .histogram_with("parsim_query_latency_micros", &[])
        .unwrap();
    assert_eq!(lat.count, n);
    // Cross-check: the cache-layer hit counters (counted inside the
    // sharded LRU, not derived from traces) agree with the trace sums.
    // Holds because only queries touch the caches: bulk load runs before
    // the caching sinks are installed and mirror trees bypass them.
    assert_eq!(s.counter_total("parsim_cache_hits_total"), want.cache_hits);
}

fn run_and_check(points: &[Point], queries: &[Point], execution: ExecutionMode) {
    let engine = engine(points, execution, 0);
    let traces: Vec<QueryTrace> = queries.iter().map(|q| traced(&engine, q)).collect();
    let snapshot = engine.metrics().expect("metrics enabled").snapshot();
    assert_parity(&snapshot, &traces, &sum_traces(&traces));
}

#[test]
fn scoped_clustered_registry_matches_traces() {
    run_and_check(
        &clustered_points(),
        &clustered_queries(),
        ExecutionMode::Scoped,
    );
}

#[test]
fn pooled_clustered_registry_matches_traces() {
    run_and_check(
        &clustered_points(),
        &clustered_queries(),
        ExecutionMode::Pooled,
    );
}

#[test]
fn scoped_correlated_registry_matches_traces() {
    run_and_check(
        &correlated_points(),
        &correlated_queries(),
        ExecutionMode::Scoped,
    );
}

#[test]
fn pooled_correlated_registry_matches_traces() {
    run_and_check(
        &correlated_points(),
        &correlated_queries(),
        ExecutionMode::Pooled,
    );
}

/// Batch submission (the pipelined pooled path and the scoped worker
/// pool) funnels through the same record point: totals still match.
#[test]
fn batch_paths_keep_parity() {
    let points = clustered_points();
    let queries = clustered_queries();
    for execution in [ExecutionMode::Scoped, ExecutionMode::Pooled] {
        let engine = engine(&points, execution, 0);
        let traces: Vec<QueryTrace> = engine
            .query_batch(&queries, &QueryOptions::traced(K))
            .unwrap()
            .into_iter()
            .map(|r| r.trace.expect("trace was requested"))
            .collect();
        let snapshot = engine.metrics().unwrap().snapshot();
        assert_parity(&snapshot, &traces, &sum_traces(&traces));
    }
}

/// With a hard failure and a flaky disk armed, degraded execution keeps
/// exact parity too: degraded count, retries, and replica pages all equal
/// the trace sums, and the injector-level fault counters fire.
#[test]
fn degraded_workload_keeps_parity_in_both_modes() {
    let points = clustered_points();
    let queries = clustered_queries();
    // Generous retries: the failed disk's mirrors may be hosted on the
    // flaky disk, and this test is about counting, not abandonment.
    let opts = QueryOptions::traced(K).with_retry(RetryPolicy {
        max_retries: 16,
        backoff: Duration::from_micros(10),
        backoff_multiplier: 1.0,
    });
    for execution in [ExecutionMode::Scoped, ExecutionMode::Pooled] {
        let engine = ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .replicas(1)
            .page_cache(128)
            .execution(execution)
            .metrics(true)
            .build(&points)
            .unwrap();
        let loaded: Vec<usize> = engine
            .load_distribution()
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0)
            .map(|(d, _)| d)
            .collect();
        engine.faults().fail(loaded[0]);
        engine.faults().seed(loaded[1], 4242);
        engine.faults().flaky(loaded[1], 0.2);
        let traces: Vec<QueryTrace> = queries
            .iter()
            .map(|q| traced_with(&engine, q, opts))
            .collect();
        let want = sum_traces(&traces);
        assert_eq!(want.degraded, queries.len() as u64, "all queries degraded");
        assert!(want.replica_pages > 0, "failover actually happened");
        let s = engine.metrics().unwrap().snapshot();
        assert_parity(&s, &traces, &want);
        assert_eq!(s.counter_total("parsim_faults_injected_total"), 2);
        assert_eq!(s.counter_total("parsim_faults_healed_total"), 0);
        if want.retries > 0 {
            assert!(s.counter_total("parsim_flaky_read_errors_total") > 0);
        }
    }
}

/// The registry is carried across an online reorganize, not reset: totals
/// accumulated before the swap and after it sum with the trace ground
/// truth exactly as if no swap had happened. (Regression test — the
/// consuming-rebuild era rebuilt the registry from scratch, silently
/// zeroing every counter and orphaning any scrape handle the caller
/// held.)
#[test]
fn registry_survives_reorganize_with_exact_parity() {
    use parsim_parallel::IngestConfig;
    let points = clustered_points();
    let queries = clustered_queries();
    for execution in [ExecutionMode::Scoped, ExecutionMode::Pooled] {
        let engine = ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .page_cache(128)
            .execution(execution)
            .metrics(true)
            .ingest(IngestConfig::new(4096))
            .build(&points)
            .unwrap();
        // The handle taken *before* the swap must stay live and shared.
        let handle = std::sync::Arc::clone(engine.metrics().unwrap());

        let mut traces: Vec<QueryTrace> =
            queries[..12].iter().map(|q| traced(&engine, q)).collect();
        for p in ClusteredGenerator::new(DIM, 8, 0.05).generate(60, 77) {
            engine.insert(p).unwrap();
        }
        engine.reorganize().unwrap();
        traces.extend(queries[12..].iter().map(|q| traced(&engine, q)));

        let s = engine.metrics().unwrap().snapshot();
        assert_parity(&s, &traces, &sum_traces(&traces));
        // Same registry object on both sides of the swap, and the ingest
        // ledger reconciles: every buffered write is counted exactly once.
        assert_eq!(handle.snapshot().to_json(), s.to_json());
        assert_eq!(s.counter_total("parsim_ingest_inserts_total"), 60);
        assert_eq!(s.counter_total("parsim_rebuilds_total"), 1);
        assert_eq!(s.counter_total("parsim_queries_started_total"), 24);
    }
}

/// Two runs of the same seeded workload on fresh engines produce
/// byte-identical Prometheus-text and JSON exports: nothing wall-clock
/// leaks into the registry.
///
/// The workload drives each mode's deterministic execution path: the
/// scoped batch forest search on one worker, and the pooled RKV pipeline
/// one query at a time. (The scoped single-query path races per-disk
/// threads on the shared pruning bound, so its *work counters* are
/// legitimately run-to-run dependent — determinism is a property of the
/// recorded execution, and the registry adds no wall-clock on top.)
#[test]
fn exports_are_byte_identical_across_runs() {
    let points = correlated_points();
    let queries = correlated_queries();
    for execution in [ExecutionMode::Scoped, ExecutionMode::Pooled] {
        let render = || {
            let engine = engine(&points, execution, 0);
            match execution {
                ExecutionMode::Scoped => {
                    let opts = QueryOptions::traced(K).with_workers(1);
                    engine.query_batch(&queries, &opts).unwrap();
                }
                ExecutionMode::Pooled => {
                    for q in &queries {
                        traced(&engine, q);
                    }
                }
            }
            let s = engine.metrics().unwrap().snapshot();
            (s.to_prometheus(), s.to_json())
        };
        let (prom_a, json_a) = render();
        let (prom_b, json_b) = render();
        assert_eq!(prom_a, prom_b, "prometheus text drifted ({execution:?})");
        assert_eq!(json_a, json_b, "json drifted ({execution:?})");
        assert!(prom_a.contains("# TYPE parsim_query_latency_micros histogram"));
        assert!(json_a.starts_with("{\"metrics\":["));
    }
}
