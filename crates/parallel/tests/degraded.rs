//! Fault-tolerance tests: injected disk failures, replica failover, and
//! the bit-identity guarantee of degraded-mode k-NN.
//!
//! The engines are built once and shared; every test serializes on a
//! mutex because fault injection mutates shared disk-array state, and
//! heals all faults before returning.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use parsim_datagen::{DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::knn::Neighbor;
use parsim_parallel::{EngineError, ParallelKnnEngine, QueryOptions, QueryTrace, RetryPolicy};

const DIM: usize = 6;
const DISKS: usize = 10; // colors_required(6) == 8, so disks 8 and 9 are mirror spares
const K: usize = 10;

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

struct Setup {
    /// Replicated engine (one mirror per bucket).
    repl: ParallelKnnEngine,
    /// Un-replicated engine over the same points.
    plain: ParallelKnnEngine,
    queries: Vec<Point>,
    /// Healthy answers of `repl` for each query, in order.
    healthy: Vec<Vec<Neighbor>>,
}

static SETUP: OnceLock<Setup> = OnceLock::new();
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> (&'static Setup, MutexGuard<'static, ()>) {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = SETUP.get_or_init(|| {
        let pts = UniformGenerator::new(DIM).generate(4000, 7);
        let repl = ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .replicas(1)
            .build(&pts)
            .unwrap();
        let plain = ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .build(&pts)
            .unwrap();
        let queries = UniformGenerator::new(DIM).generate(6, 99);
        let healthy = queries.iter().map(|q| repl.knn(q, K).unwrap().0).collect();
        Setup {
            repl,
            plain,
            queries,
            healthy,
        }
    });
    s.repl.faults().heal_all();
    s.plain.faults().heal_all();
    (s, guard)
}

/// A pair of disks neither of which hosts any replica of the other, so
/// both can fail at once without losing a bucket.
fn independent_pair(e: &ParallelKnnEngine) -> (usize, usize) {
    for d in 0..e.disks() {
        for f in (d + 1)..e.disks() {
            if !e.replica_disks_of(d).contains(&f) && !e.replica_disks_of(f).contains(&d) {
                return (d, f);
            }
        }
    }
    panic!("no independent disk pair exists");
}

/// A disk with data whose replicas live on some other disk.
fn disk_with_data(e: &ParallelKnnEngine) -> usize {
    e.load_distribution()
        .iter()
        .position(|&l| l > 0)
        .expect("some disk holds data")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline guarantee: with one replica per bucket, failing ANY
    /// single disk leaves every k-NN answer bit-identical to the healthy
    /// run — same distances, same item ids, same order.
    #[test]
    fn any_single_failure_is_bit_identical(disk in 0usize..DISKS, qi in 0usize..6) {
        let (s, _guard) = setup();
        s.repl.faults().fail(disk);
        let (got, _) = s.repl.knn(&s.queries[qi], K).unwrap();
        s.repl.faults().heal_all();
        prop_assert_eq!(&got, &s.healthy[qi]);
    }

    /// Slow and flaky disks (any single one, any seed) never change the
    /// answer either — they only cost retries and modeled latency.
    #[test]
    fn any_single_soft_fault_is_bit_identical(
        disk in 0usize..DISKS,
        qi in 0usize..6,
        flaky in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (s, _guard) = setup();
        if flaky {
            s.repl.faults().seed(disk, seed);
            s.repl.faults().flaky(disk, 0.2);
        } else {
            s.repl.faults().slow(disk, 8.0);
        }
        let (got, trace) = traced(&s.repl, &s.queries[qi], K);
        s.repl.faults().heal_all();
        prop_assert_eq!(&got, &s.healthy[qi]);
        prop_assert!(trace.degraded.is_some());
    }
}

#[test]
fn two_failures_sharing_no_bucket_still_succeed() {
    let (s, _guard) = setup();
    let (d, f) = independent_pair(&s.repl);
    s.repl.faults().fail(d);
    s.repl.faults().fail(f);
    for (q, want) in s.queries.iter().zip(&s.healthy) {
        let (got, trace) = traced(&s.repl, q, K);
        assert_eq!(&got, want);
        let deg = trace.degraded.expect("degraded record present");
        // Only disks that actually held data fail over.
        for lost in &deg.failed_over {
            assert!(*lost == d || *lost == f);
        }
    }
    s.repl.faults().heal_all();
}

#[test]
fn lost_unreplicated_bucket_is_a_typed_error() {
    let (s, _guard) = setup();
    let d = disk_with_data(&s.plain);
    s.plain.faults().fail(d);
    let err = s.plain.knn(&s.queries[0], K).unwrap_err();
    assert_eq!(err, EngineError::BucketUnavailable { disk: d });
    s.plain.faults().heal_all();
}

#[test]
fn failed_replica_host_is_a_typed_error() {
    let (s, _guard) = setup();
    let d = disk_with_data(&s.repl);
    let host = *s
        .repl
        .replica_disks_of(d)
        .first()
        .expect("replicated disk has a mirror host");
    s.repl.faults().fail(d);
    s.repl.faults().fail(host);
    let err = s.repl.knn(&s.queries[0], K).unwrap_err();
    assert!(
        matches!(err, EngineError::BucketUnavailable { .. }),
        "got {err:?}"
    );
    s.repl.faults().heal_all();
}

#[test]
fn trace_reports_the_failover() {
    let (s, _guard) = setup();
    let d = disk_with_data(&s.repl);
    s.repl.faults().fail(d);
    let (got, trace) = traced(&s.repl, &s.queries[1], K);
    s.repl.faults().heal_all();
    assert_eq!(&got, &s.healthy[1]);
    let deg = trace.degraded.expect("degraded record present");
    assert_eq!(deg.failed_over, vec![d]);
    assert!(deg.replica_pages > 0, "mirror trees were read");
    // The failed disk itself served nothing.
    assert_eq!(trace.per_disk_pages[d], 0);
    // A healthy run carries no degraded record.
    let (_, healthy_trace) = traced(&s.repl, &s.queries[1], K);
    assert!(healthy_trace.degraded.is_none());
}

#[test]
fn slow_disk_stretches_the_modeled_critical_path() {
    let (s, _guard) = setup();
    let (_, healthy_trace) = traced(&s.repl, &s.queries[2], K);
    let d = disk_with_data(&s.repl);
    s.repl.faults().slow(d, 50.0);
    let (got, trace) = traced(&s.repl, &s.queries[2], K);
    s.repl.faults().heal_all();
    assert_eq!(&got, &s.healthy[2]);
    let deg = trace.degraded.expect("degraded record present");
    assert!(deg.failed_over.is_empty(), "a slow disk is not lost");
    assert!(
        trace.modeled_parallel > healthy_trace.modeled_parallel,
        "50x slowdown on a data disk must stretch the critical path"
    );
    assert!(deg.added_latency > Duration::ZERO);
}

#[test]
fn hopelessly_flaky_disk_fails_over_after_retries() {
    let (s, _guard) = setup();
    let d = disk_with_data(&s.repl);
    s.repl.faults().flaky(d, 1.0);
    let opts = QueryOptions::traced(K).with_retry(RetryPolicy::default());
    let result = s.repl.query(&s.queries[3], &opts).unwrap();
    s.repl.faults().heal_all();
    assert_eq!(&result.neighbors, &s.healthy[3]);
    let deg = result.trace.unwrap().degraded.expect("degraded record");
    assert_eq!(deg.failed_over, vec![d]);
    // Every read error burned the full retry budget before failover.
    assert_eq!(deg.retries, u64::from(RetryPolicy::default().max_retries));
    assert!(deg.replica_pages > 0);
}

#[test]
fn flaky_unreplicated_disk_beyond_retries_is_a_typed_error() {
    let (s, _guard) = setup();
    let d = disk_with_data(&s.plain);
    s.plain.faults().flaky(d, 1.0);
    let err = s.plain.knn(&s.queries[3], K).unwrap_err();
    assert_eq!(err, EngineError::BucketUnavailable { disk: d });
    s.plain.faults().heal_all();
}

#[test]
fn zero_timeout_fails_everything_over_and_stays_exact() {
    let (s, _guard) = setup();
    // A zero budget abandons every disk that read anything: the whole
    // answer is served from replicas, and is still bit-identical.
    let opts = QueryOptions::traced(K).with_timeout(Duration::ZERO);
    let result = s.repl.query(&s.queries[4], &opts).unwrap();
    assert_eq!(&result.neighbors, &s.healthy[4]);
    let deg = result.trace.unwrap().degraded.expect("degraded record");
    assert!(!deg.failed_over.is_empty());
    assert!(deg.replica_pages > 0);

    // A generous budget degrades nothing — but the record is attached,
    // because the engine ran with failure handling engaged.
    let opts = QueryOptions::traced(K).with_timeout(Duration::from_secs(3600));
    let result = s.repl.query(&s.queries[4], &opts).unwrap();
    assert_eq!(&result.neighbors, &s.healthy[4]);
    let deg = result.trace.unwrap().degraded.expect("degraded record");
    assert!(deg.failed_over.is_empty());
    assert_eq!(deg.replica_pages, 0);
    assert_eq!(deg.added_latency, Duration::ZERO);
}

#[test]
fn degraded_batch_matches_single_queries() {
    let (s, _guard) = setup();
    let d = disk_with_data(&s.repl);
    s.repl.faults().fail(d);
    let opts = QueryOptions::traced(K).with_workers(3);
    let batch = s.repl.query_batch(&s.queries, &opts).unwrap();
    s.repl.faults().heal_all();
    assert_eq!(batch.len(), s.queries.len());
    for (r, want) in batch.iter().zip(&s.healthy) {
        assert_eq!(&r.neighbors, want);
        assert!(r.trace.as_ref().unwrap().degraded.is_some());
    }
}

#[test]
fn legacy_entry_points_ride_the_same_degraded_path() {
    let (s, _guard) = setup();
    let d = disk_with_data(&s.repl);
    s.repl.faults().fail(d);
    let (a, _) = s.repl.knn(&s.queries[5], K).unwrap();
    let (b, trace) = traced(&s.repl, &s.queries[5], K);
    let batch = traced_batch(&s.repl, &s.queries[5..6], QueryOptions::traced(K));
    s.repl.faults().heal_all();
    assert_eq!(&a, &s.healthy[5]);
    assert_eq!(&b, &s.healthy[5]);
    assert_eq!(&batch[0].0, &s.healthy[5]);
    assert!(trace.degraded.is_some());
    assert!(batch[0].1.degraded.is_some());
}
