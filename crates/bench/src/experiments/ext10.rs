//! Extension experiment 10: the engine-wide metrics registry replaying a
//! seeded workload, cross-checked against the per-query traces.
//!
//! The registry ([`parsim_parallel::EngineMetrics`]) accumulates counts
//! and modeled durations as queries execute; every [`QueryTrace`] records
//! the same events per query. Replaying one seeded clustered workload —
//! healthy and with a disk failed over to its replicas, in both execution
//! modes — this experiment tabulates each registry total next to the sum
//! over the traces. Every row must agree exactly; the `metrics_parity`
//! test suite enforces the same invariant, this experiment makes it
//! visible in a report.

use parsim_datagen::{ClusteredGenerator, DataGenerator};
use parsim_parallel::{ExecutionMode, ParallelKnnEngine, QueryOptions, QueryTrace};

use crate::report::ExperimentReport;

use super::common::scaled;

/// One cross-checked total: a registry counter against the trace sum.
pub struct ParityRow {
    /// `"scoped"` or `"pooled"`.
    pub mode: &'static str,
    /// `"healthy"` or `"degraded"`.
    pub condition: &'static str,
    /// The registry metric name.
    pub metric: &'static str,
    /// What the registry accumulated over the workload.
    pub registry: u64,
    /// The same quantity summed over the per-query traces.
    pub traced: u64,
}

impl ParityRow {
    fn matches(&self) -> bool {
        self.registry == self.traced
    }
}

fn trace_sums(traces: &[QueryTrace]) -> [(u64, &'static str); 6] {
    let pages: u64 = traces
        .iter()
        .map(|t| t.per_disk_pages.iter().sum::<u64>())
        .sum();
    let evals: u64 = traces.iter().map(|t| t.dist_evals).sum();
    let saved: u64 = traces.iter().map(|t| t.dist_evals_saved).sum();
    let hits: u64 = traces.iter().map(|t| t.cache_hits).sum();
    let degraded = traces.iter().filter(|t| t.degraded.is_some()).count() as u64;
    let replica: u64 = traces
        .iter()
        .filter_map(|t| t.degraded.as_ref())
        .map(|d| d.replica_pages)
        .sum();
    [
        (pages, "parsim_disk_pages_total"),
        (evals, "parsim_dist_evals_total"),
        (saved, "parsim_dist_evals_saved_total"),
        (hits, "parsim_query_cache_hits_total"),
        (degraded, "parsim_queries_degraded_total"),
        (replica, "parsim_replica_pages_total"),
    ]
}

/// Replays the seeded workload in both modes and conditions and returns
/// one row per cross-checked counter.
pub fn measure(scale: f64) -> Vec<ParityRow> {
    let dim = 8;
    let k = 10;
    let n = scaled(4_000, scale);
    let data = ClusteredGenerator::new(dim, 8, 0.05).generate(n, 71);
    let queries = ClusteredGenerator::new(dim, 8, 0.05).generate(32, 72);
    let mut rows = Vec::new();

    for mode in [ExecutionMode::Scoped, ExecutionMode::Pooled] {
        let mode_name = match mode {
            ExecutionMode::Scoped => "scoped",
            ExecutionMode::Pooled => "pooled",
        };
        for condition in ["healthy", "degraded"] {
            let engine = ParallelKnnEngine::builder(dim)
                .disks(8)
                .replicas(1)
                .page_cache(256)
                .execution(mode)
                .metrics(true)
                .build(&data)
                .expect("engine builds");
            if condition == "degraded" {
                let failed = engine
                    .load_distribution()
                    .iter()
                    .position(|&l| l > 0)
                    .expect("some disk holds data");
                engine.faults().fail(failed);
            }
            let traces: Vec<QueryTrace> = engine
                .query_batch(&queries, &QueryOptions::traced(k))
                .expect("workload succeeds")
                .into_iter()
                .map(|r| r.trace.expect("trace requested"))
                .collect();
            let snapshot = engine.metrics().expect("metrics enabled").snapshot();
            for (traced, metric) in trace_sums(&traces) {
                rows.push(ParityRow {
                    mode: mode_name,
                    condition,
                    metric,
                    registry: snapshot.counter_total(metric),
                    traced,
                });
            }
        }
    }
    rows
}

/// Runs the registry/trace cross-check and tabulates it.
pub fn run(scale: f64) -> ExperimentReport {
    let rows = measure(scale);
    let mismatches = rows.iter().filter(|r| !r.matches()).count();
    ExperimentReport {
        id: "ext10",
        title: "EXTENSION — metrics registry totals vs summed query traces",
        paper: "beyond the paper: an engine-wide observability layer (atomic counters, gauges, \
                log-linear histograms) records the same events the per-query traces do; on a \
                seeded workload every cumulative total equals the sum over the traces, healthy \
                and degraded, in both execution modes",
        headers: vec![
            "mode".into(),
            "condition".into(),
            "metric".into(),
            "registry".into(),
            "trace sum".into(),
            "match".into(),
        ],
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    r.condition.to_string(),
                    r.metric.to_string(),
                    r.registry.to_string(),
                    r.traced.to_string(),
                    if r.matches() { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect(),
        notes: vec![
            "the registry records counts and modeled durations only (never wall-clock), so \
             replaying the seeded workload reproduces the snapshot byte-for-byte"
                .to_string(),
            format!(
                "mismatching rows: {mismatches} (must be 0; enforced by the metrics_parity suite)"
            ),
        ],
    }
}
