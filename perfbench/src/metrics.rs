//! The benchmark's vocabulary: its workloads and metrics. `BENCHMARK.json`
//! is generated from these tables (`perfbench --manifest`), and a
//! self-test keeps the committed file equal to it.

use crate::json::quote;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, set-up time, memory).
    Lower,
    /// Larger is better (throughput, recall).
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// compare mode calls it worse (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload prints in its untraced run: the
/// manifest's `end_to_end` list, whose ten-seed quartile spread must stay
/// within each bound. Only metrics that hold still on a shared 2-vCPU
/// host are here: the paper's modeled busiest-disk time, peak memory, and
/// set-up time (judged on its median only).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("modeled_query_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// End-to-end metrics that are printed and recorded for compare mode but
/// stay out of the manifest.
///
/// The wall-clock latencies and rates: on the 2-vCPU host the benchmark
/// was sized on, a single-threaded compute loop alone drifts by 10-40 %
/// over minutes, and their ten-seed quartile spread measured 0.04-0.34
/// for medians and rates and up to 0.73 for p99, past the largest bound
/// (25 %) the manifest may set. Compare mode still judges them, and calls
/// them unresolved where the spread is wider than the bound. Also here:
/// the latencies of operations only some workloads issue (approx queries
/// on `clustered-approx`, writes on `fourier-ingest`), the approx recall,
/// and the error rate (0 on a healthy run).
pub const REPORTED: &[MetricDef] = &[
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("batch_qps", "1/s", Higher, 0.25),
    e2e("approx_p50_us", "us", Lower, 0.25),
    e2e("approx_p99_us", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("write_p99_us", "us", Lower, 0.25),
    e2e("recall_at_10", "ratio", Higher, 0.02),
    e2e("error_rate", "ratio", Lower, 0.0),
];

/// Per-layer metrics of the traced run: the manifest's `per_layer` list.
/// A layer a workload does not touch reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("kernel.f64_ns_per_row", "ns", Lower),
    layer("kernel.f32_ns_per_row", "ns", Lower),
    layer("kernel.q8w_ns_per_row", "ns", Lower),
    layer("kernel.dist_evals", "count", Lower),
    layer("kernel.saved_ratio", "ratio", Higher),
    layer("kernel.abandon_depth", "coords", Lower),
    layer("tree.search_us", "us", Lower),
    layer("tree.pages", "count", Lower),
    layer("tree.pruned", "count", Higher),
    layer("disk.max_pages", "count", Lower),
    layer("disk.balance", "ratio", Lower),
    layer("decluster.load_imbalance", "ratio", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("engine.query_us", "us", Lower),
    layer("engine.self_us", "us", Lower),
    layer("pool.submit_us", "us", Lower),
    layer("pool.wait_us", "us", Lower),
    layer("lsh.query_us", "us", Lower),
    layer("lsh.probes", "count", Lower),
    layer("lsh.candidates", "count", Lower),
    layer("lsh.empty_probe_ratio", "ratio", Lower),
    layer("lsh.candidates_per_hit", "count", Lower),
    layer("ingest.insert_us", "us", Lower),
    layer("ingest.remove_us", "us", Lower),
    layer("ingest.delta_points", "count", Lower),
    layer("ingest.rebuilds", "count", Higher),
    layer("ingest.reorganize_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
];

/// Looks a metric up in every table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(REPORTED)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The workloads, with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "uniform-scan",
        "uniform 16-d data, the paper's degenerate case: nearly every leaf row is scanned, so the distance kernel and leaf scan dominate",
    ),
    (
        "clustered-approx",
        "clustered data with a page cache smaller than the index: light exact queries expose per-query engine overhead, and LSH queries run beside them",
    ),
    (
        "fourier-ingest",
        "CAD-like Fourier data with duplicates on the pooled engine: queries merge the delta overlay while inserts and removes trigger background rebuilds",
    ),
];

/// The `BENCHMARK.json` manifest text.
pub fn manifest() -> String {
    let list = |defs: &[MetricDef]| -> String {
        defs.iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str())
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(END_TO_END),
        list(PER_LAYER)
    )
}
