//! The engine-wide metrics registry: opt in with `.metrics(true)`, run a
//! workload, and export deterministic Prometheus-text or JSON snapshots.
//! The registry records counts and *modeled* durations only — never
//! wall-clock — so replaying a seeded workload reproduces the snapshot
//! byte-for-byte, and every cumulative total equals the sum over the
//! per-query traces.
//!
//! ```sh
//! cargo run --release -p parsim --example engine_metrics
//! ```

use parsim::prelude::*;

fn main() {
    let dim = 8;
    let n = 20_000;
    let k = 10;
    let data = ClusteredGenerator::new(dim, 8, 0.05).generate(n, 71);
    let queries = ClusteredGenerator::new(dim, 8, 0.05).generate(48, 72);

    // Metrics are off by default (zero atomics on the query path); the
    // builder knob turns the registry on.
    let engine = ParallelKnnEngine::builder(dim)
        .disks(8)
        .replicas(1)
        .page_cache(256)
        .execution(ExecutionMode::Pooled)
        .metrics(true)
        .build(&data)
        .expect("engine builds");
    println!(
        "engine: {n} vectors ({dim}-d) on {} disks, pooled, metrics on\n",
        engine.disks()
    );

    // A healthy batch, then the same queries with one loaded disk failed
    // over to its replicas — the registry keeps counting across both.
    let opts = QueryOptions::traced(k);
    let results = engine.query_batch(&queries, &opts).expect("healthy batch");
    let failed = engine
        .load_distribution()
        .iter()
        .position(|&l| l > 0)
        .expect("some disk holds data");
    engine.faults().fail(failed);
    engine.query_batch(&queries, &opts).expect("degraded batch");

    // One snapshot of everything the engine has done so far.
    let snapshot = engine.metrics().expect("metrics enabled").snapshot();
    println!("registry totals after {} queries:", 2 * queries.len());
    for name in [
        "parsim_queries_completed_total",
        "parsim_queries_degraded_total",
        "parsim_disk_pages_total",
        "parsim_dist_evals_total",
        "parsim_dist_evals_saved_total",
        "parsim_cache_hits_total",
        "parsim_replica_pages_total",
    ] {
        println!("  {name:<36} {}", snapshot.counter_total(name));
    }

    // The registry is the per-query traces, accumulated: the healthy
    // batch's trace sums match what the counters held at that point.
    let healthy_pages: u64 = results
        .iter()
        .filter_map(|r| r.trace.as_ref())
        .map(|t| t.per_disk_pages.iter().sum::<u64>())
        .sum();
    println!("\nhealthy batch pages (trace sum): {healthy_pages}");

    // The end-to-end latency histogram records *modeled* service time,
    // so its quantiles are reproducible across runs.
    let latency = snapshot
        .histogram_with("parsim_query_latency_micros", &[])
        .expect("latency histogram");
    println!(
        "modeled latency: {} samples, mean {:.0} us",
        latency.count,
        latency.sum as f64 / latency.count.max(1) as f64
    );

    // Deterministic exporters: Prometheus text exposition and JSON.
    let prom = snapshot.to_prometheus();
    let head: String = prom.lines().take(8).collect::<Vec<_>>().join("\n");
    println!("\nprometheus exposition (first lines):\n{head}");
    println!("\njson export: {} bytes", snapshot.to_json().len());
}
