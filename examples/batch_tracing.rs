//! Batched queries with per-query traces: run a workload through the
//! threaded engine, print each query's per-disk page counts, pruning and
//! cache counters, and compare measured wall-clock against the modeled
//! disk service time.
//!
//! ```sh
//! cargo run --release -p parsim --example batch_tracing
//! ```

use parsim::prelude::*;
use parsim::serde::Serialize;

fn main() {
    let dim = 12;
    let n = 20_000;
    let disks = 8;
    let data = UniformGenerator::new(dim).generate(n, 42);
    let config = EngineConfig::paper_defaults(dim);

    // A cached engine: each disk gets a small LRU page cache, so repeated
    // regions of the query workload stop charging the disks.
    let engine = ParallelKnnEngine::builder(dim)
        .config(config)
        .disks(disks)
        .page_cache(256)
        .build(&data)
        .expect("engine builds on non-empty data");
    println!(
        "engine: {n} vectors ({dim}-d) on {} disks, {}-page cache each",
        engine.disks(),
        256
    );

    // Answer a whole workload on a bounded worker pool (one worker per
    // available core; every worker owns one query at a time).
    let queries = UniformGenerator::new(dim).generate(12, 7);
    let opts = QueryOptions::traced(10);
    let results = engine.query_batch(&queries, &opts).expect("batch runs");

    println!("\nper-query traces:");
    println!(
        "  {:>5}  {:>7}  {:>7}  {:>6}  {:>6}  {:>9}  {:>9}  {:>8}",
        "query", "pages", "busiest", "pruned", "hits", "wall", "modeled", "speedup"
    );
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.neighbors.len(), 10);
        let trace = result.trace.as_ref().expect("trace requested");
        println!(
            "  {:>5}  {:>7}  {:>7}  {:>6}  {:>6}  {:>7.2}ms  {:>7.0}ms  {:>7.2}x",
            i,
            trace.total_pages(),
            trace.max_pages(),
            trace.candidates_pruned,
            trace.cache_hits,
            trace.wall_time.as_secs_f64() * 1e3,
            trace.modeled_parallel.as_secs_f64() * 1e3,
            trace.modeled_speedup(),
        );
    }

    // Traces are serde-serializable for offline analysis.
    let first = results[0].trace.as_ref().expect("trace requested");
    println!("\nfirst trace as JSON:\n{}", first.to_json());

    // The same queries again: the caches are warm now, so the disks serve
    // far fewer pages.
    let warm = engine
        .query_batch(&queries, &opts)
        .expect("warm batch runs");
    let hits = |results: &[QueryResult]| -> u64 {
        results
            .iter()
            .filter_map(|r| r.trace.as_ref())
            .map(|t| t.cache_hits)
            .sum()
    };
    let (cold_hits, warm_hits) = (hits(&results), hits(&warm));
    println!("\ncache hits: {cold_hits} cold -> {warm_hits} warm");
}
