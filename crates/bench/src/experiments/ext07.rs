//! Extension experiment 7: what the early-abandon distance kernels save.
//!
//! The hot k-NN scan computes point distances with unrolled kernels that
//! checkpoint the partial sum against the current k-th-best bound and
//! abandon a point as soon as the partial sum alone proves it cannot
//! qualify ([`parsim_geometry::kernel`]). On clustered data — the regime
//! the paper's image and CAD workloads live in — most leaf points are far
//! from the query's cluster, so a large share of evaluations stops after
//! the first few coordinate blocks. This experiment sweeps the dimension,
//! counts started vs abandoned evaluations from the per-query traces, and
//! verifies on every query that the pruned search returns distances
//! **bit-identical** to a brute-force scan: abandoning only skips points,
//! it never changes arithmetic.

use parsim_datagen::{ClusteredGenerator, DataGenerator};
use parsim_geometry::Point;
use parsim_index::knn::brute_force_knn;
use parsim_parallel::{EngineConfig, ParallelKnnEngine, QueryOptions};

use crate::report::{fmt, ExperimentReport};

use super::common::scaled;

/// Runs the experiment: dimension sweep on clustered data, 8 disks.
pub fn run(scale: f64) -> ExperimentReport {
    let k = 10;
    let disks = 8;
    let n = scaled(12_000, scale);

    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut total_saved = 0u64;
    for dim in [4usize, 8, 16, 24] {
        let data = ClusteredGenerator::new(dim, 8, 0.03).generate(n, 71);
        let items: Vec<(Point, u64)> = data
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        // Queries from the same distribution land inside clusters, the
        // paper's similarity-search access pattern.
        let queries = ClusteredGenerator::new(dim, 8, 0.03).generate(12, 72);
        let config = EngineConfig::paper_defaults(dim);
        let par = ParallelKnnEngine::builder(dim)
            .config(config)
            .disks(disks)
            .build(&data)
            .expect("engine builds");

        let mut evals = 0u64;
        let mut saved = 0u64;
        let mut identical = true;
        for q in &queries {
            let got = par
                .query(q, &QueryOptions::traced(k))
                .expect("traced query");
            let trace = got.trace.expect("trace requested");
            evals += trace.dist_evals;
            saved += trace.dist_evals_saved;
            let want = brute_force_knn(&items, q, k);
            for (g, w) in got.neighbors.iter().zip(&want) {
                identical &= g.dist.to_bits() == w.dist.to_bits();
            }
        }
        all_identical &= identical;
        total_saved += saved;
        let pct = if evals == 0 {
            0.0
        } else {
            100.0 * saved as f64 / evals as f64
        };
        rows.push(vec![
            dim.to_string(),
            evals.to_string(),
            saved.to_string(),
            fmt(pct, 1),
            if identical { "yes".into() } else { "NO".into() },
        ]);
    }

    ExperimentReport {
        id: "ext7",
        title: "EXTENSION — early-abandon distance kernels on clustered data",
        paper: "the paper's CPU cost is dominated by leaf-level distance computations; the \
                partial-distance early-abandon kernels cut evaluations short against the \
                k-th-best bound without changing a single returned bit",
        headers: vec![
            "dim".into(),
            "dist evals started".into(),
            "evals abandoned early".into(),
            "abandoned %".into(),
            "bit-identical to brute force".into(),
        ],
        rows,
        notes: vec![
            format!(
                "early abandon cut short {total_saved} evaluations over the sweep; \
                 abandoning rises with dimension because more coordinate blocks remain \
                 after the partial sum first exceeds the bound"
            ),
            format!(
                "exactness: every query's distances were {} to a brute-force scan",
                if all_identical {
                    "bit-identical"
                } else {
                    "NOT identical (regression!)"
                }
            ),
        ],
    }
}
