//! Extension experiment 15: the approximate tier's recall/throughput
//! frontier — declustered LSH probes versus the exact engine.
//!
//! The LSH backend (PR 10) hashes every row into `L` seeded SimHash
//! tables and spreads the buckets over the disk array with the paper's
//! coloring, so an `Approx` query reads a handful of pages per table
//! instead of walking the X-tree. This experiment sweeps the probe
//! budget on three datasets (clustered, correlated, Fourier shape
//! descriptors) and reports, per cell:
//!
//! * **recall@k** against the brute-force ground truth (mean over the
//!   query set) — what the probe budget buys;
//! * **modeled QPS**, `queries / Σ modeled_parallel` from the per-query
//!   trace — host-independent throughput under the shared disk model,
//!   directly comparable to the exact engine's cell;
//! * the LSH funnel (`lsh_probes`, `lsh_candidates`, empty-probe
//!   fraction) and the exact-kernel work (`dist_evals`, mean pages).
//!
//! The acceptance bar is asserted in-measure: at least one clustered
//! cell must reach recall@10 ≥ 0.9 at ≥ 2× the exact engine's modeled
//! QPS — the frontier point that justifies the tier.

use parsim_datagen::{ClusteredGenerator, CorrelatedGenerator, DataGenerator, FourierGenerator};
use parsim_geometry::Point;
use parsim_index::knn::brute_force_knn;
use parsim_parallel::{LshConfig, ParallelKnnEngine, QueryOptions};

use crate::report::{fmt, ExperimentReport};

use super::common::scaled;

const DISKS: usize = 8;
const DIM: usize = 8;
const K: usize = 10;
const QUERIES: usize = 16;
const TABLES: usize = 4;
const HYPERPLANES: usize = 24;
const PROBE_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// One (dataset, mode, probes) cell of the frontier.
pub struct FrontierRow {
    /// `"clustered"`, `"correlated"`, or `"fourier"`.
    pub dataset: &'static str,
    /// `"exact"` or `"approx"`.
    pub mode: &'static str,
    /// Probe budget per table (0 on exact rows).
    pub probes: usize,
    /// Mean recall@k against brute-force ground truth.
    pub recall: f64,
    /// Modeled throughput `queries / Σ modeled_parallel`, in queries/s.
    pub modeled_qps: f64,
    /// This cell's modeled QPS over the dataset's exact cell (1.0 there).
    pub qps_vs_exact: f64,
    /// Mean pages read per query (all disks).
    pub mean_pages: f64,
    /// f64 distance evaluations over the workload.
    pub dist_evals: u64,
    /// LSH buckets probed over the workload (0 on exact rows).
    pub lsh_probes: u64,
    /// Unique LSH candidates exactly re-ranked (0 on exact rows).
    pub lsh_candidates: u64,
    /// Share of probed buckets that held no rows — the recall proxy.
    pub empty_probe_frac: f64,
}

/// Everything `measure` learns: the frontier plus its fixed shape facts.
pub struct FrontierMeasurement {
    /// Queries per dataset.
    pub queries: usize,
    /// LSH tables fitted per engine.
    pub tables: usize,
    /// The sweep, grouped by dataset, exact row first.
    pub rows: Vec<FrontierRow>,
}

/// One draw per dataset, split into indexed points and held-out queries —
/// queries must come from the *same* distribution instance (the same
/// cluster centers, the same correlation line), or recall measures the
/// out-of-distribution case instead of the tier.
fn datasets(n: usize) -> Vec<(&'static str, Vec<Point>, Vec<Point>)> {
    let split = |mut pts: Vec<Point>| {
        let queries = pts.split_off(n);
        (pts, queries)
    };
    let (clustered, clustered_q) =
        split(ClusteredGenerator::new(DIM, 8, 0.05).generate(n + QUERIES, 151));
    let (correlated, correlated_q) =
        split(CorrelatedGenerator::new(DIM, 0.05).generate(n + QUERIES, 153));
    let (fourier, fourier_q) = split(FourierGenerator::new(DIM).generate(n + QUERIES, 155));
    vec![
        ("clustered", clustered, clustered_q),
        ("correlated", correlated, correlated_q),
        ("fourier", fourier, fourier_q),
    ]
}

struct CellStats {
    recall_sum: f64,
    modeled_secs: f64,
    pages: u64,
    dist_evals: u64,
    lsh_probes: u64,
    lsh_candidates: u64,
    lsh_empty: u64,
}

fn run_cell(
    engine: &ParallelKnnEngine,
    queries: &[Point],
    truth: &[(Point, u64)],
    opts: &QueryOptions,
) -> CellStats {
    let mut s = CellStats {
        recall_sum: 0.0,
        modeled_secs: 0.0,
        pages: 0,
        dist_evals: 0,
        lsh_probes: 0,
        lsh_candidates: 0,
        lsh_empty: 0,
    };
    for q in queries {
        let want: Vec<u64> = brute_force_knn(truth, q, K)
            .iter()
            .map(|n| n.item)
            .collect();
        let res = engine
            .query(q, opts)
            .expect("workload queries match the engine");
        let hits = res
            .neighbors
            .iter()
            .filter(|n| want.contains(&n.item))
            .count();
        s.recall_sum += hits as f64 / K as f64;
        let t = res.trace.as_ref().expect("traced");
        s.modeled_secs += t.modeled_parallel.as_secs_f64();
        s.pages += t.total_pages();
        s.dist_evals += t.dist_evals;
        s.lsh_probes += t.lsh_probes;
        s.lsh_candidates += t.lsh_candidates;
        s.lsh_empty += t.lsh_empty_probes;
    }
    s
}

/// Runs the frontier sweep and asserts the acceptance bar in-measure:
/// some clustered cell reaches recall@10 ≥ 0.9 at ≥ 2× exact QPS.
pub fn measure(scale: f64) -> FrontierMeasurement {
    let n = scaled(6_000, scale);
    let mut rows = Vec::new();
    for (dataset, pts, queries) in datasets(n) {
        let engine = ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .approx(LshConfig::new(157).tables(TABLES).hyperplanes(HYPERPLANES))
            .build(&pts)
            .expect("engine builds on experiment data");
        let truth: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        // The exact cell runs on the same engine: Exact mode ignores the
        // LSH tier entirely (bit-identical to an engine built without it,
        // pinned by `prop_lsh::exact_answers_ignore_the_lsh_tier`).
        let mut cells: Vec<(&'static str, usize, CellStats)> = vec![(
            "exact",
            0,
            run_cell(&engine, &queries, &truth, &QueryOptions::traced(K)),
        )];
        for probes in PROBE_WIDTHS {
            cells.push((
                "approx",
                probes,
                run_cell(
                    &engine,
                    &queries,
                    &truth,
                    &QueryOptions::approx(K, probes).with_trace(true),
                ),
            ));
        }
        let qps = |s: &CellStats| -> f64 {
            if s.modeled_secs > 0.0 {
                QUERIES as f64 / s.modeled_secs
            } else {
                0.0
            }
        };
        let exact_qps = qps(&cells[0].2);
        for (mode, probes, s) in cells {
            let modeled_qps = qps(&s);
            rows.push(FrontierRow {
                dataset,
                mode,
                probes,
                recall: s.recall_sum / QUERIES as f64,
                modeled_qps,
                qps_vs_exact: if exact_qps > 0.0 {
                    modeled_qps / exact_qps
                } else {
                    0.0
                },
                mean_pages: s.pages as f64 / QUERIES as f64,
                dist_evals: s.dist_evals,
                lsh_probes: s.lsh_probes,
                lsh_candidates: s.lsh_candidates,
                empty_probe_frac: if s.lsh_probes > 0 {
                    s.lsh_empty as f64 / s.lsh_probes as f64
                } else {
                    0.0
                },
            });
        }
    }
    // The acceptance bar, asserted where the numbers are made: the tier
    // must buy ≥ 2× modeled throughput at recall@10 ≥ 0.9 somewhere on
    // the clustered frontier. Only meaningful once the exact scan is
    // disk-bound: at tiny smoke scales the whole dataset is a couple of
    // pages per disk, and no candidate set can beat the one-page floor
    // by 2× — so the bar arms from 2 000 points up (the committed
    // BENCH_pr10.json runs at 6 000).
    if n < 2_000 {
        return FrontierMeasurement {
            queries: QUERIES,
            tables: TABLES,
            rows,
        };
    }
    let exact_qps = rows
        .iter()
        .find(|r| r.dataset == "clustered" && r.mode == "exact")
        .map(|r| r.modeled_qps)
        .expect("clustered exact cell exists");
    assert!(
        rows.iter().any(|r| r.dataset == "clustered"
            && r.mode == "approx"
            && r.recall >= 0.9
            && r.modeled_qps >= 2.0 * exact_qps),
        "no clustered cell reached recall@10 >= 0.9 at >= 2x exact QPS ({exact_qps:.1} qps): {:?}",
        rows.iter()
            .filter(|r| r.dataset == "clustered")
            .map(|r| (r.mode, r.probes, r.recall, r.modeled_qps))
            .collect::<Vec<_>>(),
    );
    FrontierMeasurement {
        queries: QUERIES,
        tables: TABLES,
        rows,
    }
}

/// Runs the recall/throughput frontier sweep and tabulates it.
pub fn run(scale: f64) -> ExperimentReport {
    let m = measure(scale);
    let best = m
        .rows
        .iter()
        .filter(|r| r.dataset == "clustered" && r.mode == "approx" && r.recall >= 0.9)
        .max_by(|a, b| a.qps_vs_exact.total_cmp(&b.qps_vs_exact));
    ExperimentReport {
        id: "ext15",
        title: "EXTENSION — approximate tier: recall@10 vs modeled-QPS frontier of the \
                declustered LSH backend against the exact engine (acceptance bar asserted \
                in-measure)",
        paper: "beyond the paper: seeded SimHash tables declustered with the paper's coloring \
                turn the disk array into an approximate tier — an Approx query probes a few \
                buckets per table in parallel instead of walking the X-tree, trading bounded \
                recall for modeled throughput under the same disk model",
        headers: vec![
            "dataset".into(),
            "mode".into(),
            "probes".into(),
            "recall@10".into(),
            "modeled qps".into(),
            "vs exact".into(),
            "mean pages".into(),
            "dist evals".into(),
            "lsh probes".into(),
            "candidates".into(),
            "empty frac".into(),
        ],
        rows: m
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    r.mode.to_string(),
                    if r.probes == 0 {
                        "-".to_string()
                    } else {
                        r.probes.to_string()
                    },
                    fmt(r.recall, 4),
                    fmt(r.modeled_qps, 1),
                    fmt(r.qps_vs_exact, 2),
                    fmt(r.mean_pages, 1),
                    r.dist_evals.to_string(),
                    r.lsh_probes.to_string(),
                    r.lsh_candidates.to_string(),
                    fmt(r.empty_probe_frac, 4),
                ]
            })
            .collect(),
        notes: vec![
            match best {
                Some(r) => format!(
                    "best clustered frontier point at recall >= 0.9: probes={} with recall \
                     {} at {}x the exact engine's modeled QPS",
                    r.probes,
                    fmt(r.recall, 4),
                    fmt(r.qps_vs_exact, 2),
                ),
                None => "no clustered cell cleared recall 0.9 (assert would have fired)".into(),
            },
            "modeled QPS uses the per-query modeled_parallel trace under the shared disk \
             model, so exact and approx cells are directly comparable and host-independent"
                .to_string(),
            "the empty-probe fraction is the online recall proxy: near 1 means the probe \
             budget found nothing and recall is likely suffering"
                .to_string(),
        ],
    }
}
