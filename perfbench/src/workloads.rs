//! The three workloads and the run that measures one of them.
//!
//! Every workload: d = 16, 8 disks, k = 10, inputs from the
//! `parsim-datagen` generators under the command-line seed, and one
//! closed-loop client (it sends the next request when the previous one
//! returns). A run builds the engine several times (set-up time), warms
//! up, runs the client, runs the batch phase, and checks the sampled
//! answers afterwards. The traced run splits the client window into an
//! untraced and a traced half and adds the per-layer measurements.

use std::time::{Duration, Instant};

use parsim_datagen::{ClusteredGenerator, DataGenerator, FourierGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::knn::{KnnAlgorithm, Neighbor, SharedBound};
use parsim_parallel::{
    AdmissionConfig, EngineError, IngestConfig, LshConfig, ParallelKnnEngine, QueryOptions,
    QueryResult,
};

use crate::gate;
use crate::host::peak_rss_mb;
use crate::kernel;
use crate::metrics;
use crate::spans::{Recorder, SpanId};
use crate::stats::{mean, median, quantile};

/// Dimensionality of every workload.
pub const DIM: usize = 16;
/// Disks of every engine.
pub const DISKS: usize = 8;
/// Neighbors per query.
pub const K: usize = 10;
/// `query_batch` workers: the host's CPU count the workloads were sized on.
pub const BATCH_WORKERS: usize = 2;
/// Queries per `query_batch` call.
const BATCH_SIZE: usize = 32;
/// Clusters of `clustered-approx` (σ = 0.05 each). With 8 clusters the
/// busiest-disk page count depends on where each seed's few clusters fall,
/// and the modeled query time moved by ~20 % between seeds; 32 clusters
/// average that layout luck out to a few percent.
const CLUSTERS: usize = 32;
/// The LSH tier's shape (4 tables × 24 hyperplanes, 2 probes).
const LSH_TABLES: usize = 4;
const LSH_HYPERPLANES: usize = 24;
const LSH_PROBES: usize = 2;
const LSH_SEED: u64 = 157;
/// Every n-th exact or approximate answer of the client, and the first
/// answer of every n-th batch, is kept for the correctness gate (up to the
/// plan's cap per kind), so the kept answers spread over the run.
const SAMPLE_EVERY: u64 = 32;
/// Every n-th exact query of the traced half replays its single-tree
/// searches.
const REPLAY_EVERY: u64 = 4;
/// The measured window is cut into rounds that alternate the client and
/// batch phases (or the untraced and traced halves), so slow spells of the
/// host fall on every phase alike; rates are reported as the median over
/// rounds.
const ROUNDS: u32 = 10;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform data, scoped engine, exact queries only.
    UniformScan,
    /// Clustered data, LSH tier and page cache, exact and approx queries.
    ClusteredApprox,
    /// Fourier data, pooled ingesting engine, queries and writes.
    FourierIngest,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 3] = [
        Workload::UniformScan,
        Workload::ClusteredApprox,
        Workload::FourierIngest,
    ];

    /// The command-line and manifest name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformScan => "uniform-scan",
            Workload::ClusteredApprox => "clustered-approx",
            Workload::FourierIngest => "fourier-ingest",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn generate(self, n: usize, seed: u64) -> Vec<Point> {
        match self {
            Workload::UniformScan => UniformGenerator::new(DIM).generate(n, seed),
            Workload::ClusteredApprox => {
                ClusteredGenerator::new(DIM, CLUSTERS, 0.05).generate(n, seed)
            }
            Workload::FourierIngest => FourierGenerator::new(DIM).generate(n, seed),
        }
    }
}

/// Sizes of one workload run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Points the engine is built over.
    pub points: usize,
    /// Distinct query points (cycled if the client needs more).
    pub query_pool: usize,
    /// Distinct points the client inserts (cycled).
    pub insert_pool: usize,
    /// Page-cache capacity per disk (`clustered-approx` only).
    pub cache_pages_per_disk: usize,
    /// Delta size that triggers a background rebuild (`fourier-ingest`).
    pub rebuild_threshold: usize,
    /// Engine builds timed for `setup_s` (the last one is measured).
    pub setup_builds: usize,
    /// Cap on answers kept per kind for the correctness gate.
    pub gate_samples: usize,
    /// Background rebuilds a `fourier-ingest` run must complete.
    pub min_rebuilds: usize,
    /// Untimed queries before the client starts.
    pub warmup_queries: usize,
}

impl Plan {
    /// The benchmark's sizes.
    pub fn full(workload: Workload) -> Plan {
        let points = match workload {
            Workload::FourierIngest => 50_000,
            _ => 100_000,
        };
        Plan {
            workload,
            points,
            query_pool: 8_192,
            insert_pool: 8_192,
            // The 100k-point clustered index spans ~5 000 pages; 157 pages
            // on each of the 8 disks hold about a quarter of them.
            cache_pages_per_disk: 157,
            rebuild_threshold: 768,
            setup_builds: 3,
            gate_samples: 128,
            min_rebuilds: 3,
            warmup_queries: 32,
        }
    }

    /// Tiny sizes for the self-tests.
    #[cfg(test)]
    pub fn tiny(workload: Workload) -> Plan {
        Plan {
            workload,
            points: 3_000,
            query_pool: 256,
            insert_pool: 256,
            cache_pages_per_disk: 5,
            rebuild_threshold: 24,
            setup_builds: 2,
            gate_samples: 16,
            min_rebuilds: 1,
            warmup_queries: 4,
        }
    }

    fn build(&self, data: &[Point]) -> Result<ParallelKnnEngine, EngineError> {
        let builder = ParallelKnnEngine::builder(DIM).disks(DISKS);
        let builder = match self.workload {
            Workload::UniformScan => builder,
            Workload::ClusteredApprox => builder
                .approx(
                    LshConfig::new(LSH_SEED)
                        .tables(LSH_TABLES)
                        .hyperplanes(LSH_HYPERPLANES),
                )
                .page_cache(self.cache_pages_per_disk),
            Workload::FourierIngest => builder.admission(AdmissionConfig::unbounded()).ingest(
                // Capacity far above the threshold: writes journaled
                // during a rebuild must never be shed.
                IngestConfig::new(self.rebuild_threshold * 16)
                    .with_rebuild_threshold(self.rebuild_threshold),
            ),
        };
        builder.build(data)
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every sampled answer passed the gate.
    pub correct: bool,
    /// Gate findings (empty when correct).
    pub failures: Vec<String>,
    /// Operations attempted (client operations and batch queries).
    pub attempted: u64,
    /// Operations that returned an `EngineError`.
    pub failed: u64,
    /// Every metric measured, end-to-end and (traced run) per layer.
    pub metrics: Vec<Measured>,
    /// Human-readable notes (cache share, rebuilds, span self times).
    pub notes: Vec<String>,
    /// Spans of the traced half (empty when untraced).
    pub recorder: Option<Recorder>,
}

impl Outcome {
    /// The measured value called `name`.
    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Exact,
    Approx,
    Insert,
    Remove,
}

/// SplitMix64: the client's seeded operation order.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Which phase an answer kept for the gate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kept {
    Exact = 0,
    Approx = 1,
    Batch = 2,
}

/// An answer kept for the gate.
struct Sample {
    query: usize,
    bits: Vec<u64>,
    /// Approximate answers keep their neighbors for the membership check.
    approx: Option<Vec<Neighbor>>,
    /// LSH candidates re-ranked (traced approx queries).
    candidates: u64,
}

/// The write history of `fourier-ingest`, replayed by the gate to rebuild
/// the logical contents at each sampled query.
enum LogOp {
    Insert { id: u64, point: usize },
    Remove { id: u64 },
    Check { sample: usize },
}

/// Counters of the closed-loop client, accumulated over rounds.
#[derive(Default)]
struct Window {
    /// Operations per second of each round.
    rates: Vec<f64>,
    ops: u64,
    attempted: u64,
    failed: u64,
    exact_ns: Vec<f64>,
    approx_ns: Vec<f64>,
    write_ns: Vec<f64>,
    modeled_ms: Vec<f64>,
    // Traced half only.
    dist_evals: u64,
    dist_saved: u64,
    abandoned_rows: u64,
    abandon_checkpoints: u64,
    traced_queries: u64,
    max_pages: Vec<f64>,
    balance: Vec<f64>,
    lsh_probes: u64,
    lsh_candidates: u64,
    lsh_empty: u64,
    lsh_queries: u64,
    delta_at_query: Vec<f64>,
    replay_total_ns: Vec<f64>,
    replay_pages: Vec<f64>,
    replay_pruned: Vec<f64>,
    engine_self_ns: Vec<f64>,
    rebuilds: usize,
    reorganize_s: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
}

/// Counters of the batch phase, accumulated over rounds.
#[derive(Default)]
struct Batch {
    calls: u64,
    answered: u64,
    failed: u64,
    /// Queries per second of each round.
    rates: Vec<f64>,
}

struct Client<'a> {
    plan: &'a Plan,
    engine: &'a ParallelKnnEngine,
    queries: &'a [Point],
    inserts: &'a [Point],
    rng: Rng,
    next_query: usize,
    next_insert: usize,
    exact_seen: u64,
    approx_seen: u64,
    live: Vec<u64>,
    log: Vec<LogOp>,
    samples: Vec<Sample>,
    /// Answers kept so far per [`Kept`] kind.
    kept: [usize; 3],
    last_delta: usize,
    rebuild_triggered: Option<Instant>,
}

impl<'a> Client<'a> {
    fn new(
        plan: &'a Plan,
        engine: &'a ParallelKnnEngine,
        queries: &'a [Point],
        inserts: &'a [Point],
        seed: u64,
    ) -> Client<'a> {
        Client {
            plan,
            engine,
            queries,
            inserts,
            rng: Rng(seed ^ 0x5EED_CAFE_F00D_D00D),
            next_query: 0,
            next_insert: 0,
            exact_seen: 0,
            approx_seen: 0,
            live: (0..plan.points as u64).collect(),
            log: Vec::new(),
            samples: Vec::new(),
            kept: [0; 3],
            last_delta: 0,
            rebuild_triggered: None,
        }
    }

    fn pick(&mut self) -> Op {
        match self.plan.workload {
            Workload::UniformScan => Op::Exact,
            Workload::ClusteredApprox => {
                if self.rng.below(2) == 0 {
                    Op::Exact
                } else {
                    Op::Approx
                }
            }
            // Half queries, a quarter each inserts and removes: the live
            // set keeps its size, so the run is stationary. With more
            // inserts than removes the index grew with every operation,
            // and throughput fell round after round by an amount that
            // depended on how fast the host had been so far.
            Workload::FourierIngest => match self.rng.below(4) {
                0 | 1 => Op::Exact,
                2 => Op::Insert,
                _ => Op::Remove,
            },
        }
    }

    fn take_query(&mut self) -> usize {
        let i = self.next_query % self.queries.len();
        self.next_query += 1;
        i
    }

    /// Keeps an answer for the gate, up to the plan's cap per kind.
    fn keep(&mut self, query: usize, res: &QueryResult, kind: Kept) {
        let kept = &mut self.kept[kind as usize];
        if *kept >= self.plan.gate_samples {
            return;
        }
        *kept += 1;
        self.samples.push(Sample {
            query,
            bits: gate::answer_bits(&res.neighbors),
            approx: (kind == Kept::Approx).then(|| res.neighbors.clone()),
            candidates: res.trace.as_ref().map_or(0, |t| t.lsh_candidates),
        });
        self.log.push(LogOp::Check {
            sample: self.samples.len() - 1,
        });
    }

    /// Watches the delta buffer for background rebuilds: a swap shrinks
    /// it by more than one entry (a single remove shrinks it by one).
    fn observe_delta(&mut self, w: &mut Window) {
        if self.plan.workload != Workload::FourierIngest {
            return;
        }
        let d = self.engine.delta_size();
        if d + 1 < self.last_delta {
            w.rebuilds += 1;
            if let Some(t) = self.rebuild_triggered.take() {
                w.reorganize_s.push(t.elapsed().as_secs_f64());
            }
        }
        if d >= self.plan.rebuild_threshold && self.rebuild_triggered.is_none() {
            self.rebuild_triggered = Some(Instant::now());
        }
        self.last_delta = d;
    }

    /// Runs the closed loop for `budget`, adding to `w`; with a recorder,
    /// every call is wrapped in spans and the per-layer counters are
    /// collected.
    fn run(&mut self, budget: Duration, mut rec: Option<&mut Recorder>, w: &mut Window) {
        let ops_before = w.ops;
        let traced = rec.is_some();
        let caches = self.engine.caches();
        let cache_before: (u64, u64) = caches
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.hits(), m + c.misses()));
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        while start.elapsed() - paused < budget {
            let request = w.attempted;
            let mut op = self.pick();
            if op == Op::Remove && self.live.is_empty() {
                op = Op::Exact;
            }
            w.attempted += 1;
            let root = rec
                .as_deref_mut()
                .map(|r| r.begin("request", None, request));
            let t0 = Instant::now();
            let ok = match op {
                Op::Exact | Op::Approx => {
                    let qi = self.take_query();
                    let q = &self.queries[qi];
                    let opts = if op == Op::Exact {
                        QueryOptions::new(K)
                    } else {
                        QueryOptions::approx(K, LSH_PROBES)
                    }
                    .with_trace(traced);
                    if traced && self.plan.workload == Workload::FourierIngest && op == Op::Exact {
                        w.delta_at_query.push(self.engine.delta_size() as f64);
                    }
                    let name = if op == Op::Exact {
                        "engine.query"
                    } else {
                        "lsh.query"
                    };
                    let span = rec.as_deref_mut().map(|r| r.begin(name, root, request));
                    let res = match rec.as_deref_mut() {
                        Some(r) => r
                            .time("pool.submit", span, request, || {
                                self.engine.submit(q, &opts)
                            })
                            .and_then(|p| r.time("pool.wait", span, request, || p.wait())),
                        None => self.engine.submit(q, &opts).and_then(|p| p.wait()),
                    };
                    let engine_ns = match (rec.as_deref_mut(), span) {
                        (Some(r), Some(s)) => r.end(s),
                        _ => 0,
                    };
                    let lat = t0.elapsed().as_nanos() as f64;
                    match res {
                        Ok(res) => {
                            if op == Op::Exact {
                                w.exact_ns.push(lat);
                                w.modeled_ms
                                    .push(res.cost.parallel_time.as_secs_f64() * 1e3);
                                self.exact_seen += 1;
                            } else {
                                w.approx_ns.push(lat);
                                self.approx_seen += 1;
                            }
                            if let Some(t) = &res.trace {
                                if op == Op::Exact {
                                    w.traced_queries += 1;
                                    w.dist_evals += t.dist_evals;
                                    w.dist_saved += t.dist_evals_saved;
                                    w.abandoned_rows += t.abandoned_rows;
                                    w.abandon_checkpoints += t.abandon_checkpoints;
                                    let max = res.cost.max_reads as f64;
                                    let avg = res.cost.total_reads as f64 / DISKS as f64;
                                    w.max_pages.push(max);
                                    if avg > 0.0 {
                                        w.balance.push(max / avg);
                                    }
                                } else {
                                    w.lsh_queries += 1;
                                    w.lsh_probes += t.lsh_probes;
                                    w.lsh_candidates += t.lsh_candidates;
                                    w.lsh_empty += t.lsh_empty_probes;
                                }
                            }
                            let seen = if op == Op::Exact {
                                self.exact_seen
                            } else {
                                self.approx_seen
                            };
                            if seen % SAMPLE_EVERY == 1 {
                                let kind = if op == Op::Exact {
                                    Kept::Exact
                                } else {
                                    Kept::Approx
                                };
                                self.keep(qi, &res, kind);
                            }
                            if let (Some(r), Some(s), true) =
                                (rec.as_deref_mut(), span, op == Op::Exact)
                            {
                                if self.exact_seen.is_multiple_of(REPLAY_EVERY) {
                                    let p0 = Instant::now();
                                    self.replay(r, s, request, q, engine_ns, w);
                                    paused += p0.elapsed();
                                }
                            }
                            true
                        }
                        Err(_) => false,
                    }
                }
                Op::Insert => {
                    let pi = self.next_insert % self.inserts.len();
                    self.next_insert += 1;
                    let p = self.inserts[pi].clone();
                    let res = match rec.as_deref_mut() {
                        Some(r) => r.time("ingest.insert", root, request, || self.engine.insert(p)),
                        None => self.engine.insert(p),
                    };
                    w.write_ns.push(t0.elapsed().as_nanos() as f64);
                    match res {
                        Ok(id) => {
                            self.live.push(id);
                            self.log.push(LogOp::Insert { id, point: pi });
                            true
                        }
                        Err(_) => false,
                    }
                }
                Op::Remove => {
                    let id = self.live.swap_remove(self.rng.below(self.live.len()));
                    let res = match rec.as_deref_mut() {
                        Some(r) => {
                            r.time("ingest.remove", root, request, || self.engine.remove(id))
                        }
                        None => self.engine.remove(id),
                    };
                    w.write_ns.push(t0.elapsed().as_nanos() as f64);
                    match res {
                        Ok(()) => {
                            self.log.push(LogOp::Remove { id });
                            true
                        }
                        Err(_) => {
                            self.live.push(id);
                            false
                        }
                    }
                }
            };
            if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
                r.end(root);
            }
            if ok {
                w.ops += 1;
            } else {
                w.failed += 1;
            }
            self.observe_delta(w);
        }
        let elapsed = (start.elapsed() - paused).as_secs_f64();
        w.rates.push((w.ops - ops_before) as f64 / elapsed);
        let cache_after: (u64, u64) = caches
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.hits(), m + c.misses()));
        w.cache_hits += cache_after.0 - cache_before.0;
        w.cache_misses += cache_after.1 - cache_before.1;
    }

    /// Replays the query's single-tree searches disk by disk, carrying
    /// one shared pruning bound, each in a `tree.search` span. The
    /// engine's self time is its span minus the critical path of the
    /// replayed searches: the longest one, or their total spread over the
    /// host's CPUs when that is longer (8 disks share 2 CPUs).
    fn replay(
        &self,
        rec: &mut Recorder,
        parent: SpanId,
        request: u64,
        q: &Point,
        engine_ns: u64,
        w: &mut Window,
    ) {
        let bound = SharedBound::new();
        let (mut total, mut longest, mut pages, mut pruned) = (0u64, 0u64, 0u64, 0u64);
        self.engine.for_each_tree(|tree| {
            let id = rec.begin("tree.search", Some(parent), request);
            let (_, stats) = tree.knn_traced(q, K, KnnAlgorithm::Rkv, Some(&bound));
            let ns = rec.end(id);
            total += ns;
            longest = longest.max(ns);
            pages += stats.pages;
            pruned += stats.pruned;
        });
        w.replay_total_ns.push(total as f64);
        w.replay_pages.push(pages as f64);
        w.replay_pruned.push(pruned as f64);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let critical = longest.max(total / cpus);
        w.engine_self_ns
            .push(engine_ns.saturating_sub(critical) as f64);
    }

    /// Runs `query_batch` over consecutive query chunks for `budget`,
    /// adding to `b`.
    fn batch(&mut self, budget: Duration, b: &mut Batch) {
        let opts = QueryOptions::new(K).with_workers(BATCH_WORKERS);
        let (mut answered, mut spent) = (0u64, 0.0f64);
        let start = Instant::now();
        while start.elapsed() < budget {
            let idx: Vec<usize> = (0..BATCH_SIZE).map(|_| self.take_query()).collect();
            let chunk: Vec<Point> = idx.iter().map(|&i| self.queries[i].clone()).collect();
            let t0 = Instant::now();
            let res = self.engine.query_batch(&chunk, &opts);
            spent += t0.elapsed().as_secs_f64();
            match res {
                Ok(results) => {
                    answered += results.len() as u64;
                    if b.calls.is_multiple_of(SAMPLE_EVERY) {
                        self.keep(idx[0], &results[0], Kept::Batch);
                    }
                }
                Err(_) => b.failed += chunk.len() as u64,
            }
            b.calls += 1;
        }
        b.answered += answered;
        b.rates.push(answered as f64 / spent.max(1e-9));
    }

    /// Checks every kept answer against the brute-force reference over
    /// the logical contents at the moment it was answered. Returns the
    /// failures, the tie-aware recall of the approximate answers, and
    /// their LSH candidates per true hit.
    fn gate(&self, data: &[Point]) -> (Vec<String>, Option<f64>, Option<f64>) {
        let mut live: Vec<Option<&Point>> = data.iter().map(Some).collect();
        let mut failures = Vec::new();
        let (mut recalls, mut candidates, mut hits) = (Vec::new(), 0u64, 0.0f64);
        for op in &self.log {
            match *op {
                LogOp::Insert { id, point } => {
                    let id = id as usize;
                    if live.len() <= id {
                        live.resize(id + 1, None);
                    }
                    live[id] = Some(&self.inserts[point]);
                }
                LogOp::Remove { id } => live[id as usize] = None,
                LogOp::Check { sample } => {
                    let s = &self.samples[sample];
                    let q = &self.queries[s.query];
                    let reference = gate::reference_bits(live.iter().flatten().copied(), q, K);
                    let verdict = match &s.approx {
                        None => gate::check_exact(&s.bits, &reference),
                        Some(neighbors) => {
                            let r = gate::recall(&s.bits, &reference);
                            recalls.push(r);
                            candidates += s.candidates;
                            hits += r * reference.len() as f64;
                            gate::check_members(neighbors, q, |id| {
                                live.get(id as usize).copied().flatten()
                            })
                        }
                    };
                    if let Err(e) = verdict {
                        let kind = if s.approx.is_some() {
                            "approx"
                        } else {
                            "exact"
                        };
                        failures.push(format!("{kind} query {}: {e}", s.query));
                    }
                }
            }
        }
        let recall = (!recalls.is_empty()).then(|| mean(&recalls));
        let per_hit = (candidates > 0 && hits > 0.0).then(|| candidates as f64 / hits);
        (failures, recall, per_hit)
    }
}

fn percentile_us(ns: &[f64], q: f64) -> f64 {
    quantile(&mut ns.to_vec(), q).unwrap_or(0.0) / 1e3
}

/// Runs `plan` for `seconds` under `seed`. With `trace`, the client window
/// is split into an untraced and a traced half, the batch phase is
/// skipped, and the per-layer metrics are added.
pub fn run(plan: &Plan, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let workload = plan.workload;
    let all = workload.generate(plan.points + plan.query_pool + plan.insert_pool, seed);
    let (data, rest) = all.split_at(plan.points);
    let (queries, inserts) = rest.split_at(plan.query_pool);

    let mut setup = Vec::with_capacity(plan.setup_builds);
    let mut engine = None;
    for _ in 0..plan.setup_builds.max(1) {
        drop(engine.take());
        let t0 = Instant::now();
        let built = plan
            .build(data)
            .map_err(|e| format!("engine build failed: {e}"))?;
        setup.push(t0.elapsed().as_secs_f64());
        engine = Some(built);
    }
    let engine = engine.expect("at least one build ran");
    let mut notes = Vec::new();
    if workload == Workload::ClusteredApprox {
        let mut pages = 0u64;
        engine
            .for_each_tree(|t| pages += t.iter_nodes().count() as u64 + t.supernode_extra_pages());
        notes.push(format!(
            "page cache holds {:.1}% of the {pages} index pages",
            100.0 * (plan.cache_pages_per_disk * DISKS) as f64 / pages as f64
        ));
    }

    let mut client = Client::new(plan, &engine, queries, inserts, seed);

    // Warm-up: the first queries fill the page cache and any lazy state.
    let warm = QueryOptions::new(K);
    for i in 0..plan.warmup_queries {
        let q = &queries[queries.len() - 1 - i % queries.len()];
        engine
            .query(q, &warm)
            .map_err(|e| format!("warm-up query failed: {e}"))?;
        if workload == Workload::ClusteredApprox {
            engine
                .query(q, &QueryOptions::approx(K, LSH_PROBES))
                .map_err(|e| format!("warm-up approx query failed: {e}"))?;
        }
    }

    let total = Duration::from_secs_f64(seconds.max(0.01));
    let round = total / ROUNDS;
    let (mut w, mut b) = (Window::default(), Batch::default());
    let mut traced = trace.then(|| (Window::default(), Recorder::new()));
    for _ in 0..ROUNDS {
        match traced.as_mut() {
            Some((tw, rec)) => {
                client.run(round.mul_f64(0.5), None, &mut w);
                client.run(round.mul_f64(0.4), Some(rec), tw);
            }
            None => {
                client.run(round.mul_f64(0.7), None, &mut w);
                client.batch(round.mul_f64(0.3), &mut b);
            }
        }
    }
    let (tw, recorder) = match traced {
        Some((tw, rec)) => (Some(tw), Some(rec)),
        None => (None, None),
    };

    let rebuilds = w.rebuilds + tw.as_ref().map_or(0, |t| t.rebuilds);
    if workload == Workload::FourierIngest && rebuilds < plan.min_rebuilds {
        return Err(format!(
            "only {rebuilds} background rebuilds completed; the workload needs {}",
            plan.min_rebuilds
        ));
    }
    if workload == Workload::FourierIngest {
        notes.push(format!("{rebuilds} background rebuilds completed"));
    }

    let (failures, recall, per_hit) = client.gate(data);
    let kept = client.samples.len();
    notes.push(format!("correctness gate checked {kept} sampled answers"));

    let attempted = w.attempted + tw.as_ref().map_or(0, |t| t.attempted) + b.answered + b.failed;
    let failed = w.failed + tw.as_ref().map_or(0, |t| t.failed) + b.failed;

    let mut m = Vec::new();
    let mut put = |name: &'static str, value: f64, samples: usize| {
        m.push(Measured {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit: metrics::def(name)
                .expect("every measured metric is defined")
                .unit,
            samples,
        })
    };
    put("setup_s", median(&mut setup.clone()), setup.len());
    put(
        "query_p50_us",
        percentile_us(&w.exact_ns, 0.5),
        w.exact_ns.len(),
    );
    put(
        "query_p99_us",
        percentile_us(&w.exact_ns, 0.99),
        w.exact_ns.len(),
    );
    put("ops_per_s", median(&mut w.rates.clone()), w.ops as usize);
    if !trace {
        put(
            "batch_qps",
            median(&mut b.rates.clone()),
            b.answered as usize,
        );
    }
    put("modeled_query_ms", mean(&w.modeled_ms), w.modeled_ms.len());
    if !w.approx_ns.is_empty() {
        put(
            "approx_p50_us",
            percentile_us(&w.approx_ns, 0.5),
            w.approx_ns.len(),
        );
        put(
            "approx_p99_us",
            percentile_us(&w.approx_ns, 0.99),
            w.approx_ns.len(),
        );
    }
    if !w.write_ns.is_empty() {
        put(
            "write_p50_us",
            percentile_us(&w.write_ns, 0.5),
            w.write_ns.len(),
        );
        put(
            "write_p99_us",
            percentile_us(&w.write_ns, 0.99),
            w.write_ns.len(),
        );
    }
    if let Some(r) = recall {
        put("recall_at_10", r, client.kept[Kept::Approx as usize]);
    }
    put(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    );

    if let (Some(t), Some(rec)) = (tw.as_ref(), recorder.as_ref()) {
        let (f64_ns, f32_ns, q8w_ns, passes) =
            kernel::ns_per_row(data, queries, total.mul_f64(0.03));
        put("kernel.f64_ns_per_row", f64_ns, passes);
        put("kernel.f32_ns_per_row", f32_ns, passes);
        put("kernel.q8w_ns_per_row", q8w_ns, passes);
        let nq = t.traced_queries.max(1) as f64;
        let tq = t.traced_queries as usize;
        put("kernel.dist_evals", t.dist_evals as f64 / nq, tq);
        put(
            "kernel.saved_ratio",
            t.dist_saved as f64 / (t.dist_evals + t.dist_saved).max(1) as f64,
            tq,
        );
        put(
            "kernel.abandon_depth",
            4.0 * t.abandon_checkpoints as f64 / t.abandoned_rows.max(1) as f64,
            t.abandoned_rows as usize,
        );
        let replays = t.replay_total_ns.len();
        put("tree.search_us", mean(&t.replay_total_ns) / 1e3, replays);
        put("tree.pages", mean(&t.replay_pages), replays);
        put("tree.pruned", mean(&t.replay_pruned), replays);
        put("disk.max_pages", mean(&t.max_pages), t.max_pages.len());
        put("disk.balance", mean(&t.balance), t.balance.len());
        let load = engine.load_distribution();
        let load_mean = load.iter().sum::<usize>() as f64 / load.len().max(1) as f64;
        let load_max = load.iter().copied().max().unwrap_or(0) as f64;
        put("decluster.load_imbalance", load_max / load_mean, load.len());
        let lookups = t.cache_hits + t.cache_misses;
        put(
            "cache.hit_ratio",
            t.cache_hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        );
        put(
            "engine.query_us",
            rec.mean_us("engine.query"),
            rec.count("engine.query"),
        );
        put("engine.self_us", mean(&t.engine_self_ns) / 1e3, replays);
        put(
            "pool.submit_us",
            rec.mean_us("pool.submit"),
            rec.count("pool.submit"),
        );
        put(
            "pool.wait_us",
            rec.mean_us("pool.wait"),
            rec.count("pool.wait"),
        );
        let lq = t.lsh_queries.max(1) as f64;
        put(
            "lsh.query_us",
            rec.mean_us("lsh.query"),
            rec.count("lsh.query"),
        );
        put(
            "lsh.probes",
            t.lsh_probes as f64 / lq,
            t.lsh_queries as usize,
        );
        put(
            "lsh.candidates",
            t.lsh_candidates as f64 / lq,
            t.lsh_queries as usize,
        );
        put(
            "lsh.empty_probe_ratio",
            t.lsh_empty as f64 / t.lsh_probes.max(1) as f64,
            t.lsh_probes as usize,
        );
        put(
            "lsh.candidates_per_hit",
            per_hit.unwrap_or(0.0),
            client.kept[Kept::Approx as usize],
        );
        put(
            "ingest.insert_us",
            rec.mean_us("ingest.insert"),
            rec.count("ingest.insert"),
        );
        put(
            "ingest.remove_us",
            rec.mean_us("ingest.remove"),
            rec.count("ingest.remove"),
        );
        put(
            "ingest.delta_points",
            mean(&t.delta_at_query),
            t.delta_at_query.len(),
        );
        put("ingest.rebuilds", t.rebuilds as f64, t.rebuilds);
        put(
            "ingest.reorganize_s",
            mean(&t.reorganize_s),
            t.reorganize_s.len(),
        );
        let ratio = median(&mut t.rates.clone()) / median(&mut w.rates.clone());
        put("trace.overhead_ratio", ratio, t.ops as usize);
    }
    put("peak_rss_mb", peak_rss_mb(), 1);

    Ok(Outcome {
        workload: workload.name(),
        correct: failures.is_empty(),
        failures,
        attempted,
        failed,
        metrics: m,
        notes,
        recorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny engine, its data and queries, and a client that already ran
    /// a short closed loop and a batch phase.
    fn ran(workload: Workload, f: impl FnOnce(&mut Client, &[Point])) {
        let plan = Plan::tiny(workload);
        let all = workload.generate(plan.points + plan.query_pool + plan.insert_pool, 5);
        let (data, rest) = all.split_at(plan.points);
        let (queries, inserts) = rest.split_at(plan.query_pool);
        let engine = plan.build(data).expect("tiny engine builds");
        let mut client = Client::new(&plan, &engine, queries, inserts, 5);
        let mut w = Window::default();
        client.run(Duration::from_millis(300), None, &mut w);
        assert_eq!(w.failed, 0);
        client.batch(Duration::from_millis(100), &mut Batch::default());
        f(&mut client, data);
    }

    #[test]
    fn the_gate_passes_true_answers_and_rejects_a_perturbed_one() {
        for workload in Workload::ALL {
            ran(workload, |client, data| {
                let (failures, _, _) = client.gate(data);
                assert!(failures.is_empty(), "{}: {failures:?}", workload.name());
                let s = client
                    .samples
                    .iter_mut()
                    .find(|s| s.approx.is_none())
                    .expect("an exact answer was kept");
                s.bits[K - 1] += 1;
                let (failures, _, _) = client.gate(data);
                assert_eq!(failures.len(), 1, "{}", workload.name());
            });
        }
    }

    #[test]
    fn the_gate_rejects_an_approximate_answer_at_a_wrong_distance() {
        ran(Workload::ClusteredApprox, |client, data| {
            let s = client
                .samples
                .iter_mut()
                .find(|s| s.approx.is_some())
                .expect("an approximate answer was kept");
            let n = &mut s.approx.as_mut().expect("approximate")[0];
            n.dist = f64::from_bits(n.dist.to_bits() + 1);
            let (failures, recall, _) = client.gate(data);
            assert_eq!(failures.len(), 1);
            assert!(recall.is_some_and(|r| r > 0.0 && r <= 1.0));
        });
    }

    #[test]
    fn the_ingest_gate_follows_removes() {
        ran(Workload::FourierIngest, |client, data| {
            // The reference replays both kinds of write before each check.
            assert!(client
                .log
                .iter()
                .any(|op| matches!(op, LogOp::Remove { .. })));
            assert!(client
                .log
                .iter()
                .any(|op| matches!(op, LogOp::Insert { .. })));
            let (failures, _, _) = client.gate(data);
            assert!(failures.is_empty(), "{failures:?}");
        });
    }
}
