//! The parallel k-NN engine.
//!
//! The engine's shared, thread-safe state (disk array, per-disk trees,
//! mirror trees) lives in an `EngineCore` behind an `Arc`, so both
//! drivers of the query state machine in [`crate::pool`] — inline on the
//! caller's thread and the persistent worker pool — execute the same
//! per-disk steps against the same data.
//!
//! Since the streaming-ingest redesign the engine itself is a thin handle
//! over an `EngineShared`: the swappable `EngineInner` (core + pool +
//! build recipe) behind a `RwLock`, next to the write-path state — the
//! delta buffer of [`crate::ingest`], the id allocator, and the shadow-
//! rebuild machinery. Every maintenance operation takes `&self`;
//! [`ParallelKnnEngine::reorganize`] bulk-loads a replacement inner off
//! to the side and swaps it in atomically while queries keep running.
//! See `DESIGN.md` ("Query execution backbone", "Streaming ingest &
//! online reorganize") for the full picture.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use parsim_decluster::replica::ReplicaRouting;
use parsim_decluster::Declusterer;
use parsim_geometry::Point;
use parsim_index::knn::{forest_itinerary, ForestCursor, Neighbor, SearchStats, SharedBound};
use parsim_index::{
    CachingSink, CoalescingSink, DiskSink, KnnAlgorithm, LshConfig, NodeSink, SpatialTree,
    TreeParams, DEFAULT_CACHE_SHARDS,
};
use parsim_storage::{DiskArray, DiskModel, FaultInjector, FaultKind, QueryCost};

use crate::builder::{resolve_default_decluster, EngineBuilder};
use crate::config::EngineConfig;
use crate::ingest::{DeltaOp, DeltaState, IngestConfig, QueryOverlay};
use crate::lsh::{merge_unique_candidates, DiskProbes, LshCounters, LshRuntime};
use crate::metrics::{DegradedInfo, QueryTrace};
use crate::obs::EngineMetrics;
use crate::options::{ExecutionMode, QueryMode, QueryOptions, QueryResult, RetryPolicy};
use crate::pool::{
    deliver, panic_message, run_inline, Completion, PendingQuery, Phase, QueryTask, Stage,
    WorkerPool,
};
use crate::serve::AdmissionConfig;
use crate::EngineError;

/// One query's answer: neighbors plus the exact trace.
pub(crate) type TracedAnswer = Result<(Vec<Neighbor>, QueryTrace), EngineError>;

/// The paper's parallel similarity-search system: a declusterer assigns
/// every feature vector to one of `n` simulated disks, each disk carries a
/// local X-tree, and k-NN queries execute on all disks concurrently.
///
/// Engines are constructed with [`ParallelKnnEngine::builder`]. With
/// [`EngineBuilder::replicas`] every bucket additionally gets a mirror
/// copy on a second disk, and queries survive disk failures injected
/// through [`ParallelKnnEngine::faults`]: reads against a failed, flaky,
/// or over-budget disk **fail over** to the replicas and still return the
/// exact (bit-identical) answer.
///
/// With [`EngineBuilder::execution`] set to [`ExecutionMode::Pooled`] the
/// engine keeps one persistent worker thread per disk and queries are
/// enqueued ([`ParallelKnnEngine::submit`]) instead of spawning threads;
/// dropping the engine drains in-flight queries and joins the pool.
///
/// With [`EngineBuilder::ingest`] the engine additionally accepts writes
/// while queries run: [`ParallelKnnEngine::insert`] /
/// [`ParallelKnnEngine::remove`] land in a bounded delta buffer that
/// every query merges into its answer (always exact over
/// `index ∪ delta`), and [`ParallelKnnEngine::reorganize`] — now
/// non-consuming — drains the buffer through a background-capable shadow
/// rebuild with an atomic state swap.
pub struct ParallelKnnEngine {
    shared: Arc<EngineShared>,
}

/// Everything behind the engine handle that must be shared with the
/// background rebuild thread: the swappable inner under its lock, the
/// write-path state, and the registry that outlives every swap.
pub(crate) struct EngineShared {
    /// The swappable engine state. Queries take the read lock for the
    /// duration of submission (pooled) or execution (scoped);
    /// [`EngineShared::rebuild`] takes the write lock only for the final
    /// pointer swap.
    inner: RwLock<EngineInner>,
    /// Dimensionality of the points, fixed at build: the write path
    /// checks it without touching `inner`.
    dim: usize,
    /// Write-path configuration; `None` means the engine is read-only
    /// and the delta buffer stays empty forever (queries skip it).
    ingest: Option<IngestConfig>,
    /// The delta buffer. Writes take only this lock; everything that
    /// also needs `inner` takes `inner` first.
    delta: Mutex<DeltaState>,
    /// Item-id allocator; seeded past the largest bulk-loaded id.
    next_seq: AtomicU64,
    /// Serializes rebuilds: trigger storms and concurrent explicit
    /// `reorganize()` calls queue here instead of racing.
    maintenance: Mutex<()>,
    /// True while a triggered background rebuild is queued or running —
    /// collapses a burst of triggering writes into one rebuild.
    rebuild_running: AtomicBool,
    /// The most recent background rebuild thread, joined on engine drop
    /// (and opportunistically when the next one starts).
    rebuild_handle: Mutex<Option<JoinHandle<()>>>,
    /// The engine-wide metrics registry. Held here — above the swappable
    /// inner — so cumulative totals survive every reorganize.
    metrics: Option<Arc<EngineMetrics>>,
}

/// The swappable unit of engine state: the query-facing core plus the
/// build recipe needed to reconstruct it (declusterer, caches, pool).
/// A shadow rebuild constructs a complete replacement `EngineInner` and
/// swaps it behind [`EngineShared::inner`]; dropping the old one drains
/// its worker pool against the old core (the PR-4 in-flight counter).
pub(crate) struct EngineInner {
    core: Arc<EngineCore>,
    declusterer: Arc<dyn Declusterer>,
    replica_router: Option<Arc<dyn ReplicaRouting>>,
    page_cache_capacity: Option<usize>,
    /// Per-disk page caches; empty unless [`EngineBuilder::page_cache`]
    /// was set.
    caches: Vec<Arc<CachingSink>>,
    execution: ExecutionMode,
    /// True when the declusterer was supplied explicitly at build time —
    /// a rebuild then reuses it verbatim instead of re-deriving the
    /// default declustering from the current data.
    explicit_declusterer: bool,
    /// The persistent per-disk worker pool; `Some` iff `execution` is
    /// [`ExecutionMode::Pooled`]. Dropped (drained + joined) before the
    /// core when this inner is replaced or the engine goes away.
    pool: Option<WorkerPool>,
}

/// The engine state shared with the worker pool: the simulated disk
/// array plus the per-disk primary and mirror trees.
///
/// Trees sit behind [`RwLock`]s because pool workers outlive any `&mut
/// self` borrow of the engine: queries take read locks (one tree at a
/// time). Since the streaming-ingest redesign the trees are never
/// mutated in place — writes go to the delta buffer and materialize
/// through the shadow rebuild.
pub(crate) struct EngineCore {
    pub(crate) config: EngineConfig,
    pub(crate) array: DiskArray,
    pub(crate) trees: Vec<RwLock<SpatialTree>>,
    /// `mirrors[d][j]` is the tree holding the replica copies of disk
    /// `d`'s points that live on disk `j`. Empty maps when the engine was
    /// built without replicas. Mirror trees bypass the page caches: they
    /// are touched only on failover, so caching them would let rare
    /// degraded queries evict the hot primary working set.
    pub(crate) mirrors: Vec<RwLock<BTreeMap<usize, SpatialTree>>>,
    /// The approximate tier: the fitted LSH runtime, or `None` (the
    /// default) for an exact-only engine. Built from the same items as
    /// the trees at every bulk load, so index and LSH tier always agree
    /// on the main-index contents.
    pub(crate) lsh: Option<Arc<LshRuntime>>,
    /// The engine-wide metrics registry; `None` (the default) keeps the
    /// query path free of any additional atomic operations.
    pub(crate) metrics: Option<Arc<EngineMetrics>>,
    /// Serve-layer admission policy; `None` (the default) keeps the pool
    /// on unbounded FIFO queues with no deadlines and no coalescing.
    pub(crate) admission: Option<AdmissionConfig>,
    /// Per-disk read-combining sinks; non-empty iff
    /// [`AdmissionConfig::coalescing`] is on. Workers open each popped
    /// task's wave on its disk's combiner before searching.
    pub(crate) coalescers: Vec<Arc<CoalescingSink>>,
}

/// The mutable state of one degraded-mode query of either tier. Every
/// driver runs the same per-disk steps ([`EngineCore::degraded_primary`],
/// [`EngineCore::plan_failover`], [`EngineCore::degraded_failover`]) in
/// the same order, so the paper's failure handling is identical whichever
/// thread runs each step (same retry draws, same failover order, same
/// trace).
pub(crate) struct DegradedState {
    pub(crate) timeout: Option<Duration>,
    pub(crate) retry: RetryPolicy,
    /// What the query searches: trees or LSH shards.
    pub(crate) target: DegradedTarget,
    pub(crate) extra_time: Vec<Duration>,
    pub(crate) candidates: Vec<Vec<Neighbor>>,
    pub(crate) down: Vec<usize>,
    pub(crate) failed_over: Vec<usize>,
    pub(crate) replica_pages: u64,
    pub(crate) retries_total: u64,
    /// Failover stops, in execution order: `(down disk, mirror host)`.
    pub(crate) itinerary: Vec<(usize, usize)>,
    /// A down disk discovered (during planning) to have no mirrors: the
    /// query fails with `BucketUnavailable` *after* the itinerary built so
    /// far has run.
    pub(crate) error_after: Option<usize>,
}

/// The tier a degraded query searches.
pub(crate) enum DegradedTarget {
    /// The exact tier: every disk's primary tree, then the mirror trees
    /// of each down disk, all pruned against one carried bound.
    Exact {
        /// The carried pruning bound.
        bound: SharedBound,
    },
    /// The approximate tier: the probe plan's disks, then the LSH mirror
    /// shard of each down disk for the same buckets.
    Approx {
        /// Probe targets grouped by owning disk, ascending.
        plan: Vec<DiskProbes>,
        /// LSH work counters, folded into the trace at assembly.
        counters: LshCounters,
    },
}

impl DegradedState {
    pub(crate) fn new(
        disks: usize,
        timeout: Option<Duration>,
        retry: RetryPolicy,
        target: DegradedTarget,
    ) -> Self {
        DegradedState {
            timeout,
            retry,
            target,
            extra_time: vec![Duration::ZERO; disks],
            candidates: vec![Vec::new(); disks],
            down: Vec::new(),
            failed_over: Vec::new(),
            replica_pages: 0,
            retries_total: 0,
            itinerary: Vec::new(),
            error_after: None,
        }
    }

    /// The disk of primary step `i`, or `None` once every primary step
    /// ran: all disks in order for the exact tier, the plan's disks for
    /// the approximate one.
    pub(crate) fn primary_disk(&self, i: usize) -> Option<usize> {
        match &self.target {
            DegradedTarget::Exact { .. } => (i < self.candidates.len()).then_some(i),
            DegradedTarget::Approx { plan, .. } => plan.get(i).map(|p| p.disk),
        }
    }
}

/// A cloneable handle on the engine's fault injector, valid across
/// reorganize swaps of the engine that produced it (it pins the core it
/// was taken from). Dereferences to [`FaultInjector`].
pub struct FaultsHandle(Arc<EngineCore>);

impl Deref for FaultsHandle {
    type Target = FaultInjector;
    fn deref(&self) -> &FaultInjector {
        self.0.array.faults()
    }
}

/// A handle on the engine's simulated disk array (for experiment
/// accounting), pinning the core it was taken from. Dereferences to
/// [`DiskArray`].
pub struct ArrayHandle(Arc<EngineCore>);

impl Deref for ArrayHandle {
    type Target = DiskArray;
    fn deref(&self) -> &DiskArray {
        &self.0.array
    }
}

impl EngineCore {
    /// Opens coalescing wave `wave` on `disk`'s read-combining window —
    /// a no-op without coalescing sinks installed. Correctness never
    /// depends on the window state: a reset window only forgoes
    /// read-sharing, it cannot mis-coalesce.
    pub(crate) fn begin_wave(&self, disk: usize, wave: u64) {
        if let Some(c) = self.coalescers.get(disk) {
            c.begin_wave(wave);
        }
    }

    /// The RKV itinerary of the current trees (see
    /// [`parsim_index::forest_itinerary`]).
    pub(crate) fn itinerary(&self, query: &Point) -> Vec<(f64, usize)> {
        let guards: Vec<_> = self.trees.iter().map(|t| t.read()).collect();
        let refs: Vec<&SpatialTree> = guards.iter().map(|g| &**g).collect();
        forest_itinerary(&refs, query)
    }

    /// One RKV pipeline hop: visit tree `disk` with the traveling cursor.
    pub(crate) fn cursor_visit(
        &self,
        disk: usize,
        cursor: &mut ForestCursor,
        query: &Point,
        stats: &mut SearchStats,
    ) {
        cursor.visit(&self.trees[disk].read(), query, stats);
    }

    /// The approximate tier. Approximate tasks are built only when the
    /// tier exists, so only they call this.
    pub(crate) fn lsh(&self) -> &LshRuntime {
        self.lsh.as_ref().expect("Approx stage needs the LSH tier")
    }

    /// Searches one copy of disk `d`'s data for a degraded query: its
    /// primary (`host == None`) or the mirror hosted on `host`. The
    /// returned stats count the pages the copy's host disk read.
    fn degraded_search(
        &self,
        d: usize,
        host: Option<usize>,
        query: &Point,
        k: usize,
        target: &mut DegradedTarget,
    ) -> (Vec<Neighbor>, SearchStats) {
        match target {
            DegradedTarget::Exact { bound } => match host {
                None => self.trees[d]
                    .read()
                    .knn_traced(query, k, KnnAlgorithm::Rkv, Some(bound)),
                Some(host) => {
                    let mirrors = self.mirrors[d].read();
                    let mirror = mirrors.get(&host).expect("planned failover host exists");
                    mirror.knn_traced(query, k, KnnAlgorithm::Rkv, Some(bound))
                }
            },
            DegradedTarget::Approx { plan, counters } => {
                let at = plan
                    .binary_search_by_key(&d, |p| p.disk)
                    .expect("degraded approx steps visit plan disks only");
                let buckets = &plan[at].buckets;
                let mut stats = SearchStats::default();
                let cands = match host {
                    None => self
                        .lsh()
                        .scan_disk(d, buckets, query, k, &mut stats, counters),
                    Some(_) => self
                        .lsh()
                        .scan_mirror(d, buckets, query, k, &mut stats, counters),
                };
                (cands, stats)
            }
        }
    }

    /// The degraded primary step of one disk: skip it if hard-failed,
    /// otherwise search it, replay the flaky-read error stream, and apply
    /// the timeout budget. An unusable disk joins `state.down`.
    pub(crate) fn degraded_primary(
        &self,
        disk: usize,
        query: &Point,
        k: usize,
        state: &mut DegradedState,
        stats: &mut [SearchStats],
    ) {
        let faults = self.array.faults();
        if faults.is_failed(disk) {
            state.down.push(disk);
            return;
        }
        let (cands, s) = self.degraded_search(disk, None, query, k, &mut state.target);
        stats[disk].merge(s);
        let mut alive = true;
        if matches!(faults.fault(disk), Some(FaultKind::Flaky { .. })) {
            let (retries, extra, ok) =
                simulate_flaky_reads(faults, disk, s.pages, &state.retry, self.array.model());
            state.retries_total += retries;
            state.extra_time[disk] += extra;
            alive = ok;
        }
        if alive {
            if let Some(budget) = state.timeout {
                let disk_time = faults
                    .model_for(disk, self.array.model())
                    .service_time(stats[disk].pages)
                    + state.extra_time[disk];
                alive = disk_time <= budget;
            }
        }
        if alive {
            state.candidates[disk] = cands;
        } else {
            // The pages were read (and are charged) but the answer is not
            // trusted: the disk's buckets fail over.
            state.down.push(disk);
        }
    }

    /// Plans the failover itinerary once every primary step ran: each
    /// down disk contributes its mirror hosts in ascending order (for the
    /// exact tier, a down disk with an empty tree has nothing to serve).
    /// A down disk with no mirror truncates the plan and records the
    /// error, so the query fails after searching what it could.
    pub(crate) fn plan_failover(&self, state: &mut DegradedState) {
        for i in 0..state.down.len() {
            let d = state.down[i];
            let hosts: Vec<usize> = match state.target {
                DegradedTarget::Exact { .. } => {
                    if self.trees[d].read().is_empty() {
                        continue;
                    }
                    self.mirrors[d].read().keys().copied().collect()
                }
                DegradedTarget::Approx { .. } => self.lsh().mirror_host(d).into_iter().collect(),
            };
            if hosts.is_empty() {
                state.error_after = Some(d);
                break;
            }
            state
                .itinerary
                .extend(hosts.into_iter().map(|host| (d, host)));
        }
    }

    /// Executes failover stop `pos` of the planned itinerary: search the
    /// mirror of the down disk on its host, replaying the host's flaky
    /// stream. Errors if the host itself is failed or flaky beyond the
    /// retry policy.
    pub(crate) fn degraded_failover(
        &self,
        pos: usize,
        query: &Point,
        k: usize,
        state: &mut DegradedState,
        stats: &mut [SearchStats],
    ) -> Result<(), EngineError> {
        let (d, host) = state.itinerary[pos];
        let faults = self.array.faults();
        if faults.is_failed(host) {
            return Err(EngineError::BucketUnavailable { disk: d });
        }
        let (cands, s) = self.degraded_search(d, Some(host), query, k, &mut state.target);
        if matches!(faults.fault(host), Some(FaultKind::Flaky { .. })) {
            let (retries, extra, ok) =
                simulate_flaky_reads(faults, host, s.pages, &state.retry, self.array.model());
            state.retries_total += retries;
            state.extra_time[host] += extra;
            if !ok {
                return Err(EngineError::BucketUnavailable { disk: d });
            }
        }
        state.replica_pages += s.pages;
        stats[host].merge(s);
        state.candidates[host].extend(cands);
        // The down disk is fully served once its last host ran.
        if state.itinerary.get(pos + 1).map(|&(nd, _)| nd) != Some(d) {
            state.failed_over.push(d);
        }
        Ok(())
    }

    /// Merges a finished degraded query into its answer and trace: the
    /// degraded critical path charges every disk its fault-scaled service
    /// time plus retry backoff; timed-out disks charge the budget;
    /// hard-failed disks charge nothing.
    pub(crate) fn assemble_degraded(
        &self,
        state: DegradedState,
        k: usize,
        stats: &[SearchStats],
        wall: Duration,
    ) -> Result<(Vec<Neighbor>, QueryTrace), EngineError> {
        if let Some(d) = state.error_after {
            return Err(EngineError::BucketUnavailable { disk: d });
        }
        let faults = self.array.faults();
        let model = self.array.model();
        let mut modeled_parallel = Duration::ZERO;
        for (i, s) in stats.iter().enumerate().take(self.trees.len()) {
            let mut t = faults.model_for(i, model).service_time(s.pages) + state.extra_time[i];
            if state.down.contains(&i) {
                if faults.is_failed(i) {
                    t = Duration::ZERO;
                } else if let Some(budget) = state.timeout {
                    t = t.min(budget);
                }
            }
            modeled_parallel = modeled_parallel.max(t);
        }
        let locals = state.candidates.iter().map(Vec::as_slice);
        let mut trace = QueryTrace::from_stats(stats, wall, model);
        let merged = match state.target {
            DegradedTarget::Exact { .. } => merge_candidates(locals, k),
            DegradedTarget::Approx { counters, .. } => {
                counters.fold_into(&mut trace);
                merge_unique_candidates(locals, k)
            }
        };
        let healthy_parallel = trace.modeled_parallel;
        trace.modeled_parallel = modeled_parallel;
        trace.degraded = Some(DegradedInfo {
            failed_over: state.failed_over,
            retries: state.retries_total,
            replica_pages: state.replica_pages,
            added_latency: modeled_parallel.saturating_sub(healthy_parallel),
        });
        Ok((merged, trace))
    }
}

impl EngineInner {
    /// Bulk-loads one complete engine state: one primary tree per disk
    /// and, when a replica router is supplied, one mirror tree per
    /// (source disk, mirror disk) pair; sink chains (`DiskSink`,
    /// optionally wrapped by a [`DEFAULT_CACHE_SHARDS`]-way sharded LRU
    /// [`CachingSink`], optionally wrapped by a [`CoalescingSink`] —
    /// outermost first) installed at construction. With [`ExecutionMode::Pooled`] the per-disk worker
    /// pool starts eagerly, before the first query.
    #[allow(clippy::too_many_arguments)]
    fn build(
        items: Vec<(Point, u64)>,
        declusterer: Arc<dyn Declusterer>,
        replica_router: Option<Arc<dyn ReplicaRouting>>,
        config: EngineConfig,
        page_cache: Option<usize>,
        execution: ExecutionMode,
        metrics: Option<Arc<EngineMetrics>>,
        admission: Option<AdmissionConfig>,
        lsh_config: Option<LshConfig>,
        explicit_declusterer: bool,
    ) -> Result<EngineInner, EngineError> {
        if items.is_empty() {
            return Err(EngineError::EmptyDataSet);
        }
        for (p, _) in &items {
            if p.dim() != config.dim {
                return Err(EngineError::DimensionMismatch {
                    expected: config.dim,
                    got: p.dim(),
                });
            }
        }
        let disks = declusterer.disks();
        let array = DiskArray::new(disks, config.disk_model)
            .map_err(|e| EngineError::Internal(e.to_string()))?;
        if let Some(m) = &metrics {
            array.faults().set_metrics(m.fault_metrics());
        }

        // The approximate tier fits its hash family and shards on the
        // same item set the trees are about to bulk-load, before the
        // partitioning below consumes it.
        let lsh = lsh_config.map(|cfg| {
            Arc::new(LshRuntime::build(
                cfg,
                config.dim,
                &items,
                disks,
                replica_router.is_some(),
            ))
        });

        // Partition the items over the disks; with replication every
        // point also lands in the mirror partition its router picks.
        let mut partitions: Vec<Vec<(Point, u64)>> = vec![Vec::new(); disks];
        let mut mirror_parts: Vec<BTreeMap<usize, Vec<(Point, u64)>>> =
            vec![BTreeMap::new(); disks];
        for (p, item) in items {
            let disk = declusterer.assign(item, &p);
            if let Some(router) = &replica_router {
                let mirror = router.replica_disk(item, &p);
                mirror_parts[disk]
                    .entry(mirror)
                    .or_default()
                    .push((p.clone(), item));
            }
            partitions[disk].push((p, item));
        }

        // One bulk-loaded tree per disk, charging that disk. The sink
        // chain wraps the disk at construction: a coalesced visit skips
        // the cache entirely and leaves the LRU state exactly as an
        // uncoalesced replay would expect.
        let coalescing = admission.map(|a| a.coalescing).unwrap_or(false);
        let mut caches = Vec::new();
        let mut coalescers = Vec::new();
        let mut trees = Vec::with_capacity(disks);
        for (i, part) in partitions.into_iter().enumerate() {
            let params = TreeParams::for_dim(config.dim, config.variant)
                .map_err(|e| EngineError::Internal(e.to_string()))?;
            let mut tree = SpatialTree::bulk_load(params, part)
                .map_err(|e| EngineError::Internal(e.to_string()))?
                .with_disk(Arc::clone(array.disk(i)));
            if page_cache.is_some() || coalescing {
                let mut sink: Arc<dyn NodeSink> = Arc::new(DiskSink(Arc::clone(array.disk(i))));
                if let Some(capacity) = page_cache {
                    let cm = metrics.as_ref().map(|m| m.cache_metrics(i));
                    let cache = Arc::new(CachingSink::with_metrics(
                        sink,
                        capacity,
                        DEFAULT_CACHE_SHARDS,
                        cm,
                    ));
                    caches.push(Arc::clone(&cache));
                    sink = cache;
                }
                if coalescing {
                    let combiner = Arc::new(CoalescingSink::new(sink));
                    coalescers.push(Arc::clone(&combiner));
                    sink = combiner;
                }
                tree = tree.with_sink(sink);
            }
            trees.push(tree);
        }

        // Mirror trees charge the disk that hosts the replica.
        let mut mirrors = Vec::with_capacity(disks);
        for parts in mirror_parts {
            let mut per_host = BTreeMap::new();
            for (host, part) in parts {
                let params = TreeParams::for_dim(config.dim, config.variant)
                    .map_err(|e| EngineError::Internal(e.to_string()))?;
                let tree = SpatialTree::bulk_load(params, part)
                    .map_err(|e| EngineError::Internal(e.to_string()))?
                    .with_disk(Arc::clone(array.disk(host)));
                per_host.insert(host, tree);
            }
            mirrors.push(per_host);
        }

        let core = Arc::new(EngineCore {
            config,
            array,
            trees: trees.into_iter().map(RwLock::new).collect(),
            mirrors: mirrors.into_iter().map(RwLock::new).collect(),
            lsh,
            metrics: metrics.clone(),
            admission,
            coalescers,
        });
        let pool =
            (execution == ExecutionMode::Pooled).then(|| WorkerPool::start(Arc::clone(&core)));
        Ok(EngineInner {
            core,
            declusterer,
            replica_router,
            page_cache_capacity: page_cache,
            caches,
            execution,
            explicit_declusterer,
            pool,
        })
    }

    /// Builds the dimension-checked query's [`QueryTask`] and hands it to
    /// the pool (pooled mode) or runs it inline (scoped mode). On a scoped
    /// engine, `fan_out` lets a healthy exact query take the per-disk
    /// fan-out of [`EngineInner::knn_healthy`] instead. `wave` groups
    /// pooled queries into one coalescing wave; `None` draws a fresh
    /// (private) wave. `overlay` is the query's delta-buffer snapshot:
    /// the search runs with `k` inflated by its tombstone count and the
    /// handle merges the snapshot into the answer on
    /// [`PendingQuery::wait`].
    pub(crate) fn submit_with_wave(
        &self,
        query: &Point,
        opts: &QueryOptions,
        wave: Option<u64>,
        overlay: Option<QueryOverlay>,
        fan_out: bool,
    ) -> Result<PendingQuery, EngineError> {
        let core = &*self.core;
        let probes = match opts.mode {
            QueryMode::Exact => None,
            QueryMode::Approx { .. } if core.lsh.is_none() => {
                return Err(EngineError::ApproxUnavailable)
            }
            QueryMode::Approx { probes } => Some(probes),
        };
        let (timeout, retry) = (opts.timeout, opts.retry.unwrap_or_default());
        let k = opts.k + overlay.as_ref().map_or(0, QueryOverlay::extra_k);
        let degraded = timeout.is_some() || core.array.faults().any_armed();
        let n = core.trees.len();
        let start = Instant::now();
        let completion = Arc::new(Completion::new());
        let pending = PendingQuery::new(
            Arc::clone(&completion),
            opts.trace,
            *core.array.model(),
            overlay,
        );
        if let Some(m) = &core.metrics {
            m.record_start();
        }
        if k == 0 {
            // Nothing to search: an empty answer with an all-zero trace.
            let stats = vec![SearchStats::default(); n];
            let trace = QueryTrace::from_stats(&stats, start.elapsed(), core.array.model());
            deliver(core, &completion, Ok((Vec::new(), trace)));
            return Ok(pending);
        }
        if fan_out && self.pool.is_none() && probes.is_none() && !degraded {
            deliver(core, &completion, self.knn_healthy(query, k));
            return Ok(pending);
        }
        let stage = if degraded {
            let target = match probes {
                Some(probes) => DegradedTarget::Approx {
                    plan: core.lsh().plan(query, probes),
                    counters: LshCounters::default(),
                },
                None => DegradedTarget::Exact {
                    bound: SharedBound::new(),
                },
            };
            Stage::Degraded {
                state: DegradedState::new(n, timeout, retry, target),
                phase: Phase::Primaries { next: 0 },
            }
        } else if let Some(probes) = probes {
            Stage::Approx {
                plan: core.lsh().plan(query, probes),
                pos: 0,
                candidates: vec![Vec::new(); n],
                counters: LshCounters::default(),
            }
        } else {
            Stage::Rkv {
                cursor: ForestCursor::new(k),
                itinerary: core.itinerary(query),
                pos: 0,
            }
        };
        let deadline = opts.deadline.or(core.admission.and_then(|a| a.deadline));
        let mut task = QueryTask {
            query: query.clone(),
            k,
            stats: vec![SearchStats::default(); n],
            start,
            stage,
            completion,
            wave: 0,
            deadline_micros: deadline.map(|d| d.as_micros() as u64),
            spent_micros: 0,
            seq: 0,
        };
        let Some(pool) = &self.pool else {
            run_inline(core, task);
            return Ok(pending);
        };
        task.wave = wave.unwrap_or_else(|| pool.next_wave());
        match pool.submit(task) {
            Ok(()) => Ok(pending),
            Err(e) => {
                // The task never entered the system: surface the typed
                // rejection instead of the (never-completing) handle.
                if let Some(m) = &core.metrics {
                    m.record_shed_overloaded();
                }
                Err(e)
            }
        }
    }

    /// The scoped healthy fast path: one scoped thread per disk, shared
    /// pruning bound, exact per-query trace — the paper's Var. 3 search.
    /// The threads race on the shared bound, so the page trace can vary
    /// from run to run; the answer cannot. A panicking per-disk search
    /// fails the query with [`EngineError::Internal`], as a panicking
    /// step of the state machine does.
    fn knn_healthy(&self, query: &Point, k: usize) -> TracedAnswer {
        let start = Instant::now();
        let shared = SharedBound::new();
        // One scoped thread per disk; each returns its local candidates
        // and locally-counted work so the trace is exact per query. Every
        // handle is joined, so a panicked thread never re-panics the scope.
        let joined: Vec<_> = std::thread::scope(|s| {
            let shared = &shared;
            let handles: Vec<_> = self
                .core
                .trees
                .iter()
                .map(|tree| {
                    s.spawn(move || {
                        tree.read()
                            .knn_traced(query, k, KnnAlgorithm::Rkv, Some(shared))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let wall = start.elapsed();
        let locals = joined
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|payload| {
                let cause = panic_message(payload.as_ref());
                EngineError::Internal(format!("per-disk search panicked: {cause}"))
            })?;
        let merged = merge_candidates(locals.iter().map(|(c, _)| c.as_slice()), k);
        let stats: Vec<_> = locals.iter().map(|(_, s)| *s).collect();
        let trace = QueryTrace::from_stats(&stats, wall, self.core.array.model());
        Ok((merged, trace))
    }
}

impl EngineShared {
    /// The query's delta snapshot, taken under the delta lock — its
    /// linearization point. `None` (the common read-only / empty-delta
    /// case) keeps the query path allocation- and merge-free.
    fn overlay_for(&self, query: &Point, k: usize) -> Option<QueryOverlay> {
        if self.ingest.is_none() || k == 0 {
            return None;
        }
        self.delta.lock().overlay(query, k)
    }

    /// Launches (or coalesces into) a background shadow rebuild. A burst
    /// of triggering writes starts one rebuild: the `rebuild_running`
    /// flag stays up until the thread finishes, and the maintenance lock
    /// serializes it against explicit `reorganize()` calls.
    fn spawn_rebuild(self: &Arc<Self>) {
        if self
            .rebuild_running
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let shared = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("parsim-rebuild".into())
            .spawn(move || {
                // A failed background rebuild (e.g. every point removed)
                // leaves the delta intact and is already recorded in the
                // rebuild-failure counter; there is no caller to surface
                // the error to.
                let _ = EngineShared::rebuild(&shared);
                shared.rebuild_running.store(false, Ordering::Release);
            })
            .expect("spawn rebuild thread");
        let prev = self.rebuild_handle.lock().replace(handle);
        if let Some(prev) = prev {
            let _ = prev.join();
        }
    }

    /// The shadow rebuild: bulk-loads a complete replacement
    /// `EngineInner` from `index ∪ delta` off to the side — queries
    /// and writes keep running the whole time — then swaps it in
    /// atomically and replays the writes that arrived during the build
    /// into the fresh delta buffer. Dropping the old inner drains its
    /// worker pool (the PR-4 in-flight counter), so in-flight queries
    /// finish against the state they started on.
    ///
    /// The metrics registry is *carried over*, not reset: cumulative
    /// totals span the swap.
    fn rebuild(shared: &EngineShared) -> Result<(), EngineError> {
        let _guard = shared.maintenance.lock();
        let (old_core, declusterer, replica_router, page_cache, execution, explicit) = {
            let inner = shared.inner.read();
            (
                Arc::clone(&inner.core),
                Arc::clone(&inner.declusterer),
                inner.replica_router.clone(),
                inner.page_cache_capacity,
                inner.execution,
                inner.explicit_declusterer,
            )
        };
        // The LSH config is part of the recipe: the rebuilt tier re-fits
        // the same seeded family on the then-current data.
        let lsh_config = old_core.lsh.as_ref().map(|l| l.config());
        let config = old_core.config;
        let admission = old_core.admission;
        let disks = old_core.array.len();

        // Snapshot the delta and open the journal capture: from here on
        // every write keeps applying to the buffer *and* is recorded for
        // post-swap replay.
        let (live, tombstones) = shared.delta.lock().begin_rebuild();

        // The rebuild input: every non-tombstoned main-index point plus
        // the buffered live points, in item order (so a rebuild of the
        // same logical set is bit-identical to a fresh bulk load).
        let mut items: Vec<(Point, u64)> = Vec::new();
        for tree in &old_core.trees {
            let tree = tree.read();
            for node in tree.iter_nodes() {
                if let parsim_index::node::Node::Leaf { entries, .. } = node {
                    for (row, item) in entries.iter() {
                        if !tombstones.contains(&item) {
                            items.push((Point::from_vec(row.to_vec()), item));
                        }
                    }
                }
            }
        }
        items.extend(live);
        items.sort_by_key(|&(_, item)| item);
        let total_points = items.len();
        // The ids going into the new index, sorted (items is) — consulted
        // by the journal replay below to drop tombstones for ids the
        // rebuild already purged.
        let new_ids: Vec<u64> = items.iter().map(|&(_, item)| item).collect();

        let replicated = replica_router.is_some();
        // The build runs user code (an explicit declusterer's `assign`):
        // a panic there is one more failed build, never a wedged capture.
        let built = panic::catch_unwind(AssertUnwindSafe(
            move || -> Result<EngineInner, EngineError> {
                if items.is_empty() {
                    return Err(EngineError::EmptyDataSet);
                }
                let (declusterer, replica_router) = if explicit {
                    (declusterer, replica_router)
                } else {
                    let points = items.iter().map(|(p, _)| p);
                    resolve_default_decluster(&config, disks, replicated, points)?
                };
                EngineInner::build(
                    items,
                    declusterer,
                    replica_router,
                    config,
                    page_cache,
                    execution,
                    shared.metrics.clone(),
                    admission,
                    lsh_config,
                    explicit,
                )
            },
        ))
        .unwrap_or_else(|payload| {
            let cause = panic_message(payload.as_ref());
            Err(EngineError::Internal(format!("rebuild panicked: {cause}")))
        });
        let new_inner = match built {
            Ok(inner) => inner,
            Err(e) => {
                // Abort: close the capture window (the buffer tracked
                // everything normally, so no recovery is needed) and
                // leave the old state serving.
                shared.delta.lock().end_rebuild();
                if let Some(m) = &shared.metrics {
                    m.record_rebuild_failed();
                }
                return Err(e);
            }
        };

        // The atomic swap. Holding the inner write lock excludes new
        // query submissions for the duration of the pointer swap and the
        // journal replay only; in-flight pooled queries are untouched —
        // their workers hold their own Arc to the old core. The replay
        // runs no user code, so it cannot fail half-way.
        let old = {
            let mut inner = shared.inner.write();
            let old = std::mem::replace(&mut *inner, new_inner);
            let mut delta = shared.delta.lock();
            let tail = delta.end_rebuild();
            *delta = DeltaState::new();
            for op in tail {
                match op {
                    DeltaOp::Insert(point, item) => delta.apply_insert(point, item),
                    DeltaOp::Remove(item) => {
                        // A journaled remove may target an id the rebuild
                        // already purged (tombstoned before the build
                        // began, re-removed during it). Replaying it would
                        // lay a tombstone that masks nothing and
                        // undercount `len()` until the next rebuild —
                        // replay only when the id still exists, in the
                        // new index or as a just-replayed buffered insert.
                        if delta.contains_live(item) || new_ids.binary_search(&item).is_ok() {
                            delta.apply_remove(item);
                        }
                    }
                }
            }
            if let Some(m) = &shared.metrics {
                m.record_rebuild(total_points as u64, delta.live_len(), delta.tombstone_len());
            }
            old
        };
        // Dropping the old inner outside every lock: its pool drain
        // (joining worker threads mid-query) must not block writers.
        drop(old);
        Ok(())
    }
}

impl ParallelKnnEngine {
    /// Starts building an engine for `dim`-dimensional data with the
    /// paper's default configuration. See [`EngineBuilder`].
    pub fn builder(dim: usize) -> EngineBuilder {
        EngineBuilder::new(dim)
    }

    /// The workhorse constructor behind [`EngineBuilder::build`]: sets up
    /// the shared write-path state and bulk-loads the first
    /// `EngineInner`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_internal(
        items: Vec<(Point, u64)>,
        declusterer: Arc<dyn Declusterer>,
        replica_router: Option<Arc<dyn ReplicaRouting>>,
        config: EngineConfig,
        page_cache: Option<usize>,
        execution: ExecutionMode,
        metrics: bool,
        admission: Option<AdmissionConfig>,
        ingest: Option<IngestConfig>,
        lsh: Option<LshConfig>,
        explicit_declusterer: bool,
    ) -> Result<Self, EngineError> {
        let disks = declusterer.disks();
        let metrics = metrics.then(|| Arc::new(EngineMetrics::new(disks, DEFAULT_CACHE_SHARDS)));
        let next_seq = items.iter().map(|&(_, id)| id + 1).max().unwrap_or(0);
        let inner = EngineInner::build(
            items,
            declusterer,
            replica_router,
            config,
            page_cache,
            execution,
            metrics.clone(),
            admission,
            lsh,
            explicit_declusterer,
        )?;
        Ok(ParallelKnnEngine {
            shared: Arc::new(EngineShared {
                inner: RwLock::new(inner),
                dim: config.dim,
                ingest,
                delta: Mutex::new(DeltaState::new()),
                next_seq: AtomicU64::new(next_seq),
                maintenance: Mutex::new(()),
                rebuild_running: AtomicBool::new(false),
                rebuild_handle: Mutex::new(None),
                metrics,
            }),
        })
    }

    /// The per-disk page caches (empty for an uncached engine), as of
    /// the current engine state — a reorganize swap installs fresh ones.
    pub fn caches(&self) -> Vec<Arc<CachingSink>> {
        self.shared.inner.read().caches.clone()
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.shared.inner.read().core.config
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.shared.inner.read().core.array.len()
    }

    /// How this engine executes queries (set at build time).
    pub fn execution(&self) -> ExecutionMode {
        self.shared.inner.read().execution
    }

    /// The declusterer in use. After a reorganize of a default-built
    /// engine this is the freshly re-derived declustering.
    pub fn declusterer(&self) -> Arc<dyn Declusterer> {
        Arc::clone(&self.shared.inner.read().declusterer)
    }

    /// The fault injector of the underlying disk array: mark disks
    /// failed, slow, or flaky here and the engine's degraded execution
    /// takes over. The handle pins the current engine state; a
    /// [`ParallelKnnEngine::reorganize`] swap starts a fresh, healthy
    /// array — re-take the handle to inject into the rebuilt state.
    pub fn faults(&self) -> FaultsHandle {
        FaultsHandle(Arc::clone(&self.shared.inner.read().core))
    }

    /// The serve-layer admission policy, or `None` when the engine runs
    /// without backpressure, deadlines, or coalescing (the default).
    pub fn admission(&self) -> Option<AdmissionConfig> {
        self.shared.inner.read().core.admission
    }

    /// The engine-wide metrics registry, or `None` unless the engine was
    /// built with [`EngineBuilder::metrics`]`(true)`. The registry lives
    /// above the swappable engine state: cumulative totals survive
    /// [`ParallelKnnEngine::reorganize`]. Snapshot through
    /// [`EngineMetrics::snapshot`]; export with
    /// [`parsim_obs::prometheus_text`] / [`parsim_obs::to_json`].
    pub fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.shared.metrics.as_ref()
    }

    /// The write-path configuration, or `None` for a read-only engine.
    pub fn ingest_config(&self) -> Option<IngestConfig> {
        self.shared.ingest
    }

    /// The approximate tier's build-time configuration, or `None` when
    /// the engine was built without [`EngineBuilder::approx`]. Survives
    /// [`ParallelKnnEngine::reorganize`]: the rebuilt tier re-fits the
    /// same seeded family.
    pub fn lsh_config(&self) -> Option<LshConfig> {
        self.shared
            .inner
            .read()
            .core
            .lsh
            .as_ref()
            .map(|l| l.config())
    }

    /// A deterministic byte serialization of the LSH tier's bucket layout
    /// (disks in order, buckets in `(table, signature)` order, rows as
    /// item ids), or `None` without an LSH tier. Two engines built from
    /// the same items and config — including across a
    /// [`ParallelKnnEngine::reorganize`] of an unchanged engine — are
    /// byte-identical here; the seeded-determinism regression test pins
    /// exactly that.
    pub fn lsh_layout_bytes(&self) -> Option<Vec<u8>> {
        self.shared
            .inner
            .read()
            .core
            .lsh
            .as_ref()
            .map(|l| l.layout_bytes())
    }

    /// True if the engine keeps replica copies of every bucket.
    pub fn has_replicas(&self) -> bool {
        self.shared.inner.read().replica_router.is_some()
    }

    /// The disks hosting replica copies of `disk`'s buckets (empty for an
    /// un-replicated engine or a disk with no data).
    pub fn replica_disks_of(&self, disk: usize) -> Vec<usize> {
        self.shared
            .inner
            .read()
            .core
            .mirrors
            .get(disk)
            .map(|m| m.read().keys().copied().collect())
            .unwrap_or_default()
    }

    /// Total number of logically present points: main-index primaries
    /// plus buffered inserts, minus tombstones. Exact at every instant:
    /// the rebuild's journal replay drops removes whose id the rebuild
    /// already purged, so every tombstone masks a present point.
    pub fn len(&self) -> usize {
        let inner = self.shared.inner.read();
        let main: usize = inner.core.trees.iter().map(|t| t.read().len()).sum();
        let delta = self.shared.delta.lock();
        (main + delta.live_len()).saturating_sub(delta.tombstone_len())
    }

    /// True if no points are logically present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buffered writes (live points + tombstones) waiting for
    /// the next reorganize. Always 0 for a read-only engine.
    pub fn delta_size(&self) -> usize {
        self.shared.delta.lock().size()
    }

    /// Per-disk point counts — the load-balance view (main-index
    /// primaries only; buffered inserts are not yet placed).
    pub fn load_distribution(&self) -> Vec<usize> {
        self.shared
            .inner
            .read()
            .core
            .trees
            .iter()
            .map(|t| t.read().len())
            .collect()
    }

    /// Inserts a point through the streaming-ingest write path (the
    /// system "is completely dynamical", Section 4.3): the point lands
    /// in the delta buffer, becomes visible to every subsequent query
    /// immediately, and is bulk-loaded into the main index by the next
    /// [`ParallelKnnEngine::reorganize`]. Safe while queries are in
    /// flight on any thread.
    ///
    /// # Errors
    ///
    /// [`EngineError::ReadOnly`] when the engine was built without
    /// [`EngineBuilder::ingest`]; [`EngineError::DeltaFull`] when the
    /// buffer is at capacity (typed write backpressure — retry after a
    /// flush/reorganize); [`EngineError::DimensionMismatch`] for a point
    /// of the wrong dimension. A write that brings the delta to
    /// [`IngestConfig::rebuild_threshold`] starts a background rebuild;
    /// its outcome never reaches the writer.
    pub fn insert(&self, point: Point) -> Result<u64, EngineError> {
        let Some(cfg) = self.shared.ingest else {
            return Err(EngineError::ReadOnly);
        };
        if point.dim() != self.shared.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.shared.dim,
                got: point.dim(),
            });
        }
        let (item, due) = {
            let mut delta = self.shared.delta.lock();
            if delta.size() >= cfg.delta_capacity {
                if let Some(m) = &self.shared.metrics {
                    m.record_ingest_rejected();
                }
                return Err(EngineError::DeltaFull {
                    capacity: cfg.delta_capacity,
                });
            }
            let item = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
            delta.apply_insert(point, item);
            if let Some(m) = &self.shared.metrics {
                m.record_ingest_insert(delta.live_len(), delta.tombstone_len());
            }
            (item, cfg.rebuild_due(&delta))
        };
        if due {
            self.shared.spawn_rebuild();
        }
        Ok(item)
    }

    /// Removes a point by the item id [`ParallelKnnEngine::insert`] (or
    /// bulk-load order) gave it: a buffered insert is dropped on the
    /// spot, a main-index point is masked by a tombstone until the next
    /// reorganize purges it. Idempotent; visible to every subsequent
    /// query immediately.
    ///
    /// # Errors
    ///
    /// [`EngineError::ReadOnly`] without an ingest config;
    /// [`EngineError::DeltaFull`] when the removal would need a new
    /// tombstone and the buffer is at capacity;
    /// [`EngineError::Internal`] for an id that was never allocated.
    /// Triggers background rebuilds as `insert` does.
    pub fn remove(&self, item: u64) -> Result<(), EngineError> {
        let Some(cfg) = self.shared.ingest else {
            return Err(EngineError::ReadOnly);
        };
        if item >= self.shared.next_seq.load(Ordering::Relaxed) {
            return Err(EngineError::Internal(format!(
                "item {item} was never allocated"
            )));
        }
        let due = {
            let mut delta = self.shared.delta.lock();
            if !delta.contains_live(item) && delta.size() >= cfg.delta_capacity {
                if let Some(m) = &self.shared.metrics {
                    m.record_ingest_rejected();
                }
                return Err(EngineError::DeltaFull {
                    capacity: cfg.delta_capacity,
                });
            }
            delta.apply_remove(item);
            if let Some(m) = &self.shared.metrics {
                m.record_ingest_remove(delta.live_len(), delta.tombstone_len());
            }
            cfg.rebuild_due(&delta)
        };
        if due {
            self.shared.spawn_rebuild();
        }
        Ok(())
    }

    /// Drains the delta buffer into the main index now (a synchronous
    /// [`ParallelKnnEngine::reorganize`]); a no-op when the buffer is
    /// empty or the engine is read-only.
    pub fn flush(&self) -> Result<(), EngineError> {
        if self.shared.ingest.is_none() || self.shared.delta.lock().is_empty() {
            return Ok(());
        }
        self.reorganize()
    }

    /// Reorganizes the engine **in place** for the current data: bulk-
    /// loads a complete replacement state from `index ∪ delta` (for a
    /// default-built engine the declustering is re-derived — median
    /// splits from the current points — exactly as a fresh build would),
    /// then swaps it in atomically. Queries and writes keep running
    /// throughout the build; writes that land mid-build are journaled
    /// and replayed into the fresh delta buffer at swap time, so nothing
    /// is lost or duplicated. Disk count, replication, page-cache setup,
    /// execution mode, and admission policy are preserved; the rebuilt
    /// state starts with a fresh, healthy disk array (injected faults do
    /// not carry over) and rebuilt caches. The metrics registry (when
    /// enabled) is **carried over** — cumulative totals span the swap.
    ///
    /// This is the paper's reorganization step for data whose
    /// distribution drifted after many insertions, made non-stop-the-
    /// world. Concurrent calls serialize; a failed rebuild (e.g. every
    /// point removed, or a panicking explicit declusterer, reported as
    /// [`EngineError::Internal`]) leaves the engine serving its old state
    /// with the delta intact.
    pub fn reorganize(&self) -> Result<(), EngineError> {
        EngineShared::rebuild(&self.shared)
    }

    /// Answers one k-NN query under `opts` — the single entry point
    /// behind every legacy `knn*` method. Equivalent to
    /// [`ParallelKnnEngine::submit`] followed by [`PendingQuery::wait`].
    ///
    /// When no faults are armed and no timeout budget applies, this is
    /// the paper's parallel search; otherwise the engine runs **degraded
    /// execution**: failed disks are skipped, flaky reads are retried per
    /// [`RetryPolicy`], disks over the timeout budget are abandoned, and
    /// every lost disk's buckets are served from their replicas — the
    /// merged answer is bit-identical to the healthy one as long as a
    /// healthy replica exists for every lost bucket
    /// ([`EngineError::BucketUnavailable`] otherwise).
    ///
    /// On an ingesting engine the answer is always exact over
    /// `index ∪ delta`, linearized at submission.
    pub fn query(&self, query: &Point, opts: &QueryOptions) -> Result<QueryResult, EngineError> {
        self.submit(query, opts)?.wait()
    }

    /// Enqueues one k-NN query and returns a handle to wait on.
    ///
    /// Every query is one task of the engine's query state machine: it
    /// travels disk to disk along its MINDIST itinerary (the paper's RKV
    /// search), or over its LSH probe plan (approximate mode), or through
    /// the degraded steps when faults are armed or a timeout budget
    /// applies.
    ///
    /// In [`ExecutionMode::Pooled`] the task is handed to the per-disk
    /// worker pool and this call returns immediately. Submitting many
    /// queries before waiting pipelines them across the disks — while one
    /// query searches disk 3, the next searches disk 1 — with no
    /// per-batch barrier and no thread spawned.
    ///
    /// In [`ExecutionMode::Scoped`] the query is answered before this
    /// call returns and the handle is already complete: a healthy exact
    /// query runs the per-disk fan-out (one scoped thread per disk under
    /// a shared bound); every other query runs its task inline on the
    /// calling thread.
    ///
    /// **Determinism.** A task's answer *and* trace (`per_disk_pages`,
    /// `dist_evals`, pruning and LSH counters, the degraded record) are
    /// the same whichever driver runs it, so scoped and pooled batches
    /// agree exactly; exact ones also equal the reference forest search.
    /// The one exception is the scoped single healthy exact query: its
    /// per-disk threads race on the shared bound, so its answer is exact
    /// but its page trace can vary. Cache-hit counters are
    /// execution-order dependent in all modes.
    pub fn submit(&self, query: &Point, opts: &QueryOptions) -> Result<PendingQuery, EngineError> {
        let inner = self.shared.inner.read();
        if query.dim() != inner.core.config.dim {
            return Err(EngineError::DimensionMismatch {
                expected: inner.core.config.dim,
                got: query.dim(),
            });
        }
        let overlay = self.shared.overlay_for(query, opts.k);
        inner.submit_with_wave(query, opts, None, overlay, true)
    }

    /// Submits a group of queries as one **coalescing wave**: with
    /// [`AdmissionConfig::coalescing`] on, the wave's queries share
    /// physical page reads — the first to touch a page charges the disk,
    /// the rest ride that read ([`QueryTrace::per_disk_coalesced`]).
    /// Answers and logical traces are bit-identical to submitting the
    /// queries individually.
    ///
    /// The outer `Err` is a whole-batch input error (dimension mismatch);
    /// the inner per-query results surface admission rejections — an
    /// [`EngineError::Overloaded`] query was never admitted, the rest of
    /// the wave still runs. Waiting on a handle can further return
    /// [`EngineError::DeadlineExceeded`] for queries shed mid-pipeline.
    ///
    /// On a scoped (non-pooled) engine this degrades to per-query
    /// submission: there are no waves to share reads within.
    pub fn submit_wave(
        &self,
        queries: &[Point],
        opts: &QueryOptions,
    ) -> Result<Vec<Result<PendingQuery, EngineError>>, EngineError> {
        let inner = self.shared.inner.read();
        for q in queries {
            if q.dim() != inner.core.config.dim {
                return Err(EngineError::DimensionMismatch {
                    expected: inner.core.config.dim,
                    got: q.dim(),
                });
            }
        }
        let wave = inner.pool.as_ref().map(|p| p.next_wave());
        Ok(queries
            .iter()
            .map(|q| {
                let overlay = self.shared.overlay_for(q, opts.k);
                inner.submit_with_wave(q, opts, wave, overlay, true)
            })
            .collect())
    }

    /// [`ParallelKnnEngine::submit_wave`] followed by a wait on every
    /// admitted handle: one result per query, in query order.
    pub fn query_wave(
        &self,
        queries: &[Point],
        opts: &QueryOptions,
    ) -> Result<Vec<Result<QueryResult, EngineError>>, EngineError> {
        let pending = self.submit_wave(queries, opts)?;
        Ok(pending
            .into_iter()
            .map(|p| p.and_then(PendingQuery::wait))
            .collect())
    }

    /// Answers a batch of queries. In [`ExecutionMode::Pooled`] every
    /// query is enqueued up front and the batch **pipelines** across the
    /// disks — query `i+1` searches disk 0 while query `i` searches disk
    /// 1 — with no per-batch barrier ([`QueryOptions::workers`] is
    /// ignored; concurrency comes from the per-disk workers).
    ///
    /// In [`ExecutionMode::Scoped`] the batch runs on a bounded scoped
    /// worker pool ([`QueryOptions::workers`], defaulting to the host's
    /// available parallelism) in the paper's **inter-query** parallel
    /// mode: each worker claims the next unanswered query and runs its
    /// task inline.
    ///
    /// Results are in query order, each with its own exact [`QueryTrace`]
    /// when tracing is on; both modes run the same tasks, so answers and
    /// traces agree (see [`ParallelKnnEngine::submit`]). With faults
    /// armed or a timeout budget set, both modes run the same degraded
    /// execution as [`ParallelKnnEngine::query`].
    pub fn query_batch(
        &self,
        queries: &[Point],
        opts: &QueryOptions,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let inner = self.shared.inner.read();
        for q in queries {
            if q.dim() != inner.core.config.dim {
                return Err(EngineError::DimensionMismatch {
                    expected: inner.core.config.dim,
                    got: q.dim(),
                });
            }
        }
        // Each query gets a private wave (batches don't coalesce — use
        // `query_wave` for read-sharing).
        let submit = |q: &Point| {
            let overlay = self.shared.overlay_for(q, opts.k);
            inner.submit_with_wave(q, opts, None, overlay, false)
        };
        if inner.pool.is_some() {
            // The first admission rejection aborts the batch;
            // already-submitted queries drain normally with their answers
            // discarded.
            let pending: Vec<PendingQuery> =
                queries.iter().map(submit).collect::<Result<_, _>>()?;
            drop(inner);
            return pending.into_iter().map(PendingQuery::wait).collect();
        }
        let workers = opts
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, queries.len().max(1));
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<Result<QueryResult, EngineError>>> =
            (0..queries.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= queries.len() {
                                return out;
                            }
                            out.push((i, submit(&queries[i]).and_then(PendingQuery::wait)));
                        }
                    })
                })
                .collect();
            for h in handles {
                for (i, result) in h.join().expect("batch worker does not panic") {
                    results[i] = Some(result);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every query index was claimed by a worker"))
            .collect()
    }

    /// Runs a k-NN query against the declustered data and returns the `k`
    /// nearest neighbors plus the per-disk page cost of the query.
    /// Shorthand for [`ParallelKnnEngine::query`] without a trace.
    pub fn knn(&self, query: &Point, k: usize) -> Result<(Vec<Neighbor>, QueryCost), EngineError> {
        let result = self.query(query, &QueryOptions::new(k))?;
        Ok((result.neighbors, result.cost))
    }

    /// A handle on the simulated disk array (for experiment accounting).
    /// Pins the current engine state; see [`ArrayHandle`].
    pub fn array(&self) -> ArrayHandle {
        ArrayHandle(Arc::clone(&self.shared.inner.read().core))
    }

    /// Runs `f` over every per-disk primary tree, in disk order, under
    /// that tree's read lock (the trees are shared with the worker pool,
    /// so a borrowed slice can no longer be handed out). Buffered
    /// (delta) points are not in any tree yet.
    pub fn for_each_tree(&self, mut f: impl FnMut(&SpatialTree)) {
        let inner = self.shared.inner.read();
        for tree in &inner.core.trees {
            f(&tree.read());
        }
    }
}

impl Drop for ParallelKnnEngine {
    /// Joins any background rebuild before the shared state goes away;
    /// dropping the inner afterwards drains the worker pool.
    fn drop(&mut self) {
        let handle = self.shared.rebuild_handle.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// Simulates the error stream of `pages` reads against a flaky disk:
/// every erroring read is retried up to the policy's limit, each retry
/// charging its backoff plus one page's service time. Returns the retry
/// count, the extra modeled time, and whether every page eventually read
/// cleanly (`false` means the disk is abandoned as down).
fn simulate_flaky_reads(
    faults: &FaultInjector,
    disk: usize,
    pages: u64,
    retry: &RetryPolicy,
    model: &DiskModel,
) -> (u64, Duration, bool) {
    let per_page = model.service_time(1);
    let mut retries = 0u64;
    let mut extra = Duration::ZERO;
    for _ in 0..pages {
        if !faults.draw_read_error(disk) {
            continue;
        }
        let mut recovered = false;
        for attempt in 0..retry.max_retries {
            retries += 1;
            extra += retry.backoff_before(attempt) + per_page;
            if !faults.draw_read_error(disk) {
                recovered = true;
                break;
            }
        }
        if !recovered {
            return (retries, extra, false);
        }
    }
    (retries, extra, true)
}

/// Merges per-disk candidate lists into the global top `k` (ties broken by
/// item id, matching [`parsim_index::knn::brute_force_knn`]).
pub(crate) fn merge_candidates<'a>(
    locals: impl Iterator<Item = &'a [Neighbor]>,
    k: usize,
) -> Vec<Neighbor> {
    let mut merged: Vec<Neighbor> = locals.flatten().cloned().collect();
    merged.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.item.cmp(&b.item)));
    merged.truncate(k);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_index::knn::brute_force_knn;

    fn engine(disks: usize, n: usize, dim: usize) -> (ParallelKnnEngine, Vec<Point>) {
        let pts = UniformGenerator::new(dim).generate(n, 7);
        let e = ParallelKnnEngine::builder(dim)
            .disks(disks)
            .build(&pts)
            .unwrap();
        (e, pts)
    }

    #[test]
    fn parallel_knn_is_exact() {
        let (e, pts) = engine(8, 3000, 8);
        let data: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        for q in UniformGenerator::new(8).generate(10, 100) {
            let (got, cost) = e.knn(&q, 10).unwrap();
            let want = brute_force_knn(&data, &q, 10);
            assert_eq!(got.len(), 10);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.dist - w.dist).abs() < 1e-12);
            }
            assert!(cost.total_reads > 0);
            assert_eq!(cost.per_disk_reads.len(), 8);
        }
    }

    #[test]
    fn pooled_knn_matches_scoped() {
        let pts = UniformGenerator::new(8).generate(2500, 7);
        let scoped = ParallelKnnEngine::builder(8).disks(8).build(&pts).unwrap();
        let pooled = ParallelKnnEngine::builder(8)
            .disks(8)
            .execution(ExecutionMode::Pooled)
            .build(&pts)
            .unwrap();
        assert_eq!(pooled.execution(), ExecutionMode::Pooled);
        for q in UniformGenerator::new(8).generate(8, 101) {
            let (a, _) = scoped.knn(&q, 10).unwrap();
            let (b, _) = pooled.knn(&q, 10).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn load_is_roughly_balanced_on_uniform_data() {
        let (e, _) = engine(8, 8000, 8);
        let loads = e.load_distribution();
        assert_eq!(loads.iter().sum::<usize>(), 8000);
        let max = *loads.iter().max().unwrap() as f64;
        let avg = 8000.0 / 8.0;
        assert!(max / avg < 1.7, "loads: {loads:?}");
    }

    #[test]
    fn writes_require_an_ingest_config() {
        let (e, pts) = engine(4, 200, 5);
        assert!(matches!(
            e.insert(pts[0].clone()),
            Err(EngineError::ReadOnly)
        ));
        assert!(matches!(e.remove(0), Err(EngineError::ReadOnly)));
        assert_eq!(e.delta_size(), 0);
    }

    #[test]
    fn dynamic_insert_and_remove_through_the_delta() {
        let pts = UniformGenerator::new(5).generate(500, 7);
        let e = ParallelKnnEngine::builder(5)
            .disks(4)
            .ingest(IngestConfig::new(1000))
            .build(&pts)
            .unwrap();
        let extra = UniformGenerator::new(5).generate(100, 42);
        let mut ids = Vec::new();
        for p in &extra {
            ids.push(e.insert(p.clone()).unwrap());
        }
        assert_eq!(e.len(), 600);
        assert_eq!(e.delta_size(), 100);
        // Buffered points answer queries immediately and exactly.
        let (res, _) = e.knn(&extra[3], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
        assert_eq!(res[0].item, ids[3]);
        for id in &ids {
            e.remove(*id).unwrap();
        }
        assert_eq!(e.len(), 500);
        assert_eq!(e.delta_size(), 0);
        // Removing a main-index point masks it from answers.
        e.remove(0).unwrap();
        assert_eq!(e.len(), 499);
        let (res, _) = e.knn(&pts[0], 1).unwrap();
        assert!(res[0].item != 0);
        // Original points still answer queries.
        let (res, _) = e.knn(&pts[1], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn a_full_delta_sheds_writes_with_typed_backpressure() {
        let pts = UniformGenerator::new(3).generate(50, 3);
        let e = ParallelKnnEngine::builder(3)
            .disks(2)
            .ingest(IngestConfig::new(2))
            .build(&pts)
            .unwrap();
        let extra = UniformGenerator::new(3).generate(3, 9);
        e.insert(extra[0].clone()).unwrap();
        e.insert(extra[1].clone()).unwrap();
        assert!(matches!(
            e.insert(extra[2].clone()),
            Err(EngineError::DeltaFull { capacity: 2 })
        ));
        // Removing a *buffered* point frees a slot without a tombstone...
        e.remove(51).unwrap();
        // ...so the next insert is admitted again.
        e.insert(extra[2].clone()).unwrap();
        // A flush drains everything into the main index.
        e.flush().unwrap();
        assert_eq!(e.delta_size(), 0);
        assert_eq!(e.len(), 52);
        let (res, _) = e.knn(&extra[2], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            ParallelKnnEngine::builder(4).disks(4).build(&[]),
            Err(EngineError::EmptyDataSet)
        ));
        let (e, _) = engine(4, 100, 5);
        let wrong = Point::new(vec![0.5; 3]).unwrap();
        assert!(matches!(
            e.knn(&wrong, 1),
            Err(EngineError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn parallel_cost_beats_sequential_cost() {
        let (e, _) = engine(8, 5000, 10);
        let queries = UniformGenerator::new(10).generate(20, 11);
        let mut par = 0u64;
        let mut tot = 0u64;
        for q in &queries {
            let (_, cost) = e.knn(q, 10).unwrap();
            par += cost.max_reads;
            tot += cost.total_reads;
        }
        // With 8 disks the busiest disk must read far less than everything.
        assert!(par * 2 < tot, "max {par} vs total {tot}");
    }

    #[test]
    fn reorganize_preserves_contents() {
        // The engine answers bit-identically to brute force before and
        // after a live reorganize that folds buffered inserts into a
        // freshly bulk-loaded interior.
        let pts = UniformGenerator::new(6).generate(800, 7);
        let extra = UniformGenerator::new(6).generate(40, 8);
        let queries = UniformGenerator::new(6).generate(4, 9);
        let e = ParallelKnnEngine::builder(6)
            .disks(4)
            .ingest(IngestConfig::new(64))
            .build(&pts)
            .unwrap();
        let mut data: Vec<(Point, u64)> = pts.iter().cloned().zip(0..).collect();
        for p in &extra {
            let item = e.insert(p.clone()).unwrap();
            data.push((p.clone(), item));
        }
        let before = e.len();
        let check = |e: &ParallelKnnEngine| {
            for q in &queries {
                let opts = QueryOptions::new(10).with_workers(1);
                let got = e
                    .query_batch(std::slice::from_ref(q), &opts)
                    .unwrap()
                    .pop()
                    .unwrap();
                let want = brute_force_knn(&data, q, 10);
                assert_eq!(got.neighbors.len(), want.len());
                for (g, w) in got.neighbors.iter().zip(&want) {
                    assert_eq!((g.item, g.dist.to_bits()), (w.item, w.dist.to_bits()));
                }
            }
        };
        check(&e);
        e.reorganize().unwrap();
        assert_eq!(e.delta_size(), 0);
        assert_eq!(e.len(), before);
        check(&e);
        let (res, _) = e.knn(&pts[5], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn reorganize_drains_the_delta_into_the_main_index() {
        let pts = UniformGenerator::new(4).generate(300, 5);
        let e = ParallelKnnEngine::builder(4)
            .disks(4)
            .ingest(IngestConfig::new(500))
            .build(&pts)
            .unwrap();
        let extra = UniformGenerator::new(4).generate(50, 21);
        for p in &extra {
            e.insert(p.clone()).unwrap();
        }
        e.remove(7).unwrap();
        assert_eq!(e.delta_size(), 51);
        e.reorganize().unwrap();
        assert_eq!(e.delta_size(), 0);
        assert_eq!(e.len(), 349);
        assert_eq!(e.load_distribution().iter().sum::<usize>(), 349);
        let (res, _) = e.knn(&extra[10], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
        let (res, _) = e.knn(&pts[7], 1).unwrap();
        assert!(res[0].item != 7);
    }

    #[test]
    fn reorganize_preserves_replication() {
        let pts = UniformGenerator::new(5).generate(600, 3);
        let e = ParallelKnnEngine::builder(5)
            .disks(8)
            .replicas(1)
            .build(&pts)
            .unwrap();
        assert!(e.has_replicas());
        e.reorganize().unwrap();
        assert!(e.has_replicas());
        assert_eq!(e.len(), 600);
        e.faults().fail(0);
        let (res, _) = e.knn(&pts[0], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn reorganize_preserves_execution_mode() {
        let pts = UniformGenerator::new(5).generate(400, 13);
        let e = ParallelKnnEngine::builder(5)
            .disks(4)
            .execution(ExecutionMode::Pooled)
            .build(&pts)
            .unwrap();
        e.reorganize().unwrap();
        assert_eq!(e.execution(), ExecutionMode::Pooled);
        let (res, _) = e.knn(&pts[3], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn removing_every_point_fails_the_rebuild_and_keeps_serving() {
        let pts = UniformGenerator::new(3).generate(20, 5);
        let e = ParallelKnnEngine::builder(3)
            .disks(2)
            .ingest(IngestConfig::new(64))
            .build(&pts)
            .unwrap();
        for id in 0..20 {
            e.remove(id).unwrap();
        }
        assert!(e.is_empty());
        assert!(matches!(e.reorganize(), Err(EngineError::EmptyDataSet)));
        // The delta survives the aborted rebuild; answers stay masked.
        assert_eq!(e.delta_size(), 20);
        let (res, _) = e.knn(&pts[0], 5).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn metrics_are_off_by_default_and_carry_over_reorganize() {
        let pts = UniformGenerator::new(4).generate(300, 9);
        let plain = ParallelKnnEngine::builder(4).disks(4).build(&pts).unwrap();
        assert!(plain.metrics().is_none());
        let metered = ParallelKnnEngine::builder(4)
            .disks(4)
            .metrics(true)
            .build(&pts)
            .unwrap();
        let q = Point::new(vec![0.4; 4]).unwrap();
        metered.knn(&q, 5).unwrap();
        let m = metered.metrics().expect("metrics were enabled");
        let s = m.snapshot();
        assert_eq!(s.counter_total("parsim_queries_started_total"), 1);
        assert_eq!(s.counter_total("parsim_queries_completed_total"), 1);
        assert!(s.counter_total("parsim_disk_pages_total") > 0);
        // Reorganize carries the registry over: cumulative totals span
        // the swap instead of resetting.
        metered.reorganize().unwrap();
        let s = metered.metrics().expect("still enabled").snapshot();
        assert_eq!(s.counter_total("parsim_queries_started_total"), 1);
        assert_eq!(s.counter_total("parsim_rebuilds_total"), 1);
        metered.knn(&q, 5).unwrap();
        let s = metered.metrics().expect("still enabled").snapshot();
        assert_eq!(s.counter_total("parsim_queries_started_total"), 2);
    }

    #[test]
    fn a_remove_replayed_across_the_swap_does_not_undercount_len() {
        // Regression: a remove journaled mid-rebuild for an id the rebuild
        // already purged used to replay as a tombstone over nothing,
        // undercounting len() by one until the next rebuild.
        let pts = UniformGenerator::new(3).generate(40, 5);
        let e = ParallelKnnEngine::builder(3)
            .disks(2)
            .ingest(IngestConfig::new(64))
            .build(&pts)
            .unwrap();
        e.remove(7).unwrap();
        assert_eq!(e.len(), 39);
        let shared = Arc::clone(&e.shared);
        // Pin the capture window open: the swap needs the inner write
        // lock, so holding a read guard parks the rebuild right before
        // its journal replay — however fast the build itself is.
        let pin = e.shared.inner.read();
        let rebuild = std::thread::spawn(move || EngineShared::rebuild(&shared).unwrap());
        // Wait for the capture window to open (the rebuild only needs
        // the delta lock to get there), then land the racing second
        // remove exactly as `remove(7)` would.
        loop {
            let mut delta = e.shared.delta.lock();
            if delta.capturing() {
                delta.apply_remove(7);
                break;
            }
            drop(delta);
            std::thread::yield_now();
        }
        drop(pin);
        rebuild.join().unwrap();
        // The replay must drop the stale remove: 39 points, no tombstone.
        assert_eq!(e.len(), 39);
        assert_eq!(e.delta_size(), 0);
        let (res, _) = e.knn(&pts[7], 1).unwrap();
        assert!(res[0].item != 7);
        // A remove racing the swap for an id the rebuild KEPT still lands.
        e.remove(8).unwrap();
        assert_eq!(e.len(), 38);
        e.reorganize().unwrap();
        assert_eq!(e.len(), 38);
    }

    /// A hand-built approx task for an engine built without the LSH tier:
    /// its first step, on disk 0, reaches the "Approx stage needs the LSH
    /// tier" expect and panics.
    fn panicking_task(inner: &EngineInner, query: &Point) -> (QueryTask, PendingQuery) {
        use crate::lsh::{DiskProbes, LshCounters};

        let completion = Arc::new(Completion::new());
        let pending = PendingQuery::new(
            Arc::clone(&completion),
            false,
            *inner.core.array.model(),
            None,
        );
        let n = inner.core.trees.len();
        inner.core.metrics.as_ref().unwrap().record_start();
        let task = QueryTask {
            query: query.clone(),
            k: 3,
            stats: vec![SearchStats::default(); n],
            start: Instant::now(),
            stage: Stage::Approx {
                plan: vec![DiskProbes {
                    disk: 0,
                    buckets: Vec::new(),
                }],
                pos: 0,
                candidates: vec![Vec::new(); n],
                counters: LshCounters::default(),
            },
            completion,
            wave: 0,
            deadline_micros: None,
            spent_micros: 0,
            seq: 0,
        };
        (task, pending)
    }

    #[test]
    fn wait_timeout_reports_readiness_without_taking_the_answer() {
        let pts = UniformGenerator::new(4).generate(400, 3);
        let e = ParallelKnnEngine::builder(4)
            .disks(4)
            .execution(ExecutionMode::Pooled)
            .build(&pts)
            .unwrap();
        // Pin every tree's write lock: the query parks on its first disk.
        // A modeled-time budget routes it through the degraded stage,
        // whose submission (unlike the RKV itinerary) reads no tree; the
        // budget is far above what the healthy search needs.
        let core = Arc::clone(&e.shared.inner.read().core);
        let pins: Vec<_> = core.trees.iter().map(|t| t.write()).collect();
        let opts = QueryOptions::new(5).with_timeout(Duration::from_secs(3600));
        let pending = e.submit(&pts[0], &opts).unwrap();
        let t0 = Instant::now();
        assert!(!pending.wait_timeout(Duration::from_millis(50)));
        assert!(t0.elapsed() >= Duration::from_millis(50));
        assert!(!pending.is_ready());
        drop(pins);
        assert!(pending.wait_timeout(Duration::from_secs(20)));
        assert!(pending.is_ready());
        let res = pending.wait().unwrap();
        assert_eq!(res.neighbors.len(), 5);
        assert_eq!(res.neighbors[0].item, 0);
    }

    #[test]
    fn a_panicking_pool_step_fails_the_query_and_the_engine_still_drops() {
        use std::sync::mpsc;

        let pts = UniformGenerator::new(4).generate(400, 3);
        let e = ParallelKnnEngine::builder(4)
            .disks(4)
            .execution(ExecutionMode::Pooled)
            .metrics(true)
            .build(&pts)
            .unwrap();
        // The task panics inside the disk-0 worker.
        let pending = {
            let inner = e.shared.inner.read();
            let pool = inner.pool.as_ref().expect("pooled engine has a pool");
            let (task, pending) = panicking_task(&inner, &pts[0]);
            pool.submit(task).unwrap();
            pending
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(pending.wait()).unwrap());
        let Ok(answer) = rx.recv_timeout(Duration::from_secs(20)) else {
            // Leak the engine: dropping it would wait forever on the
            // stuck query and hang the test instead of failing it.
            std::mem::forget(e);
            panic!("the caller of a panicked query must not hang");
        };
        match answer {
            Err(EngineError::Internal(msg)) => {
                assert!(msg.contains("Approx stage needs the LSH tier"), "{msg}")
            }
            other => panic!("expected EngineError::Internal, got {other:?}"),
        }
        // The worker survived: a healthy query on the same pool (first
        // stop wherever the itinerary says) still answers exactly.
        let (res, _) = e.knn(&pts[7], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
        let s = e.metrics().unwrap().snapshot();
        assert_eq!(s.counter_total("parsim_queries_failed_total"), 1);
        // Drain-then-stop shutdown completes: the in-flight count left
        // the panicked query behind.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(e);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(20))
            .expect("engine drop must not hang after a worker panic");
    }

    #[test]
    fn a_panicking_inline_step_fails_the_query_and_the_engine_keeps_serving() {
        // The inline driver shares the pool's panic containment: the same
        // hand-built task, run on the caller's thread, completes with a
        // typed error instead of unwinding into the caller.
        let pts = UniformGenerator::new(4).generate(400, 3);
        let e = ParallelKnnEngine::builder(4)
            .disks(4)
            .metrics(true)
            .build(&pts)
            .unwrap();
        let pending = {
            let inner = e.shared.inner.read();
            assert!(inner.pool.is_none(), "scoped engines have no pool");
            let (task, pending) = panicking_task(&inner, &pts[0]);
            run_inline(&inner.core, task);
            pending
        };
        assert!(pending.is_ready(), "the inline driver runs to completion");
        match pending.wait() {
            Err(EngineError::Internal(msg)) => {
                assert!(msg.contains("Approx stage needs the LSH tier"), "{msg}")
            }
            other => panic!("expected EngineError::Internal, got {other:?}"),
        }
        let (res, _) = e.knn(&pts[7], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
        let s = e.metrics().unwrap().snapshot();
        assert_eq!(s.counter_total("parsim_queries_failed_total"), 1);
    }

    /// Round-robin placement that, once armed, panics on every item id in
    /// `panics_on`.
    struct PanickyDeclusterer {
        disks: usize,
        panics_on: std::ops::Range<u64>,
        armed: Arc<AtomicBool>,
    }

    impl Declusterer for PanickyDeclusterer {
        fn name(&self) -> String {
            "panicky".into()
        }

        fn disks(&self) -> usize {
            self.disks
        }

        fn assign(&self, seq: u64, _p: &Point) -> usize {
            if self.panics_on.contains(&seq) && self.armed.load(Ordering::SeqCst) {
                panic!("declusterer armed to panic");
            }
            seq as usize % self.disks
        }
    }

    #[test]
    fn a_panicking_rebuild_fails_typed_and_ingest_keeps_rebuilding() {
        let pts = UniformGenerator::new(4).generate(200, 5);
        let armed = Arc::new(AtomicBool::new(false));
        // Armed on the bulk-loaded ids only: the rebuild's partition pass
        // panics.
        let e = ParallelKnnEngine::builder(4)
            .declusterer(Arc::new(PanickyDeclusterer {
                disks: 4,
                panics_on: 0..pts.len() as u64,
                armed: Arc::clone(&armed),
            }))
            .metrics(true)
            .ingest(IngestConfig::new(64).with_rebuild_threshold(10))
            .build(&pts)
            .unwrap();
        let extra = UniformGenerator::new(4).generate(11, 6);
        let mut data: Vec<(Point, u64)> = pts.iter().cloned().zip(0..).collect();
        let mut insert = |p: &Point| {
            let item = e.insert(p.clone()).unwrap();
            data.push((p.clone(), item));
        };
        armed.store(true, Ordering::SeqCst);
        for p in &extra[..9] {
            insert(p);
        }
        // An explicit reorganize reports the panic as a typed error and
        // closes the journal capture.
        assert!(matches!(e.reorganize(), Err(EngineError::Internal(_))));
        assert!(!e.shared.delta.lock().capturing());
        assert_eq!(e.delta_size(), 9);
        // The 10th write triggers a background rebuild, which panics too:
        // the capture closes and the trigger latch is released.
        insert(&extra[9]);
        let handle = e.shared.rebuild_handle.lock().take();
        handle
            .expect("the threshold started a rebuild")
            .join()
            .unwrap();
        assert!(!e.shared.rebuild_running.load(Ordering::SeqCst));
        assert!(!e.shared.delta.lock().capturing());
        assert_eq!(e.delta_size(), 10);
        let s = e.metrics().unwrap().snapshot();
        assert_eq!(s.counter_total("parsim_rebuilds_failed_total"), 2);
        // Disarmed, the next triggering write rebuilds in the background.
        armed.store(false, Ordering::SeqCst);
        insert(&extra[10]);
        let handle = e.shared.rebuild_handle.lock().take();
        handle
            .expect("the threshold started a rebuild")
            .join()
            .unwrap();
        assert_eq!(e.delta_size(), 0);
        assert_eq!(e.len(), data.len());
        for q in &UniformGenerator::new(4).generate(6, 8) {
            let got = e.query(q, &QueryOptions::new(10)).unwrap().neighbors;
            let want = brute_force_knn(&data, q, 10);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.dist.to_bits(), w.dist.to_bits());
                assert_eq!(g.item, w.item);
            }
        }
    }

    /// A visit sink that panics on every node it is asked to charge.
    struct PanickingSink;

    impl NodeSink for PanickingSink {
        fn visit(
            &self,
            _id: parsim_index::node::NodeId,
            _node: &parsim_index::node::Node,
        ) -> parsim_index::VisitOutcome {
            panic!("sink armed to panic");
        }
    }

    /// Asserts `e` answers `queries` bit-identically to brute force over
    /// `data`.
    fn assert_exact(e: &ParallelKnnEngine, data: &[(Point, u64)], queries: &[Point]) {
        for q in queries {
            let got = e.query(q, &QueryOptions::new(10)).unwrap().neighbors;
            let want = brute_force_knn(data, q, 10);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.dist.to_bits(), w.dist.to_bits());
                assert_eq!(g.item, w.item);
            }
        }
    }

    #[test]
    fn a_panicking_fan_out_search_fails_the_query_and_the_engine_keeps_serving() {
        // The scoped single healthy exact query fans out one thread per
        // disk; a panic on one of them completes the query with a typed
        // error instead of unwinding into the caller.
        let pts = UniformGenerator::new(4).generate(400, 3);
        let e = ParallelKnnEngine::builder(4)
            .disks(4)
            .metrics(true)
            .build(&pts)
            .unwrap();
        // Disk 0 now holds every point behind a panicking sink: its root
        // contains the query, so its search cannot be pruned away.
        let params = TreeParams::for_dim(4, e.config().variant).unwrap();
        let items: Vec<(Point, u64)> = pts.iter().cloned().zip(0..).collect();
        let panicking = SpatialTree::bulk_load(params, items.clone())
            .unwrap()
            .with_sink(Arc::new(PanickingSink));
        let original = {
            let inner = e.shared.inner.read();
            let mut tree = inner.core.trees[0].write();
            std::mem::replace(&mut *tree, panicking)
        };
        match e.query(&pts[7], &QueryOptions::new(5)) {
            Err(EngineError::Internal(msg)) => {
                assert!(msg.contains("sink armed to panic"), "{msg}")
            }
            other => panic!("expected EngineError::Internal, got {other:?}"),
        }
        let s = e.metrics().unwrap().snapshot();
        assert_eq!(s.counter_total("parsim_queries_started_total"), 1);
        assert_eq!(s.counter_total("parsim_queries_failed_total"), 1);
        *e.shared.inner.read().core.trees[0].write() = original;
        assert_exact(&e, &items, &UniformGenerator::new(4).generate(4, 8));
    }

    #[test]
    fn writes_and_the_swap_replay_never_call_the_declusterer() {
        // Writes that land while a triggered background rebuild is parked
        // before its swap run no user code and never wait for the swap,
        // and the swap's journal replay keeps every one of them.
        let pts = UniformGenerator::new(4).generate(200, 5);
        let extra = UniformGenerator::new(4).generate(8, 6);
        let threshold = 4;
        // Ids from `window` on are allocated inside the capture window.
        // The parked rebuild never partitions them, so arming on them
        // cannot fail its build.
        let window = (pts.len() + threshold) as u64;
        let armed = Arc::new(AtomicBool::new(false));
        let e = Arc::new(
            ParallelKnnEngine::builder(4)
                .declusterer(Arc::new(PanickyDeclusterer {
                    disks: 4,
                    panics_on: window..u64::MAX,
                    armed: Arc::clone(&armed),
                }))
                .ingest(IngestConfig::new(64).with_rebuild_threshold(threshold))
                .build(&pts)
                .unwrap(),
        );
        let mut data: Vec<(Point, u64)> = pts.iter().cloned().zip(0..).collect();
        // The swap needs the inner write lock, so a held read guard parks
        // the rebuild right after its build.
        let pin = e.shared.inner.read();
        for p in &extra[..threshold] {
            data.push((p.clone(), e.insert(p.clone()).unwrap()));
        }
        // The last insert reached the threshold and started the rebuild.
        while !e.shared.delta.lock().capturing() {
            std::thread::yield_now();
        }
        armed.store(true, Ordering::SeqCst);
        // The writes run on another thread: one that waited for the parked
        // swap would hang behind the pin instead of failing the test.
        let writes = extra[threshold..threshold + 2].to_vec();
        let writer = Arc::clone(&e);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = (|| {
                let dropped = writer.insert(writes[0].clone())?;
                let kept = writer.insert(writes[1].clone())?;
                writer.remove(dropped)?;
                writer.remove(3)?;
                Ok::<_, EngineError>(kept)
            })();
            let _ = tx.send(result);
        });
        let Ok(result) = rx.recv_timeout(Duration::from_secs(20)) else {
            drop(pin);
            panic!("writes inside the capture window must neither panic nor wait for the swap");
        };
        data.push((extra[threshold + 1].clone(), result.unwrap()));
        data.retain(|&(_, id)| id != 3);
        assert!(e.shared.delta.lock().capturing(), "the rebuild is parked");
        drop(pin);
        let handle = e.shared.rebuild_handle.lock().take();
        handle
            .expect("the threshold started a rebuild")
            .join()
            .unwrap();
        assert!(!e.shared.rebuild_running.load(Ordering::SeqCst));
        // The replay kept the window's net writes: one buffered insert
        // and one tombstone.
        assert_eq!(e.delta_size(), 2);
        assert_eq!(e.len(), data.len());
        let queries = UniformGenerator::new(4).generate(6, 8);
        assert_exact(&e, &data, &queries);
        // Disarmed, the next threshold crossing rebuilds in the background.
        armed.store(false, Ordering::SeqCst);
        for p in &extra[threshold + 2..threshold + 4] {
            data.push((p.clone(), e.insert(p.clone()).unwrap()));
        }
        let handle = e.shared.rebuild_handle.lock().take();
        handle
            .expect("the threshold started a rebuild")
            .join()
            .unwrap();
        assert_eq!(e.delta_size(), 0);
        assert_eq!(e.len(), data.len());
        assert_exact(&e, &data, &queries);
    }
}
