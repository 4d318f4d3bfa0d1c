//! The engine builder — the one front door for constructing a
//! [`ParallelKnnEngine`].
//!
//! ```
//! use parsim_parallel::ParallelKnnEngine;
//! use parsim_datagen::{DataGenerator, UniformGenerator};
//!
//! let points = UniformGenerator::new(8).generate(2000, 1);
//! let engine = ParallelKnnEngine::builder(8)
//!     .disks(16)
//!     .replicas(1)
//!     .page_cache(256)
//!     .build(&points)
//!     .unwrap();
//! assert_eq!(engine.disks(), 16);
//! assert!(engine.has_replicas());
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;

use parsim_decluster::near_optimal::colors_required;
use parsim_decluster::quantile::median_splits_of;
use parsim_decluster::replica::{ChainedReplica, ReplicaRouting};
use parsim_decluster::{Declusterer, RecursiveDeclusterer, ReplicaDeclusterer};
use parsim_geometry::{Point, QuadrantSplitter};
use parsim_index::{LshConfig, TreeParams};
use parsim_storage::DiskModel;

use crate::config::{EngineConfig, SplitStrategy};
use crate::engine::ParallelKnnEngine;
use crate::ingest::IngestConfig;
use crate::options::ExecutionMode;
use crate::serve::AdmissionConfig;
use crate::EngineError;

/// A resolved declustering: the placement plus, when replicated, the
/// mirror router.
pub(crate) type ResolvedDecluster = (Arc<dyn Declusterer>, Option<Arc<dyn ReplicaRouting>>);

/// The default declustering of `points` over `disks` disks: the paper's
/// near-optimal coloring behind the configured quadrant partition, with
/// every bucket denser than `2 × disks × leaf_capacity` points refined at
/// its own medians ([`RecursiveDeclusterer::refine_dense`], Section 4.3) —
/// or, with replication, the flat [`ReplicaDeclusterer`] that places both
/// copies. Shared by the builder and the engine's online reorganize
/// (which re-derives the declustering from the then-current data).
pub(crate) fn resolve_default_decluster<'a, I>(
    config: &EngineConfig,
    disks: usize,
    replicated: bool,
    points: I,
) -> Result<ResolvedDecluster, EngineError>
where
    I: Iterator<Item = &'a Point> + Clone,
{
    let splitter = make_splitter_of(points.clone(), config)?;
    if replicated {
        let rd = Arc::new(
            ReplicaDeclusterer::new(config.dim, disks, splitter)
                .map_err(|e| EngineError::Internal(e.to_string()))?,
        );
        Ok((
            Arc::clone(&rd) as Arc<dyn Declusterer>,
            Some(rd as Arc<dyn ReplicaRouting>),
        ))
    } else {
        // `col` can use at most nextpow2(d+1) disks; extra disks could
        // never receive data, so the engine is capped to the usable count.
        let capped = disks.min(colors_required(config.dim) as usize);
        // A bucket that would fill two leaves on every disk should not
        // sit on one disk.
        let leaf_capacity = TreeParams::for_dim(config.dim, config.variant)
            .map_err(|e| EngineError::Internal(e.to_string()))?
            .leaf_capacity;
        let method = RecursiveDeclusterer::refine_dense(
            points,
            splitter,
            capped,
            2 * capped * leaf_capacity,
        )
        .map_err(|e| EngineError::Internal(e.to_string()))?;
        Ok((Arc::new(method), None))
    }
}

/// Derives the quadrant splitter for a build from the configured
/// [`SplitStrategy`], reading the points through any re-iterable view —
/// the online reorganize feeds `(point, item)` pairs without
/// materializing a second vector.
fn make_splitter_of<'a, I>(
    points: I,
    config: &EngineConfig,
) -> Result<QuadrantSplitter, EngineError>
where
    I: Iterator<Item = &'a Point> + Clone,
{
    match config.splits {
        SplitStrategy::Midpoint => {
            QuadrantSplitter::midpoint(config.dim).map_err(|e| EngineError::Internal(e.to_string()))
        }
        SplitStrategy::DataMedian => {
            median_splits_of(points).map_err(|e| EngineError::Internal(e.to_string()))
        }
    }
}

/// Builds a [`ParallelKnnEngine`], replacing the former
/// `build` / `build_near_optimal` / `with_page_cache` constructor sprawl.
///
/// Defaults: the paper's configuration ([`EngineConfig::paper_defaults`]),
/// near-optimal declustering over `colors_required(dim)` disks with every
/// dense quadrant bucket re-declustered at its own medians
/// ([`RecursiveDeclusterer::refine_dense`]), no replicas, and no page
/// cache. Timeouts and retries are set per query
/// ([`crate::QueryOptions::with_timeout`] /
/// [`crate::QueryOptions::with_retry`]).
#[derive(Clone)]
pub struct EngineBuilder {
    config: EngineConfig,
    disks: Option<usize>,
    declusterer: Option<Arc<dyn Declusterer>>,
    replicas: usize,
    page_cache: Option<usize>,
    execution: ExecutionMode,
    metrics: bool,
    admission: Option<AdmissionConfig>,
    ingest: Option<IngestConfig>,
    lsh: Option<LshConfig>,
}

impl EngineBuilder {
    /// A builder for `dim`-dimensional data with the paper's defaults.
    pub fn new(dim: usize) -> Self {
        EngineBuilder {
            config: EngineConfig::paper_defaults(dim),
            disks: None,
            declusterer: None,
            replicas: 0,
            page_cache: None,
            execution: ExecutionMode::default(),
            metrics: false,
            admission: None,
            ingest: None,
            lsh: None,
        }
    }

    /// Replaces the whole configuration (keeps every other builder knob).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the disk count for the default near-optimal declustering.
    ///
    /// Without replicas the count is capped at `colors_required(dim)` —
    /// extra disks could never receive data. With replicas the surplus
    /// disks become dedicated mirror spares (and make the replica
    /// placement conflict-free). Ignored when an explicit
    /// [`EngineBuilder::declusterer`] is set, except that a mismatch with
    /// the declusterer's own disk count is an error.
    pub fn disks(mut self, disks: usize) -> Self {
        self.disks = Some(disks);
        self
    }

    /// Uses an explicit declusterer instead of the default near-optimal
    /// one. With [`EngineBuilder::replicas`], mirrors are routed by the
    /// chained rule (`(primary + 1) mod n`) since an arbitrary
    /// declusterer carries no placement of its own.
    pub fn declusterer(mut self, declusterer: Arc<dyn Declusterer>) -> Self {
        self.declusterer = Some(declusterer);
        self
    }

    /// Number of replica copies per bucket (0 or 1). With one replica
    /// every bucket is mirrored on a second disk chosen by
    /// [`ReplicaDeclusterer`] to avoid the primaries of the bucket's
    /// neighbors, and queries survive disk failures.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Installs an LRU page cache of `capacity` pages in front of every
    /// disk's primary tree. The cache is split into
    /// [`parsim_index::DEFAULT_CACHE_SHARDS`] independently locked shards
    /// so concurrent searches of the same disk never serialize on one
    /// global cache mutex.
    pub fn page_cache(mut self, capacity: usize) -> Self {
        self.page_cache = Some(capacity);
        self
    }

    /// Chooses which driver runs each query: the calling thread (the
    /// default) or the persistent per-disk worker pool. See
    /// [`ExecutionMode`].
    pub fn execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Turns the engine-wide metrics registry on or off (default **off**).
    ///
    /// With metrics on, every layer records cumulative counters, gauges,
    /// and modeled-latency histograms readable through
    /// [`crate::ParallelKnnEngine::metrics`] /
    /// [`crate::EngineMetrics::snapshot`]. With the default off, the
    /// query path carries no extra atomic operations at all.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Turns on the serve layer: bounded per-disk admission queues with
    /// backpressure, optional per-query modeled deadlines, and optional
    /// cross-query page coalescing (see
    /// [`AdmissionConfig`] and the [`crate::serve`] module docs).
    /// Implies [`ExecutionMode::Pooled`] — admission control is a
    /// property of the persistent worker pool's queues.
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self.execution = ExecutionMode::Pooled;
        self
    }

    /// Turns on streaming ingest: the engine accepts
    /// [`crate::ParallelKnnEngine::insert`] /
    /// [`crate::ParallelKnnEngine::remove`] while queries run, buffering
    /// writes in a bounded delta overlay that every query merges exactly
    /// (see [`IngestConfig`] and the [`crate::ingest`] module docs).
    /// Without this knob the engine is read-only after bulk load and
    /// writes fail with [`EngineError::ReadOnly`].
    pub fn ingest(mut self, ingest: IngestConfig) -> Self {
        self.ingest = Some(ingest);
        self
    }

    /// Attaches the approximate tier: seeded random-projection LSH
    /// tables, fitted and declustered over the disks next to the exact
    /// trees at bulk load (and re-fitted by every
    /// [`crate::ParallelKnnEngine::reorganize`]). Exact-mode queries are
    /// unaffected — answers stay bit-identical with or without this knob;
    /// [`crate::QueryMode::Approx`] queries scan the hash buckets instead
    /// of the trees. Without this knob, `Approx` queries fail with
    /// [`EngineError::ApproxUnavailable`]. See `docs/TUNING.md` for
    /// choosing table and probe counts.
    pub fn approx(mut self, config: LshConfig) -> Self {
        self.lsh = Some(config);
        self
    }

    /// Sets the disk service-time model.
    pub fn disk_model(mut self, model: DiskModel) -> Self {
        self.config.disk_model = model;
        self
    }

    /// Builds the engine over `points`, bulk-loading one tree per disk
    /// (plus mirror trees when replicas are on). Item ids are the indexes
    /// into `points`.
    pub fn build(&self, points: &[Point]) -> Result<ParallelKnnEngine, EngineError> {
        self.build_with_items(
            points
                .iter()
                .enumerate()
                .map(|(i, p)| (p.clone(), i as u64))
                .collect(),
        )
    }

    /// Builds the engine over explicitly identified items — `(point, id)`
    /// pairs with caller-chosen ids. This is [`EngineBuilder::build`] with
    /// control over the item ids, which matters when reconstructing an
    /// engine from a prior engine's contents (where ids must survive the
    /// round trip). Duplicate ids are rejected.
    pub fn build_with_items(
        &self,
        items: Vec<(Point, u64)>,
    ) -> Result<ParallelKnnEngine, EngineError> {
        if items.is_empty() {
            return Err(EngineError::EmptyDataSet);
        }
        if self.replicas > 1 {
            return Err(EngineError::Internal(
                "at most one replica per bucket is supported".to_owned(),
            ));
        }
        let mut seen = BTreeSet::new();
        for &(_, id) in &items {
            if !seen.insert(id) {
                return Err(EngineError::Internal(format!("duplicate item id {id}")));
            }
        }
        let (declusterer, router): ResolvedDecluster = match &self.declusterer {
            Some(d) => {
                if let Some(n) = self.disks {
                    if n != d.disks() {
                        return Err(EngineError::DiskCountMismatch {
                            engine: n,
                            declusterer: d.disks(),
                        });
                    }
                }
                let router: Option<Arc<dyn ReplicaRouting>> = if self.replicas == 1 {
                    if d.disks() < 2 {
                        return Err(EngineError::Internal(
                            "replication needs at least two disks".to_owned(),
                        ));
                    }
                    Some(Arc::new(ChainedReplica::new(Arc::clone(d))))
                } else {
                    None
                };
                (Arc::clone(d), router)
            }
            None => {
                let disks = self
                    .disks
                    .unwrap_or(colors_required(self.config.dim) as usize);
                resolve_default_decluster(
                    &self.config,
                    disks,
                    self.replicas == 1,
                    items.iter().map(|(p, _)| p),
                )?
            }
        };
        ParallelKnnEngine::build_internal(
            items,
            declusterer,
            router,
            self.config,
            self.page_cache,
            self.execution,
            self.metrics,
            self.admission,
            self.ingest,
            self.lsh,
            self.declusterer.is_some(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_decluster::RoundRobin;

    #[test]
    fn default_disk_count_is_the_optimal_one() {
        let pts = UniformGenerator::new(5).generate(400, 1);
        let e = ParallelKnnEngine::builder(5).build(&pts).unwrap();
        assert_eq!(e.disks(), colors_required(5) as usize);
        assert!(!e.has_replicas());
    }

    #[test]
    fn disks_are_capped_without_replicas_but_not_with() {
        let pts = UniformGenerator::new(3).generate(400, 2);
        // colors_required(3) == 4: a 10-disk request folds back to 4...
        let plain = ParallelKnnEngine::builder(3).disks(10).build(&pts).unwrap();
        assert_eq!(plain.disks(), 4);
        // ...unless replicas are on — then the spares host mirrors.
        let replicated = ParallelKnnEngine::builder(3)
            .disks(10)
            .replicas(1)
            .build(&pts)
            .unwrap();
        assert_eq!(replicated.disks(), 10);
        assert!(replicated.has_replicas());
        // Primaries still only live on the first 4 disks.
        let loads = replicated.load_distribution();
        assert!(loads[4..].iter().all(|&l| l == 0), "loads: {loads:?}");
    }

    #[test]
    fn explicit_declusterer_with_replicas_uses_the_chained_rule() {
        let pts = UniformGenerator::new(4).generate(300, 3);
        let rr: Arc<dyn Declusterer> = Arc::new(RoundRobin::new(6).unwrap());
        let e = ParallelKnnEngine::builder(4)
            .declusterer(Arc::clone(&rr))
            .replicas(1)
            .build(&pts)
            .unwrap();
        assert!(e.has_replicas());
        // Round-robin primary i mirrors on (i + 1) mod 6.
        for d in 0..6 {
            assert_eq!(e.replica_disks_of(d), vec![(d + 1) % 6]);
        }
    }

    #[test]
    fn rejects_contradictory_requests() {
        let pts = UniformGenerator::new(4).generate(100, 4);
        let rr: Arc<dyn Declusterer> = Arc::new(RoundRobin::new(6).unwrap());
        assert!(matches!(
            ParallelKnnEngine::builder(4)
                .declusterer(Arc::clone(&rr))
                .disks(8)
                .build(&pts),
            Err(EngineError::DiskCountMismatch {
                engine: 8,
                declusterer: 6
            })
        ));
        assert!(ParallelKnnEngine::builder(4)
            .replicas(2)
            .build(&pts)
            .is_err());
        let one: Arc<dyn Declusterer> = Arc::new(RoundRobin::new(1).unwrap());
        assert!(ParallelKnnEngine::builder(4)
            .declusterer(one)
            .replicas(1)
            .build(&pts)
            .is_err());
    }
}
