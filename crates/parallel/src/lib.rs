//! Parallel similarity search over declustered disks — the paper's system.
//!
//! A [`ParallelKnnEngine`] distributes feature vectors over `n` simulated
//! disks with a pluggable [`parsim_decluster::Declusterer`] and builds one
//! local X-tree per disk. A k-NN query runs on all disks concurrently; the
//! per-disk candidate lists are merged, and the reported cost is the
//! service time of the **most-loaded disk** — the paper's measurement
//! ("we determined the disk which accesses most pages during query
//! processing \[and\] used the search time of this disk as the search time
//! of the whole parallel X-tree").
//!
//! The [`SequentialEngine`] is the single-disk baseline used to compute
//! speed-ups, and [`metrics`] contains the workload runners used by every
//! experiment in the benchmark crate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod builder;
pub mod config;
pub mod declustered;
pub mod engine;
pub mod ingest;
pub mod lsh;
pub mod metrics;
pub mod obs;
pub mod options;
pub mod pool;
pub mod sequential;
pub mod serve;
pub mod throughput;

pub use builder::EngineBuilder;
pub use config::{EngineConfig, SplitStrategy};
pub use declustered::DeclusteredXTree;
pub use engine::{ArrayHandle, FaultsHandle, ParallelKnnEngine};
pub use ingest::IngestConfig;
pub use metrics::{run_knn_workload, run_traced_workload, DegradedInfo, QueryTrace, WorkloadCost};
pub use obs::EngineMetrics;
pub use options::{ExecutionMode, QueryMode, QueryOptions, QueryResult, RetryPolicy};
pub use parsim_index::LshConfig;
pub use pool::PendingQuery;
pub use sequential::SequentialEngine;
pub use serve::AdmissionConfig;
pub use throughput::{run_batch, ThroughputReport};

/// Errors produced when building or querying an engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The data set was empty where a non-empty one is required.
    EmptyDataSet,
    /// A point of the wrong dimensionality was supplied.
    DimensionMismatch {
        /// Expected (engine) dimensionality.
        expected: usize,
        /// Supplied dimensionality.
        got: usize,
    },
    /// The declusterer's disk count does not match the engine's.
    DiskCountMismatch {
        /// Disks of the engine.
        engine: usize,
        /// Disks of the declusterer.
        declusterer: usize,
    },
    /// A disk holding un-replicated buckets is unavailable (failed, over
    /// its timeout budget, or flaky beyond the retry policy) and no
    /// healthy replica exists, so the query cannot return an exact answer.
    BucketUnavailable {
        /// The unavailable disk whose buckets could not be served.
        disk: usize,
    },
    /// The submission was load-shed at admission: the first disk of the
    /// query's itinerary had a full queue (see
    /// [`AdmissionConfig::queue_capacity`]). The query never entered the
    /// system; the caller decides whether to retry, degrade, or drop.
    Overloaded {
        /// The disk whose queue was full.
        disk: usize,
        /// The queue depth observed at rejection.
        depth: usize,
    },
    /// The query was shed mid-pipeline because the *modeled* service time
    /// it had already consumed exceeded its deadline budget — the rest of
    /// its work was doomed to miss and was not performed.
    DeadlineExceeded {
        /// The query's modeled budget, in µs.
        budget_micros: u64,
        /// The modeled service time consumed when the query was shed, in
        /// µs (always greater than the budget).
        spent_micros: u64,
    },
    /// An `Approx`-mode query was submitted to an engine built without
    /// [`EngineBuilder::approx`]: there is no LSH tier to serve it.
    ApproxUnavailable,
    /// A write (`insert`/`remove`) was attempted on an engine built
    /// without [`EngineBuilder::ingest`]: there is no delta buffer to
    /// accept it.
    ReadOnly,
    /// A write was shed because the delta buffer is at capacity — the
    /// write-side analogue of [`EngineError::Overloaded`]. The write was
    /// not applied; the caller decides whether to retry after a
    /// flush/reorganize drains the buffer, or drop.
    DeltaFull {
        /// The configured [`IngestConfig::delta_capacity`].
        capacity: usize,
    },
    /// An underlying component failed.
    Internal(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyDataSet => write!(f, "data set is empty"),
            EngineError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: engine is {expected}-d, got {got}-d")
            }
            EngineError::DiskCountMismatch {
                engine,
                declusterer,
            } => write!(
                f,
                "declusterer targets {declusterer} disks but the engine has {engine}"
            ),
            EngineError::BucketUnavailable { disk } => write!(
                f,
                "disk {disk} is unavailable and holds buckets with no healthy replica"
            ),
            EngineError::Overloaded { disk, depth } => write!(
                f,
                "overloaded: disk {disk}'s admission queue is full ({depth} waiting)"
            ),
            EngineError::DeadlineExceeded {
                budget_micros,
                spent_micros,
            } => write!(
                f,
                "deadline exceeded: {spent_micros}µs modeled service consumed \
                 against a {budget_micros}µs budget"
            ),
            EngineError::ApproxUnavailable => write!(
                f,
                "no LSH tier: build the engine with .approx(LshConfig) to serve Approx queries"
            ),
            EngineError::ReadOnly => write!(
                f,
                "engine is read-only: build it with .ingest(IngestConfig) to accept writes"
            ),
            EngineError::DeltaFull { capacity } => write!(
                f,
                "delta buffer full ({capacity} buffered writes): reorganize to drain it"
            ),
            EngineError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}
