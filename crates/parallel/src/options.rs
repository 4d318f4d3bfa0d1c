//! Query options for the parallel engine.
//!
//! [`QueryOptions`] is the one record of per-query knobs consumed by
//! [`crate::ParallelKnnEngine::query`] and
//! [`crate::ParallelKnnEngine::query_batch`], including the degraded-mode
//! timeout budget and flaky-read [`RetryPolicy`].

use std::time::Duration;

use parsim_index::knn::Neighbor;
use parsim_storage::QueryCost;

use crate::metrics::QueryTrace;

/// How the engine executes queries: which driver runs each query's task.
///
/// Every query is one task of the engine's query state machine, stepped
/// disk by disk along its itinerary; the mode only chooses who runs the
/// steps. [`ExecutionMode::Scoped`] runs them on the calling thread (a
/// batch uses a bounded claim-the-next-query worker scope, see
/// [`QueryOptions::workers`]); its one exception is a single healthy
/// exact query, which fans out one scoped thread per disk under a shared
/// pruning bound. [`ExecutionMode::Pooled`] starts one **persistent
/// worker thread per disk** at build time; tasks are enqueued and
/// *pipelined* from worker to worker, so consecutive queries overlap
/// across disks without a per-batch barrier and no thread is ever spawned
/// on the query path. Answers are bit-identical in both modes; see
/// [`crate::ParallelKnnEngine::submit`] for the trace guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Run each query on the calling thread (scoped threads for batches
    /// and the single-query fan-out).
    #[default]
    Scoped,
    /// Long-lived per-disk workers fed by submission queues.
    Pooled,
}

/// Bounded-retry policy for reads against a flaky disk: up to
/// `max_retries` re-reads per page, with exponential backoff between
/// attempts. Retries cost *modeled* time only — the simulation draws the
/// error stream and charges the backoff plus the re-read to the disk's
/// modeled service time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum re-read attempts per failed page read.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff: Duration,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_multiplier: f64,
}

impl RetryPolicy {
    /// No retries at all: the first read error fails the disk over.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
            backoff_multiplier: 1.0,
        }
    }

    /// The backoff before retry attempt `attempt` (0-based):
    /// `backoff × multiplier^attempt`.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        self.backoff
            .mul_f64(self.backoff_multiplier.powi(attempt as i32))
    }
}

impl Default for RetryPolicy {
    /// Two retries, 1 ms initial backoff, doubling.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            backoff_multiplier: 2.0,
        }
    }
}

/// Per-query choice between the exact tree backbone and the approximate
/// LSH tier.
///
/// [`QueryMode::Exact`] (the default) runs the X-tree search and returns
/// the true k nearest neighbors — bit-identical whether or not the engine
/// was built with an LSH config. [`QueryMode::Approx`] requires the
/// engine to have been built with
/// [`crate::EngineBuilder::approx`]; it scans the query's hash buckets
/// instead of the trees, returning true dataset members with their true
/// f64 distances, but possibly missing some of the real top-k. `probes`
/// widens the search per table (multi-probe LSH): bucket 1 is the query's
/// own signature, further probes flip the lowest-margin signature bits
/// first. Recall is monotone non-decreasing in `probes` for a fixed
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Exact tree search (the default).
    #[default]
    Exact,
    /// Approximate LSH search.
    Approx {
        /// Buckets probed per table, at least 1 (0 is treated as 1).
        probes: usize,
    },
}

/// Options of one k-NN query (or batch): the result count plus tracing,
/// timeout, retry, and worker-pool knobs that were formerly spread over
/// separate entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Number of nearest neighbors to return.
    pub k: usize,
    /// Attach the full [`QueryTrace`] to each result.
    pub trace: bool,
    /// Per-disk timeout: a disk whose *modeled* service time for this
    /// query (including slow-disk multipliers and retry backoff) exceeds
    /// the budget is treated as failed and its buckets fail over to
    /// replicas. `None` (the default) disables the budget.
    pub timeout: Option<Duration>,
    /// Retry policy for flaky-disk reads; `None` means
    /// [`RetryPolicy::default`].
    pub retry: Option<RetryPolicy>,
    /// Worker threads of a scoped [`crate::ParallelKnnEngine::query_batch`]
    /// (clamped to at least 1; defaults to the host's available
    /// parallelism): each claims the next query and runs it inline.
    /// Ignored by single queries and by pooled engines, whose
    /// parallelism is one worker per disk.
    pub workers: Option<usize>,
    /// Modeled end-to-end service-time budget for this query on the
    /// serve layer: overrides [`crate::AdmissionConfig::deadline`] when
    /// set. At every pipeline hop the pool compares the modeled service
    /// time the query has consumed against the budget and sheds doomed
    /// work with [`crate::EngineError::DeadlineExceeded`]. Only the pool
    /// sheds: scoped execution runs every query to completion.
    pub deadline: Option<Duration>,
    /// Exact tree search or the approximate LSH tier (see [`QueryMode`]).
    pub mode: QueryMode,
}

impl QueryOptions {
    /// Options for a plain k-NN query.
    pub fn new(k: usize) -> Self {
        QueryOptions {
            k,
            trace: false,
            timeout: None,
            retry: None,
            workers: None,
            deadline: None,
            mode: QueryMode::Exact,
        }
    }

    /// Options for an approximate k-NN query on the LSH tier with the
    /// given multi-probe width.
    pub fn approx(k: usize, probes: usize) -> Self {
        QueryOptions::new(k).with_mode(QueryMode::Approx { probes })
    }

    /// Options for a traced k-NN query.
    pub fn traced(k: usize) -> Self {
        QueryOptions {
            trace: true,
            ..QueryOptions::new(k)
        }
    }

    /// Sets whether the full trace is attached to results.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the per-disk modeled-time budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the flaky-read retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Sets the batch worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the modeled deadline budget for the serve layer.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the query mode (exact tree search or approximate LSH).
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }
}

/// The answer to one query: the neighbors, the classic per-disk page cost,
/// and — when [`QueryOptions::trace`] was set — the full trace.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The `k` nearest neighbors, nearest first.
    pub neighbors: Vec<Neighbor>,
    /// Per-disk page cost of the query.
    pub cost: QueryCost,
    /// The full trace, if requested.
    pub trace: Option<QueryTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_before(0), Duration::from_millis(1));
        assert_eq!(r.backoff_before(1), Duration::from_millis(2));
        assert_eq!(r.backoff_before(2), Duration::from_millis(4));
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn options_builders_compose() {
        let o = QueryOptions::new(5)
            .with_timeout(Duration::from_millis(80))
            .with_retry(RetryPolicy::none())
            .with_workers(4)
            .with_deadline(Duration::from_millis(9))
            .with_trace(true);
        assert_eq!(o.k, 5);
        assert!(o.trace);
        assert_eq!(o.mode, QueryMode::Exact);
        let a = QueryOptions::approx(5, 3);
        assert_eq!(a.mode, QueryMode::Approx { probes: 3 });
        assert_eq!(
            QueryOptions::new(2)
                .with_mode(QueryMode::Approx { probes: 1 })
                .mode,
            QueryMode::Approx { probes: 1 }
        );
        assert_eq!(o.timeout, Some(Duration::from_millis(80)));
        assert_eq!(o.retry, Some(RetryPolicy::none()));
        assert_eq!(o.workers, Some(4));
        assert_eq!(o.deadline, Some(Duration::from_millis(9)));
        assert!(QueryOptions::traced(3).trace);
        assert!(!QueryOptions::new(3).trace);
    }
}
