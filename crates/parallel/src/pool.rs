//! The query state machine and its two drivers.
//!
//! A query is one `QueryTask`: its immutable inputs plus all of its
//! mutable search state, advanced by `step` one disk at a time along
//! its execution itinerary (a **pipeline**, not a fan-out). Because the
//! task visits disks in exactly the order the single-threaded reference
//! search does, every run of the same task yields the same answer *and*
//! the same trace, whichever thread runs each step.
//!
//! Two drivers run tasks, chosen by
//! [`ExecutionMode`](crate::ExecutionMode):
//!
//! - **Pooled:** the persistent per-disk `WorkerPool`. One long-lived
//!   worker thread per disk, each owning that disk's subtree set: a
//!   worker only ever touches its own disk's primary tree and the mirror
//!   trees *hosted* on its disk. Workers are fed by per-disk `DiskQueue`s
//!   (bounded priority queues — FIFO by submission order until an
//!   [`crate::serve::AdmissionConfig`] asks for more), so many queries
//!   pipeline through the disks concurrently with no per-query thread
//!   spawn and no per-batch barrier.
//! - **Scoped:** `run_inline` runs the same steps on the caller's
//!   thread until the task completes — no queue, no coalescing wave, no
//!   deadline shedding.
//!
//! Both drivers share the panic containment of `guarded_step`: a
//! panicking step completes its query with [`EngineError::Internal`].
//!
//! Shutdown protocol: dropping the `WorkerPool` first **drains** — it
//! waits until the in-flight counter hits zero, so no queued task can be
//! abandoned — then signals every queue's shutdown flag and joins the
//! workers. Workers never block on enqueue (hops are exempt from the
//! admission bound) and every hop strictly advances a task's itinerary,
//! so the drain always terminates: engine drop cannot deadlock even with
//! queued queries.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parsim_geometry::Point;
use parsim_index::knn::{ForestCursor, Neighbor, SearchStats};
use parsim_storage::DiskModel;

use crate::engine::{DegradedState, EngineCore, TracedAnswer};
use crate::ingest::QueryOverlay;
use crate::lsh::{merge_unique_candidates, DiskProbes, LshCounters};
use crate::metrics::QueryTrace;
use crate::obs::EngineMetrics;
use crate::options::QueryResult;
use crate::serve::DiskQueue;
use crate::EngineError;

/// One in-flight query: its immutable inputs plus all mutable search
/// state, boxed so a hop moves a pointer, not the state.
pub(crate) struct QueryTask {
    /// The query point.
    pub(crate) query: Point,
    /// Result count.
    pub(crate) k: usize,
    /// Per-disk work counters, accumulated as the task hops.
    pub(crate) stats: Vec<SearchStats>,
    /// Submission instant (the trace's wall time spans queueing too).
    pub(crate) start: Instant,
    /// Where the query is in its execution.
    pub(crate) stage: Stage,
    /// Where the answer goes.
    pub(crate) completion: Arc<Completion>,
    /// Coalescing wave: queries sharing a wave id may share physical page
    /// reads (unique per pooled submission unless the query came in
    /// through [`crate::ParallelKnnEngine::submit_wave`]; unused inline).
    pub(crate) wave: u64,
    /// Modeled service-time budget in µs; `None` disables deadline
    /// shedding for this query. Only the pool sheds.
    pub(crate) deadline_micros: Option<u64>,
    /// Modeled service time the query has consumed over its hops so far,
    /// in µs — compared against the budget at every hop.
    pub(crate) spent_micros: u64,
    /// Admission sequence number (assigned by the pool at submit; reused
    /// by every later hop as the FIFO tie-break).
    pub(crate) seq: u64,
}

/// The execution state machine of a query.
pub(crate) enum Stage {
    /// Healthy RKV: one [`ForestCursor`] walking the MINDIST itinerary —
    /// the deterministic forest search, pipelined across workers.
    Rkv {
        /// The traveling search state.
        cursor: ForestCursor,
        /// `(root MINDIST², disk)` stops in visiting order.
        itinerary: Vec<(f64, usize)>,
        /// Next stop.
        pos: usize,
    },
    /// Degraded execution of either tier: primary steps, then the
    /// failover stops planned from their outcome.
    Degraded {
        /// The shared degraded state machine.
        state: DegradedState,
        /// Which half of the itinerary the task is in.
        phase: Phase,
    },
    /// Healthy approximate execution: the query's LSH probe plan,
    /// grouped by owning disk and visited in ascending disk order. Each
    /// stop scans its buckets and keeps the disk-local top-k; the last
    /// stop merges with cross-disk deduplication. Degraded approximate
    /// queries run [`Stage::Degraded`] over the same plan.
    Approx {
        /// Probe targets grouped by owning disk, ascending.
        plan: Vec<DiskProbes>,
        /// Next plan entry.
        pos: usize,
        /// Per-disk candidate lists, merged at the last stop.
        candidates: Vec<Vec<Neighbor>>,
        /// LSH work counters, folded into the trace at completion.
        counters: LshCounters,
    },
}

impl Stage {
    /// The disk of the task's first step (disk 0 when there is nothing
    /// to search: the first step then completes the task).
    fn first_disk(&self) -> usize {
        match self {
            Stage::Rkv { itinerary, .. } => itinerary.first().map_or(0, |&(_, d)| d),
            Stage::Approx { plan, .. } => plan.first().map_or(0, |p| p.disk),
            Stage::Degraded { state, .. } => state.primary_disk(0).unwrap_or(0),
        }
    }
}

/// Progress marker of a degraded query.
pub(crate) enum Phase {
    /// Primary steps, in [`DegradedState::primary_disk`] order.
    Primaries {
        /// Next primary step.
        next: usize,
    },
    /// Failover stops planned by
    /// [`EngineCore::plan_failover`], executed on each mirror's host.
    Failover {
        /// Next itinerary position.
        pos: usize,
    },
}

/// A write-once answer slot with a wakeup for waiters.
pub(crate) struct Completion {
    slot: Mutex<Option<TracedAnswer>>,
    ready: Condvar,
}

impl Completion {
    pub(crate) fn new() -> Self {
        Completion {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Stores the answer and wakes every waiter. Called exactly once.
    pub(crate) fn complete(&self, answer: TracedAnswer) {
        let mut slot = self.slot.lock().expect("completion lock is never poisoned");
        debug_assert!(slot.is_none(), "a query completes exactly once");
        *slot = Some(answer);
        self.ready.notify_all();
    }

    fn wait(&self) -> TracedAnswer {
        let mut slot = self.slot.lock().expect("completion lock is never poisoned");
        loop {
            if let Some(answer) = slot.take() {
                return answer;
            }
            slot = self
                .ready
                .wait(slot)
                .expect("completion lock is never poisoned");
        }
    }

    fn is_ready(&self) -> bool {
        self.slot
            .lock()
            .expect("completion lock is never poisoned")
            .is_some()
    }

    /// Blocks until the answer is stored or `timeout` passes; true when
    /// the answer is stored.
    fn wait_timeout(&self, timeout: Duration) -> bool {
        let slot = self.slot.lock().expect("completion lock is never poisoned");
        let (slot, _) = self
            .ready
            .wait_timeout_while(slot, timeout, |slot| slot.is_none())
            .expect("completion lock is never poisoned");
        slot.is_some()
    }
}

/// A handle to a submitted query (see
/// [`crate::ParallelKnnEngine::submit`]): wait on it to get the
/// [`QueryResult`]. Dropping the handle without waiting is fine — the
/// query still runs to completion and its answer is discarded.
pub struct PendingQuery {
    completion: Arc<Completion>,
    trace: bool,
    model: DiskModel,
    /// The query's delta-buffer snapshot, merged into the answer on
    /// wait. The pipeline itself searches with `k` inflated by the
    /// overlay's tombstone count; the merge here filters the tombstones,
    /// folds in the delta hits, and truncates back to the caller's `k`.
    overlay: Option<QueryOverlay>,
}

impl PendingQuery {
    /// A handle on `completion`, merging `overlay` (the query's delta
    /// snapshot, see [`QueryOverlay`]) into the answer on wait.
    pub(crate) fn new(
        completion: Arc<Completion>,
        trace: bool,
        model: DiskModel,
        overlay: Option<QueryOverlay>,
    ) -> Self {
        PendingQuery {
            completion,
            trace,
            model,
            overlay,
        }
    }

    /// True once the answer is available and [`PendingQuery::wait`] will
    /// not block.
    pub fn is_ready(&self) -> bool {
        self.completion.is_ready()
    }

    /// Blocks for at most `timeout` until the answer is available and
    /// returns whether it is. After `true`, [`PendingQuery::wait`] does
    /// not block; after `false` the query keeps running and the handle
    /// can be waited on again.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        self.completion.wait_timeout(timeout)
    }

    /// Blocks until the query finishes and returns its result.
    pub fn wait(self) -> Result<QueryResult, EngineError> {
        let (neighbors, trace) = self.completion.wait()?;
        let neighbors = match &self.overlay {
            Some(o) => o.apply(neighbors),
            None => neighbors,
        };
        let cost = trace.cost(&self.model);
        Ok(QueryResult {
            neighbors,
            cost,
            trace: self.trace.then_some(trace),
        })
    }
}

/// In-flight query counter with a drained-to-zero wakeup.
struct Inflight {
    count: Mutex<u64>,
    zero: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Inflight {
            count: Mutex::new(0),
            zero: Condvar::new(),
        }
    }

    fn inc(&self) {
        *self.count.lock().expect("inflight lock is never poisoned") += 1;
    }

    fn dec(&self) {
        let mut count = self.count.lock().expect("inflight lock is never poisoned");
        *count -= 1;
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut count = self.count.lock().expect("inflight lock is never poisoned");
        while *count > 0 {
            count = self
                .zero
                .wait(count)
                .expect("inflight lock is never poisoned");
        }
    }
}

/// The persistent pool: one pinned worker per disk plus its feeding
/// queues. Created eagerly at engine build, drained and joined on drop.
pub(crate) struct WorkerPool {
    queues: Vec<Arc<DiskQueue>>,
    handles: Vec<JoinHandle<()>>,
    inflight: Arc<Inflight>,
    metrics: Option<Arc<EngineMetrics>>,
    /// Global admission order; also the hop-priority tie-break.
    seq: AtomicU64,
    /// Coalescing wave ids; unique per submission unless a wave groups
    /// several (wave 0 is never handed out, so single submissions on an
    /// engine without coalescing can never alias a real wave).
    wave: AtomicU64,
}

impl WorkerPool {
    /// Spawns one worker per disk of `core`. The queue capacity comes
    /// from the core's admission config (`usize::MAX` — never reject —
    /// without one).
    pub(crate) fn start(core: Arc<EngineCore>) -> Self {
        let disks = core.trees.len();
        let capacity = core
            .admission
            .map(|a| a.queue_capacity)
            .unwrap_or(usize::MAX);
        let queues: Vec<Arc<DiskQueue>> = (0..disks)
            .map(|_| Arc::new(DiskQueue::new(capacity)))
            .collect();
        let inflight = Arc::new(Inflight::new());
        let metrics = core.metrics.clone();
        let handles = (0..disks)
            .map(|disk| {
                let core = Arc::clone(&core);
                let queues = queues.clone();
                let inflight = Arc::clone(&inflight);
                std::thread::Builder::new()
                    .name(format!("parsim-disk-{disk}"))
                    .spawn(move || worker_loop(disk, &core, &queues, &inflight))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool {
            queues,
            handles,
            inflight,
            metrics,
            seq: AtomicU64::new(0),
            wave: AtomicU64::new(1),
        }
    }

    /// A fresh coalescing wave id.
    pub(crate) fn next_wave(&self) -> u64 {
        self.wave.fetch_add(1, Ordering::Relaxed)
    }

    /// Admits a task with the worker of its first step, or rejects it
    /// with [`EngineError::Overloaded`] when that disk's queue is at
    /// capacity. The queue-depth gauge is raised before the push and
    /// lowered by the receiving worker, so the gauges drain back to zero
    /// exactly when the pool does (a rejected push lowers it again
    /// itself).
    pub(crate) fn submit(&self, mut task: QueryTask) -> Result<(), EngineError> {
        let first = task.stage.first_disk();
        task.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let budget = task.deadline_micros.unwrap_or(u64::MAX);
        let seq = task.seq;
        self.inflight.inc();
        if let Some(m) = &self.metrics {
            m.queue_depth(first).inc();
        }
        match self.queues[first].push_submit(budget, seq, Box::new(task)) {
            Ok(()) => Ok(()),
            Err(depth) => {
                if let Some(m) = &self.metrics {
                    m.queue_depth(first).dec();
                }
                self.inflight.dec();
                Err(EngineError::Overloaded { disk: first, depth })
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Drain-then-stop: once inflight is zero no task exists in any
        // queue, so the shutdown flag can never overtake a live query.
        self.inflight.wait_zero();
        for queue in &self.queues {
            queue.shutdown();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: pop a task, shed it if its modeled deadline already
/// passed, open its coalescing wave, run every consecutive step that
/// belongs to this disk, then either forward the task to the next disk's
/// worker or complete it.
///
/// A panicking step is contained by [`guarded_step`]: the worker keeps
/// serving its queue and the query leaves the in-flight count, so neither
/// the caller's [`PendingQuery::wait`] nor the engine's drain-then-stop
/// shutdown can hang on it.
fn worker_loop(disk: usize, core: &EngineCore, queues: &[Arc<DiskQueue>], inflight: &Inflight) {
    while let Some(task) = queues[disk].pop() {
        if let Some(m) = &core.metrics {
            m.queue_depth(disk).dec();
        }
        // Deadline shed: the modeled service time already consumed
        // exceeds the budget, so every further page read is wasted work —
        // deliver the typed error now instead of a late answer.
        if let Some(budget) = task.deadline_micros {
            if task.spent_micros > budget {
                if let Some(m) = &core.metrics {
                    m.record_shed_deadline(task.spent_micros - budget);
                }
                task.completion.complete(Err(EngineError::DeadlineExceeded {
                    budget_micros: budget,
                    spent_micros: task.spent_micros,
                }));
                inflight.dec();
                continue;
            }
        }
        core.begin_wave(disk, task.wave);
        let pages_before = task.stats[disk].pages;
        match guarded_step(core, disk, task) {
            Outcome::Forward(next, mut task) => {
                let read = task.stats[disk].pages - pages_before;
                task.spent_micros += core.array.model().service_time(read).as_micros() as u64;
                if let Some(m) = &core.metrics {
                    m.queue_depth(next).inc();
                }
                let budget = task.deadline_micros.unwrap_or(u64::MAX);
                let seq = task.seq;
                queues[next].push_hop(budget, seq, task);
            }
            Outcome::Done => inflight.dec(),
        }
    }
}

/// The inline driver: runs `task` to completion on the caller's thread,
/// stepping it disk to disk exactly as the pool's workers would, under
/// the same panic containment. It never sheds on a deadline.
pub(crate) fn run_inline(core: &EngineCore, task: QueryTask) {
    let mut disk = task.stage.first_disk();
    let mut task = Box::new(task);
    while let Outcome::Forward(next, forwarded) = guarded_step(core, disk, task) {
        disk = next;
        task = forwarded;
    }
}

/// Runs [`step`] under `catch_unwind`: a panic completes the query with
/// [`EngineError::Internal`] and counts it as a failure, so the caller's
/// [`PendingQuery::wait`] never hangs on it.
fn guarded_step(core: &EngineCore, disk: usize, task: Box<QueryTask>) -> Outcome {
    let completion = Arc::clone(&task.completion);
    panic::catch_unwind(AssertUnwindSafe(|| step(core, disk, task))).unwrap_or_else(|payload| {
        let cause = panic_message(payload.as_ref());
        let error = EngineError::Internal(format!("query step on disk {disk} panicked: {cause}"));
        deliver(core, &completion, Err(error));
        Outcome::Done
    })
}

/// The message of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Result of running a task's local steps on one disk.
enum Outcome {
    /// The task's next step belongs to another disk.
    Forward(usize, Box<QueryTask>),
    /// The task completed (answer or error delivered).
    Done,
}

/// Advances `task` as far as this disk can, then forwards or completes.
fn step(core: &EngineCore, disk: usize, mut task: Box<QueryTask>) -> Outcome {
    let mut forward: Option<usize> = None;
    let mut error: Option<EngineError> = None;
    match task.stage {
        Stage::Rkv {
            ref mut cursor,
            ref itinerary,
            ref mut pos,
        } => {
            while *pos < itinerary.len() {
                let (min_dist, ti) = itinerary[*pos];
                if cursor.prunable(min_dist) {
                    // Sorted itinerary: every remaining tree is pruned
                    // whole, exactly as the reference loop counts it.
                    for &(_, tj) in &itinerary[*pos..] {
                        task.stats[tj].pruned += 1;
                    }
                    *pos = itinerary.len();
                    break;
                }
                if ti != disk {
                    forward = Some(ti);
                    break;
                }
                core.cursor_visit(ti, cursor, &task.query, &mut task.stats[ti]);
                *pos += 1;
            }
        }
        Stage::Approx {
            ref plan,
            ref mut pos,
            ref mut candidates,
            ref mut counters,
        } => {
            while *pos < plan.len() {
                let entry = &plan[*pos];
                if entry.disk != disk {
                    forward = Some(entry.disk);
                    break;
                }
                candidates[disk] = core.lsh().scan_disk(
                    disk,
                    &entry.buckets,
                    &task.query,
                    task.k,
                    &mut task.stats[disk],
                    counters,
                );
                *pos += 1;
            }
        }
        Stage::Degraded {
            ref mut state,
            ref mut phase,
        } => loop {
            match phase {
                Phase::Primaries { next } => {
                    let Some(primary) = state.primary_disk(*next) else {
                        core.plan_failover(state);
                        *phase = Phase::Failover { pos: 0 };
                        continue;
                    };
                    if primary != disk {
                        forward = Some(primary);
                        break;
                    }
                    core.degraded_primary(disk, &task.query, task.k, state, &mut task.stats);
                    *next += 1;
                }
                Phase::Failover { pos } => {
                    if *pos >= state.itinerary.len() {
                        break;
                    }
                    let (_, host) = state.itinerary[*pos];
                    if host != disk {
                        forward = Some(host);
                        break;
                    }
                    match core.degraded_failover(*pos, &task.query, task.k, state, &mut task.stats)
                    {
                        Ok(()) => *pos += 1,
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
            }
        },
    }
    if let Some(e) = error {
        deliver(core, &task.completion, Err(e));
        return Outcome::Done;
    }
    if let Some(next) = forward {
        return Outcome::Forward(next, task);
    }
    complete(core, *task);
    Outcome::Done
}

/// Finishes a task whose itinerary is exhausted: merge, build the trace,
/// deliver the answer.
fn complete(core: &EngineCore, task: QueryTask) {
    let QueryTask {
        k,
        stats,
        start,
        stage,
        completion,
        ..
    } = task;
    let wall = start.elapsed();
    let answer = match stage {
        Stage::Rkv { cursor, .. } => {
            let neighbors = cursor.finish();
            let trace = QueryTrace::from_stats(&stats, wall, core.array.model());
            Ok((neighbors, trace))
        }
        Stage::Approx {
            candidates,
            counters,
            ..
        } => {
            let merged = merge_unique_candidates(candidates.iter().map(Vec::as_slice), k);
            let mut trace = QueryTrace::from_stats(&stats, wall, core.array.model());
            counters.fold_into(&mut trace);
            Ok((merged, trace))
        }
        Stage::Degraded { state, .. } => core.assemble_degraded(state, k, &stats, wall),
    };
    deliver(core, &completion, answer);
}

/// Records a finished query in the metrics registry, then hands its
/// answer to the waiter. Recording first means a snapshot taken after
/// `wait` returns always sees this query.
pub(crate) fn deliver(core: &EngineCore, completion: &Completion, answer: TracedAnswer) {
    if let Some(m) = &core.metrics {
        match &answer {
            Ok((_, trace)) => m.record_query(trace, core.array.model()),
            Err(_) => m.record_failure(),
        }
    }
    completion.complete(answer);
}
