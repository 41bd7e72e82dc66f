//! The live metric instruments and their sampled snapshot.
//!
//! [`MetricsRegistry`] is the single allocation of instruments the
//! whole serving tier records into: the scheduler (admission, queue,
//! workers), the wire reader, and — indirectly, read at sample time —
//! the result cache and the fault plan. It is deliberately a struct of
//! named fields rather than a string-keyed map: the metric vocabulary
//! is closed (pinned by tests), lookups are field accesses on the hot
//! path, and a typo is a compile error instead of a silently new
//! time series.
//!
//! [`MetricsSnapshot`] is the read side: one point-in-time fold of
//! every instrument plus the lock-guarded values (cache counters,
//! fault injections) and static configuration (worker count, budget).
//! Both the `metrics` wire op and the Prometheus exposition render
//! from the same snapshot, so the two surfaces can never disagree.

use super::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::query::Query;

/// Number of query kinds ([`Query::KIND_NAMES`]); the per-kind
/// histogram arrays are indexed by [`Query::kind_index`].
pub const N_KINDS: usize = Query::KIND_NAMES.len();

/// Lock-free instruments for the serving tier. Shared by `Arc` between
/// the engine, its workers, and the wire front-end.
#[derive(Default, Debug)]
pub struct MetricsRegistry {
    // --- admission & queue ---
    /// Queries accepted into the engine (including cache hits).
    pub submitted: Counter,
    /// Queries refused at admission (queue full).
    pub rejected: Counter,
    /// Queries shed at admission by the overload policy (memory budget).
    pub overload_sheds: Counter,
    /// Jobs currently waiting in the queue.
    pub queue_depth: Gauge,
    /// Estimated bytes of all admitted-but-unfinished work.
    pub inflight_bytes: Gauge,
    /// Configured memory budget (0 = unlimited); set once at startup.
    pub memory_budget_bytes: Gauge,

    // --- worker pool ---
    /// Jobs currently executing on a worker.
    pub running: Gauge,
    /// Terminal outcomes by status, indexed like `RETIRE_STATUSES`.
    retired: [Counter; 5],
    /// Fault-injected dispatches re-enqueued for another attempt.
    pub retries: Counter,
    /// Nanoseconds workers spent executing jobs.
    pub worker_busy_ns: Counter,
    /// Nanoseconds workers spent parked waiting for work.
    pub worker_idle_ns: Counter,

    // --- live mutation subsystem ---
    /// Mutation batches applied (each publishes an epoch).
    pub mutation_batches: Counter,
    /// Arcs inserted by mutation batches (set-semantics no-ops excluded).
    pub mutation_edges_added: Counter,
    /// Arc copies removed by mutation tombstones.
    pub mutation_edges_deleted: Counter,
    /// Arcs held in the serving snapshot's delta overlay right now.
    pub mutation_overlay_edges: Gauge,
    /// Vertices touched by the serving snapshot's overlay right now.
    pub mutation_overlay_vertices: Gauge,
    /// Background compactions that installed a clean CSR.
    pub mutation_compactions: Counter,
    /// Compactions that failed or panicked without touching the store.
    pub mutation_compaction_failures: Counter,
    /// Wall-clock nanoseconds per successful compaction.
    mutation_compact_time: Histogram,

    // --- latency histograms, per query kind ---
    queue_wait: [Histogram; N_KINDS],
    run_time: [Histogram; N_KINDS],

    // --- wire front-end ---
    /// Request lines received (well-formed or not).
    pub wire_requests: Counter,
    /// Bytes read off accepted connections / stdin.
    pub wire_bytes: Counter,
    /// Lines rejected before dispatch: oversized, non-UTF-8, or unparseable.
    pub wire_malformed: Counter,
}

/// Terminal statuses a job can retire with, in the order the `retired`
/// counters (and the Prometheus `status` label) use. `shed` here means
/// a queue-deadline shed — overload sheds at admission never become
/// jobs and are counted separately.
pub const RETIRE_STATUSES: [&str; 5] = ["done", "cancelled", "failed", "panicked", "shed"];

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one terminal outcome; `status_index` indexes
    /// [`RETIRE_STATUSES`] (clamped defensively to the last slot).
    #[inline]
    pub fn retire(&self, status_index: usize) {
        self.retired[status_index.min(RETIRE_STATUSES.len() - 1)].incr();
    }

    /// Terminal-outcome count for one [`RETIRE_STATUSES`] slot.
    pub fn retired(&self, status_index: usize) -> u64 {
        self.retired[status_index.min(RETIRE_STATUSES.len() - 1)].get()
    }

    /// Records how long a job of `kind` waited in the queue.
    #[inline]
    pub fn observe_queue_wait(&self, kind: usize, ns: u64) {
        self.queue_wait[kind % N_KINDS].record(ns);
    }

    /// Records how long a job of `kind` ran on a worker.
    #[inline]
    pub fn observe_run_time(&self, kind: usize, ns: u64) {
        self.run_time[kind % N_KINDS].record(ns);
    }

    /// Snapshot of one kind's queue-wait histogram.
    pub fn queue_wait_snapshot(&self, kind: usize) -> HistogramSnapshot {
        self.queue_wait[kind % N_KINDS].snapshot()
    }

    /// Snapshot of one kind's run-time histogram.
    pub fn run_time_snapshot(&self, kind: usize) -> HistogramSnapshot {
        self.run_time[kind % N_KINDS].snapshot()
    }

    /// All queue-wait histograms folded into one.
    pub fn merged_queue_wait(&self) -> HistogramSnapshot {
        merge_all(&self.queue_wait)
    }

    /// All run-time histograms folded into one.
    pub fn merged_run_time(&self) -> HistogramSnapshot {
        merge_all(&self.run_time)
    }

    /// Records one successful compaction's wall-clock duration.
    #[inline]
    pub fn observe_compaction(&self, ns: u64) {
        self.mutation_compact_time.record(ns);
    }

    /// Snapshot of the compaction-duration histogram.
    pub fn compaction_snapshot(&self) -> HistogramSnapshot {
        self.mutation_compact_time.snapshot()
    }
}

fn merge_all(hs: &[Histogram; N_KINDS]) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::empty();
    for h in hs {
        out.merge(&h.snapshot());
    }
    out
}

/// A point-in-time reading of every metric the serving tier exports.
/// Produced by `Engine::metrics_snapshot`; consumed by the `metrics`
/// wire op and [`super::prometheus::render`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Epoch of the currently installed graph snapshot (0 = none).
    pub epoch: u64,
    /// Configured worker count.
    pub workers: u64,
    /// Configured queue capacity.
    pub queue_capacity: u64,
    /// Jobs waiting in the queue.
    pub queue_depth: u64,
    /// Jobs executing on workers.
    pub running: u64,
    /// Estimated in-flight bytes.
    pub inflight_bytes: u64,
    /// Configured memory budget (0 = unlimited).
    pub memory_budget_bytes: u64,
    /// Queries accepted.
    pub submitted: u64,
    /// Queries refused (queue full).
    pub rejected: u64,
    /// Overload sheds at admission.
    pub overload_sheds: u64,
    /// Terminal outcomes, indexed like [`RETIRE_STATUSES`].
    pub retired: [u64; RETIRE_STATUSES.len()],
    /// Fault-retry re-enqueues.
    pub retries: u64,
    /// Worker busy nanoseconds.
    pub worker_busy_ns: u64,
    /// Worker idle nanoseconds.
    pub worker_idle_ns: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache LRU evictions.
    pub cache_evictions: u64,
    /// Result-cache resident entries.
    pub cache_entries: u64,
    /// Mutation batches applied.
    pub mutation_batches: u64,
    /// Arcs inserted by mutation batches.
    pub mutation_edges_added: u64,
    /// Arc copies removed by mutation tombstones.
    pub mutation_edges_deleted: u64,
    /// Arcs in the serving snapshot's delta overlay.
    pub mutation_overlay_edges: u64,
    /// Vertices touched by the serving snapshot's overlay.
    pub mutation_overlay_vertices: u64,
    /// Successful background compactions.
    pub mutation_compactions: u64,
    /// Failed/panicked compactions.
    pub mutation_compaction_failures: u64,
    /// Compaction-duration histogram (nanoseconds).
    pub mutation_compact_time: HistogramSnapshot,
    /// Faults fired, one `(point name, count)` per fault point (all
    /// zero when no plan is armed).
    pub fault_injections: Vec<(&'static str, u64)>,
    /// Per-kind queue-wait histograms, `(kind name, snapshot)` in
    /// [`Query::KIND_NAMES`] order.
    pub queue_wait: Vec<(&'static str, HistogramSnapshot)>,
    /// Per-kind run-time histograms, same order.
    pub run_time: Vec<(&'static str, HistogramSnapshot)>,
    /// Wire request lines seen.
    pub wire_requests: u64,
    /// Wire bytes read.
    pub wire_bytes: u64,
    /// Wire lines rejected as malformed.
    pub wire_malformed: u64,
}

impl MetricsSnapshot {
    /// All queue-wait histograms folded into one.
    pub fn merged_queue_wait(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for (_, h) in &self.queue_wait {
            out.merge(h);
        }
        out
    }

    /// All run-time histograms folded into one.
    pub fn merged_run_time(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for (_, h) in &self.run_time {
            out.merge(h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_retire_statuses_are_closed() {
        assert_eq!(N_KINDS, 8);
        assert_eq!(RETIRE_STATUSES, ["done", "cancelled", "failed", "panicked", "shed"]);
    }

    #[test]
    fn retire_indexes_and_clamps() {
        let r = MetricsRegistry::new();
        r.retire(0);
        r.retire(0);
        r.retire(4);
        r.retire(999); // defensive clamp lands in the last slot
        assert_eq!(r.retired(0), 2);
        assert_eq!(r.retired(4), 2);
        assert_eq!(r.retired(1), 0);
    }

    #[test]
    fn per_kind_histograms_merge() {
        let r = MetricsRegistry::new();
        r.observe_run_time(0, 100);
        r.observe_run_time(3, 1_000_000);
        let merged = r.merged_run_time();
        assert_eq!(merged.count, 2);
        assert_eq!(merged.max, 1_000_000);
        assert_eq!(r.run_time_snapshot(0).count, 1);
        assert_eq!(r.run_time_snapshot(1).count, 0);
    }
}
