//! Hand-rolled Prometheus text exposition (format 0.0.4).
//!
//! No client library, no dependencies: the metric vocabulary is closed
//! ([`FAMILIES`]), every family is rendered unconditionally (zero
//! valued families still appear, so scrapers and the smoke test can
//! grep deterministically), and label values come from fixed in-repo
//! name tables (`Query::KIND_NAMES`, [`RETIRE_STATUSES`],
//! `FaultPoint` names) — none contain `"`, `\`, or newlines, so no
//! escaping pass is needed. Histograms print cumulative `_bucket`
//! lines for non-empty buckets plus the mandatory `le="+Inf"`, then
//! `_sum` and `_count`; bucket bounds are the integer upper bounds
//! from [`super::histogram::bucket_upper_bound`].

use super::histogram::{bucket_upper_bound, HistogramSnapshot, MAX_FINITE_BUCKET};
use super::registry::{MetricsSnapshot, RETIRE_STATUSES};
use std::fmt::Write;

/// The closed metric vocabulary: `(family name, type, label keys,
/// help)`, in exposition order. The pin test in the integration suite
/// asserts this table verbatim, and a unit test below asserts
/// [`render`] emits exactly these families in exactly this order.
pub const FAMILIES: &[(&str, &str, &[&str], &str)] = &[
    ("ligra_epoch", "gauge", &[], "Epoch of the installed graph snapshot (0 = none)"),
    ("ligra_workers", "gauge", &[], "Configured worker threads"),
    ("ligra_queue_capacity", "gauge", &[], "Configured admission queue capacity"),
    ("ligra_queue_depth", "gauge", &[], "Jobs waiting in the admission queue"),
    ("ligra_running_queries", "gauge", &[], "Jobs executing on workers"),
    ("ligra_inflight_bytes", "gauge", &[], "Estimated bytes of admitted unfinished work"),
    ("ligra_memory_budget_bytes", "gauge", &[], "Configured memory budget (0 = unlimited)"),
    ("ligra_cache_entries", "gauge", &[], "Resident result-cache entries"),
    ("ligra_queries_submitted_total", "counter", &[], "Queries accepted by the engine"),
    ("ligra_queries_rejected_total", "counter", &[], "Queries refused because the queue was full"),
    ("ligra_queries_retired_total", "counter", &["status"], "Terminal query outcomes by status"),
    ("ligra_overload_sheds_total", "counter", &[], "Queries shed at admission by memory budget"),
    ("ligra_dispatch_retries_total", "counter", &[], "Fault-injected dispatches re-enqueued"),
    ("ligra_worker_busy_ns_total", "counter", &[], "Nanoseconds workers spent executing jobs"),
    ("ligra_worker_idle_ns_total", "counter", &[], "Nanoseconds workers spent waiting for work"),
    ("ligra_cache_hits_total", "counter", &[], "Result-cache hits"),
    ("ligra_cache_misses_total", "counter", &[], "Result-cache misses"),
    ("ligra_cache_evictions_total", "counter", &[], "Result-cache LRU evictions"),
    ("ligra_mutation_overlay_edges", "gauge", &[], "Arcs in the serving snapshot's delta overlay"),
    ("ligra_mutation_overlay_vertices", "gauge", &[], "Vertices touched by the delta overlay"),
    ("ligra_mutation_batches_applied_total", "counter", &[], "Mutation batches applied"),
    ("ligra_mutation_edges_added_total", "counter", &[], "Arcs inserted by mutation batches"),
    ("ligra_mutation_edges_deleted_total", "counter", &[], "Arcs removed by mutation tombstones"),
    ("ligra_mutation_compactions_total", "counter", &[], "Background CSR compactions installed"),
    ("ligra_mutation_compaction_failures_total", "counter", &[], "Compactions failed or panicked"),
    ("ligra_mutation_compaction_ns", "histogram", &[], "Compaction wall clock, nanoseconds"),
    ("ligra_fault_injections_total", "counter", &["point"], "Faults fired by injection point"),
    ("ligra_wire_requests_total", "counter", &[], "Request lines received by the wire reader"),
    ("ligra_wire_bytes_total", "counter", &[], "Bytes read by the wire reader"),
    ("ligra_wire_malformed_total", "counter", &[], "Request lines rejected as malformed"),
    ("ligra_queue_wait_ns", "histogram", &["query"], "Queue wait per query kind, nanoseconds"),
    ("ligra_run_time_ns", "histogram", &["query"], "Run time per query kind, nanoseconds"),
];

fn head(out: &mut String, name: &str, typ: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {typ}");
}

fn scalar(out: &mut String, name: &str, typ: &str, help: &str, v: u64) {
    head(out, name, typ, help);
    let _ = writeln!(out, "{name} {v}");
}

fn labeled(out: &mut String, name: &str, key: &str, rows: &[(&str, u64)]) {
    for (value, v) in rows {
        let _ = writeln!(out, "{name}{{{key}=\"{value}\"}} {v}");
    }
}

fn bare_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 || i > MAX_FINITE_BUCKET {
            continue;
        }
        cum += c;
        let le = bucket_upper_bound(i);
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

fn histogram(out: &mut String, name: &str, key: &str, rows: &[(&str, HistogramSnapshot)]) {
    for (value, h) in rows {
        let mut cum = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            if c == 0 || i > MAX_FINITE_BUCKET {
                continue;
            }
            cum += c;
            let le = bucket_upper_bound(i);
            let _ = writeln!(out, "{name}_bucket{{{key}=\"{value}\",le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{{key}=\"{value}\",le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum{{{key}=\"{value}\"}} {}", h.sum);
        let _ = writeln!(out, "{name}_count{{{key}=\"{value}\"}} {}", h.count);
    }
}

/// Renders a snapshot as Prometheus text exposition. Every family in
/// [`FAMILIES`] appears exactly once, in table order, with `# HELP`
/// and `# TYPE` headers; labeled families list every label value from
/// their closed tables even at zero.
pub fn render(s: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    scalar(
        &mut out,
        "ligra_epoch",
        "gauge",
        "Epoch of the installed graph snapshot (0 = none)",
        s.epoch,
    );
    scalar(&mut out, "ligra_workers", "gauge", "Configured worker threads", s.workers);
    scalar(
        &mut out,
        "ligra_queue_capacity",
        "gauge",
        "Configured admission queue capacity",
        s.queue_capacity,
    );
    scalar(
        &mut out,
        "ligra_queue_depth",
        "gauge",
        "Jobs waiting in the admission queue",
        s.queue_depth,
    );
    scalar(&mut out, "ligra_running_queries", "gauge", "Jobs executing on workers", s.running);
    scalar(
        &mut out,
        "ligra_inflight_bytes",
        "gauge",
        "Estimated bytes of admitted unfinished work",
        s.inflight_bytes,
    );
    scalar(
        &mut out,
        "ligra_memory_budget_bytes",
        "gauge",
        "Configured memory budget (0 = unlimited)",
        s.memory_budget_bytes,
    );
    scalar(
        &mut out,
        "ligra_cache_entries",
        "gauge",
        "Resident result-cache entries",
        s.cache_entries,
    );
    scalar(
        &mut out,
        "ligra_queries_submitted_total",
        "counter",
        "Queries accepted by the engine",
        s.submitted,
    );
    scalar(
        &mut out,
        "ligra_queries_rejected_total",
        "counter",
        "Queries refused because the queue was full",
        s.rejected,
    );

    head(&mut out, "ligra_queries_retired_total", "counter", "Terminal query outcomes by status");
    let retired: Vec<(&str, u64)> =
        RETIRE_STATUSES.iter().zip(s.retired.iter()).map(|(&n, &v)| (n, v)).collect();
    labeled(&mut out, "ligra_queries_retired_total", "status", &retired);

    scalar(
        &mut out,
        "ligra_overload_sheds_total",
        "counter",
        "Queries shed at admission by memory budget",
        s.overload_sheds,
    );
    scalar(
        &mut out,
        "ligra_dispatch_retries_total",
        "counter",
        "Fault-injected dispatches re-enqueued",
        s.retries,
    );
    scalar(
        &mut out,
        "ligra_worker_busy_ns_total",
        "counter",
        "Nanoseconds workers spent executing jobs",
        s.worker_busy_ns,
    );
    scalar(
        &mut out,
        "ligra_worker_idle_ns_total",
        "counter",
        "Nanoseconds workers spent waiting for work",
        s.worker_idle_ns,
    );
    scalar(&mut out, "ligra_cache_hits_total", "counter", "Result-cache hits", s.cache_hits);
    scalar(&mut out, "ligra_cache_misses_total", "counter", "Result-cache misses", s.cache_misses);
    scalar(
        &mut out,
        "ligra_cache_evictions_total",
        "counter",
        "Result-cache LRU evictions",
        s.cache_evictions,
    );

    scalar(
        &mut out,
        "ligra_mutation_overlay_edges",
        "gauge",
        "Arcs in the serving snapshot's delta overlay",
        s.mutation_overlay_edges,
    );
    scalar(
        &mut out,
        "ligra_mutation_overlay_vertices",
        "gauge",
        "Vertices touched by the delta overlay",
        s.mutation_overlay_vertices,
    );
    scalar(
        &mut out,
        "ligra_mutation_batches_applied_total",
        "counter",
        "Mutation batches applied",
        s.mutation_batches,
    );
    scalar(
        &mut out,
        "ligra_mutation_edges_added_total",
        "counter",
        "Arcs inserted by mutation batches",
        s.mutation_edges_added,
    );
    scalar(
        &mut out,
        "ligra_mutation_edges_deleted_total",
        "counter",
        "Arcs removed by mutation tombstones",
        s.mutation_edges_deleted,
    );
    scalar(
        &mut out,
        "ligra_mutation_compactions_total",
        "counter",
        "Background CSR compactions installed",
        s.mutation_compactions,
    );
    scalar(
        &mut out,
        "ligra_mutation_compaction_failures_total",
        "counter",
        "Compactions failed or panicked",
        s.mutation_compaction_failures,
    );
    head(
        &mut out,
        "ligra_mutation_compaction_ns",
        "histogram",
        "Compaction wall clock, nanoseconds",
    );
    bare_histogram(&mut out, "ligra_mutation_compaction_ns", &s.mutation_compact_time);

    head(&mut out, "ligra_fault_injections_total", "counter", "Faults fired by injection point");
    labeled(&mut out, "ligra_fault_injections_total", "point", &s.fault_injections);

    scalar(
        &mut out,
        "ligra_wire_requests_total",
        "counter",
        "Request lines received by the wire reader",
        s.wire_requests,
    );
    scalar(
        &mut out,
        "ligra_wire_bytes_total",
        "counter",
        "Bytes read by the wire reader",
        s.wire_bytes,
    );
    scalar(
        &mut out,
        "ligra_wire_malformed_total",
        "counter",
        "Request lines rejected as malformed",
        s.wire_malformed,
    );

    head(&mut out, "ligra_queue_wait_ns", "histogram", "Queue wait per query kind, nanoseconds");
    histogram(&mut out, "ligra_queue_wait_ns", "query", &s.queue_wait);
    head(&mut out, "ligra_run_time_ns", "histogram", "Run time per query kind, nanoseconds");
    histogram(&mut out, "ligra_run_time_ns", "query", &s.run_time);
    out
}

/// The router's closed metric vocabulary (`ligra-route
/// --metrics-addr`), same shape and rules as [`FAMILIES`]; the
/// `backend` label is the replica's zero-based index in `--backend`
/// order. Pinned by the same integration suite.
pub const ROUTE_FAMILIES: &[(&str, &str, &[&str], &str)] = &[
    ("ligra_route_backends", "gauge", &[], "Configured backend replicas"),
    (
        "ligra_route_backend_state",
        "gauge",
        &["backend"],
        "Replica state: 0 = down, 1 = degraded, 2 = healthy",
    ),
    (
        "ligra_route_backend_outstanding",
        "gauge",
        &["backend"],
        "Requests currently in flight to the replica",
    ),
    ("ligra_route_requests_total", "counter", &[], "Client request lines the router parsed"),
    (
        "ligra_route_forwarded_total",
        "counter",
        &["backend"],
        "Requests successfully exchanged with the replica",
    ),
    (
        "ligra_route_backend_errors_total",
        "counter",
        &["backend"],
        "Forward failures: connect errors, timeouts, torn responses",
    ),
    (
        "ligra_route_retries_total",
        "counter",
        &[],
        "Transient backend responses retried on another replica",
    ),
    (
        "ligra_route_failovers_total",
        "counter",
        &[],
        "Reads rerouted after a replica died mid-request",
    ),
    ("ligra_route_sheds_total", "counter", &[], "Requests shed with every replica unavailable"),
    ("ligra_route_probes_total", "counter", &[], "Health probes attempted"),
    ("ligra_route_probe_failures_total", "counter", &[], "Health probes failed"),
    ("ligra_route_journal_entries", "gauge", &[], "Entries resident in the write journal"),
    (
        "ligra_route_journal_replayed_total",
        "counter",
        &[],
        "Journal entries replayed to lagging replicas",
    ),
    (
        "ligra_route_wire_malformed_total",
        "counter",
        &[],
        "Client request lines rejected as malformed",
    ),
    (
        "ligra_route_request_ns",
        "histogram",
        &["backend"],
        "Forwarded request round-trip per replica, nanoseconds",
    ),
];

/// Renders the router's metrics as Prometheus text exposition: every
/// family in [`ROUTE_FAMILIES`] exactly once, in table order, with one
/// labeled row per configured replica.
pub fn render_router(m: &crate::route::RouterMetrics) -> String {
    let ids: Vec<String> = (0..m.backends.len()).map(|i| i.to_string()).collect();
    let per_backend = |f: &dyn Fn(&crate::route::BackendMetrics) -> u64| -> Vec<(&str, u64)> {
        ids.iter().zip(m.backends.iter()).map(|(id, b)| (id.as_str(), f(b))).collect()
    };
    let mut out = String::with_capacity(2048);
    scalar(
        &mut out,
        "ligra_route_backends",
        "gauge",
        "Configured backend replicas",
        m.backends.len() as u64,
    );
    head(
        &mut out,
        "ligra_route_backend_state",
        "gauge",
        "Replica state: 0 = down, 1 = degraded, 2 = healthy",
    );
    labeled(&mut out, "ligra_route_backend_state", "backend", &per_backend(&|b| b.state.get()));
    head(
        &mut out,
        "ligra_route_backend_outstanding",
        "gauge",
        "Requests currently in flight to the replica",
    );
    labeled(
        &mut out,
        "ligra_route_backend_outstanding",
        "backend",
        &per_backend(&|b| b.outstanding.get()),
    );
    scalar(
        &mut out,
        "ligra_route_requests_total",
        "counter",
        "Client request lines the router parsed",
        m.requests.get(),
    );
    head(
        &mut out,
        "ligra_route_forwarded_total",
        "counter",
        "Requests successfully exchanged with the replica",
    );
    labeled(
        &mut out,
        "ligra_route_forwarded_total",
        "backend",
        &per_backend(&|b| b.forwarded.get()),
    );
    head(
        &mut out,
        "ligra_route_backend_errors_total",
        "counter",
        "Forward failures: connect errors, timeouts, torn responses",
    );
    labeled(
        &mut out,
        "ligra_route_backend_errors_total",
        "backend",
        &per_backend(&|b| b.errors.get()),
    );
    scalar(
        &mut out,
        "ligra_route_retries_total",
        "counter",
        "Transient backend responses retried on another replica",
        m.retries.get(),
    );
    scalar(
        &mut out,
        "ligra_route_failovers_total",
        "counter",
        "Reads rerouted after a replica died mid-request",
        m.failovers.get(),
    );
    scalar(
        &mut out,
        "ligra_route_sheds_total",
        "counter",
        "Requests shed with every replica unavailable",
        m.sheds.get(),
    );
    scalar(
        &mut out,
        "ligra_route_probes_total",
        "counter",
        "Health probes attempted",
        m.probes.get(),
    );
    scalar(
        &mut out,
        "ligra_route_probe_failures_total",
        "counter",
        "Health probes failed",
        m.probe_failures.get(),
    );
    scalar(
        &mut out,
        "ligra_route_journal_entries",
        "gauge",
        "Entries resident in the write journal",
        m.journal_entries.get(),
    );
    scalar(
        &mut out,
        "ligra_route_journal_replayed_total",
        "counter",
        "Journal entries replayed to lagging replicas",
        m.journal_replayed.get(),
    );
    scalar(
        &mut out,
        "ligra_route_wire_malformed_total",
        "counter",
        "Client request lines rejected as malformed",
        m.wire_malformed.get(),
    );
    head(
        &mut out,
        "ligra_route_request_ns",
        "histogram",
        "Forwarded request round-trip per replica, nanoseconds",
    );
    let rows: Vec<(&str, HistogramSnapshot)> = ids
        .iter()
        .zip(m.backends.iter())
        .map(|(id, b)| (id.as_str(), b.request_ns.snapshot()))
        .collect();
    histogram(&mut out, "ligra_route_request_ns", "backend", &rows);
    out
}

#[cfg(test)]
mod tests {
    use super::super::histogram::bucket_index;
    use super::*;
    use crate::query::Query;

    fn sample() -> MetricsSnapshot {
        let mut h = HistogramSnapshot::empty();
        h.buckets[bucket_index(1000)] = 3;
        h.buckets[bucket_index(1 << 20)] = 1;
        h.count = 4;
        h.sum = 3 * 1000 + (1 << 20);
        h.max = 1 << 20;
        MetricsSnapshot {
            epoch: 2,
            workers: 4,
            queue_capacity: 64,
            queue_depth: 1,
            running: 2,
            inflight_bytes: 12_345,
            memory_budget_bytes: 0,
            submitted: 10,
            rejected: 1,
            overload_sheds: 2,
            retired: [5, 1, 1, 1, 1],
            retries: 3,
            worker_busy_ns: 9_999,
            worker_idle_ns: 1_111,
            cache_hits: 4,
            cache_misses: 6,
            cache_evictions: 1,
            cache_entries: 5,
            mutation_batches: 3,
            mutation_edges_added: 12,
            mutation_edges_deleted: 4,
            mutation_overlay_edges: 20,
            mutation_overlay_vertices: 7,
            mutation_compactions: 1,
            mutation_compaction_failures: 0,
            mutation_compact_time: h.clone(),
            fault_injections: vec![("graph.load", 0), ("edgemap.round", 7)],
            queue_wait: Query::KIND_NAMES
                .iter()
                .map(|&k| (k, HistogramSnapshot::empty()))
                .collect(),
            run_time: Query::KIND_NAMES
                .iter()
                .map(|&k| if k == "bfs" { (k, h.clone()) } else { (k, HistogramSnapshot::empty()) })
                .collect(),
            wire_requests: 20,
            wire_bytes: 2_048,
            wire_malformed: 1,
        }
    }

    /// `render` and `FAMILIES` are maintained side by side; this pins
    /// them to each other so neither can drift alone.
    #[test]
    fn rendered_type_lines_match_families_in_order() {
        let text = render(&sample());
        let types: Vec<(&str, &str)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_once(' '))
            .collect();
        let expected: Vec<(&str, &str)> = FAMILIES.iter().map(|&(n, t, _, _)| (n, t)).collect();
        assert_eq!(types, expected);
    }

    #[test]
    fn labeled_families_emit_every_closed_label_value() {
        let text = render(&sample());
        for st in RETIRE_STATUSES {
            assert!(
                text.contains(&format!("ligra_queries_retired_total{{status=\"{st}\"}} ")),
                "missing status {st}"
            );
        }
        for kind in Query::KIND_NAMES {
            assert!(
                text.contains(&format!("ligra_run_time_ns_count{{query=\"{kind}\"}} ")),
                "missing kind {kind}"
            );
        }
        assert!(text.contains("ligra_fault_injections_total{point=\"graph.load\"} 0"));
        assert!(text.contains("ligra_fault_injections_total{point=\"edgemap.round\"} 7"));
    }

    #[test]
    fn histogram_lines_are_cumulative_and_end_at_inf() {
        let text = render(&sample());
        let b1000 = bucket_upper_bound(bucket_index(1000));
        let b1m = bucket_upper_bound(bucket_index(1 << 20));
        assert!(
            text.contains(&format!("ligra_run_time_ns_bucket{{query=\"bfs\",le=\"{b1000}\"}} 3"))
        );
        assert!(text.contains(&format!("ligra_run_time_ns_bucket{{query=\"bfs\",le=\"{b1m}\"}} 4")));
        assert!(text.contains("ligra_run_time_ns_bucket{query=\"bfs\",le=\"+Inf\"} 4"));
        assert!(text
            .contains(&format!("ligra_run_time_ns_sum{{query=\"bfs\"}} {}", 3 * 1000 + (1 << 20))));
        assert!(text.contains("ligra_run_time_ns_count{query=\"bfs\"} 4"));
        // Empty histograms still close with +Inf, sum, count.
        assert!(text.contains("ligra_run_time_ns_bucket{query=\"mis\",le=\"+Inf\"} 0"));
        assert!(text.contains("ligra_run_time_ns_sum{query=\"mis\"} 0"));
        // The label-free compaction histogram closes the same way.
        assert!(text.contains("ligra_mutation_compaction_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("ligra_mutation_compaction_ns_count 4"));
    }

    /// Same drift pin for the router vocabulary: `render_router` and
    /// `ROUTE_FAMILIES` must agree exactly, in order.
    #[test]
    fn router_type_lines_match_route_families_in_order() {
        let m = crate::route::RouterMetrics::with_backends(3);
        m.backends[0].state.set(2);
        m.backends[1].request_ns.record(1_000);
        m.failovers.incr();
        let text = render_router(&m);
        let types: Vec<(&str, &str)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_once(' '))
            .collect();
        let expected: Vec<(&str, &str)> =
            ROUTE_FAMILIES.iter().map(|&(n, t, _, _)| (n, t)).collect();
        assert_eq!(types, expected);
    }

    #[test]
    fn router_families_emit_every_backend_row() {
        let m = crate::route::RouterMetrics::with_backends(3);
        m.backends[2].forwarded.add(5);
        let text = render_router(&m);
        for id in 0..3 {
            assert!(
                text.contains(&format!("ligra_route_backend_state{{backend=\"{id}\"}} ")),
                "missing state row for backend {id}"
            );
            assert!(
                text.contains(&format!(
                    "ligra_route_request_ns_bucket{{backend=\"{id}\",le=\"+Inf\"}} "
                )),
                "missing histogram close for backend {id}"
            );
        }
        assert!(text.contains("ligra_route_forwarded_total{backend=\"2\"} 5"));
        assert!(text.contains("ligra_route_failovers_total 0"));
    }

    #[test]
    fn every_line_is_comment_or_sample() {
        for line in render(&sample()).lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(name, v)| !name.is_empty() && v.parse::<u64>().is_ok()),
                "bad exposition line: {line}"
            );
        }
    }
}
