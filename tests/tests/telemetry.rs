//! End-to-end telemetry: real application runs produce traces whose
//! events are internally consistent, whose exports round-trip losslessly
//! through both serialization formats, and whose counters respect the
//! structural bounds of the graph being traversed.

use ligra::{
    from_csv, from_json_lines, summary, to_csv, to_json_lines, EdgeMapOptions, Mode, NoopRecorder,
    Op, Traversal, TraversalStats,
};
use ligra_apps as apps;
use ligra_graph::generators::rmat::RmatOptions;
use ligra_graph::generators::{grid3d, rmat};

#[test]
fn bfs_trace_has_one_event_per_round_and_nonzero_monotone_time() {
    let g = rmat(&RmatOptions::paper(11));
    let mut stats = TraversalStats::new();
    let result = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    assert_eq!(stats.edge_map_rounds().count(), result.rounds);
    // Wall-clock is recorded for every event and total time accumulates.
    let mut running = 0u64;
    for r in &stats.rounds {
        assert!(r.time_ns > 0, "every recorded span must have measured time");
        running += r.time_ns;
    }
    assert_eq!(stats.total_time_ns(), running);
}

#[test]
fn auto_trace_explains_every_direction_decision() {
    let g = rmat(&RmatOptions::paper(12));
    let m = g.num_edges() as u64;
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    let mut saw_dense = false;
    for r in stats.edge_map_rounds() {
        assert_eq!(r.work, r.frontier_vertices + r.frontier_out_edges);
        assert_eq!(r.threshold, m / 20);
        assert!(!r.forced);
        assert_eq!(r.mode == Mode::Dense, r.work > r.threshold);
        saw_dense |= r.mode == Mode::Dense;
    }
    assert!(saw_dense, "rMat BFS must trip the dense heuristic at its peak");
}

#[test]
fn conversion_flags_mark_representation_switches() {
    let g = rmat(&RmatOptions::paper(12));
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    for r in stats.edge_map_rounds() {
        let wants_sparse = r.mode == Mode::Sparse;
        let input_sparse = r.input_repr == ligra::ReprKind::Sparse;
        if r.frontier_vertices > 0 {
            assert_eq!(r.converted, wants_sparse != input_sparse);
        }
    }
    // A low-diameter BFS goes sparse -> dense -> sparse, so at least one
    // round converted its input representation.
    assert!(stats.edge_map_rounds().any(|r| r.converted));
}

#[test]
fn dense_pull_scans_at_most_all_in_edges() {
    let g = grid3d(12); // symmetric: in-edges == out-edges == m
    let m = g.num_edges() as u64;
    let mut stats = TraversalStats::new();
    let opts = EdgeMapOptions::new().traversal(Traversal::Dense);
    let _ = apps::bfs_traced(&g, 0, opts, &mut stats);
    for r in stats.edge_map_rounds() {
        assert_eq!(r.mode, Mode::Dense);
        assert!(r.forced);
        // Early exit can only shrink the scan, and scanned + skipped
        // always partition the full in-edge set.
        assert!(r.edges_scanned <= m);
        assert_eq!(r.edges_scanned + r.edges_skipped, m);
    }
}

#[test]
fn frontier_bytes_pin_exact_push_output_and_packed_dense_reads() {
    // Pins the memory-traffic contract of the representation work: the
    // sparse push allocates exactly |output| slots (4 bytes each, no
    // sentinel padding between frontier and result), and every dense round
    // streams the n/8-byte packed bitset — once in, once out.
    let g = rmat(&RmatOptions::paper(12));
    let n = g.num_vertices() as u64;
    let packed = n.div_ceil(64) * 8;
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    let mut saw = (false, false);
    for r in stats.edge_map_rounds() {
        if r.frontier_vertices == 0 {
            assert_eq!(r.frontier_bytes, 0);
            continue;
        }
        match r.mode {
            Mode::Sparse => {
                assert_eq!(r.frontier_bytes, 4 * (r.frontier_vertices + r.output_vertices));
                saw.0 = true;
            }
            _ => {
                assert_eq!(r.frontier_bytes, 2 * packed);
                saw.1 = true;
            }
        }
    }
    assert!(saw.0 && saw.1, "BFS on rMat must exercise both sparse and dense rounds");
}

#[test]
fn real_traces_round_trip_through_both_formats() {
    let g = rmat(&RmatOptions::paper(10));
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    let _ = apps::cc_traced(&g, EdgeMapOptions::default(), &mut stats);
    assert!(stats.rounds.iter().any(|r| r.op != Op::EdgeMap), "vertex ops must be in the trace");

    let via_json = from_json_lines(&to_json_lines(&stats)).expect("json round-trip");
    assert_eq!(via_json, stats);
    let via_csv = from_csv(&to_csv(&stats)).expect("csv round-trip");
    assert_eq!(via_csv, stats);

    // The summary is computed off the events alone, so it is identical
    // for the original and the re-imported trace.
    assert_eq!(format!("{}", summary(&stats)), format!("{}", summary(&via_json)));
}

#[test]
fn noop_recorder_matches_traced_results() {
    // The zero-overhead path must not change algorithm output.
    let g = rmat(&RmatOptions::paper(10));
    let mut stats = TraversalStats::new();
    let traced = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    let untraced = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut NoopRecorder);
    assert_eq!(traced.dist, untraced.dist);
    assert!(!stats.rounds.is_empty());
}

#[test]
fn engine_span_jsonl_keys_are_a_closed_vocabulary() {
    // Pin the per-query span export schema next to the trace pins: the
    // failure counters ride in these spans (`status` gained "panicked"
    // and "shed"; `retries` counts transient-fault re-dispatches), and
    // downstream consumers key on exact field names in exact order.
    use ligra_engine::{Engine, EngineConfig, Query, QueryStatus};
    use std::sync::Arc;

    let engine = Engine::new(EngineConfig::default());
    engine.install_graph(Arc::new(grid3d(4)));
    let h = engine.submit(Query::Bfs { source: 0 }, None).expect("submit");
    assert_eq!(h.wait(), QueryStatus::Done);

    let lines = ligra_engine::spans_to_json_lines(&engine.spans());
    let line = lines.lines().next().expect("one span exported");
    let keys: Vec<&str> = line
        .match_indices('"')
        .collect::<Vec<_>>()
        .chunks(2)
        .filter_map(|pair| match pair {
            [(a, _), (b, _)] if line[*b + 1..].starts_with(':') => Some(&line[*a + 1..*b]),
            _ => None,
        })
        .collect();
    assert_eq!(
        keys,
        [
            "id",
            "trace_id",
            "query",
            "epoch",
            "status",
            "cache_hit",
            "queue_wait_ns",
            "queue_wait_bucket",
            "run_ns",
            "run_bucket",
            "rounds",
            "events",
            "retries"
        ],
        "span JSONL schema changed: {line}"
    );
}

#[test]
fn prometheus_families_are_a_closed_vocabulary() {
    // Pin the scrape vocabulary verbatim: dashboards and alert rules key
    // on exact family names, types, and label keys. Adding, renaming, or
    // relabeling a family is an observability-contract change and must
    // update this list, DESIGN.md §12, and the README scrape example.
    use ligra_engine::metrics::FAMILIES;

    let expected: &[(&str, &str, &[&str])] = &[
        ("ligra_epoch", "gauge", &[]),
        ("ligra_workers", "gauge", &[]),
        ("ligra_queue_capacity", "gauge", &[]),
        ("ligra_queue_depth", "gauge", &[]),
        ("ligra_running_queries", "gauge", &[]),
        ("ligra_inflight_bytes", "gauge", &[]),
        ("ligra_memory_budget_bytes", "gauge", &[]),
        ("ligra_cache_entries", "gauge", &[]),
        ("ligra_queries_submitted_total", "counter", &[]),
        ("ligra_queries_rejected_total", "counter", &[]),
        ("ligra_queries_retired_total", "counter", &["status"]),
        ("ligra_overload_sheds_total", "counter", &[]),
        ("ligra_dispatch_retries_total", "counter", &[]),
        ("ligra_worker_busy_ns_total", "counter", &[]),
        ("ligra_worker_idle_ns_total", "counter", &[]),
        ("ligra_cache_hits_total", "counter", &[]),
        ("ligra_cache_misses_total", "counter", &[]),
        ("ligra_cache_evictions_total", "counter", &[]),
        ("ligra_mutation_overlay_edges", "gauge", &[]),
        ("ligra_mutation_overlay_vertices", "gauge", &[]),
        ("ligra_mutation_batches_applied_total", "counter", &[]),
        ("ligra_mutation_edges_added_total", "counter", &[]),
        ("ligra_mutation_edges_deleted_total", "counter", &[]),
        ("ligra_mutation_compactions_total", "counter", &[]),
        ("ligra_mutation_compaction_failures_total", "counter", &[]),
        ("ligra_mutation_compaction_ns", "histogram", &[]),
        ("ligra_fault_injections_total", "counter", &["point"]),
        ("ligra_wire_requests_total", "counter", &[]),
        ("ligra_wire_bytes_total", "counter", &[]),
        ("ligra_wire_malformed_total", "counter", &[]),
        ("ligra_queue_wait_ns", "histogram", &["query"]),
        ("ligra_run_time_ns", "histogram", &["query"]),
    ];
    let actual: Vec<(&str, &str, &[&str])> =
        FAMILIES.iter().map(|&(name, typ, labels, _help)| (name, typ, labels)).collect();
    assert_eq!(actual, expected, "Prometheus family vocabulary changed");
    for (name, typ, _, help) in FAMILIES {
        assert!(name.starts_with("ligra_"), "{name}: families share the ligra_ namespace");
        assert!(matches!(*typ, "gauge" | "counter" | "histogram"), "{name}: bad type {typ}");
        assert!(!help.is_empty(), "{name}: HELP text is mandatory");
        assert_eq!(
            name.ends_with("_total"),
            *typ == "counter",
            "{name}: counters and only counters end in _total"
        );
    }
}

#[test]
fn router_prometheus_families_are_a_closed_vocabulary() {
    // Same contract as above, for the `ligra-route` scrape endpoint
    // (DESIGN.md §16): the router exports its own family vocabulary,
    // disjoint from the engine's, with per-backend labels.
    use ligra_engine::metrics::{FAMILIES, ROUTE_FAMILIES};

    let expected: &[(&str, &str, &[&str])] = &[
        ("ligra_route_backends", "gauge", &[]),
        ("ligra_route_backend_state", "gauge", &["backend"]),
        ("ligra_route_backend_outstanding", "gauge", &["backend"]),
        ("ligra_route_requests_total", "counter", &[]),
        ("ligra_route_forwarded_total", "counter", &["backend"]),
        ("ligra_route_backend_errors_total", "counter", &["backend"]),
        ("ligra_route_retries_total", "counter", &[]),
        ("ligra_route_failovers_total", "counter", &[]),
        ("ligra_route_sheds_total", "counter", &[]),
        ("ligra_route_probes_total", "counter", &[]),
        ("ligra_route_probe_failures_total", "counter", &[]),
        ("ligra_route_journal_entries", "gauge", &[]),
        ("ligra_route_journal_replayed_total", "counter", &[]),
        ("ligra_route_wire_malformed_total", "counter", &[]),
        ("ligra_route_request_ns", "histogram", &["backend"]),
    ];
    let actual: Vec<(&str, &str, &[&str])> =
        ROUTE_FAMILIES.iter().map(|&(name, typ, labels, _help)| (name, typ, labels)).collect();
    assert_eq!(actual, expected, "router Prometheus family vocabulary changed");
    for (name, typ, _, help) in ROUTE_FAMILIES {
        assert!(name.starts_with("ligra_route_"), "{name}: router families share the namespace");
        assert!(matches!(*typ, "gauge" | "counter" | "histogram"), "{name}: bad type {typ}");
        assert!(!help.is_empty(), "{name}: HELP text is mandatory");
        assert_eq!(
            name.ends_with("_total"),
            *typ == "counter",
            "{name}: counters and only counters end in _total"
        );
        assert!(
            !FAMILIES.iter().any(|(n, _, _, _)| n == name),
            "{name}: router families must not collide with engine families"
        );
    }
}

#[test]
fn prometheus_exposition_reflects_engine_activity() {
    // A scrape taken after real queries must agree with the engine's own
    // snapshot: counter lines carry the snapshot values, and histogram
    // _count/_sum match the bucket math the quantiles are derived from.
    use ligra_engine::metrics::render;
    use ligra_engine::{Engine, EngineConfig, Query, QueryStatus};
    use std::sync::Arc;

    let engine = Engine::new(EngineConfig::default());
    engine.install_graph(Arc::new(grid3d(4)));
    for source in [0, 1, 2, 0] {
        let h = engine.submit(Query::Bfs { source }, None).expect("submit");
        assert_eq!(h.wait(), QueryStatus::Done);
    }

    let snap = engine.metrics_snapshot();
    let text = render(&snap);
    let line = |needle: &str| {
        text.lines().find(|l| l.starts_with(needle)).unwrap_or_else(|| {
            panic!("scrape is missing a {needle:?} line:\n{text}");
        })
    };
    assert_eq!(line("ligra_queries_submitted_total "), "ligra_queries_submitted_total 4");
    assert_eq!(
        line("ligra_queries_retired_total{status=\"done\"}"),
        "ligra_queries_retired_total{status=\"done\"} 4"
    );
    assert_eq!(line("ligra_cache_hits_total "), "ligra_cache_hits_total 1");
    let (_, wait) =
        snap.queue_wait.iter().find(|(kind, _)| *kind == "bfs").expect("bfs queue-wait histogram");
    assert_eq!(
        line("ligra_queue_wait_ns_count{query=\"bfs\"}"),
        format!("ligra_queue_wait_ns_count{{query=\"bfs\"}} {}", wait.count)
    );
    assert_eq!(
        line("ligra_queue_wait_ns_sum{query=\"bfs\"}"),
        format!("ligra_queue_wait_ns_sum{{query=\"bfs\"}} {}", wait.sum)
    );
    // The +Inf bucket is mandatory and cumulative: it equals _count.
    assert!(text.contains(&format!(
        "ligra_queue_wait_ns_bucket{{query=\"bfs\",le=\"+Inf\"}} {}\n",
        wait.count
    )));
}
