//! `ligra-serve`: a JSONL front-end for the concurrent query engine.
//!
//! One request per line, one flat-JSON response per line, over stdin
//! (default) or a localhost TCP socket (`--listen`). A third mode,
//! `--client ADDR`, pumps stdin lines to a running server and prints the
//! responses — a dependency-free smoke client for scripts and CI.
//!
//! ```text
//! ligra-serve [--listen ADDR | --client ADDR] [--metrics-addr ADDR]
//!             [--workers N] [--queue N] [--cache N]
//!             [--memory-budget BYTES]
//!             [--traversal auto|sparse|dense|dense-forward]
//!             [--graph PATH [--directed] [--weighted]]
//!             [--fault SPEC]... [--fault-seed N]
//!             [--drain-deadline-ms N]
//! ```
//!
//! The `shutdown` op (or SIGTERM on unix) stops the server gracefully:
//! new connections are refused, in-flight queries drain up to
//! `--drain-deadline-ms` (default 5000), and the process exits 0 — a
//! clean stop is distinguishable from a crash by exit code.
//!
//! `--metrics-addr` starts a loopback HTTP listener speaking Prometheus
//! text exposition (format 0.0.4) over the engine's metrics registry —
//! `curl http://ADDR/metrics` (any path works) returns the closed
//! family vocabulary pinned in `tests/tests/telemetry.rs`. Setting
//! `LIGRA_TRACE_DIR` makes every executed query write its per-round
//! kernel trace as `query-<trace_id>.jsonl` there; the same `trace_id`
//! appears in `submit`/`poll` responses and span JSONL, joining a
//! serving-tier span to its edgeMap rounds.
//!
//! `--fault point:action[:nth]` arms a deterministic fault (DESIGN.md
//! §11); it is accepted only in builds with the `fault-inject` feature.
//! Malformed, oversized, or non-UTF-8 request lines get an `error`
//! response and the connection keeps serving; they never tear it down.
//!
//! The traversal policy may also come from `LIGRA_TRAVERSAL` (the flag
//! wins). Requests:
//!
//! ```text
//! {"op":"load","path":"g.adj","symmetric":true,"weighted":false}
//! {"op":"gen","family":"rmat","log_n":12,"seed":1,"weighted":false}
//! {"op":"submit","query":"bfs","source":0,"deadline_ms":100,"trace_id":"req-7"}
//! {"op":"poll","id":3}        {"op":"wait","id":3}
//! {"op":"cancel","id":3}      {"op":"span","id":3}
//! {"op":"stats"}              {"op":"trace"}
//! {"op":"metrics"}            {"op":"shutdown"}
//! {"op":"mutate","add":"0-1,2-3","del":"4-5","add_vertices":1,"del_vertices":"7,9"}
//! {"op":"compact"}            {"op":"compact","wait":false}
//! {"op":"graph-stats"}
//! ```
//!
//! `mutate` applies one delta batch (edge lists are comma-separated
//! `u-v` pairs) and publishes the result as a new epoch; in-flight
//! queries finish on the snapshot they started with. `compact` flattens
//! the accumulated overlay into a clean CSR (synchronously by default;
//! `"wait":false` kicks it off in the background); overlays past
//! `--compact-threshold` arcs compact automatically.

use ligra::Traversal;
use ligra_engine::backoff::{retry_after_ms, Backoff};
use ligra_engine::lockdep::tracked_lock;
use ligra_engine::metrics::render;
use ligra_engine::route::{drain_until, install_sigterm_latch, sigterm_received};
use ligra_engine::wire::{read_request_line, MAX_REQUEST_LINE_BYTES};
use ligra_engine::{
    error_response, Engine, EngineConfig, FaultPlan, JsonObj, MetricsRegistry, MutateError,
    MutationConfig, MutationLog, Query, QueryHandle, Request, SubmitError,
};
use ligra_graph::delta::DeltaBatch;
use ligra_graph::generators::{
    erdos_renyi, grid3d, random_local, random_weights, rmat, RmatOptions,
};
use ligra_graph::io::{load_graph, read_weighted_adjacency_graph};
use ligra_graph::Graph;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-process connection book-keeping, reported by the `stats` op.
/// The mutex is a named lock site (`serve.connections`): under the
/// `lock-check` feature its acquisitions feed the runtime lock-order
/// oracle alongside the engine-tier sites, proving the serving loop
/// never nests it against scheduler or mutation locks.
#[derive(Default)]
struct ConnRegistry {
    counts: Mutex<ConnCounts>,
    /// Highest replicated-write seq (`rseq`) applied. `ligra-route`
    /// tags every fanned-out write with its journal seq; a repeat (a
    /// replayed write this replica already applied, e.g. after the
    /// router timed out on a slow response) is acknowledged without
    /// re-applying, keeping replicated writes exactly-once per replica.
    last_rseq: std::sync::atomic::AtomicU64,
}

#[derive(Default, Clone, Copy)]
struct ConnCounts {
    active: u64,
    total: u64,
}

impl ConnRegistry {
    /// Registers a connection; returns its 1-based ordinal.
    fn open(&self) -> u64 {
        let mut c = tracked_lock(&self.counts, "serve.connections");
        c.active += 1;
        c.total += 1;
        c.total
    }

    /// Retires a connection.
    fn close(&self) {
        let mut c = tracked_lock(&self.counts, "serve.connections");
        c.active = c.active.saturating_sub(1);
    }

    /// `(active, total)` right now.
    fn snapshot(&self) -> (u64, u64) {
        let c = tracked_lock(&self.counts, "serve.connections");
        (c.active, c.total)
    }
}

struct Args {
    listen: Option<String>,
    client: Option<String>,
    metrics_addr: Option<String>,
    workers: usize,
    queue: usize,
    cache: usize,
    memory_budget: Option<u64>,
    traversal: Traversal,
    graph: Option<String>,
    symmetric: bool,
    weighted: bool,
    fault_specs: Vec<String>,
    fault_seed: u64,
    compact_threshold: Option<u64>,
    drain_deadline: Duration,
}

/// Operator-facing fatal error: report and exit instead of panicking
/// (lint L6 bans panics across the engine crate, binaries included).
fn fatal(msg: &str) -> ! {
    eprintln!("ligra-serve: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: ligra-serve [--listen ADDR | --client ADDR] [--metrics-addr ADDR] \
         [--workers N] [--queue N] [--cache N] [--memory-budget BYTES] [--traversal POLICY] \
         [--graph PATH [--directed] [--weighted]] [--fault SPEC]... [--fault-seed N] \
         [--compact-threshold ARCS] [--drain-deadline-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        client: None,
        metrics_addr: None,
        workers: 2,
        queue: 64,
        cache: 32,
        memory_budget: None,
        traversal: std::env::var("LIGRA_TRAVERSAL")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(Traversal::Auto),
        graph: None,
        symmetric: true,
        weighted: false,
        fault_specs: Vec::new(),
        fault_seed: 1,
        compact_threshold: MutationConfig::default().compact_threshold,
        drain_deadline: Duration::from_millis(5_000),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| fatal(&format!("{name} needs a value")));
        fn parsed<T: std::str::FromStr>(name: &str, raw: &str) -> T {
            raw.parse().unwrap_or_else(|_| fatal(&format!("{name}: cannot parse {raw:?}")))
        }
        match a.as_str() {
            "--listen" => args.listen = Some(value("--listen")),
            "--client" => args.client = Some(value("--client")),
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")),
            "--workers" => args.workers = parsed("--workers", &value("--workers")),
            "--queue" => args.queue = parsed("--queue", &value("--queue")),
            "--cache" => args.cache = parsed("--cache", &value("--cache")),
            "--memory-budget" => {
                args.memory_budget = Some(parsed("--memory-budget", &value("--memory-budget")))
            }
            "--traversal" => args.traversal = parsed("--traversal", &value("--traversal")),
            "--graph" => args.graph = Some(value("--graph")),
            "--directed" => args.symmetric = false,
            "--weighted" => args.weighted = true,
            "--fault" => args.fault_specs.push(value("--fault")),
            "--fault-seed" => args.fault_seed = parsed("--fault-seed", &value("--fault-seed")),
            "--compact-threshold" => {
                // 0 disables auto-compaction (explicit `compact` still works).
                let arcs: u64 = parsed("--compact-threshold", &value("--compact-threshold"));
                args.compact_threshold = (arcs > 0).then_some(arcs);
            }
            "--drain-deadline-ms" => {
                args.drain_deadline = Duration::from_millis(parsed(
                    "--drain-deadline-ms",
                    &value("--drain-deadline-ms"),
                ));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.listen.is_some() && args.client.is_some() {
        eprintln!("--listen and --client are mutually exclusive");
        usage();
    }
    args
}

/// Replicated-write dedup: when the request carries an `rseq` tag at
/// or below the highest successfully applied, answer `duplicate` with
/// the current epoch instead of re-applying; otherwise run `apply` and
/// advance the cursor only if it succeeded (a failed write must stay
/// replayable). Router writes arrive from one serializer thread, so a
/// plain load/store pair is race-free here.
fn replicated_write<F>(
    req: &Request,
    engine: &Engine,
    conns: &ConnRegistry,
    apply: F,
) -> Result<String, String>
where
    F: FnOnce() -> Result<String, String>,
{
    use std::sync::atomic::Ordering;
    let rseq = req.u64_or("rseq", 0).unwrap_or(0);
    if rseq > 0 && rseq <= conns.last_rseq.load(Ordering::Acquire) {
        return Ok(JsonObj::new()
            .bool("ok", true)
            .u64("epoch", engine.stats().epoch.unwrap_or(0))
            .bool("duplicate", true)
            .u64("rseq", rseq)
            .finish());
    }
    let resp = apply();
    if rseq > 0 {
        if let Ok(r) = &resp {
            if r.contains("\"ok\":true") {
                conns.last_rseq.store(rseq, Ordering::Release);
            }
        }
    }
    resp
}

fn load_into(engine: &Engine, path: &str, symmetric: bool, weighted: bool) -> Result<u64, String> {
    // The `graph.load` fault point guards the serve-side load path: an
    // injected error (or contained panic) becomes a load failure the
    // client sees, never a dead connection.
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = engine.fault_plan() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        match catch_unwind(AssertUnwindSafe(|| plan.check(ligra::FaultPoint::GraphLoad))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(e.to_string()),
            Err(payload) => {
                return Err(ligra_engine::error::classify_panic(payload.as_ref()).to_string())
            }
        }
    }
    if weighted {
        let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let g = read_weighted_adjacency_graph(file, symmetric).map_err(|e| e.to_string())?;
        Ok(engine.install_weighted(Arc::new(g)))
    } else {
        let g = load_graph(path, symmetric).map_err(|e| e.to_string())?;
        Ok(engine.install_graph(Arc::new(g)))
    }
}

/// Narrows a request-supplied integer, reporting (not panicking on) overflow.
fn to_u32(x: u64, field: &str) -> Result<u32, String> {
    u32::try_from(x).map_err(|_| format!("{field} {x} exceeds u32 range"))
}

fn generate(req: &Request) -> Result<Graph, String> {
    let seed = req.u64_or("seed", 1)?;
    match req.str("family")? {
        "rmat" => {
            let log_n = to_u32(req.u64_or("log_n", 12)?, "log_n")?;
            // Without a `seed` field the paper's own seed applies, so an
            // unseeded `gen` keeps producing the same graph.
            let paper = RmatOptions::paper(log_n);
            Ok(rmat(&RmatOptions { seed: req.u64_or("seed", paper.seed)?, ..paper }))
        }
        "grid3d" => {
            let side = req.u64_or("side", 16)? as usize;
            Ok(grid3d(side))
        }
        "random-local" | "random_local" => {
            let n = req.u64_or("n", 10_000)? as usize;
            let deg = req.u64_or("deg", 8)? as usize;
            Ok(random_local(n, deg, seed))
        }
        "erdos-renyi" | "er" => {
            let n = req.u64_or("n", 10_000)? as usize;
            let m = req.u64_or("m", 50_000)? as usize;
            Ok(erdos_renyi(n, m, seed, true))
        }
        other => Err(format!("unknown family {other:?} (rmat|grid3d|random-local|erdos-renyi)")),
    }
}

fn query_from(req: &Request) -> Result<Query, String> {
    let source = to_u32(req.u64_or("source", 0)?, "source")?;
    let seed = req.u64_or("seed", 1)?;
    match req.str("query")? {
        "bfs" => Ok(Query::Bfs { source }),
        "bc" => Ok(Query::Bc { source }),
        "cc" => Ok(Query::Cc),
        "pagerank" => {
            Ok(Query::PageRank { iters: to_u32(req.u64_or("max_iters", 20)?, "max_iters")? })
        }
        "radii" => Ok(Query::Radii { seed }),
        "bellman-ford" | "bellman_ford" => Ok(Query::BellmanFord { source }),
        "kcore" | "k-core" => Ok(Query::KCore),
        "mis" => Ok(Query::Mis { seed }),
        other => Err(format!(
            "unknown query {other:?} (bfs|bc|cc|pagerank|radii|bellman-ford|kcore|mis)"
        )),
    }
}

fn graph_response(epoch: u64) -> String {
    JsonObj::new().bool("ok", true).u64("epoch", epoch).finish()
}

/// Parses a comma-separated `u-v` edge list (the wire format is flat
/// JSON, so edge lists ride in a string field).
fn parse_edge_list(s: &str) -> Result<Vec<(u32, u32)>, String> {
    let mut out = Vec::new();
    for pair in s.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (u, v) =
            pair.split_once('-').ok_or_else(|| format!("edge {pair:?}: expected \"u-v\""))?;
        let parse = |raw: &str| -> Result<u32, String> {
            raw.trim().parse().map_err(|_| format!("edge {pair:?}: bad vertex id {raw:?}"))
        };
        out.push((parse(u)?, parse(v)?));
    }
    Ok(out)
}

/// Parses a comma-separated vertex-id list.
fn parse_vertex_list(s: &str) -> Result<Vec<u32>, String> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().map_err(|_| format!("bad vertex id {t:?}")))
        .collect()
}

fn batch_from(req: &Request) -> Result<DeltaBatch, String> {
    let mut batch = DeltaBatch::new();
    batch.add_vertices = req.u64_or("add_vertices", 0)? as usize;
    if req.get("add").is_some() {
        batch.add_edges = parse_edge_list(req.str("add")?)?;
    }
    if req.get("del").is_some() {
        batch.del_edges = parse_edge_list(req.str("del")?)?;
    }
    if req.get("del_vertices").is_some() {
        batch.del_vertices = parse_vertex_list(req.str("del_vertices")?)?;
    }
    if batch.is_empty() {
        return Err("empty mutation: provide add, del, add_vertices, or del_vertices".to_string());
    }
    Ok(batch)
}

/// Renders a mutation/compaction failure; transient ones carry
/// `"transient":true` (and a retry hint when the engine has one) so the
/// built-in client's backoff loop handles them like overload sheds.
fn mutate_error_response(e: &MutateError) -> String {
    let mut obj = JsonObj::new()
        .bool("ok", false)
        .str("error", &e.to_string())
        .bool("transient", e.is_transient());
    if let MutateError::Overloaded { retry_after } = e {
        obj = obj.u64("retry_after_ms", u64::try_from(retry_after.as_millis()).unwrap_or(u64::MAX));
    }
    obj.finish()
}

fn mutate_response(log: &Arc<MutationLog>, req: &Request) -> Result<String, String> {
    let batch = batch_from(req)?;
    match log.apply(&batch) {
        Ok(r) => Ok(JsonObj::new()
            .bool("ok", true)
            .u64("epoch", r.epoch)
            .u64("arcs_added", r.arcs_added)
            .u64("arcs_deleted", r.arcs_deleted)
            .u64("vertices_added", r.vertices_added)
            .u64("vertices_deleted", r.vertices_deleted)
            .u64("overlay_edges", r.overlay_arcs)
            .u64("overlay_vertices", r.overlay_vertices)
            .bool("compaction_started", r.compaction_started)
            .finish()),
        Err(e) => Ok(mutate_error_response(&e)),
    }
}

fn compact_response(log: &Arc<MutationLog>, req: &Request) -> Result<String, String> {
    if !req.bool_or("wait", true)? {
        let started = log.compact_async();
        return Ok(JsonObj::new().bool("ok", true).bool("started", started).finish());
    }
    match log.compact() {
        Ok(r) => Ok(JsonObj::new()
            .bool("ok", true)
            .u64("epoch", r.epoch)
            .u64("compact_ms", u64::try_from(r.duration.as_millis()).unwrap_or(u64::MAX))
            .u64("edges", r.edges)
            .u64("reapplied_batches", r.reapplied_batches as u64)
            .finish()),
        Err(e) => Ok(mutate_error_response(&e)),
    }
}

fn graph_stats_response(engine: &Engine, log: &Arc<MutationLog>) -> String {
    let status = log.status();
    let m = engine.metrics();
    let mut obj = JsonObj::new().bool("ok", true);
    match engine.current_snapshot() {
        None => obj = obj.u64("epoch", 0).bool("loaded", false),
        Some(snap) => {
            let g = snap.graph();
            obj = obj
                .u64("epoch", snap.epoch())
                .bool("loaded", true)
                .u64("vertices", g.num_vertices() as u64)
                .u64("edges", g.num_edges() as u64)
                .bool("symmetric", g.is_symmetric())
                .bool("has_overlay", g.has_overlay())
                .u64("overlay_edges", g.overlay_arcs())
                .u64("overlay_vertices", g.overlay_vertices());
        }
    }
    obj.u64("pending_batches", status.pending_batches as u64)
        .bool("compacting", status.compacting)
        .u64("derived_epoch", status.derived_epoch)
        .u64("compactions", m.mutation_compactions.get())
        .u64("compaction_failures", m.mutation_compaction_failures.get())
        .finish()
}

fn status_response(h: &QueryHandle) -> JsonObj {
    let status = h.status();
    let mut obj = JsonObj::new()
        .bool("ok", true)
        .u64("id", h.id())
        .str("trace_id", h.trace_id())
        .str("status", status.name());
    if let Some(span) = h.span() {
        obj = obj.bool("cache_hit", span.cache_hit).u64("edge_map_rounds", span.rounds);
    }
    if let Some(result) = h.result() {
        for (k, v) in result.summary() {
            // Summaries are numbers or bools rendered as strings; emit
            // numeric-looking ones raw so clients get real numbers.
            obj = if v.parse::<f64>().is_ok() || v == "true" || v == "false" {
                obj.raw(k, &v)
            } else {
                obj.str(k, &v)
            };
        }
    }
    if let Some(err) = h.query_error() {
        obj = obj.str("error", &err.to_string()).bool("transient", err.is_transient());
    }
    obj
}

fn span_response(engine: &Engine, id: u64) -> String {
    match engine.span(id) {
        None => error_response(&format!("no finished span for id {id}")),
        Some(s) => JsonObj::new()
            .bool("ok", true)
            .u64("id", s.id)
            .str("trace_id", &s.trace_id)
            .str("query", &s.query)
            .u64("epoch", s.epoch)
            .str("status", s.status.name())
            .bool("cache_hit", s.cache_hit)
            .u64("queue_wait_ns", s.queue_wait_ns)
            .u64("queue_wait_bucket", s.queue_wait_bucket)
            .u64("run_ns", s.run_ns)
            .u64("run_bucket", s.run_bucket)
            .u64("rounds", s.rounds)
            .u64("events", s.events)
            .u64("retries", s.retries)
            .finish(),
    }
}

fn stats_response(engine: &Engine, conns: &ConnRegistry) -> String {
    let s = engine.stats();
    let (conn_active, conn_total) = conns.snapshot();
    JsonObj::new()
        .bool("ok", true)
        .u64("epoch", s.epoch.unwrap_or(0))
        .u64("queued", s.queued as u64)
        .u64("running", s.running)
        .u64("submitted", s.submitted)
        .u64("rejected", s.rejected)
        .u64("completed", s.completed)
        .u64("cancelled", s.cancelled)
        .u64("failed", s.failed)
        .u64("sheds", s.sheds)
        .u64("panics", s.panics)
        .u64("retries", s.retries)
        .u64("queue_deadline_sheds", s.queue_deadline_sheds)
        .u64("inflight_bytes", s.inflight_bytes)
        .u64("cache_hits", s.cache_hits)
        .u64("cache_misses", s.cache_misses)
        .u64("cache_evictions", s.cache_evictions)
        .u64("cache_len", s.cache_len as u64)
        .u64("queue_wait_p50_ns", s.queue_wait_p50_ns)
        .u64("queue_wait_p95_ns", s.queue_wait_p95_ns)
        .u64("queue_wait_p99_ns", s.queue_wait_p99_ns)
        .u64("queue_wait_max_ns", s.queue_wait_max_ns)
        .u64("run_p50_ns", s.run_p50_ns)
        .u64("run_p95_ns", s.run_p95_ns)
        .u64("run_p99_ns", s.run_p99_ns)
        .u64("run_max_ns", s.run_max_ns)
        .u64("mutation_batches", s.mutation_batches)
        .u64("mutation_edges_added", s.mutation_edges_added)
        .u64("mutation_edges_deleted", s.mutation_edges_deleted)
        .u64("overlay_edges", s.overlay_edges)
        .u64("overlay_vertices", s.overlay_vertices)
        .u64("compactions", s.compactions)
        .u64("compaction_failures", s.compaction_failures)
        .u64("workers", engine.workers() as u64)
        .u64("queue_capacity", engine.queue_capacity() as u64)
        .u64("connections_active", conn_active)
        .u64("connections_total", conn_total)
        .finish()
}

/// The `metrics` op: the full metrics snapshot as one flat JSON object —
/// scalar counters/gauges, merged histogram quantiles, and per-point
/// fault-injection counts (`fault_<point>` with dots underscored). The
/// same snapshot the Prometheus exposition renders, in JSONL clothing.
fn metrics_response(engine: &Engine) -> String {
    let m = engine.metrics_snapshot();
    let qw = m.merged_queue_wait();
    let rt = m.merged_run_time();
    let mut obj = JsonObj::new()
        .bool("ok", true)
        .u64("epoch", m.epoch)
        .u64("workers", m.workers)
        .u64("queue_capacity", m.queue_capacity)
        .u64("queue_depth", m.queue_depth)
        .u64("running", m.running)
        .u64("inflight_bytes", m.inflight_bytes)
        .u64("memory_budget_bytes", m.memory_budget_bytes)
        .u64("submitted", m.submitted)
        .u64("rejected", m.rejected)
        .u64("overload_sheds", m.overload_sheds)
        .u64("retired_done", m.retired[0])
        .u64("retired_cancelled", m.retired[1])
        .u64("retired_failed", m.retired[2])
        .u64("retired_panicked", m.retired[3])
        .u64("retired_shed", m.retired[4])
        .u64("retries", m.retries)
        .u64("worker_busy_ns", m.worker_busy_ns)
        .u64("worker_idle_ns", m.worker_idle_ns)
        .u64("cache_hits", m.cache_hits)
        .u64("cache_misses", m.cache_misses)
        .u64("cache_evictions", m.cache_evictions)
        .u64("cache_entries", m.cache_entries)
        .u64("mutation_batches", m.mutation_batches)
        .u64("mutation_edges_added", m.mutation_edges_added)
        .u64("mutation_edges_deleted", m.mutation_edges_deleted)
        .u64("mutation_overlay_edges", m.mutation_overlay_edges)
        .u64("mutation_overlay_vertices", m.mutation_overlay_vertices)
        .u64("mutation_compactions", m.mutation_compactions)
        .u64("mutation_compaction_failures", m.mutation_compaction_failures)
        .u64("mutation_compact_count", m.mutation_compact_time.count)
        .u64("mutation_compact_p50_ns", m.mutation_compact_time.p50())
        .u64("mutation_compact_max_ns", m.mutation_compact_time.max)
        .u64("wire_requests", m.wire_requests)
        .u64("wire_bytes", m.wire_bytes)
        .u64("wire_malformed", m.wire_malformed)
        .u64("queue_wait_count", qw.count)
        .u64("queue_wait_p50_ns", qw.p50())
        .u64("queue_wait_p95_ns", qw.p95())
        .u64("queue_wait_p99_ns", qw.p99())
        .u64("queue_wait_max_ns", qw.max)
        .u64("run_count", rt.count)
        .u64("run_p50_ns", rt.p50())
        .u64("run_p95_ns", rt.p95())
        .u64("run_p99_ns", rt.p99())
        .u64("run_max_ns", rt.max);
    for (point, fired) in &m.fault_injections {
        obj = obj.u64(&format!("fault_{}", point.replace('.', "_")), *fired);
    }
    obj.finish()
}

fn trace_response(engine: &Engine) -> String {
    let spans = engine.spans();
    let mut arr = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        arr.push_str(&ligra_engine::span::span_to_json(s));
    }
    arr.push(']');
    JsonObj::new().bool("ok", true).u64("spans", spans.len() as u64).raw("trace", &arr).finish()
}

/// Handles one request line; the bool is "keep serving".
fn handle_line(
    engine: &Engine,
    log: &Arc<MutationLog>,
    metrics: &MetricsRegistry,
    conns: &ConnRegistry,
    line: &str,
) -> (String, bool) {
    let req = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            metrics.wire_malformed.incr();
            return (error_response(&e), true);
        }
    };
    let op = match req.str("op") {
        Ok(op) => op,
        Err(e) => {
            metrics.wire_malformed.incr();
            return (error_response(&e), true);
        }
    };
    let resp = match op {
        "load" => replicated_write(&req, engine, conns, || {
            let path = req.str("path")?;
            let symmetric = req.bool_or("symmetric", true)?;
            let weighted = req.bool_or("weighted", false)?;
            load_into(engine, path, symmetric, weighted).map(graph_response)
        }),
        "gen" => replicated_write(&req, engine, conns, || {
            let g = generate(&req)?;
            let (n, m) = (g.num_vertices(), g.num_edges());
            let epoch = if req.bool_or("weighted", false)? {
                let max_w = req.u64_or("max_w", 20)? as i32;
                let wg = random_weights(&g, max_w, req.u64_or("seed", 1)?);
                engine.install_weighted(Arc::new(wg))
            } else {
                engine.install_graph(Arc::new(g))
            };
            Ok(JsonObj::new()
                .bool("ok", true)
                .u64("epoch", epoch)
                .u64("vertices", n as u64)
                .u64("edges", m as u64)
                .finish())
        }),
        "submit" => (|| {
            let query = query_from(&req)?;
            let deadline = match req.get("deadline_ms") {
                None => None,
                Some(_) => Some(Duration::from_millis(req.u64_or("deadline_ms", 0)?)),
            };
            let trace_id = match req.get("trace_id") {
                None => None,
                Some(_) => Some(req.str("trace_id")?.to_string()),
            };
            match engine.submit_traced(query, deadline, trace_id) {
                Ok(h) => Ok(status_response(&h).finish()),
                Err(SubmitError::QueueFull) => Ok(JsonObj::new()
                    .bool("ok", false)
                    .str("error", "queue full")
                    .bool("transient", true)
                    .finish()),
                Err(SubmitError::Overloaded { retry_after }) => Ok(JsonObj::new()
                    .bool("ok", false)
                    .str("error", "engine overloaded")
                    .bool("transient", true)
                    .u64(
                        "retry_after_ms",
                        u64::try_from(retry_after.as_millis()).unwrap_or(u64::MAX),
                    )
                    .finish()),
                Err(SubmitError::NoGraph) => Err("no graph installed".to_string()),
            }
        })(),
        "poll" | "wait" | "cancel" => (|| {
            let id = req.u64_or("id", 0)?;
            let h = engine.handle(id).ok_or_else(|| format!("unknown id {id}"))?;
            match op {
                "cancel" => h.cancel(),
                "wait" => {
                    let _ = h.wait();
                }
                _ => {}
            }
            Ok(status_response(&h).finish())
        })(),
        "span" => Ok(span_response(engine, req.u64_or("id", 0).unwrap_or(0))),
        "mutate" => replicated_write(&req, engine, conns, || mutate_response(log, &req)),
        "compact" => replicated_write(&req, engine, conns, || compact_response(log, &req)),
        "graph-stats" | "graph_stats" => Ok(graph_stats_response(engine, log)),
        "stats" => Ok(stats_response(engine, conns)),
        "metrics" => Ok(metrics_response(engine)),
        "trace" => Ok(trace_response(engine)),
        "ping" => Ok(JsonObj::new().bool("ok", true).str("pong", "ligra-serve").finish()),
        "shutdown" => {
            return (JsonObj::new().bool("ok", true).str("status", "shutting-down").finish(), false)
        }
        other => Err(format!("unknown op {other:?}")),
    };
    (resp.unwrap_or_else(|e| error_response(&e)), true)
}

/// Checks the `wire.read` fault point; a contained injection becomes an
/// error-response line, never a torn-down connection. The response is
/// flagged `"transient":true` — the fault plan is hit-scheduled, so a
/// retried request lands on a fresh hit and normally succeeds.
#[cfg(feature = "fault-inject")]
fn wire_fault(engine: &Engine) -> Option<String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let plan = engine.fault_plan()?;
    let msg = match catch_unwind(AssertUnwindSafe(|| plan.check(ligra::FaultPoint::WireRead))) {
        Ok(Ok(())) => return None,
        Ok(Err(e)) => e.to_string(),
        Err(payload) => ligra_engine::error::classify_panic(payload.as_ref()).to_string(),
    };
    Some(JsonObj::new().bool("ok", false).str("error", &msg).bool("transient", true).finish())
}

fn serve_stream<R: BufRead, W: Write>(
    engine: &Engine,
    log: &Arc<MutationLog>,
    conns: &ConnRegistry,
    mut reader: R,
    mut writer: W,
) -> bool {
    conns.open();
    let metrics = engine.metrics();
    loop {
        let line = match read_request_line(&mut reader, MAX_REQUEST_LINE_BYTES) {
            Ok(None) => break, // clean EOF
            Err(_) => break,   // transport failure; nothing to answer on
            Ok(Some(Err(e))) => {
                // Oversized or non-UTF-8 line: answer and keep serving.
                metrics.wire_requests.incr();
                metrics.wire_malformed.incr();
                if write_response(&mut writer, &error_response(&e)).is_err() {
                    break;
                }
                continue;
            }
            Ok(Some(Ok(l))) => l,
        };
        // Count the newline the reader consumed along with the line.
        metrics.wire_bytes.add(line.len() as u64 + 1);
        if line.trim().is_empty() {
            continue;
        }
        metrics.wire_requests.incr();
        #[cfg(feature = "fault-inject")]
        if let Some(resp) = wire_fault(engine) {
            if write_response(&mut writer, &resp).is_err() {
                break;
            }
            continue;
        }
        let (resp, keep_going) = handle_line(engine, log, &metrics, conns, &line);
        if write_response(&mut writer, &resp).is_err() {
            break;
        }
        if !keep_going {
            conns.close();
            return false;
        }
    }
    conns.close();
    true
}

fn write_response<W: Write>(writer: &mut W, resp: &str) -> std::io::Result<()> {
    writeln!(writer, "{resp}").and_then(|()| writer.flush())
}

/// Answers one Prometheus scrape: drains the request head (the path is
/// ignored — this endpoint serves exactly one document), then writes
/// the exposition with HTTP/1.0 framing and closes.
fn answer_scrape(engine: &Engine, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?; // request line
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let body = render(&engine.metrics_snapshot());
    let mut w = BufWriter::new(stream);
    write!(
        w,
        "HTTP/1.0 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{}",
        body.len(),
        body
    )?;
    w.flush()
}

/// Binds the metrics listener (fatal on failure — an operator who asked
/// for metrics should not silently run without them) and serves scrapes
/// on background threads.
fn spawn_metrics_listener(engine: Arc<Engine>, addr: &str) {
    let listener = TcpListener::bind(addr)
        .unwrap_or_else(|e| fatal(&format!("bind metrics addr {addr}: {e}")));
    match listener.local_addr() {
        Ok(a) => eprintln!("ligra-serve: metrics on http://{a}/metrics"),
        Err(_) => eprintln!("ligra-serve: metrics listener bound"),
    }
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                if let Err(e) = answer_scrape(&engine, stream) {
                    eprintln!("ligra-serve: metrics scrape: {e}");
                }
            });
        }
    });
}

/// Client-side retry budget for responses flagged `"transient":true`
/// (overload sheds, queue-full, injected transient faults).
const CLIENT_RETRIES: u32 = 3;

fn run_client(addr: &str) {
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| fatal(&format!("connect {addr}: {e}")));
    let mut reader =
        BufReader::new(stream.try_clone().unwrap_or_else(|e| fatal(&format!("clone stream: {e}"))));
    let mut writer = BufWriter::new(stream);
    let stdin = std::io::stdin();
    for (line_no, line) in stdin.lock().lines().enumerate() {
        let line = line.unwrap_or_else(|e| fatal(&format!("read stdin: {e}")));
        if line.trim().is_empty() {
            continue;
        }
        let mut attempt = 0u32;
        loop {
            if writeln!(writer, "{line}").and_then(|()| writer.flush()).is_err() {
                fatal("send request: connection lost");
            }
            let mut resp = String::new();
            match reader.read_line(&mut resp) {
                Err(e) => fatal(&format!("read response: {e}")),
                Ok(0) => return,
                Ok(_) => {}
            }
            // Transient shed (overload, queue-full, injected fault):
            // honor the server's retry-after hint when present, else
            // the shared jittered exponential backoff schedule
            // (`ligra_engine::backoff`), up to the retry budget.
            if resp.contains("\"transient\":true") && attempt < CLIENT_RETRIES {
                let delay = Backoff::serve_client(line_no as u64)
                    .delay_with_hint(attempt, retry_after_ms(&resp));
                attempt += 1;
                eprintln!(
                    "ligra-serve: transient failure, retry {attempt}/{CLIENT_RETRIES} \
                     in {} ms",
                    delay.as_millis()
                );
                std::thread::sleep(delay);
                continue;
            }
            print!("{resp}");
            break;
        }
    }
}

/// Graceful stop (DESIGN.md §16): flip the accept-gate, wait for the
/// scheduler to go quiet (nothing queued, nothing running) up to the
/// drain deadline, then exit 0 — so chaos scripts can tell a clean
/// stop from a crash by the exit code alone. Queries still running at
/// the deadline are abandoned with a warning rather than blocking the
/// stop forever.
fn drain_and_exit(engine: &Engine, deadline: Duration) -> ! {
    SHUTTING_DOWN.store(true, std::sync::atomic::Ordering::Release);
    eprintln!("ligra-serve: draining in-flight queries (deadline {} ms)", deadline.as_millis());
    let drained = drain_until(
        || {
            let s = engine.stats();
            s.queued == 0 && s.running == 0
        },
        deadline,
    );
    if drained {
        eprintln!("ligra-serve: drained; exiting");
    } else {
        eprintln!("ligra-serve: drain deadline hit with queries still in flight; exiting");
    }
    std::process::exit(0);
}

/// Accept-gate for graceful shutdown: once set, newly accepted
/// connections are dropped unanswered while the drain completes.
static SHUTTING_DOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Builds the engine's fault plan from `--fault` specs. The flag is
/// rejected at startup when the hooks are compiled out, so an operator
/// can't arm faults that would silently never fire.
fn build_fault_plan(args: &Args) -> Result<Option<Arc<FaultPlan>>, String> {
    if args.fault_specs.is_empty() {
        return Ok(None);
    }
    if !cfg!(feature = "fault-inject") {
        return Err(
            "--fault requires a ligra-serve build with the fault-inject feature".to_string()
        );
    }
    let mut plan = FaultPlan::seeded(args.fault_seed);
    for spec in &args.fault_specs {
        plan = plan.arm_spec(spec).map_err(|e| format!("--fault {spec:?}: {e}"))?;
    }
    Ok(Some(Arc::new(plan)))
}

fn main() {
    let args = parse_args();
    if let Some(addr) = &args.client {
        run_client(addr);
        return;
    }

    let fault = match build_fault_plan(&args) {
        Ok(f) => f,
        Err(e) => fatal(&e),
    };
    let trace_dir = std::env::var("LIGRA_TRACE_DIR").ok().map(std::path::PathBuf::from);
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fatal(&format!("create LIGRA_TRACE_DIR {}: {e}", dir.display()));
        }
        eprintln!("ligra-serve: writing kernel traces to {}", dir.display());
    }
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        cache_capacity: args.cache,
        default_deadline: None,
        traversal: args.traversal,
        memory_budget: args.memory_budget,
        fault,
        trace_dir,
    }));
    let log = Arc::new(MutationLog::new(
        Arc::clone(&engine),
        MutationConfig { compact_threshold: args.compact_threshold },
    ));
    let conns = Arc::new(ConnRegistry::default());
    if let Some(addr) = &args.metrics_addr {
        spawn_metrics_listener(Arc::clone(&engine), addr);
    }
    if let Some(path) = &args.graph {
        let epoch = load_into(&engine, path, args.symmetric, args.weighted)
            .unwrap_or_else(|e| fatal(&format!("preload {path}: {e}")));
        eprintln!("ligra-serve: loaded {path} at epoch {epoch}");
    }

    // SIGTERM gets the same drain-then-exit-0 treatment as the
    // `shutdown` wire op: a watcher thread polls the async-signal-safe
    // latch, so chaos scripts can `kill` for a clean stop and `kill
    // -9` for a crash.
    install_sigterm_latch();
    {
        let engine = Arc::clone(&engine);
        let deadline = args.drain_deadline;
        std::thread::spawn(move || loop {
            if sigterm_received() {
                eprintln!("ligra-serve: SIGTERM received");
                drain_and_exit(&engine, deadline);
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }

    match &args.listen {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let keep = serve_stream(&engine, &log, &conns, stdin.lock(), stdout.lock());
            if !keep {
                drain_and_exit(&engine, args.drain_deadline);
            }
        }
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).unwrap_or_else(|e| fatal(&format!("bind {addr}: {e}")));
            eprintln!(
                "ligra-serve: listening on {}",
                listener.local_addr().expect("bound listener has a local addr")
            );
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                if SHUTTING_DOWN.load(std::sync::atomic::Ordering::Acquire) {
                    // Draining: acknowledge nothing, accept no new work.
                    drop(stream);
                    continue;
                }
                let engine = Arc::clone(&engine);
                let log = Arc::clone(&log);
                let conns = Arc::clone(&conns);
                let deadline = args.drain_deadline;
                std::thread::spawn(move || {
                    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let keep = serve_stream(&engine, &log, &conns, reader, BufWriter::new(stream));
                    if !keep {
                        // `shutdown` was acknowledged and flushed; stop
                        // accepting, drain in-flight queries, exit 0.
                        drain_and_exit(&engine, deadline);
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(line: &str) -> Graph {
        generate(&Request::parse(line).expect("valid request")).expect("generated graph")
    }

    fn arcs(g: &Graph) -> Vec<Vec<u32>> {
        (0..g.num_vertices() as u32).map(|v| g.out_neighbors(v).to_vec()).collect()
    }

    #[test]
    fn rmat_gen_honors_the_seed() {
        let seeded = |seed: u64| {
            arcs(&gen(&format!(r#"{{"op":"gen","family":"rmat","log_n":8,"seed":{seed}}}"#)))
        };
        assert_eq!(seeded(3), seeded(3), "same seed, same graph");
        assert_ne!(seeded(3), seeded(4), "different seeds, different graphs");
        // An unseeded request keeps the paper's default graph.
        let unseeded = arcs(&gen(r#"{"op":"gen","family":"rmat","log_n":8}"#));
        assert_eq!(unseeded, arcs(&rmat(&RmatOptions::paper(8))));
    }
}
