//! The batch phase: the paper's app suite, called in-process through the
//! library crates' public functions, on one generated graph.

use crate::spans::{mode_name, SpanLog, SpanRecorder};
use crate::stats::median;
use crate::{Metrics, Workload};
use ligra::{EdgeMapOptions, NoopRecorder, Op, Recorder, RoundStat, VertexSubset};
use ligra_apps as apps;
use ligra_apps::seq;
use ligra_compress::CompressedGraph;
use ligra_engine::PAGERANK_ALPHA;
use ligra_graph::generators::random_weights;
use ligra_graph::{Graph, VertexId, WeightedGraph};
use ligra_parallel::hash::mix64;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// PageRank runs a fixed number of iterations (eps = 0) so every call
/// does the same work.
pub const PAGERANK_ITERS: usize = 10;
/// Largest Bellman-Ford edge weight.
pub const MAX_WEIGHT: i32 = 100;

/// The suite, in the order one iteration calls it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum App {
    Bfs,
    Bc,
    Radii,
    Cc,
    PageRank,
    BellmanFord,
    CompressedBfs,
    CompressedPageRank,
}

impl App {
    pub const ALL: [App; 8] = [
        App::Bfs,
        App::Bc,
        App::Radii,
        App::Cc,
        App::PageRank,
        App::BellmanFord,
        App::CompressedBfs,
        App::CompressedPageRank,
    ];

    /// Metric-name stem: `<name>_s` end to end, `apps.<name>.*` per layer.
    pub fn name(self) -> &'static str {
        match self {
            App::Bfs => "bfs",
            App::Bc => "bc",
            App::Radii => "radii",
            App::Cc => "cc",
            App::PageRank => "pagerank",
            App::BellmanFord => "bellman_ford",
            App::CompressedBfs => "compressed_bfs",
            App::CompressedPageRank => "compressed_pagerank",
        }
    }

    /// Whether the app has a `*_traced` entry point (the compressed apps
    /// take no recorder).
    fn traceable(self) -> bool {
        !matches!(self, App::CompressedBfs | App::CompressedPageRank)
    }
}

/// The generated inputs of one batch phase.
pub struct Inputs {
    pub g: Graph,
    pub wg: WeightedGraph,
    pub cg: CompressedGraph,
    /// Sources of BFS, BC and Bellman-Ford; suite iteration `i` uses
    /// `sources[i % SOURCES]`.
    pub sources: Vec<VertexId>,
    pub radii_seed: u64,
}

/// Set-up durations of one [`setup`] call, in seconds.
pub struct SetupTimes {
    pub generate: f64,
    pub weights: f64,
    pub compress: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.weights + self.compress
    }
}

/// Generates the workload's graph, its weights and its compressed form.
pub fn setup(w: &Workload, seed: u64, log: &mut SpanLog) -> (Inputs, SetupTimes) {
    let trace = format!("setup-batch-{seed}");
    let root = log.open("setup.batch", None, &trace);
    let (g, gen) = log.time("graph.generate", Some(root), &trace, || w.batch_graph.generate(seed));

    let (wg, wts) = log.time("graph.weights", Some(root), &trace, || {
        random_weights(&g, MAX_WEIGHT, mix64(seed ^ 0x5eed))
    });
    let (cg, cmp) =
        log.time("compress.build", Some(root), &trace, || CompressedGraph::from_graph(&g));
    log.close(root);
    let times = SetupTimes {
        generate: log.spans()[gen].duration(),
        weights: log.spans()[wts].duration(),
        compress: log.spans()[cmp].duration(),
    };
    let sources = pick_sources(&g, seed);
    (Inputs { g, wg, cg, sources, radii_seed: mix64(seed ^ 0x7ad11) }, times)
}

/// Distinct sources a run rotates through, so its medians do not hang on
/// one source's luck.
pub const SOURCES: usize = 4;

/// [`SOURCES`] seeded distinct sources among the 16 highest-degree
/// vertices. Hubs sit in the big component, so traversals from any of
/// them do comparable work; a uniform source could land in a tiny
/// component and make the timing a matter of luck.
pub fn pick_sources(g: &Graph, seed: u64) -> Vec<VertexId> {
    let mut by_degree: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    by_degree.truncate(16);
    let mut sources = Vec::with_capacity(SOURCES);
    let mut i = 0;
    while sources.len() < SOURCES.min(by_degree.len()) {
        let v = by_degree[(mix64(seed ^ (0x50c + i)) % by_degree.len() as u64) as usize];
        if !sources.contains(&v) {
            sources.push(v);
        }
        i += 1;
    }
    sources
}

/// One app call's output, kept for checking.
pub enum Output {
    Bfs(apps::BfsResult),
    Bc(apps::BcResult),
    Radii(apps::RadiiResult),
    Cc(apps::CcResult),
    PageRank(apps::PageRankResult),
    BellmanFord(apps::BellmanFordResult),
    CompressedBfs(Vec<u32>),
    CompressedPageRank(Vec<f64>),
}

/// Calls `app` once from source `x.sources[s]`; traceable apps deliver
/// their rounds to `rec`.
pub fn call<R: Recorder>(app: App, x: &Inputs, s: usize, rec: &mut R) -> Output {
    let opts = EdgeMapOptions::default();
    let source = x.sources[s];
    match app {
        App::Bfs => Output::Bfs(apps::bfs_traced(&x.g, source, opts, rec)),
        App::Bc => Output::Bc(apps::bc_traced(&x.g, source, opts, rec)),
        App::Radii => Output::Radii(apps::radii_traced(&x.g, x.radii_seed, opts, rec)),
        App::Cc => Output::Cc(apps::cc_traced(&x.g, opts, rec)),
        App::PageRank => Output::PageRank(apps::pagerank_traced(
            &x.g,
            PAGERANK_ALPHA,
            0.0,
            PAGERANK_ITERS,
            opts,
            rec,
        )),
        App::BellmanFord => {
            Output::BellmanFord(apps::bellman_ford_traced(&x.wg, source, opts, rec))
        }
        App::CompressedBfs => Output::CompressedBfs(ligra_compress::apps::bfs(&x.cg, source).0),
        App::CompressedPageRank => Output::CompressedPageRank(
            ligra_compress::apps::pagerank(&x.cg, PAGERANK_ALPHA, 0.0, PAGERANK_ITERS).0,
        ),
    }
}

/// Sequential reference outputs (`ligra_apps::seq`), computed once.
pub struct References {
    /// Per source: BFS distances, Brandes dependencies, Bellman-Ford
    /// distances.
    per_source: Vec<(Vec<u32>, Vec<f64>, Vec<i64>)>,
    radii: Vec<u32>,
    cc: Vec<u32>,
    pagerank: Vec<f64>,
}

impl References {
    pub fn compute(x: &Inputs) -> Self {
        let per_source = x
            .sources
            .iter()
            .map(|&s| {
                (
                    seq::seq_bfs(&x.g, s).0,
                    seq::seq_brandes(&x.g, s),
                    seq::seq_bellman_ford(&x.wg, s)
                        .expect("positive weights have no negative cycle"),
                )
            })
            .collect();
        References {
            per_source,
            radii: radii_reference(&x.g, &apps::radii::pick_sample(&x.g, x.radii_seed)),
            cc: seq::seq_cc(&x.g),
            pagerank: seq::seq_pagerank(&x.g, PAGERANK_ALPHA, 0.0, PAGERANK_ITERS).0,
        }
    }
}

/// Per-vertex maximum of the sequential BFS distance over the sample.
pub fn radii_reference(g: &Graph, sample: &[VertexId]) -> Vec<u32> {
    let mut expect = vec![u32::MAX; g.num_vertices()];
    for &s in sample {
        let (dist, _) = seq::seq_bfs(g, s);
        for (e, d) in expect.iter_mut().zip(dist) {
            if d != u32::MAX && (*e == u32::MAX || d > *e) {
                *e = d;
            }
        }
    }
    expect
}

/// Checks one output against the references, with the tolerances of the
/// repository's app-vs-reference tests (BC's absolute 1e-8 scaled by the
/// value, since dependency scores here reach 1e5 and more).
pub fn check(app: App, out: &Output, x: &Inputs, s: usize, r: &References) -> Result<(), String> {
    let (source, (bfs_dist, bc, bellman_ford)) = (x.sources[s], &r.per_source[s]);
    let fail =
        |what: String| Err(format!("{} on {} vertices: {what}", app.name(), x.g.num_vertices()));
    match out {
        Output::Bfs(b) => {
            if b.dist != *bfs_dist {
                return fail("distances differ from seq_bfs".into());
            }
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.validate(&x.g, source)))
                .or_else(|_| fail("parent array is not a BFS tree".into()))
        }
        Output::Bc(b) => match first_mismatch(&b.dependencies, bc, |a, e| {
            (a - e).abs() <= 1e-8 * e.abs().max(1.0)
        }) {
            None => Ok(()),
            Some(v) => fail(format!("vertex {v}: {} vs seq_brandes {}", b.dependencies[v], bc[v])),
        },
        Output::Radii(res) => {
            if res.radii != r.radii {
                return fail("radii differ from the multi-BFS reference".into());
            }
            Ok(())
        }
        Output::Cc(c) => {
            if c.label != r.cc {
                return fail("labels differ from seq_cc".into());
            }
            Ok(())
        }
        Output::PageRank(p) => {
            let l1 = l1(&p.rank, &r.pagerank);
            if p.iterations != PAGERANK_ITERS || l1 >= 1e-6 {
                return fail(format!("{} iterations, L1 {l1} from seq_pagerank", p.iterations));
            }
            Ok(())
        }
        Output::BellmanFord(b) => {
            if b.negative_cycle || b.dist != *bellman_ford {
                return fail("distances differ from seq_bellman_ford".into());
            }
            Ok(())
        }
        // The compressed outputs must equal the CSR ones: the same reached
        // set and depths (the parent picked among equals may differ).
        Output::CompressedBfs(parent) => check_parents(parent, &x.g, source, bfs_dist)
            .or_else(|e| fail(format!("differs from CSR BFS: {e}"))),
        Output::CompressedPageRank(rank) => {
            let l1 = l1(rank, &r.pagerank);
            if l1 >= 1e-6 {
                return fail(format!("L1 {l1} from CSR/seq PageRank"));
            }
            Ok(())
        }
    }
}

fn first_mismatch(a: &[f64], b: &[f64], ok: impl Fn(f64, f64) -> bool) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(&x, &y)| !ok(x, y))
}

fn l1(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// `parent` is a BFS tree from `source` with the depths `dist`.
fn check_parents(parent: &[u32], g: &Graph, source: VertexId, dist: &[u32]) -> Result<(), String> {
    if parent.len() != dist.len() {
        return Err("length".into());
    }
    for (v, (&p, &d)) in parent.iter().zip(dist).enumerate() {
        if (p == u32::MAX) != (d == u32::MAX) {
            return Err(format!("vertex {v} reachability"));
        }
        if p == u32::MAX || v == source as usize {
            continue;
        }
        let v32 = v as VertexId;
        if dist[p as usize].wrapping_add(1) != d || !g.in_neighbors(v32).contains(&p) {
            return Err(format!("vertex {v}: parent {p} is not one level up"));
        }
    }
    Ok(())
}

/// Wall time each app gets per suite iteration: an app faster than this
/// is called repeatedly, so fast apps get as many samples as the host's
/// noise needs while slow ones still run every iteration.
const APP_QUANTUM_S: f64 = 0.25;

/// Calls per iteration for an app whose first call took `first` seconds.
fn repeats(first: f64) -> usize {
    ((APP_QUANTUM_S / first.max(1e-6)).ceil() as usize).clamp(1, 16)
}

/// Runs the suite until `window` has passed (and at least `min_iters`
/// times), checking every output; fills the end-to-end metrics.
pub fn run_untraced(
    x: &Inputs,
    window: Duration,
    min_iters: usize,
    m: &mut Metrics,
) -> Result<usize, String> {
    let refs = References::compute(x);
    let mut times: BTreeMap<App, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let (mut iters, mut calls) = (0, 0);
    while iters < min_iters || start.elapsed() < window {
        // An app's calls are spread evenly through the iteration, between
        // the other apps' calls, so a fast app's samples meet the host's
        // slower swings in load instead of one short stretch of them.
        let mut order: Vec<(f64, App)> = App::ALL
            .iter()
            .flat_map(|&app| {
                let reps = times.get(&app).map_or(1, |ts| repeats(ts[0]));
                (0..reps).map(move |k| ((k as f64 + 0.5) / reps as f64, app))
            })
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (_, app) in order {
            let t = Instant::now();
            let out = black_box(call(app, x, iters % SOURCES, &mut NoopRecorder));
            times.entry(app).or_default().push(t.elapsed().as_secs_f64());
            check(app, &out, x, iters % SOURCES, &refs)?;
            calls += 1;
        }
        iters += 1;
    }
    for (app, ts) in &times {
        m.insert(format!("{}_s", app.name()), median(ts), "s");
    }
    Ok(calls)
}

/// Counts summed over the rounds of one traced suite iteration.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    app_rounds: BTreeMap<&'static str, u64>,
    mode_rounds: BTreeMap<&'static str, u64>,
    edges_scanned: u64,
    edges_skipped: u64,
    conversions: u64,
    // Kept out of the exact-repeat check: they depend on thread timing
    // once the pool is parallel.
    cas_attempts: u64,
    cas_wins: u64,
    frontier_bytes: u64,
    scatter_bytes: u64,
}

impl Counts {
    fn add(&mut self, app: App, rounds: &[RoundStat]) {
        let edge_rounds = rounds.iter().filter(|r| r.op == Op::EdgeMap);
        *self.app_rounds.entry(app.name()).or_default() += edge_rounds.clone().count() as u64;
        for r in edge_rounds {
            *self.mode_rounds.entry(mode_name(r.mode)).or_default() += 1;
            self.edges_scanned += r.edges_scanned;
            self.edges_skipped += r.edges_skipped;
            self.conversions += u64::from(r.converted);
            self.cas_attempts += r.cas_attempts;
            self.cas_wins += r.cas_wins;
            self.scatter_bytes += r.scatter_bytes;
        }
        self.frontier_bytes += rounds.iter().map(|r| r.frontier_bytes).sum::<u64>();
    }

    /// The counts that must repeat exactly on a sequential pool.
    fn deterministic(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        (&self.app_rounds, &self.mode_rounds, self.edges_scanned, self.conversions)
    }
}

/// The traced batch phase: each iteration calls every app untraced and
/// then traced (with a span per app call and per round), so tracing
/// overhead is measured under the same conditions. Fills the per-layer
/// metrics of the graph, compress, parallel, core and apps layers.
pub fn run_traced(
    x: &Inputs,
    window: Duration,
    threads: usize,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> Result<usize, String> {
    let refs = References::compute(x);
    let traceable: Vec<App> = App::ALL.into_iter().filter(|a| a.traceable()).collect();
    let mut plain: BTreeMap<App, Vec<f64>> = BTreeMap::new();
    let mut traced: BTreeMap<App, Vec<f64>> = BTreeMap::new();
    let mut self_s: BTreeMap<App, Vec<f64>> = BTreeMap::new();
    let mut mode_time: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut vertex_time: Vec<f64> = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let start = Instant::now();
    let mut calls = 0;
    // Two traced iterations at least, for the exact-repeat check.
    while counts.len() < 2 || start.elapsed() < window {
        let iter = counts.len();
        let (mut c, mut mt, mut vt) = (Counts::default(), BTreeMap::new(), 0.0);
        for app in App::ALL {
            let t = Instant::now();
            let out = black_box(call(app, x, 0, &mut NoopRecorder));
            plain.entry(app).or_default().push(t.elapsed().as_secs_f64());
            check(app, &out, x, 0, &refs)?;
            calls += 1;
            if !app.traceable() {
                continue;
            }
            let trace = format!("batch-{iter}-{}", app.name());
            let root = log.open(&format!("app.{}", app.name()), None, &trace);
            let (out, rounds) = {
                let mut rec = SpanRecorder::new(log, root, &trace);
                let out = black_box(call(app, x, 0, &mut rec));
                (out, rec.rounds)
            };
            log.close(root);
            check(app, &out, x, 0, &refs)?;
            calls += 1;
            traced.entry(app).or_default().push(log.spans()[root].duration());
            c.add(app, &rounds);
            for r in &rounds {
                let secs = r.time_ns as f64 * 1e-9;
                match r.op {
                    Op::EdgeMap => *mt.entry(mode_name(r.mode)).or_insert(0.0) += secs,
                    Op::VertexMap | Op::VertexFilter => vt += secs,
                }
            }
        }
        counts.push(c);
        mode_time.push(mt);
        vertex_time.push(vt);
    }
    for (span, s) in log.spans().iter().zip(log.self_times()) {
        if let Some(a) =
            span.name.strip_prefix("app.").and_then(|n| traceable.iter().find(|a| a.name() == n))
        {
            self_s.entry(*a).or_default().push(s);
        }
    }
    if threads == 1 && counts.windows(2).any(|w| w[0].deterministic() != w[1].deterministic()) {
        return Err(format!(
            "deterministic counts differ between traced iterations on a sequential pool: {:?} vs {:?}",
            counts[0].deterministic(),
            counts[1].deterministic()
        ));
    }

    let c = &counts[0];
    for app in &traceable {
        m.insert(format!("apps.{}.rounds", app.name()), c.app_rounds[app.name()] as f64, "count");
        m.insert(format!("apps.{}.self_s", app.name()), median(&self_s[app]), "s");
    }
    for mode in ["sparse", "dense", "dense_forward", "partitioned"] {
        m.insert(
            format!("edge_map.rounds.{mode}"),
            c.mode_rounds.get(mode).copied().unwrap_or(0) as f64,
            "count",
        );
        let per_iter: Vec<f64> =
            mode_time.iter().map(|t| t.get(mode).copied().unwrap_or(0.0)).collect();
        m.insert(format!("edge_map.time_s.{mode}"), median(&per_iter), "s");
    }
    m.insert("edge_map.edges_scanned", c.edges_scanned as f64, "count");
    m.insert("edge_map.edges_skipped", c.edges_skipped as f64, "count");
    m.insert("edge_map.cas_attempts", c.cas_attempts as f64, "count");
    m.insert("edge_map.cas_wins", c.cas_wins as f64, "count");
    m.insert("edge_map.conversions", c.conversions as f64, "count");
    m.insert("edge_map.frontier_bytes", c.frontier_bytes as f64, "bytes");
    m.insert("edge_map.scatter_bytes", c.scatter_bytes as f64, "bytes");
    m.insert("vertex_map.time_s", median(&vertex_time), "s");

    let sum_medians =
        |t: &BTreeMap<App, Vec<f64>>| traceable.iter().map(|a| median(&t[a])).sum::<f64>();
    m.insert("trace.overhead_ratio", sum_medians(&traced) / sum_medians(&plain), "ratio");
    m.insert("compress.bfs_s", median(&plain[&App::CompressedBfs]), "s");
    m.insert(
        "compress.decode_overhead",
        median(&plain[&App::CompressedBfs]) / median(&plain[&App::Bfs]),
        "ratio",
    );
    Ok(calls)
}

/// Graph, compress and primitive-level measurements of the inputs.
pub fn layer_probes(x: &Inputs, m: &mut Metrics) {
    let n = x.g.num_vertices();
    let arcs = x.g.num_edges();
    m.insert("graph.csr_bytes", ((n + 1) * 8 + arcs * 4) as f64, "bytes");
    let (compressed, _, _) = x.cg.space_vs_csr();
    m.insert("compress.bytes_per_edge", compressed as f64 / arcs.max(1) as f64, "bytes");

    let degrees: Vec<u64> = (0..n).map(|v| x.g.out_degree(v as VertexId) as u64).collect();
    let half: Vec<bool> = (0..n).map(|v| mix64(v as u64) & 1 == 1).collect();
    let half_ids: Vec<VertexId> = ligra_parallel::pack_index(&half);
    m.insert(
        "parallel.prefix_sums_s",
        time_median(|| drop(black_box(ligra_parallel::prefix_sums(&degrees)))),
        "s",
    );
    m.insert(
        "parallel.pack_index_s",
        time_median(|| drop(black_box(ligra_parallel::pack_index(&half)))),
        "s",
    );
    m.insert(
        "vertex_subset.to_sparse_s",
        time_median_setup(
            || VertexSubset::from_dense(n, half.clone()),
            |mut s| {
                s.to_sparse();
                black_box(s);
            },
        ),
        "s",
    );
    m.insert(
        "vertex_subset.to_dense_s",
        time_median_setup(
            || VertexSubset::from_sparse(n, half_ids.clone()),
            |mut s| {
                s.to_dense();
                black_box(s);
            },
        ),
        "s",
    );
}

const PROBE_REPS: usize = 7;

fn time_median(mut f: impl FnMut()) -> f64 {
    time_median_setup(|| (), |()| f())
}

fn time_median_setup<T>(mut make: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let ts: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let input = make();
            let t = Instant::now();
            f(input);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&ts)
}
