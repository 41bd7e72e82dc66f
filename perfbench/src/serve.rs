//! The serve phase: one `ligra-serve --listen` child driven over its
//! JSONL protocol by a closed loop of client connections, then checked
//! against the sequential references on the benchmark's model graph.

use crate::spans::SpanLog;
use crate::stats::{median, quantile};
use crate::{Metrics, Workload};
use ligra_apps::seq;
use ligra_engine::Request;
use ligra_graph::{apply_batch, DeltaBatch, Graph, VertexId};
use ligra_parallel::hash::mix64;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// PageRank iterations of a served `pagerank` read.
const PAGERANK_ITERS: u64 = 10;
/// Per-read deadline: far above the slowest kind, so a wedged server
/// shows up as failed reads, not as a hang.
const DEADLINE_MS: u64 = 10_000;
/// Socket read timeout: a server that stops answering fails the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Overlay arcs past which the server compacts in the background; low
/// enough that several compactions finish in every run.
const COMPACT_THRESHOLD: u64 = 1024;
/// The reported tail percentiles.
const READ_TAIL: f64 = 0.99;
const WRITE_TAIL: f64 = 0.95;
/// Operations of one serve segment, shared among the clients; one in ten
/// is a write. A run has several segments, each on a fresh server, and
/// 2700 reads and 300 writes in all: enough for a p99 and a p95. A fixed
/// count (not a fixed time) keeps those sample floors met on any host,
/// and keeps memory and cache behaviour independent of throughput:
/// `ligra-serve` keeps every finished query's result for the life of the
/// process.
const SEGMENT_OPS: usize = 1000;
/// Arc additions or deletions per `mutate` write.
const ARCS_PER_WRITE: usize = 4;

/// The read kinds, their share of fresh reads (percent) and wire names.
const KINDS: [(&str, u64); 6] =
    [("bfs", 80), ("bc", 8), ("bellman-ford", 6), ("cc", 2), ("pagerank", 2), ("radii", 2)];

/// Generates the serve graph: the batch graph's family, smaller, from a
/// seed of its own.
pub fn model_graph(w: &Workload, seed: u64) -> Graph {
    w.serve_graph.generate(mix64(seed ^ 0x5e4e))
}

/// A running `ligra-serve`; killed and reaped if dropped unstopped.
pub struct Server {
    child: Child,
    addr: String,
    /// Drains the child's stderr, so it never blocks on a full pipe, and
    /// returns the last lines once the child has exited. `None` once the
    /// child has been stopped and reaped.
    stderr: Option<JoinHandle<VecDeque<String>>>,
}

impl Server {
    /// Spawns `bin --listen 127.0.0.1:0` and waits for its address.
    pub fn spawn(bin: &Path, workers: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--workers", &workers.to_string()])
            .args(["--compact-threshold", &COMPACT_THRESHOLD.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|l| {
            l.strip_prefix("ligra-serve: listening on ").map(|a| a.trim().to_string())
        });
        let stderr = std::thread::spawn(move || {
            let mut tail = VecDeque::new();
            for line in lines.map_while(Result::ok) {
                if tail.len() == 8 {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
            tail
        });
        let server = Server { child, addr: addr.unwrap_or_default(), stderr: Some(stderr) };
        if server.addr.is_empty() {
            return Err("ligra-serve exited before listening".to_string());
        }
        Ok(server)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// The child's resident-set high-water mark in bytes.
    pub fn peak_rss(&self) -> Result<u64, String> {
        crate::peak_rss_of(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` and waits for the process; a clean stop exits 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let ack = self.connect().and_then(|mut c| c.call("{\"op\":\"shutdown\"}"));
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break None,
            }
        };
        let tail = self.reap();
        match status {
            None => Err("ligra-serve did not exit after shutdown".to_string()),
            Some(s) if !s.success() => {
                Err(format!("ligra-serve exited with {s}; stderr tail: {tail:?}"))
            }
            Some(_) => ack.map(drop),
        }
    }

    /// Kills the child if it still runs, waits for it and for the stderr
    /// drain, and returns the drain's last lines.
    fn reap(&mut self) -> VecDeque<String> {
        let Some(drain) = self.stderr.take() else { return VecDeque::new() };
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        drain.join().unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One JSONL connection: a request line out, a response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn { reader: BufReader::new(s), writer })
    }

    /// Sends one request and returns the raw response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(resp.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Sends one request and parses the flat-JSON response.
    pub fn request(&mut self, line: &str) -> Result<Request, String> {
        let resp = self.call(line)?;
        parse_response(&resp)
    }

    /// Sends one operation of the measured loop. `None` is a failed
    /// operation: an `"ok":false` response, or one the codec cannot read
    /// (it rejects escape sequences, which some error messages contain).
    /// Only a broken connection is an error.
    fn op(&mut self, line: &str) -> Result<Option<Request>, String> {
        Ok(parse_response(&self.call(line)?).ok().filter(ok))
    }
}

/// Reads one `ligra-serve` response line with the engine's own flat-JSON
/// codec (`ligra_engine::Request`), which accepts any flat object.
pub fn parse_response(line: &str) -> Result<Request, String> {
    Request::parse(line).map_err(|e| format!("unparseable response {line:?}: {e}"))
}

fn ok(r: &Request) -> bool {
    r.get("ok") == Some("true")
}

fn num(r: &Request, key: &str) -> Result<f64, String> {
    r.get(key)
        .ok_or_else(|| format!("response lacks {key:?}"))?
        .parse()
        .map_err(|_| format!("field {key:?} is not a number"))
}

/// A read as the client issues it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Read {
    kind: usize,
    source: VertexId,
    seed: u64,
}

impl Read {
    fn submit_line(&self, trace_id: Option<&str>) -> String {
        let mut s = format!(
            "{{\"op\":\"submit\",\"query\":\"{}\",\"source\":{},\"seed\":{},\"max_iters\":{PAGERANK_ITERS},\"deadline_ms\":{DEADLINE_MS}",
            KINDS[self.kind].0, self.source, self.seed
        );
        if let Some(t) = trace_id {
            s.push_str(&format!(",\"trace_id\":\"{t}\""));
        }
        s.push('}');
        s
    }
}

/// One finished read: client turnaround (`INFINITY` when it failed), the
/// server's query id when it succeeded and, when traced, the server's
/// span, fetched after the closed loop.
struct ReadSample {
    kind: usize,
    turnaround: f64,
    cache_hit: bool,
    qid: Option<u64>,
    queue_wait: Option<f64>,
    run: Option<f64>,
}

/// One `mutate` round trip (`INFINITY` when it failed).
struct WriteSample {
    /// The segment's op-stream seed.
    seed: u64,
    turnaround: f64,
    epoch: u64,
    batch: DeltaBatch,
    overlay_edges: u64,
}

#[derive(Default)]
struct ClientLog {
    reads: Vec<ReadSample>,
    writes: Vec<WriteSample>,
}

/// The vertex sets the op mix draws from.
struct Universe<'a> {
    n: u64,
    /// Vertices with at least one edge (read sources, delete endpoints).
    active: Vec<VertexId>,
    /// The initial adjacency, to pick existing arcs to delete.
    g: &'a Graph,
}

impl Universe<'_> {
    fn vertex(&self, r: &mut Rng) -> VertexId {
        self.active[(r.next_u64() % self.active.len() as u64) as usize]
    }

    fn write(&self, r: &mut Rng) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for _ in 0..ARCS_PER_WRITE {
            if r.next_u64().is_multiple_of(2) {
                let u = (r.next_u64() % self.n) as VertexId;
                let mut v = (r.next_u64() % self.n) as VertexId;
                if v == u {
                    v = ((u as u64 + 1) % self.n) as VertexId;
                }
                b.add_edges.push((u, v));
            } else {
                let u = self.vertex(r);
                let ns = self.g.out_neighbors(u);
                b.del_edges.push((u, ns[(r.next_u64() % ns.len() as u64) as usize]));
            }
        }
        b
    }
}

fn edge_list(edges: &[(VertexId, VertexId)]) -> String {
    edges.iter().map(|(u, v)| format!("{u}-{v}")).collect::<Vec<_>>().join(",")
}

fn mutate_line(b: &DeltaBatch) -> String {
    let mut s = String::from("{\"op\":\"mutate\"");
    if !b.add_edges.is_empty() {
        s.push_str(&format!(",\"add\":\"{}\"", edge_list(&b.add_edges)));
    }
    if !b.del_edges.is_empty() {
        s.push_str(&format!(",\"del\":\"{}\"", edge_list(&b.del_edges)));
    }
    s.push('}');
    s
}

/// splitmix64: the op mix's deterministic stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }
}

/// One client connection's closed loop.
fn client(
    mut conn: Conn,
    id: usize,
    seed: u64,
    uni: &Universe,
    ops: usize,
    traced: bool,
) -> Result<ClientLog, String> {
    let mut rng = Rng::new(mix64(seed ^ (0xc11e47 + id as u64)));
    let mut recent: VecDeque<Read> = VecDeque::new();
    let mut log = ClientLog::default();
    let mut write_slot = 0;
    for seq in 0..ops {
        // One write at a seeded position in every block of ten ops.
        if seq % 10 == 0 {
            write_slot = rng.next_u64() % 10;
        }
        if seq as u64 % 10 == write_slot {
            let batch = uni.write(&mut rng);
            let t = Instant::now();
            let resp = conn.op(&mutate_line(&batch))?;
            let turnaround = t.elapsed().as_secs_f64();
            log.writes.push(match resp {
                Some(r) => WriteSample {
                    seed,
                    turnaround,
                    epoch: num(&r, "epoch")? as u64,
                    batch,
                    overlay_edges: num(&r, "overlay_edges")? as u64,
                },
                None => WriteSample {
                    seed,
                    turnaround: f64::INFINITY,
                    epoch: 0,
                    batch,
                    overlay_edges: 0,
                },
            });
            continue;
        }
        let read = if !recent.is_empty() && rng.next_u64().is_multiple_of(5) {
            recent[(rng.next_u64() % recent.len() as u64) as usize]
        } else {
            let mut pick = rng.next_u64() % 100;
            let kind = KINDS.iter().position(|&(_, w)| {
                let hit = pick < w;
                pick = pick.saturating_sub(w);
                hit
            });
            Read {
                kind: kind.expect("shares sum to 100"),
                source: uni.vertex(&mut rng),
                seed: rng.next_u64() % 4,
            }
        };
        if recent.len() == 8 {
            recent.pop_front();
        }
        recent.push_back(read);
        let trace_id = traced.then(|| format!("c{id}-{seq}"));
        let t = Instant::now();
        let done = match conn.op(&read.submit_line(trace_id.as_deref()))? {
            Some(sub) => {
                let qid = num(&sub, "id")? as u64;
                let wait = conn.op(&format!("{{\"op\":\"wait\",\"id\":{qid}}}"))?;
                wait.filter(|w| w.get("status") == Some("done")).map(|w| (qid, w))
            }
            None => None,
        };
        let turnaround = t.elapsed().as_secs_f64();
        log.reads.push(ReadSample {
            kind: read.kind,
            turnaround: if done.is_some() { turnaround } else { f64::INFINITY },
            cache_hit: done.as_ref().is_some_and(|(_, w)| w.get("cache_hit") == Some("true")),
            qid: done.map(|(qid, _)| qid),
            queue_wait: None,
            run: None,
        });
    }
    Ok(log)
}

/// Writes the serve graph where the server can load it.
pub fn write_graph(g: &Graph, dir: &Path, name: &str) -> Result<PathBuf, String> {
    let path = dir.join(name);
    ligra_graph::io::save_graph(g, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    path.canonicalize().map_err(|e| e.to_string())
}

/// Spawns a server and loads `graph_file`; returns it with the time from
/// spawn to the `load` acknowledgement and from `load` sent to acked.
pub fn start(bin: &Path, workers: usize, graph_file: &Path) -> Result<(Server, f64, f64), String> {
    let t = Instant::now();
    let server = Server::spawn(bin, workers)?;
    let mut conn = server.connect()?;
    let l = Instant::now();
    let resp = conn.request(&format!(
        "{{\"op\":\"load\",\"path\":\"{}\",\"symmetric\":true,\"weighted\":false}}",
        graph_file.display()
    ))?;
    if !ok(&resp) {
        return Err(format!("load failed: {:?}", resp.get("error")));
    }
    Ok((server, t.elapsed().as_secs_f64(), l.elapsed().as_secs_f64()))
}

/// Samples and engine counters pooled over the serve segments of a run.
#[derive(Default)]
pub struct Pool {
    reads: Vec<ReadSample>,
    writes: Vec<WriteSample>,
    /// Wall time of the segments' closed loops, in seconds.
    elapsed: f64,
    /// Per segment, its p90 read latency.
    read_p90: Vec<Option<f64>>,
    verified: usize,
    counters: BTreeMap<&'static str, f64>,
    overlay_peak: u64,
}

/// `stats` counters whose change over a segment the traced run reports.
const STATS_DELTAS: [&str; 7] =
    ["cache_hits", "cache_misses", "cache_evictions", "rejected", "sheds", "retries", "panics"];

/// Runs one segment of the closed loop against a freshly loaded
/// `server` (its graph is `g`), then verifies the final epoch against
/// the references on the model graph. Samples go into `pool`.
pub fn segment(
    server: &Server,
    g: &Graph,
    seed: u64,
    clients: usize,
    traced: bool,
    pool: &mut Pool,
) -> Result<(), String> {
    let mut admin = server.connect()?;
    let before = admin.request("{\"op\":\"stats\"}")?;
    let epoch0 = num(&admin.request("{\"op\":\"graph-stats\"}")?, "epoch")?;
    let active: Vec<VertexId> =
        (0..g.num_vertices() as VertexId).filter(|&v| g.out_degree(v) > 0).collect();
    let uni = Universe { n: g.num_vertices() as u64, active, g };
    let conns: Vec<Conn> = (0..clients).map(|_| server.connect()).collect::<Result<_, _>>()?;
    let origin = Instant::now();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let uni = &uni;
                let ops = SEGMENT_OPS / clients + usize::from(i < SEGMENT_OPS % clients);
                s.spawn(move || client(c, i, seed, uni, ops, traced))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = origin.elapsed().as_secs_f64();
    let first_read = pool.reads.len();
    for l in logs {
        let l = l?;
        pool.reads.extend(l.reads);
        pool.writes.extend(l.writes);
    }
    // Spans are fetched once the loop is over, so tracing adds no round
    // trips to it; the server keeps every finished query's span.
    if traced {
        for r in &mut pool.reads[first_read..] {
            let Some(qid) = r.qid else { continue };
            let span = admin.request(&format!("{{\"op\":\"span\",\"id\":{qid}}}"))?;
            if ok(&span) {
                r.queue_wait = Some(num(&span, "queue_wait_ns")? * 1e-9);
                r.run = Some(num(&span, "run_ns")? * 1e-9);
            }
        }
    }
    let lat: Vec<f64> = pool.reads[first_read..].iter().map(|r| r.turnaround).collect();
    pool.read_p90.push(quantile(&lat, 0.9));
    pool.elapsed += elapsed;

    // The model: the generated graph with this segment's acknowledged
    // batches applied in epoch order.
    let mut acked: Vec<&WriteSample> =
        pool.writes.iter().filter(|w| w.turnaround.is_finite() && w.seed == seed).collect();
    acked.sort_by_key(|w| w.epoch);
    let mut model = g.clone();
    for w in &acked {
        model = apply_batch(&model, &w.batch).map_err(|e| format!("model apply: {e}"))?.0;
    }
    pool.verified += verify(&mut admin, &model.compacted(), seed)?;

    let after = admin.request("{\"op\":\"stats\"}")?;
    let gs = admin.request("{\"op\":\"graph-stats\"}")?;
    let mut add = |key: &'static str, v: f64| *pool.counters.entry(key).or_insert(0.0) += v;
    for key in STATS_DELTAS {
        add(key, num(&after, key)? - num(&before, key)?);
    }
    add("epochs_published", num(&gs, "epoch")? - epoch0);
    add("compactions", num(&gs, "compactions")?);
    add("compaction_failures", num(&gs, "compaction_failures")?);
    let peak = acked.iter().map(|w| w.overlay_edges).max().unwrap_or(0);
    pool.overlay_peak = pool.overlay_peak.max(peak);
    Ok(())
}

/// Counts of a run's serve segments.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
}

/// Fills the serve metrics from the pooled segments: end to end, plus
/// the engine layers when the run is traced.
pub fn report(pool: &Pool, log: Option<&mut SpanLog>, m: &mut Metrics) -> Result<Outcome, String> {
    let (reads, writes) = (&pool.reads, &pool.writes);
    let read_lat: Vec<f64> = reads.iter().map(|r| r.turnaround).collect();
    let write_lat: Vec<f64> = writes.iter().map(|w| w.turnaround).collect();
    let failed = read_lat.iter().chain(&write_lat).filter(|t| !t.is_finite()).count();
    let attempted = reads.len() + writes.len() + pool.verified;
    let ms = |name: &str, v: Option<f64>| -> Result<f64, String> {
        match v {
            Some(v) if v.is_finite() => Ok(v * 1e3),
            Some(_) => Err(format!("{name}: too many failed operations to report a latency")),
            None => Err(format!("{name}: too few samples")),
        }
    };
    // The read tail is a median over the segments, so one segment hit by
    // a host stall does not set the run's figure.
    let p90 = pool.read_p90.iter().copied().collect::<Option<Vec<f64>>>();
    m.insert("read_p50_ms", ms("read_p50_ms", Some(median(&read_lat)))?, "ms");
    m.insert("read_p90_ms", ms("read_p90_ms", p90.map(|p| median(&p)))?, "ms");
    m.insert("write_p50_ms", ms("write_p50_ms", Some(median(&write_lat)))?, "ms");
    let ok_reads = read_lat.iter().filter(|t| t.is_finite()).count();
    m.insert("serve.throughput_qps", ok_reads as f64 / pool.elapsed, "1/s");
    m.insert("serve.read_p99_ms", ms("serve.read_p99_ms", quantile(&read_lat, READ_TAIL))?, "ms");
    m.insert(
        "mutate.write_p95_ms",
        ms("mutate.write_p95_ms", quantile(&write_lat, WRITE_TAIL))?,
        "ms",
    );
    m.insert("serve.error_rate", failed as f64 / attempted as f64, "ratio");
    if let Some(log) = log {
        layer_metrics(log, pool, m)?;
    }
    Ok(Outcome { attempted, failed })
}

/// Engine-layer metrics, read from outside through the per-read `span`
/// op and the `stats` / `graph-stats` ops.
fn layer_metrics(log: &mut SpanLog, pool: &Pool, m: &mut Metrics) -> Result<(), String> {
    // Client spans are laid end to end after the last span so far; only
    // their durations and the server-side split are meaningful.
    let mut t = log.now();
    let (reads, writes) = (&pool.reads, &pool.writes);
    let mut queue = Vec::new();
    let mut wire = Vec::new();
    let mut run_by_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut run_all = Vec::new();
    for (i, r) in reads.iter().enumerate() {
        let (Some(q), Some(run)) = (r.queue_wait, r.run) else { continue };
        let trace = format!("read-{i}");
        let root =
            log.push(&format!("serve.read.{}", KINDS[r.kind].0), t, t + r.turnaround, None, &trace);
        log.push("scheduler.queue_wait", t, t + q, Some(root), &trace);
        log.push("query.run", t + q, t + q + run, Some(root), &trace);
        t += r.turnaround;
        queue.push(q);
        wire.push(r.turnaround - q - run);
        if !r.cache_hit {
            run_by_kind[r.kind].push(run);
            run_all.push(run);
        }
    }
    for w in writes.iter().filter(|w| w.turnaround.is_finite()) {
        log.push("serve.write", t, t + w.turnaround, None, "write");
        t += w.turnaround;
    }
    let ms = 1e3;
    let need =
        |name: &str, v: Option<f64>| v.ok_or_else(|| format!("{name}: too few traced reads"));
    m.insert("scheduler.queue_wait_p50_ms", median(&queue) * ms, "ms");
    m.insert(
        "scheduler.queue_wait_p99_ms",
        need("queue wait p99", quantile(&queue, READ_TAIL))? * ms,
        "ms",
    );
    for (k, (name, _)) in KINDS.iter().enumerate() {
        let runs = &run_by_kind[k];
        let v = if runs.is_empty() { 0.0 } else { median(runs) * ms };
        m.insert(format!("query.run_p50_ms.{}", name.replace('-', "_")), v, "ms");
    }
    m.insert("query.run_p99_ms", need("run p99", quantile(&run_all, READ_TAIL))? * ms, "ms");
    m.insert("wire.overhead_p50_ms", median(&wire) * ms, "ms");

    let c = |key: &str| pool.counters[key];
    m.insert(
        "cache.hit_ratio",
        c("cache_hits") / (c("cache_hits") + c("cache_misses")).max(1.0),
        "ratio",
    );
    m.insert("cache.evictions", c("cache_evictions"), "count");
    m.insert("mutate.epochs_published", c("epochs_published"), "count");
    m.insert("mutate.compactions", c("compactions"), "count");
    m.insert("mutate.compaction_failures", c("compaction_failures"), "count");
    m.insert("mutate.overlay_edges_peak", pool.overlay_peak as f64, "count");
    for (key, name) in [
        ("rejected", "scheduler.rejected"),
        ("sheds", "scheduler.sheds"),
        ("retries", "scheduler.retries"),
        ("panics", "scheduler.panics"),
    ] {
        m.insert(name, c(key), "count");
    }
    Ok(())
}

/// Submits one read of each kind on the final epoch and compares its wire
/// summary with the sequential references on `model`. Returns the number
/// of queries checked.
fn verify(conn: &mut Conn, model: &Graph, seed: u64) -> Result<usize, String> {
    let mut rng = Rng::new(mix64(seed ^ 0xfe41f7));
    let source = loop {
        let v = (rng.next_u64() % model.num_vertices() as u64) as VertexId;
        if model.out_degree(v) > 0 {
            break v;
        }
    };
    let radii_seed = rng.next_u64() % 4;
    for (kind, (name, _)) in KINDS.iter().enumerate() {
        let read = Read { kind, source, seed: radii_seed };
        let sub = conn.request(&read.submit_line(None))?;
        if !ok(&sub) {
            return Err(format!("verification {name} refused: {:?}", sub.get("error")));
        }
        let wait = conn.request(&format!("{{\"op\":\"wait\",\"id\":{}}}", num(&sub, "id")?))?;
        if wait.get("status") != Some("done") {
            return Err(format!("verification {name} ended {:?}", wait.get("status")));
        }
        let expect = reference_summary(kind, model, source, radii_seed);
        for (key, want) in expect {
            let got = num(&wait, key)?;
            let tol = 2e-6 + 1e-9 * want.abs();
            if (got - want).abs() > tol {
                return Err(format!(
                    "served {name} from {source}: {key} = {got}, reference {want}"
                ));
            }
        }
    }
    Ok(KINDS.len())
}

/// The wire-summary fields of one query kind, computed with
/// `ligra_apps::seq` on the model graph.
fn reference_summary(
    kind: usize,
    g: &Graph,
    source: VertexId,
    radii_seed: u64,
) -> Vec<(&'static str, f64)> {
    let reached_max = |dist: &[u32]| {
        let reached: Vec<u32> = dist.iter().copied().filter(|&d| d != u32::MAX).collect();
        (reached.len() as f64, reached.iter().copied().max().unwrap_or(0) as f64)
    };
    match KINDS[kind].0 {
        "bfs" => {
            // One round per level past the source, plus the round that
            // finds the frontier empty.
            let (reached, max) = reached_max(&seq::seq_bfs(g, source).0);
            vec![("reached", reached), ("max_dist", max), ("rounds", max + 1.0)]
        }
        "bc" => vec![("dependency_sum", seq::seq_brandes(g, source).iter().sum())],
        "bellman-ford" => {
            let unit = Graph::symmetric(g.out_adj().unit_weighted());
            let dist =
                seq::seq_bellman_ford(&unit, source).expect("unit weights: no negative cycle");
            vec![("reached", dist.iter().filter(|&&d| d != i64::MAX).count() as f64)]
        }
        "cc" => {
            let mut labels = seq::seq_cc(g);
            labels.sort_unstable();
            labels.dedup();
            vec![("components", labels.len() as f64)]
        }
        "pagerank" => {
            let (rank, iters) =
                seq::seq_pagerank(g, ligra_engine::PAGERANK_ALPHA, 0.0, PAGERANK_ITERS as usize);
            vec![("iterations", iters as f64), ("rank_sum", rank.iter().sum())]
        }
        "radii" => {
            let sample = ligra_apps::radii::pick_sample(g, radii_seed);
            // The wire summary takes the maximum over every vertex, so a
            // vertex no sample reaches makes it u32::MAX. `rounds` is the
            // largest finite radius plus the round that finds the
            // frontier empty, so it checks the radii on any graph.
            let radii = crate::batch::radii_reference(g, &sample);
            let max = radii.iter().copied().max().unwrap_or(0);
            let (_, max_finite) = reached_max(&radii);
            vec![
                ("samples", sample.len() as f64),
                ("max_radius", max as f64),
                ("rounds", max_finite + 1.0),
            ]
        }
        other => unreachable!("unknown kind {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra_graph::generators::grid3d;

    #[test]
    fn read_mix_shares_sum_to_one_hundred() {
        assert_eq!(KINDS.iter().map(|&(_, w)| w).sum::<u64>(), 100);
    }

    #[test]
    fn writes_touch_existing_vertices_and_never_self_loops() {
        let g = grid3d(4);
        let active: Vec<VertexId> = (0..64).collect();
        let uni = Universe { n: 64, active, g: &g };
        let mut rng = Rng::new(7);
        for _ in 0..200 {
            let b = uni.write(&mut rng);
            assert_eq!(b.add_edges.len() + b.del_edges.len(), ARCS_PER_WRITE);
            for &(u, v) in b.add_edges.iter().chain(&b.del_edges) {
                assert!(u != v && u < 64 && v < 64);
            }
            for &(u, v) in &b.del_edges {
                assert!(uni.g.out_neighbors(u).contains(&v));
            }
            apply_batch(uni.g, &b).expect("valid batch");
        }
    }

    #[test]
    fn flat_json_reader_reads_engine_responses() {
        let r = parse_response(
            "{\"ok\":true,\"id\":3,\"trace_id\":\"c0-1\",\"status\":\"done\",\"cache_hit\":false,\"rank_sum\":0.731,\"final_error\":\"1.2e-3\"}",
        )
        .expect("flat object");
        assert!(ok(&r));
        assert_eq!(num(&r, "id"), Ok(3.0));
        assert_eq!(r.get("status"), Some("done"));
        assert_eq!(num(&r, "rank_sum"), Ok(0.731));
        assert!(parse_response("not json").is_err());
    }
}
