//! The repository benchmark: the paper's app suite called in-process on
//! one graph family, then a mixed read/write closed loop against a
//! `ligra-serve` child on a smaller graph of the same family.
//!
//! See `perfbench/README.md` for the workloads, metrics and the layer map.

pub mod batch;
pub mod serve;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;

/// How a workload's graphs are generated.
#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    /// Symmetric rMat with the paper's parameters, `log_n` vertices bits.
    Rmat(u32),
    /// 3d-grid torus with the given side.
    Grid(usize),
}

impl GraphSpec {
    /// Generates the graph; `seed` drives rMat and is unused by the grid,
    /// which has one shape.
    pub fn generate(self, seed: u64) -> ligra_graph::Graph {
        use ligra_graph::generators::{grid3d, rmat, RmatOptions};
        match self {
            GraphSpec::Rmat(log_n) => rmat(&RmatOptions { seed, ..RmatOptions::paper(log_n) }),
            GraphSpec::Grid(side) => grid3d(side),
        }
    }
}

/// A named workload: the batch graph and the serve graph.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub batch_graph: GraphSpec,
    pub serve_graph: GraphSpec,
}

impl Workload {
    /// The workload `name` at full size, or at the tiny size the smoke
    /// tests use.
    pub fn named(name: &str, tiny: bool) -> Option<Workload> {
        let (name, batch_graph, serve_graph) = match (name, tiny) {
            ("rmat", false) => ("rmat", GraphSpec::Rmat(18), GraphSpec::Rmat(15)),
            ("grid", false) => ("grid", GraphSpec::Grid(64), GraphSpec::Grid(32)),
            ("rmat", true) => ("rmat", GraphSpec::Rmat(11), GraphSpec::Rmat(10)),
            ("grid", true) => ("grid", GraphSpec::Grid(10), GraphSpec::Grid(8)),
            _ => return None,
        };
        Some(Workload { name, batch_graph, serve_graph })
    }
}

/// End-to-end metrics, reported by runs with tracing off.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("bfs_s", "s"),
    ("bc_s", "s"),
    ("radii_s", "s"),
    ("cc_s", "s"),
    ("pagerank_s", "s"),
    ("bellman_ford_s", "s"),
    ("compressed_pagerank_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("graph.generate_s", "s"),
    ("graph.weights_s", "s"),
    ("graph.load_s", "s"),
    ("graph.csr_bytes", "bytes"),
    ("compress.build_s", "s"),
    ("compress.bytes_per_edge", "bytes"),
    ("compress.bfs_s", "s"),
    ("compress.decode_overhead", "ratio"),
    ("parallel.threads", "count"),
    ("parallel.prefix_sums_s", "s"),
    ("parallel.pack_index_s", "s"),
    ("vertex_subset.to_sparse_s", "s"),
    ("vertex_subset.to_dense_s", "s"),
    ("edge_map.rounds.sparse", "count"),
    ("edge_map.rounds.dense", "count"),
    ("edge_map.rounds.dense_forward", "count"),
    ("edge_map.rounds.partitioned", "count"),
    ("edge_map.time_s.sparse", "s"),
    ("edge_map.time_s.dense", "s"),
    ("edge_map.time_s.dense_forward", "s"),
    ("edge_map.time_s.partitioned", "s"),
    ("edge_map.edges_scanned", "count"),
    ("edge_map.edges_skipped", "count"),
    ("edge_map.cas_attempts", "count"),
    ("edge_map.cas_wins", "count"),
    ("edge_map.conversions", "count"),
    ("edge_map.frontier_bytes", "bytes"),
    ("edge_map.scatter_bytes", "bytes"),
    ("vertex_map.time_s", "s"),
    ("apps.bfs.rounds", "count"),
    ("apps.bc.rounds", "count"),
    ("apps.radii.rounds", "count"),
    ("apps.cc.rounds", "count"),
    ("apps.pagerank.rounds", "count"),
    ("apps.bellman_ford.rounds", "count"),
    ("apps.bfs.self_s", "s"),
    ("apps.bc.self_s", "s"),
    ("apps.radii.self_s", "s"),
    ("apps.cc.self_s", "s"),
    ("apps.pagerank.self_s", "s"),
    ("apps.bellman_ford.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("scheduler.queue_wait_p50_ms", "ms"),
    ("scheduler.queue_wait_p99_ms", "ms"),
    ("query.run_p50_ms.bfs", "ms"),
    ("query.run_p50_ms.bc", "ms"),
    ("query.run_p50_ms.bellman_ford", "ms"),
    ("query.run_p50_ms.cc", "ms"),
    ("query.run_p50_ms.pagerank", "ms"),
    ("query.run_p50_ms.radii", "ms"),
    ("query.run_p99_ms", "ms"),
    ("wire.overhead_p50_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("mutate.epochs_published", "count"),
    ("mutate.compactions", "count"),
    ("mutate.compaction_failures", "count"),
    ("mutate.overlay_edges_peak", "count"),
    ("mutate.write_p95_ms", "ms"),
    ("scheduler.rejected", "count"),
    ("scheduler.sheds", "count"),
    ("scheduler.retries", "count"),
    ("scheduler.panics", "count"),
    ("serve.error_rate", "ratio"),
    ("serve.throughput_qps", "1/s"),
    ("serve.read_p99_ms", "ms"),
];

/// Named measurements of one run with their units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn insert(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `declared`, whose
    /// metrics must all have been measured in their declared units.
    pub fn to_json(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(declared.len());
        for &(name, declared_unit) in declared {
            let (v, unit) =
                self.0.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            if *unit != declared_unit {
                return Err(format!(
                    "metric {name} measured in {unit}, declared in {declared_unit}"
                ));
            }
            parts.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// `VmHWM` (resident-set high-water mark) from a `/proc/<pid>/status`
/// file, in bytes.
pub fn peak_rss_of(status_path: &str) -> Result<u64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kb * 1024)
}

/// Threads the rayon pool actually runs work on: distinct thread ids
/// seen by `8 × nproc` slow tasks (the `pool_is_parallel` probe, counted).
pub fn probe_threads(nproc: usize) -> usize {
    use rayon::prelude::*;
    let ids = std::sync::Mutex::new(std::collections::HashSet::new());
    (0..nproc.max(2) * 8).into_par_iter().with_max_len(1).for_each(|_| {
        ids.lock().expect("probe lock").insert(std::thread::current().id());
        std::thread::sleep(std::time::Duration::from_millis(1));
    });
    ids.into_inner().expect("probe lock").len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let metrics = |section: &str| -> Vec<(String, String)> {
            let body = spec.split(&format!("\"{section}\"")).nth(1).expect("section");
            let body = &body[..body.find(']').expect("list end")];
            let field = |entry: &str, key: &str| {
                let rest = entry.split(&format!("\"{key}\":")).nth(1).expect(key);
                rest.split('"').nth(1).expect(key).to_string()
            };
            body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(metrics("end_to_end"), own(&END_TO_END));
        assert_eq!(metrics("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_rejects_missing_mis_united_and_non_finite_metrics() {
        let mut m = Metrics::default();
        m.insert("a", 1.5, "s");
        assert_eq!(m.to_json(&[("a", "s")]).unwrap(), "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}");
        assert!(m.to_json(&[("b", "s")]).is_err());
        assert!(m.to_json(&[("a", "count")]).is_err());
        m.insert("a", f64::INFINITY, "s");
        assert!(m.to_json(&[("a", "s")]).is_err());
    }
}
