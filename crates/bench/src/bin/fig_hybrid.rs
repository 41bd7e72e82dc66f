//! **Figure F2 / ablation A1** — direction optimization.
//!
//! Total running time of BFS and Components under the four traversal
//! policies: the paper's hybrid (auto) heuristic, sparse-only (what
//! push-based frameworks like Pregel/GraphLab do), dense-only, and
//! dense-forward-only. The paper's shape: hybrid ≈ best-of-both; on
//! low-diameter inputs (rMat) hybrid beats sparse-only by a large factor,
//! on high-diameter inputs dense-only loses badly because every one of
//! the many rounds pays O(n + m).
//!
//! The timed runs are untraced (tracing off is the zero-overhead path the
//! numbers must reflect). A separate traced BFS run per policy is then
//! exported to JSON lines, re-imported, and used to attribute wall-clock
//! to each traversal mode — the per-mode breakdown that explains *why*
//! hybrid wins.

use ligra::stats::{Mode, Op};
use ligra::{from_json_lines, to_json_lines, EdgeMapOptions, Traversal, TraversalStats};
use ligra_apps as apps;
use ligra_bench::{fmt_secs, inputs, time_best, Scale};

/// All four policies, canonical order and names (`Traversal::ALL`; the
/// paper's hybrid heuristic is `auto`).
const POLICIES: [Traversal; 4] = Traversal::ALL;

/// Per-mode round counts and telemetry-timed totals, computed from the
/// exported-and-reimported trace of one traced BFS run.
fn mode_breakdown(g: &ligra_graph::Graph, source: u32, t: Traversal) -> String {
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(g, source, EdgeMapOptions::new().traversal(t), &mut stats);
    let trace = from_json_lines(&to_json_lines(&stats)).expect("trace must round-trip");
    let mut cells = Vec::new();
    for (name, mode) in [("s", Mode::Sparse), ("d", Mode::Dense), ("f", Mode::DenseForward)] {
        let rounds: Vec<_> =
            trace.rounds.iter().filter(|r| r.op == Op::EdgeMap && r.mode == mode).collect();
        if !rounds.is_empty() {
            let ns: u64 = rounds.iter().map(|r| r.time_ns).sum();
            cells.push(format!("{}:{}r/{:.1}ms", name, rounds.len(), ns as f64 / 1e6));
        }
    }
    cells.join(" ")
}

fn main() {
    let scale = Scale::from_env();
    println!("Figure F2: traversal-policy ablation (scale = {scale:?})");
    println!(
        "{:<14} {:<12} {:>12} {:>13} {:>12} {:>13} {:>22}",
        "input",
        "app",
        POLICIES[0].name(),
        POLICIES[1].name(),
        POLICIES[2].name(),
        POLICIES[3].name(),
        "auto vs sparse"
    );
    for input in inputs(scale) {
        let g = &input.graph;
        let mut row = Vec::new();
        for t in POLICIES {
            let opts = EdgeMapOptions::new().traversal(t);
            let secs = time_best(3, || apps::bfs_with(g, input.source, opts));
            row.push(secs);
        }
        println!(
            "{:<14} {:<12} {:>12} {:>13} {:>12} {:>13} {:>21.2}x",
            input.name,
            "BFS",
            fmt_secs(row[0]),
            fmt_secs(row[1]),
            fmt_secs(row[2]),
            fmt_secs(row[3]),
            row[1] / row[0]
        );

        if g.is_symmetric() {
            let mut row = Vec::new();
            for t in POLICIES {
                let opts = EdgeMapOptions::new().traversal(t);
                let secs = time_best(2, || apps::cc_traced(g, opts, &mut ligra::NoopRecorder));
                row.push(secs);
            }
            println!(
                "{:<14} {:<12} {:>12} {:>13} {:>12} {:>13} {:>21.2}x",
                input.name,
                "Components",
                fmt_secs(row[0]),
                fmt_secs(row[1]),
                fmt_secs(row[2]),
                fmt_secs(row[3]),
                row[1] / row[0]
            );
        }
    }

    println!("\nPer-mode time attribution for BFS (from exported traces; r=rounds):");
    for input in inputs(scale) {
        let g = &input.graph;
        for t in POLICIES {
            println!("{:<14} {:<12} {}", input.name, t.name(), mode_breakdown(g, input.source, t));
        }
    }

    println!("\nexpected shape: auto (hybrid) <= min(sparse, dense) within noise;");
    println!("auto wins big over sparse on rMat, ties it on high-diameter inputs.");
}
