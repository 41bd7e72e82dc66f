//! **Memory-traffic microbench** — per-round `edgeMap` cost under each
//! traversal policy, with the bytes of frontier representation each round
//! streamed (the `frontier_bytes` telemetry column).
//!
//! A BFS round sweep over the paper's rMat input, once per policy
//! (auto, sparse, dense, dense-forward — `--policy NAME` or
//! `LIGRA_TRAVERSAL` restricts the sweep to one of them). For every
//! recorded round the binary re-checks the representation contract:
//! sparse push rounds report exactly `4 * (|U| + |output|)` bytes (the
//! output vector is exact-size — no sentinel slots), dense rounds report
//! the packed `n/8`-byte bitset once in and once out. Per-mode medians
//! and totals go to stdout
//! and to a machine-readable JSON file (`BENCH_edgemap.json` by default)
//! for CI artifact upload.
//!
//! The `threads` field of the JSON comes from the runtime pool probe
//! (`pool_is_parallel`), not from configured pool size: a file produced
//! under the sequential offline rayon stub says `"parallel_pool": false`
//! and its timings must not be read as parallel numbers.
//!
//! Usage: `bench_edgemap [--quick] [--policy NAME] [--out PATH]`
//!
//! With `LIGRA_RACE_CHECK=1` (and a binary built with
//! `--features race-check`) every recorded sweep also runs under the
//! shadow-state race oracle with the BFS `Claim` contract, and each
//! policy row is followed by its certification evidence.

use ligra::stats::{Mode, Op};
use ligra::{EdgeMapOptions, RaceOracle, Traversal, TraversalStats, WinContract};
use ligra_apps as apps;
use ligra_graph::generators::rmat;
use ligra_graph::generators::rmat::RmatOptions;

/// The policies to sweep: all of them, unless `--policy` (strongest) or
/// `LIGRA_TRAVERSAL` pins one.
fn policies(cli_policy: Option<&str>) -> Vec<Traversal> {
    if let Some(name) = cli_policy {
        vec![name.parse().unwrap_or_else(|e| panic!("--policy: {e}"))]
    } else if std::env::var_os("LIGRA_TRAVERSAL").is_some() {
        vec![ligra_bench::traversal_from_env()]
    } else {
        Traversal::ALL.to_vec()
    }
}

struct ModeRow {
    policy: &'static str,
    rounds: usize,
    median_round_ns: u64,
    total_edge_map_ns: u64,
    frontier_bytes: u64,
    edges_scanned: u64,
}

fn median(mut xs: Vec<u64>) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// One traced BFS sweep under `t`; verifies the frontier-bytes contract
/// of every recorded round and reduces the trace to a summary row. With
/// an oracle attached, every round's updates also flow through the race
/// shadow protocol.
fn sweep(
    g: &ligra_graph::Graph,
    source: u32,
    policy: &'static str,
    t: Traversal,
    oracle: Option<&RaceOracle>,
) -> ModeRow {
    let packed = (g.num_vertices() as u64).div_ceil(64) * 8;
    let mut stats = TraversalStats::new();
    let mut opts = EdgeMapOptions::new().traversal(t);
    if let Some(o) = oracle {
        opts = opts.race_oracle(o);
    }
    let _ = apps::bfs_traced(g, source, opts, &mut stats);

    let rounds: Vec<_> = stats.rounds.iter().filter(|r| r.op == Op::EdgeMap).collect();
    for r in &rounds {
        if r.frontier_vertices == 0 {
            assert_eq!(r.frontier_bytes, 0);
            continue;
        }
        match r.mode {
            // Exact-size push output: 4 bytes per input and output vertex,
            // nothing for dropped or duplicate edges.
            Mode::Sparse => {
                assert_eq!(r.frontier_bytes, 4 * (r.frontier_vertices + r.output_vertices))
            }
            // Packed bitset streamed in and (BFS keeps output on) out.
            _ => assert_eq!(r.frontier_bytes, 2 * packed),
        }
    }

    ModeRow {
        policy,
        rounds: rounds.len(),
        median_round_ns: median(rounds.iter().map(|r| r.time_ns).collect()),
        total_edge_map_ns: rounds.iter().map(|r| r.time_ns).sum(),
        frontier_bytes: rounds.iter().map(|r| r.frontier_bytes).sum(),
        edges_scanned: rounds.iter().map(|r| r.edges_scanned).sum(),
    }
}

fn to_json(
    log_n: u32,
    g: &ligra_graph::Graph,
    quick: bool,
    parallel_pool: bool,
    rows: &[ModeRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"graph\": {{\"family\": \"rmat-paper\", \"log_n\": {}, \"vertices\": {}, \"edges\": {}}},\n",
        log_n,
        g.num_vertices(),
        g.num_edges()
    ));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    // `threads` is what the probe saw actually running, not the
    // configured pool size: under the sequential offline stub the
    // configured size is a lie and the honest thread count is 1.
    let threads = if parallel_pool { ligra_parallel::utils::num_threads() } else { 1 };
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"parallel_pool\": {parallel_pool},\n"));
    s.push_str("  \"modes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"policy\": \"{}\", \"rounds\": {}, \"median_round_ns\": {}, \
             \"total_edge_map_ns\": {}, \"frontier_bytes\": {}, \"edges_scanned\": {}}}{}\n",
            r.policy,
            r.rounds,
            r.median_round_ns,
            r.total_edge_map_ns,
            r.frontier_bytes,
            r.edges_scanned,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_edgemap.json".to_string());
    let cli_policy = args.iter().position(|a| a == "--policy").and_then(|i| args.get(i + 1));

    // Quick mode: ~2^20 edges (CI smoke). Full mode: the paper-shaped
    // rMat at 2^20 vertices.
    let log_n = if quick { 16 } else { 20 };
    let g = rmat(&RmatOptions::paper(log_n));
    println!(
        "bench_edgemap: rMat log_n={} ({} vertices, {} edges), quick={}",
        log_n,
        g.num_vertices(),
        g.num_edges(),
        quick
    );

    // Probe once whether the pool actually fans work out. The offline
    // sandbox patches in a sequential rayon stand-in whose configured
    // size is meaningless; numbers produced under it are not parallel
    // measurements and the JSON says so.
    let parallel_pool =
        ligra_parallel::utils::pool_is_parallel(ligra_parallel::utils::num_threads());
    if !parallel_pool {
        eprintln!(
            "bench_edgemap: WARNING — thread pool is sequential (offline rayon stub or a \
             single-core box); timings below are single-thread numbers and the JSON is \
             marked \"parallel_pool\": false."
        );
    }

    println!(
        "{:<14} {:>7} {:>16} {:>16} {:>16} {:>14}",
        "policy",
        "rounds",
        "median round ns",
        "edgeMap total ns",
        "frontier bytes",
        "edges scanned"
    );

    // LIGRA_RACE_CHECK=1: certify each sweep under the BFS Claim
    // contract. The oracle hooks exist only in race-check builds; warn
    // instead of silently reporting an empty certificate otherwise.
    let race_check = std::env::var("LIGRA_RACE_CHECK").is_ok_and(|v| v == "1");
    if race_check && !cfg!(feature = "race-check") {
        eprintln!(
            "bench_edgemap: LIGRA_RACE_CHECK=1 but this binary was built without the \
             race-check feature; the oracle hooks are inert. Rebuild with \
             `cargo run -p ligra-bench --features race-check --bin bench_edgemap`."
        );
    }

    let mut rows = Vec::new();
    for t in policies(cli_policy.map(String::as_str)) {
        // Warm the traversal (page-in, pool spin-up) before the recorded run.
        let _ = apps::bfs_with(&g, 0, EdgeMapOptions::new().traversal(t));
        let oracle = race_check.then(|| RaceOracle::new(g.num_vertices(), WinContract::Claim));
        let row = sweep(&g, 0, t.name(), t, oracle.as_ref());
        println!(
            "{:<14} {:>7} {:>16} {:>16} {:>16} {:>14}",
            row.policy,
            row.rounds,
            row.median_round_ns,
            row.total_edge_map_ns,
            row.frontier_bytes,
            row.edges_scanned
        );
        if let Some(o) = &oracle {
            let report = o
                .certify()
                .unwrap_or_else(|e| panic!("race certification failed under {}: {e}", t.name()));
            println!(
                "  race-check[{}]: certified Claim — {} attempts, {} wins, {} overlaps, {} rounds",
                t.name(),
                report.attempts,
                report.wins,
                report.overlaps,
                report.rounds
            );
        }
        rows.push(row);
    }

    let json = to_json(log_n, &g, quick, parallel_pool, &rows);
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
    println!("contract checked: sparse rounds = 4*(|U|+|out|) bytes, dense rounds = 2*(n/8) bytes");
}
