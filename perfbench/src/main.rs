//! Runs one workload of the repository benchmark and prints its result.
//!
//! ```text
//! perfbench --workload rmat|grid --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --work-dir DIR [--size full|tiny]
//! ```
//!
//! `perfbench/run.py` builds this binary and `ligra-serve` and passes the
//! last two flags. The last stdout line is the JSON result; the line
//! before it stamps the run with the host and build it ran on. A failed
//! correctness check prints `"correct": false` and exits 1.

use ligra_parallel::hash::mix64;
use perfbench::spans::SpanLog;
use perfbench::stats::median;
use perfbench::{batch, serve, Metrics, Workload, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Fewest batch set-ups per run; `setup_s` is built from the medians of
/// the batch and the serve set-ups.
const SETUP_REPS: usize = 3;
/// Serve segments per run, each on a fresh server.
const SEGMENTS: u64 = 3;
/// Serve set-ups per run: one per segment, and servers that are only
/// started, loaded and shut down, so the median of this short and noisy
/// step rests on more samples.
const SERVE_SETUPS: u64 = 9;
/// Cheap batch set-ups repeat until this many seconds are spent (at most
/// `MAX_SETUP_REPS` times), so their median resists short host stalls.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUP_REPS: usize = 10;
/// Fewest suite iterations of the batch phase, whatever `--seconds` says.
const MIN_ITERS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let tiny = match kv.get("size").map(String::as_str) {
        None | Some("full") => false,
        Some("tiny") => true,
        Some(other) => return Err(format!("--size {other:?}: expected full or tiny")),
    };
    let name = get("workload")?;
    let args = Args {
        workload: Workload::named(&name, tiny)
            .ok_or_else(|| format!("unknown workload {name:?} (rmat|grid)"))?,
        seed: get("seed")?.parse().map_err(|_| "--seed: expected an integer".to_string())?,
        seconds: get("seconds")?.parse().map_err(|_| "--seconds: expected a number".to_string())?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?}: expected 0 or 1")),
        },
        serve_bin: get("serve-bin")?.into(),
        work_dir: get("work-dir")?.into(),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace", "serve-bin", "work-dir", "size"]
            .contains(&k.as_str())
        {
            return Err(format!("unknown flag --{k}"));
        }
    }
    Ok(args)
}

/// What the numbers were measured on, so sequential-stub runs are never
/// compared with threaded ones unawares.
fn stamp(a: &Args, nproc: usize, threads: usize) -> String {
    let out = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let stub = std::fs::read_to_string(".cargo/config.toml")
        .map(|c| {
            c.lines().any(|l| l.trim_start().starts_with("rayon") && l.contains("vendor/rayon"))
        })
        .unwrap_or(false);
    format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"parallel.threads\": {threads}, \"rayon_stub\": {stub}, \"git_rev\": \"{}\", \"rustc\": \"{}\"}}}}",
        a.workload.name,
        a.seed,
        a.seconds,
        a.trace,
        out("git", &["rev-parse", "HEAD"]),
        out("rustc", &["--version"]),
    )
}

struct Counts {
    attempted: usize,
    failed: usize,
}

fn run(
    a: &Args,
    nproc: usize,
    threads: usize,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> Result<Counts, String> {
    let window = Duration::from_secs_f64(a.seconds);
    let tag = format!("{}-{}", a.workload.name, a.seed);

    // Batch phase: set up several times, keep the last inputs.
    let mut setups = Vec::new();
    let mut inputs = None;
    while setups.len() < SETUP_REPS
        || (setups.len() < MAX_SETUP_REPS
            && setups.iter().map(batch::SetupTimes::total).sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(inputs.take());
        let (x, t) = batch::setup(&a.workload, a.seed, log);
        setups.push(t);
        inputs = Some(x);
    }
    let x = inputs.expect("at least one set-up");
    let batch_setup = median(&setups.iter().map(batch::SetupTimes::total).collect::<Vec<_>>());
    let calls = if a.trace {
        m.insert(
            "graph.generate_s",
            median(&setups.iter().map(|t| t.generate).collect::<Vec<_>>()),
            "s",
        );
        m.insert(
            "graph.weights_s",
            median(&setups.iter().map(|t| t.weights).collect::<Vec<_>>()),
            "s",
        );
        m.insert(
            "compress.build_s",
            median(&setups.iter().map(|t| t.compress).collect::<Vec<_>>()),
            "s",
        );
        m.insert("parallel.threads", threads as f64, "count");
        batch::layer_probes(&x, m);
        batch::run_traced(&x, window, threads, log, m)?
    } else {
        batch::run_untraced(&x, window, MIN_ITERS, m)?
    };
    drop(x);

    // Serve phase: the same family, smaller, behind a ligra-serve child.
    let g = serve::model_graph(&a.workload, a.seed);
    let file = serve::write_graph(&g, &a.work_dir, &format!("serve-{tag}.adj"))?;
    let (mut spawn_s, mut load_s) = (Vec::new(), Vec::new());
    let mut pool = serve::Pool::default();
    let mut server_rss = 0;
    for segment in 0..SERVE_SETUPS {
        let (server, spawn, load) = serve::start(&a.serve_bin, nproc, &file)?;
        let end = log.now();
        let root = log.push("setup.serve", end - spawn, end, None, &format!("setup-serve-{tag}"));
        log.push("graph.load", end - load, end, Some(root), &format!("setup-serve-{tag}"));
        spawn_s.push(spawn);
        load_s.push(load);
        if segment < SEGMENTS {
            serve::segment(&server, &g, mix64(a.seed ^ segment), nproc, a.trace, &mut pool)?;
            server_rss = server_rss.max(server.peak_rss()?);
        }
        server.shutdown()?;
    }
    std::fs::remove_file(&file).map_err(|e| format!("remove {}: {e}", file.display()))?;
    let outcome = serve::report(&pool, a.trace.then_some(&mut *log), m)?;

    m.insert("graph.load_s", median(&load_s), "s");
    m.insert("setup_s", batch_setup + median(&spawn_s), "s");
    let own_rss = perfbench::peak_rss_of("/proc/self/status")?;
    m.insert("peak_rss_mb", (own_rss + server_rss) as f64 / (1024.0 * 1024.0), "MiB");
    Ok(Counts { attempted: calls + outcome.attempted, failed: outcome.failed })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.work_dir) {
        eprintln!("perfbench: create {}: {e}", a.work_dir.display());
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = perfbench::probe_threads(nproc);
    let stamp = stamp(&a, nproc, threads);
    let mut log = SpanLog::default();
    let mut m = Metrics::default();
    let tag = format!("{}-{}-trace{}", a.workload.name, a.seed, u8::from(a.trace));
    let declared: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let result = run(&a, nproc, threads, &mut log, &mut m).and_then(|c| {
        let metrics = m.to_json(declared)?;
        if a.trace {
            let spans = log.spans().iter().zip(log.self_times());
            if let Some((span, s)) = spans.into_iter().find(|(_, s)| *s < -1e-9) {
                return Err(format!("span {} has negative self time {s}", span.name));
            }
            log.write_jsonl(&a.work_dir.join(format!("spans-{tag}.jsonl")))
                .map_err(|e| format!("write spans: {e}"))?;
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            c.attempted, c.failed
        ))
    });
    println!("{stamp}");
    match result {
        Ok(line) => {
            if let Err(e) = write_file(
                &a.work_dir.join(format!("result-{tag}.json")),
                &format!("{stamp}\n{line}\n"),
            ) {
                eprintln!("perfbench: {e}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    }
}
