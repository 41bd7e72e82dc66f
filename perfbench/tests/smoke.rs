//! End-to-end tests of the benchmark against a real `ligra-serve`.
//!
//! They need the `ligra-serve` binary next to this package's build
//! output: `python3 perfbench/run.py --self-test` builds both there.

use perfbench::serve::{parse_response, Server};
use perfbench::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;

fn serve_bin() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let candidate = exe.with_file_name("ligra-serve");
    assert!(
        candidate.exists(),
        "no ligra-serve at {}: run `python3 perfbench/run.py --self-test`",
        candidate.display()
    );
    candidate
}

fn work_dir(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&d).expect("work dir");
    d
}

/// Runs one tiny workload and returns its result line.
fn run_tiny(workload: &str, trace: u8) -> String {
    let work = work_dir(&format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            &trace.to_string(),
        ])
        .args(["--size", "tiny", "--serve-bin"])
        .arg(serve_bin())
        .arg("--work-dir")
        .arg(&work)
        // The stamp reads .cargo/config.toml relative to the repository root.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {}\n{stdout}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[lines.len() - 2].starts_with("{\"stamp\": {"), "stamp line: {stdout}");
    if trace == 1 {
        let spans = work.join(format!("spans-{workload}-3-trace1.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("span file");
        assert!(text.lines().any(|l| l.contains("\"name\":\"app.bfs\"")));
        assert!(text.lines().any(|l| l.contains("\"name\":\"query.run\"")));
    }
    lines[lines.len() - 1].to_string()
}

#[test]
fn tiny_workloads_pass_their_checks_and_report_every_metric() {
    for workload in ["rmat", "grid"] {
        for (trace, declared) in [(0u8, &END_TO_END[..]), (1, &PER_LAYER[..])] {
            let line = run_tiny(workload, trace);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
            assert_eq!(line.matches("{\"value\": ").count(), declared.len(), "{line}");
            for (name, unit) in declared {
                let at = line.find(&format!("\"{name}\": {{\"value\": ")).unwrap_or_else(|| {
                    panic!("{name} missing: {line}");
                });
                let entry = &line[at..at + line[at..].find('}').expect("entry end")];
                assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{entry}");
            }
        }
    }
}

#[test]
fn flat_json_reader_reads_real_ligra_serve_lines() {
    let server = Server::spawn(&serve_bin(), 1).expect("spawn ligra-serve");
    let mut c = server.connect().expect("connect");
    let mut req = |line: &str| parse_response(&c.call(line).expect("call")).expect("parse");
    let gen = req("{\"op\":\"gen\",\"family\":\"grid3d\",\"side\":4}");
    assert_eq!(gen.get("ok"), Some("true"));
    assert_eq!(gen.get("vertices"), Some("64"));
    let sub =
        req("{\"op\":\"submit\",\"query\":\"pagerank\",\"max_iters\":3,\"trace_id\":\"t-1\"}");
    let id = sub.get("id").expect("id").to_string();
    assert_eq!(sub.get("trace_id"), Some("t-1"));
    let wait = req(&format!("{{\"op\":\"wait\",\"id\":{id}}}"));
    assert_eq!(wait.get("status"), Some("done"));
    assert_eq!(wait.get("iterations"), Some("3"));
    assert!(wait.get("rank_sum").expect("rank_sum").parse::<f64>().is_ok());
    assert!(wait.get("final_error").expect("final_error").parse::<f64>().is_ok());
    let span = req(&format!("{{\"op\":\"span\",\"id\":{id}}}"));
    assert!(span.get("run_ns").expect("run_ns").parse::<u64>().is_ok());
    let mutate = req("{\"op\":\"mutate\",\"add\":\"0-5\",\"del\":\"0-1\"}");
    assert_eq!(mutate.get("epoch"), Some("2"));
    for op in ["stats", "graph-stats"] {
        let r = req(&format!("{{\"op\":\"{op}\"}}"));
        assert_eq!(r.get("ok"), Some("true"), "{op}");
        assert!(r.get("compactions").is_some(), "{op}");
    }
    let bad = req("{\"op\":\"wait\",\"id\":999}");
    assert_eq!(bad.get("ok"), Some("false"));
    assert_eq!(bad.get("error"), Some("unknown id 999"));
    server.shutdown().expect("clean exit");
}
