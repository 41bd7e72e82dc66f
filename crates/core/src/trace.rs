//! Machine-readable trace export for [`TraversalStats`].
//!
//! Two flat formats, both hand-rolled so the framework stays
//! dependency-free:
//!
//! * **JSON lines** — one self-describing JSON object per recorded event
//!   ([`to_json_lines`] / [`from_json_lines`]). The schema is flat (only
//!   numbers, booleans, and closed-vocabulary strings), so the parser is a
//!   small exact scanner, not a general JSON implementation.
//! * **CSV** — a header row plus one row per event ([`to_csv`] /
//!   [`from_csv`]), column order fixed by [`COLUMNS`].
//!
//! Both directions round-trip losslessly (`from_*(to_*(t)) == t`), which
//! the figure binaries rely on: they export traces and re-read them to
//! build tables. [`summary`] folds a trace into per-mode aggregates for
//! quick human inspection.

use crate::stats::{Mode, Op, ReprKind, RoundStat, TraversalStats};
use std::fmt::Write as _;

/// Column order shared by the CSV header and the JSON key order.
pub const COLUMNS: [&str; 18] = [
    "round",
    "op",
    "mode",
    "frontier_vertices",
    "frontier_out_edges",
    "work",
    "threshold",
    "forced",
    "input_repr",
    "output_repr",
    "converted",
    "output_vertices",
    "frontier_bytes",
    "time_ns",
    "cas_attempts",
    "cas_wins",
    "edges_scanned",
    "edges_skipped",
];

/// Serializes a trace as JSON lines: one flat object per event, keys in
/// [`COLUMNS`] order, `round` being the event's position in the trace.
pub fn to_json_lines(stats: &TraversalStats) -> String {
    let mut out = String::new();
    for (i, r) in stats.rounds.iter().enumerate() {
        let _ = write!(
            out,
            concat!(
                "{{\"round\":{},\"op\":\"{}\",\"mode\":\"{}\",",
                "\"frontier_vertices\":{},\"frontier_out_edges\":{},",
                "\"work\":{},\"threshold\":{},\"forced\":{},",
                "\"input_repr\":\"{}\",\"output_repr\":\"{}\",\"converted\":{},",
                "\"output_vertices\":{},\"frontier_bytes\":{},\"time_ns\":{},",
                "\"cas_attempts\":{},\"cas_wins\":{},",
                "\"edges_scanned\":{},\"edges_skipped\":{}}}\n"
            ),
            i,
            r.op,
            r.mode,
            r.frontier_vertices,
            r.frontier_out_edges,
            r.work,
            r.threshold,
            r.forced,
            r.input_repr,
            r.output_repr,
            r.converted,
            r.output_vertices,
            r.frontier_bytes,
            r.time_ns,
            r.cas_attempts,
            r.cas_wins,
            r.edges_scanned,
            r.edges_skipped,
        );
    }
    out
}

/// Serializes a trace as CSV with a [`COLUMNS`] header row.
pub fn to_csv(stats: &TraversalStats) -> String {
    let mut out = COLUMNS.join(",");
    out.push('\n');
    for (i, r) in stats.rounds.iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            i,
            r.op,
            r.mode,
            r.frontier_vertices,
            r.frontier_out_edges,
            r.work,
            r.threshold,
            r.forced,
            r.input_repr,
            r.output_repr,
            r.converted,
            r.output_vertices,
            r.frontier_bytes,
            r.time_ns,
            r.cas_attempts,
            r.cas_wins,
            r.edges_scanned,
            r.edges_skipped,
        );
    }
    out
}

/// Strips one optional pair of surrounding quotes from a scanned JSON
/// token and rejects anything the flat closed-vocabulary schema never
/// emits: interior or unbalanced quotes and backslash escapes. Splitting
/// the line on `,`/`:` is only sound while those stay impossible inside
/// values, so smuggling them in must be a parse error, not silent
/// truncation.
fn unquote(token: &str) -> Result<&str, String> {
    let t = token.trim();
    let inner = match t.strip_prefix('"') {
        Some(rest) => rest.strip_suffix('"').ok_or_else(|| format!("{t:?}: unbalanced quotes"))?,
        None => t,
    };
    if inner.contains('"') || inner.contains('\\') {
        return Err(format!("{t:?}: quotes/escapes are not part of the trace schema"));
    }
    Ok(inner)
}

/// One parsed `key -> raw value` record from either format.
struct Record<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    fn get(&self, key: &str) -> Result<&'a str, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        let raw = self.get(key)?;
        raw.parse().map_err(|_| format!("field {key:?}: not a u64: {raw:?}"))
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("field {key:?}: not a bool: {other:?}")),
        }
    }

    fn round_stat(&self) -> Result<RoundStat, String> {
        Ok(RoundStat {
            op: self.get("op")?.parse::<Op>()?,
            frontier_vertices: self.u64("frontier_vertices")?,
            frontier_out_edges: self.u64("frontier_out_edges")?,
            work: self.u64("work")?,
            threshold: self.u64("threshold")?,
            forced: self.bool("forced")?,
            mode: self.get("mode")?.parse::<Mode>()?,
            input_repr: self.get("input_repr")?.parse::<ReprKind>()?,
            output_repr: self.get("output_repr")?.parse::<ReprKind>()?,
            converted: self.bool("converted")?,
            output_vertices: self.u64("output_vertices")?,
            frontier_bytes: self.u64("frontier_bytes")?,
            time_ns: self.u64("time_ns")?,
            cas_attempts: self.u64("cas_attempts")?,
            cas_wins: self.u64("cas_wins")?,
            edges_scanned: self.u64("edges_scanned")?,
            edges_skipped: self.u64("edges_skipped")?,
            scatter_bytes: 0,
        })
    }
}

/// Parses the output of [`to_json_lines`] back into a trace.
///
/// Accepts exactly the flat schema this module emits (no nesting, no
/// escapes, no embedded commas) — it is a format reader, not a general
/// JSON parser. Blank lines are skipped.
pub fn from_json_lines(text: &str) -> Result<TraversalStats, String> {
    let mut stats = TraversalStats::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let body = line
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("line {}: not a JSON object", lineno + 1))?;
        let mut fields = Vec::with_capacity(COLUMNS.len());
        for pair in body.split(',') {
            let (k, v) = pair
                .split_once(':')
                .ok_or_else(|| format!("line {}: malformed pair {pair:?}", lineno + 1))?;
            let k = unquote(k).map_err(|e| format!("line {}: key {e}", lineno + 1))?;
            let v = unquote(v).map_err(|e| format!("line {}: value {e}", lineno + 1))?;
            fields.push((k, v));
        }
        let rec = Record { fields };
        let r = rec.round_stat().map_err(|e| format!("line {}: {e}", lineno + 1))?;
        stats.rounds.push(r);
    }
    Ok(stats)
}

/// Parses the output of [`to_csv`] back into a trace.
///
/// The first non-empty line must be the [`COLUMNS`] header (any column
/// order is accepted; names bind values).
pub fn from_csv(text: &str) -> Result<TraversalStats, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> =
        lines.next().ok_or_else(|| "empty CSV".to_string())?.split(',').map(str::trim).collect();
    let mut stats = TraversalStats::new();
    for (lineno, line) in lines.enumerate() {
        let values: Vec<&str> = line.split(',').map(str::trim).collect();
        if values.len() != header.len() {
            return Err(format!(
                "row {}: {} values for {} columns",
                lineno + 2,
                values.len(),
                header.len()
            ));
        }
        let fields: Vec<(&str, &str)> =
            header.iter().copied().zip(values.iter().copied()).collect();
        let rec = Record { fields };
        let r = rec.round_stat().map_err(|e| format!("row {}: {e}", lineno + 2))?;
        stats.rounds.push(r);
    }
    Ok(stats)
}

/// Writes a trace as `<dir>/<stem>.jsonl` (the [`to_json_lines`] format)
/// and returns the path written. One shared helper so every producer of
/// on-disk kernel traces — the figure binaries and the engine's
/// per-query trace join — agrees on naming and format; a span or report
/// that carries `stem` can always be resolved back to its rows.
pub fn save_jsonl(
    dir: &std::path::Path,
    stem: &str,
    stats: &TraversalStats,
) -> Result<std::path::PathBuf, String> {
    let path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&path, to_json_lines(stats))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Aggregate view of a trace, one bucket per `edgeMap` mode plus totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total recorded events (edge and vertex operations).
    pub events: usize,
    /// `edgeMap` rounds by mode: sparse, dense, dense-forward.
    pub sparse_rounds: usize,
    /// Dense (pull) rounds.
    pub dense_rounds: usize,
    /// Dense-forward rounds.
    pub dense_forward_rounds: usize,
    /// Rounds whose input frontier was converted between representations.
    pub conversions: usize,
    /// Total wall-clock nanoseconds across all events.
    pub total_time_ns: u64,
    /// Σ edges scanned by the traversals.
    pub edges_scanned: u64,
    /// Σ in-edges skipped by the pull early exit.
    pub edges_skipped: u64,
    /// Σ atomic update attempts in the push traversals.
    pub cas_attempts: u64,
    /// Σ atomic update attempts that won.
    pub cas_wins: u64,
}

impl TraceSummary {
    /// Fraction of atomic update attempts that won (1.0 when none made).
    pub fn cas_win_rate(&self) -> f64 {
        if self.cas_attempts == 0 {
            1.0
        } else {
            self.cas_wins as f64 / self.cas_attempts as f64
        }
    }

    /// Fraction of in-edges the pull traversal avoided reading.
    pub fn early_exit_rate(&self) -> f64 {
        let total = self.edges_scanned + self.edges_skipped;
        if total == 0 {
            0.0
        } else {
            self.edges_skipped as f64 / total as f64
        }
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} events ({} sparse / {} dense / {} dense-fwd edgeMap rounds, {} conversions)",
            self.events,
            self.sparse_rounds,
            self.dense_rounds,
            self.dense_forward_rounds,
            self.conversions
        )?;
        writeln!(
            f,
            "time {:.3} ms | edges scanned {} skipped {} (early-exit {:.1}%)",
            self.total_time_ns as f64 / 1e6,
            self.edges_scanned,
            self.edges_skipped,
            100.0 * self.early_exit_rate()
        )?;
        write!(
            f,
            "cas attempts {} wins {} (win rate {:.1}%)",
            self.cas_attempts,
            self.cas_wins,
            100.0 * self.cas_win_rate()
        )
    }
}

/// Folds a trace into a [`TraceSummary`].
pub fn summary(stats: &TraversalStats) -> TraceSummary {
    let mut s = TraceSummary { events: stats.rounds.len(), ..TraceSummary::default() };
    for r in &stats.rounds {
        if r.op == Op::EdgeMap {
            match r.mode {
                Mode::Sparse => s.sparse_rounds += 1,
                Mode::Dense => s.dense_rounds += 1,
                Mode::DenseForward => s.dense_forward_rounds += 1,
                Mode::Partitioned => {}
            }
            if r.converted {
                s.conversions += 1;
            }
        }
        s.total_time_ns += r.time_ns;
        s.edges_scanned += r.edges_scanned;
        s.edges_skipped += r.edges_skipped;
        s.cas_attempts += r.cas_attempts;
        s.cas_wins += r.cas_wins;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraversalStats {
        let mut t = TraversalStats::new();
        t.rounds.push(RoundStat {
            op: Op::EdgeMap,
            frontier_vertices: 1,
            frontier_out_edges: 9,
            work: 10,
            threshold: 500,
            forced: false,
            mode: Mode::Sparse,
            input_repr: ReprKind::Sparse,
            output_repr: ReprKind::Sparse,
            converted: false,
            output_vertices: 9,
            frontier_bytes: 40,
            time_ns: 1234,
            cas_attempts: 9,
            cas_wins: 9,
            edges_scanned: 9,
            edges_skipped: 0,
            scatter_bytes: 0,
        });
        t.rounds.push(RoundStat {
            op: Op::EdgeMap,
            frontier_vertices: 900,
            frontier_out_edges: 8000,
            work: 8900,
            threshold: 500,
            forced: false,
            mode: Mode::Dense,
            input_repr: ReprKind::Sparse,
            output_repr: ReprKind::Dense,
            converted: true,
            output_vertices: 80,
            frontier_bytes: 256,
            time_ns: 5678,
            cas_attempts: 0,
            cas_wins: 0,
            edges_scanned: 1000,
            edges_skipped: 9000,
            scatter_bytes: 0,
        });
        t.rounds.push(RoundStat::vertex_op(Op::VertexMap, 80, ReprKind::Dense, 80));
        t
    }

    #[test]
    fn json_lines_round_trip() {
        let t = sample_trace();
        let text = to_json_lines(&t);
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().starts_with("{\"round\":0,\"op\":\"edge_map\""));
        let back = from_json_lines(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_round_trip() {
        let t = sample_trace();
        let text = to_csv(&t);
        assert_eq!(text.lines().next().unwrap(), COLUMNS.join(","));
        assert_eq!(text.lines().count(), 4);
        let back = from_csv(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraversalStats::new();
        assert_eq!(from_json_lines(&to_json_lines(&t)).unwrap(), t);
        assert_eq!(from_csv(&to_csv(&t)).unwrap(), t);
    }

    #[test]
    fn parsers_reject_malformed_input() {
        assert!(from_json_lines("not json\n").is_err());
        assert!(from_json_lines("{\"round\":0}\n").is_err(), "missing fields");
        assert!(from_csv("").is_err());
        let t = sample_trace();
        let mut csv = to_csv(&t);
        csv.push_str("1,2,3\n");
        assert!(from_csv(&csv).is_err(), "short row");
    }

    #[test]
    fn json_parser_rejects_quotes_and_escapes_in_values() {
        let good = to_json_lines(&sample_trace());
        // Interior quote, backslash escape, and unbalanced quote must all be
        // hard errors, never silently trimmed into a different value.
        for (from, to) in [
            ("\"sparse\"", "\"spa\"rse\""),
            ("\"sparse\"", "\"spa\\u0022rse\""),
            ("\"sparse\"", "\"sparse"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "mutation {to:?} did not apply");
            assert!(from_json_lines(&bad).is_err(), "accepted {to:?}");
        }
    }

    #[test]
    fn string_fields_stay_closed_vocabulary() {
        // The exact-scanner parsers split on ',' and ':' and forbid '"' and
        // '\\' inside values, so every string the serializers can emit must
        // avoid those four characters. This pins the schema: adding an enum
        // variant (or a new string column) whose rendering breaks the
        // invariant must fail here, not mis-parse downstream.
        let ops = [Op::EdgeMap, Op::VertexMap, Op::VertexFilter];
        let modes = [Mode::Sparse, Mode::Dense, Mode::DenseForward, Mode::Partitioned];
        let reprs = [ReprKind::Sparse, ReprKind::Dense];
        let rendered: Vec<String> = ops
            .iter()
            .map(ToString::to_string)
            .chain(modes.iter().map(ToString::to_string))
            .chain(reprs.iter().map(ToString::to_string))
            .collect();
        for s in &rendered {
            assert!(!s.contains([',', ':', '"', '\\']), "{s:?} would break the flat trace format");
        }
    }

    #[test]
    fn summary_aggregates_modes_and_counters() {
        let t = sample_trace();
        let s = summary(&t);
        assert_eq!(s.events, 3);
        assert_eq!((s.sparse_rounds, s.dense_rounds, s.dense_forward_rounds), (1, 1, 0));
        assert_eq!(s.conversions, 1);
        assert_eq!(s.total_time_ns, 1234 + 5678);
        assert_eq!(s.cas_attempts, 9);
        assert_eq!(s.edges_skipped, 9000);
        assert!((s.early_exit_rate() - 9000.0 / 10009.0).abs() < 1e-9);
        let text = s.to_string();
        assert!(text.contains("1 sparse / 1 dense"));
        assert!(text.contains("win rate 100.0%"));
    }
}
