//! In-memory span log, recorded from the benchmark's side of each layer
//! boundary and written out when the run ends.

use ligra::{Op, Recorder, RoundStat};
use std::io::Write;
use std::time::Instant;

/// Identifier of a span within its [`SpanLog`].
pub type SpanId = usize;

/// One timed interval. Times are seconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `app.bfs` or `edge_map.sparse`.
    pub name: String,
    /// Start, seconds since the log's origin.
    pub start: f64,
    /// End, seconds since the log's origin.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one request or app call.
    pub trace: String,
}

impl Span {
    /// Wall-clock length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans of one run, kept in memory until [`SpanLog::write_jsonl`].
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    /// An empty log whose clock starts now.
    fn default() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    /// Seconds since the log's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Appends a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &str,
        start: f64,
        end: f64,
        parent: Option<SpanId>,
        trace: &str,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            trace: trace.to_string(),
        });
        self.spans.len() - 1
    }

    /// Starts a span now; [`SpanLog::close`] ends it. Children may name
    /// it as their parent while it is open.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, trace: &str) -> SpanId {
        let t = self.now();
        self.push(name, t, t, parent, trace)
    }

    /// Ends the span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        trace: &str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.push(name, start, end, parent, trace))
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by the union of its children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
            .collect()
    }

    /// Writes one flat JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trace\":\"{}\",\"parent\":{parent},\
                 \"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9}}}",
                s.name, s.trace, s.start, s.end, self_s
            )?;
        }
        out.flush()
    }
}

/// Length of the part of `[start, end]` covered by the union of `kids`.
fn covered(start: f64, end: f64, mut kids: Vec<(f64, f64)>) -> f64 {
    kids.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN span time"));
    let (mut total, mut reach) = (0.0, start);
    for (s, e) in kids {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A [`Recorder`] that turns every delivered [`RoundStat`] into a child
/// span of one app-call span, and keeps the stats for counting.
pub struct SpanRecorder<'a> {
    log: &'a mut SpanLog,
    parent: SpanId,
    trace: String,
    /// Every event delivered during the call, in order.
    pub rounds: Vec<RoundStat>,
}

impl<'a> SpanRecorder<'a> {
    /// Records into `log` under the span `parent`.
    pub fn new(log: &'a mut SpanLog, parent: SpanId, trace: &str) -> Self {
        SpanRecorder { log, parent, trace: trace.to_string(), rounds: Vec::new() }
    }
}

impl Recorder for SpanRecorder<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, round: RoundStat) {
        // Events arrive when the operation ends and carry its duration.
        let end = self.log.now();
        let start = (end - round.time_ns as f64 * 1e-9).max(0.0);
        let name = match round.op {
            Op::EdgeMap => format!("edge_map.{}", mode_name(round.mode)),
            Op::VertexMap => "vertex_map".to_string(),
            Op::VertexFilter => "vertex_filter".to_string(),
        };
        self.log.push(&name, start, end, Some(self.parent), &self.trace);
        self.rounds.push(round);
    }
}

/// Metric-name spelling of a traversal mode.
pub fn mode_name(mode: ligra::Mode) -> &'static str {
    match mode {
        ligra::Mode::Sparse => "sparse",
        ligra::Mode::Dense => "dense",
        ligra::Mode::DenseForward => "dense_forward",
        ligra::Mode::Partitioned => "partitioned",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(f64, f64, Option<SpanId>)]) -> SpanLog {
        let mut log = SpanLog::default();
        for &(s, e, p) in spans {
            log.push("x", s, e, p, "t");
        }
        log
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root [0,10]; children [1,3] and [2,5] overlap (union 4s) and a
        // grandchild [1,2] under the first child.
        let log = log_with(&[
            (0.0, 10.0, None),
            (1.0, 3.0, Some(0)),
            (2.0, 5.0, Some(0)),
            (1.0, 2.0, Some(1)),
        ]);
        let st = log.self_times();
        assert!((st[0] - 6.0).abs() < 1e-12);
        assert!((st[1] - 1.0).abs() < 1e-12);
        assert!((st[2] - 3.0).abs() < 1e-12);
        assert!((st[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let log = log_with(&[(0.0, 4.0, None), (3.0, 6.0, Some(0)), (-1.0, 1.0, Some(0))]);
        let st = log.self_times();
        assert!((st[0] - 2.0).abs() < 1e-12);
        assert!(st.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn disjoint_and_nested_children_never_double_count() {
        let log = log_with(&[
            (0.0, 10.0, None),
            (2.0, 8.0, Some(0)),
            (3.0, 4.0, Some(0)),
            (8.5, 9.0, Some(0)),
        ]);
        assert!((log.self_times()[0] - 3.5).abs() < 1e-12);
    }
}
