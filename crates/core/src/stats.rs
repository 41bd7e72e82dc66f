//! Traversal telemetry: structured per-round events for `edgeMap` and
//! `vertexMap`.
//!
//! The paper's entire contribution is a runtime *decision* — the
//! `|U| + Σ deg⁺(u) > m/20` direction heuristic — so the framework records
//! not only which branch was taken but what it cost: per-round wall-clock,
//! the heuristic's inputs (`work` vs. effective `threshold`), the frontier
//! representation on entry/exit and whether a sparse↔dense conversion
//! happened, and contention counters (CAS attempts vs. wins on the
//! write-based traversals, in-edges scanned vs. skipped by the early exit
//! on the pull traversal).
//!
//! Collection is driven by the [`Recorder`] trait. The default
//! [`NoopRecorder`] reports `enabled() == false`, which lets the hot path
//! skip timers, counter allocation, and even the O(|U|) frontier-degree
//! pass when the traversal direction is forced — tracing off costs
//! nothing. [`TraversalStats`] is the recording implementation: it stores
//! every event in execution order and can export them as JSON-lines or
//! CSV (see [`crate::trace`]).

use ligra_parallel::counter::StripedU64;

/// Which concrete traversal `edgeMap` executed for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Push over the sparse frontier.
    Sparse,
    /// Pull over all vertices (read in-edges, early exit).
    Dense,
    /// Push over the dense frontier (no transpose needed).
    DenseForward,
    /// Never produced: the partitioned scatter/gather traversal was
    /// removed. Kept only so the `perfbench/` benchmark, which names
    /// every mode, compiles until its next revision.
    Partitioned,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Sparse => write!(f, "sparse"),
            Mode::Dense => write!(f, "dense"),
            Mode::DenseForward => write!(f, "dense-fwd"),
            Mode::Partitioned => write!(f, "partitioned"),
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sparse" => Ok(Mode::Sparse),
            "dense" => Ok(Mode::Dense),
            "dense-fwd" => Ok(Mode::DenseForward),
            "partitioned" => Ok(Mode::Partitioned),
            other => Err(format!("unknown mode {other:?}")),
        }
    }
}

/// Which framework operation produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An `edgeMap` round.
    EdgeMap,
    /// A `vertexMap` pass.
    VertexMap,
    /// A `vertexFilter` pass.
    VertexFilter,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::EdgeMap => write!(f, "edge_map"),
            Op::VertexMap => write!(f, "vertex_map"),
            Op::VertexFilter => write!(f, "vertex_filter"),
        }
    }
}

impl std::str::FromStr for Op {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "edge_map" => Ok(Op::EdgeMap),
            "vertex_map" => Ok(Op::VertexMap),
            "vertex_filter" => Ok(Op::VertexFilter),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// A `vertexSubset` representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprKind {
    /// Member-ID list.
    Sparse,
    /// Packed bitset of `n` bits (one bit per vertex).
    Dense,
}

impl std::fmt::Display for ReprKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReprKind::Sparse => write!(f, "sparse"),
            ReprKind::Dense => write!(f, "dense"),
        }
    }
}

impl std::str::FromStr for ReprKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sparse" => Ok(ReprKind::Sparse),
            "dense" => Ok(ReprKind::Dense),
            other => Err(format!("unknown representation {other:?}")),
        }
    }
}

/// One recorded framework operation (the trace event schema).
///
/// Every field is scalar so events are `Copy`, allocation-free to record,
/// and serialize losslessly to flat JSON/CSV. Counter fields are zero when
/// the producing operation does not define them (e.g. `cas_attempts` on a
/// pull round, every edge counter on a `vertexMap` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStat {
    /// Which operation produced this event.
    pub op: Op,
    /// `|U|` — number of vertices in the input frontier.
    pub frontier_vertices: u64,
    /// `Σ_{u∈U} deg⁺(u)` — out-edges incident to the frontier.
    pub frontier_out_edges: u64,
    /// The heuristic's input: `|U| + Σ deg⁺(u)`.
    pub work: u64,
    /// The effective direction threshold this round compared against
    /// (the paper's `m/20` unless overridden).
    pub threshold: u64,
    /// Whether the traversal was forced by options (non-`Auto`), i.e. the
    /// heuristic did not decide this round.
    pub forced: bool,
    /// Traversal the framework executed.
    pub mode: Mode,
    /// Representation of the input frontier on entry.
    pub input_repr: ReprKind,
    /// Representation of the output subset.
    pub output_repr: ReprKind,
    /// Whether the input frontier was converted between representations to
    /// satisfy the chosen traversal (the conversion the paper's
    /// `vertexSubset` performs lazily).
    pub converted: bool,
    /// Number of vertices in the output subset (0 when output is skipped).
    pub output_vertices: u64,
    /// Frontier-representation bytes the operation streamed: input plus
    /// produced output. Sparse push reads 4 bytes per frontier entry and
    /// writes exactly 4 per output vertex (chunk-compacted, no sentinel
    /// slots); dense modes stream the packed `⌈n/64⌉·8`-byte bitset each
    /// way. Vertex ops report the bytes of the representation they walked.
    pub frontier_bytes: u64,
    /// Wall-clock nanoseconds for the whole operation (0 when the recorder
    /// was disabled mid-flight — never the case for [`TraversalStats`]).
    pub time_ns: u64,
    /// Atomic update attempts (sparse/dense-forward: one per `update_atomic`
    /// call on a `cond`-passing target).
    pub cas_attempts: u64,
    /// Atomic update attempts that won (returned `true`).
    pub cas_wins: u64,
    /// Edges actually examined: out-edges walked by the push traversals,
    /// in-edges read before the early exit by the pull traversal.
    pub edges_scanned: u64,
    /// In-edges *not* read in dense-pull rounds because `cond` failed at or
    /// during the target's scan (the early-exit saving; 0 for push modes).
    pub edges_skipped: u64,
    /// Always 0: no traversal scatters into bins since the partitioned
    /// traversal was removed. Kept only so the `perfbench/` benchmark,
    /// which reads it, compiles until its next revision.
    pub scatter_bytes: u64,
}

impl RoundStat {
    /// An event for a vertex-level operation over `vertices` members of a
    /// subset currently in representation `repr`.
    pub fn vertex_op(op: Op, vertices: u64, repr: ReprKind, output_vertices: u64) -> Self {
        RoundStat {
            op,
            frontier_vertices: vertices,
            frontier_out_edges: 0,
            work: vertices,
            threshold: 0,
            forced: false,
            mode: match repr {
                ReprKind::Sparse => Mode::Sparse,
                ReprKind::Dense => Mode::Dense,
            },
            input_repr: repr,
            output_repr: repr,
            converted: false,
            output_vertices,
            frontier_bytes: 0,
            time_ns: 0,
            cas_attempts: 0,
            cas_wins: 0,
            edges_scanned: 0,
            edges_skipped: 0,
            scatter_bytes: 0,
        }
    }
}

/// Sink for per-round telemetry events.
///
/// `edge_map` and the recorded `vertexMap` variants consult
/// [`Recorder::enabled`] once per operation: when it returns `false`, all
/// measurement work (timers, counter striping, the O(|U|) degree pass for
/// a forced traversal) is skipped, making the disabled path effectively
/// free. [`TraversalStats`] records; [`NoopRecorder`] does not.
pub trait Recorder {
    /// Whether events should be measured and delivered.
    fn enabled(&self) -> bool;

    /// Consumes one event. Only called when [`Recorder::enabled`] held at
    /// the start of the operation.
    fn record(&mut self, round: RoundStat);
}

/// The zero-overhead default recorder: disabled, records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _round: RoundStat) {}
}

impl Recorder for TraversalStats {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, round: RoundStat) {
        self.rounds.push(round);
    }
}

/// Per-round trace of a frontier-based computation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// One entry per recorded operation, in execution order.
    pub rounds: Vec<RoundStat>,
}

impl TraversalStats {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events (all operations).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The `edgeMap` events only, in execution order.
    pub fn edge_map_rounds(&self) -> impl Iterator<Item = &RoundStat> {
        self.rounds.iter().filter(|r| r.op == Op::EdgeMap)
    }

    /// `edgeMap` rounds that ran in each mode: `(sparse, dense,
    /// dense_forward)`.
    pub fn mode_counts(&self) -> (usize, usize, usize) {
        let mut s = 0;
        let mut d = 0;
        let mut f = 0;
        for r in self.edge_map_rounds() {
            match r.mode {
                Mode::Sparse => s += 1,
                Mode::Dense => d += 1,
                Mode::DenseForward => f += 1,
                Mode::Partitioned => {}
            }
        }
        (s, d, f)
    }

    /// Total edges incident to all frontiers (the work the traversal
    /// touched, modulo early exit).
    pub fn total_frontier_edges(&self) -> u64 {
        self.edge_map_rounds().map(|r| r.frontier_out_edges).sum()
    }

    /// Total wall-clock nanoseconds across all recorded events.
    pub fn total_time_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.time_ns).sum()
    }
}

/// Live counters one `edgeMap` round accumulates into, striped per thread
/// so the traversal's inner loops pay one uncontended relaxed RMW per
/// frontier vertex (or per edge on nested-parallel hubs). Only allocated
/// when the recorder is enabled.
#[derive(Debug, Default)]
pub struct EdgeCounters {
    /// `update_atomic` calls on `cond`-passing targets.
    pub cas_attempts: StripedU64,
    /// `update_atomic` calls that returned `true`.
    pub cas_wins: StripedU64,
    /// Edges examined (out-edges pushed, or in-edges read before early exit).
    pub edges_scanned: StripedU64,
    /// In-edges skipped by the pull traversal's early exit / `cond` filter.
    pub edges_skipped: StripedU64,
}

impl EdgeCounters {
    /// Fresh zeroed counters striped for the current thread pool.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn round(mode: Mode, out: u64) -> RoundStat {
        RoundStat {
            op: Op::EdgeMap,
            frontier_vertices: 1,
            frontier_out_edges: 10,
            work: 11,
            threshold: 100,
            forced: false,
            mode,
            input_repr: ReprKind::Sparse,
            output_repr: ReprKind::Sparse,
            converted: false,
            output_vertices: out,
            frontier_bytes: 4 * (1 + out),
            time_ns: 42,
            cas_attempts: 10,
            cas_wins: out,
            edges_scanned: 10,
            edges_skipped: 0,
            scatter_bytes: 0,
        }
    }

    #[test]
    fn mode_counting() {
        let mut t = TraversalStats::new();
        for (mode, out) in [(Mode::Sparse, 2), (Mode::Dense, 100), (Mode::Sparse, 1)] {
            t.rounds.push(round(mode, out));
        }
        t.rounds.push(RoundStat::vertex_op(Op::VertexMap, 7, ReprKind::Dense, 7));
        assert_eq!(t.num_rounds(), 4);
        assert_eq!(t.mode_counts(), (2, 1, 0), "vertex ops must not count as modes");
        assert_eq!(t.total_frontier_edges(), 30);
    }

    #[test]
    fn display_names() {
        assert_eq!(Mode::Sparse.to_string(), "sparse");
        assert_eq!(Mode::Dense.to_string(), "dense");
        assert_eq!(Mode::DenseForward.to_string(), "dense-fwd");
        assert_eq!(Mode::Partitioned.to_string(), "partitioned");
        assert_eq!(Op::EdgeMap.to_string(), "edge_map");
        assert_eq!(ReprKind::Dense.to_string(), "dense");
    }

    #[test]
    fn enum_round_trips_through_strings() {
        for m in [Mode::Sparse, Mode::Dense, Mode::DenseForward, Mode::Partitioned] {
            assert_eq!(m.to_string().parse::<Mode>().unwrap(), m);
        }
        for o in [Op::EdgeMap, Op::VertexMap, Op::VertexFilter] {
            assert_eq!(o.to_string().parse::<Op>().unwrap(), o);
        }
        for r in [ReprKind::Sparse, ReprKind::Dense] {
            assert_eq!(r.to_string().parse::<ReprKind>().unwrap(), r);
        }
        assert!("pull".parse::<Mode>().is_err());
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.record(round(Mode::Sparse, 0)); // must be a no-op
    }

    #[test]
    fn traversal_stats_records() {
        let mut t = TraversalStats::new();
        assert!(Recorder::enabled(&t));
        Recorder::record(&mut t, round(Mode::Dense, 3));
        assert_eq!(t.num_rounds(), 1);
        assert_eq!(t.total_time_ns(), 42);
    }

    #[test]
    fn edge_counters_accumulate() {
        let c = EdgeCounters::new();
        c.cas_attempts.add(5);
        c.cas_wins.add(3);
        assert_eq!(c.cas_attempts.sum(), 5);
        assert_eq!(c.cas_wins.sum(), 3);
    }
}
