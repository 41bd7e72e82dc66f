//! `edgeMap` — Ligra's central primitive, with automatic direction
//! optimization.
//!
//! `edge_map(G, U, F)` applies `F` to every edge `(u, v)` with `u ∈ U` and
//! `C(v)`, returning the subset of targets for which `F` returned `true`.
//! Three concrete traversals implement it:
//!
//! * [`edge_map_sparse`] (push): the frontier's out-edge range is split into
//!   fixed-size blocks of [`EDGE_BLOCK`] edges (Ligra's granular
//!   parallel_for), so skewed degree distributions load-balance without
//!   per-edge task overhead. Each block writes the targets it claims into a
//!   local buffer; a prefix-sum stitch then copies the buffers into an
//!   exact-size output — no sentinel-filled `Σ deg⁺(u)` array, no second
//!   full-array compaction pass, and deduplication folds into the same walk.
//! * [`edge_map_dense`] (pull): parallel over *all* vertices, scanning each
//!   unclaimed target's in-edges sequentially with an early exit as soon as
//!   `cond` turns false. O(n + m) worst case, but for huge frontiers the
//!   early exit reads only a small fraction of edges, and no atomics are
//!   needed because each target has one owner thread. The frontier is the
//!   packed [`BitSet`]: one bit per source vertex read, and each task owns
//!   one 64-bit word of the output.
//! * [`edge_map_dense_forward`] (push over dense frontier): the paper's
//!   write-based dense variant — walks every frontier vertex's out-edges,
//!   needing no transpose but atomic updates and no early exit. Zero words
//!   of the frontier bitset skip 64 non-members with a single load.
//!
//! The direction heuristic (the paper's `|U| + Σ deg⁺(u) > m/20`) picks
//! pull for large frontiers and push for small ones, generalizing Beamer
//! et al.'s direction-optimizing BFS to every frontier algorithm.
//!
//! Every round can be observed through a [`Recorder`]: when the recorder is
//! enabled, the round is timed, the heuristic's inputs are captured, the
//! frontier bytes the traversal streams are reported, and the traversals
//! count atomic-update attempts/wins (push modes) and in-edges scanned vs.
//! skipped by the early exit (pull mode) into striped [`EdgeCounters`].
//! When disabled (the [`NoopRecorder`] default), none of that work happens —
//! not even the O(|U|) frontier-degree pass, if the traversal direction is
//! forced and the heuristic doesn't need it.

use crate::options::{EdgeMapOptions, Traversal};
use crate::race::RaceOracle;
use crate::stats::{
    EdgeCounters, Mode, NoopRecorder, Recorder, ReprKind, RoundStat, TraversalStats,
};
use crate::traits::EdgeMapFn;
use crate::vertex_subset::VertexSubset;
use ligra_graph::{Graph, VertexId};
use ligra_parallel::bitvec::{AtomicBitVec, BitSet};
use ligra_parallel::checked_u32;
use ligra_parallel::scan::prefix_sums;
use ligra_parallel::utils::SendPtr;
use rayon::prelude::*;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Edges per block of the edge-balanced sparse/hub traversals.
///
/// The push traversal splits the frontier's edge range `0..Σ deg⁺(u)` into
/// blocks of this many edges and hands each block to one task: a power-law
/// hub contributes to many blocks instead of serializing a round on one
/// thread, and a run of low-degree vertices shares one block instead of
/// paying per-vertex task overhead.
pub const EDGE_BLOCK: usize = 1 << 12;

/// Edge weight for position `j` of a weight slice; `()` graphs carry no
/// weight memory, so zero-sized `W` short-circuits to the default.
#[inline(always)]
fn wt<W: Copy + Default>(ws: &[W], j: usize) -> W {
    if std::mem::size_of::<W>() == 0 {
        W::default()
    } else {
        ws[j]
    }
}

/// `edgeMap` with default options (auto direction, `m/20` threshold).
///
/// The input subset may be converted between representations in place —
/// that is the conversion caching the original system performs.
pub fn edge_map<W, F>(g: &Graph<W>, frontier: &mut VertexSubset, f: &F) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
{
    edge_map_with(g, frontier, f, EdgeMapOptions::default())
}

/// `edgeMap` with explicit [`EdgeMapOptions`].
pub fn edge_map_with<W, F>(
    g: &Graph<W>,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
{
    edge_map_impl(g, frontier, f, opts, &mut NoopRecorder)
}

/// `edgeMap` recording one [`RoundStat`] into `stats`.
///
/// Equivalent to [`edge_map_recorded`] with a [`TraversalStats`] sink; kept
/// as the conventional entry point for the applications.
pub fn edge_map_traced<W, F>(
    g: &Graph<W>,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
    stats: &mut TraversalStats,
) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
{
    edge_map_impl(g, frontier, f, opts, stats)
}

/// `edgeMap` delivering one timed, counter-annotated [`RoundStat`] to an
/// arbitrary [`Recorder`].
pub fn edge_map_recorded<W, F, R>(
    g: &Graph<W>,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
    rec: &mut R,
) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
    R: Recorder,
{
    edge_map_impl(g, frontier, f, opts, rec)
}

fn edge_map_impl<W, F, R>(
    g: &Graph<W>,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
    rec: &mut R,
) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
    R: Recorder,
{
    let n = g.num_vertices();
    assert_eq!(frontier.num_vertices(), n, "frontier universe does not match the graph");

    // Cooperative cancellation: a cancelled (or deadline-expired) token
    // turns this round into an empty result, so frontier-driven loops
    // drain at the round boundary without touching any edge. Nothing is
    // recorded — the round did not run.
    if opts.is_cancelled() {
        return VertexSubset::empty(n);
    }

    let tracing = rec.enabled();
    let start = tracing.then(Instant::now);

    let frontier_vertices = frontier.len() as u64;
    // The degree sum is only an input to the Auto heuristic; when the
    // direction is forced and nobody is recording, skip the O(|U|) pass.
    let need_work = tracing || matches!(opts.traversal, Traversal::Auto);
    let out_edges = if need_work { frontier_degree_sum(g, frontier) } else { 0 };
    let work = frontier_vertices + out_edges;
    let threshold = opts.effective_threshold(g.num_edges());

    let mode = match opts.traversal {
        Traversal::Sparse => Mode::Sparse,
        Traversal::Dense => Mode::Dense,
        Traversal::DenseForward => Mode::DenseForward,
        Traversal::Auto if work > threshold => Mode::Dense,
        Traversal::Auto => Mode::Sparse,
    };

    let input_sparse = frontier.is_sparse();
    let counters = tracing.then(EdgeCounters::new);
    let c = counters.as_ref();

    // A new round starts: reset the oracle's per-round win ledger so a
    // Claim-contract function may legitimately re-win targets it claimed
    // in earlier rounds (Bellman–Ford relaxations, k-core decrements).
    #[cfg(feature = "race-check")]
    if let Some(o) = opts.oracle {
        o.begin_round();
    }

    // The `edgemap.round` fault point fires before any edge is touched.
    // This site has no error channel, so the Error action also surfaces
    // as an unwind with the typed FaultError payload; the engine's
    // catch_unwind boundary tells the two apart via `FaultError::action`.
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = opts.fault {
        if let Err(e) = plan.check(crate::fault::FaultPoint::EdgemapRound) {
            std::panic::panic_any(e);
        }
    }

    let result = if frontier.is_empty() {
        VertexSubset::empty(n)
    } else {
        match mode {
            Mode::Sparse => {
                let vs = frontier.as_slice();
                sparse_impl(g, vs, f, opts.deduplicate, opts.output, c, opts.oracle)
            }
            Mode::Dense => dense_impl(g, frontier.as_bits(), f, opts.output, c, opts.oracle),
            Mode::DenseForward => {
                dense_forward_impl(g, frontier.as_bits(), f, opts.output, c, opts.oracle)
            }
            Mode::Partitioned => unreachable!("no policy selects the removed partitioned mode"),
        }
    };

    if tracing {
        // The chosen traversal needs sparse input iff it is the push mode;
        // a mismatch with the entry representation means `as_slice` /
        // `as_bits` converted the frontier above (empty frontiers take
        // neither path).
        let wants_sparse = mode == Mode::Sparse;
        let converted = !frontier.is_empty() && wants_sparse != input_sparse;
        // Frontier bytes the traversal streamed: the input representation it
        // consumed plus the output it produced. Sparse push reads 4 bytes
        // per frontier entry and writes exactly 4 per claimed target (the
        // chunked compaction allocates no sentinel slots); the dense modes
        // stream the packed n/8-byte bitset each way.
        let frontier_bytes = if frontier.is_empty() {
            0
        } else if wants_sparse {
            4 * (frontier_vertices + result.len() as u64)
        } else {
            let words = (n.div_ceil(64) * 8) as u64;
            words + if opts.output { words } else { 0 }
        };
        rec.record(RoundStat {
            op: crate::stats::Op::EdgeMap,
            frontier_vertices,
            frontier_out_edges: out_edges,
            work,
            threshold,
            forced: !matches!(opts.traversal, Traversal::Auto),
            mode,
            input_repr: if input_sparse { ReprKind::Sparse } else { ReprKind::Dense },
            output_repr: if result.is_sparse() { ReprKind::Sparse } else { ReprKind::Dense },
            converted,
            output_vertices: result.len() as u64,
            frontier_bytes,
            time_ns: start.map_or(0, |t| t.elapsed().as_nanos() as u64),
            cas_attempts: c.map_or(0, |c| c.cas_attempts.sum()),
            cas_wins: c.map_or(0, |c| c.cas_wins.sum()),
            edges_scanned: c.map_or(0, |c| c.edges_scanned.sum()),
            edges_skipped: c.map_or(0, |c| c.edges_skipped.sum()),
            scatter_bytes: 0,
        });
    }
    result
}

/// `|U|`'s incident out-edge count, from whichever representation the
/// frontier currently has (no conversion). The dense pass decodes the
/// bitset word-at-a-time, skipping 64 non-members per zero word.
fn frontier_degree_sum<W: Copy + Send + Sync>(g: &Graph<W>, frontier: &VertexSubset) -> u64 {
    if let Some(vs) = frontier.sparse() {
        g.out_degree_sum(vs)
    } else if let Some(bits) = frontier.dense() {
        bits.words()
            .par_iter()
            .enumerate()
            .map(|(wi, &w0)| {
                let mut sum = 0u64;
                let mut w = w0;
                while w != 0 {
                    let v = checked_u32(wi * 64) + w.trailing_zeros();
                    w &= w - 1;
                    sum += g.out_degree(v) as u64;
                }
                sum
            })
            .sum()
    } else {
        unreachable!()
    }
}

/// Push traversal over a sparse frontier. Public for the ablation benches;
/// use [`edge_map_with`] with [`Traversal::Sparse`] in normal code.
pub fn edge_map_sparse<W, F>(
    g: &Graph<W>,
    vs: &[VertexId],
    f: &F,
    deduplicate: bool,
    output: bool,
) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
{
    sparse_impl(g, vs, f, deduplicate, output, None, None)
}

fn sparse_impl<W, F>(
    g: &Graph<W>,
    vs: &[VertexId],
    f: &F,
    deduplicate: bool,
    output: bool,
    counters: Option<&EdgeCounters>,
    oracle: Option<&RaceOracle>,
) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
{
    #[cfg(not(feature = "race-check"))]
    let _ = oracle;
    let n = g.num_vertices();
    // Offsets of each source's run within the frontier's edge range.
    let degrees: Vec<u64> = vs.par_iter().map(|&u| g.out_degree(u) as u64).collect();
    let (offsets, total) = prefix_sums(&degrees);
    let total = total as usize;
    if total == 0 {
        return VertexSubset::empty(n);
    }

    // Deduplication folds into the walk: the first claim of a target wins a
    // bit in `seen` and enters its block's buffer; later claims are dropped
    // at the source instead of in a second pass over the output.
    let seen = (deduplicate && output).then(|| AtomicBitVec::new(n));

    // Edge-balanced blocks: block `b` owns edges [b*EDGE_BLOCK, ...) of the
    // frontier's concatenated edge range, locating its first source by
    // binary search on the offsets (offsets[0] == 0, so the partition point
    // is never 0). Winners go to a block-local buffer; no shared output
    // array, no sentinels.
    let nblocks = total.div_ceil(EDGE_BLOCK);
    let buffers: Vec<Vec<u32>> = (0..nblocks)
        .into_par_iter()
        .map(|b| {
            let lo = (b * EDGE_BLOCK) as u64;
            let hi = (((b + 1) * EDGE_BLOCK).min(total)) as u64;
            let mut i = offsets.partition_point(|&o| o <= lo) - 1;
            let mut buf: Vec<u32> =
                if output { Vec::with_capacity((hi - lo) as usize) } else { Vec::new() };
            let mut scanned = 0u64;
            while i < vs.len() {
                let base = offsets[i];
                if base >= hi {
                    break;
                }
                let u = vs[i];
                let ns = g.out_neighbors(u);
                let ws = g.out_weights(u);
                // This block's sub-range of u's edges (empty for the
                // zero-degree sources sharing an offset).
                let j0 = lo.saturating_sub(base) as usize;
                let j1 = ns.len().min((hi - base) as usize);
                for (j, &v) in ns.iter().enumerate().take(j1).skip(j0) {
                    if f.cond(v) {
                        #[cfg(feature = "race-check")]
                        if let Some(o) = oracle {
                            o.enter_atomic(u, v);
                        }
                        let won = f.update_atomic(u, v, wt(ws, j));
                        #[cfg(feature = "race-check")]
                        if let Some(o) = oracle {
                            o.exit_atomic(u, v, won);
                        }
                        if let Some(c) = counters {
                            c.cas_attempts.incr();
                            if won {
                                c.cas_wins.incr();
                            }
                        }
                        if won && output && seen.as_ref().is_none_or(|s| s.set(v as usize)) {
                            buf.push(v);
                        }
                    }
                }
                scanned += (j1 - j0) as u64;
                i += 1;
            }
            if let Some(c) = counters {
                c.edges_scanned.add(scanned);
            }
            buf
        })
        .collect();

    if !output {
        return VertexSubset::empty(n);
    }

    // Prefix-sum stitch: one copy of each winner into an exact-size vector.
    let mut starts: Vec<usize> = buffers.iter().map(Vec::len).collect();
    let mut acc = 0usize;
    for s in starts.iter_mut() {
        let next = acc + *s;
        *s = acc;
        acc = next;
    }
    let mut next: Vec<u32> = Vec::with_capacity(acc);
    {
        let spare = next.spare_capacity_mut();
        let ptr = SendPtr(spare.as_mut_ptr().cast::<u32>());
        buffers.par_iter().enumerate().for_each(|(b, buf)| {
            let p = ptr;
            // SAFETY: scan offsets are disjoint across blocks and their sum
            // equals the reserved capacity.
            unsafe { std::ptr::copy_nonoverlapping(buf.as_ptr(), p.0.add(starts[b]), buf.len()) };
        });
    }
    // SAFETY: exactly `acc` slots were initialized.
    unsafe { next.set_len(acc) };
    VertexSubset::from_sparse(n, next)
}

/// Pull traversal over all vertices. Each target is owned by one thread,
/// so the non-atomic [`EdgeMapFn::update`] is used and the in-edge scan
/// stops as soon as `cond` fails (BFS: parent found). Frontier membership
/// is one packed bit per source; each task owns one output word, so the
/// produced bitset needs no atomics either.
pub fn edge_map_dense<W, F>(g: &Graph<W>, bits: &BitSet, f: &F, output: bool) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
{
    dense_impl(g, bits, f, output, None, None)
}

fn dense_impl<W, F>(
    g: &Graph<W>,
    bits: &BitSet,
    f: &F,
    output: bool,
    counters: Option<&EdgeCounters>,
    oracle: Option<&RaceOracle>,
) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
{
    #[cfg(not(feature = "race-check"))]
    let _ = oracle;
    let n = g.num_vertices();
    debug_assert_eq!(bits.len(), n);
    let nwords = bits.words().len();
    let words: Vec<u64> = (0..nwords)
        .into_par_iter()
        .map(|wi| {
            let lo = wi * 64;
            let hi = (lo + 64).min(n);
            let mut out_w = 0u64;
            let mut scanned_w = 0u64;
            let mut skipped_w = 0u64;
            for v in lo..hi {
                let vid = checked_u32(v);
                let ns = g.in_neighbors(vid);
                let mut scanned = 0usize;
                if f.cond(vid) {
                    let ws = g.in_weights(vid);
                    for (j, &u) in ns.iter().enumerate() {
                        scanned = j + 1;
                        if bits.get(u as usize) {
                            #[cfg(feature = "race-check")]
                            if let Some(o) = oracle {
                                o.enter_exclusive(u, vid);
                            }
                            let won = f.update(u, vid, wt(ws, j));
                            #[cfg(feature = "race-check")]
                            if let Some(o) = oracle {
                                o.exit_exclusive(u, vid, won);
                            }
                            if won && output {
                                out_w |= 1u64 << (v - lo);
                            }
                        }
                        if !f.cond(vid) {
                            break;
                        }
                    }
                }
                scanned_w += scanned as u64;
                skipped_w += (ns.len() - scanned) as u64;
            }
            if let Some(c) = counters {
                c.edges_scanned.add(scanned_w);
                c.edges_skipped.add(skipped_w);
            }
            out_w
        })
        .collect();
    if output {
        VertexSubset::from_bitset(n, BitSet::from_words(words, n))
    } else {
        VertexSubset::empty(n)
    }
}

/// Write-based dense traversal: walk the out-edges of every frontier
/// vertex using the dense representation. No transpose required, but
/// updates race (atomic variant used) and there is no early exit. A zero
/// frontier word skips 64 non-members with a single load; hub vertices
/// split their out-edges into [`EDGE_BLOCK`]-sized blocks.
pub fn edge_map_dense_forward<W, F>(
    g: &Graph<W>,
    bits: &BitSet,
    f: &F,
    output: bool,
) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
{
    dense_forward_impl(g, bits, f, output, None, None)
}

fn dense_forward_impl<W, F>(
    g: &Graph<W>,
    bits: &BitSet,
    f: &F,
    output: bool,
    counters: Option<&EdgeCounters>,
    oracle: Option<&RaceOracle>,
) -> VertexSubset
where
    W: Copy + Send + Sync + Default,
    F: EdgeMapFn<W>,
{
    #[cfg(not(feature = "race-check"))]
    let _ = oracle;
    let n = g.num_vertices();
    debug_assert_eq!(bits.len(), n);
    let mut next = BitSet::new(n);
    {
        let anext = next.as_atomic();
        bits.words().par_iter().enumerate().for_each(|(wi, &w0)| {
            if w0 == 0 {
                return;
            }
            let mut w = w0;
            while w != 0 {
                let u = checked_u32(wi * 64) + w.trailing_zeros();
                w &= w - 1;
                let ns = g.out_neighbors(u);
                let ws = g.out_weights(u);
                if let Some(c) = counters {
                    c.edges_scanned.add(ns.len() as u64);
                }
                let body = |j: usize| {
                    let v = ns[j];
                    if f.cond(v) {
                        #[cfg(feature = "race-check")]
                        if let Some(o) = oracle {
                            o.enter_atomic(u, v);
                        }
                        let won = f.update_atomic(u, v, wt(ws, j));
                        #[cfg(feature = "race-check")]
                        if let Some(o) = oracle {
                            o.exit_atomic(u, v, won);
                        }
                        if let Some(c) = counters {
                            c.cas_attempts.incr();
                            if won {
                                c.cas_wins.incr();
                            }
                        }
                        if won && output {
                            anext[(v >> 6) as usize].fetch_or(1u64 << (v & 63), Ordering::Relaxed);
                        }
                    }
                };
                if ns.len() > EDGE_BLOCK {
                    let nb = ns.len().div_ceil(EDGE_BLOCK);
                    (0..nb).into_par_iter().for_each(|b| {
                        let lo = b * EDGE_BLOCK;
                        let hi = ((b + 1) * EDGE_BLOCK).min(ns.len());
                        (lo..hi).for_each(&body);
                    });
                } else {
                    (0..ns.len()).for_each(&body);
                }
            }
        });
    }
    if output {
        VertexSubset::from_bitset(n, next)
    } else {
        VertexSubset::empty(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::edge_fn;
    use ligra_graph::generators::{erdos_renyi, star};
    use ligra_graph::{build_graph, BuildOptions};

    /// Frontier's neighborhood, computed three ways, must agree.
    fn neighborhood_via(g: &Graph, frontier: &[u32], traversal: Traversal) -> Vec<u32> {
        let f = edge_fn(|_s: u32, _d: u32, _w: ()| true, |_| true);
        let mut fr = VertexSubset::from_sparse(g.num_vertices(), frontier.to_vec());
        let opts = EdgeMapOptions::new().traversal(traversal).deduplicate(true);
        edge_map_with(g, &mut fr, &f, opts).to_vec_sorted()
    }

    fn reference_neighborhood(g: &Graph, frontier: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> =
            frontier.iter().flat_map(|&u| g.out_neighbors(u).iter().copied()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn all_traversals_agree_on_neighborhood() {
        let g = erdos_renyi(500, 4000, 7, true);
        let frontier: Vec<u32> = (0..500u32).filter(|v| v.is_multiple_of(13)).collect();
        let expect = reference_neighborhood(&g, &frontier);
        for t in Traversal::ALL {
            assert_eq!(neighborhood_via(&g, &frontier, t), expect, "traversal {t:?}");
        }
    }

    #[test]
    fn directed_graph_traversals_agree() {
        let g = erdos_renyi(300, 2500, 3, false);
        let frontier: Vec<u32> = (0..300u32).filter(|v| v.is_multiple_of(7)).collect();
        let expect = reference_neighborhood(&g, &frontier);
        for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
            assert_eq!(neighborhood_via(&g, &frontier, t), expect, "traversal {t:?}");
        }
    }

    #[test]
    fn empty_frontier_yields_empty_output() {
        let g = star(10);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::empty(10);
        let out = edge_map(&g, &mut fr, &f);
        assert!(out.is_empty());
    }

    #[test]
    fn cond_filters_targets() {
        // Star: frontier {0}, cond rejects odd vertices.
        let g = star(8);
        let f = edge_fn(|_, _, _: ()| true, |d: u32| d.is_multiple_of(2));
        let mut fr = VertexSubset::single(8, 0);
        for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
            let out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t));
            assert_eq!(out.to_vec_sorted(), vec![2, 4, 6], "traversal {t:?}");
        }
    }

    #[test]
    fn update_return_controls_membership() {
        // Keep only targets > 4.
        let g = star(8);
        let f = edge_fn(|_, d: u32, _: ()| d > 4, |_| true);
        let mut fr = VertexSubset::single(8, 0);
        let out = edge_map(&g, &mut fr, &f);
        assert_eq!(out.to_vec_sorted(), vec![5, 6, 7]);
    }

    #[test]
    fn auto_picks_sparse_for_tiny_frontier_and_dense_for_huge() {
        let g = erdos_renyi(2000, 40_000, 1, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();

        let mut tiny = VertexSubset::single(2000, 0);
        let _ = edge_map_traced(&g, &mut tiny, &f, EdgeMapOptions::new(), &mut stats);
        assert_eq!(stats.rounds[0].mode, Mode::Sparse);

        let mut huge = VertexSubset::all(2000);
        let _ = edge_map_traced(&g, &mut huge, &f, EdgeMapOptions::new(), &mut stats);
        assert_eq!(stats.rounds[1].mode, Mode::Dense);
    }

    #[test]
    fn threshold_override_flips_direction() {
        let g = erdos_renyi(1000, 10_000, 2, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(1000, 0);
        // Threshold 0: any nonempty frontier exceeds it -> dense.
        let _ = edge_map_traced(&g, &mut fr, &f, EdgeMapOptions::new().threshold(0), &mut stats);
        assert_eq!(stats.rounds[0].mode, Mode::Dense);
        // Huge threshold -> sparse even for the full set.
        let mut all = VertexSubset::all(1000);
        let _ = edge_map_traced(
            &g,
            &mut all,
            &f,
            EdgeMapOptions::new().threshold(u64::MAX),
            &mut stats,
        );
        assert_eq!(stats.rounds[1].mode, Mode::Sparse);
    }

    #[test]
    fn sparse_without_dedup_repeats_targets() {
        // Two sources both point at vertex 2.
        let g = build_graph(3, &[(0, 2), (1, 2)], BuildOptions::directed());
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::from_sparse(3, vec![0, 1]);
        let out =
            edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(Traversal::Sparse));
        assert_eq!(out.to_vec_sorted(), vec![2, 2]);
        let deduped = edge_map_with(
            &g,
            &mut fr,
            &f,
            EdgeMapOptions::new().traversal(Traversal::Sparse).deduplicate(true),
        );
        assert_eq!(deduped.to_vec_sorted(), vec![2]);
    }

    #[test]
    fn no_output_returns_empty_but_applies_updates() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = star(50);
        let hits = AtomicUsize::new(0);
        let f = edge_fn(
            |_, _, _: ()| {
                hits.fetch_add(1, Ordering::Relaxed);
                true
            },
            |_| true,
        );
        let mut fr = VertexSubset::single(50, 0);
        for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
            hits.store(0, Ordering::Relaxed);
            let out =
                edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t).no_output());
            assert!(out.is_empty(), "traversal {t:?}");
            assert_eq!(hits.load(Ordering::Relaxed), 49, "traversal {t:?}");
        }
    }

    #[test]
    fn dense_early_exit_stops_scanning() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Complete-ish graph: vertex v has many in-neighbors; cond turns
        // false after the first update, so each target sees ~1 call.
        let g = ligra_graph::generators::complete(64);
        let calls = AtomicUsize::new(0);
        let done = AtomicBitVec::new(64);
        let f = edge_fn(
            |_, d: u32, _: ()| {
                calls.fetch_add(1, Ordering::Relaxed);
                done.set(d as usize);
                true
            },
            |d: u32| !done.get(d as usize),
        );
        let mut fr = VertexSubset::all(64);
        let _ = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(Traversal::Dense));
        let c = calls.load(Ordering::Relaxed);
        assert!(c <= 64 + 63, "early exit failed: {c} calls for 64 targets");
    }

    #[test]
    fn weighted_edge_map_passes_weights() {
        use ligra_graph::build_weighted_graph;
        let g = build_weighted_graph(3, &[(0, 1), (0, 2)], &[10, 20], BuildOptions::directed());
        // Keep targets whose incoming weight is 20.
        let f = edge_fn(|_, _, w: i32| w == 20, |_| true);
        let mut fr = VertexSubset::single(3, 0);
        for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
            let out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t));
            assert_eq!(out.to_vec_sorted(), vec![2], "traversal {t:?}");
        }
    }

    #[test]
    fn cancelled_round_is_a_recordless_no_op() {
        use crate::cancel::CancelToken;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = star(16);
        let hits = AtomicUsize::new(0);
        let f = edge_fn(
            |_, _, _: ()| {
                hits.fetch_add(1, Ordering::Relaxed);
                true
            },
            |_| true,
        );
        let token = CancelToken::new();
        token.cancel();
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(16, 0);
        let out =
            edge_map_traced(&g, &mut fr, &f, EdgeMapOptions::new().cancel(&token), &mut stats);
        assert!(out.is_empty(), "cancelled round must produce an empty frontier");
        assert_eq!(hits.load(Ordering::Relaxed), 0, "no edge may be touched");
        assert_eq!(stats.num_rounds(), 0, "a skipped round records nothing");

        // A live token changes nothing.
        let live = CancelToken::new();
        let mut fr = VertexSubset::single(16, 0);
        let out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().cancel(&live));
        assert_eq!(out.len(), 15);
    }

    #[test]
    #[should_panic(expected = "universe does not match")]
    fn mismatched_universe_panics() {
        let g = star(5);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::single(6, 0);
        let _ = edge_map(&g, &mut fr, &f);
    }

    #[test]
    fn recorded_round_captures_heuristic_inputs() {
        let g = erdos_renyi(1000, 10_000, 5, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::from_sparse(1000, vec![0, 1, 2]);
        let _ = edge_map_traced(&g, &mut fr, &f, EdgeMapOptions::new(), &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.frontier_vertices, 3);
        assert_eq!(r.work, r.frontier_vertices + r.frontier_out_edges);
        assert_eq!(r.threshold, g.num_edges() as u64 / 20);
        assert!(!r.forced);
        // Auto consistency: dense iff work exceeded the threshold.
        assert_eq!(r.mode == Mode::Dense, r.work > r.threshold);
    }

    #[test]
    fn recorded_round_detects_conversion() {
        let g = erdos_renyi(500, 5000, 9, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);

        // Sparse input forced through the pull traversal: must convert.
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::from_sparse(500, vec![0, 1]);
        let opts = EdgeMapOptions::new().traversal(Traversal::Dense);
        let _ = edge_map_traced(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.input_repr, ReprKind::Sparse);
        assert!(r.converted);
        assert!(r.forced);
        assert_eq!(r.output_repr, ReprKind::Dense);

        // Sparse input through the push traversal: no conversion.
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::from_sparse(500, vec![0, 1]);
        let opts = EdgeMapOptions::new().traversal(Traversal::Sparse);
        let _ = edge_map_traced(&g, &mut fr, &f, opts, &mut stats);
        assert!(!stats.rounds[0].converted);
    }

    #[test]
    fn sparse_round_counts_cas_attempts_and_wins() {
        // Star from 0: 7 targets, cond rejects odd ones, update claims >4.
        let g = star(8);
        let f = edge_fn(|_, d: u32, _: ()| d > 4, |d: u32| d.is_multiple_of(2));
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(8, 0);
        let opts = EdgeMapOptions::new().traversal(Traversal::Sparse);
        let _ = edge_map_traced(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.edges_scanned, 7, "all out-edges walked");
        assert_eq!(r.cas_attempts, 3, "targets 2, 4, 6 pass cond");
        assert_eq!(r.cas_wins, 1, "only target 6 is > 4");
        assert_eq!(r.edges_skipped, 0, "push mode has no early exit");
    }

    #[test]
    fn dense_round_counts_scanned_and_skipped_edges() {
        use ligra_graph::generators::complete;
        // Full frontier on K64 with a one-shot cond: the early exit must
        // leave most in-edges unread, and scanned+skipped must cover all m.
        let g = complete(64);
        let done = AtomicBitVec::new(64);
        let f = edge_fn(
            |_, d: u32, _: ()| {
                done.set(d as usize);
                true
            },
            |d: u32| !done.get(d as usize),
        );
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::all(64);
        let opts = EdgeMapOptions::new().traversal(Traversal::Dense);
        let _ = edge_map_traced(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[0];
        let total_in_edges = g.num_edges() as u64;
        assert_eq!(r.edges_scanned + r.edges_skipped, total_in_edges);
        assert!(r.edges_scanned <= 64 + 63, "early exit must bound the scan");
        assert!(r.edges_skipped > 0);
        assert_eq!(r.cas_attempts, 0, "pull mode uses no atomics");
    }

    #[test]
    fn forced_untracked_round_skips_degree_sum_but_traced_does_not() {
        let g = star(16);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::single(16, 0);
        // Untracked + forced: work fields never materialize (observable only
        // as "still correct output" — the skip is a pure optimization).
        let out =
            edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(Traversal::Sparse));
        assert_eq!(out.len(), 15);
        // Traced + forced: the degree sum must still be recorded.
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(16, 0);
        let _ = edge_map_traced(
            &g,
            &mut fr,
            &f,
            EdgeMapOptions::new().traversal(Traversal::Sparse),
            &mut stats,
        );
        assert_eq!(stats.rounds[0].frontier_out_edges, 15);
        assert!(stats.rounds[0].forced);
    }

    #[test]
    fn recorded_rounds_have_nonzero_time() {
        let g = erdos_renyi(200, 1000, 4, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(200, 0);
        let _ = edge_map_traced(&g, &mut fr, &f, EdgeMapOptions::new(), &mut stats);
        assert!(stats.rounds[0].time_ns > 0);
    }

    #[test]
    fn sparse_push_spanning_many_edge_blocks_matches_reference() {
        // A hub whose degree is many EDGE_BLOCKs plus a tail of small
        // vertices: exercises the partition-point start, the mid-hub block
        // boundaries, and the stitch across non-uniform buffer sizes.
        let hub_deg = 3 * EDGE_BLOCK + 17;
        let n = hub_deg + 10;
        let mut edges: Vec<(u32, u32)> = (0..hub_deg as u32).map(|j| (0, j + 1)).collect();
        for k in 0..9u32 {
            edges.push((1 + k, n as u32 - 1));
        }
        let g = build_graph(n, &edges, BuildOptions::directed());
        let frontier: Vec<u32> = (0..10u32).collect();
        let expect = reference_neighborhood(&g, &frontier);
        for t in [Traversal::Sparse, Traversal::Auto] {
            assert_eq!(neighborhood_via(&g, &frontier, t), expect, "traversal {t:?}");
        }
    }

    #[test]
    fn sparse_frontier_with_zero_degree_sources() {
        // Sources with no out-edges share prefix-sum offsets with their
        // neighbors; the block walk must neither visit their (empty) edge
        // ranges twice nor lose the edges around them.
        let g = build_graph(6, &[(0, 5), (3, 4)], BuildOptions::directed());
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut fr = VertexSubset::from_sparse(6, vec![0, 1, 2, 3]);
        let out =
            edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(Traversal::Sparse));
        assert_eq!(out.to_vec_sorted(), vec![4, 5]);
    }

    #[test]
    fn recorded_sparse_round_reports_exact_output_bytes() {
        // Star from 0: 7 out-edges, but only 3 targets pass cond. The old
        // sentinel scheme allocated 4*7 output bytes; chunked compaction
        // reports exactly 4*(|U| + |output|).
        let g = star(8);
        let f = edge_fn(|_, _, _: ()| true, |d: u32| d.is_multiple_of(2));
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::single(8, 0);
        let opts = EdgeMapOptions::new().traversal(Traversal::Sparse);
        let _ = edge_map_traced(&g, &mut fr, &f, opts, &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.output_vertices, 3);
        assert_eq!(r.frontier_bytes, 4 * (1 + 3));
    }

    #[test]
    fn recorded_dense_round_reports_packed_bitset_bytes() {
        let g = erdos_renyi(1000, 10_000, 2, true);
        let f = edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::all(1000);
        let opts = EdgeMapOptions::new().traversal(Traversal::Dense);
        let _ = edge_map_traced(&g, &mut fr, &f, opts, &mut stats);
        let words = 1000usize.div_ceil(64) as u64 * 8;
        assert_eq!(stats.rounds[0].frontier_bytes, 2 * words, "input + output bitset");

        // Without output only the input side is streamed.
        let mut fr = VertexSubset::all(1000);
        let _ = edge_map_traced(&g, &mut fr, &f, opts.no_output(), &mut stats);
        assert_eq!(stats.rounds[1].frontier_bytes, words);
    }
}
