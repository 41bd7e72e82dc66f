//! `edgeMap` running directly over the compressed representation.
//!
//! Ligra+'s key claim: decode-on-the-fly traversal costs about the same
//! time as (and sometimes less than, thanks to reduced memory traffic)
//! traversing the uncompressed CSR, at roughly half the space. The three
//! traversals mirror `ligra::edge_map`, with neighbor slices replaced by
//! streaming decoders.
//!
//! Telemetry follows the exact schema of the uncompressed path: the same
//! [`Recorder`] trait, the same [`RoundStat`] fields, the same counters
//! (CAS attempts/wins on the push modes, decoded-edge scanned/skipped on
//! the pull mode), so traces from compressed and uncompressed runs are
//! directly comparable.

use crate::cgraph::CompressedGraph;
use crate::codec::Codec;
use ligra::edge_map::EDGE_BLOCK;
use ligra::options::{EdgeMapOptions, Traversal};
use ligra::race::RaceOracle;
use ligra::stats::{
    EdgeCounters, Mode, NoopRecorder, Recorder, ReprKind, RoundStat, TraversalStats,
};
use ligra::traits::EdgeMapFn;
use ligra::vertex_subset::VertexSubset;
use ligra_graph::VertexId;
use ligra_parallel::bitvec::{AtomicBitVec, BitSet};
use ligra_parallel::checked_u32;
use ligra_parallel::scan::prefix_sums;
use ligra_parallel::utils::SendPtr;
use rayon::prelude::*;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// `edgeMap` over a compressed graph with default options.
pub fn edge_map<C: Codec, F: EdgeMapFn<()>>(
    g: &CompressedGraph<C>,
    frontier: &mut VertexSubset,
    f: &F,
) -> VertexSubset {
    edge_map_with(g, frontier, f, EdgeMapOptions::default())
}

/// `edgeMap` over a compressed graph with explicit options.
pub fn edge_map_with<C: Codec, F: EdgeMapFn<()>>(
    g: &CompressedGraph<C>,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
) -> VertexSubset {
    edge_map_impl(g, frontier, f, opts, &mut NoopRecorder)
}

/// `edgeMap` over a compressed graph recording one [`RoundStat`].
pub fn edge_map_traced<C: Codec, F: EdgeMapFn<()>>(
    g: &CompressedGraph<C>,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
    stats: &mut TraversalStats,
) -> VertexSubset {
    edge_map_impl(g, frontier, f, opts, stats)
}

/// `edgeMap` over a compressed graph delivering one timed,
/// counter-annotated [`RoundStat`] to an arbitrary [`Recorder`].
pub fn edge_map_recorded<C: Codec, F: EdgeMapFn<()>, R: Recorder>(
    g: &CompressedGraph<C>,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
    rec: &mut R,
) -> VertexSubset {
    edge_map_impl(g, frontier, f, opts, rec)
}

fn edge_map_impl<C: Codec, F: EdgeMapFn<()>, R: Recorder>(
    g: &CompressedGraph<C>,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOptions,
    rec: &mut R,
) -> VertexSubset {
    let n = g.num_vertices();
    assert_eq!(frontier.num_vertices(), n, "frontier universe does not match the graph");

    // Cancellation contract mirrors the uncompressed path: a cancelled
    // token makes the round a no-op with an empty result, unrecorded.
    if opts.is_cancelled() {
        return VertexSubset::empty(n);
    }

    let tracing = rec.enabled();
    let start = tracing.then(Instant::now);

    let frontier_vertices = frontier.len() as u64;
    // As in the uncompressed path: the degree sum only feeds the Auto
    // heuristic, so skip it for forced, unrecorded rounds.
    let need_work = tracing || matches!(opts.traversal, Traversal::Auto);
    let out_edges = if !need_work {
        0
    } else if let Some(vs) = frontier.sparse() {
        g.out_degree_sum(vs)
    } else if let Some(bits) = frontier.dense() {
        bits.words()
            .par_iter()
            .enumerate()
            .map(|(wi, &w0)| {
                let mut sum = 0u64;
                let mut w = w0;
                while w != 0 {
                    sum += g.out_degree(checked_u32(wi * 64) + w.trailing_zeros()) as u64;
                    w &= w - 1;
                }
                sum
            })
            .sum()
    } else {
        unreachable!()
    };
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

    // Round boundary for the race oracle, mirroring `ligra::edge_map`.
    #[cfg(feature = "race-check")]
    if let Some(o) = opts.oracle {
        o.begin_round();
    }

    let result = if frontier.is_empty() {
        VertexSubset::empty(n)
    } else {
        match mode {
            Mode::Sparse => {
                sparse(g, frontier.as_slice(), f, opts.deduplicate, opts.output, c, opts.oracle)
            }
            Mode::Dense => dense(g, frontier.as_bits(), f, opts.output, c, opts.oracle),
            Mode::DenseForward => {
                dense_forward(g, frontier.as_bits(), f, opts.output, c, opts.oracle)
            }
            Mode::Partitioned => unreachable!("no policy selects the removed partitioned mode"),
        }
    };

    if tracing {
        let wants_sparse = mode == Mode::Sparse;
        let converted = !frontier.is_empty() && wants_sparse != input_sparse;
        // Same accounting as the uncompressed path: sparse push streams 4
        // bytes per frontier entry and output vertex; dense modes stream
        // the packed bitset each way.
        let frontier_bytes = if frontier.is_empty() {
            0
        } else if wants_sparse {
            4 * (frontier_vertices + result.len() as u64)
        } else {
            let words = (n.div_ceil(64) * 8) as u64;
            words + if opts.output { words } else { 0 }
        };
        rec.record(RoundStat {
            op: ligra::stats::Op::EdgeMap,
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

fn sparse<C: Codec, F: EdgeMapFn<()>>(
    g: &CompressedGraph<C>,
    vs: &[VertexId],
    f: &F,
    deduplicate: bool,
    output: bool,
    counters: Option<&EdgeCounters>,
    oracle: Option<&RaceOracle>,
) -> VertexSubset {
    #[cfg(not(feature = "race-check"))]
    let _ = oracle;
    let n = g.num_vertices();
    let degrees: Vec<u64> = vs.par_iter().map(|&u| g.out_degree(u) as u64).collect();
    let (offsets, total) = prefix_sums(&degrees);
    let total = total as usize;
    if total == 0 {
        return VertexSubset::empty(n);
    }

    let seen = (deduplicate && output).then(|| AtomicBitVec::new(n));

    // Chunked compaction as in `ligra::edge_map`, but at vertex granularity:
    // a decoder cannot be seeked into the middle of a neighbor stream, so
    // block `b` owns the sources whose runs *start* inside its edge range
    // [b*EDGE_BLOCK, ...) and walks each of them to the end. Winners go to a
    // block-local buffer; no sentinel slots, no global filter pass.
    let nblocks = total.div_ceil(EDGE_BLOCK);
    let buffers: Vec<Vec<u32>> = (0..nblocks)
        .into_par_iter()
        .map(|b| {
            let lo = (b * EDGE_BLOCK) as u64;
            let hi = (((b + 1) * EDGE_BLOCK).min(total)) as u64;
            let i0 = offsets.partition_point(|&o| o < lo);
            let i1 = offsets.partition_point(|&o| o < hi);
            let cap = offsets.get(i1).copied().unwrap_or(total as u64)
                - offsets.get(i0).copied().unwrap_or(total as u64);
            let mut buf: Vec<u32> =
                if output { Vec::with_capacity(cap as usize) } else { Vec::new() };
            let mut scanned = 0u64;
            for &u in &vs[i0..i1] {
                scanned += g.out_degree(u) as u64;
                for v in g.out_neighbors(u) {
                    if f.cond(v) {
                        #[cfg(feature = "race-check")]
                        if let Some(o) = oracle {
                            o.enter_atomic(u, v);
                        }
                        let won = f.update_atomic(u, v, ());
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

fn dense<C: Codec, F: EdgeMapFn<()>>(
    g: &CompressedGraph<C>,
    bits: &BitSet,
    f: &F,
    output: bool,
    counters: Option<&EdgeCounters>,
    oracle: Option<&RaceOracle>,
) -> VertexSubset {
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
                let mut scanned = 0u64;
                if f.cond(vid) {
                    for u in g.in_neighbors(vid) {
                        scanned += 1;
                        if bits.get(u as usize) {
                            #[cfg(feature = "race-check")]
                            if let Some(o) = oracle {
                                o.enter_exclusive(u, vid);
                            }
                            let won = f.update(u, vid, ());
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
                scanned_w += scanned;
                skipped_w += g.in_degree(vid) as u64 - scanned;
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

fn dense_forward<C: Codec, F: EdgeMapFn<()>>(
    g: &CompressedGraph<C>,
    bits: &BitSet,
    f: &F,
    output: bool,
    counters: Option<&EdgeCounters>,
    oracle: Option<&RaceOracle>,
) -> VertexSubset {
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
                if let Some(c) = counters {
                    c.edges_scanned.add(g.out_degree(u) as u64);
                }
                for v in g.out_neighbors(u) {
                    if f.cond(v) {
                        #[cfg(feature = "race-check")]
                        if let Some(o) = oracle {
                            o.enter_atomic(u, v);
                        }
                        let won = f.update_atomic(u, v, ());
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
    use ligra::edge_fn;
    use ligra_graph::generators::erdos_renyi;

    #[test]
    fn all_traversals_match_uncompressed_edge_map() {
        let g = erdos_renyi(400, 3000, 1, true);
        let cg: CompressedGraph = CompressedGraph::from_graph(&g);
        let frontier: Vec<u32> = (0..400u32).filter(|v| v.is_multiple_of(9)).collect();

        let reference = {
            let f = edge_fn(|_s, _d, _w: ()| true, |_| true);
            let mut fr = VertexSubset::from_sparse(400, frontier.clone());
            ligra::edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().deduplicate(true))
                .to_vec_sorted()
        };

        for t in Traversal::ALL {
            let f = edge_fn(|_s, _d, _w: ()| true, |_| true);
            let mut fr = VertexSubset::from_sparse(400, frontier.clone());
            let out = edge_map_with(
                &cg,
                &mut fr,
                &f,
                EdgeMapOptions::new().traversal(t).deduplicate(true),
            );
            assert_eq!(out.to_vec_sorted(), reference, "traversal {t:?}");
        }
    }

    #[test]
    fn directed_compressed_dense_uses_transpose() {
        let g = erdos_renyi(200, 1500, 4, false);
        let cg: CompressedGraph = CompressedGraph::from_graph(&g);
        let frontier: Vec<u32> = (0..200u32).filter(|v| v.is_multiple_of(5)).collect();
        let mut expect: Vec<u32> =
            frontier.iter().flat_map(|&u| g.out_neighbors(u).iter().copied()).collect();
        expect.sort_unstable();
        expect.dedup();

        let f = edge_fn(|_s, _d, _w: ()| true, |_| true);
        let mut fr = VertexSubset::from_sparse(200, frontier);
        let out = edge_map_with(
            &cg,
            &mut fr,
            &f,
            EdgeMapOptions::new().traversal(Traversal::Dense).deduplicate(true),
        );
        assert_eq!(out.to_vec_sorted(), expect);
    }

    #[test]
    fn compressed_trace_matches_uncompressed_schema() {
        let g = erdos_renyi(300, 2400, 6, true);
        let cg: CompressedGraph = CompressedGraph::from_graph(&g);
        let f = edge_fn(|_s, _d, _w: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut fr = VertexSubset::from_sparse(300, vec![0, 5, 9]);
        let _ = edge_map_traced(&cg, &mut fr, &f, EdgeMapOptions::new(), &mut stats);
        let r = stats.rounds[0];
        assert_eq!(r.frontier_vertices, 3);
        assert_eq!(r.work, r.frontier_vertices + r.frontier_out_edges);
        assert_eq!(r.threshold, cg.num_edges() as u64 / 20);
        assert_eq!(r.mode == Mode::Dense, r.work > r.threshold);
        assert!(r.time_ns > 0);
        // Sparse mode walks every decoded out-edge.
        if r.mode == Mode::Sparse {
            assert_eq!(r.edges_scanned, r.frontier_out_edges);
        }
        // Exported trace from a compressed run round-trips like any other.
        let back = ligra::trace::from_json_lines(&ligra::trace::to_json_lines(&stats)).unwrap();
        assert_eq!(back, stats);
    }
}
