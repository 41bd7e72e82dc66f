//! Difference-encoded compressed graphs (Ligra+'s representation),
//! generic over the [`Codec`].
//!
//! Each vertex's sorted neighbor list is stored as a codec-encoded byte
//! string: the first neighbor as the signed difference `ngh₀ − v`
//! (neighbors cluster near their source in real graphs, so this is
//! small), the rest as positive gaps. Degrees and per-vertex byte offsets
//! stay uncompressed, exactly as in Ligra+.

use crate::codec::{ByteCode, Codec};
use ligra_graph::{Graph, VertexId};
use ligra_parallel::checked_u32;
use ligra_parallel::scan::prefix_sums;
use rayon::prelude::*;

/// One compressed direction of adjacency.
#[derive(Debug, Clone)]
pub struct CompressedAdjacency<C: Codec = ByteCode> {
    /// Byte offset of each vertex's encoded list (length `n + 1`).
    offsets: Vec<u64>,
    /// Degree of each vertex (length `n`).
    degrees: Vec<u32>,
    /// Concatenated codec output.
    data: Vec<u8>,
    _codec: std::marker::PhantomData<C>,
}

impl<C: Codec> CompressedAdjacency<C> {
    /// Compresses one CSR direction. Lists must be strictly sorted (the
    /// builder guarantees this for deduplicated graphs).
    pub fn from_adjacency(adj: &ligra_graph::Adjacency<()>) -> Self {
        let n = adj.num_vertices();
        let chunks: Vec<Vec<u8>> = (0..checked_u32(n))
            .into_par_iter()
            .map(|v| {
                let ns = adj.neighbors(v);
                debug_assert!(
                    ns.windows(2).all(|w| w[0] < w[1]),
                    "compressed lists require strictly sorted neighbors"
                );
                let mut buf = Vec::with_capacity(ns.len() + 4);
                C::encode_list(v, ns, &mut buf);
                buf
            })
            .collect();

        let sizes: Vec<u64> = chunks.iter().map(|c| c.len() as u64).collect();
        let (mut offsets, total) = prefix_sums(&sizes);
        offsets.push(total);
        let mut data = Vec::with_capacity(total as usize);
        for c in &chunks {
            data.extend_from_slice(c);
        }
        let degrees: Vec<u32> = (0..checked_u32(n)).map(|v| checked_u32(adj.degree(v))).collect();
        CompressedAdjacency { offsets, degrees, data, _codec: std::marker::PhantomData }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.degrees[v as usize] as usize
    }

    /// Bytes used by the encoded neighbor data (excluding offsets/degrees).
    #[inline]
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Total bytes of the structure (data + offsets + degrees).
    pub fn total_bytes(&self) -> usize {
        self.data.len() + self.offsets.len() * 8 + self.degrees.len() * 4
    }

    /// Iterates `v`'s neighbors in ascending order, decoding on the fly.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> C::Iter<'_> {
        C::decode_list(v, self.degrees[v as usize], &self.data, self.offsets[v as usize] as usize)
    }

    /// Decodes `v`'s full neighbor list into a vector.
    pub fn decode(&self, v: VertexId) -> Vec<VertexId> {
        self.neighbors(v).collect()
    }
}

/// A compressed graph: out-direction plus, for directed graphs, the
/// compressed transpose. Defaults to Ligra+'s byte codes.
#[derive(Debug, Clone)]
pub struct CompressedGraph<C: Codec = ByteCode> {
    out: CompressedAdjacency<C>,
    incoming: Option<CompressedAdjacency<C>>,
    num_edges: usize,
}

impl<C: Codec> CompressedGraph<C> {
    /// Compresses an uncompressed graph (both directions for directed
    /// inputs).
    pub fn from_graph(g: &Graph) -> Self {
        let out = CompressedAdjacency::from_adjacency(g.out_adj());
        let incoming = if g.is_symmetric() {
            None
        } else {
            Some(CompressedAdjacency::from_adjacency(g.in_adj()))
        };
        CompressedGraph { out, incoming, num_edges: g.num_edges() }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// True when one compressed CSR serves both directions.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.incoming.is_none()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_dir().degree(v)
    }

    /// Streaming out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> C::Iter<'_> {
        self.out.neighbors(v)
    }

    /// Streaming in-neighbors of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> C::Iter<'_> {
        self.in_dir().neighbors(v)
    }

    #[inline]
    fn in_dir(&self) -> &CompressedAdjacency<C> {
        self.incoming.as_ref().unwrap_or(&self.out)
    }

    /// Decodes `v`'s full out-neighbor list into a vector.
    pub fn decode(&self, v: VertexId) -> Vec<VertexId> {
        self.out.decode(v)
    }

    /// Sum of out-degrees over a vertex list.
    pub fn out_degree_sum(&self, vs: &[VertexId]) -> u64 {
        if vs.len() < 2048 {
            vs.iter().map(|&v| self.out_degree(v) as u64).sum()
        } else {
            vs.par_iter().map(|&v| self.out_degree(v) as u64).sum()
        }
    }

    /// Space report: `(compressed_bytes, csr_bytes, ratio)`. The CSR
    /// baseline counts 4 bytes per edge target plus 8 per offset, per
    /// stored direction — the same accounting Ligra+ uses.
    pub fn space_vs_csr(&self) -> (usize, usize, f64) {
        let dirs = if self.is_symmetric() { 1 } else { 2 };
        let csr = dirs * (self.num_edges * 4 + (self.num_vertices() + 1) * 8);
        let mut compressed = self.out.total_bytes();
        if let Some(inc) = &self.incoming {
            compressed += inc.total_bytes();
        }
        (compressed, csr, compressed as f64 / csr as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{ByteRleCode, NibbleCode};
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{erdos_renyi, grid3d, random_local, rmat};

    fn roundtrip_with<C: Codec>(g: &Graph) {
        let cg: CompressedGraph<C> = CompressedGraph::from_graph(g);
        assert_eq!(cg.num_vertices(), g.num_vertices());
        assert_eq!(cg.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(cg.decode(v), g.out_neighbors(v), "{}: out list of {v}", C::NAME);
            let ins: Vec<u32> = cg.in_neighbors(v).collect();
            assert_eq!(ins, g.in_neighbors(v), "{}: in list of {v}", C::NAME);
            assert_eq!(cg.out_degree(v), g.out_degree(v));
        }
    }

    fn roundtrip(g: &Graph) {
        roundtrip_with::<ByteCode>(g);
        roundtrip_with::<NibbleCode>(g);
        roundtrip_with::<ByteRleCode>(g);
    }

    #[test]
    fn roundtrips_all_families_all_codecs() {
        roundtrip(&grid3d(5));
        roundtrip(&random_local(2000, 6, 1));
        roundtrip(&rmat(&RmatOptions::paper(10)));
        roundtrip(&erdos_renyi(500, 3000, 2, false)); // directed
    }

    #[test]
    fn empty_lists_decode_empty() {
        let g = ligra_graph::build_graph(4, &[(0, 1)], ligra_graph::BuildOptions::directed());
        let cg: CompressedGraph = CompressedGraph::from_graph(&g);
        assert_eq!(cg.decode(2), Vec::<u32>::new());
        assert_eq!(cg.out_degree(2), 0);
    }

    #[test]
    fn local_graphs_compress_well() {
        let g = grid3d(16);
        let cg: CompressedGraph = CompressedGraph::from_graph(&g);
        let (compressed, csr, ratio) = cg.space_vs_csr();
        assert!(compressed < csr, "{compressed} vs {csr}");
        assert!(ratio < 0.8, "expected real savings on a grid, ratio {ratio}");
    }

    #[test]
    fn random_local_compresses_better_than_uniform_random() {
        let local: CompressedGraph = CompressedGraph::from_graph(&random_local(20_000, 8, 3));
        let uniform: CompressedGraph =
            CompressedGraph::from_graph(&erdos_renyi(20_000, 160_000, 3, true));
        let (_, _, r_local) = local.space_vs_csr();
        let (_, _, r_uniform) = uniform.space_vs_csr();
        assert!(r_local < r_uniform, "locality must help: local {r_local} vs uniform {r_uniform}");
    }

    #[test]
    fn nibble_is_smallest_on_local_graphs() {
        let g = grid3d(12);
        let byte: CompressedGraph<ByteCode> = CompressedGraph::from_graph(&g);
        let nibble: CompressedGraph<NibbleCode> = CompressedGraph::from_graph(&g);
        let (b, _, _) = byte.space_vs_csr();
        let (nb, _, _) = nibble.space_vs_csr();
        assert!(nb <= b, "nibble {nb} vs byte {b}");
    }

    #[test]
    fn iterator_exact_size() {
        let g = grid3d(4);
        let cg: CompressedGraph = CompressedGraph::from_graph(&g);
        let it = cg.out_neighbors(0);
        assert_eq!(it.len(), 6);
        assert_eq!(it.count(), 6);
    }
}
