//! Immutable graph snapshots and the epoch-stamped store that serves them.
//!
//! Queries never observe a half-installed graph: the engine hands each
//! query an `Arc<Snapshot>` captured at submit time, and installing a new
//! graph bumps the epoch and swaps the store's current pointer. In-flight
//! queries keep their old snapshot alive through the `Arc`; the result
//! cache keys on `(epoch, query)` so stale results can never be served
//! for a newer graph.

use crate::lockdep::{tracked_read, tracked_write};
use ligra_graph::{Graph, WeightedGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// One immutable graph version, stamped with the epoch at which it was
/// installed.
///
/// The unweighted view is the canonical one (every query except
/// Bellman-Ford runs on it). The weighted view is either the installed
/// weighted graph, or a lazily built unit-weight twin so that
/// Bellman-Ford queries work on any snapshot; it is built at most once
/// per snapshot (`OnceLock`) and shared by every query that needs it.
pub struct Snapshot {
    epoch: u64,
    graph: Arc<Graph>,
    weighted: OnceLock<Arc<WeightedGraph>>,
}

impl Snapshot {
    /// Wraps an unweighted graph; the weighted view is built on demand
    /// with unit weights.
    pub fn from_graph(epoch: u64, graph: Arc<Graph>) -> Self {
        Snapshot { epoch, graph, weighted: OnceLock::new() }
    }

    /// Wraps a weighted graph; the unweighted view strips the weights
    /// eagerly (it is the common case for queries).
    pub fn from_weighted(epoch: u64, wg: Arc<WeightedGraph>) -> Self {
        let graph = Arc::new(strip_weights(&wg));
        let weighted = OnceLock::new();
        let _ = weighted.set(wg);
        Snapshot { epoch, graph, weighted }
    }

    /// Epoch at which this snapshot was installed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The unweighted view.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The weighted view: the installed weighted graph, or a unit-weight
    /// twin built (once) from the unweighted one.
    pub fn weighted(&self) -> &Arc<WeightedGraph> {
        self.weighted.get_or_init(|| Arc::new(unit_weights(&self.graph)))
    }

    /// Whether the weighted view already exists (installed weighted, or
    /// the unit-weight twin has been built). Admission control uses this
    /// to decide if a Bellman-Ford query will pay the twin's footprint.
    pub fn weighted_ready(&self) -> bool {
        self.weighted.get().is_some()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of directed edges (arcs).
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

fn strip_weights(wg: &WeightedGraph) -> Graph {
    // `stripped` shares the base arrays and preserves any delta overlay,
    // so the unweighted view of a mutated snapshot costs O(overlay).
    if wg.is_symmetric() {
        Graph::symmetric(wg.out_adj().stripped())
    } else {
        Graph::directed(wg.out_adj().stripped(), wg.in_adj().stripped())
    }
}

fn unit_weights(g: &Graph) -> WeightedGraph {
    // `unit_weighted` likewise preserves overlay structure: Bellman-Ford
    // on a live-mutated snapshot sees the same view as every other query.
    let out = g.out_adj().unit_weighted();
    if g.is_symmetric() {
        Graph::symmetric(out)
    } else {
        Graph::directed(out, g.in_adj().unit_weighted())
    }
}

/// The engine's mutable cell: the current snapshot plus a monotone epoch
/// counter. Readers (`current`) take a shared lock for the duration of an
/// `Arc` clone only.
pub struct GraphStore {
    current: RwLock<Option<Arc<Snapshot>>>,
    next_epoch: AtomicU64,
}

impl GraphStore {
    /// An empty store; queries are rejected until a graph is installed.
    pub fn new() -> Self {
        GraphStore { current: RwLock::new(None), next_epoch: AtomicU64::new(1) }
    }

    fn install(&self, make: impl FnOnce(u64) -> Snapshot) -> u64 {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(make(epoch));
        // Tracked site (poison-recovering): the store swap is a single
        // pointer assignment, never left half-done by an unwind.
        *tracked_write(&self.current, "store.current") = Some(snap);
        epoch
    }

    /// Installs an unweighted graph as the new current snapshot and
    /// returns its epoch.
    pub fn install_graph(&self, g: Arc<Graph>) -> u64 {
        self.install(|e| Snapshot::from_graph(e, g))
    }

    /// Installs a weighted graph as the new current snapshot and returns
    /// its epoch.
    pub fn install_weighted(&self, g: Arc<WeightedGraph>) -> u64 {
        self.install(|e| Snapshot::from_weighted(e, g))
    }

    /// The current snapshot, if any graph has been installed.
    pub fn current(&self) -> Option<Arc<Snapshot>> {
        tracked_read(&self.current, "store.current").clone()
    }
}

impl Default for GraphStore {
    fn default() -> Self {
        GraphStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra_graph::generators::{cycle, random_local, random_weights};

    #[test]
    fn epochs_are_monotone_and_snapshots_survive_reinstall() {
        let store = GraphStore::new();
        assert!(store.current().is_none());
        let e1 = store.install_graph(Arc::new(cycle(8)));
        let old = store.current().unwrap();
        let e2 = store.install_graph(Arc::new(cycle(16)));
        assert!(e2 > e1);
        // The old snapshot is still usable by an in-flight query.
        assert_eq!(old.num_vertices(), 8);
        assert_eq!(store.current().unwrap().num_vertices(), 16);
    }

    #[test]
    fn unit_weight_twin_matches_structure() {
        let g = random_local(200, 4, 7);
        let snap = Snapshot::from_graph(1, Arc::new(g));
        let wg = snap.weighted();
        assert_eq!(wg.num_vertices(), snap.num_vertices());
        assert_eq!(wg.num_edges(), snap.num_edges());
        assert!(wg.out_weights(0).iter().all(|&w| w == 1));
        // Built once: second call returns the same Arc.
        assert!(Arc::ptr_eq(wg, snap.weighted()));
    }

    #[test]
    fn weighted_install_strips_to_same_structure() {
        let g = random_local(100, 3, 9);
        let wg = random_weights(&g, 20, 3);
        let snap = Snapshot::from_weighted(4, Arc::new(wg));
        assert_eq!(snap.graph().num_edges(), snap.weighted().num_edges());
        assert_eq!(snap.epoch(), 4);
        assert!(snap.graph().is_symmetric());
    }
}
