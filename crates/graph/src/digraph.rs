//! Dynamic directed graph with sparse node ids.
//!
//! Node ids are chosen by the caller (`minim-net` assigns them in join
//! order, which doubles as the CP baseline's node *identity*). Storage
//! is a dense `Vec` indexed by id with occupancy flags; adjacency lists
//! are kept sorted so membership tests are `O(log d)` binary searches
//! and iteration is deterministic — important both for reproducibility
//! of the simulations and for the identity-ordered CP algorithm.

use std::fmt;

/// Identity of a network node.
///
/// Also serves as the total order used by the CP baseline ("highest
/// identity first", §3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[derive(Debug, Clone, Default)]
struct NodeSlot {
    present: bool,
    /// Out-neighbors (`self → x`), sorted ascending.
    out: Vec<NodeId>,
    /// In-neighbors (`x → self`), sorted ascending.
    inn: Vec<NodeId>,
}

/// A dynamic directed graph.
///
/// Self-loops are rejected (the paper's model has `i != j` on every
/// edge). Parallel edges are impossible by construction.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    slots: Vec<NodeSlot>,
    node_count: usize,
    edge_count: usize,
}

#[inline]
fn sorted_insert(v: &mut Vec<NodeId>, x: NodeId) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(i) => {
            v.insert(i, x);
            true
        }
    }
}

#[inline]
fn sorted_remove(v: &mut Vec<NodeId>, x: NodeId) -> bool {
    match v.binary_search(&x) {
        Ok(i) => {
            v.remove(i);
            true
        }
        Err(_) => false,
    }
}

/// The capacity that growth by `push` leaves on a list of `len`
/// entries: the next power of two, at least 4. [`DiGraph::fill_edgeless`]
/// sizes its lists to it, so the events that follow a bulk build find
/// the same headroom as after an edge-by-edge build.
fn grown_capacity(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two().max(4)
    }
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph::default()
    }

    /// Creates an empty graph with slot capacity for ids `0..cap`.
    pub fn with_capacity(cap: usize) -> Self {
        DiGraph {
            slots: Vec::with_capacity(cap),
            node_count: 0,
            edge_count: 0,
        }
    }

    /// Number of present nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether node `n` is present.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.slots.get(n.index()).is_some_and(|s| s.present)
    }

    /// Inserts node `n` (no edges). Returns `false` if already present.
    pub fn insert_node(&mut self, n: NodeId) -> bool {
        let i = n.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, NodeSlot::default);
        }
        if self.slots[i].present {
            return false;
        }
        self.slots[i].present = true;
        self.node_count += 1;
        true
    }

    /// Wires an edgeless graph in one pass: `fill(n, buf)` pushes every
    /// out-neighbor of present node `n`, in any order, into the empty
    /// `buf`; nodes are visited in ascending id order. Each out-list is
    /// sorted once and allocated once, and the in-lists are derived by
    /// transposing: counted, allocated once, then filled in ascending
    /// source order, so they come out sorted with no per-edge search.
    /// Every list gets the capacity an edge-by-edge build would have
    /// grown it to.
    ///
    /// Preconditions: every pushed id is present, differs from `n` and
    /// is pushed once (debug-asserted on the sorted list).
    ///
    /// # Panics
    /// Panics if the graph already holds an edge.
    pub fn fill_edgeless(&mut self, mut fill: impl FnMut(NodeId, &mut Vec<NodeId>)) {
        assert_eq!(self.edge_count, 0, "fill_edgeless: the graph has edges");
        let mut buf = Vec::new();
        let mut in_degree = vec![0u32; self.slots.len()];
        for i in 0..self.slots.len() {
            if !self.slots[i].present {
                continue;
            }
            let n = NodeId(i as u32);
            buf.clear();
            fill(n, &mut buf);
            buf.sort_unstable();
            debug_assert!(buf.windows(2).all(|w| w[0] < w[1]), "{n}: duplicate target");
            debug_assert!(buf.iter().all(|&m| m != n && self.contains(m)));
            for &m in &buf {
                in_degree[m.index()] += 1;
            }
            let out = &mut self.slots[i].out;
            out.reserve_exact(grown_capacity(buf.len()));
            out.extend_from_slice(&buf);
            self.edge_count += buf.len();
        }
        for (slot, &d) in self.slots.iter_mut().zip(&in_degree) {
            slot.inn.reserve_exact(grown_capacity(d as usize));
        }
        for i in 0..self.slots.len() {
            for k in 0..self.slots[i].out.len() {
                let m = self.slots[i].out[k];
                self.slots[m.index()].inn.push(NodeId(i as u32));
            }
        }
        debug_assert!(self
            .slots
            .iter()
            .all(|s| s.inn.windows(2).all(|w| w[0] < w[1])));
    }

    /// Removes node `n` and all incident edges. Returns `false` if the
    /// node was absent.
    ///
    /// The slot's adjacency capacity is retained: a node that leaves
    /// and rejoins (or the churn workloads that do this constantly)
    /// re-wires into the already-grown buffers instead of reallocating.
    pub fn remove_node(&mut self, n: NodeId) -> bool {
        if !self.contains(n) {
            return false;
        }
        self.detach_edges(n);
        self.slots[n.index()].present = false;
        self.node_count -= 1;
        true
    }

    /// Adds edge `u → v`. Returns `false` if it already existed.
    ///
    /// # Panics
    /// Panics if either endpoint is absent or `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u != v, "self-loop {u} rejected: the model has i != j");
        assert!(self.contains(u), "add_edge: missing source {u}");
        assert!(self.contains(v), "add_edge: missing target {v}");
        if sorted_insert(&mut self.slots[u.index()].out, v) {
            sorted_insert(&mut self.slots[v.index()].inn, u);
            self.edge_count += 1;
            true
        } else {
            false
        }
    }

    /// Removes edge `u → v`. Returns `false` if it did not exist.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.contains(u) || !self.contains(v) {
            return false;
        }
        if sorted_remove(&mut self.slots[u.index()].out, v) {
            sorted_remove(&mut self.slots[v.index()].inn, u);
            self.edge_count -= 1;
            true
        } else {
            false
        }
    }

    /// Whether edge `u → v` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.contains(u) && self.contains(v) && self.slots[u.index()].out.binary_search(&v).is_ok()
    }

    /// Out-neighbors of `n` (`n → x`), sorted ascending.
    ///
    /// # Panics
    /// Panics if `n` is absent.
    #[inline]
    pub fn out_neighbors(&self, n: NodeId) -> &[NodeId] {
        assert!(self.contains(n), "out_neighbors: missing node {n}");
        &self.slots[n.index()].out
    }

    /// In-neighbors of `n` (`x → n`), sorted ascending.
    ///
    /// # Panics
    /// Panics if `n` is absent.
    #[inline]
    pub fn in_neighbors(&self, n: NodeId) -> &[NodeId] {
        assert!(self.contains(n), "in_neighbors: missing node {n}");
        &self.slots[n.index()].inn
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_neighbors(n).len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_neighbors(n).len()
    }

    /// Iterates over present nodes in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.present)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterates over all directed edges `(u, v)` in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Removes every edge incident to `n`, keeping the node present.
    ///
    /// Used when a node's configuration changes and its link set is
    /// recomputed from scratch (`minim-net` move / power-change).
    /// Adjacency capacity is retained, so the recomputation re-fills
    /// warm buffers — this keeps the steady-state rewire path
    /// allocation-free.
    pub fn clear_node_edges(&mut self, n: NodeId) {
        assert!(self.contains(n), "clear_node_edges: missing node {n}");
        self.detach_edges(n);
    }

    /// Shared edge-severing core of [`DiGraph::remove_node`] and
    /// [`DiGraph::clear_node_edges`]: removes every edge incident to
    /// `n` while keeping `n`'s (cleared) adjacency buffers and their
    /// capacity in place. The lists are temporarily moved out to
    /// satisfy the borrow checker and moved back cleared — no
    /// allocation either way.
    fn detach_edges(&mut self, n: NodeId) {
        let mut out = std::mem::take(&mut self.slots[n.index()].out);
        let mut inn = std::mem::take(&mut self.slots[n.index()].inn);
        for &m in &out {
            sorted_remove(&mut self.slots[m.index()].inn, n);
        }
        for &m in &inn {
            sorted_remove(&mut self.slots[m.index()].out, n);
        }
        self.edge_count -= out.len() + inn.len();
        out.clear();
        inn.clear();
        self.slots[n.index()].out = out;
        self.slots[n.index()].inn = inn;
    }

    /// Neighbors of `n` in the underlying undirected graph
    /// (union of in- and out-neighbors), sorted, deduplicated.
    ///
    /// Allocates the result; hot loops (BFS traversals, degree sums)
    /// should prefer [`DiGraph::for_each_undirected_neighbor`] or
    /// [`DiGraph::undirected_degree`], which walk the same merge
    /// without building a `Vec`.
    pub fn undirected_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.out_degree(n) + self.in_degree(n));
        self.for_each_undirected_neighbor(n, |m| v.push(m));
        v
    }

    /// Calls `f` once for every undirected neighbor of `n`, in
    /// ascending id order — the allocation-free form of
    /// [`DiGraph::undirected_neighbors`].
    ///
    /// # Panics
    /// Panics if `n` is absent.
    #[inline]
    pub fn for_each_undirected_neighbor(&self, n: NodeId, mut f: impl FnMut(NodeId)) {
        let out = self.out_neighbors(n);
        let inn = self.in_neighbors(n);
        // Merge two sorted lists, dropping duplicates.
        let (mut i, mut j) = (0, 0);
        while i < out.len() && j < inn.len() {
            match out[i].cmp(&inn[j]) {
                std::cmp::Ordering::Less => {
                    f(out[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    f(inn[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    f(out[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        for &m in &out[i..] {
            f(m);
        }
        for &m in &inn[j..] {
            f(m);
        }
    }

    /// The degree of `n` in the underlying undirected graph (distinct
    /// union of in- and out-neighbors), without allocating.
    ///
    /// # Panics
    /// Panics if `n` is absent.
    pub fn undirected_degree(&self, n: NodeId) -> usize {
        let mut d = 0;
        self.for_each_undirected_neighbor(n, |_| d += 1);
        d
    }

    /// Debug-only structural invariant check: adjacency symmetry
    /// (`v ∈ out(u)` iff `u ∈ in(v)`), sortedness, and edge count.
    pub fn check_invariants(&self) {
        let mut edges = 0usize;
        for n in self.nodes() {
            let s = &self.slots[n.index()];
            assert!(s.out.windows(2).all(|w| w[0] < w[1]), "{n}: out unsorted");
            assert!(s.inn.windows(2).all(|w| w[0] < w[1]), "{n}: in unsorted");
            for &m in &s.out {
                assert!(self.contains(m), "{n} → {m}: dangling target");
                assert!(
                    self.slots[m.index()].inn.binary_search(&n).is_ok(),
                    "{n} → {m}: missing reverse entry"
                );
            }
            edges += s.out.len();
        }
        assert_eq!(edges, self.edge_count, "edge count drift");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn insert_and_remove_nodes() {
        let mut g = DiGraph::new();
        assert!(g.insert_node(n(5)));
        assert!(!g.insert_node(n(5)));
        assert!(g.contains(n(5)));
        assert!(!g.contains(n(4)));
        assert_eq!(g.node_count(), 1);
        assert!(g.remove_node(n(5)));
        assert!(!g.remove_node(n(5)));
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn add_edge_maintains_both_directions_of_adjacency() {
        let mut g = DiGraph::new();
        g.insert_node(n(1));
        g.insert_node(n(2));
        assert!(g.add_edge(n(1), n(2)));
        assert!(!g.add_edge(n(1), n(2)), "duplicate edge");
        assert!(g.has_edge(n(1), n(2)));
        assert!(!g.has_edge(n(2), n(1)), "directedness");
        assert_eq!(g.out_neighbors(n(1)), &[n(2)]);
        assert_eq!(g.in_neighbors(n(2)), &[n(1)]);
        assert_eq!(g.edge_count(), 1);
        g.check_invariants();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = DiGraph::new();
        g.insert_node(n(1));
        g.add_edge(n(1), n(1));
    }

    #[test]
    fn removing_node_removes_incident_edges() {
        let mut g = DiGraph::new();
        for i in 0..4 {
            g.insert_node(n(i));
        }
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(1));
        g.add_edge(n(3), n(1));
        assert_eq!(g.edge_count(), 4);
        g.remove_node(n(1));
        assert_eq!(g.edge_count(), 0);
        assert!(g.out_neighbors(n(0)).is_empty());
        assert!(g.in_neighbors(n(2)).is_empty());
        g.check_invariants();
    }

    #[test]
    fn clear_node_edges_keeps_node() {
        let mut g = DiGraph::new();
        for i in 0..3 {
            g.insert_node(n(i));
        }
        g.add_edge(n(0), n(1));
        g.add_edge(n(2), n(0));
        g.clear_node_edges(n(0));
        assert!(g.contains(n(0)));
        assert_eq!(g.edge_count(), 0);
        g.check_invariants();
    }

    #[test]
    fn undirected_neighbors_merges_in_and_out() {
        let mut g = DiGraph::new();
        for i in 0..5 {
            g.insert_node(n(i));
        }
        g.add_edge(n(0), n(1)); // out only
        g.add_edge(n(2), n(0)); // in only
        g.add_edge(n(0), n(3)); // both
        g.add_edge(n(3), n(0));
        assert_eq!(g.undirected_neighbors(n(0)), vec![n(1), n(2), n(3)]);
        assert!(g.undirected_neighbors(n(4)).is_empty());
    }

    #[test]
    fn edges_iterate_lexicographically() {
        let mut g = DiGraph::new();
        for i in 0..3 {
            g.insert_node(n(i));
        }
        g.add_edge(n(2), n(0));
        g.add_edge(n(0), n(2));
        g.add_edge(n(0), n(1));
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(n(0), n(1)), (n(0), n(2)), (n(2), n(0))]);
    }

    #[test]
    fn sparse_ids_work() {
        let mut g = DiGraph::new();
        g.insert_node(n(1000));
        g.insert_node(n(3));
        g.add_edge(n(3), n(1000));
        assert!(g.has_edge(n(3), n(1000)));
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![n(3), n(1000)]);
    }

    #[test]
    fn fill_edgeless_matches_edge_by_edge_build() {
        let edges = [(4, 0), (0, 4), (0, 2), (7, 2), (2, 7), (4, 2), (7, 0)];
        let mut by_edge = DiGraph::new();
        let mut filled = DiGraph::new();
        for i in [0, 2, 4, 7] {
            by_edge.insert_node(n(i));
            filled.insert_node(n(i));
        }
        for &(u, v) in &edges {
            by_edge.add_edge(n(u), n(v));
        }
        // Targets arrive unsorted; the fill sorts them.
        filled.fill_edgeless(|u, buf| {
            buf.extend(edges.iter().rev().filter(|e| e.0 == u.0).map(|e| n(e.1)));
        });
        filled.check_invariants();
        assert_eq!(filled.edge_count(), edges.len());
        for i in [0, 2, 4, 7] {
            assert_eq!(filled.out_neighbors(n(i)), by_edge.out_neighbors(n(i)));
            assert_eq!(filled.in_neighbors(n(i)), by_edge.in_neighbors(n(i)));
        }
    }

    #[test]
    #[should_panic(expected = "the graph has edges")]
    fn fill_edgeless_refuses_a_wired_graph() {
        let mut g = DiGraph::new();
        g.insert_node(n(0));
        g.insert_node(n(1));
        g.add_edge(n(0), n(1));
        g.fill_edgeless(|_, _| {});
    }

    proptest! {
        /// Random edit scripts preserve structural invariants and agree
        /// with a naive mirror implementation on edge membership.
        #[test]
        fn random_churn_matches_naive_model(
            ops in proptest::collection::vec((0u8..5, 0u32..12, 0u32..12), 0..300)
        ) {
            use std::collections::HashSet;
            let mut g = DiGraph::new();
            let mut nodes: HashSet<u32> = HashSet::new();
            let mut edges: HashSet<(u32, u32)> = HashSet::new();
            for (op, a, b) in ops {
                match op {
                    0 => {
                        g.insert_node(n(a));
                        nodes.insert(a);
                    }
                    1 => {
                        g.remove_node(n(a));
                        nodes.remove(&a);
                        edges.retain(|&(u, v)| u != a && v != a);
                    }
                    2 => {
                        if a != b && nodes.contains(&a) && nodes.contains(&b) {
                            g.add_edge(n(a), n(b));
                            edges.insert((a, b));
                        }
                    }
                    3 => {
                        g.remove_edge(n(a), n(b));
                        edges.remove(&(a, b));
                    }
                    _ => {
                        if nodes.contains(&a) {
                            g.clear_node_edges(n(a));
                            edges.retain(|&(u, v)| u != a && v != a);
                        }
                    }
                }
            }
            g.check_invariants();
            prop_assert_eq!(g.node_count(), nodes.len());
            prop_assert_eq!(g.edge_count(), edges.len());
            for &(u, v) in &edges {
                prop_assert!(g.has_edge(n(u), n(v)));
            }
            let got: HashSet<(u32, u32)> =
                g.edges().map(|(u, v)| (u.0, v.0)).collect();
            prop_assert_eq!(got, edges);
        }
    }
}
