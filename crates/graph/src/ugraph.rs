//! Dense undirected graph: the conflict graph BBB's DSATUR colors.
//!
//! The conflict graph of a network snapshot is built once per global
//! recoloring event (the BBB baseline recolors at *every* event, so
//! this path is hot in the Fig 10–12 experiments). Vertices are dense
//! `usize` indices `0..n`; the caller keeps the `NodeId` mapping.

/// An undirected simple graph on vertices `0..n`.
#[derive(Debug, Clone)]
pub struct UGraph {
    adj: Vec<Vec<usize>>,
    edges: usize,
}

impl UGraph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        UGraph {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Builds a graph directly from adjacency rows (bulk constructor
    /// used by the bitset-based conflict-graph build). Rows must be
    /// sorted, self-loop-free, and symmetric; this is checked in debug
    /// builds.
    pub fn from_adjacency(adj: Vec<Vec<usize>>) -> Self {
        let n = adj.len();
        let mut half_edges = 0usize;
        for (u, row) in adj.iter().enumerate() {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {u} unsorted");
            for &v in row {
                assert!(v < n, "vertex {v} out of range");
                debug_assert!(v != u, "self-loop at {u}");
                debug_assert!(
                    adj[v].binary_search(&u).is_ok(),
                    "asymmetric edge ({u},{v})"
                );
            }
            half_edges += row.len();
        }
        debug_assert!(half_edges.is_multiple_of(2), "odd half-edge count");
        UGraph {
            adj,
            edges: half_edges / 2,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the undirected edge `{u, v}`. Returns `false` if it already
    /// existed.
    ///
    /// # Panics
    /// Panics on out-of-range vertices or self-loops.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u != v, "self-loop {u}");
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "vertex out of range"
        );
        match self.adj[u].binary_search(&v) {
            Ok(_) => false,
            Err(i) => {
                self.adj[u].insert(i, v);
                let j = self.adj[v].binary_search(&u).unwrap_err();
                self.adj[v].insert(j, u);
                self.edges += 1;
                true
            }
        }
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.adj.len() && self.adj[u].binary_search(&v).is_ok()
    }

    /// Neighbors of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over edges `(u, v)` with `u < v`, lexicographically.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Exact maximum clique via branch and bound. Exponential; only for
    /// validation on small graphs (tests cap `n` at ~20).
    pub fn max_clique_exact(&self) -> usize {
        fn extend(g: &UGraph, clique: &mut Vec<usize>, cands: Vec<usize>, best: &mut usize) {
            if clique.len() + cands.len() <= *best {
                return; // bound
            }
            if cands.is_empty() {
                *best = (*best).max(clique.len());
                return;
            }
            for (i, &v) in cands.iter().enumerate() {
                if clique.len() + (cands.len() - i) <= *best {
                    break;
                }
                clique.push(v);
                let next: Vec<usize> = cands[i + 1..]
                    .iter()
                    .copied()
                    .filter(|&u| g.has_edge(u, v))
                    .collect();
                extend(g, clique, next, best);
                clique.pop();
            }
        }
        let mut best = 0;
        let mut clique = Vec::new();
        extend(
            self,
            &mut clique,
            (0..self.vertex_count()).collect(),
            &mut best,
        );
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_edge_is_symmetric_and_dedup() {
        let mut g = UGraph::new(3);
        assert!(g.add_edge(0, 2));
        assert!(!g.add_edge(2, 0), "reverse duplicate");
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = UGraph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    fn edges_iterates_each_once() {
        let mut g = UGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 1);
        g.add_edge(3, 0);
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn clique_bounds_on_known_graphs() {
        // K4 plus a pendant vertex.
        let mut g = UGraph::new(5);
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(i, j);
            }
        }
        g.add_edge(3, 4);
        assert_eq!(g.max_clique_exact(), 4);

        // C5: max clique 2.
        let mut c5 = UGraph::new(5);
        for i in 0..5 {
            c5.add_edge(i, (i + 1) % 5);
        }
        assert_eq!(c5.max_clique_exact(), 2);
    }

    #[test]
    fn empty_graph_bounds() {
        let g = UGraph::new(0);
        assert_eq!(g.max_clique_exact(), 0);
        assert_eq!(g.max_degree(), 0);
        let g1 = UGraph::new(3);
        assert_eq!(g1.max_clique_exact(), 1, "independent set has clique 1");
    }

    proptest! {
        #[test]
        fn degree_sums_to_twice_edges(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40)
        ) {
            let mut g = UGraph::new(12);
            for (u, v) in edges {
                if u != v {
                    g.add_edge(u, v);
                }
            }
            let sum: usize = (0..12).map(|v| g.degree(v)).sum();
            prop_assert_eq!(sum, 2 * g.edge_count());
        }
    }
}
