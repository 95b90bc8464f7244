//! BFS hop distances on the underlying undirected graph.
//!
//! The CP baseline reasons in terms of "nodes up to 2 hops away" and
//! chooses colors unused within its 1- and 2-hop neighborhood (§3); the
//! parallel-join condition of Theorem 4.1.10 requires joiners to be at
//! least 5 hops apart. Hops are measured on the *underlying undirected*
//! graph (an edge in either direction counts), matching \[3\]'s symmetric
//! model and the paper's note that the asymmetric extension is direct.

use crate::digraph::{DiGraph, NodeId};
use std::collections::{HashMap, VecDeque};

/// All nodes within `k` undirected hops of `src` (excluding `src`),
/// each with its hop distance, sorted by `(distance, id)`.
///
/// # Panics
/// Panics if `src` is absent.
pub fn within_hops(g: &DiGraph, src: NodeId, k: usize) -> Vec<(NodeId, usize)> {
    assert!(g.contains(src), "within_hops: missing node {src}");
    let mut dist: HashMap<NodeId, usize> = HashMap::new();
    dist.insert(src, 0);
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[&u];
        if du == k {
            continue;
        }
        g.for_each_undirected_neighbor(u, |v| {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                q.push_back(v);
            }
        });
    }
    let mut out: Vec<(NodeId, usize)> = dist
        .into_iter()
        .filter(|&(v, d)| v != src && d >= 1)
        .collect();
    out.sort_by_key(|&(v, d)| (d, v));
    out
}

/// The undirected hop distance between `a` and `b`, or `None` if they
/// are disconnected. `Some(0)` iff `a == b`.
///
/// # Panics
/// Panics if either node is absent.
pub fn hop_distance(g: &DiGraph, a: NodeId, b: NodeId) -> Option<usize> {
    assert!(g.contains(a) && g.contains(b), "hop_distance: missing node");
    if a == b {
        return Some(0);
    }
    let mut dist: HashMap<NodeId, usize> = HashMap::new();
    dist.insert(a, 0);
    let mut q = VecDeque::new();
    q.push_back(a);
    while let Some(u) = q.pop_front() {
        let du = dist[&u];
        let mut found = false;
        g.for_each_undirected_neighbor(u, |v| {
            if v == b {
                found = true;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                q.push_back(v);
            }
        });
        if found {
            return Some(du + 1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Path 0 — 1 — 2 — 3 — 4 (each link one directed edge, alternating
    /// direction, to exercise the "underlying undirected" rule).
    fn path5() -> DiGraph {
        let mut g = DiGraph::new();
        for i in 0..5 {
            g.insert_node(n(i));
        }
        g.add_edge(n(0), n(1));
        g.add_edge(n(2), n(1));
        g.add_edge(n(2), n(3));
        g.add_edge(n(4), n(3));
        g
    }

    #[test]
    fn within_hops_on_path() {
        let g = path5();
        assert_eq!(within_hops(&g, n(0), 1), vec![(n(1), 1)]);
        assert_eq!(within_hops(&g, n(0), 2), vec![(n(1), 1), (n(2), 2)]);
        assert_eq!(
            within_hops(&g, n(0), 10),
            vec![(n(1), 1), (n(2), 2), (n(3), 3), (n(4), 4)]
        );
        assert!(within_hops(&g, n(0), 0).is_empty());
    }

    #[test]
    fn hop_distance_on_path() {
        let g = path5();
        assert_eq!(hop_distance(&g, n(0), n(0)), Some(0));
        assert_eq!(hop_distance(&g, n(0), n(4)), Some(4));
        assert_eq!(hop_distance(&g, n(4), n(0)), Some(4), "symmetric");
        assert_eq!(hop_distance(&g, n(1), n(3)), Some(2));
    }

    #[test]
    fn disconnected_components() {
        let mut g = path5();
        g.insert_node(n(10));
        assert_eq!(hop_distance(&g, n(0), n(10)), None);
        g.add_edge(n(10), n(4));
        assert_eq!(hop_distance(&g, n(0), n(10)), Some(5));
    }

    #[test]
    fn direction_does_not_matter_for_hops() {
        let mut g = DiGraph::new();
        g.insert_node(n(0));
        g.insert_node(n(1));
        g.add_edge(n(0), n(1)); // only one direction
        assert_eq!(hop_distance(&g, n(1), n(0)), Some(1));
        assert_eq!(within_hops(&g, n(1), 1), vec![(n(0), 1)]);
    }
}
