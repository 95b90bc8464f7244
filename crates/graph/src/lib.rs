//! Graph substrate for the `minim` reproduction.
//!
//! The paper (§2) models a power-controlled ad-hoc network as a dynamic
//! **directed** graph: `v_i → v_j` iff `v_j` lies within `v_i`'s
//! transmission range. Code assignment correctness is expressed on this
//! digraph:
//!
//! * **CA1** — for every edge `(v_i, v_j)`, `c_i != c_j` (primary
//!   collision avoidance);
//! * **CA2** — for every pair of edges `(v_i, v_k), (v_j, v_k)` with
//!   `i != j`, `c_i != c_j` (hidden collision avoidance).
//!
//! This crate provides:
//!
//! * [`DiGraph`] — a dynamic directed graph over sparse [`NodeId`]s with
//!   incremental node/edge updates and sorted adjacency (cache-friendly
//!   for the small neighborhoods of geometric graphs).
//! * [`Color`] / [`Assignment`] — CDMA codes as positive integers and
//!   the network-wide code assignment.
//! * [`conflict`] — construction of the TOCA *conflict relation* (the
//!   union of CA1 and CA2 constraints) and assignment validation.
//! * [`hops`] — BFS hop distances over the underlying undirected graph
//!   (used by the CP baseline's "within 2 hops" rule and by the
//!   5-hop-separation condition of Theorem 4.1.10).
//! * [`ugraph`] — a dense undirected graph view: the conflict graph the
//!   BBB baseline recolors with DSATUR (`minim-core`), and the exact
//!   clique oracle the paper-example tests check it against.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod assign;
pub mod conflict;
pub mod digraph;
pub mod hops;
pub mod ugraph;

pub use assign::{Assignment, Color, ColorRead, ColorView};
pub use digraph::{DiGraph, NodeId};
pub use ugraph::UGraph;

#[cfg(test)]
mod tests {
    use super::*;

    // Cross-module smoke test: the Fig 1 example of the paper.
    //
    // Fig 1 shows a 4-node network whose constraint structure admits the
    // optimal assignment {1: 1, 2: 2, 3: 3, 4: 1} — node 4 can reuse
    // color 1 because it neither shares an edge with node 1 nor a common
    // out-neighbor.
    #[test]
    fn fig1_style_assignment_validates() {
        let mut g = DiGraph::new();
        let n1 = NodeId(1);
        let n2 = NodeId(2);
        let n3 = NodeId(3);
        let n4 = NodeId(4);
        for n in [n1, n2, n3, n4] {
            g.insert_node(n);
        }
        // A chain-like topology: 1 <-> 2 <-> 3 <-> 4.
        g.add_edge(n1, n2);
        g.add_edge(n2, n1);
        g.add_edge(n2, n3);
        g.add_edge(n3, n2);
        g.add_edge(n3, n4);
        g.add_edge(n4, n3);

        let mut a = Assignment::new();
        a.set(n1, Color::new(1));
        a.set(n2, Color::new(2));
        a.set(n3, Color::new(3));
        a.set(n4, Color::new(1));
        assert!(conflict::validate(&g, &a).is_ok());

        // Nodes 1 and 3 both transmit into 2: CA2 forbids equal colors.
        a.set(n3, Color::new(1));
        assert!(conflict::validate(&g, &a).is_err());
    }
}
