//! Hopcroft–Karp maximum-cardinality bipartite matching, `O(E √V)`.
//!
//! Weight-blind, test-only: cross-checks the Hungarian solver (uniform
//! weights give equal cardinalities).

use crate::{Matching, WeightedBipartite};
use std::collections::VecDeque;

const NIL: usize = usize::MAX;

/// Computes a maximum-cardinality matching of `g`, ignoring weights.
/// The reported [`Matching::weight`] is the sum of the matched edges'
/// weights (useful for comparisons), but it is *not* optimized.
pub fn hopcroft_karp(g: &WeightedBipartite) -> Matching {
    let n = g.left_count();
    let m = g.right_count();
    let mut match_l = vec![NIL; n];
    let mut match_r = vec![NIL; m];
    let mut dist = vec![0usize; n];

    // BFS layering from free left vertices.
    let bfs = |match_l: &[usize], match_r: &[usize], dist: &mut [usize]| -> bool {
        let mut q = VecDeque::new();
        let mut found = false;
        for l in 0..n {
            if match_l[l] == NIL {
                dist[l] = 0;
                q.push_back(l);
            } else {
                dist[l] = usize::MAX;
            }
        }
        while let Some(l) = q.pop_front() {
            for &(r, _) in g.neighbors(l) {
                let nl = match_r[r];
                if nl == NIL {
                    found = true;
                } else if dist[nl] == usize::MAX {
                    dist[nl] = dist[l] + 1;
                    q.push_back(nl);
                }
            }
        }
        found
    };

    fn dfs(
        g: &WeightedBipartite,
        l: usize,
        match_l: &mut [usize],
        match_r: &mut [usize],
        dist: &mut [usize],
    ) -> bool {
        for i in 0..g.neighbors(l).len() {
            let (r, _) = g.neighbors(l)[i];
            let nl = match_r[r];
            if nl == NIL || (dist[nl] == dist[l] + 1 && dfs(g, nl, match_l, match_r, dist)) {
                match_l[l] = r;
                match_r[r] = l;
                return true;
            }
        }
        dist[l] = usize::MAX;
        false
    }

    while bfs(&match_l, &match_r, &mut dist) {
        for l in 0..n {
            if match_l[l] == NIL {
                dfs(g, l, &mut match_l, &mut match_r, &mut dist);
            }
        }
    }

    let mut pairs = vec![None; n];
    let mut weight = 0i64;
    for (l, &r) in match_l.iter().enumerate() {
        if r != NIL {
            pairs[l] = Some(r);
            weight += g.weight(l, r).expect("matched pair must be an edge");
        }
    }
    let result = Matching { pairs, weight };
    debug_assert!(result.validate(g).is_ok());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use proptest::prelude::*;

    #[test]
    fn empty_graph() {
        let g = WeightedBipartite::new(4, 4);
        assert_eq!(hopcroft_karp(&g).cardinality(), 0);
    }

    #[test]
    fn perfect_matching_on_complete_graph() {
        let mut g = WeightedBipartite::new(4, 4);
        for l in 0..4 {
            for r in 0..4 {
                g.add_edge(l, r, 1);
            }
        }
        let m = hopcroft_karp(&g);
        assert_eq!(m.cardinality(), 4);
        assert!(m.validate(&g).is_ok());
    }

    #[test]
    fn augmenting_path_is_found() {
        // Classic instance requiring augmentation: greedy (0→0, 1
        // blocked) must be undone into 0→1, 1→0.
        let mut g = WeightedBipartite::new(2, 2);
        g.add_edge(0, 0, 1);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 1);
        let m = hopcroft_karp(&g);
        assert_eq!(m.cardinality(), 2);
    }

    #[test]
    fn koenig_style_star() {
        // One left vertex connected to many rights: cardinality 1.
        let mut g = WeightedBipartite::new(1, 5);
        for r in 0..5 {
            g.add_edge(0, r, 1);
        }
        assert_eq!(hopcroft_karp(&g).cardinality(), 1);
        // Many lefts fighting for one right: cardinality 1.
        let mut g = WeightedBipartite::new(5, 1);
        for l in 0..5 {
            g.add_edge(l, 0, 1);
        }
        assert_eq!(hopcroft_karp(&g).cardinality(), 1);
    }

    proptest! {
        #[test]
        fn cardinality_matches_brute_force(
            edges in proptest::collection::vec((0usize..6, 0usize..6), 0..20)
        ) {
            let mut g = WeightedBipartite::new(6, 6);
            for (a, b) in edges {
                g.add_edge(a, b, 1);
            }
            let fast = hopcroft_karp(&g);
            prop_assert!(fast.validate(&g).is_ok());
            let slow = brute::brute_force_max_cardinality(&g);
            prop_assert_eq!(fast.cardinality(), slow);
        }
    }
}
