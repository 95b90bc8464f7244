//! Exhaustive matching oracles.
//!
//! Exponential-time reference implementations used by this crate's
//! property tests (`hungarian`, `hopcroft_karp`). Only feasible for a
//! handful of left vertices.

use crate::{Matching, WeightedBipartite};

/// Finds a maximum-weight matching by exhaustive search over all ways
/// to match the left vertices. `O(Π degrees)`; keep `left_count` small.
pub fn brute_force_max_weight(g: &WeightedBipartite) -> Matching {
    let n = g.left_count();
    let mut best_pairs = vec![None; n];
    let mut best_weight = 0i64;
    let mut pairs = vec![None; n];
    let mut used = vec![false; g.right_count()];

    fn rec(
        g: &WeightedBipartite,
        l: usize,
        acc: i64,
        pairs: &mut Vec<Option<usize>>,
        used: &mut Vec<bool>,
        best_pairs: &mut Vec<Option<usize>>,
        best_weight: &mut i64,
    ) {
        if l == g.left_count() {
            if acc > *best_weight {
                *best_weight = acc;
                best_pairs.clone_from(pairs);
            }
            return;
        }
        // Option 1: leave l unmatched.
        rec(g, l + 1, acc, pairs, used, best_pairs, best_weight);
        // Option 2: match l to each free neighbor.
        for i in 0..g.neighbors(l).len() {
            let (r, w) = g.neighbors(l)[i];
            if !used[r] {
                used[r] = true;
                pairs[l] = Some(r);
                rec(g, l + 1, acc + w, pairs, used, best_pairs, best_weight);
                pairs[l] = None;
                used[r] = false;
            }
        }
    }

    rec(
        g,
        0,
        0,
        &mut pairs,
        &mut used,
        &mut best_pairs,
        &mut best_weight,
    );
    let m = Matching {
        pairs: best_pairs,
        weight: best_weight,
    };
    debug_assert!(m.validate(g).is_ok());
    m
}

/// The maximum cardinality over all matchings, by exhaustive search.
pub fn brute_force_max_cardinality(g: &WeightedBipartite) -> usize {
    fn rec(g: &WeightedBipartite, l: usize, used: &mut Vec<bool>) -> usize {
        if l == g.left_count() {
            return 0;
        }
        // Leave l unmatched.
        let mut best = rec(g, l + 1, used);
        for i in 0..g.neighbors(l).len() {
            let (r, _) = g.neighbors(l)[i];
            if !used[r] {
                used[r] = true;
                best = best.max(1 + rec(g, l + 1, used));
                used[r] = false;
            }
        }
        best
    }
    let mut used = vec![false; g.right_count()];
    rec(g, 0, &mut used)
}

/// Enumerates **every** matching of `g`, invoking `f` on each
/// (including the empty matching). Used by exhaustive adversary
/// searches in the optimality tests.
pub fn for_each_matching<F: FnMut(&[Option<usize>], i64)>(g: &WeightedBipartite, mut f: F) {
    fn rec<F: FnMut(&[Option<usize>], i64)>(
        g: &WeightedBipartite,
        l: usize,
        acc: i64,
        pairs: &mut Vec<Option<usize>>,
        used: &mut Vec<bool>,
        f: &mut F,
    ) {
        if l == g.left_count() {
            f(pairs, acc);
            return;
        }
        rec(g, l + 1, acc, pairs, used, f);
        for i in 0..g.neighbors(l).len() {
            let (r, w) = g.neighbors(l)[i];
            if !used[r] {
                used[r] = true;
                pairs[l] = Some(r);
                rec(g, l + 1, acc + w, pairs, used, f);
                pairs[l] = None;
                used[r] = false;
            }
        }
    }
    let mut pairs = vec![None; g.left_count()];
    let mut used = vec![false; g.right_count()];
    rec(g, 0, 0, &mut pairs, &mut used, &mut f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_weight_on_tiny_instance() {
        let mut g = WeightedBipartite::new(2, 2);
        g.add_edge(0, 0, 2);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 1, 4);
        // Options: {(0,1)}=3, {(1,1)}=4, {(0,0),(1,1)}=6, {(0,0)}=2,
        // {(0,1)} blocks (1,1) → max is 6.
        let m = brute_force_max_weight(&g);
        assert_eq!(m.weight, 6);
        assert_eq!(m.pairs, vec![Some(0), Some(1)]);
    }

    #[test]
    fn brute_cardinality_counts() {
        let mut g = WeightedBipartite::new(3, 2);
        g.add_edge(0, 0, 1);
        g.add_edge(1, 0, 1);
        g.add_edge(2, 1, 1);
        assert_eq!(brute_force_max_cardinality(&g), 2);
    }

    #[test]
    fn enumerates_all_matchings_of_single_edge() {
        let mut g = WeightedBipartite::new(1, 1);
        g.add_edge(0, 0, 5);
        let mut seen = Vec::new();
        for_each_matching(&g, |pairs, w| seen.push((pairs.to_vec(), w)));
        assert_eq!(seen.len(), 2, "empty matching + the edge");
        assert!(seen.contains(&(vec![None], 0)));
        assert!(seen.contains(&(vec![Some(0)], 5)));
    }

    #[test]
    fn enumeration_count_on_complete_2x2() {
        let mut g = WeightedBipartite::new(2, 2);
        for l in 0..2 {
            for r in 0..2 {
                g.add_edge(l, r, 1);
            }
        }
        let mut count = 0;
        for_each_matching(&g, |_, _| count += 1);
        // Matchings of K_{2,2}: 1 empty + 4 singles + 2 perfect = 7.
        assert_eq!(count, 7);
    }
}
