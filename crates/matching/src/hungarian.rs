//! Exact maximum-weight bipartite matching.
//!
//! Hungarian algorithm (Kuhn–Munkres) with dual potentials and
//! Dijkstra-style augmentation, the classic `O(n² m)` formulation.
//! The assignment-problem core requires a perfect matching on rows, so
//! we reduce: maximize weight ⇢ minimize negated cost, and append one
//! *dummy column* per row with cost 0 so that every row can always be
//! "matched" (to being unmatched). Non-edges also cost 0 — at an
//! optimum they are interchangeable with dummies (any non-edge pair
//! that blocked a genuinely useful column could be moved to a dummy at
//! equal cost and strictly smaller total cost for the displaced row, a
//! contradiction) — and are filtered from the reported matching.
//!
//! With all real weights strictly positive, the optimum simultaneously:
//!
//! * attains the maximum total weight (by construction), which for the
//!   Minim instances (keep-edges weight 3, others weight 1) implies the
//!   minimal-recoding and optimal-among-minimal properties proved in
//!   Appendix A of the paper (Theorems 4.1.8 / 4.1.9): any matching
//!   missing a retainable old color, or matching fewer vertices, has
//!   strictly smaller weight by the swap argument.

use crate::{Matching, WeightedBipartite};

const INF: i64 = i64::MAX / 4;

/// Computes a maximum-weight matching of `g`. Vertices may remain
/// unmatched; with strictly positive weights the result is always a
/// *maximal* matching (no edge can be added), and its total weight is
/// globally optimal.
#[allow(clippy::needless_range_loop)] // dual updates are index-coupled across u/v/p
pub fn max_weight_matching(g: &WeightedBipartite) -> Matching {
    let n = g.left_count(); // rows
    let rc = g.right_count();
    let m = rc + n; // real columns + one dummy column per row
    if n == 0 {
        return Matching {
            pairs: Vec::new(),
            weight: 0,
        };
    }

    // cost(i, j): negated weight for real edges, 0 for non-edges and
    // dummy columns. 1-indexed internally (index 0 = sentinel).
    let cost = |i: usize, j: usize| -> i64 {
        // i, j are 1-indexed row/column.
        if j <= rc {
            g.weight(i - 1, j - 1).map_or(0, |w| -w)
        } else {
            0
        }
    };

    // Potentials and matching state (e-maxx formulation).
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; m + 1];
    let mut p = vec![0usize; m + 1]; // p[j] = row matched to column j
    let mut way = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost(i0, j) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            debug_assert!(delta < INF, "augmentation must always succeed (dummies)");
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    // Extract: row -> column, keeping only genuine edges.
    let mut pairs = vec![None; n];
    let mut weight = 0i64;
    for j in 1..=rc {
        let i = p[j];
        if i == 0 {
            continue;
        }
        if let Some(w) = g.weight(i - 1, j - 1) {
            pairs[i - 1] = Some(j - 1);
            weight += w;
        }
    }
    let result = Matching { pairs, weight };
    debug_assert!(result.validate(g).is_ok());
    result
}

/// The production form of [`max_weight_matching`]: the same e-maxx
/// loop over a dense, row-major weight matrix, with every buffer kept
/// across phases and calls.
///
/// The recode planner fills a fresh `rows × cols` matrix per instance
/// ([`DenseHungarian::reset`]), then [`DenseHungarian::solve`]s it.
/// The matrix replaces [`WeightedBipartite`]'s binary-searched
/// adjacency lists; nothing else changes. Rows and columns are scanned
/// in the same order, a column still wins only on a strictly smaller
/// reduced cost (so the lowest index wins a tie), and each row still
/// gets one zero-cost dummy column. The result is therefore
/// bit-identical to [`max_weight_matching`] on the same weights — the
/// property `tests/planner_equivalence.rs` pins.
#[derive(Debug, Clone, Default)]
pub struct DenseHungarian {
    rows: usize,
    cols: usize,
    /// Row-major `rows × cols` weights; 0 marks a non-edge.
    weight: Vec<i64>,
    u: Vec<i64>,
    v: Vec<i64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<i64>,
    used: Vec<bool>,
    pairs: Vec<Option<usize>>,
}

impl DenseHungarian {
    /// Sizes the instance to `rows × cols` with no edges and returns
    /// its row-major weight matrix for the caller to fill. A weight of
    /// 0 is a non-edge; edges must weigh more than 0.
    pub fn reset(&mut self, rows: usize, cols: usize) -> &mut [i64] {
        self.rows = rows;
        self.cols = cols;
        self.weight.clear();
        self.weight.resize(rows * cols, 0);
        &mut self.weight
    }

    /// Solves the instance last set up by [`DenseHungarian::reset`]:
    /// per row, the column it is matched to, if any. The same
    /// maximum-weight matching [`max_weight_matching`] returns.
    #[allow(clippy::needless_range_loop)] // dual updates are index-coupled across u/v/p
    pub fn solve(&mut self) -> &[Option<usize>] {
        let (n, rc) = (self.rows, self.cols);
        let m = rc + n; // real columns + one dummy column per row
        debug_assert!(self.weight.iter().all(|&w| w >= 0), "weights are >= 0");
        self.pairs.clear();
        self.pairs.resize(n, None);
        if n == 0 {
            return &self.pairs;
        }
        let DenseHungarian {
            weight,
            u,
            v,
            p,
            way,
            minv,
            used,
            ..
        } = self;
        u.clear();
        u.resize(n + 1, 0);
        for buf in [&mut *v, &mut *minv] {
            buf.clear();
            buf.resize(m + 1, 0);
        }
        for buf in [&mut *p, &mut *way] {
            buf.clear();
            buf.resize(m + 1, 0);
        }
        used.resize(m + 1, false);

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            minv.fill(INF);
            used.fill(false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let ui = u[i0];
                let row = &weight[(i0 - 1) * rc..i0 * rc];
                let mut delta = INF;
                let mut j1 = 0usize;
                // The oracle's single `1..=m` scan, split at the real /
                // dummy boundary: real columns cost −weight, dummies 0.
                let mut relax = |j: usize, cost: i64| {
                    if used[j] {
                        return;
                    }
                    let cur = cost - ui - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                };
                for (j, &w) in (1..=rc).zip(row) {
                    relax(j, -w);
                }
                for j in rc + 1..=m {
                    relax(j, 0);
                }
                debug_assert!(delta < INF, "augmentation must always succeed (dummies)");
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        for j in 1..=rc {
            let i = p[j];
            if i != 0 && weight[(i - 1) * rc + j - 1] > 0 {
                self.pairs[i - 1] = Some(j - 1);
            }
        }
        &self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use proptest::prelude::*;

    #[test]
    fn empty_instances() {
        let g = WeightedBipartite::new(0, 0);
        let m = max_weight_matching(&g);
        assert_eq!(m.cardinality(), 0);
        assert_eq!(m.weight, 0);

        let g = WeightedBipartite::new(3, 0);
        let m = max_weight_matching(&g);
        assert_eq!(m.cardinality(), 0);

        let g = WeightedBipartite::new(0, 3);
        let m = max_weight_matching(&g);
        assert_eq!(m.pairs.len(), 0);
    }

    #[test]
    fn single_edge() {
        let mut g = WeightedBipartite::new(1, 1);
        g.add_edge(0, 0, 7);
        let m = max_weight_matching(&g);
        assert_eq!(m.pairs, vec![Some(0)]);
        assert_eq!(m.weight, 7);
    }

    #[test]
    fn prefers_heavier_edge() {
        // Both lefts want right 0; left 1's edge is heavier, left 0 has
        // an alternative.
        let mut g = WeightedBipartite::new(2, 2);
        g.add_edge(0, 0, 3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 5);
        let m = max_weight_matching(&g);
        assert_eq!(m.weight, 6);
        assert_eq!(m.pairs, vec![Some(1), Some(0)]);
    }

    #[test]
    fn weight_beats_cardinality_when_forced() {
        // The single heavy edge {(0,0)} (weight 10) beats the
        // max-cardinality matching {(0,1),(1,0)} (weight 2): with left 1
        // connected only to right 0, taking (0,0) leaves left 1
        // unmatched, and that is still optimal.
        let mut g = WeightedBipartite::new(2, 2);
        g.add_edge(0, 0, 10);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 1);
        let m = max_weight_matching(&g);
        assert_eq!(m.weight, 10);
        assert_eq!(m.pairs, vec![Some(0), None]);
        assert_eq!(m.weight, brute::brute_force_max_weight(&g).weight);
    }

    #[test]
    fn minim_style_instance_keeps_old_colors() {
        // Paper Fig 4(b)-like: three nodes with old colors {1, 1, 3}
        // (so color classes K1=2, K3=1) plus the joiner; colors 1..=3.
        // Everything is mutually assignable (no external constraints).
        // Old-color edges weigh 3. Minimal recoding: one of the two
        // color-1 nodes keeps 1, the color-3 node keeps 3, the other
        // color-1 node and the joiner get other colors.
        let mut g = WeightedBipartite::new(4, 4);
        // lefts: 0,1 old color 1; 2 old color 3; 3 = joiner (no old).
        for l in 0..4 {
            for r in 0..4 {
                let keep = ((l == 0 || l == 1) && r == 0) || (l == 2 && r == 2);
                let w = if keep { 3 } else { 1 };
                g.add_edge(l, r, w);
            }
        }
        let m = max_weight_matching(&g);
        assert_eq!(m.cardinality(), 4, "all four get colors");
        // Old colors 1 and 3 must both be retained by someone who had
        // them (weight argument of Thm 4.1.8).
        let kept_1 = m.pairs[0] == Some(0) || m.pairs[1] == Some(0);
        let kept_3 = m.pairs[2] == Some(2);
        assert!(kept_1, "one of the color-1 nodes must keep color 1");
        assert!(kept_3, "the color-3 node must keep color 3");
        assert_eq!(m.weight, 3 + 3 + 1 + 1);
    }

    #[test]
    fn respects_missing_edges() {
        // Left 0 may only take right 1; right 0 is exclusive to left 1.
        let mut g = WeightedBipartite::new(2, 2);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 3);
        g.add_edge(1, 1, 3);
        let m = max_weight_matching(&g);
        assert_eq!(m.pairs, vec![Some(1), Some(0)]);
        assert_eq!(m.weight, 4);
    }

    #[test]
    fn leaves_vertices_unmatched_when_graph_is_sparse() {
        let mut g = WeightedBipartite::new(3, 1);
        g.add_edge(0, 0, 1);
        g.add_edge(1, 0, 2);
        g.add_edge(2, 0, 1);
        let m = max_weight_matching(&g);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.pairs[1], Some(0), "heaviest contender wins");
    }

    #[test]
    fn rectangular_wide() {
        let mut g = WeightedBipartite::new(2, 6);
        g.add_edge(0, 5, 2);
        g.add_edge(1, 5, 3);
        g.add_edge(1, 0, 1);
        let m = max_weight_matching(&g);
        // Left 0 reaches only right 5, which left 1 also wants; the two
        // optima are {(1,5)} = 3 and {(0,5),(1,0)} = 2+1 = 3.
        assert_eq!(m.weight, 3);
        assert!(m.validate(&g).is_ok());
    }

    proptest! {
        /// The Hungarian result matches the brute-force optimum in
        /// total weight on random small instances, and is always valid.
        #[test]
        fn matches_brute_force(
            l in 0usize..6,
            r in 0usize..6,
            edges in proptest::collection::vec((0usize..6, 0usize..6, 1i64..10), 0..24)
        ) {
            let mut g = WeightedBipartite::new(l, r);
            for (a, b, w) in edges {
                if a < l && b < r {
                    g.add_edge(a, b, w);
                }
            }
            let fast = max_weight_matching(&g);
            prop_assert!(fast.validate(&g).is_ok());
            let slow = brute::brute_force_max_weight(&g);
            prop_assert_eq!(fast.weight, slow.weight);
        }

        /// The dense kernel returns exactly the oracle's pairs — tie
        /// breaks included — while one kernel is reused across
        /// differently shaped instances.
        #[test]
        fn dense_kernel_is_bit_identical_to_oracle(
            shapes in proptest::collection::vec(
                (0usize..7, 0usize..7, proptest::collection::vec(0i64..4, 49..50)),
                1..4,
            )
        ) {
            let mut kernel = DenseHungarian::default();
            for (l, r, weights) in shapes {
                let mut g = WeightedBipartite::new(l, r);
                let dense = kernel.reset(l, r);
                for a in 0..l {
                    for b in 0..r {
                        let w = weights[a * 7 + b];
                        dense[a * r + b] = w;
                        if w > 0 {
                            g.add_edge(a, b, w);
                        }
                    }
                }
                let oracle = max_weight_matching(&g);
                prop_assert_eq!(kernel.solve(), &oracle.pairs[..]);
            }
        }

        /// With uniform weights, max-weight == max-cardinality (scaled).
        #[test]
        fn uniform_weights_give_max_cardinality(
            edges in proptest::collection::vec((0usize..7, 0usize..7), 0..30)
        ) {
            let mut g = WeightedBipartite::new(7, 7);
            for (a, b) in edges {
                g.add_edge(a, b, 1);
            }
            let mw = max_weight_matching(&g);
            let mc = crate::hopcroft_karp::hopcroft_karp(&g);
            prop_assert_eq!(mw.weight as usize, mc.cardinality());
            prop_assert_eq!(mw.cardinality(), mc.cardinality());
        }

        /// Maximality: no edge can be added to the returned matching
        /// (both endpoints free) — guaranteed because weights are
        /// positive.
        #[test]
        fn result_is_maximal(
            edges in proptest::collection::vec((0usize..6, 0usize..6, 1i64..5), 0..20)
        ) {
            let mut g = WeightedBipartite::new(6, 6);
            for (a, b, w) in edges {
                g.add_edge(a, b, w);
            }
            let m = max_weight_matching(&g);
            let mut right_used = [false; 6];
            for p in m.pairs.iter().flatten() {
                right_used[*p] = true;
            }
            for l in 0..6 {
                if m.pairs[l].is_none() {
                    for &(r, _) in g.neighbors(l) {
                        prop_assert!(
                            right_used[r],
                            "edge ({l},{r}) could be added — not maximal"
                        );
                    }
                }
            }
        }
    }
}
