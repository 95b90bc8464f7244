//! Global graph-coloring heuristics.
//!
//! The paper's BBB baseline (\[7\], Battiti–Bertossi–Bonuccelli) recolors
//! the **entire network** with a centralized near-optimal heuristic at
//! every event (§5: "a strategy that uses a centralized coloring
//! heuristic: the BBB algorithm of \[7\], to recolor the entire network
//! at every event"). We do not have the text of \[7\]; per DESIGN.md we
//! realize BBB as **DSATUR** (Brélaz \[9\], which the paper itself cites
//! for the coloring mapping) applied to the TOCA conflict graph — the
//! canonical near-optimal heuristic of this family — and additionally
//! provide greedy and smallest-last (degeneracy) orderings for
//! comparison and ablation.
//!
//! Colors here are dense `u32` indices starting at 1 so they plug
//! directly into [`minim_graph::Color`].
//!
//! * [`greedy_coloring`] — first-fit in a caller-given order.
//! * [`dsatur`] — Brélaz's saturation-degree heuristic.
//! * [`smallest_last`] — degeneracy ordering + first-fit.
//! * [`exact_chromatic`] — exponential branch-and-bound, for validating
//!   heuristic quality on small graphs in tests.
//! * [`validate_coloring`] — proper-coloring check.

#![deny(missing_docs)]

use minim_graph::UGraph;

/// A coloring of a dense [`UGraph`]: `colors[v]` is the color of vertex
/// `v`, with colors in `1..=max`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Per-vertex colors, 1-based values.
    pub colors: Vec<u32>,
}

impl Coloring {
    /// The number of colors used (the maximum color index, since all
    /// heuristics here use consecutive colors from 1).
    pub fn color_count(&self) -> u32 {
        self.colors.iter().copied().max().unwrap_or(0)
    }
}

/// Checks that `c` is a proper coloring of `g` (adjacent vertices get
/// different colors and every vertex is colored).
pub fn validate_coloring(g: &UGraph, c: &Coloring) -> Result<(), String> {
    if c.colors.len() != g.vertex_count() {
        return Err(format!(
            "coloring covers {} of {} vertices",
            c.colors.len(),
            g.vertex_count()
        ));
    }
    for (i, &col) in c.colors.iter().enumerate() {
        if col == 0 {
            return Err(format!("vertex {i} uncolored"));
        }
    }
    for (u, v) in g.edges() {
        if c.colors[u] == c.colors[v] {
            return Err(format!(
                "edge ({u},{v}) monochromatic with color {}",
                c.colors[u]
            ));
        }
    }
    Ok(())
}

/// First-fit (lowest available color) coloring in the given vertex
/// `order`, which must be a permutation of `0..g.vertex_count()`.
///
/// # Panics
/// Panics if `order` is not a permutation.
pub fn greedy_coloring(g: &UGraph, order: &[usize]) -> Coloring {
    let n = g.vertex_count();
    assert_eq!(order.len(), n, "order must cover all vertices");
    let mut seen = vec![false; n];
    for &v in order {
        assert!(v < n && !seen[v], "order must be a permutation");
        seen[v] = true;
    }

    let mut colors = vec![0u32; n];
    // Scratch buffer: forbidden[c] == stamp means color c+1 is taken by
    // a neighbor in this round. Stamping avoids clearing per vertex.
    let mut forbidden = vec![0u32; n + 1];
    let mut stamp = 0u32;
    for &v in order {
        stamp += 1;
        for &u in g.neighbors(v) {
            let cu = colors[u];
            if cu != 0 && (cu as usize) <= n {
                forbidden[cu as usize - 1] = stamp;
            }
        }
        let mut c = 0usize;
        while forbidden[c] == stamp {
            c += 1;
        }
        colors[v] = (c + 1) as u32;
    }
    Coloring { colors }
}

/// Identity order `0..n` — the simplest greedy baseline.
pub fn greedy_identity(g: &UGraph) -> Coloring {
    let order: Vec<usize> = (0..g.vertex_count()).collect();
    greedy_coloring(g, &order)
}

/// DSATUR (Brélaz 1979): repeatedly color the vertex with the highest
/// *saturation degree* (number of distinct colors among its neighbors),
/// breaking ties by degree then by index, assigning the lowest legal
/// color. Near-optimal on geometric/sparse graphs; this is the engine
/// of the BBB baseline.
pub fn dsatur(g: &UGraph) -> Coloring {
    let n = g.vertex_count();
    let mut colors = vec![0u32; n];
    if n == 0 {
        return Coloring { colors };
    }
    // Per-vertex sets of neighbor colors, as sorted vecs (small degrees
    // in geometric graphs make this faster than hash sets).
    let mut neighbor_colors: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut uncolored = n;
    while uncolored > 0 {
        // Pick max (saturation, degree, -index).
        let mut best: Option<usize> = None;
        for v in 0..n {
            if colors[v] != 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let sv = neighbor_colors[v].len();
                    let sb = neighbor_colors[b].len();
                    sv > sb || (sv == sb && g.degree(v) > g.degree(b))
                }
            };
            if better {
                best = Some(v);
            }
        }
        let v = best.expect("an uncolored vertex exists");
        // Lowest color not among neighbors.
        let mut c = 1u32;
        for &nc in &neighbor_colors[v] {
            if nc > c {
                break;
            }
            if nc == c {
                c += 1;
            }
        }
        colors[v] = c;
        for &u in g.neighbors(v) {
            if colors[u] == 0 {
                let list = &mut neighbor_colors[u];
                if let Err(i) = list.binary_search(&c) {
                    list.insert(i, c);
                }
            }
        }
        uncolored -= 1;
    }
    Coloring { colors }
}

/// Recursive Largest First (Leighton 1979): peel off one color class
/// at a time. Each class starts from the highest-degree uncolored
/// vertex; subsequent members maximize the number of neighbors among
/// the vertices already *excluded* from the class (so the class packs
/// tightly against its boundary). Usually the strongest of the classic
/// constructive heuristics on dense graphs, at `O(n³)` worst case —
/// provided as a third BBB engine.
pub fn rlf(g: &UGraph) -> Coloring {
    let n = g.vertex_count();
    let mut colors = vec![0u32; n];
    let mut uncolored = n;
    let mut color = 0u32;
    // Scratch:  0 = candidate, 1 = excluded (adjacent to class), 2 = colored.
    while uncolored > 0 {
        color += 1;
        let mut state: Vec<u8> = colors.iter().map(|&c| if c == 0 { 0 } else { 2 }).collect();
        // Seed: max degree among candidates (ties by index).
        let seed = (0..n)
            .filter(|&v| state[v] == 0)
            .max_by_key(|&v| {
                (
                    g.neighbors(v).iter().filter(|&&u| state[u] == 0).count(),
                    n - v,
                )
            })
            .expect("uncolored vertices remain");
        colors[seed] = color;
        uncolored -= 1;
        state[seed] = 2;
        for &u in g.neighbors(seed) {
            if state[u] == 0 {
                state[u] = 1;
            }
        }
        loop {
            // Next member: candidate with the most excluded neighbors;
            // ties by fewest candidate neighbors, then index.
            let next = (0..n).filter(|&v| state[v] == 0).max_by_key(|&v| {
                let excluded = g.neighbors(v).iter().filter(|&&u| state[u] == 1).count();
                let candidates = g.neighbors(v).iter().filter(|&&u| state[u] == 0).count();
                (excluded, n - candidates, n - v)
            });
            let Some(v) = next else { break };
            colors[v] = color;
            uncolored -= 1;
            state[v] = 2;
            for &u in g.neighbors(v) {
                if state[u] == 0 {
                    state[u] = 1;
                }
            }
        }
    }
    Coloring { colors }
}

/// Smallest-last (degeneracy) ordering + first-fit: repeatedly remove a
/// minimum-degree vertex; color in reverse removal order. Guarantees at
/// most `degeneracy + 1` colors.
pub fn smallest_last(g: &UGraph) -> Coloring {
    let n = g.vertex_count();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !removed[v])
            .min_by_key(|&v| (deg[v], v))
            .expect("vertices remain");
        removed[v] = true;
        order.push(v);
        for &u in g.neighbors(v) {
            if !removed[u] {
                deg[u] -= 1;
            }
        }
    }
    order.reverse();
    greedy_coloring(g, &order)
}

/// The exact chromatic number by branch and bound with clique seeding.
/// Exponential — only for validation on small graphs (tests cap at
/// ~12 vertices).
pub fn exact_chromatic(g: &UGraph) -> u32 {
    let n = g.vertex_count();
    if n == 0 {
        return 0;
    }
    // Upper bound from DSATUR, lower bound from the exact clique.
    let ub = dsatur(g).color_count();
    let lb = g.max_clique_exact() as u32;
    if lb == ub {
        return ub;
    }

    // Order vertices by degree descending for better pruning.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));

    fn feasible(g: &UGraph, order: &[usize], idx: usize, k: u32, colors: &mut Vec<u32>) -> bool {
        if idx == order.len() {
            return true;
        }
        let v = order[idx];
        // Symmetry breaking: only allow colors up to (max used so far)+1.
        let max_used = colors.iter().copied().max().unwrap_or(0);
        let cap = k.min(max_used + 1);
        'cand: for c in 1..=cap {
            for &u in g.neighbors(v) {
                if colors[u] == c {
                    continue 'cand;
                }
            }
            colors[v] = c;
            if feasible(g, order, idx + 1, k, colors) {
                colors[v] = 0;
                return true;
            }
            colors[v] = 0;
        }
        false
    }

    for k in lb..ub {
        let mut colors = vec![0u32; n];
        if feasible(g, &order, 0, k, &mut colors) {
            return k;
        }
    }
    ub
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cycle(n: usize) -> UGraph {
        let mut g = UGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    fn complete(n: usize) -> UGraph {
        let mut g = UGraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        g
    }

    fn random_graph(n: usize, p: f64, seed: u64) -> UGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = UGraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    #[test]
    fn known_chromatic_numbers() {
        assert_eq!(exact_chromatic(&complete(5)), 5);
        assert_eq!(exact_chromatic(&cycle(6)), 2, "even cycle");
        assert_eq!(exact_chromatic(&cycle(7)), 3, "odd cycle");
        assert_eq!(exact_chromatic(&UGraph::new(4)), 1, "independent set");
        assert_eq!(exact_chromatic(&UGraph::new(0)), 0);
    }

    #[test]
    fn dsatur_is_exact_on_easy_families() {
        // DSATUR is provably exact on bipartite graphs.
        let mut g = UGraph::new(6); // K_{3,3}
        for i in 0..3 {
            for j in 3..6 {
                g.add_edge(i, j);
            }
        }
        let c = dsatur(&g);
        assert!(validate_coloring(&g, &c).is_ok());
        assert_eq!(c.color_count(), 2);

        let c = dsatur(&complete(6));
        assert_eq!(c.color_count(), 6);

        let c = dsatur(&cycle(9));
        assert_eq!(c.color_count(), 3);
    }

    #[test]
    fn smallest_last_respects_degeneracy_bound() {
        // A tree has degeneracy 1 → at most 2 colors.
        let mut g = UGraph::new(7);
        for i in 1..7 {
            g.add_edge(i, (i - 1) / 2); // complete binary tree
        }
        let c = smallest_last(&g);
        assert!(validate_coloring(&g, &c).is_ok());
        assert_eq!(c.color_count(), 2);
    }

    #[test]
    fn greedy_coloring_rejects_bad_orders() {
        let g = cycle(4);
        let r = std::panic::catch_unwind(|| greedy_coloring(&g, &[0, 1, 2]));
        assert!(r.is_err(), "short order must panic");
        let r = std::panic::catch_unwind(|| greedy_coloring(&g, &[0, 1, 2, 2]));
        assert!(r.is_err(), "duplicate order must panic");
    }

    #[test]
    fn validate_coloring_detects_problems() {
        let g = cycle(4);
        let good = Coloring {
            colors: vec![1, 2, 1, 2],
        };
        assert!(validate_coloring(&g, &good).is_ok());
        let mono = Coloring {
            colors: vec![1, 1, 1, 1],
        };
        assert!(validate_coloring(&g, &mono).is_err());
        let uncolored = Coloring {
            colors: vec![1, 2, 1, 0],
        };
        assert!(validate_coloring(&g, &uncolored).is_err());
        let short = Coloring {
            colors: vec![1, 2, 1],
        };
        assert!(validate_coloring(&g, &short).is_err());
    }

    #[test]
    fn heuristics_bounded_by_max_degree_plus_one() {
        for seed in 0..10 {
            let g = random_graph(24, 0.3, seed);
            let bound = g.max_degree() as u32 + 1;
            for c in [greedy_identity(&g), dsatur(&g), smallest_last(&g), rlf(&g)] {
                assert!(validate_coloring(&g, &c).is_ok());
                assert!(c.color_count() <= bound);
            }
        }
    }

    #[test]
    fn rlf_is_exact_on_easy_families() {
        assert_eq!(rlf(&complete(6)).color_count(), 6);
        assert_eq!(rlf(&cycle(8)).color_count(), 2);
        assert_eq!(rlf(&cycle(9)).color_count(), 3);
        assert_eq!(rlf(&UGraph::new(5)).color_count(), 1);
        // K_{3,3}: one side per class.
        let mut g = UGraph::new(6);
        for i in 0..3 {
            for j in 3..6 {
                g.add_edge(i, j);
            }
        }
        let c = rlf(&g);
        assert!(validate_coloring(&g, &c).is_ok());
        assert_eq!(c.color_count(), 2);
    }

    #[test]
    fn rlf_competitive_with_dsatur_on_random_graphs() {
        let mut rlf_within_one = 0;
        let trials = 25;
        for seed in 0..trials {
            let g = random_graph(28, 0.35, 2000 + seed);
            let a = rlf(&g).color_count();
            let b = dsatur(&g).color_count();
            if a <= b + 1 {
                rlf_within_one += 1;
            }
        }
        assert!(
            rlf_within_one >= trials * 8 / 10,
            "RLF within one color of DSATUR only {rlf_within_one}/{trials}"
        );
    }

    #[test]
    fn dsatur_usually_beats_or_ties_identity_greedy_on_random_graphs() {
        let mut dsatur_wins_or_ties = 0;
        let trials = 30;
        for seed in 0..trials {
            let g = random_graph(30, 0.25, 1000 + seed);
            if dsatur(&g).color_count() <= greedy_identity(&g).color_count() {
                dsatur_wins_or_ties += 1;
            }
        }
        // DSATUR should dominate the naive order nearly always.
        assert!(
            dsatur_wins_or_ties >= trials * 8 / 10,
            "DSATUR won/tied only {dsatur_wins_or_ties}/{trials}"
        );
    }

    proptest! {
        #[test]
        fn all_heuristics_produce_proper_colorings(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..50)
        ) {
            let mut g = UGraph::new(12);
            for (u, v) in edges {
                if u != v {
                    g.add_edge(u, v);
                }
            }
            for c in [greedy_identity(&g), dsatur(&g), smallest_last(&g), rlf(&g)] {
                prop_assert!(validate_coloring(&g, &c).is_ok());
            }
        }

        #[test]
        fn heuristics_are_sandwiched_by_exact(
            edges in proptest::collection::vec((0usize..9, 0usize..9), 0..25)
        ) {
            let mut g = UGraph::new(9);
            for (u, v) in edges {
                if u != v {
                    g.add_edge(u, v);
                }
            }
            let chi = exact_chromatic(&g);
            let clique = g.max_clique_exact() as u32;
            prop_assert!(clique <= chi);
            for c in [dsatur(&g), smallest_last(&g), greedy_identity(&g), rlf(&g)] {
                prop_assert!(c.color_count() >= chi);
            }
        }
    }
}
