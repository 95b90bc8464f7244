//! The **BBB** baseline — the paper's §5 centralized comparator.
//!
//! "A strategy that uses a centralized coloring heuristic: the BBB
//! algorithm of \[7\], to recolor the entire network at every event."
//! The text of \[7\] (Battiti–Bertossi–Bonuccelli) is not available, so
//! BBB runs **DSATUR** (Brélaz \[9\], which the paper itself cites for
//! the coloring mapping) on the TOCA conflict graph — the canonical
//! near-optimal heuristic of this family. The two behaviours the paper
//! relies on are preserved: BBB produces the lowest max-color-index
//! curves (near-optimal global coloring) and enormous recoding counts
//! (it has no loyalty to the previous assignment — "BBB performs badly
//! since it recolors the entire network at each event").

use crate::{ColorPlan, RecodingStrategy};
use minim_graph::{conflict, Color, UGraph};
use minim_net::event::AppliedEvent;
use minim_net::{Network, TopologyDelta};

/// The centralized recolor-everything baseline.
#[derive(Debug, Clone, Default)]
pub struct Bbb;

impl RecodingStrategy for Bbb {
    fn name(&self) -> &'static str {
        "BBB"
    }

    /// Recolors the whole network from scratch: a write for every
    /// node, of which [`crate::commit_plan`] keeps those that change a
    /// color. BBB deliberately ignores the delta's locality —
    /// recoloring the whole network at every event is exactly the
    /// behaviour the paper measures it for.
    fn plan_batched(
        &self,
        net: &Network,
        _applied: &AppliedEvent,
        _delta: &TopologyDelta,
    ) -> ColorPlan {
        let (ug, ids) = conflict::conflict_graph(net.graph());
        ids.into_iter()
            .zip(dsatur(&ug))
            .map(|(id, c)| (id, Color::new(c)))
            .collect()
    }
}

/// DSATUR (Brélaz 1979): repeatedly color the vertex with the highest
/// *saturation degree* (number of distinct colors among its neighbors),
/// breaking ties by degree then by index, assigning the lowest legal
/// color. Returns `colors[v]` for every vertex `v`, with colors in
/// `1..`. The pick order — highest saturation, then highest degree,
/// then lowest index, then the lowest free color — decides every BBB
/// write.
fn dsatur(g: &UGraph) -> Vec<u32> {
    let n = g.vertex_count();
    let mut colors = vec![0u32; n];
    if n == 0 {
        return colors;
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
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrategyKind;
    use minim_net::workload::JoinWorkload;
    use minim_net::NodeConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_joins(kind: StrategyKind, count: usize, seed: u64) -> (Network, usize) {
        let mut strategy = kind.build();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(25.0);
        let mut recodings = 0;
        for e in JoinWorkload::paper(count).generate(&mut rng) {
            recodings += strategy.apply(&mut net, &e).1.recodings();
        }
        (net, recodings)
    }

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

    /// Every vertex colored and no edge monochromatic.
    fn is_proper(g: &UGraph, colors: &[u32]) -> bool {
        colors.len() == g.vertex_count()
            && colors.iter().all(|&c| c != 0)
            && g.edges().all(|(u, v)| colors[u] != colors[v])
    }

    fn color_count(colors: &[u32]) -> u32 {
        colors.iter().copied().max().unwrap_or(0)
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
        assert!(is_proper(&g, &c));
        assert_eq!(color_count(&c), 2);

        assert_eq!(color_count(&dsatur(&complete(6))), 6);
        assert_eq!(color_count(&dsatur(&cycle(8))), 2, "even cycle");
        assert_eq!(color_count(&dsatur(&cycle(9))), 3, "odd cycle");
        assert_eq!(color_count(&dsatur(&UGraph::new(4))), 1, "independent set");
        assert!(dsatur(&UGraph::new(0)).is_empty());
    }

    #[test]
    fn dsatur_bounded_by_max_degree_plus_one() {
        for seed in 0..10 {
            let g = random_graph(24, 0.3, seed);
            let c = dsatur(&g);
            assert!(is_proper(&g, &c));
            assert!(color_count(&c) <= g.max_degree() as u32 + 1);
        }
    }

    proptest! {
        #[test]
        fn dsatur_produces_proper_colorings(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..50)
        ) {
            let mut g = UGraph::new(12);
            for (u, v) in edges {
                if u != v {
                    g.add_edge(u, v);
                }
            }
            prop_assert!(is_proper(&g, &dsatur(&g)));
        }
    }

    #[test]
    fn bbb_produces_valid_low_color_assignments() {
        let (net, _) = run_joins(StrategyKind::Bbb, 50, 3);
        assert!(net.validate().is_ok());
        let (net_minim, _) = run_joins(StrategyKind::Minim, 50, 3);
        // The global heuristic should use no more colors than the
        // local strategy.
        assert!(
            net.max_color_index() <= net_minim.max_color_index(),
            "BBB {} vs Minim {}",
            net.max_color_index(),
            net_minim.max_color_index()
        );
    }

    #[test]
    fn bbb_recodes_far_more_than_minim() {
        let (_, bbb_rec) = run_joins(StrategyKind::Bbb, 50, 4);
        let (_, minim_rec) = run_joins(StrategyKind::Minim, 50, 4);
        assert!(
            bbb_rec > 2 * minim_rec,
            "expected BBB ({bbb_rec}) ≫ Minim ({minim_rec})"
        );
    }

    #[test]
    fn bbb_recolors_on_every_event_type() {
        let mut strategy = Bbb;
        let mut net = Network::new(10.0);
        use minim_geom::Point;
        let a = net.next_id();
        strategy.on_join(&mut net, a, NodeConfig::new(Point::new(0.0, 0.0), 6.0));
        let b = net.next_id();
        strategy.on_join(&mut net, b, NodeConfig::new(Point::new(5.0, 0.0), 6.0));
        assert!(net.validate().is_ok());
        strategy.on_move(&mut net, b, Point::new(3.0, 0.0));
        assert!(net.validate().is_ok());
        strategy.on_set_range(&mut net, a, 12.0);
        assert!(net.validate().is_ok());
        strategy.on_leave(&mut net, b);
        assert!(net.validate().is_ok());
        assert_eq!(net.node_count(), 1);
        // The survivor is recolored to color 1 by the fresh global run.
        assert_eq!(net.assignment().get(a), Some(Color::new(1)));
    }
}
