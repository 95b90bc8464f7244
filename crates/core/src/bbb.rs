//! The **BBB** baseline — the paper's §5 centralized comparator.
//!
//! "A strategy that uses a centralized coloring heuristic: the BBB
//! algorithm of \[7\], to recolor the entire network at every event."
//! Per DESIGN.md, the heuristic is realized as DSATUR on the TOCA
//! conflict graph (a smallest-last variant is also available). The two
//! behaviours the paper relies on are preserved: BBB produces the
//! lowest max-color-index curves (near-optimal global coloring) and
//! enormous recoding counts (it has no loyalty to the previous
//! assignment — "BBB performs badly since it recolors the entire
//! network at each event").

use crate::{ColorPlan, RecodingStrategy};
use minim_coloring::{dsatur, rlf, smallest_last, Coloring};
use minim_graph::{conflict, Color, UGraph};
use minim_net::event::AppliedEvent;
use minim_net::{Network, TopologyDelta};

/// Which global heuristic BBB runs at each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlobalHeuristic {
    /// DSATUR (Brélaz) — the default; near-optimal on these graphs.
    #[default]
    Dsatur,
    /// Smallest-last (degeneracy) ordering + first-fit.
    SmallestLast,
    /// Recursive Largest First (Leighton) — strongest on dense graphs.
    Rlf,
}

impl GlobalHeuristic {
    fn run(self, g: &UGraph) -> Coloring {
        match self {
            GlobalHeuristic::Dsatur => dsatur(g),
            GlobalHeuristic::SmallestLast => smallest_last(g),
            GlobalHeuristic::Rlf => rlf(g),
        }
    }
}

/// The centralized recolor-everything baseline.
#[derive(Debug, Clone, Default)]
pub struct Bbb {
    /// The global coloring heuristic to apply.
    pub heuristic: GlobalHeuristic,
}

impl Bbb {
    /// A BBB variant running smallest-last instead of DSATUR.
    pub fn smallest_last() -> Self {
        Bbb {
            heuristic: GlobalHeuristic::SmallestLast,
        }
    }

    /// A BBB variant running RLF instead of DSATUR.
    pub fn rlf() -> Self {
        Bbb {
            heuristic: GlobalHeuristic::Rlf,
        }
    }
}

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
        let coloring = self.heuristic.run(&ug);
        ids.into_iter()
            .zip(coloring.colors)
            .map(|(id, c)| (id, Color::new(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrategyKind;
    use minim_net::workload::JoinWorkload;
    use minim_net::NodeConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn smallest_last_and_rlf_variants_also_valid() {
        for mut strategy in [Bbb::smallest_last(), Bbb::rlf()] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut net = Network::new(25.0);
            for e in JoinWorkload::paper(40).generate(&mut rng) {
                strategy.apply(&mut net, &e);
                assert!(net.validate().is_ok());
            }
        }
    }

    #[test]
    fn bbb_recolors_on_every_event_type() {
        let mut strategy = Bbb::default();
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
