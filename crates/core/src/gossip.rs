//! Gossip-based code-reuse compaction — the paper's §6 **future work**,
//! implemented as an extension.
//!
//! "Future work will focus on a recoding strategy that seeks to
//! maximize the network-wide code reuse by using a local gossiping
//! strategy [...] during the (possibly significantly long) periods when
//! no nodes connect to, move about or increase their power."
//!
//! Each gossip round, every node computes the lowest color consistent
//! with its **exact** CA1/CA2 constraints and migrates to it if that is
//! strictly lower than its current color. Migrations within a round are
//! serialized in descending identity order (the same vicinity rule the
//! CP reselection uses: concurrently migrating nodes more than 2 hops
//! apart cannot constrain each other, so this is a valid linearization
//! of a distributed execution where each node moves only when it is the
//! highest-identity migrant in its 2-hop vicinity).
//!
//! Every individual migration preserves CA1/CA2 (the target color is
//! checked against the *current* colors of all conflict partners), so
//! the assignment is valid after every round; the maximum color index
//! is non-increasing and the process reaches a fixpoint (each node's
//! color is non-increasing and bounded below by 1).
//!
//! Gossip is a background process for quiet times, not an event rule,
//! so it is no [`crate::RecodingStrategy`]. A caller that interleaves it
//! with events runs [`GossipCompactor::round`] between them, as
//! `minim_sim::experiments::hybrid_gossip_study` does every `period`
//! events.

use minim_graph::{conflict, Color, NodeId};
use minim_net::Network;

/// Background color-compaction gossiper.
#[derive(Debug, Clone, Copy, Default)]
pub struct GossipCompactor;

/// Result of one compaction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Rounds executed (including the final, empty round that proved
    /// the fixpoint).
    pub rounds: usize,
    /// Total color migrations performed.
    pub migrations: usize,
    /// Max color index before compaction.
    pub max_color_before: u32,
    /// Max color index after compaction.
    pub max_color_after: u32,
}

impl GossipCompactor {
    /// Runs a single gossip round. Returns the number of migrations.
    pub fn round(&self, net: &mut Network) -> usize {
        // The loop below recolors while iterating, so the ids are
        // collected first (from the borrowing iterator).
        let mut ids: Vec<NodeId> = net.iter_nodes().collect();
        ids.sort_unstable_by(|a, b| b.cmp(a)); // highest identity first
        let mut moves = 0;
        for id in ids {
            let Some(current) = net.assignment().get(id) else {
                continue;
            };
            let constraints = conflict::constraint_colors(net.graph(), net.assignment(), id);
            let lowest = Color::lowest_excluding(constraints);
            if lowest < current {
                net.assignment_mut().set(id, lowest);
                moves += 1;
            }
        }
        debug_assert!(net.validate().is_ok(), "gossip round broke the assignment");
        moves
    }

    /// Runs rounds until a fixpoint (or `max_rounds`).
    pub fn run(&self, net: &mut Network, max_rounds: usize) -> CompactionStats {
        let max_color_before = net.max_color_index();
        let mut rounds = 0;
        let mut migrations = 0;
        while rounds < max_rounds {
            rounds += 1;
            let m = self.round(net);
            migrations += m;
            if m == 0 {
                break;
            }
        }
        CompactionStats {
            rounds,
            migrations,
            max_color_before,
            max_color_after: net.max_color_index(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Minim, RecodingStrategy};
    use minim_geom::Point;
    use minim_net::workload::{JoinWorkload, MovementWorkload};
    use minim_net::{Network, NodeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compaction_reduces_wasteful_colors() {
        // Two isolated nodes manually given high colors.
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 2.0));
        let b = net.join(NodeConfig::new(Point::new(50.0, 50.0), 2.0));
        net.set_color(a, Color::new(7));
        net.set_color(b, Color::new(9));
        let stats = GossipCompactor.run(&mut net, 100);
        assert_eq!(net.assignment().get(a), Some(Color::new(1)));
        assert_eq!(net.assignment().get(b), Some(Color::new(1)));
        assert_eq!(stats.max_color_before, 9);
        assert_eq!(stats.max_color_after, 1);
        assert_eq!(stats.migrations, 2);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn compaction_preserves_validity_after_churn() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        for e in JoinWorkload::paper(60).generate(&mut rng) {
            m.apply(&mut net, &e);
        }
        // Churn: several movement rounds inflate the color count.
        for _ in 0..3 {
            for e in MovementWorkload::paper(40.0, 1).generate_round(&net, &mut rng) {
                m.apply(&mut net, &e);
            }
        }
        let before = net.max_color_index();
        let stats = GossipCompactor.run(&mut net, 50);
        assert!(net.validate().is_ok());
        assert!(stats.max_color_after <= before);
        assert_eq!(stats.max_color_before, before);
    }

    #[test]
    fn fixpoint_round_is_empty_and_stable() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        for e in JoinWorkload::paper(30).generate(&mut rng) {
            m.apply(&mut net, &e);
        }
        GossipCompactor.run(&mut net, 100);
        let snapshot = net.snapshot_assignment();
        // Another run changes nothing.
        let stats = GossipCompactor.run(&mut net, 100);
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.rounds, 1);
        assert_eq!(net.snapshot_assignment(), snapshot);
    }

    #[test]
    fn max_color_is_monotone_across_rounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        for e in JoinWorkload::paper(50).generate(&mut rng) {
            m.apply(&mut net, &e);
        }
        let mut last = net.max_color_index();
        for _ in 0..10 {
            GossipCompactor.round(&mut net);
            let now = net.max_color_index();
            assert!(now <= last);
            last = now;
        }
    }

    #[test]
    fn empty_network_compacts_trivially() {
        let mut net = Network::new(10.0);
        let stats = GossipCompactor.run(&mut net, 10);
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.max_color_after, 0);
    }
}
