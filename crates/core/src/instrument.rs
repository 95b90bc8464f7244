//! Per-event-type accounting of a run — the bookkeeping behind the §5
//! metrics, reusable by examples and by downstream users evaluating
//! their own strategies. Feed [`StrategyStats::record`] each result of
//! [`crate::run_event`].

use crate::RecodeOutcome;
use minim_net::event::AppliedEvent;
use minim_net::TopologyDelta;

/// Counters for one event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Events of this type handled.
    pub events: usize,
    /// Recodings those events caused.
    pub recodings: usize,
    /// Largest single-event recoding count.
    pub worst_event: usize,
}

impl KindStats {
    fn record(&mut self, outcome: &RecodeOutcome) {
        self.events += 1;
        self.recodings += outcome.recodings();
        self.worst_event = self.worst_event.max(outcome.recodings());
    }

    /// Mean recodings per event (0 when no events).
    pub fn mean_recodings(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.recodings as f64 / self.events as f64
        }
    }
}

/// Accumulated per-kind statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrategyStats {
    /// Join events.
    pub joins: KindStats,
    /// Leave events.
    pub leaves: KindStats,
    /// Move events.
    pub moves: KindStats,
    /// Range changes (increases and decreases combined; decreases are
    /// provably recode-free, so their recodings stay 0).
    pub range_changes: KindStats,
    /// Highest max-color-index observed after any event.
    pub peak_color: u32,
    /// Total digraph edge insertions + removals across all events —
    /// the `Δ` that bounds per-event work, summed (read off each
    /// event's [`minim_net::TopologyDelta`]).
    pub edge_churn: usize,
}

impl StrategyStats {
    /// Accounts one event: what the topology step did, its delta, and
    /// what the writes recoded.
    pub fn record(
        &mut self,
        applied: &AppliedEvent,
        delta: &TopologyDelta,
        outcome: &RecodeOutcome,
    ) {
        let kind = match applied {
            AppliedEvent::Joined(_) => &mut self.joins,
            AppliedEvent::Left(_) => &mut self.leaves,
            AppliedEvent::Moved(_) => &mut self.moves,
            AppliedEvent::RangeChanged(..) => &mut self.range_changes,
        };
        kind.record(outcome);
        self.peak_color = self.peak_color.max(outcome.max_color_after);
        self.edge_churn += delta.edge_churn();
    }

    /// Totals across all kinds.
    pub fn total_events(&self) -> usize {
        self.joins.events + self.leaves.events + self.moves.events + self.range_changes.events
    }

    /// Total recodings across all kinds (the paper's cumulative
    /// metric).
    pub fn total_recodings(&self) -> usize {
        self.joins.recodings
            + self.leaves.recodings
            + self.moves.recodings
            + self.range_changes.recodings
    }
}

impl std::fmt::Display for StrategyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events: {} joins / {} leaves / {} moves / {} range changes; \
             recodings: {} (join {:.2}/ev, move {:.2}/ev, range {:.2}/ev); \
             peak color {}",
            self.joins.events,
            self.leaves.events,
            self.moves.events,
            self.range_changes.events,
            self.total_recodings(),
            self.joins.mean_recodings(),
            self.moves.mean_recodings(),
            self.range_changes.mean_recodings(),
            self.peak_color,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_event, Minim, ValidationMode, Writes};
    use minim_geom::{sample, Point, Rect};
    use minim_graph::Color;
    use minim_net::event::Event;
    use minim_net::workload::{JoinWorkload, MovementWorkload};
    use minim_net::{Network, NodeConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Runs `event` with Minim and accounts it.
    fn run(stats: &mut StrategyStats, net: &mut Network, event: &Event) {
        let done = run_event(
            net,
            event,
            None,
            Writes::Plan(&Minim::default()),
            ValidationMode::Delta,
        )
        .expect("Minim keeps the network valid");
        stats.record(&done.applied, &done.delta, &done.outcome);
    }

    #[test]
    fn counts_every_event_kind() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = StrategyStats::default();
        let mut net = Network::new(25.0);
        for e in JoinWorkload::paper(20).generate(&mut rng) {
            run(&mut s, &mut net, &e);
        }
        for e in MovementWorkload::paper(30.0, 1).generate_round(&net, &mut rng) {
            run(&mut s, &mut net, &e);
        }
        let ids = net.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        let r = net.config(victim).unwrap().range;
        let range = |range| Event::SetRange {
            node: victim,
            range,
        };
        run(&mut s, &mut net, &range(r * 2.0));
        run(&mut s, &mut net, &range(r)); // decrease back
        run(&mut s, &mut net, &Event::Leave { node: ids[0] });

        assert_eq!(s.joins.events, 20);
        assert_eq!(s.moves.events, 20);
        assert_eq!(s.range_changes.events, 2);
        assert_eq!(s.leaves.events, 1);
        assert_eq!(s.total_events(), 43);
        assert_eq!(s.leaves.recodings, 0, "leaves are free");
        assert!(s.joins.recodings >= 20, "every join colors the joiner");
        assert!(s.peak_color >= net.max_color_index());
        assert!(s.edge_churn > 0, "joins wire edges");
    }

    #[test]
    fn mean_recodings_and_display() {
        let mut s = StrategyStats::default();
        let mut net = Network::new(10.0);
        let arena = Rect::paper_arena();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let cfg = NodeConfig::new(sample::uniform_point(&mut rng, &arena), 20.0);
            run(&mut s, &mut net, &Event::Join { cfg });
        }
        assert!(s.joins.mean_recodings() >= 1.0);
        let text = s.to_string();
        assert!(text.contains("5 joins"));
        assert!(text.contains("peak color"));
        assert_eq!(KindStats::default().mean_recodings(), 0.0);
    }

    #[test]
    fn worst_event_tracks_maximum() {
        let mut s = StrategyStats::default();
        let mut net = Network::new(10.0);
        // A join with duplicate-colored in-neighbors recodes > 1 node.
        let a = net.join(NodeConfig::new(Point::new(44.0, 50.0), 7.0));
        let b = net.join(NodeConfig::new(Point::new(56.0, 50.0), 7.0));
        net.set_color(a, Color::new(1));
        net.set_color(b, Color::new(1));
        let cfg = NodeConfig::new(Point::new(50.0, 50.0), 7.0);
        run(&mut s, &mut net, &Event::Join { cfg });
        assert_eq!(s.joins.worst_event, 2, "one duplicate + the joiner");
    }
}
