//! The recoding strategies — the paper's contribution and its baselines.
//!
//! A *recoding strategy* is a set of algorithms, one per reconfiguration
//! event type, that restores CA1/CA2 after the event (§2). This crate
//! implements three:
//!
//! * [`Minim`] — the paper's contribution (§4): provably **minimal**
//!   recoding per event. Joins and moves solve a maximum-weight
//!   bipartite matching between the affected nodes `1n ∪ 2n ∪ {n}` and
//!   the color indices (keep-your-old-color edges weigh 3, others 1);
//!   power increases recode at most the initiating node; leaves and
//!   power decreases are provably free.
//! * [`Cp`] — the Chlamtac–Pinter baseline (§3, \[3\]): identity-ordered
//!   greedy reselection with conservative 2-hop color avoidance.
//! * [`Bbb`] — the centralized baseline (§5, \[7\]): recolor the whole
//!   network with a near-optimal global heuristic (DSATUR per
//!   DESIGN.md) at every event.
//!
//! [`bounds`] computes the paper's minimal-recoding lower bounds so
//! tests can verify [`Minim`] attains them *exactly* (Theorems 4.1.8,
//! 4.2.3, 4.3.3, 4.4.4), and [`gossip`] implements the future-work
//! extension sketched in §6 (background code-reuse compaction).

#![deny(missing_docs)]

pub mod bbb;
pub mod bounds;
pub mod cp;
pub mod gossip;
pub mod instrument;
pub mod minim;

pub use bbb::Bbb;
pub use cp::Cp;
pub use gossip::MinimWithGossip;
pub use instrument::{Instrumented, StrategyStats};
pub use minim::{gather_recode_inputs, plan_recode, Minim, RecodePlanner, KEEP_WEIGHT};

use minim_geom::Point;
use minim_graph::{conflict, Color, NodeId};
use minim_net::event::{AppliedEvent, Event, PowerDirection};
use minim_net::{Network, NodeConfig, TopologyDelta};

/// What a strategy did in response to one event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecodeOutcome {
    /// `(node, old color, new color)` for every node whose color
    /// changed; `old` is `None` for a fresh assignment (a joiner's
    /// first code counts as a recoding, as in the paper's Fig 4).
    /// Sorted by node id.
    pub recoded: Vec<(NodeId, Option<Color>, Color)>,
    /// Maximum color index in the network after the event.
    pub max_color_after: u32,
}

impl RecodeOutcome {
    /// Number of recodings this event caused (the paper's second
    /// metric).
    pub fn recodings(&self) -> usize {
        self.recoded.len()
    }

    /// Builds an outcome by diffing the assignment against a snapshot.
    pub fn from_diff(net: &Network, before: &minim_graph::Assignment) -> Self {
        RecodeOutcome {
            recoded: net.assignment().recoded_nodes(before),
            max_color_after: net.max_color_index(),
        }
    }
}

/// The full effect of one handled event: the exact topology delta the
/// substrate reported and the recoding the strategy performed on top
/// of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventEffect {
    /// What the event did to the induced digraph.
    pub delta: TopologyDelta,
    /// What the strategy recoded in response.
    pub outcome: RecodeOutcome,
}

/// The color writes one event's planning decided on, in application
/// order. Committing a plan (see [`commit_plan`]) sets each pair on
/// the real assignment; writes that match the node's current color are
/// recorded as no-ops, exactly like the snapshot-diff accounting.
pub type ColorPlan = Vec<(NodeId, Color)>;

/// Applies a [`ColorPlan`] to the network and builds the
/// [`RecodeOutcome`] by diffing against the pre-commit colors — the
/// `O(plan)` equivalent of `RecodeOutcome::from_diff`'s full-assignment
/// scan (only planned nodes can have changed).
pub fn commit_plan(net: &mut Network, plan: &ColorPlan) -> RecodeOutcome {
    let mut recoded: Vec<(NodeId, Option<Color>, Color)> = Vec::with_capacity(plan.len());
    for &(n, c) in plan {
        let old = net.assignment().get(n);
        if old != Some(c) {
            net.assignment_mut().set(n, c);
            recoded.push((n, old, c));
        }
    }
    recoded.sort_by_key(|&(n, _, _)| n);
    debug_assert!(
        recoded.windows(2).all(|w| w[0].0 != w[1].0),
        "a plan must write each node at most once"
    );
    RecodeOutcome {
        recoded,
        max_color_after: net.max_color_index(),
    }
}

/// A recoding strategy: one algorithm per event type.
///
/// Each handler applies the topology change itself (so it can observe
/// the network both before and after) and then restores CA1/CA2. Every
/// implementation guarantees validity on return, provided it held
/// before the event.
///
/// The `*_delta` handlers are the required implementations: they
/// receive the [`TopologyDelta`] from the mutating `Network` call and
/// recode *from the delta* — partitions, recode sets, and new
/// constraints all come out of it, so per-event work is
/// `O(affected neighborhood)`, matching the paper's locality claim.
/// The delta-less `on_*` methods are provided conveniences for
/// callers that only need the [`RecodeOutcome`].
pub trait RecodingStrategy {
    /// Human-readable name for tables and plots.
    fn name(&self) -> &'static str;

    /// Node `id` (fresh, from [`Network::next_id`]) joins with `cfg`.
    fn on_join_delta(&mut self, net: &mut Network, id: NodeId, cfg: NodeConfig) -> EventEffect;

    /// Node `id` leaves the network.
    fn on_leave_delta(&mut self, net: &mut Network, id: NodeId) -> EventEffect;

    /// Node `id` moves to `to`.
    fn on_move_delta(&mut self, net: &mut Network, id: NodeId, to: Point) -> EventEffect;

    /// Node `id` changes its transmission range to `range` (the
    /// strategy decides how to treat increases vs decreases).
    fn on_set_range_delta(&mut self, net: &mut Network, id: NodeId, range: f64) -> EventEffect;

    /// Convenience: join, discarding the delta.
    fn on_join(&mut self, net: &mut Network, id: NodeId, cfg: NodeConfig) -> RecodeOutcome {
        self.on_join_delta(net, id, cfg).outcome
    }

    /// Convenience: leave, discarding the delta.
    fn on_leave(&mut self, net: &mut Network, id: NodeId) -> RecodeOutcome {
        self.on_leave_delta(net, id).outcome
    }

    /// Convenience: move, discarding the delta.
    fn on_move(&mut self, net: &mut Network, id: NodeId, to: Point) -> RecodeOutcome {
        self.on_move_delta(net, id, to).outcome
    }

    /// Convenience: range change, discarding the delta.
    fn on_set_range(&mut self, net: &mut Network, id: NodeId, range: f64) -> RecodeOutcome {
        self.on_set_range_delta(net, id, range).outcome
    }

    /// The pure planning half of the handler: plans the color writes
    /// for an event whose **topology has already been applied** to
    /// `net` (yielding `delta`), without mutating anything.
    ///
    /// Contract: the plan depends only on state within the event's
    /// neighborhood (the paper's locality claim), and committing it
    /// via [`commit_plan`] leaves the network in exactly the state the
    /// `on_*_delta` handler would have produced. Minim and CP
    /// implement their handlers *through* this method, so the
    /// equivalence holds by construction.
    ///
    /// # Panics
    /// The default implementation panics: strategies that recolor
    /// globally (BBB) have no local plan.
    fn plan_batched(
        &self,
        _net: &Network,
        _applied: &AppliedEvent,
        _delta: &TopologyDelta,
    ) -> ColorPlan {
        unreachable!("this strategy has no local plan")
    }

    /// Applies an [`Event`], returning both the topology delta and the
    /// recoding — the simulation runner's entry point.
    fn apply_delta(&mut self, net: &mut Network, event: &Event) -> (AppliedEvent, EventEffect) {
        match event {
            Event::Join { cfg } => {
                let id = net.next_id();
                let effect = self.on_join_delta(net, id, *cfg);
                (AppliedEvent::Joined(id), effect)
            }
            Event::Leave { node } => {
                let effect = self.on_leave_delta(net, *node);
                (AppliedEvent::Left(*node), effect)
            }
            Event::Move { node, to } => {
                let effect = self.on_move_delta(net, *node, *to);
                (AppliedEvent::Moved(*node), effect)
            }
            Event::SetRange { node, range } => {
                let dir = event
                    .power_direction(net)
                    .expect("SetRange target must exist");
                let effect = self.on_set_range_delta(net, *node, *range);
                (AppliedEvent::RangeChanged(*node, dir), effect)
            }
        }
    }

    /// Applies an [`Event`], dispatching to the appropriate handler.
    fn apply(&mut self, net: &mut Network, event: &Event) -> (AppliedEvent, RecodeOutcome) {
        let (applied, effect) = self.apply_delta(net, event);
        (applied, effect.outcome)
    }
}

/// The seed set [`conflict::validate_delta`] needs for one event: the
/// initiating node plus everything the strategy recoded. Sorted,
/// deduplicated. `O(recode set)` — independent of node degree.
pub fn validation_seeds(delta: &TopologyDelta, outcome: &RecodeOutcome) -> Vec<NodeId> {
    let mut seeds = Vec::with_capacity(1 + outcome.recoded.len());
    seeds.push(delta.node());
    seeds.extend(outcome.recoded.iter().map(|&(n, ..)| n));
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// Debug-build check that the event left CA1/CA2 intact, done locally:
/// seeded with [`validation_seeds`], exactly the contract of
/// [`conflict::validate_delta`]. Compiled out in release builds.
#[inline]
pub(crate) fn debug_assert_locally_valid(
    net: &Network,
    delta: &TopologyDelta,
    outcome: &RecodeOutcome,
) {
    if cfg!(debug_assertions) {
        let seeds = validation_seeds(delta, outcome);
        if let Err(v) = conflict::validate_delta(net.graph(), net.assignment(), &seeds) {
            panic!("event left a local CA1/CA2 violation: {v}");
        }
    }
}

/// The strategies compared in §5, for sweep drivers that iterate over
/// all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// The paper's minimal strategies.
    Minim,
    /// Chlamtac–Pinter distributed baseline.
    Cp,
    /// Centralized recolor-everything baseline.
    Bbb,
}

impl StrategyKind {
    /// All three, in the paper's plotting order.
    pub const ALL: [StrategyKind; 3] = [StrategyKind::Minim, StrategyKind::Cp, StrategyKind::Bbb];

    /// The two distributed strategies (for the zoomed CP-vs-Minim
    /// sub-figures 10(c,f), 11(c), 12(a,d)).
    pub const DISTRIBUTED: [StrategyKind; 2] = [StrategyKind::Minim, StrategyKind::Cp];

    /// Instantiates the strategy. The trait object is `Send` so a
    /// replicate or an engine can own it on any thread.
    pub fn build(self) -> Box<dyn RecodingStrategy + Send> {
        match self {
            StrategyKind::Minim => Box::new(Minim::default()),
            StrategyKind::Cp => Box::new(Cp::default()),
            StrategyKind::Bbb => Box::new(Bbb::default()),
        }
    }

    /// Display name matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Minim => "Minim",
            StrategyKind::Cp => "CP",
            StrategyKind::Bbb => "BBB",
        }
    }
}

/// Shared helper: the direction of a range change, evaluated against
/// the current network state (before application).
pub(crate) fn range_direction(net: &Network, id: NodeId, new_range: f64) -> PowerDirection {
    let current = net
        .config(id)
        .expect("range_direction: node must exist")
        .range;
    if new_range > current {
        PowerDirection::Increase
    } else if new_range < current {
        PowerDirection::Decrease
    } else {
        PowerDirection::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_geom::Point;

    #[test]
    fn strategy_kind_roundtrip() {
        for kind in StrategyKind::ALL {
            let s = kind.build();
            assert_eq!(s.name(), kind.label());
        }
        assert_eq!(StrategyKind::DISTRIBUTED.len(), 2);
    }

    #[test]
    fn apply_dispatches_all_event_kinds() {
        for kind in StrategyKind::ALL {
            let mut s = kind.build();
            let mut net = Network::new(10.0);
            let cfg = NodeConfig::new(Point::new(0.0, 0.0), 10.0);
            let (applied, _) = s.apply(&mut net, &Event::Join { cfg });
            let AppliedEvent::Joined(a) = applied else {
                panic!("expected join");
            };
            let cfg2 = NodeConfig::new(Point::new(5.0, 0.0), 10.0);
            let (applied, _) = s.apply(&mut net, &Event::Join { cfg: cfg2 });
            let AppliedEvent::Joined(b) = applied else {
                panic!("expected join");
            };
            assert!(net.validate().is_ok(), "{} after joins", s.name());

            s.apply(
                &mut net,
                &Event::Move {
                    node: b,
                    to: Point::new(2.0, 0.0),
                },
            );
            assert!(net.validate().is_ok(), "{} after move", s.name());

            s.apply(
                &mut net,
                &Event::SetRange {
                    node: a,
                    range: 20.0,
                },
            );
            assert!(net.validate().is_ok(), "{} after range up", s.name());

            s.apply(&mut net, &Event::Leave { node: a });
            assert!(net.validate().is_ok(), "{} after leave", s.name());
            assert_eq!(net.node_count(), 1);
        }
    }

    #[test]
    fn recode_outcome_from_diff() {
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        let before = net.snapshot_assignment();
        net.set_color(a, Color::new(3));
        let out = RecodeOutcome::from_diff(&net, &before);
        assert_eq!(out.recodings(), 1);
        assert_eq!(out.recoded, vec![(a, None, Color::new(3))]);
        assert_eq!(out.max_color_after, 3);
    }
}
