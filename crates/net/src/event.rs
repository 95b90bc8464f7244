//! Reconfiguration events.
//!
//! The paper's four event types (§2): join, leave, move, and power
//! change. Events are reified so workloads, the simulator, and the
//! distributed protocol layer can all speak the same language, and so
//! event traces can be logged and replayed.

use crate::{Network, NodeConfig};
use minim_geom::Point;
use minim_graph::NodeId;

/// A single network reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A new node appears with the given configuration. The id is
    /// chosen by the applier (fresh ids ascend).
    Join {
        /// The joiner's radio configuration.
        cfg: NodeConfig,
    },
    /// Node `node` disconnects.
    Leave {
        /// The leaving node.
        node: NodeId,
    },
    /// Node `node` moves to `to` (same range).
    Move {
        /// The moving node.
        node: NodeId,
        /// Destination position.
        to: Point,
    },
    /// Node `node` changes its transmission range to `range`.
    SetRange {
        /// The reconfiguring node.
        node: NodeId,
        /// The new maximum transmission range.
        range: f64,
    },
}

impl Event {
    /// Classifies a `SetRange` as increase/decrease relative to the
    /// node's current range in `net`. Joins/leaves/moves return `None`.
    pub fn power_direction(&self, net: &Network) -> Option<PowerDirection> {
        match self {
            Event::SetRange { node, range } => {
                let current = net.config(*node)?.range;
                Some(if *range > current {
                    PowerDirection::Increase
                } else if *range < current {
                    PowerDirection::Decrease
                } else {
                    PowerDirection::Unchanged
                })
            }
            _ => None,
        }
    }
}

/// Direction of a power (range) change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerDirection {
    /// Range grows — may create new conflicts (needs `RecodeOnPowIncrease`).
    Increase,
    /// Range shrinks — provably conflict-free (passive strategy).
    Decrease,
    /// No-op.
    Unchanged,
}

/// What the applier did, so strategies know which node was touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedEvent {
    /// A join happened and this id was allocated.
    Joined(NodeId),
    /// This node left.
    Left(NodeId),
    /// This node moved.
    Moved(NodeId),
    /// This node's range changed, in the given direction.
    RangeChanged(NodeId, PowerDirection),
}

impl AppliedEvent {
    /// The node the event concerned.
    pub fn node(&self) -> NodeId {
        match *self {
            AppliedEvent::Joined(n)
            | AppliedEvent::Left(n)
            | AppliedEvent::Moved(n)
            | AppliedEvent::RangeChanged(n, _) => n,
        }
    }
}

/// Applies `event` to the network topology **only** (no recoding).
/// Returns what happened. `minim_core::run_event` runs every recoded
/// event through [`apply_topology_delta`] and then commits a
/// strategy's color writes; this helper serves ghost networks and
/// replay tooling, which need no colors.
pub fn apply_topology(net: &mut Network, event: &Event) -> AppliedEvent {
    apply_topology_delta(net, event, None).0
}

/// [`apply_topology`] keeping the [`crate::TopologyDelta`] and
/// optionally pinning the id a join allocates.
///
/// `None` allocates the join's id with
/// [`Network::next_id`](crate::Network::next_id); `Some(id)` inserts
/// under a caller-chosen id instead. `join_id` is ignored for
/// non-join events.
///
/// # Panics
/// Panics if a pinned `join_id` is already present.
pub fn apply_topology_delta(
    net: &mut Network,
    event: &Event,
    join_id: Option<NodeId>,
) -> (AppliedEvent, crate::TopologyDelta) {
    match event {
        Event::Join { cfg } => {
            minim_obs::counter!("net.apply.join", 1);
            let id = join_id.unwrap_or_else(|| net.next_id());
            let delta = net.insert_node(id, *cfg);
            (AppliedEvent::Joined(id), delta)
        }
        Event::Leave { node } => {
            minim_obs::counter!("net.apply.leave", 1);
            let delta = net.remove_node(*node);
            (AppliedEvent::Left(*node), delta)
        }
        Event::Move { node, to } => {
            minim_obs::counter!("net.apply.move", 1);
            let delta = net.move_node(*node, *to);
            (AppliedEvent::Moved(*node), delta)
        }
        Event::SetRange { node, range } => {
            minim_obs::counter!("net.apply.set_range", 1);
            let dir = event.power_direction(net).expect("node must exist");
            let delta = net.set_range(*node, *range);
            (AppliedEvent::RangeChanged(*node, dir), delta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_geom::Point;

    #[test]
    fn apply_join_allocates_ascending_ids() {
        let mut net = Network::new(5.0);
        let e = Event::Join {
            cfg: NodeConfig::new(Point::new(0.0, 0.0), 5.0),
        };
        let a = apply_topology(&mut net, &e);
        let b = apply_topology(&mut net, &e);
        match (a, b) {
            (AppliedEvent::Joined(x), AppliedEvent::Joined(y)) => {
                assert!(x < y);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(net.node_count(), 2);
    }

    #[test]
    fn power_direction_classification() {
        let mut net = Network::new(5.0);
        let id = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        let up = Event::SetRange {
            node: id,
            range: 9.0,
        };
        let down = Event::SetRange {
            node: id,
            range: 2.0,
        };
        let same = Event::SetRange {
            node: id,
            range: 5.0,
        };
        assert_eq!(up.power_direction(&net), Some(PowerDirection::Increase));
        assert_eq!(down.power_direction(&net), Some(PowerDirection::Decrease));
        assert_eq!(same.power_direction(&net), Some(PowerDirection::Unchanged));
        let join = Event::Join {
            cfg: NodeConfig::new(Point::new(0.0, 0.0), 5.0),
        };
        assert_eq!(join.power_direction(&net), None);
    }

    #[test]
    fn leave_and_move_round_trip() {
        let mut net = Network::new(5.0);
        let id = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        let moved = apply_topology(
            &mut net,
            &Event::Move {
                node: id,
                to: Point::new(10.0, 10.0),
            },
        );
        assert_eq!(moved, AppliedEvent::Moved(id));
        assert_eq!(moved.node(), id);
        assert_eq!(net.config(id).unwrap().pos, Point::new(10.0, 10.0));
        let left = apply_topology(&mut net, &Event::Leave { node: id });
        assert_eq!(left, AppliedEvent::Left(id));
        assert_eq!(net.node_count(), 0);
    }
}
