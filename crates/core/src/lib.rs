//! The recoding strategies — the paper's contribution and its baselines.
//!
//! A *recoding strategy* is a set of algorithms, one per reconfiguration
//! event type, that restores CA1/CA2 after the event (§2). Here a
//! strategy only decides: [`RecodingStrategy::plan_batched`] reads the
//! network after the event's topology step and returns the `(node,
//! color)` writes that restore CA1/CA2. [`run_event`] runs every event
//! the same way — check, topology step, writes, commit, local
//! validation — whether the writes come from a strategy (live) or from
//! a journal record (recovery). This crate implements three strategies:
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
//!   network with a near-optimal global heuristic at every event. The
//!   text of \[7\] is not available, so the heuristic is DSATUR (see
//!   [`bbb`]).
//!
//! [`bounds`] computes the paper's minimal-recoding lower bounds so
//! tests can verify [`Minim`] attains them *exactly* (Theorems 4.1.8,
//! 4.2.3, 4.3.3, 4.4.4), [`gossip`] implements the background
//! code-reuse compaction sketched as future work in §6, and
//! [`StrategyStats`] accounts a run per event type.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bbb;
pub mod bounds;
pub mod cp;
pub mod gossip;
pub mod instrument;
pub mod minim;

pub use bbb::Bbb;
pub use cp::Cp;
pub use instrument::StrategyStats;
pub use minim::{gather_recode_inputs, plan_recode, Minim, RecodePlanner, KEEP_WEIGHT};

use minim_geom::Point;
use minim_graph::{conflict, Color, NodeId};
use minim_net::event::{apply_topology_pinned, AppliedEvent, Event};
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

/// The color writes one event's planning decided on, in application
/// order. Committing a plan (see [`commit_plan`]) sets each pair on
/// the real assignment; writes that match the node's current color are
/// recorded as no-ops, exactly like the snapshot-diff accounting.
pub type ColorPlan = Vec<(NodeId, Color)>;

/// Applies a [`ColorPlan`] to the network and builds the
/// [`RecodeOutcome`] by diffing against the pre-commit colors — the
/// `O(plan)` equivalent of `RecodeOutcome::from_diff`'s full-assignment
/// scan (only planned nodes can have changed).
pub fn commit_plan(net: &mut Network, plan: &[(NodeId, Color)]) -> RecodeOutcome {
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

/// A recoding strategy: one decision per event.
///
/// A strategy never mutates the network. [`run_event`] applies the
/// event's topology step, asks [`RecodingStrategy::plan_batched`] for
/// the writes, commits them and checks CA1/CA2 around the event. The
/// provided `on_*` and [`RecodingStrategy::apply`] conveniences run
/// [`run_event`] with [`ValidationMode::Off`] and panic if it fails.
pub trait RecodingStrategy {
    /// Human-readable name for tables and plots.
    fn name(&self) -> &'static str;

    /// Decides the color writes for an event whose **topology has
    /// already been applied** to `net` (recording `delta`), without
    /// mutating anything. Committing the writes must restore CA1/CA2,
    /// provided they held before the event.
    ///
    /// Minim and CP read only the event's neighborhood (the paper's
    /// locality claim); BBB recolors the whole network and returns a
    /// write for every node.
    fn plan_batched(
        &self,
        net: &Network,
        applied: &AppliedEvent,
        delta: &TopologyDelta,
    ) -> ColorPlan;

    /// Node `id` (fresh, from [`Network::next_id`]) joins with `cfg`.
    fn on_join(&mut self, net: &mut Network, id: NodeId, cfg: NodeConfig) -> RecodeOutcome {
        run_decided(self, net, &Event::Join { cfg }, Some(id)).1
    }

    /// Node `id` leaves the network.
    fn on_leave(&mut self, net: &mut Network, id: NodeId) -> RecodeOutcome {
        run_decided(self, net, &Event::Leave { node: id }, None).1
    }

    /// Node `id` moves to `to`.
    fn on_move(&mut self, net: &mut Network, id: NodeId, to: Point) -> RecodeOutcome {
        run_decided(self, net, &Event::Move { node: id, to }, None).1
    }

    /// Node `id` changes its transmission range to `range`.
    fn on_set_range(&mut self, net: &mut Network, id: NodeId, range: f64) -> RecodeOutcome {
        run_decided(self, net, &Event::SetRange { node: id, range }, None).1
    }

    /// Applies an [`Event`] and returns what happened and what was
    /// recoded.
    fn apply(&mut self, net: &mut Network, event: &Event) -> (AppliedEvent, RecodeOutcome) {
        run_decided(self, net, event, None)
    }
}

/// The conveniences' body: [`run_event`] with the strategy's own
/// decision and [`ValidationMode::Off`], panicking on failure.
fn run_decided<S: RecodingStrategy + ?Sized>(
    strategy: &S,
    net: &mut Network,
    event: &Event,
    join_id: Option<NodeId>,
) -> (AppliedEvent, RecodeOutcome) {
    match run_event(
        net,
        event,
        join_id,
        Writes::Plan(strategy),
        ValidationMode::Off,
    ) {
        Ok(done) => (done.applied, done.outcome),
        Err(e) => panic!("{}: {e}", strategy.name()),
    }
}

/// Whether [`run_event`] checks CA1/CA2 after committing an event's
/// writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// No check in release builds. Debug builds check every event
    /// anyway, in place of per-strategy debug assertions.
    #[default]
    Off,
    /// `O(Δ)` per event: [`conflict::validate_delta`] seeded with
    /// [`validation_seeds`] (the event's node plus everything the
    /// writes recoded).
    Delta,
}

/// Where [`run_event`]'s color writes come from.
#[derive(Debug)]
pub enum Writes<'a, S: ?Sized = dyn RecodingStrategy> {
    /// The strategy decides them from the network after the topology
    /// step (the live path).
    Plan(&'a S),
    /// A journal record carries them (recovery).
    Recorded(&'a [(NodeId, Color)]),
}

impl<'a> Writes<'a> {
    /// [`Writes::Recorded`], with no strategy type to infer.
    pub fn recorded(writes: &'a [(NodeId, Color)]) -> Self {
        Writes::Recorded(writes)
    }
}

/// One event that [`run_event`] ran to the end. What it did to the
/// induced digraph is [`Network::delta`] until the next mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handled {
    /// What the topology step did, with the node it concerned.
    pub applied: AppliedEvent,
    /// What the committed writes recoded.
    pub outcome: RecodeOutcome,
}

/// Why [`run_event`] stopped. The variant says whether anything was
/// applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventError {
    /// The event failed its check: it targets an absent node, pins a
    /// join to a present id, or carries a non-finite position or a
    /// non-finite or negative range. Nothing was applied.
    Rejected(String),
    /// The topology step was applied, and the writes name a node that
    /// is not live (then nothing was committed) or were committed and
    /// leave a CA1/CA2 violation. The network keeps that state.
    Refused(String),
}

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventError::Rejected(detail) | EventError::Refused(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for EventError {}

/// Runs one event: the event check, the topology step
/// ([`apply_topology_pinned`], with `join_id` pinning a join's id), the
/// writes (decided by the strategy, or recorded), [`commit_plan`], and
/// the CA1/CA2 check around the event node and the written nodes when
/// `mode` is [`ValidationMode::Delta`] or the build has debug
/// assertions.
///
/// Every event takes this path: the simulation runner, the durable
/// engine's live apply and its recovery, and the strategies' `on_*`
/// conveniences. Live and recovery differ only in `writes`.
pub fn run_event<S: RecodingStrategy + ?Sized>(
    net: &mut Network,
    event: &Event,
    join_id: Option<NodeId>,
    writes: Writes<'_, S>,
    mode: ValidationMode,
) -> Result<Handled, EventError> {
    check_event(net, event, join_id).map_err(EventError::Rejected)?;
    let applied = apply_topology_pinned(net, event, join_id);
    let planned;
    let writes = match writes {
        Writes::Plan(strategy) => {
            planned = strategy.plan_batched(net, &applied, net.delta());
            &planned[..]
        }
        Writes::Recorded(writes) => writes,
    };
    if let Some(&(node, _)) = writes.iter().find(|&&(n, _)| !net.contains(n)) {
        return Err(EventError::Refused(format!(
            "{event:?} has a write to absent node {node:?}"
        )));
    }
    let outcome = commit_plan(net, writes);
    if mode == ValidationMode::Delta || cfg!(debug_assertions) {
        let seeds = validation_seeds(net.delta(), &outcome);
        if let Err(v) = conflict::validate_delta(net.graph(), net.assignment(), &seeds) {
            return Err(EventError::Refused(format!(
                "{event:?} and its writes leave a CA1/CA2 violation: {v}"
            )));
        }
    }
    Ok(Handled { applied, outcome })
}

/// Rejects events that reference absent nodes, pin a join to a present
/// id, carry non-finite coordinates, or carry a non-finite or negative
/// range, so neither a buggy caller nor a damaged journal record
/// reaches a panicking network mutator.
fn check_event(net: &Network, event: &Event, join_id: Option<NodeId>) -> Result<(), String> {
    let invalid = |what: &str| Err(format!("{event:?} has {what}"));
    let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
    let valid_range = |r: f64| r.is_finite() && r >= 0.0;
    let node = match event {
        Event::Join { cfg } => {
            if !finite(&cfg.pos) {
                return invalid("a non-finite position");
            }
            if !valid_range(cfg.range) {
                return invalid("a non-finite or negative range");
            }
            if let Some(id) = join_id.filter(|&id| net.contains(id)) {
                return Err(format!("{event:?} pins present node {id:?}"));
            }
            return Ok(());
        }
        Event::Move { to, .. } if !finite(to) => return invalid("a non-finite position"),
        Event::SetRange { range, .. } if !valid_range(*range) => {
            return invalid("a non-finite or negative range")
        }
        Event::Leave { node } | Event::Move { node, .. } | Event::SetRange { node, .. } => *node,
    };
    if net.config(node).is_none() {
        return Err(format!("{event:?} targets absent node {node:?}"));
    }
    Ok(())
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
            StrategyKind::Bbb => Box::new(Bbb),
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
    fn run_event_says_whether_anything_was_applied() {
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        net.set_color(a, Color::new(1));
        let digest = net.state_digest();
        let join = Event::Join {
            cfg: NodeConfig::new(Point::new(1.0, 0.0), 5.0),
        };
        let run = |net: &mut Network, event: &Event, writes: &[(NodeId, Color)]| {
            run_event(
                net,
                event,
                None,
                Writes::recorded(writes),
                ValidationMode::Delta,
            )
        };

        // A failed check applies nothing.
        let leave = Event::Leave { node: NodeId(9) };
        assert!(matches!(
            run(&mut net, &leave, &[]),
            Err(EventError::Rejected(_))
        ));
        assert_eq!(net.state_digest(), digest);

        // A write to an absent node is refused after the topology
        // step, before the commit.
        let b = net.peek_next_id();
        let err = run(
            &mut net,
            &join,
            &[(b, Color::new(2)), (NodeId(9), Color::new(1))],
        );
        assert!(matches!(err, Err(EventError::Refused(_))), "{err:?}");
        assert!(net.contains(b));
        assert_eq!(net.assignment().get(b), None);

        // Writes that break CA1 are refused after the commit.
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        net.set_color(a, Color::new(1));
        let b = net.peek_next_id();
        let err = run(&mut net, &join, &[(b, Color::new(1))]);
        assert!(matches!(err, Err(EventError::Refused(_))), "{err:?}");
        assert_eq!(net.assignment().get(b), Some(Color::new(1)));

        // Recorded writes that keep CA1/CA2 commit as they are.
        let c = net.peek_next_id();
        let far = Event::Join {
            cfg: NodeConfig::new(Point::new(50.0, 0.0), 5.0),
        };
        let done = run(&mut net, &far, &[(c, Color::new(7))]).expect("valid writes");
        assert_eq!(done.applied, AppliedEvent::Joined(c));
        assert_eq!(done.outcome.recoded, vec![(c, None, Color::new(7))]);
        assert_eq!(done.outcome.max_color_after, 7);
    }

    #[test]
    fn a_join_pinned_to_a_present_id_is_rejected() {
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        net.set_color(a, Color::new(1));
        let digest = net.state_digest();
        let join = Event::Join {
            cfg: NodeConfig::new(Point::new(1.0, 0.0), 5.0),
        };
        let err = run_event(
            &mut net,
            &join,
            Some(a),
            Writes::Plan(&Minim::default()),
            ValidationMode::Delta,
        );
        assert!(matches!(err, Err(EventError::Rejected(_))), "{err:?}");
        assert_eq!(net.state_digest(), digest);
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
