//! Lowering the control loop onto the event engine.
//!
//! The paper treats power changes as exogenous inputs; [`PowerLoop`]
//! makes them *endogenous*: it reads the current [`Network`] geometry
//! (and optionally a batch of pending joiners), runs the
//! Foschini–Miljanic loop of [`crate::control`] over the induced
//! uplinks (every node aims at its nearest neighbor), and lowers the
//! converged powers back into ordinary [`Event`]s:
//!
//! * a present node whose converged range moved emits
//!   [`Event::SetRange`] — the §5.2 power raise/drop, now driven by
//!   interference instead of a distribution;
//! * an infeasible (power-capped) present node emits [`Event::Leave`]
//!   under [`PowerLoopConfig::drop_infeasible`] (admission control /
//!   duty-cycling), otherwise it clamps at the capped range;
//! * a pending joiner emits [`Event::Join`] carrying its converged
//!   range (or is rejected when infeasible under `drop_infeasible`).
//!
//! The recoding strategies never see the physics — just a stream of
//! set-range / join / leave events whose magnitudes happen to be the
//! closed-loop equilibrium.
//!
//! **Power ↔ range.** A node transmitting at `p` is *in range of*
//! every receiver at which it would still meet the target SINR
//! against noise alone: `L · g(r) · p / N0 = γ`, i.e.
//!
//! ```text
//! r(p) = d0 · (L · p / (γ · N0))^(1/alpha)      (and inversely p(r))
//! ```
//!
//! so the paper's range abstraction is exactly the noise-limited
//! decode disc of the physical layer, and the two representations
//! convert losslessly.

use crate::control::{self, ControlConfig, ControlScratch, Feasibility, PowerLadder};
use crate::gain::GainModel;
use crate::sinr::{LinkBudget, SinrField};
use minim_geom::Point;
use minim_graph::NodeId;
use minim_net::event::Event;
use minim_net::{Network, NodeConfig};

/// Who each transmitter aims at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverPolicy {
    /// Every node uplinks to its nearest neighbor — the ad-hoc mesh
    /// model. Equilibria tend toward whisper ranges: each node spends
    /// exactly what its closest partner costs.
    NearestNeighbor,
    /// Every `every`-th node (in ascending-id order) is a *sink*
    /// (gateway/cluster head); non-sinks uplink to their nearest
    /// sink, sinks to their nearest fellow sink. This is the cellular
    /// near-far model: transmitters at very different distances share
    /// one receiver, so their powers couple hard — the regime where
    /// targets become infeasible and the cap bites.
    Sinks {
        /// Sink stride (≥ 1); `1` makes everyone a sink.
        every: usize,
    },
}

/// Everything one closed-loop run needs: physics, loop parameters,
/// and lowering policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLoopConfig {
    /// Path-loss model (wall attenuation uses the network's
    /// obstacles).
    pub gain: GainModel,
    /// Processing gain and noise shared by every receiver.
    pub budget: LinkBudget,
    /// Target SINR `γ` (linear).
    pub target_sinr: f64,
    /// Smallest admissible transmission range (defines `min_power`).
    pub min_range: f64,
    /// The range cap (defines `max_power`).
    pub max_range: f64,
    /// The radio's power ladder.
    pub ladder: PowerLadder,
    /// Convergence tolerance of the continuous loop.
    pub tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
    /// Interferers contributing less than this fraction of the noise
    /// floor *at full power* are dropped from the SINR sums (bounded
    /// relative error; see [`crate::sinr`]).
    pub floor_frac: f64,
    /// Minimum |range change| that emits a [`Event::SetRange`]
    /// (suppresses no-op churn from converged nodes).
    pub range_epsilon: f64,
    /// Lower infeasible nodes to [`Event::Leave`] / rejected joins
    /// instead of clamping them at `max_range`.
    pub drop_infeasible: bool,
    /// Who each transmitter aims at.
    pub receivers: ReceiverPolicy,
}

impl PowerLoopConfig {
    /// A loop scaled to deployments whose typical transmission range
    /// is `scale` (the paper's experiments: ~25): terrain path loss,
    /// CDMA-64 budget, target `γ = 4`, ranges in
    /// `[scale/8, 2·scale]`, continuous ladder.
    pub fn for_range_scale(scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        PowerLoopConfig {
            gain: GainModel::terrain(),
            budget: LinkBudget::cdma64(),
            target_sinr: 4.0,
            min_range: scale / 8.0,
            max_range: 2.0 * scale,
            ladder: PowerLadder::Continuous,
            tol: 1e-6,
            max_iters: 200,
            floor_frac: 0.01,
            range_epsilon: 1e-9 * scale,
            drop_infeasible: false,
            receivers: ReceiverPolicy::NearestNeighbor,
        }
    }

    /// The transmit power whose noise-limited decode disc has radius
    /// `r` (see the module docs).
    pub fn power_for_range(&self, r: f64) -> f64 {
        power_for_range(&self.gain, self.budget, self.target_sinr, r)
    }

    /// The noise-limited decode radius of transmit power `p` — the
    /// inverse of [`PowerLoopConfig::power_for_range`].
    pub fn range_for_power(&self, p: f64) -> f64 {
        range_for_power(&self.gain, self.budget, self.target_sinr, p)
    }

    /// The [`ControlConfig`] this lowering runs.
    pub fn control(&self) -> ControlConfig {
        ControlConfig {
            target_sinr: self.target_sinr,
            min_power: self.power_for_range(self.min_range),
            max_power: self.power_for_range(self.max_range),
            ladder: self.ladder,
            tol: self.tol,
            max_iters: self.max_iters,
        }
    }
}

/// The transmit power whose noise-limited decode disc has radius `r`:
/// the power at which a receiver at distance `r` still sees
/// `target_sinr` against noise alone, `p = γ · N0 / (L · g(r))`.
/// Defined through [`GainModel::path_gain`], so it is the exact
/// inverse of the gain actually charged (including the near-field
/// clamp and the integer-exponent fast path); the radio's SINR
/// capture model derives its per-node transmit powers from the same
/// function.
pub fn power_for_range(gain: &GainModel, budget: LinkBudget, target_sinr: f64, r: f64) -> f64 {
    target_sinr * budget.noise / (budget.processing_gain * gain.path_gain(r))
}

/// The noise-limited decode radius of transmit power `p` — the
/// inverse of [`power_for_range`], via [`GainModel::distance_for_gain`].
pub fn range_for_power(gain: &GainModel, budget: LinkBudget, target_sinr: f64, p: f64) -> f64 {
    let g = (target_sinr * budget.noise / (budget.processing_gain * p)).min(1.0);
    gain.distance_for_gain(g)
}

/// What one closed-loop run did, beyond the events it emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLoopReport {
    /// Verdict of the control loop.
    pub feasibility: Feasibility,
    /// Iterations the loop ran.
    pub iterations: usize,
    /// Present nodes found infeasible (power-capped), ascending.
    pub infeasible: Vec<NodeId>,
    /// Pending joiners rejected under
    /// [`PowerLoopConfig::drop_infeasible`] (indices into the joiner
    /// slice), ascending.
    pub rejected_joiners: Vec<usize>,
    /// Links driven by the loop (0 when the network had < 2 nodes).
    pub links: usize,
}

/// One closed-loop run lowered to events.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLoopOutcome {
    /// Events in application order: set-range (ascending node id),
    /// then leaves (ascending), then joins (joiner order).
    pub events: Vec<Event>,
    /// Loop diagnostics.
    pub report: PowerLoopReport,
}

/// The closed-loop driver. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLoop {
    cfg: PowerLoopConfig,
}

impl PowerLoop {
    /// A driver with the given configuration.
    pub fn new(cfg: PowerLoopConfig) -> Self {
        cfg.gain.validate();
        cfg.budget.validate();
        cfg.control().validate();
        assert!(
            cfg.floor_frac >= 0.0 && cfg.floor_frac < 1.0,
            "floor_frac must be in [0, 1), got {}",
            cfg.floor_frac
        );
        PowerLoop { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &PowerLoopConfig {
        &self.cfg
    }

    /// Runs one closed-loop pass over `net` plus the pending
    /// `joiners`, returning the events that realize the equilibrium.
    /// Purely deterministic: no randomness, same inputs → same
    /// events.
    pub fn run(&self, net: &Network, joiners: &[NodeConfig]) -> PowerLoopOutcome {
        let cfg = &self.cfg;
        // Transmitters: present nodes in ascending id order, then the
        // pending joiners.
        let ids: Vec<NodeId> = net.iter_nodes().collect();
        let positions: Vec<Point> = ids
            .iter()
            .map(|&id| net.config(id).expect("listed node exists").pos)
            .chain(joiners.iter().map(|cfg| cfg.pos))
            .collect();
        let n = positions.len();
        let control = cfg.control();

        if n < 2 {
            // Nothing to drive: a lone joiner is admitted at the
            // minimum range, a lone node left untouched.
            let events = joiners
                .iter()
                .map(|j| Event::Join {
                    cfg: NodeConfig::new(j.pos, cfg.min_range),
                })
                .collect();
            return PowerLoopOutcome {
                events,
                report: PowerLoopReport {
                    feasibility: Feasibility::Converged,
                    iterations: 0,
                    infeasible: Vec::new(),
                    rejected_joiners: Vec::new(),
                    links: 0,
                },
            };
        }

        let receiver = match cfg.receivers {
            ReceiverPolicy::NearestNeighbor => nearest_neighbor_receivers(&positions),
            ReceiverPolicy::Sinks { every } => sink_receivers(&positions, every),
        };
        let gain_floor = if cfg.floor_frac > 0.0 {
            cfg.floor_frac * cfg.budget.noise / control.max_power
        } else {
            0.0
        };
        let walls = (!net.obstacles().is_empty()).then(|| net.obstacle_index());
        let field = SinrField::build(
            &cfg.gain, cfg.budget, &positions, &receiver, walls, gain_floor,
        );
        let mut scratch = ControlScratch::new();
        let report = control::run_with(&field, &control, &mut scratch);
        let feasibility = scratch.feasibility(report.verdict);
        let powers = &scratch.powers;
        // Only a fixed point names infeasible nodes; a budget-exhausted
        // run has no verdict on individual links.
        let is_capped = |i: usize| {
            matches!(feasibility, Feasibility::PowerCapped { .. })
                && scratch.capped.binary_search(&(i as u32)).is_ok()
        };

        let mut set_ranges = Vec::new();
        let mut leaves = Vec::new();
        let mut infeasible = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let new_range = cfg.range_for_power(powers[i]);
            if is_capped(i) {
                infeasible.push(id);
                if cfg.drop_infeasible {
                    leaves.push(Event::Leave { node: id });
                    continue;
                }
            }
            let old = net.config(id).expect("listed node exists").range;
            if (new_range - old).abs() > cfg.range_epsilon {
                set_ranges.push(Event::SetRange {
                    node: id,
                    range: new_range,
                });
            }
        }
        let mut joins = Vec::new();
        let mut rejected_joiners = Vec::new();
        for (k, j) in joiners.iter().enumerate() {
            let i = ids.len() + k;
            if is_capped(i) && cfg.drop_infeasible {
                rejected_joiners.push(k);
                continue;
            }
            joins.push(Event::Join {
                cfg: NodeConfig::new(j.pos, cfg.range_for_power(powers[i])),
            });
        }

        let mut events = set_ranges;
        events.extend(leaves);
        events.extend(joins);
        PowerLoopOutcome {
            events,
            report: PowerLoopReport {
                feasibility,
                iterations: report.iterations,
                infeasible,
                rejected_joiners,
                links: n,
            },
        }
    }
}

/// Assigns every transmitter its nearest other transmitter as the
/// intended receiver (ties broken toward the lower index, so the
/// assignment is deterministic). A single node receives itself —
/// [`SinrField`] treats that as a dead link.
fn nearest_neighbor_receivers(positions: &[Point]) -> Vec<u32> {
    (0..positions.len())
        .map(|i| nearest_among(positions, i, |j| j != i).unwrap_or(i) as u32)
        .collect()
}

/// [`ReceiverPolicy::Sinks`]: indices `0, every, 2·every, …` are
/// sinks; everyone else uplinks to the nearest sink, sinks to their
/// nearest fellow sink (a lone sink falls back to its nearest
/// neighbor so its link is still live).
///
/// # Panics
/// Panics when `every == 0`.
fn sink_receivers(positions: &[Point], every: usize) -> Vec<u32> {
    assert!(every >= 1, "sink stride must be >= 1");
    let is_sink = |j: usize| j.is_multiple_of(every);
    (0..positions.len())
        .map(|i| {
            nearest_among(positions, i, |j| j != i && is_sink(j))
                .or_else(|| nearest_among(positions, i, |j| j != i))
                .unwrap_or(i) as u32
        })
        .collect()
}

/// The index of the closest admissible point to `positions[i]` (ties
/// toward the lower index — deterministic), or `None` when no point
/// is admissible.
fn nearest_among(
    positions: &[Point],
    i: usize,
    admissible: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut best = None;
    let mut best_d2 = f64::INFINITY;
    for (j, pos) in positions.iter().enumerate() {
        if !admissible(j) {
            continue;
        }
        let d2 = positions[i].dist2(pos);
        if d2 < best_d2 {
            best_d2 = d2;
            best = Some(j);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_net::event::apply_topology;

    fn join_all(net: &mut Network, coords: &[(f64, f64)], range: f64) -> Vec<NodeId> {
        coords
            .iter()
            .map(|&(x, y)| net.join(NodeConfig::new(Point::new(x, y), range)))
            .collect()
    }

    #[test]
    fn converged_loop_emits_set_ranges_that_apply_cleanly() {
        let mut net = Network::new(25.0);
        join_all(
            &mut net,
            &[(0.0, 0.0), (12.0, 0.0), (60.0, 5.0), (70.0, 5.0)],
            25.0,
        );
        let lp = PowerLoop::new(PowerLoopConfig::for_range_scale(25.0));
        let out = lp.run(&net, &[]);
        assert!(out.report.feasibility.is_feasible());
        assert_eq!(out.report.links, 4);
        assert!(!out.events.is_empty(), "ranges must move off the seed");
        for e in &out.events {
            assert!(matches!(e, Event::SetRange { .. }));
            apply_topology(&mut net, e);
        }
        net.check_topology();
        // The loop is a fixed point: running it again emits nothing.
        let again = lp.run(&net, &[]);
        assert!(
            again.events.is_empty(),
            "equilibrium must be stable, got {:?}",
            again.events
        );
    }

    #[test]
    fn joiners_are_admitted_with_converged_ranges() {
        let mut net = Network::new(25.0);
        join_all(&mut net, &[(0.0, 0.0), (10.0, 0.0)], 20.0);
        let lp = PowerLoop::new(PowerLoopConfig::for_range_scale(25.0));
        let joiners = [
            NodeConfig::new(Point::new(5.0, 8.0), 0.0),
            NodeConfig::new(Point::new(40.0, 0.0), 0.0),
        ];
        let out = lp.run(&net, &joiners);
        let joins: Vec<_> = out
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Join { cfg } => Some(*cfg),
                _ => None,
            })
            .collect();
        assert_eq!(joins.len(), 2);
        for (j, orig) in joins.iter().zip(&joiners) {
            assert_eq!(j.pos, orig.pos);
            let cfg = lp.config();
            assert!(j.range >= cfg.min_range && j.range <= cfg.max_range);
        }
        // Joins come after set-ranges in the event order.
        let first_join = out
            .events
            .iter()
            .position(|e| matches!(e, Event::Join { .. }))
            .unwrap();
        assert!(out.events[first_join..]
            .iter()
            .all(|e| matches!(e, Event::Join { .. })));
    }

    #[test]
    fn drop_infeasible_lowers_capped_nodes_to_leaves() {
        // A brutal near-far clump under a tiny range cap and a high
        // target: infeasible by construction.
        let mut net = Network::new(10.0);
        let coords: Vec<(f64, f64)> = (0..8).map(|k| (k as f64 * 0.5, 0.0)).collect();
        let ids = join_all(&mut net, &coords, 5.0);
        let mut cfg = PowerLoopConfig::for_range_scale(2.0);
        cfg.target_sinr = 32.0;
        cfg.drop_infeasible = true;
        let out = PowerLoop::new(cfg).run(&net, &[]);
        assert!(!out.report.feasibility.is_feasible());
        assert!(!out.report.infeasible.is_empty());
        let leaves: Vec<NodeId> = out
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Leave { node } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(leaves, out.report.infeasible, "every capped node leaves");
        assert!(leaves.iter().all(|id| ids.contains(id)));
        // Lowering applies cleanly.
        for e in &out.events {
            apply_topology(&mut net, e);
        }
        net.check_topology();
    }

    #[test]
    fn clamped_infeasible_nodes_set_range_to_the_cap() {
        let mut net = Network::new(10.0);
        let coords: Vec<(f64, f64)> = (0..8).map(|k| (k as f64 * 0.5, 0.0)).collect();
        join_all(&mut net, &coords, 5.0);
        let mut cfg = PowerLoopConfig::for_range_scale(2.0);
        cfg.target_sinr = 32.0;
        let lp = PowerLoop::new(cfg);
        let out = lp.run(&net, &[]);
        assert!(!out.report.infeasible.is_empty());
        assert!(out
            .events
            .iter()
            .all(|e| matches!(e, Event::SetRange { .. })));
        for e in &out.events {
            if let Event::SetRange { range, .. } = e {
                assert!(*range <= cfg.max_range + 1e-9);
            }
            apply_topology(&mut net, e);
        }
        // Capped nodes sit at the range cap.
        for id in &out.report.infeasible {
            let r = net.config(*id).unwrap().range;
            assert!((r - cfg.max_range).abs() < 1e-6 * cfg.max_range);
        }
    }

    #[test]
    fn lone_node_and_empty_network_are_no_ops() {
        let lp = PowerLoop::new(PowerLoopConfig::for_range_scale(25.0));
        let empty = Network::new(25.0);
        assert!(lp.run(&empty, &[]).events.is_empty());
        let mut one = Network::new(25.0);
        one.join(NodeConfig::new(Point::new(1.0, 1.0), 10.0));
        let out = lp.run(&one, &[]);
        assert!(out.events.is_empty());
        assert_eq!(out.report.links, 0);
        // A lone joiner is admitted at the minimum range.
        let out = lp.run(&empty, &[NodeConfig::new(Point::new(0.0, 0.0), 0.0)]);
        assert_eq!(out.events.len(), 1);
        let Event::Join { cfg } = &out.events[0] else {
            panic!("expected a join");
        };
        assert_eq!(cfg.range, lp.config().min_range);
    }

    #[test]
    fn power_range_mapping_roundtrips() {
        let cfg = PowerLoopConfig::for_range_scale(25.0);
        for r in [cfg.min_range, 10.0, 25.0, cfg.max_range] {
            let p = cfg.power_for_range(r);
            assert!((cfg.range_for_power(p) - r).abs() < 1e-9 * r, "r = {r}");
        }
        // Ranges inside the near field clamp to the reference distance.
        let tiny = cfg.power_for_range(0.01);
        assert!((cfg.range_for_power(tiny) - cfg.gain.ref_dist).abs() < 1e-12);
    }

    #[test]
    fn walls_raise_the_equilibrium_power() {
        use minim_geom::Segment;
        // A pair whose direct path is walled off must spend more
        // power than the same pair in the clear.
        let build = |walled: bool| {
            let mut net = Network::new(25.0);
            join_all(&mut net, &[(0.0, 0.0), (14.0, 0.0)], 20.0);
            if walled {
                net.add_obstacle(Segment::new(Point::new(7.0, -4.0), Point::new(7.0, 4.0)));
            }
            let out = PowerLoop::new(PowerLoopConfig::for_range_scale(25.0)).run(&net, &[]);
            let ranges: Vec<f64> = out
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::SetRange { range, .. } => Some(*range),
                    _ => None,
                })
                .collect();
            ranges
        };
        let clear = build(false);
        let walled = build(true);
        assert_eq!(clear.len(), 2);
        assert_eq!(walled.len(), 2);
        for (w, c) in walled.iter().zip(&clear) {
            assert!(w > c, "wall penetration must cost power: {w} > {c}");
        }
    }

    #[test]
    fn nearest_neighbor_assignment_is_deterministic() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        assert_eq!(nearest_neighbor_receivers(&positions), vec![1, 0, 1]);
        assert_eq!(nearest_neighbor_receivers(&positions[..1]), vec![0]);
    }

    #[test]
    fn sink_assignment_routes_uplinks_to_shared_heads() {
        let positions = vec![
            Point::new(0.0, 0.0),   // sink 0
            Point::new(1.0, 0.0),   // → sink 0
            Point::new(2.0, 0.0),   // → sink 0
            Point::new(100.0, 0.0), // sink 3
            Point::new(99.0, 0.0),  // → sink 3
        ];
        assert_eq!(
            sink_receivers(&positions, 3),
            vec![3, 0, 0, 0, 3],
            "non-sinks pick the nearest sink, sinks their nearest fellow sink"
        );
        // A single sink falls back to its nearest neighbor.
        assert_eq!(sink_receivers(&positions[..3], 5), vec![1, 0, 0]);
        // Stride 1: everyone is a sink — nearest-neighbor equivalent.
        assert_eq!(
            sink_receivers(&positions, 1),
            nearest_neighbor_receivers(&positions)
        );
    }

    #[test]
    fn shared_sinks_make_high_targets_infeasible_where_meshes_whisper() {
        // A tight clump: under nearest-neighbor uplinks everyone
        // whispers and even a high target converges; under one shared
        // sink the same clump at the same target power-caps — the
        // near-far wall the receiver policy exists to model.
        let mut net = Network::new(25.0);
        join_all(
            &mut net,
            &[
                (0.0, 0.0),
                (10.0, 0.2),
                (10.4, 0.0),
                (10.8, 0.2),
                (11.2, 0.0),
                (11.6, 0.2),
                (12.0, 0.0),
            ],
            25.0,
        );
        let mut cfg = PowerLoopConfig::for_range_scale(25.0);
        cfg.target_sinr = 14.0;
        let mesh = PowerLoop::new(cfg).run(&net, &[]);
        assert!(
            mesh.report.feasibility.is_feasible(),
            "nearest-neighbor uplinks stay feasible: {:?}",
            mesh.report.feasibility
        );
        cfg.receivers = ReceiverPolicy::Sinks { every: 7 };
        let cell = PowerLoop::new(cfg).run(&net, &[]);
        assert!(
            !cell.report.feasibility.is_feasible(),
            "six uplinks into one shared sink at γ=14 must overload"
        );
        assert!(!cell.report.infeasible.is_empty());
    }
}
