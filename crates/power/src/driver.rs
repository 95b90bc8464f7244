//! Lowering the control loop onto the event engine.
//!
//! The paper treats power changes as exogenous inputs; [`PowerLoop`]
//! makes them *endogenous*: it reads the current [`Network`] geometry,
//! runs a cold Foschini–Miljanic relaxation ([`crate::control::relax`])
//! over the induced uplinks (per [`ReceiverPolicy`]), and lowers the
//! converged powers back into ordinary [`Event`]s:
//!
//! * a node whose converged range moved emits [`Event::SetRange`] —
//!   the §5.2 power raise/drop, now driven by interference instead of
//!   a distribution;
//! * an infeasible (power-capped) node emits [`Event::Leave`] under
//!   [`PowerLoopConfig::drop_infeasible`] (admission control /
//!   duty-cycling), otherwise it clamps at the capped range.
//!
//! The recoding strategies never see the physics — just a stream of
//! set-range / leave events whose magnitudes happen to be the
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

use crate::control::{self, ControlConfig, ControlScratch, PowerLadder, Verdict};
use crate::gain::GainModel;
use crate::sinr::{LinkBudget, SinrField};
use minim_geom::{Point, SpatialGrid};
use minim_graph::NodeId;
use minim_net::event::Event;
use minim_net::Network;

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
    /// Lower infeasible nodes to [`Event::Leave`] instead of clamping
    /// them at `max_range`.
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

    /// Checks a loop with this configuration can run, naming the first
    /// bad knob: the gain model, the link budget, the
    /// [`ControlConfig`] it runs (a power interval that is not finite
    /// fails here), and `floor_frac` in `[0, 1)`. [`PowerLoop::new`]
    /// and [`crate::PowerSession::new`] panic on an error; scenario
    /// specs reject it up front.
    pub fn check(&self) -> Result<(), String> {
        self.gain.check()?;
        self.budget.check()?;
        self.control().check()?;
        if !(0.0..1.0).contains(&self.floor_frac) {
            return Err(format!(
                "floor_frac must be in [0, 1), got {}",
                self.floor_frac
            ));
        }
        Ok(())
    }

    /// The interferer gain below which [`SinrField`] drops a term:
    /// `floor_frac` of the noise floor at `max_power` (0 keeps every
    /// interferer).
    pub fn gain_floor(&self) -> f64 {
        if self.floor_frac > 0.0 {
            self.floor_frac * self.budget.noise / self.power_for_range(self.max_range)
        } else {
            0.0
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
    /// How the relaxation ended.
    pub verdict: Verdict,
    /// Single-link power writes the relaxation performed.
    pub updates: u64,
    /// Nodes found infeasible (power-capped), ascending; empty unless
    /// the verdict is [`Verdict::PowerCapped`].
    pub infeasible: Vec<NodeId>,
    /// Links driven by the loop (0 when the network had < 2 nodes).
    pub links: usize,
}

/// One closed-loop run lowered to events.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLoopOutcome {
    /// Events in application order: set-range (ascending node id),
    /// then leaves (ascending).
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
    ///
    /// # Panics
    /// Panics if `cfg` fails [`PowerLoopConfig::check`].
    pub fn new(cfg: PowerLoopConfig) -> Self {
        cfg.check().unwrap_or_else(|e| panic!("{e}"));
        PowerLoop { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &PowerLoopConfig {
        &self.cfg
    }

    /// Runs one cold closed-loop pass over `net`, returning the events
    /// that realize the equilibrium. Purely deterministic: no
    /// randomness, same inputs → same events.
    pub fn run(&self, net: &Network) -> PowerLoopOutcome {
        let cfg = &self.cfg;
        // Transmitters: the present nodes in ascending id order.
        let ids: Vec<NodeId> = net.iter_nodes().collect();
        let positions: Vec<Point> = ids
            .iter()
            .map(|&id| net.config(id).expect("listed node exists").pos)
            .collect();
        let n = positions.len();
        if n < 2 {
            // Nothing to drive: a lone node is left untouched.
            return PowerLoopOutcome {
                events: Vec::new(),
                report: PowerLoopReport {
                    verdict: Verdict::Converged,
                    updates: 0,
                    infeasible: Vec::new(),
                    links: 0,
                },
            };
        }

        let receiver = match cfg.receivers {
            ReceiverPolicy::NearestNeighbor => nearest_neighbor_receivers(&positions),
            ReceiverPolicy::Sinks { every } => sink_receivers(&positions, every),
        };
        let walls = (!net.obstacles().is_empty()).then(|| net.obstacle_index());
        let field = SinrField::build(
            &cfg.gain,
            cfg.budget,
            &positions,
            &receiver,
            walls,
            cfg.gain_floor(),
        );
        let mut scratch = ControlScratch::new();
        let report = control::relax(&field, &cfg.control(), &mut scratch, false);
        // Only a fixed point names infeasible nodes; a budget-exhausted
        // run has no verdict on individual links.
        let capped: &[u32] = if report.verdict == Verdict::PowerCapped {
            &scratch.capped
        } else {
            &[]
        };

        let mut events = Vec::new();
        let mut leaves = Vec::new();
        let mut infeasible = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            if capped.binary_search(&(i as u32)).is_ok() {
                infeasible.push(id);
                if cfg.drop_infeasible {
                    leaves.push(Event::Leave { node: id });
                    continue;
                }
            }
            let new_range = cfg.range_for_power(scratch.powers[i]);
            let old = net.config(id).expect("listed node exists").range;
            if (new_range - old).abs() > cfg.range_epsilon {
                events.push(Event::SetRange {
                    node: id,
                    range: new_range,
                });
            }
        }
        events.extend(leaves);
        PowerLoopOutcome {
            events,
            report: PowerLoopReport {
                verdict: report.verdict,
                updates: report.updates,
                infeasible,
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
    let grid = index_points(positions);
    (0u32..)
        .zip(positions)
        .map(|(i, p)| grid.nearest_where(p, |j, _| j != i).map_or(i, |(j, _)| j))
        .collect()
}

/// [`ReceiverPolicy::Sinks`]: indices `0, every, 2·every, …` are
/// sinks; everyone else uplinks to the nearest sink, sinks to their
/// nearest fellow sink (a lone sink falls back to its nearest
/// neighbor so its link is still live). Ties break toward the lower
/// index, as in [`nearest_neighbor_receivers`].
///
/// # Panics
/// Panics when `every == 0`.
fn sink_receivers(positions: &[Point], every: usize) -> Vec<u32> {
    assert!(every >= 1, "sink stride must be >= 1");
    let is_sink = |j: u32| (j as usize).is_multiple_of(every);
    let grid = index_points(positions);
    (0u32..)
        .zip(positions)
        .map(|(i, p)| {
            grid.nearest_where(p, |j, _| j != i && is_sink(j))
                .or_else(|| grid.nearest_where(p, |j, _| j != i))
                .map_or(i, |(j, _)| j)
        })
        .collect()
}

/// A grid over `positions`, keyed by index, whose cells hold about one
/// point each on a uniform spread (the bounding box's longer side over
/// `√n`), so a nearest query touches a few cells instead of every
/// point. [`SpatialGrid::nearest_where`] breaks ties toward the lower
/// index.
fn index_points(positions: &[Point]) -> SpatialGrid {
    let (mut lo, mut hi) = (
        Point::new(f64::MAX, f64::MAX),
        Point::new(f64::MIN, f64::MIN),
    );
    for p in positions {
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    let cell = (hi.x - lo.x).max(hi.y - lo.y) / (positions.len() as f64).sqrt();
    let mut grid = SpatialGrid::new(if cell.is_finite() && cell > 0.0 {
        cell
    } else {
        1.0
    });
    for (i, &p) in (0u32..).zip(positions) {
        grid.insert(i, p);
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_net::event::apply_topology;
    use minim_net::NodeConfig;

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
        let out = lp.run(&net);
        assert_eq!(out.report.verdict, Verdict::Converged);
        assert_eq!(out.report.links, 4);
        assert!(!out.events.is_empty(), "ranges must move off the seed");
        for e in &out.events {
            assert!(matches!(e, Event::SetRange { .. }));
            apply_topology(&mut net, e);
        }
        net.check_topology();
        // The loop is a fixed point: running it again emits nothing.
        let again = lp.run(&net);
        assert!(
            again.events.is_empty(),
            "equilibrium must be stable, got {:?}",
            again.events
        );
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
        let out = PowerLoop::new(cfg).run(&net);
        assert_eq!(out.report.verdict, Verdict::PowerCapped);
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
        let out = PowerLoop::new(cfg).run(&net);
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
        assert!(lp.run(&empty).events.is_empty());
        let mut one = Network::new(25.0);
        one.join(NodeConfig::new(Point::new(1.0, 1.0), 10.0));
        let out = lp.run(&one);
        assert!(out.events.is_empty());
        assert_eq!(out.report.links, 0);
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
            let out = PowerLoop::new(PowerLoopConfig::for_range_scale(25.0)).run(&net);
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
        let mesh = PowerLoop::new(cfg).run(&net);
        assert_eq!(
            mesh.report.verdict,
            Verdict::Converged,
            "nearest-neighbor uplinks stay feasible"
        );
        cfg.receivers = ReceiverPolicy::Sinks { every: 7 };
        let cell = PowerLoop::new(cfg).run(&net);
        assert_ne!(
            cell.report.verdict,
            Verdict::Converged,
            "six uplinks into one shared sink at γ=14 must overload"
        );
        assert!(!cell.report.infeasible.is_empty());
    }
}
