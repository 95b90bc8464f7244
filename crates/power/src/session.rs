//! Continuous closed-loop power control under churn.
//!
//! [`crate::driver::PowerLoop`] is batch-shaped: each call rebuilds
//! the whole [`SinrField`] and cold-starts the Foschini–Miljanic
//! sweep. [`PowerSession`] is the *continuous* mode the incremental
//! engine exists for: it holds the field, the uplink assignment, and
//! the control scratch **across events**, patches the field in
//! O(affected rows) per join/leave/move ([`SinrField::apply`]), and
//! after every event slice re-relaxes only the links whose
//! interference actually changed ([`crate::control::relax`]), warm-
//! started from the previous equilibrium.
//!
//! # Receiver maintenance
//!
//! The session implements [`ReceiverPolicy::NearestNeighbor`]
//! incrementally: every live node aims at its exact nearest neighbor
//! (ties toward the lower id — the same rule as the batch driver).
//! Three structures keep that invariant cheap under churn:
//!
//! * the field's spatial grid answers "who is nearest to `p`"
//!   ([`SinrField::nearest_transmitter`], expanding-ring exact);
//! * the field's aim index lists exactly the nodes whose uplink dies
//!   when their receiver moves or leaves;
//! * a [`StratifiedGrid`] keyed by each node's **uplink distance**
//!   (padded by a hair so floating-point rounding cannot under-report
//!   a boundary tie) answers the reverse question — "whose current
//!   uplink is long enough that a node appearing at `p` might steal
//!   it" — via `for_each_reaching`, a superset that is then filtered
//!   by the exact distance comparison.
//!
//! A network of one node is a special state: its link is dead
//! (`receiver == self`) and it is kept out of the uplink grid; the
//! session tracks it as `lonely` and revives it into a real pair on
//! the next join.
//!
//! # Warm starts and ladders
//!
//! On the continuous ladder the clamped Foschini–Miljanic map has a
//! unique fixed point and converges from **any** start, so
//! warm-started relaxation provably lands on the same equilibrium a
//! cold batch run finds. A discrete (geometric) ladder only promises
//! the *least* fixed point when climbing from the all-minimum vector
//! — a warm start above it could stay high — so discrete sessions
//! restart each settle cold (still incremental in the field, just not
//! in the powers).

use crate::control::{self, ControlConfig, PowerLadder, Verdict};
use crate::driver::{PowerLoopConfig, ReceiverPolicy};
use crate::sinr::{FieldEvent, SinrField};
use minim_geom::{Point, StratifiedGrid};
use minim_graph::NodeId;
use minim_net::event::Event;
use minim_net::Network;

/// Pads a true uplink distance so the stored reach in the stratified
/// grid is a strict upper bound despite `sqrt`/squaring rounding —
/// `for_each_reaching` must report every node whose uplink a newcomer
/// could steal, boundary ties included.
#[inline]
fn pad(d: f64) -> f64 {
    d * (1.0 + 1e-9) + 1e-12
}

/// What one [`PowerSession::settle`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// How the relaxation ended.
    pub verdict: Verdict,
    /// Single-link power writes the relaxation performed (small when
    /// little changed — the whole point of the warm start).
    pub updates: u64,
    /// Live links pinned at the cap below target (0 unless the
    /// verdict is [`Verdict::PowerCapped`]; ids via
    /// [`PowerSession::capped`]).
    pub infeasible: usize,
    /// Live links under control at settle time.
    pub links: usize,
    /// Always 0. Kept only because the frozen benchmark (`perfbench`)
    /// still reads it; it goes with the next benchmark change.
    pub islands: usize,
}

impl SessionReport {
    /// Flushes this settle's statistics into the minim-obs registry:
    /// accumulated once per settle (not per inner-loop step) so the
    /// relaxation stays allocation-free and essentially unperturbed.
    fn record_metrics(&self, elapsed_ns: u64) {
        minim_obs::counter!("power.settle.calls", 1);
        minim_obs::counter!("power.settle.updates", self.updates);
        minim_obs::gauge!("power.settle.links", self.links as f64);
        minim_obs::observe_ns!("power.settle_ns", elapsed_ns);
    }
}

/// A long-lived continuous power-control loop: incremental SINR
/// field, nearest-neighbor uplink maintenance, and warm-started
/// active-set relaxation, lowered to [`Event::SetRange`] corrections.
/// See the module docs.
#[derive(Debug, Clone)]
pub struct PowerSession {
    cfg: PowerLoopConfig,
    control: ControlConfig,
    field: SinrField,
    scratch: control::ControlScratch,
    /// Present, non-lonely nodes keyed by padded uplink distance.
    uplinks: StratifiedGrid,
    /// Mirror of each node's currently-applied range (what the
    /// network believes), to suppress no-op [`Event::SetRange`]s.
    ranges: Vec<f64>,
    /// The single live node when exactly one is present.
    lonely: Option<u32>,
    /// Whether `scratch.powers` holds a previous equilibrium.
    warmed: bool,
    events: Vec<Event>,
    dirty_buf: Vec<u32>,
    aim_buf: Vec<u32>,
    steal_buf: Vec<u32>,
}

impl PowerSession {
    /// Opens a session over the current state of `net` (obstacles are
    /// snapshotted — add walls before, not during, a session).
    ///
    /// # Panics
    /// Panics unless `cfg` uses [`ReceiverPolicy::NearestNeighbor`]
    /// with `drop_infeasible == false` (the continuous loop corrects
    /// ranges; admission control stays a batch-driver concern), or if
    /// the physics/control configuration fails validation.
    pub fn new(cfg: PowerLoopConfig, net: &Network) -> PowerSession {
        assert!(
            cfg.receivers == ReceiverPolicy::NearestNeighbor,
            "PowerSession implements nearest-neighbor uplinks only"
        );
        assert!(
            !cfg.drop_infeasible,
            "PowerSession clamps infeasible links; drop_infeasible is a batch-driver policy"
        );
        cfg.gain.validate();
        cfg.budget.validate();
        let control = cfg.control();
        control.validate();
        assert!(
            cfg.floor_frac >= 0.0 && cfg.floor_frac < 1.0,
            "floor_frac must be in [0, 1), got {}",
            cfg.floor_frac
        );
        let n = net.peek_next_id().0 as usize;
        let mut positions = vec![Point::new(0.0, 0.0); n];
        let mut receiver = vec![crate::sinr::NO_RECEIVER; n];
        let mut ranges = vec![0.0; n];
        let mut seed = minim_geom::SpatialGrid::new(cfg.max_range.max(1.0));
        let mut live: Vec<u32> = Vec::new();
        for id in net.iter_nodes() {
            let c = net.config(id).expect("listed node exists");
            let i = id.0 as usize;
            positions[i] = c.pos;
            ranges[i] = c.range;
            seed.insert(id.0, c.pos);
            live.push(id.0);
        }
        for &i in &live {
            receiver[i as usize] = seed
                .nearest_where(&positions[i as usize], |u, _| u != i)
                .map_or(i, |(u, _)| u);
        }
        let lonely = (live.len() == 1).then(|| live[0]);
        let gain_floor = if cfg.floor_frac > 0.0 {
            cfg.floor_frac * cfg.budget.noise / control.max_power
        } else {
            0.0
        };
        let walls = (!net.obstacles().is_empty()).then(|| net.obstacle_index());
        let field = SinrField::build(
            &cfg.gain, cfg.budget, &positions, &receiver, walls, gain_floor,
        );
        let mut uplinks = StratifiedGrid::new(cfg.min_range.max(1e-3));
        for &i in &live {
            let r = receiver[i as usize];
            if r != i {
                let d = positions[i as usize].dist(&positions[r as usize]);
                uplinks.insert(i, positions[i as usize], pad(d));
            }
        }
        let mut scratch = control::ControlScratch::new();
        scratch.fit(n, control.start_power());
        PowerSession {
            cfg,
            control,
            field,
            scratch,
            uplinks,
            ranges,
            lonely,
            warmed: false,
            events: Vec::new(),
            dirty_buf: Vec::new(),
            aim_buf: Vec::new(),
            steal_buf: Vec::new(),
        }
    }

    /// The loop configuration.
    pub fn config(&self) -> &PowerLoopConfig {
        &self.cfg
    }

    /// Does nothing: settles always run on the calling thread. Kept
    /// only because the frozen benchmark (`perfbench`) still calls it;
    /// it goes with the next benchmark change.
    pub fn set_workers(&mut self, _workers: usize) {}

    /// The live SINR field (for inspection and equivalence tests).
    pub fn field(&self) -> &SinrField {
        &self.field
    }

    /// The current power vector (meaningful after a settle).
    pub fn powers(&self) -> &[f64] {
        &self.scratch.powers
    }

    /// Links pinned at the cap below target as of the last settle.
    pub fn capped(&self) -> &[u32] {
        &self.scratch.capped
    }

    /// A node joined the network at `pos` with an (exogenous) initial
    /// `range` — wire it in: nearest-neighbor uplink for the joiner,
    /// uplink steals for nodes it is now closest to, interference rows
    /// patched. The next [`PowerSession::settle`] corrects its range.
    ///
    /// # Panics
    /// Panics if `node` is already live.
    pub fn apply_join(&mut self, node: u32, pos: Point, range: f64) {
        let nu = node as usize;
        if self.ranges.len() <= nu {
            self.ranges.resize(nu + 1, 0.0);
        }
        self.ranges[nu] = range;
        match self.field.live_links() {
            0 => {
                self.field.apply(&FieldEvent::Join {
                    node,
                    pos,
                    receiver: node,
                });
                self.lonely = Some(node);
            }
            1 => {
                // Revive the lonely node: the pair aim at each other.
                let l = self.lonely.take().expect("single live node is lonely");
                self.field.apply(&FieldEvent::Join {
                    node,
                    pos,
                    receiver: l,
                });
                self.field.apply(&FieldEvent::Retune {
                    node: l,
                    receiver: node,
                });
                let lp = self.field.position_of(l as usize).expect("lonely is live");
                let d = pad(lp.dist(&pos));
                self.uplinks.insert(node, pos, d);
                self.uplinks.insert(l, lp, d);
            }
            _ => {
                let r = self
                    .field
                    .nearest_transmitter(&pos, |u| u != node)
                    .expect("two or more live nodes");
                self.field.apply(&FieldEvent::Join {
                    node,
                    pos,
                    receiver: r,
                });
                let d = self
                    .field
                    .position_of(r as usize)
                    .expect("receiver is live")
                    .dist(&pos);
                self.uplinks.insert(node, pos, pad(d));
                self.steal_uplinks(node, pos);
            }
        }
        // A fresh link starts from the bottom of the ladder.
        self.scratch
            .fit(self.field.len(), self.control.start_power());
        self.scratch.powers[nu] = self.control.start_power();
    }

    /// A node left the network: retune its aimers onto their next-
    /// nearest neighbors, then drop its row and its interference
    /// contributions.
    ///
    /// # Panics
    /// Panics if `node` is not live.
    pub fn apply_leave(&mut self, node: u32) {
        if self.lonely == Some(node) {
            self.field.apply(&FieldEvent::Leave { node });
            self.lonely = None;
            return;
        }
        let mut aim = std::mem::take(&mut self.aim_buf);
        aim.clear();
        aim.extend_from_slice(self.field.aimers(node as usize));
        for &k in &aim {
            let xk = self.field.position_of(k as usize).expect("aimer is live");
            match self.field.nearest_transmitter(&xk, |u| u != k && u != node) {
                Some(best) => {
                    self.field.apply(&FieldEvent::Retune {
                        node: k,
                        receiver: best,
                    });
                    let d = xk.dist(&self.field.position_of(best as usize).expect("live"));
                    self.uplinks.set_range(k, pad(d));
                }
                None => {
                    // k is the last node standing: dead link.
                    self.field.apply(&FieldEvent::Retune {
                        node: k,
                        receiver: k,
                    });
                    self.uplinks.remove(k);
                    self.lonely = Some(k);
                }
            }
        }
        self.aim_buf = aim;
        self.uplinks.remove(node);
        self.field.apply(&FieldEvent::Leave { node });
    }

    /// A node moved: patch its rows, re-seek its own uplink, let its
    /// abandoned aimers re-seek theirs, and steal uplinks it now wins.
    ///
    /// # Panics
    /// Panics if `node` is not live.
    pub fn apply_move(&mut self, node: u32, pos: Point) {
        if self.lonely == Some(node) {
            self.field.apply(&FieldEvent::Move { node, pos });
            return;
        }
        self.field.apply(&FieldEvent::Move { node, pos });
        self.uplinks.relocate(node, pos);
        // The mover's own nearest neighbor may have changed.
        let r = self
            .field
            .receiver_of(node as usize)
            .expect("mover is live");
        let best = self
            .field
            .nearest_transmitter(&pos, |u| u != node)
            .expect("two or more live nodes");
        if best != r {
            self.field.apply(&FieldEvent::Retune {
                node,
                receiver: best,
            });
        }
        let d = pos.dist(&self.field.position_of(best as usize).expect("live"));
        self.uplinks.set_range(node, pad(d));
        // Aimers of the mover: their uplink distance changed; some may
        // now prefer a third node.
        let mut aim = std::mem::take(&mut self.aim_buf);
        aim.clear();
        aim.extend_from_slice(self.field.aimers(node as usize));
        for &k in &aim {
            let xk = self.field.position_of(k as usize).expect("aimer is live");
            let best = self
                .field
                .nearest_transmitter(&xk, |u| u != k)
                .expect("two or more live nodes");
            if best != node {
                self.field.apply(&FieldEvent::Retune {
                    node: k,
                    receiver: best,
                });
            }
            let d = xk.dist(&self.field.position_of(best as usize).expect("live"));
            self.uplinks.set_range(k, pad(d));
        }
        self.aim_buf = aim;
        // Nodes the mover is now closest to switch onto it.
        self.steal_uplinks(node, pos);
    }

    /// An exogenous range change (e.g. a workload `SetRange`): record
    /// what the network now believes so the next settle emits the
    /// correction relative to it. No physics change — transmit power
    /// is the loop's output, not its input.
    pub fn note_range(&mut self, node: u32, range: f64) {
        let nu = node as usize;
        if self.ranges.len() <= nu {
            self.ranges.resize(nu + 1, 0.0);
        }
        self.ranges[nu] = range;
    }

    /// Retunes every node that now prefers `j` at `pos` over its
    /// current receiver: reverse-reach candidates (whose padded uplink
    /// distance covers `pos`), filtered by the exact nearest-neighbor
    /// rule (strictly closer, or a distance tie won by the lower id).
    fn steal_uplinks(&mut self, j: u32, pos: Point) {
        let mut cand = std::mem::take(&mut self.steal_buf);
        cand.clear();
        self.uplinks.for_each_reaching(&pos, |u, _, _| {
            if u != j {
                cand.push(u);
            }
        });
        cand.sort_unstable();
        for &u in &cand {
            let uu = u as usize;
            let r = self.field.receiver_of(uu).expect("candidate is live");
            if r == j {
                continue;
            }
            let xu = self.field.position_of(uu).expect("candidate is live");
            let d2new = xu.dist2(&pos);
            let d2old = xu.dist2(
                &self
                    .field
                    .position_of(r as usize)
                    .expect("receiver is live"),
            );
            if d2new < d2old || (d2new == d2old && j < r) {
                self.field.apply(&FieldEvent::Retune {
                    node: u,
                    receiver: j,
                });
                self.uplinks.set_range(u, pad(d2new.sqrt()));
            }
        }
        self.steal_buf = cand;
    }

    /// Re-relaxes the loop over everything that changed since the
    /// last settle and lowers the corrections to [`Event::SetRange`]s
    /// (ascending node id). Warm-starts from the previous equilibrium
    /// on continuous ladders; cold-starts on discrete ladders and
    /// after a divergence (see the module docs). Steady-state calls
    /// are allocation-free once the buffers are warm.
    pub fn settle(&mut self) -> (&[Event], SessionReport) {
        let _span = minim_obs::span!("power.settle");
        let settle_start = std::time::Instant::now();
        self.events.clear();
        let live = self.field.live_links();
        if live < 2 {
            // Nothing to control. Drop the accumulated dirt and force
            // a cold start when the population returns.
            self.field.take_dirty(&mut self.dirty_buf);
            self.warmed = false;
            let report = SessionReport {
                verdict: Verdict::Converged,
                updates: 0,
                infeasible: 0,
                links: live,
                islands: 0,
            };
            report.record_metrics(settle_start.elapsed().as_nanos() as u64);
            return (&self.events, report);
        }
        self.field.take_dirty(&mut self.dirty_buf);
        let warm = self.warmed && matches!(self.control.ladder, PowerLadder::Continuous);
        if warm {
            for &d in &self.dirty_buf {
                self.scratch.mark(d);
            }
        }
        let report = control::relax(&self.field, &self.control, &mut self.scratch, warm);
        self.warmed = report.verdict != Verdict::Diverging;
        for i in 0..self.field.len() {
            if !self.field.is_live(i) {
                continue;
            }
            let new_range = self.cfg.range_for_power(self.scratch.powers[i]);
            if (new_range - self.ranges[i]).abs() > self.cfg.range_epsilon {
                self.events.push(Event::SetRange {
                    node: NodeId(i as u32),
                    range: new_range,
                });
                self.ranges[i] = new_range;
            }
        }
        let infeasible = if report.verdict == Verdict::PowerCapped {
            self.scratch.capped.len()
        } else {
            0
        };
        let session_report = SessionReport {
            verdict: report.verdict,
            updates: report.updates,
            infeasible,
            links: live,
            islands: 0,
        };
        session_report.record_metrics(settle_start.elapsed().as_nanos() as u64);
        (&self.events, session_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PowerLoop;
    use minim_net::event::apply_topology;
    use minim_net::NodeConfig;

    fn net_of(coords: &[(f64, f64)], range: f64) -> Network {
        let mut net = Network::new(25.0);
        for &(x, y) in coords {
            net.join(NodeConfig::new(Point::new(x, y), range));
        }
        net
    }

    /// The session's first settle reproduces the batch driver's
    /// equilibrium: same events (node, range within float slack).
    #[test]
    fn first_settle_matches_batch_driver() {
        let net = net_of(&[(0.0, 0.0), (12.0, 0.0), (60.0, 5.0), (70.0, 5.0)], 25.0);
        let cfg = PowerLoopConfig::for_range_scale(25.0);
        let batch = PowerLoop::new(cfg).run(&net, &[]);
        let mut session = PowerSession::new(cfg, &net);
        let (events, report) = session.settle();
        assert_eq!(report.verdict, Verdict::Converged);
        assert_eq!(events.len(), batch.events.len());
        for (s, b) in events.iter().zip(&batch.events) {
            let (
                Event::SetRange {
                    node: sn,
                    range: sr,
                },
                Event::SetRange {
                    node: bn,
                    range: br,
                },
            ) = (s, b)
            else {
                panic!("both lowerings emit set-ranges, got {s:?} vs {b:?}");
            };
            assert_eq!(sn, bn);
            let rel = (sr - br).abs() / br;
            assert!(rel < 1e-3, "node {sn:?}: session {sr} vs batch {br}");
        }
    }

    /// Settling twice in a row emits nothing the second time — the
    /// equilibrium is a fixed point and the warm relaxation sees an
    /// empty worklist.
    #[test]
    fn settled_session_is_quiescent() {
        let net = net_of(&[(0.0, 0.0), (9.0, 0.0), (40.0, 0.0), (47.0, 0.0)], 25.0);
        let mut session = PowerSession::new(PowerLoopConfig::for_range_scale(25.0), &net);
        let (events, _) = session.settle();
        assert!(!events.is_empty());
        let (events, report) = session.settle();
        assert!(events.is_empty(), "second settle must be a no-op");
        assert_eq!(report.updates, 0);
    }

    /// Receiver maintenance under churn: after every event, each live
    /// node's receiver is its exact nearest neighbor (lowest id on
    /// ties) — checked against a brute-force scan.
    #[test]
    fn churn_keeps_receivers_at_exact_nearest_neighbors() {
        let mut net = net_of(&[(0.0, 0.0), (10.0, 0.0), (20.0, 4.0), (35.0, 4.0)], 25.0);
        let cfg = PowerLoopConfig::for_range_scale(25.0);
        let mut session = PowerSession::new(cfg, &net);
        let check = |session: &PowerSession| {
            let f = session.field();
            let live: Vec<u32> = (0..f.len() as u32)
                .filter(|&i| f.is_live(i as usize))
                .collect();
            for &i in &live {
                let xi = f.position_of(i as usize).unwrap();
                let mut best: Option<(u32, f64)> = None;
                for &j in &live {
                    if j == i {
                        continue;
                    }
                    let d2 = xi.dist2(&f.position_of(j as usize).unwrap());
                    let better = match best {
                        None => true,
                        Some((_, bd2)) => d2 < bd2,
                    };
                    if better {
                        best = Some((j, d2));
                    }
                }
                let expect = best.map_or(i, |(j, _)| j);
                assert_eq!(
                    f.receiver_of(i as usize),
                    Some(expect),
                    "node {i} must aim at its nearest neighbor"
                );
            }
        };
        check(&session);
        // A joiner lands between the two pairs and steals uplinks.
        let id = net.peek_next_id();
        let cfgj = NodeConfig::new(Point::new(24.0, 4.0), 10.0);
        net.join(cfgj);
        session.apply_join(id.0, cfgj.pos, cfgj.range);
        check(&session);
        // The joiner drifts; every move keeps the invariant.
        for step in 1..6 {
            let to = Point::new(24.0 - 5.0 * step as f64, 4.0);
            net.move_node(id, to);
            session.apply_move(id.0, to);
            check(&session);
        }
        // It leaves again; its aimers re-seek.
        net.remove_node(id);
        session.apply_leave(id.0);
        check(&session);
        session.settle();
        check(&session);
    }

    /// The lonely-node lifecycle: 0 → 1 → 2 → 1 live nodes, with dead
    /// links while alone and a real pair while together.
    #[test]
    fn lonely_node_lifecycle() {
        let net = Network::new(25.0);
        let cfg = PowerLoopConfig::for_range_scale(25.0);
        let mut session = PowerSession::new(cfg, &net);
        let (events, report) = session.settle();
        assert!(events.is_empty());
        assert_eq!(report.links, 0);
        session.apply_join(0, Point::new(0.0, 0.0), 5.0);
        let (events, report) = session.settle();
        assert!(events.is_empty(), "a lone node is left untouched");
        assert_eq!(report.links, 1);
        assert_eq!(session.field().receiver_of(0), Some(0), "dead link");
        session.apply_join(1, Point::new(8.0, 0.0), 5.0);
        assert_eq!(session.field().receiver_of(0), Some(1));
        assert_eq!(session.field().receiver_of(1), Some(0));
        let (events, report) = session.settle();
        assert_eq!(events.len(), 2, "the pair converges to real ranges");
        assert_eq!(report.links, 2);
        session.apply_leave(0);
        assert_eq!(session.field().receiver_of(1), Some(1), "lonely again");
        let (events, _) = session.settle();
        assert!(events.is_empty());
    }

    /// Exogenous set-range churn is corrected back to the equilibrium
    /// on the next settle.
    #[test]
    fn exogenous_range_churn_is_corrected() {
        let net = net_of(&[(0.0, 0.0), (9.0, 0.0)], 25.0);
        let mut session = PowerSession::new(PowerLoopConfig::for_range_scale(25.0), &net);
        let (events, _) = session.settle();
        let Some(&Event::SetRange {
            range: eq_range, ..
        }) = events.first()
        else {
            panic!("expected a set-range");
        };
        // The workload yanks node 0's range; the session puts it back.
        session.note_range(0, 40.0);
        let (events, _) = session.settle();
        assert_eq!(events.len(), 1);
        let Some(&Event::SetRange { node, range }) = events.first() else {
            panic!("expected a set-range");
        };
        assert_eq!(node, NodeId(0));
        assert_eq!(range, eq_range, "correction restores the equilibrium");
    }

    /// Session events apply cleanly to a real network replica.
    #[test]
    fn settle_events_apply_cleanly() {
        let mut net = net_of(&[(0.0, 0.0), (11.0, 0.0), (30.0, 8.0), (44.0, 8.0)], 25.0);
        let mut session = PowerSession::new(PowerLoopConfig::for_range_scale(25.0), &net);
        let (events, _) = session.settle();
        for e in events {
            apply_topology(&mut net, e);
        }
        net.check_topology();
    }
}
