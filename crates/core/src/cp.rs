//! The **CP** baseline — Chlamtac & Pinter's distributed recoding
//! strategy as described in §3 of the paper.
//!
//! * **Join**: the joiner contacts its 1-hop neighbors; every pair of
//!   nodes in `1n ∪ 2n` sharing a color violates CA2 through the
//!   joiner, so all members of duplicated color classes plus the joiner
//!   become unassigned and re-run the \[3\] selection protocol: each
//!   selects once it is the highest-identity unassigned node in its
//!   2-hop vicinity, taking the **lowest color not used by any of its
//!   1- or 2-hop neighbors**. (This reproduces the paper's Fig 4 CP
//!   column exactly: with neighbors {1,3,6,7} of the joiner 8 holding
//!   (2,1,1,2) — all four duplicated — and externals fixing color 3,
//!   the highest-first waves give 8→1, 7→2, 6→4, 3→5, 1→6: four
//!   recodings, max color 6, precisely the published numbers. The
//!   alternative reading in which the *entire* 1-hop neighborhood
//!   reselects regardless of duplication explodes the recoding counts
//!   ~5× beyond the paper's Fig 10 magnitudes, which is how we ruled
//!   it out.) The 2-hop avoidance is a
//!   conservative superset of the true CA1/CA2 constraints, which is
//!   why CP uses more colors than Minim, and the lowest-available pick
//!   is why it recodes more: a reselecting node abandons its old color
//!   whenever a lower one happens to be free.
//! * **Leave / power decrease**: passive (no new conflicts).
//! * **Move**: modeled as leave followed by join (§3) — the mover
//!   forgets its color and rejoins, which is exactly what makes CP
//!   costly under mobility (§5.3).
//! * **Power increase** (§4.2's CP extension): every node within 2
//!   hops that acquires a *new* constraint with the initiator and has
//!   the same old color — plus the initiator — reselects, same
//!   ordering and color rule (this reproduces the paper's Fig 6: the
//!   conflicter picks 4, then the initiator picks 5).
//!
//! Sequential processing in descending identity order is a valid
//! linearization of the distributed rule (concurrently-selecting nodes
//! are > 2 hops apart and cannot constrain each other), and keeps runs
//! deterministic.

use crate::{ColorPlan, RecodingStrategy};
use minim_graph::{conflict, hops};
use minim_graph::{Color, ColorView, NodeId};
use minim_net::event::{AppliedEvent, PowerDirection};
use minim_net::{Network, TopologyDelta};
use std::collections::{HashMap, HashSet};

/// The Chlamtac–Pinter recoding baseline.
#[derive(Debug, Clone, Default)]
pub struct Cp {
    /// When true, reselecting nodes avoid only their *exact* CA1/CA2
    /// constraint colors instead of every color within 2 hops. Used by
    /// the `ablation_cp_pick` bench to isolate how much of CP's color
    /// inflation is due to 2-hop conservatism.
    pub exact_constraints: bool,
}

impl Cp {
    /// The ablation variant with constraint-exact color picking.
    pub fn with_exact_constraints() -> Self {
        Cp {
            exact_constraints: true,
        }
    }

    /// Fills `avoid` with the colors a reselecting node must avoid, as
    /// the plan currently sees them (its own earlier writes included,
    /// via the view). `partners` is conflict-set scratch; both buffers
    /// are reused across the reselection loop, so the per-node heap
    /// traffic of a CP plan is gone in the exact-constraints arm (the
    /// default 2-hop arm still walks a BFS, which allocates its
    /// frontier). The result is **sorted** and deduplicated.
    fn avoid_colors_into(
        &self,
        net: &Network,
        view: &ColorView<'_>,
        u: NodeId,
        partners: &mut Vec<NodeId>,
        avoid: &mut Vec<Color>,
    ) {
        if self.exact_constraints {
            conflict::constraint_colors_into(net.graph(), view, u, partners, avoid);
        } else {
            avoid.clear();
            avoid.extend(
                hops::within_hops(net.graph(), u, 2)
                    .into_iter()
                    .filter_map(|(v, _)| view.get(v)),
            );
            avoid.sort_unstable();
            avoid.dedup();
        }
    }

    /// Plans the reselection of `to_recolor`: uncolors them on the
    /// view, then reselects in descending identity order with the
    /// lowest-available rule. The network itself is untouched — the
    /// interleaved read-after-write the protocol needs happens on the
    /// view overlay, so planning stays a pure read of the network.
    fn reselect_plan(
        &self,
        net: &Network,
        view: &mut ColorView<'_>,
        mut to_recolor: Vec<NodeId>,
    ) -> ColorPlan {
        to_recolor.sort_unstable();
        to_recolor.dedup();
        for &u in &to_recolor {
            view.unset(u);
        }
        // Highest identity selects first.
        to_recolor.sort_unstable_by(|a, b| b.cmp(a));
        let mut plan = Vec::with_capacity(to_recolor.len());
        let mut partners: Vec<NodeId> = Vec::new();
        let mut avoid: Vec<Color> = Vec::new();
        for &u in &to_recolor {
            self.avoid_colors_into(net, view, u, &mut partners, &mut avoid);
            let c = Color::lowest_excluding_sorted(&avoid);
            view.set(u, c);
            plan.push((u, c));
        }
        plan
    }

    /// The duplicated-color members of `1n ∪ 2n` around the delta's
    /// node (the nodes whose pairs violate CA2 through the joiner) —
    /// read straight off the delta's neighbor lists.
    fn duplicate_in_neighbors(view: &ColorView<'_>, delta: &TopologyDelta) -> Vec<NodeId> {
        let in_union = delta.partitions().in_union();
        let mut by_color: HashMap<Color, Vec<NodeId>> = HashMap::new();
        for &u in &in_union {
            if let Some(c) = view.get(u) {
                by_color.entry(c).or_default().push(u);
            }
        }
        let mut dup: Vec<NodeId> = by_color
            .into_values()
            .filter(|v| v.len() >= 2)
            .flatten()
            .collect();
        dup.sort_unstable();
        dup
    }

    /// Shared join-plan engine (also the second half of a move). The
    /// affected neighborhood comes from the event's delta.
    fn plan_join(
        &self,
        net: &Network,
        view: &mut ColorView<'_>,
        delta: &TopologyDelta,
    ) -> ColorPlan {
        let mut to_recolor = Self::duplicate_in_neighbors(view, delta);
        to_recolor.push(delta.node());
        self.reselect_plan(net, view, to_recolor)
    }

    /// The initiator's conflict partners *before* a power increase,
    /// reconstructed from the delta and the post-event graph. Valid
    /// because an increase only adds out-edges of the initiator: every
    /// other adjacency — in particular the in-lists of the receivers
    /// it already reached — is unchanged.
    fn partners_before_increase(net: &Network, delta: &TopologyDelta) -> Vec<NodeId> {
        let id = delta.node();
        let out_before = delta.out_before();
        let mut set: HashSet<NodeId> = HashSet::new();
        // CA1 partners: both edge directions (in-edges are untouched
        // by a range change, so in_after == in_before).
        set.extend(out_before.iter().copied());
        set.extend(delta.in_after.iter().copied());
        // CA2 partners: other transmitters into the old receivers.
        for &w in &out_before {
            set.extend(net.graph().in_neighbors(w).iter().copied());
        }
        set.remove(&id);
        let mut v: Vec<NodeId> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Plans the §4.2 CP power-increase extension: every node that
    /// acquires a *new* constraint with the initiator and shares its
    /// old color — plus the initiator — reselects.
    fn plan_range_change(
        &self,
        net: &Network,
        view: &mut ColorView<'_>,
        id: NodeId,
        dir: PowerDirection,
        delta: &TopologyDelta,
    ) -> ColorPlan {
        match dir {
            PowerDirection::Increase => {
                // The candidates for new conflicts come from the
                // delta: each newly reached receiver `w` (CA1 partner)
                // and `w`'s other transmitters (CA2 partners). No
                // second full conflict-set derivation.
                let partners_before = Self::partners_before_increase(net, delta);
                let my_color = view.get(id);
                let mut new_partners: Vec<NodeId> = Vec::new();
                for w in delta.new_receivers() {
                    new_partners.push(w);
                    new_partners.extend(
                        net.graph()
                            .in_neighbors(w)
                            .iter()
                            .copied()
                            .filter(|&x| x != id),
                    );
                }
                new_partners.sort_unstable();
                new_partners.dedup();
                let mut to_recolor: Vec<NodeId> = new_partners
                    .into_iter()
                    .filter(|p| partners_before.binary_search(p).is_err())
                    .filter(|&p| view.get(p) == my_color)
                    .collect();
                let clash = !to_recolor.is_empty() || my_color.is_none();
                if clash {
                    to_recolor.push(id);
                    self.reselect_plan(net, view, to_recolor)
                } else {
                    Vec::new()
                }
            }
            PowerDirection::Decrease | PowerDirection::Unchanged => Vec::new(),
        }
    }
}

impl RecodingStrategy for Cp {
    fn name(&self) -> &'static str {
        "CP"
    }

    fn plan_batched(
        &self,
        net: &Network,
        applied: &AppliedEvent,
        delta: &TopologyDelta,
    ) -> ColorPlan {
        let mut view = ColorView::new(net.assignment());
        match *applied {
            AppliedEvent::Joined(_) => self.plan_join(net, &mut view, delta),
            AppliedEvent::Left(_) => Vec::new(),
            // Leave + join: the mover forgets its color before
            // rejoining (§3) — on the view, so the plan stays pure.
            AppliedEvent::Moved(id) => {
                view.unset(id);
                self.plan_join(net, &mut view, delta)
            }
            AppliedEvent::RangeChanged(id, dir) => {
                self.plan_range_change(net, &mut view, id, dir, delta)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Minim, RecodingStrategy, StrategyKind};
    use minim_geom::{sample, Point, Rect};
    use minim_net::workload::{JoinWorkload, MovementWorkload, PowerRaiseWorkload};
    use minim_net::NodeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn c(i: u32) -> Color {
        Color::new(i)
    }

    fn run_joins(strategy: &mut dyn RecodingStrategy, count: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(25.0);
        for e in JoinWorkload::paper(count).generate(&mut rng) {
            strategy.apply(&mut net, &e);
            assert!(
                net.validate().is_ok(),
                "{} invalid after join",
                strategy.name()
            );
        }
        net
    }

    #[test]
    fn cp_join_sequence_is_correct() {
        let mut cp = Cp::default();
        let net = run_joins(&mut cp, 60, 11);
        assert_eq!(net.node_count(), 60);
    }

    #[test]
    fn cp_recolors_all_duplicate_members_not_k_minus_one() {
        // Star: joiner hub with spokes colored {1, 1}. CP uncolors both
        // duplicates + the hub; with the hub selecting first (highest
        // id), then spokes at 2-hop visibility of each other.
        let mut net = Network::new(10.0);
        let s1 = net.join(NodeConfig::new(Point::new(0.0, 5.0), 6.0));
        let s2 = net.join(NodeConfig::new(Point::new(0.0, -5.0), 6.0));
        net.set_color(s1, c(1));
        net.set_color(s2, c(1));
        assert!(net.validate().is_ok(), "spokes out of range of each other");
        let mut cp = Cp::default();
        let hub = net.next_id();
        let out = cp.on_join(&mut net, hub, NodeConfig::new(Point::new(0.0, 0.0), 6.0));
        assert!(net.validate().is_ok());
        // CP recodes: hub (new), and both of s1/s2 reselect; s2
        // (higher id) selects before s1 and may re-pick 1... after hub
        // took the lowest free color. The count must be >= Minim's
        // bound (2) and the assignment valid.
        assert!(out.recodings() >= 2, "got {}", out.recodings());
    }

    #[test]
    fn cp_move_always_reassigns_the_mover_from_scratch() {
        // Even a move that changes nothing topologically makes CP
        // reassign the mover (leave + join forgets its color); the
        // lowest-available pick then abandons the old high color.
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 6.0));
        let b = net.join(NodeConfig::new(Point::new(5.0, 0.0), 6.0));
        net.set_color(a, c(1));
        net.set_color(b, c(5)); // b's color is deliberately high
        let mut cp = Cp::default();
        let out = cp.on_move(&mut net, b, Point::new(4.0, 0.0));
        assert!(net.validate().is_ok());
        assert_eq!(out.recodings(), 1);
        assert_eq!(net.assignment().get(b), Some(c(2)), "lowest available");
    }

    /// The Fig 4 CP worked example, reproduced literally: joiner 8 with
    /// 1-hop neighbors holding (2, 3-externals..., 1, 1, 2); the
    /// published outcome is 8→1, 7→2, 6→4, 3→5, 1→6 — four recodings
    /// and max color 6, versus Minim's three.
    #[test]
    fn fig4_cp_column_reproduces_exactly() {
        // Geometry: joiner at the center; neighbors 1, 3, 6, 7 on a
        // circle (pairwise out of direct range); three external nodes
        // with color 3 placed so that EVERY neighbor and the joiner has
        // a color-3 holder within 2 hops (the figure's nodes 2, 4, 5).
        let center = Point::new(50.0, 50.0);
        let mut net = Network::new(10.0);
        // Ids 0..: create in figure order 1,2,3,4,5,6,7 then 8.
        // v1 at angle 0, v3 at 90°, v6 at 180°, v7 at 270°, radius 6.
        let pos = |deg: f64, r: f64| {
            let a = deg.to_radians();
            Point::new(center.x + r * a.cos(), center.y + r * a.sin())
        };
        let v1 = net.join(NodeConfig::new(pos(0.0, 6.0), 7.0));
        // External color-3 holders, each adjacent to one spoke but out
        // of range of the joiner (radius 13 > 7).
        let v2 = net.join(NodeConfig::new(pos(0.0, 13.0), 7.1));
        let v3 = net.join(NodeConfig::new(pos(90.0, 6.0), 7.0));
        let v4 = net.join(NodeConfig::new(pos(90.0, 13.0), 7.1));
        let v5 = net.join(NodeConfig::new(pos(180.0, 13.0), 7.1));
        let v6 = net.join(NodeConfig::new(pos(180.0, 6.0), 7.0));
        let v7 = net.join(NodeConfig::new(pos(270.0, 6.0), 7.0));
        // A fourth external so v7 also sees a color-3 holder.
        let v7x = net.join(NodeConfig::new(pos(270.0, 13.0), 7.1));
        net.set_color(v1, c(2));
        net.set_color(v2, c(3));
        net.set_color(v3, c(1));
        net.set_color(v4, c(3));
        net.set_color(v5, c(3));
        net.set_color(v6, c(1));
        net.set_color(v7, c(2));
        net.set_color(v7x, c(3));
        assert!(net.validate().is_ok(), "the pre-join assignment is legal");

        let mut cp = Cp::default();
        let joiner = net.next_id();
        let out = cp.on_join(&mut net, joiner, NodeConfig::new(center, 7.0));
        assert!(net.validate().is_ok());

        // Selection order (descending id): joiner, v7, v6, v3, v1.
        assert_eq!(net.assignment().get(joiner), Some(c(1)), "8 → 1");
        assert_eq!(net.assignment().get(v7), Some(c(2)), "7 re-picks 2");
        assert_eq!(net.assignment().get(v6), Some(c(4)), "6 → 4");
        assert_eq!(net.assignment().get(v3), Some(c(5)), "3 → 5");
        assert_eq!(net.assignment().get(v1), Some(c(6)), "1 → 6");
        assert_eq!(out.recodings(), 4, "the paper reports 4 CP recodings");
        assert_eq!(net.max_color_index(), 6, "both end at max color 6");

        // Minim on the identical instance: 3 recodings (Lemma 4.1.1:
        // classes {1,1} and {2,2} → 2, plus the joiner) and the same
        // final max color 6, as the figure reports.
        let mut net_m = Network::new(10.0);
        let w1 = net_m.join(NodeConfig::new(pos(0.0, 6.0), 7.0));
        let w2 = net_m.join(NodeConfig::new(pos(0.0, 13.0), 7.1));
        let w3 = net_m.join(NodeConfig::new(pos(90.0, 6.0), 7.0));
        let w4 = net_m.join(NodeConfig::new(pos(90.0, 13.0), 7.1));
        let w5 = net_m.join(NodeConfig::new(pos(180.0, 13.0), 7.1));
        let w6 = net_m.join(NodeConfig::new(pos(180.0, 6.0), 7.0));
        let w7 = net_m.join(NodeConfig::new(pos(270.0, 6.0), 7.0));
        let w7x = net_m.join(NodeConfig::new(pos(270.0, 13.0), 7.1));
        for (id, col) in [
            (w1, 2),
            (w2, 3),
            (w3, 1),
            (w4, 3),
            (w5, 3),
            (w6, 1),
            (w7, 2),
            (w7x, 3),
        ] {
            net_m.set_color(id, c(col));
        }
        let mut minim = Minim::default();
        let joiner_m = net_m.next_id();
        let out_m = minim.on_join(&mut net_m, joiner_m, NodeConfig::new(center, 7.0));
        assert!(net_m.validate().is_ok());
        assert_eq!(out_m.recodings(), 3, "the paper reports 3 Minim recodings");
        assert_eq!(net_m.max_color_index(), 6, "same final max color as CP");
    }

    #[test]
    fn minim_move_beats_cp_move_here() {
        // Same scenario as above: Minim keeps b's color 5 (weight-3
        // keep-edge) → zero recodings.
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 6.0));
        let b = net.join(NodeConfig::new(Point::new(5.0, 0.0), 6.0));
        net.set_color(a, c(1));
        net.set_color(b, c(5));
        let mut m = Minim::default();
        let out = m.on_move(&mut net, b, Point::new(4.0, 0.0));
        assert!(net.validate().is_ok());
        assert_eq!(out.recodings(), 0, "Minim keeps the old color");
        assert_eq!(net.assignment().get(b), Some(c(5)));
    }

    #[test]
    fn cp_power_increase_reselects_conflicters_and_initiator() {
        // Initiator shares a color with a node it newly reaches: CP
        // must resolve the conflict. Because reselecting nodes may
        // legally re-pick their old color (uncolored peers impose no
        // constraint), the *recoding count* here is 1 — b reselects
        // first (higher identity), re-picks its old color 1, and a is
        // forced off it — but the conflict is gone either way.
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 3.0));
        let b = net.join(NodeConfig::new(Point::new(8.0, 0.0), 3.0));
        net.set_color(a, c(1));
        net.set_color(b, c(1)); // legal: no edges yet
        assert!(net.validate().is_ok());
        let mut cp = Cp::default();
        let out = cp.on_set_range(&mut net, a, 9.0); // a now reaches b
        assert!(net.validate().is_ok());
        assert_eq!(out.recodings(), 1);
        assert_eq!(net.assignment().get(b), Some(c(1)), "b re-picked its color");
        assert_ne!(net.assignment().get(a), Some(c(1)), "a was forced off");
    }

    #[test]
    fn cp_power_increase_never_beats_minim_aggregate() {
        // Statistical version of Fig 11(c): over random networks and
        // power raises, CP's total recodings >= Minim's (which is
        // provably <= 1 per event).
        let mut cp_total = 0usize;
        let mut minim_total = 0usize;
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let join_events = JoinWorkload::paper(40).generate(&mut rng);
            // Build identical starting networks with Minim.
            let mut base = Network::new(25.0);
            let mut builder = Minim::default();
            for e in &join_events {
                builder.apply(&mut base, e);
            }
            let raises = PowerRaiseWorkload::paper(3.0).generate(&base, &mut rng);
            let mut net_cp = base.clone();
            let mut cp = Cp::default();
            for e in &raises {
                cp_total += cp.apply(&mut net_cp, e).1.recodings();
                assert!(net_cp.validate().is_ok());
            }
            let mut net_m = base.clone();
            let mut m = Minim::default();
            for e in &raises {
                minim_total += m.apply(&mut net_m, e).1.recodings();
            }
        }
        assert!(
            minim_total <= cp_total,
            "Minim ({minim_total}) must not exceed CP ({cp_total}) on power raises"
        );
    }

    #[test]
    fn cp_handles_power_increase_without_conflicts_passively() {
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 3.0));
        let b = net.join(NodeConfig::new(Point::new(8.0, 0.0), 3.0));
        net.set_color(a, c(1));
        net.set_color(b, c(2));
        let mut cp = Cp::default();
        let out = cp.on_set_range(&mut net, a, 9.0);
        assert_eq!(out.recodings(), 0, "no clash → no recode");
        assert!(net.validate().is_ok());
    }

    #[test]
    fn all_strategies_stay_valid_under_full_paper_workload() {
        for kind in StrategyKind::ALL {
            let mut strategy = kind.build();
            let mut rng = StdRng::seed_from_u64(77);
            let mut net = Network::new(25.0);
            for e in JoinWorkload::paper(40).generate(&mut rng) {
                strategy.apply(&mut net, &e);
            }
            for e in PowerRaiseWorkload::paper(2.0).generate(&net, &mut rng) {
                strategy.apply(&mut net, &e);
                assert!(net.validate().is_ok(), "{} power raise", strategy.name());
            }
            for _ in 0..2 {
                for e in MovementWorkload::paper(40.0, 1).generate_round(&net, &mut rng) {
                    strategy.apply(&mut net, &e);
                    assert!(net.validate().is_ok(), "{} move", strategy.name());
                }
            }
        }
    }

    #[test]
    fn cp_never_beats_minim_on_join_recodings_aggregate() {
        // Statistical version of the paper's Fig 10(c): over several
        // random join sequences, total CP recodings >= total Minim
        // recodings.
        let mut cp_total = 0usize;
        let mut minim_total = 0usize;
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let events = JoinWorkload::paper(40).generate(&mut rng);
            let mut cp = Cp::default();
            let mut net = Network::new(25.0);
            for e in &events {
                cp_total += cp.apply(&mut net, e).1.recodings();
            }
            let mut m = Minim::default();
            let mut net = Network::new(25.0);
            for e in &events {
                minim_total += m.apply(&mut net, e).1.recodings();
            }
        }
        assert!(
            minim_total <= cp_total,
            "Minim ({minim_total}) must not exceed CP ({cp_total})"
        );
    }

    #[test]
    fn exact_constraint_variant_is_valid_and_uses_fewer_colors() {
        let mut rng = StdRng::seed_from_u64(5);
        let events = JoinWorkload::paper(60).generate(&mut rng);
        let mut conservative = Cp::default();
        let mut net_a = Network::new(25.0);
        for e in &events {
            conservative.apply(&mut net_a, e);
        }
        let mut exact = Cp::with_exact_constraints();
        let mut net_b = Network::new(25.0);
        for e in &events {
            exact.apply(&mut net_b, e);
            assert!(net_b.validate().is_ok());
        }
        assert!(
            net_b.max_color_index() <= net_a.max_color_index(),
            "exact constraints can only reduce color usage: {} vs {}",
            net_b.max_color_index(),
            net_a.max_color_index()
        );
    }

    #[test]
    fn cp_join_after_random_churn_is_correct() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut cp = Cp::default();
        let mut net = Network::new(25.0);
        let arena = Rect::paper_arena();
        for _ in 0..150 {
            let roll: f64 = rng.gen();
            if net.node_count() < 5 || roll < 0.5 {
                let id = net.next_id();
                let cfg = NodeConfig::new(
                    sample::uniform_point(&mut rng, &arena),
                    sample::uniform_range(&mut rng, 15.0, 30.0),
                );
                cp.on_join(&mut net, id, cfg);
            } else if roll < 0.65 {
                let ids = net.node_ids();
                let v = ids[rng.gen_range(0..ids.len())];
                cp.on_leave(&mut net, v);
            } else if roll < 0.85 {
                let ids = net.node_ids();
                let v = ids[rng.gen_range(0..ids.len())];
                let to = sample::random_move(&mut rng, net.config(v).unwrap().pos, 30.0, &arena);
                cp.on_move(&mut net, v, to);
            } else {
                let ids = net.node_ids();
                let v = ids[rng.gen_range(0..ids.len())];
                let r = net.config(v).unwrap().range;
                cp.on_set_range(&mut net, v, r * rng.gen_range(0.6..1.8));
            }
            assert!(net.validate().is_ok());
        }
    }
}
