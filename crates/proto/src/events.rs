//! Distributed realizations of the remaining event types: move and
//! power change.
//!
//! * **Move** — the paper (§4.4) builds `RecodeOnMove` from the same
//!   machinery as the join; the distributed version is a departure
//!   announcement at the old position (its ex-neighbors simply drop
//!   their cache entries — `RecodeDecreasePowOrLeave` is passive),
//!   followed by the join-style gather → match-at-the-mover → recolor
//!   flow at the new position, with the mover's old color kept in the
//!   instance (Fig 8 step 4 weighs it like everyone else's).
//! * **Power increase** — §4.2: all new constraints involve the
//!   initiator, so the protocol is a pure gather: the initiator
//!   queries its (new) out-neighbors, learns their colors and their
//!   in-neighbor colors, decides locally, and announces its new color
//!   if it had to change. No other node is ever recoded.
//! * **Power decrease / leave** — passive: one departure/shrink
//!   announcement so neighbors refresh their caches; zero recodings
//!   (§4.3).
//!
//! All functions return the same assignments as the centralized
//! [`minim_core::Minim`] handlers (asserted by the tests) plus the
//! message/round bill.

use crate::engine::{Engine, Payload, ProtocolMetrics};
use crate::join::minim_gather_match_recolor;
use minim_core::RecodeOutcome;
use minim_geom::Point;
use minim_graph::{Color, NodeId};
use minim_net::Network;

/// Distributed `RecodeOnMove`: departure announcement, topology move,
/// then the join engine with the old color remembered.
pub fn distributed_minim_move(
    net: &mut Network,
    id: NodeId,
    to: Point,
) -> (RecodeOutcome, ProtocolMetrics) {
    let before = net.snapshot_assignment();
    let mut eng = Engine::new();

    net.move_node(id, to);
    // The join flow commits to `net` while it reads the delta.
    let delta = net.delta().clone();

    // Departure announcement to the old neighborhood (they update
    // their caches; nobody recodes — §4.3). The pre-move adjacency
    // is reconstructed from the delta.
    let old_neighbors = delta.undirected_before();
    for &u in &old_neighbors {
        eng.send_to(id, u, Payload::Leaving);
    }
    eng.tick();
    for &u in &old_neighbors {
        let _ = eng.drain(u);
    }

    let outcome = minim_gather_match_recolor(net, &delta, &mut eng, &before);
    debug_assert!(net.validate().is_ok(), "distributed move invalid");
    (outcome, eng.metrics())
}

/// Distributed `RecodeOnPowIncrease` (also handles decreases, which
/// are passive beyond a cache-refresh announcement).
pub fn distributed_minim_set_range(
    net: &mut Network,
    id: NodeId,
    range: f64,
) -> (RecodeOutcome, ProtocolMetrics) {
    let before = net.snapshot_assignment();
    let old_range = net.config(id).expect("node must exist").range;
    let mut eng = Engine::new();
    net.set_range(id, range);
    // The increase path recolors `id` before its last read.
    let delta = net.delta().clone();

    if range <= old_range {
        // Decrease: announce so ex-receivers drop the link from their
        // caches; provably nothing to recode (§4.3). The announcement
        // must reach the *pre-decrease* neighborhood — exactly the
        // nodes whose cached link just went stale.
        let neighbors = delta.undirected_before();
        for &u in &neighbors {
            eng.send_to(id, u, Payload::RangeChanged);
        }
        eng.tick();
        for &u in &neighbors {
            let _ = eng.drain(u);
        }
        debug_assert!(net.validate().is_ok());
        return (RecodeOutcome::from_diff(net, &before), eng.metrics());
    }

    // Increase. Round 1: query every node now in transmission range
    // (they hear the announcement directly) — the delta's resulting
    // out-list, no graph read.
    let out_neighbors: Vec<NodeId> = delta.out_after.clone();
    for &u in &out_neighbors {
        eng.send_to(id, u, Payload::JoinQuery);
    }
    eng.tick();

    // Round 2: each replies with its color and its in-neighbor colors
    // (from which the initiator derives its CA2 constraints).
    for &u in &out_neighbors {
        let _ = eng.drain(u);
        let in_neighbors: Vec<(NodeId, Color)> = net
            .graph()
            .in_neighbors(u)
            .iter()
            .filter_map(|&w| net.assignment().get(w).map(|c| (w, c)))
            .collect();
        eng.send_to(
            u,
            id,
            Payload::ConstraintReport {
                color: net.assignment().get(u),
                constraints: Vec::new(),
                in_neighbors,
            },
        );
    }
    eng.tick();

    // Round 3: local decision at the initiator, from messages alone.
    let mut forbidden: Vec<Color> = Vec::new();
    for m in eng.drain(id) {
        if let Payload::ConstraintReport {
            color,
            in_neighbors,
            ..
        } = m.payload
        {
            if let Some(c) = color {
                forbidden.push(c); // CA1 with the receiver
            }
            for (w, c) in in_neighbors {
                if w != id {
                    forbidden.push(c); // CA2 at the shared receiver
                }
            }
        }
    }
    // CA1 with the initiator's own in-neighbors (standing cache).
    for &w in &delta.in_after {
        if let Some(c) = net.assignment().get(w) {
            forbidden.push(c);
        }
    }
    forbidden.sort_unstable();
    forbidden.dedup();

    let current = net.assignment().get(id);
    let clash = match current {
        Some(c) => forbidden.contains(&c),
        None => true,
    };
    if clash {
        let c = Color::lowest_excluding(forbidden);
        net.assignment_mut().set(id, c);
        // Round 4: announce the new color to the whole neighborhood.
        let neighbors = delta.undirected_after();
        for &u in &neighbors {
            eng.send_to(id, u, Payload::ColorUpdate(c));
        }
        eng.tick();
        for &u in &neighbors {
            let _ = eng.drain(u);
        }
    }

    debug_assert!(net.validate().is_ok(), "distributed power change invalid");
    (RecodeOutcome::from_diff(net, &before), eng.metrics())
}

/// Distributed leave: a departure announcement; provably no recoding.
pub fn distributed_minim_leave(net: &mut Network, id: NodeId) -> (RecodeOutcome, ProtocolMetrics) {
    let before = net.snapshot_assignment();
    let mut eng = Engine::new();
    net.remove_node(id);
    // The delta's severed edges name exactly the ex-neighbors who must
    // hear the goodbye.
    let neighbors = net.delta().undirected_before();
    for &u in &neighbors {
        eng.send_to(id, u, Payload::Leaving);
    }
    eng.tick();
    for &u in &neighbors {
        let _ = eng.drain(u);
    }
    debug_assert!(net.validate().is_ok());
    (RecodeOutcome::from_diff(net, &before), eng.metrics())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_core::{Minim, RecodingStrategy};
    use minim_geom::{sample, Rect};
    use minim_net::workload::JoinWorkload;
    use minim_net::NodeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn base_net(count: usize, seed: u64) -> (Network, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        for e in JoinWorkload::paper(count).generate(&mut rng) {
            m.apply(&mut net, &e);
        }
        (net, rng)
    }

    #[test]
    fn distributed_move_matches_centralized() {
        for seed in 0..12 {
            let (net0, mut rng) = base_net(30, seed);
            let ids = net0.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let to = sample::random_move(
                &mut rng,
                net0.config(victim).unwrap().pos,
                40.0,
                &Rect::paper_arena(),
            );

            let mut net_d = net0.clone();
            let (out_d, metrics) = distributed_minim_move(&mut net_d, victim, to);
            assert!(net_d.validate().is_ok());
            assert!(metrics.rounds >= 5, "departure + join flow");

            let mut net_c = net0.clone();
            let mut m = Minim::default();
            let out_c = m.on_move(&mut net_c, victim, to);
            assert_eq!(
                net_d.snapshot_assignment(),
                net_c.snapshot_assignment(),
                "seed {seed}"
            );
            assert_eq!(out_d.recoded, out_c.recoded);
        }
    }

    #[test]
    fn distributed_power_increase_matches_centralized() {
        for seed in 20..32 {
            let (net0, mut rng) = base_net(30, seed);
            let ids = net0.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let factor = rng.gen_range(1.2..3.0);
            let new_range = net0.config(victim).unwrap().range * factor;

            let mut net_d = net0.clone();
            let (out_d, _) = distributed_minim_set_range(&mut net_d, victim, new_range);
            assert!(net_d.validate().is_ok());
            assert!(out_d.recodings() <= 1, "at most the initiator");

            let mut net_c = net0.clone();
            let mut m = Minim::default();
            let out_c = m.on_set_range(&mut net_c, victim, new_range);
            assert_eq!(
                net_d.snapshot_assignment(),
                net_c.snapshot_assignment(),
                "seed {seed}"
            );
            assert_eq!(out_d.recoded, out_c.recoded);
        }
    }

    #[test]
    fn distributed_power_decrease_is_passive() {
        let (net0, mut rng) = base_net(20, 50);
        let ids = net0.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        let mut net = net0.clone();
        let old = net.config(victim).unwrap().range;
        let (out, metrics) = distributed_minim_set_range(&mut net, victim, old * 0.5);
        assert_eq!(out.recodings(), 0);
        assert_eq!(metrics.rounds, 1, "one cache-refresh round");
        assert!(net.validate().is_ok());
    }

    #[test]
    fn distributed_leave_is_passive_and_local() {
        let (net0, _) = base_net(20, 51);
        let victim = net0.node_ids()[5];
        let degree = net0.graph().undirected_degree(victim);
        let mut net = net0.clone();
        let (out, metrics) = distributed_minim_leave(&mut net, victim);
        assert_eq!(out.recodings(), 0);
        assert_eq!(metrics.messages, degree, "one goodbye per neighbor");
        assert!(!net.contains(victim));
        assert!(net.validate().is_ok());
    }

    /// Full distributed lifecycle: a network driven exclusively through
    /// the message-passing protocols stays valid and tracks the
    /// centralized execution event for event.
    #[test]
    fn fully_distributed_lifecycle_tracks_centralized() {
        let mut rng = StdRng::seed_from_u64(60);
        let mut net_d = Network::new(25.0);
        let mut net_c = Network::new(25.0);
        let mut m = Minim::default();
        let arena = Rect::paper_arena();
        for step in 0..120 {
            let roll: f64 = rng.gen();
            if net_d.node_count() < 5 || roll < 0.4 {
                let cfg = NodeConfig::new(
                    sample::uniform_point(&mut rng, &arena),
                    sample::uniform_range(&mut rng, 15.0, 30.0),
                );
                let id_d = net_d.next_id();
                crate::join::distributed_minim_join(&mut net_d, id_d, cfg);
                let id_c = net_c.next_id();
                m.on_join(&mut net_c, id_c, cfg);
            } else {
                let ids = net_d.node_ids();
                let victim = ids[rng.gen_range(0..ids.len())];
                if roll < 0.55 {
                    distributed_minim_leave(&mut net_d, victim);
                    m.on_leave(&mut net_c, victim);
                } else if roll < 0.8 {
                    let to = sample::random_move(
                        &mut rng,
                        net_d.config(victim).unwrap().pos,
                        30.0,
                        &arena,
                    );
                    distributed_minim_move(&mut net_d, victim, to);
                    m.on_move(&mut net_c, victim, to);
                } else {
                    let r = net_d.config(victim).unwrap().range * rng.gen_range(0.6..2.0);
                    distributed_minim_set_range(&mut net_d, victim, r);
                    m.on_set_range(&mut net_c, victim, r);
                }
            }
            assert_eq!(
                net_d.snapshot_assignment(),
                net_c.snapshot_assignment(),
                "divergence at step {step}"
            );
            assert!(net_d.validate().is_ok());
        }
    }
}
