//! Delta/full equivalence — the correctness contract of the
//! delta-driven event path.
//!
//! Three families of properties over randomized workloads (the §5
//! join/move/power generators from `minim-net::workload`):
//!
//! 1. **Validation equivalence**: after every event,
//!    `conflict::validate_delta` seeded with
//!    `minim_core::validation_seeds` (the initiating node plus every
//!    recoded node) returns the same verdict as the full
//!    `conflict::validate` oracle.
//! 2. **Strategy equivalence**: the delta-driven strategies (which
//!    read partitions/recode sets off the `TopologyDelta`) produce
//!    **bit-identical** `RecodeOutcome`s and final assignments to
//!    *oracle* functions that re-derive everything from the full graph
//!    each event — the seed's original code path.
//! 3. **Redo equivalence**: running each event a second time through
//!    `run_event` with the writes the live run committed (what
//!    recovery does with a journal) reproduces the live run's outcome
//!    and state digest after every event, for Minim, CP and BBB.
//!
//! The strategy and redo properties also run over [`frontier_events`]:
//! adversarial churn with bimodal camps, joins into the gap between
//! them, long-haul moves, 0.3–3× range changes, and co-located joins
//! and ranges of 0 and 1e6. BBB, which has no oracle twin, also runs
//! the frontier streams under a full CA1/CA2 check after each event.
//!
//! Also pins the substrate-level facts the strategies rely on: a
//! delta's derived partitions/recode set equal the graph-derived ones
//! after every kind of event, and `Network::set_range` — which filters
//! the current out-edges instead of querying the index when the range
//! does not grow — yields the brute-force out-set and its exact delta.

use minim::core::{
    gather_recode_inputs, plan_recode, run_event, ColorPlan, Handled, RecodeOutcome,
    RecodingStrategy, StrategyKind, ValidationMode, Writes, KEEP_WEIGHT,
};
use minim::geom::segment::line_of_sight_blocked;
use minim::geom::{sample, Point, Rect, Segment};
use minim::graph::{conflict, hops, Color, NodeId};
use minim::net::event::{apply_topology, AppliedEvent, Event, PowerDirection};
use minim::net::workload::{ChurnWorkload, JoinWorkload, MovementWorkload, PowerRaiseWorkload};
use minim::net::{Network, NodeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `event` live: `strategy` decides, the one event path commits.
fn run_live(strategy: &dyn RecodingStrategy, net: &mut Network, event: &Event) -> Handled {
    run_event(
        net,
        event,
        None,
        Writes::Plan(strategy),
        ValidationMode::Off,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", strategy.name()))
}

/// Random mixed event sequence: joins to seed the network, then churn
/// (joins/leaves/moves/range changes) and a §5.2 power-raise sweep.
fn mixed_events(seed: u64, joins: usize, churn: usize) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = JoinWorkload::paper(joins).generate(&mut rng);
    // Simulate forward on a ghost network to generate state-dependent
    // events (moves/leaves need live node ids).
    let mut ghost = Network::new(25.0);
    let mut m = minim::core::Minim::default();
    for e in &events {
        m.apply(&mut ghost, e);
    }
    let churn_w = ChurnWorkload::paper(churn, 0.45);
    for _ in 0..churn {
        let e = churn_w.next_event(&ghost, &mut rng);
        m.apply(&mut ghost, &e);
        events.push(e);
    }
    let raises = PowerRaiseWorkload::paper(1.8).generate(&ghost, &mut rng);
    for e in raises {
        m.apply(&mut ghost, &e);
        events.push(e.clone());
    }
    let moves = MovementWorkload::paper(30.0, 1).generate_round(&ghost, &mut rng);
    events.extend(moves);
    events
}

/// Frontier-biased adversarial churn on a 900 × 300 strip: joins land
/// in two camps at the ends or straight into the gap between them,
/// moves travel up to 300 units (across the gap), and range changes
/// scale a node's range by 0.3–3×, so neighborhoods keep merging and
/// splitting. Edge values ride along: a few joins land exactly on an
/// existing node, and those joins and a few range changes take range
/// 0 or 1e6 (deaf-and-mute, or reaching the whole strip).
fn frontier_events(seed: u64, n_events: usize) -> Vec<Event> {
    let arena = Rect::new(0.0, 0.0, 900.0, 300.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ghost = Network::new(25.0);
    let mut events = Vec::with_capacity(n_events);
    let edge_range = |rng: &mut StdRng| if rng.gen_bool(0.5) { 0.0 } else { 1e6 };
    for _ in 0..n_events {
        let count = ghost.node_count();
        let roll: f64 = rng.gen();
        let e = if count > 0 && roll < 0.05 {
            let k = rng.gen_range(0..count);
            let host = ghost.iter_nodes().nth(k).expect("k < count");
            Event::Join {
                cfg: NodeConfig::new(
                    ghost.config(host).expect("present").pos,
                    edge_range(&mut rng),
                ),
            }
        } else if count == 0 || roll < 0.45 {
            let x = match rng.gen_range(0u32..3) {
                0 => rng.gen_range(0.0..250.0),
                1 => rng.gen_range(650.0..900.0),
                _ => rng.gen_range(350.0..550.0),
            };
            Event::Join {
                cfg: NodeConfig::new(
                    Point::new(x, rng.gen_range(0.0..300.0)),
                    rng.gen_range(5.0..40.0),
                ),
            }
        } else {
            let k = rng.gen_range(0..count);
            let node = ghost.iter_nodes().nth(k).expect("k < count");
            if roll < 0.6 {
                Event::Leave { node }
            } else if roll < 0.85 {
                let from = ghost.config(node).expect("present").pos;
                Event::Move {
                    node,
                    to: sample::random_move(&mut rng, from, 300.0, &arena),
                }
            } else if roll < 0.97 {
                let r = ghost.config(node).expect("present").range;
                let factor: f64 = rng.gen_range(0.3..3.0);
                Event::SetRange {
                    node,
                    range: (r * factor).clamp(1.0, 400.0),
                }
            } else {
                Event::SetRange {
                    node,
                    range: edge_range(&mut rng),
                }
            }
        };
        apply_topology(&mut ghost, &e);
        events.push(e);
    }
    events
}

/// Every stream the strategy properties run: the mixed §5 workloads
/// for `mixed_seeds`, then a frontier stream per seed in `0..16`.
fn streams(
    mixed_seeds: std::ops::Range<u64>,
    joins: usize,
    churn: usize,
) -> Vec<(String, Vec<Event>)> {
    let mixed = mixed_seeds.map(|seed| {
        (
            format!("mixed seed {seed}"),
            mixed_events(seed, joins, churn),
        )
    });
    let frontier = (0..16).map(|seed| (format!("frontier seed {seed}"), frontier_events(seed, 60)));
    mixed.chain(frontier).collect()
}

/// After every event of a Minim-driven run, the local and full
/// validators must agree (both Ok — and if we sabotage a color, both
/// Err).
#[test]
fn validate_delta_matches_full_validate_across_workloads() {
    for seed in 0..6 {
        let events = mixed_events(seed, 25, 30);
        let mut net = Network::new(25.0);
        for e in &events {
            let done = run_live(&minim::core::Minim::default(), &mut net, e);
            let seeds = minim::core::validation_seeds(net.delta(), &done.outcome);
            let local = conflict::validate_delta(net.graph(), net.assignment(), &seeds);
            let full = net.validate();
            assert_eq!(
                local.is_ok(),
                full.is_ok(),
                "seed {seed}, event {e:?}: local {local:?} vs full {full:?}"
            );
            assert!(full.is_ok(), "Minim must keep the network valid");
        }
    }
}

/// Sabotaged assignments are caught by the local validator exactly
/// when the damage touches the seeded neighborhood.
#[test]
fn validate_delta_flags_injected_conflicts() {
    let mut rng = StdRng::seed_from_u64(42);
    for seed in 0..6 {
        let events = mixed_events(seed, 20, 10);
        let mut net = Network::new(25.0);
        let mut strategy = minim::core::Minim::default();
        for e in &events {
            strategy.apply(&mut net, e);
        }
        // Corrupt a random node's color to a conflicting partner's
        // color, then check the local validator (seeded with the
        // corrupted node) agrees with the full one.
        let ids = net.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        let partners = conflict::conflicts_of(net.graph(), victim);
        if let Some(&p) = partners.first() {
            let stolen = net.assignment().get(p).unwrap();
            net.set_color(victim, stolen);
            let local = conflict::validate_delta(net.graph(), net.assignment(), &[victim]);
            assert!(local.is_err(), "seed {seed}: stolen color must be flagged");
            assert_eq!(local.is_ok(), net.validate().is_ok(), "seed {seed}");
        }
    }
}

/// Delta-derived partitions and recode sets equal the graph-derived
/// ones after joins, moves, and range changes.
#[test]
fn delta_neighborhoods_match_graph_rederivation() {
    for seed in 10..16 {
        let events = mixed_events(seed, 20, 25);
        let mut net = Network::new(25.0);
        for e in &events {
            run_live(&minim::core::Minim::default(), &mut net, e);
            let d = net.delta();
            let n = d.node();
            if !net.contains(n) {
                continue; // leave: nothing to compare
            }
            assert_eq!(d.out_after, net.graph().out_neighbors(n), "event {e:?}");
            assert_eq!(d.in_after, net.graph().in_neighbors(n), "event {e:?}");
            assert_eq!(d.partitions(), net.partitions(n), "event {e:?}");
            assert_eq!(d.recode_set(), net.recode_set(n), "event {e:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Oracle strategies: the seed's full-rederivation code paths,
// reconstructed from the paper's figures on top of the public API.
// Each runs one whole event on the network and never looks at a
// TopologyDelta.
// ---------------------------------------------------------------------

/// `RecodeOnJoin`/`RecodeOnMove`/`RecodeOnPowIncrease` re-deriving the
/// recode set and constraints from the full graph every event.
fn oracle_minim(net: &mut Network, event: &Event) -> RecodeOutcome {
    let before = net.snapshot_assignment();
    match apply_topology(net, event) {
        AppliedEvent::Joined(n) | AppliedEvent::Moved(n) => oracle_minim_matching(net, n),
        AppliedEvent::RangeChanged(id, PowerDirection::Increase) => {
            // The seed's logic: full constraint re-derivation, recode
            // iff the current color clashes anywhere.
            let constraints = conflict::constraint_colors(net.graph(), net.assignment(), id);
            let clash = match net.assignment().get(id) {
                Some(c) => constraints.contains(&c),
                None => true,
            };
            if clash {
                let c = Color::lowest_excluding(constraints);
                net.assignment_mut().set(id, c);
            }
        }
        AppliedEvent::Left(_) | AppliedEvent::RangeChanged(..) => {}
    }
    RecodeOutcome::from_diff(net, &before)
}

/// Minim's matching recode of `n`'s recode set, derived from the graph.
fn oracle_minim_matching(net: &mut Network, n: NodeId) {
    let set = net.recode_set(n); // graph re-derivation
    let mut set_colors: Vec<Color> = set
        .iter()
        .filter_map(|&u| net.assignment().get(u))
        .collect();
    set_colors.sort_unstable();
    let distinct = set_colors.windows(2).all(|w| w[0] != w[1]);
    if distinct {
        let n_constraints = conflict::constraint_colors(net.graph(), net.assignment(), n);
        match net.assignment().get(n) {
            Some(c) => {
                if !n_constraints.contains(&c) {
                    return;
                }
            }
            None => {
                let c = Color::lowest_excluding(n_constraints);
                net.assignment_mut().set(n, c);
                return;
            }
        }
    }
    let (old, forbidden) = gather_recode_inputs(net, &set);
    let plan = plan_recode(&old, &forbidden, KEEP_WEIGHT);
    for (i, &u) in set.iter().enumerate() {
        net.assignment_mut().set(u, plan[i]);
    }
}

/// The CP baseline re-deriving duplicated in-neighbors and new
/// conflict partners from the full graph every event.
fn oracle_cp(net: &mut Network, event: &Event) -> RecodeOutcome {
    let before = net.snapshot_assignment();
    match *event {
        Event::Join { .. } => {
            let id = apply_topology(net, event).node();
            oracle_cp_join(net, id);
        }
        Event::Leave { .. } => {
            apply_topology(net, event);
        }
        Event::Move { node, .. } => {
            // Leave + join: the mover forgets its color first.
            net.assignment_mut().unset(node);
            apply_topology(net, event);
            oracle_cp_join(net, node);
        }
        Event::SetRange { node, range } => {
            let increase = range > net.config(node).expect("node exists").range;
            let partners_before = conflict::conflicts_of(net.graph(), node);
            apply_topology(net, event);
            if increase {
                // Full re-derivation of the post-event conflict set.
                let partners_after = conflict::conflicts_of(net.graph(), node);
                let my_color = net.assignment().get(node);
                let mut to_recolor: Vec<NodeId> = partners_after
                    .into_iter()
                    .filter(|p| partners_before.binary_search(p).is_err())
                    .filter(|&p| net.assignment().get(p) == my_color)
                    .collect();
                if !to_recolor.is_empty() || my_color.is_none() {
                    to_recolor.push(node);
                    oracle_cp_reselect(net, to_recolor);
                }
            }
        }
    }
    RecodeOutcome::from_diff(net, &before)
}

fn oracle_cp_reselect(net: &mut Network, mut to_recolor: Vec<NodeId>) {
    to_recolor.sort_unstable();
    to_recolor.dedup();
    for &u in &to_recolor {
        net.assignment_mut().unset(u);
    }
    to_recolor.sort_unstable_by(|a, b| b.cmp(a));
    for &u in &to_recolor {
        let avoid: Vec<Color> = hops::within_hops(net.graph(), u, 2)
            .into_iter()
            .filter_map(|(v, _)| net.assignment().get(v))
            .collect();
        let c = Color::lowest_excluding(avoid);
        net.assignment_mut().set(u, c);
    }
}

fn oracle_cp_join(net: &mut Network, id: NodeId) {
    let in_union = net.partitions(id).in_union(); // graph re-derivation
    let mut by_color: std::collections::HashMap<Color, Vec<NodeId>> = Default::default();
    for &u in &in_union {
        if let Some(c) = net.assignment().get(u) {
            by_color.entry(c).or_default().push(u);
        }
    }
    let mut dup: Vec<NodeId> = by_color
        .into_values()
        .filter(|v| v.len() >= 2)
        .flatten()
        .collect();
    dup.push(id);
    oracle_cp_reselect(net, dup);
}

/// Runs each event through `run`, collecting every outcome.
fn run_collect(
    mut run: impl FnMut(&mut Network, &Event) -> RecodeOutcome,
    events: &[Event],
) -> (Network, Vec<RecodeOutcome>) {
    let mut net = Network::new(25.0);
    let outcomes = events.iter().map(|e| run(&mut net, e)).collect();
    (net, outcomes)
}

/// Runs one strategy over an event list, collecting every outcome.
fn run_strategy(
    strategy: &dyn RecodingStrategy,
    events: &[Event],
) -> (Network, Vec<RecodeOutcome>) {
    run_collect(|net, e| run_live(strategy, net, e).outcome, events)
}

/// The tentpole acceptance property: the delta-driven Minim is
/// bit-identical — per-event outcomes and final assignment — to the
/// full-rederivation oracle, across randomized mixed workloads.
#[test]
fn minim_delta_path_bit_identical_to_full_rederivation_oracle() {
    for (label, events) in streams(0..8, 30, 40) {
        let (net_d, out_d) = run_strategy(&minim::core::Minim::default(), &events);
        let (net_o, out_o) = run_collect(oracle_minim, &events);
        assert_eq!(out_d.len(), out_o.len());
        for (i, (d, o)) in out_d.iter().zip(&out_o).enumerate() {
            assert_eq!(d, o, "{label}: outcome diverged at event {i}");
        }
        assert_eq!(
            net_d.snapshot_assignment(),
            net_o.snapshot_assignment(),
            "{label}: final assignments diverged"
        );
        assert!(net_d.validate().is_ok());
    }
}

/// Same property for the CP baseline.
#[test]
fn cp_delta_path_bit_identical_to_full_rederivation_oracle() {
    for (label, events) in streams(20..26, 25, 30) {
        let (net_d, out_d) = run_strategy(&minim::core::Cp::default(), &events);
        let (net_o, out_o) = run_collect(oracle_cp, &events);
        for (i, (d, o)) in out_d.iter().zip(&out_o).enumerate() {
            assert_eq!(d, o, "{label}: CP outcome diverged at event {i}");
        }
        assert_eq!(
            net_d.snapshot_assignment(),
            net_o.snapshot_assignment(),
            "{label}: CP final assignments diverged"
        );
        assert!(net_d.validate().is_ok());
    }
}

/// BBB has no full-rederivation twin: it already recolors the whole
/// network per event. Pin that every frontier stream keeps it valid
/// under a full CA1/CA2 check after each event.
#[test]
fn bbb_stays_valid_on_frontier_streams_under_full_validation() {
    let bbb = StrategyKind::Bbb.build();
    for seed in 0..16 {
        let mut net = Network::new(25.0);
        let mut edge_churn = 0;
        for (i, e) in frontier_events(seed, 60).iter().enumerate() {
            run_live(&*bbb, &mut net, e);
            edge_churn += net.delta().edge_churn();
            if let Err(v) = net.validate() {
                panic!("frontier seed {seed}, event {i} ({e:?}): {v}");
            }
        }
        assert!(
            edge_churn > 0,
            "frontier seed {seed}: the stream must wire edges"
        );
    }
}

/// Recovery's path: each event, redone on a second network with the
/// writes the live run committed (what a journal record carries),
/// yields the live run's topology step, delta and outcome, and leaves
/// the same state digest — for every strategy, BBB's whole-network
/// writes included.
#[test]
fn redoing_recorded_writes_reproduces_the_live_run() {
    for kind in StrategyKind::ALL {
        let strategy = kind.build();
        for (label, events) in streams(0..8, 30, 40) {
            let mut live = Network::new(25.0);
            let mut redo = Network::new(25.0);
            for (i, e) in events.iter().enumerate() {
                let done = run_live(&*strategy, &mut live, e);
                let writes: ColorPlan = done
                    .outcome
                    .recoded
                    .iter()
                    .map(|&(node, _, color)| (node, color))
                    .collect();
                let redone = run_event(
                    &mut redo,
                    e,
                    None,
                    Writes::recorded(&writes),
                    ValidationMode::Delta,
                )
                .unwrap_or_else(|err| panic!("{kind:?} {label}, event {i}: {err}"));
                assert_eq!(redone, done, "{kind:?} {label}: event {i} diverged");
                assert_eq!(
                    redo.delta(),
                    live.delta(),
                    "{kind:?} {label}: delta diverged at event {i}"
                );
                assert_eq!(
                    redo.state_digest(),
                    live.state_digest(),
                    "{kind:?} {label}: state diverged at event {i}"
                );
            }
        }
    }
}

/// A point at a distance drawn from `(r, √clear2)` around `at`: beyond
/// a node's range, inside its clear disc.
fn in_clear_disc(rng: &mut StdRng, at: Point, r: f64, clear2: f64) -> Point {
    let d = r + (clear2.sqrt() - r) * rng.gen_range(0.05..0.95);
    at.displaced(rng.gen_range(0.0..std::f64::consts::TAU), d)
}

proptest! {
    /// `set_range` on random networks, with and without walls: shrinks
    /// (down to 0), equal ranges, grows below the clear bound and grows
    /// past it. Between range steps, joins and moves land in `u`'s
    /// clear disc beyond its range, and now and then `u` moves to a
    /// 1/16 lattice point and a node joins at a 3-4-5 offset exactly
    /// at its bound, then `u` grows to exactly that distance (an edge,
    /// unless a wall blocks it). After each call the delta and `u`'s
    /// out-edges must match a brute-force out-set (every other node
    /// with `dist2 <= r²` and an unblocked sight line): added and
    /// removed exactly the set difference, ascending, nothing added
    /// unless the range grew, in-edges untouched; and every clear bound
    /// must hold (`check_topology`).
    #[test]
    fn set_range_matches_brute_force_out_sets(
        seed in 0u64..1_000,
        n in 6usize..30,
        walls_roll in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arena = Rect::new(0.0, 0.0, 120.0, 120.0);
        let mut net = Network::new(25.0);
        if walls_roll == 1 {
            for _ in 0..3 {
                let x = rng.gen_range(20.0..100.0);
                let y = rng.gen_range(0.0..60.0);
                net.add_obstacle(Segment::new(
                    Point::new(x, y),
                    Point::new(x + rng.gen_range(-20.0..20.0), y + 60.0),
                ));
            }
        }
        for _ in 0..n {
            net.join(NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                rng.gen_range(5.0..60.0),
            ));
        }
        // A co-located pair keeps an edge at range 0 (`dist2 == 0`).
        let host = net.iter_nodes().next().expect("n >= 6");
        let at = net.config(host).expect("present").pos;
        net.join(NodeConfig::new(at, 10.0));
        for step in 0..40 {
            let k = rng.gen_range(0..net.node_count());
            let u = net.iter_nodes().nth(k).expect("k < count");
            let old = net.config(u).expect("present").range;
            let mut exact = None;
            match rng.gen_range(0u32..5) {
                0 | 1 => {
                    let cu = net.config(u).expect("present");
                    let clear2 = net.clear_bound(u).expect("present");
                    let p = in_clear_disc(&mut rng, cu.pos, old, clear2);
                    let other = net.iter_nodes().nth(rng.gen_range(0..net.node_count()));
                    match other {
                        Some(v) if v != u && rng.gen_range(0u32..2) == 0 => net.move_node(v, p),
                        _ => {
                            net.join(NodeConfig::new(p, rng.gen_range(5.0..60.0)));
                        }
                    }
                }
                2 => {
                    let cu = net.config(u).expect("present");
                    let snap = |v: f64| (v * 16.0).round() / 16.0;
                    let lattice = Point::new(snap(cu.pos.x), snap(cu.pos.y));
                    net.move_node(u, lattice);
                    let s = (old / 5.0 * 16.0).floor() / 16.0 + 1.0 / 16.0;
                    let w = lattice.translated(3.0 * s, 4.0 * s);
                    let d2 = w.dist2(&lattice);
                    prop_assert_eq!(d2, (5.0 * s) * (5.0 * s));
                    let inside = d2 < net.clear_bound(u).expect("present");
                    net.join(NodeConfig::new(w, 1.0));
                    if inside {
                        prop_assert_eq!(net.clear_bound(u), Some(d2), "the join sits at the bound");
                    }
                    exact = Some(5.0 * s);
                }
                _ => {}
            }
            net.check_topology();
            let clear2 = net.clear_bound(u).expect("present");
            let range = match (exact, rng.gen_range(0u32..6)) {
                (Some(r), _) => r,
                (None, 0) => old,
                (None, 1) => 0.0,
                (None, 2) => old * 1.5 + 1.0,
                (None, 3) => old + (clear2.sqrt() - old) * rng.gen_range(0.0..1.0),
                _ => old * rng.gen_range(0.0..1.0),
            };
            let out_before = net.graph().out_neighbors(u).to_vec();
            let in_before = net.graph().in_neighbors(u).to_vec();
            net.set_range(u, range);
            let delta = net.delta();
            let pos = net.config(u).expect("present").pos;
            let expect: Vec<NodeId> = net
                .iter_nodes()
                .filter(|&v| {
                    let pv = net.config(v).expect("present").pos;
                    v != u
                        && pv.dist2(&pos) <= range * range
                        && !line_of_sight_blocked(net.obstacles(), &pos, &pv)
                })
                .collect();
            let added: Vec<(NodeId, NodeId)> = expect
                .iter()
                .filter(|v| !out_before.contains(v))
                .map(|&v| (u, v))
                .collect();
            let removed: Vec<(NodeId, NodeId)> = out_before
                .iter()
                .filter(|v| !expect.contains(v))
                .map(|&v| (u, v))
                .collect();
            let ctx = format!("step {step}: {u} range {old} -> {range} (seed {seed})");
            prop_assert_eq!(&delta.added, &added, "added, {}", ctx);
            prop_assert_eq!(&delta.removed, &removed, "removed, {}", ctx);
            prop_assert_eq!(&delta.out_after, &expect, "out_after, {}", ctx);
            prop_assert_eq!(&delta.in_after, &in_before, "in_after, {}", ctx);
            prop_assert_eq!(net.graph().out_neighbors(u), &expect[..], "graph, {}", ctx);
            prop_assert!(range > old || delta.added.is_empty(), "a shrink added edges, {}", ctx);
            net.check_topology();
        }
    }
}
