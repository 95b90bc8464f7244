//! Integration tests for the extension subsystems: obstacles (§2's
//! non-free-space generalization), mobility models, trace replay, the
//! hybrid gossip strategy, and the packet-level radio cost model —
//! each driven end-to-end through the recoding strategies.

use minim::core::gossip::GossipCompactor;
use minim::core::{
    run_event, Minim, RecodingStrategy, StrategyKind, StrategyStats, ValidationMode, Writes,
};
use minim::geom::{Point, Rect, Segment};
use minim::net::event::{apply_topology, Event};
use minim::net::mobility::{GroupMobility, RandomWaypoint};
use minim::net::trace::Trace;
use minim::net::workload::{ChurnWorkload, JoinWorkload};
use minim::net::{Network, NodeConfig};
use minim::radio::{run_scenario, spread_events, RadioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two rooms separated by a wall with a doorway-less corridor: joins on
/// both sides reuse codes freely, and a mobile crossing the wall gets
/// recoded exactly when its constraint set actually changes.
#[test]
fn obstacles_partition_the_code_space() {
    let mut net = Network::new(15.0);
    // Wall at x = 50 spanning most of the arena.
    net.add_obstacle(Segment::new(Point::new(50.0, 0.0), Point::new(50.0, 100.0)));
    let mut minim = Minim::default();

    // Five nodes per room, tightly packed — in free space they would
    // all conflict; with the wall the two rooms are independent.
    for side in [10.0, 90.0] {
        for k in 0..5 {
            let id = net.next_id();
            minim.on_join(
                &mut net,
                id,
                NodeConfig::new(Point::new(side + k as f64, 40.0 + k as f64), 30.0),
            );
        }
    }
    assert!(net.validate().is_ok());
    // Each room needs 5 codes; the wall lets both rooms use 1..=5.
    assert_eq!(net.max_color_index(), 5, "rooms reuse the same codes");

    // A mobile wandering within its room keeps its code…
    let wanderer = net.node_ids()[0];
    let out = minim.on_move(&mut net, wanderer, Point::new(20.0, 45.0));
    assert!(net.validate().is_ok());
    assert_eq!(out.recodings(), 0, "same room, same constraints");

    // …but crossing into the other room collides with its double and
    // must be recoded.
    let out = minim.on_move(&mut net, wanderer, Point::new(85.0, 45.0));
    assert!(net.validate().is_ok());
    assert!(out.recodings() >= 1, "new room, new constraints");
    assert!(
        net.max_color_index() >= 6,
        "the crowded room now needs a 6th code"
    );
}

/// All strategies behave correctly in an obstacle-rich arena.
#[test]
fn strategies_work_with_obstacles() {
    for kind in StrategyKind::ALL {
        let mut net = Network::new(20.0);
        net.add_obstacle(Segment::new(Point::new(30.0, 0.0), Point::new(30.0, 70.0)));
        net.add_obstacle(Segment::new(
            Point::new(70.0, 30.0),
            Point::new(70.0, 100.0),
        ));
        let mut strategy = kind.build();
        let mut rng = StdRng::seed_from_u64(7);
        for e in JoinWorkload::paper(40).generate(&mut rng) {
            strategy.apply(&mut net, &e);
            assert!(net.validate().is_ok(), "{}", strategy.name());
        }
        net.check_topology();
    }
}

/// Random-waypoint mobility drives every strategy through hundreds of
/// correlated moves without ever breaking CA1/CA2.
#[test]
fn waypoint_mobility_with_all_strategies() {
    for kind in StrategyKind::ALL {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::new(25.0);
        let mut strategy = kind.build();
        for e in JoinWorkload::paper(25).generate(&mut rng) {
            strategy.apply(&mut net, &e);
        }
        let mut model = RandomWaypoint::new(Rect::paper_arena(), 1.0, 5.0);
        for _ in 0..10 {
            for e in model.tick(&net, 2.0, &mut rng) {
                strategy.apply(&mut net, &e);
                assert!(net.validate().is_ok(), "{}", strategy.name());
            }
        }
    }
}

/// Group mobility keeps squads coherent while the strategies keep the
/// codes coherent.
#[test]
fn group_mobility_with_minim() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut net = Network::new(20.0);
    let mut minim = Minim::default();
    let mut squads = Vec::new();
    for (gx, gy) in [(20.0, 30.0), (70.0, 60.0), (40.0, 80.0)] {
        let mut squad = Vec::new();
        for k in 0..4 {
            let id = net.next_id();
            minim.on_join(
                &mut net,
                id,
                NodeConfig::new(
                    Point::new(gx + (k % 2) as f64 * 4.0, gy + (k / 2) as f64 * 4.0),
                    14.0,
                ),
            );
            squad.push(id);
        }
        squads.push(squad);
    }
    let mut model = GroupMobility::new(&net, Rect::paper_arena(), &squads, 3.0, 0.8, &mut rng);
    let mut total_recodings = 0;
    for _ in 0..40 {
        for e in model.tick(&net, 1.0, &mut rng) {
            let (_, out) = minim.apply(&mut net, &e);
            total_recodings += out.recodings();
            assert!(net.validate().is_ok());
        }
    }
    // Correlated small moves rarely change constraint sets: the bill
    // must be far below one recoding per move event (480 moves).
    assert!(
        total_recodings < 240,
        "group mobility recodings unexpectedly high: {total_recodings}"
    );
}

/// A recorded trace replays identically through the same strategy, and
/// validly through every other strategy.
#[test]
fn trace_replay_is_faithful_across_strategies() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut trace = Trace::new();
    // Record: churn + movement on a ghost (topology only).
    let mut ghost = Network::new(25.0);
    for e in JoinWorkload::paper(20).generate(&mut rng) {
        apply_topology(&mut ghost, &e);
        trace.push(e);
    }
    let churn = ChurnWorkload::paper(60, 0.5);
    for _ in 0..churn.steps {
        let e = churn.next_event(&ghost, &mut rng);
        apply_topology(&mut ghost, &e);
        trace.push(e);
    }
    let text = trace.to_text();
    let replayed = Trace::from_text(&text).expect("parse");
    assert_eq!(replayed, trace);

    // Identical strategy + identical trace ⇒ identical assignment.
    let run = |events: &[Event]| {
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        for e in events {
            m.apply(&mut net, e);
        }
        net
    };
    let a = run(&trace.events);
    let b = run(&replayed.events);
    assert_eq!(a.snapshot_assignment(), b.snapshot_assignment());

    // Every strategy survives the replay.
    for kind in StrategyKind::ALL {
        let mut net = Network::new(25.0);
        let mut s = kind.build();
        for e in &replayed.events {
            s.apply(&mut net, e);
            assert!(net.validate().is_ok(), "{}", s.name());
        }
    }
}

/// The hybrid strategy's long-run color footprint stays at or below
/// plain Minim's while remaining valid throughout.
#[test]
fn hybrid_gossip_long_run() {
    let mut rng = StdRng::seed_from_u64(14);
    let join_events = JoinWorkload::paper(40).generate(&mut rng);
    let mut ghost = Network::new(25.0);
    for e in &join_events {
        apply_topology(&mut ghost, e);
    }
    let churn = ChurnWorkload::paper(120, 0.5);
    let churn_events: Vec<Event> = (0..churn.steps)
        .map(|_| {
            let e = churn.next_event(&ghost, &mut rng);
            apply_topology(&mut ghost, &e);
            e
        })
        .collect();

    // The hybrid runs one gossip round after every 8th event.
    let run = |gossip_every: Option<usize>| {
        let mut minim = Minim::default();
        let mut net = Network::new(25.0);
        for (i, e) in join_events.iter().chain(&churn_events).enumerate() {
            minim.apply(&mut net, e);
            if gossip_every.is_some_and(|p| (i + 1) % p == 0) {
                GossipCompactor.round(&mut net);
            }
            assert!(net.validate().is_ok(), "event {i}, gossip {gossip_every:?}");
        }
        net.max_color_index()
    };
    let plain = run(None);
    let hybrid = run(Some(8));
    assert!(hybrid <= plain, "hybrid {hybrid} vs plain {plain}");
}

/// Radio + instrumentation end to end: the outage bill equals
/// retune_slots × recodings when windows never overlap, and the
/// per-kind stats see exactly the scenario's events.
#[test]
fn radio_accounting_is_consistent_with_instrumentation() {
    let mut rng = StdRng::seed_from_u64(15);
    let joins = JoinWorkload::paper(15).generate(&mut rng);
    let mut net = Network::new(25.0);
    let mut stats = StrategyStats::default();
    let mut fire = |net: &mut Network, e: &Event| {
        let done = run_event(
            net,
            e,
            None,
            Writes::Plan(&Minim::default()),
            ValidationMode::Delta,
        )
        .expect("Minim keeps the network valid");
        stats.record(&done.applied, net.delta(), &done.outcome);
        done.outcome
    };
    // Joins happen pre-traffic; the radio run then fires a small churn.
    for e in &joins {
        fire(&mut net, e);
    }
    let mut ghost = net.clone();
    let churn = ChurnWorkload::paper(10, 0.8);
    let churn_events: Vec<Event> = (0..churn.steps)
        .map(|_| {
            let e = churn.next_event(&ghost, &mut rng);
            apply_topology(&mut ghost, &e);
            e
        })
        .collect();
    let schedule = spread_events(churn_events, 400, 50);
    let radio = run_scenario(
        &mut net,
        &schedule,
        400,
        RadioConfig {
            retune_slots: 6,
            traffic_prob: 0.4,
            ..RadioConfig::default()
        },
        &mut rng,
        &mut fire,
    );
    assert!(net.validate().is_ok());
    // The stats saw the 15 joins plus the 10 churn events; the radio
    // only billed the scheduled (churn) recodings.
    assert_eq!(stats.total_events(), 25);
    assert!(radio.recodings as usize <= stats.total_recodings());
    // Outage node-slots never exceed retune window × recodings.
    assert!(radio.outage_node_slots <= 6 * radio.recodings);
}
