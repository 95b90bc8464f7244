//! Flat/stratified index equivalence — the correctness contract of
//! the range-stratified reverse-reach index.
//!
//! `Network::new` (stratified) and `Network::new_flat` (the legacy
//! single-tier, monotone-watermark arm) must be **bit-identical** in
//! everything observable: the induced topology after any event
//! sequence, and every strategy's recodings and final assignment —
//! only costs may differ. The
//! index-level query equivalence is property-tested inside
//! `minim-geom` (`strata`, `segindex`); this suite pins the
//! network-level contract on full workloads:
//!
//! * every strategy × mixed churn (join/leave/move/power) on the
//!   paper arena,
//! * a lighthouse regime (one max-range node among short-range ones,
//!   later powered down and removed — the case the old watermark got
//!   permanently wrong on cost and the stratified bound must not get
//!   wrong on *semantics*),
//! * obstacle installation mid-stream (segment grid vs linear
//!   line-of-sight).
//!
//! It also pins the one-pass build that snapshot restore uses:
//! `Network::load_nodes` must leave exactly the network that
//! `insert_node` in id order leaves, in both index modes, and the two
//! must stay equal under churn. The release build runs more cases (CI
//! runs this file in release).

use minim::core::StrategyKind;
use minim::geom::{Point, Rect, Segment};
use minim::graph::NodeId;
use minim::net::event::{apply_topology, Event};
use minim::net::workload::{JoinWorkload, MixWorkload, Placement, RangeDist};
use minim::net::{Network, NodeConfig};
use minim::sim::runner::{run_events_validated, ValidationMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts the two index modes agree bit for bit after `events`.
fn assert_modes_agree(kind: StrategyKind, events: &[Event], label: &str) {
    let mut strat_net = Network::new(25.0);
    let mut s = kind.build();
    let strat = run_events_validated(&mut *s, &mut strat_net, events, ValidationMode::Delta);

    let mut flat_net = Network::new_flat(25.0);
    let mut s = kind.build();
    let flat = run_events_validated(&mut *s, &mut flat_net, events, ValidationMode::Delta);

    assert_eq!(strat, flat, "{label}: {kind:?} metrics");
    assert_eq!(
        strat_net.describe(),
        flat_net.describe(),
        "{label}: {kind:?} topology+colors"
    );
    assert_eq!(
        strat_net.graph().edges().collect::<Vec<_>>(),
        flat_net.graph().edges().collect::<Vec<_>>(),
        "{label}: {kind:?} edge sets"
    );
    strat_net.check_topology();
}

#[test]
fn all_strategies_agree_on_paper_churn() {
    for kind in StrategyKind::ALL {
        for seed in [3u64, 19] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut events = JoinWorkload::paper(40).generate(&mut rng);
            // A mixed churn tail, generated step by step against a
            // colorless ghost network (leave/move targets depend on
            // who is present).
            let mut ghost = Network::new(25.0);
            for e in &events {
                apply_topology(&mut ghost, e);
            }
            let mix = MixWorkload {
                steps: 60,
                join_prob: 0.3,
                leave_prob: 0.15,
                maxdisp: 30.0,
                placement: Placement::Uniform {
                    arena: Rect::paper_arena(),
                },
                ranges: RangeDist::paper(),
            };
            for _ in 0..mix.steps {
                let e = mix.next_event(&ghost, &mut rng);
                apply_topology(&mut ghost, &e);
                events.push(e);
            }
            assert_modes_agree(kind, &events, &format!("churn seed {seed}"));
        }
    }
}

/// The lighthouse regime: one max-range node among short-range ones.
/// The stratified bound tightens when it powers down and when it
/// leaves; the flat bound never does. Both must produce identical
/// networks regardless.
#[test]
fn lighthouse_power_cycle_is_mode_invariant() {
    let mut events: Vec<Event> = Vec::new();
    let mut rng = StdRng::seed_from_u64(77);
    let placement = Placement::Uniform {
        arena: minim::geom::Rect::new(0.0, 0.0, 400.0, 400.0),
    };
    let ranges = RangeDist::Interval {
        minr: 15.0,
        maxr: 25.0,
    };
    for _ in 0..80 {
        events.push(Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        });
    }
    // The lighthouse joins with a range covering the whole arena...
    events.push(Event::Join {
        cfg: NodeConfig::new(Point::new(200.0, 200.0), 600.0),
    });
    let lh = minim::graph::NodeId(80);
    // ...more short joins under the inflated bound, then the
    // lighthouse powers down, more joins, it leaves, more joins.
    for _ in 0..20 {
        events.push(Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        });
    }
    events.push(Event::SetRange {
        node: lh,
        range: 20.0,
    });
    for _ in 0..20 {
        events.push(Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        });
    }
    events.push(Event::Leave { node: lh });
    for _ in 0..20 {
        events.push(Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        });
    }
    for kind in StrategyKind::ALL {
        assert_modes_agree(kind, &events, "lighthouse");
    }

    // And the bounds behave as designed: stratified tightens, flat
    // stays inflated.
    let mut strat = Network::new(25.0);
    let mut flat = Network::new_flat(25.0);
    for e in &events {
        minim::net::event::apply_topology(&mut strat, e);
        minim::net::event::apply_topology(&mut flat, e);
    }
    assert!(
        strat.range_bound() < 100.0,
        "stratified bound tightened, got {}",
        strat.range_bound()
    );
    assert!(
        flat.range_bound() >= 600.0,
        "flat bound stays inflated, got {}",
        flat.range_bound()
    );
}

#[test]
fn obstacles_are_mode_invariant() {
    let mut rng = StdRng::seed_from_u64(5);
    let joins = JoinWorkload::paper(50).generate(&mut rng);
    for kind in [StrategyKind::Minim, StrategyKind::Cp] {
        let mut nets = [Network::new(25.0), Network::new_flat(25.0)];
        for net in &mut nets {
            let mut s = kind.build();
            for e in &joins {
                s.apply(net, e);
            }
            // A corridor of walls lands mid-stream; deltas and colors
            // must match across modes afterwards.
            for k in 0..8 {
                let x = 10.0 + 10.0 * k as f64;
                net.add_obstacle(Segment::new(Point::new(x, 0.0), Point::new(x, 80.0)));
            }
            assert!(net.validate().is_ok());
            net.check_topology();
        }
        let [a, b] = nets;
        assert_eq!(a.describe(), b.describe(), "{kind:?} under obstacles");
        assert_eq!(
            a.graph().edges().collect::<Vec<_>>(),
            b.graph().edges().collect::<Vec<_>>()
        );
    }
}

/// Cases per check: the release build (CI) runs the full count.
fn cases(release: u64) -> u64 {
    if cfg!(debug_assertions) {
        release / 8
    } else {
        release
    }
}

/// A transmission range from the mix the bulk build must reproduce:
/// mostly short, sometimes 0, and now and then a lighthouse three to
/// five tiers above the 25-unit base.
fn mixed_range(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..20) {
        0 => 0.0,
        1 => 25.0 * f64::from(1u32 << rng.gen_range(3u32..6)) * rng.gen_range(0.6..1.0),
        _ => rng.gen_range(4.0..30.0),
    }
}

/// Walls and a node set in ascending id order, with the id gaps that
/// leaves leave. Uniform or clustered placement; in half the cases
/// positions sit on a 1/16 lattice, so co-located nodes and pairs at
/// exactly `dist == range` (a 3-4-5 offset with range 5k) are exact.
fn node_set(seed: u64) -> (Vec<Segment>, Vec<(NodeId, NodeConfig)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let arena = Rect::new(0.0, 0.0, 200.0, 200.0);
    let placement = if seed.is_multiple_of(2) {
        Placement::Uniform { arena }
    } else {
        let centers = (0..3)
            .map(|_| Point::new(rng.gen_range(20.0..180.0), rng.gen_range(20.0..180.0)))
            .collect();
        Placement::Clustered {
            centers,
            spread: 12.0,
            arena,
        }
    };
    let lattice = seed % 4 >= 2;
    let snap = |v: f64| {
        if lattice {
            (v * 16.0).round() / 16.0
        } else {
            v
        }
    };
    let walls = (0..[0, 3, 9][(seed % 3) as usize])
        .map(|_| {
            let a = Point::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0));
            let b = a.translated(rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0));
            Segment::new(a, b)
        })
        .collect();
    let n = rng.gen_range(20u32..120);
    let mut nodes: Vec<(NodeId, NodeConfig)> = Vec::new();
    for id in 0..n {
        let cfg = match (nodes.last(), rng.gen_range(0u32..10)) {
            (Some(&(_, prev)), 0) => NodeConfig::new(prev.pos, mixed_range(&mut rng)),
            (Some(&(_, prev)), 1) if lattice => {
                let k = f64::from(rng.gen_range(1u32..5));
                let pos = prev.pos.translated(3.0 * k, 4.0 * k);
                NodeConfig::new(pos, 5.0 * k)
            }
            _ => {
                let p = placement.sample(&mut rng);
                NodeConfig::new(Point::new(snap(p.x), snap(p.y)), mixed_range(&mut rng))
            }
        };
        nodes.push((NodeId(id), cfg));
    }
    // Leaves: about a fifth of the ids, the last one included at times.
    nodes.retain(|_| rng.gen_range(0u32..5) != 0);
    (walls, nodes)
}

/// Asserts two networks agree on every node's adjacency and on every
/// structural summary.
fn assert_same_network(bulk: &Network, inc: &Network, label: &str) {
    assert_eq!(bulk.node_ids(), inc.node_ids(), "{label}: nodes");
    for id in inc.iter_nodes() {
        let (b, i) = (bulk.graph(), inc.graph());
        assert_eq!(
            b.out_neighbors(id),
            i.out_neighbors(id),
            "{label}: out {id}"
        );
        assert_eq!(b.in_neighbors(id), i.in_neighbors(id), "{label}: in {id}");
    }
    assert_eq!(
        bulk.fingerprint(),
        inc.fingerprint(),
        "{label}: fingerprint"
    );
    assert_eq!(bulk.state_digest(), inc.state_digest(), "{label}: digest");
    assert_eq!(
        bulk.range_bound(),
        inc.range_bound(),
        "{label}: range bound"
    );
}

/// `Network::load_nodes` against `insert_node` in id order: the same
/// adjacency, fingerprint, digest and range bound on uniform and
/// clustered sets with id gaps, co-located nodes, exact-boundary
/// pairs, range 0, lighthouses and walls, in both index modes. Then
/// the same churn (joins, leaves, moves, range changes) on both must
/// give the same delta and digest after every event, which only holds
/// if the grid tiers and watermarks match too.
#[test]
fn bulk_load_equals_incremental_inserts() {
    // Witnesses that the generator reaches the edge cases it claims.
    let (mut boundary_edges, mut colocated, mut lighthouses) = (0, 0, 0);
    for seed in 0..cases(96) {
        let (walls, nodes) = node_set(seed);
        for (k, &(_, a)) in nodes.iter().enumerate() {
            lighthouses += usize::from(a.range > 100.0);
            for &(_, b) in &nodes[k + 1..] {
                colocated += usize::from(a.pos == b.pos);
                boundary_edges += usize::from(a.pos.dist2(&b.pos) == b.range * b.range);
            }
        }
        for flat in [false, true] {
            let label = format!("seed {seed} flat {flat}");
            let fresh = || {
                let mut net = if flat {
                    Network::new_flat(25.0)
                } else {
                    Network::new(25.0)
                };
                for &w in &walls {
                    net.add_obstacle(w);
                }
                net
            };
            let mut bulk = fresh();
            bulk.load_nodes(&nodes);
            let mut inc = fresh();
            for &(id, cfg) in &nodes {
                inc.insert_node(id, cfg);
            }
            assert_same_network(&bulk, &inc, &label);
            bulk.check_topology();

            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mix = MixWorkload {
                steps: 40,
                join_prob: 0.3,
                leave_prob: 0.15,
                maxdisp: 40.0,
                placement: Placement::Uniform {
                    arena: Rect::new(0.0, 0.0, 200.0, 200.0),
                },
                ranges: RangeDist::Interval {
                    minr: 4.0,
                    maxr: 30.0,
                },
            };
            for step in 0..mix.steps {
                let event = match inc.iter_nodes().nth(step * 7 % inc.node_count().max(1)) {
                    Some(node) if rng.gen_range(0u32..4) == 0 => Event::SetRange {
                        node,
                        range: mixed_range(&mut rng),
                    },
                    _ => mix.next_event(&inc, &mut rng),
                };
                apply_topology(&mut bulk, &event);
                apply_topology(&mut inc, &event);
                assert_eq!(bulk.delta(), inc.delta(), "{label}: delta at step {step}");
                assert_eq!(
                    bulk.state_digest(),
                    inc.state_digest(),
                    "{label}: digest at step {step}"
                );
                assert_eq!(
                    bulk.range_bound(),
                    inc.range_bound(),
                    "{label}: range bound at step {step}"
                );
            }
            bulk.check_topology();
        }
    }
    assert!(boundary_edges > 0 && colocated > 0 && lighthouses > 0);
}
