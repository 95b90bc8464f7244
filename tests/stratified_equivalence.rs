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

use minim::core::StrategyKind;
use minim::geom::{Point, Rect, Segment};
use minim::net::event::{apply_topology, Event};
use minim::net::workload::{JoinWorkload, MixWorkload, Placement, RangeDist};
use minim::net::{Network, NodeConfig};
use minim::sim::runner::{run_events_validated, ValidationMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
