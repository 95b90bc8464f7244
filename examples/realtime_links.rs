//! Hard real-time link budget — the paper's §1/§2 cost argument made
//! concrete: "recoding can be very costly ... hard real-time
//! applications \[13\], and applications where maintaining a persistent
//! high data rate is critical".
//!
//! A 30-node sensor field streams telemetry every slot while all nodes
//! drift under random-waypoint mobility. Every code change knocks the
//! retuning transceiver out for a fixed window, so the recoding bill
//! becomes a packet-loss bill. We run the identical mobility and
//! traffic under Minim and CP and print the budget each would hand a
//! real-time application.
//!
//! ```text
//! cargo run --release --example realtime_links
//! ```

use minim::core::{run_event, StrategyKind, StrategyStats, ValidationMode, Writes};
use minim::geom::Rect;
use minim::net::event::{apply_topology, Event};
use minim::net::mobility::RandomWaypoint;
use minim::net::workload::JoinWorkload;
use minim::net::Network;
use minim::radio::{run_scenario, RadioConfig, TimedEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 30;
const SLOTS: u64 = 2000;
const MOBILITY_TICKS: u64 = 20;

/// Builds the shared mobility schedule: 20 waypoint ticks spread over
/// the run, identical for every strategy.
fn mobility_schedule(seed: u64) -> (Vec<Event>, Vec<TimedEvent>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let joins = JoinWorkload::paper(NODES).generate(&mut rng);
    let mut ghost = Network::new(30.5);
    for e in &joins {
        apply_topology(&mut ghost, e);
    }
    let mut model = RandomWaypoint::new(Rect::paper_arena(), 1.0, 4.0);
    let mut schedule = Vec::new();
    for tick in 0..MOBILITY_TICKS {
        let at = (tick + 1) * (SLOTS / (MOBILITY_TICKS + 1));
        for e in model.tick(&ghost, 5.0, &mut rng) {
            apply_topology(&mut ghost, &e);
            schedule.push(TimedEvent { at, event: e });
        }
    }
    (joins, schedule)
}

fn main() {
    let (joins, schedule) = mobility_schedule(0xBEEF);
    println!(
        "{NODES}-node telemetry field, {SLOTS} slots, {} scheduled moves, retune window 10 slots\n",
        schedule.len()
    );
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>10} {:>12}",
        "strategy", "recodings", "outage-lost", "delivered", "goodput", "peak color"
    );

    for kind in [StrategyKind::Minim, StrategyKind::Cp] {
        // Per-event-type stats for the detail line.
        let strategy = kind.build();
        let mut net = Network::new(30.5);
        let mut stats = StrategyStats::default();
        let mut fire = |net: &mut Network, e: &Event| {
            let done = run_event(net, e, None, Writes::Plan(&*strategy), ValidationMode::Off)
                .expect("the strategy keeps CA1/CA2");
            stats.record(&done.applied, &done.delta, &done.outcome);
            done.outcome
        };
        for e in &joins {
            fire(&mut net, e);
        }
        let mut rng = StdRng::seed_from_u64(7);
        let radio = run_scenario(
            &mut net,
            &schedule,
            SLOTS,
            RadioConfig {
                retune_slots: 10,
                traffic_prob: 0.7,
                ..RadioConfig::default()
            },
            &mut rng,
            &mut fire,
        );
        assert!(net.validate().is_ok());
        println!(
            "{:>8} {:>10} {:>12} {:>14} {:>9.2}% {:>12}",
            kind.label(),
            radio.recodings,
            radio.lost_to_outages(),
            radio.delivered,
            radio.goodput() * 100.0,
            stats.peak_color,
        );
        println!("         detail: {stats}");
    }
    println!(
        "\nSame mobility, same traffic: the only difference is how many mobiles each\n\
         strategy retunes — exactly the cost the paper's minimal recoding eliminates."
    );
}
