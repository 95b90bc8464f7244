//! Near-far scenario — the textbook failure mode of power-controlled
//! CDMA: transmitters near a receiver drown transmitters far from it
//! unless a closed loop balances every link's SINR. This example runs
//! `minim-power`'s Foschini–Miljanic loop end to end:
//!
//! 1. directly on a hand-built near-far network — watch the loop
//!    converge, read the per-node equilibrium, then overload the cell
//!    and watch the loop *detect* infeasibility instead of spinning;
//! 2. through the scenario lab's `near-far` preset, where the loop's
//!    converged powers come back as endogenous set-range events that
//!    Minim/CP/BBB must recode after.
//!
//! ```text
//! cargo run --release --example near_far
//! ```

use minim::core::{Minim, RecodingStrategy};
use minim::geom::Point;
use minim::net::event::Event;
use minim::net::{Network, NodeConfig};
use minim::power::{PowerLoop, PowerLoopConfig, Verdict};
use minim::sim::presets;
use minim::sim::scenario::{ExperimentConfig, Scenario, SweepAxis};

fn main() {
    // --- 1. The loop on a hand-built near-far cell. ------------------
    // A dense downtown clump and two far outskirts pairs.
    let mut net = Network::new(25.0);
    let mut strategy = Minim::default();
    let mut place = |x: f64, y: f64| {
        let id = net.next_id();
        strategy.on_join(&mut net, id, NodeConfig::new(Point::new(x, y), 25.0));
        id
    };
    for k in 0..6 {
        place(40.0 + 3.0 * (k % 3) as f64, 40.0 + 3.0 * (k / 3) as f64);
    }
    place(5.0, 90.0);
    place(15.0, 90.0);
    place(95.0, 5.0);
    place(85.0, 5.0);
    assert!(net.validate().is_ok());

    let loop_cfg = PowerLoopConfig::for_range_scale(25.0);
    let lp = PowerLoop::new(loop_cfg);
    let outcome = lp.run(&net);
    println!(
        "closed loop: {} links, {} power updates, verdict {:?}",
        outcome.report.links, outcome.report.updates, outcome.report.verdict
    );
    assert_eq!(outcome.report.verdict, Verdict::Converged);

    // The equilibrium comes back as ordinary set-range events; the
    // recoding strategy restores CA1/CA2 after each one.
    let mut recodings = 0usize;
    for e in &outcome.events {
        let Event::SetRange { node, range } = e else {
            panic!("a pure power pass emits only set-range events");
        };
        let out = strategy.on_set_range(&mut net, *node, *range);
        recodings += out.recodings();
        assert!(net.validate().is_ok(), "CA1/CA2 after every event");
    }
    println!(
        "lowered {} endogenous set-range events through Minim ({} recodings)",
        outcome.events.len(),
        recodings
    );
    // Equilibrium is a fixed point: a second pass emits nothing.
    assert!(lp.run(&net).events.is_empty());
    println!("second pass emits nothing — the equilibrium is a fixed point\n");

    // Overload the cell: a brutal SINR target under the same cap must
    // be *detected* as infeasible, not iterated forever.
    let mut hard = loop_cfg;
    hard.target_sinr = 48.0;
    let overloaded = PowerLoop::new(hard).run(&net);
    assert_eq!(
        overloaded.report.verdict,
        Verdict::PowerCapped,
        "expected the overloaded cell to be power-capped"
    );
    println!(
        "target SINR 48 overloads the cell: {} of {} links power-capped below target",
        overloaded.report.infeasible.len(),
        overloaded.report.links
    );

    // --- 2. The same physics through the scenario lab. ---------------
    // The `near-far` preset (shrunk for the smoke-run): clustered
    // joins, then a measured power-control phase per target SINR.
    let mut spec = presets::near_far().sweep(SweepAxis::TargetSinr(vec![2.0, 8.0]));
    spec.base = vec![minim::sim::PhaseSpec::Join { count: 40 }];
    let cfg = ExperimentConfig {
        runs: 6,
        ..ExperimentConfig::quick()
    };
    let result = Scenario::new(spec)
        .expect("the preset is a valid spec")
        .run(&cfg);
    let (_, recoding_table) = result.tables();
    println!("{}", recoding_table.render());
    println!(
        "Each row: one closed-loop pass at that target SINR after 40 clustered joins.\n\
         The set-range events are endogenous — emitted by the physical layer's\n\
         equilibrium, not drawn from a distribution — and Minim recodes the fewest\n\
         nodes to absorb them."
    );
}
