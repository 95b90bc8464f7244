//! The observability overhead gate: recording metrics may cost at most
//! 3% of event throughput.
//!
//! One metropolis churn stream (4,000-node Poisson-clustered base,
//! 4,000 mixed join/leave/move steps, seed `0xE7E27`) is applied
//! through a fresh Minim strategy with the `minim-obs` registry
//! recording and with it runtime-disabled. Nine reps per arm run
//! interleaved, so host drift hits both arms equally, and the medians
//! are compared. A recording site costs a TLS read plus a relaxed
//! `fetch_add`, so the median overhead must stay under 3%.
//!
//! Timing only means something in an optimized build, so the test is
//! ignored in debug builds:
//!
//! ```text
//! cargo test --release --test obs_overhead -- --nocapture
//! ```

use minim::core::Minim;
use minim::geom::{sample, Point, Rect};
use minim::net::event::{apply_topology, Event};
use minim::net::workload::{MixWorkload, MovementWorkload, Placement, RangeDist};
use minim::net::{Network, NodeConfig};
use minim::sim::runner::run_events;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const N: usize = 4_000;
const SEED: u64 = 0xE7E27;
const REPS: usize = 9;
const CELL_HINT: f64 = 30.5;

/// The colorless `n`-node metropolis base (40 Poisson-clustered hot
/// spots over a 4000×4000 arena, paper ranges) and the `n`-step churn
/// stream played against it.
fn churn_workload(n: usize, seed: u64) -> (Network, Vec<Event>) {
    let arena = Rect::new(0.0, 0.0, 4000.0, 4000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..40)
        .map(|_| sample::uniform_point(&mut rng, &arena))
        .collect();
    let placement = Placement::Clustered {
        centers,
        spread: 25.0,
        arena,
    };
    let ranges = RangeDist::paper();
    let mut base = Network::new(CELL_HINT);
    for _ in 0..n {
        let e = Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        };
        apply_topology(&mut base, &e);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55AA);
    // A discarded §5.3 movement round advances the generator, so the
    // churn stream is the one the 3% bound was first measured on.
    MovementWorkload {
        maxdisp: 60.0,
        rounds: 1,
        arena,
    }
    .generate_round(&base, &mut rng);
    let mix = MixWorkload {
        steps: n,
        join_prob: 0.35,
        leave_prob: 0.25,
        maxdisp: 60.0,
        placement,
        ranges,
    };
    let mut ghost = base.clone();
    let events = (0..n)
        .map(|_| {
            let e = mix.next_event(&ghost, &mut rng);
            apply_topology(&mut ghost, &e);
            e
        })
        .collect();
    (base, events)
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn recording_costs_under_three_percent_on_metropolis_churn() {
    let (base, events) = churn_workload(N, SEED);
    let arm = |record: bool| -> f64 {
        minim::obs::set_enabled(record);
        let mut net = base.clone();
        let mut s = Minim::default();
        let t = Instant::now();
        run_events(&mut s, &mut net, &events);
        t.elapsed().as_secs_f64()
    };
    arm(true); // warm-up: caches, key interning
    let mut on_times = Vec::with_capacity(REPS);
    let mut off_times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        off_times.push(arm(false));
        on_times.push(arm(true));
    }
    minim::obs::set_enabled(true);
    let on_secs = median(on_times);
    let off_secs = median(off_times);
    let overhead = on_secs / off_secs - 1.0;
    println!(
        "obs overhead N={N}: disabled {:.0} events/s | recording {:.0} events/s | {:+.2}%",
        events.len() as f64 / off_secs,
        events.len() as f64 / on_secs,
        overhead * 100.0,
    );
    assert!(
        overhead < 0.03,
        "observability overhead on metropolis churn must stay under 3%, \
         measured {:.2}% (recording {on_secs:.4}s vs disabled {off_secs:.4}s)",
        overhead * 100.0
    );
}
