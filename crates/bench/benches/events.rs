//! Event-path throughput trajectory → `BENCH_events.json`.
//!
//! The repo's first machine-readable perf record: events/sec for the
//! four event families (join / move / churn / power-raise) at
//! N ∈ {1k, 4k, 10k}, each measured **flat-vs-stratified** (the
//! legacy single-tier spatial index vs. the range-stratified
//! reverse-reach index). A `lighthouse` micro-preset — one max-range
//! node among thousands of short-range joiners — isolates the tier
//! win: under the flat index the lighthouse's watermark inflates every
//! later join's reverse-reach scan to its radius; the stratified index
//! keeps the short tier's scans short and must deliver ≥ 2× join
//! throughput at N = 4k.
//!
//! A `profile-overhead` arm times the metropolis churn preset with
//! the minim-obs registry recording vs runtime-disabled —
//! the observability spine must cost under 3% throughput — and embeds
//! the instrumented run's `minim-trace/1` document in the artifact so
//! CI can validate the trace schema end to end.
//!
//! Run via `cargo bench -p minim-bench --bench events`; CI uploads the
//! JSON as an artifact so the trajectory accumulates across commits.
//! Override the sweep with `MINIM_BENCH_EVENTS_NS=500,2000` and the
//! output path with `MINIM_BENCH_EVENTS_OUT=path.json`.

use minim_core::Minim;
use minim_geom::{sample, Point, Rect};
use minim_net::event::{apply_topology, Event};
use minim_net::workload::{
    MixWorkload, MovementWorkload, Placement, PowerRaiseWorkload, RangeDist,
};
use minim_net::{Network, NodeConfig};
use minim_sim::json::Json;
use minim_sim::runner::run_events;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Spatial cell hint for every network (the metropolis value).
const CELL_HINT: f64 = 30.5;

fn fresh(flat: bool) -> Network {
    if flat {
        Network::new_flat(CELL_HINT)
    } else {
        Network::new(CELL_HINT)
    }
}

/// The metropolis deployment: Poisson-clustered hot spots over a
/// 4000×4000 arena, paper ranges.
fn metro_placement(seed: u64) -> (Placement, StdRng) {
    let arena = Rect::new(0.0, 0.0, 4000.0, 4000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..40)
        .map(|_| sample::uniform_point(&mut rng, &arena))
        .collect();
    (
        Placement::Clustered {
            centers,
            spread: 25.0,
            arena,
        },
        rng,
    )
}

fn join_events(n: usize, seed: u64) -> Vec<Event> {
    let (placement, mut rng) = metro_placement(seed);
    let ranges = RangeDist::paper();
    (0..n)
        .map(|_| Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        })
        .collect()
}

/// A colorless base network with `n` metropolis nodes.
fn base_net(n: usize, seed: u64, flat: bool) -> Network {
    let mut net = fresh(flat);
    for e in join_events(n, seed) {
        apply_topology(&mut net, &e);
    }
    net
}

/// One measured workload: a base network (possibly empty) plus the
/// events to time against it.
struct Workload {
    name: &'static str,
    base: Network,
    events: Vec<Event>,
}

fn build_workloads(n: usize, seed: u64, flat: bool) -> Vec<Workload> {
    let mut out = Vec::new();
    // join: n joins into an empty arena.
    out.push(Workload {
        name: "join",
        base: fresh(flat),
        events: join_events(n, seed),
    });
    // move: one §5.3 movement round over an n-node base (one move per
    // node), generated against a colorless ghost so every arm times
    // the identical event list.
    let base = base_net(n, seed, flat);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55AA);
    let moves = MovementWorkload {
        maxdisp: 60.0,
        rounds: 1,
        arena: Rect::new(0.0, 0.0, 4000.0, 4000.0),
    }
    .generate_round(&base, &mut rng);
    out.push(Workload {
        name: "move",
        base: base.clone(),
        events: moves,
    });
    // churn: n mixed steps (join/leave/move) against the same base.
    let (placement, _) = metro_placement(seed);
    let mix = MixWorkload {
        steps: n,
        join_prob: 0.35,
        leave_prob: 0.25,
        maxdisp: 60.0,
        placement,
        ranges: RangeDist::paper(),
    };
    let mut ghost = base.clone();
    let mut churn = Vec::with_capacity(n);
    for _ in 0..n {
        let e = mix.next_event(&ghost, &mut rng);
        apply_topology(&mut ghost, &e);
        churn.push(e);
    }
    out.push(Workload {
        name: "churn",
        base: base.clone(),
        events: churn,
    });
    // power-raise: the §5.2 regime on the base.
    let raises = PowerRaiseWorkload::paper(2.0).generate(&base, &mut rng);
    out.push(Workload {
        name: "power-raise",
        base,
        events: raises,
    });
    out
}

/// Median-of-`reps` wall-clock for applying `events` to a clone of
/// `base` through a fresh Minim strategy.
fn time_run(w: &Workload, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut net = w.base.clone();
            let mut s = Minim::default();
            let t = Instant::now();
            run_events(&mut s, &mut net, &w.events);
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The lighthouse micro-preset: `n` short-range joiners plus one
/// max-range lighthouse early in the stream. Returns the event list.
fn lighthouse_events(n: usize, seed: u64) -> Vec<Event> {
    let arena = Rect::new(0.0, 0.0, 4000.0, 4000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let ranges = RangeDist::Interval {
        minr: 15.0,
        maxr: 25.0,
    };
    let mut events: Vec<Event> = (0..n)
        .map(|_| Event::Join {
            cfg: NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                ranges.sample(&mut rng),
            ),
        })
        .collect();
    // The lighthouse joins 20 events in: everything after it runs
    // under the inflated flat watermark.
    events.insert(
        20.min(events.len()),
        Event::Join {
            cfg: NodeConfig::new(Point::new(2000.0, 2000.0), 2000.0),
        },
    );
    events
}

fn main() {
    let ns: Vec<usize> = std::env::var("MINIM_BENCH_EVENTS_NS")
        .ok()
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("MINIM_BENCH_EVENTS_NS: bad N"))
                .collect()
        })
        .unwrap_or_else(|| vec![1_000, 4_000, 10_000]);
    // Cargo runs bench binaries with cwd = the *package* root
    // (crates/bench); anchor the default output at the workspace root
    // so CI finds it where the checkout lives.
    let out_path = std::env::var("MINIM_BENCH_EVENTS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_events.json").to_string()
    });
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let seed = 0xE7E27u64;

    let mut results: Vec<Json> = Vec::new();
    for &n in &ns {
        let reps = if n >= 10_000 { 1 } else { 3 };
        for flat in [true, false] {
            let index = if flat { "flat" } else { "stratified" };
            for w in build_workloads(n, seed, flat) {
                let secs = time_run(&w, reps);
                let eps = w.events.len() as f64 / secs;
                println!(
                    "events/{}/N={n}: {index:>10} {:>9.0} events/s ({} events, {:.3}s)",
                    w.name,
                    eps,
                    w.events.len(),
                    secs,
                );
                results.push(Json::obj(vec![
                    ("workload", Json::Str(w.name.to_string())),
                    ("n", Json::Num(n as f64)),
                    ("index", Json::Str(index.to_string())),
                    ("events", Json::Num(w.events.len() as f64)),
                    ("seconds", Json::Num(secs)),
                    ("events_per_sec", Json::Num(eps)),
                ]));
            }
        }
    }

    // Lighthouse: flat vs stratified join throughput, sequential.
    let mut lighthouse: Vec<Json> = Vec::new();
    for &n in &[1_000usize, 4_000] {
        let events = lighthouse_events(n, seed);
        let reps = 3;
        let arm = |flat: bool| {
            let w = Workload {
                name: "lighthouse",
                base: fresh(flat),
                events: events.clone(),
            };
            let secs = time_run(&w, reps);
            events.len() as f64 / secs
        };
        let flat_eps = arm(true);
        let strat_eps = arm(false);
        let speedup = strat_eps / flat_eps;
        println!(
            "lighthouse/N={n}: flat {flat_eps:>9.0} events/s | stratified {strat_eps:>9.0} events/s | tier speedup {speedup:.2}x"
        );
        if n >= 4_000 && speedup < 2.0 {
            eprintln!("WARNING: lighthouse speedup below the 2x acceptance bar at N={n}");
        }
        lighthouse.push(Json::obj(vec![
            ("n", Json::Num(n as f64)),
            ("flat_events_per_sec", Json::Num(flat_eps)),
            ("stratified_events_per_sec", Json::Num(strat_eps)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    // Profile overhead: the same metropolis churn preset, minim-obs
    // recording vs runtime-disabled, reps interleaved so drift hits
    // both arms equally. The spine's cost per instrumented event is a
    // TLS read plus a relaxed fetch_add, so the median overhead must
    // stay under 3%. (Under `--features obs-off` both arms run the
    // same site-free code and the ratio just measures noise.)
    let mut profile_overhead: Vec<Json> = Vec::new();
    let trace_doc;
    {
        let n = 4_000usize;
        let w = build_workloads(n, seed, false)
            .into_iter()
            .find(|w| w.name == "churn")
            .expect("churn workload present");
        let reps = 9usize;
        let arm = |record: bool| -> f64 {
            minim_obs::set_enabled(record);
            let mut net = w.base.clone();
            let mut s = Minim::default();
            let t = Instant::now();
            run_events(&mut s, &mut net, &w.events);
            t.elapsed().as_secs_f64()
        };
        let mut on_times = Vec::with_capacity(reps);
        let mut off_times = Vec::with_capacity(reps);
        arm(true); // warm-up: caches, interning
        for _ in 0..reps {
            off_times.push(arm(false));
            on_times.push(arm(true));
        }
        minim_obs::set_enabled(true);
        on_times.sort_by(f64::total_cmp);
        off_times.sort_by(f64::total_cmp);
        let on_secs = on_times[reps / 2];
        let off_secs = off_times[reps / 2];
        let overhead = on_secs / off_secs - 1.0;
        println!(
            "profile-overhead/N={n}: disabled {:>9.0} events/s | recording {:>9.0} events/s | overhead {:+.2}%",
            w.events.len() as f64 / off_secs,
            w.events.len() as f64 / on_secs,
            overhead * 100.0,
        );
        assert!(
            overhead < 0.03,
            "observability overhead on metropolis churn must stay under 3%, \
             measured {:.2}% (recording {on_secs:.4}s vs disabled {off_secs:.4}s)",
            overhead * 100.0
        );
        profile_overhead.push(Json::obj(vec![
            ("n", Json::Num(n as f64)),
            ("events", Json::Num(w.events.len() as f64)),
            (
                "disabled_events_per_sec",
                Json::Num(w.events.len() as f64 / off_secs),
            ),
            (
                "recording_events_per_sec",
                Json::Num(w.events.len() as f64 / on_secs),
            ),
            ("overhead", Json::Num(overhead)),
            ("obs_compiled", Json::Bool(minim_obs::COMPILED)),
        ]));

        // One more instrumented pass against a clean registry, so the
        // embedded trace document describes exactly this workload.
        minim_obs::reset();
        arm(true);
        trace_doc = minim_sim::trace::trace_document();
    }

    let doc = Json::obj(vec![
        ("schema", Json::Str("minim-bench-events/4".to_string())),
        ("cores", Json::Num(cores as f64)),
        ("results", Json::Arr(results)),
        ("lighthouse", Json::Arr(lighthouse)),
        ("profile-overhead", Json::Arr(profile_overhead)),
        ("trace", trace_doc),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty()).expect("write BENCH_events.json");
    println!("wrote {out_path}");
}
