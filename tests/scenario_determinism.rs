//! End-to-end determinism of the scenario lab: a sweep's
//! [`SweepResult`] must be bit-identical across worker counts and
//! across repeated runs with the same seed, including on the new
//! regimes (clustered topology, heterogeneous ranges, interleaved
//! churn, corridors) whose generation consumes extra replicate
//! randomness.

use minim::sim::scenario::{ExperimentConfig, Scenario, ScenarioSpec, SweepAxis};
use minim::sim::{presets, SweepResult};

fn run(spec: ScenarioSpec, workers: usize, seed: u64) -> SweepResult {
    Scenario::new(spec)
        .expect("spec must validate")
        .run(&ExperimentConfig {
            runs: 4,
            seed,
            workers,
        })
}

/// Small-sweep variants of the presets that exercise every topology
/// family, range distribution, and phase kind.
fn lab_specs() -> Vec<ScenarioSpec> {
    vec![
        presets::fig10_vs_n(vec![20, 30]),
        presets::fig12_vs_rounds(2, 15, 40.0),
        presets::clustered_joins().sweep(SweepAxis::JoinCount(vec![25])),
        presets::hetero_ranges().sweep(SweepAxis::LongFraction(vec![0.0, 0.5])),
        presets::clustered_churn().sweep(SweepAxis::MixSteps(vec![25])),
        presets::corridor_joins().sweep(SweepAxis::JoinCount(vec![25])),
        // The power-control regimes: the closed loop's endogenous
        // set-range (and, with admission drops, leave) events must be
        // bit-identical across workers too — continuous and discrete
        // ladders both.
        shrink_base_join(presets::near_far(), 30).sweep(SweepAxis::TargetSinr(vec![2.0, 8.0])),
        presets::interference_clusters().sweep(SweepAxis::JoinCount(vec![25])),
        // The tracking power session: its warm settles' set-range
        // corrections interleave with the churn stream.
        shrink_base_join(presets::churn_power(), 40).sweep(SweepAxis::TargetSinr(vec![2.0, 8.0])),
    ]
}

/// A preset with its base join phase shrunk to `count` (keeps the
/// determinism suite fast without changing the phase structure).
fn shrink_base_join(mut spec: ScenarioSpec, count: usize) -> ScenarioSpec {
    use minim::sim::PhaseSpec;
    for phase in &mut spec.base {
        if let PhaseSpec::Join { count: c } = phase {
            *c = count;
        }
    }
    spec
}

#[test]
fn sweep_results_are_worker_count_invariant() {
    for spec in lab_specs() {
        let name = spec.name.clone();
        let serial = run(spec.clone(), 1, 99);
        let parallel = run(spec, 8, 99);
        // `SweepResult` equality covers every point, stat, and event
        // count; only wall-clock (profiling metadata) is excluded.
        assert_eq!(serial, parallel, "{name}: workers=1 vs workers=8");
        assert_eq!(serial.to_csv(), parallel.to_csv(), "{name}: csv");
    }
}

#[test]
fn sweep_results_are_repeatable_per_seed() {
    for spec in lab_specs() {
        let name = spec.name.clone();
        let first = run(spec.clone(), 4, 1234);
        let second = run(spec.clone(), 4, 1234);
        assert_eq!(first, second, "{name}: repeated run drifted");

        let other_seed = run(spec, 4, 1235);
        assert_ne!(
            first.points, other_seed.points,
            "{name}: seed must actually matter"
        );
    }
}

#[test]
fn exports_are_deterministic_too() {
    let spec = presets::clustered_churn().sweep(SweepAxis::MixSteps(vec![20]));
    let a = run(spec.clone(), 2, 7);
    let b = run(spec, 6, 7);
    // JSON differs only in the observability metadata: the
    // wall_clock_ms profiling field and the minim-obs `metrics` block
    // (the registry is process-global and cumulative, so a second run
    // sees larger counters and different latencies). Everything the
    // sweep *computed* must be byte-identical.
    assert_eq!(
        strip_observability(&a.to_json_string()),
        strip_observability(&b.to_json_string())
    );
}

/// Re-renders a `SweepResult` JSON export with the volatile
/// observability fields (`wall_clock_ms`, the `metrics` block)
/// removed, leaving the deterministic payload.
fn strip_observability(text: &str) -> String {
    use minim::sim::json::{self, Json};
    let mut doc = json::parse(text).expect("export parses");
    if let Json::Obj(fields) = &mut doc {
        fields.retain(|(k, _)| k != "wall_clock_ms" && k != "metrics");
    }
    doc.to_string_pretty()
}

/// Observation must be provably inert: the sweep's computed payload is
/// bit-identical whether the registry is recording or disabled. The
/// test also prints an FNV-1a digest of the stripped payload —  CI
/// runs this test under the default features *and* `--features
/// obs-off` (where every instrumentation site is compiled away) and
/// asserts the two digests match shell-side, closing the on-vs-off
/// loop across binaries.
#[test]
fn observability_is_inert() {
    let spec = presets::clustered_churn().sweep(SweepAxis::MixSteps(vec![20]));
    minim::obs::set_enabled(true);
    let recording = run(spec.clone(), 2, 7).to_json_string();
    minim::obs::set_enabled(false);
    let silent = run(spec, 2, 7).to_json_string();
    minim::obs::set_enabled(true);
    let payload = strip_observability(&recording);
    assert_eq!(
        payload,
        strip_observability(&silent),
        "recording vs disabled registry changed the computed payload"
    );
    println!("obs-inertness-digest: {:016x}", fnv1a(payload.as_bytes()));
}

/// FNV-1a, 64-bit: the digest CI compares across feature configs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
