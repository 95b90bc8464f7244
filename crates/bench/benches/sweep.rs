//! Scenario-lab sweep throughput: how fast the declarative driver
//! turns a spec into a `SweepResult`, serial vs parallel.
//!
//! `sweep/<preset>/<workers>` runs a thinned preset end to end —
//! replicate generation, strategy execution, aggregation — so the
//! number is the real cost a `minim-lab run` pays per sweep. The
//! `workers=1` vs `workers=8` pair measures the worker-pool speedup on
//! the replicate fan-out; results are bit-identical by construction
//! (see `tests/scenario_determinism.rs`), so the bench is purely about
//! throughput.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use minim_sim::presets;
use minim_sim::scenario::{ExperimentConfig, Scenario, ScenarioSpec, SweepAxis};

fn thin_specs() -> Vec<ScenarioSpec> {
    vec![
        presets::fig10_vs_n(vec![40, 80]),
        presets::clustered_churn().sweep(SweepAxis::MixSteps(vec![60])),
    ]
}

fn bench_sweep_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    for spec in thin_specs() {
        for workers in [1usize, 8] {
            let scenario = Scenario::new(spec.clone()).expect("bench specs validate");
            let cfg = ExperimentConfig {
                runs: 8,
                seed: 0xBE7C,
                workers,
            };
            group.bench_with_input(BenchmarkId::new(&spec.name, workers), &cfg, |b, cfg| {
                b.iter(|| black_box(scenario.run(cfg)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_throughput);
criterion_main!(benches);
