//! Microbenchmarks for the recode planner's matching step (the engine
//! of `RecodeOnJoin`, paper §4.1 steps 3–5; the paper bounds the join
//! cost by the matching at `O(k^9 ln k)` from Galil's survey — the
//! Hungarian algorithm is far below that bound).
//!
//! `plan_recode` is what Minim runs: the dense Hungarian kernel,
//! instance build included. `hungarian_oracle` solves the same
//! instances with `max_weight_matching` over a `WeightedBipartite`,
//! the reference the kernel is tested against. Shapes are members ×
//! colors; 60 × 140 is the dense-serve planner's typical instance.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use minim_core::{plan_recode, KEEP_WEIGHT};
use minim_graph::Color;
use minim_matching::{max_weight_matching, WeightedBipartite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHAPES: [(usize, u32); 3] = [(20, 30), (60, 140), (100, 330)];

/// A join-shaped planner input: old colors drawn from `1..=colors`,
/// members 0 and 1 sharing one (so the plan must reach the matching),
/// the last member an uncolored joiner, and each member barred from
/// about 20% of the other colors.
fn join_inputs(members: usize, colors: u32, seed: u64) -> (Vec<Option<Color>>, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut old: Vec<Option<Color>> = (0..members)
        .map(|_| Some(Color::new(rng.gen_range(1..=colors))))
        .collect();
    old[1] = old[0];
    old[members - 1] = None;
    let forbidden = old
        .iter()
        .map(|o| {
            (1..=colors)
                .filter(|&k| *o != Some(Color::new(k)) && rng.gen_bool(0.2))
                .collect()
        })
        .collect();
    (old, forbidden)
}

/// The instance `plan_recode` solves, as the oracle's sparse graph:
/// members × colors `1..=max`, `max` the largest color in the inputs.
fn oracle_instance(old: &[Option<Color>], forbidden: &[Vec<u32>]) -> WeightedBipartite {
    let max = old
        .iter()
        .flatten()
        .map(|c| c.index())
        .chain(forbidden.iter().flatten().copied())
        .max()
        .unwrap_or(0);
    let mut g = WeightedBipartite::new(old.len(), max as usize);
    for (i, (o, f)) in old.iter().zip(forbidden).enumerate() {
        for k in (1..=max).filter(|k| f.binary_search(k).is_err()) {
            let w = if *o == Some(Color::new(k)) {
                KEEP_WEIGHT
            } else {
                1
            };
            g.add_edge(i, k as usize - 1, w);
        }
    }
    g
}

fn bench_plan_recode(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_recode");
    for &(members, colors) in &SHAPES {
        let inputs = join_inputs(members, colors, 42);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{members}x{colors}")),
            &inputs,
            |b, (old, forbidden)| b.iter(|| black_box(plan_recode(old, forbidden, KEEP_WEIGHT))),
        );
    }
    group.finish();
}

fn bench_hungarian_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian_oracle");
    for &(members, colors) in &SHAPES {
        let (old, forbidden) = join_inputs(members, colors, 42);
        let g = oracle_instance(&old, &forbidden);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{members}x{colors}")),
            &g,
            |b, g| b.iter(|| black_box(max_weight_matching(g))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_plan_recode, bench_hungarian_oracle
}
criterion_main!(benches);
