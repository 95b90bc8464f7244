//! Incremental-vs-rebuild equivalence — the correctness contract of
//! the incremental SINR engine.
//!
//! The engine's performance story (CSR delta patching, active-set
//! relaxation, warm starts) is only admissible because each shortcut
//! is *exactly* equivalent to the thing it avoids recomputing:
//!
//! * a [`SinrField`] patched through any join/leave/move/retune churn
//!   is **bit-identical** to a field rebuilt from scratch on the final
//!   geometry (same slots, same receivers, same direct-gain bits, same
//!   CSR rows — with and without walls),
//! * cold event-driven relaxation reaches the full synchronous sweep's
//!   fixed point — within tolerance on the continuous ladder (unique
//!   fixed point, Yates), **exactly** on the geometric ladder (both
//!   climb from all-min to the least fixed point), with the same
//!   [`Feasibility`] verdict,
//! * warm relaxation from a previous equilibrium, re-seeded with only
//!   the patched field's dirty rows, agrees with a cold solve of the
//!   patched field, and
//! * a [`PowerSession`] tracking churn incrementally lands on the same
//!   equilibrium a from-scratch [`PowerLoop`] computes on the final
//!   topology (its corrections leave nothing for the batch loop to
//!   re-lower), and
//! * the SIMD arm of the interference accumulation is **bitwise
//!   equal** to the scalar reference on every row length, including
//!   the empty, sub-lane, and lane-straddling shapes where a tail bug
//!   would hide — so the vector kernel moves no fixed point.

use minim::geom::{sample, Point, Rect, Segment, SegmentGrid};
use minim::net::event::{apply_topology, Event};
use minim::net::workload::{MixWorkload, Placement, RangeDist};
use minim::net::{Network, NodeConfig};
use minim::power::sinr::FieldEvent;
use minim::power::{
    relax, run_with, weighted_sum_scalar, weighted_sum_simd, ControlScratch, Feasibility,
    GainModel, LinkBudget, PowerLadder, PowerLoop, PowerLoopConfig, PowerSession, SinrField,
    Verdict, LANES, NO_RECEIVER,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 48;

/// Enough walls to push `SegmentGrid::crossings` past its linear-scan
/// cutoff, so the patched gains exercise the rasterized query.
fn wall_grid(rng: &mut StdRng) -> SegmentGrid {
    let mut grid = SegmentGrid::new(10.0);
    for _ in 0..6 {
        let x = rng.gen_range(5.0..95.0);
        let y = rng.gen_range(5.0..75.0);
        grid.insert(Segment::new(Point::new(x, y), Point::new(x, y + 20.0)));
    }
    grid
}

/// Model state the churn driver keeps alongside the patched field: the
/// plain arrays a from-scratch build consumes.
struct Model {
    positions: Vec<Point>,
    receiver: Vec<u32>,
}

impl Model {
    fn live(&self) -> Vec<u32> {
        (0..SLOTS as u32)
            .filter(|&i| self.receiver[i as usize] != NO_RECEIVER)
            .collect()
    }
}

/// Draws one admissible churn event against the model, applies it to
/// both the model and the field. Leaves retune every aimer first (the
/// field's documented contract: a row's receiver must outlive it).
fn churn_step(rng: &mut StdRng, model: &mut Model, field: &mut SinrField, arena: &Rect) {
    let live = model.live();
    let pick_receiver = |rng: &mut StdRng, me: u32, live: &[u32]| -> u32 {
        let others: Vec<u32> = live.iter().copied().filter(|&j| j != me).collect();
        if others.is_empty() || rng.gen_bool(0.15) {
            me // dead link (lonely or deliberately untuned)
        } else {
            others[rng.gen_range(0..others.len())]
        }
    };
    let roll: f64 = rng.gen();
    if live.len() < 3 || (roll < 0.3 && live.len() < SLOTS) {
        // Join into a random absent slot (holes get reused).
        let absent: Vec<u32> = (0..SLOTS as u32)
            .filter(|&i| model.receiver[i as usize] == NO_RECEIVER)
            .collect();
        let node = absent[rng.gen_range(0..absent.len())];
        let pos = sample::uniform_point(rng, arena);
        let receiver = pick_receiver(rng, node, &live);
        model.positions[node as usize] = pos;
        model.receiver[node as usize] = receiver;
        field.apply(&FieldEvent::Join {
            node,
            pos,
            receiver,
        });
    } else if roll < 0.5 {
        // Leave: retune aimers off the victim first.
        let victim = live[rng.gen_range(0..live.len())];
        let survivors: Vec<u32> = live.iter().copied().filter(|&j| j != victim).collect();
        for k in &survivors {
            if model.receiver[*k as usize] == victim {
                let receiver = pick_receiver(rng, *k, &survivors);
                model.receiver[*k as usize] = receiver;
                field.apply(&FieldEvent::Retune { node: *k, receiver });
            }
        }
        model.receiver[victim as usize] = NO_RECEIVER;
        field.apply(&FieldEvent::Leave { node: victim });
    } else if roll < 0.8 {
        let node = live[rng.gen_range(0..live.len())];
        let pos = sample::uniform_point(rng, arena);
        model.positions[node as usize] = pos;
        field.apply(&FieldEvent::Move { node, pos });
    } else {
        let node = live[rng.gen_range(0..live.len())];
        let receiver = pick_receiver(rng, node, &live);
        model.receiver[node as usize] = receiver;
        field.apply(&FieldEvent::Retune { node, receiver });
    }
}

/// The floor the session derives: interferers below this fraction of
/// the noise floor at max power are dropped.
fn test_floor() -> f64 {
    let cfg = PowerLoopConfig::for_range_scale(25.0);
    cfg.floor_frac * cfg.budget.noise / cfg.control().max_power
}

fn seeded_model(rng: &mut StdRng, arena: &Rect, n0: usize) -> Model {
    let mut model = Model {
        positions: vec![Point::new(0.0, 0.0); SLOTS],
        receiver: vec![NO_RECEIVER; SLOTS],
    };
    for i in 0..n0 {
        model.positions[i] = sample::uniform_point(rng, arena);
    }
    for i in 0..n0 {
        // Aim at a random other seeded node.
        let mut r = rng.gen_range(0..n0 as u32);
        if r == i as u32 {
            r = (r + 1) % n0 as u32;
        }
        model.receiver[i] = r;
    }
    model
}

proptest! {
    /// Tentpole contract #1: delta patching is indistinguishable from
    /// rebuilding. `SinrField`'s `PartialEq` compares per-slot
    /// presence, receivers, positions, direct-gain *bits*, and CSR row
    /// ids + gain bits — so this pins bit-identical interference sums.
    #[test]
    fn patched_field_is_bit_identical_to_rebuild(
        seed in 0u64..24,
        steps in 8usize..28,
        walls_roll in 0u32..2,
    ) {
        let with_walls = walls_roll == 1;
        let arena = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let gain = GainModel::terrain();
        let budget = LinkBudget::cdma64();
        let floor = test_floor();
        let walls = with_walls.then(|| wall_grid(&mut rng));
        let mut model = seeded_model(&mut rng, &arena, 6);
        let mut field = SinrField::build(
            &gain, budget, &model.positions, &model.receiver, walls.as_ref(), floor,
        );
        for step in 0..steps {
            churn_step(&mut rng, &mut model, &mut field, &arena);
            let rebuilt = SinrField::build(
                &gain, budget, &model.positions, &model.receiver, walls.as_ref(), floor,
            );
            prop_assert!(
                field == rebuilt,
                "patched field diverged from rebuild at step {step} (seed {seed}, walls {with_walls})"
            );
        }
    }

    /// Tentpole contract #2: cold active-set relaxation and the full
    /// synchronous sweep agree. Continuous ladder: same fixed point
    /// within tolerance, same feasibility verdict. Geometric ladder:
    /// *identical* rung vectors (both orders climb from all-min to the
    /// least fixed point of a monotone finite map).
    #[test]
    fn cold_relaxation_matches_full_sweep(
        seed in 100u64..124,
        n in 6usize..18,
        ladder_roll in 0u32..2,
    ) {
        let geometric = ladder_roll == 1;
        let arena = Rect::new(0.0, 0.0, 60.0, 60.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let gain = GainModel::terrain();
        let budget = LinkBudget::cdma64();
        let model = seeded_model(&mut rng, &arena, n);
        let field = SinrField::build(
            &gain, budget, &model.positions, &model.receiver, None, test_floor(),
        );
        let loop_cfg = PowerLoopConfig::for_range_scale(25.0);
        let mut cfg = loop_cfg.control();
        if geometric {
            cfg.ladder = PowerLadder::Geometric { levels: 12 };
        }
        let mut sweep = ControlScratch::new();
        let sweep_report = run_with(&field, &cfg, &mut sweep);
        let mut active = ControlScratch::new();
        let relax_report = relax(&field, &cfg, &mut active, false);
        prop_assert_eq!(
            sweep.feasibility(sweep_report.verdict),
            active.feasibility(relax_report.verdict),
            "feasibility verdicts diverged (seed {}, geometric {})", seed, geometric
        );
        if geometric {
            prop_assert_eq!(
                &sweep.powers, &active.powers,
                "geometric rungs must match exactly (seed {})", seed
            );
        } else if matches!(sweep_report.verdict, Verdict::Converged | Verdict::PowerCapped) {
            for i in 0..field.len() {
                if !field.is_live(i) {
                    continue;
                }
                let (a, b) = (sweep.powers[i], active.powers[i]);
                prop_assert!(
                    (a - b).abs() <= 5e-3 * a.abs().max(b.abs()),
                    "fixed points diverged at row {i}: sweep {a} vs relax {b} (seed {seed})"
                );
            }
        }
    }

    /// Tentpole contract #3: warm relaxation seeded with only the
    /// patched field's dirty rows agrees with a cold solve of the
    /// patched field (continuous ladder — the warm-start regime).
    #[test]
    fn warm_relaxation_after_patch_matches_cold_solve(
        seed in 200u64..224,
        steps in 2usize..10,
    ) {
        let arena = Rect::new(0.0, 0.0, 80.0, 80.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let gain = GainModel::terrain();
        let budget = LinkBudget::cdma64();
        let floor = test_floor();
        let mut model = seeded_model(&mut rng, &arena, 8);
        let mut field = SinrField::build(
            &gain, budget, &model.positions, &model.receiver, None, floor,
        );
        let cfg = PowerLoopConfig::for_range_scale(25.0).control();
        let mut warm = ControlScratch::new();
        let first = relax(&field, &cfg, &mut warm, false);
        if first.verdict == Verdict::Diverging {
            return Ok(()); // no equilibrium to warm-start from
        }
        let mut dirty = Vec::new();
        field.take_dirty(&mut dirty); // build marks nothing; clear anyway
        for _ in 0..steps {
            churn_step(&mut rng, &mut model, &mut field, &arena);
        }
        field.take_dirty(&mut dirty);
        warm.fit(field.len(), cfg.start_power());
        for &k in &dirty {
            warm.mark(k);
        }
        let warm_report = relax(&field, &cfg, &mut warm, true);
        let mut cold = ControlScratch::new();
        let cold_report = relax(&field, &cfg, &mut cold, false);
        prop_assert_eq!(
            warm.feasibility(warm_report.verdict),
            cold.feasibility(cold_report.verdict),
            "warm and cold verdicts diverged (seed {})", seed
        );
        if warm_report.verdict != Verdict::Diverging {
            for i in 0..field.len() {
                if !field.is_live(i) {
                    continue;
                }
                let (a, b) = (warm.powers[i], cold.powers[i]);
                prop_assert!(
                    (a - b).abs() <= 5e-3 * a.abs().max(b.abs()),
                    "warm vs cold diverged at row {i}: {a} vs {b} (seed {seed})"
                );
            }
        }
    }
}

/// End-to-end: a session that tracked a long churn stream leaves the
/// batch loop nothing to correct — running the from-scratch
/// [`PowerLoop`] on the final topology emits only sub-tolerance range
/// nudges. (The session and the loop share the nearest-neighbor
/// receiver rule including its lowest-index tie-break, so receivers
/// agree and the continuous fixed point is unique.)
#[test]
fn session_equilibrium_leaves_nothing_for_the_batch_loop() {
    for seed in [5u64, 23, 71] {
        let mut rng = StdRng::seed_from_u64(seed);
        let arena = Rect::paper_arena();
        let mut cfg = PowerLoopConfig::for_range_scale(25.0);
        cfg.target_sinr = 2.0;
        let mut net = Network::new(50.0);
        let placement = Placement::Uniform { arena };
        let ranges = RangeDist::paper();
        for _ in 0..30 {
            net.join(NodeConfig::new(
                placement.sample(&mut rng),
                ranges.sample(&mut rng),
            ));
        }
        let mut session = PowerSession::new(cfg, &net);
        let workload = MixWorkload {
            steps: 40,
            join_prob: 0.3,
            leave_prob: 0.25,
            maxdisp: 20.0,
            placement,
            ranges,
        };
        let settle_into = |session: &mut PowerSession, net: &mut Network| {
            let (corrections, report) = session.settle();
            for e in corrections {
                apply_topology(net, e);
            }
            report
        };
        settle_into(&mut session, &mut net);
        for step in 0..workload.steps {
            let e = workload.next_event(&net, &mut rng);
            match &e {
                Event::Join { cfg } => {
                    let id = net.peek_next_id();
                    apply_topology(&mut net, &e);
                    session.apply_join(id.0, cfg.pos, cfg.range);
                }
                Event::Leave { node } => {
                    apply_topology(&mut net, &e);
                    session.apply_leave(node.0);
                }
                Event::Move { node, to } => {
                    apply_topology(&mut net, &e);
                    session.apply_move(node.0, *to);
                }
                Event::SetRange { node, range } => {
                    apply_topology(&mut net, &e);
                    session.note_range(node.0, *range);
                }
            }
            if (step + 1) % 5 == 0 {
                settle_into(&mut session, &mut net);
            }
        }
        let report = settle_into(&mut session, &mut net);
        if report.verdict == Verdict::Diverging || net.node_count() < 2 {
            continue; // no tracked equilibrium to compare against
        }
        // The from-scratch batch loop on the final topology must agree:
        // every correction it still wants is a sub-tolerance nudge.
        let outcome = PowerLoop::new(cfg).run(&net, &[]);
        if !matches!(
            outcome.report.feasibility,
            Feasibility::Converged | Feasibility::PowerCapped { .. }
        ) {
            continue;
        }
        for e in &outcome.events {
            let Event::SetRange { node, range } = e else {
                panic!("continuous loop without drops emits only set-ranges, got {e:?}");
            };
            let old = net.config(*node).expect("emitted for a present node").range;
            assert!(
                (range - old).abs() <= 1e-3 * old.max(*range),
                "seed {seed}: batch loop still wants {node:?}: {old} -> {range}"
            );
        }
    }
}

/// SIMD ≡ scalar bitwise on the adversarial lengths: empty, single,
/// lane−1 / lane / lane+1 (the tail boundary), and a long row — over
/// gains and powers with spread exponents so reassociation would show.
#[test]
fn simd_accumulation_matches_scalar_bitwise() {
    let mut s = 0x5EEDu64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mant = (s >> 11) as f64 / (1u64 << 53) as f64;
        let exp = ((s >> 3) % 60) as i32 - 30;
        (mant + 0.5) * 2f64.powi(exp)
    };
    let powers: Vec<f64> = (0..512).map(|_| next()).collect();
    for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES, 97, 300] {
        let gains: Vec<f64> = (0..n).map(|_| next()).collect();
        let ids: Vec<u32> = (0..n as u32).map(|k| (k * 37) % 512).collect();
        let a = weighted_sum_scalar(&ids, &gains, &powers);
        let b = weighted_sum_simd(&ids, &gains, &powers);
        assert_eq!(a.to_bits(), b.to_bits(), "length {n}");
    }
}
