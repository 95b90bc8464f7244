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
//! * cold event-driven relaxation reaches the fixed point of the
//!   synchronous sweep ([`sweep`], the reference implementation, which
//!   lives only here) — within tolerance on the continuous ladder
//!   (unique fixed point, Yates), **exactly** on the geometric ladder
//!   (both climb from all-min to the least fixed point), with the same
//!   verdict and capped list,
//! * warm relaxation from a previous equilibrium, re-seeded with only
//!   the patched field's dirty rows, agrees with a cold solve of the
//!   patched field, and
//! * a batch [`PowerLoop`] and the first settle of a fresh
//!   [`PowerSession`] on the same network emit **exactly** the same
//!   events — both are one cold [`relax`] — across id gaps, walls,
//!   both ladders and overloaded targets,
//! * a [`PowerSession`] tracking churn incrementally lands on the same
//!   equilibrium a from-scratch [`PowerLoop`] computes on the final
//!   topology (its corrections leave nothing for the batch loop to
//!   re-lower),
//! * [`relax`]'s verdict and capped list, which a drained run reads off
//!   only the links near the cap, equal a classification that
//!   recomputes every SINR — cold and warm, on overloaded clumps and
//!   under budgets tight enough to diverge,
//! * a warm [`PowerSession::settle`], which lowers only the links it
//!   wrote or whose range changed, emits exactly what a full-scan
//!   lowering of [`PowerSession::powers`] emits, and
//! * the SIMD arm of the interference accumulation is **bitwise
//!   equal** to the scalar reference on every row length, including
//!   the empty, sub-lane, and lane-straddling shapes where a tail bug
//!   would hide — so the vector kernel moves no fixed point.

use minim::geom::{sample, Point, Rect, Segment, SegmentGrid};
use minim::graph::NodeId;
use minim::net::event::{apply_topology, Event};
use minim::net::workload::{MixWorkload, Placement, RangeDist};
use minim::net::{Network, NodeConfig};
use minim::power::sinr::FieldEvent;
use minim::power::{
    relax, weighted_sum_scalar, weighted_sum_simd, ControlConfig, ControlScratch, GainModel,
    LinkBudget, PowerLadder, PowerLoop, PowerLoopConfig, PowerSession, SinrField, Verdict, LANES,
    NO_RECEIVER,
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

/// `pairs` short links (partners within 12 units, aiming at each
/// other) plus an overloaded clump: a hub and `clump` transmitters a
/// few units from it, packed within a unit of each other and all
/// aiming at the hub.
fn clumped_model(rng: &mut StdRng, arena: &Rect, pairs: usize, clump: usize) -> Model {
    assert!(2 * pairs + 1 + clump <= SLOTS);
    let mut model = Model {
        positions: vec![Point::new(0.0, 0.0); SLOTS],
        receiver: vec![NO_RECEIVER; SLOTS],
    };
    for k in 0..pairs {
        let (a, b) = (2 * k, 2 * k + 1);
        let pa = sample::uniform_point(rng, arena);
        model.positions[a] = pa;
        model.positions[b] = Point::new(
            pa.x + rng.gen_range(-12.0..12.0),
            pa.y + rng.gen_range(-12.0..12.0),
        );
        model.receiver[a] = b as u32;
        model.receiver[b] = a as u32;
    }
    let hub = 2 * pairs;
    let at = sample::uniform_point(rng, arena);
    model.positions[hub] = at;
    model.receiver[hub] = 0;
    for k in 0..clump {
        let i = hub + 1 + k;
        model.positions[i] = Point::new(at.x + 6.0 + 0.1 * k as f64, at.y);
        model.receiver[i] = hub as u32;
    }
    model
}

/// The classification oracle: every SINR recomputed with
/// [`SinrField::sinrs`] and the "met" rule applied to every live link.
/// Returns the fixed-point verdict and the capped list: the unmet links
/// at the cap, or every unmet link when none is.
fn oracle_classification(
    field: &SinrField,
    cfg: &ControlConfig,
    powers: &[f64],
) -> (Verdict, Vec<u32>) {
    let sinrs = field.sinrs(powers);
    let met = |sinr: f64| sinr >= cfg.target_sinr * (1.0 - 4.0 * cfg.tol);
    let unmet: Vec<u32> = (0..field.len())
        .filter(|&i| field.is_live(i) && !met(sinrs[i]))
        .map(|i| i as u32)
        .collect();
    if unmet.is_empty() {
        return (Verdict::Converged, unmet);
    }
    let at_cap: Vec<u32> = unmet
        .iter()
        .copied()
        .filter(|&i| powers[i as usize] >= cfg.max_power * (1.0 - 1e-12))
        .collect();
    let capped = if at_cap.is_empty() { unmet } else { at_cap };
    (Verdict::PowerCapped, capped)
}

/// A run's verdict with the links it names: the capped list of a
/// [`Verdict::PowerCapped`] run, nothing otherwise.
fn named(verdict: Verdict, capped: &[u32]) -> (Verdict, Vec<u32>) {
    let capped = if verdict == Verdict::PowerCapped {
        capped.to_vec()
    } else {
        Vec::new()
    };
    (verdict, capped)
}

/// The synchronous Foschini–Miljanic sweep, the reference [`relax`] is
/// checked against: every live link updates from the previous iterate
/// each round, starting from the all-minimum vector, until no link
/// moves by more than `tol` (relative; by anything on a geometric
/// ladder) or `max_iters` rounds run out. Returns the powers, the
/// verdict and the capped list, classified over every live link by
/// [`oracle_classification`].
fn sweep(field: &SinrField, cfg: &ControlConfig) -> (Vec<f64>, Verdict, Vec<u32>) {
    let processing_gain = field.budget().processing_gain;
    let mut powers = vec![cfg.start_power(); field.len()];
    for _ in 0..cfg.max_iters {
        let mut max_rel = 0.0f64;
        let next: Vec<f64> = (0..field.len())
            .map(|i| {
                if !field.is_live(i) {
                    return powers[i];
                }
                let g = field.direct_gain(i);
                let desired = if g > 0.0 {
                    cfg.target_sinr * field.interference(&powers, i) / (processing_gain * g)
                } else {
                    f64::INFINITY
                };
                let q = cfg.ladder.quantize_up(
                    desired.clamp(cfg.min_power, cfg.max_power),
                    cfg.min_power,
                    cfg.max_power,
                );
                max_rel = max_rel.max((q - powers[i]).abs() / powers[i]);
                q
            })
            .collect();
        powers = next;
        let done = match cfg.ladder {
            PowerLadder::Continuous => max_rel <= cfg.tol,
            PowerLadder::Geometric { .. } => max_rel == 0.0,
        };
        if done {
            let (verdict, capped) = oracle_classification(field, cfg, &powers);
            return (powers, verdict, capped);
        }
    }
    let (_, capped) = oracle_classification(field, cfg, &powers);
    (powers, Verdict::Diverging, capped)
}

/// A random network with id gaps: `n` nodes in one to four clusters
/// of random spread (tight clusters overload high targets, stragglers
/// beyond the range cap are noise-limited), with random ranges and
/// three walls when `walls`; then a third of the nodes leave again.
fn gapped_network(rng: &mut StdRng, n: usize, walls: bool) -> Network {
    let arena = Rect::new(0.0, 0.0, 150.0, 150.0);
    let mut net = Network::new(50.0);
    if walls {
        for _ in 0..3 {
            let at = sample::uniform_point(rng, &arena);
            net.add_obstacle(Segment::new(at, Point::new(at.x + 4.0, at.y + 25.0)));
        }
    }
    let centers: Vec<Point> = (0..rng.gen_range(1..5))
        .map(|_| sample::uniform_point(rng, &arena))
        .collect();
    let placement = Placement::Clustered {
        centers,
        spread: rng.gen_range(2.0..30.0),
        arena,
    };
    for _ in 0..n {
        net.join(NodeConfig::new(
            placement.sample(rng),
            rng.gen_range(5.0..40.0),
        ));
    }
    for _ in 0..n / 3 {
        let k = rng.gen_range(0..net.node_count());
        let id = net.iter_nodes().nth(k).expect("k < count");
        net.remove_node(id);
    }
    net
}

/// Runs the batch [`PowerLoop`] and the first settle of a fresh
/// [`PowerSession`] on one [`gapped_network`] and checks they agree
/// exactly: events, verdict, update count and infeasible ids. Returns
/// the verdict.
fn check_loop_matches_cold_session(
    seed: u64,
    n: usize,
    walls: bool,
    geometric: bool,
    target: f64,
) -> Verdict {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = gapped_network(&mut rng, n, walls);
    let mut cfg = PowerLoopConfig::for_range_scale(25.0);
    cfg.target_sinr = target;
    if geometric {
        cfg.ladder = PowerLadder::Geometric { levels: 12 };
    }
    let batch = PowerLoop::new(cfg).run(&net);
    let mut session = PowerSession::new(cfg, &net);
    let (events, report) = session.settle();
    let case = format!("seed {seed}, n {n}, walls {walls}, geometric {geometric}, target {target}");
    assert_eq!(events, &batch.events[..], "events ({case})");
    assert_eq!(report.verdict, batch.report.verdict, "verdict ({case})");
    assert_eq!(report.updates, batch.report.updates, "updates ({case})");
    let (_, capped) = named(report.verdict, session.capped());
    let capped: Vec<NodeId> = capped.into_iter().map(NodeId).collect();
    assert_eq!(batch.report.infeasible, capped, "infeasible ids ({case})");
    report.verdict
}

/// The session's control loop with the given target, budget and
/// tolerance, on the continuous or a 12-rung geometric ladder.
fn control_cfg(target: f64, max_iters: usize, tol: f64, geometric: bool) -> ControlConfig {
    let mut cfg = PowerLoopConfig::for_range_scale(25.0).control();
    cfg.target_sinr = target;
    cfg.max_iters = max_iters;
    cfg.tol = tol;
    if geometric {
        cfg.ladder = PowerLadder::Geometric { levels: 12 };
    }
    cfg
}

/// Runs a cold [`relax`] under `cfg` on a clumped random field, then
/// (continuous ladder, no divergence) churns it — [`churn_step`]s, or
/// nudges of a few units that keep short links short when `nudge` —
/// and runs a warm one, checking each verdict and capped list against
/// [`oracle_classification`]. A diverging run keeps the full
/// classification's capped list. Returns the `(warm, verdict)` of every
/// run so coverage can be asserted.
fn check_relax_classification(
    seed: u64,
    clump: usize,
    cfg: ControlConfig,
    steps: usize,
    nudge: bool,
) -> Vec<(bool, Verdict)> {
    let arena = Rect::new(0.0, 0.0, 150.0, 150.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let gain = GainModel::terrain();
    let budget = LinkBudget::cdma64();
    let floor = test_floor();
    let mut model = clumped_model(&mut rng, &arena, 5, clump);
    let mut field = SinrField::build(
        &gain,
        budget,
        &model.positions,
        &model.receiver,
        None,
        floor,
    );
    let check = |field: &SinrField, scratch: &ControlScratch, verdict: Verdict, warm: bool| {
        let (expect, capped) = oracle_classification(field, &cfg, &scratch.powers);
        assert_eq!(
            scratch.capped, capped,
            "capped list (seed {seed}, clump {clump}, warm {warm}, {cfg:?})"
        );
        if verdict != Verdict::Diverging {
            assert_eq!(
                verdict, expect,
                "verdict (seed {seed}, clump {clump}, warm {warm}, {cfg:?})"
            );
        }
    };
    let mut seen = Vec::new();
    let mut scratch = ControlScratch::new();
    let cold = relax(&field, &cfg, &mut scratch, false);
    check(&field, &scratch, cold.verdict, false);
    seen.push((false, cold.verdict));
    if cfg.ladder != PowerLadder::Continuous || cold.verdict == Verdict::Diverging {
        return seen;
    }
    let mut dirty = Vec::new();
    field.take_dirty(&mut dirty);
    for _ in 0..steps {
        if nudge {
            let live = model.live();
            let node = live[rng.gen_range(0..live.len())];
            let at = model.positions[node as usize];
            let pos = Point::new(
                at.x + rng.gen_range(-3.0..3.0),
                at.y + rng.gen_range(-3.0..3.0),
            );
            model.positions[node as usize] = pos;
            field.apply(&FieldEvent::Move { node, pos });
        } else {
            churn_step(&mut rng, &mut model, &mut field, &arena);
        }
    }
    field.take_dirty(&mut dirty);
    scratch.fit(field.len(), cfg.start_power());
    for &k in &dirty {
        scratch.mark(k);
    }
    let warm = relax(&field, &cfg, &mut scratch, true);
    check(&field, &scratch, warm.verdict, true);
    seen.push((true, warm.verdict));
    seen
}

/// One churned [`PowerSession`] run: every settle's events must equal
/// a full-scan lowering of [`PowerSession::powers`] against a mirrored
/// range table kept here (updated by joins, exogenous range changes and
/// the lowering itself). Returns the number of events of each settle.
fn check_session_lowering(seed: u64, geometric: bool, max_iters: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let arena = Rect::new(0.0, 0.0, 120.0, 120.0);
    let mut cfg = PowerLoopConfig::for_range_scale(25.0);
    cfg.target_sinr = 3.0;
    cfg.max_iters = max_iters;
    if geometric {
        cfg.ladder = PowerLadder::Geometric { levels: 12 };
    }
    let placement = Placement::Uniform { arena };
    let ranges = RangeDist::paper();
    let mut net = Network::new(50.0);
    for _ in 0..24 {
        net.join(NodeConfig::new(
            placement.sample(&mut rng),
            ranges.sample(&mut rng),
        ));
    }
    let mut session = PowerSession::new(cfg, &net);
    let mut mirror: Vec<f64> = vec![0.0; net.peek_next_id().0 as usize];
    for id in net.iter_nodes() {
        mirror[id.index()] = net.config(id).expect("listed").range;
    }
    let workload = MixWorkload {
        steps: 60,
        join_prob: 0.25,
        leave_prob: 0.2,
        maxdisp: 25.0,
        placement,
        ranges,
    };
    let mut emitted = Vec::new();
    for step in 0..=workload.steps {
        if step > 0 {
            let e = if rng.gen_bool(0.2) && net.node_count() > 0 {
                let k = rng.gen_range(0..net.node_count());
                let node = net.iter_nodes().nth(k).expect("k < count");
                Event::SetRange {
                    node,
                    range: rng.gen_range(1.0..60.0),
                }
            } else {
                workload.next_event(&net, &mut rng)
            };
            match &e {
                Event::Join { cfg } => {
                    let id = net.peek_next_id();
                    apply_topology(&mut net, &e);
                    session.apply_join(id.0, cfg.pos, cfg.range);
                    if mirror.len() <= id.index() {
                        mirror.resize(id.index() + 1, 0.0);
                    }
                    mirror[id.index()] = cfg.range;
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
                    mirror[node.index()] = *range;
                }
            }
        }
        if step % 4 != 0 {
            continue;
        }
        let (events, report) = session.settle();
        let events = events.to_vec();
        let mut expect = Vec::new();
        if report.links >= 2 {
            let field = session.field();
            for (i, &p) in session.powers()[..field.len()].iter().enumerate() {
                if !field.is_live(i) {
                    continue;
                }
                let range = cfg.range_for_power(p);
                if (range - mirror[i]).abs() > cfg.range_epsilon {
                    expect.push(Event::SetRange {
                        node: NodeId(i as u32),
                        range,
                    });
                    mirror[i] = range;
                }
            }
        }
        assert_eq!(
            events, expect,
            "settle after step {step} (seed {seed}, geometric {geometric}, budget {max_iters})"
        );
        for e in &events {
            apply_topology(&mut net, e);
        }
        emitted.push(events.len());
    }
    emitted
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
        let (swept, sweep_verdict, sweep_capped) = sweep(&field, &cfg);
        let mut active = ControlScratch::new();
        let relax_report = relax(&field, &cfg, &mut active, false);
        prop_assert_eq!(
            named(sweep_verdict, &sweep_capped),
            named(relax_report.verdict, &active.capped),
            "verdicts diverged (seed {}, geometric {})", seed, geometric
        );
        if geometric {
            prop_assert_eq!(
                &swept, &active.powers,
                "geometric rungs must match exactly (seed {})", seed
            );
        } else if sweep_verdict != Verdict::Diverging {
            for (i, (&a, &b)) in swept.iter().zip(&active.powers).enumerate() {
                if !field.is_live(i) {
                    continue;
                }
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
            named(warm_report.verdict, &warm.capped),
            named(cold_report.verdict, &cold.capped),
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

proptest! {
    /// The batch loop is a cold session: on random networks with id
    /// gaps, with and without walls, on both ladders and at targets that
    /// overload some instances, [`PowerLoop::run`] emits exactly the
    /// events of a fresh [`PowerSession`]'s first settle.
    #[test]
    fn batch_loop_equals_cold_session(
        seed in 500u64..756,
        n in 6usize..40,
        walls_roll in 0u32..2,
        ladder_roll in 0u32..2,
        target_roll in 0usize..3,
    ) {
        check_loop_matches_cold_session(
            seed,
            n,
            walls_roll == 1,
            ladder_roll == 1,
            [1.0, 4.0, 16.0][target_roll],
        );
    }

    /// A drained [`relax`] classifies only the links near the cap; the
    /// verdict and capped list must still equal a classification that
    /// recomputes every SINR, after cold and warm runs, on overloaded
    /// clumps (`PowerCapped`), under tight budgets (`Diverging`), and at
    /// tolerances from `1e-3` down to below the screen's `1e-12` floor.
    #[test]
    fn relax_classification_matches_full_sinr_oracle(
        seed in 300u64..364,
        clump in 0usize..9,
        target_roll in 0usize..3,
        budget_roll in 0usize..3,
        tol_roll in 0usize..3,
        ladder_roll in 0u32..2,
        steps in 1usize..8,
        nudge_roll in 0u32..2,
    ) {
        let cfg = control_cfg(
            [2.0, 4.0, 16.0][target_roll],
            [1, 3, 200][budget_roll],
            [1e-6, 1e-3, 1e-13][tol_roll],
            ladder_roll == 1,
        );
        check_relax_classification(seed, clump, cfg, steps, nudge_roll == 1);
    }

    /// Over a churned session, each settle emits exactly what a
    /// full-scan lowering of the powers against the mirrored ranges
    /// emits — warm settles lower only the written or re-noted links,
    /// cold ones (geometric ladder, after a divergence) every link.
    #[test]
    fn session_settles_equal_a_full_scan_lowering(
        seed in 400u64..432,
        ladder_roll in 0u32..2,
        budget_roll in 0usize..2,
    ) {
        check_session_lowering(seed, ladder_roll == 1, [2, 200][budget_roll]);
    }
}

/// The loop-vs-session property is not vacuous: over a fixed seed
/// range it reaches both fixed-point verdicts on both ladders.
#[test]
fn loop_vs_session_property_reaches_overload() {
    for geometric in [false, true] {
        let mut seen = Vec::new();
        for seed in 0..12u64 {
            for target in [1.0, 4.0, 16.0] {
                seen.push(check_loop_matches_cold_session(
                    seed,
                    30,
                    seed % 2 == 1,
                    geometric,
                    target,
                ));
            }
        }
        for verdict in [Verdict::Converged, Verdict::PowerCapped] {
            assert!(
                seen.contains(&verdict),
                "no {verdict:?} instance (geometric {geometric})"
            );
        }
    }
}

/// The two properties above are not vacuous: over a fixed seed range
/// they reach every verdict, warm and cold, and settles that emit.
#[test]
fn classification_and_lowering_properties_cover_every_regime() {
    let mut seen = Vec::new();
    for seed in 0..24u64 {
        for (clump, target, max_iters) in [(0, 2.0, 200), (8, 16.0, 200), (4, 4.0, 1)] {
            for nudge in [false, true] {
                let cfg = control_cfg(target, max_iters, 1e-6, false);
                seen.extend(check_relax_classification(seed, clump, cfg, 4, nudge));
            }
        }
    }
    for warm in [false, true] {
        for verdict in [Verdict::Converged, Verdict::PowerCapped, Verdict::Diverging] {
            if warm && verdict == Verdict::Diverging {
                // Only reachable by a warm run whose churn overloads
                // the budget; the cold arm covers the full path.
                continue;
            }
            assert!(
                seen.contains(&(warm, verdict)),
                "no {verdict:?} run with warm = {warm}"
            );
        }
    }
    let emitted: usize = (0..4u64)
        .map(|seed| {
            check_session_lowering(seed, false, 200)
                .iter()
                .sum::<usize>()
        })
        .sum();
    assert!(emitted > 0, "warm settles must emit corrections");
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
        let outcome = PowerLoop::new(cfg).run(&net);
        if outcome.report.verdict == Verdict::Diverging {
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
