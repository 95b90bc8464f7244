//! The paper's §5 figures as thin wrappers over the scenario lab,
//! plus the ablation studies (Minim's keep-edge weight, CP's color
//! pick) and the extension studies (gossip compaction, mobility
//! models, the §6 hybrid).
//!
//! Since the scenario-lab refactor the figure drivers no longer own
//! their event loops: each `fig*` function instantiates the matching
//! [`crate::presets`] entry, runs it through
//! [`Scenario::run`](crate::scenario::Scenario::run), and re-labels
//! the resulting tables with the paper's figure titles. The presets
//! are pinned point-for-point to the original hand-coded drivers by
//! `tests/preset_equivalence.rs`.
//!
//! Every figure point is the average of [`ExperimentConfig::runs`]
//! replicates (the paper uses 100) on freshly generated random
//! networks. Replicates are *paired* across strategies: each replicate
//! generates one event sequence and feeds the identical sequence to
//! Minim, CP, and BBB, which reduces comparison variance (topology is
//! strategy-independent, so this is sound).
//!
//! Figure → preset map:
//!
//! | Figure | Function | Preset | Sweep |
//! |---|---|---|---|
//! | 10(a,b,c) | [`fig10_vs_n`] | `fig10-vs-n` | `N` joins, `minr=20.5, maxr=30.5` |
//! | 10(d,e,f) | [`fig10_vs_avg_range`] | `fig10-vs-avg-range` | avg range, `N=100`, width 5 |
//! | 11(a,b,c) | [`fig11_power_increase`] | `fig11-power-increase` | `raisefactor`, `N=100` |
//! | 12(a) | [`fig12_vs_maxdisp`] | `fig12-vs-maxdisp` | `maxdisp`, `N=40`, 1 round |
//! | 12(b,c,d) | [`fig12_vs_rounds`] | `fig12-vs-rounds` | `RoundNo`, `N=40`, `maxdisp=40` |
//!
//! The ablation and extension studies below predate the lab and still
//! drive [`parallel_map`] directly; they are the next candidates for
//! spec-ification.

pub use crate::scenario::ExperimentConfig;

use crate::metrics::{Stats, Table};
use crate::par::parallel_map;
use crate::runner::{pregenerate_movement_rounds, run_events};
use crate::scenario::Scenario;
use crate::{presets, scenario};
use minim_core::gossip::GossipCompactor;
use minim_core::{Cp, Minim, StrategyKind};
use minim_net::workload::{JoinWorkload, MovementWorkload};
use minim_net::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Results for a join-phase figure: absolute max color and total
/// recodings per strategy.
#[derive(Debug, Clone)]
pub struct JoinFigures {
    /// Fig 10(a)/(d): max color index assigned.
    pub colors: Table,
    /// Fig 10(b,c)/(e,f): total number of recodings.
    pub recodings: Table,
}

/// Results for a Δ-phase figure (power increase / movement).
#[derive(Debug, Clone)]
pub struct DeltaFigures {
    /// Δ(max color index) relative to the strategy's own base network.
    pub dcolors: Table,
    /// Δ(total recodings) — recodings performed during the phase.
    pub drecodings: Table,
}

fn all_labels() -> Vec<String> {
    StrategyKind::ALL.iter().map(|k| k.label().into()).collect()
}

fn run_preset(spec: scenario::ScenarioSpec, cfg: &ExperimentConfig) -> scenario::SweepResult {
    Scenario::new(spec)
        .expect("figure presets are valid by construction")
        .run(cfg)
}

/// An empty-sweep figure result (zero rows, correct headers) — what
/// the pre-lab drivers returned for an empty sweep-value slice, which
/// `Scenario::new` would otherwise reject.
fn empty_figures(title_colors: &str, title_recodings: &str, x_label: &str) -> JoinFigures {
    JoinFigures {
        colors: Table::new(title_colors, x_label, all_labels()),
        recodings: Table::new(title_recodings, x_label, all_labels()),
    }
}

/// Fig 10(a–c): `N` nodes join consecutively; sweep `N`.
pub fn fig10_vs_n(cfg: &ExperimentConfig, ns: &[usize]) -> JoinFigures {
    let (tc, tr) = (
        "Fig 10(a) max color index vs N",
        "Fig 10(b,c) total recodings vs N",
    );
    if ns.is_empty() {
        return empty_figures(tc, tr, "N");
    }
    let r = run_preset(presets::fig10_vs_n(ns.to_vec()), cfg);
    JoinFigures {
        colors: r.color_table(tc),
        recodings: r.recoding_table(tr),
    }
}

/// The paper's Fig 10(a–c) sweep values.
pub fn paper_fig10_ns() -> Vec<usize> {
    (40..=120).step_by(10).collect()
}

/// Fig 10(d–f): `N = 100` joins; sweep the average transmission range
/// with a width-5 interval.
pub fn fig10_vs_avg_range(cfg: &ExperimentConfig, avg_rs: &[f64], n: usize) -> JoinFigures {
    let (tc, tr) = (
        "Fig 10(d) max color index vs avg range",
        "Fig 10(e,f) total recodings vs avg range",
    );
    if avg_rs.is_empty() {
        return empty_figures(tc, tr, "avgR");
    }
    let r = run_preset(presets::fig10_vs_avg_range(avg_rs.to_vec(), n), cfg);
    JoinFigures {
        colors: r.color_table(tc),
        recodings: r.recoding_table(tr),
    }
}

/// The paper's Fig 10(d–f) sweep values (5 .. 65).
pub fn paper_fig10_avg_ranges() -> Vec<f64> {
    (1..=13).map(|k| k as f64 * 5.0).collect()
}

/// Fig 11(a–c): power-increase phase after an `N = 100` join phase;
/// sweep `raisefactor`.
pub fn fig11_power_increase(cfg: &ExperimentConfig, factors: &[f64], n: usize) -> DeltaFigures {
    let (tc, tr) = (
        "Fig 11(a) delta max color index vs raisefactor",
        "Fig 11(b,c) delta recodings vs raisefactor",
    );
    if factors.is_empty() {
        let f = empty_figures(tc, tr, "raisefactor");
        return DeltaFigures {
            dcolors: f.colors,
            drecodings: f.recodings,
        };
    }
    let r = run_preset(presets::fig11_power_increase(factors.to_vec(), n), cfg);
    DeltaFigures {
        dcolors: r.color_table(tc),
        drecodings: r.recoding_table(tr),
    }
}

/// The paper's Fig 11 sweep values (raisefactor 1 .. 6).
pub fn paper_fig11_factors() -> Vec<f64> {
    vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
}

/// Fig 12(a): one movement round, sweep `maxdisp` (`N = 40`).
pub fn fig12_vs_maxdisp(cfg: &ExperimentConfig, maxdisps: &[f64], n: usize) -> DeltaFigures {
    let (tc, tr) = (
        "Fig 12(a aux) delta max color index vs maxdisp",
        "Fig 12(a) delta recodings vs maxdisp",
    );
    if maxdisps.is_empty() {
        let f = empty_figures(tc, tr, "maxdisp");
        return DeltaFigures {
            dcolors: f.colors,
            drecodings: f.recodings,
        };
    }
    let r = run_preset(presets::fig12_vs_maxdisp(maxdisps.to_vec(), n), cfg);
    DeltaFigures {
        dcolors: r.color_table(tc),
        drecodings: r.recoding_table(tr),
    }
}

/// The paper's Fig 12(a) sweep values (maxdisp 5 .. 75).
pub fn paper_fig12_maxdisps() -> Vec<f64> {
    (1..=15).map(|k| k as f64 * 5.0).collect()
}

/// Fig 12(b–d): `maxdisp = 40`, sweep `RoundNo` 1..=`max_rounds`
/// (`N = 40`). One replicate runs all rounds cumulatively.
pub fn fig12_vs_rounds(
    cfg: &ExperimentConfig,
    max_rounds: usize,
    n: usize,
    maxdisp: f64,
) -> DeltaFigures {
    let (tc, tr) = (
        "Fig 12(b) delta max color index vs RoundNo",
        "Fig 12(c,d) delta recodings vs RoundNo",
    );
    if max_rounds == 0 {
        let f = empty_figures(tc, tr, "RoundNo");
        return DeltaFigures {
            dcolors: f.colors,
            drecodings: f.recodings,
        };
    }
    let r = run_preset(presets::fig12_vs_rounds(max_rounds, n, maxdisp), cfg);
    DeltaFigures {
        dcolors: r.color_table(tc),
        drecodings: r.recoding_table(tr),
    }
}

/// Ablation: Minim's keep-edge weight. For each weight, the total
/// recodings and max color over a join sequence. Weight 1 is the
/// weight-blind (pure max-cardinality) policy; the paper's choice is 3.
pub fn ablation_keep_weight(cfg: &ExperimentConfig, weights: &[i64], n: usize) -> Table {
    let jobs: Vec<(usize, i64, u64)> = weights
        .iter()
        .enumerate()
        .flat_map(|(pi, &w)| (0..cfg.runs).map(move |rep| (pi, w, cfg.replicate_seed(pi, rep))))
        .collect();
    let results = parallel_map(&jobs, cfg.workers, |&(pi, w, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = JoinWorkload::paper(n);
        let events = workload.generate(&mut rng);
        let mut net = Network::new(workload.maxr.max(1.0));
        let mut s = Minim::with_keep_weight(w);
        let m = run_events(&mut s, &mut net, &events);
        (pi, m.recodings as f64, m.max_color as f64)
    });

    let mut table = Table::new(
        "Ablation: keep-edge weight (Minim join phase)",
        "keep weight",
        vec!["recodings".into(), "max color".into()],
    );
    for (pi, &w) in weights.iter().enumerate() {
        let recs: Vec<f64> = results
            .iter()
            .filter(|(rpi, _, _)| *rpi == pi)
            .map(|&(_, r, _)| r)
            .collect();
        let cols: Vec<f64> = results
            .iter()
            .filter(|(rpi, _, _)| *rpi == pi)
            .map(|&(_, _, c)| c)
            .collect();
        table.push_row(
            w as f64,
            vec![Stats::from_samples(&recs), Stats::from_samples(&cols)],
        );
    }
    table
}

/// Ablation: CP's color pick — conservative 2-hop avoidance vs exact
/// constraints — over a join sequence sweep in `N`.
pub fn ablation_cp_pick(cfg: &ExperimentConfig, ns: &[usize]) -> Table {
    let jobs: Vec<(usize, usize, u64)> = ns
        .iter()
        .enumerate()
        .flat_map(|(pi, &n)| (0..cfg.runs).map(move |rep| (pi, n, cfg.replicate_seed(pi, rep))))
        .collect();
    let results = parallel_map(&jobs, cfg.workers, |&(pi, n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = JoinWorkload::paper(n);
        let events = workload.generate(&mut rng);
        let run = |mut s: Cp| {
            let mut net = Network::new(workload.maxr.max(1.0));
            let m = run_events(&mut s, &mut net, &events);
            (m.max_color as f64, m.recodings as f64)
        };
        let cons = run(Cp::default());
        let exact = run(Cp::with_exact_constraints());
        (pi, cons, exact)
    });

    let mut table = Table::new(
        "Ablation: CP color pick (2-hop conservative vs exact constraints)",
        "N",
        vec![
            "CP-2hop colors".into(),
            "CP-exact colors".into(),
            "CP-2hop recodings".into(),
            "CP-exact recodings".into(),
        ],
    );
    for (pi, &n) in ns.iter().enumerate() {
        let mut cols = vec![Vec::new(); 4];
        for &(rpi, (cc, cr), (ec, er)) in &results {
            if rpi == pi {
                cols[0].push(cc);
                cols[1].push(ec);
                cols[2].push(cr);
                cols[3].push(er);
            }
        }
        table.push_row(
            n as f64,
            cols.iter().map(|s| Stats::from_samples(s)).collect(),
        );
    }
    table
}

/// Extension study (§6 future work): after a join phase and `churn`
/// movement rounds under Minim, run the gossip compactor to a fixpoint
/// and report max color before/after plus migrations.
pub fn gossip_study(cfg: &ExperimentConfig, churn_rounds: &[usize], n: usize) -> Table {
    let jobs: Vec<(usize, usize, u64)> = churn_rounds
        .iter()
        .enumerate()
        .flat_map(|(pi, &c)| (0..cfg.runs).map(move |rep| (pi, c, cfg.replicate_seed(pi, rep))))
        .collect();
    let results = parallel_map(&jobs, cfg.workers, |&(pi, churn, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = JoinWorkload::paper(n);
        let events = workload.generate(&mut rng);
        let mut net = Network::new(workload.maxr.max(1.0));
        let mut s = Minim::default();
        run_events(&mut s, &mut net, &events);
        let move_w = MovementWorkload::paper(40.0, churn);
        for round in pregenerate_movement_rounds(&net, &move_w, churn, &mut rng) {
            run_events(&mut s, &mut net, &round);
        }
        let stats = GossipCompactor.run(&mut net, 1000);
        (
            pi,
            stats.max_color_before as f64,
            stats.max_color_after as f64,
            stats.migrations as f64,
        )
    });

    let mut table = Table::new(
        "Extension: gossip compaction after churn (Minim, N joins + movement rounds)",
        "churn rounds",
        vec![
            "max color before".into(),
            "max color after".into(),
            "migrations".into(),
        ],
    );
    for (pi, &c) in churn_rounds.iter().enumerate() {
        let mut cols = vec![Vec::new(); 3];
        for &(rpi, b, a, m) in &results {
            if rpi == pi {
                cols[0].push(b);
                cols[1].push(a);
                cols[2].push(m);
            }
        }
        table.push_row(
            c as f64,
            cols.iter().map(|s| Stats::from_samples(s)).collect(),
        );
    }
    table
}

/// Extension study: does Minim's mobility advantage survive
/// *correlated* motion? The paper's §5.3 teleports nodes by random
/// displacements; real mobility is temporally correlated. One replicate
/// builds each strategy's base (`n` joins) and then applies the same
/// total motion two ways — `rounds` teleport rounds (maxdisp 40) vs an
/// equivalent random-waypoint schedule — counting recodings for each.
/// Rows: x = 0 (teleport) and x = 1 (waypoint).
pub fn mobility_model_study(cfg: &ExperimentConfig, n: usize, rounds: usize) -> Table {
    use minim_net::event::apply_topology;
    use minim_net::mobility::RandomWaypoint;

    let jobs: Vec<u64> = (0..cfg.runs)
        .map(|rep| cfg.replicate_seed(0, rep))
        .collect();
    let results = parallel_map(&jobs, cfg.workers, |&seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = JoinWorkload::paper(n);
        let join_events = workload.generate(&mut rng);

        let mut bases: Vec<Network> = Vec::new();
        for kind in StrategyKind::ALL {
            let mut net = Network::new(workload.maxr.max(1.0));
            let mut s = kind.build();
            run_events(&mut *s, &mut net, &join_events);
            bases.push(net);
        }

        // Teleport schedule (§5.3) and an equal-duration waypoint
        // schedule, both pre-generated on ghosts so every strategy sees
        // identical motion.
        let teleport = pregenerate_movement_rounds(
            &bases[0],
            &MovementWorkload::paper(40.0, rounds),
            rounds,
            &mut rng,
        );
        let waypoint: Vec<Vec<minim_net::event::Event>> = {
            let mut ghost = bases[0].clone();
            let mut model = RandomWaypoint::new(minim_geom::Rect::paper_arena(), 2.0, 6.0);
            (0..rounds * 5) // 5 small ticks per teleport round: same order of total motion
                .map(|_| {
                    let events = model.tick(&ghost, 1.0, &mut rng);
                    for e in &events {
                        apply_topology(&mut ghost, e);
                    }
                    events
                })
                .collect()
        };

        let run_schedule =
            |kind: StrategyKind, base: &Network, schedule: &[Vec<minim_net::event::Event>]| {
                let mut net = base.clone();
                let mut s = kind.build();
                schedule
                    .iter()
                    .map(|events| run_events(&mut *s, &mut net, events).recodings as f64)
                    .sum::<f64>()
            };

        let mut out = Vec::new(); // [model][strategy]
        for schedule in [&teleport, &waypoint] {
            let per_strategy: Vec<f64> = StrategyKind::ALL
                .iter()
                .zip(&bases)
                .map(|(&kind, base)| run_schedule(kind, base, schedule))
                .collect();
            out.push(per_strategy);
        }
        out
    });

    let mut table = Table::new(
        "Extension: recodings under teleport (x=0) vs random-waypoint (x=1) mobility",
        "model",
        all_labels(),
    );
    for (model, x) in [(0usize, 0.0f64), (1, 1.0)] {
        let mut cols = vec![Vec::new(); StrategyKind::ALL.len()];
        for rep in &results {
            for (si, &v) in rep[model].iter().enumerate() {
                cols[si].push(v);
            }
        }
        table.push_row(x, cols.iter().map(|s| Stats::from_samples(s)).collect());
        let _ = model;
    }
    table
}

/// Extension study: the §6 hybrid. Under sustained join/leave churn,
/// compare plain Minim against Minim with one
/// [`minim_core::gossip::GossipCompactor`] round after every `period`
/// events, at several periods: final max color and total recodings
/// (gossip migrations included — honesty first).
pub fn hybrid_gossip_study(
    cfg: &ExperimentConfig,
    periods: &[usize],
    n: usize,
    churn_steps: usize,
) -> Table {
    use minim_core::gossip::GossipCompactor;
    use minim_core::{RecodeOutcome, RecodingStrategy};
    use minim_net::event::apply_topology;
    use minim_net::workload::ChurnWorkload;

    let jobs: Vec<(usize, usize, u64)> = periods
        .iter()
        .enumerate()
        .flat_map(|(pi, &p)| (0..cfg.runs).map(move |rep| (pi, p, cfg.replicate_seed(pi, rep))))
        .collect();
    let results = parallel_map(&jobs, cfg.workers, |&(pi, period, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let join_events = JoinWorkload::paper(n).generate(&mut rng);
        // Pre-generate the churn on a ghost so both strategies see the
        // identical event list (leave targets depend only on topology,
        // which is strategy-independent).
        let churn = ChurnWorkload::paper(churn_steps, 0.5);
        let mut ghost = Network::new(30.5);
        for e in &join_events {
            apply_topology(&mut ghost, e);
        }
        let churn_events: Vec<minim_net::event::Event> = (0..churn.steps)
            .map(|_| {
                let e = churn.next_event(&ghost, &mut rng);
                apply_topology(&mut ghost, &e);
                e
            })
            .collect();

        // A gossip round is charged with the event before it by one
        // diff against the pre-event assignment, so a node recoded and
        // then migrated counts once.
        let run = |gossip_every: Option<usize>| {
            let mut minim = Minim::default();
            let mut net = Network::new(30.5);
            let mut recodings = 0usize;
            for (i, e) in join_events.iter().chain(&churn_events).enumerate() {
                if gossip_every.is_some_and(|p| (i + 1) % p == 0) {
                    let before = net.snapshot_assignment();
                    minim.apply(&mut net, e);
                    GossipCompactor.round(&mut net);
                    recodings += RecodeOutcome::from_diff(&net, &before).recodings();
                } else {
                    recodings += minim.apply(&mut net, e).1.recodings();
                }
            }
            (net.max_color_index() as f64, recodings as f64)
        };
        let (plain_c, plain_r) = run(None);
        let (hyb_c, hyb_r) = run(Some(period));
        (pi, plain_c, plain_r, hyb_c, hyb_r)
    });

    let mut table = Table::new(
        "Extension: Minim vs Minim+Gossip under join/leave churn",
        "gossip period",
        vec![
            "Minim max color".into(),
            "hybrid max color".into(),
            "Minim recodings".into(),
            "hybrid recodings".into(),
        ],
    );
    for (pi, &p) in periods.iter().enumerate() {
        let mut cols = vec![Vec::new(); 4];
        for &(rpi, pc, pr, hc, hr) in &results {
            if rpi == pi {
                cols[0].push(pc);
                cols[1].push(hc);
                cols[2].push(pr);
                cols[3].push(hr);
            }
        }
        table.push_row(
            p as f64,
            cols.iter().map(|s| Stats::from_samples(s)).collect(),
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            runs: 3,
            seed: 42,
            workers: 2,
        }
    }

    /// One join-phase replicate, the way the pre-lab driver ran it:
    /// the same event list through all three strategies. Returns
    /// `(max_color, recodings)` per strategy.
    fn join_replicate(workload: &JoinWorkload, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let events = workload.generate(&mut rng);
        StrategyKind::ALL
            .iter()
            .map(|kind| {
                let mut net = Network::new(workload.maxr.max(1.0));
                let mut s = kind.build();
                let m = run_events(&mut *s, &mut net, &events);
                (m.max_color as f64, m.recodings as f64)
            })
            .collect()
    }

    #[test]
    fn fig10_shapes_hold_on_small_config() {
        // Minim is provably minimal per event but the three strategies
        // evolve different assignments, so sequence totals are compared
        // with statistical slack at this small replicate count (the
        // paper's full 100-run protocol runs in the repro binary).
        let cfg = ExperimentConfig {
            runs: 12,
            seed: 42,
            workers: 4,
        };
        let figs = fig10_vs_n(&cfg, &[40, 80]);
        assert_eq!(figs.colors.rows.len(), 2);
        assert_eq!(figs.recodings.rows.len(), 2);
        for row in &figs.recodings.rows {
            let (minim, cp, bbb) = (row.values[0].mean, row.values[1].mean, row.values[2].mean);
            assert!(
                minim <= cp * 1.10 + 2.0,
                "Minim ({minim}) must not exceed CP ({cp}) beyond noise"
            );
            assert!(cp < bbb, "CP ({cp}) < BBB ({bbb})");
        }
        for row in &figs.colors.rows {
            let (minim, bbb) = (row.values[0].mean, row.values[2].mean);
            assert!(bbb <= minim + 1.0, "BBB colors <= Minim colors (+noise)");
        }
        // Recodings grow with N for every strategy.
        for si in 0..3 {
            let m = figs.recodings.series_means(si);
            assert!(m[1].1 > m[0].1);
        }
    }

    #[test]
    fn fig10_is_deterministic_and_worker_independent() {
        let a = fig10_vs_n(
            &ExperimentConfig {
                runs: 3,
                seed: 7,
                workers: 1,
            },
            &[15],
        );
        let b = fig10_vs_n(
            &ExperimentConfig {
                runs: 3,
                seed: 7,
                workers: 8,
            },
            &[15],
        );
        assert_eq!(a.colors.rows[0].values, b.colors.rows[0].values);
        assert_eq!(a.recodings.rows[0].values, b.recodings.rows[0].values);
    }

    #[test]
    fn fig11_minim_recodes_least() {
        let figs = fig11_power_increase(&tiny(), &[3.0], 30);
        let row = &figs.drecodings.rows[0];
        let (minim, cp, bbb) = (row.values[0].mean, row.values[1].mean, row.values[2].mean);
        assert!(minim <= cp + 1e-9, "Minim ({minim}) <= CP ({cp})");
        assert!(minim <= bbb, "Minim ({minim}) <= BBB ({bbb})");
    }

    #[test]
    fn fig12_rounds_are_cumulative_and_ordered() {
        let figs = fig12_vs_rounds(&tiny(), 3, 15, 40.0);
        assert_eq!(figs.drecodings.rows.len(), 3);
        for si in 0..3 {
            let m = figs.drecodings.series_means(si);
            assert!(m[0].1 <= m[1].1 && m[1].1 <= m[2].1, "cumulative recodings");
        }
        let last = figs.drecodings.rows.last().unwrap();
        assert!(
            last.values[0].mean <= last.values[1].mean + 1e-9,
            "Minim <= CP on movement recodings"
        );
    }

    #[test]
    fn fig12_maxdisp_row_per_value() {
        let figs = fig12_vs_maxdisp(&tiny(), &[10.0, 40.0], 12);
        assert_eq!(figs.drecodings.rows.len(), 2);
        assert!(figs.drecodings.rows[0].values[0].n == 3);
    }

    #[test]
    fn ablation_keep_weight_blind_is_no_better() {
        let t = ablation_keep_weight(&tiny(), &[1, 3], 25);
        let blind_recodings = t.rows[0].values[0].mean;
        let weighted_recodings = t.rows[1].values[0].mean;
        assert!(weighted_recodings <= blind_recodings + 1e-9);
    }

    #[test]
    fn gossip_study_reduces_or_keeps_colors() {
        let t = gossip_study(&tiny(), &[2], 20);
        let before = t.rows[0].values[0].mean;
        let after = t.rows[0].values[1].mean;
        assert!(after <= before + 1e-9);
    }

    #[test]
    fn mobility_model_study_runs_and_orders() {
        let t = mobility_model_study(&tiny(), 15, 2);
        assert_eq!(t.rows.len(), 2);
        // Under either model, Minim <= CP (with generous noise slack at
        // this tiny replicate count).
        for row in &t.rows {
            assert!(row.values[0].mean <= row.values[1].mean * 1.3 + 3.0);
        }
    }

    #[test]
    fn hybrid_gossip_study_compacts_colors() {
        let t = hybrid_gossip_study(&tiny(), &[5], 20, 30);
        let row = &t.rows[0];
        let (plain_c, hybrid_c) = (row.values[0].mean, row.values[1].mean);
        assert!(hybrid_c <= plain_c + 1e-9, "gossip must not inflate colors");
        let (plain_r, hybrid_r) = (row.values[2].mean, row.values[3].mean);
        assert!(hybrid_r >= plain_r, "gossip migrations are charged");
    }

    #[test]
    fn paired_compare_integrates_with_experiment_outputs() {
        use crate::compare::paired_compare;
        let cfg = tiny();
        // Per-replicate paired samples for Minim vs CP at one point.
        let workload = JoinWorkload::paper(25);
        let samples: Vec<(f64, f64)> = (0..cfg.runs)
            .map(|rep| {
                let rec = join_replicate(&workload, cfg.replicate_seed(0, rep));
                (rec[0].1, rec[1].1) // (minim recodings, cp recodings)
            })
            .collect();
        let a: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let b: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let cmp = paired_compare(&a, &b);
        assert_eq!(cmp.n, cfg.runs);
        assert!(cmp.wins_b <= cmp.n, "sanity");
    }

    #[test]
    fn empty_sweeps_return_empty_tables_not_panics() {
        // The pre-lab drivers tolerated empty sweep inputs; the preset
        // adapters must too (Scenario::new itself rejects empty sweeps,
        // so the wrappers short-circuit).
        let cfg = tiny();
        assert!(fig10_vs_n(&cfg, &[]).colors.rows.is_empty());
        assert!(fig10_vs_avg_range(&cfg, &[], 40).recodings.rows.is_empty());
        assert!(fig11_power_increase(&cfg, &[], 40).dcolors.rows.is_empty());
        assert!(fig12_vs_maxdisp(&cfg, &[], 20).drecodings.rows.is_empty());
        let rounds = fig12_vs_rounds(&cfg, 0, 20, 40.0);
        assert!(rounds.dcolors.rows.is_empty());
        assert_eq!(rounds.dcolors.x_label, "RoundNo");
    }

    #[test]
    fn paper_sweeps_have_expected_sizes() {
        assert_eq!(
            paper_fig10_ns(),
            vec![40, 50, 60, 70, 80, 90, 100, 110, 120]
        );
        assert_eq!(paper_fig10_avg_ranges().len(), 13);
        assert_eq!(paper_fig11_factors().len(), 11);
        assert_eq!(paper_fig12_maxdisps().len(), 15);
    }
}
