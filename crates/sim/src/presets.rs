//! The named scenario catalog: the paper's Fig 10–12 sweeps as
//! [`ScenarioSpec`] presets, plus the extension regimes related work
//! points at (clustered deployments, heterogeneous ranges, interleaved
//! churn, corridors with obstacles).
//!
//! `minim-lab list` prints this catalog; `minim-lab run <name>` runs
//! an entry; the figure wrappers in [`crate::experiments`] are thin
//! adapters over the `fig*` entries. Every preset is an ordinary
//! spec — `minim-lab show <name>` dumps its JSON, which doubles as a
//! spec-file template.

use crate::experiments::{
    paper_fig10_avg_ranges, paper_fig10_ns, paper_fig11_factors, paper_fig12_maxdisps,
};
use crate::scenario::{Measure, PhaseSpec, ScenarioSpec, SweepAxis, TopologyFamily};
use minim_core::StrategyKind;
use minim_geom::Rect;
use minim_net::workload::RangeDist;

/// Fig 10(a–c): `n` nodes join consecutively; sweep `N`.
pub fn fig10_vs_n(ns: Vec<usize>) -> ScenarioSpec {
    ScenarioSpec::new("fig10-vs-n")
        .summary("Fig 10(a-c): consecutive joins, sweep N")
        .measured_phase(PhaseSpec::Join { count: 0 })
        .sweep(SweepAxis::JoinCount(ns))
}

/// Fig 10(d–f): `n` joins; sweep the average transmission range.
pub fn fig10_vs_avg_range(avg_rs: Vec<f64>, n: usize) -> ScenarioSpec {
    ScenarioSpec::new("fig10-vs-avg-range")
        .summary("Fig 10(d-f): joins at N=100, sweep average range (width-5 interval)")
        .measured_phase(PhaseSpec::Join { count: n })
        .sweep(SweepAxis::AvgRange(avg_rs))
}

/// Fig 11(a–c): power raises on half the nodes after an `n`-join base;
/// sweep `raisefactor`.
pub fn fig11_power_increase(factors: Vec<f64>, n: usize) -> ScenarioSpec {
    ScenarioSpec::new("fig11-power-increase")
        .summary("Fig 11(a-c): power raise on half the nodes after N=100 joins, sweep raisefactor")
        .base_phase(PhaseSpec::Join { count: n })
        .measured_phase(PhaseSpec::PowerRaise {
            fraction: 0.5,
            factor: 1.0,
        })
        .measure(Measure::DeltaFromBase)
        .sweep(SweepAxis::RaiseFactor(factors))
}

/// Fig 12(a): one movement round after an `n`-join base; sweep
/// `maxdisp`.
pub fn fig12_vs_maxdisp(maxdisps: Vec<f64>, n: usize) -> ScenarioSpec {
    ScenarioSpec::new("fig12-vs-maxdisp")
        .summary("Fig 12(a): one movement round after N=40 joins, sweep maxdisp")
        .base_phase(PhaseSpec::Join { count: n })
        .measured_phase(PhaseSpec::Movement {
            rounds: 1,
            maxdisp: 40.0,
        })
        .measure(Measure::DeltaFromBase)
        .sweep(SweepAxis::MaxDisp(maxdisps))
}

/// Fig 12(b–d): cumulative movement rounds after an `n`-join base;
/// report after every round up to `max_rounds`.
pub fn fig12_vs_rounds(max_rounds: usize, n: usize, maxdisp: f64) -> ScenarioSpec {
    ScenarioSpec::new("fig12-vs-rounds")
        .summary("Fig 12(b-d): movement rounds at maxdisp=40 after N=40 joins, sweep RoundNo")
        .base_phase(PhaseSpec::Join { count: n })
        .measured_phase(PhaseSpec::Movement {
            rounds: max_rounds,
            maxdisp,
        })
        .measure(Measure::DeltaFromBase)
        .sweep(SweepAxis::Rounds(max_rounds))
}

/// Clustered (hot-spot) deployment: joins scatter gaussianly around
/// random cluster centers instead of uniformly — the Poisson-clustered
/// regime of discrete-power-control studies. Sweep `N`.
pub fn clustered_joins() -> ScenarioSpec {
    ScenarioSpec::new("clustered-joins")
        .summary("joins into 6 gaussian clusters (hot spots), sweep N")
        .topology(TopologyFamily::Clustered {
            clusters: 6,
            spread: 6.0,
        })
        .measured_phase(PhaseSpec::Join { count: 0 })
        .sweep(SweepAxis::JoinCount(vec![40, 60, 80, 100, 120]))
}

/// Heterogeneous range population: a short-range majority plus a
/// long-range relay minority. Sweep the relay fraction.
pub fn hetero_ranges() -> ScenarioSpec {
    ScenarioSpec::new("hetero-ranges")
        .summary("short-range majority + long-range relays, sweep the relay fraction")
        .ranges(RangeDist::Heterogeneous {
            short: (10.0, 15.0),
            long: (30.0, 40.0),
            long_fraction: 0.2,
        })
        .measured_phase(PhaseSpec::Join { count: 100 })
        .sweep(SweepAxis::LongFraction(vec![0.0, 0.1, 0.2, 0.4, 0.6, 0.8]))
}

/// Interleaved churn on a clustered deployment: after a clustered join
/// base, every step is a join, a departure, or a single-node move.
/// Sweep the churn length.
pub fn clustered_churn() -> ScenarioSpec {
    ScenarioSpec::new("clustered-churn")
        .summary("interleaved join/leave/move churn on a clustered base, sweep churn steps")
        .topology(TopologyFamily::Clustered {
            clusters: 5,
            spread: 6.0,
        })
        .base_phase(PhaseSpec::Join { count: 60 })
        .measured_phase(PhaseSpec::Mix {
            steps: 0,
            join_prob: 0.3,
            leave_prob: 0.3,
            maxdisp: 20.0,
        })
        .measure(Measure::DeltaFromBase)
        .sweep(SweepAxis::MixSteps(vec![40, 80, 120, 160]))
}

/// Joins into a corridor cut by opaque walls with random doors: walls
/// sever line-of-sight links, so conflicts concentrate at the doors.
/// Sweep `N`.
pub fn corridor_joins() -> ScenarioSpec {
    ScenarioSpec::new("corridor-joins")
        .summary("joins into a corridor with 3 walls and random doors, sweep N")
        .topology(TopologyFamily::Corridor {
            walls: 3,
            door: 8.0,
        })
        .measured_phase(PhaseSpec::Join { count: 0 })
        .sweep(SweepAxis::JoinCount(vec![40, 60, 80, 100]))
}

/// The large-N regime: a metropolis-scale arena (40× the paper's side
/// length) dotted with dense, well-separated Poisson-clustered hot
/// spots, joins in the thousands, then a **sustained-churn phase**
/// (interleaved joins, leaves, and moves on the standing population).
/// Each replicate runs its events sequentially; with few, huge
/// replicates, `minim-lab run metropolis --runs 1 --workers 2` is the
/// usual invocation. Sharding one replicate's events across threads
/// was tried and lost to sequential on this workload (see "Intra-
/// replicate executors (removed)" in `docs/ARCHITECTURE.md`).
///
/// BBB is excluded: recoloring the entire network at every one of
/// thousands of events is O(N²·deg) per replicate and adds nothing to
/// the large-N comparison the distributed strategies are studied for.
pub fn metropolis() -> ScenarioSpec {
    ScenarioSpec::new("metropolis")
        .summary("large-N metropolis: clustered joins in the thousands plus sustained churn")
        .arena(Rect::new(0.0, 0.0, 4000.0, 4000.0))
        .topology(TopologyFamily::Clustered {
            clusters: 40,
            spread: 25.0,
        })
        .strategies(vec![StrategyKind::Minim, StrategyKind::Cp])
        .measured_phase(PhaseSpec::Join { count: 0 })
        .measured_phase(PhaseSpec::Mix {
            steps: 400,
            join_prob: 0.3,
            leave_prob: 0.3,
            maxdisp: 60.0,
        })
        .sweep(SweepAxis::JoinCount(vec![1000, 2000, 4000]))
        .runs(3)
}

/// The lighthouse micro-regime: an (almost entirely) short-range
/// population with a ~0.1% long-range minority — in expectation one
/// "lighthouse" per thousand joins. This is the worst case for a flat
/// (watermark-bounded) reverse-reach index: a single long-range node
/// used to inflate every later join's in-neighbor scan to the
/// lighthouse's radius; the range-stratified index keeps the short
/// tier's scans short: on this shape it measured 42–46× the flat
/// index's join throughput at N = 4k (docs/ARCHITECTURE.md).
pub fn lighthouse() -> ScenarioSpec {
    ScenarioSpec::new("lighthouse")
        .summary("one max-range lighthouse among thousands of short-range joins, sweep N")
        .arena(Rect::new(0.0, 0.0, 4000.0, 4000.0))
        .ranges(RangeDist::Heterogeneous {
            short: (15.0, 25.0),
            long: (1500.0, 2000.0),
            long_fraction: 0.001,
        })
        .strategies(vec![StrategyKind::Minim, StrategyKind::Cp])
        .measured_phase(PhaseSpec::Join { count: 0 })
        .sweep(SweepAxis::JoinCount(vec![1000, 2000, 4000]))
        .runs(3)
}

/// The near-far regime: a handful of dense hot spots whose members
/// drive a closed power-control loop (`minim-power`). The loop pushes
/// cluster cores to high power against mutual interference and the
/// converged equilibrium comes back as *endogenous* set-range events
/// — the paper's §5.2 power raises, now caused by physics instead of
/// a distribution. Sweeping the target SINR sweeps how hard the
/// near-far problem bites: higher targets inflate ranges (new
/// conflict edges to recode) until cores saturate at the power cap.
pub fn near_far() -> ScenarioSpec {
    ScenarioSpec::new("near-far")
        .summary("closed-loop power control over dense hot spots, sweep the target SINR")
        .topology(TopologyFamily::Clustered {
            clusters: 3,
            spread: 4.0,
        })
        .base_phase(PhaseSpec::Join { count: 80 })
        .measured_phase(PhaseSpec::PowerControl {
            target_sinr: 4.0,
            ladder: 0,
            drop_infeasible: false,
            sink_every: 8,
        })
        .measure(Measure::DeltaFromBase)
        .sweep(SweepAxis::TargetSinr(vec![1.0, 2.0, 4.0, 8.0, 16.0]))
}

/// Closed-loop power control under sustained churn: after a clustered
/// base joins, every step is a join, a departure, or a single-node
/// move — and the continuous Foschini–Miljanic loop stays *closed*
/// throughout. An incremental `PowerSession` patches its SINR field
/// per event and re-settles from the warm equilibrium every few steps,
/// so the event stream interleaves exogenous churn with the endogenous
/// set-range corrections the loop emits while tracking its moving
/// fixed point. Sweeping the target SINR sweeps how far each settle's
/// corrections ripple.
pub fn churn_power() -> ScenarioSpec {
    ScenarioSpec::new("churn-power")
        .summary("closed-loop power control tracking join/leave/move churn, sweep the target SINR")
        .topology(TopologyFamily::Clustered {
            clusters: 3,
            spread: 5.0,
        })
        .base_phase(PhaseSpec::Join { count: 80 })
        .measured_phase(PhaseSpec::PowerChurn {
            steps: 120,
            join_prob: 0.3,
            leave_prob: 0.3,
            maxdisp: 20.0,
            target_sinr: 4.0,
            slice: 8,
        })
        .measure(Measure::DeltaFromBase)
        .sweep(SweepAxis::TargetSinr(vec![2.0, 4.0, 8.0]))
}

/// Interference-coupled clusters on a discrete power ladder: tight
/// clusters join, then the quantized (12-rung) power loop runs with
/// admission control — power-capped nodes are *dropped* (leave
/// events), the duty-cycling regime of discrete power-control
/// studies. Sweeping `N` scales the interference coupling; every
/// strategy sees the same join + set-range + leave stream.
pub fn interference_clusters() -> ScenarioSpec {
    ScenarioSpec::new("interference-clusters")
        .summary("discrete-ladder power control with admission drops over tight clusters, sweep N")
        .topology(TopologyFamily::Clustered {
            clusters: 8,
            spread: 3.0,
        })
        .measured_phase(PhaseSpec::Join { count: 0 })
        .measured_phase(PhaseSpec::PowerControl {
            target_sinr: 6.0,
            ladder: 12,
            drop_infeasible: true,
            sink_every: 10,
        })
        .sweep(SweepAxis::JoinCount(vec![40, 80, 120, 160]))
}

/// Every named preset, with the paper's default sweep values.
pub fn catalog() -> Vec<ScenarioSpec> {
    vec![
        fig10_vs_n(paper_fig10_ns()),
        fig10_vs_avg_range(paper_fig10_avg_ranges(), 100),
        fig11_power_increase(paper_fig11_factors(), 100),
        fig12_vs_maxdisp(paper_fig12_maxdisps(), 40),
        fig12_vs_rounds(10, 40, 40.0),
        clustered_joins(),
        hetero_ranges(),
        clustered_churn(),
        corridor_joins(),
        metropolis(),
        lighthouse(),
        near_far(),
        churn_power(),
        interference_clusters(),
    ]
}

/// Looks up a preset by name.
pub fn find(name: &str) -> Option<ScenarioSpec> {
    catalog().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn every_preset_validates() {
        let specs = catalog();
        assert!(specs.len() >= 9);
        for spec in specs {
            let name = spec.name.clone();
            assert!(!spec.summary.is_empty(), "{name} needs a summary");
            Scenario::new(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn preset_names_are_unique_and_findable() {
        let specs = catalog();
        for spec in &specs {
            assert_eq!(find(&spec.name).as_ref().map(|s| &s.name), Some(&spec.name));
        }
        let mut names: Vec<_> = specs.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate preset names");
        assert!(find("no-such-preset").is_none());
    }

    #[test]
    fn every_preset_roundtrips_through_json() {
        for spec in catalog() {
            let parsed = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
            assert_eq!(spec, parsed);
        }
    }

    /// The catalog rows make physical claims; pin them against the
    /// loop itself. `near-far` must cross the feasibility wall inside
    /// its sweep (low targets feasible, the top target power-capped)
    /// and `interference-clusters` must actually duty-cycle (emit
    /// leave events) at its largest N.
    #[test]
    fn power_presets_cross_the_feasibility_wall() {
        use minim_geom::{sample, Point};
        use minim_net::workload::Placement;
        use minim_net::{Network, NodeConfig};
        use minim_power::{PowerLadder, PowerLoop, PowerLoopConfig, ReceiverPolicy, Verdict};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Rebuild each preset's deployment the way a replicate does.
        let deploy = |spec: &ScenarioSpec, n: usize, seed: u64| -> Network {
            let mut rng = StdRng::seed_from_u64(seed);
            let TopologyFamily::Clustered { clusters, spread } = spec.topology else {
                panic!("power presets are clustered");
            };
            let centers: Vec<Point> = (0..clusters)
                .map(|_| sample::uniform_point(&mut rng, &spec.arena))
                .collect();
            let placement = Placement::Clustered {
                centers,
                spread,
                arena: spec.arena,
            };
            let mut net = Network::new(spec.ranges.upper_bound().max(1.0));
            for _ in 0..n {
                net.join(NodeConfig::new(
                    placement.sample(&mut rng),
                    spec.ranges.sample(&mut rng),
                ));
            }
            net
        };
        let loop_for = |spec: &ScenarioSpec, phase_target: f64| -> PowerLoop {
            let [PhaseSpec::PowerControl {
                ladder,
                drop_infeasible,
                sink_every,
                ..
            }] = spec.measured[spec.measured.len() - 1..]
            else {
                panic!("last measured phase must be power control");
            };
            let mut cfg = PowerLoopConfig::for_range_scale(spec.ranges.upper_bound().max(1.0));
            cfg.target_sinr = phase_target;
            cfg.ladder = if ladder == 0 {
                PowerLadder::Continuous
            } else {
                PowerLadder::Geometric { levels: ladder }
            };
            cfg.drop_infeasible = drop_infeasible;
            cfg.receivers = ReceiverPolicy::Sinks { every: sink_every };
            PowerLoop::new(cfg)
        };

        let nf = near_far();
        let SweepAxis::TargetSinr(ref targets) = nf.sweep else {
            panic!("near-far sweeps the target SINR");
        };
        let net = deploy(&nf, 80, 7);
        let low = loop_for(&nf, targets[0]).run(&net);
        assert_eq!(
            low.report.verdict,
            Verdict::Converged,
            "lowest target must converge"
        );
        let high = loop_for(&nf, *targets.last().unwrap()).run(&net);
        assert_eq!(
            high.report.verdict,
            Verdict::PowerCapped,
            "top target must overload the hot spots"
        );

        let ic = interference_clusters();
        let SweepAxis::JoinCount(ref ns) = ic.sweep else {
            panic!("interference-clusters sweeps N");
        };
        let net = deploy(&ic, *ns.last().unwrap(), 7);
        let out = loop_for(&ic, 6.0).run(&net);
        assert!(
            !out.report.infeasible.is_empty(),
            "largest N must duty-cycle some nodes"
        );
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, minim_net::event::Event::Leave { .. })),
            "drop_infeasible must surface as leave events"
        );
    }
}
