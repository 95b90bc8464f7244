//! Regenerates every table/figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run --release -p minim-bench --bin repro -- [targets] [--runs K] [--quick] [--plot] [--out DIR]
//!
//! targets: fig10 fig10r fig11 fig12 ablations gossip proto radio mobility hybrid all
//!   fig10   — Fig 10(a–c): joins, sweep N
//!   fig10r  — Fig 10(d–f): joins, sweep average range
//!   fig11   — Fig 11(a–c): power increase, sweep raisefactor
//!   fig12   — Fig 12(a–d): movement, sweep maxdisp and RoundNo
//!   ablations — Minim keep-edge weight + CP 2-hop vs exact color pick
//!   gossip  — §6 future-work gossip compaction study
//!   proto   — messages and rounds per join of the distributed joiners
//!   radio   — packets lost to retune outages vs retune window
//!   mobility — recodings under teleport vs random-waypoint motion
//!   hybrid  — §6 hybrid: Minim plus periodic gossip under churn
//!   all     — every target above (the default)
//! --runs K  — replicates per point (default 100, the paper's protocol;
//!             15 under --quick)
//! --quick   — thinner sweeps and 15 replicates unless --runs is given
//! --plot    — print an ASCII plot under each table
//! --out DIR — CSV output directory (default: results/)
//! ```
//!
//! Prints each figure as an aligned table (mean ± std) and writes one
//! CSV per figure into the output directory.

#![forbid(unsafe_code)]

use minim_sim::experiments::{
    ablation_cp_pick, ablation_keep_weight, fig10_vs_avg_range, fig10_vs_n, fig11_power_increase,
    fig12_vs_maxdisp, fig12_vs_rounds, gossip_study, hybrid_gossip_study, mobility_model_study,
    paper_fig10_avg_ranges, paper_fig10_ns, paper_fig11_factors, paper_fig12_maxdisps,
    ExperimentConfig,
};
use minim_sim::Table;
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    targets: HashSet<String>,
    runs: usize,
    quick: bool,
    plot: bool,
    out: PathBuf,
}

/// Parses the command line (without the program name). An explicit
/// `--runs` wins over `--quick`'s default of 15 replicates.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut targets = HashSet::new();
    let mut runs = None;
    let mut quick = false;
    let mut plot = false;
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--runs" => {
                i += 1;
                let k = argv.get(i).and_then(|s| s.parse::<usize>().ok());
                runs = Some(
                    k.filter(|&k| k > 0)
                        .ok_or("--runs needs a positive integer")?,
                );
            }
            "--quick" => quick = true,
            "--plot" => plot = true,
            "--out" => {
                i += 1;
                out = PathBuf::from(argv.get(i).ok_or("--out needs a path")?);
            }
            t @ ("fig10" | "fig10r" | "fig11" | "fig12" | "ablations" | "gossip" | "proto"
            | "radio" | "mobility" | "hybrid" | "all") => {
                targets.insert(t.to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if targets.is_empty() {
        targets.insert("all".to_string());
    }
    Ok(Args {
        targets,
        runs: runs.unwrap_or(if quick { 15 } else { 100 }),
        quick,
        plot,
        out,
    })
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn emit(args: &Args, file: &str, table: &Table) {
    println!("{}", table.render());
    if args.plot {
        println!("{}", minim_sim::ascii_plot(table, 64, 16));
    }
    let path = args.out.join(file);
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("repro: failed to write {}: {e}", path.display());
    } else {
        println!("  -> {}\n", path.display());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|msg| die(&msg));
    std::fs::create_dir_all(&args.out).unwrap_or_else(|e| {
        die(&format!("cannot create {}: {e}", args.out.display()));
    });
    let cfg = ExperimentConfig {
        runs: args.runs,
        ..ExperimentConfig::paper()
    };
    let want = |t: &str| args.targets.contains(t) || args.targets.contains("all");
    println!(
        "# minim repro — {} replicates per point, {} workers\n",
        cfg.runs, cfg.workers
    );

    if want("fig10") {
        let t0 = Instant::now();
        let ns = if args.quick {
            vec![40, 80, 120]
        } else {
            paper_fig10_ns()
        };
        let figs = fig10_vs_n(&cfg, &ns);
        emit(&args, "fig10_colors_vs_n.csv", &figs.colors);
        emit(&args, "fig10_recodings_vs_n.csv", &figs.recodings);
        println!("  fig10 done in {:.1?}\n", t0.elapsed());
    }

    if want("fig10r") {
        let t0 = Instant::now();
        let avg = if args.quick {
            vec![10.0, 25.0, 45.0]
        } else {
            paper_fig10_avg_ranges()
        };
        let figs = fig10_vs_avg_range(&cfg, &avg, 100);
        emit(&args, "fig10_colors_vs_avgr.csv", &figs.colors);
        emit(&args, "fig10_recodings_vs_avgr.csv", &figs.recodings);
        println!("  fig10r done in {:.1?}\n", t0.elapsed());
    }

    if want("fig11") {
        let t0 = Instant::now();
        let factors = if args.quick {
            vec![2.0, 4.0, 6.0]
        } else {
            paper_fig11_factors()
        };
        let figs = fig11_power_increase(&cfg, &factors, 100);
        emit(&args, "fig11_dcolors_vs_raisefactor.csv", &figs.dcolors);
        emit(
            &args,
            "fig11_drecodings_vs_raisefactor.csv",
            &figs.drecodings,
        );
        println!("  fig11 done in {:.1?}\n", t0.elapsed());
    }

    if want("fig12") {
        let t0 = Instant::now();
        let disps = if args.quick {
            vec![20.0, 40.0, 70.0]
        } else {
            paper_fig12_maxdisps()
        };
        let figs_a = fig12_vs_maxdisp(&cfg, &disps, 40);
        emit(&args, "fig12_drecodings_vs_maxdisp.csv", &figs_a.drecodings);
        let rounds = if args.quick { 4 } else { 10 };
        let figs_b = fig12_vs_rounds(&cfg, rounds, 40, 40.0);
        emit(&args, "fig12_dcolors_vs_rounds.csv", &figs_b.dcolors);
        emit(&args, "fig12_drecodings_vs_rounds.csv", &figs_b.drecodings);
        println!("  fig12 done in {:.1?}\n", t0.elapsed());
    }

    if want("ablations") {
        let t0 = Instant::now();
        let weights = ablation_keep_weight(&cfg, &[1, 2, 3, 5, 9], 60);
        emit(&args, "ablation_keep_weight.csv", &weights);
        let picks = ablation_cp_pick(&cfg, &[40, 80, 120]);
        emit(&args, "ablation_cp_pick.csv", &picks);
        println!("  ablations done in {:.1?}\n", t0.elapsed());
    }

    if want("gossip") {
        let t0 = Instant::now();
        let t = gossip_study(&cfg, &[0, 2, 5, 10], 60);
        emit(&args, "gossip_compaction.csv", &t);
        println!("  gossip done in {:.1?}\n", t0.elapsed());
    }

    if want("proto") {
        let t0 = Instant::now();
        let t = proto_cost_study(&cfg, &[20, 40, 80, 120]);
        emit(&args, "proto_message_cost.csv", &t);
        println!("  proto done in {:.1?}\n", t0.elapsed());
    }

    if want("mobility") {
        let t0 = Instant::now();
        let t = mobility_model_study(&cfg, 40, 4);
        emit(&args, "mobility_models.csv", &t);
        println!("  mobility done in {:.1?}\n", t0.elapsed());
    }

    if want("hybrid") {
        let t0 = Instant::now();
        let t = hybrid_gossip_study(&cfg, &[1, 5, 20, 50], 60, 150);
        emit(&args, "hybrid_gossip.csv", &t);
        println!("  hybrid done in {:.1?}\n", t0.elapsed());
    }

    if want("radio") {
        let t0 = Instant::now();
        let t = radio_goodput_study(&cfg, &[0, 4, 8, 16, 32]);
        emit(&args, "radio_goodput.csv", &t);
        println!("  radio done in {:.1?}\n", t0.elapsed());
    }

    println!("repro complete.");
}

/// Application-cost study (the §1 motivation made quantitative): a
/// 40-node network under four movement rounds spread over 1000 traffic
/// slots; sweep the transceiver retune window and compare per-strategy
/// packets lost to retune outages. Minim's minimal recoding translates
/// directly into fewer lost packets, linearly in the retune window.
fn radio_goodput_study(cfg: &ExperimentConfig, retune_windows: &[u64]) -> Table {
    use minim_core::StrategyKind;
    use minim_net::event::apply_topology;
    use minim_net::workload::{JoinWorkload, MovementWorkload};
    use minim_net::Network;
    use minim_radio::{run_scenario, spread_events, RadioConfig, TimedEvent};
    use minim_sim::metrics::Stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let labels: Vec<String> = StrategyKind::ALL
        .iter()
        .flat_map(|k| {
            [
                format!("{} outage-lost", k.label()),
                format!("{} goodput %", k.label()),
            ]
        })
        .collect();
    let mut table = Table::new(
        "Radio: packets lost to retune outages vs retune window (N=40, 4 move rounds, 1000 slots)",
        "retune slots",
        labels,
    );
    for (pi, &window) in retune_windows.iter().enumerate() {
        let mut cols = vec![Vec::new(); StrategyKind::ALL.len() * 2];
        for rep in 0..cfg.runs.min(30) {
            let seed = minim_geom::sample::child_seed(cfg.seed, ((pi as u64) << 32) | rep as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let join_events = JoinWorkload::paper(40).generate(&mut rng);

            // Identical movement schedule for every strategy.
            let mut ghost = Network::new(30.5);
            for e in &join_events {
                apply_topology(&mut ghost, e);
            }
            let mut schedule: Vec<TimedEvent> = Vec::new();
            for round in 0..4u64 {
                let moves = MovementWorkload::paper(40.0, 1).generate_round(&ghost, &mut rng);
                for e in &moves {
                    apply_topology(&mut ghost, e);
                }
                schedule.extend(spread_events(moves, (round + 1) * 250, round * 250));
            }

            for (si, kind) in StrategyKind::ALL.iter().enumerate() {
                let mut net = Network::new(30.5);
                let mut s = kind.build();
                for e in &join_events {
                    s.apply(&mut net, e);
                }
                let mut traffic_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
                let stats = run_scenario(
                    &mut net,
                    &schedule,
                    1000,
                    RadioConfig {
                        retune_slots: window,
                        traffic_prob: 0.5,
                        ..RadioConfig::default()
                    },
                    &mut traffic_rng,
                    |net, e| s.apply(net, e).1,
                );
                cols[si * 2].push(stats.lost_to_outages() as f64);
                cols[si * 2 + 1].push(stats.goodput() * 100.0);
            }
        }
        table.push_row(
            window as f64,
            cols.iter().map(|s| Stats::from_samples(s)).collect(),
        );
    }
    table
}

/// Distributed cost study: mean messages and rounds per join for the
/// message-passing realizations of Minim and CP, as the network grows.
/// Validates the paper's "communication only local to the event" claim
/// — per-join costs plateau at the neighborhood size instead of
/// growing with `N`.
fn proto_cost_study(cfg: &ExperimentConfig, ns: &[usize]) -> Table {
    use minim_net::event::Event;
    use minim_net::workload::JoinWorkload;
    use minim_net::Network;
    use minim_proto::{distributed_cp_join, distributed_minim_join};
    use minim_sim::metrics::Stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Note: in the fixed 100x100 arena the average degree grows with N,
    // and per-join messages track the joiner's *degree* (Minim ≈ one
    // query + one report per neighbor plus recolors; CP adds 2-hop
    // announcements) while rounds stay O(1) — this, not a flat count,
    // is the locality claim. The integration tests pin the
    // size-independence by holding the neighborhood fixed as N grows.
    let mut table = Table::new(
        "Distributed cost per join: messages track degree, rounds stay O(1)",
        "N",
        vec![
            "Minim msgs/join".into(),
            "Minim rounds/join".into(),
            "CP msgs/join".into(),
            "CP rounds/join".into(),
        ],
    );
    for (pi, &n) in ns.iter().enumerate() {
        let mut cols = vec![Vec::new(); 4];
        for rep in 0..cfg.runs.min(25) {
            let seed = minim_geom::sample::child_seed(cfg.seed, ((pi as u64) << 32) | rep as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let events = JoinWorkload::paper(n).generate(&mut rng);

            let mut net = Network::new(30.5);
            let (mut msgs, mut rounds) = (0usize, 0usize);
            for e in &events {
                let Event::Join { cfg } = e else {
                    unreachable!()
                };
                let id = net.next_id();
                let (_, m) = distributed_minim_join(&mut net, id, *cfg);
                msgs += m.messages;
                rounds += m.rounds;
            }
            cols[0].push(msgs as f64 / n as f64);
            cols[1].push(rounds as f64 / n as f64);

            let mut net = Network::new(30.5);
            let (mut msgs, mut rounds) = (0usize, 0usize);
            for e in &events {
                let Event::Join { cfg } = e else {
                    unreachable!()
                };
                let id = net.next_id();
                let (_, m) = distributed_cp_join(&mut net, id, *cfg);
                msgs += m.messages;
                rounds += m.rounds;
            }
            cols[2].push(msgs as f64 / n as f64);
            cols[3].push(rounds as f64 / n as f64);
        }
        table.push_row(
            n as f64,
            cols.iter().map(|s| Stats::from_samples(s)).collect(),
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn quick_sets_only_the_default_replicate_count() {
        assert_eq!(parse(&[]).unwrap().runs, 100);
        assert_eq!(parse(&["--quick"]).unwrap().runs, 15);
        for argv in [["--runs", "7", "--quick"], ["--quick", "--runs", "7"]] {
            let args = parse(&argv).unwrap();
            assert_eq!(args.runs, 7, "{argv:?}");
            assert!(args.quick, "{argv:?}");
        }
    }

    #[test]
    fn targets_default_to_all_and_bad_arguments_are_errors() {
        let args = parse(&["fig10", "--out", "dir"]).unwrap();
        assert!(args.targets.contains("fig10") && args.targets.len() == 1);
        assert_eq!(args.out, PathBuf::from("dir"));
        assert!(parse(&[]).unwrap().targets.contains("all"));
        for bad in [
            &["--runs"][..],
            &["--runs", "0"],
            &["--runs", "x"],
            &["--out"],
            &["fig99"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
