//! `minim-lab` — the scenario lab CLI.
//!
//! Lists, inspects, and runs declarative [`ScenarioSpec`]s: the named
//! presets (the paper's Fig 10–12 sweeps plus the clustered /
//! heterogeneous / churn / corridor extensions) or any JSON spec file.
//!
//! ```text
//! minim-lab list
//! minim-lab show <preset>
//! minim-lab run <preset | spec.json> [--runs K] [--seed S] [--workers W]
//!                                    [--format table|json|csv|all]
//!                                    [--out DIR] [--metrics-out FILE]
//!                                    [--quiet]
//! minim-lab serve-replay <dir> [--gen N] [--seed S] [--strategy NAME]
//!                              [--snapshot-every K]
//! ```
//!
//! * `list` — the preset catalog (name, sweep shape, summary).
//! * `show` — a preset's JSON, which doubles as a spec-file template:
//!   `minim-lab show clustered-churn > my.json`, edit, `run my.json`.
//! * `run` — executes the sweep, streaming per-point progress to
//!   stderr. `--runs/--seed/--workers` override the spec's defaults
//!   (`--workers` sizes the replicate fan-out; each replicate runs its
//!   events sequentially); `--format` picks the stdout rendering (default `table`); `--out DIR`
//!   additionally writes `<name>.json` and `<name>.csv`;
//!   `--metrics-out FILE` resets the minim-obs registry before the
//!   sweep and afterwards writes the full `minim-metrics/1` document
//!   (counters, gauges, latency histograms, span profile tree) to
//!   `FILE`, with a one-screen metrics summary printed alongside the
//!   tables.
//! * `serve-replay` — opens (or creates) a durable engine directory:
//!   recovery replays the journal, prints the [`RecoveryReport`], and
//!   with `--gen N` feeds `N` fresh churn events through the
//!   journaled engine before closing, then prints the count and mean
//!   of the engine's own `serve.append_ns`, `serve.fsync_ns`,
//!   `serve.snapshot_ns` and `serve.preallocate_ns` histograms.
//!   Running it twice — once with `--gen`, once without — is the
//!   crash-recovery smoke test CI runs: the second invocation must
//!   replay to the exact state the first one left (digests printed
//!   for comparison).
//!
//! [`RecoveryReport`]: minim_serve::RecoveryReport

#![forbid(unsafe_code)]

use minim_sim::scenario::{Scenario, ScenarioSpec, SweepProgress, SweepResult};
use minim_sim::{ascii_plot, presets};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "minim-lab — declarative scenario lab\n\n\
         USAGE:\n  minim-lab list\n  minim-lab show <preset>\n  \
         minim-lab run <preset | spec.json> [--runs K] [--seed S] [--workers W]\n\
         \u{20}                                  [--format table|json|csv|all]\n\
         \u{20}                                  [--out DIR] [--metrics-out FILE] [--quiet]\n  \
         minim-lab serve-replay <dir> [--gen N] [--seed S] [--strategy Minim|CP|BBB] [--snapshot-every K]\n\n\
         Presets: see `minim-lab list`. A spec file is the JSON printed by `show`."
    );
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("minim-lab: {msg}");
    std::process::exit(2);
}

fn sweep_shape(spec: &ScenarioSpec) -> String {
    use minim_sim::SweepAxis;
    match &spec.sweep {
        SweepAxis::JoinCount(v) => format!("N x{}", v.len()),
        SweepAxis::AvgRange(v) => format!("avgR x{}", v.len()),
        SweepAxis::RaiseFactor(v) => format!("raisefactor x{}", v.len()),
        SweepAxis::MaxDisp(v) => format!("maxdisp x{}", v.len()),
        SweepAxis::Rounds(max) => format!("RoundNo 1..={max}"),
        SweepAxis::MixSteps(v) => format!("steps x{}", v.len()),
        SweepAxis::LongFraction(v) => format!("longfrac x{}", v.len()),
        SweepAxis::TargetSinr(v) => format!("targetSINR x{}", v.len()),
        SweepAxis::Single => "single point".into(),
    }
}

fn cmd_list() -> ExitCode {
    println!("{:<22} {:>6} {:<16} summary", "preset", "runs", "sweep");
    for spec in presets::catalog() {
        println!(
            "{:<22} {:>6} {:<16} {}",
            spec.name,
            spec.runs,
            sweep_shape(&spec),
            spec.summary
        );
    }
    println!("\nrun one with: minim-lab run <preset> [--runs K]");
    ExitCode::SUCCESS
}

fn cmd_show(name: &str) -> ExitCode {
    match presets::find(name) {
        Some(spec) => {
            println!("{}", spec.to_json_string());
            ExitCode::SUCCESS
        }
        None => die(&format!(
            "unknown preset {name:?}; `minim-lab list` shows the catalog"
        )),
    }
}

struct RunArgs {
    target: String,
    runs: Option<usize>,
    seed: Option<u64>,
    workers: Option<usize>,
    format: String,
    out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    quiet: bool,
}

fn parse_run_args(argv: &[String]) -> RunArgs {
    let mut args = RunArgs {
        target: String::new(),
        runs: None,
        seed: None,
        workers: None,
        format: "table".into(),
        out: None,
        metrics_out: None,
        quiet: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let parse_next = |i: &mut usize, what: &str| -> String {
            *i += 1;
            argv.get(*i)
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
                .clone()
        };
        match argv[i].as_str() {
            "--runs" => {
                args.runs = Some(
                    parse_next(&mut i, "--runs")
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--runs needs a positive integer")),
                )
            }
            "--seed" => {
                args.seed = Some(
                    parse_next(&mut i, "--seed")
                        .parse()
                        .unwrap_or_else(|_| die("--seed needs a non-negative integer")),
                )
            }
            "--workers" => {
                args.workers = Some(
                    parse_next(&mut i, "--workers")
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--workers needs a positive integer")),
                )
            }
            "--format" => {
                args.format = parse_next(&mut i, "--format");
                if !matches!(args.format.as_str(), "table" | "json" | "csv" | "all") {
                    die("--format must be table|json|csv|all");
                }
            }
            "--out" => args.out = Some(PathBuf::from(parse_next(&mut i, "--out"))),
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(parse_next(&mut i, "--metrics-out")))
            }
            "--quiet" => args.quiet = true,
            other if args.target.is_empty() && !other.starts_with('-') => {
                args.target = other.to_string();
            }
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if args.target.is_empty() {
        usage();
    }
    args
}

/// Resolves `run`'s target: a preset name first, then a spec file.
fn resolve_spec(target: &str) -> ScenarioSpec {
    if let Some(spec) = presets::find(target) {
        return spec;
    }
    let path = Path::new(target);
    if path.exists() {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
        return ScenarioSpec::from_json_str(&text)
            .unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    }
    die(&format!(
        "{target:?} is neither a preset (see `minim-lab list`) nor a spec file"
    ))
}

fn cmd_run(argv: &[String]) -> ExitCode {
    let args = parse_run_args(argv);
    let spec = resolve_spec(&args.target);
    let mut cfg = spec.default_config();
    if let Some(runs) = args.runs {
        cfg.runs = runs;
    }
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    if let Some(workers) = args.workers {
        cfg.workers = workers;
    }
    let scenario = Scenario::new(spec).unwrap_or_else(|e| die(&e.to_string()));
    if !args.quiet {
        eprintln!(
            "minim-lab: {} — {} replicates/point, {} workers, seed {:#x}",
            scenario.spec().name,
            cfg.runs,
            cfg.workers,
            cfg.seed
        );
    }
    // Scope the trace to this sweep: the registry is process-global,
    // so clear whatever startup recorded before the run begins.
    minim_obs::reset();
    let quiet = args.quiet;
    let result = scenario.run_with_progress(&cfg, |p: SweepProgress| {
        if !quiet {
            eprintln!(
                "minim-lab: [{}/{}] x = {} done ({} replicates, {:.1?} elapsed)",
                p.done, p.total, p.x, p.replicates, p.elapsed
            );
        }
    });
    emit(&args, &result)
}

fn emit(args: &RunArgs, result: &SweepResult) -> ExitCode {
    match args.format.as_str() {
        "json" => println!("{}", result.to_json_string()),
        "csv" => print!("{}", result.to_csv()),
        "table" | "all" => {
            let (colors, recodings) = result.tables();
            println!("{}", colors.render());
            println!("{}", recodings.render());
            println!("{}", ascii_plot(&recodings, 64, 16));
            println!(
                "sweep: {} points, {} events, {} replicates/point, {:.1?} wall clock",
                result.points.len(),
                result.total_events,
                result.runs,
                result.wall_clock
            );
            print!("{}", metrics_summary(result));
            if args.format == "all" {
                println!("{}", result.to_json_string());
                print!("{}", result.to_csv());
            }
        }
        _ => unreachable!("validated in parse_run_args"),
    }
    if let Some(path) = &args.metrics_out {
        let doc = minim_sim::trace::trace_document();
        std::fs::write(path, doc.to_string_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        if !args.quiet {
            eprintln!("minim-lab: wrote metrics {}", path.display());
        }
    }
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
        let json_path = dir.join(format!("{}.json", result.scenario));
        let csv_path = dir.join(format!("{}.csv", result.scenario));
        std::fs::write(&json_path, result.to_json_string())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", json_path.display())));
        std::fs::write(&csv_path, result.to_csv())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", csv_path.display())));
        if !args.quiet {
            eprintln!(
                "minim-lab: wrote {} and {}",
                json_path.display(),
                csv_path.display()
            );
        }
    }
    ExitCode::SUCCESS
}

/// Renders a nanosecond duration with a human unit (ns/µs/ms/s).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// One-screen rendering of the sweep's minim-obs state: the busiest
/// counters, every latency histogram, and the top of the span profile
/// tree (two levels, self/total split).
fn metrics_summary(result: &SweepResult) -> String {
    use std::fmt::Write as _;
    let snap = &result.metrics;
    let mut out = String::new();
    if snap.counters.is_empty() && snap.histograms.is_empty() && snap.spans_recorded == 0 {
        return out;
    }
    let _ = writeln!(
        out,
        "metrics: {} counters, {} gauges, {} histograms, {} spans ({} dropped)",
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        snap.spans_recorded,
        snap.spans_dropped
    );
    let mut counters = snap.counters.clone();
    counters.sort_by_key(|c| std::cmp::Reverse(c.1));
    for (name, v) in counters.iter().take(8) {
        let _ = writeln!(out, "  {name:<28} {v:>12}");
    }
    for h in &snap.histograms {
        let _ = writeln!(
            out,
            "  {:<28} {:>8} obs   mean {:>8}   max {:>8}",
            h.name,
            h.count,
            fmt_ns(h.mean_ns() as u64),
            fmt_ns(h.max_ns)
        );
    }
    let prof = minim_obs::profile();
    if !prof.roots.is_empty() {
        let _ = writeln!(out, "profile:");
        for root in prof.roots.iter().take(6) {
            let _ = writeln!(
                out,
                "  {:<28} total {:>8}   self {:>8}   x{}",
                root.name,
                fmt_ns(root.total_ns),
                fmt_ns(root.self_ns),
                root.count
            );
            for child in root.children.iter().take(6) {
                let _ = writeln!(
                    out,
                    "    {:<26} total {:>8}   self {:>8}   x{}",
                    child.name,
                    fmt_ns(child.total_ns),
                    fmt_ns(child.self_ns),
                    child.count
                );
            }
        }
    }
    out
}

struct ServeReplayArgs {
    dir: PathBuf,
    gen: usize,
    seed: u64,
    strategy: minim_core::StrategyKind,
    snapshot_every: u64,
}

fn parse_serve_replay_args(argv: &[String]) -> ServeReplayArgs {
    use minim_core::StrategyKind;
    let mut args = ServeReplayArgs {
        dir: PathBuf::new(),
        gen: 0,
        seed: 42,
        strategy: StrategyKind::Minim,
        snapshot_every: 64,
    };
    let mut have_dir = false;
    let mut i = 0;
    while i < argv.len() {
        let parse_next = |i: &mut usize, what: &str| -> String {
            *i += 1;
            argv.get(*i)
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
                .clone()
        };
        match argv[i].as_str() {
            "--gen" => {
                args.gen = parse_next(&mut i, "--gen")
                    .parse()
                    .unwrap_or_else(|_| die("--gen needs a non-negative integer"))
            }
            "--seed" => {
                args.seed = parse_next(&mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs a non-negative integer"))
            }
            "--strategy" => {
                let name = parse_next(&mut i, "--strategy");
                args.strategy = StrategyKind::ALL
                    .into_iter()
                    .find(|k| k.label().eq_ignore_ascii_case(&name))
                    .unwrap_or_else(|| die("--strategy must be Minim, CP, or BBB"));
            }
            "--snapshot-every" => {
                args.snapshot_every = parse_next(&mut i, "--snapshot-every")
                    .parse()
                    .unwrap_or_else(|_| die("--snapshot-every needs a non-negative integer"))
            }
            other if !have_dir && !other.starts_with('-') => {
                args.dir = PathBuf::from(other);
                have_dir = true;
            }
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if !have_dir {
        usage();
    }
    args
}

fn cmd_serve_replay(argv: &[String]) -> ExitCode {
    use minim_net::workload::ChurnWorkload;
    use minim_serve::{Engine, EngineOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let args = parse_serve_replay_args(argv);
    let opts = EngineOptions {
        strategy: args.strategy,
        snapshot_every: args.snapshot_every,
        ..EngineOptions::default()
    };
    let mut eng = Engine::open_dir(&args.dir, opts)
        .unwrap_or_else(|e| die(&format!("{}: {e}", args.dir.display())));
    let layer = |name: &str| {
        let (count, mean) = minim_obs::snapshot()
            .histogram(name)
            .map_or((0, 0.0), |h| (h.count, h.mean_ns()));
        format!("{name} n={count} mean={}", fmt_ns(mean.round() as u64))
    };
    let r = *eng.recovery_report();
    println!(
        "serve-replay: recovered {} events (snapshot {} + {} replayed, \
         {} bytes truncated, {} corrupt frames, {} snapshots discarded), {}, {}",
        r.events_total,
        r.snapshot_seq,
        r.frames_replayed,
        r.bytes_truncated,
        r.corrupt_frames,
        r.snapshots_discarded,
        layer("serve.recover.snapshot_ns"),
        layer("serve.recover.replay_ns")
    );

    if args.gen > 0 {
        let workload = ChurnWorkload::paper(args.gen, 0.6);
        let mut rng = StdRng::seed_from_u64(args.seed);
        for step in 0..args.gen {
            let event = workload.next_event(eng.net(), &mut rng);
            eng.apply(&event)
                .unwrap_or_else(|e| die(&format!("apply failed at step {step}: {e}")));
        }
        println!("serve-replay: journaled {} fresh events", args.gen);
        println!(
            "serve-replay: layers {}, {}, {}, {}",
            layer("serve.append_ns"),
            layer("serve.fsync_ns"),
            layer("serve.snapshot_ns"),
            layer("serve.preallocate_ns")
        );
    }

    println!(
        "serve-replay: state {} nodes, {} events total, strategy {}, digest {:#018x}",
        eng.net().node_count(),
        eng.events_applied(),
        eng.strategy_kind().label(),
        eng.net().state_digest()
    );
    if let Some(reason) = eng.quarantine_reason() {
        die(&format!("engine quarantined: {reason}"));
    }
    eng.close()
        .unwrap_or_else(|e| die(&format!("close failed: {e}")));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("show") => match argv.get(1) {
            Some(name) => cmd_show(name),
            None => usage(),
        },
        Some("run") => cmd_run(&argv[1..]),
        Some("serve-replay") => cmd_serve_replay(&argv[1..]),
        _ => usage(),
    }
}
