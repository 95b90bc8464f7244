//! # perfbench — the repository's closed-loop benchmark
//!
//! Three workloads, each a **closed loop with one caller**: an event is
//! submitted only after the previous call returned (`Engine::apply` is
//! synchronous and has no queue, so an open-loop rate sweep would
//! measure nothing extra). Every workload takes its seed as an
//! argument and generates its whole event stream from it before any
//! timing ([`stream`]); the program sees only the generated events.
//! All runs use the program's defaults (`EngineOptions::default()`:
//! `sync_every = 1`, `snapshot_every = 1024`, stratified index).
//!
//! | workload | path | stresses |
//! |---|---|---|
//! | `dense-serve` | paper arena, 400-join base, churn through `Engine::apply` | the recode planner |
//! | `metro-serve` | metropolis, 4000-join base, churn through `Engine::apply` | the journal (append, fsync) |
//! | `power-churn` | metropolis + `PowerSession`, validated runner, settle every 20 events | rewire and Minim under power changes |
//!
//! ## One run
//!
//! 1. Generate one stream per round (untimed), round `r` from
//!    [`round_seed`]`(seed, r)`. A round's measured phase is a fixed
//!    number of events, `seconds × nominal rate / ROUNDS`
//!    ([`Workload::nominal_rate`] is calibrated so the [`ROUNDS`] rounds
//!    together last about `seconds` on a 2-core reference box). A fixed
//!    count makes every work counter repeat exactly for a seed.
//! 2. One warm-up pass (a set-up plus the first tenth of round 0's
//!    churn), discarded.
//! 3. [`ROUNDS`] untraced rounds, each a timed set-up, the timed
//!    measured phase, the correctness gates (outside the timers) and a
//!    timed recovery. Every end-to-end metric is the interquartile mean
//!    over the rounds ([`interquartile_mean`]): the fastest and slowest
//!    quarter are dropped, so a burst of host noise or one dear stream
//!    does not move it, and the middle half is averaged, so it does not
//!    jump between neighbouring values the way a median of few does.
//! 4. With `--trace 1` only: a separate traced pass over round 0's
//!    stream wraps each layer's public calls in timers and gives the
//!    per-layer metrics ([`Traced`]); its digest must equal round 0's.
//!
//! The end-to-end runs (`--trace 0`) use the `perfbench` binary and the
//! system allocator; the traced runs use `perfbench-traced`, whose
//! counting allocator is switched on only during the traced pass.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use minim_core::{commit_plan, validation_seeds, Minim, RecodingStrategy};
use minim_graph::conflict;
use minim_net::event::{apply_topology_delta, AppliedEvent, Event};
use minim_net::Network;
use minim_sim::json::Json;

pub mod power;
pub mod serve;
pub mod stream;
pub mod trace;

use trace::{ratio, Layer};

/// Untraced rounds per run; end-to-end metrics are their interquartile
/// means.
pub const ROUNDS: usize = 9;

/// The stream seed of round `round` of a run with `seed`: distinct for
/// every `(seed, round < ROUNDS)` pair.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(ROUNDS as u64).wrapping_add(round as u64)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper arena, journaled churn: the recode planner's workload.
    DenseServe,
    /// Metropolis deployment, journaled churn: the journal's workload.
    MetroServe,
    /// Metropolis deployment under closed-loop power control.
    PowerChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DenseServe,
        Workload::MetroServe,
        Workload::PowerChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseServe => "dense-serve",
            Workload::MetroServe => "metro-serve",
            Workload::PowerChurn => "power-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Exogenous events per second measured on the 2-core reference
    /// box; sizes the measured phase so it lasts about `--seconds`.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Workload::DenseServe => 1_000.0,
            Workload::MetroServe => 5_500.0,
            Workload::PowerChurn => 3_700.0,
        }
    }
}

/// How much one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Exogenous events in one round's measured phase.
    pub events: usize,
    /// Untraced rounds.
    pub rounds: usize,
    /// Whether a discarded warm-up pass runs first.
    pub warmup: bool,
    /// Whether the traced pass runs.
    pub trace: bool,
}

impl Plan {
    /// The plan of a benchmark run measuring about `seconds`. The
    /// count is fixed for a given `seconds`, so on the serve workloads
    /// recovery always replays the same journal tail.
    pub fn for_seconds(workload: Workload, seconds: u64, trace: bool) -> Plan {
        let events =
            ((seconds as f64 * workload.nominal_rate() / ROUNDS as f64).round() as usize).max(1);
        Plan {
            events,
            rounds: ROUNDS,
            warmup: true,
            trace,
        }
    }

    /// A short traced plan of `events` events in two rounds with no
    /// warm-up (for tests).
    pub fn quick(events: usize) -> Plan {
        Plan {
            events,
            rounds: 2,
            warmup: false,
            trace: true,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A named correctness gate.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
}

/// The environment record every result carries.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Available parallelism.
    pub nproc: usize,
    /// The workload seed.
    pub seed: u64,
    /// Exogenous events in the measured phase.
    pub events: usize,
    /// Node count at the end of the measured phase.
    pub nodes: usize,
    /// Mean out-degree (directed edges per node) at the end of the
    /// measured phase — the workload's density.
    pub mean_degree: f64,
    /// Filesystem type of the journal directory (`none` without one).
    pub journal_fs: String,
    /// `minim_obs::COMPILED`.
    pub obs_compiled: bool,
    /// The checkout's commit, when it is a git checkout.
    pub commit: String,
}

impl Env {
    fn new(seed: u64, events: usize, net: &Network, journal_fs: String) -> Env {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed,
            events,
            nodes: net.node_count(),
            mean_degree: ratio(net.graph().edge_count() as f64, net.node_count() as f64),
            journal_fs,
            obs_compiled: minim_obs::COMPILED,
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Exogenous events submitted in the measured phase.
    pub attempted: u64,
    /// Failed events plus failed correctness gates.
    pub failed: u64,
    /// The correctness gates.
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced phase).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced pass; empty without `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Peak resident memory (also among `per_layer` when traced).
    pub memory: Metric,
    /// The untraced rounds' own numbers, one line each.
    pub rounds: Vec<String>,
    /// Digest of the state after round 0's measured phase.
    pub digest: u64,
    /// The environment record.
    pub env: Env,
}

impl Outcome {
    /// Whether every gate held and no event failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// The metric named `name`, from either list.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// What the untraced rounds recorded, one entry per round.
#[derive(Debug, Default)]
pub(crate) struct Untraced {
    /// Events per second of the measured phase.
    pub rate: Vec<f64>,
    /// Median submit-to-return latency, microseconds.
    pub p50_us: Vec<f64>,
    /// 99th-percentile submit-to-return latency, microseconds.
    pub p99_us: Vec<f64>,
    /// Wall clock of the measured phase, seconds.
    pub wall_s: Vec<f64>,
    /// Set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Recovery, seconds.
    pub recover_s: Vec<f64>,
    /// Peak resident memory of the set-up and measured phase, MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Failed events, all rounds.
    pub failed: u64,
}

/// Resets this process's resident-memory high-water mark
/// (`/proc/self/clear_refs`), so a round's peak is its own.
pub(crate) fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

impl Untraced {
    /// Records one measured phase from its per-event latencies and its
    /// wall clock, and the round's peak resident memory so far.
    pub fn phase(&mut self, lat_ns: &[u64], wall: std::time::Duration) {
        self.peak_rss_mb.push(peak_rss_mb());
        let wall_s = wall.as_secs_f64();
        self.rate.push(ratio(lat_ns.len() as f64, wall_s));
        self.p50_us
            .push(trace::quantile(lat_ns, 0.50) as f64 * 1e-3);
        self.p99_us
            .push(trace::quantile(lat_ns, 0.99) as f64 * 1e-3);
        self.wall_s.push(wall_s);
    }

    /// One report line per round.
    fn lines(&self) -> Vec<String> {
        (0..self.rate.len())
            .map(|i| {
                format!(
                    "events_per_s={:.1} event_p50_us={:.1} event_p99_us={:.1} setup_s={:.4} recover_s={:.4} peak_rss_mb={:.1}",
                    self.rate[i],
                    self.p50_us[i],
                    self.p99_us[i],
                    self.setup_s[i],
                    self.recover_s[i],
                    self.peak_rss_mb[i]
                )
            })
            .collect()
    }

    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric("events_per_s", interquartile_mean(&self.rate), "1/s"),
            metric("event_p50_us", interquartile_mean(&self.p50_us), "us"),
            metric("event_p99_us", interquartile_mean(&self.p99_us), "us"),
            metric("setup_s", interquartile_mean(&self.setup_s), "s"),
            metric("recover_s", interquartile_mean(&self.recover_s), "s"),
        ]
    }

    /// Peak resident memory, the interquartile mean of the rounds' own
    /// peaks. It is reported with the per-layer metrics, not gated: on
    /// `power-churn` the rounds of one run peak anywhere from about 120
    /// to 440 MiB (the settle's transient allocations), wider than any
    /// usable bound.
    fn memory(&self) -> Metric {
        metric("peak_rss_mb", interquartile_mean(&self.peak_rss_mb), "MB")
    }
}

/// The traced pass: per-boundary timers and the work counters read at
/// the same boundaries.
///
/// On the serve workloads the pass has two halves. The engine half runs
/// the stream through `Engine::apply` over a [`trace::TimedFs`], which
/// times journal I/O at the crate's own seam; its wall clock is the
/// traced wall clock. The replay half runs the same stream on a bare
/// `Network` through the calls Minim's handlers make (rewire, plan,
/// commit), giving the `net` and `core` times, and its digest must equal
/// the engine's. `serve.engine` is derived: summed `Engine::apply` time
/// minus the journal I/O and the replayed net/core time (codec, event
/// checks, snapshot encode).
#[derive(Debug, Default)]
pub struct Traced {
    /// Exogenous events traced.
    pub events: u64,
    /// Wall clock of the traced pass.
    pub wall_ns: u64,
    /// Wall clock of the untraced measured phase on the same stream.
    pub untraced_wall_s: f64,
    /// Summed `Engine::apply` time (serve workloads).
    pub apply_ns: u64,
    /// Journal I/O during the measured phase.
    pub fs: trace::FsStats,
    /// `FaultFs::read` at reopen.
    pub recover_read: Layer,
    /// `event::apply_topology_delta`.
    pub rewire: Layer,
    /// `RecodingStrategy::plan_batched` on `Minim`.
    pub plan: Layer,
    /// Plan time of plans with more than one write.
    pub matching_ns: u64,
    /// Plans with more than one write (past the fast path).
    pub matching_events: u64,
    /// `minim_core::commit_plan`.
    pub commit: Layer,
    /// `validation_seeds` + `conflict::validate_delta`.
    pub validate: Layer,
    /// Local validations that found a violation.
    pub violations: u64,
    /// `PowerSession::apply_*` / `note_range`.
    pub patch: Layer,
    /// `PowerSession::settle`.
    pub settle: Layer,
    /// Summed per-event edge insertions + removals.
    pub edge_churn: u64,
    /// Summed recode-set sizes of joins and moves.
    pub recode_set_sum: u64,
    /// Joins and moves (recode sets summed).
    pub recode_sets: u64,
    /// Nodes recoded.
    pub recodings: u64,
    /// Maximum color index after the pass.
    pub max_color: u32,
    /// Summed single-link power writes of the settles.
    pub updates: u64,
    /// Summed `SetRange` corrections the settles emitted.
    pub corrections: u64,
    /// Summed island counts of the settles.
    pub islands_sum: u64,
}

impl Traced {
    /// Applies `event` the way Minim's handlers do — topology, plan,
    /// commit — timing each call; with `validate`, also the validated
    /// runner's local check.
    pub fn apply(&mut self, minim: &Minim, net: &mut Network, event: &Event, validate: bool) {
        let (applied, delta) = self.rewire.time(|| apply_topology_delta(net, event, None));
        self.edge_churn += delta.edge_churn() as u64;
        if matches!(applied, AppliedEvent::Joined(_) | AppliedEvent::Moved(_)) {
            self.recode_set_sum += delta.recode_set().len() as u64;
            self.recode_sets += 1;
        }
        let plan = self.plan.time(|| minim.plan_batched(net, &applied, &delta));
        if plan.len() > 1 {
            self.matching_ns += self.plan.last_ns();
            self.matching_events += 1;
        }
        let outcome = self.commit.time(|| commit_plan(net, &plan));
        self.recodings += outcome.recodings() as u64;
        if validate {
            let ok = self.validate.time(|| {
                let seeds = validation_seeds(&delta, &outcome);
                conflict::validate_delta(net.graph(), net.assignment(), &seeds).is_ok()
            });
            if !ok {
                self.violations += 1;
            }
        }
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. Boundary self
    /// times plus `bench.other.self_s` add up to `traced_wall_s`
    /// (`serve.recover_read` is timed at reopen, outside that wall).
    pub fn metrics(&self) -> Vec<Metric> {
        let wall = self.wall_ns as f64 * 1e-9;
        let share = |s: f64| ratio(s, wall);
        let events = self.events as f64;
        let direct = [
            &self.fs.append,
            &self.fs.sync,
            &self.fs.replace,
            &self.rewire,
            &self.plan,
            &self.commit,
            &self.validate,
            &self.patch,
            &self.settle,
        ]
        .iter()
        .map(|l| l.self_s())
        .sum::<f64>();
        let engine = if self.apply_ns > 0 {
            self.apply_ns as f64 * 1e-9 - direct
        } else {
            0.0
        };
        let other = wall - direct - engine;
        let mut out = vec![
            metric(
                "trace_overhead",
                ratio(wall, self.untraced_wall_s) - 1.0,
                "ratio",
            ),
            metric("traced_wall_s", wall, "s"),
        ];
        let mut timed = |prefix: &'static [&'static str], l: &Layer, q: f64| {
            out.push(metric(prefix[0], l.self_s(), "s"));
            out.push(metric(prefix[1], share(l.self_s()), "fraction"));
            out.push(metric(prefix[2], l.calls() as f64, "count"));
            if prefix.len() > 3 {
                out.push(metric(prefix[3], l.quantile_us(q), "us"));
            }
            if prefix.len() > 4 {
                out.push(metric(prefix[4], l.allocs_per_call(), "allocs/call"));
            }
        };
        timed(
            &[
                "serve.append.self_s",
                "serve.append.share",
                "serve.append.calls",
                "serve.append.p99_us",
            ],
            &self.fs.append,
            0.99,
        );
        timed(
            &[
                "serve.fsync.self_s",
                "serve.fsync.share",
                "serve.fsync.calls",
                "serve.fsync.p99_us",
            ],
            &self.fs.sync,
            0.99,
        );
        timed(
            &[
                "serve.snapshot.self_s",
                "serve.snapshot.share",
                "serve.snapshot.calls",
            ],
            &self.fs.replace,
            0.99,
        );
        timed(
            &[
                "net.rewire.self_s",
                "net.rewire.share",
                "net.rewire.calls",
                "net.rewire.p99_us",
                "net.rewire.allocs_per_call",
            ],
            &self.rewire,
            0.99,
        );
        timed(
            &[
                "core.plan.self_s",
                "core.plan.share",
                "core.plan.calls",
                "core.plan.p99_us",
                "core.plan.allocs_per_call",
            ],
            &self.plan,
            0.99,
        );
        timed(
            &[
                "core.commit.self_s",
                "core.commit.share",
                "core.commit.calls",
            ],
            &self.commit,
            0.99,
        );
        timed(
            &[
                "graph.validate.self_s",
                "graph.validate.share",
                "graph.validate.calls",
                "graph.validate.p99_us",
            ],
            &self.validate,
            0.99,
        );
        timed(
            &[
                "power.patch.self_s",
                "power.patch.share",
                "power.patch.calls",
                "power.patch.p99_us",
                "power.patch.allocs_per_call",
            ],
            &self.patch,
            0.99,
        );
        timed(
            &[
                "power.settle.self_s",
                "power.settle.share",
                "power.settle.calls",
                "power.settle.p95_us",
                "power.settle.allocs_per_call",
            ],
            &self.settle,
            0.95,
        );
        let settles = self.settle.calls() as f64;
        out.extend([
            metric(
                "serve.bytes_per_event",
                ratio(self.fs.bytes_appended as f64, events),
                "B/event",
            ),
            metric(
                "serve.fsyncs_per_event",
                ratio(self.fs.sync.calls() as f64, events),
                "fsyncs/event",
            ),
            metric("serve.recover_read.self_s", self.recover_read.self_s(), "s"),
            metric("serve.engine.self_s", engine, "s"),
            metric("serve.engine.share", share(engine), "fraction"),
            metric("net.edge_churn", self.edge_churn as f64, "edges"),
            metric(
                "core.plan.matching_self_s",
                self.matching_ns as f64 * 1e-9,
                "s",
            ),
            metric("core.matching_events", self.matching_events as f64, "count"),
            metric(
                "core.recode_set_mean",
                ratio(self.recode_set_sum as f64, self.recode_sets as f64),
                "nodes",
            ),
            metric("core.recodings", self.recodings as f64, "count"),
            metric("core.max_color", f64::from(self.max_color), "index"),
            metric("graph.validate.violations", self.violations as f64, "count"),
            metric("power.updates", self.updates as f64, "count"),
            metric("power.corrections", self.corrections as f64, "count"),
            metric(
                "power.islands_mean",
                ratio(self.islands_sum as f64, settles),
                "count",
            ),
            metric("bench.other.self_s", other, "s"),
            metric("bench.other.share", share(other), "fraction"),
        ]);
        out
    }
}

/// Runs one workload.
pub fn run(workload: Workload, seed: u64, plan: &Plan) -> Outcome {
    match workload {
        Workload::DenseServe => serve::run(serve::Deployment::Dense, seed, plan),
        Workload::MetroServe => serve::run(serve::Deployment::Metro, seed, plan),
        Workload::PowerChurn => power::run(seed, plan),
    }
}

/// Folds `words` through FNV-1a (the same digest family as
/// `Network::state_digest`).
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// The mean of `xs` without its lowest and highest quarter (0 when
/// empty).
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// Peak resident set size of this process since the last reset, MiB
/// (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type `path` lives on, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// The commit `HEAD` names in the git checkout at `root`, if any.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, r) = l.split_once(' ')?;
        (r == name).then(|| id.to_string())
    })
}

/// A scratch directory under `.bench_work/` in the working directory,
/// removed when dropped.
pub(crate) struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let root = PathBuf::from(".bench_work").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the benchmark's work directory");
        WorkDir { root }
    }

    /// The subdirectory `name`, emptied.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub fn fs_type(&self) -> String {
        fs_type(&self.root)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Prints the human-readable report and, as the last line, the result
/// JSON the benchmark contract asks for.
pub fn print_report(workload: Workload, outcome: &Outcome, trace: bool) {
    let env = &outcome.env;
    println!(
        "perfbench {} seed={} events={} trace={}",
        workload.name(),
        env.seed,
        env.events,
        u8::from(trace)
    );
    println!(
        "env nproc={} seed={} nodes={} mean_degree={:.3} journal_fs={} obs_compiled={} commit={}",
        env.nproc,
        env.seed,
        env.nodes,
        env.mean_degree,
        env.journal_fs,
        env.obs_compiled,
        env.commit
    );
    for (i, r) in outcome.rounds.iter().enumerate() {
        println!("round {i} {r}");
    }
    for c in &outcome.checks {
        println!(
            "check {:<40} {}",
            c.name,
            if c.passed { "ok" } else { "FAILED" }
        );
    }
    println!(
        "metric {:<32} {} ratio",
        "error_rate",
        ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    // A traced run lists the memory among its per-layer metrics.
    let memory = (!trace).then_some(&outcome.memory);
    for m in outcome
        .end_to_end
        .iter()
        .chain(memory)
        .chain(&outcome.per_layer)
    {
        println!("metric {:<32} {} {}", m.name, m.value, m.unit);
    }
    let reported = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let metrics = Json::Obj(
        reported
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    // `attempted` and `failed` are written by hand: `Json::Num` would
    // print them as floats.
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.to_string_compact()
    );
}

const USAGE: &str =
    "usage: perfbench --workload <dense-serve|metro-serve|power-churn> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Intended measured seconds.
    pub seconds: u64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds`, `--trace`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|&s| s > 0)
                            .ok_or_else(|| format!("bad seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// The binaries' entry point. `counting_alloc` says whether the
/// counting allocator is installed; traced runs require it.
pub fn main_with(counting_alloc: bool) -> std::process::ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    if args.trace != counting_alloc {
        eprintln!(
            "perfbench: --trace {} runs on the {} binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return std::process::ExitCode::from(2);
    }
    let started = Instant::now();
    let plan = Plan::for_seconds(args.workload, args.seconds, args.trace);
    let outcome = run(args.workload, args.seed, &plan);
    eprintln!(
        "perfbench: {} done in {:.1} s",
        args.workload.name(),
        started.elapsed().as_secs_f64()
    );
    print_report(args.workload, &outcome, args.trace);
    if outcome.correct() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
