//! The declarative scenario lab: [`ScenarioSpec`] describes an
//! experiment — topology family, range distribution, event phases,
//! strategy set, sweep axis — and [`Scenario::run`] lowers it onto the
//! delta-driven [`run_events`] / [`parallel_map`] machinery, returning a
//! typed [`SweepResult`] exportable as a [`Table`], CSV, or JSON.
//!
//! The paper's Fig 10–12 sweeps are presets of this subsystem (see
//! [`crate::presets`] and the thin wrappers in
//! [`crate::experiments`]); new regimes — clustered deployments,
//! heterogeneous ranges, interleaved join/leave/move churn, corridors
//! with obstacles — are specs too, so every future workload is a
//! declaration rather than a hand-coded driver.
//!
//! # Determinism
//!
//! A spec plus a master seed fully determines the result: replicate
//! `rep` of sweep point `pi` always runs with
//! `child_seed(seed, (pi << 32) | rep)`, whether it executes serially
//! or on a worker pool, so [`SweepResult`]s are bit-identical across
//! worker counts and repeated runs.

use crate::json::{self, Json};
use crate::metrics::{Stats, Table};
use crate::par::{default_workers, parallel_map};
use crate::runner::run_events;
use minim_core::StrategyKind;
use minim_geom::sample::child_seed;
use minim_geom::{sample, Point, Rect, Segment};
use minim_net::event::{apply_topology, Event};
use minim_net::workload::{
    MixWorkload, MovementWorkload, Placement, PowerRaiseWorkload, RangeDist,
};
use minim_net::Network;
use minim_power::driver::ReceiverPolicy;
use minim_power::{PowerLadder, PowerLoop, PowerLoopConfig, PowerSession};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::time::{Duration, Instant};

/// Shared run parameters: replicate count, master seed, worker pool
/// size. The spec's own `runs`/`seed` are defaults; the caller (CLI,
/// tests, figure wrappers) builds one of these to actually execute.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Replicates per sweep point (paper: 100).
    pub runs: usize,
    /// Master seed; every replicate derives a child seed from it.
    pub seed: u64,
    /// Worker threads for the replicate fan-out.
    pub workers: usize,
}

impl ExperimentConfig {
    /// The paper's protocol: 100 runs per point.
    pub fn paper() -> Self {
        ExperimentConfig {
            runs: 100,
            seed: 0x2001_0113, // January 2001, the TR date
            workers: default_workers(),
        }
    }

    /// A fast configuration for smoke tests and CI.
    pub fn quick() -> Self {
        ExperimentConfig {
            runs: 8,
            seed: 0x2001_0113,
            workers: default_workers(),
        }
    }

    /// The replicate seed for `(point, rep)` — scheduling-independent,
    /// so parallel and serial sweeps agree bit for bit.
    pub fn replicate_seed(&self, point: usize, rep: usize) -> u64 {
        child_seed(self.seed, ((point as u64) << 32) | rep as u64)
    }
}

/// How node positions are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyFamily {
    /// Positions uniform over the arena — the paper's §5 deployment.
    Uniform,
    /// Poisson-clustered: `clusters` centers uniform in the arena per
    /// replicate, members gaussian around a random center with the
    /// given per-axis `spread`.
    Clustered {
        /// Number of cluster centers drawn per replicate.
        clusters: usize,
        /// Per-axis standard deviation of member scatter.
        spread: f64,
    },
    /// A corridor blocked by `walls` evenly spaced opaque walls, each
    /// pierced by one door of half-height `door` at a random height.
    /// Placement stays uniform; the walls sever line-of-sight links.
    Corridor {
        /// Number of interior walls.
        walls: usize,
        /// Door half-height (arena units).
        door: f64,
    },
}

impl TopologyFamily {
    /// Lowers the family to concrete obstacles plus a [`Placement`],
    /// consuming replicate randomness for cluster centers / door
    /// heights.
    fn deploy<R: rand::Rng + ?Sized>(
        &self,
        arena: &Rect,
        rng: &mut R,
    ) -> (Vec<Segment>, Placement) {
        match *self {
            TopologyFamily::Uniform => (Vec::new(), Placement::Uniform { arena: *arena }),
            TopologyFamily::Clustered { clusters, spread } => {
                let centers: Vec<Point> = (0..clusters)
                    .map(|_| sample::uniform_point(rng, arena))
                    .collect();
                (
                    Vec::new(),
                    Placement::Clustered {
                        centers,
                        spread,
                        arena: *arena,
                    },
                )
            }
            TopologyFamily::Corridor { walls, door } => {
                let mut segments = Vec::with_capacity(walls * 2);
                for i in 0..walls {
                    let x = arena.min_x + arena.width() * (i + 1) as f64 / (walls + 1) as f64;
                    let cy = rng.gen_range(arena.min_y + door..=arena.max_y - door);
                    segments.push(Segment::new(
                        Point::new(x, arena.min_y),
                        Point::new(x, cy - door),
                    ));
                    segments.push(Segment::new(
                        Point::new(x, cy + door),
                        Point::new(x, arena.max_y),
                    ));
                }
                (segments, Placement::Uniform { arena: *arena })
            }
        }
    }
}

/// One phase of a scenario: a homogeneous batch of events generated
/// against the evolving (ghost) topology and replayed identically
/// through every strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseSpec {
    /// `count` consecutive joins (positions from the spec's topology,
    /// ranges from its range distribution) — §5.1.
    Join {
        /// Number of joins.
        count: usize,
    },
    /// A fraction of the present nodes multiply their range — §5.2.
    PowerRaise {
        /// Fraction of nodes raised (paper: 0.5).
        fraction: f64,
        /// Multiplicative raise factor (≥ 1).
        factor: f64,
    },
    /// `rounds` movement rounds; each round moves every node once by a
    /// displacement uniform in `[0, maxdisp]` — §5.3.
    Movement {
        /// Number of rounds.
        rounds: usize,
        /// Maximum displacement per move.
        maxdisp: f64,
    },
    /// `steps` interleaved events: join / leave / single-node move,
    /// drawn per step — the churn regime the paper never measures.
    Mix {
        /// Number of steps.
        steps: usize,
        /// Probability a step is a join.
        join_prob: f64,
        /// Probability a step is a departure.
        leave_prob: f64,
        /// Maximum displacement of a move step.
        maxdisp: f64,
    },
    /// One closed-loop power-control pass (`minim-power`): every node
    /// drives its uplink to `target_sinr` via the Foschini–Miljanic
    /// iteration, and the converged powers are lowered to *endogenous*
    /// set-range events (plus leaves for infeasible nodes when
    /// `drop_infeasible`). The loop is deterministic — it consumes no
    /// replicate randomness.
    PowerControl {
        /// Target SINR `γ` (linear, > 0).
        target_sinr: f64,
        /// Discrete power-ladder rungs; `0` = continuous loop,
        /// otherwise ≥ 2 geometrically spaced levels.
        ladder: usize,
        /// Lower power-capped (infeasible) nodes to leave events
        /// instead of clamping them at the range cap.
        drop_infeasible: bool,
        /// Receiver policy: `0` = every node uplinks to its nearest
        /// neighbor (ad-hoc mesh); `k ≥ 1` = every `k`-th node is a
        /// shared sink (the cellular near-far regime, where powers
        /// couple hard and high targets go infeasible).
        sink_every: usize,
    },
    /// Interleaved join / leave / move churn with the power loop held
    /// *closed* throughout: a [`minim_power::PowerSession`] patches its
    /// SINR field per event and re-settles every `slice` steps, so the
    /// stream mixes exogenous topology churn with the endogenous
    /// set-range corrections the continuous Foschini–Miljanic loop
    /// emits while tracking its equilibrium.
    PowerChurn {
        /// Number of churn steps.
        steps: usize,
        /// Probability a step is a join.
        join_prob: f64,
        /// Probability a step is a departure.
        leave_prob: f64,
        /// Maximum displacement of a move step.
        maxdisp: f64,
        /// Target SINR `γ` (linear, > 0) of the continuous loop.
        target_sinr: f64,
        /// Steps between settles (≥ 1); the loop also settles once at
        /// the end of the phase.
        slice: usize,
    },
}

/// What the per-point metrics mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Report absolute end-of-measured-phase values (Fig 10 style):
    /// max color index and total recodings.
    Absolute,
    /// Report deltas against the state after the base phases
    /// (Fig 11/12 style): Δ max color index, recodings during the
    /// measured phases.
    DeltaFromBase,
}

impl Measure {
    fn color_metric(self, color: f64, base: f64) -> f64 {
        match self {
            Measure::Absolute => color,
            Measure::DeltaFromBase => color - base,
        }
    }

    fn color_label(self) -> &'static str {
        match self {
            Measure::Absolute => "max color index",
            Measure::DeltaFromBase => "delta max color index",
        }
    }

    fn recoding_label(self) -> &'static str {
        match self {
            Measure::Absolute => "total recodings",
            Measure::DeltaFromBase => "delta recodings",
        }
    }
}

/// The swept parameter: which knob varies across sweep points and the
/// values it takes.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Sweep the `count` of every measured [`PhaseSpec::Join`] phase.
    JoinCount(Vec<usize>),
    /// Sweep the average transmission range: each value `r` replaces
    /// the spec's range distribution by the paper's width-5 interval
    /// `((r − 2.5).max(0), r + 2.5)`.
    AvgRange(Vec<f64>),
    /// Sweep the `factor` of every measured [`PhaseSpec::PowerRaise`].
    RaiseFactor(Vec<f64>),
    /// Sweep the `maxdisp` of every measured [`PhaseSpec::Movement`].
    MaxDisp(Vec<f64>),
    /// Report after every round of the single measured
    /// [`PhaseSpec::Movement`] phase, overriding its round count: one
    /// replicate yields all points `1..=max` cumulatively (§5.3's
    /// `RoundNo` sweep).
    Rounds(usize),
    /// Sweep the `steps` of every measured [`PhaseSpec::Mix`] phase.
    MixSteps(Vec<usize>),
    /// Sweep the `long_fraction` of a heterogeneous range
    /// distribution.
    LongFraction(Vec<f64>),
    /// Sweep the `target_sinr` of every measured
    /// [`PhaseSpec::PowerControl`] and [`PhaseSpec::PowerChurn`] phase.
    TargetSinr(Vec<f64>),
    /// No sweep: a single point at `x = 0`.
    Single,
}

impl SweepAxis {
    /// The x-axis label used in tables and exports.
    pub fn x_label(&self) -> &'static str {
        match self {
            SweepAxis::JoinCount(_) => "N",
            SweepAxis::AvgRange(_) => "avgR",
            SweepAxis::RaiseFactor(_) => "raisefactor",
            SweepAxis::MaxDisp(_) => "maxdisp",
            SweepAxis::Rounds(_) => "RoundNo",
            SweepAxis::MixSteps(_) => "steps",
            SweepAxis::LongFraction(_) => "longfrac",
            SweepAxis::TargetSinr(_) => "targetSINR",
            SweepAxis::Single => "x",
        }
    }
}

/// A declarative experiment: *what* to run, not *how*.
///
/// Build one with the consuming setter methods, run it through
/// [`Scenario::run`], or serialize it to a JSON spec file for
/// `minim-lab`:
///
/// ```
/// use minim_sim::scenario::{
///     ExperimentConfig, Measure, PhaseSpec, Scenario, ScenarioSpec, SweepAxis,
/// };
///
/// let spec = ScenarioSpec::new("drift")
///     .summary("one movement round after a small join phase")
///     .base_phase(PhaseSpec::Join { count: 15 })
///     .measured_phase(PhaseSpec::Movement { rounds: 1, maxdisp: 20.0 })
///     .measure(Measure::DeltaFromBase)
///     .sweep(SweepAxis::MaxDisp(vec![10.0, 30.0]));
///
/// // Round-trips through JSON…
/// let same = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
/// assert_eq!(spec, same);
///
/// // …and runs deterministically.
/// let cfg = ExperimentConfig { runs: 2, seed: 7, ..ExperimentConfig::quick() };
/// let result = Scenario::new(spec).unwrap().run(&cfg);
/// assert_eq!(result.points.len(), 2);
/// assert_eq!(result.strategies, vec!["Minim", "CP", "BBB"]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Identifier (kebab-case by convention; used for filenames).
    pub name: String,
    /// One-line description for the preset catalog.
    pub summary: String,
    /// Deployment arena (paper default `[0,100]²`).
    pub arena: Rect,
    /// Node-position family.
    pub topology: TopologyFamily,
    /// Transmission-range distribution of joiners.
    pub ranges: RangeDist,
    /// Strategies to compare (paper order: Minim, CP, BBB).
    pub strategies: Vec<StrategyKind>,
    /// Unmeasured setup phases (e.g. the join phase Fig 11/12 build
    /// their base network with).
    pub base: Vec<PhaseSpec>,
    /// Measured phases; metrics cover exactly these.
    pub measured: Vec<PhaseSpec>,
    /// Whether metrics are absolute or deltas from the post-base state.
    pub measure: Measure,
    /// The swept parameter.
    pub sweep: SweepAxis,
    /// Default replicate count (overridable at run time).
    pub runs: usize,
    /// Default master seed (overridable at run time).
    pub seed: u64,
}

impl ScenarioSpec {
    /// A new spec with the paper's defaults: uniform topology over the
    /// `[0,100]²` arena, ranges uniform in `(20.5, 30.5)`, all three
    /// strategies, absolute measurement, no sweep, 100 runs.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            summary: String::new(),
            arena: Rect::paper_arena(),
            topology: TopologyFamily::Uniform,
            ranges: RangeDist::paper(),
            strategies: StrategyKind::ALL.to_vec(),
            base: Vec::new(),
            measured: Vec::new(),
            measure: Measure::Absolute,
            sweep: SweepAxis::Single,
            runs: 100,
            seed: 0x2001_0113,
        }
    }

    /// Sets the one-line description.
    pub fn summary(mut self, s: impl Into<String>) -> Self {
        self.summary = s.into();
        self
    }

    /// Sets the arena.
    pub fn arena(mut self, arena: Rect) -> Self {
        self.arena = arena;
        self
    }

    /// Sets the topology family.
    pub fn topology(mut self, t: TopologyFamily) -> Self {
        self.topology = t;
        self
    }

    /// Sets the range distribution.
    pub fn ranges(mut self, r: RangeDist) -> Self {
        self.ranges = r;
        self
    }

    /// Sets the strategy set.
    pub fn strategies(mut self, s: Vec<StrategyKind>) -> Self {
        self.strategies = s;
        self
    }

    /// Appends an unmeasured setup phase.
    pub fn base_phase(mut self, p: PhaseSpec) -> Self {
        self.base.push(p);
        self
    }

    /// Appends a measured phase.
    pub fn measured_phase(mut self, p: PhaseSpec) -> Self {
        self.measured.push(p);
        self
    }

    /// Sets the measurement mode.
    pub fn measure(mut self, m: Measure) -> Self {
        self.measure = m;
        self
    }

    /// Sets the sweep axis.
    pub fn sweep(mut self, s: SweepAxis) -> Self {
        self.sweep = s;
        self
    }

    /// Sets the default replicate count.
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the default master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The run configuration this spec asks for by default.
    pub fn default_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            runs: self.runs,
            seed: self.seed,
            workers: default_workers(),
        }
    }
}

/// A spec rejected by [`Scenario::new`] or a failed spec-file parse,
/// with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn spec_err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// A validated, runnable scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    spec: ScenarioSpec,
}

/// Progress of a running sweep, reported after each resolved sweep
/// point completes.
#[derive(Debug, Clone, Copy)]
pub struct SweepProgress {
    /// Resolved points finished so far (1-based).
    pub done: usize,
    /// Total resolved points in the sweep.
    pub total: usize,
    /// The finished point's sweep value.
    pub x: f64,
    /// Replicates per point.
    pub replicates: usize,
    /// Wall-clock time since the sweep started.
    pub elapsed: Duration,
}

/// One sweep point with the measured event count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Sweep value (`N`, `avgR`, `raisefactor`, `maxdisp`, `RoundNo`, …).
    pub x: f64,
    /// Per-strategy color metric (absolute or Δ per the spec).
    pub colors: Vec<Stats>,
    /// Per-strategy recoding metric.
    pub recodings: Vec<Stats>,
    /// Events executed up to this report, summed over replicates.
    pub events: u64,
}

/// The typed result of a sweep.
///
/// Equality ignores [`SweepResult::wall_clock`] (profiling metadata,
/// the only nondeterministic field); everything else is bit-identical
/// across worker counts and repeated runs with the same seed.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Spec name.
    pub scenario: String,
    /// X-axis label from the sweep axis.
    pub x_label: String,
    /// Measurement mode.
    pub measure: Measure,
    /// Strategy display labels in column order.
    pub strategies: Vec<String>,
    /// Replicates per point.
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// One entry per sweep point (per round for a `Rounds` sweep).
    pub points: Vec<SweepPoint>,
    /// Events executed across the whole sweep (all replicates).
    pub total_events: u64,
    /// Wall-clock duration of the sweep (not part of equality).
    pub wall_clock: Duration,
    /// A snapshot of the minim-obs registry taken when the sweep
    /// finished — counters, gauges, and latency histograms from every
    /// instrumented subsystem the sweep exercised. Observability
    /// metadata like [`SweepResult::wall_clock`]: excluded from
    /// equality (latencies are machine noise, and the process-global
    /// registry may carry counts from concurrent sweeps), and stripped
    /// by the determinism suites before byte comparison.
    pub metrics: minim_obs::MetricsSnapshot,
}

impl PartialEq for SweepResult {
    fn eq(&self, other: &Self) -> bool {
        self.scenario == other.scenario
            && self.x_label == other.x_label
            && self.measure == other.measure
            && self.strategies == other.strategies
            && self.runs == other.runs
            && self.seed == other.seed
            && self.points == other.points
            && self.total_events == other.total_events
    }
}

impl SweepResult {
    /// The color metric as a renderable [`Table`] with a custom title.
    pub fn color_table(&self, title: impl Into<String>) -> Table {
        let mut t = Table::new(title, self.x_label.clone(), self.strategies.clone());
        for p in &self.points {
            t.push_row(p.x, p.colors.clone());
        }
        t
    }

    /// The recoding metric as a renderable [`Table`] with a custom
    /// title.
    pub fn recoding_table(&self, title: impl Into<String>) -> Table {
        let mut t = Table::new(title, self.x_label.clone(), self.strategies.clone());
        for p in &self.points {
            t.push_row(p.x, p.recodings.clone());
        }
        t
    }

    /// Both metric tables with default titles derived from the spec.
    pub fn tables(&self) -> (Table, Table) {
        (
            self.color_table(format!(
                "{}: {} vs {}",
                self.scenario,
                self.measure.color_label(),
                self.x_label
            )),
            self.recoding_table(format!(
                "{}: {} vs {}",
                self.scenario,
                self.measure.recoding_label(),
                self.x_label
            )),
        )
    }

    /// One CSV covering both metrics:
    /// `x,<S> colors mean,<S> colors std,…,<S> recodings mean,…,events`.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for s in &self.strategies {
            let _ = write!(out, ",{s} colors mean,{s} colors std");
        }
        for s in &self.strategies {
            let _ = write!(out, ",{s} recodings mean,{s} recodings std");
        }
        let _ = writeln!(out, ",events");
        for p in &self.points {
            let _ = write!(out, "{}", p.x);
            for v in &p.colors {
                let _ = write!(out, ",{},{}", v.mean, v.std);
            }
            for v in &p.recodings {
                let _ = write!(out, ",{},{}", v.mean, v.std);
            }
            let _ = writeln!(out, ",{}", p.events);
        }
        out
    }

    /// The result as a JSON document.
    pub fn to_json(&self) -> Json {
        fn stats(s: &Stats) -> Json {
            Json::obj(vec![
                ("mean", Json::Num(s.mean)),
                ("std", Json::Num(s.std)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("n", Json::Num(s.n as f64)),
            ])
        }
        Json::obj(vec![
            ("scenario", Json::Str(self.scenario.clone())),
            ("x_label", Json::Str(self.x_label.clone())),
            (
                "measure",
                Json::Str(
                    match self.measure {
                        Measure::Absolute => "absolute",
                        Measure::DeltaFromBase => "delta-from-base",
                    }
                    .into(),
                ),
            ),
            (
                "strategies",
                Json::Arr(
                    self.strategies
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("runs", Json::Num(self.runs as f64)),
            ("seed", seed_to_json(self.seed)),
            ("total_events", Json::Num(self.total_events as f64)),
            (
                "wall_clock_ms",
                Json::Num(self.wall_clock.as_secs_f64() * 1e3),
            ),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("x", Json::Num(p.x)),
                                ("events", Json::Num(p.events as f64)),
                                ("colors", Json::Arr(p.colors.iter().map(stats).collect())),
                                (
                                    "recodings",
                                    Json::Arr(p.recodings.iter().map(stats).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", crate::trace::metrics_to_json(&self.metrics)),
        ])
    }

    /// The result as a pretty-printed JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

/// One sweep point after axis substitution: the concrete phases to
/// generate and run.
#[derive(Debug, Clone)]
struct PointPlan {
    x: f64,
    ranges: RangeDist,
    base: Vec<PhaseSpec>,
    measured: Vec<PhaseSpec>,
}

/// Everything one replicate reports.
struct ReplicateOutcome {
    /// `[strategy][report] = (color metric, recodings)`.
    per_strategy: Vec<Vec<(f64, f64)>>,
    /// Events executed up to each report (base phases included).
    per_report_events: Vec<u64>,
    /// Events executed over the whole replicate.
    total_events: u64,
}

impl Scenario {
    /// Validates a spec. Rejections name the offending field.
    pub fn new(spec: ScenarioSpec) -> Result<Scenario, SpecError> {
        if spec.name.is_empty() {
            return spec_err("name must be non-empty");
        }
        if spec.arena.width() <= 0.0 || spec.arena.height() <= 0.0 {
            return spec_err("arena must have positive extent");
        }
        if spec.strategies.is_empty() {
            return spec_err("strategy set must be non-empty");
        }
        if spec.measured.is_empty() {
            return spec_err("at least one measured phase is required");
        }
        if spec.runs == 0 {
            return spec_err("runs must be >= 1");
        }
        match spec.topology {
            TopologyFamily::Uniform => {}
            TopologyFamily::Clustered { clusters, spread } => {
                if clusters == 0 {
                    return spec_err("clustered topology needs >= 1 cluster");
                }
                if spread < 0.0 {
                    return spec_err("cluster spread must be non-negative");
                }
            }
            TopologyFamily::Corridor { walls, door } => {
                if walls == 0 {
                    return spec_err("corridor topology needs >= 1 wall");
                }
                if door <= 0.0 || 2.0 * door >= spec.arena.height() {
                    return spec_err("corridor door must fit inside the arena height");
                }
            }
        }
        match spec.ranges {
            RangeDist::Interval { minr, maxr } => {
                if !(0.0 <= minr && minr <= maxr) {
                    return spec_err(format!("invalid range interval ({minr}, {maxr})"));
                }
            }
            RangeDist::Heterogeneous {
                short,
                long,
                long_fraction,
            } => {
                for (lo, hi) in [short, long] {
                    if !(0.0 <= lo && lo <= hi) {
                        return spec_err(format!("invalid range interval ({lo}, {hi})"));
                    }
                }
                if !(0.0..=1.0).contains(&long_fraction) {
                    return spec_err("long_fraction must be in [0, 1]");
                }
            }
        }
        for phase in spec.base.iter().chain(&spec.measured) {
            match *phase {
                PhaseSpec::Join { .. } => {}
                PhaseSpec::PowerRaise { fraction, factor } => {
                    if !(0.0..=1.0).contains(&fraction) {
                        return spec_err("power-raise fraction must be in [0, 1]");
                    }
                    if factor < 1.0 {
                        return spec_err("power-raise factor must be >= 1");
                    }
                }
                PhaseSpec::Movement { rounds, maxdisp } => {
                    if rounds == 0 {
                        return spec_err("movement phase needs >= 1 round");
                    }
                    if maxdisp < 0.0 {
                        return spec_err("maxdisp must be non-negative");
                    }
                }
                PhaseSpec::Mix {
                    join_prob,
                    leave_prob,
                    maxdisp,
                    ..
                } => {
                    if join_prob < 0.0 || leave_prob < 0.0 || join_prob + leave_prob > 1.0 {
                        return spec_err("mix probabilities must be >= 0 and sum to <= 1");
                    }
                    if maxdisp < 0.0 {
                        return spec_err("maxdisp must be non-negative");
                    }
                }
                PhaseSpec::PowerControl {
                    target_sinr,
                    ladder,
                    ..
                } => {
                    if !(target_sinr.is_finite() && target_sinr > 0.0) {
                        return spec_err("power-control target SINR must be positive");
                    }
                    if ladder == 1 {
                        return spec_err(
                            "power-control ladder needs >= 2 levels (or 0 for continuous)",
                        );
                    }
                }
                PhaseSpec::PowerChurn {
                    join_prob,
                    leave_prob,
                    maxdisp,
                    target_sinr,
                    slice,
                    ..
                } => {
                    if join_prob < 0.0 || leave_prob < 0.0 || join_prob + leave_prob > 1.0 {
                        return spec_err("power-churn probabilities must be >= 0 and sum to <= 1");
                    }
                    if maxdisp < 0.0 {
                        return spec_err("maxdisp must be non-negative");
                    }
                    if !(target_sinr.is_finite() && target_sinr > 0.0) {
                        return spec_err("power-churn target SINR must be positive");
                    }
                    if slice == 0 {
                        return spec_err("power-churn slice must be >= 1");
                    }
                }
            }
        }
        let has = |pred: fn(&PhaseSpec) -> bool| spec.measured.iter().any(pred);
        match &spec.sweep {
            SweepAxis::JoinCount(vs) => {
                if vs.is_empty() {
                    return spec_err("sweep needs >= 1 value");
                }
                if !has(|p| matches!(p, PhaseSpec::Join { .. })) {
                    return spec_err("join-count sweep needs a measured join phase");
                }
            }
            SweepAxis::AvgRange(vs) => {
                if vs.is_empty() {
                    return spec_err("sweep needs >= 1 value");
                }
                if vs.iter().any(|&v| v < 0.0) {
                    return spec_err("average ranges must be non-negative");
                }
            }
            SweepAxis::RaiseFactor(vs) => {
                if vs.is_empty() {
                    return spec_err("sweep needs >= 1 value");
                }
                if vs.iter().any(|&v| v < 1.0) {
                    return spec_err("raise factors must be >= 1");
                }
                if !has(|p| matches!(p, PhaseSpec::PowerRaise { .. })) {
                    return spec_err("raise-factor sweep needs a measured power-raise phase");
                }
            }
            SweepAxis::MaxDisp(vs) => {
                if vs.is_empty() {
                    return spec_err("sweep needs >= 1 value");
                }
                if vs.iter().any(|&v| v < 0.0) {
                    return spec_err("maxdisp values must be non-negative");
                }
                if !has(|p| matches!(p, PhaseSpec::Movement { .. })) {
                    return spec_err("max-disp sweep needs a measured movement phase");
                }
            }
            SweepAxis::Rounds(max) => {
                if *max == 0 {
                    return spec_err("rounds sweep needs max >= 1");
                }
                let movements = spec
                    .measured
                    .iter()
                    .filter(|p| matches!(p, PhaseSpec::Movement { .. }))
                    .count();
                if movements != 1 || spec.measured.len() != 1 {
                    return spec_err(
                        "rounds sweep needs exactly one measured phase, a movement phase",
                    );
                }
            }
            SweepAxis::MixSteps(vs) => {
                if vs.is_empty() {
                    return spec_err("sweep needs >= 1 value");
                }
                if !has(|p| matches!(p, PhaseSpec::Mix { .. })) {
                    return spec_err("mix-steps sweep needs a measured mix phase");
                }
            }
            SweepAxis::LongFraction(vs) => {
                if vs.is_empty() {
                    return spec_err("sweep needs >= 1 value");
                }
                if vs.iter().any(|&v| !(0.0..=1.0).contains(&v)) {
                    return spec_err("long fractions must be in [0, 1]");
                }
                if !matches!(spec.ranges, RangeDist::Heterogeneous { .. }) {
                    return spec_err(
                        "long-fraction sweep needs a heterogeneous range distribution",
                    );
                }
            }
            SweepAxis::TargetSinr(vs) => {
                if vs.is_empty() {
                    return spec_err("sweep needs >= 1 value");
                }
                if vs.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
                    return spec_err("target SINRs must be positive");
                }
                if !has(|p| {
                    matches!(
                        p,
                        PhaseSpec::PowerControl { .. } | PhaseSpec::PowerChurn { .. }
                    )
                }) {
                    return spec_err(
                        "target-SINR sweep needs a measured power-control or power-churn phase",
                    );
                }
            }
            SweepAxis::Single => {}
        }
        Ok(Scenario { spec })
    }

    /// The validated spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Runs the sweep.
    pub fn run(&self, cfg: &ExperimentConfig) -> SweepResult {
        self.run_with_progress(cfg, |_| {})
    }

    /// Runs the sweep, invoking `on_point` after each resolved sweep
    /// point completes (a `Rounds` sweep is one resolved point).
    pub fn run_with_progress(
        &self,
        cfg: &ExperimentConfig,
        mut on_point: impl FnMut(SweepProgress),
    ) -> SweepResult {
        assert!(cfg.runs >= 1, "need at least one replicate");
        let started = Instant::now();
        let spec = &self.spec;
        let plans = self.resolve_points();
        let per_round = matches!(spec.sweep, SweepAxis::Rounds(_));
        let mut points = Vec::new();
        let mut total_events = 0u64;
        for (pi, plan) in plans.iter().enumerate() {
            let seeds: Vec<u64> = (0..cfg.runs)
                .map(|rep| cfg.replicate_seed(pi, rep))
                .collect();
            let outcomes = parallel_map(&seeds, cfg.workers, |&seed| {
                run_replicate(spec, plan, seed, per_round)
            });
            let reports = outcomes[0].per_report_events.len();
            for r in 0..reports {
                let x = if per_round { (r + 1) as f64 } else { plan.x };
                let mut colors = Vec::with_capacity(spec.strategies.len());
                let mut recodings = Vec::with_capacity(spec.strategies.len());
                for si in 0..spec.strategies.len() {
                    let cs: Vec<f64> = outcomes.iter().map(|o| o.per_strategy[si][r].0).collect();
                    let rs: Vec<f64> = outcomes.iter().map(|o| o.per_strategy[si][r].1).collect();
                    colors.push(Stats::from_samples(&cs));
                    recodings.push(Stats::from_samples(&rs));
                }
                points.push(SweepPoint {
                    x,
                    colors,
                    recodings,
                    events: outcomes.iter().map(|o| o.per_report_events[r]).sum(),
                });
            }
            total_events += outcomes.iter().map(|o| o.total_events).sum::<u64>();
            on_point(SweepProgress {
                done: pi + 1,
                total: plans.len(),
                x: plan.x,
                replicates: cfg.runs,
                elapsed: started.elapsed(),
            });
        }
        SweepResult {
            scenario: spec.name.clone(),
            x_label: spec.sweep.x_label().to_string(),
            measure: spec.measure,
            strategies: spec.strategies.iter().map(|k| k.label().into()).collect(),
            runs: cfg.runs,
            seed: cfg.seed,
            points,
            total_events,
            wall_clock: started.elapsed(),
            metrics: minim_obs::snapshot(),
        }
    }

    /// Substitutes each sweep value into the phases, yielding the
    /// concrete per-point plans.
    fn resolve_points(&self) -> Vec<PointPlan> {
        let spec = &self.spec;
        let plan = |x: f64| PointPlan {
            x,
            ranges: spec.ranges,
            base: spec.base.clone(),
            measured: spec.measured.clone(),
        };
        match &spec.sweep {
            SweepAxis::JoinCount(ns) => ns
                .iter()
                .map(|&n| {
                    let mut p = plan(n as f64);
                    for phase in &mut p.measured {
                        if let PhaseSpec::Join { count } = phase {
                            *count = n;
                        }
                    }
                    p
                })
                .collect(),
            SweepAxis::AvgRange(rs) => rs
                .iter()
                .map(|&r| {
                    let mut p = plan(r);
                    p.ranges = RangeDist::Interval {
                        minr: (r - 2.5).max(0.0),
                        maxr: r + 2.5,
                    };
                    p
                })
                .collect(),
            SweepAxis::RaiseFactor(fs) => fs
                .iter()
                .map(|&f| {
                    let mut p = plan(f);
                    for phase in &mut p.measured {
                        if let PhaseSpec::PowerRaise { factor, .. } = phase {
                            *factor = f;
                        }
                    }
                    p
                })
                .collect(),
            SweepAxis::MaxDisp(ds) => ds
                .iter()
                .map(|&d| {
                    let mut p = plan(d);
                    for phase in &mut p.measured {
                        if let PhaseSpec::Movement { maxdisp, .. } = phase {
                            *maxdisp = d;
                        }
                    }
                    p
                })
                .collect(),
            SweepAxis::Rounds(max) => {
                let mut p = plan(*max as f64);
                for phase in &mut p.measured {
                    if let PhaseSpec::Movement { rounds, .. } = phase {
                        *rounds = *max;
                    }
                }
                vec![p]
            }
            SweepAxis::MixSteps(ss) => ss
                .iter()
                .map(|&s| {
                    let mut p = plan(s as f64);
                    for phase in &mut p.measured {
                        if let PhaseSpec::Mix { steps, .. } = phase {
                            *steps = s;
                        }
                    }
                    p
                })
                .collect(),
            SweepAxis::LongFraction(fs) => fs
                .iter()
                .map(|&f| {
                    let mut p = plan(f);
                    if let RangeDist::Heterogeneous {
                        ref mut long_fraction,
                        ..
                    } = p.ranges
                    {
                        *long_fraction = f;
                    }
                    p
                })
                .collect(),
            SweepAxis::TargetSinr(gs) => gs
                .iter()
                .map(|&g| {
                    let mut p = plan(g);
                    for phase in &mut p.measured {
                        match phase {
                            PhaseSpec::PowerControl { target_sinr, .. }
                            | PhaseSpec::PowerChurn { target_sinr, .. } => *target_sinr = g,
                            _ => {}
                        }
                    }
                    p
                })
                .collect(),
            SweepAxis::Single => vec![plan(0.0)],
        }
    }
}

/// Generates one phase's events against the evolving ghost topology,
/// applying them as it goes. Movement phases yield one inner list per
/// round; everything else is a single round.
fn generate_phase(
    phase: &PhaseSpec,
    placement: &Placement,
    ranges: RangeDist,
    ghost: &mut Network,
    rng: &mut StdRng,
) -> Vec<Vec<Event>> {
    match *phase {
        PhaseSpec::Join { count } => {
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                let e = Event::Join {
                    cfg: minim_net::NodeConfig::new(placement.sample(rng), ranges.sample(rng)),
                };
                apply_topology(ghost, &e);
                events.push(e);
            }
            vec![events]
        }
        PhaseSpec::PowerRaise { fraction, factor } => {
            let events = PowerRaiseWorkload {
                fraction,
                raisefactor: factor,
            }
            .generate(ghost, rng);
            for e in &events {
                apply_topology(ghost, e);
            }
            vec![events]
        }
        PhaseSpec::Movement { rounds, maxdisp } => {
            let workload = MovementWorkload {
                maxdisp,
                rounds: 1,
                arena: *placement.arena(),
            };
            (0..rounds)
                .map(|_| {
                    let events = workload.generate_round(ghost, rng);
                    for e in &events {
                        apply_topology(ghost, e);
                    }
                    events
                })
                .collect()
        }
        PhaseSpec::Mix {
            steps,
            join_prob,
            leave_prob,
            maxdisp,
        } => {
            let workload = MixWorkload {
                steps,
                join_prob,
                leave_prob,
                maxdisp,
                placement: placement.clone(),
                ranges,
            };
            let mut events = Vec::with_capacity(steps);
            for _ in 0..steps {
                let e = workload.next_event(ghost, rng);
                apply_topology(ghost, &e);
                events.push(e);
            }
            vec![events]
        }
        PhaseSpec::PowerControl {
            target_sinr,
            ladder,
            drop_infeasible,
            sink_every,
        } => {
            // The closed loop reads the ghost geometry and emits the
            // equilibrium as ordinary events — no randomness consumed,
            // so determinism across strategies/workers is structural.
            let mut cfg = PowerLoopConfig::for_range_scale(ranges.upper_bound().max(1.0));
            cfg.target_sinr = target_sinr;
            cfg.ladder = if ladder == 0 {
                PowerLadder::Continuous
            } else {
                PowerLadder::Geometric { levels: ladder }
            };
            cfg.drop_infeasible = drop_infeasible;
            cfg.receivers = if sink_every == 0 {
                ReceiverPolicy::NearestNeighbor
            } else {
                ReceiverPolicy::Sinks { every: sink_every }
            };
            let outcome = PowerLoop::new(cfg).run(ghost, &[]);
            for e in &outcome.events {
                apply_topology(ghost, e);
            }
            vec![outcome.events]
        }
        PhaseSpec::PowerChurn {
            steps,
            join_prob,
            leave_prob,
            maxdisp,
            target_sinr,
            slice,
        } => {
            // Exogenous churn drawn like a Mix phase, but with the
            // continuous power loop held closed: an incremental
            // PowerSession patches its SINR field per event and every
            // `slice` steps re-settles from the warm equilibrium,
            // interleaving its set-range corrections into the stream.
            let workload = MixWorkload {
                steps,
                join_prob,
                leave_prob,
                maxdisp,
                placement: placement.clone(),
                ranges,
            };
            let mut cfg = PowerLoopConfig::for_range_scale(ranges.upper_bound().max(1.0));
            cfg.target_sinr = target_sinr;
            cfg.ladder = PowerLadder::Continuous;
            cfg.drop_infeasible = false;
            cfg.receivers = ReceiverPolicy::NearestNeighbor;
            let mut session = PowerSession::new(cfg, ghost);
            let mut events = Vec::with_capacity(steps);
            let settle =
                |session: &mut PowerSession, ghost: &mut Network, events: &mut Vec<Event>| {
                    let (corrections, _report) = session.settle();
                    for e in corrections {
                        apply_topology(ghost, e);
                        events.push(e.clone());
                    }
                };
            settle(&mut session, ghost, &mut events);
            for step in 0..steps {
                let e = workload.next_event(ghost, rng);
                match &e {
                    Event::Join { cfg } => {
                        let id = ghost.peek_next_id();
                        apply_topology(ghost, &e);
                        session.apply_join(id.0, cfg.pos, cfg.range);
                    }
                    Event::Leave { node } => {
                        apply_topology(ghost, &e);
                        session.apply_leave(node.0);
                    }
                    Event::Move { node, to } => {
                        apply_topology(ghost, &e);
                        session.apply_move(node.0, *to);
                    }
                    Event::SetRange { node, range } => {
                        apply_topology(ghost, &e);
                        session.note_range(node.0, *range);
                    }
                }
                events.push(e);
                if (step + 1) % slice == 0 {
                    settle(&mut session, ghost, &mut events);
                }
            }
            if steps % slice != 0 {
                settle(&mut session, ghost, &mut events);
            }
            vec![events]
        }
    }
}

/// Runs one replicate of one sweep point: generate every phase on a
/// ghost network (so all strategies replay identical randomness), then
/// run the phases through each strategy with a fresh strategy instance
/// per phase, reporting per the spec's measure.
fn run_replicate(
    spec: &ScenarioSpec,
    plan: &PointPlan,
    seed: u64,
    per_round: bool,
) -> ReplicateOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let cell = plan.ranges.upper_bound().max(1.0);
    let (walls, placement) = spec.topology.deploy(&spec.arena, &mut rng);
    let mut ghost = Network::new(cell);
    for wall in &walls {
        ghost.add_obstacle(*wall);
    }
    let base_events: Vec<Vec<Vec<Event>>> = plan
        .base
        .iter()
        .map(|p| generate_phase(p, &placement, plan.ranges, &mut ghost, &mut rng))
        .collect();
    let measured_events: Vec<Vec<Vec<Event>>> = plan
        .measured
        .iter()
        .map(|p| generate_phase(p, &placement, plan.ranges, &mut ghost, &mut rng))
        .collect();

    let base_count: u64 = base_events
        .iter()
        .flatten()
        .map(|round| round.len() as u64)
        .sum();
    let mut per_report_events = Vec::new();
    let mut cum_events = base_count;
    for phase in &measured_events {
        for round in phase {
            cum_events += round.len() as u64;
            if per_round {
                per_report_events.push(cum_events);
            }
        }
    }
    if !per_round {
        per_report_events.push(cum_events);
    }

    let per_strategy: Vec<Vec<(f64, f64)>> = spec
        .strategies
        .iter()
        .map(|&kind| {
            let mut net = Network::new(cell);
            for wall in &walls {
                net.add_obstacle(*wall);
            }
            for phase in &base_events {
                let mut s = kind.build();
                for round in phase {
                    run_events(&mut *s, &mut net, round);
                }
            }
            let base_color = net.max_color_index() as f64;
            let mut reports = Vec::new();
            let mut cum_recodings = 0.0;
            for phase in &measured_events {
                let mut s = kind.build();
                for round in phase {
                    let m = run_events(&mut *s, &mut net, round);
                    cum_recodings += m.recodings as f64;
                    if per_round {
                        reports.push((
                            spec.measure.color_metric(m.max_color as f64, base_color),
                            cum_recodings,
                        ));
                    }
                }
            }
            if !per_round {
                reports.push((
                    spec.measure
                        .color_metric(net.max_color_index() as f64, base_color),
                    cum_recodings,
                ));
            }
            reports
        })
        .collect();

    ReplicateOutcome {
        per_strategy,
        per_report_events,
        total_events: cum_events,
    }
}

// ---------------------------------------------------------------------
// JSON (de)serialization of specs
// ---------------------------------------------------------------------

fn strategy_name(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Minim => "minim",
        StrategyKind::Cp => "cp",
        StrategyKind::Bbb => "bbb",
    }
}

fn strategy_from_name(name: &str) -> Result<StrategyKind, SpecError> {
    match name.to_ascii_lowercase().as_str() {
        "minim" => Ok(StrategyKind::Minim),
        "cp" => Ok(StrategyKind::Cp),
        "bbb" => Ok(StrategyKind::Bbb),
        other => spec_err(format!("unknown strategy {other:?} (minim|cp|bbb)")),
    }
}

fn phase_to_json(p: &PhaseSpec) -> Json {
    match *p {
        PhaseSpec::Join { count } => Json::obj(vec![
            ("phase", Json::Str("join".into())),
            ("count", Json::Num(count as f64)),
        ]),
        PhaseSpec::PowerRaise { fraction, factor } => Json::obj(vec![
            ("phase", Json::Str("power-raise".into())),
            ("fraction", Json::Num(fraction)),
            ("factor", Json::Num(factor)),
        ]),
        PhaseSpec::Movement { rounds, maxdisp } => Json::obj(vec![
            ("phase", Json::Str("movement".into())),
            ("rounds", Json::Num(rounds as f64)),
            ("maxdisp", Json::Num(maxdisp)),
        ]),
        PhaseSpec::Mix {
            steps,
            join_prob,
            leave_prob,
            maxdisp,
        } => Json::obj(vec![
            ("phase", Json::Str("mix".into())),
            ("steps", Json::Num(steps as f64)),
            ("join_prob", Json::Num(join_prob)),
            ("leave_prob", Json::Num(leave_prob)),
            ("maxdisp", Json::Num(maxdisp)),
        ]),
        PhaseSpec::PowerControl {
            target_sinr,
            ladder,
            drop_infeasible,
            sink_every,
        } => Json::obj(vec![
            ("phase", Json::Str("power-control".into())),
            ("target_sinr", Json::Num(target_sinr)),
            ("ladder", Json::Num(ladder as f64)),
            ("drop_infeasible", Json::Bool(drop_infeasible)),
            ("sink_every", Json::Num(sink_every as f64)),
        ]),
        PhaseSpec::PowerChurn {
            steps,
            join_prob,
            leave_prob,
            maxdisp,
            target_sinr,
            slice,
        } => Json::obj(vec![
            ("phase", Json::Str("power-churn".into())),
            ("steps", Json::Num(steps as f64)),
            ("join_prob", Json::Num(join_prob)),
            ("leave_prob", Json::Num(leave_prob)),
            ("maxdisp", Json::Num(maxdisp)),
            ("target_sinr", Json::Num(target_sinr)),
            ("slice", Json::Num(slice as f64)),
        ]),
    }
}

fn get_num(v: &Json, key: &str) -> Result<f64, SpecError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| SpecError(format!("missing or non-numeric field {key:?}")))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, SpecError> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| SpecError(format!("field {key:?} must be a non-negative integer")))
}

/// The keys a spec document may hold at its top level.
const SPEC_KEYS: &[&str] = &[
    "name",
    "summary",
    "arena",
    "topology",
    "ranges",
    "strategies",
    "base",
    "measured",
    "measure",
    "sweep",
    "runs",
    "seed",
];

/// Each phase kind's keys besides the `"phase"` discriminator.
const PHASE_KEYS: &[(&str, &[&str])] = &[
    ("join", &["count"]),
    ("power-raise", &["fraction", "factor"]),
    ("movement", &["rounds", "maxdisp"]),
    ("mix", &["steps", "join_prob", "leave_prob", "maxdisp"]),
    (
        "power-control",
        &["target_sinr", "ladder", "drop_infeasible", "sink_every"],
    ),
    (
        "power-churn",
        &[
            "steps",
            "join_prob",
            "leave_prob",
            "maxdisp",
            "target_sinr",
            "slice",
        ],
    ),
];

/// Each topology family's keys besides `"family"`.
const TOPOLOGY_KEYS: &[(&str, &[&str])] = &[
    ("uniform", &[]),
    ("clustered", &["clusters", "spread"]),
    ("corridor", &["walls", "door"]),
];

/// Each range distribution's keys besides `"dist"`.
const RANGES_KEYS: &[(&str, &[&str])] = &[
    ("interval", &["minr", "maxr"]),
    ("heterogeneous", &["short", "long", "long_fraction"]),
];

/// Each sweep axis's keys besides `"axis"`.
const SWEEP_KEYS: &[(&str, &[&str])] = &[
    ("join-count", &["values"]),
    ("avg-range", &["values"]),
    ("raise-factor", &["values"]),
    ("max-disp", &["values"]),
    ("rounds", &["max"]),
    ("mix-steps", &["values"]),
    ("long-fraction", &["values"]),
    ("target-sinr", &["values"]),
    ("single", &[]),
];

/// Rejects the first key of the object `v` that `known` refuses,
/// naming it and the object (`what`) it sits in — a misspelled
/// optional key must fail, not silently fall back to its default.
fn reject_unknown_keys(
    v: &Json,
    what: &str,
    known: impl Fn(&str) -> bool,
) -> Result<(), SpecError> {
    if let Json::Obj(pairs) = v {
        if let Some((key, _)) = pairs.iter().find(|(k, _)| !known(k)) {
            return spec_err(format!("unknown key {key:?} in {what}"));
        }
    }
    Ok(())
}

/// [`reject_unknown_keys`] for a tagged object: `tag` (the value of
/// its `tag_key` discriminator) selects the allowed keys in `table`.
/// An unknown tag passes, so the caller's own match reports it.
fn reject_unknown_variant_keys(
    v: &Json,
    what: &str,
    tag_key: &str,
    tag: &str,
    table: &[(&str, &[&str])],
) -> Result<(), SpecError> {
    match table.iter().find(|(t, _)| *t == tag) {
        Some((_, keys)) => reject_unknown_keys(v, &format!("{tag} {what}"), |k| {
            k == tag_key || keys.contains(&k)
        }),
        None => Ok(()),
    }
}

fn phase_from_json(v: &Json) -> Result<PhaseSpec, SpecError> {
    let kind = v
        .get("phase")
        .and_then(Json::as_str)
        .ok_or_else(|| SpecError("phase object needs a \"phase\" string".into()))?;
    reject_unknown_variant_keys(v, "phase", "phase", kind, PHASE_KEYS)?;
    match kind {
        "join" => Ok(PhaseSpec::Join {
            count: get_usize(v, "count")?,
        }),
        "power-raise" => Ok(PhaseSpec::PowerRaise {
            fraction: get_num(v, "fraction")?,
            factor: get_num(v, "factor")?,
        }),
        "movement" => Ok(PhaseSpec::Movement {
            rounds: get_usize(v, "rounds")?,
            maxdisp: get_num(v, "maxdisp")?,
        }),
        "mix" => Ok(PhaseSpec::Mix {
            steps: get_usize(v, "steps")?,
            join_prob: get_num(v, "join_prob")?,
            leave_prob: get_num(v, "leave_prob")?,
            maxdisp: get_num(v, "maxdisp")?,
        }),
        "power-control" => Ok(PhaseSpec::PowerControl {
            target_sinr: get_num(v, "target_sinr")?,
            ladder: get_usize(v, "ladder")?,
            drop_infeasible: v
                .get("drop_infeasible")
                .map(|b| {
                    b.as_bool()
                        .ok_or_else(|| SpecError("drop_infeasible must be a boolean".into()))
                })
                .transpose()?
                .unwrap_or(false),
            sink_every: match v.get("sink_every") {
                Some(_) => get_usize(v, "sink_every")?,
                None => 0,
            },
        }),
        "power-churn" => Ok(PhaseSpec::PowerChurn {
            steps: get_usize(v, "steps")?,
            join_prob: get_num(v, "join_prob")?,
            leave_prob: get_num(v, "leave_prob")?,
            maxdisp: get_num(v, "maxdisp")?,
            target_sinr: get_num(v, "target_sinr")?,
            slice: match v.get("slice") {
                Some(_) => get_usize(v, "slice")?,
                None => 8,
            },
        }),
        other => spec_err(format!(
            "unknown phase {other:?} (join|power-raise|movement|mix|power-control|power-churn)"
        )),
    }
}

fn values_f64(v: &Json) -> Result<Vec<f64>, SpecError> {
    let arr = v
        .get("values")
        .and_then(Json::as_arr)
        .filter(|a| !a.is_empty())
        .ok_or_else(|| SpecError("sweep needs a non-empty numeric \"values\" array".into()))?;
    arr.iter()
        .map(|entry| {
            entry.as_f64().ok_or_else(|| {
                SpecError(format!("non-numeric sweep value {entry:?} in \"values\""))
            })
        })
        .collect()
}

fn values_usize(v: &Json) -> Result<Vec<usize>, SpecError> {
    let arr = v
        .get("values")
        .and_then(Json::as_arr)
        .filter(|a| !a.is_empty())
        .ok_or_else(|| SpecError("sweep needs a non-empty integer \"values\" array".into()))?;
    arr.iter()
        .map(|entry| {
            entry.as_usize().ok_or_else(|| {
                SpecError(format!(
                    "sweep value {entry:?} in \"values\" is not a non-negative integer"
                ))
            })
        })
        .collect()
}

/// Serializes a `u64` seed: a JSON number when the double can hold it
/// exactly, a decimal string otherwise (doubles corrupt integers past
/// 2^53, and the whole determinism contract hangs off the seed).
fn seed_to_json(seed: u64) -> Json {
    if seed <= (1u64 << 53) {
        Json::Num(seed as f64)
    } else {
        Json::Str(seed.to_string())
    }
}

/// Parses a seed written by [`seed_to_json`] (number or decimal
/// string).
fn seed_from_json(v: &Json) -> Result<u64, SpecError> {
    match v {
        Json::Str(s) => s
            .parse::<u64>()
            .map_err(|_| SpecError(format!("seed string {s:?} is not a u64"))),
        _ => v
            .as_u64()
            .ok_or_else(|| SpecError("seed must be a non-negative integer".into())),
    }
}

impl ScenarioSpec {
    /// The spec as a JSON document (the `minim-lab` spec-file format).
    pub fn to_json(&self) -> Json {
        let topology = match self.topology {
            TopologyFamily::Uniform => Json::obj(vec![("family", Json::Str("uniform".into()))]),
            TopologyFamily::Clustered { clusters, spread } => Json::obj(vec![
                ("family", Json::Str("clustered".into())),
                ("clusters", Json::Num(clusters as f64)),
                ("spread", Json::Num(spread)),
            ]),
            TopologyFamily::Corridor { walls, door } => Json::obj(vec![
                ("family", Json::Str("corridor".into())),
                ("walls", Json::Num(walls as f64)),
                ("door", Json::Num(door)),
            ]),
        };
        let ranges = match self.ranges {
            RangeDist::Interval { minr, maxr } => Json::obj(vec![
                ("dist", Json::Str("interval".into())),
                ("minr", Json::Num(minr)),
                ("maxr", Json::Num(maxr)),
            ]),
            RangeDist::Heterogeneous {
                short,
                long,
                long_fraction,
            } => Json::obj(vec![
                ("dist", Json::Str("heterogeneous".into())),
                (
                    "short",
                    Json::Arr(vec![Json::Num(short.0), Json::Num(short.1)]),
                ),
                (
                    "long",
                    Json::Arr(vec![Json::Num(long.0), Json::Num(long.1)]),
                ),
                ("long_fraction", Json::Num(long_fraction)),
            ]),
        };
        let sweep = match &self.sweep {
            SweepAxis::JoinCount(vs) => Json::obj(vec![
                ("axis", Json::Str("join-count".into())),
                (
                    "values",
                    Json::Arr(vs.iter().map(|&v| Json::Num(v as f64)).collect()),
                ),
            ]),
            SweepAxis::AvgRange(vs) => Json::obj(vec![
                ("axis", Json::Str("avg-range".into())),
                (
                    "values",
                    Json::Arr(vs.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
            SweepAxis::RaiseFactor(vs) => Json::obj(vec![
                ("axis", Json::Str("raise-factor".into())),
                (
                    "values",
                    Json::Arr(vs.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
            SweepAxis::MaxDisp(vs) => Json::obj(vec![
                ("axis", Json::Str("max-disp".into())),
                (
                    "values",
                    Json::Arr(vs.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
            SweepAxis::Rounds(max) => Json::obj(vec![
                ("axis", Json::Str("rounds".into())),
                ("max", Json::Num(*max as f64)),
            ]),
            SweepAxis::MixSteps(vs) => Json::obj(vec![
                ("axis", Json::Str("mix-steps".into())),
                (
                    "values",
                    Json::Arr(vs.iter().map(|&v| Json::Num(v as f64)).collect()),
                ),
            ]),
            SweepAxis::LongFraction(vs) => Json::obj(vec![
                ("axis", Json::Str("long-fraction".into())),
                (
                    "values",
                    Json::Arr(vs.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
            SweepAxis::TargetSinr(vs) => Json::obj(vec![
                ("axis", Json::Str("target-sinr".into())),
                (
                    "values",
                    Json::Arr(vs.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
            SweepAxis::Single => Json::obj(vec![("axis", Json::Str("single".into()))]),
        };
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("summary", Json::Str(self.summary.clone())),
            (
                "arena",
                Json::Arr(vec![
                    Json::Num(self.arena.min_x),
                    Json::Num(self.arena.min_y),
                    Json::Num(self.arena.max_x),
                    Json::Num(self.arena.max_y),
                ]),
            ),
            ("topology", topology),
            ("ranges", ranges),
            (
                "strategies",
                Json::Arr(
                    self.strategies
                        .iter()
                        .map(|&k| Json::Str(strategy_name(k).into()))
                        .collect(),
                ),
            ),
            (
                "base",
                Json::Arr(self.base.iter().map(phase_to_json).collect()),
            ),
            (
                "measured",
                Json::Arr(self.measured.iter().map(phase_to_json).collect()),
            ),
            (
                "measure",
                Json::Str(
                    match self.measure {
                        Measure::Absolute => "absolute",
                        Measure::DeltaFromBase => "delta-from-base",
                    }
                    .into(),
                ),
            ),
            ("sweep", sweep),
            ("runs", Json::Num(self.runs as f64)),
            ("seed", seed_to_json(self.seed)),
        ])
    }

    /// The spec as a pretty-printed JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses a spec from its JSON form. Missing optional fields fall
    /// back to the [`ScenarioSpec::new`] defaults; only `name` is
    /// required. A key the spec, its topology, ranges, sweep or any
    /// phase does not read is an error naming the key and its object.
    pub fn from_json(v: &Json) -> Result<ScenarioSpec, SpecError> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError("spec needs a \"name\" string".into()))?;
        reject_unknown_keys(v, "the spec", |k| SPEC_KEYS.contains(&k))?;
        let mut spec = ScenarioSpec::new(name);
        if let Some(s) = v.get("summary").and_then(Json::as_str) {
            spec.summary = s.to_string();
        }
        if let Some(arena) = v.get("arena") {
            let coords = arena
                .as_arr()
                .filter(|a| a.len() == 4)
                .map(|a| a.iter().filter_map(Json::as_f64).collect::<Vec<f64>>())
                .filter(|c| c.len() == 4)
                .ok_or_else(|| SpecError("arena must be [min_x, min_y, max_x, max_y]".into()))?;
            if !(coords[0] < coords[2] && coords[1] < coords[3]) {
                return spec_err("arena must have positive extent");
            }
            spec.arena = Rect::new(coords[0], coords[1], coords[2], coords[3]);
        }
        if let Some(t) = v.get("topology") {
            let family = t
                .get("family")
                .and_then(Json::as_str)
                .ok_or_else(|| SpecError("topology needs a \"family\" string".into()))?;
            reject_unknown_variant_keys(t, "topology", "family", family, TOPOLOGY_KEYS)?;
            spec.topology = match family {
                "uniform" => TopologyFamily::Uniform,
                "clustered" => TopologyFamily::Clustered {
                    clusters: get_usize(t, "clusters")?,
                    spread: get_num(t, "spread")?,
                },
                "corridor" => TopologyFamily::Corridor {
                    walls: get_usize(t, "walls")?,
                    door: get_num(t, "door")?,
                },
                other => {
                    return spec_err(format!(
                        "unknown topology family {other:?} (uniform|clustered|corridor)"
                    ))
                }
            };
        }
        if let Some(r) = v.get("ranges") {
            let dist = r
                .get("dist")
                .and_then(Json::as_str)
                .ok_or_else(|| SpecError("ranges needs a \"dist\" string".into()))?;
            reject_unknown_variant_keys(r, "ranges", "dist", dist, RANGES_KEYS)?;
            spec.ranges = match dist {
                "interval" => RangeDist::Interval {
                    minr: get_num(r, "minr")?,
                    maxr: get_num(r, "maxr")?,
                },
                "heterogeneous" => {
                    let pair = |key: &str| -> Result<(f64, f64), SpecError> {
                        r.get(key)
                            .and_then(Json::as_arr)
                            .filter(|a| a.len() == 2)
                            .and_then(|a| Some((a[0].as_f64()?, a[1].as_f64()?)))
                            .ok_or_else(|| SpecError(format!("field {key:?} must be [min, max]")))
                    };
                    RangeDist::Heterogeneous {
                        short: pair("short")?,
                        long: pair("long")?,
                        long_fraction: get_num(r, "long_fraction")?,
                    }
                }
                other => {
                    return spec_err(format!(
                        "unknown range dist {other:?} (interval|heterogeneous)"
                    ))
                }
            };
        }
        if let Some(s) = v.get("strategies") {
            let names = s
                .as_arr()
                .ok_or_else(|| SpecError("strategies must be an array".into()))?;
            spec.strategies = names
                .iter()
                .map(|n| {
                    n.as_str()
                        .ok_or_else(|| SpecError("strategy entries must be strings".into()))
                        .and_then(strategy_from_name)
                })
                .collect::<Result<_, _>>()?;
        }
        for (key, out) in [("base", true), ("measured", false)] {
            if let Some(list) = v.get(key) {
                let phases = list
                    .as_arr()
                    .ok_or_else(|| SpecError(format!("{key} must be an array")))?
                    .iter()
                    .map(phase_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                if out {
                    spec.base = phases;
                } else {
                    spec.measured = phases;
                }
            }
        }
        if let Some(m) = v.get("measure").and_then(Json::as_str) {
            spec.measure = match m {
                "absolute" => Measure::Absolute,
                "delta-from-base" | "delta" => Measure::DeltaFromBase,
                other => {
                    return spec_err(format!(
                        "unknown measure {other:?} (absolute|delta-from-base)"
                    ))
                }
            };
        }
        if let Some(s) = v.get("sweep") {
            let axis = s
                .get("axis")
                .and_then(Json::as_str)
                .ok_or_else(|| SpecError("sweep needs an \"axis\" string".into()))?;
            reject_unknown_variant_keys(s, "sweep", "axis", axis, SWEEP_KEYS)?;
            spec.sweep = match axis {
                "join-count" => SweepAxis::JoinCount(values_usize(s)?),
                "avg-range" => SweepAxis::AvgRange(values_f64(s)?),
                "raise-factor" => SweepAxis::RaiseFactor(values_f64(s)?),
                "max-disp" => SweepAxis::MaxDisp(values_f64(s)?),
                "rounds" => SweepAxis::Rounds(get_usize(s, "max")?),
                "mix-steps" => SweepAxis::MixSteps(values_usize(s)?),
                "long-fraction" => SweepAxis::LongFraction(values_f64(s)?),
                "target-sinr" => SweepAxis::TargetSinr(values_f64(s)?),
                "single" => SweepAxis::Single,
                other => return spec_err(format!("unknown sweep axis {other:?}")),
            };
        }
        if let Some(r) = v.get("runs") {
            spec.runs = r
                .as_usize()
                .ok_or_else(|| SpecError("runs must be a non-negative integer".into()))?;
        }
        if let Some(s) = v.get("seed") {
            spec.seed = seed_from_json(s)?;
        }
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    pub fn from_json_str(text: &str) -> Result<ScenarioSpec, SpecError> {
        let v = json::parse(text).map_err(|e| SpecError(format!("spec is not valid JSON: {e}")))?;
        ScenarioSpec::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            runs: 3,
            seed: 42,
            workers: 2,
        }
    }

    fn mix_spec() -> ScenarioSpec {
        ScenarioSpec::new("mix-lab")
            .topology(TopologyFamily::Clustered {
                clusters: 3,
                spread: 5.0,
            })
            .ranges(RangeDist::Heterogeneous {
                short: (10.0, 14.0),
                long: (25.0, 32.0),
                long_fraction: 0.2,
            })
            .base_phase(PhaseSpec::Join { count: 20 })
            .measured_phase(PhaseSpec::Mix {
                steps: 30,
                join_prob: 0.3,
                leave_prob: 0.3,
                maxdisp: 15.0,
            })
            .measure(Measure::DeltaFromBase)
            .sweep(SweepAxis::MixSteps(vec![10, 30]))
    }

    #[test]
    fn sweep_result_has_expected_shape() {
        let r = Scenario::new(mix_spec()).unwrap().run(&tiny_cfg());
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.x_label, "steps");
        assert_eq!(r.strategies.len(), 3);
        for p in &r.points {
            assert_eq!(p.colors.len(), 3);
            assert_eq!(p.recodings.len(), 3);
            assert_eq!(p.colors[0].n, 3);
            assert!(p.events > 0);
        }
        // 20 base joins + steps, times 3 replicates.
        assert_eq!(r.points[0].events, 3 * 30);
        assert_eq!(r.points[1].events, 3 * 50);
        assert_eq!(r.total_events, 3 * 30 + 3 * 50);
        assert!(r.points[0].recodings[0].mean <= r.points[1].recodings[0].mean + 1e-9);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let scenario = Scenario::new(mix_spec()).unwrap();
        let a = scenario.run(&ExperimentConfig {
            workers: 1,
            ..tiny_cfg()
        });
        let b = scenario.run(&ExperimentConfig {
            workers: 8,
            ..tiny_cfg()
        });
        assert_eq!(a, b);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn rounds_sweep_reports_per_round() {
        let spec = ScenarioSpec::new("rounds")
            .base_phase(PhaseSpec::Join { count: 15 })
            .measured_phase(PhaseSpec::Movement {
                rounds: 1,
                maxdisp: 30.0,
            })
            .measure(Measure::DeltaFromBase)
            .sweep(SweepAxis::Rounds(3));
        let r = Scenario::new(spec).unwrap().run(&tiny_cfg());
        assert_eq!(r.points.len(), 3);
        assert_eq!(
            r.points.iter().map(|p| p.x).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
        // Cumulative recodings never decrease round over round.
        for si in 0..3 {
            assert!(r.points[0].recodings[si].mean <= r.points[2].recodings[si].mean + 1e-9);
        }
        // Events accumulate: 15 joins + 15 moves per round, per replicate.
        assert_eq!(r.points[0].events, 3 * 30);
        assert_eq!(r.points[2].events, 3 * 60);
    }

    #[test]
    fn corridor_topology_runs_and_walls_constrain_nothing_invalid() {
        let spec = ScenarioSpec::new("corridor")
            .topology(TopologyFamily::Corridor {
                walls: 2,
                door: 10.0,
            })
            .measured_phase(PhaseSpec::Join { count: 25 });
        let r = Scenario::new(spec).unwrap().run(&tiny_cfg());
        assert_eq!(r.points.len(), 1);
        assert!(r.points[0].colors[0].mean >= 1.0);
    }

    #[test]
    fn progress_fires_once_per_resolved_point() {
        let mut seen = Vec::new();
        let scenario = Scenario::new(mix_spec()).unwrap();
        scenario.run_with_progress(&tiny_cfg(), |p| seen.push((p.done, p.total, p.x)));
        assert_eq!(seen, vec![(1, 2, 10.0), (2, 2, 30.0)]);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let no_measured = ScenarioSpec::new("x");
        assert!(Scenario::new(no_measured).is_err());

        let bad_sweep = ScenarioSpec::new("x")
            .measured_phase(PhaseSpec::Join { count: 5 })
            .sweep(SweepAxis::MaxDisp(vec![10.0]));
        assert!(Scenario::new(bad_sweep).is_err());

        let zero_runs = ScenarioSpec::new("x")
            .measured_phase(PhaseSpec::Join { count: 5 })
            .runs(0);
        assert!(Scenario::new(zero_runs).is_err());

        let bad_probs = ScenarioSpec::new("x").measured_phase(PhaseSpec::Mix {
            steps: 5,
            join_prob: 0.8,
            leave_prob: 0.8,
            maxdisp: 5.0,
        });
        assert!(Scenario::new(bad_probs).is_err());

        let bad_factor = ScenarioSpec::new("x").measured_phase(PhaseSpec::PowerRaise {
            fraction: 0.5,
            factor: 0.5,
        });
        assert!(Scenario::new(bad_factor).is_err());

        let rounds_needs_movement = ScenarioSpec::new("x")
            .measured_phase(PhaseSpec::Join { count: 5 })
            .sweep(SweepAxis::Rounds(3));
        assert!(Scenario::new(rounds_needs_movement).is_err());
    }

    fn power_spec() -> ScenarioSpec {
        ScenarioSpec::new("power-lab")
            .topology(TopologyFamily::Clustered {
                clusters: 3,
                spread: 4.0,
            })
            .base_phase(PhaseSpec::Join { count: 30 })
            .measured_phase(PhaseSpec::PowerControl {
                target_sinr: 4.0,
                ladder: 0,
                drop_infeasible: false,
                sink_every: 6,
            })
            .measure(Measure::DeltaFromBase)
            .sweep(SweepAxis::TargetSinr(vec![2.0, 8.0]))
    }

    #[test]
    fn power_control_phase_emits_endogenous_events() {
        let r = Scenario::new(power_spec()).unwrap().run(&tiny_cfg());
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.x_label, "targetSINR");
        // Every replicate executes the 30 base joins plus at least one
        // endogenous set-range event per point (the loop always moves
        // ranges off the sampled seed).
        for p in &r.points {
            assert!(p.events > 3 * 30, "endogenous events missing: {}", p.events);
        }
        // A harder target costs at least as many recodings.
        for si in 0..r.strategies.len() {
            assert!(
                r.points[0].recodings[si].mean <= r.points[1].recodings[si].mean + 1e-9,
                "strategy {si}"
            );
        }
    }

    #[test]
    fn power_control_results_are_worker_invariant() {
        let scenario = Scenario::new(power_spec().measured_phase(PhaseSpec::PowerControl {
            target_sinr: 6.0,
            ladder: 8,
            drop_infeasible: true,
            sink_every: 6,
        }))
        .unwrap();
        let a = scenario.run(&ExperimentConfig {
            workers: 1,
            ..tiny_cfg()
        });
        let b = scenario.run(&ExperimentConfig {
            workers: 8,
            ..tiny_cfg()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn power_control_validation_rejects_bad_knobs() {
        let bad_target = ScenarioSpec::new("x").measured_phase(PhaseSpec::PowerControl {
            target_sinr: 0.0,
            ladder: 0,
            drop_infeasible: false,
            sink_every: 6,
        });
        assert!(Scenario::new(bad_target).is_err());

        let one_rung = ScenarioSpec::new("x").measured_phase(PhaseSpec::PowerControl {
            target_sinr: 4.0,
            ladder: 1,
            drop_infeasible: false,
            sink_every: 6,
        });
        assert!(Scenario::new(one_rung).is_err());

        let sweep_without_phase = ScenarioSpec::new("x")
            .measured_phase(PhaseSpec::Join { count: 5 })
            .sweep(SweepAxis::TargetSinr(vec![4.0]));
        assert!(Scenario::new(sweep_without_phase).is_err());

        let negative_sweep = power_spec().sweep(SweepAxis::TargetSinr(vec![4.0, -1.0]));
        assert!(Scenario::new(negative_sweep).is_err());
    }

    fn churn_spec() -> ScenarioSpec {
        ScenarioSpec::new("churn-lab")
            .topology(TopologyFamily::Clustered {
                clusters: 3,
                spread: 4.0,
            })
            .base_phase(PhaseSpec::Join { count: 25 })
            .measured_phase(PhaseSpec::PowerChurn {
                steps: 24,
                join_prob: 0.3,
                leave_prob: 0.3,
                maxdisp: 15.0,
                target_sinr: 4.0,
                slice: 8,
            })
            .measure(Measure::DeltaFromBase)
            .sweep(SweepAxis::TargetSinr(vec![2.0, 8.0]))
    }

    #[test]
    fn power_churn_phase_interleaves_corrections() {
        let r = Scenario::new(churn_spec()).unwrap().run(&tiny_cfg());
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.x_label, "targetSINR");
        // Every replicate executes the 25 base joins, the 24 churn
        // steps, and at least one endogenous correction per settle
        // (the closed loop always moves ranges off the sampled seed).
        for p in &r.points {
            assert!(
                p.events > 3 * (25 + 24),
                "endogenous corrections missing: {}",
                p.events
            );
        }
    }

    #[test]
    fn power_churn_results_are_worker_invariant() {
        let scenario = Scenario::new(churn_spec()).unwrap();
        let a = scenario.run(&ExperimentConfig {
            workers: 1,
            ..tiny_cfg()
        });
        let b = scenario.run(&ExperimentConfig {
            workers: 8,
            ..tiny_cfg()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn power_churn_validation_rejects_bad_knobs() {
        let churn = |join_prob, leave_prob, target_sinr, slice| {
            ScenarioSpec::new("x").measured_phase(PhaseSpec::PowerChurn {
                steps: 10,
                join_prob,
                leave_prob,
                maxdisp: 10.0,
                target_sinr,
                slice,
            })
        };
        assert!(Scenario::new(churn(0.7, 0.7, 4.0, 8)).is_err());
        assert!(Scenario::new(churn(0.3, 0.3, 0.0, 8)).is_err());
        assert!(Scenario::new(churn(0.3, 0.3, 4.0, 0)).is_err());
        assert!(Scenario::new(churn(0.3, 0.3, 4.0, 8)).is_ok());
        // A churn phase satisfies the target-SINR sweep requirement.
        assert!(Scenario::new(churn_spec()).is_ok());
    }

    #[test]
    fn spec_json_roundtrip_covers_every_variant() {
        let specs = [
            mix_spec(),
            power_spec(),
            churn_spec(),
            ScenarioSpec::new("power-discrete")
                .base_phase(PhaseSpec::Join { count: 10 })
                .measured_phase(PhaseSpec::PowerControl {
                    target_sinr: 6.5,
                    ladder: 12,
                    drop_infeasible: true,
                    sink_every: 6,
                }),
            ScenarioSpec::new("corridor")
                .topology(TopologyFamily::Corridor {
                    walls: 3,
                    door: 8.0,
                })
                .arena(Rect::new(0.0, 0.0, 200.0, 50.0))
                .measured_phase(PhaseSpec::Join { count: 40 })
                .sweep(SweepAxis::JoinCount(vec![20, 40])),
            ScenarioSpec::new("raise")
                .base_phase(PhaseSpec::Join { count: 30 })
                .measured_phase(PhaseSpec::PowerRaise {
                    fraction: 0.5,
                    factor: 2.0,
                })
                .measure(Measure::DeltaFromBase)
                .sweep(SweepAxis::RaiseFactor(vec![1.0, 2.0])),
            ScenarioSpec::new("rounds")
                .base_phase(PhaseSpec::Join { count: 10 })
                .measured_phase(PhaseSpec::Movement {
                    rounds: 2,
                    maxdisp: 40.0,
                })
                .sweep(SweepAxis::Rounds(4))
                .strategies(vec![StrategyKind::Minim, StrategyKind::Cp]),
            ScenarioSpec::new("hetero")
                .ranges(RangeDist::Heterogeneous {
                    short: (8.0, 12.0),
                    long: (30.0, 40.0),
                    long_fraction: 0.25,
                })
                .measured_phase(PhaseSpec::Join { count: 20 })
                .sweep(SweepAxis::LongFraction(vec![0.0, 0.5])),
        ];
        for spec in specs {
            let text = spec.to_json_string();
            let parsed = ScenarioSpec::from_json_str(&text).unwrap();
            assert_eq!(spec, parsed, "roundtrip failed for {}", spec.name);
        }
    }

    #[test]
    fn from_json_defaults_optional_fields() {
        let spec = ScenarioSpec::from_json_str(
            "{\"name\": \"bare\", \"measured\": [{\"phase\": \"join\", \"count\": 5}]}",
        )
        .unwrap();
        assert_eq!(spec.arena, Rect::paper_arena());
        assert_eq!(spec.ranges, RangeDist::paper());
        assert_eq!(spec.strategies.len(), 3);
        assert!(Scenario::new(spec).is_ok());
    }

    #[test]
    fn big_seeds_roundtrip_exactly() {
        // Doubles corrupt integers past 2^53; the seed must survive
        // anyway (it is the whole determinism contract).
        let spec = mix_spec().seed(u64::MAX - 12345);
        let parsed = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(parsed.seed, u64::MAX - 12345);
        // Small seeds stay plain JSON numbers.
        let small = mix_spec().seed(42);
        assert!(small.to_json_string().contains("\"seed\": 42"));
        assert_eq!(
            ScenarioSpec::from_json_str(&small.to_json_string())
                .unwrap()
                .seed,
            42
        );
    }

    #[test]
    fn malformed_sweep_values_are_rejected_not_dropped() {
        for values in ["[40, 60.5, 80]", "[40, \"60\", 80]"] {
            let text = format!(
                "{{\"name\":\"x\",\"measured\":[{{\"phase\":\"join\",\"count\":5}}],\
                 \"sweep\":{{\"axis\":\"join-count\",\"values\":{values}}}}}"
            );
            let err = ScenarioSpec::from_json_str(&text).unwrap_err();
            assert!(err.to_string().contains("values"), "{values} -> {err}");
        }
    }

    #[test]
    fn from_json_reports_field_errors() {
        for (text, needle) in [
            ("{}", "name"),
            (
                "{\"name\":\"x\",\"sweep\":{\"axis\":\"bogus\"}}",
                "sweep axis",
            ),
            (
                "{\"name\":\"x\",\"strategies\":[\"nope\"]}",
                "unknown strategy",
            ),
            ("not json", "valid JSON"),
            // Misspelled optional keys fail instead of defaulting.
            (
                "{\"name\":\"x\",\"sead\":7}",
                "unknown key \"sead\" in the spec",
            ),
            (
                "{\"name\":\"x\",\"measured\":[{\"phase\":\"power-churn\",\"steps\":4,\
                 \"join_prob\":0.3,\"leave_prob\":0.3,\"maxdisp\":5,\"target_sinr\":4,\
                 \"slcie\":1}]}",
                "unknown key \"slcie\" in power-churn phase",
            ),
            (
                "{\"name\":\"x\",\"measured\":[{\"phase\":\"power-churn\",\"steps\":4,\
                 \"join_prob\":0.3,\"leave_prob\":0.3,\"maxdisp\":5,\"target_sinr\":4,\
                 \"workers\":2}]}",
                "unknown key \"workers\" in power-churn phase",
            ),
            (
                "{\"name\":\"x\",\"topology\":{\"family\":\"uniform\",\"spread\":3}}",
                "unknown key \"spread\" in uniform topology",
            ),
            (
                "{\"name\":\"x\",\"ranges\":{\"dist\":\"interval\",\"minr\":1,\"maxr\":2,\"max\":3}}",
                "unknown key \"max\" in interval ranges",
            ),
            (
                "{\"name\":\"x\",\"sweep\":{\"axis\":\"single\",\"values\":[1]}}",
                "unknown key \"values\" in single sweep",
            ),
        ] {
            let err = ScenarioSpec::from_json_str(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?} -> {err} (wanted {needle:?})"
            );
        }
    }

    #[test]
    fn result_json_parses_back() {
        let r = Scenario::new(mix_spec()).unwrap().run(&tiny_cfg());
        let v = json::parse(&r.to_json_string()).unwrap();
        assert_eq!(v.get("scenario").unwrap().as_str(), Some("mix-lab"));
        assert_eq!(
            v.get("points").unwrap().as_arr().unwrap().len(),
            r.points.len()
        );
    }
}
