//! Experiment harness — §5 of the paper, generalized into a
//! declarative scenario lab.
//!
//! The paper evaluates Minim against CP and BBB on randomly generated
//! ad-hoc networks (nodes uniform in `[0,100]²`, ranges uniform in
//! `(minr, maxr)`), averaging every plotted point over **100 runs**.
//! This crate reproduces that pipeline and opens it to arbitrary
//! regimes:
//!
//! * [`scenario`] — the lab's core: [`ScenarioSpec`] declares an
//!   experiment (topology family, range distribution, event phases,
//!   strategy set, sweep axis) and [`scenario::Scenario::run`] lowers
//!   it onto the delta-driven event machinery, returning a typed
//!   [`scenario::SweepResult`] exportable as text tables, CSV, or
//!   JSON.
//! * [`presets`] — the named catalog: the paper's Fig 10–12 sweeps
//!   plus clustered, heterogeneous-range, churn, and corridor
//!   scenarios. The `minim-lab` binary in `crates/bench` lists and
//!   runs these.
//! * [`experiments`] — the figure wrappers (`fig10_vs_n`, …) as thin
//!   preset adapters, plus the ablation and extension studies.
//! * [`metrics`] — sample statistics, series, and renderable tables
//!   (aligned text + CSV).
//! * [`runner`] — applies generated event sequences to a strategy and
//!   accumulates the two §5 metrics: *maximum color index assigned*
//!   and *total number of recodings*.
//! * [`par`] — a `std::thread::scope` worker pool mapping replicate
//!   jobs to results; per-replicate seeds are derived with
//!   [`minim_geom::sample::child_seed`], so parallel and serial
//!   execution produce bit-identical tables.
//! * [`json`] — a dependency-free JSON value/parser/writer backing the
//!   spec-file format and result exports.
//! * [`trace`] — the `minim-metrics/1` export: lowers `minim-obs`
//!   metric snapshots and span profiles onto [`json`] values.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod experiments;
pub mod json;
pub mod metrics;
pub mod par;
pub mod plot;
pub mod presets;
pub mod runner;
pub mod scenario;
pub mod trace;

pub use compare::{paired_compare, PairedComparison};
pub use metrics::{Stats, Table};
pub use plot::ascii_plot;
pub use runner::run_events;
pub use scenario::{
    ExperimentConfig, Measure, PhaseSpec, Scenario, ScenarioSpec, SweepAxis, SweepResult,
    TopologyFamily,
};
