//! SINR physical layer and closed-loop distributed power control.
//!
//! The paper's fourth event type — a power change — is exogenous in
//! `minim-net`: workloads draw a new range from a distribution and
//! the recoding strategies react. In real power-controlled CDMA
//! ad-hoc networks power is set by a *closed loop* driving each link
//! to a target SINR (Foschini–Miljanic; Meshkati et al.'s unified
//! energy-efficient power control), and handsets quantize it to
//! discrete levels (Liu, Rong & Cui's optimal discrete power
//! control). This crate is that loop, layered *under* the existing
//! stack:
//!
//! * [`gain`] — the path-loss [`GainModel`]: distance power-law with
//!   a near-field clamp and per-wall penetration loss (the attenuated
//!   generalization of §2's opaque obstacles, counted by
//!   [`minim_geom::SegmentGrid::crossings`]).
//! * [`sinr`] — per-link SINR evaluation against the active link
//!   set: [`SinrField`] precomputes direct gains and sparse
//!   interferer lists so each control iteration is a pass over
//!   static geometry.
//! * [`control`] — the Foschini–Miljanic iteration ([`relax`], an
//!   active-set worklist, run cold or warm) with a max-power cap,
//!   continuous or discrete [`PowerLadder`]s, and feasibility
//!   detection: [`Verdict::Converged`] / [`Verdict::PowerCapped`]
//!   (the near-far verdict) / [`Verdict::Diverging`] (budget
//!   exhausted).
//! * [`driver`] — [`PowerLoop`] runs one cold relaxation and lowers
//!   the converged powers back into the delta-driven event engine as
//!   ordinary set-range / leave [`minim_net::event::Event`]s, so
//!   Minim/CP/BBB respond to *endogenous* power churn. The power ↔
//!   range mapping is the noise-limited decode disc, making the
//!   paper's range abstraction exactly the physical layer's
//!   equilibrium.
//! * [`session`] — [`PowerSession`] keeps the field and the powers
//!   across churn and re-settles warm, emitting set-range
//!   corrections.
//!
//! `minim-sim` exposes the loop as a scenario phase
//! (`PhaseSpec::PowerControl`) with a target-SINR sweep axis, and
//! `minim-radio` can replace its orthogonal-codes reception rule with
//! SINR capture built on the same [`GainModel`].

#![deny(missing_docs)]

pub mod accum;
pub mod control;
pub mod driver;
pub mod gain;
pub mod session;
pub mod sinr;

pub use accum::{weighted_sum, weighted_sum_scalar, weighted_sum_simd, LANES};
pub use control::{relax, ControlConfig, ControlScratch, PowerLadder, RelaxReport, Verdict};
pub use driver::{
    power_for_range, range_for_power, PowerLoop, PowerLoopConfig, PowerLoopOutcome,
    PowerLoopReport, ReceiverPolicy,
};
pub use gain::GainModel;
pub use session::{PowerSession, SessionReport};
pub use sinr::{FieldEvent, LinkBudget, SinrField, NO_RECEIVER};
