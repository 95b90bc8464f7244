//! The closed-loop distributed power-control iteration.
//!
//! Foschini–Miljanic: every link scales its transmit power by the
//! ratio of its target SINR to its measured SINR,
//!
//! ```text
//! p_i ← clamp( γ / SINR_i(p) · p_i )  =  clamp( γ · I_i(p) / (L · g_ii) )
//! ```
//!
//! where `I_i(p)` is the noise-plus-interference at `i`'s receiver.
//! The right-hand side is a *standard interference function*
//! (positive, monotone, scalable), so with the max-power clamp the
//! iteration converges from any starting point — synchronously
//! ([`run_with`], the classic all-links sweep) or **asynchronously**
//! ([`relax`], the active-set worklist that only re-updates links
//! whose interference actually changed; Yates' framework covers
//! totally asynchronous update orders, so both land on the same
//! unique fixed point). Started from the minimum power the iteration
//! converges monotonically from below, which is what [`run_with`] does
//! and what the tests pin. [`crate::PowerLoop`] runs the sweep;
//! [`crate::PowerSession`] runs every settle through [`relax`] on the
//! calling thread.
//!
//! Real handsets cannot emit arbitrary powers: [`PowerLadder`]
//! optionally quantizes every update **up** to the next discrete
//! level (ceiling quantization keeps the iteration standard and makes
//! the state space finite, so discrete runs reach an exact fixed
//! point). On a discrete ladder the quantized update map is monotone
//! on a finite lattice: any update order started from the all-minimum
//! vector climbs to the **least** fixed point, so the active-set
//! relaxation reaches the exact sweep result — but a warm start above
//! that fixed point need not descend to it, which is why warm
//! restarts are a continuous-ladder tool (see [`relax`]).
//!
//! Feasibility is read off the fixed point: if every link meets its
//! target the instance is [`Feasibility::Converged`]; if some links
//! sit at the power cap below target the instance is overloaded
//! ([`Feasibility::PowerCapped`] names them — the textbook near-far
//! outcome); if the update budget runs out before the fixed point the
//! instance is [`Feasibility::Diverging`].

use crate::sinr::SinrField;
use std::collections::VecDeque;

/// The discrete transmit-power levels a radio can emit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerLadder {
    /// Any power in `[min_power, max_power]` — the idealized
    /// continuous loop.
    Continuous,
    /// `levels` geometrically spaced rungs from `min_power` to
    /// `max_power` inclusive; updates quantize **up** to the next
    /// rung (a radio rounds its power request up so the target is
    /// still met).
    Geometric {
        /// Number of rungs (≥ 2).
        levels: usize,
    },
}

impl PowerLadder {
    /// Quantizes a clamped power request onto the ladder. Continuous
    /// ladders pass through; geometric ladders round up to the next
    /// rung (the top rung for requests beyond it).
    pub fn quantize_up(&self, p: f64, min_power: f64, max_power: f64) -> f64 {
        match *self {
            PowerLadder::Continuous => p,
            PowerLadder::Geometric { levels } => {
                debug_assert!(levels >= 2);
                if p <= min_power {
                    return min_power;
                }
                if p >= max_power {
                    return max_power;
                }
                let step = (max_power / min_power).ln() / (levels - 1) as f64;
                let k = ((p / min_power).ln() / step).ceil();
                (min_power * (k * step).exp()).min(max_power)
            }
        }
    }

    /// Every rung of the ladder within `[min_power, max_power]`
    /// (a two-element vector for continuous ladders: the bounds).
    pub fn levels(&self, min_power: f64, max_power: f64) -> Vec<f64> {
        match *self {
            PowerLadder::Continuous => vec![min_power, max_power],
            PowerLadder::Geometric { levels } => {
                let step = (max_power / min_power).ln() / (levels - 1) as f64;
                (0..levels)
                    .map(|k| (min_power * (k as f64 * step).exp()).min(max_power))
                    .collect()
            }
        }
    }
}

/// Parameters of one control-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Target SINR `γ` every link drives toward (linear, not dB).
    pub target_sinr: f64,
    /// Smallest emittable power (also the starting point — the loop
    /// converges monotonically from below).
    pub min_power: f64,
    /// The power cap; links stuck here below target are infeasible.
    pub max_power: f64,
    /// The radio's power ladder.
    pub ladder: PowerLadder,
    /// Relative-change convergence tolerance for continuous ladders
    /// (discrete ladders stop on exact fixed points).
    pub tol: f64,
    /// Iteration budget: synchronous sweeps for [`run_with`], sweep
    /// *equivalents* (budget × live links single-link updates) for
    /// [`relax`]. Exhausting it is [`Feasibility::Diverging`].
    pub max_iters: usize,
}

impl ControlConfig {
    /// A sensible loop for targets around `target_sinr`: powers
    /// spanning `[min_power, max_power]`, continuous ladder, `1e-6`
    /// tolerance, 200-iteration budget.
    pub fn new(target_sinr: f64, min_power: f64, max_power: f64) -> Self {
        ControlConfig {
            target_sinr,
            min_power,
            max_power,
            ladder: PowerLadder::Continuous,
            tol: 1e-6,
            max_iters: 200,
        }
    }

    /// The power every link starts from: `min_power` snapped onto the
    /// ladder.
    pub fn start_power(&self) -> f64 {
        self.ladder
            .quantize_up(self.min_power, self.min_power, self.max_power)
    }

    /// Asserts the configuration is runnable.
    ///
    /// # Panics
    /// Panics on a non-positive target, an empty/inverted power
    /// interval, a degenerate ladder, a non-positive tolerance, or a
    /// zero iteration budget.
    pub fn validate(&self) {
        assert!(
            self.target_sinr.is_finite() && self.target_sinr > 0.0,
            "target_sinr must be positive, got {}",
            self.target_sinr
        );
        assert!(
            self.min_power > 0.0 && self.min_power <= self.max_power && self.max_power.is_finite(),
            "need 0 < min_power <= max_power, got [{}, {}]",
            self.min_power,
            self.max_power
        );
        if let PowerLadder::Geometric { levels } = self.ladder {
            assert!(levels >= 2, "a discrete ladder needs >= 2 levels");
        }
        assert!(self.tol > 0.0, "tol must be positive");
        assert!(self.max_iters >= 1, "need an iteration budget");
    }
}

/// How a control-loop run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Feasibility {
    /// Fixed point with every link at or above target: the instance
    /// is feasible and `powers` is (within tolerance / quantization)
    /// the minimal power vector serving it.
    Converged,
    /// Fixed point with the listed links pinned at `max_power` below
    /// target: the instance is overloaded (the near-far outcome);
    /// everyone else still meets target *given* the capped powers.
    PowerCapped {
        /// Link indices stuck at the cap below target, ascending.
        capped: Vec<usize>,
    },
    /// The update budget ran out before a fixed point (continuous
    /// loops approach infeasible fixed points asymptotically; this is
    /// the in-budget divergence signal).
    Diverging,
}

impl Feasibility {
    /// Whether every link met its target.
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Converged)
    }
}

/// [`Feasibility`] without the capped-link payload — the `Copy`
/// verdict scratch-based runs return; the capped indices live in
/// [`ControlScratch::capped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fixed point, every live link at or above target.
    Converged,
    /// Fixed point with links pinned at the cap below target.
    PowerCapped,
    /// Update budget exhausted before a fixed point.
    Diverging,
}

/// Report of one [`run_with`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// Synchronous iterations executed.
    pub iterations: usize,
    /// How the run ended.
    pub verdict: Verdict,
}

/// Report of one [`relax`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelaxReport {
    /// Single-link power writes performed (the active-set analogue of
    /// `iterations × n`; the whole point is that this stays small when
    /// little changed).
    pub updates: u64,
    /// How the run ended.
    pub verdict: Verdict,
}

/// Reusable control-loop state: power/SINR slabs, the active-set
/// worklist, and the capped-link list. Create once, feed to
/// [`run_with`] / [`relax`] forever — steady-state runs allocate
/// nothing.
///
/// `powers` persists across calls; that is what makes warm-started
/// relaxation possible. The slabs are indexed by link id and only
/// ever grow.
#[derive(Debug, Clone, Default)]
pub struct ControlScratch {
    /// Current power vector (one entry per link slot). Warm state:
    /// survives across calls.
    pub powers: Vec<f64>,
    /// SINRs under `powers` as of the last classification.
    pub sinrs: Vec<f64>,
    /// Live links pinned at the cap below target as of the last
    /// classification, ascending.
    pub capped: Vec<u32>,
    /// Double buffer for the synchronous sweep.
    next: Vec<f64>,
    /// Active-set FIFO.
    queue: VecDeque<u32>,
    /// Membership flags for `queue`.
    queued: Vec<bool>,
}

impl ControlScratch {
    /// An empty scratch (slabs grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the slabs to `n` slots, initializing new power entries to
    /// `start`. Existing entries are untouched (warm state).
    pub fn fit(&mut self, n: usize, start: f64) {
        if self.powers.len() < n {
            self.powers.resize(n, start);
        }
        if self.next.len() < n {
            self.next.resize(n, 0.0);
        }
        if self.queued.len() < n {
            self.queued.resize(n, false);
        }
    }

    /// Enqueues link `i` for the next [`relax`] call (idempotent).
    /// Seed the worklist with the field's dirty rows before a warm
    /// relaxation.
    pub fn mark(&mut self, i: u32) {
        let iu = i as usize;
        if iu >= self.queued.len() {
            self.queued.resize(iu + 1, false);
        }
        if !self.queued[iu] {
            self.queued[iu] = true;
            self.queue.push_back(i);
        }
    }

    /// Rows currently marked for the next warm relaxation. Zero after
    /// any [`relax`] call — it drains the worklist completely,
    /// whatever the verdict.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Converts a scratch-based verdict into the owning
    /// [`Feasibility`] (cloning the capped list).
    pub fn feasibility(&self, verdict: Verdict) -> Feasibility {
        match verdict {
            Verdict::Converged => Feasibility::Converged,
            Verdict::PowerCapped => Feasibility::PowerCapped {
                capped: self.capped.iter().map(|&i| i as usize).collect(),
            },
            Verdict::Diverging => Feasibility::Diverging,
        }
    }
}

/// One Foschini–Miljanic update for link `i` under `powers`: the
/// clamped, ladder-quantized power request.
#[inline]
fn fm_update(field: &SinrField, cfg: &ControlConfig, powers: &[f64], i: usize) -> f64 {
    let g = field.direct_gain(i);
    let desired = if g > 0.0 {
        cfg.target_sinr * field.interference(powers, i) / (field.budget().processing_gain * g)
    } else {
        // Dead direct path: no finite power serves the link.
        f64::INFINITY
    };
    let clamped = desired.clamp(cfg.min_power, cfg.max_power);
    cfg.ladder
        .quantize_up(clamped, cfg.min_power, cfg.max_power)
}

/// Classifies the fixed point in `scratch.powers`: fills
/// `scratch.sinrs` and `scratch.capped` and returns `Converged` or
/// `PowerCapped` (callers that ran out of budget override with
/// `Diverging`).
fn classify(field: &SinrField, cfg: &ControlConfig, scratch: &mut ControlScratch) -> Verdict {
    field.sinrs_into(&scratch.powers, &mut scratch.sinrs);
    let gamma = cfg.target_sinr;
    // Meeting the target "within tolerance": one more tolerance-sized
    // power step would clear it.
    let met = |sinr: f64| sinr >= gamma * (1.0 - 4.0 * cfg.tol);
    scratch.capped.clear();
    let mut all_met = true;
    for i in 0..field.len() {
        if !field.is_live(i) || met(scratch.sinrs[i]) {
            continue;
        }
        all_met = false;
        if scratch.powers[i] >= cfg.max_power * (1.0 - 1e-12) {
            scratch.capped.push(i as u32);
        }
    }
    if all_met {
        return Verdict::Converged;
    }
    if scratch.capped.is_empty() {
        // At a fixed point an unmet link is necessarily at the cap;
        // keep the classification robust anyway.
        for i in 0..field.len() {
            if field.is_live(i) && !met(scratch.sinrs[i]) {
                scratch.capped.push(i as u32);
            }
        }
    }
    Verdict::PowerCapped
}

/// The synchronous Foschini–Miljanic sweep into caller-owned scratch:
/// every live link updates from the previous iterate each round,
/// starting from the all-minimum vector. Allocation-free once
/// `scratch` is warm. Absent slots keep power `start_power` and
/// report SINR 0.
///
/// # Panics
/// Panics if `cfg` fails [`ControlConfig::validate`].
pub fn run_with(
    field: &SinrField,
    cfg: &ControlConfig,
    scratch: &mut ControlScratch,
) -> SweepReport {
    cfg.validate();
    let n = field.len();
    let start = cfg.start_power();
    scratch.fit(n, start);
    scratch.powers.iter_mut().for_each(|p| *p = start);
    let mut iterations = 0;
    let mut fixed_point = false;
    while iterations < cfg.max_iters {
        iterations += 1;
        let mut max_rel = 0.0f64;
        for i in 0..n {
            if !field.is_live(i) {
                scratch.next[i] = scratch.powers[i];
                continue;
            }
            let q = fm_update(field, cfg, &scratch.powers, i);
            max_rel = max_rel.max((q - scratch.powers[i]).abs() / scratch.powers[i]);
            scratch.next[i] = q;
        }
        std::mem::swap(&mut scratch.powers, &mut scratch.next);
        let done = match cfg.ladder {
            PowerLadder::Continuous => max_rel <= cfg.tol,
            // Discrete state space: stop only on the exact fixed point.
            PowerLadder::Geometric { .. } => max_rel == 0.0,
        };
        if done {
            fixed_point = true;
            break;
        }
    }
    let verdict = classify(field, cfg, scratch);
    SweepReport {
        iterations,
        verdict: if fixed_point {
            verdict
        } else {
            Verdict::Diverging
        },
    }
}

/// The active-set (asynchronous) Foschini–Miljanic relaxation: a FIFO
/// worklist of links whose interference changed since their last
/// update, instead of sweeping all N links per round. Allocation-free
/// once `scratch` is warm. This is the solver behind every
/// [`crate::PowerSession::settle`].
///
/// * `warm == false`: resets every power to the start rung and
///   enqueues every live link — the event-driven equivalent of
///   [`run_with`] from cold. On a continuous ladder both converge to
///   the same (unique) fixed point within tolerance; on a discrete
///   ladder both climb to the exact least fixed point.
/// * `warm == true`: keeps `scratch.powers` (the previous
///   equilibrium) and relaxes only from the links already marked via
///   [`ControlScratch::mark`] — seed it with the field's dirty rows
///   ([`SinrField::take_dirty`]). Sound for **continuous** ladders
///   (unique fixed point, convergence from any start); a discrete
///   warm start above the least fixed point would stay there, so
///   discrete sessions restart cold instead.
///
/// A link whose recomputed power moves by more than `cfg.tol`
/// (relative; any change at all on discrete ladders) writes the new
/// power and enqueues exactly the links that hear it — the transposed
/// interferer index answers that in O(row). The update budget is
/// `cfg.max_iters × live links`; exhausting it drains the queue and
/// reports [`Verdict::Diverging`].
///
/// # Panics
/// Panics if `cfg` fails [`ControlConfig::validate`].
pub fn relax(
    field: &SinrField,
    cfg: &ControlConfig,
    scratch: &mut ControlScratch,
    warm: bool,
) -> RelaxReport {
    cfg.validate();
    let n = field.len();
    let start = cfg.start_power();
    scratch.fit(n, start);
    if !warm {
        scratch.powers.iter_mut().for_each(|p| *p = start);
        for i in scratch.queue.drain(..) {
            scratch.queued[i as usize] = false;
        }
        for i in 0..n {
            if field.is_live(i) {
                scratch.queued[i] = true;
                scratch.queue.push_back(i as u32);
            }
        }
    }
    let max_updates = (cfg.max_iters as u64) * (field.live_links().max(1) as u64);
    let mut updates: u64 = 0;
    let mut exhausted = false;
    while let Some(i) = scratch.queue.pop_front() {
        let iu = i as usize;
        scratch.queued[iu] = false;
        if !field.is_live(iu) {
            continue;
        }
        let p = scratch.powers[iu];
        let q = fm_update(field, cfg, &scratch.powers, iu);
        let changed = match cfg.ladder {
            PowerLadder::Continuous => (q - p).abs() / p > cfg.tol,
            PowerLadder::Geometric { .. } => q != p,
        };
        if !changed {
            continue;
        }
        scratch.powers[iu] = q;
        updates += 1;
        if updates >= max_updates && !scratch.queue.is_empty() {
            // Budget exhausted mid-flight: drain the worklist so the
            // scratch is clean for the next (cold) attempt.
            for k in scratch.queue.drain(..) {
                scratch.queued[k as usize] = false;
            }
            exhausted = true;
            break;
        }
        // A power change perturbs interference exactly at the rows
        // that hear `i`.
        for &k in field.hearers(iu) {
            let ku = k as usize;
            if !scratch.queued[ku] && field.is_live(ku) {
                scratch.queued[ku] = true;
                scratch.queue.push_back(k);
            }
        }
    }
    let verdict = classify(field, cfg, scratch);
    RelaxReport {
        updates,
        verdict: if exhausted {
            Verdict::Diverging
        } else {
            verdict
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::GainModel;
    use crate::sinr::LinkBudget;
    use minim_geom::Point;

    fn field_of(coords: &[(f64, f64)], receiver: &[u32]) -> SinrField {
        let positions: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        SinrField::build(
            &GainModel::terrain(),
            LinkBudget::cdma64(),
            &positions,
            receiver,
            None,
            0.0,
        )
    }

    /// A cold synchronous sweep into a fresh scratch.
    fn sweep(field: &SinrField, cfg: &ControlConfig) -> (SweepReport, ControlScratch) {
        let mut scratch = ControlScratch::new();
        let report = run_with(field, cfg, &mut scratch);
        (report, scratch)
    }

    /// Two well-separated pairs: feasible; the loop must converge with
    /// every SINR at the target (within tolerance), powers strictly
    /// inside the cap.
    #[test]
    fn feasible_instance_converges_to_target() {
        let field = field_of(
            &[(0.0, 0.0), (8.0, 0.0), (300.0, 0.0), (308.0, 0.0)],
            &[1, 0, 3, 2],
        );
        let cfg = ControlConfig::new(4.0, 1e-3, 1e6);
        let (report, out) = sweep(&field, &cfg);
        assert_eq!(report.verdict, Verdict::Converged);
        assert!(report.iterations < cfg.max_iters);
        for (i, &s) in out.sinrs.iter().enumerate() {
            assert!(
                (s / 4.0 - 1.0).abs() < 1e-3,
                "link {i} SINR {s} should sit at the target"
            );
            assert!(out.powers[i] < cfg.max_power);
        }
    }

    /// Monotone convergence from below: every synchronous iterate
    /// dominates the previous one, and the final vector dominates
    /// them all — the standard-interference-function signature.
    #[test]
    fn iterates_are_monotone_from_min_power() {
        let field = field_of(
            &[(0.0, 0.0), (6.0, 0.0), (14.0, 0.0), (20.0, 0.0)],
            &[1, 0, 3, 2],
        );
        let cfg = ControlConfig::new(6.0, 1e-3, 1e6);
        // Re-run the loop manually, capturing iterates.
        let mut powers = vec![cfg.min_power; field.len()];
        for _ in 0..60 {
            let prev = powers.clone();
            for (i, p) in powers.iter_mut().enumerate() {
                let desired = cfg.target_sinr * field.interference(&prev, i)
                    / (field.budget().processing_gain * field.direct_gain(i));
                *p = desired.clamp(cfg.min_power, cfg.max_power);
            }
            for (i, (now, before)) in powers.iter().zip(&prev).enumerate() {
                assert!(
                    now >= &(before - 1e-15),
                    "iterate must not decrease: link {i}"
                );
            }
        }
        let (report, out) = sweep(&field, &cfg);
        assert_eq!(report.verdict, Verdict::Converged);
        for (ran, manual) in out.powers.iter().zip(&powers) {
            // Both converge from below to the same fixed point; the
            // tolerance-stopped run and the 60-iteration prefix agree
            // to well within the convergence slack.
            let rel = (ran - manual).abs() / manual;
            assert!(rel < 1e-3, "same fixed point, got rel diff {rel}");
        }
    }

    /// An overloaded near-far cell: many co-located transmitters
    /// shouting at one receiver point can never all make a high
    /// target under a finite cap — the loop must *detect* that, not
    /// spin.
    #[test]
    fn overloaded_near_far_is_power_capped() {
        // 6 transmitters in a tight clump all aiming at node 0: the
        // aggregate interference at the shared receiver scales with
        // every power simultaneously, so γ = 16 (> L/5) is hopeless.
        let mut coords = vec![(0.0, 0.0)];
        for k in 0..6 {
            coords.push((10.0 + 0.1 * k as f64, 0.0));
        }
        let receiver: Vec<u32> = std::iter::once(1)
            .chain(std::iter::repeat_n(0, 6))
            .collect();
        let field = field_of(&coords, &receiver);
        let cfg = ControlConfig::new(16.0, 1e-3, 1e4);
        let (report, out) = sweep(&field, &cfg);
        assert_eq!(report.verdict, Verdict::PowerCapped);
        let Feasibility::PowerCapped { capped } = out.feasibility(report.verdict) else {
            unreachable!("PowerCapped verdict");
        };
        assert!(!capped.is_empty());
        for i in capped {
            assert!(out.powers[i] >= cfg.max_power * (1.0 - 1e-9));
            assert!(out.sinrs[i] < 16.0);
        }
    }

    /// Tight budget on a feasible-but-slow instance reports
    /// `Diverging` instead of a wrong verdict.
    #[test]
    fn exhausted_budget_reports_diverging() {
        let field = field_of(
            &[(0.0, 0.0), (6.0, 0.0), (9.0, 0.0), (15.0, 0.0)],
            &[1, 0, 3, 2],
        );
        let mut cfg = ControlConfig::new(8.0, 1e-3, 1e6);
        cfg.max_iters = 2;
        let (report, _) = sweep(&field, &cfg);
        assert_eq!(report.verdict, Verdict::Diverging);
        assert_eq!(report.iterations, 2);
    }

    /// Discrete ladders reach an exact fixed point whose powers are
    /// ladder rungs, and ceiling quantization never lands below the
    /// continuous solution.
    #[test]
    fn discrete_ladder_fixed_point_on_rungs() {
        let field = field_of(
            &[(0.0, 0.0), (7.0, 0.0), (40.0, 3.0), (46.0, 3.0)],
            &[1, 0, 3, 2],
        );
        let mut cfg = ControlConfig::new(4.0, 1e-3, 1e5);
        let (_, cont) = sweep(&field, &cfg);
        cfg.ladder = PowerLadder::Geometric { levels: 24 };
        let (report, disc) = sweep(&field, &cfg);
        assert_eq!(report.verdict, Verdict::Converged);
        let rungs = cfg.ladder.levels(cfg.min_power, cfg.max_power);
        for (i, &p) in disc.powers.iter().enumerate() {
            assert!(
                rungs.iter().any(|&r| (r - p).abs() < 1e-9 * r),
                "power {p} of link {i} is not a rung"
            );
            assert!(
                p >= cont.powers[i] * (1.0 - 1e-9),
                "ceiling quantization stays above the continuous solution"
            );
            assert!(disc.sinrs[i] >= 4.0 * (1.0 - 1e-3), "target still met");
        }
        // Fixed point: one more run from the discrete solution is a
        // no-op (run_with restarts from min power and must land on the
        // same rungs — the fixed point is unique from below).
        let (_, again) = sweep(&field, &cfg);
        assert_eq!(again.powers, disc.powers);
    }

    #[test]
    fn quantize_up_is_monotone_and_idempotent() {
        let ladder = PowerLadder::Geometric { levels: 10 };
        let (lo, hi) = (1e-3, 1e3);
        let rungs = ladder.levels(lo, hi);
        assert_eq!(rungs.len(), 10);
        assert!((rungs[0] - lo).abs() < 1e-12);
        assert!((rungs[9] - hi).abs() < 1e-9);
        let mut prev = 0.0;
        for k in 0..200 {
            let p = lo * ((k as f64 / 199.0) * (hi / lo).ln()).exp();
            let q = ladder.quantize_up(p, lo, hi);
            assert!(q + 1e-15 >= p, "never rounds down");
            assert!(q + 1e-15 >= prev, "monotone");
            assert!(
                (ladder.quantize_up(q, lo, hi) - q).abs() < 1e-12 * q,
                "idempotent"
            );
            prev = q;
        }
    }

    #[test]
    fn isolated_link_saturates_at_cap() {
        // A single node with no receiver: dead direct path, power
        // pinned at the cap and reported infeasible.
        let field = field_of(&[(0.0, 0.0)], &[0]);
        let (report, out) = sweep(&field, &ControlConfig::new(4.0, 1e-3, 10.0));
        assert_eq!(
            out.feasibility(report.verdict),
            Feasibility::PowerCapped { capped: vec![0] }
        );
        assert_eq!(out.powers, vec![10.0]);
    }

    /// Cold active-set relaxation lands on the sweep's fixed point —
    /// same powers (within tolerance), same verdict, same capped set —
    /// and both repeat exactly on a reused scratch.
    #[test]
    fn cold_relax_matches_sync_sweep_continuous() {
        let field = field_of(
            &[
                (0.0, 0.0),
                (8.0, 0.0),
                (60.0, 5.0),
                (66.0, 5.0),
                (30.0, -20.0),
                (36.0, -20.0),
            ],
            &[1, 0, 3, 2, 5, 4],
        );
        let cfg = ControlConfig::new(4.0, 1e-3, 1e6);
        let (sweep_report, mut swept) = sweep(&field, &cfg);
        let mut scratch = ControlScratch::new();
        let report = relax(&field, &cfg, &mut scratch, false);
        assert_eq!(report.verdict, sweep_report.verdict);
        assert_eq!(scratch.capped, swept.capped);
        for (i, (&a, &s)) in scratch.powers.iter().zip(&swept.powers).enumerate() {
            let rel = (a - s).abs() / s;
            assert!(rel < 5e-3, "link {i}: relax {a} vs sweep {s} (rel {rel})");
        }
        assert!(report.updates > 0);
        // Cold runs on a reused scratch repeat exactly: same iteration
        // and update counts, same powers.
        let powers = swept.powers.clone();
        assert_eq!(run_with(&field, &cfg, &mut swept), sweep_report);
        assert_eq!(swept.powers, powers);
        let powers = scratch.powers.clone();
        assert_eq!(relax(&field, &cfg, &mut scratch, false), report);
        assert_eq!(scratch.powers, powers);
    }

    /// On a discrete ladder the relaxation climbs to the *exact* least
    /// fixed point the sweep finds — bitwise equal rungs.
    #[test]
    fn cold_relax_matches_sync_sweep_geometric_exactly() {
        let field = field_of(
            &[(0.0, 0.0), (7.0, 0.0), (40.0, 3.0), (46.0, 3.0)],
            &[1, 0, 3, 2],
        );
        let mut cfg = ControlConfig::new(4.0, 1e-3, 1e5);
        cfg.ladder = PowerLadder::Geometric { levels: 24 };
        let (sweep_report, swept) = sweep(&field, &cfg);
        let mut scratch = ControlScratch::new();
        let report = relax(&field, &cfg, &mut scratch, false);
        assert_eq!(scratch.powers, swept.powers, "exact rung-for-rung match");
        assert_eq!(report.verdict, sweep_report.verdict);
        assert_eq!(scratch.capped, swept.capped);
    }

    /// A warm restart at equilibrium with an empty worklist is a no-op:
    /// zero updates, verdict unchanged.
    #[test]
    fn warm_restart_at_equilibrium_is_a_no_op() {
        let field = field_of(
            &[(0.0, 0.0), (8.0, 0.0), (300.0, 0.0), (308.0, 0.0)],
            &[1, 0, 3, 2],
        );
        let cfg = ControlConfig::new(4.0, 1e-3, 1e6);
        let mut scratch = ControlScratch::new();
        relax(&field, &cfg, &mut scratch, false);
        let report = relax(&field, &cfg, &mut scratch, true);
        assert_eq!(report.updates, 0);
        assert_eq!(report.verdict, Verdict::Converged);
        // Marking every link at equilibrium still changes nothing.
        for i in 0..field.len() as u32 {
            scratch.mark(i);
        }
        let report = relax(&field, &cfg, &mut scratch, true);
        assert_eq!(report.updates, 0, "equilibrium is a fixed point");
    }

    /// Overloaded instance under relaxation: the budget trips and the
    /// verdict is Diverging (continuous loops approach the infeasible
    /// fixed point asymptotically) or PowerCapped — never Converged.
    #[test]
    fn relax_never_calls_an_overload_feasible() {
        let mut coords = vec![(0.0, 0.0)];
        for k in 0..6 {
            coords.push((10.0 + 0.1 * k as f64, 0.0));
        }
        let receiver: Vec<u32> = std::iter::once(1)
            .chain(std::iter::repeat_n(0, 6))
            .collect();
        let field = field_of(&coords, &receiver);
        let cfg = ControlConfig::new(16.0, 1e-3, 1e4);
        let mut scratch = ControlScratch::new();
        let report = relax(&field, &cfg, &mut scratch, false);
        assert_ne!(report.verdict, Verdict::Converged);
    }
}
