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
//! iteration converges from any starting point and in any update
//! order (Yates' framework covers totally asynchronous updates). The
//! one solver here, [`relax`], is that iteration run
//! **asynchronously**: an active-set worklist that only re-updates
//! links whose interference actually changed. Started cold from the
//! minimum power it climbs monotonically to the fixed point; started
//! warm it re-relaxes from the previous equilibrium.
//! [`crate::PowerLoop`] runs it cold, [`crate::PowerSession`] warm.
//!
//! Real handsets cannot emit arbitrary powers: [`PowerLadder`]
//! optionally quantizes every update **up** to the next discrete
//! level (ceiling quantization keeps the iteration standard and makes
//! the state space finite, so discrete runs reach an exact fixed
//! point). On a discrete ladder the quantized update map is monotone
//! on a finite lattice: any update order started from the all-minimum
//! vector climbs to the **least** fixed point, so a cold relaxation
//! lands on it exactly — but a warm start above that fixed point need
//! not descend to it, which is why warm restarts are a
//! continuous-ladder tool (see [`relax`]).
//!
//! Feasibility is read off the fixed point as a [`Verdict`]: if every
//! link meets its target the instance is [`Verdict::Converged`]; if
//! some links sit at the power cap below target the instance is
//! overloaded ([`Verdict::PowerCapped`], the textbook near-far
//! outcome, with the links in [`ControlScratch::capped`]); if the
//! update budget runs out before the fixed point the instance is
//! [`Verdict::Diverging`].

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
    /// Iteration budget in sweep *equivalents*: [`relax`] may write
    /// `max_iters × live links` single-link updates. Exhausting it is
    /// [`Verdict::Diverging`].
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

    /// Checks the configuration is runnable, naming the first bad
    /// knob: a non-positive target, a power interval that is empty,
    /// inverted or not finite, a degenerate ladder, a non-positive
    /// tolerance, or a zero iteration budget.
    pub fn check(&self) -> Result<(), String> {
        if !(self.target_sinr.is_finite() && self.target_sinr > 0.0) {
            return Err(format!(
                "target_sinr must be positive, got {:?}",
                self.target_sinr
            ));
        }
        if !(self.min_power > 0.0 && self.min_power <= self.max_power && self.max_power.is_finite())
        {
            return Err(format!(
                "need finite 0 < min_power <= max_power, got [{:?}, {:?}]",
                self.min_power, self.max_power
            ));
        }
        if matches!(self.ladder, PowerLadder::Geometric { levels } if levels < 2) {
            return Err("a discrete ladder needs >= 2 levels".into());
        }
        if self.tol.is_nan() || self.tol <= 0.0 {
            return Err("tol must be positive".into());
        }
        if self.max_iters == 0 {
            return Err("need an iteration budget".into());
        }
        Ok(())
    }
}

/// How a control-loop run ended. The capped links of a
/// [`Verdict::PowerCapped`] run live in [`ControlScratch::capped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fixed point with every live link at or above target: the
    /// instance is feasible and the powers are (within tolerance /
    /// quantization) the minimal vector serving it.
    Converged,
    /// Fixed point with links pinned at `max_power` below target: the
    /// instance is overloaded (the near-far outcome); everyone else
    /// still meets target *given* the capped powers.
    PowerCapped,
    /// The update budget ran out before a fixed point (continuous
    /// loops approach infeasible fixed points asymptotically; this is
    /// the in-budget divergence signal).
    Diverging,
}

/// Report of one [`relax`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelaxReport {
    /// Single-link power writes performed (the active-set analogue of
    /// sweeps × links; the whole point is that this stays small when
    /// little changed).
    pub updates: u64,
    /// Single-link Foschini–Miljanic evaluations (one interference row
    /// each), whether or not they wrote.
    pub evaluations: u64,
    /// How the run ended.
    pub verdict: Verdict,
}

/// Reusable control-loop state: the power slab, the active-set
/// worklist, the written-link flags, and the capped-link list. Create
/// once, feed to [`relax`] forever — steady-state runs allocate
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
    /// Live links pinned at the cap below target as of the last
    /// classification, ascending.
    pub capped: Vec<u32>,
    /// Active-set FIFO.
    queue: VecDeque<u32>,
    /// Membership flags for `queue`.
    queued: Vec<bool>,
    /// Links whose power [`relax`] wrote since their flag was last
    /// taken (`take_written`).
    written: Vec<bool>,
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
        if self.queued.len() < n {
            self.queued.resize(n, false);
        }
        if self.written.len() < n {
            self.written.resize(n, false);
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

    /// Whether [`relax`] wrote link `i`'s power since the flag was last
    /// taken, clearing the flag. A warm [`crate::PowerSession::settle`]
    /// lowers only such links (plus those whose range the network
    /// changed): every other link kept the power it was lowered at.
    pub(crate) fn take_written(&mut self, i: usize) -> bool {
        self.written.get_mut(i).is_some_and(std::mem::take)
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

/// Smallest `tol` at which a drained [`relax`] classifies only the
/// links near the cap. That shortcut has a margin of `3·tol` (relative)
/// between what the fixed point guarantees and the "met" rule, while
/// the SINR and the update it is checked against differ by a few ulps;
/// below this bound the full classification runs instead.
const CAP_SCREEN_MIN_TOL: f64 = 1e-12;

/// Classifies the fixed point in `powers` into `capped` and returns
/// `Converged` or `PowerCapped` (callers that ran out of budget
/// override with `Diverging`). Only live links with power at least
/// `floor` are examined; every other live link must be known to meet
/// its target.
fn classify(
    field: &SinrField,
    cfg: &ControlConfig,
    powers: &[f64],
    floor: f64,
    capped: &mut Vec<u32>,
) -> Verdict {
    let gamma = cfg.target_sinr;
    // Meeting the target "within tolerance": one more tolerance-sized
    // power step would clear it.
    let met = |sinr: f64| sinr >= gamma * (1.0 - 4.0 * cfg.tol);
    let unmet = |i: usize, p: f64| p >= floor && field.is_live(i) && !met(field.sinr(powers, i));
    let powers = &powers[..field.len()];
    capped.clear();
    let mut all_met = true;
    for (i, &p) in powers.iter().enumerate() {
        if !unmet(i, p) {
            continue;
        }
        all_met = false;
        if p >= cfg.max_power * (1.0 - 1e-12) {
            capped.push(i as u32);
        }
    }
    if all_met {
        return Verdict::Converged;
    }
    if capped.is_empty() {
        // At a fixed point an unmet link is necessarily at the cap;
        // keep the classification robust anyway.
        capped.extend(
            powers
                .iter()
                .enumerate()
                .filter(|&(i, &p)| unmet(i, p))
                .map(|(i, _)| i as u32),
        );
    }
    Verdict::PowerCapped
}

/// The active-set (asynchronous) Foschini–Miljanic relaxation: a FIFO
/// worklist of links whose interference changed since their last
/// update, instead of sweeping all N links per round. Allocation-free
/// once `scratch` is warm. This is the solver behind every
/// [`crate::PowerLoop::run`] and [`crate::PowerSession::settle`].
///
/// * `warm == false`: resets every power to the start rung and
///   enqueues every live link. On a continuous ladder it converges to
///   the unique fixed point within tolerance; on a discrete ladder it
///   climbs to the exact least fixed point, as every update order
///   from the all-minimum vector does.
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
/// reports [`Verdict::Diverging`]. Every write also flags the link for
/// the session's lowering.
///
/// **Classification at the cap.** When the worklist drains within
/// budget, every live link was evaluated after the last change to its
/// inputs (a warm call trusts that unmarked links already were — the
/// same premise that makes its result a fixed point). So each link's
/// update `q` is within `tol·p` of its power `p` (equal to it on a
/// geometric ladder). Below `max_power·(1 − 4·tol)` the update is
/// under the cap, so it is the unclamped request `γ·I/(L·g)` or more,
/// and the SINR `L·g·p/I` is at least `γ/(1 + tol)` (at least `γ` on a
/// geometric ladder) — clear of the `γ(1 − 4·tol)` "met" rule by
/// `3·tol`. Only links at or above that power can be unmet or capped,
/// so only their SINRs are computed; the verdict and
/// [`ControlScratch::capped`] equal a full classification. An
/// exhausted budget (or a `tol` too small for the margin to beat
/// rounding) classifies every link.
///
/// # Panics
/// Panics if `cfg` fails [`ControlConfig::check`].
pub fn relax(
    field: &SinrField,
    cfg: &ControlConfig,
    scratch: &mut ControlScratch,
    warm: bool,
) -> RelaxReport {
    cfg.check().unwrap_or_else(|e| panic!("{e}"));
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
    let mut evaluations: u64 = 0;
    let mut exhausted = false;
    while let Some(i) = scratch.queue.pop_front() {
        let iu = i as usize;
        scratch.queued[iu] = false;
        if !field.is_live(iu) {
            continue;
        }
        let p = scratch.powers[iu];
        let q = fm_update(field, cfg, &scratch.powers, iu);
        evaluations += 1;
        let changed = match cfg.ladder {
            PowerLadder::Continuous => (q - p).abs() / p > cfg.tol,
            PowerLadder::Geometric { .. } => q != p,
        };
        if !changed {
            continue;
        }
        scratch.powers[iu] = q;
        scratch.written[iu] = true;
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
        // that hear `i`. Those are live: absent slots and dead links
        // have empty rows.
        for &k in field.hearers(iu) {
            let ku = k as usize;
            debug_assert!(field.is_live(ku), "hearer {k} of {i} is not live");
            if !scratch.queued[ku] {
                scratch.queued[ku] = true;
                scratch.queue.push_back(k);
            }
        }
    }
    let floor = if exhausted || cfg.tol < CAP_SCREEN_MIN_TOL {
        f64::NEG_INFINITY
    } else {
        cfg.max_power * (1.0 - 4.0 * cfg.tol)
    };
    let verdict = classify(field, cfg, &scratch.powers, floor, &mut scratch.capped);
    RelaxReport {
        updates,
        evaluations,
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

    /// A cold relaxation into a fresh scratch.
    fn cold(field: &SinrField, cfg: &ControlConfig) -> (RelaxReport, ControlScratch) {
        let mut scratch = ControlScratch::new();
        let report = relax(field, cfg, &mut scratch, false);
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
        let (report, out) = cold(&field, &cfg);
        assert_eq!(report.verdict, Verdict::Converged);
        assert!(out.capped.is_empty());
        for (i, s) in field.sinrs(&out.powers).into_iter().enumerate() {
            assert!(
                (s / 4.0 - 1.0).abs() < 1e-3,
                "link {i} SINR {s} should sit at the target"
            );
            assert!(out.powers[i] < cfg.max_power);
        }
    }

    /// Monotone convergence from below: every synchronous iterate
    /// dominates the previous one (the standard-interference-function
    /// signature), and the relaxation lands on the point those
    /// iterates approach.
    #[test]
    fn iterates_are_monotone_from_min_power() {
        let field = field_of(
            &[(0.0, 0.0), (6.0, 0.0), (14.0, 0.0), (20.0, 0.0)],
            &[1, 0, 3, 2],
        );
        let cfg = ControlConfig::new(6.0, 1e-3, 1e6);
        // Run the synchronous iteration manually, capturing iterates.
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
        let (report, out) = cold(&field, &cfg);
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
        let (report, out) = cold(&field, &cfg);
        assert_eq!(report.verdict, Verdict::PowerCapped);
        assert!(!out.capped.is_empty());
        for &i in &out.capped {
            let i = i as usize;
            assert!(out.powers[i] >= cfg.max_power * (1.0 - 1e-9));
            assert!(field.sinr(&out.powers, i) < 16.0);
        }
    }

    /// Tight budget on a feasible-but-slow instance reports
    /// `Diverging` instead of a wrong verdict, after exactly the
    /// budgeted number of writes.
    #[test]
    fn exhausted_budget_reports_diverging() {
        let field = field_of(
            &[(0.0, 0.0), (6.0, 0.0), (9.0, 0.0), (15.0, 0.0)],
            &[1, 0, 3, 2],
        );
        let mut cfg = ControlConfig::new(8.0, 1e-3, 1e6);
        cfg.max_iters = 2;
        let (report, out) = cold(&field, &cfg);
        assert_eq!(report.verdict, Verdict::Diverging);
        assert_eq!(report.updates, 2 * 4, "budget = max_iters × live links");
        assert_eq!(out.pending(), 0, "an exhausted run drains its worklist");
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
        let (_, cont) = cold(&field, &cfg);
        cfg.ladder = PowerLadder::Geometric { levels: 24 };
        let (report, disc) = cold(&field, &cfg);
        assert_eq!(report.verdict, Verdict::Converged);
        let rungs = cfg.ladder.levels(cfg.min_power, cfg.max_power);
        let sinrs = field.sinrs(&disc.powers);
        for (i, &p) in disc.powers.iter().enumerate() {
            assert!(
                rungs.iter().any(|&r| (r - p).abs() < 1e-9 * r),
                "power {p} of link {i} is not a rung"
            );
            assert!(
                p >= cont.powers[i] * (1.0 - 1e-9),
                "ceiling quantization stays above the continuous solution"
            );
            assert!(sinrs[i] >= 4.0 * (1.0 - 1e-3), "target still met");
        }
        // Exact fixed point: marking every link and relaxing warm from
        // the discrete solution writes nothing.
        let mut again = disc.clone();
        for i in 0..field.len() as u32 {
            again.mark(i);
        }
        assert_eq!(relax(&field, &cfg, &mut again, true).updates, 0);
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
        let (report, out) = cold(&field, &ControlConfig::new(4.0, 1e-3, 10.0));
        assert_eq!(report.verdict, Verdict::PowerCapped);
        assert_eq!(out.capped, vec![0]);
        assert_eq!(out.powers, vec![10.0]);
    }

    /// Cold relaxation on a reused scratch repeats exactly: same
    /// update and evaluation counts, same verdict, same power bits.
    #[test]
    fn cold_relax_repeats_exactly_on_a_reused_scratch() {
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
        let (report, mut scratch) = cold(&field, &cfg);
        assert_eq!(report.verdict, Verdict::Converged);
        assert!(report.updates > 0);
        let powers = scratch.powers.clone();
        assert_eq!(relax(&field, &cfg, &mut scratch, false), report);
        assert_eq!(scratch.powers, powers);
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

    /// A link parked just under the cap — within `tol` of its clamped
    /// request, so relax does not rewrite it — that wants more power is
    /// unmet; the drained-run screen must still classify it, here
    /// through the capped fallback (no link sits exactly at the cap).
    #[test]
    fn drained_relax_classifies_a_link_parked_just_below_the_cap() {
        // Link 2 is dead (aims at itself): its request is unbounded.
        let field = field_of(&[(0.0, 0.0), (8.0, 0.0), (300.0, 0.0)], &[1, 0, 2]);
        let cfg = ControlConfig::new(4.0, 1e-3, 1e6);
        let mut scratch = ControlScratch::new();
        relax(&field, &cfg, &mut scratch, false);
        assert_eq!(scratch.capped, vec![2]);
        scratch.powers[2] = cfg.max_power * (1.0 - 0.5 * cfg.tol);
        for i in 0..3 {
            scratch.mark(i);
        }
        let report = relax(&field, &cfg, &mut scratch, true);
        assert_eq!(report.evaluations, 3);
        assert_eq!(report.updates, 0, "every link is within tol of its request");
        assert_eq!(report.verdict, Verdict::PowerCapped);
        assert_eq!(scratch.capped, vec![2]);
    }
}
