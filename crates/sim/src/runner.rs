//! Scenario runners: apply generated event sequences to a strategy and
//! accumulate the paper's two metrics.
//!
//! Every event goes through [`minim_core::run_event`], which yields
//! the event's recoding; the network's [`Network::delta`] holds its
//! [`minim_net::TopologyDelta`].
//! [`ValidationMode::Delta`] checks CA1/CA2 after each event with
//! `conflict::validate_delta` on just the delta's affected
//! neighborhood, `O(Δ)` per event.

use minim_core::{run_event, RecodingStrategy, Writes};
use minim_net::event::{apply_topology, Event};
use minim_net::workload::MovementWorkload;
use minim_net::Network;
use rand::Rng;

pub use minim_core::ValidationMode;

/// Accumulated §5 metrics for one phase of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Total recodings performed during the phase.
    pub recodings: usize,
    /// Maximum color index assigned at phase end.
    pub max_color: u32,
    /// Total digraph edge insertions + removals over the phase — the
    /// summed per-event `Δ`, read off the topology deltas.
    pub edge_churn: usize,
}

/// Applies `events` in order with `strategy`, returning the phase
/// metrics. Panics if any event leaves the network invalid (checked
/// in debug builds only; see [`ValidationMode::Off`]).
pub fn run_events(
    strategy: &mut dyn RecodingStrategy,
    net: &mut Network,
    events: &[Event],
) -> PhaseMetrics {
    run_events_validated(strategy, net, events, ValidationMode::Off)
}

/// [`run_events`] with per-event CA1/CA2 checking in the chosen
/// [`ValidationMode`].
///
/// # Panics
/// Panics on the first event that fails its check or whose aftermath
/// violates CA1/CA2.
pub fn run_events_validated(
    strategy: &mut dyn RecodingStrategy,
    net: &mut Network,
    events: &[Event],
    mode: ValidationMode,
) -> PhaseMetrics {
    let mut recodings = 0;
    let mut edge_churn = 0;
    for e in events {
        if mode == ValidationMode::Delta {
            minim_obs::counter!("sim.validate.delta", 1);
        }
        match run_event(net, e, None, Writes::Plan(&*strategy), mode) {
            Ok(done) => {
                recodings += done.outcome.recodings();
                edge_churn += net.delta().edge_churn();
            }
            Err(err) => panic!("{}: {err}", strategy.name()),
        }
    }
    PhaseMetrics {
        recodings,
        max_color: net.max_color_index(),
        edge_churn,
    }
}

/// Pre-generates `rounds` rounds of §5.3 movement events.
///
/// Positions evolve identically for every strategy (recoding never
/// moves nodes), so the rounds are simulated once on a colorless
/// *ghost* network and the same event lists are replayed against each
/// strategy — this keeps the comparison paired (identical randomness
/// per strategy), which is how the paper can plot Δ-metrics across
/// strategies for "the same" mobility.
pub fn pregenerate_movement_rounds<R: Rng + ?Sized>(
    base: &Network,
    workload: &MovementWorkload,
    rounds: usize,
    rng: &mut R,
) -> Vec<Vec<Event>> {
    let mut ghost = base.clone();
    let mut out = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let events = workload.generate_round(&ghost, rng);
        for e in &events {
            apply_topology(&mut ghost, e);
        }
        out.push(events);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_core::{Minim, StrategyKind};
    use minim_net::workload::JoinWorkload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn run_events_counts_recodings() {
        let mut rng = StdRng::seed_from_u64(1);
        let events = JoinWorkload::paper(20).generate(&mut rng);
        let mut net = Network::new(25.0);
        let mut strategy = Minim::default();
        let metrics = run_events(&mut strategy, &mut net, &events);
        // Every join recodes at least the joiner.
        assert!(metrics.recodings >= 20);
        assert!(metrics.max_color >= 1);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn validated_modes_agree_and_count_churn() {
        for kind in StrategyKind::ALL {
            let mut rng = StdRng::seed_from_u64(9);
            let events = JoinWorkload::paper(30).generate(&mut rng);
            let mut results = Vec::new();
            for mode in [ValidationMode::Off, ValidationMode::Delta] {
                let mut net = Network::new(25.0);
                let mut s = kind.build();
                let m = run_events_validated(&mut *s, &mut net, &events, mode);
                assert!(m.edge_churn > 0, "joins wire edges");
                results.push(m);
            }
            assert_eq!(results[0], results[1], "{:?} delta mode", kind);
        }
    }

    #[test]
    #[should_panic(expected = "CA1/CA2 violation")]
    fn delta_validation_catches_a_sabotaged_strategy() {
        /// A strategy that never colors anyone — every join leaves the
        /// joiner uncolored, which local validation must flag.
        struct Sloppy;
        impl minim_core::RecodingStrategy for Sloppy {
            fn name(&self) -> &'static str {
                "sloppy"
            }
            fn plan_batched(
                &self,
                _net: &Network,
                _applied: &minim_net::event::AppliedEvent,
                _delta: &minim_net::TopologyDelta,
            ) -> minim_core::ColorPlan {
                Vec::new()
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        let events = JoinWorkload::paper(5).generate(&mut rng);
        let mut net = Network::new(25.0);
        run_events_validated(&mut Sloppy, &mut net, &events, ValidationMode::Delta);
    }

    #[test]
    fn movement_rounds_replay_identically_across_strategies() {
        let mut rng = StdRng::seed_from_u64(2);
        let join_events = JoinWorkload::paper(15).generate(&mut rng);
        let mut base = Network::new(25.0);
        let mut m = Minim::default();
        for e in &join_events {
            m.apply(&mut base, &e.clone());
        }
        let w = MovementWorkload::paper(30.0, 1);
        let rounds = pregenerate_movement_rounds(&base, &w, 3, &mut rng);
        assert_eq!(rounds.len(), 3);
        for r in &rounds {
            assert_eq!(r.len(), 15, "every node moves once per round");
        }

        // Replaying the same rounds against two strategies leaves both
        // networks with identical topology.
        let mut nets = Vec::new();
        for kind in [StrategyKind::Minim, StrategyKind::Cp] {
            let mut net = base.clone();
            let mut s = kind.build();
            for round in &rounds {
                run_events(&mut *s, &mut net, round);
            }
            assert!(net.validate().is_ok());
            nets.push(net);
        }
        let a = &nets[0];
        let b = &nets[1];
        for id in a.node_ids() {
            assert_eq!(a.config(id).unwrap().pos, b.config(id).unwrap().pos);
        }
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    }
}
