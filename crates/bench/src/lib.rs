//! Shared scenario builders for the Criterion benches and the `repro`
//! binary.
//!
//! Bench targets (one per evaluation artifact, see DESIGN.md §4):
//!
//! | Bench | Measures |
//! |---|---|
//! | `matching` | the recode planner's Hungarian kernel on join-sized instances |
//! | `coloring` | the global heuristics on conflict graphs of §5 networks |
//! | `strategies` | per-event recode latency (join/move/power) per strategy |
//! | `figures` | one full replicate of each figure workload (Fig 10/11/12) |
//! | `ablations` | keep-weight and CP color-pick ablation workloads |
//!
//! The `repro` binary (`cargo run --release -p minim-bench --bin repro`)
//! regenerates the *data* of every figure (series means over replicates)
//! and writes CSVs under `results/`.

use minim_core::{Minim, RecodingStrategy, StrategyKind};
use minim_net::event::Event;
use minim_net::workload::JoinWorkload;
use minim_net::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates the §5.1 join event list for `n` nodes.
pub fn join_events(n: usize, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    JoinWorkload::paper(n).generate(&mut rng)
}

/// Builds a Minim-colored paper network of `n` nodes.
pub fn minim_network(n: usize, seed: u64) -> Network {
    let mut net = Network::new(30.5);
    let mut m = Minim::default();
    for e in join_events(n, seed) {
        m.apply(&mut net, &e);
    }
    net
}

/// Builds a network colored by the given strategy kind.
pub fn network_with(kind: StrategyKind, n: usize, seed: u64) -> Network {
    let mut net = Network::new(30.5);
    let mut s = kind.build();
    for e in join_events(n, seed) {
        s.apply(&mut net, &e);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_valid_networks() {
        let net = minim_network(30, 7);
        assert_eq!(net.node_count(), 30);
        assert!(net.validate().is_ok());
        for kind in StrategyKind::ALL {
            let net = network_with(kind, 20, 8);
            assert!(net.validate().is_ok(), "{}", kind.label());
        }
    }
}
