//! # minim — Minimal CDMA Recoding Strategies in Power-Controlled Ad-Hoc Wireless Networks
//!
//! A full reproduction of Indranil Gupta's 2001 paper (Cornell CS TR /
//! IPPS 2001). The paper studies the *Transmitter-Oriented Code
//! Assignment* (TOCA) problem for CDMA ad-hoc networks under dynamics —
//! nodes joining, leaving, moving, and changing transmission power — and
//! contributes the **Minim** family of recoding strategies that restore
//! collision freedom (CA1 + CA2) while recoding the *provably minimum*
//! number of nodes per event.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`geom`] — 2-D geometry and the spatial index.
//! * [`graph`] — dynamic digraph, conflict (constraint) graph, colors.
//! * [`matching`] — maximum-weight bipartite matching (the engine behind
//!   `RecodeOnJoin` / `RecodeOnMove`).
//! * [`net`] — the power-controlled ad-hoc network model and workloads.
//! * [`obs`] — the observability spine: zero-allocation metrics
//!   registry, span tracing, and post-run profiling threaded through
//!   every hot path (see docs/ARCHITECTURE.md § Observability).
//! * [`core`] — the recoding strategies: Minim, CP, and BBB (which
//!   runs DSATUR over the whole network at every event).
//! * [`power`] — the SINR physical layer: path-loss gain model,
//!   Foschini–Miljanic closed-loop power control, and the driver that
//!   lowers converged powers into endogenous set-range/join/leave
//!   events.
//! * [`proto`] — distributed message-passing realization of the
//!   strategies with message/round accounting.
//! * [`radio`] — slotted packet-level CDMA link simulation quantifying
//!   the application cost of recoding (retune outages).
//! * [`sim`] — the experiment harness that regenerates the paper's
//!   figures.
//! * [`serve`] — durability: the write-ahead event journal, checksummed
//!   snapshots, crash-safe [`serve::Engine`] facade, and the
//!   fault-injection filesystem behind the recovery test harness.
//!
//! ## Quickstart
//!
//! ```
//! use minim::net::{Network, NodeConfig};
//! use minim::core::{Minim, RecodingStrategy};
//! use minim::geom::Point;
//!
//! let mut net = Network::new(10.0);
//! let mut strategy = Minim::default();
//! // Three nodes join one after the other; Minim assigns codes so that
//! // CA1/CA2 hold after every event.
//! for (i, (x, y)) in [(0.0, 0.0), (4.0, 0.0), (8.0, 0.0)].iter().enumerate() {
//!     let cfg = NodeConfig::new(Point::new(*x, *y), 5.0);
//!     let id = net.next_id();
//!     let outcome = strategy.on_join(&mut net, id, cfg);
//!     println!("node {id} joined, {} nodes recoded", outcome.recoded.len());
//! }
//! assert!(net.validate().is_ok());
//! ```

#![forbid(unsafe_code)]

pub use minim_core as core;
pub use minim_geom as geom;
pub use minim_graph as graph;
pub use minim_matching as matching;
pub use minim_net as net;
pub use minim_obs as obs;
pub use minim_power as power;
pub use minim_proto as proto;
pub use minim_radio as radio;
pub use minim_serve as serve;
pub use minim_sim as sim;
