//! Distributed message-passing realization of the recoding strategies.
//!
//! The paper stresses that its algorithms "involve communication only
//! local to the event and are distributed, i.e., they require no
//! central coordination" (§1), and that `RecodeOnJoin` is "locally
//! centralized at node n, using only local information" (§4.1). This
//! crate makes those claims executable:
//!
//! * [`engine`] — a synchronous-round message engine over the radio
//!   topology with per-protocol message and round accounting.
//! * [`join`] — the distributed join protocols: Minim's
//!   gather → match-at-the-joiner → recolor flow, and CP's
//!   identity-ordered wave selection.
//! * [`parallel`] — concurrent event execution under the Theorem
//!   4.1.10 separation condition (joins at least 5 hops apart commute
//!   and can run simultaneously), including a counterexample
//!   constructor showing why the separation is needed.
//!
//! The protocols drive the same algorithmic kernels as `minim-core`
//! (the bipartite matching, the lowest-available rule), so distributed
//! and centralized executions produce **identical** assignments — this
//! is asserted by the tests, and is the faithful reading of the paper:
//! the distribution changes who computes, not what is computed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod events;
pub mod join;
pub mod parallel;

pub use engine::{Engine, Message, Payload, ProtocolMetrics};
pub use events::{distributed_minim_leave, distributed_minim_move, distributed_minim_set_range};
pub use join::{distributed_cp_join, distributed_minim_join};
pub use parallel::{parallel_minim_joins, ParallelJoinError};
