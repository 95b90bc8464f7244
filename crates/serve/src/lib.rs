//! Durability and recovery for the recoding engine.
//!
//! Everything upstream of this crate is deterministic by proof: the
//! strategies in `minim-core` produce bit-identical state for a given
//! event stream (the delta and planner equivalence suites pin this).
//! `minim-serve` turns that into **crash safety**: every applied event
//! is durably journaled together with the coloring decision it led to,
//! so any crash leaves a valid prefix of the stream on disk, and
//! redoing that prefix reproduces the pre-crash state exactly — not
//! approximately, and without re-running any planner.
//!
//! The pieces, bottom-up:
//!
//! * [`crc`] — compile-time-tabled CRC-32 guarding every stored byte.
//! * [`fs`] — the [`FaultFs`] boundary: [`DiskFs`] for production,
//!   [`MemFs`] with scripted faults (torn writes, fsync failures,
//!   bit rot, full crashes) for the recovery test harness. Both model
//!   preallocated, zero-filled segment files that are overwritten in
//!   place.
//! * [`journal`] — length-prefixed checksummed frames, a zero length
//!   as the end marker, and the recovery scanner that tells a clean
//!   end from a torn tail from corruption.
//! * [`codec`] — one fixed-layout, little-endian binary encoding for
//!   journal records (an event plus the color writes its strategy
//!   decided on) and whole-network snapshots.
//! * [`engine`] — the [`Engine`] facade: apply-then-journal, batched
//!   fsync into preallocated segments, auto-snapshot + segment
//!   rotation, recovery that redoes recorded writes without planning,
//!   and read-only quarantine after write failures.
//!
//! The crate-level integration test (`tests/journal_recovery.rs` at
//! the workspace root) crashes an engine at every scripted fault site
//! and asserts the recovered state is digest-identical to an oracle
//! that never crashed.

#![deny(missing_docs)]

pub mod codec;
pub mod crc;
pub mod engine;
pub mod fs;
pub mod journal;

pub use codec::{CodecError, SnapshotDoc};
pub use crc::crc32;
pub use engine::{Engine, EngineError, EngineOptions, RecoveryReport, SEGMENT_BYTES};
pub use fs::{DiskFs, Fault, FaultFs, MemFs};
pub use journal::{encode_frame, scan, seal_frame, ScanEnd, ScannedSegment};
