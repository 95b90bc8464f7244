//! The crash-safe engine facade.
//!
//! [`Engine`] wraps a [`Network`] + [`RecodingStrategy`] pair with
//! durability. [`Engine::apply`] runs each event through [`run_event`]
//! with the strategy's decision, then journals one record: the event
//! plus the `(node, color)` writes the strategy decided on (physical
//! redo logging, as in ARIES). The journal is fsynced in configurable
//! batches, and the full state is periodically checkpointed into a
//! checksummed snapshot, at which point the journal rotates to a fresh
//! segment and the superseded files are deleted. Both use the binary
//! layouts of [`crate::codec`].
//!
//! ## On-disk layout
//!
//! The engine owns a flat directory:
//!
//! * `snap-<seq>` — one checksummed frame holding the snapshot;
//!   snapshot `seq` is the state at the *start* of segment `seq`.
//! * `wal-<seq>`  — journal segments: one frame per event. A
//!   generation is `snap-<S>` followed by segments `wal-<S>`,
//!   `wal-<S+1>`, … in event order; the last one is live.
//!
//! Opening an empty directory writes a genesis `snap-0` (the empty
//! network), so recovery always has a base to build on. Rotation
//! writes `snap-(L+1)` atomically (temp + fsync + rename), where `L`
//! is the live segment, then deletes every file of the older
//! generation; the next append starts `wal-(L+1)`. A crash at any
//! point leaves either the old generation intact or the new one
//! durable, never neither.
//!
//! ## Preallocated segments
//!
//! A segment is created on the first append that needs it, at a fixed
//! [`SEGMENT_BYTES`] (or the frame's own size, if larger), zero-filled
//! and durable through [`FaultFs::preallocate`]. Each frame overwrites
//! zeros at the segment's cursor and is then `fdatasync`ed, so the
//! per-event fsync never has to commit a new file size. A zero frame
//! length marks where the written part ends. When a frame doesn't fit,
//! the full segment is fsynced first and the frame goes to the next
//! segment, so a torn tail can only be in the last one.
//!
//! The engine **never appends to a segment it found on disk**: after
//! [`Engine::open`], the first append starts a new segment after the
//! last one present. Recovery so never has to find a write cursor
//! inside an old file, and a clean open writes nothing.
//!
//! ## Apply order and failed writes
//!
//! An event goes through [`run_event`]: it is checked, its topology
//! step applied, the strategy's writes committed in memory, and
//! CA1/CA2 checked around the event node and the written nodes, in
//! release builds too. It is then encoded into a reused frame buffer,
//! appended, and fsynced per `sync_every`. It is acknowledged when
//! [`Engine::apply`] returns `Ok` with the engine not quarantined.
//!
//! An event that fails the check is rejected with nothing applied
//! ([`EngineError::InvalidEvent`]). A decision that fails the CA1/CA2
//! check is already committed in memory: `apply` returns
//! [`EngineError::Refused`], the engine quarantines, and nothing is
//! appended, so the engine never acknowledges what recovery would
//! refuse. Because the record needs the strategy's decision, the event
//! is applied *before* it is journaled, so a failed segment roll or
//! append leaves memory one event ahead of disk in the same way:
//! `apply` returns `Err` and the engine quarantines. A failed fsync
//! leaves memory ahead of durable disk in the same way: `apply` returns
//! `Ok` for the applied event, and the engine quarantines. In every
//! case the in-memory state is never acknowledged, and reopening
//! recovers what the disk holds.
//!
//! ## Recovery
//!
//! [`Engine::open`] loads the newest decodable snapshot (each is
//! CRC-framed *and* self-verifies its fingerprint on rebuild), then
//! redoes the journal suffix without calling any planner. Each record
//! runs through [`run_event`] as a live event does, with the recorded
//! writes in place of the strategy's decision: the event's topology
//! step, the recorded writes, and the CA1/CA2 check around the event
//! node and the written nodes. Recovery so reproduces the
//! acknowledged coloring exactly, whatever planner tie-break the
//! running build has.
//!
//! The scanner tells a clean end (EOF or zero padding) from a torn
//! tail (a broken last frame with only zeros after it) and from
//! corruption (a broken frame or a zero header with non-zero bytes
//! after it); see [`crate::journal`]. A torn tail or corruption
//! truncates the segment at the last valid boundary, and later
//! segments are deleted; the [`RecoveryReport`] says exactly how many
//! events were replayed, how many bytes were cut, and how many frames
//! were corrupt.
//!
//! A frame whose CRC holds but whose record cannot be redone is
//! corruption or a writer bug, not a torn write, and acknowledged
//! frames may follow it. That covers a payload that does not decode
//! (a v1 JSON frame among them), an event the engine would have
//! rejected at [`Engine::apply`] (an absent node, a non-finite or
//! negative value), a write to a node that is not live after the
//! topology step, and writes that fail the CA1/CA2 check. Recovery
//! rebuilds the state of the prefix before that frame, keeps every
//! byte on disk, and opens in read-only quarantine with a reason
//! naming the segment and byte offset.
//!
//! A v1 directory (JSON payloads) is refused, not migrated: its
//! snapshot fails to decode, so [`Engine::open`] returns
//! [`EngineError::Corrupt`] naming format v1.
//!
//! ## Quarantine
//!
//! After any write-path failure (failed append, fsync, rotation), a
//! refused decision, or when recovery meets a record it cannot redo,
//! the engine degrades to **read-only quarantine**: state accessors
//! keep working, every mutation returns [`EngineError::Quarantined`],
//! and the reason is preserved. This is the post-`fsync`-failure posture:
//! once the kernel has failed a flush, the only honest options are
//! stop-and-reopen or silent risk, and the engine picks the former.

use std::io;

use minim_core::{
    run_event, ColorPlan, EventError, RecodingStrategy, StrategyKind, ValidationMode, Writes,
};
use minim_net::event::{AppliedEvent, Event};
use minim_net::Network;

use crate::codec;
use crate::fs::{DiskFs, FaultFs};
use crate::journal::{self, ScanEnd, FRAME_HEADER};

/// Physical size of a journal segment. 256 KiB holds about 8,000 events
/// at the 31-byte mean frame of Minim churn, so its zero fill (about
/// 0.5 ms with the fsyncs) costs well under a microsecond per event.
pub const SEGMENT_BYTES: u64 = 256 * 1024;

/// Tuning knobs for [`Engine::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Recoding strategy for genesis. On reopen the strategy stored in
    /// the snapshot wins (state is only replayable under the strategy
    /// that produced it).
    pub strategy: StrategyKind,
    /// Auto-snapshot (and rotate the journal) every this many events.
    /// `0` disables auto-snapshotting; [`Engine::snapshot`] still
    /// works on demand.
    pub snapshot_every: u64,
    /// Fsync the journal every this many appends. `1` (the default)
    /// acknowledges every event before applying it; larger values
    /// trade a bounded unacknowledged window for throughput. `0`
    /// never auto-syncs (only [`Engine::sync`] / [`Engine::close`]).
    pub sync_every: u64,
    /// Spatial-grid cell hint for the genesis network.
    pub cell_hint: f64,
    /// Whether the genesis network uses the flat (non-stratified)
    /// spatial index.
    pub flat: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            strategy: StrategyKind::Minim,
            snapshot_every: 1024,
            sync_every: 1,
            cell_hint: 25.0,
            flat: false,
        }
    }
}

/// A typed engine failure.
#[derive(Debug)]
pub enum EngineError {
    /// An I/O operation failed; `op` names the journal/snapshot step.
    Io {
        /// Which operation failed (`"append"`, `"sync"`, …).
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// The engine is in read-only quarantine after an earlier failure.
    Quarantined {
        /// The original failure, preserved verbatim.
        reason: String,
    },
    /// Stored state could not be decoded at all (no usable snapshot).
    Corrupt {
        /// What was wrong.
        detail: String,
    },
    /// The event references state that doesn't exist (e.g. a leave for
    /// an absent node). Rejected *before* it is applied or journaled,
    /// so bad input never poisons the log.
    InvalidEvent {
        /// What was wrong.
        detail: String,
    },
    /// The strategy's decision for the event fails the CA1/CA2 check.
    /// The event and its writes are applied in memory, nothing is
    /// journaled, and the engine quarantines.
    Refused {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Io { op, source } => write!(f, "{op} failed: {source}"),
            EngineError::Quarantined { reason } => {
                write!(f, "engine quarantined (read-only): {reason}")
            }
            EngineError::Corrupt { detail } => write!(f, "stored state corrupt: {detail}"),
            EngineError::InvalidEvent { detail } => write!(f, "invalid event: {detail}"),
            EngineError::Refused { detail } => write!(f, "decision refused: {detail}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What recovery found and did while opening the directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery built on.
    pub snapshot_seq: u64,
    /// Newer snapshots that failed their checksum / fingerprint and
    /// were skipped in favor of an older one.
    pub snapshots_discarded: u64,
    /// Journal frames replayed on top of the snapshot.
    pub frames_replayed: u64,
    /// Journal bytes discarded past the last valid frame boundary.
    pub bytes_truncated: u64,
    /// Structurally complete frames that failed their CRC (dropped) or
    /// their redo (kept on disk, engine quarantined). Torn tails count
    /// only toward `bytes_truncated`.
    pub corrupt_frames: u64,
    /// Total events reflected in the recovered state (snapshot base +
    /// replayed suffix). Recovered state ≡ a fresh engine fed exactly
    /// this prefix of the original event stream.
    pub events_total: u64,
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:010}")
}

fn snap_name(seq: u64) -> String {
    format!("snap-{seq:010}")
}

/// Parses `prefix-<digits>`, returning the sequence number.
fn parse_seq(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_prefix('-')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Redoes one journal record on `net` through [`run_event`] with the
/// recorded writes: the event check, the topology step, the writes and
/// the CA1/CA2 check around the event node and the written nodes.
/// `writes` is scratch. On `Err` the network may hold part of the
/// record.
fn redo(net: &mut Network, payload: &[u8], writes: &mut ColorPlan) -> Result<(), String> {
    let event = codec::decode_record(payload, writes).map_err(|e| e.to_string())?;
    run_event(
        net,
        &event,
        None,
        Writes::recorded(writes),
        ValidationMode::Delta,
    )
    .map(drop)
    .map_err(|e| e.to_string())
}

/// The crash-safe facade over a network + strategy pair. See the
/// module docs for the full durability contract.
pub struct Engine {
    fs: Box<dyn FaultFs>,
    net: Network,
    strategy: Box<dyn RecodingStrategy + Send>,
    strategy_kind: StrategyKind,
    opts: EngineOptions,
    /// The generation's snapshot: `snap-<gen>`, followed by segments
    /// `wal-<gen>` ..= `wal-<seq>` (some may be absent).
    gen: u64,
    /// Live segment number; appends go to `wal-<seq>`.
    seq: u64,
    /// `wal_name(seq)`, rebuilt only when `seq` changes.
    seg_name: String,
    /// Bytes written to the live segment.
    seg_used: u64,
    /// Physical size of the live segment; 0 until an append creates it.
    seg_len: u64,
    /// The frame being appended, reused across events.
    frame: Vec<u8>,
    events_applied: u64,
    events_since_snapshot: u64,
    appends_since_sync: u64,
    quarantine: Option<String>,
    report: RecoveryReport,
}

impl Engine {
    /// Opens (or creates) an engine over the real filesystem at `dir`
    /// with default options.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Engine, EngineError> {
        Engine::open_dir(dir, EngineOptions::default())
    }

    /// [`Engine::open`] with explicit options.
    pub fn open_dir(
        dir: impl Into<std::path::PathBuf>,
        opts: EngineOptions,
    ) -> Result<Engine, EngineError> {
        let fs = DiskFs::open(dir).map_err(|source| EngineError::Io { op: "open", source })?;
        Engine::open_with(Box::new(fs), opts)
    }

    /// Opens an engine over any [`FaultFs`] — the entry point the
    /// fault-injection tests use with a scripted [`crate::MemFs`].
    pub fn open_with(fs: Box<dyn FaultFs>, opts: EngineOptions) -> Result<Engine, EngineError> {
        let _span = minim_obs::span!("serve.recover");
        let t0 = std::time::Instant::now();
        let result = Engine::open_with_inner(fs, opts);
        minim_obs::observe_ns!("serve.recover_ns", t0.elapsed().as_nanos() as u64);
        result
    }

    fn open_with_inner(
        mut fs: Box<dyn FaultFs>,
        opts: EngineOptions,
    ) -> Result<Engine, EngineError> {
        let names = fs
            .list()
            .map_err(|source| EngineError::Io { op: "list", source })?;
        let mut snaps: Vec<u64> = names.iter().filter_map(|n| parse_seq(n, "snap")).collect();
        snaps.sort_unstable();
        let mut wals: Vec<u64> = names.iter().filter_map(|n| parse_seq(n, "wal")).collect();
        wals.sort_unstable();

        if snaps.is_empty() {
            return Engine::genesis(fs, opts, &wals);
        }

        let mut report = RecoveryReport::default();

        // Newest decodable snapshot wins. Each candidate must pass its
        // frame CRC, decode, and rebuild to its stored fingerprint.
        let t_snapshot = std::time::Instant::now();
        let mut base: Option<(u64, codec::SnapshotDoc)> = None;
        let mut newest_error = None;
        for &s in snaps.iter().rev() {
            match Engine::load_snapshot(fs.as_mut(), s) {
                Ok(doc) => {
                    base = Some((s, doc));
                    break;
                }
                Err(e) => {
                    newest_error.get_or_insert(e);
                    report.snapshots_discarded += 1;
                }
            }
        }
        let (base_seq, snap) = base.ok_or_else(|| EngineError::Corrupt {
            detail: format!(
                "no decodable snapshot among {} candidates; newest: {}",
                snaps.len(),
                newest_error.map_or_else(String::new, |e| e.to_string())
            ),
        })?;
        report.snapshot_seq = base_seq;
        minim_obs::observe_ns!(
            "serve.recover.snapshot_ns",
            t_snapshot.elapsed().as_nanos() as u64
        );

        let t_replay = std::time::Instant::now();
        let mut net = snap.net;
        let strategy_kind = snap.strategy;
        let mut events_applied = snap.events_applied;
        let mut quarantine = None;
        let mut writes = ColorPlan::new();
        // Payloads redone so far, to rebuild the prefix if a record
        // fails halfway through its redo.
        let mut redone: Vec<Vec<u8>> = Vec::new();

        // Redo journal segments from the base forward, in order: the
        // generation's own segments, and any an interrupted rotation or
        // a discarded newer snapshot left behind.
        let mut halted = false;
        for &w in wals.iter().filter(|&&w| w >= base_seq) {
            if halted {
                // Past a truncated segment: the events in it depend
                // on state we cut away. Past a record that failed its
                // redo, the bytes stay on disk for inspection.
                if quarantine.is_none() {
                    let _ = fs.remove(&wal_name(w));
                }
                continue;
            }
            let name = wal_name(w);
            let bytes = fs
                .read(&name)
                .map_err(|source| EngineError::Io { op: "read", source })?;
            let mut scanned = journal::scan(&bytes);

            // Redo the valid prefix, watching for frames whose CRC
            // holds but whose record can't be redone (writer bug or
            // CRC-colliding rot). Such a frame is not a torn write:
            // the frames after it were acknowledged, so nothing is
            // cut. Recovery stops there and opens read-only.
            let mut offset = 0usize;
            for payload in std::mem::take(&mut scanned.frames) {
                if let Err(e) = redo(&mut net, &payload, &mut writes) {
                    report.corrupt_frames += 1;
                    quarantine = Some(format!("bad record in {name} at byte {offset}: {e}"));
                    halted = true;
                    // The failed redo may have applied part of the
                    // record: rebuild the prefix before it.
                    net = Engine::load_snapshot(fs.as_mut(), base_seq)?.net;
                    for p in &redone {
                        redo(&mut net, p, &mut writes).expect("a redone record redoes again");
                    }
                    break;
                }
                events_applied += 1;
                report.frames_replayed += 1;
                offset += FRAME_HEADER + payload.len();
                redone.push(payload);
            }
            if halted {
                continue;
            }

            if scanned.is_damaged() {
                report.bytes_truncated += scanned.bytes_truncated as u64;
                if scanned.end == ScanEnd::CorruptFrame {
                    report.corrupt_frames += 1;
                }
                if let Err(source) = fs.truncate(&name, scanned.valid_len as u64) {
                    quarantine = Some(format!("recovery truncate failed: {source}"));
                }
                halted = true;
            }
        }
        report.events_total = events_applied;
        minim_obs::observe_ns!(
            "serve.recover.replay_ns",
            t_replay.elapsed().as_nanos() as u64
        );

        // Stale generations below the base are leftovers of an
        // interrupted rotation; clear them (best-effort — recovery
        // tolerates them either way). A quarantined open writes
        // nothing.
        if quarantine.is_none() {
            for &w in wals.iter().filter(|&&w| w < base_seq) {
                let _ = fs.remove(&wal_name(w));
            }
            for &s in snaps.iter().filter(|&&s| s != base_seq) {
                let _ = fs.remove(&snap_name(s));
            }
        }

        // Appends never reopen a segment found on disk: the next one
        // starts after the last present.
        let seq = wals.last().map_or(base_seq, |&w| base_seq.max(w + 1));
        Ok(Engine {
            fs,
            net,
            strategy: strategy_kind.build(),
            strategy_kind,
            opts,
            gen: base_seq,
            seq,
            seg_name: wal_name(seq),
            seg_used: 0,
            seg_len: 0,
            frame: Vec::new(),
            events_applied,
            events_since_snapshot: report.frames_replayed,
            appends_since_sync: 0,
            quarantine,
            report,
        })
    }

    fn genesis(
        mut fs: Box<dyn FaultFs>,
        opts: EngineOptions,
        stale_wals: &[u64],
    ) -> Result<Engine, EngineError> {
        // Journal segments without any snapshot have no base state to
        // replay onto; they can only be debris from a crash before the
        // genesis snapshot became durable.
        for &w in stale_wals {
            let _ = fs.remove(&wal_name(w));
        }
        let net = if opts.flat {
            Network::new_flat(opts.cell_hint)
        } else {
            Network::new(opts.cell_hint)
        };
        let frame = journal::encode_frame(&codec::encode_snapshot(&net, opts.strategy, 0));
        fs.replace(&snap_name(0), &frame)
            .map_err(|source| EngineError::Io {
                op: "genesis snapshot",
                source,
            })?;
        Ok(Engine {
            fs,
            net,
            strategy: opts.strategy.build(),
            strategy_kind: opts.strategy,
            opts,
            gen: 0,
            seq: 0,
            seg_name: wal_name(0),
            seg_used: 0,
            seg_len: 0,
            frame: Vec::new(),
            events_applied: 0,
            events_since_snapshot: 0,
            appends_since_sync: 0,
            quarantine: None,
            report: RecoveryReport::default(),
        })
    }

    fn load_snapshot(fs: &mut dyn FaultFs, seq: u64) -> Result<codec::SnapshotDoc, EngineError> {
        let bytes = fs
            .read(&snap_name(seq))
            .map_err(|source| EngineError::Io { op: "read", source })?;
        let scanned = journal::scan(&bytes);
        if scanned.is_damaged() || scanned.frames.len() != 1 {
            return Err(EngineError::Corrupt {
                detail: format!(
                    "snapshot {seq}: expected one clean frame, got {} ({:?})",
                    scanned.frames.len(),
                    scanned.end
                ),
            });
        }
        codec::decode_snapshot(&scanned.frames[0]).map_err(|e| EngineError::Corrupt {
            detail: format!("snapshot {seq}: {e}"),
        })
    }

    fn guard(&self) -> Result<(), EngineError> {
        match &self.quarantine {
            Some(reason) => Err(EngineError::Quarantined {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    fn quarantine_now(&mut self, reason: String) {
        if self.quarantine.is_none() {
            minim_obs::counter!("serve.quarantined", 1);
            self.quarantine = Some(reason);
        }
    }

    /// Runs `event` through [`run_event`] with the strategy's decision
    /// and validation, journals it with the writes the strategy decided
    /// on, fsyncs per policy, and auto-snapshots if the interval
    /// elapsed. On a refused decision or any write failure the engine
    /// quarantines; see the module docs for what memory and disk then
    /// hold.
    pub fn apply(&mut self, event: &Event) -> Result<AppliedEvent, EngineError> {
        let _span = minim_obs::span!("serve.apply");
        self.guard()?;
        let done = match run_event(
            &mut self.net,
            event,
            None,
            Writes::Plan(&*self.strategy),
            ValidationMode::Delta,
        ) {
            Ok(done) => done,
            Err(EventError::Rejected(detail)) => return Err(EngineError::InvalidEvent { detail }),
            Err(EventError::Refused(detail)) => {
                // Memory holds the refused decision; nothing reaches
                // the journal.
                self.quarantine_now(format!("decision refused: {detail}"));
                return Err(EngineError::Refused { detail });
            }
        };
        self.events_applied += 1;
        self.events_since_snapshot += 1;

        self.frame.clear();
        self.frame.resize(FRAME_HEADER, 0);
        let writes = done
            .outcome
            .recoded
            .iter()
            .map(|&(node, _, color)| (node, color));
        codec::encode_record(event, writes, &mut self.frame);
        journal::seal_frame(&mut self.frame);
        let frame_len = self.frame.len() as u64;
        // From here on a failure leaves the event in memory only.
        self.make_room(frame_len)?;
        let t_append = std::time::Instant::now();
        if let Err(source) = self.fs.append(&self.seg_name, &self.frame) {
            // The frame may be torn on disk, and recovery will truncate
            // it: the disk says the event never happened.
            self.quarantine_now(format!("journal append failed: {source}"));
            return Err(EngineError::Io {
                op: "append",
                source,
            });
        }
        minim_obs::observe_ns!("serve.append_ns", t_append.elapsed().as_nanos() as u64);
        minim_obs::counter!("serve.events", 1);
        self.seg_used += frame_len;
        self.appends_since_sync += 1;

        if self.opts.sync_every > 0 && self.appends_since_sync >= self.opts.sync_every {
            let t_sync = std::time::Instant::now();
            if let Err(source) = self.fs.sync(&self.seg_name) {
                // Post-fsync-failure the page cache can no longer be
                // trusted; stop accepting writes. The event is
                // journaled but unacknowledged, exactly as durable as
                // any unsynced write.
                self.quarantine_now(format!("journal fsync failed: {source}"));
                return Ok(done.applied);
            }
            minim_obs::observe_ns!("serve.fsync_ns", t_sync.elapsed().as_nanos() as u64);
            self.appends_since_sync = 0;
        }

        if self.opts.snapshot_every > 0 && self.events_since_snapshot >= self.opts.snapshot_every {
            // A failed rotation quarantines but the event stands: it is
            // journaled in the still-live segment.
            let _ = self.snapshot();
        }
        Ok(done.applied)
    }

    /// Makes the live segment able to take a `frame_len`-byte frame:
    /// creates it on the first append after open or rotation, and when
    /// the frame doesn't fit, fsyncs the full segment and rolls to the
    /// next one. Quarantines on failure; the frame is then not written.
    fn make_room(&mut self, frame_len: u64) -> Result<(), EngineError> {
        if self.seg_used + frame_len <= self.seg_len {
            return Ok(());
        }
        if self.seg_len > 0 {
            self.sync()?;
            self.seq += 1;
            self.seg_name = wal_name(self.seq);
        }
        let len = SEGMENT_BYTES.max(frame_len);
        let t0 = std::time::Instant::now();
        if let Err(source) = self.fs.preallocate(&self.seg_name, len) {
            self.quarantine_now(format!("journal segment preallocate failed: {source}"));
            return Err(EngineError::Io {
                op: "preallocate",
                source,
            });
        }
        minim_obs::observe_ns!("serve.preallocate_ns", t0.elapsed().as_nanos() as u64);
        self.seg_used = 0;
        self.seg_len = len;
        Ok(())
    }

    /// Checkpoints the full state into `snap-(seq+1)` and rotates the
    /// journal. On success every file of the previous generation is
    /// deleted; on failure the engine quarantines and the old
    /// generation remains authoritative.
    pub fn snapshot(&mut self) -> Result<(), EngineError> {
        let _span = minim_obs::span!("serve.snapshot");
        let t0 = std::time::Instant::now();
        self.guard()?;
        let next = self.seq + 1;
        let doc = codec::encode_snapshot(&self.net, self.strategy_kind, self.events_applied);
        let frame = journal::encode_frame(&doc);
        if let Err(source) = self.fs.replace(&snap_name(next), &frame) {
            self.quarantine_now(format!("snapshot write failed: {source}"));
            return Err(EngineError::Io {
                op: "snapshot",
                source,
            });
        }
        // The new snapshot is durable; the old generation is now
        // redundant. Removal is best-effort — recovery skips stale
        // files if a crash lands here.
        for seq in self.gen..next {
            let old_wal = wal_name(seq);
            if self.fs.exists(&old_wal) {
                let _ = self.fs.remove(&old_wal);
            }
        }
        let _ = self.fs.remove(&snap_name(self.gen));
        self.gen = next;
        self.seq = next;
        self.seg_name = wal_name(next);
        self.seg_used = 0;
        self.seg_len = 0;
        self.events_since_snapshot = 0;
        self.appends_since_sync = 0;
        minim_obs::observe_ns!("serve.snapshot_ns", t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Forces an fsync of the live journal segment.
    pub fn sync(&mut self) -> Result<(), EngineError> {
        self.guard()?;
        if self.appends_since_sync == 0 {
            return Ok(());
        }
        match self.fs.sync(&self.seg_name) {
            Ok(()) => {
                self.appends_since_sync = 0;
                Ok(())
            }
            Err(source) => {
                self.quarantine_now(format!("journal fsync failed: {source}"));
                Err(EngineError::Io { op: "sync", source })
            }
        }
    }

    /// Flushes outstanding appends and consumes the engine. Returns
    /// the final applied-event count.
    pub fn close(mut self) -> Result<u64, EngineError> {
        if self.quarantine.is_none() {
            self.sync()?;
        }
        Ok(self.events_applied)
    }

    /// The live network state.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The strategy continuing this state.
    pub fn strategy_kind(&self) -> StrategyKind {
        self.strategy_kind
    }

    /// Total events applied since genesis (snapshot base + live).
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Current journal segment number.
    pub fn segment_seq(&self) -> u64 {
        self.seq
    }

    /// What recovery found when this engine was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Whether the engine has degraded to read-only quarantine.
    pub fn is_quarantined(&self) -> bool {
        self.quarantine.is_some()
    }

    /// The failure that triggered quarantine, if any.
    pub fn quarantine_reason(&self) -> Option<&str> {
        self.quarantine.as_deref()
    }

    /// A point-in-time copy of the minim-obs registry for embedders:
    /// `serve.*` counters and latency histograms (append/fsync/
    /// snapshot/recovery), alongside whatever other instrumented
    /// subsystems recorded in this process. The registry is
    /// process-global, so counts from other engines (or the sim)
    /// appear too; callers wanting engine-scoped numbers should
    /// [`minim_obs::reset`] at a quiet moment and diff.
    pub fn metrics_snapshot(&self) -> minim_obs::MetricsSnapshot {
        minim_obs::snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{Fault, MemFs};
    use minim_core::Minim;
    use minim_geom::Point;
    use minim_net::{NodeConfig, TopologyDelta};

    fn opts() -> EngineOptions {
        EngineOptions {
            snapshot_every: 0,
            ..EngineOptions::default()
        }
    }

    fn join(x: f64, y: f64, r: f64) -> Event {
        Event::Join {
            cfg: NodeConfig::new(Point::new(x, y), r),
        }
    }

    #[test]
    fn genesis_then_reopen_replays_events() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        for i in 0..10 {
            eng.apply(&join(f64::from(i) * 3.0, 0.0, 5.0)).unwrap();
        }
        let digest = eng.net().state_digest();
        assert_eq!(eng.close().unwrap(), 10);

        let eng2 = Engine::open_with(Box::new(fs), opts()).unwrap();
        assert_eq!(eng2.recovery_report().frames_replayed, 10);
        assert_eq!(eng2.recovery_report().events_total, 10);
        assert_eq!(eng2.recovery_report().bytes_truncated, 0);
        assert_eq!(eng2.net().state_digest(), digest);
    }

    #[test]
    fn snapshot_rotates_and_reopen_uses_it() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        for i in 0..6 {
            eng.apply(&join(f64::from(i) * 4.0, 1.0, 6.0)).unwrap();
        }
        eng.snapshot().unwrap();
        assert_eq!(eng.segment_seq(), 1);
        eng.apply(&join(50.0, 1.0, 6.0)).unwrap();
        let digest = eng.net().state_digest();
        drop(eng);

        let eng2 = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        let r = eng2.recovery_report();
        assert_eq!(r.snapshot_seq, 1);
        assert_eq!(r.frames_replayed, 1);
        assert_eq!(r.events_total, 7);
        assert_eq!(eng2.net().state_digest(), digest);
        // Old generation was cleaned up.
        let mut probe = fs.clone();
        let names = probe.list().unwrap();
        assert!(!names.contains(&wal_name(0)), "{names:?}");
        assert!(!names.contains(&snap_name(0)), "{names:?}");
    }

    #[test]
    fn invalid_event_is_rejected_before_journaling() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        let err = eng
            .apply(&Event::Leave {
                node: minim_graph::NodeId(99),
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidEvent { .. }));
        assert!(!eng.is_quarantined());
        // Nothing reached the journal.
        let mut probe = fs.clone();
        assert!(!probe.exists(&wal_name(0)));
    }

    /// A test-only strategy that gives a joiner the color of a node it
    /// reaches: a CA1 break. Other events go to Minim.
    struct StealsAColor;

    impl RecodingStrategy for StealsAColor {
        fn name(&self) -> &'static str {
            "steals-a-color"
        }

        fn plan_batched(
            &self,
            net: &Network,
            applied: &AppliedEvent,
            delta: &TopologyDelta,
        ) -> ColorPlan {
            let reached = delta
                .out_after
                .iter()
                .find_map(|&w| net.assignment().get(w));
            match (applied, reached) {
                (AppliedEvent::Joined(id), Some(c)) => vec![(*id, c)],
                _ => Minim::default().plan_batched(net, applied, delta),
            }
        }
    }

    #[test]
    fn a_decision_that_breaks_ca1_is_refused_before_journaling() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        for i in 0..5 {
            eng.apply(&join(f64::from(i) * 3.0, 0.0, 5.0)).unwrap();
        }
        let digest = eng.net().state_digest();
        let segment = fs.with_raw(&wal_name(0), |d| d.clone());

        eng.strategy = Box::new(StealsAColor);
        let err = eng.apply(&join(1.0, 0.0, 5.0)).unwrap_err();
        assert!(matches!(err, EngineError::Refused { .. }), "{err}");
        assert!(eng.is_quarantined());
        assert_eq!(
            fs.with_raw(&wal_name(0), |d| d.clone()),
            segment,
            "the refused event must not reach the journal"
        );
        drop(eng);

        let eng = Engine::open_with(Box::new(fs), opts()).unwrap();
        assert!(!eng.is_quarantined());
        assert_eq!(eng.recovery_report().events_total, 5);
        assert_eq!(eng.net().state_digest(), digest);
    }

    #[test]
    fn non_finite_or_negative_inputs_are_rejected_before_journaling() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        let bad_join = |x: f64, y: f64, range: f64| Event::Join {
            cfg: NodeConfig {
                pos: Point::new(x, y),
                range,
            },
        };
        let rejected = [
            bad_join(f64::NAN, 1.0, 5.0),
            bad_join(1.0, f64::INFINITY, 5.0),
            bad_join(1.0, 1.0, f64::NAN),
            bad_join(1.0, 1.0, -1.0),
            bad_join(1.0, 1.0, f64::INFINITY),
        ];
        for event in &rejected {
            let err = eng.apply(event).unwrap_err();
            assert!(matches!(err, EngineError::InvalidEvent { .. }), "{err}");
        }
        let mut probe = fs.clone();
        assert!(!probe.exists(&wal_name(0)), "a rejected join was journaled");

        let a = eng.apply(&join(0.0, 0.0, 5.0)).unwrap().node();
        let rejected = [
            Event::Move {
                node: a,
                to: Point::new(f64::NEG_INFINITY, 0.0),
            },
            Event::Move {
                node: a,
                to: Point::new(0.0, f64::NAN),
            },
            Event::SetRange {
                node: a,
                range: -0.5,
            },
            Event::SetRange {
                node: a,
                range: f64::NAN,
            },
        ];
        for event in &rejected {
            let err = eng.apply(event).unwrap_err();
            assert!(matches!(err, EngineError::InvalidEvent { .. }), "{err}");
        }
        assert!(!eng.is_quarantined());
        assert_eq!(eng.events_applied(), 1);
    }

    /// Regression: a NaN join used to pass the boundary, get journaled
    /// as an undecodable frame, and make recovery truncate it together
    /// with every acknowledged event after it.
    #[test]
    fn nan_join_does_not_cost_later_acknowledged_events() {
        let fs = MemFs::new();
        let sync1 = EngineOptions {
            sync_every: 1,
            ..opts()
        };
        let mut eng = Engine::open_with(Box::new(fs.clone()), sync1).unwrap();
        let nan_join = Event::Join {
            cfg: NodeConfig::new(Point::new(f64::NAN, 1.0), 5.0),
        };
        assert!(matches!(
            eng.apply(&nan_join),
            Err(EngineError::InvalidEvent { .. })
        ));
        for i in 0..3 {
            eng.apply(&join(f64::from(i) * 3.0, 1.0, 5.0)).unwrap();
        }
        let digest = eng.net().state_digest();
        drop(eng);

        let eng2 = Engine::open_with(Box::new(fs), sync1).unwrap();
        let r = eng2.recovery_report();
        assert_eq!(r.corrupt_frames, 0);
        assert_eq!(r.bytes_truncated, 0);
        assert_eq!(r.events_total, 3);
        assert_eq!(eng2.net().node_count(), 3);
        assert_eq!(eng2.net().state_digest(), digest);
    }

    #[test]
    fn fsync_failure_quarantines_but_preserves_reads() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        eng.apply(&join(0.0, 0.0, 5.0)).unwrap();
        // Next ops: append (ok), sync (fault).
        fs.arm(fs.op_count() + 1, Fault::SyncError);
        eng.apply(&join(9.0, 0.0, 5.0)).unwrap();
        assert!(eng.is_quarantined());
        assert_eq!(eng.net().node_count(), 2, "event still applied in memory");
        let err = eng.apply(&join(1.0, 1.0, 5.0)).unwrap_err();
        assert!(matches!(err, EngineError::Quarantined { .. }));
        assert!(eng.snapshot().is_err());
        assert!(eng.quarantine_reason().unwrap().contains("fsync"));
    }

    #[test]
    fn auto_snapshot_fires_on_interval() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(
            Box::new(fs.clone()),
            EngineOptions {
                snapshot_every: 4,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        for i in 0..9 {
            eng.apply(&join(f64::from(i) * 5.0, 2.0, 5.0)).unwrap();
        }
        // 9 events, interval 4 → two rotations.
        assert_eq!(eng.segment_seq(), 2);
        let digest = eng.net().state_digest();
        drop(eng);
        let eng2 = Engine::open_with(Box::new(fs), opts()).unwrap();
        assert_eq!(eng2.recovery_report().snapshot_seq, 2);
        assert_eq!(eng2.recovery_report().events_total, 9);
        assert_eq!(eng2.net().state_digest(), digest);
    }

    /// Eight isolated nodes, then moves of them to far-apart,
    /// full-precision positions: a stream cheap to apply whose frames
    /// fill a segment fast.
    fn spread_moves(n: usize) -> Vec<Event> {
        let mut events: Vec<Event> = (0..8)
            .map(|i| join(f64::from(i) * 100.0, 0.0, 1.0))
            .collect();
        events.extend((8..n).map(|k| Event::Move {
            node: minim_graph::NodeId(k as u32 % 8),
            to: Point::new(
                k as f64 * 100.0 + 0.123_456_789_012_345,
                0.987_654_321_098_765,
            ),
        }));
        events
    }

    /// Bytes the record of `event` with `outcome`'s writes takes in a
    /// segment.
    fn frame_len(event: &Event, outcome: &minim_core::RecodeOutcome) -> u64 {
        let mut payload = Vec::new();
        let writes = outcome.recoded.iter().map(|&(n, _, c)| (n, c));
        codec::encode_record(event, writes, &mut payload);
        journal::encode_frame(&payload).len() as u64
    }

    /// Fills more than one segment with `snapshot_every = 0`, then
    /// crashes at every op around the roll (the full segment's fsync
    /// when appends are batched or never auto-synced, and the next
    /// segment's preallocation) and proves each site recovers to an
    /// exact prefix, loses no acknowledged event, keeps the full
    /// segment once the roll is done, and keeps journaling into a new
    /// segment.
    #[test]
    fn crash_around_a_segment_roll_recovers_and_continues() {
        // Enough events that the last few spill into a second segment.
        // Oracle digests of every prefix (eight nodes: cheap).
        let mut events = spread_moves(10_000);
        let mut net = Network::new(opts().cell_hint);
        let mut strategy = StrategyKind::Minim.build();
        let mut oracle = vec![net.state_digest()];
        let mut bytes = 0;
        let mut roll_event = None;
        for (i, e) in events.iter().enumerate() {
            let (_, outcome) = strategy.apply(&mut net, e);
            oracle.push(net.state_digest());
            bytes += frame_len(e, &outcome);
            if bytes > SEGMENT_BYTES {
                roll_event.get_or_insert(i);
            }
        }
        let roll_event = roll_event.expect("the stream overflows one segment");
        events.truncate(roll_event + 4);

        for sync_every in [0u64, 1, 3] {
            let o = EngineOptions {
                sync_every,
                ..opts()
            };
            // Locate the roll's ops in a clean run.
            let clean = MemFs::new();
            let mut eng = Engine::open_with(Box::new(clean.clone()), o).unwrap();
            let mut roll_ops = 0..0;
            for e in &events {
                let before = clean.op_count();
                eng.apply(e).unwrap();
                if eng.segment_seq() == 1 && roll_ops.is_empty() {
                    roll_ops = before..clean.op_count();
                }
            }
            assert_eq!(eng.segment_seq(), 1, "exactly one roll");
            let mut probe = clean.clone();
            assert_eq!(
                probe.read(&wal_name(0)).unwrap().len() as u64,
                SEGMENT_BYTES
            );
            drop(eng);

            for crash_op in roll_ops.start - 2..roll_ops.end + 2 {
                let keep = [0usize, 3, 11][crash_op % 3];
                let ctx = format!("sync_every={sync_every} crash_op={crash_op} keep={keep}");
                let fs = MemFs::new();
                fs.arm(
                    crash_op,
                    Fault::Crash {
                        keep_unsynced: keep,
                    },
                );
                let mut eng = Engine::open_with(Box::new(fs.clone()), o).unwrap();
                let mut acked = 0;
                for e in &events {
                    if eng.apply(e).is_err() || eng.is_quarantined() {
                        break;
                    }
                    acked += 1;
                }
                drop(eng);
                fs.revive();

                let mut eng = Engine::open_with(Box::new(fs.clone()), o).unwrap();
                let total = eng.recovery_report().events_total as usize;
                assert_eq!(
                    eng.net().state_digest(),
                    oracle[total],
                    "{ctx}: recovered prefix {total}"
                );
                if sync_every == 1 {
                    assert!(total >= acked, "{ctx}: lost acknowledged events");
                }
                if crash_op >= roll_ops.end {
                    // The full segment was synced before the roll, even
                    // with appends still unacknowledged in it.
                    assert!(total >= roll_event, "{ctx}: lost the full segment's tail");
                }
                // Journaling resumes in a segment recovery didn't find.
                let mut probe = fs.clone();
                let names = probe.list().unwrap();
                let last = names.iter().filter_map(|n| parse_seq(n, "wal")).max();
                assert!(
                    last.is_none_or(|w| w < eng.segment_seq()),
                    "{ctx}: {names:?}"
                );
                for e in &events[total..] {
                    eng.apply(e).unwrap();
                }
                eng.close().unwrap();
                let eng = Engine::open_with(Box::new(fs), o).unwrap();
                assert_eq!(eng.recovery_report().events_total as usize, events.len());
                assert_eq!(eng.recovery_report().bytes_truncated, 0, "{ctx}");
                assert_eq!(eng.net().state_digest(), oracle[events.len()], "{ctx}");
            }
        }
    }

    #[test]
    fn reopen_never_appends_to_a_segment_found_on_disk() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        eng.apply(&join(0.0, 0.0, 5.0)).unwrap();
        drop(eng);
        let before = fs.with_raw(&wal_name(0), |d| d.clone());

        // A clean open writes nothing; the next append starts wal-1.
        let ops = fs.op_count();
        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        assert_eq!(fs.op_count(), ops, "a clean open writes nothing");
        assert_eq!(eng.segment_seq(), 1);
        eng.apply(&join(9.0, 0.0, 5.0)).unwrap();
        let digest = eng.net().state_digest();
        drop(eng);
        assert_eq!(fs.with_raw(&wal_name(0), |d| d.clone()), before);

        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        assert_eq!(eng.recovery_report().events_total, 2);
        assert_eq!(eng.net().state_digest(), digest);
        // A rotation deletes every segment of the generation.
        eng.snapshot().unwrap();
        let mut probe = fs.clone();
        let names = probe.list().unwrap();
        assert_eq!(names, vec![snap_name(3)], "{names:?}");
    }

    #[test]
    fn a_frame_larger_than_a_segment_gets_a_segment_of_its_own_size() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(Box::new(fs.clone()), opts()).unwrap();
        eng.apply(&join(0.0, 0.0, 5.0)).unwrap();
        let big = SEGMENT_BYTES + 100;
        eng.make_room(big).unwrap();
        assert_eq!(eng.segment_seq(), 1);
        let mut probe = fs.clone();
        assert_eq!(probe.read(&wal_name(1)).unwrap().len() as u64, big);
    }

    #[test]
    fn reopen_keeps_snapshot_strategy_over_options() {
        let fs = MemFs::new();
        let mut eng = Engine::open_with(
            Box::new(fs.clone()),
            EngineOptions {
                strategy: StrategyKind::Bbb,
                snapshot_every: 0,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        eng.apply(&join(0.0, 0.0, 5.0)).unwrap();
        drop(eng);
        // Options ask for Minim, but the stored state is BBB's.
        let eng2 = Engine::open_with(Box::new(fs), opts()).unwrap();
        assert_eq!(eng2.strategy_kind(), StrategyKind::Bbb);
    }
}
