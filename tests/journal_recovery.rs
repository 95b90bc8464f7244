//! Crash-consistency suite for the `minim-serve` durability layer.
//!
//! The engine's contract: after a crash at *any* point, reopening the
//! directory yields a state **bit-identical** to a never-crashed
//! oracle fed some prefix of the same event stream — the prefix length
//! is whatever [`minim::serve::RecoveryReport::events_total`] reports,
//! and every event acknowledged by an fsync is in it. These tests
//! enumerate crash sites exhaustively (every mutating I/O op), script
//! the other fault flavors (short write, fsync failure, silent bit
//! rot), and drive randomized event streams × crash points through a
//! property harness. The engine journals into preallocated, zero-filled
//! segments, and `MemFs` models that layout: a crash reverts unsynced
//! bytes to zeros, and `preallocate` is a crash site like any other
//! mutating op. Bit-identity is asserted with
//! [`Network::state_digest`] (configs, colors, adjacency, obstacles,
//! id watermark) plus a full `describe()` comparison.
//!
//! Each journal record carries its strategy's color writes, and
//! recovery redoes them without planning. The second half of the suite
//! plants records that recovery must refuse, and one valid record
//! whose writes no planner would choose, which recovery must apply as
//! recorded.

use minim::core::StrategyKind;
use minim::geom::Point;
use minim::graph::{Color, NodeId};
use minim::net::event::{apply_topology, Event};
use minim::net::{Network, NodeConfig};
use minim::serve::codec::encode_record;
use minim::serve::engine::EngineOptions;
use minim::serve::fs::{Fault, MemFs};
use minim::serve::{encode_frame, scan, Engine, EngineError, SEGMENT_BYTES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CELL_HINT: f64 = 25.0;

/// A churn stream that stays valid when applied in order: leaves,
/// moves, and range changes always target a node that exists at that
/// point in the stream (tracked with a topology-only ghost network).
fn churn_events(seed: u64, n: usize) -> Vec<Event> {
    churn_events_in(seed, n, 120.0, 0.06)
}

/// [`churn_events`] over a square arena of side `arena`. A share `edge`
/// of the events carries edge values: half are joins exactly on an
/// existing node, half are range changes, each with range 0 or 1e6. A
/// live 1e6-range node conflicts with every node that transmits, so
/// long streams keep `edge` small.
fn churn_events_in(seed: u64, n: usize, arena: f64, edge: f64) -> Vec<Event> {
    let edge_range = |rng: &mut StdRng| if rng.gen_bool(0.5) { 0.0 } else { 1e6 };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ghost = Network::new(CELL_HINT);
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let count = ghost.node_count();
        let roll: f64 = rng.gen();
        let e = if count > 0 && roll < edge / 2.0 {
            let k = rng.gen_range(0..count);
            let host = ghost.iter_nodes().nth(k).expect("k < count");
            Event::Join {
                cfg: NodeConfig::new(
                    ghost.config(host).expect("present").pos,
                    edge_range(&mut rng),
                ),
            }
        } else if count == 0 || roll < 0.4 {
            Event::Join {
                cfg: NodeConfig::new(
                    Point::new(rng.gen_range(0.0..arena), rng.gen_range(0.0..arena)),
                    rng.gen_range(8.0..30.0),
                ),
            }
        } else {
            let k = rng.gen_range(0..count);
            let node = ghost.iter_nodes().nth(k).expect("k < count");
            if roll < 0.6 {
                Event::Leave { node }
            } else if roll < 0.8 {
                Event::Move {
                    node,
                    to: Point::new(rng.gen_range(0.0..arena), rng.gen_range(0.0..arena)),
                }
            } else if roll < 1.0 - edge / 2.0 {
                Event::SetRange {
                    node,
                    range: rng.gen_range(5.0..45.0),
                }
            } else {
                Event::SetRange {
                    node,
                    range: edge_range(&mut rng),
                }
            }
        };
        apply_topology(&mut ghost, &e);
        events.push(e);
    }
    events
}

/// A journal frame holding the record of `event` with `writes`.
fn record_frame(event: &Event, writes: &[(NodeId, Color)]) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_record(event, writes.iter().copied(), &mut payload);
    encode_frame(&payload)
}

/// Bytes each event's record takes in a journal segment when `kind`
/// applies `events` from an empty network.
fn frame_lens(kind: StrategyKind, events: &[Event]) -> Vec<usize> {
    let mut net = Network::new(CELL_HINT);
    let mut strategy = kind.build();
    events
        .iter()
        .map(|e| {
            let (_, outcome) = strategy.apply(&mut net, e);
            let writes: Vec<_> = outcome.recoded.iter().map(|&(n, _, c)| (n, c)).collect();
            record_frame(e, &writes).len()
        })
        .collect()
}

/// The never-crashed oracle: a fresh network fed `events` through the
/// strategy, no durability layer anywhere near it.
fn oracle(kind: StrategyKind, events: &[Event]) -> Network {
    let mut net = Network::new(CELL_HINT);
    let mut strategy = kind.build();
    for e in events {
        strategy.apply(&mut net, e);
    }
    net
}

fn opts(kind: StrategyKind, snapshot_every: u64, sync_every: u64) -> EngineOptions {
    EngineOptions {
        strategy: kind,
        snapshot_every,
        sync_every,
        cell_hint: CELL_HINT,
        flat: false,
    }
}

/// Asserts the recovered engine equals the oracle at its reported
/// prefix, in every observable way.
fn assert_matches_oracle(kind: StrategyKind, events: &[Event], eng: &Engine, context: &str) {
    let total = eng.recovery_report().events_total as usize;
    assert!(
        total <= events.len(),
        "{context}: recovered {total} events but only {} were submitted",
        events.len()
    );
    let reference = oracle(kind, &events[..total]);
    assert_eq!(
        eng.net().state_digest(),
        reference.state_digest(),
        "{context}: digest diverged at prefix {total}"
    );
    assert_eq!(
        eng.net().describe(),
        reference.describe(),
        "{context}: describe diverged at prefix {total}"
    );
    assert_eq!(eng.net().obstacles(), reference.obstacles());
    eng.net()
        .validate()
        .expect("recovered state violates CA1/CA2");
}

/// Drives `events` into a fresh engine over `fs`, stopping early if a
/// fault fires. Returns how many events were acknowledged with `Ok`.
fn drive(fs: &MemFs, o: EngineOptions, events: &[Event]) -> usize {
    let mut eng = match Engine::open_with(Box::new(fs.clone()), o) {
        Ok(e) => e,
        Err(_) => return 0, // crash during open/genesis
    };
    let mut ok = 0;
    for e in events {
        if eng.apply(e).is_err() {
            break;
        }
        if eng.is_quarantined() {
            // `apply` returns `Ok` when the event landed in memory but
            // the batch fsync failed; that event was journaled yet
            // never *acknowledged* durable, so it doesn't count.
            break;
        }
        ok += 1;
    }
    let _ = eng.close();
    ok
}

/// Crash at every mutating I/O op the whole run performs, for several
/// sync/snapshot cadences, and prove each crash site recovers to an
/// exact oracle prefix. With `sync_every = 1`, additionally prove no
/// acknowledged event is ever lost.
#[test]
fn every_crash_site_recovers_bit_identical_to_oracle() {
    let events = churn_events(0xC0FFEE, 36);
    for (sync_every, snapshot_every) in [(1, 0), (1, 7), (3, 0), (3, 7)] {
        // How many ops does a fault-free run make? Crash one past the
        // end fires nothing and bounds the sweep.
        let clean = MemFs::new();
        let all_ok = drive(
            &clean,
            opts(StrategyKind::Minim, snapshot_every, sync_every),
            &events,
        );
        assert_eq!(all_ok, events.len(), "fault-free run must apply everything");
        let total_ops = clean.op_count();
        assert!(total_ops > events.len(), "journaling must cost ops");

        for crash_op in 0..total_ops {
            let fs = MemFs::new();
            // Vary how much of the unsynced tail survives so torn
            // frames of every length appear across the sweep.
            let keep = [0usize, 3, 11][crash_op % 3];
            fs.arm(
                crash_op,
                Fault::Crash {
                    keep_unsynced: keep,
                },
            );
            let o = opts(StrategyKind::Minim, snapshot_every, sync_every);
            let acked = drive(&fs, o, &events);

            fs.revive();
            let eng = Engine::open_with(Box::new(fs.clone()), o)
                .unwrap_or_else(|e| panic!("reopen after crash at op {crash_op}: {e}"));
            let ctx = format!(
                "crash at op {crash_op}/{total_ops} (sync_every={sync_every}, \
                 snapshot_every={snapshot_every}, keep={keep})"
            );
            assert_matches_oracle(StrategyKind::Minim, &events, &eng, &ctx);
            if sync_every == 1 {
                // Every Ok-returned apply was fsynced before it was
                // applied; recovery must preserve all of them.
                assert!(
                    eng.recovery_report().events_total as usize >= acked,
                    "{ctx}: lost acknowledged events ({} < {acked})",
                    eng.recovery_report().events_total
                );
            }
        }
    }
}

/// A failed fsync quarantines the engine (read-only), and reopening
/// the directory recovers an exact oracle prefix.
#[test]
fn fsync_failure_quarantines_and_reopen_recovers() {
    let events = churn_events(7, 20);
    for fault_op in [2usize, 9, 17] {
        let fs = MemFs::new();
        fs.arm(fault_op, Fault::SyncError);
        let o = opts(StrategyKind::Minim, 0, 1);
        drive(&fs, o, &events);
        {
            let probe = Engine::open_with(Box::new(fs.clone()), o);
            // The store is intact (no crash), so reopen must work and
            // match the oracle at the reported prefix.
            let eng = probe.expect("store is readable after quarantine");
            assert_matches_oracle(
                StrategyKind::Minim,
                &events,
                &eng,
                "post-fsync-failure reopen",
            );
        }
    }
}

/// A short (torn) append fails the apply; the torn frame is truncated
/// on recovery and everything before it survives.
#[test]
fn short_write_tears_are_truncated() {
    let events = churn_events(21, 18);
    for keep in [0usize, 1, 5, 7] {
        let fs = MemFs::new();
        let o = opts(StrategyKind::Minim, 0, 1);
        // Ops per clean event: append + sync. Genesis replace is op 0,
        // preallocating the first segment op 1. Tear the 6th event's
        // append.
        let fault_op = 2 + 5 * 2;
        fs.arm(fault_op, Fault::ShortWrite { keep });
        drive(&fs, o, &events);
        let eng = Engine::open_with(Box::new(fs.clone()), o).expect("reopen");
        let r = *eng.recovery_report();
        assert_eq!(r.frames_replayed, 5, "keep={keep}");
        // The torn frame sits in the zero fill; truncation cuts it and
        // the rest of the fill. With nothing written the end is clean.
        let prefix: usize = frame_lens(StrategyKind::Minim, &events[..5]).iter().sum();
        let cut = if keep == 0 {
            0
        } else {
            SEGMENT_BYTES as usize - prefix
        };
        assert_eq!(r.bytes_truncated as usize, cut, "keep={keep}");
        assert_eq!(r.corrupt_frames, 0, "a torn tail is not a corrupt frame");
        assert_matches_oracle(StrategyKind::Minim, &events, &eng, "short write");
        drop(eng);
        let again = Engine::open_with(Box::new(fs), o).expect("second reopen");
        assert_eq!(again.recovery_report().bytes_truncated, 0, "keep={keep}");
        assert_eq!(again.recovery_report().events_total, 5, "keep={keep}");
    }
}

/// Silent single-byte corruption in a journaled frame is caught by the
/// CRC at recovery: the damaged frame and its suffix are cut, the
/// report counts it, nothing panics.
#[test]
fn corrupt_byte_is_detected_and_pinned_in_report() {
    let events = churn_events(33, 16);
    let fs = MemFs::new();
    let o = opts(StrategyKind::Minim, 0, 1);
    // Corrupt a payload byte of the 4th event's append (header is 8
    // bytes; offset 12 lands mid-payload). Op 0 is genesis, op 1 the
    // segment's preallocation, then append + sync per event.
    fs.arm(2 + 3 * 2, Fault::CorruptByte { offset: 12 });
    let applied = drive(&fs, o, &events);
    assert_eq!(applied, events.len(), "corruption is silent at write time");

    let eng = Engine::open_with(Box::new(fs.clone()), o).expect("reopen");
    let r = *eng.recovery_report();
    assert_eq!(r.frames_replayed, 3);
    assert_eq!(r.corrupt_frames, 1);
    assert!(r.bytes_truncated > 0);
    assert_eq!(r.events_total, 3);
    assert_matches_oracle(StrategyKind::Minim, &events, &eng, "bit rot");
}

/// A frame whose CRC holds but whose payload does not decode is not a
/// torn write: acknowledged frames follow it. Recovery must replay the
/// prefix before it, keep every byte on disk (the damaged segment and
/// the segment after it), count the frame, and open read-only with a
/// reason naming the segment and byte offset.
#[test]
fn crc_valid_undecodable_frame_quarantines_and_keeps_bytes() {
    let events = churn_events(66, 14);
    let fs = MemFs::new();
    let o = opts(StrategyKind::Minim, 0, 1);
    assert_eq!(drive(&fs, o, &events), events.len());

    // Split `wal-0` into frames, plant a CRC-correct garbage frame
    // after the 5th event, and move the frames of events 9.. into the
    // next segment, the layout an interrupted rotation leaves.
    let original = fs.with_raw("wal-0000000000", |d| d.clone());
    let scanned = scan(&original);
    assert_eq!(scanned.frames.len(), events.len());
    let frame = |i: usize| encode_frame(&scanned.frames[i]);
    let planted_at: usize = (0..5).map(|i| frame(i).len()).sum();
    let mut wal0: Vec<u8> = (0..5).flat_map(frame).collect();
    wal0.extend(encode_frame(b"{\"not\": \"an event\"}"));
    wal0.extend((5..9).flat_map(frame));
    let wal1: Vec<u8> = (9..events.len()).flat_map(frame).collect();
    fs.with_raw("wal-0000000000", |d| *d = wal0.clone());
    fs.with_raw("wal-0000000001", |d| *d = wal1.clone());

    for open in ["first", "second"] {
        let mut eng = Engine::open_with(Box::new(fs.clone()), o).expect("open");
        let r = *eng.recovery_report();
        assert_eq!(r.frames_replayed, 5, "{open} open");
        assert_eq!(r.events_total, 5, "{open} open");
        assert_eq!(r.corrupt_frames, 1, "{open} open");
        assert_eq!(r.bytes_truncated, 0, "{open} open");
        assert_matches_oracle(StrategyKind::Minim, &events, &eng, "undecodable frame");
        assert!(eng.is_quarantined(), "{open} open");
        let reason = eng.quarantine_reason().expect("quarantined");
        assert!(
            reason.contains("wal-0000000000") && reason.contains(&format!("byte {planted_at}")),
            "{open} open: reason must name the segment and offset: {reason}"
        );
        assert!(matches!(
            eng.apply(&events[5]),
            Err(EngineError::Quarantined { .. })
        ));
        drop(eng);
        assert_eq!(fs.with_raw("wal-0000000000", |d| d.clone()), wal0);
        assert_eq!(fs.with_raw("wal-0000000001", |d| d.clone()), wal1);
    }
}

/// Garbage written past the last valid frame (a torn tail from the
/// outside world) is truncated with a faithful, non-panicking report —
/// the behavior CI pins. The garbage lands either right after the last
/// frame or past the segment's zero fill, at its physical end.
#[test]
fn corrupt_tail_yields_nonpanicking_recovery_report() {
    let events = churn_events(44, 12);
    let garbage = b"\xde\xad\xbe\xef torn tail";
    for at_physical_end in [false, true] {
        let fs = MemFs::new();
        let o = opts(StrategyKind::Minim, 0, 1);
        let applied = drive(&fs, o, &events);
        assert_eq!(applied, events.len());

        // Scribble garbage on the live segment's tail.
        let (valid_len, len) = fs.with_raw("wal-0000000000", |data| {
            let valid_len = scan(data).valid_len;
            if at_physical_end {
                data.extend_from_slice(garbage);
            } else {
                data[valid_len..valid_len + garbage.len()].copy_from_slice(garbage);
            }
            (valid_len, data.len())
        });

        let eng = Engine::open_with(Box::new(fs.clone()), o).expect("reopen must not panic");
        let r = *eng.recovery_report();
        assert_eq!(r.frames_replayed, events.len() as u64);
        // Everything past the last valid frame is cut: the garbage and
        // the zero fill around it.
        assert_eq!(r.bytes_truncated as usize, len - valid_len);
        assert_eq!(r.corrupt_frames, 1, "non-zero bytes after the end");
        assert_eq!(r.events_total, events.len() as u64);
        assert_matches_oracle(StrategyKind::Minim, &events, &eng, "garbage tail");

        // And the truncation is physical: a second reopen is clean.
        drop(eng);
        let again = Engine::open_with(Box::new(fs), o).expect("second reopen");
        assert_eq!(again.recovery_report().bytes_truncated, 0);
        assert_eq!(again.recovery_report().events_total, events.len() as u64);
    }
}

/// A corrupted newest snapshot falls back to the previous generation
/// only if one survives; with the standard single-generation layout the
/// engine reports `Corrupt` instead of serving wrong state.
#[test]
fn corrupt_snapshot_is_rejected_not_served() {
    let events = churn_events(55, 10);
    let fs = MemFs::new();
    let o = opts(StrategyKind::Minim, 0, 1);
    let mut eng = Engine::open_with(Box::new(fs.clone()), o).expect("open");
    for e in &events {
        eng.apply(e).expect("clean run");
    }
    eng.snapshot().expect("rotate");
    drop(eng);

    fs.with_raw("snap-0000000001", |data| {
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
    });
    match Engine::open_with(Box::new(fs), o) {
        Ok(_) => panic!("corrupt snapshot must be rejected"),
        Err(err) => assert!(matches!(err, EngineError::Corrupt { .. }), "{err}"),
    }
}

/// Snapshot → restore round-trips bit-identically for all three
/// strategies, including obstacles and live colors, and continuing the
/// stream from a restore matches continuing it without one.
#[test]
fn snapshot_roundtrip_is_bit_identical_across_strategies() {
    use minim::geom::Segment;
    use minim::serve::codec::{decode_snapshot, encode_snapshot};
    let events = churn_events(66, 60);
    let (head, tail) = events.split_at(40);
    for kind in StrategyKind::ALL {
        let mut net = Network::new(CELL_HINT);
        net.add_obstacle(Segment::new(Point::new(60.0, 0.0), Point::new(60.0, 120.0)));
        let mut strategy = kind.build();
        for e in head {
            strategy.apply(&mut net, e);
        }

        let text = encode_snapshot(&net, kind, head.len() as u64);
        let doc = decode_snapshot(&text).expect("decode");
        assert_eq!(doc.strategy, kind);
        assert_eq!(doc.net.state_digest(), net.state_digest(), "{kind:?}");
        assert_eq!(doc.net.describe(), net.describe(), "{kind:?}");
        assert_eq!(
            encode_snapshot(&doc.net, kind, head.len() as u64),
            text,
            "{kind:?}: re-encode must be byte-identical"
        );

        // The restored state is a full substitute for the original.
        let mut restored = doc.net;
        let mut fresh = kind.build();
        for e in tail {
            strategy.apply(&mut net, e);
            fresh.apply(&mut restored, e);
        }
        assert_eq!(
            restored.state_digest(),
            net.state_digest(),
            "{kind:?}: post-restore churn"
        );
    }
}

proptest! {
    /// Random event streams × random crash sites × both cadence
    /// knobs, for each of Minim, CP and BBB: recovery is always an
    /// exact oracle prefix.
    #[test]
    fn recovery_is_an_oracle_prefix(
        seed in 0u64..1_000_000,
        n in 8usize..40,
        crash_frac in 0.0f64..1.0,
        keep in 0usize..16,
        sync_every in 1u64..4,
        snapshot_every in 0u64..9,
    ) {
        for kind in StrategyKind::ALL {
            oracle_prefix_case(kind, seed, n, crash_frac, keep, sync_every, snapshot_every)?;
        }
    }
}

/// One case of [`recovery_is_an_oracle_prefix`] for one strategy.
fn oracle_prefix_case(
    kind: StrategyKind,
    seed: u64,
    n: usize,
    crash_frac: f64,
    keep: usize,
    sync_every: u64,
    snapshot_every: u64,
) -> Result<(), String> {
    let events = churn_events(seed, n);
    let o = opts(kind, snapshot_every, sync_every);

    let clean = MemFs::new();
    drive(&clean, o, &events);
    let total_ops = clean.op_count();

    let crash_op = ((total_ops as f64) * crash_frac) as usize;
    let fs = MemFs::new();
    fs.arm(
        crash_op,
        Fault::Crash {
            keep_unsynced: keep,
        },
    );
    let acked = drive(&fs, o, &events);
    fs.revive();

    let eng = match Engine::open_with(Box::new(fs.clone()), o) {
        Ok(eng) => eng,
        Err(e) => {
            // Only legitimate if the crash predates a durable
            // genesis snapshot.
            prop_assert!(
                crash_op == 0,
                "{kind:?}: reopen failed after crash at op {crash_op}: {e}"
            );
            return Ok(());
        }
    };
    let total = eng.recovery_report().events_total as usize;
    prop_assert!(total <= events.len());
    if sync_every == 1 {
        prop_assert!(
            total >= acked,
            "{kind:?}: lost acknowledged events: {total} < {acked} (crash at {crash_op})"
        );
    }
    let reference = oracle(kind, &events[..total]);
    prop_assert_eq!(
        eng.net().state_digest(),
        reference.state_digest(),
        "{kind:?}: crash at {crash_op}"
    );
    prop_assert_eq!(eng.net().describe(), reference.describe(), "{kind:?}");
    Ok(())
}

/// The real-filesystem arm: journal + crash (simulated by closing the
/// engine and zeroing the tail of the last frame inside the
/// preallocated segment, as a lost write would), reopen, verify
/// against the oracle.
#[test]
fn diskfs_end_to_end_recovery() {
    let dir = std::env::temp_dir().join(format!("minim-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let events = churn_events(77, 24);
    let o = opts(StrategyKind::Minim, 10, 1);
    {
        let mut eng = Engine::open_dir(&dir, o).expect("open");
        for e in &events {
            eng.apply(e).expect("apply");
        }
        eng.close().expect("close");
    }

    // Tear the live segment's last frame, as a crashed kernel would:
    // its final bytes never reached the disk, which still holds zeros.
    let wal = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .expect("live segment");
    let mut bytes = std::fs::read(&wal).expect("read wal");
    assert_eq!(bytes.len() as u64, SEGMENT_BYTES, "segment is preallocated");
    let valid_len = scan(&bytes).valid_len;
    assert!(valid_len > 3, "segment holds frames");
    bytes[valid_len - 3..valid_len].fill(0);
    std::fs::write(&wal, &bytes).expect("tear");

    let eng = Engine::open_dir(&dir, o).expect("reopen");
    assert!(eng.recovery_report().bytes_truncated > 0);
    assert_eq!(eng.recovery_report().corrupt_frames, 0, "a tear, not rot");
    assert_matches_oracle(StrategyKind::Minim, &events, &eng, "diskfs tear");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The engine is a bit-transparent wrapper on the real filesystem:
/// journaling a stream through it, with every event acknowledged or
/// with fsyncs batched by 64, under periodic snapshot rotation, ends
/// in the same state as the bare strategy, and so does reopening the
/// directory. The first generation overflows one preallocated segment,
/// so the stream crosses a segment roll as well as rotations.
#[test]
fn diskfs_journaled_digest_equals_bare_strategy() {
    let events = churn_events_in(88, 14_000, 2_000.0, 0.005);
    let snapshot_every = 10_000;
    let journaled: usize = frame_lens(StrategyKind::Minim, &events[..snapshot_every])
        .iter()
        .sum();
    assert!(
        journaled > SEGMENT_BYTES as usize,
        "the first generation must roll: {journaled} bytes"
    );
    let bare = oracle(StrategyKind::Minim, &events).state_digest();
    for sync_every in [1, 64] {
        let dir = std::env::temp_dir().join(format!(
            "minim-serve-bare-{sync_every}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let o = opts(StrategyKind::Minim, snapshot_every as u64, sync_every);
        let mut eng = Engine::open_dir(&dir, o).expect("open");
        for e in &events {
            eng.apply(e).expect("apply");
        }
        assert!(eng.segment_seq() > 1, "a roll and a rotation happened");
        assert_eq!(eng.net().state_digest(), bare, "sync_every={sync_every}");
        eng.close().expect("close");

        let eng = Engine::open_dir(&dir, o).expect("reopen");
        assert_eq!(eng.recovery_report().events_total, events.len() as u64);
        assert_eq!(eng.recovery_report().bytes_truncated, 0);
        assert_eq!(eng.net().state_digest(), bare, "sync_every={sync_every}");
        drop(eng);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Journals `events` through Minim into one segment, with every event
/// acknowledged and no snapshot, and returns the store.
fn journaled(events: &[Event]) -> MemFs {
    let fs = MemFs::new();
    assert_eq!(
        drive(&fs, opts(StrategyKind::Minim, 0, 1), events),
        events.len()
    );
    fs
}

/// Rewrites `wal-0` of a [`journaled`] store as its first `at` frames,
/// then `planted`, then the rest. Returns the new segment and the byte
/// offset of the planted frame.
fn plant(fs: &MemFs, at: usize, planted: &[u8]) -> (Vec<u8>, usize) {
    let original = fs.with_raw("wal-0000000000", |d| d.clone());
    let frames: Vec<Vec<u8>> = scan(&original)
        .frames
        .iter()
        .map(|p| encode_frame(p))
        .collect();
    let offset: usize = frames[..at].iter().map(Vec::len).sum();
    let mut wal = frames[..at].concat();
    wal.extend_from_slice(planted);
    wal.extend(frames[at..].concat());
    fs.with_raw("wal-0000000000", |d| *d = wal.clone());
    (wal, offset)
}

/// A CRC-valid record that recovery cannot redo — whatever the reason —
/// quarantines recovery at the oracle prefix before it, names the
/// segment and byte offset, and keeps every byte on disk. Covers an
/// event naming an absent node (which used to panic the network's
/// mutators), a non-finite coordinate, writes to an absent node, a join
/// without a write for the joiner, and writes that break CA1.
#[test]
fn crc_valid_unreplayable_records_quarantine_at_the_oracle_prefix() {
    let events = churn_events(66, 14);
    let at = 5;
    let prefix = oracle(StrategyKind::Minim, &events[..at]);
    let joiner = prefix.peek_next_id();
    let far = |range| Event::Join {
        cfg: NodeConfig::new(Point::new(1e4, 1e4), range),
    };
    let host = prefix.iter_nodes().next().expect("the prefix has a node");
    let host_color = prefix.assignment().get(host).expect("colored");
    let absent = NodeId(999);
    let c1 = Color::new(1);
    type Case = (&'static str, Event, Vec<(NodeId, Color)>);
    let cases: Vec<Case> = vec![
        (
            "leave of an absent node",
            Event::Leave { node: absent },
            vec![],
        ),
        (
            "move of an absent node",
            Event::Move {
                node: absent,
                to: Point::new(1.0, 1.0),
            },
            vec![],
        ),
        (
            "set-range of an absent node",
            Event::SetRange {
                node: absent,
                range: 5.0,
            },
            vec![],
        ),
        (
            "NaN coordinate",
            Event::Join {
                cfg: NodeConfig {
                    pos: Point::new(f64::NAN, 1.0),
                    range: 5.0,
                },
            },
            vec![(joiner, c1)],
        ),
        (
            "write to an absent node",
            far(5.0),
            vec![(joiner, c1), (absent, c1)],
        ),
        ("join without a write for the joiner", far(5.0), vec![]),
        (
            "writes that break CA1",
            Event::Join {
                cfg: NodeConfig::new(prefix.config(host).expect("host").pos, 10.0),
            },
            vec![(joiner, host_color)],
        ),
    ];
    for (what, event, writes) in cases {
        let fs = journaled(&events);
        let (wal, planted_at) = plant(&fs, at, &record_frame(&event, &writes));
        for open in ["first", "second"] {
            let mut eng = Engine::open_with(Box::new(fs.clone()), opts(StrategyKind::Minim, 0, 1))
                .unwrap_or_else(|e| panic!("{what}: {open} open failed: {e}"));
            let r = *eng.recovery_report();
            assert_eq!(r.events_total, at as u64, "{what}: {open} open");
            assert_eq!(r.corrupt_frames, 1, "{what}: {open} open");
            assert_eq!(r.bytes_truncated, 0, "{what}: {open} open");
            assert_matches_oracle(StrategyKind::Minim, &events, &eng, what);
            let reason = eng.quarantine_reason().expect("quarantined");
            assert!(
                reason.contains("wal-0000000000") && reason.contains(&format!("byte {planted_at}")),
                "{what}: reason must name the segment and offset: {reason}"
            );
            assert!(matches!(
                eng.apply(&events[at]),
                Err(EngineError::Quarantined { .. })
            ));
            drop(eng);
            assert_eq!(fs.with_raw("wal-0000000000", |d| d.clone()), wal, "{what}");
        }
    }
}

/// Recovery commits the writes a record carries; it does not plan the
/// event again. The planted join is valid, but its writes are not the
/// ones Minim would choose, so a recovery that re-planned would end in
/// another coloring.
#[test]
fn recovery_applies_the_recorded_decision_not_a_replan() {
    let events = churn_events(66, 14);
    let fs = journaled(&events);
    let mut expected = oracle(StrategyKind::Minim, &events);
    let joiner = expected.peek_next_id();
    // Far from everyone: Minim gives the joiner color 1.
    let join = Event::Join {
        cfg: NodeConfig::new(Point::new(1e4, 1e4), 10.0),
    };
    let recorded = Color::new(7);
    let replanned = oracle(
        StrategyKind::Minim,
        &[events.clone(), vec![join.clone()]].concat(),
    );
    assert_ne!(replanned.assignment().get(joiner), Some(recorded));
    plant(
        &fs,
        events.len(),
        &record_frame(&join, &[(joiner, recorded)]),
    );

    let mut eng =
        Engine::open_with(Box::new(fs.clone()), opts(StrategyKind::Minim, 0, 1)).expect("open");
    assert!(!eng.is_quarantined(), "{:?}", eng.quarantine_reason());
    assert_eq!(eng.recovery_report().events_total, events.len() as u64 + 1);
    assert_eq!(eng.net().assignment().get(joiner), Some(recorded));
    apply_topology(&mut expected, &join);
    expected.set_color(joiner, recorded);
    assert_eq!(eng.net().state_digest(), expected.state_digest());
    eng.net()
        .validate()
        .expect("the recorded decision is valid");
    // The recovered state takes new events.
    eng.apply(&join).expect("apply after reopen");
}

/// A v1 directory (JSON snapshot and frames, as written before the
/// binary format) is refused with a `Corrupt` error naming format v1,
/// and a v1 segment behind a binary snapshot quarantines with its
/// bytes kept.
#[test]
fn format_v1_directories_are_refused_by_name() {
    let v1_snapshot = include_str!("fixtures/journal-v1/snap-0000000000.json").trim_end();
    let v1_wal: Vec<u8> = include_str!("fixtures/journal-v1/wal-0000000000.jsonl")
        .lines()
        .flat_map(|line| encode_frame(line.as_bytes()))
        .collect();
    let o = opts(StrategyKind::Minim, 0, 1);

    let fs = MemFs::new();
    fs.with_raw("snap-0000000000", |d| {
        *d = encode_frame(v1_snapshot.as_bytes())
    });
    fs.with_raw("wal-0000000000", |d| *d = v1_wal.clone());
    match Engine::open_with(Box::new(fs.clone()), o) {
        Ok(_) => panic!("a v1 snapshot must be refused"),
        Err(EngineError::Corrupt { detail }) => {
            assert!(detail.contains("format v1"), "{detail}")
        }
        Err(e) => panic!("expected Corrupt, got {e}"),
    }
    assert_eq!(fs.with_raw("wal-0000000000", |d| d.clone()), v1_wal);

    // A binary genesis snapshot with the v1 segment behind it.
    let fs = MemFs::new();
    drop(Engine::open_with(Box::new(fs.clone()), o).expect("genesis"));
    fs.with_raw("wal-0000000000", |d| *d = v1_wal.clone());
    let eng = Engine::open_with(Box::new(fs.clone()), o).expect("open");
    assert_eq!(eng.recovery_report().events_total, 0);
    let reason = eng.quarantine_reason().expect("quarantined");
    assert!(
        reason.contains("format v1") && reason.contains("wal-0000000000 at byte 0"),
        "{reason}"
    );
    drop(eng);
    assert_eq!(fs.with_raw("wal-0000000000", |d| d.clone()), v1_wal);
}

/// The engine applies an event before journaling it, so a failed append
/// leaves the event in memory but not on disk: `apply` returns `Err`,
/// the engine quarantines, and reopening recovers the prefix without
/// the event.
#[test]
fn failed_append_quarantines_and_reopen_recovers_the_prefix() {
    let events = churn_events(21, 10);
    let o = opts(StrategyKind::Minim, 0, 1);
    for keep in [0usize, 9] {
        let fs = MemFs::new();
        // Op 0 is genesis, op 1 the segment's preallocation, then
        // append + sync per event: fail the 6th event's append.
        fs.arm(2 + 5 * 2, Fault::ShortWrite { keep });
        let mut eng = Engine::open_with(Box::new(fs.clone()), o).expect("open");
        for e in &events[..5] {
            eng.apply(e).expect("clean prefix");
        }
        let err = eng.apply(&events[5]).unwrap_err();
        assert!(matches!(err, EngineError::Io { op: "append", .. }), "{err}");
        assert!(eng.is_quarantined());
        assert_eq!(eng.events_applied(), 6, "memory is one event ahead");
        assert_eq!(
            eng.net().state_digest(),
            oracle(StrategyKind::Minim, &events[..6]).state_digest()
        );
        assert!(matches!(
            eng.apply(&events[6]),
            Err(EngineError::Quarantined { .. })
        ));
        drop(eng);

        let eng = Engine::open_with(Box::new(fs), o).expect("reopen");
        assert!(!eng.is_quarantined());
        assert_eq!(eng.recovery_report().events_total, 5, "keep={keep}");
        assert_matches_oracle(StrategyKind::Minim, &events, &eng, "failed append");
    }
}
