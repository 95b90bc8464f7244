//! The binary codec for journal records and network snapshots.
//!
//! One fixed-layout, little-endian encoding serves both. Every payload
//! opens with a format byte, [`FORMAT`]; a payload of the retired v1
//! JSON format opens with `{` and is refused ([`CodecError::Format`]
//! names it). `f64`s are stored as their IEEE-754 bits, so a value
//! survives encode → decode bit-identically, and the same state always
//! produces the same bytes, which is what lets the recovery tests
//! compare whole snapshots.
//!
//! ## Journal record
//!
//! One record per applied event: the event plus the writes its
//! strategy decided on, so that recovery redoes them without planning.
//!
//! | bytes | field |
//! |---|---|
//! | 1 | format, [`FORMAT`] |
//! | 1 | kind: 0 join, 1 leave, 2 move, 3 set-range |
//! | 24 | join: `x`, `y`, `range` (`f64` each) |
//! | 4 | leave: `node` (`u32`) |
//! | 20 | move: `node` (`u32`), `x`, `y` (`f64`) |
//! | 12 | set-range: `node` (`u32`), `range` (`f64`) |
//! | 8 · k | writes to the end: `node` (`u32`), `color` (`u32`, ≥ 1), node ids strictly ascending |
//!
//! A Minim join that recodes nobody else is 34 bytes. The record holds
//! no write count: the writes fill the rest of the payload, whose
//! length the journal frame stores and checksums.
//!
//! ## Snapshot
//!
//! Everything [`Network`] needs to rebuild itself, the strategy and the
//! applied-event count, and the source network's fingerprint, so that
//! a restore verifies itself.
//!
//! | bytes | field |
//! |---|---|
//! | 1 | format, [`FORMAT`] |
//! | 1 | strategy: 0 Minim, 1 CP, 2 BBB |
//! | 1 | flat spatial index: 0 or 1 |
//! | 8 | events applied (`u64`) |
//! | 8 | cell hint (`f64`) |
//! | 4 | id watermark, the next join's id (`u32`) |
//! | 8 + 8 + 4 | fingerprint: nodes, edges (`u64`), max color (`u32`) |
//! | 4 + 32 · w | obstacle count (`u32`), then `ax`, `ay`, `bx`, `by` (`f64`) each |
//! | 4 + 32 · n | node count (`u32`), then per node in ascending id order: `id` (`u32`), `x`, `y`, `range` (`f64`), `color` (`u32`, 0 = uncolored) |
//!
//! A restore parses every wall and node before it builds anything, and
//! checks each field against the header: ids below the id watermark,
//! colors at most the max color, counts no larger than the remaining
//! bytes can hold. No capacity is taken from an unchecked value. The
//! network is then built in one pass by [`Network::load_nodes`] (one
//! forward query per node, in-sets by transposing, no deltas), and its
//! fingerprint is compared with the stored one.

use minim_core::{ColorPlan, StrategyKind};
use minim_geom::{Point, Segment};
use minim_graph::{Color, NodeId};
use minim_net::event::Event;
use minim_net::{Network, NetworkFingerprint, NodeConfig};

/// The format byte that opens every record and snapshot payload.
pub const FORMAT: u8 = 2;

/// A payload that does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The leading byte names a format this build does not read; `{`
    /// is the retired v1 JSON format.
    Format(u8),
    /// The payload ended inside its layout, or bytes follow its end.
    Length,
    /// A field holds a value the layout forbids; names the field.
    Invalid(&'static str),
    /// The rebuilt snapshot's fingerprint differs from the stored one.
    Fingerprint {
        /// The fingerprint stored at encode time.
        stored: NetworkFingerprint,
        /// The fingerprint of the rebuilt network.
        rebuilt: NetworkFingerprint,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Format(b'{') => write!(f, "format v1 (JSON) is not read by this build"),
            CodecError::Format(tag) => write!(f, "unknown format byte {tag}"),
            CodecError::Length => write!(f, "payload length does not match its layout"),
            CodecError::Invalid(what) => write!(f, "invalid {what}"),
            CodecError::Fingerprint { stored, rebuilt } => write!(
                f,
                "snapshot fingerprint mismatch: stored {stored:?}, rebuilt {rebuilt:?}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

/// A cursor over a payload; every read fails with
/// [`CodecError::Length`] past the end.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Checks the format byte and positions the cursor after it.
    fn open(bytes: &'a [u8]) -> Result<Reader<'a>, CodecError> {
        match bytes.first() {
            Some(&FORMAT) => Ok(Reader { bytes: &bytes[1..] }),
            Some(&tag) => Err(CodecError::Format(tag)),
            None => Err(CodecError::Length),
        }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or(CodecError::Length)?;
        self.bytes = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        self.take().map(f64::from_le_bytes)
    }

    fn point(&mut self) -> Result<Point, CodecError> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    fn node(&mut self) -> Result<NodeId, CodecError> {
        self.u32().map(NodeId)
    }

    /// A `u32` color field: 0 reads as uncolored.
    fn color(&mut self) -> Result<Option<Color>, CodecError> {
        Ok(match self.u32()? {
            0 => None,
            c => Some(Color::new(c)),
        })
    }

    fn finish(&self) -> Result<(), CodecError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Length)
        }
    }
}

// ------------------------------------------------------------- records

/// Appends the record of `event` and its `writes` to `out`. The writes
/// must come in strictly ascending node order, as
/// [`minim_core::RecodeOutcome::recoded`] lists them. Allocates nothing
/// once `out` has the capacity.
pub fn encode_record(
    event: &Event,
    writes: impl IntoIterator<Item = (NodeId, Color)>,
    out: &mut Vec<u8>,
) {
    out.push(FORMAT);
    match event {
        Event::Join { cfg } => {
            out.push(0);
            put_point(out, cfg.pos);
            put_f64(out, cfg.range);
        }
        Event::Leave { node } => {
            out.push(1);
            put_u32(out, node.0);
        }
        Event::Move { node, to } => {
            out.push(2);
            put_u32(out, node.0);
            put_point(out, *to);
        }
        Event::SetRange { node, range } => {
            out.push(3);
            put_u32(out, node.0);
            put_f64(out, *range);
        }
    }
    for (node, color) in writes {
        put_u32(out, node.0);
        put_u32(out, color.index());
    }
}

/// Decodes a record: returns its event and replaces `writes` with its
/// writes. Checks the layout only (the writes are ascending and name
/// real colors); whether the event and writes fit a network is for
/// the replaying engine to check.
pub fn decode_record(payload: &[u8], writes: &mut ColorPlan) -> Result<Event, CodecError> {
    let mut r = Reader::open(payload)?;
    let event = match r.u8()? {
        0 => Event::Join {
            cfg: NodeConfig::new(r.point()?, r.f64()?),
        },
        1 => Event::Leave { node: r.node()? },
        2 => Event::Move {
            node: r.node()?,
            to: r.point()?,
        },
        3 => Event::SetRange {
            node: r.node()?,
            range: r.f64()?,
        },
        _ => return Err(CodecError::Invalid("event kind")),
    };
    writes.clear();
    while !r.bytes.is_empty() {
        let node = r.node()?;
        let color = r.color()?.ok_or(CodecError::Invalid("write color 0"))?;
        if writes.last().is_some_and(|&(prev, _)| prev >= node) {
            return Err(CodecError::Invalid("write order"));
        }
        writes.push((node, color));
    }
    Ok(event)
}

// ----------------------------------------------------------- snapshots

/// A decoded snapshot: the reconstructed network plus the engine
/// metadata stored alongside it.
pub struct SnapshotDoc {
    /// The restored network state.
    pub net: Network,
    /// The strategy that produced (and must continue) this state.
    pub strategy: StrategyKind,
    /// Events applied to reach this state since genesis.
    pub events_applied: u64,
}

/// Encodes the full network state.
pub fn encode_snapshot(net: &Network, strategy: StrategyKind, events_applied: u64) -> Vec<u8> {
    let fp = net.fingerprint();
    let nodes = net.describe();
    let walls = net.obstacles();
    let mut out = Vec::with_capacity(64 + 32 * (walls.len() + nodes.len()));
    out.push(FORMAT);
    let strategy_byte = StrategyKind::ALL.iter().position(|&k| k == strategy);
    out.push(strategy_byte.expect("ALL lists every strategy") as u8);
    out.push(u8::from(net.is_flat()));
    put_u64(&mut out, events_applied);
    put_f64(&mut out, net.cell_size_hint());
    put_u32(&mut out, fp.next_id);
    put_u64(&mut out, fp.nodes as u64);
    put_u64(&mut out, fp.edges as u64);
    put_u32(&mut out, fp.max_color);
    put_u32(&mut out, walls.len() as u32);
    for s in walls {
        put_point(&mut out, s.a);
        put_point(&mut out, s.b);
    }
    put_u32(&mut out, nodes.len() as u32);
    for (id, pos, range, color) in nodes {
        put_u32(&mut out, id.0);
        put_point(&mut out, pos);
        put_f64(&mut out, range);
        put_u32(&mut out, color.map_or(0, Color::index));
    }
    out
}

/// Bytes per stored obstacle.
const WALL_BYTES: usize = 32;
/// Bytes per stored node.
const NODE_BYTES: usize = 32;

/// Decodes and **verifies** a snapshot. Every field is parsed and
/// checked against the header before anything is built: a node id at
/// or above the stored id watermark, a color above the stored max
/// color, or a count the remaining bytes cannot hold is refused
/// without allocating by it. The network is then rebuilt (obstacles
/// first, then every node in one pass through
/// [`Network::load_nodes`], then colors), and its fingerprint must
/// match the one stored at encode time — a mismatch means the payload
/// was damaged in a CRC-preserving way or the rebuild logic has
/// drifted, and the snapshot is rejected.
pub fn decode_snapshot(payload: &[u8]) -> Result<SnapshotDoc, CodecError> {
    let finite = |v: f64, what| {
        if v.is_finite() {
            Ok(v)
        } else {
            Err(CodecError::Invalid(what))
        }
    };
    let mut r = Reader::open(payload)?;
    let strategy = *StrategyKind::ALL
        .get(usize::from(r.u8()?))
        .ok_or(CodecError::Invalid("strategy"))?;
    let flat = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("flat flag")),
    };
    let events_applied = r.u64()?;
    let cell_hint = r.f64()?;
    if !(cell_hint.is_finite() && cell_hint > 0.0) {
        return Err(CodecError::Invalid("cell hint"));
    }
    let next_id = r.u32()?;
    let stored = NetworkFingerprint {
        nodes: r.u64()? as usize,
        next_id,
        edges: r.u64()? as usize,
        max_color: r.u32()?,
    };
    // A count is only trusted once the bytes it claims are there.
    let count = |r: &mut Reader, size: usize| {
        let k = r.u32()? as usize;
        if k > r.bytes.len() / size {
            return Err(CodecError::Length);
        }
        Ok(k)
    };

    let wall_count = count(&mut r, WALL_BYTES)?;
    let mut walls = Vec::with_capacity(wall_count);
    for _ in 0..wall_count {
        let a = r.point()?;
        let b = r.point()?;
        for v in [a.x, a.y, b.x, b.y] {
            finite(v, "obstacle coordinate")?;
        }
        walls.push(Segment::new(a, b));
    }
    let node_count = count(&mut r, NODE_BYTES)?;
    let mut nodes: Vec<(NodeId, NodeConfig)> = Vec::with_capacity(node_count);
    let mut colors: Vec<(NodeId, Color)> = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let id = r.node()?;
        if nodes.last().is_some_and(|&(prev, _)| prev >= id) {
            return Err(CodecError::Invalid("node order"));
        }
        if id.0 >= next_id {
            return Err(CodecError::Invalid("node id"));
        }
        let pos = r.point()?;
        finite(pos.x, "node position")?;
        finite(pos.y, "node position")?;
        let range = finite(r.f64()?, "node range")?;
        if range < 0.0 {
            return Err(CodecError::Invalid("node range"));
        }
        nodes.push((id, NodeConfig::new(pos, range)));
        if let Some(c) = r.color()? {
            if c.index() > stored.max_color {
                return Err(CodecError::Invalid("color"));
            }
            colors.push((id, c));
        }
    }
    r.finish()?;

    let mut net = if flat {
        Network::new_flat(cell_hint)
    } else {
        Network::new(cell_hint)
    };
    // Obstacles go in while the network is empty: `add_obstacle`
    // rewires affected links, and with zero nodes that's free.
    for wall in walls {
        net.add_obstacle(wall);
    }
    net.load_nodes(&nodes);
    for (id, c) in colors {
        net.set_color(id, c);
    }
    net.restore_id_watermark(next_id);

    let rebuilt = net.fingerprint();
    if rebuilt != stored {
        return Err(CodecError::Fingerprint { stored, rebuilt });
    }
    Ok(SnapshotDoc {
        net,
        strategy,
        events_applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<(Event, ColorPlan)> {
        vec![
            (
                Event::Join {
                    cfg: NodeConfig::new(Point::new(0.125, -3.75), 5.5),
                },
                vec![(NodeId(2), Color::new(3)), (NodeId(9), Color::new(1))],
            ),
            (Event::Leave { node: NodeId(3) }, vec![]),
            (
                Event::Move {
                    node: NodeId(1),
                    to: Point::new(0.1 + 0.2, 9.0), // deliberately non-representable sum
                },
                vec![(NodeId(1), Color::new(u32::MAX))],
            ),
            (
                Event::SetRange {
                    node: NodeId(2),
                    range: 7.25,
                },
                vec![],
            ),
        ]
    }

    #[test]
    fn records_roundtrip_bit_identically() {
        let mut writes = ColorPlan::new();
        for (event, plan) in sample_records() {
            let mut bytes = Vec::new();
            encode_record(&event, plan.iter().copied(), &mut bytes);
            assert_eq!(bytes[0], FORMAT);
            let back = decode_record(&bytes, &mut writes).unwrap();
            assert_eq!(back, event);
            assert_eq!(writes, plan);
            // Second generation must be byte-identical (stable output).
            let mut again = Vec::new();
            encode_record(&back, writes.iter().copied(), &mut again);
            assert_eq!(again, bytes);
        }
    }

    #[test]
    fn record_decode_rejects_malformed_payloads() {
        let mut join = Vec::new();
        let (event, plan) = &sample_records()[0];
        encode_record(event, plan.iter().copied(), &mut join);
        let mut writes = ColorPlan::new();
        let decode = |bytes: &[u8], writes: &mut ColorPlan| decode_record(bytes, writes);

        assert_eq!(decode(&[], &mut writes), Err(CodecError::Length));
        assert_eq!(
            decode(b"{\"t\":\"leave\",\"node\":1}", &mut writes),
            Err(CodecError::Format(b'{'))
        );
        assert_eq!(
            decode(&[FORMAT, 9], &mut writes),
            Err(CodecError::Invalid("event kind"))
        );
        // A short body, and a partial write.
        assert_eq!(decode(&join[..20], &mut writes), Err(CodecError::Length));
        assert_eq!(
            decode(&join[..join.len() - 1], &mut writes),
            Err(CodecError::Length)
        );
        // Color 0 and a write order that is not strictly ascending.
        let mut bad = join.clone();
        bad[30..34].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode(&bad, &mut writes),
            Err(CodecError::Invalid("write color 0"))
        );
        let mut bad = join.clone();
        bad[34..38].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode(&bad, &mut writes),
            Err(CodecError::Invalid("write order"))
        );
    }

    #[test]
    fn snapshot_roundtrips_a_colored_network() {
        let mut strategy = StrategyKind::Minim.build();
        let mut net = Network::new(6.0);
        net.add_obstacle(Segment::new(Point::new(3.0, -10.0), Point::new(3.0, 10.0)));
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        use rand::{Rng, SeedableRng};
        for _ in 0..40 {
            let cfg = NodeConfig::new(
                Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0)),
                rng.gen_range(3.0..8.0),
            );
            strategy.apply(&mut net, &Event::Join { cfg });
        }
        strategy.apply(&mut net, &Event::Leave { node: NodeId(5) });

        let bytes = encode_snapshot(&net, StrategyKind::Minim, 41);
        let doc = decode_snapshot(&bytes).unwrap();
        assert_eq!(doc.strategy, StrategyKind::Minim);
        assert_eq!(doc.events_applied, 41);
        assert_eq!(doc.net.state_digest(), net.state_digest());
        assert_eq!(doc.net.describe(), net.describe());
        assert_eq!(doc.net.obstacles(), net.obstacles());
        // Re-encoding the restored network reproduces the exact bytes.
        assert_eq!(encode_snapshot(&doc.net, doc.strategy, 41), bytes);
    }

    #[test]
    fn snapshot_rejects_fingerprint_mismatch_and_bad_layout() {
        let mut net = Network::new(5.0);
        net.insert_node(NodeId(0), NodeConfig::new(Point::new(0.0, 0.0), 4.0));
        let bytes = encode_snapshot(&net, StrategyKind::Cp, 1);
        // The stored node count sits after format, strategy, flat,
        // events applied, cell hint and id watermark.
        let mut tampered = bytes.clone();
        tampered[23] = 2;
        assert!(matches!(
            decode_snapshot(&tampered),
            Err(CodecError::Fingerprint { .. })
        ));
        let mut bumped = bytes.clone();
        bumped[0] = 99;
        assert_eq!(decode_snapshot(&bumped).err(), Some(CodecError::Format(99)));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_snapshot(&trailing).err(), Some(CodecError::Length));
        assert_eq!(
            decode_snapshot(&bytes[..bytes.len() - 1]).err(),
            Some(CodecError::Length)
        );
    }

    /// A CRC-valid snapshot whose fields disagree with its own header
    /// is refused while parsing, before any slab is sized by the bad
    /// value.
    #[test]
    fn snapshot_rejects_fields_beyond_its_header_before_building() {
        let mut net = Network::new(5.0);
        for i in 0..5 {
            let id = net.join(NodeConfig::new(Point::new(f64::from(i) * 3.0, 0.0), 4.0));
            net.set_color(id, Color::new(i % 2 + 1));
        }
        let bytes = encode_snapshot(&net, StrategyKind::Minim, 5);
        // Header 23 bytes, fingerprint 20, wall count 4 (no walls),
        // node count 4; then 32 bytes per node: id, x, y, range, color.
        const WALL_COUNT: usize = 43;
        const NODE_COUNT: usize = 47;
        let last_node = 51 + 4 * 32;
        let patched = |at: usize, v: u32| {
            let mut b = bytes.clone();
            b[at..at + 4].copy_from_slice(&v.to_le_bytes());
            decode_snapshot(&b).err()
        };
        assert!(decode_snapshot(&bytes).is_ok());
        // Watermark 5, id 2^20: refused before the slabs grow to it.
        assert_eq!(
            patched(last_node, 1 << 20),
            Some(CodecError::Invalid("node id"))
        );
        assert_eq!(patched(last_node, 5), Some(CodecError::Invalid("node id")));
        // Max color 2, color 2^20.
        assert_eq!(
            patched(last_node + 28, 1 << 20),
            Some(CodecError::Invalid("color"))
        );
        assert_eq!(
            patched(last_node + 28, 3),
            Some(CodecError::Invalid("color"))
        );
        // Counts the remaining bytes cannot hold.
        assert_eq!(patched(NODE_COUNT, 6), Some(CodecError::Length));
        assert_eq!(patched(NODE_COUNT, u32::MAX), Some(CodecError::Length));
        assert_eq!(patched(WALL_COUNT, 7), Some(CodecError::Length));
        assert_eq!(patched(WALL_COUNT, u32::MAX), Some(CodecError::Length));
        // A cell hint the index cannot be built with.
        let mut b = bytes.clone();
        b[11..19].copy_from_slice(&0f64.to_le_bytes());
        assert_eq!(
            decode_snapshot(&b).err(),
            Some(CodecError::Invalid("cell hint"))
        );
    }
}
