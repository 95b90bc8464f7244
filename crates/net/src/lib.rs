//! The power-controlled ad-hoc network substrate.
//!
//! §2 of the paper: a network is a set of nodes, each with a position
//! in the plane and a (variable) maximum transmission power range; the
//! induced digraph has an edge `v_i → v_j` iff `d_ij <= r_i`. Nodes
//! may **join**, **leave**, **move**, and **increase/decrease power**;
//! each such reconfiguration updates the induced digraph, and it is the
//! recoding strategy's job (`minim-core`) to restore CA1/CA2 on the new
//! graph.
//!
//! [`Network`] owns:
//!
//! * the node configurations ([`NodeConfig`]: position + range),
//! * the induced [`DiGraph`], maintained incrementally through a
//!   range-stratified [`StratifiedGrid`] so topology updates cost
//!   `O(affected neighborhood)` rather than `O(n)` — and, crucially,
//!   the *reverse-reach* part of that neighborhood ("who can hear the
//!   initiator?") is scanned per range tier instead of at the global
//!   maximum range,
//! * the current code [`Assignment`],
//! * the last topology step's [`TopologyDelta`].
//!
//! Every topology step ([`Network::insert_node`],
//! [`Network::remove_node`], [`Network::move_node`],
//! [`Network::set_range`], and each node's rewire in
//! [`Network::add_obstacle`]) refills the network's one
//! [`TopologyDelta`] in place — the exact added/removed digraph edges
//! and the initiating node's resulting neighborhood — and
//! [`Network::delta`] lends it out until the next mutation. The layers
//! above (validation, recoding strategies, the simulator, the
//! distributed protocols) read it and do `O(affected neighborhood)`
//! work per event instead of re-deriving state from the full graph.
//! See the [`delta`] module docs for the contract. The one exception
//! is [`Network::load_nodes`], which builds a whole node set into an
//! empty network in one pass and records no delta (snapshot restore).
//!
//! [`event::Event`] reifies the four reconfiguration types;
//! [`workload`] generates the randomized event sequences of §5 plus
//! the scenario lab's richer regimes (clustered placement,
//! heterogeneous ranges, interleaved churn).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod event;
pub mod mobility;
pub mod trace;
pub mod workload;

pub use delta::{DeltaKind, TopologyDelta};

use minim_geom::{Point, Rect, Segment, SegmentGrid, StratifiedGrid};
use minim_graph::conflict;
use minim_graph::{Assignment, Color, DiGraph, NodeId};

/// Structural digest of a [`Network`]: node count, id watermark, edge
/// count, max color index. Cheap (`O(1)`) to compute.
///
/// `minim-serve`'s recovery verification uses it: a restored snapshot
/// must fingerprint-match what was persisted. It is deliberately *not*
/// a full state hash — see [`Network::state_digest`] for the strong
/// form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkFingerprint {
    /// Present node count.
    pub nodes: usize,
    /// The id the next [`Network::next_id`] call would allocate.
    pub next_id: u32,
    /// Induced digraph edge count.
    pub edges: usize,
    /// Maximum color index currently assigned (0 when uncolored).
    pub max_color: u32,
}

/// A node's radio configuration: where it is and how far it transmits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Position in the plane.
    pub pos: Point,
    /// Maximum transmission power range (`r_i` in the paper).
    pub range: f64,
}

impl NodeConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if `range` is negative or not finite.
    pub fn new(pos: Point, range: f64) -> Self {
        assert!(
            range.is_finite() && range >= 0.0,
            "range must be finite and non-negative, got {range}"
        );
        NodeConfig { pos, range }
    }
}

/// The `1n / 2n / 3n` partition induced on the existing nodes by node
/// `n` (Fig 2 of the paper):
///
/// * `one` — nodes with an edge **into** `n` only (they can reach `n`,
///   `n` cannot reach them);
/// * `two` — nodes with edges in **both** directions;
/// * `three` — nodes `n` reaches but that cannot reach `n`;
/// * set `4n` (no edges either way) is implicit — everyone else.
///
/// The recode set of a join/move is `one ∪ two ∪ {n}`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JoinPartitions {
    /// In-only neighbors (`1n`), sorted.
    pub one: Vec<NodeId>,
    /// Bidirectional neighbors (`2n`), sorted.
    pub two: Vec<NodeId>,
    /// Out-only neighbors (`3n`), sorted.
    pub three: Vec<NodeId>,
}

impl JoinPartitions {
    /// `1n ∪ 2n` — the existing nodes that must all end up with
    /// pairwise-distinct colors (they all transmit into `n`).
    pub fn in_union(&self) -> Vec<NodeId> {
        let mut v = self.one.clone();
        v.extend_from_slice(&self.two);
        v.sort_unstable();
        v
    }

    /// Classifies a node's neighborhood from its sorted in- and
    /// out-neighbor lists — one merge pass, no graph access. This is
    /// how both [`Network::partitions`] and
    /// [`TopologyDelta::partitions`] compute the Fig 2 partition.
    pub fn from_sorted_neighbors(inn: &[NodeId], out: &[NodeId]) -> JoinPartitions {
        debug_assert!(inn.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
        let mut p = JoinPartitions::default();
        let (mut i, mut j) = (0, 0);
        while i < inn.len() && j < out.len() {
            match inn[i].cmp(&out[j]) {
                std::cmp::Ordering::Less => {
                    p.one.push(inn[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    p.three.push(out[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    p.two.push(inn[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        p.one.extend_from_slice(&inn[i..]);
        p.three.extend_from_slice(&out[j..]);
        p
    }
}

/// A power-controlled ad-hoc network with its induced digraph, the
/// current code assignment, and the [`TopologyDelta`] of its last
/// topology step ([`Network::delta`]).
///
/// Hot-path state is stored in dense slabs indexed by [`NodeId`]
/// (node configurations here, adjacency in [`DiGraph`], colors in
/// [`Assignment`], positions and ranges in [`StratifiedGrid`]) — ids
/// are allocated densely from 0, so every per-node lookup is direct
/// indexing.
#[derive(Debug, Clone)]
pub struct Network {
    graph: DiGraph,
    /// Dense slab aligned with the digraph's slots:
    /// `configs[id.index()]` is the node's radio configuration.
    configs: Vec<Option<NodeConfig>>,
    /// Range-stratified spatial index: positions *and* ranges, so
    /// reverse-reach queries scan each range tier at its own cap.
    grid: StratifiedGrid,
    assignment: Assignment,
    next_id: u32,
    /// Opaque walls for the §2 non-free-space generalization: a link
    /// exists only when in range **and** unobstructed. Indexed by a
    /// cell grid so sight-line tests probe only nearby walls.
    obstacles: SegmentGrid,
    /// The initiating node's neighbor lists before the step, for the
    /// edge diff. The new lists are built in `delta` itself.
    old_out: Vec<NodeId>,
    old_in: Vec<NodeId>,
    /// Nodes whose clear bound a rewire lowers, with the new bound:
    /// collected during the reverse query, written after it.
    lowered: Vec<(u32, f64)>,
    /// The last topology step's delta, refilled in place by every step
    /// so steady-state event application performs zero heap
    /// allocations.
    delta: TopologyDelta,
}

impl Network {
    /// Creates an empty network. `cell_size_hint` sizes the spatial
    /// index's base tier and anchors the geometric range-tier
    /// boundaries; a good value is the typical transmission range (the
    /// paper's experiments use ~25).
    pub fn new(cell_size_hint: f64) -> Self {
        Network::with_grid(StratifiedGrid::new(cell_size_hint), cell_size_hint)
    }

    /// Creates an empty network whose spatial index is **flat** — one
    /// tier, monotone range watermark — i.e. the pre-stratification
    /// behavior, where a single long-range node permanently inflates
    /// every reverse-reach scan. Exists for A/B benchmarking (the
    /// serve engine's `flat` option) and equivalence tests; the two
    /// modes are bit-identical in results, only costs differ.
    pub fn new_flat(cell_size_hint: f64) -> Self {
        Network::with_grid(StratifiedGrid::new_flat(cell_size_hint), cell_size_hint)
    }

    fn with_grid(grid: StratifiedGrid, cell_size_hint: f64) -> Self {
        Network {
            graph: DiGraph::new(),
            configs: Vec::new(),
            grid,
            assignment: Assignment::new(),
            next_id: 0,
            obstacles: SegmentGrid::new(cell_size_hint),
            old_out: Vec::new(),
            old_in: Vec::new(),
            lowered: Vec::new(),
            delta: TopologyDelta::default(),
        }
    }

    /// Adds an opaque wall (§2's non-free-space generalization) and
    /// rewires every node's links, in id order. Obstacles only
    /// *remove* edges, i.e. only remove constraints, so a valid
    /// assignment stays valid.
    ///
    /// Each rewire is a [`DeltaKind::Rewire`] step, so afterwards
    /// [`Network::delta`] holds only the last node's.
    pub fn add_obstacle(&mut self, wall: Segment) {
        self.obstacles.insert(wall);
        // Hold the ids across the rewires below (which mutate the
        // graph), so the allocation is necessary here.
        let ids: Vec<NodeId> = self.iter_nodes().collect();
        for id in ids {
            self.rewire(id, DeltaKind::Rewire);
        }
    }

    /// The installed obstacles.
    pub fn obstacles(&self) -> &[Segment] {
        self.obstacles.walls()
    }

    /// Whether the sight line between two points crosses a wall.
    /// Probes only the walls whose cells the sight line touches.
    pub fn line_blocked(&self, a: &Point, b: &Point) -> bool {
        self.obstacles.blocked(a, b)
    }

    /// The obstacle index itself, for attenuated (counting) sight-line
    /// queries: where the link predicate treats one wall as opaque,
    /// the physical layer (`minim-power`) charges a per-wall
    /// penetration loss via [`SegmentGrid::crossings`].
    pub fn obstacle_index(&self) -> &SegmentGrid {
        &self.obstacles
    }

    /// The [`TopologyDelta`] of the last topology step, valid until
    /// the next mutation. A network that has taken no step yet holds
    /// the empty default delta.
    pub fn delta(&self) -> &TopologyDelta {
        &self.delta
    }

    /// Allocates a fresh node id (strictly increasing; also the CP
    /// baseline's node identity).
    pub fn next_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// The id the next [`Network::next_id`] call would return, without
    /// allocating it. Callers that must know a join's id before
    /// applying it (event generators, snapshot encoding) read it here.
    pub fn peek_next_id(&self) -> NodeId {
        NodeId(self.next_id)
    }

    /// An upper bound on every present node's transmission range,
    /// **derived from range-tier occupancy** (the scan radius of the
    /// highest occupied tier; at most 2× the true maximum). Unlike the
    /// old monotone watermark it *tightens* when long-range nodes
    /// shrink or leave. In a [`Network::new_flat`] network this is the
    /// legacy monotone watermark.
    pub fn range_bound(&self) -> f64 {
        self.grid.range_bound()
    }

    /// The spatial-index cell size this network was built with.
    /// Snapshots record it so a restore rebuilds the same index.
    pub fn cell_size_hint(&self) -> f64 {
        self.grid.base_cell()
    }

    /// The induced digraph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The current code assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Mutable access to the assignment (recoding strategies write
    /// through this).
    pub fn assignment_mut(&mut self) -> &mut Assignment {
        &mut self.assignment
    }

    /// The configuration of `id`, if present.
    #[inline]
    pub fn config(&self, id: NodeId) -> Option<NodeConfig> {
        self.configs.get(id.index()).copied().flatten()
    }

    /// Mutable slot for `id`'s configuration, growing the slab.
    fn config_slot(&mut self, id: NodeId) -> &mut Option<NodeConfig> {
        let i = id.index();
        if i >= self.configs.len() {
            self.configs.resize(i + 1, None);
        }
        &mut self.configs[i]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Whether `id` is in the network.
    pub fn contains(&self, id: NodeId) -> bool {
        self.graph.contains(id)
    }

    /// Present node ids, ascending, as a freshly allocated `Vec`.
    ///
    /// Prefer [`Network::iter_nodes`] in hot loops — it borrows instead
    /// of allocating. This form remains for callers that need to hold
    /// the ids across mutations.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.graph.nodes().collect()
    }

    /// Borrowing iterator over present node ids, ascending. Allocation
    /// free — the hot-loop replacement for [`Network::node_ids`].
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes()
    }

    /// Validates CA1/CA2 on the current graph and assignment.
    pub fn validate(&self) -> Result<(), conflict::Violation> {
        conflict::validate(&self.graph, &self.assignment)
    }

    /// Inserts node `id` with configuration `cfg` and wires up the
    /// induced edges in both directions. The node starts **uncolored**;
    /// the recoding strategy must assign it a code.
    ///
    /// Records the insertion's [`TopologyDelta`]: every new edge (all
    /// incident to `id`) plus `id`'s resulting neighbor lists — from
    /// which the recode set `1n ∪ 2n ∪ {n}` follows without another
    /// graph traversal.
    ///
    /// # Panics
    /// Panics if `id` already exists.
    pub fn insert_node(&mut self, id: NodeId, cfg: NodeConfig) {
        assert!(
            !self.graph.contains(id),
            "insert_node: {id} already present"
        );
        self.graph.insert_node(id);
        *self.config_slot(id) = Some(cfg);
        self.next_id = self.next_id.max(id.0 + 1);
        self.grid.insert(id.0, cfg.pos, cfg.range);
        self.rewire(id, DeltaKind::Insert)
    }

    /// Inserts `nodes`, uncolored, into a network that holds no nodes
    /// (obstacles may already be installed), in one pass and with no
    /// deltas. The result equals inserting them one by one with
    /// [`Network::insert_node`] in the same order: grid entries go in
    /// in id order, each node's out-set comes from one forward query
    /// with the same line-of-sight filter as the event path, and the
    /// in-sets are its transpose ([`DiGraph::fill_edgeless`]). There
    /// is no reverse-reach query, since every in-edge is some other
    /// node's out-edge. Each node's clear bound comes from its forward
    /// query over the whole set, so it may differ from the bound the
    /// inserts leave; only costs depend on it. Snapshot restore builds
    /// through this.
    ///
    /// # Panics
    /// Panics if the network holds a node or the ids are not strictly
    /// ascending.
    pub fn load_nodes(&mut self, nodes: &[(NodeId, NodeConfig)]) {
        assert_eq!(self.node_count(), 0, "load_nodes: the network has nodes");
        assert!(
            nodes.windows(2).all(|w| w[0].0 < w[1].0),
            "load_nodes: ids must be strictly ascending"
        );
        let Some(&(last, _)) = nodes.last() else {
            return;
        };
        for &(id, cfg) in nodes {
            self.graph.insert_node(id);
            *self.config_slot(id) = Some(cfg);
            self.grid.insert(id.0, cfg.pos, cfg.range);
        }
        self.next_id = self.next_id.max(last.0 + 1);
        let Network {
            graph,
            configs,
            grid,
            obstacles,
            ..
        } = self;
        graph.fill_edgeless(|id, out| {
            let cfg = configs[id.index()].expect("present node");
            let clear2 = grid.for_each_within(&cfg.pos, cfg.range, |other, opos| {
                if other != id.0 && !obstacles.blocked(&cfg.pos, &opos) {
                    out.push(NodeId(other));
                }
            });
            grid.set_clear_bound(id.0, clear2);
        });
    }

    /// Convenience: insert at a fresh id. Returns the id.
    pub fn join(&mut self, cfg: NodeConfig) -> NodeId {
        let id = self.next_id();
        self.insert_node(id, cfg);
        id
    }

    /// Removes node `id`, its edges, and its color.
    ///
    /// Records the [`TopologyDelta`] listing every severed edge. A
    /// removal only *removes* constraints (§4.3: `RecodeDecreasePow-
    /// OrLeave` is passive), so consumers need the delta for cache
    /// invalidation and accounting, never for recoding.
    ///
    /// # Panics
    /// Panics if `id` is absent.
    pub fn remove_node(&mut self, id: NodeId) {
        assert!(self.graph.contains(id), "remove_node: missing {id}");
        let delta = &mut self.delta;
        delta.reset(DeltaKind::Remove, id);
        let removed = &mut delta.removed;
        removed.extend(self.graph.out_neighbors(id).iter().map(|&v| (id, v)));
        removed.extend(self.graph.in_neighbors(id).iter().map(|&u| (u, id)));
        delta.seal();
        self.graph.remove_node(id);
        self.configs[id.index()] = None;
        self.grid.remove(id.0);
        self.assignment.unset(id);
    }

    /// Moves node `id` to `to` and recomputes its incident edges. The
    /// node keeps its (possibly now-conflicting) color; the strategy
    /// decides what to recode from the recorded [`TopologyDelta`].
    ///
    /// # Panics
    /// Panics if `id` is absent.
    pub fn move_node(&mut self, id: NodeId, to: Point) {
        let cfg = self
            .configs
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .expect("move_node: missing node");
        cfg.pos = to;
        self.grid.relocate(id.0, to);
        self.rewire(id, DeltaKind::Move)
    }

    /// Sets node `id`'s transmission range. Only *out*-edges of `id`
    /// change (who `id` can reach); in-edges depend on the other nodes'
    /// ranges and are untouched.
    ///
    /// The recorded [`TopologyDelta`]'s added edges all leave `id` —
    /// exactly the new constraints a power increase creates (§4.2), so
    /// strategies recode from the delta without diffing conflict sets.
    ///
    /// A range that does not grow only filters the current out-edges by
    /// distance. A grow whose `range²` stays below the node's clear
    /// bound adds no edge and skips the index too; only a grow past it
    /// queries the spatial index.
    ///
    /// # Panics
    /// Panics if `id` is absent or the range is invalid.
    pub fn set_range(&mut self, id: NodeId, range: f64) {
        assert!(
            range.is_finite() && range >= 0.0,
            "range must be finite and non-negative, got {range}"
        );
        let cfg = self
            .configs
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .expect("set_range: missing node");
        let old_range = cfg.range;
        cfg.range = range;
        let pos = cfg.pos;
        // Migrates across range tiers when the range crosses a tier
        // boundary — this is where the reverse-reach bound tightens on
        // a power decrease.
        self.grid.set_range(id.0, range);
        if range <= old_range {
            return self.shrink_out_edges(id, pos, range);
        }
        let Network {
            graph,
            grid,
            obstacles,
            delta,
            ..
        } = self;
        delta.reset(DeltaKind::SetRange, id);
        let clear2 = grid.clear_bound(id.0).expect("indexed node");
        // Strict: a node at exactly the bound is an edge at `range²`.
        if range * range < clear2 {
            minim_obs::counter!("net.set_range.clear", 1);
            delta.out_after.extend_from_slice(graph.out_neighbors(id));
        } else {
            // A grow keeps every out-edge, so only the new ones go in.
            let out = &mut delta.out_after;
            let clear2 = grid.for_each_within(&pos, range, |other, opos| {
                if other != id.0 && !obstacles.blocked(&pos, &opos) {
                    out.push(NodeId(other));
                }
            });
            grid.set_clear_bound(id.0, clear2);
            out.sort_unstable();
            let TopologyDelta { added, .. } = delta;
            diff_sorted(
                graph.out_neighbors(id),
                out,
                |v| unreachable!("a grow lost the out-edge to {v}"),
                |v| added.push((id, v)),
            );
            for &(_, v) in added.iter() {
                graph.add_edge(id, v);
            }
        }
        delta.in_after.extend_from_slice(graph.in_neighbors(id));
        delta.seal();
    }

    /// The non-growing half of [`Network::set_range`]. With the range at
    /// most the old one, `id` can only lose out-edges, and obstacles
    /// did not change, so the new out-set is the current one filtered
    /// by the spatial query's exact predicate `dist2 <= range²` — no
    /// query of the index. Records the same delta the query would:
    /// nothing added, the lost edges ascending. The clear bound drops
    /// to the nearest lost neighbor.
    fn shrink_out_edges(&mut self, id: NodeId, pos: Point, range: f64) {
        let Network {
            graph,
            configs,
            grid,
            old_out,
            delta,
            ..
        } = self;
        delta.reset(DeltaKind::SetRange, id);
        let r2 = range * range;
        let mut clear2 = grid.clear_bound(id.0).expect("indexed node");
        old_out.clear();
        old_out.extend_from_slice(graph.out_neighbors(id));
        for &v in old_out.iter() {
            let d2 = configs[v.index()]
                .expect("out-neighbor is present")
                .pos
                .dist2(&pos);
            if d2 <= r2 {
                delta.out_after.push(v);
            } else {
                graph.remove_edge(id, v);
                delta.removed.push((id, v));
                clear2 = clear2.min(d2);
            }
        }
        grid.set_clear_bound(id.0, clear2);
        delta.in_after.extend_from_slice(graph.in_neighbors(id));
        delta.seal();
    }

    /// Recomputes **all** edges incident to `id` (both directions) from
    /// the geometry and records the exact edge delta. Used on insert,
    /// move, and obstacle installation.
    ///
    /// Sets `id`'s clear bound from its out-query and lowers the bound
    /// of every node whose clear disc now holds `id` beyond its range,
    /// so the bounds stay valid as nodes join and move. A leave, or a
    /// move away, only makes other nodes' bounds more conservative.
    ///
    /// The delta's `out_after`/`in_after` lists are the query's
    /// candidate buffers, so a warm network rewires without heap
    /// allocation.
    fn rewire(&mut self, id: NodeId, kind: DeltaKind) {
        let cfg = self.config(id).expect("rewire: missing node");
        let Network {
            graph,
            grid,
            obstacles,
            old_out,
            old_in,
            lowered,
            delta,
            ..
        } = self;
        delta.reset(kind, id);
        old_out.clear();
        old_out.extend_from_slice(graph.out_neighbors(id));
        old_in.clear();
        old_in.extend_from_slice(graph.in_neighbors(id));
        graph.clear_node_edges(id);
        let TopologyDelta {
            added,
            removed,
            out_after: out,
            in_after: inn,
            ..
        } = delta;
        // Out-edges: nodes within our range and line of sight.
        let clear2 = grid.for_each_within(&cfg.pos, cfg.range, |other, opos| {
            if other != id.0 && !obstacles.blocked(&cfg.pos, &opos) {
                out.push(NodeId(other));
            }
        });
        for &v in out.iter() {
            graph.add_edge(id, v);
        }
        // In-edges: nodes whose own range covers us — the stratified
        // reverse-reach query scans each occupied tier at that tier's
        // range cap (instead of one scan at the global maximum). It
        // reports every node whose clear disc covers us; those whose
        // range does not get their bound lowered to us instead.
        lowered.clear();
        grid.for_each_in_clear_disc(&cfg.pos, |other, opos, range, other_clear2| {
            if other == id.0 {
                return;
            }
            let d2 = opos.dist2(&cfg.pos);
            if d2 > range * range {
                if d2 < other_clear2 {
                    lowered.push((other, d2));
                }
            } else if !obstacles.blocked(&opos, &cfg.pos) {
                inn.push(NodeId(other));
            }
        });
        grid.set_clear_bound(id.0, clear2);
        for &(other, d2) in lowered.iter() {
            grid.set_clear_bound(other, d2);
        }
        for &u in inn.iter() {
            graph.add_edge(u, id);
        }
        out.sort_unstable();
        inn.sort_unstable();
        diff_sorted(
            old_out,
            out,
            |v| removed.push((id, v)),
            |v| added.push((id, v)),
        );
        diff_sorted(
            old_in,
            inn,
            |u| removed.push((u, id)),
            |u| added.push((u, id)),
        );
        delta.seal();
    }

    /// The Fig 2 partition of the existing nodes around `n`.
    ///
    /// Event handlers should prefer [`TopologyDelta::partitions`] —
    /// the delta already carries the neighborhood, so this graph read
    /// is redundant on the event path. This accessor remains for
    /// analysis of standing networks (bounds, traces, tests).
    ///
    /// # Panics
    /// Panics if `n` is absent.
    pub fn partitions(&self, n: NodeId) -> JoinPartitions {
        JoinPartitions::from_sorted_neighbors(
            self.graph.in_neighbors(n),
            self.graph.out_neighbors(n),
        )
    }

    /// The recode set of a join/move at `n`: `1n ∪ 2n ∪ {n}`, sorted.
    pub fn recode_set(&self, n: NodeId) -> Vec<NodeId> {
        let p = self.partitions(n);
        let mut v = p.in_union();
        match v.binary_search(&n) {
            Ok(_) => {}
            Err(i) => v.insert(i, n),
        }
        v
    }

    /// Whether the paper's *Minimal Connectivity* assumption holds for
    /// `n`: some node hears `n`, and `n` hears some node.
    pub fn minimally_connected(&self, n: NodeId) -> bool {
        self.graph.contains(n)
            && !self.graph.out_neighbors(n).is_empty()
            && !self.graph.in_neighbors(n).is_empty()
    }

    /// The maximum color index currently assigned (0 when uncolored).
    pub fn max_color_index(&self) -> u32 {
        self.assignment.max_color_index()
    }

    /// Convenience for tests: set a node's color.
    pub fn set_color(&mut self, n: NodeId, c: Color) {
        assert!(self.graph.contains(n), "set_color: missing {n}");
        self.assignment.set(n, c);
    }

    /// Rebuilds the full graph from scratch (O(n · neighborhood)) and
    /// asserts it matches the incrementally maintained one, and that
    /// every clear bound holds: it lies within `[range², scan radius²]`
    /// of the node's tier, and no unblocked node beyond the range is
    /// closer. Debug aid used by tests and failure injection.
    pub fn check_topology(&self) {
        for u in self.iter_nodes() {
            let cu = self.configs[u.index()].expect("present node");
            let clear2 = self.grid.clear_bound(u.0).expect("indexed node");
            let scan = self.grid.scan_radius_of(u.0).expect("indexed node");
            assert!(
                cu.range * cu.range <= clear2 && clear2 <= scan * scan,
                "clear bound² {clear2} of {u} outside [{}², {scan}²]",
                cu.range
            );
            for v in self.iter_nodes() {
                if u == v {
                    continue;
                }
                let cv = self.configs[v.index()].expect("present node");
                let d2 = cu.pos.dist2(&cv.pos);
                let reach = cu.pos.within(&cv.pos, cu.range);
                let blocked = (reach || d2 < clear2) && self.line_blocked(&cu.pos, &cv.pos);
                assert_eq!(
                    self.graph.has_edge(u, v),
                    reach && !blocked,
                    "topology drift on {u} → {v}"
                );
                assert!(
                    reach || blocked || d2 >= clear2,
                    "{v} at dist² {d2} lies beyond the range of {u} but inside its clear bound² {clear2}"
                );
            }
        }
        self.graph.check_invariants();
    }

    /// The clear bound of `id`, squared, if present: no unblocked node
    /// beyond its range lies closer, so a range change inside
    /// `[farthest out-neighbor, bound)` moves no edge. It depends on
    /// how the network was built (inserts and [`Network::load_nodes`]
    /// can disagree) and only ever decides how much work a step costs.
    pub fn clear_bound(&self, id: NodeId) -> Option<f64> {
        self.grid.clear_bound(id.0)
    }

    /// Whether this network runs on the flat (single-tier, monotone
    /// watermark) spatial index rather than the range-stratified one.
    /// Snapshot encoders persist this so a restored network keeps the
    /// same index mode (the two are result-identical; only costs and
    /// the [`Network::range_bound`] trajectory differ).
    pub fn is_flat(&self) -> bool {
        self.grid.is_flat()
    }

    /// Raises the id watermark so the next [`Network::next_id`] call
    /// returns at least `next`. Never lowers it. Snapshot restore uses
    /// this to reproduce an id allocator that had advanced past the
    /// highest *surviving* node (departed nodes leave watermark gaps
    /// that [`Network::insert_node`] alone cannot recreate).
    pub fn restore_id_watermark(&mut self, next: u32) {
        self.next_id = self.next_id.max(next);
    }

    /// The structural fingerprint: `O(1)`, used by `minim-serve`'s
    /// recovery verification.
    pub fn fingerprint(&self) -> NetworkFingerprint {
        NetworkFingerprint {
            nodes: self.node_count(),
            next_id: self.next_id,
            edges: self.graph.edge_count(),
            max_color: self.max_color_index(),
        }
    }

    /// A strong `O(N + E + walls)` digest of the observable network
    /// state: every node's id, position bits, range bits, and color,
    /// every edge, every obstacle, and the id watermark, folded
    /// through FNV-1a. Two networks with equal digests agree on
    /// everything event application can observe — the recovery tests'
    /// one-word "bit-identical" witness. (Hash equality is of course
    /// probabilistic; the tests additionally compare
    /// [`Network::describe`] outputs on mismatch-free paths.)
    pub fn state_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |word: u64| {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        fold(self.next_id as u64);
        for (i, cfg) in self.configs.iter().enumerate() {
            if let Some(cfg) = cfg {
                fold(i as u64);
                fold(cfg.pos.x.to_bits());
                fold(cfg.pos.y.to_bits());
                fold(cfg.range.to_bits());
                let id = NodeId(i as u32);
                match self.assignment.get(id) {
                    Some(c) => fold(1 + c.index() as u64),
                    None => fold(0),
                }
                for &v in self.graph.out_neighbors(id) {
                    fold(u64::from(v.0) | 1 << 40);
                }
            }
        }
        for wall in self.obstacles.walls() {
            fold(wall.a.x.to_bits());
            fold(wall.a.y.to_bits());
            fold(wall.b.x.to_bits());
            fold(wall.b.y.to_bits());
        }
        h
    }

    /// Snapshot of the current assignment (for before/after diffs).
    pub fn snapshot_assignment(&self) -> Assignment {
        self.assignment.clone()
    }

    /// Access to the arena-independent spatial state, for rendering and
    /// debugging: `(id, position, range, color)` tuples sorted by id.
    pub fn describe(&self) -> Vec<(NodeId, Point, f64, Option<Color>)> {
        self.configs
            .iter()
            .enumerate()
            .filter_map(|(i, cfg)| {
                let id = NodeId(i as u32);
                cfg.map(|c| (id, c.pos, c.range, self.assignment.get(id)))
            })
            .collect()
    }
}

/// Single merge pass over two sorted id lists, calling `on_old_only`
/// for ids that disappeared and `on_new_only` for ids that appeared.
fn diff_sorted(
    old: &[NodeId],
    new: &[NodeId],
    mut on_old_only: impl FnMut(NodeId),
    mut on_new_only: impl FnMut(NodeId),
) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                on_old_only(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                on_new_only(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    for &v in &old[i..] {
        on_old_only(v);
    }
    for &v in &new[j..] {
        on_new_only(v);
    }
}

/// Builds a network from explicit `(position, range)` pairs with ids
/// `0..k`, leaving all nodes uncolored, through
/// [`Network::load_nodes`]. Test/example helper.
pub fn network_from_configs(cell_hint: f64, configs: &[(Point, f64)]) -> Network {
    let nodes: Vec<(NodeId, NodeConfig)> = (0u32..)
        .zip(configs)
        .map(|(i, &(pos, range))| (NodeId(i), NodeConfig::new(pos, range)))
        .collect();
    let mut net = Network::new(cell_hint);
    net.load_nodes(&nodes);
    net
}

/// The standard arena of the paper's experiments.
pub fn paper_arena() -> Rect {
    Rect::paper_arena()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn join_wires_edges_by_range_asymmetrically() {
        let mut net = Network::new(5.0);
        // a reaches b (range 10 ≥ dist 6); b does not reach a (range 4).
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        let b = net.join(NodeConfig::new(Point::new(6.0, 0.0), 4.0));
        assert!(net.graph().has_edge(a, b));
        assert!(!net.graph().has_edge(b, a));
        net.check_topology();
    }

    #[test]
    fn boundary_distance_is_connected() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        let b = net.join(NodeConfig::new(Point::new(5.0, 0.0), 1.0));
        assert!(net.graph().has_edge(a, b), "d == r is connected");
        assert!(!net.graph().has_edge(b, a));
    }

    #[test]
    fn insert_existing_node_panics() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.insert_node(a, NodeConfig::new(Point::new(1.0, 1.0), 2.0));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn remove_node_clears_everything() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        let b = net.join(NodeConfig::new(Point::new(3.0, 0.0), 10.0));
        net.set_color(b, Color::new(2));
        net.remove_node(b);
        assert!(!net.contains(b));
        assert_eq!(net.node_count(), 1);
        assert!(net.graph().out_neighbors(a).is_empty());
        assert_eq!(net.assignment().get(b), None);
        net.check_topology();
    }

    #[test]
    fn move_node_rewires_both_directions() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 8.0));
        let b = net.join(NodeConfig::new(Point::new(20.0, 0.0), 8.0));
        assert_eq!(net.graph().edge_count(), 0);
        net.move_node(b, Point::new(5.0, 0.0));
        assert!(net.graph().has_edge(a, b));
        assert!(net.graph().has_edge(b, a));
        net.check_topology();
        net.move_node(b, Point::new(50.0, 50.0));
        assert_eq!(net.graph().edge_count(), 0);
        net.check_topology();
    }

    #[test]
    fn set_range_only_affects_out_edges() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        let b = net.join(NodeConfig::new(Point::new(6.0, 0.0), 4.0));
        assert!(net.graph().has_edge(a, b));
        assert!(!net.graph().has_edge(b, a));
        net.set_range(b, 7.0);
        assert!(net.graph().has_edge(b, a), "b now reaches a");
        assert!(net.graph().has_edge(a, b), "a → b untouched");
        net.set_range(b, 1.0);
        assert!(!net.graph().has_edge(b, a));
        assert!(net.graph().has_edge(a, b));
        net.check_topology();
    }

    #[test]
    fn clear_bound_follows_joins_grows_and_shrinks() {
        let mut net = Network::new(25.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        let b = net.join(NodeConfig::new(Point::new(20.0, 0.0), 1.0));
        // b's join lowered a's bound to b's distance.
        assert_eq!(net.clear_bound(a), Some(400.0));
        // A grow below it records an empty delta.
        net.set_range(a, 19.0);
        let d = net.delta();
        assert_eq!(d.kind(), DeltaKind::SetRange);
        assert!(d.is_edge_noop());
        assert!(d.out_after.is_empty() && d.in_after.is_empty());
        // A node joining inside the clear disc lowers it again.
        let c = net.join(NodeConfig::new(Point::new(0.0, 19.5), 1.0));
        assert_eq!(net.clear_bound(a), Some(19.5 * 19.5));
        // A grow to exactly a node's distance adds the edge.
        net.set_range(a, 19.5);
        assert_eq!(net.delta().added, vec![(a, c)]);
        net.set_range(a, 20.0);
        assert_eq!(net.delta().added, vec![(a, b)]);
        // A shrink lowers the bound to the nearest lost neighbor.
        net.set_range(a, 5.0);
        assert_eq!(net.delta().removed, vec![(a, b), (a, c)]);
        assert_eq!(net.clear_bound(a), Some(19.5 * 19.5));
        net.check_topology();
    }

    #[test]
    fn partitions_classify_neighbors() {
        let mut net = Network::new(5.0);
        // Geometry: n at origin with range 10.
        //   one: hears us? no wait — `one` = nodes that REACH n only.
        let nid = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        // in-only: u reaches n (range 20 ≥ 15) but n (10) can't reach u.
        let u = net.join(NodeConfig::new(Point::new(15.0, 0.0), 20.0));
        // bidirectional: close and strong.
        let v = net.join(NodeConfig::new(Point::new(5.0, 0.0), 9.0));
        // out-only: n reaches w (8 ≤ 10) but w's range 2 is too small.
        let w = net.join(NodeConfig::new(Point::new(0.0, 8.0), 2.0));
        // unrelated far node.
        let x = net.join(NodeConfig::new(Point::new(90.0, 90.0), 5.0));

        let p = net.partitions(nid);
        assert_eq!(p.one, vec![u]);
        assert_eq!(p.two, vec![v]);
        assert_eq!(p.three, vec![w]);
        assert_eq!(p.in_union(), vec![u, v]);
        assert_eq!(net.recode_set(nid), vec![nid, u, v]);
        assert!(!p.one.contains(&x));
    }

    #[test]
    fn minimal_connectivity_check() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        assert!(!net.minimally_connected(a), "isolated");
        let b = net.join(NodeConfig::new(Point::new(5.0, 0.0), 10.0));
        assert!(net.minimally_connected(a));
        assert!(net.minimally_connected(b));
    }

    #[test]
    fn next_id_is_monotone_and_respects_explicit_inserts() {
        let mut net = Network::new(5.0);
        let a = net.next_id();
        assert_eq!(a, n(0));
        net.insert_node(n(10), NodeConfig::new(Point::new(0.0, 0.0), 1.0));
        let b = net.next_id();
        assert_eq!(b, n(11), "allocator must skip past explicit ids");
    }

    #[test]
    fn validate_reflects_assignment() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        let b = net.join(NodeConfig::new(Point::new(5.0, 0.0), 10.0));
        assert!(net.validate().is_err(), "uncolored nodes are invalid");
        net.set_color(a, Color::new(1));
        net.set_color(b, Color::new(1));
        assert!(net.validate().is_err(), "primary collision");
        net.set_color(b, Color::new(2));
        assert!(net.validate().is_ok());
    }

    #[test]
    fn describe_lists_nodes_in_id_order() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(1.0, 2.0), 3.0));
        let b = net.join(NodeConfig::new(Point::new(4.0, 5.0), 6.0));
        net.set_color(a, Color::new(9));
        let d = net.describe();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, a);
        assert_eq!(d[0].3, Some(Color::new(9)));
        assert_eq!(d[1].0, b);
        assert_eq!(d[1].3, None);
    }

    #[test]
    fn obstacles_block_links_and_only_remove_constraints() {
        use minim_geom::Segment;
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 12.0));
        let b = net.join(NodeConfig::new(Point::new(10.0, 0.0), 12.0));
        net.set_color(a, Color::new(1));
        net.set_color(b, Color::new(2));
        assert!(net.graph().has_edge(a, b));
        assert!(net.validate().is_ok());

        // A wall between them severs both directions; the assignment
        // stays valid (constraints only shrank) and nodes could now
        // even share a code.
        net.add_obstacle(Segment::new(Point::new(5.0, -20.0), Point::new(5.0, 20.0)));
        assert!(!net.graph().has_edge(a, b));
        assert!(!net.graph().has_edge(b, a));
        assert!(net.validate().is_ok());
        net.set_color(b, Color::new(1));
        assert!(net.validate().is_ok(), "wall permits code reuse");
        net.check_topology();

        // Joins behind the wall only see their own side.
        let c = net.join(NodeConfig::new(Point::new(2.0, 1.0), 12.0));
        assert!(net.graph().has_edge(c, a));
        assert!(!net.graph().has_edge(c, b), "wall blocks the new link too");
        net.check_topology();

        // Movement across the wall rewires correctly.
        net.move_node(c, Point::new(8.0, 1.0));
        assert!(!net.graph().has_edge(c, a));
        assert!(net.graph().has_edge(c, b));
        net.check_topology();
    }

    #[test]
    fn obstacle_blocks_set_range_links_too() {
        use minim_geom::Segment;
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 3.0));
        let b = net.join(NodeConfig::new(Point::new(10.0, 0.0), 3.0));
        net.add_obstacle(Segment::new(Point::new(5.0, -5.0), Point::new(5.0, 5.0)));
        net.set_range(a, 20.0);
        assert!(
            !net.graph().has_edge(a, b),
            "boost cannot punch through walls"
        );
        net.check_topology();
        let _ = b;
    }

    #[test]
    fn insert_delta_lists_every_new_edge_and_neighborhood() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        let b = net.join(NodeConfig::new(Point::new(12.0, 0.0), 20.0));
        // c lands between them, within range of both: every incident
        // edge (c ↔ a at dist 6, c ↔ b at dist 6) wires both ways.
        let c = net.next_id();
        net.insert_node(c, NodeConfig::new(Point::new(6.0, 0.0), 8.0));
        let d = net.delta();
        assert_eq!(d.kind(), DeltaKind::Insert);
        assert_eq!(d.node(), c);
        assert!(d.removed.is_empty(), "an insert only adds edges");
        // Every added edge exists and touches c.
        for &(u, v) in &d.added {
            assert!(net.graph().has_edge(u, v));
            assert!(u == c || v == c);
        }
        assert_eq!(
            d.added.len(),
            net.graph().out_degree(c) + net.graph().in_degree(c)
        );
        assert_eq!(d.out_after, net.graph().out_neighbors(c));
        assert_eq!(d.in_after, net.graph().in_neighbors(c));
        assert_eq!(d.partitions(), net.partitions(c));
        assert_eq!(d.recode_set(), net.recode_set(c));
        let _ = (a, b);
    }

    #[test]
    fn remove_delta_lists_every_severed_edge() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        let b = net.join(NodeConfig::new(Point::new(6.0, 0.0), 4.0));
        let c = net.join(NodeConfig::new(Point::new(3.0, 0.0), 10.0));
        let before: Vec<_> = net.graph().edges().collect();
        net.remove_node(c);
        let d = net.delta();
        assert_eq!(d.kind(), DeltaKind::Remove);
        assert!(d.added.is_empty());
        assert!(d.out_after.is_empty() && d.in_after.is_empty());
        let after: Vec<_> = net.graph().edges().collect();
        let mut expected: Vec<_> = before.into_iter().filter(|e| !after.contains(e)).collect();
        expected.sort_unstable();
        assert_eq!(d.removed, expected);
        assert!(d.touched().contains(&a) && d.touched().contains(&c));
        let _ = b;
    }

    #[test]
    fn move_delta_diffs_old_and_new_neighborhoods() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 8.0));
        let b = net.join(NodeConfig::new(Point::new(30.0, 0.0), 8.0));
        let c = net.join(NodeConfig::new(Point::new(5.0, 0.0), 8.0));
        // c currently links with a; moving near b swaps the neighborhood.
        net.move_node(c, Point::new(27.0, 0.0));
        let d = net.delta();
        assert_eq!(d.kind(), DeltaKind::Move);
        assert_eq!(d.removed, vec![(a, c), (c, a)]);
        assert_eq!(d.added, vec![(b, c), (c, b)]);
        assert_eq!(d.touched(), vec![a, b, c]);
        assert_eq!(d.out_after, vec![b]);
        assert_eq!(d.in_after, vec![b]);
        // A move that changes nothing is an edge no-op.
        net.move_node(c, Point::new(26.0, 0.0));
        assert!(net.delta().is_edge_noop());
        net.check_topology();
    }

    #[test]
    fn set_range_delta_only_touches_out_edges() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        let b = net.join(NodeConfig::new(Point::new(6.0, 0.0), 4.0));
        net.set_range(b, 7.0);
        let d = net.delta();
        assert_eq!(d.kind(), DeltaKind::SetRange);
        assert_eq!(d.added, vec![(b, a)]);
        assert!(d.removed.is_empty());
        assert_eq!(d.new_receivers().collect::<Vec<_>>(), vec![a]);
        assert_eq!(d.new_transmitters().count(), 0);
        net.set_range(b, 1.0);
        let d2 = net.delta();
        assert_eq!(d2.removed, vec![(b, a)]);
        assert!(d2.added.is_empty());
        assert_eq!(d2.in_after, vec![a], "in-edges survive the range drop");
        net.check_topology();
    }

    #[test]
    fn obstacle_rewires_only_sever_edges() {
        use minim_geom::Segment;
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 12.0));
        let b = net.join(NodeConfig::new(Point::new(10.0, 0.0), 12.0));
        let c = net.join(NodeConfig::new(Point::new(0.0, 5.0), 12.0));
        let before: Vec<_> = net.graph().edges().collect();
        net.add_obstacle(Segment::new(Point::new(5.0, -20.0), Point::new(5.0, 20.0)));
        // Both directions of a–b and c–b are gone and nothing was
        // added; the last rewire (of c) recorded its own severed edges.
        let after: Vec<_> = net.graph().edges().collect();
        let mut severed: Vec<_> = before.into_iter().filter(|e| !after.contains(e)).collect();
        severed.sort_unstable();
        assert_eq!(severed, vec![(a, b), (b, a), (b, c), (c, b)]);
        assert_eq!(after, vec![(a, c), (c, a)]);
        let d = net.delta();
        assert_eq!(d.kind(), DeltaKind::Rewire);
        assert_eq!(d.node(), c);
        assert!(d.added.is_empty());
        net.check_topology();
    }

    #[test]
    fn iter_nodes_matches_node_ids() {
        let mut net = Network::new(5.0);
        for i in 0..5 {
            net.join(NodeConfig::new(Point::new(i as f64 * 3.0, 0.0), 4.0));
        }
        assert_eq!(net.iter_nodes().collect::<Vec<_>>(), net.node_ids());
    }

    /// Regression for the watermark bug: `max_range_bound` never
    /// shrank after `set_range` lowered a node's range or `remove_node`
    /// deleted the longest-range node, so one lighthouse permanently
    /// inflated every later reverse-reach scan. The bound is now
    /// derived from range-tier occupancy.
    #[test]
    fn range_bound_shrinks_when_lighthouse_leaves() {
        let mut net = Network::new(25.0);
        for i in 0..20 {
            net.join(NodeConfig::new(Point::new(i as f64 * 7.0, 0.0), 20.0));
        }
        let small_bound = net.range_bound();
        assert!(
            small_bound <= 50.0,
            "short-range tier cap, got {small_bound}"
        );

        // The lighthouse joins: the bound must cover it...
        let lh = net.join(NodeConfig::new(Point::new(70.0, 50.0), 2000.0));
        assert!(net.range_bound() >= 2000.0);
        // ...and fall back once it leaves — joins get cheap again.
        net.remove_node(lh);
        assert_eq!(net.range_bound(), small_bound, "lighthouse left");

        // Same via set_range: powering the lighthouse down re-tiers it.
        let lh = net.join(NodeConfig::new(Point::new(70.0, 50.0), 2000.0));
        assert!(net.range_bound() >= 2000.0);
        net.set_range(lh, 10.0);
        assert_eq!(net.range_bound(), small_bound, "lighthouse powered down");
        net.check_topology();

        // The flat arm reproduces the legacy monotone behavior.
        let mut flat = Network::new_flat(25.0);
        let lh = flat.join(NodeConfig::new(Point::new(0.0, 0.0), 2000.0));
        flat.join(NodeConfig::new(Point::new(5.0, 0.0), 20.0));
        flat.remove_node(lh);
        assert!(flat.range_bound() >= 2000.0, "flat bound never shrinks");
    }

    /// The network refills one delta in place. After every step of a
    /// stream that grows, shrinks and empties each of its four lists,
    /// the reused delta must equal the one a network rebuilt from
    /// [`Network::describe`] records for the same step: no entry of an
    /// earlier step may survive.
    #[test]
    fn reused_delta_never_carries_the_previous_step() {
        fn cfg(x: f64, y: f64, r: f64) -> NodeConfig {
            NodeConfig::new(Point::new(x, y), r)
        }
        let steps: [fn(&mut Network); 15] = [
            |net| net.insert_node(n(0), cfg(0.0, 0.0, 8.0)),
            |net| net.insert_node(n(1), cfg(5.0, 0.0, 8.0)),
            |net| net.insert_node(n(2), cfg(9.0, 3.0, 12.0)),
            |net| net.insert_node(n(3), cfg(2.0, 7.0, 6.0)),
            |net| net.move_node(n(2), Point::new(1.0, 1.0)),
            |net| net.move_node(n(2), Point::new(40.0, 40.0)),
            |net| net.move_node(n(2), Point::new(9.0, 3.0)),
            |net| net.set_range(n(0), 15.0),
            |net| net.set_range(n(0), 8.0),
            |net| net.set_range(n(0), 0.0),
            |net| net.set_range(n(0), 8.0),
            |net| net.remove_node(n(1)),
            |net| net.insert_node(n(4), cfg(40.0, 40.0, 1.0)),
            |net| net.insert_node(n(1), cfg(5.0, 0.0, 8.0)),
            |net| net.remove_node(n(4)),
        ];
        let mut net = Network::new(10.0);
        for (i, step) in steps.iter().enumerate() {
            let nodes: Vec<_> = net
                .describe()
                .into_iter()
                .map(|(id, pos, range, _)| (id, NodeConfig::new(pos, range)))
                .collect();
            let mut fresh = Network::new(10.0);
            fresh.load_nodes(&nodes);
            step(&mut net);
            step(&mut fresh);
            assert_eq!(net.delta(), fresh.delta(), "step {i}");
        }
        net.check_topology();
    }

    #[test]
    fn flat_and_stratified_networks_agree_on_topology() {
        let cfgs = [
            (Point::new(0.0, 0.0), 6.0),
            (Point::new(5.0, 0.0), 60.0),
            (Point::new(10.0, 0.0), 6.0),
            (Point::new(55.0, 0.0), 6.0),
            (Point::new(30.0, 20.0), 200.0),
        ];
        let strat = network_from_configs(10.0, &cfgs);
        let mut flat = Network::new_flat(10.0);
        for &(pos, range) in &cfgs {
            flat.join(NodeConfig::new(pos, range));
        }
        let ga: Vec<_> = strat.graph().edges().collect();
        let gb: Vec<_> = flat.graph().edges().collect();
        assert_eq!(ga, gb);
        strat.check_topology();
        flat.check_topology();
    }

    #[test]
    fn network_from_configs_builder() {
        let net = network_from_configs(
            5.0,
            &[
                (Point::new(0.0, 0.0), 6.0),
                (Point::new(5.0, 0.0), 6.0),
                (Point::new(10.0, 0.0), 6.0),
            ],
        );
        assert_eq!(net.node_count(), 3);
        // Chain topology 0 <-> 1 <-> 2 but not 0 <-> 2.
        assert!(net.graph().has_edge(n(0), n(1)));
        assert!(net.graph().has_edge(n(1), n(2)));
        assert!(!net.graph().has_edge(n(0), n(2)));
    }
}
