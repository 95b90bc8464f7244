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
//! * the current code [`Assignment`].
//!
//! Every mutating operation ([`Network::insert_node`],
//! [`Network::remove_node`], [`Network::move_node`],
//! [`Network::set_range`], [`Network::add_obstacle`]) returns a
//! [`TopologyDelta`] — the exact added/removed digraph edges and the
//! initiating node's resulting neighborhood — so the layers above
//! (validation, recoding strategies, the simulator, the distributed
//! protocols) do `O(affected neighborhood)` work per event instead of
//! re-deriving state from the full graph. See the [`delta`] module
//! docs for the contract.
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

/// A power-controlled ad-hoc network with its induced digraph and the
/// current code assignment.
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
    /// Reusable buffers for the rewire path — steady-state event
    /// application performs zero heap allocations.
    scratch: RewireScratch,
}

/// Reusable workspace threaded through [`Network`]'s mutators: the
/// out/in candidate buffers of a rewire, plus pools of recycled delta
/// buffers ([`Network::recycle_delta`] returns them). Pool sizes are
/// capped so a burst of un-recycled deltas cannot pin memory.
#[derive(Debug, Clone, Default)]
struct RewireScratch {
    old_out: Vec<NodeId>,
    old_in: Vec<NodeId>,
    out: Vec<NodeId>,
    inn: Vec<NodeId>,
    id_pool: Vec<Vec<NodeId>>,
    edge_pool: Vec<EdgeList>,
}

/// Max recycled buffers kept per pool.
const SCRATCH_POOL_CAP: usize = 16;

impl RewireScratch {
    fn take_id_buf(&mut self) -> Vec<NodeId> {
        self.id_pool.pop().unwrap_or_default()
    }

    fn take_edge_buf(&mut self) -> EdgeList {
        self.edge_pool.pop().unwrap_or_default()
    }

    fn give_id_buf(&mut self, mut v: Vec<NodeId>) {
        if self.id_pool.len() < SCRATCH_POOL_CAP {
            v.clear();
            self.id_pool.push(v);
        }
    }

    fn give_edge_buf(&mut self, mut v: EdgeList) {
        if self.edge_pool.len() < SCRATCH_POOL_CAP {
            v.clear();
            self.edge_pool.push(v);
        }
    }
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
            scratch: RewireScratch::default(),
        }
    }

    /// Adds an opaque wall (§2's non-free-space generalization) and
    /// rewires every node's links. Obstacles only *remove* edges, i.e.
    /// only remove constraints, so a valid assignment stays valid.
    ///
    /// Returns one [`TopologyDelta`] per node whose link set actually
    /// changed (each edge appears in exactly one delta: the first
    /// rewire that severed it).
    pub fn add_obstacle(&mut self, wall: Segment) -> Vec<TopologyDelta> {
        self.obstacles.insert(wall);
        // Hold the ids across the rewires below (which mutate the
        // graph), so the allocation is necessary here.
        let ids: Vec<NodeId> = self.iter_nodes().collect();
        let mut deltas = Vec::new();
        for id in ids {
            let delta = self.rewire(id, DeltaKind::Rewire);
            if !delta.is_edge_noop() {
                deltas.push(delta);
            }
        }
        deltas
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

    /// Hands a delta's buffers back for reuse. Event loops that are
    /// done with a [`TopologyDelta`] (metrics read, validation run)
    /// should recycle it: together with the internal scratch buffers
    /// this makes steady-state event application allocation-free. Not
    /// recycling is always safe — the pools are bounded and refill
    /// lazily.
    pub fn recycle_delta(&mut self, delta: TopologyDelta) {
        let (added, removed, out_after, in_after) = delta.into_buffers();
        self.scratch.give_edge_buf(added);
        self.scratch.give_edge_buf(removed);
        self.scratch.give_id_buf(out_after);
        self.scratch.give_id_buf(in_after);
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
    /// Returns the [`TopologyDelta`] of the insertion: every new edge
    /// (all incident to `id`) plus `id`'s resulting neighbor lists —
    /// from which the recode set `1n ∪ 2n ∪ {n}` follows without
    /// another graph traversal.
    ///
    /// # Panics
    /// Panics if `id` already exists.
    pub fn insert_node(&mut self, id: NodeId, cfg: NodeConfig) -> TopologyDelta {
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

    /// Convenience: insert at a fresh id. Returns the id.
    pub fn join(&mut self, cfg: NodeConfig) -> NodeId {
        self.join_delta(cfg).0
    }

    /// Inserts at a fresh id, returning both the id and the insertion's
    /// [`TopologyDelta`].
    pub fn join_delta(&mut self, cfg: NodeConfig) -> (NodeId, TopologyDelta) {
        let id = self.next_id();
        let delta = self.insert_node(id, cfg);
        (id, delta)
    }

    /// Removes node `id`, its edges, and its color.
    ///
    /// Returns the [`TopologyDelta`] listing every severed edge. A
    /// removal only *removes* constraints (§4.3: `RecodeDecreasePow-
    /// OrLeave` is passive), so consumers need the delta for cache
    /// invalidation and accounting, never for recoding.
    ///
    /// # Panics
    /// Panics if `id` is absent.
    pub fn remove_node(&mut self, id: NodeId) -> TopologyDelta {
        assert!(self.graph.contains(id), "remove_node: missing {id}");
        let mut removed = self.scratch.take_edge_buf();
        removed.extend(self.graph.out_neighbors(id).iter().map(|&v| (id, v)));
        removed.extend(self.graph.in_neighbors(id).iter().map(|&u| (u, id)));
        self.graph.remove_node(id);
        self.configs[id.index()] = None;
        self.grid.remove(id.0);
        self.assignment.unset(id);
        let added = self.scratch.take_edge_buf();
        let out_after = self.scratch.take_id_buf();
        let in_after = self.scratch.take_id_buf();
        TopologyDelta::new(DeltaKind::Remove, id, added, removed, out_after, in_after)
    }

    /// Moves node `id` to `to` and recomputes its incident edges. The
    /// node keeps its (possibly now-conflicting) color; the strategy
    /// decides what to recode from the returned [`TopologyDelta`].
    ///
    /// # Panics
    /// Panics if `id` is absent.
    pub fn move_node(&mut self, id: NodeId, to: Point) -> TopologyDelta {
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
    /// The returned [`TopologyDelta`]'s added edges all leave `id` —
    /// exactly the new constraints a power increase creates (§4.2), so
    /// strategies recode from the delta without diffing conflict sets.
    ///
    /// A range that does not grow only filters the current out-edges by
    /// distance; a growing one re-queries the spatial index.
    ///
    /// # Panics
    /// Panics if `id` is absent or the range is invalid.
    pub fn set_range(&mut self, id: NodeId, range: f64) -> TopologyDelta {
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
            scratch,
            ..
        } = self;
        // Recompute out-edges from scratch, on reusable buffers.
        scratch.old_out.clear();
        scratch.old_out.extend_from_slice(graph.out_neighbors(id));
        for i in 0..scratch.old_out.len() {
            graph.remove_edge(id, scratch.old_out[i]);
        }
        scratch.out.clear();
        let targets = &mut scratch.out;
        grid.for_each_within(&pos, range, |other, opos| {
            if other != id.0 && !obstacles.blocked(&pos, &opos) {
                targets.push(NodeId(other));
            }
        });
        for i in 0..scratch.out.len() {
            graph.add_edge(id, scratch.out[i]);
        }
        scratch.out.sort_unstable();
        let mut added = scratch.take_edge_buf();
        let mut removed = scratch.take_edge_buf();
        diff_sorted(
            &scratch.old_out,
            &scratch.out,
            |v| removed.push((id, v)),
            |v| added.push((id, v)),
        );
        let mut out_after = scratch.take_id_buf();
        out_after.extend_from_slice(&scratch.out);
        let mut in_after = scratch.take_id_buf();
        in_after.extend_from_slice(graph.in_neighbors(id));
        TopologyDelta::new(DeltaKind::SetRange, id, added, removed, out_after, in_after)
    }

    /// The non-growing half of [`Network::set_range`]. With the range at
    /// most the old one, `id` can only lose out-edges, and obstacles
    /// did not change, so the new out-set is the current one filtered
    /// by the spatial query's exact predicate `dist2 <= range²` — no
    /// query of the index. Returns the same delta the query would:
    /// nothing added, the lost edges ascending.
    fn shrink_out_edges(&mut self, id: NodeId, pos: Point, range: f64) -> TopologyDelta {
        let Network {
            graph,
            configs,
            scratch,
            ..
        } = self;
        let r2 = range * range;
        scratch.old_out.clear();
        scratch.old_out.extend_from_slice(graph.out_neighbors(id));
        let added = scratch.take_edge_buf();
        let mut removed = scratch.take_edge_buf();
        let mut out_after = scratch.take_id_buf();
        for &v in &scratch.old_out {
            let vpos = configs[v.index()].expect("out-neighbor is present").pos;
            if vpos.dist2(&pos) <= r2 {
                out_after.push(v);
            } else {
                graph.remove_edge(id, v);
                removed.push((id, v));
            }
        }
        let mut in_after = scratch.take_id_buf();
        in_after.extend_from_slice(graph.in_neighbors(id));
        TopologyDelta::new(DeltaKind::SetRange, id, added, removed, out_after, in_after)
    }

    /// Recomputes **all** edges incident to `id` (both directions) from
    /// the geometry, returning the exact edge delta. Used on insert,
    /// move, and obstacle installation.
    ///
    /// Runs entirely on the [`RewireScratch`] workspace: candidate
    /// buffers are reused across events and the delta's owned lists
    /// come from the recycle pools, so in steady state (with
    /// [`Network::recycle_delta`] returning buffers) the whole path is
    /// allocation-free.
    fn rewire(&mut self, id: NodeId, kind: DeltaKind) -> TopologyDelta {
        let cfg = self.config(id).expect("rewire: missing node");
        let Network {
            graph,
            grid,
            obstacles,
            scratch,
            ..
        } = self;
        scratch.old_out.clear();
        scratch.old_out.extend_from_slice(graph.out_neighbors(id));
        scratch.old_in.clear();
        scratch.old_in.extend_from_slice(graph.in_neighbors(id));
        graph.clear_node_edges(id);
        // Out-edges: nodes within our range and line of sight.
        scratch.out.clear();
        let out = &mut scratch.out;
        grid.for_each_within(&cfg.pos, cfg.range, |other, opos| {
            if other != id.0 && !obstacles.blocked(&cfg.pos, &opos) {
                out.push(NodeId(other));
            }
        });
        for i in 0..scratch.out.len() {
            graph.add_edge(id, scratch.out[i]);
        }
        // In-edges: nodes whose own range covers us — the stratified
        // reverse-reach query scans each occupied tier at that tier's
        // range cap (instead of one scan at the global maximum), and
        // already filters by each candidate's actual range.
        scratch.inn.clear();
        let inn = &mut scratch.inn;
        grid.for_each_reaching(&cfg.pos, |other, opos, _| {
            if other != id.0 && !obstacles.blocked(&opos, &cfg.pos) {
                inn.push(NodeId(other));
            }
        });
        for i in 0..scratch.inn.len() {
            graph.add_edge(scratch.inn[i], id);
        }
        scratch.out.sort_unstable();
        scratch.inn.sort_unstable();
        let mut added = scratch.take_edge_buf();
        let mut removed = scratch.take_edge_buf();
        diff_sorted(
            &scratch.old_out,
            &scratch.out,
            |v| removed.push((id, v)),
            |v| added.push((id, v)),
        );
        diff_sorted(
            &scratch.old_in,
            &scratch.inn,
            |u| removed.push((u, id)),
            |u| added.push((u, id)),
        );
        let mut out_after = scratch.take_id_buf();
        out_after.extend_from_slice(&scratch.out);
        let mut in_after = scratch.take_id_buf();
        in_after.extend_from_slice(&scratch.inn);
        TopologyDelta::new(kind, id, added, removed, out_after, in_after)
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
    /// asserts it matches the incrementally maintained one. Debug aid
    /// used by tests and failure injection.
    pub fn check_topology(&self) {
        for u in self.iter_nodes() {
            let cu = self.configs[u.index()].expect("present node");
            for v in self.iter_nodes() {
                if u == v {
                    continue;
                }
                let cv = self.configs[v.index()].expect("present node");
                let expect =
                    cu.pos.within(&cv.pos, cu.range) && !self.line_blocked(&cu.pos, &cv.pos);
                assert_eq!(
                    self.graph.has_edge(u, v),
                    expect,
                    "topology drift on {u} → {v}"
                );
            }
        }
        self.graph.check_invariants();
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

/// A list of directed edges, as a delta stores them.
type EdgeList = Vec<(NodeId, NodeId)>;

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
/// `0..k`, leaving all nodes uncolored. Test/example helper.
pub fn network_from_configs(cell_hint: f64, configs: &[(Point, f64)]) -> Network {
    let mut net = Network::new(cell_hint);
    for &(pos, range) in configs {
        net.join(NodeConfig::new(pos, range));
    }
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
        let d = net.insert_node(c, NodeConfig::new(Point::new(6.0, 0.0), 8.0));
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
        let d = net.remove_node(c);
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
        let d = net.move_node(c, Point::new(27.0, 0.0));
        assert_eq!(d.kind(), DeltaKind::Move);
        assert_eq!(d.removed, vec![(a, c), (c, a)]);
        assert_eq!(d.added, vec![(b, c), (c, b)]);
        assert_eq!(d.touched(), vec![a, b, c]);
        assert_eq!(d.out_after, vec![b]);
        assert_eq!(d.in_after, vec![b]);
        // A move that changes nothing is an edge no-op.
        let d2 = net.move_node(c, Point::new(26.0, 0.0));
        assert!(d2.is_edge_noop());
        net.check_topology();
    }

    #[test]
    fn set_range_delta_only_touches_out_edges() {
        let mut net = Network::new(5.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 10.0));
        let b = net.join(NodeConfig::new(Point::new(6.0, 0.0), 4.0));
        let d = net.set_range(b, 7.0);
        assert_eq!(d.kind(), DeltaKind::SetRange);
        assert_eq!(d.added, vec![(b, a)]);
        assert!(d.removed.is_empty());
        assert_eq!(d.new_receivers().collect::<Vec<_>>(), vec![a]);
        assert_eq!(d.new_transmitters().count(), 0);
        let d2 = net.set_range(b, 1.0);
        assert_eq!(d2.removed, vec![(b, a)]);
        assert!(d2.added.is_empty());
        assert_eq!(d2.in_after, vec![a], "in-edges survive the range drop");
        net.check_topology();
    }

    #[test]
    fn obstacle_deltas_cover_each_severed_edge_once() {
        use minim_geom::Segment;
        let mut net = Network::new(10.0);
        let a = net.join(NodeConfig::new(Point::new(0.0, 0.0), 12.0));
        let b = net.join(NodeConfig::new(Point::new(10.0, 0.0), 12.0));
        let c = net.join(NodeConfig::new(Point::new(0.0, 5.0), 12.0));
        let deltas = net.add_obstacle(Segment::new(Point::new(5.0, -20.0), Point::new(5.0, 20.0)));
        let mut removed: Vec<_> = deltas.iter().flat_map(|d| d.removed.clone()).collect();
        removed.sort_unstable();
        // Both directions of a–b and c–b are gone; nothing is double
        // counted and nothing was added.
        assert_eq!(removed, vec![(a, b), (b, a), (b, c), (c, b)]);
        assert!(deltas.iter().all(|d| d.added.is_empty()));
        assert!(deltas.iter().all(|d| d.kind() == DeltaKind::Rewire));
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

    #[test]
    fn recycled_deltas_keep_results_identical() {
        // Two identical event streams, one recycling deltas after each
        // event: final networks (and each delta's contents) must match.
        let mut a = Network::new(10.0);
        let mut b = Network::new(10.0);
        let cfgs = [
            (Point::new(0.0, 0.0), 8.0),
            (Point::new(5.0, 0.0), 8.0),
            (Point::new(9.0, 3.0), 12.0),
            (Point::new(2.0, 7.0), 6.0),
        ];
        for &(p, r) in &cfgs {
            let da = a.insert_node(a.peek_next_id(), NodeConfig::new(p, r));
            let db = b.insert_node(b.peek_next_id(), NodeConfig::new(p, r));
            assert_eq!(da, db);
            b.recycle_delta(db);
        }
        for _ in 0..3 {
            let da = a.move_node(n(2), Point::new(1.0, 1.0));
            let db = b.move_node(n(2), Point::new(1.0, 1.0));
            assert_eq!(da, db);
            b.recycle_delta(db);
            let da = a.move_node(n(2), Point::new(9.0, 3.0));
            let db = b.move_node(n(2), Point::new(9.0, 3.0));
            assert_eq!(da, db);
            b.recycle_delta(db);
            let da = a.set_range(n(0), 15.0);
            let db = b.set_range(n(0), 15.0);
            assert_eq!(da, db);
            b.recycle_delta(db);
            let da = a.set_range(n(0), 8.0);
            let db = b.set_range(n(0), 8.0);
            assert_eq!(da, db);
            b.recycle_delta(db);
        }
        let da = a.remove_node(n(1));
        let db = b.remove_node(n(1));
        assert_eq!(da, db);
        b.recycle_delta(db);
        assert_eq!(a.describe(), b.describe());
        a.check_topology();
        b.check_topology();
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
