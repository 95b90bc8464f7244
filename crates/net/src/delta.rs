//! Explicit topology deltas — the record of exactly what one
//! reconfiguration event changed.
//!
//! The paper's whole point is that reconfiguration work is *local*:
//! a join/leave/move/power-change only perturbs the initiating node's
//! neighborhood, and the Minim strategies recode the provably minimal
//! set of nodes there. The substrate must not undercut that locality
//! by forgetting what changed: every mutating [`Network`](crate::Network)
//! operation records a [`TopologyDelta`] carrying
//!
//! * the exact sets of **added** and **removed** digraph edges, and
//! * the initiating node's **resulting neighbor lists**,
//!
//! so every layer above — conflict validation (`minim-graph`'s
//! `conflict::validate_delta`), the recoding strategies (`minim-core`),
//! the experiment runner (`minim-sim`), and the distributed protocols
//! (`minim-proto`) — can do `O(affected neighborhood)` work per event
//! instead of re-deriving the neighborhood from the full graph or
//! re-checking CA1/CA2 over every edge.
//!
//! The network owns one delta and refills its buffers in place at
//! every topology step, so a warm network records deltas without heap
//! allocation. [`Network::delta`](crate::Network::delta) lends it out
//! until the next mutation; a caller that must keep a delta across
//! one clones it.

use crate::JoinPartitions;
use minim_graph::NodeId;

/// Which reconfiguration produced a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// A node was inserted (`Network::insert_node` / `join`).
    Insert,
    /// A node was removed (`Network::remove_node`).
    Remove,
    /// A node changed position (`Network::move_node`).
    Move,
    /// A node changed transmission range (`Network::set_range`).
    SetRange,
    /// A node's links were recomputed for an environmental change
    /// (currently: a new obstacle severing lines of sight).
    Rewire,
}

/// The exact topological effect of one mutating operation.
///
/// All edge pairs are directed `(transmitter, receiver)` and sorted
/// lexicographically; the neighbor lists are sorted ascending. The
/// initiating node is an endpoint of every added/removed edge — that
/// is a structural invariant of single-node reconfigurations (checked
/// by `debug_assert`s when a step completes the delta).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyDelta {
    kind: Option<DeltaKind>,
    node: NodeId,
    /// Directed edges that now exist but did not before the operation.
    pub added: Vec<(NodeId, NodeId)>,
    /// Directed edges that existed before the operation but no longer do.
    pub removed: Vec<(NodeId, NodeId)>,
    /// The initiating node's out-neighbors *after* the operation
    /// (empty for [`DeltaKind::Remove`]).
    pub out_after: Vec<NodeId>,
    /// The initiating node's in-neighbors *after* the operation
    /// (empty for [`DeltaKind::Remove`]).
    pub in_after: Vec<NodeId>,
}

impl Default for TopologyDelta {
    /// An empty delta: no operation recorded, no edges changed.
    fn default() -> Self {
        TopologyDelta {
            kind: None,
            node: NodeId(0),
            added: Vec::new(),
            removed: Vec::new(),
            out_after: Vec::new(),
            in_after: Vec::new(),
        }
    }
}

impl TopologyDelta {
    /// Empties the delta for a step of `kind` at `node`, keeping the
    /// buffers' capacity.
    pub(crate) fn reset(&mut self, kind: DeltaKind, node: NodeId) {
        self.kind = Some(kind);
        self.node = node;
        self.added.clear();
        self.removed.clear();
        self.out_after.clear();
        self.in_after.clear();
    }

    /// Normalizes edge order once a step has filled the delta.
    pub(crate) fn seal(&mut self) {
        self.added.sort_unstable();
        self.removed.sort_unstable();
        let node = self.node;
        debug_assert!(
            self.added
                .iter()
                .chain(&self.removed)
                .all(|&(u, v)| u == node || v == node),
            "every changed edge must touch the initiating node {node}"
        );
        debug_assert!(self.out_after.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self.in_after.windows(2).all(|w| w[0] < w[1]));
    }

    /// What kind of reconfiguration produced this delta.
    ///
    /// # Panics
    /// Panics on a default-constructed (empty) delta, which represents
    /// "no operation recorded".
    pub fn kind(&self) -> DeltaKind {
        self.kind.expect("empty TopologyDelta has no kind")
    }

    /// The node whose reconfiguration produced this delta.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether the operation changed no edges at all.
    pub fn is_edge_noop(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total number of edge insertions plus removals — the `Δ` in the
    /// per-event `O(Δ)` cost accounting.
    pub fn edge_churn(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Every node incident to a changed edge, plus the initiating node
    /// itself: everyone whose link cache an event invalidates. Sorted
    /// ascending, deduplicated.
    ///
    /// This is the *cache-invalidation* set (who must refresh their
    /// local 1/2-hop state in a distributed realization), not the
    /// validation seed set — `minim_graph::conflict::validate_delta`
    /// needs only `{initiating node} ∪ recoded nodes`
    /// (`minim_core::validation_seeds`), a subset of this.
    pub fn touched(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(1 + 2 * self.edge_churn());
        v.push(self.node);
        for &(a, b) in self.added.iter().chain(&self.removed) {
            v.push(a);
            v.push(b);
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The Fig 2 partition of the initiating node's *resulting*
    /// neighborhood — computed purely from the delta, without touching
    /// the graph. Meaningful for insert/move/set-range deltas; for a
    /// [`DeltaKind::Remove`] delta the partition is empty.
    pub fn partitions(&self) -> JoinPartitions {
        JoinPartitions::from_sorted_neighbors(&self.in_after, &self.out_after)
    }

    /// The recode set of this event at the initiating node:
    /// `1n ∪ 2n ∪ {n}`, sorted — the exact node set `RecodeOnJoin` /
    /// `RecodeOnMove` re-plan (Thm 4.1.8's minimal set). Derived from
    /// the delta alone.
    pub fn recode_set(&self) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.recode_set_into(&mut v);
        v
    }

    /// [`TopologyDelta::recode_set`] into a reusable buffer: `out` is
    /// cleared and filled, sorted. Allocation-free once `out` is warm.
    pub fn recode_set_into(&self, out: &mut Vec<NodeId>) {
        // `1n ∪ 2n` is exactly the node's in-neighbor list (Fig 2);
        // the node is never its own in-neighbor.
        out.clear();
        let at = self.in_after.partition_point(|&x| x < self.node);
        out.extend_from_slice(&self.in_after[..at]);
        out.push(self.node);
        out.extend_from_slice(&self.in_after[at..]);
    }

    /// The receivers the node *newly* transmits into: `w` for each
    /// added edge `node → w`. These are exactly the receivers where
    /// fresh CA2 constraints (and the CA1 constraint with `w` itself)
    /// can appear — the only places a power *increase* can create
    /// conflicts (§4.2).
    pub fn new_receivers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.added
            .iter()
            .filter(move |&&(u, _)| u == self.node)
            .map(|&(_, v)| v)
    }

    /// The transmitters that newly reach the node: `u` for each added
    /// edge `u → node`.
    pub fn new_transmitters(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.added
            .iter()
            .filter(move |&&(_, v)| v == self.node)
            .map(|&(u, _)| u)
    }

    /// The node's out-neighbors *before* the operation, reconstructed
    /// from the after-lists and the edge diff (sorted).
    pub fn out_before(&self) -> Vec<NodeId> {
        reconstruct_before(
            &self.out_after,
            self.added
                .iter()
                .filter(|&&(u, _)| u == self.node)
                .map(|&(_, v)| v),
            self.removed
                .iter()
                .filter(|&&(u, _)| u == self.node)
                .map(|&(_, v)| v),
        )
    }

    /// The node's in-neighbors *before* the operation (sorted).
    pub fn in_before(&self) -> Vec<NodeId> {
        reconstruct_before(
            &self.in_after,
            self.added
                .iter()
                .filter(|&&(_, v)| v == self.node)
                .map(|&(u, _)| u),
            self.removed
                .iter()
                .filter(|&&(_, v)| v == self.node)
                .map(|&(u, _)| u),
        )
    }

    /// The node's undirected neighborhood *after* the operation:
    /// `out_after ∪ in_after`, sorted, deduplicated — who a protocol
    /// round-trip reaches post-event.
    pub fn undirected_after(&self) -> Vec<NodeId> {
        merge_sorted_dedup(&self.out_after, &self.in_after)
    }

    /// The node's undirected neighborhood *before* the operation —
    /// who a departure announcement must reach.
    pub fn undirected_before(&self) -> Vec<NodeId> {
        merge_sorted_dedup(&self.out_before(), &self.in_before())
    }
}

/// `after` minus `added_ids` plus `removed_ids`, sorted. (`added_ids`
/// ⊆ `after`; `removed_ids` is disjoint from `after`.)
fn reconstruct_before(
    after: &[NodeId],
    added_ids: impl Iterator<Item = NodeId>,
    removed_ids: impl Iterator<Item = NodeId>,
) -> Vec<NodeId> {
    let mut v = after.to_vec();
    for id in added_ids {
        if let Ok(i) = v.binary_search(&id) {
            v.remove(i);
        }
    }
    for id in removed_ids {
        if let Err(i) = v.binary_search(&id) {
            v.insert(i, id);
        }
    }
    v
}

/// Union of two sorted lists, deduplicated.
fn merge_sorted_dedup(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut v = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                v.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                v.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                v.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    v.extend_from_slice(&a[i..]);
    v.extend_from_slice(&b[j..]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn delta(
        node: u32,
        added: &[(u32, u32)],
        removed: &[(u32, u32)],
        out: &[u32],
        inn: &[u32],
    ) -> TopologyDelta {
        let mut d = TopologyDelta::default();
        d.reset(DeltaKind::Move, n(node));
        d.added.extend(added.iter().map(|&(a, b)| (n(a), n(b))));
        d.removed.extend(removed.iter().map(|&(a, b)| (n(a), n(b))));
        d.out_after.extend(out.iter().copied().map(n));
        d.in_after.extend(inn.iter().copied().map(n));
        d.seal();
        d
    }

    #[test]
    fn touched_covers_all_endpoints_once() {
        let d = delta(5, &[(5, 1), (2, 5)], &[(5, 3)], &[1], &[2]);
        assert_eq!(d.touched(), vec![n(1), n(2), n(3), n(5)]);
        assert_eq!(d.edge_churn(), 3);
        assert!(!d.is_edge_noop());
        assert_eq!(d.node(), n(5));
        assert_eq!(d.kind(), DeltaKind::Move);
    }

    #[test]
    fn partitions_and_recode_set_from_neighbor_lists() {
        // in-only: 2; both: 4; out-only: 7.
        let d = delta(5, &[], &[], &[4, 7], &[2, 4]);
        let p = d.partitions();
        assert_eq!(p.one, vec![n(2)]);
        assert_eq!(p.two, vec![n(4)]);
        assert_eq!(p.three, vec![n(7)]);
        assert_eq!(d.recode_set(), vec![n(2), n(4), n(5)]);
    }

    #[test]
    fn new_receivers_and_transmitters_split_added_edges() {
        let d = delta(5, &[(5, 1), (2, 5), (5, 9)], &[], &[1, 9], &[2]);
        assert_eq!(d.new_receivers().collect::<Vec<_>>(), vec![n(1), n(9)]);
        assert_eq!(d.new_transmitters().collect::<Vec<_>>(), vec![n(2)]);
    }

    #[test]
    fn before_lists_reconstruct_the_old_neighborhood() {
        // Node 5 moved: lost 1 (both directions), gained 9 (out only),
        // kept 4 (both directions).
        let d = delta(5, &[(5, 9)], &[(5, 1), (1, 5)], &[4, 9], &[4]);
        assert_eq!(d.out_before(), vec![n(1), n(4)]);
        assert_eq!(d.in_before(), vec![n(1), n(4)]);
        assert_eq!(d.undirected_after(), vec![n(4), n(9)]);
        assert_eq!(d.undirected_before(), vec![n(1), n(4)]);
    }

    #[test]
    fn empty_delta_reports_noop() {
        let d = TopologyDelta::default();
        assert!(d.is_edge_noop());
        assert_eq!(d.edge_churn(), 0);
        assert_eq!(d.touched(), vec![NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "no kind")]
    fn empty_delta_kind_panics() {
        let _ = TopologyDelta::default().kind();
    }
}
