//! CDMA codes (colors) and network-wide code assignments.
//!
//! Codes are positive integers (§1: "each code modeled as a positive
//! integer"); the efficiency metric throughout the paper is the
//! **maximum code index assigned** in the network, so [`Assignment`]
//! tracks that cheaply, along with the diff operation used to count
//! *recodings* (nodes whose new color differs from their old one, the
//! paper's second metric).

use crate::digraph::NodeId;
use std::collections::HashMap;
use std::fmt;

/// Read-only access to node colors.
///
/// Both [`Assignment`] (the network's real state) and [`ColorView`] (an
/// assignment plus a local overlay of pending writes) implement this,
/// so planning code — conflict queries, the strategies' color pickers —
/// can run identically against committed state or against a plan in
/// progress.
pub trait ColorRead {
    /// The color of `n`, if assigned.
    fn color(&self, n: NodeId) -> Option<Color>;
}

/// A CDMA code: a positive integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Color(u32);

impl Color {
    /// Creates a color.
    ///
    /// # Panics
    /// Panics if `c == 0`; codes are positive integers.
    #[inline]
    pub fn new(c: u32) -> Self {
        assert!(c >= 1, "codes are positive integers; got 0");
        Color(c)
    }

    /// The raw index (≥ 1).
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// The smallest positive color not contained in the sorted-or-not
    /// iterator `used` — the "lowest available color" rule shared by
    /// the CP baseline and `RecodeOnPowIncrease`.
    ///
    /// ```
    /// use minim_graph::Color;
    /// let used = [Color::new(1), Color::new(3)];
    /// assert_eq!(Color::lowest_excluding(used), Color::new(2));
    /// assert_eq!(Color::lowest_excluding([]), Color::new(1));
    /// ```
    pub fn lowest_excluding<I: IntoIterator<Item = Color>>(used: I) -> Color {
        let mut taken: Vec<u32> = used.into_iter().map(|c| c.0).collect();
        taken.sort_unstable();
        taken.dedup();
        let mut candidate = 1u32;
        for t in taken {
            if t > candidate {
                break;
            }
            if t == candidate {
                candidate += 1;
            }
        }
        Color(candidate)
    }

    /// [`Color::lowest_excluding`] over an already **sorted** slice —
    /// allocation-free, for hot loops whose avoid-lists come out of
    /// the buffered constraint helpers (which sort them anyway).
    /// Duplicates are tolerated.
    ///
    /// ```
    /// use minim_graph::Color;
    /// let used = [Color::new(1), Color::new(2), Color::new(5)];
    /// assert_eq!(Color::lowest_excluding_sorted(&used), Color::new(3));
    /// assert_eq!(Color::lowest_excluding_sorted(&[]), Color::new(1));
    /// ```
    pub fn lowest_excluding_sorted(used: &[Color]) -> Color {
        debug_assert!(used.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
        let mut candidate = 1u32;
        for c in used {
            if c.0 > candidate {
                break;
            }
            if c.0 == candidate {
                candidate += 1;
            }
        }
        Color(candidate)
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A (partial) code assignment: node → color.
///
/// Nodes without an entry are *uncolored* (e.g. a node that has not yet
/// finished its join protocol).
///
/// Storage is a dense slab indexed by [`NodeId`] (node ids are
/// allocated densely from 0 by `minim-net`), so `get`/`set`/`unset`
/// are direct indexing with no hashing on the hot path, and iteration
/// is deterministic (ascending node id). A per-color-index histogram
/// makes [`Assignment::max_color_index`] — read after every event by
/// the experiment harness — `O(1)`.
#[derive(Debug, Clone, Default, Eq)]
pub struct Assignment {
    /// Slab: `colors[n.index()]` is node `n`'s color, if any.
    colors: Vec<Option<Color>>,
    /// Number of `Some` entries.
    len: usize,
    /// `counts[k]` = number of nodes currently holding color index `k`
    /// (index 0 unused; colors are positive).
    counts: Vec<u32>,
    /// The maximum color index assigned (0 when empty), maintained
    /// eagerly from the histogram.
    max: u32,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Assignment::default()
    }

    /// The color of `n`, if assigned.
    #[inline]
    pub fn get(&self, n: NodeId) -> Option<Color> {
        self.colors.get(n.index()).copied().flatten()
    }

    #[inline]
    fn count_up(&mut self, c: Color) {
        let k = c.0 as usize;
        if k >= self.counts.len() {
            self.counts.resize(k + 1, 0);
        }
        self.counts[k] += 1;
        self.max = self.max.max(c.0);
    }

    #[inline]
    fn count_down(&mut self, c: Color) {
        let k = c.0 as usize;
        debug_assert!(self.counts[k] > 0, "histogram underflow at color {c}");
        self.counts[k] -= 1;
        if self.counts[k] == 0 && c.0 == self.max {
            while self.max > 0 && self.counts[self.max as usize] == 0 {
                self.max -= 1;
            }
        }
    }

    /// Sets the color of `n`, returning the previous color if any.
    pub fn set(&mut self, n: NodeId, c: Color) -> Option<Color> {
        let i = n.index();
        if i >= self.colors.len() {
            self.colors.resize(i + 1, None);
        }
        let old = self.colors[i].replace(c);
        match old {
            Some(o) if o == c => return old,
            Some(o) => self.count_down(o),
            None => self.len += 1,
        }
        self.count_up(c);
        old
    }

    /// Removes `n`'s color (e.g. on leave), returning it if present.
    pub fn unset(&mut self, n: NodeId) -> Option<Color> {
        let old = self.colors.get_mut(n.index()).and_then(Option::take);
        if let Some(o) = old {
            self.len -= 1;
            self.count_down(o);
        }
        old
    }

    /// Number of colored nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is colored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The maximum code index assigned, or 0 if empty. `O(1)`.
    ///
    /// This is the paper's first performance metric ("the lower, the
    /// better is the code reuse", §5).
    pub fn max_color_index(&self) -> u32 {
        self.max
    }

    /// Iterates over `(node, color)` pairs in ascending node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Color)> + '_ {
        self.colors
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (NodeId(i as u32), c)))
    }

    /// Counts the *recodings* between `before` and `self`: nodes whose
    /// color in `self` differs from their color in `before`, including
    /// nodes newly assigned (a joiner's first code counts as a recoding,
    /// as in the paper's Fig 4 accounting). Nodes that disappeared
    /// (left the network) do not count.
    pub fn recodings_since(&self, before: &Assignment) -> usize {
        self.iter()
            .filter(|&(n, c)| before.get(n) != Some(c))
            .count()
    }

    /// The nodes recoded between `before` and `self`, with
    /// `(node, old, new)` triples; `old` is `None` for fresh joiners.
    /// Sorted by node id.
    pub fn recoded_nodes(&self, before: &Assignment) -> Vec<(NodeId, Option<Color>, Color)> {
        self.iter()
            .filter(|&(n, c)| before.get(n) != Some(c))
            .map(|(n, c)| (n, before.get(n), c))
            .collect()
    }
}

/// Logical equality: the same node→color map, regardless of slab
/// capacity (an assignment that grew and shrank compares equal to a
/// fresh one with the same contents).
impl PartialEq for Assignment {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl FromIterator<(NodeId, Color)> for Assignment {
    fn from_iter<T: IntoIterator<Item = (NodeId, Color)>>(iter: T) -> Self {
        let mut a = Assignment::new();
        for (n, c) in iter {
            a.set(n, c);
        }
        a
    }
}

impl ColorRead for Assignment {
    #[inline]
    fn color(&self, n: NodeId) -> Option<Color> {
        self.get(n)
    }
}

/// An [`Assignment`] plus a local overlay of pending writes.
///
/// Batch-mode strategy planning must compute color decisions *without*
/// mutating the shared network (many plans run concurrently against
/// one immutable `Network`), yet CP-style reselection reads its own
/// intermediate writes. A `ColorView` gives each plan a private
/// scratch layer: reads fall through to the base assignment unless the
/// plan has overridden the node; writes stay in the overlay.
#[derive(Debug, Clone)]
pub struct ColorView<'a> {
    base: &'a Assignment,
    /// Pending writes: `Some(c)` recolors, `None` uncolors.
    over: HashMap<NodeId, Option<Color>>,
}

impl<'a> ColorView<'a> {
    /// A view with no pending writes.
    pub fn new(base: &'a Assignment) -> Self {
        ColorView {
            base,
            over: HashMap::new(),
        }
    }

    /// The color of `n` as the plan currently sees it.
    #[inline]
    pub fn get(&self, n: NodeId) -> Option<Color> {
        match self.over.get(&n) {
            Some(&c) => c,
            None => self.base.get(n),
        }
    }

    /// Overrides `n`'s color in the overlay.
    pub fn set(&mut self, n: NodeId, c: Color) {
        self.over.insert(n, Some(c));
    }

    /// Marks `n` uncolored in the overlay.
    pub fn unset(&mut self, n: NodeId) {
        self.over.insert(n, None);
    }
}

impl ColorRead for ColorView<'_> {
    #[inline]
    fn color(&self, n: NodeId) -> Option<Color> {
        self.get(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn c(i: u32) -> Color {
        Color::new(i)
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn color_zero_is_rejected() {
        let _ = Color::new(0);
    }

    #[test]
    fn lowest_excluding_fills_gaps() {
        assert_eq!(Color::lowest_excluding([]), c(1));
        assert_eq!(Color::lowest_excluding([c(1), c(2), c(3)]), c(4));
        assert_eq!(Color::lowest_excluding([c(2), c(4)]), c(1));
        assert_eq!(Color::lowest_excluding([c(1), c(3)]), c(2));
        assert_eq!(Color::lowest_excluding([c(1), c(1), c(2)]), c(3));
    }

    #[test]
    fn set_get_unset() {
        let mut a = Assignment::new();
        assert_eq!(a.get(n(1)), None);
        assert_eq!(a.set(n(1), c(4)), None);
        assert_eq!(a.set(n(1), c(5)), Some(c(4)));
        assert_eq!(a.get(n(1)), Some(c(5)));
        assert_eq!(a.unset(n(1)), Some(c(5)));
        assert!(a.is_empty());
    }

    #[test]
    fn max_color_index_is_the_largest_color() {
        let a: Assignment = [(n(1), c(3)), (n(2), c(7)), (n(3), c(3))]
            .into_iter()
            .collect();
        assert_eq!(a.max_color_index(), 7);
        assert_eq!(Assignment::new().max_color_index(), 0);
    }

    #[test]
    fn recodings_count_changes_and_joins_but_not_leaves() {
        let before: Assignment = [(n(1), c(1)), (n(2), c(2)), (n(3), c(3))]
            .into_iter()
            .collect();
        // Node 1 keeps its color, node 2 changes, node 3 leaves,
        // node 4 joins.
        let after: Assignment = [(n(1), c(1)), (n(2), c(5)), (n(4), c(2))]
            .into_iter()
            .collect();
        assert_eq!(after.recodings_since(&before), 2);
        let detail = after.recoded_nodes(&before);
        assert_eq!(detail, vec![(n(2), Some(c(2)), c(5)), (n(4), None, c(2))]);
    }

    #[test]
    fn recodings_since_self_is_zero() {
        let a: Assignment = [(n(1), c(1)), (n(2), c(2))].into_iter().collect();
        assert_eq!(a.recodings_since(&a.clone()), 0);
    }

    #[test]
    fn max_color_tracks_set_unset_churn() {
        let mut a = Assignment::new();
        assert_eq!(a.max_color_index(), 0);
        a.set(n(1), c(5));
        a.set(n(2), c(9));
        assert_eq!(a.max_color_index(), 9);
        // Re-coloring the max holder downward drops the max.
        a.set(n(2), c(3));
        assert_eq!(a.max_color_index(), 5);
        a.unset(n(1));
        assert_eq!(a.max_color_index(), 3);
        a.unset(n(2));
        assert_eq!(a.max_color_index(), 0);
        assert!(a.is_empty());
        // Two holders of the max: removing one keeps it.
        a.set(n(1), c(7));
        a.set(n(2), c(7));
        a.unset(n(1));
        assert_eq!(a.max_color_index(), 7);
    }

    #[test]
    fn equality_ignores_slab_capacity() {
        let mut grown = Assignment::new();
        grown.set(n(900), c(4));
        grown.unset(n(900));
        grown.set(n(1), c(2));
        let fresh: Assignment = [(n(1), c(2))].into_iter().collect();
        assert_eq!(grown, fresh);
        assert_ne!(fresh, Assignment::new());
    }

    #[test]
    fn iter_is_ascending_by_id() {
        let a: Assignment = [(n(5), c(1)), (n(1), c(2)), (n(3), c(3))]
            .into_iter()
            .collect();
        let ids: Vec<u32> = a.iter().map(|(n, _)| n.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn color_view_overlays_without_touching_base() {
        let base: Assignment = [(n(1), c(1)), (n(2), c(2))].into_iter().collect();
        let mut v = ColorView::new(&base);
        assert_eq!(v.get(n(1)), Some(c(1)));
        v.unset(n(1));
        v.set(n(3), c(7));
        assert_eq!(v.get(n(1)), None);
        assert_eq!(v.get(n(2)), Some(c(2)), "falls through to base");
        assert_eq!(v.get(n(3)), Some(c(7)));
        assert_eq!(v.color(n(3)), Some(c(7)));
        // The base is untouched.
        assert_eq!(base.get(n(1)), Some(c(1)));
        assert_eq!(base.get(n(3)), None);
    }
}
