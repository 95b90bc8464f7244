//! Deterministic union-find (disjoint-set forest) over dense indices.
//!
//! `minim-power`'s island scheduler partitions its relaxation worklist
//! into conflict-free groups with this structure: it merges worklist
//! rows connected through the transposed interference index into
//! independently relaxable islands. It needs a determinism guarantee:
//! the root of a component must not depend on union order, so island
//! ids are reproducible across runs and worker counts.
//!
//! [`UnionFind`] pins that down by always attaching the larger root
//! index under the smaller (min-root-wins): the root of a component is
//! the minimum element ever merged into it, regardless of the order
//! the unions arrived in. Lookups use path halving, so amortized costs
//! are the usual near-constant inverse-Ackermann bound.
//!
//! The structure is reusable: [`UnionFind::reset`] re-initializes in
//! place without shrinking the backing allocation, for callers that
//! re-partition every tick and must stay allocation-free once warm.

/// A disjoint-set forest over `0..len` with path-halving lookups and
/// deterministic min-root union. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets: every element is its own root.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Re-initializes to `n` singleton sets, reusing the backing
    /// storage (no allocation when `n` fits the retained capacity).
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
    }

    /// Number of elements (not components).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root of `x`'s component — always the minimum element ever
    /// unioned into it. Compresses the path by halving as it walks.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// Merges the components of `a` and `b`. The larger root attaches
    /// under the smaller, so component identity is deterministic under
    /// any union order.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_their_own_roots() {
        let mut uf = UnionFind::new(5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn min_root_wins_regardless_of_union_order() {
        // Same component built in two different orders: same root.
        let mut a = UnionFind::new(6);
        a.union(4, 5);
        a.union(2, 4);
        a.union(5, 1);
        let mut b = UnionFind::new(6);
        b.union(1, 2);
        b.union(2, 5);
        b.union(4, 2);
        for x in [1, 2, 4, 5] {
            assert_eq!(a.find(x), 1);
            assert_eq!(b.find(x), 1);
        }
        assert_eq!(a.find(0), 0);
        assert_eq!(a.find(3), 3);
    }

    #[test]
    fn transitive_chains_merge() {
        let mut uf = UnionFind::new(8);
        uf.union(6, 7);
        uf.union(5, 6);
        uf.union(0, 7);
        assert_eq!(uf.find(5), 0);
        assert_eq!(uf.find(6), 0);
        assert_eq!(uf.find(7), 0);
    }

    #[test]
    fn reset_reuses_storage() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 3);
        uf.reset(4);
        assert_eq!(uf.find(3), 3, "reset restores singletons");
        uf.reset(2);
        assert_eq!(uf.len(), 2);
    }
}
