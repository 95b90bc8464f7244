//! Bipartite matching engines.
//!
//! `RecodeOnJoin` / `RecodeOnMove` (paper §4.1, §4.4) reduce minimal
//! recoding to a **maximum-weight matching** on a bipartite graph
//! between the affected nodes (`1n ∪ 2n ∪ {n}`) and the color indices
//! `1..=max`: an edge `(u, k)` exists iff color `k` does not violate
//! `u`'s constraints against nodes outside the recode set, with weight
//! 3 if `k` is `u`'s old color and weight 1 otherwise. The paper treats
//! the matching algorithm as a black box (\[14\], Galil's survey); this
//! crate *is* that black box:
//!
//! * [`DenseHungarian`] — the kernel the recode planner runs: the
//!   Hungarian algorithm with dual potentials, `O(L² · R)`, over a
//!   dense weight matrix the caller fills, with every buffer reused
//!   across calls. Vertices may remain unmatched (the matching need
//!   not be perfect).
//! * [`WeightedBipartite`] + [`max_weight_matching`] — the same
//!   algorithm over sparse adjacency lists: the reference the kernel
//!   is tested against, bit for bit.
//!
//! Two test-only oracles back the property tests: exhaustive search
//! (`brute`) and Hopcroft–Karp maximum-*cardinality* matching
//! (`hopcroft_karp`), which the Hungarian must agree with on uniform
//! weights.
//!
//! `minim-core` builds the instances: it gathers each recode-set
//! member's forbidden colors as bitmasks and derives the weight rows
//! from them (Fig 3 / Fig 8 steps 1–2); this crate solves them (steps
//! 3–5).

#![deny(missing_docs)]

#[cfg(test)]
mod brute;
#[cfg(test)]
mod hopcroft_karp;
pub mod hungarian;

pub use hungarian::{max_weight_matching, DenseHungarian};

/// A weighted bipartite graph with `left` and `right` vertex classes.
///
/// Edges carry strictly positive integer weights (the Minim instances
/// use 1 and 3). Parallel edges collapse to the maximum weight.
#[derive(Debug, Clone)]
pub struct WeightedBipartite {
    left: usize,
    right: usize,
    /// Per left vertex: sorted `(right, weight)` pairs.
    adj: Vec<Vec<(usize, i64)>>,
}

impl WeightedBipartite {
    /// Creates an instance with `left` × `right` vertices and no edges.
    pub fn new(left: usize, right: usize) -> Self {
        WeightedBipartite {
            left,
            right,
            adj: vec![Vec::new(); left],
        }
    }

    /// Number of left vertices.
    pub fn left_count(&self) -> usize {
        self.left
    }

    /// Number of right vertices.
    pub fn right_count(&self) -> usize {
        self.right
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Adds edge `(l, r)` with weight `w`. If the edge exists, keeps the
    /// larger weight.
    ///
    /// # Panics
    /// Panics if a vertex is out of range or `w <= 0`.
    pub fn add_edge(&mut self, l: usize, r: usize, w: i64) {
        assert!(l < self.left, "left vertex {l} out of range");
        assert!(r < self.right, "right vertex {r} out of range");
        assert!(w > 0, "weights must be strictly positive, got {w}");
        match self.adj[l].binary_search_by_key(&r, |&(rr, _)| rr) {
            Ok(i) => self.adj[l][i].1 = self.adj[l][i].1.max(w),
            Err(i) => self.adj[l].insert(i, (r, w)),
        }
    }

    /// The weight of edge `(l, r)`, or `None` if absent.
    pub fn weight(&self, l: usize, r: usize) -> Option<i64> {
        self.adj
            .get(l)?
            .binary_search_by_key(&r, |&(rr, _)| rr)
            .ok()
            .map(|i| self.adj[l][i].1)
    }

    /// Whether edge `(l, r)` exists.
    pub fn has_edge(&self, l: usize, r: usize) -> bool {
        self.weight(l, r).is_some()
    }

    /// The `(right, weight)` neighbors of left vertex `l`.
    pub fn neighbors(&self, l: usize) -> &[(usize, i64)] {
        &self.adj[l]
    }
}

/// A matching: for each left vertex, its matched right vertex (if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// `pairs[l] = Some(r)` iff left `l` is matched to right `r`.
    pub pairs: Vec<Option<usize>>,
    /// Total weight of the matched edges.
    pub weight: i64,
}

impl Matching {
    /// Number of matched pairs.
    pub fn cardinality(&self) -> usize {
        self.pairs.iter().filter(|p| p.is_some()).count()
    }

    /// Checks that `self` is a valid matching of `g`: every pair is an
    /// existing edge, no right vertex is used twice, and the recorded
    /// weight is the sum of the matched edges' weights.
    pub fn validate(&self, g: &WeightedBipartite) -> Result<(), String> {
        if self.pairs.len() != g.left_count() {
            return Err(format!(
                "pairs length {} != left count {}",
                self.pairs.len(),
                g.left_count()
            ));
        }
        let mut used = vec![false; g.right_count()];
        let mut w = 0i64;
        for (l, p) in self.pairs.iter().enumerate() {
            if let Some(r) = *p {
                let Some(ew) = g.weight(l, r) else {
                    return Err(format!("pair ({l}, {r}) is not an edge"));
                };
                if used[r] {
                    return Err(format!("right vertex {r} matched twice"));
                }
                used[r] = true;
                w += ew;
            }
        }
        if w != self.weight {
            return Err(format!(
                "weight mismatch: recorded {} actual {w}",
                self.weight
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_and_lookup() {
        let mut g = WeightedBipartite::new(2, 3);
        g.add_edge(0, 2, 3);
        g.add_edge(1, 0, 1);
        assert_eq!(g.weight(0, 2), Some(3));
        assert_eq!(g.weight(0, 0), None);
        assert!(g.has_edge(1, 0));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(0), &[(2, 3)]);
    }

    #[test]
    fn duplicate_edge_keeps_max_weight() {
        let mut g = WeightedBipartite::new(1, 1);
        g.add_edge(0, 0, 1);
        g.add_edge(0, 0, 3);
        g.add_edge(0, 0, 2);
        assert_eq!(g.weight(0, 0), Some(3));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_weight_rejected() {
        let mut g = WeightedBipartite::new(1, 1);
        g.add_edge(0, 0, 0);
    }

    #[test]
    fn matching_validate_catches_errors() {
        let mut g = WeightedBipartite::new(2, 2);
        g.add_edge(0, 0, 1);
        g.add_edge(1, 0, 1);
        let ok = Matching {
            pairs: vec![Some(0), None],
            weight: 1,
        };
        assert!(ok.validate(&g).is_ok());
        let non_edge = Matching {
            pairs: vec![Some(1), None],
            weight: 1,
        };
        assert!(non_edge.validate(&g).is_err());
        let double = Matching {
            pairs: vec![Some(0), Some(0)],
            weight: 2,
        };
        assert!(double.validate(&g).is_err());
        let bad_weight = Matching {
            pairs: vec![Some(0), None],
            weight: 5,
        };
        assert!(bad_weight.validate(&g).is_err());
    }
}
