//! Range-stratified spatial index — the reverse-reach accelerator.
//!
//! The flat [`SpatialGrid`] answers the *forward* query ("who is within
//! distance `r` of `p`?") in expected `O(1)` per neighbor, but the
//! event path's expensive question is the *reverse* one: "who can
//! **reach** `p`?" — every node `u` with `dist(u, p) <= r_u`. With a
//! single grid the only sound strategy is scanning with an upper bound
//! on *every* node's range, so one long-range node (a "lighthouse")
//! permanently inflates every reverse query to `O(R_max² · density)`.
//! Power control produces exactly this heterogeneous-range regime.
//!
//! [`StratifiedGrid`] buckets nodes by transmission range into
//! geometric tiers: tier 0 holds ranges in `[0, base]`, tier `t` holds
//! ranges in `(base·2^(t-1), base·2^t]`. Each tier is backed by its own
//! [`SpatialGrid`] whose cell size matches the tier's range cap, so a
//! reverse-reach query scans each **non-empty** tier with radius equal
//! to that tier's cap instead of the global watermark:
//!
//! * thousands of short-range nodes cost a radius-`base` scan,
//! * the lighthouse's tier holds one node in huge cells — a handful of
//!   cell probes,
//! * and [`StratifiedGrid::range_bound`] becomes a *derived* quantity
//!   (the cap of the highest occupied tier) that **tightens** when
//!   long-range nodes shrink or leave, instead of a monotone watermark.
//!
//! Every entry also carries a **clear bound** for the caller: a lower
//! bound on the squared distance to the nearest point its range does
//! not cover and that could become its out-neighbor. A range change
//! below it moves no edge. The index stores the bound clamped to
//! `[range², scan radius²]` of the entry's tier, so the reverse scan
//! that finds every entry whose range covers a point also finds every
//! entry whose *clear disc* covers it
//! ([`StratifiedGrid::for_each_in_clear_disc`]); the tiers stay keyed
//! by range. [`StratifiedGrid::for_each_within`], the forward query,
//! also returns a bound: the nearest scanned point beyond
//! the radius, or the inscribed radius of the scanned cells, whichever
//! is smaller. Keeping the bound valid as other entries move is the
//! caller's job; `minim-net` lowers it from its reverse query.
//!
//! A `flat` construction mode ([`StratifiedGrid::new_flat`]) forces
//! every node into tier 0 and keeps the old monotone watermark — it
//! reproduces the pre-stratification behavior exactly and exists so
//! benches can measure the tier win on identical workloads.

use crate::grid::SpatialGrid;
use crate::Point;

/// Hard cap on the number of tiers. `f64` ranges span at most ~2100
/// binary orders of magnitude above any positive base, but every tier
/// costs a (lazily filled) slot in the tier table; 64 tiers cover a
/// `2^64` dynamic range over the base cell, far beyond any physical
/// radio. Ranges beyond the last cap saturate into the top tier, whose
/// scan radius then falls back to a per-tier range watermark.
const MAX_TIERS: usize = 64;

/// One range class: a grid with cells sized to the class cap.
#[derive(Debug, Clone)]
struct Tier {
    grid: SpatialGrid,
    /// Upper bound on the range of every node in this tier (`base·2^t`),
    /// except in the saturated top tier and in flat mode, where
    /// `watermark` rules.
    cap: f64,
    /// Monotone max range ever seen in this tier while occupied; reset
    /// to 0 when the tier empties. Only consulted when it exceeds
    /// `cap` (saturated tier) or in flat mode.
    watermark: f64,
}

impl Tier {
    fn new(cell: f64, cap: f64) -> Tier {
        Tier {
            grid: SpatialGrid::new(cell),
            cap,
            watermark: 0.0,
        }
    }

    /// The radius a reverse-reach scan of this tier must use.
    #[inline]
    fn scan_radius(&self) -> f64 {
        self.cap.max(self.watermark)
    }
}

/// One indexed entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    range: f64,
    /// The clear bound, squared, within `[range², scan radius²]`.
    clear2: f64,
    tier: u8,
}

/// A spatial index over `(u32 id, Point, range)` entries, stratified
/// by range tier, answering both forward (`within`) and reverse
/// ([`StratifiedGrid::for_each_reaching`]) proximity queries.
///
/// Ids are expected dense (the reverse map is a slab indexed by id),
/// matching [`SpatialGrid`]'s contract.
#[derive(Debug, Clone)]
pub struct StratifiedGrid {
    /// Tier-0 cell size and the tier boundary geometric base.
    base: f64,
    tiers: Vec<Tier>,
    /// Slab: `entries[id]` for present ids.
    entries: Vec<Option<Entry>>,
    len: usize,
    /// Flat mode: single tier, monotone watermark — the
    /// pre-stratification behavior, kept for A/B benchmarking.
    flat: bool,
}

impl StratifiedGrid {
    /// Creates an empty stratified index. `base_cell` sizes tier 0 and
    /// anchors the geometric tier boundaries; a good value is the
    /// typical (short) transmission range.
    ///
    /// # Panics
    /// Panics if `base_cell` is not strictly positive and finite.
    pub fn new(base_cell: f64) -> Self {
        assert!(
            base_cell.is_finite() && base_cell > 0.0,
            "base_cell must be positive and finite, got {base_cell}"
        );
        StratifiedGrid {
            base: base_cell,
            tiers: Vec::new(),
            entries: Vec::new(),
            len: 0,
            flat: false,
        }
    }

    /// Creates a **flat** (single-tier, monotone-watermark) index with
    /// the given cell size — behaviorally the pre-stratification
    /// `SpatialGrid` + watermark pair. Benchmarks use this arm to
    /// measure what stratification buys on identical workloads.
    pub fn new_flat(cell: f64) -> Self {
        let mut g = StratifiedGrid::new(cell);
        g.flat = true;
        g
    }

    /// Whether this index was built flat ([`StratifiedGrid::new_flat`]).
    pub fn is_flat(&self) -> bool {
        self.flat
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tier-0 cell size (the construction hint).
    pub fn base_cell(&self) -> f64 {
        self.base
    }

    /// The tier a range belongs to: 0 for `[0, base]`, `t` for
    /// `(base·2^(t-1), base·2^t]`, saturating at [`MAX_TIERS`]` - 1`.
    #[inline]
    fn tier_of(&self, range: f64) -> usize {
        if self.flat {
            return 0;
        }
        let mut t = 0usize;
        let mut cap = self.base;
        while range > cap && t + 1 < MAX_TIERS {
            cap *= 2.0;
            t += 1;
        }
        t
    }

    /// Ensures tier `t` exists and returns it mutably.
    fn tier_slot(&mut self, t: usize) -> &mut Tier {
        while self.tiers.len() <= t {
            let i = self.tiers.len();
            // Tier cell size == tier cap: a reverse scan of the tier
            // visits O(1) cells per reported candidate. Flat mode keeps
            // the plain cell-size semantics of the old grid.
            let cap = self.base * 2.0f64.powi(i as i32);
            let cell = if self.flat { self.base } else { cap };
            self.tiers.push(Tier::new(cell, cap));
        }
        &mut self.tiers[t]
    }

    #[inline]
    fn entry(&self, id: u32) -> Option<Entry> {
        self.entries.get(id as usize).copied().flatten()
    }

    fn slot_mut(&mut self, id: u32) -> &mut Option<Entry> {
        let i = id as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        &mut self.entries[i]
    }

    /// Inserts `id` at `pos` with transmission `range` and clear bound
    /// `range²`. Returns `false` (and does nothing) if the id is already
    /// present.
    ///
    /// # Panics
    /// Panics if `range` is negative or not finite.
    pub fn insert(&mut self, id: u32, pos: Point, range: f64) -> bool {
        assert!(
            range.is_finite() && range >= 0.0,
            "range must be finite and non-negative, got {range}"
        );
        if self.entry(id).is_some() {
            return false;
        }
        let t = self.tier_of(range);
        let tier = self.tier_slot(t);
        tier.grid.insert(id, pos);
        tier.watermark = tier.watermark.max(range);
        *self.slot_mut(id) = Some(Entry {
            range,
            clear2: range * range,
            tier: t as u8,
        });
        self.len += 1;
        true
    }

    /// Removes `id`. Returns its last position, or `None` if absent.
    pub fn remove(&mut self, id: u32) -> Option<Point> {
        let t = self
            .entries
            .get_mut(id as usize)
            .and_then(Option::take)?
            .tier;
        let tier = &mut self.tiers[t as usize];
        let pos = tier.grid.remove(id).expect("entry listed in its tier");
        if tier.grid.is_empty() {
            // The tier emptied: its watermark no longer constrains
            // anything — this is the "lighthouse leaves" tightening.
            tier.watermark = 0.0;
        }
        self.len -= 1;
        Some(pos)
    }

    /// Moves `id` to `new_pos` (range and tier unchanged). Returns
    /// `false` if the id is absent.
    pub fn relocate(&mut self, id: u32, new_pos: Point) -> bool {
        let Some(e) = self.entry(id) else {
            return false;
        };
        self.tiers[e.tier as usize].grid.relocate(id, new_pos)
    }

    /// Sets `id`'s transmission range, migrating it across tiers when
    /// the range crosses a tier boundary, and clamps its clear bound
    /// into the new `[range², scan radius²]`. Returns `false` if absent.
    ///
    /// # Panics
    /// Panics if `range` is negative or not finite.
    pub fn set_range(&mut self, id: u32, range: f64) -> bool {
        assert!(
            range.is_finite() && range >= 0.0,
            "range must be finite and non-negative, got {range}"
        );
        let Some(Entry {
            clear2,
            tier: old_t,
            ..
        }) = self.entry(id)
        else {
            return false;
        };
        let new_t = self.tier_of(range) as u8;
        if new_t != old_t {
            let old_tier = &mut self.tiers[old_t as usize];
            let pos = old_tier.grid.remove(id).expect("entry listed in tier");
            if old_tier.grid.is_empty() {
                old_tier.watermark = 0.0;
            }
            let tier = self.tier_slot(new_t as usize);
            tier.grid.insert(id, pos);
        }
        // The watermark is monotone while the tier stays occupied —
        // in flat mode this reproduces the old global never-shrinking
        // bound; in stratified mode it only matters for the saturated
        // top tier, whose cap does not cover its ranges.
        let tier = &mut self.tiers[new_t as usize];
        tier.watermark = tier.watermark.max(range);
        *self.slot_mut(id) = Some(Entry {
            range,
            clear2,
            tier: new_t,
        });
        self.set_clear_bound(id, clear2)
    }

    /// The clear bound stored for `id`, squared, if indexed.
    pub fn clear_bound(&self, id: u32) -> Option<f64> {
        self.entry(id).map(|e| e.clear2)
    }

    /// Sets `id`'s squared clear bound to `clear2`, clamped into
    /// `[range², scan radius²]`. Returns `false` if absent.
    pub fn set_clear_bound(&mut self, id: u32, clear2: f64) -> bool {
        let Some(e) = self.entries.get_mut(id as usize).and_then(Option::as_mut) else {
            return false;
        };
        let scan = self.tiers[e.tier as usize].scan_radius();
        e.clear2 = clear2.min(scan * scan).max(e.range * e.range);
        true
    }

    /// The reverse-reach scan radius of the tier holding `id`, if
    /// indexed: the ceiling of its clear bound.
    pub fn scan_radius_of(&self, id: u32) -> Option<f64> {
        self.entry(id)
            .map(|e| self.tiers[e.tier as usize].scan_radius())
    }

    /// The current position of `id`, if indexed.
    pub fn position(&self, id: u32) -> Option<Point> {
        let e = self.entry(id)?;
        self.tiers[e.tier as usize].grid.position(id)
    }

    /// The transmission range stored for `id`, if indexed.
    pub fn range_of(&self, id: u32) -> Option<f64> {
        self.entry(id).map(|e| e.range)
    }

    /// A tight-enough upper bound on every present entry's range,
    /// **derived from tier occupancy**: the scan radius of the highest
    /// non-empty tier (at most 2× the true maximum; exactly the old
    /// monotone watermark in flat mode). Unlike the watermark this
    /// *shrinks* when long-range nodes shrink or leave, which lets
    /// batch planning claim smaller neighborhoods.
    pub fn range_bound(&self) -> f64 {
        self.tiers
            .iter()
            .filter(|t| !t.grid.is_empty())
            .map(Tier::scan_radius)
            .fold(0.0, f64::max)
    }

    /// Calls `f(id, pos)` for every entry within distance `radius` of
    /// `center` (boundary inclusive) — the forward query, summed over
    /// all non-empty tiers. Order is unspecified.
    ///
    /// Returns a lower bound on `dist2` from `center` to every entry
    /// farther than `radius` (see [`SpatialGrid::for_each_within`]):
    /// the smallest over the non-empty tiers, infinite when all are
    /// empty.
    pub fn for_each_within<F: FnMut(u32, Point)>(
        &self,
        center: &Point,
        radius: f64,
        mut f: F,
    ) -> f64 {
        let mut clear2 = f64::INFINITY;
        for tier in &self.tiers {
            if !tier.grid.is_empty() {
                clear2 = clear2.min(tier.grid.for_each_within(center, radius, &mut f));
            }
        }
        clear2
    }

    /// Calls `f(id, pos, range)` for every entry whose **own range
    /// covers `center`** (`dist(entry, center) <= range`, boundary
    /// inclusive) — the reverse-reach query. Each non-empty tier is
    /// scanned with radius equal to *that tier's* cap, so the cost
    /// tracks the local range mix instead of the global maximum.
    pub fn for_each_reaching<F: FnMut(u32, Point, f64)>(&self, center: &Point, mut f: F) {
        self.for_each_reverse(center, |id, pos, e| {
            if pos.within(center, e.range) {
                f(id, pos, e.range);
            }
        });
    }

    /// Calls `f(id, pos, range, clear2)` for every entry whose **clear
    /// disc covers `center`** (`dist2(entry, center) <= clear2`) — a
    /// superset of [`StratifiedGrid::for_each_reaching`], since the
    /// bound is at least `range²`, found by the same tier scans, since
    /// it is at most the scan radius².
    pub fn for_each_in_clear_disc<F: FnMut(u32, Point, f64, f64)>(&self, center: &Point, mut f: F) {
        self.for_each_reverse(center, |id, pos, e| {
            if pos.dist2(center) <= e.clear2 {
                f(id, pos, e.range, e.clear2);
            }
        });
    }

    /// Scans each non-empty tier at its scan radius around `center`.
    #[inline]
    fn for_each_reverse<F: FnMut(u32, Point, &Entry)>(&self, center: &Point, mut f: F) {
        for tier in &self.tiers {
            if tier.grid.is_empty() {
                continue;
            }
            let radius = tier.scan_radius();
            tier.grid.for_each_within(center, radius, |id, pos| {
                f(
                    id,
                    pos,
                    self.entries[id as usize]
                        .as_ref()
                        .expect("listed id is present"),
                );
            });
        }
    }

    /// Collects the ids within `radius` of `center`, sorted by id.
    pub fn within(&self, center: &Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |id, _| out.push(id));
        out.sort_unstable();
        out
    }

    /// Collects the ids whose range covers `center`, sorted by id.
    pub fn reaching(&self, center: &Point) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_reaching(center, |id, _, _| out.push(id));
        out.sort_unstable();
        out
    }

    /// Iterates over all `(id, position, range)` entries in ascending
    /// id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Point, f64)> + '_ {
        self.entries.iter().enumerate().filter_map(|(i, e)| {
            e.map(|e| {
                let pos = self.tiers[e.tier as usize]
                    .grid
                    .position(i as u32)
                    .expect("entry listed in its tier");
                (i as u32, pos, e.range)
            })
        })
    }

    /// Number of tiers currently holding at least one entry (a
    /// diagnostic for benches and tests).
    pub fn occupied_tiers(&self) -> usize {
        self.tiers.iter().filter(|t| !t.grid.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    struct Ref {
        pos: Point,
        range: f64,
    }

    /// The model: a plain list of entries.
    fn brute_within(m: &[(u32, Ref)], c: &Point, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = m
            .iter()
            .filter(|(_, e)| c.within(&e.pos, r))
            .map(|&(id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    fn brute_reaching(m: &[(u32, Ref)], c: &Point) -> Vec<u32> {
        let mut v: Vec<u32> = m
            .iter()
            .filter(|(_, e)| e.pos.within(c, e.range))
            .map(|&(id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_remove_roundtrip_and_tiering() {
        let mut g = StratifiedGrid::new(10.0);
        assert!(g.insert(0, Point::new(1.0, 1.0), 5.0)); // tier 0
        assert!(g.insert(1, Point::new(2.0, 2.0), 10.0)); // boundary: tier 0
        assert!(g.insert(2, Point::new(3.0, 3.0), 10.1)); // tier 1
        assert!(g.insert(3, Point::new(4.0, 4.0), 75.0)); // tier 3
        assert!(!g.insert(3, Point::new(9.0, 9.0), 1.0), "duplicate");
        assert_eq!(g.len(), 4);
        assert_eq!(g.occupied_tiers(), 3);
        assert_eq!(g.range_of(2), Some(10.1));
        assert_eq!(g.remove(2), Some(Point::new(3.0, 3.0)));
        assert_eq!(g.remove(2), None);
        assert_eq!(g.len(), 3);
        assert_eq!(g.occupied_tiers(), 2);
    }

    #[test]
    fn range_bound_tightens_when_lighthouse_leaves() {
        let mut g = StratifiedGrid::new(25.0);
        for i in 0..50u32 {
            g.insert(i, Point::new(i as f64, 0.0), 20.0);
        }
        assert_eq!(g.range_bound(), 25.0, "tier-0 cap");
        g.insert(99, Point::new(500.0, 0.0), 2000.0);
        let inflated = g.range_bound();
        assert!(inflated >= 2000.0, "bound covers the lighthouse");
        g.remove(99);
        assert_eq!(
            g.range_bound(),
            25.0,
            "bound must shrink back once the lighthouse leaves"
        );
    }

    #[test]
    fn range_bound_tightens_when_range_shrinks() {
        let mut g = StratifiedGrid::new(25.0);
        g.insert(0, Point::new(0.0, 0.0), 20.0);
        g.insert(1, Point::new(9.0, 0.0), 1600.0);
        assert!(g.range_bound() >= 1600.0);
        g.set_range(1, 10.0);
        assert_eq!(g.range_bound(), 25.0, "power-down re-tiers the node");
        // And reverse queries agree: node 1 reaches only within 10 now
        // (dist to (0,-16) is ~18.4 > 10; node 0's 20 still covers it).
        assert_eq!(g.reaching(&Point::new(0.0, -16.0)), vec![0]);
        assert_eq!(g.reaching(&Point::new(5.0, 0.0)), vec![0, 1]);
    }

    #[test]
    fn flat_mode_keeps_monotone_watermark() {
        let mut g = StratifiedGrid::new_flat(25.0);
        assert!(g.is_flat());
        g.insert(0, Point::new(0.0, 0.0), 20.0);
        g.insert(1, Point::new(9.0, 0.0), 2000.0);
        assert!(g.range_bound() >= 2000.0);
        g.remove(1);
        assert!(
            g.range_bound() >= 2000.0,
            "flat mode reproduces the old never-shrinking bound"
        );
        assert_eq!(g.occupied_tiers(), 1);
    }

    #[test]
    fn reverse_reach_respects_individual_ranges() {
        let mut g = StratifiedGrid::new(10.0);
        g.insert(0, Point::new(0.0, 0.0), 5.0);
        g.insert(1, Point::new(0.0, 3.0), 100.0);
        g.insert(2, Point::new(50.0, 0.0), 49.0);
        let c = Point::new(4.0, 0.0);
        // 0 reaches (dist 4 ≤ 5); 1 reaches (dist 5 ≤ 100); 2 does not
        // (dist 46 ≤ 49 → actually reaches!). Recompute: dist(50,0 →
        // 4,0) = 46 ≤ 49 → reaches.
        assert_eq!(g.reaching(&c), vec![0, 1, 2]);
        assert_eq!(g.reaching(&Point::new(120.0, 0.0)), Vec::<u32>::new());
        assert_eq!(g.reaching(&Point::new(0.0, 103.0)), vec![1]);
    }

    #[test]
    fn zero_range_entries_reach_only_their_own_point() {
        let mut g = StratifiedGrid::new(10.0);
        g.insert(0, Point::new(1.0, 1.0), 0.0);
        assert_eq!(g.reaching(&Point::new(1.0, 1.0)), vec![0]);
        assert!(g.reaching(&Point::new(1.0, 1.1)).is_empty());
    }

    #[test]
    fn saturated_top_tier_still_answers_reverse_queries() {
        // A range so large it saturates the tier table: the top tier's
        // watermark takes over as the scan radius.
        let mut g = StratifiedGrid::new(1e-3);
        g.insert(0, Point::new(0.0, 0.0), 1e30);
        g.insert(1, Point::new(5.0, 0.0), 1e-4);
        assert_eq!(g.reaching(&Point::new(1e20, 0.0)), vec![0]);
        assert!(g.range_bound() >= 1e30);
    }

    proptest! {
        /// The stratified index agrees with a flat [`SpatialGrid`] and
        /// with brute force on forward queries, and with brute force on
        /// reverse queries, across random insert/remove/relocate/
        /// set-range churn. Ranges span four orders of magnitude so the
        /// churn genuinely crosses tier boundaries.
        #[test]
        fn matches_flat_grid_and_brute_force_after_churn(
            ops in proptest::collection::vec(
                (0u32..24, 0.0..200.0f64, 0.0..200.0f64, 0.01..150.0f64, 0u8..5),
                0..100,
            ),
            qx in 0.0..200.0f64, qy in 0.0..200.0f64,
            r in 0.0..120.0f64,
        ) {
            let mut strat = StratifiedGrid::new(7.0);
            let mut flat = SpatialGrid::new(7.0);
            let mut model: std::collections::HashMap<u32, Ref> = Default::default();
            for (id, x, y, range, op) in ops {
                let p = Point::new(x, y);
                match op {
                    0 => {
                        if strat.insert(id, p, range) {
                            flat.insert(id, p);
                            model.insert(id, Ref { pos: p, range });
                        }
                    }
                    1 => {
                        prop_assert_eq!(strat.remove(id), flat.remove(id));
                        model.remove(&id);
                    }
                    2 => {
                        prop_assert_eq!(strat.relocate(id, p), flat.relocate(id, p));
                        if let Some(e) = model.get_mut(&id) {
                            e.pos = p;
                        }
                    }
                    3 => {
                        // Any bound: the index clamps it.
                        let ok = strat.set_clear_bound(id, range * range * x / 50.0);
                        prop_assert_eq!(ok, model.contains_key(&id));
                    }
                    _ => {
                        let ok = strat.set_range(id, range);
                        prop_assert_eq!(ok, model.contains_key(&id));
                        if let Some(e) = model.get_mut(&id) {
                            e.range = range;
                        }
                    }
                }
            }
            let entries: Vec<(u32, Ref)> =
                model.iter().map(|(&k, &v)| (k, v)).collect();
            let c = Point::new(qx, qy);
            // Forward query: all three agree.
            let expect = brute_within(&entries, &c, r);
            prop_assert_eq!(strat.within(&c, r), expect.clone());
            prop_assert_eq!(flat.within(&c, r), expect);
            // Reverse query: stratified matches brute force.
            prop_assert_eq!(strat.reaching(&c), brute_reaching(&entries, &c));
            prop_assert_eq!(strat.len(), model.len());
            // The forward query's clear bound lies at or below every
            // entry beyond the radius.
            let mut seen = Vec::new();
            let clear2 = strat.for_each_within(&c, r, |id, _| seen.push(id));
            seen.sort_unstable();
            prop_assert_eq!(seen, brute_within(&entries, &c, r));
            for (id, e) in &entries {
                let d2 = e.pos.dist2(&c);
                prop_assert!(d2 <= r * r || d2 >= clear2, "{} at {} under bound {}", id, d2, clear2);
            }
            // Stored bounds stay within [range², scan radius²], and the
            // clear-disc query reports exactly the entries inside them.
            let mut clear: Vec<u32> = entries
                .iter()
                .filter(|(id, e)| {
                    let b = strat.clear_bound(*id).unwrap();
                    let scan = strat.scan_radius_of(*id).unwrap();
                    assert!(e.range * e.range <= b && b <= scan * scan);
                    e.pos.dist2(&c) <= b
                })
                .map(|&(id, _)| id)
                .collect();
            clear.sort_unstable();
            let mut found = Vec::new();
            strat.for_each_in_clear_disc(&c, |id, _, _, _| found.push(id));
            found.sort_unstable();
            prop_assert_eq!(found, clear);
            // The derived bound really bounds every present range.
            let true_max = entries.iter().map(|(_, e)| e.range).fold(0.0, f64::max);
            prop_assert!(strat.range_bound() >= true_max);
        }

        /// Flat-mode construction is query-equivalent to the stratified
        /// one (both must implement the same abstract set).
        #[test]
        fn flat_mode_is_query_equivalent(
            pts in proptest::collection::vec(
                (0.0..100.0f64, 0.0..100.0f64, 0.0..500.0f64), 0..40),
            qx in 0.0..100.0f64, qy in 0.0..100.0f64,
            r in 0.0..80.0f64,
        ) {
            let mut a = StratifiedGrid::new(9.0);
            let mut b = StratifiedGrid::new_flat(9.0);
            for (i, &(x, y, range)) in pts.iter().enumerate() {
                let p = Point::new(x, y);
                a.insert(i as u32, p, range);
                b.insert(i as u32, p, range);
            }
            let c = Point::new(qx, qy);
            prop_assert_eq!(a.within(&c, r), b.within(&c, r));
            prop_assert_eq!(a.reaching(&c), b.reaching(&c));
        }
    }
}
