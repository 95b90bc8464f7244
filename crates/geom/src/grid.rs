//! Uniform-grid spatial index.
//!
//! `minim-net` must recompute the induced digraph after every event:
//! a join, move, or power change asks "which nodes are within distance
//! `r` of point `p`?" (both directions: who can `n` hear, and who can
//! hear `n`). A linear scan is `O(n)` per query; with the paper's
//! workloads (up to ~120 nodes joining, 10 rounds of movement of 40
//! nodes, 100 replicates per sweep point) the quadratic blow-up is felt
//! in the harness. A uniform grid with cell size on the order of the
//! typical query radius answers these queries in expected `O(1)` per
//! reported neighbor.
//!
//! The index stores `(id, Point)` pairs keyed by an opaque `u32` id
//! (the caller's node id; ids are expected to be *dense* — `minim-net`
//! allocates them consecutively from 0 — since the reverse map is a
//! slab indexed by id). Updates are incremental: `insert`, `remove`,
//! and `relocate` all run in `O(1)` expected.
//!
//! Storage is slab-indexed, and cell memory follows the occupied
//! cells, not the area they span:
//!
//! * the reverse map is a `Vec` slab (id → entry);
//! * cells live in a growable window over the integer cell plane: the
//!   padded bounding box of the cells seen so far, capped at
//!   `MAX_DENSE_SPAN` cells per axis, with a sparse overflow map for
//!   pathological far-out coordinates beyond the cap;
//! * the window is paged: cells are stored in `16 × 16`-cell pages,
//!   aligned to absolute cell coordinates and allocated the first time
//!   a cell in them is pushed to, behind a directory of one `u32` per
//!   page. A page keeps its index for the table's lifetime, so growing
//!   the window rebuilds only the directory and copies no cell list.
//!
//! Paging matters for small cells over wide arenas. A power session's
//! uplink tier has a `min_range` cell (≈ 3.2) over a 4,000-wide
//! metropolis: the window is about 1,250 cells across, ~1.6M cells,
//! while a few thousand clustered nodes occupy a few hundred pages.
//!
//! A query walks the cell rectangle covering its disc row by row,
//! resolving the page once per run of up to 16 cells and skipping runs
//! over unallocated pages, then the overflow cells in key order. Each
//! cell list keeps insertion order up to `swap_remove`, so the
//! sequence a query reports depends only on the sequence of updates.

use crate::Point;
use std::collections::BTreeMap;

/// Cell coordinates are clamped into this symmetric window. The clamp
/// makes the `f64 → i32` conversion explicit and total: a coordinate at
/// `1e300` lands on the window edge instead of saturating to
/// `i32::MAX` and overflowing downstream cell-range arithmetic.
const CELL_COORD_LIMIT: i32 = 1 << 30;

/// Converts one coordinate to its (clamped) integer cell coordinate.
/// The single authority for `f64 → i32` cell conversion — both the
/// insertion and the query paths go through here, so an out-of-window
/// point is queryable at exactly the cell it was stored in.
#[inline]
pub fn cell_coord(v: f64, cell_size: f64) -> i32 {
    let c = (v / cell_size).floor();
    if c <= -(CELL_COORD_LIMIT as f64) {
        -CELL_COORD_LIMIT
    } else if c >= CELL_COORD_LIMIT as f64 {
        CELL_COORD_LIMIT
    } else {
        // In-window (and NaN, which compares false to both bounds and
        // maps to cell 0 — a NaN coordinate is already a caller bug).
        c as i32
    }
}

/// The inclusive cell ranges `(min_cx, max_cx, min_cy, max_cy)` whose
/// cells lie whole inside the disc of `radius` around `center`: those
/// of the square inscribed in it (half-side `0.7 · radius`, just under
/// `radius / √2`), less the cells its edges cut. Every point in them is
/// within `radius`. Never covers a clamped far-out cell.
fn cells_inside_disc(center: &Point, radius: f64, cell: f64) -> (i32, i32, i32, i32) {
    let half = 0.7 * radius;
    (
        cell_coord(center.x - half, cell) + 1,
        cell_coord(center.x + half, cell) - 1,
        cell_coord(center.y - half, cell) + 1,
        cell_coord(center.y + half, cell) - 1,
    )
}

/// The inclusive cell-coordinate range covering the interval
/// `[center - radius, center + radius]` on one axis — the single
/// authority for turning a disc into the rectangle of cells that
/// (conservatively) covers it. Both the batch planner's claim
/// footprints and the persistent ownership map's region queries go
/// through here, so the two layers agree cell-for-cell on what a
/// given reach covers.
#[inline]
pub fn cell_cover(center: f64, radius: f64, cell_size: f64) -> std::ops::RangeInclusive<i32> {
    cell_coord(center - radius, cell_size)..=cell_coord(center + radius, cell_size)
}

/// Largest per-axis span (in cells) the window may grow to; cells
/// outside go to the sparse overflow map. The window covers the padded
/// bounding box of *observed* points, and that can be wide: a power
/// session's uplink tier has a `min_range` cell (≈ 3.2) over a
/// 4,000-wide metropolis, so it is about 1,250 cells across. The
/// window's area costs only page-directory entries (one `u32` per
/// 16 × 16 cells, 256 KB at the cap); cell storage is paged and
/// follows the occupied cells.
const MAX_DENSE_SPAN: i64 = 4096;

/// Cells per page side, as a shift: pages are `16 × 16` cells, aligned
/// to absolute cell coordinates (`c >> PAGE_SHIFT`, `c & PAGE_MASK`).
const PAGE_SHIFT: i32 = 4;
const PAGE_SIDE: i32 = 1 << PAGE_SHIFT;
const PAGE_MASK: i32 = PAGE_SIDE - 1;
/// Cells per page.
const PAGE_CELLS: usize = (PAGE_SIDE * PAGE_SIDE) as usize;
/// Page-directory entry of a page that holds no cells yet.
const NO_PAGE: u32 = u32::MAX;

/// The page coordinate of cell coordinate `c` (floor division, also
/// for negative `c`).
#[inline]
fn page_coord(c: i32) -> i32 {
    c >> PAGE_SHIFT
}

/// The index of cell `c` inside its page.
#[inline]
fn in_page(c: (i32, i32)) -> usize {
    (((c.1 & PAGE_MASK) << PAGE_SHIFT) | (c.0 & PAGE_MASK)) as usize
}

/// The growable cell window, stored as lazily allocated pages, plus
/// sparse overflow.
#[derive(Debug, Clone, Default)]
struct CellTable {
    /// Cell coordinate of the window's low corner.
    origin: (i32, i32),
    /// Window extent in cells (0 ⇒ empty, no window yet).
    width: i32,
    height: i32,
    /// Page coordinate of `dir[0]`.
    dir_origin: (i32, i32),
    /// Directory width in pages.
    dir_width: i32,
    /// Row-major page directory over every page the window touches:
    /// a page index into `cells`, or [`NO_PAGE`].
    dir: Vec<u32>,
    /// The allocated pages' cells: page `p` owns the row-major `16 × 16`
    /// occupancy lists `cells[p * PAGE_CELLS..][..PAGE_CELLS]`. Pages are
    /// appended on first use and keep their index for the table's
    /// lifetime; growing the window only rebuilds `dir`.
    cells: Vec<Vec<u32>>,
    /// Cells outside the window (far-out coordinates only), ordered so
    /// queries over them report deterministically.
    overflow: BTreeMap<(i32, i32), Vec<u32>>,
}

impl CellTable {
    #[inline]
    fn in_window(&self, c: (i32, i32)) -> bool {
        let dx = c.0.wrapping_sub(self.origin.0);
        let dy = c.1.wrapping_sub(self.origin.1);
        dx >= 0 && dx < self.width && dy >= 0 && dy < self.height
    }

    /// The directory slot of page `(px, py)`, which must lie in the
    /// directory.
    #[inline]
    fn dir_slot(&self, px: i32, py: i32) -> usize {
        (py - self.dir_origin.1) as usize * self.dir_width as usize
            + (px - self.dir_origin.0) as usize
    }

    /// The list of in-window cell `c`, allocating its page on first use.
    fn cell_mut(&mut self, c: (i32, i32)) -> &mut Vec<u32> {
        let slot = self.dir_slot(page_coord(c.0), page_coord(c.1));
        if self.dir[slot] == NO_PAGE {
            self.dir[slot] =
                u32::try_from(self.cells.len() / PAGE_CELLS).expect("page count fits u32");
            self.cells
                .resize_with(self.cells.len() + PAGE_CELLS, Vec::new);
        }
        &mut self.cells[self.dir[slot] as usize * PAGE_CELLS + in_page(c)]
    }

    /// Grows the window to cover `c` (with margin) and rebuilds the
    /// page directory over it; pages keep their indices. Returns
    /// `false`, leaving the table untouched, when the union span would
    /// exceed [`MAX_DENSE_SPAN`].
    fn grow_to(&mut self, c: (i32, i32)) -> bool {
        let (min_x, max_x, min_y, max_y) = if self.width == 0 {
            (c.0, c.0, c.1, c.1)
        } else {
            (
                self.origin.0.min(c.0),
                (self.origin.0 + self.width - 1).max(c.0),
                self.origin.1.min(c.1),
                (self.origin.1 + self.height - 1).max(c.1),
            )
        };
        let span_x = max_x as i64 - min_x as i64 + 1;
        let span_y = max_y as i64 - min_y as i64 + 1;
        if span_x > MAX_DENSE_SPAN || span_y > MAX_DENSE_SPAN {
            return false;
        }
        // Pad by a quarter span (min 2 cells) so steady drift does not
        // re-grow every step — but never let the pad push the window
        // past MAX_DENSE_SPAN: the final window must always cover
        // [min, max] exactly.
        let pad_x = (span_x / 4).max(2).min((MAX_DENSE_SPAN - span_x) / 2) as i32;
        let pad_y = (span_y / 4).max(2).min((MAX_DENSE_SPAN - span_y) / 2) as i32;
        let new_min_x = min_x.saturating_sub(pad_x).max(-CELL_COORD_LIMIT);
        let new_min_y = min_y.saturating_sub(pad_y).max(-CELL_COORD_LIMIT);
        let new_max_x = max_x.saturating_add(pad_x).min(CELL_COORD_LIMIT);
        let new_max_y = max_y.saturating_add(pad_y).min(CELL_COORD_LIMIT);
        let new_w = (new_max_x as i64 - new_min_x as i64 + 1) as i32;
        let new_h = (new_max_y as i64 - new_min_y as i64 + 1) as i32;
        debug_assert!(
            new_min_x <= min_x
                && new_min_y <= min_y
                && new_max_x >= max_x
                && new_max_y >= max_y
                && (new_w as i64) <= MAX_DENSE_SPAN
                && (new_h as i64) <= MAX_DENSE_SPAN,
            "grown window must cover the union span within the cap"
        );
        // The new directory covers the old one (the window only grows),
        // so every allocated page keeps a slot.
        let dir_origin = (page_coord(new_min_x), page_coord(new_min_y));
        let dir_width = page_coord(new_max_x) - dir_origin.0 + 1;
        let dir_height = page_coord(new_max_y) - dir_origin.1 + 1;
        let mut dir = vec![NO_PAGE; dir_width as usize * dir_height as usize];
        if self.dir_width > 0 {
            for (row, pages) in self.dir.chunks_exact(self.dir_width as usize).enumerate() {
                let py = self.dir_origin.1 + row as i32 - dir_origin.1;
                let at =
                    py as usize * dir_width as usize + (self.dir_origin.0 - dir_origin.0) as usize;
                dir[at..at + pages.len()].copy_from_slice(pages);
            }
        }
        self.origin = (new_min_x, new_min_y);
        self.width = new_w;
        self.height = new_h;
        self.dir_origin = dir_origin;
        self.dir_width = dir_width;
        self.dir = dir;
        // An overflow cell never falls inside a grown window: it went
        // to overflow because its union with the window then spanned
        // more than the cap, and the window only grows, so any window
        // covering it would span more than the cap too.
        debug_assert!(
            self.overflow.keys().all(|&k| !self.in_window(k)),
            "overflow cell inside the grown window"
        );
        true
    }

    fn push(&mut self, c: (i32, i32), id: u32) {
        if self.in_window(c) || self.grow_to(c) {
            self.cell_mut(c).push(id);
        } else {
            self.overflow.entry(c).or_default().push(id);
        }
    }

    fn remove(&mut self, c: (i32, i32), id: u32) {
        fn swap_remove_id(v: &mut Vec<u32>, id: u32) {
            if let Some(p) = v.iter().position(|&x| x == id) {
                v.swap_remove(p);
            }
        }
        if self.in_window(c) {
            swap_remove_id(self.cell_mut(c), id);
        } else if let Some(v) = self.overflow.get_mut(&c) {
            swap_remove_id(v, id);
            if v.is_empty() {
                self.overflow.remove(&c);
            }
        }
    }

    /// Calls `f` on every in-window cell list in the inclusive cell
    /// rectangle `[min_cx, max_cx] × [min_cy, max_cy]`, row-major. The
    /// rectangle is clipped to the window first, so a clamped far-out
    /// range cannot walk billions of cells; the directory is read once
    /// per row of pages, each page then serves a run of up to 16 cells
    /// per cell row, and runs over unallocated pages are skipped.
    #[inline]
    fn for_each_cell<F: FnMut(&[u32])>(
        &self,
        (min_cx, max_cx): (i32, i32),
        (min_cy, max_cy): (i32, i32),
        mut f: F,
    ) {
        if self.width == 0 {
            return;
        }
        let lo_x = min_cx.max(self.origin.0);
        let hi_x = max_cx.min(self.origin.0 + self.width - 1);
        let lo_y = min_cy.max(self.origin.1);
        let hi_y = max_cy.min(self.origin.1 + self.height - 1);
        if lo_x > hi_x {
            return;
        }
        let (lo_px, hi_px) = (page_coord(lo_x), page_coord(hi_x));
        let (first_from, last_to) = ((lo_x & PAGE_MASK) as usize, (hi_x & PAGE_MASK) as usize);
        let mut cy = lo_y;
        while cy <= hi_y {
            // One directory lookup per page row: the pages this row of
            // pages contributes, left to right.
            let py = page_coord(cy);
            let pages = &self.dir[self.dir_slot(lo_px, py)..=self.dir_slot(hi_px, py)];
            let last = pages.len() - 1;
            let rows_end = hi_y.min(cy | PAGE_MASK);
            for cy in cy..=rows_end {
                let row = ((cy & PAGE_MASK) << PAGE_SHIFT) as usize;
                for (i, &page) in pages.iter().enumerate() {
                    if page == NO_PAGE {
                        continue;
                    }
                    let from = if i == 0 { first_from } else { 0 };
                    let to = if i == last {
                        last_to
                    } else {
                        PAGE_MASK as usize
                    };
                    let base = page as usize * PAGE_CELLS + row;
                    for ids in &self.cells[base + from..=base + to] {
                        f(ids);
                    }
                }
            }
            cy = rows_end + 1;
        }
    }
}

/// A uniform-grid spatial index over `(u32 id, Point)` entries.
///
/// Cell size is fixed at construction; queries with radii much larger
/// than the cell size degrade gracefully (they just scan more cells).
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    table: CellTable,
    /// Reverse slab: `entries[id]` = (position, cell) for O(1)
    /// removal/relocation. Ids index directly; keep them dense.
    entries: Vec<Option<(Point, (i32, i32))>>,
    len: usize,
}

impl SpatialGrid {
    /// Creates an empty grid with the given cell side length.
    ///
    /// A good default is the expected query radius (e.g. the mean
    /// transmission range); `minim-net` uses `maxr` of the scenario.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        SpatialGrid {
            cell: cell_size,
            table: CellTable::default(),
            entries: Vec::new(),
            len: 0,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    #[inline]
    fn cell_of(&self, p: &Point) -> (i32, i32) {
        (cell_coord(p.x, self.cell), cell_coord(p.y, self.cell))
    }

    #[inline]
    fn entry(&self, id: u32) -> Option<&(Point, (i32, i32))> {
        self.entries.get(id as usize).and_then(Option::as_ref)
    }

    fn slot_mut(&mut self, id: u32) -> &mut Option<(Point, (i32, i32))> {
        let i = id as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        &mut self.entries[i]
    }

    /// Inserts `id` at `pos`. Returns `false` (and does nothing) if the
    /// id is already present; use [`SpatialGrid::relocate`] to move it.
    pub fn insert(&mut self, id: u32, pos: Point) -> bool {
        if self.entry(id).is_some() {
            return false;
        }
        let c = self.cell_of(&pos);
        self.table.push(c, id);
        *self.slot_mut(id) = Some((pos, c));
        self.len += 1;
        true
    }

    /// Removes `id`. Returns its last position, or `None` if absent.
    pub fn remove(&mut self, id: u32) -> Option<Point> {
        let (pos, c) = self.entries.get_mut(id as usize).and_then(Option::take)?;
        self.table.remove(c, id);
        self.len -= 1;
        Some(pos)
    }

    /// Moves `id` to `new_pos`. Returns `false` if the id is absent.
    pub fn relocate(&mut self, id: u32, new_pos: Point) -> bool {
        let Some(&(_, old_cell)) = self.entry(id) else {
            return false;
        };
        let new_cell = self.cell_of(&new_pos);
        if new_cell != old_cell {
            self.table.remove(old_cell, id);
            self.table.push(new_cell, id);
        }
        *self.slot_mut(id) = Some((new_pos, new_cell));
        true
    }

    /// The current position of `id`, if indexed.
    pub fn position(&self, id: u32) -> Option<Point> {
        self.entry(id).map(|&(p, _)| p)
    }

    /// Calls `f(id, pos)` for every entry within distance `radius` of
    /// `center` (boundary inclusive), in unspecified order.
    ///
    /// The center entry itself is reported too if it is indexed and in
    /// range; callers that want "other nodes" filter by id.
    pub fn for_each_within<F: FnMut(u32, Point)>(&self, center: &Point, radius: f64, mut f: F) {
        if radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        let min_cx = cell_coord(center.x - radius, self.cell);
        let max_cx = cell_coord(center.x + radius, self.cell);
        let min_cy = cell_coord(center.y - radius, self.cell);
        let max_cy = cell_coord(center.y + radius, self.cell);
        let report = |ids: &[u32], f: &mut F| {
            for &id in ids {
                let p = self.entries[id as usize].expect("listed id is present").0;
                if p.dist2(center) <= r2 {
                    f(id, p);
                }
            }
        };
        let t = &self.table;
        t.for_each_cell((min_cx, max_cx), (min_cy, max_cy), |ids| {
            report(ids, &mut f)
        });
        // Overflow cells are few; scan them by membership, not range.
        for (&(cx, cy), ids) in &t.overflow {
            if (min_cx..=max_cx).contains(&cx) && (min_cy..=max_cy).contains(&cy) {
                report(ids, &mut f);
            }
        }
    }

    /// Collects the ids within `radius` of `center` (boundary
    /// inclusive), sorted by id for determinism.
    pub fn within(&self, center: &Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |id, _| out.push(id));
        out.sort_unstable();
        out
    }

    /// The indexed point nearest to `center` for which `admissible`
    /// holds, or `None` when no admissible entry exists. Ties break
    /// toward the lower id, so the answer is deterministic and matches
    /// a lowest-id-first linear scan.
    ///
    /// Runs an expanding-radius search (doubling from one cell side):
    /// [`SpatialGrid::for_each_within`] is exact, so the first radius
    /// that reports any admissible entry already contains the global
    /// optimum — everything outside is strictly farther. Expected
    /// O(1) per query when the nearest admissible entry is within a
    /// few cells; degrades to a full scan only when the grid is nearly
    /// empty of admissible points.
    pub fn nearest_where<F: FnMut(u32, &Point) -> bool>(
        &self,
        center: &Point,
        mut admissible: F,
    ) -> Option<(u32, Point)> {
        if self.len == 0 {
            return None;
        }
        let mut radius = self.cell;
        loop {
            let mut best: Option<(u32, Point, f64)> = None;
            self.for_each_within(center, radius, |id, p| {
                if !admissible(id, &p) {
                    return;
                }
                let d2 = p.dist2(center);
                let better = match best {
                    None => true,
                    Some((bid, _, bd2)) => d2 < bd2 || (d2 == bd2 && id < bid),
                };
                if better {
                    best = Some((id, p, d2));
                }
            });
            if let Some((id, p, _)) = best {
                // Reported ⇒ within `radius`; anything unscanned is
                // farther than `radius`, so this is the global best.
                return Some((id, p));
            }
            // Nothing admissible yet: stop once the scan has reported
            // every entry.
            let (min_cx, max_cx, min_cy, max_cy) = cells_inside_disc(center, radius, self.cell);
            let t = &self.table;
            let covers_window = t.width == 0
                || (min_cx <= t.origin.0
                    && max_cx >= t.origin.0 + t.width - 1
                    && min_cy <= t.origin.1
                    && max_cy >= t.origin.1 + t.height - 1);
            let covers_overflow = t.overflow.keys().all(|&(cx, cy)| {
                (min_cx..=max_cx).contains(&cx) && (min_cy..=max_cy).contains(&cy)
            });
            if radius == f64::INFINITY || (covers_window && covers_overflow) {
                return None;
            }
            radius *= 2.0;
        }
    }

    /// Iterates over all `(id, position)` entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Point)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|(p, _)| (i as u32, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_force_within(pts: &[(u32, Point)], center: &Point, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = pts
            .iter()
            .filter(|(_, p)| center.within(p, r))
            .map(|&(id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = SpatialGrid::new(10.0);
        assert!(g.is_empty());
        assert!(g.insert(7, Point::new(1.0, 2.0)));
        assert!(
            !g.insert(7, Point::new(3.0, 4.0)),
            "duplicate insert must fail"
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(7), Some(Point::new(1.0, 2.0)));
        assert_eq!(g.remove(7), Some(Point::new(1.0, 2.0)));
        assert_eq!(g.remove(7), None);
        assert!(g.is_empty());
    }

    #[test]
    fn relocate_moves_across_cells() {
        let mut g = SpatialGrid::new(1.0);
        g.insert(1, Point::new(0.5, 0.5));
        assert!(g.relocate(1, Point::new(10.5, 10.5)));
        assert_eq!(g.position(1), Some(Point::new(10.5, 10.5)));
        // The old cell must no longer report it.
        assert!(g.within(&Point::new(0.5, 0.5), 2.0).is_empty());
        assert_eq!(g.within(&Point::new(10.5, 10.5), 0.1), vec![1]);
    }

    #[test]
    fn relocate_absent_id_fails() {
        let mut g = SpatialGrid::new(1.0);
        assert!(!g.relocate(42, Point::new(0.0, 0.0)));
    }

    #[test]
    fn query_includes_boundary() {
        let mut g = SpatialGrid::new(5.0);
        g.insert(1, Point::new(0.0, 0.0));
        g.insert(2, Point::new(3.0, 4.0)); // distance exactly 5
        assert_eq!(g.within(&Point::new(0.0, 0.0), 5.0), vec![1, 2]);
        assert_eq!(g.within(&Point::new(0.0, 0.0), 4.99), vec![1]);
    }

    #[test]
    fn negative_radius_returns_nothing() {
        let mut g = SpatialGrid::new(5.0);
        g.insert(1, Point::new(0.0, 0.0));
        assert!(g.within(&Point::new(0.0, 0.0), -1.0).is_empty());
    }

    #[test]
    fn works_with_negative_coordinates() {
        let mut g = SpatialGrid::new(3.0);
        g.insert(1, Point::new(-10.0, -10.0));
        g.insert(2, Point::new(-11.0, -10.0));
        g.insert(3, Point::new(10.0, 10.0));
        assert_eq!(g.within(&Point::new(-10.0, -10.0), 1.5), vec![1, 2]);
    }

    #[test]
    fn iter_reports_all_entries() {
        let mut g = SpatialGrid::new(2.0);
        for i in 0..20u32 {
            g.insert(i, Point::new(i as f64, (i * 3 % 7) as f64));
        }
        let mut ids: Vec<u32> = g.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cell_size")]
    fn zero_cell_size_panics() {
        let _ = SpatialGrid::new(0.0);
    }

    /// Regression: coordinates far beyond any sane arena used to
    /// saturate the `f64 → i32` cell cast, and a query near them would
    /// then try to walk the whole i32 cell range. The centralized
    /// clamped conversion plus window-clipped queries must keep both
    /// insertion and queries exact and fast.
    #[test]
    fn far_out_coordinates_are_clamped_not_lost() {
        let mut g = SpatialGrid::new(5.0);
        g.insert(1, Point::new(0.0, 0.0));
        g.insert(2, Point::new(1e300, 1e300));
        g.insert(3, Point::new(-1e300, 7.0));
        assert_eq!(g.len(), 3);
        // Queries near the origin see only the near point, even with a
        // radius that (clamped) reaches the far cells.
        assert_eq!(g.within(&Point::new(0.0, 0.0), 10.0), vec![1]);
        // The far points are found where they were stored.
        assert_eq!(g.within(&Point::new(1e300, 1e300), 1.0), vec![2]);
        assert_eq!(g.within(&Point::new(-1e300, 7.0), 1.0), vec![3]);
        // A clamped full-plane query still terminates and sees all.
        assert_eq!(g.within(&Point::new(0.0, 0.0), 1e305), vec![1, 2, 3]);
        // Far entries relocate back into the normal window.
        assert!(g.relocate(2, Point::new(3.0, 3.0)));
        assert_eq!(g.within(&Point::new(0.0, 0.0), 10.0), vec![1, 2]);
        assert_eq!(g.remove(3), Some(Point::new(-1e300, 7.0)));
        assert_eq!(g.len(), 2);
    }

    /// Regression: growing the window close to `MAX_DENSE_SPAN` used
    /// to truncate the padded width while still relocating old cells
    /// by untruncated offsets, silently dropping entries near the
    /// window edge.
    #[test]
    fn near_cap_window_growth_keeps_edge_entries() {
        let mut g = SpatialGrid::new(1.0);
        g.insert(0, Point::new(0.5, 0.5));
        g.insert(1, Point::new(2600.5, 0.5));
        g.insert(2, Point::new(3250.5, 0.5));
        // This grow pushes the padded span past the cap; the window
        // must shrink its *pad*, not the required range.
        g.insert(3, Point::new(3300.5, 0.5));
        for (id, x) in [(0u32, 0.5), (1, 2600.5), (2, 3250.5), (3, 3300.5)] {
            assert_eq!(
                g.within(&Point::new(x, 0.5), 0.9),
                vec![id],
                "entry {id} lost at x={x}"
            );
        }
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn window_growth_preserves_entries() {
        let mut g = SpatialGrid::new(1.0);
        // Force repeated window growth by walking outward.
        for i in 0..200u32 {
            let x = (i as f64) * 7.0 * if i % 2 == 0 { 1.0 } else { -1.0 };
            g.insert(i, Point::new(x, -x));
        }
        assert_eq!(g.len(), 200);
        for i in 0..200u32 {
            let x = (i as f64) * 7.0 * if i % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(g.within(&Point::new(x, -x), 0.5), vec![i]);
        }
    }

    #[test]
    fn nearest_where_finds_global_best_across_rings() {
        let mut g = SpatialGrid::new(1.0);
        g.insert(1, Point::new(0.2, 0.2));
        g.insert(2, Point::new(50.0, 0.0));
        g.insert(3, Point::new(51.0, 0.0));
        // Nearest overall.
        assert_eq!(
            g.nearest_where(&Point::new(0.0, 0.0), |_, _| true),
            Some((1, Point::new(0.2, 0.2)))
        );
        // Excluding the near one forces the search out many rings.
        assert_eq!(
            g.nearest_where(&Point::new(0.0, 0.0), |id, _| id != 1),
            Some((2, Point::new(50.0, 0.0)))
        );
        // Nothing admissible terminates with None.
        assert_eq!(g.nearest_where(&Point::new(0.0, 0.0), |_, _| false), None);
        assert_eq!(
            SpatialGrid::new(1.0).nearest_where(&Point::new(0.0, 0.0), |_, _| true),
            None
        );
    }

    /// A scan whose cell rectangle covers every occupied cell has not
    /// yet reported the points in its corners beyond the radius: the
    /// search must go on until the disc itself holds them.
    #[test]
    fn nearest_where_reaches_points_beyond_the_covering_radius() {
        let xs = [0.0, 1.0, 2.0, 100.0, 99.0];
        let mut g = SpatialGrid::new(100.0 / 5f64.sqrt());
        for (i, &x) in (0u32..).zip(&xs) {
            g.insert(i, Point::new(x, 0.0));
        }
        assert_eq!(
            g.nearest_where(&Point::new(0.0, 0.0), |id, _| id == 3),
            Some((3, Point::new(100.0, 0.0)))
        );
    }

    #[test]
    fn nearest_where_breaks_ties_toward_lower_id() {
        let mut g = SpatialGrid::new(4.0);
        g.insert(9, Point::new(3.0, 0.0));
        g.insert(4, Point::new(-3.0, 0.0));
        g.insert(7, Point::new(0.0, 3.0));
        assert_eq!(
            g.nearest_where(&Point::new(0.0, 0.0), |_, _| true)
                .map(|(id, _)| id),
            Some(4)
        );
    }

    /// The contiguous `width × height` window the paged table replaced,
    /// kept as the order reference: same growth, padding, cap and
    /// overflow rules, one `Vec` per cell of the whole window.
    mod contiguous {
        use super::super::{cell_coord, cells_inside_disc, CELL_COORD_LIMIT, MAX_DENSE_SPAN};
        use crate::Point;
        use std::collections::BTreeMap;

        #[derive(Default)]
        struct Table {
            origin: (i32, i32),
            width: i32,
            height: i32,
            cells: Vec<Vec<u32>>,
            overflow: BTreeMap<(i32, i32), Vec<u32>>,
        }

        impl Table {
            fn dense_index(&self, c: (i32, i32)) -> Option<usize> {
                let dx = c.0.wrapping_sub(self.origin.0);
                let dy = c.1.wrapping_sub(self.origin.1);
                (dx >= 0 && dx < self.width && dy >= 0 && dy < self.height)
                    .then(|| dy as usize * self.width as usize + dx as usize)
            }

            fn grow_to(&mut self, c: (i32, i32)) -> Option<usize> {
                let (min_x, max_x, min_y, max_y) = if self.width == 0 {
                    (c.0, c.0, c.1, c.1)
                } else {
                    (
                        self.origin.0.min(c.0),
                        (self.origin.0 + self.width - 1).max(c.0),
                        self.origin.1.min(c.1),
                        (self.origin.1 + self.height - 1).max(c.1),
                    )
                };
                let span_x = max_x as i64 - min_x as i64 + 1;
                let span_y = max_y as i64 - min_y as i64 + 1;
                if span_x > MAX_DENSE_SPAN || span_y > MAX_DENSE_SPAN {
                    return None;
                }
                let pad_x = (span_x / 4).max(2).min((MAX_DENSE_SPAN - span_x) / 2) as i32;
                let pad_y = (span_y / 4).max(2).min((MAX_DENSE_SPAN - span_y) / 2) as i32;
                let new_min_x = min_x.saturating_sub(pad_x).max(-CELL_COORD_LIMIT);
                let new_min_y = min_y.saturating_sub(pad_y).max(-CELL_COORD_LIMIT);
                let new_max_x = max_x.saturating_add(pad_x).min(CELL_COORD_LIMIT);
                let new_max_y = max_y.saturating_add(pad_y).min(CELL_COORD_LIMIT);
                let new_w = (new_max_x as i64 - new_min_x as i64 + 1) as i32;
                let new_h = (new_max_y as i64 - new_min_y as i64 + 1) as i32;
                let mut new_cells: Vec<Vec<u32>> = Vec::new();
                new_cells.resize_with(new_w as usize * new_h as usize, Vec::new);
                for y in 0..self.height {
                    for x in 0..self.width {
                        let old = std::mem::take(
                            &mut self.cells[y as usize * self.width as usize + x as usize],
                        );
                        let nx = (self.origin.0 + x - new_min_x) as usize;
                        let ny = (self.origin.1 + y - new_min_y) as usize;
                        new_cells[ny * new_w as usize + nx] = old;
                    }
                }
                self.origin = (new_min_x, new_min_y);
                self.width = new_w;
                self.height = new_h;
                self.cells = new_cells;
                let inside: Vec<(i32, i32)> = self
                    .overflow
                    .keys()
                    .copied()
                    .filter(|&k| self.dense_index(k).is_some())
                    .collect();
                for k in inside {
                    let v = self.overflow.remove(&k).expect("key just listed");
                    let i = self.dense_index(k).expect("key checked inside");
                    self.cells[i] = v;
                }
                self.dense_index(c)
            }

            fn push(&mut self, c: (i32, i32), id: u32) {
                match self.dense_index(c).or_else(|| self.grow_to(c)) {
                    Some(i) => self.cells[i].push(id),
                    None => self.overflow.entry(c).or_default().push(id),
                }
            }

            fn remove(&mut self, c: (i32, i32), id: u32) {
                let v = match self.dense_index(c) {
                    Some(i) => &mut self.cells[i],
                    None => self.overflow.get_mut(&c).expect("listed cell"),
                };
                let p = v.iter().position(|&x| x == id).expect("listed id");
                v.swap_remove(p);
                if v.is_empty() && self.dense_index(c).is_none() {
                    self.overflow.remove(&c);
                }
            }
        }

        /// The pre-paging `SpatialGrid`: insert / remove / relocate and
        /// the two order-sensitive queries.
        pub struct Grid {
            cell: f64,
            table: Table,
            entries: Vec<Option<(Point, (i32, i32))>>,
        }

        impl Grid {
            pub fn new(cell: f64) -> Grid {
                Grid {
                    cell,
                    table: Table::default(),
                    entries: Vec::new(),
                }
            }

            fn cell_of(&self, p: &Point) -> (i32, i32) {
                (cell_coord(p.x, self.cell), cell_coord(p.y, self.cell))
            }

            pub fn insert(&mut self, id: u32, pos: Point) -> bool {
                let i = id as usize;
                if self.entries.get(i).is_some_and(Option::is_some) {
                    return false;
                }
                let c = self.cell_of(&pos);
                self.table.push(c, id);
                if i >= self.entries.len() {
                    self.entries.resize(i + 1, None);
                }
                self.entries[i] = Some((pos, c));
                true
            }

            pub fn remove(&mut self, id: u32) -> Option<Point> {
                let (pos, c) = self.entries.get_mut(id as usize).and_then(Option::take)?;
                self.table.remove(c, id);
                Some(pos)
            }

            pub fn relocate(&mut self, id: u32, pos: Point) -> bool {
                let Some(Some((_, old))) = self.entries.get(id as usize).copied() else {
                    return false;
                };
                let c = self.cell_of(&pos);
                if c != old {
                    self.table.remove(old, id);
                    self.table.push(c, id);
                }
                self.entries[id as usize] = Some((pos, c));
                true
            }

            pub fn for_each_within<F: FnMut(u32, Point)>(
                &self,
                center: &Point,
                radius: f64,
                mut f: F,
            ) {
                if radius < 0.0 {
                    return;
                }
                let r2 = radius * radius;
                let min_cx = cell_coord(center.x - radius, self.cell);
                let max_cx = cell_coord(center.x + radius, self.cell);
                let min_cy = cell_coord(center.y - radius, self.cell);
                let max_cy = cell_coord(center.y + radius, self.cell);
                let report = |ids: &[u32], f: &mut F| {
                    for &id in ids {
                        let p = self.entries[id as usize].expect("listed id").0;
                        if p.dist2(center) <= r2 {
                            f(id, p);
                        }
                    }
                };
                let t = &self.table;
                if t.width > 0 {
                    let lo_x = min_cx.max(t.origin.0);
                    let hi_x = max_cx.min(t.origin.0 + t.width - 1);
                    let lo_y = min_cy.max(t.origin.1);
                    let hi_y = max_cy.min(t.origin.1 + t.height - 1);
                    for cy in lo_y..=hi_y {
                        if lo_x > hi_x {
                            break;
                        }
                        let row = (cy - t.origin.1) as usize * t.width as usize;
                        for cx in lo_x..=hi_x {
                            report(&t.cells[row + (cx - t.origin.0) as usize], &mut f);
                        }
                    }
                }
                for (&(cx, cy), ids) in &t.overflow {
                    if (min_cx..=max_cx).contains(&cx) && (min_cy..=max_cy).contains(&cy) {
                        report(ids, &mut f);
                    }
                }
            }

            pub fn nearest_where<F: FnMut(u32, &Point) -> bool>(
                &self,
                center: &Point,
                mut admissible: F,
            ) -> Option<(u32, Point)> {
                if self.entries.iter().all(Option::is_none) {
                    return None;
                }
                let mut radius = self.cell;
                loop {
                    let mut best: Option<(u32, Point, f64)> = None;
                    self.for_each_within(center, radius, |id, p| {
                        if !admissible(id, &p) {
                            return;
                        }
                        let d2 = p.dist2(center);
                        if best.is_none_or(|(bid, _, bd2)| d2 < bd2 || (d2 == bd2 && id < bid)) {
                            best = Some((id, p, d2));
                        }
                    });
                    if let Some((id, p, _)) = best {
                        return Some((id, p));
                    }
                    let (min_cx, max_cx, min_cy, max_cy) =
                        cells_inside_disc(center, radius, self.cell);
                    let t = &self.table;
                    let covers_window = t.width == 0
                        || (min_cx <= t.origin.0
                            && max_cx >= t.origin.0 + t.width - 1
                            && min_cy <= t.origin.1
                            && max_cy >= t.origin.1 + t.height - 1);
                    let covers_overflow = t.overflow.keys().all(|&(cx, cy)| {
                        (min_cx..=max_cx).contains(&cx) && (min_cy..=max_cy).contains(&cy)
                    });
                    if radius == f64::INFINITY || (covers_window && covers_overflow) {
                        return None;
                    }
                    radius *= 2.0;
                }
            }
        }
    }

    /// Cases for the order-equivalence test: the release build runs
    /// the full count, debug builds an eighth of it.
    fn cases(release: usize) -> usize {
        if cfg!(debug_assertions) {
            (release / 8).max(1)
        } else {
            release
        }
    }

    /// How far one axis of the order-equivalence churn reaches, in
    /// cells. The reference window costs memory and scan time in
    /// proportion to its area, so a case makes at most one axis wide.
    #[derive(Clone, Copy, PartialEq)]
    enum Reach {
        /// Hot cells and page boundaries within ±2 pages of zero.
        Narrow,
        /// Page boundaries within ±8 pages, spread over ±100 cells, and
        /// far-out points that land in overflow, up to the clamp.
        Normal,
        /// `Normal` plus steps of up to ±3,000 cells, so the window
        /// grows toward [`MAX_DENSE_SPAN`] and far points overflow off a
        /// grown window.
        Wide,
    }

    /// One coordinate for the order-equivalence churn, scaled by
    /// `cell`: mostly in a few hot cells or near page boundaries
    /// (multiples of 16, ±1, on both sides of zero).
    fn churn_coord(rng: &mut proptest::TestRng, cell: f64, reach: Reach) -> f64 {
        let frac = rng.unit_f64();
        let side = if rng.below(2) == 0 { -1.0 } else { 1.0 };
        let pages = if reach == Reach::Narrow { 2 } else { 8 };
        let cells = match rng.below(12) {
            // A few hot cells on both sides of page corners, so cells
            // hold several ids and `swap_remove` order shows.
            0..=2 => [-17.0, -1.0, 0.0, 16.0][rng.below(4) as usize] + frac,
            k if k <= 5 || reach == Reach::Narrow => {
                let page = (rng.below(2 * pages + 1) as i64 - pages as i64) as f64;
                let edge = [-1.0, 0.0, 1.0, 15.0][rng.below(4) as usize];
                page * 16.0 + edge + frac
            }
            6..=8 => (rng.unit_f64() - 0.5) * 200.0,
            9 if reach == Reach::Wide => side * rng.unit_f64() * 3000.0,
            9 | 10 => side * (5000.0 + rng.unit_f64() * 10_000.0),
            _ => return side * 1e300,
        };
        cells * cell
    }

    /// The paged table reports the same `(id, pos)` sequence as the
    /// contiguous window for every query, and `nearest_where` gives the
    /// same answer, under insert / remove / relocate churn that crosses
    /// page boundaries, negative coordinates and the overflow map.
    #[test]
    fn paged_table_matches_contiguous_window_order() {
        let mut rng = proptest::TestRng::from_label("grid::paged_vs_contiguous");
        for case in 0..cases(128) {
            let cell = [1.0, 3.19, 0.37 + rng.unit_f64() * 20.0][rng.below(3) as usize];
            let (reach_x, reach_y) = match rng.below(3) {
                0 => (Reach::Normal, Reach::Normal),
                1 => (Reach::Wide, Reach::Narrow),
                _ => (Reach::Narrow, Reach::Wide),
            };
            let point = |rng: &mut proptest::TestRng| {
                Point::new(
                    churn_coord(rng, cell, reach_x),
                    churn_coord(rng, cell, reach_y),
                )
            };
            let mut paged = SpatialGrid::new(cell);
            let mut reference = contiguous::Grid::new(cell);
            let ids = 1 + rng.below(60) as u32;
            for op in 0..rng.below(300) {
                let id = rng.below(u64::from(ids)) as u32;
                let p = point(&mut rng);
                match rng.below(4) {
                    0 | 1 => assert_eq!(paged.insert(id, p), reference.insert(id, p)),
                    2 => assert_eq!(paged.remove(id), reference.remove(id)),
                    _ => assert_eq!(paged.relocate(id, p), reference.relocate(id, p)),
                }
                if op % 4 != 0 {
                    continue;
                }
                let center = point(&mut rng);
                let radius = match rng.below(8) {
                    0..=2 => rng.unit_f64() * cell,
                    3..=5 => rng.unit_f64() * 40.0 * cell,
                    6 => rng.unit_f64() * 400.0 * cell,
                    _ => 1e305,
                };
                let (mut got, mut want) = (Vec::new(), Vec::new());
                paged.for_each_within(&center, radius, |id, p| got.push((id, p)));
                reference.for_each_within(&center, radius, |id, p| want.push((id, p)));
                assert_eq!(got, want, "case {case} op {op}: for_each_within order");
                let modulus = 1 + rng.below(3) as u32;
                let admissible = |id: u32, _: &Point| id.is_multiple_of(modulus);
                assert_eq!(
                    paged.nearest_where(&center, admissible),
                    reference.nearest_where(&center, admissible),
                    "case {case} op {op}: nearest_where"
                );
            }
        }
    }

    /// Cell storage follows the occupied cells: 4,000 points in 40
    /// clusters over a 4,000-wide arena, with the 3.19 cell of a power
    /// session's uplink tier, allocate at most 64 cell slots per entry
    /// (the contiguous window allocated about 600).
    #[test]
    fn clustered_arena_allocates_pages_not_window() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let centers: Vec<Point> = (0..40)
            .map(|_| Point::new(rng.gen_range(0.0..4000.0), rng.gen_range(0.0..4000.0)))
            .collect();
        let arena = crate::Rect::new(0.0, 0.0, 4000.0, 4000.0);
        let mut g = SpatialGrid::new(3.19);
        for id in 0..4000u32 {
            let center = centers[id as usize % centers.len()];
            let p = crate::sample::clustered_point(&mut rng, center, 25.0, &arena);
            assert!(g.insert(id, p));
        }
        let t = &g.table;
        let window = t.width as usize * t.height as usize;
        let slots = t.cells.len();
        assert!(window > 600 * g.len(), "arena too small: window {window}");
        assert!(
            slots <= 64 * g.len(),
            "{} pages = {slots} cell slots for {} entries",
            slots / PAGE_CELLS,
            g.len()
        );
    }

    proptest! {
        #[test]
        fn nearest_where_matches_linear_scan(
            pts in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..50),
            qx in 0.0..100.0f64, qy in 0.0..100.0f64,
            cell in 0.5..40.0f64,
            modulus in 1u32..4,
        ) {
            let mut g = SpatialGrid::new(cell);
            for (i, &(x, y)) in pts.iter().enumerate() {
                g.insert(i as u32, Point::new(x, y));
            }
            let center = Point::new(qx, qy);
            let admissible = |id: u32| id.is_multiple_of(modulus);
            let mut expect: Option<(u32, f64)> = None;
            for (i, &(x, y)) in pts.iter().enumerate() {
                let id = i as u32;
                if !admissible(id) {
                    continue;
                }
                let d2 = Point::new(x, y).dist2(&center);
                let better = match expect {
                    None => true,
                    Some((_, bd2)) => d2 < bd2,
                };
                if better {
                    expect = Some((id, d2));
                }
            }
            prop_assert_eq!(
                g.nearest_where(&center, |id, _| admissible(id)).map(|(id, _)| id),
                expect.map(|(id, _)| id)
            );
        }

        #[test]
        fn matches_brute_force(
            pts in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..60),
            qx in 0.0..100.0f64, qy in 0.0..100.0f64,
            r in 0.0..60.0f64,
            cell in 0.5..40.0f64,
        ) {
            let mut g = SpatialGrid::new(cell);
            let mut entries = Vec::new();
            for (i, &(x, y)) in pts.iter().enumerate() {
                let p = Point::new(x, y);
                g.insert(i as u32, p);
                entries.push((i as u32, p));
            }
            let center = Point::new(qx, qy);
            prop_assert_eq!(g.within(&center, r), brute_force_within(&entries, &center, r));
        }

        #[test]
        fn matches_brute_force_after_churn(
            ops in proptest::collection::vec((0u32..30, 0.0..100.0f64, 0.0..100.0f64, 0u8..3), 0..80),
            r in 0.0..50.0f64,
        ) {
            // Apply a random insert/remove/relocate churn and check a
            // query against the surviving ground-truth set.
            let mut g = SpatialGrid::new(7.0);
            let mut truth: std::collections::HashMap<u32, Point> = Default::default();
            for (id, x, y, op) in ops {
                let p = Point::new(x, y);
                match op {
                    0 => {
                        if g.insert(id, p) {
                            truth.insert(id, p);
                        }
                    }
                    1 => {
                        g.remove(id);
                        truth.remove(&id);
                    }
                    _ => {
                        if g.relocate(id, p) {
                            truth.insert(id, p);
                        }
                    }
                }
            }
            let center = Point::new(50.0, 50.0);
            let entries: Vec<(u32, Point)> = truth.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(g.within(&center, r), brute_force_within(&entries, &center, r));
            prop_assert_eq!(g.len(), truth.len());
        }
    }
}
