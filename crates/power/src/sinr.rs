//! Per-link SINR evaluation against an active link set — incremental,
//! structure-of-arrays edition.
//!
//! A *link* is a transmitter together with its intended receiver; in
//! the transmitter-oriented CDMA model every node owns one spreading
//! code and one uplink, so links and transmitters coincide. The SINR
//! of link `i` at its receiver `r(i)` under the power vector `p` is
//!
//! ```text
//!             L · g(x_i, x_r(i)) · p_i
//! SINR_i = ────────────────────────────────
//!           N0 + Σ_{j≠i} g(x_j, x_r(i)) · p_j
//! ```
//!
//! with `L` the CDMA processing (spreading) gain and `N0` the receiver
//! noise power. Interferers whose gain at a receiver is below
//! `floor_frac · N0 / p_max` are dropped: even at full power they
//! would contribute less than `floor_frac` of the noise floor,
//! bounding the relative SINR error by construction.
//!
//! # Storage: CSR with slack
//!
//! [`SinrField`] keeps the sparse interferer lists in CSR form — one
//! flat `u32` id pool and one flat `f64` gain pool, with per-row
//! `(start, len, cap)` — so [`SinrField::interference`] is a
//! branch-free linear walk over two contiguous slices instead of a
//! pointer chase through `Vec<Vec<…>>`. Rows carry capacity slack; an
//! insertion that overflows its row relocates the row to the end of
//! the pool, and the pool compacts (into retained scratch buffers)
//! when holes exceed the live entries — amortized O(1) per update and
//! allocation-free once warm.
//!
//! # Incremental maintenance
//!
//! The field is built in O(N·k) with a cutoff-radius query against a
//! [`SpatialGrid`] (the gain floor defines the cutoff disc: beyond
//! `distance_for_gain(gain_floor)` even an unobstructed interferer is
//! sub-floor), and repaired in O(affected rows) by
//! [`SinrField::apply`] under [`FieldEvent`] deltas. Two auxiliary
//! indexes make the patch math local:
//!
//! * a **transposed CSR** (`hearers`): node → rows whose interferer
//!   list contains it — "who hears this node", the reverse-reach
//!   question — answers removals and gain updates when a node moves
//!   or leaves;
//! * an **aim index** (`aimers`): node → rows aiming *at* it —
//!   exactly the rows whose entire geometry changes when their
//!   receiver moves.
//!
//! A move of `j` therefore touches: `j`'s own direct gain, the rows
//! aiming at `j` (full rebuild — their receiver moved), and the union
//! of `hearers(j)` (old neighborhood) with the rows whose receiver
//! now lies within the cutoff of `j`'s new position (new
//! neighborhood, one grid query). Every touched row is recorded in a
//! dirty set so a warm-started control loop can re-relax only what
//! changed. Rows stay sorted by interferer id, so the interference
//! accumulation order — and hence the `f64` sums — are **bit
//! identical** to a from-scratch [`SinrField::build`]; the
//! equivalence tests pin exactly that.

use crate::gain::GainModel;
use minim_geom::{Point, SegmentGrid, SpatialGrid};

/// Receiver-slab sentinel for "this slot holds no node" — slots enter
/// this state via [`FieldEvent::Leave`] and through holes in the
/// `receiver` slice handed to [`SinrField::build`]. (A *present* node
/// with no partner aims at itself instead: a dead link.)
pub const NO_RECEIVER: u32 = u32::MAX;

/// The link budget shared by every receiver: processing gain and
/// noise power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// CDMA processing (spreading) gain `L` applied to the wanted
    /// signal after despreading.
    pub processing_gain: f64,
    /// Receiver noise power `N0` (same normalized units as transmit
    /// powers).
    pub noise: f64,
}

impl LinkBudget {
    /// A spreading factor of 64 over unit noise — the normalized
    /// default; transmit powers are expressed relative to `N0`.
    pub fn cdma64() -> Self {
        LinkBudget {
            processing_gain: 64.0,
            noise: 1.0,
        }
    }

    /// Checks the budget is physically sensible: a finite processing
    /// gain of at least 1 and a finite, strictly positive noise.
    pub fn check(&self) -> Result<(), String> {
        if !(self.processing_gain.is_finite() && self.processing_gain >= 1.0) {
            return Err(format!(
                "processing_gain must be >= 1, got {}",
                self.processing_gain
            ));
        }
        if !(self.noise.is_finite() && self.noise > 0.0) {
            return Err(format!("noise must be positive, got {}", self.noise));
        }
        Ok(())
    }
}

/// One geometry delta against a [`SinrField`] — the four event types
/// of the paper's §2, at the physical layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldEvent {
    /// Node `node` (currently absent, or never seen) appears at `pos`
    /// aiming at `receiver` (`receiver == node` for a dead link).
    Join {
        /// The joining node's id (slabs grow to cover it).
        node: u32,
        /// Its position.
        pos: Point,
        /// Its intended receiver (a present node, or `node` itself).
        receiver: u32,
    },
    /// Node `node` disappears. Rows still aiming at it become dead
    /// links in the same patch (see [`SinrField::apply`]).
    Leave {
        /// The leaving node.
        node: u32,
    },
    /// Node `node` moves to `pos` (receiver assignments unchanged).
    Move {
        /// The moving node.
        node: u32,
        /// Its new position.
        pos: Point,
    },
    /// Node `node` re-aims at `receiver`.
    Retune {
        /// The retuning node.
        node: u32,
        /// Its new receiver (a present node, or `node` itself).
        receiver: u32,
    },
}

/// Extra pool slack granted to a row of `len` live entries, so a few
/// inserts land in place before the row has to relocate.
#[inline]
fn row_pad(len: usize) -> usize {
    len / 8 + 2
}

/// The flat CSR pool behind the interferer lists: parallel `ids` /
/// `gains` arrays with per-row `(start, len, cap)`. Rows are sorted
/// by id. See the module docs for the relocation/compaction scheme.
#[derive(Debug, Clone, Default)]
struct RowPool {
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    ids: Vec<u32>,
    gains: Vec<f64>,
    /// Total live entries (pool length minus holes and slack).
    live: usize,
}

impl RowPool {
    fn ensure_rows(&mut self, n: usize) {
        if self.start.len() < n {
            self.start.resize(n, 0);
            self.len.resize(n, 0);
            self.cap.resize(n, 0);
        }
    }

    #[inline]
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let s = self.start[i] as usize;
        let l = self.len[i] as usize;
        (&self.ids[s..s + l], &self.gains[s..s + l])
    }

    /// Replaces row `i`'s contents (both slices sorted by id),
    /// relocating the row when the new length exceeds its capacity.
    fn set_row(&mut self, i: usize, ids: &[u32], gains: &[f64]) {
        debug_assert_eq!(ids.len(), gains.len());
        let old_len = self.len[i] as usize;
        if ids.len() > self.cap[i] as usize {
            let cap = ids.len() + row_pad(ids.len());
            let s = self.ids.len();
            self.start[i] = s as u32;
            self.cap[i] = cap as u32;
            self.ids.resize(s + cap, 0);
            self.gains.resize(s + cap, 0.0);
        }
        let s = self.start[i] as usize;
        self.ids[s..s + ids.len()].copy_from_slice(ids);
        self.gains[s..s + gains.len()].copy_from_slice(gains);
        self.len[i] = ids.len() as u32;
        self.live = self.live + ids.len() - old_len;
    }

    /// Sets the gain of `j` in row `i`, inserting it in sorted
    /// position when absent. Returns `true` when a new entry was
    /// inserted (as opposed to updated in place).
    fn upsert(&mut self, i: usize, j: u32, g: f64) -> bool {
        let s = self.start[i] as usize;
        let l = self.len[i] as usize;
        match self.ids[s..s + l].binary_search(&j) {
            Ok(p) => {
                self.gains[s + p] = g;
                false
            }
            Err(p) => {
                if l == self.cap[i] as usize {
                    // Row full: relocate it to the pool end with slack.
                    let cap = (l + 1) + row_pad(l + 1);
                    let ns = self.ids.len();
                    self.ids.resize(ns + cap, 0);
                    self.gains.resize(ns + cap, 0.0);
                    self.ids.copy_within(s..s + l, ns);
                    self.gains.copy_within(s..s + l, ns);
                    self.start[i] = ns as u32;
                    self.cap[i] = cap as u32;
                    return self.upsert(i, j, g);
                }
                self.ids.copy_within(s + p..s + l, s + p + 1);
                self.gains.copy_within(s + p..s + l, s + p + 1);
                self.ids[s + p] = j;
                self.gains[s + p] = g;
                self.len[i] = (l + 1) as u32;
                self.live += 1;
                true
            }
        }
    }

    /// Removes `j` from row `i`. Returns whether it was present.
    fn remove(&mut self, i: usize, j: u32) -> bool {
        let s = self.start[i] as usize;
        let l = self.len[i] as usize;
        match self.ids[s..s + l].binary_search(&j) {
            Ok(p) => {
                self.ids.copy_within(s + p + 1..s + l, s + p);
                self.gains.copy_within(s + p + 1..s + l, s + p);
                self.len[i] = (l - 1) as u32;
                self.live -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Compacts the pool into the retained scratch buffers when holes
    /// plus slack dominate the live entries.
    fn maybe_compact(&mut self, sids: &mut Vec<u32>, sgains: &mut Vec<f64>) {
        if self.ids.len() <= 2 * self.live + 4 * self.start.len() + 1024 {
            return;
        }
        sids.clear();
        sgains.clear();
        for i in 0..self.start.len() {
            let s = self.start[i] as usize;
            let l = self.len[i] as usize;
            let cap = l + row_pad(l);
            self.start[i] = sids.len() as u32;
            self.cap[i] = cap as u32;
            sids.extend_from_slice(&self.ids[s..s + l]);
            sgains.extend_from_slice(&self.gains[s..s + l]);
            sids.resize(sids.len() + (cap - l), 0);
            sgains.resize(sgains.len() + (cap - l), 0.0);
        }
        std::mem::swap(&mut self.ids, sids);
        std::mem::swap(&mut self.gains, sgains);
    }
}

/// A pool of sorted `u32` lists with the same `(start, len, cap)` +
/// relocation + compaction mechanics as [`RowPool`], minus the gains —
/// backs the transposed index and the aim index.
#[derive(Debug, Clone, Default)]
struct ListPool {
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    data: Vec<u32>,
    live: usize,
}

impl ListPool {
    fn ensure_rows(&mut self, n: usize) {
        if self.start.len() < n {
            self.start.resize(n, 0);
            self.len.resize(n, 0);
            self.cap.resize(n, 0);
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        let s = self.start[i] as usize;
        &self.data[s..s + self.len[i] as usize]
    }

    /// Lays out `counts[i]` capacity (plus slack) per row, empty; the
    /// build path then fills rows in order with
    /// [`ListPool::push_in_order`].
    fn from_counts(counts: &[u32]) -> ListPool {
        let mut pool = ListPool::default();
        let mut off = 0usize;
        for &c in counts {
            let cap = c as usize + row_pad(c as usize);
            pool.start.push(off as u32);
            pool.len.push(0);
            pool.cap.push(cap as u32);
            off += cap;
        }
        pool.data.resize(off, 0);
        pool
    }

    /// Appends `v` to row `i` (build path: caller guarantees capacity
    /// and ascending order).
    fn push_in_order(&mut self, i: usize, v: u32) {
        let s = self.start[i] as usize;
        let l = self.len[i] as usize;
        debug_assert!(l < self.cap[i] as usize);
        debug_assert!(l == 0 || self.data[s + l - 1] < v);
        self.data[s + l] = v;
        self.len[i] = (l + 1) as u32;
        self.live += 1;
    }

    /// Inserts `v` into row `i` in sorted position (no-op when already
    /// present), relocating the row on overflow.
    fn insert_sorted(&mut self, i: usize, v: u32) {
        let s = self.start[i] as usize;
        let l = self.len[i] as usize;
        let Err(p) = self.data[s..s + l].binary_search(&v) else {
            return;
        };
        if l == self.cap[i] as usize {
            let cap = (l + 1) + row_pad(l + 1);
            let ns = self.data.len();
            self.data.resize(ns + cap, 0);
            self.data.copy_within(s..s + l, ns);
            self.start[i] = ns as u32;
            self.cap[i] = cap as u32;
            return self.insert_sorted(i, v);
        }
        self.data.copy_within(s + p..s + l, s + p + 1);
        self.data[s + p] = v;
        self.len[i] = (l + 1) as u32;
        self.live += 1;
    }

    /// Removes `v` from row `i` if present.
    fn remove_sorted(&mut self, i: usize, v: u32) {
        let s = self.start[i] as usize;
        let l = self.len[i] as usize;
        if let Ok(p) = self.data[s..s + l].binary_search(&v) {
            self.data.copy_within(s + p + 1..s + l, s + p);
            self.len[i] = (l - 1) as u32;
            self.live -= 1;
        }
    }

    /// Empties row `i` (capacity retained).
    fn clear_row(&mut self, i: usize) {
        self.live -= self.len[i] as usize;
        self.len[i] = 0;
    }

    fn maybe_compact(&mut self, scratch: &mut Vec<u32>) {
        if self.data.len() <= 2 * self.live + 4 * self.start.len() + 1024 {
            return;
        }
        scratch.clear();
        for i in 0..self.start.len() {
            let s = self.start[i] as usize;
            let l = self.len[i] as usize;
            let cap = l + row_pad(l);
            self.start[i] = scratch.len() as u32;
            self.cap[i] = cap as u32;
            scratch.extend_from_slice(&self.data[s..s + l]);
            scratch.resize(scratch.len() + (cap - l), 0);
        }
        std::mem::swap(&mut self.data, scratch);
    }
}

/// Retained working buffers for the patch path (the `RewireScratch`
/// idea at the physical layer): once warm, [`SinrField::apply`]
/// allocates nothing.
#[derive(Debug, Clone, Default)]
struct FieldScratch {
    /// Grid-query candidates (node ids, sorted before use).
    cand: Vec<u32>,
    /// Copy of an aim-index row (rows to rebuild).
    aim_rows: Vec<u32>,
    /// Copy of a transposed-index row (rows that heard a node).
    old_rows: Vec<u32>,
    /// New row contents under construction.
    row_ids: Vec<u32>,
    row_gains: Vec<f64>,
    /// Rows touched by the new-neighborhood pass of a move (sorted).
    touched: Vec<u32>,
    /// Compaction double-buffers.
    pool_ids: Vec<u32>,
    pool_gains: Vec<f64>,
    pool_list: Vec<u32>,
    /// Wall-query candidate buffer (see `SegmentGrid::crossings_into`).
    wall_buf: Vec<u32>,
}

/// A precomputed, incrementally-maintained SINR evaluation field:
/// direct gains plus CSR interferer lists over a slab of node slots.
/// See the module docs for the storage layout and the patch math.
#[derive(Debug, Clone)]
pub struct SinrField {
    budget: LinkBudget,
    gain: GainModel,
    gain_floor: f64,
    /// Interferer scan radius implied by the gain floor (∞ when the
    /// floor is disabled).
    cutoff: f64,
    walls: Option<SegmentGrid>,
    /// Node slabs, indexed by id. `receiver[i] == NO_RECEIVER` marks
    /// an absent slot; `receiver[i] == i` a present node with a dead
    /// link. `positions[i]` is meaningful only for present slots.
    positions: Vec<Point>,
    receiver: Vec<u32>,
    /// `direct[i]` — gain from transmitter `i` to its own receiver
    /// (0 when the link is dead or the slot absent).
    direct: Vec<f64>,
    live: usize,
    /// Forward CSR: row `i` = `(j, g(x_j, x_r(i)))` sorted by `j`.
    rows: RowPool,
    /// Transposed CSR: `hearers.row(j)` = rows containing `j`.
    hearers: ListPool,
    /// Aim index: `aimers.row(r)` = rows `k ≠ r` with `receiver[k] == r`.
    aimers: ListPool,
    /// Present node positions, for cutoff-disc queries.
    grid: SpatialGrid,
    /// Rows touched since the last [`SinrField::take_dirty`], deduped
    /// via `dirty_flag`.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
    scratch: FieldScratch,
}

/// Marks row `k` dirty (free function so callers can hold disjoint
/// field borrows).
#[inline]
fn mark_dirty(dirty: &mut Vec<u32>, flag: &mut [bool], k: u32) {
    if !flag[k as usize] {
        flag[k as usize] = true;
        dirty.push(k);
    }
}

impl SinrField {
    /// Builds the field for transmitters at `positions`, where
    /// transmitter `i` aims at `positions[receiver[i]]`. A
    /// `receiver[i] == i` entry means "no receiver" (an isolated
    /// node): its direct gain is 0 and nothing interferes at it. A
    /// `receiver[i] == NO_RECEIVER` entry marks slot `i` absent
    /// (a hole left by a departed node; its position is ignored).
    ///
    /// `walls` (if any — cloned into the field) attenuate both wanted
    /// and interfering paths through [`GainModel::wall_loss`].
    /// `gain_floor` is the absolute gain below which an interferer is
    /// dropped (derive it as `floor_frac · noise / p_max`; see the
    /// module docs). Construction is O(N·k): each row queries the
    /// spatial grid for the cutoff disc around its receiver instead
    /// of scanning all pairs.
    ///
    /// # Panics
    /// Panics when the lengths differ or a receiver index is out of
    /// bounds / absent.
    pub fn build(
        gain: &GainModel,
        budget: LinkBudget,
        positions: &[Point],
        receiver: &[u32],
        walls: Option<&SegmentGrid>,
        gain_floor: f64,
    ) -> SinrField {
        assert_eq!(positions.len(), receiver.len(), "one receiver per node");
        gain.check()
            .and(budget.check())
            .unwrap_or_else(|e| panic!("{e}"));
        let n = positions.len();
        // Never scan farther than the floor distance — beyond it even
        // an unobstructed interferer is below the floor.
        let cutoff = if gain_floor > 0.0 && gain_floor < 1.0 {
            gain.distance_for_gain(gain_floor)
        } else {
            f64::INFINITY
        };
        let mut grid = SpatialGrid::new(grid_cell(cutoff, positions, receiver));
        let mut live = 0usize;
        for (i, &r) in receiver.iter().enumerate() {
            if r == NO_RECEIVER {
                continue;
            }
            assert!(
                (r as usize) < n && receiver[r as usize] != NO_RECEIVER,
                "receiver {r} of node {i} out of bounds or absent ({n} slots)"
            );
            grid.insert(i as u32, positions[i]);
            live += 1;
        }
        let mut field = SinrField {
            budget,
            gain: *gain,
            gain_floor,
            cutoff,
            walls: walls.cloned(),
            positions: positions.to_vec(),
            receiver: receiver.to_vec(),
            direct: vec![0.0; n],
            live,
            rows: RowPool::default(),
            hearers: ListPool::default(),
            aimers: ListPool::default(),
            grid,
            dirty: Vec::new(),
            dirty_flag: vec![false; n],
            scratch: FieldScratch::default(),
        };
        field.rows.ensure_rows(n);
        let mut cand: Vec<u32> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut gains: Vec<f64> = Vec::new();
        for i in 0..n {
            let r = field.receiver[i];
            if r == NO_RECEIVER || r as usize == i {
                // Absent slot or dead link: row stays empty (the
                // zeroed (start, len, cap) from ensure_rows).
                continue;
            }
            let rx = field.positions[r as usize];
            field.direct[i] =
                field
                    .gain
                    .gain_between(&field.positions[i], &rx, field.walls.as_ref());
            cand.clear();
            field.grid.for_each_within(&rx, cutoff, |u, _| cand.push(u));
            cand.sort_unstable();
            ids.clear();
            gains.clear();
            for &u in &cand {
                if u as usize == i || u == r {
                    // A receiver cancels its own transmission (u == r):
                    // counting it would swamp every bidirectional pair
                    // with near-field self-interference.
                    continue;
                }
                let g = field.gain.gain_between(
                    &field.positions[u as usize],
                    &rx,
                    field.walls.as_ref(),
                );
                if g >= gain_floor {
                    ids.push(u);
                    gains.push(g);
                }
            }
            let s = field.rows.ids.len();
            let cap = ids.len() + row_pad(ids.len());
            field.rows.start[i] = s as u32;
            field.rows.len[i] = ids.len() as u32;
            field.rows.cap[i] = cap as u32;
            field.rows.ids.extend_from_slice(&ids);
            field.rows.gains.extend_from_slice(&gains);
            field.rows.ids.resize(s + cap, 0);
            field.rows.gains.resize(s + cap, 0.0);
            field.rows.live += ids.len();
        }
        // Transposed index: count occurrences, lay out, fill in
        // ascending row order (so every list is sorted).
        let mut counts = vec![0u32; n];
        for i in 0..n {
            for &j in field.rows.row(i).0 {
                counts[j as usize] += 1;
            }
        }
        field.hearers = ListPool::from_counts(&counts);
        for i in 0..n {
            let (s, l) = (field.rows.start[i] as usize, field.rows.len[i] as usize);
            for p in s..s + l {
                let j = field.rows.ids[p] as usize;
                field.hearers.push_in_order(j, i as u32);
            }
        }
        // Aim index.
        counts.iter_mut().for_each(|c| *c = 0);
        for (i, &r) in field.receiver.iter().enumerate() {
            if r != NO_RECEIVER && r as usize != i {
                counts[r as usize] += 1;
            }
        }
        field.aimers = ListPool::from_counts(&counts);
        for (i, &r) in field.receiver.iter().enumerate() {
            if r != NO_RECEIVER && r as usize != i {
                field.aimers.push_in_order(r as usize, i as u32);
            }
        }
        field
    }

    /// Number of node slots (present and absent) — power/SINR slabs
    /// must be at least this long.
    pub fn len(&self) -> usize {
        self.direct.len()
    }

    /// Whether the field has no slots.
    pub fn is_empty(&self) -> bool {
        self.direct.is_empty()
    }

    /// Number of present (live) links.
    pub fn live_links(&self) -> usize {
        self.live
    }

    /// Whether slot `i` holds a present node.
    #[inline]
    pub fn is_live(&self, i: usize) -> bool {
        self.receiver.get(i).is_some_and(|&r| r != NO_RECEIVER)
    }

    /// The receiver of link `i` (`Some(i)` for a present node with a
    /// dead link, `None` for an absent slot).
    pub fn receiver_of(&self, i: usize) -> Option<u32> {
        self.receiver.get(i).copied().filter(|&r| r != NO_RECEIVER)
    }

    /// The position of node `i`, if present.
    pub fn position_of(&self, i: usize) -> Option<Point> {
        self.is_live(i).then(|| self.positions[i])
    }

    /// The link budget the field was built with.
    pub fn budget(&self) -> LinkBudget {
        self.budget
    }

    /// The gain floor the field was built with.
    pub fn gain_floor(&self) -> f64 {
        self.gain_floor
    }

    /// Direct gain of link `i`.
    #[inline]
    pub fn direct_gain(&self, i: usize) -> f64 {
        self.direct[i]
    }

    /// The interferer list of link `i`: parallel, id-sorted
    /// `(ids, gains)` slices.
    pub fn interferers(&self, i: usize) -> (&[u32], &[f64]) {
        self.rows.row(i)
    }

    /// The rows whose interferer lists contain node `j` — "who hears
    /// `j`", read off the transposed CSR.
    pub fn hearers(&self, j: usize) -> &[u32] {
        if j < self.hearers.start.len() {
            self.hearers.row(j)
        } else {
            &[]
        }
    }

    /// The rows aiming at node `r` (excluding `r` itself).
    pub fn aimers(&self, r: usize) -> &[u32] {
        if r < self.aimers.start.len() {
            self.aimers.row(r)
        } else {
            &[]
        }
    }

    /// The present node nearest to `p` for which `admissible` holds
    /// (ties toward the lower id — deterministic, matching the
    /// driver's `nearest_among`).
    pub fn nearest_transmitter(
        &self,
        p: &Point,
        admissible: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let mut adm = admissible;
        self.grid
            .nearest_where(p, |id, _| adm(id))
            .map(|(id, _)| id)
    }

    /// Noise-plus-interference power at link `i`'s receiver under
    /// `powers`: the pinned-order accumulation kernel ([`crate::accum`])
    /// over the row's flat id/gain slices, plus the noise floor.
    #[inline]
    pub fn interference(&self, powers: &[f64], i: usize) -> f64 {
        let (ids, gains) = self.rows.row(i);
        self.budget.noise + crate::accum::weighted_sum(ids, gains, powers)
    }

    /// SINR of link `i` under the power vector `powers` (0 when the
    /// direct path is dead or the slot absent).
    #[inline]
    pub fn sinr(&self, powers: &[f64], i: usize) -> f64 {
        self.budget.processing_gain * self.direct[i] * powers[i] / self.interference(powers, i)
    }

    /// SINR of every slot under `powers` (absent slots report 0).
    pub fn sinrs(&self, powers: &[f64]) -> Vec<f64> {
        (0..self.len()).map(|i| self.sinr(powers, i)).collect()
    }

    /// Drains the dirty-row set (rows whose interferer list or direct
    /// gain changed since the last drain) into `out`, sorted
    /// ascending. The control loop seeds its warm worklist from this.
    pub fn take_dirty(&mut self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.dirty);
        out.sort_unstable();
        for &k in &self.dirty {
            self.dirty_flag[k as usize] = false;
        }
        self.dirty.clear();
    }

    /// Grows every slab to cover slot `id`.
    fn ensure_slot(&mut self, id: usize) {
        if id < self.direct.len() {
            return;
        }
        let n = id + 1;
        self.positions.resize(n, Point::new(0.0, 0.0));
        self.receiver.resize(n, NO_RECEIVER);
        self.direct.resize(n, 0.0);
        self.dirty_flag.resize(n, false);
        self.rows.ensure_rows(n);
        self.hearers.ensure_rows(n);
        self.aimers.ensure_rows(n);
    }

    /// Recomputes row `k` (direct gain + interferer list) from the
    /// current geometry, updating the transposed index by diffing the
    /// old and new id sets. O(candidates in the cutoff disc).
    fn rebuild_row(&mut self, k: u32) {
        let ku = k as usize;
        let r = self.receiver[ku];
        let mut ids = std::mem::take(&mut self.scratch.row_ids);
        let mut gains = std::mem::take(&mut self.scratch.row_gains);
        let mut cand = std::mem::take(&mut self.scratch.cand);
        ids.clear();
        gains.clear();
        if r != NO_RECEIVER && r != k {
            let rx = self.positions[r as usize];
            self.direct[ku] = self.gain.gain_between_with(
                &self.positions[ku],
                &rx,
                self.walls.as_ref(),
                &mut self.scratch.wall_buf,
            );
            cand.clear();
            self.grid
                .for_each_within(&rx, self.cutoff, |u, _| cand.push(u));
            cand.sort_unstable();
            for &u in &cand {
                if u == k || u == r {
                    continue;
                }
                let g = self.gain.gain_between_with(
                    &self.positions[u as usize],
                    &rx,
                    self.walls.as_ref(),
                    &mut self.scratch.wall_buf,
                );
                if g >= self.gain_floor {
                    ids.push(u);
                    gains.push(g);
                }
            }
        } else {
            self.direct[ku] = 0.0;
        }
        // Diff old vs new ids (both sorted) into the transposed index.
        {
            let (old, _) = self.rows.row(ku);
            let (mut a, mut b) = (0usize, 0usize);
            while a < old.len() || b < ids.len() {
                if b == ids.len() || (a < old.len() && old[a] < ids[b]) {
                    self.hearers.remove_sorted(old[a] as usize, k);
                    a += 1;
                } else if a == old.len() || ids[b] < old[a] {
                    self.hearers.insert_sorted(ids[b] as usize, k);
                    b += 1;
                } else {
                    a += 1;
                    b += 1;
                }
            }
        }
        self.rows.set_row(ku, &ids, &gains);
        mark_dirty(&mut self.dirty, &mut self.dirty_flag, k);
        self.scratch.row_ids = ids;
        self.scratch.row_gains = gains;
        self.scratch.cand = cand;
    }

    /// Inserts/updates/removes node `j` as an interferer in the rows
    /// whose receivers lie within the cutoff disc of `j`'s current
    /// position, recording every touched row (sorted) in
    /// `scratch.touched`.
    fn patch_new_neighborhood(&mut self, j: u32) {
        let p = self.positions[j as usize];
        let mut cand = std::mem::take(&mut self.scratch.cand);
        let mut touched = std::mem::take(&mut self.scratch.touched);
        cand.clear();
        touched.clear();
        self.grid
            .for_each_within(&p, self.cutoff, |u, _| cand.push(u));
        cand.sort_unstable();
        for &u in &cand {
            if u == j {
                continue;
            }
            let rx = self.positions[u as usize];
            let g = self.gain.gain_between_with(
                &p,
                &rx,
                self.walls.as_ref(),
                &mut self.scratch.wall_buf,
            );
            let keep = g >= self.gain_floor;
            for ai in 0..self.aimers.row(u as usize).len() {
                let k = self.aimers.row(u as usize)[ai];
                if k == j {
                    continue;
                }
                let changed = if keep {
                    if self.rows.upsert(k as usize, j, g) {
                        self.hearers.insert_sorted(j as usize, k);
                    }
                    true
                } else {
                    let removed = self.rows.remove(k as usize, j);
                    if removed {
                        self.hearers.remove_sorted(j as usize, k);
                    }
                    removed
                };
                if changed {
                    mark_dirty(&mut self.dirty, &mut self.dirty_flag, k);
                }
                touched.push(k);
            }
        }
        touched.sort_unstable();
        self.scratch.cand = cand;
        self.scratch.touched = touched;
    }

    /// Applies one geometry delta, repairing only the affected rows.
    /// See the module docs for the patch math. Touched rows accumulate
    /// in the dirty set ([`SinrField::take_dirty`]).
    ///
    /// A `Leave` of a node that is some row's receiver converts those
    /// rows to dead links (aiming at themselves, direct gain dropped)
    /// **in the same patch** — the orphaned links need no session-side
    /// retune ordering to keep the field consistent, though callers
    /// are free to retune them onto fresh receivers first (or after).
    ///
    /// # Panics
    /// Panics on inconsistent deltas: joining a present id, moving or
    /// retuning an absent one, or aiming at an absent receiver.
    pub fn apply(&mut self, ev: &FieldEvent) {
        match *ev {
            FieldEvent::Join {
                node,
                pos,
                receiver,
            } => {
                self.ensure_slot(node as usize);
                assert!(
                    self.receiver[node as usize] == NO_RECEIVER,
                    "join of present node {node}"
                );
                assert!(
                    receiver == node || self.is_live(receiver as usize),
                    "join aiming at absent receiver {receiver}"
                );
                self.positions[node as usize] = pos;
                self.receiver[node as usize] = receiver;
                self.grid.insert(node, pos);
                self.live += 1;
                if receiver != node {
                    self.aimers.insert_sorted(receiver as usize, node);
                }
                self.rebuild_row(node);
                self.patch_new_neighborhood(node);
            }
            FieldEvent::Leave { node } => {
                let ju = node as usize;
                assert!(self.is_live(ju), "leave of absent node {node}");
                // Rows still aiming at the leaver lose their receiver
                // in the same patch: they become dead links (aim at
                // themselves, direct gain 0, empty interferer row) and
                // land in the dirty set, instead of relying on the
                // caller to retune them beforehand. Callers that *do*
                // retune first (the session re-aims them at their next
                // nearest neighbors) see an empty aim row here.
                let mut aim = std::mem::take(&mut self.scratch.aim_rows);
                aim.clear();
                aim.extend_from_slice(self.aimers.row(ju));
                for &k in &aim {
                    self.receiver[k as usize] = k;
                    self.rebuild_row(k);
                }
                self.aimers.clear_row(ju);
                self.scratch.aim_rows = aim;
                // Remove the leaver from every row that heard it.
                let mut old_rows = std::mem::take(&mut self.scratch.old_rows);
                old_rows.clear();
                old_rows.extend_from_slice(self.hearers.row(ju));
                for &k in &old_rows {
                    self.rows.remove(k as usize, node);
                    mark_dirty(&mut self.dirty, &mut self.dirty_flag, k);
                }
                self.scratch.old_rows = old_rows;
                self.hearers.clear_row(ju);
                // Drop its own row and aim entry.
                for &u in self.rows.row(ju).0 {
                    self.hearers.remove_sorted(u as usize, node);
                }
                let r = self.receiver[ju];
                if r != node {
                    self.aimers.remove_sorted(r as usize, node);
                }
                self.rows.set_row(ju, &[], &[]);
                self.direct[ju] = 0.0;
                self.receiver[ju] = NO_RECEIVER;
                self.grid.remove(node);
                self.live -= 1;
            }
            FieldEvent::Move { node, pos } => {
                let ju = node as usize;
                assert!(self.is_live(ju), "move of absent node {node}");
                self.positions[ju] = pos;
                self.grid.relocate(node, pos);
                let r = self.receiver[ju];
                if r != node {
                    // Direct gain follows the transmitter.
                    self.direct[ju] = self.gain.gain_between_with(
                        &self.positions[ju],
                        &self.positions[r as usize],
                        self.walls.as_ref(),
                        &mut self.scratch.wall_buf,
                    );
                    mark_dirty(&mut self.dirty, &mut self.dirty_flag, node);
                }
                // Rows aiming at the mover: their receiver moved, so
                // their whole geometry changes — full rebuild.
                let mut aim = std::mem::take(&mut self.scratch.aim_rows);
                aim.clear();
                aim.extend_from_slice(self.aimers.row(ju));
                for &k in &aim {
                    self.rebuild_row(k);
                }
                self.scratch.aim_rows = aim;
                // Old neighborhood: rows that heard the mover before.
                let mut old_rows = std::mem::take(&mut self.scratch.old_rows);
                old_rows.clear();
                old_rows.extend_from_slice(self.hearers.row(ju));
                // New neighborhood: upsert into rows whose receiver is
                // now in range (also refreshes surviving old entries).
                self.patch_new_neighborhood(node);
                // Rows that heard the mover but were not touched by
                // the new-neighborhood pass: the mover went out of
                // their cutoff disc — remove it.
                for &k in &old_rows {
                    if self.scratch.touched.binary_search(&k).is_err() {
                        self.rows.remove(k as usize, node);
                        self.hearers.remove_sorted(ju, k);
                        mark_dirty(&mut self.dirty, &mut self.dirty_flag, k);
                    }
                }
                self.scratch.old_rows = old_rows;
            }
            FieldEvent::Retune { node, receiver } => {
                let ju = node as usize;
                assert!(self.is_live(ju), "retune of absent node {node}");
                assert!(
                    receiver == node || self.is_live(receiver as usize),
                    "retune aiming at absent receiver {receiver}"
                );
                let old = self.receiver[ju];
                if old == receiver {
                    return;
                }
                if old != node {
                    self.aimers.remove_sorted(old as usize, node);
                }
                if receiver != node {
                    self.aimers.insert_sorted(receiver as usize, node);
                }
                self.receiver[ju] = receiver;
                self.rebuild_row(node);
            }
        }
        self.rows
            .maybe_compact(&mut self.scratch.pool_ids, &mut self.scratch.pool_gains);
        self.hearers.maybe_compact(&mut self.scratch.pool_list);
        self.aimers.maybe_compact(&mut self.scratch.pool_list);
    }
}

/// Logical equality: same budget/gain/floor and, slot by slot, the
/// same presence, receiver, direct gain, and interferer list (bitwise
/// on the `f64`s — the incremental-vs-rebuild contract). Auxiliary
/// indexes, pool layout, and wall storage are representation detail.
impl PartialEq for SinrField {
    fn eq(&self, other: &Self) -> bool {
        if self.budget != other.budget
            || self.gain != other.gain
            || self.gain_floor != other.gain_floor
        {
            return false;
        }
        let n = self.len().max(other.len());
        for i in 0..n {
            let (ra, rb) = (
                self.receiver.get(i).copied().unwrap_or(NO_RECEIVER),
                other.receiver.get(i).copied().unwrap_or(NO_RECEIVER),
            );
            if ra != rb {
                return false;
            }
            if ra == NO_RECEIVER {
                continue;
            }
            if self.positions[i] != other.positions[i]
                || self.direct[i].to_bits() != other.direct[i].to_bits()
            {
                return false;
            }
            let (ia, ga) = self.rows.row(i);
            let (ib, gb) = other.rows.row(i);
            if ia != ib || ga.iter().zip(gb).any(|(a, b)| a.to_bits() != b.to_bits()) {
                return false;
            }
            if ga.len() != gb.len() {
                return false;
            }
        }
        true
    }
}

/// Picks the spatial-grid cell for a field: the cutoff radius when it
/// is finite (each row query then scans O(1) cells per candidate), a
/// bounding-box heuristic otherwise.
fn grid_cell(cutoff: f64, positions: &[Point], receiver: &[u32]) -> f64 {
    if cutoff.is_finite() && cutoff > 0.0 {
        return cutoff;
    }
    let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
    let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut n = 0usize;
    for (i, p) in positions.iter().enumerate() {
        if receiver.get(i).copied().unwrap_or(NO_RECEIVER) == NO_RECEIVER {
            continue;
        }
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        n += 1;
    }
    if n < 2 {
        return 1.0;
    }
    let span = (hi.x - lo.x).max(hi.y - lo.y);
    let cell = span / ((n as f64).sqrt() + 1.0);
    if cell.is_finite() && cell > 0.0 {
        cell
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_geom::Segment;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn lone_link_is_noise_limited() {
        // Two nodes aiming at each other, 4 apart: SINR = L · g · p.
        let positions = pts(&[(0.0, 0.0), (4.0, 0.0)]);
        let field = SinrField::build(
            &GainModel::terrain(),
            LinkBudget::cdma64(),
            &positions,
            &[1, 0],
            None,
            0.0,
        );
        let p = [2.0, 2.0];
        let g = GainModel::terrain().path_gain(4.0);
        // Each is the other's receiver; a receiver cancels its own
        // transmission, so the lone pair sees noise only.
        let expect0 = 64.0 * g * 2.0 / 1.0;
        assert!((field.sinr(&p, 0) - expect0).abs() < 1e-12);
        assert_eq!(field.sinr(&p, 0), field.sinr(&p, 1), "symmetric pair");
    }

    #[test]
    fn interference_reduces_sinr() {
        // 0 → 1, with 2 close to receiver 1: raising p_2 drops SINR_0.
        let positions = pts(&[(0.0, 0.0), (5.0, 0.0), (6.0, 0.0)]);
        let field = SinrField::build(
            &GainModel::terrain(),
            LinkBudget::cdma64(),
            &positions,
            &[1, 0, 1],
            None,
            0.0,
        );
        let quiet = field.sinr(&[1.0, 1.0, 0.0], 0);
        let loud = field.sinr(&[1.0, 1.0, 10.0], 0);
        assert!(loud < quiet, "interferer power must hurt: {loud} < {quiet}");
    }

    #[test]
    fn isolated_node_has_dead_link() {
        let positions = pts(&[(0.0, 0.0)]);
        let field = SinrField::build(
            &GainModel::terrain(),
            LinkBudget::cdma64(),
            &positions,
            &[0],
            None,
            0.0,
        );
        assert_eq!(field.direct_gain(0), 0.0);
        assert_eq!(field.sinr(&[5.0], 0), 0.0);
    }

    #[test]
    fn gain_floor_drops_distant_interferers_only() {
        // Interferer at distance 100 from the receiver is below the
        // floor; one at distance 3 stays.
        let positions = pts(&[(0.0, 0.0), (2.0, 0.0), (5.0, 0.0), (102.0, 0.0)]);
        let gm = GainModel::terrain();
        let floor = gm.path_gain(50.0);
        let all = SinrField::build(
            &gm,
            LinkBudget::cdma64(),
            &positions,
            &[1, 0, 1, 1],
            None,
            0.0,
        );
        let floored = SinrField::build(
            &gm,
            LinkBudget::cdma64(),
            &positions,
            &[1, 0, 1, 1],
            None,
            floor,
        );
        assert_eq!(floored.interferers(0).0.len(), 1, "only the near one");
        assert_eq!(all.interferers(0).0.len(), 2);
        let p = [1.0, 1.0, 1.0, 1.0];
        let rel = (floored.sinr(&p, 0) - all.sinr(&p, 0)).abs() / all.sinr(&p, 0);
        assert!(rel < 1e-2, "floor error is bounded, got {rel}");
    }

    #[test]
    fn walls_attenuate_wanted_and_interfering_paths() {
        let positions = pts(&[(0.0, 0.0), (6.0, 0.0), (3.0, 5.0)]);
        let mut walls = SegmentGrid::new(5.0);
        walls.insert(Segment::new(Point::new(3.0, -2.0), Point::new(3.0, 2.0)));
        let gm = GainModel::terrain();
        let clear = SinrField::build(&gm, LinkBudget::cdma64(), &positions, &[1, 0, 1], None, 0.0);
        let walled = SinrField::build(
            &gm,
            LinkBudget::cdma64(),
            &positions,
            &[1, 0, 1],
            Some(&walls),
            0.0,
        );
        // The 0→1 direct path crosses the wall: 10 dB down.
        assert!((walled.direct_gain(0) - clear.direct_gain(0) * 0.1).abs() < 1e-15);
        // 2's path to receiver 1 clears the wall: untouched.
        let g2 = |f: &SinrField| {
            let (ids, gains) = f.interferers(0);
            gains[ids.iter().position(|&j| j == 2).unwrap()]
        };
        assert_eq!(g2(&walled), g2(&clear));
    }

    /// The patch path must land on the exact field a rebuild produces
    /// — a deterministic mini-churn covering all four event types.
    #[test]
    fn patched_field_matches_rebuild() {
        let gm = GainModel::terrain();
        let floor = gm.path_gain(60.0);
        let positions = pts(&[
            (0.0, 0.0),
            (8.0, 0.0),
            (20.0, 5.0),
            (25.0, 5.0),
            (40.0, 0.0),
        ]);
        let receiver = [1u32, 0, 3, 2, 2];
        let mut field = SinrField::build(
            &gm,
            LinkBudget::cdma64(),
            &positions,
            &receiver,
            None,
            floor,
        );

        // Move node 4 across the arena.
        let mut positions = positions;
        positions[4] = Point::new(6.0, 2.0);
        field.apply(&FieldEvent::Move {
            node: 4,
            pos: positions[4],
        });
        let oracle = SinrField::build(
            &gm,
            LinkBudget::cdma64(),
            &positions,
            &receiver,
            None,
            floor,
        );
        assert_eq!(field, oracle, "after move");

        // Retune node 4 onto node 0.
        let mut receiver = receiver;
        receiver[4] = 0;
        field.apply(&FieldEvent::Retune {
            node: 4,
            receiver: 0,
        });
        let oracle = SinrField::build(
            &gm,
            LinkBudget::cdma64(),
            &positions,
            &receiver,
            None,
            floor,
        );
        assert_eq!(field, oracle, "after retune");

        // Join node 5 near the 2/3 pair.
        let mut positions = positions.to_vec();
        positions.push(Point::new(22.0, 6.0));
        let mut receiver = receiver.to_vec();
        receiver.push(2);
        field.apply(&FieldEvent::Join {
            node: 5,
            pos: positions[5],
            receiver: 2,
        });
        let oracle = SinrField::build(
            &gm,
            LinkBudget::cdma64(),
            &positions,
            &receiver,
            None,
            floor,
        );
        assert_eq!(field, oracle, "after join");

        // Node 3 leaves (retune its aimers — node 2 — first).
        receiver[2] = 5;
        field.apply(&FieldEvent::Retune {
            node: 2,
            receiver: 5,
        });
        receiver[3] = NO_RECEIVER;
        field.apply(&FieldEvent::Leave { node: 3 });
        let oracle = SinrField::build(
            &gm,
            LinkBudget::cdma64(),
            &positions,
            &receiver,
            None,
            floor,
        );
        assert_eq!(field, oracle, "after leave");
        assert_eq!(field.live_links(), 5);
        assert!(!field.is_live(3));
    }

    /// Leave-of-receiver regression: a `Leave` of a node other rows
    /// aim at must drop those rows' direct gains (dead links) in the
    /// same patch — bit-identical to a rebuild with the orphans aiming
    /// at themselves — and mark them dirty, with no session-side
    /// retune ordering required.
    #[test]
    fn leave_of_receiver_orphans_aimers_in_patch() {
        let gm = GainModel::terrain();
        let positions = pts(&[(0.0, 0.0), (5.0, 0.0), (9.0, 0.0), (14.0, 0.0)]);
        // 0, 2, and 3 all aim at 1; 1 aims back at 0.
        let mut field = SinrField::build(
            &gm,
            LinkBudget::cdma64(),
            &positions,
            &[1, 0, 1, 1],
            None,
            0.0,
        );
        let mut dirty = Vec::new();
        field.take_dirty(&mut dirty);
        field.apply(&FieldEvent::Leave { node: 1 });
        // Orphans become dead links: direct path gone, nothing heard.
        for k in [0usize, 2, 3] {
            assert_eq!(field.receiver_of(k), Some(k as u32), "orphan {k}");
            assert_eq!(field.direct_gain(k), 0.0, "orphan {k} direct gain");
            assert!(field.interferers(k).0.is_empty(), "orphan {k} row");
        }
        assert!(!field.is_live(1));
        assert_eq!(field.live_links(), 3);
        // The whole patch lands on the rebuild oracle, bit for bit.
        let receiver = [0u32, NO_RECEIVER, 2, 3];
        let oracle = SinrField::build(&gm, LinkBudget::cdma64(), &positions, &receiver, None, 0.0);
        assert_eq!(field, oracle, "leave-of-receiver patch vs rebuild");
        // Every orphan is in the dirty set the next settle will seed
        // its worklist from.
        field.take_dirty(&mut dirty);
        for k in [0u32, 2, 3] {
            assert!(dirty.contains(&k), "orphan {k} must be dirty");
        }
    }

    /// Dirty tracking: a move reports exactly the rows whose lists or
    /// direct gain changed, and draining resets the set.
    #[test]
    fn dirty_rows_cover_affected_links() {
        let positions = pts(&[(0.0, 0.0), (5.0, 0.0), (100.0, 0.0), (105.0, 0.0)]);
        let mut field = SinrField::build(
            &GainModel::terrain(),
            LinkBudget::cdma64(),
            &positions,
            &[1, 0, 3, 2],
            None,
            GainModel::terrain().path_gain(30.0),
        );
        let mut dirty = Vec::new();
        field.take_dirty(&mut dirty); // clear build-time noise (none)
        assert!(dirty.is_empty());
        // Move node 0 a little: its direct gain changes, and row 1
        // (aiming at 0) rebuilds. The far pair is untouched.
        field.apply(&FieldEvent::Move {
            node: 0,
            pos: Point::new(1.0, 0.0),
        });
        field.take_dirty(&mut dirty);
        assert_eq!(dirty, vec![0, 1]);
        field.take_dirty(&mut dirty);
        assert!(dirty.is_empty(), "drain resets the set");
    }

    #[test]
    fn nearest_transmitter_matches_linear_scan() {
        let positions = pts(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0), (10.0, 10.0)]);
        let field = SinrField::build(
            &GainModel::terrain(),
            LinkBudget::cdma64(),
            &positions,
            &[1, 0, 1, 2],
            None,
            0.0,
        );
        assert_eq!(
            field.nearest_transmitter(&Point::new(0.0, 0.0), |u| u != 0),
            Some(1)
        );
        // Equidistant candidates (1 and 2 from (3,2)): lowest id wins.
        assert_eq!(
            field.nearest_transmitter(&Point::new(3.0, 2.0), |u| u != 1 && u != 2),
            Some(0)
        );
        assert_eq!(
            field.nearest_transmitter(&Point::new(0.0, 0.0), |_| false),
            None
        );
    }
}
