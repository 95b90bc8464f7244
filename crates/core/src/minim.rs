//! The **Minim** strategy — §4 of the paper.
//!
//! * `RecodeOnJoin` (§4.1) and `RecodeOnMove` (§4.4): recode exactly the
//!   set `1n ∪ 2n ∪ {n}` by solving a maximum-weight bipartite matching
//!   between those nodes and the colors `1..=max`, where `max` is the
//!   largest color appearing in the set's old colors or external
//!   constraints. An edge `(u, k)` exists iff color `k` does not clash
//!   with `u`'s constraints *outside* the set; it weighs 3 when `k` is
//!   `u`'s old color and 1 otherwise. Matched nodes take their matched
//!   color; unmatched nodes take fresh colors `max+1, max+2, …`.
//!   The weight structure makes any maximum-weight matching retain one
//!   holder of every retainable old color (Thm 4.1.8 — minimality) and
//!   maximize the number of matched vertices among such matchings
//!   (Thm 4.1.9 — optimal-among-minimal max color index).
//!
//!   [`RecodePlanner`] runs both halves. The gather (steps 1–2) builds
//!   each member's external constraints as a color bitmask, walking
//!   each of the set's receivers once; the solve (steps 3–5) takes the
//!   all-keep fast path or hands dense weight rows derived from those
//!   masks to `minim_matching::DenseHungarian`. [`gather_recode_inputs`]
//!   and [`plan_recode`] are list-shaped wrappers over the same code,
//!   for the distributed joiner in `minim-proto`.
//! * `RecodeOnPowIncrease` (§4.2): all new constraints involve the
//!   initiating node, so at most **it** must change; it takes the
//!   lowest color satisfying its exact constraints.
//! * `RecodeDecreasePowOrLeave` (§4.3): provably nothing to do.
//!
//! Theorem 4.4.1 (move ≡ leave + join) holds for this implementation by
//! construction and is tested below.

use crate::{ColorPlan, RecodingStrategy};
use minim_graph::conflict;
use minim_graph::{Color, NodeId};
use minim_matching::DenseHungarian;
use minim_net::event::{AppliedEvent, PowerDirection};
use minim_net::{Network, TopologyDelta};
use std::cell::RefCell;

/// Weight of a "keep your old color" edge in the matching instance.
/// The paper fixes 3: the smallest integer that survives the swap
/// argument (a keep-edge must outweigh losing *two* unit edges). The
/// ablation bench varies this.
pub const KEEP_WEIGHT: i64 = 3;

/// The paper's minimal recoding strategy family.
#[derive(Debug, Clone)]
pub struct Minim {
    /// Weight for keep-edges (default [`KEEP_WEIGHT`]; the ablation
    /// bench explores alternatives).
    pub keep_weight: i64,
}

impl Default for Minim {
    fn default() -> Self {
        Minim {
            keep_weight: KEEP_WEIGHT,
        }
    }
}

impl Minim {
    /// A Minim variant with a custom keep-edge weight (for ablation;
    /// `keep_weight = 1` degenerates to weight-blind matching).
    pub fn with_keep_weight(keep_weight: i64) -> Self {
        assert!(keep_weight >= 1, "keep weight must be >= 1");
        Minim { keep_weight }
    }

    /// The common engine of `RecodeOnJoin` and `RecodeOnMove`: plans
    /// the recoding of `1n ∪ 2n ∪ {n}` via maximum-weight matching,
    /// **without mutating the network**. The recode set comes straight
    /// out of the event's [`TopologyDelta`]; `n` may or may not hold an
    /// old color. All reads stay within two graph hops of the recode
    /// set (the members' external constraints), i.e. within the
    /// event's neighborhood, as the paper's locality claim says.
    ///
    /// Runs this thread's [`RecodePlanner`], reusing its scratch.
    fn plan_matching(&self, net: &Network, delta: &TopologyDelta) -> ColorPlan {
        let mut plan = ColorPlan::new();
        with_planner(|p| p.plan_into(net, delta, self.keep_weight, &mut plan));
        plan
    }

    /// Plans `RecodeOnPowIncrease` (or nothing for decreases) without
    /// mutating the network.
    fn plan_range(
        &self,
        net: &Network,
        id: NodeId,
        dir: PowerDirection,
        delta: &TopologyDelta,
    ) -> ColorPlan {
        match dir {
            PowerDirection::Increase => {
                // All new constraints involve `id` and stem from the
                // delta's added out-edges (§4.2): a clash is possible
                // only at a *new* receiver — against the receiver
                // itself (CA1) or a co-transmitter into it (CA2).
                // Scanning those is O(Δ·deg); the pre-event state is
                // valid by the inductive contract, so old constraints
                // cannot clash.
                let current = net.assignment().get(id);
                let clash = match current {
                    Some(c) => delta.new_receivers().any(|w| {
                        net.assignment().get(w) == Some(c)
                            || net
                                .graph()
                                .in_neighbors(w)
                                .iter()
                                .any(|&x| x != id && net.assignment().get(x) == Some(c))
                    }),
                    None => true,
                };
                if clash {
                    // Repick against the full (old ∪ new) constraints
                    // (sorted + deduplicated by `constraint_colors`).
                    let constraints =
                        conflict::constraint_colors(net.graph(), net.assignment(), id);
                    vec![(id, Color::lowest_excluding_sorted(&constraints))]
                } else {
                    Vec::new()
                }
            }
            PowerDirection::Decrease | PowerDirection::Unchanged => Vec::new(),
        }
    }
}

/// Per-node-slot marks of one gather; a field equal to the planner's
/// current epoch is set, any other value is clear.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    /// The node is a recode-set member.
    member: u32,
    /// The node's receiver mask is built, at row `row`.
    receiver: u32,
    row: u32,
}

/// Minim's join/move planner (Fig 3 / Fig 8) with its scratch: the
/// code behind every [`Minim`] join/move plan, [`gather_recode_inputs`]
/// and [`plan_recode`].
///
/// * **Steps 1–2, the gather.** Membership is stamped by node slot, so
///   "is `p` outside the set" is one load. Each distinct receiver `w`
///   of the set gets one color bitmask, built once: the OR of the
///   colors of `w`'s in-neighbors outside the set (the CA2 partners
///   that meet at `w`). A member's forbidden mask is the OR of its
///   receivers' masks plus the colors of its own in/out neighbors
///   outside the set (CA1). Masks are `max_color / 64 + 1` words
///   wide, stored as one flat `members × words` matrix.
/// * **Steps 3–5, the solve.** The all-keep fast path, or the
///   weight-`keep_weight` / weight-1 instance written as dense rows
///   into a reused [`DenseHungarian`] — bit-identical to
///   `max_weight_matching` over the equivalent `WeightedBipartite`.
///
/// Every buffer is kept across calls, so a warm planner allocates
/// nothing. [`Minim`] keeps one per thread; callers that plan in a
/// loop may own one.
#[derive(Debug, Clone, Default)]
pub struct RecodePlanner {
    /// The recode set being planned, sorted.
    set: Vec<NodeId>,
    /// Old color per member.
    old: Vec<Option<Color>>,
    /// Mask width in 64-bit words; bit `k` stands for color `k`.
    words: usize,
    /// `set.len() × words` external-constraint masks.
    forbidden: Vec<u64>,
    /// One mask per distinct receiver, in first-visit order.
    receivers: Vec<u64>,
    /// The set members' old colors, as one mask.
    kept: Vec<u64>,
    stamps: Vec<Stamp>,
    epoch: u32,
    kernel: DenseHungarian,
    /// The solve's output, one color per member.
    colors: Vec<Color>,
}

/// The calling thread's planner. `plan_batched` takes `&self`, so the
/// scratch cannot live in [`Minim`] without interior mutability.
fn with_planner<R>(f: impl FnOnce(&mut RecodePlanner) -> R) -> R {
    thread_local! {
        static PLANNER: RefCell<RecodePlanner> = RefCell::new(RecodePlanner::default());
    }
    PLANNER.with(|p| f(&mut p.borrow_mut()))
}

fn set_bit(mask: &mut [u64], c: Color) {
    let k = c.index() as usize;
    mask[k / 64] |= 1 << (k % 64);
}

fn has_bit(mask: &[u64], c: Color) -> bool {
    let k = c.index() as usize;
    mask[k / 64] & (1 << (k % 64)) != 0
}

/// The lowest color in neither `a` nor `b` — `Color::lowest_excluding`
/// over two masks of equal width.
fn lowest_free(a: &[u64], b: &[u64]) -> Color {
    for (w, (x, y)) in a.iter().zip(b).enumerate() {
        // Bit 0 stands for no color: codes start at 1.
        let taken = x | y | u64::from(w == 0);
        if taken != u64::MAX {
            return Color::new(w as u32 * 64 + (!taken).trailing_zeros());
        }
    }
    Color::new(a.len() as u32 * 64)
}

impl RecodePlanner {
    /// Plans `RecodeOnJoin` / `RecodeOnMove` for the event `delta`
    /// describes, on the post-event topology in `net`, into `plan`
    /// (cleared first): exactly the writes [`Minim`] with this
    /// `keep_weight` commits. A plan of more than one write comes from
    /// the matching.
    pub fn plan_into(
        &mut self,
        net: &Network,
        delta: &TopologyDelta,
        keep_weight: i64,
        plan: &mut ColorPlan,
    ) {
        plan.clear();
        let n = delta.node();
        delta.recode_set_into(&mut self.set);
        self.begin(net);

        // Fast path (the common case in dense networks): if the old
        // colors across the whole set — `n` included when it holds one
        // — are pairwise distinct, every non-`n` member can keep its
        // color (Lemma 4.1.6 — the event adds no constraints between
        // them and non-set nodes), and only `n` needs attention:
        //
        // * colored `n` whose color avoids its constraints → all keep;
        // * uncolored `n` (a join) → lowest color avoiding its
        //   constraints, which span both the set members (all CA1
        //   partners of `n`) and `n`'s external partners;
        // * colored `n` with a clash → fall through to the full
        //   matching: the optimum may shift a *member* off its color
        //   instead of pushing `n` to a fresh one.
        //
        // Distinct colors mean no member shares `n`'s, so a clash can
        // only be external: `n`'s own row decides. This mirrors the
        // solve's fast path exactly, so the distributed protocol
        // (which reconstructs inputs from messages and calls
        // `plan_recode`) computes identical assignments.
        if self.keep_mask() && keep_weight > 1 {
            let i = self
                .set
                .binary_search(&n)
                .expect("the recode set holds its node");
            self.fill_rows(net, i..i + 1);
            let row = &self.forbidden[i * self.words..(i + 1) * self.words];
            match self.old[i] {
                Some(c) if !has_bit(row, c) => return,
                Some(_) => {}
                None => return plan.push((n, lowest_free(row, &self.kept))),
            }
        }

        self.fill_rows(net, 0..self.set.len());
        self.solve(keep_weight);
        plan.extend(self.set.iter().copied().zip(self.colors.iter().copied()));
    }

    /// Steps 1–2 alone for `set`: each member's old color and external
    /// constraint mask.
    fn gather(&mut self, net: &Network, set: &[NodeId]) {
        self.set.clear();
        self.set.extend_from_slice(set);
        self.begin(net);
        self.fill_rows(net, 0..set.len());
    }

    /// Starts a gather over `self.set`: a fresh epoch, the members
    /// stamped, their old colors read, and the masks sized to the
    /// network's largest color.
    fn begin(&mut self, net: &Network) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(Stamp::default());
            self.epoch = 1;
        }
        self.words = net.max_color_index() as usize / 64 + 1;
        self.forbidden.clear();
        self.forbidden.resize(self.set.len() * self.words, 0);
        self.receivers.clear();
        self.old.clear();
        for &u in &self.set {
            self.old.push(net.assignment().get(u));
            let slot = u.index();
            if slot >= self.stamps.len() {
                self.stamps.resize(slot + 1, Stamp::default());
            }
            self.stamps[slot].member = self.epoch;
        }
    }

    /// Writes the forbidden masks of members `rows` (Fig 3 steps 1–2):
    /// first the masks of their receivers not yet built this epoch,
    /// then each member's row.
    fn fill_rows(&mut self, net: &Network, rows: std::ops::Range<usize>) {
        let (g, a) = (net.graph(), net.assignment());
        let (words, epoch) = (self.words, self.epoch);
        let RecodePlanner {
            set,
            forbidden,
            receivers,
            stamps,
            ..
        } = self;
        let outside =
            |stamps: &[Stamp], x: NodeId| stamps.get(x.index()).is_none_or(|s| s.member != epoch);
        for &u in &set[rows.clone()] {
            for &w in g.out_neighbors(u) {
                if w.index() >= stamps.len() {
                    stamps.resize(w.index() + 1, Stamp::default());
                }
                let stamp = &mut stamps[w.index()];
                if stamp.receiver == epoch {
                    continue;
                }
                stamp.receiver = epoch;
                let start = receivers.len();
                stamp.row = (start / words) as u32;
                receivers.resize(start + words, 0);
                let mask = &mut receivers[start..];
                for &x in g.in_neighbors(w) {
                    if let Some(c) = a.get(x).filter(|_| outside(stamps, x)) {
                        set_bit(mask, c);
                    }
                }
            }
        }
        for i in rows {
            let u = set[i];
            let row = &mut forbidden[i * words..(i + 1) * words];
            row.fill(0);
            for &w in g.out_neighbors(u) {
                let r = stamps[w.index()].row as usize * words;
                for (d, s) in row.iter_mut().zip(&receivers[r..r + words]) {
                    *d |= s;
                }
            }
            for &x in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                if let Some(c) = a.get(x).filter(|_| outside(stamps, x)) {
                    set_bit(row, c);
                }
            }
        }
    }

    /// Loads the solve's inputs from explicit lists — the
    /// [`plan_recode`] entry.
    fn load(&mut self, old: &[Option<Color>], forbidden: &[Vec<u32>]) {
        let max = old
            .iter()
            .flatten()
            .map(|c| c.index())
            .chain(forbidden.iter().flatten().copied())
            .max()
            .unwrap_or(0);
        self.words = max as usize / 64 + 1;
        self.old.clear();
        self.old.extend_from_slice(old);
        self.forbidden.clear();
        self.forbidden.resize(old.len() * self.words, 0);
        for (row, f) in self.forbidden.chunks_mut(self.words).zip(forbidden) {
            for &k in f {
                set_bit(row, Color::new(k));
            }
        }
    }

    /// Fills `kept` with the members' old colors; whether those are
    /// pairwise distinct.
    fn keep_mask(&mut self) -> bool {
        self.kept.clear();
        self.kept.resize(self.words, 0);
        let mut distinct = true;
        for &c in self.old.iter().flatten() {
            distinct &= !has_bit(&self.kept, c);
            set_bit(&mut self.kept, c);
        }
        distinct
    }

    /// Fig 3 / Fig 8 steps 3–5 over `old` and the forbidden masks: one
    /// color per member into `colors`. See [`plan_recode`].
    fn solve(&mut self, keep_weight: i64) {
        assert!(keep_weight >= 1, "keep weight must be >= 1");
        let words = self.words;
        let distinct = self.keep_mask();
        let RecodePlanner {
            old,
            forbidden,
            kept,
            kernel,
            colors,
            ..
        } = self;
        let row = |i: usize| &forbidden[i * words..(i + 1) * words];
        colors.clear();

        // Fast path: when all old colors are pairwise distinct,
        // externally consistent, and at most one member (the joiner)
        // is uncolored, the all-keep plan is a maximum-weight matching
        // for any positive keep weight: it retains every retainable
        // class and has maximum cardinality. The joiner takes the
        // lowest color avoiding the kept colors and its own
        // constraints — the optimal-among-minimal pick. Gated on
        // `keep_weight > 1` so the weight-blind ablation arm exercises
        // the matching's own (weight-indifferent) picks.
        if keep_weight > 1 {
            let nones = old.iter().filter(|o| o.is_none()).count();
            let consistent = (0..old.len()).all(|i| old[i].is_none_or(|c| !has_bit(row(i), c)));
            if distinct && nones <= 1 && consistent {
                colors.extend(
                    (0..old.len()).map(|i| old[i].unwrap_or_else(|| lowest_free(row(i), kept))),
                );
                return;
            }
        }

        // `max`: the largest color among old colors and constraints.
        let mut max = old.iter().flatten().map(|c| c.index()).max().unwrap_or(0);
        for mask in forbidden.chunks(words) {
            if let Some(w) = mask.iter().rposition(|&x| x != 0) {
                max = max.max(w as u32 * 64 + 63 - mask[w].leading_zeros());
            }
        }

        // Members × colors `1..=max`: weight `keep_weight` on the old
        // color, 1 on any other allowed color, 0 (no edge) on a
        // forbidden one.
        let cols = max as usize;
        let weights = kernel.reset(old.len(), cols);
        for (i, wrow) in weights.chunks_mut(cols.max(1)).enumerate() {
            let mask = row(i);
            for (k, w) in (1..=max).zip(wrow.iter_mut()) {
                let c = Color::new(k);
                if !has_bit(mask, c) {
                    *w = if old[i] == Some(c) { keep_weight } else { 1 };
                }
            }
        }

        // Unmatched members take fresh colors `max+1, max+2, …` in set
        // order.
        let mut fresh = max;
        colors.extend(kernel.solve().iter().map(|pair| match *pair {
            Some(r) => Color::new(r as u32 + 1),
            None => {
                fresh += 1;
                Color::new(fresh)
            }
        }));
    }
}

/// Collects, for each member of the (sorted) recode `set`, its old
/// color and its *external constraints* — the colors of its CA1/CA2
/// conflict partners outside the set (Fig 3 steps 1–2). Returned
/// forbidden lists are sorted and deduplicated.
///
/// A list-shaped view of [`RecodePlanner`]'s gather, exposed so the
/// distributed protocol layer (`minim-proto`) can cross-check the
/// inputs it reconstructs from messages against the global-state view.
pub fn gather_recode_inputs(net: &Network, set: &[NodeId]) -> (Vec<Option<Color>>, Vec<Vec<u32>>) {
    with_planner(|p| {
        p.gather(net, set);
        let forbidden = p
            .forbidden
            .chunks(p.words)
            .map(|mask| {
                (0..mask.len() * 64)
                    .filter(|&k| mask[k / 64] & (1 << (k % 64)) != 0)
                    .map(|k| k as u32)
                    .collect()
            })
            .collect();
        (p.old.clone(), forbidden)
    })
}

/// The matching core of Fig 3 / Fig 8, steps 3–5: given each set
/// member's old color and (sorted, deduplicated) external forbidden
/// colors, plan the new colors.
///
/// `max` is the largest color among old colors and constraints; the
/// bipartite instance matches members against colors `1..=max` with
/// weight `keep_weight` on keep-edges and 1 elsewhere; unmatched
/// members take fresh colors `max+1, max+2, …` in set order (the paper
/// assigns them "randomly"; a deterministic order is an equally valid
/// tie-break and keeps runs reproducible).
///
/// A list-shaped entry to [`RecodePlanner`]'s solve. This function is
/// pure — the distributed joiner (`minim-proto`) runs it on
/// message-reconstructed inputs and necessarily computes the same plan
/// as the centralized strategy.
///
/// ```
/// use minim_core::{plan_recode, KEEP_WEIGHT};
/// use minim_graph::Color;
/// // Two members share old color 1; a joiner (None) is barred from 1.
/// let old = vec![Some(Color::new(1)), Some(Color::new(1)), None];
/// let forbidden = vec![vec![], vec![], vec![1]];
/// let plan = plan_recode(&old, &forbidden, KEEP_WEIGHT);
/// // Exactly one member keeps color 1 (Thm 4.1.8) and all three
/// // colors are pairwise distinct.
/// let keeps = plan.iter().filter(|&&c| c == Color::new(1)).count();
/// assert_eq!(keeps, 1);
/// ```
pub fn plan_recode(old: &[Option<Color>], forbidden: &[Vec<u32>], keep_weight: i64) -> Vec<Color> {
    assert_eq!(old.len(), forbidden.len(), "parallel input arrays");
    with_planner(|p| {
        p.load(old, forbidden);
        p.solve(keep_weight);
        p.colors.clone()
    })
}

impl RecodingStrategy for Minim {
    fn name(&self) -> &'static str {
        "Minim"
    }

    fn plan_batched(
        &self,
        net: &Network,
        applied: &AppliedEvent,
        delta: &TopologyDelta,
    ) -> ColorPlan {
        match *applied {
            // `RecodeOnJoin` (Fig 3) and `RecodeOnMove` (Fig 8): the
            // mover still holds an old color, and its keep-edge weighs
            // `keep_weight` like everyone else's.
            AppliedEvent::Joined(_) | AppliedEvent::Moved(_) => self.plan_matching(net, delta),
            // `RecodeDecreasePowOrLeave`: a leave removes constraints
            // only, so nothing is ever recoded (§4.3).
            AppliedEvent::Left(_) => Vec::new(),
            // `RecodeOnPowIncrease` (Fig 5); passive for decreases.
            AppliedEvent::RangeChanged(id, dir) => self.plan_range(net, id, dir, delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounds, commit_plan};
    use minim_geom::{sample, Point, Rect};
    use minim_graph::NodeId;
    use minim_net::workload::JoinWorkload;
    use minim_net::{network_from_configs, Network, NodeConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn c(i: u32) -> Color {
        Color::new(i)
    }

    /// Builds a random network with Minim handling every join, so the
    /// assignment is always valid. Returns (net, rng).
    fn random_net(count: usize, seed: u64) -> (Network, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(25.0);
        let mut minim = Minim::default();
        for e in JoinWorkload::paper(count).generate(&mut rng) {
            minim.apply(&mut net, &e);
        }
        assert!(net.validate().is_ok());
        (net, rng)
    }

    #[test]
    fn first_join_gets_color_one() {
        let mut net = Network::new(10.0);
        let mut m = Minim::default();
        let id = net.next_id();
        let out = m.on_join(&mut net, id, NodeConfig::new(Point::new(0.0, 0.0), 5.0));
        assert_eq!(out.recoded, vec![(id, None, c(1))]);
        assert_eq!(net.assignment().get(id), Some(c(1)));
    }

    #[test]
    fn join_reuses_colors_when_possible() {
        // Chain: 0 <-> 1 <-> 2 far apart pairwise except adjacency.
        let mut net = Network::new(10.0);
        let mut m = Minim::default();
        for (i, x) in [0.0, 6.0, 12.0].iter().enumerate() {
            let id = net.next_id();
            m.on_join(&mut net, id, NodeConfig::new(Point::new(*x, 0.0), 7.0));
            let _ = i;
        }
        // 0 and 2 conflict via common receiver 1 (both reach it), so we
        // need 3 colors for the chain; max must be exactly 3.
        assert!(net.validate().is_ok());
        assert_eq!(net.max_color_index(), 3);
    }

    #[test]
    fn join_attains_minimal_bound_on_random_networks() {
        for seed in 0..20 {
            let (mut net, mut rng) = random_net(30, seed);
            let m = Minim::default();
            // One more join; check the outcome against the bound.
            let arena = Rect::paper_arena();
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                sample::uniform_range(&mut rng, 20.5, 30.5),
            );
            let id = net.next_id();
            net.insert_node(id, cfg);
            let bound = bounds::minimal_bound_join(&net, id);
            // Re-run the recode on the already-inserted topology.
            let plan = m.plan_matching(&net, net.delta());
            let out = commit_plan(&mut net, &plan);
            assert_eq!(
                out.recodings(),
                bound,
                "seed {seed}: Minim must attain the minimal bound exactly"
            );
            assert!(net.validate().is_ok());
        }
    }

    #[test]
    fn move_attains_minimal_bound_on_random_networks() {
        for seed in 100..115 {
            let (mut net, mut rng) = random_net(25, seed);
            let m = Minim::default();
            let ids = net.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let to = sample::random_move(
                &mut rng,
                net.config(victim).unwrap().pos,
                40.0,
                &Rect::paper_arena(),
            );
            net.move_node(victim, to);
            let bound = bounds::minimal_bound_move(&net, victim);
            let plan = m.plan_matching(&net, net.delta());
            let out = commit_plan(&mut net, &plan);
            assert_eq!(
                out.recodings(),
                bound,
                "seed {seed}: RecodeOnMove must attain the minimal move bound"
            );
            assert!(net.validate().is_ok());
        }
    }

    #[test]
    fn power_increase_recodes_at_most_the_initiator() {
        for seed in 200..215 {
            let (mut net, mut rng) = random_net(25, seed);
            let mut m = Minim::default();
            let ids = net.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let old_range = net.config(victim).unwrap().range;
            let before = net.snapshot_assignment();
            let out = m.on_set_range(&mut net, victim, old_range * 3.0);
            assert!(out.recodings() <= 1, "seed {seed}");
            for &(node, _, _) in &out.recoded {
                assert_eq!(node, victim, "only the initiator may be recoded");
            }
            // And it matches the exact lower bound.
            let mut check = net.clone();
            check.assignment_mut().clone_from(&before);
            // bound computed on post-topology, pre-recode state:
            let bound = bounds::minimal_bound_pow_increase(&check, victim);
            assert_eq!(out.recodings(), bound, "seed {seed}");
            assert!(net.validate().is_ok());
        }
    }

    #[test]
    fn power_decrease_and_leave_are_passive() {
        let (mut net, mut rng) = random_net(25, 999);
        let mut m = Minim::default();
        let ids = net.node_ids();
        let a = ids[rng.gen_range(0..ids.len())];
        let old_range = net.config(a).unwrap().range;
        let out = m.on_set_range(&mut net, a, old_range * 0.5);
        assert_eq!(out.recodings(), 0, "power decrease is free");
        assert!(net.validate().is_ok());
        let b = ids[0];
        let out = m.on_leave(&mut net, b);
        assert_eq!(out.recodings(), 0, "leave is free");
        assert!(net.validate().is_ok());
    }

    #[test]
    fn unchanged_range_is_a_noop() {
        let (mut net, _) = random_net(10, 31);
        let mut m = Minim::default();
        let a = net.node_ids()[0];
        let r = net.config(a).unwrap().range;
        let out = m.on_set_range(&mut net, a, r);
        assert_eq!(out.recodings(), 0);
    }

    /// Theorem 4.4.1: `RecodeOnMove(n)` is exactly
    /// `RecodeDecreasePowOrLeave(n)` at the old position followed by
    /// `RecodeOnJoin(n)` at the new one — "were the moving node n to
    /// leave the network and then join it immediately, this would be
    /// the exact sequence of steps executed" (§4.4). "Immediately"
    /// implies the rejoiner's old color is still known (Fig 8's step 4
    /// weighs it 3); with that color restored before the join's
    /// matching, the two paths run on identical instances and must
    /// produce identical assignments.
    #[test]
    fn move_equals_leave_plus_immediate_join() {
        for seed in 300..312 {
            let (net0, mut rng) = random_net(20, seed);
            let ids = net0.node_ids();
            let victim = ids[rng.gen_range(0..ids.len())];
            let cfg = net0.config(victim).unwrap();
            let old_color = net0.assignment().get(victim);
            let to = sample::random_move(&mut rng, cfg.pos, 40.0, &Rect::paper_arena());

            // Path A: RecodeOnMove.
            let mut net_a = net0.clone();
            let mut m = Minim::default();
            m.on_move(&mut net_a, victim, to);
            assert!(net_a.validate().is_ok());

            // Path B: leave, then immediately rejoin at the same id
            // with the old color remembered.
            let mut net_b = net0.clone();
            m.on_leave(&mut net_b, victim);
            net_b.insert_node(victim, NodeConfig::new(to, cfg.range));
            if let Some(c) = old_color {
                net_b.assignment_mut().set(victim, c);
            }
            let plan = m.plan_matching(&net_b, net_b.delta());
            commit_plan(&mut net_b, &plan);
            assert!(net_b.validate().is_ok());

            assert_eq!(
                net_a.snapshot_assignment(),
                net_b.snapshot_assignment(),
                "seed {seed}: move and leave+immediate-join must coincide"
            );
        }
    }

    #[test]
    fn long_event_mix_preserves_validity_and_bounds() {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut net = Network::new(25.0);
        let mut m = Minim::default();
        let arena = Rect::paper_arena();
        for step in 0..300 {
            let roll: f64 = rng.gen();
            if net.node_count() < 5 || roll < 0.4 {
                let cfg = NodeConfig::new(
                    sample::uniform_point(&mut rng, &arena),
                    sample::uniform_range(&mut rng, 15.0, 30.0),
                );
                let id = net.next_id();
                m.on_join(&mut net, id, cfg);
            } else {
                let ids = net.node_ids();
                let victim = ids[rng.gen_range(0..ids.len())];
                if roll < 0.55 {
                    m.on_leave(&mut net, victim);
                } else if roll < 0.75 {
                    let to = sample::random_move(
                        &mut rng,
                        net.config(victim).unwrap().pos,
                        30.0,
                        &arena,
                    );
                    m.on_move(&mut net, victim, to);
                } else {
                    let r = net.config(victim).unwrap().range;
                    let factor = rng.gen_range(0.5..2.0);
                    m.on_set_range(&mut net, victim, r * factor);
                }
            }
            assert!(
                net.validate().is_ok(),
                "step {step} invalidated the network"
            );
        }
        net.check_topology();
    }

    #[test]
    fn keep_weight_one_still_valid_but_recodes_more() {
        // Ablation sanity: weight-blind matching stays correct but
        // loses the minimality guarantee. Aggregate over several
        // networks; blind must never beat weighted.
        let mut total_w = 0usize;
        let mut total_b = 0usize;
        for seed in 500..520 {
            let (net0, mut rng) = random_net(30, seed);
            let arena = Rect::paper_arena();
            let cfg = NodeConfig::new(
                sample::uniform_point(&mut rng, &arena),
                sample::uniform_range(&mut rng, 20.5, 30.5),
            );
            let mut net_w = net0.clone();
            let mut weighted = Minim::default();
            let id = net_w.next_id();
            total_w += weighted.on_join(&mut net_w, id, cfg).recodings();

            let mut net_b = net0.clone();
            let mut blind = Minim::with_keep_weight(1);
            let id = net_b.next_id();
            total_b += blind.on_join(&mut net_b, id, cfg).recodings();
            assert!(net_b.validate().is_ok());
        }
        assert!(
            total_w <= total_b,
            "weighted ({total_w}) must recode no more than blind ({total_b})"
        );
    }

    mod plan_recode_properties {
        use super::super::plan_recode;
        use minim_graph::Color;
        use proptest::prelude::*;

        /// Random well-formed instances: every member's old color (if
        /// any) avoids its own forbidden set — the shape real events
        /// produce (Lemma 4.1.6).
        fn instances() -> impl Strategy<Value = (Vec<Option<Color>>, Vec<Vec<u32>>)> {
            proptest::collection::vec(
                (
                    proptest::option::weighted(0.8, 1u32..6),
                    proptest::collection::btree_set(1u32..8, 0..5),
                ),
                1..7,
            )
            .prop_map(|raw| {
                let mut old = Vec::new();
                let mut forbidden = Vec::new();
                for (o, f) in raw {
                    let f: Vec<u32> = f
                        .into_iter()
                        .filter(|&c| Some(c) != o) // keep olds consistent
                        .collect();
                    old.push(o.map(Color::new));
                    forbidden.push(f);
                }
                (old, forbidden)
            })
        }

        proptest! {
            /// The plan is always proper: pairwise-distinct colors,
            /// none forbidden.
            #[test]
            fn plan_is_proper((old, forbidden) in instances()) {
                let plan = plan_recode(&old, &forbidden, 3);
                prop_assert_eq!(plan.len(), old.len());
                let mut seen = std::collections::HashSet::new();
                for (i, c) in plan.iter().enumerate() {
                    prop_assert!(seen.insert(*c), "duplicate color in plan");
                    prop_assert!(
                        forbidden[i].binary_search(&c.index()).is_err(),
                        "forbidden color assigned"
                    );
                }
            }

            /// Theorem 4.1.8 at the kernel level: the number of members
            /// keeping their old color equals the number of distinct
            /// old colors (every retainable class retains exactly one
            /// member).
            #[test]
            fn plan_keeps_one_per_class((old, forbidden) in instances()) {
                let plan = plan_recode(&old, &forbidden, 3);
                let keeps = plan
                    .iter()
                    .zip(&old)
                    .filter(|(p, o)| Some(**p) == **o)
                    .count();
                let mut classes: Vec<u32> =
                    old.iter().flatten().map(|c| c.index()).collect();
                classes.sort_unstable();
                classes.dedup();
                prop_assert_eq!(keeps, classes.len());
            }

            /// Fresh colors (beyond the instance max) are consecutive —
            /// the Thm 4.1.9 tail structure.
            #[test]
            fn plan_fresh_tail_is_consecutive((old, forbidden) in instances()) {
                let mut max = 0u32;
                for c in old.iter().flatten() {
                    max = max.max(c.index());
                }
                for f in &forbidden {
                    max = max.max(f.last().copied().unwrap_or(0));
                }
                let plan = plan_recode(&old, &forbidden, 3);
                let mut fresh: Vec<u32> = plan
                    .iter()
                    .map(|c| c.index())
                    .filter(|&c| c > max)
                    .collect();
                fresh.sort_unstable();
                for w in fresh.windows(2) {
                    prop_assert_eq!(w[1], w[0] + 1);
                }
                if let Some(&first) = fresh.first() {
                    prop_assert_eq!(first, max + 1);
                }
            }

            /// Any keep weight strictly above 2 yields the same
            /// recoding count: the swap argument nets `w − 2 > 0`, so
            /// every maximum-weight matching keeps one member per
            /// class. (Weight 2 is NOT in this family — see
            /// `keep_weight_two_can_tie_away_minimality` below, which
            /// is why the paper fixes 3 as the *smallest* safe integer.)
            #[test]
            fn all_safe_keep_weights_agree_on_counts((old, forbidden) in instances()) {
                let count = |plan: &[Color]| {
                    plan.iter()
                        .zip(&old)
                        .filter(|(p, o)| Some(**p) != **o)
                        .count()
                };
                let w3 = count(&plan_recode(&old, &forbidden, 3));
                let w5 = count(&plan_recode(&old, &forbidden, 5));
                let w9 = count(&plan_recode(&old, &forbidden, 9));
                prop_assert_eq!(w3, w5);
                prop_assert_eq!(w3, w9);
            }
        }
    }

    /// Found by the property suite: with keep weight 2, dropping a
    /// keep-edge (−2) to rescue two unit matches (+1 +1) is weight-
    /// *neutral*, so a maximum-weight matching may legally shuffle a
    /// keeper and exceed the minimal recoding count. Weight 3 makes
    /// the swap strictly losing — the paper's choice is the smallest
    /// safe integer, and this instance is the witness.
    #[test]
    fn keep_weight_two_can_tie_away_minimality() {
        use minim_graph::Color;
        let c = Color::new;
        // Keepers hold 4, 2, 5; two joiners need colors, one barred
        // from {1, 3}. The only way to match both joiners ≤ max is to
        // evict the color-5 keeper — a tie at weight 2, a loss at 3.
        let old = vec![Some(c(4)), Some(c(2)), None, None, Some(c(5))];
        let forbidden = vec![vec![], vec![], vec![1, 3], vec![], vec![]];
        let count = |plan: &[Color]| {
            plan.iter()
                .zip(&old)
                .filter(|(p, o)| Some(**p) != **o)
                .count()
        };
        let w3 = count(&plan_recode(&old, &forbidden, 3));
        assert_eq!(w3, 2, "weight 3 keeps all three keepers");
        let w2 = count(&plan_recode(&old, &forbidden, 2));
        assert!(w2 >= w3, "weight 2 may tie-break into extra recodings");
    }

    #[test]
    fn join_with_no_neighbors_is_cheap() {
        let mut net = network_from_configs(10.0, &[(Point::new(0.0, 0.0), 3.0)]);
        net.set_color(n(0), c(1));
        let mut m = Minim::default();
        // A joiner out of everyone's range: gets color 1 (no
        // constraints), network stays valid.
        let id = net.next_id();
        let out = m.on_join(&mut net, id, NodeConfig::new(Point::new(50.0, 50.0), 3.0));
        assert_eq!(out.recoded, vec![(id, None, c(1))]);
        assert!(net.validate().is_ok());
    }
}
