//! Planner equivalence — the recode planner's bitmask gather and dense
//! Hungarian kernel against the list-and-`WeightedBipartite` pipeline
//! they replaced, which this file keeps as the reference.
//!
//! 1. **Kernel.** `plan_recode` (dense kernel) against the reference
//!    plan (`max_weight_matching` over a `WeightedBipartite`) on random
//!    instances: up to 80 members and 250 colors, forbidden density
//!    0–0.9, up to half the members uncolored, keep weights
//!    {1, 2, 3, 5}, plus the weight-2 tie witness.
//! 2. **Gather.** `gather_recode_inputs` (stamped bitmask walk) against
//!    the per-member `conflicts_of_into` reference, and Minim's whole
//!    join/move plan against the reference planner, on live networks:
//!    the 400-node paper arena under churn, metropolis-style hot spots,
//!    obstacles, and co-located nodes.
//!
//! Plans must be equal element for element, not merely equally good.
//! The release build runs more cases (CI runs this file in release).

use minim::core::{gather_recode_inputs, plan_recode, Minim, RecodingStrategy, KEEP_WEIGHT};
use minim::geom::{sample, Point, Rect, Segment};
use minim::graph::{conflict, Color, NodeId};
use minim::matching::{max_weight_matching, WeightedBipartite};
use minim::net::event::{apply_topology_delta, AppliedEvent, Event};
use minim::net::workload::{MixWorkload, Placement, RangeDist};
use minim::net::{Network, NodeConfig, TopologyDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per check: the release build (CI) runs the full count.
fn cases(release: usize) -> usize {
    if cfg!(debug_assertions) {
        release / 8
    } else {
        release
    }
}

// ---------------------------------------------------------------------
// The reference pipeline: sorted lists, a sparse bipartite graph, and
// the oracle Hungarian solver.
// ---------------------------------------------------------------------

/// Steps 1–2 as one `conflicts_of_into` call per member.
fn reference_gather(net: &Network, set: &[NodeId]) -> (Vec<Option<Color>>, Vec<Vec<u32>>) {
    let mut old = Vec::new();
    let mut forbidden = Vec::new();
    let mut partners = Vec::new();
    for &u in set {
        old.push(net.assignment().get(u));
        conflict::conflicts_of_into(net.graph(), u, &mut partners);
        let mut ext: Vec<u32> = partners
            .iter()
            .filter(|p| set.binary_search(p).is_err())
            .filter_map(|&p| net.assignment().get(p))
            .map(|c| c.index())
            .collect();
        ext.sort_unstable();
        ext.dedup();
        forbidden.push(ext);
    }
    (old, forbidden)
}

/// Steps 3–5: the all-keep fast path, else `max_weight_matching`.
fn reference_plan(old: &[Option<Color>], forbidden: &[Vec<u32>], keep_weight: i64) -> Vec<Color> {
    if keep_weight > 1 {
        let mut kept: Vec<u32> = old.iter().flatten().map(|c| c.index()).collect();
        kept.sort_unstable();
        let distinct = kept.windows(2).all(|w| w[0] != w[1]);
        let nones = old.iter().filter(|o| o.is_none()).count();
        let consistent = old
            .iter()
            .zip(forbidden)
            .all(|(o, f)| o.is_none_or(|c| f.binary_search(&c.index()).is_err()));
        if distinct && nones <= 1 && consistent {
            return old
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    o.unwrap_or_else(|| {
                        Color::lowest_excluding(
                            kept.iter().chain(&forbidden[i]).map(|&k| Color::new(k)),
                        )
                    })
                })
                .collect();
        }
    }
    let max = old
        .iter()
        .flatten()
        .map(|c| c.index())
        .chain(forbidden.iter().flatten().copied())
        .max()
        .unwrap_or(0);
    let mut bg = WeightedBipartite::new(old.len(), max as usize);
    for i in 0..old.len() {
        for k in 1..=max {
            if forbidden[i].binary_search(&k).is_err() {
                let w = if old[i] == Some(Color::new(k)) {
                    keep_weight
                } else {
                    1
                };
                bg.add_edge(i, (k - 1) as usize, w);
            }
        }
    }
    let matching = max_weight_matching(&bg);
    let mut fresh = max;
    matching
        .pairs
        .iter()
        .map(|pair| match *pair {
            Some(r) => Color::new(r as u32 + 1),
            None => {
                fresh += 1;
                Color::new(fresh)
            }
        })
        .collect()
}

/// Minim's join/move plan through the reference pipeline, with the
/// `constraint_colors` fast path it used.
fn reference_minim_plan(net: &Network, delta: &TopologyDelta) -> Vec<(NodeId, Color)> {
    let n = delta.node();
    let set = delta.recode_set();
    let mut set_colors: Vec<Color> = set
        .iter()
        .filter_map(|&u| net.assignment().get(u))
        .collect();
    set_colors.sort_unstable();
    if set_colors.windows(2).all(|w| w[0] != w[1]) {
        let constraints = conflict::constraint_colors(net.graph(), net.assignment(), n);
        match net.assignment().get(n) {
            Some(c) if constraints.binary_search(&c).is_err() => return Vec::new(),
            Some(_) => {}
            None => return vec![(n, Color::lowest_excluding_sorted(&constraints))],
        }
    }
    let (old, forbidden) = reference_gather(net, &set);
    set.into_iter()
        .zip(reference_plan(&old, &forbidden, KEEP_WEIGHT))
        .collect()
}

// ---------------------------------------------------------------------
// Part 1: the kernel on random instances.
// ---------------------------------------------------------------------

/// A random planner instance. Old colors come from a narrow range (so
/// classes collide) or are pairwise distinct (so the fast path is
/// reachable); a member's own old color is usually, not always,
/// outside its forbidden set.
fn random_instance(rng: &mut StdRng) -> (Vec<Option<Color>>, Vec<Vec<u32>>) {
    let members = rng.gen_range(1..=80usize);
    let colors = rng.gen_range(1..=250u32);
    let density = rng.gen_range(0.0..0.9);
    let uncolored = rng.gen_range(0.0..0.5);
    let distinct = rng.gen_bool(0.3) && members as u32 <= colors;
    let mut palette: Vec<u32> = (1..=colors).collect();
    for i in (1..palette.len()).rev() {
        palette.swap(i, rng.gen_range(0..=i));
    }
    let narrow = rng.gen_range(1..=colors);
    let mut old = Vec::with_capacity(members);
    let mut forbidden = Vec::with_capacity(members);
    for &spare in palette.iter().cycle().take(members) {
        let o = if rng.gen_bool(uncolored) {
            None
        } else if distinct {
            Some(spare)
        } else {
            Some(rng.gen_range(1..=narrow))
        };
        let f: Vec<u32> = (1..=colors)
            .filter(|&k| rng.gen_bool(density) && (Some(k) != o || rng.gen_bool(0.1)))
            .collect();
        old.push(o.map(Color::new));
        forbidden.push(f);
    }
    (old, forbidden)
}

#[test]
fn dense_kernel_plans_equal_the_oracle_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(0x91a7);
    // Instances with a shared old color always reach the matching.
    let mut shared = 0;
    for case in 0..cases(400) {
        let (old, forbidden) = random_instance(&mut rng);
        for keep_weight in [1, 2, 3, 5] {
            let want = reference_plan(&old, &forbidden, keep_weight);
            let got = plan_recode(&old, &forbidden, keep_weight);
            assert_eq!(
                got,
                want,
                "case {case}, keep weight {keep_weight}: {} members",
                old.len()
            );
        }
        let mut kept: Vec<Color> = old.iter().flatten().copied().collect();
        kept.sort_unstable();
        shared += usize::from(kept.windows(2).any(|w| w[0] == w[1]));
    }
    assert!(shared > cases(400) / 4, "{shared} instances share a color");
}

/// The `keep_weight_two_can_tie_away_minimality` witness: weight 2
/// makes evicting a keeper a tie, so the tie-break decides the plan —
/// exactly what a second solver would move.
#[test]
fn weight_two_tie_witness_keeps_the_oracle_tie_break() {
    let c = Color::new;
    let old = vec![Some(c(4)), Some(c(2)), None, None, Some(c(5))];
    let forbidden = vec![vec![], vec![], vec![1, 3], vec![], vec![]];
    for keep_weight in [1, 2, 3, 5] {
        assert_eq!(
            plan_recode(&old, &forbidden, keep_weight),
            reference_plan(&old, &forbidden, keep_weight),
            "keep weight {keep_weight}"
        );
    }
}

// ---------------------------------------------------------------------
// Part 2: the gather on live networks.
// ---------------------------------------------------------------------

/// Runs `events` through Minim. For every join and move after the
/// first `skip` events, checks the gather and the whole plan against
/// the reference before committing. Returns (plans checked, plans
/// that reached the matching).
fn check_stream(net: &mut Network, events: &[Event], skip: usize) -> (usize, usize) {
    let minim = Minim::default();
    let (mut checked, mut matched) = (0, 0);
    for (i, event) in events.iter().enumerate() {
        let (applied, delta) = apply_topology_delta(net, event, None);
        let plan = minim.plan_batched(net, &applied, &delta);
        if i >= skip && matches!(applied, AppliedEvent::Joined(_) | AppliedEvent::Moved(_)) {
            let set = delta.recode_set();
            assert_eq!(
                gather_recode_inputs(net, &set),
                reference_gather(net, &set),
                "event {i} ({event:?}): gather"
            );
            assert_eq!(
                plan,
                reference_minim_plan(net, &delta),
                "event {i} ({event:?}): plan"
            );
            checked += 1;
            matched += usize::from(plan.len() > 1);
        }
        minim::core::commit_plan(net, &plan);
    }
    assert!(net.validate().is_ok());
    (checked, matched)
}

/// A base of `base` joins from `placement`, then churn (join 0.3,
/// leave 0.3, move 0.4), generated against a ghost network.
fn mix_stream(
    seed: u64,
    placement: Placement,
    base: usize,
    churn: usize,
    maxdisp: f64,
) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ranges = RangeDist::paper();
    let mut events: Vec<Event> = (0..base)
        .map(|_| Event::Join {
            cfg: NodeConfig::new(placement.sample(&mut rng), ranges.sample(&mut rng)),
        })
        .collect();
    let mut ghost = Network::new(25.0);
    let mut minim = Minim::default();
    for e in &events {
        minim.apply(&mut ghost, e);
    }
    let mix = MixWorkload {
        steps: churn,
        join_prob: 0.3,
        leave_prob: 0.3,
        maxdisp,
        placement,
        ranges,
    };
    for _ in 0..churn {
        let e = mix.next_event(&ghost, &mut rng);
        minim.apply(&mut ghost, &e);
        events.push(e);
    }
    events
}

#[test]
fn gather_matches_reference_on_the_paper_arena_under_churn() {
    let churn = cases(160);
    let placement = Placement::Uniform {
        arena: Rect::paper_arena(),
    };
    let events = mix_stream(11, placement, 400, churn, 60.0);
    let mut net = Network::new(25.0);
    let (checked, matched) = check_stream(&mut net, &events, 400);
    assert!(checked > churn / 2, "checked {checked} plans");
    assert!(matched > 0, "the dense arena must reach the matching");
}

#[test]
fn gather_matches_reference_on_metropolis_hot_spots() {
    let arena = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut map = StdRng::seed_from_u64(5);
    let centers = (0..6)
        .map(|_| sample::uniform_point(&mut map, &arena))
        .collect();
    let placement = Placement::Clustered {
        centers,
        spread: 25.0,
        arena,
    };
    let base = cases(480).max(120);
    let events = mix_stream(12, placement, base, cases(160), 60.0);
    let mut net = Network::new(25.0);
    let (checked, matched) = check_stream(&mut net, &events, 0);
    assert!(checked > base, "checked {checked} plans");
    assert!(matched > 0, "hot spots must reach the matching");
}

#[test]
fn gather_matches_reference_behind_obstacles() {
    let placement = Placement::Uniform {
        arena: Rect::paper_arena(),
    };
    let events = mix_stream(13, placement, cases(240).max(60), cases(160), 40.0);
    let mut net = Network::new(25.0);
    for k in 0..5 {
        let x = 10.0 + 20.0 * f64::from(k);
        net.add_obstacle(Segment::new(Point::new(x, 0.0), Point::new(x, 70.0)));
    }
    let (checked, _) = check_stream(&mut net, &events, 0);
    assert!(checked > 0);
}

/// Co-located nodes: every in-neighbor of one is an in-neighbor of its
/// twins, so receivers are shared across the whole set.
#[test]
fn gather_matches_reference_with_co_located_nodes() {
    let mut rng = StdRng::seed_from_u64(14);
    let spots: Vec<Point> = (0..8)
        .map(|_| sample::uniform_point(&mut rng, &Rect::paper_arena()))
        .collect();
    let mut events = Vec::new();
    for i in 0..cases(320).max(80) {
        let pos = spots[i % spots.len()];
        let range = sample::uniform_range(&mut rng, 20.5, 30.5);
        events.push(Event::Join {
            cfg: NodeConfig::new(pos, range),
        });
        if i % 5 == 4 {
            // Move an earlier twin onto another spot.
            events.push(Event::Move {
                node: NodeId((i / 2) as u32),
                to: spots[(i + 3) % spots.len()],
            });
        }
    }
    let mut net = Network::new(25.0);
    let (checked, matched) = check_stream(&mut net, &events, 0);
    assert!(checked > 0);
    assert!(matched > 0, "co-located twins must reach the matching");
}
