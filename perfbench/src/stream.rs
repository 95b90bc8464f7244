//! Seeded event streams, generated before any timing against a ghost
//! network (topology only, no recoding), as the workspace's own
//! benches do. The program under test sees only the generated events.

use minim_geom::{sample, Point, Rect};
use minim_net::event::{apply_topology, Event};
use minim_net::workload::{MixWorkload, Placement, RangeDist};
use minim_net::{Network, NodeConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Joins in the `dense-serve` base network.
pub const DENSE_BASE: usize = 400;
/// Joins in the metropolis base network (`metro-serve`, `power-churn`).
pub const METRO_BASE: usize = 4_000;
/// Side of the metropolis arena.
pub const METRO_SIDE: f64 = 4_000.0;
/// Poisson hot spots of the metropolis deployment.
pub const METRO_HOTSPOTS: usize = 40;
/// Per-axis gaussian spread of members around a hot spot.
pub const METRO_SPREAD: f64 = 25.0;
/// Seed of the metropolis map (the hot-spot positions). The map is the
/// same for every run, so density does not swing with `--seed`; the
/// members, their ranges and the churn come from `--seed`.
pub const METRO_MAP_SEED: u64 = 0x004D_4554_524F;

/// A base network (built during set-up) and the measured churn after it.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Joins that build the base network.
    pub base: Vec<Event>,
    /// The measured phase's exogenous events, valid in order after
    /// `base`.
    pub churn: Vec<Event>,
}

/// One block of churn kinds: join 0.3, leave 0.3, move 0.4. Each block
/// is shuffled, so the mix holds exactly while the population stays
/// within three nodes of the base instead of drifting as a random walk
/// (which would make per-event cost depend on the seed's drift).
const BLOCK: [Kind; 10] = [
    Kind::Join,
    Kind::Join,
    Kind::Join,
    Kind::Leave,
    Kind::Leave,
    Kind::Leave,
    Kind::Move,
    Kind::Move,
    Kind::Move,
    Kind::Move,
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Join,
    Leave,
    Move,
}

fn generate(
    base_joins: usize,
    placement: Placement,
    maxdisp: f64,
    churn: usize,
    rng: &mut StdRng,
) -> Stream {
    let ranges = RangeDist::paper();
    let base: Vec<Event> = (0..base_joins)
        .map(|_| Event::Join {
            cfg: NodeConfig::new(placement.sample(rng), ranges.sample(rng)),
        })
        .collect();
    let mut ghost = Network::new(25.0);
    for e in &base {
        apply_topology(&mut ghost, e);
    }
    // The workspace's own generator, pinned to one kind per draw.
    let only = |join_prob, leave_prob| MixWorkload {
        steps: churn,
        join_prob,
        leave_prob,
        maxdisp,
        placement: placement.clone(),
        ranges,
    };
    let (joins, leaves, moves) = (only(1.0, 0.0), only(0.0, 1.0), only(0.0, 0.0));
    let mut block = BLOCK;
    let mut events = Vec::with_capacity(churn);
    while events.len() < churn {
        block.shuffle(rng);
        for kind in block.iter().take(churn - events.len()) {
            let workload = match kind {
                Kind::Join => &joins,
                Kind::Leave => &leaves,
                Kind::Move => &moves,
            };
            let e = workload.next_event(&ghost, rng);
            apply_topology(&mut ghost, &e);
            events.push(e);
        }
    }
    Stream {
        base,
        churn: events,
    }
}

/// `dense-serve`: the paper arena and ranges, uniform placement, a
/// base of [`DENSE_BASE`] joins, then churn (join 0.3, leave 0.3,
/// move 0.4, `maxdisp` 60).
pub fn dense(seed: u64, churn: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed);
    let arena = Rect::paper_arena();
    generate(
        DENSE_BASE,
        Placement::Uniform { arena },
        60.0,
        churn,
        &mut rng,
    )
}

/// The metropolis deployment: a [`METRO_SIDE`]² arena with
/// [`METRO_HOTSPOTS`] uniformly placed hot spots (from
/// [`METRO_MAP_SEED`]) and members scattered around them with spread
/// [`METRO_SPREAD`] (the Poisson-clustered model). `maxdisp` is 60 for
/// `metro-serve` and 25 for `power-churn`.
pub fn metro(seed: u64, churn: usize, maxdisp: f64) -> Stream {
    let arena = Rect::new(0.0, 0.0, METRO_SIDE, METRO_SIDE);
    let mut map = StdRng::seed_from_u64(METRO_MAP_SEED);
    let centers: Vec<Point> = (0..METRO_HOTSPOTS)
        .map(|_| sample::uniform_point(&mut map, &arena))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    generate(
        METRO_BASE,
        Placement::Clustered {
            centers,
            spread: METRO_SPREAD,
            arena,
        },
        maxdisp,
        churn,
        &mut rng,
    )
}
