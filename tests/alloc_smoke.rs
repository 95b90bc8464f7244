//! Allocation-count smoke check for the rewire path.
//!
//! Phase 1: once warm, the topology step that every event takes —
//! `apply_topology` on moves, a tier-crossing range cycle, and a leave
//! plus a rejoin at the old id — performs **zero heap allocations**,
//! with nothing handed back by the caller. The network refills its one
//! `TopologyDelta` in place (its neighbor lists double as the rewire's
//! candidate buffers); with the capacity-retaining `DiGraph` adjacency
//! slots and the stratified grid's slab storage, every steady-state
//! event is a pure pointer-chasing affair.
//!
//! Phases 2 and 3 extend the contract to the incremental SINR engine: a warm
//! [`PowerSession`] patching its interference field per move / leave /
//! rejoin and re-settling the active-set power loop from the previous
//! equilibrium must also be allocation-free — the CSR row pools, the
//! transposed hearers/aimers indexes, the relaxation worklist, and the
//! emitted-event buffer all recycle their storage. A discrete-ladder
//! session, which settles cold every time, is pinned the same way.
//!
//! PR 10 threads `minim-obs` instrumentation through all of these
//! paths. The registry records by default, so every phase below pins
//! its zero with metrics **live** — counters, gauges, histograms, and
//! span rings must recycle like everything else. Phase 4 adds the
//! serve engine: its apply path allocates (the strategy's outcome,
//! `MemFs` growth, snapshot rotation), so its pin is differential — an identical workload costs exactly the same
//! allocation count with observability recording as with it disabled.
//!
//! Phase 5 pins the recode planner (Minim's join/move plan, Fig 3 /
//! Fig 8): a warm `RecodePlanner` gathering constraint masks and
//! solving the matching on a dense arena reuses all of its scratch.
//! Phase 6 pins the journal record encoder: an event and its
//! color writes encode into a reused frame buffer, as `Engine::apply`
//! does, with no allocation.
//!
//! Phase 7 pins snapshot restore. `decode_snapshot` builds the
//! network in one pass that sizes every adjacency list once, so its
//! allocation count is bounded per node and does not grow with degree.
//!
//! Phase 8 pins the power corrections that move no edge, run the way a
//! power session's corrections are: through `run_events_validated` in
//! delta mode on a Minim-colored network. A grow below the node's clear
//! bound skips the index, and a shrink that keeps every neighbor only
//! filters; neither adds an edge or recodes, so a release build skips
//! their validation too, and a warm correction allocates nothing.
//!
//! The check uses a counting global allocator (this integration test
//! is its own binary, so the allocator sees only this file's tests;
//! keep it to ONE `#[test]` so no concurrent test thread can bleed
//! allocations into the measurement window).

use minim_core::{Minim, RecodePlanner, RecodingStrategy, StrategyKind, KEEP_WEIGHT};
use minim_geom::{Point, Segment};
use minim_graph::{Color, NodeId};
use minim_net::event::{apply_topology, apply_topology_pinned, Event};
use minim_net::{Network, NodeConfig};
use minim_power::{PowerLadder, PowerLoopConfig, PowerSession};
use minim_serve::codec::{decode_snapshot, encode_record, encode_snapshot};
use minim_serve::journal::FRAME_HEADER;
use minim_serve::{seal_frame, Engine, EngineOptions, MemFs};
use minim_sim::runner::{run_events_validated, ValidationMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// One steady-state event cycle through the topology step: a mover
/// oscillating across cells (its neighborhood genuinely changes), a
/// power cycler crossing a range tier boundary, and a churner leaving
/// and rejoining at its old id.
fn cycle(net: &mut Network, mover: NodeId, cycler: NodeId, churner: NodeId, churn_cfg: NodeConfig) {
    for event in [
        Event::Move {
            node: mover,
            to: Point::new(62.0, 10.0),
        },
        Event::Move {
            node: mover,
            to: Point::new(10.0, 10.0),
        },
        Event::SetRange {
            node: cycler,
            range: 55.0,
        },
        Event::SetRange {
            node: cycler,
            range: 20.0,
        },
        Event::Leave { node: churner },
    ] {
        apply_topology(net, &event);
    }
    apply_topology_pinned(net, &Event::Join { cfg: churn_cfg }, Some(churner));
}

#[test]
fn steady_state_rewire_allocates_nothing() {
    // A dense-ish arena with obstacles, so the rewire path exercises
    // the stratified index, the segment grid, and real edge churn.
    let mut net = Network::new(25.0);
    for i in 0..60u32 {
        let x = (i % 10) as f64 * 9.0;
        let y = (i / 10) as f64 * 9.0;
        net.join(NodeConfig::new(Point::new(x, y), 20.0));
    }
    // A lighthouse, so more than one tier is occupied.
    net.join(NodeConfig::new(Point::new(45.0, 30.0), 300.0));
    // Enough walls to engage the segment grid (not the linear cutoff).
    for k in 0..6 {
        let x = 4.5 + 18.0 * k as f64;
        net.add_obstacle(Segment::new(Point::new(x, -5.0), Point::new(x, 30.0)));
    }
    assert!(net.node_count() == 61);

    let mover = NodeId(5);
    let cycler = NodeId(17);
    let churner = NodeId(33);
    let churn_cfg = net.config(churner).expect("churner present");

    // Warm-up: grows the delta's buffers, every adjacency list, and
    // every grid cell to its steady-state capacity.
    for _ in 0..12 {
        cycle(&mut net, mover, cycler, churner, churn_cfg);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..25 {
        cycle(&mut net, mover, cycler, churner, churn_cfg);
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state rewire must be allocation-free, saw {} allocations over 25 cycles",
        after - before
    );

    // The network is still healthy after the hammering.
    net.check_topology();

    // --- Phase 2: the incremental SINR engine over the same arena. ---
    // A warm session oscillates a mover across the grid, churns a node
    // out and back in at its old slot, and re-settles the continuous
    // power loop after each patch — all from recycled storage.
    let mut session = PowerSession::new(PowerLoopConfig::for_range_scale(25.0), &net);
    let churn_pos = net.config(churner).expect("churner present").pos;
    let session_cycle = |session: &mut PowerSession| {
        session.apply_move(mover.0, Point::new(62.0, 10.0));
        let _ = session.settle();
        session.apply_move(mover.0, Point::new(10.0, 10.0));
        let _ = session.settle();
        session.apply_leave(churner.0);
        session.apply_join(churner.0, churn_pos, 20.0);
        let _ = session.settle();
    };
    for _ in 0..12 {
        session_cycle(&mut session);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..25 {
        session_cycle(&mut session);
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state field patching + warm relaxation must be allocation-free, \
         saw {} allocations over 25 cycles",
        after - before
    );

    // --- Phase 3: cold settles on a discrete power ladder. ---
    // A geometric ladder has no warm start: every settle resets the
    // powers and relaxes all live links from the bottom rung, so this
    // pins the cold path over the same patch cycle.
    let mut discrete = PowerLoopConfig::for_range_scale(25.0);
    discrete.ladder = PowerLadder::Geometric { levels: 12 };
    let mut session = PowerSession::new(discrete, &net);
    for _ in 0..12 {
        session_cycle(&mut session);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..25 {
        session_cycle(&mut session);
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state cold settles on a discrete ladder must be \
         allocation-free, saw {} allocations over 25 cycles",
        after - before
    );

    // --- Phase 4: observability is allocation-inert on the journal. ---
    // Every phase above already ran with the minim-obs registry
    // recording (the default), so their zeros pin instrumented rewire
    // and settle. The serve engine's apply path
    // allocates by design (the strategy's outcome, MemFs growth,
    // snapshot rotation), so its pin is differential: two fresh
    // engines fed byte-identical workloads — one with observability
    // recording, one with it runtime-disabled — must cost *exactly*
    // the same number of allocations over the same measured window.
    // Any allocation the instrumentation itself performed (interning,
    // span-ring growth) would break the equality.
    assert!(
        minim_obs::enabled() || !minim_obs::COMPILED,
        "phases 1-3 must run with the metrics registry live"
    );
    let journal_window = |record: bool| -> usize {
        minim_obs::set_enabled(record);
        let opts = EngineOptions {
            snapshot_every: 8, // rotate inside both windows
            sync_every: 1,
            ..EngineOptions::default()
        };
        let mut eng = Engine::open_with(Box::new(MemFs::new()), opts).expect("genesis");
        for i in 0..8u32 {
            eng.apply(&Event::Join {
                cfg: NodeConfig::new(Point::new(f64::from(i) * 9.0, 0.0), 20.0),
            })
            .expect("seed join");
        }
        let journal_cycle = |eng: &mut Engine| {
            for (event, label) in [
                (
                    Event::Move {
                        node: NodeId(2),
                        to: Point::new(40.0, 5.0),
                    },
                    "move out",
                ),
                (
                    Event::Move {
                        node: NodeId(2),
                        to: Point::new(18.0, 0.0),
                    },
                    "move back",
                ),
                (
                    Event::SetRange {
                        node: NodeId(5),
                        range: 35.0,
                    },
                    "range up",
                ),
                (
                    Event::SetRange {
                        node: NodeId(5),
                        range: 20.0,
                    },
                    "range down",
                ),
            ] {
                eng.apply(&event).expect(label);
            }
        };
        // Warm-up: engine buffers, MemFs files, and (on the recording
        // run) any not-yet-interned serve keys reach steady state.
        for _ in 0..12 {
            journal_cycle(&mut eng);
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..25 {
            journal_cycle(&mut eng);
        }
        ALLOCS.load(Ordering::SeqCst) - before
    };
    let instrumented = journal_window(true);
    let silent = journal_window(false);
    minim_obs::set_enabled(true);
    assert_eq!(
        instrumented, silent,
        "observability must add zero allocations to journal cycles \
         (recording: {instrumented}, disabled: {silent})"
    );

    // --- Phase 5: the recode planner's gather and matching kernel. ---
    // A Minim-colored dense arena, then a joiner placed where its
    // in-neighbors share colors, so the plan must go through the full
    // gather and the Hungarian kernel rather than the fast path.
    // Planning is read-only, so replanning the same event is the
    // steady state.
    let mut dense = Network::new(25.0);
    let mut minim = Minim::default();
    for i in 0..144u32 {
        let pos = Point::new(f64::from(i % 12) * 6.0, f64::from(i / 12) * 6.0);
        let range = 12.0 + f64::from(i * 7 % 9);
        minim.apply(
            &mut dense,
            &Event::Join {
                cfg: NodeConfig::new(pos, range),
            },
        );
    }
    let mut planner = RecodePlanner::default();
    let mut plan = Vec::new();
    let joiner = dense.next_id();
    let found = (0..400u32).any(|k| {
        let pos = Point::new(f64::from(k % 20) * 3.3 + 1.1, f64::from(k / 20) * 3.3 + 1.7);
        dense.insert_node(joiner, NodeConfig::new(pos, 15.0));
        planner.plan_into(&dense, dense.delta(), KEEP_WEIGHT, &mut plan);
        if plan.len() > 1 {
            return true;
        }
        dense.remove_node(joiner);
        false
    });
    assert!(found, "some join position reaches the matching");
    // The join is the last topology step, so `dense.delta()` is its
    // delta from here on.
    for _ in 0..12 {
        planner.plan_into(&dense, dense.delta(), KEEP_WEIGHT, &mut plan);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..25 {
        planner.plan_into(&dense, dense.delta(), KEEP_WEIGHT, &mut plan);
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert!(
        plan.len() > 1,
        "the measured plan must come from the matching, got {} writes",
        plan.len()
    );
    assert_eq!(
        after - before,
        0,
        "warm recode planning (gather + matching kernel) must be \
         allocation-free, saw {} allocations over 25 plans",
        after - before
    );

    // --- Phase 6: the journal record encoder. ---
    // Every event kind, with no write, one, and many, sealed into one
    // reused frame buffer the way the engine journals a record.
    let writes: Vec<(NodeId, Color)> = (0..64u32)
        .map(|k| (NodeId(k * 3), Color::new(k % 7 + 1)))
        .collect();
    let records = [
        (
            Event::Join {
                cfg: NodeConfig::new(Point::new(1.5, 2.5), 20.0),
            },
            1,
        ),
        (Event::Leave { node: NodeId(4) }, 0),
        (
            Event::Move {
                node: NodeId(2),
                to: Point::new(40.0, 5.0),
            },
            64,
        ),
        (
            Event::SetRange {
                node: NodeId(5),
                range: 35.0,
            },
            2,
        ),
    ];
    let mut frame = Vec::new();
    let encode_cycle = |frame: &mut Vec<u8>| {
        for (event, k) in &records {
            frame.clear();
            frame.resize(FRAME_HEADER, 0);
            encode_record(event, writes[..*k].iter().copied(), frame);
            seal_frame(frame);
        }
    };
    for _ in 0..12 {
        encode_cycle(&mut frame);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..25 {
        encode_cycle(&mut frame);
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "warm record encoding must be allocation-free, saw {} allocations \
         over 25 cycles",
        after - before
    );

    // --- Phase 7: snapshot restore. ---
    // The same 300 positions twice, at mean out-degree about 3 and
    // about 40. The bound: at most 3 allocations per node (its out-
    // and in-list, and its share of the grid cells, the slabs and the
    // parse buffers), and the denser snapshot may cost at most 16
    // more than the sparser one (the growth of the one query buffer).
    // Growing adjacency edge by edge costs several per node per
    // doubling of degree.
    const RESTORED: u32 = 300;
    let decode_allocs = |range: f64| {
        let mut net = Network::new(25.0);
        for k in 0..RESTORED {
            let pos = Point::new(f64::from(k % 20) * 7.3, f64::from(k / 20) * 6.1);
            let id = net.join(NodeConfig::new(pos, range));
            net.set_color(id, Color::new(k % 11 + 1));
        }
        let bytes = encode_snapshot(&net, StrategyKind::Minim, u64::from(RESTORED));
        let edges = net.graph().edge_count();
        let before = ALLOCS.load(Ordering::SeqCst);
        let doc = decode_snapshot(&bytes).expect("snapshot decodes");
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(doc.net.state_digest(), net.state_digest());
        (allocs, edges)
    };
    let (sparse, sparse_edges) = decode_allocs(8.0);
    let (dense, dense_edges) = decode_allocs(30.0);
    assert!(
        dense_edges > 10 * sparse_edges,
        "degrees must differ: {sparse_edges} vs {dense_edges} edges"
    );
    for (allocs, edges) in [(sparse, sparse_edges), (dense, dense_edges)] {
        assert!(
            allocs <= 3 * RESTORED as usize,
            "restoring {RESTORED} nodes and {edges} edges took {allocs} allocations"
        );
    }
    assert!(
        dense <= sparse + 16,
        "restore allocations grew with degree: {sparse} at {sparse_edges} edges, \
         {dense} at {dense_edges} edges"
    );
    println!(
        "snapshot restore: {sparse} allocations at {sparse_edges} edges, \
         {dense} at {dense_edges} edges, {RESTORED} nodes"
    );

    // --- Phase 8: power corrections that move no edge. ---
    // Every node of a Minim-colored arena that has room grows halfway
    // into its clear disc and shrinks back to its old range, which keeps
    // every neighbor (the old range covers them all).
    let mut arena = Network::new(25.0);
    let mut minim = Minim::default();
    for i in 0..144u32 {
        let pos = Point::new(f64::from(i % 12) * 6.0, f64::from(i / 12) * 6.0);
        let range = 12.0 + f64::from(i * 7 % 9);
        minim.apply(
            &mut arena,
            &Event::Join {
                cfg: NodeConfig::new(pos, range),
            },
        );
    }
    let mut corrections = Vec::new();
    for node in arena.iter_nodes() {
        let range = arena.config(node).expect("present").range;
        let clear = arena.clear_bound(node).expect("present").sqrt();
        if clear <= range {
            continue;
        }
        corrections.push(Event::SetRange {
            node,
            range: (range + clear) / 2.0,
        });
        corrections.push(Event::SetRange { node, range });
    }
    assert!(
        corrections.len() >= 100,
        "{} corrections",
        corrections.len()
    );
    let edges = arena.graph().edge_count();
    for _ in 0..12 {
        run_events_validated(&mut minim, &mut arena, &corrections, ValidationMode::Delta);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..25 {
        let phase =
            run_events_validated(&mut minim, &mut arena, &corrections, ValidationMode::Delta);
        assert_eq!((phase.recodings, phase.edge_churn), (0, 0));
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(arena.graph().edge_count(), edges);
    arena.check_topology();
    assert!(arena.validate().is_ok());
    // Debug builds validate every event, which allocates its seeds.
    if !cfg!(debug_assertions) {
        assert_eq!(
            after - before,
            0,
            "warm no-edge corrections must be allocation-free, saw {} \
             allocations over 25 rounds of {}",
            after - before,
            corrections.len()
        );
    }
}
