//! `power-churn`: the metropolis base, Minim-colored, under a
//! continuous closed-loop [`PowerSession`] (continuous ladder, target
//! SINR 4, nearest-neighbor receivers, two workers). Each exogenous
//! event goes through `run_events_validated(…, ValidationMode::Delta)`
//! and then the session patch; every [`SLICE`] events the loop settles
//! and applies the `SetRange` corrections through the same validated
//! runner. There is no journal.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use minim_core::Minim;
use minim_graph::NodeId;
use minim_net::event::Event;
use minim_net::Network;
use minim_power::{PowerLoopConfig, PowerSession, Verdict};
use minim_sim::runner::{run_events, run_events_validated, ValidationMode};

use crate::stream::{self, Stream};
use crate::trace::{self, Stamp};
use crate::{fnv, mean, reset_peak_rss, round_seed, Check, Env, Outcome, Plan, Traced, Untraced};

/// Exogenous events between settles.
pub const SLICE: usize = 20;
/// Worker threads of the island-parallel settle.
pub const WORKERS: usize = 2;
/// Maximum displacement of a move.
pub const MAXDISP: f64 = 25.0;

/// Continuous ladder, target SINR 4, nearest-neighbor receivers,
/// scaled to the paper's mean range.
fn config() -> PowerLoopConfig {
    PowerLoopConfig::for_range_scale(25.5)
}

fn open_session(net: &Network) -> PowerSession {
    let mut session = PowerSession::new(config(), net);
    session.set_workers(WORKERS);
    session
}

struct State {
    net: Network,
    minim: Minim,
    session: PowerSession,
}

impl State {
    /// Digest of the network and the session's power vector.
    fn digest(&self) -> u64 {
        fnv(std::iter::once(self.net.state_digest())
            .chain(self.session.powers().iter().map(|p| p.to_bits())))
    }
}

/// The set-up `setup_s` times: the Minim-colored base, the session
/// open and its first settle, whose corrections go through the
/// validated runner. Also returns whether that settle converged.
fn setup(base: &[Event]) -> (State, f64, bool) {
    let t = Instant::now();
    let mut net = Network::new(25.0);
    let mut minim = Minim::default();
    run_events(&mut minim, &mut net, base);
    let mut session = open_session(&net);
    let (corrections, report) = session.settle();
    run_events_validated(&mut minim, &mut net, corrections, ValidationMode::Delta);
    let secs = t.elapsed().as_secs_f64();
    let converged = report.verdict != Verdict::Diverging;
    (
        State {
            net,
            minim,
            session,
        },
        secs,
        converged,
    )
}

/// The session patch for one exogenous event; `join_id` is the id the
/// network allocated if the event was a join.
fn patch(session: &mut PowerSession, event: &Event, join_id: NodeId) {
    match event {
        Event::Join { cfg } => session.apply_join(join_id.0, cfg.pos, cfg.range),
        Event::Leave { node } => session.apply_leave(node.0),
        Event::Move { node, to } => session.apply_move(node.0, *to),
        Event::SetRange { node, range } => session.note_range(node.0, *range),
    }
}

/// `run_events_validated` in delta mode; a violation (which panics
/// there) comes back as `false`.
fn validated(minim: &mut Minim, net: &mut Network, events: &[Event]) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        run_events_validated(minim, net, events, ValidationMode::Delta)
    }))
    .is_ok()
}

/// One exogenous event end to end; a slice-closing event also settles
/// and applies the corrections. Returns `false` on a violation or a
/// diverging settle.
fn step(st: &mut State, event: &Event, closes_slice: bool) -> bool {
    let join_id = st.net.peek_next_id();
    let mut ok = validated(&mut st.minim, &mut st.net, std::slice::from_ref(event));
    patch(&mut st.session, event, join_id);
    if closes_slice {
        let (corrections, report) = st.session.settle();
        ok &= report.verdict != Verdict::Diverging;
        ok &= validated(&mut st.minim, &mut st.net, corrections);
    }
    ok
}

fn closes_slice(i: usize) -> bool {
    (i + 1).is_multiple_of(SLICE)
}

/// Runs `power-churn`.
pub fn run(seed: u64, plan: &Plan) -> Outcome {
    let events = plan.events.div_ceil(SLICE) * SLICE;
    let rounds = plan.rounds.max(1);
    let streams: Vec<Stream> = (0..rounds)
        .map(|r| stream::metro(round_seed(seed, r), events, MAXDISP))
        .collect();
    let mut u = Untraced::default();

    if plan.warmup {
        let (mut st, _, _) = setup(&streams[0].base);
        let warm = events / 10 / SLICE * SLICE;
        for (i, e) in streams[0].churn[..warm].iter().enumerate() {
            step(&mut st, e, closes_slice(i));
        }
    }

    let mut digest = None;
    let mut env = Env::default();
    let (mut converged, mut valid, mut rebuilt) = (true, true, true);
    let mut lat = Vec::with_capacity(events);
    for stream in &streams {
        reset_peak_rss();
        let (mut st, secs, ok) = setup(&stream.base);
        u.setup_s.push(secs);
        converged &= ok;
        let base = st.net.clone();

        lat.clear();
        let t0 = Instant::now();
        for (i, e) in stream.churn.iter().enumerate() {
            let t = Instant::now();
            let ok = step(&mut st, e, closes_slice(i));
            lat.push(t.elapsed().as_nanos() as u64);
            if !ok {
                u.failed += 1;
            }
        }
        u.phase(&lat, t0.elapsed());

        valid &= st.net.validate().is_ok();
        digest.get_or_insert_with(|| st.digest());
        env = Env::new(seed, events, &st.net, "none".to_string());
        drop(st.session);

        // The session holds no durable state: recovering it means
        // opening a session over the network and settling it from cold.
        // Its cost swings up to 4x between networks, so the round's
        // recovery is the mean over its final network and its base.
        let mut rebuilds = Vec::new();
        for net in [&st.net, &base] {
            let t = Instant::now();
            let mut session = open_session(net);
            let (_, report) = session.settle();
            rebuilds.push(t.elapsed().as_secs_f64());
            rebuilt &= report.verdict != Verdict::Diverging;
        }
        u.recover_s.push(mean(&rebuilds));
    }
    let digest = digest.expect("at least one round");
    let mut checks = vec![
        Check {
            name: "first settle converges",
            passed: converged,
        },
        Check {
            name: "full validate after the measured phase",
            passed: valid,
        },
        Check {
            name: "rebuilt session settles",
            passed: rebuilt,
        },
    ];

    let mut per_layer = Vec::new();
    if plan.trace {
        let (t, failed) = traced(&streams[0], u.wall_s[0], digest, &mut checks);
        u.failed += failed;
        per_layer = t.metrics();
        per_layer.push(u.memory());
    }
    let failed = u.failed + checks.iter().filter(|c| !c.passed).count() as u64;
    Outcome {
        attempted: (events * rounds) as u64,
        failed,
        checks,
        end_to_end: u.end_to_end(),
        memory: u.memory(),
        per_layer,
        rounds: u.lines(),
        digest,
        env,
    }
}

/// The traced pass: `run_events_validated` broken into its calls
/// (rewire, plan, commit, local validation), the session patch and the
/// settle, each timed. Returns the record and the failed-event count.
fn traced(
    stream: &Stream,
    untraced_wall_s: f64,
    live_digest: u64,
    checks: &mut Vec<Check>,
) -> (Traced, u64) {
    let (mut st, _, _) = setup(&stream.base);
    let mut t = Traced {
        events: stream.churn.len() as u64,
        untraced_wall_s,
        ..Traced::default()
    };
    let mut failed = 0;
    trace::set_counting(true);
    let t0 = Instant::now();
    for (i, e) in stream.churn.iter().enumerate() {
        let violations = t.violations;
        let join_id = st.net.peek_next_id();
        t.apply(&st.minim, &mut st.net, e, true);
        t.patch.time(|| patch(&mut st.session, e, join_id));
        let mut diverged = false;
        if closes_slice(i) {
            let start = Stamp::now();
            let (corrections, report) = st.session.settle();
            t.settle.finish(start);
            t.updates += report.updates;
            t.corrections += corrections.len() as u64;
            t.islands_sum += report.islands as u64;
            diverged = report.verdict == Verdict::Diverging;
            for c in corrections {
                t.apply(&st.minim, &mut st.net, c, true);
            }
        }
        if diverged || t.violations > violations {
            failed += 1;
        }
    }
    t.wall_ns = t0.elapsed().as_nanos() as u64;
    trace::set_counting(false);
    t.max_color = st.net.max_color_index();
    checks.push(Check {
        name: "traced digest equals untraced",
        passed: st.digest() == live_digest,
    });
    (t, failed)
}
