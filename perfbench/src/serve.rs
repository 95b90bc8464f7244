//! `dense-serve` and `metro-serve`: churn journaled through
//! `minim_serve::Engine` on `DiskFs`, every event a durable
//! acknowledgement (`sync_every = 1`).

use std::path::Path;
use std::time::{Duration, Instant};

use minim_core::{Minim, RecodingStrategy};
use minim_net::event::Event;
use minim_net::Network;
use minim_serve::{DiskFs, Engine, EngineOptions};

use crate::stream::{self, Stream};
use crate::trace::{self, FsStats, TimedFs};
use crate::{
    mean, reset_peak_rss, round_seed, Check, Env, Outcome, Plan, Traced, Untraced, WorkDir,
};

/// Each round reopens its journal at least twice and until this much
/// time has passed; the round's `recover_s` is the mean. A clean reopen
/// changes nothing on disk, so it repeats exactly, and a metro-serve
/// reopen is short enough (about 0.1 s) for single calls to be noisy.
const REOPEN_BUDGET: Duration = Duration::from_millis(500);

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// `dense-serve`: the paper arena.
    Dense,
    /// `metro-serve`: the metropolis deployment.
    Metro,
}

impl Deployment {
    fn name(self) -> &'static str {
        match self {
            Deployment::Dense => "dense-serve",
            Deployment::Metro => "metro-serve",
        }
    }

    fn stream(self, seed: u64, events: usize) -> Stream {
        match self {
            Deployment::Dense => stream::dense(seed, events),
            Deployment::Metro => stream::metro(seed, events, 60.0),
        }
    }
}

/// The set-up `setup_s` times: engine open plus the journaled base.
fn setup(dir: &Path, base: &[Event]) -> (Engine, f64) {
    let t = Instant::now();
    let mut eng = Engine::open_dir(dir, EngineOptions::default()).expect("open the engine");
    for e in base {
        eng.apply(e).expect("journal the base network");
    }
    (eng, t.elapsed().as_secs_f64())
}

/// Submits `churn` one event at a time; returns the failed count.
fn submit(eng: &mut Engine, churn: &[Event], mut each: impl FnMut(u64)) -> u64 {
    let mut failed = 0;
    for e in churn {
        let t = Instant::now();
        let ok = eng.apply(e).is_ok();
        each(t.elapsed().as_nanos() as u64);
        if !ok || eng.is_quarantined() {
            failed += 1;
        }
    }
    failed
}

/// Runs `dense-serve` or `metro-serve`.
pub fn run(deployment: Deployment, seed: u64, plan: &Plan) -> Outcome {
    let rounds = plan.rounds.max(1);
    let streams: Vec<Stream> = (0..rounds)
        .map(|r| deployment.stream(round_seed(seed, r), plan.events))
        .collect();
    let work = WorkDir::new(deployment.name());
    let mut u = Untraced::default();

    if plan.warmup {
        let churn = &streams[0].churn;
        let (mut eng, _) = setup(&work.fresh("warmup"), &streams[0].base);
        submit(&mut eng, &churn[..churn.len() / 10], |_| {});
    }

    let mut digest = None;
    let mut env = Env::default();
    let (mut valid, mut same_digest, mut same_total) = (true, true, true);
    let mut lat = Vec::with_capacity(plan.events);
    for stream in &streams {
        let dir = work.fresh("live");
        reset_peak_rss();
        let (mut eng, secs) = setup(&dir, &stream.base);
        u.setup_s.push(secs);

        lat.clear();
        let t0 = Instant::now();
        u.failed += submit(&mut eng, &stream.churn, |ns| lat.push(ns));
        u.phase(&lat, t0.elapsed());

        valid &= eng.net().validate().is_ok();
        env = Env::new(seed, plan.events, eng.net(), work.fs_type());
        let live = eng.net().state_digest();
        let events_total = eng.events_applied();
        digest.get_or_insert(live);
        drop(eng);

        let mut reopens = Vec::new();
        let started = Instant::now();
        while reopens.len() < 2 || started.elapsed() < REOPEN_BUDGET {
            let t = Instant::now();
            let reopened = Engine::open_dir(&dir, EngineOptions::default());
            reopens.push(t.elapsed().as_secs_f64());
            same_digest &= reopened
                .as_ref()
                .is_ok_and(|e| e.net().state_digest() == live);
            same_total &= reopened
                .as_ref()
                .is_ok_and(|e| e.recovery_report().events_total == events_total);
        }
        u.recover_s.push(mean(&reopens));
    }
    let digest = digest.expect("at least one round");
    let mut checks = vec![
        Check {
            name: "full validate after the measured phase",
            passed: valid,
        },
        Check {
            name: "recovered digest equals live",
            passed: same_digest,
        },
        Check {
            name: "recovered events_total equals live",
            passed: same_total,
        },
    ];

    let mut per_layer = Vec::new();
    if plan.trace {
        let (t, failed) = traced(&work, &streams[0], u.wall_s[0], digest, &mut checks);
        u.failed += failed;
        per_layer = t.metrics();
        per_layer.push(u.memory());
    }
    let failed = u.failed + checks.iter().filter(|c| !c.passed).count() as u64;
    Outcome {
        attempted: (plan.events * rounds) as u64,
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

/// The traced pass: the engine half over a [`TimedFs`], a timed
/// reopen, then the bare replay half (see [`Traced`]). Returns the
/// record and the failed-event count.
fn traced(
    work: &WorkDir,
    stream: &Stream,
    untraced_wall_s: f64,
    live_digest: u64,
    checks: &mut Vec<Check>,
) -> (Traced, u64) {
    let opts = EngineOptions::default();
    let dir = work.fresh("traced");
    let disk = || DiskFs::open(&dir).expect("open the traced journal directory");
    let (fs, stats) = TimedFs::new(disk());
    let mut eng = Engine::open_with(Box::new(fs), opts).expect("open the traced engine");
    for e in &stream.base {
        eng.apply(e).expect("journal the base network");
    }
    *stats.borrow_mut() = FsStats::default();

    let mut t = Traced {
        events: stream.churn.len() as u64,
        untraced_wall_s,
        ..Traced::default()
    };
    trace::set_counting(true);
    let t0 = Instant::now();
    let failed = submit(&mut eng, &stream.churn, |ns| t.apply_ns += ns);
    t.wall_ns = t0.elapsed().as_nanos() as u64;
    trace::set_counting(false);
    t.fs = std::mem::take(&mut *stats.borrow_mut());

    let digest = eng.net().state_digest();
    checks.push(Check {
        name: "traced digest equals untraced",
        passed: digest == live_digest,
    });
    drop(eng);

    let (fs, reopen_stats) = TimedFs::new(disk());
    let reopened = Engine::open_with(Box::new(fs), opts);
    checks.push(Check {
        name: "traced reopen digest equals live",
        passed: reopened.is_ok_and(|e| e.net().state_digest() == digest),
    });
    t.recover_read = std::mem::take(&mut reopen_stats.borrow_mut().read);

    let mut net = if opts.flat {
        Network::new_flat(opts.cell_hint)
    } else {
        Network::new(opts.cell_hint)
    };
    let mut minim = Minim::default();
    for e in &stream.base {
        minim.apply(&mut net, e);
    }
    trace::set_counting(true);
    for e in &stream.churn {
        t.apply(&minim, &mut net, e, false);
    }
    trace::set_counting(false);
    t.max_color = net.max_color_index();
    checks.push(Check {
        name: "replayed net/core digest equals engine",
        passed: net.state_digest() == digest,
    });
    (t, failed)
}
