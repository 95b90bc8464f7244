//! Enter/exit span tracing into fixed-capacity per-thread rings.
//!
//! Ring policy
//! -----------
//! A fixed pool of [`MAX_RINGS`] rings lives in the registry; a thread
//! claims a ring slot round-robin on first span exit and keeps it for
//! life (slots are reused modulo the pool, so records survive
//! short-lived worker threads — a replicate fan-out's workers land in
//! a bounded set of rings instead of losing their spans on thread
//! exit). Each ring holds [`RING_CAP`] fixed-size records; when
//! full, the **oldest record is overwritten** and the overwrite is
//! counted — [`crate::MetricsSnapshot::spans_dropped`] surfaces the
//! total, so a truncated profile is always visibly truncated.
//!
//! A record carries the full key path from the root span down
//! ([`MAX_DEPTH`] deep at most; deeper nestings are counted as
//! dropped), its start offset from the registry epoch, and its
//! duration. Records are self-contained, so interleaving threads in a
//! shared ring loses nothing.
//!
//! The post-run [`profile`] aggregator groups records by path into a
//! tree of `{count, total_ns, self_ns}` nodes, where self-time is
//! total minus the recorded children's total.

use crate::registry::{registry, Key, Kind};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Ring pool size (threads map round-robin onto these).
pub const MAX_RINGS: usize = 32;
/// Span records per ring.
pub const RING_CAP: usize = 2048;
/// Maximum span nesting depth a record can carry.
pub const MAX_DEPTH: usize = 8;

/// One completed span: the interned-key path from the root enclosing
/// span down to this one, plus wall-clock placement.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span-key ids, root first; only `path[..depth]` is meaningful.
    pub path: [u16; MAX_DEPTH],
    /// Number of valid entries in `path` (≥ 1).
    pub depth: u8,
    /// Start offset from the registry epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

pub(crate) struct RingInner {
    recs: Vec<SpanRecord>,
    head: usize,
    /// Records ever written (≥ `recs.len()`); the excess over
    /// `RING_CAP` is the drop-oldest overwrite count.
    total: u64,
    /// Spans discarded for exceeding `MAX_DEPTH`.
    depth_dropped: u64,
}

/// A fixed-capacity drop-oldest span ring.
pub(crate) struct Ring {
    inner: Mutex<RingInner>,
}

impl Ring {
    pub(crate) fn new() -> Self {
        Ring {
            inner: Mutex::new(RingInner {
                recs: Vec::new(),
                head: 0,
                total: 0,
                depth_dropped: 0,
            }),
        }
    }
}

/// Per-thread span state: the claimed ring slot and a fixed-depth
/// stack of open spans. `Copy` so it lives in a const-initialised
/// TLS `Cell` — no lazy TLS allocation, no destructor.
#[derive(Clone, Copy)]
struct ThreadSpans {
    ring: u16,
    depth: u8,
    path: [u16; MAX_DEPTH],
    starts: [u64; MAX_DEPTH],
}

const EMPTY: ThreadSpans = ThreadSpans {
    ring: u16::MAX,
    depth: 0,
    path: [0; MAX_DEPTH],
    starts: [0; MAX_DEPTH],
};

thread_local! {
    static SPANS: Cell<ThreadSpans> = const { Cell::new(EMPTY) };
}

#[inline]
fn now_ns() -> u64 {
    registry().epoch.elapsed().as_nanos() as u64
}

/// RAII guard for an open span: records on drop. Obtain via
/// [`crate::span!`] (or [`SpanGuard::enter`] with an interned key).
#[must_use = "a span measures the scope of its guard"]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// Opens a span. If the registry is disabled — or the fixed
    /// nesting depth is exhausted — the guard is inert.
    #[inline]
    pub fn enter(key: Key) -> SpanGuard {
        if !crate::COMPILED || !crate::enabled() {
            return SpanGuard { armed: false };
        }
        debug_assert_eq!(key.kind(), Kind::Span);
        SPANS.with(|tl| {
            let mut ts = tl.get();
            if (ts.depth as usize) >= MAX_DEPTH {
                // Too deep to record: count it against this thread's
                // ring and stay inert (drop() must not pop).
                let slot = claim_ring(&mut ts);
                tl.set(ts);
                let mut ring = registry().rings[slot].inner.lock().unwrap();
                ring.depth_dropped += 1;
                return SpanGuard { armed: false };
            }
            ts.path[ts.depth as usize] = key.id();
            ts.starts[ts.depth as usize] = now_ns();
            ts.depth += 1;
            tl.set(ts);
            SpanGuard { armed: true }
        })
    }

    /// An inert guard (used when observation is compiled out or
    /// disabled).
    #[inline]
    pub fn disabled() -> SpanGuard {
        SpanGuard { armed: false }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        SPANS.with(|tl| {
            let mut ts = tl.get();
            debug_assert!(ts.depth > 0);
            ts.depth -= 1;
            let depth = ts.depth;
            let start = ts.starts[depth as usize];
            let rec = SpanRecord {
                path: ts.path,
                depth: depth + 1,
                start_ns: start,
                dur_ns: end.saturating_sub(start),
            };
            let slot = claim_ring(&mut ts);
            tl.set(ts);
            push_record(slot, rec);
        });
    }
}

/// Returns the thread's ring slot, claiming one round-robin from the
/// registry counter on first use. Allocation-free.
#[inline]
fn claim_ring(ts: &mut ThreadSpans) -> usize {
    if ts.ring != u16::MAX {
        return ts.ring as usize;
    }
    let slot = registry().thread_ctr.fetch_add(1, Ordering::Relaxed) % MAX_RINGS;
    ts.ring = slot as u16;
    slot
}

fn push_record(slot: usize, rec: SpanRecord) {
    let mut ring = registry().rings[slot].inner.lock().unwrap();
    if ring.recs.capacity() == 0 {
        // First record in this ring slot ever: size the buffer. This
        // is the one allocation a ring makes; warm-up covers it.
        ring.recs.reserve_exact(RING_CAP);
    }
    if ring.recs.len() < RING_CAP {
        ring.recs.push(rec);
    } else {
        let head = ring.head;
        ring.recs[head] = rec;
        ring.head = (head + 1) % RING_CAP;
    }
    ring.total += 1;
}

/// `(recorded, dropped)` totals across all rings: records currently
/// resident, and records lost to overwrite or depth overflow.
pub(crate) fn ring_totals() -> (u64, u64) {
    let mut resident = 0u64;
    let mut dropped = 0u64;
    for ring in &registry().rings {
        let r = ring.inner.lock().unwrap();
        resident += r.recs.len() as u64;
        dropped += r.total - r.recs.len() as u64 + r.depth_dropped;
    }
    (resident, dropped)
}

pub(crate) fn reset_rings() {
    for ring in &registry().rings {
        let mut r = ring.inner.lock().unwrap();
        r.recs.clear();
        r.head = 0;
        r.total = 0;
        r.depth_dropped = 0;
    }
}

/// A node of the aggregated profile tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Span name (interned key string).
    pub name: String,
    /// Completed spans aggregated into this node.
    pub count: u64,
    /// Total wall-clock inside this span, nanoseconds.
    pub total_ns: u64,
    /// `total_ns` minus the recorded children's `total_ns` (clamped
    /// at zero: children whose parent record was overwritten can
    /// out-total a partially-dropped parent).
    pub self_ns: u64,
    /// Child spans, sorted by descending `total_ns`.
    pub children: Vec<ProfileNode>,
}

/// The post-run aggregation of every span ring.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Root spans, sorted by descending `total_ns`.
    pub roots: Vec<ProfileNode>,
    /// Records aggregated.
    pub recorded: u64,
    /// Records lost to the drop-oldest policy or depth overflow —
    /// when non-zero the totals undercount.
    pub dropped: u64,
}

/// Aggregates the span rings into a self/total-time tree. Cold path —
/// allocates freely; never call from a measured steady state.
pub fn profile() -> Profile {
    if !crate::COMPILED {
        return Profile::default();
    }
    let reg = registry();
    // Span-id → name map for rendering.
    let names: Vec<String> = {
        let names = reg.names.lock().unwrap();
        names
            .iter()
            .filter(|&&(_, k)| k == Kind::Span)
            .map(|&(n, _)| n.to_string())
            .collect()
    };
    let mut agg: BTreeMap<Vec<u16>, (u64, u64)> = BTreeMap::new();
    let mut recorded = 0u64;
    for ring in &reg.rings {
        let r = ring.inner.lock().unwrap();
        for rec in &r.recs {
            recorded += 1;
            let path = rec.path[..rec.depth as usize].to_vec();
            let e = agg.entry(path).or_insert((0, 0));
            e.0 += 1;
            e.1 += rec.dur_ns;
        }
    }
    let (_, dropped) = ring_totals();
    let mut prof = Profile {
        roots: Vec::new(),
        recorded,
        dropped,
    };
    // BTreeMap iterates paths in prefix order: a parent path sorts
    // immediately before its children, so a stack assembles the tree
    // in one pass.
    let mut stack: Vec<(Vec<u16>, ProfileNode)> = Vec::new();
    fn unwind(
        stack: &mut Vec<(Vec<u16>, ProfileNode)>,
        roots: &mut Vec<ProfileNode>,
        next: Option<&[u16]>,
    ) {
        while let Some((path, _)) = stack.last() {
            let keep = next.is_some_and(|n| n.starts_with(path));
            if keep {
                return;
            }
            let (_, mut node) = stack.pop().unwrap();
            node.self_ns = node
                .total_ns
                .saturating_sub(node.children.iter().map(|c| c.total_ns).sum());
            node.children.sort_by_key(|c| std::cmp::Reverse(c.total_ns));
            match stack.last_mut() {
                Some((_, parent)) => parent.children.push(node),
                None => roots.push(node),
            }
        }
    }
    for (path, (count, total_ns)) in &agg {
        unwind(&mut stack, &mut prof.roots, Some(path));
        let id = *path.last().unwrap() as usize;
        let name = names
            .get(id)
            .cloned()
            .unwrap_or_else(|| format!("span#{id}"));
        stack.push((
            path.clone(),
            ProfileNode {
                name,
                count: *count,
                total_ns: *total_ns,
                self_ns: 0,
                children: Vec::new(),
            },
        ));
    }
    unwind(&mut stack, &mut prof.roots, None);
    prof.roots.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    prof
}
