//! # minim-obs — the observability spine
//!
//! A dependency-free metrics registry and span tracer built for the
//! engine's hot paths: steady-state instrumentation is
//! **zero-allocation** (pinned by the workspace `alloc_smoke` test)
//! and **inert** — observation never feeds back into control flow, so
//! every bit-identity determinism contract holds with instrumentation
//! compiled in.
//!
//! Three primitives, addressed by interned static keys:
//!
//! * **counters** — sharded relaxed atomics ([`counter!`]);
//! * **gauges** — last-write-wins `f64` ([`gauge!`]);
//! * **histograms** — log2-bucketed latencies ([`observe_ns!`]);
//!
//! plus **spans** ([`span!`]): RAII enter/exit pairs recorded into
//! fixed-capacity drop-oldest ring buffers and aggregated post-run
//! into a self/total-time [`Profile`] tree.
//!
//! ## Cost model
//!
//! | state | per-site cost |
//! |---|---|
//! | recording (default) | TLS read + relaxed `fetch_add` |
//! | disabled ([`set_enabled`]`(false)`) | one relaxed load + branch |
//! | feature `off` | nothing — sites are const-folded away |
//!
//! The `off` cargo feature (exposed as `obs-off` by dependent crates)
//! flips the [`COMPILED`] constant to `false`; every macro guards its
//! body with it, so instrumentation sites compile to no-ops while the
//! API (and types like [`MetricsSnapshot`]) remain, returning empties.
//!
//! ## Serialisation
//!
//! The registry is dependency-free by design; JSON export of
//! [`MetricsSnapshot`] / [`Profile`] (the `minim-metrics/1` document)
//! lives in `minim-sim`, next to the workspace's own `json` module.

#![deny(missing_docs)]

mod registry;
pub mod span;

pub use registry::{
    counter_add, enabled, gauge_set, intern, observe_ns, reset, set_enabled, snapshot,
    HistogramSnapshot, Key, Kind, MetricsSnapshot, HIST_BUCKETS, MAX_COUNTERS, MAX_GAUGES,
    MAX_HISTOGRAMS, MAX_SPANS, SHARDS,
};
pub use span::{
    profile, Profile, ProfileNode, SpanGuard, SpanRecord, MAX_DEPTH, MAX_RINGS, RING_CAP,
};

/// `false` when the `off` feature compiled instrumentation out. The
/// site macros guard on this constant so the optimiser deletes their
/// bodies (statics included) in `off` builds.
#[cfg(not(feature = "off"))]
pub const COMPILED: bool = true;
/// `false` when the `off` feature compiled instrumentation out.
#[cfg(feature = "off")]
pub const COMPILED: bool = false;

/// Interns a key once per call site and evaluates to the cached
/// [`Key`]. Used by the site macros; useful directly when a site
/// wants to pre-resolve a key outside a loop.
#[macro_export]
macro_rules! obs_key {
    ($kind:ident, $name:expr) => {{
        static KEY: ::std::sync::OnceLock<$crate::Key> = ::std::sync::OnceLock::new();
        *KEY.get_or_init(|| $crate::intern($name, $crate::Kind::$kind))
    }};
}

/// Adds to a counter: `counter!("net.apply.join", 1)`. The name must
/// be a `&'static str`; the key is interned once per site.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        if $crate::COMPILED {
            $crate::counter_add($crate::obs_key!(Counter, $name), $n);
        }
    };
}

/// Sets a gauge: `gauge!("power.settle.links", links as f64)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        if $crate::COMPILED {
            $crate::gauge_set($crate::obs_key!(Gauge, $name), $v);
        }
    };
}

/// Records a nanosecond latency observation:
/// `observe_ns!("serve.append_ns", t.elapsed().as_nanos() as u64)`.
#[macro_export]
macro_rules! observe_ns {
    ($name:expr, $ns:expr) => {
        if $crate::COMPILED {
            $crate::observe_ns($crate::obs_key!(Histogram, $name), $ns);
        }
    };
}

/// Opens a span over the enclosing scope:
/// `let _span = minim_obs::span!("serve.apply");`. Evaluates to a
/// [`SpanGuard`] that records on drop.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::COMPILED {
            $crate::SpanGuard::enter($crate::obs_key!(Span, $name))
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and the test harness is
    // multi-threaded, so tests here use unique key names and never
    // assert global totals someone else could bump.

    #[test]
    fn counters_accumulate_across_shards() {
        counter!("test.obs.counter", 2);
        counter!("test.obs.counter", 3);
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| counter!("test.obs.counter", 10)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = snapshot();
        if COMPILED {
            assert_eq!(snap.counter("test.obs.counter"), Some(45));
        } else {
            assert_eq!(snap.counter("test.obs.counter"), None);
        }
    }

    #[test]
    fn gauges_last_write_wins() {
        gauge!("test.obs.gauge", 1.5);
        gauge!("test.obs.gauge", 2.5);
        if COMPILED {
            assert_eq!(snapshot().gauge("test.obs.gauge"), Some(2.5));
        }
    }

    #[test]
    fn histogram_buckets_and_totals() {
        observe_ns!("test.obs.hist", 0);
        observe_ns!("test.obs.hist", 1);
        observe_ns!("test.obs.hist", 7);
        observe_ns!("test.obs.hist", 1024);
        if !COMPILED {
            return;
        }
        let snap = snapshot();
        let h = snap.histogram("test.obs.hist").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum_ns, 1032);
        assert_eq!(h.min_ns, 0);
        assert_eq!(h.max_ns, 1024);
        // 0 → bucket 0, 1 → bucket 1, 7 → bucket 3, 1024 → bucket 11.
        for (b, c) in [(0, 1), (1, 1), (3, 1), (11, 1)] {
            assert_eq!(
                h.buckets.iter().find(|&&(eb, _)| eb == b).map(|&(_, c)| c),
                Some(c),
                "bucket {b}"
            );
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        if !COMPILED {
            return;
        }
        counter!("test.obs.disabled", 1);
        set_enabled(false);
        counter!("test.obs.disabled", 100);
        let _span = span!("test.obs.disabled.span");
        drop(_span);
        set_enabled(true);
        counter!("test.obs.disabled", 1);
        assert_eq!(snapshot().counter("test.obs.disabled"), Some(2));
    }

    #[test]
    fn spans_nest_into_a_profile_tree() {
        if !COMPILED {
            return;
        }
        {
            let _outer = span!("test.obs.outer");
            for _ in 0..3 {
                let _inner = span!("test.obs.inner");
            }
        }
        let prof = profile();
        let outer = prof
            .roots
            .iter()
            .find(|n| n.name == "test.obs.outer")
            .expect("outer span aggregated");
        assert_eq!(outer.count, 1);
        let inner = outer
            .children
            .iter()
            .find(|n| n.name == "test.obs.inner")
            .expect("inner nested under outer");
        assert_eq!(inner.count, 3);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(
            outer.self_ns,
            outer.total_ns - outer.children.iter().map(|c| c.total_ns).sum::<u64>()
        );
    }

    #[test]
    fn depth_overflow_is_counted_not_recorded() {
        if !COMPILED {
            return;
        }
        fn nest(d: usize) {
            if d == 0 {
                return;
            }
            let _g = span!("test.obs.deep");
            nest(d - 1);
        }
        nest(MAX_DEPTH + 3);
        let snap = snapshot();
        assert!(snap.spans_dropped >= 3, "deep spans counted as dropped");
    }
}
