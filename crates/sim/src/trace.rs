//! `minim-metrics/1` — JSON export of the minim-obs registry.
//!
//! `minim-obs` is dependency-free by design, so its snapshot and
//! profile types know nothing about serialisation; this module lowers
//! them onto the workspace's own [`crate::json`] values. The document
//! schema:
//!
//! ```json
//! {
//!   "schema": "minim-metrics/1",
//!   "metrics": {
//!     "counters": {"net.apply.move": 1200, ...},
//!     "gauges": {"power.settle.links": 312.0, ...},
//!     "histograms": [
//!       {"name": "power.settle_ns", "count": 40, "sum_ns": ...,
//!        "min_ns": ..., "max_ns": ..., "mean_ns": ...,
//!        "buckets": [[11, 7], ...]}
//!     ],
//!     "spans_recorded": 512,
//!     "spans_dropped": 0
//!   },
//!   "profile": {
//!     "recorded": 512, "dropped": 0,
//!     "roots": [
//!       {"name": "serve.apply", "count": 40, "total_ns": ...,
//!        "self_ns": ..., "children": [...]}
//!     ]
//!   }
//! }
//! ```
//!
//! Histogram `buckets` are `[bucket_exponent, count]` pairs — bucket
//! `b` counted observations in `[2^(b-1), 2^b)` nanoseconds. A
//! non-zero `spans_dropped` means the drop-oldest rings overwrote
//! records and the profile undercounts.

use crate::json::Json;
use minim_obs::{HistogramSnapshot, MetricsSnapshot, Profile, ProfileNode};

/// The schema tag written into every metrics document.
pub const METRICS_SCHEMA: &str = "minim-metrics/1";

/// Lowers a metrics snapshot to JSON (the `metrics` block).
pub fn metrics_to_json(snap: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        (
            "counters",
            Json::Obj(
                snap.counters
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                snap.gauges
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Arr(snap.histograms.iter().map(histogram_to_json).collect()),
        ),
        ("spans_recorded", Json::Num(snap.spans_recorded as f64)),
        ("spans_dropped", Json::Num(snap.spans_dropped as f64)),
    ])
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    Json::obj(vec![
        ("name", Json::Str(h.name.clone())),
        ("count", Json::Num(h.count as f64)),
        ("sum_ns", Json::Num(h.sum_ns as f64)),
        ("min_ns", Json::Num(h.min_ns as f64)),
        ("max_ns", Json::Num(h.max_ns as f64)),
        ("mean_ns", Json::Num(h.mean_ns())),
        (
            "buckets",
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(b, c)| Json::Arr(vec![Json::Num(b as f64), Json::Num(c as f64)]))
                    .collect(),
            ),
        ),
    ])
}

/// Lowers an aggregated span profile to JSON (the `profile` block).
pub fn profile_to_json(prof: &Profile) -> Json {
    Json::obj(vec![
        ("recorded", Json::Num(prof.recorded as f64)),
        ("dropped", Json::Num(prof.dropped as f64)),
        (
            "roots",
            Json::Arr(prof.roots.iter().map(node_to_json).collect()),
        ),
    ])
}

fn node_to_json(n: &ProfileNode) -> Json {
    Json::obj(vec![
        ("name", Json::Str(n.name.clone())),
        ("count", Json::Num(n.count as f64)),
        ("total_ns", Json::Num(n.total_ns as f64)),
        ("self_ns", Json::Num(n.self_ns as f64)),
        (
            "children",
            Json::Arr(n.children.iter().map(node_to_json).collect()),
        ),
    ])
}

/// The full `minim-metrics/1` document for the registry's current state:
/// metrics snapshot plus aggregated span profile.
pub fn trace_document() -> Json {
    Json::obj(vec![
        ("schema", Json::Str(METRICS_SCHEMA.to_string())),
        ("metrics", metrics_to_json(&minim_obs::snapshot())),
        ("profile", profile_to_json(&minim_obs::profile())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_document_round_trips_through_the_parser() {
        minim_obs::counter!("test.trace.counter", 5);
        minim_obs::observe_ns!("test.trace.hist", 100);
        {
            let _g = minim_obs::span!("test.trace.span");
        }
        let doc = trace_document();
        let text = doc.to_string_pretty();
        let parsed = crate::json::parse(&text).expect("trace document parses");
        match &parsed {
            Json::Obj(fields) => {
                assert_eq!(
                    fields.iter().find(|(k, _)| k == "schema").map(|(_, v)| v),
                    Some(&Json::Str(METRICS_SCHEMA.to_string()))
                );
                assert!(fields.iter().any(|(k, _)| k == "metrics"));
                assert!(fields.iter().any(|(k, _)| k == "profile"));
            }
            other => panic!("expected object, got {other:?}"),
        }
        if minim_obs::COMPILED {
            assert!(text.contains("test.trace.counter"));
            assert!(text.contains("test.trace.hist"));
            assert!(text.contains("test.trace.span"));
        }
    }
}
