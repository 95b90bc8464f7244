//! The benchmark's own checks: a short pass of every workload repeats
//! its work counts and digest exactly for one seed, another seed
//! changes the digest (so the seed reaches the generator), and
//! `BENCHMARK.json` lists exactly the metrics the harness emits.

use perfbench::{run, Outcome, Plan, Workload};

/// Counts that depend only on the seed and the event count.
const DETERMINISTIC: [&str; 8] = [
    "core.recodings",
    "core.max_color",
    "core.recode_set_mean",
    "core.matching_events",
    "net.edge_churn",
    "serve.bytes_per_event",
    "power.updates",
    "power.corrections",
];

const EVENTS: usize = 200;

fn quick(workload: Workload, seed: u64) -> Outcome {
    let out = run(workload, seed, &Plan::quick(EVENTS));
    let failed: Vec<_> = out.checks.iter().filter(|c| !c.passed).collect();
    assert!(
        out.correct(),
        "{}: {} failed, gates {failed:?}",
        workload.name(),
        out.failed
    );
    out
}

#[test]
fn short_passes_repeat_exactly_and_follow_the_seed() {
    for workload in Workload::ALL {
        let a = quick(workload, 7);
        let b = quick(workload, 7);
        assert_eq!(a.digest, b.digest, "{}: digest", workload.name());
        for name in DETERMINISTIC {
            let (x, y) = (a.metric(name), b.metric(name));
            assert!(x.is_some(), "{}: {name} missing", workload.name());
            assert_eq!(x, y, "{}: {name}", workload.name());
        }
        let c = quick(workload, 8);
        assert_ne!(
            a.digest,
            c.digest,
            "{}: another seed must change the stream",
            workload.name()
        );
    }
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = minim_sim::json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key}"))
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect()
    };
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names("workloads"), workloads);

    let out = run(Workload::DenseServe, 1, &Plan::quick(20));
    let emitted = |ms: &[perfbench::Metric]| -> Vec<String> {
        ms.iter().map(|m| m.name.to_string()).collect()
    };
    assert_eq!(names("end_to_end"), emitted(&out.end_to_end));
    let mut listed = names("per_layer");
    let mut per_layer = emitted(&out.per_layer);
    listed.sort();
    per_layer.sort();
    assert_eq!(listed, per_layer);
}
