//! End-to-end smoke tests of the experiment harness: thin versions of
//! every figure, checking the paper's qualitative shapes and the
//! plumbing (tables, CSV, determinism) without the full 100-replicate
//! cost. The full protocol runs via
//! `cargo run --release -p minim-bench --bin repro`.

use minim::sim::experiments::{
    ablation_cp_pick, ablation_keep_weight, fig10_vs_avg_range, fig10_vs_n, fig11_power_increase,
    fig12_vs_maxdisp, fig12_vs_rounds, gossip_study, ExperimentConfig,
};

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        runs: 6,
        seed: 0xC0FFEE,
        workers: 2,
    }
}

#[test]
fn fig10_join_sweep_shapes() {
    let figs = fig10_vs_n(&cfg(), &[40, 70]);
    // BBB recodes at least 3x the local strategies everywhere.
    for row in &figs.recodings.rows {
        let (minim, cp, bbb) = (row.values[0].mean, row.values[1].mean, row.values[2].mean);
        assert!(bbb > 3.0 * minim, "BBB ({bbb}) >> Minim ({minim})");
        assert!(bbb > 2.0 * cp, "BBB ({bbb}) >> CP ({cp})");
        assert!(minim <= cp * 1.15 + 2.0, "Minim ({minim}) <~ CP ({cp})");
    }
    // Colors: BBB <= Minim <= CP up to small noise.
    for row in &figs.colors.rows {
        let (minim, cp, bbb) = (row.values[0].mean, row.values[1].mean, row.values[2].mean);
        assert!(bbb <= minim + 1.0);
        assert!(minim <= cp + 1.0);
    }
    // CSV sanity.
    let csv = figs.colors.to_csv();
    assert!(csv.starts_with("N,Minim mean,Minim std,CP mean,CP std,BBB mean,BBB std"));
    assert_eq!(csv.lines().count(), 3);
}

#[test]
fn fig10_range_sweep_monotone_colors() {
    let figs = fig10_vs_avg_range(&cfg(), &[10.0, 30.0, 50.0], 40);
    // Denser networks need more colors for every strategy.
    for si in 0..3 {
        let m = figs.colors.series_means(si);
        assert!(m[0].1 < m[1].1 && m[1].1 < m[2].1, "series {si}: {m:?}");
    }
}

#[test]
fn fig11_power_sweep_shapes() {
    let figs = fig11_power_increase(&cfg(), &[1.0, 3.0], 40);
    // raisefactor 1.0 is a no-op: zero deltas everywhere.
    let base = &figs.drecodings.rows[0];
    for v in &base.values {
        assert_eq!(v.mean, 0.0);
    }
    // At factor 3, BBB explodes and Minim stays smallest (±noise).
    let row = &figs.drecodings.rows[1];
    let (minim, cp, bbb) = (row.values[0].mean, row.values[1].mean, row.values[2].mean);
    assert!(minim <= cp * 1.15 + 2.0);
    assert!(bbb > 5.0 * cp);
}

#[test]
fn fig12_movement_shapes() {
    let figs = fig12_vs_rounds(&cfg(), 3, 20, 40.0);
    // Cumulative recodings strictly increase per round; CP pays much
    // more than Minim under mobility (the §5.3 headline).
    for si in 0..3 {
        let m = figs.drecodings.series_means(si);
        assert!(m[0].1 < m[2].1);
    }
    let last = figs.drecodings.rows.last().unwrap();
    assert!(
        last.values[1].mean > 1.5 * last.values[0].mean,
        "CP ({}) must pay well over Minim ({}) under mobility",
        last.values[1].mean,
        last.values[0].mean
    );

    let disp = fig12_vs_maxdisp(&cfg(), &[10.0, 60.0], 20);
    // More displacement, more recodings.
    for si in 0..3 {
        let m = disp.drecodings.series_means(si);
        assert!(m[0].1 <= m[1].1 + 1e-9, "series {si}");
    }
}

#[test]
fn ablations_and_gossip_run() {
    let w = ablation_keep_weight(&cfg(), &[1, 3], 30);
    assert!(w.rows[1].values[0].mean <= w.rows[0].values[0].mean + 1e-9);

    let p = ablation_cp_pick(&cfg(), &[30]);
    // Exact constraints never use more colors than 2-hop avoidance.
    assert!(p.rows[0].values[1].mean <= p.rows[0].values[0].mean + 1e-9);

    let g = gossip_study(&cfg(), &[3], 25);
    assert!(g.rows[0].values[1].mean <= g.rows[0].values[0].mean + 1e-9);
}

#[test]
fn harness_is_deterministic_across_worker_counts() {
    let one = ExperimentConfig {
        runs: 4,
        seed: 99,
        workers: 1,
    };
    let many = ExperimentConfig {
        runs: 4,
        seed: 99,
        workers: 8,
    };
    let a = fig10_vs_n(&one, &[30]);
    let b = fig10_vs_n(&many, &[30]);
    assert_eq!(a.recodings.rows[0].values, b.recodings.rows[0].values);
    assert_eq!(a.colors.rows[0].values, b.colors.rows[0].values);
}
