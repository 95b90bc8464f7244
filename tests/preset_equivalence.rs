//! Pins the migrated `fig10/11/12` scenario presets to the exact
//! pre-refactor outputs, point for point.
//!
//! The golden strings below are the `Debug` rendering of each figure's
//! table rows as produced by the original hand-coded drivers (PR 1
//! state, commit c413e03) at `runs = 6, seed = 0xC0FFEE, workers = 3`.
//! `Debug` for `f64` is shortest-roundtrip, so string equality is bit
//! equality of every mean/std/min/max. If one of these ever breaks,
//! the scenario lowering no longer reproduces the paper's §5 protocol
//! — fix the lowering, do not re-capture the goldens.

use minim::sim::experiments::{
    fig10_vs_avg_range, fig10_vs_n, fig11_power_increase, fig12_vs_maxdisp, fig12_vs_rounds,
    ExperimentConfig,
};

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        runs: 6,
        seed: 0xC0FFEE,
        workers: 3,
    }
}

#[test]
fn fig10_vs_n_matches_pre_refactor_driver() {
    let figs = fig10_vs_n(&cfg(), &[40, 70]);
    assert_eq!(
        format!("{:?}", figs.colors.rows),
        "[TableRow { x: 40.0, values: [Stats { mean: 13.333333333333334, std: 1.8618986725025255, min: 11.0, max: 15.0, n: 6 }, Stats { mean: 14.833333333333334, std: 2.0412414523193148, min: 11.0, max: 17.0, n: 6 }, Stats { mean: 12.666666666666666, std: 1.7511900715418263, min: 10.0, max: 14.0, n: 6 }] }, TableRow { x: 70.0, values: [Stats { mean: 21.0, std: 2.1908902300206643, min: 19.0, max: 25.0, n: 6 }, Stats { mean: 23.666666666666668, std: 2.3380903889000244, min: 21.0, max: 27.0, n: 6 }, Stats { mean: 19.333333333333332, std: 2.0655911179772892, min: 17.0, max: 22.0, n: 6 }] }]"
    );
    assert_eq!(
        format!("{:?}", figs.recodings.rows),
        "[TableRow { x: 40.0, values: [Stats { mean: 46.666666666666664, std: 1.8618986725025255, min: 45.0, max: 49.0, n: 6 }, Stats { mean: 50.5, std: 2.258317958127243, min: 48.0, max: 54.0, n: 6 }, Stats { mean: 222.0, std: 49.73932046178355, min: 156.0, max: 286.0, n: 6 }] }, TableRow { x: 70.0, values: [Stats { mean: 81.5, std: 2.588435821108957, min: 79.0, max: 85.0, n: 6 }, Stats { mean: 84.83333333333333, std: 5.980523945831725, min: 78.0, max: 95.0, n: 6 }, Stats { mean: 760.6666666666666, std: 129.80395474201342, min: 540.0, max: 896.0, n: 6 }] }]"
    );
}

#[test]
fn fig10_vs_avg_range_matches_pre_refactor_driver() {
    let figs = fig10_vs_avg_range(&cfg(), &[10.0, 30.0], 40);
    assert_eq!(
        format!("{:?}", figs.colors.rows),
        "[TableRow { x: 10.0, values: [Stats { mean: 5.166666666666667, std: 0.983192080250175, min: 4.0, max: 7.0, n: 6 }, Stats { mean: 5.833333333333333, std: 1.7224014243685084, min: 4.0, max: 9.0, n: 6 }, Stats { mean: 5.166666666666667, std: 0.983192080250175, min: 4.0, max: 7.0, n: 6 }] }, TableRow { x: 30.0, values: [Stats { mean: 14.666666666666666, std: 1.8618986725025255, min: 13.0, max: 17.0, n: 6 }, Stats { mean: 15.0, std: 1.8973665961010275, min: 13.0, max: 17.0, n: 6 }, Stats { mean: 13.666666666666666, std: 1.632993161855452, min: 12.0, max: 16.0, n: 6 }] }]"
    );
    assert_eq!(
        format!("{:?}", figs.recodings.rows),
        "[TableRow { x: 10.0, values: [Stats { mean: 40.666666666666664, std: 0.816496580927726, min: 40.0, max: 42.0, n: 6 }, Stats { mean: 41.0, std: 1.0954451150103321, min: 40.0, max: 42.0, n: 6 }, Stats { mean: 55.0, std: 9.033271832508971, min: 43.0, max: 63.0, n: 6 }] }, TableRow { x: 30.0, values: [Stats { mean: 45.5, std: 2.16794833886788, min: 43.0, max: 49.0, n: 6 }, Stats { mean: 50.666666666666664, std: 4.88535225614967, min: 46.0, max: 57.0, n: 6 }, Stats { mean: 275.8333333333333, std: 43.12037414803664, min: 230.0, max: 350.0, n: 6 }] }]"
    );
}

#[test]
fn fig11_power_increase_matches_pre_refactor_driver() {
    let figs = fig11_power_increase(&cfg(), &[1.0, 3.0], 40);
    assert_eq!(
        format!("{:?}", figs.dcolors.rows),
        "[TableRow { x: 1.0, values: [Stats { mean: 0.0, std: 0.0, min: 0.0, max: 0.0, n: 6 }, Stats { mean: 0.0, std: 0.0, min: 0.0, max: 0.0, n: 6 }, Stats { mean: 0.0, std: 0.0, min: 0.0, max: 0.0, n: 6 }] }, TableRow { x: 3.0, values: [Stats { mean: 16.833333333333332, std: 1.8348478592697182, min: 15.0, max: 20.0, n: 6 }, Stats { mean: 24.833333333333332, std: 2.316606713852541, min: 21.0, max: 28.0, n: 6 }, Stats { mean: 14.833333333333334, std: 1.7224014243685084, min: 12.0, max: 17.0, n: 6 }] }]"
    );
    assert_eq!(
        format!("{:?}", figs.drecodings.rows),
        "[TableRow { x: 1.0, values: [Stats { mean: 0.0, std: 0.0, min: 0.0, max: 0.0, n: 6 }, Stats { mean: 0.0, std: 0.0, min: 0.0, max: 0.0, n: 6 }, Stats { mean: 0.0, std: 0.0, min: 0.0, max: 0.0, n: 6 }] }, TableRow { x: 3.0, values: [Stats { mean: 18.333333333333332, std: 1.5055453054181622, min: 16.0, max: 20.0, n: 6 }, Stats { mean: 25.5, std: 1.8708286933869707, min: 23.0, max: 28.0, n: 6 }, Stats { mean: 566.6666666666666, std: 29.076909510239677, min: 533.0, max: 612.0, n: 6 }] }]"
    );
}

#[test]
fn fig12_vs_maxdisp_matches_pre_refactor_driver() {
    let figs = fig12_vs_maxdisp(&cfg(), &[10.0, 40.0], 20);
    assert_eq!(
        format!("{:?}", figs.dcolors.rows),
        "[TableRow { x: 10.0, values: [Stats { mean: 0.3333333333333333, std: 0.5163977794943223, min: 0.0, max: 1.0, n: 6 }, Stats { mean: 0.6666666666666666, std: 0.816496580927726, min: 0.0, max: 2.0, n: 6 }, Stats { mean: -0.3333333333333333, std: 1.0327955589886446, min: -2.0, max: 1.0, n: 6 }] }, TableRow { x: 40.0, values: [Stats { mean: 1.5, std: 1.378404875209022, min: 0.0, max: 3.0, n: 6 }, Stats { mean: 1.5, std: 2.073644135332772, min: -2.0, max: 4.0, n: 6 }, Stats { mean: -0.6666666666666666, std: 2.160246899469287, min: -4.0, max: 2.0, n: 6 }] }]"
    );
    assert_eq!(
        format!("{:?}", figs.drecodings.rows),
        "[TableRow { x: 10.0, values: [Stats { mean: 2.0, std: 1.2649110640673518, min: 0.0, max: 3.0, n: 6 }, Stats { mean: 7.666666666666667, std: 3.3862466931200785, min: 4.0, max: 13.0, n: 6 }, Stats { mean: 44.333333333333336, std: 17.51190071541826, min: 26.0, max: 65.0, n: 6 }] }, TableRow { x: 40.0, values: [Stats { mean: 4.833333333333333, std: 2.562550812504343, min: 1.0, max: 9.0, n: 6 }, Stats { mean: 13.5, std: 5.282045058497703, min: 4.0, max: 20.0, n: 6 }, Stats { mean: 89.0, std: 21.559220765138985, min: 70.0, max: 126.0, n: 6 }] }]"
    );
}

#[test]
fn fig12_vs_rounds_matches_pre_refactor_driver() {
    let figs = fig12_vs_rounds(&cfg(), 3, 20, 40.0);
    assert_eq!(
        format!("{:?}", figs.dcolors.rows),
        "[TableRow { x: 1.0, values: [Stats { mean: 0.6666666666666666, std: 0.816496580927726, min: 0.0, max: 2.0, n: 6 }, Stats { mean: 0.6666666666666666, std: 1.632993161855452, min: -2.0, max: 3.0, n: 6 }, Stats { mean: -1.0, std: 1.0954451150103321, min: -2.0, max: 1.0, n: 6 }] }, TableRow { x: 2.0, values: [Stats { mean: 1.8333333333333333, std: 0.408248290463863, min: 1.0, max: 2.0, n: 6 }, Stats { mean: 2.3333333333333335, std: 1.3662601021279464, min: 0.0, max: 4.0, n: 6 }, Stats { mean: 0.16666666666666666, std: 1.4719601443879744, min: -2.0, max: 2.0, n: 6 }] }, TableRow { x: 3.0, values: [Stats { mean: 1.8333333333333333, std: 0.408248290463863, min: 1.0, max: 2.0, n: 6 }, Stats { mean: 0.5, std: 1.0488088481701516, min: -1.0, max: 2.0, n: 6 }, Stats { mean: -0.8333333333333334, std: 1.7224014243685084, min: -3.0, max: 2.0, n: 6 }] }]"
    );
    assert_eq!(
        format!("{:?}", figs.drecodings.rows),
        "[TableRow { x: 1.0, values: [Stats { mean: 6.166666666666667, std: 1.3291601358251257, min: 5.0, max: 8.0, n: 6 }, Stats { mean: 12.0, std: 2.8284271247461903, min: 7.0, max: 15.0, n: 6 }, Stats { mean: 89.16666666666667, std: 22.95575454361426, min: 65.0, max: 120.0, n: 6 }] }, TableRow { x: 2.0, values: [Stats { mean: 12.333333333333334, std: 3.011090610836324, min: 9.0, max: 16.0, n: 6 }, Stats { mean: 25.0, std: 4.147288270665544, min: 19.0, max: 30.0, n: 6 }, Stats { mean: 198.33333333333334, std: 12.971764207950539, min: 180.0, max: 220.0, n: 6 }] }, TableRow { x: 3.0, values: [Stats { mean: 13.5, std: 3.0166206257996713, min: 10.0, max: 17.0, n: 6 }, Stats { mean: 35.833333333333336, std: 3.5449494589721118, min: 31.0, max: 39.0, n: 6 }, Stats { mean: 274.1666666666667, std: 18.01573386422731, min: 248.0, max: 293.0, n: 6 }] }]"
    );
}
