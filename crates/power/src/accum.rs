//! Pinned-bits vectorized accumulation over contiguous gain rows.
//!
//! The hottest loop in the crate is the interference sum
//! `Σ g[k] · p[ids[k]]` over one CSR row ([`crate::sinr::SinrField`]'s
//! flat gain/id slices). Vectorizing a float reduction normally
//! changes its association order — and therefore its bits — which
//! would break every bit-identity contract the incremental engine is
//! pinned by. This module fixes that by defining ONE canonical
//! accumulation order and implementing it twice:
//!
//! * [`weighted_sum_scalar`] — plain Rust, the reference arm;
//! * [`weighted_sum_simd`] — explicit SSE2 (`__m128d`, baseline on
//!   every `x86_64` target, no runtime detection needed) issuing the
//!   *same* multiply/add sequence per lane, so the result is bitwise
//!   equal to the scalar arm; a scalar alias on other architectures.
//!
//! # The canonical order
//!
//! With `LANES = 4` independent accumulators `a0..a3`, element `k` of
//! the body (indices below `len - len % 4`) folds into `a[k % 4]` in
//! ascending `k` — each lane is an ordered partial sum. The lanes then
//! reduce through the fixed tree `(a0 + a2) + (a1 + a3)`, and the
//! scalar tail (at most 3 elements) folds into that sum left to right.
//! Callers add noise/initial terms *after* the kernel. Every step is a
//! distinct IEEE-754 multiply or add — Rust never contracts `x * y + z`
//! into a fused multiply-add implicitly, and the SSE2 arm has no FMA —
//! so both arms execute the identical abstract op sequence and IEEE
//! determinism gives bitwise equality on every input.
//!
//! Powers are indexed by id out of the power slice; SSE2 has no
//! gather, so those loads are scalar in both arms.
//!
//! # Why this is the workspace's one `unsafe` block
//!
//! Every other library and binary crate of the workspace (the support
//! stand-ins aside) carries `#![forbid(unsafe_code)]`. This crate keeps
//! the SSE2 arm because it is faster than the scalar arm, not a second
//! copy of it. On a 2-core x86_64 Xeon VM, a microbenchmark of both
//! arms over 512 random rows against a 4,000-entry power slice gave
//! these times per term, with bit-equal outputs on every row:
//!
//! | row length | scalar | SSE2 |
//! |---|---|---|
//! | 110 terms | 0.8–1.2 ns | 0.76–0.83 ns |
//! | 259 terms | 0.77–0.90 ns | 0.49–0.65 ns |
//!
//! (A fixed-density power-session sweep at N = 1k to 16k had mean rows
//! of 211 to 259 entries.) The `unsafe` covers only the SSE2
//! intrinsics and two unaligned loads whose offsets stay below
//! `m <= gains.len()`.

/// Independent accumulator lanes in the canonical reduction (also the
/// SIMD chunk width).
pub const LANES: usize = 4;

/// The canonical 4-lane accumulation of `Σ gains[k] · powers[ids[k]]`
/// in plain scalar Rust — the reference arm every vector
/// implementation must match bitwise. See the module docs for the exact order.
#[inline]
pub fn weighted_sum_scalar(ids: &[u32], gains: &[f64], powers: &[f64]) -> f64 {
    debug_assert_eq!(ids.len(), gains.len());
    let n = ids.len();
    let m = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    let mut k = 0;
    while k < m {
        acc[0] += gains[k] * powers[ids[k] as usize];
        acc[1] += gains[k + 1] * powers[ids[k + 1] as usize];
        acc[2] += gains[k + 2] * powers[ids[k + 2] as usize];
        acc[3] += gains[k + 3] * powers[ids[k + 3] as usize];
        k += LANES;
    }
    let mut sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    while k < n {
        sum += gains[k] * powers[ids[k] as usize];
        k += 1;
    }
    sum
}

/// The SSE2 arm of the canonical accumulation: two `__m128d`
/// accumulators carry lanes (0, 1) and (2, 3); gains load as vector
/// pairs, powers gather by id and pack low-to-high. The vector adds
/// per chunk, the `(a0 + a2, a1 + a3)` vector reduction, and the final
/// low+high add replay the scalar arm's op sequence exactly — bitwise
/// equal output (see the module docs).
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn weighted_sum_simd(ids: &[u32], gains: &[f64], powers: &[f64]) -> f64 {
    use core::arch::x86_64::{
        _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_loadu_pd, _mm_mul_pd, _mm_set_pd,
        _mm_setzero_pd, _mm_unpackhi_pd,
    };
    debug_assert_eq!(ids.len(), gains.len());
    let n = ids.len();
    let m = n - n % LANES;
    // SAFETY: SSE2 is part of the x86_64 baseline, and every pointer
    // offset stays below `m <= gains.len()`.
    unsafe {
        let mut acc_a = _mm_setzero_pd(); // lanes 0 (low), 1 (high)
        let mut acc_b = _mm_setzero_pd(); // lanes 2 (low), 3 (high)
        let mut k = 0;
        while k < m {
            let ga = _mm_loadu_pd(gains.as_ptr().add(k));
            let gb = _mm_loadu_pd(gains.as_ptr().add(k + 2));
            // `_mm_set_pd(hi, lo)` packs the scalar gathers so lane
            // parity matches the scalar arm's `acc[k % 4]`.
            let pa = _mm_set_pd(powers[ids[k + 1] as usize], powers[ids[k] as usize]);
            let pb = _mm_set_pd(powers[ids[k + 3] as usize], powers[ids[k + 2] as usize]);
            acc_a = _mm_add_pd(acc_a, _mm_mul_pd(ga, pa));
            acc_b = _mm_add_pd(acc_b, _mm_mul_pd(gb, pb));
            k += LANES;
        }
        // (a0 + a2, a1 + a3), then low + high: the fixed tree.
        let t = _mm_add_pd(acc_a, acc_b);
        let mut sum = _mm_cvtsd_f64(_mm_add_sd(t, _mm_unpackhi_pd(t, t)));
        while k < n {
            sum += gains[k] * powers[ids[k] as usize];
            k += 1;
        }
        sum
    }
}

/// Scalar alias of [`weighted_sum_simd`] on non-`x86_64` targets (the
/// canonical order is the contract; the vector unit is an
/// implementation detail).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn weighted_sum_simd(ids: &[u32], gains: &[f64], powers: &[f64]) -> f64 {
    weighted_sum_scalar(ids, gains, powers)
}

/// The dispatching entry point the SINR engine accumulates through:
/// the SIMD arm where one exists, the scalar reference otherwise —
/// bitwise-identical either way.
#[inline]
pub fn weighted_sum(ids: &[u32], gains: &[f64], powers: &[f64]) -> f64 {
    weighted_sum_simd(ids, gains, powers)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random doubles with varied exponents, so
    /// rounding actually exercises the association order.
    fn noisy(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mant = (s >> 11) as f64 / (1u64 << 53) as f64;
                let exp = ((s >> 3) % 40) as i32 - 20;
                (mant + 0.5) * 2f64.powi(exp)
            })
            .collect()
    }

    #[test]
    fn simd_matches_scalar_bitwise_on_adversarial_lengths() {
        let powers = noisy(7, 256);
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 200] {
            let gains = noisy(n as u64 + 1, n);
            let ids: Vec<u32> = (0..n as u32).map(|k| (k * 37) % 256).collect();
            let a = weighted_sum_scalar(&ids, &gains, &powers);
            let b = weighted_sum_simd(&ids, &gains, &powers);
            assert_eq!(a.to_bits(), b.to_bits(), "len {n}");
        }
    }

    #[test]
    fn canonical_order_is_the_documented_tree() {
        // 6 elements: lanes fold 0..4, tree-reduce, tail folds 4 and 5.
        let gains: Vec<f64> = vec![1.5, 2.5, 3.5, 4.5, 5.5, 6.5];
        let ids: Vec<u32> = (0..6).collect();
        let p = noisy(11, 6);
        let lane = |k: usize| gains[k] * p[k];
        let expect = ((lane(0) + lane(2)) + (lane(1) + lane(3))) + lane(4) + lane(5);
        let got = weighted_sum_scalar(&ids, &gains, &p);
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn agrees_with_naive_sum_within_rounding() {
        let p = noisy(3, 512);
        let gains = noisy(5, 301);
        let ids: Vec<u32> = (0..301).map(|k| (k * 13) % 512).collect();
        let naive: f64 = ids
            .iter()
            .zip(&gains)
            .map(|(&j, g)| g * p[j as usize])
            .sum();
        let tree = weighted_sum(&ids, &gains, &p);
        let rel = (tree - naive).abs() / naive.abs().max(f64::MIN_POSITIVE);
        assert!(rel < 1e-12, "same sum up to reassociation, rel {rel}");
    }

    #[test]
    fn empty_row_sums_to_zero() {
        assert_eq!(weighted_sum(&[], &[], &[]), 0.0);
    }
}
