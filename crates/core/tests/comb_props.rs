//! Property tests for the log-space combinatorics in `dvf_core::comb`.
//!
//! `ln_gamma` is the foundation of the random-access (Eq. 5) and
//! data-reuse (Eqs. 8, 12) models; Eq. 12 in particular evaluates the
//! gamma-continued binomial coefficient at a *non-integer* first
//! argument, so these properties pin both the classical identities and
//! the real-argument extension.

use dvf_cachesim::CacheConfig;
use dvf_core::comb::{
    binomial, binomial_pmf, binomial_tail_ge, hypergeometric_pmf, ln_binomial, ln_binomial_real,
    ln_factorial, ln_gamma,
};
use dvf_core::patterns::random::expected_not_in_cache;
use dvf_core::patterns::{CacheView, ReuseSpec};
use proptest::prelude::*;

const SQRT_PI: f64 = 1.772_453_850_905_516;

fn assert_rel(a: f64, b: f64, tol: f64) {
    assert!(
        (a - b).abs() <= tol * b.abs().max(1.0),
        "expected {b}, got {a}"
    );
}

#[test]
fn ln_gamma_known_values() {
    // Γ(1/2) = √π, Γ(3/2) = √π/2, Γ(5/2) = 3√π/4 — the half-integer
    // ladder exercises both the reflection branch (x < 0.5) and the
    // Lanczos core.
    assert_rel(ln_gamma(0.5), SQRT_PI.ln(), 1e-13);
    assert_rel(ln_gamma(1.5), (SQRT_PI / 2.0).ln(), 1e-13);
    assert_rel(ln_gamma(2.5), (3.0 * SQRT_PI / 4.0).ln(), 1e-13);
    // Γ(1/3) — a non-half-integer reflection-path value (Abramowitz & Stegun).
    assert_rel(ln_gamma(1.0 / 3.0), 2.678_938_534_707_748_f64.ln(), 1e-12);
    // Γ(1) = Γ(2) = 1.
    assert!(ln_gamma(1.0).abs() < 1e-13);
    assert!(ln_gamma(2.0).abs() < 1e-13);
}

proptest! {
    /// Recurrence Γ(x+1) = x·Γ(x), i.e. lnΓ(x+1) = ln x + lnΓ(x),
    /// across the reflection/Lanczos seam at x = 0.5.
    #[test]
    fn ln_gamma_recurrence(x in 0.01f64..60.0) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() <= 1e-10 * lhs.abs().max(1.0),
            "x = {x}: lnΓ(x+1) = {lhs}, ln x + lnΓ(x) = {rhs}");
    }

    /// Integer agreement: lnΓ(n+1) = ln(n!).
    #[test]
    fn ln_gamma_matches_factorial(n in 1u64..170) {
        let lhs = ln_gamma(n as f64 + 1.0);
        let rhs = ln_factorial(n);
        prop_assert!((lhs - rhs).abs() <= 1e-11 * rhs.abs().max(1.0));
    }

    /// The gamma-continued binomial coefficient at non-integer `n`
    /// (the Eq. 12 path) matches the falling-factorial product
    /// C(n, k) = Π_{j=1..k} (n − k + j) / j for integer k.
    #[test]
    fn ln_binomial_real_matches_product(frac in 0.01f64..0.99, whole in 1u64..40, k in 0u64..12) {
        let n = whole as f64 + frac; // strictly non-integer
        prop_assume!((k as f64) <= n);
        let mut product = 1.0f64;
        for j in 1..=k {
            product *= (n - k as f64 + j as f64) / j as f64;
        }
        let got = ln_binomial_real(n, k as f64).exp();
        prop_assert!((got - product).abs() <= 1e-10 * product.abs().max(1.0),
            "C({n}, {k}): got {got}, product {product}");
    }

    /// Pascal's rule survives the continuation to real n:
    /// C(n, k) = C(n−1, k−1) + C(n−1, k).
    #[test]
    fn ln_binomial_real_pascal(frac in 0.01f64..0.99, whole in 2u64..40, k in 1u64..12) {
        let n = whole as f64 + frac;
        prop_assume!((k as f64) <= n - 1.0);
        let lhs = ln_binomial_real(n, k as f64).exp();
        let rhs = ln_binomial_real(n - 1.0, k as f64 - 1.0).exp()
            + ln_binomial_real(n - 1.0, k as f64).exp();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * rhs.abs().max(1.0));
    }

    /// Real-argument extension agrees with the integer path on integers.
    #[test]
    fn ln_binomial_real_extends_integer(n in 0u64..500, k in 0u64..500) {
        let real = ln_binomial_real(n as f64, k as f64);
        let int = ln_binomial(n, k);
        if k > n {
            prop_assert_eq!(real, f64::NEG_INFINITY);
            prop_assert_eq!(int, f64::NEG_INFINITY);
        } else {
            prop_assert!((real - int).abs() <= 1e-10 * int.abs().max(1.0));
        }
    }
}

#[test]
fn ln_binomial_real_known_values() {
    // C(2.5, 1) = 2.5 and C(7.3, 3) = 7.3·6.3·5.3/6 — hand-checkable
    // non-integer points of the Eq. 12 path.
    assert_rel(ln_binomial_real(2.5, 1.0).exp(), 2.5, 1e-12);
    assert_rel(
        ln_binomial_real(7.3, 3.0).exp(),
        7.3 * 6.3 * 5.3 / 6.0,
        1e-12,
    );
    // Out-of-support inputs are the coefficient's natural zero.
    assert_eq!(ln_binomial_real(3.0, 3.5), f64::NEG_INFINITY);
    assert_eq!(ln_binomial_real(3.0, -0.5), f64::NEG_INFINITY);
    assert_eq!(binomial(3, 7), 0.0);
}

// Per-term reference formulas: every log term re-evaluated for every
// term, as the closed forms are written on paper. The library hoists the
// terms that do not depend on the summation index; it must agree with
// these to the bit.

fn reference_binomial_pmf(n: u64, p: f64, j: u64) -> f64 {
    if j > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if j == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if j == n { 1.0 } else { 0.0 };
    }
    (ln_binomial(n, j) + j as f64 * p.ln() + (n - j) as f64 * (1.0 - p).ln()).exp()
}

fn reference_binomial_tail_ge(n: u64, p: f64, j: u64) -> f64 {
    if j == 0 {
        return 1.0;
    }
    if j > n {
        return 0.0;
    }
    let mut acc = 0.0;
    for x in j..=n {
        let t = reference_binomial_pmf(n, p, x);
        acc += t;
        if t < 1e-18 && (x as f64) > n as f64 * p + 10.0 {
            break;
        }
    }
    acc.min(1.0)
}

fn reference_hypergeometric_pmf(n: u64, k: u64, m: u64, j: u64) -> f64 {
    if m > n || k > n {
        return 0.0;
    }
    if j < (m + k).saturating_sub(n) || j > k.min(m) {
        return 0.0;
    }
    (ln_binomial(k, j) + ln_binomial(n - k, m - j) - ln_binomial(n, m)).exp()
}

fn reference_expected_not_in_cache(n: u64, k: u64, m: u64) -> f64 {
    if m >= n {
        return 0.0;
    }
    let mut acc = 0.0;
    for x in 1..=(n - m).min(k) {
        acc += x as f64 * reference_hypergeometric_pmf(n, k, m, k - x);
    }
    acc
}

proptest! {
    /// The hoisted binomial pmf and tail equal the per-term formula bit
    /// for bit, across the `ln n!` table edge and the degenerate `p`.
    #[test]
    fn hoisted_binomial_is_bit_identical(
        n in 0u64..20_000,
        p_num in 0u64..=1000,
        j in 0u64..300,
    ) {
        let p = p_num as f64 / 1000.0;
        prop_assert_eq!(binomial_pmf(n, p, j).to_bits(), reference_binomial_pmf(n, p, j).to_bits());
        prop_assert_eq!(
            binomial_tail_ge(n, p, j).to_bits(),
            reference_binomial_tail_ge(n, p, j).to_bits()
        );
    }

    /// Eq. 8's footprint distribution through one hoisted binomial equals
    /// per-term pmfs plus the per-term saturated tail.
    #[test]
    fn hoisted_footprint_distribution_is_bit_identical(
        f in 0u64..400_000,
        ways in 1usize..=16,
        sets_log2 in 0u32..=12,
    ) {
        let cfg = CacheConfig::new(ways, 1 << sets_log2, 64).unwrap();
        let p = 1.0 / cfg.num_sets as f64;
        let ca = ways as u64;
        let mut want: Vec<u64> = (0..ca).map(|x| reference_binomial_pmf(f, p, x).to_bits()).collect();
        want.push(reference_binomial_tail_ge(f, p, ca).to_bits());
        let got: Vec<u64> = ReuseSpec::footprint_distribution(f, &CacheView::exclusive(cfg))
            .iter()
            .map(|v| v.to_bits())
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Eq. 6's sum with `ln C(n, m)` and `ln (n−k)!` hoisted equals the
    /// per-term hypergeometric sum, both in and beyond the `ln n!` table.
    #[test]
    fn hoisted_expected_not_in_cache_is_bit_identical(
        n in 1u64..3_000_000,
        k_frac in 0.0f64..1.0,
        m_frac in 0.0f64..1.1,
        k_cap in 1u64..400,
    ) {
        let k = ((n as f64 * k_frac) as u64).min(k_cap);
        let m = (n as f64 * m_frac) as u64;
        prop_assert_eq!(
            expected_not_in_cache(n, k, m).to_bits(),
            reference_expected_not_in_cache(n, k, m).to_bits()
        );
        for j in [0, k / 2, k] {
            prop_assert_eq!(
                hypergeometric_pmf(n, k, m, j).to_bits(),
                reference_hypergeometric_pmf(n, k, m, j).to_bits()
            );
        }
    }
}
