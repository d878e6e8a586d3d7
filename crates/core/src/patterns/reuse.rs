//! Data reuse pattern (paper §III-C, Eqs. 8–15).
//!
//! Models a data structure `A` that is repeatedly reused while other data
//! structures (collectively `B`) interfere with it in the cache — the `p`
//! vector in CG is the paper's running example. The model is a probability
//! analysis over *cache sets*:
//!
//! * Eq. 8 — blocks land in sets as Bernoulli trials with probability
//!   `1/NA`; the number of `A`-blocks in one set is binomial, saturated at
//!   the associativity `CA`. (The paper's typesetting omits the binomial
//!   coefficient `C(F_A, x)`; we restore it — without it Eq. 8 is not a
//!   probability distribution. With it the model matches the cited
//!   Thiebaut–Stone footprint analysis.)
//! * Eq. 9 — expected `A`-blocks per set under exclusive use.
//! * Eq. 10 — allocation when `A` and `B` are loaded concurrently:
//!   proportional sharing once a set overflows.
//! * Eq. 11 — interference after an exclusive load: LRU evicts non-`A`
//!   blocks first, so `A` retains `CA − y` blocks in overflowing sets.
//! * Eq. 12 — interference after a concurrent load: any of the `I`
//!   resident blocks is equally likely to be evicted (hypergeometric).
//! * Eqs. 13–15 — combine over the joint distribution of `(X_A, X_B)` to
//!   get `E(R_A)`, the expected `A`-blocks per set that survive.
//!
//! `N_ha(A) = F_A + reuses · max(0, F_A − NA·E(R_A))`: the initial load
//! plus, per reuse, the blocks that no longer reside anywhere.

use super::{CacheView, ModelError};
use crate::comb::{ln_binomial_real, Binomial};

/// Which of the paper's two interference scenarios applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterferenceScenario {
    /// `A` is loaded exclusively, then `B` interferes; LRU protects the
    /// just-accessed `A` blocks (Eq. 11). The paper's first scenario.
    #[default]
    Exclusive,
    /// `A` and `B` are loaded concurrently and interleave; evictions strike
    /// resident blocks uniformly (Eqs. 10 and 12). The paper's second
    /// scenario.
    Concurrent,
}

/// Specification of a reuse pattern for a target data structure `A`
/// interfered by the combined footprint `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseSpec {
    /// `F_A`: footprint of the target structure, in cache blocks.
    pub target_blocks: u64,
    /// `F_B`: combined footprint of the interfering structures, in blocks.
    pub interfering_blocks: u64,
    /// Number of times `A` is reused after its initial load.
    pub reuses: u64,
    /// Interference scenario.
    pub scenario: InterferenceScenario,
}

/// Decomposition of the reuse-model estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseBreakdown {
    /// Expected `A`-blocks per set surviving interference (`E(R_A)`).
    pub expected_resident_per_set: f64,
    /// Blocks of `A` reloaded per reuse: `max(0, F_A − NA·E(R_A))`.
    pub reload_per_reuse: f64,
    /// Total: `F_A + reuses · reload_per_reuse`.
    pub total: f64,
}

impl ReuseSpec {
    /// Validate parameters.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.target_blocks == 0 {
            return Err(ModelError::ZeroParameter("target_blocks"));
        }
        Ok(())
    }

    /// Distribution of `X` (blocks of a structure with footprint `f` in one
    /// set under exclusive use) — Eq. 8 with the binomial coefficient
    /// restored, saturated at the associativity.
    ///
    /// Returns `P(X = x)` for `x = 0..=CA`.
    pub fn footprint_distribution(f: u64, cache: &CacheView) -> Vec<f64> {
        let ca = cache.config.associativity as u64;
        let blocks_in_set = Binomial::new(f, 1.0 / cache.config.num_sets as f64);
        let mut dist = Vec::with_capacity(ca as usize + 1);
        for x in 0..ca {
            dist.push(blocks_in_set.pmf(x));
        }
        dist.push(blocks_in_set.tail_ge(ca));
        dist
    }

    /// Expected blocks per set under exclusive use (Eq. 9).
    pub fn expected_exclusive(f: u64, cache: &CacheView) -> f64 {
        Self::footprint_distribution(f, cache)
            .iter()
            .enumerate()
            .map(|(x, p)| x as f64 * p)
            .sum()
    }

    /// `E(R_A | X_A = x, X_B = y)`, where `combined_i` is Eq. 12's `I`
    /// under the concurrent scenario and `None` under the exclusive one.
    ///
    /// * Exclusive (Eq. 11): `x` if the set doesn't overflow, else `CA − y`.
    /// * Concurrent (Eq. 12): hypergeometric eviction out of the expected
    ///   combined residency `I`.
    fn conditional_resident(x: u64, y: u64, ca: u64, combined_i: Option<f64>) -> f64 {
        match combined_i {
            None => {
                if x + y <= ca {
                    x as f64
                } else {
                    (ca.saturating_sub(y)) as f64
                }
            }
            Some(i) => expected_after_uniform_eviction(x, y, i),
        }
    }

    /// Full model (Eqs. 8–15), with intermediates exposed.
    pub fn breakdown(&self, cache: &CacheView) -> Result<ReuseBreakdown, ModelError> {
        self.validate()?;
        let ca = cache.config.associativity as u64;
        let na = cache.config.num_sets as f64;
        let fa = self.target_blocks;
        let fb = self.interfering_blocks;

        let dist_a = Self::footprint_distribution(fa, cache);
        let dist_b = Self::footprint_distribution(fb, cache);
        // Eq. 12's `I`: expected combined per-set residency, treating A and
        // B as one structure. Only the concurrent scenario reads it.
        let combined_i = (self.scenario == InterferenceScenario::Concurrent)
            .then(|| Self::expected_exclusive(fa + fb, cache).min(ca as f64));

        // Eqs. 13–15: E(R_A) = Σ_{x,y} E(R_A|x,y) P(X_A=x) P(X_B=y).
        let mut expected_resident = 0.0;
        for (x, pa) in dist_a.iter().enumerate() {
            if *pa == 0.0 {
                continue;
            }
            for (y, pb) in dist_b.iter().enumerate() {
                if *pb == 0.0 {
                    continue;
                }
                expected_resident +=
                    pa * pb * Self::conditional_resident(x as u64, y as u64, ca, combined_i);
            }
        }

        let reload = (fa as f64 - na * expected_resident).max(0.0);
        Ok(ReuseBreakdown {
            expected_resident_per_set: expected_resident,
            reload_per_reuse: reload,
            total: fa as f64 + reload * self.reuses as f64,
        })
    }

    /// Expected main-memory accesses (`N_ha`).
    pub fn mem_accesses(&self, cache: &CacheView) -> Result<f64, ModelError> {
        Ok(self.breakdown(cache)?.total)
    }

    /// Convenience: build a spec from byte sizes, converting to blocks.
    pub fn from_bytes(
        target_bytes: u64,
        interfering_bytes: u64,
        reuses: u64,
        scenario: InterferenceScenario,
        line_bytes: u64,
    ) -> Self {
        Self {
            target_blocks: target_bytes.div_ceil(line_bytes),
            interfering_blocks: interfering_bytes.div_ceil(line_bytes),
            reuses,
            scenario,
        }
    }
}

/// Eq. 12: expected surviving `A`-blocks when `y` accesses evict uniformly
/// from `i` resident blocks of which `x` belong to `A`.
///
/// Evaluated as the normalized hypergeometric sum
/// `P(R_A = r) ∝ C(x, x−r) · C(i−x, y−x+r) / C(i, y)` over `r = 0..=x`,
/// using the gamma-function continuation for the non-integer expected
/// residency `i`. Falls back to the closed-form mean `x·(1 − y/i)` when the
/// support collapses (numerically empty sum).
pub fn expected_after_uniform_eviction(x: u64, y: u64, i: f64) -> f64 {
    if x == 0 {
        return 0.0;
    }
    if i <= 0.0 {
        return 0.0;
    }
    let yf = y as f64;
    if yf >= i {
        // Everything resident is evicted.
        return 0.0;
    }
    let ln_denom = ln_binomial_real(i, yf);
    let mut weight_sum = 0.0;
    let mut value_sum = 0.0;
    for r in 0..=x {
        let evicted_from_a = (x - r) as f64;
        let ln_w = ln_binomial_real(x as f64, evicted_from_a)
            + ln_binomial_real(i - x as f64, yf - evicted_from_a)
            - ln_denom;
        if ln_w.is_finite() {
            let w = ln_w.exp();
            weight_sum += w;
            value_sum += w * r as f64;
        }
    }
    if weight_sum > 1e-12 {
        value_sum / weight_sum
    } else {
        // Degenerate support: closed-form hypergeometric mean.
        (x as f64 * (1.0 - yf / i)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvf_cachesim::config::table4;
    use dvf_cachesim::CacheConfig;

    fn view(assoc: usize, sets: usize, line: usize) -> CacheView {
        CacheView::exclusive(CacheConfig::new(assoc, sets, line).unwrap())
    }

    #[test]
    fn footprint_distribution_sums_to_one() {
        let cache = view(4, 64, 32);
        for f in [1u64, 10, 100, 1000, 10_000] {
            let d = ReuseSpec::footprint_distribution(f, &cache);
            let total: f64 = d.iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "f={f}: distribution sums to {total}"
            );
        }
    }

    #[test]
    fn expected_exclusive_approaches_mean_when_unsaturated() {
        // Small footprint: E(X_A) ~ F_A / NA (binomial mean), since
        // saturation at CA is negligible.
        let cache = view(8, 64, 32);
        let f = 32u64;
        let e = ReuseSpec::expected_exclusive(f, &cache);
        assert!((e - f as f64 / 64.0).abs() < 1e-6, "e = {e}");
    }

    #[test]
    fn expected_exclusive_saturates_at_associativity() {
        // Enormous footprint: every set is full -> E(X_A) = CA.
        let cache = view(4, 16, 32);
        let e = ReuseSpec::expected_exclusive(1_000_000, &cache);
        assert!((e - 4.0).abs() < 1e-9, "e = {e}");
    }

    #[test]
    fn no_interference_no_reload() {
        // A and B together fit comfortably: nothing is reloaded.
        let cache = view(8, 64, 32); // 512 blocks
        let spec = ReuseSpec {
            target_blocks: 40,
            interfering_blocks: 40,
            reuses: 10,
            scenario: InterferenceScenario::Exclusive,
        };
        let b = spec.breakdown(&cache).unwrap();
        // Reload is tiny (only the binomial tail where a set overflows).
        assert!(b.reload_per_reuse < 1.0, "reload = {}", b.reload_per_reuse);
    }

    #[test]
    fn heavy_interference_reloads_most_of_a() {
        // B floods the cache: nearly all of A must be reloaded every reuse.
        let cache = view(4, 64, 32); // 256 blocks
        let spec = ReuseSpec {
            target_blocks: 200,
            interfering_blocks: 4000,
            reuses: 1,
            scenario: InterferenceScenario::Exclusive,
        };
        let b = spec.breakdown(&cache).unwrap();
        assert!(
            b.reload_per_reuse > 150.0,
            "reload = {}",
            b.reload_per_reuse
        );
    }

    #[test]
    fn concurrent_scenario_is_gentler_than_exclusive_flood() {
        // Under uniform eviction A loses blocks proportionally, while under
        // Eq. 11 with huge y it keeps only CA - y (= 0 when y >= CA): for a
        // saturating interferer, exclusive predicts fewer survivors.
        let cache = view(4, 64, 32);
        let excl = ReuseSpec {
            target_blocks: 150,
            interfering_blocks: 2000,
            reuses: 1,
            scenario: InterferenceScenario::Exclusive,
        };
        let conc = ReuseSpec {
            scenario: InterferenceScenario::Concurrent,
            ..excl
        };
        let be = excl.breakdown(&cache).unwrap();
        let bc = conc.breakdown(&cache).unwrap();
        assert!(
            bc.expected_resident_per_set <= be.expected_resident_per_set + 1e-9,
            "concurrent {} vs exclusive {}",
            bc.expected_resident_per_set,
            be.expected_resident_per_set
        );
    }

    #[test]
    fn uniform_eviction_closed_form_agreement() {
        // When i is an integer and the support is full, the normalized sum
        // equals the hypergeometric mean x(1 - y/i).
        for (x, y, i) in [(3u64, 2u64, 8.0f64), (4, 1, 6.0), (2, 3, 10.0)] {
            let sum = expected_after_uniform_eviction(x, y, i);
            let closed = x as f64 * (1.0 - y as f64 / i);
            assert!(
                (sum - closed).abs() < 1e-9,
                "x={x} y={y} i={i}: {sum} vs {closed}"
            );
        }
    }

    #[test]
    fn uniform_eviction_edge_cases() {
        assert_eq!(expected_after_uniform_eviction(0, 5, 8.0), 0.0);
        assert_eq!(expected_after_uniform_eviction(3, 8, 8.0), 0.0); // y >= i
        assert_eq!(expected_after_uniform_eviction(3, 0, 8.0), 3.0); // no evictions
    }

    #[test]
    fn more_reuses_scale_linearly() {
        let cache = view(4, 64, 32);
        let mk = |reuses| ReuseSpec {
            target_blocks: 300,
            interfering_blocks: 300,
            reuses,
            scenario: InterferenceScenario::Exclusive,
        };
        let b1 = mk(1).breakdown(&cache).unwrap();
        let b10 = mk(10).breakdown(&cache).unwrap();
        let per_reuse = b1.reload_per_reuse;
        assert!((b10.total - (300.0 + 10.0 * per_reuse)).abs() < 1e-9);
    }

    #[test]
    fn from_bytes_rounds_up() {
        let s = ReuseSpec::from_bytes(100, 65, 1, InterferenceScenario::Exclusive, 32);
        assert_eq!(s.target_blocks, 4);
        assert_eq!(s.interfering_blocks, 3);
    }

    #[test]
    fn paper_profiling_cache_sanity() {
        // CG's p vector (800 doubles = 6.4 KB) reused against A (800x800
        // doubles = 5.1 MB) on the 16 KB profiling cache: p must be almost
        // entirely reloaded on every reuse.
        let cache = CacheView::exclusive(table4::PROFILE_16KB);
        let spec = ReuseSpec::from_bytes(
            800 * 8,
            800 * 800 * 8,
            100,
            InterferenceScenario::Exclusive,
            cache.line_bytes(),
        );
        let b = spec.breakdown(&cache).unwrap();
        let fa = spec.target_blocks as f64;
        assert!(
            b.reload_per_reuse > 0.9 * fa,
            "reload {} of {fa}",
            b.reload_per_reuse
        );
    }

    #[test]
    fn zero_target_rejected() {
        let spec = ReuseSpec {
            target_blocks: 0,
            interfering_blocks: 1,
            reuses: 1,
            scenario: InterferenceScenario::Exclusive,
        };
        assert!(spec.validate().is_err());
    }
}
