//! The sweep cache is semantically invisible: cached and uncached
//! `DvfWorkflow` sweeps, ECC-grid sweeps, and `elasticities` evaluations
//! produce bit-identical results.
//!
//! Every test here toggles or clears the process-wide memo cache, so they
//! serialize on one mutex (the cache is global to the test binary).

use dvf_core::fit::EccScheme;
use dvf_core::memo;
use dvf_core::sweep::{degradation_grid, elasticities, par_map, EccTradeoff};
use dvf_core::workflow::DvfWorkflow;
use proptest::prelude::*;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A model exercising the streaming, random, and reuse memo arms, with
/// the problem size `n` and the random visit count `k` sweepable.
const SOURCE: &str = r#"
    machine m {
      cache { associativity = 8  sets = 128  line = 64 }
      memory { fit = 5000 }
      core { flops = 1e9  bandwidth = 4e9 }
    }
    model app {
      param n = 4096
      param k = 16
      data A { size = n * 8  element = 8 }
      data G { size = n * 16  element = 16 }
      data p { size = 4 * KiB  element = 8 }
      kernel main {
        flops = 10 * n
        access A as streaming(stride = 2)
        access G as random(k = k, iters = 200)
        access p as reuse(reuses = 50)
      }
    }
"#;

/// Evaluate a parallel sweep and collapse each report to the exact bit
/// patterns of its per-structure DVFs (bit equality is the whole point).
fn sweep_bits(wf: &DvfWorkflow, param: &str, values: &[f64]) -> Vec<Vec<u64>> {
    par_map(values, |&v| wf.evaluate(&[(param, v)]))
        .into_iter()
        .map(|r| {
            let report = r.expect("sweep point evaluates");
            report
                .structures
                .iter()
                .map(|(_, dvf)| dvf.to_bits())
                .chain([report.dvf_app().to_bits(), report.time_s.to_bits()])
                .collect()
        })
        .collect()
}

proptest! {
    /// Parallel parameter sweeps: cached (cold cache), cached (warm
    /// cache, all hits), and uncached runs are bit-identical.
    #[test]
    fn cached_and_uncached_sweeps_bit_identical(base in 256u64..100_000) {
        let _guard = serial();
        let wf = DvfWorkflow::parse(SOURCE).unwrap();
        let values: Vec<f64> = (0..6).map(|i| (base + i * 37) as f64).collect();

        memo::clear();
        memo::set_enabled(false);
        let uncached = sweep_bits(&wf, "n", &values);

        memo::clear();
        memo::set_enabled(true);
        let cold = sweep_bits(&wf, "n", &values);
        let warm = sweep_bits(&wf, "n", &values);

        prop_assert_eq!(&uncached, &cold, "cold cache diverged");
        prop_assert_eq!(&uncached, &warm, "warm cache diverged");
    }

    /// The fig5/fig7 ECC degradation grid driven from workflow output:
    /// base time and N_ha from a cached evaluation feed the tradeoff
    /// sweep bit-identically to an uncached evaluation.
    #[test]
    fn ecc_grid_from_cached_workflow_bit_identical(k in 4u64..64) {
        let _guard = serial();
        let wf = DvfWorkflow::parse(SOURCE).unwrap();
        let grid = degradation_grid(0.30, 30);

        let ecc_bits = |enabled: bool| {
            memo::clear();
            memo::set_enabled(enabled);
            let report = wf.evaluate(&[("k", k as f64)]).unwrap();
            let (s, _) = &report.structures[1]; // G, the random-access table
            EccTradeoff::new(EccScheme::Secded)
                .sweep(report.time_s, s.size_bytes, s.n_ha, &grid)
                .into_iter()
                .map(|p| p.dvf.to_bits())
                .collect::<Vec<u64>>()
        };

        let uncached = ecc_bits(false);
        let cached = ecc_bits(true);
        memo::set_enabled(true);
        prop_assert_eq!(uncached, cached);
    }

    /// `elasticities` re-evaluates the workflow at perturbed parameter
    /// values; with the cache on, repeated center-point evaluations hit
    /// but every elasticity is still bit-identical.
    #[test]
    fn elasticities_bit_identical_with_cache(n in 1024u64..50_000) {
        let _guard = serial();
        let wf = DvfWorkflow::parse(SOURCE).unwrap();
        // The resolver requires integer sizes/counts; central differences
        // perturb continuously, so the probe rounds to the lattice.
        let f = |p: &[f64]| {
            wf.evaluate(&[("n", p[0].round()), ("k", p[1].round())])
                .expect("perturbed point evaluates")
                .dvf_app()
        };
        let base = [n as f64, 16.0];

        let run = |enabled: bool| {
            memo::clear();
            memo::set_enabled(enabled);
            elasticities(f, &["n", "k"], &base, 0.01)
                .into_iter()
                .map(|s| s.elasticity.to_bits())
                .collect::<Vec<u64>>()
        };

        let uncached = run(false);
        let cached = run(true);
        memo::set_enabled(true);
        prop_assert_eq!(uncached, cached);
    }
}
