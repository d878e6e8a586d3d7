//! Pattern *composition* for kernels that mix all four access classes.
//!
//! CG is the paper's composite example: its Aspen program gives an access
//! order `r (A p) p (x p) (A p) r (r p)` with per-step patterns
//! `s (t t) s (s s) (t t) s (s s)` — the matrix and vectors interleave, so
//! no single-structure model captures the cache interference. Following
//! CGPMAC's charter ("coarse grained, *pseudocode-based* memory access
//! accounting"), the composition operator here derives one iteration's
//! joint reference stream directly from the *pseudocode* of Algorithm 4/5
//! (not from instrumenting a real execution) and evaluates it against the
//! cache model.
//!
//! Because an iterative solver's reference pattern is identical every
//! iteration, the evaluation is O(one iteration): replay two concatenated
//! periods, take the second as the steady state, and extrapolate
//! `total = first + (iters − 1) · steady` — exact for a deterministic
//! periodic stream under LRU.

use dvf_cachesim::{CacheConfig, Simulator, Trace};
use dvf_kernels::Recorder;

/// Generate one CG iteration's tagged reference stream from Algorithm 4.
///
/// Mirrors the loop structure (and therefore the reference order) of the
/// pseudocode: matvec `q = A p`, dot `p·q`, the `x`/`r` updates, the
/// `r·r` reduction, and the `p` update.
pub fn cg_iteration_trace(n: usize) -> Trace {
    let rec = Recorder::new();
    let a = rec.buffer::<f64>("A", n * n);
    let mut x = rec.buffer::<f64>("x", n);
    let mut p = rec.buffer::<f64>("p", n);
    let mut r = rec.buffer::<f64>("r", n);
    let mut q = rec.buffer::<f64>("q", n);
    rec.set_enabled(true);

    // q = A p
    for i in 0..n {
        let mut s = 0.0;
        for j in 0..n {
            s += a.get(i * n + j) * p.get(j);
        }
        q.set(i, s);
    }
    // alpha = rho / (p . q)
    for i in 0..n {
        let _ = p.get(i) * q.get(i);
    }
    // x += alpha p ; r -= alpha q
    for i in 0..n {
        x.update(i, |xi| xi + p.get(i));
        r.update(i, |ri| ri - q.get(i));
    }
    // rho' = r . r
    for i in 0..n {
        let _ = r.get(i);
    }
    // p = r + beta p
    for i in 0..n {
        let v = r.get(i) + p.get(i);
        p.set(i, v);
    }

    rec.into_trace()
}

/// Generate one PCG iteration's reference stream from Algorithm 5
/// (adds the convergence scan of `r`, the `z = M⁻¹ r` preconditioner
/// application, and the `r·z` reduction).
pub fn pcg_iteration_trace(n: usize) -> Trace {
    let rec = Recorder::new();
    let a = rec.buffer::<f64>("A", n * n);
    let mut x = rec.buffer::<f64>("x", n);
    let mut p = rec.buffer::<f64>("p", n);
    let mut r = rec.buffer::<f64>("r", n);
    let mut z = rec.buffer::<f64>("z", n);
    let m = rec.buffer::<f64>("M", n);
    let mut q = rec.buffer::<f64>("q", n);
    rec.set_enabled(true);

    // Convergence check: true-residual scan.
    for i in 0..n {
        let _ = r.get(i);
    }
    // q = A p
    for i in 0..n {
        let mut s = 0.0;
        for j in 0..n {
            s += a.get(i * n + j) * p.get(j);
        }
        q.set(i, s);
    }
    // p . q
    for i in 0..n {
        let _ = p.get(i) * q.get(i);
    }
    // x += alpha p ; r -= alpha q
    for i in 0..n {
        x.update(i, |xi| xi + p.get(i));
        r.update(i, |ri| ri - q.get(i));
    }
    // z = M^{-1} r
    for i in 0..n {
        let v = r.get(i) * m.get(i);
        z.set(i, v);
    }
    // r . z
    for i in 0..n {
        let _ = r.get(i) * z.get(i);
    }
    // p = z + beta p
    for i in 0..n {
        let v = z.get(i) + p.get(i);
        p.set(i, v);
    }

    rec.into_trace()
}

/// Per-structure main-memory loads for `iters` periodic repetitions of
/// `period` under LRU on `config`: simulate two concatenated periods and
/// extrapolate the steady state.
pub fn replay_periodic(period: &Trace, iters: u64, config: CacheConfig) -> Vec<(String, f64)> {
    let ids: Vec<_> = period
        .registry
        .iter()
        .map(|(id, name)| (id, name.to_owned()))
        .collect();
    let mut sim = Simulator::new(config);
    sim.run(&period.refs);
    let first: Vec<u64> = ids
        .iter()
        .map(|(id, _)| sim.stats().ds(*id).misses)
        .collect();
    sim.run(&period.refs);
    let second: Vec<u64> = ids
        .iter()
        .map(|(id, _)| sim.stats().ds(*id).misses)
        .collect();

    ids.into_iter()
        .zip(first.into_iter().zip(second))
        .map(|((_, name), (f, s))| {
            let steady = s - f;
            let total = if iters == 0 {
                0.0
            } else {
                f as f64 + steady as f64 * (iters - 1) as f64
            };
            (name, total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvf_cachesim::config::table4;
    use dvf_cachesim::simulate;
    use dvf_kernels::cg::CgParams;

    #[test]
    fn periodic_extrapolation_matches_full_replay() {
        // Ground truth: literally concatenate 4 periods and simulate.
        let period = cg_iteration_trace(40);
        let config = table4::SMALL_VERIFICATION;
        let k = 4u64;
        let mut full = Trace::new();
        full.registry = period.registry.clone();
        for _ in 0..k {
            full.refs.extend_from_slice(&period.refs);
        }
        let truth = simulate(&full, config);
        for (name, modeled) in replay_periodic(&period, k, config) {
            let ds = full.registry.id(&name).unwrap();
            let measured = truth.ds(ds).misses;
            assert_eq!(
                modeled, measured as f64,
                "{name}: extrapolated {modeled} vs replayed {measured}"
            );
        }
    }

    #[test]
    fn cg_synthetic_matches_traced_kernel() {
        // The pseudocode-derived stream must equal what the instrumented
        // kernel actually references (same loop structure, same order).
        let params = CgParams::new(30, 2, 0.0);
        let rec = Recorder::new();
        dvf_kernels::cg::run_traced(params, &rec);
        let real = rec.into_trace();

        let period = cg_iteration_trace(30);
        let mut synthetic = Vec::new();
        for _ in 0..2 {
            synthetic.extend_from_slice(&period.refs);
        }
        assert_eq!(real.refs.len(), synthetic.len());
        assert_eq!(real.refs, synthetic);
    }

    #[test]
    fn pcg_synthetic_matches_traced_kernel() {
        let params = CgParams::new(25, 2, 0.0);
        let rec = Recorder::new();
        dvf_kernels::pcg::run_traced(params, &rec);
        let real = rec.into_trace();

        let period = pcg_iteration_trace(25);
        let mut synthetic = Vec::new();
        for _ in 0..2 {
            synthetic.extend_from_slice(&period.refs);
        }
        // The traced PCG issues one extra convergence scan of r before
        // exiting; the periodic model covers the repeating unit.
        assert_eq!(real.refs.len(), synthetic.len() + 25);
        assert_eq!(&real.refs[..synthetic.len()], synthetic.as_slice());
    }

    #[test]
    fn zero_iters_is_zero() {
        let period = cg_iteration_trace(10);
        let out = replay_periodic(&period, 0, table4::SMALL_VERIFICATION);
        assert!(out.iter().all(|(_, v)| *v == 0.0));
    }
}
