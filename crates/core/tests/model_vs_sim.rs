//! Property-based cross-validation: the analytical pattern models against
//! the cache simulator on randomized geometries — the Fig. 4 methodology,
//! generalized beyond the paper's two cache configurations.

use dvf_cachesim::{simulate, CacheConfig, MemRef, Trace};
use dvf_core::patterns::template::count_template_passes;
use dvf_core::patterns::{CacheView, RandomSpec, StreamingSpec, TemplateSpec};
use proptest::prelude::*;

/// Synthetic trace of a full streaming traversal: each referenced element
/// is read in line-sized chunks (the model's unit of accounting).
fn streaming_trace(spec: &StreamingSpec, line: u64) -> Trace {
    let mut t = Trace::new();
    let ds = t.registry.register("A");
    let e = spec.element_bytes;
    let s = spec.stride_bytes();
    let d = spec.data_bytes();
    if s == e {
        // Dense traversal touches every byte (chunked by line).
        for addr in (0..d).step_by(line as usize) {
            t.push(MemRef::read(ds, addr));
        }
        // Touch the final partial line, if any.
        if !d.is_multiple_of(line) {
            t.push(MemRef::read(ds, d - 1));
        }
    } else {
        let refs = d.div_ceil(s);
        for i in 0..refs {
            let base = i * s;
            let mut off = 0;
            while off < e {
                t.push(MemRef::read(ds, base + off));
                off += line.min(e);
            }
            // Ensure the element's last byte is touched (covers E not a
            // multiple of the line).
            t.push(MemRef::read(ds, base + e - 1));
        }
    }
    t
}

/// The two-step algorithm, one reference at a time: a re-reference
/// misses when the distinct blocks seen since its previous use number at
/// least `capacity_blocks`.
fn reference_template_total(blocks: &[u64], capacity_blocks: f64) -> u64 {
    let mut total = 0;
    for (t, b) in blocks.iter().enumerate() {
        match blocks[..t].iter().rposition(|x| x == b) {
            None => total += 1,
            Some(prev) => {
                let mut between: Vec<u64> = blocks[prev + 1..t].to_vec();
                between.sort_unstable();
                between.dedup();
                if between.len() as f64 >= capacity_blocks {
                    total += 1;
                }
            }
        }
    }
    total
}

fn arb_cache() -> impl Strategy<Value = CacheConfig> {
    (1usize..=8, 2u32..=7, 3u32..=7)
        .prop_map(|(a, s, l)| CacheConfig::new(a, 1 << s, 1 << l).unwrap())
}

proptest! {
    /// Aligned streaming: the model is exact against the simulator for
    /// every geometry, element size, and stride.
    #[test]
    fn streaming_model_is_exact(
        cfg in arb_cache(),
        elem_log2 in 2u32..=7,
        count in 1u64..400,
        stride in 1u64..6,
    ) {
        let spec = StreamingSpec {
            element_bytes: 1 << elem_log2,
            num_elements: count,
            stride_elements: stride,
        };
        let view = CacheView::exclusive(cfg);
        let modeled = spec.mem_accesses_aligned(&view).unwrap();
        let trace = streaming_trace(&spec, cfg.line_bytes as u64);
        let sim = simulate(&trace, cfg);
        let measured = sim.total().misses as f64;
        prop_assert!(
            (modeled - measured).abs() <= 1.0 + 0.02 * measured,
            "spec {spec:?} on {cfg:?}: model {modeled} vs sim {measured}"
        );
    }

    /// Template model == fully-associative LRU simulation, for arbitrary
    /// reference strings.
    #[test]
    fn template_model_matches_fully_associative_sim(
        ways in 1usize..=32,
        line_log2 in 3u32..=6,
        refs in prop::collection::vec(0u64..96, 1..600),
    ) {
        let cfg = CacheConfig::new(ways, 1, 1 << line_log2).unwrap();
        let spec = TemplateSpec::new(8, refs.clone());
        let modeled = spec
            .mem_accesses(&CacheView::exclusive(cfg))
            .unwrap();

        let mut trace = Trace::new();
        let ds = trace.registry.register("X");
        for &e in &refs {
            trace.push(MemRef::read(ds, e * 8));
        }
        let sim = simulate(&trace, cfg);
        prop_assert_eq!(modeled, sim.ds(ds).misses as f64);
    }

    /// One walk's `(first, two-pass)` counts equal two independent
    /// per-reference runs, for capacities in quarter blocks on both
    /// sides of `distinct − 1`, above which the counter returns the cold
    /// misses alone.
    #[test]
    fn template_passes_match_per_reference_runs(
        blocks in prop::collection::vec(0u64..40, 1..120),
        quarters in 0u32..=32,
    ) {
        let mut distinct = blocks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let offset = f64::from(quarters) / 4.0 - 4.0;
        let capacity = (distinct.len() as f64 - 1.0 + offset).max(0.0);
        let passes = count_template_passes(&blocks, capacity, 2);
        let doubled = [blocks.as_slice(), blocks.as_slice()].concat();
        prop_assert_eq!(passes[0].total, reference_template_total(&blocks, capacity));
        prop_assert_eq!(passes[1].total, reference_template_total(&doubled, capacity));
        prop_assert_eq!(passes[0].cold_misses, distinct.len() as u64);
    }

    /// Template repeat extrapolation stays exact under simulation too.
    #[test]
    fn template_repeat_matches_simulated_repeats(
        ways in 1usize..=16,
        refs in prop::collection::vec(0u64..48, 1..150),
        repeat in 1u64..5,
    ) {
        let cfg = CacheConfig::new(ways, 1, 8).unwrap();
        let spec = TemplateSpec::new(8, refs.clone());
        let modeled = spec
            .mem_accesses_repeated(&CacheView::exclusive(cfg), repeat)
            .unwrap();

        let mut trace = Trace::new();
        let ds = trace.registry.register("X");
        for _ in 0..repeat {
            for &e in &refs {
                trace.push(MemRef::read(ds, e * 8));
            }
        }
        let sim = simulate(&trace, cfg);
        prop_assert_eq!(modeled, sim.ds(ds).misses as f64);
    }
}

/// The random model against a simulated uniform-random workload: within
/// the paper's 15 % band for representative configurations.
#[test]
fn random_model_tracks_simulation() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let cases = [
        // (N, E, k, iter, cache)
        (
            1000u64,
            32u64,
            150u64,
            400u64,
            CacheConfig::new(4, 64, 32).unwrap(),
        ),
        (4000, 16, 200, 300, CacheConfig::new(8, 128, 32).unwrap()),
        (512, 64, 64, 500, CacheConfig::new(4, 64, 64).unwrap()),
    ];
    for (n, e, k, iters, cfg) in cases {
        let spec = RandomSpec {
            num_elements: n,
            element_bytes: e,
            k,
            iterations: iters,
            ratio: 1.0,
        };
        let modeled = spec.mem_accesses(&CacheView::exclusive(cfg)).unwrap();

        // Simulate: construction sweep, then `iters` rounds of `k`
        // distinct uniform elements each.
        let mut trace = Trace::new();
        let ds = trace.registry.register("T");
        for i in 0..n {
            trace.push(MemRef::read(ds, i * e));
        }
        let mut rng = StdRng::seed_from_u64(0xD15EA5E);
        for _ in 0..iters {
            let mut seen = std::collections::HashSet::new();
            while seen.len() < k as usize {
                let i = rng.gen_range(0..n);
                if seen.insert(i) {
                    trace.push(MemRef::read(ds, i * e));
                }
            }
        }
        let sim = simulate(&trace, cfg);
        let measured = sim.ds(ds).misses as f64;
        let err = (modeled - measured).abs() / measured;
        assert!(
            err < 0.15,
            "N={n} E={e} k={k} iter={iters}: model {modeled} vs sim {measured} ({:.1}% off)",
            err * 100.0
        );
    }
}
