//! Template-based access pattern (paper §III-C, Fig. 2).
//!
//! For structured accesses (stencils, FFT butterflies) the user supplies the
//! exact reference order as a *template*: a sequence of element indices.
//! Elements are converted to cache blocks, then the paper's two-step
//! algorithm runs:
//!
//! 1. a block's **first** appearance costs one main-memory access;
//! 2. a **repeat** appearance costs one access iff the distance to its
//!    previous appearance exceeds the available cache capacity.
//!
//! The paper leaves "distance" informal; we use the LRU *stack distance*
//! (number of distinct blocks referenced since the block's last use), which
//! makes step 2 exact for a fully-associative LRU cache of the same
//! capacity. Computed in `O(L log L)` with a Fenwick tree.

use super::{CacheView, ModelError};

/// Specification of a template-based access: the element size plus the
/// element-granular reference template (already expanded; the Aspen
/// front-end in `dvf-aspen` expands compact `(starts) : step : (ends)`
/// range syntax into this form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateSpec {
    /// Element size `E` in bytes.
    pub element_bytes: u64,
    /// Element indices in reference order.
    pub references: Vec<u64>,
}

/// Decomposition of the template-model estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateBreakdown {
    /// Distinct cache blocks touched (= compulsory misses, step 1).
    pub cold_misses: u64,
    /// Re-references whose stack distance exceeded capacity (step 2).
    pub capacity_misses: u64,
    /// Total main-memory accesses.
    pub total: u64,
}

impl TemplateSpec {
    /// Build a spec from element references.
    pub fn new(element_bytes: u64, references: Vec<u64>) -> Self {
        Self {
            element_bytes,
            references,
        }
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.element_bytes == 0 {
            return Err(ModelError::ZeroParameter("element_bytes"));
        }
        if self.references.is_empty() {
            return Err(ModelError::EmptyTemplate);
        }
        Ok(())
    }

    /// Convert the element template into a cache-block template
    /// (`block = ⌊element · E / CL⌋`), collapsing *adjacent* repeats: one
    /// element reference spanning several blocks expands to all of them.
    pub fn block_references(&self, line_bytes: u64) -> Vec<u64> {
        let e = self.element_bytes;
        let mut blocks = Vec::with_capacity(self.references.len());
        for &elem in &self.references {
            let start = elem * e / line_bytes;
            let end = (elem * e + e - 1) / line_bytes;
            for b in start..=end {
                // An element spanning multiple lines touches each of them.
                blocks.push(b);
            }
        }
        blocks
    }

    /// Run the two-step counting algorithm against a cache view.
    pub fn breakdown(&self, cache: &CacheView) -> Result<TemplateBreakdown, ModelError> {
        self.validate()?;
        let blocks = self.block_references(cache.line_bytes());
        let capacity_blocks = cache.effective_blocks();
        Ok(count_template_misses(&blocks, capacity_blocks))
    }

    /// Expected main-memory accesses (`N_ha`) for one pass over the
    /// template.
    pub fn mem_accesses(&self, cache: &CacheView) -> Result<f64, ModelError> {
        Ok(self.breakdown(cache)?.total as f64)
    }

    /// Expected main-memory accesses for `repeat` back-to-back passes over
    /// the template.
    ///
    /// Exact under the LRU-stack model: after the first pass the cache
    /// state at each pass boundary repeats, so every pass from the second
    /// on misses the same amount. Computed from two concatenated passes:
    /// `total = first + (repeat − 1) · (two_pass − first)`.
    pub fn mem_accesses_repeated(&self, cache: &CacheView, repeat: u64) -> Result<f64, ModelError> {
        self.validate()?;
        if repeat == 0 {
            return Ok(0.0);
        }
        let blocks = self.block_references(cache.line_bytes());
        let passes = if repeat == 1 { 1 } else { 2 };
        let totals = count_template_passes(&blocks, cache.effective_blocks(), passes);
        let first = totals[0].total;
        let steady = totals.get(1).map_or(0, |two| two.total - first);
        Ok(first as f64 + steady as f64 * (repeat - 1) as f64)
    }
}

/// The two-step algorithm over a block-granular template.
///
/// `capacity_blocks` is the "maximum available cache capacity" of step 2,
/// in blocks (fractional capacities arise from cache-sharing ratios).
pub fn count_template_misses(blocks: &[u64], capacity_blocks: f64) -> TemplateBreakdown {
    count_template_passes(blocks, capacity_blocks, 1)[0]
}

/// The two-step algorithm over `passes` back-to-back passes of a
/// block-granular template: entry `i` holds the cumulative counts after
/// pass `i + 1`.
///
/// One walk serves every pass. The stack-distance counter is causal, so
/// the counts at the end of a pass equal those of a walk over only the
/// passes so far.
pub fn count_template_passes(
    blocks: &[u64],
    capacity_blocks: f64,
    passes: usize,
) -> Vec<TemplateBreakdown> {
    let mut ids = blocks.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let distinct = ids.len() as u64;

    // A stack distance counts other distinct blocks, so it never exceeds
    // `distinct − 1`: when that is below the capacity no re-reference
    // misses, and the cold misses are the whole answer.
    if (distinct.saturating_sub(1) as f64) < capacity_blocks {
        let fits = TemplateBreakdown {
            cold_misses: distinct,
            capacity_misses: 0,
            total: distinct,
        };
        return vec![fits; passes];
    }

    let mut cold = 0u64;
    let mut capacity = 0u64;
    let mut totals = Vec::with_capacity(passes);

    // Fenwick tree over reference positions; a 1 marks the *latest*
    // position of each distinct block seen so far. `last_pos` is indexed
    // by the block's rank among the distinct blocks.
    let mut bit = Fenwick::new(blocks.len() * passes);
    let mut last_pos = vec![usize::MAX; ids.len()];
    let ranks: Vec<usize> = blocks
        .iter()
        .map(|b| {
            ids.binary_search(b)
                .expect("every block is among the distinct blocks")
        })
        .collect();

    for pass in 0..passes {
        for (i, &rank) in ranks.iter().enumerate() {
            let t = pass * blocks.len() + i;
            let prev = last_pos[rank];
            if prev == usize::MAX {
                cold += 1;
            } else {
                // Distinct blocks referenced strictly between prev and t:
                // count of marked positions in (prev, t).
                let distance = bit.prefix_sum(t) - bit.prefix_sum(prev + 1);
                if distance as f64 >= capacity_blocks {
                    capacity += 1;
                }
                bit.add(prev + 1, -1);
            }
            bit.add(t + 1, 1);
            last_pos[rank] = t;
        }
        totals.push(TemplateBreakdown {
            cold_misses: cold,
            capacity_misses: capacity,
            total: cold + capacity,
        });
    }
    totals
}

/// Minimal Fenwick (binary indexed) tree over `i64` counts, 1-indexed.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    /// Add `delta` at position `i` (1-indexed).
    fn add(&mut self, mut i: usize, delta: i64) {
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `1..=i`.
    fn prefix_sum(&self, mut i: usize) -> i64 {
        let mut acc = 0;
        while i > 0 {
            acc += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvf_cachesim::CacheConfig;

    fn view(assoc: usize, sets: usize, line: usize) -> CacheView {
        CacheView::exclusive(CacheConfig::new(assoc, sets, line).unwrap())
    }

    #[test]
    fn cold_misses_count_distinct_blocks() {
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // CL = 8: each element its own block; capacity 64 blocks: repeats hit.
        let b = spec.breakdown(&view(4, 16, 8)).unwrap();
        assert_eq!(b.cold_misses, 4);
        assert_eq!(b.capacity_misses, 0);
        assert_eq!(b.total, 4);
    }

    #[test]
    fn repeat_beyond_capacity_misses() {
        // Capacity = 2 blocks (1 set, 2 ways). Template touches 3 distinct
        // blocks then revisits the first: stack distance 2 >= 2 -> miss.
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 0]);
        let b = spec.breakdown(&view(2, 1, 8)).unwrap();
        assert_eq!(b.cold_misses, 3);
        assert_eq!(b.capacity_misses, 1);
    }

    #[test]
    fn repeat_within_capacity_hits() {
        let spec = TemplateSpec::new(8, vec![0, 1, 0]);
        // distance of the revisit = 1 < 2.
        let b = spec.breakdown(&view(2, 1, 8)).unwrap();
        assert_eq!(b.capacity_misses, 0);
    }

    #[test]
    fn immediate_repeat_never_misses() {
        let spec = TemplateSpec::new(8, vec![5, 5, 5, 5]);
        let b = spec.breakdown(&view(1, 1, 8)).unwrap();
        assert_eq!(b.total, 1);
    }

    #[test]
    fn elements_smaller_than_line_share_blocks() {
        // E = 8, CL = 32: elements 0..3 share block 0.
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 3]);
        let b = spec.breakdown(&view(4, 16, 32)).unwrap();
        assert_eq!(b.cold_misses, 1);
    }

    #[test]
    fn elements_larger_than_line_span_blocks() {
        // E = 64, CL = 32: element 0 covers blocks 0-1, element 1 blocks 2-3.
        let spec = TemplateSpec::new(64, vec![0, 1]);
        let b = spec.breakdown(&view(4, 16, 32)).unwrap();
        assert_eq!(b.cold_misses, 4);
    }

    #[test]
    fn stack_distance_uses_distinct_blocks() {
        // Template 0 1 1 1 2 0 with capacity 2: the revisit of 0 has seen
        // distinct blocks {1, 2} -> distance 2 >= 2 -> miss. Repeats of 1
        // don't inflate the distance.
        let spec = TemplateSpec::new(8, vec![0, 1, 1, 1, 2, 0]);
        let b = spec.breakdown(&view(2, 1, 8)).unwrap();
        assert_eq!(b.cold_misses, 3);
        assert_eq!(b.capacity_misses, 1);

        // With capacity 4 the same revisit hits.
        let b = spec.breakdown(&view(4, 1, 8)).unwrap();
        assert_eq!(b.capacity_misses, 0);
    }

    #[test]
    fn matches_fully_associative_lru_simulation() {
        // The stack-distance criterion is exact for fully-associative LRU:
        // cross-check against the simulator on a pseudo-random template.
        use dvf_cachesim::{simulate, MemRef, Trace};
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 64
        };
        let refs: Vec<u64> = (0..2000).map(|_| next()).collect();
        let spec = TemplateSpec::new(32, refs.clone());

        // Fully associative: 1 set, 16 ways, 32-B lines.
        let cfg = CacheConfig::new(16, 1, 32).unwrap();
        let model = spec.breakdown(&CacheView::exclusive(cfg)).unwrap();

        let mut trace = Trace::new();
        let ds = trace.registry.register("X");
        for &e in &refs {
            trace.push(MemRef::read(ds, e * 32));
        }
        let sim = simulate(&trace, cfg);
        assert_eq!(model.total, sim.ds(ds).misses);
    }

    #[test]
    fn repeated_passes_when_template_fits_cache() {
        // Template fits: repeats after the first are free.
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 3]);
        let v = view(4, 16, 8); // 64 blocks
        let one = spec.mem_accesses(&v).unwrap();
        let five = spec.mem_accesses_repeated(&v, 5).unwrap();
        assert_eq!(one, 4.0);
        assert_eq!(five, 4.0);
    }

    #[test]
    fn repeated_passes_when_template_thrashes() {
        // Capacity 2 blocks, template cycles over 4: every pass reloads
        // everything.
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 3]);
        let v = view(2, 1, 8);
        let one = spec.mem_accesses(&v).unwrap();
        let four = spec.mem_accesses_repeated(&v, 4).unwrap();
        assert_eq!(one, 4.0);
        assert_eq!(four, 16.0);
    }

    #[test]
    fn repeated_matches_explicit_concatenation() {
        // Cross-check the extrapolation against literally repeating refs.
        let refs: Vec<u64> = (0..50).map(|i| (i * 7) % 13).collect();
        let spec = TemplateSpec::new(16, refs.clone());
        let v = view(2, 2, 16); // 4 blocks
        for repeat in [1u64, 2, 3, 5] {
            let fast = spec.mem_accesses_repeated(&v, repeat).unwrap();
            let mut long = Vec::new();
            for _ in 0..repeat {
                long.extend_from_slice(&refs);
            }
            let slow = TemplateSpec::new(16, long).mem_accesses(&v).unwrap();
            assert_eq!(fast, slow, "repeat = {repeat}");
        }
    }

    #[test]
    fn repeat_zero_is_zero() {
        let spec = TemplateSpec::new(8, vec![0, 1]);
        assert_eq!(spec.mem_accesses_repeated(&view(2, 1, 8), 0).unwrap(), 0.0);
    }

    #[test]
    fn empty_template_rejected() {
        let spec = TemplateSpec::new(8, vec![]);
        assert_eq!(spec.validate(), Err(ModelError::EmptyTemplate));
        let spec = TemplateSpec::new(0, vec![1]);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn fenwick_basics() {
        let mut f = Fenwick::new(8);
        f.add(3, 1);
        f.add(5, 2);
        assert_eq!(f.prefix_sum(2), 0);
        assert_eq!(f.prefix_sum(3), 1);
        assert_eq!(f.prefix_sum(8), 3);
        f.add(3, -1);
        assert_eq!(f.prefix_sum(8), 2);
    }
}
