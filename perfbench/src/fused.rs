//! `fused-sim`: kernel → fused cache simulation → per-structure report,
//! for CG and MG at inputs larger than the paper's Table V verification
//! inputs. Each kernel streams once through a flat 32 MiB LRU LLC and once
//! through a three-level hierarchy (32 KiB L1, 256 KiB L2, the same 32 MiB
//! LLC with a degree-2 prefetcher).

use crate::util::{median, peak_rss_mb, secs, Clock, Outcome, Rng, SETUP_REPEATS};
use dvf_cachesim::{
    simulate_hierarchy_config, CacheConfig, DsRegistry, HierarchyConfig, HierarchyReport,
    LevelSpec, MemRef, SimJob, SimReport, Simulator, Trace,
};
use dvf_kernels::recorder::{
    record_fanout, record_hierarchy_fanout, HierarchyFanout, Recorder, SimFanout, TraceSink,
};
use dvf_kernels::{cg, mg};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Dense CG at 640×640 (Table V verifies at 500×500), 3 iterations.
const CG_N: usize = 640;
const CG_ITERS: usize = 3;
/// MG at a 64³ fine grid (Table V verifies at 32³), one V-cycle with one
/// smoothing sweep per level.
const MG_N: usize = 64;

/// Repetitions of each layer timed alone in a traced run.
const LAYER_REPEATS: usize = 3;

/// The seed picks the kernels' input values (CG's diagonal spread); it
/// never changes their sizes, iteration counts or reference streams.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    pub cg: cg::CgParams,
    pub mg: mg::MgParams,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut cg = cg::CgParams::new(CG_N, CG_ITERS, 0.0);
        // A zero tolerance runs every iteration, whatever the values.
        cg.diag_spread = 1.0 + 19.0 * rng.unit();
        let mg = mg::MgParams {
            n: MG_N,
            cycles: 1,
            smooths: 1,
        };
        Self { cg, mg }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    Cg,
    Mg,
}

pub const KERNELS: [Kernel; 2] = [Kernel::Cg, Kernel::Mg];

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Cg => "cg",
            Kernel::Mg => "mg",
        }
    }

    /// Run the traced kernel into `rec`; returns its final residual, the
    /// number that shows the seed's input values took effect.
    pub fn run(self, inputs: &Inputs, rec: &Recorder) -> f64 {
        match self {
            Kernel::Cg => cg::run_traced(inputs.cg, rec).residual,
            Kernel::Mg => mg::run_traced(inputs.mg, rec).final_residual,
        }
    }
}

/// The flat engine's job: one 32 MiB, 16-way, 64 B-line LRU cache.
pub fn flat_job() -> SimJob {
    SimJob::lru(CacheConfig::new(16, 32_768, 64).expect("valid 32 MiB geometry"))
}

/// The hierarchy engine's shape: small L1 and L2 over the flat LLC, with
/// a degree-2 prefetcher at the LLC.
pub fn hier_config() -> HierarchyConfig {
    let l1 = CacheConfig::new(8, 64, 64).expect("valid L1");
    let l2 = CacheConfig::new(8, 512, 64).expect("valid L2");
    HierarchyConfig::new(vec![
        LevelSpec::new(l1),
        LevelSpec::new(l2),
        LevelSpec::new(flat_job().config).with_prefetch(2),
    ])
    .expect("valid hierarchy")
}

/// Counts references without simulating them: the kernels layer alone.
#[derive(Debug, Default)]
pub struct CountSink(pub u64);

impl TraceSink for CountSink {
    fn emit(&mut self, r: MemRef) {
        black_box(r);
        self.0 += 1;
    }
}

/// Record one kernel into a buffered trace.
pub fn materialize(kernel: Kernel, inputs: &Inputs) -> Trace {
    let rec = Recorder::new();
    kernel.run(inputs, &rec);
    rec.into_trace()
}

/// Count one kernel's references: `(refs, seconds, residual)`.
pub fn count_refs(kernel: Kernel, inputs: &Inputs) -> (u64, f64, f64) {
    let sink = Rc::new(RefCell::new(CountSink::default()));
    let t = Instant::now();
    let residual = {
        let rec = Recorder::streaming(sink.clone());
        kernel.run(inputs, &rec)
    };
    let elapsed = secs(t);
    let refs = sink.borrow().0;
    (refs, elapsed, residual)
}

/// The per-structure, per-level report of the fused hierarchy path.
fn render_hier(report: &HierarchyReport, registry: &DsRegistry) -> String {
    let mut out = String::new();
    for (id, name) in registry.iter() {
        let _ = write!(out, "{name:<12}");
        for level in &report.levels {
            let s = level.stats.ds(id);
            let _ = write!(out, " {:>12} {:>12}", s.hits, s.misses);
        }
        let _ = writeln!(out, " {:>12}", report.mem_accesses(id));
    }
    out
}

/// Exact statistics of a flat run, as `(name, count)` pairs.
pub fn flat_counts(prefix: &str, report: &SimReport, registry: &DsRegistry) -> Vec<(String, u64)> {
    let mut out = vec![(format!("{prefix}.refs"), report.refs)];
    for (id, name) in registry.iter() {
        let s = report.ds(id);
        for (field, v) in [
            ("reads", s.reads),
            ("writes", s.writes),
            ("hits", s.hits),
            ("misses", s.misses),
            ("writebacks", s.writebacks),
        ] {
            out.push((format!("{prefix}.{name}.{field}"), v));
        }
    }
    out
}

/// Exact statistics of a hierarchy run, as `(name, count)` pairs.
pub fn hier_counts(
    prefix: &str,
    report: &HierarchyReport,
    registry: &DsRegistry,
) -> Vec<(String, u64)> {
    let mut out = vec![(format!("{prefix}.refs"), report.refs)];
    for (i, level) in report.levels.iter().enumerate() {
        let t = level.stats.total();
        out.push((format!("{prefix}.L{}.hits", i + 1), t.hits));
        out.push((format!("{prefix}.L{}.misses", i + 1), t.misses));
        out.push((format!("{prefix}.L{}.writebacks", i + 1), t.writebacks));
        out.push((
            format!("{prefix}.L{}.prefetch_issued", i + 1),
            level.prefetch.issued,
        ));
        out.push((
            format!("{prefix}.L{}.prefetch_fills", i + 1),
            level.prefetch.filled,
        ));
    }
    for (id, name) in registry.iter() {
        out.push((
            format!("{prefix}.{name}.dram_accesses"),
            report.mem_accesses(id),
        ));
    }
    let dram = report.dram.total();
    out.push((format!("{prefix}.dram.reads"), dram.misses));
    out.push((format!("{prefix}.dram.writes"), dram.writebacks));
    out.push((
        format!("{prefix}.dram.prefetch_reads"),
        report.dram_prefetch.total().misses,
    ));
    out
}

/// The fused flat report must equal the buffered replay's, bit for bit.
pub fn check_flat(kernel: Kernel, fused: &SimReport, buffered: &SimReport) -> Result<(), String> {
    if fused == buffered {
        Ok(())
    } else {
        Err(format!(
            "{}: fused flat statistics differ from a buffered replay ({} vs {} refs, {} vs {} misses)",
            kernel.name(),
            fused.refs,
            buffered.refs,
            fused.total().misses,
            buffered.total().misses
        ))
    }
}

/// One fused pass's result.
struct Pass {
    seconds: f64,
    refs: u64,
    counts: Vec<(String, u64)>,
    flat: Option<SimReport>,
    hier: Option<HierarchyReport>,
}

fn fused_flat(kernel: Kernel, inputs: &Inputs, job: SimJob) -> Pass {
    let t = Instant::now();
    let (registry, mut reports) = record_fanout(&[job], |rec| {
        kernel.run(inputs, rec);
    });
    let report = reports.pop().expect("one job");
    // The per-structure report a user of the fused flat path reads.
    black_box(report.stats().render(&registry));
    let seconds = secs(t);
    Pass {
        seconds,
        refs: report.refs,
        counts: flat_counts(&format!("{}.flat", kernel.name()), &report, &registry),
        flat: Some(report),
        hier: None,
    }
}

fn fused_hier(kernel: Kernel, inputs: &Inputs, config: &HierarchyConfig) -> Pass {
    let t = Instant::now();
    let (registry, mut reports) = record_hierarchy_fanout(std::slice::from_ref(config), |rec| {
        kernel.run(inputs, rec);
    });
    let report = reports.pop().expect("one hierarchy");
    black_box(render_hier(&report, &registry));
    let seconds = secs(t);
    Pass {
        seconds,
        refs: report.refs,
        counts: hier_counts(&format!("{}.hier", kernel.name()), &report, &registry),
        flat: None,
        hier: Some(report),
    }
}

/// Set-up: derive the inputs from the seed, validate the engine shapes,
/// and build (then drop) each engine once, allocating its metadata.
fn setup(seed: u64) -> (Inputs, SimJob, HierarchyConfig) {
    let inputs = Inputs::from_seed(seed);
    let job = flat_job();
    let config = hier_config();
    black_box(SimFanout::new(&[job]));
    black_box(HierarchyFanout::new(std::slice::from_ref(&config)));
    (inputs, job, config)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        prepared = Some(setup(seed));
        out.setups_s.push(secs(t));
    }
    let (inputs, job, config) = prepared.expect("set up at least once");

    // Measure whole rounds: each kernel streamed once through the flat
    // engine and once through the hierarchy. One round is one operation.
    let mut first: Vec<Option<Pass>> = (0..4).map(|_| None).collect();
    let (mut flat_s, mut flat_refs, mut hier_s, mut hier_refs) = (0.0, 0u64, 0.0, 0u64);
    let mut clock = Clock::new(seconds);
    while clock.more() {
        let t = Instant::now();
        black_box(setup(seed));
        out.setups_s.push(secs(t));
        let recording = clock.recording();
        let mut round_s = 0.0;
        for (ki, &kernel) in KERNELS.iter().enumerate() {
            for engine in 0..2 {
                let pass = if engine == 0 {
                    fused_flat(kernel, &inputs, job)
                } else {
                    fused_hier(kernel, &inputs, &config)
                };
                out.attempted += 1;
                round_s += pass.seconds;
                if recording && engine == 0 {
                    flat_s += pass.seconds;
                    flat_refs += pass.refs;
                } else if recording {
                    hier_s += pass.seconds;
                    hier_refs += pass.refs;
                }
                let slot = &mut first[ki * 2 + engine];
                match slot {
                    None => *slot = Some(pass),
                    Some(expected) if expected.counts != pass.counts => {
                        out.failed += 1;
                        out.check(false, || {
                            format!(
                                "{} engine {engine}: statistics moved between passes",
                                kernel.name()
                            )
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        if recording {
            out.latencies_us.push(round_s * 1e6);
        }
        clock.done();
    }
    out.items = (flat_refs + hier_refs) as f64;
    out.measured_s = out.latencies_us.iter().sum::<f64>() / 1e6;
    out.peak_rss_mb = peak_rss_mb("self").unwrap_or(0.0);
    out.named(
        "sim_flat_mrefs_per_s",
        flat_refs as f64 / flat_s / 1e6,
        "Mrefs/s",
    );
    out.named(
        "sim_hier_mrefs_per_s",
        hier_refs as f64 / hier_s / 1e6,
        "Mrefs/s",
    );

    let passes: Vec<Pass> = first.into_iter().flatten().collect();
    for pass in &passes {
        out.exact.extend(pass.counts.iter().cloned());
    }
    let flat: Vec<&SimReport> = passes.iter().filter_map(|p| p.flat.as_ref()).collect();
    let hier: Vec<&HierarchyReport> = passes.iter().filter_map(|p| p.hier.as_ref()).collect();
    let total_refs: u64 = flat.iter().map(|r| r.refs).sum();
    out.layer("kernels.refs", total_refs as f64);
    out.layer(
        "cachesim.flat.misses",
        flat.iter().map(|r| r.total().misses).sum::<u64>() as f64,
    );
    out.layer(
        "cachesim.hier.dram_accesses",
        hier.iter().map(|r| r.total_mem_accesses()).sum::<u64>() as f64,
    );
    out.layer(
        "cachesim.hier.prefetch_fills",
        hier.iter()
            .flat_map(|r| r.levels.iter().map(|l| l.prefetch.filled))
            .sum::<u64>() as f64,
    );

    // Output check, after the memory peak is read: the fused flat
    // statistics equal a buffered replay of the same seed's trace. The
    // traced run reuses each materialized trace to time the layers alone.
    let (mut record_s, mut flat_replay_s, mut hier_replay_s) = (0.0, 0.0, 0.0);
    for (ki, &kernel) in KERNELS.iter().enumerate() {
        let trace = materialize(kernel, &inputs);
        let mut sim = Simulator::new(job.config);
        sim.run(&trace.refs);
        if let Err(e) = check_flat(kernel, flat[ki], &sim.finish()) {
            out.check(false, || e);
        }
        if traced {
            let (mut record, mut replay_flat, mut replay_hier) = (vec![], vec![], vec![]);
            for _ in 0..LAYER_REPEATS {
                record.push(count_refs(kernel, &inputs).1);
                let t = Instant::now();
                let mut sim = Simulator::new(job.config);
                sim.run(&trace.refs);
                black_box(sim.finish());
                replay_flat.push(secs(t));
                let t = Instant::now();
                black_box(simulate_hierarchy_config(&trace, &config));
                replay_hier.push(secs(t));
            }
            record_s += median(&record);
            flat_replay_s += median(&replay_flat);
            hier_replay_s += median(&replay_hier);
        }
    }
    if traced {
        let round = median(&out.latencies_us) / 1e6;
        // A round records every kernel twice: once per engine.
        let residual = round - 2.0 * record_s - flat_replay_s - hier_replay_s;
        let refs = total_refs as f64;
        out.layer("kernels.record_s", record_s);
        out.layer("cachesim.flat.replay_s", flat_replay_s);
        out.layer("cachesim.flat.ns_per_ref", flat_replay_s / refs * 1e9);
        out.layer("cachesim.hier.replay_s", hier_replay_s);
        out.layer("cachesim.hier.ns_per_ref", hier_replay_s / refs * 1e9);
        out.layer("fused.residual_s", residual);
        out.table_total_s = round;
        out.table_row("kernels (record, both engines)", 2.0 * record_s);
        out.table_row("cachesim flat (replay)", flat_replay_s);
        out.table_row("cachesim hierarchy (replay)", hier_replay_s);
        out.table_row("unattributed residual", residual);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_inputs_but_not_the_reference_stream() {
        let (a, b) = (Inputs::from_seed(1), Inputs::from_seed(2));
        assert_ne!(a.cg.diag_spread, b.cg.diag_spread);
        let (refs_a, _, res_a) = count_refs(Kernel::Cg, &a);
        let (refs_b, _, res_b) = count_refs(Kernel::Cg, &b);
        assert_eq!(refs_a, refs_b);
        assert_ne!(res_a, res_b, "the seed's values must reach the kernel");
        assert_eq!(count_refs(Kernel::Mg, &a).0, count_refs(Kernel::Mg, &b).0);
    }

    #[test]
    fn a_corrupted_statistic_fails_the_comparison() {
        let inputs = Inputs::from_seed(3);
        let pass = fused_flat(Kernel::Mg, &inputs, flat_job());
        let mut sim = Simulator::new(flat_job().config);
        sim.run(&materialize(Kernel::Mg, &inputs).refs);
        let buffered = sim.finish();
        let fused = pass.flat.expect("flat pass");
        assert!(check_flat(Kernel::Mg, &fused, &buffered).is_ok());
        let mut bad = fused.clone();
        bad.refs += 1;
        assert!(check_flat(Kernel::Mg, &bad, &buffered).is_err());
    }
}
