//! The paper's single-LLC view of the simulation engine.
//!
//! Every name here is a thin wrapper over a 1-level
//! [`CacheHierarchy`]: [`SimJob::hierarchy`] builds the stack, the
//! engine's single-level fast path replays it, and [`SimReport`] is the
//! level's view of the [`HierarchyReport`].

use crate::config::CacheConfig;
use crate::hierarchy::{
    simulate_hierarchy_config, simulate_hierarchy_many, simulate_hierarchy_many_with_threads,
    CacheHierarchy, HierarchyConfig, HierarchyReport, LevelSpec,
};
use crate::replacement::PolicyKind;
use crate::stats::{CacheStats, DsStats};
use crate::trace::{DsId, MemRef, Trace};

/// Final report of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Cache geometry the run used.
    pub config: CacheConfig,
    /// Name of the replacement policy.
    pub policy: &'static str,
    /// Number of references replayed.
    pub refs: u64,
    stats: CacheStats,
}

impl SimReport {
    /// Level 0's view of a finished run — the whole report for the
    /// 1-level stacks [`SimJob::hierarchy`] builds.
    pub fn from_hierarchy(report: HierarchyReport) -> Self {
        let level = report
            .levels
            .into_iter()
            .next()
            .expect("a hierarchy has at least one level");
        let report = SimReport {
            config: level.config,
            policy: level.policy.name(),
            refs: report.refs,
            stats: level.stats,
        };
        // Observability: one batched update per run, so the per-reference
        // hot path stays instrumentation-free. Also fires when only a
        // per-request trace is active, so fused-path simulations
        // attribute their reference counts to the requesting trace.
        if dvf_obs::enabled() || dvf_obs::trace::active() {
            let total = report.total();
            dvf_obs::add("cachesim.refs", report.refs);
            dvf_obs::add("cachesim.hits", total.hits);
            dvf_obs::add("cachesim.misses", total.misses);
            dvf_obs::add("cachesim.writebacks", total.writebacks);
        }
        report
    }

    /// Stats for one data structure.
    pub fn ds(&self, ds: DsId) -> DsStats {
        self.stats.ds(ds)
    }

    /// Aggregate stats.
    pub fn total(&self) -> DsStats {
        self.stats.total()
    }

    /// Underlying per-structure table.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

/// Streaming simulator: feed references one at a time, then [`finish`].
///
/// [`finish`]: Simulator::finish
#[derive(Debug)]
pub struct Simulator {
    engine: CacheHierarchy,
}

impl Simulator {
    /// LRU simulator (the paper's configuration).
    pub fn new(config: CacheConfig) -> Self {
        Self::with_policy(config, PolicyKind::Lru)
    }

    /// Simulator with an explicit replacement policy.
    pub fn with_policy(config: CacheConfig, policy: PolicyKind) -> Self {
        Self {
            engine: CacheHierarchy::from_config(SimJob { config, policy }.hierarchy()),
        }
    }

    /// Replay one reference.
    #[inline]
    pub fn access(&mut self, r: MemRef) {
        self.engine.access(r);
    }

    /// Replay a slice of references (prefetching replay loop).
    pub fn run(&mut self, refs: &[MemRef]) {
        self.engine.replay(refs);
    }

    /// Statistics accumulated so far (mid-run snapshotting; resident dirty
    /// lines are not yet counted as writebacks).
    pub fn stats(&self) -> &CacheStats {
        self.engine.level_stats(0)
    }

    /// Flush resident dirty lines to main memory and produce the report.
    pub fn finish(self) -> SimReport {
        SimReport::from_hierarchy(self.engine.into_report())
    }
}

/// Simulate a whole trace under one configuration with LRU replacement.
///
/// This is the paper's verification path: kernel trace in, per-data-structure
/// main-memory access counts out.
pub fn simulate(trace: &Trace, config: CacheConfig) -> SimReport {
    simulate_with_policy(trace, config, PolicyKind::Lru)
}

/// Simulate a whole trace under a selectable replacement policy.
pub fn simulate_with_policy(trace: &Trace, config: CacheConfig, policy: PolicyKind) -> SimReport {
    let stack = SimJob { config, policy }.hierarchy();
    SimReport::from_hierarchy(simulate_hierarchy_config(trace, &stack))
}

/// One (geometry, policy) replay job for [`simulate_many`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimJob {
    /// Cache geometry for this job.
    pub config: CacheConfig,
    /// Replacement policy for this job.
    pub policy: PolicyKind,
}

impl SimJob {
    /// Job with the given geometry and LRU replacement (the paper's setup).
    pub fn lru(config: CacheConfig) -> Self {
        Self {
            config,
            policy: PolicyKind::Lru,
        }
    }

    /// The 1-level, no-prefetch stack this job runs on.
    ///
    /// Panics with the descriptive [`crate::ConfigError`] message if the
    /// geometry is invalid (only possible via a struct literal;
    /// [`CacheConfig::new`] validates).
    pub fn hierarchy(self) -> HierarchyConfig {
        HierarchyConfig::new(vec![LevelSpec::new(self.config).with_policy(self.policy)])
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Replay one borrowed trace through every job in parallel: the jobs'
/// 1-level stacks through [`simulate_hierarchy_many`]. Reports come back
/// in job order, bit-identical to [`simulate_with_policy`] per job.
pub fn simulate_many(trace: &Trace, jobs: &[SimJob]) -> Vec<SimReport> {
    let stacks: Vec<HierarchyConfig> = jobs.iter().map(|j| j.hierarchy()).collect();
    simulate_hierarchy_many(trace, &stacks)
        .into_iter()
        .map(SimReport::from_hierarchy)
        .collect()
}

/// [`simulate_many`] with an explicit worker-thread cap (`threads == 1`
/// degenerates to a plain sequential loop with no thread spawns).
pub fn simulate_many_with_threads(
    trace: &Trace,
    jobs: &[SimJob],
    threads: usize,
) -> Vec<SimReport> {
    let stacks: Vec<HierarchyConfig> = jobs.iter().map(|j| j.hierarchy()).collect();
    simulate_hierarchy_many_with_threads(trace, &stacks, threads)
        .into_iter()
        .map(SimReport::from_hierarchy)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::table4;
    use crate::trace::AccessKind;

    fn streaming_trace(bytes: u64, stride: u64) -> Trace {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for addr in (0..bytes).step_by(stride as usize) {
            t.push(MemRef::new(a, addr, AccessKind::Read));
        }
        t
    }

    #[test]
    fn simulate_counts_compulsory_misses() {
        let t = streaming_trace(4096, 8);
        let cfg = table4::SMALL_VERIFICATION; // 32 B lines
        let report = simulate(&t, cfg);
        let a = t.registry.id("A").unwrap();
        assert_eq!(report.ds(a).misses, 4096 / 32);
        assert_eq!(report.refs, 4096 / 8);
        assert_eq!(report.policy, "lru");
    }

    #[test]
    fn finish_flushes_dirty_lines() {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        t.push(MemRef::write(a, 0));
        let report = simulate(&t, table4::SMALL_VERIFICATION);
        // one miss + flush writeback
        assert_eq!(report.ds(a).mem_accesses(), 2);
    }

    #[test]
    fn stats_snapshot_leaves_dirty_lines_unflushed() {
        // Mid-run snapshots (what periodic extrapolation reads) count the
        // miss but not the still-resident dirty line; only `finish`
        // writes it back. Same through both replay entry points.
        let a = DsId(0);
        let mut per_ref = Simulator::new(table4::SMALL_VERIFICATION);
        per_ref.access(MemRef::write(a, 0));
        let mut sliced = Simulator::new(table4::SMALL_VERIFICATION);
        sliced.run(&[MemRef::write(a, 0)]);
        for sim in [per_ref, sliced] {
            assert_eq!(sim.stats().ds(a).mem_accesses(), 1);
            assert_eq!(sim.stats().ds(a).writebacks, 0);
            assert_eq!(sim.finish().ds(a).mem_accesses(), 2);
        }
    }

    #[test]
    fn policies_are_selectable() {
        let t = streaming_trace(1024, 8);
        for kind in PolicyKind::ALL {
            let r = simulate_with_policy(&t, table4::SMALL_VERIFICATION, kind);
            assert_eq!(r.policy, kind.name());
            // streaming: identical compulsory misses under every policy
            assert_eq!(r.total().misses, 1024 / 32);
        }
    }

    #[test]
    fn simulate_many_matches_sequential_in_job_order() {
        let t = streaming_trace(64 * 1024, 8);
        let mut jobs = Vec::new();
        for kind in PolicyKind::ALL {
            jobs.push(SimJob {
                config: table4::SMALL_VERIFICATION,
                policy: kind,
            });
            jobs.push(SimJob {
                config: table4::PROFILE_16KB,
                policy: kind,
            });
        }
        let par = simulate_many(&t, &jobs);
        assert_eq!(par.len(), jobs.len());
        for (job, report) in jobs.iter().zip(&par) {
            let seq = simulate_with_policy(&t, job.config, job.policy);
            assert_eq!(*report, seq, "{} on {}", job.policy.name(), job.config);
        }
    }

    #[test]
    fn simulate_many_handles_edge_thread_counts() {
        let t = streaming_trace(4096, 16);
        let jobs = [SimJob::lru(table4::SMALL_VERIFICATION)];
        for threads in [0, 1, 7] {
            let out = simulate_many_with_threads(&t, &jobs, threads);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].total().misses, 4096 / 32);
        }
        assert!(simulate_many(&t, &[]).is_empty());
    }
}
