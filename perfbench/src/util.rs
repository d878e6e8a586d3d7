//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, peak memory, and the per-run result record.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so the same `--seed` always
/// produces the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_DF00_0BEE_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Set-up repetitions before measuring. A run reports as `setup_s` the
/// median of these and of one more repetition per measured operation
/// (per round for `serve-closed`): spread over the whole run, the
/// repetitions meet the same mix of fast and contended spells of a shared
/// host as the operations do, instead of whichever one the run began in.
pub const SETUP_REPEATS: usize = 11;

/// Paces a measuring loop: one warm-up operation that is checked but not
/// recorded, then operations until `seconds` have passed (at least one).
#[derive(Debug)]
pub struct Clock {
    started: Instant,
    seconds: f64,
    warm: bool,
    ops: usize,
}

impl Clock {
    pub fn new(seconds: f64) -> Self {
        Self {
            started: Instant::now(),
            seconds,
            warm: true,
            ops: 0,
        }
    }

    /// Whether to run another operation.
    pub fn more(&self) -> bool {
        self.warm || self.ops == 0 || secs(self.started) < self.seconds
    }

    /// Whether the current operation is recorded (not the warm-up).
    pub fn recording(&self) -> bool {
        !self.warm
    }

    /// Mark the current operation finished.
    pub fn done(&mut self) {
        if self.warm {
            self.warm = false;
            self.started = Instant::now();
        } else {
            self.ops += 1;
        }
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set (`VmHWM`) of a process, in MiB; `None` when the
/// process is gone or `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (fused passes, grid points, requests).
    pub attempted: u64,
    /// Operations that failed a check, errored or were shed.
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Wall time of each user-visible operation, in microseconds.
    pub latencies_us: Vec<f64>,
    /// Work items completed while measuring (references, points, requests).
    pub items: f64,
    /// Seconds of measuring the items took: the recorded operations'
    /// summed wall time (batch workloads) or the request loops' time.
    pub measured_s: f64,
    /// Each repetition of the workload's set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Peak resident memory of the processes under test, in MiB.
    pub peak_rss_mb: f64,
    /// End-to-end figures particular to this workload, printed by name.
    pub named: Vec<(String, f64, &'static str)>,
    /// Exact simulated statistics (counts that must never move).
    pub exact: Vec<(String, u64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-layer table rows: (layer, seconds per operation), in order.
    pub table: Vec<(&'static str, f64)>,
    /// End-to-end seconds per operation that the table splits.
    pub table_total_s: f64,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_owned(), value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Record one row of the per-layer table.
    pub fn table_row(&mut self, name: &'static str, seconds: f64) {
        self.table.push((name, seconds));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }
}
