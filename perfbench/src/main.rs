//! The repository benchmark: one command that runs a named workload with a
//! seed, checks its outputs, and prints every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric) by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fused-sim --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The benchmark
//! reaches each layer only through the crates' public functions and the
//! server's public endpoints; it adds no instrumentation to the program.

mod fused;
mod serve;
mod sweep;
mod util;

use std::process::ExitCode;
use util::{median, percentile, Outcome};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["fused-sim", "sweep-local", "sweep-sharded", "serve-closed"];

/// Bounded end-to-end metrics: `(name, unit)`, reported on every workload.
/// The upper percentile is the bounded latency because it is the one that
/// repeats on a shared host: the host's speed drifts between a contended
/// level and faster spells, and the share of faster spells in a run moves
/// the median and the mean far more than the 90th percentile.
const END_TO_END: [(&str, &str); 3] = [
    ("latency_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, reported on every workload (zero
/// where the workload bypasses the layer).
const PER_LAYER: [(&str, &str); 34] = [
    ("kernels.record_s", "s"),
    ("kernels.refs", "count"),
    ("cachesim.flat.replay_s", "s"),
    ("cachesim.flat.ns_per_ref", "ns"),
    ("cachesim.hier.replay_s", "s"),
    ("cachesim.hier.ns_per_ref", "ns"),
    ("cachesim.flat.misses", "count"),
    ("cachesim.hier.dram_accesses", "count"),
    ("cachesim.hier.prefetch_fills", "count"),
    ("fused.residual_s", "s"),
    ("aspen.parse_s", "s"),
    ("aspen.resolve_s", "s"),
    ("aspen.resolve_calls", "count"),
    ("core.eval_s", "s"),
    ("core.memo.hits", "count"),
    ("core.memo.misses", "count"),
    ("core.memo.hit_ratio", "ratio"),
    ("sweep.render_s", "s"),
    ("sweep.residual_s", "s"),
    ("coordinator.plan_s", "s"),
    ("coordinator.run_s", "s"),
    ("coordinator.chunks", "count"),
    ("coordinator.retries", "count"),
    ("coordinator.failed_over_chunks", "count"),
    ("shard.busy_s", "s"),
    ("shard.memo.hit_ratio", "ratio"),
    ("coordinator.unattributed_us_per_point", "us"),
    ("serve.route_us.dvf", "us"),
    ("serve.route_us.sweep", "us"),
    ("serve.queue_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("obs.trace_overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match name {
        "fused-sim" => fused::run(seed, seconds, traced),
        "sweep-local" => sweep::run_local(seed, seconds, traced),
        "sweep-sharded" => sweep::run_sharded(seed, seconds, traced),
        "serve-closed" => serve::run(seed, seconds, traced),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// The end-to-end metric values of one outcome, in `END_TO_END` order.
fn end_to_end(out: &Outcome) -> [f64; 3] {
    [
        percentile(&out.latencies_us, 0.9),
        median(&out.setups_s),
        out.peak_rss_mb,
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--shard") {
        return sweep::shard_main();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    // The traced run measures an untraced half first, so the tracing
    // overhead is a same-run comparison.
    let (mut out, overhead) = if args.trace {
        let half = args.seconds / 2.0;
        let plain = run_workload(&args.workload, args.seed, half, false);
        let mut traced = run_workload(&args.workload, args.seed, half, true);
        let overhead = median(&traced.latencies_us) / median(&plain.latencies_us) - 1.0;
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced.check_failures.extend(plain.check_failures);
        (traced, Some(overhead))
    } else {
        (
            run_workload(&args.workload, args.seed, args.seconds, false),
            None,
        )
    };
    if let Some(overhead) = overhead {
        out.layer("obs.trace_overhead_frac", overhead);
    }

    let e2e = end_to_end(&out);
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        println!("metric {name} {value} {unit}");
    }
    println!("metric latency_samples {} count", out.latencies_us.len());
    // Printed beside the bounded metrics, without a bound.
    println!(
        "metric latency_p50_us {} us",
        percentile(&out.latencies_us, 0.5)
    );
    println!(
        "metric throughput {} 1/s",
        out.items / out.measured_s.max(1e-9)
    );
    for (name, value, unit) in &out.named {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "metric failed_frac {} frac",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, value) in &out.exact {
        println!("stat {name} {value}");
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            println!("layer {name} {value} {unit}");
        }
        println!("\nper-layer split of one operation ({}):", args.workload);
        for (name, seconds) in &out.table {
            let share = seconds / out.table_total_s.max(1e-12) * 100.0;
            println!("  {name:<44} {:>12.3} ms {share:>6.1}%", seconds * 1e3);
        }
        println!(
            "  {:<44} {:>12.3} ms {:>6.1}%",
            "end to end",
            out.table_total_s * 1e3,
            100.0
        );
        println!();
    }
    for failure in &out.check_failures {
        println!("check failed: {failure}");
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, out.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let (correct, line) = result_json(&out, &metrics);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line `{"correct", "attempted", "failed", "metrics"}` and
/// whether the run is correct.
fn result_json(out: &Outcome, metrics: &[(&str, &str, f64)]) -> (bool, String) {
    let correct = out.check_failures.is_empty()
        && out.attempted > 0
        && metrics.iter().all(|m| m.2.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    (correct, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_correct_run_reports_its_metrics() {
        let metrics = [("latency_p90_us", "us", 250.0)];
        let out = Outcome {
            attempted: 10,
            ..Default::default()
        };
        let (correct, line) = result_json(&out, &metrics);
        assert!(correct);
        assert!(
            line.contains("\"latency_p90_us\": {\"value\": 250.0"),
            "{line}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut out = Outcome {
            attempted: 10,
            ..Default::default()
        };
        out.check(false, || "corrupted row".to_owned());
        assert!(!result_json(&out, &[]).0);
    }
}
