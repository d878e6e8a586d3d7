//! `sweep-local` and `sweep-sharded`: Aspen source → 3-D grid sweep →
//! rendered rows, the work `dvf sweep` does.
//!
//! The model uses all four CGPMAC families. The grid is `n` × `k` × four
//! `fit` values with `fit` fastest; `fit` is a machine parameter outside
//! every memo key, so each `(n, k)` pair costs one memo insert per pattern
//! and three hits. `sweep-local` evaluates in-process with a cold memo,
//! as every CLI invocation does; `sweep-sharded` sends the same grid
//! through the coordinator to two fresh shard processes.

use crate::util::{median, peak_rss_mb, secs, Clock, Outcome, Rng, SETUP_REPEATS};
use dvf_aspen::{Document, Resolver};
use dvf_core::gridplan::{Assignment, ChunkPlan, GridSpec};
use dvf_core::memo;
use dvf_core::workflow::{self, DvfWorkflow};
use dvf_serve::client::ShardClient;
use dvf_serve::coordinator::{self, CoordinatorConfig, RowOutcome, SweepJob};
use dvf_serve::jsonval::Json;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Grid shape: `N_VALUES` × `K_VALUES` × `FIT_VALUES` points. The seed
/// picks the values, never the counts.
pub const N_VALUES: usize = 80;
pub const K_VALUES: usize = 50;
pub const FIT_VALUES: usize = 4;

/// Grid points re-evaluated with the memo off, per run.
const MEMO_OFF_SAMPLES: usize = 256;
/// Shards and the coordinator's settings for `sweep-sharded`.
const SHARDS: usize = 2;
const CHUNK_POINTS: usize = 256;
const IN_FLIGHT: usize = 1;

/// The swept model: streaming, random, template and reuse accesses whose
/// memo keys all depend on both `n` and `k`. Every expression stays
/// integral for the integer grid values `grid` emits.
pub const MODEL: &str = "\
// Generated benchmark model: one access per CGPMAC pattern family.
machine bench {
  param fit = 5000
  cache { associativity = 16  sets = 4096  line = 64  capacity = 4 * MiB }
  memory { fit = fit }
  core { flops = 1e9  bandwidth = 4e9 }
}

model mix {
  param n = 128000
  param k = 4

  data S { size = n * 8  element = 8 }
  data G { size = n * 16  element = 16 }
  data T { size = (n / 8000 + 4) * 8  element = 8 }
  data P { size = 64 * KiB  element = 8 }

  kernel main {
    flops = 4 * n
    access S as streaming(stride = k)
    access G as random(k = k, iters = n / 8)
    access T as template(starts = (0, 2), step = 1, ends = (n / 8000, n / 8000 + 2), repeat = k)
    access P as reuse(interfering = n * 8, reuses = k)
  }
}
";

/// The seed's grid: strictly increasing integer values per dimension
/// (`n` a multiple of 8000 so `n / 8` and `n / 8000` stay integral).
pub fn grid(seed: u64) -> GridSpec {
    let mut rng = Rng::new(seed ^ 0x5157);
    let n = (0..N_VALUES as u64)
        .map(|j| (8000 * (16 + 3 * j + rng.below(3))) as f64)
        .collect();
    let k = (0..K_VALUES as u64)
        .map(|j| (1 + 2 * j + rng.below(2)) as f64)
        .collect();
    let fit = (0..FIT_VALUES as u64)
        .map(|j| (1000 * (1 + 2 * j + rng.below(2))) as f64)
        .collect();
    GridSpec::new(vec![
        ("n".to_owned(), n),
        ("k".to_owned(), k),
        ("fit".to_owned(), fit),
    ])
    .expect("three non-empty, distinct dimensions")
}

fn point_of<'g>(grid: &'g GridSpec, names: &[&'g str], idx: usize) -> Vec<(&'g str, f64)> {
    names.iter().copied().zip(grid.point(idx)).collect()
}

fn row_of(result: Result<dvf_core::DvfReport, workflow::WorkflowError>) -> RowOutcome {
    match result {
        Ok(report) => RowOutcome::Ok {
            time_s: report.time_s,
            dvf_app: report.dvf_app(),
        },
        Err(e) => RowOutcome::Err(e.to_string()),
    }
}

/// The rows as `dvf sweep` prints them.
pub fn render(grid: &GridSpec, rows: &[RowOutcome]) -> String {
    let param = grid.names().join(",");
    let mut out = format!(
        "sweep `{param}` over {} point(s):\n\n{:<14} {:>14} {:>14}\n",
        grid.len(),
        param,
        "time (s)",
        "DVF_app"
    );
    for (idx, row) in rows.iter().enumerate() {
        let label = grid
            .point(idx)
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let _ = match row {
            RowOutcome::Ok { time_s, dvf_app } => {
                writeln!(out, "{label:<14} {time_s:>14.6e} {dvf_app:>14.6e}")
            }
            RowOutcome::Err(e) => writeln!(out, "{label:<14} error: {e}"),
        };
    }
    out
}

/// Error rows, which the benchmark's workloads must never produce.
pub fn error_rows(rows: &[RowOutcome]) -> usize {
    rows.iter()
        .filter(|r| matches!(r, RowOutcome::Err(_)))
        .count()
}

/// Re-evaluate `samples` seeded grid points with the memo off and
/// compare them bit for bit with `rows`; returns the mismatches.
pub fn memo_off_mismatches(
    wf: &DvfWorkflow,
    grid: &GridSpec,
    rows: &[RowOutcome],
    seed: u64,
    samples: usize,
) -> Vec<usize> {
    let names = grid.names();
    let mut rng = Rng::new(seed ^ 0x0FF);
    let picks: Vec<usize> = (0..samples)
        .map(|_| rng.below(grid.len() as u64) as usize)
        .collect();
    memo::set_enabled(false);
    let fresh: Vec<RowOutcome> = picks
        .iter()
        .map(|&i| row_of(wf.evaluate(&point_of(grid, &names, i))))
        .collect();
    memo::set_enabled(true);
    let same = |a: &RowOutcome, b: &RowOutcome| match (a, b) {
        (
            RowOutcome::Ok { time_s, dvf_app },
            RowOutcome::Ok {
                time_s: t2,
                dvf_app: d2,
            },
        ) => time_s.to_bits() == t2.to_bits() && dvf_app.to_bits() == d2.to_bits(),
        _ => false,
    };
    picks
        .into_iter()
        .zip(fresh)
        .filter(|(i, f)| !same(&rows[*i], f))
        .map(|(i, _)| i)
        .collect()
}

/// What a sweep invocation parses and validates before evaluating.
struct Prepared {
    wf: DvfWorkflow,
    grid: GridSpec,
}

fn prepare(seed: u64) -> Prepared {
    let wf = DvfWorkflow::parse(MODEL).expect("the benchmark model parses");
    let grid = grid(seed);
    for name in grid.names() {
        wf.check_param(name).expect("every swept name is declared");
    }
    Prepared { wf, grid }
}

/// One untraced local sweep, exactly as `dvf sweep` runs it.
fn sweep_local(p: &Prepared) -> Vec<RowOutcome> {
    let names = p.grid.names();
    let indices: Vec<usize> = (0..p.grid.len()).collect();
    dvf_core::sweep::par_map(&indices, |&i| {
        row_of(p.wf.evaluate(&point_of(&p.grid, &names, i)))
    })
}

/// One traced local sweep: resolve and evaluate timed apart per point
/// through the public resolver and evaluator. Returns the rows and the
/// summed `(resolve, eval)` seconds over all worker threads.
fn sweep_local_traced(doc: &Document, grid: &GridSpec) -> (Vec<RowOutcome>, f64, f64) {
    let names = grid.names();
    let indices: Vec<usize> = (0..grid.len()).collect();
    let timed = dvf_core::sweep::par_map(&indices, |&i| {
        let t = Instant::now();
        let mut resolver = Resolver::new(doc);
        for (k, v) in point_of(grid, &names, i) {
            resolver = resolver.set_param(k, v);
        }
        let specs = resolver
            .machine(None)
            .and_then(|m| resolver.model(None).map(|a| (m, a)));
        let resolve_s = secs(t);
        let t = Instant::now();
        let row = match specs {
            Ok((machine, app)) => row_of(workflow::evaluate(&app, &machine)),
            Err(e) => RowOutcome::Err(workflow::WorkflowError::from(e).to_string()),
        };
        (row, resolve_s, secs(t))
    });
    let (mut resolve, mut eval) = (0.0, 0.0);
    let rows = timed
        .into_iter()
        .map(|(row, r, e)| {
            resolve += r;
            eval += e;
            row
        })
        .collect();
    (rows, resolve, eval)
}

/// Worker threads `par_map` uses for a grid of `points`.
fn workers(points: usize) -> f64 {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(points.max(1)) as f64
}

pub fn run_local(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut prepared = None;
    let mut parse_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        prepared = Some(prepare(seed));
        out.setups_s.push(secs(t));
        let t = Instant::now();
        std::hint::black_box(dvf_aspen::parse(MODEL).expect("the benchmark model parses"));
        parse_s.push(secs(t));
    }
    let p = prepared.expect("set up at least once");
    let doc = dvf_aspen::parse(MODEL).expect("the benchmark model parses");
    let points = p.grid.len();

    let mut expected: Option<(Vec<RowOutcome>, String)> = None;
    let (mut resolve, mut eval, mut render_s, mut residual) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let mut clock = Clock::new(seconds);
    while clock.more() {
        let t = Instant::now();
        std::hint::black_box(prepare(seed));
        out.setups_s.push(secs(t));
        // A cold memo per sweep: what every CLI invocation pays.
        memo::clear();
        let before = memo::stats();
        let t = Instant::now();
        let (rows, split) = if traced {
            let (rows, r, e) = sweep_local_traced(&doc, &p.grid);
            (rows, Some((r, e)))
        } else {
            (sweep_local(&p), None)
        };
        let t_render = Instant::now();
        let text = render(&p.grid, &rows);
        let (rendered, elapsed) = (secs(t_render), secs(t));
        let delta = memo::stats().since(&before);
        out.attempted += points as u64;
        let recording = clock.recording();
        if recording {
            out.latencies_us.push(elapsed * 1e6);
            out.items += points as f64;
        }
        let errors = error_rows(&rows);
        out.failed += errors as u64;
        out.check(errors == 0, || {
            format!("{errors} error row(s) in a local sweep")
        });
        match &expected {
            None => expected = Some((rows, text)),
            Some((_, first)) => out.check(*first == text, || {
                "a repeated local sweep rendered different rows".to_owned()
            }),
        }
        hits.push(delta.hits as f64);
        misses.push(delta.misses as f64);
        if let (true, Some((r, e))) = (recording, split) {
            // Layer seconds summed over the worker threads, divided by
            // their number: the wall time the layer accounts for.
            let w = workers(points);
            resolve.push(r / w);
            eval.push(e / w);
            render_s.push(rendered);
            residual.push(elapsed - (r + e) / w - rendered);
        }
        clock.done();
    }
    out.measured_s = out.latencies_us.iter().sum::<f64>() / 1e6;
    out.peak_rss_mb = peak_rss_mb("self").unwrap_or(0.0);
    let per_s = out.items / out.measured_s;
    out.named("sweep_kpoints_per_s", per_s / 1e3, "kpoints/s");

    let (rows, _) = expected.expect("at least one sweep");
    let bad = memo_off_mismatches(&p.wf, &p.grid, &rows, seed, MEMO_OFF_SAMPLES);
    out.check(bad.is_empty(), || {
        format!(
            "{} of {MEMO_OFF_SAMPLES} sampled points differ with the memo off (first: point {})",
            bad.len(),
            bad[0]
        )
    });

    let (h, m) = (median(&hits), median(&misses));
    out.layer("core.memo.hits", h);
    out.layer("core.memo.misses", m);
    out.layer("core.memo.hit_ratio", h / (h + m).max(1.0));
    if traced {
        let (r, e) = (median(&resolve), median(&eval));
        let (rd, res) = (median(&render_s), median(&residual));
        out.layer("aspen.parse_s", median(&parse_s));
        out.layer("aspen.resolve_s", r);
        out.layer("aspen.resolve_calls", points as f64);
        out.layer("core.eval_s", e);
        out.layer("sweep.render_s", rd);
        out.layer("sweep.residual_s", res);
        out.table_total_s = median(&out.latencies_us) / 1e6;
        out.table_row("aspen resolve", r);
        out.table_row("core patterns + memo + report", e);
        out.table_row("render rows", rd);
        out.table_row("unattributed residual (par_map threads)", res);
    }
    out
}

/// A shard: this benchmark's own executable re-run with `--shard`, which
/// serves exactly what `dvf serve --workers 1` serves. It exits when its
/// stdin closes, so it never outlives the benchmark.
struct Shard {
    child: Child,
    addr: SocketAddr,
}

impl Shard {
    /// Start a shard; its address is known once [`Shard::ready`] read it.
    fn spawn() -> Result<Self, String> {
        let child = std::env::current_exe()
            .and_then(|exe| {
                Command::new(exe)
                    .arg("--shard")
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
            })
            .map_err(|e| format!("cannot start a shard: {e}"))?;
        Ok(Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        })
    }

    /// Read the bound address the shard prints, then wait until it
    /// answers `/v1/healthz`.
    fn ready(&mut self) -> Result<(), String> {
        let stdout = self.child.stdout.take().ok_or("shard has no stdout")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("shard address: {e}"))?;
        self.addr = line
            .trim()
            .parse()
            .map_err(|_| format!("shard printed `{}`, not an address", line.trim()))?;
        match client(self.addr).get("/v1/healthz") {
            Ok(reply) if reply.status == 200 => Ok(()),
            Ok(reply) => Err(format!("shard healthz answered {}", reply.status)),
            Err(e) => Err(format!("shard healthz: {e}")),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Closing stdin asks the shard to drain and exit; wait for it.
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

fn client(addr: SocketAddr) -> ShardClient {
    ShardClient::new(addr, Duration::from_secs(60), Duration::from_secs(30))
}

/// Start `n` shards in parallel and wait until every one is ready. On
/// failure every started shard is stopped and waited for.
fn spawn_shards(n: usize) -> Result<Vec<Shard>, String> {
    let mut shards = (0..n)
        .map(|_| Shard::spawn())
        .collect::<Result<Vec<_>, _>>()?;
    for shard in &mut shards {
        shard.ready()?;
    }
    Ok(shards)
}

/// Entry point of a shard process (`--shard`): what `dvf serve --workers
/// 1` does, with the observability registry on as the CLI turns it on.
pub fn shard_main() -> ExitCode {
    dvf_obs::set_enabled(true);
    let config = dvf_serve::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..Default::default()
    };
    let server = match dvf_serve::Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shard: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", server.addr());
    let _ = std::io::stdout().flush();
    let mut rest = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut rest);
    server.shutdown();
    ExitCode::SUCCESS
}

/// Sum of the shard's `serve.latency_us` histogram: microseconds spent
/// serving requests so far.
fn shard_busy_us(addr: SocketAddr) -> Result<f64, String> {
    let reply = client(addr)
        .get("/v1/metrics")
        .map_err(|e| format!("shard metrics: {e}"))?;
    let doc = Json::parse(&reply.body).map_err(|e| format!("shard metrics: {e}"))?;
    let sum = doc
        .get("obs")
        .and_then(|o| o.get("histograms"))
        .and_then(Json::as_arr)
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some("serve.latency_us"))
        })
        .and_then(|h| h.get("sum"))
        .and_then(Json::as_f64);
    // No histogram yet means no request has finished yet.
    Ok(sum.unwrap_or(0.0))
}

/// Per-sweep layer figures of a traced sharded sweep.
#[derive(Default)]
struct ShardedSplit {
    resolve_s: Vec<f64>,
    plan_s: Vec<f64>,
    run_s: Vec<f64>,
    busy_s: Vec<f64>,
    residual_s: Vec<f64>,
    hit_ratio: Vec<f64>,
    hits: Vec<f64>,
    misses: Vec<f64>,
    chunks: Vec<f64>,
    retries: Vec<f64>,
    failed_over: Vec<f64>,
}

pub fn run_sharded(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let p = prepare(seed);
    let doc = dvf_aspen::parse(MODEL).expect("the benchmark model parses");
    let points = p.grid.len();
    let names = p.grid.names();
    let job = SweepJob {
        source: MODEL.to_owned(),
        machine: None,
        model: None,
        overrides: Vec::new(),
    };
    let cfg = CoordinatorConfig {
        in_flight: IN_FLIGHT,
        ..Default::default()
    };

    let mut split = ShardedSplit::default();
    let mut first_text: Option<String> = None;
    let mut shard_rss: f64 = 0.0;
    let mut clock = Clock::new(seconds);
    while clock.more() {
        // Fresh shards per sweep, so every sweep meets cold shard memos,
        // as `sweep-local` does. Spawning them is set-up.
        let t = Instant::now();
        let shards = match spawn_shards(SHARDS) {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || e);
                break;
            }
        };
        out.setups_s.push(secs(t));
        let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
        let busy_before: Vec<f64> = if traced {
            addrs
                .iter()
                .map(|&a| shard_busy_us(a).unwrap_or(0.0))
                .collect()
        } else {
            Vec::new()
        };

        let t = Instant::now();
        let mut resolve_s = 0.0;
        let plan = if traced {
            ChunkPlan::plan(
                &p.grid,
                SHARDS,
                CHUNK_POINTS,
                Assignment::MemoAffine,
                |idx| {
                    let t = Instant::now();
                    let mut resolver = Resolver::new(&doc);
                    for (k, v) in point_of(&p.grid, &names, idx) {
                        resolver = resolver.set_param(k, v);
                    }
                    let specs = resolver
                        .machine(None)
                        .and_then(|m| resolver.model(None).map(|a| (m, a)));
                    resolve_s += secs(t);
                    specs
                        .ok()
                        .and_then(|(m, a)| workflow::memo_fingerprint(&a, &m).ok())
                        .unwrap_or(0)
                },
            )
        } else {
            ChunkPlan::plan(
                &p.grid,
                SHARDS,
                CHUNK_POINTS,
                Assignment::MemoAffine,
                |idx| {
                    p.wf.point_fingerprint(&point_of(&p.grid, &names, idx))
                        .unwrap_or(0)
                },
            )
        };
        let plan_s = secs(t);
        let t_run = Instant::now();
        let result = coordinator::run(&job, &p.grid, &plan, &addrs, &cfg, |_| {});
        let run_s = secs(t_run);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.attempted += points as u64;
                out.failed += points as u64;
                out.check(false, || format!("distributed sweep failed: {e}"));
                break;
            }
        };
        let text = render(&p.grid, &report.rows);
        let elapsed = secs(t);
        out.attempted += points as u64;
        let recording = clock.recording();
        if recording {
            out.latencies_us.push(elapsed * 1e6);
            out.items += points as f64;
        }
        let errors = error_rows(&report.rows);
        out.failed += errors as u64;
        out.check(errors == 0, || {
            format!("{errors} error row(s) in a sharded sweep")
        });
        match &first_text {
            None => first_text = Some(text),
            Some(first) => out.check(*first == text, || {
                "a repeated sharded sweep rendered different rows".to_owned()
            }),
        }

        if traced && recording {
            let busy = addrs
                .iter()
                .zip(&busy_before)
                .map(|(&a, before)| shard_busy_us(a).unwrap_or(0.0) - before)
                .fold(0.0f64, f64::max)
                / 1e6;
            let (hits, misses) = (report.cache_hits() as f64, report.cache_misses() as f64);
            split.resolve_s.push(resolve_s);
            split.plan_s.push(plan_s);
            split.run_s.push(run_s);
            split.busy_s.push(busy);
            split.residual_s.push(elapsed - plan_s - run_s);
            split.hits.push(hits);
            split.misses.push(misses);
            split.hit_ratio.push(hits / (hits + misses).max(1.0));
            split.chunks.push(plan.chunks.len() as f64);
            split
                .retries
                .push(report.shards.iter().map(|s| s.retries).sum::<u64>() as f64);
            split.failed_over.push(report.failed_over_chunks as f64);
        }
        shard_rss = shard_rss.max(shards.iter().map(Shard::peak_rss_mb).sum());
        drop(shards);
        clock.done();
    }
    out.measured_s = out.latencies_us.iter().sum::<f64>() / 1e6;
    out.peak_rss_mb = peak_rss_mb("self").unwrap_or(0.0) + shard_rss;
    out.named(
        "sweep_kpoints_per_s",
        out.items / out.measured_s / 1e3,
        "kpoints/s",
    );

    // Output check: the merged rows are byte-identical to the local
    // sweep of the same seed.
    if let Some(text) = &first_text {
        memo::clear();
        let local = render(&p.grid, &sweep_local(&p));
        out.check(*text == local, || {
            "sharded rows differ from the local sweep's".to_owned()
        });
    }

    if traced && !split.run_s.is_empty() {
        let s = &split;
        let (run, busy) = (median(&s.run_s), median(&s.busy_s));
        let (plan, residual) = (median(&s.plan_s), median(&s.residual_s));
        out.layer("aspen.resolve_s", median(&s.resolve_s));
        out.layer("aspen.resolve_calls", points as f64);
        out.layer("coordinator.plan_s", plan);
        out.layer("coordinator.run_s", run);
        out.layer("coordinator.chunks", median(&s.chunks));
        out.layer("coordinator.retries", median(&s.retries));
        out.layer("coordinator.failed_over_chunks", median(&s.failed_over));
        out.layer("shard.busy_s", busy);
        out.layer("shard.memo.hit_ratio", median(&s.hit_ratio));
        out.layer("core.memo.hits", median(&s.hits));
        out.layer("core.memo.misses", median(&s.misses));
        out.layer("core.memo.hit_ratio", median(&s.hit_ratio));
        out.layer(
            "coordinator.unattributed_us_per_point",
            (run - busy) / points as f64 * 1e6,
        );
        out.table_total_s = median(&out.latencies_us) / 1e6;
        out.table_row("coordinator plan (resolve + fingerprint)", plan);
        out.table_row("busiest shard, serving", busy);
        out.table_row("coordinator RPC + merge, unattributed", run - busy);
        out.table_row("render + residual", residual);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The memo is process-wide; tests that read its tallies take turns.
    static MEMO: Mutex<()> = Mutex::new(());

    #[test]
    fn seed_changes_values_not_the_point_count() {
        let (a, b) = (grid(1), grid(2));
        assert_eq!(a.len(), N_VALUES * K_VALUES * FIT_VALUES);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        for g in [&a, &b] {
            for (_, values) in g.dims() {
                assert!(values.iter().all(|v| v.fract() == 0.0));
                assert!(values.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn every_point_evaluates_and_a_corrupted_row_is_caught() {
        let _memo = MEMO.lock().unwrap();
        let p = prepare(7);
        let rows = sweep_local(&p);
        assert_eq!(error_rows(&rows), 0);
        assert!(memo_off_mismatches(&p.wf, &p.grid, &rows, 7, 64).is_empty());
        let mut bad = rows.clone();
        let text = render(&p.grid, &rows);
        for row in bad.iter_mut() {
            if let RowOutcome::Ok { dvf_app, .. } = row {
                *dvf_app = f64::from_bits(dvf_app.to_bits() ^ 1);
            }
        }
        assert_eq!(memo_off_mismatches(&p.wf, &p.grid, &bad, 7, 64).len(), 64);
        bad[0] = RowOutcome::Err("corrupted".to_owned());
        assert_eq!(error_rows(&bad), 1);
        assert_ne!(render(&p.grid, &bad), text);
    }

    #[test]
    fn three_quarters_of_pattern_evaluations_hit_the_memo() {
        // One (n, k) slab of the grid: 4 fit values share every key.
        let _memo = MEMO.lock().unwrap();
        let p = prepare(11);
        let names = p.grid.names();
        memo::clear();
        let before = memo::stats();
        for i in 0..4 * FIT_VALUES {
            p.wf.evaluate(&point_of(&p.grid, &names, i)).unwrap();
        }
        let d = memo::stats().since(&before);
        assert_eq!(d.hits, 3 * d.misses, "{d:?}");
    }
}
