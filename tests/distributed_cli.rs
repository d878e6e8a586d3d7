//! End-to-end distributed sweeps against real `dvf serve` subprocesses.
//!
//! Unlike the in-process coordinator tests, every shard here is its own
//! OS process with its own memo cache, so these tests can pin the
//! properties the distributed design is *for*: byte-identical output,
//! warm-cache replay on rerun (zero misses), recompute limited to work
//! a killed shard took with it, and memo-affine routing beating
//! round-robin on per-shard hit rate.

use dvf::serve::jsonval::Json;
use std::io::{BufRead as _, BufReader, Write as _};
use std::process::{Child, Command, Stdio};

/// FIT is a machine parameter: grid points differing only in `fit`
/// share every memo key, so affine routing co-locates them.
const MODEL: &str = r#"
machine m {
  param fit = 5000
  cache { associativity = 4  sets = 64  line = 32 }
  memory { fit = fit }
  core { flops = 1e9  bandwidth = 4e9 }
}
model app {
  param n = 200
  data A { size = n * 8  element = 8 }
  data B { size = n * 8  element = 8 }
  kernel k {
    flops = 2 * n
    access A as streaming(stride = 4)
    access B as streaming()
  }
}
"#;

fn write_model(contents: &str) -> tempfile::TempPath {
    let mut f = tempfile::NamedTempFile::new().expect("temp file");
    f.write_all(contents.as_bytes()).expect("write model");
    f.into_temp_path()
}

// Minimal inline replacement for the tempfile crate (not a dependency):
// a named file in std::env::temp_dir that deletes itself on drop.
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    pub struct NamedTempFile {
        file: std::fs::File,
        path: PathBuf,
    }

    pub struct TempPath(PathBuf);

    impl NamedTempFile {
        pub fn new() -> std::io::Result<Self> {
            let path = std::env::temp_dir().join(format!(
                "dvf-dist-test-{}-{}.aspen",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            Ok(Self {
                file: std::fs::File::create(&path)?,
                path,
            })
        }

        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl std::io::Write for NamedTempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.file, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.file)
        }
    }

    impl TempPath {
        pub fn to_str(&self) -> Option<&str> {
            self.0.to_str()
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

/// A running `dvf serve` subprocess; killed on drop so a failing test
/// doesn't leak listeners.
struct Shard {
    child: Child,
    addr: String,
}

impl Drop for Shard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boot a shard on an OS-assigned port and parse the bound address from
/// its startup banner.
fn spawn_shard() -> Shard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvf"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dvf serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup banner");
    // "dvf-serve listening on http://127.0.0.1:PORT/v1/ (schema ...)"
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split("/v1/").next())
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_owned();
    // Drain the rest of stdout in the background so the child never
    // blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    Shard { child, addr }
}

fn dvf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dvf"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Run a sweep and return (stdout, per-shard stats from `--progress`
/// stderr lines): Vec of (addr, cache_hits, cache_misses, dead).
fn sweep(model: &str, shards: &str, extra: &[&str]) -> (String, Vec<(String, u64, u64, bool)>) {
    let mut args = vec![
        "sweep",
        model,
        "--sweep",
        "fit=1000,5000",
        "--sweep",
        "n=100:600:6",
        "--chunk-points",
        "2",
        "--shards",
        shards,
        "--progress",
    ];
    args.extend_from_slice(extra);
    let out = dvf(&args);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "sweep failed:\n{stderr}");
    let mut stats = Vec::new();
    for line in stderr.lines() {
        if !line.contains("\"event\":\"sweep_shard\"") {
            continue;
        }
        let doc = Json::parse(line).expect("shard line parses");
        stats.push((
            doc.get("addr").unwrap().as_str().unwrap().to_owned(),
            doc.get("cache_hits").unwrap().as_u64().unwrap(),
            doc.get("cache_misses").unwrap().as_u64().unwrap(),
            doc.get("dead").unwrap().as_bool().unwrap(),
        ));
    }
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), stats)
}

#[test]
fn distributed_sweep_is_byte_identical_and_resumes_warm_after_a_kill() {
    let model = write_model(MODEL);
    let model = model.to_str().unwrap();
    let local = dvf(&[
        "sweep",
        model,
        "--sweep",
        "fit=1000,5000",
        "--sweep",
        "n=100:600:6",
    ]);
    assert!(local.status.success());
    let local_stdout = String::from_utf8(local.stdout).unwrap();

    let a = spawn_shard();
    let b = spawn_shard();
    let shard_list = format!("{},{}", a.addr, b.addr);

    // Run 1, both shards cold: byte-identical to the local sweep, work
    // split across both processes.
    let (run1, stats1) = sweep(model, &shard_list, &[]);
    assert_eq!(run1, local_stdout, "distributed stdout must match local");
    assert!(stats1.iter().all(|(_, _, _, dead)| !dead));
    assert!(
        stats1.iter().all(|(_, _, misses, _)| *misses > 0),
        "cold shards must both compute: {stats1:?}"
    );
    let b_misses_run1 = stats1
        .iter()
        .find(|(addr, ..)| *addr == b.addr)
        .expect("shard B reported")
        .2;

    // Kill shard B (taking its memo cache with it) and rerun with the
    // unchanged shard list: the grid must still merge byte-identically,
    // and A recomputes ONLY what died with B — its own points replay
    // from its warm cache.
    drop(b);
    let (run2, stats2) = sweep(model, &shard_list, &[]);
    assert_eq!(run2, local_stdout, "failover rerun must stay identical");
    let a2 = stats2
        .iter()
        .find(|(addr, ..)| *addr == a.addr)
        .expect("shard A reported");
    assert!(a2.1 > 0, "A's own points must replay warm: {stats2:?}");
    assert_eq!(
        a2.2, b_misses_run1,
        "A must recompute exactly the work lost with B: {stats2:?}"
    );
    assert!(
        stats2.iter().any(|(_, _, _, dead)| *dead),
        "the killed shard must be reported dead: {stats2:?}"
    );

    // Run 3: everything is warm on A now — a full replay, zero misses.
    let (run3, stats3) = sweep(model, &shard_list, &[]);
    assert_eq!(run3, local_stdout);
    assert!(
        stats3.iter().all(|(_, _, misses, _)| *misses == 0),
        "a rerun over completed chunks must be all cache hits: {stats3:?}"
    );
}

/// Deletes the manifest + journal pair on drop so a failing test leaves
/// no state for the next run to "resume".
struct ManifestFiles {
    manifest: String,
}

impl ManifestFiles {
    fn new(tag: &str) -> Self {
        let manifest = std::env::temp_dir()
            .join(format!("dvf-manifest-{tag}-{}.json", std::process::id()))
            .to_str()
            .expect("utf-8 temp path")
            .to_owned();
        let files = Self { manifest };
        files.cleanup();
        files
    }

    fn journal(&self) -> String {
        format!("{}.progress", self.manifest)
    }

    fn staging(&self) -> String {
        format!("{}.tmp", self.manifest)
    }

    fn cleanup(&self) {
        let _ = std::fs::remove_file(&self.manifest);
        let _ = std::fs::remove_file(self.journal());
        let _ = std::fs::remove_file(self.staging());
    }
}

impl Drop for ManifestFiles {
    fn drop(&mut self) {
        self.cleanup();
    }
}

#[test]
fn manifest_resume_replans_and_reexecutes_zero_completed_chunks() {
    let model = write_model(MODEL);
    let model = model.to_str().unwrap();
    let files = ManifestFiles::new("resume");

    let a = spawn_shard();
    let b = spawn_shard();
    let shard_list = format!("{},{}", a.addr, b.addr);

    // Run 1 plans, persists the manifest, journals every chunk.
    let (run1, _) = sweep(model, &shard_list, &["--manifest", &files.manifest]);
    let plan_text = std::fs::read_to_string(&files.manifest).expect("manifest written");
    assert!(
        plan_text.contains("\"dvf-sweep-manifest/1\""),
        "{plan_text}"
    );
    let chunk_count = Json::parse(&plan_text)
        .expect("manifest parses")
        .get("chunks")
        .and_then(Json::as_arr)
        .expect("chunks array")
        .len();
    let journal1 = std::fs::read_to_string(files.journal()).expect("journal written");
    assert_eq!(
        journal1.lines().count(),
        chunk_count,
        "one journal line per completed chunk"
    );

    // Kill the entire fleet. A fully journaled sweep must replay from
    // the manifest alone: zero chunks replanned, zero re-executed, no
    // live shard required.
    drop(a);
    drop(b);
    let out = dvf(&[
        "sweep",
        model,
        "--sweep",
        "fit=1000,5000",
        "--sweep",
        "n=100:600:6",
        "--chunk-points",
        "2",
        "--shards",
        &shard_list,
        "--progress",
        "--manifest",
        &files.manifest,
    ]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "offline resume failed:\n{stderr}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        run1,
        "resumed output must be byte-identical"
    );
    assert!(
        stderr.contains(&format!(
            "{chunk_count}/{chunk_count} chunk(s) already complete"
        )),
        "resume must report every chunk as journaled:\n{stderr}"
    );
    assert!(
        !stderr.contains("manifest: planned"),
        "a resumed run must not replan:\n{stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(files.journal()).unwrap(),
        journal1,
        "a fully journaled resume must re-execute nothing"
    );

    // Partial resume: drop the final journal line and bring up a fresh
    // fleet (new ports are fine — the plan pins the shard *count*, and
    // chunk→shard homes come from the manifest, not a replan). Only the
    // missing chunk executes; the merged output is unchanged.
    let kept: Vec<&str> = journal1.lines().collect();
    std::fs::write(
        files.journal(),
        format!("{}\n", kept[..kept.len() - 1].join("\n")),
    )
    .unwrap();
    let c = spawn_shard();
    let d = spawn_shard();
    let (run3, _) = sweep(
        model,
        &format!("{},{}", c.addr, d.addr),
        &["--manifest", &files.manifest],
    );
    assert_eq!(run3, run1, "partial resume must merge to identical output");
    assert_eq!(
        std::fs::read_to_string(files.journal())
            .unwrap()
            .lines()
            .count(),
        chunk_count,
        "exactly the one missing chunk is re-executed and journaled"
    );
}

#[test]
fn torn_journal_tail_is_cut_before_a_resume_appends() {
    let model = write_model(MODEL);
    let model = model.to_str().unwrap();
    let files = ManifestFiles::new("torn");

    let a = spawn_shard();
    let b = spawn_shard();
    let shard_list = format!("{},{}", a.addr, b.addr);
    let (run1, _) = sweep(model, &shard_list, &["--manifest", &files.manifest]);
    let journal1 = std::fs::read_to_string(files.journal()).expect("journal written");
    let lines: Vec<&str> = journal1.lines().collect();
    let chunk_count = lines.len();
    assert!(chunk_count >= 3, "{journal1}");

    // A run killed mid-append: the last two chunks are missing, and the
    // first of them left half a line without its newline.
    let cut = lines[chunk_count - 2];
    let torn = &cut[..cut.len() / 2];
    let kept = lines[..chunk_count - 2].join("\n");
    std::fs::write(files.journal(), format!("{kept}\n{torn}")).unwrap();
    let (run2, _) = sweep(model, &shard_list, &["--manifest", &files.manifest]);
    assert_eq!(run2, run1, "resumed output must be byte-identical");

    // The resume journaled both chunks on lines of their own, so with
    // the fleet gone a third run merges everything from the journal.
    drop(a);
    drop(b);
    let out = dvf(&[
        "sweep",
        model,
        "--sweep",
        "fit=1000,5000",
        "--sweep",
        "n=100:600:6",
        "--chunk-points",
        "2",
        "--shards",
        &shard_list,
        "--manifest",
        &files.manifest,
    ]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "offline resume failed:\n{stderr}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), run1);
    assert!(
        stderr.contains(&format!(
            "{chunk_count}/{chunk_count} chunk(s) already complete"
        )),
        "{stderr}"
    );
}

#[test]
fn stale_manifest_staging_file_breaks_neither_a_fresh_run_nor_a_resume() {
    let model = write_model(MODEL);
    let model = model.to_str().unwrap();
    let files = ManifestFiles::new("staging");

    // A run killed while writing its manifest left half of one in the
    // staging file, and no manifest.
    std::fs::write(files.staging(), "{\"schema\":\"dvf-sweep-mani").unwrap();
    let a = spawn_shard();
    let b = spawn_shard();
    let shard_list = format!("{},{}", a.addr, b.addr);
    let (run1, _) = sweep(model, &shard_list, &["--manifest", &files.manifest]);
    let plan_text = std::fs::read_to_string(&files.manifest).expect("manifest written");
    Json::parse(&plan_text).expect("the fresh manifest is whole");
    assert!(
        !std::path::Path::new(&files.staging()).exists(),
        "the staging file is renamed into place"
    );

    // A torn staging file beside a whole manifest: the resume reads the
    // manifest and merges every chunk from the journal, fleet gone.
    std::fs::write(files.staging(), "{\"chunks\":[").unwrap();
    drop(a);
    drop(b);
    let out = dvf(&[
        "sweep",
        model,
        "--sweep",
        "fit=1000,5000",
        "--sweep",
        "n=100:600:6",
        "--chunk-points",
        "2",
        "--shards",
        &shard_list,
        "--manifest",
        &files.manifest,
    ]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "resume failed:\n{stderr}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), run1);
    assert!(stderr.contains("chunk(s) already complete"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&files.manifest).unwrap(), plan_text);
}

#[test]
fn memo_affine_routing_beats_round_robin_hit_rate() {
    let model = write_model(MODEL);
    let model = model.to_str().unwrap();

    // Fresh shard pair per strategy, so each run starts cold and the
    // hit tallies are deterministic.
    let (affine_stdout, affine) = {
        let a = spawn_shard();
        let b = spawn_shard();
        sweep(model, &format!("{},{}", a.addr, b.addr), &[])
    };
    let (rr_stdout, rr) = {
        let a = spawn_shard();
        let b = spawn_shard();
        sweep(
            model,
            &format!("{},{}", a.addr, b.addr),
            &["--assign", "round-robin"],
        )
    };

    // Routing policy must never change the answer.
    assert_eq!(affine_stdout, rr_stdout);

    let hits = |stats: &[(String, u64, u64, bool)]| stats.iter().map(|s| s.1).sum::<u64>();
    let rate = |stats: &[(String, u64, u64, bool)]| {
        let (h, m) = stats
            .iter()
            .fold((0u64, 0u64), |(h, m), s| (h + s.1, m + s.2));
        h as f64 / (h + m) as f64
    };
    // The grid interleaves `fit` variants of each `n` across contiguous
    // round-robin chunks, so RR splits cache-equivalent points between
    // shards; affine reunites them.
    assert!(
        rate(&affine) > rate(&rr),
        "affine {affine:?} must out-hit round-robin {rr:?}"
    );
    assert!(hits(&affine) > hits(&rr));
}
