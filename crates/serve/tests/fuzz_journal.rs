//! Fuzzing of the sweep `--manifest` journal loader and the sweep-row
//! decoder, plus the journal's truncation property.
//!
//! `load_journal` reads a file a killed run may have left half written,
//! and `decode_rows` reads shard replies off the network. These
//! properties feed both raw byte soup, mutated well-formed journals and
//! structure-aware hostile lines: every input must load or fail with an
//! error, never panic. A journal that loads must be self-consistent:
//! a grid point has a row exactly when its chunk is marked done.
//!
//! The truncation property is exhaustive rather than sampled: a valid
//! journal cut at *every* byte offset loads, with exactly the chunks of
//! the fully present lines marked done and their rows bit-equal to the
//! originals — a killed append costs one chunk's rerun, never the run.

use dvf_core::gridplan::{Assignment, ChunkPlan, GridSpec};
use dvf_core::sweep::RowOutcome;
use dvf_serve::coordinator::ResumeState;
use dvf_serve::jsonval::Json;
use dvf_serve::manifest::{chunk_line, load_journal};
use dvf_serve::rows::decode_rows;
use proptest::prelude::*;

/// Twelve points in six two-point chunks over two shards.
fn plan() -> ChunkPlan {
    let grid = GridSpec::new(vec![("n".to_owned(), (0..12).map(f64::from).collect())]).unwrap();
    ChunkPlan::plan(&grid, 2, 2, Assignment::RoundRobin, |_| 0)
}

/// One row per grid point: awkward doubles and, at every fifth point,
/// an error whose text needs escaping and holds multi-byte UTF-8.
fn rows() -> Vec<RowOutcome> {
    (0..12u32)
        .map(|i| {
            if i % 5 == 3 {
                RowOutcome::Err(format!(
                    "model error for data structure `Ä{i}`: “bad” \"q\" \\ \u{1} ∞"
                ))
            } else {
                RowOutcome::Ok {
                    time_s: (f64::from(i) + 0.1) * 1e-7 / 3.0,
                    dvf_app: 0.1 + 0.2 * f64::from(i),
                }
            }
        })
        .collect()
}

/// The valid journal: one line per chunk, written in reverse chunk
/// order (completion order is arbitrary). Returns the text and, per
/// line, the byte offset where its content ends plus its chunk id.
fn journal(plan: &ChunkPlan, rows: &[RowOutcome]) -> (String, Vec<(usize, usize)>) {
    let mut text = String::new();
    let mut ends = Vec::new();
    for chunk in plan.chunks.iter().rev() {
        let chunk_rows: Vec<RowOutcome> = chunk.indices.iter().map(|&i| rows[i].clone()).collect();
        text.push_str(&chunk_line(chunk.id, &chunk_rows));
        ends.push((text.len(), chunk.id));
        text.push('\n');
    }
    (text, ends)
}

fn bits(row: &RowOutcome) -> Result<(u64, u64), &str> {
    match row {
        RowOutcome::Ok { time_s, dvf_app } => Ok((time_s.to_bits(), dvf_app.to_bits())),
        RowOutcome::Err(e) => Err(e),
    }
}

/// A loaded journal fills a point's row exactly when its chunk is done.
fn check_consistent(state: &ResumeState, plan: &ChunkPlan) -> Result<(), String> {
    if state.rows.len() != plan.total_points || state.done.len() != plan.chunks.len() {
        return Err("resume state does not match the plan's shape".to_owned());
    }
    for chunk in &plan.chunks {
        for &idx in &chunk.indices {
            if state.rows[idx].is_some() != state.done[chunk.id] {
                return Err(format!("point {idx} disagrees with chunk {}", chunk.id));
            }
        }
    }
    Ok(())
}

/// Load `bytes` the way the CLI reads a journal file, and decode every
/// line as a row carrier; errors are fine, panics are not.
fn load_and_decode(bytes: &[u8], plan: &ChunkPlan) -> Result<Option<ResumeState>, String> {
    let text = String::from_utf8_lossy(bytes);
    for line in text.lines() {
        if let Ok(doc) = Json::parse(line) {
            if let Ok(rows) = decode_rows(&doc) {
                let declared = doc.get("rows").and_then(Json::as_arr).map(<[Json]>::len);
                if declared != Some(rows.len()) {
                    return Err("decoded row count differs from the array".to_owned());
                }
            }
        }
    }
    match load_journal(&text, plan) {
        Ok(state) => {
            check_consistent(&state, plan)?;
            Ok(Some(state))
        }
        Err(_) => Ok(None),
    }
}

/// Chunk ids a hostile line may claim: in range, out of range, and not
/// a usable integer at all.
const CHUNK_IDS: &[&str] = &[
    "0",
    "3",
    "5",
    "6",
    "-1",
    "1.5",
    "1e300",
    "9007199254740993",
    "\"0\"",
    "null",
    "[]",
];

/// Row objects, well-formed and not.
const ROW_SHAPES: &[&str] = &[
    r#"{"time_s":1.5e-7,"dvf_app":42.25}"#,
    r#"{"error":"boom"}"#,
    r#"{"value":3.0,"time_s":-0.0,"dvf_app":1e308}"#,
    r#"{"time_s":1.0}"#,
    r#"{"dvf_app":"x","time_s":2}"#,
    r#"{"error":7}"#,
    r#"{"error":null,"time_s":1,"dvf_app":2}"#,
    r#"{"error":"\u0000\ud800 \"q\""}"#,
    "{}",
    "[]",
    "null",
    "1e400",
    r#""row""#,
];

proptest! {
    /// Raw byte soup never panics the journal loader or row decoder.
    #[test]
    fn journal_loader_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255u8, 0..512),
    ) {
        let plan = plan();
        if let Err(e) = load_and_decode(&bytes, &plan) {
            prop_assert!(false, "{e}");
        }
    }

    /// Mutations of a well-formed journal (overwrites, truncations,
    /// insertions, deletions) load or error — and when nothing was
    /// mutated, load every chunk.
    #[test]
    fn journal_loader_never_panics_on_mutated_journals(
        ops in prop::collection::vec((0u8..4, 0u16..4096, 0u8..=255u8), 0..8),
    ) {
        let plan = plan();
        let (text, _) = journal(&plan, &rows());
        let mut bytes = text.into_bytes();
        for &(kind, pos, byte) in &ops {
            if bytes.is_empty() {
                break;
            }
            let i = pos as usize % bytes.len();
            match kind {
                0 => bytes[i] = byte,
                1 => bytes.truncate(i),
                2 => bytes.insert(i, byte),
                _ => {
                    bytes.remove(i);
                }
            }
        }
        match load_and_decode(&bytes, &plan) {
            Err(e) => prop_assert!(false, "{e}"),
            Ok(state) if ops.is_empty() => {
                prop_assert_eq!(state.map(|s| s.chunks_done()), Some(plan.chunks.len()));
            }
            Ok(_) => {}
        }
    }

    /// Structure-aware lines: the journal grammar with hostile chunk
    /// ids, row counts and row shapes, mixed with valid lines.
    #[test]
    fn journal_loader_never_panics_on_hostile_lines(
        lines in prop::collection::vec(
            (0usize..11, prop::collection::vec(0usize..13, 0..4), 0u8..4),
            0..6,
        ),
    ) {
        let plan = plan();
        let (valid, _) = journal(&plan, &rows());
        let valid: Vec<&str> = valid.lines().collect();
        let mut text = String::new();
        for (i, (id, shapes, form)) in lines.iter().enumerate() {
            let rows: Vec<&str> = shapes.iter().map(|&s| ROW_SHAPES[s]).collect();
            let rows = rows.join(",");
            let id = CHUNK_IDS[*id];
            let line = match form {
                0 => format!(r#"{{"chunk":{id},"rows":[{rows}]}}"#),
                1 => format!(r#"{{"rows":[{rows}],"chunk":{id}}}"#),
                2 => format!(r#"{{"chunk":{id},"rows":{{{rows}}}}}"#),
                _ => valid[i % valid.len()].to_owned(),
            };
            text.push_str(&line);
            text.push('\n');
        }
        if let Err(e) = load_and_decode(text.as_bytes(), &plan) {
            prop_assert!(false, "{e}");
        }
    }
}

#[test]
fn every_truncation_keeps_exactly_the_fully_present_lines() {
    let plan = plan();
    let rows = rows();
    let (text, ends) = journal(&plan, &rows);
    let bytes = text.as_bytes();
    assert!(
        !text.is_ascii(),
        "the fixture must hold multi-byte characters to cut inside"
    );
    for cut in 0..=bytes.len() {
        let prefix = String::from_utf8_lossy(&bytes[..cut]);
        let state = load_journal(&prefix, &plan).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let want_done: Vec<bool> = plan
            .chunks
            .iter()
            .map(|c| ends.iter().any(|&(end, id)| id == c.id && end <= cut))
            .collect();
        assert_eq!(state.done, want_done, "cut at {cut}");
        for chunk in &plan.chunks {
            for &idx in &chunk.indices {
                match &state.rows[idx] {
                    Some(row) => assert_eq!(bits(row), bits(&rows[idx]), "cut at {cut}"),
                    None => assert!(!state.done[chunk.id], "cut at {cut}: point {idx}"),
                }
            }
        }
    }
}
