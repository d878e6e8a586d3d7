//! The sweep-row wire codec: one writer and one decoder for the per-point
//! rows every sweep surface carries — `/v1/sweep` and `/v1/batch` sweep
//! entries, `/v1/sweepchunk` replies, and the `--manifest` journal.
//!
//! A row is `{"time_s":..,"dvf_app":..}` on success or `{"error":".."}`
//! (the [`WorkflowError`](dvf_core::workflow::WorkflowError) display
//! text), optionally led by the swept `"value"`. Floats are written as
//! shortest-round-trip text, so a decoded row is bit-identical to the
//! one written.

use crate::jsonval::Json;
use dvf_core::sweep::RowOutcome;
use dvf_obs::JsonWriter;

/// Write `"rows":[..]`, one object per row, each led by its swept
/// `"value"` when `values` is given (one per row). Returns the number of
/// error rows.
pub fn write_rows(w: &mut JsonWriter, rows: &[RowOutcome], values: Option<&[f64]>) -> u64 {
    let mut failed = 0;
    w.key("rows").begin_array();
    for (i, row) in rows.iter().enumerate() {
        w.begin_object();
        if let Some(values) = values {
            w.key("value").f64(values[i]);
        }
        match row {
            RowOutcome::Ok { time_s, dvf_app } => {
                w.key("time_s").f64(*time_s);
                w.key("dvf_app").f64(*dvf_app);
            }
            RowOutcome::Err(e) => {
                failed += 1;
                w.key("error").string(e);
            }
        }
        w.end_object();
    }
    w.end_array();
    failed
}

/// Decode the `"rows"` array of `doc`. A row with a string `"error"` is
/// an error row; every other row needs numeric `time_s` and `dvf_app`.
pub fn decode_rows(doc: &Json) -> Result<Vec<RowOutcome>, String> {
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("no `rows` array")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            if let Some(err) = row.get("error").and_then(Json::as_str) {
                return Ok(RowOutcome::Err(err.to_owned()));
            }
            let field = |key: &str| {
                row.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("row {i} has no numeric `{key}`"))
            };
            Ok(RowOutcome::Ok {
                time_s: field("time_s")?,
                dvf_app: field("dvf_app")?,
            })
        })
        .collect()
}
