//! One grid point, every path, one row: the shared per-point evaluator,
//! `/v1/sweep`, `/v1/sweepchunk`, a `/v1/batch` sweep entry and a
//! `--manifest` journal round trip must all give bit-identical rows for
//! the same grid, error rows included.

mod common;

use common::{json_str, request};
use dvf_core::gridplan::{Assignment, ChunkPlan, GridSpec};
use dvf_core::sweep::RowOutcome;
use dvf_core::workflow::DvfWorkflow;
use dvf_serve::jsonval::Json;
use dvf_serve::manifest::{chunk_line, load_journal};
use dvf_serve::rows::decode_rows;
use dvf_serve::{Server, ServerConfig};

/// `fit` is a machine parameter the requests fix as an override while
/// `n` is swept, so every path applies fixed overrides and swept
/// coordinates together.
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

/// `n = -100` and `n = 0.1` fail to resolve (negative and fractional
/// sizes): the grid's error rows.
const VALUES: [f64; 5] = [100.0, -100.0, 0.1, 333.0, 4096.0];
const FIT: f64 = 3000.0;

/// Rows reduced to exact bits and error strings.
fn bits(rows: &[RowOutcome]) -> Vec<Result<(u64, u64), String>> {
    rows.iter()
        .map(|row| match row {
            RowOutcome::Ok { time_s, dvf_app } => Ok((time_s.to_bits(), dvf_app.to_bits())),
            RowOutcome::Err(e) => Err(e.clone()),
        })
        .collect()
}

fn values_json() -> String {
    let items: Vec<String> = VALUES.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(","))
}

fn post(server: &Server, path: &str, body: &str) -> Json {
    let reply = request(server.addr(), "POST", path, Some(body));
    assert_eq!(reply.status, 200, "{path}: {}", reply.body);
    reply.json()
}

#[test]
fn every_sweep_path_gives_the_shared_evaluators_rows() {
    let fixed = vec![("fit".to_owned(), FIT)];
    let wf = DvfWorkflow::parse(MODEL).expect("model parses");
    let expected: Vec<RowOutcome> = VALUES
        .iter()
        .map(|&v| wf.evaluate_point(&fixed, &["n"], &[v]))
        .collect();
    let want = bits(&expected);
    assert!(want.iter().any(Result::is_ok));
    let failed = want.iter().filter(|r| r.is_err()).count() as u64;
    assert_eq!(failed, 2, "{want:?}");
    // The fixed override reaches the evaluation.
    assert_ne!(wf.evaluate_point(&[], &["n"], &[VALUES[0]]), expected[0]);

    let server = Server::bind(ServerConfig::default()).expect("bind");
    let source = json_str(MODEL);
    let params = format!(r#"{{"fit":{FIT:?}}}"#);

    // `/v1/sweep`: the rows also echo the swept value, bit-exactly.
    let sweep = post(
        &server,
        "/v1/sweep",
        &format!(
            r#"{{"source":{source},"param":"n","values":{},"params":{params}}}"#,
            values_json()
        ),
    );
    assert_eq!(bits(&decode_rows(&sweep).unwrap()), want, "/v1/sweep");
    let echoed: Vec<u64> = sweep
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| r.get("value").and_then(Json::as_f64).unwrap().to_bits())
        .collect();
    let sent: Vec<u64> = VALUES.iter().map(|v| v.to_bits()).collect();
    assert_eq!(echoed, sent);
    assert_eq!(sweep.get("failed").and_then(Json::as_u64), Some(failed));

    // `/v1/sweepchunk`: explicit points over named dims.
    let points: Vec<String> = VALUES.iter().map(|v| format!("[{v:?}]")).collect();
    let chunk = post(
        &server,
        "/v1/sweepchunk",
        &format!(
            r#"{{"source":{source},"dims":["n"],"points":[{}],"params":{params},"chunk":7}}"#,
            points.join(",")
        ),
    );
    assert_eq!(bits(&decode_rows(&chunk).unwrap()), want, "/v1/sweepchunk");
    assert_eq!(chunk.get("failed").and_then(Json::as_u64), Some(failed));

    // `/v1/batch`: one sweep entry, evaluated sequentially inside it.
    let batch = post(
        &server,
        "/v1/batch",
        &format!(
            r#"{{"entries":[{{"kind":"sweep","source":{source},"param":"n","values":{},"params":{params}}}]}}"#,
            values_json()
        ),
    );
    let entry = &batch.get("results").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(bits(&decode_rows(entry).unwrap()), want, "/v1/batch");
    server.shutdown();

    // The `--manifest` journal: write one chunk line, reload it.
    let grid = GridSpec::new(vec![("n".to_owned(), VALUES.to_vec())]).unwrap();
    let plan = ChunkPlan::plan(&grid, 1, VALUES.len(), Assignment::RoundRobin, |_| 0);
    assert_eq!(plan.chunks.len(), 1);
    let state = load_journal(&format!("{}\n", chunk_line(0, &expected)), &plan).unwrap();
    let reloaded: Vec<RowOutcome> = state.rows.into_iter().map(Option::unwrap).collect();
    assert_eq!(bits(&reloaded), want, "journal");
}
