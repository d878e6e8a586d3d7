//! dvf-serve request throughput and latency.
//!
//! Measures the full socket round-trip against a live in-process server:
//! a keep-alive client issuing one request per iteration over the
//! event-loop transport. At startup the harness also runs a closed-loop
//! multi-client pass and prints p50/p99 per-request latencies (the
//! numbers `BENCH_serve.json` records) — percentiles are
//! a distribution fact the median-reporting criterion shim cannot
//! express. Open-loop (fixed offered load) curves come from
//! `dvf loadgen`, not from this closed-loop harness.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use dvf_serve::{Server, ServerConfig, TRANSPORT};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const MODEL: &str = r#"
    machine small {
      cache { associativity = 4  sets = 64  line = 32 }
      memory { fit = 5000 }
      core { flops = 1e9  bandwidth = 4e9 }
    }
    model vm {
      param n = 2000
      data A { size = n * 8  element = 8 }
      data B { size = n * 8  element = 8 }
      kernel main {
        flops = 2 * n
        access A as streaming(stride = 4)
        access B as streaming()
      }
    }
"#;

/// A keep-alive client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    /// One request/response exchange; returns the status code.
    fn roundtrip(&mut self, method: &str, path: &str, body: &str) -> u16 {
        write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\nHost: b\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");

        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .and_then(|v| v.parse().ok())
            {
                content_length = v;
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        status
    }
}

fn json_str(s: &str) -> String {
    let escaped = s
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("\"{escaped}\"")
}

fn start_server(workers: usize) -> (Server, SocketAddr) {
    let server = Server::bind(ServerConfig {
        workers,
        // Criterion iterates far past the production per-connection
        // request budget; this bench wants one connection throughout.
        keep_alive_max: usize::MAX,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();
    let mut c = Client::connect(addr);
    let body = format!(r#"{{"name":"bench","source":{}}}"#, json_str(MODEL));
    assert_eq!(c.roundtrip("POST", "/v1/sessions", &body), 200);
    (server, addr)
}

/// Closed-loop pass: `clients` keep-alive connections, each issuing
/// `per_client` requests; returns every request latency, sorted.
fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    per_client: usize,
    body: &'static str,
) -> Vec<Duration> {
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut lat = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t0 = Instant::now();
                    let status = c.roundtrip("POST", "/v1/dvf", body);
                    lat.push(t0.elapsed());
                    assert_eq!(status, 200);
                }
                lat
            })
        })
        .collect();
    let mut all: Vec<Duration> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client"))
        .collect();
    all.sort();
    all
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Print the p50/p99 study, two rounds, before any criterion timing.
fn report_latency_percentiles() {
    let per_client = if std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|ms| ms < 100)
    {
        50 // CI smoke: keep the closed loop short
    } else {
        400
    };
    for round in 0..2 {
        let (server, addr) = start_server(4);
        for clients in [1usize, 4] {
            let lat = closed_loop(addr, clients, per_client, r#"{"session":"bench"}"#);
            let total: Duration = lat.iter().sum();
            let throughput = lat.len() as f64 / total.as_secs_f64() * clients as f64;
            println!(
                "serve_latency/dvf transport={TRANSPORT} round={round} clients={clients} n={} \
                 p50={:?} p99={:?} max={:?} ~{:.0} req/s",
                lat.len(),
                percentile(&lat, 0.50),
                percentile(&lat, 0.99),
                lat[lat.len() - 1],
                throughput,
            );
        }
        server.shutdown();
    }
}

/// 16 identical dvf questions as one `/v1/batch` body.
fn batch_body() -> String {
    let entries: Vec<&str> = (0..16).map(|_| r#"{"session":"bench"}"#).collect();
    format!(r#"{{"entries":[{}]}}"#, entries.join(","))
}

fn serve_benches(c: &mut Criterion) {
    report_latency_percentiles();

    let mut group = c.benchmark_group("serve");
    let t = TRANSPORT;
    let (server, addr) = start_server(4);

    let mut healthz = Client::connect(addr);
    group.bench_function(format!("healthz/{t}"), |b| {
        b.iter(|| black_box(healthz.roundtrip("GET", "/v1/healthz", "")))
    });

    let mut dvf = Client::connect(addr);
    group.bench_function(format!("dvf_session/{t}"), |b| {
        b.iter(|| black_box(dvf.roundtrip("POST", "/v1/dvf", r#"{"session":"bench"}"#)))
    });

    // Warm sweep: after the first request the whole grid is memo
    // hits, so this measures the served (cached) path end to end.
    let sweep_body = r#"{"session":"bench","param":"n","lo":100,"hi":10000,"steps":8}"#;
    let mut sweep = Client::connect(addr);
    assert_eq!(sweep.roundtrip("POST", "/v1/sweep", sweep_body), 200);
    group.bench_function(format!("sweep_cached_8pt/{t}"), |b| {
        b.iter(|| black_box(sweep.roundtrip("POST", "/v1/sweep", sweep_body)))
    });

    // 16 dvf questions in one round-trip; compare against 16x the
    // dvf_session row to see what the batch amortizes.
    let batch = batch_body();
    let mut batch_client = Client::connect(addr);
    group.bench_function(format!("batch_16_dvf/{t}"), |b| {
        b.iter(|| black_box(batch_client.roundtrip("POST", "/v1/batch", &batch)))
    });

    drop((healthz, dvf, sweep, batch_client));
    server.shutdown();
    group.finish();
}

criterion_group!(benches, serve_benches);
criterion_main!(benches);
