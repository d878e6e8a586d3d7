//! `serve-closed`: one client on one keep-alive connection sends a seeded
//! mix to an in-process server, each request as soon as the previous
//! reply is in (a closed loop). About 80% of the requests are
//! `POST /v1/dvf` against a registered session with overrides from a small
//! set (memo-hit reads); about 20% are small `POST /v1/sweep` grids with
//! fresh seeded values (memo-miss writes). Each latency is timed from send
//! to reply.
//!
//! A closed loop rather than an open one: at a fixed arrival rate the
//! host's cores idle between requests, and on a shared virtual machine
//! the time to wake an idle core, and the CPU time other guests take,
//! moved the open loop's p90 latency by more than 2x from run to run.
//! Back-to-back requests keep the path busy, and a stall delays the
//! requests it meets instead of piling up a backlog.

use crate::sweep::MODEL;
use crate::util::{median, peak_rss_mb, percentile, secs, Clock, Outcome, Rng, SETUP_REPEATS};
use dvf_obs::JsonWriter;
use dvf_serve::client::ShardClient;
use dvf_serve::http::Request;
use dvf_serve::jsonval::Json;
use dvf_serve::{api, Server, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Share of `/v1/dvf` requests; the rest are `/v1/sweep`.
const DVF_SHARE: f64 = 0.8;
/// Distinct override sets the `/v1/dvf` requests draw from.
const DVF_OVERRIDE_SETS: usize = 16;
/// Points per `/v1/sweep` request.
const SWEEP_POINTS: usize = 8;
/// Requests per round. Every round starts from an empty memo, as a
/// freshly started server does, so the sweeps keep missing it and its
/// size stays the same whatever the request rate.
pub const ROUND_REQUESTS: usize = 2048;
/// Every this many `/v1/dvf` replies, keep the body for the output check,
/// up to `DVF_SAMPLES` bodies.
const SAMPLE_EVERY: usize = 64;
const DVF_SAMPLES: usize = 256;
/// Capacity reserved for the request records up front, so that the peak
/// memory barely depends on how many requests a run completes.
const SENT_CAPACITY: usize = 1 << 17;
/// `/v1/sweep` bodies kept for timing the router in a traced run.
const SWEEP_SAMPLES: usize = 64;
const SESSION: &str = "mix";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Dvf,
    Sweep,
}

impl Kind {
    fn path(self) -> &'static str {
        match self {
            Kind::Dvf => "/v1/dvf",
            Kind::Sweep => "/v1/sweep",
        }
    }
}

/// The seeded request stream. The seed picks the override sets, the mix
/// and the sweep values; the share of each kind is fixed.
pub struct Mix {
    rng: Rng,
    dvf_sets: Vec<String>,
}

impl Mix {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x0BE4);
        let dvf_sets = (0..DVF_OVERRIDE_SETS)
            .map(|_| {
                let n = 8000 * (16 + rng.below(300));
                let k = 1 + rng.below(100);
                let fit = 1000 * (1 + rng.below(8));
                format!(
                    "{{\"session\":\"{SESSION}\",\"params\":{{\"n\":{n},\"k\":{k},\"fit\":{fit}}}}}"
                )
            })
            .collect();
        Self { rng, dvf_sets }
    }

    /// The next request: its kind and body.
    pub fn next_request(&mut self) -> (Kind, String) {
        if self.rng.unit() < DVF_SHARE {
            let set = self.rng.below(DVF_OVERRIDE_SETS as u64) as usize;
            (Kind::Dvf, self.dvf_sets[set].clone())
        } else {
            (Kind::Sweep, sweep_body(&mut self.rng))
        }
    }
}

/// A small integer-valued `n` grid at seeded `k` and `fit`: with 400 ×
/// 150 `(n, k)` pairs to draw from, most points are memo misses.
fn sweep_body(rng: &mut Rng) -> String {
    let values: Vec<String> = (0..SWEEP_POINTS)
        .map(|_| (8000 * (16 + rng.below(400))).to_string())
        .collect();
    let k = 1 + rng.below(150);
    let fit = 1000 * (1 + rng.below(8));
    format!(
        "{{\"session\":\"{SESSION}\",\"param\":\"n\",\"values\":[{}],\"params\":{{\"k\":{k},\"fit\":{fit}}}}}",
        values.join(",")
    )
}

/// What one sent request came back with.
#[derive(Debug, Clone)]
struct Sent {
    kind: Kind,
    /// 0 for an I/O failure.
    status: u16,
    latency_us: f64,
}

fn session_body() -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("name").string(SESSION);
    w.key("source").string(MODEL);
    w.end_object();
    w.finish()
}

/// Set-up: bind a server with the default configuration and register
/// the session.
fn setup() -> Result<Server, String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..Default::default()
    })
    .map_err(|e| format!("cannot bind: {e}"))?;
    let mut client = ShardClient::new(
        server.addr(),
        Duration::from_secs(10),
        Duration::from_secs(10),
    );
    match client.post("/v1/sessions", &session_body()) {
        Ok(r) if r.status < 300 => Ok(server),
        Ok(r) => Err(format!(
            "session registration answered {}: {}",
            r.status, r.body
        )),
        Err(e) => Err(format!("session registration: {e}")),
    }
}

/// In-process call of the router on a request body: `(status, body, µs)`.
fn route(server: &Server, path: &str, body: &str) -> (u16, String, f64) {
    let req = Request {
        method: "POST".to_owned(),
        path: path.to_owned(),
        query: None,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let t = Instant::now();
    let resp = api::route(&req, server.ctx());
    let us = secs(t) * 1e6;
    (resp.status, resp.body, us)
}

/// Median queue phase of the retained `/v1/dvf` request records.
fn queue_us(addr: SocketAddr) -> Option<f64> {
    let mut client = ShardClient::new(addr, Duration::from_secs(10), Duration::from_secs(10));
    let reply = client.get("/v1/debug/requests?n=1024").ok()?;
    let doc = Json::parse(&reply.body).ok()?;
    let waits: Vec<f64> = doc
        .get("requests")?
        .as_arr()?
        .iter()
        .filter(|r| r.get("route").and_then(Json::as_str) == Some("POST /v1/dvf"))
        .filter_map(|r| {
            r.get("phases")?
                .as_arr()?
                .iter()
                .find(|p| p.get("path").and_then(Json::as_str) == Some("queue"))?
                .get("us")?
                .as_f64()
        })
        .collect();
    (!waits.is_empty()).then(|| median(&waits))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        match setup() {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.check(false, || e);
                return out;
            }
        }
        out.setups_s.push(secs(t));
    }
    let server = server.expect("set up at least once");
    let addr = server.addr();
    let mut client = ShardClient::new(addr, Duration::from_secs(10), Duration::from_secs(10));
    let mut mix = Mix::new(seed);

    let mut sent: Vec<Sent> = Vec::with_capacity(SENT_CAPACITY);
    let mut samples: Vec<(String, String)> = Vec::new();
    let mut sweep_bodies: Vec<String> = Vec::new();
    let (mut hits, mut misses) = (0.0, 0.0);
    let mut dvf_seen = 0usize;
    let mut clock = Clock::new(seconds);
    while clock.more() {
        let t = Instant::now();
        match setup() {
            Ok(s) => {
                out.setups_s.push(secs(t));
                s.shutdown();
            }
            Err(e) => out.check(false, || e),
        }
        let recording = clock.recording();
        // A fresh round: empty memo, the session's override sets warm, as
        // a resident service has them.
        dvf_core::memo::clear();
        for body in &mix.dvf_sets {
            route(&server, "/v1/dvf", body);
        }
        let memo_before = dvf_core::memo::stats();
        let t = Instant::now();
        for _ in 0..ROUND_REQUESTS {
            let (kind, body) = mix.next_request();
            let sent_at = Instant::now();
            let reply = client.post(kind.path(), &body);
            let latency_us = secs(sent_at) * 1e6;
            let status = match reply {
                Ok(r) => {
                    if kind == Kind::Dvf && r.status == 200 {
                        dvf_seen += 1;
                        if dvf_seen % SAMPLE_EVERY == 1 && samples.len() < DVF_SAMPLES {
                            samples.push((body, r.body));
                        }
                    } else if kind == Kind::Sweep && sweep_bodies.len() < SWEEP_SAMPLES {
                        sweep_bodies.push(body);
                    }
                    r.status
                }
                // A broken connection is replaced for the next request.
                Err(_) => {
                    client =
                        ShardClient::new(addr, Duration::from_secs(10), Duration::from_secs(10));
                    0
                }
            };
            out.attempted += 1;
            if recording {
                sent.push(Sent {
                    kind,
                    status,
                    latency_us,
                });
            } else if !(200..300).contains(&status) {
                out.failed += 1;
            }
        }
        if recording {
            out.measured_s += secs(t);
            let memo = dvf_core::memo::stats().since(&memo_before);
            hits += memo.hits as f64;
            misses += memo.misses as f64;
        }
        clock.done();
    }
    out.peak_rss_mb = peak_rss_mb("self").unwrap_or(0.0);
    out.layer("core.memo.hits", hits);
    out.layer("core.memo.misses", misses);
    out.layer("core.memo.hit_ratio", hits / (hits + misses).max(1.0));

    let ok: Vec<&Sent> = sent
        .iter()
        .filter(|s| (200..300).contains(&s.status))
        .collect();
    let rejected = sent.iter().filter(|s| s.status == 503).count();
    let errors = sent.len() - ok.len() - rejected;
    out.failed += (sent.len() - ok.len()) as u64;
    out.items = ok.len() as f64;
    out.latencies_us = ok.iter().map(|s| s.latency_us).collect();
    let lat_of = |kind: Kind| -> Vec<f64> {
        ok.iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_us)
            .collect()
    };
    let (dvf_lat, sweep_lat) = (lat_of(Kind::Dvf), lat_of(Kind::Sweep));
    out.named("serve_p50_us", percentile(&out.latencies_us, 0.5), "us");
    out.named("serve_p90_us", percentile(&out.latencies_us, 0.9), "us");
    out.named("serve_p99_us", percentile(&out.latencies_us, 0.99), "us");
    out.named("serve_samples", out.latencies_us.len() as f64, "count");
    out.named("serve_dvf_p50_us", percentile(&dvf_lat, 0.5), "us");
    out.named("serve_sweep_p50_us", percentile(&sweep_lat, 0.5), "us");
    out.layer("serve.rejected", rejected as f64);
    out.layer("serve.errors", errors as f64);

    // Output check: sampled 2xx /v1/dvf bodies equal the in-process
    // router's body for the same request. With the memo warm, these
    // calls also time the router on memo-hit reads.
    out.check(!samples.is_empty(), || {
        "no /v1/dvf reply was sampled".to_owned()
    });
    let mut dvf_route = Vec::new();
    for (request, reply) in &samples {
        let (status, body, us) = route(&server, "/v1/dvf", request);
        dvf_route.push(us);
        out.check(status == 200 && body == *reply, || {
            format!("a /v1/dvf reply differs from the in-process router's: {request}")
        });
    }

    if traced {
        let queue = queue_us(addr).unwrap_or(0.0);
        // Sweep bodies meet an empty memo, as their fresh values did.
        dvf_core::memo::clear();
        let sweep_route: Vec<f64> = sweep_bodies
            .iter()
            .map(|body| route(&server, "/v1/sweep", body).2)
            .collect();
        let (route_dvf, route_sweep) = (median(&dvf_route), median(&sweep_route));
        let dvf_p50 = percentile(&dvf_lat, 0.5);
        let transport = dvf_p50 - route_dvf - queue;
        out.layer("serve.route_us.dvf", route_dvf);
        out.layer("serve.route_us.sweep", route_sweep);
        out.layer("serve.queue_us", queue);
        out.layer("serve.transport_us", transport);
        out.table_total_s = dvf_p50 / 1e6;
        out.table_row("serve queue (worker wait)", queue / 1e6);
        out.table_row("api route (decode, evaluate, render)", route_dvf / 1e6);
        out.table_row("transport + event loop, unattributed", transport / 1e6);
    }
    server.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_requests_not_the_mix() {
        let draw = |seed| {
            let mut mix = Mix::new(seed);
            (0..ROUND_REQUESTS)
                .map(|_| mix.next_request())
                .collect::<Vec<_>>()
        };
        let (a, b) = (draw(1), draw(2));
        for requests in [&a, &b] {
            let sweeps = requests.iter().filter(|r| r.0 == Kind::Sweep).count() as f64;
            assert!((sweeps / ROUND_REQUESTS as f64 - (1.0 - DVF_SHARE)).abs() < 0.05);
        }
        assert_ne!(a[0].1, b[0].1);
    }
}
