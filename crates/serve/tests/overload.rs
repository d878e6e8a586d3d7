//! Event-loop transport under pressure: queue-full shedding, the
//! connection cap, idle-connection cost, and pipelining.

#![cfg(unix)]

mod common;

use common::{connect, read_reply, request, send};
use dvf_serve::{Server, ServerConfig};
use std::io::{BufReader, Read, Write};
use std::time::Duration;

/// Obs counters and the server thread names are process-global:
/// every test here holds this lock while its server is up, so deltas
/// and thread counts see one server at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn queue_full_sheds_requests_with_503_and_keeps_the_connection() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    dvf_obs::set_enabled(true);
    let rejected_before = dvf_obs::snapshot()
        .counter_value("serve.req.rejected")
        .unwrap_or(0);

    // One worker, one queue slot, and a route that holds the worker for
    // as long as we need: overload is deterministic, not a race.
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_depth: 1,
        slow_route: true,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Occupy the worker...
    let mut busy = connect(addr);
    send(
        &mut busy,
        "POST",
        "/v1/_slow",
        Some(r#"{"ms":1200}"#),
        false,
    );
    std::thread::sleep(Duration::from_millis(150));
    // ...and the single queue slot.
    let mut queued = connect(addr);
    send(&mut queued, "POST", "/v1/_slow", Some(r#"{"ms":1}"#), false);
    std::thread::sleep(Duration::from_millis(150));

    // The next request must be shed: per-request 503 + Retry-After, and
    // the connection stays open for a later retry.
    let mut shed = connect(addr);
    send(&mut shed, "GET", "/v1/healthz", None, false);
    let mut shed_reader = BufReader::new(shed.try_clone().unwrap());
    let reply = read_reply(&mut shed_reader);
    assert_eq!(reply.status, 503, "expected shed, got: {}", reply.body);
    assert_eq!(reply.header("Retry-After"), Some("1"));
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("overloaded")
    );

    let rejected_after = dvf_obs::snapshot()
        .counter_value("serve.req.rejected")
        .unwrap_or(0);
    assert!(
        rejected_after > rejected_before,
        "serve.req.rejected must count the shed ({rejected_before} -> {rejected_after})"
    );

    // Wait out the backlog, then retry on the *same* connection: the
    // shed did not cost us the socket.
    std::thread::sleep(Duration::from_millis(1400));
    send(&mut shed, "GET", "/v1/healthz", None, false);
    let reply = read_reply(&mut shed_reader);
    assert_eq!(reply.status, 200, "shed connection must stay usable");

    // The occupied requests complete normally.
    let reply = read_reply(&mut BufReader::new(busy.try_clone().unwrap()));
    assert_eq!(reply.status, 200);
    let reply = read_reply(&mut BufReader::new(queued.try_clone().unwrap()));
    assert_eq!(reply.status, 200);

    drop((busy, queued, shed));
    server.shutdown();
}

#[test]
fn connection_cap_rejects_new_connections_at_accept() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::bind(ServerConfig {
        max_connections: 3,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Saturate the cap with idle keep-alive connections.
    let idle = dvf_serve::loadgen::open_idle(addr, 3).expect("idle connections");
    std::thread::sleep(Duration::from_millis(150));

    // One more: answered 503 at accept, then closed (read hits EOF).
    let mut over = connect(addr);
    let mut raw = String::new();
    over.read_to_string(&mut raw).expect("read rejection");
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("Retry-After: 1"), "{raw}");
    assert!(raw.contains("connection limit reached"), "{raw}");

    // Releasing one slot lets the next connection in.
    drop(idle.into_iter().next());
    std::thread::sleep(Duration::from_millis(150));
    let reply = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(reply.status, 200);
    server.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn idle_connections_cost_fds_not_threads() {
    /// Live server threads, by name: `dvf-serve-io` and
    /// `dvf-serve-compute-N` (a thread the server spawned unnamed would
    /// inherit one of those names). The test harness starts and stops
    /// threads of its own, so the process-wide count would race them;
    /// under [`SERIAL`] this test's server is the only one alive.
    fn server_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("proc tasks")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("dvf-serve-"))
            .count()
    }

    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr();
    // Let the transport finish spawning, then baseline.
    let reply = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(reply.status, 200);
    // A thread names itself once first scheduled: wait until the I/O
    // thread and every compute worker carry their names.
    let spawned = 1 + ServerConfig::default().workers;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server_threads() < spawned && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let before = server_threads();
    assert_eq!(before, spawned, "I/O thread + compute workers");

    const IDLE: usize = 300;
    let idle = dvf_serve::loadgen::open_idle(addr, IDLE).expect("open idle connections");
    std::thread::sleep(Duration::from_millis(300));

    let after = server_threads();
    assert_eq!(
        after, before,
        "{IDLE} idle connections must not grow the thread count"
    );

    // They do show up in the gauge (>= because other tests share the
    // process? No — servers are per-test; the loop counts its own).
    let reply = request(addr, "GET", "/v1/metrics", None);
    let open = reply
        .json()
        .get("serve")
        .unwrap()
        .get("open_connections")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        open >= IDLE as u64,
        "open_connections gauge says {open}, expected >= {IDLE}"
    );

    // The server still serves happily alongside the idle herd.
    let reply = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(reply.status, 200);

    drop(idle);
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let mut conn = connect(server.addr());

    // Two requests in one write; the loop parses the second out of the
    // connection buffer after the first completes (serialized, in order).
    let double = "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n\
                  GET /v1/metrics HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n";
    conn.write_all(double.as_bytes()).expect("pipelined write");
    conn.flush().unwrap();

    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let first = read_reply(&mut reader);
    assert_eq!(first.status, 200);
    assert_eq!(first.json().get("ok").and_then(|v| v.as_bool()), Some(true));
    let second = read_reply(&mut reader);
    assert_eq!(second.status, 200);
    assert!(
        second.json().get("serve").is_some(),
        "second pipelined response must be the metrics document"
    );

    drop(conn);
    server.shutdown();
}
