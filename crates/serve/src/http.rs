//! Zero-dependency live observability endpoints for the serve runtime.
//!
//! A minimal read-only HTTP/1.1 server over `std::net::TcpListener`:
//! rank 0 starts it when [`ServeConfig::http_addr`](crate::ServeConfig) is
//! set, and publishes an immutable
//! [`ObsSnapshot`] at every scheduler round boundary. Requests only ever
//! read the latest snapshot `Arc`, so serving can never perturb the
//! replicated scheduler state — the digest-parity load test pins that.
//!
//! | Path               | Content                                          |
//! |--------------------|--------------------------------------------------|
//! | `/healthz`         | liveness (`ok`)                                  |
//! | `/readyz`          | readiness (200 after the first round, else 503)  |
//! | `/metrics`         | Prometheus text exposition                       |
//! | `/jobs`            | replicated job table + last iteration, JSON      |
//! | `/slo`             | burn-rate / alert state, JSON                    |
//! | `/incidents`       | fold-derived incident index, JSON                |
//! | `/profile.folded`  | collapsed-stack flamegraph snapshot              |
//!
//! Security posture: read-only (only `GET` is answered), bounded request
//! reads, bounded prebuilt responses, `Connection: close` on every reply,
//! and no TLS/auth — bind it to loopback unless the network is trusted.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request head the server will buffer before answering 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a stalled client cannot hold the single
/// accept loop hostage for longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// One immutable snapshot of everything the endpoints serve. Rank 0
/// rebuilds it at each round boundary (after the SLO export, before the
/// next intake broadcast) from replicated fold-derived state; the HTTP
/// thread only swaps `Arc`s.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// Scheduler round the snapshot was published at the end of.
    pub round: u64,
    /// True once at least one round has folded (drives `/readyz`).
    pub ready: bool,
    /// Prometheus text exposition (`/metrics`).
    pub metrics_text: String,
    /// Job table + last iteration records, JSON (`/jobs`).
    pub jobs_json: String,
    /// SLO burn-rate and alert state, JSON (`/slo`).
    pub slo_json: String,
    /// Incident index, JSON (`/incidents`).
    pub incidents_json: String,
    /// Collapsed-stack flamegraph, count-weighted canonical projection
    /// (`/profile.folded`).
    pub profile_folded: String,
}

/// The shared snapshot slot: publisher swaps the inner `Arc`, readers
/// clone it out.
pub type ObsSlot = Arc<Mutex<Arc<ObsSnapshot>>>;

/// The running endpoint server (rank-0-only). Dropping it (or calling
/// [`stop`](HttpServer::stop)) shuts the accept loop down.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `spec` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop over `slot`. Returns the server with the actually
    /// bound address (useful with port 0).
    pub fn start(spec: &str, slot: ObsSlot) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(spec)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("diffreg-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // Serve inline: responses are prebuilt strings, so a
                        // request is bounded work and one thread suffices.
                        #[expect(
                            clippy::let_underscore_must_use,
                            reason = "a client that hangs up loses only its own response; the loop serves the next"
                        )]
                        let _ = handle_conn(stream, &slot);
                    }
                }
            })?;
        Ok(HttpServer { addr, shutdown, handle: Some(handle) })
    }

    /// The actually bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the (blocking) accept with a throwaway connection.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the connection exists only to wake the accept loop, which checks the flag either way"
        )]
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(h) = self.handle.take() {
            #[expect(clippy::let_underscore_must_use, reason = "runs in Drop, which must not panic")]
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Reads one request head (up to the blank line or [`MAX_REQUEST_BYTES`])
/// and writes one response.
fn handle_conn(mut stream: TcpStream, slot: &ObsSlot) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, ctype, body) = route(method, path, slot);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Resolves one request to `(status line, content type, body)`.
fn route(method: &str, path: &str, slot: &ObsSlot) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return ("405 Method Not Allowed", "text/plain; charset=utf-8", "read-only\n".to_string());
    }
    let snap: Arc<ObsSnapshot> = {
        let guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(&guard)
    };
    const JSON: &str = "application/json";
    const TEXT: &str = "text/plain; charset=utf-8";
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    match path {
        "/healthz" => ("200 OK", TEXT, "ok\n".to_string()),
        "/readyz" => {
            if snap.ready {
                ("200 OK", TEXT, "ready\n".to_string())
            } else {
                ("503 Service Unavailable", TEXT, "warming up\n".to_string())
            }
        }
        "/metrics" => ("200 OK", PROM, snap.metrics_text.clone()),
        "/jobs" => ("200 OK", JSON, snap.jobs_json.clone()),
        "/slo" => ("200 OK", JSON, snap.slo_json.clone()),
        "/incidents" => ("200 OK", JSON, snap.incidents_json.clone()),
        "/profile.folded" => ("200 OK", TEXT, snap.profile_folded.clone()),
        _ => ("404 Not Found", TEXT, "unknown endpoint\n".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        let (head, body) = out.split_once("\r\n\r\n").unwrap_or((out.as_str(), ""));
        (head.to_string(), body.to_string())
    }

    fn test_slot() -> ObsSlot {
        let snap = ObsSnapshot {
            round: 3,
            ready: true,
            metrics_text: "# TYPE x counter\nx 1\n".to_string(),
            jobs_json: "{\"jobs\":[]}".to_string(),
            slo_json: "{\"firing\":[]}".to_string(),
            incidents_json: "{\"incidents\":[]}".to_string(),
            profile_folded: "rank0;a 1\n[dropped] 0\n".to_string(),
        };
        Arc::new(Mutex::new(Arc::new(snap)))
    }

    #[test]
    fn serves_every_endpoint_and_shuts_down() {
        let server = HttpServer::start("127.0.0.1:0", test_slot()).expect("bind");
        let addr = server.addr();
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
        let (head, _) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let (head, body) = get(addr, "/metrics");
        assert!(head.contains("version=0.0.4"), "{head}");
        assert!(body.contains("x 1"), "{body}");
        let (_, body) = get(addr, "/jobs");
        assert_eq!(body, "{\"jobs\":[]}");
        let (_, body) = get(addr, "/slo");
        assert_eq!(body, "{\"firing\":[]}");
        let (_, body) = get(addr, "/incidents");
        assert_eq!(body, "{\"incidents\":[]}");
        let (_, body) = get(addr, "/profile.folded");
        assert!(body.ends_with("[dropped] 0\n"), "{body}");
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        server.stop();
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn rejects_writes_and_reports_warming_up() {
        let slot: ObsSlot = Arc::new(Mutex::new(Arc::new(ObsSnapshot::default())));
        let server = HttpServer::start("127.0.0.1:0", Arc::clone(&slot)).expect("bind");
        let addr = server.addr();
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "POST /jobs HTTP/1.1\r\n\r\n").expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        let (head, _) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 503"), "not ready before a round: {head}");
        server.stop();
    }
}
