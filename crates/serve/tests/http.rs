//! Live observability acceptance (ISSUE 10): a 4-rank serve pool with
//! `http_addr` set must answer `/healthz`, `/metrics` (parseable Prometheus
//! text including `serve_jobs_*` counters and SLO gauges), and `/jobs` (a
//! job table consistent with the final [`ServeSummary`]) **while jobs are
//! in flight**, and the run's digests must stay bitwise-identical to the
//! same seeded campaign with HTTP disabled.
//!
//! All probing goes through `std::net::TcpStream` — no curl, no HTTP
//! client crate.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use diffreg_comm::run_threaded;
use diffreg_serve::{
    AttemptFaults, JobSpec, JobState, PlannedFaults, ServeConfig, ServeHarness, ServeSummary,
    SloPolicy,
};
use diffreg_telemetry::incident::IncidentContext;
use diffreg_telemetry::Json;

const JOBS: usize = 16;

/// The deterministic probe campaign: sixteen 8³ jobs over three tenants
/// with mixed gang sizes. Every first attempt stalls one rank for a bit at
/// an early collective epoch — timing-only chaos (far below the watchdog)
/// that stretches wall time enough for live HTTP probes without touching
/// results or the schedule.
fn build_specs() -> (Vec<JobSpec>, PlannedFaults) {
    let mut specs = Vec::with_capacity(JOBS);
    let mut faults = PlannedFaults::new();
    for i in 0..JOBS {
        let id = (i + 1) as u64;
        let tenant = ["neuro", "cardiac", "onco"][i % 3];
        let gang = [1usize, 2, 4, 2][i % 4];
        let spec = JobSpec::new(id, 8)
            .with_gang(gang)
            .with_newton_iters(1)
            .with_amplitude(0.3 + 0.05 * (i % 3) as f64)
            .with_tenant(tenant)
            .with_priority((i % 3) as u8);
        faults.insert(
            id,
            1,
            AttemptFaults { stall_at_epoch: Some((0, 2, 60)), ..AttemptFaults::none() },
        );
        specs.push(spec);
    }
    (specs, faults)
}

/// Minimal HTTP/1.1 GET over a raw `TcpStream`: returns `(status, headers,
/// body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let req = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head.to_string(), body.to_string())
}

/// Every non-comment Prometheus line must be `name[{labels}] value` with a
/// parseable finite value.
fn assert_prometheus_parseable(text: &str) {
    let mut series = 0usize;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        assert!(!name.is_empty(), "empty series name: {line}");
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("bad value in: {line}"));
        assert!(v.is_finite(), "non-finite value in: {line}");
        series += 1;
    }
    assert!(series > 0, "no series in exposition:\n{text}");
}

/// What the poller saw while the pool was live.
struct LiveObservations {
    /// A snapshot showed a completed job and a not-yet-finished job at once.
    saw_in_flight_mix: bool,
    /// Last successfully fetched `/jobs` body.
    last_jobs_body: String,
    /// Last successfully fetched `/metrics` body.
    last_metrics_body: String,
}

fn parse_jobs(body: &str) -> Vec<Json> {
    let doc = Json::parse(body).expect("parse /jobs");
    doc.get("jobs").and_then(|j| j.as_arr()).expect("jobs array").to_vec()
}

/// Waits for rank 0 to bind, then for the first round-boundary snapshot
/// (`/readyz` flips from 503 "warming up" to 200). Returns the bound addr.
fn wait_ready(harness: &ServeHarness, deadline: Instant) -> SocketAddr {
    let addr = loop {
        if let Some(a) = harness.http_addr() {
            break a;
        }
        assert!(Instant::now() < deadline, "http server never bound");
        std::thread::sleep(Duration::from_millis(2));
    };
    loop {
        let (status, _, _) = http_get(addr, "/readyz");
        if status == 200 {
            break addr;
        }
        assert_eq!(status, 503, "readyz must be 503 while warming up");
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs the campaign on a 4-rank pool. With `http` on, a poller thread on
/// the test side probes the live endpoints until it has seen jobs in
/// flight.
fn run_campaign(http: bool) -> (ServeSummary, ServeHarness, Option<LiveObservations>) {
    let (specs, faults) = build_specs();
    let cfg = ServeConfig {
        queue_capacity: JOBS + 4,
        watchdog: Some(Duration::from_secs(30)),
        slo: Some(SloPolicy::default()),
        http_addr: http.then(|| "127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let harness = ServeHarness::new(cfg, Arc::new(faults));
    for spec in &specs {
        harness.submit(spec.clone());
    }
    harness.close_intake();

    let h = harness.clone();
    let pool = std::thread::spawn(move || {
        let summaries = run_threaded(4, move |world| {
            world.set_timeout(Some(Duration::from_secs(300)));
            h.serve_pool(world)
        });
        for (r, s) in summaries.iter().enumerate() {
            assert_eq!(*s, summaries[0], "pool rank {r} diverged from rank 0");
        }
        summaries.into_iter().next().expect("rank 0 summary")
    });

    let obs = if http {
        // Wait for rank 0 to bind and publish, then probe live.
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = wait_ready(&harness, deadline);

        let (status, _, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "/healthz status");
        assert_eq!(body, "ok\n");

        let mut live = LiveObservations {
            saw_in_flight_mix: false,
            last_jobs_body: String::new(),
            last_metrics_body: String::new(),
        };
        // Poll /jobs until one snapshot shows completed work next to work
        // still in flight. Snapshots publish at every round boundary, and
        // the stall faults keep the pool busy for long enough that this
        // always lands while jobs are running.
        while Instant::now() < deadline {
            let (status, _, body) = http_get(addr, "/jobs");
            assert_eq!(status, 200, "/jobs status");
            let jobs = parse_jobs(&body);
            live.last_jobs_body = body;
            let done = jobs
                .iter()
                .filter(|j| j.get("state").and_then(Json::as_str) == Some("completed"))
                .count();
            let pending = jobs.len() - done;
            if done > 0 && pending > 0 {
                live.saw_in_flight_mix = true;
                let (status, _, metrics) = http_get(addr, "/metrics");
                assert_eq!(status, 200, "/metrics status");
                live.last_metrics_body = metrics;
                break;
            }
            if done == jobs.len() && !jobs.is_empty() {
                break; // pool drained before we caught the mix
            }
            std::thread::sleep(Duration::from_millis(3));
        }
        Some(live)
    } else {
        assert!(harness.http_addr().is_none(), "no server without http_addr");
        None
    };

    let summary = pool.join().expect("pool thread");
    (summary, harness, obs)
}

#[test]
fn live_endpoints_answer_while_jobs_run_and_never_perturb_digests() {
    let (s_http, harness, obs) = run_campaign(true);
    let obs = obs.expect("observations");

    // The probe caught the pool mid-campaign.
    assert!(
        obs.saw_in_flight_mix,
        "never observed completed + in-flight jobs in one snapshot; last /jobs:\n{}",
        obs.last_jobs_body
    );

    // Live /metrics was parseable Prometheus text with the serve counters
    // and the per-tenant SLO gauges.
    assert_prometheus_parseable(&obs.last_metrics_body);
    assert!(
        obs.last_metrics_body.contains("serve_jobs_submitted_total"),
        "missing serve_jobs_* counters:\n{}",
        obs.last_metrics_body
    );
    assert!(
        obs.last_metrics_body.contains("diffreg_slo_burn_milli{tenant=\""),
        "missing SLO gauges:\n{}",
        obs.last_metrics_body
    );

    // All jobs completed (stalls sit far below the watchdog).
    assert!(s_http.all_accounted_for());
    assert_eq!(s_http.count(JobState::Completed), JOBS);
    assert!(s_http.rejected.is_empty());

    // The final published snapshot agrees with the final ServeSummary:
    // same jobs, same states, and completed digests byte-equal to the
    // summary's results (hex projection dodges f64 precision loss).
    let snap = harness.observability();
    assert!(snap.ready, "final snapshot must be ready");
    let jobs = parse_jobs(&snap.jobs_json);
    assert_eq!(jobs.len(), s_http.records.len(), "snapshot job count");
    for j in &jobs {
        let id = j.get("id").and_then(Json::as_f64).expect("job id") as u64;
        let rec = s_http.records.get(&id).expect("job in summary");
        assert_eq!(
            j.get("state").and_then(Json::as_str),
            Some("completed"),
            "job {id} state in final snapshot"
        );
        assert_eq!(rec.state, JobState::Completed);
        let res = rec.result.expect("completed job without result");
        assert_eq!(
            j.get("digest").and_then(Json::as_str),
            Some(format!("{:016x}", res.digest).as_str()),
            "job {id} digest mismatch between snapshot and summary"
        );
        assert_eq!(
            j.get("tenant").and_then(Json::as_str),
            Some(rec.spec.tenant.as_str()),
            "job {id} tenant"
        );
    }

    // Final snapshot's other panes are well-formed too.
    assert_prometheus_parseable(&snap.metrics_text);
    Json::parse(&snap.slo_json).expect("final slo json");
    // `/incidents` serves the summary's incident records themselves.
    let incidents = Json::parse(&snap.incidents_json).expect("final incidents json");
    let served: Vec<IncidentContext> = incidents
        .get("incidents")
        .and_then(Json::as_arr)
        .expect("incident list")
        .iter()
        .map(|j| IncidentContext::from_json(j).expect("incident record"))
        .collect();
    assert_eq!(served, s_http.incidents, "/incidents vs the summary");
    assert!(
        snap.profile_folded.lines().last().is_some_and(|l| l.starts_with("[dropped] ")),
        "profile trailer:\n{}",
        snap.profile_folded
    );
    for line in snap.profile_folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        assert!(weight.parse::<u64>().is_ok(), "bad weight in: {line}");
    }

    // Digest parity: the identical seeded campaign with HTTP disabled must
    // produce a bitwise-identical summary (states, attempts, digests,
    // rounds, SLO digest).
    let (s_off, _, _) = run_campaign(false);
    assert_eq!(s_http, s_off, "serving live endpoints perturbed the campaign");
}

#[test]
fn endpoint_surface_is_read_only_and_bounded() {
    let (specs, faults) = build_specs();
    let cfg = ServeConfig {
        queue_capacity: JOBS + 4,
        watchdog: Some(Duration::from_secs(30)),
        slo: Some(SloPolicy::default()),
        http_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let harness = ServeHarness::new(cfg, Arc::new(faults));
    for spec in specs.into_iter().take(4) {
        harness.submit(spec);
    }
    harness.close_intake();
    let h = harness.clone();
    let pool = std::thread::spawn(move || {
        run_threaded(4, move |world| {
            world.set_timeout(Some(Duration::from_secs(300)));
            h.serve_pool(world)
        })
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = wait_ready(&harness, deadline);

    // Unknown paths 404; the rest of the read-only contract (405 on
    // writes, warm-up 503) is pinned by the unit tests in `http.rs`.
    let (status, _, _) = http_get(addr, "/admin");
    assert_eq!(status, 404);
    let (status, head, _) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase().contains("content-length:"),
        "responses must be bounded:\n{head}"
    );
    let (status, _, _) = http_get(addr, "/readyz");
    assert_eq!(status, 200, "pool is live, readyz must be ready");

    pool.join().expect("pool thread");
}
