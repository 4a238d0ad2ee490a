//! The `live` workload: a governed `liveserve` server under an
//! open-loop generator in this process.
//!
//! At most `available_parallelism` client threads, each holding at most
//! one connection at a time, send `GET /work?ms=0` on a Poisson schedule
//! generated from the seed. The handler does not sleep, so a request's
//! latency is the server's accept → admit → queue → handler → write
//! path plus the client's own connect and read. Every latency is timed
//! from the request's due time, so a stalled generator or server
//! charges the wait to every request behind it.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use liveserve::scenario::{POOL, SLA_MS};
use liveserve::{Governor, GovernorConfig, LimitPolicy, Server, ServerConfig, ServerHandle};
use simkernel::obs::{self, PhaseProfile};
use simkernel::rng::splitmix64;
use simkernel::SeedTree;

use crate::check::Checks;
use crate::host;
use crate::stats::{self, median};
use crate::Report;

/// Fixed offered rates (requests per second), lowest first. The top
/// rate is beyond what two connections carry today, so its backlog
/// grows; 800 req/s is left out because it sits at that knee, where the
/// tail swings between 10 and 500 ms from run to run.
const RATES: [f64; 4] = [100.0, 200.0, 400.0, 1600.0];
/// The rate at which p50, p99 and quality are reported.
const REFERENCE_RATE: f64 = 200.0;
/// Share of the run each rate gets, after a warm-up at the reference
/// rate; sized so every rate yields enough samples for its tail.
const WARMUP_SHARE: f64 = 0.05;
const RATE_SHARES: [f64; 4] = [0.1, 0.45, 0.3, 0.1];
/// Latency limit on the tail percentile for a rate to count as met.
pub const LIMIT_MS: f64 = 50.0;
/// Sequential requests of the set-up canary.
const CANARY_REQUESTS: usize = 100;
/// The request every client sends.
const REQUEST: &[u8] = b"GET /work?ms=0 HTTP/1.0\r\n\r\n";
const IO_TIMEOUT: Duration = Duration::from_secs(2);
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);
/// Governor horizon: far beyond any run; the stop flag ends it.
const GOVERNOR_TICKS: u64 = 1 << 40;

/// One request's timings, in seconds from the phase start.
#[derive(Debug, Clone)]
struct Sample {
    due: f64,
    sent: f64,
    connected: f64,
    written: f64,
    done: f64,
    outcome: Result<Response, String>,
}

/// A well-formed response.
#[derive(Debug, Clone, PartialEq)]
struct Response {
    status: u16,
    /// The server's own time from admission to write, from a `200`
    /// body (`ok <us>us`).
    server_us: Option<u64>,
}

/// Parses an HTTP/1.0 response, requiring a status line, a header
/// block, a `Content-Length` matching the body, and for `200` a body of
/// the form `ok <microseconds>us`.
fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not UTF-8".to_owned())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header terminator in {text:?}"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .strip_prefix("HTTP/1.0 ")
        .and_then(|s| s.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let length: usize = lines
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no Content-Length".to_owned())?;
    if length != body.len() {
        return Err(format!(
            "Content-Length {length} but body has {} bytes",
            body.len()
        ));
    }
    let server_us = if status == 200 {
        let us = body
            .strip_prefix("ok ")
            .and_then(|b| b.strip_suffix("us"))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad 200 body {body:?}"))?;
        Some(us)
    } else {
        None
    };
    Ok(Response { status, server_us })
}

/// Sends one request on a fresh connection, filling in its timings.
fn request(addr: SocketAddr, origin: Instant, due: f64) -> Sample {
    let at = |t: Instant| t.duration_since(origin).as_secs_f64();
    let sent = Instant::now();
    let mut s = Sample {
        due,
        sent: at(sent),
        connected: at(sent),
        written: at(sent),
        done: at(sent),
        outcome: Err(String::new()),
    };
    let result = (|| {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.connected = at(Instant::now());
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .and_then(|()| stream.write_all(REQUEST))
            .map_err(|e| format!("write: {e}"))?;
        s.written = at(Instant::now());
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| format!("read: {e}"))?;
        parse_response(&raw)
    })();
    s.done = at(Instant::now());
    s.outcome = result;
    s
}

/// Poisson arrival times over `[0, seconds)` at `rate`, from `seeds`.
fn schedule(seeds: &SeedTree, rate: f64, seconds: f64) -> Vec<f64> {
    let mut state = seeds.raw();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        state = splitmix64(state);
        let u = ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// Replays `due` open-loop from `clients` threads sharing one cursor:
/// a free client takes the next request and sends it at its due time,
/// or at once if it is already late.
fn replay(addr: SocketAddr, due: &[f64], clients: usize) -> Vec<Sample> {
    let cursor = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(due.len()));
    let origin = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&d) = due.get(i) else { break };
                    let wait = d - origin.elapsed().as_secs_f64();
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait));
                    }
                    mine.push(request(addr, origin, d));
                }
                samples
                    .lock()
                    .expect("a client thread panicked while recording")
                    .extend(mine);
            });
        }
    });
    let mut out = samples.into_inner().expect("client threads finished");
    out.sort_by(|a, b| a.due.total_cmp(&b.due));
    out
}

/// Why a request failed: a non-200 status or a connection error.
fn problem(outcome: &Result<Response, String>) -> Option<String> {
    match outcome {
        Ok(r) if r.status == 200 => None,
        Ok(r) => Some(format!("status {}", r.status)),
        Err(e) => Some(e.clone()),
    }
}

/// What one fixed-rate phase measured.
#[derive(Debug)]
struct Phase {
    rate: f64,
    samples: Vec<Sample>,
    /// Latency from due time, successful requests only, in ms.
    latency: stats::Summary,
    /// Successful responses per second over the phase's span.
    goodput: f64,
    /// Share of requests answered `200` within [`LIMIT_MS`].
    on_time: f64,
    backlog_grew: bool,
    failures: usize,
}

impl Phase {
    fn new(rate: f64, samples: Vec<Sample>) -> Self {
        let ok: Vec<&Sample> = samples
            .iter()
            .filter(|s| matches!(&s.outcome, Ok(r) if r.status == 200))
            .collect();
        let lat: Vec<f64> = ok.iter().map(|s| (s.done - s.due) * 1e3).collect();
        let span = samples.last().map_or(0.0, |s| s.done) - samples.first().map_or(0.0, |s| s.due);
        let lateness = |part: &[Sample]| {
            stats::mean(
                &part
                    .iter()
                    .map(|s| (s.sent - s.due) * 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        let fifth = samples.len() / 5;
        let backlog_grew = fifth > 0
            && lateness(&samples[samples.len() - fifth..]) > lateness(&samples[..fifth]) + LIMIT_MS;
        Self {
            rate,
            latency: stats::summarize(&lat),
            goodput: ok.len() as f64 / span.max(f64::MIN_POSITIVE),
            on_time: lat.iter().filter(|&&l| l <= LIMIT_MS).count() as f64
                / samples.len().max(1) as f64,
            backlog_grew,
            failures: samples.len() - ok.len(),
            samples,
        }
    }

    fn meets_limit(&self) -> bool {
        self.failures == 0 && !self.backlog_grew && self.latency.tail <= LIMIT_MS
    }

    fn record(&self, checks: &mut Checks) {
        for s in &self.samples {
            checks.record(
                &format!("live request @{} req/s", self.rate),
                problem(&s.outcome),
            );
        }
    }
}

/// A running server with its governor on a scoped thread.
struct Live<'scope> {
    handle: &'scope ServerHandle,
    stop: Arc<AtomicBool>,
    governor: std::thread::ScopedJoinHandle<'scope, (Governor, PhaseProfile)>,
}

fn spawn_server() -> Result<ServerHandle, String> {
    Server::spawn(&ServerConfig {
        max_workers: POOL,
        queue_cap: 64,
        deadline_ms: SLA_MS,
        policy: LimitPolicy::Governed,
    })
    .map_err(|e| format!("server spawn: {e}"))
}

/// Starts the governor on its own thread. When `traced`, its `SAS_OBS`
/// sink is installed before this returns, so the spans of every later
/// traced phase land in it.
fn start_governor<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    handle: &'scope ServerHandle,
    traced: bool,
) -> Live<'scope> {
    let stop = Arc::new(AtomicBool::new(false));
    let cfg = GovernorConfig {
        max_workers: POOL,
        shed_engage: 18.0,
        shed_release: 6.0,
        base_deadline_ms: SLA_MS,
        stop_flag: Some(Arc::clone(&stop)),
        ..GovernorConfig::default()
    };
    let (ready_tx, ready) = std::sync::mpsc::channel();
    obs::set_override(Some(traced));
    let governor = scope.spawn(move || {
        let mut gov = Governor::new(handle, cfg);
        let ((), seen) = obs::with_sink(|| {
            let _ = ready_tx.send(());
            gov.run(GOVERNOR_TICKS);
        });
        (gov, seen.profile)
    });
    // Either the sink is in place or the thread has already died; a
    // dead governor surfaces when it is joined.
    let _ = ready.recv();
    obs::set_override(Some(false));
    Live {
        handle,
        stop,
        governor,
    }
}

impl Live<'_> {
    /// Stops the governor and returns it with its phase profile.
    fn stop(self) -> Result<(Governor, PhaseProfile), String> {
        self.stop.store(true, Ordering::SeqCst);
        self.governor
            .join()
            .map_err(|_| "the governor thread panicked".to_owned())
    }
}

/// Checks the server stopped cleanly with every thread joined.
fn shutdown(handle: ServerHandle, checks: &mut Checks) -> liveserve::ServerReport {
    let report = handle.shutdown(SHUTDOWN_GRACE);
    let problem =
        (!report.clean_shutdown || report.threads_joined != report.threads_spawned).then(|| {
            format!(
                "unclean shutdown: {} of {} threads joined",
                report.threads_joined, report.threads_spawned
            )
        });
    checks.record("live shutdown", problem);
    report
}

/// The `live` workload.
///
/// # Errors
///
/// Returns an error when the client-thread count exceeds the host or
/// the server cannot bind.
pub fn live(seed: u64, seconds: f64, traced: bool, checks: &mut Checks) -> Result<Report, String> {
    let clients = host::check_threads(host::nproc(), "client threads")?;
    let seeds = SeedTree::new(seed).child("live");
    let mut report = Report::default();

    // Set up (spawn, govern, canary) several times; measure on the last.
    let mut setup = Vec::new();
    for round in 0..crate::sim::SETUPS {
        let t = Instant::now();
        let handle = spawn_server()?;
        let last = round + 1 == crate::sim::SETUPS;
        let outcome = std::thread::scope(|scope| {
            let live = start_governor(scope, &handle, traced && last);
            let origin = Instant::now();
            for _ in 0..CANARY_REQUESTS {
                let s = request(handle.addr, origin, origin.elapsed().as_secs_f64());
                checks.record("live canary", problem(&s.outcome));
            }
            setup.push(t.elapsed().as_secs_f64());
            if last {
                measure(&live, &seeds, seconds, traced, clients, checks, &mut report)
                    .map(|()| live.stop())
            } else {
                Ok(live.stop())
            }
        });
        let (gov, profile) = outcome??;
        let server = shutdown(handle, checks);
        if last {
            let caps: Vec<f64> = gov
                .trace()
                .iter()
                .map(|&(_, cap, _, _)| cap as f64)
                .collect();
            let l = &mut report.layers;
            l.insert("governor.mean_cap", stats::mean(&caps));
            l.insert(
                "governor.decide_us",
                profile
                    .phase("decide")
                    .map_or(0.0, |p| p.stats.mean() * 1e6),
            );
            l.insert("live.timed_out", server.timed_out as f64);
            l.insert("live.io_errors", server.io_errors as f64);
            l.insert(
                "live.shed_share",
                server.shed as f64 / (server.shed + server.accepted).max(1) as f64,
            );
        }
    }
    report.e2e.insert("setup_s", median(&setup));
    Ok(report)
}

/// Runs the phases on a set-up server and writes the metrics.
fn measure(
    live: &Live<'_>,
    seeds: &SeedTree,
    seconds: f64,
    traced: bool,
    clients: usize,
    checks: &mut Checks,
    report: &mut Report,
) -> Result<(), String> {
    let addr = live.handle.addr;
    let run = |index: u64, rate: f64, share: f64| {
        let due = schedule(&seeds.child_idx(index), rate, seconds * share);
        Phase::new(rate, replay(addr, &due, clients))
    };
    obs::set_override(Some(false));
    let warmup = run(0, REFERENCE_RATE, WARMUP_SHARE);
    warmup.record(checks);

    let (phases, traced_reference) = if traced {
        // The reference rate twice: untraced, then with the governor's
        // spans on, for the tracing overhead.
        let half = RATE_SHARES.iter().sum::<f64>() / 2.0;
        let untraced = run(1, REFERENCE_RATE, half);
        obs::set_override(Some(true));
        let traced_ref = run(1, REFERENCE_RATE, half);
        obs::set_override(Some(false));
        traced_ref.record(checks);
        (vec![untraced], Some(traced_ref))
    } else {
        let phases: Vec<Phase> = RATES
            .iter()
            .zip(RATE_SHARES)
            .enumerate()
            .map(|(i, (&rate, share))| run(i as u64 + 1, rate, share))
            .collect();
        (phases, None)
    };
    for p in &phases {
        p.record(checks);
    }
    let reference = phases
        .iter()
        .find(|p| p.rate == REFERENCE_RATE)
        .ok_or("the reference rate is one of the rates")?;

    // The highest rate that meets the limit (phases run in rising
    // rate order), with its goodput.
    let best = phases.iter().rev().find(|p| p.meets_limit());
    let max_rps = best.map_or(0.0, |p| p.goodput);
    for p in &phases {
        let tail = p.latency.tail_q * 100.0;
        report.note(format!("live.tail_ms@{}", p.rate), p.latency.tail, "ms");
        report.note(format!("live.tail_percentile@{}", p.rate), tail, "%");
        report.note(format!("live.p90_ms@{}", p.rate), p.latency.p90, "ms");
        report.note(format!("live.goodput@{}", p.rate), p.goodput, "1/s");
    }
    report.e2e.insert("ops_per_s", max_rps);
    report.e2e.insert("op_ms", reference.latency.p50);
    report.e2e.insert("quality", reference.on_time);
    report.note("live_p50_ms", reference.latency.p50, "ms");
    report.note("live_p99_ms", reference.latency.tail, "ms");
    report.note("live.p99_percentile", reference.latency.tail_q * 100.0, "%");
    report.note("live_max_rps", max_rps, "1/s");
    report.note("live.max_rate", best.map_or(0.0, |p| p.rate), "1/s");
    report.note(
        "live.reference_requests",
        reference.samples.len() as f64,
        "count",
    );
    report.note("live.client_threads", clients as f64, "count");

    let layer_phase = traced_reference.as_ref().unwrap_or(reference);
    write_client_layers(report, layer_phase);
    if let Some(t) = &traced_reference {
        report.layers.insert(
            "trace.overhead_share",
            if reference.latency.p50 > 0.0 {
                (t.latency.p50 - reference.latency.p50) / reference.latency.p50
            } else {
                0.0
            },
        );
    }
    Ok(())
}

/// Client-side timings of one phase, split at the server's own time.
fn write_client_layers(report: &mut Report, phase: &Phase) {
    let ok: Vec<(&Sample, u64)> = phase
        .samples
        .iter()
        .filter_map(|s| match &s.outcome {
            Ok(Response {
                status: 200,
                server_us: Some(us),
            }) => Some((s, *us)),
            _ => None,
        })
        .collect();
    let ms = |f: &dyn Fn(&Sample, u64) -> f64| -> Vec<f64> {
        ok.iter().map(|&(s, us)| f(s, us)).collect()
    };
    let response = ms(&|s, _| (s.done - s.written) * 1e3);
    let server = ms(&|_, us| us as f64 / 1e3);
    let pre_admit = ms(&|s, us| (s.done - s.written) * 1e3 - us as f64 / 1e3);
    let lag = stats::summarize(
        &phase
            .samples
            .iter()
            .map(|s| (s.sent - s.due) * 1e3)
            .collect::<Vec<_>>(),
    );
    let l = &mut report.layers;
    l.insert(
        "live.connect_ms",
        median(&ms(&|s, _| (s.connected - s.sent) * 1e3)),
    );
    l.insert("live.response_ms", median(&response));
    l.insert("live.server_ms", median(&server));
    l.insert("live.pre_admit_ms", median(&pre_admit));
    l.insert("live.gen_lag_ms", lag.tail);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_must_be_well_formed() {
        let ok = parse_response(b"HTTP/1.0 200 OK\r\nContent-Length: 7\r\n\r\nok 42us");
        assert_eq!(
            ok,
            Ok(Response {
                status: 200,
                server_us: Some(42)
            })
        );
        let shed = parse_response(
            b"HTTP/1.0 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(shed.map(|r| r.status), Ok(429));
        assert!(parse_response(b"HTTP/1.0 200 OK\r\nContent-Length: 9\r\n\r\nok 42us").is_err());
        assert!(parse_response(b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\nfine").is_err());
        assert!(parse_response(b"garbage").is_err());
        assert!(parse_response(b"").is_err());
    }

    #[test]
    fn schedules_follow_the_seed_and_rate() {
        let a = schedule(&SeedTree::new(1), 400.0, 5.0);
        assert_eq!(a, schedule(&SeedTree::new(1), 400.0, 5.0));
        assert_ne!(a, schedule(&SeedTree::new(2), 400.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 2000 arrivals expected; Poisson sd ≈ 45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }
}
