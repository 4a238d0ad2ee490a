//! The threaded HTTP-ish TCP server (std only, no async runtime).
//!
//! Architecture: one listener thread accepts connections and makes the
//! *admission* decision (shed with `429 Too Many Requests` +
//! `Retry-After` when the governor has engaged shedding or the
//! admission queue is full); a fixed pool of worker threads parses and
//! serves admitted requests, with the *effective* concurrency governed
//! by an atomic cap the governor resizes at run time. All control
//! knobs — concurrency cap, queue cap, per-request deadline, advertised
//! retry delay, shed flag — are atomics written by the governor thread
//! and read on the hot path, so actuation is wait-free.
//!
//! Requests are a single line, `GET /work?ms=<service>&stall=<extra>&
//! panic=<0|1> HTTP/1.0`: the handler sleeps `ms + stall` milliseconds
//! (work is time-shaped, not CPU-shaped, so a small box can host
//! hundreds of in-flight requests) and `panic=1` makes the handler
//! panic — caught per-request, answered `500`, worker survives. A
//! request whose `ms` or `stall` is not a `u64`, or that asks for more
//! than `MAX_WORK_MS` of handler time, is answered `400` without
//! running; absent parameters take their defaults (`ms=1`, `stall=0`).
//! A request older than the governed
//! deadline when a worker picks it up is answered `503` immediately
//! (fail fast beats serving dead work).
//!
//! Shutdown is deadlock-proof by construction. Every blocking wait but
//! one has a timeout (queue condvar, socket reads/writes, the whole
//! request read). The listener blocks in `accept` with none, so it
//! admits a connection the moment it arrives; [`ServerHandle::shutdown`]
//! wakes it by connecting once to the server's own address, and the
//! listener drops that connection uncounted. Shutdown then joins every
//! spawned thread through a watchdog with a hard deadline: if the
//! wake-up connect fails or any thread fails to exit, shutdown still
//! returns within the wake-up's connect timeout plus its grace period,
//! reporting `clean_shutdown = false` instead of hanging — the F11
//! harness asserts on exactly this.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server's limits are set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitPolicy {
    /// Limits governed at run time by the supervised autoscaler
    /// (see [`crate::governor::Governor`]).
    Governed,
    /// Classic fixed provisioning: concurrency and queue caps never
    /// move, no shedding, no governed deadline tightening.
    Fixed,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads spawned (upper bound of the concurrency cap).
    pub max_workers: usize,
    /// Initial / maximum admission-queue length.
    pub queue_cap: usize,
    /// Per-request deadline (queue wait + service) in milliseconds.
    pub deadline_ms: u64,
    /// Fixed or governed limits.
    pub policy: LimitPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_workers: 8,
            queue_cap: 64,
            deadline_ms: 250,
            policy: LimitPolicy::Governed,
        }
    }
}

/// An admitted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    arrived: Instant,
}

/// State shared between listener, workers and governor.
pub(crate) struct Shared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    running: AtomicBool,
    // Governed knobs (written by the governor, read on the hot path).
    pub(crate) shedding: AtomicBool,
    pub(crate) concurrency_cap: AtomicUsize,
    pub(crate) queue_cap: AtomicUsize,
    pub(crate) deadline_ms: AtomicU64,
    pub(crate) retry_after_ms: AtomicU64,
    // Live sensing for the governor (windowed: read-and-reset).
    pub(crate) window_arrivals: AtomicU64,
    pub(crate) window_completed: AtomicU64,
    pub(crate) window_violations: AtomicU64,
    pub(crate) window_service_us: AtomicU64,
    pub(crate) active: AtomicUsize,
    // Run counters.
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    panicked: AtomicU64,
    io_errors: AtomicU64,
}

impl Shared {
    /// The run counters, with the thread accounting left empty.
    fn counters(&self) -> ServerReport {
        ServerReport {
            accepted: self.accepted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            ..ServerReport::default()
        }
    }

    pub(crate) fn queue_len(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Wakes all workers (used by the governor after raising the cap,
    /// and by shutdown).
    pub(crate) fn poke(&self) {
        let _q = lock(&self.queue);
        self.job_ready.notify_all();
    }
}

/// Mutex lock that survives a poisoned mutex (handler panics are
/// caught before they can poison, but a worker aborting mid-update
/// must not deadlock the rest of the server).
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Final server statistics, returned by [`ServerHandle::shutdown`].
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ServerReport {
    /// Connections admitted to the queue.
    pub accepted: u64,
    /// Requests answered `200`.
    pub served: u64,
    /// Connections answered `429` at admission.
    pub shed: u64,
    /// Requests answered `503` (deadline exceeded before service).
    pub timed_out: u64,
    /// Handler panics caught and answered `500`.
    pub panicked: u64,
    /// Connections lost to socket errors (client drops, timeouts).
    pub io_errors: u64,
    /// Threads spawned by [`Server::spawn`].
    pub threads_spawned: usize,
    /// Threads that exited and were joined by shutdown.
    pub threads_joined: usize,
    /// True when every thread joined within the shutdown deadline —
    /// the harness's no-deadlock / no-leak assertion.
    pub clean_shutdown: bool,
}

/// A running server: address plus the handles shutdown needs.
pub struct ServerHandle {
    /// Bound address (ephemeral port on 127.0.0.1).
    pub addr: SocketAddr,
    pub(crate) shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// The server factory.
pub struct Server;

impl Server {
    /// Binds 127.0.0.1 on an ephemeral port and spawns the listener
    /// and worker threads.
    ///
    /// # Errors
    /// Returns any socket-bind error.
    pub fn spawn(cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;

        let initial_cap = match cfg.policy {
            LimitPolicy::Governed => 1, // governor scales it up
            LimitPolicy::Fixed => cfg.max_workers,
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            running: AtomicBool::new(true),
            shedding: AtomicBool::new(false),
            concurrency_cap: AtomicUsize::new(initial_cap),
            queue_cap: AtomicUsize::new(cfg.queue_cap),
            deadline_ms: AtomicU64::new(cfg.deadline_ms),
            retry_after_ms: AtomicU64::new(100),
            window_arrivals: AtomicU64::new(0),
            window_completed: AtomicU64::new(0),
            window_violations: AtomicU64::new(0),
            window_service_us: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        });

        let mut threads = Vec::with_capacity(cfg.max_workers + 1);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("live-listen".into())
                    .spawn(move || listen_loop(&listener, &shared))?,
            );
        }
        for w in 0..cfg.max_workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("live-worker-{w}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

impl ServerHandle {
    /// Shared control/sensing surface for the governor.
    pub(crate) fn controls(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Live snapshot of the run counters (shutdown fills in the thread
    /// accounting).
    #[must_use]
    pub fn report(&self) -> ServerReport {
        ServerReport {
            threads_spawned: self.threads.len(),
            ..self.shared.counters()
        }
    }

    /// Stops the server and joins every thread, with a hard deadline:
    /// if any thread fails to exit within `grace`, the report comes
    /// back with `clean_shutdown = false` instead of hanging. The
    /// counters are read after the joins, so they include the requests
    /// the workers drain from the queue on their way out.
    #[must_use]
    pub fn shutdown(self, grace: Duration) -> ServerReport {
        let Self {
            addr,
            shared,
            threads,
        } = self;
        shared.running.store(false, Ordering::SeqCst);
        shared.poke();
        // The listener is blocked in `accept`: one connection wakes it
        // to see `running` cleared. Should this connect fail, the
        // listener stays blocked and the bounded join reports it.
        let _ = TcpStream::connect_timeout(&addr, IO_TIMEOUT);

        // Joining can block forever if a thread leaked; do the joins
        // on a reaper thread and bound the wait with a channel.
        let spawned = threads.len();
        let (tx, rx) = mpsc::channel();
        let reaper = std::thread::Builder::new()
            .name("live-reaper".into())
            .spawn(move || {
                let mut joined = 0usize;
                for t in threads {
                    if t.join().is_ok() {
                        joined += 1;
                    }
                }
                let _ = tx.send(joined);
            });
        let joined = match reaper {
            Ok(h) => match rx.recv_timeout(grace) {
                Ok(j) => {
                    let _ = h.join();
                    j
                }
                Err(_) => 0, // threads stuck: report dirty, don't hang
            },
            Err(_) => 0,
        };
        ServerReport {
            threads_spawned: spawned,
            threads_joined: joined,
            clean_shutdown: joined == spawned,
            ..shared.counters()
        }
    }
}

/// Pause after a failed `accept` (EMFILE, ECONNABORTED) before the
/// next one, so an error that persists cannot spin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);
const IO_TIMEOUT: Duration = Duration::from_millis(200);
const WAIT_SLICE: Duration = Duration::from_millis(25);
/// Longest handler time (`ms + stall`) a request may ask for, in ms.
/// F11's chaos plan peaks near 66 ms (1.5 × a 4 ms service plus a
/// 60 ms stall); the ceiling sits far above that and below the 5–10 s
/// shutdown graces, so no single request can pin a worker past
/// shutdown. Larger asks are answered `400 Bad Request`, unrun.
const MAX_WORK_MS: u64 = 1_000;

fn listen_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Shutdown clears `running` before its wake-up connect, so
        // whatever woke this accept after that is dropped uncounted.
        if !shared.running.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => admit(stream, shared),
            Err(_) => {
                shared.io_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

/// Admission: shed (self-expression: tell the client *when* to come
/// back) or enqueue for a worker.
fn admit(mut stream: TcpStream, shared: &Arc<Shared>) {
    shared.window_arrivals.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);

    let queue_cap = shared.queue_cap.load(Ordering::Relaxed);
    let shed = shared.shedding.load(Ordering::Relaxed) || shared.queue_len() >= queue_cap;
    if shed {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        let retry_ms = shared.retry_after_ms.load(Ordering::Relaxed);
        let retry_s = retry_ms.div_ceil(1000).max(1);
        let _ = stream.write_all(
            format!(
                "HTTP/1.0 429 Too Many Requests\r\nRetry-After: {retry_s}\r\nRetry-After-Ms: {retry_ms}\r\nContent-Length: 0\r\n\r\n"
            )
            .as_bytes(),
        );
        return;
    }
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    let mut q = lock(&shared.queue);
    q.push_back(Job {
        stream,
        arrived: Instant::now(),
    });
    drop(q);
    shared.job_ready.notify_one();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Take a job only while under the (dynamic) concurrency cap.
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                let running = shared.running.load(Ordering::SeqCst);
                let cap = shared.concurrency_cap.load(Ordering::Relaxed);
                let may_run = shared.active.load(Ordering::Relaxed) < cap;
                if let Some(job) = (may_run || !running).then(|| q.pop_front()).flatten() {
                    shared.active.fetch_add(1, Ordering::Relaxed);
                    break Some(job);
                }
                if !running {
                    break None;
                }
                let (guard, _) = shared
                    .job_ready
                    .wait_timeout(q, WAIT_SLICE)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
            }
        };
        let Some(job) = job else { return };
        serve(job, shared);
        shared.active.fetch_sub(1, Ordering::Relaxed);
        // A finished slot may unblock a capped peer.
        shared.job_ready.notify_one();
    }
}

/// Parsed request parameters.
struct WorkSpec {
    service_ms: u64,
    stall_ms: u64,
    panic: bool,
}

/// Parses a request line. `None` when `ms` or `stall` is given but is
/// not a `u64`; an absent parameter keeps its default.
fn parse_request(line: &str) -> Option<WorkSpec> {
    let mut spec = WorkSpec {
        service_ms: 1,
        stall_ms: 0,
        panic: false,
    };
    let Some(q) = line.split_whitespace().nth(1) else {
        return Some(spec);
    };
    let Some((_, params)) = q.split_once('?') else {
        return Some(spec);
    };
    for kv in params.split('&') {
        let Some((k, v)) = kv.split_once('=') else {
            continue;
        };
        match k {
            "ms" => spec.service_ms = v.parse().ok()?,
            "stall" => spec.stall_ms = v.parse().ok()?,
            "panic" => spec.panic = v == "1",
            _ => {}
        }
    }
    Some(spec)
}

fn serve(mut job: Job, shared: &Arc<Shared>) {
    // Read the request line. The whole read, not just each `read`,
    // gets `IO_TIMEOUT`, counted from here rather than from accept so
    // a queued request keeps its time: a client trickling bytes must
    // not pin the worker.
    let read_until = Instant::now() + IO_TIMEOUT;
    let mut buf = [0u8; 512];
    let mut line = String::new();
    loop {
        match job.stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                line.push_str(&String::from_utf8_lossy(&buf[..n]));
                if line.contains("\r\n\r\n") || line.contains('\n') || line.len() > 4096 {
                    break;
                }
            }
            Err(_) => {
                shared.io_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let left = read_until.saturating_duration_since(Instant::now());
        if left.is_zero() || job.stream.set_read_timeout(Some(left)).is_err() {
            shared.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    if line.is_empty() {
        shared.io_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // Both times come from the client: either may not parse, and
    // their sum can overflow.
    let Some((spec, work_ms)) = parse_request(&line).and_then(|spec| {
        let ms = spec.service_ms.checked_add(spec.stall_ms)?;
        (ms <= MAX_WORK_MS).then_some((spec, ms))
    }) else {
        let _ = job
            .stream
            .write_all(b"HTTP/1.0 400 Bad Request\r\nContent-Length: 8\r\n\r\nbad work");
        return;
    };

    // Governed deadline: dead-on-arrival work is failed fast.
    let deadline = Duration::from_millis(shared.deadline_ms.load(Ordering::Relaxed));
    if job.arrived.elapsed() > deadline {
        shared.timed_out.fetch_add(1, Ordering::Relaxed);
        let _ = job
            .stream
            .write_all(b"HTTP/1.0 503 Service Unavailable\r\nContent-Length: 8\r\n\r\ndeadline");
        return;
    }

    // The handler proper: time-shaped work; a chaos panic is caught
    // per-request so the worker (and the pool accounting) survives.
    let started = Instant::now();
    let work = Duration::from_millis(work_ms);
    #[allow(clippy::panic)] // deliberate fault injection: the whole point
    // is proving the pool contains a panicking handler.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        std::thread::sleep(work);
        if spec.panic {
            std::panic::panic_any("chaos: injected handler panic");
        }
    }));
    let service_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    shared
        .window_service_us
        .fetch_add(service_us, Ordering::Relaxed);

    match outcome {
        Ok(()) => {
            let total = job.arrived.elapsed();
            shared.window_completed.fetch_add(1, Ordering::Relaxed);
            if total > deadline {
                shared.window_violations.fetch_add(1, Ordering::Relaxed);
            }
            let body = format!("ok {}us", total.as_micros());
            let ok = job
                .stream
                .write_all(
                    format!(
                        "HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                )
                .is_ok();
            if ok {
                shared.served.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(_) => {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            let _ = job
                .stream
                .write_all(b"HTTP/1.0 500 Internal Server Error\r\nContent-Length: 5\r\n\r\npanic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2))).ok();
        // One write: a shed answer can close the socket before a
        // fragmented request is fully sent, failing the later writes
        // with a broken pipe. The response is what each test checks.
        let _ = s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes());
        let mut out = String::new();
        s.read_to_string(&mut out).ok();
        out
    }

    #[test]
    fn serves_and_shuts_down_cleanly() {
        let handle = Server::spawn(&ServerConfig {
            max_workers: 2,
            policy: LimitPolicy::Fixed,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let addr = handle.addr;
        for _ in 0..5 {
            let resp = get(addr, "/work?ms=2");
            assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        }
        let report = handle.shutdown(Duration::from_secs(5));
        assert!(report.clean_shutdown, "{report:?}");
        assert_eq!(report.threads_joined, report.threads_spawned);
        assert_eq!(report.served, 5);
    }

    #[test]
    fn sheds_when_flag_engaged() {
        let handle = Server::spawn(&ServerConfig::default()).expect("spawn");
        handle.shared.shedding.store(true, Ordering::SeqCst);
        let resp = get(handle.addr, "/work?ms=1");
        assert!(resp.starts_with("HTTP/1.0 429"), "{resp}");
        assert!(resp.contains("Retry-After-Ms:"), "{resp}");
        let report = handle.shutdown(Duration::from_secs(5));
        assert!(report.clean_shutdown);
        assert_eq!(report.shed, 1);
    }

    #[test]
    fn handler_panic_is_contained() {
        let handle = Server::spawn(&ServerConfig {
            max_workers: 1,
            policy: LimitPolicy::Fixed,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let resp = get(handle.addr, "/work?ms=1&panic=1");
        assert!(resp.starts_with("HTTP/1.0 500"), "{resp}");
        // The single worker must still be alive to serve this.
        let resp = get(handle.addr, "/work?ms=1");
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        let report = handle.shutdown(Duration::from_secs(5));
        assert!(report.clean_shutdown, "{report:?}");
        assert_eq!(report.panicked, 1);
    }

    #[test]
    fn oversized_work_is_refused_unrun() {
        let handle = Server::spawn(&ServerConfig {
            max_workers: 1,
            policy: LimitPolicy::Fixed,
            ..ServerConfig::default()
        })
        .expect("spawn");
        // Would pin the single worker for ~585 million years.
        let resp = get(handle.addr, "/work?ms=18446744073709551615");
        assert!(resp.starts_with("HTTP/1.0 400"), "{resp}");
        // `ms + stall` overflows u64.
        let resp = get(handle.addr, "/work?ms=18446744073709551615&stall=1");
        assert!(resp.starts_with("HTTP/1.0 400"), "{resp}");
        // Work sizes that do not parse: one past u64::MAX, and no number.
        for work in ["ms=18446744073709551616", "ms=abc", "ms=1&stall=x"] {
            let resp = get(handle.addr, &format!("/work?{work}"));
            assert!(resp.starts_with("HTTP/1.0 400"), "{work}: {resp}");
        }
        // The single worker must still be alive to serve this.
        let resp = get(handle.addr, "/work?ms=1");
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        let report = handle.shutdown(Duration::from_secs(5));
        assert!(report.clean_shutdown, "{report:?}");
        assert_eq!(report.threads_joined, report.threads_spawned);
        assert_eq!(report.panicked, 0);
        assert_eq!(report.served, 1);
    }

    #[test]
    fn slow_client_cannot_pin_a_worker() {
        let handle = Server::spawn(&ServerConfig {
            max_workers: 1,
            deadline_ms: 5_000,
            policy: LimitPolicy::Fixed,
            ..ServerConfig::default()
        })
        .expect("spawn");
        // One byte per 100 ms, never a newline: each `read` returns
        // within its timeout, so only a bound on the whole read frees
        // the single worker.
        let mut slow = TcpStream::connect(handle.addr).expect("connect");
        slow.write_all(b"G").expect("first byte");
        let (stop, stopped) = mpsc::channel::<()>();
        let trickle = std::thread::spawn(move || {
            while stopped.recv_timeout(Duration::from_millis(100))
                == Err(mpsc::RecvTimeoutError::Timeout)
                && slow.write_all(b"E").is_ok()
            {}
        });
        // The normal request must queue behind the slow one.
        let started = Instant::now();
        while handle.shared.active.load(Ordering::SeqCst) == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "slow client never served"
            );
            std::thread::yield_now();
        }
        let resp = get(handle.addr, "/work?ms=1");
        drop(stop);
        trickle.join().expect("trickle thread");
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp:?}");
        let report = handle.shutdown(Duration::from_secs(1));
        assert!(report.clean_shutdown, "{report:?}");
        assert_eq!(report.threads_joined, report.threads_spawned);
        assert_eq!(report.served, 1);
        assert!(report.io_errors >= 1, "{report:?}");
    }

    #[test]
    fn shutdown_counts_requests_served_while_draining() {
        let handle = Server::spawn(&ServerConfig {
            max_workers: 1,
            deadline_ms: 5_000,
            policy: LimitPolicy::Fixed,
            ..ServerConfig::default()
        })
        .expect("spawn");
        let addr = handle.addr;
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let started = Instant::now();
            while !done() {
                assert!(started.elapsed() < Duration::from_secs(5), "{what}");
                std::thread::yield_now();
            }
        };
        // One request in service, one queued behind it, both still in
        // flight when shutdown starts.
        let slow = std::thread::spawn(move || get(addr, "/work?ms=300"));
        wait_for("slow request never served", &|| {
            handle.shared.active.load(Ordering::SeqCst) == 1
        });
        let quick = std::thread::spawn(move || get(addr, "/work?ms=1"));
        wait_for("quick request never queued", &|| {
            handle.shared.queue_len() == 1
        });
        let report = handle.shutdown(Duration::from_secs(5));
        for client in [slow, quick] {
            let resp = client.join().expect("client thread");
            assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        }
        assert!(report.clean_shutdown, "{report:?}");
        assert_eq!(report.accepted, 2, "{report:?}");
        assert_eq!(report.served, 2, "{report:?}");
    }

    #[test]
    fn shutdown_wakes_an_idle_listener_uncounted() {
        for _ in 0..200 {
            let handle = Server::spawn(&ServerConfig::default()).expect("spawn");
            let report = handle.shutdown(Duration::from_secs(5));
            assert!(report.clean_shutdown, "{report:?}");
            assert_eq!(report.threads_joined, report.threads_spawned);
            // The wake-up connection never reached admission.
            assert_eq!(
                (report.accepted, report.shed, report.io_errors),
                (0, 0, 0),
                "{report:?}"
            );
        }
    }

    #[test]
    fn parse_request_extracts_params() {
        let s = parse_request("GET /work?ms=12&stall=5&panic=1 HTTP/1.0").expect("parses");
        assert_eq!(s.service_ms, 12);
        assert_eq!(s.stall_ms, 5);
        assert!(s.panic);
        let s = parse_request("GET / HTTP/1.0").expect("defaults");
        assert_eq!((s.service_ms, s.stall_ms), (1, 0));
        assert!(!s.panic);
        assert!(parse_request("GET /work?ms=-1 HTTP/1.0").is_none());
        assert!(parse_request("GET /work?stall= HTTP/1.0").is_none());
    }
}
