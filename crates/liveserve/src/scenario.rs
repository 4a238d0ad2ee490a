//! One-call experiment arms: spawn a server, govern it (or not), replay
//! a chaos schedule, and collect every report the F11 harness needs.
//!
//! Two arms, identical offered load and faults:
//!
//! * **Supervised** — governed limits: the wall-clock [`Governor`]
//!   resizes the concurrency cap with the supervised autoscaler,
//!   engages slope-tilted shedding, tightens deadlines under pressure,
//!   and survives the chaos plan's model poisoning via the watchdog's
//!   fallback ladder.
//! * **Naive** — classic fixed provisioning: full worker pool from
//!   tick 0, a deep fixed queue, no shedding, a fixed deadline. The
//!   strawman is not artificially weak — it has *more* steady-state
//!   capacity than the supervised arm starts with; it just cannot
//!   renegotiate anything when the chaos windows hit.
//!
//! The governor runs on the calling thread (so its `sense`/`decide`
//! spans land in this thread's `SAS_OBS` sink) while the load pool
//! replays the schedule from worker threads; a completion flag stops
//! the governor as soon as the last client outcome is in.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use selfaware::explain::ExplanationLog;
use simkernel::SeedTree;

use crate::chaos::ChaosPlan;
use crate::governor::{Governor, GovernorConfig};
use crate::load::{run_load, LoadOptions, LoadReport};
use crate::server::{LimitPolicy, Server, ServerConfig, ServerReport};

/// Which provisioning policy an arm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Self-aware: supervised autoscaler + backpressure + shedding.
    Supervised,
    /// Fixed limits, no admission control.
    Naive,
}

impl Arm {
    /// Stable label used in metrics and traces.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Arm::Supervised => "supervised",
            Arm::Naive => "naive",
        }
    }
}

/// Everything one arm run produces.
#[derive(Debug)]
pub struct ArmResult {
    /// Client-side outcomes.
    pub load: LoadReport,
    /// Server-side counters + thread accounting.
    pub server: ServerReport,
    /// The governor's explanation log, one entry per transition
    /// (empty for the naive arm).
    pub log: ExplanationLog,
    /// Supervision counters (all zero for the naive arm).
    pub supervision: selfaware::supervision::SupervisionStats,
}

/// Worker pool size both arms get.
pub const POOL: usize = 8;
/// Client-side SLA bound (ms); matches the server's base deadline so
/// a request that survives the server's own deadline check but queued
/// too long still counts as late.
pub const SLA_MS: u64 = 250;

fn load_options() -> LoadOptions {
    LoadOptions {
        clients: 96,
        sla_ms: SLA_MS,
        max_retries: 3,
        io_timeout: Duration::from_secs(2),
    }
}

/// Runs one arm against `plan` with seeds from `seeds`.
///
/// # Errors
/// Propagates server socket errors.
pub fn run_arm(arm: Arm, plan: &ChaosPlan, seeds: &SeedTree) -> std::io::Result<ArmResult> {
    let schedule = plan.schedule(seeds);
    let opts = load_options();
    match arm {
        Arm::Supervised => {
            let handle = Server::spawn(&ServerConfig {
                max_workers: POOL,
                queue_cap: 64,
                deadline_ms: SLA_MS,
                policy: LimitPolicy::Governed,
            })?;
            let addr = handle.addr;
            let done = Arc::new(AtomicBool::new(false));
            let load_thread = spawn_load(addr, schedule, opts, Arc::clone(&done));
            let mut gov = Governor::new(
                &handle,
                GovernorConfig {
                    quantum: Duration::from_millis(plan.quantum_ms),
                    min_workers: 1,
                    max_workers: POOL,
                    queue_factor: 6,
                    queue_cap_max: 64,
                    shed_engage: 18.0,
                    shed_release: 6.0,
                    base_deadline_ms: SLA_MS,
                    poison_at: plan.poison,
                    stop_flag: Some(Arc::clone(&done)),
                },
            );
            // Generous horizon; the stop flag ends the loop as soon as
            // the last client outcome is recorded.
            gov.run(plan.ticks + 30_000 / plan.quantum_ms.max(1));
            let load = load_thread.join().unwrap_or_else(|_| LoadReport::default());
            let supervision = gov.supervision_stats();
            let server = handle.shutdown(Duration::from_secs(10));
            Ok(ArmResult {
                load,
                server,
                log: gov.explanations().clone(),
                supervision,
            })
        }
        Arm::Naive => {
            let handle = Server::spawn(&ServerConfig {
                max_workers: POOL,
                queue_cap: 512,
                deadline_ms: SLA_MS,
                policy: LimitPolicy::Fixed,
            })?;
            let load = run_load(handle.addr, &schedule, &opts);
            let server = handle.shutdown(Duration::from_secs(10));
            Ok(ArmResult {
                load,
                server,
                log: ExplanationLog::new(1),
                supervision: selfaware::supervision::SupervisionStats::default(),
            })
        }
    }
}

fn spawn_load(
    addr: SocketAddr,
    schedule: Vec<crate::chaos::RequestSpec>,
    opts: LoadOptions,
    done: Arc<AtomicBool>,
) -> std::thread::JoinHandle<LoadReport> {
    let done_in = Arc::clone(&done);
    std::thread::Builder::new()
        .name("live-load".into())
        .spawn(move || {
            let report = run_load(addr, &schedule, &opts);
            done_in.store(true, Ordering::SeqCst);
            report
        })
        .unwrap_or_else(|e| {
            done.store(true, Ordering::SeqCst);
            // Spawn failure is unrecoverable for the arm; return an
            // already-finished thread with an empty report.
            std::thread::spawn(move || {
                let _ = e;
                LoadReport::default()
            })
        })
}
