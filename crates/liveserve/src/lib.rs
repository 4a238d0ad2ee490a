//! Live-traffic mode: the self-aware control plane on wall-clock time.
//!
//! Every other crate in this workspace exercises the paper's
//! self-awareness ladder inside a simulated clock. This crate is the
//! existence proof that the *same* machinery — the supervised
//! autoscaling policy ([`cloudsim::autoscale::AutoscaleCore`]), the
//! watchdog ladder (`selfaware::supervision`), the slope-tilted
//! hysteresis ([`selfaware::pressure`]) and the clock-agnostic control
//! loop ([`selfaware::runtime`]) — governs a real threaded TCP server
//! under live traffic, with nothing about the policies rewritten:
//! only the [`simkernel::ClockSource`] changes.
//!
//! Layout:
//!
//! * [`server`] — std-only threaded HTTP-ish server with governed
//!   admission (429 + `Retry-After`), bounded queueing, a dynamic
//!   concurrency cap, per-request deadlines, panic containment and
//!   deadlock-proof shutdown accounting.
//! * [`governor`] — the wall-clock [`selfaware::runtime::ControlLoop`]
//!   that senses the server and actuates its knobs each quantum.
//! * [`chaos`] — seed-deterministic chaos plans: flash crowds, slow
//!   handlers, connection drops, handler panics, model poisoning.
//! * [`load`] — the open-loop, `Retry-After`-honouring load generator.
//! * [`scenario`] — one-call supervised/naive experiment arms for the
//!   F11 harness.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]
#![warn(missing_docs)]

pub mod chaos;
pub mod governor;
pub mod load;
pub mod scenario;
pub mod server;

pub use chaos::{ChaosPlan, RequestSpec};

/// Payload prefix of chaos-injected handler panics (see [`server`]).
pub const CHAOS_PANIC_TAG: &str = "chaos:";

/// Installs a process-wide panic hook that silences chaos-injected
/// handler panics (they are caught and answered `500`; their
/// backtraces would otherwise drown the harness output) while
/// delegating every other panic to the previous hook.
///
/// Idempotent in effect: chaining twice still prints real panics once.
pub fn install_quiet_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_chaos = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.starts_with(CHAOS_PANIC_TAG))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(CHAOS_PANIC_TAG));
        if !is_chaos {
            previous(info);
        }
    }));
}
pub use governor::{Governor, GovernorConfig};
pub use load::{run_load, LoadOptions, LoadReport, Status};
pub use scenario::{run_arm, Arm, ArmResult};
pub use server::{LimitPolicy, Server, ServerConfig, ServerHandle, ServerReport};
