//! Wall-clock smoke tests: the supervision ladder and the live server
//! running against real elapsed time.
//!
//! These are timing-tolerant by design — they assert *that* the
//! watchdog fires / the server stays clean within generous wall
//! deadlines, never exact tick counts.

use std::time::{Duration, Instant};

use cloudsim::autoscale::AutoscaleCore;
use liveserve::{run_arm, Arm, ChaosPlan};
use selfaware::runtime::{drive, ControlLoop};
use simkernel::{SeedTree, Tick, WallClock};
use workloads::faults::ModelCorruptionKind;

/// A control loop whose supervised arrival model is artificially
/// stalled mid-run: the model stops learning while the input keeps
/// moving, which is exactly the `Stall` anomaly the supervisor's
/// watchdog exists to catch.
struct StalledController {
    core: AutoscaleCore,
    stall_at: u64,
}

impl ControlLoop for StalledController {
    type Sensed = f64;

    fn sense(&mut self, now: Tick) -> f64 {
        // A moving input: ramping arrivals.
        5.0 + (now.value() % 40) as f64
    }

    fn step(&mut self, now: Tick, arrivals: f64) {
        if now.value() == self.stall_at {
            ModelCorruptionKind::StateFreeze { duration: 10_000 }
                .apply(self.core.arrival_model_mut(), now);
        }
        let _ = self.core.desired_pool(arrivals, now, 1.0, 1, 32);
    }
}

#[test]
fn watchdog_fires_on_stalled_controller_within_wall_deadline() {
    let mut ctl = StalledController {
        core: AutoscaleCore::new("stall-test", true),
        stall_at: 60,
    };
    // 1 ms quanta: 400 ticks is ~0.4 s of wall time; the deadline we
    // assert against is 10 s of wall clock.
    let started = Instant::now();
    let mut clock = WallClock::new(Duration::from_millis(1));
    drive(&mut clock, &mut ctl, Tick(400));
    let elapsed = started.elapsed();

    assert!(
        elapsed < Duration::from_secs(10),
        "wall deadline blown: {elapsed:?}"
    );
    let stats = ctl.core.arrival_model().stats();
    assert!(
        stats.warns + stats.rollbacks + stats.fallbacks > 0,
        "watchdog never reacted to the stalled controller: {stats:?}"
    );
    // The ladder must have moved control away from (or restored) the
    // stalled model, not left it silently in charge: either we fell
    // back to the baseline, or a rollback restored a healthy model.
    let benched = ctl.core.arrival_model().is_fallback();
    assert!(
        benched || stats.rollbacks > 0,
        "stalled model left in control: {stats:?}"
    );
}

#[test]
fn calm_supervised_run_is_clean_and_serves() {
    liveserve::install_quiet_panic_hook();
    let plan = ChaosPlan::calm(150, 40.0);
    let r = run_arm(Arm::Supervised, &plan, &SeedTree::new(7)).expect("arm runs");
    assert!(r.server.clean_shutdown, "dirty shutdown: {:?}", r.server);
    assert_eq!(
        r.server.threads_joined, r.server.threads_spawned,
        "thread leak: {:?}",
        r.server
    );
    assert!(r.load.ok > 0, "nothing served: {:?}", r.load);
    assert!(
        r.load.error_rate() < 0.2,
        "calm run should be mostly clean: {:?}",
        r.load
    );
}

#[test]
fn chaos_run_sheds_and_recovers_without_leaking() {
    liveserve::install_quiet_panic_hook();
    let plan = ChaosPlan::standard(250);
    let r = run_arm(Arm::Supervised, &plan, &SeedTree::new(11)).expect("arm runs");
    assert!(r.server.clean_shutdown, "dirty shutdown: {:?}", r.server);
    assert_eq!(
        r.server.threads_joined, r.server.threads_spawned,
        "thread leak: {:?}",
        r.server
    );
    let logged = |kind: &str| r.log.iter().any(|e| e.kind == kind);
    assert!(
        logged("live:shed") && logged("live:recover"),
        "expected shed AND recover transitions, got {:?}",
        r.log.iter().map(|e| e.action()).collect::<Vec<_>>()
    );
    // The chaos plan poisons the arrival model; the supervised
    // governor must notice (warn at minimum) and keep the run alive.
    let s = r.supervision;
    assert!(
        s.warns + s.rollbacks + s.fallbacks > 0,
        "poisoned model went unnoticed: {s:?}"
    );
    assert!(r.load.ok > 0);
}
