//! Event-driven camera network at city scale (experiment F12).
//!
//! The auction world in [`crate::sim`] visits every camera every tick
//! — fine at 16 cameras, hopeless at 10 000. This module hosts the
//! F12 tracking world on [`simkernel::SimScheduler`]: a camera is
//! visited only when an object is inside its neighbourhood (a
//! dirty-input wake) or a scheduled fault falls due (a `wake_at`
//! planted when the run starts — fault plans schedule wake events,
//! they are never polled). Each object asks the cameras'
//! [`crate::grid::GridIndex`] once a tick which cameras see it, so one
//! tick costs O(active neighbourhoods), not O(cameras × objects). That
//! seer pass also adds one to a per-camera tally for every live camera
//! that sees the object; a camera visit takes its tally, so it costs
//! O(1) and enumerates no camera–object pair a second time.
//!
//! ## Dense-vs-sparse equivalence
//!
//! The legacy dense loop stays selectable via
//! [`simkernel::DriveMode::Dense`] so the sparse path can be
//! equivalence-tested. Both modes draw the *same* RNG stream (objects
//! are stepped densely in id order in both — cameras consume no
//! randomness), iterate seers in ascending camera id, and accumulate
//! floats in the same order, so simulation metrics are bit-identical;
//! only wall-clock and [`simkernel::ActivationStats`] differ. The
//! proptests in `tests/des_parity.rs` pin this down.

use crate::camera::Camera;
use crate::grid::GridIndex;
use simkernel::rng::SeedTree;
use simkernel::{ActivationStats, DriveMode, MetricSet, SimScheduler, Tick, WakeDedup};
use workloads::faults::{FaultKind, FaultPlan};
use workloads::trajectories::{Point, Wanderer};

/// Priority class for fault wakes: applied at the top of the tick,
/// before any camera visit.
pub const CLASS_FAULT: u8 = 0;
/// Priority class for dirty-input camera visits.
pub const CLASS_CAMERA: u8 = 1;

/// Configuration of an F12-scale tracking scenario.
#[derive(Debug, Clone)]
pub struct DesCamnetConfig {
    /// Cameras on a `side × side` grid (10k cameras ⇒ `side = 100`).
    pub side: usize,
    /// Field-of-view radius. [`DesCamnetConfig::at_scale`] picks
    /// `2.5 / side`, keeping the *neighbourhood population* — and so
    /// the per-object query cost — independent of network size.
    pub fov_radius: f64,
    /// Number of wandering objects.
    pub objects: usize,
    /// Object speed per tick.
    pub speed: f64,
    /// Simulation length in ticks.
    pub steps: u64,
    /// Bias objects toward scene-corner home regions (spatially
    /// uneven demand, as in the auction world).
    pub home_bias: bool,
    /// Scheduled camera faults (`CameraFail` / `CameraRecover`; other
    /// kinds are ignored by this world).
    pub faults: FaultPlan,
    /// Dense (legacy, equivalence baseline) or sparse (DES) driving.
    pub drive: DriveMode,
}

impl DesCamnetConfig {
    /// A scenario with `side × side` cameras and scale-free FOV.
    #[must_use]
    pub fn at_scale(side: usize, objects: usize, steps: u64) -> Self {
        Self {
            side,
            fov_radius: 2.5 / side as f64,
            objects,
            speed: 0.004,
            steps,
            home_bias: false,
            faults: FaultPlan::none(),
            drive: DriveMode::Sparse,
        }
    }
}

/// Outputs of an F12 tracking run.
#[derive(Debug, Clone)]
pub struct DesCamnetResult {
    /// Simulation metrics — bit-identical across [`DriveMode`]s:
    ///
    /// * `track_quality` — mean best-seer quality per object-tick;
    /// * `untracked_ratio` — object-ticks with no live seer;
    /// * `detections_per_object_tick` — mean live seers per object-tick;
    /// * `handovers` — best-seer ownership changes;
    /// * `camera_downtime_ticks` — Σ over ticks of dead cameras;
    /// * `utility` — `track_quality − 0.5 × untracked_ratio`.
    pub metrics: MetricSet,
    /// Activation accounting (differs across modes by design).
    pub perf: ActivationStats,
}

/// Runs an F12 tracking scenario (see [`DesCamnetResult`] for metric
/// keys).
///
/// # Panics
///
/// Panics if the configuration has fewer than one camera.
#[must_use]
pub fn run_des_camnet(cfg: &DesCamnetConfig, seeds: &SeedTree) -> DesCamnetResult {
    let n = cfg.side * cfg.side;
    assert!(n >= 1, "need at least one camera");
    let sparse = cfg.drive == DriveMode::Sparse;
    let cameras: Vec<Camera> = (0..n)
        .map(|i| {
            let x = (i % cfg.side) as f64 / cfg.side as f64 + 0.5 / cfg.side as f64;
            let y = (i / cfg.side) as f64 / cfg.side as f64 + 0.5 / cfg.side as f64;
            Camera::new(i, Point::new(x, y), cfg.fov_radius, n)
        })
        .collect();
    // The camera layout is static: build its index once.
    let camera_grid = GridIndex::build(
        &cameras.iter().map(Camera::position).collect::<Vec<_>>(),
        cfg.fov_radius,
    );

    let mut obj_rng = seeds.rng("objects");
    let mut objects: Vec<Wanderer> = (0..cfg.objects)
        .map(|i| {
            let w = Wanderer::new(cfg.speed, &mut obj_rng);
            if cfg.home_bias {
                let corner = i % 4;
                let home = Point::new(
                    if corner % 2 == 0 { 0.25 } else { 0.75 },
                    if corner / 2 == 0 { 0.25 } else { 0.75 },
                );
                w.with_home(home, 0.2)
            } else {
                w
            }
        })
        .collect();
    let mut positions: Vec<Point> = objects.iter().map(Wanderer::position).collect();

    let mut alive = vec![true; n];
    let mut dead_count = 0u64;
    // Camera fault edges `(tick, camera, alive_after)` in onset order.
    // Each has a fault wake at its tick, so the tick's first fault wake
    // applies every edge due.
    let edges: Vec<(Tick, usize, bool)> = cfg
        .faults
        .events()
        .iter()
        .filter_map(|ev| match ev.kind {
            FaultKind::CameraFail { camera } if camera < n => Some((ev.at, camera, false)),
            FaultKind::CameraRecover { camera } if camera < n => Some((ev.at, camera, true)),
            _ => None,
        })
        .collect();
    let mut next_edge = 0;
    // Both modes drive faults through the scheduler: the plan plants
    // its wakes up front and is never polled per tick.
    let mut sched: SimScheduler<usize> = SimScheduler::new();
    let scheduled_faults = cfg
        .faults
        .schedule_wakes(&mut sched, CLASS_FAULT, |ev, keys| match ev.kind {
            FaultKind::CameraFail { camera } | FaultKind::CameraRecover { camera }
                if camera < n =>
            {
                keys.push(camera);
            }
            _ => {}
        });
    let mut dedup = WakeDedup::new(n);

    let mut owner: Vec<Option<usize>> = vec![None; cfg.objects];
    let mut quality_sum = 0.0f64;
    let mut untracked_ticks = 0u64;
    let mut detections = 0u64;
    let mut handovers = 0u64;
    let mut downtime_ticks = 0u64;
    let mut perf = ActivationStats {
        entity_ticks: (n as u64 + cfg.objects as u64) * cfg.steps,
        ..ActivationStats::default()
    };
    // Reused scratch: one object's seers with their distances; per
    // camera, the objects it sees this tick, taken by its visit.
    let mut seers: Vec<(usize, f64)> = Vec::with_capacity(64);
    let mut tally = vec![0u32; n];

    for t in 0..cfg.steps {
        let now = Tick(t);
        sched.advance(now);

        // 1. Fault wakes (class 0). Camera wakes from the previous
        // tick were fully drained, so everything due here is a fault
        // edge; the peek-class guard keeps this robust anyway.
        while sched
            .peek()
            .is_some_and(|(at, c)| at <= now && c == CLASS_FAULT)
        {
            if sched.pop_due(now).is_none() {
                break;
            }
            perf.wakes += 1;
            while let Some(&(_, cam, state)) = edges.get(next_edge).filter(|e| e.0 <= now) {
                next_edge += 1;
                // A dying camera loses its objects implicitly: ownership
                // is re-derived below from live seers only.
                dead_count = dead_count + u64::from(!state) - u64::from(!alive[cam]);
                alive[cam] = state;
            }
        }
        downtime_ticks += dead_count;

        // 2. Objects step densely in id order in BOTH modes — the
        // single shared RNG draw site, which is what makes the two
        // drive modes bit-identical.
        for (o, w) in objects.iter_mut().enumerate() {
            positions[o] = w.step(&mut obj_rng);
        }
        perf.visits += cfg.objects as u64;

        // 3. Per-object seer resolution, object-major, seers in
        // ascending camera id — identical iteration order either way.
        // Each camera–object distance is measured once, as
        // `camera.distance(object)` (what `Camera::sees` and
        // `Camera::quality` measure), by the grid query or the sweep.
        for (o, &pos) in positions.iter().enumerate() {
            if sparse {
                camera_grid.query_circle_into(pos, cfg.fov_radius, &mut seers);
            } else {
                seers.clear();
                seers.extend(
                    cameras
                        .iter()
                        .map(|c| (c.id(), c.position().distance(pos)))
                        .filter(|&(_, d)| d <= cfg.fov_radius),
                );
            }
            let mut best: Option<(usize, f64)> = None;
            for &(cam, d) in seers.iter().filter(|&&(cam, _)| alive[cam]) {
                detections += 1;
                tally[cam] += 1;
                let q = (1.0 - d / cfg.fov_radius).max(0.0);
                if best.is_none_or(|(_, b)| q > b) {
                    best = Some((cam, q));
                }
                // Dirty input: this camera sees an object and must be
                // visited this tick.
                if sparse && dedup.mark(cam, now) {
                    sched.wake_on_input(CLASS_CAMERA, cam);
                }
            }
            match best {
                Some((cam, q)) => {
                    quality_sum += q;
                    if owner[o].is_some_and(|prev| prev != cam) {
                        handovers += 1;
                    }
                    owner[o] = Some(cam);
                }
                None => {
                    untracked_ticks += 1;
                    owner[o] = None;
                }
            }
        }

        // 4. Camera visits. A visit takes its camera's tally — how
        // many objects it sees, counted by the seer pass above — and
        // leaves it zero for the next tick. Dense visits every camera;
        // sparse only those woken above, in drain order: the tally is
        // an integer, so visit order cannot perturb metrics, and an
        // unwoken camera's tally is provably zero.
        let mut visit = |cam: usize| {
            let load = std::mem::take(&mut tally[cam]);
            debug_assert_eq!(
                load as usize,
                positions
                    .iter()
                    .filter(|&&p| alive[cam] && cameras[cam].sees(p))
                    .count(),
                "camera {cam}'s tally must count the objects it sees"
            );
            load
        };
        if sparse {
            let shed = sched.shed_count();
            while let Some((_, class, cam)) = sched.pop_due(now) {
                debug_assert_eq!(class, CLASS_CAMERA);
                perf.wakes += 1;
                perf.visits += 1;
                let load = visit(cam);
                debug_assert!(load > 0, "woken camera must have a nearby object");
            }
            // A shed wake (release builds only) ends the drain with
            // cameras unvisited: drop their tallies so none carries
            // into the next tick.
            if sched.shed_count() > shed {
                tally.fill(0);
            }
        } else {
            for cam in 0..n {
                perf.visits += 1;
                visit(cam);
            }
        }
        debug_assert!(tally.iter().all(|&t| t == 0), "a tally outlived its tick");
    }
    perf.shed = sched.shed_count();

    let object_ticks = (cfg.steps * cfg.objects as u64).max(1) as f64;
    let mut metrics = MetricSet::new();
    let track_quality = quality_sum / object_ticks;
    let untracked_ratio = untracked_ticks as f64 / object_ticks;
    metrics.set("track_quality", track_quality);
    metrics.set("untracked_ratio", untracked_ratio);
    metrics.set(
        "detections_per_object_tick",
        detections as f64 / object_ticks,
    );
    metrics.set("handovers", handovers as f64);
    metrics.set("camera_downtime_ticks", downtime_ticks as f64);
    metrics.set("fault_wakes_scheduled", scheduled_faults as f64);
    metrics.set("utility", track_quality - 0.5 * untracked_ratio);

    DesCamnetResult { metrics, perf }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::faults::FaultEvent;

    fn run(cfg: &DesCamnetConfig, seed: u64) -> DesCamnetResult {
        run_des_camnet(cfg, &SeedTree::new(seed))
    }

    #[test]
    fn dense_and_sparse_metrics_are_bit_identical() {
        let mut cfg = DesCamnetConfig::at_scale(8, 12, 400);
        cfg.faults = FaultPlan::none()
            .and(FaultEvent::camera_fail(Tick(100), 10))
            .and(FaultEvent::camera_recover(Tick(250), 10));
        for seed in [1, 7] {
            cfg.drive = DriveMode::Dense;
            let dense = run(&cfg, seed);
            cfg.drive = DriveMode::Sparse;
            let sparse = run(&cfg, seed);
            assert_eq!(dense.metrics, sparse.metrics);
            assert!(sparse.perf.visits < dense.perf.visits);
        }
    }

    #[test]
    fn sparse_tracks_objects() {
        let r = run(&DesCamnetConfig::at_scale(20, 32, 600), 3);
        let q = r.metrics.get("track_quality").unwrap();
        assert!(q > 0.1, "objects should be tracked: {q}");
        assert!(r.metrics.get("untracked_ratio").unwrap() < 0.9);
        assert_eq!(r.perf.shed, 0);
    }

    #[test]
    fn sparse_visit_count_scales_with_objects_not_cameras() {
        let small = run(&DesCamnetConfig::at_scale(10, 16, 200), 5);
        let big = run(&DesCamnetConfig::at_scale(40, 16, 200), 5);
        // 16× the cameras, same objects: sparse visits stay in the
        // same ballpark instead of growing 16×.
        assert!(
            (big.perf.visits as f64) < 4.0 * small.perf.visits as f64,
            "sparse visits must not scale with camera count: {} vs {}",
            big.perf.visits,
            small.perf.visits
        );
        assert!(big.perf.entity_ticks > 10 * small.perf.entity_ticks);
    }

    #[test]
    fn pending_fault_fires_even_with_no_objects_near() {
        // Zero objects: no camera is ever input-woken, so only the
        // fault wakes can reach the corner camera. Sparse activation
        // must still apply the fail/recover edges on time.
        let mut cfg = DesCamnetConfig::at_scale(6, 0, 300);
        cfg.faults = FaultPlan::none()
            .and(FaultEvent::camera_fail(Tick(50), 0))
            .and(FaultEvent::camera_recover(Tick(150), 0));
        for drive in [DriveMode::Dense, DriveMode::Sparse] {
            cfg.drive = drive;
            let r = run(&cfg, 11);
            assert_eq!(
                r.metrics.get("camera_downtime_ticks"),
                Some(100.0),
                "{drive:?} must apply the corner camera's fault edges"
            );
            assert_eq!(r.metrics.get("fault_wakes_scheduled"), Some(2.0));
        }
    }

    /// One seeded sparse world with faults, run twice and pinned: a
    /// change in which cameras are woken or visited moves `perf`, and
    /// a change in what they see moves the metrics.
    #[test]
    fn deterministic_per_seed() {
        let mut cfg = DesCamnetConfig::at_scale(24, 30, 400);
        cfg.home_bias = true;
        cfg.faults = FaultPlan::none()
            .and(FaultEvent::camera_fail(Tick(100), 150))
            .and(FaultEvent::camera_fail(Tick(200), 450))
            .and(FaultEvent::camera_recover(Tick(300), 150));
        let mut metrics = MetricSet::new();
        for (key, value) in [
            ("camera_downtime_ticks", 400.0),
            ("detections_per_object_tick", 19.38275),
            ("fault_wakes_scheduled", 3.0),
            ("handovers", 1436.0),
            ("track_quality", 0.847875134143064),
            ("untracked_ratio", 0.0),
            ("utility", 0.847875134143064),
        ] {
            metrics.set(key, value);
        }
        let (visits, wakes, entity_ticks) = (146_872, 134_875, 242_400);
        let perf = ActivationStats {
            visits,
            wakes,
            entity_ticks,
            shed: 0,
        };
        for r in [run(&cfg, 2024), run(&cfg, 2024)] {
            assert_eq!(r.metrics, metrics);
            assert_eq!(r.perf, perf);
        }
    }
}
