//! The composed smart-city run loop: cameras → CPN → zoned multicore
//! backend, coordinated over one command plane, under one
//! [`workloads::FaultCampaign`].
//!
//! Detections cross the grid on the [`cpn::net`] packet plane, as in
//! `cpn::sim`; the city's delivery hook bounces them at a dead gateway.
//!
//! Cascade semantics (the headline F9 scenario): a `ZoneOutage` kills
//! a zone's backend machines *and* silences its zone agent. A naive
//! stack keeps streaming detections at the dead zone's gateway, where
//! they are rejected after consuming path bandwidth — the network
//! congests, queues upstream fill, and camera traffic for *live*
//! zones starves. The self-aware stack climbs the degradation ladder
//! instead: the controller notices the agent's silence through comms
//! staleness and re-homes the zone's detections; believed gateway
//! pressure sheds camera quality; zone agents throttle admission
//! before their backlog breaches the SLA.

use crate::world::{CityConfig, CityOrder, ZoneReport};
use camnet::Camera;
use cpn::graph::Graph;
use cpn::net::{Arrival, Env, Net, Packet, Policy, BANDWIDTH};
use cpn::routing::Routing;
use multicore::{Core, CoreSpec};
use rand::Rng as _;
use selfaware::comms::{CommandPlane, CommsStats, Issue, Reissue};
use selfaware::explain::{Explanation, ExplanationLog};
use selfaware::goals::{Direction, Goal, Objective};
use selfaware::health::SensorHealth;
use selfaware::pressure::{HysteresisGate, HysteresisGateConfig};
use selfaware::replay::InterventionClass;
use simkernel::obs;
use simkernel::rng::SeedTree;
use simkernel::{MetricSet, Tick};
use std::collections::VecDeque;
use workloads::faults::FaultKind;
use workloads::rates::{DiurnalRate, RateFn};
use workloads::tasks::{Task, TaskClass};
use workloads::trajectories::{Point, Wanderer};

/// The city's packet plane: hop logs of at most 48 entries and 60-packet
/// link queues. Delivery reinforcement stops at the last queue a packet
/// entered, so the final hop into a gateway is never reinforced; logging
/// the gateway too moves F9 and F10 (DESIGN.md, "Packet plane").
const PLANE: Policy = Policy {
    ttl: 48,
    queue_cap: 60,
    log_destination: false,
};
/// Believed gateway pressure at which the controller sheds camera
/// rate (level 1) and additionally resolution (level 2).
const SHED1: u64 = 18;
const SHED2: u64 = 40;
/// Zone-agent admission throttle watermarks (backend backlog).
const THR_HI: u64 = 14;
const THR_LO: u64 = 6;
/// Hard backend buffer: a zone never queues more than this.
const ADMIT_CAP: u64 = 24;
/// Controller freshness below which a zone is believed unreachable.
const REHOME_FRESH: f64 = 0.5;
/// Consecutive failed one-shot control-plane probes required before a
/// silent zone may be declared dark (re-home corroboration, link 1).
const PROBE_CONFIRM: u64 = 3;
/// Data-plane dark evidence — an EWMA of packets bounced by the
/// zone's gateway — required to corroborate a re-home (link 2). A
/// partitioned-but-alive zone keeps consuming its packets, so pure
/// message loss never accumulates bounce evidence; only a backend
/// with nobody home does.
const DARK_EVIDENCE_MIN: f64 = 1.5;
/// Per-tick decay of the bounce-evidence EWMA.
const DARK_DECAY: f64 = 0.8;
/// The controller re-sends each zone agent's throttle every 8 ticks,
/// zone `z` at the ticks `t % 8 == z % 8`, under either comms policy.
const REISSUE: Reissue<ZoneReport, CityOrder> = Reissue::Periodic { period: 8 };
/// Slope weighting for the pressure-proportional throttle band: one
/// believed-backlog unit per tick of slope tilts the engage/release
/// thresholds by this many units (clamped to `THROTTLE_MAX_TILT`).
const THROTTLE_SLOPE_GAIN: f64 = 2.0;
const THROTTLE_SLOPE_ALPHA: f64 = 0.3;
const THROTTLE_MAX_TILT: f64 = 3.5;

/// Result of one composed run.
#[derive(Debug, Clone)]
pub struct CityResult {
    /// Scalar metrics (see [`run_city`] docs for keys).
    pub metrics: MetricSet,
    /// Command-plane comms statistics, including the per-link expiry
    /// and retry-budget-exhaustion maps for the degradation report.
    pub comms_stats: CommsStats,
    /// Explanation log of command-plane and supervision decisions,
    /// with the ledger of every intervention fired
    /// ([`ExplanationLog::fires`]).
    pub log: ExplanationLog,
}

/// The city's multi-objective goal: get detections processed *on
/// time*, keep reported qualities honest, keep the square covered.
///
/// The service objective is `on_time_ratio` — detections serviced
/// within the SLA deadline over detections emitted — so a lost
/// detection and a late one cost the same. (Scoring `violation_rate`
/// over *serviced* work instead would reward an arm for dropping
/// traffic it cannot serve on time.)
#[must_use]
pub fn city_goal() -> Goal {
    Goal::new("city-service-vs-fidelity")
        .objective(Objective::new(
            "on_time_ratio",
            Direction::Maximize,
            1.0,
            2.5,
        ))
        .objective(Objective::new(
            "tracking_error",
            Direction::Minimize,
            0.25,
            1.0,
        ))
        .objective(Objective::new("coverage", Direction::Maximize, 1.0, 0.5))
}

/// A detection in flight over the CPN.
#[derive(Debug, Clone, Copy)]
struct Detection {
    /// Destination zone (after any re-homing at emission).
    zone: usize,
    /// Reported quality (post sensor fault / health substitution /
    /// shed resolution).
    quality: f64,
    /// Ground-truth quality at the owning camera.
    q_true: f64,
}

/// Runs one composed city scenario. Metric keys:
///
/// * `detections`, `serviced`, `service_ratio` — end-to-end outcome;
/// * `coverage` — emitted detections / active wanderer-ticks (camera
///   starvation shows up here);
/// * `violation_rate`, `mean_latency` — SLA health of serviced
///   detections (camera shutter → backend completion);
/// * `tracking_quality`, `tracking_error` — mean delivered quality
///   and mean |reported − true| fidelity loss;
/// * `net_dropped`, `rejected`, `tasks_lost` — where detections die
///   (network, admission, backend outage);
/// * `rehomed`, `shed_ticks`, `throttled_ticks` — ladder activity;
/// * `comms_sent`, `comms_retries`, `comms_expired`,
///   `comms_budget_exhausted`, `comms_partition_hits`,
///   `comms_dead_zone_expired` — command-plane health;
/// * `model_rollbacks`, `model_fallbacks`, `quarantines` —
///   supervision and sensor-health interventions;
/// * `energy` — backend energy;
/// * `utility` — [`city_goal`] scalarisation.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_city(cfg: &CityConfig, seeds: &SeedTree) -> CityResult {
    assert!(cfg.zones >= 2, "need at least two zones to re-home");
    assert!(cfg.rows >= 2 && cfg.cols >= cfg.zones, "grid too small");
    let mut graph = Graph::grid(cfg.rows, cfg.cols);
    let n = graph.len();
    // Meta-self-awareness over the detection-transport router, as in
    // `cpn::sim`: the supervisor owns the learned router, scores its
    // route-delay estimates against realized transit delays, and
    // benches it onto a periodic table when it misbehaves.
    let mut routing = Routing::new(cfg.policy.router, &graph, "city-routing");

    let mut wander_rng = seeds.rng("wander");
    let mut work_rng = seeds.rng("work");
    let mut sensor_rng = seeds.rng("sensor");
    let mut route_rng = seeds.rng("route");
    // The run's one log carries the campaign's intervention mask to
    // every site that reads it: health, supervisor, comms and ladder.
    let mut log = ExplanationLog::new(1024).with_mask(cfg.campaign.mask());

    // Cameras in two rows over the square, overlapping fields of view.
    let cam_cols = cfg.cameras.div_ceil(2);
    let cameras: Vec<Camera> = (0..cfg.cameras)
        .map(|c| {
            let gx = c % cam_cols;
            let gy = c / cam_cols;
            let pos = Point::new(
                (gx as f64 + 0.5) / cam_cols as f64,
                if gy == 0 { 0.28 } else { 0.72 },
            );
            Camera::new(c, pos, 0.4, cfg.cameras)
        })
        .collect();
    let ingress: Vec<usize> = cameras
        .iter()
        .map(|c| cfg.ingress(c.position().x))
        .collect();
    // Each camera's route to its home zone's gateway: the routes whose
    // delay estimates the router's supervisor scores.
    let home_routes: Vec<(usize, usize)> = cameras
        .iter()
        .zip(&ingress)
        .map(|(cam, &src)| (src, cfg.gateway(cfg.zone_of(cam.position().x))))
        .collect();
    let camera_names: Vec<String> = (0..cfg.cameras).map(|c| format!("cam{c}")).collect();
    let mut camera_down = vec![false; cfg.cameras];
    let mut held = vec![0.5f64; cfg.cameras];
    let mut cam_degraded = vec![false; cfg.cameras];
    let mut health = cfg.policy.health.then(SensorHealth::default);

    // Wanderer population: diurnal subset of the base plus the flash
    // crowd. All of them step every tick so the trajectory stream is
    // identical whatever subset is active. The crowd gathers in the
    // middle zone — the F9 headline points the surge at the zone the
    // cascade campaign takes down.
    let total_pop = cfg.wanderers + cfg.crowd_extra;
    let crowd_home = Point::new(0.5, 0.5);
    let mut wanderers: Vec<Wanderer> = (0..total_pop)
        .map(|i| {
            let w = Wanderer::new(0.02, &mut wander_rng);
            if i >= cfg.wanderers {
                w.with_home(crowd_home, 0.15)
            } else {
                w
            }
        })
        .collect();
    let mut diurnal = DiurnalRate::new(
        cfg.wanderers as f64 * 0.65,
        cfg.wanderers as f64 * 0.35,
        (cfg.steps / 2).max(1) as f64,
    );

    // Zone backends: big + little cores per zone.
    let mut cores: Vec<Vec<Core>> = (0..cfg.zones)
        .map(|_| {
            (0..cfg.cores_per_zone)
                .map(|k| {
                    Core::new(if k == 0 {
                        CoreSpec::big()
                    } else {
                        CoreSpec::little()
                    })
                })
                .collect()
        })
        .collect();
    let mut machine_down = vec![false; cfg.zones * cfg.cores_per_zone];
    let mut zone_dead = vec![false; cfg.zones];
    let mut throttled = vec![false; cfg.zones];

    // Each hop log has room for a shortest route across the grid, so
    // a packet that takes one never regrows its log.
    let mut net: Net<Detection> = Net::new(&graph, PLANE, cfg.rows + cfg.cols - 1);

    // Command plane: agents 0..zones, controller, camera head.
    let ctrl = cfg.zones;
    let cam_head = cfg.zones + 1;
    // Every zone starts unthrottled, so a first "off" is no change.
    let mut plane = CommandPlane::new(
        cfg.policy.comms,
        cfg.campaign.channel().clone(),
        vec![ZoneReport::default(); cfg.zones],
    )
    .with_orders(REISSUE, Some(CityOrder::Throttle { on: false }));
    let mut sent_directive: Option<(u8, Vec<Option<u8>>)> = None;
    let mut head_shed: u8 = 0;
    let mut head_rehome: Vec<Option<u8>> = vec![None; cfg.zones];

    // In-flight detections' qualities, by task id.
    let mut task_quality = TaskQualities::default();

    // Counters.
    let (mut detections, mut serviced, mut violations) = (0u64, 0u64, 0u64);
    let (mut net_dropped, mut rejected, mut tasks_lost) = (0u64, 0u64, 0u64);
    let (mut rehomed, mut shed_ticks, mut throttled_ticks) = (0u64, 0u64, 0u64);
    let (mut active_ticks, mut quarantine_subs) = (0u64, 0u64);
    let (mut lat_sum, mut qual_sum, mut err_sum) = (0.0f64, 0.0f64, 0.0f64);
    let mut injected_net = 0u64;
    let mut delivered_net = 0u64;

    // Re-home corroboration and pressure-proportional throttle state.
    let mut bounce_now = vec![0u64; cfg.zones];
    let mut dark_evidence = vec![0.0f64; cfg.zones];
    let mut probe_fail_streak = vec![0u64; cfg.zones];
    let mut rehome_latched = vec![false; cfg.zones];
    let mut throttle_gates: Vec<HysteresisGate> = (0..cfg.zones)
        .map(|_| {
            HysteresisGate::new(HysteresisGateConfig {
                engage: THR_HI as f64,
                release: THR_LO as f64,
                slope_gain: THROTTLE_SLOPE_GAIN,
                slope_alpha: THROTTLE_SLOPE_ALPHA,
                max_tilt: THROTTLE_MAX_TILT,
            })
        })
        .collect();

    let faults = cfg.campaign.faults().clone();

    // Per-tick buffers, reused every tick.
    let mut positions: Vec<Point> = Vec::with_capacity(total_pop);
    let mut congestion: Vec<f64> = Vec::with_capacity(n);
    let mut owned: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cfg.cameras];
    let mut cam_readings: Vec<Option<(f64, Option<f64>)>> = vec![None; cfg.cameras];
    let mut consensus: Vec<Option<f64>> = Vec::with_capacity(cfg.cameras);
    let mut completed: Vec<(Task, u64)> = Vec::new();
    let mut rehome: Vec<Option<u8>> = vec![None; cfg.zones];

    for t in 0..cfg.steps {
        let now = Tick(t);
        let sense_span = obs::span("city:sense");

        // --- Faults: machines, cameras, links, models. -------------
        for z in 0..cfg.zones {
            let mut all_down = true;
            for m in cfg.machine_range(z) {
                let down = faults.zone_down_at(m, now);
                let k = m - z * cfg.cores_per_zone;
                if down && !machine_down[m] {
                    let orphans = cores[z][k].fail();
                    for task in &orphans {
                        task_quality.remove(task.id);
                        tasks_lost += 1;
                    }
                } else if !down && machine_down[m] {
                    cores[z][k].recover();
                }
                machine_down[m] = down;
                all_down &= down;
            }
            zone_dead[z] = all_down;
            plane.set_dead(z, all_down);
        }
        for ev in faults.events_at(now) {
            match ev.kind {
                FaultKind::CameraFail { camera } if camera < cfg.cameras => {
                    camera_down[camera] = true;
                }
                FaultKind::CameraRecover { camera } if camera < cfg.cameras => {
                    camera_down[camera] = false;
                }
                FaultKind::LinkCut { a, b } => {
                    graph.remove_edge(a, b);
                }
                FaultKind::LinkRestore { a, b } => {
                    graph.restore_edge(a, b);
                }
                FaultKind::ModelCorruption { kind, .. } => kind.apply(routing.slot_mut(), now),
                _ => {}
            }
        }
        let frozen = routing.slot().frozen(now);

        // --- Population: diurnal activity plus the flash crowd. ----
        let in_crowd = t >= cfg.crowd_window.0 && t < cfg.crowd_window.1;
        let n_active = (diurnal.rate(now).round() as usize).clamp(1, cfg.wanderers);
        positions.clear();
        positions.extend(wanderers.iter_mut().map(|w| w.step(&mut wander_rng)));
        let active = |i: usize| i < n_active || (in_crowd && i >= cfg.wanderers);
        drop(sense_span);

        // --- Routing decisions from live local queue sensing. ------
        let decide_span = obs::span("city:decide");
        let qlen = |u: usize, v: usize| net.queue_len(&graph, u, v);
        if !frozen {
            routing.model_mut().maintain(&graph, now, qlen);
        }
        routing.maintain_baseline(&graph, now, qlen);
        let cutoff = PLANE.queue_cap / 2;
        congestion.clear();
        congestion.extend(
            (0..n)
                .map(|u| net.queue_lens(u).max().unwrap_or(0))
                .map(|c| if c >= cutoff { c as f64 } else { 0.0 }),
        );
        routing.model_mut().set_congestion(&congestion);
        drop(decide_span);

        // --- Cameras: own, corrupt, heal, shed, emit. --------------
        let act_span = obs::span("city:act");
        if head_shed > 0 {
            shed_ticks += 1;
        }
        let shutter = |c: usize| match head_shed {
            0 => true,
            1 => (t + c as u64).is_multiple_of(2),
            _ => (t + c as u64).is_multiple_of(4),
        };
        let qmul = if head_shed >= 2 { 0.8 } else { 1.0 };
        // Ownership: each active wanderer is owned by the best-quality
        // live, shuttered camera that sees it. One distance per pair
        // gives both `Camera::sees` and `Camera::quality`, computed as
        // they compute them.
        owned.iter_mut().for_each(Vec::clear);
        for (i, &pos) in positions.iter().enumerate() {
            if !active(i) {
                continue;
            }
            active_ticks += 1;
            let mut best: Option<(usize, f64)> = None;
            for (c, cam) in cameras.iter().enumerate() {
                if camera_down[c] || !shutter(c) {
                    continue;
                }
                let (d, fov) = (cam.position().distance(pos), cam.fov_radius());
                let sees = d <= fov;
                if !sees {
                    continue;
                }
                let q = (1.0 - d / fov).max(0.0);
                if best.is_none_or(|(_, b)| q > b) {
                    best = Some((c, q));
                }
            }
            if let Some((c, q)) = best {
                owned[c].push((i, q));
            }
        }
        let mut tick_transit_sum = 0.0f64;
        let mut tick_transit_n = 0u32;
        // Pass 1 — per-camera mean quality readings, with any sensor
        // fault applied. `held` is the last clean mean (StuckAt holds
        // it; it also stands in when a naive stack gets a dropout).
        cam_readings.fill(None);
        for (c, dets) in owned.iter().enumerate() {
            if dets.is_empty() {
                continue;
            }
            let raw_mean = dets.iter().map(|&(_, q)| q).sum::<f64>() / dets.len() as f64;
            let corrupted = match faults.sensor_fault_at(c, now) {
                None => {
                    held[c] = raw_mean;
                    Some(raw_mean)
                }
                Some(kind) => kind.corrupt(raw_mean, held[c], &mut sensor_rng),
            };
            cam_readings[c] = Some((raw_mean, corrupted));
        }
        // Cluster consensus over cameras trusted as of last tick —
        // the collective reference a quarantined camera is checked
        // against and substituted with (a frozen per-camera model
        // drifts over a long quarantine; the cluster does not).
        let (cons_sum, cons_n) = (0..cfg.cameras)
            .filter(|&c| !cam_degraded[c])
            .filter_map(|c| cam_readings[c].and_then(|(_, cor)| cor.map(|v| (c, v))))
            .fold((0.0f64, 0u32), |(s, k), (_, v)| (s + v, k + 1));
        consensus.clear();
        consensus.extend((0..cfg.cameras).map(|c| {
            let own = (!cam_degraded[c])
                .then(|| cam_readings[c].and_then(|(_, cor)| cor))
                .flatten();
            let (s, k) = match own {
                Some(v) => (cons_sum - v, cons_n - 1),
                None => (cons_sum, cons_n),
            };
            (k > 0).then(|| s / f64::from(k))
        }));
        let mut env = Env {
            graph: &graph,
            routing: &mut routing,
            rng: &mut route_rng,
            frozen,
            now,
        };
        // Pass 2 — health monitoring and detection emission. The
        // camera-level mean is the monitored signal; a quarantined or
        // dropped-out camera's detections carry the consensus (else
        // the model substitute) instead of the raw reading.
        for (c, dets) in owned.iter().enumerate() {
            let Some((raw_mean, corrupted)) = cam_readings[c] else {
                continue;
            };
            let used_mean = match &mut health {
                Some(h) => {
                    let reference = consensus[c];
                    let reading = h.observe_with_reference(
                        &camera_names[c],
                        corrupted,
                        reference,
                        now,
                        &mut log,
                    );
                    cam_degraded[c] = reading.degraded;
                    if reading.substituted {
                        quarantine_subs += 1;
                        reference.unwrap_or(reading.value).clamp(0.0, 1.0)
                    } else {
                        reading.value.clamp(0.0, 1.0)
                    }
                }
                None => corrupted.unwrap_or(held[c]),
            };
            for &(i, q_true) in dets {
                detections += 1;
                let q_used = ((q_true + (used_mean - raw_mean)) * qmul).clamp(0.0, 1.0);
                let q_true_shed = q_true * qmul;
                let mut zone = cfg.zone_of(positions[i].x);
                if let Some(to) = head_rehome[zone] {
                    zone = (to as usize).min(cfg.zones - 1);
                    rehomed += 1;
                }
                let dst = cfg.gateway(zone);
                let src = ingress[c];
                injected_net += 1;
                if src == dst {
                    // Camera co-located with the gateway: no transit.
                    delivered_net += 1;
                    admit(
                        cfg,
                        &mut cores,
                        &zone_dead,
                        &throttled,
                        zone,
                        q_used,
                        q_true_shed,
                        now,
                        &mut work_rng,
                        &mut task_quality,
                        &mut rejected,
                        i,
                    );
                    continue;
                }
                // While the model is benched its fallback table routes:
                // no smart packets, and no draw from `route_rng`.
                let detection = Detection {
                    zone,
                    quality: q_used,
                    q_true: q_true_shed,
                };
                net.inject(&mut env, src, dst, detection, |_| net_dropped += 1);
            }
        }

        // --- CPN: move packets, deliver at gateways. ---------------
        let arrive = |pkt: &Packet<Detection>| {
            let d = pkt.payload;
            if zone_dead[d.zone] {
                // Nobody home: a dead backend cannot consume the
                // packet, so it bounces back into the mesh and
                // wanders until its TTL burns out. Undeliverable
                // traffic clogging the links around a dead gateway is
                // the heart of the F9 cascade — the aware stack
                // avoids creating it by re-homing at emission. The
                // bounce itself is observable mesh telemetry (like the
                // queue lengths the router senses) and feeds the
                // controller's dark-zone evidence.
                bounce_now[d.zone] += 1;
                return Arrival::Bounce;
            }
            delivered_net += 1;
            tick_transit_sum += now.value().saturating_sub(pkt.created.value()) as f64;
            tick_transit_n += 1;
            // The class salt is the hops the packet had left.
            admit(
                cfg,
                &mut cores,
                &zone_dead,
                &throttled,
                d.zone,
                d.quality,
                d.q_true,
                pkt.created,
                &mut work_rng,
                &mut task_quality,
                &mut rejected,
                PLANE.ttl + 1 - pkt.hop_log.len(),
            );
            Arrival::Deliver
        };
        net.step(&mut env, |_, _| BANDWIDTH, arrive, |_| net_dropped += 1);

        // --- Backend: service detections. --------------------------
        completed.clear();
        for core in cores.iter_mut().flatten() {
            core.step(now, &mut completed);
        }
        for &(ref task, latency) in &completed {
            let Some((q_used, q_true)) = task_quality.remove(task.id) else {
                continue;
            };
            serviced += 1;
            lat_sum += latency as f64;
            qual_sum += q_true;
            err_sum += (q_used - q_true).abs();
            if latency > cfg.deadline {
                violations += 1;
            }
        }

        // --- Command plane: reports, directives, delivery. ---------
        let comms_span = obs::span("city:comms");
        for z in 0..cfg.zones {
            if throttled[z] && !zone_dead[z] {
                throttled_ticks += 1;
            }
            let backlog: u64 = cores[z].iter().map(|c| c.queue_len() as u64).sum();
            // Only the gateway's neighbours queue packets for it.
            let gw = cfg.gateway(z);
            let gateway_pressure: u64 = graph
                .neighbours(gw)
                .iter()
                .map(|&u| net.queue_len(&graph, u, gw) as u64)
                .sum();
            let report = ZoneReport {
                backlog,
                gateway_pressure,
            };
            plane.send_report(z, report, now, &mut log);
        }
        // Decay the per-zone dark evidence with this tick's bounces.
        for z in 0..cfg.zones {
            dark_evidence[z] = DARK_DECAY * dark_evidence[z] + bounce_now[z] as f64;
            bounce_now[z] = 0;
        }
        if cfg.policy.ladder {
            let pressure_total: u64 = plane.reports().iter().map(|r| r.gateway_pressure).sum();
            // Counterfactual masking forces a rung off *after* the
            // believed state is computed, so the suppressed rung's
            // inputs (and every RNG stream) evolve exactly as in the
            // factual run.
            let shed = if log.mask().suppresses(InterventionClass::ComposeShed) {
                0
            } else if pressure_total >= SHED2 {
                2
            } else {
                u8::from(pressure_total >= SHED1)
            };
            if shed > 0 {
                log.fired(InterventionClass::ComposeShed);
            }
            let aware = !cfg.policy.comms.is_naive();
            // Re-homing needs corroboration beyond command-plane
            // staleness (F10 measured −0.041 on-time when loss alone
            // tripped the freshness gate with every zone alive): a
            // streak of failed one-shot probes *and* data-plane
            // evidence that the zone's gateway is bouncing packets.
            // Once latched, a re-home holds until the agent is heard
            // from again, so decaying bounce telemetry (traffic has
            // been re-homed away) cannot flap the directive.
            rehome.fill(None);
            if aware && !log.mask().suppresses(InterventionClass::ComposeRehome) {
                for z in 0..cfg.zones {
                    if plane.freshness(z, now) >= REHOME_FRESH {
                        rehome_latched[z] = false;
                        probe_fail_streak[z] = 0;
                        continue;
                    }
                    // A stale zone is probed or re-homed: both change
                    // the run, where the masked ladder does nothing.
                    log.fired(InterventionClass::ComposeRehome);
                    if !rehome_latched[z] {
                        if plane.probe(z, now, &mut log) {
                            probe_fail_streak[z] = 0;
                        } else {
                            probe_fail_streak[z] += 1;
                        }
                        let dark = probe_fail_streak[z] >= PROBE_CONFIRM
                            && dark_evidence[z] >= DARK_EVIDENCE_MIN;
                        if !dark {
                            continue;
                        }
                        log.record(
                            Explanation::new(now, "ladder:zone-dark")
                                .because("zone", z as f64)
                                .because("probe_failures", probe_fail_streak[z] as f64)
                                .because("bounce_evidence", dark_evidence[z]),
                        );
                        rehome_latched[z] = true;
                    }
                    // Nearest zone the controller still hears from.
                    rehome[z] = (0..cfg.zones)
                        .filter(|&o| o != z && plane.freshness(o, now) >= REHOME_FRESH)
                        .min_by_key(|&o| (z.abs_diff(o), o))
                        .map(|o| o as u8);
                }
            }
            if sent_directive
                .as_ref()
                .is_none_or(|(s, r)| (*s, r) != (shed, &rehome))
            {
                // Anchor the ladder transitions so counterfactual
                // deltas can point at the tick a rung engaged.
                let prev = sent_directive.as_ref();
                if prev.map_or(shed > 0, |(s, _)| *s != shed) {
                    log.record(
                        Explanation::new(now, "ladder:shed")
                            .anchoring(InterventionClass::ComposeShed)
                            .because("level", f64::from(shed))
                            .because("pressure", pressure_total as f64),
                    );
                }
                if prev.map_or(rehome.iter().any(Option::is_some), |(_, r)| *r != rehome) {
                    log.record(
                        Explanation::new(now, "ladder:rehome")
                            .anchoring(InterventionClass::ComposeRehome)
                            .because("zones", rehome.iter().flatten().count() as f64),
                    );
                }
                let order = CityOrder::Directive {
                    shed,
                    rehome: rehome.clone(),
                };
                plane.send_order(cam_head, order, now, &mut log);
                sent_directive = Some((shed, rehome.clone()));
            }
            // Admission throttling is controller-commanded from the
            // *believed* backlog through a pressure-proportional
            // hysteresis band (the F10 fix for throttle's small
            // negative deltas: a fast-rising backlog engages before
            // the static watermark, a collapsing one releases inside
            // it), refreshed periodically so command traffic keeps
            // probing every zone — including one that has gone dark,
            // where the retries burn the reliable plane's budget and
            // show up in the per-link expiry counters.
            for (z, gate) in throttle_gates.iter_mut().enumerate() {
                // The gate observes the believed signal every tick —
                // masked runs included — so its slope state never
                // depends on whether the intervention is suppressed.
                let believed = plane.reports()[z].backlog;
                let gate_on = gate.observe(believed as f64);
                let want = !log.mask().suppresses(InterventionClass::ComposeThrottle) && gate_on;
                if want {
                    log.fired(InterventionClass::ComposeThrottle);
                }
                // The periodic re-issue is masked by `CommsReissue`,
                // which leaves only change-triggered sends.
                let order = CityOrder::Throttle { on: want };
                plane.command(z, order, now, &mut log, |issue, _, log| match issue {
                    Issue::Change => log.record(
                        Explanation::new(now, "ladder:throttle")
                            .anchoring(InterventionClass::ComposeThrottle)
                            .because("zone", z as f64)
                            .because("on", f64::from(u8::from(want)))
                            .because("believed_backlog", believed as f64)
                            .because("backlog_slope", gate.slope()),
                    ),
                    // Anchor only the re-issues that keep an *active*
                    // throttle alive — the consequential ones — so the
                    // shared ring is not flooded in benign stretches.
                    Issue::Reissue if want => log.record(
                        Explanation::new(now, "comms:reissue")
                            .anchoring(InterventionClass::CommsReissue)
                            .link(ctrl, z)
                            .because("on", 1.0),
                    ),
                    Issue::Reissue => {}
                });
            }
        }
        // Every order lands where it was sent: throttles at zone
        // agents, directives at the camera head. A zone applies its
        // throttle even while dark.
        plane.step(now, &mut log, |dst, order| {
            match order {
                CityOrder::Throttle { on } => throttled[dst] = on,
                CityOrder::Directive { shed, rehome } => {
                    head_shed = shed;
                    head_rehome = rehome;
                    head_rehome.resize(cfg.zones, None);
                }
            }
            true
        });
        drop(comms_span);
        drop(act_span);

        // --- Meta-self-awareness over the router. ------------------
        let supervise_span = obs::span("city:decide");
        let tick_transit =
            (tick_transit_n > 0).then(|| tick_transit_sum / f64::from(tick_transit_n));
        routing.supervise(&graph, now, tick_transit, &home_routes, &mut log);
        drop(supervise_span);
    }

    // --- Metrics. ----------------------------------------------------
    let stats = plane.stats().clone();
    let mut metrics = MetricSet::new();
    let det_f = detections.max(1) as f64;
    let srv_f = serviced.max(1) as f64;
    metrics.set("detections", detections as f64);
    metrics.set("serviced", serviced as f64);
    metrics.set("service_ratio", serviced as f64 / det_f);
    metrics.set(
        "on_time_ratio",
        serviced.saturating_sub(violations) as f64 / det_f,
    );
    metrics.set("coverage", detections as f64 / active_ticks.max(1) as f64);
    metrics.set("violation_rate", violations as f64 / srv_f);
    metrics.set("mean_latency", lat_sum / srv_f);
    metrics.set("tracking_quality", qual_sum / srv_f);
    metrics.set("tracking_error", err_sum / srv_f);
    metrics.set("net_dropped", net_dropped as f64);
    metrics.set("rejected", rejected as f64);
    metrics.set("tasks_lost", tasks_lost as f64);
    metrics.set("rehomed", rehomed as f64);
    metrics.set("shed_ticks", shed_ticks as f64);
    metrics.set("throttled_ticks", throttled_ticks as f64);
    metrics.set("cpn_injected", injected_net as f64);
    metrics.set("cpn_delivered", delivered_net as f64);
    metrics.set(
        "cpn_delivery_ratio",
        delivered_net as f64 / injected_net.max(1) as f64,
    );
    metrics.set("comms_sent", stats.sent as f64);
    metrics.set("comms_retries", stats.retries as f64);
    metrics.set("comms_expired", stats.expired as f64);
    metrics.set("comms_budget_exhausted", stats.budget_exhausted as f64);
    metrics.set("comms_partition_hits", stats.partition_hits as f64);
    let dead_zone_expired: u64 = (0..cfg.zones)
        .map(|z| stats.link_expired(ctrl, z) + stats.link_expired(z, ctrl))
        .sum();
    metrics.set("comms_dead_zone_expired", dead_zone_expired as f64);
    let sup_stats = routing.slot().stats();
    metrics.set("model_rollbacks", f64::from(sup_stats.rollbacks));
    metrics.set("model_fallbacks", f64::from(sup_stats.fallbacks));
    metrics.set(
        "quarantines",
        health
            .as_ref()
            .map_or(0.0, |h| h.quarantine_events() as f64),
    );
    metrics.set("quarantine_substitutions", quarantine_subs as f64);
    metrics.set(
        "energy",
        cores.iter().flatten().map(Core::energy).sum::<f64>(),
    );
    let utility = city_goal().utility(|k| metrics.get(k));
    metrics.set("utility", utility);

    CityResult {
        metrics,
        comms_stats: stats,
        log,
    }
}

/// Gateway admission: a detection becomes a backend task if the zone
/// is alive, not throttled, and under its buffer cap; otherwise it is
/// rejected after having consumed its path's bandwidth — the
/// mechanism by which a dead or saturated zone congests the network.
#[allow(clippy::too_many_arguments)]
fn admit(
    cfg: &CityConfig,
    cores: &mut [Vec<Core>],
    zone_dead: &[bool],
    throttled: &[bool],
    zone: usize,
    q_used: f64,
    q_true: f64,
    created: Tick,
    work_rng: &mut simkernel::rng::Rng,
    task_quality: &mut TaskQualities,
    rejected: &mut u64,
    class_salt: usize,
) {
    let backlog: u64 = cores[zone].iter().map(|c| c.queue_len() as u64).sum();
    let open = !zone_dead[zone] && !throttled[zone] && backlog < ADMIT_CAP;
    // The work draw happens whether or not the detection is admitted,
    // so every arm at the same seed sees the same demand stream.
    let u: f64 = work_rng.gen::<f64>();
    if !open {
        *rejected += 1;
        return;
    }
    let target = cores[zone]
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_online())
        .map(|(k, c)| (k, c.backlog()))
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(k, _)| k);
    let Some(k) = target else {
        *rejected += 1;
        return;
    };
    let class = match class_salt % 3 {
        0 => TaskClass::Compute,
        1 => TaskClass::Memory,
        _ => TaskClass::Interactive,
    };
    let work = cfg.mean_work * -(u.max(1e-12)).ln();
    let id = task_quality.insert((q_used, q_true));
    cores[zone][k].enqueue(Task {
        id,
        class,
        work,
        arrived: created,
    });
}

/// In-flight detections' `(reported, true)` qualities by task id.
///
/// Ids are issued in order, so the qualities sit in a window from the
/// oldest task still in flight to the newest; a task that completes or
/// is orphaned leaves a hole until every older one has gone too. It
/// answers as a map from id to qualities would.
#[derive(Debug, Default)]
struct TaskQualities {
    /// The id of `window[0]`; the next id to issue while it is empty.
    first: u64,
    window: VecDeque<Option<(f64, f64)>>,
}

impl TaskQualities {
    /// Records a new task's qualities and returns its id, one past the
    /// last issued.
    fn insert(&mut self, qualities: (f64, f64)) -> u64 {
        self.window.push_back(Some(qualities));
        self.first + self.window.len() as u64 - 1
    }

    /// Removes and returns task `id`'s qualities; `None` if it is not in
    /// flight.
    fn remove(&mut self, id: u64) -> Option<(f64, f64)> {
        let k = usize::try_from(id.checked_sub(self.first)?).ok()?;
        let qualities = self.window.get_mut(k)?.take();
        while self.window.front().is_some_and(Option::is_none) {
            self.window.pop_front();
            self.first += 1;
        }
        qualities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::CityPolicy;
    use proptest::prelude::*;
    use simkernel::Tick;
    use std::collections::BTreeMap;
    use workloads::faults::SensorFaultKind;
    use workloads::FaultCampaign;

    fn run(policy: CityPolicy, steps: u64, seed: u64) -> CityResult {
        let seeds = SeedTree::new(seed);
        let cfg = CityConfig::standard(policy, steps, &seeds);
        run_city(&cfg, &seeds)
    }

    #[test]
    fn benign_run_services_most_detections() {
        let r = run(CityPolicy::supervised(), 800, 1);
        let m = &r.metrics;
        assert!(m.get("detections").unwrap() > 500.0, "{m:?}");
        let sr = m.get("service_ratio").unwrap();
        assert!(sr > 0.6, "benign service ratio too low: {m:?}");
        let cov = m.get("coverage").unwrap();
        assert!((0.0..=1.0).contains(&cov) && cov > 0.5, "{m:?}");
        assert!(m.get("tracking_quality").unwrap() > 0.2, "{m:?}");
        assert!(m.get("utility").is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(CityPolicy::supervised(), 500, 9);
        let b = run(CityPolicy::supervised(), 500, 9);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.comms_stats, b.comms_stats);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(CityPolicy::supervised(), 500, 1);
        let b = run(CityPolicy::supervised(), 500, 2);
        assert_ne!(a.metrics.get("serviced"), b.metrics.get("serviced"));
    }

    fn cascade_campaign(steps: u64, seeds: &SeedTree) -> FaultCampaign {
        // Zone 1's backend machines (one zone of three) go dark for
        // the middle of the run, overlapping the flash crowd; a net
        // partition on agent 1 heals *inside* the outage.
        FaultCampaign::new("cascade", seeds)
            .zone_outage(Tick(steps * 2 / 5), 3, 3, steps * 2 / 5)
            .net_partition(steps * 2 / 5 + 10, steps / 5, vec![1])
    }

    #[test]
    fn zone_outage_cascade_degrades_naive_more_than_supervised() {
        let steps = 1200;
        let arm = |policy: CityPolicy, seed: u64| {
            let seeds = SeedTree::new(seed);
            let mut cfg = CityConfig::standard(policy, steps, &seeds);
            cfg.campaign = cascade_campaign(steps, &seeds);
            run_city(&cfg, &seeds)
        };
        let mut aware_wins = 0;
        for seed in [3u64, 4, 5] {
            let sup = arm(CityPolicy::supervised(), seed);
            let naive = arm(CityPolicy::all_naive(), seed);
            if sup.metrics.get("utility") > naive.metrics.get("utility") {
                aware_wins += 1;
            }
            if seed == 3 {
                assert!(
                    sup.metrics.get("rehomed").unwrap() > 0.0,
                    "aware stack never re-homed: {:?}",
                    sup.metrics
                );
                assert_eq!(
                    naive.metrics.get("rehomed"),
                    Some(0.0),
                    "naive stack must not re-home"
                );
            }
        }
        assert!(aware_wins >= 2, "supervised won only {aware_wins}/3 seeds");
    }

    #[test]
    fn dead_zone_agent_burns_ctrl_link_budget() {
        let steps = 1000;
        let seeds = SeedTree::new(11);
        let mut cfg = CityConfig::standard(CityPolicy::supervised(), steps, &seeds);
        cfg.campaign = FaultCampaign::new("outage-only", &seeds).zone_outage(
            Tick(steps / 4),
            cfg.cores_per_zone,
            cfg.cores_per_zone,
            steps / 2,
        );
        let r = run_city(&cfg, &seeds);
        assert!(
            r.metrics.get("comms_dead_zone_expired").unwrap() > 0.0,
            "outage must expire command-plane traffic on the dead links: {:?}",
            r.metrics
        );
        assert!(
            r.comms_stats.link_expired(cfg.zones, 1) > 0,
            "per-link attribution missing: {:?}",
            r.comms_stats
        );
    }

    #[test]
    fn sensor_health_cuts_tracking_error_under_bias() {
        let steps = 1000;
        let arm = |health: bool| {
            let seeds = SeedTree::new(21);
            let mut policy = CityPolicy::supervised();
            policy.health = health;
            let mut cfg = CityConfig::standard(policy, steps, &seeds);
            cfg.campaign =
                FaultCampaign::new("bias", &seeds).fault(workloads::FaultEvent::sensor_fault(
                    Tick(steps / 4),
                    2,
                    SensorFaultKind::Bias { offset: 0.9 },
                    steps / 2,
                ));
            run_city(&cfg, &seeds)
        };
        let healed = arm(true);
        let raw = arm(false);
        assert!(
            healed.metrics.get("tracking_error").unwrap()
                < raw.metrics.get("tracking_error").unwrap(),
            "health layer must cut fidelity error: {:?} vs {:?}",
            healed.metrics,
            raw.metrics
        );
    }

    proptest! {
        // The window answers as the map it replaced. Ids are issued in
        // order; tasks complete one at a time and are orphaned a few at
        // a time, in any order, some twice; and ids never issued are
        // asked for too.
        #[test]
        fn task_quality_window_answers_like_a_map(
            ops in proptest::collection::vec((0u8..5, any::<u64>(), -1.0f64..1.0), 0..400),
        ) {
            let mut window = TaskQualities::default();
            let mut map = BTreeMap::new();
            let mut next = 0u64;
            for (op, pick, q) in ops {
                match op {
                    0..=2 => {
                        prop_assert_eq!(window.insert((q, -q)), next);
                        map.insert(next, (q, -q));
                        next += 1;
                    }
                    3 => {
                        let id = pick % (next + 2);
                        prop_assert_eq!(window.remove(id), map.remove(&id));
                    }
                    _ => {
                        for k in 0..pick % 6 {
                            let id = (pick >> 8).wrapping_add(3 * k) % (next + 2);
                            prop_assert_eq!(window.remove(id), map.remove(&id));
                        }
                    }
                }
            }
            prop_assert_eq!(window.remove(u64::MAX), None);
            for id in 0..next + 2 {
                prop_assert_eq!(window.remove(id), map.remove(&id));
            }
            prop_assert!(window.window.is_empty());
        }
    }
}
