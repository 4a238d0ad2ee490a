//! End-to-end scenario runner: demand generation → dispatch →
//! processing → multi-objective scoring.

use crate::cluster::Cluster;
use crate::node::NodeSpec;
use crate::request::{Request, RequestOutcome};
use crate::strategy::Strategy;
use selfaware::comms::{
    AgentLiveChannel, Channel, CommsNetwork, CommsPolicy, CommsStats, Delivered,
};
use selfaware::explain::{Explanation, ExplanationLog};
use selfaware::goals::{Direction, Goal, Objective};
use selfaware::replay::{InterventionClass, InterventionMask};
use simkernel::obs;
use simkernel::rng::SeedTree;
use simkernel::stats::Percentiles;
use simkernel::{MetricSet, Tick, TimeSeries};
use workloads::faults::{ChannelPlan, FaultKind, FaultPlan};
use workloads::rates::{poisson, DiurnalRate, RateFn};
use workloads::Schedule;

/// How autoscaling decisions reach the node pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandPlane {
    /// The controller flips rental flags itself — a perfect,
    /// instantaneous command plane (the legacy behaviour, and still
    /// the default).
    Direct,
    /// The controller is remote: the pool is split into `zones`
    /// contiguous node blocks, each run by a zone agent, and rent
    /// targets travel to the agents as messages over the scenario's
    /// [`ChannelPlan`]. Agents report their applied counts back, so a
    /// staleness-aware controller can notice a zone it cannot reach
    /// and re-home the missing capacity.
    Zoned {
        /// Number of zone agents; zone `z` owns the contiguous node
        /// block `z*n/zones .. (z+1)*n/zones`.
        zones: usize,
    },
}

/// Ticks between command re-issues when a zone's report disagrees
/// with its target (staleness-aware plane only).
const REISSUE_INTERVAL: u64 = 40;

/// Runtime state of the [`CommandPlane::Zoned`] plane: the remote
/// controller's beliefs plus the per-zone agents' applied targets.
///
/// Comms addressing: node ids `0..zones` are the zone agents and id
/// `zones` is the controller. Rent targets are spread *evenly* across
/// zones (remainder to earlier zones) rather than prefix-packed, the
/// usual availability practice — and the property that leaves fresh
/// zones with spare room when a stale zone must be re-homed.
struct ZonedPlane {
    zones: usize,
    n: usize,
    aware: bool,
    mask: InterventionMask,
    net: CommsNetwork<usize>,
    /// Target each zone agent has actually applied (ground truth).
    applied: Vec<usize>,
    /// Controller-side belief of each zone's applied target.
    believed: Vec<usize>,
    /// Last target the controller issued per zone, and when.
    issued: Vec<Option<usize>>,
    issued_at: Vec<u64>,
    /// Newest sequence seen per zone (reordering guards).
    last_cmd_seq: Vec<Option<u64>>,
    last_report_seq: Vec<Option<u64>>,
    /// Delivery buffer reused every tick (no per-tick allocation).
    inbox: Vec<Delivered<usize>>,
    /// Per-zone liveness, refreshed each tick from the fault plan: a
    /// zone is dead while *all* its nodes sit inside an active
    /// `ZoneOutage` window. Reused buffer, no per-tick allocation.
    dead: Vec<bool>,
}

impl ZonedPlane {
    fn new(zones: usize, n: usize, policy: CommsPolicy, mask: InterventionMask) -> Self {
        assert!(
            zones >= 1 && zones <= n,
            "zone count must be in 1..=node count"
        );
        // All nodes start rented (Cluster::new), so every agent starts
        // at its full zone size and the controller knows it.
        let sizes: Vec<usize> = (0..zones)
            .map(|z| (z + 1) * n / zones - z * n / zones)
            .collect();
        Self {
            zones,
            n,
            aware: !policy.is_naive(),
            mask,
            net: CommsNetwork::new(policy).with_mask(mask),
            applied: sizes.clone(),
            believed: sizes,
            issued: vec![None; zones],
            issued_at: vec![0; zones],
            last_cmd_seq: vec![None; zones],
            last_report_seq: vec![None; zones],
            inbox: Vec::new(),
            dead: vec![false; zones],
        }
    }

    fn zone_range(&self, z: usize) -> std::ops::Range<usize> {
        z * self.n / self.zones..(z + 1) * self.n / self.zones
    }

    /// Splits a total rent target evenly across zones, then (aware
    /// plane only) re-homes the believed shortfall of stale zones
    /// onto fresh zones that still have room.
    fn split(&self, total: usize, now: Tick) -> Vec<usize> {
        let total = total.min(self.n);
        let base = total / self.zones;
        let rem = total % self.zones;
        let mut targets: Vec<usize> = (0..self.zones)
            .map(|z| (base + usize::from(z < rem)).min(self.zone_range(z).len()))
            .collect();
        // Even split can undershoot when a zone is smaller than its
        // share; push the leftovers into zones with room.
        let mut leftover = total - targets.iter().sum::<usize>();
        for (z, target) in targets.iter_mut().enumerate() {
            let room = self.zone_range(z).len() - *target;
            let take = leftover.min(room);
            *target += take;
            leftover -= take;
        }
        if !self.aware {
            return targets;
        }
        // A zone whose reports have gone quiet for more than the
        // staleness half-life may never have applied its target;
        // conservatively re-home the believed shortfall.
        let ctrl = self.zones;
        let stale: Vec<bool> = (0..self.zones)
            .map(|z| self.net.freshness(ctrl, z, now) < 0.5)
            .collect();
        let mut shortfall: usize = (0..self.zones)
            .filter(|&z| stale[z])
            .map(|z| targets[z].saturating_sub(self.believed[z]))
            .sum();
        for z in 0..self.zones {
            if shortfall == 0 {
                break;
            }
            if stale[z] {
                continue;
            }
            let room = self.zone_range(z).len() - targets[z];
            let take = shortfall.min(room);
            targets[z] += take;
            shortfall -= take;
        }
        targets
    }

    /// One command-plane tick: refresh zone liveness from the fault
    /// plan, then issue changed (or overdue) targets, flow agent
    /// reports, land deliveries, apply commands.
    fn tick(
        &mut self,
        desired: Option<usize>,
        cluster: &mut Cluster,
        channel: &ChannelPlan,
        faults: &FaultPlan,
        now: Tick,
        log: &mut ExplanationLog,
    ) {
        // Taken out of `self` (inbox pattern) so the adapter can
        // borrow it while `tick_inner` mutates the rest of the plane.
        let mut dead = std::mem::take(&mut self.dead);
        let mut any_dead = false;
        for (z, flag) in dead.iter_mut().enumerate() {
            let r = z * self.n / self.zones..(z + 1) * self.n / self.zones;
            *flag = !r.is_empty() && r.clone().all(|i| faults.zone_down_at(i, now));
            any_dead |= *flag;
        }
        // A zone whose whole node block is inside a `ZoneOutage` has no
        // agent to talk to, even where a partition heals mid-outage.
        // The view is substituted only while a zone is dark, so
        // outage-free runs keep their exact channel behaviour.
        if any_dead {
            let live = AgentLiveChannel {
                inner: channel,
                dead: &dead,
            };
            self.tick_inner(desired, cluster, &live, &dead, now, log);
        } else {
            self.tick_inner(desired, cluster, channel, &dead, now, log);
        }
        self.dead = dead;
    }

    fn tick_inner<C: Channel + ?Sized>(
        &mut self,
        desired: Option<usize>,
        cluster: &mut Cluster,
        channel: &C,
        dead: &[bool],
        now: Tick,
        log: &mut ExplanationLog,
    ) {
        let ctrl = self.zones;
        if let Some(total) = desired {
            let targets = self.split(total, now);
            for (z, &target) in targets.iter().enumerate() {
                let changed = self.issued[z] != Some(target);
                // The aware plane also re-issues when the zone's own
                // report disagrees with the standing order — that is
                // how a command abandoned by the retry budget during a
                // partition eventually gets through after the heal.
                // A masked counterfactual run suppresses exactly these
                // overdue re-issues; changed-triggered sends stay.
                let overdue = self.aware
                    && self.mask.allows(InterventionClass::CommsReissue)
                    && self.believed[z] != target
                    && now.0.saturating_sub(self.issued_at[z]) >= REISSUE_INTERVAL;
                if changed || overdue {
                    if !changed {
                        log.fired(InterventionClass::CommsReissue);
                        log.record(
                            Explanation::new(now, "comms:reissue")
                                .anchoring(InterventionClass::CommsReissue)
                                .link(ctrl, z)
                                .because("target", target as f64)
                                .because("believed", self.believed[z] as f64),
                        );
                    }
                    self.net.send(channel, ctrl, z, target, now, log);
                    self.issued[z] = Some(target);
                    self.issued_at[z] = now.0;
                    if !self.aware {
                        // Fire-and-forget: assume the command landed.
                        self.believed[z] = target;
                    }
                }
            }
        }
        // Zone agents report their applied targets every tick — but a
        // dead zone's agent is off with its nodes and sends nothing.
        for (z, &zone_dead) in dead.iter().enumerate().take(self.zones) {
            if zone_dead {
                continue;
            }
            self.net.send(channel, z, ctrl, self.applied[z], now, log);
        }
        // Land deliveries into the reused inbox (taken out of `self`
        // so the loop body can mutate plane state while iterating).
        let mut inbox = std::mem::take(&mut self.inbox);
        inbox.clear();
        self.net.step_into(channel, now, log, &mut inbox);
        for d in inbox.drain(..) {
            if d.dst == ctrl {
                // Reports from a now-dead zone were sent before it
                // died; they are stale but true, so land them.
                if newest(&mut self.last_report_seq[d.src], d.seq) {
                    self.believed[d.src] = d.payload;
                }
            } else if dead[d.dst] {
                // Nobody home: a command that slipped through (sent
                // pre-death, arriving now) is not applied, and the
                // watermark is *not* bumped — when the zone comes
                // back, the aware plane's re-issue (fresh, higher
                // seq) must still be accepted.
            } else if newest(&mut self.last_cmd_seq[d.dst], d.seq) {
                self.applied[d.dst] = d.payload;
                let range = self.zone_range(d.dst);
                let target = d.payload.min(range.len());
                for (k, i) in range.enumerate() {
                    cluster.set_rented(i, k < target);
                }
            }
        }
        self.inbox = inbox;
    }
}

/// Monotone-sequence guard: accepts `seq` only if newer than the
/// stored watermark (delayed duplicates must not roll state back).
fn newest(watermark: &mut Option<u64>, seq: u64) -> bool {
    if watermark.is_none_or(|s| seq > s) {
        *watermark = Some(seq);
        true
    } else {
        false
    }
}

/// Configuration of one cloud scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Node specs (the *actual* machines).
    pub specs: Vec<NodeSpec>,
    /// Simulation length in ticks.
    pub steps: u64,
    /// Mean demand, requests per tick.
    pub base_rate: f64,
    /// Diurnal swing around the mean.
    pub amplitude: f64,
    /// Diurnal period in ticks.
    pub period: f64,
    /// Extra disturbances applied to the demand rate.
    pub schedule: Schedule,
    /// Mean request work units (exponential).
    pub mean_work: f64,
    /// SLA deadline in ticks.
    pub deadline: u64,
    /// Scheduled faults. `ZoneOutage` pins a node block offline for
    /// its duration (on top of stochastic churn); `ModelCorruption`
    /// poisons the controller's learned arrival model. Other kinds
    /// are ignored by this simulator.
    pub faults: FaultPlan,
    /// Dispatch strategy.
    pub strategy: Strategy,
    /// Channel model for controller↔zone command traffic (only
    /// exercised under [`CommandPlane::Zoned`]).
    pub channel: ChannelPlan,
    /// Communication discipline for command traffic: fire-and-forget
    /// or the reliable, staleness-tracking protocol.
    pub comms: CommsPolicy,
    /// How autoscaling decisions reach the pool.
    pub command_plane: CommandPlane,
    /// Counterfactual intervention mask, applied to the arrival-model
    /// supervisor and the zoned command plane (retries, overdue
    /// re-issues). [`InterventionMask::allow_all`] (the default)
    /// reproduces historical behaviour bit for bit.
    pub mask: InterventionMask,
}

impl ScenarioConfig {
    /// The standard T1/T2 scenario: 12-node heterogeneous volunteer
    /// pool, diurnal demand with a mid-run surge, given strategy.
    #[must_use]
    pub fn standard(strategy: Strategy, steps: u64, seeds: &SeedTree) -> Self {
        let specs = (0..12)
            .map(|i| {
                let capacity = 1.0 + (i % 4) as f64;
                if i % 3 == 0 {
                    NodeSpec::reliable(capacity)
                } else {
                    NodeSpec::volunteer(capacity)
                }
            })
            .collect();
        let _ = seeds; // specs are deterministic; seeds reserved for variants
        Self {
            specs,
            steps,
            base_rate: 3.5,
            amplitude: 2.5,
            period: 600.0,
            schedule: Schedule::none()
                .and(workloads::Disturbance::scale(Tick(steps / 2), 1.4))
                .and(workloads::Disturbance::spike(
                    Tick(steps * 3 / 4),
                    3.0,
                    steps / 20,
                )),
            mean_work: 3.0,
            deadline: 12,
            faults: FaultPlan::none(),
            strategy,
            channel: ChannelPlan::ideal(),
            comms: CommsPolicy::default(),
            command_plane: CommandPlane::Direct,
            mask: InterventionMask::allow_all(),
        }
    }
}

/// Outputs of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scalar metrics (see [`run_scenario`] for keys).
    pub metrics: MetricSet,
    /// Per-tick SLA-violation fraction (bucketable for figures).
    pub violations: TimeSeries,
    /// Per-tick completed-request mean latency.
    pub latency: TimeSeries,
    /// Command-plane protocol events (retries, expiries, partition
    /// hits). Empty under [`CommandPlane::Direct`].
    pub comms_log: ExplanationLog,
}

/// The composite utility goal used to score all cloud strategies:
/// maximise completion ratio, minimise SLA violations, minimise rented
/// cost — the paper's "trade-offs between goals at run time".
#[must_use]
pub fn cloud_goal() -> Goal {
    Goal::new("cloud-qos-vs-cost")
        .objective(Objective::new(
            "completion_ratio",
            Direction::Maximize,
            1.0,
            2.0,
        ))
        .objective(Objective::new(
            "violation_rate",
            Direction::Minimize,
            0.25,
            2.0,
        ))
        .objective(Objective::new("cost_ratio", Direction::Minimize, 1.0, 1.0))
}

/// Runs one scenario. Metric keys produced:
///
/// * `arrived`, `completed` — request counts;
/// * `completion_ratio` — completed / arrived;
/// * `violation_rate` — SLA violations / arrived;
/// * `mean_latency`, `p95_latency` — over completed requests;
/// * `cost_ratio` — rented-node-ticks / (steps × nodes);
/// * `utility` — [`cloud_goal`] composite;
/// * `drift_events` — meta-level detections (0 for baselines).
#[must_use]
pub fn run_scenario(cfg: &ScenarioConfig, seeds: &SeedTree) -> ScenarioResult {
    let n = cfg.specs.len();
    let mut cluster = Cluster::new(cfg.specs.clone(), seeds);
    let mut controller = cfg.strategy.build(n);
    if let Some(model) = controller.arrival_model() {
        model.set_mask(cfg.mask);
    }
    let mut rate_fn = DiurnalRate::new(cfg.base_rate, cfg.amplitude, cfg.period);
    let mut arrivals_rng = seeds.rng("arrivals");
    let mut work_rng = seeds.rng("work");
    let mut strat_rng = seeds.rng("strategy");

    let mut arrived = 0u64;
    let mut completed = 0u64;
    let mut violations = 0u64;
    let mut latencies = Percentiles::new();
    let mut lat_sum = 0.0;
    let mut violations_series = TimeSeries::new(cfg.strategy.label());
    let mut latency_series = TimeSeries::new(cfg.strategy.label());
    let mut next_id = 0u64;
    let mut comms_log = ExplanationLog::new(2048);
    let mut plane = match cfg.command_plane {
        CommandPlane::Direct => None,
        CommandPlane::Zoned { zones } => Some(ZonedPlane::new(zones, n, cfg.comms, cfg.mask)),
    };

    // Reused across ticks: outcome pushes land in warm capacity
    // instead of regrowing a fresh vector every tick.
    let mut tick_outcomes: Vec<RequestOutcome> = Vec::new();
    for t in 0..cfg.steps {
        let now = Tick(t);
        tick_outcomes.clear();

        // Phase spans (sense → decide → act) are profiling only —
        // timing never feeds simulation state (see `simkernel::obs`).
        let sense_span = obs::span("cloudsim:sense");

        // Apply scheduled zone outages and model corruptions before
        // the controller observes the cluster.
        for ev in cfg.faults.events_at(now) {
            match ev.kind {
                FaultKind::ZoneOutage {
                    first,
                    count,
                    duration,
                } => {
                    let until = Tick(t + duration);
                    tick_outcomes.extend(cluster.force_outage(first, count, until, now));
                }
                FaultKind::ModelCorruption { kind, .. } => {
                    if let Some(model) = controller.arrival_model() {
                        kind.apply(model, now);
                    }
                }
                _ => {}
            }
        }

        let rate = cfg.schedule.apply(rate_fn.rate(now), now);
        let count = poisson(rate, &mut arrivals_rng);
        drop(sense_span);
        let decide_span = obs::span("cloudsim:decide");
        match &mut plane {
            None => controller.begin_tick(&mut cluster, count, now, &mut strat_rng),
            Some(p) => {
                let desired = controller.desired_pool(&cluster, count, now);
                p.tick(
                    desired,
                    &mut cluster,
                    &cfg.channel,
                    &cfg.faults,
                    now,
                    &mut comms_log,
                );
            }
        }
        drop(decide_span);
        let _act_span = obs::span("cloudsim:act");

        for _ in 0..count {
            use rand::Rng as _;
            arrived += 1;
            let u: f64 = work_rng.gen::<f64>();
            let work = -cfg.mean_work * u.max(1e-12).ln();
            let req = Request::new(next_id, work, now, cfg.deadline);
            next_id += 1;
            match controller.dispatch(&cluster, &req, &mut strat_rng) {
                Some(nodeidx) => {
                    if let Some(fail) = cluster.dispatch(nodeidx, req, now) {
                        tick_outcomes.push(fail);
                    }
                }
                None => tick_outcomes.push(RequestOutcome::Rejected {
                    request: req,
                    at: now,
                }),
            }
        }
        cluster.step_into(now, &mut tick_outcomes);

        let mut tick_viol = 0u64;
        let tick_total = tick_outcomes.len();
        for outcome in &tick_outcomes {
            controller.feedback(outcome, now);
            if outcome.violates_sla() {
                violations += 1;
                tick_viol += 1;
            }
            if let Some(lat) = outcome.latency() {
                completed += 1;
                latencies.push(lat as f64);
                lat_sum += lat as f64;
            }
        }
        if tick_total > 0 {
            violations_series.push(now, tick_viol as f64 / tick_total as f64);
        }
        if let Some(RequestOutcome::Completed { latency, .. }) =
            tick_outcomes.iter().find(|o| o.completed())
        {
            latency_series.push(now, *latency as f64);
        }
    }

    let mut metrics = MetricSet::new();
    let arrived_f = arrived.max(1) as f64;
    metrics.set("arrived", arrived as f64);
    metrics.set("completed", completed as f64);
    metrics.set("completion_ratio", completed as f64 / arrived_f);
    metrics.set("violation_rate", violations as f64 / arrived_f);
    metrics.set(
        "mean_latency",
        if completed > 0 {
            lat_sum / completed as f64
        } else {
            0.0
        },
    );
    metrics.set("p95_latency", latencies.p95().unwrap_or(0.0));
    metrics.set(
        "cost_ratio",
        cluster.rented_node_ticks() as f64 / (cfg.steps.max(1) * n as u64) as f64,
    );
    metrics.set("drift_events", f64::from(controller.drift_events()));
    let sup = controller
        .arrival_model()
        .map(|model| model.stats())
        .unwrap_or_default();
    metrics.set("model_rollbacks", f64::from(sup.rollbacks));
    metrics.set("model_fallbacks", f64::from(sup.fallbacks));
    metrics.set("model_repromotions", f64::from(sup.repromotions));
    let cs: CommsStats = plane.as_ref().map(|p| p.net.stats()).unwrap_or_default();
    metrics.set("comms_sent", cs.sent as f64);
    metrics.set("comms_retries", cs.retries as f64);
    metrics.set("comms_expired", cs.expired as f64);
    metrics.set("comms_partition_hits", cs.partition_hits as f64);
    metrics.set("comms_duplicates", cs.duplicates as f64);
    let utility = cloud_goal().utility(|k| metrics.get(k));
    metrics.set("utility", utility);

    ScenarioResult {
        metrics,
        violations: violations_series,
        latency: latency_series,
        comms_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfaware::levels::LevelSet;

    fn run(strategy: Strategy, seed: u64, steps: u64) -> ScenarioResult {
        let seeds = SeedTree::new(seed);
        let cfg = ScenarioConfig::standard(strategy, steps, &seeds);
        run_scenario(&cfg, &seeds)
    }

    #[test]
    fn scenario_produces_sane_metrics() {
        let r = run(Strategy::LeastLoaded, 1, 1500);
        let m = &r.metrics;
        assert!(m.get("arrived").unwrap() > 1000.0);
        let cr = m.get("completion_ratio").unwrap();
        assert!((0.3..=1.0).contains(&cr), "completion ratio {cr}");
        let vr = m.get("violation_rate").unwrap();
        assert!((0.0..=1.0).contains(&vr));
        assert!(m.get("p95_latency").unwrap() >= m.get("mean_latency").unwrap() * 0.5);
        assert!(m.get("utility").is_some());
        assert!(!r.violations.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(Strategy::RoundRobin, 9, 500);
        let b = run(Strategy::RoundRobin, 9, 500);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(Strategy::RoundRobin, 1, 500);
        let b = run(Strategy::RoundRobin, 2, 500);
        assert_ne!(
            a.metrics.get("completed"),
            b.metrics.get("completed"),
            "distinct seeds should give distinct sample paths"
        );
    }

    #[test]
    fn self_aware_beats_random_on_utility() {
        // The paper's central hypothesis, in miniature.
        let mut sa_wins = 0;
        for seed in 0..3 {
            let sa = run(
                Strategy::SelfAware {
                    levels: LevelSet::full(),
                },
                seed,
                2000,
            );
            let rnd = run(Strategy::Random, seed, 2000);
            if sa.metrics.get("utility") > rnd.metrics.get("utility") {
                sa_wins += 1;
            }
        }
        assert!(sa_wins >= 2, "self-aware won {sa_wins}/3 seeds");
    }

    #[test]
    fn self_aware_cheaper_than_rent_all_baselines() {
        let sa = run(
            Strategy::SelfAware {
                levels: LevelSet::full(),
            },
            4,
            2000,
        );
        let ll = run(Strategy::LeastLoaded, 4, 2000);
        assert!(
            sa.metrics.get("cost_ratio").unwrap() < ll.metrics.get("cost_ratio").unwrap(),
            "autoscaling should cut rented cost"
        );
    }

    #[test]
    fn zone_outage_costs_completions_but_run_survives() {
        use workloads::faults::FaultEvent;
        let steps = 2000;
        let faulty = |seed: u64| {
            let seeds = SeedTree::new(seed);
            let mut cfg = ScenarioConfig::standard(Strategy::LeastLoaded, steps, &seeds);
            // Take out half the pool for a fifth of the run, twice.
            cfg.faults = FaultPlan::none()
                .and(FaultEvent::zone_outage(Tick(steps / 4), 0, 6, steps / 5))
                .and(FaultEvent::zone_outage(
                    Tick(3 * steps / 4),
                    6,
                    6,
                    steps / 5,
                ));
            run_scenario(&cfg, &seeds)
        };
        let f = faulty(3);
        let h = run(Strategy::LeastLoaded, 3, steps);
        let cr_f = f.metrics.get("completion_ratio").unwrap();
        let cr_h = h.metrics.get("completion_ratio").unwrap();
        assert!(
            cr_f < cr_h,
            "outages must cost completions: {cr_f} vs {cr_h}"
        );
        assert!(cr_f > 0.2, "the run must survive the outages: {cr_f}");
        // Deterministic per seed.
        assert_eq!(faulty(3).metrics, f.metrics);
    }

    #[test]
    fn supervised_controller_survives_model_corruption() {
        use workloads::faults::{FaultEvent, ModelCorruptionKind};
        let steps = 2500;
        let plan = FaultPlan::none()
            .and(FaultEvent::model_corruption(
                Tick(steps / 3),
                0,
                ModelCorruptionKind::NanPoison,
            ))
            .and(FaultEvent::model_corruption(
                Tick(2 * steps / 3),
                0,
                ModelCorruptionKind::WeightScramble { gain: 40.0 },
            ));
        let run_arm = |strategy: Strategy| {
            let seeds = SeedTree::new(11);
            let mut cfg = ScenarioConfig::standard(strategy, steps, &seeds);
            cfg.faults = plan.clone();
            run_scenario(&cfg, &seeds)
        };
        let sup = run_arm(Strategy::SupervisedSelfAware {
            levels: LevelSet::full(),
        });
        let m = &sup.metrics;
        // The watchdog must have acted on the injected corruption and
        // the run must stay serviceable.
        assert!(
            m.get("model_rollbacks").unwrap() + m.get("model_fallbacks").unwrap() >= 1.0,
            "supervisor never intervened: {m:?}"
        );
        assert!(
            m.get("completion_ratio").unwrap() > 0.3,
            "supervised run collapsed: {m:?}"
        );
        // Deterministic per seed, including the supervision path.
        assert_eq!(
            run_arm(Strategy::SupervisedSelfAware {
                levels: LevelSet::full(),
            })
            .metrics,
            sup.metrics
        );
    }

    /// A zoned scenario with headroom: 18 nodes in 3 zones, demand
    /// sized so the ×2 spike needs ~13 of 18 nodes — leaving fresh
    /// zones with room to absorb a partitioned zone's shortfall.
    fn zoned_cfg(
        comms: CommsPolicy,
        loss: f64,
        partition: Option<(u64, u64)>,
        seed: u64,
        steps: u64,
    ) -> (ScenarioConfig, SeedTree) {
        use workloads::faults::LinkModel;
        let seeds = SeedTree::new(seed);
        // Stimulus+time only: goal-level safety adaptation would
        // partially mask command loss by re-renting reachable zones
        // whenever violations rise, so it is switched off to measure
        // the command plane itself.
        let mut cfg = ScenarioConfig::standard(
            Strategy::SelfAware {
                levels: LevelSet::new()
                    .with(selfaware::levels::Level::Stimulus)
                    .with(selfaware::levels::Level::Time),
            },
            steps,
            &seeds,
        );
        cfg.specs = (0..18)
            .map(|i| {
                let capacity = 1.0 + (i % 4) as f64;
                if i % 3 == 0 {
                    NodeSpec::reliable(capacity)
                } else {
                    NodeSpec::volunteer(capacity)
                }
            })
            .collect();
        cfg.base_rate = 2.2;
        cfg.amplitude = 0.2;
        cfg.schedule = Schedule::none()
            .and(workloads::Disturbance::scale(Tick(steps / 2), 1.4))
            .and(workloads::Disturbance::spike(
                Tick(steps * 3 / 4),
                3.0,
                steps / 5,
            ));
        let mut plan = ChannelPlan::uniform(&SeedTree::new(seed ^ 0xC10D), LinkModel::lossy(loss));
        if let Some((start, duration)) = partition {
            plan = plan.with_partition(start, duration, vec![2]);
        }
        cfg.channel = plan;
        cfg.comms = comms;
        cfg.command_plane = CommandPlane::Zoned { zones: 3 };
        (cfg, seeds)
    }

    #[test]
    fn zoned_plane_on_ideal_channel_still_autoscales() {
        let (mut cfg, seeds) = zoned_cfg(CommsPolicy::default(), 0.0, None, 21, 2000);
        cfg.channel = ChannelPlan::ideal();
        let r = run_scenario(&cfg, &seeds);
        let m = &r.metrics;
        assert!(
            m.get("cost_ratio").unwrap() < 0.95,
            "zoned plane never released capacity: {m:?}"
        );
        assert!(
            m.get("completion_ratio").unwrap() > 0.5,
            "zoned plane starved the pool: {m:?}"
        );
        // No loss, no partitions → nothing to retry or expire.
        assert_eq!(m.get("comms_expired"), Some(0.0));
        assert_eq!(m.get("comms_partition_hits"), Some(0.0));
    }

    #[test]
    fn lossy_zoned_run_is_deterministic_and_retries() {
        let (cfg, seeds) = zoned_cfg(CommsPolicy::default(), 0.3, None, 13, 1500);
        let a = run_scenario(&cfg, &seeds);
        let b = run_scenario(&cfg, &seeds);
        assert_eq!(a.metrics, b.metrics);
        assert!(
            a.metrics.get("comms_retries").unwrap() > 0.0,
            "30% loss must force retransmissions: {:?}",
            a.metrics
        );
        assert!(
            a.comms_log.iter().any(|e| e.kind == "comms:retry"),
            "retries must be explained in the comms log"
        );
    }

    #[test]
    fn staleness_aware_command_plane_beats_naive_under_partition() {
        let steps = 3000;
        // Isolate zone 2 from tick 2150 to the end of the run; the ×3
        // demand spike runs 2250..2850, so the zone is pinned at its
        // low pre-spike rent target for all of it.
        let partition = Some((2150, 850));
        let mut aware_wins = 0;
        for seed in [5u64, 6, 7] {
            let (cfg_a, seeds_a) = zoned_cfg(CommsPolicy::default(), 0.25, partition, seed, steps);
            let (cfg_n, seeds_n) = zoned_cfg(CommsPolicy::Naive, 0.25, partition, seed, steps);
            let aware = run_scenario(&cfg_a, &seeds_a);
            let naive = run_scenario(&cfg_n, &seeds_n);
            assert!(
                aware.metrics.get("comms_partition_hits").unwrap() > 0.0,
                "partition never bit: {:?}",
                aware.metrics
            );
            if aware.metrics.get("utility") > naive.metrics.get("utility") {
                aware_wins += 1;
            }
            if seed == 5 {
                // Abandoned commands (retry budget burned against the
                // partition) must be explained; the partition-onset
                // entry itself is checked in the short test below,
                // where later traffic cannot evict it from the ring.
                assert!(
                    aware.comms_log.iter().any(|e| e.kind == "comms:expire"),
                    "abandoned sends must be explained"
                );
            }
        }
        assert!(
            aware_wins >= 2,
            "staleness-aware won only {aware_wins}/3 seeds"
        );
    }

    #[test]
    fn partition_onset_reaches_the_comms_log() {
        // Loss-free channel, so the ring holds only partition-era
        // protocol traffic and the onset entry survives to the end.
        let (cfg, seeds) = zoned_cfg(CommsPolicy::default(), 0.0, Some((1200, 100)), 17, 1500);
        let r = run_scenario(&cfg, &seeds);
        assert!(r.metrics.get("comms_partition_hits").unwrap() > 0.0);
        assert!(
            r.comms_log.iter().any(|e| e.kind == "comms:partition"),
            "partition onset must be explained"
        );
    }

    /// Drives a [`ZonedPlane`] directly over 6 reliable nodes in 3
    /// zones (2 nodes each; zone 1 owns nodes 2..4, comms agent id 1,
    /// controller id 3). Returns every `(tick, new_applied)` change of
    /// zone 1's applied target, so the overlap tests can pin down
    /// exactly *when* delivery to that zone resumes.
    ///
    /// `desired(t)` drives the total rent target; `outage` is an
    /// `(at, duration)` [`FaultKind::ZoneOutage`] over nodes 2..4;
    /// `partition` is an `(at, duration)` [`NetPartition`] isolating
    /// comms node 1.
    fn zone1_applied_history(
        desired: impl Fn(u64) -> usize,
        outage: Option<(u64, u64)>,
        partition: Option<(u64, u64)>,
        steps: u64,
    ) -> Vec<(u64, usize)> {
        use workloads::faults::FaultEvent;
        let seeds = SeedTree::new(99);
        let specs: Vec<NodeSpec> = (0..6).map(|_| NodeSpec::reliable(1.0)).collect();
        let mut cluster = Cluster::new(specs, &seeds);
        let mut plan = ChannelPlan::ideal();
        if let Some((at, duration)) = partition {
            plan = plan.with_partition(at, duration, vec![1]);
        }
        let mut faults = FaultPlan::none();
        if let Some((at, duration)) = outage {
            faults = faults.and(FaultEvent::zone_outage(Tick(at), 2, 2, duration));
        }
        let mut plane =
            ZonedPlane::new(3, 6, CommsPolicy::default(), InterventionMask::allow_all());
        let mut log = ExplanationLog::new(64);
        let mut history = vec![(0, plane.applied[1])];
        for t in 0..steps {
            plane.tick(
                Some(desired(t)),
                &mut cluster,
                &plan,
                &faults,
                Tick(t),
                &mut log,
            );
            if plane.applied[1] != history[history.len() - 1].1 {
                history.push((t, plane.applied[1]));
            }
        }
        history
    }

    /// Asserts zone 1's applied target never changes inside
    /// `quiet` and changes to `expect` within `window`.
    fn assert_resumes_in(
        history: &[(u64, usize)],
        quiet: std::ops::Range<u64>,
        window: std::ops::Range<u64>,
        expect: usize,
    ) {
        assert!(
            !history.iter().any(|&(t, _)| quiet.contains(&t)),
            "delivery resurrected inside {quiet:?}: {history:?}"
        );
        assert!(
            history
                .iter()
                .any(|&(t, v)| window.contains(&t) && v == expect),
            "applied never became {expect} in {window:?}: {history:?}"
        );
    }

    // Overlap matrix for ZoneOutage × NetPartition restore ordering.
    // Zone 1 (nodes 2..4) starts with applied target 2; the desired
    // total drops 6 → 3 at tick 250, so its new target is 1. The
    // commanding question in each case: when is that 1 allowed to
    // land? Never while the zone is dead, never while the partition
    // cuts the link — only after *both* windows have closed.

    #[test]
    fn partition_heal_inside_outage_does_not_resurrect_dead_zone() {
        // Outage [200,400), partition [150,300): the heal at 300
        // re-opens the link while nobody is home; delivery must wait
        // for the outage to lift at 400.
        let h = zone1_applied_history(
            |t| if t < 250 { 6 } else { 3 },
            Some((200, 200)),
            Some((150, 150)),
            600,
        );
        assert_resumes_in(&h, 150..400, 400..520, 1);
    }

    #[test]
    fn outage_inside_partition_waits_for_the_heal() {
        // Outage [200,300) nested in partition [150,400): the zone
        // comes back at 300 but stays unreachable until the heal.
        let h = zone1_applied_history(
            |t| if t < 250 { 6 } else { 3 },
            Some((200, 100)),
            Some((150, 250)),
            600,
        );
        assert_resumes_in(&h, 150..400, 400..520, 1);
    }

    #[test]
    fn staggered_overlap_waits_for_the_later_window() {
        // Partition [150,250) then outage [200,400): windows overlap
        // in [200,250); delivery resumes only after the outage.
        let h = zone1_applied_history(
            |t| if t < 250 { 6 } else { 3 },
            Some((200, 200)),
            Some((150, 100)),
            600,
        );
        assert_resumes_in(&h, 150..400, 400..520, 1);
    }

    #[test]
    fn disjoint_windows_each_block_alone() {
        // Partition [150,200) blocks the 6→3 command issued at 160;
        // it lands after the heal, inside [200,300). A second switch
        // (3→6) at 320 falls inside the outage [300,400) and lands
        // only after it lifts.
        let h = zone1_applied_history(
            |t| {
                if t < 160 {
                    6
                } else if t < 320 {
                    3
                } else {
                    6
                }
            },
            Some((300, 100)),
            Some((150, 50)),
            600,
        );
        assert_resumes_in(&h, 150..200, 200..300, 1);
        assert_resumes_in(&h, 300..400, 400..520, 2);
    }

    #[test]
    fn dead_zone_burns_retry_budget_on_its_links() {
        // While zone 1 is dead its agent sends nothing, and the
        // controller's re-issues die on the silenced link: the retry
        // budget burns out and the per-link expiry counters must
        // attribute the loss to ctrl(3)→agent(1).
        use selfaware::comms::ReliableConfig;
        use workloads::faults::FaultEvent;
        let seeds = SeedTree::new(7);
        let specs: Vec<NodeSpec> = (0..6).map(|_| NodeSpec::reliable(1.0)).collect();
        let mut cluster = Cluster::new(specs, &seeds);
        let plan = ChannelPlan::ideal();
        let faults = FaultPlan::none().and(FaultEvent::zone_outage(Tick(100), 2, 2, 300));
        // Generous timeout so the retry *budget* is what gives up.
        let policy = CommsPolicy::Reliable(ReliableConfig {
            send_timeout: 10_000,
            ..ReliableConfig::default()
        });
        let mut plane = ZonedPlane::new(3, 6, policy, InterventionMask::allow_all());
        let mut log = ExplanationLog::new(64);
        for t in 0..420 {
            let desired = if t < 150 { 6 } else { 3 };
            plane.tick(
                Some(desired),
                &mut cluster,
                &plan,
                &faults,
                Tick(t),
                &mut log,
            );
        }
        let stats = plane.net.stats_ref();
        assert!(
            stats.link_budget_exhausted(3, 1) >= 1,
            "ctrl→dead-zone sends must exhaust their retry budget: {stats:?}"
        );
        assert_eq!(
            stats.link_expired(3, 0),
            0,
            "live zones must not expire anything: {stats:?}"
        );
    }

    #[test]
    fn cloud_goal_prefers_good_outcomes() {
        let g = cloud_goal();
        let good = g.utility(|k| match k {
            "completion_ratio" => Some(0.98),
            "violation_rate" => Some(0.01),
            "cost_ratio" => Some(0.4),
            _ => None,
        });
        let bad = g.utility(|k| match k {
            "completion_ratio" => Some(0.6),
            "violation_rate" => Some(0.3),
            "cost_ratio" => Some(1.0),
            _ => None,
        });
        assert!(good > bad);
    }
}
