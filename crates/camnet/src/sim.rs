//! The camera-network world: objects, ownership, auctions, metrics.

use crate::affinity::{AffinityTable, InviteCounts};
use crate::camera::Camera;
use crate::diversity::policy_divergence;
use crate::strategy::{nearest_neighbours, random_subsets, HandoverStrategy};
use rand::Rng as _;
use selfaware::comms::{CommsNetwork, CommsPolicy};
use selfaware::explain::ExplanationLog;
use selfaware::goals::{Direction, Goal, Objective};
use selfaware::replay::InterventionMask;
use selfaware::supervision::{Evidence, SelfModel};
use simkernel::obs;
use simkernel::rng::SeedTree;
use simkernel::{MetricSet, Tick, TimeSeries};
use workloads::faults::{ChannelPlan, FaultKind, FaultPlan};
use workloads::trajectories::{Point, Wanderer};

/// Configuration of a camera-network scenario.
#[derive(Debug, Clone)]
pub struct CamnetConfig {
    /// Cameras are placed on a `side × side` grid.
    pub side: usize,
    /// Field-of-view radius (unit-square distance).
    pub fov_radius: f64,
    /// Number of wandering objects.
    pub objects: usize,
    /// Object speed per tick.
    pub speed: f64,
    /// Simulation length.
    pub steps: u64,
    /// Tracking quality below which the owner auctions the object.
    pub handover_threshold: f64,
    /// Probability per tick that an untracked object is re-acquired
    /// by a camera that sees it.
    pub redetect_prob: f64,
    /// If true, each object is biased to a "home" region of the scene
    /// (spatially heterogeneous demand — the condition under which
    /// per-camera specialisation pays off most, per ref \[13\]).
    pub home_bias: bool,
    /// Scheduled camera faults (`CameraFail` / `CameraRecover` /
    /// `ModelCorruption`; other kinds are ignored by this simulator).
    /// A dead camera drops every object it owns, never bids, and
    /// cannot redetect; auction asks still cost messages because the
    /// asker cannot know who is dead — learned strategies discover it
    /// through lost auctions. `ModelCorruption` attacks the learned
    /// affinity matrix itself.
    pub faults: FaultPlan,
    /// Handover strategy used by every camera.
    pub strategy: HandoverStrategy,
    /// If true, a meta-level supervisor watchdogs the learned
    /// affinity matrix: checkpoints it, rolls it back when corrupted,
    /// and benches the network onto broadcast invitations while the
    /// model is untrusted.
    pub supervise: bool,
    /// The medium auction asks, bids and transfer messages traverse.
    /// Defaults to [`ChannelPlan::ideal`], which reproduces the
    /// historical perfect-network behaviour bit for bit.
    pub channel: ChannelPlan,
    /// How the cameras cope with an unreliable channel: naive
    /// fire-and-forget (the ablation), or the staleness-aware
    /// protocol that refuses to unlearn unreachable peers and aborts
    /// undeliverable handovers.
    pub comms: CommsPolicy,
    /// Counterfactual-replay intervention mask (see
    /// [`selfaware::replay`]), applied to the affinity supervisor and
    /// the comms layer. Factual (everything allowed) by default.
    pub mask: InterventionMask,
}

impl CamnetConfig {
    /// Standard T3/F1 scenario: 4×4 grid, 6 objects.
    #[must_use]
    pub fn standard(strategy: HandoverStrategy, steps: u64) -> Self {
        Self {
            side: 4,
            fov_radius: 0.32,
            objects: 6,
            speed: 0.02,
            steps,
            handover_threshold: 0.18,
            redetect_prob: 0.3,
            home_bias: false,
            faults: FaultPlan::none(),
            strategy,
            supervise: false,
            channel: ChannelPlan::ideal(),
            comms: CommsPolicy::default(),
            mask: InterventionMask::allow_all(),
        }
    }
}

/// Outputs of a camera-network run.
#[derive(Debug, Clone)]
pub struct CamnetResult {
    /// Scalar metrics (see [`run_camnet`] for keys).
    pub metrics: MetricSet,
    /// Network heterogeneity (mean pairwise policy JS divergence)
    /// sampled every 50 ticks — the F1 series.
    pub heterogeneity: TimeSeries,
    /// Mean tracking quality per object, sampled every 50 ticks.
    pub quality: TimeSeries,
    /// Comms-layer events: partitions, heals, failed exchanges.
    pub comms_log: ExplanationLog,
}

/// The composite goal: track well, talk little.
#[must_use]
pub fn camnet_goal() -> Goal {
    Goal::new("track-cheaply")
        .objective(Objective::new(
            "track_quality",
            Direction::Maximize,
            0.8,
            2.0,
        ))
        .objective(Objective::new("ask_ratio", Direction::Minimize, 1.0, 1.0))
}

/// Runs a scenario. Metric keys:
///
/// * `track_quality` — mean per-object-tick tracking quality in `[0,1]`;
/// * `untracked_ratio` — fraction of object-ticks with no owner;
/// * `messages_per_tick` — auction messages per tick;
/// * `ask_ratio` — mean fraction of the network invited per auction;
/// * `auctions` — handover auctions run;
/// * `handovers` — ownership transfers that occurred;
/// * `heterogeneity_final` — policy divergence at the end of the run;
/// * `utility` — [`camnet_goal`] composite.
#[must_use]
pub fn run_camnet(cfg: &CamnetConfig, seeds: &SeedTree) -> CamnetResult {
    let n = cfg.side * cfg.side;
    assert!(n >= 2, "need at least two cameras");
    let cameras: Vec<Camera> = (0..n)
        .map(|i| {
            let x = (i % cfg.side) as f64 / cfg.side as f64 + 0.5 / cfg.side as f64;
            let y = (i / cfg.side) as f64 / cfg.side as f64 + 0.5 / cfg.side as f64;
            Camera::new(i, Point::new(x, y), cfg.fov_radius, n)
        })
        .collect();
    let neighbours = nearest_neighbours(&cameras, 3);
    let mut setup_rng = seeds.rng("static-sets");
    let static_sets = random_subsets(n, 3, &mut setup_rng);

    let mut obj_rng = seeds.rng("objects");
    let mut objects: Vec<Wanderer> = (0..cfg.objects)
        .map(|i| {
            let w = Wanderer::new(cfg.speed, &mut obj_rng);
            if cfg.home_bias {
                // Spread homes across scene corners so demand is
                // spatially uneven but covers the network.
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
    let mut alive = vec![true; n];
    // The network's learned state, struct-of-arrays: one contiguous
    // affinity slab and one invite-count slab instead of per-camera
    // heap rows (see `crate::affinity`). The auction hot loop reads
    // and updates them without allocating.
    // Supervised, the supervisor owns the table: the auctions train it
    // in place, a checkpoint is an `Arc` pointer bump, and the table is
    // deep-copied only on the first write after a checkpoint or restore.
    // While the model is benched, auctions fall back to broadcast.
    let mut affinities = SelfModel::new("camera-affinities", AffinityTable::new(n), cfg.supervise)
        .with_mask(cfg.mask);
    let mut supervision_log = ExplanationLog::new(512);
    let mut invites = InviteCounts::new(n);
    // Initial ownership: best-quality seer, if any.
    let mut owner: Vec<Option<usize>> = objects
        .iter()
        .map(|o| best_seer(&cameras, &alive, o.position()))
        .collect();

    // The comms layer carries every auction ask/bid round trip and
    // every transfer message. It consumes no randomness: frame fates
    // are a pure function of the channel plan, so the ideal default
    // leaves every exchange — and every downstream number — exactly
    // as the perfect-network code produced it.
    let mut comms: CommsNetwork<()> = CommsNetwork::new(cfg.comms).with_mask(cfg.mask);
    let mut comms_log = ExplanationLog::new(2048);
    let ideal = cfg.channel.is_ideal();
    let aware = !cfg.comms.is_naive();

    let mut auction_rng = seeds.rng("auctions");
    let mut quality_sum = 0.0;
    let mut untracked_ticks = 0u64;
    let mut messages = 0u64;
    let mut auctions = 0u64;
    let mut handovers = 0u64;
    let mut invited_total = 0u64;
    let mut heterogeneity = TimeSeries::new(cfg.strategy.label());
    let mut quality_series = TimeSeries::new(cfg.strategy.label());
    let mut window_quality = 0.0;
    let mut window_samples = 0u64;
    // Auction scratch buffers, reused across every auction in the run
    // so the hot loop performs no per-auction allocation.
    let mut invitees: Vec<usize> = Vec::with_capacity(n);
    let mut reachable: Vec<bool> = Vec::with_capacity(n);

    for t in 0..cfg.steps {
        let now = Tick(t);

        // Phase spans (sense → act → decide) are profiling only: they
        // read the wall clock and write into the thread-local obs
        // sink, never into simulation state (see `simkernel::obs`).
        let sense_span = obs::span("camnet:sense");

        // Apply scheduled camera faults before anything tracks.
        for ev in cfg.faults.events_at(now) {
            match ev.kind {
                FaultKind::CameraFail { camera } if camera < n => {
                    alive[camera] = false;
                    // A dying camera loses every object it tracked.
                    for o in &mut owner {
                        if *o == Some(camera) {
                            *o = None;
                        }
                    }
                }
                FaultKind::CameraRecover { camera } if camera < n => {
                    alive[camera] = true;
                }
                FaultKind::ModelCorruption { kind, .. } => kind.apply(&mut affinities, now),
                _ => {}
            }
        }
        let frozen = affinities.frozen(now);
        let benched = affinities.is_fallback();

        for o in &mut objects {
            o.step(&mut obj_rng);
        }
        drop(sense_span);
        let act_span = obs::span("camnet:act");
        let mut tick_untracked = 0u64;
        for (oi, obj) in objects.iter().enumerate() {
            let pos = obj.position();
            match owner[oi] {
                Some(me) => {
                    let q = cameras[me].quality(pos);
                    quality_sum += q;
                    window_quality += q;
                    window_samples += 1;
                    if q < cfg.handover_threshold {
                        // Run the handover auction. While the learned
                        // model is benched, fall back to broadcast —
                        // expensive but trustworthy.
                        auctions += 1;
                        let strategy = if benched {
                            HandoverStrategy::Broadcast
                        } else {
                            cfg.strategy
                        };
                        // Staleness-aware invitee selection under a
                        // lossy channel: learned affinity toward a
                        // peer the camera has not heard from decays
                        // toward the 0.5 prior, so silent peers are
                        // neither trusted nor written off. On an
                        // ideal channel every peer is perfectly fresh
                        // (weight 1), so the blend is skipped and the
                        // selection is exactly the historical one.
                        // Either way the blend is a read-only view —
                        // no row is cloned or written back.
                        let table = affinities.model();
                        if ideal || !aware {
                            strategy.invitees_into(
                                me,
                                n,
                                |j| table.affinity(me, j),
                                &neighbours,
                                &static_sets,
                                &mut auction_rng,
                                &mut invitees,
                            );
                        } else {
                            strategy.invitees_into(
                                me,
                                n,
                                |j| {
                                    let w = comms.freshness(me, j, now);
                                    w * table.affinity(me, j) + (1.0 - w) * 0.5
                                },
                                &neighbours,
                                &static_sets,
                                &mut auction_rng,
                                &mut invitees,
                            );
                        }
                        invited_total += invitees.len() as u64;
                        // ask + bid messages
                        messages += 2 * invitees.len() as u64;
                        // Each ask/bid is a same-tick round trip on
                        // the channel: a lost or delayed leg means no
                        // bid from that peer this auction. Dead
                        // invitees are silent at the application
                        // layer even when the channel is fine — the
                        // ask was still sent (and counted), and
                        // `record_auction` below treats their silence
                        // as a lost auction, decaying learned
                        // affinity toward them.
                        reachable.clear();
                        reachable.extend(invitees.iter().map(|&j| {
                            comms.probe_roundtrip(&cfg.channel, me, j, now, &mut comms_log)
                        }));
                        let winner = invitees
                            .iter()
                            .copied()
                            .zip(reachable.iter().copied())
                            .filter(|&(j, r)| r && alive[j])
                            .map(|(j, _)| (j, cameras[j].quality(pos)))
                            .filter(|&(_, bid)| bid > q)
                            .max_by(|a, b| {
                                a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)
                            });
                        if !frozen {
                            for (&j, &r) in invitees.iter().zip(&reachable) {
                                // Staleness-aware cameras refuse to
                                // unlearn a peer the *channel* failed
                                // to reach — "couldn't hear you" is
                                // not "you lost". The naive ablation
                                // cannot tell the two apart and
                                // decays affinity either way.
                                if r || !aware {
                                    let won = winner.is_some_and(|(w, _)| w == j);
                                    affinities.model_mut().record_auction(me, j, won);
                                    invites.record(me, j);
                                }
                            }
                        }
                        match winner {
                            Some((w, _)) => {
                                messages += 1; // transfer message
                                if comms.fire_once(&cfg.channel, me, w, now, &mut comms_log) {
                                    handovers += 1;
                                    owner[oi] = Some(w);
                                } else if !aware {
                                    // Fire-and-forget hands the object
                                    // into the void: the sender stops
                                    // tracking, the receiver never
                                    // started.
                                    owner[oi] = None;
                                }
                                // Aware mode aborts the handover: the
                                // current owner keeps (poorly)
                                // tracking and the auction reruns
                                // while quality stays low.
                            }
                            None if q <= 0.0 => owner[oi] = None,
                            None => {}
                        }
                    }
                }
                None => {
                    untracked_ticks += 1;
                    tick_untracked += 1;
                    window_samples += 1;
                    if auction_rng.gen::<f64>() < cfg.redetect_prob {
                        owner[oi] = best_seer(&cameras, &alive, pos);
                    }
                }
            }
        }

        drop(act_span);
        let _decide_span = obs::span("camnet:decide");

        // Score the affinity model: its "output" is the mean learned
        // score (NaN poison surfaces here immediately), its error the
        // fraction of objects left untracked this tick (a corrupted
        // ask-policy loses objects). The strictly advancing input
        // lets the stall detector catch frozen state.
        if affinities.is_supervised() {
            let mean_affinity = affinities.model().mean();
            let error = tick_untracked as f64 / cfg.objects.max(1) as f64;
            affinities.observe(
                now,
                Evidence::scored(mean_affinity, error).with_input(t as f64),
                &mut supervision_log,
            );
        }

        if t % 50 == 0 {
            let policies: Vec<Vec<f64>> = (0..n).map(|i| invites.ask_distribution(i)).collect();
            heterogeneity.push(now, policy_divergence(&policies));
            if window_samples > 0 {
                quality_series.push(now, window_quality / window_samples as f64);
            }
            window_quality = 0.0;
            window_samples = 0;
        }
    }

    let object_ticks = (cfg.steps * cfg.objects as u64).max(1) as f64;
    let mut metrics = MetricSet::new();
    metrics.set("track_quality", quality_sum / object_ticks);
    metrics.set("untracked_ratio", untracked_ticks as f64 / object_ticks);
    metrics.set(
        "messages_per_tick",
        messages as f64 / cfg.steps.max(1) as f64,
    );
    metrics.set(
        "ask_ratio",
        if auctions > 0 {
            invited_total as f64 / (auctions as f64 * (n - 1) as f64)
        } else {
            0.0
        },
    );
    metrics.set("auctions", auctions as f64);
    metrics.set("handovers", handovers as f64);
    let policies: Vec<Vec<f64>> = (0..n).map(|i| invites.ask_distribution(i)).collect();
    metrics.set("heterogeneity_final", policy_divergence(&policies));
    let utility = camnet_goal().utility(|k| metrics.get(k));
    metrics.set("utility", utility);
    let sup = affinities.stats();
    metrics.set("model_rollbacks", f64::from(sup.rollbacks));
    metrics.set("model_fallbacks", f64::from(sup.fallbacks));
    metrics.set("model_repromotions", f64::from(sup.repromotions));
    let cs = comms.stats();
    metrics.set("comms_sent", cs.sent as f64);
    metrics.set("comms_retries", cs.retries as f64);
    metrics.set("comms_expired", cs.expired as f64);
    metrics.set("comms_partition_hits", cs.partition_hits as f64);
    metrics.set("comms_exchange_failures", cs.exchange_failures as f64);

    CamnetResult {
        metrics,
        heterogeneity,
        quality: quality_series,
        comms_log,
    }
}

fn best_seer(cameras: &[Camera], alive: &[bool], pos: Point) -> Option<usize> {
    cameras
        .iter()
        .filter(|c| alive[c.id()] && c.sees(pos))
        .max_by(|a, b| {
            a.quality(pos)
                .partial_cmp(&b.quality(pos))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(Camera::id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(strategy: HandoverStrategy, seed: u64, steps: u64) -> CamnetResult {
        run_camnet(
            &CamnetConfig::standard(strategy, steps),
            &SeedTree::new(seed),
        )
    }

    #[test]
    fn broadcast_tracks_well() {
        let r = run(HandoverStrategy::Broadcast, 1, 3000);
        let q = r.metrics.get("track_quality").unwrap();
        assert!(q > 0.5, "broadcast quality {q}");
        assert!(r.metrics.get("untracked_ratio").unwrap() < 0.1);
        assert!((r.metrics.get("ask_ratio").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn self_aware_cuts_communication_keeps_quality() {
        let mut ok = 0;
        for seed in 0..3 {
            let bc = run(HandoverStrategy::Broadcast, seed, 4000);
            let sa = run(HandoverStrategy::self_aware_default(), seed, 4000);
            let q_bc = bc.metrics.get("track_quality").unwrap();
            let q_sa = sa.metrics.get("track_quality").unwrap();
            let m_bc = bc.metrics.get("messages_per_tick").unwrap();
            let m_sa = sa.metrics.get("messages_per_tick").unwrap();
            if q_sa > 0.8 * q_bc && m_sa < 0.8 * m_bc {
                ok += 1;
            }
        }
        assert!(
            ok >= 2,
            "self-aware matched broadcast cheaply on {ok}/3 seeds"
        );
    }

    #[test]
    fn self_aware_heterogeneity_grows() {
        let r = run(HandoverStrategy::self_aware_default(), 5, 4000);
        let series = r.heterogeneity.points();
        let early = series[1].1; // skip t=0 (prior; divergence 0)
        let late = series.last().unwrap().1;
        assert!(
            late > early,
            "heterogeeneity should grow: early {early}, late {late}"
        );
        assert!(r.metrics.get("heterogeneity_final").unwrap() > 0.01);
    }

    #[test]
    fn broadcast_policies_stay_more_homogeneous() {
        let bc = run(HandoverStrategy::Broadcast, 3, 3000);
        let sa = run(HandoverStrategy::self_aware_default(), 3, 3000);
        // Broadcast also updates affinities, but asks everyone anyway;
        // its *effective* policy stays closer to uniform than the
        // self-aware ask-sets, which specialise. Compare final scores.
        let h_bc = bc.metrics.get("heterogeneity_final").unwrap();
        let h_sa = sa.metrics.get("heterogeneity_final").unwrap();
        // Both learn affinity, so just require self-aware is at least
        // comparable; the series *shape* is what F1 plots.
        assert!(h_sa > 0.0 && h_bc >= 0.0);
    }

    #[test]
    fn smooth_cheaper_but_losier_than_broadcast() {
        let bc = run(HandoverStrategy::Broadcast, 2, 3000);
        let sm = run(HandoverStrategy::Smooth { k: 3 }, 2, 3000);
        assert!(
            sm.metrics.get("messages_per_tick").unwrap()
                < bc.metrics.get("messages_per_tick").unwrap()
        );
        assert!(
            sm.metrics.get("untracked_ratio").unwrap()
                >= bc.metrics.get("untracked_ratio").unwrap()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(HandoverStrategy::Static { k: 3 }, 7, 800);
        let b = run(HandoverStrategy::Static { k: 3 }, 7, 800);
        assert_eq!(a.metrics, b.metrics);
    }

    fn outage_cfg(strategy: HandoverStrategy, steps: u64) -> CamnetConfig {
        use workloads::faults::FaultEvent;
        let mut cfg = CamnetConfig::standard(strategy, steps);
        // Kill the four central cameras of the 4×4 grid for the middle
        // third of the run.
        let mut plan = FaultPlan::none();
        for cam in [5, 6, 9, 10] {
            plan = plan
                .and(FaultEvent::camera_fail(Tick(steps / 3), cam))
                .and(FaultEvent::camera_recover(Tick(2 * steps / 3), cam));
        }
        cfg.faults = plan;
        cfg
    }

    #[test]
    fn camera_outage_degrades_then_recovers() {
        let steps = 3000;
        let healthy = run(HandoverStrategy::Broadcast, 11, steps);
        let faulty = run_camnet(
            &outage_cfg(HandoverStrategy::Broadcast, steps),
            &SeedTree::new(11),
        );
        let q_h = healthy.metrics.get("track_quality").unwrap();
        let q_f = faulty.metrics.get("track_quality").unwrap();
        assert!(q_f < q_h, "outage must cost quality: {q_f} vs {q_h}");
        // After recovery the last quality window should be back near
        // the pre-fault level.
        let pts = faulty.quality.points();
        let pre: Vec<f64> = pts
            .iter()
            .filter(|&&(t, _)| t < steps / 3)
            .map(|&(_, q)| q)
            .collect();
        let pre_mean = pre.iter().sum::<f64>() / pre.len() as f64;
        let last = pts.last().unwrap().1;
        assert!(
            last > 0.8 * pre_mean,
            "should recover after reboot: pre {pre_mean}, last {last}"
        );
    }

    #[test]
    fn surviving_cameras_pick_up_dropped_objects() {
        let r = run_camnet(
            &outage_cfg(HandoverStrategy::self_aware_default(), 3000),
            &SeedTree::new(12),
        );
        // The network must not collapse: redetection and coalition
        // re-formation keep most object-ticks tracked.
        assert!(r.metrics.get("untracked_ratio").unwrap() < 0.35);
        assert!(r.metrics.get("track_quality").unwrap() > 0.3);
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let a = run_camnet(
            &outage_cfg(HandoverStrategy::self_aware_default(), 900),
            &SeedTree::new(8),
        );
        let b = run_camnet(
            &outage_cfg(HandoverStrategy::self_aware_default(), 900),
            &SeedTree::new(8),
        );
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn supervised_network_survives_affinity_corruption() {
        use workloads::faults::{FaultEvent, ModelCorruptionKind};
        let steps = 4000;
        let cfg = |supervise| {
            let mut c = CamnetConfig::standard(HandoverStrategy::self_aware_default(), steps);
            c.supervise = supervise;
            c.faults = FaultPlan::none()
                .and(FaultEvent::model_corruption(
                    Tick(steps / 3),
                    0,
                    ModelCorruptionKind::NanPoison,
                ))
                .and(FaultEvent::model_corruption(
                    Tick(2 * steps / 3),
                    0,
                    ModelCorruptionKind::WeightScramble { gain: 30.0 },
                ));
            c
        };
        let sup = run_camnet(&cfg(true), &SeedTree::new(21));
        let interventions = sup.metrics.get("model_rollbacks").unwrap()
            + sup.metrics.get("model_fallbacks").unwrap();
        assert!(
            interventions >= 1.0,
            "supervisor should intervene: {interventions}"
        );
        assert!(
            sup.metrics.get("track_quality").unwrap() > 0.4,
            "supervised network should keep tracking: {:?}",
            sup.metrics.get("track_quality")
        );
        let again = run_camnet(&cfg(true), &SeedTree::new(21));
        assert_eq!(sup.metrics, again.metrics, "supervised runs deterministic");
    }

    #[test]
    fn unsupervised_metrics_report_zero_interventions() {
        let r = run(HandoverStrategy::Broadcast, 2, 500);
        assert_eq!(r.metrics.get("model_rollbacks"), Some(0.0));
        assert_eq!(r.metrics.get("model_fallbacks"), Some(0.0));
    }

    fn lossy_cfg(loss: f64, comms: CommsPolicy, seed: u64, steps: u64) -> CamnetConfig {
        use workloads::faults::LinkModel;
        let mut cfg = CamnetConfig::standard(HandoverStrategy::self_aware_default(), steps);
        cfg.channel = ChannelPlan::uniform(&SeedTree::new(seed ^ 0xC4A7), LinkModel::lossy(loss));
        cfg.comms = comms;
        cfg
    }

    #[test]
    fn staleness_aware_outtracks_naive_on_lossy_channel() {
        let mut aware_wins = 0;
        for seed in 0..3u64 {
            let naive = run_camnet(
                &lossy_cfg(0.3, CommsPolicy::Naive, seed, 3000),
                &SeedTree::new(seed),
            );
            let aware = run_camnet(
                &lossy_cfg(0.3, CommsPolicy::default(), seed, 3000),
                &SeedTree::new(seed),
            );
            let u_n = naive.metrics.get("untracked_ratio").unwrap();
            let u_a = aware.metrics.get("untracked_ratio").unwrap();
            if u_a < u_n {
                aware_wins += 1;
            }
        }
        assert!(
            aware_wins >= 2,
            "aborted handovers should beat objects lost in transit ({aware_wins}/3)"
        );
    }

    #[test]
    fn lossy_runs_are_deterministic_per_seed() {
        let a = run_camnet(
            &lossy_cfg(0.25, CommsPolicy::default(), 4, 900),
            &SeedTree::new(4),
        );
        let b = run_camnet(
            &lossy_cfg(0.25, CommsPolicy::default(), 4, 900),
            &SeedTree::new(4),
        );
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn partition_events_reach_the_comms_log() {
        let steps = 1200;
        let mut cfg = lossy_cfg(0.1, CommsPolicy::default(), 9, steps);
        cfg.channel = cfg
            .channel
            .with_partition(steps / 3, steps / 4, vec![0, 1, 4, 5]);
        let r = run_camnet(&cfg, &SeedTree::new(9));
        assert!(
            r.metrics.get("comms_partition_hits").unwrap() > 0.0,
            "boundary links must hit the partition window"
        );
        assert!(
            r.comms_log.iter().any(|e| e.kind == "comms:partition"),
            "partition onset must be explained"
        );
    }

    #[test]
    fn goal_rewards_quality_and_thrift() {
        let g = camnet_goal();
        let lavish = g.utility(|k| match k {
            "track_quality" => Some(0.8),
            "ask_ratio" => Some(1.0),
            _ => None,
        });
        let thrifty = g.utility(|k| match k {
            "track_quality" => Some(0.78),
            "ask_ratio" => Some(0.2),
            _ => None,
        });
        assert!(thrifty > lavish);
    }
}

#[cfg(test)]
mod home_bias_tests {
    use super::*;

    #[test]
    fn home_bias_increases_emergent_heterogeneity() {
        let mut uniform_cfg = CamnetConfig::standard(HandoverStrategy::self_aware_default(), 4000);
        let mut biased_cfg = uniform_cfg.clone();
        biased_cfg.home_bias = true;
        uniform_cfg.home_bias = false;
        let mut biased_wins = 0;
        for seed in 0..3u64 {
            let uniform = run_camnet(&uniform_cfg, &SeedTree::new(seed));
            let biased = run_camnet(&biased_cfg, &SeedTree::new(seed));
            if biased.metrics.get("heterogeneity_final").unwrap()
                > uniform.metrics.get("heterogeneity_final").unwrap()
            {
                biased_wins += 1;
            }
        }
        assert!(
            biased_wins >= 2,
            "spatially uneven demand should amplify specialisation ({biased_wins}/3)"
        );
    }

    #[test]
    fn home_bias_still_tracks_well() {
        let mut cfg = CamnetConfig::standard(HandoverStrategy::self_aware_default(), 3000);
        cfg.home_bias = true;
        let r = run_camnet(&cfg, &SeedTree::new(1));
        assert!(r.metrics.get("track_quality").unwrap() > 0.4);
        assert!(r.metrics.get("untracked_ratio").unwrap() < 0.1);
    }
}
