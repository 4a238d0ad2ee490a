//! Dispatch/autoscale strategies: the baselines and the level-gated
//! self-aware controller.
//!
//! The T2 ablation ladder follows the paper's levels (Section IV):
//!
//! | levels | behaviour added |
//! |---|---|
//! | ∅ (pre-self-aware) | blind round-robin over rented nodes, full pool always rented |
//! | +stimulus | sees node liveness & queues: least-drain dispatch among online nodes |
//! | +time | learns per-node success history; forecasts demand and autoscales the rented pool |
//! | +goal | adapts the autoscaling safety margin at run time by trading SLA risk against rental cost |
//! | +meta | watches its own violation stream for drift; on drift, boosts exploration and softens stale node beliefs |
//!
//! The non-self-aware baselines ([`Strategy::Random`],
//! [`Strategy::RoundRobin`], [`Strategy::LeastLoaded`],
//! [`Strategy::StaticRanked`]) bracket the comparison in T1 and F4.

use crate::autoscale::AutoscaleCore;
use crate::cluster::Cluster;
use crate::request::{Request, RequestOutcome};
use rand::Rng as _;
use selfaware::levels::{Level, LevelSet};
use selfaware::models::drift::PageHinkley;
use selfaware::models::ewma::Ewma;
use selfaware::models::holt::Holt;
use selfaware::models::OnlineModel;
use selfaware::supervision::SelfModel;
use simkernel::rng::Rng;
use simkernel::Tick;

/// Strategy selector for scenario configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Uniform random node among rented (blind to liveness).
    Random,
    /// Cycle through rented nodes (blind to liveness).
    RoundRobin,
    /// Minimum drain-time among online rented nodes (reactive,
    /// instantaneous knowledge, no learning, no autoscaling).
    LeastLoaded,
    /// Smooth weighted round-robin over the *design-time believed*
    /// node capacities (used in F4: a perfectly sensible classic load
    /// balancer whose weights never update as the world diverges from
    /// the design document).
    StaticRanked {
        /// Believed capacity per node, fixed at design time.
        believed_capacity: Vec<f64>,
    },
    /// The level-gated self-aware controller.
    SelfAware {
        /// Possessed self-awareness levels.
        levels: LevelSet,
    },
    /// The self-aware controller with a meta-self-aware
    /// [`Supervisor`](selfaware::supervision::Supervisor) watchdogging
    /// its arrival model: non-finite / divergence / oscillation / stall
    /// detection, checkpoint rollback, and a reactive-dispatch fallback
    /// while the model is benched.
    SupervisedSelfAware {
        /// Possessed self-awareness levels.
        levels: LevelSet,
    },
}

impl Strategy {
    /// Short table label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Strategy::Random => "random".into(),
            Strategy::RoundRobin => "round-robin".into(),
            Strategy::LeastLoaded => "least-loaded".into(),
            Strategy::StaticRanked { .. } => "static-ranked".into(),
            Strategy::SelfAware { levels } => format!("self-aware[{levels}]"),
            Strategy::SupervisedSelfAware { levels } => format!("supervised[{levels}]"),
        }
    }

    /// Instantiates the runtime controller for a cluster of `n` nodes.
    #[must_use]
    pub fn build(&self, n: usize) -> Controller {
        let kind = match self {
            Strategy::Random => Kind::Random,
            Strategy::RoundRobin => Kind::RoundRobin { next: 0 },
            Strategy::LeastLoaded => Kind::LeastLoaded,
            Strategy::StaticRanked { believed_capacity } => {
                assert_eq!(
                    believed_capacity.len(),
                    n,
                    "believed capacity vector must match node count"
                );
                Kind::StaticRanked {
                    believed: believed_capacity.clone(),
                    credits: vec![0.0; n],
                }
            }
            Strategy::SelfAware { levels } => {
                Kind::SelfAware(Box::new(SelfAwareState::new(*levels, n, false)))
            }
            Strategy::SupervisedSelfAware { levels } => {
                Kind::SelfAware(Box::new(SelfAwareState::new(*levels, n, true)))
            }
        };
        Controller { kind }
    }
}

enum Kind {
    Random,
    RoundRobin {
        next: usize,
    },
    LeastLoaded,
    StaticRanked {
        believed: Vec<f64>,
        credits: Vec<f64>,
    },
    SelfAware(Box<SelfAwareState>),
}

/// Runtime dispatch/autoscale controller.
pub struct Controller {
    kind: Kind,
}

impl Controller {
    /// The self-aware controller's arrival-model slot (`None` for the
    /// model-free baselines): its supervision counters, its
    /// counterfactual intervention mask, and where model corruptions
    /// land.
    pub(crate) fn arrival_model(&mut self) -> Option<&mut SelfModel<Holt>> {
        match &mut self.kind {
            Kind::SelfAware(state) => Some(state.core.arrival_model_mut()),
            _ => None,
        }
    }

    /// Called once per tick before dispatching, with the number of
    /// arrivals observed this tick. Autoscaling strategies resize the
    /// rented pool here.
    pub fn begin_tick(&mut self, cluster: &mut Cluster, arrivals: u32, now: Tick, rng: &mut Rng) {
        let _ = rng; // reserved for stochastic autoscalers
        if let Kind::SelfAware(state) = &mut self.kind {
            if let Some(target) = state.desired_pool(cluster, arrivals, now) {
                cluster.rent_first(target);
            }
        }
    }

    /// Computes this tick's autoscaling target *without* applying it —
    /// the hook for a remote command plane that must ship the decision
    /// to zone agents over an unreliable channel instead of flipping
    /// rental flags directly. Observes `arrivals` into the demand
    /// model exactly as [`Controller::begin_tick`] does, so exactly
    /// one of the two must be called per tick. `None` means this
    /// strategy never autoscales.
    pub fn desired_pool(&mut self, cluster: &Cluster, arrivals: u32, now: Tick) -> Option<usize> {
        match &mut self.kind {
            Kind::SelfAware(state) => state.desired_pool(cluster, arrivals, now),
            _ => None,
        }
    }

    /// Chooses a node for `req`; `None` means reject.
    pub fn dispatch(&mut self, cluster: &Cluster, req: &Request, rng: &mut Rng) -> Option<usize> {
        match &mut self.kind {
            Kind::Random => {
                let rented = cluster.rented_indices();
                (!rented.is_empty()).then(|| rented[rng.gen_range(0..rented.len())])
            }
            Kind::RoundRobin { next } => {
                let rented = cluster.rented_indices();
                if rented.is_empty() {
                    return None;
                }
                let pick = rented[*next % rented.len()];
                *next = (*next + 1) % rented.len();
                Some(pick)
            }
            Kind::LeastLoaded => {
                let online = cluster.dispatchable();
                online.into_iter().min_by(|&a, &b| {
                    cluster
                        .node(a)
                        .drain_time()
                        .partial_cmp(&cluster.node(b).drain_time())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            }
            Kind::StaticRanked { believed, credits } => {
                // Smooth weighted round-robin: each node accrues
                // credit proportional to its *believed* capacity; the
                // highest-credit online node serves and pays back the
                // pool. Share of traffic converges to the designed
                // weights — which is exactly right until the real
                // machines stop matching the design document.
                let online = cluster.dispatchable();
                if online.is_empty() {
                    return None;
                }
                let total: f64 = online.iter().map(|&i| believed[i]).sum();
                for &i in &online {
                    credits[i] += believed[i];
                }
                let pick = online
                    .into_iter()
                    .max_by(|&a, &b| {
                        credits[a]
                            .partial_cmp(&credits[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("online non-empty");
                credits[pick] -= total;
                Some(pick)
            }
            Kind::SelfAware(state) => state.dispatch(cluster, req, rng),
        }
    }

    /// Reports a terminal request outcome.
    pub fn feedback(&mut self, outcome: &RequestOutcome, now: Tick) {
        if let Kind::SelfAware(state) = &mut self.kind {
            state.feedback(outcome, now);
        }
    }

    /// Current autoscaling safety margin, if the controller has one
    /// (exposed for tests and explanations).
    #[must_use]
    pub fn safety_margin(&self) -> Option<f64> {
        match &self.kind {
            Kind::SelfAware(s) if s.levels.contains(Level::Time) => Some(s.core.safety()),
            _ => None,
        }
    }

    /// Number of reward-drift events the meta level has reacted to.
    #[must_use]
    pub fn drift_events(&self) -> u32 {
        match &self.kind {
            Kind::SelfAware(s) => s.drift_events,
            _ => 0,
        }
    }
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match &self.kind {
            Kind::Random => "Random",
            Kind::RoundRobin { .. } => "RoundRobin",
            Kind::LeastLoaded => "LeastLoaded",
            Kind::StaticRanked { .. } => "StaticRanked",
            Kind::SelfAware(_) => "SelfAware",
        };
        f.debug_struct("Controller").field("kind", &name).finish()
    }
}

/// Internal state of the level-gated self-aware controller.
///
/// Demand forecasting, supervision, and safety adaptation live in the
/// reusable [`AutoscaleCore`] (also the `liveserve` governor policy);
/// this struct adds the dispatch-side state the core doesn't need —
/// per-node success beliefs, meta-level exploration, drift reaction.
struct SelfAwareState {
    levels: LevelSet,
    n: usize,
    round_robin_next: usize,
    core: AutoscaleCore,
    // time awareness (dispatch side)
    success: Vec<Ewma>,
    // meta awareness
    detector: PageHinkley,
    epsilon: f64,
    drift_events: u32,
}

const RISK_PENALTY: f64 = 25.0;
const SUCCESS_PRIOR: f64 = 0.9;

impl SelfAwareState {
    fn new(levels: LevelSet, n: usize, supervised: bool) -> Self {
        Self {
            levels,
            n,
            round_robin_next: 0,
            core: AutoscaleCore::new("cloud-arrivals", supervised),
            success: (0..n)
                .map(|_| {
                    let mut e = Ewma::new(0.08);
                    e.observe(SUCCESS_PRIOR);
                    e
                })
                .collect(),
            detector: PageHinkley::new(0.02, 4.0),
            epsilon: 0.05,
            drift_events: 0,
        }
    }

    /// Observes the tick's arrivals and returns the pool size the
    /// controller wants rented, or `None` without time awareness.
    fn desired_pool(&mut self, cluster: &Cluster, arrivals: u32, now: Tick) -> Option<usize> {
        if !self.levels.contains(Level::Time) {
            return None; // no history/forecast → no autoscaling
        }
        let rate = self.core.demand_rate(f64::from(arrivals), now).max(0.0);

        // Goal awareness: adapt the safety margin from the live
        // violation-vs-cost trade-off (asymmetric: react fast to
        // rising violations, relax slowly — see
        // [`AutoscaleCore::adapt_safety`]).
        if self.levels.contains(Level::Goal) {
            self.core.adapt_safety();
        }

        // Size the pool from the demand estimate in work units.
        let mean_work = self.core.mean_work(3.0);
        let mean_cap = (0..self.n)
            .map(|i| cluster.node(i).spec().capacity)
            .sum::<f64>()
            / self.n as f64;
        let needed = ((rate * mean_work * self.core.safety()) / mean_cap).ceil() as usize;
        Some(needed.clamp(2, self.n))
    }

    fn candidates(&self, cluster: &Cluster) -> Vec<usize> {
        if self.levels.contains(Level::Stimulus) {
            cluster.dispatchable()
        } else {
            cluster.rented_indices()
        }
    }

    fn dispatch(&mut self, cluster: &Cluster, req: &Request, rng: &mut Rng) -> Option<usize> {
        self.core.observe_work(req.work);
        let cands = self.candidates(cluster);
        if cands.is_empty() {
            return None;
        }
        if !self.levels.contains(Level::Stimulus) {
            // Pre-self-aware: blind round-robin.
            let pick = cands[self.round_robin_next % cands.len()];
            self.round_robin_next = (self.round_robin_next + 1) % cands.len().max(1);
            return Some(pick);
        }
        // Meta-governed exploration keeps node beliefs fresh.
        if self.levels.contains(Level::Meta) && rng.gen::<f64>() < self.epsilon {
            return Some(cands[rng.gen_range(0..cands.len())]);
        }
        // Score: expected wait plus (with time awareness) reliability
        // risk learned from history.
        cands.into_iter().min_by(|&a, &b| {
            self.score(cluster, a)
                .partial_cmp(&self.score(cluster, b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    fn score(&self, cluster: &Cluster, i: usize) -> f64 {
        let wait = cluster.node(i).drain_time();
        if self.levels.contains(Level::Time) {
            let risk = 1.0 - self.success[i].level();
            wait + RISK_PENALTY * risk
        } else {
            wait
        }
    }

    fn feedback(&mut self, outcome: &RequestOutcome, _now: Tick) {
        let violated = outcome.violates_sla();
        self.core.observe_outcome(violated);
        if self.levels.contains(Level::Time) {
            if let Some(node) = outcome.node() {
                let signal = match outcome {
                    RequestOutcome::Completed { .. } if !violated => 1.0,
                    RequestOutcome::Completed { .. } => 0.5,
                    RequestOutcome::Failed { .. } => 0.0,
                    RequestOutcome::Rejected { .. } => unreachable!("rejected has no node"),
                };
                self.success[node].observe(signal);
            }
        }
        if self.levels.contains(Level::Meta) {
            let drifted = self.detector.observe(if violated { 1.0 } else { 0.0 });
            if drifted {
                self.drift_events += 1;
                // The world changed: our node beliefs may be stale.
                self.epsilon = 0.3;
                self.core.raise_safety_floor(2.0);
                for s in &mut self.success {
                    // Soften beliefs toward the prior.
                    let softened = 0.5 * s.level() + 0.5 * SUCCESS_PRIOR;
                    let mut e = Ewma::new(0.08);
                    e.observe(softened);
                    *s = e;
                }
            } else {
                self.epsilon = (self.epsilon * 0.999).max(0.02);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::SAFETY_DEFAULT;
    use crate::node::NodeSpec;
    use simkernel::SeedTree;

    fn rng() -> Rng {
        SeedTree::new(71).rng("strategy")
    }

    fn cluster() -> Cluster {
        let specs = vec![
            NodeSpec::new(4.0, 0.0, 0.0, 1.0),
            NodeSpec::new(1.0, 0.0, 0.0, 1.0),
            NodeSpec::new(2.0, 0.0, 0.0, 1.0),
        ];
        Cluster::new(specs, &SeedTree::new(3))
    }

    fn req(id: u64) -> Request {
        Request::new(id, 3.0, Tick(0), 12)
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Strategy::Random.label(), "random");
        assert_eq!(Strategy::LeastLoaded.label(), "least-loaded");
        let sa = Strategy::SelfAware {
            levels: LevelSet::new().with(Level::Stimulus),
        };
        assert_eq!(sa.label(), "self-aware[stimulus]");
    }

    #[test]
    fn round_robin_cycles() {
        let c = cluster();
        let mut ctl = Strategy::RoundRobin.build(3);
        let mut r = rng();
        let picks: Vec<usize> = (0..6)
            .map(|i| ctl.dispatch(&c, &req(i), &mut r).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_prefers_empty_fast_node() {
        let mut c = cluster();
        c.dispatch(0, req(0), Tick(0)); // load node 0
        c.dispatch(0, req(1), Tick(0));
        let mut ctl = Strategy::LeastLoaded.build(3);
        let mut r = rng();
        let pick = ctl.dispatch(&c, &req(2), &mut r).unwrap();
        assert_ne!(pick, 0, "node 0 has backlog");
    }

    #[test]
    fn static_ranked_follows_beliefs_not_reality() {
        let c = cluster(); // actual capacities [4, 1, 2]
        let mut ctl = Strategy::StaticRanked {
            believed_capacity: vec![1.0, 6.0, 1.0], // wrongly believes node 1 fastest
        }
        .build(3);
        let mut r = rng();
        // Over 8 dispatches, the believed-fastest node gets the
        // majority share (6/8), regardless of true capacities.
        let mut to_node1 = 0;
        for i in 0..8 {
            if ctl.dispatch(&c, &req(i), &mut r) == Some(1) {
                to_node1 += 1;
            }
        }
        assert_eq!(to_node1, 6);
    }

    #[test]
    fn random_only_uses_rented() {
        let mut c = cluster();
        c.rent_first(1);
        let mut ctl = Strategy::Random.build(3);
        let mut r = rng();
        for i in 0..20 {
            assert_eq!(ctl.dispatch(&c, &req(i), &mut r), Some(0));
        }
    }

    #[test]
    fn blind_selfaware_is_round_robin() {
        let c = cluster();
        let mut ctl = Strategy::SelfAware {
            levels: LevelSet::new(),
        }
        .build(3);
        let mut r = rng();
        let picks: Vec<usize> = (0..3)
            .map(|i| ctl.dispatch(&c, &req(i), &mut r).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2]);
        assert_eq!(ctl.safety_margin(), None);
    }

    #[test]
    fn stimulus_selfaware_prefers_short_queue() {
        let mut c = cluster();
        c.dispatch(0, req(0), Tick(0));
        c.dispatch(0, req(1), Tick(0));
        let mut ctl = Strategy::SelfAware {
            levels: LevelSet::new().with(Level::Stimulus),
        }
        .build(3);
        let mut r = rng();
        let pick = ctl.dispatch(&c, &req(2), &mut r).unwrap();
        assert_ne!(pick, 0);
    }

    #[test]
    fn time_selfaware_autoscales() {
        let mut c = Cluster::standard_pool(12, &SeedTree::new(4));
        let levels = LevelSet::new().with(Level::Stimulus).with(Level::Time);
        let mut ctl = Strategy::SelfAware { levels }.build(12);
        let mut r = rng();
        // Low demand for a while → pool should shrink below 12.
        for t in 0..200u64 {
            ctl.begin_tick(&mut c, 1, Tick(t), &mut r);
        }
        assert!(c.rented_count() < 12, "rented {}", c.rented_count());
        assert!(c.rented_count() >= 2);
        assert_eq!(ctl.safety_margin(), Some(SAFETY_DEFAULT));
    }

    #[test]
    fn time_selfaware_learns_bad_node() {
        let c = cluster();
        let levels = LevelSet::new().with(Level::Stimulus).with(Level::Time);
        let mut ctl = Strategy::SelfAware { levels }.build(3);
        let mut r = rng();
        // Repeatedly report failures on node 0.
        for _ in 0..200 {
            ctl.feedback(
                &RequestOutcome::Failed {
                    request: req(0),
                    at: Tick(1),
                    node: 0,
                },
                Tick(1),
            );
        }
        let pick = ctl.dispatch(&c, &req(1), &mut r).unwrap();
        assert_ne!(pick, 0, "learned unreliability should steer away");
    }

    #[test]
    fn goal_selfaware_adapts_safety() {
        let mut c = Cluster::standard_pool(8, &SeedTree::new(5));
        let levels = LevelSet::new()
            .with(Level::Stimulus)
            .with(Level::Time)
            .with(Level::Goal);
        let mut ctl = Strategy::SelfAware { levels }.build(8);
        let mut r = rng();
        // Flood with violations → safety margin should rise.
        for _ in 0..500 {
            ctl.feedback(
                &RequestOutcome::Failed {
                    request: req(0),
                    at: Tick(1),
                    node: 1,
                },
                Tick(1),
            );
        }
        for t in 0..50u64 {
            ctl.begin_tick(&mut c, 3, Tick(t), &mut r);
        }
        assert!(ctl.safety_margin().unwrap() > SAFETY_DEFAULT);
    }

    #[test]
    fn meta_selfaware_detects_reward_drift() {
        let levels = LevelSet::full();
        let mut ctl = Strategy::SelfAware { levels }.build(3);
        // Long healthy phase then sustained violations.
        for _ in 0..800 {
            ctl.feedback(
                &RequestOutcome::Completed {
                    request: req(0),
                    at: Tick(5),
                    node: 0,
                    latency: 3,
                },
                Tick(5),
            );
        }
        for _ in 0..300 {
            ctl.feedback(
                &RequestOutcome::Failed {
                    request: req(0),
                    at: Tick(6),
                    node: 0,
                },
                Tick(6),
            );
        }
        assert!(ctl.drift_events() >= 1);
    }

    #[test]
    #[should_panic(expected = "believed capacity vector must match node count")]
    fn static_ranked_arity_checked() {
        let _ = Strategy::StaticRanked {
            believed_capacity: vec![1.0],
        }
        .build(3);
    }
}
