//! Packet-level simulation over the [`crate::net`] plane: flows, attack
//! surges, hostile traffic — and the F2 adapt-around-the-attack experiment.

use crate::graph::Graph;
use crate::net::{self, Arrival, Env, Net, Policy};
use crate::routing::{Routing, RoutingStrategy};
use selfaware::comms::{CommsNetwork, CommsPolicy};
use selfaware::explain::ExplanationLog;
use selfaware::replay::InterventionMask;
use simkernel::obs;
use simkernel::rng::SeedTree;
use simkernel::{MetricSet, Tick, TimeSeries};
use workloads::faults::{ChannelPlan, FaultKind, FaultPlan};
use workloads::rates::poisson;

/// This world's packet plane: hop logs of at most 64 entries,
/// 120-packet link queues, and delivery reinforcement that covers the
/// final hop.
const PLANE: Policy = Policy {
    ttl: 64,
    queue_cap: 120,
    log_destination: true,
};

/// The largest degree of the grid `run_cpn` routes over: a router
/// reports one queue length per link.
const MAX_DEGREE: usize = 4;

/// A router's control-plane report: its per-link queue lengths in
/// neighbour order, zero past its degree. It is `Copy`, so sending it
/// and handing the controller its copy allocate nothing.
type QueueReport = [usize; MAX_DEGREE];

/// A flow of traffic, optionally time-windowed (attack flows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Packets per tick.
    pub rate: f64,
    /// Active window (`None` = always on).
    pub window: Option<(Tick, Tick)>,
    /// Whether this is hostile traffic (excluded from QoS metrics).
    pub hostile: bool,
}

impl Flow {
    /// A permanent background flow.
    #[must_use]
    pub fn background(src: usize, dst: usize, rate: f64) -> Self {
        Self {
            src,
            dst,
            rate,
            window: None,
            hostile: false,
        }
    }

    /// A windowed attack flow.
    #[must_use]
    pub fn attack(src: usize, dst: usize, rate: f64, from: Tick, to: Tick) -> Self {
        Self {
            src,
            dst,
            rate,
            window: Some((from, to)),
            hostile: true,
        }
    }

    /// Effective rate at time `t`.
    #[must_use]
    pub fn rate_at(&self, t: Tick) -> f64 {
        match self.window {
            Some((from, to)) if t < from || t >= to => 0.0,
            _ => self.rate,
        }
    }
}

/// A denial-of-service event targeting routers: while active, every
/// link incident to an attacked node has its service rate reduced to
/// `bandwidth` (the router's forwarding capacity is consumed by attack
/// processing, per Gelenbe & Loukas's DoS model).
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Attack start.
    pub from: Tick,
    /// Attack end (exclusive).
    pub to: Tick,
    /// Nodes under attack.
    pub nodes: Vec<usize>,
    /// Residual per-link service rate while attacked.
    pub bandwidth: usize,
}

impl Degradation {
    /// Whether the attack affects link `u → v` at time `t`.
    #[must_use]
    pub fn affects(&self, u: usize, v: usize, t: Tick) -> bool {
        t >= self.from && t < self.to && (self.nodes.contains(&u) || self.nodes.contains(&v))
    }
}

/// Configuration of a CPN scenario.
#[derive(Debug, Clone)]
pub struct CpnConfig {
    /// Grid rows.
    pub rows: usize,
    /// Grid cols.
    pub cols: usize,
    /// Simulation length.
    pub steps: u64,
    /// Traffic flows (background + optional hostile floods).
    pub flows: Vec<Flow>,
    /// Optional router-targeting DoS event.
    pub degradation: Option<Degradation>,
    /// Scheduled faults. `LinkCut` / `LinkRestore` cut links (packets
    /// already queued on a cut link stall until restoration; CPN
    /// routers detour immediately, table routers only at their next
    /// recompute); `ModelCorruption` poisons the CPN router's learned
    /// delay table. Other kinds are ignored by this simulator.
    pub faults: FaultPlan,
    /// Routing strategy.
    pub strategy: RoutingStrategy,
    /// The control-plane medium: per-tick router queue reports travel
    /// over this channel to the routing controller. Defaults to
    /// [`ChannelPlan::ideal`], which reproduces the historical
    /// live-queue-observation behaviour bit for bit.
    pub channel: ChannelPlan,
    /// How the control plane copes with report loss: naive
    /// fire-and-forget (routing on silently stale queue state), or
    /// the staleness-aware protocol (ack/retry plus congestion
    /// pessimism for routers it has not heard from).
    pub comms: CommsPolicy,
    /// Queue-report cadence in ticks. At 1 (the default) every
    /// router reports every tick, so a lost report is repaired by
    /// the next one almost immediately and channel loss barely
    /// registers; sparser cadences make each report carry real
    /// information and each loss cost real staleness.
    pub report_every: u64,
    /// Counterfactual intervention mask, applied to the routing
    /// supervisor and the comms layer. [`InterventionMask::allow_all`]
    /// (the default) reproduces historical behaviour bit for bit.
    pub mask: InterventionMask,
}

impl CpnConfig {
    /// Standard F2 scenario: 4×6 grid, one west→east background flow
    /// per row; during the middle third of the run a DoS attack pins
    /// the four central routers, collapsing their link capacity below
    /// the background demand that normally crosses them. A router that
    /// cannot re-plan keeps queueing into the attacked zone; adaptive
    /// routers detour through the healthy outer rows.
    #[must_use]
    pub fn standard(strategy: RoutingStrategy, steps: u64) -> Self {
        let cols = 6;
        let node = |r: usize, c: usize| r * cols + c;
        let (attack_from, attack_to) = Self::attack_window(steps);
        let flows = vec![
            Flow::background(node(0, 0), node(0, 5), 1.2),
            Flow::background(node(1, 0), node(1, 5), 1.2),
            Flow::background(node(2, 0), node(2, 5), 1.2),
            Flow::background(node(3, 0), node(3, 5), 1.2),
        ];
        Self {
            rows: 4,
            cols,
            steps,
            flows,
            degradation: Some(Degradation {
                from: attack_from,
                to: attack_to,
                nodes: vec![node(1, 2), node(1, 3), node(2, 2), node(2, 3)],
                bandwidth: 1,
            }),
            faults: FaultPlan::none(),
            strategy,
            channel: ChannelPlan::ideal(),
            comms: CommsPolicy::default(),
            report_every: 1,
            mask: InterventionMask::allow_all(),
        }
    }

    /// Attack window of [`CpnConfig::standard`] for a given length.
    #[must_use]
    pub fn attack_window(steps: u64) -> (Tick, Tick) {
        (Tick(steps / 3), Tick(2 * steps / 3))
    }

    /// [`CpnConfig::standard`] plus a *moving* flood: during the
    /// attack window, hostile through-traffic slams the degraded
    /// row-1 and row-2 centers in alternating 150-tick slabs, so the
    /// jammed region keeps shifting. A router that only learns from
    /// its own packets re-pays the discovery cost at every switch;
    /// a control plane with fresh — or prudently pessimistic — queue
    /// reports re-routes immediately. This is the communications
    /// ablation scenario (F8); the F2 tables keep using `standard`.
    #[must_use]
    pub fn contested(strategy: RoutingStrategy, steps: u64) -> Self {
        let mut cfg = Self::standard(strategy, steps);
        let cols = cfg.cols;
        let node = |r: usize, c: usize| r * cols + c;
        let (from, to) = Self::attack_window(steps);
        let period = 150;
        let mut t = from.value();
        let mut row1 = true;
        while t < to.value() {
            let end = (t + period).min(to.value());
            let (src, dst) = if row1 {
                (node(1, 1), node(1, 4))
            } else {
                (node(2, 1), node(2, 4))
            };
            cfg.flows
                .push(Flow::attack(src, dst, 6.0, Tick(t), Tick(end)));
            row1 = !row1;
            t = end;
        }
        // Sparse reporting: one report per router per 20 ticks, so a
        // dropped report leaves the controller genuinely blind for a
        // while instead of being repaired on the next tick.
        cfg.report_every = 20;
        cfg
    }
}

/// Outputs of a CPN run.
#[derive(Debug, Clone)]
pub struct CpnResult {
    /// Scalar metrics (see [`run_cpn`] for keys).
    pub metrics: MetricSet,
    /// Per-delivery end-to-end delay of background traffic over time —
    /// the F2 series.
    pub delay: TimeSeries,
    /// Comms-layer events: retries, expiries, partitions, heals.
    pub comms_log: ExplanationLog,
}

/// Runs a scenario. Metric keys:
///
/// * `injected`, `delivered`, `dropped` — background packet counts;
/// * `delivery_ratio` — background delivered / injected;
/// * `mean_delay` — background end-to-end delay overall;
/// * `delay_pre`, `delay_attack`, `delay_post` — background delay per
///   attack phase;
/// * `utility` — delivery ratio minus normalised delay (single scalar
///   for cross-strategy ranking).
#[must_use]
pub fn run_cpn(cfg: &CpnConfig, seeds: &SeedTree) -> CpnResult {
    let mut graph = Graph::grid(cfg.rows, cfg.cols);
    assert!(
        (0..graph.len()).all(|u| graph.neighbours(u).len() <= MAX_DEGREE),
        "a grid router has at most {MAX_DEGREE} links"
    );
    // `SupervisedCpn`: the supervisor owns the live router, scores its
    // best-case delay estimates against realized deliveries, and —
    // while the model is benched — routes over a periodically
    // recomputed table instead.
    let mut routing = Routing::new(cfg.strategy, &graph, "cpn-routing", cfg.mask);
    let mut supervision_log = ExplanationLog::new(512);
    let background_routes: Vec<(usize, usize)> = cfg
        .flows
        .iter()
        .filter(|f| !f.hostile)
        .map(|f| (f.src, f.dst))
        .collect();
    let mut inject_rng = seeds.rng("inject");
    let mut route_rng = seeds.rng("route");
    // A packet's payload marks hostile traffic.
    let mut net: Net<bool> = Net::new(&graph, PLANE, cfg.rows + cfg.cols - 1);

    // Control plane: every router reports its per-link queue lengths
    // to the routing controller (comms id `graph.len()`) each tick,
    // over the configured channel. Routing decisions are computed
    // from this *believed* state, not the live queues — on the ideal
    // default the two are identical (a report sent at the end of tick
    // t lands the same tick, and `maintain` at tick t+1 reads exactly
    // what the live closure used to), so historical numbers are
    // unchanged bit for bit. On a lossy channel the believed state
    // goes stale, and the comms policy decides how routing copes.
    let ctrl = graph.len();
    let mut comms_net: CommsNetwork<QueueReport> = CommsNetwork::new(cfg.comms).with_mask(cfg.mask);
    // Delivery buffer reused every tick (no per-tick allocation).
    let mut comms_inbox: Vec<selfaware::comms::Delivered<QueueReport>> = Vec::new();
    let mut comms_log = ExplanationLog::new(2048);
    let ideal = cfg.channel.is_ideal();
    let aware = !cfg.comms.is_naive();
    let mut believed: Vec<Vec<usize>> = (0..graph.len())
        .map(|u| vec![0; graph.neighbours(u).len()])
        .collect();
    let mut last_report_seq: Vec<Option<u64>> = vec![None; graph.len()];

    let (attack_from, attack_to) = CpnConfig::attack_window(cfg.steps);
    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut delay_sum = 0.0;
    let mut phase_sum = [0.0; 3];
    let mut phase_count = [0u64; 3];
    let mut delay_series = TimeSeries::new(cfg.strategy.label());

    for t in 0..cfg.steps {
        let now = Tick(t);

        // Phase spans (sense → decide → act) are profiling only —
        // wall-clock measurement into the thread-local obs sink,
        // never an input to routing (see `simkernel::obs`).
        let sense_span = obs::span("cpn:sense");

        // Apply scheduled link faults before anything routes.
        for ev in cfg.faults.events_at(now) {
            match ev.kind {
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

        // The queue state routing sees: believed reports, with the
        // staleness-aware policy discounting silent routers toward
        // congestion (the queue cap) — a router it cannot hear from
        // is assumed jammed and routed around, rather than trusted to
        // still be as empty as its last report claimed.
        let cap = PLANE.queue_cap;
        let discounted: Option<Vec<Vec<usize>>> = (!ideal && aware).then(|| {
            believed
                .iter()
                .enumerate()
                .map(|(u, row)| {
                    let w = comms_net.freshness(ctrl, u, now);
                    row.iter()
                        .map(|&q| (w * q as f64 + (1.0 - w) * cap as f64).round() as usize)
                        .collect()
                })
                .collect()
        });
        let effective = discounted.as_ref().unwrap_or(&believed);
        let qlen = |u: usize, v: usize| {
            graph
                .neighbours(u)
                .iter()
                .position(|&x| x == v)
                .map_or(0, |k| effective[u][k])
        };
        drop(sense_span);
        let decide_span = obs::span("cpn:decide");
        routing.model_mut().maintain(&graph, now, qlen);
        routing.maintain_baseline(&graph, now, qlen);

        // Learned routers carry the controller's picture as a
        // decision-time penalty: a hop into a router whose queues are
        // believed `c` deep costs `c` extra ticks. Under the
        // staleness-aware policy a silent router's believed queues
        // drift toward the queue cap, so it is routed around rather
        // than trusted; the naive policy keeps trusting the last
        // report it happened to receive. Gated off on the ideal
        // channel, where smart-packet measurement alone reproduces
        // the clean-run tables bit for bit.
        if !ideal {
            // Routine staleness blends a few phantom ticks into every
            // believed queue; penalizing those would bias routing
            // globally. Only a router that looks genuinely jammed —
            // real congestion, or silence long enough for the
            // discount to dominate — is penalized.
            let cutoff = cap / 2;
            let congestion: Vec<f64> = effective
                .iter()
                .map(|row| row.iter().copied().max().unwrap_or(0))
                .map(|c| if c >= cutoff { c as f64 } else { 0.0 })
                .collect();
            routing.model_mut().set_congestion(&congestion);
        }

        drop(decide_span);
        let act_span = obs::span("cpn:act");

        // Inject new packets.
        let mut env = Env {
            graph: &graph,
            routing: &mut routing,
            rng: &mut route_rng,
            frozen,
            now,
        };
        let mut count_drop = |&hostile: &bool| dropped += u64::from(!hostile);
        for flow in &cfg.flows {
            let rate = flow.rate_at(now);
            if rate <= 0.0 {
                continue;
            }
            let count = poisson(rate, &mut inject_rng);
            for _ in 0..count {
                injected += u64::from(!flow.hostile);
                net.inject(&mut env, flow.src, flow.dst, flow.hostile, &mut count_drop);
            }
        }
        let rate = |u, v| match &cfg.degradation {
            Some(d) if d.affects(u, v, now) => d.bandwidth,
            _ => net::BANDWIDTH,
        };
        let mut tick_delay_sum = 0.0;
        let mut tick_delay_count = 0u64;
        let deliver = |pkt: &net::Packet<bool>| {
            if !pkt.payload {
                delivered += 1;
                let d = now.value().saturating_sub(pkt.created.value()).max(1) as f64;
                delay_sum += d;
                tick_delay_sum += d;
                tick_delay_count += 1;
                delay_series.push(now, d);
                let phase = if now < attack_from {
                    0
                } else if now < attack_to {
                    1
                } else {
                    2
                };
                phase_sum[phase] += d;
                phase_count[phase] += 1;
            }
            Arrival::Deliver
        };
        net.step(&mut env, rate, deliver, count_drop);

        drop(act_span);

        // Control-plane exchange: each router reports its end-of-tick
        // queue lengths; the delivery queue hands the controller
        // whatever the channel let through (deduped and monotone —
        // a delayed old report never overwrites a newer one).
        if now.value().is_multiple_of(cfg.report_every) {
            for u in 0..graph.len() {
                let mut report: QueueReport = [0; MAX_DEGREE];
                for (entry, len) in report.iter_mut().zip(net.queue_lens(u)) {
                    *entry = len;
                }
                comms_net.send(&cfg.channel, u, ctrl, report, now, &mut comms_log);
            }
        }
        comms_inbox.clear();
        comms_net.step_into(&cfg.channel, now, &mut comms_log, &mut comms_inbox);
        for d in comms_inbox.drain(..) {
            if d.dst == ctrl && last_report_seq[d.src].is_none_or(|s| d.seq > s) {
                last_report_seq[d.src] = Some(d.seq);
                let row = &mut believed[d.src];
                let degree = row.len();
                row.copy_from_slice(&d.payload[..degree]);
            }
        }

        // Meta-self-awareness: score the model's best-case delay
        // estimates against realized deliveries and let the
        // supervisor checkpoint / roll back / bench the live router.
        let _decide_span = obs::span("cpn:decide");
        let tick_delay = (tick_delay_count > 0).then(|| tick_delay_sum / tick_delay_count as f64);
        routing.supervise(
            &graph,
            now,
            tick_delay,
            &background_routes,
            &mut supervision_log,
        );
    }

    let mut metrics = MetricSet::new();
    metrics.set("injected", injected as f64);
    metrics.set("delivered", delivered as f64);
    metrics.set("dropped", dropped as f64);
    let ratio = delivered as f64 / injected.max(1) as f64;
    metrics.set("delivery_ratio", ratio);
    let mean_delay = if delivered > 0 {
        delay_sum / delivered as f64
    } else {
        0.0
    };
    metrics.set("mean_delay", mean_delay);
    let phases = ["delay_pre", "delay_attack", "delay_post"];
    for (i, &name) in phases.iter().enumerate() {
        metrics.set(
            name,
            if phase_count[i] > 0 {
                phase_sum[i] / phase_count[i] as f64
            } else {
                0.0
            },
        );
    }
    metrics.set("utility", ratio - mean_delay / 100.0);
    let sup = routing.slot().stats();
    metrics.set("model_rollbacks", f64::from(sup.rollbacks));
    metrics.set("model_fallbacks", f64::from(sup.fallbacks));
    metrics.set("model_repromotions", f64::from(sup.repromotions));
    let cs = comms_net.stats();
    metrics.set("comms_sent", cs.sent as f64);
    metrics.set("comms_retries", cs.retries as f64);
    metrics.set("comms_expired", cs.expired as f64);
    metrics.set("comms_partition_hits", cs.partition_hits as f64);
    metrics.set("comms_duplicates", cs.duplicates as f64);

    CpnResult {
        metrics,
        delay: delay_series,
        comms_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: RoutingStrategy, seed: u64, steps: u64) -> CpnResult {
        run_cpn(&CpnConfig::standard(s, steps), &SeedTree::new(seed))
    }

    #[test]
    fn flow_windows() {
        let f = Flow::attack(0, 5, 2.0, Tick(10), Tick(20));
        assert_eq!(f.rate_at(Tick(5)), 0.0);
        assert_eq!(f.rate_at(Tick(10)), 2.0);
        assert_eq!(f.rate_at(Tick(19)), 2.0);
        assert_eq!(f.rate_at(Tick(20)), 0.0);
        assert_eq!(Flow::background(0, 1, 1.0).rate_at(Tick(999)), 1.0);
    }

    #[test]
    fn quiet_network_delivers_everything() {
        let cfg = CpnConfig {
            rows: 3,
            cols: 3,
            steps: 500,
            flows: vec![Flow::background(0, 8, 0.5)],
            degradation: None,
            faults: FaultPlan::none(),
            strategy: RoutingStrategy::StaticShortest,
            channel: ChannelPlan::ideal(),
            comms: CommsPolicy::default(),
            report_every: 1,
            mask: InterventionMask::allow_all(),
        };
        let r = run_cpn(&cfg, &SeedTree::new(1));
        assert!(r.metrics.get("delivery_ratio").unwrap() > 0.95);
        // Shortest path is 4 hops; queueing negligible.
        assert!(r.metrics.get("mean_delay").unwrap() < 8.0);
    }

    #[test]
    fn attack_raises_static_delay() {
        let r = run(RoutingStrategy::StaticShortest, 2, 3000);
        let pre = r.metrics.get("delay_pre").unwrap();
        let during = r.metrics.get("delay_attack").unwrap();
        assert!(
            during > pre * 1.5,
            "attack should hurt static routing: pre {pre}, during {during}"
        );
    }

    #[test]
    fn cpn_absorbs_attack_better_than_static() {
        let mut wins = 0;
        for seed in 0..3 {
            let stat = run(RoutingStrategy::StaticShortest, seed, 3000);
            let cpn = run(RoutingStrategy::cpn_default(), seed, 3000);
            let s = stat.metrics.get("delay_attack").unwrap();
            let c = cpn.metrics.get("delay_attack").unwrap();
            let s_ratio = stat.metrics.get("delivery_ratio").unwrap();
            let c_ratio = cpn.metrics.get("delivery_ratio").unwrap();
            if c < s && c_ratio >= s_ratio - 0.05 {
                wins += 1;
            }
        }
        assert!(wins >= 2, "cpn absorbed the attack on {wins}/3 seeds");
    }

    #[test]
    fn cpn_recovers_after_attack() {
        let r = run(RoutingStrategy::cpn_default(), 4, 3000);
        let pre = r.metrics.get("delay_pre").unwrap();
        let post = r.metrics.get("delay_post").unwrap();
        assert!(
            post < pre * 2.5,
            "post-attack delay should return near baseline: pre {pre}, post {post}"
        );
    }

    #[test]
    fn cut_links_stall_static_but_cpn_detours() {
        use workloads::faults::FaultEvent;
        // 3×3 grid, flow 0→2 along the top row. Cut 1-2 for the middle
        // third: the static router keeps feeding the dead link, the
        // CPN router detours through the second row.
        let faulty = |strategy| CpnConfig {
            rows: 3,
            cols: 3,
            steps: 900,
            flows: vec![Flow::background(0, 2, 0.8)],
            degradation: None,
            faults: FaultPlan::none()
                .and(FaultEvent::link_cut(Tick(300), 1, 2))
                .and(FaultEvent::link_restore(Tick(600), 1, 2)),
            strategy,
            channel: ChannelPlan::ideal(),
            comms: CommsPolicy::default(),
            report_every: 1,
            mask: InterventionMask::allow_all(),
        };
        let stat = run_cpn(&faulty(RoutingStrategy::StaticShortest), &SeedTree::new(9));
        let cpn = run_cpn(&faulty(RoutingStrategy::cpn_default()), &SeedTree::new(9));
        let s = stat.metrics.get("delivery_ratio").unwrap();
        let c = cpn.metrics.get("delivery_ratio").unwrap();
        assert!(
            s < 0.9,
            "static should lose traffic while the link is down: {s}"
        );
        assert!(c > s + 0.1, "cpn should detour: cpn {c} vs static {s}");
    }

    #[test]
    fn periodic_recovers_from_cut_at_next_recompute() {
        use workloads::faults::FaultEvent;
        let cfg = CpnConfig {
            rows: 3,
            cols: 3,
            steps: 900,
            flows: vec![Flow::background(0, 2, 0.8)],
            degradation: None,
            faults: FaultPlan::none().and(FaultEvent::link_cut(Tick(300), 1, 2)),
            strategy: RoutingStrategy::Periodic { period: 50 },
            channel: ChannelPlan::ideal(),
            comms: CommsPolicy::default(),
            report_every: 1,
            mask: InterventionMask::allow_all(),
        };
        let r = run_cpn(&cfg, &SeedTree::new(9));
        // The cut is permanent, but a 50-tick recompute horizon keeps
        // the loss bounded to roughly one period of traffic.
        assert!(r.metrics.get("delivery_ratio").unwrap() > 0.85);
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        use workloads::faults::FaultEvent;
        let cfg = |steps| {
            let mut c = CpnConfig::standard(RoutingStrategy::cpn_default(), steps);
            c.faults = FaultPlan::none()
                .and(FaultEvent::link_cut(Tick(100), 8, 9))
                .and(FaultEvent::link_restore(Tick(400), 8, 9));
            c
        };
        let a = run_cpn(&cfg(600), &SeedTree::new(6));
        let b = run_cpn(&cfg(600), &SeedTree::new(6));
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(RoutingStrategy::cpn_default(), 6, 600);
        let b = run(RoutingStrategy::cpn_default(), 6, 600);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn delay_series_is_populated() {
        let r = run(RoutingStrategy::StaticShortest, 7, 1000);
        assert!(r.delay.len() > 100);
    }

    fn lossy_cfg(loss: f64, comms: CommsPolicy, seed: u64, steps: u64) -> CpnConfig {
        use workloads::faults::LinkModel;
        let mut cfg = CpnConfig::standard(RoutingStrategy::cpn_default(), steps);
        cfg.channel = ChannelPlan::uniform(&SeedTree::new(seed ^ 0xC9), LinkModel::lossy(loss));
        cfg.comms = comms;
        cfg
    }

    #[test]
    fn lossy_control_plane_is_deterministic_per_seed() {
        let a = run_cpn(
            &lossy_cfg(0.3, CommsPolicy::default(), 3, 900),
            &SeedTree::new(3),
        );
        let b = run_cpn(
            &lossy_cfg(0.3, CommsPolicy::default(), 3, 900),
            &SeedTree::new(3),
        );
        assert_eq!(a.metrics, b.metrics);
        assert!(
            a.metrics.get("comms_retries").unwrap() > 0.0,
            "30% report loss must trigger retransmissions"
        );
        assert!(
            a.comms_log.iter().any(|e| e.kind == "comms:retry"),
            "retries must be explained"
        );
    }

    #[test]
    fn staleness_aware_control_plane_beats_naive_under_loss_and_partition() {
        use workloads::faults::LinkModel;
        // The table router's only adaptivity is the communicated queue
        // state, so this is the strategy where channel quality is
        // decisive. (The CPN learner adapts from its own packets'
        // measured delays and shrugs off report loss — itself a
        // finding; see EXPERIMENTS.md F8.) The partition silences the
        // flood-ingress routers 7 and 13, whose queue reports carry
        // the congestion signal, across the first half of the attack.
        let steps = 3000;
        let (from, _) = CpnConfig::attack_window(steps);
        let mut wins = 0;
        for seed in 0..3u64 {
            let cfg = |comms| {
                let mut c = CpnConfig::contested(RoutingStrategy::Periodic { period: 50 }, steps);
                c.channel =
                    ChannelPlan::uniform(&SeedTree::new(seed ^ 0xC9), LinkModel::lossy(0.3))
                        .with_partition(from.value(), 750, vec![7, 13]);
                c.comms = comms;
                c
            };
            let naive = run_cpn(&cfg(CommsPolicy::Naive), &SeedTree::new(seed));
            let aware = run_cpn(&cfg(CommsPolicy::default()), &SeedTree::new(seed));
            let u_n = naive.metrics.get("utility").unwrap();
            let u_a = aware.metrics.get("utility").unwrap();
            if u_a > u_n {
                wins += 1;
            }
            assert!(
                aware.metrics.get("comms_partition_hits").unwrap() > 0.0,
                "partitioned reports must register"
            );
        }
        assert!(
            wins >= 2,
            "congestion pessimism should beat silent staleness ({wins}/3)"
        );
    }

    #[test]
    fn supervised_cpn_survives_model_corruption() {
        use workloads::faults::{FaultEvent, ModelCorruptionKind};
        let cfg = |strategy| {
            let mut c = CpnConfig::standard(strategy, 3000);
            c.faults = FaultPlan::none()
                .and(FaultEvent::model_corruption(
                    Tick(800),
                    0,
                    ModelCorruptionKind::NanPoison,
                ))
                .and(FaultEvent::model_corruption(
                    Tick(1900),
                    0,
                    ModelCorruptionKind::WeightScramble { gain: 50.0 },
                ));
            c
        };
        let sup = run_cpn(
            &cfg(RoutingStrategy::supervised_cpn_default()),
            &SeedTree::new(13),
        );
        let interventions = sup.metrics.get("model_rollbacks").unwrap()
            + sup.metrics.get("model_fallbacks").unwrap();
        assert!(
            interventions >= 1.0,
            "supervisor should intervene after corruption: {interventions}"
        );
        assert!(
            sup.metrics.get("delivery_ratio").unwrap() > 0.6,
            "supervised router should keep delivering: {:?}",
            sup.metrics.get("delivery_ratio")
        );
        let again = run_cpn(
            &cfg(RoutingStrategy::supervised_cpn_default()),
            &SeedTree::new(13),
        );
        assert_eq!(sup.metrics, again.metrics, "supervised runs deterministic");
    }
}
