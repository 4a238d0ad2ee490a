//! Model check of the packet plane: over random grids, link cuts and
//! restores, injections, bouncing destinations, frozen windows and a
//! supervised model that gets benched onto its fallback table,
//! `cpn::net::Net` moves, delivers, drops and reinforces exactly as a
//! reference plane does, tick by tick.
//!
//! The reference is the plain form of the same transit: whole packets
//! in a `VecDeque` per link, found by node and neighbour index, a fresh
//! hop log per packet, and the live model reached through
//! `Routing::model_mut` on every reinforcement.

use cpn::graph::Graph;
use cpn::net::{self, Arrival, Env, Net, Packet, Policy};
use cpn::routing::{Routing, RoutingStrategy};
use proptest::prelude::*;
use rand::Rng as _;
use selfaware::explain::ExplanationLog;
use selfaware::replay::InterventionMask;
use selfaware::supervision::Corruptible;
use simkernel::{SeedTree, Tick};
use std::collections::VecDeque;

/// Ticks a case runs: long enough for a bounced packet to burn through
/// either world's TTL, and for a poisoned model to be benched and
/// re-promoted.
const TICKS: u64 = 150;

/// `cpn::sim`'s plane values, the city's, and a tight set under which
/// every bound bites within a few ticks.
const POLICIES: [Policy; 3] = [
    Policy {
        ttl: 64,
        queue_cap: 120,
        log_destination: true,
    },
    Policy {
        ttl: 48,
        queue_cap: 60,
        log_destination: false,
    },
    Policy {
        ttl: 6,
        queue_cap: 4,
        log_destination: true,
    },
];

/// The reference plane.
struct Reference<P> {
    policy: Policy,
    log_capacity: usize,
    queues: Vec<Vec<VecDeque<Packet<P>>>>,
    /// Links before node `u`'s first one: a hop log names node `u`'s
    /// `k`-th link by the slot `first[u] + k`.
    first: Vec<usize>,
}

impl<P> Reference<P> {
    fn new(graph: &Graph, policy: Policy, log_capacity: usize) -> Self {
        let queues = (0..graph.len())
            .map(|u| {
                graph
                    .neighbours(u)
                    .iter()
                    .map(|_| VecDeque::new())
                    .collect()
            })
            .collect();
        let first = (0..graph.len())
            .scan(0, |links, u| {
                let first = *links;
                *links += graph.neighbours(u).len();
                Some(first)
            })
            .collect();
        Self {
            policy,
            log_capacity,
            queues,
            first,
        }
    }

    fn punish(env: &mut Env<'_>, u: usize, v: usize, dst: usize) {
        if !env.frozen {
            env.routing.model_mut().reinforce_drop(env.graph, u, v, dst);
        }
    }

    fn room(&self, env: &mut Env<'_>, u: usize, v: usize, dst: usize) -> Option<usize> {
        let k = env.graph.neighbours(u).iter().position(|&x| x == v)?;
        if self.queues[u][k].len() < self.policy.queue_cap {
            Some(k)
        } else {
            Self::punish(env, u, v, dst);
            None
        }
    }

    fn shortest_queue(&self, v: usize) -> Option<usize> {
        self.queues[v]
            .iter()
            .map(VecDeque::len)
            .enumerate()
            .min_by_key(|&(k, len)| (len, k))
            .filter(|&(_, len)| len < self.policy.queue_cap)
            .map(|(k, _)| k)
    }

    fn inject(&mut self, env: &mut Env<'_>, src: usize, dst: usize, payload: P) -> Option<P> {
        let router = env.routing.in_control();
        let smart = router.is_smart(env.rng);
        let hop = router.next_hop(env.graph, src, dst, None, smart, env.rng);
        let Some(k) = hop.and_then(|v| self.room(env, src, v, dst)) else {
            return Some(payload);
        };
        let mut hop_log = Vec::with_capacity(self.log_capacity);
        hop_log.push((self.first[src] + k, env.now));
        self.queues[src][k].push_back(Packet {
            dst,
            smart,
            created: env.now,
            hop_log,
            payload,
        });
        None
    }

    fn step(
        &mut self,
        env: &mut Env<'_>,
        rate: impl Fn(usize, usize) -> usize,
        mut arrive: impl FnMut(&Packet<P>) -> Arrival,
        mut dropped: impl FnMut(&P),
    ) {
        let (graph, now) = (env.graph, env.now);
        let mut arrivals = Vec::new();
        for (u, links) in self.queues.iter_mut().enumerate() {
            for (k, q) in links.iter_mut().enumerate() {
                let v = graph.neighbours(u)[k];
                if graph.link_down(u, v) {
                    continue;
                }
                for _ in 0..rate(u, v) {
                    let Some(pkt) = q.pop_front() else { break };
                    arrivals.push((u, v, pkt));
                }
            }
        }
        for (u, v, mut pkt) in arrivals {
            if !env.frozen {
                let entered = pkt.hop_log.last().map_or(now, |&(_, at)| at);
                let hop_delay = now.value().saturating_sub(entered.value()) as f64;
                env.routing
                    .model_mut()
                    .reinforce_hop(graph, u, v, pkt.dst, hop_delay);
            }
            let at_dst = v == pkt.dst;
            if at_dst && arrive(&pkt) == Arrival::Deliver {
                if !env.frozen {
                    let (hops, arrived) = if self.policy.log_destination {
                        (&pkt.hop_log[..], now)
                    } else {
                        let (&(_, entered), hops) = pkt.hop_log.split_last().unwrap();
                        (hops, entered)
                    };
                    env.routing
                        .model_mut()
                        .reinforce_delivery(pkt.dst, hops, arrived);
                }
                continue;
            }
            if pkt.hop_log.len() >= self.policy.ttl {
                Self::punish(env, u, v, pkt.dst);
                dropped(&pkt.payload);
                continue;
            }
            let slot = if at_dst {
                self.shortest_queue(v)
            } else {
                let router = env.routing.in_control();
                let hop = router.next_hop(graph, v, pkt.dst, Some(u), pkt.smart, env.rng);
                hop.and_then(|w| self.room(env, v, w, pkt.dst))
            };
            let Some(k) = slot else {
                dropped(&pkt.payload);
                continue;
            };
            pkt.hop_log.push((self.first[v] + k, now));
            self.queues[v][k].push_back(pkt);
        }
    }
}

/// A plane under test: `Net` or the reference.
trait Plane {
    fn lens(&self, u: usize) -> Vec<usize>;
    fn len_to(&self, g: &Graph, u: usize, v: usize) -> usize;
    fn send(&mut self, env: &mut Env<'_>, src: usize, dst: usize, id: u64, dropped: &mut Vec<u64>);
    fn transit(
        &mut self,
        env: &mut Env<'_>,
        rate: &dyn Fn(usize, usize) -> usize,
        arrive: &mut dyn FnMut(&Packet<u64>) -> Arrival,
        dropped: &mut Vec<u64>,
    );
    fn queued(&self) -> Vec<Seen>;
}

/// What a queued packet is, field by field.
type Seen = (usize, bool, Tick, Vec<(usize, Tick)>, u64);

fn seen(pkt: &Packet<u64>) -> Seen {
    let log = pkt.hop_log.clone();
    (pkt.dst, pkt.smart, pkt.created, log, pkt.payload)
}

impl Plane for Net<u64> {
    fn lens(&self, u: usize) -> Vec<usize> {
        Net::queue_lens(self, u).collect()
    }

    fn len_to(&self, g: &Graph, u: usize, v: usize) -> usize {
        Net::queue_len(self, g, u, v)
    }

    fn send(&mut self, env: &mut Env<'_>, src: usize, dst: usize, id: u64, dropped: &mut Vec<u64>) {
        Net::inject(self, env, src, dst, id, |&id| dropped.push(id));
    }

    fn transit(
        &mut self,
        env: &mut Env<'_>,
        rate: &dyn Fn(usize, usize) -> usize,
        arrive: &mut dyn FnMut(&Packet<u64>) -> Arrival,
        dropped: &mut Vec<u64>,
    ) {
        Net::step(self, env, rate, arrive, |&id| dropped.push(id));
    }

    fn queued(&self) -> Vec<Seen> {
        Net::packets(self).map(seen).collect()
    }
}

impl Plane for Reference<u64> {
    fn lens(&self, u: usize) -> Vec<usize> {
        self.queues[u].iter().map(VecDeque::len).collect()
    }

    fn len_to(&self, g: &Graph, u: usize, v: usize) -> usize {
        let k = g.neighbours(u).iter().position(|&x| x == v);
        k.map_or(0, |k| self.queues[u][k].len())
    }

    fn send(&mut self, env: &mut Env<'_>, src: usize, dst: usize, id: u64, dropped: &mut Vec<u64>) {
        if let Some(id) = Reference::inject(self, env, src, dst, id) {
            dropped.push(id);
        }
    }

    fn transit(
        &mut self,
        env: &mut Env<'_>,
        rate: &dyn Fn(usize, usize) -> usize,
        arrive: &mut dyn FnMut(&Packet<u64>) -> Arrival,
        dropped: &mut Vec<u64>,
    ) {
        Reference::step(self, env, rate, arrive, |&id| dropped.push(id));
    }

    fn queued(&self) -> Vec<Seen> {
        self.queues.iter().flatten().flatten().map(seen).collect()
    }
}

/// One plane with its router, routing stream and supervision log, and
/// what it delivered and dropped in the current tick.
struct Side<N> {
    plane: N,
    routing: Routing,
    rng: simkernel::rng::Rng,
    log: ExplanationLog,
    delivered: Vec<u64>,
    dropped: Vec<u64>,
}

/// The world both planes see in one tick.
struct World<'a> {
    g: &'a Graph,
    now: Tick,
    frozen: bool,
    /// `(src, dst, id)` of each packet injected.
    injections: &'a [(usize, usize, u64)],
    rates: &'a [usize],
    /// A destination that bounces every packet this tick.
    dead: Option<usize>,
    routes: &'a [(usize, usize)],
}

impl<N: Plane> Side<N> {
    fn new(plane: N, routing: Routing, seeds: &SeedTree) -> Self {
        Self {
            plane,
            routing,
            rng: seeds.rng("route"),
            log: ExplanationLog::new(64),
            delivered: Vec::new(),
            dropped: Vec::new(),
        }
    }

    /// One tick as `cpn::sim` runs it: upkeep, injections, transit,
    /// supervision.
    fn tick(&mut self, w: &World<'_>) {
        let (g, now) = (w.g, w.now);
        self.delivered.clear();
        self.dropped.clear();
        let plane = &self.plane;
        let qlen = |u: usize, v: usize| plane.len_to(g, u, v);
        if !w.frozen {
            self.routing.model_mut().maintain(g, now, qlen);
        }
        self.routing.maintain_baseline(g, now, qlen);
        let mut env = Env {
            graph: g,
            routing: &mut self.routing,
            rng: &mut self.rng,
            frozen: w.frozen,
            now,
        };
        for &(src, dst, id) in w.injections {
            self.plane.send(&mut env, src, dst, id, &mut self.dropped);
        }
        let n = g.len();
        let rate = |u: usize, v: usize| w.rates[(u * n + v) % w.rates.len()];
        let (mut delay_sum, mut delay_n) = (0.0, 0u32);
        let delivered = &mut self.delivered;
        let mut arrive = |pkt: &Packet<u64>| {
            if w.dead == Some(pkt.dst) {
                return Arrival::Bounce;
            }
            delivered.push(pkt.payload);
            delay_sum += now.value().saturating_sub(pkt.created.value()).max(1) as f64;
            delay_n += 1;
            Arrival::Deliver
        };
        self.plane
            .transit(&mut env, &rate, &mut arrive, &mut self.dropped);
        let delay = (delay_n > 0).then(|| delay_sum / f64::from(delay_n));
        self.routing
            .supervise(g, now, delay, w.routes, &mut self.log);
    }
}

/// Every CPN estimate of the live model, as bits (a poisoned model
/// holds NaNs).
fn estimates(g: &Graph, routing: &Routing) -> Vec<Option<u64>> {
    let model = routing.model();
    let mut all = Vec::new();
    for u in 0..g.len() {
        for &v in g.neighbours(u) {
            for dst in 0..g.len() {
                all.push(model.estimate(g, u, v, dst).map(f64::to_bits));
            }
        }
    }
    all
}

/// Whether the supervisor has the model benched.
fn benched(routing: &Routing) -> bool {
    let s = routing.slot().stats();
    s.fallbacks > s.repromotions
}

proptest! {
    // Flows (some from a node to itself) run over random link cuts and
    // restores, and each directed link serves at a random rate up to
    // the full bandwidth. One destination bounces everything for a
    // window, and the model is frozen in up to three. A supervised
    // model is poisoned until the supervisor benches it onto its
    // fallback table, and healed 30 ticks later so that it can win
    // re-promotion. Hop logs start with room for 0 to 10 entries, so
    // some regrow and are not pooled.
    #[test]
    fn net_moves_packets_exactly_as_the_reference_plane(
        seed in any::<u64>(),
        rows in 2usize..=5,
        cols in 2usize..=5,
        flows in proptest::collection::vec((any::<usize>(), any::<usize>(), 0.2f64..6.0), 1..6),
        faults in proptest::collection::vec((0u64..TICKS, any::<usize>(), any::<bool>()), 0..12),
        rates in proptest::collection::vec(0usize..=net::BANDWIDTH, 64),
        bounce in (any::<usize>(), 0u64..TICKS, 0u64..TICKS),
        frozen in proptest::collection::vec((0u64..TICKS, 1u64..30), 0..3),
        poison_at in 0u64..TICKS,
        policy in 0usize..3,
        strategy in 0usize..4,
        log_capacity in 0usize..=10,
    ) {
        let mut g = Graph::grid(rows, cols);
        let n = g.len();
        let policy = POLICIES[policy];
        let strategy = [
            RoutingStrategy::StaticShortest,
            RoutingStrategy::Periodic { period: 10 },
            RoutingStrategy::cpn_default(),
            RoutingStrategy::SupervisedCpn,
        ][strategy];
        let routing = |g: &Graph| Routing::new(strategy, g, "net", InterventionMask::allow_all());
        let seeds = SeedTree::new(seed);
        let mut net = Side::new(Net::<u64>::new(&g, policy, log_capacity), routing(&g), &seeds);
        let mut reference =
            Side::new(Reference::<u64>::new(&g, policy, log_capacity), routing(&g), &seeds);
        let healthy = net.routing.model().clone();
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| g.neighbours(u).iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
            .collect();
        let (dead, dead_from, dead_for) = (bounce.0 % n, bounce.1, bounce.2);
        let routes = [(0, n - 1), (n - 1, 0)];
        let mut inject_rng = seeds.rng("inject");
        let mut injections = Vec::new();
        let mut heal_at = None;
        for t in 0..TICKS {
            for &(at, e, cut) in &faults {
                let (a, b) = edges[e % edges.len()];
                if at == t && cut {
                    g.remove_edge(a, b);
                } else if at == t {
                    g.restore_edge(a, b);
                }
            }
            if benched(&net.routing) && heal_at.is_none() {
                heal_at = Some(t + 30);
            }
            let poison = t >= poison_at && heal_at.is_none();
            for routing in [&mut net.routing, &mut reference.routing] {
                if poison {
                    routing.model_mut().poison();
                } else if heal_at == Some(t) {
                    *routing.model_mut() = healthy.clone();
                }
            }
            injections.clear();
            for &(src, dst, rate) in &flows {
                for _ in 0..workloads::rates::poisson(rate, &mut inject_rng) {
                    let id = injections.len() as u64 + t * 1_000;
                    injections.push((src % n, dst % n, id));
                }
            }
            let world = World {
                g: &g,
                now: Tick(t),
                frozen: frozen.iter().any(|&(from, len)| t >= from && t < from + len),
                injections: &injections,
                rates: &rates,
                dead: (t >= dead_from && t < dead_from + dead_for).then_some(dead),
                routes: &routes,
            };
            net.tick(&world);
            reference.tick(&world);
            prop_assert_eq!(&net.delivered, &reference.delivered, "tick {}: delivered", t);
            prop_assert_eq!(&net.dropped, &reference.dropped, "tick {}: dropped", t);
            for u in 0..n {
                prop_assert_eq!(
                    net.plane.lens(u),
                    reference.plane.lens(u),
                    "tick {}: queues at {}",
                    t,
                    u
                );
            }
            prop_assert_eq!(net.plane.queued(), reference.plane.queued(), "tick {}: packets", t);
            prop_assert_eq!(
                estimates(&g, &net.routing),
                estimates(&g, &reference.routing),
                "tick {}: estimates",
                t
            );
            prop_assert_eq!(net.routing.slot().stats(), reference.routing.slot().stats(), "tick {}", t);
            prop_assert_eq!(net.rng.gen::<u64>(), reference.rng.gen::<u64>(), "tick {}: draws", t);
        }
        prop_assert!(
            strategy != RoutingStrategy::SupervisedCpn || poison_at >= 100 || heal_at.is_some(),
            "a model poisoned from tick {} was never benched",
            poison_at
        );
    }
}
