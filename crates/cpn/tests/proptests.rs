//! Property-based tests for the network simulator's graph, routing and
//! packet-plane invariants.

use cpn::graph::Graph;
use cpn::net::{self, Arrival, Env, Net, Policy};
use cpn::routing::{Router, Routing, RoutingStrategy};
use proptest::prelude::*;
use rand::Rng as _;
use selfaware::explain::ExplanationLog;
use selfaware::supervision::Corruptible;
use simkernel::{SeedTree, Tick};
use std::collections::VecDeque;

/// Ticks a fallback-table case runs: ten 25-tick periods.
const FALLBACK_TICKS: u64 = 250;

/// Ticks a packet-plane case runs: long enough for a packet bouncing
/// at a dead destination to burn through either world's TTL.
const NET_TICKS: u64 = 150;

/// Plane values: `cpn::sim`'s, the city's, and a tight set under which
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

/// Asserts that the router in control picks `reference`'s next hop for
/// every (node, destination) pair.
fn assert_routes_like(g: &Graph, routing: &Routing, reference: &Router, t: u64) {
    // Table routers ignore `prev` and `smart` and draw nothing.
    let mut rng = SeedTree::new(0).rng("unused");
    for at in 0..g.len() {
        for dst in 0..g.len() {
            prop_assert_eq!(
                routing
                    .in_control()
                    .next_hop(g, at, dst, None, false, &mut rng),
                reference.next_hop(g, at, dst, None, false, &mut rng),
                "tick {}: from {} to {}",
                t,
                at,
                dst
            );
        }
    }
}

/// Whether the supervisor has the model benched.
fn benched(routing: &Routing) -> bool {
    let s = routing.slot().stats();
    s.fallbacks > s.repromotions
}

proptest! {
    #[test]
    fn grid_bfs_next_hops_strictly_approach_destination(
        rows in 1usize..6,
        cols in 1usize..6,
        dst_r in 0usize..6,
        dst_c in 0usize..6,
    ) {
        prop_assume!(dst_r < rows && dst_c < cols);
        let g = Graph::grid(rows, cols);
        let dst = dst_r * cols + dst_c;
        let next = g.bfs_next_hops(dst);
        let manhattan = |u: usize| {
            let (r, c) = (u / cols, u % cols);
            r.abs_diff(dst_r) + c.abs_diff(dst_c)
        };
        #[allow(clippy::needless_range_loop)] // u indexes next, dist and g together
        for u in 0..g.len() {
            if u == dst {
                prop_assert!(next[u].is_none());
            } else {
                let v = next[u].expect("grid is connected");
                prop_assert!(g.are_adjacent(u, v));
                prop_assert_eq!(manhattan(v) + 1, manhattan(u), "next hop must reduce distance");
            }
        }
    }

    #[test]
    fn weighted_next_hops_reach_destination(
        rows in 2usize..5,
        cols in 2usize..5,
        seed in any::<u64>(),
    ) {
        use rand::Rng as _;
        let g = Graph::grid(rows, cols);
        let dst = g.len() - 1;
        // Random positive weights.
        let mut rng = SeedTree::new(seed).rng("w");
        let mut weights = std::collections::HashMap::new();
        for u in 0..g.len() {
            for &v in g.neighbours(u) {
                weights.entry((u.min(v), u.max(v))).or_insert_with(|| rng.gen_range(0.5..5.0));
            }
        }
        let next = g.weighted_next_hops(dst, |u, v| weights[&(u.min(v), u.max(v))]);
        // Following next hops from any node terminates at dst without
        // revisiting a node (shortest-path trees are acyclic).
        for start in 0..g.len() {
            let mut at = start;
            let mut visited = std::collections::HashSet::new();
            while at != dst {
                prop_assert!(visited.insert(at), "cycle detected at node {at}");
                at = next[at].expect("connected");
            }
        }
    }

    #[test]
    fn grid_edge_count_formula(rows in 1usize..8, cols in 1usize..8) {
        let g = Graph::grid(rows, cols);
        prop_assert_eq!(g.len(), rows * cols);
        prop_assert_eq!(g.edge_count(), rows * (cols - 1) + cols * (rows - 1));
    }

    #[test]
    fn cpn_router_always_returns_a_neighbour(
        seed in any::<u64>(),
        at in 0usize..12,
        dst in 0usize..12,
        smart in any::<bool>(),
    ) {
        prop_assume!(at != dst);
        let g = Graph::grid(3, 4);
        let router = RoutingStrategy::cpn_default().build(&g);
        let mut rng = SeedTree::new(seed).rng("r");
        let hop = router.next_hop(&g, at, dst, None, smart, &mut rng);
        let v = hop.expect("connected graph must route");
        prop_assert!(g.are_adjacent(at, v));
    }

    // A supervised router builds its fallback table only when the
    // supervisor benches the model, from the link costs recorded at
    // the latest 25-tick boundary. Whenever that table routes, it must
    // route as a `Periodic { period: 25 }` router maintained every
    // tick does: queues refilled and links cut or restored between the
    // boundary and the take-over must not leak into it.
    //
    // Poisoning the model benches it (after a rollback when a
    // checkpoint exists); once healed, it wins re-promotion when its
    // backoff (20 ticks at first) runs out. Benches come before the
    // first boundary (`early`), twice
    // within one period (`pair_period`, the second as soon as the
    // first is re-promoted), and at random offsets later on.
    #[test]
    fn on_demand_fallback_table_routes_like_a_maintained_periodic_one(
        seed in any::<u64>(),
        early in 1u64..25,
        hold in 0u64..30,
        pair_period in 4u64..6,
        pair_offset in 0u64..3,
        later in proptest::collection::vec(0u64..25, 0..4),
    ) {
        let mut g = Graph::grid(4, 6);
        let n = g.len();
        let mut routing = Routing::new(RoutingStrategy::SupervisedCpn, &g, "r");
        let mut reference = RoutingStrategy::Periodic { period: 25 }.build(&g);
        let healthy = routing.model().clone();
        let routes = [(0, n - 1), (5, n - 6)];
        let mut log = ExplanationLog::new(64);
        let mut rng = SeedTree::new(seed).rng("world");
        let mut queues: Vec<Vec<usize>> =
            (0..n).map(|u| vec![0; g.neighbours(u).len()]).collect();
        let mut cut: Vec<(usize, usize)> = Vec::new();
        let pair_tick = pair_period * 25 + pair_offset;
        let mut requests: VecDeque<u64> = [early, pair_tick].into_iter().collect();
        requests.extend(later.iter().zip(6u64..).map(|(&off, p)| p * 25 + off));
        let (mut poison, mut pair_started, mut pair_second) = (false, false, false);
        let mut benches: Vec<u64> = Vec::new();
        let mut heal_at = None;
        for t in 0..FALLBACK_TICKS {
            let now = Tick(t);
            let mut cut_one = |g: &mut Graph, rng: &mut simkernel::rng::Rng| {
                let u = rng.gen_range(0..n);
                let v = g.neighbours(u)[rng.gen_range(0..g.neighbours(u).len())];
                if g.remove_edge(u, v) {
                    cut.push((u, v));
                }
            };
            // A due bench starts once the model is in control, with a
            // link cut that lands after the boundary it will route on.
            let due = requests.front().is_some_and(|&d| d <= t);
            if !benched(&routing) && !poison && (due || pair_second) {
                if pair_second {
                    pair_second = false;
                } else {
                    pair_started = requests.pop_front() == Some(pair_tick);
                }
                poison = true;
                cut_one(&mut g, &mut rng);
            }
            if rng.gen_bool(0.1) {
                cut_one(&mut g, &mut rng);
            }
            if !cut.is_empty() && rng.gen_bool(0.1) {
                let (u, v) = cut.swap_remove(rng.gen_range(0..cut.len()));
                g.restore_edge(u, v);
            }
            for q in queues.iter_mut().flatten() {
                *q = rng.gen_range(0..=60);
            }
            let qlen = |u: usize, v: usize| {
                let k = g.neighbours(u).iter().position(|&x| x == v).expect("neighbour");
                queues[u][k]
            };
            reference.maintain(&g, now, qlen);
            routing.maintain_baseline(&g, now, qlen);
            if benched(&routing) {
                assert_routes_like(&g, &routing, &reference, t);
            }
            if poison {
                routing.model_mut().poison();
            } else if heal_at == Some(t) {
                *routing.model_mut() = healthy.clone();
            }
            let was_benched = benched(&routing);
            routing.supervise(&g, now, Some(4.0), &routes, &mut log);
            if benched(&routing) {
                if !was_benched {
                    benches.push(t);
                    poison = false;
                    heal_at = Some(t + 1 + hold);
                    pair_second = std::mem::take(&mut pair_started);
                }
                assert_routes_like(&g, &routing, &reference, t);
            }
        }
        prop_assert!(benches.first().is_some_and(|&b| b < 25), "{:?}", benches);
        prop_assert!(
            benches.windows(2).any(|w| w[0] / 25 == w[1] / 25),
            "no two benches in one period: {:?}",
            benches
        );
    }

    // The packet plane loses no packet and breaks no bound under either
    // world's values or a tight set: after every tick each injected
    // packet is delivered, dropped or queued, no queue holds more than
    // its cap, and no queued or delivered packet's hop log is longer
    // than the TTL. Flows (some from a node to itself) run over random
    // link cuts and restores, and each directed link serves at a random
    // rate up to the full bandwidth, as an attack degrades it. The first
    // flow's destination is dead and bounces everything; the second
    // flow starts there, so its queues fill and bounces are dropped
    // too. A periodic table can lose its route across a partition, so
    // the no-next-hop drop runs as well.
    #[test]
    fn packet_plane_conserves_packets_and_keeps_its_bounds(
        seed in any::<u64>(),
        rows in 2usize..=5,
        cols in 2usize..=5,
        flows in proptest::collection::vec((any::<usize>(), any::<usize>(), 0.2f64..10.0), 2..6),
        faults in proptest::collection::vec((0u64..NET_TICKS, any::<usize>(), any::<bool>()), 0..10),
        rates in proptest::collection::vec(0usize..=net::BANDWIDTH, 64),
        policy in 0usize..3,
        strategy in 0usize..3,
    ) {
        let mut g = Graph::grid(rows, cols);
        let n = g.len();
        let policy = POLICIES[policy];
        let strategy = [
            RoutingStrategy::StaticShortest,
            RoutingStrategy::Periodic { period: 10 },
            RoutingStrategy::cpn_default(),
        ][strategy];
        let mut routing = Routing::new(strategy, &g, "net");
        let mut net: Net<()> = Net::new(&g, policy, rows + cols - 1);
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| g.neighbours(u).iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
            .collect();
        let dead = flows[0].1 % n;
        let flows: Vec<(usize, usize, f64)> = flows
            .iter()
            .enumerate()
            .map(|(i, &(src, dst, rate))| (if i == 1 { dead } else { src % n }, dst % n, rate))
            .collect();
        let seeds = SeedTree::new(seed);
        let (mut inject_rng, mut route_rng) = (seeds.rng("inject"), seeds.rng("route"));
        let (mut injected, mut delivered, mut dropped) = (0usize, 0usize, 0usize);
        for t in 0..NET_TICKS {
            let now = Tick(t);
            for &(at, e, cut) in &faults {
                let (a, b) = edges[e % edges.len()];
                if at == t && cut {
                    g.remove_edge(a, b);
                } else if at == t {
                    g.restore_edge(a, b);
                }
            }
            routing.model_mut().maintain(&g, now, |u, v| net.queue_len(&g, u, v));
            let mut env = Env {
                graph: &g,
                routing: &mut routing,
                rng: &mut route_rng,
                frozen: false,
                now,
            };
            for &(src, dst, rate) in &flows {
                for _ in 0..workloads::rates::poisson(rate, &mut inject_rng) {
                    injected += 1;
                    net.inject(&mut env, src, dst, (), |()| dropped += 1);
                }
            }
            let arrive = |pkt: &net::Packet<()>| {
                prop_assert!(pkt.hop_log.len() <= policy.ttl, "tick {}: {:?}", t, pkt);
                if pkt.dst == dead {
                    return Arrival::Bounce;
                }
                delivered += 1;
                Arrival::Deliver
            };
            let rate = |u, v| rates[(u * n + v) % rates.len()];
            net.step(&mut env, rate, arrive, |()| dropped += 1);
            let queued = net.packets().count();
            prop_assert_eq!(injected, delivered + dropped + queued, "tick {}", t);
            for u in 0..n {
                prop_assert!(net.queue_lens(u).all(|len| len <= policy.queue_cap), "tick {}", t);
            }
            prop_assert!(net.packets().all(|p| p.hop_log.len() <= policy.ttl), "tick {}", t);
        }
    }

    #[test]
    fn drop_reinforcement_monotonically_raises_estimates(
        n_drops in 1usize..30,
    ) {
        let g = Graph::grid(2, 3);
        let mut router = RoutingStrategy::Cpn { smart_ratio: 0.0, epsilon: 0.0 }.build(&g);
        let mut last = router.estimate(&g, 0, 1, 5).unwrap();
        for _ in 0..n_drops {
            router.reinforce_drop(&g, 0, 1, 5);
            let now = router.estimate(&g, 0, 1, 5).unwrap();
            prop_assert!(now >= last);
            prop_assert!(now <= cpn::routing::DROP_PENALTY + 1e-9);
            last = now;
        }
    }
}
