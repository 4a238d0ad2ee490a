//! The packet plane: per-link queues, the serve step, forwarding with
//! its TTL, and the drop and reinforcement accounting.
//!
//! [`crate::sim`] (F2, A2, F8) and the composed city (F9, F10) both run
//! on a [`Net`]; what differs between them is each world's [`Policy`],
//! its service rate and its delivery hook. Random draws keep one order:
//! `is_smart` then `next_hop` at injection, links served in `(u, k)`
//! order, arrivals forwarded in the order they left their links.

use crate::graph::Graph;
use crate::routing::Routing;
use simkernel::rng::Rng;
use simkernel::Tick;
use std::collections::VecDeque;

/// Packets a link moves per tick when nothing degrades it.
pub const BANDWIDTH: usize = 3;

/// The values a world sets for its plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Most hop-log entries a queued packet may carry. A packet whose
    /// next queue would take its log past this is dropped.
    pub ttl: usize,
    /// Per-link queue capacity, packets.
    pub queue_cap: usize,
    /// Whether the hop log a delivered packet reinforces the router with
    /// ends with the destination; without it the final hop is not.
    pub log_destination: bool,
}

/// A packet in flight.
#[derive(Debug, Clone)]
pub struct Packet<P> {
    /// Destination node.
    pub dst: usize,
    /// Whether the packet explores (a CPN smart packet).
    pub smart: bool,
    /// Injection tick.
    pub created: Tick,
    /// `(node, tick it entered that node's queue)` per hop, source
    /// first, for reinforcement.
    pub hop_log: Vec<(usize, Tick)>,
    /// What the world carries in the packet.
    pub payload: P,
}

/// A world's answer for a packet that reached its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// The destination consumed the packet.
    Deliver,
    /// Nobody consumed it: the packet re-enters the mesh on the
    /// destination's shortest queue, under the same TTL.
    Bounce,
}

/// What the plane routes and reinforces with during one call.
pub struct Env<'a> {
    /// The topology, with its current link cuts.
    pub graph: &'a Graph,
    /// The router that picks hops and learns from them.
    pub routing: &'a mut Routing,
    /// The world's routing stream.
    pub rng: &'a mut Rng,
    /// While set, no reinforcement reaches the model.
    pub frozen: bool,
    /// The current tick.
    pub now: Tick,
}

impl Env<'_> {
    /// Punishes the hop `u → v` that lost a packet bound for `dst`.
    fn punish(&mut self, u: usize, v: usize, dst: usize) {
        if !self.frozen {
            self.routing
                .model_mut()
                .reinforce_drop(self.graph, u, v, dst);
        }
    }
}

/// Per-link packet queues over a [`Graph`].
#[derive(Debug, Clone)]
pub struct Net<P> {
    policy: Policy,
    /// Room each hop log is created with.
    log_capacity: usize,
    /// `queues[u][k]` holds the packets waiting at `u` for the link to
    /// its `k`-th neighbour.
    queues: Vec<Vec<VecDeque<Packet<P>>>>,
    /// Packets that left a link this tick, `(from, to, packet)`; reused
    /// every tick.
    arrivals: Vec<(usize, usize, Packet<P>)>,
}

impl<P> Net<P> {
    /// Empty queues on every link of `graph`. Each packet's hop log is
    /// created with room for `log_capacity` entries.
    #[must_use]
    pub fn new(graph: &Graph, policy: Policy, log_capacity: usize) -> Self {
        Self {
            policy,
            log_capacity,
            queues: (0..graph.len())
                .map(|u| {
                    graph
                        .neighbours(u)
                        .iter()
                        .map(|_| VecDeque::new())
                        .collect()
                })
                .collect(),
            arrivals: Vec::new(),
        }
    }

    /// Queue lengths at `u`, in [`Graph::neighbours`] order.
    pub fn queue_lens(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.queues[u].iter().map(VecDeque::len)
    }

    /// Packets waiting at `u` for the link to `v`; 0 if `v` is not a
    /// neighbour of `u`.
    #[must_use]
    pub fn queue_len(&self, graph: &Graph, u: usize, v: usize) -> usize {
        let k = graph.neighbours(u).iter().position(|&x| x == v);
        k.map_or(0, |k| self.queues[u][k].len())
    }

    /// Every queued packet.
    pub fn packets(&self) -> impl Iterator<Item = &Packet<P>> {
        self.queues.iter().flatten().flatten()
    }

    /// Injects a packet at `src` for `dst`: draws whether it is smart,
    /// then its first hop, and queues it there. It is dropped if there
    /// is no first hop, or if that link's queue is full, which punishes
    /// the hop. `dropped` sees the payload of a dropped packet.
    pub fn inject(
        &mut self,
        env: &mut Env<'_>,
        src: usize,
        dst: usize,
        payload: P,
        mut dropped: impl FnMut(&P),
    ) {
        let router = env.routing.in_control();
        let smart = router.is_smart(env.rng);
        let hop = router.next_hop(env.graph, src, dst, None, smart, env.rng);
        let Some(k) = hop.and_then(|v| self.room(env, src, v, dst)) else {
            dropped(&payload);
            return;
        };
        let mut hop_log = Vec::with_capacity(self.log_capacity);
        hop_log.push((src, env.now));
        self.queues[src][k].push_back(Packet {
            dst,
            smart,
            created: env.now,
            hop_log,
            payload,
        });
    }

    /// One tick of transit. Every link that is up moves up to
    /// `rate(u, v)` packets, while a cut link's queue stalls; each moved
    /// packet reinforces the hop it took. At its destination `arrive`
    /// delivers or bounces it; elsewhere it is forwarded. A packet is
    /// dropped, and `dropped` sees its payload, when one more hop would
    /// take its log past the TTL (punishing the hop that brought it),
    /// when its router finds no next hop, or when its next queue is
    /// full (punishing that hop, unless the packet was bounced).
    pub fn step(
        &mut self,
        env: &mut Env<'_>,
        rate: impl Fn(usize, usize) -> usize,
        mut arrive: impl FnMut(&Packet<P>) -> Arrival,
        mut dropped: impl FnMut(&P),
    ) {
        let (graph, now) = (env.graph, env.now);
        for (u, links) in self.queues.iter_mut().enumerate() {
            for (k, q) in links.iter_mut().enumerate() {
                let v = graph.neighbours(u)[k];
                if q.is_empty() || graph.link_down(u, v) {
                    continue;
                }
                let moved = std::iter::from_fn(|| q.pop_front()).take(rate(u, v));
                self.arrivals.extend(moved.map(|p| (u, v, p)));
            }
        }
        let mut arrivals = std::mem::take(&mut self.arrivals);
        for (u, v, mut pkt) in arrivals.drain(..) {
            let entered = pkt.hop_log.last().map_or(now, |&(_, at)| at);
            if !env.frozen {
                let hop_delay = now.value().saturating_sub(entered.value()) as f64;
                env.routing
                    .model_mut()
                    .reinforce_hop(graph, u, v, pkt.dst, hop_delay);
            }
            let at_dst = v == pkt.dst;
            if at_dst && arrive(&pkt) == Arrival::Deliver {
                if self.policy.log_destination {
                    pkt.hop_log.push((v, now));
                }
                if !env.frozen {
                    env.routing
                        .model_mut()
                        .reinforce_delivery(graph, pkt.dst, &pkt.hop_log);
                }
                continue;
            }
            if pkt.hop_log.len() >= self.policy.ttl {
                env.punish(u, v, pkt.dst);
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
            pkt.hop_log.push((v, now));
            self.queues[v][k].push_back(pkt);
        }
        self.arrivals = arrivals;
    }

    /// The index of `u`'s link to its neighbour `v` if that queue has
    /// room; `None`, punishing the hop, if it is full.
    fn room(&self, env: &mut Env<'_>, u: usize, v: usize, dst: usize) -> Option<usize> {
        let k = env.graph.neighbours(u).iter().position(|&x| x == v);
        let k = k.expect("a next hop is a neighbour");
        if self.queues[u][k].len() < self.policy.queue_cap {
            Some(k)
        } else {
            env.punish(u, v, dst);
            None
        }
    }

    /// The first of `v`'s shortest queues, if it has room.
    fn shortest_queue(&self, v: usize) -> Option<usize> {
        self.queue_lens(v)
            .enumerate()
            .min_by_key(|&(k, len)| (len, k))
            .filter(|&(_, len)| len < self.policy.queue_cap)
            .map(|(k, _)| k)
    }
}
