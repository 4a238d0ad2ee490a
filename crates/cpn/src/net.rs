//! The packet plane: per-link queues, the serve step, forwarding with
//! its TTL, and the drop and reinforcement accounting.
//!
//! [`crate::sim`] (F2, A2, F8) and the composed city (F9, F10) both run
//! on a [`Net`]; what differs between them is each world's [`Policy`],
//! its service rate and its delivery hook. Random draws keep one order:
//! `is_smart` then `next_hop` at injection, links served in `(u, k)`
//! order, arrivals forwarded in the order they left their links.

use crate::graph::Graph;
use crate::routing::{Router, Routing};
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

/// Per-link packet queues over a [`Graph`].
///
/// Packets live in a slab and wait in the queues as `u32` handles, so a
/// hop moves a handle, not a packet. A delivered or dropped packet's
/// slot is reused by a later injection, and its hop log is cleared and
/// pooled for one.
#[derive(Debug, Clone)]
pub struct Net<P> {
    policy: Policy,
    /// `queues[u][k]` holds the handles of the packets waiting at `u` for
    /// the link to its `k`-th neighbour.
    queues: Vec<Vec<VecDeque<u32>>>,
    /// Handles of the packets that left a link this tick,
    /// `(from, to, handle)`; reused every tick.
    arrivals: Vec<(usize, usize, u32)>,
    /// The packets in flight.
    slab: Slab<P>,
}

impl<P> Net<P> {
    /// Empty queues on every link of `graph`. Each hop log is created
    /// with room for `log_capacity` entries; one that outgrows it is
    /// dropped, not pooled, when its packet leaves the plane.
    #[must_use]
    pub fn new(graph: &Graph, policy: Policy, log_capacity: usize) -> Self {
        Self {
            policy,
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
            slab: Slab {
                slots: Vec::new(),
                free: Vec::new(),
                logs: Vec::new(),
                log_capacity,
            },
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

    /// Every queued packet, link by link in `(u, k)` order, each queue
    /// front to back.
    pub fn packets(&self) -> impl Iterator<Item = &Packet<P>> {
        let packets = self.queues.iter().flatten().flatten();
        packets.map(|&h| self.slab.get(h))
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
        let Some(v) = hop else {
            dropped(&payload);
            return;
        };
        let cap = self.policy.queue_cap;
        let Some(k) = room(&self.queues[src], env.graph, src, v, cap) else {
            if !env.frozen {
                let model = env.routing.model_mut();
                model.reinforce_drop(env.graph, src, v, dst);
            }
            dropped(&payload);
            return;
        };
        let mut hop_log = self.slab.log();
        hop_log.push((src, env.now));
        let h = self.slab.insert(Packet {
            dst,
            smart,
            created: env.now,
            hop_log,
            payload,
        });
        self.queues[src][k].push_back(h);
    }

    /// One tick of transit. Every link that is up moves up to
    /// `rate(u, v)` packets, while a cut link's queue stalls; each moved
    /// packet reinforces the hop it took. At its destination `arrive`
    /// delivers or bounces it; elsewhere it is forwarded. A packet is
    /// dropped, and `dropped` sees its payload, when one more hop would
    /// take its log past the TTL (punishing the hop that brought it),
    /// when its router finds no next hop, or when its next queue is
    /// full (punishing that hop, unless the packet was bounced).
    ///
    /// A tick with arrivals borrows the live model for writing once,
    /// unless it is frozen.
    pub fn step(
        &mut self,
        env: &mut Env<'_>,
        rate: impl Fn(usize, usize) -> usize,
        mut arrive: impl FnMut(&Packet<P>) -> Arrival,
        mut dropped: impl FnMut(&P),
    ) {
        let (graph, now) = (env.graph, env.now);
        let Self {
            policy,
            queues,
            arrivals,
            slab,
        } = self;
        for (u, links) in queues.iter_mut().enumerate() {
            for (k, q) in links.iter_mut().enumerate() {
                let v = graph.neighbours(u)[k];
                if q.is_empty() || graph.link_down(u, v) {
                    continue;
                }
                let moved = q.drain(..rate(u, v).min(q.len()));
                arrivals.extend(moved.map(|h| (u, v, h)));
            }
        }
        if arrivals.is_empty() {
            return;
        }
        let mut routers = Routers::borrow(env.routing, env.frozen);
        for (u, v, h) in arrivals.drain(..) {
            let pkt = slab.get_mut(h);
            let dst = pkt.dst;
            if let Some(model) = routers.model() {
                let entered = pkt.hop_log.last().map_or(now, |&(_, at)| at);
                let hop_delay = now.value().saturating_sub(entered.value()) as f64;
                model.reinforce_hop(graph, u, v, dst, hop_delay);
            }
            let at_dst = v == dst;
            if at_dst && arrive(pkt) == Arrival::Deliver {
                if policy.log_destination {
                    pkt.hop_log.push((v, now));
                }
                if let Some(model) = routers.model() {
                    model.reinforce_delivery(graph, dst, &pkt.hop_log);
                }
                slab.remove(h);
                continue;
            }
            if pkt.hop_log.len() >= policy.ttl {
                if let Some(model) = routers.model() {
                    model.reinforce_drop(graph, u, v, dst);
                }
                dropped(&slab.remove(h));
                continue;
            }
            let slot = if at_dst {
                shortest_queue(&queues[v], policy.queue_cap)
            } else {
                let router = routers.in_control();
                let hop = router.next_hop(graph, v, dst, Some(u), pkt.smart, env.rng);
                hop.and_then(|w| {
                    let k = room(&queues[v], graph, v, w, policy.queue_cap);
                    if let (None, Some(model)) = (k, routers.model()) {
                        model.reinforce_drop(graph, v, w, dst);
                    }
                    k
                })
            };
            let Some(k) = slot else {
                dropped(&slab.remove(h));
                continue;
            };
            pkt.hop_log.push((v, now));
            queues[v][k].push_back(h);
        }
    }
}

/// The index of `u`'s link to its neighbour `v` if that link's queue,
/// among `u`'s `links`, holds fewer than `cap` packets.
fn room(links: &[VecDeque<u32>], graph: &Graph, u: usize, v: usize, cap: usize) -> Option<usize> {
    let k = graph.neighbours(u).iter().position(|&x| x == v);
    let k = k.expect("a next hop is a neighbour");
    (links[k].len() < cap).then_some(k)
}

/// The first of a node's shortest link queues, if it holds fewer than
/// `cap` packets.
fn shortest_queue(links: &[VecDeque<u32>], cap: usize) -> Option<usize> {
    links
        .iter()
        .map(VecDeque::len)
        .enumerate()
        .min_by_key(|&(k, len)| (len, k))
        .filter(|&(_, len)| len < cap)
        .map(|(k, _)| k)
}

/// The routers one [`Net::step`] works with, borrowed once a tick.
enum Routers<'r> {
    /// The model is frozen: nothing is reinforced, and the router in
    /// control picks the hops.
    Frozen(&'r Router),
    /// The live model, reinforced, which picks the hops itself unless
    /// the supervisor has benched it onto its `fallback` table.
    Live {
        model: &'r mut Router,
        fallback: Option<&'r Router>,
    },
}

impl<'r> Routers<'r> {
    fn borrow(routing: &'r mut Routing, frozen: bool) -> Self {
        if frozen {
            Routers::Frozen(routing.in_control())
        } else {
            let (model, fallback) = routing.model_mut_with_fallback();
            Routers::Live { model, fallback }
        }
    }

    /// The router that picks this tick's hops.
    fn in_control(&self) -> &Router {
        match self {
            Routers::Frozen(router)
            | Routers::Live {
                fallback: Some(router),
                ..
            } => router,
            Routers::Live { model, .. } => model,
        }
    }

    /// The model to reinforce; `None` while it is frozen.
    fn model(&mut self) -> Option<&mut Router> {
        match self {
            Routers::Frozen(_) => None,
            Routers::Live { model, .. } => Some(model),
        }
    }
}

/// The packets in flight by handle, the free list of their slots, and a
/// pool of cleared hop logs.
#[derive(Debug, Clone)]
struct Slab<P> {
    slots: Vec<Option<Packet<P>>>,
    /// Handles of the empty slots.
    free: Vec<u32>,
    /// Cleared hop logs, none with more room than `log_capacity`.
    logs: Vec<Vec<(usize, Tick)>>,
    /// Room a new hop log is created with.
    log_capacity: usize,
}

impl<P> Slab<P> {
    /// An empty hop log: a pooled one, else a new one with room for
    /// `log_capacity` entries.
    fn log(&mut self) -> Vec<(usize, Tick)> {
        let capacity = self.log_capacity;
        self.logs
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(capacity))
    }

    /// Stores `pkt` in a free slot and returns its handle.
    fn insert(&mut self, pkt: Packet<P>) -> u32 {
        if let Some(h) = self.free.pop() {
            self.slots[h as usize] = Some(pkt);
            return h;
        }
        let h = u32::try_from(self.slots.len()).expect("fewer than 2^32 packets in flight");
        self.slots.push(Some(pkt));
        h
    }

    fn get(&self, h: u32) -> &Packet<P> {
        self.slots[h as usize]
            .as_ref()
            .expect("a queued handle holds a packet")
    }

    fn get_mut(&mut self, h: u32) -> &mut Packet<P> {
        self.slots[h as usize]
            .as_mut()
            .expect("a queued handle holds a packet")
    }

    /// Frees `h`'s slot and returns its packet's payload. The hop log is
    /// pooled unless it grew past `log_capacity`, as a bounced packet's
    /// may; such a log is dropped.
    fn remove(&mut self, h: u32) -> P {
        let pkt = self.slots[h as usize]
            .take()
            .expect("a queued handle holds a packet");
        self.free.push(h);
        let mut log = pkt.hop_log;
        if log.capacity() <= self.log_capacity {
            log.clear();
            self.logs.push(log);
        }
        pkt.payload
    }
}
