//! Routers: frozen shortest path, periodic re-routing, and CPN
//! reinforcement routing — plus [`Routing`], the optionally supervised
//! router a simulation trains and routes with.
//!
//! The CPN router follows the scheme the paper describes (Section III):
//! a small fraction of traffic is *smart packets* that explore; every
//! delivered packet's measured per-hop delays reinforce per-node,
//! per-destination next-hop estimates; dumb packets follow the current
//! best estimates. Drops are punished, so attacked/congested links are
//! unlearned quickly.

use crate::graph::Graph;
use rand::Rng as _;
use selfaware::explain::ExplanationLog;
use selfaware::replay::InterventionMask;
use selfaware::supervision::{Corruptible, Evidence, SelfModel, Verdict};
use simkernel::rng::Rng;
use simkernel::Tick;
use std::ops::Range;

/// Routing strategy selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingStrategy {
    /// Hop-count shortest paths computed once at start-up, never
    /// updated (the design-time baseline).
    StaticShortest,
    /// Queue-aware shortest paths recomputed every `period` ticks
    /// (the "periodic re-OSPF" middle ground).
    Periodic {
        /// Recomputation interval in ticks.
        period: u64,
    },
    /// Cognitive packet routing: reinforcement-learned next hops with
    /// a `smart_ratio` fraction of exploring packets.
    Cpn {
        /// Fraction of packets that explore (smart packets).
        smart_ratio: f64,
        /// Exploration rate of smart packets.
        epsilon: f64,
    },
    /// [`RoutingStrategy::cpn_default`]'s router under a
    /// meta-self-aware supervisor: the simulator watchdogs the learned
    /// delay estimates and falls back to periodic table routing while
    /// the model is benched (see [`Routing`]). Routing behaviour while
    /// healthy is identical to the unsupervised router's.
    SupervisedCpn,
}

impl RoutingStrategy {
    /// Canonical CPN configuration for F2.
    #[must_use]
    pub fn cpn_default() -> Self {
        RoutingStrategy::Cpn {
            smart_ratio: 0.1,
            epsilon: 0.1,
        }
    }

    /// Table label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            RoutingStrategy::StaticShortest => "static-shortest".into(),
            RoutingStrategy::Periodic { period } => format!("periodic({period})"),
            RoutingStrategy::Cpn { .. } => "cpn".into(),
            RoutingStrategy::SupervisedCpn => "supervised-cpn".into(),
        }
    }

    /// Instantiates the runtime router for `graph`.
    #[must_use]
    pub fn build(&self, graph: &Graph) -> Router {
        let live = |u: usize, v: usize| !graph.link_down(u, v);
        let start = slot_starts(graph);
        match *self {
            RoutingStrategy::StaticShortest => Router {
                kind: RouterKind::Table {
                    next: bfs_tables(graph, live),
                    period: None,
                },
                start,
            },
            RoutingStrategy::Periodic { period } => {
                assert!(period > 0, "period must be positive");
                Router {
                    kind: RouterKind::Table {
                        next: bfs_tables(graph, live),
                        period: Some(period),
                    },
                    start,
                }
            }
            RoutingStrategy::SupervisedCpn => RoutingStrategy::cpn_default().build(graph),
            RoutingStrategy::Cpn {
                smart_ratio,
                epsilon,
            } => {
                assert!(
                    (0.0..=1.0).contains(&smart_ratio),
                    "smart ratio must be in [0,1]"
                );
                assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
                // Optimistic init from hop counts so cold-start routes
                // are sensible.
                let n = graph.len();
                let slots = start[n];
                let mut cells = Vec::with_capacity(n * slots);
                for dst in 0..n {
                    let hops = hop_distances(graph, dst);
                    for u in 0..n {
                        cells.extend(graph.neighbours(u).iter().map(|&v| {
                            if hops[v] == usize::MAX {
                                1e6
                            } else {
                                (hops[v] + 1) as f64
                            }
                        }));
                    }
                }
                Router {
                    kind: RouterKind::Cpn {
                        q: QTable { cells, slots },
                        smart_ratio,
                        epsilon,
                        penalty: vec![0.0; n],
                    },
                    start,
                }
            }
        }
    }
}

/// Hop-count next-hop tables, `next[dst][node]`, over the links `up`
/// reports up.
fn bfs_tables<U: Fn(usize, usize) -> bool>(graph: &Graph, up: U) -> Vec<Vec<Option<usize>>> {
    (0..graph.len())
        .map(|dst| graph.bfs_next_hops_over(dst, &up))
        .collect()
}

/// Queue-aware next-hop tables, `next[dst][node]`, over the links `up`
/// reports up: a hop costs 1 plus a quarter of the queue
/// (`queue_len(u, v)`) it waits in. Periodic and fallback tables are
/// both built here.
fn weighted_tables<U, Q>(graph: &Graph, up: U, queue_len: Q) -> Vec<Vec<Option<usize>>>
where
    U: Fn(usize, usize) -> bool,
    Q: Fn(usize, usize) -> usize,
{
    (0..graph.len())
        .map(|dst| {
            graph.weighted_next_hops_over(dst, &up, |u, v| 1.0 + queue_len(u, v) as f64 / 4.0)
        })
        .collect()
}

/// Node `u`'s adjacency slots are `start[u]..start[u + 1]`, in
/// [`Graph::neighbours`] order; `start[n]` counts every slot. The slot
/// `start[u] + k` is the link from `u` to its `k`-th neighbour: a
/// router's estimates and the packet plane's queues share this layout.
pub(crate) fn slot_starts(graph: &Graph) -> Vec<usize> {
    let mut start = Vec::with_capacity(graph.len() + 1);
    start.push(0);
    for u in 0..graph.len() {
        start.push(start[u] + graph.neighbours(u).len());
    }
    start
}

fn hop_distances(graph: &Graph, dst: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.len()];
    let mut q = std::collections::VecDeque::new();
    dist[dst] = 0;
    q.push_back(dst);
    while let Some(u) = q.pop_front() {
        for &v in graph.neighbours(u) {
            if graph.link_down(u, v) {
                continue;
            }
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// CPN delay estimates in one slab: the cell of `(slot, dst)` is the
/// estimated remaining delay to `dst` over the link in adjacency slot
/// `slot` (see [`slot_starts`]). The cells of one destination are
/// contiguous, in slot order, so the cell sits at `dst * slots + slot`
/// and `(u, dst)`'s row starts at `dst * slots + start[u]`.
#[derive(Clone)]
struct QTable {
    cells: Vec<f64>,
    /// Adjacency slots of the graph the table was built for.
    slots: usize,
}

impl QTable {
    fn range(&self, start: &[usize], u: usize, dst: usize) -> Range<usize> {
        let base = dst * self.slots;
        base + start[u]..base + start[u + 1]
    }

    fn row(&self, start: &[usize], u: usize, dst: usize) -> &[f64] {
        &self.cells[self.range(start, u, dst)]
    }

    fn cell(&self, slot: usize, dst: usize) -> f64 {
        self.cells[dst * self.slots + slot]
    }

    fn cell_mut(&mut self, slot: usize, dst: usize) -> &mut f64 {
        &mut self.cells[dst * self.slots + slot]
    }
}

#[derive(Clone)]
enum RouterKind {
    Table {
        next: Vec<Vec<Option<usize>>>,
        period: Option<u64>,
    },
    Cpn {
        q: QTable,
        smart_ratio: f64,
        epsilon: f64,
        /// Transient per-router congestion penalty from the latest
        /// control-plane reports (see [`Router::set_congestion`]);
        /// all zeros when the control plane is ideal or absent.
        penalty: Vec<f64>,
    },
}

/// A runtime router.
///
/// `Clone` is a deep copy. The CPN delay estimates are one `f64` slab
/// indexed through per-node offsets, so a copy is a few allocations
/// and one memcpy whatever the graph's size. A supervisor owns the
/// live router (see [`Routing`]) and copies it only on the first write
/// after a checkpoint or restore.
#[derive(Clone)]
pub struct Router {
    kind: RouterKind,
    /// [`slot_starts`] of the graph the router was built for.
    start: Vec<usize>,
}

/// Penalty delay (ticks) learned for a hop that led to a drop.
pub const DROP_PENALTY: f64 = 200.0;

impl Router {
    /// Decides whether a freshly injected packet is a smart packet.
    /// Table routers have none: they answer `false` and draw nothing
    /// from `rng`.
    pub fn is_smart(&self, rng: &mut Rng) -> bool {
        match &self.kind {
            RouterKind::Table { .. } => false,
            RouterKind::Cpn { smart_ratio, .. } => rng.gen::<f64>() < *smart_ratio,
        }
    }

    /// Per-tick maintenance: periodic strategies recompute their
    /// tables from the live queue occupancy (`queue_len(u, v)`).
    pub fn maintain<Q: Fn(usize, usize) -> usize>(
        &mut self,
        graph: &Graph,
        now: Tick,
        queue_len: Q,
    ) {
        if let RouterKind::Table {
            next,
            period: Some(p),
        } = &mut self.kind
        {
            if now.value() > 0 && now.value().is_multiple_of(*p) {
                *next = weighted_tables(graph, |u, v| !graph.link_down(u, v), queue_len);
            }
        }
    }

    /// Installs the controller's believed per-router congestion as a
    /// *transient* decision-time penalty: a hop into router `v` costs
    /// its learned estimate plus `congestion[v]`. Unlike writing into
    /// the learned table, the penalty vanishes the moment fresher
    /// reports clear it — no re-learning needed when a jam moves or a
    /// partition heals. Table routers ignore this; they recompute
    /// from the same reports in [`Router::maintain`].
    pub fn set_congestion(&mut self, congestion: &[f64]) {
        if let RouterKind::Cpn { penalty, .. } = &mut self.kind {
            penalty.clear();
            penalty.extend_from_slice(congestion);
        }
    }

    /// Chooses the next hop for a packet at `at` heading to `dst`.
    /// `prev` is where the packet just came from (loop damping for
    /// learned routing); `smart` marks exploring packets.
    pub fn next_hop(
        &self,
        graph: &Graph,
        at: usize,
        dst: usize,
        prev: Option<usize>,
        smart: bool,
        rng: &mut Rng,
    ) -> Option<usize> {
        self.next_hop_slot(graph, at, dst, prev, smart, rng)
            .map(|(v, _)| v)
    }

    /// [`Router::next_hop`] together with the adjacency slot of the link
    /// it takes (see [`slot_starts`]), drawing the same numbers from
    /// `rng`. A table router finds the slot among `at`'s neighbours; a
    /// CPN router picks by slot and searches nothing.
    pub(crate) fn next_hop_slot(
        &self,
        graph: &Graph,
        at: usize,
        dst: usize,
        prev: Option<usize>,
        smart: bool,
        rng: &mut Rng,
    ) -> Option<(usize, usize)> {
        if at == dst {
            return None;
        }
        match &self.kind {
            RouterKind::Table { next, .. } => {
                let v = next[dst][at]?;
                Some((v, self.slot(graph, at, v)?))
            }
            RouterKind::Cpn {
                q,
                epsilon,
                penalty,
                ..
            } => {
                // CPN routers sense link liveness locally: cut edges
                // are never candidates, so packets detour immediately
                // (table routers keep pointing at the dead link until
                // the next recompute — or forever, for StaticShortest).
                let (neighbours, first) = (graph.neighbours(at), self.start[at]);
                let up = neighbours
                    .iter()
                    .filter(|&&v| !graph.link_down(at, v))
                    .count();
                if up == 0 {
                    return None;
                }
                let row = q.row(&self.start, at, dst);
                if smart && rng.gen::<f64>() < *epsilon {
                    let pick = rng.gen_range(0..up);
                    return neighbours
                        .iter()
                        .enumerate()
                        .filter(|&(_, &v)| !graph.link_down(at, v))
                        .nth(pick)
                        .map(|(k, &v)| (v, first + k));
                }
                // Prefer not to bounce straight back unless forced.
                let mut best: Option<(usize, f64)> = None;
                for (k, &v) in neighbours.iter().enumerate() {
                    if graph.link_down(at, v) {
                        continue;
                    }
                    if Some(v) == prev && up > 1 {
                        continue;
                    }
                    // A hop that terminates at `v` never waits in
                    // `v`'s outbound queues, so the congestion
                    // penalty does not apply to it.
                    let est = row[k] + if v == dst { 0.0 } else { penalty[v] };
                    if best.is_none_or(|(_, b)| est < b) {
                        best = Some((k, est));
                    }
                }
                best.map(|(k, _)| (neighbours[k], first + k))
            }
        }
    }

    /// The adjacency slot of the link from `u` to its neighbour `v`.
    fn slot(&self, graph: &Graph, u: usize, v: usize) -> Option<usize> {
        let k = graph.neighbours(u).iter().position(|&x| x == v)?;
        Some(self.start[u] + k)
    }

    /// Per-hop Q-routing update (Boyan & Littman): when a packet that
    /// entered `u`'s queue at some time arrives at `v` after
    /// `hop_delay` ticks, the estimate for `u → v` toward `dst` is
    /// pulled toward `hop_delay + min_w Q_v(dst, w)`. This propagates
    /// congestion information one hop per packet — fast enough to
    /// route around a forming hot-spot, unlike waiting for end-to-end
    /// delivery feedback.
    pub fn reinforce_hop(&mut self, graph: &Graph, u: usize, v: usize, dst: usize, hop_delay: f64) {
        if let Some(slot) = self.slot(graph, u, v) {
            self.reinforce_hop_slot(slot, v, dst, hop_delay);
        }
    }

    /// [`Router::reinforce_hop`] for the hop over the link in adjacency
    /// slot `slot`, which ends at `v`.
    pub(crate) fn reinforce_hop_slot(&mut self, slot: usize, v: usize, dst: usize, hop_delay: f64) {
        let RouterKind::Cpn { q, .. } = &mut self.kind else {
            return;
        };
        const ALPHA: f64 = 0.3;
        let downstream = if v == dst {
            0.0
        } else {
            q.row(&self.start, v, dst)
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
                .min(DROP_PENALTY)
        };
        let target = hop_delay.max(1.0) + downstream;
        let cell = q.cell_mut(slot, dst);
        *cell += ALPHA * (target - *cell);
    }

    /// Reinforces from a packet delivered to `dst`: `hops` holds
    /// `(slot, entered_at)` per hop it took, in order, and each hop is
    /// pulled toward the time from entering its queue to `arrived`. The
    /// slot names the hop's link: node `u`'s `k`-th link, in
    /// [`Graph::neighbours`] order, is slot `k` plus the degrees of the
    /// nodes before `u`, as in [`crate::net::Packet::hop_log`]. The
    /// packet plane passes every hop and the arrival tick under
    /// [`crate::net::Policy::log_destination`]; without it, as in the
    /// composed city, it leaves out the final hop and passes the tick
    /// the packet entered that hop's queue.
    pub fn reinforce_delivery(&mut self, dst: usize, hops: &[(usize, Tick)], arrived: Tick) {
        let RouterKind::Cpn { q, .. } = &mut self.kind else {
            return;
        };
        const ALPHA: f64 = 0.2;
        for &(slot, entered) in hops {
            let remaining = arrived.value().saturating_sub(entered.value()).max(1) as f64;
            let cell = q.cell_mut(slot, dst);
            *cell += ALPHA * (remaining - *cell);
        }
    }

    /// Punishes the hop that dropped a packet: the packet was at `u`
    /// heading to `v` toward `dst`.
    pub fn reinforce_drop(&mut self, graph: &Graph, u: usize, v: usize, dst: usize) {
        if let Some(slot) = self.slot(graph, u, v) {
            self.reinforce_drop_slot(slot, dst);
        }
    }

    /// [`Router::reinforce_drop`] for the hop over the link in adjacency
    /// slot `slot`.
    pub(crate) fn reinforce_drop_slot(&mut self, slot: usize, dst: usize) {
        let RouterKind::Cpn { q, .. } = &mut self.kind else {
            return;
        };
        const ALPHA: f64 = 0.3;
        let cell = q.cell_mut(slot, dst);
        *cell += ALPHA * (DROP_PENALTY - *cell);
    }

    /// Current delay estimate from `u` to `dst` via neighbour `v`
    /// (CPN only; `None` otherwise). Exposed for tests.
    #[must_use]
    pub fn estimate(&self, graph: &Graph, u: usize, v: usize, dst: usize) -> Option<f64> {
        match &self.kind {
            RouterKind::Cpn { q, .. } => self.slot(graph, u, v).map(|slot| q.cell(slot, dst)),
            RouterKind::Table { .. } => None,
        }
    }

    /// The model's best-case delay estimate from `src` to `dst`
    /// (minimum over next-hop candidates). NaN-propagating: one
    /// poisoned cell on the route makes the estimate NaN, so a
    /// supervisor watching this signal sees the corruption instead of
    /// a healthy-looking neighbour masking it. `None` for table
    /// routers (they hold no delay model).
    #[must_use]
    pub fn route_estimate(&self, src: usize, dst: usize) -> Option<f64> {
        let RouterKind::Cpn { q, .. } = &self.kind else {
            return None;
        };
        let row = q.row(&self.start, src, dst);
        if row.is_empty() {
            return None;
        }
        let mut best = f64::INFINITY;
        for &e in row {
            if e.is_nan() {
                return Some(f64::NAN);
            }
            best = best.min(e);
        }
        Some(best)
    }
}

/// Table routers hold no learned model: both faults leave them as
/// they are.
impl Corruptible for Router {
    /// Overwrites every learned delay estimate with NaN.
    fn poison(&mut self) {
        if let RouterKind::Cpn { q, .. } = &mut self.kind {
            q.cells.fill(f64::NAN);
        }
    }

    /// Inflates every learned delay estimate by `gain` plus a
    /// neighbour-index-dependent offset, which both perturbs the
    /// relative ordering the routing relies on and blows the estimates
    /// away from measured delays.
    fn scramble(&mut self, gain: f64) {
        if let RouterKind::Cpn { q, .. } = &mut self.kind {
            let nodes = self.start.len() - 1;
            for dst in 0..nodes {
                for u in 0..nodes {
                    let row = q.range(&self.start, u, dst);
                    for (k, cell) in q.cells[row].iter_mut().enumerate() {
                        *cell = *cell * gain + (k as f64 + 1.0) * gain;
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            RouterKind::Table { period: None, .. } => "StaticShortest",
            RouterKind::Table { .. } => "Periodic",
            RouterKind::Cpn { .. } => "Cpn",
        };
        f.debug_struct("Router").field("kind", &kind).finish()
    }
}

/// Period of the fallback table: while the model is benched, routes
/// follow the link costs of the latest multiple of this many ticks.
const FALLBACK_PERIOD: u64 = 25;

/// The router a simulation trains and routes with, alone or under
/// meta-self-awareness.
///
/// The router lives in a [`SelfModel`] slot: the simulation trains it
/// in place through [`Routing::model_mut`], so under a supervisor
/// ([`RoutingStrategy::SupervisedCpn`]) a checkpoint is an `Arc` pointer
/// bump and the only deep copy is the first write after a checkpoint or
/// restore. While the supervisor benches the model, a 25-tick periodic
/// table routes instead ([`Routing::in_control`]). That table is built
/// only when it is needed, from the link costs recorded at the latest
/// period boundary, so a run whose supervisor never benches the model
/// never builds it.
#[derive(Debug)]
pub struct Routing {
    slot: SelfModel<Router>,
    /// The fallback table's input, as of the latest period boundary.
    record: LinkRecord,
    /// The fallback table. Built from `record` when the model is
    /// benched and at each boundary while it stays benched; empty until
    /// the first bench.
    baseline: Router,
    /// EWMA of realized delivery delay: the supervisor's ground truth
    /// for the model's delay estimates.
    realized: Option<f64>,
}

/// The link costs a fallback table is built from, recorded at every
/// period boundary into one reused buffer. It reproduces the table a
/// [`RoutingStrategy::Periodic`] router maintained every tick would
/// hold.
#[derive(Debug)]
struct LinkRecord {
    /// Whether a boundary has been recorded. Until then the table is
    /// the hop-count one over the links up at construction.
    weighted: bool,
    /// [`slot_starts`] of the graph.
    start: Vec<usize>,
    /// Per adjacency slot: the queue feeding the link, or `None` while
    /// the link is down.
    links: Vec<Option<usize>>,
}

impl LinkRecord {
    /// Records `graph`'s links as they are at construction.
    fn new(graph: &Graph) -> Self {
        let mut record = Self {
            weighted: false,
            start: slot_starts(graph),
            links: Vec::new(),
        };
        record.fill(graph, |_, _| 0);
        record
    }

    /// Records a boundary: which links are up and the queue
    /// (`queue_len(u, v)`) feeding each.
    fn record<Q: Fn(usize, usize) -> usize>(&mut self, graph: &Graph, queue_len: Q) {
        self.weighted = true;
        self.fill(graph, queue_len);
    }

    fn fill<Q: Fn(usize, usize) -> usize>(&mut self, graph: &Graph, queue_len: Q) {
        self.links.clear();
        for u in 0..graph.len() {
            for &v in graph.neighbours(u) {
                self.links
                    .push((!graph.link_down(u, v)).then(|| queue_len(u, v)));
            }
        }
    }

    /// The recorded state of the link from `u` to its neighbour `v`.
    fn link(&self, graph: &Graph, u: usize, v: usize) -> Option<usize> {
        let k = graph.neighbours(u).iter().position(|&x| x == v)?;
        self.links[self.start[u] + k]
    }

    /// The next-hop tables of the record.
    fn table(&self, graph: &Graph) -> Vec<Vec<Option<usize>>> {
        let up = |u, v| self.link(graph, u, v).is_some();
        if self.weighted {
            weighted_tables(graph, up, |u, v| self.link(graph, u, v).unwrap_or(0))
        } else {
            bfs_tables(graph, up)
        }
    }
}

impl Routing {
    /// Builds `strategy`'s router on `graph`. A
    /// [`RoutingStrategy::SupervisedCpn`] router goes under a supervisor
    /// named `name` with counterfactual intervention `mask`, and gets a
    /// 25-tick periodic table as its fallback (built only when needed).
    #[must_use]
    pub fn new(
        strategy: RoutingStrategy,
        graph: &Graph,
        name: &str,
        mask: InterventionMask,
    ) -> Self {
        let supervised = strategy == RoutingStrategy::SupervisedCpn;
        let record = LinkRecord::new(graph);
        Self {
            slot: SelfModel::new(name, strategy.build(graph), supervised).with_mask(mask),
            baseline: Router {
                kind: RouterKind::Table {
                    next: Vec::new(),
                    period: Some(FALLBACK_PERIOD),
                },
                start: record.start.clone(),
            },
            record,
            realized: None,
        }
    }

    /// The live router's slot: its supervision counters and freeze, and
    /// where model corruptions land.
    #[must_use]
    pub fn slot(&self) -> &SelfModel<Router> {
        &self.slot
    }

    /// Mutable [`Routing::slot`].
    pub fn slot_mut(&mut self) -> &mut SelfModel<Router> {
        &mut self.slot
    }

    /// The live router.
    #[must_use]
    pub fn model(&self) -> &Router {
        self.slot.model()
    }

    /// Mutable access to the live router, for training — including
    /// while it is benched, so it can relearn.
    pub fn model_mut(&mut self) -> &mut Router {
        self.slot.model_mut()
    }

    /// The router that picks this tick's hops: the fallback table while
    /// the supervisor benches the model, the model otherwise. The table
    /// has no smart packets, so [`Router::is_smart`] on it is `false`
    /// and draws nothing.
    #[must_use]
    pub fn in_control(&self) -> &Router {
        if self.slot.is_fallback() {
            &self.baseline
        } else {
            self.slot.model()
        }
    }

    /// [`Routing::model_mut`] together with the fallback table while the
    /// supervisor benches the model, `None` otherwise: the router in
    /// control is the table if there is one and the model if not. A
    /// caller that trains and routes in one pass borrows both at once.
    pub(crate) fn model_mut_with_fallback(&mut self) -> (&mut Router, Option<&Router>) {
        let fallback = self.slot.is_fallback().then_some(&self.baseline);
        (self.slot.model_mut(), fallback)
    }

    /// Per-tick upkeep of the fallback table (a no-op unsupervised). At
    /// each period boundary it records which links are up and the queue
    /// (`queue_len(u, v)`) feeding each; while the model is benched it
    /// also rebuilds the table from that record.
    pub fn maintain_baseline<Q: Fn(usize, usize) -> usize>(
        &mut self,
        graph: &Graph,
        now: Tick,
        queue_len: Q,
    ) {
        if self.slot.is_supervised()
            && now.value() > 0
            && now.value().is_multiple_of(FALLBACK_PERIOD)
        {
            self.record.record(graph, queue_len);
            if self.slot.is_fallback() {
                self.build_baseline(graph);
            }
        }
    }

    /// Builds the fallback table from the latest record.
    fn build_baseline(&mut self, graph: &Graph) {
        self.baseline.kind = RouterKind::Table {
            next: self.record.table(graph),
            period: Some(FALLBACK_PERIOD),
        };
    }

    /// The meta-self-awareness step, once per tick after the tick's
    /// deliveries (a no-op unsupervised): folds `tick_delay`, the
    /// tick's mean realized delivery delay if anything was delivered,
    /// into the realized-delay EWMA, scores the model's mean best-case
    /// estimate over `routes` (`(src, dst)` pairs) against it, and lets
    /// the supervisor checkpoint, roll back or bench the model. A bench
    /// builds the fallback table on `graph` from the latest boundary's
    /// record.
    pub fn supervise(
        &mut self,
        graph: &Graph,
        now: Tick,
        tick_delay: Option<f64>,
        routes: &[(usize, usize)],
        log: &mut ExplanationLog,
    ) {
        if !self.slot.is_supervised() {
            return;
        }
        if let Some(mean) = tick_delay {
            self.realized = Some(match self.realized {
                Some(r) => 0.9 * r + 0.1 * mean,
                None => mean,
            });
        }
        let realized = self.realized.unwrap_or(0.0);
        let mut est_sum = 0.0;
        let mut est_n = 0u32;
        for &(src, dst) in routes {
            if let Some(e) = self.slot.model().route_estimate(src, dst) {
                est_sum += e;
                est_n += 1;
            }
        }
        let estimate = if est_n > 0 {
            est_sum / f64::from(est_n)
        } else {
            realized
        };
        let error = (estimate - realized).abs();
        let verdict = self.slot.observe(
            now,
            Evidence::scored(estimate, error).with_input(realized),
            log,
        );
        if matches!(verdict, Verdict::FellBack(_)) {
            self.build_baseline(graph);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfaware::supervision::SupervisionStats;

    fn rng() -> Rng {
        simkernel::SeedTree::new(17).rng("route")
    }

    #[test]
    fn static_router_follows_bfs() {
        let g = Graph::grid(3, 3);
        let r = RoutingStrategy::StaticShortest.build(&g);
        let mut rr = rng();
        let mut at = 0;
        let mut prev = None;
        let mut hops = 0;
        while at != 8 {
            let nxt = r.next_hop(&g, at, 8, prev, false, &mut rr).unwrap();
            prev = Some(at);
            at = nxt;
            hops += 1;
            assert!(hops <= 4);
        }
        assert_eq!(hops, 4);
        assert!(r.next_hop(&g, 8, 8, None, false, &mut rr).is_none());
    }

    #[test]
    fn cpn_initialises_to_sensible_routes() {
        let g = Graph::grid(3, 3);
        let r = RoutingStrategy::cpn_default().build(&g);
        let mut rr = rng();
        // Greedy (dumb) packets follow near-shortest paths cold.
        let nxt = r.next_hop(&g, 0, 8, None, false, &mut rr).unwrap();
        assert!(nxt == 1 || nxt == 3);
    }

    #[test]
    fn cpn_learns_to_avoid_punished_link() {
        let g = Graph::grid(3, 3);
        let mut r = RoutingStrategy::Cpn {
            smart_ratio: 0.0,
            epsilon: 0.0,
        }
        .build(&g);
        let mut rr = rng();
        // Punish the 0→1 hop toward 8 until it is unattractive.
        for _ in 0..20 {
            r.reinforce_drop(&g, 0, 1, 8);
        }
        assert_eq!(r.next_hop(&g, 0, 8, None, false, &mut rr), Some(3));
        assert!(r.estimate(&g, 0, 1, 8).unwrap() > 100.0);
    }

    /// The slot forms and the public ones agree on the layout: a hop's
    /// slot names the link to the hop, and reinforcing a hop moves the
    /// one estimate [`Router::estimate`] reads for it and no other.
    #[test]
    fn slot_forms_touch_exactly_the_hop_they_name() {
        let g = Graph::grid(3, 4);
        let n = g.len();
        let fresh = RoutingStrategy::cpn_default().build(&g);
        let estimates = |r: &Router| -> Vec<(usize, usize, usize, u64)> {
            (0..n)
                .flat_map(|u| g.neighbours(u).iter().map(move |&v| (u, v)))
                .flat_map(|(u, v)| (0..n).map(move |dst| (u, v, dst)))
                .map(|(u, v, dst)| (u, v, dst, r.estimate(&g, u, v, dst).unwrap().to_bits()))
                .collect()
        };
        let before = estimates(&fresh);
        let mut rr = rng();
        for u in 0..n {
            for dst in 0..n {
                if let Some((v, slot)) = fresh.next_hop_slot(&g, u, dst, None, true, &mut rr) {
                    assert_eq!(g.neighbours(u)[slot - fresh.start[u]], v);
                }
            }
            for &v in g.neighbours(u) {
                for dst in [0, v, n - 1] {
                    let mut hop = fresh.clone();
                    hop.reinforce_hop(&g, u, v, dst, 7.0);
                    let mut drop = fresh.clone();
                    drop.reinforce_drop(&g, u, v, dst);
                    for r in [&hop, &drop] {
                        let moved: Vec<_> = estimates(r)
                            .into_iter()
                            .zip(&before)
                            .filter(|(a, b)| a != *b)
                            .map(|(a, _)| (a.0, a.1, a.2))
                            .collect();
                        assert_eq!(moved, [(u, v, dst)]);
                    }
                }
            }
        }
    }

    #[test]
    fn cpn_delivery_reinforces_fast_paths() {
        let g = Graph::grid(1, 3); // line: 0-1-2
        let mut r = RoutingStrategy::cpn_default().build(&g);
        // Inflate the estimate with drops, then verify deliveries pull
        // it back toward the measured two-tick delay.
        for _ in 0..10 {
            r.reinforce_drop(&g, 0, 1, 2);
        }
        let inflated = r.estimate(&g, 0, 1, 2).unwrap();
        assert!(inflated > 50.0);
        let hops = [
            (r.slot(&g, 0, 1).unwrap(), Tick(0)),
            (r.slot(&g, 1, 2).unwrap(), Tick(1)),
        ];
        for _ in 0..60 {
            r.reinforce_delivery(2, &hops, Tick(2));
        }
        let after = r.estimate(&g, 0, 1, 2).unwrap();
        assert!((after - 2.0).abs() < 0.2, "estimate {after}");
    }

    #[test]
    fn cpn_avoids_immediate_backtrack() {
        let g = Graph::grid(1, 3);
        let r = RoutingStrategy::Cpn {
            smart_ratio: 0.0,
            epsilon: 0.0,
        }
        .build(&g);
        let mut rr = rng();
        // At node 1 coming from 0, heading to 0... only neighbour
        // options are 0 and 2; prev damping skips 0 — unless it is the
        // only way. Heading to dst=0 the best is still 0? prev=Some(0)
        // and len>1 means it picks 2. Heading to dst 2 from prev 0:
        let nxt = r.next_hop(&g, 1, 2, Some(0), false, &mut rr);
        assert_eq!(nxt, Some(2));
    }

    #[test]
    fn smart_packets_only_for_cpn() {
        let g = Graph::grid(2, 2);
        let mut rr = rng();
        let stat = RoutingStrategy::StaticShortest.build(&g);
        assert!(!stat.is_smart(&mut rr));
        let cpn = RoutingStrategy::Cpn {
            smart_ratio: 1.0,
            epsilon: 0.5,
        }
        .build(&g);
        assert!(cpn.is_smart(&mut rr));
    }

    #[test]
    fn periodic_reroutes_around_congestion() {
        let g = Graph::grid(3, 3);
        let mut r = RoutingStrategy::Periodic { period: 10 }.build(&g);
        let mut rr = rng();
        // Initially BFS may route 0→8 via 1. Congest every link out of
        // node 1 heavily and maintain at a period boundary.
        r.maintain(&g, Tick(10), |u, v| if u == 1 || v == 1 { 100 } else { 0 });
        let nxt = r.next_hop(&g, 0, 8, None, false, &mut rr).unwrap();
        assert_eq!(nxt, 3, "should avoid congested node 1");
    }

    #[test]
    fn cpn_routes_around_cut_links_immediately() {
        let mut g = Graph::grid(3, 3);
        let r = RoutingStrategy::Cpn {
            smart_ratio: 0.0,
            epsilon: 0.0,
        }
        .build(&g);
        let mut rr = rng();
        // Cold init would route 0→2 via 1; cut 0-1 and the router must
        // detour down through 3 without any learning.
        g.remove_edge(0, 1);
        assert_eq!(r.next_hop(&g, 0, 2, None, false, &mut rr), Some(3));
        // Fully isolated node: no hop at all.
        g.remove_edge(0, 3);
        assert_eq!(r.next_hop(&g, 0, 2, None, false, &mut rr), None);
        // Smart exploration also never picks a dead link.
        let smart = RoutingStrategy::Cpn {
            smart_ratio: 1.0,
            epsilon: 1.0,
        }
        .build(&g);
        g.restore_edge(0, 3);
        for _ in 0..20 {
            assert_eq!(smart.next_hop(&g, 0, 2, None, true, &mut rr), Some(3));
        }
    }

    #[test]
    fn table_router_keeps_pointing_at_cut_link_until_recompute() {
        let mut g = Graph::grid(3, 3);
        let mut r = RoutingStrategy::Periodic { period: 10 }.build(&g);
        let mut rr = rng();
        g.remove_edge(0, 1);
        g.remove_edge(0, 3);
        // Stale table still points somewhere (the dead link).
        assert!(r.next_hop(&g, 0, 8, None, false, &mut rr).is_some());
        // After recompute the isolated node has no route.
        r.maintain(&g, Tick(10), |_, _| 0);
        assert_eq!(r.next_hop(&g, 0, 8, None, false, &mut rr), None);
    }

    #[test]
    fn benched_routing_hands_hops_to_a_table_that_draws_nothing() {
        let g = Graph::grid(3, 3);
        let mask = InterventionMask::allow_all();
        let mut log = ExplanationLog::new(16);
        let mut plain = Routing::new(RoutingStrategy::cpn_default(), &g, "plain", mask);
        plain.supervise(&g, Tick(0), Some(4.0), &[(0, 8)], &mut log);
        assert!(!plain.slot().is_supervised());
        assert_eq!(plain.slot().stats(), SupervisionStats::default());

        let mut routing = Routing::new(RoutingStrategy::SupervisedCpn, &g, "r", mask);
        // A NaN estimate before any checkpoint benches the model at once.
        routing.model_mut().poison();
        routing.supervise(&g, Tick(0), Some(4.0), &[(0, 8)], &mut log);
        assert_eq!(routing.slot().stats().fallbacks, 1);
        let (mut drawn, mut fresh) = (rng(), rng());
        assert!(!routing.in_control().is_smart(&mut drawn));
        assert_eq!(
            drawn.gen::<u64>(),
            fresh.gen::<u64>(),
            "no draw while benched"
        );
        // No checkpoint to restore: the model stays poisoned, and the
        // table routes around it.
        assert!(routing
            .model()
            .route_estimate(0, 8)
            .is_some_and(f64::is_nan));
        assert!(routing
            .in_control()
            .next_hop(&g, 0, 8, None, false, &mut drawn)
            .is_some());
    }

    #[test]
    fn fallback_table_is_built_only_while_benched() {
        let g = Graph::grid(3, 3);
        let mut log = ExplanationLog::new(16);
        let mut routing = Routing::new(
            RoutingStrategy::SupervisedCpn,
            &g,
            "r",
            InterventionMask::allow_all(),
        );
        let table_len = |routing: &Routing| match &routing.baseline.kind {
            RouterKind::Table { next, .. } => next.len(),
            RouterKind::Cpn { .. } => unreachable!("the fallback is a table"),
        };
        for t in 0..100 {
            routing.maintain_baseline(&g, Tick(t), |_, _| 0);
            routing.supervise(&g, Tick(t), Some(4.0), &[(0, 8)], &mut log);
        }
        assert_eq!(routing.slot().stats().fallbacks, 0);
        assert_eq!(table_len(&routing), 0, "a healthy model never pays for it");
        // A rollback cures the first poisoning; the relapse benches.
        for t in [100, 101] {
            routing.model_mut().poison();
            routing.supervise(&g, Tick(t), Some(4.0), &[(0, 8)], &mut log);
        }
        assert_eq!(routing.slot().stats().rollbacks, 1);
        assert_eq!(routing.slot().stats().fallbacks, 1);
        assert_eq!(table_len(&routing), g.len(), "built at the bench");
    }

    #[test]
    fn labels() {
        assert_eq!(RoutingStrategy::StaticShortest.label(), "static-shortest");
        assert_eq!(
            RoutingStrategy::Periodic { period: 50 }.label(),
            "periodic(50)"
        );
        assert_eq!(RoutingStrategy::cpn_default().label(), "cpn");
    }
}
