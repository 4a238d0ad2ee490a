//! The node pool: churn, dispatch and processing for one tick.

use crate::node::{Node, NodeSpec};
use crate::request::{Request, RequestOutcome};
use simkernel::rng::{Rng, SeedTree};
use simkernel::Tick;

/// A pool of worker nodes plus a rented-subset marker.
///
/// "Renting" models elastic capacity: only rented nodes may receive
/// new work, and cost accrues per rented-node-tick. All nodes continue
/// to churn whether rented or not.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    rented: Vec<bool>,
    rng: Rng,
    rented_node_ticks: u64,
}

impl Cluster {
    /// Builds a cluster from specs; all nodes start rented.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    #[must_use]
    pub fn new(specs: Vec<NodeSpec>, seeds: &SeedTree) -> Self {
        assert!(!specs.is_empty(), "need at least one node");
        let n = specs.len();
        Self {
            nodes: specs.into_iter().map(Node::new).collect(),
            rented: vec![true; n],
            rng: seeds.rng("cluster"),
            rented_node_ticks: 0,
        }
    }

    /// Standard heterogeneous volunteer pool: `n` nodes alternating
    /// between reliable fast nodes and flaky volunteers, capacities
    /// spread geometrically.
    #[must_use]
    pub fn standard_pool(n: usize, seeds: &SeedTree) -> Self {
        assert!(n > 0, "need at least one node");
        let specs = (0..n)
            .map(|i| {
                let capacity = 1.0 + (i % 4) as f64; // 1..4 work units/tick
                if i % 3 == 0 {
                    NodeSpec::reliable(capacity)
                } else {
                    NodeSpec::volunteer(capacity)
                }
            })
            .collect();
        Self::new(specs, seeds)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to node `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Marks nodes `0..k` rented and releases the rest. Strategies
    /// that want a non-prefix subset use [`Cluster::set_rented`].
    pub fn rent_first(&mut self, k: usize) {
        for (i, r) in self.rented.iter_mut().enumerate() {
            *r = i < k;
        }
    }

    /// Sets the rented flag of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set_rented(&mut self, i: usize, rented: bool) {
        self.rented[i] = rented;
    }

    /// Number of currently rented nodes.
    #[must_use]
    pub fn rented_count(&self) -> usize {
        self.rented.iter().filter(|&&r| r).count()
    }

    /// Indices of nodes that are rented **and** online (the dispatch
    /// candidates for stimulus-aware strategies).
    #[must_use]
    pub fn dispatchable(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.rented[i] && self.nodes[i].is_online())
            .collect()
    }

    /// Indices of rented nodes regardless of liveness (what a
    /// stimulus-*unaware* controller believes it can use).
    #[must_use]
    pub fn rented_indices(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.rented[i]).collect()
    }

    /// Accumulated rented-node-ticks (the cost integral).
    #[must_use]
    pub fn rented_node_ticks(&self) -> u64 {
        self.rented_node_ticks
    }

    /// Dispatches `req` to node `i`, blind to liveness (the request is
    /// lost if the node is offline). Returns the loss outcome if so.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn dispatch(&mut self, i: usize, req: Request, now: Tick) -> Option<RequestOutcome> {
        self.nodes[i].enqueue_blind(req, now, i)
    }

    /// Forces a zone outage: nodes `first .. first + count` (clamped
    /// to the pool) go offline until `until`, dropping their queues.
    /// Returns the losses. See [`Node::force_offline`] for semantics.
    pub fn force_outage(
        &mut self,
        first: usize,
        count: usize,
        until: Tick,
        now: Tick,
    ) -> Vec<RequestOutcome> {
        let end = first.saturating_add(count).min(self.nodes.len());
        let mut outcomes = Vec::new();
        for i in first.min(self.nodes.len())..end {
            outcomes.extend(self.nodes[i].force_offline(now, i, until));
        }
        outcomes
    }

    /// Advances churn and processing for one tick; accrues rental
    /// cost; returns all terminal outcomes.
    pub fn step(&mut self, now: Tick) -> Vec<RequestOutcome> {
        let mut outcomes = Vec::new();
        self.step_into(now, &mut outcomes);
        outcomes
    }

    /// [`Cluster::step`] appending outcomes into `out` instead of
    /// allocating: the simulation tick loop hands the same buffer in
    /// every tick, so steady-state churn/processing performs no
    /// per-node or per-tick outcome allocation.
    pub fn step_into(&mut self, now: Tick, out: &mut Vec<RequestOutcome>) {
        self.rented_node_ticks += self.rented_count() as u64;
        for i in 0..self.nodes.len() {
            self.nodes[i].churn_step_into(now, i, &mut self.rng, out);
        }
        for i in 0..self.nodes.len() {
            self.nodes[i].process_step_into(now, i, &mut self.rng, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> SeedTree {
        SeedTree::new(55)
    }

    fn stable_cluster(n: usize) -> Cluster {
        let specs = (0..n).map(|_| NodeSpec::new(2.0, 0.0, 0.0, 1.0)).collect();
        Cluster::new(specs, &seeds())
    }

    #[test]
    fn dispatch_and_complete() {
        let mut c = stable_cluster(2);
        assert!(c
            .dispatch(0, Request::new(0, 2.0, Tick(0), 10), Tick(0))
            .is_none());
        let out = c.step(Tick(1));
        assert_eq!(out.len(), 1);
        assert!(out[0].completed());
    }

    #[test]
    fn renting_controls_candidates_and_cost() {
        let mut c = stable_cluster(4);
        assert_eq!(c.rented_count(), 4);
        c.rent_first(2);
        assert_eq!(c.rented_count(), 2);
        assert_eq!(c.dispatchable(), vec![0, 1]);
        assert_eq!(c.rented_indices(), vec![0, 1]);
        c.step(Tick(1));
        c.step(Tick(2));
        assert_eq!(c.rented_node_ticks(), 4);
        c.set_rented(3, true);
        assert_eq!(c.rented_indices(), vec![0, 1, 3]);
        assert_eq!(c.dispatchable(), vec![0, 1, 3]);
    }

    #[test]
    fn capacities_aggregate() {
        let c = stable_cluster(3);
        let capacity: f64 = c
            .dispatchable()
            .iter()
            .map(|&i| c.node(i).spec().capacity)
            .sum();
        let backlog: f64 = c.dispatchable().iter().map(|&i| c.node(i).backlog()).sum();
        assert!((capacity - 6.0).abs() < 1e-12);
        assert_eq!(backlog, 0.0);
    }

    #[test]
    fn standard_pool_is_heterogeneous() {
        let c = Cluster::standard_pool(8, &seeds());
        assert_eq!(c.len(), 8);
        let caps: std::collections::HashSet<u64> =
            (0..8).map(|i| c.node(i).spec().capacity as u64).collect();
        assert!(caps.len() > 1, "capacities should vary");
    }

    #[test]
    fn offline_dispatch_is_lost() {
        // Node that churns off immediately.
        let specs = vec![NodeSpec::new(1.0, 0.0, 1.0, 0.0)];
        let mut c = Cluster::new(specs, &seeds());
        c.step(Tick(0)); // churns the node off
        assert!(c.dispatchable().is_empty());
        let out = c.dispatch(0, Request::new(0, 1.0, Tick(1), 5), Tick(1));
        assert!(matches!(out, Some(RequestOutcome::Failed { .. })));
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed: u64| {
            let mut c = Cluster::standard_pool(6, &SeedTree::new(seed));
            let mut total = 0u64;
            for t in 0..200u64 {
                if t % 3 == 0 {
                    let targets = c.dispatchable();
                    if let Some(&i) = targets.first() {
                        c.dispatch(i, Request::new(t, 2.0, Tick(t), 20), Tick(t));
                    }
                }
                total += c.step(Tick(t)).len() as u64;
            }
            total
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn zone_outage_takes_block_down_and_repairs_on_time() {
        let mut c = stable_cluster(6);
        c.dispatch(1, Request::new(0, 50.0, Tick(0), 99), Tick(0));
        let lost = c.force_outage(1, 3, Tick(5), Tick(0));
        assert_eq!(lost.len(), 1, "queued work in the zone is lost");
        assert_eq!(c.dispatchable(), vec![0, 4, 5]);
        // churn_on = 1.0 in stable_cluster, yet the zone stays down.
        c.step(Tick(1));
        assert_eq!(c.dispatchable(), vec![0, 4, 5]);
        c.step(Tick(5));
        assert_eq!(c.dispatchable(), vec![0, 1, 2, 3, 4, 5]);
        // Out-of-range zones clamp instead of panicking.
        assert!(c.force_outage(4, 99, Tick(9), Tick(6)).is_empty());
        assert_eq!(c.dispatchable(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "need at least one node")]
    fn empty_cluster_panics() {
        let _ = Cluster::new(vec![], &seeds());
    }
}
