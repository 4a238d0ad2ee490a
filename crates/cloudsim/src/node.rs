//! Worker nodes: heterogeneous, unreliable, churning.
//!
//! A volunteer node (paper refs 14, 15) differs from a datacenter
//! machine in three ways this model captures: capacity varies widely
//! across nodes (heterogeneity), a node may silently lose work
//! (unreliability), and nodes come and go on their own schedule
//! (churn, modelled as a two-state Markov process).

use crate::request::{Request, RequestOutcome};
use rand::Rng as _;
use serde::{Deserialize, Serialize};
use simkernel::rng::Rng;
use simkernel::Tick;
use std::collections::VecDeque;

/// Static description of a node (the "design-time" view).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Work units processed per tick while online.
    pub capacity: f64,
    /// Probability per busy tick of losing the in-service request.
    pub failure_prob: f64,
    /// Probability per tick of going offline while online.
    pub churn_off: f64,
    /// Probability per tick of coming back while offline.
    pub churn_on: f64,
}

impl NodeSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `capacity <= 0` or any probability is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(capacity: f64, failure_prob: f64, churn_off: f64, churn_on: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        for (name, p) in [
            ("failure_prob", failure_prob),
            ("churn_off", churn_off),
            ("churn_on", churn_on),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1]");
        }
        Self {
            capacity,
            failure_prob,
            churn_off,
            churn_on,
        }
    }

    /// A reliable datacenter-grade node.
    #[must_use]
    pub fn reliable(capacity: f64) -> Self {
        Self::new(capacity, 0.0005, 0.0005, 0.2)
    }

    /// A flaky volunteer node.
    #[must_use]
    pub fn volunteer(capacity: f64) -> Self {
        Self::new(capacity, 0.01, 0.01, 0.05)
    }
}

/// Why an enqueue was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// The node is offline; the request was not accepted.
    NodeOffline,
}

impl std::fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnqueueError::NodeOffline => write!(f, "cannot enqueue on an offline node"),
        }
    }
}

impl std::error::Error for EnqueueError {}

/// A live node: spec + queue + online state.
#[derive(Debug, Clone)]
pub struct Node {
    spec: NodeSpec,
    online: bool,
    queue: VecDeque<(Request, f64)>, // (request, remaining work)
    /// When set, the node is pinned offline by an injected fault until
    /// this tick; stochastic churn cannot bring it back early.
    forced_until: Option<Tick>,
}

impl Node {
    /// Creates an online, idle node.
    #[must_use]
    pub fn new(spec: NodeSpec) -> Self {
        Self {
            spec,
            online: true,
            queue: VecDeque::new(),
            forced_until: None,
        }
    }

    /// The node's static spec.
    #[must_use]
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Whether the node is currently online.
    #[must_use]
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Queue length (including the in-service request).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total queued work remaining, in work units.
    #[must_use]
    pub fn backlog(&self) -> f64 {
        self.queue.iter().map(|(_, w)| w).sum()
    }

    /// Estimated ticks to drain the backlog at full capacity.
    #[must_use]
    pub fn drain_time(&self) -> f64 {
        self.backlog() / self.spec.capacity
    }

    /// Enqueues a request. Fails with [`EnqueueError::NodeOffline`]
    /// (leaving the request unaccepted, to be retried or counted lost
    /// by the caller) if the node is offline — dispatchers should not
    /// route to offline nodes; stimulus-unaware baselines that cannot
    /// see node state and want offline submissions to *lose* the
    /// request should call [`Node::enqueue_blind`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueError::NodeOffline`] if the node is offline.
    pub fn enqueue(&mut self, req: Request) -> Result<(), EnqueueError> {
        if !self.online {
            return Err(EnqueueError::NodeOffline);
        }
        self.queue.push_back((req, req.work));
        Ok(())
    }

    /// Enqueues without checking liveness: if the node is offline the
    /// request is immediately lost. Returns the failure outcome in
    /// that case.
    pub fn enqueue_blind(
        &mut self,
        req: Request,
        now: Tick,
        node_id: usize,
    ) -> Option<RequestOutcome> {
        if self.online {
            self.queue.push_back((req, req.work));
            None
        } else {
            Some(RequestOutcome::Failed {
                request: req,
                at: now,
                node: node_id,
            })
        }
    }

    /// Pins the node offline until `until` (an injected outage, e.g. a
    /// zone failure): the queue is dropped and the losses returned,
    /// and stochastic churn cannot bring the node back before `until`.
    /// At `until` the node deterministically comes back online —
    /// forced outages have a known repair time, unlike churn.
    pub fn force_offline(&mut self, now: Tick, node_id: usize, until: Tick) -> Vec<RequestOutcome> {
        self.online = false;
        self.forced_until = Some(until);
        self.queue
            .drain(..)
            .map(|(request, _)| RequestOutcome::Failed {
                request,
                at: now,
                node: node_id,
            })
            .collect()
    }

    /// Advances churn state; if the node goes offline, its queue is
    /// dropped and the losses are returned.
    pub fn churn_step(&mut self, now: Tick, node_id: usize, rng: &mut Rng) -> Vec<RequestOutcome> {
        let mut out = Vec::new();
        self.churn_step_into(now, node_id, rng, &mut out);
        out
    }

    /// [`Node::churn_step`] appending losses into `out` instead of
    /// allocating a fresh vector — the cluster tick loop reuses one
    /// outcome buffer across every node.
    pub fn churn_step_into(
        &mut self,
        now: Tick,
        node_id: usize,
        rng: &mut Rng,
        out: &mut Vec<RequestOutcome>,
    ) {
        // A forced outage overrides stochastic churn entirely.
        if let Some(until) = self.forced_until {
            if now < until {
                return;
            }
            self.forced_until = None;
            self.online = true;
            return;
        }
        if self.online {
            if rng.gen::<f64>() < self.spec.churn_off {
                self.online = false;
                while let Some((request, _)) = self.queue.pop_front() {
                    out.push(RequestOutcome::Failed {
                        request,
                        at: now,
                        node: node_id,
                    });
                }
            }
        } else if rng.gen::<f64>() < self.spec.churn_on {
            self.online = true;
        }
    }

    /// Processes one tick of work; returns completions and failures.
    pub fn process_step(
        &mut self,
        now: Tick,
        node_id: usize,
        rng: &mut Rng,
    ) -> Vec<RequestOutcome> {
        let mut out = Vec::new();
        self.process_step_into(now, node_id, rng, &mut out);
        out
    }

    /// [`Node::process_step`] appending outcomes into `out` instead of
    /// allocating a fresh vector per node per tick.
    pub fn process_step_into(
        &mut self,
        now: Tick,
        node_id: usize,
        rng: &mut Rng,
        out: &mut Vec<RequestOutcome>,
    ) {
        if !self.online || self.queue.is_empty() {
            return;
        }
        // Per-busy-tick failure of the head-of-line request.
        if rng.gen::<f64>() < self.spec.failure_prob {
            if let Some((request, _)) = self.queue.pop_front() {
                out.push(RequestOutcome::Failed {
                    request,
                    at: now,
                    node: node_id,
                });
            }
        }
        let mut budget = self.spec.capacity;
        while budget > 0.0 {
            let Some((req, remaining)) = self.queue.front_mut() else {
                break;
            };
            if *remaining <= budget {
                budget -= *remaining;
                let request = *req;
                self.queue.pop_front();
                let latency = now.value().saturating_sub(request.arrived.value()).max(1);
                out.push(RequestOutcome::Completed {
                    request,
                    at: now,
                    node: node_id,
                    latency,
                });
            } else {
                *remaining -= budget;
                budget = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::SeedTree;

    fn rng() -> Rng {
        SeedTree::new(13).rng("node")
    }

    fn stable_spec() -> NodeSpec {
        NodeSpec::new(2.0, 0.0, 0.0, 1.0)
    }

    #[test]
    fn processes_fifo_and_completes() {
        let mut n = Node::new(stable_spec());
        let mut r = rng();
        n.enqueue(Request::new(0, 3.0, Tick(0), 100)).unwrap();
        n.enqueue(Request::new(1, 1.0, Tick(0), 100)).unwrap();
        // Tick 1: capacity 2 → req0 has 1 left.
        let o1 = n.process_step(Tick(1), 0, &mut r);
        assert!(o1.is_empty());
        // Tick 2: finishes req0 (1 unit) and req1 (1 unit).
        let o2 = n.process_step(Tick(2), 0, &mut r);
        assert_eq!(o2.len(), 2);
        assert_eq!(o2[0].request().id, 0);
        assert_eq!(o2[1].request().id, 1);
        assert_eq!(n.queue_len(), 0);
    }

    #[test]
    fn latency_accounts_queueing() {
        let mut n = Node::new(NodeSpec::new(1.0, 0.0, 0.0, 1.0));
        let mut r = rng();
        n.enqueue(Request::new(0, 5.0, Tick(0), 100)).unwrap();
        let mut done = None;
        for t in 1..=10u64 {
            for o in n.process_step(Tick(t), 0, &mut r) {
                done = o.latency();
            }
        }
        assert_eq!(done, Some(5));
    }

    #[test]
    fn backlog_and_drain_time() {
        let mut n = Node::new(stable_spec());
        n.enqueue(Request::new(0, 4.0, Tick(0), 10)).unwrap();
        n.enqueue(Request::new(1, 2.0, Tick(0), 10)).unwrap();
        assert!((n.backlog() - 6.0).abs() < 1e-12);
        assert!((n.drain_time() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn failures_lose_requests() {
        let spec = NodeSpec::new(1.0, 1.0, 0.0, 1.0); // always fails
        let mut n = Node::new(spec);
        let mut r = rng();
        n.enqueue(Request::new(0, 5.0, Tick(0), 10)).unwrap();
        let o = n.process_step(Tick(1), 3, &mut r);
        assert!(matches!(o[0], RequestOutcome::Failed { node: 3, .. }));
    }

    #[test]
    fn churn_drops_queue() {
        let spec = NodeSpec::new(1.0, 0.0, 1.0, 0.0); // goes offline immediately
        let mut n = Node::new(spec);
        let mut r = rng();
        n.enqueue(Request::new(0, 5.0, Tick(0), 10)).unwrap();
        n.enqueue(Request::new(1, 5.0, Tick(0), 10)).unwrap();
        let dropped = n.churn_step(Tick(1), 0, &mut r);
        assert_eq!(dropped.len(), 2);
        assert!(!n.is_online());
        assert_eq!(n.queue_len(), 0);
        // Offline node does not process.
        assert!(n.process_step(Tick(2), 0, &mut r).is_empty());
    }

    #[test]
    fn churn_recovers() {
        let spec = NodeSpec::new(1.0, 0.0, 1.0, 1.0);
        let mut n = Node::new(spec);
        let mut r = rng();
        n.churn_step(Tick(1), 0, &mut r); // offline
        assert!(!n.is_online());
        n.churn_step(Tick(2), 0, &mut r); // back on
        assert!(n.is_online());
    }

    #[test]
    fn enqueue_blind_on_offline_fails() {
        let spec = NodeSpec::new(1.0, 0.0, 1.0, 0.0);
        let mut n = Node::new(spec);
        let mut r = rng();
        n.churn_step(Tick(0), 0, &mut r);
        let out = n.enqueue_blind(Request::new(0, 1.0, Tick(0), 5), Tick(0), 7);
        assert!(matches!(out, Some(RequestOutcome::Failed { node: 7, .. })));
    }

    #[test]
    fn enqueue_offline_is_a_typed_error() {
        let spec = NodeSpec::new(1.0, 0.0, 1.0, 0.0);
        let mut n = Node::new(spec);
        let mut r = rng();
        n.churn_step(Tick(0), 0, &mut r);
        let err = n
            .enqueue(Request::new(0, 1.0, Tick(0), 5))
            .expect_err("offline node must refuse");
        assert_eq!(err, EnqueueError::NodeOffline);
        assert_eq!(err.to_string(), "cannot enqueue on an offline node");
        assert_eq!(n.queue_len(), 0, "request was not accepted");
    }

    #[test]
    fn force_offline_pins_through_churn_then_restores() {
        // churn_on = 1.0: stochastic churn would resurrect instantly.
        let spec = NodeSpec::new(1.0, 0.0, 0.0, 1.0);
        let mut n = Node::new(spec);
        let mut r = rng();
        n.enqueue(Request::new(0, 5.0, Tick(0), 10)).unwrap();
        let dropped = n.force_offline(Tick(10), 3, Tick(14));
        assert_eq!(dropped.len(), 1);
        assert!(matches!(dropped[0], RequestOutcome::Failed { node: 3, .. }));
        assert!(!n.is_online());
        for t in 11..14u64 {
            n.churn_step(Tick(t), 3, &mut r);
            assert!(!n.is_online(), "pinned at t={t} despite churn_on=1");
        }
        n.churn_step(Tick(14), 3, &mut r);
        assert!(n.is_online(), "deterministic repair at the deadline");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn bad_capacity_panics() {
        let _ = NodeSpec::new(0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn preset_specs_are_valid() {
        let r = NodeSpec::reliable(4.0);
        let v = NodeSpec::volunteer(1.0);
        assert!(r.failure_prob < v.failure_prob);
        assert!(r.churn_off < v.churn_off);
    }
}
