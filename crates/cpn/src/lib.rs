//! # cpn — a cognitive packet network simulator
//!
//! The paper's resource-constrained self-awareness exemplar (Section
//! III, refs 38, 39): Gelenbe's cognitive packet networks, where "a
//! self-awareness loop provides nodes on a network with the ability to
//! monitor the effect of using different routes. Based on a simple
//! learning scheme, routes between a particular source and destination
//! are adapted on an ongoing basis" — including under denial-of-service
//! load.
//!
//! * [`graph`] — the topology: adjacency, BFS and weighted shortest
//!   paths;
//! * [`routing`] — routers: frozen shortest-path, periodic re-route,
//!   and CPN reinforcement routing with smart (exploring) packets,
//!   optionally under a meta-self-aware supervisor;
//! * [`net`] — the packet plane: per-link queues, serving, forwarding
//!   with a TTL, drops and reinforcement, shared by [`sim`] and the
//!   composed city;
//! * [`sim`] — packet-level simulation: flows, attack surges, hostile
//!   traffic, and the F2 delay series.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]
#![warn(missing_docs)]

pub mod graph;
pub mod net;
pub mod routing;
pub mod sim;

pub use graph::Graph;
pub use routing::{Routing, RoutingStrategy};
pub use sim::{run_cpn, CpnConfig, CpnResult};
