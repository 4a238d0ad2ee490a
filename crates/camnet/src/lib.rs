//! # camnet — a distributed smart-camera network simulator
//!
//! Reproduces the paper's flagship case study (refs 11, 13, 17, 48):
//! a decentralised network of smart cameras tracking moving objects,
//! where responsibility for each object is *traded between cameras* in
//! a market-style handover auction. The design tension is exactly the
//! paper's run-time trade-off: tracking quality (ask widely, never
//! lose an object) versus communication cost (each ask is a message a
//! bandwidth-constrained camera can ill afford).
//!
//! Lewis et al. \[13\] showed that when each camera *learns for itself*
//! whom to ask, cameras "learn to be different from each other, in
//! line with their own perceptions of the world" — emergent
//! heterogeneity with near-broadcast utility at a fraction of the
//! cost. Experiments T3 and F1 reproduce that result's shape.
//!
//! * [`camera`] — camera geometry (position, field of view);
//! * [`affinity`] — the network's learned affinity scores and its
//!   invite counts, in struct-of-arrays layout;
//! * [`strategy`] — handover strategies (broadcast, smooth, static,
//!   self-aware learning);
//! * [`diversity`] — the policy-divergence heterogeneity metric;
//! * [`sim`] — the world: objects, ownership, auctions, metrics;
//! * [`grid`] — a uniform-grid spatial index for FOV queries;
//! * [`des`] — the event-driven F12 world at 10k-camera scale, with
//!   sparse activation on [`simkernel::SimScheduler`].

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]
#![warn(missing_docs)]

pub mod affinity;
pub mod camera;
pub mod des;
pub mod diversity;
pub mod grid;
pub mod sim;
pub mod strategy;

pub use affinity::{AffinityTable, InviteCounts};
pub use camera::Camera;
pub use des::{run_des_camnet, DesCamnetConfig, DesCamnetResult};
pub use diversity::policy_divergence;
pub use grid::GridIndex;
pub use sim::{run_camnet, CamnetConfig, CamnetResult};
pub use strategy::HandoverStrategy;
