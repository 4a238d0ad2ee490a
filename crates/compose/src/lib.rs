//! # compose — the composed smart-city world
//!
//! The paper's collective-self-awareness claim (Section IV) says
//! awareness spans a *collective*, not a single node: "the network
//! of \[systems\] as a whole can be described as having a collective
//! form of self-awareness, even though this is not the case for any
//! individual node." The four substrate simulators (camnet, cpn,
//! cloudsim, multicore) each exercise one self-awareness level in
//! isolation; this crate runs them as one deterministic world so a
//! fault in one substrate *cascades* into the others and graceful
//! degradation becomes an end-to-end, measurable property.
//!
//! The composition (see DESIGN.md § Composition):
//!
//! * **Cameras** ([`camnet::Camera`]) track wanderers over the unit
//!   square and emit detections — the sensing substrate.
//! * Detections travel as packets over a **cognitive packet network**
//!   ([`cpn::Graph`] + [`cpn::routing::Router`]) from each camera's
//!   ingress node to the gateway of the wanderer's city zone — the
//!   transport substrate.
//! * Each zone gateway feeds a backend of **multicore machines**
//!   ([`multicore::Core`]) that service the detections against an
//!   SLA deadline — the compute substrate.
//! * A **zoned command plane** ([`selfaware::comms::CommsNetwork`]
//!   over the campaign's [`workloads::ChannelPlan`]) carries typed
//!   [`CityEvent`]s between zone agents, the controller, and the
//!   camera cluster head — the cloudsim-style coordination substrate.
//!
//! All of it shares a single [`simkernel::Tick`], consumes randomness
//! only from named [`simkernel::SeedTree`] streams, and preserves the
//! repo-wide seq-vs-parallel bit-identity contract under any
//! [`workloads::FaultCampaign`].
//!
//! The *degradation ladder* — shed camera quality → re-home zones →
//! throttle admission — is what the fully self-aware stack buys:
//! each rung trades a little fidelity for continued service, so
//! compound failures bend the utility curve instead of breaking it.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]
#![warn(missing_docs)]

pub mod city;
pub mod world;

pub use city::{city_goal, run_city, CityResult};
pub use world::{CityConfig, CityEvent, CityPolicy};
