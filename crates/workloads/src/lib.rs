//! # workloads — workload and disturbance generation
//!
//! The paper characterises 21st-century environments as *uncertain*
//! and subject to *ongoing change*: "workloads or other input may
//! change in their characteristics over time, or in response to
//! external factors" (Section II). This crate provides the synthetic
//! environments every experiment runs against:
//!
//! * [`rates`] — time-varying (diurnal) demand intensity and Poisson
//!   sampling;
//! * [`disturbance`] — scheduled step/ramp/spike/regime events to
//!   inject into any scalar signal;
//! * [`faults`] — scheduled *component* faults (camera/core/link
//!   failures, zone outages, sensor corruption) for the robustness
//!   experiments;
//! * [`signal`] — composable scalar signal generators for model-level
//!   experiments (F3's drifting stream);
//! * [`trajectories`] — random-waypoint wanderers in the unit square
//!   for the camera-network simulator;
//! * [`tasks`] — phase-switching task mixes for the multicore
//!   simulator.
//!
//! Everything is deterministic given a [`simkernel::SeedTree`].

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]
#![warn(missing_docs)]

pub mod disturbance;
pub mod faults;
pub mod rates;
pub mod signal;
pub mod tasks;
pub mod trajectories;

pub use disturbance::{Disturbance, DisturbanceKind, Schedule};
pub use faults::{
    ChannelPlan, FaultCampaign, FaultEvent, FaultKind, FaultPlan, LinkModel, NetPartition,
    SensorFaultKind,
};
pub use rates::{DiurnalRate, RateFn};
pub use signal::{SignalGen, SignalSpec};
pub use tasks::{TaskClass, TaskMix, TaskStream};
pub use trajectories::{Point, Wanderer};
