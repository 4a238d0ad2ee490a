//! # self-aware-systems
//!
//! Umbrella crate for the reproduction of *Lewis, "Self-aware
//! Computing Systems: From Psychology to Engineering" (DATE 2017)*.
//!
//! The workspace contains:
//!
//! * [`selfaware`] — the computational self-awareness framework (the
//!   paper's contribution): levels, self-models, goals,
//!   meta-self-awareness, attention, self-explanation, collective
//!   awareness;
//! * [`simkernel`] — the deterministic simulation substrate;
//! * [`workloads`] — workload and disturbance generators;
//! * the four case-study simulators from the paper's narrative:
//!   [`camnet`] (smart camera networks), [`cloudsim`] (volunteer
//!   clouds), [`multicore`] (heterogeneous multi-cores), [`cpn`]
//!   (cognitive packet networks).
//!
//! Start with the `selfaware` crate docs' quickstart or
//! `examples/cloud_autoscaler.rs`, then see `EXPERIMENTS.md` for the
//! full evaluation and
//! `cargo run --release -p sas-bench --bin experiments -- all` to
//! regenerate every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use camnet;
pub use cloudsim;
pub use cpn;
pub use multicore;
pub use selfaware;
pub use simkernel;
pub use workloads;
