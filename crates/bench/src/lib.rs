//! # sas-bench — the evaluation harness
//!
//! One module per experiment in EXPERIMENTS.md. Each `run_*` function
//! executes the experiment at the scale it is given and returns the
//! rendered table/figure; [`registry`] fixes each experiment's scale,
//! and the `experiments` binary prints what the registry runs
//! (`cargo run --release -p sas-bench --bin experiments -- all`
//! regenerates every table and figure of the reproduction).
//!
//! All experiments use common random numbers across strategies
//! (replicate *k* shares a seed subtree regardless of strategy), which
//! tightens the pairwise comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod registry;

pub use experiments::*;
