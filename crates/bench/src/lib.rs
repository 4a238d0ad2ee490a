//! # sas-bench — the evaluation harness
//!
//! [`experiments`] holds one `run_*` function per table or figure of
//! EXPERIMENTS.md: each executes its experiment at the scale it is
//! given and returns the rendered output. Most are a [`Matrix`], which
//! runs, traces and renders one row per arm. [`registry`] fixes each
//! experiment's scale, and the `experiments` binary prints what the
//! registry runs
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
