//! # sas-bench — the evaluation harness
//!
//! One module per experiment in EXPERIMENTS.md. Each `run_*` function
//! executes the experiment at its standard scale and returns the
//! rendered table/figure as a string; the `benches/` targets are thin
//! `main`s that print that string (so `cargo bench` regenerates every
//! table and figure of the reproduction).
//!
//! All experiments use common random numbers across strategies
//! (replicate *k* shares a seed subtree regardless of strategy), which
//! tightens the pairwise comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;
