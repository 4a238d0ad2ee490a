//! # selfaware — a computational self-awareness framework
//!
//! A Rust implementation of the conceptual framework in *Peter R.
//! Lewis, "Self-aware Computing Systems: From Psychology to
//! Engineering", DATE 2017*: the translation of psychological
//! self-awareness (Morin's definition, Neisser's levels) into
//! engineering building blocks for systems that must manage trade-offs
//! between conflicting goals at run time, in large, heterogeneous,
//! uncertain, changing and decentralised environments.
//!
//! Every module here is run by a substrate simulator, the composed
//! city, the live server or a bench experiment; DESIGN.md maps each
//! one to the experiment that measures it.
//!
//! ## The framework's three concepts → this crate
//!
//! 1. **Public vs private self-awareness** — a self-aware node's
//!    private knowledge is its own controller state; its public
//!    knowledge is what it learns about peers over [`comms`], where
//!    [`comms::StalenessWeighted`] discounts it by age.
//! 2. **Levels of self-awareness** — [`levels::Level`] and
//!    [`levels::LevelSet`] name the capability classes (stimulus,
//!    interaction, time, goal, meta); the cloud substrate's self-aware
//!    strategy enables exactly the machinery a chosen level set
//!    implies.
//! 3. **Collective self-awareness without a global component** —
//!    [`collective`] provides gossip and hierarchical architectures
//!    whose awareness lives in no single node.
//!
//! On top of these sit the capabilities the paper surveys: learned
//! self-models ([`models`]), run-time goal trade-off management
//! ([`goals`]), meta-self-awareness ([`meta`], [`supervision`],
//! [`health`]), attention under resource constraints ([`attention`]),
//! self-explanation ([`explain`]) measured by counterfactual replay
//! ([`replay`]), robust collective messaging over unreliable networks
//! ([`comms`]), and the clock-agnostic sense → decide → act loop
//! ([`runtime`]) that runs the same controllers on simulated or real
//! time.
//!
//! ## Quickstart
//!
//! A supervised demand forecaster driven by [`runtime::drive`]: the
//! [`supervision::Supervisor`] checkpoints the model while it is
//! healthy, and rolls it back — and says why — when it is corrupted.
//!
//! ```
//! use selfaware::prelude::*;
//! use simkernel::{Clock, Tick};
//!
//! struct Forecasting {
//!     sup: Supervisor<Holt>,
//!     log: ExplanationLog,
//! }
//!
//! impl ControlLoop for Forecasting {
//!     type Sensed = f64;
//!
//!     fn sense(&mut self, now: Tick) -> f64 {
//!         10.0 + (now.value() as f64 * 0.1).sin()
//!     }
//!
//!     fn step(&mut self, now: Tick, load: f64) {
//!         if now == Tick(120) {
//!             // A corrupted observation poisons the self-model.
//!             self.sup.model_mut().observe(f64::NAN);
//!         }
//!         self.sup.model_mut().observe(load);
//!         let forecast = self.sup.model().forecast().unwrap_or(load);
//!         self.sup.observe(now, Evidence::forecast(load, forecast), &mut self.log);
//!     }
//! }
//!
//! let mut ctl = Forecasting {
//!     sup: Supervisor::new("demand", Holt::new(0.3, 0.1)),
//!     log: ExplanationLog::new(64),
//! };
//! drive(&mut Clock::new(), &mut ctl, Tick(200));
//! assert_eq!(ctl.sup.stats().rollbacks, 1);
//! assert_eq!(ctl.sup.source(), ControlSource::Model);
//! println!("{}", ctl.log.latest().unwrap());
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]
#![warn(missing_docs)]

pub mod attention;
pub mod collective;
pub mod comms;
pub mod explain;
pub mod goals;
pub mod health;
pub mod levels;
pub mod meta;
pub mod models;
pub mod pressure;
pub mod replay;
pub mod runtime;
pub mod supervision;

/// Crate version, recorded in run-trace provenance (see
/// [`simkernel::obs`]).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::attention::AttentionAllocator;
    pub use crate::comms::{
        Arrivals, Channel, ChannelOutcome, CommsNetwork, CommsPolicy, CommsStats, Delivered,
        IdealChannel, ReliableConfig, StalenessWeighted,
    };
    pub use crate::explain::{Explanation, ExplanationLog};
    pub use crate::goals::{Direction, Goal, Objective};
    pub use crate::health::{HealthReading, SensorHealth};
    pub use crate::levels::{Level, LevelSet};
    pub use crate::meta::{ExplorationGovernor, ModelPool, ResidualTracker};
    pub use crate::models::drift::PageHinkley;
    pub use crate::models::ewma::Ewma;
    pub use crate::models::holt::Holt;
    pub use crate::models::qlearn::QLearner;
    pub use crate::models::{Forecaster, OnlineModel};
    pub use crate::pressure::{HysteresisGate, HysteresisGateConfig};
    pub use crate::replay::{
        CounterfactualDelta, CounterfactualReport, CounterfactualRun, InterventionClass,
        InterventionMask, ReplayOutcome,
    };
    pub use crate::runtime::{drive, ControlLoop};
    pub use crate::supervision::{
        Anomaly, ControlSource, Evidence, SupervisionStats, Supervisor, Verdict,
    };
}
