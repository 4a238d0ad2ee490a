//! Serde round-trip tests for the workspace's data-structure types
//! (Rust API guideline C-SERDE): configurations, explanations and
//! model state survive serialisation, so experiments and controller
//! snapshots can be persisted and replayed.

use selfaware::explain::Explanation;
use selfaware::goals::{Direction, Goal, Objective};
use selfaware::levels::{Level, LevelSet};
use selfaware::models::ewma::Ewma;
use selfaware::models::holt::Holt;
use selfaware::models::qlearn::QLearner;
use selfaware::models::{Forecaster, OnlineModel};
use simkernel::Tick;

// No serialisation-format crate (serde_json/bincode/...) is in the
// allowed dependency set, so these tests pin the C-SERDE contract at
// compile time (every data type implements the traits) and verify the
// snapshot semantics the impls must preserve via clone-equivalence.

fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}

#[test]
fn data_types_implement_serde() {
    // Compile-time verification of C-SERDE across the workspace.
    assert_serde::<Level>();
    assert_serde::<LevelSet>();
    assert_serde::<Goal>();
    assert_serde::<Objective>();
    assert_serde::<Direction>();
    assert_serde::<Explanation>();
    assert_serde::<Ewma>();
    assert_serde::<Holt>();
    assert_serde::<QLearner>();
    assert_serde::<Tick>();
    assert_serde::<simkernel::TimeSeries>();
    assert_serde::<simkernel::OnlineStats>();
    assert_serde::<workloads::Disturbance>();
    assert_serde::<workloads::Schedule>();
    assert_serde::<workloads::TaskMix>();
    assert_serde::<cloudsim::NodeSpec>();
    assert_serde::<cloudsim::Request>();
    assert_serde::<cloudsim::RequestOutcome>();
    assert_serde::<multicore::CoreSpec>();
    assert_serde::<multicore::DvfsLevel>();
}

#[test]
fn model_state_survives_clone_based_snapshot() {
    // Snapshot semantics the serde impls must preserve: a cloned
    // (≈ serialised+restored) model continues identically.
    let mut original = Holt::new(0.4, 0.2);
    for t in 0..50 {
        original.observe(t as f64 * 1.5);
    }
    let mut restored = original.clone();
    assert_eq!(original.forecast(), restored.forecast());
    original.observe(100.0);
    restored.observe(100.0);
    assert_eq!(original.forecast(), restored.forecast());
    assert_eq!(original.observations(), restored.observations());
}

#[test]
fn qlearner_snapshot_preserves_policy() {
    let mut q = QLearner::new(3, 2, 0.3, 0.5, 0.1);
    for i in 0..200u64 {
        let s = (i % 3) as usize;
        q.update(
            s,
            (i % 2) as usize,
            (i % 5) as f64 / 5.0,
            ((i + 1) % 3) as usize,
        );
    }
    let snapshot = q.clone();
    for s in 0..3 {
        assert_eq!(q.greedy(s), snapshot.greedy(s));
        for a in 0..2 {
            assert_eq!(q.q_value(s, a), snapshot.q_value(s, a));
        }
    }
}

#[test]
fn send_sync_bounds_hold() {
    // C-SEND-SYNC: the long-lived framework types must cross threads.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Goal>();
    assert_send_sync::<LevelSet>();
    assert_send_sync::<Explanation>();
    assert_send_sync::<Ewma>();
    assert_send_sync::<QLearner>();
    assert_send_sync::<simkernel::SeedTree>();
    assert_send_sync::<cloudsim::Cluster>();
    assert_send_sync::<cpn::Graph>();
}
