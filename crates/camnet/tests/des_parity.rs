//! Dense-vs-sparse equivalence for the F12 camera world.
//!
//! Random F5/F9-style fault campaigns must produce **bit-identical**
//! metric aggregates whether the world is driven by the legacy dense
//! loop or by sparse activation on the scheduler, and whether the
//! replicate fan-out runs on 1 worker or 4 — the workspace's
//! seq-vs-parallel contract extended to the DES core.

use camnet::des::{run_des_camnet, DesCamnetConfig};
use proptest::prelude::*;
use simkernel::{DriveMode, Replications, Tick};
use workloads::faults::{FaultEvent, FaultPlan};

/// A random camera-fault campaign: fail/recover pairs across the
/// grid, F9-cascade style (overlapping windows allowed).
fn campaign(n_cameras: usize, steps: u64) -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec((0..n_cameras, 1..steps.max(2), 1..steps.max(2)), 0..6).prop_map(
        move |faults| {
            let mut plan = FaultPlan::none();
            for (cam, a, b) in faults {
                let (fail, recover) = if a <= b { (a, b) } else { (b, a) };
                plan = plan
                    .and(FaultEvent::camera_fail(Tick(fail), cam))
                    .and(FaultEvent::camera_recover(Tick(recover), cam));
            }
            plan
        },
    )
}

fn cfg_with(
    side: usize,
    objects: usize,
    steps: u64,
    home_bias: bool,
    faults: FaultPlan,
    drive: DriveMode,
) -> DesCamnetConfig {
    let mut cfg = DesCamnetConfig::at_scale(side, objects, steps);
    cfg.home_bias = home_bias;
    cfg.faults = faults;
    cfg.drive = drive;
    cfg
}

proptest! {

    // Single-replicate bit-identity over random campaigns.
    #[test]
    fn random_campaigns_match_dense_bit_for_bit(
        seed in 0u64..1000,
        side in 1usize..9,
        objects in 0usize..16,
        home_bias in any::<bool>(),
        faults in campaign(80, 250),
    ) {
        let steps = 250;
        let dense = run_des_camnet(
            &cfg_with(side, objects, steps, home_bias, faults.clone(), DriveMode::Dense),
            &simkernel::SeedTree::new(seed),
        );
        let sparse = run_des_camnet(
            &cfg_with(side, objects, steps, home_bias, faults, DriveMode::Sparse),
            &simkernel::SeedTree::new(seed),
        );
        prop_assert_eq!(dense.metrics, sparse.metrics);
    }

    // Replicate fan-out at 1 and 4 workers agrees across drive
    // modes: all four (mode × thread-count) runs produce the same
    // aggregate report.
    #[test]
    fn aggregates_are_thread_and_mode_invariant(
        base_seed in 0u64..500,
        faults in campaign(36, 180),
    ) {
        let runs = Replications::new(base_seed, 4);
        let report = |drive: DriveMode, threads: usize| {
            let faults = faults.clone();
            runs.run_par_threads(threads, move |seeds| {
                run_des_camnet(
                    &cfg_with(6, 8, 180, false, faults.clone(), drive),
                    &seeds,
                )
                .metrics
            })
        };
        let d1 = report(DriveMode::Dense, 1);
        let d4 = report(DriveMode::Dense, 4);
        let s1 = report(DriveMode::Sparse, 1);
        let s4 = report(DriveMode::Sparse, 4);
        prop_assert_eq!(&d1, &d4);
        prop_assert_eq!(&s1, &s4);
        prop_assert_eq!(&d1, &s1);
    }
}
