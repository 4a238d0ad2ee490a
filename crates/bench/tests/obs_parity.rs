//! Observability must be a pure exporter: toggling `SAS_OBS` or the
//! worker count can never change a simulation result.
//!
//! These tests run real experiment scenarios with observability off
//! and on, at 1 and 4 worker threads, and require bit-identical
//! aggregates (including the comms counters, i.e. `CommsStats`) and
//! identical structured records — metrics, stats blocks, and drained
//! explanation sequences — across thread counts. They live in their
//! own integration binary because the obs override is process-global:
//! sharing a binary with unrelated tests would race the toggle.

use sas_bench::experiments::{f5_scenario, f8_scenario, Column, F8Arm, Matrix, RunTrace};
use simkernel::obs::{self, Json};
use simkernel::{Aggregate, MetricSet, Replications, RunReport, SeedTree, Table};
use std::sync::Mutex;

const REPS: u32 = 3;

/// Serialises tests that flip the process-global obs override.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn assert_bitwise_equal(a: &Aggregate, b: &Aggregate, what: &str) {
    assert_eq!(a, b, "{what}: aggregates differ");
    for (name, _) in a.iter() {
        assert_eq!(
            a.mean(name).to_bits(),
            b.mean(name).to_bits(),
            "{what}: mean({name}) diverged"
        );
    }
}

/// Renders every replicate's records to JSONL text — the
/// determinism-relevant projection of the observations.
fn rendered_records(report: &RunReport) -> Vec<Vec<String>> {
    report
        .records()
        .iter()
        .map(|replicate| replicate.iter().map(Json::render).collect())
        .collect()
}

/// Runs `scenario` with obs off and on, each at 1 and 4 threads, and
/// checks the full parity contract.
fn check_obs_parity<F>(base_seed: u64, scenario: F, what: &str)
where
    F: Fn(SeedTree) -> MetricSet + Sync,
{
    let reps = Replications::new(base_seed, REPS);
    obs::set_override(Some(false));
    let off1 = reps.run_par_threads(1, &scenario);
    let off4 = reps.run_par_threads(4, &scenario);
    obs::set_override(Some(true));
    let on1 = reps.run_par_threads(1, &scenario);
    let on4 = reps.run_par_threads(4, &scenario);
    obs::set_override(None);

    // The metric aggregates — including the comms_* counters, which
    // are the CommsStats of every protocol endpoint — are bitwise
    // identical whether or not observation happened, at any width.
    for (other, label) in [(&off4, "off/4"), (&on1, "on/1"), (&on4, "on/4")] {
        assert_bitwise_equal(&off1, other, &format!("{what}: off/1 vs {label}"));
    }

    // Observation itself is deterministic: the structured records
    // (metrics, stats blocks, drained explanation sequences) agree
    // exactly between sequential and parallel runs.
    assert_eq!(on1, on4, "{what}: reports diverged across thread counts");
    assert_eq!(
        rendered_records(&on1),
        rendered_records(&on4),
        "{what}: rendered records diverged across thread counts"
    );
    assert_eq!(on1.records().len(), REPS as usize);
    assert!(
        on1.records().iter().all(|r| !r.is_empty()),
        "{what}: every replicate should have emitted a record"
    );
    assert!(
        off1.records().iter().all(Vec::is_empty),
        "{what}: obs off must not collect records"
    );
}

#[test]
fn f5_scenario_obs_parity() {
    let _guard = obs_lock();
    check_obs_parity(
        0xF5,
        |seeds| f5_scenario(&camnet::HandoverStrategy::self_aware_default(), seeds, 800),
        "obs/f5",
    );
}

#[test]
fn f8_scenario_obs_parity() {
    let _guard = obs_lock();
    // Lossy + partitioned arm: exercises the reliable comms protocol
    // on all three comms-bearing substrates, so the comms_* counters
    // and exported explanation logs are non-trivial.
    let arm = F8Arm {
        loss: 0.2,
        partition: 100,
        naive: false,
    };
    check_obs_parity(0xF8, |seeds| f8_scenario(arm, seeds, 400), "obs/f8");
}

#[test]
fn exported_run_trace_parses_and_carries_replicate_events() {
    let _guard = obs_lock();
    obs::set_override(Some(true));
    let reps = Replications::new(0xF5, REPS);
    let report = reps.run_par_threads(4, |seeds| {
        f5_scenario(&camnet::HandoverStrategy::Broadcast, seeds, 800)
    });
    obs::set_override(None);

    // Stay inside the workspace target directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/obs-test-bench");
    let labels = vec!["broadcast".to_string()];
    let reports = vec![report];
    let path = RunTrace {
        experiment: "f5-test",
        seed: 0xF5,
        replicates: REPS,
        steps: 800,
        config: "obs_parity integration test",
        arms: &labels,
        reports: &reports,
    }
    .export_in(&root)
    .expect("export failed");

    let text = std::fs::read_to_string(&path).expect("artifact unreadable");
    let lines: Vec<Json> = text
        .lines()
        .map(|l| obs::parse(l).expect("invalid JSON line"))
        .collect();
    // 1 provenance + 1 arm + REPS replicate lines.
    assert_eq!(lines.len(), 2 + REPS as usize);
    let prov = &lines[0];
    assert_eq!(
        prov.get("record").and_then(Json::as_str),
        Some("provenance")
    );
    for key in [
        "experiment",
        "seed",
        "replicates",
        "sas_threads",
        "config_digest",
        "versions",
    ] {
        assert!(prov.get(key).is_some(), "provenance missing {key}");
    }
    let arm = &lines[1];
    assert_eq!(arm.get("record").and_then(Json::as_str), Some("arm"));
    assert!(arm.get("aggregate").is_some() && arm.get("profile").is_some());
    for line in &lines[2..] {
        assert_eq!(line.get("record").and_then(Json::as_str), Some("replicate"));
        let events = line.get("events").and_then(Json::as_arr).expect("events");
        assert!(!events.is_empty(), "replicate carries emitted records");
        let metrics = events[0].get("metrics").expect("scenario metrics record");
        assert!(metrics.get("quality").is_some());
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn f9_scenario_obs_parity() {
    use sas_bench::experiments::{f9_scenario, F9Arm};
    let _guard = obs_lock();
    // The composed city emits the full structured record (metrics +
    // per-link comms maps + explanations); none of it may feed back
    // into the simulation at any thread count.
    check_obs_parity(
        0xF9,
        |seeds| f9_scenario(F9Arm::Supervised, seeds, 400),
        "f9/supervised",
    );
}

/// A toy two-arm, two-replicate matrix: each replicate draws `x`
/// uniformly in `[0, scale)`.
fn toy_matrix(id: &'static str) -> (Table, Vec<RunReport>) {
    use rand::Rng as _;
    Matrix {
        id,
        seed: 0x7AB1E,
        reps: 2,
        steps: 10,
        title: "toy".to_string(),
        arm_header: "scale",
        arms: vec![1.0, 4.0],
        label: |scale| format!("x{scale}"),
        scenario: &|&scale, seeds| {
            let mut m = MetricSet::new();
            m.set("x", scale * seeds.rng("x").gen::<f64>());
            obs::emit(Json::obj([("scale", Json::from(scale))]));
            m
        },
        columns: vec![Column::ci("x", "x")],
    }
    .run()
}

fn num(record: &Json, key: &str) -> f64 {
    record
        .get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("record lacks number {key}"))
}

#[test]
fn matrix_run_writes_one_trace_only_with_obs_on() {
    let _guard = obs_lock();
    let id = "matrix-path-test";
    let dir = obs::artifact_root().join(id);
    std::fs::remove_dir_all(&dir).ok();

    obs::set_override(Some(false));
    let (off_table, off_reports) = toy_matrix(id);
    obs::set_override(None);
    assert!(!dir.exists(), "obs off must write no trace");

    obs::set_override(Some(true));
    let (table, reports) = toy_matrix(id);
    obs::set_override(None);
    assert_eq!(off_table, table, "the table must not depend on obs");
    assert_eq!(
        off_reports
            .iter()
            .map(|r| r.aggregate())
            .collect::<Vec<_>>(),
        reports.iter().map(|r| r.aggregate()).collect::<Vec<_>>()
    );

    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("trace directory")
        .map(|e| e.expect("trace entry").file_name())
        .collect();
    assert_eq!(files, ["run.jsonl"], "exactly one trace");
    let text = std::fs::read_to_string(dir.join("run.jsonl")).expect("trace readable");
    std::fs::remove_dir_all(&dir).ok();
    let lines: Vec<Json> = text
        .lines()
        .map(|l| obs::parse(l).expect("invalid JSON line"))
        .collect();

    let prov = &lines[0];
    assert_eq!(
        prov.get("record").and_then(Json::as_str),
        Some("provenance")
    );
    assert_eq!(prov.get("experiment").and_then(Json::as_str), Some(id));
    assert_eq!(num(prov, "seed"), f64::from(0x7AB1E));
    assert_eq!(num(prov, "replicates"), 2.0);
    assert_eq!(num(prov, "steps"), 10.0);

    let arms: Vec<&Json> = lines
        .iter()
        .filter(|l| l.get("record").and_then(Json::as_str) == Some("arm"))
        .collect();
    let labels: Vec<&str> = arms
        .iter()
        .map(|a| a.get("label").and_then(Json::as_str).expect("arm label"))
        .collect();
    let rows: Vec<&str> = (0..table.len())
        .map(|i| table.cell(i, 0).expect("row label"))
        .collect();
    assert_eq!(labels, rows, "arm labels are the table's row labels");
    assert_eq!(labels, ["x1", "x4"]);

    assert_eq!(arms.len(), reports.len());
    for (arm, report) in arms.iter().zip(&reports) {
        assert_eq!(num(arm, "completed"), f64::from(report.completed()));
        let aggregate = arm.get("aggregate").expect("arm aggregate");
        assert_eq!(report.iter().count(), 1);
        for (metric, stats) in report.iter() {
            let traced = aggregate.get(metric).expect("traced metric");
            assert_eq!(num(traced, "n"), stats.count() as f64);
            for (key, value) in [
                ("mean", stats.mean()),
                ("ci95", stats.ci95_halfwidth()),
                ("std_dev", stats.std_dev()),
            ] {
                assert_eq!(
                    num(traced, key).to_bits(),
                    value.to_bits(),
                    "{metric}.{key} differs from the returned report"
                );
            }
        }
    }
    let replicates = lines
        .iter()
        .filter(|l| l.get("record").and_then(Json::as_str) == Some("replicate"))
        .count();
    assert_eq!(replicates, 4, "one replicate record per arm × replicate");
}
