//! Edge-case tests for [`SensorHealth`]: failed recovery probes,
//! dropout while quarantined, and the exact quarantine/restore
//! transition sequences recorded in the [`ExplanationLog`].

use selfaware::explain::{Explanation, ExplanationLog};
use selfaware::health::{SensorHealth, MIN_SAMPLES, RECOVER_AFTER};
use simkernel::Tick;

fn ramp(t: u64) -> f64 {
    0.5 * t as f64
}

/// Warm a fresh monitor on the ramp, then bias-shift it into
/// quarantine. Returns the tick after the fault window.
fn quarantine_via_bias(h: &mut SensorHealth, log: &mut ExplanationLog, key: &str) -> u64 {
    for t in 0..50 {
        h.observe(key, Some(ramp(t)), Tick(t), log);
    }
    for t in 50..60 {
        h.observe(key, Some(ramp(t) + 5.0), Tick(t), log);
    }
    assert!(h.is_quarantined(key), "bias shift must quarantine");
    60
}

#[test]
fn failed_recovery_probe_resets_the_agreement_streak() {
    let mut h = SensorHealth::default();
    let mut log = ExplanationLog::new(64);
    let t0 = quarantine_via_bias(&mut h, &mut log, "s");

    // Agree for recover_after - 1 ticks — one short of restoration —
    // then disagree once. The probe must start over from zero, so the
    // same near-miss repeated never restores the sensor.
    let recover_after = u64::from(RECOVER_AFTER);
    for round in 0..3 {
        let base = t0 + round * recover_after;
        for i in 0..recover_after - 1 {
            let t = base + i;
            let r = h.observe("s", Some(ramp(t)), Tick(t), &mut log);
            assert!(r.degraded, "still quarantined mid-probe (round {round})");
        }
        let t = base + recover_after - 1;
        let r = h.observe("s", Some(ramp(t) + 50.0), Tick(t), &mut log);
        assert!(r.degraded, "probe failure must not restore (round {round})");
        assert!(r.substituted);
    }
    assert!(h.is_quarantined("s"));
    assert_eq!(h.restore_events(), 0, "no restore may have slipped through");

    // A full uninterrupted agreement window finally restores it.
    let base = t0 + 3 * recover_after;
    for i in 0..recover_after + 1 {
        let t = base + i;
        h.observe("s", Some(ramp(t)), Tick(t), &mut log);
    }
    assert!(!h.is_quarantined("s"));
    assert_eq!(h.restore_events(), 1);
}

#[test]
fn dropout_during_quarantine_resets_the_probe_and_keeps_substituting() {
    let mut h = SensorHealth::default();
    let mut log = ExplanationLog::new(64);
    let t0 = quarantine_via_bias(&mut h, &mut log, "s");

    let recover_after = u64::from(RECOVER_AFTER);
    // Almost recover, then go silent: the dropout must zero the
    // agreement streak and the substitute must keep flowing.
    for i in 0..recover_after - 1 {
        let t = t0 + i;
        h.observe("s", Some(ramp(t)), Tick(t), &mut log);
    }
    let silent_from = t0 + recover_after - 1;
    for i in 0..5 {
        let t = silent_from + i;
        let r = h.observe("s", None, Tick(t), &mut log);
        assert!(r.degraded);
        assert!(r.substituted);
        assert!(r.raw.is_none());
        assert!(r.value.is_finite(), "substitute must always be usable");
    }
    assert!(h.is_quarantined("s"));

    // One tick short of a fresh full window must still not restore...
    let resume = silent_from + 5;
    for i in 0..recover_after - 1 {
        let t = resume + i;
        h.observe("s", Some(ramp(t)), Tick(t), &mut log);
    }
    assert!(
        h.is_quarantined("s"),
        "pre-dropout agreement must not carry over the silence"
    );
    // ...and completing the window does.
    let t = resume + recover_after - 1;
    h.observe("s", Some(ramp(t)), Tick(t), &mut log);
    assert!(!h.is_quarantined("s"));
    assert_eq!(h.restore_events(), 1);
}

#[test]
fn quarantine_restore_requarantine_is_logged_in_exact_order() {
    let mut h = SensorHealth::default();
    let mut log = ExplanationLog::new(64);
    let t0 = quarantine_via_bias(&mut h, &mut log, "s");

    // Recover fully, then hit the sensor again with a second fault.
    let recover_after = u64::from(RECOVER_AFTER);
    let mut t = t0;
    while h.is_quarantined("s") {
        h.observe("s", Some(ramp(t)), Tick(t), &mut log);
        t += 1;
        assert!(t < t0 + 10 * recover_after, "recovery must terminate");
    }
    // Re-warm past min_samples (restore resets the model), then fault.
    let warm_until = t + MIN_SAMPLES + 8;
    while t < warm_until {
        h.observe("s", Some(ramp(t)), Tick(t), &mut log);
        t += 1;
    }
    for _ in 0..10 {
        h.observe("s", Some(ramp(t) + 5.0), Tick(t), &mut log);
        t += 1;
    }
    assert!(h.is_quarantined("s"));
    assert_eq!(h.quarantine_events(), 2);
    assert_eq!(h.restore_events(), 1);

    // The log tells exactly that story, in order, with timestamps
    // strictly increasing.
    let actions: Vec<String> = log.iter().map(Explanation::action).collect();
    assert_eq!(actions, ["quarantine:s", "restore:s", "quarantine:s"]);
    let times: Vec<u64> = log.iter().map(|e| e.at.value()).collect();
    assert!(times.windows(2).all(|w| w[0] < w[1]), "times {times:?}");
    // Each quarantine entry carries the evidence it acted on.
    for e in log.iter().filter(|e| e.kind == "quarantine") {
        assert!(
            e.factors().iter().any(|&(name, _)| name == "residual"),
            "quarantine must cite the residual envelope"
        );
    }
}

#[test]
fn dropout_before_warmup_never_quarantines_but_substitutes() {
    // A sensor that goes silent before min_samples readings must be
    // substituted-for without ever being declared faulty (there is no
    // model worth trusting either way yet).
    let mut h = SensorHealth::default();
    let mut log = ExplanationLog::new(64);
    for t in 0..8 {
        h.observe("s", Some(ramp(t)), Tick(t), &mut log);
    }
    for t in 8..40 {
        let r = h.observe("s", None, Tick(t), &mut log);
        assert!(r.substituted);
        assert!(!r.degraded, "cold sensor must not be quarantined");
    }
    assert_eq!(h.quarantine_events(), 0);
    assert_eq!(log.len(), 0);
}

#[test]
fn stuck_reading_never_counts_as_recovery_agreement() {
    // While quarantined, a bit-identical repeated reading must not
    // build the agreement streak even if the true signal happens to
    // cross the frozen value.
    let truth = |t: u64| 20.0 + 6.0 * (t as f64 * 0.05).sin();
    let mut h = SensorHealth::default();
    let mut log = ExplanationLog::new(64);
    for t in 0..60 {
        let x = truth(t) + if t % 2 == 0 { 0.05 } else { -0.05 };
        h.observe("s", Some(x), Tick(t), &mut log);
    }
    // Freeze the reading; the wobbly residual envelope flags it stuck.
    for t in 60..120 {
        h.observe("s", Some(truth(60)), Tick(t), &mut log);
    }
    assert!(h.is_quarantined("s"), "frozen reading must quarantine");
    // 200 more frozen ticks: the signal repeatedly wanders across the
    // frozen value, but identical bits are never health evidence.
    for t in 120..320 {
        h.observe("s", Some(truth(60)), Tick(t), &mut log);
    }
    assert!(h.is_quarantined("s"), "stuck sensor must stay quarantined");
    assert_eq!(h.restore_events(), 0);
}
