//! The experiment registry: one entry per table or figure of
//! EXPERIMENTS.md, each at the one scale EXPERIMENTS.md reports. The
//! `experiments` binary runs entries by id; `ci.sh` diffs the stdout
//! of every deterministic entry against its golden,
//! `crates/bench/golden/<id>.txt`.

use crate::experiments::*;
use std::fmt::{Display, Write as _};

/// What one experiment run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Everything the experiment prints on stdout, newline-terminated.
    pub text: String,
    /// Acceptance-gate failures; empty when the gate passed or the
    /// experiment has none.
    pub failures: Vec<String>,
}

impl Outcome {
    fn line(&mut self, line: impl Display) {
        let _ = writeln!(self.text, "{line}");
    }
}

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Registry id (`t1`–`t6`, `f1`–`f12`, `a1`–`a3`): the golden's
    /// file stem and the run trace's directory.
    pub id: &'static str,
    /// Name of the acceptance gate whose verdict the binary prints.
    pub gate: Option<&'static str>,
    /// Runs the experiment at the scale EXPERIMENTS.md reports.
    pub full: fn() -> Outcome,
    /// Reduced scale, only for experiments whose full run is bound by
    /// wall-clock time; it keeps every gate that a short run can judge.
    pub smoke: Option<fn() -> Outcome>,
}

impl Experiment {
    const fn new(id: &'static str, full: fn() -> Outcome) -> Self {
        Self {
            id,
            gate: None,
            full,
            smoke: None,
        }
    }

    const fn gated(mut self, gate: &'static str) -> Self {
        self.gate = Some(gate);
        self
    }

    const fn with_smoke(mut self, smoke: fn() -> Outcome) -> Self {
        self.smoke = Some(smoke);
        self
    }
}

/// Every experiment, in EXPERIMENTS.md order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment::new("t1", || table(run_t1(REPS, CLOUD_STEPS))),
    Experiment::new("t2", || table(run_t2(REPS, CLOUD_STEPS))),
    Experiment::new("t3", || table(run_t3(REPS, 6_000))),
    Experiment::new("f1", || table(run_f1(6_000))),
    Experiment::new("f2", || table(run_f2(3_000))),
    Experiment::new("t4", || table(run_t4(REPS, 3_000))),
    Experiment::new("f3", || table(run_f3(4_000))),
    Experiment::new("t5", || table(run_t5(10))),
    Experiment::new("f4", || table(run_f4(REPS, 4_000))),
    Experiment::new("t6", || table(run_t6(REPS, 4_000))),
    Experiment::new("f5", || table(run_f5(REPS, 6_000))),
    Experiment::new("f6", || table(run_f6(REPS, 6_000))),
    Experiment::new("f7", || table(run_f7(REPS, 6_000))),
    Experiment::new("f8", || table(run_f8(REPS, 3_000))),
    Experiment::new("f9", f9),
    Experiment::new("f10", f10).gated("intervention-regression gate"),
    Experiment::new("f11", || f11(3, 800, true))
        .gated("live-traffic acceptance")
        .with_smoke(|| f11(1, 250, false)),
    Experiment::new("f12", || f12(false))
        .gated("F12 scale gate")
        .with_smoke(|| f12(true)),
    Experiment::new("a1", || table(run_a1(REPS, 6_000))),
    Experiment::new("a2", || table(run_a2(REPS, 3_000))),
    Experiment::new("a3", || table(run_a3(REPS, 4_000))),
];

/// Parses the `experiments` command line: registry ids or `all`, and
/// `--smoke`, which every chosen experiment must support. Returns the
/// smoke flag and the chosen experiments in command-line order.
///
/// # Errors
///
/// Names the unknown id, the id without a smoke scale, or the missing
/// id list.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(bool, Vec<&'static Experiment>), String> {
    let (mut smoke, mut chosen) = (false, Vec::new());
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "all" => chosen.extend(EXPERIMENTS),
            id => match EXPERIMENTS.iter().find(|e| e.id == id) {
                Some(e) => chosen.push(e),
                None => return Err(format!("unknown experiment {id:?}")),
            },
        }
    }
    if chosen.is_empty() {
        return Err("no experiment named".to_string());
    }
    if let Some(e) = chosen.iter().find(|e| smoke && e.smoke.is_none()) {
        return Err(format!("{} has no --smoke scale", e.id));
    }
    Ok((smoke, chosen))
}

fn table(out: impl Display) -> Outcome {
    let mut o = Outcome::default();
    o.line(out);
    o
}

fn f9() -> Outcome {
    let mut o = table(run_f9(REPS, 3_000));
    let (sweep, breaking) = f9_breaking_point(REPS, 3_000);
    o.line(sweep);
    o.line(match breaking {
        Some(loss) => format!(
            "breaking point: learned-router delivery drops >5% below clean at {:.0}% report loss",
            loss * 100.0
        ),
        None => "breaking point: not reached — the learned router held within 5% of clean delivery across the whole sweep".to_string(),
    });
    o
}

fn f10() -> Outcome {
    let report = run_f10(REPS, 3_000);
    let mut o = table(report.table);
    o.line(report.fidelity);
    if !report.headlines.is_empty() {
        o.line("replicate-0 headlines:");
        for line in &report.headlines {
            o.line(format_args!("  {line}"));
        }
    }
    for flag in &report.truncation_flags {
        o.line(format_args!("WARNING {flag}"));
    }
    o.failures = report.gate_failures;
    o
}

fn f11(reps: u32, ticks: u64, strict: bool) -> Outcome {
    let report = run_f11(reps, ticks, strict);
    let mut o = table(report.table);
    if !report.transitions.is_empty() {
        o.line("replicate-0 supervised transitions:");
        for line in &report.transitions {
            o.line(format_args!("  {line}"));
        }
    }
    o.failures = report.failures;
    o
}

fn f12(smoke: bool) -> Outcome {
    let report = run_f12(smoke, |line| eprintln!("  {line}"));
    let mut o = table(report.table);
    for (substrate, speedup) in &report.speedups {
        o.line(format_args!(
            "{substrate}: sparse@full runs {speedup:.0}× faster per entity-tick than dense@reduced"
        ));
    }
    o.failures = report.failures;
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn registry_and_goldens_stay_in_step() {
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate registry id");
        let deterministic: BTreeSet<String> = EXPERIMENTS
            .iter()
            .filter(|e| e.smoke.is_none())
            .map(|e| e.id.to_string())
            .collect();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
        let goldens: BTreeSet<String> = std::fs::read_dir(&dir)
            .expect("golden directory")
            .map(|entry| {
                let name = entry.expect("golden entry").file_name();
                let name = name.to_string_lossy();
                name.strip_suffix(".txt")
                    .unwrap_or_else(|| panic!("golden/{name} is not <id>.txt"))
                    .to_string()
            })
            .collect();
        assert_eq!(
            goldens, deterministic,
            "golden/ must hold exactly one <id>.txt per registry id without a smoke scale"
        );
    }

    #[test]
    fn smoke_is_accepted_only_where_registered() {
        let (smoke, chosen) = parse_args(args(&["--smoke", "f11", "f12"])).expect("f11 f12");
        assert!(smoke);
        assert_eq!(chosen.len(), 2);
        assert!(parse_args(args(&["t1", "--smoke"])).is_err());
        assert!(parse_args(args(&["all", "--smoke"])).is_err());
        assert!(parse_args(args(&["--smoke"])).is_err());
        assert!(parse_args(args(&["t7"])).is_err());
        let (smoke, chosen) = parse_args(args(&["all"])).expect("all");
        assert!(!smoke);
        assert_eq!(chosen.len(), EXPERIMENTS.len());
    }
}
