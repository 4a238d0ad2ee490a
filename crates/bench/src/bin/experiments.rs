//! Regenerates the tables and figures of EXPERIMENTS.md:
//! `experiments [--smoke] <id>... | all`.
//!
//! Each experiment prints its table on stdout and a wall-clock footer
//! on stderr; a gated one then prints `<gate>: PASS` on stdout, or its
//! failures and `<gate>: FAIL` on stderr. `--smoke` is accepted only
//! by f11 and f12. Exits 1 if any gate failed, 2 on a usage error.

use sas_bench::registry::{self, EXPERIMENTS};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let (smoke, chosen) = match registry::parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!("experiments: {e}\nusage: experiments [--smoke] <id>... | all");
            eprintln!("ids: {}", ids.join(" "));
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for e in chosen {
        let start = Instant::now();
        let outcome = match (smoke, e.smoke) {
            (true, Some(run)) => run(),
            _ => (e.full)(),
        };
        print!("{}", outcome.text);
        eprintln!(
            "{}: regenerated in {:.2?} on {} worker thread(s)",
            e.id,
            start.elapsed(),
            simkernel::worker_count(usize::MAX)
        );
        let Some(gate) = e.gate else { continue };
        if outcome.failures.is_empty() {
            println!("{gate}: PASS");
        } else {
            for failure in &outcome.failures {
                eprintln!("GATE {failure}");
            }
            eprintln!("{gate}: FAIL");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
