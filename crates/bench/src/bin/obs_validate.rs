//! Validates run-trace artifacts emitted under the observability
//! layer (see `simkernel::obs` and `sas_bench::RunTrace`).
//!
//! Usage: `cargo run -p sas-bench --bin obs_validate [ROOT]`
//!
//! Scans `ROOT` (default: the configured artifact root, i.e.
//! `$SAS_OBS_DIR` or `target/obs`) for `*.jsonl` files and checks,
//! for each one, that every line parses as JSON and that the records
//! follow the trace schema: a leading `provenance` record with the
//! expected keys, then `arm` records carrying aggregates and phase
//! profiles, each followed by its `replicate` records and any
//! `counterfactual` records lifted from replay probes (F10). Exits
//! non-zero on the first malformed artifact — CI runs this after a
//! `SAS_OBS=1` smoke experiment.

use simkernel::obs::{self, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Recursively collects `*.jsonl` files under `root`, sorted for
/// deterministic output.
fn collect_jsonl(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_jsonl(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "jsonl") {
            out.push(path);
        }
    }
    Ok(())
}

fn require_keys(record: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    for key in keys {
        if record.get(key).is_none() {
            return Err(format!("{what} record is missing key {key:?}"));
        }
    }
    Ok(())
}

/// Checks one artifact against the trace schema. Returns a
/// human-readable error naming the offending line on failure.
fn validate(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let (mut arms, mut replicates, mut counterfactuals) = (0usize, 0usize, 0usize);
    let mut saw_provenance = false;
    for (i, line) in text.lines().enumerate() {
        let record = obs::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = record
            .get("record")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no \"record\" discriminator", i + 1))?
            .to_string();
        let check = match kind.as_str() {
            "provenance" => {
                saw_provenance = true;
                require_keys(
                    &record,
                    &[
                        "experiment",
                        "seed",
                        "replicates",
                        "steps",
                        "sas_threads",
                        "config_digest",
                        "versions",
                    ],
                    "provenance",
                )
            }
            "arm" => {
                arms += 1;
                require_keys(
                    &record,
                    &["label", "completed", "wall_secs", "aggregate", "profile"],
                    "arm",
                )
            }
            "replicate" => {
                replicates += 1;
                require_keys(&record, &["arm", "index", "events"], "replicate")
            }
            "counterfactual" => {
                counterfactuals += 1;
                require_keys(
                    &record,
                    &[
                        "arm",
                        "replicate",
                        "campaign",
                        "headline",
                        "class",
                        "metric",
                        "factual",
                        "counterfactual",
                        "benefit",
                        "fires",
                        "events",
                        "anchor_tick",
                        "anchor_action",
                        "log_dropped",
                        "truncated",
                    ],
                    "counterfactual",
                )
            }
            other => Err(format!("unknown record kind {other:?}")),
        };
        check.map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    if !saw_provenance {
        return Err("no provenance record".to_string());
    }
    if arms == 0 {
        return Err("no arm records".to_string());
    }
    Ok(format!(
        "{arms} arm(s), {replicates} replicate record(s), {counterfactuals} counterfactual record(s)"
    ))
}

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map_or_else(obs::artifact_root, PathBuf::from);
    let mut files = Vec::new();
    if let Err(e) = collect_jsonl(&root, &mut files) {
        eprintln!("obs_validate: cannot scan {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    if files.is_empty() {
        eprintln!("obs_validate: no .jsonl artifacts under {}", root.display());
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &files {
        match validate(path) {
            Ok(summary) => println!("ok  {} ({summary})", path.display()),
            Err(e) => {
                eprintln!("BAD {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
