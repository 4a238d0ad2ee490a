//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <city|audit|des|live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host fingerprint, every metric by name with its unit, any
//! failed output check, and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones from a traced run. Exits 1
//! when an output check fails and 2 on a usage or set-up error.
//!
//! `--print-expected <workload>` prints the canary digest in the format
//! of `expected.txt`.

mod calib;
mod check;
mod host;
mod live;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use simkernel::obs::Json;

use check::Checks;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["city", "audit", "des", "live"];

/// End-to-end metrics and units. Every workload reports every one; the
/// meaning of the operation-based ones per workload is in README.md.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
    ("ops_per_s", "1/s"),
    ("op_ms", "ms"),
    ("quality", "ratio"),
];

/// Per-layer metrics and units. A layer a workload does not exercise
/// reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("parallel.busy_share", "share"),
    ("compose.run_city_ms.p50", "ms"),
    ("compose.run_city_ms.tail", "ms"),
    ("compose.sense_s", "s"),
    ("compose.decide_s", "s"),
    ("compose.act_s", "s"),
    ("compose.comms_s", "s"),
    ("selfaware.overhead_share", "share"),
    ("comms.s", "s"),
    ("comms.sent", "count"),
    ("comms.retries", "count"),
    ("comms.expired", "count"),
    ("comms.retry_ratio", "ratio"),
    ("supervision.rollbacks", "count"),
    ("supervision.fallbacks", "count"),
    ("health.quarantines", "count"),
    ("replay.factual_ms", "ms"),
    ("replay.masked_ms", "ms"),
    ("replay.masked_share", "share"),
    ("replay.identical_share", "share"),
    ("replay.fired_classes", "count"),
    ("des.camnet_s", "s"),
    ("des.cloud_s", "s"),
    ("sched.camnet.visits", "count"),
    ("sched.camnet.wakes", "count"),
    ("sched.camnet.shed", "count"),
    ("sched.cloud.visits", "count"),
    ("sched.cloud.wakes", "count"),
    ("sched.cloud.shed", "count"),
    ("sched.camnet.ns_per_visit", "ns"),
    ("sched.cloud.ns_per_wake", "ns"),
    ("sched.camnet.visit_share", "share"),
    ("des.camnet_dense_ns_per_entity_tick", "ns"),
    ("des.cloud_dense_ns_per_entity_tick", "ns"),
    ("live.connect_ms", "ms"),
    ("live.response_ms", "ms"),
    ("live.server_ms", "ms"),
    ("live.pre_admit_ms", "ms"),
    ("live.shed_share", "share"),
    ("live.timed_out", "count"),
    ("live.io_errors", "count"),
    ("governor.decide_us", "us"),
    ("governor.mean_cap", "count"),
    ("live.gen_lag_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own figures under the names its notes use,
    /// printed with their units.
    pub notes: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one of the workload's own figures.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, checks: &mut Checks) -> Result<Report, String> {
    let Args {
        seed,
        seconds,
        trace,
        ..
    } = *args;
    match args.workload.as_str() {
        "city" => sim::city(seed, seconds, trace, checks),
        "audit" => sim::audit(seed, seconds, trace, checks),
        "des" => sim::des(seed, seconds, trace, checks),
        "live" => live::live(seed, seconds, trace, checks),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Renders the result line: the listed metrics, each with its unit.
/// Missing layer metrics read 0; a missing end-to-end metric or a
/// non-finite value is a failed check.
fn result_line(
    values: &BTreeMap<&'static str, f64>,
    list: &[(&'static str, &'static str)],
    zero_missing: bool,
    checks: &mut Checks,
) -> Json {
    let mut metrics = Vec::new();
    for &(name, unit) in list {
        let value = match values.get(name) {
            Some(v) => *v,
            None if zero_missing => 0.0,
            None => {
                checks.record(name, Some("metric not measured".into()));
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            checks.record(name, Some(format!("non-finite value {value}")));
            0.0
        };
        metrics.push((
            name.to_owned(),
            Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))]),
        ));
    }
    Json::obj([
        ("correct", Json::from(checks.correct())),
        ("attempted", Json::from(checks.attempted)),
        ("failed", Json::from(checks.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_expected(workload: &str) -> Result<String, String> {
    let digest = match workload {
        "city" => sim::city_canary_digest(),
        "audit" => sim::audit_canary_digest(),
        "des" => sim::des_canary_digest(),
        other => return Err(format!("no canary for workload {other}")),
    };
    Ok(check::render_expected(workload, &digest))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload] = &argv[..] {
        if flag == "--print-expected" {
            return match print_expected(workload) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host::fingerprint().render());
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let mut report = match run(&args, &mut checks) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    report.e2e.insert("peak_rss_mb", host::peak_rss_mb());
    report.e2e.insert(
        "ok_share",
        (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64,
    );

    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    for (name, value) in report.e2e.iter().chain(&report.layers) {
        println!("metric {name} {value} {}", units.get(name).unwrap_or(&"?"));
    }
    for (name, value, unit) in &report.notes {
        println!("metric {name} {value} {unit}");
    }
    let line = if args.trace {
        result_line(&report.layers, &PER_LAYER, true, &mut checks)
    } else {
        result_line(&report.e2e, &END_TO_END, false, &mut checks)
    };
    for f in &checks.failures {
        println!("check FAILED {f}");
    }
    println!("{}", line.render());
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::obs;

    fn strings(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        obs::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_name_in_benchmark_json_is_well_formed_and_matches_the_program() {
        let doc = benchmark_json();
        let ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let e2e = listed(&doc, "end_to_end");
        let layers = listed(&doc, "per_layer");
        let names: Vec<&str> = workloads
            .iter()
            .map(String::as_str)
            .chain(e2e.iter().chain(&layers).map(|(n, _)| n.as_str()))
            .collect();
        for n in &names {
            assert!(ok(n), "name {n:?} is not [A-Za-z0-9_.-]+");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert_eq!(workloads, WORKLOADS.map(str::to_owned));
        assert_eq!(e2e, strings(&END_TO_END));
        assert_eq!(layers, strings(&PER_LAYER));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&args("--workload des --seed 3 --seconds 2.5 --trace 1")),
            Ok(Args {
                workload: "des".into(),
                seed: 3,
                seconds: 2.5,
                trace: true
            })
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload city")).is_err());
        assert!(parse_args(&args("--workload city --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload city --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload city --seed")).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut checks = Checks::default();
        checks.record("op", None);
        let values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|&(n, _)| (n, 1.0)).collect();
        let ok = result_line(&values, &END_TO_END, false, &mut checks);
        assert_eq!(ok.get("correct"), Some(&Json::Bool(true)));
        let mut missing = values.clone();
        missing.remove("quality");
        let bad = result_line(&missing, &END_TO_END, false, &mut checks);
        assert_eq!(bad.get("correct"), Some(&Json::Bool(false)));
        assert!(checks.failures.iter().any(|f| f.contains("quality")));
    }
}
