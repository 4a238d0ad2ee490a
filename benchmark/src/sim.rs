//! The simulation workloads: `city`, `audit` and `des`.
//!
//! Every input is generated here from the workload seed; the library
//! crates receive only the generated worlds. Each workload repeats its
//! operation on the same inputs until the run time is spent, and sets
//! up (builds its inputs and runs a fixed-seed canary checked against
//! `expected.txt`) before each of its first [`SETUPS`] operations, so
//! the set-ups sample the run rather than its first second. Repeats
//! must reproduce the first result bit for bit.

use std::sync::Mutex;
use std::time::Instant;

use camnet::{run_des_camnet, DesCamnetConfig};
use cloudsim::{run_des_cloud, DesCloudConfig};
use compose::{run_city, CityConfig, CityPolicy};
use selfaware::goals::Direction;
use selfaware::replay::{
    CounterfactualReport, CounterfactualRun, InterventionClass, ReplayOutcome,
};
use simkernel::obs::{self, PhaseProfile};
use simkernel::{ActivationStats, DriveMode, MetricSet, Replications, SeedTree, Tick};
use workloads::faults::ModelCorruptionKind;
use workloads::{FaultCampaign, FaultEvent, FaultPlan, LinkModel, SensorFaultKind};

use crate::calib;
use crate::check::{self, Checks, Digest, Repeats};
use crate::host;
use crate::stats::{self, mean, median};
use crate::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Seed of the canary inputs whose outputs `expected.txt` records.
pub const CANARY_SEED: u64 = 0x5A5_CA7A;

/// City horizon in ticks (the F9 world).
const CITY_STEPS: u64 = 3000;
/// Canary horizon for `audit` (ten runs per probe); the `city` canary
/// is one full-length replicate, long enough for a steady `setup_s`.
const CANARY_AUDIT_STEPS: u64 = 600;
/// Replicates per `city` round.
const CITY_POOL: u32 = 16;
/// Distinct replicates `audit` cycles through.
const AUDIT_POOL: u32 = 8;
/// Headline metric the audit's counterfactuals are scored on.
const AUDIT_METRIC: &str = "utility";

/// Phase names of the composed city's existing `SAS_OBS` spans.
const CITY_SENSE: &str = "city:sense";
const CITY_DECIDE: &str = "city:decide";
const CITY_ACT: &str = "city:act";
const CITY_COMMS: &str = "city:comms";
const COMMS: &str = "comms";

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f`, appending its time at reference speed in seconds to
/// `times`.
fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let (out, paced) = calib::paced(f);
    times.push(paced.scaled_ms() / 1e3);
    out
}

/// Writes the operation metrics of a simulation workload: `ops_per_s`
/// as given, `op_ms` as the median of the untraced operation times
/// `op_ms` (at reference speed), and their count and tail as
/// `<name>.*` notes.
fn write_ops(r: &mut Report, name: &str, ops_per_s: f64, op_ms: &[f64]) {
    let ops = stats::summarize(op_ms);
    r.e2e.insert("ops_per_s", ops_per_s);
    r.e2e.insert("op_ms", ops.p50);
    r.note(format!("{name}.ops"), ops.n as f64, "count");
    r.note(format!("{name}.op_tail_ms"), ops.tail, "ms");
    r.note(
        format!("{name}.op_tail_percentile"),
        ops.tail_q * 100.0,
        "%",
    );
}

fn metric_digest(prefix: &str, m: &MetricSet) -> Digest {
    m.iter().map(|(k, v)| (format!("{prefix}{k}"), v)).collect()
}

fn get(m: &MetricSet, key: &str) -> f64 {
    m.get(key).unwrap_or(f64::NAN)
}

/// Turns observability on for traced passes and off otherwise, so the
/// `SAS_OBS` environment variable never leaks into a timing.
fn trace_pass(on: bool) {
    obs::set_override(Some(on));
}

// ---------------------------------------------------------------------------
// City inputs
// ---------------------------------------------------------------------------

/// The F9 cascade: zone 1's backend dark for the middle two fifths of
/// the run, a partition on zone agent 1 healing inside that outage, a
/// bias fault on camera 2, a routing-model scramble, and 10% loss on
/// every command-plane link.
fn cascade(seeds: &SeedTree, steps: u64) -> FaultCampaign {
    FaultCampaign::new("cascade", seeds)
        .with_loss(LinkModel::lossy(0.1))
        .zone_outage(Tick(steps * 2 / 5), 3, 3, steps * 2 / 5)
        .net_partition(steps * 2 / 5 + 10, steps / 5, vec![1])
        .fault(FaultEvent::sensor_fault(
            Tick(steps / 4),
            2,
            SensorFaultKind::Bias { offset: 0.6 },
            steps / 3,
        ))
        .corruption(
            Tick(steps / 2),
            0,
            ModelCorruptionKind::WeightScramble { gain: 25.0 },
        )
}

/// One composed-city input: the supervised world under the cascade.
#[derive(Debug, Clone)]
struct CityInput {
    replicate: SeedTree,
    seeds: SeedTree,
    cfg: CityConfig,
}

fn city_input(replicate: SeedTree, steps: u64) -> CityInput {
    let seeds = replicate.child("city");
    let mut cfg = CityConfig::standard(CityPolicy::supervised(), steps, &seeds);
    cfg.campaign = cascade(&seeds, steps);
    CityInput {
        replicate,
        seeds,
        cfg,
    }
}

fn city_inputs(seed: u64, pool: u32, steps: u64) -> (Replications, Vec<CityInput>) {
    let reps = Replications::new(seed, pool);
    let inputs = (0..pool)
        .map(|k| city_input(reps.seeds_for(k), steps))
        .collect();
    (reps, inputs)
}

fn canary_city(steps: u64) -> CityInput {
    city_input(SeedTree::new(CANARY_SEED), steps)
}

/// The `city` canary's digest: its full metric set.
#[must_use]
pub fn city_canary_digest() -> Digest {
    let c = canary_city(CITY_STEPS);
    metric_digest("", &run_city(&c.cfg, &c.seeds).metrics)
}

// ---------------------------------------------------------------------------
// Layer accounting shared by city and audit
// ---------------------------------------------------------------------------

/// Composed-city layer times and counts accumulated over traced runs.
#[derive(Debug, Default)]
struct CityLayers {
    profile: PhaseProfile,
    runs: u64,
    call_ms: Vec<f64>,
}

impl CityLayers {
    fn total(&self, phase: &str) -> f64 {
        self.profile.phase(phase).map_or(0.0, |p| p.stats.sum())
    }

    /// Writes the `compose.*`, `comms.s` and `selfaware.overhead_share`
    /// layer metrics. Self times: `city:comms` nests inside `city:act`.
    fn write(&self, r: &mut Report) {
        let per_run = |s: f64| s / self.runs.max(1) as f64;
        let sense = self.total(CITY_SENSE);
        let decide = self.total(CITY_DECIDE);
        let comms = self.total(CITY_COMMS);
        let act = (self.total(CITY_ACT) - comms).max(0.0);
        let all = sense + decide + act + comms;
        r.layers.insert("compose.sense_s", per_run(sense));
        r.layers.insert("compose.decide_s", per_run(decide));
        r.layers.insert("compose.act_s", per_run(act));
        r.layers.insert("compose.comms_s", per_run(comms));
        r.layers.insert("comms.s", per_run(self.total(COMMS)));
        r.layers.insert(
            "selfaware.overhead_share",
            if all > 0.0 {
                (sense + decide + comms) / all
            } else {
                0.0
            },
        );
        let calls = stats::summarize(&self.call_ms);
        r.layers.insert("compose.run_city_ms.p50", calls.p50);
        r.layers.insert("compose.run_city_ms.tail", calls.tail);
        r.note(
            "compose.run_city_ms.tail_percentile",
            calls.tail_q * 100.0,
            "%",
        );
    }
}

/// Deterministic per-replicate counts of the comms, supervision and
/// health layers, averaged over the distinct inputs.
fn write_city_counts(r: &mut Report, metrics: &[MetricSet]) {
    let avg = |key: &str| mean(&metrics.iter().map(|m| get(m, key)).collect::<Vec<_>>());
    let sent = avg("comms_sent");
    let retries = avg("comms_retries");
    r.layers.insert("comms.sent", sent);
    r.layers.insert("comms.retries", retries);
    r.layers.insert("comms.expired", avg("comms_expired"));
    r.layers.insert(
        "comms.retry_ratio",
        if sent > 0.0 { retries / sent } else { 0.0 },
    );
    r.layers
        .insert("supervision.rollbacks", avg("model_rollbacks"));
    r.layers
        .insert("supervision.fallbacks", avg("model_fallbacks"));
    r.layers.insert("health.quarantines", avg("quarantines"));
}

/// Traced-minus-untraced time as a share of the untraced time.
fn overhead_share(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = mean(untraced);
    if base > 0.0 && !traced.is_empty() {
        (mean(traced) - base) / base
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// city
// ---------------------------------------------------------------------------

struct CityCall {
    index: usize,
    /// The `run_city` call at reference speed.
    ms: f64,
    /// Wall time of the call and the kernel runs around it.
    busy_ms: f64,
    metrics: MetricSet,
}

/// The `city` workload: rounds of [`CITY_POOL`] replicates through
/// `Replications` at `available_parallelism` workers.
///
/// # Errors
///
/// Returns an error when the worker count exceeds the host.
pub fn city(seed: u64, seconds: f64, traced: bool, checks: &mut Checks) -> Result<Report, String> {
    let workers = host::check_threads(host::nproc(), "replication workers")?;
    let expected = check::expected("city")?;
    let mut report = Report::default();

    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>, checks: &mut Checks| {
        timed(setup, || {
            let pool = city_inputs(seed, CITY_POOL, CITY_STEPS);
            checks.against("city canary", &expected, &city_canary_digest());
            pool
        })
    };
    let (reps, inputs) = set_up(&mut setup, checks);

    let mut repeats = Repeats::default();
    let mut first_metrics: Vec<Option<MetricSet>> = vec![None; inputs.len()];
    let (mut done, mut wall) = (0u64, 0.0f64);
    let (mut untraced_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let mut busy = Vec::new();
    let mut layers = CityLayers::default();
    let mut call_ms = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || secs_since(start) < seconds {
        if round > 0 && setup.len() < SETUPS {
            set_up(&mut setup, checks);
        }
        let traced_round = traced && round % 2 == 1;
        trace_pass(traced_round);
        let calls = Mutex::new(Vec::with_capacity(inputs.len()));
        let t = Instant::now();
        let run = reps.run_par_threads(workers, |replicate| {
            let index = inputs
                .iter()
                .position(|i| i.replicate == replicate)
                .expect("replicate seeds come from the generated pool");
            let input = &inputs[index];
            let (r, paced) = calib::paced(|| run_city(&input.cfg, &input.seeds));
            calls
                .lock()
                .expect("a replicate panicked while recording")
                .push(CityCall {
                    index,
                    ms: paced.scaled_ms(),
                    busy_ms: paced.ms + paced.reference_ms,
                    metrics: r.metrics.clone(),
                });
            r.metrics
        });
        let round_s = secs_since(t);
        let calls = calls.into_inner().expect("replicates finished");
        for e in run.errors() {
            checks.record(
                &format!("city replicate {}", e.replicate),
                Some(format!("excluded: {}", e.panic)),
            );
        }
        for k in run.recovered() {
            checks.record(&format!("city replicate {k}"), Some("panicked".into()));
        }
        let recovered = run.recovered();
        let mut busy_s = 0.0;
        for c in calls {
            busy_s += c.busy_ms / 1e3;
            if recovered.contains(&(c.index as u32)) {
                continue;
            }
            repeats.check(
                checks,
                "city replicate",
                c.index,
                metric_digest("", &c.metrics),
            );
            if traced_round {
                layers.call_ms.push(c.ms);
            } else {
                call_ms.push(c.ms);
            }
            first_metrics[c.index].get_or_insert(c.metrics);
        }
        busy.push(busy_s / (round_s * workers as f64));
        if traced_round {
            layers.profile.merge(run.profile());
            layers.runs += u64::from(run.completed());
            traced_rounds.push(round_s);
        } else {
            done += u64::from(run.completed());
            wall += round_s;
            untraced_rounds.push(round_s);
        }
        round += 1;
    }
    trace_pass(false);
    while setup.len() < SETUPS {
        set_up(&mut setup, checks);
    }
    report.e2e.insert("setup_s", median(&setup));

    let metrics: Vec<MetricSet> = first_metrics.into_iter().flatten().collect();
    let on_time = mean(
        &metrics
            .iter()
            .map(|m| get(m, "on_time_ratio"))
            .collect::<Vec<_>>(),
    );
    // A pool's throughput: its workers, times the share of the wall
    // they were busy, over the time one replicate takes.
    let busy_share = median(&busy);
    let reps_per_s = workers as f64 * busy_share * 1e3 / median(&call_ms);
    write_ops(&mut report, "city", reps_per_s, &call_ms);
    report.e2e.insert("quality", on_time);
    report.note("city_reps_per_s", reps_per_s, "1/s");
    report.note(
        "city.mean_reps_per_s",
        done as f64 / wall.max(f64::MIN_POSITIVE),
        "1/s",
    );
    report.note("on_time_ratio", on_time, "ratio");
    report.note("city.workers", workers as f64, "count");
    report.layers.insert("parallel.busy_share", busy_share);
    write_city_counts(&mut report, &metrics);
    if traced {
        layers.write(&mut report);
        report.layers.insert(
            "trace.overhead_share",
            overhead_share(&untraced_rounds, &traced_rounds),
        );
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// audit
// ---------------------------------------------------------------------------

/// Timings of the re-executions inside one probe, at reference speed,
/// with the host slowdown measured around each.
#[derive(Debug, Default)]
struct ProbeTimes {
    factual_ms: f64,
    masked_ms: Vec<f64>,
    factual: Option<MetricSet>,
    reference_ms: f64,
    slowdowns: Vec<f64>,
}

impl ProbeTimes {
    /// The whole probe at reference speed, given its wall time: the
    /// kernel runs taken out, the mean slowdown divided out.
    fn scaled_ms(&self, wall_ms: f64) -> f64 {
        (wall_ms - self.reference_ms) / mean(&self.slowdowns)
    }
}

/// Audits one replicate: the factual run plus one masked re-execution
/// per intervention class, each timed around the closure `probe` calls
/// when `times` is given.
fn probe(input: &CityInput, mut times: Option<&mut ProbeTimes>) -> CounterfactualReport {
    CounterfactualRun::new(AUDIT_METRIC, Direction::Maximize, |mask| {
        let mut cfg = input.cfg.clone();
        cfg.campaign = cfg.campaign.with_mask(mask);
        let run = || run_city(&cfg, &input.seeds);
        let Some(times) = times.as_deref_mut() else {
            let r = run();
            return ReplayOutcome {
                metric: get(&r.metrics, AUDIT_METRIC),
                log: r.log,
            };
        };
        let (r, paced) = calib::paced(run);
        times.reference_ms += paced.reference_ms;
        times.slowdowns.push(paced.slowdown);
        if mask.is_factual() {
            times.factual_ms = paced.scaled_ms();
            times.factual = Some(r.metrics.clone());
        } else {
            times.masked_ms.push(paced.scaled_ms());
        }
        ReplayOutcome {
            metric: get(&r.metrics, AUDIT_METRIC),
            log: r.log,
        }
    })
    .probe(&InterventionClass::ALL)
}

fn audit_digest(report: &CounterfactualReport) -> Digest {
    let mut d = vec![("factual".to_owned(), report.factual)];
    for delta in &report.deltas {
        let class = delta.class.label();
        d.push((format!("benefit:{class}"), delta.benefit));
        d.push((format!("events:{class}"), delta.events as f64));
    }
    d
}

/// The `audit` canary's digest: factual value, per-class benefits and
/// events of one probe at the canary horizon.
#[must_use]
pub fn audit_canary_digest() -> Digest {
    audit_digest(&probe(&canary_city(CANARY_AUDIT_STEPS), None))
}

/// The `audit` workload: counterfactual probes of [`AUDIT_POOL`]
/// replicates in turn, on one worker.
///
/// # Errors
///
/// Returns an error when the host has no core to run on.
pub fn audit(seed: u64, seconds: f64, traced: bool, checks: &mut Checks) -> Result<Report, String> {
    host::check_threads(1, "replay workers")?;
    let expected = check::expected("audit")?;
    let mut report = Report::default();

    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>, checks: &mut Checks| {
        timed(setup, || {
            let pool = city_inputs(seed, AUDIT_POOL, CITY_STEPS).1;
            checks.against("audit canary", &expected, &audit_canary_digest());
            pool
        })
    };
    let inputs = set_up(&mut setup, checks);

    let mut repeats = Repeats::default();
    let mut first: Vec<Option<(CounterfactualReport, MetricSet)>> = vec![None; inputs.len()];
    let (mut done, mut wall) = (0u64, 0.0f64);
    let (mut factual_ms, mut masked_ms) = (Vec::new(), Vec::new());
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut layers = CityLayers::default();
    let start = Instant::now();
    let mut op = 0usize;
    while op == 0 || secs_since(start) < seconds {
        if op > 0 && setup.len() < SETUPS {
            set_up(&mut setup, checks);
        }
        // Traced runs pair each input's untraced probe with a traced one.
        let (index, traced_op) = if traced {
            ((op / 2) % inputs.len(), op % 2 == 1)
        } else {
            (op % inputs.len(), false)
        };
        trace_pass(traced_op);
        let mut times = ProbeTimes::default();
        let t = Instant::now();
        let (outcome, seen) = obs::with_sink(|| probe(&inputs[index], Some(&mut times)));
        let wall_ms = secs_since(t) * 1e3;
        let ms = times.scaled_ms(wall_ms);
        repeats.check(checks, "audit replicate", index, audit_digest(&outcome));
        if traced_op {
            layers.profile.merge(&seen.profile);
            layers.runs += 1 + times.masked_ms.len() as u64;
            layers.call_ms.push(times.factual_ms);
            layers.call_ms.extend(&times.masked_ms);
            factual_ms.push(times.factual_ms);
            masked_ms.extend(&times.masked_ms);
            traced_ms.push(ms);
        } else {
            done += 1;
            wall += (wall_ms - times.reference_ms) / 1e3;
            untraced_ms.push(ms);
        }
        if let Some(factual) = times.factual {
            first[index].get_or_insert((outcome, factual));
        }
        op += 1;
    }
    trace_pass(false);
    while setup.len() < SETUPS {
        set_up(&mut setup, checks);
    }
    report.e2e.insert("setup_s", median(&setup));

    let (audited, factual): (Vec<CounterfactualReport>, Vec<MetricSet>) =
        first.into_iter().flatten().unzip();
    let reps_per_s = 1e3 / median(&untraced_ms);
    write_city_counts(&mut report, &factual);
    let factual_on_time = mean(
        &factual
            .iter()
            .map(|m| get(m, "on_time_ratio"))
            .collect::<Vec<_>>(),
    );
    write_ops(&mut report, "audit", reps_per_s, &untraced_ms);
    report.e2e.insert("quality", factual_on_time);
    report.note("audit_reps_per_s", reps_per_s, "1/s");
    report.note(
        "audit.mean_reps_per_s",
        done as f64 / wall.max(f64::MIN_POSITIVE),
        "1/s",
    );
    report.note("on_time_ratio", factual_on_time, "ratio");
    report.layers.insert("parallel.busy_share", 1.0);

    let masked_total = audited.iter().map(|a| a.deltas.len()).sum::<usize>();
    let identical = audited
        .iter()
        .flat_map(|a| a.deltas.iter())
        .filter(|d| d.counterfactual.to_bits() == d.factual.to_bits())
        .count();
    let fired = audited
        .iter()
        .map(|a| a.deltas.iter().filter(|d| d.events > 0).count() as f64)
        .collect::<Vec<_>>();
    report.layers.insert(
        "replay.identical_share",
        identical as f64 / masked_total.max(1) as f64,
    );
    report.layers.insert("replay.fired_classes", mean(&fired));
    if traced {
        layers.write(&mut report);
        let f = mean(&factual_ms);
        let m = mean(&masked_ms);
        let per_probe_masked = m * masked_ms.len() as f64 / factual_ms.len().max(1) as f64;
        report.layers.insert("replay.factual_ms", f);
        report.layers.insert("replay.masked_ms", m);
        report.layers.insert(
            "replay.masked_share",
            if f + per_probe_masked > 0.0 {
                per_probe_masked / (f + per_probe_masked)
            } else {
                0.0
            },
        );
        report.layers.insert(
            "trace.overhead_share",
            overhead_share(&untraced_ms, &traced_ms),
        );
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// des
// ---------------------------------------------------------------------------

/// One DES world-set: the sparse full-scale worlds of F12 plus the
/// dense drive of each substrate at reduced scale.
#[derive(Debug, Clone)]
struct DesWorlds {
    camnet: DesCamnetConfig,
    cloud: DesCloudConfig,
    camnet_dense: DesCamnetConfig,
    cloud_dense: DesCloudConfig,
}

/// A handful of camera failures and recoveries across the grid.
fn camnet_world(side: usize, steps: u64, drive: DriveMode) -> DesCamnetConfig {
    let n = side * side;
    let mut faults = FaultPlan::none();
    for k in 0..4usize {
        let cam = (k * n) / 4 + side / 2;
        faults = faults
            .and(FaultEvent::camera_fail(Tick(steps / 4), cam))
            .and(FaultEvent::camera_recover(Tick(steps * 3 / 4), cam));
    }
    let mut cfg = DesCamnetConfig::at_scale(side, 256, steps);
    cfg.faults = faults;
    cfg.drive = drive;
    cfg
}

/// Volunteer churn at trace scale plus one mid-run rack outage over an
/// eighth of the fleet.
fn cloud_world(nodes: usize, steps: u64, drive: DriveMode) -> DesCloudConfig {
    let mut cfg = DesCloudConfig::at_scale(nodes, steps, 8.0);
    cfg.churn_off = 2e-4;
    cfg.churn_on = 2e-3;
    cfg.faults = FaultPlan::none().and(FaultEvent::zone_outage(
        Tick(steps / 3),
        nodes / 4,
        (nodes / 8).max(1),
        steps / 4,
    ));
    cfg.drive = drive;
    cfg
}

fn des_worlds() -> DesWorlds {
    DesWorlds {
        camnet: camnet_world(141, 2_000, DriveMode::Sparse),
        cloud: cloud_world(32_768, 150_000, DriveMode::Sparse),
        camnet_dense: camnet_world(20, 250, DriveMode::Dense),
        cloud_dense: cloud_world(1_024, 20_000, DriveMode::Dense),
    }
}

/// One DES call: its digest, counters and time at reference speed.
struct DesCall {
    digest: Digest,
    perf: ActivationStats,
    metrics: MetricSet,
    secs: f64,
}

impl DesCall {
    /// Digests the world metrics and the activation counters under
    /// `label`.
    fn new(label: &str, secs: f64, metrics: MetricSet, perf: ActivationStats) -> Self {
        let mut digest = metric_digest(&format!("{label}."), &metrics);
        digest.extend([
            (format!("{label}.visits"), perf.visits as f64),
            (format!("{label}.wakes"), perf.wakes as f64),
            (format!("{label}.shed"), perf.shed as f64),
            (format!("{label}.entity_ticks"), perf.entity_ticks as f64),
        ]);
        Self {
            digest,
            perf,
            metrics,
            secs,
        }
    }
}

fn des_camnet(cfg: &DesCamnetConfig, seeds: &SeedTree, label: &str) -> DesCall {
    let (r, paced) = calib::paced(|| run_des_camnet(cfg, seeds));
    DesCall::new(label, paced.scaled_ms() / 1e3, r.metrics, r.perf)
}

fn des_cloud(cfg: &DesCloudConfig, seeds: &SeedTree, label: &str) -> DesCall {
    let (r, paced) = calib::paced(|| run_des_cloud(cfg, seeds));
    DesCall::new(label, paced.scaled_ms() / 1e3, r.metrics, r.perf)
}

/// The `des` canary's digest: both substrates' sparse drive at reduced
/// scale, world metrics plus activation counters.
#[must_use]
pub fn des_canary_digest() -> Digest {
    let seeds = SeedTree::new(CANARY_SEED);
    let camnet = run_des_camnet(&camnet_world(20, 250, DriveMode::Sparse), &seeds);
    let cloud = run_des_cloud(&cloud_world(1_024, 20_000, DriveMode::Sparse), &seeds);
    let mut d = DesCall::new("camnet", 0.0, camnet.metrics, camnet.perf).digest;
    d.extend(DesCall::new("cloud", 0.0, cloud.metrics, cloud.perf).digest);
    d
}

fn ns_per_entity_tick(secs: &[f64], perf: &ActivationStats) -> f64 {
    median(secs) * 1e9 / perf.entity_ticks.max(1) as f64
}

/// The `des` workload: the world-set run again and again on one worker.
///
/// # Errors
///
/// Returns an error when the host has no core to run on.
pub fn des(seed: u64, seconds: f64, traced: bool, checks: &mut Checks) -> Result<Report, String> {
    host::check_threads(1, "simulation workers")?;
    let expected = check::expected("des")?;
    let mut report = Report::default();

    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>, checks: &mut Checks| {
        timed(setup, || {
            let worlds = des_worlds();
            checks.against("des canary", &expected, &des_canary_digest());
            worlds
        })
    };
    let w = set_up(&mut setup, checks);
    let seeds = Replications::new(seed, 1).seeds_for(0);

    let mut repeats = Repeats::default();
    let (mut camnet_s, mut cloud_s) = (Vec::new(), Vec::new());
    let (mut camnet_dense_s, mut cloud_dense_s) = (Vec::new(), Vec::new());
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    let mut op = 0usize;
    while op == 0 || secs_since(start) < seconds {
        if op > 0 && setup.len() < SETUPS {
            set_up(&mut setup, checks);
        }
        let traced_op = traced && op % 2 == 1;
        trace_pass(traced_op);
        let calls = [
            des_camnet(&w.camnet, &seeds, "camnet"),
            des_cloud(&w.cloud, &seeds, "cloud"),
            des_camnet(&w.camnet_dense, &seeds, "camnet_dense"),
            des_cloud(&w.cloud_dense, &seeds, "cloud_dense"),
        ];
        let secs: f64 = calls.iter().map(|c| c.secs).sum();
        let digest: Digest = calls.iter().flat_map(|c| c.digest.clone()).collect();
        repeats.check(checks, "des world-set", 0, digest);
        camnet_s.push(calls[0].secs);
        cloud_s.push(calls[1].secs);
        camnet_dense_s.push(calls[2].secs);
        cloud_dense_s.push(calls[3].secs);
        if traced_op {
            traced_s.push(secs);
        } else {
            untraced_s.push(secs);
        }
        last = Some(calls);
        op += 1;
    }
    trace_pass(false);
    while setup.len() < SETUPS {
        set_up(&mut setup, checks);
    }
    report.e2e.insert("setup_s", median(&setup));
    let [camnet, cloud, camnet_dense, cloud_dense] = last.ok_or("no world-set ran")?;

    let camnet_ns = ns_per_entity_tick(&camnet_s, &camnet.perf);
    let cloud_ns = ns_per_entity_tick(&cloud_s, &cloud.perf);
    let quality =
        (get(&camnet.metrics, "track_quality") + get(&cloud.metrics, "completion_ratio")) / 2.0;
    write_ops(
        &mut report,
        "des",
        1.0 / median(&untraced_s),
        &untraced_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    report.e2e.insert("quality", quality);
    report.note("des_camnet_ns_per_entity_tick", camnet_ns, "ns");
    report.note("des_cloud_ns_per_entity_tick", cloud_ns, "ns");
    report.note(
        "des.camnet_track_quality",
        get(&camnet.metrics, "track_quality"),
        "ratio",
    );
    report.note(
        "des.cloud_completion_ratio",
        get(&cloud.metrics, "completion_ratio"),
        "ratio",
    );
    report.layers.insert("parallel.busy_share", 1.0);
    let l = &mut report.layers;
    l.insert("des.camnet_s", median(&camnet_s));
    l.insert("des.cloud_s", median(&cloud_s));
    l.insert("sched.camnet.visits", camnet.perf.visits as f64);
    l.insert("sched.camnet.wakes", camnet.perf.wakes as f64);
    l.insert("sched.camnet.shed", camnet.perf.shed as f64);
    l.insert("sched.cloud.visits", cloud.perf.visits as f64);
    l.insert("sched.cloud.wakes", cloud.perf.wakes as f64);
    l.insert("sched.cloud.shed", cloud.perf.shed as f64);
    l.insert(
        "sched.camnet.ns_per_visit",
        median(&camnet_s) * 1e9 / camnet.perf.visits.max(1) as f64,
    );
    l.insert(
        "sched.cloud.ns_per_wake",
        median(&cloud_s) * 1e9 / cloud.perf.wakes.max(1) as f64,
    );
    l.insert(
        "sched.camnet.visit_share",
        camnet.perf.visits as f64 / camnet.perf.entity_ticks.max(1) as f64,
    );
    l.insert(
        "des.camnet_dense_ns_per_entity_tick",
        ns_per_entity_tick(&camnet_dense_s, &camnet_dense.perf),
    );
    l.insert(
        "des.cloud_dense_ns_per_entity_tick",
        ns_per_entity_tick(&cloud_dense_s, &cloud_dense.perf),
    );
    if traced {
        l.insert(
            "trace.overhead_share",
            overhead_share(&untraced_s, &traced_s),
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generated inputs (rendered) and the outputs of one city run.
    fn run_seed(seed: u64) -> (String, Digest) {
        let input = city_input(Replications::new(seed, 1).seeds_for(0), 120);
        let inputs = format!("{:?}|{:?}", input.seeds, input.cfg);
        let out = metric_digest("", &run_city(&input.cfg, &input.seeds).metrics);
        (inputs, out)
    }

    #[test]
    fn same_seed_same_digest_and_other_seed_other_inputs() {
        let (inputs_a, out_a) = run_seed(7);
        let (inputs_b, out_b) = run_seed(7);
        assert_eq!(inputs_a, inputs_b);
        assert_eq!(check::diverged(&out_a, &out_b), None);
        let (inputs_c, out_c) = run_seed(8);
        assert_ne!(
            inputs_a, inputs_c,
            "another seed must generate other inputs"
        );
        assert!(check::diverged(&out_a, &out_c).is_some());
    }

    #[test]
    fn wrong_expected_digest_is_reported_as_a_failure() {
        let actual = city_canary_digest();
        let mut wrong = actual.clone();
        let (name, value) = wrong[0].clone();
        wrong[0].1 = value + 1.0;
        let mut checks = Checks::default();
        checks.against("city canary", &wrong, &actual);
        assert!(!checks.correct());
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        assert!(
            checks.failures[0].contains(&format!("`{name}`")),
            "{:?}",
            checks.failures
        );
    }

    #[test]
    fn committed_expected_digests_match_the_canaries() {
        for (workload, actual) in [
            ("city", city_canary_digest()),
            ("audit", audit_canary_digest()),
            ("des", des_canary_digest()),
        ] {
            let expected = check::expected(workload).expect("expected.txt has the workload");
            assert_eq!(check::diverged(&expected, &actual), None, "{workload}");
        }
    }
}
