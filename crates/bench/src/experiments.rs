//! Experiment implementations (T1–T6, F1–F4). See EXPERIMENTS.md for
//! the claim each one tests and the expected shape.

use selfaware::collective::{centralized_estimate, hierarchical_estimate, GossipNetwork};
use selfaware::goals::Direction;
use selfaware::levels::{Level, LevelSet};
use selfaware::meta::ModelPool;
use selfaware::models::ar::ArModel;
use selfaware::models::ewma::Ewma;
use selfaware::models::holt::Holt;
use selfaware::models::{Forecaster, OnlineModel as _};
use selfaware::replay::{
    CounterfactualDelta, CounterfactualReport, CounterfactualRun, InterventionClass,
    InterventionMask, ReplayOutcome,
};
use simkernel::obs;
use simkernel::runner::RunReport;
use simkernel::series::render_multi;
use simkernel::table::{num, num_ci};
use simkernel::{par_map, MetricSet, Replications, SeedTree, Table, Tick, TimeSeries};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Default replication count for table experiments.
pub const REPS: u32 = 5;
/// Default horizon (ticks) for cloud scenarios.
pub const CLOUD_STEPS: u64 = 6_000;
/// Number of monitored signals in T6.
pub const T6_SIGNALS: usize = 16;

/// Renders a [`MetricSet`] as a flat JSON object.
fn metrics_json(m: &MetricSet) -> obs::Json {
    obs::Json::obj(m.iter().map(|(k, v)| (k.to_string(), obs::Json::from(v))))
}

/// Renders an arm's aggregate as `{metric: {n, mean, ci95, std_dev}}`.
fn aggregate_json(report: &RunReport) -> obs::Json {
    obs::Json::obj(report.iter().map(|(k, s)| {
        (
            k.to_string(),
            obs::Json::obj([
                ("n", obs::Json::from(s.count())),
                ("mean", obs::Json::from(s.mean())),
                ("ci95", obs::Json::from(s.ci95_halfwidth())),
                ("std_dev", obs::Json::from(s.std_dev())),
            ]),
        )
    }))
}

/// One experiment's structured run trace: provenance plus the
/// per-arm [`RunReport`]s a matrix run produced. Exported as JSONL
/// under `<artifact_root>/<experiment>/run.jsonl` (see
/// [`simkernel::obs`] for the artifact-root rules).
///
/// Line schema (one JSON object per line, discriminated by `record`):
///
/// * `provenance` — experiment id, root seed, replicate count,
///   horizon, effective `SAS_THREADS` worker count, FNV-1a digest of
///   the config description, crate versions;
/// * `arm` — one per experiment arm: label, completed/recovered
///   counts, wall-clock seconds, per-metric aggregate statistics and
///   the merged phase-timing profile;
/// * `replicate` — one per replicate of each arm: the structured
///   records the scenario emitted through [`obs::emit`] (metrics,
///   comms/supervision/health stats, drained explanations);
/// * `counterfactual` — one per intervention-class delta a replicate
///   emitted (F10): any scenario-emitted record whose `record` field
///   is `counterfactual` is lifted out of the replicate's event array
///   into a top-level typed record tagged with its arm and replicate
///   index, so trace consumers can scan measured intervention deltas
///   without unnesting.
#[derive(Debug)]
pub struct RunTrace<'a> {
    /// Experiment id — also the artifact subdirectory name.
    pub experiment: &'a str,
    /// Root seed of the [`Replications`] seed tree.
    pub seed: u64,
    /// Replicates per arm.
    pub replicates: u32,
    /// Scenario horizon in ticks.
    pub steps: u64,
    /// Human-readable config description; digested into provenance.
    pub config: &'a str,
    /// Arm labels, parallel to `reports`.
    pub arms: &'a [String],
    /// One report per arm, from a matrix run.
    pub reports: &'a [RunReport],
}

impl RunTrace<'_> {
    /// Writes the trace under the configured artifact root when
    /// observability is enabled; no-op (returning `None`) otherwise.
    /// I/O failures are reported on stderr rather than panicking —
    /// tracing must never take down an experiment run.
    pub fn export(&self) -> Option<PathBuf> {
        if !obs::enabled() {
            return None;
        }
        match self.export_in(&obs::artifact_root()) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("obs: run-trace export for {} failed: {e}", self.experiment);
                None
            }
        }
    }

    /// [`RunTrace::export`] with an explicit artifact root and no
    /// enabled-check (used by tests to write inside `target/`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures from the trace writer.
    pub fn export_in(&self, root: &Path) -> std::io::Result<PathBuf> {
        let mut w = obs::TraceWriter::create_in(root, self.experiment, "run")?;
        w.line(&obs::Json::obj([
            ("record", obs::Json::str("provenance")),
            ("experiment", obs::Json::str(self.experiment)),
            ("seed", obs::Json::from(self.seed)),
            ("replicates", obs::Json::from(self.replicates)),
            ("steps", obs::Json::from(self.steps)),
            (
                "sas_threads",
                obs::Json::from(simkernel::worker_count(self.replicates as usize) as u64),
            ),
            (
                "config_digest",
                obs::Json::str(obs::config_digest(self.config)),
            ),
            (
                "versions",
                obs::Json::obj([
                    ("sas-bench", obs::Json::str(env!("CARGO_PKG_VERSION"))),
                    ("simkernel", obs::Json::str(simkernel::VERSION)),
                    ("selfaware", obs::Json::str(selfaware::VERSION)),
                ]),
            ),
        ]));
        for (i, (label, report)) in self.arms.iter().zip(self.reports).enumerate() {
            w.line(&obs::Json::obj([
                ("record", obs::Json::str("arm")),
                ("index", obs::Json::from(i as u64)),
                ("label", obs::Json::str(label.clone())),
                ("completed", obs::Json::from(u64::from(report.completed()))),
                (
                    "recovered",
                    obs::Json::from(report.recovered().len() as u64),
                ),
                ("errors", obs::Json::from(report.errors().len() as u64)),
                ("wall_secs", obs::Json::from(report.wall_secs())),
                ("aggregate", aggregate_json(report)),
                ("profile", report.profile().to_json()),
            ]));
            for (k, records) in report.records().iter().enumerate() {
                w.line(&obs::Json::obj([
                    ("record", obs::Json::str("replicate")),
                    ("arm", obs::Json::str(label.clone())),
                    ("index", obs::Json::from(k as u64)),
                    ("events", obs::Json::Arr(records.clone())),
                ]));
                for rec in records {
                    if rec.get("record").and_then(obs::Json::as_str) != Some("counterfactual") {
                        continue;
                    }
                    let mut pairs = vec![
                        ("arm".to_string(), obs::Json::str(label.clone())),
                        ("replicate".to_string(), obs::Json::from(k as u64)),
                    ];
                    if let obs::Json::Obj(body) = rec {
                        pairs.extend(body.iter().cloned());
                    }
                    w.line(&obs::Json::Obj(pairs));
                }
            }
        }
        w.finish()
    }
}

fn cloud_strategies() -> Vec<cloudsim::Strategy> {
    vec![
        cloudsim::Strategy::Random,
        cloudsim::Strategy::RoundRobin,
        cloudsim::Strategy::LeastLoaded,
        cloudsim::Strategy::SelfAware {
            levels: LevelSet::full(),
        },
    ]
}

fn run_cloud(strategy: &cloudsim::Strategy, seeds: SeedTree, steps: u64) -> MetricSet {
    let cfg = cloudsim::ScenarioConfig::standard(strategy.clone(), steps, &seeds);
    cloudsim::run_scenario(&cfg, &seeds).metrics
}

/// T1 — self-awareness improves run-time trade-off management
/// (cloud: QoS vs cost under churn and drifting demand).
#[must_use]
pub fn run_t1(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("T1: cloud trade-off management ({steps} ticks, {reps} reps, mean±95CI)"),
        &[
            "strategy",
            "completion",
            "violations",
            "p95 lat",
            "cost",
            "utility",
        ],
    );
    let arms = cloud_strategies();
    let aggs = Replications::new(0x71, reps)
        .run_matrix(&arms, |strategy, seeds| run_cloud(strategy, seeds, steps));
    for (strategy, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            strategy.label(),
            num_ci(agg.mean("completion_ratio"), agg.ci95("completion_ratio")),
            num_ci(agg.mean("violation_rate"), agg.ci95("violation_rate")),
            num(agg.mean("p95_latency")),
            num_ci(agg.mean("cost_ratio"), agg.ci95("cost_ratio")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

/// T2 — ablation over the levels of self-awareness (cloud scenario).
#[must_use]
pub fn run_t2(reps: u32, steps: u64) -> Table {
    let ladder: Vec<(&str, LevelSet)> = vec![
        ("none (pre-self-aware)", LevelSet::new()),
        ("+stimulus", LevelSet::new().with(Level::Stimulus)),
        (
            "+time",
            LevelSet::new().with(Level::Stimulus).with(Level::Time),
        ),
        (
            "+goal",
            LevelSet::new()
                .with(Level::Stimulus)
                .with(Level::Time)
                .with(Level::Goal),
        ),
        ("full (+meta)", LevelSet::full()),
    ];
    let mut table = Table::new(
        format!("T2: level-of-self-awareness ablation ({steps} ticks, {reps} reps)"),
        &["levels", "completion", "violations", "cost", "utility"],
    );
    let aggs = Replications::new(0x72, reps).run_matrix(&ladder, |&(_, levels), seeds| {
        let strategy = cloudsim::Strategy::SelfAware { levels };
        run_cloud(&strategy, seeds, steps)
    });
    for ((name, _), agg) in ladder.iter().zip(&aggs) {
        table.row_owned(vec![
            (*name).to_string(),
            num_ci(agg.mean("completion_ratio"), agg.ci95("completion_ratio")),
            num_ci(agg.mean("violation_rate"), agg.ci95("violation_rate")),
            num_ci(agg.mean("cost_ratio"), agg.ci95("cost_ratio")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

fn camnet_strategies() -> Vec<camnet::HandoverStrategy> {
    vec![
        camnet::HandoverStrategy::Broadcast,
        camnet::HandoverStrategy::Smooth { k: 3 },
        camnet::HandoverStrategy::Static { k: 3 },
        camnet::HandoverStrategy::self_aware_default(),
    ]
}

/// T3 — camera-network handover: tracking quality vs communication.
#[must_use]
pub fn run_t3(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("T3: camera handover strategies ({steps} ticks, {reps} reps)"),
        &[
            "strategy",
            "quality",
            "untracked",
            "msgs/tick",
            "ask ratio",
            "diversity",
            "utility",
        ],
    );
    let arms = camnet_strategies();
    let aggs = Replications::new(0x73, reps).run_matrix(&arms, |&strategy, seeds| {
        camnet::run_camnet(&camnet::CamnetConfig::standard(strategy, steps), &seeds).metrics
    });
    for (strategy, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            strategy.label(),
            num_ci(agg.mean("track_quality"), agg.ci95("track_quality")),
            num(agg.mean("untracked_ratio")),
            num_ci(agg.mean("messages_per_tick"), agg.ci95("messages_per_tick")),
            num(agg.mean("ask_ratio")),
            num(agg.mean("heterogeneity_final")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

/// F1 — emergent heterogeneity: policy divergence over time per
/// strategy (single representative seed; the divergence trajectory is
/// the figure).
#[must_use]
pub fn run_f1(steps: u64) -> String {
    let strategies = camnet_strategies();
    let series: Vec<TimeSeries> = par_map(&strategies, |&strategy| {
        camnet::run_camnet(
            &camnet::CamnetConfig::standard(strategy, steps),
            &SeedTree::new(0xF1),
        )
        .heterogeneity
    });
    let refs: Vec<&TimeSeries> = series.iter().collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "F1: camera policy divergence over time ({steps} ticks, seed 0xF1)"
    );
    let _ = writeln!(
        out,
        "(broadcast stays homogeneous; smooth/static heterogeneity is designed-in and flat;\n\
         the self-aware network's heterogeneity *emerges* and grows)"
    );
    out.push_str(&render_multi(&refs, 24));
    out
}

/// F2 — routing under DoS: delay time-series and per-phase means.
#[must_use]
pub fn run_f2(steps: u64) -> String {
    let strategies = [
        cpn::RoutingStrategy::StaticShortest,
        cpn::RoutingStrategy::Periodic { period: 50 },
        cpn::RoutingStrategy::cpn_default(),
    ];
    let (from, to) = cpn::CpnConfig::attack_window(steps);
    let mut out = String::new();
    let mut table = Table::new(
        format!("F2: routing under DoS (attack {from}..{to}, {steps} ticks)"),
        &[
            "strategy",
            "delivery",
            "delay pre",
            "delay attack",
            "delay post",
        ],
    );
    let results = par_map(&strategies, |&strategy| {
        cpn::run_cpn(
            &cpn::CpnConfig::standard(strategy, steps),
            &SeedTree::new(0xF2),
        )
    });
    for (strategy, result) in strategies.iter().zip(&results) {
        let m = &result.metrics;
        table.row_owned(vec![
            strategy.label(),
            num(m.get("delivery_ratio").unwrap_or(0.0)),
            num(m.get("delay_pre").unwrap_or(0.0)),
            num(m.get("delay_attack").unwrap_or(0.0)),
            num(m.get("delay_post").unwrap_or(0.0)),
        ]);
    }
    let _ = writeln!(out, "{table}");
    let refs: Vec<&TimeSeries> = results.iter().map(|r| &r.delay).collect();
    out.push_str(&render_multi(&refs, 30));
    out
}

/// T4 — heterogeneous multicore scheduling: throughput vs energy vs
/// thermal stress under a phase-switching mix.
#[must_use]
pub fn run_t4(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("T4: multicore schedulers ({steps} ticks, {reps} reps)"),
        &[
            "scheduler",
            "completion",
            "mean lat",
            "miss rate",
            "energy/task",
            "throttle",
            "utility",
        ],
    );
    let schedulers = [
        multicore::Scheduler::StaticPin,
        multicore::Scheduler::Greedy,
        multicore::Scheduler::SelfAware,
    ];
    let aggs = Replications::new(0x74, reps).run_matrix(&schedulers, |&scheduler, seeds| {
        multicore::run_multicore(
            &multicore::MulticoreConfig::standard(scheduler, steps),
            &seeds,
        )
        .metrics
    });
    for (scheduler, agg) in schedulers.iter().zip(&aggs) {
        table.row_owned(vec![
            scheduler.label().to_string(),
            num_ci(agg.mean("completion_ratio"), agg.ci95("completion_ratio")),
            num(agg.mean("mean_latency")),
            num_ci(
                agg.mean("deadline_miss_rate"),
                agg.ci95("deadline_miss_rate"),
            ),
            num_ci(agg.mean("energy_per_task"), agg.ci95("energy_per_task")),
            num(agg.mean("throttle_ratio")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

/// F3 — meta-self-awareness under concept drift: fixed forecasters vs
/// the self-selecting model pool on a regime-switching signal.
#[must_use]
pub fn run_f3(steps: u64) -> String {
    use workloads::signal::{SignalGen, SignalSpec};
    let regimes = vec![
        (0, SignalSpec::Flat { level: 10.0 }),
        (
            steps / 4,
            SignalSpec::Trend {
                start: 10.0,
                slope: 0.3,
            },
        ),
        (
            steps / 2,
            SignalSpec::Oscillation {
                center: 40.0,
                amplitude: 8.0,
                period: 40.0,
            },
        ),
        (3 * steps / 4, SignalSpec::Flat { level: 25.0 }),
    ];
    // One worker per model. Each regenerates the (seed-deterministic)
    // signal independently and records its per-tick absolute error;
    // the joint warm-up gating and windowing run sequentially over
    // the recorded traces afterwards, so the printed figures are
    // identical to the old single-loop version.
    let model_ids: [usize; 4] = [0, 1, 2, 3];
    let traces: Vec<(Vec<Option<f64>>, u32)> = par_map(&model_ids, |&which| {
        let mut gen = SignalGen::new(regimes.clone(), 0.5, SeedTree::new(0xF3).rng("signal"));
        let mut fixed: Option<Box<dyn Forecaster>> = match which {
            0 => Some(Box::new(Ewma::new(0.3))),
            1 => Some(Box::new(Holt::new(0.5, 0.3))),
            2 => Some(Box::new(ArModel::new(2, 64))),
            _ => None,
        };
        let mut pool = ModelPool::new(0.1, 8);
        if fixed.is_none() {
            pool.add("ewma", Box::new(Ewma::new(0.3)));
            pool.add("holt", Box::new(Holt::new(0.5, 0.3)));
            pool.add("ar", Box::new(ArModel::new(2, 64)));
        }
        let mut errs = Vec::with_capacity(steps as usize);
        for t in 0..steps {
            let x = gen.sample(Tick(t));
            let pred = match &fixed {
                Some(model) => model.forecast(),
                None => pool.forecast(),
            };
            errs.push(pred.map(|p| (p - x).abs()));
            match &mut fixed {
                Some(model) => model.observe(x),
                None => pool.observe(x),
            }
        }
        (errs, pool.switches())
    });
    let pool_switches = traces[3].1;

    let mut err_series: Vec<TimeSeries> = ["ewma", "holt", "ar", "meta-pool"]
        .iter()
        .map(|n| TimeSeries::new(*n))
        .collect();
    let mut total_err = [0.0f64; 4];
    let mut count = 0u64;
    let mut window_err = [0.0f64; 4];
    let mut window_n = 0u64;

    for t in 0..steps {
        let errs: Vec<Option<f64>> = traces.iter().map(|(e, _)| e[t as usize]).collect();
        if errs.iter().all(Option::is_some) {
            for (i, e) in errs.iter().enumerate() {
                let e = e.unwrap();
                total_err[i] += e;
                window_err[i] += e;
            }
            count += 1;
            window_n += 1;
        }
        if t % 50 == 49 && window_n > 0 {
            for (i, s) in err_series.iter_mut().enumerate() {
                s.push(Tick(t), window_err[i] / window_n as f64);
            }
            window_err = [0.0; 4];
            window_n = 0;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "F3: forecast error under concept drift ({steps} ticks, regime changes at 1/4, 1/2, 3/4)"
    );
    let mut table = Table::new(
        "mean absolute one-step error",
        &["model", "mae", "vs meta-pool"],
    );
    let pool_mae = total_err[3] / count.max(1) as f64;
    for (i, name) in ["ewma", "holt", "ar", "meta-pool"].iter().enumerate() {
        let mae = total_err[i] / count.max(1) as f64;
        table.row_owned(vec![
            (*name).to_string(),
            num(mae),
            format!("{:+.1}%", (mae / pool_mae - 1.0) * 100.0),
        ]);
    }
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "model switches by the pool: {pool_switches}");
    let _ = writeln!(out, "windowed error over time:");
    let refs: Vec<&TimeSeries> = err_series.iter().collect();
    out.push_str(&render_multi(&refs, 24));
    out
}

/// One T5 replicate: collective estimation with `n` nodes under the
/// three architectures. Public so the parity tests can compare
/// sequential and parallel runs of the exact scenario.
#[must_use]
pub fn t5_scenario(n: usize, seeds: SeedTree) -> MetricSet {
    use rand::Rng as _;
    let mut rng = seeds.rng("obs");
    // Each node observes a global quantity plus noise.
    let truth = 20.0;
    let obs: Vec<f64> = (0..n).map(|_| truth + rng.gen_range(-2.0..2.0)).collect();
    let sample_mean = obs.iter().sum::<f64>() / n as f64;

    let central = centralized_estimate(&obs);
    let hier = hierarchical_estimate(&obs, 4);
    let mut gossip = GossipNetwork::new(obs.clone());
    let mut grng = seeds.rng("gossip");
    // Rounds ~ log2(n) * 4 suffice for tight convergence.
    let rounds = (4.0 * (n as f64).log2()).ceil() as u32;
    gossip.run(rounds, &mut grng);
    let gout = gossip.outcome();

    let mut m = MetricSet::new();
    m.set("central_err", central.mean_abs_error(sample_mean));
    m.set("central_msgs", central.messages as f64);
    m.set("central_load", central.max_node_load as f64);
    m.set("hier_err", hier.mean_abs_error(sample_mean));
    m.set("hier_msgs", hier.messages as f64);
    m.set("hier_load", hier.max_node_load as f64);
    m.set("gossip_err", gout.mean_abs_error(sample_mean));
    m.set("gossip_msgs", gout.messages as f64);
    m.set("gossip_load", gout.max_node_load as f64);
    m
}

/// T5 — collective awareness without a global component: accuracy vs
/// coordination cost vs hot-spot load, over network sizes.
#[must_use]
pub fn run_t5(reps: u32) -> Table {
    let mut table = Table::new(
        format!("T5: collective estimation architectures ({reps} reps)"),
        &[
            "N",
            "architecture",
            "node error",
            "messages",
            "hot-spot load",
        ],
    );
    let sizes = [10usize, 50, 200];
    let aggs = Replications::new(0x75, reps).run_matrix(&sizes, |&n, seeds| t5_scenario(n, seeds));
    for (n, agg) in sizes.iter().zip(&aggs) {
        for arch in ["central", "hier", "gossip"] {
            table.row_owned(vec![
                n.to_string(),
                arch.to_string(),
                format!("{:.4}", agg.mean(&format!("{arch}_err"))),
                format!("{:.0}", agg.mean(&format!("{arch}_msgs"))),
                format!("{:.0}", agg.mean(&format!("{arch}_load"))),
            ]);
        }
    }
    table
}

/// F4 — dependence on a-priori models: design-time-ranked dispatch vs
/// self-aware dispatch as the deployed world diverges from the
/// designer's beliefs.
#[must_use]
pub fn run_f4(reps: u32, steps: u64) -> String {
    let mut static_series = TimeSeries::new("static-ranked");
    let mut aware_series = TimeSeries::new("self-aware");
    let divergences = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut out = String::new();
    let mut table = Table::new(
        format!("F4: utility vs design-divergence ({steps} ticks, {reps} reps)"),
        &["divergence", "static-ranked", "self-aware", "gap"],
    );
    let aggs = Replications::new(0xF4, reps).run_matrix(&divergences, |&delta, seeds| {
        // Design-time belief: the spec the designer was given.
        let designed: Vec<cloudsim::NodeSpec> = (0..12)
            .map(|j| {
                let capacity = 1.0 + (j % 4) as f64;
                if j % 3 == 0 {
                    cloudsim::NodeSpec::reliable(capacity)
                } else {
                    cloudsim::NodeSpec::volunteer(capacity)
                }
            })
            .collect();
        // Reality: capacities rotated by a delta-dependent amount —
        // the machines that actually showed up are not the ones in
        // the design document.
        let shift = (delta * 6.0_f64).round() as usize;
        let actual: Vec<cloudsim::NodeSpec> = (0..12).map(|j| designed[(j + shift) % 12]).collect();
        let believed: Vec<f64> = designed.iter().map(|s| s.capacity).collect();

        let run = |strategy: cloudsim::Strategy, seeds: &SeedTree| {
            let mut cfg = cloudsim::ScenarioConfig::standard(strategy, steps, seeds);
            cfg.specs = actual.clone();
            cloudsim::run_scenario(&cfg, seeds).metrics
        };
        let stat = run(
            cloudsim::Strategy::StaticRanked {
                believed_capacity: believed,
            },
            &seeds,
        );
        let aware = run(
            cloudsim::Strategy::SelfAware {
                levels: LevelSet::full(),
            },
            &seeds,
        );
        let mut m = MetricSet::new();
        m.set("static", stat.get("utility").unwrap_or(0.0));
        m.set("aware", aware.get("utility").unwrap_or(0.0));
        m
    });
    for (i, (&delta, agg)) in divergences.iter().zip(&aggs).enumerate() {
        let s = agg.mean("static");
        let a = agg.mean("aware");
        table.row_owned(vec![
            format!("{delta:.2}"),
            num_ci(s, agg.ci95("static")),
            num_ci(a, agg.ci95("aware")),
            num(a - s),
        ]);
        static_series.push(Tick(i as u64), s);
        aware_series.push(Tick(i as u64), a);
    }
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "utility across the divergence sweep:");
    out.push_str(&render_multi(&[&static_series, &aware_series], 5));
    out
}

/// One T6 replicate: [`T6_SIGNALS`] drifting signals monitored under
/// `budget` probes per tick by the attention, round-robin, and random
/// policies. Public so the parity tests can compare sequential and
/// parallel runs of the exact scenario.
#[must_use]
pub fn t6_scenario(budget: usize, steps: u64, seeds: SeedTree) -> MetricSet {
    use rand::Rng as _;
    use selfaware::attention::AttentionAllocator;
    let n_signals = T6_SIGNALS;
    let mut world_rng = seeds.rng("world");
    // Signals: a few fast random walks, the rest near-static.
    let volatilities: Vec<f64> = (0..n_signals)
        .map(|i| if i % 4 == 0 { 1.0 } else { 0.02 })
        .collect();
    let mut truth: Vec<f64> = vec![0.0; n_signals];

    let mut attn = AttentionAllocator::new(n_signals, 0.1, 0.05);
    let mut beliefs = vec![vec![0.0f64; n_signals]; 3]; // attn, rr, random
    let mut errors = [0.0f64; 3];
    let mut rr_next = 0usize;
    let mut policy_rng = seeds.rng("policy");
    let mut samples = 0u64;
    for t in 0..steps {
        // World moves.
        for i in 0..n_signals {
            truth[i] += world_rng.gen_range(-volatilities[i]..=volatilities[i]);
        }
        // Attention policy.
        let picked = attn.select(budget as f64, Tick(t), &mut policy_rng);
        for &i in &picked {
            attn.feed(i, truth[i], Tick(t));
            beliefs[0][i] = truth[i];
        }
        // Round-robin policy.
        for _ in 0..budget {
            let i = rr_next % n_signals;
            rr_next += 1;
            beliefs[1][i] = truth[i];
        }
        // Random policy.
        for _ in 0..budget {
            let i = policy_rng.gen_range(0..n_signals);
            beliefs[2][i] = truth[i];
        }
        // Score: mean absolute belief error across signals.
        for (p, belief) in beliefs.iter().enumerate() {
            let err: f64 = belief
                .iter()
                .zip(&truth)
                .map(|(b, t)| (b - t).abs())
                .sum::<f64>()
                / n_signals as f64;
            errors[p] += err;
        }
        samples += 1;
    }
    let mut m = MetricSet::new();
    m.set("attention", errors[0] / samples as f64);
    m.set("round_robin", errors[1] / samples as f64);
    m.set("random", errors[2] / samples as f64);
    m
}

/// T6 — attention under a monitoring budget: utility of budgeted
/// sensing policies on a field of drifting signals.
#[must_use]
pub fn run_t6(reps: u32, steps: u64) -> Table {
    let n_signals = T6_SIGNALS;
    let mut table = Table::new(
        format!(
            "T6: monitoring under budget ({n_signals} signals, {steps} ticks, {reps} reps; \
             cell = mean tracking error, lower is better)"
        ),
        &[
            "budget",
            "attention",
            "round-robin",
            "random",
            "attn advantage",
        ],
    );
    let budgets = [1usize, 2, 4, 8];
    let aggs = Replications::new(0x76, reps)
        .run_matrix(&budgets, |&budget, seeds| t6_scenario(budget, steps, seeds));
    for (budget, agg) in budgets.iter().zip(&aggs) {
        let a = agg.mean("attention");
        let rr = agg.mean("round_robin");
        let rnd = agg.mean("random");
        table.row_owned(vec![
            budget.to_string(),
            num_ci(a, agg.ci95("attention")),
            num(rr),
            num(rnd),
            format!("{:+.1}%", (1.0 - a / rr.min(rnd)) * 100.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests at reduced scale: every experiment runs and produces
    // non-empty output with the expected headline ordering.

    #[test]
    fn t1_small_self_aware_wins() {
        let t = run_t1(2, 1500);
        assert_eq!(t.len(), 4);
        // utility column is last; self-aware row is last.
        let parse = |s: &str| s.split('±').next().unwrap().parse::<f64>().unwrap();
        let sa = parse(t.cell(3, 5).unwrap());
        let random = parse(t.cell(0, 5).unwrap());
        assert!(sa > random, "self-aware {sa} vs random {random}");
    }

    #[test]
    fn t2_small_runs() {
        let t = run_t2(2, 1200);
        assert_eq!(t.len(), 5);
        let parse = |s: &str| s.split('±').next().unwrap().parse::<f64>().unwrap();
        let none = parse(t.cell(0, 4).unwrap());
        let full = parse(t.cell(4, 4).unwrap());
        assert!(full > none, "full stack {full} should beat none {none}");
    }

    #[test]
    fn t3_small_runs() {
        let t = run_t3(2, 2000);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn f1_renders() {
        let s = run_f1(2000);
        assert!(s.contains("self-aware"));
        assert!(s.contains("broadcast"));
        assert!(s.contains("scale:"));
    }

    #[test]
    fn f2_cpn_wins_attack_phase() {
        let s = run_f2(1800);
        assert!(s.contains("cpn"));
        assert!(s.contains("static-shortest"));
    }

    #[test]
    fn t4_small_runs() {
        let t = run_t4(2, 1500);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn f3_pool_is_competitive() {
        let s = run_f3(2000);
        assert!(s.contains("meta-pool"));
        assert!(s.contains("model switches"));
    }

    #[test]
    fn t5_gossip_has_no_hotspot() {
        let t = run_t5(3);
        assert_eq!(t.len(), 9);
        // For N=200 rows (last three), gossip hot-spot load should be
        // far below central's.
        let central_load: f64 = t.cell(6, 4).unwrap().parse().unwrap();
        let gossip_load: f64 = t.cell(8, 4).unwrap().parse().unwrap();
        assert!(gossip_load < central_load / 4.0);
    }

    #[test]
    fn f4_gap_grows_with_divergence() {
        let s = run_f4(2, 1500);
        assert!(s.contains("divergence"));
        assert!(s.contains("self-aware"));
    }

    #[test]
    fn t6_attention_beats_baselines_at_tight_budget() {
        let t = run_t6(2, 1500);
        assert_eq!(t.len(), 4);
        let a: f64 = t
            .cell(0, 1)
            .unwrap()
            .split('±')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let rr: f64 = t.cell(0, 2).unwrap().parse().unwrap();
        assert!(
            a < rr,
            "attention error {a} should beat round-robin {rr} at budget 1"
        );
    }
}

/// A1 (ablation) — the camera network's ask-threshold knob: how the
/// affinity threshold of the self-aware handover strategy trades
/// tracking quality against communication.
#[must_use]
pub fn run_a1(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("A1: camnet self-aware ask-threshold sweep ({steps} ticks, {reps} reps)"),
        &["threshold", "quality", "untracked", "msgs/tick", "utility"],
    );
    let thresholds = [0.1, 0.2, 0.25, 0.35, 0.5];
    let aggs = Replications::new(0xA1, reps).run_matrix(&thresholds, |&threshold, seeds| {
        let strategy = camnet::HandoverStrategy::SelfAware {
            threshold,
            epsilon: 0.05,
        };
        camnet::run_camnet(&camnet::CamnetConfig::standard(strategy, steps), &seeds).metrics
    });
    for (threshold, agg) in thresholds.iter().zip(&aggs) {
        table.row_owned(vec![
            format!("{threshold:.2}"),
            num_ci(agg.mean("track_quality"), agg.ci95("track_quality")),
            num(agg.mean("untracked_ratio")),
            num_ci(agg.mean("messages_per_tick"), agg.ci95("messages_per_tick")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

/// A2 (ablation) — the CPN's smart-packet ratio: how much exploration
/// traffic the network needs to keep re-planning under attack.
#[must_use]
pub fn run_a2(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("A2: cpn smart-packet ratio sweep ({steps} ticks, {reps} reps)"),
        &[
            "smart ratio",
            "delivery",
            "delay pre",
            "delay attack",
            "delay post",
        ],
    );
    let ratios = [0.0, 0.05, 0.1, 0.25, 0.5];
    let aggs = Replications::new(0xA2, reps).run_matrix(&ratios, |&smart_ratio, seeds| {
        let strategy = cpn::RoutingStrategy::Cpn {
            smart_ratio,
            epsilon: 0.1,
        };
        cpn::run_cpn(&cpn::CpnConfig::standard(strategy, steps), &seeds).metrics
    });
    for (smart_ratio, agg) in ratios.iter().zip(&aggs) {
        table.row_owned(vec![
            format!("{smart_ratio:.2}"),
            num_ci(agg.mean("delivery_ratio"), agg.ci95("delivery_ratio")),
            num(agg.mean("delay_pre")),
            num_ci(agg.mean("delay_attack"), agg.ci95("delay_attack")),
            num(agg.mean("delay_post")),
        ]);
    }
    table
}

/// A3 (ablation) — the meta model-pool's switching hysteresis
/// (`patience`): too eager thrashes on noise, too patient lags regime
/// changes.
#[must_use]
pub fn run_a3(reps: u32, steps: u64) -> Table {
    use workloads::signal::{SignalGen, SignalSpec};
    let mut table = Table::new(
        format!("A3: model-pool patience sweep ({steps} ticks, {reps} reps)"),
        &["patience", "mae", "switches"],
    );
    let patiences = [1u32, 4, 8, 32, 128];
    let aggs = Replications::new(0xA3, reps).run_matrix(&patiences, |&patience, seeds| {
        let regimes = vec![
            (0, SignalSpec::Flat { level: 10.0 }),
            (
                steps / 4,
                SignalSpec::Trend {
                    start: 10.0,
                    slope: 0.3,
                },
            ),
            (
                steps / 2,
                SignalSpec::Oscillation {
                    center: 40.0,
                    amplitude: 8.0,
                    period: 40.0,
                },
            ),
            (3 * steps / 4, SignalSpec::Flat { level: 25.0 }),
        ];
        let mut gen = SignalGen::new(regimes, 0.5, seeds.rng("signal"));
        let mut pool = ModelPool::new(0.1, patience);
        pool.add("ewma", Box::new(Ewma::new(0.3)));
        pool.add("holt", Box::new(Holt::new(0.5, 0.3)));
        pool.add("ar", Box::new(ArModel::new(2, 64)));
        let mut err = 0.0;
        let mut n = 0u64;
        for t in 0..steps {
            let x = gen.sample(Tick(t));
            if let Some(p) = pool.forecast() {
                err += (p - x).abs();
                n += 1;
            }
            pool.observe(x);
        }
        let mut m = MetricSet::new();
        m.set("mae", err / n.max(1) as f64);
        m.set("switches", f64::from(pool.switches()));
        m
    });
    for (patience, agg) in patiences.iter().zip(&aggs) {
        table.row_owned(vec![
            patience.to_string(),
            num_ci(agg.mean("mae"), agg.ci95("mae")),
            format!("{:.1}", agg.mean("switches")),
        ]);
    }
    table
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn a1_threshold_monotone_in_messages() {
        let t = run_a1(2, 1500);
        assert_eq!(t.len(), 5);
        // Higher threshold → fewer messages (weak monotone check on
        // the extremes).
        let parse = |s: &str| s.split('±').next().unwrap().parse::<f64>().unwrap();
        let loose = parse(t.cell(0, 3).unwrap());
        let tight = parse(t.cell(4, 3).unwrap());
        assert!(tight < loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn a2_runs() {
        let t = run_a2(2, 1200);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn a3_extremes_are_worse_or_equal() {
        let t = run_a3(3, 2000);
        assert_eq!(t.len(), 5);
        // Eager switching (patience 1) must switch much more often
        // than patient (128).
        let eager: f64 = t.cell(0, 2).unwrap().parse().unwrap();
        let patient: f64 = t.cell(4, 2).unwrap().parse().unwrap();
        assert!(eager > patient, "eager {eager} vs patient {patient}");
    }
}

/// Cameras taken down by the F5 outage: the centre block of the
/// standard 4×4 grid, which carries the most handover traffic.
pub const F5_OUTAGE_CAMERAS: [usize; 4] = [5, 6, 9, 10];

/// The F5 fault plan: the grid-centre cameras fail together at
/// `steps/3` and reboot at `2*steps/3`.
#[must_use]
pub fn f5_fault_plan(steps: u64) -> workloads::FaultPlan {
    let fail = Tick(steps / 3);
    let recover = Tick(2 * steps / 3);
    let mut events = Vec::new();
    for &c in &F5_OUTAGE_CAMERAS {
        events.push(workloads::FaultEvent::camera_fail(fail, c));
        events.push(workloads::FaultEvent::camera_recover(recover, c));
    }
    workloads::FaultPlan::new(events)
}

/// One F5 replicate: the standard camera network hit by the
/// grid-centre outage. Metric keys:
///
/// * `quality` — whole-run mean tracking quality;
/// * `pre_quality` — mean windowed quality before the outage;
/// * `recovery_ticks` — ticks after reboot until windowed quality
///   first returns to 95% of `pre_quality` (censored at end-of-run);
/// * `degradation_area` — integral of quality lost vs `pre_quality`
///   from outage onset onwards (quality-ticks).
///
/// Public so the parity tests can compare sequential and parallel
/// runs of the exact scenario.
#[must_use]
pub fn f5_scenario(strategy: &camnet::HandoverStrategy, seeds: SeedTree, steps: u64) -> MetricSet {
    let fail_at = steps / 3;
    let recover_at = 2 * steps / 3;
    let mut cfg = camnet::CamnetConfig::standard(*strategy, steps);
    cfg.faults = f5_fault_plan(steps);
    let result = camnet::run_camnet(&cfg, &seeds);

    let pts = result.quality.points();
    let window: u64 = 50; // camnet samples quality every 50 ticks
    let pre: Vec<f64> = pts
        .iter()
        .filter(|&&(t, _)| t < fail_at)
        .map(|&(_, q)| q)
        .collect();

    let mut m = MetricSet::new();
    m.set(
        "quality",
        result.metrics.get("track_quality").unwrap_or(0.0),
    );
    // A horizon too short to yield a pre-fault quality sample (camnet
    // samples every 50 ticks, so `steps / 3 <= 50`) has no baseline.
    // Dividing by `pre.len().max(1)` here used to report
    // `pre_quality = 0.0`, which makes the recovery predicate
    // `q >= 0.95 * pre_quality` trivially true (instant "recovery")
    // and zeroes the degradation area. Flag the replicate and omit
    // the derived metrics rather than reporting vacuous zeros.
    if pre.is_empty() {
        m.set("pre_window_empty", 1.0);
    } else {
        let pre_quality = pre.iter().sum::<f64>() / pre.len() as f64;
        let recovery_ticks = pts
            .iter()
            .find(|&&(t, q)| t >= recover_at && q >= 0.95 * pre_quality)
            .map_or(steps.saturating_sub(recover_at), |&(t, _)| t - recover_at);
        let degradation_area: f64 = pts
            .iter()
            .filter(|&&(t, _)| t >= fail_at)
            .map(|&(_, q)| (pre_quality - q).max(0.0) * window as f64)
            .sum();
        m.set("pre_window_empty", 0.0);
        m.set("pre_quality", pre_quality);
        m.set("recovery_ticks", recovery_ticks as f64);
        m.set("degradation_area", degradation_area);
    }
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f5")),
        ("metrics", metrics_json(&m)),
        ("explanations", result.comms_log.to_json()),
    ]));
    m
}

/// F5 — graceful degradation under a camera outage: how fast each
/// handover strategy re-forms coalitions after the grid-centre
/// cameras fail, and how much tracking quality the outage costs.
#[must_use]
pub fn run_f5(reps: u32, steps: u64) -> Table {
    let arms = vec![
        camnet::HandoverStrategy::Broadcast,
        camnet::HandoverStrategy::Static { k: 3 },
        camnet::HandoverStrategy::self_aware_default(),
    ];
    let mut table = Table::new(
        format!("F5: camnet outage recovery ({steps} ticks, 4-camera outage, {reps} reps)"),
        &[
            "strategy",
            "quality",
            "pre-fault",
            "recovery ticks",
            "degradation area",
        ],
    );
    let aggs = Replications::new(0xF5, reps)
        .run_matrix(&arms, |strategy, seeds| f5_scenario(strategy, seeds, steps));
    let labels: Vec<String> = arms.iter().map(camnet::HandoverStrategy::label).collect();
    RunTrace {
        experiment: "f5",
        seed: 0xF5,
        replicates: reps,
        steps,
        config: &format!("f5 arms={labels:?} steps={steps} outage=grid-centre"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    for (strategy, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            strategy.label(),
            num_ci(agg.mean("quality"), agg.ci95("quality")),
            num(agg.mean("pre_quality")),
            format!("{:.0}", agg.mean("recovery_ticks")),
            num_ci(agg.mean("degradation_area"), agg.ci95("degradation_area")),
        ]);
    }
    table
}

/// Number of redundant sensors observing the F6 signal.
pub const F6_SENSORS: usize = 3;

/// The F6 fault plan: a stuck-at, a bias shift, a dropout, a heavy
/// noise burst, and a *mean-reverting* noise burst staggered across
/// the three sensors. The last one is the variance-ratio watchdog's
/// target: it stays centred on the truth (5× the healthy sensor
/// noise, but zero mean), so the residual/outlier test keeps learning
/// it and only the residual-power ratio gives it away.
#[must_use]
pub fn f6_fault_plan(steps: u64) -> workloads::FaultPlan {
    use workloads::{FaultEvent, SensorFaultKind};
    workloads::FaultPlan::new(vec![
        FaultEvent::sensor_fault(
            Tick(steps / 8),
            1,
            SensorFaultKind::Noise { sigma: 1.0 },
            steps / 10,
        ),
        FaultEvent::sensor_fault(Tick(steps / 4), 0, SensorFaultKind::StuckAt, steps / 4),
        FaultEvent::sensor_fault(
            Tick(steps / 2),
            1,
            SensorFaultKind::Bias { offset: 4.0 },
            steps / 6,
        ),
        FaultEvent::sensor_fault(Tick(2 * steps / 3), 2, SensorFaultKind::Dropout, steps / 8),
        FaultEvent::sensor_fault(
            Tick(4 * steps / 5),
            0,
            SensorFaultKind::Noise { sigma: 3.0 },
            steps / 10,
        ),
    ])
}

/// One F6 replicate: three noisy sensors observe an oscillating truth
/// while the [`f6_fault_plan`] corrupts them; the fused estimate is
/// the mean of the readings each arm trusts. Metric keys: `mae`
/// (whole run), `mae_faulty` / `mae_clean` (ticks with/without an
/// active sensor fault), `quarantines`, `restores`, `degraded_ticks`.
///
/// Public so the parity tests can compare sequential and parallel
/// runs of the exact scenario.
#[must_use]
pub fn f6_scenario(guarded: bool, seeds: SeedTree, steps: u64) -> MetricSet {
    use rand::Rng as _;
    use selfaware::explain::ExplanationLog;
    use selfaware::health::SensorHealth;
    use workloads::signal::{SignalGen, SignalSpec};

    let plan = f6_fault_plan(steps);
    let mut gen = SignalGen::new(
        vec![(
            0,
            SignalSpec::Oscillation {
                center: 20.0,
                amplitude: 6.0,
                period: 300.0,
            },
        )],
        0.0,
        seeds.rng("truth"),
    );
    let mut srng = seeds.rng("sensor-noise");
    let mut frng = seeds.rng("fault-noise");
    let mut health = SensorHealth::default();
    let mut log = ExplanationLog::new(1024);
    let keys: Vec<String> = (0..F6_SENSORS).map(|i| format!("s{i}")).collect();
    let mut held = [20.0f64; F6_SENSORS];
    let mut est_prev = 20.0;
    let (mut err, mut err_faulty, mut err_clean) = (0.0f64, 0.0f64, 0.0f64);
    let (mut n_faulty, mut n_clean) = (0u64, 0u64);
    let mut degraded_ticks = 0u64;

    for t in 0..steps {
        let now = Tick(t);
        let sense_span = obs::span("f6:sense");
        let truth = gen.sample(now);
        let mut trusted: Vec<f64> = Vec::with_capacity(F6_SENSORS);
        let mut any_fault = false;
        let mut any_degraded = false;
        for i in 0..F6_SENSORS {
            let clean = truth + 0.2 * (srng.gen::<f64>() * 2.0 - 1.0);
            let fault = plan.sensor_fault_at(i, now);
            let raw = match fault {
                Some(k) => {
                    any_fault = true;
                    k.corrupt(clean, held[i], &mut frng)
                }
                None => {
                    held[i] = clean;
                    Some(clean)
                }
            };
            if guarded {
                // The previous fused estimate anchors the recovery
                // probe: a sensor leaves quarantine by agreeing with
                // the healthy consensus, not with its own stale model.
                let r = health.observe_with_reference(&keys[i], raw, Some(est_prev), now, &mut log);
                any_degraded |= r.degraded;
                if !r.degraded && !r.substituted {
                    trusted.push(r.value);
                }
            } else if let Some(x) = raw {
                trusted.push(x);
            }
        }
        drop(sense_span);
        let _decide_span = obs::span("f6:decide");
        // With every sensor distrusted (or silent), hold the last
        // estimate — the degraded-mode fallback.
        let est = if trusted.is_empty() {
            est_prev
        } else {
            trusted.iter().sum::<f64>() / trusted.len() as f64
        };
        est_prev = est;
        let e = (est - truth).abs();
        err += e;
        if any_fault {
            err_faulty += e;
            n_faulty += 1;
        } else {
            err_clean += e;
            n_clean += 1;
        }
        degraded_ticks += u64::from(any_degraded);
    }

    let mut m = MetricSet::new();
    m.set("mae", err / steps.max(1) as f64);
    m.set("mae_faulty", err_faulty / n_faulty.max(1) as f64);
    m.set("mae_clean", err_clean / n_clean.max(1) as f64);
    m.set("quarantines", health.quarantine_events() as f64);
    m.set("restores", health.restore_events() as f64);
    m.set("degraded_ticks", degraded_ticks as f64);
    // Quarantines attributed to the variance-ratio watchdog rather
    // than the residual/outlier test — the mean-reverting burst in
    // the plan is invisible to the latter.
    let variance_quarantines = log
        .iter()
        .filter(|e| {
            e.class == Some(InterventionClass::SensorQuarantine)
                && e.factors().iter().any(|f| f.0 == "variance_ratio")
        })
        .count();
    m.set("variance_quarantines", variance_quarantines as f64);
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f6")),
        ("guarded", obs::Json::Bool(guarded)),
        ("metrics", metrics_json(&m)),
        ("health", health.stats_json()),
        ("explanations", log.to_json()),
    ]));
    m
}

/// F6 — sensor-fault ablation: the same faulty sensor suite fused
/// with and without the [`SensorHealth`](selfaware::health::SensorHealth)
/// monitor. Self-awareness of one's own instruments should cut the
/// error paid during fault windows without hurting clean operation.
#[must_use]
pub fn run_f6(reps: u32, steps: u64) -> Table {
    let arms = [false, true];
    let mut table = Table::new(
        format!("F6: sensor-fault ablation ({steps} ticks, {reps} reps)"),
        &[
            "fusion",
            "mae",
            "mae (fault windows)",
            "mae (clean)",
            "quarantines",
            "degraded ticks",
        ],
    );
    let aggs = Replications::new(0xF6, reps)
        .run_matrix(&arms, |&guarded, seeds| f6_scenario(guarded, seeds, steps));
    let labels: Vec<String> = arms
        .iter()
        .map(|&g| if g { "health-guarded" } else { "raw mean" }.to_string())
        .collect();
    RunTrace {
        experiment: "f6",
        seed: 0xF6,
        replicates: reps,
        steps,
        config: &format!("f6 arms={labels:?} steps={steps} sensors={F6_SENSORS}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    for (guarded, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            if *guarded {
                "health-guarded"
            } else {
                "raw mean"
            }
            .to_string(),
            num_ci(agg.mean("mae"), agg.ci95("mae")),
            num_ci(agg.mean("mae_faulty"), agg.ci95("mae_faulty")),
            num(agg.mean("mae_clean")),
            format!("{:.1}", agg.mean("quarantines")),
            format!("{:.0}", agg.mean("degraded_ticks")),
        ]);
    }
    table
}

#[cfg(test)]
mod fault_experiment_tests {
    use super::*;

    #[test]
    fn f5_reports_recovery_and_degradation() {
        let t = run_f5(2, 1500);
        assert_eq!(t.len(), 3);
        for row in 0..3 {
            let area: f64 = t
                .cell(row, 4)
                .unwrap()
                .split('±')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(area >= 0.0);
        }
    }

    #[test]
    fn f5_scenario_degrades_during_outage() {
        let m = f5_scenario(&camnet::HandoverStrategy::Broadcast, SeedTree::new(7), 1800);
        assert!(m.get("pre_quality").unwrap_or(0.0) > 0.3);
        assert!(m.get("degradation_area").unwrap_or(-1.0) >= 0.0);
    }

    #[test]
    fn f5_empty_pre_window_is_flagged_not_zeroed() {
        // `steps < 3` puts the outage at tick 0, so no quality sample
        // can precede it. The scenario used to divide by
        // `pre.len().max(1)` and report `pre_quality = 0.0`, which
        // makes the recovery predicate `q >= 0.95 * pre_quality`
        // trivially true (`recovery_ticks = 0`) and zeroes the
        // degradation area — silently optimistic nonsense. Now the
        // replicate is flagged and the derived metrics are omitted.
        for steps in [1u64, 2] {
            let m = f5_scenario(
                &camnet::HandoverStrategy::Broadcast,
                SeedTree::new(1),
                steps,
            );
            assert_eq!(m.get("pre_window_empty"), Some(1.0));
            assert_eq!(m.get("pre_quality"), None);
            assert_eq!(m.get("recovery_ticks"), None);
            assert_eq!(m.get("degradation_area"), None);
        }
        // A usable horizon still reports the full metric set.
        let m = f5_scenario(&camnet::HandoverStrategy::Broadcast, SeedTree::new(1), 300);
        assert_eq!(m.get("pre_window_empty"), Some(0.0));
        assert!(m.get("pre_quality").is_some());
        assert!(m.get("recovery_ticks").is_some());
        assert!(m.get("degradation_area").is_some());
    }

    #[test]
    fn f6_guarded_beats_raw_in_fault_windows() {
        let a = f6_scenario(false, SeedTree::new(11), 3000);
        let b = f6_scenario(true, SeedTree::new(11), 3000);
        let raw = a.get("mae_faulty").unwrap_or(f64::NAN);
        let guarded = b.get("mae_faulty").unwrap_or(f64::NAN);
        assert!(
            guarded < raw,
            "guarded {guarded} should beat raw {raw} during faults"
        );
        assert!(b.get("quarantines").unwrap_or(0.0) >= 3.0);
        // The mean-reverting burst on sensor 1 is caught by the
        // variance-ratio watchdog specifically, and the quarantine
        // explanation cites it.
        assert!(
            b.get("variance_quarantines").unwrap_or(0.0) >= 1.0,
            "variance-ratio watchdog must fire on the mean-reverting burst"
        );
        assert_eq!(a.get("variance_quarantines"), Some(0.0));
    }

    #[test]
    fn f6_table_renders_both_arms() {
        let t = run_f6(2, 2000);
        assert_eq!(t.len(), 2);
    }
}

/// Controller arm for the F7 corruption ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F7Arm {
    /// Reactive: control = last observation. No model to corrupt —
    /// the floor a broken forecaster should fall back to.
    Baseline,
    /// An unsupervised Holt forecaster drives control directly;
    /// corruption flows straight into the control signal.
    Unsupervised,
    /// The same Holt forecaster watchdogged by a
    /// [`Supervisor`](selfaware::supervision::Supervisor):
    /// checkpoint/rollback, reactive fallback, backoff re-promotion.
    Supervised,
}

impl F7Arm {
    /// Short table label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            F7Arm::Baseline => "baseline (reactive)",
            F7Arm::Unsupervised => "unsupervised holt",
            F7Arm::Supervised => "supervised holt",
        }
    }
}

/// The fixed F7 corruption plan: NaN poison at `steps/4`, a ×25
/// weight scramble at `steps/2`, and a `steps/10` state freeze at
/// `3*steps/4`, all aimed at controller 0.
#[must_use]
pub fn f7_fault_plan(steps: u64) -> workloads::FaultPlan {
    use workloads::faults::ModelCorruptionKind;
    workloads::FaultPlan::new(vec![
        workloads::FaultEvent::model_corruption(Tick(steps / 4), 0, ModelCorruptionKind::NanPoison),
        workloads::FaultEvent::model_corruption(
            Tick(steps / 2),
            0,
            ModelCorruptionKind::WeightScramble { gain: 25.0 },
        ),
        workloads::FaultEvent::model_corruption(
            Tick(3 * steps / 4),
            0,
            ModelCorruptionKind::StateFreeze {
                duration: steps / 10,
            },
        ),
    ])
}

/// Per-tick regret is capped here so one NaN/exploded forecast costs
/// a bounded (but heavy) penalty instead of destroying the mean.
pub const F7_REGRET_CAP: f64 = 50.0;
/// Ticks after each corruption onset that count as the "corrupted
/// window" for `regret_corrupt`.
pub const F7_WINDOW: u64 = 150;

/// One F7 replicate: a controller tracks a drifting demand signal
/// while `plan` corrupts its forecasting model. Control for tick
/// `t+1` is chosen at the end of tick `t`; regret is
/// `min(|control - truth|, F7_REGRET_CAP)` (non-finite control pays
/// the cap). Metric keys:
///
/// * `mean_regret` — whole-run mean per-tick regret;
/// * `regret_corrupt` — mean regret inside the [`F7_WINDOW`]-tick
///   windows after each corruption onset;
/// * `recovery_ticks` — mean ticks from onset until the 10-tick
///   smoothed regret first returns inside twice the pre-corruption
///   band (censored at the next onset / end of run);
/// * `model_rollbacks` / `model_fallbacks` / `model_repromotions` —
///   supervisor interventions (0 for the other arms);
/// * `explanations` — supervision entries in the
///   [`ExplanationLog`](selfaware::explain::ExplanationLog).
///
/// Public so the parity and property tests can compare sequential and
/// parallel runs of the exact scenario.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn f7_scenario(
    arm: F7Arm,
    plan: &workloads::FaultPlan,
    seeds: SeedTree,
    steps: u64,
) -> MetricSet {
    use selfaware::explain::ExplanationLog;
    use selfaware::supervision::{Evidence, SelfModel};
    use workloads::faults::FaultKind;
    use workloads::signal::{SignalGen, SignalSpec};

    // Drifting demand with regime changes: enough structure that a
    // healthy forecaster beats pure reaction, and mis-forecasts cost.
    let regimes = vec![
        (
            0,
            SignalSpec::Trend {
                start: 20.0,
                slope: 0.02,
            },
        ),
        (
            steps / 3,
            SignalSpec::Oscillation {
                center: 30.0,
                amplitude: 6.0,
                period: 120.0,
            },
        ),
        (2 * steps / 3, SignalSpec::Flat { level: 24.0 }),
    ];
    let mut gen = SignalGen::new(regimes, 0.8, seeds.rng("demand"));

    // The baseline arm never consults the model.
    let mut slot = SelfModel::new("f7-demand", Holt::new(0.3, 0.1), arm == F7Arm::Supervised);
    let mut log = ExplanationLog::new(1024);
    let mut control: Option<f64> = None;
    let mut regret = Vec::with_capacity(steps as usize);
    let mut onsets: Vec<u64> = Vec::new();

    for t in 0..steps {
        let now = Tick(t);
        let sense_span = obs::span("f7:sense");
        let x = gen.sample(now);

        // Corruption strikes before the tick's model update, as in the
        // substrate simulators.
        for ev in plan.events_at(now) {
            if let FaultKind::ModelCorruption { kind, .. } = ev.kind {
                onsets.push(t);
                kind.apply(&mut slot, now);
            }
        }
        drop(sense_span);
        let _decide_span = obs::span("f7:decide");

        // Score yesterday's control decision against today's truth.
        if let Some(c) = control {
            let r = (c - x).abs();
            regret.push(if r.is_finite() {
                r.min(F7_REGRET_CAP)
            } else {
                F7_REGRET_CAP
            });
        } else {
            regret.push(0.0);
        }

        // Update the model and choose control for the next tick.
        control = Some(if arm == F7Arm::Baseline {
            x
        } else {
            if !slot.frozen(now) {
                slot.model_mut().observe(x);
            }
            let out = slot.model().forecast_h(1).unwrap_or(x);
            slot.observe(now, Evidence::forecast(x, out), &mut log);
            // The bare model's answer flows whatever it is; the
            // supervised arm reacts to `x` while benched or non-finite.
            if slot.trusts(out) {
                out
            } else {
                x
            }
        });
    }

    onsets.sort_unstable();
    onsets.dedup();
    let first_onset = onsets.first().copied().unwrap_or(steps) as usize;
    let pre = &regret[..first_onset.max(1).min(regret.len())];
    let pre_mean = pre.iter().sum::<f64>() / pre.len().max(1) as f64;
    let band = 2.0 * pre_mean + 1.0;
    // Trailing 10-tick mean, clipped at the onset so pre-corruption
    // calm cannot mask the spike.
    let smooth = |i: usize, onset: usize| -> f64 {
        let lo = i.saturating_sub(9).max(onset);
        regret[lo..=i].iter().sum::<f64>() / (i - lo + 1) as f64
    };

    let mut corrupt_sum = 0.0;
    let mut corrupt_n = 0u64;
    let mut recovery_sum = 0.0;
    for (k, &onset) in onsets.iter().enumerate() {
        let end = onsets
            .get(k + 1)
            .copied()
            .unwrap_or(steps)
            .min(regret.len() as u64);
        let window_end = (onset + F7_WINDOW).min(regret.len() as u64);
        for &r in &regret[onset as usize..window_end as usize] {
            corrupt_sum += r;
            corrupt_n += 1;
        }
        let recovered = (onset..end)
            .position(|i| smooth(i as usize, onset as usize) <= band)
            .map_or(end - onset, |d| d as u64);
        recovery_sum += recovered as f64;
    }

    let stats = slot.stats();
    let mut m = MetricSet::new();
    m.set(
        "mean_regret",
        regret.iter().sum::<f64>() / regret.len().max(1) as f64,
    );
    m.set("regret_corrupt", corrupt_sum / corrupt_n.max(1) as f64);
    m.set("recovery_ticks", recovery_sum / onsets.len().max(1) as f64);
    m.set("model_rollbacks", f64::from(stats.rollbacks));
    m.set("model_fallbacks", f64::from(stats.fallbacks));
    m.set("model_repromotions", f64::from(stats.repromotions));
    m.set("explanations", log.len() as f64);
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f7")),
        ("arm", obs::Json::str(arm.label())),
        ("metrics", metrics_json(&m)),
        ("supervision", stats.to_json()),
        ("explanations", log.to_json()),
    ]));
    m
}

/// F7 — controller-corruption ablation: the same corrupted forecaster
/// run bare, and under meta-self-aware supervision, against the
/// reactive floor. Supervision should bound the corrupted-window
/// regret and recover the model instead of riding it into the ground.
#[must_use]
pub fn run_f7(reps: u32, steps: u64) -> Table {
    let arms = [F7Arm::Baseline, F7Arm::Unsupervised, F7Arm::Supervised];
    let mut table = Table::new(
        format!(
            "F7: controller corruption ablation ({steps} ticks, {reps} reps; \
             NaN poison, weight scramble, state freeze)"
        ),
        &[
            "controller",
            "mean regret",
            "corrupted-window regret",
            "recovery ticks",
            "rollbacks",
            "fallbacks",
        ],
    );
    let aggs = Replications::new(0xF7, reps).run_matrix(&arms, |&arm, seeds| {
        f7_scenario(arm, &f7_fault_plan(steps), seeds, steps)
    });
    let labels: Vec<String> = arms.iter().map(|a| a.label().to_string()).collect();
    RunTrace {
        experiment: "f7",
        seed: 0xF7,
        replicates: reps,
        steps,
        config: &format!("f7 arms={labels:?} steps={steps}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    for (arm, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            arm.label().to_string(),
            num_ci(agg.mean("mean_regret"), agg.ci95("mean_regret")),
            num_ci(agg.mean("regret_corrupt"), agg.ci95("regret_corrupt")),
            format!("{:.0}", agg.mean("recovery_ticks")),
            format!("{:.1}", agg.mean("model_rollbacks")),
            format!("{:.1}", agg.mean("model_fallbacks")),
        ]);
    }
    table
}

#[cfg(test)]
mod f7_tests {
    use super::*;

    #[test]
    fn supervised_beats_unsupervised_in_corrupted_windows() {
        let steps = 4000;
        let plan = f7_fault_plan(steps);
        let reps = Replications::new(0xF7, 3);
        let uns = reps.run(|seeds| f7_scenario(F7Arm::Unsupervised, &plan, seeds, steps));
        let sup = reps.run(|seeds| f7_scenario(F7Arm::Supervised, &plan, seeds, steps));
        let u = uns.mean("regret_corrupt");
        let s = sup.mean("regret_corrupt");
        assert!(
            s < u,
            "supervised corrupted-window regret {s} must beat unsupervised {u}"
        );
        assert!(
            sup.mean("model_rollbacks") + sup.mean("model_fallbacks") >= 1.0,
            "supervisor must intervene"
        );
        assert!(
            sup.mean("explanations") >= 1.0,
            "interventions must be logged"
        );
    }

    #[test]
    fn supervised_recovery_is_bounded() {
        let steps = 4000;
        let m = f7_scenario(
            F7Arm::Supervised,
            &f7_fault_plan(steps),
            SeedTree::new(0xF7),
            steps,
        );
        let recovery = m.get("recovery_ticks").unwrap();
        assert!(
            recovery < f64::from(u32::try_from(steps / 4).unwrap()),
            "supervised recovery should stay inside the inter-onset gap: {recovery}"
        );
    }

    #[test]
    fn f7_table_is_reproducible() {
        let a = run_f7(2, 2000);
        let b = run_f7(2, 2000);
        assert_eq!(a.len(), 3);
        assert_eq!(format!("{a}"), format!("{b}"));
    }
}

/// One arm of the F8 unreliable-communications sweep: a per-link loss
/// rate, an optional partition length, and the comms policy under
/// test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F8Arm {
    /// Per-message drop probability applied to every comms link.
    pub loss: f64,
    /// Partition length in ticks (0 = no partition). The partition
    /// cuts a fixed node group per substrate: cameras `[0, 1, 4, 5]`
    /// and the CPN's attacked routers from `steps/3`, and cloud zone
    /// agent 2 across the demand spike.
    pub partition: u64,
    /// Fire-and-forget comms instead of the reliable
    /// staleness-weighted protocol.
    pub naive: bool,
}

impl F8Arm {
    /// Short table label, e.g. `20% loss, part 750, staleness-aware`.
    #[must_use]
    pub fn label(&self) -> String {
        let policy = if self.naive {
            "naive"
        } else {
            "staleness-aware"
        };
        if self.partition > 0 {
            format!(
                "{:.0}% loss, part {}, {policy}",
                self.loss * 100.0,
                self.partition
            )
        } else {
            format!("{:.0}% loss, {policy}", self.loss * 100.0)
        }
    }

    fn policy(&self) -> selfaware::comms::CommsPolicy {
        if self.naive {
            selfaware::comms::CommsPolicy::Naive
        } else {
            selfaware::comms::CommsPolicy::default()
        }
    }
}

/// The F8 cloud configuration: an 18-node pool driven through a
/// 3-zone command plane by a stimulus+time controller, with flat
/// demand and a sustained ×3 spike in the last quarter. Goal-level
/// safety adaptation is deliberately absent: it would partially mask
/// command loss by re-renting reachable zones whenever violations
/// rise, and F8 measures the command plane itself. The optional
/// partition cuts zone agent 2 just before the spike so the
/// controller must re-home its capacity elsewhere — or fail to.
///
/// Public so the parity and property tests can re-run the exact
/// scenario.
#[must_use]
pub fn f8_cloud_cfg(arm: F8Arm, seeds: &SeedTree, steps: u64) -> cloudsim::ScenarioConfig {
    use workloads::faults::{ChannelPlan, LinkModel};
    let mut cfg = cloudsim::ScenarioConfig::standard(
        cloudsim::Strategy::SelfAware {
            levels: LevelSet::new().with(Level::Stimulus).with(Level::Time),
        },
        steps,
        seeds,
    );
    cfg.specs = (0..18)
        .map(|i| {
            let capacity = 1.0 + (i % 4) as f64;
            if i % 3 == 0 {
                cloudsim::NodeSpec::reliable(capacity)
            } else {
                cloudsim::NodeSpec::volunteer(capacity)
            }
        })
        .collect();
    cfg.base_rate = 2.2;
    cfg.amplitude = 0.2;
    cfg.schedule = workloads::Schedule::none()
        .and(workloads::Disturbance::scale(Tick(steps / 2), 1.4))
        .and(workloads::Disturbance::spike(
            Tick(steps * 3 / 4),
            3.0,
            steps / 5,
        ));
    let mut plan = ChannelPlan::uniform(seeds, LinkModel::lossy(arm.loss));
    if arm.partition > 0 {
        plan = plan.with_partition(steps * 3 / 4, arm.partition, vec![2]);
    }
    cfg.channel = plan;
    cfg.comms = arm.policy();
    cfg.command_plane = cloudsim::CommandPlane::Zoned { zones: 3 };
    cfg
}

/// One F8 replicate: the same loss/partition/policy arm applied to
/// all three substrates, each on its own seed subtree. Metric keys:
///
/// * `cam_quality` / `cam_untracked` — camera-network tracking under
///   lossy auction and handover messaging;
/// * `cpn_delivery` / `cpn_utility` — packet delivery when the
///   smart-router control plane is lossy;
/// * `cloud_utility` / `cloud_violations` — autoscaling through the
///   zoned command plane of [`f8_cloud_cfg`];
/// * `comms_sent` / `comms_retries` / `comms_expired` /
///   `comms_partition_hits` — protocol counters summed across the
///   three substrates.
///
/// Public so the parity and property tests can compare sequential and
/// parallel runs of the exact scenario.
#[must_use]
pub fn f8_scenario(arm: F8Arm, seeds: SeedTree, steps: u64) -> MetricSet {
    use workloads::faults::{ChannelPlan, LinkModel};

    let cam_seeds = seeds.child("camnet");
    let mut cam_cfg =
        camnet::CamnetConfig::standard(camnet::HandoverStrategy::self_aware_default(), steps);
    cam_cfg.channel = ChannelPlan::uniform(&cam_seeds, LinkModel::lossy(arm.loss));
    if arm.partition > 0 {
        cam_cfg.channel =
            cam_cfg
                .channel
                .with_partition(steps / 3, arm.partition, vec![0, 1, 4, 5]);
    }
    cam_cfg.comms = arm.policy();
    let cam = camnet::run_camnet(&cam_cfg, &cam_seeds);

    // The packet network runs the periodic table router on the
    // contested (moving-flood) scenario: its only adaptivity is the
    // communicated queue state, so this is the strategy where channel
    // quality is decisive. (The CPN learner adapts from its own
    // packets' measured delays and shrugs off report loss.) The
    // partition silences the flood-ingress routers 7 and 13, whose
    // reports carry the congestion signal.
    let cpn_seeds = seeds.child("cpn");
    let mut cpn_cfg =
        cpn::CpnConfig::contested(cpn::RoutingStrategy::Periodic { period: 50 }, steps);
    cpn_cfg.channel = ChannelPlan::uniform(&cpn_seeds, LinkModel::lossy(arm.loss));
    if arm.partition > 0 {
        let (from, _) = cpn::CpnConfig::attack_window(steps);
        cpn_cfg.channel = cpn_cfg
            .channel
            .with_partition(from.value(), arm.partition, vec![7, 13]);
    }
    cpn_cfg.comms = arm.policy();
    let net = cpn::run_cpn(&cpn_cfg, &cpn_seeds);

    let cloud_seeds = seeds.child("cloud");
    let cloud = cloudsim::run_scenario(&f8_cloud_cfg(arm, &cloud_seeds, steps), &cloud_seeds);

    let mut m = MetricSet::new();
    m.set(
        "cam_quality",
        cam.metrics.get("track_quality").unwrap_or(0.0),
    );
    m.set(
        "cam_untracked",
        cam.metrics.get("untracked_ratio").unwrap_or(1.0),
    );
    m.set(
        "cpn_delivery",
        net.metrics.get("delivery_ratio").unwrap_or(0.0),
    );
    m.set("cpn_utility", net.metrics.get("utility").unwrap_or(0.0));
    m.set("cloud_utility", cloud.metrics.get("utility").unwrap_or(0.0));
    m.set(
        "cloud_violations",
        cloud.metrics.get("violation_rate").unwrap_or(1.0),
    );
    for key in [
        "comms_sent",
        "comms_retries",
        "comms_expired",
        "comms_partition_hits",
    ] {
        m.set(
            key,
            cam.metrics.get(key).unwrap_or(0.0)
                + net.metrics.get(key).unwrap_or(0.0)
                + cloud.metrics.get(key).unwrap_or(0.0),
        );
    }
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f8")),
        ("arm", obs::Json::str(arm.label())),
        ("metrics", metrics_json(&m)),
        (
            "explanations",
            obs::Json::obj([
                ("camnet", cam.comms_log.to_json()),
                ("cpn", net.comms_log.to_json()),
                ("cloud", cloud.comms_log.to_json()),
            ]),
        ),
    ]));
    m
}

/// The F8 arm grid: a loss sweep at both comms policies, plus two
/// partition lengths riding on 20% loss.
#[must_use]
pub fn f8_arms() -> Vec<F8Arm> {
    let mut arms = Vec::new();
    for loss in [0.0, 0.1, 0.2, 0.3, 0.4] {
        for naive in [true, false] {
            arms.push(F8Arm {
                loss,
                partition: 0,
                naive,
            });
        }
    }
    for partition in [300, 750] {
        for naive in [true, false] {
            arms.push(F8Arm {
                loss: 0.2,
                partition,
                naive,
            });
        }
    }
    arms
}

/// F8 — collective self-awareness under unreliable communications.
/// Sweeps per-link loss (0–40%) and partition length across all three
/// substrates, comparing naive fire-and-forget messaging against the
/// reliable staleness-weighted protocol. The claim: staleness-aware
/// comms hold near their clean-channel quality where naive messaging
/// collapses, and the recovery work (retries, expiries, partition
/// hits) is visible in the explanation log.
#[must_use]
pub fn run_f8(reps: u32, steps: u64) -> Table {
    let arms = f8_arms();
    let mut table = Table::new(
        format!("F8: unreliable communications ({steps} ticks, {reps} reps, mean±95CI)"),
        &[
            "arm",
            "cam quality",
            "cpn delivery",
            "cloud utility",
            "retries",
            "expired",
            "part hits",
        ],
    );
    let aggs = Replications::new(0xF8, reps)
        .run_matrix(&arms, |&arm, seeds| f8_scenario(arm, seeds, steps));
    let labels: Vec<String> = arms.iter().map(F8Arm::label).collect();
    RunTrace {
        experiment: "f8",
        seed: 0xF8,
        replicates: reps,
        steps,
        config: &format!("f8 arms={labels:?} steps={steps}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    for (arm, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            arm.label(),
            num_ci(agg.mean("cam_quality"), agg.ci95("cam_quality")),
            num_ci(agg.mean("cpn_delivery"), agg.ci95("cpn_delivery")),
            num_ci(agg.mean("cloud_utility"), agg.ci95("cloud_utility")),
            format!("{:.0}", agg.mean("comms_retries")),
            format!("{:.0}", agg.mean("comms_expired")),
            format!("{:.0}", agg.mean("comms_partition_hits")),
        ]);
    }
    table
}

#[cfg(test)]
mod f8_tests {
    use super::*;

    #[test]
    fn staleness_aware_holds_where_naive_collapses() {
        let steps = 3000;
        let reps = Replications::new(0xF8, 3);
        let arm = |naive| F8Arm {
            loss: 0.25,
            partition: 750,
            naive,
        };
        let naive = reps.run(|seeds| f8_scenario(arm(true), seeds, steps));
        let aware = reps.run(|seeds| f8_scenario(arm(false), seeds, steps));
        assert!(
            aware.mean("cam_untracked") < naive.mean("cam_untracked"),
            "camnet: aware untracked {} must beat naive {}",
            aware.mean("cam_untracked"),
            naive.mean("cam_untracked")
        );
        assert!(
            aware.mean("cpn_utility") > naive.mean("cpn_utility"),
            "cpn: aware utility {} must beat naive {}",
            aware.mean("cpn_utility"),
            naive.mean("cpn_utility")
        );
        // The cloud signal lives in the spike window only, so
        // per-replicate wins are the robust comparison (churn noise
        // dominates whole-run means at this replication count).
        let mut cloud_wins = 0;
        for k in 0..3 {
            let n = f8_scenario(arm(true), reps.seeds_for(k), steps);
            let a = f8_scenario(arm(false), reps.seeds_for(k), steps);
            if a.get("cloud_utility") > n.get("cloud_utility") {
                cloud_wins += 1;
            }
        }
        assert!(
            cloud_wins >= 2,
            "cloud: aware should out-schedule naive on most replicates ({cloud_wins}/3)"
        );
        assert!(
            aware.mean("comms_retries") > 0.0 && aware.mean("comms_partition_hits") > 0.0,
            "the recovery work must be visible in the counters"
        );
    }

    #[test]
    fn f8_recovery_work_reaches_the_explanation_log() {
        let arm = F8Arm {
            loss: 0.2,
            partition: 300,
            naive: false,
        };
        let seeds = SeedTree::new(0xF8);
        let m = f8_scenario(arm, seeds.child("probe"), 1500);
        assert!(m.get("comms_retries").unwrap() > 0.0);
        assert!(m.get("comms_partition_hits").unwrap() > 0.0);
        let cloud_seeds = seeds.child("probe").child("cloud");
        let r = cloudsim::run_scenario(&f8_cloud_cfg(arm, &cloud_seeds, 1500), &cloud_seeds);
        assert!(
            r.comms_log.iter().any(|e| e.kind == "comms:retry"),
            "retries must be explained"
        );
    }

    #[test]
    fn f8_table_is_reproducible() {
        let a = run_f8(1, 900);
        let b = run_f8(1, 900);
        assert_eq!(a.len(), 14);
        assert_eq!(format!("{a}"), format!("{b}"));
    }
}

/// One arm of F9 — which layers of the composed smart-city stack run
/// self-aware. The cascade campaign is identical across arms (common
/// random numbers), so differences are pure policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F9Arm {
    /// Every layer on: supervised CPN routing, reliable
    /// staleness-aware comms, sensor-health quarantine, degradation
    /// ladder.
    Supervised,
    /// Fire-and-forget command plane, everything else aware.
    NaiveComms,
    /// Periodic-table routing, everything else aware.
    NaiveRouter,
    /// Raw camera readings (no quarantine), everything else aware.
    NaiveCameras,
    /// Every layer naive.
    AllNaive,
}

impl F9Arm {
    /// The five ablation arms in table order.
    #[must_use]
    pub fn all() -> Vec<F9Arm> {
        vec![
            F9Arm::Supervised,
            F9Arm::NaiveComms,
            F9Arm::NaiveRouter,
            F9Arm::NaiveCameras,
            F9Arm::AllNaive,
        ]
    }

    /// The arm's [`compose::CityPolicy`].
    #[must_use]
    pub fn policy(&self) -> compose::CityPolicy {
        match self {
            F9Arm::Supervised => compose::CityPolicy::supervised(),
            F9Arm::NaiveComms => compose::CityPolicy::naive_comms(),
            F9Arm::NaiveRouter => compose::CityPolicy::naive_router(),
            F9Arm::NaiveCameras => compose::CityPolicy::naive_cameras(),
            F9Arm::AllNaive => compose::CityPolicy::all_naive(),
        }
    }

    /// Table label (the policy's label).
    #[must_use]
    pub fn label(&self) -> String {
        self.policy().label()
    }
}

/// The F9 headline campaign: a cascading composite scaled to the
/// horizon. Zone 1's backend goes dark for the middle two fifths of
/// the run (machines 3..6 of the standard 3×3 world), overlapping the
/// flash crowd; a network partition on zone agent 1 heals *inside*
/// the outage (the satellite-2 restore-ordering case); camera 2's
/// quality sensor takes a bias shift; the routing model is scrambled
/// mid-outage; and every command-plane link runs at 10% loss.
#[must_use]
pub fn f9_campaign(seeds: &SeedTree, steps: u64) -> workloads::FaultCampaign {
    use workloads::faults::LinkModel;
    workloads::FaultCampaign::new("cascade", seeds)
        .with_loss(LinkModel::lossy(0.1))
        .zone_outage(Tick(steps * 2 / 5), 3, 3, steps * 2 / 5)
        .net_partition(steps * 2 / 5 + 10, steps / 5, vec![1])
        .fault(workloads::FaultEvent::sensor_fault(
            Tick(steps / 4),
            2,
            workloads::SensorFaultKind::Bias { offset: 0.6 },
            steps / 3,
        ))
        .corruption(
            Tick(steps / 2),
            0,
            workloads::faults::ModelCorruptionKind::WeightScramble { gain: 25.0 },
        )
}

/// One F9 replicate: the composed city under the cascade campaign.
/// Returns [`compose::run_city`]'s metric set unchanged (see its docs
/// for the key glossary). Public so the parity and property tests can
/// re-run the exact scenario.
#[must_use]
pub fn f9_scenario(arm: F9Arm, seeds: SeedTree, steps: u64) -> MetricSet {
    let city_seeds = seeds.child("city");
    let mut cfg = compose::CityConfig::standard(arm.policy(), steps, &city_seeds);
    cfg.campaign = f9_campaign(&city_seeds, steps);
    let r = compose::run_city(&cfg, &city_seeds);
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f9")),
        ("arm", obs::Json::str(arm.label())),
        ("metrics", metrics_json(&r.metrics)),
        // The per-link expiry / retry-budget-exhaustion maps: which
        // command links died, and how the protocol found out.
        ("comms", r.comms_stats.to_json()),
        ("explanations", r.log.to_json()),
    ]));
    r.metrics
}

/// The loss grid of the F9 CPN breaking-point sweep. F8 established
/// the learned router shrugs off report loss up to 40%; this sweep
/// continues until it breaks.
#[must_use]
pub fn f9_breaking_losses() -> Vec<f64> {
    vec![0.0, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]
}

/// One replicate of the breaking-point sweep: the contested CPN
/// scenario under the *learned* router with report-channel loss.
/// Public for the parity suite.
#[must_use]
pub fn f9_breaking_scenario(loss: f64, seeds: SeedTree, steps: u64) -> MetricSet {
    use workloads::faults::{ChannelPlan, LinkModel};
    let mut cfg = cpn::CpnConfig::contested(cpn::RoutingStrategy::cpn_default(), steps);
    cfg.channel = ChannelPlan::uniform(&seeds, LinkModel::lossy(loss));
    cpn::run_cpn(&cfg, &seeds).metrics
}

/// Runs the breaking-point sweep and returns `(table, breaking_loss)`
/// where `breaking_loss` is the smallest swept report-loss rate at
/// which the learned router's mean delivery ratio falls below 95% of
/// its clean-channel value (`None` if it never does — the router's
/// robustness outlived the sweep).
#[must_use]
pub fn f9_breaking_point(reps: u32, steps: u64) -> (Table, Option<f64>) {
    let losses = f9_breaking_losses();
    let aggs = Replications::new(0xF9B, reps).run_matrix(&losses, |&loss, seeds| {
        f9_breaking_scenario(loss, seeds, steps)
    });
    let clean = aggs[0].mean("delivery_ratio");
    let mut breaking = None;
    let mut table = Table::new(
        format!("F9b: learned-router report-loss sweep ({steps} ticks, {reps} reps)"),
        &["report loss", "delivery", "utility", "vs clean"],
    );
    for (loss, agg) in losses.iter().zip(&aggs) {
        let delivery = agg.mean("delivery_ratio");
        let rel = delivery / clean.max(1e-12);
        if breaking.is_none() && *loss > 0.0 && rel < 0.95 {
            breaking = Some(*loss);
        }
        table.row_owned(vec![
            format!("{:.0}%", loss * 100.0),
            num_ci(delivery, agg.ci95("delivery_ratio")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
            format!("{:.3}", rel),
        ]);
    }
    (table, breaking)
}

/// F9 — the composed smart-city world under the cascading campaign.
/// The claim: the fully supervised, staleness-aware stack degrades
/// gracefully (sheds quality, re-homes the dead zone, throttles
/// admission) where per-layer and all-naive ablations lose service;
/// the headline metric is the utility gap between `supervised` and
/// `all-naive` under the cascade. Also answers F8's open question by
/// reporting the learned router's report-loss breaking point.
#[must_use]
pub fn run_f9(reps: u32, steps: u64) -> Table {
    let arms = F9Arm::all();
    let aggs = Replications::new(0xF9, reps)
        .run_matrix(&arms, |&arm, seeds| f9_scenario(arm, seeds, steps));
    let labels: Vec<String> = arms.iter().map(F9Arm::label).collect();
    RunTrace {
        experiment: "f9",
        seed: 0xF9,
        replicates: reps,
        steps,
        config: &format!("f9 arms={labels:?} steps={steps}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    let mut table = Table::new(
        format!("F9: composed smart-city cascade ({steps} ticks, {reps} reps, mean±95CI)"),
        &[
            "arm",
            "on-time",
            "service",
            "coverage",
            "track err",
            "utility",
            "rehomed",
            "expired",
        ],
    );
    for (arm, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            arm.label(),
            num_ci(agg.mean("on_time_ratio"), agg.ci95("on_time_ratio")),
            num_ci(agg.mean("service_ratio"), agg.ci95("service_ratio")),
            num_ci(agg.mean("coverage"), agg.ci95("coverage")),
            num_ci(agg.mean("tracking_error"), agg.ci95("tracking_error")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
            format!("{:.0}", agg.mean("rehomed")),
            format!("{:.0}", agg.mean("comms_expired")),
        ]);
    }
    table
}

#[cfg(test)]
mod f9_tests {
    use super::*;

    #[test]
    fn supervised_stack_out_degrades_all_naive_under_the_cascade() {
        let steps = 1200;
        let reps = Replications::new(0xF9, 3);
        let sup = reps.run(|seeds| f9_scenario(F9Arm::Supervised, seeds, steps));
        let naive = reps.run(|seeds| f9_scenario(F9Arm::AllNaive, seeds, steps));
        assert!(
            sup.mean("utility") > naive.mean("utility"),
            "supervised utility {} must beat all-naive {}",
            sup.mean("utility"),
            naive.mean("utility")
        );
        assert!(
            sup.mean("rehomed") > 0.0,
            "the ladder's re-home rung must fire under the cascade"
        );
        assert!(
            sup.mean("comms_expired") > 0.0,
            "the dead zone must burn command-plane deliveries"
        );
    }

    #[test]
    fn f9_table_is_reproducible() {
        let a = run_f9(1, 600);
        let b = run_f9(1, 600);
        assert_eq!(a.len(), 5);
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn breaking_point_sweep_is_reproducible_and_monotone_labelled() {
        let (a, pa) = f9_breaking_point(1, 500);
        let (b, pb) = f9_breaking_point(1, 500);
        assert_eq!(format!("{a}"), format!("{b}"));
        assert_eq!(pa, pb);
        assert_eq!(a.len(), f9_breaking_losses().len());
    }
}

/// Root seed of the F10 replication tree.
pub const F10_SEED: u64 = 0xF10;

/// Gate tolerance on a canonical cell's mean measured benefit:
/// an intervention class regresses only when suppressing it would
/// *improve* the campaign's headline metric by more than this.
pub const F10_EPSILON: f64 = 0.02;

/// One F10 fault campaign: a composed-city scenario representative of
/// an earlier experiment's fault kind, with the headline metric that
/// experiment scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F10Campaign {
    /// F6/F7-style sensor fault: camera quality sensors take bias
    /// shifts; the quarantine/substitution machinery is on trial.
    /// Headline: `tracking_error` (minimise).
    Bias,
    /// F5/F7-style model corruption: the routing model is NaN-poisoned
    /// and weight-scrambled; supervisor rollback/fallback/re-promotion
    /// are on trial. Headline: `utility` (maximise).
    Corruption,
    /// F8-style command-plane degradation: 25% uniform link loss plus
    /// a partition on zone agent 1; the reliable comms protocol's
    /// retries are on trial. Headline: `on_time_ratio` (maximise).
    Loss,
    /// F9-ingredient zone outage: zone 1's backend dies for the middle
    /// two fifths; the degradation ladder (re-home, shed, throttle) is
    /// on trial. Headline: `utility` (maximise).
    Outage,
    /// Capacity brownout (ROADMAP item 5): two of zone 1's three
    /// backend machines die for the middle three fifths while the
    /// zone — and its agent — stay alive. Re-homing never triggers
    /// (the zone is not dark) and gateway pressure stays under the
    /// shed threshold, so admission throttling is the *only* defence
    /// that can keep the surviving core's queueing delay inside the
    /// SLA. This is the campaign where throttle pays; the gate pins
    /// its benefit positive. Headline: `on_time_ratio` (maximise).
    Brownout,
    /// The full F9 cascading campaign ([`f9_campaign`]): everything at
    /// once. Headline: `utility` (maximise).
    Cascade,
}

impl F10Campaign {
    /// Every campaign, in table order.
    #[must_use]
    pub fn all() -> Vec<F10Campaign> {
        vec![
            F10Campaign::Bias,
            F10Campaign::Corruption,
            F10Campaign::Loss,
            F10Campaign::Outage,
            F10Campaign::Brownout,
            F10Campaign::Cascade,
        ]
    }

    /// Stable table/trace label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            F10Campaign::Bias => "bias",
            F10Campaign::Corruption => "corruption",
            F10Campaign::Loss => "loss",
            F10Campaign::Outage => "outage",
            F10Campaign::Brownout => "brownout",
            F10Campaign::Cascade => "cascade",
        }
    }

    /// The campaign's headline metric and its better-direction.
    #[must_use]
    pub fn metric(self) -> (&'static str, Direction) {
        match self {
            F10Campaign::Bias => ("tracking_error", Direction::Minimize),
            F10Campaign::Loss | F10Campaign::Brownout => ("on_time_ratio", Direction::Maximize),
            F10Campaign::Corruption | F10Campaign::Outage | F10Campaign::Cascade => {
                ("utility", Direction::Maximize)
            }
        }
    }

    /// Builds the fault campaign, scaled to the horizon.
    #[must_use]
    pub fn build(self, seeds: &SeedTree, steps: u64) -> workloads::FaultCampaign {
        use workloads::faults::LinkModel;
        match self {
            F10Campaign::Bias => workloads::FaultCampaign::new("bias", seeds)
                .fault(workloads::FaultEvent::sensor_fault(
                    Tick(steps / 4),
                    2,
                    workloads::SensorFaultKind::Bias { offset: 2.5 },
                    steps / 3,
                ))
                .fault(workloads::FaultEvent::sensor_fault(
                    Tick(steps / 2),
                    5,
                    workloads::SensorFaultKind::Bias { offset: -2.0 },
                    steps / 4,
                )),
            // The second NaN lands inside the supervisor's relapse
            // window (50 ticks): the first is cured by a rollback, the
            // relapse benches the model, and the quiet stretch after
            // it exercises re-promotion — so all three supervisor
            // rungs leave anchors.
            F10Campaign::Corruption => workloads::FaultCampaign::new("corruption", seeds)
                .corruption(
                    Tick(steps / 3),
                    0,
                    workloads::faults::ModelCorruptionKind::NanPoison,
                )
                .corruption(
                    Tick(steps / 3 + 30),
                    0,
                    workloads::faults::ModelCorruptionKind::NanPoison,
                )
                .corruption(
                    Tick(steps * 3 / 5),
                    0,
                    workloads::faults::ModelCorruptionKind::WeightScramble { gain: 25.0 },
                ),
            F10Campaign::Loss => workloads::FaultCampaign::new("loss", seeds)
                .with_loss(LinkModel::lossy(0.25))
                .net_partition(steps * 2 / 5, steps / 5, vec![1]),
            F10Campaign::Outage => workloads::FaultCampaign::new("outage", seeds).zone_outage(
                Tick(steps * 2 / 5),
                3,
                3,
                steps * 2 / 5,
            ),
            // Zones 1 and 2 each lose their big core and one little
            // for the long middle window; one little core (40% of the
            // big's speed) survives per zone, so neither zone goes
            // dark and both keep admitting. A backlog at the
            // admission cap takes a lone little longer than the SLA
            // deadline to drain, so detections serviced from a
            // saturated queue violate — unless throttling holds the
            // queue short.
            F10Campaign::Brownout => workloads::FaultCampaign::new("brownout", seeds)
                .zone_outage(Tick(steps / 8), 3, 2, steps * 3 / 4)
                .zone_outage(Tick(steps / 8), 6, 2, steps * 3 / 4),
            F10Campaign::Cascade => f9_campaign(seeds, steps),
        }
    }
}

/// Runs the composed city under `campaign` with `mask` applied —
/// the F10 re-execution primitive. Same world, policy and seed
/// derivation as [`f9_scenario`]; the mask is the only degree of
/// freedom, so [`InterventionMask::allow_all`] reproduces the factual
/// run bit for bit.
#[must_use]
pub fn f10_city(
    campaign: F10Campaign,
    mask: InterventionMask,
    seeds: &SeedTree,
    steps: u64,
) -> compose::CityResult {
    let city_seeds = seeds.child("city");
    let mut cfg =
        compose::CityConfig::standard(compose::CityPolicy::supervised(), steps, &city_seeds);
    cfg.campaign = campaign.build(&city_seeds, steps).with_mask(mask);
    compose::run_city(&cfg, &city_seeds)
}

/// One replicate's full counterfactual probe: the factual run plus one
/// single-flip masked re-execution per intervention class that fired,
/// under common random numbers.
#[must_use]
pub fn f10_probe(campaign: F10Campaign, seeds: &SeedTree, steps: u64) -> CounterfactualReport {
    let (metric, direction) = campaign.metric();
    CounterfactualRun::new(metric, direction, |mask| {
        let r = f10_city(campaign, mask, seeds, steps);
        ReplayOutcome {
            metric: r.metrics.get(metric).unwrap_or(f64::NAN),
            log: r.log,
        }
    })
    .probe(&InterventionClass::ALL)
}

/// The typed `counterfactual` run-trace record for one delta
/// (validated by `obs_validate`): campaign tag, full delta fields,
/// and the operator-readable headline sentence.
fn counterfactual_record(campaign: &str, metric: &str, d: &CounterfactualDelta) -> obs::Json {
    let mut pairs = vec![
        ("record".to_string(), obs::Json::str("counterfactual")),
        ("campaign".to_string(), obs::Json::str(campaign)),
        ("headline".to_string(), obs::Json::str(d.headline(metric))),
    ];
    if let obs::Json::Obj(body) = d.to_json(metric) {
        pairs.extend(body);
    }
    obs::Json::Obj(pairs)
}

/// One F10 replicate, flattened for the replication harness: the
/// factual headline metric, the factual log's eviction count, and one
/// `benefit:<class>` / `fires:<class>` / `events:<class>` triple per
/// intervention class.
/// Also emits one typed `counterfactual` record per class into the
/// run trace.
#[must_use]
pub fn f10_scenario(campaign: F10Campaign, seeds: SeedTree, steps: u64) -> MetricSet {
    let report = f10_probe(campaign, &seeds, steps);
    let (metric, _) = campaign.metric();
    let mut m = MetricSet::new();
    m.set("factual", report.factual);
    m.set("log_dropped", report.log_dropped as f64);
    for d in &report.deltas {
        obs::emit(counterfactual_record(campaign.label(), metric, d));
        m.set(format!("benefit:{}", d.class.label()), d.benefit);
        m.set(format!("fires:{}", d.class.label()), d.fires as f64);
        m.set(format!("events:{}", d.class.label()), d.events as f64);
    }
    m
}

/// Each intervention class's canonical smoke scenario for the CI
/// regression gate: the campaign whose fault kind that class exists
/// to absorb. Tuned so the class reliably *fires* there at smoke
/// horizons (≥ 900 ticks).
#[must_use]
pub fn f10_canonical(class: InterventionClass) -> F10Campaign {
    match class {
        InterventionClass::SensorQuarantine => F10Campaign::Bias,
        InterventionClass::SupervisorRollback
        | InterventionClass::SupervisorFallback
        | InterventionClass::SupervisorRepromote => F10Campaign::Corruption,
        InterventionClass::CommsRetry => F10Campaign::Loss,
        // Throttle's canonical home is the brownout (ROADMAP item 5):
        // on the cascade its measured delta sat at ≈ 0 because the
        // zone either dies (re-home takes over) or survives with
        // enough capacity that the admission cap alone bounds
        // latency. The brownout leaves a crippled-but-alive zone
        // where holding the queue short is the only defence, so the
        // gate can demand a strictly positive delta.
        InterventionClass::ComposeThrottle => F10Campaign::Brownout,
        InterventionClass::CommsReissue
        | InterventionClass::ComposeShed
        | InterventionClass::ComposeRehome => F10Campaign::Cascade,
    }
}

/// One aggregated gate cell: a class's mean measured benefit (and
/// mean fire count) on its canonical campaign.
#[derive(Debug, Clone)]
pub struct F10Cell {
    /// The intervention class under test.
    pub class: InterventionClass,
    /// Canonical campaign label.
    pub campaign: &'static str,
    /// Mean direction-signed benefit over replicates.
    pub benefit: f64,
    /// Mean ledger fire count over replicates.
    pub fires: f64,
    /// Whether zero fires is itself a failure. Canonical
    /// cells require firing (a gate that cannot observe its subject is
    /// not green); *restraint* cells set this false — they pin a
    /// campaign where the class historically misfired, so not firing
    /// is the desired outcome and only negative benefit fails.
    pub require_fire: bool,
    /// Whether the cell must show *strictly positive* mean benefit,
    /// not merely non-negative. Set on a class whose canonical
    /// campaign was built specifically so the class pays (ROADMAP
    /// item 5: throttle on the brownout) — a zero there means the
    /// campaign no longer exercises the class and the cell has
    /// silently decayed into a tautology.
    pub require_positive: bool,
}

/// The intervention-regression gate, pure over aggregated cells: a
/// class fails when its campaign mean benefit is below
/// `-`[`F10_EPSILON`] — the explanation machinery claims an
/// intervention helped while the measured counterfactual says it
/// hurt. A `require_fire` class that never fired (zero fires in the
/// ledger) fails too: a gate that cannot observe its subject is not
/// green.
#[must_use]
pub fn f10_gate_failures(cells: &[F10Cell]) -> Vec<String> {
    let mut failures = Vec::new();
    for cell in cells {
        if cell.fires <= 0.0 && cell.require_fire {
            failures.push(format!(
                "{} never fired on canonical campaign `{}` (0 fires)",
                cell.class.label(),
                cell.campaign
            ));
        } else if cell.benefit < -F10_EPSILON {
            failures.push(format!(
                "{} shows negative benefit {:.4} on canonical campaign `{}` (tolerance {})",
                cell.class.label(),
                cell.benefit,
                cell.campaign,
                F10_EPSILON
            ));
        } else if cell.require_positive && cell.benefit <= 0.0 {
            failures.push(format!(
                "{} shows no positive benefit ({:.4}) on canonical campaign `{}` — \
                 the campaign was built so this class pays",
                cell.class.label(),
                cell.benefit,
                cell.campaign
            ));
        }
    }
    failures
}

/// Truncation flags for the replay windows (satellite of the
/// explanation-fidelity contract): any campaign whose factual
/// explanation logs evicted entries gets a flag line, because evicted
/// entries mean undercounted anchors.
#[must_use]
pub fn f10_truncation_flags(dropped: &[(String, f64)]) -> Vec<String> {
    dropped
        .iter()
        .filter(|(_, mean)| *mean > 0.0)
        .map(|(label, mean)| {
            format!("{label}: mean {mean:.1} explanation entries dropped per replicate — anchors undercount")
        })
        .collect()
}

/// Everything `run_f10` measured, pre-rendered for the binary and CI.
#[derive(Debug)]
pub struct F10Report {
    /// Intervention × campaign mean-benefit table.
    pub table: Table,
    /// Per-campaign explanation-fidelity table.
    pub fidelity: Table,
    /// Canonical-cell gate verdicts (empty == gate green).
    pub gate_failures: Vec<String>,
    /// Replay windows flagged for explanation-log truncation.
    pub truncation_flags: Vec<String>,
    /// Replicate-0 headline sentences for classes that fired (empty
    /// when observability is off — they ride the run-trace records).
    pub headlines: Vec<String>,
}

/// F10 — deterministic counterfactual replay as a self-explanation
/// engine. Across fault campaigns representative of F5–F9, every
/// intervention class is force-disabled one bit at a time and the
/// headline-metric delta measured under common random numbers. The
/// claim: the self-awareness interventions the explanation log brags
/// about carry *measured* benefit — explanation fidelity is the
/// fraction of fired classes whose measured benefit is not negative.
#[must_use]
pub fn run_f10(reps: u32, steps: u64) -> F10Report {
    let campaigns = F10Campaign::all();
    let aggs = Replications::new(F10_SEED, reps)
        .run_matrix(&campaigns, |&c, seeds| f10_scenario(c, seeds, steps));
    let labels: Vec<String> = campaigns.iter().map(|c| c.label().to_string()).collect();
    RunTrace {
        experiment: "f10",
        seed: F10_SEED,
        replicates: reps,
        steps,
        config: &format!("f10 campaigns={labels:?} steps={steps}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();

    // Intervention × campaign benefit table.
    let mut headers: Vec<&str> = vec!["intervention"];
    headers.extend(campaigns.iter().map(|c| c.label()));
    let mut table = Table::new(
        format!("F10: measured intervention benefit ({steps} ticks, {reps} reps, mean±95CI)"),
        &headers,
    );
    for class in InterventionClass::ALL {
        let mut row = vec![class.label().to_string()];
        for (_, agg) in campaigns.iter().zip(&aggs) {
            let b = format!("benefit:{}", class.label());
            let e = format!("events:{}", class.label());
            let events = agg.mean(&e);
            if events <= 0.0 && agg.mean(&b).abs() < 1e-12 {
                row.push("–".into());
            } else {
                row.push(num_ci(agg.mean(&b), agg.ci95(&b)));
            }
        }
        table.row_owned(row);
    }

    // Per-campaign fidelity: of the classes that fired (anchored
    // events in the factual log), how many have non-negative measured
    // benefit within tolerance.
    let mut fidelity = Table::new(
        format!("F10: explanation fidelity per fault kind (tolerance {F10_EPSILON})"),
        &[
            "campaign",
            "metric",
            "fired",
            "confirmed",
            "fidelity",
            "log dropped",
        ],
    );
    for (c, agg) in campaigns.iter().zip(&aggs) {
        let (metric, _) = c.metric();
        let mut fired = 0u32;
        let mut confirmed = 0u32;
        for class in InterventionClass::ALL {
            let events = agg.mean(&format!("events:{}", class.label()));
            if events > 0.0 {
                fired += 1;
                if agg.mean(&format!("benefit:{}", class.label())) >= -F10_EPSILON {
                    confirmed += 1;
                }
            }
        }
        let score = if fired == 0 {
            "–".to_string()
        } else {
            format!("{:.2}", f64::from(confirmed) / f64::from(fired))
        };
        fidelity.row_owned(vec![
            c.label().to_string(),
            metric.to_string(),
            fired.to_string(),
            confirmed.to_string(),
            score,
            format!("{:.1}", agg.mean("log_dropped")),
        ]);
    }

    // Canonical gate cells.
    let mut cells: Vec<F10Cell> = InterventionClass::ALL
        .into_iter()
        .map(|class| {
            let canonical = f10_canonical(class);
            let idx = campaigns
                .iter()
                .position(|c| *c == canonical)
                .expect("canonical campaign is in the table");
            F10Cell {
                class,
                campaign: canonical.label(),
                benefit: aggs[idx].mean(&format!("benefit:{}", class.label())),
                fires: aggs[idx].mean(&format!("fires:{}", class.label())),
                require_fire: true,
                // The brownout exists so throttle pays (ROADMAP item
                // 5); its cell must show a strictly positive delta.
                require_positive: class == InterventionClass::ComposeThrottle,
            }
        })
        .collect();
    // Restraint cell (PR 9): the loss campaign partitions a zone whose
    // backend stays alive — the F10 misfire was re-homing away from
    // it. With bounce-corroborated dark detection the rehome must now
    // either hold fire (0 events) or fire with non-negative measured
    // benefit; both pass, a harmful firing fails.
    if let Some(idx) = campaigns.iter().position(|c| *c == F10Campaign::Loss) {
        let label = InterventionClass::ComposeRehome.label();
        cells.push(F10Cell {
            class: InterventionClass::ComposeRehome,
            campaign: F10Campaign::Loss.label(),
            benefit: aggs[idx].mean(&format!("benefit:{label}")),
            fires: aggs[idx].mean(&format!("fires:{label}")),
            require_fire: false,
            require_positive: false,
        });
    }
    // Restraint cell (this PR, ROADMAP item 5): the cascade is where
    // throttle historically idled at ≈ 0 measured benefit. Now that
    // its canonical (positive) home is the brownout, the cascade cell
    // only polices harm: throttle may hold fire there or fire with
    // non-negative delta, but a harmful firing fails.
    if let Some(idx) = campaigns.iter().position(|c| *c == F10Campaign::Cascade) {
        let label = InterventionClass::ComposeThrottle.label();
        cells.push(F10Cell {
            class: InterventionClass::ComposeThrottle,
            campaign: F10Campaign::Cascade.label(),
            benefit: aggs[idx].mean(&format!("benefit:{label}")),
            fires: aggs[idx].mean(&format!("fires:{label}")),
            require_fire: false,
            require_positive: false,
        });
    }
    let gate_failures = f10_gate_failures(&cells);

    let dropped: Vec<(String, f64)> = campaigns
        .iter()
        .zip(&aggs)
        .map(|(c, agg)| (c.label().to_string(), agg.mean("log_dropped")))
        .collect();
    let truncation_flags = f10_truncation_flags(&dropped);

    // Replicate-0 headlines, read back from the emitted trace records.
    let mut headlines = Vec::new();
    for (c, agg) in campaigns.iter().zip(&aggs) {
        if let Some(records) = agg.records().first() {
            for rec in records {
                if rec.get("record").and_then(obs::Json::as_str) != Some("counterfactual") {
                    continue;
                }
                let fired = rec.get("events").and_then(obs::Json::as_num).unwrap_or(0.0) > 0.0;
                if let (true, Some(h)) = (fired, rec.get("headline").and_then(obs::Json::as_str)) {
                    headlines.push(format!("[{}] {h}", c.label()));
                }
            }
        }
    }

    F10Report {
        table,
        fidelity,
        gate_failures,
        truncation_flags,
        headlines,
    }
}

#[cfg(test)]
mod f10_tests {
    use super::*;

    const STEPS: u64 = 350;

    #[test]
    fn all_bits_off_mask_replays_every_campaign_bit_exactly() {
        // The acceptance contract: replaying any F10 arm with the
        // all-bits-off mask reproduces the original (mask-free) run
        // bit for bit — metrics, comms counters, everything the
        // scenario scores.
        let seeds = Replications::new(F10_SEED, 1).seeds_for(0);
        for c in F10Campaign::all() {
            let city_seeds = seeds.child("city");
            let mut cfg = compose::CityConfig::standard(
                compose::CityPolicy::supervised(),
                STEPS,
                &city_seeds,
            );
            cfg.campaign = c.build(&city_seeds, STEPS);
            let original = compose::run_city(&cfg, &city_seeds);
            let replay = f10_city(c, InterventionMask::allow_all(), &seeds, STEPS);
            assert_eq!(original.metrics, replay.metrics, "campaign {c:?}");
            assert_eq!(original.comms_stats, replay.comms_stats, "campaign {c:?}");
        }
    }

    #[test]
    fn masked_replays_are_deterministic() {
        let seeds = Replications::new(F10_SEED, 1).seeds_for(0);
        for class in [
            InterventionClass::SensorQuarantine,
            InterventionClass::CommsRetry,
            InterventionClass::ComposeShed,
        ] {
            let mask = InterventionMask::suppressing(class);
            let a = f10_city(F10Campaign::Cascade, mask, &seeds, STEPS);
            let b = f10_city(F10Campaign::Cascade, mask, &seeds, STEPS);
            assert_eq!(a.metrics, b.metrics, "class {class:?}");
        }
    }

    #[test]
    fn scenario_flattens_every_class_and_surfaces_log_pressure() {
        let m = f10_scenario(F10Campaign::Outage, SeedTree::new(7), STEPS);
        assert!(m.get("factual").is_some());
        // Satellite contract: the ring buffer's eviction count rides
        // the metric set so truncated replay windows can be flagged.
        assert!(m.get("log_dropped").is_some());
        for class in InterventionClass::ALL {
            assert!(
                m.get(&format!("benefit:{}", class.label())).is_some(),
                "missing benefit for {class:?}"
            );
            assert!(
                m.get(&format!("events:{}", class.label())).is_some(),
                "missing events for {class:?}"
            );
        }
    }

    #[test]
    fn gate_fails_on_negative_benefit_and_on_silent_classes() {
        let cells = vec![
            F10Cell {
                class: InterventionClass::SupervisorRollback,
                campaign: "corruption",
                benefit: 0.5,
                fires: 2.0,
                require_fire: true,
                require_positive: false,
            },
            F10Cell {
                class: InterventionClass::CommsRetry,
                campaign: "loss",
                benefit: -0.5,
                fires: 3.0,
                require_fire: true,
                require_positive: false,
            },
            F10Cell {
                class: InterventionClass::ComposeShed,
                campaign: "cascade",
                benefit: 0.0,
                fires: 0.0,
                require_fire: true,
                require_positive: false,
            },
            // Fired, though the ring evicted every anchor: the ledger's
            // count passes the fire check.
            F10Cell {
                class: InterventionClass::SupervisorFallback,
                campaign: "corruption",
                benefit: 0.1,
                fires: 1.0,
                require_fire: true,
                require_positive: false,
            },
        ];
        let failures = f10_gate_failures(&cells);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("comms-retry")));
        assert!(failures
            .iter()
            .any(|f| f.contains("compose-shed") && f.contains("(0 fires)")));
        // Within tolerance: a small negative mean is noise, not a
        // regression.
        let ok = f10_gate_failures(&[F10Cell {
            class: InterventionClass::CommsRetry,
            campaign: "loss",
            benefit: -F10_EPSILON / 2.0,
            fires: 1.0,
            require_fire: true,
            require_positive: false,
        }]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn restraint_cells_pass_silent_and_fail_harmful() {
        // A restraint cell (require_fire = false) passes when the
        // class holds fire entirely…
        let silent = F10Cell {
            class: InterventionClass::ComposeRehome,
            campaign: "loss",
            benefit: 0.0,
            fires: 0.0,
            require_fire: false,
            require_positive: false,
        };
        assert!(f10_gate_failures(&[silent]).is_empty());
        // …and still fails when it fires with measured harm.
        let harmful = F10Cell {
            class: InterventionClass::ComposeRehome,
            campaign: "loss",
            benefit: -0.4,
            fires: 2.0,
            require_fire: false,
            require_positive: false,
        };
        let failures = f10_gate_failures(&[harmful]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("compose-rehome"));
    }

    #[test]
    fn positive_cells_fail_at_zero_benefit() {
        // ROADMAP item 5's closure is enforced, not prose: the
        // throttle cell on the brownout demands a strictly positive
        // measured delta, so a relapse to the old ≈ 0 misfire fails
        // the gate even though 0 is within the negative tolerance.
        let flat = F10Cell {
            class: InterventionClass::ComposeThrottle,
            campaign: "brownout",
            benefit: 0.0,
            fires: 40.0,
            require_fire: true,
            require_positive: true,
        };
        let failures = f10_gate_failures(std::slice::from_ref(&flat));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("no positive benefit"), "{failures:?}");
        // Any strictly positive mean passes…
        let paying = F10Cell {
            benefit: 0.015,
            ..flat.clone()
        };
        assert!(f10_gate_failures(&[paying]).is_empty());
        // …and silence still trips the require_fire arm first.
        let silent = F10Cell {
            benefit: 0.0,
            fires: 0.0,
            ..flat
        };
        let failures = f10_gate_failures(&[silent]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("never fired"), "{failures:?}");
    }

    #[test]
    fn throttle_is_canonically_homed_on_the_brownout() {
        assert_eq!(
            f10_canonical(InterventionClass::ComposeThrottle),
            F10Campaign::Brownout
        );
        // The brownout keeps both browned-out zones alive: no machine
        // set covers a whole zone, so re-home never has a dark zone
        // to move (the throttle delta is not confounded).
        let seeds = SeedTree::new(1);
        let campaign = F10Campaign::Brownout.build(&seeds, 1000);
        let plan = campaign.faults();
        for z in 0..3usize {
            let all_down = (0..3).all(|k| plan.zone_down_at(z * 3 + k, Tick(500)));
            assert!(!all_down, "zone {z} fully dark mid-brownout");
        }
    }

    #[test]
    fn truncation_flags_name_only_dropping_windows() {
        let flags =
            f10_truncation_flags(&[("bias".to_string(), 0.0), ("cascade".to_string(), 12.5)]);
        assert_eq!(flags.len(), 1);
        assert!(flags[0].contains("cascade"), "{flags:?}");
        assert!(flags[0].contains("12.5"), "{flags:?}");
    }

    #[test]
    fn f10_tables_are_reproducible() {
        let a = run_f10(1, 300);
        let b = run_f10(1, 300);
        assert_eq!(a.table.len(), InterventionClass::ALL.len());
        assert_eq!(a.fidelity.len(), F10Campaign::all().len());
        assert_eq!(format!("{}", a.table), format!("{}", b.table));
        assert_eq!(format!("{}", a.fidelity), format!("{}", b.fidelity));
        assert_eq!(a.gate_failures, b.gate_failures);
    }
}

// ---------------------------------------------------------------------------
// F11 — live-traffic mode
// ---------------------------------------------------------------------------

/// Root seed of the F11 replication tree.
pub const F11_SEED: u64 = 0xF11;

/// One F11 replicate: replay the standard seeded chaos campaign (flash
/// crowd overlapping a slow-handler stall, connection drops, handler
/// panics, arrival-model poisoning) against one provisioning arm of
/// the live TCP server, and flatten the client/server/governor reports
/// into metrics.
///
/// Unlike every other experiment in this file the scenario body runs
/// on wall-clock time; only the *plan* (arrivals, service times,
/// faults) is seed-deterministic. Replication averages out scheduler
/// noise.
#[must_use]
pub fn f11_scenario(arm: liveserve::Arm, seeds: SeedTree, ticks: u64) -> MetricSet {
    let plan = liveserve::ChaosPlan::standard(ticks);
    let r = match liveserve::run_arm(arm, &plan, &seeds) {
        Ok(r) => r,
        Err(e) => panic!("f11 {} arm failed to start: {e}", arm.label()),
    };
    let mut m = MetricSet::new();
    m.set("goodput", r.load.goodput());
    m.set(
        "requests_per_sec",
        r.load.ok as f64 / r.load.wall_secs.max(f64::MIN_POSITIVE),
    );
    m.set("p50_ms", r.load.latency_percentile(0.50));
    m.set("p99_ms", r.load.latency_percentile(0.99));
    m.set("error_rate", r.load.error_rate());
    m.set("offered", r.load.offered as f64);
    m.set("ok", r.load.ok as f64);
    m.set("on_time", r.load.on_time as f64);
    m.set("client_shed", r.load.shed as f64);
    m.set("retries", r.load.retries as f64);
    m.set("served", r.server.served as f64);
    m.set("server_shed", r.server.shed as f64);
    m.set("timed_out", r.server.timed_out as f64);
    m.set("panicked", r.server.panicked as f64);
    m.set(
        "clean_shutdown",
        f64::from(u8::from(r.server.clean_shutdown)),
    );
    m.set(
        "threads_leaked",
        r.server
            .threads_spawned
            .saturating_sub(r.server.threads_joined) as f64,
    );
    let count = |kind: &str| r.log.iter().filter(|e| e.kind == kind).count() as f64;
    m.set("shed_engagements", count("live:shed"));
    m.set("recoveries", count("live:recover"));
    m.set("log_dropped", r.log.dropped_count() as f64);
    m.set(
        "watchdog_reactions",
        f64::from(r.supervision.warns + r.supervision.rollbacks + r.supervision.fallbacks),
    );
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f11")),
        ("arm", obs::Json::str(arm.label())),
        ("metrics", metrics_json(&m)),
        (
            "transitions",
            obs::Json::Arr(
                r.log
                    .iter()
                    .map(|e| {
                        obs::Json::obj([
                            ("tick", obs::Json::from(e.at.value())),
                            ("event", obs::Json::str(e.kind)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("supervision", r.supervision.to_json()),
    ]));
    m
}

/// Everything `run_f11` measured plus its acceptance verdicts.
#[derive(Debug)]
pub struct F11Report {
    /// Per-arm results table.
    pub table: Table,
    /// Replicate-0 supervised governor transitions, pre-rendered.
    pub transitions: Vec<String>,
    /// Harness-asserted acceptance failures (empty == pass): clean
    /// shutdown and zero thread leaks on every arm and replicate,
    /// shed *and* recover observed with no transition evicted from the
    /// governor's log, the poisoned model noticed, and
    /// supervised beating naive on goodput and p99 with
    /// non-overlapping 95% CIs.
    pub failures: Vec<String>,
}

/// F11 — wall-clock self-aware serving beats fixed provisioning under
/// chaos. The same supervised autoscaler, watchdog ladder and
/// hysteresis machinery that runs the simulated substrates governs a
/// real threaded TCP server; the naive arm has the same worker pool
/// and a deeper queue but fixed limits and no admission control.
/// `strict = false` (the CI smoke at tiny horizons / single
/// replicates) skips only the *statistical* separation gates — CI
/// non-overlap on goodput and p99 needs full-length runs to be
/// meaningful — while keeping every robustness gate (clean shutdown,
/// zero leaks, shed→recover cycle, poisoning noticed) mandatory.
#[must_use]
pub fn run_f11(reps: u32, ticks: u64, strict: bool) -> F11Report {
    liveserve::install_quiet_panic_hook();
    let arms = [liveserve::Arm::Supervised, liveserve::Arm::Naive];
    let labels: Vec<String> = arms.iter().map(|a| a.label().to_string()).collect();
    // One worker: wall-clock arms must not time-share the machine
    // with each other, or they would corrupt each other's latencies.
    let aggs = Replications::new(F11_SEED, reps)
        .run_matrix_threads(1, &arms, |&a, seeds| f11_scenario(a, seeds, ticks));
    RunTrace {
        experiment: "f11",
        seed: F11_SEED,
        replicates: reps,
        steps: ticks,
        config: &format!("f11 arms={labels:?} ticks={ticks} plan=standard"),
        arms: &labels,
        reports: &aggs,
    }
    .export();

    let mut table = Table::new(
        format!(
            "F11: live-traffic chaos, supervised vs naive ({ticks} ticks ≈ {}s offered load, {reps} reps, mean±95CI)",
            ticks / 100
        ),
        &[
            "arm",
            "goodput ok/s",
            "p50 ms",
            "p99 ms",
            "error rate",
            "shed",
            "503s",
            "clean",
        ],
    );
    for (label, agg) in labels.iter().zip(&aggs) {
        table.row_owned(vec![
            label.clone(),
            num_ci(agg.mean("goodput"), agg.ci95("goodput")),
            num(agg.mean("p50_ms")),
            num_ci(agg.mean("p99_ms"), agg.ci95("p99_ms")),
            num_ci(agg.mean("error_rate"), agg.ci95("error_rate")),
            num(agg.mean("server_shed")),
            num(agg.mean("timed_out")),
            format!("{:.0}/{reps}", agg.mean("clean_shutdown") * f64::from(reps)),
        ]);
    }

    let mut failures = Vec::new();
    for (label, agg) in labels.iter().zip(&aggs) {
        if agg.mean("clean_shutdown") < 1.0 {
            failures.push(format!(
                "{label}: unclean shutdown in at least one replicate (deadlock or stuck thread)"
            ));
        }
        if agg.mean("threads_leaked") > 0.0 {
            failures.push(format!(
                "{label}: leaked threads (mean {:.2})",
                agg.mean("threads_leaked")
            ));
        }
    }
    let (sup, naive) = (&aggs[0], &aggs[1]);
    if sup.mean("shed_engagements") <= 0.0 || sup.mean("recoveries") <= 0.0 {
        failures.push(format!(
            "supervised arm never completed a shed→recover cycle (shed {:.1}, recover {:.1})",
            sup.mean("shed_engagements"),
            sup.mean("recoveries")
        ));
    }
    if sup.mean("watchdog_reactions") <= 0.0 {
        failures.push("supervised arm: poisoned arrival model went unnoticed".to_string());
    }
    if sup.mean("log_dropped") > 0.0 {
        failures.push(format!(
            "supervised arm: the governor's log evicted transitions (mean {:.1} dropped), so shed and recover counts are short",
            sup.mean("log_dropped")
        ));
    }
    if strict {
        let (gs, gsc) = (sup.mean("goodput"), sup.ci95("goodput"));
        let (gn, gnc) = (naive.mean("goodput"), naive.ci95("goodput"));
        if gs - gsc <= gn + gnc {
            failures.push(format!(
                "goodput CIs overlap: supervised {gs:.1}±{gsc:.1} vs naive {gn:.1}±{gnc:.1}"
            ));
        }
        let (ps, psc) = (sup.mean("p99_ms"), sup.ci95("p99_ms"));
        let (pn, pnc) = (naive.mean("p99_ms"), naive.ci95("p99_ms"));
        if ps + psc >= pn - pnc {
            failures.push(format!(
                "p99 CIs overlap: supervised {ps:.0}±{psc:.0}ms vs naive {pn:.0}±{pnc:.0}ms"
            ));
        }
    }

    // Replicate-0 supervised transitions, read back from the trace
    // records (present only when observability is on).
    let mut transitions = Vec::new();
    if let Some(records) = sup.records().first() {
        for rec in records {
            if rec.get("scenario").and_then(obs::Json::as_str) != Some("f11") {
                continue;
            }
            if let Some(obs::Json::Arr(ts)) = rec.get("transitions") {
                for t in ts {
                    let tick = t.get("tick").and_then(obs::Json::as_num).unwrap_or(-1.0);
                    let event = t.get("event").and_then(obs::Json::as_str).unwrap_or("?");
                    transitions.push(format!("t={tick:>6.0} {event}"));
                }
            }
        }
    }

    F11Report {
        table,
        transitions,
        failures,
    }
}

#[cfg(test)]
mod f11_tests {
    use super::*;

    #[test]
    fn f11_scenario_flattens_all_acceptance_metrics() {
        liveserve::install_quiet_panic_hook();
        // Short calm-ish horizon: this is a schema test, not a
        // performance measurement.
        let m = f11_scenario(liveserve::Arm::Supervised, SeedTree::new(3), 120);
        for key in [
            "goodput",
            "requests_per_sec",
            "p50_ms",
            "p99_ms",
            "error_rate",
            "clean_shutdown",
            "threads_leaked",
            "shed_engagements",
            "recoveries",
            "log_dropped",
            "watchdog_reactions",
        ] {
            assert!(m.get(key).is_some(), "missing metric {key}");
        }
        assert!(
            (m.get("clean_shutdown").unwrap_or(0.0) - 1.0).abs() < f64::EPSILON,
            "short run must shut down cleanly"
        );
        assert!(m.get("threads_leaked").unwrap_or(1.0).abs() < f64::EPSILON);
    }
}

// ---------------------------------------------------------------------------
// F12 — discrete-event substrate scale.
// ---------------------------------------------------------------------------

/// Root seed of the F12 replication tree.
pub const F12_SEED: u64 = 0xF12;

/// Scale floors the full-mode F12 gate enforces: the tentpole claim
/// is a ≥10k-camera network and a ≥1M-request cloud trace, simulated
/// whole.
pub const F12_MIN_CAMERAS: u64 = 10_000;
/// Minimum arrived requests for the full-mode cloud arm.
pub const F12_MIN_REQUESTS: f64 = 1_000_000.0;
/// Minimum wall-clock-per-entity-tick improvement of sparse\@full over
/// dense\@reduced the full-mode gate demands, per substrate.
pub const F12_MIN_SPEEDUP: f64 = 10.0;

/// One measured F12 arm: a (substrate, drive, scale) cell with its
/// wall clock normalised per *potential* entity-tick — `entities ×
/// steps`, the work a dense loop must do regardless of activity. The
/// sparse arms also report how many entity visits actually happened,
/// which is the point: cost tracks activity, not population.
#[derive(Debug, Clone)]
pub struct DesMeasurement {
    /// `"camnet"` or `"cloud"`.
    pub substrate: &'static str,
    /// `"dense@reduced"`, `"sparse@reduced"` or `"sparse@full"`.
    pub arm: &'static str,
    /// Entity count (cameras / nodes) at this scale.
    pub entities: u64,
    /// Simulated horizon in ticks.
    pub steps: u64,
    /// `entities × steps` — the dense-equivalent workload.
    pub potential_entity_ticks: u64,
    /// Entity visits the drive mode actually performed.
    pub visits: f64,
    /// Scheduler wake events consumed (0 in dense mode).
    pub wakes: f64,
    /// Requests arrived (cloud substrate; 0 for camnet).
    pub requests: f64,
    /// Wall-clock seconds for the measurement run (1 replicate, 1
    /// worker).
    pub wall_secs: f64,
    /// `wall_secs × 1e9 / potential_entity_ticks`.
    pub ns_per_entity_tick: f64,
}

/// The F12 scale matrix. Dense arms run only at *reduced* scale — at
/// full scale the dense camnet sweep alone is 19,881 cameras × 256
/// objects × 2,000 ticks ≈ 1.0×10¹⁰ distance tests — and the
/// per-entity-tick comparison leans on the dense loop's cost being
/// linear in the population: per tick it does O(objects) work per
/// camera and O(1) work per node, both independent of how many other
/// entities exist, so ns-per-entity-tick measured at reduced scale
/// transfers to full scale (the extrapolation EXPERIMENTS.md
/// documents).
struct F12Scales {
    cam_side_full: usize,
    cam_side_reduced: usize,
    cam_objects: usize,
    cam_steps_full: u64,
    cam_steps_reduced: u64,
    cloud_nodes_full: usize,
    cloud_nodes_reduced: usize,
    cloud_steps_full: u64,
    cloud_steps_reduced: u64,
    cloud_rate: f64,
}

impl F12Scales {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                cam_side_full: 12,
                cam_side_reduced: 8,
                cam_objects: 32,
                cam_steps_full: 300,
                cam_steps_reduced: 120,
                cloud_nodes_full: 512,
                cloud_nodes_reduced: 128,
                cloud_steps_full: 4_000,
                cloud_steps_reduced: 1_000,
                cloud_rate: 4.0,
            }
        } else {
            Self {
                // 141² = 19 881 cameras — ~2× the 10k floor. The
                // woken-camera count per tick depends on objects ×
                // coverage, not on the grid size, so the sparse
                // advantage grows with the population.
                cam_side_full: 141,
                cam_side_reduced: 20,
                cam_objects: 256,
                cam_steps_full: 2_000,
                cam_steps_reduced: 250,
                cloud_nodes_full: 32_768,
                cloud_nodes_reduced: 1_024,
                cloud_steps_full: 150_000,
                cloud_steps_reduced: 20_000,
                cloud_rate: 8.0,
            }
        }
    }
}

/// The F12 camnet fault campaign: a handful of camera failures and
/// recoveries so the at-scale run exercises the scheduler's fault
/// class, scaled to the grid.
fn f12_camnet_faults(side: usize, steps: u64) -> workloads::faults::FaultPlan {
    let n = side * side;
    let mut plan = workloads::faults::FaultPlan::none();
    for k in 0..4usize {
        let cam = (k * n) / 4 + side / 2;
        plan = plan
            .and(workloads::FaultEvent::camera_fail(Tick(steps / 4), cam))
            .and(workloads::FaultEvent::camera_recover(
                Tick(steps * 3 / 4),
                cam,
            ));
    }
    plan
}

/// The F12 cloud fault campaign: one mid-run rack outage over an
/// eighth of the fleet.
fn f12_cloud_faults(nodes: usize, steps: u64) -> workloads::faults::FaultPlan {
    workloads::faults::FaultPlan::none().and(workloads::FaultEvent::zone_outage(
        Tick(steps / 3),
        nodes / 4,
        (nodes / 8).max(1),
        steps / 4,
    ))
}

fn f12_camnet_cfg(
    scales: &F12Scales,
    full: bool,
    drive: simkernel::DriveMode,
) -> camnet::DesCamnetConfig {
    let side = if full {
        scales.cam_side_full
    } else {
        scales.cam_side_reduced
    };
    let steps = if full {
        scales.cam_steps_full
    } else {
        scales.cam_steps_reduced
    };
    let mut cfg = camnet::DesCamnetConfig::at_scale(side, scales.cam_objects, steps);
    cfg.faults = f12_camnet_faults(side, steps);
    cfg.drive = drive;
    cfg
}

fn f12_cloud_cfg(
    scales: &F12Scales,
    full: bool,
    drive: simkernel::DriveMode,
) -> cloudsim::DesCloudConfig {
    let nodes = if full {
        scales.cloud_nodes_full
    } else {
        scales.cloud_nodes_reduced
    };
    let steps = if full {
        scales.cloud_steps_full
    } else {
        scales.cloud_steps_reduced
    };
    let mut cfg = cloudsim::DesCloudConfig::at_scale(nodes, steps, scales.cloud_rate);
    // Trace-scale churn: at 150k ticks the `at_scale` default flips
    // every node ~150 times, which is availability chaos, not
    // volunteer churn. A node here flips ~15 times per full trace.
    // Applied at both scales so dense@reduced and sparse arms model
    // the same fleet.
    cfg.churn_off = 2e-4;
    cfg.churn_on = 2e-3;
    cfg.faults = f12_cloud_faults(nodes, steps);
    cfg.drive = drive;
    cfg
}

/// One F12 camnet replicate, flattened: world metrics plus the
/// activation counters (deterministic, so they ride report equality).
#[must_use]
pub fn f12_camnet_scenario(cfg: &camnet::DesCamnetConfig, seeds: &SeedTree) -> MetricSet {
    let r = camnet::run_des_camnet(cfg, seeds);
    let mut m = r.metrics;
    m.set("des_visits", r.perf.visits as f64);
    m.set("des_wakes", r.perf.wakes as f64);
    m.set("des_shed", r.perf.shed as f64);
    m
}

/// One F12 cloud replicate, flattened like
/// [`f12_camnet_scenario`].
#[must_use]
pub fn f12_cloud_scenario(cfg: &cloudsim::DesCloudConfig, seeds: &SeedTree) -> MetricSet {
    let r = cloudsim::run_des_cloud(cfg, seeds);
    let mut m = r.metrics;
    m.set("des_visits", r.perf.visits as f64);
    m.set("des_wakes", r.perf.wakes as f64);
    m.set("des_shed", r.perf.shed as f64);
    m
}

/// Runs the six F12 measurement arms (per substrate: dense\@reduced,
/// sparse\@reduced, sparse\@full), one replicate at one worker each —
/// these are wall-clock measurements, so they never time-share. Each
/// arm keeps its [`RunReport`] for the run trace. `progress` receives
/// one line per finished arm.
fn f12_measured_arms(
    smoke: bool,
    progress: &mut impl FnMut(&str),
) -> Vec<(DesMeasurement, RunReport)> {
    let scales = F12Scales::new(smoke);
    let runs = Replications::new(F12_SEED, 1);
    let mut out = Vec::new();
    let arms = [
        ("dense@reduced", false, simkernel::DriveMode::Dense),
        ("sparse@reduced", false, simkernel::DriveMode::Sparse),
        ("sparse@full", true, simkernel::DriveMode::Sparse),
    ];
    for (arm, full, drive) in arms {
        let cfg = f12_camnet_cfg(&scales, full, drive);
        let entities = (cfg.side * cfg.side) as u64;
        let steps = cfg.steps;
        let report = runs.run_par_threads(1, {
            let cfg = cfg.clone();
            move |seeds| f12_camnet_scenario(&cfg, &seeds)
        });
        out.push((
            des_measurement("camnet", arm, entities, steps, &report),
            report,
        ));
        progress(&format!("f12/camnet/{arm}: done"));
    }
    for (arm, full, drive) in arms {
        let cfg = f12_cloud_cfg(&scales, full, drive);
        let entities = cfg.nodes as u64;
        let steps = cfg.steps;
        let report = runs.run_par_threads(1, {
            let cfg = cfg.clone();
            move |seeds| f12_cloud_scenario(&cfg, &seeds)
        });
        out.push((
            des_measurement("cloud", arm, entities, steps, &report),
            report,
        ));
        progress(&format!("f12/cloud/{arm}: done"));
    }
    out
}

fn des_measurement(
    substrate: &'static str,
    arm: &'static str,
    entities: u64,
    steps: u64,
    report: &RunReport,
) -> DesMeasurement {
    let potential = entities * steps;
    let wall = report.wall_secs();
    DesMeasurement {
        substrate,
        arm,
        entities,
        steps,
        potential_entity_ticks: potential,
        visits: report.aggregate().mean("des_visits"),
        wakes: report.aggregate().mean("des_wakes"),
        requests: report.aggregate().mean("arrived"),
        wall_secs: wall,
        ns_per_entity_tick: wall * 1e9 / potential.max(1) as f64,
    }
}

/// Per-substrate speedup: dense\@reduced ns-per-entity-tick over
/// sparse\@full ns-per-entity-tick. Empty if either arm is missing.
#[must_use]
pub fn f12_speedups(measurements: &[DesMeasurement]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for substrate in ["camnet", "cloud"] {
        let find = |arm: &str| {
            measurements
                .iter()
                .find(|m| m.substrate == substrate && m.arm == arm)
        };
        if let (Some(dense), Some(sparse)) = (find("dense@reduced"), find("sparse@full")) {
            out.push((
                dense.substrate,
                dense.ns_per_entity_tick / sparse.ns_per_entity_tick.max(f64::MIN_POSITIVE),
            ));
        }
    }
    out
}

/// Everything `run_f12` measured plus its acceptance verdicts.
#[derive(Debug)]
pub struct F12Report {
    /// Per-arm measurement table.
    pub table: Table,
    /// (substrate, dense\@reduced ÷ sparse\@full ns-per-entity-tick).
    pub speedups: Vec<(&'static str, f64)>,
    /// Gate failures (empty == pass): dense-vs-sparse and 1-vs-4-worker
    /// bit-identity always; scale floors and the ≥10× speedup in full
    /// mode only (smoke horizons are too short to time meaningfully).
    pub failures: Vec<String>,
}

/// F12 — discrete-event substrate scale. The tentpole claim: driving
/// the substrates through [`simkernel::SimScheduler`] with sparse
/// activation simulates a ≥10k-camera network and a ≥1M-request cloud
/// trace whole, at wall-clock-per-entity-tick ≥10× better than the
/// dense loops, while staying **bit-identical** to them — same
/// metrics dense vs sparse, same aggregates at 1 and 4 workers.
#[must_use]
pub fn run_f12(smoke: bool, mut progress: impl FnMut(&str)) -> F12Report {
    let scales = F12Scales::new(smoke);
    let mut failures = Vec::new();

    // Bit-identity: dense vs sparse at reduced scale, and 1 vs 4
    // workers on the sparse full-scale arm (the one the scale claim
    // rests on). 3 replicates each.
    let parity_runs = Replications::new(F12_SEED, 3);
    {
        // World metrics only: the activation counters differ between
        // drive modes by design (sparse visits ≪ dense visits), so
        // the dense-vs-sparse contract is over `.metrics` alone.
        let dense_cfg = f12_camnet_cfg(&scales, false, simkernel::DriveMode::Dense);
        let sparse_cfg = f12_camnet_cfg(&scales, false, simkernel::DriveMode::Sparse);
        let dense = parity_runs.run_par_threads(1, move |seeds| {
            camnet::run_des_camnet(&dense_cfg, &seeds).metrics
        });
        let sparse = parity_runs.run_par_threads(1, move |seeds| {
            camnet::run_des_camnet(&sparse_cfg, &seeds).metrics
        });
        if dense != sparse {
            failures.push("camnet: dense and sparse drives disagree at reduced scale".into());
        }
        let full_cfg = f12_camnet_cfg(&scales, true, simkernel::DriveMode::Sparse);
        let t1 = parity_runs.run_par_threads(1, {
            let cfg = full_cfg.clone();
            move |seeds| f12_camnet_scenario(&cfg, &seeds)
        });
        let t4 =
            parity_runs.run_par_threads(4, move |seeds| f12_camnet_scenario(&full_cfg, &seeds));
        if t1 != t4 {
            failures
                .push("camnet: sparse full-scale aggregates differ between 1 and 4 workers".into());
        }
        progress("f12/camnet: parity checks done");
    }
    {
        let dense_cfg = f12_cloud_cfg(&scales, false, simkernel::DriveMode::Dense);
        let sparse_cfg = f12_cloud_cfg(&scales, false, simkernel::DriveMode::Sparse);
        let dense = parity_runs.run_par_threads(1, move |seeds| {
            cloudsim::run_des_cloud(&dense_cfg, &seeds).metrics
        });
        let sparse = parity_runs.run_par_threads(1, move |seeds| {
            cloudsim::run_des_cloud(&sparse_cfg, &seeds).metrics
        });
        if dense != sparse {
            failures.push("cloud: dense and sparse drives disagree at reduced scale".into());
        }
        let full_cfg = f12_cloud_cfg(&scales, true, simkernel::DriveMode::Sparse);
        let t1 = parity_runs.run_par_threads(1, {
            let cfg = full_cfg.clone();
            move |seeds| f12_cloud_scenario(&cfg, &seeds)
        });
        let t4 = parity_runs.run_par_threads(4, move |seeds| f12_cloud_scenario(&full_cfg, &seeds));
        if t1 != t4 {
            failures
                .push("cloud: sparse full-scale aggregates differ between 1 and 4 workers".into());
        }
        progress("f12/cloud: parity checks done");
    }

    let measured = f12_measured_arms(smoke, &mut progress);
    let measurements: Vec<DesMeasurement> = measured.iter().map(|(m, _)| m.clone()).collect();
    let speedups = f12_speedups(&measurements);

    // Run trace: the six measurement arms' metric aggregates.
    let labels: Vec<String> = measurements
        .iter()
        .map(|m| format!("{}:{}", m.substrate, m.arm))
        .collect();
    let reports: Vec<RunReport> = measured.into_iter().map(|(_, r)| r).collect();
    RunTrace {
        experiment: "f12",
        seed: F12_SEED,
        replicates: 1,
        steps: scales.cam_steps_full.max(scales.cloud_steps_full),
        config: &format!(
            "f12 smoke={smoke} camnet side {}/{} objects {} cloud nodes {}/{} rate {}",
            scales.cam_side_reduced,
            scales.cam_side_full,
            scales.cam_objects,
            scales.cloud_nodes_reduced,
            scales.cloud_nodes_full,
            scales.cloud_rate
        ),
        arms: &labels,
        reports: &reports,
    }
    .export();

    let mut table = Table::new(
        format!(
            "F12: discrete-event substrate scale ({} mode, 1 rep, 1 worker)",
            if smoke { "smoke" } else { "full" }
        ),
        &[
            "arm",
            "entities",
            "ticks",
            "entity-ticks",
            "visits",
            "wall s",
            "ns/entity-tick",
        ],
    );
    for m in &measurements {
        table.row_owned(vec![
            format!("{}:{}", m.substrate, m.arm),
            m.entities.to_string(),
            m.steps.to_string(),
            m.potential_entity_ticks.to_string(),
            format!("{:.0}", m.visits),
            format!("{:.3}", m.wall_secs),
            format!("{:.1}", m.ns_per_entity_tick),
        ]);
    }

    if !smoke {
        let cam_full = measurements
            .iter()
            .find(|m| m.substrate == "camnet" && m.arm == "sparse@full");
        if let Some(m) = cam_full {
            if m.entities < F12_MIN_CAMERAS {
                failures.push(format!(
                    "camnet full scale is {} cameras, below the {F12_MIN_CAMERAS} floor",
                    m.entities
                ));
            }
        }
        let cloud_full = measurements
            .iter()
            .find(|m| m.substrate == "cloud" && m.arm == "sparse@full");
        if let Some(m) = cloud_full {
            if m.requests < F12_MIN_REQUESTS {
                failures.push(format!(
                    "cloud full scale arrived {:.0} requests, below the {F12_MIN_REQUESTS:.0} floor",
                    m.requests
                ));
            }
        }
        for (substrate, speedup) in &speedups {
            if *speedup < F12_MIN_SPEEDUP {
                failures.push(format!(
                    "{substrate}: sparse@full is only {speedup:.1}× dense@reduced per entity-tick (gate {F12_MIN_SPEEDUP}×)"
                ));
            }
        }
    }

    F12Report {
        table,
        speedups,
        failures,
    }
}

#[cfg(test)]
mod f12_tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_non_timing_gate() {
        // Smoke mode skips the wall-clock gates but keeps every
        // bit-identity check; any parity failure surfaces here.
        let report = run_f12(true, |_| ());
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.speedups.len(), 2);
    }

    #[test]
    fn measurements_cover_both_substrates_and_all_arms() {
        let ms: Vec<DesMeasurement> = f12_measured_arms(true, &mut |_| ())
            .into_iter()
            .map(|(m, _)| m)
            .collect();
        assert_eq!(ms.len(), 6);
        for substrate in ["camnet", "cloud"] {
            for arm in ["dense@reduced", "sparse@reduced", "sparse@full"] {
                assert!(
                    ms.iter().any(|m| m.substrate == substrate && m.arm == arm),
                    "missing {substrate}:{arm}"
                );
            }
        }
        // The point of sparse activation: at the full (larger) scale
        // the visit count stays tied to activity, far below the
        // dense-equivalent entity-tick count.
        let sparse_full = ms
            .iter()
            .find(|m| m.substrate == "cloud" && m.arm == "sparse@full")
            .expect("cloud sparse@full");
        assert!(
            sparse_full.visits < sparse_full.potential_entity_ticks as f64 / 10.0,
            "visits {} vs potential {}",
            sparse_full.visits,
            sparse_full.potential_entity_ticks
        );
    }
}
