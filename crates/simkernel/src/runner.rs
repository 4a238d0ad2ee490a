//! Replication runner: fan a scenario out over independently seeded
//! replicates and aggregate the resulting metrics.
//!
//! Every experiment in EXPERIMENTS.md reports means (± 95% CI) over R
//! replications. A scenario is any `Fn(SeedTree) -> MetricSet`; the
//! runner derives per-replicate seed subtrees so replicate *k* is
//! identical across strategies (common random numbers, which sharpens
//! the comparisons the paper's hypothesis calls for).

use crate::obs::{self, Json, PhaseProfile, ReplicateObs};
use crate::parallel::{panic_message, par_map_index, worker_count};
use crate::rng::SeedTree;
use crate::stats::OnlineStats;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::time::Instant;

/// Metric name: `&'static str` in the common literal-key case (no
/// allocation on the per-tick hot path), owned `String` when built at
/// run time.
pub type MetricKey = Cow<'static, str>;

/// A named bag of scalar results produced by one simulation run.
///
/// Backed by a `BTreeMap` so iteration (and thus printed output) is
/// deterministically ordered.
///
/// # Example
///
/// ```
/// use simkernel::MetricSet;
/// let mut m = MetricSet::new();
/// m.set("utility", 0.8);
/// m.add("violations", 1.0);
/// m.add("violations", 2.0);
/// assert_eq!(m.get("utility"), Some(0.8));
/// assert_eq!(m.get("violations"), Some(3.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    values: BTreeMap<MetricKey, f64>,
}

impl MetricSet {
    /// Creates an empty metric set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets metric `name` to `value`, replacing any previous value.
    ///
    /// `&'static str` keys (the normal case) are stored without
    /// allocating; pass a `String` for run-time-built names.
    pub fn set(&mut self, name: impl Into<MetricKey>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Adds `delta` to metric `name` (starting from 0 if absent).
    ///
    /// Like [`MetricSet::set`], `&'static str` keys do not allocate —
    /// this is called inside per-tick simulation loops.
    pub fn add(&mut self, name: impl Into<MetricKey>, delta: f64) {
        *self.values.entry(name.into()).or_insert(0.0) += delta;
    }

    /// Reads metric `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Number of metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no metrics have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl FromIterator<(String, f64)> for MetricSet {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        Self {
            values: iter
                .into_iter()
                .map(|(k, v)| (MetricKey::from(k), v))
                .collect(),
        }
    }
}

/// Aggregated per-metric statistics over replications.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    stats: BTreeMap<MetricKey, OnlineStats>,
}

impl Aggregate {
    /// Folds one replicate's metrics into the aggregate.
    ///
    /// Allocates only when a metric name is seen for the first time
    /// *and* was built at run time; literal-keyed metrics are
    /// absorbed with zero allocation.
    pub fn absorb(&mut self, metrics: &MetricSet) {
        for (name, value) in &metrics.values {
            match self.stats.get_mut(name.as_ref()) {
                Some(stats) => stats.push(*value),
                None => {
                    // Cloning a `Cow::Borrowed` key is a pointer copy.
                    let mut stats = OnlineStats::new();
                    stats.push(*value);
                    self.stats.insert(name.clone(), stats);
                }
            }
        }
    }

    /// Mean of metric `name` across replicates (0 if absent).
    #[must_use]
    pub fn mean(&self, name: &str) -> f64 {
        self.stats.get(name).map_or(0.0, OnlineStats::mean)
    }

    /// 95% CI half-width of metric `name` (0 if absent).
    #[must_use]
    pub fn ci95(&self, name: &str) -> f64 {
        self.stats
            .get(name)
            .map_or(0.0, OnlineStats::ci95_halfwidth)
    }

    /// Full stats for metric `name`, if recorded.
    #[must_use]
    pub fn stats(&self, name: &str) -> Option<&OnlineStats> {
        self.stats.get(name)
    }

    /// Iterates `(name, stats)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &OnlineStats)> {
        self.stats.iter().map(|(k, v)| (k.as_ref(), v))
    }
}

/// A replicate whose panic survived the one-shot retry: the typed
/// error surfaced by the panic-isolated runners instead of a dead
/// worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicateError {
    /// Replicate index.
    pub replicate: u32,
    /// Panic message of the original attempt.
    pub panic: String,
    /// Panic message of the fresh-seed retry.
    pub retry_panic: String,
}

/// Result of a panic-isolated replication run: the aggregate over the
/// replicates that completed, plus an explicit account of the ones
/// that did not.
///
/// Dereferences to [`Aggregate`], so `report.mean("x")` keeps working
/// at existing call sites; [`RunReport::excluded`] says how many
/// replicates the aggregate does *not* include.
///
/// When observability is on (see [`crate::obs`]) the report also
/// carries per-replicate structured [`RunReport::records`] and a
/// merged phase-timing [`RunReport::profile`]; every guarded run
/// additionally measures [`RunReport::wall_secs`]. Equality
/// deliberately **excludes the timing fields** (`profile`,
/// `wall_secs`): they are wall-clock measurements, never bit-stable
/// across runs, while everything else is part of the deterministic
/// parity contract. Emitted `records` *are* compared — they are pure
/// functions of the seeds whenever observability state is the same on
/// both sides.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    aggregate: Aggregate,
    completed: u32,
    recovered: Vec<u32>,
    errors: Vec<ReplicateError>,
    records: Vec<Vec<Json>>,
    profile: PhaseProfile,
    wall_secs: f64,
}

impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.aggregate == other.aggregate
            && self.completed == other.completed
            && self.recovered == other.recovered
            && self.errors == other.errors
            && self.records == other.records
    }
}

impl RunReport {
    /// The aggregate over all completed replicates (including
    /// retried-and-recovered ones).
    #[must_use]
    pub fn aggregate(&self) -> &Aggregate {
        &self.aggregate
    }

    /// Number of replicates whose metrics the aggregate includes.
    #[must_use]
    pub fn completed(&self) -> u32 {
        self.completed
    }

    /// Replicates that panicked once but completed on the fresh-seed
    /// retry branch (their retried metrics are in the aggregate).
    #[must_use]
    pub fn recovered(&self) -> &[u32] {
        &self.recovered
    }

    /// Replicates excluded from the aggregate, with both panic
    /// messages each.
    #[must_use]
    pub fn errors(&self) -> &[ReplicateError] {
        &self.errors
    }

    /// Explicit excluded-replicate count (`errors().len()`).
    #[must_use]
    pub fn excluded(&self) -> u32 {
        self.errors.len() as u32
    }

    /// Per-replicate structured records emitted via
    /// [`crate::obs::emit`], indexed by replicate (empty `Vec` for a
    /// replicate that emitted nothing or failed; all empty when
    /// observability is off).
    #[must_use]
    pub fn records(&self) -> &[Vec<Json>] {
        &self.records
    }

    /// Phase-timing profile merged over all completed replicates
    /// (empty when observability is off). Measurement only — never
    /// part of report equality.
    #[must_use]
    pub fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Wall-clock seconds of the engine call that produced this
    /// report (for a matrix run: the whole matrix, since cells from
    /// all arms share one work queue). Always measured; never part of
    /// report equality.
    #[must_use]
    pub fn wall_secs(&self) -> f64 {
        self.wall_secs
    }
}

impl Deref for RunReport {
    type Target = Aggregate;

    fn deref(&self) -> &Aggregate {
        &self.aggregate
    }
}

/// How one guarded replicate cell ended.
enum CellOutcome {
    Done(MetricSet),
    Recovered(MetricSet),
    Failed { panic: String, retry_panic: String },
}

/// One guarded replicate's outcome plus whatever it observed
/// (observations are empty when observability is off or the cell
/// failed — a failed attempt's partial spans/records are discarded so
/// traces only describe completed replicates).
struct Cell {
    outcome: CellOutcome,
    obs: ReplicateObs,
}

/// Runs `attempt` under `catch_unwind`, mapping a panic to its
/// message.
fn catch_metrics<G: FnOnce() -> MetricSet>(attempt: G) -> Result<MetricSet, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt)).map_err(|p| panic_message(&*p))
}

/// Folds per-replicate cells (in replicate order) into a report.
fn report_from(cells: impl IntoIterator<Item = Cell>) -> RunReport {
    let mut report = RunReport::default();
    for (k, cell) in cells.into_iter().enumerate() {
        report.profile.merge(&cell.obs.profile);
        report.records.push(cell.obs.records);
        match cell.outcome {
            CellOutcome::Done(m) => {
                report.aggregate.absorb(&m);
                report.completed += 1;
            }
            CellOutcome::Recovered(m) => {
                report.aggregate.absorb(&m);
                report.completed += 1;
                report.recovered.push(k as u32);
            }
            CellOutcome::Failed { panic, retry_panic } => {
                report.errors.push(ReplicateError {
                    replicate: k as u32,
                    panic,
                    retry_panic,
                });
            }
        }
    }
    report
}

/// Stamps a report (or several) with the wall clock of producing it.
fn timed<T>(f: impl FnOnce() -> T, stamp: impl FnOnce(&mut T, f64)) -> T {
    let t0 = Instant::now();
    let mut out = f();
    stamp(&mut out, t0.elapsed().as_secs_f64());
    out
}

/// Runs a scenario over R common-random-number replicates.
///
/// # Example
///
/// ```
/// use simkernel::{Replications, MetricSet};
/// use rand::Rng;
///
/// let agg = Replications::new(42, 8).run(|seeds| {
///     let mut rng = seeds.rng("noise");
///     let mut m = MetricSet::new();
///     m.set("x", rng.gen_range(0.0..1.0));
///     m
/// });
/// assert!(agg.mean("x") > 0.0 && agg.mean("x") < 1.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Replications {
    base_seed: u64,
    count: u32,
}

impl Replications {
    /// Configures `count` replicates rooted at `base_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn new(base_seed: u64, count: u32) -> Self {
        assert!(count > 0, "at least one replication required");
        Self { base_seed, count }
    }

    /// Number of replicates.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Seed subtree for replicate `k` — stable across strategies so
    /// that strategy comparisons share random numbers.
    #[must_use]
    pub fn seeds_for(&self, k: u32) -> SeedTree {
        SeedTree::new(self.base_seed).child_idx(u64::from(k))
    }

    /// Seed subtree for the one-shot retry of replicate `k`: a fresh
    /// branch (labelled, so it perturbs no existing stream) in case
    /// the panic was provoked by that replicate's particular draws.
    /// Index-derived like [`Replications::seeds_for`], so retries are
    /// just as deterministic and order-independent as first attempts.
    #[must_use]
    pub fn retry_seeds_for(&self, k: u32) -> SeedTree {
        SeedTree::new(self.base_seed)
            .child("retry")
            .child_idx(u64::from(k))
    }

    /// Runs a guarded replicate: attempt, retry once on a fresh seed
    /// branch, surface both panic messages if the retry dies too.
    /// Each attempt observes into its own sink (see
    /// [`crate::obs::with_sink`]); only a *completed* attempt's
    /// observations survive, so the trace never mixes spans from a
    /// panicked attempt with its retry's.
    fn guarded_cell(&self, k: u32, run: &dyn Fn(SeedTree) -> MetricSet) -> Cell {
        let (first, obs) = obs::with_sink(|| catch_metrics(|| run(self.seeds_for(k))));
        match first {
            Ok(m) => Cell {
                outcome: CellOutcome::Done(m),
                obs,
            },
            Err(panic) => {
                let (retry, obs) =
                    obs::with_sink(|| catch_metrics(|| run(self.retry_seeds_for(k))));
                match retry {
                    Ok(m) => Cell {
                        outcome: CellOutcome::Recovered(m),
                        obs,
                    },
                    Err(retry_panic) => Cell {
                        outcome: CellOutcome::Failed { panic, retry_panic },
                        obs: ReplicateObs::default(),
                    },
                }
            }
        }
    }

    /// Runs `scenario` once per replicate and aggregates metrics.
    ///
    /// This is the unguarded sequential reference: a panic in
    /// `scenario` propagates. For panic isolation use
    /// [`Replications::run_try`] (sequential) or the parallel runners,
    /// which all quarantine poisoned replicates.
    pub fn run<F>(&self, mut scenario: F) -> Aggregate
    where
        F: FnMut(SeedTree) -> MetricSet,
    {
        let mut agg = Aggregate::default();
        for k in 0..self.count {
            let metrics = scenario(self.seeds_for(k));
            agg.absorb(&metrics);
        }
        agg
    }

    /// Sequential panic-isolated run: each replicate is guarded by
    /// `catch_unwind`, retried once on a fresh seed branch, and
    /// otherwise reported as a typed [`ReplicateError`] — the exact
    /// semantics of [`Replications::run_par`] at one worker, so the
    /// two are comparable with `==` in parity tests.
    pub fn run_try<F>(&self, scenario: F) -> RunReport
    where
        F: Fn(SeedTree) -> MetricSet,
    {
        timed(
            || report_from((0..self.count).map(|k| self.guarded_cell(k, &scenario))),
            |r, secs| r.wall_secs = secs,
        )
    }

    /// Runs `scenario` once per replicate **in parallel** and
    /// aggregates metrics, isolating panics per replicate.
    ///
    /// Bit-identical to [`Replications::run`] on the completed
    /// replicates: each replicate's randomness comes from its
    /// index-derived seed subtree (never from execution order), and
    /// finished metric sets are absorbed into the [`Aggregate`] in
    /// replicate order regardless of which worker produced them
    /// first. A panicking replicate is retried once on a fresh seed
    /// branch and otherwise quarantined as a [`ReplicateError`] —
    /// the pool and the other replicates always complete. The worker
    /// pool sizes itself from `available_parallelism`, overridable
    /// with the `SAS_THREADS` environment variable.
    ///
    /// # Example
    ///
    /// ```
    /// use simkernel::{Replications, MetricSet};
    /// use rand::Rng;
    ///
    /// let scenario = |seeds: simkernel::SeedTree| {
    ///     let mut rng = seeds.rng("noise");
    ///     let mut m = MetricSet::new();
    ///     m.set("x", rng.gen_range(0.0..1.0));
    ///     m
    /// };
    /// let reps = Replications::new(42, 8);
    /// let report = reps.run_par(&scenario);
    /// assert_eq!(report.aggregate(), &reps.run(scenario));
    /// assert_eq!(report.completed(), 8);
    /// assert_eq!(report.excluded(), 0);
    /// ```
    pub fn run_par<F>(&self, scenario: F) -> RunReport
    where
        F: Fn(SeedTree) -> MetricSet + Sync,
    {
        self.run_par_threads(worker_count(self.count as usize), scenario)
    }

    /// [`Replications::run_par`] with an explicit worker count
    /// (used by the determinism-parity tests to pin thread counts
    /// without touching process environment).
    pub fn run_par_threads<F>(&self, threads: usize, scenario: F) -> RunReport
    where
        F: Fn(SeedTree) -> MetricSet + Sync,
    {
        timed(
            || {
                let n = self.count as usize;
                let cells = par_map_index(n, threads, |k| self.guarded_cell(k as u32, &scenario));
                report_from(cells)
            },
            |r, secs| r.wall_secs = secs,
        )
    }

    /// Runs `scenario` once per replicate sequentially and returns the
    /// raw per-replicate values in replicate order.
    ///
    /// This is the paired common-random-number hook for counterfactual
    /// replay: replicate `k` always runs on
    /// [`Replications::seeds_for`]`(k)`, so two `collect` calls with
    /// different scenario closures (factual vs intervention-masked)
    /// yield positionally paired samples whose per-index differences
    /// isolate the intervention's effect from sampling noise.
    pub fn collect<T, F>(&self, mut scenario: F) -> Vec<T>
    where
        F: FnMut(SeedTree) -> T,
    {
        (0..self.count)
            .map(|k| scenario(self.seeds_for(k)))
            .collect()
    }

    /// Fans a whole *strategy × replicate* matrix out over the worker
    /// pool and returns one [`RunReport`] per arm, in arm order.
    ///
    /// This is the experiment-harness workhorse: comparing controller
    /// variants under common random numbers is embarrassingly
    /// parallel at the cell level, so all `arms.len() × count()`
    /// cells feed one dynamic work queue (no idle cores while a slow
    /// arm finishes). Per-arm aggregates absorb cells in replicate
    /// order, so each arm's result is bit-identical to
    /// `Replications::run` on that arm alone; a panicking cell is
    /// retried once and otherwise quarantined in its arm's report
    /// without disturbing any other cell.
    pub fn run_matrix<S, F>(&self, arms: &[S], scenario: F) -> Vec<RunReport>
    where
        S: Sync,
        F: Fn(&S, SeedTree) -> MetricSet + Sync,
    {
        let cells = arms.len() * self.count as usize;
        self.run_matrix_threads(worker_count(cells), arms, scenario)
    }

    /// [`Replications::run_matrix`] with an explicit worker count.
    pub fn run_matrix_threads<S, F>(
        &self,
        threads: usize,
        arms: &[S],
        scenario: F,
    ) -> Vec<RunReport>
    where
        S: Sync,
        F: Fn(&S, SeedTree) -> MetricSet + Sync,
    {
        let reps = self.count as usize;
        let cells = arms.len() * reps;
        timed(
            || {
                let outcomes = par_map_index(cells, threads, |cell| {
                    let (arm, k) = (cell / reps, cell % reps);
                    self.guarded_cell(k as u32, &|seeds| scenario(&arms[arm], seeds))
                });
                let mut arm_outcomes: Vec<Vec<Cell>> = Vec::with_capacity(arms.len());
                let mut it = outcomes.into_iter();
                for _ in 0..arms.len() {
                    arm_outcomes.push(it.by_ref().take(reps).collect());
                }
                arm_outcomes.into_iter().map(report_from).collect()
            },
            |reports: &mut Vec<RunReport>, secs| {
                // Cells from every arm share one work queue, so the
                // only meaningful wall clock is the whole matrix's.
                for r in reports {
                    r.wall_secs = secs;
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn metricset_set_add_get() {
        let mut m = MetricSet::new();
        assert!(m.is_empty());
        m.set("a", 1.0);
        m.add("a", 2.0);
        m.add("b", 5.0);
        assert_eq!(m.get("a"), Some(3.0));
        assert_eq!(m.get("b"), Some(5.0));
        assert_eq!(m.get("c"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn metricset_iterates_in_name_order() {
        let mut m = MetricSet::new();
        m.set("z", 1.0);
        m.set("a", 2.0);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
    }

    #[test]
    fn aggregate_means() {
        let mut agg = Aggregate::default();
        for v in [1.0, 2.0, 3.0] {
            let mut m = MetricSet::new();
            m.set("x", v);
            agg.absorb(&m);
        }
        assert!((agg.mean("x") - 2.0).abs() < 1e-12);
        assert_eq!(agg.stats("x").unwrap().count(), 3);
        assert_eq!(agg.mean("missing"), 0.0);
    }

    #[test]
    fn replicates_have_distinct_but_reproducible_seeds() {
        let r = Replications::new(7, 4);
        assert_ne!(r.seeds_for(0).raw(), r.seeds_for(1).raw());
        assert_eq!(
            r.seeds_for(2).raw(),
            Replications::new(7, 4).seeds_for(2).raw()
        );
    }

    #[test]
    fn run_is_deterministic() {
        let scenario = |seeds: SeedTree| {
            let mut rng = seeds.rng("s");
            let mut m = MetricSet::new();
            m.set("v", rng.gen::<f64>());
            m
        };
        let a = Replications::new(1, 10).run(scenario).mean("v");
        let b = Replications::new(1, 10).run(scenario).mean("v");
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        let _ = Replications::new(1, 0);
    }

    #[test]
    fn run_par_is_bit_identical_to_run() {
        let scenario = |seeds: SeedTree| {
            let mut rng = seeds.rng("s");
            let mut m = MetricSet::new();
            m.set("v", rng.gen::<f64>());
            m.add("w", rng.gen::<f64>() - 0.5);
            m
        };
        let reps = Replications::new(0xC0FFEE, 17);
        let sequential = reps.run(scenario);
        for threads in [1, 2, 4, 16] {
            let parallel = reps.run_par_threads(threads, scenario);
            assert_eq!(parallel.aggregate(), &sequential, "threads={threads}");
            assert_eq!(parallel.completed(), 17);
            assert_eq!(parallel.excluded(), 0);
        }
        assert_eq!(reps.run_par(scenario).aggregate(), &sequential);
    }

    #[test]
    fn run_matrix_matches_per_arm_run() {
        let arms = [1.0_f64, 2.0, 3.0];
        let scenario = |scale: &f64, seeds: SeedTree| {
            let mut rng = seeds.rng("s");
            let mut m = MetricSet::new();
            m.set("v", scale * rng.gen::<f64>());
            m
        };
        let reps = Replications::new(0xBEEF, 9);
        let matrix = reps.run_matrix(&arms, scenario);
        assert_eq!(matrix.len(), arms.len());
        for (arm, report) in arms.iter().zip(&matrix) {
            let solo = reps.run(|seeds| scenario(arm, seeds));
            assert_eq!(report.aggregate(), &solo);
            assert_eq!(report.completed(), 9);
        }
    }

    #[test]
    fn run_matrix_with_empty_arms() {
        let reps = Replications::new(1, 4);
        let out = reps.run_matrix(&[] as &[u8], |_, _| MetricSet::new());
        assert!(out.is_empty());
    }

    #[test]
    fn literal_and_owned_keys_are_equivalent() {
        // Behavioural proxy for the no-alloc guarantee: borrowed keys
        // survive round trips and compare equal to owned ones.
        let mut a = MetricSet::new();
        a.set("x", 1.0);
        let mut b = MetricSet::new();
        b.set(String::from("x"), 1.0);
        assert_eq!(a, b);
        let mut agg = Aggregate::default();
        agg.absorb(&a);
        agg.absorb(&b);
        assert_eq!(agg.stats("x").unwrap().count(), 2);
    }

    /// A scenario that panics on replicate seeds listed in `poison`
    /// (matched by raw seed value, since scenarios only see seeds).
    fn poisoned_scenario(poison: Vec<u64>) -> impl Fn(SeedTree) -> MetricSet + Sync {
        move |seeds: SeedTree| {
            assert!(
                !poison.contains(&seeds.raw()),
                "poisoned replicate {:#x}",
                seeds.raw()
            );
            let mut rng = seeds.rng("s");
            let mut m = MetricSet::new();
            m.set("v", rng.gen::<f64>());
            m
        }
    }

    #[test]
    fn retry_seeds_differ_from_primary_and_are_stable() {
        let r = Replications::new(5, 4);
        for k in 0..4 {
            assert_ne!(r.seeds_for(k).raw(), r.retry_seeds_for(k).raw());
            assert_eq!(
                r.retry_seeds_for(k).raw(),
                Replications::new(5, 4).retry_seeds_for(k).raw()
            );
        }
    }

    #[test]
    fn poisoned_replicate_recovers_on_retry_branch() {
        let reps = Replications::new(0xDEAD, 8);
        // Poison only the primary attempt of replicate 3: the retry
        // branch runs clean and its metrics join the aggregate.
        let scenario = poisoned_scenario(vec![reps.seeds_for(3).raw()]);
        for threads in [1, 2, 4, 16] {
            let report = reps.run_par_threads(threads, &scenario);
            assert_eq!(report.completed(), 8, "threads={threads}");
            assert_eq!(report.recovered(), &[3], "threads={threads}");
            assert_eq!(report.excluded(), 0);
            assert_eq!(report.stats("v").map(|s| s.count()), Some(8));
        }
    }

    #[test]
    fn doubly_poisoned_replicate_is_quarantined_not_fatal() {
        let reps = Replications::new(0xDEAD, 8);
        // Poison both the primary and the retry branch of replicate 3.
        let scenario =
            poisoned_scenario(vec![reps.seeds_for(3).raw(), reps.retry_seeds_for(3).raw()]);
        // Reference aggregate over the 7 survivors only.
        let mut survivors = Aggregate::default();
        for k in 0..8 {
            if k != 3 {
                survivors.absorb(&poisoned_scenario(vec![])(reps.seeds_for(k)));
            }
        }
        for threads in [1, 2, 4, 16] {
            let report = reps.run_par_threads(threads, &scenario);
            assert_eq!(report.completed(), 7, "threads={threads}");
            assert_eq!(report.excluded(), 1);
            assert_eq!(report.errors().len(), 1);
            let err = &report.errors()[0];
            assert_eq!(err.replicate, 3);
            assert!(err.panic.contains("poisoned replicate"), "{err:?}");
            assert!(err.retry_panic.contains("poisoned replicate"));
            assert_eq!(
                report.aggregate(),
                &survivors,
                "survivor aggregate must be bit-identical, threads={threads}"
            );
        }
        // Sequential guarded run agrees exactly with the parallel one.
        assert_eq!(reps.run_try(&scenario), reps.run_par_threads(4, &scenario));
    }

    #[test]
    fn run_matrix_quarantines_per_arm() {
        let reps = Replications::new(0xF00D, 6);
        let arms = ["clean", "poisoned"];
        let poison_primary = reps.seeds_for(2).raw();
        let poison_retry = reps.retry_seeds_for(2).raw();
        let scenario = move |arm: &&str, seeds: SeedTree| {
            if *arm == "poisoned" {
                assert!(
                    seeds.raw() != poison_primary && seeds.raw() != poison_retry,
                    "poisoned cell"
                );
            }
            let mut rng = seeds.rng("s");
            let mut m = MetricSet::new();
            m.set("v", rng.gen::<f64>());
            m
        };
        for threads in [1, 3, 8] {
            let matrix = reps.run_matrix_threads(threads, &arms, scenario);
            assert_eq!(matrix[0].completed(), 6, "clean arm untouched");
            assert_eq!(matrix[0].excluded(), 0);
            assert_eq!(matrix[1].completed(), 5, "threads={threads}");
            assert_eq!(matrix[1].excluded(), 1);
            assert_eq!(matrix[1].errors()[0].replicate, 2);
            // Both arms share seeds: the poisoned arm's survivors saw
            // the same draws as the clean arm's matching replicates.
            assert_eq!(matrix[0].stats("v").map(|s| s.count()), Some(6));
            assert_eq!(matrix[1].stats("v").map(|s| s.count()), Some(5));
        }
    }

    /// Scenario that emits one record and opens one span per
    /// replicate — results depend only on the seeds, never on obs.
    fn observing_scenario(seeds: SeedTree) -> MetricSet {
        let _tick = crate::obs::span("test:phase");
        let mut rng = seeds.rng("s");
        let mut m = MetricSet::new();
        let v = rng.gen::<f64>();
        m.set("v", v);
        crate::obs::emit(Json::obj([("v", Json::from(v))]));
        m
    }

    #[test]
    fn report_collects_records_and_profile_when_enabled() {
        let _guard = crate::obs::override_lock();
        crate::obs::set_override(Some(true));
        let reps = Replications::new(0x0B5, 5);
        let report = reps.run_par_threads(3, observing_scenario);
        crate::obs::set_override(None);
        assert_eq!(report.records().len(), 5);
        for (k, records) in report.records().iter().enumerate() {
            assert_eq!(records.len(), 1, "replicate {k} emitted one record");
            assert!(records[0].get("v").is_some());
        }
        let phase = report
            .profile()
            .phase("test:phase")
            .expect("spans recorded");
        assert_eq!(phase.stats.count(), 5);
        assert!(report.wall_secs() > 0.0);
    }

    #[test]
    fn report_records_empty_when_disabled() {
        let _guard = crate::obs::override_lock();
        crate::obs::set_override(Some(false));
        let reps = Replications::new(0x0B5, 4);
        let report = reps.run_par_threads(2, observing_scenario);
        crate::obs::set_override(None);
        assert_eq!(report.records().len(), 4);
        assert!(report.records().iter().all(Vec::is_empty));
        assert!(report.profile().is_empty());
        // Wall clock is still measured: it is cheap and feeds nothing.
        assert!(report.wall_secs() > 0.0);
    }

    #[test]
    fn obs_toggle_never_changes_results_and_timing_is_excluded_from_eq() {
        let _guard = crate::obs::override_lock();
        let reps = Replications::new(0x0B5E, 6);
        crate::obs::set_override(Some(false));
        let off = reps.run_par_threads(4, observing_scenario);
        crate::obs::set_override(Some(true));
        let on_seq = reps.run_try(observing_scenario);
        let on_par = reps.run_par_threads(4, observing_scenario);
        crate::obs::set_override(None);
        // Simulation outputs are bit-identical with obs on or off…
        assert_eq!(off.aggregate(), on_seq.aggregate());
        // …and full reports (incl. emitted records) are identical
        // across thread counts, despite different wall clocks.
        assert_eq!(on_seq, on_par);
        assert_ne!(on_seq.wall_secs(), 0.0);
    }

    #[test]
    fn failed_attempt_observations_are_discarded() {
        let _guard = crate::obs::override_lock();
        crate::obs::set_override(Some(true));
        let reps = Replications::new(0xDEAD, 4);
        let poison = reps.seeds_for(2).raw();
        let scenario = move |seeds: SeedTree| {
            crate::obs::emit(Json::str("attempt"));
            assert!(seeds.raw() != poison, "poisoned replicate");
            observing_scenario(seeds)
        };
        let report = reps.run_par_threads(2, scenario);
        crate::obs::set_override(None);
        assert_eq!(report.recovered(), &[2]);
        // The recovered replicate's records come from the retry only:
        // one "attempt" marker plus one observing_scenario record.
        assert_eq!(report.records()[2].len(), 2);
        assert_eq!(report.records()[0].len(), 2);
    }

    #[test]
    fn common_random_numbers_across_strategies() {
        // Two "strategies" that consume the same stream should see the
        // same draws per replicate.
        let draws = |seeds: SeedTree| seeds.rng("env").gen::<u64>();
        let r = Replications::new(99, 3);
        for k in 0..3 {
            assert_eq!(draws(r.seeds_for(k)), draws(r.seeds_for(k)));
        }
    }
}
