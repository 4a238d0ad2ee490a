//! Time-varying demand intensities and arrival sampling.

use rand::Rng as _;
use simkernel::rng::Rng;
use simkernel::Tick;

/// A deterministic-in-expectation demand intensity over time.
///
/// Implementations give the *expected* arrivals per tick; actual
/// arrivals are sampled by [`PoissonArrivals`].
pub trait RateFn {
    /// Expected arrivals per tick at time `t`.
    fn rate(&mut self, t: Tick) -> f64;
}

/// Constant rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantRate(pub f64);

impl RateFn for ConstantRate {
    fn rate(&mut self, _t: Tick) -> f64 {
        self.0
    }
}

/// Diurnal (sinusoidal) rate: `base + amplitude · sin(2π t / period)`,
/// floored at zero. The staple "daily cycle" cloud workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalRate {
    /// Mean rate.
    pub base: f64,
    /// Swing around the mean.
    pub amplitude: f64,
    /// Cycle length in ticks.
    pub period: f64,
}

impl DiurnalRate {
    /// Creates a diurnal rate.
    ///
    /// # Panics
    ///
    /// Panics if `base < 0` or `period <= 0`.
    #[must_use]
    pub fn new(base: f64, amplitude: f64, period: f64) -> Self {
        assert!(base >= 0.0, "base rate must be non-negative");
        assert!(period > 0.0, "period must be positive");
        Self {
            base,
            amplitude,
            period,
        }
    }
}

impl RateFn for DiurnalRate {
    fn rate(&mut self, t: Tick) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t.as_f64() / self.period;
        (self.base + self.amplitude * phase.sin()).max(0.0)
    }
}

/// Markov-modulated rate: jumps between `levels` with switch
/// probability `p_switch` per tick. Produces the bursty, regime-y
/// demand the self-aware strategies must chase.
#[derive(Debug, Clone, PartialEq)]
pub struct MmppRate {
    levels: Vec<f64>,
    p_switch: f64,
    current: usize,
    rng: Rng,
    last_t: Option<Tick>,
}

impl MmppRate {
    /// Creates a Markov-modulated rate.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, any level is negative, or
    /// `p_switch ∉ [0, 1]`.
    #[must_use]
    pub fn new(levels: Vec<f64>, p_switch: f64, rng: Rng) -> Self {
        assert!(!levels.is_empty(), "need at least one level");
        assert!(
            levels.iter().all(|&l| l >= 0.0),
            "levels must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&p_switch),
            "switch probability must be in [0,1]"
        );
        Self {
            levels,
            p_switch,
            current: 0,
            rng,
            last_t: None,
        }
    }
}

impl RateFn for MmppRate {
    fn rate(&mut self, t: Tick) -> f64 {
        // Advance the modulating chain once per new tick.
        if self.last_t != Some(t) {
            self.last_t = Some(t);
            if self.rng.gen::<f64>() < self.p_switch {
                self.current = self.rng.gen_range(0..self.levels.len());
            }
        }
        self.levels[self.current]
    }
}

/// Slowly drifting rate: a bounded random walk. Models the paper's
/// "ongoing change ... in response to external factors".
#[derive(Debug, Clone, PartialEq)]
pub struct DriftingRate {
    value: f64,
    step: f64,
    min: f64,
    max: f64,
    rng: Rng,
    last_t: Option<Tick>,
}

impl DriftingRate {
    /// Creates a drifting rate starting at `start`, stepping by
    /// ±`step` per tick, clamped to `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if bounds are inverted, `step < 0`, or `start` is out of
    /// bounds.
    #[must_use]
    pub fn new(start: f64, step: f64, min: f64, max: f64, rng: Rng) -> Self {
        assert!(min <= max, "min must not exceed max");
        assert!(step >= 0.0, "step must be non-negative");
        assert!((min..=max).contains(&start), "start must be within bounds");
        Self {
            value: start,
            step,
            min,
            max,
            rng,
            last_t: None,
        }
    }
}

impl RateFn for DriftingRate {
    fn rate(&mut self, t: Tick) -> f64 {
        if self.last_t != Some(t) {
            self.last_t = Some(t);
            let delta = self.rng.gen_range(-self.step..=self.step);
            self.value = (self.value + delta).clamp(self.min, self.max);
        }
        self.value
    }
}

/// Samples per-tick arrival counts from any [`RateFn`] via the Poisson
/// distribution (inverse-CDF sampling; rates here are modest).
///
/// # Example
///
/// ```
/// use workloads::rates::{ConstantRate, PoissonArrivals};
/// use simkernel::{SeedTree, Tick};
///
/// let mut arr = PoissonArrivals::new(ConstantRate(3.0), SeedTree::new(1).rng("arr"));
/// let mut total = 0u64;
/// for t in 0..1000u64 {
///     total += arr.sample(Tick(t)) as u64;
/// }
/// let mean = total as f64 / 1000.0;
/// assert!((mean - 3.0).abs() < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals<R: RateFn> {
    rate: R,
    rng: Rng,
}

impl<R: RateFn> PoissonArrivals<R> {
    /// Wraps a rate function with a Poisson sampler.
    #[must_use]
    pub fn new(rate: R, rng: Rng) -> Self {
        Self { rate, rng }
    }

    /// Expected rate at `t` (delegates to the rate function).
    pub fn expected(&mut self, t: Tick) -> f64 {
        self.rate.rate(t)
    }

    /// Samples the arrival count for tick `t`.
    pub fn sample(&mut self, t: Tick) -> u32 {
        let lambda = self.rate.rate(t);
        poisson(lambda, &mut self.rng)
    }
}

/// Samples a Poisson(λ) variate. Uses Knuth's product method for
/// λ ≤ 30 and a normal approximation above.
pub fn poisson(lambda: f64, rng: &mut Rng) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation with continuity correction.
        let z: f64 = {
            // Box–Muller from two uniforms.
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        return (lambda + lambda.sqrt() * z + 0.5).max(0.0) as u32;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // numeric guard; unreachable for sane λ
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::SeedTree;

    fn rng(label: &str) -> Rng {
        SeedTree::new(101).rng(label)
    }

    #[test]
    fn constant_rate_is_constant() {
        let mut r = ConstantRate(2.5);
        assert_eq!(r.rate(Tick(0)), 2.5);
        assert_eq!(r.rate(Tick(999)), 2.5);
    }

    #[test]
    fn diurnal_oscillates_and_floors() {
        let mut r = DiurnalRate::new(1.0, 2.0, 100.0);
        let peak = r.rate(Tick(25));
        let trough = r.rate(Tick(75));
        assert!(peak > 2.5, "peak {peak}");
        assert_eq!(trough, 0.0, "negative rates floor at zero");
        // Periodicity.
        assert!((r.rate(Tick(10)) - r.rate(Tick(110))).abs() < 1e-9);
    }

    #[test]
    fn mmpp_visits_multiple_levels() {
        let mut r = MmppRate::new(vec![1.0, 10.0, 100.0], 0.05, rng("mmpp"));
        let mut seen = std::collections::HashSet::new();
        for t in 0..2000u64 {
            seen.insert(r.rate(Tick(t)) as u64);
        }
        assert!(seen.len() >= 2, "should visit multiple regimes");
    }

    #[test]
    fn mmpp_rate_stable_within_tick() {
        let mut r = MmppRate::new(vec![1.0, 10.0], 0.9, rng("mmpp2"));
        let a = r.rate(Tick(5));
        let b = r.rate(Tick(5));
        assert_eq!(a, b, "same tick must report the same rate");
    }

    #[test]
    fn drifting_rate_respects_bounds() {
        let mut r = DriftingRate::new(5.0, 1.0, 0.0, 10.0, rng("drift"));
        for t in 0..5000u64 {
            let v = r.rate(Tick(t));
            assert!((0.0..=10.0).contains(&v));
        }
    }

    #[test]
    fn drifting_rate_actually_moves() {
        let mut r = DriftingRate::new(5.0, 0.5, 0.0, 10.0, rng("drift2"));
        let first = r.rate(Tick(0));
        let later = r.rate(Tick(500));
        // A 500-step random walk of step 0.5 almost surely moved.
        let mut moved = (first - later).abs() > 0.5;
        for t in 0..500u64 {
            moved |= (r.rate(Tick(t)) - first).abs() > 0.5;
        }
        assert!(moved);
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut r = rng("poisson");
        let lambda = 4.0;
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| f64::from(poisson(lambda, &mut r))).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
        assert!((var - lambda).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn poisson_large_lambda_normal_branch() {
        let mut r = rng("poisson-big");
        let lambda = 100.0;
        let n = 5000;
        let mean = (0..n)
            .map(|_| f64::from(poisson(lambda, &mut r)))
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = rng("poisson0");
        assert_eq!(poisson(0.0, &mut r), 0);
        assert_eq!(poisson(-1.0, &mut r), 0);
    }

    #[test]
    fn arrivals_deterministic_per_seed() {
        let sample = |seed: u64| {
            let mut a = PoissonArrivals::new(ConstantRate(5.0), SeedTree::new(seed).rng("a"));
            (0..50u64).map(|t| a.sample(Tick(t))).collect::<Vec<_>>()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn diurnal_bad_period_panics() {
        let _ = DiurnalRate::new(1.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "start must be within bounds")]
    fn drifting_bad_start_panics() {
        let _ = DriftingRate::new(20.0, 1.0, 0.0, 10.0, rng("x"));
    }
}
