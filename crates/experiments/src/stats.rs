//! Streaming statistics for experiment aggregation, plus the shared
//! per-cell overhead measurement (variance-ratio `κ̂` with propagated
//! Wilson bands) that E15 and E16 both ride.

use qpd::{estimate_allocated, Allocator, QpdSpec, TermSampler};
use rand::Rng;

/// Welford running mean/variance accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Merges another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance of a slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Wilson score confidence interval for a binomial proportion: given
/// `successes` out of `trials` and a z-score (e.g. 5.0 for a 5σ band),
/// returns `(low, high)` bounds on the true success probability.
///
/// Unlike the Wald interval, Wilson stays inside `[0, 1]` and behaves
/// sensibly at p ≈ 0 or 1 — exactly the regimes the degenerate-circuit
/// tests of the batched sampler probe.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

/// Wilson interval on ⟨Z⟩ from a **sum** of `trials` ±1 samples (the
/// output convention of the batched `sample_z` paths): maps the sum to a
/// success count, bounds the proportion, and maps back to `[-1, 1]`.
pub fn z_expectation_interval(sum: f64, trials: u64, z: f64) -> (f64, f64) {
    let plus = ((sum + trials as f64) / 2.0)
        .round()
        .clamp(0.0, trials as f64) as u64;
    let (lo, hi) = wilson_interval(plus, trials, z);
    (2.0 * lo - 1.0, 2.0 * hi - 1.0)
}

/// Root-mean-square error against a reference value.
pub fn rmse(xs: &[f64], reference: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter()
        .map(|x| (x - reference) * (x - reference))
        .sum::<f64>()
        / xs.len() as f64)
        .sqrt()
}

// ---------------------------------------------------------------------
// The shared per-cell overhead measurement (E15/E16).
// ---------------------------------------------------------------------

/// The variance-ratio overhead estimator: `κ̂ = κ·√(Var_meas /
/// Var_pred)`. Unbiased around `κ` when the sampler family is correctly
/// calibrated, so sweeps pin `κ̂` to the closed form within standard
/// errors. Falls back to `κ` when the predicted variance vanishes (a
/// deterministic cell).
pub fn variance_ratio_kappa_hat(
    kappa: f64,
    measured_variance: f64,
    predicted_variance: f64,
) -> f64 {
    if predicted_variance > 0.0 {
        kappa * (measured_variance / predicted_variance).sqrt()
    } else {
        kappa
    }
}

/// Predicted Wilson band of one proportional-allocation estimate: each
/// term's expected ±1 counts get a Wilson interval at `z`, propagated
/// through the QPD as `Σᵢ |cᵢ|·(hiᵢ − loᵢ)`.
pub fn qpd_wilson_band(spec: &QpdSpec, exact_terms: &[f64], shots: u64, z: f64) -> f64 {
    let alloc = Allocator::Proportional.allocate(spec, shots);
    spec.coefficients()
        .iter()
        .zip(exact_terms.iter())
        .zip(alloc.iter())
        .map(|((c, &e), &n)| {
            if n == 0 {
                return 0.0;
            }
            let successes = ((n as f64) * (1.0 + e) / 2.0).round() as u64;
            let (lo, hi) = wilson_interval(successes.min(n), n, z);
            c.abs() * (hi - lo)
        })
        .sum()
}

/// One grid cell's overhead measurement — everything E15/E16 report per
/// `(parameter, state)` point.
#[derive(Clone, Copy, Debug)]
pub struct OverheadMeasurement {
    /// The variance-ratio estimate `κ̂`.
    pub kappa_hat: f64,
    /// Mean `|estimate − exact|` across repetitions.
    pub mean_abs_error: f64,
    /// The propagated Wilson band ([`qpd_wilson_band`]).
    pub band_halfwidth: f64,
    /// Fraction of estimates inside the band (≈ 1 at 5σ).
    pub covered_fraction: f64,
    /// Measured estimator variance across repetitions.
    pub measured_variance: f64,
    /// Exact proportional-allocation variance at this budget.
    pub predicted_variance: f64,
}

/// Measures one cell: `repetitions` proportional-allocation estimates of
/// `exact_value` at `shots` each, reduced to the variance-ratio `κ̂`,
/// the mean absolute error, and Wilson-band coverage at `band_z`.
///
/// `exact_terms` are the exact per-term expectations aligned with
/// `spec`; `kappa` is the closed-form overhead the ratio is anchored to.
/// Used by `werner_sweep` (E15) and `distill_cut` (E16) so both sweeps
/// share one tested implementation.
#[allow(clippy::too_many_arguments)] // one flat cell descriptor, two call sites
pub fn measure_overhead_cell<R: Rng>(
    spec: &QpdSpec,
    terms: &[&dyn TermSampler],
    exact_value: f64,
    exact_terms: &[f64],
    kappa: f64,
    shots: u64,
    repetitions: usize,
    band_z: f64,
    rng: &mut R,
) -> OverheadMeasurement {
    let predicted = crate::overhead::predicted_variance(spec, exact_terms, shots);
    let band = qpd_wilson_band(spec, exact_terms, shots, band_z);
    let mut errs = RunningStats::new();
    let mut covered = 0u64;
    let estimates: Vec<f64> = (0..repetitions)
        .map(|_| {
            let est = estimate_allocated(spec, terms, shots, Allocator::Proportional, rng);
            errs.push((est - exact_value).abs());
            if (est - exact_value).abs() <= band {
                covered += 1;
            }
            est
        })
        .collect();
    let measured = variance(&estimates);
    OverheadMeasurement {
        kappa_hat: variance_ratio_kappa_hat(kappa, measured, predicted),
        mean_abs_error: errs.mean(),
        band_halfwidth: band,
        covered_fraction: covered as f64 / repetitions.max(1) as f64,
        measured_variance: measured,
        predicted_variance: predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_match_batch_formulas() {
        let xs = [1.0, 2.5, -0.5, 4.0, 3.25, 0.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(rs.count(), 6);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn empty_and_single_are_safe() {
        let rs = RunningStats::new();
        assert_eq!(rs.variance(), 0.0);
        assert_eq!(rs.std_err(), 0.0);
        let mut one = RunningStats::new();
        one.push(5.0);
        assert_eq!(one.variance(), 0.0);
        assert!((one.mean() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn wilson_interval_covers_the_proportion() {
        let (lo, hi) = wilson_interval(50, 100, 2.0);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.25);
        // Degenerate endpoints stay in [0, 1].
        let (lo, hi) = wilson_interval(0, 100, 5.0);
        assert!(lo == 0.0 && hi > 0.0 && hi < 0.3);
        let (lo, hi) = wilson_interval(100, 100, 5.0);
        assert!(hi == 1.0 && lo < 1.0 && lo > 0.7);
        assert_eq!(wilson_interval(0, 0, 3.0), (0.0, 1.0));
    }

    #[test]
    fn z_expectation_interval_maps_sums() {
        // All +1: interval hugs the top of [-1, 1].
        let (lo, hi) = z_expectation_interval(1000.0, 1000, 5.0);
        assert!((hi - 1.0).abs() < 1e-12 && lo > 0.9);
        // Balanced sum: interval straddles 0.
        let (lo, hi) = z_expectation_interval(0.0, 1000, 5.0);
        assert!(lo < 0.0 && hi > 0.0 && hi < 0.2);
    }

    #[test]
    fn rmse_of_constant() {
        assert!((rmse(&[3.0, 3.0, 3.0], 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(rmse(&[], 1.0), 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = (a.mean(), a.variance());
        a.merge(&RunningStats::new());
        assert_eq!(before, (a.mean(), a.variance()));
    }

    #[test]
    fn variance_ratio_estimator_anchors_to_kappa() {
        // Matching variances reproduce κ; a 4× variance excess doubles it.
        assert!((variance_ratio_kappa_hat(2.5, 0.01, 0.01) - 2.5).abs() < 1e-12);
        assert!((variance_ratio_kappa_hat(2.5, 0.04, 0.01) - 5.0).abs() < 1e-12);
        // Degenerate prediction falls back to κ instead of NaN.
        assert!((variance_ratio_kappa_hat(2.5, 0.0, 0.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn overhead_cell_measures_a_calibrated_bernoulli_family() {
        use qpd::BernoulliTerm;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // A κ = 3 Harada-style fixture: +0.3 +0.5 −0.36 = 0.44.
        let spec = QpdSpec::from_parts(&[(1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)]);
        let terms = [
            BernoulliTerm::new(0.3),
            BernoulliTerm::new(0.5),
            BernoulliTerm::new(0.36),
        ];
        let refs: Vec<&dyn TermSampler> = terms.iter().map(|t| t as &dyn TermSampler).collect();
        let exact_terms = [0.3, 0.5, 0.36];
        let mut rng = StdRng::seed_from_u64(1605);
        let cell = measure_overhead_cell(
            &spec,
            &refs,
            0.44,
            &exact_terms,
            spec.kappa(),
            2048,
            64,
            5.0,
            &mut rng,
        );
        // κ̂ within ~25% of κ = 3 at 64 repetitions (SE of a variance
        // ratio at n = 64 is ≈ κ/√(2·63) ≈ 0.27).
        assert!((cell.kappa_hat - 3.0).abs() < 0.8, "κ̂ = {}", cell.kappa_hat);
        // 5σ bands cover essentially everything and stay informative.
        assert!(cell.covered_fraction > 0.95);
        assert!(cell.band_halfwidth > 0.0 && cell.band_halfwidth < 1.0);
        assert!(cell.mean_abs_error < cell.band_halfwidth);
        assert!(cell.predicted_variance > 0.0);
    }

    #[test]
    fn wilson_band_scales_inversely_with_shot_budget() {
        let spec = QpdSpec::from_parts(&[(1.0, 0.0), (-0.5, 0.0)]);
        let exact = [0.2, -0.4];
        let narrow = qpd_wilson_band(&spec, &exact, 40_000, 5.0);
        let wide = qpd_wilson_band(&spec, &exact, 400, 5.0);
        assert!(narrow > 0.0 && wide > narrow, "wide {wide} narrow {narrow}");
        // ~√100 ratio between the budgets.
        let ratio = wide / narrow;
        assert!(ratio > 6.0 && ratio < 14.0, "ratio {ratio}");
    }
}
