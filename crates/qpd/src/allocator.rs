//! Shot allocation strategies.
//!
//! The paper's experiment (Section IV) distributes a fixed total shot
//! budget across the three subcircuits "proportionally to their
//! coefficients". Alternatives are provided for the allocation ablation
//! (experiment E8 in DESIGN.md): uniform splitting and fully stochastic
//! per-shot term selection (the Monte Carlo scheme of Eq. 12).

use crate::spec::QpdSpec;
use rand::Rng;

/// A strategy for splitting a total shot budget across QPD terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Allocator {
    /// `nᵢ ∝ |cᵢ|` with largest-remainder rounding — the paper's choice.
    Proportional,
    /// Equal shots per term regardless of coefficients.
    Uniform,
}

/// The single panic message every allocation entry point raises for an
/// empty term list, so callers see one clear diagnosis instead of a
/// divide-by-zero or a bare slice assertion depending on the strategy.
pub(crate) const EMPTY_TERMS_MSG: &str = "cannot allocate shots across an empty QPD term list";

impl Allocator {
    /// Splits `total` shots across the terms of `spec`. The returned
    /// counts sum to exactly `total`.
    ///
    /// # Panics
    /// Panics with a uniform message if `spec` has no
    /// terms (unreachable through `QpdSpec`'s public constructors, which
    /// reject empty decompositions — the guard is for future spec
    /// sources).
    pub fn allocate(self, spec: &QpdSpec, total: u64) -> Vec<u64> {
        assert!(!spec.is_empty(), "{EMPTY_TERMS_MSG}");
        match self {
            Allocator::Proportional => largest_remainder(&spec.probabilities(), total),
            Allocator::Uniform => {
                let m = spec.len() as u64;
                let base = total / m;
                let extra = (total % m) as usize;
                (0..spec.len())
                    .map(|i| base + u64::from(i < extra))
                    .collect()
            }
        }
    }
}

/// Neyman (variance-optimal) allocation: `nᵢ ∝ |cᵢ|·σᵢ`, minimising the
/// estimator variance `Σ cᵢ²σᵢ²/nᵢ` for known per-term standard
/// deviations `σᵢ` (e.g. `√(1 − ⟨Z⟩ᵢ²)` for Pauli observables).
///
/// The paper's proportional split is the `σᵢ ≡ const` special case; when
/// a term's expectation sits near ±1 its variance vanishes and Neyman
/// reallocates its shots to noisier terms. Terms with `σᵢ = 0` still get
/// a floor of one shot each (their mean is needed, noiselessly).
pub fn neyman_allocation(spec: &QpdSpec, sigmas: &[f64], total: u64) -> Vec<u64> {
    assert!(!spec.is_empty(), "{EMPTY_TERMS_MSG}");
    assert_eq!(spec.len(), sigmas.len());
    // Reject non-finite σ up front: an `inf` here would meet a zero
    // coefficient as `inf · 0 = NaN` in the weights, which used to
    // surface as an opaque `partial_cmp` unwrap inside the remainder
    // sort rather than naming the offending input.
    assert!(
        sigmas.iter().all(|&s| s.is_finite() && s >= 0.0),
        "per-term σ must be finite and non-negative: {sigmas:?}"
    );
    let mut scratch = Apportionment::default();
    // `abs` only clears the sign of a `−0.0` σ, which weighs as `+0.0`.
    let wsum = scratch.weigh(
        spec.terms()
            .iter()
            .zip(sigmas)
            .map(|(t, &s)| t.coefficient.abs() * s.abs()),
    );
    let mut counts = Vec::with_capacity(spec.len());
    scratch.neyman(spec, wsum, total, &mut counts);
    counts
}

/// Largest-remainder apportionment of `total` into parts proportional to
/// `weights` (finite, non-negative, any positive sum).
///
/// Every part gets the floor of its ideal share; the shots left over go
/// one each to the parts with the largest fractional remainders, ties
/// broken by lower index. Only that top set is needed, not its order, so
/// it is found by selection in `O(len)` rather than by sorting every
/// index. When floating-point error leaves at least one shot per part,
/// each whole round goes to every part before the top set takes the
/// rest. Above 2⁵³ shots the floors can instead overshoot `total`
/// (`total as f64` rounds); the excess is then taken back one shot each
/// from the parts with the smallest fractional remainders, ties broken
/// by higher index, so the counts always sum to exactly `total`.
///
/// # Panics
/// Panics with a uniform message on an empty weight
/// vector, and with a diagnostic naming the weights if any weight is
/// non-finite or negative, or if all weights are zero.
pub fn largest_remainder(weights: &[f64], total: u64) -> Vec<u64> {
    assert!(!weights.is_empty(), "{EMPTY_TERMS_MSG}");
    // Validate before any arithmetic: a NaN weight (e.g. `inf · 0` from
    // a degenerate σ upstream) previously survived to the remainder sort
    // and died in a bare `partial_cmp(..).unwrap()`.
    check_weights(weights);
    let mut scratch = Apportionment::default();
    let sum = scratch.weigh(weights.iter().map(|w| w.abs()));
    assert!(sum > 0.0, "zero weight vector: {weights:?}");
    let mut counts = Vec::with_capacity(weights.len());
    scratch.apportion(sum, total, 0, &mut counts);
    counts
}

/// Panics, naming the weights, unless every weight is finite and
/// non-negative.
fn check_weights(weights: &[f64]) {
    assert!(
        weights.iter().all(|&w| w.is_finite() && w >= 0.0),
        "allocation weights must be finite and non-negative: {weights:?}"
    );
}

/// The per-term buffers of the one apportionment kernel behind
/// [`largest_remainder`], [`neyman_allocation`] and
/// [`SequentialAllocator::next_allocation_into`]. Every call overwrites
/// them, so an owner that keeps one allocates nothing once they have
/// grown to its term count.
#[derive(Clone, Debug, Default)]
struct Apportionment {
    /// The weights, overwritten in place by their fractional remainders.
    fractions: Vec<f64>,
    /// Candidate part indices of a top-set selection.
    order: Vec<u32>,
}

impl Apportionment {
    /// Buffers sized for `len` parts.
    fn with_len(len: usize) -> Self {
        Apportionment {
            fractions: Vec::with_capacity(len),
            order: Vec::with_capacity(len),
        }
    }

    /// Stores `weights`, non-negative and never `−0.0`, and returns their
    /// sum, added left to right as `Iterator::sum` adds.
    fn weigh(&mut self, weights: impl Iterator<Item = f64>) -> f64 {
        self.fractions.clear();
        let mut sum = -0.0;
        self.fractions.extend(weights.inspect(|&w| sum += w));
        sum
    }

    /// Neyman's split of `total` over the stored weights, whose sum is
    /// `wsum`, into `counts`: one shot per term and the rest by largest
    /// remainder. All-zero weights fall back to the proportional split,
    /// and a budget of at most one shot per term to the uniform one.
    fn neyman(&mut self, spec: &QpdSpec, wsum: f64, total: u64, counts: &mut Vec<u64>) {
        if wsum < 1e-300 {
            // All terms noiseless: fall back to proportional.
            counts.clear();
            counts.extend(Allocator::Proportional.allocate(spec, total));
            return;
        }
        let m = spec.len() as u64;
        if total <= m {
            counts.clear();
            counts.extend(Allocator::Uniform.allocate(spec, total));
            return;
        }
        if !wsum.is_finite() {
            // Only a weight `|c|·σ` that overflowed can make the sum
            // infinite; name it as `largest_remainder` would.
            check_weights(&self.fractions);
        }
        // Reserve one shot per term, Neyman-split the rest.
        self.apportion(wsum, total - m, 1, counts);
    }

    /// Largest-remainder apportionment of `total` over the stored
    /// weights, whose sum `wsum` is positive, plus `minimum` shots to
    /// every part, written to `counts`.
    ///
    /// The passes: one computes every ideal share `w / wsum · total`,
    /// writes its floor to `counts` and its fractional remainder over
    /// the weight; the top-`extra` set is selected on `order`; one
    /// last pass adds the whole rounds and `minimum`. The truncating
    /// cast is `ideal.floor()` for every `ideal` in `[0, 2⁶⁴]`, and
    /// `w ≤ wsum` keeps it there.
    fn apportion(&mut self, wsum: f64, total: u64, minimum: u64, counts: &mut Vec<u64>) {
        let scale = total as f64;
        // Exact, though the floors may sum past `u64::MAX`.
        let mut assigned = 0u128;
        counts.clear();
        counts.extend(self.fractions.iter_mut().map(|w| {
            let ideal = *w / wsum * scale;
            // The same floor either way; below 2⁶³ the signed casts are
            // single instructions.
            let (whole, floored) = if ideal < I64_LIMIT {
                let whole = ideal as i64;
                (whole as u64, whole as f64)
            } else {
                let whole = ideal as u64;
                (whole, whole as f64)
            };
            *w = ideal - floored;
            assigned += u128::from(whole);
            whole
        }));
        let len = counts.len() as u64;
        let mut rounds = 0;
        match u64::try_from(assigned) {
            Ok(assigned) if assigned <= total => {
                let remainder = total - assigned;
                rounds = remainder / len;
                let extra = (remainder % len) as usize;
                if extra > 0 {
                    // Fraction descending, then index ascending: a total
                    // order, so its top `extra` set is unique.
                    // `total_cmp` has no panic path.
                    let fractions = &self.fractions;
                    let order = fill_indices(&mut self.order, counts.len());
                    order.select_nth_unstable_by(extra - 1, |&i, &j| {
                        fractions[j as usize]
                            .total_cmp(&fractions[i as usize])
                            .then(i.cmp(&j))
                    });
                    for &i in &order[..extra] {
                        counts[i as usize] += 1;
                    }
                }
            }
            _ => self.take_back(assigned - u128::from(total), counts),
        }
        let add = rounds + minimum;
        if add > 0 {
            for c in counts.iter_mut() {
                *c += add;
            }
        }
    }

    /// Takes `excess` shots back from the floors in `counts`: one each
    /// from the non-empty parts with the smallest fractional remainders,
    /// ties broken by higher index (the reverse of the hand-out order),
    /// in whole rounds while the excess covers every non-empty part.
    /// Only budgets above 2⁵³ overshoot, so this path is cold.
    fn take_back(&mut self, mut excess: u128, counts: &mut [u64]) {
        while excess > 0 {
            let fractions = &self.fractions;
            fill_indices(&mut self.order, counts.len());
            self.order.retain(|&i| counts[i as usize] > 0);
            let order = &mut self.order;
            let n = order.len() as u128;
            if excess >= n {
                // A whole round from every non-empty part, as many times
                // as the excess and the smallest such count allow.
                let least = order
                    .iter()
                    .map(|&i| counts[i as usize])
                    .min()
                    .expect("a positive excess leaves a non-empty part");
                let r = (excess / n).min(u128::from(least));
                for &i in order.iter() {
                    counts[i as usize] -= r as u64;
                }
                excess -= r * n;
            } else {
                let k = excess as usize;
                order.select_nth_unstable_by(k - 1, |&i, &j| {
                    fractions[i as usize]
                        .total_cmp(&fractions[j as usize])
                        .then(j.cmp(&i))
                });
                for &i in &order[..k] {
                    counts[i as usize] -= 1;
                }
                excess = 0;
            }
        }
    }
}

/// `2⁶³`, the first `f64` a truncating cast to `i64` cannot hold.
const I64_LIMIT: f64 = 9_223_372_036_854_775_808.0;

/// Refills `order` with the indices `0..len` as `u32`s: half the bytes
/// of `usize` indices.
fn fill_indices(order: &mut Vec<u32>, len: usize) -> &mut [u32] {
    order.clear();
    order.extend(0..u32::try_from(len).expect("more parts than u32 indices"));
    order
}

/// Samples a multinomial allocation: `total` term indices i.i.d. with
/// probabilities `pᵢ = |cᵢ|/κ` — the allocation induced by the
/// stochastic Monte Carlo estimator of Eq. 12, drawn as one batched
/// multinomial (`O(#terms)` RNG work instead of one draw per shot).
pub fn stochastic_allocation<R: Rng + ?Sized>(spec: &QpdSpec, total: u64, rng: &mut R) -> Vec<u64> {
    qsample::multinomial(total, &spec.probabilities(), rng)
}

/// Online (sequential) shot allocation: pools per-term sample statistics
/// across batches and proposes the next batch's split via
/// [`neyman_allocation`] on the *observed* standard deviations.
///
/// [`neyman_allocation`] needs the σᵢ up front, which a live estimation
/// job doesn't have. This accumulator closes that gap: the first batch
/// runs on a static split (no data yet), every later batch runs on
/// σ̂ᵢ estimated from all samples so far, and as the pooled counts grow
/// the proposals converge to the true Neyman optimum. For ±1
/// observables the per-term variance is determined by the mean
/// (`σ² = 1 − ⟨Z⟩²`), so recording each batch's **sum** is sufficient.
///
/// The σ̂ estimate is shrunk toward 1 (the maximal σ for a ±1
/// observable) with pseudo-count 1: `σ̂² = ((1 − mean²)·n + 1)/(n + 1)`.
/// Early batches therefore never zero out a term whose sample mean
/// happens to sit at ±1 — a term starved to zero shots would never be
/// re-measured and its (possibly wrong) mean would be frozen forever.
#[derive(Clone, Debug, Default)]
pub struct SequentialAllocator {
    sums: Vec<f64>,
    counts: Vec<u64>,
    /// The apportionment buffers [`next_allocation_into`] reuses.
    ///
    /// [`next_allocation_into`]: SequentialAllocator::next_allocation_into
    scratch: Apportionment,
}

impl SequentialAllocator {
    /// An empty accumulator for `num_terms` QPD terms.
    pub fn new(num_terms: usize) -> Self {
        assert!(num_terms > 0, "{EMPTY_TERMS_MSG}");
        SequentialAllocator {
            sums: vec![0.0; num_terms],
            counts: vec![0; num_terms],
            scratch: Apportionment::with_len(num_terms),
        }
    }

    /// Records one batch's result for `term`: the sum of its `shots`
    /// single-shot ±1 observations.
    pub fn record(&mut self, term: usize, sample_sum: f64, shots: u64) {
        self.sums[term] += sample_sum;
        self.counts[term] += shots;
    }

    /// Pooled shots recorded for `term` so far.
    pub fn count(&self, term: usize) -> u64 {
        self.counts[term]
    }

    /// Pooled sample mean of `term` (`0.0` before any data).
    pub fn mean(&self, term: usize) -> f64 {
        if self.counts[term] == 0 {
            0.0
        } else {
            self.sums[term] / self.counts[term] as f64
        }
    }

    /// Shrunk per-term standard-deviation estimates
    /// `σ̂ᵢ = √(((1 − meanᵢ²)·nᵢ + 1)/(nᵢ + 1))`; `1.0` for unseen terms.
    pub fn sigma_estimates(&self) -> Vec<f64> {
        self.sums
            .iter()
            .zip(&self.counts)
            .map(|(&sum, &n)| sigma_hat(sum, n))
            .collect()
    }

    /// Proposes the split of the next `batch` shots: Neyman-optimal for
    /// the current σ̂ estimates. Before any data this equals the
    /// proportional split (all σ̂ = 1). Sums to exactly `batch`.
    ///
    /// Builds its own buffers; a batch loop that keeps the allocator
    /// calls [`next_allocation_into`](Self::next_allocation_into), which
    /// returns the same split without allocating.
    pub fn next_allocation(&self, spec: &QpdSpec, batch: u64) -> Vec<u64> {
        let mut scratch = Apportionment::with_len(self.sums.len());
        let mut counts = Vec::with_capacity(self.sums.len());
        neyman_sequential(
            spec,
            &self.sums,
            &self.counts,
            &mut scratch,
            batch,
            &mut counts,
        );
        counts
    }

    /// [`next_allocation`](Self::next_allocation) written into `out`
    /// (cleared first), on buffers the allocator owns: σ̂, each weight
    /// `|cᵢ|·σ̂ᵢ` and their sum in one pass, then one apportionment. Once
    /// `out` has grown to the term count, a call allocates nothing.
    pub fn next_allocation_into(&mut self, spec: &QpdSpec, batch: u64, out: &mut Vec<u64>) {
        neyman_sequential(
            spec,
            &self.sums,
            &self.counts,
            &mut self.scratch,
            batch,
            out,
        );
    }

    /// The pooled estimate `Σᵢ cᵢ · meanᵢ` over everything recorded so
    /// far, counting an unsampled term's mean as 0. Unbiased for the
    /// decomposed expectation only when every term has at least one
    /// pooled shot. One batch guarantees that only when it is larger
    /// than the term count: then [`neyman_allocation`] floors every term
    /// at one shot. A batch of at most the term count falls back to the
    /// uniform split, which leaves terms at zero shots and biases the
    /// estimate.
    pub fn estimate(&self, spec: &QpdSpec) -> f64 {
        assert_eq!(spec.len(), self.sums.len());
        spec.terms()
            .iter()
            .enumerate()
            .map(|(i, t)| t.coefficient * self.mean(i))
            .sum()
    }
}

/// The shrunk σ̂ of a term whose `n` pooled ±1 shots sum to `sum`:
/// `√(((1 − mean²)·n + 1)/(n + 1))`, and `1.0` for an unseen term. The
/// formula runs at `n = 0` too and its value is then discarded, so a
/// run of terms compiles to straight-line vector code.
fn sigma_hat(sum: f64, n: u64) -> f64 {
    let shots = n as f64;
    let mean = (sum / shots).clamp(-1.0, 1.0);
    let var = (1.0 - mean * mean).max(0.0);
    let sigma = ((var * shots + 1.0) / (shots + 1.0)).sqrt();
    if n == 0 {
        1.0
    } else {
        sigma
    }
}

/// Terms per run of the σ̂ pass: each run's weights are computed
/// together, then added to the running sum in term order.
const SIGMA_RUN: usize = 16;

/// The Neyman split of `batch` for the σ̂ that `sums` and `counts`
/// give, on `scratch`, into `out`: the weights `|cᵢ|·σ̂ᵢ` and their
/// left-to-right sum in one pass, then [`Apportionment::neyman`].
fn neyman_sequential(
    spec: &QpdSpec,
    sums: &[f64],
    counts: &[u64],
    scratch: &mut Apportionment,
    batch: u64,
    out: &mut Vec<u64>,
) {
    assert_eq!(spec.len(), sums.len());
    let weights = &mut scratch.fractions;
    weights.clear();
    weights.resize(sums.len(), 0.0);
    let mut wsum = -0.0;
    let runs = weights
        .chunks_mut(SIGMA_RUN)
        .zip(spec.terms().chunks(SIGMA_RUN))
        .zip(sums.chunks(SIGMA_RUN).zip(counts.chunks(SIGMA_RUN)));
    for ((weights, terms), (sums, counts)) in runs {
        for ((w, t), (&sum, &n)) in weights.iter_mut().zip(terms).zip(sums.iter().zip(counts)) {
            *w = t.coefficient.abs() * sigma_hat(sum, n);
        }
        for &w in weights.iter() {
            wsum += w;
        }
    }
    scratch.neyman(spec, wsum, batch, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec_abc() -> QpdSpec {
        QpdSpec::from_parts(&[(0.6, 1.0), (0.6, 1.0), (-0.2, 0.0)])
    }

    #[test]
    fn proportional_allocation_sums_to_total() {
        let spec = spec_abc();
        for total in [0u64, 1, 7, 100, 4999, 5000] {
            let alloc = Allocator::Proportional.allocate(&spec, total);
            assert_eq!(alloc.iter().sum::<u64>(), total, "total {total}");
        }
    }

    #[test]
    fn proportional_allocation_tracks_weights() {
        let spec = spec_abc();
        // κ = 1.4, probabilities (3/7, 3/7, 1/7)
        let alloc = Allocator::Proportional.allocate(&spec, 7000);
        assert_eq!(alloc, vec![3000, 3000, 1000]);
    }

    #[test]
    fn uniform_allocation_balances() {
        let spec = spec_abc();
        let alloc = Allocator::Uniform.allocate(&spec, 10);
        assert_eq!(alloc.iter().sum::<u64>(), 10);
        assert_eq!(alloc, vec![4, 3, 3]);
    }

    #[test]
    fn largest_remainder_exactness() {
        // 3 parts of weight 1/3 with total 10: counts (4, 3, 3).
        let counts = largest_remainder(&[1.0 / 3.0; 3], 10);
        assert_eq!(counts.iter().sum::<u64>(), 10);
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn stochastic_allocation_concentrates() {
        let spec = spec_abc();
        let mut rng = StdRng::seed_from_u64(1);
        let alloc = stochastic_allocation(&spec, 70_000, &mut rng);
        assert_eq!(alloc.iter().sum::<u64>(), 70_000);
        let f0 = alloc[0] as f64 / 70_000.0;
        assert!((f0 - 3.0 / 7.0).abs() < 0.01, "stochastic fraction {f0}");
    }

    #[test]
    fn neyman_matches_proportional_for_equal_sigmas() {
        let spec = spec_abc();
        let ney = neyman_allocation(&spec, &[1.0, 1.0, 1.0], 7000);
        let prop = Allocator::Proportional.allocate(&spec, 7000);
        for (a, b) in ney.iter().zip(prop.iter()) {
            assert!((*a as i64 - *b as i64).abs() <= 3, "{ney:?} vs {prop:?}");
        }
        assert_eq!(ney.iter().sum::<u64>(), 7000);
    }

    #[test]
    fn neyman_starves_noiseless_terms() {
        let spec = spec_abc();
        let alloc = neyman_allocation(&spec, &[1.0, 0.0, 1.0], 1000);
        assert_eq!(alloc.iter().sum::<u64>(), 1000);
        assert_eq!(alloc[1], 1, "noiseless term should get the floor only");
        assert!(alloc[0] > 700, "noisy heavy term underfunded: {alloc:?}");
    }

    #[test]
    fn neyman_all_noiseless_falls_back() {
        let spec = spec_abc();
        let alloc = neyman_allocation(&spec, &[0.0, 0.0, 0.0], 700);
        assert_eq!(alloc.iter().sum::<u64>(), 700);
        assert_eq!(alloc, Allocator::Proportional.allocate(&spec, 700));
    }

    #[test]
    fn neyman_minimises_predicted_variance() {
        // Compare Σ c²σ²/n against the proportional split on an asymmetric
        // instance: Neyman must be no worse.
        let spec = spec_abc();
        let sigmas = [0.2, 1.0, 0.9];
        let total = 5000;
        let var = |alloc: &[u64]| -> f64 {
            spec.terms()
                .iter()
                .zip(sigmas.iter())
                .zip(alloc.iter())
                .map(|((t, &s), &n)| {
                    if n == 0 {
                        0.0
                    } else {
                        t.coefficient.powi(2) * s * s / n as f64
                    }
                })
                .sum()
        };
        let v_ney = var(&neyman_allocation(&spec, &sigmas, total));
        let v_prop = var(&Allocator::Proportional.allocate(&spec, total));
        assert!(
            v_ney <= v_prop * 1.001,
            "Neyman {v_ney} worse than proportional {v_prop}"
        );
    }

    #[test]
    fn zero_total_allocations() {
        let spec = spec_abc();
        assert_eq!(Allocator::Proportional.allocate(&spec, 0), vec![0, 0, 0]);
        assert_eq!(Allocator::Uniform.allocate(&spec, 0), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot allocate shots across an empty QPD term list")]
    fn empty_weights_get_the_uniform_message() {
        largest_remainder(&[], 100);
    }

    #[test]
    #[should_panic(expected = "weights must be finite and non-negative")]
    fn nan_weight_is_named_not_an_opaque_unwrap() {
        // Regression: `inf · 0 = NaN` weights used to die inside the
        // remainder sort's `partial_cmp(..).unwrap()`.
        largest_remainder(&[0.5, f64::NAN, 0.5], 100);
    }

    #[test]
    #[should_panic(expected = "weights must be finite and non-negative")]
    fn infinite_weight_is_rejected() {
        largest_remainder(&[0.5, f64::INFINITY], 100);
    }

    #[test]
    #[should_panic(expected = "weights must be finite and non-negative")]
    fn negative_weight_is_rejected() {
        largest_remainder(&[0.5, -0.1, 0.6], 100);
    }

    #[test]
    #[should_panic(expected = "zero weight vector")]
    fn all_zero_weights_are_rejected() {
        largest_remainder(&[0.0, 0.0], 100);
    }

    #[test]
    #[should_panic(expected = "σ must be finite and non-negative")]
    fn neyman_rejects_infinite_sigma() {
        // Regression: an `inf` σ against a zero coefficient produced a
        // NaN weight and an opaque panic downstream.
        let spec = spec_abc();
        neyman_allocation(&spec, &[1.0, f64::INFINITY, 1.0], 1000);
    }

    #[test]
    #[should_panic(expected = "σ must be finite and non-negative")]
    fn neyman_rejects_nan_sigma() {
        let spec = spec_abc();
        neyman_allocation(&spec, &[1.0, f64::NAN, 1.0], 1000);
    }

    #[test]
    fn neyman_with_budget_below_term_count() {
        // total < #terms falls back to the uniform split (some terms get
        // zero shots — there is no room for the one-shot floor).
        let spec = spec_abc();
        for total in [0u64, 1, 2] {
            let alloc = neyman_allocation(&spec, &[0.3, 1.0, 0.7], total);
            assert_eq!(alloc.iter().sum::<u64>(), total, "total {total}");
            assert_eq!(alloc, Allocator::Uniform.allocate(&spec, total));
        }
        // total == #terms: everyone gets exactly one.
        assert_eq!(neyman_allocation(&spec, &[0.3, 1.0, 0.7], 3), vec![1; 3]);
    }

    #[test]
    fn sequential_starts_proportional() {
        let spec = spec_abc();
        let seq = SequentialAllocator::new(spec.len());
        assert_eq!(seq.sigma_estimates(), vec![1.0; 3]);
        let first = seq.next_allocation(&spec, 7000);
        let prop = Allocator::Proportional.allocate(&spec, 7000);
        assert_eq!(first.iter().sum::<u64>(), 7000);
        for (a, b) in first.iter().zip(prop.iter()) {
            assert!((*a as i64 - *b as i64).abs() <= 3, "{first:?} vs {prop:?}");
        }
    }

    #[test]
    fn sequential_converges_to_neyman() {
        // Feed the accumulator exact means; its proposals must approach
        // the oracle Neyman split for the implied σ.
        let spec = spec_abc();
        let means = [0.98, 0.1, 0.5];
        let mut seq = SequentialAllocator::new(spec.len());
        for (i, &m) in means.iter().enumerate() {
            let n = 100_000u64;
            seq.record(i, m * n as f64, n);
        }
        let sigmas: Vec<f64> = means.iter().map(|m| (1.0 - m * m).sqrt()).collect();
        let oracle = neyman_allocation(&spec, &sigmas, 10_000);
        let proposed = seq.next_allocation(&spec, 10_000);
        assert_eq!(proposed.iter().sum::<u64>(), 10_000);
        for (p, o) in proposed.iter().zip(oracle.iter()) {
            assert!(
                (*p as i64 - *o as i64).abs() <= 20,
                "proposal {proposed:?} far from oracle {oracle:?}"
            );
        }
    }

    #[test]
    fn sequential_shrinkage_never_starves_a_term() {
        // A term whose early mean sits exactly at +1 keeps σ̂ > 0, so it
        // keeps receiving shots beyond the one-shot floor eventually.
        let spec = spec_abc();
        let mut seq = SequentialAllocator::new(spec.len());
        seq.record(0, 4.0, 4); // mean exactly +1 → raw σ = 0
        seq.record(1, 0.0, 4);
        seq.record(2, 0.0, 4);
        let sig = seq.sigma_estimates();
        assert!(sig[0] > 0.0, "shrinkage must keep σ̂ positive: {sig:?}");
        assert!(sig[0] < sig[1], "σ̂ ordering lost: {sig:?}");
    }

    #[test]
    fn sequential_estimate_pools_batches() {
        let spec = spec_abc();
        let mut seq = SequentialAllocator::new(spec.len());
        // Two batches per term; pooled mean is the shot-weighted mean.
        for (i, mean) in [(0usize, 0.3f64), (1, 0.5), (2, 0.36)] {
            seq.record(i, mean * 100.0, 100);
            seq.record(i, mean * 300.0, 300);
            assert!((seq.mean(i) - mean).abs() < 1e-12);
            assert_eq!(seq.count(i), 400);
        }
        // 0.6·0.3 + 0.6·0.5 − 0.2·0.36 = 0.408
        assert!((seq.estimate(&spec) - 0.408).abs() < 1e-12);
    }

    #[test]
    fn sequential_realised_variance_beats_proportional_on_asymmetric_sigmas() {
        // The acceptance-criterion property at the allocator level: with
        // one near-deterministic heavy term, sequential reallocation must
        // realise no more estimator variance than the static
        // proportional split at equal total shots.
        use crate::estimator::{estimate_with_allocation, BernoulliTerm, TermSampler};
        use qsample::StreamRng;
        let spec = QpdSpec::from_parts(&[(1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)]);
        let terms = [
            BernoulliTerm::new(0.99), // σ ≈ 0.14
            BernoulliTerm::new(0.0),  // σ = 1
            BernoulliTerm::new(0.3),  // σ ≈ 0.95
        ];
        let exact = 0.99 + 0.0 - 0.3;
        let total = 1200u64;
        let batches = 4u64;
        let reps = 400;
        let mut mse_static = 0.0;
        let mut mse_seq = 0.0;
        for rep in 0..reps {
            let mut rng = StreamRng::new(0xA110C, rep);
            let est = estimate_with_allocation(
                &spec,
                &terms,
                &Allocator::Proportional.allocate(&spec, total),
                &mut rng,
            );
            mse_static += (est - exact) * (est - exact);
            let mut seq = SequentialAllocator::new(spec.len());
            let mut rng = StreamRng::new(0x5E0, rep);
            let per_batch = total / batches;
            for _ in 0..batches {
                let alloc = seq.next_allocation(&spec, per_batch);
                for (i, (&n, term)) in alloc.iter().zip(terms.iter()).enumerate() {
                    if n > 0 {
                        seq.record(i, term.sample_observable_sum(n, &mut rng), n);
                    }
                }
            }
            let est = seq.estimate(&spec);
            mse_seq += (est - exact) * (est - exact);
        }
        assert!(
            mse_seq <= mse_static,
            "sequential MSE {mse_seq} above static proportional {mse_static}"
        );
    }
}
