//! Monte Carlo estimators for QPD expectation values.
//!
//! Implements Eq. 12 of the paper:
//!
//! `Tr[O·E(ρ)] = κ Σᵢ pᵢ · Tr[O·Fᵢ(ρ)] · sign(cᵢ)`
//!
//! in two sampling modes — per-shot stochastic term selection and the
//! paper's deterministic proportional allocation — plus a checkpointed
//! sweep that yields the estimate at many shot budgets from a single
//! sampling pass (the workhorse of the Figure 6 reproduction).
//!
//! Every estimator takes its terms as a slice `&[T]` of one
//! [`TermSampler`] type and requests shots through the **batched**
//! [`TermSampler::sample_observable_sum`] entry point. The library's
//! one term type is [`BernoulliTerm`]: a ±1 observable's law is fixed by
//! its exact value, so a whole allocation is one binomial draw. Tests
//! substitute their own `TermSampler`s (a shot counter, a per-shot-only
//! wrapper) through the same slice.

use crate::allocator::Allocator;
use crate::spec::QpdSpec;
use qsample::{Binomial, StreamRng};
use rand::Rng;

/// One executable QPD term: draws single-shot observable samples (±1 for
/// the paper's Pauli-Z observable) and knows its exact expectation.
pub trait TermSampler {
    /// Draws a single-shot estimate of `Tr[O·Fᵢ(ρ)]` (an unbiased sample
    /// of the term's observable, e.g. ±1 for Z).
    fn sample_observable(&self, rng: &mut dyn rand::RngCore) -> f64;

    /// Draws `shots` single-shot estimates and returns their **sum**.
    ///
    /// The default walks [`sample_observable`](Self::sample_observable)
    /// `shots` times. [`BernoulliTerm`] overrides it with one binomial
    /// draw, identical in distribution — every estimator in this module
    /// calls through here, so overriding this one method batches the
    /// whole stack.
    fn sample_observable_sum(&self, shots: u64, rng: &mut dyn rand::RngCore) -> f64 {
        let mut sum = 0.0;
        for _ in 0..shots {
            sum += self.sample_observable(rng);
        }
        sum
    }

    /// The exact term expectation `Tr[O·Fᵢ(ρ)]`.
    fn exact_expectation(&self) -> f64;
}

/// Exact (infinite-shot) value of the decomposed expectation:
/// `Σᵢ cᵢ · exactᵢ`.
pub fn exact_value<T: TermSampler>(spec: &QpdSpec, terms: &[T]) -> f64 {
    assert_eq!(spec.len(), terms.len());
    spec.terms()
        .iter()
        .zip(terms.iter())
        .map(|(t, s)| t.coefficient * s.exact_expectation())
        .sum()
}

/// Stochastic Monte Carlo estimator (Eq. 12): for each shot draw a term
/// `i ~ pᵢ`, sample its observable, and weight by `κ·sign(cᵢ)`.
///
/// Shots are exchangeable, so the per-shot term draws are batched into
/// one multinomial over the term probabilities followed by one batched
/// observable draw per occupied term — the same joint distribution as
/// the shot-by-shot loop, without the per-shot dispatch.
pub fn estimate_stochastic<T: TermSampler, R: Rng>(
    spec: &QpdSpec,
    terms: &[T],
    shots: u64,
    rng: &mut R,
) -> f64 {
    assert_eq!(spec.len(), terms.len());
    if shots == 0 {
        return 0.0;
    }
    let kappa = spec.kappa();
    let probs = spec.probabilities();
    let signs = spec.signs();
    let per_term = qsample::multinomial(shots, &probs, rng);
    let mut total = 0.0;
    for ((term, &n), &sign) in terms.iter().zip(per_term.iter()).zip(signs.iter()) {
        if n == 0 {
            continue;
        }
        total += sign * kappa * term.sample_observable_sum(n, rng);
    }
    total / shots as f64
}

/// Deterministic-allocation estimator (the paper's experiment): each term
/// gets `nᵢ` shots from the chosen [`Allocator`]; the estimate is
/// `Σᵢ cᵢ · meanᵢ`. Terms allocated zero shots contribute zero (their
/// mean is undefined; with proportional allocation this only happens at
/// negligible budgets).
pub fn estimate_allocated<T: TermSampler, R: Rng>(
    spec: &QpdSpec,
    terms: &[T],
    total_shots: u64,
    allocator: Allocator,
    rng: &mut R,
) -> f64 {
    let allocation = allocator.allocate(spec, total_shots);
    estimate_with_allocation(spec, terms, &allocation, rng)
}

/// Deterministic estimator with an explicit per-term shot allocation.
pub fn estimate_with_allocation<T: TermSampler, R: Rng>(
    spec: &QpdSpec,
    terms: &[T],
    allocation: &[u64],
    rng: &mut R,
) -> f64 {
    assert_eq!(spec.len(), terms.len());
    assert_eq!(spec.len(), allocation.len());
    let mut value = 0.0;
    for ((t, s), &n) in spec.terms().iter().zip(terms.iter()).zip(allocation.iter()) {
        if n == 0 {
            continue;
        }
        value += t.coefficient * (s.sample_observable_sum(n, rng) / n as f64);
    }
    value
}

/// Sequential (variance-adaptive) estimator: spends `total_shots` in
/// `num_batches` equal batches, re-splitting each batch across terms via
/// [`crate::allocator::SequentialAllocator`] — the first batch on the
/// static proportional split, later batches Neyman-optimal for the σ̂
/// observed so far. The estimate pools all batches per term
/// (`Σᵢ cᵢ · pooled-meanᵢ`), which keeps it unbiased: a term's inclusion
/// in later batches depends only on *other* batches' samples through the
/// allocation sizes, never on the value being averaged.
///
/// With `num_batches = 1` this degenerates to
/// [`estimate_allocated`] with [`Allocator::Proportional`] (identical
/// distribution; the RNG consumption differs, so values are not
/// bit-equal). Budget remainders (`total_shots % num_batches`) are
/// folded into the final batch, so with fewer shots than batches the
/// whole budget is one final batch.
pub fn estimate_sequential<T: TermSampler, R: Rng>(
    spec: &QpdSpec,
    terms: &[T],
    total_shots: u64,
    num_batches: u64,
    rng: &mut R,
) -> f64 {
    assert_eq!(spec.len(), terms.len());
    assert!(num_batches >= 1, "need at least one batch");
    if total_shots == 0 {
        return 0.0;
    }
    let mut seq = crate::allocator::SequentialAllocator::new(spec.len());
    let per_batch = total_shots / num_batches;
    // With fewer shots than batches every batch but the last is empty,
    // so start there: empty batches draw nothing, so no draw moves.
    let first = if total_shots < num_batches {
        num_batches - 1
    } else {
        0
    };
    for batch in first..num_batches {
        let budget = if batch + 1 == num_batches {
            total_shots - per_batch * (num_batches - 1)
        } else {
            per_batch
        };
        if budget == 0 {
            continue;
        }
        let alloc = seq.next_allocation(spec, budget);
        for (i, (&n, term)) in alloc.iter().zip(terms.iter()).enumerate() {
            if n > 0 {
                seq.record(i, term.sample_observable_sum(n, rng), n);
            }
        }
    }
    seq.estimate(spec)
}

/// Checkpointed proportional sweep: returns the estimate the paper's
/// procedure would produce at **every** budget in `checkpoints`
/// (ascending), reusing samples across budgets so a full error-vs-shots
/// curve costs one pass at the largest budget.
///
/// For each checkpoint `N`, the estimate uses exactly the proportional
/// allocation `nᵢ(N)` and the first `nᵢ(N)` samples of each term — the
/// same distribution as running [`estimate_allocated`] at `N` fresh.
pub fn proportional_sweep<T: TermSampler, R: Rng>(
    spec: &QpdSpec,
    terms: &[T],
    checkpoints: &[u64],
    rng: &mut R,
) -> Vec<f64> {
    assert_eq!(spec.len(), terms.len());
    assert!(
        checkpoints.windows(2).all(|w| w[0] <= w[1]),
        "checkpoints must be ascending"
    );
    let m = spec.len();
    // Per-checkpoint allocations.
    let allocations: Vec<Vec<u64>> = checkpoints
        .iter()
        .map(|&n| Allocator::Proportional.allocate(spec, n))
        .collect();
    // Per-term maximum sample count needed.
    let max_per_term: Vec<u64> = (0..m)
        .map(|i| allocations.iter().map(|a| a[i]).max().unwrap_or(0))
        .collect();
    // Draw samples, recording prefix sums at the counts each checkpoint
    // needs. Between consecutive needed counts the draws are one batched
    // call, so a full error-vs-shots curve costs O(#checkpoints) batch
    // draws per term rather than one RNG walk per shot.
    let coeffs = spec.coefficients();
    let mut estimates = vec![0.0f64; checkpoints.len()];
    for i in 0..m {
        // Sorted unique prefix counts needed for this term.
        let mut needed: Vec<u64> = allocations.iter().map(|a| a[i]).collect();
        needed.sort_unstable();
        needed.dedup();
        let mut prefix_sum_at = std::collections::HashMap::new();
        let mut sum = 0.0;
        let mut drawn = 0u64;
        for &count in &needed {
            sum += terms[i].sample_observable_sum(count - drawn, rng);
            drawn = count;
            prefix_sum_at.insert(count, sum);
        }
        debug_assert_eq!(drawn, max_per_term[i]);
        for (j, alloc) in allocations.iter().enumerate() {
            let n = alloc[i];
            if n == 0 {
                continue;
            }
            let s = prefix_sum_at[&n];
            estimates[j] += coeffs[i] * (s / n as f64);
        }
    }
    estimates
}

/// A ±1 term fixed by its exact value `e`: every draw is `+1` with
/// probability `(1 + e)/2`. That is the whole law of a ±1 observable, so
/// one of these stands in for any term whose exact value is known — a
/// compiled cut-plan term, a calibrated closed-form term, or a
/// single-qubit Z measurement.
///
/// The batched law `B(·, (1 + e)/2)` is prepared once, at construction,
/// so a batched draw recomputes none of its `p`-only constants and reads
/// the same RNG words as `qsample::binomial` at that `p`.
#[derive(Clone, Copy, Debug)]
pub struct BernoulliTerm {
    expectation: f64,
    law: Binomial,
}

impl BernoulliTerm {
    /// The term with exact expectation `expectation` (in `[-1, 1]`; the
    /// batched law clamps `(1 + e)/2` into `[0, 1]`).
    ///
    /// # Panics
    /// Panics if `expectation` is NaN.
    pub fn new(expectation: f64) -> Self {
        BernoulliTerm {
            expectation,
            law: Binomial::new(((1.0 + expectation) / 2.0).clamp(0.0, 1.0)),
        }
    }

    /// Draws one batch of every term's sample sum: `terms[i]` spends
    /// `shots[i]` shots on lane `root.split(i)`, and `record(i, sum)`
    /// receives each sum in term order (`0.0` for a zero-shot term).
    /// Every sum has the bits of
    /// `terms[i].sample_observable_sum(shots[i], &mut root.split(i))`,
    /// and every lane reads the same RNG words; the draws go through
    /// [`qsample::binomial_batch`] instead of one dynamic call per term.
    ///
    /// # Panics
    /// Panics if `terms` and `shots` differ in length.
    pub fn sample_batch(
        terms: &[BernoulliTerm],
        shots: &[u64],
        root: &StreamRng,
        mut record: impl FnMut(usize, f64),
    ) {
        assert_eq!(terms.len(), shots.len(), "one shot count per term");
        let draws = terms.iter().map(|t| &t.law).zip(shots.iter().copied());
        qsample::binomial_batch(draws, root, |i, plus| {
            record(i, plus_minus_sum(plus, shots[i]))
        });
    }
}

/// The sum of `shots` ±1 outcomes, `plus` of them `+1`.
fn plus_minus_sum(plus: u64, shots: u64) -> f64 {
    2.0 * plus as f64 - shots as f64
}

impl TermSampler for BernoulliTerm {
    fn sample_observable(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let p_plus = (1.0 + self.expectation) / 2.0;
        if rng.gen::<f64>() < p_plus {
            1.0
        } else {
            -1.0
        }
    }

    fn sample_observable_sum(&self, shots: u64, rng: &mut dyn rand::RngCore) -> f64 {
        plus_minus_sum(self.law.sample(shots, rng), shots)
    }

    fn exact_expectation(&self) -> f64 {
        self.expectation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A Harada-style 3-term decomposition of a target expectation 0.44:
    /// +1·(0.3) + 1·(0.5) − 1·(0.36) = 0.44.
    fn fixture() -> (QpdSpec, Vec<BernoulliTerm>) {
        let spec = QpdSpec::from_parts(&[(1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)]);
        let terms = vec![
            BernoulliTerm::new(0.3),
            BernoulliTerm::new(0.5),
            BernoulliTerm::new(0.36),
        ];
        (spec, terms)
    }

    #[test]
    fn exact_value_combines_terms() {
        let (spec, terms) = fixture();
        let v = exact_value(&spec, &terms);
        assert!((v - 0.44).abs() < 1e-12);
    }

    #[test]
    fn stochastic_estimator_is_unbiased() {
        let (spec, terms) = fixture();
        let mut rng = StdRng::seed_from_u64(42);
        let reps = 300;
        let shots = 2000;
        let mean: f64 = (0..reps)
            .map(|_| estimate_stochastic(&spec, &terms, shots, &mut rng))
            .sum::<f64>()
            / reps as f64;
        // SE of the mean ≈ κ/√(reps·shots) ≈ 3/775 ≈ 0.004
        assert!((mean - 0.44).abs() < 0.02, "stochastic mean {mean}");
    }

    #[test]
    fn stochastic_variance_scales_with_kappa_squared() {
        // Compare κ=3 decomposition against a direct κ=1 estimate of the
        // same value; variance ratio should be ≈ κ² (modulo the bounded
        // per-term variance corrections).
        let (spec, terms) = fixture();
        let direct_spec = QpdSpec::from_parts(&[(1.0, 0.0)]);
        let direct_terms = [BernoulliTerm::new(0.44)];
        let mut rng = StdRng::seed_from_u64(7);
        let reps = 400;
        let shots = 500;
        let var = |spec: &QpdSpec, terms: &[BernoulliTerm], rng: &mut StdRng| -> f64 {
            let xs: Vec<f64> = (0..reps)
                .map(|_| estimate_stochastic(spec, terms, shots, rng))
                .collect();
            let m = xs.iter().sum::<f64>() / reps as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (reps - 1) as f64
        };
        let v_qpd = var(&spec, &terms, &mut rng);
        let v_direct = var(&direct_spec, &direct_terms, &mut rng);
        let ratio = v_qpd / v_direct;
        // Theoretical: Var_qpd·shots = κ² − value² ≈ 8.81; Var_direct·shots
        // = 1 − 0.44² ≈ 0.806 → ratio ≈ 10.9. Allow wide statistical slack.
        assert!(
            ratio > 5.0 && ratio < 20.0,
            "variance ratio {ratio} outside expected band"
        );
    }

    #[test]
    fn allocated_estimator_is_unbiased() {
        let (spec, terms) = fixture();
        let mut rng = StdRng::seed_from_u64(3);
        let reps = 300;
        let mean: f64 = (0..reps)
            .map(|_| estimate_allocated(&spec, &terms, 1500, Allocator::Proportional, &mut rng))
            .sum::<f64>()
            / reps as f64;
        assert!((mean - 0.44).abs() < 0.02, "allocated mean {mean}");
    }

    #[test]
    fn uniform_allocation_also_unbiased() {
        let (spec, terms) = fixture();
        let mut rng = StdRng::seed_from_u64(4);
        let reps = 300;
        let mean: f64 = (0..reps)
            .map(|_| estimate_allocated(&spec, &terms, 1500, Allocator::Uniform, &mut rng))
            .sum::<f64>()
            / reps as f64;
        assert!((mean - 0.44).abs() < 0.02, "uniform mean {mean}");
    }

    #[test]
    fn sweep_matches_fresh_estimates_in_distribution() {
        let (spec, terms) = fixture();
        let checkpoints = vec![300, 600, 1200, 2400];
        let mut rng = StdRng::seed_from_u64(5);
        // Mean over repetitions of the sweep at each checkpoint ≈ 0.44.
        let reps = 200;
        let mut means = vec![0.0f64; checkpoints.len()];
        for _ in 0..reps {
            let est = proportional_sweep(&spec, &terms, &checkpoints, &mut rng);
            for (m, e) in means.iter_mut().zip(est.iter()) {
                *m += e;
            }
        }
        for (i, m) in means.iter().enumerate() {
            let mean = m / reps as f64;
            assert!(
                (mean - 0.44).abs() < 0.03,
                "sweep checkpoint {i} mean {mean}"
            );
        }
    }

    #[test]
    fn sweep_error_decreases_with_budget() {
        let (spec, terms) = fixture();
        let checkpoints = vec![100, 400, 1600, 6400];
        let mut rng = StdRng::seed_from_u64(6);
        let reps = 150;
        let mut mse = vec![0.0f64; checkpoints.len()];
        for _ in 0..reps {
            let est = proportional_sweep(&spec, &terms, &checkpoints, &mut rng);
            for (m, e) in mse.iter_mut().zip(est.iter()) {
                *m += (e - 0.44) * (e - 0.44);
            }
        }
        for w in mse.windows(2) {
            assert!(w[1] < w[0], "MSE not decreasing: {mse:?}");
        }
        // 4× budget → ~4× lower MSE; check within a factor of 2.
        let ratio = mse[0] / mse[1];
        assert!(ratio > 2.0 && ratio < 8.0, "MSE scaling ratio {ratio}");
    }

    #[test]
    fn zero_shots_returns_zero() {
        let (spec, terms) = fixture();
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(estimate_stochastic(&spec, &terms, 0, &mut rng), 0.0);
        let est = estimate_with_allocation(&spec, &terms, &[0, 0, 0], &mut rng);
        assert_eq!(est, 0.0);
        assert_eq!(estimate_sequential(&spec, &terms, 0, 4, &mut rng), 0.0);
    }

    #[test]
    fn sequential_estimator_is_unbiased() {
        let (spec, terms) = fixture();
        let mut rng = StdRng::seed_from_u64(21);
        let reps = 300;
        let mean: f64 = (0..reps)
            .map(|_| estimate_sequential(&spec, &terms, 1500, 4, &mut rng))
            .sum::<f64>()
            / reps as f64;
        assert!((mean - 0.44).abs() < 0.02, "sequential mean {mean}");
    }

    #[test]
    fn sequential_spends_the_exact_budget() {
        // A counting wrapper verifies the batches sum to total_shots even
        // when the budget does not divide the batch count.
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Counting<'a>(&'a AtomicU64, BernoulliTerm);
        impl TermSampler for Counting<'_> {
            fn sample_observable(&self, rng: &mut dyn rand::RngCore) -> f64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                self.1.sample_observable(rng)
            }
            fn sample_observable_sum(&self, shots: u64, rng: &mut dyn rand::RngCore) -> f64 {
                self.0.fetch_add(shots, Ordering::Relaxed);
                self.1.sample_observable_sum(shots, rng)
            }
            fn exact_expectation(&self) -> f64 {
                self.1.exact_expectation()
            }
        }
        let (spec, terms) = fixture();
        let counter = AtomicU64::new(0);
        let counting: Vec<Counting> = terms.iter().map(|&t| Counting(&counter, t)).collect();
        let mut rng = StdRng::seed_from_u64(22);
        estimate_sequential(&spec, &counting, 1000, 3, &mut rng);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn far_more_batches_than_shots_spend_one_batch() {
        // Every batch but the last is empty; the loop starts at the last
        // one, so u64::MAX batches return at once with the draws of one.
        let (spec, terms) = fixture();
        let many = estimate_sequential(&spec, &terms, 10, u64::MAX, &mut StdRng::seed_from_u64(24));
        let one = estimate_sequential(&spec, &terms, 10, 1, &mut StdRng::seed_from_u64(24));
        assert_eq!(many.to_bits(), one.to_bits());
    }

    #[test]
    fn sequential_single_batch_matches_proportional_in_distribution() {
        let (spec, terms) = fixture();
        let reps = 400;
        let shots = 900;
        let mut rng = StdRng::seed_from_u64(23);
        let stats = |f: &mut dyn FnMut(&mut StdRng) -> f64, rng: &mut StdRng| -> (f64, f64) {
            let xs: Vec<f64> = (0..reps).map(|_| f(rng)).collect();
            let m = xs.iter().sum::<f64>() / reps as f64;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (reps - 1) as f64;
            (m, v)
        };
        let (m_seq, v_seq) = stats(
            &mut |r| estimate_sequential(&spec, &terms, shots, 1, r),
            &mut rng,
        );
        let (m_prop, v_prop) = stats(
            &mut |r| estimate_allocated(&spec, &terms, shots, Allocator::Proportional, r),
            &mut rng,
        );
        assert!((m_seq - m_prop).abs() < 0.03, "means {m_seq} vs {m_prop}");
        let ratio = v_seq / v_prop;
        assert!(
            (0.5..2.0).contains(&ratio),
            "variance ratio {ratio} ({v_seq} vs {v_prop})"
        );
    }

    #[test]
    fn batched_sum_matches_per_shot_default_in_distribution() {
        // BernoulliTerm overrides sample_observable_sum with a binomial
        // draw; a wrapper that hides the override falls back to the
        // per-shot default. Their means and variances must agree.
        struct PerShotOnly(BernoulliTerm);
        impl TermSampler for PerShotOnly {
            fn sample_observable(&self, rng: &mut dyn rand::RngCore) -> f64 {
                self.0.sample_observable(rng)
            }
            fn exact_expectation(&self) -> f64 {
                self.0.exact_expectation()
            }
        }
        let term = BernoulliTerm::new(0.37);
        let slow = PerShotOnly(term);
        let shots = 400u64;
        let reps = 4000;
        let stats = |s: &dyn TermSampler, seed: u64| -> (f64, f64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<f64> = (0..reps)
                .map(|_| s.sample_observable_sum(shots, &mut rng) / shots as f64)
                .collect();
            let m = xs.iter().sum::<f64>() / reps as f64;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (reps - 1) as f64;
            (m, v)
        };
        let (m_fast, v_fast) = stats(&term, 71);
        let (m_slow, v_slow) = stats(&slow, 72);
        assert!((m_fast - 0.37).abs() < 0.01, "batched mean {m_fast}");
        assert!((m_slow - 0.37).abs() < 0.01, "per-shot mean {m_slow}");
        // Var of the mean = (1 − e²)/shots ≈ 0.00216; agreement within 15%.
        let v_true = (1.0 - 0.37f64 * 0.37) / shots as f64;
        assert!(
            (v_fast - v_true).abs() < 0.15 * v_true,
            "batched var {v_fast}"
        );
        assert!(
            (v_slow - v_true).abs() < 0.15 * v_true,
            "per-shot var {v_slow}"
        );
    }

    #[test]
    fn stochastic_estimator_consumes_terms_multinomially() {
        // With the batched path the estimator must still weight each
        // term by κ·sign and stay unbiased at tiny shot counts where the
        // multinomial is lumpy.
        let (spec, terms) = fixture();
        let mut rng = StdRng::seed_from_u64(73);
        let reps = 6000;
        let mean: f64 = (0..reps)
            .map(|_| estimate_stochastic(&spec, &terms, 7, &mut rng))
            .sum::<f64>()
            / reps as f64;
        // SE ≈ κ/√(reps·shots) ≈ 0.0146; allow 4σ.
        assert!((mean - 0.44).abs() < 0.06, "mean {mean}");
    }

    /// The per-call path `BernoulliTerm::sample_observable_sum` took
    /// before the term prepared its law at construction, kept verbatim
    /// as the oracle.
    fn per_call_sum(e: f64, shots: u64, rng: &mut dyn rand::RngCore) -> f64 {
        let p_plus = ((1.0 + e) / 2.0).clamp(0.0, 1.0);
        let plus = qsample::binomial(shots, p_plus, rng);
        2.0 * plus as f64 - shots as f64
    }

    /// Expectations worth naming: both ends, the fixtures' values and
    /// zero, where the prepared law sits at the mirror point `p = ½`.
    const NAMED_ES: [f64; 5] = [-1.0, -0.6, 0.0, 0.37, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A prepared term draws the per-call oracle's sums and leaves
        /// the RNG where the oracle leaves it, batch after batch, on
        /// both sides of the BINV/BTPE switch.
        #[test]
        fn prepared_term_matches_the_per_call_binomial(
            e in prop_oneof![
                -1.0f64..1.0,
                (0..NAMED_ES.len()).prop_map(|i| NAMED_ES[i]),
            ],
            batches in proptest::collection::vec(prop_oneof![0u64..41, 0u64..1_000_001], 1..16),
            stream in 0u64..1 << 40,
        ) {
            let term = BernoulliTerm::new(e);
            let mut expected = qsample::StreamRng::new(0xBE27, stream);
            let mut prepared = expected.clone();
            for &n in &batches {
                let oracle = per_call_sum(e, n, &mut expected);
                prop_assert_eq!(
                    term.sample_observable_sum(n, &mut prepared).to_bits(),
                    oracle.to_bits(),
                    "e = {}, n = {}", e, n
                );
                prop_assert_eq!(prepared.position(), expected.position());
            }
            prop_assert_eq!(term.exact_expectation().to_bits(), e.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A batch draw records, in term order, the bits each term's
        /// `sample_observable_sum` draws on its own lane `root.split(i)`.
        #[test]
        fn batch_draw_matches_the_per_term_sums(
            terms in proptest::collection::vec(
                (
                    prop_oneof![-1.0f64..1.0, (0..NAMED_ES.len()).prop_map(|i| NAMED_ES[i])],
                    prop_oneof![0u64..5, 0u64..41, 0u64..1_000_001],
                ),
                0..150,
            ),
            stream in 0u64..1 << 40,
        ) {
            let root = qsample::StreamRng::new(0xBA7C, stream);
            let laws: Vec<BernoulliTerm> = terms.iter().map(|&(e, _)| BernoulliTerm::new(e)).collect();
            let shots: Vec<u64> = terms.iter().map(|&(_, n)| n).collect();
            let mut got = Vec::with_capacity(terms.len());
            BernoulliTerm::sample_batch(&laws, &shots, &root, |i, sum| got.push((i, sum.to_bits())));
            let want: Vec<(usize, u64)> = laws
                .iter()
                .zip(&shots)
                .enumerate()
                .map(|(i, (t, &n))| {
                    (i, t.sample_observable_sum(n, &mut root.split(i as u64)).to_bits())
                })
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "one shot count per term")]
    fn batch_draw_needs_one_shot_count_per_term() {
        let root = qsample::StreamRng::new(1, 2);
        BernoulliTerm::sample_batch(&[BernoulliTerm::new(0.1)], &[], &root, |_, _| {});
    }

    #[test]
    fn bernoulli_term_sampling_is_calibrated() {
        let t = BernoulliTerm::new(-0.6);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| t.sample_observable(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean + 0.6).abs() < 0.02);
    }
}
