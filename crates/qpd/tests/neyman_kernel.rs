//! Bit-exactness of the fused Neyman kernel behind
//! `SequentialAllocator::next_allocation{,_into}`, `neyman_allocation`
//! and `largest_remainder`, against the allocation path it replaced:
//! `neyman_allocation(spec, &seq.sigma_estimates(), batch)` with its
//! own `largest_remainder`, kept below verbatim as the oracle.
//!
//! The cases are tie-heavy product specs of up to 3⁸ terms, pooled
//! states with unseen terms, means at ±1 and large counts, and budgets
//! below, at and above the term count.

use proptest::prelude::*;
use qpd::{largest_remainder, neyman_allocation, QpdSpec, SequentialAllocator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---- the oracle: the allocation path before the fused kernel --------

fn oracle_sigma_estimates(sums: &[f64], counts: &[u64]) -> Vec<f64> {
    sums.iter()
        .zip(counts.iter())
        .map(|(&sum, &n)| {
            if n == 0 {
                1.0
            } else {
                let mean = (sum / n as f64).clamp(-1.0, 1.0);
                let var = (1.0 - mean * mean).max(0.0);
                ((var * n as f64 + 1.0) / (n as f64 + 1.0)).sqrt()
            }
        })
        .collect()
}

fn oracle_neyman_allocation(spec: &QpdSpec, sigmas: &[f64], total: u64) -> Vec<u64> {
    assert_eq!(spec.len(), sigmas.len());
    assert!(
        sigmas.iter().all(|&s| s.is_finite() && s >= 0.0),
        "per-term σ must be finite and non-negative: {sigmas:?}"
    );
    let weights: Vec<f64> = spec
        .terms()
        .iter()
        .zip(sigmas.iter())
        .map(|(t, &s)| t.coefficient.abs() * s)
        .collect();
    let wsum: f64 = weights.iter().sum();
    if wsum < 1e-300 {
        // All terms noiseless: fall back to proportional.
        return oracle_largest_remainder(&spec.probabilities(), total);
    }
    let m = spec.len() as u64;
    if total <= m {
        let base = total / m;
        let extra = (total % m) as usize;
        return (0..spec.len())
            .map(|i| base + u64::from(i < extra))
            .collect();
    }
    // Reserve one shot per term, Neyman-split the rest.
    let mut counts = oracle_largest_remainder(&weights, total - m);
    for c in counts.iter_mut() {
        *c += 1;
    }
    counts
}

fn oracle_largest_remainder(weights: &[f64], total: u64) -> Vec<u64> {
    assert!(
        weights.iter().all(|&w| w.is_finite() && w >= 0.0),
        "allocation weights must be finite and non-negative: {weights:?}"
    );
    let sum: f64 = weights.iter().sum();
    assert!(sum > 0.0, "zero weight vector: {weights:?}");
    let mut counts = Vec::with_capacity(weights.len());
    let mut fractions = Vec::with_capacity(weights.len());
    for w in weights {
        let ideal = w / sum * total as f64;
        let floor = ideal.floor();
        counts.push(floor as u64);
        fractions.push(ideal - floor);
    }
    let assigned: u64 = counts.iter().sum();
    let remainder = total.saturating_sub(assigned);
    let len = weights.len() as u64;
    if remainder >= len {
        for c in counts.iter_mut() {
            *c += remainder / len;
        }
    }
    let extra = (remainder % len) as usize;
    if extra > 0 {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.select_nth_unstable_by(extra - 1, |&i, &j| {
            fractions[j].total_cmp(&fractions[i]).then(i.cmp(&j))
        });
        for &i in &order[..extra] {
            counts[i] += 1;
        }
    }
    counts
}

// ---- generators -----------------------------------------------------

/// A product of 1–8 factor specs, each of 2 or 3 terms drawn from a
/// small coefficient palette, so the product's |coefficients| take few
/// distinct values and the remainders tie heavily. One spec in four is
/// eight 3-term factors, the full 3⁸ = 6561 terms.
fn tied_product_spec(rng: &mut StdRng) -> QpdSpec {
    const PALETTE: [f64; 6] = [0.5, -0.25, 0.75, 1.0 / 3.0, -1.0 / 7.0, 1.25];
    let full = rng.gen_range(0..4) == 0;
    let factors: Vec<QpdSpec> = (0..if full { 8 } else { rng.gen_range(1..9) })
        .map(|_| {
            let parts: Vec<(f64, f64)> = (0..if full { 3 } else { rng.gen_range(2..4) })
                .map(|_| (PALETTE[rng.gen_range(0..PALETTE.len())], 0.0))
                .collect();
            QpdSpec::from_parts(&parts)
        })
        .collect();
    QpdSpec::product(&factors)
}

/// One term's pooled `(sum, shots)` after one recorded batch: unseen,
/// a small or a large count, at a mean of exactly ±1 or anywhere
/// between.
fn pooled_term(rng: &mut StdRng) -> Option<(f64, u64)> {
    let n = match rng.gen_range(0..4) {
        0 => return None,
        1 => between(rng, 1, 6),
        2 => between(rng, 6, 5_000),
        _ => between(rng, 1 << 20, 1 << 40),
    };
    let mean = match rng.gen_range(0..4) {
        0 => 1.0,
        1 => -1.0,
        _ => 2.0 * rng.gen::<f64>() - 1.0,
    };
    Some((mean * n as f64, n))
}

/// A budget below, at, just above or well above the term count `m`.
fn budget(m: u64, rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..5) {
        0 => between(rng, 0, m),
        1 => m,
        2 => m + 1,
        3 => between(rng, m + 2, 4 * m + 3),
        _ => between(rng, 4 * m + 3, 64 * m + 4),
    }
}

/// A draw from `lo..hi`.
fn between(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    lo + rng.gen::<u64>() % (hi - lo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_splits_match_the_oracle_bit_for_bit(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = tied_product_spec(&mut rng);
        let m = spec.len();
        let mut seq = SequentialAllocator::new(m);
        let (mut sums, mut counts) = (vec![0.0; m], vec![0u64; m]);
        let mut out = Vec::new();
        // Three batches on one allocator: the first on an empty pool,
        // the later ones on σ̂ of pooled draws.
        for _ in 0..3 {
            let batch = budget(m as u64, &mut rng);
            let oracle =
                oracle_neyman_allocation(&spec, &oracle_sigma_estimates(&sums, &counts), batch);
            seq.next_allocation_into(&spec, batch, &mut out);
            prop_assert_eq!(&out, &oracle);
            prop_assert_eq!(seq.next_allocation(&spec, batch), oracle);
            for term in 0..m {
                if let Some((sum, n)) = pooled_term(&mut rng) {
                    seq.record(term, sum, n);
                    sums[term] += sum;
                    counts[term] += n;
                }
            }
        }
    }

    #[test]
    fn neyman_and_largest_remainder_match_the_oracle_bit_for_bit(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = tied_product_spec(&mut rng);
        let m = spec.len() as u64;
        // σ from a palette with exact and signed zeros: whole runs of
        // noiseless terms, and all-zero profiles that fall back.
        let palette = [0.0, -0.0, 0.5, 1.0, 0.25];
        let sigmas: Vec<f64> = (0..m)
            .map(|_| palette[rng.gen_range(0..palette.len())])
            .collect();
        let total = budget(m, &mut rng);
        prop_assert_eq!(
            neyman_allocation(&spec, &sigmas, total),
            oracle_neyman_allocation(&spec, &sigmas, total)
        );
        let weights: Vec<f64> = spec.terms().iter().zip(&sigmas).map(|(t, s)| t.coefficient.abs() * s).collect();
        if weights.iter().sum::<f64>() > 0.0 {
            prop_assert_eq!(
                largest_remainder(&weights, total),
                oracle_largest_remainder(&weights, total)
            );
        }
    }
}
