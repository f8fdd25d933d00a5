//! Edge-case and property tests for the shot allocators: every allocator
//! in the crate must spend **exactly** the requested budget — no shot
//! lost, none invented — for arbitrary coefficient vectors, σ profiles,
//! and budgets (including budgets smaller than the term count), and the
//! degenerate-input failure modes must be loud and named.

use nme_wire_cutting::qpd::{
    largest_remainder, neyman_allocation, stochastic_allocation, Allocator, QpdSpec,
    SequentialAllocator,
};
use nme_wire_cutting::qsample::StreamRng;
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use rand::Rng;

/// Arbitrary spec: 1–12 terms with signed coefficients bounded away from
/// an all-zero vector (largest_remainder rejects zero weight vectors; a
/// spec whose κ is zero is not a QPD).
fn arb_spec() -> impl Strategy<Value = QpdSpec> {
    prop_vec(-4.0f64..4.0, 1..12)
        .prop_filter("need nonzero kappa", |cs| {
            cs.iter().map(|c| c.abs()).sum::<f64>() > 1e-6
        })
        .prop_map(|cs| {
            let parts: Vec<(f64, f64)> = cs
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, (i % 2) as f64))
                .collect();
            QpdSpec::from_parts(&parts)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn proportional_spends_exactly_the_budget(spec in arb_spec(), total in 0u64..100_000) {
        let alloc = Allocator::Proportional.allocate(&spec, total);
        prop_assert_eq!(alloc.len(), spec.len());
        prop_assert_eq!(alloc.iter().sum::<u64>(), total);
    }

    #[test]
    fn uniform_spends_exactly_the_budget(spec in arb_spec(), total in 0u64..100_000) {
        let alloc = Allocator::Uniform.allocate(&spec, total);
        prop_assert_eq!(alloc.len(), spec.len());
        prop_assert_eq!(alloc.iter().sum::<u64>(), total);
    }

    #[test]
    fn neyman_spends_exactly_the_budget(
        spec in arb_spec(),
        total in 0u64..100_000,
        sigma_seed in 0u64..1_000,
    ) {
        // Arbitrary σ profile, including exact zeros on some terms.
        let sigmas: Vec<f64> = (0..spec.len())
            .map(|i| if (sigma_seed + i as u64).is_multiple_of(3) {
                0.0
            } else {
                ((sigma_seed * 31 + i as u64 * 7) % 100) as f64 / 50.0
            })
            .collect();
        let alloc = neyman_allocation(&spec, &sigmas, total);
        prop_assert_eq!(alloc.len(), spec.len());
        prop_assert_eq!(alloc.iter().sum::<u64>(), total);
    }

    #[test]
    fn stochastic_spends_exactly_the_budget(
        spec in arb_spec(),
        total in 0u64..100_000,
        seed in 0u64..1_000,
    ) {
        let mut rng = StreamRng::new(seed, 0xA110C);
        let alloc = stochastic_allocation(&spec, total, &mut rng);
        prop_assert_eq!(alloc.len(), spec.len());
        prop_assert_eq!(alloc.iter().sum::<u64>(), total);
    }

    #[test]
    fn sequential_spends_exactly_the_budget_every_batch(
        spec in arb_spec(),
        batch in 0u64..10_000,
        obs_seed in 0u64..1_000,
    ) {
        let mut seq = SequentialAllocator::new(spec.len());
        // Feed a couple of rounds of synthetic observations so the σ̂
        // profile is arbitrary (some terms pinned at mean ±1 → σ̂ small,
        // some unseen → σ̂ = 1).
        let mut rng = StreamRng::new(obs_seed, 0x5E0);
        for term in 0..spec.len() {
            if rng.gen::<f64>() < 0.7 {
                let shots = 1 + (rng.gen::<u64>() % 50);
                let mean = 2.0 * rng.gen::<f64>() - 1.0;
                seq.record(term, mean * shots as f64, shots);
            }
        }
        let alloc = seq.next_allocation(&spec, batch);
        prop_assert_eq!(alloc.len(), spec.len());
        prop_assert_eq!(alloc.iter().sum::<u64>(), batch);
    }

    #[test]
    fn largest_remainder_spends_exactly_the_budget(
        weights in prop_vec(0.0f64..10.0, 1..12)
            .prop_filter("need nonzero mass", |ws| ws.iter().sum::<f64>() > 1e-9),
        total in 0u64..100_000,
    ) {
        let alloc = largest_remainder(&weights, total);
        prop_assert_eq!(alloc.iter().sum::<u64>(), total);
    }
}

// ---- largest remainder against the full-sort oracle -----------------

/// The reference apportionment: floor every ideal share, stable-sort
/// all indices by fractional part (descending, ties in index order) and
/// hand out the remaining shots along that order, wrapping around when
/// floating-point error leaves at least one shot per term.
fn largest_remainder_full_sort(weights: &[f64], total: u64) -> Vec<u64> {
    let sum: f64 = weights.iter().sum();
    let ideal: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<u64> = ideal.iter().map(|x| x.floor() as u64).collect();
    let mut assigned: u64 = counts.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&i, &j| {
        let fi = ideal[i] - ideal[i].floor();
        let fj = ideal[j] - ideal[j].floor();
        fj.total_cmp(&fi)
    });
    let mut idx = 0;
    while assigned < total {
        counts[order[idx % order.len()]] += 1;
        assigned += 1;
        idx += 1;
    }
    counts
}

/// Tie-heavy weight vectors: 1–7000 entries, each one of at most four
/// palette values (sevenths, so the ideal shares carry inexact binary
/// fractions), and a budget anywhere in `0..=10·len`.
fn arb_tied_weights() -> impl Strategy<Value = (Vec<f64>, u64)> {
    (
        prop_vec(0u32..9, 4..5),
        prop_vec(0usize..4, 1..7001),
        0u64..70_001,
    )
        .prop_map(|(palette, picks, raw_total)| {
            let weights: Vec<f64> = picks.iter().map(|&p| palette[p] as f64 / 7.0).collect();
            let total = raw_total % (10 * weights.len() as u64 + 1);
            (weights, total)
        })
        .prop_filter("need nonzero mass", |(ws, _)| ws.iter().sum::<f64>() > 0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn largest_remainder_matches_the_full_sort_oracle(case in arb_tied_weights()) {
        let (weights, total) = case;
        let alloc = largest_remainder(&weights, total);
        prop_assert_eq!(alloc, largest_remainder_full_sort(&weights, total));
    }
}

#[test]
fn largest_remainder_matches_the_oracle_at_the_edges() {
    // Budgets at and around the term count, where the remainder pass
    // hands out the most shots, and heavy ties throughout.
    // Totals at 2⁵² and 2⁵³ ± 1, where `total as f64` starts to round,
    // pin the kernel's truncating floor against `floor()`.
    for len in [1usize, 2, 3, 7, 729, 6561] {
        let weights: Vec<f64> = (0..len).map(|i| [1.0, 1.0, 3.0][i % 3] / 7.0).collect();
        let n = len as u64;
        for total in [
            0,
            1,
            n - 1,
            n,
            n + 1,
            10 * n,
            1 << 52,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
        ] {
            assert_eq!(
                largest_remainder(&weights, total),
                largest_remainder_full_sort(&weights, total),
                "len {len} total {total}"
            );
        }
    }
    // Five equal weights of 3/7 normalise to a share just below 1/5, so
    // every ideal share floors one short and the remainder equals the
    // term count: the hand-out wraps around once.
    let weights = [3.0 / 7.0; 5];
    let sum: f64 = weights.iter().sum();
    assert!(
        (weights[0] / sum * 10.0).floor() < 2.0,
        "the wrap-around edge is no longer reached"
    );
    assert_eq!(largest_remainder(&weights, 10), vec![2; 5]);
    assert_eq!(largest_remainder_full_sort(&weights, 10), vec![2; 5]);
}

/// Budgets above 2⁵³, where `total as f64` rounds and the floors alone
/// can overshoot `total`, still sum to exactly `total`, up to
/// `u64::MAX`, in debug and release builds alike. The full-sort oracle
/// cannot follow here (its own `u64` sum of the floors overflows), so
/// the check is the documented exact sum.
#[test]
fn largest_remainder_spends_exactly_the_budget_above_2_pow_53() {
    assert_eq!(
        largest_remainder(&[0.5, 0.5], u64::MAX).iter().sum::<u64>(),
        u64::MAX
    );
    assert_eq!(largest_remainder(&[1.0], u64::MAX), vec![u64::MAX]);
    let mut rng = StreamRng::new(0x2_53, 0xB16);
    for case in 0..600 {
        let len = 2 + (rng.gen::<u64>() % 299) as usize;
        let weights: Vec<f64> = if case % 2 == 0 {
            (0..len).map(|_| rng.gen::<f64>()).collect()
        } else {
            // Tie-heavy: a palette of sevenths, some parts at zero.
            (0..len)
                .map(|_| (rng.gen::<u64>() % 4) as f64 / 7.0)
                .collect()
        };
        if weights.iter().sum::<f64>() == 0.0 {
            continue;
        }
        // Log-uniform between 2⁵³ and 2⁶⁴, plus the top of the range.
        let total = match case % 3 {
            0 => u64::MAX - rng.gen::<u64>() % 4096,
            _ => {
                let bits = 53 + (rng.gen::<u64>() % 12) as u32;
                (1u64 << 53).max(rng.gen::<u64>() >> (64 - bits))
            }
        };
        let counts = largest_remainder(&weights, total);
        let spent: u128 = counts.iter().map(|&c| u128::from(c)).sum();
        assert_eq!(
            spent,
            u128::from(total),
            "case {case}: {len} weights, total {total}"
        );
    }
}

// ---- budgets smaller than the term count ----------------------------

#[test]
fn neyman_with_budget_below_term_count_still_sums_exactly() {
    let spec = QpdSpec::from_parts(&[
        (0.5, 0.0),
        (-0.25, 1.0),
        (0.5, 0.0),
        (0.25, 1.0),
        (-0.5, 0.0),
    ]);
    let sigmas = [1.0, 0.2, 0.0, 0.9, 0.4];
    for total in 0..5u64 {
        let alloc = neyman_allocation(&spec, &sigmas, total);
        assert_eq!(alloc.iter().sum::<u64>(), total, "total {total}: {alloc:?}");
    }
}

#[test]
fn proportional_with_budget_below_term_count_still_sums_exactly() {
    let spec = QpdSpec::from_parts(&[(0.7, 0.0), (-0.2, 1.0), (0.1, 0.0)]);
    for total in 0..3u64 {
        let alloc = Allocator::Proportional.allocate(&spec, total);
        assert_eq!(alloc.iter().sum::<u64>(), total);
    }
}

// ---- loud, named failure modes (the fixed panics) -------------------

#[test]
#[should_panic(expected = "allocation weights must be finite and non-negative")]
fn largest_remainder_names_a_nan_weight() {
    largest_remainder(&[0.5, f64::NAN, 0.25], 100);
}

#[test]
#[should_panic(expected = "allocation weights must be finite and non-negative")]
fn largest_remainder_names_an_infinite_weight() {
    largest_remainder(&[0.5, f64::INFINITY], 100);
}

#[test]
#[should_panic(expected = "zero weight vector")]
fn largest_remainder_rejects_all_zero_weights() {
    largest_remainder(&[0.0, 0.0, 0.0], 100);
}

#[test]
#[should_panic(expected = "per-term σ must be finite and non-negative")]
fn neyman_names_an_infinite_sigma() {
    let spec = QpdSpec::from_parts(&[(0.5, 0.0), (0.5, 1.0)]);
    neyman_allocation(&spec, &[f64::INFINITY, 1.0], 100);
}

#[test]
#[should_panic(expected = "cannot allocate shots across an empty QPD term list")]
fn largest_remainder_rejects_empty_weights() {
    largest_remainder(&[], 100);
}
