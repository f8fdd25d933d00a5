//! **E2 — Theorem 1 / Corollary 1**: measured sampling overhead versus
//! the closed-form optimum `γ^{Φk}(I) = 4(k²+1)/(k+1)² − 1`.
//!
//! The sampling overhead manifests as estimator variance: with
//! proportional allocation the estimator variance is exactly
//!
//! `Var = (1/N) · κ · Σᵢ |cᵢ| · σᵢ²`,  `σᵢ² = 1 − ⟨Z⟩ᵢ²`
//!
//! so `N·Var ≤ κ²`. We report three numbers per `k`: the closed form γ,
//! the QPD 1-norm of the constructed cut, and the *empirically measured*
//! effective overhead `κ_emp = √(N·Var_emp / Var_base)` where `Var_base`
//! is the single-qubit binomial variance of the teleportation baseline —
//! the quantity Figure 6's error curves integrate over random states.
//! Every repetition draws its whole budget through the batched shot
//! engine, so the variance scan stays cheap at large `N`.

use crate::stats::{mean, variance};
use qpd::{estimate_allocated, Allocator};
use qsample::grid::ShardedGrid;
use qsim::{haar_unitary, Pauli};
use wirecut::{theory, NmeCut, PreparedCut, WireCut};

/// Stream tag for the Haar-state lane, shared across `k` values so every
/// resource level measures variance on the same random states.
const STATE_STREAM: u64 = 0xE2;

/// Configuration for the overhead measurement.
#[derive(Clone, Debug)]
pub struct OverheadConfig {
    /// Resource parameters `k` to evaluate.
    pub k_values: Vec<f64>,
    /// Shots per estimate.
    pub shots: u64,
    /// Repetitions per (k, state) for the variance estimate.
    pub repetitions: usize,
    /// Random input states averaged over.
    pub num_states: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        Self {
            k_values: vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            shots: 2000,
            repetitions: 120,
            num_states: 12,
            seed: 77,
            threads: 0,
        }
    }
}

/// One row of the overhead table.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Resource parameter.
    pub k: f64,
    /// Entanglement level `f(Φ_k)`.
    pub overlap: f64,
    /// Closed-form optimum (Corollary 1).
    pub gamma_theory: f64,
    /// 1-norm of the constructed Theorem 2 QPD.
    pub kappa_construction: f64,
    /// Empirical effective overhead from measured variance.
    pub kappa_empirical: f64,
    /// Predicted variance from the exact per-term expectations.
    pub predicted_variance: f64,
    /// Measured estimator variance.
    pub measured_variance: f64,
}

/// Exact variance of the proportional-allocation estimator:
/// `Σᵢ cᵢ²·σᵢ²/nᵢ` with `nᵢ = pᵢ·N`.
pub fn predicted_variance(spec: &qpd::QpdSpec, exact_terms: &[f64], total_shots: u64) -> f64 {
    let alloc = Allocator::Proportional.allocate(spec, total_shots);
    spec.terms()
        .iter()
        .zip(exact_terms.iter())
        .zip(alloc.iter())
        .map(|((t, &e), &n)| {
            if n == 0 {
                0.0
            } else {
                t.coefficient * t.coefficient * (1.0 - e * e) / n as f64
            }
        })
        .sum()
}

/// Runs the overhead measurement.
pub fn run(config: &OverheadConfig) -> Vec<OverheadRow> {
    // One shard per (k, state) cell, k-major; the Haar state comes from
    // a state-keyed stream so every k measures the same states.
    let cells: Vec<(f64, u64)> = config
        .k_values
        .iter()
        .flat_map(|&k| (0..config.num_states as u64).map(move |s| (k, s)))
        .collect();
    let per_cell: Vec<(f64, f64, f64)> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(k, s), ctx| {
            let cut = NmeCut::new(k);
            let baseline = NmeCut::new(1.0);
            let w = haar_unitary(2, &mut ctx.shared(&(STATE_STREAM, s)));
            let prepared = PreparedCut::new(&cut, &w, Pauli::Z);
            let exact_terms: Vec<f64> = prepared
                .terms
                .iter()
                .map(qpd::TermSampler::exact_expectation)
                .collect();
            let pred = predicted_variance(&prepared.spec, &exact_terms, config.shots);
            let rng = ctx.rng();
            let estimates: Vec<f64> = (0..config.repetitions)
                .map(|_| {
                    estimate_allocated(
                        &prepared.spec,
                        &prepared.terms,
                        config.shots,
                        Allocator::Proportional,
                        rng,
                    )
                })
                .collect();
            let measured = variance(&estimates);
            // Baseline variance for the same state at k = 1.
            let base = PreparedCut::new(&baseline, &w, Pauli::Z);
            let base_terms: Vec<f64> = base
                .terms
                .iter()
                .map(qpd::TermSampler::exact_expectation)
                .collect();
            let base_pred = predicted_variance(&base.spec, &base_terms, config.shots);
            (measured, pred, base_pred)
        });
    config
        .k_values
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            let cut = NmeCut::new(k);
            let block = &per_cell[ki * config.num_states..(ki + 1) * config.num_states];
            let measured = mean(&block.iter().map(|x| x.0).collect::<Vec<_>>());
            let predicted = mean(&block.iter().map(|x| x.1).collect::<Vec<_>>());
            let base = mean(&block.iter().map(|x| x.2).collect::<Vec<_>>());
            let kappa_emp = if base > 0.0 {
                (measured / base).sqrt()
            } else {
                f64::NAN
            };
            OverheadRow {
                k,
                overlap: entangle::PhiK::new(k).overlap(),
                gamma_theory: theory::gamma_phi_k(k),
                kappa_construction: cut.kappa(),
                kappa_empirical: kappa_emp,
                predicted_variance: predicted,
                measured_variance: measured,
            }
        })
        .collect()
}

/// Formats rows as a table.
pub fn to_table(rows: &[OverheadRow]) -> crate::csvout::Table {
    let mut t = crate::csvout::Table::new(&[
        "k",
        "overlap_f",
        "gamma_theory",
        "kappa_construction",
        "kappa_empirical",
        "predicted_variance",
        "measured_variance",
    ]);
    for r in rows {
        t.push_row(vec![
            r.k,
            r.overlap,
            r.gamma_theory,
            r.kappa_construction,
            r.kappa_empirical,
            r.predicted_variance,
            r.measured_variance,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OverheadConfig {
        OverheadConfig {
            k_values: vec![0.0, 0.5, 1.0],
            shots: 800,
            repetitions: 60,
            num_states: 6,
            seed: 5,
            threads: 2,
        }
    }

    #[test]
    fn construction_matches_theory_exactly() {
        for row in run(&small()) {
            assert!(
                (row.kappa_construction - row.gamma_theory).abs() < 1e-12,
                "construction suboptimal at k={}",
                row.k
            );
        }
    }

    #[test]
    fn measured_variance_tracks_prediction() {
        for row in run(&small()) {
            let ratio = row.measured_variance / row.predicted_variance.max(1e-12);
            assert!(
                ratio > 0.5 && ratio < 2.0,
                "variance prediction off at k={}: measured {} predicted {}",
                row.k,
                row.measured_variance,
                row.predicted_variance
            );
        }
    }

    #[test]
    fn empirical_overhead_decreases_with_k() {
        let rows = run(&small());
        assert!(
            rows[0].kappa_empirical > rows[2].kappa_empirical,
            "empirical overhead not decreasing: {} vs {}",
            rows[0].kappa_empirical,
            rows[2].kappa_empirical
        );
        // k = 1 baseline has effective overhead ≈ 1.
        assert!(
            (rows[2].kappa_empirical - 1.0).abs() < 0.35,
            "baseline effective overhead {}",
            rows[2].kappa_empirical
        );
    }

    #[test]
    fn predicted_variance_formula() {
        // Two-term spec with coefficients (1, −1), exact values (0, 0):
        // Var = 1/n₁ + 1/n₂ with n = 50/50 split of 100.
        let spec = qpd::QpdSpec::from_parts(&[(1.0, 0.0), (-1.0, 0.0)]);
        let v = predicted_variance(&spec, &[0.0, 0.0], 100);
        assert!((v - (1.0 / 50.0 + 1.0 / 50.0)).abs() < 1e-12);
    }
}
