//! **E10 — mixed (Werner) resource states** (extension; paper §VI future
//! work): the Pauli-inversion wire cut with `ρ_W = p·Φ + (1−p)·I/4`
//! resources. Reports, per Werner parameter `p`:
//!
//! * `f(ρ_W)` — the fully entangled fraction,
//! * `γ_opt = 2/f − 1` — the Theorem 1 optimum,
//! * `κ_inv = (3/p − 1)/2` — the inversion construction's overhead
//!   (strictly suboptimal for `p < 1`; the gap is the price of losing
//!   coherence in the resource), and
//! * the measured estimation error at a fixed shot budget (one binomial
//!   per term on the law its circuit's exact value fixes, not per-shot
//!   tree walks).

use crate::csvout::Table;
use crate::stats::RunningStats;
use entangle::werner;
use qpd::{estimate_allocated, Allocator};
use qsample::grid::ShardedGrid;
use qsim::{haar_unitary, Pauli};
use wirecut::mixed::{inversion_kappa, optimal_gamma_bell_diagonal, BellDiagonalCut};
use wirecut::PreparedCut;

/// Stream tag for the Haar-state lane, shared across Werner parameters
/// so every `p` sees the same random input states.
const STATE_STREAM: u64 = 0xE10;

/// Configuration of the Werner-resource experiment.
#[derive(Clone, Debug)]
pub struct WernerConfig {
    /// Werner parameters `p` (must keep the channel invertible: p > 0).
    pub p_values: Vec<f64>,
    /// Shot budget per estimate.
    pub shots: u64,
    /// Random states averaged over.
    pub num_states: usize,
    /// Estimates per state.
    pub repetitions: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for WernerConfig {
    fn default() -> Self {
        Self {
            p_values: vec![0.4, 0.6, 0.8, 0.9, 1.0],
            shots: 2000,
            num_states: 16,
            repetitions: 16,
            seed: 777,
            threads: 0,
        }
    }
}

/// Runs the Werner-resource experiment.
pub fn run(config: &WernerConfig) -> Table {
    let mut t = Table::new(&[
        "p",
        "fef",
        "gamma_optimal",
        "kappa_inversion",
        "mean_abs_error",
    ]);
    // One shard per (p, state) cell, p-major.
    let cells: Vec<(f64, u64)> = config
        .p_values
        .iter()
        .flat_map(|&p| (0..config.num_states as u64).map(move |s| (p, s)))
        .collect();
    let per_cell: Vec<f64> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(p, s), ctx| {
            let cut = BellDiagonalCut::werner(p);
            let w = haar_unitary(2, &mut ctx.shared(&(STATE_STREAM, s)));
            let exact = wirecut::uncut_expectation(&w, Pauli::Z);
            let prepared = PreparedCut::new(&cut, &w, Pauli::Z);
            let rng = ctx.rng();
            let mut acc = RunningStats::new();
            for _ in 0..config.repetitions {
                let est = estimate_allocated(
                    &prepared.spec,
                    &prepared.terms,
                    config.shots,
                    Allocator::Proportional,
                    rng,
                );
                acc.push((est - exact).abs());
            }
            acc.mean()
        });
    for (pi, &p) in config.p_values.iter().enumerate() {
        let cut = BellDiagonalCut::werner(p);
        let fef = entangle::fully_entangled_fraction(&werner(p));
        let gamma = optimal_gamma_bell_diagonal(cut.weights);
        let kappa = inversion_kappa(cut.weights);
        let mut agg = RunningStats::new();
        for &e in &per_cell[pi * config.num_states..(pi + 1) * config.num_states] {
            agg.push(e);
        }
        t.push_row(vec![p, fef, gamma, kappa, agg.mean()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WernerConfig {
        WernerConfig {
            p_values: vec![0.5, 1.0],
            shots: 1200,
            num_states: 8,
            repetitions: 10,
            seed: 2,
            threads: 2,
        }
    }

    #[test]
    fn inversion_overhead_bounded_by_optimum() {
        let t = run(&small());
        for row in t.rows() {
            assert!(
                row[3] >= row[2] - 1e-9,
                "inversion beats optimum at p={}",
                row[0]
            );
        }
    }

    #[test]
    fn error_decreases_with_p() {
        let t = run(&small());
        let e_low = t.rows()[0][4];
        let e_high = t.rows()[1][4];
        assert!(
            e_high < e_low,
            "error did not drop with purer resource: {e_high} vs {e_low}"
        );
    }

    #[test]
    fn pure_resource_recovers_teleportation() {
        let t = run(&small());
        let row = t.rows().last().unwrap();
        assert!((row[1] - 1.0).abs() < 1e-9); // FEF = 1
        assert!((row[2] - 1.0).abs() < 1e-9); // γ = 1
        assert!((row[3] - 1.0).abs() < 1e-9); // κ = 1
    }
}
