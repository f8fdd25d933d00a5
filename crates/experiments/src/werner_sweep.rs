//! **E15 — the full Werner p-sweep** (ROADMAP "Werner-state sweeps"):
//! the Pauli-inversion wire cut `κ_inv(p) = (3/p − 1)/2` swept densely
//! over `p ∈ [1/3, 1]`, with statistical confidence bands per grid
//! point, against the Theorem 1 bound `γ = 2/f − 1` for Bell-diagonal
//! states (`f(ρ_W) = (1 + 3p)/4`).
//!
//! Where E10 ([`crate::werner`]) spot-checks a handful of `p` values
//! through full 5-qubit term-circuit simulation, this sweep rides the
//! **closed-form batched sampler path**
//! ([`wirecut::mixed::BellDiagonalCut::z_samplers`]): the Werner
//! teleportation channel is Pauli, so each term's `⟨Z⟩` is known in
//! closed form and a whole shot allocation is one exact binomial draw —
//! a dense p-grid costs `O(p_steps · states · repetitions)` binomials,
//! independent of the shot budget.
//!
//! Two statistics are reported per `p`:
//!
//! * **`kappa_hat`** — the empirically measured sampling overhead
//!   `κ̂ = κ_inv · √(Var_measured / Var_predicted)`, where
//!   `Var_predicted = Σᵢ cᵢ²σᵢ²/nᵢ` is the exact proportional-allocation
//!   variance ([`crate::overhead::predicted_variance`]). `E[κ̂] ≈ κ_inv`,
//!   so `tests/werner_sweep.rs` pins `κ̂(p)` to `(3/p − 1)/2` within 5
//!   standard errors across the whole sweep.
//! * **`wilson_halfwidth`** — the per-estimate confidence band: each
//!   term's ±1 counts get a Wilson score interval
//!   ([`crate::stats::wilson_interval`]) at the configured z, and the
//!   bands propagate through the QPD as `Σᵢ |cᵢ|·(hiᵢ − loᵢ)`;
//!   `band_coverage` records the fraction of estimates inside their
//!   band (≈ 1 at 5σ).
//!
//! The whole `(p, state)` grid is sharded by
//! [`qsample::grid::ShardedGrid`]; Haar states ride a state-keyed stream
//! so every `p` measures the same states (paired design), and the CSV is
//! byte-identical for any thread count.
//!
//! Run via `cargo run --release -p experiments --bin werner_sweep`
//! (writes `results/werner_sweep.csv`).

use crate::csvout::Table;
use crate::stats::{measure_overhead_cell, OverheadMeasurement, RunningStats};
use entangle::werner;
use qsample::grid::ShardedGrid;
use qsim::{haar_unitary, Pauli};
use wirecut::mixed::{inversion_kappa, optimal_gamma_bell_diagonal, BellDiagonalCut};

/// Stream tag for the Haar-state lane, shared across `p` so the whole
/// sweep measures the same random states.
const STATE_STREAM: u64 = 0xE15;

/// Configuration of the Werner p-sweep.
#[derive(Clone, Debug)]
pub struct WernerSweepConfig {
    /// Lowest Werner parameter (must stay > 0 for invertibility; the
    /// default 1/3 is the separability boundary).
    pub p_min: f64,
    /// Highest Werner parameter (1 = pure Bell resource).
    pub p_max: f64,
    /// Number of grid points, inclusive of both endpoints.
    pub p_steps: usize,
    /// Shot budget per estimate.
    pub shots: u64,
    /// Random states averaged over per grid point.
    pub num_states: usize,
    /// Estimates per state (drives the variance measurement).
    pub repetitions: usize,
    /// Wilson-band z-score (5.0 = the suite's 5σ convention).
    pub band_z: f64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for WernerSweepConfig {
    fn default() -> Self {
        Self {
            p_min: 1.0 / 3.0,
            p_max: 1.0,
            p_steps: 41,
            shots: 2048,
            num_states: 12,
            repetitions: 48,
            band_z: 5.0,
            seed: 1508,
            threads: 0,
        }
    }
}

impl WernerSweepConfig {
    /// The inclusive p-grid, ascending.
    pub fn p_grid(&self) -> Vec<f64> {
        assert!(self.p_steps >= 2, "need at least the two endpoints");
        assert!(self.p_min > 0.0 && self.p_max <= 1.0 && self.p_min < self.p_max);
        (0..self.p_steps)
            .map(|i| self.p_min + (self.p_max - self.p_min) * i as f64 / (self.p_steps - 1) as f64)
            .collect()
    }
}

/// Runs the sweep. Columns: `(p, fef, gamma_optimal, kappa_inversion,
/// kappa_hat, kappa_hat_se, mean_abs_error, wilson_halfwidth,
/// band_coverage)`.
pub fn run(config: &WernerSweepConfig) -> Table {
    let mut t = Table::new(&[
        "p",
        "fef",
        "gamma_optimal",
        "kappa_inversion",
        "kappa_hat",
        "kappa_hat_se",
        "mean_abs_error",
        "wilson_halfwidth",
        "band_coverage",
    ]);
    let p_grid = config.p_grid();
    // One shard per (p, state) cell, p-major.
    let cells: Vec<(f64, u64)> = p_grid
        .iter()
        .flat_map(|&p| (0..config.num_states as u64).map(move |s| (p, s)))
        .collect();
    let per_cell: Vec<OverheadMeasurement> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(p, s), ctx| {
            let cut = BellDiagonalCut::werner(p);
            let kappa = inversion_kappa(cut.weights);
            let w = haar_unitary(2, &mut ctx.shared(&(STATE_STREAM, s)));
            let z = wirecut::uncut_expectation(&w, Pauli::Z);
            // Closed-form batched sampler family — no term circuits; the
            // cell reduction (variance-ratio κ̂ + propagated Wilson band)
            // is the shared `stats::measure_overhead_cell` used by E16.
            let (spec, samplers) = cut.z_samplers(z);
            let exact_terms: Vec<f64> = cut.z_term_expectations(z);
            measure_overhead_cell(
                &spec,
                &samplers,
                z,
                &exact_terms,
                kappa,
                config.shots,
                config.repetitions,
                config.band_z,
                ctx.rng(),
            )
        });
    for (pi, &p) in p_grid.iter().enumerate() {
        let cut = BellDiagonalCut::werner(p);
        let fef = entangle::fully_entangled_fraction(&werner(p));
        let gamma = optimal_gamma_bell_diagonal(cut.weights);
        let kappa = inversion_kappa(cut.weights);
        let block = &per_cell[pi * config.num_states..(pi + 1) * config.num_states];
        let mut kh = RunningStats::new();
        let mut err = RunningStats::new();
        let mut band = RunningStats::new();
        let mut cov = RunningStats::new();
        for cell in block {
            kh.push(cell.kappa_hat);
            err.push(cell.mean_abs_error);
            band.push(cell.band_halfwidth);
            cov.push(cell.covered_fraction);
        }
        t.push_row(vec![
            p,
            fef,
            gamma,
            kappa,
            kh.mean(),
            kh.std_err(),
            err.mean(),
            band.mean(),
            cov.mean(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WernerSweepConfig {
        WernerSweepConfig {
            p_steps: 5,
            shots: 1024,
            num_states: 6,
            repetitions: 24,
            seed: 9,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn p_grid_spans_inclusive_range() {
        let g = small().p_grid();
        assert_eq!(g.len(), 5);
        assert!((g[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((g[4] - 1.0).abs() < 1e-12);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn closed_forms_populate_the_table() {
        let t = run(&small());
        assert_eq!(t.rows().len(), 5);
        for row in t.rows() {
            let p = row[0];
            // fef = (1 + 3p)/4, γ = 2/f − 1, κ_inv = (3/p − 1)/2.
            assert!(
                (row[1] - (1.0 + 3.0 * p) / 4.0).abs() < 1e-8,
                "fef at p={p}"
            );
            let f = row[1].max(0.5);
            assert!((row[2] - (2.0 / f - 1.0)).abs() < 1e-8, "gamma at p={p}");
            assert!(
                (row[3] - (3.0 / p - 1.0) / 2.0).abs() < 1e-9,
                "kappa at p={p}"
            );
        }
    }

    #[test]
    fn kappa_hat_tracks_the_closed_form() {
        let t = run(&small());
        for row in t.rows() {
            let (kappa, kappa_hat, se) = (row[3], row[4], row[5]);
            // Loose in-module gate; the 5σ version lives in
            // tests/werner_sweep.rs at larger scale.
            assert!(
                (kappa_hat - kappa).abs() < 8.0 * se.max(0.02 * kappa),
                "κ̂ {kappa_hat} vs κ {kappa} (se {se}) at p={}",
                row[0]
            );
        }
    }

    #[test]
    fn bands_cover_the_estimates() {
        let t = run(&small());
        for row in t.rows() {
            assert!(row[8] > 0.95, "coverage {} at p={}", row[8], row[0]);
            assert!(row[7] > 0.0, "degenerate band at p={}", row[0]);
        }
    }

    #[test]
    fn error_shrinks_towards_the_pure_resource() {
        let t = run(&small());
        let first = t.rows().first().unwrap()[6];
        let last = t.rows().last().unwrap()[6];
        assert!(
            last < first,
            "error did not drop from p=1/3 ({first}) to p=1 ({last})"
        );
    }
}
