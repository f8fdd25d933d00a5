//! **E16 — the distill-then-cut map** (ROADMAP "Werner-state sweeps"
//! remainder): compose `m` rounds of DEJMPS recurrence distillation with
//! the Bell-diagonal inversion cut and sweep the whole `(p, m)` grid,
//! measuring where distillation closes the `κ_inversion`-vs-`γ` gap of
//! E15 — and on which cost axis it cannot.
//!
//! Per grid point the sweep reports three closed forms and one
//! measurement:
//!
//! * **`kappa_inversion`** — the direct cut, `(3/p − 1)/2` (the `m = 0`
//!   column of the map; E15's headline);
//! * **`kappa_eff`** — the per-sample overhead of the composed scheme,
//!   `κ_inversion(q⁽ᵐ⁾)` at the distilled weights: for every `p > ⅓`
//!   enough rounds push it below the **raw** Theorem 1 bound
//!   `γ(p) = 2/f − 1` (a single round suffices from `p ≳ 0.66`), because
//!   distillation is LOCC over `2^m` copies and Theorem 1 then only
//!   binds at the distilled resource (`gamma_distilled`);
//! * **`kappa_pair`** — the raw-pair cost at fixed precision,
//!   `κ_eff·√(Πⱼ 2/sⱼ)`: on Werner states this is minimised by `m = 0`
//!   *everywhere* — the fidelity gain per round is second-order in the
//!   noise while the pair bill is not — so the gap never closes on the
//!   pair axis;
//! * **`kappa_hat`** — the measured overhead of the batched sampler
//!   path ([`wirecut::mixed::DistillThenCut::z_samplers`]), reduced by
//!   the shared variance-ratio estimator
//!   ([`crate::stats::measure_overhead_cell`], same implementation as
//!   E15) with 5σ Wilson bands per point.
//!
//! The companion frontier table reduces each `p` to its planner verdict:
//! the argmin-`m` on both axes and the smallest `m` that closes the raw
//! γ gap ([`wirecut::mixed::rounds_to_close_gap`]).
//!
//! The `(p, m, state)` grid is sharded by [`qsample::grid::ShardedGrid`];
//! Haar states ride a state-keyed stream shared across *both* swept
//! parameters (paired design), and the CSVs are byte-identical for any
//! thread count (`tests/sharding_determinism.rs`).
//!
//! Run via `cargo run --release -p experiments --bin distill_cut`
//! (writes `results/distill_cut.csv` and
//! `results/distill_cut_frontier.csv`).

use crate::csvout::Table;
use crate::stats::{measure_overhead_cell, OverheadMeasurement, RunningStats};
use entangle::RecurrenceProtocol;
use qsample::grid::ShardedGrid;
use qsim::{haar_unitary, Pauli};
use wirecut::mixed::{
    inversion_kappa, optimal_rounds, rounds_to_close_gap, BellDiagonalCut, DistillThenCut,
    OverheadMetric,
};

/// Stream tag for the Haar-state lane, shared across `(p, m)` so the
/// whole map measures the same states.
const STATE_STREAM: u64 = 0xE16;

/// Configuration of the distill-then-cut `(p, m)` sweep.
#[derive(Clone, Debug)]
pub struct DistillCutConfig {
    /// Lowest Werner parameter (> 0 for invertibility; the default ⅓ is
    /// the separability boundary, where distillation provably stalls).
    pub p_min: f64,
    /// Highest Werner parameter (1 = pure Bell resource).
    pub p_max: f64,
    /// Number of p-grid points, inclusive of both endpoints.
    pub p_steps: usize,
    /// Recurrence depths swept: `m ∈ 0..=max_rounds`.
    pub max_rounds: usize,
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

impl Default for DistillCutConfig {
    fn default() -> Self {
        Self {
            p_min: 1.0 / 3.0,
            p_max: 1.0,
            p_steps: 21,
            max_rounds: 4,
            shots: 2048,
            num_states: 10,
            repetitions: 32,
            band_z: 5.0,
            seed: 1606,
            threads: 0,
        }
    }
}

impl DistillCutConfig {
    /// The inclusive p-grid, ascending.
    pub fn p_grid(&self) -> Vec<f64> {
        assert!(self.p_steps >= 2, "need at least the two endpoints");
        assert!(self.p_min > 0.0 && self.p_max <= 1.0 && self.p_min < self.p_max);
        (0..self.p_steps)
            .map(|i| self.p_min + (self.p_max - self.p_min) * i as f64 / (self.p_steps - 1) as f64)
            .collect()
    }

    /// The recurrence-depth grid `0..=max_rounds`.
    pub fn m_grid(&self) -> Vec<usize> {
        (0..=self.max_rounds).collect()
    }
}

/// Runs the `(p, m)` sweep. One row per grid point, p-major then
/// m-ascending; columns: `(p, m, fidelity, success_prob,
/// raw_pairs_per_sample, gamma, gamma_distilled, kappa_inversion,
/// kappa_eff, kappa_pair, kappa_hat, kappa_hat_se, mean_abs_error,
/// wilson_halfwidth, band_coverage)`.
pub fn run(config: &DistillCutConfig) -> Table {
    let mut t = Table::new(&[
        "p",
        "m",
        "fidelity",
        "success_prob",
        "raw_pairs_per_sample",
        "gamma",
        "gamma_distilled",
        "kappa_inversion",
        "kappa_eff",
        "kappa_pair",
        "kappa_hat",
        "kappa_hat_se",
        "mean_abs_error",
        "wilson_halfwidth",
        "band_coverage",
    ]);
    let p_grid = config.p_grid();
    let m_grid = config.m_grid();
    // One shard per (p, m, state) cell, p-major then m then state.
    let cells: Vec<(f64, u64, u64)> = p_grid
        .iter()
        .flat_map(|&p| {
            m_grid
                .iter()
                .flat_map(move |&m| (0..config.num_states as u64).map(move |s| (p, m as u64, s)))
        })
        .collect();
    let per_cell: Vec<OverheadMeasurement> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(p, m, s), ctx| {
            let pipeline = DistillThenCut::werner(p, m as usize);
            let kappa = pipeline.kappa_eff();
            // The state stream is keyed by s alone, so every (p, m)
            // measures the same Haar states — the paired design that
            // cancels state variance out of the m-frontier comparison.
            let w = haar_unitary(2, &mut ctx.shared(&(STATE_STREAM, s)));
            let z = wirecut::uncut_expectation(&w, Pauli::Z);
            // Closed-form batched sampler family — the recurrence and
            // the cut are both exact maps; no circuit is simulated.
            let (spec, samplers) = pipeline.z_samplers(z);
            let exact_terms: Vec<f64> = pipeline.z_term_expectations(z);
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
    let stride = config.num_states;
    for (pi, &p) in p_grid.iter().enumerate() {
        for (mi, &m) in m_grid.iter().enumerate() {
            let pipeline = DistillThenCut::werner(p, m);
            let kappa_inv = inversion_kappa(BellDiagonalCut::werner(p).weights);
            let offset = (pi * m_grid.len() + mi) * stride;
            let block = &per_cell[offset..offset + stride];
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
                m as f64,
                pipeline.fidelity(),
                pipeline.success_probability(),
                pipeline.raw_pairs_per_sample(),
                pipeline.gamma_raw(),
                pipeline.gamma_distilled(),
                kappa_inv,
                pipeline.kappa_eff(),
                pipeline.kappa_pair(),
                kh.mean(),
                kh.std_err(),
                err.mean(),
                band.mean(),
                cov.mean(),
            ]);
        }
    }
    t
}

/// The closed-form argmin-`m` frontier: per `p`, the planner verdict on
/// both cost axes and the depth closing the raw γ gap. Columns:
/// `(p, gamma, kappa_inversion, best_m, kappa_eff_best,
/// beats_inversion, closes_gap_m, best_m_pair, kappa_pair_best)`;
/// `closes_gap_m = −1` marks "no depth **up to max_rounds** closes it":
/// the `p = ⅓` fixed point and the `p = 1` endpoint (γ = κ_eff = 1, no
/// gap to close) always report −1, and near-boundary points can too —
/// the closing depth diverges as `p → ⅓` (at the default `max_rounds =
/// 4`, `p ≈ 0.367` needs a fifth round).
pub fn frontier(config: &DistillCutConfig) -> Table {
    let mut t = Table::new(&[
        "p",
        "gamma",
        "kappa_inversion",
        "best_m",
        "kappa_eff_best",
        "beats_inversion",
        "closes_gap_m",
        "best_m_pair",
        "kappa_pair_best",
    ]);
    for &p in &config.p_grid() {
        let raw = DistillThenCut::werner(p, 0);
        let kappa_inv = raw.kappa_eff();
        let (best_m, kappa_best) = optimal_rounds(
            raw.raw_weights(),
            config.max_rounds,
            RecurrenceProtocol::Dejmps,
            OverheadMetric::PerSample,
        );
        let (best_m_pair, kappa_pair_best) = optimal_rounds(
            raw.raw_weights(),
            config.max_rounds,
            RecurrenceProtocol::Dejmps,
            OverheadMetric::PerRawPair,
        );
        let closes = rounds_to_close_gap(
            raw.raw_weights(),
            config.max_rounds,
            RecurrenceProtocol::Dejmps,
        );
        t.push_row(vec![
            p,
            raw.gamma_raw(),
            kappa_inv,
            best_m as f64,
            kappa_best,
            f64::from(u8::from(kappa_best < kappa_inv - 1e-12)),
            closes.map_or(-1.0, |m| m as f64),
            best_m_pair as f64,
            kappa_pair_best,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DistillCutConfig {
        DistillCutConfig {
            p_steps: 5,
            max_rounds: 3,
            shots: 1024,
            num_states: 5,
            repetitions: 16,
            seed: 23,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn grid_shape_and_closed_forms() {
        let cfg = small();
        let t = run(&cfg);
        assert_eq!(t.rows().len(), 5 * 4);
        for row in t.rows() {
            let (p, m) = (row[0], row[1] as usize);
            // The m = 0 column is exactly the E15 inversion cut.
            if m == 0 {
                assert!(
                    (row[8] - row[7]).abs() < 1e-10,
                    "κ_eff(p,0) ≠ κ_inv at p={p}"
                );
                assert!(
                    (row[9] - row[7]).abs() < 1e-10,
                    "κ_pair(p,0) ≠ κ_inv at p={p}"
                );
                assert!((row[4] - 1.0).abs() < 1e-12);
            }
            assert!(
                (row[7] - (3.0 / p - 1.0) / 2.0).abs() < 1e-9,
                "κ_inv at p={p}"
            );
            // Theorem 1 binds at the distilled resource.
            assert!(row[8] >= row[6] - 1e-9, "κ_eff below γ_distilled at p={p}");
            // Pair accounting: at least 2^m raw pairs per sample.
            assert!(row[4] >= (1u64 << m) as f64 - 1e-9);
            // γ closed form of the raw Werner state.
            let f = ((1.0 + 3.0 * p) / 4.0).max(0.5);
            assert!((row[5] - (2.0 / f - 1.0)).abs() < 1e-9, "γ at p={p}");
        }
    }

    #[test]
    fn kappa_hat_tracks_kappa_eff() {
        let t = run(&small());
        for row in t.rows() {
            let (kappa_eff, kappa_hat, se) = (row[8], row[10], row[11]);
            // Loose in-module gate; the 5σ version lives in
            // tests/distill_then_cut.rs at larger scale.
            assert!(
                (kappa_hat - kappa_eff).abs() < 8.0 * se.max(0.03 * kappa_eff),
                "κ̂ {kappa_hat} vs κ_eff {kappa_eff} (se {se}) at p={} m={}",
                row[0],
                row[1]
            );
        }
    }

    #[test]
    fn bands_cover_the_estimates() {
        let t = run(&small());
        for row in t.rows() {
            assert!(
                row[14] > 0.95,
                "coverage {} at p={} m={}",
                row[14],
                row[0],
                row[1]
            );
            assert!(
                row[13] > 0.0,
                "degenerate band at p={} m={}",
                row[0],
                row[1]
            );
        }
    }

    #[test]
    fn frontier_verdicts_match_the_map() {
        let cfg = small();
        let f = frontier(&cfg);
        assert_eq!(f.rows().len(), 5);
        let first = f.rows().first().unwrap();
        let last = f.rows().last().unwrap();
        // p = ⅓ boundary: fidelity is pinned, no depth closes the gap.
        assert!((first[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((first[6] - (-1.0)).abs() < 1e-12, "boundary closes_gap_m");
        // p = 1: nothing to distil on either axis.
        assert!((last[0] - 1.0).abs() < 1e-12);
        assert_eq!(last[3] as i64, 0);
        assert_eq!(last[7] as i64, 0);
        assert!((last[4] - 1.0).abs() < 1e-9 && (last[8] - 1.0).abs() < 1e-9);
        // Headline: some interior p beats inversion per-sample, but the
        // pair axis never rewards a round on Werner inputs.
        assert!(
            f.rows().iter().any(|r| r[5] > 0.5),
            "no p beats direct inversion"
        );
        for r in f.rows() {
            assert_eq!(r[7] as i64, 0, "pair axis chose m>0 at p={}", r[0]);
            assert!(r[4] <= r[2] + 1e-12, "best κ_eff above κ_inv at p={}", r[0]);
        }
    }

    #[test]
    fn frontier_is_consistent_with_the_main_table() {
        let cfg = small();
        let t = run(&cfg);
        let f = frontier(&cfg);
        let m_count = cfg.max_rounds + 1;
        for (pi, frow) in f.rows().iter().enumerate() {
            let block = &t.rows()[pi * m_count..(pi + 1) * m_count];
            let best = block.iter().map(|r| r[8]).fold(f64::INFINITY, f64::min);
            assert!(
                (frow[4] - best).abs() < 1e-9,
                "frontier κ_eff_best {} vs table min {best} at p={}",
                frow[4],
                frow[0]
            );
        }
    }
}
