//! **E1 — Figure 6 reproduction**: mean absolute error of the wire-cut
//! estimate of `⟨Z⟩` versus total shots, for entanglement levels
//! `f(Φ_k) ∈ {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}`.
//!
//! Procedure (paper Section IV, reproduced exactly):
//! 1. sample a Haar-random single-qubit unitary `W` (Mezzadri QR) and
//!    compute the exact `⟨Z⟩_{W|0⟩}` classically;
//! 2. apply the Theorem 2 cut to the wire carrying `W|0⟩`, yielding the
//!    three subcircuits of Figure 5;
//! 3. distribute the total shot budget across subcircuits proportionally
//!    to the QPD coefficients, estimate each term and recombine;
//! 4. record `ε = |⟨Z⟩_sample − ⟨Z⟩_exact|`; average over random states.
//!
//! Each per-term allocation is served by the batched shot engine (one
//! multinomial over compiled branch leaves per checkpoint instead of one
//! tree walk per shot), so the sweep's cost is dominated by the number
//! of (state, overlap) grid points rather than the shot budget. The
//! whole (overlap, state) grid is sharded across workers by
//! [`qsample::grid::ShardedGrid`]: each cell samples from its own
//! counter-based stream keyed by `(f, state)`, while the Haar input
//! state is drawn from a stream keyed by the state index alone — so all
//! six overlap curves see the *same* random states (the paper's paired
//! design) and the result is byte-identical for any thread count.

use crate::stats::RunningStats;
use qpd::proportional_sweep;
use qsample::grid::ShardedGrid;
use qsim::{haar_unitary, Pauli};
use wirecut::{NmeCut, PreparedCut};

/// Configuration of the Figure 6 experiment.
#[derive(Clone, Debug)]
pub struct Fig6Config {
    /// Number of Haar-random input states (paper: 1000).
    pub num_states: usize,
    /// Total-shot checkpoints (paper: up to 5000).
    pub shot_checkpoints: Vec<u64>,
    /// Entanglement levels `f(Φ_k)` (paper: 0.5..1.0 step 0.1).
    pub overlaps: Vec<f64>,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Self {
            num_states: 1000,
            shot_checkpoints: (1..=20).map(|i| i * 250).collect(),
            overlaps: entangle::FIG6_OVERLAPS.to_vec(),
            seed: 20240320,
            threads: 0,
        }
    }
}

/// Result grid: `mean_abs_error[o][c]` is the average error for overlap
/// index `o` at checkpoint index `c`.
#[derive(Clone, Debug)]
pub struct Fig6Result {
    /// The configuration used.
    pub config: Fig6Config,
    /// Mean absolute error per (overlap, checkpoint).
    pub mean_abs_error: Vec<Vec<f64>>,
    /// Standard error of the mean per (overlap, checkpoint).
    pub std_err: Vec<Vec<f64>>,
}

/// Stream tag for the Haar-state lane, shared across overlaps so every
/// entanglement level sees the same random input states.
const STATE_STREAM: u64 = 0xF16;

/// Runs the Figure 6 experiment.
pub fn run(config: &Fig6Config) -> Fig6Result {
    let overlaps = config.overlaps.clone();
    let checkpoints = config.shot_checkpoints.clone();

    // One shard per (overlap, state) cell, overlap-major.
    let cells: Vec<(f64, u64)> = overlaps
        .iter()
        .flat_map(|&f| (0..config.num_states as u64).map(move |s| (f, s)))
        .collect();
    let per_cell: Vec<Vec<f64>> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(f, s), ctx| {
            let mut state_rng = ctx.shared(&(STATE_STREAM, s));
            let w = haar_unitary(2, &mut state_rng);
            let exact = wirecut::uncut_expectation(&w, Pauli::Z);
            let cut = NmeCut::from_overlap(f);
            let prepared = PreparedCut::new(&cut, &w, Pauli::Z);
            let estimates = proportional_sweep(
                &prepared.spec,
                &prepared.samplers(),
                &checkpoints,
                ctx.rng(),
            );
            estimates.iter().map(|e| (e - exact).abs()).collect()
        });

    // Aggregate in grid order (overlap-major).
    let mut grids = vec![vec![RunningStats::new(); checkpoints.len()]; overlaps.len()];
    for (cell, row) in per_cell.iter().enumerate() {
        let o = cell / config.num_states;
        for (c, &err) in row.iter().enumerate() {
            grids[o][c].push(err);
        }
    }
    let mean_abs_error = grids
        .iter()
        .map(|row| row.iter().map(|s| s.mean()).collect())
        .collect();
    let std_err = grids
        .iter()
        .map(|row| row.iter().map(|s| s.std_err()).collect())
        .collect();
    Fig6Result {
        config: config.clone(),
        mean_abs_error,
        std_err,
    }
}

impl Fig6Result {
    /// Emits the result as a table: one row per checkpoint, one error
    /// column per overlap.
    pub fn to_table(&self) -> crate::csvout::Table {
        let mut header = vec!["shots".to_string()];
        for f in &self.config.overlaps {
            header.push(format!("err_f{f:.1}"));
        }
        let refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = crate::csvout::Table::new(&refs);
        for (c, &shots) in self.config.shot_checkpoints.iter().enumerate() {
            let mut row = vec![shots as f64];
            for o in 0..self.config.overlaps.len() {
                row.push(self.mean_abs_error[o][c]);
            }
            t.push_row(row);
        }
        t
    }

    /// The theoretical large-N prediction `ε ≈ κ·√(2/(πN))·c` ordering:
    /// checks that measured errors are ordered by overhead at the final
    /// checkpoint (used by tests and the self-check in the binary).
    pub fn final_errors_ordered_by_entanglement(&self) -> bool {
        let last = self.config.shot_checkpoints.len() - 1;
        let final_errors: Vec<f64> = (0..self.config.overlaps.len())
            .map(|o| self.mean_abs_error[o][last])
            .collect();
        final_errors.windows(2).all(|w| w[0] >= w[1] * 0.85)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig6Config {
        Fig6Config {
            num_states: 60,
            shot_checkpoints: vec![500, 2000],
            overlaps: vec![0.5, 0.8, 1.0],
            seed: 7,
            threads: 2,
        }
    }

    #[test]
    fn errors_decrease_with_shots() {
        let res = run(&small_config());
        for (o, row) in res.mean_abs_error.iter().enumerate() {
            assert!(
                row[1] < row[0],
                "error did not shrink with budget for overlap {o}: {row:?}"
            );
        }
    }

    #[test]
    fn errors_decrease_with_entanglement() {
        let res = run(&small_config());
        let last = res.config.shot_checkpoints.len() - 1;
        let e_05 = res.mean_abs_error[0][last];
        let e_10 = res.mean_abs_error[2][last];
        assert!(
            e_10 < e_05,
            "f=1.0 error {e_10} not below f=0.5 error {e_05}"
        );
        assert!(res.final_errors_ordered_by_entanglement());
    }

    #[test]
    fn error_scaling_tracks_kappa_ratio() {
        // ε(f=0.5)/ε(f=1.0) should be of order κ(0.5)/κ(1.0) = 3 at a
        // fixed generous budget (per-term variance differences make it
        // inexact; accept a broad band).
        let cfg = Fig6Config {
            num_states: 120,
            shot_checkpoints: vec![4000],
            overlaps: vec![0.5, 1.0],
            seed: 11,
            threads: 2,
        };
        let res = run(&cfg);
        let ratio = res.mean_abs_error[0][0] / res.mean_abs_error[1][0];
        assert!(
            ratio > 1.7 && ratio < 5.0,
            "error ratio {ratio} far from the κ ratio 3"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&small_config());
        let b = run(&Fig6Config {
            threads: 4,
            ..small_config()
        });
        for (ra, rb) in a.mean_abs_error.iter().zip(b.mean_abs_error.iter()) {
            for (x, y) in ra.iter().zip(rb.iter()) {
                assert!((x - y).abs() < 1e-14, "nondeterministic result");
            }
        }
    }

    #[test]
    fn table_shape() {
        let res = run(&Fig6Config {
            num_states: 5,
            shot_checkpoints: vec![100, 200],
            overlaps: vec![0.5, 1.0],
            seed: 3,
            threads: 1,
        });
        let t = res.to_table();
        assert_eq!(t.header().len(), 3);
        assert_eq!(t.rows().len(), 2);
    }
}
