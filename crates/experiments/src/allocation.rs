//! **E8 — shot-allocation ablation**: the paper distributes shots
//! proportionally to |cᵢ| (Section IV); this experiment quantifies what
//! that choice buys against uniform splitting and against the fully
//! stochastic per-shot sampler of Eq. 12.

use crate::csvout::Table;
use crate::stats::RunningStats;
use qpd::{estimate_allocated, estimate_stochastic, Allocator};
use qsample::grid::ShardedGrid;
use qsim::{haar_unitary, Pauli};
use wirecut::{NmeCut, PreparedCut};

/// Stream tag for the Haar-state lane, shared across overlaps so every
/// strategy comparison runs on the same random states.
const STATE_STREAM: u64 = 0xE8;

/// Allocation strategies compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Proportional deterministic split (the paper's choice).
    Proportional,
    /// Uniform deterministic split.
    Uniform,
    /// Stochastic per-shot term selection (Eq. 12).
    Stochastic,
}

impl Strategy {
    /// All strategies in display order.
    pub const ALL: [Strategy; 3] = [
        Strategy::Proportional,
        Strategy::Uniform,
        Strategy::Stochastic,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Proportional => "proportional",
            Strategy::Uniform => "uniform",
            Strategy::Stochastic => "stochastic",
        }
    }
}

/// Configuration of the ablation.
#[derive(Clone, Debug)]
pub struct AllocationConfig {
    /// Entanglement levels to test.
    pub overlaps: Vec<f64>,
    /// Shot budget per estimate.
    pub shots: u64,
    /// Random states averaged over.
    pub num_states: usize,
    /// Estimates per state (error averaging).
    pub repetitions: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for AllocationConfig {
    fn default() -> Self {
        Self {
            overlaps: vec![0.6, 0.9],
            shots: 2000,
            num_states: 40,
            repetitions: 30,
            seed: 4242,
            threads: 0,
        }
    }
}

/// Mean absolute error per (overlap, strategy).
pub fn run(config: &AllocationConfig) -> Table {
    let mut t = Table::new(&[
        "overlap_f",
        "err_proportional",
        "err_uniform",
        "err_stochastic",
    ]);
    // One shard per (overlap, state) cell, overlap-major.
    let cells: Vec<(f64, u64)> = config
        .overlaps
        .iter()
        .flat_map(|&f| (0..config.num_states as u64).map(move |s| (f, s)))
        .collect();
    let per_cell: Vec<[f64; 3]> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(f, s), ctx| {
            let cut = NmeCut::from_overlap(f);
            let w = haar_unitary(2, &mut ctx.shared(&(STATE_STREAM, s)));
            let exact = wirecut::uncut_expectation(&w, Pauli::Z);
            let prepared = PreparedCut::new(&cut, &w, Pauli::Z);
            let samplers = prepared.samplers();
            let rng = ctx.rng();
            let mut errs = [0.0f64; 3];
            for (i, strat) in Strategy::ALL.iter().enumerate() {
                let mut acc = RunningStats::new();
                for _ in 0..config.repetitions {
                    let est = match strat {
                        Strategy::Proportional => estimate_allocated(
                            &prepared.spec,
                            &samplers,
                            config.shots,
                            Allocator::Proportional,
                            rng,
                        ),
                        Strategy::Uniform => estimate_allocated(
                            &prepared.spec,
                            &samplers,
                            config.shots,
                            Allocator::Uniform,
                            rng,
                        ),
                        Strategy::Stochastic => {
                            estimate_stochastic(&prepared.spec, &samplers, config.shots, rng)
                        }
                    };
                    acc.push((est - exact).abs());
                }
                errs[i] = acc.mean();
            }
            errs
        });
    for (fi, &f) in config.overlaps.iter().enumerate() {
        let mut agg = [RunningStats::new(); 3];
        for errs in &per_cell[fi * config.num_states..(fi + 1) * config.num_states] {
            for i in 0..3 {
                agg[i].push(errs[i]);
            }
        }
        t.push_row(vec![f, agg[0].mean(), agg[1].mean(), agg[2].mean()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AllocationConfig {
        AllocationConfig {
            overlaps: vec![0.6],
            shots: 1200,
            num_states: 14,
            repetitions: 16,
            seed: 1,
            threads: 2,
        }
    }

    #[test]
    fn proportional_beats_or_matches_stochastic() {
        // The stochastic estimator carries extra multinomial variance; the
        // deterministic proportional split is never worse on average.
        let t = run(&small());
        let row = &t.rows()[0];
        let (prop, stoch) = (row[1], row[3]);
        assert!(
            prop <= stoch * 1.15,
            "proportional {prop} unexpectedly worse than stochastic {stoch}"
        );
    }

    #[test]
    fn all_strategies_produce_finite_small_errors() {
        let t = run(&small());
        for row in t.rows() {
            for &e in &row[1..] {
                assert!(e.is_finite() && e > 0.0 && e < 0.5, "implausible error {e}");
            }
        }
    }
}
