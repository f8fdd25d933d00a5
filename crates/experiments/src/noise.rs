//! **E12 — wire cutting under device noise** (extension; paper §VI
//! future work): gate-level depolarising noise turns the exact QPD
//! identity into a *biased* reconstruction. The bias is a noise floor
//! that no shot budget removes; this experiment maps it against the
//! resource entanglement `k` and the noise strength `p`.
//!
//! Two effects compete as `k → 1`: the QPD variance amplification κ²
//! shrinks (fewer shots needed), but every sample keeps paying the
//! teleportation circuit's noise. The table therefore reports the exact
//! bias alongside the total error at a finite budget.
//!
//! Finite-shot error is sampled through the batched [`BernoulliTerm`]
//! path (one binomial per term and budget, not one draw per shot).

use crate::csvout::Table;
use crate::stats::RunningStats;
use qlinalg::Matrix;
use qpd::{BernoulliTerm, QpdSpec};
use qsample::grid::ShardedGrid;
use qsim::noise::{execute_density_noisy, NoiseModel};
use qsim::{haar_unitary, Circuit, Pauli, PauliString};
use wirecut::term::embed_input;
use wirecut::{NmeCut, WireCut};

/// Stream tag for the Haar-state lane, shared across `(k, p)` so every
/// noise level biases the same random states.
const STATE_STREAM: u64 = 0xE12;

/// Exact expectation of Z on the output of one cut term executed under a
/// noise model, for input `W|0⟩`.
pub fn noisy_term_expectation(term: &wirecut::CutTerm, w: &Matrix, noise: &NoiseModel) -> f64 {
    let n = term.circuit.num_qubits();
    let mut circuit = Circuit::new(n, term.circuit.num_clbits());
    circuit.unitary1(w.clone(), term.input_qubits[0]);
    circuit.compose(&term.circuit);
    // Input density: |0…0⟩ everywhere (the W preparation is inside and is
    // itself subject to gate noise, like on a real device).
    let rho_in = embed_input(
        &Matrix::from_fn(2, 2, |i, j| {
            if i == 0 && j == 0 {
                qlinalg::C_ONE
            } else {
                qlinalg::C_ZERO
            }
        }),
        &term.input_qubits,
        n,
    );
    let out = execute_density_noisy(&circuit, &rho_in, noise);
    out.partial_trace(&term.output_qubits)
        .expval_pauli(&PauliString::single(1, 0, Pauli::Z))
}

/// The exact noisy QPD reconstruction `Σᵢ cᵢ·⟨Z⟩ᵢ^noisy` and the implied
/// bias against the ideal value.
pub fn noisy_reconstruction(cut: &dyn WireCut, w: &Matrix, noise: &NoiseModel) -> f64 {
    cut.terms()
        .iter()
        .map(|t| t.coefficient * noisy_term_expectation(t, w, noise))
        .sum()
}

/// Configuration of the noise experiment.
#[derive(Clone, Debug)]
pub struct NoiseConfig {
    /// Resource parameters `k`.
    pub k_values: Vec<f64>,
    /// Depolarising strengths `p`.
    pub noise_levels: Vec<f64>,
    /// Shot budget for the finite-shot error column.
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

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            k_values: vec![0.0, 0.5, 1.0],
            noise_levels: vec![0.0, 0.002, 0.01, 0.05],
            shots: 4000,
            num_states: 12,
            repetitions: 12,
            seed: 909,
            threads: 0,
        }
    }
}

/// Runs the noise experiment. Columns:
/// `(k, p, kappa, bias_exact, total_err_at_budget)`.
///
/// The finite-shot column models each noisy term as a calibrated ±1
/// sampler at its exact noisy expectation (shot noise on top of the
/// noise-induced bias) with the paper's proportional allocation.
pub fn run(config: &NoiseConfig) -> Table {
    let mut t = Table::new(&["k", "p", "kappa", "bias_exact", "total_err_at_budget"]);
    // One shard per (k, p, state) cell, (k, p)-major.
    let cells: Vec<(f64, f64, u64)> = config
        .k_values
        .iter()
        .flat_map(|&k| {
            config
                .noise_levels
                .iter()
                .flat_map(move |&p| (0..config.num_states as u64).map(move |s| (k, p, s)))
        })
        .collect();
    let per_cell: Vec<(f64, f64)> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(k, p, s), ctx| {
            let cut = NmeCut::new(k);
            let noise = NoiseModel::depolarizing(p);
            let w = haar_unitary(2, &mut ctx.shared(&(STATE_STREAM, s)));
            let exact = wirecut::uncut_expectation(&w, Pauli::Z);
            let terms = cut.terms();
            let noisy_vals: Vec<f64> = terms
                .iter()
                .map(|term| noisy_term_expectation(term, &w, &noise))
                .collect();
            let spec: QpdSpec = cut.spec();
            let reconstruction: f64 = spec
                .coefficients()
                .iter()
                .zip(noisy_vals.iter())
                .map(|(c, e)| c * e)
                .sum();
            let bias = (reconstruction - exact).abs();
            // Finite-shot error: Bernoulli samplers at the noisy
            // expectations.
            let samplers: Vec<BernoulliTerm> = noisy_vals
                .iter()
                .map(|&e| BernoulliTerm::new(e.clamp(-1.0, 1.0)))
                .collect();
            let rng = ctx.rng();
            let mut err = RunningStats::new();
            for _ in 0..config.repetitions {
                let est = qpd::estimate_allocated(
                    &spec,
                    &samplers,
                    config.shots,
                    qpd::Allocator::Proportional,
                    rng,
                );
                err.push((est - exact).abs());
            }
            (bias, err.mean())
        });
    let mut cell = 0;
    for &k in &config.k_values {
        let kappa = NmeCut::new(k).kappa();
        for &p in &config.noise_levels {
            let mut bias_agg = RunningStats::new();
            let mut err_agg = RunningStats::new();
            for &(b, e) in &per_cell[cell..cell + config.num_states] {
                bias_agg.push(b);
                err_agg.push(e);
            }
            cell += config.num_states;
            t.push_row(vec![k, p, kappa, bias_agg.mean(), err_agg.mean()]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NoiseConfig {
        NoiseConfig {
            k_values: vec![0.0, 1.0],
            noise_levels: vec![0.0, 0.02],
            shots: 1500,
            num_states: 5,
            repetitions: 6,
            seed: 4,
            threads: 2,
        }
    }

    #[test]
    fn zero_noise_has_zero_bias() {
        let t = run(&small());
        for row in t.rows() {
            if row[1] == 0.0 {
                assert!(row[3] < 1e-9, "bias {} at p=0", row[3]);
            }
        }
    }

    #[test]
    fn bias_grows_with_noise() {
        let t = run(&small());
        // rows: (k=0,p=0), (k=0,p=.02), (k=1,p=0), (k=1,p=.02)
        assert!(t.rows()[1][3] > t.rows()[0][3] + 1e-4);
        assert!(t.rows()[3][3] > t.rows()[2][3] + 1e-4);
    }

    #[test]
    fn noise_floor_dominates_at_high_budget() {
        // At p = 0.02 and 1500 shots the bias is a significant fraction of
        // the total error.
        let t = run(&small());
        let row = &t.rows()[3]; // k=1, p=0.02
        assert!(
            row[4] >= row[3] * 0.5,
            "total err {} below bias {}",
            row[4],
            row[3]
        );
    }

    #[test]
    fn noisy_reconstruction_helper_agrees() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let w = haar_unitary(2, &mut rng);
        let cut = NmeCut::new(0.5);
        let clean = noisy_reconstruction(&cut, &w, &NoiseModel::noiseless());
        let exact = wirecut::uncut_expectation(&w, Pauli::Z);
        assert!((clean - exact).abs() < 1e-9);
    }
}
