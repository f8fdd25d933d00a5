//! Bridges wire cuts to the QPD estimators: simulates every
//! [`crate::term::WireCut`] term circuit (with a concrete input state
//! and observable) once, on a compiled branch-tree sampler, and keeps
//! only its exact value as a [`qpd::BernoulliTerm`] (the multi-wire
//! analogue lives in [`crate::multi`]).
//!
//! This realises the paper's experimental procedure (Section IV): the
//! input `W|0⟩` enters the sender qubit, the three subcircuits of
//! Figure 5 are executed with shots split across them, and Pauli-Z is
//! measured on the receiver qubit. Each subcircuit is seen only through
//! its ±1 outcome, whose law its exact expectation fixes, so a term
//! serves a whole shot allocation as one binomial draw.

use crate::term::{CutTerm, WireCut};
use qlinalg::Matrix;
use qpd::{BernoulliTerm, QpdSpec};
use qsim::{Circuit, CompiledSampler, Gate, Pauli, StateVector};

/// The circuit of `term` for input `W|0⟩` (given by the 2×2 unitary `w`)
/// with `obs` rotated onto Z on the term's output qubit.
fn term_circuit(term: &CutTerm, w: &Matrix, obs: Pauli) -> Circuit {
    let n = term.circuit.num_qubits();
    let clbits = term.circuit.num_clbits();
    let mut circuit = Circuit::new(n, clbits);
    // Input preparation on the sender qubit.
    circuit.unitary1(w.clone(), term.input_qubit);
    circuit.compose(&term.circuit);
    // Basis rotation so that measuring Z on the output measures `obs`.
    match obs {
        Pauli::Z => {}
        Pauli::X => {
            circuit.h(term.output_qubit);
        }
        Pauli::Y => {
            // Rotate Y onto Z: apply S† then H.
            circuit.sdg(term.output_qubit).h(term.output_qubit);
        }
        Pauli::I => panic!("identity observable is trivial"),
    }
    circuit
}

/// A wire cut compiled against a concrete input and observable, ready for
/// the `qpd` estimators.
pub struct PreparedCut {
    /// Coefficient structure.
    pub spec: QpdSpec,
    /// Each term's ±1 law, fixed by its circuit's exact expectation;
    /// index-aligned with `spec`.
    pub terms: Vec<BernoulliTerm>,
}

impl PreparedCut {
    /// Compiles every term of `cut` for input `W|0⟩` and observable `obs`
    /// and reads its exact expectation off the branch tree.
    pub fn new(cut: &dyn WireCut, w: &Matrix, obs: Pauli) -> Self {
        let spec = cut.spec();
        let terms = cut
            .terms()
            .iter()
            .map(|t| {
                let sampler = CompiledSampler::compile(&term_circuit(t, w, obs), None);
                BernoulliTerm::new(sampler.exact_expval_z(t.output_qubit))
            })
            .collect();
        Self { spec, terms }
    }

    /// The exact (infinite-shot) decomposed expectation `Σᵢ cᵢ·⟨O⟩ᵢ`.
    pub fn exact_value(&self) -> f64 {
        qpd::exact_value(&self.spec, &self.terms)
    }
}

/// The exact observable value on the *uncut* wire: `⟨0|W†·O·W|0⟩`.
pub fn uncut_expectation(w: &Matrix, obs: Pauli) -> f64 {
    let mut sv = StateVector::new(1);
    sv.apply_matrix1(w, 0);
    match obs {
        Pauli::Z => sv.expval_z(0),
        Pauli::X => {
            sv.apply_gate(&Gate::H, &[0]);
            sv.expval_z(0)
        }
        Pauli::Y => {
            sv.apply_gate(&Gate::Sdg, &[0]);
            sv.apply_gate(&Gate::H, &[0]);
            sv.expval_z(0)
        }
        Pauli::I => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harada::HaradaCut;
    use crate::nme::{NmeCut, TeleportationPassthrough};
    use crate::peng::PengCut;
    use qpd::{Allocator, TermSampler};
    use qsim::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ry_matrix(theta: f64) -> Matrix {
        Gate::Ry(theta).matrix()
    }

    #[test]
    fn exact_value_equals_uncut_expectation_for_all_cuts() {
        // The defining property of a wire cut, checked end-to-end through
        // the compiled samplers: Σ cᵢ⟨Z⟩ᵢ = ⟨Z⟩ψ.
        let w = ry_matrix(1.234);
        let expect = uncut_expectation(&w, Pauli::Z);
        assert!((expect - (1.234f64).cos()).abs() < 1e-12);
        let cuts: Vec<Box<dyn crate::term::WireCut>> = vec![
            Box::new(HaradaCut),
            Box::new(PengCut),
            Box::new(NmeCut::new(0.0)),
            Box::new(NmeCut::new(0.5)),
            Box::new(NmeCut::new(1.0)),
            Box::new(TeleportationPassthrough),
        ];
        for cut in cuts {
            let prepared = PreparedCut::new(cut.as_ref(), &w, Pauli::Z);
            let got = prepared.exact_value();
            assert!(
                (got - expect).abs() < 1e-9,
                "{}: exact value {got} vs {expect}",
                cut.name()
            );
        }
    }

    #[test]
    fn exact_value_for_haar_random_inputs_and_observables() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let w = haar_unitary(2, &mut rng);
            for obs in [Pauli::X, Pauli::Y, Pauli::Z] {
                let expect = uncut_expectation(&w, obs);
                let prepared = PreparedCut::new(&NmeCut::new(0.6), &w, obs);
                let got = prepared.exact_value();
                assert!(
                    (got - expect).abs() < 1e-9,
                    "obs {obs:?}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn estimator_converges_to_uncut_value() {
        let w = ry_matrix(0.9);
        let expect = (0.9f64).cos();
        let prepared = PreparedCut::new(&NmeCut::new(0.5), &w, Pauli::Z);
        let mut rng = StdRng::seed_from_u64(99);
        let reps = 60;
        let mean: f64 = (0..reps)
            .map(|_| {
                qpd::estimate_allocated(
                    &prepared.spec,
                    &prepared.terms,
                    4000,
                    Allocator::Proportional,
                    &mut rng,
                )
            })
            .sum::<f64>()
            / reps as f64;
        assert!((mean - expect).abs() < 0.02, "mean {mean} vs {expect}");
    }

    #[test]
    fn prepared_term_batched_and_per_shot_sampling_agree() {
        // Each folded term keeps only its circuit's exact value. The
        // oracle is the term circuit's own branch-tree sampler, built
        // here: its per-shot outcomes and the folded term's batched draw
        // must both sit within 5σ of the stored value, which must be the
        // sampler's exact expectation bit for bit.
        let w = ry_matrix(1.234);
        let shots = 40_000u64;
        let cuts: Vec<Box<dyn WireCut>> = vec![
            Box::new(NmeCut::new(0.4)),
            Box::new(HaradaCut),
            Box::new(PengCut),
        ];
        let mut branching_terms = 0;
        for (c, cut) in cuts.iter().enumerate() {
            let prepared = PreparedCut::new(cut.as_ref(), &w, Pauli::Z);
            for (i, (term, folded)) in cut.terms().iter().zip(&prepared.terms).enumerate() {
                let oracle = CompiledSampler::compile(&term_circuit(term, &w, Pauli::Z), None);
                if oracle.leaves().len() > 1 {
                    branching_terms += 1;
                }
                let exact = folded.exact_expectation();
                assert_eq!(
                    exact.to_bits(),
                    oracle.exact_expval_z(term.output_qubit).to_bits()
                );
                let seed = 400 + 10 * c as u64 + i as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let per_shot: f64 = (0..shots)
                    .map(|_| oracle.sample_z(term.output_qubit, &mut rng))
                    .sum::<f64>()
                    / shots as f64;
                let mut rng = StdRng::seed_from_u64(seed + 1000);
                let batched = folded.sample_observable_sum(shots, &mut rng) / shots as f64;
                // SE ≤ 1/√shots = 0.005; 5σ band around the exact value.
                assert!(
                    (per_shot - exact).abs() < 0.025,
                    "{} {}: circuit per-shot {per_shot} vs {exact}",
                    cut.name(),
                    term.label
                );
                assert!(
                    (batched - exact).abs() < 0.025,
                    "{} {}: folded batched {batched} vs {exact}",
                    cut.name(),
                    term.label
                );
            }
        }
        assert!(branching_terms > 0, "no term circuit measured mid-circuit");
    }

    #[test]
    fn teleportation_baseline_has_no_overhead_error_structure() {
        // With k = 1 the exact per-term expectations already equal the
        // uncut value; sampling error is pure binomial noise.
        let w = ry_matrix(0.7);
        let cut = NmeCut::new(1.0);
        let prepared = PreparedCut::new(&cut, &w, Pauli::Z);
        for (term, folded) in cut.terms().iter().zip(&prepared.terms) {
            assert!(
                (folded.exact_expectation() - (0.7f64).cos()).abs() < 1e-10,
                "term {} expectation deviates",
                term.label
            );
        }
    }

    #[test]
    fn uncut_expectation_covers_all_paulis() {
        // |+⟩ = H|0⟩: ⟨X⟩ = 1, ⟨Y⟩ = 0, ⟨Z⟩ = 0.
        let h = Gate::H.matrix();
        assert!((uncut_expectation(&h, Pauli::X) - 1.0).abs() < 1e-12);
        assert!(uncut_expectation(&h, Pauli::Y).abs() < 1e-12);
        assert!(uncut_expectation(&h, Pauli::Z).abs() < 1e-12);
        assert!((uncut_expectation(&h, Pauli::I) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn higher_entanglement_gives_lower_estimator_variance() {
        // The heart of Figure 6, asserted statistically: variance at
        // f = 0.9 is smaller than at f = 0.5 for the same budget.
        let w = ry_matrix(1.0);
        let mut rng = StdRng::seed_from_u64(2024);
        let reps = 120;
        let shots = 600;
        let variance_for = |f: f64, rng: &mut StdRng| -> f64 {
            let prepared = PreparedCut::new(&NmeCut::from_overlap(f), &w, Pauli::Z);
            let xs: Vec<f64> = (0..reps)
                .map(|_| {
                    qpd::estimate_allocated(
                        &prepared.spec,
                        &prepared.terms,
                        shots,
                        Allocator::Proportional,
                        rng,
                    )
                })
                .collect();
            let m = xs.iter().sum::<f64>() / reps as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (reps - 1) as f64
        };
        let v_low = variance_for(0.5, &mut rng);
        let v_high = variance_for(0.9, &mut rng);
        assert!(
            v_high < v_low,
            "variance did not drop with entanglement: f=0.5 → {v_low}, f=0.9 → {v_high}"
        );
    }
}
