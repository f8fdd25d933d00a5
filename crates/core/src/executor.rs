//! Bridges cuts to the QPD estimators: simulates every
//! [`crate::term::CutTerm`] circuit once, with a concrete input
//! preparation and observable, on a compiled branch-tree sampler, and
//! keeps only its exact value as a [`qpd::BernoulliTerm`].
//! [`PreparedCut`] is the one compilation target for every cut width —
//! single-wire, product and joint cuts alike.
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
use qsim::{Circuit, CompiledSampler, Gate, Pauli, PauliString, StateVector};

/// The circuit of `term` with `input_prep` composed onto its input
/// qubits and each X or Y factor of `observable` rotated onto Z on its
/// output qubit (H for X, S†·H for Y), and the mask of the output qubits
/// whose Z-parity then reads `observable`.
fn term_circuit(
    term: &CutTerm,
    input_prep: &Circuit,
    observable: &PauliString,
) -> (Circuit, usize) {
    assert_eq!(input_prep.num_qubits(), term.input_qubits.len());
    assert_eq!(observable.num_qubits(), term.output_qubits.len());
    let mut circuit = Circuit::new(term.circuit.num_qubits(), term.circuit.num_clbits());
    // Input preparation acts on the input qubits of all wires — the
    // sender device holds all of them before the cut.
    let cmap: Vec<usize> = (0..input_prep.num_clbits()).collect();
    circuit.compose_mapped(input_prep, &term.input_qubits, &cmap);
    circuit.compose(&term.circuit);
    let mut z_mask = 0usize;
    for (w, &q) in term.output_qubits.iter().enumerate() {
        match observable.op(w) {
            Pauli::I => continue,
            Pauli::Z => {}
            Pauli::X => {
                circuit.h(q);
            }
            Pauli::Y => {
                circuit.sdg(q).h(q);
            }
        }
        z_mask |= 1 << q;
    }
    (circuit, z_mask)
}

/// A cut compiled against a concrete input and observable, ready for the
/// `qpd` estimators.
pub struct PreparedCut {
    /// Coefficient structure.
    pub spec: QpdSpec,
    /// Each term's ±1 law, fixed by its circuit's exact expectation;
    /// index-aligned with `spec`.
    pub terms: Vec<BernoulliTerm>,
}

impl PreparedCut {
    /// Compiles every term of the single-wire `cut` for input `W|0⟩`
    /// (given by the 2×2 unitary `w`) and observable `obs` — the
    /// one-wire case of [`from_terms`](Self::from_terms).
    pub fn new(cut: &dyn WireCut, w: &Matrix, obs: Pauli) -> Self {
        let mut prep = Circuit::new(1, 0);
        prep.unitary1(w.clone(), 0);
        Self::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::new(vec![obs]),
        )
    }

    /// Compiles a term list of any width for a sender input preparation
    /// circuit (over the cut wires) and an observable on the outputs:
    /// each term circuit is simulated once, and the exact expectation of
    /// the rotated Z-parity read off its branch tree becomes its law.
    pub fn from_terms(
        spec: QpdSpec,
        terms: &[CutTerm],
        input_prep: &Circuit,
        observable: &PauliString,
    ) -> Self {
        assert_eq!(spec.len(), terms.len());
        let terms = terms
            .iter()
            .map(|t| {
                let (circuit, z_mask) = term_circuit(t, input_prep, observable);
                let sampler = CompiledSampler::compile(&circuit, None);
                BernoulliTerm::new(sampler.exact_expval_parity(z_mask))
            })
            .collect();
        Self { spec, terms }
    }

    /// The exact (infinite-shot) decomposed expectation `Σᵢ cᵢ·⟨O⟩ᵢ`.
    pub fn exact_value(&self) -> f64 {
        qpd::exact_value(&self.spec, &self.terms)
    }
}

/// Test oracle for [`PreparedCut::from_terms`]: each folded term keeps
/// only its circuit's exact parity value, whatever the cut's width. The
/// oracle is the term circuit's own branch-tree sampler: per shot it
/// draws a leaf, then a Z-basis outcome, and reads the parity. Those
/// draws and the folded term's batched draw (40 000 shots each, term `i`
/// seeded from `seed_base + i`) must both sit within 5σ of the stored
/// value, which must be the sampler's exact parity expectation bit for
/// bit. Returns how many term circuits measure mid-circuit.
#[cfg(test)]
pub(crate) fn check_terms_against_circuit_oracle(
    cut: &dyn WireCut,
    prep: &Circuit,
    obs: &PauliString,
    seed_base: u64,
) -> usize {
    use qpd::TermSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let shots = 40_000u64;
    let terms = cut.terms();
    let prepared = PreparedCut::from_terms(cut.spec(), &terms, prep, obs);
    let mut branching_terms = 0;
    for (i, (term, folded)) in terms.iter().zip(&prepared.terms).enumerate() {
        let (circuit, z_mask) = term_circuit(term, prep, obs);
        let oracle = CompiledSampler::compile(&circuit, None);
        if oracle.leaves().len() > 1 {
            branching_terms += 1;
        }
        let exact = folded.exact_expectation();
        assert_eq!(
            exact.to_bits(),
            oracle.exact_expval_parity(z_mask).to_bits()
        );
        let seed = seed_base + i as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let per_shot: f64 = (0..shots)
            .map(|_| {
                let idx = oracle.sample_leaf(&mut rng).state.sample_z_basis(&mut rng);
                if (idx & z_mask).count_ones().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            })
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
    branching_terms
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
    use crate::multi::ParallelWireCut;
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
        let mut one_wire = Circuit::new(1, 0);
        one_wire.unitary1(ry_matrix(1.234), 0);
        let z = PauliString::from_label("Z");
        let cuts: Vec<Box<dyn WireCut>> = vec![
            Box::new(NmeCut::new(0.4)),
            Box::new(HaradaCut),
            Box::new(PengCut),
        ];
        let mut branching_terms = 0;
        for (c, cut) in cuts.iter().enumerate() {
            branching_terms += check_terms_against_circuit_oracle(
                cut.as_ref(),
                &one_wire,
                &z,
                300 + 100 * c as u64,
            );
        }
        assert!(branching_terms > 0, "no term circuit measured mid-circuit");
    }

    #[test]
    fn product_cut_reads_non_diagonal_observables() {
        // Each X or Y factor is rotated onto Z on its own output wire, so
        // a product cut reads any Pauli string of the sender state.
        let mut sender = Circuit::new(2, 0);
        sender.ry(0.8, 0).ry(1.3, 1).cx(0, 1);
        let mut sv = StateVector::new(2);
        sv.apply_circuit(&sender);
        let cut = ParallelWireCut::uniform(NmeCut::new(0.6), 2);
        let terms = cut.terms();
        for label in ["XZ", "ZY", "XX"] {
            let obs = PauliString::from_label(label);
            let got = PreparedCut::from_terms(cut.spec(), &terms, &sender, &obs).exact_value();
            let expect = sv.expval_pauli(&obs);
            assert!((got - expect).abs() < 1e-9, "⟨{label}⟩: {got} vs {expect}");
        }
        // The identity reads 1 through a one-wire cut, as on the uncut
        // wire: every term's parity mask is empty.
        let w = ry_matrix(0.9);
        let got = PreparedCut::new(&NmeCut::new(0.6), &w, Pauli::I).exact_value();
        assert!((got - 1.0).abs() < 1e-12, "⟨I⟩ = {got}");
        assert!((uncut_expectation(&w, Pauli::I) - 1.0).abs() < 1e-12);
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
