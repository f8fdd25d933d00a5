//! The optimal entanglement-free wire cut (Harada et al., paper
//! reference \[26\]; Figure 2 / Eq. 20), achieving `γ(I) = 3`.
//!
//! `I(·) = Σ_{i∈{1,2}} Σ_j Tr[Uᵢ|j⟩⟨j|Uᵢ†(·)] Uᵢ|j⟩⟨j|Uᵢ†
//!         − Σ_j Tr[|j⟩⟨j|(·)] X|j⟩⟨j|X`
//!
//! with `U₁ = H`, `U₂ = SH`. Each positive term measures in the `Uᵢ`
//! basis and re-prepares the measured basis state on the receiver; the
//! negative term measures in Z and prepares the *flipped* state.
//!
//! This is the `k = 0` endpoint of the NME cut of [`crate::nme`]
//! (Theorem 2 degenerates to it, see
//! [`crate::theory::GAMMA_NO_ENTANGLEMENT`]), and its `U₁`/`U₂` are the
//! one-qubit complete MUB set that [`crate::joint`] generalises to `n`
//! wires ([`crate::joint::mub_bases_one_qubit`]).

use crate::term::{CutTerm, WireCut};
use qsim::Circuit;

/// The three-term optimal wire cut without entanglement.
#[derive(Clone, Copy, Debug, Default)]
pub struct HaradaCut;

/// Builds the measure-in-`Uᵢ`-basis / prepare-on-receiver term circuit of
/// Figure 2. Qubit 0 = sender (A), qubit 1 = receiver (B); one classical
/// bit carries the outcome.
///
/// `which` selects `U₁ = H` (1) or `U₂ = SH` (2).
fn basis_term_circuit(which: u8) -> Circuit {
    let mut c = Circuit::new(2, 1);
    // Sender: rotate Uᵢ-basis to Z-basis (apply Uᵢ†), measure.
    match which {
        1 => {
            c.h(0);
        }
        2 => {
            // U₂† = (SH)† = H·S†: apply S† then H.
            c.sdg(0).h(0);
        }
        _ => unreachable!(),
    }
    c.measure(0, 0);
    // Receiver: prepare |j⟩ then rotate back with Uᵢ.
    c.x_if(1, 0);
    match which {
        1 => {
            c.h(1);
        }
        2 => {
            // U₂ = S·H: apply H then S.
            c.h(1).s(1);
        }
        _ => unreachable!(),
    }
    c
}

/// The measure-and-prepare-flipped term (third circuit of Figure 2):
/// measure Z on the sender, prepare `X|j⟩⟨j|X = |1−j⟩` on the receiver.
pub(crate) fn measure_prepare_flipped_circuit() -> Circuit {
    let mut c = Circuit::new(2, 1);
    c.measure(0, 0);
    // Prepare |j⟩ (X when j = 1) then flip: net effect X when j = 0.
    c.x_if(1, 0);
    c.x(1);
    c
}

impl WireCut for HaradaCut {
    fn name(&self) -> String {
        "harada-optimal".into()
    }

    fn terms(&self) -> Vec<CutTerm> {
        vec![
            CutTerm {
                coefficient: 1.0,
                label: "meas-H".into(),
                pairs_consumed: 0.0,
                circuit: basis_term_circuit(1),
                input_qubits: vec![0],
                output_qubits: vec![1],
                resource_prep_len: 0,
            },
            CutTerm {
                coefficient: 1.0,
                label: "meas-SH".into(),
                pairs_consumed: 0.0,
                circuit: basis_term_circuit(2),
                input_qubits: vec![0],
                output_qubits: vec![1],
                resource_prep_len: 0,
            },
            CutTerm {
                coefficient: -1.0,
                label: "meas-prep-flip".into(),
                pairs_consumed: 0.0,
                circuit: measure_prepare_flipped_circuit(),
                input_qubits: vec![0],
                output_qubits: vec![1],
                resource_prep_len: 0,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{identity_distance, term_channel, verify_locc_structure};
    use qlinalg::Matrix;
    use qsim::{Gate, Superoperator};

    #[test]
    fn reconstructs_identity_channel() {
        let d = identity_distance(&HaradaCut);
        assert!(d < 1e-10, "Eq. 20 violated: distance {d}");
    }

    #[test]
    fn kappa_is_three() {
        assert!((HaradaCut.kappa() - 3.0).abs() < 1e-12);
        assert!(HaradaCut.spec().validate(1e-12).is_ok());
    }

    #[test]
    fn every_term_is_locc() {
        for term in HaradaCut.terms() {
            verify_locc_structure(&term, &[0]).expect("term not LOCC");
        }
    }

    #[test]
    fn positive_terms_are_dephasing_channels() {
        // Measure-in-basis + re-prepare = completely dephasing channel in
        // that basis: for U₁ = H it preserves ⟨X⟩ and kills ⟨Y⟩, ⟨Z⟩.
        let terms = HaradaCut.terms();
        let ch = term_channel(&terms[0]);
        let ptm = ch.pauli_transfer_matrix();
        assert!((ptm[(1, 1)].re - 1.0).abs() < 1e-10); // X preserved
        assert!(ptm[(2, 2)].abs() < 1e-10); // Y killed
        assert!(ptm[(3, 3)].abs() < 1e-10); // Z killed
    }

    #[test]
    fn sh_term_preserves_y() {
        let terms = HaradaCut.terms();
        let ch = term_channel(&terms[1]);
        let ptm = ch.pauli_transfer_matrix();
        assert!(ptm[(1, 1)].abs() < 1e-10);
        assert!((ptm[(2, 2)].re - 1.0).abs() < 1e-10); // Y preserved
        assert!(ptm[(3, 3)].abs() < 1e-10);
    }

    #[test]
    fn flip_term_matches_eq_20_negative_part() {
        // Σ_j Tr[|j⟩⟨j|ρ] X|j⟩⟨j|X as a Kraus channel: X·(dephase in Z).
        let terms = HaradaCut.terms();
        let ch = term_channel(&terms[2]);
        let k0 = Gate::X.matrix().matmul(&Matrix::from_fn(2, 2, |i, j| {
            if i == 0 && j == 0 {
                qlinalg::C_ONE
            } else {
                qlinalg::C_ZERO
            }
        }));
        let k1 = Gate::X.matrix().matmul(&Matrix::from_fn(2, 2, |i, j| {
            if i == 1 && j == 1 {
                qlinalg::C_ONE
            } else {
                qlinalg::C_ZERO
            }
        }));
        let expect = Superoperator::from_kraus(&[k0, k1]);
        assert!(ch.distance(&expect) < 1e-10);
    }

    #[test]
    fn all_terms_trace_preserving() {
        for term in HaradaCut.terms() {
            let ch = term_channel(&term);
            assert!(ch.is_trace_preserving(1e-10), "term {} not TP", term.label);
        }
    }
}
