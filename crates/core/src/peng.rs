//! The original wire cut of Peng et al. (paper reference \[13\]), with
//! sampling overhead `κ = 4` — the historical baseline that Harada's
//! `γ = 3` cut and the paper's NME cut improve upon.
//!
//! Based on the Pauli expansion `ρ = ½ Σ_{P∈{I,X,Y,Z}} Tr[Pρ]·P`, realised
//! as eight measure-and-prepare channels with coefficients `±½`:
//!
//! | pair | channel |
//! |---|---|
//! | +½ / +½ | trace (measure Z, discard), prepare `\|0⟩` / `\|1⟩` |
//! | +½ / −½ | measure Z, prepare measured / flipped basis state |
//! | +½ / −½ | measure X, prepare measured / flipped `\|±⟩` |
//! | +½ / −½ | measure Y, prepare measured / flipped `\|±i⟩` |

use crate::term::{CutTerm, WireCut};
use qsim::Circuit;

/// Which single-qubit basis a term measures/prepares in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Basis {
    Z,
    X,
    Y,
}

/// The eight-term Peng et al. wire cut.
#[derive(Clone, Copy, Debug, Default)]
pub struct PengCut;

/// Measure-in-`basis`, prepare the (optionally flipped) measured
/// eigenstate on the receiver. Qubit 0 = sender, qubit 1 = receiver.
fn measure_prepare_circuit(basis: Basis, flip: bool) -> Circuit {
    let mut c = Circuit::new(2, 1);
    // Rotate the basis onto Z on the sender side.
    match basis {
        Basis::Z => {}
        Basis::X => {
            c.h(0);
        }
        Basis::Y => {
            // V with V·Y·V† = Z is V = H·S†: apply S† then H.
            c.sdg(0).h(0);
        }
    }
    c.measure(0, 0);
    // Prepare |j⟩ (or |1−j⟩) on the receiver, then rotate back.
    c.x_if(1, 0);
    if flip {
        c.x(1);
    }
    match basis {
        Basis::Z => {}
        Basis::X => {
            c.h(1);
        }
        Basis::Y => {
            // V† = S·H: apply H then S.
            c.h(1).s(1);
        }
    }
    c
}

/// Measure-and-discard on the sender, prepare a fixed basis state on the
/// receiver.
fn trace_prepare_circuit(prepare_one: bool) -> Circuit {
    let mut c = Circuit::new(2, 1);
    c.measure(0, 0); // outcome discarded by construction
    if prepare_one {
        c.x(1);
    }
    c
}

impl WireCut for PengCut {
    fn name(&self) -> String {
        "peng-original".into()
    }

    fn terms(&self) -> Vec<CutTerm> {
        let half = 0.5;
        let mk = |coefficient: f64, label: &str, circuit: Circuit| CutTerm {
            coefficient,
            label: label.into(),
            pairs_consumed: 0.0,
            circuit,
            input_qubits: vec![0],
            output_qubits: vec![1],
            resource_prep_len: 0,
        };
        vec![
            mk(half, "trace-prep0", trace_prepare_circuit(false)),
            mk(half, "trace-prep1", trace_prepare_circuit(true)),
            mk(half, "measZ-prep", measure_prepare_circuit(Basis::Z, false)),
            mk(-half, "measZ-flip", measure_prepare_circuit(Basis::Z, true)),
            mk(half, "measX-prep", measure_prepare_circuit(Basis::X, false)),
            mk(-half, "measX-flip", measure_prepare_circuit(Basis::X, true)),
            mk(half, "measY-prep", measure_prepare_circuit(Basis::Y, false)),
            mk(-half, "measY-flip", measure_prepare_circuit(Basis::Y, true)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{identity_distance, term_channel, verify_locc_structure};

    #[test]
    fn reconstructs_identity_channel() {
        let d = identity_distance(&PengCut);
        assert!(d < 1e-10, "Peng decomposition violated: distance {d}");
    }

    #[test]
    fn kappa_is_four() {
        assert!((PengCut.kappa() - 4.0).abs() < 1e-12);
        assert!(PengCut.spec().validate(1e-12).is_ok());
    }

    #[test]
    fn has_eight_terms() {
        assert_eq!(PengCut.terms().len(), 8);
    }

    #[test]
    fn every_term_is_locc_and_trace_preserving() {
        for term in PengCut.terms() {
            verify_locc_structure(&term, &[0]).expect("term not LOCC");
            let ch = term_channel(&term);
            assert!(ch.is_trace_preserving(1e-10), "term {} not TP", term.label);
        }
    }

    #[test]
    fn y_basis_terms_preserve_y_expectation() {
        let terms = PengCut.terms();
        // measY-prep (index 6): dephasing in Y basis: PTM diag(1,0,1,0) on
        // (I,X,Y,Z).
        let ptm = term_channel(&terms[6]).pauli_transfer_matrix();
        assert!((ptm[(2, 2)].re - 1.0).abs() < 1e-10);
        assert!(ptm[(1, 1)].abs() < 1e-10);
        assert!(ptm[(3, 3)].abs() < 1e-10);
    }

    #[test]
    fn trace_terms_are_constant_channels() {
        let terms = PengCut.terms();
        let ptm = term_channel(&terms[0]).pauli_transfer_matrix();
        // ρ → |0⟩⟨0|: PTM first column (1, 0, 0, 1)ᵀ..., all other columns 0.
        assert!((ptm[(0, 0)].re - 1.0).abs() < 1e-10);
        assert!((ptm[(3, 0)].re - 1.0).abs() < 1e-10);
        for col in 1..4 {
            for row in 0..4 {
                assert!(ptm[(row, col)].abs() < 1e-10);
            }
        }
    }

    #[test]
    fn peng_overhead_exceeds_harada() {
        use crate::harada::HaradaCut;
        assert!(PengCut.kappa() > HaradaCut.kappa());
    }
}
