//! Context baseline: **gate cutting** of the CZ gate (Mitarai & Fujii,
//! paper reference \[12\]; Piveteau & Sutter, reference \[14\]).
//!
//! The paper's related-work section contrasts wire cutting with gate
//! cutting; this module provides the canonical CZ decomposition with
//! optimal overhead `γ(CZ) = 3` so experiments can compare both flavours.
//!
//! Writing `CZ = Π₀ᴬ⊗I + Π₁ᴬ⊗Z` and expanding the channel, the six-term
//! QPD over LOCC channels is
//!
//! `CZ·ρ·CZ = ½(S⊗S)ρ(S⊗S)† + ½(S†⊗S†)ρ(S†⊗S†)†
//!            + ½M₁(ρ) − ½M₀(ρ) + ½N₁(ρ) − ½N₀(ρ)`
//!
//! where `M₁` = *measure A in Z, apply Z on B when the outcome is 1*
//! (the "classical CZ"), `M₀` its outcome-flipped variant, and `N₁`/`N₀`
//! the same with the roles of A and B exchanged. Every term is LOCC; the
//! 1-norm is `6·½ = 3`. Each term is an ordinary [`CutTerm`] whose inputs
//! and outputs are both qubits `[0, 1]`, so the derivation is verified
//! *exactly* by the generic channel tomography of [`crate::term`] in the
//! tests, and the coefficients are independently re-derived by least
//! squares in `coefficients_recovered_by_lstsq`.

use crate::term::{spec_of, CutTerm};
use qpd::QpdSpec;
use qsim::{Circuit, Superoperator};

/// The six-term optimal CZ gate cut.
#[derive(Clone, Copy, Debug, Default)]
pub struct CzGateCut;

fn s_s_circuit(dagger: bool) -> Circuit {
    let mut c = Circuit::new(2, 1);
    if dagger {
        c.sdg(0).sdg(1);
    } else {
        c.s(0).s(1);
    }
    c
}

/// Measure qubit `meas` in Z; apply Z on the other qubit when the outcome
/// equals `on_outcome`.
fn measure_feedforward_circuit(meas: usize, on_outcome: bool) -> Circuit {
    let other = 1 - meas;
    let mut c = Circuit::new(2, 1);
    c.measure(meas, 0);
    c.gate_if(qsim::Gate::Z, &[other], 0, on_outcome);
    c
}

impl CzGateCut {
    /// The six terms, each a two-qubit circuit on qubits (0 = A, 1 = B)
    /// plus one classical bit, mapping both qubits in and out.
    pub fn terms(&self) -> Vec<CutTerm> {
        let term = |coefficient: f64, label: &str, circuit: Circuit| CutTerm {
            coefficient,
            label: label.into(),
            pairs_consumed: 0.0,
            circuit,
            input_qubits: vec![0, 1],
            output_qubits: vec![0, 1],
            resource_prep_len: 0,
        };
        vec![
            term(0.5, "S⊗S", s_s_circuit(false)),
            term(0.5, "S†⊗S†", s_s_circuit(true)),
            term(0.5, "measA-Z@1", measure_feedforward_circuit(0, true)),
            term(-0.5, "measA-Z@0", measure_feedforward_circuit(0, false)),
            term(0.5, "measB-Z@1", measure_feedforward_circuit(1, true)),
            term(-0.5, "measB-Z@0", measure_feedforward_circuit(1, false)),
        ]
    }

    /// Coefficient structure.
    pub fn spec(&self) -> QpdSpec {
        spec_of(&self.terms())
    }

    /// `κ = 3`, the optimal gate-cut overhead for CZ.
    pub fn kappa(&self) -> f64 {
        self.spec().kappa()
    }
}

/// The target: the exact CZ channel.
pub fn cz_channel() -> Superoperator {
    Superoperator::from_unitary(&qsim::Gate::CZ.matrix())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{reconstructed_channel, term_channel};
    use qlinalg::{c64, lstsq, Complex64, Matrix};

    #[test]
    fn reconstructs_cz_channel_exactly() {
        let d = reconstructed_channel(&CzGateCut.terms()).distance(&cz_channel());
        assert!(d < 1e-10, "CZ gate cut wrong: distance {d}");
    }

    #[test]
    fn kappa_is_three() {
        assert!((CzGateCut.kappa() - 3.0).abs() < 1e-12);
        assert!(CzGateCut.spec().validate(1e-12).is_ok());
    }

    #[test]
    fn has_six_locc_terms() {
        let terms = CzGateCut.terms();
        assert_eq!(terms.len(), 6);
        // No two-qubit gates anywhere: every term is trivially local +
        // classical feed-forward.
        for t in &terms {
            for instr in t.circuit.instructions() {
                if let qsim::Op::Gate(g, qs) = &instr.op {
                    assert_eq!(qs.len(), 1, "non-local gate {g} in term {}", t.label);
                }
            }
        }
    }

    #[test]
    fn every_term_is_trace_preserving() {
        for t in CzGateCut.terms() {
            assert!(
                term_channel(&t).is_trace_preserving(1e-10),
                "term {} not TP",
                t.label
            );
        }
    }

    #[test]
    fn coefficients_recovered_by_lstsq() {
        // The six channels are linearly dependent (M₁ + M₀ = N₁ + N₀ =
        // twice the fully dephasing channel), so solve over the
        // independent five-channel dictionary {S⊗S, S†⊗S†, M₁, M₀, N₁}.
        // Eliminating N₀ from the hand-derived solution via
        // N₀ = M₁ + M₀ − N₁ predicts coefficients (½, ½, 0, −1, 1) —
        // still with 1-norm 3.
        let terms = CzGateCut.terms();
        let target = cz_channel();
        let rows = 16 * 16;
        let mut a = Matrix::zeros(rows, 5);
        for (j, t) in terms.iter().take(5).enumerate() {
            let ch = term_channel(t);
            for r in 0..16 {
                for c in 0..16 {
                    a[(r * 16 + c, j)] = ch.matrix()[(r, c)];
                }
            }
        }
        let mut b: Vec<Complex64> = Vec::with_capacity(rows);
        for r in 0..16 {
            for c in 0..16 {
                b.push(target.matrix()[(r, c)]);
            }
        }
        let x = lstsq(&a, &b);
        let expect = [0.5, 0.5, 0.0, -1.0, 1.0];
        for (got, want) in x.iter().zip(expect.iter()) {
            assert!(
                got.approx_eq(c64(*want, 0.0), 1e-7),
                "lstsq coefficients {x:?} differ from {expect:?}"
            );
        }
        let one_norm: f64 = x.iter().map(|z| z.abs()).sum();
        assert!((one_norm - 3.0).abs() < 1e-7, "recovered 1-norm {one_norm}");
    }

    #[test]
    fn gate_cut_overhead_matches_wire_cut_overhead() {
        // γ(CZ) = γ(I) = 3: cutting one CZ costs as much as cutting one
        // wire without entanglement.
        assert!((CzGateCut.kappa() - crate::theory::GAMMA_NO_ENTANGLEMENT).abs() < 1e-12);
    }

    #[test]
    fn wrong_sign_fails_reconstruction() {
        // Sanity: flipping one sign must break the identity, proving the
        // test has teeth.
        let mut acc = Superoperator::zero(4, 4);
        for (i, term) in CzGateCut.terms().iter().enumerate() {
            let coeff = if i == 3 {
                -term.coefficient
            } else {
                term.coefficient
            };
            acc.axpy(coeff, &term_channel(term));
        }
        assert!(acc.distance(&cz_channel()) > 0.1);
    }
}
