//! Cut abstraction: executable QPD terms and channel verification.
//!
//! A wire cut replaces the identity channel on one or more qubits
//! (Figure 1/4) by a signed combination of LOCC-implementable
//! subcircuits, recombined as the QPD of Eq. 11–13. Every cut in this
//! crate is a list of [`CutTerm`]s behind the [`WireCut`] trait: the
//! single-wire cuts ([`crate::harada`], [`crate::peng`], [`crate::nme`],
//! [`crate::mixed`]), their products ([`crate::multi`]) and the joint
//! multi-wire cuts ([`crate::joint`], [`crate::joint_nme`]); a
//! single-wire cut is just the one-wire case, and the CZ gate cut of
//! [`crate::gatecut`] reuses the same term type. The generic machinery
//! here turns a cut into a [`qpd::QpdSpec`] plus executable circuits
//! (compiled to samplers by [`crate::executor`]), and — crucially —
//! verifies the defining identity `Σᵢ cᵢ Fᵢ = I` (Eq. 19/23) **exactly**
//! at the channel level via density-matrix process tomography.

use qlinalg::Matrix;
use qpd::{QpdSpec, TermSpec};
use qsim::{execute_density, Circuit, DensityMatrix, Superoperator};

/// One executable cut term.
#[derive(Clone, Debug)]
pub struct CutTerm {
    /// Signed QPD coefficient `cᵢ`.
    pub coefficient: f64,
    /// Display label (a product term joins its factors' labels with `⊗`).
    pub label: String,
    /// Entangled pairs consumed per execution.
    pub pairs_consumed: f64,
    /// The term circuit. The cut-input state enters on `input_qubits`;
    /// all other qubits must start in `|0⟩` (resource preparation is part
    /// of the circuit); the transmitted state leaves on `output_qubits`.
    pub circuit: Circuit,
    /// Qubits where the state to transmit enters (`input_qubits[i]`
    /// carries wire `i`).
    pub input_qubits: Vec<usize>,
    /// Qubits where the transmitted state leaves (`output_qubits[i]`
    /// carries wire `i`).
    pub output_qubits: Vec<usize>,
    /// Number of leading instructions that prepare the **pre-shared**
    /// resource state (entanglement distribution happens before the LOCC
    /// protocol starts, so these are exempt from locality checks).
    pub resource_prep_len: usize,
}

/// A wire-cutting scheme: a finite set of [`CutTerm`]s whose signed sum
/// reproduces the identity channel on the cut wires.
pub trait WireCut: Send + Sync {
    /// Descriptive name (used in experiment output).
    fn name(&self) -> String;

    /// The executable terms.
    fn terms(&self) -> Vec<CutTerm>;

    /// Coefficient structure for the QPD estimators.
    fn spec(&self) -> QpdSpec {
        spec_of(&self.terms())
    }

    /// The theoretical sampling overhead `κ = Σ|cᵢ|` of this realisation.
    fn kappa(&self) -> f64 {
        self.spec().kappa()
    }
}

/// The coefficients and pair counts of `terms`, in term order.
pub fn spec_of(terms: &[CutTerm]) -> QpdSpec {
    QpdSpec::new(
        terms
            .iter()
            .map(|t| TermSpec {
                coefficient: t.coefficient,
                pairs_consumed: t.pairs_consumed,
            })
            .collect(),
    )
}

/// The exact channel implemented by one term, `2^|inputs|` to
/// `2^|outputs|` dimensional: probe the term circuit with matrix units on
/// the input qubits (all other qubits `|0⟩`), simulate every measurement
/// branch, and trace down to the output qubits. Dense process tomography
/// — `4^|inputs|` density-matrix simulations — so small widths only.
pub fn term_channel(term: &CutTerm) -> Superoperator {
    let n = term.circuit.num_qubits();
    let d_in = 1 << term.input_qubits.len();
    let d_out = 1 << term.output_qubits.len();
    Superoperator::from_linear_map(d_in, d_out, |rho_in| {
        let full = embed_input(rho_in, &term.input_qubits, n);
        let out = execute_density(&term.circuit, &full);
        out.partial_trace(&term.output_qubits).into_matrix()
    })
}

/// Embeds a `2^k × 2^k` operator on the listed qubits (`qubits[i]`
/// carries bit `i`) with `|0⟩⟨0|` on every other qubit of an `n`-qubit
/// register.
pub fn embed_input(rho_in: &Matrix, qubits: &[usize], n: usize) -> DensityMatrix {
    let k = qubits.len();
    assert_eq!(rho_in.rows(), 1 << k);
    let spread = |bits: usize| -> usize {
        qubits
            .iter()
            .enumerate()
            .fold(0, |idx, (b, &q)| idx | (((bits >> b) & 1) << q))
    };
    let mut full = Matrix::zeros(1 << n, 1 << n);
    for r in 0..(1 << k) {
        for c in 0..(1 << k) {
            full[(spread(r), spread(c))] = rho_in[(r, c)];
        }
    }
    DensityMatrix::from_matrix(n, full)
}

/// The channel reconstructed by a term list: `Σᵢ cᵢ · (term channel)ᵢ`.
///
/// # Panics
/// Panics if `terms` is empty or its terms differ in width.
pub fn reconstructed_channel(terms: &[CutTerm]) -> Superoperator {
    let d_in = 1 << terms[0].input_qubits.len();
    let d_out = 1 << terms[0].output_qubits.len();
    let mut acc = Superoperator::zero(d_in, d_out);
    for term in terms {
        acc.axpy(term.coefficient, &term_channel(term));
    }
    acc
}

/// Max-entry distance between the reconstructed channel and the identity
/// on the cut wires — zero (to numerical precision) iff the cut is
/// correct (Eq. 19/23).
pub fn identity_distance(cut: &dyn WireCut) -> f64 {
    let terms = cut.terms();
    let d = 1 << terms[0].input_qubits.len();
    reconstructed_channel(&terms).distance(&Superoperator::identity(d))
}

/// Checks that every term is individually a **local** operation with
/// classical communication in the cut's sender/receiver split: all gates
/// act within one side, and information crosses only through classical
/// bits. `sender_qubits` lists the qubits on the sender device (the rest
/// are receiver-side).
pub fn verify_locc_structure(term: &CutTerm, sender_qubits: &[usize]) -> Result<(), String> {
    use qsim::Op;
    let is_sender = |q: usize| sender_qubits.contains(&q);
    for (idx, instr) in term.circuit.instructions().iter().enumerate() {
        if idx < term.resource_prep_len {
            continue;
        }
        if let Op::Gate(g, qs) = &instr.op {
            if qs.len() == 2 && is_sender(qs[0]) != is_sender(qs[1]) {
                return Err(format!(
                    "instruction {idx} ({g}) couples sender and receiver qubits {qs:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlinalg::c64;
    use qsim::Gate;

    /// A "cut" consisting of the identity channel itself (one term,
    /// coefficient 1, a wire passing straight through one qubit).
    struct TrivialCut;

    impl WireCut for TrivialCut {
        fn name(&self) -> String {
            "trivial".into()
        }
        fn terms(&self) -> Vec<CutTerm> {
            let c = Circuit::new(1, 0);
            vec![CutTerm {
                coefficient: 1.0,
                label: "identity".into(),
                pairs_consumed: 0.0,
                circuit: c,
                input_qubits: vec![0],
                output_qubits: vec![0],
                resource_prep_len: 0,
            }]
        }
    }

    #[test]
    fn trivial_cut_reconstructs_identity() {
        assert!(identity_distance(&TrivialCut) < 1e-12);
        assert!((TrivialCut.kappa() - 1.0).abs() < 1e-12);
    }

    /// A deliberately wrong cut (applies X): distance must be large.
    struct WrongCut;

    impl WireCut for WrongCut {
        fn name(&self) -> String {
            "wrong".into()
        }
        fn terms(&self) -> Vec<CutTerm> {
            let mut c = Circuit::new(1, 0);
            c.x(0);
            vec![CutTerm {
                coefficient: 1.0,
                label: "x".into(),
                pairs_consumed: 0.0,
                circuit: c,
                input_qubits: vec![0],
                output_qubits: vec![0],
                resource_prep_len: 0,
            }]
        }
    }

    #[test]
    fn wrong_cut_detected() {
        assert!(identity_distance(&WrongCut) > 0.5);
    }

    #[test]
    fn term_channel_of_unitary_term() {
        let mut c = Circuit::new(1, 0);
        c.h(0);
        let term = CutTerm {
            coefficient: 1.0,
            label: "h".into(),
            pairs_consumed: 0.0,
            circuit: c,
            input_qubits: vec![0],
            output_qubits: vec![0],
            resource_prep_len: 0,
        };
        let ch = term_channel(&term);
        let expect = Superoperator::from_unitary(&Gate::H.matrix());
        assert!(ch.distance(&expect) < 1e-12);
    }

    #[test]
    fn term_channel_with_relocation() {
        // A term whose circuit moves the state from qubit 0 to qubit 1 via
        // swap: channel must still be the identity (input 0, output 1).
        let mut c = Circuit::new(2, 0);
        c.swap(0, 1);
        let term = CutTerm {
            coefficient: 1.0,
            label: "swap".into(),
            pairs_consumed: 0.0,
            circuit: c,
            input_qubits: vec![0],
            output_qubits: vec![1],
            resource_prep_len: 0,
        };
        let ch = term_channel(&term);
        assert!(ch.distance(&Superoperator::identity(2)) < 1e-12);
    }

    #[test]
    fn embed_input_places_operator() {
        let rho = Matrix::from_rows(&[
            vec![c64(0.25, 0.0), c64(0.1, 0.05)],
            vec![c64(0.1, -0.05), c64(0.75, 0.0)],
        ]);
        let full = embed_input(&rho, &[1], 3);
        assert_eq!(full.num_qubits(), 3);
        // Trace over others must recover rho on qubit 1.
        let back = full.partial_trace(&[1]);
        assert!(back.matrix().approx_eq(&rho, 1e-12));
        // Other qubits are |0⟩.
        let q0 = full.partial_trace(&[0]);
        assert!((q0.matrix()[(0, 0)].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn locc_check_flags_cross_gates() {
        let mut c = Circuit::new(2, 1);
        c.cx(0, 1);
        let term = CutTerm {
            coefficient: 1.0,
            label: "bad".into(),
            pairs_consumed: 0.0,
            circuit: c,
            input_qubits: vec![0],
            output_qubits: vec![1],
            resource_prep_len: 0,
        };
        assert!(verify_locc_structure(&term, &[0]).is_err());
        // With both qubits on the sender side it is local.
        assert!(verify_locc_structure(&term, &[0, 1]).is_ok());
    }
}
