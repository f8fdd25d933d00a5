//! Extension: cutting several parallel wires (paper §VI, future work; cf.
//! Brenner et al., reference \[11\]).
//!
//! Cutting `w` wires independently multiplies the sampling overhead:
//! `κ_total = Πᵢ κᵢ` — the exponential cost the paper's introduction
//! motivates (`γⁿ = (2/f − 1)ⁿ` for `n` Theorem 1-optimal cuts, see
//! [`crate::theory::gamma_from_overlap`]). The construction is the
//! product QPD over any [`crate::term::WireCut`]s: terms are tuples of
//! per-cut terms with coefficient `Πᵢ cᵢ`, executed on disjoint qubit
//! blocks of one joint register so that entangling sender circuits (GHZ
//! preparation etc.) across the cut qubits are supported. The product is
//! itself a [`WireCut`], compiled like any other by
//! [`crate::executor::PreparedCut::from_terms`]; [`crate::joint`] beats
//! its overhead with a genuinely joint measurement (`2^{n+1} − 1 < 3ⁿ`).

use crate::term::{CutTerm, WireCut};
use qpd::QpdSpec;
use qsim::Circuit;

/// Cutting parallel wires with (possibly different) cuts, one per block
/// of wires.
pub struct ParallelWireCut {
    cuts: Vec<Box<dyn WireCut>>,
}

impl ParallelWireCut {
    /// Creates a parallel cut from per-block schemes, in wire order.
    pub fn new(cuts: Vec<Box<dyn WireCut>>) -> Self {
        assert!(!cuts.is_empty());
        Self { cuts }
    }

    /// `w` identical cuts.
    pub fn uniform<C: WireCut + Clone + 'static>(cut: C, wires: usize) -> Self {
        assert!(wires >= 1);
        Self {
            cuts: (0..wires)
                .map(|_| Box::new(cut.clone()) as Box<dyn WireCut>)
                .collect(),
        }
    }

    fn build_term(picked: &[&CutTerm]) -> CutTerm {
        let total_qubits: usize = picked.iter().map(|t| t.circuit.num_qubits()).sum();
        let total_clbits: usize = picked.iter().map(|t| t.circuit.num_clbits().max(1)).sum();
        let mut circuit = Circuit::new(total_qubits, total_clbits);
        let mut input_qubits = Vec::with_capacity(picked.len());
        let mut output_qubits = Vec::with_capacity(picked.len());
        let mut labels = Vec::with_capacity(picked.len());
        let mut coefficient = 1.0;
        let mut pairs = 0.0;
        let mut q_off = 0usize;
        let mut c_off = 0usize;
        for t in picked {
            let qmap: Vec<usize> = (0..t.circuit.num_qubits()).map(|q| q + q_off).collect();
            let cmap: Vec<usize> = (0..t.circuit.num_clbits()).map(|c| c + c_off).collect();
            circuit.compose_mapped(&t.circuit, &qmap, &cmap);
            input_qubits.extend(t.input_qubits.iter().map(|q| q + q_off));
            output_qubits.extend(t.output_qubits.iter().map(|q| q + q_off));
            labels.push(t.label.as_str());
            coefficient *= t.coefficient;
            pairs += t.pairs_consumed;
            q_off += t.circuit.num_qubits();
            c_off += t.circuit.num_clbits().max(1);
        }
        CutTerm {
            coefficient,
            label: labels.join("⊗"),
            pairs_consumed: pairs,
            circuit,
            input_qubits,
            output_qubits,
            // Only the first block's resource preparation leads the
            // joint circuit.
            resource_prep_len: picked[0].resource_prep_len,
        }
    }
}

impl WireCut for ParallelWireCut {
    fn name(&self) -> String {
        let names: Vec<String> = self.cuts.iter().map(|c| c.name()).collect();
        names.join("⊗")
    }

    /// Enumerates all product terms, last cut fastest, laying each cut's
    /// term circuit on a disjoint qubit/clbit block.
    fn terms(&self) -> Vec<CutTerm> {
        let per_cut: Vec<Vec<CutTerm>> = self.cuts.iter().map(|c| c.terms()).collect();
        let mut combos: Vec<Vec<&CutTerm>> = vec![vec![]];
        for terms in &per_cut {
            combos = combos
                .iter()
                .flat_map(|combo| {
                    terms.iter().map(move |t| {
                        let mut next = combo.clone();
                        next.push(t);
                        next
                    })
                })
                .collect();
        }
        combos
            .iter()
            .map(|picked| Self::build_term(picked))
            .collect()
    }

    /// The product of the per-cut specs, folded in the order
    /// [`terms`](Self::terms) combines them, without building a term
    /// circuit.
    fn spec(&self) -> QpdSpec {
        let specs: Vec<QpdSpec> = self.cuts.iter().map(|c| c.spec()).collect();
        QpdSpec::product(&specs)
    }

    /// Product overhead `Πᵢ κᵢ`.
    fn kappa(&self) -> f64 {
        self.cuts.iter().map(|c| c.kappa()).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::PreparedCut;
    use crate::harada::HaradaCut;
    use crate::nme::NmeCut;
    use qpd::Allocator;
    use qsim::PauliString;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn multi_term_batched_and_per_shot_paths_agree() {
        use crate::executor::check_terms_against_circuit_oracle;
        use crate::joint::JointWireCut;
        let mut prep = Circuit::new(2, 0);
        prep.ry(0.7, 0).cx(0, 1);
        let zz = PauliString::from_label("ZZ");
        let product = ParallelWireCut::uniform(NmeCut::new(0.5), 2);
        let joint = JointWireCut::new(2);
        let branching_terms = check_terms_against_circuit_oracle(&product, &prep, &zz, 600)
            + check_terms_against_circuit_oracle(&joint, &prep, &zz, 700);
        assert!(branching_terms > 0, "no term circuit measured mid-circuit");
    }

    #[test]
    fn product_kappa_is_exponential() {
        let double = ParallelWireCut::uniform(HaradaCut, 2);
        assert!((double.kappa() - 9.0).abs() < 1e-12);
        let triple = ParallelWireCut::uniform(NmeCut::new(0.5), 3);
        let single = NmeCut::new(0.5).kappa();
        assert!((triple.kappa() - single.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn term_count_is_product() {
        let cut = ParallelWireCut::uniform(HaradaCut, 2);
        assert_eq!(cut.terms().len(), 9);
        let spec = cut.spec();
        assert!((spec.kappa() - 9.0).abs() < 1e-12);
        assert!(spec.validate(1e-12).is_ok());
    }

    #[test]
    fn product_state_through_double_cut() {
        // Two independent qubits Ry(a), Ry(b); observable Z⊗Z.
        // Exact: cos(a)·cos(b).
        let (a, b) = (0.8f64, 1.3f64);
        let mut prep = Circuit::new(2, 0);
        prep.ry(a, 0).ry(b, 1);
        let cut = ParallelWireCut::uniform(NmeCut::new(0.6), 2);
        let prepared = PreparedCut::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::from_label("ZZ"),
        );
        let expect = a.cos() * b.cos();
        assert!(
            (prepared.exact_value() - expect).abs() < 1e-9,
            "exact {} vs {}",
            prepared.exact_value(),
            expect
        );
    }

    #[test]
    fn entangled_sender_state_through_double_cut() {
        // Sender prepares a Bell-like state Ry(θ) + CX across the two cut
        // wires; ⟨ZZ⟩ = 1 (perfect correlation), ⟨ZI⟩ = cos θ.
        let theta = 0.9f64;
        let mut prep = Circuit::new(2, 0);
        prep.ry(theta, 0).cx(0, 1);
        let cut = ParallelWireCut::uniform(HaradaCut, 2);
        let zz = PreparedCut::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::from_label("ZZ"),
        );
        assert!(
            (zz.exact_value() - 1.0).abs() < 1e-9,
            "⟨ZZ⟩ = {}",
            zz.exact_value()
        );
        let zi = PreparedCut::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::from_label("IZ"),
        );
        assert!(
            (zi.exact_value() - theta.cos()).abs() < 1e-9,
            "⟨ZI⟩ = {}",
            zi.exact_value()
        );
    }

    #[test]
    fn mixed_cut_types_compose() {
        // Wire 0 cut with Harada, wire 1 with NME(k=1) teleportation.
        let cut = ParallelWireCut::new(vec![Box::new(HaradaCut), Box::new(NmeCut::new(1.0))]);
        assert!((cut.kappa() - 3.0).abs() < 1e-12);
        let mut prep = Circuit::new(2, 0);
        prep.ry(0.7, 0).ry(1.1, 1);
        let prepared = PreparedCut::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::from_label("ZZ"),
        );
        let expect = (0.7f64).cos() * (1.1f64).cos();
        assert!((prepared.exact_value() - expect).abs() < 1e-9);
    }

    #[test]
    fn estimator_converges_on_double_cut() {
        let mut prep = Circuit::new(2, 0);
        prep.ry(0.9, 0).cx(0, 1);
        let cut = ParallelWireCut::uniform(NmeCut::new(0.8), 2);
        let prepared = PreparedCut::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::from_label("ZZ"),
        );
        let mut rng = StdRng::seed_from_u64(31);
        let reps = 40;
        let mean: f64 = (0..reps)
            .map(|_| {
                qpd::estimate_allocated(
                    &prepared.spec,
                    &prepared.terms,
                    3000,
                    Allocator::Proportional,
                    &mut rng,
                )
            })
            .sum::<f64>()
            / reps as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn more_entanglement_means_fewer_product_terms_weight() {
        // κ of the double NME cut decreases monotonically with f.
        let mut prev = f64::INFINITY;
        for &f in &[0.5, 0.7, 0.9, 1.0] {
            let cut = ParallelWireCut::uniform(NmeCut::from_overlap(f), 2);
            assert!(cut.kappa() <= prev + 1e-12);
            prev = cut.kappa();
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }
}
