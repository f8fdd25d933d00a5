//! Extension: cutting several parallel wires (paper §VI, future work; cf.
//! Brenner et al., reference \[11\]).
//!
//! Cutting `w` wires independently multiplies the sampling overhead:
//! `κ_total = Πᵢ κᵢ` — the exponential cost the paper's introduction
//! motivates (`γⁿ = (2/f − 1)ⁿ` for `n` Theorem 1-optimal cuts, see
//! [`crate::theory::gamma_from_overlap`]). The construction is the
//! product QPD over any per-wire [`crate::term::WireCut`]s: terms are
//! tuples of per-wire terms with coefficient `Πᵢ cᵢ`, executed on
//! disjoint qubit blocks of one joint register so that entangling sender
//! circuits (GHZ preparation etc.) across the cut qubits are supported.
//! [`crate::joint`] beats this product overhead with a genuinely joint
//! measurement (`2^{n+1} − 1 < 3ⁿ`); [`PreparedMultiCut`] is the shared
//! compilation target for both. It simulates each term circuit once and
//! keeps only the exact expectation of the ±1 Z-parity observable, as
//! a [`qpd::BernoulliTerm`]: that value fixes the outcome's whole law.

use crate::term::{CutTerm, WireCut};
use qpd::{BernoulliTerm, QpdSpec, TermSpec};
use qsim::{Circuit, CompiledSampler, PauliString};

/// A wire-cut product term over `w` wires.
#[derive(Clone, Debug)]
pub struct MultiCutTerm {
    /// Product coefficient `Πᵢ cᵢ`.
    pub coefficient: f64,
    /// Per-wire labels.
    pub labels: Vec<String>,
    /// Joint circuit over all blocks.
    pub circuit: Circuit,
    /// Input qubit of each wire's block.
    pub input_qubits: Vec<usize>,
    /// Output qubit of each wire's block.
    pub output_qubits: Vec<usize>,
    /// Total entangled pairs consumed.
    pub pairs_consumed: f64,
}

/// Cutting `w` parallel wires with (possibly different) single-wire cuts.
pub struct ParallelWireCut {
    cuts: Vec<Box<dyn WireCut>>,
}

impl ParallelWireCut {
    /// Creates a parallel cut from per-wire schemes.
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

    /// Number of wires.
    pub fn num_wires(&self) -> usize {
        self.cuts.len()
    }

    /// Product overhead `Πᵢ κᵢ`.
    pub fn kappa(&self) -> f64 {
        self.cuts.iter().map(|c| c.kappa()).product()
    }

    /// Enumerates all product terms, laying each wire's term circuit on a
    /// disjoint qubit/clbit block.
    pub fn terms(&self) -> Vec<MultiCutTerm> {
        let per_wire: Vec<Vec<CutTerm>> = self.cuts.iter().map(|c| c.terms()).collect();
        let mut combos: Vec<Vec<usize>> = vec![vec![]];
        for terms in &per_wire {
            let mut next = Vec::with_capacity(combos.len() * terms.len());
            for combo in &combos {
                for i in 0..terms.len() {
                    let mut c = combo.clone();
                    c.push(i);
                    next.push(c);
                }
            }
            combos = next;
        }
        combos
            .into_iter()
            .map(|combo| self.build_term(&per_wire, &combo))
            .collect()
    }

    fn build_term(&self, per_wire: &[Vec<CutTerm>], combo: &[usize]) -> MultiCutTerm {
        let picked: Vec<&CutTerm> = combo
            .iter()
            .enumerate()
            .map(|(w, &i)| &per_wire[w][i])
            .collect();
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
        for t in &picked {
            let qmap: Vec<usize> = (0..t.circuit.num_qubits()).map(|q| q + q_off).collect();
            let cmap: Vec<usize> = (0..t.circuit.num_clbits()).map(|c| c + c_off).collect();
            circuit.compose_mapped(&t.circuit, &qmap, &cmap);
            input_qubits.push(t.input_qubit + q_off);
            output_qubits.push(t.output_qubit + q_off);
            labels.push(t.label.clone());
            coefficient *= t.coefficient;
            pairs += t.pairs_consumed;
            q_off += t.circuit.num_qubits();
            c_off += t.circuit.num_clbits().max(1);
        }
        MultiCutTerm {
            coefficient,
            labels,
            circuit,
            input_qubits,
            output_qubits,
            pairs_consumed: pairs,
        }
    }

    /// Coefficient structure of the product QPD.
    pub fn spec(&self) -> QpdSpec {
        QpdSpec::new(
            self.terms()
                .iter()
                .map(|t| TermSpec {
                    coefficient: t.coefficient,
                    pairs_consumed: t.pairs_consumed,
                })
                .collect(),
        )
    }
}

/// The circuit of `term` with the sender's input preparation composed in,
/// and the mask of output qubits on which `observable` (diagonal, Z/I)
/// places a Z.
fn term_circuit(
    term: &MultiCutTerm,
    input_prep: &Circuit,
    observable: &PauliString,
) -> (Circuit, usize) {
    assert_eq!(input_prep.num_qubits(), term.input_qubits.len());
    assert_eq!(observable.num_qubits(), term.output_qubits.len());
    assert!(
        observable.is_diagonal(),
        "multi-cut estimator supports diagonal (Z/I) observables"
    );
    let n = term.circuit.num_qubits();
    let mut circuit = Circuit::new(n, term.circuit.num_clbits());
    // Input preparation acts on the input qubits of all wires — the
    // sender device holds all of them before the cut.
    let cmap: Vec<usize> = (0..input_prep.num_clbits()).collect();
    circuit.compose_mapped(input_prep, &term.input_qubits, &cmap);
    circuit.compose(&term.circuit);
    let mut z_mask = 0usize;
    for (w, &q) in term.output_qubits.iter().enumerate() {
        if observable.op(w) == qsim::Pauli::Z {
            z_mask |= 1 << q;
        }
    }
    (circuit, z_mask)
}

/// A fully compiled parallel (or joint) cut ready for the `qpd`
/// estimators.
pub struct PreparedMultiCut {
    /// Product QPD coefficient structure.
    pub spec: QpdSpec,
    /// Each term's ±1 parity law, fixed by its circuit's exact
    /// expectation; index-aligned with `spec`.
    pub terms: Vec<BernoulliTerm>,
}

impl PreparedMultiCut {
    /// Compiles the product QPD for a sender input preparation circuit
    /// (over the `w` cut qubits) and a diagonal observable on the outputs.
    pub fn new(cut: &ParallelWireCut, input_prep: &Circuit, observable: &PauliString) -> Self {
        Self::from_terms(cut.spec(), &cut.terms(), input_prep, observable)
    }

    /// Compiles an explicit multi-wire term list (used by the joint cut of
    /// [`crate::joint`], whose terms are not a product of single-wire
    /// cuts): each term circuit is simulated once, and its exact parity
    /// expectation read off the branch tree becomes its law.
    pub fn from_terms(
        spec: QpdSpec,
        terms: &[MultiCutTerm],
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

    /// Exact decomposed value `Σ c·⟨O⟩`.
    pub fn exact_value(&self) -> f64 {
        qpd::exact_value(&self.spec, &self.terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harada::HaradaCut;
    use crate::nme::NmeCut;
    use qpd::{Allocator, TermSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn multi_term_batched_and_per_shot_paths_agree() {
        // Each folded term keeps only its circuit's exact parity value.
        // The oracle is the term circuit's own branch-tree sampler, built
        // here: per shot it draws a leaf, then a Z-basis outcome, and
        // reads the parity. Those draws and the folded term's batched
        // draw must both sit within 5σ of the stored value, which must be
        // the sampler's exact parity expectation bit for bit.
        use crate::joint::JointWireCut;
        let mut prep = Circuit::new(2, 0);
        prep.ry(0.7, 0).cx(0, 1);
        let zz = PauliString::from_label("ZZ");
        let product = ParallelWireCut::uniform(NmeCut::new(0.5), 2);
        let joint = JointWireCut::new(2);
        let cuts = [
            ("product", product.spec(), product.terms()),
            ("joint", joint.spec(), joint.terms()),
        ];
        let shots = 40_000u64;
        let mut branching_terms = 0;
        for (c, (name, spec, terms)) in cuts.into_iter().enumerate() {
            let prepared = PreparedMultiCut::from_terms(spec, &terms, &prep, &zz);
            for (i, (term, folded)) in terms.iter().zip(&prepared.terms).enumerate() {
                let (circuit, z_mask) = term_circuit(term, &prep, &zz);
                let oracle = CompiledSampler::compile(&circuit, None);
                if oracle.leaves().len() > 1 {
                    branching_terms += 1;
                }
                let exact = folded.exact_expectation();
                assert_eq!(
                    exact.to_bits(),
                    oracle.exact_expval_parity(z_mask).to_bits()
                );
                let seed = 300 + 100 * c as u64 + i as u64;
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
                // Each mean has SE ≤ 1/√shots = 0.005; allow 5σ against exact.
                assert!(
                    (per_shot - exact).abs() < 0.025,
                    "{name} term {i}: circuit per-shot {per_shot} vs {exact}"
                );
                assert!(
                    (batched - exact).abs() < 0.025,
                    "{name} term {i}: folded batched {batched} vs {exact}"
                );
            }
        }
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
        let prepared = PreparedMultiCut::new(&cut, &prep, &PauliString::from_label("ZZ"));
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
        let zz = PreparedMultiCut::new(&cut, &prep, &PauliString::from_label("ZZ"));
        assert!(
            (zz.exact_value() - 1.0).abs() < 1e-9,
            "⟨ZZ⟩ = {}",
            zz.exact_value()
        );
        let zi = PreparedMultiCut::new(&cut, &prep, &PauliString::from_label("IZ"));
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
        let prepared = PreparedMultiCut::new(&cut, &prep, &PauliString::from_label("ZZ"));
        let expect = (0.7f64).cos() * (1.1f64).cos();
        assert!((prepared.exact_value() - expect).abs() < 1e-9);
    }

    #[test]
    fn estimator_converges_on_double_cut() {
        let mut prep = Circuit::new(2, 0);
        prep.ry(0.9, 0).cx(0, 1);
        let cut = ParallelWireCut::uniform(NmeCut::new(0.8), 2);
        let prepared = PreparedMultiCut::new(&cut, &prep, &PauliString::from_label("ZZ"));
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
