//! Extension: **joint parallel wire cutting** with mutually unbiased
//! bases (Harada et al., paper reference \[26\]; Brenner et al. \[11\];
//! scaled to arbitrary `n` following the joint-cutting extension paper
//! arXiv:2406.13315).
//!
//! Cutting `n` wires one-by-one costs `κ = 3ⁿ`; cutting them *jointly* —
//! the sender measures all `n` qubits together, which is still local to
//! the sender device — achieves the optimum `κ = 2d − 1`, `d = 2ⁿ`
//! (7 vs 9 at `n = 2`). The construction rests on the MUB identity for a
//! complete set of `d + 1` mutually unbiased bases `{B_b}`:
//!
//! `Σ_{b=0}^{d} D_b(ρ) = ρ + Tr(ρ)·I`
//!
//! where `D_b` dephases in basis `b`. Solving for ρ and folding the
//! computational-basis term into the subtraction gives
//!
//! `ρ = Σ_{b=1}^{d} D_b(ρ)  −  (d−1)·R(ρ)`,
//!
//! with `R(ρ) = Σ_j Tr[Π_j ρ]·(I − |j⟩⟨j|)/(d−1)` the *measure and
//! prepare a uniformly random other basis state* channel — the
//! multi-qubit generalisation of the Harada flip term. Every term is
//! measure-on-sender / prepare-on-receiver, so LOCC across the cut.
//! 1-norm: `d + (d−1) = 2d − 1`.
//!
//! The complete MUB sets come from the Galois-field /
//! commuting-Pauli-partition construction in [`crate::mub`], valid for
//! every `n ≤` [`mub::MAX_WIRES`] — no hardcoded case split. The
//! **estimate path never touches a dense superoperator**: each term
//! circuit is simulated once on a branch-tree sampler for its exact
//! value ([`crate::multi::PreparedMultiCut`]), and correctness is checked by [`JointWireCut::verify`], which applies
//! each term's Kraus family **sparsely** (`O(d³)` per probe instead of
//! the `2^{2n} × 2^{2n}` process-tomography matrix). The dense
//! [`joint_identity_distance`] tomography survives for small-`n` tests
//! only.
//!
//! The paper's §VI asks whether NME states help *joint* multi-wire cuts;
//! [`crate::joint_nme`] explores that combination numerically — this
//! module provides the entanglement-free joint optimum it compares
//! against, alongside the independent-cut baseline `κ = γⁿ`
//! ([`crate::theory::gamma_phi_k`], Theorem 1).

use crate::mub;
use crate::multi::MultiCutTerm;
use qlinalg::{c64, unitary_with_first_column, Complex64, Matrix};
use qpd::{QpdSpec, TermSpec};
use qsim::{execute_density, Circuit, DensityMatrix, Gate, Superoperator};

/// The complete MUB set for one qubit (`d = 2`): computational, Hadamard
/// (`X` eigenbasis) and `SH` (`Y` eigenbasis) — exactly the `U᷀ᵢ` of the
/// single-wire optimal cut. Closed-form reference; identical (including
/// phases) to [`mub::mub_bases`]`(1)`.
pub fn mub_bases_one_qubit() -> Vec<Matrix> {
    vec![
        Matrix::identity(2),
        Gate::H.matrix(),
        Gate::S.matrix().matmul(&Gate::H.matrix()),
    ]
}

/// A complete set of five MUBs for two qubits (`d = 4`): the joint
/// eigenbases of the five commuting-Pauli-triple partitions of the 15
/// two-qubit Paulis, via the general construction of
/// [`mub::mub_bases`]`(2)` — memoized and fully deterministic (stabilizer
/// columns with a fixed phase convention, no numerical
/// eigendecomposition), so term ordering and seeded-count regressions
/// are stable across platforms.
pub fn mub_bases_two_qubit() -> Vec<Matrix> {
    mub::mub_bases(2)
}

/// Checks that `a` and `b` are mutually unbiased: `|⟨aᵢ|bⱼ⟩|² = 1/d`.
pub fn are_mutually_unbiased(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    let d = a.rows();
    let overlap = a.dagger().matmul(b);
    (0..d).all(|i| (0..d).all(|j| (overlap[(i, j)].norm_sqr() - 1.0 / d as f64).abs() < tol))
}

/// Joint wire cut over `n ≥ 1` wires with `κ = 2^{n+1} − 1`.
#[derive(Clone, Copy, Debug)]
pub struct JointWireCut {
    n: usize,
}

impl JointWireCut {
    /// Creates the joint cut over `n` wires, any `1 ≤ n ≤`
    /// [`mub::MAX_WIRES`]. (Circuit *simulation* cost grows as `2^{3n}`
    /// for the flip term, so estimates are practical up to `n ≈ 6`;
    /// construction and [`Self::verify`] stay cheap far beyond.)
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=mub::MAX_WIRES).contains(&n),
            "joint cut supports 1 ≤ n ≤ {}, got {n}",
            mub::MAX_WIRES
        );
        Self { n }
    }

    /// Number of wires.
    pub fn num_wires(&self) -> usize {
        self.n
    }

    /// Hilbert-space dimension `d = 2ⁿ` of the cut.
    pub fn dim(&self) -> usize {
        1 << self.n
    }

    /// The optimal joint overhead `2d − 1`.
    pub fn kappa(&self) -> f64 {
        (2 * self.dim() - 1) as f64
    }

    /// The complete MUB set used by this cut (`d + 1` bases, memoized).
    pub fn bases(&self) -> Vec<Matrix> {
        mub::mub_bases(self.n)
    }

    /// Positive term `b`: measure the sender block in MUB `b`, prepare the
    /// measured basis state on the receiver block. Layout: sender qubits
    /// `0..n`, receiver `n..2n`. (Shared with [`crate::joint_nme`], whose
    /// entanglement-free terms are the same measure-and-prepare channels.)
    pub(crate) fn basis_term_circuit(&self, u: &Matrix) -> Circuit {
        let n = self.n;
        let mut c = Circuit::new(2 * n, n);
        let sender: Vec<usize> = (0..n).collect();
        let receiver: Vec<usize> = (n..2 * n).collect();
        // Rotate MUB → computational on the sender.
        c.unitary(u.dagger(), &sender);
        for q in 0..n {
            c.measure(q, q);
        }
        for (q, &r) in receiver.iter().enumerate().take(n) {
            c.x_if(r, q);
        }
        c.unitary(u.clone(), &receiver);
        c
    }

    /// The negative term `R`: measure the sender in the computational
    /// basis, prepare a uniformly random *different* computational state
    /// on the receiver. The uniform offset `o ∈ {1, …, d−1}` comes from
    /// `n` ancilla qubits prepared in `Σ_{o≠0} |o⟩/√(d−1)` and XOR'd onto
    /// the receiver (ancillas are local to the receiver and traced out).
    pub(crate) fn flip_term_circuit(&self) -> Circuit {
        let n = self.n;
        let d = self.dim();
        let mut c = Circuit::new(3 * n, n);
        let receiver: Vec<usize> = (n..2 * n).collect();
        let ancilla: Vec<usize> = (2 * n..3 * n).collect();
        // Ancilla preparation.
        let amp = 1.0 / ((d - 1) as f64).sqrt();
        let target: Vec<Complex64> = (0..d)
            .map(|o| if o == 0 { c64(0.0, 0.0) } else { c64(amp, 0.0) })
            .collect();
        let prep = unitary_with_first_column(&target);
        c.unitary(prep, &ancilla);
        // Sender measurement, receiver preparation of |j ⊕ o⟩.
        for q in 0..n {
            c.measure(q, q);
        }
        for (q, &r) in receiver.iter().enumerate().take(n) {
            c.x_if(r, q);
        }
        for q in 0..n {
            c.cx(ancilla[q], receiver[q]);
        }
        c
    }

    /// All `d + 1` terms as multi-wire cut terms: one measure-and-prepare
    /// term per non-computational MUB (coefficient `+1`), then the flip
    /// term (coefficient `−(d−1)`).
    pub fn terms(&self) -> Vec<MultiCutTerm> {
        let n = self.n;
        let d = self.dim();
        let bases = self.bases();
        let input_qubits: Vec<usize> = (0..n).collect();
        let output_qubits: Vec<usize> = (n..2 * n).collect();
        let mut terms = Vec::with_capacity(d + 1);
        for (b, u) in bases.iter().enumerate().skip(1) {
            terms.push(MultiCutTerm {
                coefficient: 1.0,
                labels: vec![format!("mub-{b}")],
                circuit: self.basis_term_circuit(u),
                input_qubits: input_qubits.clone(),
                output_qubits: output_qubits.clone(),
                pairs_consumed: 0.0,
            });
        }
        terms.push(MultiCutTerm {
            coefficient: -((d - 1) as f64),
            labels: vec!["meas-prep-other".to_string()],
            circuit: self.flip_term_circuit(),
            input_qubits,
            output_qubits,
            pairs_consumed: 0.0,
        });
        terms
    }

    /// Coefficient structure.
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

    /// Applies the full reconstructed channel `Σᵢ cᵢ Fᵢ` to one operator
    /// via **sparse per-term Kraus application** — `O((d+1)·d³)` total,
    /// no `d² × d²` superoperator. Linear in `rho` (works on arbitrary
    /// matrices, not just states), so probing with a spanning set is
    /// complete process verification.
    pub fn apply_reconstructed(&self, rho: &Matrix) -> Matrix {
        let d = self.dim();
        assert_eq!(rho.rows(), d);
        let bases = self.bases();
        let mut acc = Matrix::zeros(d, d);
        for u in bases.iter().skip(1) {
            acc.axpy(qlinalg::C_ONE, &apply_basis_term(u, rho));
        }
        acc.axpy(c64(-((d - 1) as f64), 0.0), &apply_flip_term(rho));
        acc
    }

    /// Max-entry deviation of the reconstructed channel from the identity,
    /// measured sparsely on a spanning probe set: all `d²` matrix units
    /// for `n ≤ 3`, diagonal units plus seeded random Hermitian probes
    /// beyond (keeping the check `O(d³·probes)` at every `n`).
    pub fn verify_deviation(&self) -> f64 {
        let d = self.dim();
        let mut worst = 0.0f64;
        let mut probe = |rho: &Matrix| {
            let dev = self.apply_reconstructed(rho).sub(rho).max_abs();
            if dev > worst {
                worst = dev;
            }
        };
        if self.n <= 3 {
            for r in 0..d {
                for cidx in 0..d {
                    let mut unit = Matrix::zeros(d, d);
                    unit[(r, cidx)] = qlinalg::C_ONE;
                    probe(&unit);
                }
            }
        } else {
            for j in 0..d {
                let mut unit = Matrix::zeros(d, d);
                unit[(j, j)] = qlinalg::C_ONE;
                probe(&unit);
            }
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(0x006a_6f69_6e74);
            for _ in 0..6 {
                let raw = Matrix::from_fn(d, d, |_, _| {
                    c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
                });
                probe(&raw.add(&raw.dagger()).scale_re(0.5));
            }
        }
        worst
    }

    /// Verifies the joint cut end to end without dense superoperators:
    /// the QPD spec validates with `κ = 2d − 1`, all `d + 1` bases are
    /// unitary and pairwise mutually unbiased, the MUB dephasing identity
    /// holds on probes, and the sparse channel reconstruction is the
    /// identity to within `tol`. Intended for tests and experiment
    /// startup checks — the sampling hot path never calls this.
    pub fn verify(&self, tol: f64) -> Result<(), String> {
        let d = self.dim();
        let spec = self.spec();
        spec.validate(tol.max(1e-12))
            .map_err(|e| format!("spec invalid: {e}"))?;
        if (spec.kappa() - (2 * d - 1) as f64).abs() > 1e-9 {
            return Err(format!("κ = {} ≠ 2d−1 = {}", spec.kappa(), 2 * d - 1));
        }
        let bases = self.bases();
        if bases.len() != d + 1 {
            return Err(format!("{} bases, expected {}", bases.len(), d + 1));
        }
        for (i, u) in bases.iter().enumerate() {
            if !u.is_unitary(tol) {
                return Err(format!("basis {i} not unitary"));
            }
            for (j, v) in bases.iter().enumerate().skip(i + 1) {
                if !are_mutually_unbiased(u, v, tol) {
                    return Err(format!("bases {i},{j} not mutually unbiased"));
                }
            }
        }
        // Non-trivial probe: every dephasing channel fixes I/d, so the
        // maximally mixed state would accept ANY unitary set — use a
        // dense Hermitian with distinct diagonal and full off-diagonal
        // support instead.
        let probe = {
            let raw = Matrix::from_fn(d, d, |r, c| {
                c64(
                    1.0 / (1.0 + r as f64 + 2.0 * c as f64),
                    (r as f64 - c as f64) * 0.1,
                )
            });
            raw.add(&raw.dagger()).scale_re(0.5)
        };
        let dev = mub::dephasing_identity_deviation(&bases, &probe);
        if dev > tol {
            return Err(format!("MUB dephasing identity deviates by {dev}"));
        }
        let dev = self.verify_deviation();
        if dev > tol {
            return Err(format!("reconstructed channel deviates by {dev}"));
        }
        Ok(())
    }
}

/// Sparse Kraus application of a positive MUB term: *measure in basis `b`
/// and prepare the outcome*, `ρ ↦ Σⱼ ⟨uⱼ|ρ|uⱼ⟩ |uⱼ⟩⟨uⱼ| =
/// U·diag(U†ρU)·U†` — the dephasing channel `D_b` with Kraus family
/// `{|uⱼ⟩⟨uⱼ|}`, in `O(d³)` instead of superoperator `O(d⁶)`.
pub fn apply_basis_term(u: &Matrix, rho: &Matrix) -> Matrix {
    let d = rho.rows();
    let in_basis = u.dagger().matmul(rho).matmul(u);
    let diag: Vec<Complex64> = (0..d).map(|j| in_basis[(j, j)]).collect();
    u.matmul(&Matrix::diag(&diag)).matmul(&u.dagger())
}

/// Sparse Kraus application of the flip term `R`: *measure
/// computationally, prepare a uniformly random other basis state*,
/// `ρ ↦ Σⱼ ρⱼⱼ (I − |j⟩⟨j|)/(d−1)` — Kraus family
/// `{|m⟩⟨j|/√(d−1) : m ≠ j}`, in `O(d²)`.
pub fn apply_flip_term(rho: &Matrix) -> Matrix {
    let d = rho.rows();
    let total = rho.trace();
    let scale = 1.0 / (d - 1) as f64;
    Matrix::from_fn(d, d, |r, c| {
        if r == c {
            (total - rho[(r, r)]).scale(scale)
        } else {
            qlinalg::C_ZERO
        }
    })
}

/// Exact `d → d` channel of a multi-wire term: probe with matrix units on
/// the input qubits, trace to the output qubits. **Dense process
/// tomography — `O(d²)` circuit simulations — for small-`n` tests only;
/// the estimate path and [`JointWireCut::verify`] never call this.**
pub fn joint_term_channel(term: &MultiCutTerm) -> Superoperator {
    let n_total = term.circuit.num_qubits();
    let d = 1 << term.input_qubits.len();
    Superoperator::from_linear_map(d, d, |rho_in| {
        let full = embed_input_multi(rho_in, &term.input_qubits, n_total);
        let out = execute_density(&term.circuit, &full);
        out.partial_trace(&term.output_qubits).into_matrix()
    })
}

/// Embeds a `d × d` operator on the listed qubits (`qubits[i]` = bit `i`)
/// with `|0⟩⟨0|` on every other qubit of an `n`-qubit register.
pub fn embed_input_multi(rho_in: &Matrix, qubits: &[usize], n: usize) -> DensityMatrix {
    let k = qubits.len();
    assert_eq!(rho_in.rows(), 1 << k);
    let dim = 1usize << n;
    let mut full = Matrix::zeros(dim, dim);
    let spread = |bits: usize| -> usize {
        let mut idx = 0usize;
        for (b, &q) in qubits.iter().enumerate() {
            idx |= ((bits >> b) & 1) << q;
        }
        idx
    };
    for r in 0..(1 << k) {
        for c in 0..(1 << k) {
            full[(spread(r), spread(c))] = rho_in[(r, c)];
        }
    }
    DensityMatrix::from_matrix(n, full)
}

/// Distance of the reconstructed joint-cut channel from the identity via
/// **dense** circuit-level tomography (`2^{2n}` probes through the
/// density simulator). Exponentially expensive — test-only ground truth
/// for `n ≤ 2`; use [`JointWireCut::verify`] everywhere else.
pub fn joint_identity_distance(cut: &JointWireCut) -> f64 {
    let d = cut.dim();
    let mut acc = Superoperator::zero(d, d);
    for term in cut.terms() {
        acc.axpy(term.coefficient, &joint_term_channel(&term));
    }
    acc.distance(&Superoperator::identity(d))
}

/// The MUB dephasing identity `Σ_b D_b(ρ) = ρ + Tr(ρ)·I`, checked as a
/// dense channel equation; returns the max-entry deviation. Test-only —
/// the sparse per-probe form is
/// [`mub::dephasing_identity_deviation`].
pub fn mub_identity_deviation(bases: &[Matrix]) -> f64 {
    let d = bases[0].rows();
    let mut acc = Superoperator::zero(d, d);
    for u in bases {
        // Dephasing in basis U: Kraus {U Π_j U†}.
        let kraus: Vec<Matrix> = (0..d)
            .map(|j| {
                let mut pi = Matrix::zeros(d, d);
                pi[(j, j)] = qlinalg::C_ONE;
                u.matmul(&pi).matmul(&u.dagger())
            })
            .collect();
        acc.axpy(1.0, &Superoperator::from_kraus(&kraus));
    }
    // Target: ρ → ρ + Tr(ρ)·I  =  identity + d·(trace ∘ maximally-mixed·d)…
    // build directly: S_target = I_channel + |vec(I)⟩⟨vec(I)|-style map.
    let mut target = Superoperator::identity(d);
    let replace =
        Superoperator::from_linear_map(d, d, |rho| Matrix::identity(d).scale(rho.trace()));
    target.axpy(1.0, &replace);
    acc.distance(&target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{ParallelWireCut, PreparedMultiCut};
    use crate::nme::NmeCut;
    use qsim::PauliString;

    #[test]
    fn one_qubit_mubs_are_unbiased() {
        let bases = mub_bases_one_qubit();
        for i in 0..bases.len() {
            assert!(bases[i].is_unitary(1e-12));
            for j in (i + 1)..bases.len() {
                assert!(
                    are_mutually_unbiased(&bases[i], &bases[j], 1e-10),
                    "bases {i},{j} not unbiased"
                );
            }
        }
    }

    #[test]
    fn two_qubit_mubs_are_complete_and_unbiased() {
        let bases = mub_bases_two_qubit();
        assert_eq!(bases.len(), 5);
        for i in 0..5 {
            assert!(bases[i].is_unitary(1e-9), "basis {i} not unitary");
            for j in (i + 1)..5 {
                assert!(
                    are_mutually_unbiased(&bases[i], &bases[j], 1e-8),
                    "bases {i},{j} not unbiased"
                );
            }
        }
    }

    #[test]
    fn two_qubit_mubs_are_deterministic_across_calls() {
        let a = mub_bases_two_qubit();
        let b = mub_bases_two_qubit();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.approx_eq(y, 0.0), "two-qubit MUB set not stable");
        }
    }

    #[test]
    fn mub_dephasing_identity_holds() {
        assert!(mub_identity_deviation(&mub_bases_one_qubit()) < 1e-9);
        assert!(mub_identity_deviation(&mub_bases_two_qubit()) < 1e-8);
    }

    #[test]
    fn joint_cut_kappa_values() {
        assert!((JointWireCut::new(1).kappa() - 3.0).abs() < 1e-12);
        assert!((JointWireCut::new(2).kappa() - 7.0).abs() < 1e-12);
        assert!(JointWireCut::new(2).spec().validate(1e-9).is_ok());
        assert!((JointWireCut::new(2).spec().kappa() - 7.0).abs() < 1e-12);
        // Closed form 2^{n+1} − 1 for every supported n.
        for n in 1..=5 {
            let cut = JointWireCut::new(n);
            assert!((cut.kappa() - ((1 << (n + 1)) - 1) as f64).abs() < 1e-12);
            assert_eq!(cut.terms().len(), (1 << n) + 1);
        }
    }

    #[test]
    fn joint_single_wire_reconstructs_identity() {
        let d = joint_identity_distance(&JointWireCut::new(1));
        assert!(d < 1e-9, "single-wire joint cut broken: {d}");
    }

    #[test]
    fn joint_double_wire_reconstructs_identity() {
        let d = joint_identity_distance(&JointWireCut::new(2));
        assert!(d < 1e-8, "double-wire joint cut broken: {d}");
    }

    #[test]
    fn sparse_verify_matches_dense_tomography_scale() {
        // The sparse verification deviation and the dense superoperator
        // distance agree on what "exact" means for n ≤ 2.
        for n in 1..=2 {
            let cut = JointWireCut::new(n);
            assert!(cut.verify_deviation() < 1e-10);
            assert!(joint_identity_distance(&cut) < 1e-8);
        }
    }

    #[test]
    fn verify_passes_for_one_to_five_wires() {
        for n in 1..=5 {
            JointWireCut::new(n)
                .verify(1e-8)
                .unwrap_or_else(|e| panic!("verify failed at n={n}: {e}"));
        }
    }

    #[test]
    fn sparse_term_application_matches_circuit_channels() {
        // apply_basis_term / apply_flip_term vs the exact circuit-level
        // term channels, on a random probe (n = 2 keeps tomography cheap).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cut = JointWireCut::new(2);
        let bases = cut.bases();
        let terms = cut.terms();
        let mut rng = StdRng::seed_from_u64(404);
        let raw = Matrix::from_fn(4, 4, |_, _| {
            c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
        });
        let herm = raw.add(&raw.dagger()).scale_re(0.5);
        for (i, term) in terms.iter().enumerate() {
            let dense = joint_term_channel(term).apply(&herm);
            let sparse = if i + 1 < bases.len() {
                apply_basis_term(&bases[i + 1], &herm)
            } else {
                apply_flip_term(&herm)
            };
            assert!(
                dense.approx_eq(&sparse, 1e-9),
                "sparse/dense mismatch on term {i}"
            );
        }
    }

    #[test]
    fn joint_beats_product_cut() {
        let joint = JointWireCut::new(2).kappa();
        let product = ParallelWireCut::uniform(NmeCut::new(0.0), 2).kappa();
        assert!((product - 9.0).abs() < 1e-9);
        assert!(joint < product, "joint {joint} not below product {product}");
        // The gap widens exponentially with n: 2^{n+1}−1 vs 3ⁿ.
        for n in 2..=5 {
            let joint = JointWireCut::new(n).kappa();
            let product = 3.0f64.powi(n as i32);
            assert!(joint < product);
        }
    }

    #[test]
    fn joint_cut_estimates_entangled_observable() {
        // End-to-end: sender prepares an entangled state across both cut
        // wires; the joint cut must reproduce ⟨ZZ⟩ exactly in expectation.
        let mut prep = qsim::Circuit::new(2, 0);
        prep.ry(0.9, 0).cx(0, 1);
        let cut = JointWireCut::new(2);
        let spec = cut.spec();
        let terms = cut.terms();
        let compiled =
            PreparedMultiCut::from_terms(spec, &terms, &prep, &PauliString::from_label("ZZ"));
        assert!(
            (compiled.exact_value() - 1.0).abs() < 1e-8,
            "joint cut ⟨ZZ⟩ = {}",
            compiled.exact_value()
        );
    }

    #[test]
    fn three_wire_joint_cut_estimates_ghz_observable() {
        // GHZ-like sender state cos|000⟩ + sin|111⟩ across three jointly
        // cut wires: ⟨ZZZ⟩ = cos θ, κ = 15.
        let theta = 0.9f64;
        let mut prep = qsim::Circuit::new(3, 0);
        prep.ry(theta, 0).cx(0, 1).cx(1, 2);
        let cut = JointWireCut::new(3);
        assert!((cut.kappa() - 15.0).abs() < 1e-12);
        let compiled = PreparedMultiCut::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::from_label("ZZZ"),
        );
        assert!(
            (compiled.exact_value() - theta.cos()).abs() < 1e-8,
            "⟨ZZZ⟩ = {} vs {}",
            compiled.exact_value(),
            theta.cos()
        );
        // Mixed observable on a subset of the cut wires.
        let ziz = PreparedMultiCut::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::from_label("ZIZ"),
        );
        assert!(
            (ziz.exact_value() - 1.0).abs() < 1e-8,
            "⟨ZIZ⟩ = {}",
            ziz.exact_value()
        );
    }

    #[test]
    fn joint_cut_batched_estimate_converges() {
        // Finite-shot estimate through the batched term laws (one
        // binomial per term) converges to the exact joint-cut value.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut prep = qsim::Circuit::new(2, 0);
        prep.ry(0.9, 0).cx(0, 1);
        let cut = JointWireCut::new(2);
        let compiled = PreparedMultiCut::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::from_label("ZZ"),
        );
        let exact = compiled.exact_value();
        let mut rng = StdRng::seed_from_u64(303);
        let reps = 30;
        let mean: f64 = (0..reps)
            .map(|_| {
                qpd::estimate_allocated(
                    &compiled.spec,
                    &compiled.terms,
                    4000,
                    qpd::Allocator::Proportional,
                    &mut rng,
                )
            })
            .sum::<f64>()
            / reps as f64;
        // SE ≈ κ/√(reps·shots) = 7/√120000 ≈ 0.02; allow ~4σ.
        assert!((mean - exact).abs() < 0.08, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn embed_input_multi_round_trip() {
        let rho = Matrix::from_fn(4, 4, |i, j| {
            c64((i + j) as f64 * 0.05, (i as f64 - j as f64) * 0.01)
        });
        let herm = rho.add(&rho.dagger()).scale_re(0.5);
        let full = embed_input_multi(&herm, &[0, 2], 4);
        let back = full.partial_trace(&[0, 2]);
        assert!(back.matrix().approx_eq(&herm, 1e-12));
    }

    #[test]
    fn flip_term_is_trace_preserving() {
        for n in [1usize, 2] {
            let cut = JointWireCut::new(n);
            let terms = cut.terms();
            for t in &terms {
                let ch = joint_term_channel(t);
                assert!(
                    ch.is_trace_preserving(1e-8),
                    "term {:?} of n={n} not TP",
                    t.labels
                );
            }
        }
    }
}
