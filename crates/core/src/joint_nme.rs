//! Numerical exploration of the paper's §VI open question: does
//! pre-shared NME entanglement help **joint** multi-wire cutting?
//!
//! Theory status: for *independent* cuts, Theorem 1 gives the optimum
//! `κ = γⁿ` with `γ = 2/f − 1` ([`crate::theory::gamma_from_overlap`]);
//! for *joint* cuts without entanglement, the MUB construction achieves
//! `κ = 2d − 1` ([`crate::joint::JointWireCut`]). The combination —
//! joint cutting assisted by `|Φ_k⟩` pairs — has no known closed form
//! (the joint-cutting extension paper arXiv:2406.13315 treats maximally
//! entangled resources; the NME case is open). This module explores it
//! numerically over a concrete LOCC-implementable term family:
//!
//! * **Tel(b)**, `b = 0..d` — teleport all `n` wires through `|Φ_k⟩^⊗n`,
//!   conjugated by MUB `U_b`: the Pauli channel
//!   `Σ_z w_z (U_b Z^z U_b†)·ρ·(…)†` with `w_z = q_I^{n−|z|} q_Z^{|z|}`
//!   from the per-wire teleportation error model (Eq. 22/59); consumes
//!   `n` pairs. Tracked **symplectically** via
//!   [`mub::mub_error_pauli`] — no matrices.
//! * **MeasPrep(b)**, `b = 0..d` — entanglement-free dephasing `D_b`
//!   (measure in MUB `b`, prepare the outcome).
//! * **Flip** — the measure-and-prepare-other channel `R` of the joint
//!   cut.
//!
//! All candidates are Pauli channels, so the QPD feasibility constraint
//! `Σᵢ cᵢ Fᵢ = id` reduces to `4ⁿ` linear equations on the Pauli-transfer
//! eigenvalues `λ_Q` (one per Pauli `Q`, all equal to 1 for the
//! identity). [`explore_joint_nme`] minimises the 1-norm `Σ|cᵢ|` over
//! that affine space by IRLS basis pursuit (iteratively reweighted least
//! squares on the SVD nullspace, then a support-refit polish), and
//! [`NmeJointCut`] turns the solved coefficients into executable LOCC
//! term circuits riding the batched sampler stack — cross-validating the
//! symplectic bookkeeping against honest circuit simulation.
//!
//! Findings reproduced by the `joint_scaling` experiment: at `n = 1` the
//! solve recovers the Theorem 2 optimum `γ(k)` for every `k` (smooth
//! interpolation), and at the endpoints it recovers the known optima
//! (`2d − 1` at `k = 0`, `1` at `k = 1`) for every `n`. The surprise is
//! in between: for `n ≥ 2` the achieved 1-norm stays **pinned at
//! `2d − 1` for all `k < 1`** — within this family, partially entangled
//! pairs do not help a *joint* cut at all. The mechanism: a MUB-rotated
//! `|Φ_k⟩^{⊗n}` teleportation carries error weights `w_z` that vary with
//! the Hamming weight `|z|`, which breaks the permutation symmetry the
//! MUB identity needs, so the `λ_Q` constraints within each Pauli class
//! force every teleportation coefficient to zero unless the channel is
//! error-free (`k = 1`). The practical joint-vs-independent frontier for
//! `n ≥ 2` is therefore `min(2d − 1, γ(k)ⁿ)`, exactly the crossover map
//! of the `joint_scaling` experiment.

use crate::joint::JointWireCut;
use crate::mub::{self, mub_error_pauli, symplectic_product, MubField};
use crate::multi::MultiCutTerm;
use crate::teleport::append_teleportation;
use crate::theory;
use entangle::PhiK;
use qlinalg::{c64, Complex64, Matrix, C_ZERO};
use qpd::{QpdSpec, TermSpec};
use qsim::Circuit;

/// One candidate term of the joint-NME family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JointNmeTermKind {
    /// Teleport all wires through `|Φ_k⟩^⊗n`, conjugated by MUB `b`
    /// (consumes `n` pairs).
    Teleport(usize),
    /// Entanglement-free dephasing in MUB `b` (measure and prepare).
    MeasPrep(usize),
    /// Measure computationally, prepare a uniformly random other state.
    Flip,
}

/// Solved QPD over the joint-NME term family.
#[derive(Clone, Debug)]
pub struct NmeJointSolution {
    /// Number of jointly cut wires.
    pub n: usize,
    /// Resource parameter `k` of `|Φ_k⟩`.
    pub k: f64,
    /// Term kinds, aligned with `coefficients` (near-zero entries
    /// dropped).
    pub kinds: Vec<JointNmeTermKind>,
    /// Signed QPD coefficients.
    pub coefficients: Vec<f64>,
    /// Achieved 1-norm `Σ|cᵢ|` — an upper bound on the optimal joint-NME
    /// overhead (exact feasibility enforced; optimality only as good as
    /// basis pursuit over this family).
    pub kappa: f64,
    /// Max-entry feasibility residual `‖Σ cᵢ λ(Fᵢ) − 1‖∞` over all `4ⁿ`
    /// Pauli-transfer eigenvalue constraints.
    pub residual: f64,
    /// Expected entangled pairs consumed per drawn QPD sample:
    /// `n · Σ_{tel} |cᵢ| / κ`.
    pub pairs_per_sample: f64,
}

/// Pauli-transfer eigenvalue rows for every candidate: entry `(Q, t)` is
/// `λ_Q(F_t)`; `Q` runs over all `4ⁿ` Paulis `(x, z)` packed as
/// `x·2ⁿ + z`.
fn candidate_matrix(field: &MubField, n: usize, k: f64) -> (Matrix, Vec<JointNmeTermKind>) {
    let d = 1usize << n;
    let [q_i, _, _, q_z] = PhiK::new(k).bell_overlaps();
    let mut kinds = Vec::new();
    for b in 0..=d {
        kinds.push(JointNmeTermKind::Teleport(b));
    }
    for b in 0..=d {
        kinds.push(JointNmeTermKind::MeasPrep(b));
    }
    kinds.push(JointNmeTermKind::Flip);
    // Precompute error-Pauli tables per basis.
    let errors: Vec<Vec<(u64, u64)>> = (0..=d)
        .map(|b| {
            (0..d as u64)
                .map(|z| mub_error_pauli(field, b, z))
                .collect()
        })
        .collect();
    let rows = d * d; // 4ⁿ Paulis
    let mut a = Matrix::zeros(rows, kinds.len());
    for xq in 0..d as u64 {
        for zq in 0..d as u64 {
            let q = (xq, zq);
            let row = (xq as usize) * d + zq as usize;
            for (t, kind) in kinds.iter().enumerate() {
                let lam = match kind {
                    JointNmeTermKind::Teleport(b) => errors[*b]
                        .iter()
                        .enumerate()
                        .map(|(z, &p)| {
                            let t = (z as u64).count_ones() as i32;
                            let w = q_i.powi(n as i32 - t) * q_z.powi(t);
                            let sign = if symplectic_product(p, q) == 0 {
                                1.0
                            } else {
                                -1.0
                            };
                            w * sign
                        })
                        .sum::<f64>(),
                    JointNmeTermKind::MeasPrep(b) => {
                        errors[*b]
                            .iter()
                            .map(|&p| {
                                if symplectic_product(p, q) == 0 {
                                    1.0
                                } else {
                                    -1.0
                                }
                            })
                            .sum::<f64>()
                            / d as f64
                    }
                    JointNmeTermKind::Flip => {
                        if xq == 0 && zq == 0 {
                            1.0
                        } else if xq == 0 {
                            -1.0 / (d as f64 - 1.0)
                        } else {
                            0.0
                        }
                    }
                };
                a[(row, t)] = c64(lam, 0.0);
            }
        }
    }
    (a, kinds)
}

/// Rank-tolerant least squares `min ‖c‖₂ over argmin ‖A·c − y‖₂` via the
/// spectral pseudo-inverse of the normal equations (any shape, any rank).
fn pinv_lstsq(a: &Matrix, y: &[Complex64]) -> Vec<Complex64> {
    let p = a.cols();
    let adag = a.dagger();
    let h = adag.matmul(a);
    let b = adag.matvec(y);
    let eig = qlinalg::eigh(&h);
    let lmax = eig.values.first().copied().unwrap_or(0.0).max(0.0);
    let tol = lmax * 1e-12;
    let mut c = vec![C_ZERO; p];
    for (i, &l) in eig.values.iter().enumerate() {
        if l > tol {
            let mut vib = C_ZERO;
            for (r, &br) in b.iter().enumerate() {
                vib += eig.vectors[(r, i)].conj() * br;
            }
            let w = vib * (1.0 / l);
            for (r, cr) in c.iter_mut().enumerate() {
                *cr += eig.vectors[(r, i)] * w;
            }
        }
    }
    c
}

/// Basis pursuit `min ‖c‖₁ s.t. A·c = y`: IRLS over the nullspace of the
/// normal equations, then a greedy support-shrink polish (drop the
/// weakest column, refit, keep if feasibility holds and the 1-norm
/// drops) that snaps near-optimal IRLS points onto the exact sparse
/// optimum. Returns the coefficients and the feasibility residual
/// `‖A·c − y‖∞`.
fn min_one_norm(a: &Matrix, y: &[f64]) -> (Vec<f64>, f64) {
    let m = a.rows();
    let p = a.cols();
    let yc: Vec<Complex64> = y.iter().map(|&v| c64(v, 0.0)).collect();
    // Normal-equations spectral form (valid for any shape of A, and the
    // matrices here are tiny and ±1-scaled): H = A†A, b = A†y; range and
    // nullspace of A coincide with those of H.
    let adag = a.dagger();
    let h = adag.matmul(a);
    let b = adag.matvec(&yc);
    let eig = qlinalg::eigh(&h);
    let lmax = eig.values.first().copied().unwrap_or(0.0).max(0.0);
    let rank_tol = lmax * 1e-12;
    // Min-norm particular solution c_p = Σ v_i (v_i†b)/λ_i.
    let mut c_p = vec![C_ZERO; p];
    let mut null_cols: Vec<usize> = Vec::new();
    for (i, &l) in eig.values.iter().enumerate() {
        if l > rank_tol {
            let mut vib = C_ZERO;
            for (r, &br) in b.iter().enumerate() {
                vib += eig.vectors[(r, i)].conj() * br;
            }
            let w = vib * (1.0 / l);
            for (r, cr) in c_p.iter_mut().enumerate() {
                *cr += eig.vectors[(r, i)] * w;
            }
        } else {
            null_cols.push(i);
        }
    }
    let residual_of = |c: &[Complex64]| -> f64 {
        let ac = a.matvec(c);
        ac.iter()
            .zip(yc.iter())
            .map(|(l, r)| (*l - *r).abs())
            .fold(0.0f64, f64::max)
    };
    let mut c = c_p.clone();
    if !null_cols.is_empty() {
        let nn = null_cols.len();
        // IRLS: minimise Σ cᵢ²/(|cᵢ| + ε) over c = c_p + N·z.
        for iter in 0..300 {
            let eps = (1e-1 * 0.93f64.powi(iter)).max(1e-12);
            // G = Nᵀ D N, rhs = −Nᵀ D c_p with D = diag(1/(|cᵢ| + ε)).
            let weights: Vec<f64> = c.iter().map(|ci| 1.0 / (ci.abs() + eps)).collect();
            let mut g = Matrix::zeros(nn, nn);
            let mut rhs = vec![C_ZERO; nn];
            for (ai, &ci) in null_cols.iter().enumerate() {
                for (bi, &cj) in null_cols.iter().enumerate() {
                    let mut acc = C_ZERO;
                    for (r, &w) in weights.iter().enumerate() {
                        acc += eig.vectors[(r, ci)].conj() * eig.vectors[(r, cj)].scale(w);
                    }
                    g[(ai, bi)] = acc;
                }
                let mut acc = C_ZERO;
                for r in 0..p {
                    acc += eig.vectors[(r, ci)].conj() * c_p[r].scale(weights[r]);
                }
                rhs[ai] = -acc;
                g[(ai, ai)] += c64(1e-12, 0.0);
            }
            let z = qlinalg::solve(&g, &rhs);
            for (r, cr) in c.iter_mut().enumerate() {
                let mut acc = c_p[r];
                for (ai, &ci) in null_cols.iter().enumerate() {
                    acc += eig.vectors[(r, ci)] * z[ai];
                }
                *cr = acc;
            }
        }
    }
    // Polish: refit exactly on the support so feasibility is limited only
    // by least-squares precision, not by the IRLS smoothing. Pseudo-inverse
    // refit — support columns may be linearly dependent (degenerate
    // families, e.g. Tel ≡ MeasPrep at k = 0).
    let cmax = c.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    let support: Vec<usize> = (0..p)
        .filter(|&i| c[i].abs() > 1e-7 * cmax.max(1.0))
        .collect();
    if !support.is_empty() && support.len() < p {
        let sub = Matrix::from_fn(m, support.len(), |r, j| a[(r, support[j])]);
        let cs = pinv_lstsq(&sub, &yc);
        let mut refit = vec![C_ZERO; p];
        for (j, &i) in support.iter().enumerate() {
            refit[i] = cs[j];
        }
        if residual_of(&refit) <= residual_of(&c).max(1e-9) {
            c = refit;
        }
    }
    // Greedy support shrink: IRLS can park small spurious weight on
    // redundant columns; dropping a column and refitting either breaks
    // feasibility (rejected) or strictly lowers the 1-norm (kept).
    let one_norm = |c: &[Complex64]| c.iter().map(|v| v.abs()).sum::<f64>();
    let mut improved = true;
    while improved {
        improved = false;
        let mut support: Vec<usize> = (0..p).filter(|&i| c[i].abs() > 1e-10).collect();
        support.sort_by(|&i, &j| c[i].abs().partial_cmp(&c[j].abs()).unwrap());
        for &drop in &support {
            let keep: Vec<usize> = support.iter().copied().filter(|&i| i != drop).collect();
            if keep.is_empty() {
                continue;
            }
            let sub = Matrix::from_fn(m, keep.len(), |r, j| a[(r, keep[j])]);
            let cs = pinv_lstsq(&sub, &yc);
            let mut cand = vec![C_ZERO; p];
            for (j, &i) in keep.iter().enumerate() {
                cand[i] = cs[j];
            }
            if residual_of(&cand) < 1e-9 && one_norm(&cand) < one_norm(&c) - 1e-12 {
                c = cand;
                improved = true;
                break;
            }
        }
    }
    let res = residual_of(&c);
    (c.iter().map(|v| v.re).collect(), res)
}

/// Solves the joint-NME QPD for `n` wires at resource parameter `k`:
/// basis pursuit over the Tel/MeasPrep/Flip family described in the
/// module docs. Deterministic (pure linear algebra, no RNG).
pub fn explore_joint_nme(n: usize, k: f64) -> NmeJointSolution {
    assert!((1..=mub::MAX_WIRES).contains(&n));
    assert!((0.0..=1.0).contains(&k), "resource parameter k ∈ [0, 1]");
    let field = MubField::new(n);
    let (a, kinds) = candidate_matrix(&field, n, k);
    let d = 1usize << n;
    let y = vec![1.0; a.rows()];
    let (mut coeffs, residual) = min_one_norm(&a, &y);
    // Exact-tie cleanup: where a teleportation column equals its
    // entanglement-free MeasPrep twin (k = 0 degeneracy), shift the
    // weight onto the twin — same QPD, zero pair consumption.
    for b in 0..=d {
        let (t_idx, m_idx) = (b, d + 1 + b);
        let same = (0..a.rows()).all(|r| (a[(r, t_idx)] - a[(r, m_idx)]).abs() < 1e-12);
        if same {
            coeffs[m_idx] += coeffs[t_idx];
            coeffs[t_idx] = 0.0;
        }
    }
    let mut kept_kinds = Vec::new();
    let mut kept_coeffs = Vec::new();
    let mut kappa = 0.0;
    let mut tel_weight = 0.0;
    for (kind, &c) in kinds.iter().zip(coeffs.iter()) {
        if c.abs() < 1e-9 {
            continue;
        }
        kappa += c.abs();
        if matches!(kind, JointNmeTermKind::Teleport(_)) {
            tel_weight += c.abs();
        }
        kept_kinds.push(*kind);
        kept_coeffs.push(c);
    }
    NmeJointSolution {
        n,
        k,
        kinds: kept_kinds,
        coefficients: kept_coeffs,
        kappa,
        residual,
        pairs_per_sample: n as f64 * tel_weight / kappa.max(1e-300),
    }
}

/// Executable joint-NME cut: the solved QPD of [`explore_joint_nme`]
/// compiled into LOCC term circuits over sender block `0..n`, receiver
/// block `n..2n` (plus `n` resource-half/ancilla qubits where needed),
/// ready for [`crate::multi::PreparedMultiCut::from_terms`] and the
/// batched estimator stack.
#[derive(Clone, Debug)]
pub struct NmeJointCut {
    solution: NmeJointSolution,
}

impl NmeJointCut {
    /// Solves and compiles the joint-NME cut for `n` wires at `k`.
    pub fn new(n: usize, k: f64) -> Self {
        Self {
            solution: explore_joint_nme(n, k),
        }
    }

    /// The underlying solved QPD.
    pub fn solution(&self) -> &NmeJointSolution {
        &self.solution
    }

    /// Number of wires.
    pub fn num_wires(&self) -> usize {
        self.solution.n
    }

    /// Achieved sampling overhead `Σ|cᵢ|`.
    pub fn kappa(&self) -> f64 {
        self.solution.kappa
    }

    /// The `γⁿ` overhead of cutting the same wires independently with
    /// `|Φ_k⟩` pairs (Theorem 1 / Corollary 1 baseline).
    pub fn independent_kappa(&self) -> f64 {
        theory::gamma_phi_k(self.solution.k).powi(self.solution.n as i32)
    }

    /// Teleportation term circuit: prepare `n` `|Φ_k⟩` pairs on
    /// (resource-half, receiver), rotate the sender block by `U_b†`,
    /// Bell-measure each (data, resource-half) pair with feed-forward to
    /// the receiver, undo the rotation on the receiver block.
    fn teleport_term_circuit(&self, u: &Matrix, is_computational: bool) -> Circuit {
        let n = self.solution.n;
        let phi = PhiK::new(self.solution.k);
        let mut c = Circuit::new(3 * n, 2 * n);
        let sender: Vec<usize> = (0..n).collect();
        let receiver: Vec<usize> = (n..2 * n).collect();
        for i in 0..n {
            c.ry(phi.preparation_angle(), 2 * n + i)
                .cx(2 * n + i, n + i);
        }
        if !is_computational {
            c.unitary(u.dagger(), &sender);
        }
        for i in 0..n {
            append_teleportation(&mut c, i, 2 * n + i, n + i, 2 * i, 2 * i + 1);
        }
        if !is_computational {
            c.unitary(u.clone(), &receiver);
        }
        c
    }

    /// All solved terms as executable multi-wire cut terms.
    pub fn terms(&self) -> Vec<MultiCutTerm> {
        let n = self.solution.n;
        let joint = JointWireCut::new(n);
        let bases = joint.bases();
        let input_qubits: Vec<usize> = (0..n).collect();
        let output_qubits: Vec<usize> = (n..2 * n).collect();
        self.solution
            .kinds
            .iter()
            .zip(self.solution.coefficients.iter())
            .map(|(kind, &coeff)| {
                let (label, circuit, pairs) = match kind {
                    JointNmeTermKind::Teleport(b) => (
                        format!("tel-mub-{b}"),
                        self.teleport_term_circuit(&bases[*b], *b == 0),
                        n as f64,
                    ),
                    JointNmeTermKind::MeasPrep(b) => (
                        format!("mub-{b}"),
                        joint.basis_term_circuit(&bases[*b]),
                        0.0,
                    ),
                    JointNmeTermKind::Flip => (
                        "meas-prep-other".to_string(),
                        joint.flip_term_circuit(),
                        0.0,
                    ),
                };
                MultiCutTerm {
                    coefficient: coeff,
                    labels: vec![label],
                    circuit,
                    input_qubits: input_qubits.clone(),
                    output_qubits: output_qubits.clone(),
                    pairs_consumed: pairs,
                }
            })
            .collect()
    }

    /// Coefficient structure of the solved QPD.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::PreparedMultiCut;
    use qsim::PauliString;

    #[test]
    fn single_wire_reproduces_theorem2_optimum() {
        // At n = 1 the family contains the Theorem 2 solution, and γ(k)
        // is the proven optimum over *all* protocols — so the achieved
        // 1-norm must match γ(k) from both sides (up to solver slack).
        for &k in &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let sol = explore_joint_nme(1, k);
            let gamma = theory::gamma_phi_k(k);
            assert!(sol.residual < 1e-8, "infeasible at k={k}: {}", sol.residual);
            assert!(
                sol.kappa <= gamma * (1.0 + 1e-3) + 1e-9,
                "solver missed Theorem 2 at k={k}: {} vs γ={gamma}",
                sol.kappa
            );
            assert!(
                sol.kappa >= gamma - 1e-6,
                "1-norm below the proven optimum at k={k}: {} vs γ={gamma}",
                sol.kappa
            );
        }
    }

    #[test]
    fn endpoints_match_known_optima() {
        for n in 1..=3 {
            let d = (1 << n) as f64;
            // k = 0: no useful entanglement — the entanglement-free joint
            // optimum 2d − 1.
            let sol = explore_joint_nme(n, 0.0);
            assert!(sol.residual < 1e-8);
            assert!(
                (sol.kappa - (2.0 * d - 1.0)).abs() < 1e-3,
                "n={n}, k=0: κ = {} vs 2d−1 = {}",
                sol.kappa,
                2.0 * d - 1.0
            );
            // k = 1: perfect teleportation — κ = 1.
            let sol = explore_joint_nme(n, 1.0);
            assert!(sol.residual < 1e-8);
            assert!(
                (sol.kappa - 1.0).abs() < 1e-6,
                "n={n}, k=1: κ = {}",
                sol.kappa
            );
        }
    }

    #[test]
    fn overhead_is_monotone_in_entanglement() {
        for n in 1..=3 {
            let mut prev = f64::INFINITY;
            for &k in &[0.0, 0.25, 0.5, 0.75, 1.0] {
                let sol = explore_joint_nme(n, k);
                assert!(sol.residual < 1e-8, "n={n} k={k}");
                assert!(
                    sol.kappa <= prev + 1e-6,
                    "κ not nonincreasing at n={n}, k={k}: {} after {prev}",
                    sol.kappa
                );
                prev = sol.kappa;
            }
        }
    }

    #[test]
    fn joint_nme_never_beats_single_wire_power_bound_nor_me_joint() {
        // Sanity bounds: κ ≥ 1 always; κ ≤ 2d − 1 + slack (the ME joint
        // solution is in the family).
        for n in 1..=3 {
            let d = (1 << n) as f64;
            for &k in &[0.1, 0.3, 0.7, 0.9] {
                let sol = explore_joint_nme(n, k);
                assert!(sol.kappa >= 1.0 - 1e-9);
                assert!(sol.kappa <= 2.0 * d - 1.0 + 1e-6);
            }
        }
    }

    #[test]
    fn solved_cut_reconstructs_expectations_through_circuits() {
        // The symplectic eigenvalue bookkeeping must agree with honest
        // circuit simulation: the compiled QPD is an exact decomposition
        // of the identity, so exact_value == uncut expectation.
        let theta = 0.9f64;
        let mut prep = Circuit::new(2, 0);
        prep.ry(theta, 0).cx(0, 1);
        for &k in &[0.0, 0.5, 1.0] {
            let cut = NmeJointCut::new(2, k);
            let compiled = PreparedMultiCut::from_terms(
                cut.spec(),
                &cut.terms(),
                &prep,
                &PauliString::from_label("ZZ"),
            );
            assert!(
                (compiled.exact_value() - 1.0).abs() < 1e-6,
                "k={k}: ⟨ZZ⟩ = {}",
                compiled.exact_value()
            );
            let zi = PreparedMultiCut::from_terms(
                cut.spec(),
                &cut.terms(),
                &prep,
                &PauliString::from_label("IZ"),
            );
            assert!(
                (zi.exact_value() - theta.cos()).abs() < 1e-6,
                "k={k}: ⟨ZI⟩ = {} vs {}",
                zi.exact_value(),
                theta.cos()
            );
        }
    }

    #[test]
    fn batched_estimator_converges_on_solved_cut() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut prep = Circuit::new(2, 0);
        prep.ry(0.9, 0).cx(0, 1);
        let cut = NmeJointCut::new(2, 0.6);
        let compiled = PreparedMultiCut::from_terms(
            cut.spec(),
            &cut.terms(),
            &prep,
            &PauliString::from_label("ZZ"),
        );
        let exact = compiled.exact_value();
        let mut rng = StdRng::seed_from_u64(808);
        let reps = 20;
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
        // κ ≤ 7 ⇒ SE ≤ 7/√80000 ≈ 0.025; allow ~4σ.
        assert!((mean - exact).abs() < 0.1, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn pairs_per_sample_vanishes_without_entanglement() {
        let sol = explore_joint_nme(2, 0.0);
        assert!(sol.pairs_per_sample < 1e-6, "{}", sol.pairs_per_sample);
        let sol = explore_joint_nme(2, 1.0);
        assert!((sol.pairs_per_sample - 2.0).abs() < 1e-6);
    }
}
