//! Circuit execution: per-shot statevector runs, exact measurement-branch
//! enumeration, and a compiled branch-tree sampler.
//!
//! Three execution strategies, all agreeing on semantics:
//!
//! * [`run_shot`] — honest per-shot statevector simulation with stochastic
//!   measurement collapse (what a QPU does shot by shot).
//! * [`execute_density`] — exact, deterministic evolution of a density
//!   operator through the *same* circuit by enumerating every measurement
//!   branch. Linear in its input, so it doubles as process tomography for
//!   circuits containing measurement and feed-forward. This is how the
//!   channel-level claims of the paper (Eq. 19/22/27) are verified.
//! * [`CompiledSampler`] — precomputes the measurement branch tree for a
//!   fixed input state, then draws shots from the leaf distribution. This
//!   is the Aer-style "shot branching" optimisation: statistically
//!   identical to [`run_shot`] but orders of magnitude faster for the
//!   paper's experiment, which takes millions of shots on the same
//!   subcircuits.
//!
//! # The two sampling paths of [`CompiledSampler`]
//!
//! * **Per-shot** — [`CompiledSampler::sample_leaf`] /
//!   [`CompiledSampler::sample_z`] draw one shot at a time (one uniform
//!   plus a binary search over the cumulative leaf probabilities per
//!   shot). Use it when shots must interleave with other sampling, when
//!   consumers need the individual collapsed states in sequence, or as
//!   the reference implementation in equivalence tests.
//! * **Batched** — [`CompiledSampler::sample_batch`] /
//!   [`CompiledSampler::sample_counts`] / [`CompiledSampler::sample_z_batch`]
//!   draw a whole shot budget as one exact multinomial over the leaves
//!   (conditional-binomial decomposition from [`qsample`]), returning
//!   per-leaf **counts** in `O(#leaves)` RNG work regardless of the shot
//!   count. Identical in distribution to repeating the per-shot path —
//!   the statistical-equivalence test suite (`tests/`) pins this — and
//!   ≥10× faster at the paper's 10⁴–10⁶-shot budgets. This is the
//!   default path for every estimator and experiment in the workspace.
//!
//! Both paths consume the RNG differently, so fixed-seed runs of the two
//! paths give different (equally valid) draws.

use crate::circuit::{Circuit, Instruction, Op};
use crate::density::DensityMatrix;
use crate::fuse::{fuse_single_qubit_runs, FusionStats};
use crate::stabilizer::{CliffordPrefix, Tableau};
use crate::statevector::StateVector;
use rand::Rng;
use std::collections::HashMap;

/// Outcome of a single shot: the classical bit register (bit `i` =
/// classical bit `i`) and the final collapsed state.
#[derive(Clone, Debug)]
pub struct Shot {
    /// Final classical register contents.
    pub clbits: u64,
    /// Final (collapsed, normalised) statevector.
    pub state: StateVector,
}

/// Executes one shot of `circuit` starting from `input` (or `|0…0⟩`).
pub fn run_shot<R: Rng + ?Sized>(
    circuit: &Circuit,
    input: Option<&StateVector>,
    rng: &mut R,
) -> Shot {
    assert!(
        circuit.num_clbits() <= 64,
        "at most 64 classical bits supported"
    );
    let mut state = match input {
        Some(sv) => {
            assert_eq!(sv.num_qubits(), circuit.num_qubits());
            sv.clone()
        }
        None => StateVector::new(circuit.num_qubits()),
    };
    let mut clbits: u64 = 0;
    for instr in circuit.instructions() {
        if let Some(cond) = instr.condition {
            let bit = (clbits >> cond.bit) & 1 == 1;
            if bit != cond.value {
                continue;
            }
        }
        match &instr.op {
            Op::Gate(g, qs) => state.apply_gate(g, qs),
            Op::Measure { qubit, clbit } => {
                let outcome = state.measure(*qubit, rng);
                if outcome {
                    clbits |= 1 << clbit;
                } else {
                    clbits &= !(1 << clbit);
                }
            }
            Op::Reset(q) => state.reset(*q, rng),
            Op::Barrier => {}
        }
    }
    Shot { clbits, state }
}

/// Histogram of classical outcomes over many shots.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    map: HashMap<u64, u64>,
    total: u64,
}

impl Counts {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one outcome.
    pub fn record(&mut self, key: u64) {
        *self.map.entry(key).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records `n` occurrences of one outcome at once (the batched
    /// counterpart of [`record`](Self::record)). Recording zero
    /// occurrences leaves the histogram untouched, so batched and
    /// per-shot histograms expose identical key sets.
    pub fn record_n(&mut self, key: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.map.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Count for a specific outcome.
    pub fn get(&self, key: u64) -> u64 {
        self.map.get(&key).copied().unwrap_or(0)
    }

    /// Total number of recorded shots.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Empirical probability of an outcome.
    pub fn frequency(&self, key: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.get(key) as f64 / self.total as f64
        }
    }

    /// Iterator over `(outcome, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &u64)> {
        self.map.iter()
    }
}

/// Runs `shots` independent shots, histogramming the classical register.
pub fn run_shots<R: Rng + ?Sized>(
    circuit: &Circuit,
    input: Option<&StateVector>,
    shots: u64,
    rng: &mut R,
) -> Counts {
    let mut counts = Counts::new();
    for _ in 0..shots {
        counts.record(run_shot(circuit, input, rng).clbits);
    }
    counts
}

/// One unnormalised measurement branch during exact density execution.
#[derive(Clone, Debug)]
pub struct DensityBranch {
    /// Classical register contents along this branch.
    pub clbits: u64,
    /// Unnormalised density operator (trace = branch weight for physical
    /// inputs).
    pub rho: DensityMatrix,
}

/// Exactly evolves a density operator through `circuit`, enumerating all
/// measurement branches. Returns the list of final branches; their sum is
/// the output state of the induced channel.
///
/// The computation is **linear** in `input`, so probing with matrix units
/// performs process tomography of circuits with measurement and classical
/// feed-forward.
pub fn execute_density_branches(circuit: &Circuit, input: &DensityMatrix) -> Vec<DensityBranch> {
    assert_eq!(input.num_qubits(), circuit.num_qubits());
    assert!(circuit.num_clbits() <= 64);
    let mut branches = vec![DensityBranch {
        clbits: 0,
        rho: input.clone(),
    }];
    for instr in circuit.instructions() {
        match &instr.op {
            Op::Gate(g, qs) => {
                let m = g.matrix();
                for b in branches.iter_mut() {
                    if let Some(cond) = instr.condition {
                        if ((b.clbits >> cond.bit) & 1 == 1) != cond.value {
                            continue;
                        }
                    }
                    b.rho.apply_unitary(&m, qs);
                }
            }
            Op::Measure { qubit, clbit } => {
                let mut next = Vec::with_capacity(branches.len() * 2);
                for b in branches.into_iter() {
                    if let Some(cond) = instr.condition {
                        if ((b.clbits >> cond.bit) & 1 == 1) != cond.value {
                            next.push(b);
                            continue;
                        }
                    }
                    let mut b0 = b.clone();
                    b0.rho.project(*qubit, false);
                    b0.clbits &= !(1 << clbit);
                    let mut b1 = b;
                    b1.rho.project(*qubit, true);
                    b1.clbits |= 1 << clbit;
                    next.push(b0);
                    next.push(b1);
                }
                branches = next;
            }
            Op::Reset(q) => {
                // Reset = measure (discard) + conditional X; as a channel:
                // ρ → |0⟩⟨0| P0 ρ P0 |0⟩⟨0| + X P1 ρ P1 X — no classical split.
                let x = crate::gate::Gate::X.matrix();
                for b in branches.iter_mut() {
                    if let Some(cond) = instr.condition {
                        if ((b.clbits >> cond.bit) & 1 == 1) != cond.value {
                            continue;
                        }
                    }
                    let mut r0 = b.rho.clone();
                    r0.project(*q, false);
                    let mut r1 = b.rho.clone();
                    r1.project(*q, true);
                    r1.apply_unitary(&x, &[*q]);
                    r0.axpy(1.0, &r1);
                    b.rho = r0;
                }
            }
            Op::Barrier => {}
        }
    }
    branches
}

/// Exactly evolves a density operator through `circuit`, summing all
/// measurement branches — the induced CPTP map on the full register.
pub fn execute_density(circuit: &Circuit, input: &DensityMatrix) -> DensityMatrix {
    let branches = execute_density_branches(circuit, input);
    let n = circuit.num_qubits();
    let mut acc = DensityMatrix::from_matrix(n, qlinalg::Matrix::zeros(1 << n, 1 << n));
    for b in branches {
        acc.axpy(1.0, &b.rho);
    }
    acc
}

/// A leaf of the compiled measurement branch tree: a classical outcome
/// pattern with its probability and the post-measurement pure state.
#[derive(Clone, Debug)]
pub struct BranchLeaf {
    /// Probability of this classical outcome path.
    pub probability: f64,
    /// Classical register contents on this path.
    pub clbits: u64,
    /// Final normalised state on this path.
    pub state: StateVector,
}

/// A partially-evolved measurement branch during compilation.
struct Branch {
    p: f64,
    clbits: u64,
    state: StateVector,
}

/// Advances `branches` through `instrs` on the dense backend, splitting
/// at measurements/resets and pruning numerically-dead branches.
fn dense_branches(instrs: &[Instruction], mut branches: Vec<Branch>) -> Vec<Branch> {
    for instr in instrs {
        match &instr.op {
            Op::Gate(g, qs) => {
                for b in branches.iter_mut() {
                    if let Some(cond) = instr.condition {
                        if ((b.clbits >> cond.bit) & 1 == 1) != cond.value {
                            continue;
                        }
                    }
                    b.state.apply_gate(g, qs);
                }
            }
            Op::Measure { qubit, clbit } => {
                let mut next = Vec::with_capacity(branches.len() * 2);
                for b in branches.into_iter() {
                    if let Some(cond) = instr.condition {
                        if ((b.clbits >> cond.bit) & 1 == 1) != cond.value {
                            next.push(b);
                            continue;
                        }
                    }
                    let p1 = b.state.prob_one(*qubit);
                    if p1 < 1.0 - 1e-14 {
                        let mut s0 = b.state.clone();
                        s0.collapse(*qubit, false);
                        next.push(Branch {
                            p: b.p * (1.0 - p1),
                            clbits: b.clbits & !(1 << clbit),
                            state: s0,
                        });
                    }
                    if p1 > 1e-14 {
                        let mut s1 = b.state;
                        s1.collapse(*qubit, true);
                        next.push(Branch {
                            p: b.p * p1,
                            clbits: b.clbits | (1 << clbit),
                            state: s1,
                        });
                    }
                }
                branches = next;
            }
            Op::Reset(q) => {
                let mut next = Vec::with_capacity(branches.len() * 2);
                for b in branches.into_iter() {
                    if let Some(cond) = instr.condition {
                        if ((b.clbits >> cond.bit) & 1 == 1) != cond.value {
                            next.push(b);
                            continue;
                        }
                    }
                    let p1 = b.state.prob_one(*q);
                    if p1 < 1.0 - 1e-14 {
                        let mut s0 = b.state.clone();
                        s0.collapse(*q, false);
                        next.push(Branch {
                            p: b.p * (1.0 - p1),
                            clbits: b.clbits,
                            state: s0,
                        });
                    }
                    if p1 > 1e-14 {
                        let mut s1 = b.state;
                        s1.collapse(*q, true);
                        s1.apply_gate(&crate::gate::Gate::X, &[*q]);
                        next.push(Branch {
                            p: b.p * p1,
                            clbits: b.clbits,
                            state: s1,
                        });
                    }
                }
                branches = next;
            }
            Op::Barrier => {}
        }
    }
    branches
}

/// A measurement branch evolving on the stabilizer tableau. Branch
/// probabilities are exact dyadics (products of ½ from random
/// measurements), so no pruning is ever needed.
struct TableauBranch {
    p: f64,
    clbits: u64,
    tab: Tableau,
}

/// Advances tableau branches through a fully-Clifford instruction run.
fn tableau_branches(
    instrs: &[Instruction],
    mut branches: Vec<TableauBranch>,
) -> Vec<TableauBranch> {
    for instr in instrs {
        match &instr.op {
            Op::Gate(g, qs) => {
                for b in branches.iter_mut() {
                    if let Some(cond) = instr.condition {
                        if ((b.clbits >> cond.bit) & 1 == 1) != cond.value {
                            continue;
                        }
                    }
                    b.tab.apply_gate(g, qs);
                }
            }
            Op::Measure { qubit, clbit } => {
                let mut next = Vec::with_capacity(branches.len() * 2);
                for b in branches.into_iter() {
                    if let Some(cond) = instr.condition {
                        if ((b.clbits >> cond.bit) & 1 == 1) != cond.value {
                            next.push(b);
                            continue;
                        }
                    }
                    match b.tab.deterministic_outcome(*qubit) {
                        Some(outcome) => {
                            let clbits = if outcome {
                                b.clbits | (1 << clbit)
                            } else {
                                b.clbits & !(1 << clbit)
                            };
                            next.push(TableauBranch { clbits, ..b });
                        }
                        None => {
                            let mut t0 = b.tab.clone();
                            t0.collapse(*qubit, false);
                            next.push(TableauBranch {
                                p: b.p * 0.5,
                                clbits: b.clbits & !(1 << clbit),
                                tab: t0,
                            });
                            let mut t1 = b.tab;
                            t1.collapse(*qubit, true);
                            next.push(TableauBranch {
                                p: b.p * 0.5,
                                clbits: b.clbits | (1 << clbit),
                                tab: t1,
                            });
                        }
                    }
                }
                branches = next;
            }
            Op::Reset(q) => {
                let mut next = Vec::with_capacity(branches.len() * 2);
                for b in branches.into_iter() {
                    if let Some(cond) = instr.condition {
                        if ((b.clbits >> cond.bit) & 1 == 1) != cond.value {
                            next.push(b);
                            continue;
                        }
                    }
                    match b.tab.deterministic_outcome(*q) {
                        Some(outcome) => {
                            let mut t = b.tab;
                            if outcome {
                                t.apply_x(*q);
                            }
                            next.push(TableauBranch { tab: t, ..b });
                        }
                        None => {
                            let mut t0 = b.tab.clone();
                            t0.collapse(*q, false);
                            next.push(TableauBranch {
                                p: b.p * 0.5,
                                clbits: b.clbits,
                                tab: t0,
                            });
                            let mut t1 = b.tab;
                            t1.collapse(*q, true);
                            t1.apply_x(*q);
                            next.push(TableauBranch {
                                p: b.p * 0.5,
                                clbits: b.clbits,
                                tab: t1,
                            });
                        }
                    }
                }
                branches = next;
            }
            Op::Barrier => {}
        }
    }
    branches
}

/// `Some(i)` when `sv` is *exactly* the computational basis state `|i⟩`
/// — one amplitude exactly `1 + 0i`, every other exactly zero. The check
/// is bit-strict on purpose: only then is the tableau-seeded hybrid
/// compilation byte-identical to the dense path on the same input, which
/// the compiled-plan determinism contract relies on.
pub fn computational_basis_index(sv: &StateVector) -> Option<usize> {
    let mut idx = None;
    for (i, a) in sv.amplitudes().iter().enumerate() {
        if a.re == 0.0 && a.im == 0.0 {
            continue;
        }
        if a.re == 1.0 && a.im == 0.0 && idx.is_none() {
            idx = Some(i);
        } else {
            return None;
        }
    }
    idx
}

/// Pre-enumerated measurement branch tree for a circuit and fixed input.
///
/// Compiling costs one statevector simulation per measurement branch
/// (≤ `2^m` for `m` measurements); sampling a shot afterwards is O(#leaves)
/// with no gate application at all. Exactly equivalent in distribution to
/// [`run_shot`] — asserted by tests.
///
/// # Backends
///
/// [`compile`](Self::compile) is a hybrid: starting from `|0…0⟩` or any
/// exact computational-basis input ([`computational_basis_index`]), the
/// maximal Clifford prefix of the circuit rides a stabilizer
/// [`Tableau`] (`O(n²)` per gate, exact dyadic branch probabilities)
/// and is converted to a dense state only at the first non-Clifford
/// gate; the dense suffix then runs with adjacent single-qubit gates
/// fused per wire ([`fuse_single_qubit_runs`]). The backend choice
/// depends only on the circuit, never on runtime state, so compiled
/// plans stay byte-deterministic. [`compile_dense`](Self::compile_dense)
/// is the pristine all-dense, no-fusion reference path the differential
/// suite checks the hybrid against.
#[derive(Clone, Debug)]
pub struct CompiledSampler {
    leaves: Vec<BranchLeaf>,
    cumulative: Vec<f64>,
    prefix: CliffordPrefix,
    fusion: FusionStats,
}

impl CompiledSampler {
    /// Minimum Clifford-prefix length before the tableau path is worth
    /// the conversion cost at the split point.
    const HYBRID_THRESHOLD: usize = 4;

    /// Enumerates all measurement branches of `circuit` on `input`,
    /// choosing the backend per the type-level docs.
    ///
    /// The hybrid tableau path accepts `None` **and** any exact
    /// computational-basis `input` (one amplitude exactly `1 + 0i`, the
    /// rest exactly zero): basis states are stabilizer states, seeded by
    /// X gates on the tableau. Cut-planner term circuits start their
    /// carriers in `|0…0⟩` or a prep basis state, so refusing every
    /// supplied input (the old behaviour) silently forced those plans
    /// dense.
    pub fn compile(circuit: &Circuit, input: Option<&StateVector>) -> Self {
        assert!(circuit.num_clbits() <= 64);
        let basis = match input {
            None => Some(0usize),
            Some(sv) => {
                assert_eq!(sv.num_qubits(), circuit.num_qubits());
                computational_basis_index(sv)
            }
        };
        if circuit.num_qubits() <= 30 {
            if let Some(idx) = basis {
                let prefix = CliffordPrefix::split(circuit);
                if prefix.prefix_len >= Self::HYBRID_THRESHOLD {
                    return Self::compile_hybrid(circuit, prefix, idx);
                }
            }
        }
        let init = match input {
            Some(sv) => {
                assert_eq!(sv.num_qubits(), circuit.num_qubits());
                sv.clone()
            }
            None => StateVector::new(circuit.num_qubits()),
        };
        let (fused, fusion) = fuse_single_qubit_runs(circuit);
        let branches = dense_branches(
            fused.instructions(),
            vec![Branch {
                p: 1.0,
                clbits: 0,
                state: init,
            }],
        );
        Self::finalize(
            branches,
            CliffordPrefix {
                prefix_len: 0,
                total: circuit.len(),
            },
            fusion,
        )
    }

    /// The all-dense, fusion-free reference compilation: the exact code
    /// path every estimator rode before the hybrid backend existed.
    /// Differential tests compare [`compile`](Self::compile) against it.
    pub fn compile_dense(circuit: &Circuit, input: Option<&StateVector>) -> Self {
        assert!(circuit.num_clbits() <= 64);
        let init = match input {
            Some(sv) => {
                assert_eq!(sv.num_qubits(), circuit.num_qubits());
                sv.clone()
            }
            None => StateVector::new(circuit.num_qubits()),
        };
        let branches = dense_branches(
            circuit.instructions(),
            vec![Branch {
                p: 1.0,
                clbits: 0,
                state: init,
            }],
        );
        Self::finalize(
            branches,
            CliffordPrefix {
                prefix_len: 0,
                total: circuit.len(),
            },
            FusionStats {
                input_len: circuit.len(),
                output_len: circuit.len(),
                ..FusionStats::default()
            },
        )
    }

    /// Clifford prefix on the tableau, fused dense suffix from the
    /// converted branch states. `basis` is the computational input state
    /// `|basis⟩`, seeded onto the tableau as X gates.
    fn compile_hybrid(circuit: &Circuit, prefix: CliffordPrefix, basis: usize) -> Self {
        let n = circuit.num_qubits();
        let instrs = circuit.instructions();
        let mut tab = Tableau::new(n);
        for q in 0..n {
            if (basis >> q) & 1 == 1 {
                tab.apply_x(q);
            }
        }
        let tb = tableau_branches(
            &instrs[..prefix.prefix_len],
            vec![TableauBranch {
                p: 1.0,
                clbits: 0,
                tab,
            }],
        );
        let mut suffix = Circuit::new(n, circuit.num_clbits());
        for instr in &instrs[prefix.prefix_len..] {
            suffix.push(instr.clone());
        }
        let (fused, fusion) = fuse_single_qubit_runs(&suffix);
        let branches = tb
            .into_iter()
            .map(|b| Branch {
                p: b.p,
                clbits: b.clbits,
                state: b.tab.to_statevector(),
            })
            .collect();
        Self::finalize(
            dense_branches(fused.instructions(), branches),
            prefix,
            fusion,
        )
    }

    /// Sorts, renormalises and indexes the final branches.
    fn finalize(branches: Vec<Branch>, prefix: CliffordPrefix, fusion: FusionStats) -> Self {
        let mut leaves: Vec<BranchLeaf> = branches
            .into_iter()
            .map(|b| BranchLeaf {
                probability: b.p,
                clbits: b.clbits,
                state: b.state,
            })
            .collect();
        // Deterministic order helps reproducibility of seeded sampling.
        leaves.sort_by_key(|l| l.clbits);
        let mut cumulative = Vec::with_capacity(leaves.len());
        let mut acc = 0.0;
        for l in &leaves {
            acc += l.probability;
            cumulative.push(acc);
        }
        debug_assert!(
            (acc - 1.0).abs() < 1e-9,
            "branch probabilities sum to {acc}"
        );
        // Accumulated floating-point error leaves the sum at 1 ± ε.
        // Renormalise so batched draws (which hand any numerically
        // missing mass to the last leaf) cannot systematically over- or
        // under-draw it, and exact_expval_z is exactly a convex average.
        if acc > 0.0 && acc != 1.0 {
            let inv = 1.0 / acc;
            for l in &mut leaves {
                l.probability *= inv;
            }
            for c in &mut cumulative {
                *c *= inv;
            }
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Self {
            leaves,
            cumulative,
            prefix,
            fusion,
        }
    }

    /// The Clifford prefix the compiler actually ran on the tableau
    /// (`prefix_len` is 0 when the circuit compiled all-dense — custom
    /// input state, short prefix, or the reference path).
    pub fn clifford_prefix(&self) -> CliffordPrefix {
        self.prefix
    }

    /// What single-qubit gate fusion did to the dense portion.
    pub fn fusion_stats(&self) -> FusionStats {
        self.fusion
    }

    /// The enumerated leaves.
    pub fn leaves(&self) -> &[BranchLeaf] {
        &self.leaves
    }

    /// Draws one leaf according to the branch probabilities.
    pub fn sample_leaf<R: Rng + ?Sized>(&self, rng: &mut R) -> &BranchLeaf {
        let r: f64 = rng.gen::<f64>() * self.cumulative.last().copied().unwrap_or(1.0);
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&r).unwrap())
        {
            Ok(i) => &self.leaves[(i + 1).min(self.leaves.len() - 1)],
            Err(i) => &self.leaves[i.min(self.leaves.len() - 1)],
        }
    }

    /// Exact expectation of Z on `qubit` over the full branch distribution.
    pub fn exact_expval_z(&self, qubit: usize) -> f64 {
        self.leaves
            .iter()
            .map(|l| l.probability * l.state.expval_z(qubit))
            .sum()
    }

    /// Exact expectation of the Z-parity observable on the qubits set in
    /// `z_mask` (bit `q` ⇒ Z on qubit `q`) over the full branch
    /// distribution: per leaf, the signed sum of its basis
    /// probabilities, weighted by the leaf probability.
    pub fn exact_expval_parity(&self, z_mask: usize) -> f64 {
        self.leaves
            .iter()
            .map(|l| {
                let mut acc = 0.0;
                for (idx, p) in l.state.probabilities().iter().enumerate() {
                    let sign = if (idx & z_mask).count_ones().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    acc += sign * p;
                }
                l.probability * acc
            })
            .sum()
    }

    /// One single-shot estimate of Z on `qubit`: draw a branch, then a
    /// terminal measurement outcome; returns ±1.
    ///
    /// No production path draws shots this way: a cut term's ±1 law is
    /// fixed by its exact value and drawn as one binomial
    /// (`qpd::BernoulliTerm`). This stays as the per-shot reference that
    /// `tests/statistical_equivalence.rs` and this module's tests hold
    /// the batched draws against.
    pub fn sample_z<R: Rng + ?Sized>(&self, qubit: usize, rng: &mut R) -> f64 {
        let leaf = self.sample_leaf(rng);
        let p1 = leaf.state.prob_one(qubit);
        if rng.gen::<f64>() < p1 {
            -1.0
        } else {
            1.0
        }
    }

    /// Draws `shots` shots at once, returning per-leaf counts aligned
    /// with [`leaves`](Self::leaves).
    ///
    /// Exactly multinomially distributed over the leaf probabilities —
    /// the same joint distribution as `shots` independent
    /// [`sample_leaf`](Self::sample_leaf) draws — but costs `O(#leaves)`
    /// RNG work instead of `O(shots)`. `shots == 0` returns all-zero
    /// counts without touching the RNG.
    pub fn sample_batch<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Vec<u64> {
        let probs: Vec<f64> = self.leaves.iter().map(|l| l.probability).collect();
        qsample::multinomial(shots, &probs, rng)
    }

    /// Draws `shots` shots at once and histograms the classical
    /// registers — the batched counterpart of recording
    /// [`sample_leaf`](Self::sample_leaf)`.clbits` per shot. Leaves
    /// sharing a classical outcome are merged.
    pub fn sample_counts<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Counts {
        let mut counts = Counts::new();
        for (leaf, &n) in self.leaves.iter().zip(self.sample_batch(shots, rng).iter()) {
            counts.record_n(leaf.clbits, n);
        }
        counts
    }

    /// Batched counterpart of [`sample_z`](Self::sample_z): draws
    /// `shots` single-shot ±1 estimates of Z on `qubit` and returns
    /// their **sum** (divide by `shots` for the mean).
    ///
    /// Leaf occupancies come from one multinomial draw; the terminal
    /// measurement within each occupied leaf is one binomial draw on
    /// that leaf's `P(1)`. Identical in distribution to summing `shots`
    /// calls to [`sample_z`](Self::sample_z), in `O(#leaves)` RNG work.
    ///
    /// Like [`sample_z`](Self::sample_z), a test reference with no
    /// production caller: the branch-tree draw that
    /// `tests/statistical_equivalence.rs`, `tests/proptest_sampling.rs`
    /// and this module's tests compare with the per-shot loop.
    pub fn sample_z_batch<R: Rng + ?Sized>(&self, qubit: usize, shots: u64, rng: &mut R) -> f64 {
        let mut sum = 0.0;
        for (leaf, &n) in self.leaves.iter().zip(self.sample_batch(shots, rng).iter()) {
            if n == 0 {
                continue;
            }
            let p1 = leaf.state.prob_one(qubit).clamp(0.0, 1.0);
            let ones = qsample::binomial(n, p1, rng);
            // n − ones outcomes of +1, ones outcomes of −1.
            sum += n as f64 - 2.0 * ones as f64;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell_measure_circuit() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        c
    }

    #[test]
    fn bell_shots_are_correlated() {
        let c = bell_measure_circuit();
        let mut rng = StdRng::seed_from_u64(1);
        let counts = run_shots(&c, None, 4000, &mut rng);
        assert_eq!(
            counts.get(0b01) + counts.get(0b10),
            0,
            "anticorrelated outcomes seen"
        );
        let f00 = counts.frequency(0b00);
        assert!((f00 - 0.5).abs() < 0.05);
    }

    #[test]
    fn feed_forward_teleport_identity() {
        // Teleport |ψ⟩ = Ry(0.9)|0⟩ from qubit 0 to qubit 2 and check ⟨Z⟩.
        let mut c = Circuit::new(3, 2);
        c.ry(0.9, 0);
        c.h(1).cx(1, 2); // Bell pair on (1,2)
        c.cx(0, 1).h(0);
        c.measure(0, 0).measure(1, 1);
        c.x_if(2, 1).z_if(2, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let expect = (0.9f64).cos();
        // Exact via compiled sampler:
        let sampler = CompiledSampler::compile(&c, None);
        assert!((sampler.exact_expval_z(2) - expect).abs() < 1e-10);
        // Statistical via per-shot simulation:
        let mut acc = 0.0;
        let shots = 20_000;
        for _ in 0..shots {
            let shot = run_shot(&c, None, &mut rng);
            acc += shot.state.expval_z(2);
        }
        assert!((acc / shots as f64 - expect).abs() < 0.02);
    }

    #[test]
    fn compiled_sampler_matches_run_shot_distribution() {
        let c = bell_measure_circuit();
        let sampler = CompiledSampler::compile(&c, None);
        assert_eq!(sampler.leaves().len(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = Counts::new();
        for _ in 0..4000 {
            counts.record(sampler.sample_leaf(&mut rng).clbits);
        }
        assert!((counts.frequency(0b00) - 0.5).abs() < 0.05);
        assert_eq!(counts.get(0b01), 0);
    }

    #[test]
    fn conditioned_measurement_branches() {
        // Measure q0; only if it is 1, flip and measure q1.
        let mut c = Circuit::new(2, 2);
        c.h(0).measure(0, 0);
        c.gate_if(Gate::X, &[1], 0, true);
        c.measure(1, 1);
        let sampler = CompiledSampler::compile(&c, None);
        // Outcomes: c=00 (q0=0, q1 stays 0) and c=11.
        let probs: Vec<(u64, f64)> = sampler
            .leaves()
            .iter()
            .map(|l| (l.clbits, l.probability))
            .collect();
        assert_eq!(probs.len(), 2);
        assert!(probs
            .iter()
            .any(|&(c, p)| c == 0b00 && (p - 0.5).abs() < 1e-12));
        assert!(probs
            .iter()
            .any(|&(c, p)| c == 0b11 && (p - 0.5).abs() < 1e-12));
    }

    #[test]
    fn density_execution_matches_compiled_expectation() {
        let mut c = Circuit::new(3, 2);
        c.ry(1.3, 0);
        c.h(1).cx(1, 2);
        c.cx(0, 1).h(0);
        c.measure(0, 0).measure(1, 1);
        c.x_if(2, 1).z_if(2, 0);
        let rho_out = execute_density(&c, &DensityMatrix::new(3));
        assert!((rho_out.trace() - 1.0).abs() < 1e-10);
        let reduced = rho_out.partial_trace(&[2]);
        let z = reduced.expval_pauli(&crate::pauli::PauliString::single(
            1,
            0,
            crate::pauli::Pauli::Z,
        ));
        let sampler = CompiledSampler::compile(&c, None);
        assert!((z - sampler.exact_expval_z(2)).abs() < 1e-10);
        assert!((z - (1.3f64).cos()).abs() < 1e-10);
    }

    #[test]
    fn density_branches_carry_probabilities() {
        let c = bell_measure_circuit();
        let branches = execute_density_branches(&c, &DensityMatrix::new(2));
        let total: f64 = branches.iter().map(|b| b.rho.trace()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let nonzero: Vec<_> = branches.iter().filter(|b| b.rho.trace() > 1e-12).collect();
        assert_eq!(nonzero.len(), 2);
        for b in nonzero {
            assert!((b.rho.trace() - 0.5).abs() < 1e-12);
            assert!(b.clbits == 0b00 || b.clbits == 0b11);
        }
    }

    #[test]
    fn reset_channel_in_density_execution() {
        let mut c = Circuit::new(1, 0);
        c.h(0);
        c.reset(0);
        let out = execute_density(&c, &DensityMatrix::new(1));
        // Reset sends everything to |0⟩⟨0|.
        assert!(out.approx_eq(&DensityMatrix::new(1), 1e-12));
    }

    #[test]
    fn reset_in_shot_execution() {
        let mut c = Circuit::new(1, 1);
        c.h(0);
        c.reset(0);
        c.measure(0, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let counts = run_shots(&c, None, 500, &mut rng);
        assert_eq!(counts.get(1), 0);
        assert_eq!(counts.get(0), 500);
    }

    #[test]
    fn counts_bookkeeping() {
        let mut c = Counts::new();
        c.record(3);
        c.record(3);
        c.record(1);
        assert_eq!(c.total(), 3);
        assert_eq!(c.get(3), 2);
        assert!((c.frequency(1) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.get(7), 0);
    }

    #[test]
    fn custom_input_state_is_used() {
        let mut input = StateVector::new(1);
        input.apply_gate(&Gate::X, &[0]);
        let mut c = Circuit::new(1, 1);
        c.measure(0, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let counts = run_shots(&c, Some(&input), 100, &mut rng);
        assert_eq!(counts.get(1), 100);
    }

    #[test]
    fn sample_batch_counts_align_with_leaves() {
        let c = bell_measure_circuit();
        let sampler = CompiledSampler::compile(&c, None);
        let mut rng = StdRng::seed_from_u64(21);
        let shots = 100_000;
        let counts = sampler.sample_batch(shots, &mut rng);
        assert_eq!(counts.len(), sampler.leaves().len());
        assert_eq!(counts.iter().sum::<u64>(), shots);
        for (leaf, &n) in sampler.leaves().iter().zip(counts.iter()) {
            let f = n as f64 / shots as f64;
            assert!(
                (f - leaf.probability).abs() < 0.01,
                "leaf {:b}: frequency {f} vs probability {}",
                leaf.clbits,
                leaf.probability
            );
        }
    }

    #[test]
    fn sample_counts_matches_per_shot_histogram_keys() {
        let c = bell_measure_circuit();
        let sampler = CompiledSampler::compile(&c, None);
        let mut rng = StdRng::seed_from_u64(22);
        let counts = sampler.sample_counts(4000, &mut rng);
        assert_eq!(counts.total(), 4000);
        assert_eq!(counts.get(0b01) + counts.get(0b10), 0);
        assert!((counts.frequency(0b00) - 0.5).abs() < 0.05);
    }

    #[test]
    fn sample_z_batch_agrees_with_exact_expectation() {
        let mut c = Circuit::new(3, 2);
        c.ry(1.1, 0);
        c.h(1).cx(1, 2);
        c.cx(0, 1).h(0);
        c.measure(0, 0).measure(1, 1);
        c.x_if(2, 1).z_if(2, 0);
        let sampler = CompiledSampler::compile(&c, None);
        let exact = sampler.exact_expval_z(2);
        let mut rng = StdRng::seed_from_u64(23);
        let shots = 200_000;
        let mean = sampler.sample_z_batch(2, shots, &mut rng) / shots as f64;
        // SE = sqrt((1 − exact²)/shots) ≈ 0.0018; allow 5σ.
        assert!((mean - exact).abs() < 0.01, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn batched_and_per_shot_z_estimates_agree() {
        let mut c = Circuit::new(2, 1);
        c.ry(0.8, 0).cx(0, 1).measure(0, 0);
        let sampler = CompiledSampler::compile(&c, None);
        let shots = 50_000;
        let mut rng_a = StdRng::seed_from_u64(24);
        let per_shot: f64 = (0..shots).map(|_| sampler.sample_z(1, &mut rng_a)).sum();
        let mut rng_b = StdRng::seed_from_u64(25);
        let batched = sampler.sample_z_batch(1, shots, &mut rng_b);
        let diff = (per_shot - batched).abs() / shots as f64;
        // Two independent unbiased estimates of the same mean: the
        // difference has SE ≤ 2/√shots ≈ 0.009.
        assert!(diff < 0.045, "paths disagree by {diff}");
    }

    #[test]
    fn zero_shot_batch_is_empty_and_skips_rng() {
        let c = bell_measure_circuit();
        let sampler = CompiledSampler::compile(&c, None);
        let mut rng = StdRng::seed_from_u64(26);
        let before = rng.gen::<u64>();
        let mut rng = StdRng::seed_from_u64(26);
        assert_eq!(sampler.sample_batch(0, &mut rng), vec![0, 0]);
        assert_eq!(sampler.sample_z_batch(0, 0, &mut rng), 0.0);
        assert_eq!(sampler.sample_counts(0, &mut rng).total(), 0);
        assert_eq!(rng.gen::<u64>(), before, "n = 0 batch consumed RNG state");
    }

    #[test]
    fn single_leaf_sampler_batches_deterministically() {
        // No measurement → exactly one leaf with probability 1.
        let mut c = Circuit::new(1, 0);
        c.ry(0.4, 0);
        let sampler = CompiledSampler::compile(&c, None);
        assert_eq!(sampler.leaves().len(), 1);
        let mut rng = StdRng::seed_from_u64(27);
        assert_eq!(sampler.sample_batch(777, &mut rng), vec![777]);
    }

    #[test]
    fn leaf_probabilities_are_renormalised() {
        // A deep feed-forward circuit accumulates floating-point error
        // in the branch weights; compile() must hand back exactly
        // normalised probabilities with the last cumulative pinned at 1.
        let mut c = Circuit::new(4, 4);
        for q in 0..4 {
            c.ry(0.3 + q as f64, q);
        }
        for q in 0..3 {
            c.cx(q, q + 1);
        }
        for q in 0..4 {
            c.measure(q, q);
        }
        let sampler = CompiledSampler::compile(&c, None);
        let total: f64 = sampler.leaves().iter().map(|l| l.probability).sum();
        assert!((total - 1.0).abs() < 1e-15, "sum {total}");
        let mut rng = StdRng::seed_from_u64(28);
        let shots = 10_000;
        assert_eq!(
            sampler.sample_batch(shots, &mut rng).iter().sum::<u64>(),
            shots
        );
    }

    #[test]
    fn sample_z_is_unbiased() {
        let mut c = Circuit::new(1, 0);
        c.ry(1.0, 0);
        let sampler = CompiledSampler::compile(&c, None);
        let exact = sampler.exact_expval_z(0);
        assert!((exact - (1.0f64).cos()).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| sampler.sample_z(0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - exact).abs() < 0.02);
    }

    fn basis_state(n: usize, idx: usize) -> StateVector {
        let mut amps = vec![qlinalg::c64(0.0, 0.0); 1 << n];
        amps[idx] = qlinalg::c64(1.0, 0.0);
        StateVector::from_amplitudes(n, amps)
    }

    #[test]
    fn basis_index_detects_exact_basis_states_only() {
        assert_eq!(computational_basis_index(&StateVector::new(3)), Some(0));
        assert_eq!(computational_basis_index(&basis_state(3, 5)), Some(5));
        let mut plus = StateVector::new(1);
        plus.apply_gate(&Gate::H, &[0]);
        assert_eq!(computational_basis_index(&plus), None);
        // A global phase disqualifies: not bit-exactly 1 + 0i.
        let mut phased = StateVector::new(1);
        phased.apply_gate(&Gate::X, &[0]);
        phased.apply_gate(&Gate::Z, &[0]);
        phased.apply_gate(&Gate::X, &[0]);
        assert_eq!(computational_basis_index(&phased), None);
    }

    #[test]
    fn basis_inputs_ride_the_hybrid_path() {
        // A Clifford-heavy circuit with a basis input: before the fix
        // any supplied input forced the dense path.
        let mut c = Circuit::new(3, 1);
        c.h(0).cx(0, 1).cx(1, 2).s(2).measure(2, 0);
        for idx in 0..8usize {
            let input = basis_state(3, idx);
            let hybrid = CompiledSampler::compile(&c, Some(&input));
            assert!(
                hybrid.clifford_prefix().prefix_len >= 4,
                "basis input |{idx}⟩ compiled dense"
            );
            let dense = CompiledSampler::compile_dense(&c, Some(&input));
            assert_eq!(hybrid.leaves().len(), dense.leaves().len());
            for (h, d) in hybrid.leaves().iter().zip(dense.leaves().iter()) {
                assert_eq!(h.clbits, d.clbits);
                assert!((h.probability - d.probability).abs() < 1e-12);
                let fidelity: f64 = h
                    .state
                    .amplitudes()
                    .iter()
                    .zip(d.state.amplitudes().iter())
                    .map(|(a, b)| a.conj() * *b)
                    .fold(qlinalg::c64(0.0, 0.0), |acc, z| acc + z)
                    .abs();
                assert!(
                    (fidelity - 1.0).abs() < 1e-10,
                    "leaf state mismatch on |{idx}⟩: fidelity {fidelity}"
                );
            }
        }
    }

    /// The parity loop the planner and the multi-cut terms each ran
    /// inline before [`CompiledSampler::exact_expval_parity`], kept
    /// verbatim as its oracle.
    fn parity_oracle(sampler: &CompiledSampler, z_mask: usize) -> f64 {
        sampler
            .leaves()
            .iter()
            .map(|l| {
                let mut acc = 0.0;
                for (idx, p) in l.state.probabilities().iter().enumerate() {
                    let sign = if (idx & z_mask).count_ones().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    acc += sign * p;
                }
                l.probability * acc
            })
            .sum()
    }

    /// A random circuit that branches: a Clifford head long enough for
    /// the tableau path, then Haar gates mixed with mid-circuit
    /// measurements, resets and gates conditioned on measured bits.
    fn random_branching_circuit(n: usize, rng: &mut StdRng) -> Circuit {
        let mut c = Circuit::new(n, 3);
        for _ in 0..rng.gen_range(0..6) {
            let q = rng.gen_range(0..n);
            c.h(q).cx(q, (q + 1) % n);
        }
        for _ in 0..14 {
            let q = rng.gen_range(0..n);
            let bit = rng.gen_range(0..3);
            match rng.gen_range(0..6) {
                0 => {
                    c.unitary(crate::random::haar_unitary(2, rng), &[q]);
                }
                1 => {
                    c.unitary(crate::random::haar_unitary(4, rng), &[q, (q + 1) % n]);
                }
                2 | 3 => {
                    c.measure(q, bit);
                }
                4 => {
                    let theta = 6.0 * rng.gen::<f64>() - 3.0;
                    c.gate_if(Gate::Ry(theta), &[q], bit, rng.gen::<f64>() < 0.5);
                }
                _ => {
                    c.reset(q);
                }
            }
        }
        c
    }

    #[test]
    fn exact_parity_matches_the_leaf_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut branched = 0;
        for _ in 0..48 {
            let n = rng.gen_range(2..5);
            let c = random_branching_circuit(n, &mut rng);
            let sampler = CompiledSampler::compile(&c, None);
            if sampler.leaves().len() > 1 {
                branched += 1;
            }
            for z_mask in 0..1usize << n {
                assert_eq!(
                    sampler.exact_expval_parity(z_mask).to_bits(),
                    parity_oracle(&sampler, z_mask).to_bits(),
                    "mask {z_mask:#b} on {c:?}"
                );
            }
            // One Z is the single-qubit expectation.
            for q in 0..n {
                let single = sampler.exact_expval_parity(1 << q);
                assert!((single - sampler.exact_expval_z(q)).abs() < 1e-12);
            }
        }
        assert!(branched >= 24, "only {branched} of 48 circuits branched");
    }

    #[test]
    fn non_basis_inputs_still_compile_dense() {
        let mut c = Circuit::new(2, 0);
        c.h(0).cx(0, 1).s(1).cx(1, 0);
        let mut input = StateVector::new(2);
        input.apply_gate(&Gate::H, &[0]);
        let sampler = CompiledSampler::compile(&c, Some(&input));
        assert_eq!(sampler.clifford_prefix().prefix_len, 0);
    }
}
