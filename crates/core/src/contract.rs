//! **Per-fragment tensor-block compilation** — the one compile path of
//! the cut planner ([`crate::planner::CompiledPlan::compile`]).
//!
//! Wire cutting's value proposition is that fragments are simulated
//! *independently* and recombined classically. Stitching one monolithic
//! circuit per product term inverts that: every combination of
//! per-group QPD terms stitches and simulates its own carrier-threaded
//! circuit, so compilation cost grows as `Π terms(group)` — intractable
//! past ~4 cuts. This module keeps the fragment-local structure in the
//! Pauli-transfer picture:
//!
//! * **Group transfer matrices** — each cut group's term `t` realises a
//!   channel `C_t` on the cut wires; its Pauli transfer matrix
//!   `R_t[a, b] = Tr[P_a · C_t(P_b)] / d` is computed once per distinct
//!   term family in a build (groups with the same NME `k`, or joint
//!   groups of the same width, share one table).
//!   NME groups factorise per wire (`[[f64; 4]; 4]` per term); joint-MUB
//!   terms are dephasing-type channels whose PTM is **diagonal** in the
//!   Pauli basis, so the nominal `4ⁿ × 4ⁿ` transfer collapses to its
//!   `4ⁿ` diagonal, built directly from the GF(2ⁿ) Pauli-class structure
//!   ([`crate::mub::mub_error_pauli`]) without ever materialising a
//!   matrix. That sparse form is what lifts [`MAX_JOINT_WIRES`] to 6:
//!   the dense transfer at `n = 6` alone would hold `16⁶ ≈ 1.7·10⁷`
//!   entries per term and cost `O(d⁵)` tomography to build.
//! * **Fragment blocks** — each fragment `F` is compiled once per local
//!   *variant*: every incoming cut wire is prepared in each of the six
//!   Pauli eigenstates (a basis input plus H/S Clifford prep, riding the
//!   [`CompiledSampler`] hybrid-stabilizer machinery), the fragment runs
//!   as a statevector, and all outgoing-Pauli ⊗ local-Z expectations are
//!   read off with [`StateVector::expval_pauli`]. Eigenstate weights
//!   fold the variants into the block tensor
//!   `F[a_in, b_out] = Tr[(P_{b_out} ⊗ Z_local) · E_F(σ_{a_in}/2 ⊗ |0⟩⟨0|)]`,
//!   stored in **CSR form** over the incoming index `a` (Clifford-heavy
//!   fragments have near-permutation Pauli-transfer rows, so most
//!   entries vanish). Fragments containing mid-circuit **measurement or
//!   feed-forward** are admitted: the channel `E_F` then branches over
//!   classical outcomes, and the block entry is the
//!   outcome-probability-weighted sum over the sampler's branch leaves —
//!   one sub-block per outcome, folded on the spot. A plan with no cut
//!   is one term: its fragments' blocks have no cut slots, and the term
//!   is their contraction ([`FragmentBlocks::term_value`] at `&[]`).
//! * **Classical axes** — a classical bit that one fragment measures
//!   (or passes on) and a later fragment reads or re-measures is sent
//!   over classical communication, which is free in the paper's LOCC
//!   setting. Each pair of consecutive fragments touching a bit is one
//!   **classical edge**: a frontier axis with no QPD term, no transfer
//!   and no κ, keyed after every cut slot. A classical state is diagonal,
//!   so the axis carries only `I` and `Z`: the source block weighs each
//!   branch leaf by `1` or `(−1)^bit` (its `X`/`Y` columns are zero),
//!   and the destination compiles two variants per received bit, bit 0
//!   and bit 1, preset by measuring an ancilla prepared in `|bit⟩` into
//!   the bit before the fragment runs (its `X`/`Y` rows stay empty).
//! * **Prefix-cached frontier contraction** — a product term's exact
//!   expectation is the frontier contraction `Σ F_dest[a] · R[a, b] ·
//!   F_src[b]` chained through the fragments in program order. The walk
//!   is precompiled into a pick-independent **schedule** of
//!   absorb/apply steps (frontier axis bookkeeping is the same for
//!   every term; only the applied transfer entries depend on the
//!   odometer pick). Because [`qpd::QpdSpec::product`] enumerates terms
//!   row-major with the **last group fastest**, consecutive terms share
//!   all but the fastest-varying group's frontier: [`FrontierSweep`]
//!   snapshots the frontier before each group's apply step and resumes
//!   each term at its first odometer digit that differs from the
//!   previous term, turning a full sweep from `O(terms × groups)`
//!   frontier multiplications into amortized `O(terms)`. The
//!   pick-independent tail *after* the last group's apply is folded
//!   into one precomputed vector per last-group term, so the hot path —
//!   only the fastest digit changed — is a single dot product.
//!   Hit/rebuild and frontier-op counters surface through
//!   [`crate::planner::BackendReport`].
//! * **Level-by-level walk** — compilation needs every term, in
//!   odometer order. [`FragmentBlocks::walk`] replays depth first only
//!   down to the shallowest level whose subtree fits a cache-sized
//!   budget of frontier entries per level, then expands that subtree
//!   one whole level at a time: each level's frontiers sit contiguously
//!   in two reused buffers, and each schedule op runs once over all of
//!   them. Every entry comes from the same ops in the same order as in
//!   the sweep, so values, order and counters are the sweep's, bit for
//!   bit.
//!
//! Total cost is `Σ_F variants(F)` fragment simulations plus an
//! amortized O(1) frontier contraction per term — instead of
//! `Π terms(group)` stitched circuits — so plans with 6+ cuts compile
//! where stitching blows up. The sweep yields only each term's exact
//! value; the plan turns it into the term's law ([`qpd::BernoulliTerm`]).
//! Plans over the resource caps ([`contraction_ineligibility`]) are
//! rejected by name. Stitching
//! ([`crate::planner::CompiledPlan::compile_monolithic`]) is only the
//! differential-testing oracle (`tests/fragment_contraction.rs`), the
//! way `compile_dense` is the hybrid sampler's reference.

use crate::mub::{mub_error_pauli, MubField};
use crate::nme::NmeCut;
use crate::planner::{BackendReport, CutGroup, CutPlan, Protocol};
use crate::term::{term_channel, WireCut};
use qlinalg::Matrix;
use qsim::dag::instruction_clbits;
use qsim::{
    fragment_circuit, BranchLeaf, Circuit, CompiledSampler, Pauli, PauliString, StateVector,
    Superoperator,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Hard cap on a fragment's incoming frontier axes — cut wires plus
/// received classical bits. It bounds the block at the `6^MAX_INCOMING`
/// variants and `4^MAX_INCOMING` rows of a fragment receiving
/// `MAX_INCOMING` cut wires.
pub const MAX_INCOMING: usize = 8;

/// Hard cap on joint-MUB group width for the contracted path. The
/// diagonal sparse transfer is `4ⁿ` per term, so the binding cost at
/// `n = 6` is the flip-term ancilla simulation, not the transfer.
pub const MAX_JOINT_WIRES: usize = 6;

/// Magnitude below which a folded block-tensor entry is dropped when
/// sparsifying to CSR. Well under every differential tolerance in the
/// suite (1e−8 against monolithic, 1e−12 cached-vs-uncached) and above
/// the ~1e−16 float noise of exactly-zero entries, so sparsification
/// never moves a term value observably.
const SPARSE_CUTOFF: f64 = 1e-14;

/// Six Pauli eigenstate preps per incoming wire, indexed `0..6`:
/// `|0⟩, |1⟩, |+⟩, |−⟩, |+i⟩, |−i⟩`. Odd indices set the input basis
/// bit; `{2,3}` append H; `{4,5}` append H then S (`S·H|1⟩ = |−i⟩`).
/// A received classical bit has preps `0` and `1` only: its two values.
const NUM_PREPS: usize = 6;

/// `σ_a/2` expanded over eigenstate preps: `WEIGHTS[a]` lists the two
/// `(prep, weight)` entries with `σ_a/2 = Σ w·|s⟩⟨s|`.
const WEIGHTS: [[(usize, f64); 2]; 4] = [
    [(0, 0.5), (1, 0.5)],  // I/2
    [(2, 0.5), (3, -0.5)], // X/2
    [(4, 0.5), (5, -0.5)], // Y/2
    [(0, 0.5), (1, -0.5)], // Z/2
];

/// A classical bit handed from fragment `source` to `dest`, the next
/// fragment that measures it or reads it in a condition.
struct ClassicalEdge {
    clbit: usize,
    source: usize,
    dest: usize,
}

/// Every classical edge of `plan`: for each bit, each pair of
/// consecutive fragments touching it, ordered by destination fragment,
/// then bit.
fn classical_edges(plan: &CutPlan) -> Vec<ClassicalEdge> {
    let instructions = plan.circuit().instructions();
    let mut last_touch: Vec<Option<usize>> = vec![None; plan.circuit().num_clbits()];
    let mut edges = Vec::new();
    for (fi, frag) in plan.fragments.iter().enumerate() {
        let mut bits: Vec<usize> = frag
            .instructions
            .iter()
            .flat_map(|&i| instruction_clbits(&instructions[i]))
            .collect();
        bits.sort_unstable();
        bits.dedup();
        for clbit in bits {
            if let Some(source) = last_touch[clbit].replace(fi) {
                edges.push(ClassicalEdge {
                    clbit,
                    source,
                    dest: fi,
                });
            }
        }
    }
    edges
}

/// Why `plan` exceeds the contraction's resource caps, or `None` when
/// [`crate::planner::CompiledPlan::compile`] can compile it. The caps,
/// in order:
///
/// 1. joint-MUB group width ≤ [`MAX_JOINT_WIRES`];
/// 2. incoming frontier axes per fragment — cut wires `q` plus received
///    classical bits `c` — ≤ [`MAX_INCOMING`], which bounds its
///    `6^q · 2^c` variants and `4^(q+c)` block rows;
/// 3. per-group term counts and their running product stay inside
///    `usize` (`checked_pow`/`checked_mul` — the odometer sweep indexes
///    `Π terms(group)` combinations).
pub fn contraction_ineligibility(plan: &CutPlan) -> Option<String> {
    for (gi, g) in plan.groups.iter().enumerate() {
        if g.protocol == Protocol::JointMub && g.num_wires() > MAX_JOINT_WIRES {
            return Some(format!(
                "group {gi} cuts {} wires jointly, above the MAX_JOINT_WIRES = \
                 {MAX_JOINT_WIRES} transfer cap",
                g.num_wires()
            ));
        }
    }
    let mut axes_in = vec![0usize; plan.fragments.len()];
    for g in &plan.groups {
        axes_in[g.cuts[0].dest_fragment] += g.num_wires();
    }
    for e in classical_edges(plan) {
        axes_in[e.dest] += 1;
    }
    for (fi, &n_in) in axes_in.iter().enumerate() {
        if n_in > MAX_INCOMING {
            return Some(format!(
                "fragment {fi} receives {n_in} incoming axes (cut wires plus classical \
                 bits), above the MAX_INCOMING = {MAX_INCOMING} cap"
            ));
        }
    }
    let mut total = 1usize;
    for (gi, g) in plan.groups.iter().enumerate() {
        let n = g.num_wires();
        let len = match g.protocol {
            Protocol::Nme { k } => {
                let per_wire = NmeCut::new(k).spec().len();
                match per_wire.checked_pow(n as u32) {
                    Some(len) => len,
                    None => {
                        return Some(format!(
                            "group {gi}: NME term count {per_wire}^{n} overflows usize"
                        ))
                    }
                }
            }
            Protocol::JointMub => (1usize << n) + 1,
        };
        total = match total.checked_mul(len) {
            Some(t) => t,
            None => {
                return Some(format!(
                    "product term count overflows usize at group {gi} \
                     ({total} terms so far × {len})"
                ))
            }
        };
    }
    None
}

/// One cut group's Pauli transfer matrices, one per QPD term, in the
/// exact order [`CutGroup::terms`] enumerates them. Groups of one term
/// family share one table: NME tables process-wide per `k`, joint-MUB
/// tables within one build (see [`group_transfers`]).
enum GroupTransfer {
    /// NME groups factorise per wire: every wire shares the same
    /// single-wire term family (`[[f64; 4]; 4]` PTM per term), and the
    /// group term index decodes with the **last wire fastest** — the
    /// [`crate::multi::ParallelWireCut`] combination order.
    PerWire {
        wires: usize,
        per_term: Arc<[[[f64; 4]; 4]]>,
    },
    /// Joint-MUB groups: every term is a dephasing-type channel, whose
    /// PTM is diagonal in the Pauli basis — `diags[t][a]` is the
    /// eigenvalue of Pauli `a` under term `t` (slot 0 = least
    /// significant base-4 digit). The diagonal *is* the fully sparse
    /// form of the `4ⁿ × 4ⁿ` transfer: `16ⁿ` entries collapse to `4ⁿ`.
    Joint { diags: Arc<[Vec<f64>]> },
}

impl GroupTransfer {
    fn num_terms(&self) -> usize {
        match self {
            GroupTransfer::PerWire { wires, per_term } => per_term
                .len()
                .checked_pow(*wires as u32)
                .expect("per-wire term count overflows usize — eligibility admitted a plan it must reject"),
            GroupTransfer::Joint { diags, .. } => diags.len(),
        }
    }
}

/// The per-wire term indices of group term `t` over `wires` wires with
/// `n` terms each, slot by slot: base-`n` digits of `t`, **last wire
/// fastest** (the [`crate::multi::ParallelWireCut`] order).
fn wire_terms(t: usize, wires: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..wires).map(move |slot| t / n.pow((wires - 1 - slot) as u32) % n)
}

/// The single-wire PTM `r[a][b] = Re Tr[P_a · C(P_b)] / 2` of a channel.
fn ptm_1q(ch: &Superoperator) -> [[f64; 4]; 4] {
    let paulis: Vec<Matrix> = (0..4).map(|i| Pauli::from_index(i).matrix()).collect();
    let mut r = [[0.0; 4]; 4];
    for (b, pb) in paulis.iter().enumerate() {
        let image = ch.apply(pb);
        for (a, pa) in paulis.iter().enumerate() {
            r[a][b] = pa.matmul(&image).trace().re * 0.5;
        }
    }
    r
}

/// Base-4 Pauli code of a symplectic `(x, z)` pair: slot `q`'s digit is
/// `I/X/Y/Z = 0/1/2/3` from the bit pair `(x_q, z_q)` — the
/// [`qsim::pauli::pauli_string_from_code`] convention.
fn pauli_code(p: (u64, u64), n: usize) -> usize {
    let (x, z) = p;
    let mut code = 0usize;
    for q in 0..n {
        let digit = match ((x >> q) & 1, (z >> q) & 1) {
            (0, 0) => 0,
            (1, 0) => 1,
            (1, 1) => 2,
            _ => 3,
        };
        code |= digit << (2 * q);
    }
    code
}

/// The diagonal PTMs of the `d + 1` joint-MUB QPD terms over `n` wires,
/// in [`crate::joint::JointWireCut::terms`] order. Dephasing in MUB `b`
/// fixes exactly the Paulis of its stabilizer class `{U_b Z^z U_b†}`
/// (eigenvalue 1) and annihilates every Pauli that anticommutes with
/// some class member — which is every other non-identity Pauli, the
/// class being maximal abelian. The flip term maps `I ↦ I`, each
/// Z-string to `−1/(d−1)` times itself, and kills all off-diagonal
/// Paulis. Built from the GF(2ⁿ) class structure — `O((d+1)·d)` integer
/// work, no `d × d` matrix and no dense `16ⁿ`-entry tomography — and
/// pinned against the dense [`ptm_dense`] reference for `n ≤ 2` in
/// tests.
fn joint_transfer_diagonals(n: usize) -> Vec<Vec<f64>> {
    let field = MubField::new(n);
    let d = 1usize << n;
    let dim4 = 1usize << (2 * n);
    let mut diags = Vec::with_capacity(d + 1);
    for b in 1..=d {
        let mut diag = vec![0.0f64; dim4];
        for z in 0..d as u64 {
            diag[pauli_code(mub_error_pauli(&field, b, z), n)] = 1.0;
        }
        diags.push(diag);
    }
    let mut flip = vec![0.0f64; dim4];
    flip[0] = 1.0;
    for z in 1..d as u64 {
        flip[pauli_code((0, z), n)] = -1.0 / (d - 1) as f64;
    }
    diags.push(flip);
    diags
}

/// Builds every group's transfer matrices from its protocol, each
/// distinct term family once: NME groups share their `k`'s process-wide
/// per-wire PTM table ([`nme_transfers`]), and joint-MUB groups of the
/// same width share one set of diagonals per build.
fn group_transfers(groups: &[CutGroup]) -> Vec<GroupTransfer> {
    let mut joint = Vec::new();
    groups
        .iter()
        .map(|g| match g.protocol {
            Protocol::Nme { k } => GroupTransfer::PerWire {
                wires: g.num_wires(),
                per_term: nme_transfers(k),
            },
            Protocol::JointMub => GroupTransfer::Joint {
                diags: shared(&mut joint, g.num_wires(), || {
                    joint_transfer_diagonals(g.num_wires()).into()
                }),
            },
        })
        .collect()
}

/// The single-wire PTMs of `NmeCut::new(k)`'s three terms, in term
/// order. The process tomography of the term circuits runs once per
/// process for each `k` (keyed by its bits): every later build at that
/// `k` shares the table, the way [`crate::mub::mub_bases`] memoizes its
/// bases. A table is 384 bytes, one per distinct overlap planned.
fn nme_transfers(k: f64) -> Arc<[[[f64; 4]; 4]]> {
    type Tables = HashMap<u64, Arc<[[[f64; 4]; 4]]>>;
    static CACHE: OnceLock<Mutex<Tables>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().expect("NME transfer cache poisoned");
    let table = guard.entry(k.to_bits()).or_insert_with(|| {
        NmeCut::new(k)
            .terms()
            .iter()
            .map(|t| ptm_1q(&term_channel(t)))
            .collect()
    });
    Arc::clone(table)
}

/// The `memo` entry for `key`, built by `build` on first use.
fn shared<K: PartialEq, T: ?Sized>(
    memo: &mut Vec<(K, Arc<T>)>,
    key: K,
    build: impl FnOnce() -> Arc<T>,
) -> Arc<T> {
    if let Some((_, table)) = memo.iter().find(|(k, _)| *k == key) {
        return Arc::clone(table);
    }
    let table = build();
    memo.push((key, Arc::clone(&table)));
    table
}

/// One fragment's compiled expectation block, in CSR form over the
/// incoming index `a`: row `a` lists the surviving `(b_out, value)`
/// pairs of `F[a, b]`.
struct FragmentBlock {
    /// Incoming frontier keys, ascending: cut slots `(group, slot)`,
    /// then classical edges `(groups + edge, 0)`; key `i` is the `i`-th
    /// base-4 digit of the row index `a`.
    in_slots: Vec<(usize, usize)>,
    /// Outgoing frontier keys, ascending in the same order; key `i` is
    /// the `i`-th base-4 digit of the column index `b`.
    out_slots: Vec<(usize, usize)>,
    /// CSR row offsets, length `4^in + 1`.
    row_ptr: Vec<usize>,
    /// Column (outgoing) indices of the stored entries.
    cols: Vec<u32>,
    /// Stored entry values.
    vals: Vec<f64>,
}

/// Public per-fragment compilation summary (introspection for the
/// service and experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragmentBlockSummary {
    /// Fragment index in plan order.
    pub fragment: usize,
    /// Fragment width (local qubits).
    pub width: usize,
    /// Incoming cut wires.
    pub incoming: usize,
    /// Outgoing cut wires.
    pub outgoing: usize,
    /// Compiled prep variants: `6^incoming · 2^bits` for a fragment
    /// receiving `bits` classical bits.
    pub variants: usize,
    /// Entries surviving CSR sparsification, out of `4^(in+out)` over
    /// all incoming and outgoing frontier axes.
    pub nnz: usize,
    /// Largest classical-outcome branch count across variants (1 for a
    /// unitary fragment; measurement fragments block over each outcome).
    pub outcome_branches: usize,
}

/// One step of the precompiled contraction schedule. The frontier's
/// axis bookkeeping is pick-independent — every product term runs the
/// same ops in the same order; only the transfer entries picked inside
/// an `Apply` vary — which is what makes prefix caching sound.
enum SweepOp {
    /// Contract fragment `fragment`'s block into the frontier.
    Absorb {
        fragment: usize,
        /// Frontier axis of each incoming slot at this walk position.
        in_pos: Vec<usize>,
        /// Surviving (non-incoming) frontier axes, in order.
        rest_pos: Vec<usize>,
    },
    /// Apply cut group `group`'s picked term to the frontier.
    Apply {
        group: usize,
        /// Frontier axis of each of the group's slots.
        axes: Vec<usize>,
    },
}

/// The precompiled contraction schedule plus the fused tail (see
/// [`FrontierSweep`]).
struct Schedule {
    ops: Vec<SweepOp>,
    /// `ops` index of each group's `Apply`, ascending in both.
    group_op: Vec<usize>,
    /// Per group but the last: the widest frontier, in entries, from
    /// its apply up to the next group's apply — one child's share of
    /// that level's expansion in [`FragmentBlocks::walk`].
    step_dims: Vec<usize>,
    /// Frontier multiplications of one from-scratch, unfused term
    /// evaluation: 1 per absorb, 1 per wire of a per-wire apply, 1 per
    /// joint apply.
    ops_per_term: usize,
    /// For the last (fastest-varying) group: the pick-independent tail
    /// after its apply — all remaining absorbs — folded through each of
    /// its terms' (transposed) transfers. `fused_tail[t]` dotted with
    /// the frontier before the last apply is the term value, so the hot
    /// path of the sweep is one multiplication. `None` when the plan
    /// has no group or the fold would be larger than the work it saves.
    fused_tail: Option<Vec<Vec<f64>>>,
}

impl Schedule {
    /// The most frontier entries one level of the subtree under a
    /// level-`h` frontier holds in [`FragmentBlocks::walk`]'s expansion:
    /// for each deeper step `g`, the `Π lens[h..=g]` children of level
    /// `g + 1`, each at its widest (`step_dims[g]`). `0` at the last
    /// level, whose subtree is one frontier's leaves.
    fn subtree_peak(&self, lens: &[usize], h: usize) -> usize {
        let mut children = 1usize;
        (h..lens.len() - 1)
            .map(|g| {
                children = children.saturating_mul(lens[g]);
                children.saturating_mul(self.step_dims[g])
            })
            .max()
            .unwrap_or(0)
    }

    /// The level [`FragmentBlocks::walk`] expands whole — the shallowest
    /// whose subtree peak fits `budget`; the last level always does —
    /// and that peak.
    fn split(&self, lens: &[usize], budget: usize) -> (usize, usize) {
        (0..lens.len())
            .map(|h| (h, self.subtree_peak(lens, h)))
            .find(|&(_, peak)| peak <= budget)
            .expect("the last level's subtree holds no level")
    }
}

/// Prefix-cache hit/op counters of one [`FrontierSweep`] (mirrored into
/// [`BackendReport`] by [`crate::planner::CompiledPlan::compile`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Terms evaluated.
    pub terms: usize,
    /// Frontier matrix multiplications actually performed.
    pub frontier_ops: usize,
    /// Frontier multiplications a cache-disabled evaluation of the same
    /// terms would perform (`ops_per_term × terms`).
    pub frontier_ops_uncached: usize,
    /// Σ resume depths: odometer digits whose partial frontier was
    /// served from the prefix stack.
    pub prefix_hits: usize,
    /// Σ re-applied groups: odometer digits whose partial frontier had
    /// to be rebuilt.
    pub prefix_rebuilds: usize,
}

impl SweepStats {
    /// Counts `terms` leaves of a `groups`-group odometer whose resume
    /// digits sum to `hits`; a leaf's fused dot or unfused tail counts
    /// its own frontier multiplications.
    fn count_leaves(&mut self, terms: usize, hits: usize, groups: usize, ops_per_term: usize) {
        self.terms += terms;
        self.prefix_hits += hits;
        self.prefix_rebuilds += terms * groups - hits;
        self.frontier_ops_uncached += terms * ops_per_term;
    }
}

/// All per-fragment blocks and per-group transfer matrices of one plan —
/// everything needed to evaluate any product term by contraction. Built
/// once per compile ([`FragmentBlocks::build`]); the compiled plan keeps
/// only the term values it yields.
pub struct FragmentBlocks {
    blocks: Vec<FragmentBlock>,
    transfers: Vec<GroupTransfer>,
    /// Per group: member wire ids, slot-aligned (diagnostics).
    group_wires: Vec<Vec<usize>>,
    schedule: Schedule,
    summaries: Vec<FragmentBlockSummary>,
    backend: BackendReport,
}

impl FragmentBlocks {
    /// Compiles every fragment variant and every group transfer matrix
    /// for `plan` against a diagonal (Z/I) `observable`. Deterministic:
    /// identical plans produce bit-identical blocks.
    ///
    /// # Panics
    /// Panics when the plan exceeds a resource cap (with the
    /// [`contraction_ineligibility`] reason) or the observable does not
    /// match the planned circuit.
    pub fn build(plan: &CutPlan, observable: &PauliString) -> Self {
        if let Some(reason) = contraction_ineligibility(plan) {
            panic!("plan exceeds the contraction caps: {reason}");
        }
        let edges = classical_edges(plan);
        let circuit = plan.circuit();
        assert_eq!(observable.num_qubits(), circuit.num_qubits());
        assert!(observable.is_diagonal());
        let transfers = group_transfers(&plan.groups);
        let group_wires: Vec<Vec<usize>> = plan
            .groups
            .iter()
            .map(|g| g.cuts.iter().map(|c| c.wire).collect())
            .collect();
        let mut groups_at_source = vec![Vec::new(); plan.fragments.len()];
        for (gi, g) in plan.groups.iter().enumerate() {
            groups_at_source[g.cuts[0].source_fragment].push(gi);
        }
        let mut blocks = Vec::with_capacity(plan.fragments.len());
        let mut summaries = Vec::with_capacity(plan.fragments.len());
        let mut backend = BackendReport::default();
        for (fi, frag) in plan.fragments.iter().enumerate() {
            let mut local = vec![usize::MAX; circuit.num_qubits()];
            for (i, &w) in frag.wires.iter().enumerate() {
                local[w] = i;
            }
            let width = frag.wires.len().max(1);
            // Ascending (group, slot) — the canonical axis order.
            let mut in_slots: Vec<((usize, usize), usize)> = Vec::new();
            let mut out_slots: Vec<((usize, usize), usize)> = Vec::new();
            let mut out_wires: Vec<usize> = Vec::new();
            for (gi, g) in plan.groups.iter().enumerate() {
                for (si, cut) in g.cuts.iter().enumerate() {
                    if cut.dest_fragment == fi {
                        in_slots.push(((gi, si), local[cut.wire]));
                    }
                    if cut.source_fragment == fi {
                        out_slots.push(((gi, si), local[cut.wire]));
                        out_wires.push(cut.wire);
                    }
                }
            }
            // Classical edges key after every cut slot, each with its bit.
            let (mut in_bits, mut out_bits) = (Vec::new(), Vec::new());
            for (ei, e) in edges.iter().enumerate() {
                let key = (plan.groups.len() + ei, 0);
                if e.dest == fi {
                    in_bits.push((key, e.clbit));
                }
                if e.source == fi {
                    out_bits.push((key, e.clbit));
                }
            }
            // Z factors terminate on the wire's *last* fragment — any
            // wire still outgoing defers its Z through the cut channel.
            let z_locals: Vec<usize> = frag
                .wires
                .iter()
                .filter(|&&w| observable.op(w) == Pauli::Z && !out_wires.contains(&w))
                .map(|&w| local[w])
                .collect();
            let base = fragment_circuit(circuit, frag);
            // Received bit `j` is preset from ancilla qubit `width + j`.
            let qubits = width + in_bits.len();
            let (n_wires, n_out_wires) = (in_slots.len(), out_slots.len());
            let n_in = n_wires + in_bits.len();
            let dim_out = 1usize << (2 * (n_out_wires + out_bits.len()));
            // Bounded by the MAX_INCOMING axis cap checked above.
            let num_variants = NUM_PREPS.pow(n_wires as u32) << in_bits.len();
            let mut outcome_branches = 1usize;
            let mut vals = vec![vec![0.0f64; dim_out]; num_variants];
            for (v, val) in vals.iter_mut().enumerate() {
                let mut c = Circuit::new(qubits, base.num_clbits());
                let mut basis_mask = 0usize;
                let mut rem = v;
                for &(_, q) in &in_slots {
                    let s = rem % NUM_PREPS;
                    rem /= NUM_PREPS;
                    if s % 2 == 1 {
                        basis_mask |= 1 << q;
                    }
                    if s >= 2 {
                        c.h(q);
                    }
                    if s >= 4 {
                        c.s(q);
                    }
                }
                for (j, &(_, clbit)) in in_bits.iter().enumerate() {
                    basis_mask |= (rem & 1) << (width + j);
                    rem >>= 1;
                    c.measure(width + j, clbit);
                }
                c.compose(&base);
                let input = if basis_mask == 0 {
                    None
                } else {
                    let mut amps = vec![qlinalg::c64(0.0, 0.0); 1 << qubits];
                    amps[basis_mask] = qlinalg::c64(1.0, 0.0);
                    Some(StateVector::from_amplitudes(qubits, amps))
                };
                let sampler = CompiledSampler::compile(&c, input.as_ref());
                backend.count_unit(&sampler);
                // Measurement fragments branch over classical outcomes;
                // the channel expectation is the probability-weighted
                // sum over the branch leaves (one sub-block per
                // outcome). A unitary fragment has exactly one leaf.
                let leaves = sampler.leaves();
                outcome_branches = outcome_branches.max(leaves.len());
                'column: for (b, slot) in val.iter_mut().enumerate() {
                    // A sent bit's I digit weighs a leaf by 1 and its Z
                    // digit by (−1)^bit; its X and Y columns are zero.
                    let mut z_bits = 0u64;
                    for (i, &(_, clbit)) in out_bits.iter().enumerate() {
                        match (b >> (2 * (n_out_wires + i))) & 3 {
                            0 => {}
                            3 => z_bits |= 1 << clbit,
                            _ => continue 'column,
                        }
                    }
                    let mut ops = vec![Pauli::I; qubits];
                    for &q in &z_locals {
                        ops[q] = Pauli::Z;
                    }
                    for (i, &(_, q)) in out_slots.iter().enumerate() {
                        ops[q] = Pauli::from_index((b >> (2 * i)) & 3);
                    }
                    let obs = PauliString::new(ops);
                    let sign =
                        |l: &BranchLeaf| (-1f64).powi((l.clbits & z_bits).count_ones() as i32);
                    *slot = leaves
                        .iter()
                        .map(|l| sign(l) * l.probability * l.state.expval_pauli(&obs))
                        .sum();
                }
            }
            // Fold eigenstate weights into CSR rows, one incoming index
            // `a` at a time (never materialising the dense tensor).
            let dim_in = 1usize << (2 * n_in);
            let mut row_ptr = Vec::with_capacity(dim_in + 1);
            let mut cols: Vec<u32> = Vec::new();
            let mut csr_vals: Vec<f64> = Vec::new();
            row_ptr.push(0);
            let mut row = vec![0.0f64; dim_out];
            for a in 0..dim_in {
                // A received bit's X and Y rows stay empty: its two
                // preps are the I and Z rows' bit values 0 and 1.
                if !(n_wires..n_in).all(|i| matches!((a >> (2 * i)) & 3, 0 | 3)) {
                    row_ptr.push(cols.len());
                    continue;
                }
                row.fill(0.0);
                for choice in 0..(1usize << n_in) {
                    let mut weight = 1.0f64;
                    let mut v = 0usize;
                    let mut scale = 1usize;
                    for i in 0..n_in {
                        let (prep, w) = WEIGHTS[(a >> (2 * i)) & 3][(choice >> i) & 1];
                        weight *= w;
                        v += prep * scale;
                        scale *= if i < n_wires { NUM_PREPS } else { 2 };
                    }
                    for (b, &x) in vals[v].iter().enumerate() {
                        row[b] += weight * x;
                    }
                }
                for (b, &x) in row.iter().enumerate() {
                    if x.abs() > SPARSE_CUTOFF {
                        cols.push(b as u32);
                        csr_vals.push(x);
                    }
                }
                row_ptr.push(cols.len());
            }
            summaries.push(FragmentBlockSummary {
                fragment: fi,
                width: frag.width(),
                incoming: n_wires,
                outgoing: n_out_wires,
                variants: num_variants,
                nnz: cols.len(),
                outcome_branches,
            });
            blocks.push(FragmentBlock {
                in_slots: in_slots.iter().chain(&in_bits).map(|&(k, _)| k).collect(),
                out_slots: out_slots.iter().chain(&out_bits).map(|&(k, _)| k).collect(),
                row_ptr,
                cols,
                vals: csr_vals,
            });
        }
        let schedule = build_schedule(&blocks, &transfers, &groups_at_source, &group_wires, &edges);
        Self {
            blocks,
            transfers,
            group_wires,
            schedule,
            summaries,
            backend,
        }
    }

    /// Term counts per group, aligned with the plan's group order.
    pub fn group_lens(&self) -> Vec<usize> {
        self.transfers.iter().map(|t| t.num_terms()).collect()
    }

    /// Backend aggregation over every compiled fragment variant (the
    /// contracted analogue of the monolithic per-term report). Frontier
    /// and prefix-cache counters stay zero here — they belong to the
    /// sweep that actually evaluates terms ([`FrontierSweep::stats`]).
    pub fn backend_report(&self) -> BackendReport {
        self.backend
    }

    /// Per-fragment compilation summaries.
    pub fn summaries(&self) -> &[FragmentBlockSummary] {
        &self.summaries
    }

    /// Exact expectation of one product term: `pick[g]` selects group
    /// `g`'s QPD term. Pure contraction — no circuit simulation, no
    /// prefix cache, no fused tail: every op of the schedule runs from
    /// scratch. This is the cache-disabled reference the differential
    /// suite holds [`FrontierSweep`] against, and the one term of a plan
    /// with no cut group (`pick = &[]`).
    pub fn term_value(&self, pick: &[usize]) -> f64 {
        assert_eq!(pick.len(), self.transfers.len());
        let mut vals = vec![1.0f64];
        let mut scratch = Vec::new();
        for op in &self.schedule.ops {
            self.exec_op(op, pick, &mut vals, &mut scratch);
        }
        debug_assert_eq!(vals.len(), 1);
        vals[0]
    }

    /// A fresh prefix-cached sweep over this plan's product terms. Feed
    /// it picks in [`qpd::QpdSpec::product`] odometer order (last group
    /// fastest) for amortized O(1) frontier work per term; any order is
    /// correct, just slower.
    ///
    /// # Panics
    /// Panics when the plan has no cut group: its one term is
    /// [`term_value`](Self::term_value) at `&[]`.
    pub fn sweep(&self) -> FrontierSweep<'_> {
        assert!(
            !self.transfers.is_empty(),
            "a plan without cut groups has one term: evaluate it with term_value(&[])"
        );
        FrontierSweep {
            blocks: self,
            last_pick: vec![0; self.transfers.len()],
            has_pick: false,
            snapshots: vec![Vec::new(); self.transfers.len()],
            work: Vec::new(),
            scratch: Vec::new(),
            stats: SweepStats::default(),
        }
    }

    /// Every product term's exact value, handed to `emit` in
    /// [`qpd::QpdSpec::product`] order (last group fastest), and the
    /// sweep counters of the whole odometer.
    ///
    /// Level `g` holds the frontiers before group `g`'s apply. The walk
    /// runs depth first, with [`FrontierSweep`]'s replay step, only down
    /// to the shallowest level whose subtree fits a fixed budget of 2¹²
    /// frontier entries per level. Below it, each subtree expands one
    /// whole level at a time: a level's frontiers sit contiguously in
    /// odometer order, each of its ops runs once over all of them, and
    /// every frontier of the last level emits its terms as leaves — one
    /// fused dot each, or the unfused tail. Every entry comes from the
    /// ops [`FrontierSweep::term_value`] runs, in the same order, so
    /// the values and counters are those of that sweep fed every pick in
    /// odometer order, bit for bit. A plan with no cut group emits its
    /// one term, [`term_value`](Self::term_value) at `&[]`, and counts
    /// nothing.
    pub fn walk(&self, emit: impl FnMut(f64)) -> SweepStats {
        self.walk_within(LEVEL_BUDGET, emit)
    }

    /// [`walk`](Self::walk) with the level budget `budget`, in frontier
    /// entries: `0` walks depth first down to the last level, and
    /// `usize::MAX` expands the whole odometer level by level. Every
    /// budget yields the same values and counters.
    pub(crate) fn walk_within(&self, budget: usize, mut emit: impl FnMut(f64)) -> SweepStats {
        if self.transfers.is_empty() {
            emit(self.term_value(&[]));
            return SweepStats::default();
        }
        let lens = self.group_lens();
        let (split, peak) = self.schedule.split(&lens, budget);
        let mut sweep = self.sweep();
        // The expansion's two level buffers, reused by every subtree.
        let mut levels = [Vec::with_capacity(peak), Vec::with_capacity(peak)];
        let mut pick = vec![0usize; lens.len()];
        sweep.start(&pick);
        let mut resume = 0;
        loop {
            for g in resume..split {
                sweep.descend(g, &pick);
            }
            sweep.expand(split, resume, &lens, &mut levels, &mut emit);
            // Step the digits above the split, fastest first.
            resume = split;
            loop {
                if resume == 0 {
                    return sweep.stats;
                }
                resume -= 1;
                pick[resume] += 1;
                if pick[resume] < lens[resume] {
                    break;
                }
                pick[resume] = 0;
            }
        }
    }

    /// Executes one schedule op against the single frontier `vals`,
    /// returning the frontier multiplications performed. An absorb
    /// builds the new frontier in `scratch` and swaps it in (see
    /// [`absorb_sparse`]).
    fn exec_op(
        &self,
        op: &SweepOp,
        pick: &[usize],
        vals: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
    ) -> usize {
        match op {
            SweepOp::Absorb {
                fragment,
                in_pos,
                rest_pos,
            } => {
                absorb_sparse(&self.blocks[*fragment], in_pos, rest_pos, vals, scratch);
                1
            }
            SweepOp::Apply { group, axes } => {
                let dim = vals.len();
                self.apply_term(*group, pick[*group], axes, vals, dim, 1)
            }
        }
    }

    /// Applies group `gi`'s term `t` along the frontier axes of every
    /// `step`-th frontier stacked in `frontiers` (each `dim` entries),
    /// starting with the first, and returns the frontier multiplications
    /// one frontier takes.
    fn apply_term(
        &self,
        gi: usize,
        t: usize,
        axes: &[usize],
        frontiers: &mut [f64],
        dim: usize,
        step: usize,
    ) -> usize {
        let nt = self.transfers[gi].num_terms();
        assert!(
            t < nt,
            "term {t} of group {gi} (wires {:?}) is out of range: the group has {nt} terms",
            self.group_wires[gi]
        );
        match &self.transfers[gi] {
            GroupTransfer::PerWire { wires, per_term } => {
                for (slot, ti) in wire_terms(t, *wires, per_term.len()).enumerate() {
                    for frontier in frontiers.chunks_exact_mut(dim).step_by(step) {
                        apply_axis_4(frontier, axes[slot], &per_term[ti]);
                    }
                }
                *wires
            }
            GroupTransfer::Joint { diags, .. } => {
                for frontier in frontiers.chunks_exact_mut(dim).step_by(step) {
                    apply_joint_diag(frontier, axes, &diags[t]);
                }
                1
            }
        }
    }

    /// One term's value from `frontier`, the frontier before the last
    /// group's apply, at that group's term `t`: the fused dot, or the
    /// last apply and the trailing absorbs run in `work`. Adds its
    /// frontier multiplications to `ops`.
    fn tail_value(
        &self,
        frontier: &[f64],
        t: usize,
        work: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        ops: &mut usize,
    ) -> f64 {
        let sched = &self.schedule;
        if let Some(fused) = &sched.fused_tail {
            *ops += 1;
            return fused_dot(&fused[t], frontier);
        }
        let apply = sched.group_op[sched.group_op.len() - 1];
        let SweepOp::Apply { group, axes } = &sched.ops[apply] else {
            unreachable!("group_op indexes an Apply op");
        };
        work.clear();
        work.extend_from_slice(frontier);
        *ops += self.apply_term(*group, t, axes, work, frontier.len(), 1);
        for op in &sched.ops[apply + 1..] {
            let SweepOp::Absorb {
                fragment,
                in_pos,
                rest_pos,
            } = op
            else {
                unreachable!("the last apply is the schedule's final Apply op");
            };
            absorb_sparse(&self.blocks[*fragment], in_pos, rest_pos, work, scratch);
            *ops += 1;
        }
        debug_assert_eq!(work.len(), 1);
        work[0]
    }
}

/// A prefix-cached evaluator over one plan's product terms.
///
/// [`qpd::QpdSpec::product`] enumerates terms row-major with the last
/// group's digit varying fastest, so consecutive picks share a long
/// odometer prefix. The sweep keeps one frontier snapshot per group —
/// the state just before that group's apply step, a pure function of
/// the digits *before* it — and evaluates each term by resuming at its
/// first digit that differs from the previous pick. The
/// pick-independent tail after the last apply is pre-folded into a
/// per-term dot table, so the common case (only the fastest
/// digit moved) is a single dot product against the last snapshot.
///
/// Every frontier lives in a buffer the sweep owns and reuses: once
/// the buffers have grown to the plan's frontier sizes, evaluating a
/// term allocates nothing. [`FragmentBlocks::walk`] replays with the
/// same step down to its split level and expands the rest level by
/// level.
pub struct FrontierSweep<'a> {
    blocks: &'a FragmentBlocks,
    last_pick: Vec<usize>,
    has_pick: bool,
    /// `snapshots[g]`: frontier values before group `g`'s apply, valid
    /// for the current `last_pick` prefix of length `g`.
    snapshots: Vec<Vec<f64>>,
    /// The frontier being replayed (or run through an unfused tail).
    work: Vec<f64>,
    /// Where each absorb builds the next frontier before swapping it
    /// into `work`.
    scratch: Vec<f64>,
    stats: SweepStats,
}

impl FrontierSweep<'_> {
    /// Exact expectation of one product term, reusing every partial
    /// frontier shared with the previous pick. Bit-for-bit
    /// deterministic: the value depends only on `pick`, never on the
    /// call sequence (resumed and from-scratch evaluations run the
    /// identical op sequence on identical snapshots).
    pub fn term_value(&mut self, pick: &[usize]) -> f64 {
        let num_groups = self.snapshots.len();
        assert_eq!(pick.len(), num_groups);
        let last = num_groups - 1;
        // Resume at the first differing digit; snapshots[r] depends
        // only on pick[0..r], so a common prefix of length ≥ r keeps it
        // valid. Identical picks re-run just the fastest digit.
        let resume = if self.has_pick {
            let mut c = 0;
            while c < num_groups && pick[c] == self.last_pick[c] {
                c += 1;
            }
            c.min(last)
        } else {
            self.start(pick);
            0
        };
        // When only the fastest digit moved, `snapshots[last]` is still
        // valid and nothing before the last apply needs replaying.
        for g in resume..last {
            self.descend(g, pick);
        }
        self.last_pick.copy_from_slice(pick);
        self.has_pick = true;
        let blocks = self.blocks;
        let sched = &blocks.schedule;
        self.stats
            .count_leaves(1, resume, num_groups, sched.ops_per_term);
        blocks.tail_value(
            &self.snapshots[last],
            pick[last],
            &mut self.work,
            &mut self.scratch,
            &mut self.stats.frontier_ops,
        )
    }

    /// The sweep's hit/op counters so far.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// Sets `snapshots[0]` to the frontier before the first group's
    /// apply: the pick-independent absorbs before it, run on `[1.0]`.
    fn start(&mut self, pick: &[usize]) {
        self.work.clear();
        self.work.push(1.0);
        self.run(0..self.blocks.schedule.group_op[0], pick);
        std::mem::swap(&mut self.snapshots[0], &mut self.work);
    }

    /// The replay step: rebuilds `snapshots[g + 1]` from `snapshots[g]`
    /// by running group `g`'s apply with digit `pick[g]` and every op up
    /// to the next group's apply. The old snapshot's buffer becomes the
    /// next working frontier.
    fn descend(&mut self, g: usize, pick: &[usize]) {
        let group_op = &self.blocks.schedule.group_op;
        self.work.clone_from(&self.snapshots[g]);
        self.run(group_op[g]..group_op[g + 1], pick);
        std::mem::swap(&mut self.snapshots[g + 1], &mut self.work);
    }

    /// Runs schedule ops `range` on the working frontier.
    fn run(&mut self, range: std::ops::Range<usize>, pick: &[usize]) {
        let blocks = self.blocks;
        for op in &blocks.schedule.ops[range] {
            self.stats.frontier_ops += blocks.exec_op(op, pick, &mut self.work, &mut self.scratch);
        }
    }

    /// Every term below `snapshots[level]`, a frontier resumed at digit
    /// `resume`, to `emit` in odometer order, one whole level at a time
    /// in the two buffers `levels`: the current level's frontiers,
    /// stacked in odometer order, and the next level's. Each parent of a
    /// level is copied once per digit, in odometer order, into the next
    /// level; the apply runs once per digit over the children holding
    /// it, and each absorb up to the next apply once over all of them,
    /// into the spent parents' buffer. The last level's frontiers then
    /// finish their terms as leaves. A digit-0 child resumes where its
    /// parent did and any other child at its parent's level, so the
    /// leaves count the resumes the odometer sweep counts.
    fn expand(
        &mut self,
        level: usize,
        resume: usize,
        lens: &[usize],
        levels: &mut [Vec<f64>; 2],
        emit: &mut impl FnMut(f64),
    ) {
        let blocks = self.blocks;
        let sched = &blocks.schedule;
        let last = lens.len() - 1;
        let [current, next] = levels;
        // Frontiers on the current level, and the sum of their resumes.
        let (mut count, mut hits) = (1usize, resume);
        for (g, &n) in lens.iter().enumerate().take(last).skip(level) {
            let parents = if g == level {
                &self.snapshots[level]
            } else {
                &*current
            };
            let dim = parents.len() / count;
            next.clear();
            for parent in parents.chunks_exact(dim) {
                for _ in 0..n {
                    next.extend_from_slice(parent);
                }
            }
            let apply = sched.group_op[g];
            let SweepOp::Apply { axes, .. } = &sched.ops[apply] else {
                unreachable!("group_op indexes an Apply op");
            };
            for t in 0..n {
                let children = &mut next[t * dim..];
                self.stats.frontier_ops += count * blocks.apply_term(g, t, axes, children, dim, n);
            }
            hits += count * (n - 1) * g;
            count *= n;
            for op in &sched.ops[apply + 1..sched.group_op[g + 1]] {
                let SweepOp::Absorb {
                    fragment,
                    in_pos,
                    rest_pos,
                } = op
                else {
                    unreachable!("only absorbs run between consecutive applies");
                };
                absorb_sparse(&blocks.blocks[*fragment], in_pos, rest_pos, next, current);
                self.stats.frontier_ops += count;
            }
            std::mem::swap(current, next);
        }
        let n = lens[last];
        self.stats.count_leaves(
            count * n,
            hits + count * (n - 1) * last,
            lens.len(),
            sched.ops_per_term,
        );
        let bottom = if level == last {
            &self.snapshots[last]
        } else {
            &*current
        };
        let frontiers = bottom.chunks_exact(bottom.len() / count);
        if let Some(fused) = &sched.fused_tail {
            self.stats.frontier_ops += count * n;
            for frontier in frontiers {
                for row in fused {
                    emit(fused_dot(row, frontier));
                }
            }
            return;
        }
        for frontier in frontiers {
            for t in 0..n {
                emit(blocks.tail_value(
                    frontier,
                    t,
                    &mut self.work,
                    &mut self.scratch,
                    &mut self.stats.frontier_ops,
                ));
            }
        }
    }
}

/// One term's value from a fused-tail row and the frontier before the
/// last apply.
fn fused_dot(row: &[f64], frontier: &[f64]) -> f64 {
    row.iter().zip(frontier).map(|(w, v)| w * v).sum()
}

/// Cap on the fused-tail fold: skip fusing when the frontier before the
/// last apply or the per-term fold table would outgrow the work saved.
const MAX_FUSED_DIM: usize = 1 << 16;
const MAX_FUSED_TABLE: usize = 1 << 22;

/// Frontier entries one level of [`FragmentBlocks::walk`]'s
/// level-by-level expansion may hold: 32 KiB per level buffer, so the
/// two level buffers stay about the size of a core's L1d cache. An
/// 8-cut ladder's walk splits at level 1, three subtrees of 3⁶ bottom
/// frontiers (4 entries each); a deeper odometer walks depth first down
/// to the first level whose subtree fits. On a 48 KiB-L1d Xeon the
/// budgets 2¹¹ to 2¹⁴ walked the 8-cut ladder within 5 % of each
/// other, and 2¹² was the fastest at 10 and 12 cuts.
const LEVEL_BUDGET: usize = 1 << 12;

/// Precompiles the contraction walk: simulates the frontier's axis
/// bookkeeping once (it is pick-independent) and records one op per
/// fragment absorb and per group apply, in program order. Structural
/// frontier corruption — a cut slot or classical edge consumed before
/// its source produced it, or never consumed at all — panics here,
/// naming the fragment and the group, slot and wire involved, or the
/// classical bit.
fn build_schedule(
    blocks: &[FragmentBlock],
    transfers: &[GroupTransfer],
    groups_at_source: &[Vec<usize>],
    group_wires: &[Vec<usize>],
    edges: &[ClassicalEdge],
) -> Schedule {
    let mut keys: Vec<(usize, usize)> = Vec::new();
    let mut ops = Vec::new();
    let mut group_op = vec![usize::MAX; transfers.len()];
    let mut ops_per_term = 0usize;
    let mut tail_dim = 1usize;
    // Frontier entries after each op.
    let mut dims = Vec::new();
    for (fi, block) in blocks.iter().enumerate() {
        let in_pos: Vec<usize> = block
            .in_slots
            .iter()
            .map(|&(gi, si)| {
                keys.iter().position(|&k| k == (gi, si)).unwrap_or_else(|| {
                    let axis = match group_wires.get(gi) {
                        Some(wires) => format!("slot {si} of group {gi} (wire {})", wires[si]),
                        None => format!("classical bit {}", edges[gi - group_wires.len()].clbit),
                    };
                    panic!(
                        "contraction frontier corrupt: fragment {fi} consumes {axis}, \
                         which is not on the frontier {keys:?}"
                    )
                })
            })
            .collect();
        let rest_pos: Vec<usize> = (0..keys.len()).filter(|p| !in_pos.contains(p)).collect();
        keys = rest_pos.iter().map(|&p| keys[p]).collect();
        keys.extend(block.out_slots.iter().copied());
        ops.push(SweepOp::Absorb {
            fragment: fi,
            in_pos,
            rest_pos,
        });
        dims.push(1usize << (2 * keys.len()));
        ops_per_term += 1;
        for &gi in &groups_at_source[fi] {
            let axes: Vec<usize> = (0..group_wires[gi].len())
                .map(|si| {
                    keys.iter().position(|&k| k == (gi, si)).unwrap_or_else(|| {
                        panic!(
                            "contraction frontier corrupt: slot {si} of group {gi} (wire {}) \
                             missing from the frontier {keys:?} after absorbing fragment {fi}",
                            group_wires[gi][si]
                        )
                    })
                })
                .collect();
            group_op[gi] = ops.len();
            tail_dim = 1usize << (2 * keys.len());
            ops.push(SweepOp::Apply { group: gi, axes });
            dims.push(tail_dim);
            ops_per_term += match &transfers[gi] {
                GroupTransfer::PerWire { wires, .. } => *wires,
                GroupTransfer::Joint { .. } => 1,
            };
        }
    }
    assert!(
        keys.is_empty(),
        "unconsumed frontier axes after contraction: {keys:?}"
    );
    debug_assert!(group_op.windows(2).all(|w| w[0] < w[1]));
    let step_dims = group_op
        .windows(2)
        .map(|w| dims[w[0]..w[1]].iter().copied().max().unwrap_or(0))
        .collect();
    let fused_tail = build_fused_tail(blocks, transfers, &ops, &group_op, tail_dim);
    Schedule {
        ops,
        group_op,
        step_dims,
        ops_per_term,
        fused_tail,
    }
}

/// Folds the pick-independent tail after the last group's apply — all
/// remaining fragment absorbs, a linear functional `L` on the frontier —
/// through each last-group term's transposed transfer:
/// `⟨L, M_t·v⟩ = ⟨M_tᵀ·L, v⟩`, so each table row dotted with the
/// frontier before the last apply yields the term value in one
/// multiplication.
fn build_fused_tail(
    blocks: &[FragmentBlock],
    transfers: &[GroupTransfer],
    ops: &[SweepOp],
    group_op: &[usize],
    dim: usize,
) -> Option<Vec<Vec<f64>>> {
    let last = transfers.len().checked_sub(1)?;
    let nt = transfers[last].num_terms();
    if dim > MAX_FUSED_DIM || nt.saturating_mul(dim) > MAX_FUSED_TABLE {
        return None;
    }
    let apply_i = group_op[last];
    let SweepOp::Apply { axes, .. } = &ops[apply_i] else {
        unreachable!("group_op indexes an Apply op");
    };
    // The tail functional: run the trailing absorbs on each basis
    // vector of the frontier before the last apply.
    let mut tail = vec![0.0f64; dim];
    let (mut vals, mut scratch) = (Vec::new(), Vec::new());
    for (e, out) in tail.iter_mut().enumerate() {
        vals.clear();
        vals.resize(dim, 0.0);
        vals[e] = 1.0;
        for op in &ops[apply_i + 1..] {
            let SweepOp::Absorb {
                fragment,
                in_pos,
                rest_pos,
            } = op
            else {
                unreachable!("the last apply is the schedule's final Apply op");
            };
            absorb_sparse(
                &blocks[*fragment],
                in_pos,
                rest_pos,
                &mut vals,
                &mut scratch,
            );
        }
        debug_assert_eq!(vals.len(), 1);
        *out = vals[0];
    }
    let mut table = Vec::with_capacity(nt);
    for t in 0..nt {
        let mut w = tail.clone();
        match &transfers[last] {
            GroupTransfer::PerWire { wires, per_term } => {
                for (slot, ti) in wire_terms(t, *wires, per_term.len()).enumerate() {
                    let m = &per_term[ti];
                    let mut mt = [[0.0f64; 4]; 4];
                    for (a, row) in m.iter().enumerate() {
                        for (b, &x) in row.iter().enumerate() {
                            mt[b][a] = x;
                        }
                    }
                    apply_axis_4(&mut w, axes[slot], &mt);
                }
            }
            GroupTransfer::Joint { diags, .. } => {
                // Diagonal transfers are their own transpose.
                apply_joint_diag(&mut w, axes, &diags[t]);
            }
        }
        table.push(w);
    }
    Some(table)
}

/// Contracts one fragment's CSR block into every frontier stacked in
/// `vals`: sums out the fragment's incoming axes against the frontier
/// and appends its outgoing axes. Frontier index: axis `k` is base-4
/// digit `k`. Each new frontier entry sums its contributions in
/// input-entry, then block-row order, however many frontiers are
/// stacked. The new frontiers are built in `scratch`, in the same
/// order, and swapped into `vals`, leaving the old buffer in `scratch`
/// for the next absorb to reuse.
fn absorb_sparse(
    block: &FragmentBlock,
    in_pos: &[usize],
    rest_pos: &[usize],
    vals: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) {
    let n_out = block.out_slots.len();
    let n_rest = rest_pos.len();
    let dim_in = 1usize << (2 * (n_rest + in_pos.len()));
    let dim_out = 1usize << (2 * (n_rest + n_out));
    debug_assert_eq!(vals.len() % dim_in, 0);
    let next = scratch;
    next.clear();
    next.resize(vals.len() / dim_in * dim_out, 0.0);
    for (frontier, out) in vals
        .chunks_exact(dim_in)
        .zip(next.chunks_exact_mut(dim_out))
    {
        for (o, &v) in frontier.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            let mut a = 0usize;
            for (slot, &p) in in_pos.iter().enumerate() {
                a |= ((o >> (2 * p)) & 3) << (2 * slot);
            }
            let mut rest = 0usize;
            for (r, &p) in rest_pos.iter().enumerate() {
                rest |= ((o >> (2 * p)) & 3) << (2 * r);
            }
            for k in block.row_ptr[a]..block.row_ptr[a + 1] {
                out[rest | ((block.cols[k] as usize) << (2 * n_rest))] += block.vals[k] * v;
            }
        }
    }
    std::mem::swap(vals, next);
}

/// In-place single-axis PTM application: `val'[.., a, ..] =
/// Σ_b m[a][b]·val[.., b, ..]` on base-4 axis `axis`. A stack of
/// frontiers, each a whole number of `4^(axis + 1)`-entry blocks, takes
/// it frontier by frontier.
fn apply_axis_4(vals: &mut [f64], axis: usize, m: &[[f64; 4]; 4]) {
    let stride = 1usize << (2 * axis);
    let mut base = 0;
    while base < vals.len() {
        for low in base..base + stride {
            let x = [
                vals[low],
                vals[low + stride],
                vals[low + 2 * stride],
                vals[low + 3 * stride],
            ];
            for (a, row) in m.iter().enumerate() {
                vals[low + a * stride] =
                    row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3];
            }
        }
        base += 4 * stride;
    }
}

/// In-place diagonal multi-axis transfer application: every frontier
/// entry is scaled by the diagonal eigenvalue of the Pauli its group
/// digits spell (`axes[k]` is base-4 digit `k` of the diagonal index).
fn apply_joint_diag(vals: &mut [f64], axes: &[usize], diag: &[f64]) {
    for (o, v) in vals.iter_mut().enumerate() {
        let mut bidx = 0usize;
        for (k, &p) in axes.iter().enumerate() {
            bidx |= ((o >> (2 * p)) & 3) << (2 * k);
        }
        *v *= diag[bidx];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::{apply_basis_term, apply_flip_term, JointWireCut};
    use crate::planner::{CompiledPlan, CutPlanner};

    fn ladder(n: usize) -> Circuit {
        let mut c = Circuit::new(n, 0);
        c.ry(0.4, 0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    /// Dense PTM of an `n`-wire channel given its sparse applier — the
    /// tomography reference the sparse diagonals are pinned against.
    fn ptm_dense(apply: impl Fn(&Matrix) -> Matrix, paulis: &[Matrix], d: usize) -> Vec<f64> {
        let dim4 = paulis.len();
        let mut r = vec![0.0; dim4 * dim4];
        for (b, pb) in paulis.iter().enumerate() {
            let image = apply(pb);
            for (a, pa) in paulis.iter().enumerate() {
                r[a * dim4 + b] = pa.matmul(&image).trace().re / d as f64;
            }
        }
        r
    }

    #[test]
    fn nme_teleport_ptm_is_identity_at_full_overlap() {
        // f = 1 ⇒ the NME family's signed PTM sum must be exactly 1 on
        // each term-family member weighted by coefficients... simplest
        // invariant: Σ cᵢ·Rᵢ = I for the single-wire cut.
        let cut = NmeCut::new(1.0);
        let terms = cut.terms();
        let mut sum = [[0.0f64; 4]; 4];
        for t in &terms {
            let r = ptm_1q(&term_channel(t));
            for a in 0..4 {
                for b in 0..4 {
                    sum[a][b] += t.coefficient * r[a][b];
                }
            }
        }
        for (a, row) in sum.iter().enumerate() {
            for (b, &entry) in row.iter().enumerate() {
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((entry - expect).abs() < 1e-9, "Σ cᵢ·R[{a}][{b}] = {entry}");
            }
        }
    }

    #[test]
    fn sparse_joint_diagonals_match_dense_tomography() {
        // The class-structure construction must agree entry-for-entry
        // with full dense PTM tomography of the actual term channels —
        // including that every off-diagonal entry is exactly zero.
        for n in 1..=2usize {
            let jw = JointWireCut::new(n);
            let d = 1usize << n;
            let dim4 = 1usize << (2 * n);
            let paulis: Vec<Matrix> = (0..dim4)
                .map(|code| qsim::pauli::pauli_string_from_code(code, n).matrix())
                .collect();
            let diags = joint_transfer_diagonals(n);
            assert_eq!(diags.len(), d + 1);
            let mut dense: Vec<Vec<f64>> = jw
                .bases()
                .iter()
                .skip(1)
                .map(|u| ptm_dense(|p| apply_basis_term(u, p), &paulis, d))
                .collect();
            dense.push(ptm_dense(apply_flip_term, &paulis, d));
            for (t, (diag, full)) in diags.iter().zip(dense.iter()).enumerate() {
                for a in 0..dim4 {
                    for b in 0..dim4 {
                        let expect = if a == b { diag[a] } else { 0.0 };
                        assert!(
                            (full[a * dim4 + b] - expect).abs() < 1e-9,
                            "n={n} term {t}: R[{a}][{b}] = {} vs sparse {expect}",
                            full[a * dim4 + b]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn joint_transfer_sums_to_identity() {
        for n in 1..=3usize {
            let group = CutGroup {
                cuts: (0..n)
                    .map(|w| crate::planner::PlannedCut {
                        wire: w,
                        source_fragment: 0,
                        dest_fragment: 1,
                    })
                    .collect(),
                protocol: Protocol::JointMub,
                kappa: JointWireCut::new(n).kappa(),
            };
            let spec = group.spec();
            let transfers = group_transfers(std::slice::from_ref(&group));
            let GroupTransfer::Joint { diags } = &transfers[0] else {
                panic!("joint group must build a diagonal transfer");
            };
            let dim4 = 1usize << (2 * n);
            for a in 0..dim4 {
                let sum: f64 = diags
                    .iter()
                    .zip(spec.terms().iter())
                    .map(|(diag, t)| t.coefficient * diag[a])
                    .sum();
                assert!((sum - 1.0).abs() < 1e-9, "n={n}: Σ cᵢ·diag[{a}] = {sum}");
            }
        }
    }

    #[test]
    fn groups_of_one_family_share_one_transfer_table() {
        // Two NME groups at one k and two joint groups of one width
        // share a table each; a second k and a second width get their
        // own, with the values a lone build of that family produces.
        let group = |wires: usize, protocol| CutGroup {
            cuts: (0..wires)
                .map(|w| crate::planner::PlannedCut {
                    wire: w,
                    source_fragment: 0,
                    dest_fragment: 1,
                })
                .collect(),
            protocol,
            kappa: 1.0,
        };
        let (k1, k2) = (Protocol::Nme { k: 0.5 }, Protocol::Nme { k: 0.25 });
        let groups = [
            group(1, k1),
            group(2, Protocol::JointMub),
            group(2, k1),
            group(1, k2),
            group(2, Protocol::JointMub),
            group(3, Protocol::JointMub),
        ];
        let transfers = group_transfers(&groups);
        let per_wire = |i: usize| match &transfers[i] {
            GroupTransfer::PerWire { per_term, .. } => per_term.clone(),
            GroupTransfer::Joint { .. } => panic!("group {i} is NME"),
        };
        let diags = |i: usize| match &transfers[i] {
            GroupTransfer::Joint { diags } => diags.clone(),
            GroupTransfer::PerWire { .. } => panic!("group {i} is joint"),
        };
        assert!(Arc::ptr_eq(&per_wire(0), &per_wire(2)));
        assert!(!Arc::ptr_eq(&per_wire(0), &per_wire(3)));
        assert!(Arc::ptr_eq(&diags(1), &diags(4)));
        assert!(!Arc::ptr_eq(&diags(1), &diags(5)));
        assert_eq!(transfers[2].num_terms(), 9);
        let bits = |t: &[[[f64; 4]; 4]]| -> Vec<u64> {
            t.iter().flatten().flatten().map(|x| x.to_bits()).collect()
        };
        for (i, g) in groups.iter().enumerate() {
            let alone = group_transfers(std::slice::from_ref(g));
            match (&transfers[i], &alone[0]) {
                (
                    GroupTransfer::PerWire { per_term, .. },
                    GroupTransfer::PerWire {
                        per_term: fresh, ..
                    },
                ) => assert_eq!(bits(per_term), bits(fresh), "group {i}"),
                (GroupTransfer::Joint { diags }, GroupTransfer::Joint { diags: fresh }) => {
                    assert_eq!(diags, fresh, "group {i}")
                }
                _ => panic!("group {i} changed kind"),
            }
        }
    }

    #[test]
    fn nme_transfer_tables_are_shared_across_builds() {
        // Two builds at one k share one process-wide table; a second k
        // gets its own.
        let nme = |k: f64| CutGroup {
            cuts: vec![crate::planner::PlannedCut {
                wire: 0,
                source_fragment: 0,
                dest_fragment: 1,
            }],
            protocol: Protocol::Nme { k },
            kappa: 1.0,
        };
        let table = |k: f64| match group_transfers(&[nme(k)]).swap_remove(0) {
            GroupTransfer::PerWire { per_term, .. } => per_term,
            GroupTransfer::Joint { .. } => panic!("an NME group builds per-wire tables"),
        };
        let (k, other) = (0.3125, 0.6875);
        let first = table(k);
        assert!(Arc::ptr_eq(&first, &table(k)));
        assert!(!Arc::ptr_eq(&first, &table(other)));
    }

    #[test]
    fn contracted_terms_match_uncut_on_a_ladder() {
        let c = ladder(4);
        let obs = PauliString::from_label("ZZZZ");
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        assert_eq!(contraction_ineligibility(&plan), None);
        let blocks = FragmentBlocks::build(&plan, &obs);
        let lens = blocks.group_lens();
        let total: usize = lens.iter().product();
        // Σ cᵢ·termᵢ over the full odometer must equal the uncut value.
        let spec = qpd::QpdSpec::product(&plan.groups.iter().map(|g| g.spec()).collect::<Vec<_>>());
        assert_eq!(spec.len(), total);
        let mut value = 0.0;
        for combo in 0..total {
            let mut rem = combo;
            let mut pick = vec![0usize; lens.len()];
            for g in (0..lens.len()).rev() {
                pick[g] = rem % lens[g];
                rem /= lens[g];
            }
            value += spec.terms()[combo].coefficient * blocks.term_value(&pick);
        }
        let uncut = crate::planner::uncut_plan_expectation(&c, &obs);
        assert!(
            (value - uncut).abs() < 1e-8,
            "contracted {value} vs uncut {uncut}"
        );
    }

    #[test]
    fn measurement_fragments_are_eligible_when_clbits_stay_local() {
        // Measurement at the end of the last fragment: the clbit never
        // crosses a fragment boundary, so the plan contracts (ISSUE 10's
        // behaviour change — this used to force the monolithic path).
        let mut c = Circuit::new(3, 1);
        c.ry(0.4, 0).cx(0, 1).cx(1, 2).measure(2, 0);
        let plan = CutPlanner::new(2).plan(&c);
        assert!(!plan.groups.is_empty());
        assert_eq!(contraction_ineligibility(&plan), None);
    }

    #[test]
    fn cross_fragment_feedforward_contracts_over_a_classical_axis() {
        // Measure in one fragment, condition in a later one: the shared
        // bit becomes a classical frontier axis, and the contraction
        // reproduces the uncut feed-forward value.
        let mut c = Circuit::new(3, 1);
        c.ry(0.4, 0).cx(0, 1).measure(1, 0).cx(1, 2).x_if(2, 0);
        let plan = CutPlanner::new(2).plan(&c);
        assert!(!plan.groups.is_empty());
        assert!(!classical_edges(&plan).is_empty(), "bit 0 must cross");
        assert_eq!(contraction_ineligibility(&plan), None);
        let obs = PauliString::from_label("ZZZ");
        let uncut = crate::planner::uncut_plan_expectation(&c, &obs);
        let value = CompiledPlan::compile(&plan, &obs).exact_value();
        assert!((value - uncut).abs() < 1e-10, "{value} vs uncut {uncut}");
    }

    #[test]
    fn uncut_plans_contract_as_one_term() {
        let c = ladder(3);
        let plan = CutPlanner::new(3).plan(&c);
        assert!(plan.groups.is_empty());
        assert_eq!(contraction_ineligibility(&plan), None);
        let obs = PauliString::from_label("ZZZ");
        let blocks = FragmentBlocks::build(&plan, &obs);
        assert!(blocks.schedule.fused_tail.is_none());
        let uncut = crate::planner::uncut_plan_expectation(&c, &obs);
        let value = CompiledPlan::compile(&plan, &obs).exact_value();
        assert!((value - uncut).abs() < 1e-10, "{value} vs uncut {uncut}");
    }

    #[test]
    fn sweep_matches_uncached_evaluation_on_a_ladder() {
        let c = ladder(5);
        let obs = PauliString::from_label("ZZZZZ");
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        let blocks = FragmentBlocks::build(&plan, &obs);
        let lens = blocks.group_lens();
        let total: usize = lens.iter().product();
        let mut sweep = blocks.sweep();
        for combo in 0..total {
            let mut rem = combo;
            let mut pick = vec![0usize; lens.len()];
            for g in (0..lens.len()).rev() {
                pick[g] = rem % lens[g];
                rem /= lens[g];
            }
            let cached = sweep.term_value(&pick);
            let fresh = blocks.term_value(&pick);
            assert!(
                (cached - fresh).abs() < 1e-12,
                "combo {combo}: cached {cached} vs fresh {fresh}"
            );
        }
        let s = sweep.stats();
        assert_eq!(s.terms, total);
        assert!(s.prefix_hits > 0, "odometer sweep never hit the cache");
        assert!(
            s.frontier_ops < s.frontier_ops_uncached,
            "cache did not save work: {} vs {}",
            s.frontier_ops,
            s.frontier_ops_uncached
        );
    }

    /// A 5-qubit chain that re-enters wires 0 and 1: at width budget 3
    /// its 2-wire group skips a fragment, so the frontier widens and
    /// narrows between absorbs.
    fn reentrant() -> Circuit {
        let mut c = Circuit::new(5, 0);
        c.ry(0.4, 0)
            .cx(0, 1)
            .cx(1, 2)
            .cx(2, 3)
            .cx(3, 4)
            .cx(4, 0)
            .cx(0, 1);
        c
    }

    #[test]
    fn unfused_tail_sweep_is_the_from_scratch_reference_bit_for_bit() {
        // With the tail unfused, every term replays the very ops
        // `term_value` runs from scratch, on bit-identical snapshots,
        // through the sweep's reused buffers — so the two agree bit for
        // bit in any evaluation order. Covers a single-wire NME chain
        // and a re-entrant chain whose 2-wire joint-MUB group skips a
        // fragment (the frontier widens and narrows between absorbs).
        for (c, budget, overlap, joint) in
            [(ladder(5), 2, 0.8, false), (reentrant(), 3, 0.52, true)]
        {
            let obs = PauliString::from_label(&"Z".repeat(5));
            let plan = CutPlanner::new(budget).with_overlap(overlap).plan(&c);
            assert_eq!(
                plan.groups.iter().any(|g| g.protocol == Protocol::JointMub),
                joint
            );
            let mut blocks = FragmentBlocks::build(&plan, &obs);
            assert!(blocks.schedule.fused_tail.is_some());
            blocks.schedule.fused_tail = None;
            let lens = blocks.group_lens();
            assert!(
                lens.len() > 1,
                "budget {budget}: needs a multi-group odometer"
            );
            let total: usize = lens.iter().product();
            let pick_of = |combo: usize| {
                let mut rem = combo;
                let mut pick = vec![0usize; lens.len()];
                for g in (0..lens.len()).rev() {
                    pick[g] = rem % lens[g];
                    rem /= lens[g];
                }
                pick
            };
            // The walk runs the same unfused tails, in odometer order.
            let mut walked = Vec::with_capacity(total);
            blocks.walk(|v| walked.push(v.to_bits()));
            assert!((0..total)
                .map(|c| blocks.term_value(&pick_of(c)).to_bits())
                .eq(walked));
            for order in [(0..total).collect::<Vec<_>>(), (0..total).rev().collect()] {
                let mut sweep = blocks.sweep();
                for combo in order {
                    let pick = pick_of(combo);
                    assert_eq!(
                        sweep.term_value(&pick).to_bits(),
                        blocks.term_value(&pick).to_bits(),
                        "budget {budget}, pick {pick:?}"
                    );
                }
                assert!(sweep.stats().prefix_hits > 0);
            }
        }
    }

    #[test]
    fn every_level_budget_walks_the_odometer_sweep_bit_for_bit() {
        // The oracle is the odometer sweep, which runs every op on one
        // frontier at a time; the walk's expansion runs each op once over
        // a whole level of stacked frontiers. The split level moves with
        // the budget: 0 walks depth first to the last level, `usize::MAX`
        // expands the whole odometer level by level, and each level's
        // own subtree peak splits there or above. Every split, fused or
        // unfused, must emit the oracle's values in its order and count
        // its counters. The plans cover single-wire NME groups, a 2-wire
        // joint-MUB and a 2-wire per-wire NME group that skip a fragment,
        // and a classical bit crossing fragments. In the rotated ladder
        // each fragment turns its incoming wire after the CX, so block
        // entries sum three or four contributions and any change in
        // their order shows in the last bits.
        let mut rotated = Circuit::new(7, 0);
        rotated.ry(0.4, 0);
        for q in 0..6 {
            rotated
                .cx(q, q + 1)
                .ry(0.3 + 0.1 * q as f64, q)
                .rx(0.5, q)
                .ry(0.2, q + 1);
        }
        let mut feedforward = Circuit::new(4, 1);
        feedforward
            .ry(0.4, 0)
            .cx(0, 1)
            .measure(1, 0)
            .cx(1, 2)
            .x_if(2, 0)
            .cx(2, 3);
        let plans = [
            (rotated, 2, 0.8),
            (ladder(7), 2, 0.8),
            (reentrant(), 3, 0.52),
            (reentrant(), 3, 0.9),
            (feedforward, 2, 0.8),
        ];
        for (c, width, overlap) in plans {
            let n = c.num_qubits();
            let plan = CutPlanner::new(width).with_overlap(overlap).plan(&c);
            let observable = PauliString::from_label(&"Z".repeat(n));
            let mut blocks = FragmentBlocks::build(&plan, &observable);
            let lens = blocks.group_lens();
            let last = lens.len() - 1;
            assert!(last > 0, "{n} qubits: needs a multi-group odometer");
            for fused in [true, false] {
                if !fused {
                    blocks.schedule.fused_tail = None;
                }
                let picks = {
                    let mut pick = vec![0usize; lens.len()];
                    let mut picks = Vec::new();
                    for _ in 0..lens.iter().product::<usize>() {
                        picks.push(pick.clone());
                        for g in (0..lens.len()).rev() {
                            pick[g] += 1;
                            if pick[g] < lens[g] {
                                break;
                            }
                            pick[g] = 0;
                        }
                    }
                    picks
                };
                let mut sweep = blocks.sweep();
                let swept: Vec<u64> = picks
                    .iter()
                    .map(|p| sweep.term_value(p).to_bits())
                    .collect();
                let stats = sweep.stats();
                let what = format!("{n} qubits, fused {fused}");
                let mut budgets: Vec<usize> = (0..=last)
                    .map(|h| blocks.schedule.subtree_peak(&lens, h))
                    .collect();
                budgets.extend([1, usize::MAX]);
                let mut splits = Vec::new();
                for budget in budgets {
                    splits.push(blocks.schedule.split(&lens, budget).0);
                    let mut walked = Vec::with_capacity(swept.len());
                    let walk_stats = blocks.walk_within(budget, |v| walked.push(v.to_bits()));
                    assert_eq!(
                        walked, swept,
                        "{what}, budget {budget}: the walk's values differ"
                    );
                    assert_eq!(
                        walk_stats, stats,
                        "{what}, budget {budget}: the walk's counters differ"
                    );
                }
                assert!(splits.contains(&0) && splits.contains(&last), "{splits:?}");
            }
        }
    }
}
