//! The arbitrary-circuit **cut planner**: from a [`Circuit`] DAG and a
//! fragment-width budget to a single compiled QPD execution plan.
//!
//! Every experiment in this repo hand-places its cuts on purpose-built
//! circuits. This module closes that gap (ROADMAP's first open item):
//!
//! 1. **Fragmentation** — [`qsim::fragments_by_width`] packs the circuit
//!    into program-order fragments whose active wire sets fit the budget,
//!    so each fragment runs on a `budget`-qubit device.
//! 2. **Cut-set derivation** — every wire that is used in two fragments
//!    must cross the boundary between them through a QPD wire cut; a wire
//!    spanning three or more fragments receives **repeated cuts**, and
//!    several wires crossing the same boundary are **subsequent-wire**
//!    cuts (the QCut scenario catalogue, SNIPPETS.md Snippet 3).
//! 3. **Protocol choice** — cuts sharing a (source, destination) fragment
//!    pair form a [`CutGroup`] that can be measured jointly on the sender
//!    device. Per group of `n` wires the planner consults the κ crossover
//!    map `f*(n) = 2/((2^{n+1}−1)^{1/n} + 1)` (the closed form behind
//!    `experiments::joint_scaling`): independent `|Φ_k⟩` NME cuts
//!    (Theorem 2, `κ = γ(f)ⁿ`) win exactly when the available resource
//!    overlap satisfies `f ≥ f*(n)`; otherwise the entanglement-free
//!    joint MUB cut (`κ = 2^{n+1} − 1`, [`crate::joint`]) wins.
//! 4. **Compilation** — [`CompiledPlan::compile`] computes each product
//!    term's exact value by contraction ([`crate::contract`]): each
//!    *fragment* compiles once per local boundary-role variant and every
//!    product term is a tensor contraction — cost `Σ variants(fragment)`
//!    instead of `Π terms(group)`, so plans with 6+ cuts compile where
//!    stitching blows up. Classical bits crossing fragments ride the
//!    frontier as free classical axes, and an uncut plan is one term.
//!    [`CompiledPlan::compile_monolithic`] stitches one circuit per
//!    combination of per-group QPD terms (carrier-qubit threading
//!    through [`Circuit::compose_mapped`]) and reads its value off the
//!    [`CompiledSampler`] branch tree; no production code calls it —
//!    it is the differential-testing oracle, the way `compile_dense` is
//!    the hybrid sampler's. Each term becomes a [`BernoulliTerm`] on the
//!    batched [`TermSampler`] estimate path: the one law its exact value
//!    fixes. The plan-level coefficient structure is the product QPD
//!    [`QpdSpec::product`], so `κ(plan) = Π κ(group)` and the stock
//!    `qpd` allocators spread shots across all cuts at once.
//!
//! In debug/test builds every compilation re-verifies its cut groups
//! once each through [`CompiledPlan::verify_groups`] (per-group spec
//! validation plus [`JointWireCut::verify_deviation`] per distinct joint
//! width), so malformed term products fail loudly on the compile path;
//! the exhaustive product-spec check stays behind the test-only
//! [`CompiledPlan::verify`] helper, whose cost grows as `Π terms`.

use crate::contract::{FragmentBlockSummary, FragmentBlocks};
use crate::joint::JointWireCut;
use crate::mub;
use crate::multi::{MultiCutTerm, ParallelWireCut};
use crate::nme::NmeCut;
use crate::term::WireCut;
use qpd::{BernoulliTerm, QpdSpec, TermSampler};
use qsim::{fragments_by_width, Circuit, CompiledSampler, Fragment, Instruction, Op, PauliString};

/// The crossover overlap `f*(n) = 2/((2^{n+1} − 1)^{1/n} + 1)`:
/// independent `|Φ_k⟩` cuts beat (or tie) the joint MUB cut exactly when
/// `f ≥ f*(n)`. It rises from `1/2` at `n = 1` towards `2/3`: more wires
/// widen the regime where joint cutting wins. The protocol choice and
/// `experiments::joint_scaling`'s κ crossover map both read it.
pub fn crossover_overlap(n: usize) -> f64 {
    assert!(n >= 1);
    let gamma_star = ((2u64 << n) - 1) as f64;
    2.0 / (gamma_star.powf(1.0 / n as f64) + 1.0)
}

/// The cut protocol assigned to one [`CutGroup`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Protocol {
    /// Independent Theorem 2 NME cuts, one `|Φ_k⟩` pair per wire
    /// (`κ = γ(k)ⁿ`, [`crate::nme`] / [`crate::multi`]).
    Nme {
        /// Schmidt parameter of the available resource.
        k: f64,
    },
    /// The entanglement-free joint MUB cut (`κ = 2^{n+1} − 1`,
    /// [`crate::joint`]).
    JointMub,
}

/// One planned wire cut: `wire` leaves fragment `source_fragment` and
/// re-enters the circuit in fragment `dest_fragment`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedCut {
    /// The cut wire (original circuit qubit index).
    pub wire: usize,
    /// Fragment holding the wire's last gate before the cut.
    pub source_fragment: usize,
    /// Fragment holding the wire's next gate after the cut.
    pub dest_fragment: usize,
}

/// Cuts sharing a (source, destination) fragment pair — executed as one
/// joint or product QPD on the sender/receiver device pair.
#[derive(Clone, Debug)]
pub struct CutGroup {
    /// The member cuts, ascending by wire.
    pub cuts: Vec<PlannedCut>,
    /// Chosen protocol.
    pub protocol: Protocol,
    /// The group's sampling overhead `κ`.
    pub kappa: f64,
}

impl CutGroup {
    /// Number of wires cut together.
    pub fn num_wires(&self) -> usize {
        self.cuts.len()
    }

    /// Source fragment index (shared by all member cuts).
    pub fn source_fragment(&self) -> usize {
        self.cuts[0].source_fragment
    }

    /// The group's QPD coefficient structure.
    pub fn spec(&self) -> QpdSpec {
        protocol_spec(self.protocol, self.num_wires())
    }

    /// The group's QPD term circuits (multi-wire term layout shared with
    /// [`crate::multi`] / [`crate::joint`]).
    pub fn terms(&self) -> Vec<MultiCutTerm> {
        match self.protocol {
            Protocol::Nme { k } => self.nme_cut(k).terms(),
            Protocol::JointMub => JointWireCut::new(self.num_wires()).terms(),
        }
    }

    fn nme_cut(&self, k: f64) -> ParallelWireCut {
        ParallelWireCut::new(
            (0..self.num_wires())
                .map(|_| Box::new(NmeCut::new(k)) as Box<dyn WireCut>)
                .collect(),
        )
    }
}

/// The QPD coefficient structure of one `wires`-wide group running
/// `protocol` — reconstructible from a [`GroupReport`] alone, which is
/// what lets [`CompiledPlan::verify_groups`] re-validate each group at
/// `Σ terms` cost without touching the `Π terms` product spec.
fn protocol_spec(protocol: Protocol, wires: usize) -> QpdSpec {
    match protocol {
        Protocol::Nme { k } => ParallelWireCut::new(
            (0..wires)
                .map(|_| Box::new(NmeCut::new(k)) as Box<dyn WireCut>)
                .collect(),
        )
        .spec(),
        Protocol::JointMub => JointWireCut::new(wires).spec(),
    }
}

/// Per-group line of a plan's overhead report.
#[derive(Clone, Copy, Debug)]
pub struct GroupReport {
    /// Source fragment of the group.
    pub source_fragment: usize,
    /// Destination fragment of the group.
    pub dest_fragment: usize,
    /// Wires cut together.
    pub wires: usize,
    /// Chosen protocol.
    pub protocol: Protocol,
    /// Group overhead `κ`.
    pub kappa: f64,
}

/// The per-plan γ/κ overhead report.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Number of fragments.
    pub num_fragments: usize,
    /// Total number of wire cuts (Σ group wires).
    pub num_cuts: usize,
    /// Widest fragment (≤ the budget by construction).
    pub max_fragment_width: usize,
    /// Plan overhead `κ = Π κ(group)` — the 1-norm of the product QPD.
    pub kappa: f64,
    /// Shot-count multiplier `κ²` to reach fixed accuracy.
    pub sampling_overhead: f64,
    /// Per-group breakdown.
    pub groups: Vec<GroupReport>,
}

/// A complete cut plan for one circuit: fragments, grouped cuts with
/// protocols, and the overhead accounting.
#[derive(Clone, Debug)]
pub struct CutPlan {
    circuit: Circuit,
    /// Width-bounded fragments in program order.
    pub fragments: Vec<Fragment>,
    /// Cut groups, ascending by (source, destination) fragment pair.
    pub groups: Vec<CutGroup>,
    /// The width budget the plan was built for.
    pub width_budget: usize,
    /// Resource overlap `f` the protocol choice assumed.
    pub overlap: f64,
}

impl CutPlan {
    /// The planned circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Total number of wire cuts.
    pub fn num_cuts(&self) -> usize {
        self.groups.iter().map(|g| g.num_wires()).sum()
    }

    /// Plan overhead `κ = Π κ(group)` (1 for an uncut plan).
    pub fn kappa(&self) -> f64 {
        self.groups.iter().map(|g| g.kappa).product()
    }

    /// The γ/κ overhead report.
    pub fn report(&self) -> PlanReport {
        let kappa = self.kappa();
        PlanReport {
            num_fragments: self.fragments.len(),
            num_cuts: self.num_cuts(),
            max_fragment_width: self.fragments.iter().map(|f| f.width()).max().unwrap_or(0),
            kappa,
            sampling_overhead: kappa * kappa,
            groups: self
                .groups
                .iter()
                .map(|g| GroupReport {
                    source_fragment: g.cuts[0].source_fragment,
                    dest_fragment: g.cuts[0].dest_fragment,
                    wires: g.num_wires(),
                    protocol: g.protocol,
                    kappa: g.kappa,
                })
                .collect(),
        }
    }
}

/// The planner: fragment-width budget plus the entanglement resource
/// assumption driving NME-vs-MUB protocol choice.
#[derive(Clone, Copy, Debug)]
pub struct CutPlanner {
    width_budget: usize,
    overlap: f64,
}

impl CutPlanner {
    /// A planner for the given fragment-width budget, assuming maximally
    /// entangled resources (`f = 1`, so every group cuts via NME
    /// teleportation at `κ = 1` per wire).
    pub fn new(width_budget: usize) -> Self {
        assert!(width_budget >= 1, "width budget must be at least 1");
        Self {
            width_budget,
            overlap: 1.0,
        }
    }

    /// Sets the available resource overlap `f ∈ [1/2, 1]` (Theorem 1's
    /// `f(ρ)`); groups where `f < f*(n)` switch to the joint MUB cut.
    pub fn with_overlap(mut self, f: f64) -> Self {
        assert!(
            (0.5..=1.0).contains(&f),
            "resource overlap must lie in [1/2, 1], got {f}"
        );
        self.overlap = f;
        self
    }

    /// Plans cuts for `circuit`: fragments it under the width budget,
    /// derives the crossing-wire cut set, groups cuts per fragment pair
    /// and assigns each group its κ-optimal protocol. Fully deterministic
    /// — identical circuits produce identical plans.
    pub fn plan(&self, circuit: &Circuit) -> CutPlan {
        let fragments = fragments_by_width(circuit, self.width_budget);
        // Each wire's ordered fragment visits; consecutive visits are cuts.
        let mut grouped: std::collections::BTreeMap<(usize, usize), Vec<PlannedCut>> =
            std::collections::BTreeMap::new();
        for wire in 0..circuit.num_qubits() {
            let visits: Vec<usize> = fragments
                .iter()
                .enumerate()
                .filter(|(_, f)| f.wires.contains(&wire))
                .map(|(i, _)| i)
                .collect();
            for pair in visits.windows(2) {
                grouped
                    .entry((pair[0], pair[1]))
                    .or_default()
                    .push(PlannedCut {
                        wire,
                        source_fragment: pair[0],
                        dest_fragment: pair[1],
                    });
            }
        }
        let groups = grouped
            .into_values()
            .map(|mut cuts| {
                cuts.sort_by_key(|c| c.wire);
                let n = cuts.len();
                // NME wins at f ≥ f*(n); the joint construction also caps
                // at MAX_WIRES, beyond which only the product cut exists.
                let protocol = if self.overlap >= crossover_overlap(n) || n > mub::MAX_WIRES {
                    Protocol::Nme {
                        k: NmeCut::from_overlap(self.overlap).k(),
                    }
                } else {
                    Protocol::JointMub
                };
                let kappa = match protocol {
                    Protocol::Nme { k } => NmeCut::new(k).kappa().powi(n as i32),
                    Protocol::JointMub => JointWireCut::new(n).kappa(),
                };
                CutGroup {
                    cuts,
                    protocol,
                    kappa,
                }
            })
            .collect();
        CutPlan {
            circuit: circuit.clone(),
            fragments,
            groups,
            width_budget: self.width_budget,
            overlap: self.overlap,
        }
    }
}

/// Content-addressed identity of a compiled plan: a stable 64-bit
/// FNV-1a hash over everything [`CompiledPlan::compile`] reads — the
/// planner's width budget and resource overlap, the circuit's full
/// instruction stream (operation discriminants, gate parameters, unitary
/// matrix entries, qubit operands, classical conditions) and the
/// observable's Pauli string.
///
/// The key is the job-level RNG stream id: it depends only on plan
/// *content*, never on submission order, thread, or cache state. Two
/// different requests share a stream id only on a 64-bit hash collision,
/// which is negligible and leaves each job's estimate unbiased. Cache
/// identity does not rest on the hash:
/// [`crate::service::CutService`] compares the exact key words the
/// hash is taken over, so a collision can never serve the wrong plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanKey(pub u64);

impl PlanKey {
    /// The key of a word sequence built by [`CutPlanner::plan_words`]:
    /// FNV-1a over the words, equal to [`CutPlanner::plan_key`] on the
    /// same request.
    pub(crate) fn of_words(words: &[u64]) -> PlanKey {
        let mut h = qsample::KeyHasher::new();
        for &word in words {
            h.absorb(word);
        }
        PlanKey(h.finish())
    }
}

/// Where a plan's identity words go: straight into the FNV hasher
/// ([`CutPlanner::plan_key`]) or into a buffer
/// ([`CutPlanner::plan_words`]). One `absorb_*` walk feeds both, so the
/// two encodings cannot drift apart.
trait WordSink {
    fn absorb(&mut self, word: u64);
}

impl WordSink for qsample::KeyHasher {
    #[inline]
    fn absorb(&mut self, word: u64) {
        qsample::KeyHasher::absorb(self, word);
    }
}

impl WordSink for Vec<u64> {
    #[inline]
    fn absorb(&mut self, word: u64) {
        self.push(word);
    }
}

/// Words one instruction contributes at most, unless it carries a
/// matrix on three or more qubits: op code, gate code, a 4×4 complex
/// matrix (32 words), operand count, two operands and a condition of up
/// to three words.
const MAX_INSTRUCTION_WORDS: usize = 40;

/// Absorbs an `f64` by IEEE-754 bits, normalising `-0.0` to `+0.0` (the
/// same convention as `qsample::grid`'s `GridKey` for `f64`).
fn absorb_f64<S: WordSink>(h: &mut S, x: f64) {
    debug_assert!(!x.is_nan(), "NaN cannot identify a plan");
    let v = if x == 0.0 { 0.0f64 } else { x };
    h.absorb(v.to_bits());
}

/// Absorbs a unitary matrix element-wise (row-major, re then im).
fn absorb_matrix<S: WordSink>(h: &mut S, m: &qlinalg::Matrix) {
    for z in m.as_slice() {
        absorb_f64(h, z.re);
        absorb_f64(h, z.im);
    }
}

/// Absorbs a gate: a per-variant discriminant code followed by the
/// variant's parameters. Codes are part of the key's stability contract —
/// new variants must take fresh codes, never renumber existing ones.
fn absorb_gate<S: WordSink>(h: &mut S, gate: &qsim::Gate) {
    use qsim::Gate::*;
    match gate {
        I => h.absorb(0),
        X => h.absorb(1),
        Y => h.absorb(2),
        Z => h.absorb(3),
        H => h.absorb(4),
        S => h.absorb(5),
        Sdg => h.absorb(6),
        T => h.absorb(7),
        Tdg => h.absorb(8),
        SX => h.absorb(9),
        Rx(t) => {
            h.absorb(10);
            absorb_f64(h, *t);
        }
        Ry(t) => {
            h.absorb(11);
            absorb_f64(h, *t);
        }
        Rz(t) => {
            h.absorb(12);
            absorb_f64(h, *t);
        }
        Phase(t) => {
            h.absorb(13);
            absorb_f64(h, *t);
        }
        U(a, b, c) => {
            h.absorb(14);
            absorb_f64(h, *a);
            absorb_f64(h, *b);
            absorb_f64(h, *c);
        }
        Unitary1(m) => {
            h.absorb(15);
            absorb_matrix(h, m);
        }
        CX => h.absorb(16),
        CZ => h.absorb(17),
        CY => h.absorb(18),
        Swap => h.absorb(19),
        CPhase(t) => {
            h.absorb(20);
            absorb_f64(h, *t);
        }
        Unitary2(m) => {
            h.absorb(21);
            absorb_matrix(h, m);
        }
        Unitary(m) => {
            h.absorb(22);
            absorb_matrix(h, m);
        }
    }
}

/// Absorbs a circuit: dimensions, then every instruction in program order.
fn absorb_circuit<S: WordSink>(h: &mut S, circuit: &Circuit) {
    h.absorb(circuit.num_qubits() as u64);
    h.absorb(circuit.num_clbits() as u64);
    h.absorb(circuit.len() as u64);
    for instr in circuit.instructions() {
        match &instr.op {
            Op::Gate(gate, qubits) => {
                h.absorb(0xA0);
                absorb_gate(h, gate);
                h.absorb(qubits.len() as u64);
                for &q in qubits {
                    h.absorb(q as u64);
                }
            }
            Op::Measure { qubit, clbit } => {
                h.absorb(0xA1);
                h.absorb(*qubit as u64);
                h.absorb(*clbit as u64);
            }
            Op::Reset(q) => {
                h.absorb(0xA2);
                h.absorb(*q as u64);
            }
            Op::Barrier => h.absorb(0xA3),
        }
        match &instr.condition {
            None => h.absorb(0xB0),
            Some(c) => {
                h.absorb(0xB1);
                h.absorb(c.bit as u64);
                h.absorb(u64::from(c.value));
            }
        }
    }
}

impl CutPlanner {
    /// The [`PlanKey`] of the plan this planner would compile for
    /// `(circuit, observable)` — a pure content hash, computed without
    /// planning or compiling anything. [`CutPlanner::plan`] is
    /// deterministic, so equal keys imply equal compiled plans up to the
    /// 64-bit collision caveat of [`PlanKey`], which touches RNG stream
    /// ids only.
    pub fn plan_key(&self, circuit: &Circuit, observable: &PauliString) -> PlanKey {
        let mut h = qsample::KeyHasher::new();
        self.absorb_request(&mut h, circuit, observable);
        PlanKey(h.finish())
    }

    /// The exact key material [`plan_key`](Self::plan_key) hashes, in
    /// the same order: equal words mean equal compiled plans, with no
    /// collision caveat.
    pub(crate) fn plan_words(&self, circuit: &Circuit, observable: &PauliString) -> Vec<u64> {
        // Six header words: width budget, overlap, qubits, clbits,
        // instruction count and observable width.
        let capacity = 6 + observable.num_qubits() + MAX_INSTRUCTION_WORDS * circuit.len();
        let mut words = Vec::with_capacity(capacity);
        self.absorb_request(&mut words, circuit, observable);
        words
    }

    /// Feeds the request's identity words into `h`: planner settings,
    /// circuit, observable.
    fn absorb_request<S: WordSink>(&self, h: &mut S, circuit: &Circuit, observable: &PauliString) {
        h.absorb(self.width_budget as u64);
        absorb_f64(h, self.overlap);
        absorb_circuit(h, circuit);
        h.absorb(observable.num_qubits() as u64);
        for op in observable.ops() {
            h.absorb(match op {
                qsim::Pauli::I => 0,
                qsim::Pauli::X => 1,
                qsim::Pauli::Y => 2,
                qsim::Pauli::Z => 3,
            });
        }
    }
}

/// Which simulator backends a compiled plan's circuits ride, aggregated
/// over all compiled circuit units (see
/// [`qsim::CompiledSampler::compile`]'s backend split). A *unit* is one
/// fragment prep variant, or one stitched term circuit on a
/// [`CompiledPlan::compile_monolithic`] oracle plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendReport {
    /// Compiled circuit units (stitched terms or fragment variants).
    pub terms: usize,
    /// Units whose circuit had a tableau-executed prefix.
    pub hybrid_terms: usize,
    /// Total instructions across all compiled circuit units.
    pub total_instructions: usize,
    /// Instructions executed on the stabilizer tableau.
    pub clifford_instructions: usize,
    /// Single-qubit gates absorbed by fusion in the dense portions.
    pub gates_fused: usize,
    /// Frontier matrix multiplications performed by the prefix-cached
    /// odometer sweep (0 on an uncut plan, which has no sweep, and on
    /// a stitched oracle plan).
    pub frontier_ops: usize,
    /// Frontier multiplications a cache-disabled sweep over the same
    /// terms would have performed — the denominator of the prefix-cache
    /// payoff (`frontier_ops_uncached / frontier_ops`).
    pub frontier_ops_uncached: usize,
    /// Σ over terms of the resume depth: odometer digits whose partial
    /// frontier contraction was served from the prefix cache.
    pub prefix_hits: usize,
    /// Σ over terms of the rebuilt digits: odometer digits whose
    /// partial frontier had to be recomputed.
    pub prefix_rebuilds: usize,
}

impl BackendReport {
    /// Fraction of the compiled units' instructions on the stabilizer
    /// fast path (1.0 for an empty plan, which trivially has no dense
    /// work).
    pub fn clifford_fraction(&self) -> f64 {
        if self.total_instructions == 0 {
            1.0
        } else {
            self.clifford_instructions as f64 / self.total_instructions as f64
        }
    }

    /// Share of the sweep's touched odometer digits served from the
    /// prefix cache, `prefix_hits / (prefix_hits + prefix_rebuilds)`
    /// (0.0 when the plan swept nothing).
    pub fn prefix_hit_rate(&self) -> f64 {
        let touched = self.prefix_hits + self.prefix_rebuilds;
        if touched == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / touched as f64
        }
    }

    /// The prefix cache's payoff, `frontier_ops_uncached / frontier_ops`
    /// (1.0 when the plan contracted no frontier).
    pub fn frontier_savings(&self) -> f64 {
        if self.frontier_ops == 0 {
            1.0
        } else {
            self.frontier_ops_uncached as f64 / self.frontier_ops as f64
        }
    }

    /// Counts one compiled circuit unit: its tableau prefix, its
    /// instruction total and the gates fusion absorbed.
    pub(crate) fn count_unit(&mut self, sampler: &CompiledSampler) {
        let prefix = sampler.clifford_prefix();
        self.terms += 1;
        if prefix.prefix_len > 0 {
            self.hybrid_terms += 1;
        }
        self.total_instructions += prefix.total;
        self.clifford_instructions += prefix.prefix_len;
        self.gates_fused += sampler.fusion_stats().gates_fused;
    }
}

/// A fully compiled execution plan: the product QPD spec across all cut
/// groups plus one [`BernoulliTerm`] per term combination, ready for the
/// stock `qpd` estimators.
///
/// Compilation only computes each term's exact value `⟨O⟩ᵢ`. A ±1
/// observable's law is fixed by that value, so every term draws from
/// the prepared `B(n, (1 + ⟨O⟩ᵢ)/2)`, and no plan keeps a per-term
/// circuit or sampler.
pub struct CompiledPlan {
    /// Product QPD coefficient structure (`κ = Π κ(group)`).
    pub spec: QpdSpec,
    terms: Vec<BernoulliTerm>,
    exact: f64,
    report: PlanReport,
    backend_report: BackendReport,
    fragment_summaries: Vec<FragmentBlockSummary>,
}

impl CompiledPlan {
    /// Compiles a plan against a diagonal (Z/I) observable over the
    /// original circuit wires. The input state is `|0…0⟩` driven through
    /// the planned circuit itself — workload preparation belongs in the
    /// circuit being planned.
    ///
    /// Builds per-fragment tensor blocks once ([`FragmentBlocks::build`],
    /// `Σ variants(fragment)` compiled circuits) and evaluates each of
    /// the `Π terms(group)` product terms through the prefix-cached
    /// frontier sweep ([`FragmentBlocks::sweep`]) — no per-term circuit
    /// is ever stitched or simulated, and terms sharing an odometer
    /// prefix share their partial frontier contractions. The sweep's
    /// hit/op counters land in the [`BackendReport`]. A plan with no cut
    /// is one unit-coefficient term, the contraction of its fragments.
    ///
    /// In debug/test builds the compiled plan's cut groups are verified
    /// on the spot ([`CompiledPlan::verify_groups`]), so malformed term
    /// products fail loudly on the compile path.
    ///
    /// # Panics
    /// Panics, naming the cap, when the plan exceeds a contraction
    /// resource cap ([`crate::contract::contraction_ineligibility`]).
    pub fn compile(plan: &CutPlan, observable: &PauliString) -> Self {
        let blocks = FragmentBlocks::build(plan, observable);
        let (spec, lens) = plan_spec(plan);
        assert_eq!(
            lens,
            blocks.group_lens(),
            "group transfer/spec term mismatch"
        );
        let mut backend_report = blocks.backend_report();
        let terms = if lens.is_empty() {
            vec![BernoulliTerm::new(blocks.term_value(&[]))]
        } else {
            let mut terms = Vec::with_capacity(spec.len());
            let mut sweep = blocks.sweep();
            // Row-major enumeration, last group fastest — the same order
            // `QpdSpec::product` uses, so coefficients line up and every
            // consecutive pair of picks shares the longest possible prefix.
            // One pick buffer, stepped in place like an odometer.
            let mut pick = vec![0usize; lens.len()];
            for _ in 0..spec.len() {
                terms.push(BernoulliTerm::new(sweep.term_value(&pick)));
                for g in (0..lens.len()).rev() {
                    pick[g] += 1;
                    if pick[g] < lens[g] {
                        break;
                    }
                    pick[g] = 0;
                }
            }
            let stats = sweep.stats();
            backend_report.frontier_ops = stats.frontier_ops;
            backend_report.frontier_ops_uncached = stats.frontier_ops_uncached;
            backend_report.prefix_hits = stats.prefix_hits;
            backend_report.prefix_rebuilds = stats.prefix_rebuilds;
            terms
        };
        let summaries = blocks.summaries().to_vec();
        Self::assemble(plan, spec, terms, backend_report, summaries)
    }

    /// The **stitching oracle**: stitches one carrier-threaded circuit
    /// per combination of per-group QPD terms, simulates it once for the
    /// term's exact value and drops its sampler. Compilation cost grows
    /// as `Π terms(group)` — intractable past ~4 cuts — and no production
    /// code calls it: it is the pristine differential-testing reference
    /// that [`CompiledPlan::compile`] is held against
    /// (`tests/fragment_contraction.rs`). Its plans carry no fragment
    /// summaries.
    pub fn compile_monolithic(plan: &CutPlan, observable: &PauliString) -> Self {
        let circuit = plan.circuit();
        assert_eq!(
            observable.num_qubits(),
            circuit.num_qubits(),
            "observable width must match the planned circuit"
        );
        assert!(
            observable.is_diagonal(),
            "plan estimator supports diagonal (Z/I) observables"
        );
        let group_terms: Vec<Vec<MultiCutTerm>> = plan.groups.iter().map(|g| g.terms()).collect();
        let (spec, lens) = plan_spec(plan);
        assert!(group_terms.iter().map(Vec::len).eq(lens));
        let mut backend_report = BackendReport::default();
        // Row-major enumeration, last group fastest — the same order
        // `QpdSpec::product` uses, so coefficients line up.
        let mut terms = Vec::with_capacity(spec.len());
        let mut picked: Vec<&MultiCutTerm> = group_terms.iter().map(|ts| &ts[0]).collect();
        for combo in 0..spec.len() {
            let mut rem = combo;
            for (slot, ts) in picked.iter_mut().zip(&group_terms).rev() {
                *slot = &ts[rem % ts.len()];
                rem /= ts.len();
            }
            let exact = compile_combo(plan, &picked, observable, &mut backend_report);
            terms.push(BernoulliTerm::new(exact));
        }
        Self::assemble(plan, spec, terms, backend_report, Vec::new())
    }

    /// The plan both compilers finish with: `terms` aligned with `spec`,
    /// the exact value summed once, and in debug/test builds the cut
    /// groups verified on the spot.
    fn assemble(
        plan: &CutPlan,
        spec: QpdSpec,
        terms: Vec<BernoulliTerm>,
        backend_report: BackendReport,
        fragment_summaries: Vec<FragmentBlockSummary>,
    ) -> Self {
        let compiled = Self {
            exact: qpd::exact_value(&spec, &terms),
            spec,
            terms,
            report: plan.report(),
            backend_report,
            fragment_summaries,
        };
        if cfg!(debug_assertions) {
            compiled
                .verify_groups(1e-8)
                .expect("compiled plan failed group verification");
        }
        compiled
    }

    /// The compiled terms as trait objects. Kept only for the benchmark
    /// replay in `perfbench`, which reads it; call
    /// [`plan_terms`](Self::plan_terms) instead, which every `qpd`
    /// estimator takes as it is.
    pub fn samplers(&self) -> Vec<&dyn TermSampler> {
        self.terms.iter().map(|t| t as &dyn TermSampler).collect()
    }

    /// The compiled terms, aligned with [`CompiledPlan::spec`].
    pub fn plan_terms(&self) -> &[BernoulliTerm] {
        &self.terms
    }

    /// Exact decomposed value `Σ cᵢ·⟨O⟩ᵢ`, summed once at compile time
    /// — must equal the uncut statevector expectation for a correct
    /// plan.
    pub fn exact_value(&self) -> f64 {
        self.exact
    }

    /// Exact per-term expectations, aligned with [`CompiledPlan::spec`].
    pub fn exact_terms(&self) -> Vec<f64> {
        self.terms.iter().map(|t| t.exact_expectation()).collect()
    }

    /// The plan's γ/κ overhead report.
    pub fn report(&self) -> &PlanReport {
        &self.report
    }

    /// Which simulator backends the plan's compiled circuits actually
    /// rode, plus the sweep's counters. Aggregated over fragment prep
    /// variants (or stitched term circuits on an oracle plan) and
    /// captured at compile time; a service client reads it off the
    /// cached plan ([`crate::service::CutService::compiled`]).
    pub fn backend_report(&self) -> BackendReport {
        self.backend_report
    }

    /// Per-fragment compilation summaries, one per plan fragment (empty
    /// on a [`CompiledPlan::compile_monolithic`] oracle plan).
    pub fn fragment_summaries(&self) -> &[FragmentBlockSummary] {
        &self.fragment_summaries
    }

    /// Per-group verification at `Σ terms(group)` cost — the check that
    /// runs on every debug/test-build compile. Each cut group's own QPD
    /// spec must validate (coefficients sum to 1), the per-group κ
    /// product must match the plan report, and every joint-MUB width
    /// must pass [`JointWireCut::verify_deviation`] **once** — never per
    /// term combination, which would explode as `Π terms` at 4+ cuts.
    pub fn verify_groups(&self, tol: f64) -> Result<(), String> {
        let mut kappa_product = 1.0f64;
        let mut verified_widths: Vec<usize> = Vec::new();
        for g in &self.report.groups {
            let spec = protocol_spec(g.protocol, g.wires);
            spec.validate(tol.max(1e-9))
                .map_err(|e| format!("{}-wire group spec invalid: {e}", g.wires))?;
            if (spec.kappa() - g.kappa).abs() > 1e-9 * g.kappa.max(1.0) {
                return Err(format!(
                    "{}-wire group κ {} disagrees with report {}",
                    g.wires,
                    spec.kappa(),
                    g.kappa
                ));
            }
            kappa_product *= spec.kappa();
            if g.protocol == Protocol::JointMub && !verified_widths.contains(&g.wires) {
                let dev = JointWireCut::new(g.wires).verify_deviation();
                if dev > tol {
                    return Err(format!(
                        "joint {}-wire group deviates from identity by {dev}",
                        g.wires
                    ));
                }
                verified_widths.push(g.wires);
            }
        }
        if (kappa_product - self.report.kappa).abs() > 1e-9 * self.report.kappa.max(1.0) {
            return Err(format!(
                "per-group κ product {} disagrees with plan report {}",
                kappa_product, self.report.kappa
            ));
        }
        Ok(())
    }

    /// **Exhaustive** structural verification — [`verify_groups`]
    /// (per-group checks) plus validation of the full `Π terms` product
    /// spec and its κ. The product-spec walk makes this exponential in
    /// the cut count, so it belongs in tests and differential suites,
    /// not on the compile path.
    ///
    /// [`verify_groups`]: CompiledPlan::verify_groups
    pub fn verify(&self, tol: f64) -> Result<(), String> {
        self.verify_groups(tol)?;
        self.spec
            .validate(tol.max(1e-9))
            .map_err(|e| format!("plan spec invalid: {e}"))?;
        if (self.spec.kappa() - self.report.kappa).abs() > 1e-9 * self.report.kappa.max(1.0) {
            return Err(format!(
                "plan κ {} disagrees with per-group product {}",
                self.spec.kappa(),
                self.report.kappa
            ));
        }
        Ok(())
    }
}

/// The plan's product QPD spec and its per-group term counts; a plan
/// with no cut is one unit-coefficient term.
fn plan_spec(plan: &CutPlan) -> (QpdSpec, Vec<usize>) {
    let group_specs: Vec<QpdSpec> = plan.groups.iter().map(|g| g.spec()).collect();
    let lens = group_specs.iter().map(QpdSpec::len).collect();
    if group_specs.is_empty() {
        return (QpdSpec::from_parts(&[(1.0, 0.0)]), lens);
    }
    (QpdSpec::product(&group_specs), lens)
}

/// Stitches one monolithic circuit for one per-group term combination
/// and returns the term's exact value: original instructions are
/// threaded through per-wire *carrier* qubits, and at each group's
/// boundary the picked term circuit is spliced in (term inputs ↦
/// current carriers, everything else ↦ fresh qubits, term outputs
/// become the new carriers). The circuit's backend split is counted
/// into `report`; its sampler, which holds every branch-leaf state, is
/// dropped.
fn compile_combo(
    plan: &CutPlan,
    picked: &[&MultiCutTerm],
    observable: &PauliString,
    report: &mut BackendReport,
) -> f64 {
    let circuit = plan.circuit();
    let n0 = circuit.num_qubits();
    let extra_qubits: usize = picked
        .iter()
        .map(|t| t.circuit.num_qubits() - t.input_qubits.len())
        .sum();
    let extra_clbits: usize = picked.iter().map(|t| t.circuit.num_clbits()).sum();
    let total_qubits = n0 + extra_qubits;
    let mut out = Circuit::new(total_qubits, circuit.num_clbits() + extra_clbits);
    let mut carrier: Vec<usize> = (0..n0).collect();
    let mut q_next = n0;
    let mut c_next = circuit.num_clbits();
    for (fi, frag) in plan.fragments.iter().enumerate() {
        for &idx in &frag.instructions {
            out.push(map_through_carriers(&circuit.instructions()[idx], &carrier));
        }
        for (gi, group) in plan.groups.iter().enumerate() {
            if group.source_fragment() != fi {
                continue;
            }
            let t = picked[gi];
            let mut qmap = vec![usize::MAX; t.circuit.num_qubits()];
            for (i, &iq) in t.input_qubits.iter().enumerate() {
                qmap[iq] = carrier[group.cuts[i].wire];
            }
            for slot in qmap.iter_mut() {
                if *slot == usize::MAX {
                    *slot = q_next;
                    q_next += 1;
                }
            }
            let cmap: Vec<usize> = (0..t.circuit.num_clbits()).map(|c| c_next + c).collect();
            c_next += t.circuit.num_clbits();
            out.compose_mapped(&t.circuit, &qmap, &cmap);
            for (i, &oq) in t.output_qubits.iter().enumerate() {
                carrier[group.cuts[i].wire] = qmap[oq];
            }
        }
    }
    let sampler = CompiledSampler::compile(&out, None);
    report.count_unit(&sampler);
    let mut z_mask = 0usize;
    for (w, &q) in carrier.iter().enumerate() {
        if observable.op(w) == qsim::Pauli::Z {
            z_mask |= 1 << q;
        }
    }
    sampler.exact_expval_parity(z_mask)
}

/// Remaps one original-circuit instruction through the current carriers.
fn map_through_carriers(instr: &Instruction, carrier: &[usize]) -> Instruction {
    let op = match &instr.op {
        Op::Gate(g, qs) => Op::Gate(g.clone(), qs.iter().map(|&q| carrier[q]).collect()),
        Op::Measure { qubit, clbit } => Op::Measure {
            qubit: carrier[*qubit],
            clbit: *clbit,
        },
        Op::Reset(q) => Op::Reset(carrier[*q]),
        Op::Barrier => Op::Barrier,
    };
    Instruction {
        op,
        condition: instr.condition,
    }
}

/// The uncut reference: exact expectation of a diagonal (Z/I) observable
/// after running `circuit` from `|0…0⟩`, read off the circuit's whole
/// branch tree by [`CompiledSampler::exact_expval_parity`] — the readout
/// that also gives each stitched oracle term its value.
pub fn uncut_plan_expectation(circuit: &Circuit, observable: &PauliString) -> f64 {
    assert_eq!(observable.num_qubits(), circuit.num_qubits());
    assert!(observable.is_diagonal());
    let sampler = CompiledSampler::compile(circuit, None);
    let mut z_mask = 0usize;
    for q in 0..circuit.num_qubits() {
        if observable.op(q) == qsim::Pauli::Z {
            z_mask |= 1 << q;
        }
    }
    sampler.exact_expval_parity(z_mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ladder(n: usize) -> Circuit {
        let mut c = Circuit::new(n, 0);
        c.ry(0.4, 0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    #[test]
    fn crossover_matches_known_values() {
        // f*(1) = 1/2 (γ = 3 at f = 1/2); rises towards 2/3.
        assert!((crossover_overlap(1) - 0.5).abs() < 1e-12);
        let f2 = crossover_overlap(2);
        assert!((f2 - 2.0 / (7.0f64.sqrt() + 1.0)).abs() < 1e-12);
        for n in 1..8 {
            assert!(crossover_overlap(n) < crossover_overlap(n + 1));
            assert!(crossover_overlap(n) < 2.0 / 3.0);
        }
    }

    #[test]
    fn ladder_plan_produces_three_fragments() {
        let c = ladder(5);
        let plan = CutPlanner::new(2).plan(&c);
        assert!(plan.fragments.len() >= 3, "{:?}", plan.fragments);
        assert!(plan.num_cuts() >= plan.fragments.len() - 1);
        for f in &plan.fragments {
            assert!(f.width() <= 2);
        }
        // Every cut names a real circuit wire.
        for g in &plan.groups {
            for cut in &g.cuts {
                assert!(cut.wire < c.num_qubits());
                assert!(cut.source_fragment < cut.dest_fragment);
            }
        }
    }

    #[test]
    fn repeated_cuts_on_one_wire() {
        // Wire 0 re-used in three width-2 fragments ⇒ two cuts on it.
        let mut c = Circuit::new(3, 0);
        c.ry(0.3, 0).cx(0, 1).cx(0, 2).cx(0, 1);
        let plan = CutPlanner::new(2).plan(&c);
        let cuts_on_0: usize = plan
            .groups
            .iter()
            .flat_map(|g| &g.cuts)
            .filter(|cut| cut.wire == 0)
            .count();
        assert!(cuts_on_0 >= 2, "wire 0 cut {cuts_on_0} times: {plan:?}");
    }

    #[test]
    fn protocol_follows_the_crossover_map() {
        // Two wires crossing one boundary: f = 0.9 > f*(2) ⇒ NME;
        // f = 0.52 < f*(2) ≈ 0.5486 ⇒ joint MUB.
        let mut c = Circuit::new(4, 0);
        c.ry(0.4, 0).cx(0, 1).cx(0, 2).cx(1, 3).cx(2, 3);
        let pick = |f: f64| {
            let plan = CutPlanner::new(3).with_overlap(f).plan(&c);
            let two_wire: Vec<Protocol> = plan
                .groups
                .iter()
                .filter(|g| g.num_wires() == 2)
                .map(|g| g.protocol)
                .collect();
            assert!(!two_wire.is_empty(), "no 2-wire group: {plan:?}");
            two_wire[0]
        };
        assert!(matches!(pick(0.9), Protocol::Nme { .. }));
        assert_eq!(pick(0.52), Protocol::JointMub);
    }

    #[test]
    fn plan_kappa_is_product_of_groups() {
        let c = ladder(5);
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        let expect: f64 = plan.groups.iter().map(|g| g.kappa).product();
        assert!((plan.kappa() - expect).abs() < 1e-12);
        // f = 0.8 ⇒ every single-wire group is NME with γ = 2/0.8 − 1 = 1.5.
        let gamma = 1.5f64;
        assert!(
            (plan.kappa() - gamma.powi(plan.num_cuts() as i32)).abs() < 1e-9,
            "κ {} vs γ^cuts {}",
            plan.kappa(),
            gamma.powi(plan.num_cuts() as i32)
        );
        let report = plan.report();
        assert_eq!(report.num_cuts, plan.num_cuts());
        assert!((report.sampling_overhead - plan.kappa() * plan.kappa()).abs() < 1e-9);
    }

    #[test]
    fn compiled_ladder_plan_matches_uncut_expectation() {
        let c = ladder(4);
        // GHZ-like state cos(0.2)|0000⟩ + sin(0.2)|1111⟩: any single
        // ⟨Zᵢ⟩ = cos(0.4), and the even-parity ⟨ZZZZ⟩ = 1.
        let single = PauliString::from_label("ZIII");
        let expect = uncut_plan_expectation(&c, &single);
        assert!((expect - 0.4f64.cos()).abs() < 1e-9);
        let parity = PauliString::from_label("ZZZZ");
        assert!((uncut_plan_expectation(&c, &parity) - 1.0).abs() < 1e-9);
        for f in [1.0, 0.8] {
            let plan = CutPlanner::new(2).with_overlap(f).plan(&c);
            assert!(plan.fragments.len() >= 2);
            for obs in [&single, &parity] {
                let compiled = CompiledPlan::compile(&plan, obs);
                let reference = uncut_plan_expectation(&c, obs);
                assert!(
                    (compiled.exact_value() - reference).abs() < 1e-8,
                    "f={f}: plan {} vs uncut {reference}",
                    compiled.exact_value()
                );
                compiled.verify(1e-8).unwrap();
            }
        }
    }

    #[test]
    fn backend_report_aggregates_term_prefixes() {
        // A Clifford-heavy plan: the ladder is H-free but all-CX after
        // one Ry, so every stitched term has a dense head (the Ry) and
        // the clifford_fraction reflects the per-term prefix analysis.
        let c = ladder(4);
        let obs = PauliString::from_label("ZZZZ");
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        let compiled = CompiledPlan::compile_monolithic(&plan, &obs);
        let r = compiled.backend_report();
        assert_eq!(r.terms, compiled.plan_terms().len());
        assert!(r.total_instructions > 0);
        assert!(r.clifford_fraction() >= 0.0 && r.clifford_fraction() <= 1.0);
        // The nine stitched terms' split, summed as they compile: every
        // term runs dense from its Ry head on.
        assert_eq!(
            r,
            BackendReport {
                terms: 9,
                hybrid_terms: 0,
                total_instructions: 186,
                clifford_instructions: 0,
                gates_fused: 24,
                ..BackendReport::default()
            }
        );
        // An all-Clifford circuit compiles to a plan whose uncut single
        // term is fully on the fast path.
        let mut cliff = Circuit::new(2, 0);
        cliff.h(0).cx(0, 1).cx(0, 1).cx(0, 1);
        let plan = CutPlanner::new(4).plan(&cliff);
        let compiled = CompiledPlan::compile(&plan, &PauliString::from_label("ZZ"));
        let r = compiled.backend_report();
        assert!(
            (r.clifford_fraction() - 1.0).abs() < 1e-12,
            "all-Clifford plan reports fraction {}",
            r.clifford_fraction()
        );
        assert_eq!(r.hybrid_terms, r.terms);
    }

    #[test]
    fn compiled_joint_plan_matches_uncut_expectation() {
        // Force a 2-wire joint MUB group with low overlap.
        let mut c = Circuit::new(4, 0);
        c.ry(0.7, 0).cx(0, 1).cx(0, 2).cx(1, 3).cx(2, 3);
        let obs = PauliString::from_label("ZZZZ");
        let expect = uncut_plan_expectation(&c, &obs);
        let plan = CutPlanner::new(3).with_overlap(0.52).plan(&c);
        assert!(
            plan.groups
                .iter()
                .any(|g| g.protocol == Protocol::JointMub && g.num_wires() == 2),
            "{plan:?}"
        );
        let compiled = CompiledPlan::compile(&plan, &obs);
        assert!(
            (compiled.exact_value() - expect).abs() < 1e-8,
            "joint plan {} vs uncut {expect}",
            compiled.exact_value()
        );
    }

    #[test]
    fn uncuttable_plan_compiles_as_single_term() {
        let c = ladder(3);
        let plan = CutPlanner::new(3).plan(&c);
        assert!(plan.groups.is_empty());
        assert!((plan.kappa() - 1.0).abs() < 1e-12);
        let obs = PauliString::from_label("ZZZ");
        let compiled = CompiledPlan::compile(&plan, &obs);
        assert_eq!(compiled.spec.len(), 1);
        assert!((compiled.exact_value() - uncut_plan_expectation(&c, &obs)).abs() < 1e-10);
    }

    #[test]
    fn random_circuit_plans_are_exact_and_deterministic() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = qsim::random_unitary_circuit(4, 8, &mut rng);
            let obs = PauliString::from_label("ZZZZ");
            let expect = uncut_plan_expectation(&c, &obs);
            let planner = CutPlanner::new(3).with_overlap(0.9);
            let plan = planner.plan(&c);
            for frag in &plan.fragments {
                assert!(frag.width() <= 3);
            }
            let compiled = CompiledPlan::compile(&plan, &obs);
            assert!(
                (compiled.exact_value() - expect).abs() < 1e-8,
                "seed {seed}: {} vs {expect}",
                compiled.exact_value()
            );
            // Determinism: replanning yields the identical structure.
            let again = planner.plan(&c);
            assert_eq!(format!("{plan:?}"), format!("{again:?}"));
        }
    }

    #[test]
    fn plan_keys_hash_content_not_identity() {
        let c = ladder(4);
        let obs = PauliString::from_label("ZZZZ");
        let planner = CutPlanner::new(2).with_overlap(0.9);
        // Stable across recomputation and across clones of the inputs.
        let k = planner.plan_key(&c, &obs);
        assert_eq!(k, planner.plan_key(&c.clone(), &obs.clone()));
        // Any semantic change to the request moves the key.
        assert_ne!(k, planner.plan_key(&c, &PauliString::from_label("ZZZI")));
        assert_ne!(k, CutPlanner::new(3).with_overlap(0.9).plan_key(&c, &obs));
        assert_ne!(k, CutPlanner::new(2).with_overlap(0.75).plan_key(&c, &obs));
        let mut c2 = c.clone();
        c2.rz(0.1, 0);
        assert_ne!(k, planner.plan_key(&c2, &obs));
    }

    #[test]
    fn plan_key_normalises_negative_zero_parameters() {
        let planner = CutPlanner::new(2);
        let obs = PauliString::from_label("ZZ");
        let mut a = Circuit::new(2, 0);
        a.rz(0.0, 0);
        let mut b = Circuit::new(2, 0);
        b.rz(-0.0, 0);
        assert_eq!(planner.plan_key(&a, &obs), planner.plan_key(&b, &obs));
    }

    #[test]
    fn plan_key_distinguishes_gate_variants_and_conditions() {
        let planner = CutPlanner::new(2);
        let obs = PauliString::from_label("ZZ");
        let mut a = Circuit::new(2, 1);
        a.x(0);
        let mut b = Circuit::new(2, 1);
        b.y(0);
        assert_ne!(planner.plan_key(&a, &obs), planner.plan_key(&b, &obs));
        let mut c = Circuit::new(2, 1);
        c.x_if(0, 0);
        assert_ne!(planner.plan_key(&a, &obs), planner.plan_key(&c, &obs));
    }

    /// A circuit touching every `Op` kind, every `Gate` variant, both
    /// condition values and `-0.0` parameters.
    fn every_op() -> Circuit {
        use qsim::Gate;
        let mut c = Circuit::new(3, 2);
        for g in [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::SX,
            Gate::Rx(0.1),
            Gate::Ry(-0.0),
            Gate::Rz(0.3),
            Gate::Phase(-0.4),
            Gate::U(0.5, 0.0, -0.6),
            Gate::Unitary1(Gate::H.matrix()),
        ] {
            c.gate(g, &[1]);
        }
        for g in [
            Gate::CX,
            Gate::CZ,
            Gate::CY,
            Gate::Swap,
            Gate::CPhase(0.7),
            Gate::Unitary2(Gate::CX.matrix()),
        ] {
            c.gate(g, &[2, 0]);
        }
        c.gate(
            Gate::Unitary(Gate::CX.matrix().kron(&Gate::H.matrix())),
            &[0, 1, 2],
        );
        c.measure(0, 1).reset(2).barrier();
        c.gate_if(Gate::X, &[1], 1, true)
            .gate_if(Gate::Rz(0.8), &[0], 0, false);
        c
    }

    #[test]
    fn plan_key_values_are_pinned() {
        // The key is every job's RNG stream id: re-encoding it would move
        // every pinned estimate, so its value is fixed across refactors.
        let planner = CutPlanner::new(2).with_overlap(0.8);
        let obs = PauliString::from_label("ZIZ");
        let key = planner.plan_key(&every_op(), &obs);
        assert_eq!(key, PlanKey(0x1f19_b3c6_ed08_c187));
        assert_eq!(
            PlanKey::of_words(&planner.plan_words(&every_op(), &obs)),
            key
        );
    }

    /// One sampled instruction: `(kind, qubit, params, condition)`.
    /// Kinds 0–22 are the `Gate` variants in declaration order, 23–25
    /// measure, reset and barrier; condition 0 is none, 1 and 2 require
    /// the bit to read 0 and 1.
    type SampledOp = (usize, usize, (f64, f64, f64), usize);

    fn sampled_circuit(num_qubits: usize, num_clbits: usize, ops: &[SampledOp]) -> Circuit {
        use qsim::{Condition, Gate, Instruction};
        let mut c = Circuit::new(num_qubits, num_clbits);
        for &(kind, q, (a, b, t), cond) in ops {
            let op = match kind {
                23 => Op::Measure {
                    qubit: q % num_qubits,
                    clbit: q % num_clbits,
                },
                24 => Op::Reset(q % num_qubits),
                25 => Op::Barrier,
                _ => {
                    let gate = match kind {
                        0 => Gate::I,
                        1 => Gate::X,
                        2 => Gate::Y,
                        3 => Gate::Z,
                        4 => Gate::H,
                        5 => Gate::S,
                        6 => Gate::Sdg,
                        7 => Gate::T,
                        8 => Gate::Tdg,
                        9 => Gate::SX,
                        10 => Gate::Rx(a),
                        11 => Gate::Ry(a),
                        12 => Gate::Rz(a),
                        13 => Gate::Phase(a),
                        14 => Gate::U(a, b, t),
                        15 => Gate::Unitary1(Gate::U(a, b, t).matrix()),
                        16 => Gate::CX,
                        17 => Gate::CZ,
                        18 => Gate::CY,
                        19 => Gate::Swap,
                        20 => Gate::CPhase(a),
                        21 => Gate::Unitary2(Gate::Rx(a).matrix().kron(&Gate::U(t, b, a).matrix())),
                        _ => Gate::Unitary(Gate::CPhase(b).matrix().kron(&Gate::Ry(t).matrix())),
                    };
                    let qubits = (0..gate.arity()).map(|i| (q + i) % num_qubits).collect();
                    Op::Gate(gate, qubits)
                }
            };
            let condition = (cond > 0).then(|| Condition {
                bit: q % num_clbits,
                value: cond == 2,
            });
            c.push(Instruction { op, condition });
        }
        c
    }

    /// Instruction lists for [`sampled_circuit`]: every kind, angles
    /// that include zeros of both signs, and all three conditions.
    fn sampled_ops() -> impl Strategy<Value = Vec<SampledOp>> {
        proptest::collection::vec(
            (
                0usize..26,
                0usize..6,
                (
                    prop_oneof![Just(0.0), Just(-0.0), -3.2f64..3.2],
                    -3.2f64..3.2,
                    prop_oneof![Just(-0.0), -3.2f64..3.2],
                ),
                0usize..3,
            ),
            0..24,
        )
    }

    /// Observable letters for [`sampled_observable`].
    fn sampled_paulis() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..4, 1..7)
    }

    /// The observable spelled by `paulis` (0–3 for I, X, Y, Z).
    fn sampled_observable(paulis: &[usize]) -> PauliString {
        use qsim::Pauli;
        PauliString::new(
            paulis
                .iter()
                .map(|&p| [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][p])
                .collect(),
        )
    }

    /// The first `f64` an instruction's key words carry: its gate's
    /// first angle, or the real part of its matrix's first element.
    fn first_param(instr: &mut Instruction) -> Option<&mut f64> {
        use qsim::Gate::*;
        match &mut instr.op {
            Op::Gate(Rx(t) | Ry(t) | Rz(t) | Phase(t) | CPhase(t) | U(t, _, _), _) => Some(t),
            Op::Gate(Unitary1(m) | Unitary2(m) | Unitary(m), _) => {
                Some(&mut m.as_mut_slice()[0].re)
            }
            _ => None,
        }
    }

    /// The operand of a single-qubit instruction.
    fn lone_qubit(instr: &mut Instruction) -> Option<&mut usize> {
        match &mut instr.op {
            Op::Gate(_, qubits) if qubits.len() == 1 => qubits.first_mut(),
            Op::Measure { qubit, .. } | Op::Reset(qubit) => Some(qubit),
            _ => None,
        }
    }

    /// `circuit` with its first instruction that `edit` accepts (returns
    /// `true` for) edited; `None` if `edit` accepts none.
    fn edit_first(
        circuit: &Circuit,
        mut edit: impl FnMut(&mut Instruction) -> bool,
    ) -> Option<Circuit> {
        let mut instructions = circuit.instructions().to_vec();
        if !instructions.iter_mut().any(&mut edit) {
            return None;
        }
        let mut c = Circuit::new(circuit.num_qubits(), circuit.num_clbits());
        for instr in instructions {
            c.push(instr);
        }
        Some(c)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn plan_words_hash_to_plan_key(
            num_qubits in 3usize..6,
            num_clbits in 1usize..3,
            ops in sampled_ops(),
            paulis in sampled_paulis(),
            width in 1usize..5,
            overlap in prop_oneof![Just(0.5), Just(1.0), 0.5f64..1.0],
        ) {
            let circuit = sampled_circuit(num_qubits, num_clbits, &ops);
            let observable = sampled_observable(&paulis);
            let planner = CutPlanner::new(width).with_overlap(overlap);
            let words = planner.plan_words(&circuit, &observable);
            prop_assert_eq!(PlanKey::of_words(&words), planner.plan_key(&circuit, &observable));
            // The buffer is sized up front: it only regrows for matrices
            // on three or more qubits (kind 22).
            if ops.iter().all(|op| op.0 != 22) {
                let sized = 6 + observable.num_qubits() + MAX_INSTRUCTION_WORDS * circuit.len();
                prop_assert_eq!(words.capacity(), sized);
            }
        }

        #[test]
        fn equal_requests_have_equal_plan_words(
            num_qubits in 3usize..6,
            num_clbits in 1usize..3,
            ops in sampled_ops(),
            paulis in sampled_paulis(),
        ) {
            // `run_jobs` serves a job its predecessor's plan when their
            // `(circuit, observable)` compare equal, so `==` must imply
            // equal key words; every perturbation but a ±0.0 swap must
            // break both.
            let planner = CutPlanner::new(2);
            let circuit = sampled_circuit(num_qubits, num_clbits, &ops);
            let observable = sampled_observable(&paulis);
            let request = |c: Circuit| (c, observable.clone());
            let base = request(circuit.clone());
            // (a, b, whether a == b must hold)
            let mut pairs = vec![(base.clone(), base.clone(), true)];
            let set = |f: fn(f64) -> f64| {
                edit_first(&circuit, |i| first_param(i).map(|x| *x = f(*x)).is_some())
            };
            let next_ulp = |x: f64| f64::from_bits(x.to_bits() + 1);
            let zeros = (set(|_| 0.0), set(|_| -0.0));
            if let (Some(bumped), (Some(plus), Some(minus))) = (set(next_ulp), zeros) {
                pairs.push((base.clone(), request(bumped), false));
                pairs.push((request(plus), request(minus), true));
            }
            let moved = edit_first(&circuit, |i| {
                lone_qubit(i).map(|q| *q = (*q + 1) % num_qubits).is_some()
            });
            let toggled = edit_first(&circuit, |i| {
                i.condition = Some(match i.condition {
                    Some(c) => qsim::Condition { value: !c.value, ..c },
                    None => qsim::Condition { bit: 0, value: true },
                });
                true
            });
            for c in [moved, toggled].into_iter().flatten() {
                pairs.push((base.clone(), request(c), false));
            }
            let mut letters = paulis.clone();
            letters[0] = (letters[0] + 1) % 4;
            pairs.push((base.clone(), (circuit.clone(), sampled_observable(&letters)), false));
            for (a, b, equal) in &pairs {
                let words = |r: &(Circuit, PauliString)| planner.plan_words(&r.0, &r.1);
                prop_assert_eq!(a == b, *equal);
                prop_assert_eq!(words(a) == words(b), *equal);
            }
        }
    }

    /// `compile` and the stitching oracle agree term by term to 1e-8.
    fn assert_matches_the_oracle(plan: &CutPlan, obs: &PauliString) {
        let compiled = CompiledPlan::compile(plan, obs);
        assert_eq!(compiled.fragment_summaries().len(), plan.fragments.len());
        let mono = CompiledPlan::compile_monolithic(plan, obs);
        assert_eq!(compiled.spec.len(), mono.spec.len());
        for (a, m) in compiled.exact_terms().iter().zip(mono.exact_terms()) {
            assert!((a - m).abs() < 1e-8, "contracted {a} vs monolithic {m}");
        }
    }

    #[test]
    fn auto_compile_selects_the_backend_by_plan_shape() {
        // Every plan shape contracts, and its per-term exacts agree with
        // the stitching oracle to 1e-8 (QPD bookkeeping aligned): a
        // unitary cut plan, ...
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&ladder(4));
        assert_matches_the_oracle(&plan, &PauliString::from_label("ZZZZ"));
        // ... a measurement with a fragment-local clbit (the block sums
        // over the outcome branches) ...
        let mut mc = Circuit::new(3, 1);
        mc.ry(0.4, 0).cx(0, 1).cx(1, 2).measure(2, 0);
        let plan = CutPlanner::new(2).plan(&mc);
        assert!(!plan.groups.is_empty());
        assert_matches_the_oracle(&plan, &PauliString::from_label("ZZI"));
        // ... and a clbit shared between fragments, which rides the
        // frontier as a classical axis.
        let mut ff = Circuit::new(3, 1);
        ff.ry(0.4, 0).cx(0, 1).measure(1, 0).cx(1, 2).x_if(2, 0);
        let plan = CutPlanner::new(2).plan(&ff);
        assert!(!plan.groups.is_empty());
        assert_eq!(crate::contract::contraction_ineligibility(&plan), None);
        assert_matches_the_oracle(&plan, &PauliString::from_label("ZZI"));
    }

    /// The plan shapes the contraction once left to stitching: a clbit
    /// shared between fragments (cross-fragment feed-forward) and a plan
    /// with nothing to cut.
    fn fallback_plans() -> [(CutPlan, PauliString); 2] {
        let mut ff = Circuit::new(3, 1);
        ff.ry(0.4, 0).cx(0, 1).measure(1, 0).cx(1, 2).x_if(2, 0);
        [
            (CutPlanner::new(2).plan(&ff), PauliString::from_label("ZZI")),
            (
                CutPlanner::new(3).plan(&ladder(3)),
                PauliString::from_label("ZZZ"),
            ),
        ]
    }

    #[test]
    fn fallback_plan_terms_draw_from_the_one_term_law() {
        // A term's batched draw is the binomial its exact value fixes,
        // on the RNG words a per-call `qsample::binomial` reads: no
        // multinomial over any circuit's branch leaves comes first.
        for (plan, obs) in fallback_plans() {
            let compiled = CompiledPlan::compile(&plan, &obs);
            for (i, term) in compiled.plan_terms().iter().enumerate() {
                let p_plus = ((1.0 + term.exact_expectation()) / 2.0).clamp(0.0, 1.0);
                let mut rng = qsample::StreamRng::new(0xFA11, i as u64);
                let mut oracle = rng.clone();
                for n in [0, 1, 7, 4096] {
                    let plus = qsample::binomial(n, p_plus, &mut oracle);
                    assert_eq!(
                        term.sample_observable_sum(n, &mut rng).to_bits(),
                        (2.0 * plus as f64 - n as f64).to_bits(),
                        "term {i}, {n} shots"
                    );
                }
                assert_eq!(rng.position(), oracle.position(), "term {i}");
            }
        }
    }

    #[test]
    fn compiled_plans_store_the_summed_exact_value() {
        // The exact value is summed once at compile time, by the same
        // `qpd::exact_value` an estimator would run over the terms.
        let ladder_plan = CutPlanner::new(2).with_overlap(0.8).plan(&ladder(4));
        let cases = fallback_plans()
            .into_iter()
            .chain([(ladder_plan, PauliString::from_label("ZZZZ"))]);
        for (plan, obs) in cases {
            let uncut = uncut_plan_expectation(plan.circuit(), &obs);
            let compiled = [
                CompiledPlan::compile(&plan, &obs),
                CompiledPlan::compile_monolithic(&plan, &obs),
            ];
            for c in &compiled {
                let summed = qpd::exact_value(&c.spec, c.plan_terms());
                assert_eq!(c.exact_value().to_bits(), summed.to_bits());
                assert!((c.exact_value() - uncut).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn contracted_backend_report_counts_fragment_variants() {
        let c = ladder(4);
        let obs = PauliString::from_label("ZZZZ");
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        let compiled = CompiledPlan::compile(&plan, &obs);
        let r = compiled.backend_report();
        let variants: usize = compiled
            .fragment_summaries()
            .iter()
            .map(|s| s.variants)
            .sum();
        assert_eq!(r.terms, variants);
        assert!(r.total_instructions > 0);
        // Σ 6^incoming is far below the Π terms the monolithic path
        // would compile once the plan has a few cuts.
        assert!(variants >= plan.fragments.len());
    }

    #[test]
    fn plan_estimate_converges_with_sampling() {
        let c = ladder(4);
        let obs = PauliString::from_label("ZZZZ");
        let plan = CutPlanner::new(2).with_overlap(0.9).plan(&c);
        let compiled = CompiledPlan::compile(&plan, &obs);
        let exact = compiled.exact_value();
        let mut rng = StdRng::seed_from_u64(17);
        let reps = 30;
        let mean: f64 = (0..reps)
            .map(|_| {
                qpd::estimate_allocated(
                    &compiled.spec,
                    compiled.plan_terms(),
                    2000,
                    qpd::Allocator::Proportional,
                    &mut rng,
                )
            })
            .sum::<f64>()
            / reps as f64;
        // SE ≈ κ/√(reps·shots); κ ≈ 1.9 ⇒ SE ≈ 0.008. Allow ~5σ.
        assert!((mean - exact).abs() < 0.05, "mean {mean} vs exact {exact}");
    }
}
