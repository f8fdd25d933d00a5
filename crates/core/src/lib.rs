//! # wirecut — wire cutting with non-maximally entangled states
//!
//! The primary contribution of Bechtold, Barzen, Leymann & Mandl,
//! *Cutting a Wire with Non-Maximally Entangled States* (IPPS 2024,
//! arXiv:2403.09690), implemented end to end:
//!
//! * [`theory`] — Theorem 1 (`γ^ρ(I) = 2/f(ρ) − 1`), Corollary 1 and the
//!   Theorem 2 coefficients in closed form.
//! * [`teleport`] — the teleportation protocol with arbitrary resource
//!   states and its induced Pauli channel (Eq. 21–22, 59).
//! * [`nme`] — **the Theorem 2 cut** attaining the optimal overhead with
//!   pure `|Φ_k⟩` resources, plus the teleportation passthrough baseline.
//! * [`harada`] / [`peng`] — the entanglement-free baselines (γ = 3 and
//!   κ = 4).
//! * [`term`] / [`executor`] — the cut abstraction, exact channel-level
//!   verification, and compilation into `qpd` estimators (each term
//!   circuit simulated once; its exact value fixes its ±1 law).
//! * [`mixed`] — extension (paper §VI future work): Bell-diagonal/Werner
//!   resource states via Pauli-channel inversion, plus the
//!   distill-then-cut pipeline ([`mixed::DistillThenCut`]) composing
//!   DEJMPS/BBPSSW recurrence rounds with the inversion cut.
//! * [`multi`] — extension: cutting several parallel wires
//!   (κ = Π κᵢ, the paper's §VI exponential-overhead motivation).
//! * [`mub`] — complete MUB sets for `d = 2ⁿ` via the Galois-field /
//!   commuting-Pauli-partition construction (deterministic, memoized).
//! * [`joint`] — extension: joint multi-wire cutting via mutually
//!   unbiased bases (κ = 2^{n+1} − 1 for any `n`, reference \[26\] and
//!   arXiv:2406.13315).
//! * [`joint_nme`] — numerical exploration of the §VI open question:
//!   joint cutting **with** `|Φ_k⟩` resource pairs (basis-pursuit over an
//!   LOCC term family in the Pauli-transfer picture).
//! * [`gatecut`] — context: a CZ gate-cutting baseline (γ = 3).
//! * [`planner`] — the arbitrary-circuit cut planner: width-bounded
//!   fragmentation, multi-cut derivation (subsequent wires, repeated
//!   cuts), κ-crossover NME-vs-MUB protocol choice, and compilation into
//!   one product-QPD execution plan of `qpd::BernoulliTerm`s.
//! * [`contract`] — per-fragment tensor-block compilation: each fragment
//!   compiles once per local boundary-role variant and product terms are
//!   evaluated by Pauli-transfer contraction (`Σ variants` circuits
//!   instead of `Π terms`), the planner's one compile path; classical
//!   bits crossing fragments ride the frontier as free classical axes.
//! * [`service`] — cutting as a service: an estimation-job engine with a
//!   content-addressed compiled-plan cache ([`planner::PlanKey`]),
//!   streaming per-batch partial estimates, sequential
//!   (variance-adaptive) shot allocation, and work-stealing fleet
//!   execution, deterministic given `(seed, plan)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod executor;
pub mod gatecut;
pub mod harada;
pub mod joint;
pub mod joint_nme;
pub mod mixed;
pub mod mub;
pub mod multi;
pub mod nme;
pub mod peng;
pub mod planner;
pub mod service;
pub mod teleport;
pub mod term;
pub mod theory;

pub use contract::{
    contraction_ineligibility, FragmentBlockSummary, FragmentBlocks, FrontierSweep, SweepStats,
    MAX_INCOMING, MAX_JOINT_WIRES,
};
pub use executor::{uncut_expectation, PreparedCut};
pub use harada::HaradaCut;
pub use joint::JointWireCut;
pub use joint_nme::{NmeJointCut, NmeJointSolution};
pub use mixed::{BellDiagonalCut, DistillThenCut, OverheadMetric};
pub use nme::{NmeCut, TeleportationPassthrough};
pub use peng::PengCut;
pub use planner::{
    uncut_plan_expectation, BackendReport, CompiledPlan, CutGroup, CutPlan, CutPlanner, PlanKey,
    PlanReport, PlannedCut, Protocol,
};
pub use service::{AllocationMode, BatchUpdate, CutService, EstimationJob, JobOutcome};
pub use term::{identity_distance, reconstructed_channel, term_channel, CutTerm, WireCut};
