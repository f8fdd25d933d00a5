//! **E17 — the arbitrary-circuit cut planner, end to end** (ROADMAP
//! "Cut-planner for arbitrary circuits"): random unitary circuits are
//! fragmented under a width budget by [`wirecut::planner::CutPlanner`],
//! the derived multi-cut set (subsequent wires, repeated cuts per wire)
//! is compiled into one product-QPD execution plan, and the sampled
//! estimates are verified against the **uncut statevector expectation**
//! with the suite's 5σ Wilson-band statistics.
//!
//! The sweep axis is the resource overlap `f`: each grid row shows how
//! the planner's protocol mix (NME teleportation vs joint MUB
//! measure-and-prepare, chosen per group from the κ crossover
//! `f*(n)` — [`wirecut::planner::crossover_overlap`]) and the plan
//! overhead `κ = Π κ(group)` respond to the available entanglement,
//! while `plan_exact_dev` pins the compiled decomposition to the uncut
//! value exactly (≈ 1e−15, the planner's defining identity).
//!
//! Circuits ride a circuit-index-keyed shared stream so every overlap
//! plans the **same** circuit family (paired design), and the whole
//! `(f, circuit)` grid is sharded by [`qsample::grid::ShardedGrid`] — the
//! CSV is byte-identical for any thread count. Plans compile through
//! the **contracted fragment blocks** (`wirecut::contract`, cost
//! `Σ variants(fragment)`), so the cut count no longer drives an
//! exponential stitching bill; circuits are still deterministically
//! resampled into a bounded cut band so the sweep's κ (and hence its
//! shot noise) stays comparable across rows (the resampling happens
//! inside the shared stream, so it is itself thread-invariant). The
//! trailing `clifford_fraction` / `prefix_hit_rate` /
//! `frontier_savings` columns surface [`CompiledPlan::backend_report`]:
//! how much of the compiled work rode the stabilizer fast path, and how
//! much frontier work the prefix-cached odometer sweep saved over a
//! cache-disabled evaluation.
//!
//! Run via `cargo run --release -p experiments --bin plan_cut`
//! (writes `results/plan_cut.csv`).

use crate::csvout::Table;
use crate::stats::{qpd_wilson_band, RunningStats};
use qpd::Allocator;
use qsample::grid::ShardedGrid;
use qsim::{random_unitary_circuit, Circuit, PauliString};
use wirecut::planner::{uncut_plan_expectation, CompiledPlan, CutPlan, CutPlanner, Protocol};

/// Stream tag for the circuit lane, shared across overlaps so every `f`
/// plans the same circuits.
const CIRCUIT_STREAM: u64 = 0xE17;

/// Configuration of the planner sweep.
#[derive(Clone, Debug)]
pub struct PlanCutConfig {
    /// Qubits per random circuit.
    pub num_qubits: usize,
    /// Gates per random circuit.
    pub gates: usize,
    /// Fragment-width budget handed to the planner (< `num_qubits`).
    pub width_budget: usize,
    /// Resource overlaps swept (each `∈ [1/2, 1]`).
    pub overlaps: Vec<f64>,
    /// Largest plan cut count accepted by the tractability resampler.
    pub max_cuts: usize,
    /// Shot budget per estimate.
    pub shots: u64,
    /// Random circuits per overlap.
    pub num_circuits: usize,
    /// Estimates per circuit.
    pub repetitions: usize,
    /// Wilson-band z-score (5.0 = the suite's 5σ convention).
    pub band_z: f64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for PlanCutConfig {
    fn default() -> Self {
        Self {
            num_qubits: 4,
            gates: 6,
            width_budget: 3,
            overlaps: vec![0.52, 0.62, 0.75, 0.9, 1.0],
            max_cuts: 4,
            shots: 2048,
            num_circuits: 6,
            repetitions: 16,
            band_z: 5.0,
            seed: 1701,
            threads: 0,
        }
    }
}

/// Draws random unitary circuits from `rng` until the planner produces a
/// plan with `1..=max_cuts` cuts (keeping κ — and with it the sweep's
/// shot noise — in a comparable band across cells; compilation itself is
/// no longer the binding constraint since plans contract).
/// Deterministic given the stream: the accepted circuit is a pure
/// function of the draws.
pub fn tractable_random_circuit<R: rand::Rng>(
    num_qubits: usize,
    gates: usize,
    planner: &CutPlanner,
    max_cuts: usize,
    rng: &mut R,
) -> (Circuit, CutPlan) {
    for _ in 0..200 {
        let circuit = random_unitary_circuit(num_qubits, gates, rng);
        let plan = planner.plan(&circuit);
        if (1..=max_cuts).contains(&plan.num_cuts()) {
            return (circuit, plan);
        }
    }
    panic!("no tractable circuit after 200 draws (qubits {num_qubits}, gates {gates})");
}

struct PlanCutCell {
    fragments: f64,
    cuts: f64,
    joint_groups: f64,
    total_groups: f64,
    kappa: f64,
    exact_dev: f64,
    mean_abs_error: f64,
    band_halfwidth: f64,
    covered_fraction: f64,
    clifford_fraction: f64,
    prefix_hit_rate: f64,
    frontier_savings: f64,
}

/// Runs the sweep. Columns: `(f, fragments, cuts, joint_share, kappa,
/// plan_exact_dev, mean_abs_error, wilson_halfwidth, band_coverage,
/// clifford_fraction, prefix_hit_rate, frontier_savings)`, one row per
/// overlap, averaged over the shared circuit family. `prefix_hit_rate`
/// is the fraction of odometer digits whose partial frontier the sweep
/// served from the prefix cache, and `frontier_savings` the resulting
/// `frontier_ops_uncached / frontier_ops` payoff factor.
pub fn run(config: &PlanCutConfig) -> Table {
    let mut t = Table::new(&[
        "f",
        "fragments",
        "cuts",
        "joint_share",
        "kappa",
        "plan_exact_dev",
        "mean_abs_error",
        "wilson_halfwidth",
        "band_coverage",
        "clifford_fraction",
        "prefix_hit_rate",
        "frontier_savings",
    ]);
    assert!(config.width_budget < config.num_qubits);
    let label: String = "Z".repeat(config.num_qubits);
    let cells: Vec<(f64, u64)> = config
        .overlaps
        .iter()
        .flat_map(|&f| (0..config.num_circuits as u64).map(move |s| (f, s)))
        .collect();
    let per_cell: Vec<PlanCutCell> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(f, s), ctx| {
            let planner = CutPlanner::new(config.width_budget).with_overlap(f);
            let (circuit, plan) = tractable_random_circuit(
                config.num_qubits,
                config.gates,
                &planner,
                config.max_cuts,
                &mut ctx.shared(&(CIRCUIT_STREAM, s)),
            );
            let observable = PauliString::from_label(&label);
            let uncut = uncut_plan_expectation(&circuit, &observable);
            let compiled = CompiledPlan::compile(&plan, &observable);
            let report = compiled.report().clone();
            let exact_terms = compiled.exact_terms();
            let band = qpd_wilson_band(&compiled.spec, &exact_terms, config.shots, config.band_z);
            let mut err = RunningStats::new();
            let mut covered = 0usize;
            let rng = ctx.rng();
            for _ in 0..config.repetitions {
                let est = qpd::estimate_allocated(
                    &compiled.spec,
                    &compiled.samplers(),
                    config.shots,
                    Allocator::Proportional,
                    rng,
                );
                let e = (est - uncut).abs();
                err.push(e);
                if e <= band {
                    covered += 1;
                }
            }
            let backend = compiled.backend_report();
            PlanCutCell {
                fragments: report.num_fragments as f64,
                cuts: report.num_cuts as f64,
                joint_groups: report
                    .groups
                    .iter()
                    .filter(|g| g.protocol == Protocol::JointMub)
                    .count() as f64,
                total_groups: report.groups.len() as f64,
                kappa: report.kappa,
                exact_dev: (compiled.exact_value() - uncut).abs(),
                mean_abs_error: err.mean(),
                band_halfwidth: band,
                covered_fraction: covered as f64 / config.repetitions as f64,
                clifford_fraction: backend.clifford_fraction(),
                prefix_hit_rate: backend.prefix_hit_rate(),
                frontier_savings: backend.frontier_savings(),
            }
        });
    for (fi, &f) in config.overlaps.iter().enumerate() {
        let block = &per_cell[fi * config.num_circuits..(fi + 1) * config.num_circuits];
        let mut frag = RunningStats::new();
        let mut cuts = RunningStats::new();
        let mut kappa = RunningStats::new();
        let mut err = RunningStats::new();
        let mut band = RunningStats::new();
        let mut cov = RunningStats::new();
        let mut cliff = RunningStats::new();
        let mut hit_rate = RunningStats::new();
        let mut savings = RunningStats::new();
        let mut dev = 0.0f64;
        let (mut joint, mut total) = (0.0, 0.0);
        for cell in block {
            frag.push(cell.fragments);
            cuts.push(cell.cuts);
            kappa.push(cell.kappa);
            err.push(cell.mean_abs_error);
            band.push(cell.band_halfwidth);
            cov.push(cell.covered_fraction);
            cliff.push(cell.clifford_fraction);
            hit_rate.push(cell.prefix_hit_rate);
            savings.push(cell.frontier_savings);
            dev = dev.max(cell.exact_dev);
            joint += cell.joint_groups;
            total += cell.total_groups;
        }
        t.push_row(vec![
            f,
            frag.mean(),
            cuts.mean(),
            if total > 0.0 { joint / total } else { 0.0 },
            kappa.mean(),
            dev,
            err.mean(),
            band.mean(),
            cov.mean(),
            cliff.mean(),
            hit_rate.mean(),
            savings.mean(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PlanCutConfig {
        PlanCutConfig {
            num_qubits: 3,
            gates: 5,
            width_budget: 2,
            overlaps: vec![0.52, 0.9],
            max_cuts: 2,
            shots: 1024,
            num_circuits: 3,
            repetitions: 8,
            seed: 23,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_populates_one_row_per_overlap() {
        let t = run(&small());
        assert_eq!(t.rows().len(), 2);
        for row in t.rows() {
            assert!(row[1] >= 2.0, "fragments {row:?}");
            assert!((1.0..=2.0).contains(&row[2]), "cuts {row:?}");
            assert!(row[4] >= 1.0, "kappa {row:?}");
        }
    }

    #[test]
    fn plan_decomposition_is_exact() {
        let t = run(&small());
        for row in t.rows() {
            assert!(row[5] < 1e-8, "plan_exact_dev {} at f={}", row[5], row[0]);
        }
    }

    #[test]
    fn bands_cover_the_estimates() {
        let t = run(&small());
        for row in t.rows() {
            assert!(row[8] > 0.95, "coverage {} at f={}", row[8], row[0]);
            assert!(row[7] > 0.0, "degenerate band at f={}", row[0]);
        }
    }

    #[test]
    fn backend_columns_report_the_contracted_lift() {
        // The clifford_fraction and prefix_hit_rate columns (from
        // `backend_report()`) must be valid fractions, and the prefix
        // cache can only save frontier work.
        let t = run(&small());
        for row in t.rows() {
            assert!(
                (0.0..=1.0).contains(&row[9]),
                "clifford_fraction {} at f={}",
                row[9],
                row[0]
            );
            assert!(
                (0.0..=1.0).contains(&row[10]),
                "prefix_hit_rate {} at f={}",
                row[10],
                row[0]
            );
            assert!(
                row[11] >= 1.0,
                "frontier_savings {} at f={}",
                row[11],
                row[0]
            );
        }
    }

    #[test]
    fn lower_overlap_never_cheapens_the_plan() {
        // κ is non-increasing in f for the same circuit family.
        let t = run(&small());
        let rows = t.rows();
        assert!(
            rows[0][4] >= rows[1][4] - 1e-9,
            "κ at f=0.52 ({}) below κ at f=0.9 ({})",
            rows[0][4],
            rows[1][4]
        );
    }
}
