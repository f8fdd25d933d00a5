//! **E18 — cutting-as-a-service under load** (ROADMAP
//! "Cutting-as-a-service: async job engine + compiled-plan cache"): a
//! fleet of estimation jobs — many seeds × two allocation modes over a
//! family of planner-cut random circuits — is pushed through one shared
//! [`wirecut::service::CutService`], exercising the compiled-plan cache
//! (each circuit compiles once, every other job is a cache hit) and the
//! work-stealing fleet scheduler end to end.
//!
//! The scientific axis is the **sequential-allocation payoff**: for each
//! circuit the realised estimator variance of
//! [`wirecut::service::AllocationMode::Sequential`] (per-batch Neyman
//! re-allocation from observed σ̂) is compared against the paper's
//! static proportional split at equal total shots. Terms of a cut plan
//! whose expectations sit near ±1 have small σ, so the sequential
//! allocator reroutes their shots to noisier terms; `var_ratio ≤ ~1`
//! quantifies the payoff per circuit.
//!
//! The CSV is deterministic — every job's result is a pure function of
//! `(seed, plan)` by the service contract, circuits ride
//! content-keyed streams, and rows aggregate in submission order — so
//! `tests/sharding_determinism.rs` pins it byte-identical across thread
//! counts. Timing/throughput figures are deliberately **not** columns
//! (they vary run to run); the binary prints them to stdout instead.
//!
//! Run via `cargo run --release -p experiments --bin service_load`
//! (writes `results/service_load.csv`).

use crate::csvout::Table;
use crate::plan_cut::tractable_random_circuit;
use crate::stats::RunningStats;
use qsample::grid::keyed_stream;
use qsample::KeyHasher;
use qsim::PauliString;
use wirecut::planner::CutPlanner;
use wirecut::service::{AllocationMode, CutService, EstimationJob};

/// Stream tag for the circuit lane (disjoint from every other
/// experiment's tags).
const CIRCUIT_STREAM: u64 = 0xE18;

/// Configuration of the service-load experiment.
#[derive(Clone, Debug)]
pub struct ServiceLoadConfig {
    /// Qubits per random circuit.
    pub num_qubits: usize,
    /// Gates per random circuit.
    pub gates: usize,
    /// Fragment-width budget handed to the planner.
    pub width_budget: usize,
    /// Resource overlap assumed by the planner.
    pub overlap: f64,
    /// Largest plan cut count accepted by the tractability resampler.
    pub max_cuts: usize,
    /// Number of distinct circuits (= distinct cached plans).
    pub num_circuits: usize,
    /// Shot budget per job.
    pub shots: u64,
    /// Batches per job (sequential allocation re-plans after each).
    pub batches: u64,
    /// Jobs per (circuit, allocation mode) — the variance sample size.
    pub repetitions: u64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for ServiceLoadConfig {
    fn default() -> Self {
        Self {
            num_qubits: 4,
            gates: 6,
            width_budget: 3,
            overlap: 0.9,
            max_cuts: 2,
            num_circuits: 4,
            shots: 2048,
            batches: 4,
            repetitions: 24,
            seed: 0xE18,
            threads: 0,
        }
    }
}

/// Deterministic per-job seed: content hash of (base, circuit, rep).
/// The two modes of one `(circuit, rep)` cell share a seed on purpose —
/// their first batches are then identical draws (sequential allocation
/// starts proportional), so the variance comparison is a paired design.
fn job_seed(base: u64, circuit: u64, rep: u64) -> u64 {
    let mut h = KeyHasher::new();
    h.absorb(base);
    h.absorb(circuit);
    h.absorb(rep);
    h.finish()
}

/// Builds the deterministic job fleet for `config`: per circuit,
/// `repetitions` seeds × {static proportional, sequential}. Exposed so
/// the throughput benches drive the exact experiment workload.
pub fn build_jobs(config: &ServiceLoadConfig) -> Vec<EstimationJob> {
    let planner = CutPlanner::new(config.width_budget).with_overlap(config.overlap);
    let label: String = "Z".repeat(config.num_qubits);
    let observable = PauliString::from_label(&label);
    let mut jobs = Vec::new();
    for c in 0..config.num_circuits as u64 {
        let mut rng = keyed_stream(config.seed, &(CIRCUIT_STREAM, c));
        let (circuit, _plan) = tractable_random_circuit(
            config.num_qubits,
            config.gates,
            &planner,
            config.max_cuts,
            &mut rng,
        );
        for rep in 0..config.repetitions {
            for mode in [
                AllocationMode::StaticProportional,
                AllocationMode::Sequential,
            ] {
                jobs.push(
                    EstimationJob::new(
                        circuit.clone(),
                        observable.clone(),
                        config.shots,
                        job_seed(config.seed, c, rep),
                    )
                    .with_batches(config.batches)
                    .with_mode(mode),
                );
            }
        }
    }
    jobs
}

/// Runs the experiment. Columns: `(circuit, cuts, kappa, exact,
/// static_mean_err, static_var, seq_mean_err, seq_var, var_ratio,
/// compiled_units, prefix_hit_rate, frontier_savings)` — one row per
/// circuit, statistics over the job repetitions. The trailing columns
/// surface the cached plan's [`wirecut::planner::BackendReport`]: how
/// many circuit units it compiled (`Σ variants(fragment)` — the
/// quantity the compiled-plan cache amortises across the fleet), what
/// fraction of odometer digits its prefix-cached sweep served from the
/// partial frontier stack, and the resulting frontier-multiplication
/// payoff over a cache-disabled evaluation.
pub fn run(config: &ServiceLoadConfig) -> Table {
    let mut t = Table::new(&[
        "circuit",
        "cuts",
        "kappa",
        "exact",
        "static_mean_err",
        "static_var",
        "seq_mean_err",
        "seq_var",
        "var_ratio",
        "compiled_units",
        "prefix_hit_rate",
        "frontier_savings",
    ]);
    let service =
        CutService::new(CutPlanner::new(config.width_budget).with_overlap(config.overlap));
    let jobs = build_jobs(config);
    let outcomes = service.run_jobs(&jobs, config.threads);
    let per_circuit = 2 * config.repetitions as usize;
    for c in 0..config.num_circuits {
        let block = &outcomes[c * per_circuit..(c + 1) * per_circuit];
        let exact = block[0].exact;
        let kappa = block[0].kappa;
        // Cut count and backend counters are plan-level: read them off
        // the plan the service cached, via a fresh key lookup.
        let (plan, _, _) = service.compiled(
            &jobs[c * per_circuit].circuit,
            &jobs[c * per_circuit].observable,
        );
        let cuts = plan.report().num_cuts as f64;
        let backend = plan.backend_report();
        let mut stat_est = RunningStats::new();
        let mut seq_est = RunningStats::new();
        let mut stat_err = RunningStats::new();
        let mut seq_err = RunningStats::new();
        for pair in block.chunks(2) {
            // Submission order within a cell: static first, then
            // sequential (see build_jobs).
            stat_est.push(pair[0].estimate);
            stat_err.push((pair[0].estimate - exact).abs());
            seq_est.push(pair[1].estimate);
            seq_err.push((pair[1].estimate - exact).abs());
        }
        let sv = stat_est.variance();
        let qv = seq_est.variance();
        t.push_row(vec![
            c as f64,
            cuts,
            kappa,
            exact,
            stat_err.mean(),
            sv,
            seq_err.mean(),
            qv,
            if sv > 0.0 { qv / sv } else { 1.0 },
            backend.terms as f64,
            backend.prefix_hit_rate(),
            backend.frontier_savings(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServiceLoadConfig {
        ServiceLoadConfig {
            num_qubits: 3,
            gates: 5,
            width_budget: 2,
            max_cuts: 2,
            num_circuits: 2,
            shots: 1024,
            repetitions: 8,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn one_row_per_circuit_with_sane_stats() {
        let t = run(&small());
        assert_eq!(t.rows().len(), 2);
        for row in t.rows() {
            assert!((1.0..=2.0).contains(&row[1]), "cuts {row:?}");
            assert!(row[2] >= 1.0, "kappa {row:?}");
            assert!(row[9] >= 1.0, "compiled units {row:?}");
            assert!((0.0..=1.0).contains(&row[10]), "prefix_hit_rate {row:?}");
            assert!(row[11] >= 1.0, "frontier_savings {row:?}");
            assert!(row[4] >= 0.0 && row[6] >= 0.0, "errors {row:?}");
            assert!(row[5] > 0.0 && row[7] > 0.0, "variances {row:?}");
            // Realised errors stay within a few κ/√shots of exact.
            let se = row[2] / (1024f64).sqrt();
            assert!(row[4] < 6.0 * se, "static err {} vs SE {se}", row[4]);
            assert!(row[6] < 6.0 * se, "seq err {} vs SE {se}", row[6]);
        }
    }

    #[test]
    fn csv_is_thread_count_invariant() {
        let a = run(&ServiceLoadConfig {
            threads: 1,
            ..small()
        });
        let b = run(&ServiceLoadConfig {
            threads: 7,
            ..small()
        });
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn sequential_never_blows_up_the_variance() {
        // The sharp ≤-comparison lives in tests/service_determinism.rs
        // on a purpose-built asymmetric workload; random circuits have
        // near-symmetric per-term σ, so here just pin that adaptivity is
        // not pathological. 24 repetitions keep the (deterministic)
        // variance-ratio estimates out of the small-sample noise floor.
        let t = run(&ServiceLoadConfig {
            repetitions: 24,
            ..small()
        });
        for row in t.rows() {
            assert!(row[8] < 2.0, "var_ratio {} at circuit {}", row[8], row[0]);
        }
    }
}
