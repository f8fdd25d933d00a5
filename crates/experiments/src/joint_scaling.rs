//! **E13 — joint multi-wire scaling and the κ crossover map** (ROADMAP
//! "Joint multi-wire scaling"; extension paper arXiv:2406.13315).
//!
//! Three tables answer "when is *joint* cutting worth it?" for `n` wires:
//!
//! 1. [`crossover_table`] — closed-form κ map over wire count `n` and
//!    entanglement level `f`: the entanglement-free joint optimum
//!    `κ_joint = 2^{n+1} − 1`, the Theorem 1 independent-cut optimum
//!    `κ_indep = γ(f)ⁿ = (2/f − 1)ⁿ`, and the crossover level
//!    `f*(n) = 2/((2^{n+1} − 1)^{1/n} + 1)`
//!    ([`wirecut::planner::crossover_overlap`], the planner's own
//!    protocol switch) above which independent NME cuts beat the
//!    maximally-entangled-free joint cut. `κ_joint` grows like `2·2ⁿ`
//!    while `κ_indep` grows like `γⁿ`, so the joint scheme
//!    wins exactly when `γ > (2^{n+1} − 1)^{1/n} → 2` — i.e. whenever the
//!    available entanglement is weak (`f < f* → 2/3`).
//! 2. [`nme_sweep_table`] — the open-theory exploration: the achieved
//!    1-norm of the **joint NME** family
//!    ([`wirecut::joint_nme::explore_joint_nme`]) per `(n, f)`, against
//!    both baselines, with feasibility residual and expected pair
//!    consumption.
//! 3. [`shots_table`] — finite-shot validation on GHZ-type sender states:
//!    measured estimation error of joint vs independent cutting across a
//!    `10² … 10⁵` shot grid, all through the batched
//!    `TermSampler::sample_observable_sum` path.
//!
//! Run via `cargo run --release -p experiments --bin joint_scaling`
//! (writes `results/joint_scaling_{crossover,nme,shots}.csv`).

use crate::csvout::Table;
use crate::stats::RunningStats;
use entangle::PhiK;
use qpd::{estimate_allocated, Allocator};
use qsample::grid::ShardedGrid;
use qsim::{Circuit, PauliString};
use rand::Rng;
use wirecut::joint::JointWireCut;
use wirecut::joint_nme::explore_joint_nme;
use wirecut::multi::ParallelWireCut;
use wirecut::planner::crossover_overlap;
use wirecut::theory;
use wirecut::{CutTerm, NmeCut, PreparedCut, WireCut};

/// Configuration of the joint-scaling study.
#[derive(Clone, Debug)]
pub struct JointScalingConfig {
    /// Wire counts for the closed-form crossover map.
    pub max_wires: usize,
    /// Wire counts for the (more expensive) NME-family exploration.
    pub nme_max_wires: usize,
    /// Entanglement levels `f` swept in both κ tables.
    pub overlaps: Vec<f64>,
    /// Wire counts for the finite-shot comparison.
    pub shot_wires: Vec<usize>,
    /// Shot budgets of the finite-shot comparison.
    pub shot_grid: Vec<u64>,
    /// Random sender states averaged over per configuration.
    pub num_states: usize,
    /// Estimates per state and budget.
    pub repetitions: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for JointScalingConfig {
    fn default() -> Self {
        Self {
            max_wires: 5,
            nme_max_wires: 4,
            overlaps: vec![0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0],
            shot_wires: vec![1, 2, 3],
            shot_grid: vec![100, 1_000, 10_000, 100_000],
            num_states: 6,
            repetitions: 10,
            seed: 2407,
            threads: 0,
        }
    }
}

/// Stream tag for the sender-state lane, shared across wire counts so
/// every `n` compares the same family of sender angles.
const STATE_STREAM: u64 = 0x1357;

/// Closed-form κ map. Columns: `(wires, f, k, kappa_joint, kappa_indep,
/// crossover_f, indep_wins)` — `indep_wins` is 1 when `γ(f)ⁿ < 2^{n+1}−1`.
pub fn crossover_table(config: &JointScalingConfig) -> Table {
    let mut t = Table::new(&[
        "wires",
        "f",
        "k",
        "kappa_joint",
        "kappa_indep",
        "crossover_f",
        "indep_wins",
    ]);
    for n in 1..=config.max_wires {
        let joint = JointWireCut::new(n).kappa();
        let f_star = crossover_overlap(n);
        for &f in &config.overlaps {
            let k = PhiK::from_overlap(f).k();
            let indep = theory::gamma_from_overlap(f).powi(n as i32);
            t.push_row(vec![
                n as f64,
                f,
                k,
                joint,
                indep,
                f_star,
                f64::from(indep < joint),
            ]);
        }
    }
    t
}

/// NME joint-cut exploration sweep. Columns: `(wires, f, k,
/// kappa_nme_joint, kappa_indep, kappa_joint_me, residual,
/// pairs_per_sample)`. `kappa_nme_joint` is the achieved 1-norm of the
/// basis-pursuit solve over the Tel/MeasPrep/Flip family — an upper bound
/// on the (open) optimal joint-NME overhead.
pub fn nme_sweep_table(config: &JointScalingConfig) -> Table {
    let mut t = Table::new(&[
        "wires",
        "f",
        "k",
        "kappa_nme_joint",
        "kappa_indep",
        "kappa_joint_me",
        "residual",
        "pairs_per_sample",
    ]);
    let cases: Vec<(usize, f64)> = (1..=config.nme_max_wires)
        .flat_map(|n| config.overlaps.iter().map(move |&f| (n, f)))
        .collect();
    // Configuration-level shards: the n = 4 solves cost orders of
    // magnitude more than n = 1, which is exactly what the engine's
    // work stealing absorbs.
    let rows = ShardedGrid::new(cases, config.seed)
        .with_threads(config.threads)
        .run(|&(n, f), _| {
            let k = PhiK::from_overlap(f).k();
            let sol = explore_joint_nme(n, k);
            vec![
                n as f64,
                f,
                k,
                sol.kappa,
                theory::gamma_from_overlap(f).powi(n as i32),
                JointWireCut::new(n).kappa(),
                sol.residual,
                sol.pairs_per_sample,
            ]
        });
    for row in rows {
        t.push_row(row);
    }
    t
}

fn ghz_sender(w: usize, theta: f64) -> Circuit {
    let mut c = Circuit::new(w, 0);
    c.ry(theta, 0);
    for q in 0..w.saturating_sub(1) {
        c.cx(q, q + 1);
    }
    c
}

fn exact_all_z(prep: &Circuit) -> f64 {
    let mut sv = qsim::StateVector::new(prep.num_qubits());
    sv.apply_circuit(prep);
    sv.expval_pauli(&PauliString::new(vec![qsim::Pauli::Z; prep.num_qubits()]))
}

/// Finite-shot κ crossover validation. Columns: `(wires, shots,
/// kappa_joint, kappa_product, err_joint, err_product)`, where the error
/// columns are mean absolute estimation errors of `⟨Z…Z⟩` on random
/// GHZ-type sender states. The `κ/√N` law makes `err_joint/err_product →
/// κ_joint/κ_product` at large budgets.
pub fn shots_table(config: &JointScalingConfig) -> Table {
    let mut t = Table::new(&[
        "wires",
        "shots",
        "kappa_joint",
        "kappa_product",
        "err_joint",
        "err_product",
    ]);
    let observable = |w: usize| PauliString::new(vec![qsim::Pauli::Z; w]);
    // Per-wire invariants (QPD spec, term circuits, product cut) built
    // once, not once per (wires, state) shard.
    let per_wire: Vec<(qpd::QpdSpec, Vec<CutTerm>, ParallelWireCut)> = config
        .shot_wires
        .iter()
        .map(|&w| {
            let joint = JointWireCut::new(w);
            (
                joint.spec(),
                joint.terms(),
                ParallelWireCut::uniform(NmeCut::new(0.0), w),
            )
        })
        .collect();
    // One shard per (wires, state) cell, wire-major; the sender angle is
    // drawn from a state-keyed stream so every wire count compares the
    // same family of sender states.
    let cells: Vec<(usize, u64)> = config
        .shot_wires
        .iter()
        .flat_map(|&w| (0..config.num_states as u64).map(move |s| (w, s)))
        .collect();
    let per_cell: Vec<Vec<(f64, f64)>> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(w, s), ctx| {
            let wi = config.shot_wires.iter().position(|&x| x == w).unwrap();
            let (joint_spec, joint_terms, product) = &per_wire[wi];
            let theta = ctx.shared(&(STATE_STREAM, s)).gen::<f64>() * std::f64::consts::PI;
            let prep = ghz_sender(w, theta);
            let exact = exact_all_z(&prep);
            let compiled_joint =
                PreparedCut::from_terms(joint_spec.clone(), joint_terms, &prep, &observable(w));
            let compiled_product =
                PreparedCut::from_terms(product.spec(), &product.terms(), &prep, &observable(w));
            let rng = ctx.rng();
            config
                .shot_grid
                .iter()
                .map(|&shots| {
                    let mut ej = RunningStats::new();
                    let mut ep = RunningStats::new();
                    for _ in 0..config.repetitions {
                        let est_j = estimate_allocated(
                            &compiled_joint.spec,
                            &compiled_joint.terms,
                            shots,
                            Allocator::Proportional,
                            rng,
                        );
                        ej.push((est_j - exact).abs());
                        let est_p = estimate_allocated(
                            &compiled_product.spec,
                            &compiled_product.terms,
                            shots,
                            Allocator::Proportional,
                            rng,
                        );
                        ep.push((est_p - exact).abs());
                    }
                    (ej.mean(), ep.mean())
                })
                .collect()
        });
    for (wi, &w) in config.shot_wires.iter().enumerate() {
        let kappa_joint = per_wire[wi].0.kappa();
        let kappa_product = per_wire[wi].2.kappa();
        let block = &per_cell[wi * config.num_states..(wi + 1) * config.num_states];
        for (si, &shots) in config.shot_grid.iter().enumerate() {
            let mut agg_j = RunningStats::new();
            let mut agg_p = RunningStats::new();
            for state_rows in block {
                agg_j.push(state_rows[si].0);
                agg_p.push(state_rows[si].1);
            }
            t.push_row(vec![
                w as f64,
                shots as f64,
                kappa_joint,
                kappa_product,
                agg_j.mean(),
                agg_p.mean(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> JointScalingConfig {
        JointScalingConfig {
            max_wires: 4,
            nme_max_wires: 2,
            overlaps: vec![0.5, 0.75, 1.0],
            shot_wires: vec![1, 2],
            shot_grid: vec![400, 3200],
            num_states: 3,
            repetitions: 6,
            seed: 11,
            threads: 2,
        }
    }

    #[test]
    fn crossover_map_matches_closed_forms() {
        let t = crossover_table(&small());
        for row in t.rows() {
            let (n, f) = (row[0] as usize, row[1]);
            assert!((row[3] - ((2u64 << n) - 1) as f64).abs() < 1e-9);
            assert!((row[4] - (2.0 / f - 1.0).powi(n as i32)).abs() < 1e-9);
            // indep_wins consistent with the crossover overlap.
            let wins = row[4] < row[3];
            assert_eq!(row[6] > 0.5, wins);
            if f > row[5] + 1e-9 {
                assert!(wins, "f={f} above crossover must favour independent");
            }
        }
        // γ*(1) = 3 → f*(1) = 1/2; f* rises monotonically towards the
        // 2/3 asymptote (γ* → 2) as wires are added.
        assert!((crossover_overlap(1) - 0.5).abs() < 1e-12);
        let mut prev = 0.0;
        for n in 1..=6 {
            let f = crossover_overlap(n);
            assert!(f > prev, "f* not increasing at n={n}");
            assert!((0.5..2.0 / 3.0).contains(&f));
            prev = f;
        }
    }

    #[test]
    fn nme_sweep_is_feasible_and_bounded() {
        let t = nme_sweep_table(&small());
        for row in t.rows() {
            let (kappa, indep, me_joint, residual) = (row[3], row[4], row[5], row[6]);
            assert!(residual < 1e-8, "infeasible row: {row:?}");
            assert!(kappa >= 1.0 - 1e-9);
            assert!(kappa <= me_joint + 1e-6, "worse than ME joint: {row:?}");
            // At f = 1 both joint NME and independent reach κ = 1.
            if (row[1] - 1.0).abs() < 1e-12 {
                assert!((kappa - 1.0).abs() < 1e-6);
                assert!((indep - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn shot_errors_scale_with_kappa() {
        let t = shots_table(&small());
        // At the largest budget and 2 wires, the joint cut (κ = 7) must
        // not err more than the product cut (κ = 9) by any wide margin.
        let row = t
            .rows()
            .iter()
            .find(|r| r[0] as usize == 2 && r[1] as u64 == 3200)
            .expect("missing row");
        let (ej, ep) = (row[4], row[5]);
        assert!(
            ej < ep * 1.4,
            "joint error {ej} not competitive with product {ep}"
        );
        // Errors decrease with budget for each wire count.
        for &w in &[1usize, 2] {
            let rows: Vec<_> = t.rows().iter().filter(|r| r[0] as usize == w).collect();
            assert!(rows[1][4] < rows[0][4] * 1.2, "joint error not shrinking");
        }
    }
}
