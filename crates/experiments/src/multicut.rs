//! **E9 — multi-cut scaling** (extension; paper §VI / Brenner et al.):
//! cutting `w` parallel wires multiplies the overhead, `κ_total = κ^w`,
//! so the error at fixed budget grows exponentially in the number of
//! cuts — and raising the per-cut entanglement attacks the *base* of
//! that exponential.

use crate::csvout::Table;
use crate::stats::RunningStats;
use qpd::{estimate_allocated, Allocator};
use qsample::grid::ShardedGrid;
use qsample::StreamRng;
use qsim::{Circuit, PauliString};
use rand::Rng;
use wirecut::multi::ParallelWireCut;
use wirecut::{NmeCut, PreparedCut, WireCut};

/// Stream tag for the sender-state lane, shared across overlaps (keyed
/// by `(wires, state)`) so every entanglement level cuts the same
/// senders.
const STATE_STREAM: u64 = 0xE9;

/// Configuration of the multi-cut experiment.
#[derive(Clone, Debug)]
pub struct MultiCutConfig {
    /// Wire counts to evaluate.
    pub wire_counts: Vec<usize>,
    /// Entanglement levels per cut.
    pub overlaps: Vec<f64>,
    /// Shot budget per estimate.
    pub shots: u64,
    /// Random sender states averaged over.
    pub num_states: usize,
    /// Estimates per state.
    pub repetitions: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for MultiCutConfig {
    fn default() -> Self {
        Self {
            wire_counts: vec![1, 2, 3],
            overlaps: vec![0.5, 0.8, 1.0],
            shots: 3000,
            num_states: 8,
            repetitions: 12,
            seed: 31337,
            threads: 0,
        }
    }
}

/// A random `w`-qubit sender circuit: per-qubit Ry rotations and a chain
/// of CNOTs so the cut wires carry an *entangled* joint state.
fn random_sender(w: usize, rng: &mut StreamRng) -> Circuit {
    let mut c = Circuit::new(w, 0);
    for q in 0..w {
        c.ry(rng.gen::<f64>() * std::f64::consts::PI, q);
    }
    for q in 0..w.saturating_sub(1) {
        c.cx(q, q + 1);
    }
    for q in 0..w {
        c.ry(rng.gen::<f64>() * std::f64::consts::PI, q);
    }
    c
}

/// Exact ⟨Z…Z⟩ of the sender state (uncut reference).
fn exact_zz(prep: &Circuit) -> f64 {
    let mut sv = qsim::StateVector::new(prep.num_qubits());
    sv.apply_circuit(prep);
    sv.expval_pauli(&PauliString::new(vec![qsim::Pauli::Z; prep.num_qubits()]))
}

/// Runs the multi-cut scaling experiment; rows are
/// `(wires, overlap_f, kappa_total, mean_abs_error)`.
pub fn run(config: &MultiCutConfig) -> Table {
    let mut t = Table::new(&["wires", "overlap_f", "kappa_total", "mean_abs_error"]);
    // One shard per (wires, overlap, state) cell, (w, f)-major.
    let cells: Vec<(usize, f64, u64)> = config
        .wire_counts
        .iter()
        .flat_map(|&w| {
            config
                .overlaps
                .iter()
                .flat_map(move |&f| (0..config.num_states as u64).map(move |s| (w, f, s)))
        })
        .collect();
    let per_cell: Vec<f64> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(w, f, s), ctx| {
            let cut = ParallelWireCut::uniform(NmeCut::from_overlap(f), w);
            let observable = PauliString::new(vec![qsim::Pauli::Z; w]);
            let prep = random_sender(w, &mut ctx.shared(&(STATE_STREAM, w as u64, s)));
            let exact = exact_zz(&prep);
            let prepared = PreparedCut::from_terms(cut.spec(), &cut.terms(), &prep, &observable);
            debug_assert!((prepared.exact_value() - exact).abs() < 1e-8);
            let rng = ctx.rng();
            let mut acc = RunningStats::new();
            for _ in 0..config.repetitions {
                let est = estimate_allocated(
                    &prepared.spec,
                    &prepared.terms,
                    config.shots,
                    Allocator::Proportional,
                    rng,
                );
                acc.push((est - exact).abs());
            }
            acc.mean()
        });
    let mut cell = 0;
    for &w in &config.wire_counts {
        for &f in &config.overlaps {
            let kappa = ParallelWireCut::uniform(NmeCut::from_overlap(f), w).kappa();
            let mut agg = RunningStats::new();
            for &e in &per_cell[cell..cell + config.num_states] {
                agg.push(e);
            }
            cell += config.num_states;
            t.push_row(vec![w as f64, f, kappa, agg.mean()]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MultiCutConfig {
        MultiCutConfig {
            wire_counts: vec![1, 2],
            overlaps: vec![0.5, 1.0],
            shots: 1500,
            num_states: 5,
            repetitions: 8,
            seed: 3,
            threads: 2,
        }
    }

    #[test]
    fn kappa_scales_exponentially() {
        let t = run(&small());
        // rows: (1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)
        let k1 = t.rows()[0][2];
        let k2 = t.rows()[2][2];
        assert!(
            (k2 - k1 * k1).abs() < 1e-9,
            "κ² scaling broken: {k1} vs {k2}"
        );
        // f = 1.0: κ stays 1 regardless of wires.
        assert!((t.rows()[1][2] - 1.0).abs() < 1e-9);
        assert!((t.rows()[3][2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_cuts_cost_more_than_one_without_entanglement() {
        let t = run(&small());
        let e1 = t.rows()[0][3]; // 1 wire, f=0.5
        let e2 = t.rows()[2][3]; // 2 wires, f=0.5
        assert!(
            e2 > e1,
            "two-cut error {e2} not above single-cut error {e1}"
        );
    }

    #[test]
    fn entanglement_kills_the_exponential() {
        let t = run(&small());
        let e2_bare = t.rows()[2][3]; // 2 wires, f=0.5
        let e2_tel = t.rows()[3][3]; // 2 wires, f=1.0
        assert!(
            e2_tel < e2_bare,
            "teleportation did not beat bare cutting: {e2_tel} vs {e2_bare}"
        );
    }
}
