//! **E11 — joint parallel wire cutting** (extension; paper reference
//! \[26\], Brenner et al. \[11\]): cutting `n` wires jointly with mutually
//! unbiased bases costs `κ = 2^{n+1} − 1` instead of the per-wire product
//! `3ⁿ`. Reports both overheads, the sparse channel-verification
//! deviation ([`wirecut::joint::JointWireCut::verify_deviation`] — no
//! dense superoperator on the experiment path), and the measured
//! estimation error on entangled sender states. Both the
//! joint and product estimates draw each term's shot allocation as one
//! binomial on the term's ±1 parity law, fixed by its circuit's exact
//! value.

use crate::csvout::Table;
use crate::stats::RunningStats;
use qpd::{estimate_allocated, Allocator};
use qsample::grid::ShardedGrid;
use qsample::StreamRng;
use qsim::{Circuit, PauliString};
use rand::Rng;
use wirecut::joint::JointWireCut;
use wirecut::multi::ParallelWireCut;
use wirecut::{CutTerm, NmeCut, PreparedCut, WireCut};

/// Stream tag for the sender-state lane (keyed by `(wires, state)`).
const STATE_STREAM: u64 = 0xE11;

/// Configuration of the joint-cut comparison.
#[derive(Clone, Debug)]
pub struct JointConfig {
    /// Wire counts (1 and/or 2).
    pub wire_counts: Vec<usize>,
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

impl Default for JointConfig {
    fn default() -> Self {
        Self {
            wire_counts: vec![1, 2],
            shots: 3000,
            num_states: 10,
            repetitions: 12,
            seed: 2601,
            threads: 0,
        }
    }
}

fn random_sender(w: usize, rng: &mut StreamRng) -> Circuit {
    let mut c = Circuit::new(w, 0);
    for q in 0..w {
        c.ry(rng.gen::<f64>() * std::f64::consts::PI, q);
    }
    for q in 0..w.saturating_sub(1) {
        c.cx(q, q + 1);
    }
    c
}

fn exact_zz(prep: &Circuit) -> f64 {
    let mut sv = qsim::StateVector::new(prep.num_qubits());
    sv.apply_circuit(prep);
    sv.expval_pauli(&PauliString::new(vec![qsim::Pauli::Z; prep.num_qubits()]))
}

/// Runs the joint-vs-product comparison. Columns:
/// `(wires, kappa_joint, kappa_product, identity_distance, err_joint,
/// err_product)`.
pub fn run(config: &JointConfig) -> Table {
    let mut t = Table::new(&[
        "wires",
        "kappa_joint",
        "kappa_product",
        "identity_distance",
        "err_joint",
        "err_product",
    ]);
    // Per-wire invariants (QPD spec, term circuits, product cut) built
    // once, not once per (wires, state) shard.
    let per_wire: Vec<(qpd::QpdSpec, Vec<CutTerm>, ParallelWireCut)> = config
        .wire_counts
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
    // One shard per (wires, state) cell, wire-major.
    let cells: Vec<(usize, u64)> = config
        .wire_counts
        .iter()
        .flat_map(|&w| (0..config.num_states as u64).map(move |s| (w, s)))
        .collect();
    let per_cell: Vec<(f64, f64)> = ShardedGrid::new(cells, config.seed)
        .with_threads(config.threads)
        .run(|&(w, s), ctx| {
            let wi = config.wire_counts.iter().position(|&x| x == w).unwrap();
            let (joint_spec, joint_terms, product) = &per_wire[wi];
            let observable = PauliString::new(vec![qsim::Pauli::Z; w]);
            let prep = random_sender(w, &mut ctx.shared(&(STATE_STREAM, w as u64, s)));
            let exact = exact_zz(&prep);
            let compiled_joint =
                PreparedCut::from_terms(joint_spec.clone(), joint_terms, &prep, &observable);
            let compiled_product =
                PreparedCut::from_terms(product.spec(), &product.terms(), &prep, &observable);
            debug_assert!((compiled_joint.exact_value() - exact).abs() < 1e-7);
            debug_assert!((compiled_product.exact_value() - exact).abs() < 1e-7);
            let rng = ctx.rng();
            let mut ej = RunningStats::new();
            let mut ep = RunningStats::new();
            for _ in 0..config.repetitions {
                let est_j = estimate_allocated(
                    &compiled_joint.spec,
                    &compiled_joint.terms,
                    config.shots,
                    Allocator::Proportional,
                    rng,
                );
                ej.push((est_j - exact).abs());
                let est_p = estimate_allocated(
                    &compiled_product.spec,
                    &compiled_product.terms,
                    config.shots,
                    Allocator::Proportional,
                    rng,
                );
                ep.push((est_p - exact).abs());
            }
            (ej.mean(), ep.mean())
        });
    for (wi, &w) in config.wire_counts.iter().enumerate() {
        // Sparse per-term Kraus verification (matrix-unit / probe based);
        // the dense 2^{2n} superoperator tomography stays out of the
        // experiment path.
        let dist = JointWireCut::new(w).verify_deviation();
        let mut agg_j = RunningStats::new();
        let mut agg_p = RunningStats::new();
        for &(j, p) in &per_cell[wi * config.num_states..(wi + 1) * config.num_states] {
            agg_j.push(j);
            agg_p.push(p);
        }
        t.push_row(vec![
            w as f64,
            per_wire[wi].0.kappa(),
            per_wire[wi].2.kappa(),
            dist,
            agg_j.mean(),
            agg_p.mean(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> JointConfig {
        JointConfig {
            wire_counts: vec![1, 2],
            shots: 1200,
            num_states: 4,
            repetitions: 6,
            seed: 5,
            threads: 2,
        }
    }

    #[test]
    fn joint_overheads_and_identities() {
        let t = run(&small());
        // n=1: joint == product == 3 (the Harada cut two ways).
        assert!((t.rows()[0][1] - 3.0).abs() < 1e-9);
        assert!((t.rows()[0][2] - 3.0).abs() < 1e-9);
        // n=2: joint 7 < product 9.
        assert!((t.rows()[1][1] - 7.0).abs() < 1e-9);
        assert!((t.rows()[1][2] - 9.0).abs() < 1e-9);
        // Channel identity exact for both.
        for row in t.rows() {
            assert!(row[3] < 1e-8, "identity distance {}", row[3]);
        }
    }

    #[test]
    fn joint_error_no_worse_than_product_at_two_wires() {
        let t = run(&JointConfig {
            num_states: 8,
            repetitions: 10,
            ..small()
        });
        let row = &t.rows()[1];
        let (ej, ep) = (row[4], row[5]);
        assert!(
            ej < ep * 1.25,
            "joint error {ej} not competitive with product {ep}"
        );
    }
}
