//! Cross-crate integration tests: the full paper pipeline exercised
//! through the public facade, at reduced scale but with the real code
//! paths (Haar workloads → Theorem 2 circuits → compiled samplers →
//! proportional sweep → aggregation).

use nme_wire_cutting::experiments::fig6::{run as run_fig6, Fig6Config};
use nme_wire_cutting::experiments::{tables, teleport_channel};
use nme_wire_cutting::qpd::{estimate_allocated, Allocator};
use nme_wire_cutting::qsim::{haar_unitary, Pauli};
use nme_wire_cutting::wirecut::{
    identity_distance, theory, HaradaCut, NmeCut, PengCut, PreparedCut, TeleportationPassthrough,
    WireCut,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn figure6_pipeline_reproduces_paper_shape() {
    let cfg = Fig6Config {
        num_states: 150,
        shot_checkpoints: vec![500, 1000, 2000, 4000],
        overlaps: vec![0.5, 0.7, 0.9, 1.0],
        seed: 99,
        threads: 4,
    };
    let res = run_fig6(&cfg);
    // Shape 1: error decreases with shots for every entanglement level.
    for row in &res.mean_abs_error {
        for w in row.windows(2) {
            assert!(w[1] < w[0] * 1.05, "error not (weakly) decreasing: {row:?}");
        }
    }
    // Shape 2: error decreases with entanglement at every budget.
    for c in 0..cfg.shot_checkpoints.len() {
        for o in 0..cfg.overlaps.len() - 1 {
            assert!(
                res.mean_abs_error[o][c] > res.mean_abs_error[o + 1][c] * 0.8,
                "ordering violated at checkpoint {c}: f={} err={} vs f={} err={}",
                cfg.overlaps[o],
                res.mean_abs_error[o][c],
                cfg.overlaps[o + 1],
                res.mean_abs_error[o + 1][c]
            );
        }
    }
    // Shape 3: the f=0.5 / f=1.0 error ratio reflects κ = 3 vs 1.
    let last = cfg.shot_checkpoints.len() - 1;
    let ratio = res.mean_abs_error[0][last] / res.mean_abs_error[3][last];
    assert!(
        ratio > 1.8 && ratio < 5.5,
        "κ-driven error ratio off: {ratio}"
    );
    // Shape 4: 1/√N scaling — quadrupling shots roughly halves the error.
    let scale = res.mean_abs_error[0][0] / res.mean_abs_error[0][2];
    assert!(scale > 1.4 && scale < 3.0, "1/√N scaling off: {scale}");
}

#[test]
fn all_cut_families_agree_on_a_common_workload() {
    let mut rng = StdRng::seed_from_u64(5);
    let w = haar_unitary(2, &mut rng);
    let exact = nme_wire_cutting::wirecut::uncut_expectation(&w, Pauli::Z);
    let cuts: Vec<Box<dyn WireCut>> = vec![
        Box::new(PengCut),
        Box::new(HaradaCut),
        Box::new(NmeCut::new(0.25)),
        Box::new(NmeCut::new(0.75)),
        Box::new(TeleportationPassthrough),
    ];
    for cut in &cuts {
        let prepared = PreparedCut::new(cut.as_ref(), &w, Pauli::Z);
        assert!(
            (prepared.exact_value() - exact).abs() < 1e-8,
            "{} disagrees: {} vs {exact}",
            cut.name(),
            prepared.exact_value()
        );
        assert!(
            identity_distance(cut.as_ref()) < 1e-8,
            "{} channel broken",
            cut.name()
        );
    }
}

#[test]
fn every_qpd_term_is_a_physical_channel() {
    // Each Fᵢ must be CPTP (an implementable LOCC operation); only the
    // signed *combination* is unphysical-looking. Verified via Choi
    // positivity for all cut families.
    let cuts: Vec<Box<dyn WireCut>> = vec![
        Box::new(PengCut),
        Box::new(HaradaCut),
        Box::new(NmeCut::new(0.3)),
        Box::new(NmeCut::new(1.0)),
    ];
    for cut in &cuts {
        for term in cut.terms() {
            let ch = nme_wire_cutting::wirecut::term_channel(&term);
            assert!(
                ch.is_cptp(1e-8),
                "{} term {} is not CPTP",
                cut.name(),
                term.label
            );
        }
    }
    // The reconstructed channel is the identity — also CPTP.
    let rec = nme_wire_cutting::wirecut::reconstructed_channel(&NmeCut::new(0.3));
    assert!(rec.is_cptp(1e-8));
}

#[test]
fn overhead_hierarchy_is_strict() {
    // Peng (4) > Harada (3) = NME(k=0) > NME(k=0.5) > NME(k=1) = tele (1).
    let peng = PengCut.kappa();
    let harada = HaradaCut.kappa();
    let nme0 = NmeCut::new(0.0).kappa();
    let nme_half = NmeCut::new(0.5).kappa();
    let nme1 = NmeCut::new(1.0).kappa();
    let tele = TeleportationPassthrough.kappa();
    assert!(peng > harada);
    assert!((harada - nme0).abs() < 1e-12);
    assert!(nme0 > nme_half);
    assert!(nme_half > nme1);
    assert!((nme1 - tele).abs() < 1e-12);
    assert!((nme_half - theory::gamma_phi_k(0.5)).abs() < 1e-12);
}

#[test]
fn closed_form_tables_are_internally_consistent() {
    let t = tables::overlap_table(11);
    for row in t.rows() {
        assert!((row[1] - row[2]).abs() < 1e-9);
        assert!((row[1] - row[3]).abs() < 1e-9);
    }
    let e = tables::endpoints_table();
    for row in e.rows() {
        assert!((row[1] - row[2]).abs() < 1e-10);
        assert!(row[3] < 1e-8);
    }
}

#[test]
fn teleportation_tomography_validates_eq22_on_grid() {
    for row in teleport_channel::run(7) {
        assert!(row.channel_distance < 1e-9, "Eq. 22 off at k={}", row.k);
        assert!(
            (row.average_fidelity - theory::average_teleportation_fidelity(row.k)).abs() < 1e-9
        );
    }
}

#[test]
fn fixed_seed_full_estimate_is_reproducible() {
    let mut rng1 = StdRng::seed_from_u64(123);
    let mut rng2 = StdRng::seed_from_u64(123);
    let w = haar_unitary(2, &mut rng1);
    let w2 = haar_unitary(2, &mut rng2);
    assert!(w.approx_eq(&w2, 0.0), "Haar sampling not reproducible");
    let prepared = PreparedCut::new(&NmeCut::new(0.4), &w, Pauli::Z);
    let a = estimate_allocated(
        &prepared.spec,
        &prepared.terms,
        2000,
        Allocator::Proportional,
        &mut rng1,
    );
    let b = estimate_allocated(
        &prepared.spec,
        &prepared.terms,
        2000,
        Allocator::Proportional,
        &mut rng2,
    );
    assert_eq!(a, b, "estimation not reproducible under fixed seeds");
}

#[test]
fn accuracy_budget_follows_kappa_squared_law() {
    // Theorem 1's operational meaning: to match the error of the
    // teleportation baseline at N shots, the k=0 cut needs ~κ²N. Verify
    // the variance ratio empirically at matched budgets.
    let mut rng = StdRng::seed_from_u64(31);
    let w = haar_unitary(2, &mut rng);
    let reps = 150;
    let var_of = |k: f64, shots: u64, rng: &mut StdRng| -> f64 {
        let prepared = PreparedCut::new(&NmeCut::new(k), &w, Pauli::Z);
        let xs: Vec<f64> = (0..reps)
            .map(|_| {
                estimate_allocated(
                    &prepared.spec,
                    &prepared.terms,
                    shots,
                    Allocator::Proportional,
                    rng,
                )
            })
            .collect();
        let m = xs.iter().sum::<f64>() / reps as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (reps - 1) as f64
    };
    // κ² = 9 at k=0: nine times the budget should land near the baseline.
    let v_cut = var_of(0.0, 9 * 400, &mut rng);
    let v_base = var_of(1.0, 400, &mut rng);
    let ratio = v_cut / v_base;
    assert!(
        ratio > 0.4 && ratio < 2.5,
        "κ² budget law violated: matched-budget variance ratio {ratio}"
    );
}
