//! End-to-end verification of the arbitrary-circuit cut planner: for
//! randomized circuits, the compiled multi-fragment plan must (a) stay
//! within the fragment-width budget, (b) reproduce the uncut statevector
//! expectation **exactly** through its product-QPD decomposition, and
//! (c) produce sampled estimates inside the suite's 5σ Wilson band.
//! Plans are also pinned to be deterministic for a fixed seed.

use nme_wire_cutting::experiments::plan_cut::tractable_random_circuit;
use nme_wire_cutting::experiments::stats::qpd_wilson_band;
use nme_wire_cutting::qpd::{estimate_allocated, Allocator, QpdSpec};
use nme_wire_cutting::qsim::PauliString;
use nme_wire_cutting::wirecut::{uncut_plan_expectation, CompiledPlan, CutPlanner};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The randomized workload grid: ≥ 20 circuits spanning widths 3–6,
/// budgets strictly below the width, and overlaps on both sides of the
/// κ crossover (so both NME and joint-MUB groups are exercised).
fn workloads() -> Vec<(usize, usize, f64, u64)> {
    // (num_qubits, width_budget, overlap, seed)
    let mut w = Vec::new();
    for (i, &(n, budget)) in [(3, 2), (4, 3), (4, 2), (5, 4), (6, 5)].iter().enumerate() {
        for (j, &f) in [0.52, 0.7, 0.85, 1.0].iter().enumerate() {
            w.push((n, budget, f, 1000 + (i * 4 + j) as u64));
        }
    }
    assert!(w.len() >= 20);
    w
}

#[test]
fn random_plans_match_uncut_statevector_within_five_sigma() {
    let shots = 2048u64;
    for (n, budget, f, seed) in workloads() {
        let planner = CutPlanner::new(budget).with_overlap(f);
        let mut rng = StdRng::seed_from_u64(seed);
        let (circuit, plan) = tractable_random_circuit(n, 5, &planner, 3, &mut rng);

        // (a) Every fragment respects the width budget.
        assert!(plan.fragments.len() >= 2, "n={n} f={f}: single fragment");
        for frag in &plan.fragments {
            assert!(
                frag.width() <= budget,
                "n={n} f={f}: fragment width {} exceeds budget {budget}",
                frag.width()
            );
        }

        let observable = PauliString::from_label(&"Z".repeat(n));
        let uncut = uncut_plan_expectation(&circuit, &observable);
        let compiled = CompiledPlan::compile(&plan, &observable);

        // (b) The decomposition is an identity, not an approximation.
        assert!(
            (compiled.exact_value() - uncut).abs() < 1e-8,
            "n={n} f={f} seed={seed}: exact {} vs uncut {uncut}",
            compiled.exact_value()
        );

        // (c) One sampled estimate lands inside the 5σ Wilson band.
        let band = qpd_wilson_band(&compiled.spec, &compiled.exact_terms(), shots, 5.0);
        let est = estimate_allocated(
            &compiled.spec,
            compiled.plan_terms(),
            shots,
            Allocator::Proportional,
            &mut rng,
        );
        assert!(
            (est - uncut).abs() <= band,
            "n={n} f={f} seed={seed}: estimate {est} outside 5σ band {band} of {uncut} \
             (κ = {:.3})",
            compiled.report().kappa
        );
    }
}

#[test]
fn plans_are_deterministic_for_a_fixed_seed() {
    let planner = CutPlanner::new(3).with_overlap(0.7);
    let mut a = StdRng::seed_from_u64(42);
    let mut b = StdRng::seed_from_u64(42);
    let (ca, pa) = tractable_random_circuit(4, 6, &planner, 3, &mut a);
    let (cb, pb) = tractable_random_circuit(4, 6, &planner, 3, &mut b);
    assert_eq!(ca, cb, "same seed must draw the same circuit");
    // The plan is a pure function of the circuit: identical reports,
    // fragment assignments and cut groups, byte for byte.
    assert_eq!(
        format!("{:?}", pa.report()),
        format!("{:?}", pb.report()),
        "plan reports differ for identical inputs"
    );
    assert_eq!(format!("{:?}", pa.fragments), format!("{:?}", pb.fragments));
    assert_eq!(format!("{:?}", pa.groups), format!("{:?}", pb.groups));
    // And the compiled spec enumerates identical term structure: the
    // same coefficients, bit for bit, in the same order.
    let obs = PauliString::from_label("ZZZZ");
    let sa = CompiledPlan::compile(&pa, &obs);
    let sb = CompiledPlan::compile(&pb, &obs);
    let bits =
        |spec: &QpdSpec| -> Vec<u64> { spec.coefficients().iter().map(|c| c.to_bits()).collect() };
    assert_eq!(bits(&sa.spec), bits(&sb.spec));
    assert_eq!(sa.spec.kappa().to_bits(), sb.spec.kappa().to_bits());
}

#[test]
fn overlap_controls_protocol_mix_across_the_crossover() {
    // The same circuit planned below and above f*(n) flips multi-wire
    // groups between joint-MUB and NME, and never cheapens κ by lowering
    // the overlap.
    let mut rng = StdRng::seed_from_u64(7);
    let planner_lo = CutPlanner::new(3).with_overlap(0.52);
    let (circuit, plan_lo) = tractable_random_circuit(5, 6, &planner_lo, 3, &mut rng);
    let plan_hi = CutPlanner::new(3).with_overlap(0.9).plan(&circuit);
    assert_eq!(plan_lo.num_cuts(), plan_hi.num_cuts());
    assert!(
        plan_lo.kappa() >= plan_hi.kappa() - 1e-12,
        "lower overlap produced cheaper plan: {} < {}",
        plan_lo.kappa(),
        plan_hi.kappa()
    );
}
