//! Property-based tests on the wire cuts themselves: for *any* resource
//! parameter and *any* input state, the defining identities of the paper
//! must hold exactly.

use nme_wire_cutting::entangle::{recurrence_round, PhiK, RecurrenceProtocol};
use nme_wire_cutting::qsim::{
    fragment_circuit, haar_unitary, random_unitary_circuit, CircuitDag, Pauli,
};
use nme_wire_cutting::wirecut::mixed::DistillThenCut;
use nme_wire_cutting::wirecut::{
    identity_distance, theory, uncut_expectation, CutPlanner, NmeCut, PreparedCut, WireCut,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn theorem2_channel_identity_for_any_k(k in 0.0f64..1.0) {
        let cut = NmeCut::new(k);
        let d = identity_distance(&cut);
        prop_assert!(d < 1e-8, "identity violated at k={k}: {d}");
    }

    #[test]
    fn kappa_attains_corollary1_for_any_k(k in 0.0f64..1.0) {
        let cut = NmeCut::new(k);
        prop_assert!((cut.kappa() - theory::gamma_phi_k(k)).abs() < 1e-10);
        // And Theorem 1 via the overlap agrees.
        let f = PhiK::new(k).overlap();
        prop_assert!((cut.kappa() - theory::gamma_from_overlap(f)).abs() < 1e-10);
    }

    #[test]
    fn exact_decomposition_matches_uncut_value(k in 0.0f64..1.0, seed in 0u64..100_000, obs_idx in 0usize..3) {
        let obs = [Pauli::X, Pauli::Y, Pauli::Z][obs_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let w = haar_unitary(2, &mut rng);
        let expect = uncut_expectation(&w, obs);
        let prepared = PreparedCut::new(&NmeCut::new(k), &w, obs);
        prop_assert!(
            (prepared.exact_value() - expect).abs() < 1e-8,
            "decomposition broken at k={k}, obs={obs:?}: {} vs {expect}",
            prepared.exact_value()
        );
    }

    #[test]
    fn overhead_interpolates_between_three_and_one(k in 0.0f64..1.0) {
        let gamma = theory::gamma_phi_k(k);
        prop_assert!((1.0 - 1e-12..=3.0 + 1e-12).contains(&gamma));
    }

    #[test]
    fn estimator_is_unbiased_for_random_inputs(k in 0.1f64..1.0, seed in 0u64..10_000) {
        // Average many cheap estimates; the mean must approach the exact
        // value within a few standard errors.
        let mut rng = StdRng::seed_from_u64(seed);
        let w = haar_unitary(2, &mut rng);
        let exact = uncut_expectation(&w, Pauli::Z);
        let prepared = PreparedCut::new(&NmeCut::new(k), &w, Pauli::Z);
        let reps = 40;
        let shots = 400;
        let mean: f64 = (0..reps)
            .map(|_| {
                nme_wire_cutting::qpd::estimate_allocated(
                    &prepared.spec,
                    &prepared.terms,
                    shots,
                    nme_wire_cutting::qpd::Allocator::Proportional,
                    &mut rng,
                )
            })
            .sum::<f64>() / reps as f64;
        // SE ≤ κ/√(reps·shots) ≤ 3/126 ≈ 0.024; allow 5 SEs.
        prop_assert!((mean - exact).abs() < 0.12, "bias at k={k}: mean {mean} vs exact {exact}");
    }

    #[test]
    fn pure_state_overlap_consistency(k in 0.0f64..1.0) {
        // Eq. 10 == Schmidt route == distillation-norm route, for any k.
        let phi = PhiK::new(k);
        let closed = phi.overlap();
        let schmidt = nme_wire_cutting::entangle::max_overlap_pure(&phi.statevector());
        let dec = nme_wire_cutting::entangle::schmidt(&phi.statevector(), 1);
        let dist = nme_wire_cutting::entangle::overlap_via_distillation_norm(&dec.coefficients);
        prop_assert!((closed - schmidt).abs() < 1e-9);
        prop_assert!((closed - dist).abs() < 1e-9);
    }

    #[test]
    fn local_unitaries_do_not_change_overlap(k in 0.0f64..1.0, seed in 0u64..100_000) {
        // f is LOCC-monotone and local unitaries are reversible: applying
        // them leaves f(ψ) invariant (paper Eq. 7–8).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sv = PhiK::new(k).statevector();
        let before = nme_wire_cutting::entangle::max_overlap_pure(&sv);
        let ua = haar_unitary(2, &mut rng);
        let ub = haar_unitary(2, &mut rng);
        sv.apply_matrix1(&ua, 0);
        sv.apply_matrix1(&ub, 1);
        let after = nme_wire_cutting::entangle::max_overlap_pure(&sv);
        prop_assert!((before - after).abs() < 1e-8);
    }

    #[test]
    fn bell_overlaps_define_valid_probabilities(k in 0.0f64..1.0) {
        let q = PhiK::new(k).bell_overlaps();
        prop_assert!(q.iter().all(|&x| x >= -1e-12));
        prop_assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn pair_consumption_between_one_and_two(k in 0.0f64..1.0) {
        let pairs = theory::pairs_per_sample(k);
        prop_assert!((1.0 - 1e-12..=2.0 + 1e-12).contains(&pairs));
    }

    #[test]
    fn recurrence_rounds_stay_normalised_and_cptp(
        a in 0.01f64..1.0,
        b in 0.01f64..1.0,
        c in 0.01f64..1.0,
        d in 0.01f64..1.0,
        rounds in 0usize..6,
        protocol_idx in 0usize..2,
    ) {
        // Any valid Bell-diagonal weight vector must stay a valid one
        // (normalised, non-negative — i.e. the induced Pauli channel
        // stays CPTP) under arbitrarily many recurrence rounds of
        // either protocol.
        let protocol = [RecurrenceProtocol::Dejmps, RecurrenceProtocol::Bbpssw][protocol_idx];
        let total = a + b + c + d;
        let mut q = [a / total, b / total, c / total, d / total];
        for round in 0..rounds {
            let (next, s) = recurrence_round(q, protocol);
            prop_assert!(s > 0.0 && s <= 1.0 + 1e-12, "round {round}: success {s}");
            let sum: f64 = next.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-10, "round {round}: sum {sum}");
            prop_assert!(next.iter().all(|&w| w >= -1e-12), "round {round}: {next:?}");
            q = next;
        }
    }

    #[test]
    fn distilled_kappa_never_beats_theorem1(
        fid in 0.51f64..0.98,
        split_a in 0.01f64..1.0,
        split_b in 0.01f64..1.0,
        rounds in 0usize..5,
        protocol_idx in 0usize..2,
    ) {
        // κ_eff of the composed scheme is still an inversion cut — on
        // the distilled resource — so Theorem 1 at the distilled
        // weights lower-bounds it for any input and depth. (q_I > ½
        // keeps every recurrence level invertible: DEJMPS preserves
        // q_I > ½, and all channel eigenvalues are ≥ 2q_I − 1.)
        let protocol = [RecurrenceProtocol::Dejmps, RecurrenceProtocol::Bbpssw][protocol_idx];
        let rest = 1.0 - fid;
        let total = split_a + split_b + 1.0;
        let weights = [
            fid,
            rest * split_a / total,
            rest * split_b / total,
            rest / total,
        ];
        let pipeline = DistillThenCut::new(weights, rounds, protocol);
        let kappa_eff = pipeline.kappa_eff();
        let gamma = pipeline.gamma_distilled();
        prop_assert!(
            kappa_eff >= gamma - 1e-9,
            "κ_eff {kappa_eff} beats γ(distilled) {gamma} for {weights:?}, m={rounds}"
        );
        // The raw-pair axis only ever adds cost on top.
        prop_assert!(pipeline.kappa_pair() >= kappa_eff - 1e-12);
    }

    #[test]
    fn planner_structural_invariants_for_random_circuits(
        seed in 0u64..100_000,
        n in 3usize..7,
        gates in 3usize..9,
    ) {
        // For any random circuit and any budget < n, the planner's
        // fragmentation and cut derivation must satisfy its structural
        // contract — no sampling involved, so these hold exactly.
        let budget = n - 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_unitary_circuit(n, gates, &mut rng);
        let plan = CutPlanner::new(budget).plan(&circuit);

        // A cut set implies at least two fragments, and never vice versa
        // with zero cuts spanning multiple fragments of a connected wire.
        if plan.num_cuts() > 0 {
            prop_assert!(plan.fragments.len() >= 2);
        }
        // Every cut names a real circuit wire and an ordered fragment pair.
        for group in &plan.groups {
            prop_assert!(!group.cuts.is_empty());
            for cut in &group.cuts {
                prop_assert!(cut.wire < n, "cut wire {} out of range", cut.wire);
                prop_assert!(cut.source_fragment < cut.dest_fragment);
                prop_assert!(cut.dest_fragment < plan.fragments.len());
            }
        }
        // Fragmentation is a partition: gate counts are preserved, every
        // fragment respects the budget, and each fragment circuit is a
        // well-formed acyclic DAG.
        let total: usize = plan.fragments.iter().map(|f| f.instructions.len()).sum();
        prop_assert_eq!(total, circuit.len(), "fragmentation dropped gates");
        for frag in &plan.fragments {
            prop_assert!(frag.width() <= budget);
            let fc = fragment_circuit(&circuit, frag);
            prop_assert!(CircuitDag::new(&fc).is_acyclic());
        }
        // Plan γ is the product of per-cut γ: at f = 0.8 every group is
        // in the NME regime (f*(n) < 2/3 for all n), so κ = γ(0.8)^cuts.
        let plan = CutPlanner::new(budget).with_overlap(0.8).plan(&circuit);
        let gamma = theory::gamma_from_overlap(0.8);
        let expect = gamma.powi(plan.num_cuts() as i32);
        prop_assert!(
            (plan.kappa() - expect).abs() < 1e-9 * expect,
            "κ {} vs γ^cuts {expect} at {} cuts",
            plan.kappa(),
            plan.num_cuts()
        );
    }
}
