//! Property tests for the Galois-field MUB construction behind the joint
//! multi-wire cut: complete sets for `n = 1..3` wires must be pairwise
//! mutually unbiased and satisfy the MUB dephasing identity
//! `Σ_b D_b(ρ) = ρ + Tr(ρ)·I` to ≤ 1e−10 on arbitrary probes, and the
//! joint-cut overhead must equal the closed form `κ(n) = 2^{n+1} − 1`.

use nme_wire_cutting::qlinalg::{c64, Matrix};
use nme_wire_cutting::wirecut::joint::{are_mutually_unbiased, JointWireCut};
use nme_wire_cutting::wirecut::mub;
use nme_wire_cutting::wirecut::WireCut;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_hermitian(d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw = Matrix::from_fn(d, d, |_, _| {
        c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
    });
    raw.add(&raw.dagger()).scale_re(0.5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_sets_are_pairwise_mutually_unbiased(n in 1usize..4) {
        let bases = mub::mub_bases(n);
        prop_assert_eq!(bases.len(), (1 << n) + 1);
        for (i, u) in bases.iter().enumerate() {
            prop_assert!(u.is_unitary(1e-10), "basis {i} of n={n} not unitary");
            for (j, v) in bases.iter().enumerate().skip(i + 1) {
                prop_assert!(
                    are_mutually_unbiased(u, v, 1e-10),
                    "bases {i},{j} of n={n} not mutually unbiased"
                );
            }
        }
    }

    #[test]
    fn dephasing_identity_holds_on_random_probes(n in 1usize..4, seed in 0u64..100_000) {
        let d = 1usize << n;
        let bases = mub::mub_bases(n);
        let probe = random_hermitian(d, seed);
        let dev = mub::dephasing_identity_deviation(&bases, &probe);
        prop_assert!(dev <= 1e-10, "MUB identity deviates by {dev} at n={n}");
    }

    #[test]
    fn joint_kappa_matches_closed_form(n in 1usize..6) {
        let cut = JointWireCut::new(n);
        let expect = ((1u64 << (n + 1)) - 1) as f64;
        prop_assert!((cut.kappa() - expect).abs() < 1e-12);
        prop_assert!((cut.spec().kappa() - expect).abs() < 1e-12);
        prop_assert_eq!(cut.terms().len(), (1 << n) + 1);
        prop_assert!(cut.spec().validate(1e-9).is_ok());
    }

    #[test]
    fn construction_is_deterministic(n in 1usize..4) {
        // Memoized and fresh builds agree bit-for-bit — term ordering and
        // seeded-count regressions cannot drift across platforms/calls.
        let cached = mub::mub_bases(n);
        let fresh = mub::mub_bases_fresh(n);
        for (a, b) in cached.iter().zip(fresh.iter()) {
            prop_assert!(a.approx_eq(b, 0.0));
        }
    }
}

#[test]
fn sparse_verification_passes_up_to_five_wires() {
    for n in 1..=5 {
        JointWireCut::new(n)
            .verify(1e-8)
            .unwrap_or_else(|e| panic!("joint cut verify failed at n={n}: {e}"));
    }
}
