//! The continuum between wire cutting and teleportation.
//!
//! The paper's headline message: pre-shared entanglement is a dial, not a
//! switch. Sweeping the resource parameter `k` from 0 (product state) to
//! 1 (Bell pair) moves the sampling overhead continuously from the
//! entanglement-free optimum γ = 3 down to teleportation's γ = 1, and
//! the measured estimation error follows.
//!
//! Run with: `cargo run --release --example teleport_continuum`
//!
//! # Expected output
//!
//! A seeded, deterministic 11-row table sweeping `k` from 0.00 to 1.00:
//! `f(Φk)` climbs from 0.5 to 1, `γ = 2/f − 1` descends from 3.0000 to
//! 1.0000, `pairs/sample` descends from 2 to 1, and the mean 4000-shot
//! estimation error over 40 Haar-random states decays roughly with γ
//! (from ≈ 0.04 at `k = 0` to ≈ 0.01 at `k = 1`), ending with the
//! endpoint note: `k = 0` is the entanglement-free optimum of Harada
//! et al., `k = 1` is plain teleportation.

use nme_wire_cutting::entangle::PhiK;
use nme_wire_cutting::qpd::{estimate_allocated, Allocator};
use nme_wire_cutting::qsim::{haar_unitary, Pauli};
use nme_wire_cutting::wirecut::{theory, NmeCut, PreparedCut, WireCut};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let shots = 4000u64;
    let states = 40usize;
    let mut rng = StdRng::seed_from_u64(2024);

    println!("shots per estimate: {shots}, Haar-random states averaged: {states}");
    println!();
    println!("    k     f(Φk)   γ=2/f−1   pairs/sample   mean |error|");
    println!("  ------------------------------------------------------");

    for i in 0..=10 {
        let k = i as f64 / 10.0;
        let phi = PhiK::new(k);
        let cut = NmeCut::new(k);

        // Average the estimation error over Haar-random input states.
        let mut total_err = 0.0;
        for _ in 0..states {
            let w = haar_unitary(2, &mut rng);
            let exact = nme_wire_cutting::wirecut::uncut_expectation(&w, Pauli::Z);
            let prepared = PreparedCut::new(&cut, &w, Pauli::Z);
            let est = estimate_allocated(
                &prepared.spec,
                &prepared.terms,
                shots,
                Allocator::Proportional,
                &mut rng,
            );
            total_err += (est - exact).abs();
        }
        let mean_err = total_err / states as f64;

        println!(
            "  {k:.2}   {:.4}   {:.4}      {:.4}        {mean_err:.5}",
            phi.overlap(),
            theory::gamma_phi_k(k),
            theory::pairs_per_sample(k),
        );
        // The construction attains the optimum at every k:
        assert!((cut.kappa() - theory::gamma_phi_k(k)).abs() < 1e-12);
    }

    println!();
    println!("endpoints: k=0 reproduces the optimal entanglement-free cut (γ=3,");
    println!("Harada et al.); k=1 is plain quantum teleportation (γ=1) — the two");
    println!("extremes the paper interpolates between.");
}
