//! Quickstart: cut a single wire with an NME resource state and estimate
//! an observable across the cut.
//!
//! The scenario of the paper's Figure 5: a qubit prepared in `W|0⟩` on
//! the *sender* device must be measured on the *receiver* device. The two
//! devices share pairs `|Φ_k⟩ = K(|00⟩ + k|11⟩)` that are only partially
//! entangled. Theorem 2 tells us how to trade those pairs for shots.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! # Expected output
//!
//! Deterministic (seeded) apart from nothing — every run prints exactly:
//! the exact uncut `⟨Z⟩ ≈ +0.3300`, the resource line
//! `k = 0.3333, f(Φk) = 0.800, optimal overhead γ = 1.5000`, the three
//! Theorem 2 QPD terms (two teleportation terms at `c = +0.6250`, one
//! measure-and-prepare term at `c = −0.2500`) whose weighted sum equals
//! the uncut value to machine precision, finite-shot estimates whose
//! error shrinks as shots grow from 250 to 20 000, a channel check
//! `‖Σ cᵢFᵢ − I‖∞ < 1e−12`, and the closing overhead line
//! `κ = 1.5 ⇒ ~κ² = 2.25× more shots than an uncut wire`.

use nme_wire_cutting::qpd::{estimate_allocated, Allocator, TermSampler};
use nme_wire_cutting::qsim::{Gate, Pauli};
use nme_wire_cutting::wirecut::{theory, NmeCut, PreparedCut, WireCut};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The state travelling down the wire: W|0⟩ with W = Ry(1.2345).
    let w = Gate::Ry(1.2345).matrix();
    let exact = nme_wire_cutting::wirecut::uncut_expectation(&w, Pauli::Z);
    println!("exact ⟨Z⟩ of the uncut wire: {exact:+.6}");

    // A resource pair with entanglement level f(Φk) = 0.8 (k ≈ 0.5).
    let cut = NmeCut::from_overlap(0.8);
    println!(
        "resource: k = {:.4}, f(Φk) = {:.3}, optimal overhead γ = {:.4} (Corollary 1)",
        cut.k(),
        cut.resource().overlap(),
        theory::gamma_phi_k(cut.k()),
    );
    println!(
        "for comparison: no entanglement γ = {}, teleportation γ = 1",
        theory::GAMMA_NO_ENTANGLEMENT
    );

    // The three subcircuits of Figure 5, compiled for this input state and
    // observable. Their weighted expectations reproduce the uncut value
    // *exactly* (Theorem 2):
    let prepared = PreparedCut::new(&cut, &w, Pauli::Z);
    println!("\nQPD terms (Theorem 2):");
    let laws = prepared.spec.terms().iter().zip(&prepared.terms);
    for (term, (spec, law)) in cut.terms().iter().zip(laws) {
        println!(
            "  c = {:+.4}  {}  exact term ⟨Z⟩ = {:+.6}",
            spec.coefficient,
            term.label,
            law.exact_expectation(),
        );
    }
    println!(
        "Σ cᵢ·⟨Z⟩ᵢ = {:+.6}  (must equal the uncut value)",
        prepared.exact_value()
    );

    // Finite-shot estimation, shots split proportionally to |cᵢ| as in the
    // paper's experiment:
    let mut rng = StdRng::seed_from_u64(42);
    println!("\nfinite-shot estimates:");
    for shots in [250u64, 1000, 5000, 20000] {
        let est = estimate_allocated(
            &prepared.spec,
            &prepared.terms,
            shots,
            Allocator::Proportional,
            &mut rng,
        );
        println!(
            "  {shots:>6} shots → ⟨Z⟩ ≈ {est:+.6}   |error| = {:.6}",
            (est - exact).abs()
        );
    }

    // The channel-level guarantee behind all of this:
    let distance = nme_wire_cutting::wirecut::identity_distance(&cut);
    println!("\nchannel check: ‖Σ cᵢFᵢ − I‖∞ = {distance:.2e}");
    println!(
        "sampling overhead κ = {:.4} ⇒ ~κ² = {:.2}× more shots than an uncut wire",
        cut.kappa(),
        cut.kappa() * cut.kappa()
    );
}
