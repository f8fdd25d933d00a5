//! **Theorem 2** — the optimal wire cut with pure NME resource states.
//!
//! `I(·) = a · Σ_{i∈{1,2}} Uᵢ E^{Φk}_tel(Uᵢ†(·)Uᵢ) Uᵢ†
//!        − b · Σ_j Tr[|j⟩⟨j|(·)] X|j⟩⟨j|X`
//!
//! with `a = (k²+1)/(k+1)²`, `b = (k−1)²/(k+1)²`, `U₁ = H`, `U₂ = SH`
//! (Figure 5; coefficients from
//! [`crate::theory::theorem2_coefficients`]). Its sampling overhead
//! `κ = 2a + b = 4(k²+1)/(k+1)² − 1` attains the Theorem 1 optimum
//! `γ = 2/f − 1` of Corollary 1 ([`crate::theory::gamma_phi_k`]),
//! interpolating between the entanglement-free optimal cut of
//! [`crate::harada`] (`k = 0`, `γ = 3`) and plain quantum teleportation
//! via [`crate::teleport`] (`k = 1`, `γ = 1`). The resource state is
//! [`entangle::PhiK`] (Eq. 6).
//!
//! Term circuits are four/two-qubit registers:
//!
//! * teleportation terms — qubit 0 = data (A), 1 = resource sender half
//!   (B), 2 = receiver (C): prepare `|Φ_k⟩` on (1,2), conjugate by `Uᵢ`
//!   around the teleportation;
//! * measure-and-prepare term — identical to the Harada cut's third
//!   circuit (it consumes no entanglement).

use crate::harada;
use crate::teleport::append_teleportation;
use crate::term::{CutTerm, WireCut};
use crate::theory;
use entangle::PhiK;
use qpd::QpdSpec;
use qsim::Circuit;

/// The Theorem 2 wire cut with resource `|Φ_k⟩`.
#[derive(Clone, Copy, Debug)]
pub struct NmeCut {
    phi: PhiK,
}

impl NmeCut {
    /// Creates the cut for resource parameter `k ∈ [0, 1]` (values above 1
    /// are allowed and behave like `1/k` by the symmetry of `Φ_k`).
    pub fn new(k: f64) -> Self {
        Self { phi: PhiK::new(k) }
    }

    /// Creates the cut for a target entanglement level `f(Φ_k)`.
    pub fn from_overlap(f: f64) -> Self {
        Self {
            phi: PhiK::from_overlap(f),
        }
    }

    /// The resource state.
    pub fn resource(&self) -> PhiK {
        self.phi
    }

    /// The resource parameter `k`.
    pub fn k(&self) -> f64 {
        self.phi.k()
    }

    /// Theorem 2 coefficients `(a, b)`.
    pub fn coefficients(&self) -> (f64, f64) {
        theory::theorem2_coefficients(self.phi.k())
    }

    /// The measure-and-prepare term's signed coefficient `−b`, or `None`
    /// when it vanishes: at `k = 1`, `b = 0`, and the term is kept for
    /// structural uniformity only when nonzero.
    fn flip_coefficient(&self) -> Option<f64> {
        let (_, b) = self.coefficients();
        (b > 1e-15).then_some(-b)
    }

    /// Builds one teleportation term circuit (`which` ∈ {1, 2} selecting
    /// `U₁ = H` / `U₂ = SH`).
    fn teleport_term_circuit(&self, which: u8) -> Circuit {
        let mut c = Circuit::new(3, 2);
        // Resource |Φk⟩ on (1 = sender half, 2 = receiver).
        c.ry(self.phi.preparation_angle(), 1).cx(1, 2);
        // Sender-side basis change Uᵢ† on the data qubit.
        match which {
            1 => {
                c.h(0);
            }
            2 => {
                // U₂† = H·S†: apply S† then H.
                c.sdg(0).h(0);
            }
            _ => unreachable!(),
        }
        // Teleport data → receiver (Bell measurement + feed-forward).
        append_teleportation(&mut c, 0, 1, 2, 0, 1);
        // Receiver-side inverse basis change Uᵢ.
        match which {
            1 => {
                c.h(2);
            }
            2 => {
                // U₂ = S·H: apply H then S.
                c.h(2).s(2);
            }
            _ => unreachable!(),
        }
        c
    }
}

impl WireCut for NmeCut {
    fn name(&self) -> String {
        format!("nme-theorem2(k={:.4})", self.phi.k())
    }

    fn terms(&self) -> Vec<CutTerm> {
        let (a, _) = self.coefficients();
        let mut terms = vec![
            CutTerm {
                coefficient: a,
                label: "tel-H".into(),
                pairs_consumed: 1.0,
                circuit: self.teleport_term_circuit(1),
                input_qubits: vec![0],
                output_qubits: vec![2],
                resource_prep_len: 2,
            },
            CutTerm {
                coefficient: a,
                label: "tel-SH".into(),
                pairs_consumed: 1.0,
                circuit: self.teleport_term_circuit(2),
                input_qubits: vec![0],
                output_qubits: vec![2],
                resource_prep_len: 2,
            },
        ];
        if let Some(coefficient) = self.flip_coefficient() {
            terms.push(CutTerm {
                coefficient,
                label: "meas-prep-flip".into(),
                pairs_consumed: 0.0,
                circuit: harada::measure_prepare_flipped_circuit(),
                input_qubits: vec![0],
                output_qubits: vec![1],
                resource_prep_len: 0,
            });
        }
        terms
    }

    /// The coefficients and pair counts of [`terms`](Self::terms), read
    /// off Theorem 2 without building a term circuit.
    fn spec(&self) -> QpdSpec {
        let (a, _) = self.coefficients();
        let mut parts = vec![(a, 1.0), (a, 1.0)];
        parts.extend(self.flip_coefficient().map(|c| (c, 0.0)));
        QpdSpec::from_parts(&parts)
    }
}

/// Plain quantum teleportation as a single-term "cut" (`κ = 1`) — the
/// zero-overhead baseline the paper contrasts against (Section II-E).
#[derive(Clone, Copy, Debug, Default)]
pub struct TeleportationPassthrough;

impl WireCut for TeleportationPassthrough {
    fn name(&self) -> String {
        "teleportation".into()
    }

    fn terms(&self) -> Vec<CutTerm> {
        let mut c = Circuit::new(3, 2);
        let phi = PhiK::new(1.0);
        c.ry(phi.preparation_angle(), 1).cx(1, 2);
        append_teleportation(&mut c, 0, 1, 2, 0, 1);
        vec![CutTerm {
            coefficient: 1.0,
            label: "teleport".into(),
            pairs_consumed: 1.0,
            circuit: c,
            input_qubits: vec![0],
            output_qubits: vec![2],
            resource_prep_len: 2,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{
        identity_distance, reconstructed_channel, term_channel, verify_locc_structure,
    };
    use qsim::Superoperator;

    #[test]
    fn theorem2_reconstructs_identity_for_k_grid() {
        for &k in &[0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let cut = NmeCut::new(k);
            let d = identity_distance(&cut);
            assert!(d < 1e-9, "Theorem 2 violated at k={k}: distance {d}");
        }
    }

    #[test]
    fn kappa_attains_corollary1_optimum() {
        for &k in &[0.0, 0.2, 0.45, 0.8, 1.0] {
            let cut = NmeCut::new(k);
            let expect = theory::gamma_phi_k(k);
            assert!(
                (cut.kappa() - expect).abs() < 1e-12,
                "κ mismatch at k={k}: {} vs {expect}",
                cut.kappa()
            );
            assert!(cut.spec().validate(1e-12).is_ok());
        }
    }

    #[test]
    fn k_zero_degenerates_to_harada_overhead() {
        // Eq. 20 generalisation: at k = 0, κ = 3 — same as Harada.
        let cut = NmeCut::new(0.0);
        assert!((cut.kappa() - 3.0).abs() < 1e-12);
        // The reconstructed channels agree (both are the identity), and
        // the negative terms are literally the same circuit.
        let d = reconstructed_channel(&cut.terms())
            .distance(&reconstructed_channel(&crate::harada::HaradaCut.terms()));
        assert!(d < 1e-9);
    }

    #[test]
    fn k_one_is_pure_teleportation() {
        let cut = NmeCut::new(1.0);
        assert_eq!(cut.terms().len(), 2, "b-term must vanish at k=1");
        assert!((cut.kappa() - 1.0).abs() < 1e-12);
        let d = identity_distance(&cut);
        assert!(d < 1e-10);
    }

    #[test]
    fn teleportation_terms_are_locc_across_the_cut() {
        // Sender side: data qubit + resource sender half {0, 1};
        // receiver side: {2}. Feed-forward is classical only.
        let cut = NmeCut::new(0.5);
        let terms = cut.terms();
        verify_locc_structure(&terms[0], &[0, 1]).expect("tel-H couples quantumly");
        verify_locc_structure(&terms[1], &[0, 1]).expect("tel-SH couples quantumly");
        verify_locc_structure(&terms[2], &[0]).expect("meas-prep couples quantumly");
    }

    #[test]
    fn teleport_term_channel_matches_conjugated_pauli_channel() {
        // Term i implements Uᵢ E_tel(Uᵢ† · Uᵢ) Uᵢ†; with E_tel the I/Z
        // Pauli channel, conjugation by H maps it to an I/X channel.
        let k = 0.4;
        let cut = NmeCut::new(k);
        let [qi, _, _, qz] = entangle::PhiK::new(k).bell_overlaps();
        let terms = cut.terms();
        let ch = term_channel(&terms[0]);
        let x = qsim::Pauli::X.matrix().scale_re(qz.sqrt());
        let i = qsim::Pauli::I.matrix().scale_re(qi.sqrt());
        let expect = Superoperator::from_kraus(&[i, x]);
        assert!(
            ch.distance(&expect) < 1e-9,
            "tel-H term channel distance {}",
            ch.distance(&expect)
        );
    }

    #[test]
    fn second_term_is_iy_channel() {
        // Conjugation by SH maps the Z error to Y (Eq. 65).
        let k = 0.4;
        let cut = NmeCut::new(k);
        let [qi, _, _, qz] = entangle::PhiK::new(k).bell_overlaps();
        let terms = cut.terms();
        let ch = term_channel(&terms[1]);
        let y = qsim::Pauli::Y.matrix().scale_re(qz.sqrt());
        let i = qsim::Pauli::I.matrix().scale_re(qi.sqrt());
        let expect = Superoperator::from_kraus(&[i, y]);
        assert!(ch.distance(&expect) < 1e-9);
    }

    #[test]
    fn passthrough_is_identity_with_unit_kappa() {
        let cut = TeleportationPassthrough;
        assert!((cut.kappa() - 1.0).abs() < 1e-12);
        assert!(identity_distance(&cut) < 1e-10);
    }

    #[test]
    fn pair_consumption_matches_theory() {
        for &k in &[0.0, 0.5, 1.0] {
            let cut = NmeCut::new(k);
            let got = cut.spec().expected_pairs_per_sample();
            // Theory value: fraction of samples that are teleportations
            // = 2a/κ; pairs per sample from Section III is 2(k²+1)/(k+1)²
            // *per effective sample* — the spec-level expectation is the
            // per-drawn-sample value 2a/κ.
            let (a, _) = cut.coefficients();
            let expect = 2.0 * a / cut.kappa();
            assert!((got - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_estimator_is_unbiased_for_nme_cut() {
        // The NME cut's terms run through the batched branch-tree path;
        // the recombined estimate must stay an unbiased estimator of the
        // uncut expectation.
        use crate::executor::{uncut_expectation, PreparedCut};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let w = qsim::Gate::Ry(1.1).matrix();
        let expect = uncut_expectation(&w, qsim::Pauli::Z);
        for &k in &[0.0, 0.5, 1.0] {
            let prepared = PreparedCut::new(&NmeCut::new(k), &w, qsim::Pauli::Z);
            let mut rng = StdRng::seed_from_u64(301);
            let reps = 50;
            let mean: f64 = (0..reps)
                .map(|_| {
                    qpd::estimate_allocated(
                        &prepared.spec,
                        &prepared.terms,
                        4000,
                        qpd::Allocator::Proportional,
                        &mut rng,
                    )
                })
                .sum::<f64>()
                / reps as f64;
            // SE ≈ κ/√(reps·shots) ≤ 3/447 ≈ 0.0067; allow ~5σ.
            assert!(
                (mean - expect).abs() < 0.035,
                "k={k}: mean {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn overhead_strictly_decreases_with_entanglement() {
        let mut prev = f64::INFINITY;
        for &f in &entangle::FIG6_OVERLAPS {
            let cut = NmeCut::from_overlap(f);
            assert!(cut.kappa() < prev + 1e-12, "κ not decreasing at f={f}");
            prev = cut.kappa();
        }
    }
}
