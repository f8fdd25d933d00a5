//! Extension (paper §VI, future work): wire cutting with **mixed** NME
//! resource states.
//!
//! For a Bell-diagonal resource `ρ = Σ_σ q_σ |Φ_σ⟩⟨Φ_σ|` (built by
//! `entangle::bell_diagonal` / `entangle::werner`) the teleportation
//! channel of [`crate::teleport`] (Eq. 22) is the Pauli channel
//! `E(φ) = Σ_σ q_σ σφσ`. Because a
//! Pauli channel is diagonal in the Pauli transfer basis with eigenvalues
//!
//! `λ_P = Σ_σ q_σ·χ(P, σ)`, `χ(P,σ) = ±1` (commute/anticommute),
//!
//! its inverse is the quasi-Pauli map `D = Σ_σ d_σ σ·σ` with
//! `d = ¼·X·(1/λ)` for the character matrix `X[P][σ] = χ(P,σ)` (which
//! satisfies `X² = 4I`). Composing `D ∘ E = I` yields a wire cut whose
//! terms are *teleport, then apply a Pauli correction* — each LOCC — with
//! sampling overhead `κ = Σ_σ|d_σ|`.
//!
//! This probabilistic-error-cancellation construction is valid for every
//! Bell-diagonal state with non-vanishing channel eigenvalues, but it is
//! generally **not optimal**: Theorem 1 lower-bounds the overhead by
//! `γ = 2/f(ρ) − 1` with `f` the LOCC-maximal overlap. Experiment E10
//! quantifies the gap on Werner states.
//!
//! # Distill-then-cut
//!
//! [`DistillThenCut`] composes `m` rounds of recurrence distillation
//! ([`entangle::DistillationSchedule`], DEJMPS/BBPSSW closed-form maps)
//! with the inversion cut on the **distilled** weights. Two figures of
//! merit fall out:
//!
//! * **`κ_eff(ρ, m)`** — the per-sample sampling overhead of the
//!   composed scheme, `κ_inversion(q⁽ᵐ⁾)`. Because distillation is LOCC
//!   over `2^m` raw copies, `κ_eff` is only bound by Theorem 1 **at the
//!   distilled resource** (`κ_eff ≥ γ(q⁽ᵐ⁾)`) and can drop *below* the
//!   raw bound `γ(ρ)` — the gap the ROADMAP's Werner item asks about
//!   genuinely closes (e.g. one round at Werner `p = 0.8` already beats
//!   both `κ_inversion(p)` and `γ(p)`).
//! * **`κ_pair(ρ, m)` = `κ_eff·√(pairs per sample)`** — the raw-pair
//!   cost at fixed precision: estimating to `±ε` takes `κ_eff²/ε²`
//!   samples, each consuming `Πⱼ 2/sⱼ` raw pairs, so total raw pairs =
//!   `κ_pair²/ε²` and `κ_pair(ρ, 0) = κ_inversion(ρ)` makes the `m = 0`
//!   column directly comparable. On Werner states `κ_pair` is minimised
//!   by `m = 0` everywhere — distillation never pays on the raw-pair
//!   axis because its fidelity gain is second-order in the noise while
//!   the `√2` per round pair bill is not. Experiment E16 maps both.

use crate::teleport::append_teleportation;
use crate::term::{CutTerm, WireCut};
use entangle::{bell_state, DistillationSchedule, RecurrenceProtocol};
use qlinalg::{unitary_with_first_column, Complex64, Matrix};
use qsim::{Circuit, Gate, Pauli};

/// Character table `χ(P, σ)`: +1 if the Paulis commute, −1 otherwise,
/// rows/columns ordered `I, X, Y, Z`.
pub fn pauli_character_matrix() -> [[f64; 4]; 4] {
    let mut x = [[0.0f64; 4]; 4];
    for (i, &p) in Pauli::ALL.iter().enumerate() {
        for (j, &s) in Pauli::ALL.iter().enumerate() {
            x[i][j] = if p.commutes_with(s) { 1.0 } else { -1.0 };
        }
    }
    x
}

/// Pauli-transfer eigenvalues `λ_P` of the Pauli channel with error
/// weights `q` (ordered `I, X, Y, Z`).
pub fn pauli_channel_eigenvalues(q: [f64; 4]) -> [f64; 4] {
    let x = pauli_character_matrix();
    let mut lam = [0.0f64; 4];
    for p in 0..4 {
        for s in 0..4 {
            lam[p] += q[s] * x[p][s];
        }
    }
    lam
}

/// Quasi-probability weights `d_σ` of the inverse Pauli map:
/// `d = ¼ X (1/λ)`.
///
/// # Panics
/// Panics if any eigenvalue magnitude is below `1e-9` (the channel is not
/// invertible; the resource is useless for this construction).
pub fn inverse_pauli_weights(q: [f64; 4]) -> [f64; 4] {
    let lam = pauli_channel_eigenvalues(q);
    for &l in &lam {
        assert!(
            l.abs() > 1e-9,
            "Pauli channel not invertible: eigenvalue {l}"
        );
    }
    let x = pauli_character_matrix();
    let mut d = [0.0f64; 4];
    for s in 0..4 {
        for p in 0..4 {
            d[s] += x[p][s] / lam[p];
        }
        d[s] *= 0.25;
    }
    d
}

/// The sampling overhead `κ = Σ_σ|d_σ|` of the inversion construction.
pub fn inversion_kappa(q: [f64; 4]) -> f64 {
    inverse_pauli_weights(q).iter().map(|d| d.abs()).sum()
}

/// The Theorem 1 **optimal** overhead for a Bell-diagonal resource:
/// `γ = 2/f − 1` with `f = max(max_σ q_σ, ½)` (the LOCC-maximal overlap
/// of a Bell-diagonal state is its largest Bell weight, floored at ½).
pub fn optimal_gamma_bell_diagonal(q: [f64; 4]) -> f64 {
    let f = q.iter().fold(0.5f64, |a, &b| a.max(b));
    crate::theory::gamma_from_overlap(f.min(1.0))
}

/// Wire cut with a Bell-diagonal resource state via Pauli-channel
/// inversion. Term σ: teleport through the (purified) resource, then
/// apply σ on the receiver; coefficient `d_σ`.
#[derive(Clone, Copy, Debug)]
pub struct BellDiagonalCut {
    /// Bell weights `(q_I, q_X, q_Y, q_Z)`.
    pub weights: [f64; 4],
}

impl BellDiagonalCut {
    /// Creates the cut for the given Bell weights (non-negative, summing
    /// to 1, channel invertible).
    pub fn new(weights: [f64; 4]) -> Self {
        let total: f64 = weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "Bell weights sum to {total}");
        assert!(weights.iter().all(|&w| w >= -1e-12));
        // Fail fast if not invertible.
        let _ = inverse_pauli_weights(weights);
        Self { weights }
    }

    /// The Werner-state cut: `ρ_W = p·Φ + (1−p)·I/4`.
    pub fn werner(p: f64) -> Self {
        let rest = (1.0 - p) / 4.0;
        Self::new([p + rest, rest, rest, rest])
    }

    /// Builds the term circuit for correction Pauli σ. Register layout:
    /// 0 = data, 1 = resource sender half, 2 = receiver, 3–4 = purifying
    /// environment qubits (part of the pre-shared resource preparation,
    /// never touched afterwards).
    ///
    /// The environment pair is prepared in `Σ_j √w_j |j⟩` with the index
    /// encoding `0 → I, 1 → X (bit0), 2 → Z (bit1), 3 → XZ ≅ Y`; the
    /// weights are permuted accordingly by the caller. Tracing the
    /// environment then leaves exactly the Bell-diagonal resource on
    /// qubits (1, 2) — relative phases between environment branches never
    /// matter because the branches stay orthogonal.
    fn term_circuit_with_encoding(weights_ixzy: [f64; 4], sigma: Pauli) -> Circuit {
        let mut c = Circuit::new(5, 2);
        // --- pre-shared resource preparation (exempt from LOCC checks) ---
        let amps: Vec<Complex64> = weights_ixzy
            .iter()
            .map(|&q| qlinalg::c64(q.max(0.0).sqrt(), 0.0))
            .collect();
        let prep = unitary_with_first_column(&amps);
        c.gate(Gate::Unitary2(prep), &[3, 4]);
        c.h(1);
        c.cx(1, 2);
        c.cx(3, 1); // X on the sender half when bit0 of the index is set
        c.cz(4, 1); // Z when bit1 is set
        let prep_len = c.len();
        debug_assert_eq!(prep_len, 5);
        // --- LOCC protocol ---
        append_teleportation(&mut c, 0, 1, 2, 0, 1);
        if sigma != Pauli::I {
            c.gate(Gate::from_pauli(sigma), &[2]);
        }
        c
    }

    /// Closed-form per-term `⟨Z⟩` values of the inversion cut for an
    /// input wire whose **uncut** expectation is `z`: the term-σ channel
    /// is `σ ∘ E` for the Pauli channel `E` with eigenvalues `λ_P`, so
    ///
    /// `⟨Z⟩_σ = χ(Z, σ) · λ_Z · z`
    ///
    /// (`χ(Z, σ) = +1` for `σ ∈ {I, Z}`, `−1` for `σ ∈ {X, Y}`; for a
    /// Werner resource `λ_Z = p`). Ordered and filtered exactly like
    /// [`terms`](WireCut::terms), so the values align index-for-index
    /// with [`spec`](WireCut::spec).
    pub fn z_term_expectations(&self, z: f64) -> Vec<f64> {
        let d = inverse_pauli_weights(self.weights);
        let lambda_z = pauli_channel_eigenvalues(self.weights)[3];
        let x = pauli_character_matrix();
        Pauli::ALL
            .iter()
            .enumerate()
            .zip(d.iter())
            .filter(|(_, &coeff)| coeff.abs() > 1e-14)
            .map(|((sigma_idx, _), _)| x[3][sigma_idx] * lambda_z * z)
            .collect()
    }

    /// The **p-parameterised channel on the batched sampler path**: the
    /// cut's QPD spec plus one calibrated [`qpd::BernoulliTerm`] per
    /// term at the closed-form expectation of
    /// [`z_term_expectations`](Self::z_term_expectations).
    ///
    /// Each `BernoulliTerm` is the term's ±1 law, fixed by its
    /// expectation (clamped into `[-1, 1]`) and prepared once: it serves
    /// an entire shot allocation as **one** exact binomial draw, so a
    /// dense Werner p-sweep (experiment E15) estimates at thousands of
    /// grid points without ever simulating the 5-qubit term circuits —
    /// the channel is Pauli, its action on `⟨Z⟩` is the closed form
    /// above, and the shot noise is exactly the ±1 Bernoulli noise of a
    /// real Z measurement. This is the same term law every compiled cut
    /// plan draws from. Cross-validated against the circuit-level
    /// [`crate::executor::PreparedCut`] path in this module's tests.
    pub fn z_samplers(&self, z: f64) -> (qpd::QpdSpec, Vec<qpd::BernoulliTerm>) {
        let spec = WireCut::spec(self);
        let samplers = self
            .z_term_expectations(z)
            .iter()
            .map(|&e| qpd::BernoulliTerm::new(e.clamp(-1.0, 1.0)))
            .collect();
        (spec, samplers)
    }

    /// The resource density operator this cut assumes.
    pub fn resource_density(&self) -> Matrix {
        let mut rho = Matrix::zeros(4, 4);
        for (i, &sigma) in Pauli::ALL.iter().enumerate() {
            let b = bell_state(sigma).to_density();
            rho.axpy(qlinalg::c64(self.weights[i], 0.0), &b);
        }
        rho
    }
}

impl WireCut for BellDiagonalCut {
    fn name(&self) -> String {
        format!(
            "bell-diagonal-inversion(q=[{:.3},{:.3},{:.3},{:.3}])",
            self.weights[0], self.weights[1], self.weights[2], self.weights[3]
        )
    }

    fn terms(&self) -> Vec<CutTerm> {
        let d = inverse_pauli_weights(self.weights);
        // Circuit encoding order is (I, X, Z, Y).
        let weights_ixzy = [
            self.weights[0],
            self.weights[1],
            self.weights[3],
            self.weights[2],
        ];
        Pauli::ALL
            .iter()
            .zip(d.iter())
            .filter(|(_, &coeff)| coeff.abs() > 1e-14)
            .map(|(&sigma, &coeff)| CutTerm {
                coefficient: coeff,
                label: format!("tel-then-{sigma}"),
                pairs_consumed: 1.0,
                circuit: Self::term_circuit_with_encoding(weights_ixzy, sigma),
                input_qubits: vec![0],
                output_qubits: vec![2],
                resource_prep_len: 5,
            })
            .collect()
    }
}

/// Which cost axis a distill-then-cut planner optimises over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverheadMetric {
    /// Per-sample sampling overhead `κ_eff` (raw-pair consumption is
    /// free): more rounds always (weakly) help for distillable inputs.
    PerSample,
    /// Raw-pair cost at fixed precision, `κ_pair = κ_eff·√(pairs per
    /// sample)`: every round bills its `2/sⱼ` pair factor.
    PerRawPair,
}

/// Wire cut through an `m`-round-distilled Bell-diagonal resource: run
/// the recurrence schedule offline on the raw pairs, then apply the
/// Pauli-inversion cut of [`BellDiagonalCut`] to the distilled state.
///
/// Everything stays closed-form on the Bell-diagonal manifold: the
/// schedule is exact ([`entangle::DistillationSchedule`]), the cut's
/// per-term `⟨Z⟩` action is the Pauli-channel closed form, and the
/// batched sampler path ([`z_samplers`](Self::z_samplers)) mirrors
/// [`BellDiagonalCut::z_samplers`] — a dense `(p, m)` sweep never
/// simulates a circuit. See the module docs for the `κ_eff`/`κ_pair`
/// accounting.
#[derive(Clone, Debug)]
pub struct DistillThenCut {
    raw_weights: [f64; 4],
    schedule: DistillationSchedule,
    cut: BellDiagonalCut,
}

impl DistillThenCut {
    /// Distills `rounds` recurrence rounds of `protocol` from
    /// `raw_weights`, then cuts with the inversion construction.
    ///
    /// # Panics
    /// Panics if the weights are invalid or the **distilled** channel is
    /// not invertible (any raw weights with `q_I > ½` are safe for every
    /// `m`: DEJMPS preserves `q_I > ½`, which keeps all eigenvalues
    /// `≥ 2q_I − 1 > 0`).
    pub fn new(raw_weights: [f64; 4], rounds: usize, protocol: RecurrenceProtocol) -> Self {
        let schedule = DistillationSchedule::new(raw_weights, rounds, protocol);
        let cut = BellDiagonalCut::new(schedule.final_weights());
        Self {
            raw_weights,
            schedule,
            cut,
        }
    }

    /// The Werner-state pipeline `ρ_W = p·Φ + (1−p)·I/4` under DEJMPS
    /// (the stronger of the two protocols on Werner inputs).
    pub fn werner(p: f64, rounds: usize) -> Self {
        let rest = (1.0 - p) / 4.0;
        Self::new(
            [p + rest, rest, rest, rest],
            rounds,
            RecurrenceProtocol::Dejmps,
        )
    }

    /// Number of recurrence rounds.
    pub fn rounds(&self) -> usize {
        self.schedule.rounds()
    }

    /// The raw (pre-distillation) Bell weights.
    pub fn raw_weights(&self) -> [f64; 4] {
        self.raw_weights
    }

    /// The distilled Bell weights the cut actually uses.
    pub fn distilled_weights(&self) -> [f64; 4] {
        self.schedule.final_weights()
    }

    /// The exact distillation schedule.
    pub fn schedule(&self) -> &DistillationSchedule {
        &self.schedule
    }

    /// The inversion cut on the distilled resource.
    pub fn cut(&self) -> &BellDiagonalCut {
        &self.cut
    }

    /// Fidelity of the distilled resource with `|Φ⁺⟩`.
    pub fn fidelity(&self) -> f64 {
        self.schedule.fidelity()
    }

    /// Probability that one full `m`-round attempt chain succeeds.
    pub fn success_probability(&self) -> f64 {
        self.schedule.success_probability()
    }

    /// Expected **raw** pairs consumed per cut sample: `Πⱼ 2/sⱼ`
    /// (`= 1` at `m = 0`, `≥ 2^m` otherwise).
    pub fn raw_pairs_per_sample(&self) -> f64 {
        self.schedule.expected_pairs_per_output()
    }

    /// The per-sample sampling overhead of the composed scheme:
    /// `κ_eff = κ_inversion(q⁽ᵐ⁾)`. Collapses to `κ_inversion(ρ)` at
    /// `m = 0`.
    pub fn kappa_eff(&self) -> f64 {
        inversion_kappa(self.distilled_weights())
    }

    /// The raw-pair cost at fixed precision, `κ_pair = κ_eff·√(raw
    /// pairs per sample)`: total raw pairs to reach `±ε` is
    /// `κ_pair²/ε²`. Also collapses to `κ_inversion(ρ)` at `m = 0`.
    pub fn kappa_pair(&self) -> f64 {
        self.kappa_eff() * self.raw_pairs_per_sample().sqrt()
    }

    /// The overhead under the given metric.
    pub fn kappa_metric(&self, metric: OverheadMetric) -> f64 {
        match metric {
            OverheadMetric::PerSample => self.kappa_eff(),
            OverheadMetric::PerRawPair => self.kappa_pair(),
        }
    }

    /// Theorem 1 bound of the **raw** resource, `γ(ρ) = 2/f(ρ) − 1`.
    pub fn gamma_raw(&self) -> f64 {
        optimal_gamma_bell_diagonal(self.raw_weights)
    }

    /// Theorem 1 bound of the **distilled** resource — the bound
    /// `κ_eff` can never beat (`κ_eff ≥ γ(q⁽ᵐ⁾)` is exactly the
    /// inversion-vs-Theorem-1 statement at the distilled weights).
    pub fn gamma_distilled(&self) -> f64 {
        optimal_gamma_bell_diagonal(self.distilled_weights())
    }

    /// Closed-form per-term `⟨Z⟩` values for an input wire whose uncut
    /// expectation is `z` — [`BellDiagonalCut::z_term_expectations`] at
    /// the distilled weights.
    pub fn z_term_expectations(&self, z: f64) -> Vec<f64> {
        self.cut.z_term_expectations(z)
    }

    /// The batched sampler path at the distilled weights: one
    /// [`qpd::BernoulliTerm`] law per term, mirroring
    /// [`BellDiagonalCut::z_samplers`] — except the spec's per-term pair
    /// consumption is billed in **raw** pairs (`Πⱼ 2/sⱼ` each), so
    /// `QpdSpec::expected_pairs_per_sample` reports the true resource
    /// cost of the composed scheme.
    pub fn z_samplers(&self, z: f64) -> (qpd::QpdSpec, Vec<qpd::BernoulliTerm>) {
        let samplers = self
            .z_term_expectations(z)
            .iter()
            .map(|&e| qpd::BernoulliTerm::new(e.clamp(-1.0, 1.0)))
            .collect();
        (WireCut::spec(self), samplers)
    }
}

impl WireCut for DistillThenCut {
    fn name(&self) -> String {
        format!(
            "distill({}x{:?})-then-{}",
            self.rounds(),
            self.schedule.protocol(),
            self.cut.name()
        )
    }

    /// The LOCC term circuits of the inversion cut **on the distilled
    /// resource** (the recurrence itself happens offline in the
    /// pre-shared resource stage), with each term's pair bill scaled to
    /// raw pairs.
    fn terms(&self) -> Vec<CutTerm> {
        let pairs = self.raw_pairs_per_sample();
        self.cut
            .terms()
            .into_iter()
            .map(|mut t| {
                t.pairs_consumed *= pairs;
                t
            })
            .collect()
    }
}

/// The round count in `0..=max_rounds` minimising the overhead under
/// `metric` (ties break towards fewer rounds), with the winning value.
pub fn optimal_rounds(
    raw_weights: [f64; 4],
    max_rounds: usize,
    protocol: RecurrenceProtocol,
    metric: OverheadMetric,
) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for m in 0..=max_rounds {
        let kappa = DistillThenCut::new(raw_weights, m, protocol).kappa_metric(metric);
        if kappa < best.1 - 1e-12 {
            best = (m, kappa);
        }
    }
    best
}

/// The smallest round count in `1..=max_rounds` whose per-sample
/// overhead `κ_eff` drops **below the raw Theorem 1 bound** `γ(ρ)` —
/// i.e. the depth at which distillation closes the ROADMAP's
/// `κ_inversion`-vs-`γ` gap — or `None` if none does (e.g. anywhere on
/// the `f(ρ) = ½` boundary, where fidelity is a fixed point).
pub fn rounds_to_close_gap(
    raw_weights: [f64; 4],
    max_rounds: usize,
    protocol: RecurrenceProtocol,
) -> Option<usize> {
    let gamma = optimal_gamma_bell_diagonal(raw_weights);
    (1..=max_rounds)
        .find(|&m| DistillThenCut::new(raw_weights, m, protocol).kappa_eff() < gamma - 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{identity_distance, term_channel, verify_locc_structure};
    use qsim::Superoperator;

    #[test]
    fn character_matrix_squares_to_four_identity() {
        let x = pauli_character_matrix();
        for i in 0..4 {
            for j in 0..4 {
                let acc: f64 = (0..4).map(|k| x[i][k] * x[k][j]).sum();
                let expect = if i == j { 4.0 } else { 0.0 };
                assert!((acc - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn eigenvalues_of_pure_bell_channel_are_unity() {
        let lam = pauli_channel_eigenvalues([1.0, 0.0, 0.0, 0.0]);
        for l in lam {
            assert!((l - 1.0).abs() < 1e-12);
        }
        assert!((inversion_kappa([1.0, 0.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn werner_eigenvalues_and_kappa() {
        let p = 0.8;
        let cut = BellDiagonalCut::werner(p);
        let lam = pauli_channel_eigenvalues(cut.weights);
        assert!((lam[0] - 1.0).abs() < 1e-12);
        for (i, &l) in lam.iter().enumerate().skip(1) {
            assert!((l - p).abs() < 1e-12, "λ_{i} = {l}");
        }
        // κ = (3/p − 1)/2 for Werner.
        let expect = (3.0 / p - 1.0) / 2.0;
        assert!((inversion_kappa(cut.weights) - expect).abs() < 1e-10);
    }

    #[test]
    fn inversion_never_beats_theorem1_bound() {
        for &p in &[0.5, 0.6, 0.75, 0.9, 1.0] {
            let cut = BellDiagonalCut::werner(p);
            let kappa = inversion_kappa(cut.weights);
            let gamma = optimal_gamma_bell_diagonal(cut.weights);
            assert!(
                kappa >= gamma - 1e-9,
                "inversion κ={kappa} beats Theorem 1 γ={gamma} at p={p}"
            );
        }
    }

    #[test]
    fn dephased_phi_k_resource_is_costlier_than_pure() {
        // Mixing Φk's Bell overlaps as a classical mixture destroys the
        // coherence Theorem 2 exploits: the inversion overhead exceeds the
        // pure-state optimum of Corollary 1.
        let k: f64 = 0.5;
        let d = 2.0 * (k * k + 1.0);
        let qi = (k + 1.0) * (k + 1.0) / d;
        let qz = (k - 1.0) * (k - 1.0) / d;
        let kappa = inversion_kappa([qi, 0.0, 0.0, qz]);
        let gamma_pure = crate::theory::gamma_phi_k(k);
        assert!(
            kappa > gamma_pure + 1e-6,
            "κ={kappa} vs pure γ={gamma_pure}"
        );
        let gamma_mixed = optimal_gamma_bell_diagonal([qi, 0.0, 0.0, qz]);
        assert!(kappa >= gamma_mixed - 1e-9);
    }

    #[test]
    fn bell_diagonal_cut_reconstructs_identity() {
        for weights in [
            [1.0, 0.0, 0.0, 0.0],
            [0.85, 0.05, 0.04, 0.06],
            [0.7, 0.1, 0.1, 0.1],
        ] {
            let cut = BellDiagonalCut::new(weights);
            let dist = identity_distance(&cut);
            assert!(
                dist < 1e-9,
                "Bell-diagonal inversion cut wrong for {weights:?}: distance {dist}"
            );
        }
    }

    #[test]
    fn werner_cut_reconstructs_identity() {
        let cut = BellDiagonalCut::werner(0.75);
        let dist = identity_distance(&cut);
        assert!(dist < 1e-9, "Werner cut distance {dist}");
    }

    #[test]
    fn teleport_term_channel_is_pauli_channel() {
        // The σ = I term must equal the Bell-diagonal teleportation
        // channel itself (Eq. 22 with the mixed resource).
        let cut = BellDiagonalCut::new([0.85, 0.05, 0.04, 0.06]);
        let terms = cut.terms();
        let ch = term_channel(&terms[0]);
        let expect = crate::teleport::teleportation_channel_closed_form(&cut.resource_density());
        assert!(
            ch.distance(&expect) < 1e-9,
            "teleport term deviates: {}",
            ch.distance(&expect)
        );
    }

    #[test]
    fn terms_are_locc_after_resource_distribution() {
        let cut = BellDiagonalCut::werner(0.7);
        for term in cut.terms() {
            // Sender: data qubit + sender half; receiver: receiver qubit;
            // the environment (3, 4) belongs to the preparation stage.
            verify_locc_structure(&term, &[0, 1, 3, 4]).expect("term not LOCC");
        }
    }

    #[test]
    fn spec_kappa_matches_inversion_kappa() {
        let cut = BellDiagonalCut::werner(0.8);
        assert!((cut.kappa() - inversion_kappa(cut.weights)).abs() < 1e-10);
        assert!(cut.spec().validate(1e-9).is_ok());
    }

    #[test]
    #[should_panic(expected = "not invertible")]
    fn completely_depolarising_resource_rejected() {
        let _ = BellDiagonalCut::new([0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn resource_density_is_physical() {
        let cut = BellDiagonalCut::werner(0.6);
        let rho = cut.resource_density();
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!(rho.is_hermitian(1e-12));
        let eig = qlinalg::eigh(&rho);
        assert!(eig.values.iter().all(|&l| l > -1e-10));
    }

    #[test]
    fn batched_estimator_is_unbiased_for_bell_diagonal_cut() {
        // End-to-end through the batched sampling engine: the Werner
        // Pauli-inversion cut recombines to the uncut ⟨Z⟩.
        use crate::executor::{uncut_expectation, PreparedCut};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let w = qsim::Gate::Ry(0.8).matrix();
        let expect = uncut_expectation(&w, qsim::Pauli::Z);
        let cut = BellDiagonalCut::werner(0.85);
        let prepared = PreparedCut::new(&cut, &w, qsim::Pauli::Z);
        assert!((prepared.exact_value() - expect).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(302);
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
        assert!((mean - expect).abs() < 0.03, "mean {mean} vs {expect}");
    }

    #[test]
    fn closed_form_term_expectations_match_circuit_path() {
        // The Pauli-channel closed form ⟨Z⟩_σ = χ(Z,σ)·λ_Z·z must agree
        // with the full 5-qubit circuit simulation of each term, for
        // every term and several resources/states.
        use crate::executor::{uncut_expectation, PreparedCut};
        use qpd::TermSampler;
        for weights in [
            [0.85, 0.05, 0.04, 0.06],
            [0.7, 0.1, 0.1, 0.1],
            [1.0, 0.0, 0.0, 0.0],
        ] {
            let cut = BellDiagonalCut::new(weights);
            for theta in [0.3, 0.8, 2.1] {
                let w = qsim::Gate::Ry(theta).matrix();
                let z = uncut_expectation(&w, qsim::Pauli::Z);
                let closed = cut.z_term_expectations(z);
                let prepared = PreparedCut::new(&cut, &w, qsim::Pauli::Z);
                assert_eq!(closed.len(), prepared.terms.len());
                for (c, t) in closed.iter().zip(prepared.terms.iter()) {
                    assert!(
                        (c - t.exact_expectation()).abs() < 1e-9,
                        "closed form {c} vs circuit {} for {weights:?}",
                        t.exact_expectation()
                    );
                }
            }
        }
    }

    #[test]
    fn z_samplers_spec_matches_wire_cut_spec() {
        use qpd::TermSampler;
        let cut = BellDiagonalCut::werner(0.7);
        let (spec, samplers) = cut.z_samplers(0.4);
        let reference = cut.spec();
        assert_eq!(spec.len(), reference.len());
        assert_eq!(spec.len(), samplers.len());
        for (a, b) in spec.coefficients().iter().zip(reference.coefficients()) {
            assert!((a - b).abs() < 1e-12);
        }
        // The calibrated samplers reconstruct z exactly in expectation.
        let value: f64 = spec
            .coefficients()
            .iter()
            .zip(samplers.iter())
            .map(|(c, s)| c * s.exact_expectation())
            .sum();
        assert!((value - 0.4).abs() < 1e-10);
    }

    #[test]
    fn batched_closed_form_estimator_matches_circuit_estimator() {
        // The circuit-free sampler family and the laws read off the term
        // circuits must agree in mean at matched budgets.
        use crate::executor::{uncut_expectation, PreparedCut};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = 0.75;
        let cut = BellDiagonalCut::werner(p);
        let w = qsim::Gate::Ry(1.1).matrix();
        let z = uncut_expectation(&w, qsim::Pauli::Z);
        let (spec, samplers) = cut.z_samplers(z);
        let mut rng = StdRng::seed_from_u64(404);
        let reps = 60;
        let mean_closed: f64 = (0..reps)
            .map(|_| {
                qpd::estimate_allocated(
                    &spec,
                    &samplers,
                    4000,
                    qpd::Allocator::Proportional,
                    &mut rng,
                )
            })
            .sum::<f64>()
            / reps as f64;
        let prepared = PreparedCut::new(&cut, &w, qsim::Pauli::Z);
        let mean_circuit: f64 = (0..reps)
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
        assert!(
            (mean_closed - z).abs() < 0.04,
            "closed {mean_closed} vs {z}"
        );
        assert!(
            (mean_closed - mean_circuit).abs() < 0.06,
            "closed {mean_closed} vs circuit {mean_circuit}"
        );
    }

    #[test]
    fn degenerate_identity_check_via_channel() {
        // κ = 1 at q = (1,0,0,0): the only term is plain teleportation.
        let cut = BellDiagonalCut::new([1.0, 0.0, 0.0, 0.0]);
        assert_eq!(cut.terms().len(), 1);
        let ch = term_channel(&cut.terms()[0]);
        assert!(ch.distance(&Superoperator::identity(2)) < 1e-9);
    }

    // --- distill-then-cut ---

    #[test]
    fn zero_rounds_is_exactly_the_inversion_cut() {
        for &p in &[0.4, 0.6, 0.85] {
            let pipeline = DistillThenCut::werner(p, 0);
            let direct = BellDiagonalCut::werner(p);
            assert_eq!(pipeline.distilled_weights(), direct.weights);
            assert!((pipeline.kappa_eff() - inversion_kappa(direct.weights)).abs() < 1e-12);
            assert!((pipeline.kappa_pair() - pipeline.kappa_eff()).abs() < 1e-12);
            assert!((pipeline.raw_pairs_per_sample() - 1.0).abs() < 1e-15);
            // Identical QPD coefficients.
            let (a, b) = (WireCut::spec(&pipeline), direct.spec());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pure_resource_makes_distillation_a_noop() {
        for m in 0..4 {
            let pipeline = DistillThenCut::werner(1.0, m);
            assert_eq!(pipeline.distilled_weights(), [1.0, 0.0, 0.0, 0.0]);
            assert!((pipeline.kappa_eff() - 1.0).abs() < 1e-12);
            assert!((pipeline.gamma_raw() - 1.0).abs() < 1e-12);
            assert!((pipeline.success_probability() - 1.0).abs() < 1e-12);
        }
        // And the planner never spends rounds on it (per-sample metric
        // ties at κ = 1, which break towards m = 0).
        let (m, kappa) = optimal_rounds(
            [1.0, 0.0, 0.0, 0.0],
            4,
            RecurrenceProtocol::Dejmps,
            OverheadMetric::PerSample,
        );
        assert_eq!(m, 0);
        assert!((kappa - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_round_at_p_08_beats_inversion_and_the_raw_bound() {
        // The headline gap-closing point: at Werner p = 0.8 a single
        // DEJMPS round drops the per-sample overhead below both the
        // direct inversion cut AND the raw Theorem 1 bound.
        let p = 0.8;
        let pipeline = DistillThenCut::werner(p, 1);
        let kappa_inv = inversion_kappa(BellDiagonalCut::werner(p).weights);
        assert!((kappa_inv - (3.0 / p - 1.0) / 2.0).abs() < 1e-12);
        assert!(
            pipeline.kappa_eff() < kappa_inv - 0.05,
            "κ_eff {} vs κ_inv {kappa_inv}",
            pipeline.kappa_eff()
        );
        assert!(
            pipeline.kappa_eff() < pipeline.gamma_raw() - 0.05,
            "κ_eff {} vs γ_raw {}",
            pipeline.kappa_eff(),
            pipeline.gamma_raw()
        );
        assert_eq!(
            rounds_to_close_gap(pipeline.raw_weights(), 4, RecurrenceProtocol::Dejmps),
            Some(1)
        );
    }

    #[test]
    fn kappa_eff_respects_the_distilled_theorem1_bound() {
        for &p in &[0.4, 0.55, 0.7, 0.9] {
            for m in 0..4 {
                let pipeline = DistillThenCut::werner(p, m);
                assert!(
                    pipeline.kappa_eff() >= pipeline.gamma_distilled() - 1e-9,
                    "κ_eff {} beats γ(q^{m}) {} at p={p}",
                    pipeline.kappa_eff(),
                    pipeline.gamma_distilled()
                );
            }
        }
    }

    #[test]
    fn pair_axis_never_rewards_distillation_on_werner() {
        // κ_pair = κ_eff·√(raw pairs) is minimised by m = 0 across the
        // sweep range: the fidelity gain is second-order in the noise,
        // the √2-per-round pair bill is not.
        for &p in &[0.4, 0.6, 0.8, 0.95] {
            let (m, kappa) = optimal_rounds(
                DistillThenCut::werner(p, 0).raw_weights(),
                4,
                RecurrenceProtocol::Dejmps,
                OverheadMetric::PerRawPair,
            );
            assert_eq!(m, 0, "pair-axis planner chose m={m} at p={p}");
            assert!((kappa - (3.0 / p - 1.0) / 2.0).abs() < 1e-10);
        }
    }

    #[test]
    fn boundary_werner_state_never_closes_the_gap() {
        // f = ½ is a fixed point of both recurrences, so no depth helps.
        let boundary = DistillThenCut::werner(1.0 / 3.0, 0);
        assert_eq!(
            rounds_to_close_gap(boundary.raw_weights(), 6, RecurrenceProtocol::Dejmps),
            None
        );
        assert_eq!(
            rounds_to_close_gap(boundary.raw_weights(), 6, RecurrenceProtocol::Bbpssw),
            None
        );
    }

    #[test]
    fn distilled_terms_reconstruct_the_identity() {
        // The composed scheme is still an exact wire cut at the channel
        // level (the distillation only moves the resource weights).
        let pipeline = DistillThenCut::werner(0.7, 2);
        let dist = identity_distance(&pipeline);
        assert!(dist < 1e-9, "distill-then-cut distance {dist}");
    }

    #[test]
    fn spec_bills_raw_pairs_per_sample() {
        let pipeline = DistillThenCut::werner(0.75, 2);
        let spec = WireCut::spec(&pipeline);
        // Every term consumes Πⱼ 2/sⱼ raw pairs, so the κ-weighted
        // expectation is raw_pairs_per_sample exactly.
        assert!((spec.expected_pairs_per_sample() - pipeline.raw_pairs_per_sample()).abs() < 1e-9);
        assert!(pipeline.raw_pairs_per_sample() >= 4.0);
        // The QPD structure itself matches the distilled-weights cut.
        assert!((spec.kappa() - pipeline.kappa_eff()).abs() < 1e-12);
    }

    #[test]
    fn z_samplers_match_the_distilled_cut_closed_form() {
        use qpd::TermSampler;
        let pipeline = DistillThenCut::werner(0.8, 1);
        let z = 0.37;
        let (spec, samplers) = pipeline.z_samplers(z);
        assert_eq!(spec.len(), samplers.len());
        let value: f64 = spec
            .coefficients()
            .iter()
            .zip(samplers.iter())
            .map(|(c, s)| c * s.exact_expectation())
            .sum();
        assert!((value - z).abs() < 1e-10, "recombined {value} vs {z}");
        // Per-term expectations equal the distilled-channel closed form.
        for (a, b) in pipeline.z_term_expectations(z).iter().zip(samplers.iter()) {
            assert!((a - b.exact_expectation()).abs() < 1e-12);
        }
    }

    #[test]
    fn deeper_schedules_eventually_beat_any_fixed_kappa() {
        // For p > 1/3 the distilled state converges to Φ⁺, so κ_eff → 1.
        let pipeline = DistillThenCut::werner(0.5, 8);
        assert!(
            pipeline.kappa_eff() < 1.05,
            "κ_eff after 8 rounds = {}",
            pipeline.kappa_eff()
        );
        // ...at an exponentially growing raw-pair bill.
        assert!(pipeline.raw_pairs_per_sample() > 256.0);
    }

    #[test]
    fn low_p_gap_needs_depth_three() {
        // Near the boundary the first round *hurts* per-sample κ (the
        // DEJMPS output anisotropy is hostile to inversion) and the gap
        // only closes at m = 3 — the non-monotone structure E16 maps.
        let raw = DistillThenCut::werner(0.4, 0);
        let kappa_inv = raw.kappa_eff();
        let one = DistillThenCut::werner(0.4, 1);
        assert!(
            one.kappa_eff() > kappa_inv,
            "round 1 should overshoot: {} vs {kappa_inv}",
            one.kappa_eff()
        );
        assert_eq!(
            rounds_to_close_gap(raw.raw_weights(), 6, RecurrenceProtocol::Dejmps),
            Some(3)
        );
    }
}
