//! Quasiprobability decomposition specifications.
//!
//! A QPD (paper Eq. 11) writes a target operation as `E = Σᵢ cᵢ Fᵢ` with
//! implementable `Fᵢ` and real coefficients summing to 1. The sampling
//! cost is governed by `κ = Σᵢ|cᵢ|` (Eq. 12–13): reproducing `E`'s
//! expectation values to accuracy ε needs `O(κ²/ε²)` shots.

/// Metadata of one QPD term: its signed coefficient and how many
/// pre-shared entangled pairs executing it consumes (0 for
/// measure-and-prepare terms, 1 for each teleportation).
#[derive(Clone, Debug)]
pub struct TermSpec {
    /// Signed quasiprobability coefficient `cᵢ`.
    pub coefficient: f64,
    /// Entangled pairs consumed per execution of this term.
    pub pairs_consumed: f64,
}

/// The coefficient structure of a quasiprobability decomposition.
#[derive(Clone, Debug)]
pub struct QpdSpec {
    terms: Vec<TermSpec>,
}

impl QpdSpec {
    /// Builds a spec from term metadata.
    ///
    /// # Panics
    /// Panics if empty or if any coefficient is non-finite.
    pub fn new(terms: Vec<TermSpec>) -> Self {
        assert!(!terms.is_empty(), "QPD needs at least one term");
        assert!(
            terms.iter().all(|t| t.coefficient.is_finite()),
            "non-finite QPD coefficient"
        );
        Self { terms }
    }

    /// Convenience constructor from `(coefficient, pairs)` tuples.
    pub fn from_parts(parts: &[(f64, f64)]) -> Self {
        Self::new(
            parts
                .iter()
                .map(|&(coefficient, pairs_consumed)| TermSpec {
                    coefficient,
                    pairs_consumed,
                })
                .collect(),
        )
    }

    /// The term metadata.
    pub fn terms(&self) -> &[TermSpec] {
        &self.terms
    }

    /// Number of terms `m`.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when there are no terms (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Signed coefficients `cᵢ`.
    pub fn coefficients(&self) -> Vec<f64> {
        self.terms.iter().map(|t| t.coefficient).collect()
    }

    /// `κ = Σ|cᵢ|` — the one-shot sampling overhead factor (Eq. 12).
    pub fn kappa(&self) -> f64 {
        self.terms.iter().map(|t| t.coefficient.abs()).sum()
    }

    /// `κ²` — the multiplicative shot overhead to reach fixed accuracy.
    pub fn sampling_overhead(&self) -> f64 {
        let k = self.kappa();
        k * k
    }

    /// Sum of signed coefficients; must be 1 for a valid decomposition of
    /// a trace-preserving target.
    pub fn coefficient_sum(&self) -> f64 {
        self.terms.iter().map(|t| t.coefficient).sum()
    }

    /// Sampling probabilities `pᵢ = |cᵢ|/κ` (Eq. 12).
    pub fn probabilities(&self) -> Vec<f64> {
        let k = self.kappa();
        assert!(k > 0.0, "zero-kappa QPD");
        self.terms.iter().map(|t| t.coefficient.abs() / k).collect()
    }

    /// Signs `sign(cᵢ)` as ±1.
    pub fn signs(&self) -> Vec<f64> {
        self.terms.iter().map(|t| t.coefficient.signum()).collect()
    }

    /// Expected entangled pairs consumed per QPD sample:
    /// `Σᵢ pᵢ · pairsᵢ`.
    pub fn expected_pairs_per_sample(&self) -> f64 {
        let probs = self.probabilities();
        self.terms
            .iter()
            .zip(probs.iter())
            .map(|(t, &p)| p * t.pairs_consumed)
            .sum()
    }

    /// Checks structural validity: coefficients sum to 1 within `tol`.
    pub fn validate(&self, tol: f64) -> Result<(), String> {
        let s = self.coefficient_sum();
        if (s - 1.0).abs() > tol {
            return Err(format!("QPD coefficients sum to {s}, expected 1"));
        }
        Ok(())
    }

    /// The product QPD of several independent decompositions — the
    /// coefficient structure of a whole multi-cut execution *plan*:
    /// one term per combination of one term from each factor, with
    /// coefficient `Π cᵢ` and summed pair consumption, both folded left
    /// to right from `1.0` and `0.0` (`((1·c₁)·c₂)·…`).
    ///
    /// Terms are enumerated row-major (the **last** factor's index moves
    /// fastest), matching an odometer over `combo[g] = (i / strideᵍ) %
    /// lenᵍ`; plan compilers that enumerate stitched term circuits must
    /// use the same order so shot allocations line up term-by-term.
    /// `κ` multiplies: `κ(product) = Π κᵢ`.
    ///
    /// # Panics
    /// Panics when `specs` is empty.
    pub fn product(specs: &[QpdSpec]) -> QpdSpec {
        assert!(!specs.is_empty(), "product of zero QPDs");
        let mut terms = vec![TermSpec {
            coefficient: 1.0,
            pairs_consumed: 0.0,
        }];
        for spec in specs {
            let mut next = Vec::with_capacity(terms.len() * spec.len());
            for acc in &terms {
                for t in spec.terms() {
                    next.push(TermSpec {
                        coefficient: acc.coefficient * t.coefficient,
                        pairs_consumed: acc.pairs_consumed + t.pairs_consumed,
                    });
                }
            }
            terms = next;
        }
        QpdSpec::new(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harada_like() -> QpdSpec {
        // The γ = 3 optimal cut: coefficients (+1, +1, −1).
        QpdSpec::from_parts(&[(1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)])
    }

    #[test]
    fn kappa_of_harada_cut_is_three() {
        let spec = harada_like();
        assert!((spec.kappa() - 3.0).abs() < 1e-14);
        assert!((spec.sampling_overhead() - 9.0).abs() < 1e-14);
        assert!(spec.validate(1e-12).is_ok());
    }

    #[test]
    fn probabilities_normalise() {
        let spec = harada_like();
        let p = spec.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-14);
        for &pi in &p {
            assert!((pi - 1.0 / 3.0).abs() < 1e-14);
        }
    }

    #[test]
    fn signs_follow_coefficients() {
        let spec = harada_like();
        assert_eq!(spec.signs(), vec![1.0, 1.0, -1.0]);
    }

    #[test]
    fn theorem2_coefficients_at_k() {
        // a = (k²+1)/(k+1)², b = (k−1)²/(k+1)²; κ = 2a + b.
        let k: f64 = 0.5;
        let a = (k * k + 1.0) / ((k + 1.0) * (k + 1.0));
        let b = (k - 1.0) * (k - 1.0) / ((k + 1.0) * (k + 1.0));
        let spec = QpdSpec::from_parts(&[(a, 1.0), (a, 1.0), (-b, 0.0)]);
        let gamma = 4.0 * (k * k + 1.0) / ((k + 1.0) * (k + 1.0)) - 1.0;
        assert!((spec.kappa() - gamma).abs() < 1e-12);
        assert!(spec.validate(1e-12).is_ok());
        // Pair consumption: 2a/κ fraction of samples are teleportations...
        // expected pairs per sample = 2a/κ.
        let expect = 2.0 * a / spec.kappa();
        assert!((spec.expected_pairs_per_sample() - expect).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_sum() {
        let spec = QpdSpec::from_parts(&[(0.7, 0.0), (0.7, 0.0)]);
        assert!(spec.validate(1e-9).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one term")]
    fn empty_spec_panics() {
        let _ = QpdSpec::new(vec![]);
    }

    #[test]
    fn product_spec_multiplies_kappa_and_counts() {
        let a = harada_like(); // κ = 3, 3 terms
        let b = QpdSpec::from_parts(&[(0.75, 1.0), (0.25, 0.0)]); // κ = 1
        let p = QpdSpec::product(&[a.clone(), b.clone()]);
        assert_eq!(p.len(), 6);
        assert!((p.kappa() - a.kappa() * b.kappa()).abs() < 1e-12);
        assert!(p.validate(1e-12).is_ok());
        // Row-major order, last factor fastest: (a₀b₀, a₀b₁, a₁b₀, …),
        // each coefficient folded as (1·aᵢ)·bⱼ and each pair count as
        // (0 + aᵢ) + bⱼ, bit for bit.
        for (idx, t) in p.terms().iter().enumerate() {
            let (x, y) = (&a.terms()[idx / 2], &b.terms()[idx % 2]);
            assert_eq!(
                t.coefficient.to_bits(),
                (1.0 * x.coefficient * y.coefficient).to_bits()
            );
            assert_eq!(
                t.pairs_consumed.to_bits(),
                (0.0 + x.pairs_consumed + y.pairs_consumed).to_bits()
            );
        }
        assert_eq!(p.coefficients(), vec![0.75, 0.25, 0.75, 0.25, -0.75, -0.25]);
        // Pairs add across factors.
        assert!((p.terms()[0].pairs_consumed - 1.0).abs() < 1e-12);
        assert!((p.terms()[1].pairs_consumed - 0.0).abs() < 1e-12);
    }

    #[test]
    fn product_of_single_spec_is_identity() {
        let a = harada_like();
        let p = QpdSpec::product(std::slice::from_ref(&a));
        assert_eq!(p.len(), a.len());
        for (x, y) in p.terms().iter().zip(a.terms().iter()) {
            assert_eq!(x.coefficient.to_bits(), y.coefficient.to_bits());
            assert_eq!(x.pairs_consumed.to_bits(), y.pairs_consumed.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "product of zero QPDs")]
    fn empty_product_panics() {
        let _ = QpdSpec::product(&[]);
    }
}
