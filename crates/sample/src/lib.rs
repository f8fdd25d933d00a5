//! Exact discrete-distribution samplers for the batched shot engine.
//!
//! The branch-tree sampler in `qsim` draws a whole batch of shots as one
//! multinomial over its leaves instead of one tree walk per shot. That
//! reduction is only sound if the underlying binomial draws are *exact*
//! (the statistical-equivalence test suite holds the batched path to the
//! same distribution as the per-shot path), so this crate implements the
//! two textbook exact algorithms rather than a normal approximation:
//!
//! * **BINV** — CDF inversion by walking the pmf from 0; expected cost
//!   `O(n·p)`, used when `n·min(p, 1−p)` is small.
//! * **BTPE** — the triangle/parallelogram/exponential-tail
//!   acceptance-rejection scheme of Kachitvichyanukul & Schmeiser
//!   (*Binomial random variate generation*, CACM 31(2), 1988); `O(1)`
//!   expected cost per draw regardless of `n`, used otherwise.
//!
//! Both sit behind one prepared law, [`Binomial`]. [`binomial_batch`]
//! draws a whole batch of such laws, each on its own [`StreamRng`] lane,
//! with the same variates and RNG words as the scalar law term by term,
//! in chunked passes that keep the BINV walks apart from their set-up.
//!
//! [`multinomial`] composes [`binomial`] through the conditional-binomial
//! decomposition: `n₁ ~ B(n, p₁)`, `n₂ ~ B(n−n₁, p₂/(1−p₁))`, … which is
//! exactly multinomially distributed and costs `O(k)` binomial draws for
//! `k` categories — independent of the shot count.
//!
//! Paper tie-in: Section IV's procedure estimates `⟨Z⟩` from shot
//! budgets of 10²–10⁶ per configuration (Figure 6); these samplers are
//! what lets `qsim::CompiledSampler` (and through it every `qpd`
//! estimator and `wirecut` term sampler) serve such a budget as one draw
//! per branch leaf instead of one tree walk per shot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod stream;

pub use grid::{
    default_threads, keyed_stream, GridKey, KeyHasher, ShardCtx, ShardResult, ShardedGrid,
};
pub use stream::{stream_block, StreamRng};

use rand::Rng;

/// Below `n·min(p, 1−p)` = 10 the inversion walk is cheaper than BTPE's
/// setup (the standard crossover, as in rand_distr and NumPy).
const BINV_THRESHOLD: f64 = 10.0;

/// Longest pmf walk BINV will attempt before redrawing: at `n·p ≤ 10`
/// the mass above 110 is far below 2⁻⁵³, so a walk this long only
/// happens when floating-point underflow has exhausted the pmf.
const BINV_MAX_X: u64 = 110;

/// Draws an exact binomial variate `B(n, p)`.
///
/// Exact in distribution for every `n` and `p ∈ [0, 1]` — no normal or
/// Poisson approximation — with `O(1)` expected cost for large `n·p`
/// (BTPE) and `O(n·p)` otherwise (BINV). Equivalent to
/// `Binomial::new(p).sample(n, rng)`; for repeated draws at one `p`,
/// build the [`Binomial`] law once and sample from it.
///
/// # Panics
/// Panics if `p` is not in `[0, 1]` (NaN included).
pub fn binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    Binomial::new(p).sample(n, rng)
}

/// The binomial law at one success probability `p`, with everything a
/// draw needs that depends on `p` alone computed once: the mirror flag,
/// `min(p, 1−p)`, BINV's odds ratio `s = p/q` and `ln q`. [`binomial`]
/// prepares one per call; callers drawing repeatedly at one `p` keep
/// theirs and get the same variates from the same RNG words.
///
/// There is one law and one BINV walk. [`Binomial::sample`] is the
/// scalar form: below `n·min(p, 1−p) = 10` it walks the pmf upward from
/// 0 (BINV), above it it runs BTPE. The walk's first three steps
/// (x = 0, 1, 2) take no division and no per-step branch, because
/// `a/1` and `a/2` are exact, and keep the bits of the plain
/// `f(x) = f(x−1)·(a/x − s)` loop. [`binomial_batch`] draws a whole
/// batch of laws, one lane each, through the same walk; this scalar law,
/// run lane by lane, is its oracle.
#[derive(Clone, Copy, Debug)]
pub struct Binomial {
    /// `p > ½`: draws sample `B(n, 1−p)` and mirror to `n − x`.
    flipped: bool,
    /// `min(p, 1−p)`, the small-probability half both kernels see.
    p: f64,
    /// `p/q` at the small half.
    s: f64,
    /// `ln q` at the small half.
    ln_q: f64,
}

impl Binomial {
    /// The law `B(·, p)`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]` (NaN included).
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "binomial p must be in [0,1]: {p}");
        // Sample the small-probability half and mirror, so both
        // algorithms only ever see p ≤ 1/2 (BTPE's geometry assumes it).
        let flipped = p > 0.5;
        let p = if flipped { 1.0 - p } else { p };
        let q = 1.0 - p;
        Binomial {
            flipped,
            p,
            s: p / q,
            ln_q: q.ln(),
        }
    }

    /// Draws one variate `B(n, p)`.
    pub fn sample<R: Rng + ?Sized>(&self, n: u64, rng: &mut R) -> u64 {
        let result = if self.walks(n) {
            self.binv(n, rng)
        } else if n == 0 || self.p == 0.0 {
            // p ∈ {0, 1} leaves no mass off one end: 0 successes,
            // mirrored to n when p = 1.
            0
        } else {
            btpe(n, self.p, rng)
        };
        self.mirror(n, result)
    }

    /// Whether a draw at `n` walks the pmf (BINV): there is mass to
    /// place and `n·min(p, 1−p)` is below [`BINV_THRESHOLD`]. BINV is
    /// valid for any n (the walk length only depends on n·p); BTPE's
    /// region geometry needs n·p·q large, which the threshold
    /// guarantees.
    fn walks(&self, n: u64) -> bool {
        n != 0 && self.p != 0.0 && (n as f64) * self.p < BINV_THRESHOLD
    }

    /// BINV: invert the CDF by walking the pmf upward from 0, one
    /// [`walk`](Self::walk) per uniform, redrawing while rounding
    /// exhausts the pmf.
    fn binv<R: Rng + ?Sized>(&self, n: u64, rng: &mut R) -> u64 {
        let r0 = self.q_pow(n);
        loop {
            if let Some(x) = self.walk(n, rng.gen(), r0) {
                return x;
            }
        }
    }

    /// BINV's `f(0) = qⁿ`, via exp(n·ln q): well-conditioned here
    /// because n·p < 10 and p ≤ ½ keep n·ln q > −14, and it works for
    /// any u64 n (powi would overflow its i32 exponent).
    fn q_pow(&self, n: u64) -> f64 {
        ((n as f64) * self.ln_q).exp()
    }

    /// One BINV walk from the uniform `u`: the least `x` with
    /// `u < f(0) + … + f(x)`, found by subtracting
    /// `f(x) = f(x−1)·(a/x − s)` from `u` step by step (`a = (n+1)·s`,
    /// `f(0) = r0`), or `None` when rounding exhausts the pmf before
    /// [`BINV_MAX_X`].
    ///
    /// Steps x = 0, 1 and 2 take no division and no per-step branch:
    /// `a/1.0` is `a` and `a/2.0` is `a·0.5` bit for bit (division and
    /// multiplication are both correctly rounded, subnormals included),
    /// so `r1` and `r2` are the loop's own `f(1)` and `f(2)`, and `u1`,
    /// `u2` its own remainders. The first failed comparison picks the
    /// variate; only when all three pass does the loop resume at x = 3.
    #[inline]
    fn walk(&self, n: u64, u: f64, r0: f64) -> Option<u64> {
        let s = self.s;
        let a = (n as f64 + 1.0) * s;
        let r1 = r0 * (a - s);
        let r2 = r1 * (a * 0.5 - s);
        let u1 = u - r0;
        let u2 = u1 - r1;
        // Every operand is finite (u ∈ [0, 1), f(0) = qⁿ ∈ (0, 1]), so
        // `u ≥ r` is exactly the loop's `!(u < r)`.
        let (c0, c1, c2) = (u >= r0, u1 >= r1, u2 >= r2);
        if !(c0 & c1 & c2) {
            return Some(c0 as u64 + (c0 & c1) as u64);
        }
        let mut u = u2 - r2;
        let mut r = r2 * (a / 3.0 - s);
        let mut x = 3u64;
        loop {
            if u < r {
                return Some(x);
            }
            u -= r;
            x += 1;
            if x > BINV_MAX_X {
                return None;
            }
            r *= a / (x as f64) - s;
        }
    }

    /// A draw `x` of the small half, as a draw of the law.
    fn mirror(&self, n: u64, x: u64) -> u64 {
        if self.flipped {
            n - x
        } else {
            x
        }
    }
}

/// Terms [`binomial_batch`] takes through its passes at once. Its
/// buffers are stack arrays of this many lanes, so a batch of any size
/// draws without touching the heap. Sixteen lanes already keep a pass
/// busy; every extra lane is zeroed on each call, which a batch of a
/// few terms pays for: on a 2-vCPU x86-64 VM, 64 lanes drew the 9-term
/// batches of a warm E18 fleet about 7 % slower than 16 did.
const CHUNK: usize = 16;

/// A BINV draw of [`binomial_batch`] between its passes.
#[derive(Clone, Copy)]
struct BinvLane<'a> {
    /// The draw's position in its chunk.
    slot: usize,
    law: &'a Binomial,
    n: u64,
    /// The lane's first uniform.
    u: f64,
    /// `f(0) = qⁿ`.
    r0: f64,
}

/// The law every unused [`BinvLane`] slot points at.
const IDLE: Binomial = Binomial {
    flipped: false,
    p: 0.0,
    s: 0.0,
    ln_q: 0.0,
};

/// Draws a batch of binomial variates: the `i`-th `(law, n)` draws
/// `B(n, p)` on its own lane `root.split(i)`, and `out(i, x)` receives
/// every variate, in draw order. Nothing outside the call can tell it
/// from the scalar law run draw by draw,
///
/// ```text
/// for (i, (law, n)) in draws.enumerate() {
///     out(i, law.sample(n, &mut root.split(i)))
/// }
/// ```
///
/// — each lane reads the same RNG words and yields the same variate.
/// Only the order of the work differs. The draws go through in
/// fixed-size chunks held in stack buffers, so the call allocates
/// nothing. In each chunk, the BINV draws run in three passes: every
/// lane's first uniform, then every `qⁿ`, then every walk, so the walks'
/// unpredictable exits no longer stall the hashing and the `exp`s.
/// Draws in the BTPE regime, and draws with no mass to
/// place (`n = 0` or `p ∈ {0, 1}`), take the scalar law on their lane
/// at once. A BINV lane whose first walk exhausts the pmf by rounding
/// goes to the scalar law too, on a fresh copy of its lane: that walks
/// the same first uniform to the same end and continues from the lane's
/// second word, exactly as the lane would have.
pub fn binomial_batch<'a>(
    draws: impl IntoIterator<Item = (&'a Binomial, u64)>,
    root: &StreamRng,
    mut out: impl FnMut(usize, u64),
) {
    let mut draws = draws.into_iter();
    let mut x = [0u64; CHUNK];
    let mut lanes = [BinvLane {
        slot: 0,
        law: &IDLE,
        n: 0,
        u: 0.0,
        r0: 0.0,
    }; CHUNK];
    for base in (0..).step_by(CHUNK) {
        let rng_of = |slot: usize| root.split((base + slot) as u64);
        // Pass 1: the scalar draws, and every BINV lane's first uniform.
        let (mut len, mut m) = (0, 0);
        for (law, n) in draws.by_ref().take(CHUNK) {
            if law.walks(n) {
                lanes[m] = BinvLane {
                    slot: len,
                    law,
                    n,
                    u: rng_of(len).gen(),
                    r0: 0.0,
                };
                m += 1;
            } else {
                x[len] = law.sample(n, &mut rng_of(len));
            }
            len += 1;
        }
        // Pass 2: every f(0) = qⁿ.
        for lane in &mut lanes[..m] {
            lane.r0 = lane.law.q_pow(lane.n);
        }
        // Pass 3: every walk.
        for lane in &lanes[..m] {
            let (law, n) = (lane.law, lane.n);
            x[lane.slot] = match law.walk(n, lane.u, lane.r0) {
                Some(v) => law.mirror(n, v),
                // Rounding exhausted the pmf: the scalar law replays the
                // lane, walks the same uniform to the same end, and
                // redraws from the lane's second word on.
                None => law.sample(n, &mut rng_of(lane.slot)),
            };
        }
        for (k, &v) in x[..len].iter().enumerate() {
            out(base + k, v);
        }
        if len < CHUNK {
            break;
        }
    }
}

/// One term of the truncated Stirling series for `ln x!`, as used in
/// BTPE's final acceptance test (step 5.3 of the paper).
fn stirling_tail(v: f64, v2: f64) -> f64 {
    (13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / v2) / v2) / v2) / v2) / v / 166320.0
}

/// BTPE: acceptance-rejection from a piecewise majorizing function
/// (central triangle, side parallelograms, exponential tails) with a
/// squeeze step so most draws cost one uniform pair and no logs.
fn btpe<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    debug_assert!(p <= 0.5);
    // Outside this |y − m| band the squeeze bounds on ln f(y) are used;
    // inside it the pmf recurrence from the mode is cheaper (step 5.0/5.1).
    const SQUEEZE_THRESHOLD: f64 = 20.0;
    let n_f = n as f64;
    let q = 1.0 - p;
    let npq = n_f * p * q;
    let f_m = n_f * p + p;
    let m = f_m.floor(); // the mode
    let p1 = (2.195 * npq.sqrt() - 4.6 * q).floor() + 0.5;
    let x_m = m + 0.5;
    let x_l = x_m - p1;
    let x_r = x_m + p1;
    let c = 0.134 + 20.5 / (15.3 + m);
    let lambda_l = {
        let a = (f_m - x_l) / (f_m - x_l * p);
        a * (1.0 + 0.5 * a)
    };
    let lambda_r = {
        let a = (x_r - f_m) / (x_r * q);
        a * (1.0 + 0.5 * a)
    };
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;

    let y: f64 = loop {
        // Step 1: region selection by u; v decides within the region.
        let u: f64 = rng.gen::<f64>() * p4;
        let mut v: f64 = rng.gen();
        if u <= p1 {
            // Central triangle: accept immediately.
            break (x_m - p1 * v + u).floor();
        }
        let y = if u <= p2 {
            // Step 2: parallelograms.
            let x = x_l + (u - p1) / c;
            v = v * c + 1.0 - (x - x_m).abs() / p1;
            if v > 1.0 {
                continue;
            }
            x.floor()
        } else if u <= p3 {
            // Step 3: left exponential tail.
            let y = (x_l + v.ln() / lambda_l).floor();
            if y < 0.0 {
                continue;
            }
            v *= (u - p2) * lambda_l;
            y
        } else {
            // Step 4: right exponential tail.
            let y = (x_r - v.ln() / lambda_r).floor();
            if y > n_f {
                continue;
            }
            v *= (u - p3) * lambda_r;
            y
        };
        // Step 5: accept y with probability f(y)/majorizer, evaluated
        // exactly — so the returned variate is exactly binomial.
        let k = (y - m).abs();
        if !(k > SQUEEZE_THRESHOLD && k < 0.5 * npq - 1.0) {
            // Step 5.1: evaluate f(y) by the pmf recurrence from the mode.
            let s = p / q;
            let a = s * (n_f + 1.0);
            let mut f = 1.0;
            if m < y {
                let mut i = m;
                loop {
                    i += 1.0;
                    f *= a / i - s;
                    if i == y {
                        break;
                    }
                }
            } else if m > y {
                let mut i = y;
                loop {
                    i += 1.0;
                    f /= a / i - s;
                    if i == m {
                        break;
                    }
                }
            }
            if v > f {
                continue;
            }
            break y;
        }
        // Step 5.2: squeeze on ln f(y).
        let rho = (k / npq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / npq + 0.5);
        let t = -0.5 * k * k / npq;
        let alpha = v.ln();
        if alpha < t - rho {
            break y;
        }
        if alpha > t + rho {
            continue;
        }
        // Step 5.3: final test against ln f(y) via the Stirling series.
        let x1 = y + 1.0;
        let f1 = m + 1.0;
        let z = n_f + 1.0 - m;
        let w = n_f - y + 1.0;
        let accept = x_m * (f1 / x1).ln()
            + (n_f - m + 0.5) * (z / w).ln()
            + (y - m) * (w * p / (x1 * q)).ln()
            + stirling_tail(f1, f1 * f1)
            + stirling_tail(z, z * z)
            + stirling_tail(x1, x1 * x1)
            + stirling_tail(w, w * w);
        if alpha > accept {
            continue;
        }
        break y;
    };
    y as u64
}

/// Draws exact multinomial counts: `n` trials over categories with the
/// given (relative) weights. Returns one count per weight, summing to `n`.
///
/// Weights need not be normalised; zero-weight categories always get a
/// zero count. Cost is `O(weights.len())` binomial draws — independent
/// of `n` — via the conditional-binomial decomposition.
///
/// # Panics
/// Panics if any weight is negative/NaN, or if `n > 0` and all weights
/// are zero.
pub fn multinomial<R: Rng + ?Sized>(n: u64, weights: &[f64], rng: &mut R) -> Vec<u64> {
    assert!(
        weights.iter().all(|&w| w >= 0.0),
        "multinomial weights must be non-negative: {weights:?}"
    );
    let mut counts = vec![0u64; weights.len()];
    if n == 0 {
        return counts;
    }
    let mut rest: f64 = weights.iter().sum();
    assert!(
        rest > 0.0,
        "multinomial needs a positive total weight for n = {n} trials"
    );
    let mut remaining = n;
    for (i, &w) in weights.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        // Last category, or the tail beyond it carries no weight
        // numerically: give it everything that is left. This also
        // absorbs the accumulated floating-point error of `rest`.
        if i + 1 == weights.len() || w >= rest {
            counts[i] = remaining;
            break;
        }
        if w > 0.0 {
            let c = binomial(remaining, (w / rest).clamp(0.0, 1.0), rng);
            counts[i] = c;
            remaining -= c;
        }
        rest -= w;
    }
    debug_assert_eq!(counts.iter().sum::<u64>(), n);
    counts
}

/// Total-variation distance `½ Σᵢ |cᵢ/shots − pᵢ|` between empirical
/// counts and a probability vector — the statistic every equivalence
/// suite in the workspace tests sampled distributions with.
///
/// # Panics
/// Panics when `counts` and `probs` have different lengths or
/// `shots == 0`.
pub fn tv_distance(counts: &[u64], probs: &[f64], shots: u64) -> f64 {
    assert_eq!(counts.len(), probs.len(), "counts/probs length mismatch");
    assert!(shots > 0, "tv_distance of an empty sample");
    counts
        .iter()
        .zip(probs.iter())
        .map(|(&c, &p)| (c as f64 / shots as f64 - p).abs())
        .sum::<f64>()
        / 2.0
}

/// 5σ bound on the TV distance of a multinomial sample of size `shots`
/// from its generating distribution: TV = ½Σ|fᵢ − pᵢ| where each
/// marginal deviation has σᵢ = √(pᵢ(1−pᵢ)/shots). Summing 5σᵢ bounds is
/// conservative (the deviations are negatively correlated), so a
/// violation is a real distributional bug, not noise.
pub fn tv_bound_5_sigma(probs: &[f64], shots: u64) -> f64 {
    2.5 * probs
        .iter()
        .map(|&p| (p * (1.0 - p) / shots as f64).sqrt())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exact binomial pmf by the multiplicative recurrence (stable for
    /// the moderate n used in tests).
    fn pmf(n: u64, p: f64) -> Vec<f64> {
        let mut f = (1.0 - p).powi(n as i32);
        let s = p / (1.0 - p);
        let mut out = Vec::with_capacity(n as usize + 1);
        out.push(f);
        for x in 1..=n {
            f *= ((n - x + 1) as f64 / x as f64) * s;
            out.push(f);
        }
        out
    }

    /// Draws `reps` variates and checks empirical mean and variance
    /// against n·p and n·p·q within `sigmas` standard errors.
    fn check_moments(n: u64, p: f64, reps: u64, sigmas: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..reps {
            let x = binomial(n, p, &mut rng) as f64;
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / reps as f64;
        let var = sumsq / reps as f64 - mean * mean;
        let m_true = n as f64 * p;
        let v_true = n as f64 * p * (1.0 - p);
        let mean_se = (v_true / reps as f64).sqrt();
        assert!(
            (mean - m_true).abs() < sigmas * mean_se + 1e-12,
            "B({n},{p}): mean {mean} vs {m_true} (se {mean_se})"
        );
        // Var of the sample variance ≈ (μ₄ − σ⁴)/reps; bound loosely by
        // 2·σ⁴·(1 + 6/npq)/reps which covers the binomial kurtosis.
        let var_se = (2.0 * v_true * v_true * (1.0 + 6.0 / v_true.max(1.0)) / reps as f64).sqrt();
        assert!(
            (var - v_true).abs() < sigmas * var_se + 1e-12,
            "B({n},{p}): var {var} vs {v_true} (se {var_se})"
        );
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(binomial(0, 0.3, &mut rng), 0);
        assert_eq!(binomial(100, 0.0, &mut rng), 0);
        assert_eq!(binomial(100, 1.0, &mut rng), 100);
        for _ in 0..100 {
            let x = binomial(1, 0.5, &mut rng);
            assert!(x <= 1);
        }
    }

    #[test]
    fn binv_moments_small_np() {
        // All of these hit the BINV branch (n·min(p,q) < 10).
        check_moments(20, 0.2, 40_000, 5.0, 11);
        check_moments(9, 0.5, 40_000, 5.0, 12);
        check_moments(1000, 0.004, 40_000, 5.0, 13);
        check_moments(50, 0.9, 40_000, 5.0, 14); // flipped half
    }

    #[test]
    fn binv_handles_n_beyond_i32() {
        // n > i32::MAX with tiny p must still route through BINV (BTPE's
        // geometry collapses at small n·p·q) and keep binomial moments.
        let n = 3_000_000_000u64; // > i32::MAX
        let p = 1e-9; // n·p = 3
        check_moments(n, p, 40_000, 5.0, 15);
        // Flipped half: x ~ B(n, 1−p) leaves a small complement n − x
        // with the same B(n, p) law (moments checked on the complement
        // to avoid catastrophic cancellation at x ≈ 3·10⁹).
        let mut rng = StdRng::seed_from_u64(16);
        let reps = 40_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..reps {
            let d = (n - binomial(n, 1.0 - p, &mut rng)) as f64;
            sum += d;
            sumsq += d * d;
        }
        let mean = sum / reps as f64;
        let var = sumsq / reps as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.05, "complement mean {mean}");
        assert!((var - 3.0).abs() < 0.15, "complement var {var}");
    }

    #[test]
    fn btpe_moments_large_np() {
        // All of these hit the BTPE branch.
        check_moments(1_000, 0.5, 40_000, 5.0, 21);
        check_moments(10_000, 0.037, 40_000, 5.0, 22);
        check_moments(100_000, 0.73, 40_000, 5.0, 23);
        check_moments(40, 0.45, 40_000, 5.0, 24);
    }

    /// Chi-square goodness-of-fit of the sampler against the exact pmf,
    /// pooling tail bins below an expected count of 10. The 5σ-equivalent
    /// threshold keeps the test deterministic-in-practice while still
    /// catching any distributional bug (a normal approximation, an
    /// off-by-one in the mode, a wrong tail constant…).
    fn check_chi_square(n: u64, p: f64, reps: u64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hist = vec![0u64; n as usize + 1];
        for _ in 0..reps {
            hist[binomial(n, p, &mut rng) as usize] += 1;
        }
        let probs = pmf(n, p);
        // Pool bins so every pooled bin has expectation ≥ 10.
        let mut chi2 = 0.0;
        let mut dof: i64 = -1;
        let mut acc_e = 0.0;
        let mut acc_o = 0.0;
        for x in 0..=n as usize {
            acc_e += probs[x] * reps as f64;
            acc_o += hist[x] as f64;
            if acc_e >= 10.0 {
                chi2 += (acc_o - acc_e) * (acc_o - acc_e) / acc_e;
                dof += 1;
                acc_e = 0.0;
                acc_o = 0.0;
            }
        }
        if acc_e > 0.0 {
            chi2 += (acc_o - acc_e) * (acc_o - acc_e) / acc_e;
            dof += 1;
        }
        let dof = dof.max(1) as f64;
        // χ²_k concentrates at k ± √(2k); 5σ above the mean.
        let bound = dof + 5.0 * (2.0 * dof).sqrt();
        assert!(
            chi2 < bound,
            "B({n},{p}): chi2 {chi2} over {dof} dof exceeds {bound}"
        );
    }

    #[test]
    fn binv_matches_exact_pmf() {
        check_chi_square(12, 0.3, 60_000, 31);
        check_chi_square(40, 0.1, 60_000, 32);
    }

    #[test]
    fn btpe_matches_exact_pmf() {
        check_chi_square(60, 0.4, 60_000, 33);
        check_chi_square(200, 0.25, 60_000, 34);
        check_chi_square(500, 0.5, 60_000, 35);
    }

    #[test]
    fn multinomial_counts_sum_to_n() {
        let mut rng = StdRng::seed_from_u64(41);
        for &n in &[0u64, 1, 7, 10_000] {
            let c = multinomial(n, &[0.2, 0.0, 0.5, 0.3], &mut rng);
            assert_eq!(c.iter().sum::<u64>(), n);
            assert_eq!(c[1], 0, "zero-weight category drew counts");
        }
    }

    #[test]
    fn multinomial_handles_unnormalised_weights() {
        let mut rng = StdRng::seed_from_u64(42);
        let reps = 20_000;
        let w = [2.0, 6.0];
        let mut sum0 = 0u64;
        for _ in 0..reps {
            sum0 += multinomial(4, &w, &mut rng)[0];
        }
        // E[count₀] = 4·(2/8) = 1 per draw.
        let mean = sum0 as f64 / reps as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn multinomial_single_category_gets_everything() {
        let mut rng = StdRng::seed_from_u64(43);
        assert_eq!(multinomial(1234, &[0.7], &mut rng), vec![1234]);
    }

    #[test]
    fn multinomial_marginals_are_binomial() {
        // Each marginal of a multinomial is binomial; check the moments
        // of every category at once.
        let w = [0.1, 0.25, 0.65];
        let n = 300u64;
        let reps = 30_000;
        let mut rng = StdRng::seed_from_u64(44);
        let mut sums = [0.0f64; 3];
        let mut sumsq = [0.0f64; 3];
        for _ in 0..reps {
            let c = multinomial(n, &w, &mut rng);
            for i in 0..3 {
                sums[i] += c[i] as f64;
                sumsq[i] += (c[i] * c[i]) as f64;
            }
        }
        for i in 0..3 {
            let mean = sums[i] / reps as f64;
            let var = sumsq[i] / reps as f64 - mean * mean;
            let m_true = n as f64 * w[i];
            let v_true = m_true * (1.0 - w[i]);
            let se = (v_true / reps as f64).sqrt();
            assert!(
                (mean - m_true).abs() < 5.0 * se,
                "cat {i}: mean {mean} vs {m_true}"
            );
            assert!(
                (var - v_true).abs() < 0.1 * v_true,
                "cat {i}: var {var} vs {v_true}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn multinomial_rejects_all_zero_weights() {
        let mut rng = StdRng::seed_from_u64(45);
        multinomial(5, &[0.0, 0.0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn binomial_rejects_bad_p() {
        let mut rng = StdRng::seed_from_u64(46);
        binomial(5, 1.5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "binomial p must be in [0,1]: NaN")]
    fn prepared_law_rejects_nan() {
        Binomial::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "binomial p must be in [0,1]: -0.000001")]
    fn prepared_law_rejects_p_below_zero() {
        Binomial::new(-1e-6);
    }

    /// The per-draw binomial this crate shipped before [`Binomial`]
    /// existed, kept verbatim as the oracle the prepared law must
    /// reproduce draw for draw. BTPE is shared: it never changed.
    mod oracle {
        use super::super::{btpe, BINV_MAX_X, BINV_THRESHOLD};
        use rand::Rng;

        pub fn binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
            assert!((0.0..=1.0).contains(&p), "binomial p must be in [0,1]: {p}");
            if n == 0 || p == 0.0 {
                return 0;
            }
            if p == 1.0 {
                return n;
            }
            // Sample the small-probability half and mirror, so both algorithms
            // only ever see p ≤ 1/2 (BTPE's geometry assumes it).
            let flipped = p > 0.5;
            let p = if flipped { 1.0 - p } else { p };
            // BINV is valid for any n (the walk length only depends on n·p);
            // BTPE's region geometry needs n·p·q large, which the threshold
            // guarantees.
            let result = if (n as f64) * p < BINV_THRESHOLD {
                binv(n, p, rng)
            } else {
                btpe(n, p, rng)
            };
            if flipped {
                n - result
            } else {
                result
            }
        }

        /// BINV: invert the CDF by walking the pmf upward from 0 using the
        /// recurrence `f(x+1) = f(x)·(a/(x+1) − s)`.
        fn binv<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
            debug_assert!(p <= 0.5);
            let q = 1.0 - p;
            let s = p / q;
            let a = (n as f64 + 1.0) * s;
            // q^n via exp(n·ln q): well-conditioned here because n·p < 10 and
            // p ≤ ½ keep n·ln q > −14, and it works for any u64 n (powi would
            // overflow its i32 exponent).
            let r0 = ((n as f64) * q.ln()).exp();
            loop {
                let mut r = r0;
                let mut u: f64 = rng.gen();
                let mut x = 0u64;
                loop {
                    if u < r {
                        return x;
                    }
                    u -= r;
                    x += 1;
                    if x > BINV_MAX_X {
                        break; // pmf exhausted by rounding — redraw
                    }
                    r *= a / (x as f64) - s;
                }
            }
        }
    }

    /// Probabilities the prepared law is most likely to get wrong: the
    /// ends, the mirror point and its float neighbours, and the tiny
    /// tails on either side.
    const EDGE_PS: [f64; 7] = [
        0.0,
        1.0,
        0.5,
        f64::from_bits(0.5f64.to_bits() - 1), // the float just below ½
        f64::from_bits(0.5f64.to_bits() + 1), // the float just above ½
        1e-12,
        1.0 - 1e-12,
    ];

    /// The largest `n` with `n·min(p, 1−p)` below 10 — the last BINV
    /// count before BTPE takes over — or `None` at p ∈ {0, 1}.
    fn binv_edge(p: f64) -> Option<u64> {
        let small = if p > 0.5 { 1.0 - p } else { p };
        if small == 0.0 {
            return None;
        }
        let mut n = (BINV_THRESHOLD / small) as u64;
        while n > 0 && n as f64 * small >= BINV_THRESHOLD {
            n -= 1;
        }
        while (n + 1) as f64 * small < BINV_THRESHOLD {
            n += 1;
        }
        Some(n)
    }

    /// Hands out `first`, then the words of `rest`, counting every word.
    #[derive(Clone)]
    struct Scripted {
        first: Option<u64>,
        rest: StreamRng,
        words: u64,
    }

    impl Scripted {
        fn new(first: u64, rest: StreamRng) -> Self {
            Scripted {
                first: Some(first),
                rest,
                words: 0,
            }
        }
    }

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.first.take().unwrap_or_else(|| self.rest.next_u64())
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A prepared law draws the oracle's variates and consumes the
        /// same number of RNG words, draw after draw, on both sides of
        /// the BINV/BTPE switch at `n·min(p, 1−p) = 10` (including the
        /// counts right at it), and again when the first word is
        /// `u64::MAX`: the uniform 1 − 2⁻⁵³ lies past the rounded pmf
        /// total of many BINV laws, so their first walk exhausts and
        /// the redraw path runs.
        #[test]
        fn prepared_law_matches_the_oracle(
            p in prop_oneof![
                0.0f64..1.0,
                0.0f64..1.0,
                (0..EDGE_PS.len()).prop_map(|i| EDGE_PS[i]),
            ],
            ns in proptest::collection::vec(prop_oneof![0u64..41, 0u64..1_000_001], 1..24),
            stream in 0u64..1 << 40,
        ) {
            let law = Binomial::new(p);
            let edge = binv_edge(p).map(|n| [n, n + 1]);
            let ns: Vec<u64> = ns.iter().copied().chain(edge.into_iter().flatten()).collect();
            let mut expected = StreamRng::new(0xB1A5, stream);
            let mut prepared = expected.clone();
            let mut wrapped = expected.clone();
            for &n in &ns {
                let x = oracle::binomial(n, p, &mut expected);
                prop_assert_eq!(law.sample(n, &mut prepared), x, "B({}, {})", n, p);
                prop_assert_eq!(binomial(n, p, &mut wrapped), x, "B({}, {})", n, p);
                prop_assert_eq!(prepared.position(), expected.position());
                prop_assert_eq!(wrapped.position(), expected.position());

                let mut scripted_oracle = Scripted::new(u64::MAX, StreamRng::new(0x5C41, stream));
                let mut scripted = scripted_oracle.clone();
                let x = oracle::binomial(n, p, &mut scripted_oracle);
                prop_assert_eq!(law.sample(n, &mut scripted), x, "B({}, {}) from u64::MAX", n, p);
                prop_assert_eq!(scripted.words, scripted_oracle.words);
            }
        }
    }

    #[test]
    fn a_first_word_of_u64_max_exhausts_the_walk() {
        // The proptest above only covers the redraw path if some BINV
        // law really walks past its rounded pmf total at 1 − 2⁻⁵³: count
        // them on a fixed grid.
        let mut redraws = 0;
        for n in 1..=40u64 {
            for p in [0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.7] {
                let mut expected = Scripted::new(u64::MAX, StreamRng::new(0x5C41, n));
                let mut prepared = expected.clone();
                let x = oracle::binomial(n, p, &mut expected);
                assert_eq!(Binomial::new(p).sample(n, &mut prepared), x, "B({n}, {p})");
                assert_eq!(prepared.words, expected.words, "B({n}, {p})");
                if Binomial::new(p).walks(n) && expected.words > 1 {
                    redraws += 1;
                }
            }
        }
        assert!(
            redraws >= 10,
            "only {redraws} BINV walks exhausted at 1 − 2⁻⁵³"
        );
    }

    /// Batch sizes around the chunk boundary, and a whole 8-cut plan.
    const BATCH_LENS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 6561];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The batch kernel reports, in term order, the variate the
        /// scalar law draws on each term's lane `root.split(i)`: over
        /// every batch size in [`BATCH_LENS`], with zero-shot terms, the
        /// edge probabilities, counts at the BINV/BTPE switch and BTPE
        /// counts mixed in.
        #[test]
        fn batch_kernel_matches_the_scalar_law_lane_by_lane(
            seed in 0u64..1 << 40,
            stream in 0u64..1 << 40,
        ) {
            let mut pick = StreamRng::new(seed, 0xD1CE);
            for len in BATCH_LENS {
                let draws: Vec<(Binomial, u64)> = (0..len)
                    .map(|_| {
                        let p = if pick.gen_range(0..3) == 0 {
                            EDGE_PS[pick.gen_range(0..EDGE_PS.len())]
                        } else {
                            pick.gen::<f64>()
                        };
                        let n = match pick.gen_range(0..4) {
                            0 => 0,
                            1 => pick.gen_range(1..9) as u64,
                            2 => binv_edge(p).map_or(0, |n| n + pick.gen_range(0..2) as u64),
                            _ => pick.gen_range(0..1_000_001) as u64,
                        };
                        (Binomial::new(p), n)
                    })
                    .collect();
                let root = StreamRng::new(seed, stream ^ len as u64);
                let mut got = Vec::with_capacity(len);
                binomial_batch(draws.iter().map(|(law, n)| (law, *n)), &root, |i, x| {
                    got.push((i, x))
                });
                let want: Vec<(usize, u64)> = draws
                    .iter()
                    .enumerate()
                    .map(|(i, (law, n))| (i, law.sample(*n, &mut root.split(i as u64))))
                    .collect();
                prop_assert_eq!(got, want, "{} draws", len);
            }
        }
    }

    #[test]
    fn tv_distance_basics() {
        // Perfect agreement → 0; total disagreement → 1.
        assert_eq!(tv_distance(&[50, 50], &[0.5, 0.5], 100), 0.0);
        assert!((tv_distance(&[100, 0], &[0.0, 1.0], 100) - 1.0).abs() < 1e-15);
        // Half the mass misplaced → TV ½.
        assert!((tv_distance(&[75, 25], &[0.25, 0.75], 100) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn tv_bound_shrinks_with_shots() {
        let probs = [0.25, 0.25, 0.25, 0.25];
        let b100 = tv_bound_5_sigma(&probs, 100);
        let b10k = tv_bound_5_sigma(&probs, 10_000);
        assert!(
            (b100 / b10k - 10.0).abs() < 1e-9,
            "bound must scale 1/sqrt(shots)"
        );
        // Degenerate distribution has zero variance.
        assert_eq!(tv_bound_5_sigma(&[1.0, 0.0], 100), 0.0);
    }

    #[test]
    fn multinomial_tv_within_bound() {
        let mut rng = StdRng::seed_from_u64(77);
        let probs = [0.5, 0.2, 0.2, 0.1];
        let shots = 100_000;
        let counts = multinomial(shots, &probs, &mut rng);
        let tv = tv_distance(&counts, &probs, shots);
        assert!(tv < tv_bound_5_sigma(&probs, shots), "tv {tv} out of bound");
    }
}
