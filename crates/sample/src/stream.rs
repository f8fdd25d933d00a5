//! Counter-based RNG streams for configuration-grid sharding.
//!
//! Sharding a sweep across worker threads is only reproducible if the
//! randomness consumed by each shard is a pure function of *which* shard
//! it is — never of which thread picked it up or in what order shards
//! completed. A sequential generator (xoshiro, PCG, …) cannot offer that
//! without jump-ahead bookkeeping, so this module provides the standard
//! alternative: a **counter-based** generator in the Philox/Threefry
//! mould (Salmon et al., *Parallel random numbers: as easy as 1, 2, 3*,
//! SC'11), where output `i` of stream `s` under seed `k` is
//!
//! ```text
//! out(k, s, i) = prf(k, s, i)
//! ```
//!
//! where `prf` keeps the *whole* 128-bit `(s, i)` block intact: it is a
//! keyed permutation of the block space (a 4-round Feistel network over
//! the two 64-bit halves, keyed by `k`), truncated to 64 output bits.
//! Because a permutation is injective, distinct `(s, i)` blocks map to
//! distinct 128-bit images, and two streams with different `s` read
//! **disjoint** sets of input blocks for every counter value —
//! counter-space disjointness holds by construction, not
//! probabilistically. (Folding `s` and `i` into a single 64-bit word
//! before mixing would silently forfeit this: the two streams would
//! then traverse permutations of the *same* 64-bit input set.)
//!
//! The Feistel round function is the splitmix64 finalizer (Steele, Lea
//! & Flood's `mix64`, the avalanche stage of SplitMix64, which passes
//! BigCrush as `mix64(i·γ)`) applied to the right half xored with a
//! per-round key schedule. Four rounds is the Luby–Rackoff threshold
//! for a strong pseudorandom permutation from good round functions; the
//! result is statistically solid for Monte Carlo use and cheap — but,
//! like everything in this workspace's sampling stack, not
//! cryptographically secure.
//!
//! The round keys depend on the seed alone. A [`StreamRng`] computes
//! them once, when the root stream is created, and hands them down to
//! every stream it [`split`](StreamRng::split)s or
//! [`derive`](StreamRng::derive)s, so one of its 64-bit outputs costs
//! **five** finalizer evaluations (four rounds and the final fold). The
//! free [`stream_block`] recomputes the four keys on every call and
//! costs nine; the two agree bit for bit.

use rand::RngCore;

/// The splitmix64 avalanche finalizer (bijective on `u64`).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Weyl increment of SplitMix64 (odd, so multiplication is bijective).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// Second odd constant (xxHash prime) separating the round-key schedule
/// from the Weyl sequence.
const COUNTER_GAMMA: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The four round keys of the Feistel schedule under `seed`.
#[inline]
fn round_keys(seed: u64) -> [u64; 4] {
    [0u64, 1, 2, 3]
        .map(|round| mix64(seed ^ round.wrapping_mul(COUNTER_GAMMA).wrapping_add(GOLDEN_GAMMA)))
}

/// The Feistel permutation of the `(stream, counter)` block under
/// precomputed round keys, folded to 64 bits.
#[inline]
fn keyed_block(keys: &[u64; 4], stream: u64, counter: u64) -> u64 {
    let (mut l, mut r) = (stream, counter);
    for key in keys {
        let f = mix64(r ^ key);
        (l, r) = (r, l ^ f);
    }
    mix64(l.wrapping_add(r.rotate_left(32)))
}

/// The keyed PRF behind [`StreamRng`]: a 4-round Feistel permutation of
/// the 128-bit `(stream, counter)` block under `seed`, truncated to 64
/// bits by folding the output halves through one final avalanche.
///
/// For a fixed seed the permutation is injective on blocks, so distinct
/// streams read disjoint block sets at every counter — the structural
/// non-overlap guarantee the sharding engine's determinism rests on.
/// Exposed so tests (and the engine's documentation) can state the
/// exact output law.
#[inline]
pub fn stream_block(seed: u64, stream: u64, counter: u64) -> u64 {
    keyed_block(&round_keys(seed), stream, counter)
}

/// A counter-based RNG stream: output `i` is `stream_block(seed, stream,
/// i)`. Streams with distinct stream ids consume disjoint 128-bit PRF
/// input blocks under the same keyed permutation, so they are
/// non-overlapping by construction — exactly what per-shard randomness
/// in a work-stealing grid runner needs (see [`crate::grid`]).
///
/// Implements [`rand::RngCore`], so it drops into every sampler in the
/// workspace (`qsample::binomial`, `qsim::CompiledSampler`, the `qpd`
/// estimators, `qsim::haar_unitary`, …).
#[derive(Clone, Debug)]
pub struct StreamRng {
    /// The seed's four Feistel round keys, shared by every stream split
    /// or derived from this one.
    keys: [u64; 4],
    stream: u64,
    counter: u64,
}

impl StreamRng {
    /// Creates stream `stream` under `seed`, positioned at counter 0.
    pub fn new(seed: u64, stream: u64) -> Self {
        StreamRng {
            keys: round_keys(seed),
            stream,
            counter: 0,
        }
    }

    /// The stream identifier this generator reads from.
    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// How many 64-bit blocks have been consumed (the current counter).
    pub fn position(&self) -> u64 {
        self.counter
    }

    /// A sibling stream under the same seed: `split(tag)` derives a new
    /// stream id by hashing `(stream, tag)`, useful for giving one shard
    /// several independent randomness lanes (e.g. a state-preparation
    /// lane shared across configurations plus a sampling lane per
    /// configuration). Distinct tags give distinct ids up to the
    /// negligible 64-bit hash-collision probability.
    pub fn split(&self, tag: u64) -> StreamRng {
        StreamRng {
            keys: self.keys,
            stream: mix64(self.stream ^ tag.wrapping_mul(GOLDEN_GAMMA)),
            counter: 0,
        }
    }

    /// A stream addressed by a *path* of tags: `derive(&[a, b, c])` is
    /// `split(a).split(b).split(c)`. This is the hierarchical form of
    /// [`split`](Self::split) used by the service layer to key one lane
    /// per `(job, batch, term)` — every level of the path contributes to
    /// the derived stream id, so sibling paths get structurally disjoint
    /// counter spaces just like sibling splits.
    pub fn derive(&self, tags: &[u64]) -> StreamRng {
        tags.iter().fold(self.clone(), |rng, &tag| rng.split(tag))
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let out = keyed_block(&self.keys, self.stream, self.counter);
        self.counter = self.counter.wrapping_add(1);
        out
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_and_order_independent() {
        let mut a = StreamRng::new(7, 42);
        let first: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        // Replaying the stream reproduces it exactly.
        let mut b = StreamRng::new(7, 42);
        let again: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(first, again);
        // Output i is a pure function of (seed, stream, i).
        for (i, &v) in first.iter().enumerate() {
            assert_eq!(v, stream_block(7, 42, i as u64));
        }
    }

    #[test]
    fn streams_are_distinct_sequences() {
        let mut a = StreamRng::new(1, 0);
        let mut b = StreamRng::new(1, 1);
        let va: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        // Different seeds decorrelate the same stream id too.
        let mut c = StreamRng::new(2, 0);
        let vc: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn split_streams_diverge_from_parent_and_each_other() {
        let parent = StreamRng::new(3, 99);
        let mut s1 = parent.split(0);
        let mut s2 = parent.split(1);
        let mut p = parent.clone();
        let v0: Vec<u64> = (0..32).map(|_| p.next_u64()).collect();
        let v1: Vec<u64> = (0..32).map(|_| s1.next_u64()).collect();
        let v2: Vec<u64> = (0..32).map(|_| s2.next_u64()).collect();
        assert_ne!(v0, v1);
        assert_ne!(v0, v2);
        assert_ne!(v1, v2);
        assert_ne!(s1.stream(), s2.stream());
    }

    #[test]
    fn derive_is_the_fold_of_split() {
        let root = StreamRng::new(9, 1234);
        let a = root.derive(&[5, 6, 7]);
        let b = root.split(5).split(6).split(7);
        assert_eq!(a.stream(), b.stream());
        // Empty path is the identity stream (fresh counter).
        assert_eq!(root.derive(&[]).stream(), root.stream());
        // Path order matters and sibling paths diverge.
        assert_ne!(root.derive(&[5, 6]).stream(), root.derive(&[6, 5]).stream());
        assert_ne!(root.derive(&[5, 6]).stream(), root.derive(&[5, 7]).stream());
    }

    #[test]
    fn keyed_children_follow_the_stream_block_law() {
        // Children carry the root's round keys instead of recomputing
        // them; their outputs must still be the documented law.
        let seed = 0x5EED_1234_ABCD;
        let mut root = StreamRng::new(seed, 77);
        for _ in 0..5 {
            root.next_u64();
        }
        let children = [
            root.split(0),
            root.split(u64::MAX),
            root.split(3).split(4),
            root.derive(&[2, 9]),
            root.derive(&[1 << 40, 0, 7]),
        ];
        for child in children {
            assert_eq!(child.position(), 0, "children start at counter 0");
            let mut rng = child.clone();
            for i in 0..32 {
                assert_eq!(rng.next_u64(), stream_block(seed, child.stream(), i));
            }
        }
        // A clone taken mid-stream continues from the parent's counter.
        let mut mid = root.clone();
        assert_eq!(mid.position(), 5);
        for i in 5..37 {
            assert_eq!(mid.next_u64(), stream_block(seed, 77, i));
        }
        assert_eq!(root.next_u64(), stream_block(seed, 77, 5));
    }

    #[test]
    fn uniform_f64_moments_are_sane() {
        let mut rng = StreamRng::new(11, 5);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.002, "var {var}");
    }

    #[test]
    fn pooled_streams_pass_chi_square() {
        // Pool draws from many adjacent streams into 256 byte-valued bins;
        // a per-stream bias or cross-stream correlation shows up here.
        let streams = 64;
        let per_stream = 1024;
        let mut hist = [0u64; 256];
        for s in 0..streams {
            let mut rng = StreamRng::new(12345, s);
            for _ in 0..per_stream {
                hist[(rng.next_u64() >> 56) as usize] += 1;
            }
        }
        let total = (streams * per_stream) as f64;
        let expect = total / 256.0;
        let chi2: f64 = hist
            .iter()
            .map(|&o| (o as f64 - expect) * (o as f64 - expect) / expect)
            .sum();
        // χ²_255 concentrates at 255 ± √510; allow 5σ.
        let bound = 255.0 + 5.0 * (2.0 * 255.0f64).sqrt();
        assert!(chi2 < bound, "chi2 {chi2} over 255 dof exceeds {bound}");
    }

    #[test]
    fn binomial_rides_stream_rng() {
        // The exact samplers accept any RngCore; moments stay binomial.
        let mut rng = StreamRng::new(77, 3);
        let reps = 20_000;
        let mut sum = 0.0;
        for _ in 0..reps {
            sum += crate::binomial(1000, 0.3, &mut rng) as f64;
        }
        let mean = sum / reps as f64;
        assert!((mean - 300.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn fill_bytes_partial_chunks() {
        let mut rng = StreamRng::new(5, 5);
        let mut buf = [0u8; 11];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn position_tracks_consumption() {
        let mut rng = StreamRng::new(1, 2);
        assert_eq!(rng.position(), 0);
        let _ = rng.next_u64();
        let _ = rng.next_u32();
        assert_eq!(rng.position(), 2);
    }
}
