//! # Configuration-grid sharding engine
//!
//! Every headline sweep of the paper — Figure 6's (state, overlap,
//! shots) grid, the κ crossover of E13, the Werner p-sweep of E15 — is a
//! Cartesian product of *configurations*, each of which needs its own
//! randomness and produces one (or a few) CSV rows. The cutting-as-a-
//! service job engine (`wirecut::service`) schedules estimation jobs the
//! same way, which is why this engine lives here in the sampling crate,
//! below both the experiments harness and the service layer.
//! [`ShardedGrid`] shards **whole configurations** across worker
//! threads:
//!
//! * **work stealing** — workers pull the next unclaimed configuration
//!   from a shared atomic cursor, so heterogeneous config costs (an
//!   n = 4 NME solve next to an n = 1 one) balance automatically;
//! * **per-shard counter-based RNG streams** — each configuration's
//!   randomness comes from a [`StreamRng`] whose stream id is a
//!   stable hash of the configuration's *identity* (via [`GridKey`]),
//!   never of the thread id or the completion order. Stream ids select
//!   disjoint counter spaces of the underlying PRF, so shards never
//!   share randomness and the sweep's output is a pure function of
//!   `(seed, grid)`;
//! * **mergeable accumulation** — each worker fills its own
//!   [`ShardResult`] slot vector; the partial results are merged after
//!   the scope joins, and rows come out in deterministic grid order
//!   regardless of thread count. `tests/sharding_determinism.rs` pins
//!   byte-identical CSVs across thread counts for every migrated
//!   experiment.
//!
//! ## Panic contract
//!
//! A worker panic is never masked: [`ShardedGrid::run`] (and
//! [`ShardedGrid::run_with`], the loop behind it) re-raises the
//! **original payload** of the first worker that panicked (via the
//! scoped-thread `Err` path), so an assertion message from inside a
//! shard reaches the caller verbatim. The "configuration never ran"
//! diagnostics in [`ShardResult`] only fire on work-distribution bugs,
//! never as a stand-in for a worker panic; both contracts are pinned by
//! `should_panic` tests below.
//!
//! ## Seed derivation scheme
//!
//! For a run with base seed `S` and a configuration `c`:
//!
//! ```text
//! key(c)     = FNV-1a-64 over c's identity words (GridKey::absorb)
//! rng(c)     = StreamRng::new(S, key(c))          // the sampling lane
//! lane(c, t) = rng(c).split(t)                    // extra lanes per shard
//! shared(k)  = StreamRng::new(S, key(k))          // paired across configs
//! ```
//!
//! `key` hashes the configuration's *values* (wire count, overlap bits,
//! shot budget, state index …), so inserting, removing or reordering
//! grid points never perturbs the randomness of the surviving points —
//! unlike index-derived seeding, where dropping one overlap reshuffles
//! every stream after it. The `shared` form lets paired designs draw the
//! *same* random state across configurations that differ only in the
//! swept parameter (e.g. one Haar unitary per state index, reused by all
//! six Figure 6 overlaps), which cancels state-to-state variance out of
//! cross-configuration comparisons.

use crate::stream::StreamRng;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: available parallelism, capped at 16.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Incremental FNV-1a hasher over 64-bit words, used to derive stable
/// stream ids from configuration identities.
#[derive(Clone, Copy, Debug)]
pub struct KeyHasher(u64);

impl KeyHasher {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs one word (byte-wise FNV-1a, little-endian).
    pub fn absorb(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The accumulated 64-bit key.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A configuration with a stable identity hash. Implementations absorb
/// every field that *identifies* the grid point (swept parameters, state
/// index, shot budget) — and nothing that doesn't (thread counts,
/// verbosity flags).
pub trait GridKey {
    /// Feeds the configuration's identity words into `h`.
    fn absorb(&self, h: &mut KeyHasher);

    /// The stable 64-bit key (FNV-1a over [`absorb`](Self::absorb)).
    fn grid_key(&self) -> u64 {
        let mut h = KeyHasher::new();
        self.absorb(&mut h);
        h.finish()
    }
}

impl GridKey for u64 {
    fn absorb(&self, h: &mut KeyHasher) {
        h.absorb(*self);
    }
}

impl GridKey for usize {
    fn absorb(&self, h: &mut KeyHasher) {
        h.absorb(*self as u64);
    }
}

impl GridKey for u32 {
    fn absorb(&self, h: &mut KeyHasher) {
        h.absorb(u64::from(*self));
    }
}

impl GridKey for i64 {
    fn absorb(&self, h: &mut KeyHasher) {
        h.absorb(*self as u64);
    }
}

impl GridKey for f64 {
    /// Hashes the IEEE-754 bits, normalising `-0.0` to `+0.0` so the two
    /// zero encodings name the same grid point. NaN never identifies a
    /// configuration.
    fn absorb(&self, h: &mut KeyHasher) {
        debug_assert!(!self.is_nan(), "NaN cannot identify a grid point");
        let v = if *self == 0.0 { 0.0f64 } else { *self };
        h.absorb(v.to_bits());
    }
}

impl<T: GridKey + ?Sized> GridKey for &T {
    fn absorb(&self, h: &mut KeyHasher) {
        (**self).absorb(h);
    }
}

impl<A: GridKey, B: GridKey> GridKey for (A, B) {
    fn absorb(&self, h: &mut KeyHasher) {
        self.0.absorb(h);
        self.1.absorb(h);
    }
}

impl<A: GridKey, B: GridKey, C: GridKey> GridKey for (A, B, C) {
    fn absorb(&self, h: &mut KeyHasher) {
        self.0.absorb(h);
        self.1.absorb(h);
        self.2.absorb(h);
    }
}

impl<A: GridKey, B: GridKey, C: GridKey, D: GridKey> GridKey for (A, B, C, D) {
    fn absorb(&self, h: &mut KeyHasher) {
        self.0.absorb(h);
        self.1.absorb(h);
        self.2.absorb(h);
        self.3.absorb(h);
    }
}

/// The counter-based stream for an arbitrary key under `seed` — the
/// `shared(k)` form of the module-level seed-derivation scheme. Used for
/// randomness that must be *paired* across configurations (one Haar
/// state per state index, reused by every swept parameter value).
pub fn keyed_stream<K: GridKey>(seed: u64, key: &K) -> StreamRng {
    StreamRng::new(seed, key.grid_key())
}

/// Per-shard context handed to the grid closure: the configuration's
/// stream id and its sampling RNG.
#[derive(Debug)]
pub struct ShardCtx {
    seed: u64,
    key: u64,
    rng: StreamRng,
}

impl ShardCtx {
    fn new(seed: u64, key: u64) -> Self {
        ShardCtx {
            seed,
            key,
            rng: StreamRng::new(seed, key),
        }
    }

    /// The run's base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// This configuration's stable stream id.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The shard's sampling RNG (stream = the config key).
    pub fn rng(&mut self) -> &mut StreamRng {
        &mut self.rng
    }

    /// An additional independent lane for this shard (`lane(c, t)`).
    /// Splitting ignores the counter, so the lane does not depend on
    /// how much of [`rng`](Self::rng) the shard has drawn.
    pub fn lane(&self, tag: u64) -> StreamRng {
        self.rng.split(tag)
    }

    /// A stream shared with every other shard that derives it from the
    /// same key — the paired-design hook (`shared(k)`).
    pub fn shared<K: GridKey>(&self, key: &K) -> StreamRng {
        keyed_stream(self.seed, key)
    }
}

/// A mergeable, slot-addressed accumulator of per-configuration results.
///
/// Workers fill disjoint slots of their own `ShardResult`; merging
/// asserts disjointness, and [`into_rows`](Self::into_rows) returns the
/// results in grid order — completion order never surfaces.
#[derive(Debug)]
pub struct ShardResult<R> {
    slots: Vec<Option<R>>,
    filled: usize,
}

impl<R> ShardResult<R> {
    /// An empty accumulator for a grid of `n` configurations.
    pub fn new(n: usize) -> Self {
        ShardResult {
            slots: (0..n).map(|_| None).collect(),
            filled: 0,
        }
    }

    /// Number of filled slots.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// True once every slot holds a result.
    pub fn is_complete(&self) -> bool {
        self.filled == self.slots.len()
    }

    /// Records the result of configuration `index`.
    ///
    /// # Panics
    /// Panics if the slot is already filled (a work-distribution bug).
    pub fn set(&mut self, index: usize, value: R) {
        assert!(
            self.slots[index].is_none(),
            "shard slot {index} filled twice"
        );
        self.slots[index] = Some(value);
        self.filled += 1;
    }

    /// Merges another accumulator of the same width into `self`.
    ///
    /// # Panics
    /// Panics on width mismatch or overlapping filled slots.
    pub fn merge(&mut self, other: ShardResult<R>) {
        assert_eq!(self.slots.len(), other.slots.len(), "grid width mismatch");
        for (i, slot) in other.slots.into_iter().enumerate() {
            if let Some(value) = slot {
                self.set(i, value);
            }
        }
    }

    /// Consumes the accumulator, returning results in grid order.
    ///
    /// # Panics
    /// Panics if any slot is unfilled. This only indicates a
    /// work-distribution bug (a claimed configuration whose result was
    /// dropped): a *panicking* worker never surfaces here, because
    /// [`ShardedGrid::run`] re-raises the worker's original payload
    /// before any accumulator is read.
    pub fn into_rows(self) -> Vec<R> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    panic!("configuration {i} never ran (work-distribution bug: the slot was claimed but its result was dropped)")
                })
            })
            .collect()
    }
}

/// The configuration-grid runner. See the module docs for the execution
/// and seed-derivation model; construct with the grid and base seed,
/// optionally override the worker count, then [`run`](Self::run).
#[derive(Debug)]
pub struct ShardedGrid<C> {
    configs: Vec<C>,
    seed: u64,
    threads: usize,
}

impl<C: GridKey + Sync> ShardedGrid<C> {
    /// A grid over `configs` with randomness derived from `seed`.
    /// Workers default to [`default_threads`].
    pub fn new(configs: Vec<C>, seed: u64) -> Self {
        ShardedGrid {
            configs,
            seed,
            threads: 0,
        }
    }

    /// Overrides the worker count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of configurations in the grid.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }

    /// Runs `f` once per configuration under work stealing and returns
    /// the results in grid order. `f` must derive all randomness from
    /// the [`ShardCtx`] for the output to be thread-count invariant.
    ///
    /// # Panics
    /// If a worker panics, the **original panic payload** is re-raised
    /// on the calling thread once all workers have joined, so the
    /// worker's own assertion message reaches the caller unmasked.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&C, &mut ShardCtx) -> R + Sync,
    {
        self.run_with(|| (), |_, config, ctx| f(config, ctx))
    }

    /// [`run`](Self::run) with per-worker state: each worker builds its
    /// own `S` with `init()` before it claims a configuration, and passes
    /// `&mut S` to every `f` call it makes, in increasing grid order. Which
    /// configurations share a state depends on scheduling, so the results
    /// stay thread-count invariant only if `f`'s result does not depend on
    /// what the state holds (a cache, a scratch buffer).
    ///
    /// # Panics
    /// As [`run`](Self::run): a worker panic re-raises its original
    /// payload.
    pub fn run_with<S, R, I, F>(&self, init: I, f: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &C, &mut ShardCtx) -> R + Sync,
    {
        let n = self.configs.len();
        let threads = self.threads().min(n.max(1));
        let cursor = AtomicUsize::new(0);
        let merged: Mutex<ShardResult<R>> = Mutex::new(ShardResult::new(n));
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| {
                    // Each worker accumulates into its own ShardResult and
                    // merges once at the end, keeping the shared lock cold.
                    let mut local = ShardResult::new(n);
                    let mut state = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let config = &self.configs[i];
                        let mut ctx = ShardCtx::new(self.seed, config.grid_key());
                        local.set(i, f(&mut state, config, &mut ctx));
                    }
                    if local.filled() > 0 {
                        merged.lock().merge(local);
                    }
                });
            }
        })
        // Worker panics surface here with their original payload (the
        // scoped-thread shim records the first panicking worker's
        // payload); re-raise it so the caller sees the real failure, not
        // a downstream "configuration never ran" artifact.
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        let result = merged.into_inner();
        // Checked in release builds too: a worker claiming a slot and
        // exiting without filling it would otherwise only be caught by
        // the per-slot panic in into_rows.
        assert!(
            result.is_complete(),
            "grid run incomplete: {} of {n} configurations produced no result",
            n - result.filled()
        );
        result.into_rows()
    }

    /// The stream ids the grid will assign, in grid order — exposed so
    /// tests can assert pairwise distinctness (counter-space
    /// disjointness of the derived streams).
    pub fn stream_ids(&self) -> Vec<u64> {
        self.configs.iter().map(|c| c.grid_key()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn grid_order_is_preserved_under_jitter() {
        // Later items finish first (reverse-cost jitter); output order
        // must still be grid order.
        let configs: Vec<u64> = (0..48).collect();
        let grid = ShardedGrid::new(configs, 1).with_threads(8);
        let out = grid.run(|&c, _| {
            std::thread::sleep(std::time::Duration::from_micros(200 * (48 - c)));
            c * 10
        });
        assert_eq!(out, (0..48).map(|c| c * 10).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let configs: Vec<(usize, f64)> = (1..5)
            .flat_map(|n| [0.5, 0.75, 1.0].into_iter().map(move |f| (n, f)))
            .collect();
        let run = |threads| {
            ShardedGrid::new(configs.clone(), 99)
                .with_threads(threads)
                .run(|&(n, f), ctx| {
                    let x: f64 = ctx.rng().gen();
                    n as f64 * f + x
                })
        };
        let a = run(1);
        for threads in [2, 3, 7] {
            assert_eq!(a, run(threads));
        }
    }

    #[test]
    fn streams_depend_on_identity_not_position() {
        // Dropping a grid point must not perturb the others' randomness.
        let full: Vec<f64> = vec![0.5, 0.6, 0.7, 0.8];
        let pruned: Vec<f64> = vec![0.5, 0.7, 0.8];
        let draw = |grid: Vec<f64>| {
            ShardedGrid::new(grid, 7)
                .with_threads(1)
                .run(|&f, ctx| (f, ctx.rng().gen::<f64>()))
        };
        let a = draw(full);
        let b = draw(pruned);
        for (f, x) in &b {
            let (_, xa) = a.iter().find(|(fa, _)| fa == f).unwrap();
            assert_eq!(x, xa, "stream for f={f} changed when the grid shrank");
        }
    }

    #[test]
    fn shared_streams_pair_across_configs() {
        // Two configs differing in the swept parameter read the same
        // shared state stream.
        let grid: Vec<(u64, u64)> = vec![(0, 7), (1, 7)];
        let out = ShardedGrid::new(grid, 3)
            .with_threads(2)
            .run(|&(_, s), ctx| {
                let mut state = ctx.shared(&(u64::MAX, s));
                let paired: f64 = state.gen();
                let own: f64 = ctx.rng().gen();
                (paired, own)
            });
        assert_eq!(out[0].0, out[1].0, "shared stream not paired");
        assert_ne!(out[0].1, out[1].1, "sampling lanes must differ");
    }

    #[test]
    fn lanes_are_independent_of_the_sampling_stream() {
        let grid: Vec<u64> = vec![5];
        let out = ShardedGrid::new(grid, 11).with_threads(1).run(|_, ctx| {
            let a: f64 = ctx.lane(0).gen();
            let b: f64 = ctx.lane(1).gen();
            let c: f64 = ctx.rng().gen();
            // Drawing from the sampling stream does not move a lane off
            // the `lane(c, t)` law.
            let again: f64 = ctx.lane(0).gen();
            let law: f64 = StreamRng::new(ctx.seed(), ctx.key()).split(0).gen();
            (a, b, c, again, law)
        });
        let (a, b, c, again, law) = out[0];
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a.to_bits(), again.to_bits());
        assert_eq!(a.to_bits(), law.to_bits());
    }

    #[test]
    fn grid_keys_hash_values_not_indices() {
        assert_eq!((1usize, 0.5f64).grid_key(), (1usize, 0.5f64).grid_key());
        assert_ne!((1usize, 0.5f64).grid_key(), (2usize, 0.5f64).grid_key());
        assert_ne!((1usize, 0.5f64).grid_key(), (1usize, 0.6f64).grid_key());
        // -0.0 and +0.0 name the same point.
        assert_eq!((0.0f64).grid_key(), (-0.0f64).grid_key());
    }

    #[test]
    fn shard_result_merge_is_disjoint_union() {
        let mut a: ShardResult<u32> = ShardResult::new(4);
        let mut b: ShardResult<u32> = ShardResult::new(4);
        a.set(0, 10);
        a.set(2, 30);
        b.set(1, 20);
        b.set(3, 40);
        a.merge(b);
        assert!(a.is_complete());
        assert_eq!(a.into_rows(), vec![10, 20, 30, 40]);
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn overlapping_merge_panics() {
        let mut a: ShardResult<u32> = ShardResult::new(2);
        let mut b: ShardResult<u32> = ShardResult::new(2);
        a.set(0, 1);
        b.set(0, 2);
        a.merge(b);
    }

    #[test]
    #[should_panic(expected = "shard worker failed on config 5")]
    fn worker_panic_reaches_caller_with_original_message() {
        // The panic payload of a shard worker must surface verbatim from
        // run() — never masked as "configuration {i} never ran".
        let configs: Vec<u64> = (0..16).collect();
        ShardedGrid::new(configs, 1).with_threads(4).run(|&c, _| {
            if c == 5 {
                panic!("shard worker failed on config {c}");
            }
            c
        });
    }

    #[test]
    #[should_panic(expected = "shard worker failed on config 0")]
    fn single_thread_worker_panic_also_propagates() {
        let configs: Vec<u64> = (0..4).collect();
        ShardedGrid::new(configs, 1).with_threads(1).run(|&c, _| {
            if c == 0 {
                panic!("shard worker failed on config {c}");
            }
            c
        });
    }

    #[test]
    fn run_with_keeps_one_state_per_worker() {
        // Each state logs the configurations its worker served: every log
        // must grow strictly, no run may build more states than workers,
        // and the results must come back in grid order at any thread count.
        let configs: Vec<usize> = (0..40).collect();
        let run = |threads: usize| {
            let built = AtomicUsize::new(0);
            let out = ShardedGrid::new(configs.clone(), 3)
                .with_threads(threads)
                .run_with(
                    || {
                        built.fetch_add(1, Ordering::Relaxed);
                        Vec::new()
                    },
                    |served: &mut Vec<usize>, &c, ctx| {
                        if let Some(&last) = served.last() {
                            assert!(last < c, "a state saw config {c} after {last}");
                        }
                        served.push(c);
                        (c, ctx.rng().gen::<u64>())
                    },
                );
            let built = built.into_inner();
            assert!(
                (1..=threads).contains(&built),
                "{built} states for {threads} threads"
            );
            out
        };
        let one = run(1);
        assert_eq!(one.iter().map(|r| r.0).collect::<Vec<_>>(), configs);
        for threads in [2, 3, 7] {
            assert_eq!(one, run(threads), "threads {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "stateful worker failed on config 5")]
    fn run_with_worker_panic_reaches_caller_with_original_message() {
        let configs: Vec<u64> = (0..16).collect();
        ShardedGrid::new(configs, 1).with_threads(4).run_with(
            || 0u64,
            |served, &c, _| {
                *served += 1;
                if c == 5 {
                    panic!("stateful worker failed on config {c}");
                }
                c
            },
        );
    }

    #[test]
    #[should_panic(expected = "configuration 1 never ran")]
    fn unfilled_slot_is_reported_as_distribution_bug() {
        // Direct accumulator misuse (not a worker panic) still gets the
        // explicit work-distribution diagnostic.
        let mut a: ShardResult<u32> = ShardResult::new(2);
        a.set(0, 1);
        let _ = a.into_rows();
    }

    #[test]
    fn empty_grid_runs() {
        let grid: ShardedGrid<u64> = ShardedGrid::new(vec![], 0);
        let out: Vec<u64> = grid.run(|&c, _| c);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_costs_all_complete() {
        let configs: Vec<usize> = (0..64).collect();
        let out = ShardedGrid::new(configs, 5).with_threads(8).run(|&c, _| {
            let mut acc = 0u64;
            for k in 0..(c * 997) {
                acc = acc.wrapping_add(k as u64);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn threads_default_positive() {
        assert!(default_threads() >= 1);
    }
}
