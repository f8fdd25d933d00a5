//! # Cutting as a service: the estimation-job engine
//!
//! The ROADMAP's production shape for heavy traffic: a library-level job
//! engine accepting estimation requests — circuit + observable + shot
//! budget + seed — from many concurrent clients, where the expensive
//! work (planning and compiling a [`CompiledPlan`]: fragment blocks,
//! group transfers and the frontier sweep that gives every product term
//! its exact value) is paid **once per distinct plan** and
//! every repeat request only pays for shot allocation and one binomial
//! draw per term and batch.
//!
//! * **Compiled-plan cache** — compiled plans live behind a sharded
//!   read-through cache (`Arc<CompiledPlan>` under per-shard mutexes),
//!   extending the MUB memoization discipline to whole plans. A lookup
//!   builds the request's exact key material — the words
//!   [`CutPlanner::plan_key`] hashes — and takes one keyed SipHash digest
//!   of them with the service's own `RandomState`; the shard is the
//!   digest mod [`CACHE_SHARDS`], and a hit is the entry whose words
//!   compare equal, so a hash collision never serves the wrong plan. The
//!   FNV [`PlanKey`] is computed once per distinct plan, on the miss,
//!   and stored with it. Compilation happens outside the shard lock;
//!   when two clients race on the same cold request, both compile (the
//!   plans are identical — compilation is deterministic) and the first
//!   insert wins, so the cache never blocks sampling. Inside a
//!   [`CutService::run_jobs`] fleet, a job whose `(circuit, observable)`
//!   compares equal to its worker's previous job reuses that job's plan
//!   and key without a lookup: equal requests have equal key words, so
//!   it is the plan the lookup would return. It counts as a hit.
//! * **Batched execution with streaming partials** — a job's budget is
//!   spent in batches; after each batch the pooled estimate so far is
//!   streamed to the caller ([`BatchUpdate`], via the callback of
//!   [`CutService::run_job_with`]) and recorded in the final
//!   [`JobOutcome`].
//! * **Sequential shot allocation** — in
//!   [`AllocationMode::Sequential`] each batch's split across QPD terms
//!   is re-planned from the per-term variance observed so far
//!   ([`qpd::SequentialAllocator`]), converging to the Neyman-optimal
//!   [`qpd::neyman_allocation`] as counts grow; static proportional and
//!   uniform splits remain available for ablation.
//! * **Work-stealing fan-out** — [`CutService::run_jobs`] schedules many
//!   jobs by fleet index on the [`qsample::grid::ShardedGrid`] pool, the
//!   same engine behind every experiment sweep. Each worker keeps its
//!   previous job's request, plan and key as per-worker grid state
//!   ([`ShardedGrid::run_with`]), so a run of equal requests pays one
//!   cache lookup. A plan the fleet holds this way outlives
//!   [`CutService::clear_cache`] until the fleet returns.
//!
//! ## Determinism contract
//!
//! A job's results are **byte-identical** given `(seed, plan)` — at any
//! thread count, any cache state (cold or warm), any submission order,
//! and whether it runs alone via [`CutService::run_job`] or inside a
//! [`CutService::run_jobs`] fleet. This holds because every random draw
//! comes from a counter-based stream addressed purely by content:
//!
//! ```text
//! lane(job, batch, term) = StreamRng::new(job.seed, plan_key).derive(&[batch, term])
//! ```
//!
//! The batch loop takes this lane as `root.split(batch).split(term)`,
//! the same stream, deriving the batch level once per batch. It draws a
//! whole batch through [`qpd::BernoulliTerm::sample_batch`], i.e. the
//! [`qsample::binomial_batch`] kernel, whose every variate and RNG word
//! are those of the term's scalar draw on its lane.
//!
//! Nothing about scheduling (thread ids, completion order, cache
//! hit/miss history, which job a worker served before) enters the stream
//! address, and neither does the cache's keyed digest, which differs per
//! service instance. A fleet worker's reuse of its previous job's plan
//! changes no bit either: it serves the plan and key a lookup would.
//! Cache **statistics** ([`CutService::cache_stats`]) are the one
//! deliberately racy observable — two concurrent cold requests for one
//! key may both count a miss — so they are reported out-of-band and
//! never mixed into deterministic outputs. `tests/service_determinism.rs`
//! pins the whole contract.

use crate::planner::{CompiledPlan, CutPlanner, PlanKey};
use qpd::{Allocator, BernoulliTerm, SequentialAllocator};
use qsample::{ShardedGrid, StreamRng};
use qsim::{Circuit, PauliString};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of independent cache shards: requests are distributed by
/// `digest mod CACHE_SHARDS`, so concurrent clients contend on a shard
/// only when their digests collide mod this. 16 comfortably covers the
/// engine's worker-thread cap.
pub const CACHE_SHARDS: usize = 16;

/// How a job's shot budget is split across QPD terms within each batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocationMode {
    /// Every batch on the paper's static `nᵢ ∝ |cᵢ|` split.
    StaticProportional,
    /// Every batch split equally across terms.
    StaticUniform,
    /// First batch proportional, later batches Neyman-optimal for the
    /// per-term σ̂ observed so far ([`SequentialAllocator`]).
    Sequential,
}

/// One estimation request: estimate `⟨observable⟩` on `circuit` from
/// `shots` samples of its compiled cut plan.
#[derive(Clone, Debug)]
pub struct EstimationJob {
    /// The circuit to cut and estimate.
    pub circuit: Circuit,
    /// Diagonal (Z/I) observable over the circuit wires.
    pub observable: PauliString,
    /// Total shot budget.
    pub shots: u64,
    /// The job's RNG seed: results are a pure function of
    /// `(seed, plan)`.
    pub seed: u64,
    /// Number of shot batches the budget is spent in (≥ 1; partial
    /// estimates stream after each).
    pub batches: u64,
    /// Per-batch allocation strategy.
    pub mode: AllocationMode,
}

impl EstimationJob {
    /// A sequential-allocation job with four batches — the service
    /// default; override with [`with_batches`](Self::with_batches) /
    /// [`with_mode`](Self::with_mode).
    pub fn new(circuit: Circuit, observable: PauliString, shots: u64, seed: u64) -> Self {
        EstimationJob {
            circuit,
            observable,
            shots,
            seed,
            batches: 4,
            mode: AllocationMode::Sequential,
        }
    }

    /// Sets the batch count (≥ 1).
    pub fn with_batches(mut self, batches: u64) -> Self {
        assert!(batches >= 1, "a job needs at least one batch");
        self.batches = batches;
        self
    }

    /// Sets the allocation mode.
    pub fn with_mode(mut self, mode: AllocationMode) -> Self {
        self.mode = mode;
        self
    }
}

/// One streamed partial result: the pooled estimate after `batch`
/// batches have completed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchUpdate {
    /// 0-based index of the batch that just completed.
    pub batch: u64,
    /// Shots spent in this batch.
    pub shots_used: u64,
    /// Pooled estimate over all batches so far.
    pub estimate: f64,
}

/// The completed result of one estimation job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Final pooled estimate `Σᵢ cᵢ · meanᵢ`.
    pub estimate: f64,
    /// The plan's exact decomposed value (equals the uncut expectation).
    pub exact: f64,
    /// Plan sampling overhead `κ`.
    pub kappa: f64,
    /// Shots actually spent (the job's full budget).
    pub shots: u64,
    /// Content hash the plan was cached under.
    pub plan_key: PlanKey,
    /// Whether the compiled plan came out of the cache, or, in a
    /// [`CutService::run_jobs`] fleet, was reused from the worker's
    /// previous job. Diagnostic only: under concurrency a cold key may be
    /// compiled by several clients at once, so this flag is **not** part
    /// of the deterministic output.
    pub cache_hit: bool,
    /// The streamed per-batch partials, in batch order.
    pub updates: Vec<BatchUpdate>,
    /// Pooled per-term shot counts (sums to `shots`).
    pub allocation: Vec<u64>,
}

/// One cached plan: the exact key words it was compiled for, its FNV
/// [`PlanKey`] (the jobs' RNG stream id) and the plan itself.
struct Entry {
    words: Box<[u64]>,
    key: PlanKey,
    plan: Arc<CompiledPlan>,
}

impl Entry {
    /// The entry for a freshly compiled plan: the only place the
    /// service hashes a [`PlanKey`], once per distinct plan.
    fn new(words: Vec<u64>, plan: CompiledPlan) -> Self {
        Entry {
            key: PlanKey::of_words(&words),
            words: words.into_boxed_slice(),
            plan: Arc::new(plan),
        }
    }
}

/// A cache shard: keyed digest → the entries whose words share it
/// (almost always one).
type Shard = HashMap<u64, Vec<Entry>, BuildHasherDefault<DigestHasher>>;

/// Shard-map hasher for keys that already are keyed SipHash digests: it
/// passes the digest through, so a lookup SipHashes the words once.
#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("shard maps are keyed by u64 digests");
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Locks a shard. Every write under a shard lock is one `insert` or
/// `clear`, which leaves the map a valid cache, so a poisoned lock is
/// taken as it is.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The entry under `digest` whose key words equal `words`.
fn find<'a>(shard: &'a Shard, digest: u64, words: &[u64]) -> Option<&'a Entry> {
    shard.get(&digest)?.iter().find(|e| *e.words == *words)
}

/// Caches `entry` under `digest` unless an entry with equal words is
/// already there (a racing client compiled it first); returns the
/// cached one.
fn insert(shard: &mut Shard, digest: u64, entry: Entry) -> &Entry {
    let bucket = shard.entry(digest).or_default();
    match bucket.iter().position(|e| e.words == entry.words) {
        Some(i) => &bucket[i],
        None => {
            bucket.push(entry);
            &bucket[bucket.len() - 1]
        }
    }
}

/// The job engine: a [`CutPlanner`] plus a sharded read-through cache of
/// compiled plans. Cheap to share (`&CutService` is `Sync`); one
/// long-lived instance serves arbitrarily many clients.
pub struct CutService {
    planner: CutPlanner,
    /// Keys the shard digests; per service, so clients cannot aim
    /// requests at one shard or bucket.
    digest: RandomState,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CutService {
    /// A service compiling plans with `planner`.
    pub fn new(planner: CutPlanner) -> Self {
        CutService {
            planner,
            digest: RandomState::new(),
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The planner this service compiles with.
    pub fn planner(&self) -> &CutPlanner {
        &self.planner
    }

    /// Read-through lookup: the compiled plan for `(circuit,
    /// observable)`, its [`PlanKey`], and whether it was served from the
    /// cache. Plans are found by the request's exact key words; the
    /// [`PlanKey`] is computed on the miss and cached with the plan.
    /// Compilation happens outside the shard lock; on a concurrent cold
    /// race the first insert wins and later compilers adopt it.
    pub fn compiled(
        &self,
        circuit: &Circuit,
        observable: &PauliString,
    ) -> (Arc<CompiledPlan>, PlanKey, bool) {
        let words = self.planner.plan_words(circuit, observable);
        let digest = self.digest.hash_one(&words[..]);
        let shard = &self.shards[(digest % CACHE_SHARDS as u64) as usize];
        if let Some(entry) = find(&lock(shard), digest, &words) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (entry.plan.clone(), entry.key, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = CompiledPlan::compile(&self.planner.plan(circuit), observable);
        let entry = Entry::new(words, plan);
        let mut guard = lock(shard);
        let cached = insert(&mut guard, digest, entry);
        (cached.plan.clone(), cached.key, false)
    }

    /// `(hits, misses)` so far: one per job, whether it ran alone or in a
    /// [`run_jobs`](Self::run_jobs) fleet (a fleet job that reuses its
    /// worker's previous plan counts as a hit), plus one per direct
    /// [`compiled`](Self::compiled) call. Racy by design (see the module
    /// docs) — never fold these into deterministic outputs.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct plans currently cached.
    pub fn cache_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(s).values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Drops every cached plan (the determinism contract makes this
    /// invisible to job results). A [`run_jobs`](Self::run_jobs) fleet
    /// in flight keeps the plans its workers hold until it returns.
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            lock(shard).clear();
        }
    }

    /// Runs one job to completion. Equivalent to
    /// [`run_job_with`](Self::run_job_with) with a no-op callback.
    pub fn run_job(&self, job: &EstimationJob) -> JobOutcome {
        self.run_job_with(job, |_| {})
    }

    /// Runs one job, invoking `on_batch` with each partial estimate as
    /// its batch completes (the streaming interface; the same updates
    /// are also collected into the returned [`JobOutcome`]).
    pub fn run_job_with<F: FnMut(&BatchUpdate)>(
        &self,
        job: &EstimationJob,
        on_batch: F,
    ) -> JobOutcome {
        assert!(job.batches >= 1, "a job needs at least one batch");
        let (plan, key, cache_hit) = self.compiled(&job.circuit, &job.observable);
        run_compiled(job, &plan, key, cache_hit, on_batch)
    }

    /// Runs a fleet of jobs on the work-stealing grid pool
    /// (`threads = 0` ⇒ auto), returning outcomes in submission order.
    /// Each job's result is byte-identical to running it alone through
    /// [`run_job`](Self::run_job).
    ///
    /// Each worker remembers the last request it served: a job whose
    /// `(circuit, observable)` compares equal to its worker's previous
    /// job reuses that job's plan and key without a cache lookup. Equal
    /// requests have equal key words, so this is the plan the lookup
    /// would return. Such a job counts as a cache hit, so
    /// [`cache_stats`](Self::cache_stats) still counts one hit or miss
    /// per job, and a plan the fleet holds survives
    /// [`clear_cache`](Self::clear_cache) until the fleet returns.
    pub fn run_jobs(&self, jobs: &[EstimationJob], threads: usize) -> Vec<JobOutcome> {
        // Scheduled by fleet index: job randomness never flows through
        // the grid's ShardCtx streams (see the module docs).
        ShardedGrid::new((0..jobs.len()).collect(), 0)
            .with_threads(threads)
            .run_with(
                || None,
                |last: &mut Option<(&EstimationJob, Arc<CompiledPlan>, PlanKey)>, &index, _ctx| {
                    let job = &jobs[index];
                    assert!(job.batches >= 1, "a job needs at least one batch");
                    if let Some((prev, plan, key)) = last {
                        // Derived `PartialEq` compares every field the key
                        // words absorb (−0.0 equals 0.0, which the words
                        // normalise); a NaN never compares equal, so it
                        // falls through to the lookup.
                        if prev.observable == job.observable && prev.circuit == job.circuit {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return run_compiled(job, plan, *key, true, |_| {});
                        }
                    }
                    let (plan, key, cache_hit) = self.compiled(&job.circuit, &job.observable);
                    let outcome = run_compiled(job, &plan, key, cache_hit, |_| {});
                    *last = Some((job, plan, key));
                    outcome
                },
            )
    }
}

/// Spends `job`'s budget on `plan`, whose stream id is `key`: the batch
/// loop behind both [`CutService::run_job_with`] and
/// [`CutService::run_jobs`].
fn run_compiled<F: FnMut(&BatchUpdate)>(
    job: &EstimationJob,
    plan: &CompiledPlan,
    key: PlanKey,
    cache_hit: bool,
    mut on_batch: F,
) -> JobOutcome {
    let terms = plan.plan_terms();
    let num_terms = plan.spec.len();
    let mut seq = SequentialAllocator::new(num_terms);
    // At most one update per shot: a job with far more batches than
    // shots must not reserve (or walk) one slot per empty batch.
    let mut updates = Vec::with_capacity(job.batches.min(job.shots) as usize);
    let per_batch = job.shots / job.batches;
    // With fewer shots than batches every batch but the last is
    // empty, so start there; batch indices (and lanes) are unchanged.
    let first = if job.shots < job.batches {
        job.batches - 1
    } else {
        0
    };
    let root = StreamRng::new(job.seed, key.0);
    for batch in first..job.batches {
        let budget = if batch + 1 == job.batches {
            job.shots - per_batch * (job.batches - 1)
        } else {
            per_batch
        };
        if budget == 0 {
            continue;
        }
        let allocation = match job.mode {
            AllocationMode::StaticProportional => {
                Allocator::Proportional.allocate(&plan.spec, budget)
            }
            AllocationMode::StaticUniform => Allocator::Uniform.allocate(&plan.spec, budget),
            AllocationMode::Sequential => seq.next_allocation(&plan.spec, budget),
        };
        // The whole determinism contract in one call: term `t` draws on
        // lane `root.split(batch).split(t)`, i.e. `derive(&[batch, t])`,
        // addressed by content (seed, plan key, batch, term) and nothing
        // else. `root` only saves recomputing the seed's round keys per
        // lane, and the batch level is derived once per batch.
        BernoulliTerm::sample_batch(terms, &allocation, &root.split(batch), |term, sum| {
            let n = allocation[term];
            if n != 0 {
                seq.record(term, sum, n);
            }
        });
        let update = BatchUpdate {
            batch,
            shots_used: budget,
            estimate: seq.estimate(&plan.spec),
        };
        on_batch(&update);
        updates.push(update);
    }
    JobOutcome {
        estimate: updates.last().map_or(0.0, |u| u.estimate),
        exact: plan.exact_value(),
        kappa: plan.report().kappa,
        shots: job.shots,
        plan_key: key,
        cache_hit,
        updates,
        allocation: (0..num_terms).map(|i| seq.count(i)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(n: usize) -> Circuit {
        let mut c = Circuit::new(n, 0);
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.rz(0.3 + 0.1 * q as f64, q + 1);
        }
        c
    }

    fn job(seed: u64) -> EstimationJob {
        EstimationJob::new(ladder(3), PauliString::from_label("ZZZ"), 2000, seed)
    }

    fn service() -> CutService {
        CutService::new(CutPlanner::new(2).with_overlap(0.9))
    }

    #[test]
    fn cold_and_warm_results_are_bit_identical() {
        let svc = service();
        let cold = svc.run_job(&job(7));
        assert!(!cold.cache_hit);
        let warm = svc.run_job(&job(7));
        assert!(warm.cache_hit);
        assert_eq!(cold.estimate.to_bits(), warm.estimate.to_bits());
        assert_eq!(cold.updates, warm.updates);
        assert_eq!(cold.allocation, warm.allocation);
        // A fresh service (empty cache) reproduces them too.
        let fresh = service().run_job(&job(7));
        assert_eq!(cold.estimate.to_bits(), fresh.estimate.to_bits());
    }

    #[test]
    fn fleet_matches_solo_at_any_thread_count() {
        let svc = service();
        let jobs: Vec<EstimationJob> = (0..6).map(job).collect();
        let solo: Vec<f64> = jobs.iter().map(|j| svc.run_job(j).estimate).collect();
        for threads in [1, 2, 7] {
            let fleet = svc.run_jobs(&jobs, threads);
            for (s, f) in solo.iter().zip(fleet.iter()) {
                assert_eq!(s.to_bits(), f.estimate.to_bits(), "threads {threads}");
            }
        }
    }

    #[test]
    fn cache_dedupes_by_content() {
        let svc = service();
        svc.run_job(&job(1));
        svc.run_job(&job(2)); // same plan, different seed → same key
        assert_eq!(svc.cache_len(), 1);
        let (hits, misses) = svc.cache_stats();
        assert_eq!((hits, misses), (1, 1));
        // A different observable is a different plan.
        let mut other = job(1);
        other.observable = PauliString::from_label("ZIZ");
        svc.run_job(&other);
        assert_eq!(svc.cache_len(), 2);
        svc.clear_cache();
        assert_eq!(svc.cache_len(), 0);
    }

    #[test]
    fn colliding_digests_keep_their_own_plans_and_keys() {
        // Two requests forced under one digest, as a digest (or FNV)
        // collision would put them: each must come back with its own plan
        // and key, and a racing re-insert must adopt the first entry.
        let planner = CutPlanner::new(2).with_overlap(0.9);
        let obs = PauliString::from_label("ZZZ");
        let mut other = ladder(3);
        other.ry(0.7, 2);
        let circuits = [ladder(3), other];
        let words: Vec<Vec<u64>> = circuits
            .iter()
            .map(|c| planner.plan_words(c, &obs))
            .collect();
        let entry = |i: usize| {
            let plan = CompiledPlan::compile(&planner.plan(&circuits[i]), &obs);
            Entry::new(words[i].clone(), plan)
        };
        let digest = 0x5EED;
        let mut shard = Shard::default();
        let mut plans = Vec::new();
        for (i, words) in words.iter().enumerate() {
            assert!(find(&shard, digest, words).is_none());
            plans.push(insert(&mut shard, digest, entry(i)).plan.clone());
        }
        assert_eq!(shard.len(), 1, "both entries share one digest bucket");
        for ((circuit, words), plan) in circuits.iter().zip(&words).zip(&plans) {
            let hit = find(&shard, digest, words).expect("cached");
            assert!(Arc::ptr_eq(&hit.plan, plan));
            assert_eq!(hit.key, planner.plan_key(circuit, &obs));
        }
        assert_ne!(
            planner.plan_key(&circuits[0], &obs),
            planner.plan_key(&circuits[1], &obs)
        );
        // A late compiler of the first request adopts the cached plan.
        assert!(Arc::ptr_eq(
            &insert(&mut shard, digest, entry(0)).plan,
            &plans[0]
        ));
        assert_eq!(shard[&digest].len(), 2);
    }

    #[test]
    fn a_fleet_costs_one_lookup_per_job() {
        // 1 thread, so no cold race: every job is exactly one hit or miss.
        let svc = service();
        let mut jobs: Vec<EstimationJob> = (0..5).map(job).collect();
        let mut other = job(9);
        other.observable = PauliString::from_label("ZIZ");
        jobs.extend([
            other.clone(),
            other.with_mode(AllocationMode::StaticUniform),
        ]);
        let outcomes = svc.run_jobs(&jobs, 1);
        assert_eq!(outcomes.len(), 7);
        assert_eq!(svc.cache_stats(), (7 - 2, 2));
        assert_eq!(svc.cache_len(), 2);
    }

    #[test]
    fn a_poisoned_shard_still_serves_its_plans() {
        // A thread that panics while holding a shard lock poisons it;
        // every write leaves the cache valid, so lookups, inserts and
        // clears go on, and the cached plan is still served.
        let svc = service();
        let cold = svc.run_job(&job(3));
        for shard in &svc.shards {
            std::thread::scope(|s| {
                let holder = s.spawn(|| {
                    let _guard = shard.lock();
                    panic!("poisoning a cache shard");
                });
                assert!(holder.join().is_err());
            });
            assert!(shard.is_poisoned());
        }
        let warm = svc.run_job(&job(3));
        assert!(warm.cache_hit);
        assert_eq!(cold.estimate.to_bits(), warm.estimate.to_bits());
        assert_eq!(svc.cache_len(), 1);
        svc.clear_cache();
        assert_eq!(svc.cache_len(), 0);
        assert!(!svc.run_job(&job(3)).cache_hit);
    }

    #[test]
    fn memo_runs_count_one_hit_or_miss_per_job() {
        // Three requests, four seeds each, grouped (a worker's memo of its
        // previous request hits inside every run) and interleaved (it
        // never hits). 1 thread, so no cold race: both orders end at one
        // miss per request, and a job misses exactly on its request's
        // first occurrence.
        let mut other_observable = job(0);
        other_observable.observable = PauliString::from_label("ZIZ");
        let mut other_circuit = job(0);
        other_circuit.circuit.ry(0.5, 1);
        let requests = [job(0), other_observable, other_circuit];
        let with_seed = |r: &EstimationJob, seed| EstimationJob { seed, ..r.clone() };
        let grouped: Vec<EstimationJob> = requests
            .iter()
            .flat_map(|r| (0..4).map(move |seed| with_seed(r, seed)))
            .collect();
        let interleaved: Vec<EstimationJob> = (0..4)
            .flat_map(|seed| requests.iter().map(move |r| with_seed(r, seed)))
            .collect();
        for fleet in [grouped, interleaved] {
            let svc = service();
            let outcomes = svc.run_jobs(&fleet, 1);
            assert_eq!(svc.cache_stats(), (fleet.len() as u64 - 3, 3));
            for (i, (job, out)) in fleet.iter().zip(&outcomes).enumerate() {
                let first = fleet[..i]
                    .iter()
                    .all(|j| j.circuit != job.circuit || j.observable != job.observable);
                assert_eq!(out.cache_hit, !first, "job {i}");
            }
        }
        // A job with no batch inside a memo run still fails with its own
        // message.
        let mut fleet: Vec<EstimationJob> = (0..3).map(job).collect();
        fleet[1].batches = 0;
        let svc = service();
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.run_jobs(&fleet, 1)))
                .expect_err("a job with no batch must panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("a job needs at least one batch"));
    }

    #[test]
    fn an_empty_fleet_returns_no_outcomes() {
        let svc = service();
        for threads in [0, 1, 7] {
            assert!(svc.run_jobs(&[], threads).is_empty(), "threads {threads}");
        }
        assert_eq!(svc.cache_stats(), (0, 0));
    }

    #[test]
    fn updates_stream_in_batch_order_and_spend_the_budget() {
        let svc = service();
        let j = job(3).with_batches(5);
        let mut streamed = Vec::new();
        let out = svc.run_job_with(&j, |u| streamed.push(*u));
        assert_eq!(streamed, out.updates);
        assert_eq!(out.updates.len(), 5);
        for (i, u) in out.updates.iter().enumerate() {
            assert_eq!(u.batch, i as u64);
        }
        assert_eq!(out.updates.iter().map(|u| u.shots_used).sum::<u64>(), 2000);
        assert_eq!(out.allocation.iter().sum::<u64>(), 2000);
        assert_eq!(out.shots, 2000);
    }

    #[test]
    fn estimates_land_near_exact() {
        let svc = service();
        for mode in [
            AllocationMode::StaticProportional,
            AllocationMode::StaticUniform,
            AllocationMode::Sequential,
        ] {
            let mut err = 0.0;
            let reps = 20;
            for seed in 0..reps {
                let out = svc.run_job(&job(seed).with_mode(mode));
                err += (out.estimate - out.exact).abs();
            }
            let mean_err = err / reps as f64;
            // SE per job ≈ κ/√shots ≈ 2.1/45 ≈ 0.047; the mean of |err|
            // over 20 jobs sits well under 5σ of that.
            assert!(mean_err < 0.15, "{mode:?}: mean abs error {mean_err}");
        }
    }

    #[test]
    fn zero_shot_job_completes_empty() {
        let svc = service();
        let mut j = job(5);
        j.shots = 0;
        let out = svc.run_job(&j);
        assert_eq!(out.estimate, 0.0);
        assert!(out.updates.is_empty());
        assert_eq!(out.allocation.iter().sum::<u64>(), 0);
    }

    #[test]
    fn far_more_batches_than_shots_runs_only_the_last_batch() {
        // Every batch but the last is empty; the job must neither
        // reserve nor walk them.
        let svc = service();
        for batches in [1 << 40, u64::MAX] {
            let mut j = job(11).with_batches(batches);
            j.shots = 10;
            let out = svc.run_job(&j);
            assert_eq!(out.updates.len(), 1);
            assert_eq!(out.updates[0].batch, batches - 1);
            assert_eq!(out.updates[0].shots_used, 10);
            assert_eq!(out.updates[0].estimate.to_bits(), out.estimate.to_bits());
            assert_eq!(out.allocation.iter().sum::<u64>(), 10);
            assert_eq!(out.shots, 10);
        }
    }

    #[test]
    fn seed_moves_the_estimate_mode_moves_the_allocation() {
        let svc = service();
        let a = svc.run_job(&job(1));
        let b = svc.run_job(&job(2));
        assert_ne!(a.estimate.to_bits(), b.estimate.to_bits());
        let uniform = svc.run_job(&job(1).with_mode(AllocationMode::StaticUniform));
        assert_ne!(a.allocation, uniform.allocation);
        assert_eq!(a.plan_key, uniform.plan_key);
    }
}
