//! # Cutting as a service: the estimation-job engine
//!
//! The ROADMAP's production shape for heavy traffic: a library-level job
//! engine accepting estimation requests — circuit + observable + shot
//! budget + seed — from many concurrent clients, where the expensive
//! work (planning and compiling a [`CompiledPlan`]: MUB construction,
//! term stitching, per-term statevector simulation) is paid **once per
//! distinct plan** and every repeat request only pays for sampling.
//!
//! * **Compiled-plan cache** — requests are content-hashed into a
//!   [`PlanKey`] ([`CutPlanner::plan_key`]); compiled plans live behind a
//!   sharded read-through cache (`Arc<CompiledPlan>` under per-shard
//!   mutexes, shard = key mod [`CACHE_SHARDS`]), extending the MUB
//!   memoization discipline to whole plans. Compilation happens outside
//!   the shard lock; when two clients race on the same cold key, both
//!   compile (the plans are identical — compilation is deterministic)
//!   and the first insert wins, so the cache never blocks sampling.
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
//!   jobs on the [`qsample::grid::ShardedGrid`] pool, the same engine
//!   behind every experiment sweep.
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
//! Nothing about scheduling (thread ids, completion order, cache
//! hit/miss history) enters the stream address. Cache **statistics**
//! ([`CutService::cache_stats`]) are the one deliberately racy
//! observable — two concurrent cold requests for one key may both count
//! a miss — so they are reported out-of-band and never mixed into
//! deterministic outputs. `tests/service_determinism.rs` pins the whole
//! contract.

use crate::planner::{CompiledPlan, CutPlanner, PlanBackend, PlanKey};
use parking_lot::Mutex;
use qpd::{Allocator, SequentialAllocator};
use qsample::{GridKey, KeyHasher, ShardedGrid, StreamRng};
use qsim::{Circuit, PauliString};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independent cache shards: plan keys are distributed by
/// `key mod CACHE_SHARDS`, so concurrent clients contend on a shard only
/// when their keys collide mod this. 16 comfortably covers the engine's
/// worker-thread cap.
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

impl AllocationMode {
    fn code(self) -> u64 {
        match self {
            AllocationMode::StaticProportional => 0,
            AllocationMode::StaticUniform => 1,
            AllocationMode::Sequential => 2,
        }
    }
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
    /// Whether the compiled plan came out of the cache. Diagnostic only:
    /// under concurrency a cold key may be compiled by several clients
    /// at once, so this flag is **not** part of the deterministic
    /// output.
    pub cache_hit: bool,
    /// The streamed per-batch partials, in batch order.
    pub updates: Vec<BatchUpdate>,
    /// Pooled per-term shot counts (sums to `shots`).
    pub allocation: Vec<u64>,
    /// Fraction of the plan's compiled instructions that landed on the
    /// stabilizer fast path (see
    /// [`crate::planner::BackendReport::clifford_fraction`]).
    pub clifford_fraction: f64,
    /// Which compilation backend the plan rode — contracted
    /// fragment-block compilation or the monolithic stitching reference
    /// (see [`crate::planner::PlanBackend`]).
    pub backend: PlanBackend,
    /// Circuit units the backend compiled: stitched term circuits
    /// (monolithic) or fragment prep variants (contracted). The
    /// contracted count is `Σ variants(fragment)` and stays flat in the
    /// cut count where the monolithic `Π terms(group)` explodes.
    pub compiled_units: usize,
    /// Prefix-cache hits of the contracted backend's odometer sweep —
    /// Σ over terms of the resume depth (0 on the monolithic path).
    pub prefix_hits: usize,
    /// Frontier matrix multiplications the contracted sweep performed.
    pub frontier_ops: usize,
    /// Frontier multiplications a cache-disabled sweep would have
    /// performed (see [`crate::planner::BackendReport`]).
    pub frontier_ops_uncached: usize,
}

/// A job tagged with its plan key for grid scheduling.
struct KeyedJob<'a> {
    job: &'a EstimationJob,
    key: PlanKey,
    index: usize,
}

impl GridKey for KeyedJob<'_> {
    fn absorb(&self, h: &mut KeyHasher) {
        // Identity for *scheduling* only — job randomness never flows
        // through the grid's ShardCtx streams (see the module docs), so
        // absorbing the fleet index is safe and keeps duplicate
        // submissions distinct.
        h.absorb(self.key.0);
        h.absorb(self.job.seed);
        h.absorb(self.job.shots);
        h.absorb(self.job.batches);
        h.absorb(self.job.mode.code());
        h.absorb(self.index as u64);
    }
}

/// The job engine: a [`CutPlanner`] plus a sharded read-through cache of
/// compiled plans. Cheap to share (`&CutService` is `Sync`); one
/// long-lived instance serves arbitrarily many clients.
pub struct CutService {
    planner: CutPlanner,
    shards: Vec<Mutex<HashMap<u64, Arc<CompiledPlan>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CutService {
    /// A service compiling plans with `planner`.
    pub fn new(planner: CutPlanner) -> Self {
        CutService {
            planner,
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
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
    /// cache. Compilation happens outside the shard lock; on a concurrent
    /// cold race the first insert wins and later compilers adopt it.
    pub fn compiled(
        &self,
        circuit: &Circuit,
        observable: &PauliString,
    ) -> (Arc<CompiledPlan>, PlanKey, bool) {
        let key = self.planner.plan_key(circuit, observable);
        let shard = &self.shards[(key.0 as usize) % self.shards.len()];
        if let Some(plan) = shard.lock().get(&key.0).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (plan, key, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(CompiledPlan::compile(
            &self.planner.plan(circuit),
            observable,
        ));
        let plan = shard.lock().entry(key.0).or_insert(compiled).clone();
        (plan, key, false)
    }

    /// `(hits, misses)` so far. Racy by design (see the module docs) —
    /// never fold these into deterministic outputs.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct plans currently cached.
    pub fn cache_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Drops every cached plan (the determinism contract makes this
    /// invisible to job results).
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            shard.lock().clear();
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
        mut on_batch: F,
    ) -> JobOutcome {
        assert!(job.batches >= 1, "a job needs at least one batch");
        let (plan, key, cache_hit) = self.compiled(&job.circuit, &job.observable);
        let samplers = plan.samplers();
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
            for (term, &n) in allocation.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                // The whole determinism contract in one line: the lane is
                // addressed by content (seed, plan key, batch, term) and
                // nothing else. `root` only saves recomputing the seed's
                // round keys per lane.
                let mut lane = root.derive(&[batch, term as u64]);
                seq.record(term, samplers[term].sample_observable_sum(n, &mut lane), n);
            }
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
            clifford_fraction: plan.backend_report().clifford_fraction(),
            backend: plan.backend(),
            compiled_units: plan.backend_report().terms,
            prefix_hits: plan.backend_report().prefix_hits,
            frontier_ops: plan.backend_report().frontier_ops,
            frontier_ops_uncached: plan.backend_report().frontier_ops_uncached,
        }
    }

    /// Runs a fleet of jobs on the work-stealing grid pool
    /// (`threads = 0` ⇒ auto), returning outcomes in submission order.
    /// Each job's result is byte-identical to running it alone through
    /// [`run_job`](Self::run_job).
    pub fn run_jobs(&self, jobs: &[EstimationJob], threads: usize) -> Vec<JobOutcome> {
        let keyed: Vec<KeyedJob> = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| KeyedJob {
                job,
                key: self.planner.plan_key(&job.circuit, &job.observable),
                index,
            })
            .collect();
        ShardedGrid::new(keyed, 0)
            .with_threads(threads)
            .run(|keyed, _ctx| self.run_job(keyed.job))
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
