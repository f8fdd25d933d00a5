//! End-to-end suite for the cutting-as-a-service layer
//! (`wirecut::service`), pinning the ISSUE's acceptance criteria:
//!
//! * job results are **byte-identical** for a fixed `(seed, plan)`
//!   across thread counts ∈ {1, 2, 7} and across cold vs warm plan
//!   cache, solo or in a fleet, whether or not a fleet job repeats the
//!   request before it (and so reuses that job's plan);
//! * sequential (variance-adaptive) allocation realises **no more
//!   estimator variance** than the static proportional split on an
//!   asymmetric-σ workload at equal total shots;
//! * the compiled-plan cache dedupes by content, tells apart requests
//!   that differ in a single bit, and the streamed batch partials are
//!   consistent with the final outcome;
//! * `PlanKey` values, every job's RNG stream id, are pinned;
//! * `run_job` follows the documented lane law bit for bit: a batch loop
//!   rebuilt from public calls reproduces it.

use nme_wire_cutting::experiments::service_load::{build_jobs, ServiceLoadConfig};
use nme_wire_cutting::qpd::{Allocator, SequentialAllocator};
use nme_wire_cutting::qsample::{KeyHasher, StreamRng};
use nme_wire_cutting::qsim::{Circuit, PauliString};
use nme_wire_cutting::wirecut::planner::CutPlanner;
use nme_wire_cutting::wirecut::service::{
    AllocationMode, BatchUpdate, CutService, EstimationJob, JobOutcome,
};

const MODES: [AllocationMode; 3] = [
    AllocationMode::StaticProportional,
    AllocationMode::StaticUniform,
    AllocationMode::Sequential,
];

/// A near-classical ladder: one wire cut, three NME terms.
fn ladder() -> Circuit {
    let mut c = Circuit::new(3, 0);
    c.x(0);
    c.ry(0.25, 0);
    c.cx(0, 1);
    c.ry(0.15, 1);
    c.cx(1, 2);
    c
}

/// A 4-qubit chain whose plan has two cut groups (9 product terms) with
/// strongly **asymmetric** per-term σ (≈ 0.30 to ≈ 1.00 at overlap
/// 0.55): near-classical stretches make some stitched terms almost
/// deterministic while the basis-rotated terms stay maximally noisy —
/// the regime sequential allocation exists for.
fn asymmetric_circuit() -> Circuit {
    let mut c = Circuit::new(4, 0);
    c.x(0);
    c.ry(0.3, 1);
    c.cx(0, 1);
    c.cx(1, 2);
    c.ry(0.2, 2);
    c.cx(2, 3);
    c
}

fn fleet_jobs() -> Vec<EstimationJob> {
    let obs3 = PauliString::from_label("ZZZ");
    let obs4 = PauliString::from_label("ZZZZ");
    let mut jobs = Vec::new();
    for seed in 0..4u64 {
        for mode in [
            AllocationMode::StaticProportional,
            AllocationMode::StaticUniform,
            AllocationMode::Sequential,
        ] {
            jobs.push(
                EstimationJob::new(ladder(), obs3.clone(), 1000, seed)
                    .with_batches(3)
                    .with_mode(mode),
            );
            jobs.push(
                EstimationJob::new(asymmetric_circuit(), obs4.clone(), 1000, seed)
                    .with_batches(3)
                    .with_mode(mode),
            );
        }
    }
    jobs
}

fn service() -> CutService {
    CutService::new(CutPlanner::new(2).with_overlap(0.8))
}

#[test]
fn job_results_are_byte_identical_across_threads_and_cache_state() {
    // `fleet_jobs()` alternates two circuits, so a `run_jobs` worker never
    // sees a job repeat the request before it; grouped by circuit, nearly
    // every job does, and reuses its predecessor's plan.
    let alternating = fleet_jobs();
    let grouped: Vec<EstimationJob> = alternating
        .iter()
        .step_by(2)
        .chain(alternating.iter().skip(1).step_by(2))
        .cloned()
        .collect();
    for jobs in [alternating, grouped] {
        // Reference: every job solo on its own cold service.
        let reference: Vec<_> = jobs.iter().map(|j| service().run_job(j)).collect();
        // One shared, progressively warming service must reproduce the bits
        // at every thread count; then once more fully warm.
        let shared = service();
        for threads in [1usize, 2, 7] {
            let fleet = shared.run_jobs(&jobs, threads);
            for (r, f) in reference.iter().zip(fleet.iter()) {
                assert_eq!(
                    r.estimate.to_bits(),
                    f.estimate.to_bits(),
                    "estimate differs at {threads} threads"
                );
                assert_eq!(r.updates, f.updates, "partials differ at {threads} threads");
                assert_eq!(r.allocation, f.allocation);
                assert_eq!(r.plan_key, f.plan_key);
            }
        }
        let (hits, _) = shared.cache_stats();
        assert!(hits > 0, "warm passes should have hit the cache");
        // Two distinct plans across the whole fleet.
        assert_eq!(shared.cache_len(), 2);
    }
}

#[test]
fn sequential_variance_beats_static_proportional_on_asymmetric_workload() {
    let svc = CutService::new(CutPlanner::new(2).with_overlap(0.55));
    let obs = PauliString::from_label("ZZZZ");
    let circuit = asymmetric_circuit();
    let shots = 1600u64;
    let reps = 2000u64;
    let run = |mode: AllocationMode| -> (f64, f64) {
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for seed in 0..reps {
            let out = svc.run_job(
                &EstimationJob::new(circuit.clone(), obs.clone(), shots, seed)
                    .with_batches(4)
                    .with_mode(mode),
            );
            assert_eq!(out.allocation.iter().sum::<u64>(), shots, "equal budgets");
            sum += out.estimate;
            sumsq += out.estimate * out.estimate;
        }
        let n = reps as f64;
        (sum / n, (sumsq - sum * sum / n) / (n - 1.0))
    };
    let (mean_static, var_static) = run(AllocationMode::StaticProportional);
    let (mean_seq, var_seq) = run(AllocationMode::Sequential);
    // Both unbiased…
    let exact = svc.compiled(&circuit, &obs).0.exact_value();
    let se = (var_static / reps as f64).sqrt();
    assert!(
        (mean_static - exact).abs() < 5.0 * se,
        "static biased: {mean_static} vs {exact}"
    );
    assert!(
        (mean_seq - exact).abs() < 5.0 * se,
        "sequential biased: {mean_seq} vs {exact}"
    );
    // …and sequential realises strictly less variance here (the
    // measured ratio is ≈ 0.89 through the contracted backend;
    // everything is deterministic, so this is a fixed number, not a
    // flaky statistic — 2000 repetitions keep it clear of the
    // variance-estimator noise floor that a draw-sequence change could
    // otherwise flip).
    assert!(
        var_seq < var_static,
        "sequential variance {var_seq} not below static {var_static}"
    );
}

#[test]
fn cold_and_warm_cache_serve_identical_bits() {
    let job = EstimationJob::new(ladder(), PauliString::from_label("ZZZ"), 2000, 99);
    let svc = service();
    let cold = svc.run_job(&job);
    assert!(!cold.cache_hit);
    let warm = svc.run_job(&job);
    assert!(warm.cache_hit);
    assert_eq!(cold.estimate.to_bits(), warm.estimate.to_bits());
    assert_eq!(cold.updates, warm.updates);
    // Clearing the cache forces recompilation — still the same bits.
    svc.clear_cache();
    let recompiled = svc.run_job(&job);
    assert!(!recompiled.cache_hit);
    assert_eq!(cold.estimate.to_bits(), recompiled.estimate.to_bits());
}

#[test]
fn streamed_partials_are_consistent_with_the_outcome() {
    let svc = service();
    let job = EstimationJob::new(ladder(), PauliString::from_label("ZZZ"), 1500, 5).with_batches(4);
    let mut streamed = Vec::new();
    let out = svc.run_job_with(&job, |u| streamed.push(*u));
    assert_eq!(streamed, out.updates);
    assert_eq!(out.updates.len(), 4);
    assert_eq!(out.updates.iter().map(|u| u.shots_used).sum::<u64>(), 1500);
    assert_eq!(
        out.updates.last().unwrap().estimate.to_bits(),
        out.estimate.to_bits()
    );
    // Partials tighten toward exact as the budget accumulates: the last
    // partial must not be the worst of the stream.
    let errs: Vec<f64> = out
        .updates
        .iter()
        .map(|u| (u.estimate - out.exact).abs())
        .collect();
    let worst = errs.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        errs.last().unwrap() <= &worst,
        "final partial is the worst estimate: {errs:?}"
    );
}

/// A 10-qubit ry/CX ladder with fixed angles: rung by rung, each wire
/// gets an `ry` before and after its CX, so width-2 packing yields nine
/// two-qubit fragments joined by eight NME cuts (3⁸ = 6561 terms).
fn golden_ladder() -> Circuit {
    let n = 10;
    let angle = |i: usize| 0.17 + 0.29 * i as f64;
    let mut c = Circuit::new(n, 0);
    c.ry(angle(0), 0);
    for q in 0..n - 1 {
        c.ry(angle(2 * q + 1), q + 1);
        c.cx(q, q + 1);
        c.ry(angle(2 * q + 2), q + 1);
    }
    c
}

#[test]
fn golden_cold_job_is_pinned_bit_for_bit() {
    // One cold 8-cut job (f = 0.9, κ ≈ 4.98) pinned to exact bits. Plan
    // compilation (product spec, fragment blocks, group transfers, the
    // odometer sweep) and shot allocation (largest remainder inside
    // sequential Neyman) all feed these three words, so a speed-up in
    // any of them must leave the bits where they are.
    let svc = CutService::new(CutPlanner::new(2).with_overlap(0.9));
    let observable = PauliString::from_label(&"Z".repeat(10));
    let job = EstimationJob::new(golden_ladder(), observable, 1 << 16, 0x601D)
        .with_batches(4)
        .with_mode(AllocationMode::Sequential);
    let out = svc.run_job(&job);
    assert!(!out.cache_hit);
    assert_eq!(out.allocation.len(), 6561);
    assert_eq!(out.allocation.iter().sum::<u64>(), 1 << 16);
    let mut h = KeyHasher::new();
    for &n in &out.allocation {
        h.absorb(n);
    }
    // estimate ≈ 0.142604, exact ≈ 0.146570.
    assert_eq!(out.estimate.to_bits(), 0x3fc2_40d6_4752_6a24);
    assert_eq!(out.exact.to_bits(), 0x3fc2_c2d0_4f3b_e419);
    assert_eq!(h.finish(), 0x4f34_5efa_a224_bd4f);
}

#[test]
fn plan_keys_are_pinned() {
    // The plan key is every job's RNG stream id, so these values pin the
    // golden cold job's lanes and the E18 fleet's.
    let planner = CutPlanner::new(2).with_overlap(0.9);
    let observable = PauliString::from_label(&"Z".repeat(10));
    assert_eq!(
        planner.plan_key(&golden_ladder(), &observable).0,
        0xbc39_deaf_62e7_587f
    );
    let config = ServiceLoadConfig::default();
    let planner = CutPlanner::new(config.width_budget).with_overlap(config.overlap);
    let e18 = build_jobs(&config).swap_remove(0);
    assert_eq!(
        planner.plan_key(&e18.circuit, &e18.observable).0,
        0x4d73_5e0f_d0ce_c2d6
    );
}

/// The 3-qubit ladder with its second `ry` angle set to `theta`; its
/// `⟨Z⟩` on wire 1 moves with `theta`.
fn ladder_at(theta: f64) -> Circuit {
    let mut c = Circuit::new(3, 0);
    c.x(0);
    c.ry(0.25, 0);
    c.cx(0, 1);
    c.ry(theta, 1);
    c.cx(1, 2);
    c
}

#[test]
fn the_cache_tells_apart_circuits_one_bit_apart() {
    let obs = PauliString::from_label("IZI");
    let theta = 2.0f64;
    let next = f64::from_bits(theta.to_bits() + 1);
    let svc = service();
    let a = svc.run_job(&EstimationJob::new(ladder_at(theta), obs.clone(), 1000, 3));
    let b = svc.run_job(&EstimationJob::new(ladder_at(next), obs.clone(), 1000, 3));
    assert!(!a.cache_hit && !b.cache_hit, "one bit apart must miss");
    assert_eq!(svc.cache_len(), 2);
    assert_ne!(a.plan_key, b.plan_key);
    // Each job got its own plan: the one a fresh service compiles for it.
    for (theta, out) in [(theta, &a), (next, &b)] {
        let fresh = service().run_job(&EstimationJob::new(ladder_at(theta), obs.clone(), 1000, 3));
        assert_eq!(out.exact.to_bits(), fresh.exact.to_bits());
        assert_eq!(out.estimate.to_bits(), fresh.estimate.to_bits());
        assert_eq!(out.plan_key, fresh.plan_key);
    }
    assert_ne!(a.exact.to_bits(), b.exact.to_bits());
    // `-0.0` and `+0.0` name the same plan.
    let svc = service();
    let plus = svc.run_job(&EstimationJob::new(ladder_at(0.0), obs.clone(), 1000, 3));
    let minus = svc.run_job(&EstimationJob::new(ladder_at(-0.0), obs.clone(), 1000, 3));
    assert!(!plus.cache_hit && minus.cache_hit);
    assert_eq!(svc.cache_len(), 1);
    assert_eq!(plus.plan_key, minus.plan_key);
    assert_eq!(plus.estimate.to_bits(), minus.estimate.to_bits());
    // Both pairs again as adjacent jobs of one fleet, where a worker
    // compares each job's request with the one before it.
    let job = |theta: f64| EstimationJob::new(ladder_at(theta), obs.clone(), 1000, 3);
    for threads in [1, 2] {
        let svc = service();
        let fleet = svc.run_jobs(&[job(theta), job(next)], threads);
        assert_eq!(svc.cache_len(), 2, "one bit apart at {threads} threads");
        assert_ne!(fleet[0].plan_key, fleet[1].plan_key);
        for (out, solo) in fleet.iter().zip([&a, &b]) {
            assert_eq!(out.plan_key, solo.plan_key);
            assert_eq!(out.exact.to_bits(), solo.exact.to_bits());
            assert_eq!(out.estimate.to_bits(), solo.estimate.to_bits());
        }
        let svc = service();
        let fleet = svc.run_jobs(&[job(0.0), job(-0.0)], threads);
        assert_eq!(svc.cache_len(), 1, "±0.0 at {threads} threads");
        for out in &fleet {
            assert_eq!(out.plan_key, plus.plan_key);
            assert_eq!(out.estimate.to_bits(), plus.estimate.to_bits());
        }
    }
}

/// `run_job`'s batch loop rebuilt from public calls, with the module
/// docs' lane law spelled out: every `(batch, term)` lane is a fresh
/// `StreamRng::new(seed, plan_key).derive(&[batch, term])`. It walks
/// every batch, empty ones included. Returns the estimate, the streamed
/// updates and the pooled allocation.
fn replay_lane_law(svc: &CutService, job: &EstimationJob) -> (f64, Vec<BatchUpdate>, Vec<u64>) {
    let (plan, key, _) = svc.compiled(&job.circuit, &job.observable);
    let samplers = plan.samplers();
    let mut seq = SequentialAllocator::new(plan.spec.len());
    let mut updates = Vec::new();
    let per_batch = job.shots / job.batches;
    for batch in 0..job.batches {
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
            if n > 0 {
                let mut lane = StreamRng::new(job.seed, key.0).derive(&[batch, term as u64]);
                seq.record(term, samplers[term].sample_observable_sum(n, &mut lane), n);
            }
        }
        updates.push(BatchUpdate {
            batch,
            shots_used: budget,
            estimate: seq.estimate(&plan.spec),
        });
    }
    let allocation = (0..plan.spec.len()).map(|i| seq.count(i)).collect();
    (
        updates.last().map_or(0.0, |u| u.estimate),
        updates,
        allocation,
    )
}

fn assert_follows_the_lane_law(svc: &CutService, job: &EstimationJob, out: &JobOutcome) {
    let (estimate, updates, allocation) = replay_lane_law(svc, job);
    let what = format!(
        "{:?}, {} shots in {} batches",
        job.mode, job.shots, job.batches
    );
    assert_eq!(out.estimate.to_bits(), estimate.to_bits(), "{what}");
    assert_eq!(out.updates.len(), updates.len(), "{what}");
    for (a, b) in out.updates.iter().zip(&updates) {
        assert_eq!(
            (a.batch, a.shots_used, a.estimate.to_bits()),
            (b.batch, b.shots_used, b.estimate.to_bits()),
            "{what}"
        );
    }
    assert_eq!(out.allocation, allocation, "{what}");
}

/// The 6-cut `perf_planner/cut_scaling` ladder: 8 qubits at width 2,
/// six single-wire NME cuts, 3⁶ = 729 product terms.
fn six_cut_ladder() -> Circuit {
    let mut c = Circuit::new(8, 0);
    c.ry(0.4, 0);
    for q in 0..7 {
        c.cx(q, q + 1);
    }
    c
}

/// The plan shapes the contraction once left to stitching, each with the
/// planner that plans it so: a clbit shared between fragments
/// (cross-fragment feed-forward) at width 2, and a 3-qubit ladder with
/// nothing to cut at width 3.
fn fallback_requests() -> [(CutPlanner, Circuit, PauliString); 2] {
    let mut ff = Circuit::new(3, 1);
    ff.ry(0.4, 0).cx(0, 1).measure(1, 0).cx(1, 2).x_if(2, 0);
    let mut uncut = Circuit::new(3, 0);
    uncut.ry(0.4, 0).cx(0, 1).cx(1, 2);
    [
        (CutPlanner::new(2), ff, PauliString::from_label("ZZI")),
        (CutPlanner::new(3), uncut, PauliString::from_label("ZZZ")),
    ]
}

#[test]
fn run_job_follows_the_lane_law_bit_for_bit() {
    // A cold 6-cut ladder, its budget above and below the term count,
    // and with far fewer shots than batches.
    let svc = CutService::new(CutPlanner::new(2).with_overlap(0.8));
    let observable = PauliString::from_label(&"Z".repeat(8));
    for mode in MODES {
        for (shots, batches) in [(5000, 3), (500, 2), (10, 1000)] {
            svc.clear_cache();
            let job = EstimationJob::new(six_cut_ladder(), observable.clone(), shots, 0x1A9E)
                .with_batches(batches)
                .with_mode(mode);
            let out = svc.run_job(&job);
            assert!(!out.cache_hit);
            assert_eq!(out.allocation.len(), 729);
            assert_eq!(out.allocation.iter().sum::<u64>(), shots);
            assert_follows_the_lane_law(&svc, &job, &out);
        }
    }
    // Classical-axis and uncut plans draw from the same law on the same
    // lanes.
    for (planner, circuit, observable) in fallback_requests() {
        let svc = CutService::new(planner);
        for mode in MODES {
            for (shots, batches) in [(5000, 3), (10, 1000)] {
                svc.clear_cache();
                let job = EstimationJob::new(circuit.clone(), observable.clone(), shots, 0x1A9E)
                    .with_batches(batches)
                    .with_mode(mode);
                let out = svc.run_job(&job);
                assert!(!out.cache_hit);
                assert_follows_the_lane_law(&svc, &job, &out);
            }
        }
    }
    // Warm E18 plans: the service-load fleet's first circuit, served
    // from the cache after one cold run.
    let config = ServiceLoadConfig::default();
    let svc = CutService::new(CutPlanner::new(config.width_budget).with_overlap(config.overlap));
    let e18 = build_jobs(&config).swap_remove(0);
    svc.run_job(&e18);
    for mode in MODES {
        for batches in [config.batches, 3 * config.shots] {
            let job = e18.clone().with_batches(batches).with_mode(mode);
            let out = svc.run_job(&job);
            assert!(out.cache_hit);
            assert_follows_the_lane_law(&svc, &job, &out);
        }
    }
}
