//! Performance benches for the cutting-as-a-service layer
//! (`wirecut::service::CutService`): compiled-plan cache payoff, the
//! warm-job layers (`PlanKey` hashing, the cache lookup, a warm fleet)
//! and job fleet throughput at 1/2/4/8 worker threads.
//!
//! The cache group is the ISSUE's headline number: submitting a job whose
//! plan is already compiled must be **≥ 10× faster** than submitting it
//! to a cold service, because the cold path re-runs the cut planner and
//! fragment compilation while the warm path only samples. Both paths
//! produce byte-identical results (the service determinism contract), so
//! the timings compare like for like.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use experiments::service_load::{build_jobs, ServiceLoadConfig};
use qsim::{Circuit, PauliString};
use wirecut::planner::CutPlanner;
use wirecut::service::{CutService, EstimationJob};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn planner() -> CutPlanner {
    CutPlanner::new(2).with_overlap(0.8)
}

fn chain_circuit() -> Circuit {
    let mut c = Circuit::new(4, 0);
    c.x(0);
    c.ry(0.3, 1);
    c.cx(0, 1);
    c.cx(1, 2);
    c.ry(0.2, 2);
    c.cx(2, 3);
    c
}

fn chain_job(shots: u64) -> EstimationJob {
    EstimationJob::new(chain_circuit(), PauliString::from_label("ZZZZ"), shots, 7)
}

/// Cold vs cached plan: the same job against a fresh service (planner +
/// compile + sample every iteration) and against a pre-warmed one
/// (sample only). A tiny shot budget keeps the sampling cost marginal so
/// the gap isolates plan compilation.
fn plan_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_service/plan_cache");
    let job = chain_job(16);
    group.bench_function("cold", |b| {
        b.iter(|| CutService::new(planner()).run_job(&job));
    });
    let warm = CutService::new(planner());
    warm.run_job(&job);
    group.bench_function("cached", |b| {
        b.iter(|| warm.run_job(&job));
    });
    group.finish();
}

/// The layers a warm job pays before sampling, on the first E18 circuit:
/// `PlanKey` hashing alone and a cache hit through `compiled` (which
/// finds the plan by its exact key words, not by the key); then one whole
/// warm E18 fleet (192 jobs) through `run_jobs` at one thread.
fn lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_service/lookup");
    let config = ServiceLoadConfig::default();
    let planner = CutPlanner::new(config.width_budget).with_overlap(config.overlap);
    let jobs = build_jobs(&config);
    let job = &jobs[0];
    let service = CutService::new(planner);
    service.run_jobs(&jobs, 1); // pre-warm the plan cache
    group.bench_function("plan_key", |b| {
        b.iter(|| planner.plan_key(&job.circuit, &job.observable));
    });
    group.bench_function("compiled_hit", |b| {
        b.iter(|| service.compiled(&job.circuit, &job.observable));
    });
    group.throughput(Throughput::Elements(jobs.len() as u64));
    group.bench_function("warm_fleet_1_thread", |b| {
        b.iter(|| service.run_jobs(&jobs, 1));
    });
    group.finish();
}

/// Jobs/second through one shared service: the E18 fleet (many seeds ×
/// two allocation modes over planner-cut random circuits) at each worker
/// count. Plans compile once on first contact; every later job is a
/// cache hit, so this measures scheduler + sampling throughput.
fn fleet_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_service/fleet_throughput");
    group.sample_size(10);
    let config = ServiceLoadConfig {
        num_circuits: 3,
        repetitions: 12,
        shots: 1024,
        ..Default::default()
    };
    let jobs = build_jobs(&config);
    group.throughput(Throughput::Elements(jobs.len() as u64));
    for &threads in &THREADS {
        group.bench_with_input(BenchmarkId::new("threads", threads), &jobs, |b, jobs| {
            let service =
                CutService::new(CutPlanner::new(config.width_budget).with_overlap(config.overlap));
            service.run_jobs(jobs, threads); // pre-warm the plan cache
            b.iter(|| service.run_jobs(jobs, threads));
        });
    }
    group.finish();
}

criterion_group!(benches, plan_cache, lookup, fleet_throughput);
criterion_main!(benches);
