//! Performance benches for the arbitrary-circuit cut planner
//! (`wirecut::planner`): the cost of planning + compiling a multi-cut
//! execution plan, the cost of sampling from a compiled plan, the
//! cut-count scaling of the contracted fragment-block backend against
//! monolithic stitching, and the wall-clock scaling of the full E17
//! sweep at 1/2/4/8 worker threads.
//!
//! Planning itself (DAG analysis + fragmentation + protocol choice) is
//! microseconds; the dominant costs are term-circuit compilation
//! (`Σ 6^incoming` fragment variants contracted, `Π terms(group)`
//! stitched circuits monolithic) and batched sampling. All workloads
//! derive their circuits from fixed seeds so every run and every thread
//! count measures identical work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use experiments::plan_cut::{self, tractable_random_circuit, PlanCutConfig};
use qpd::Allocator;
use qsim::{Circuit, PauliString};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wirecut::contract::FragmentBlocks;
use wirecut::planner::{CompiledPlan, CutPlanner};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Plan construction alone (fragmentation + cut grouping + protocol
/// choice) on random 6-qubit circuits — the pure planning overhead.
fn plan_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/plan");
    let planner = CutPlanner::new(4).with_overlap(0.8);
    let mut rng = StdRng::seed_from_u64(11);
    let circuits: Vec<_> = (0..32)
        .map(|_| tractable_random_circuit(6, 8, &planner, 4, &mut rng).0)
        .collect();
    group.throughput(Throughput::Elements(circuits.len() as u64));
    group.bench_function("random_6q", |b| {
        b.iter(|| {
            circuits
                .iter()
                .map(|circuit| planner.plan(circuit).kappa())
                .sum::<f64>()
        })
    });
    group.finish();
}

/// Plan compilation: stitching every product term into a branched
/// statevector sampler (the expensive half of `CompiledPlan::compile`).
fn plan_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/compile");
    group.sample_size(10);
    let planner = CutPlanner::new(3).with_overlap(0.8);
    let mut rng = StdRng::seed_from_u64(17);
    let (circuit, plan) = tractable_random_circuit(4, 6, &planner, 3, &mut rng);
    let observable = PauliString::from_label(&"Z".repeat(circuit.num_qubits()));
    group.bench_function("random_4q", |b| {
        b.iter(|| CompiledPlan::compile(&plan, &observable).spec.len())
    });
    group.finish();
}

/// Batched sampling from an already-compiled plan — the steady-state
/// cost of the estimator loop.
fn compiled_plan_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/sample");
    let planner = CutPlanner::new(3).with_overlap(0.8);
    let mut rng = StdRng::seed_from_u64(17);
    let (circuit, plan) = tractable_random_circuit(4, 6, &planner, 3, &mut rng);
    let observable = PauliString::from_label(&"Z".repeat(circuit.num_qubits()));
    let compiled = CompiledPlan::compile(&plan, &observable);
    let shots = 4096u64;
    group.throughput(Throughput::Elements(shots));
    group.bench_function("4096_shots", |b| {
        let mut rng = StdRng::seed_from_u64(23);
        b.iter(|| {
            qpd::estimate_allocated(
                &compiled.spec,
                compiled.plan_terms(),
                shots,
                Allocator::Proportional,
                &mut rng,
            )
        })
    });
    group.finish();
}

/// Compilation cost vs cut count, contracted fragment blocks against
/// monolithic stitching, plus the prefix-cache payoff on the term
/// sweep. A CX ladder on `k + 2` qubits planned at width budget 2
/// yields exactly `k` single-wire NME cuts, so the monolithic backend
/// stitches `3^k` product circuits while the contracted backend
/// compiles `Σ 6^incoming` fragment variants (linear in `k` here).
/// Monolithic is capped at 4 cuts — past that its exponential bill
/// dominates the whole bench run, which is precisely the regression the
/// contracted series guards against. The `sweep_cached` /
/// `sweep_uncached` pair isolates term evaluation over the full `3^k`
/// odometer on prebuilt fragment blocks: cached rides the prefix stack
/// (amortized one fused multiplication per term), uncached re-contracts
/// every frontier from scratch — the `perf-diff` series that tracks the
/// cache payoff on every PR. `walk` is the compile path's walk of the
/// same odometer (`FragmentBlocks::walk`): the cached sweep's ops and
/// values, without a pick per term, expanded a whole level at a time
/// below the first level whose subtree fits the walk's level budget.
/// `contracted` and `walk` also run at 10 cuts (3¹⁰ terms), where the
/// walk descends three levels depth first before its subtrees fit.
fn cut_count_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/cut_scaling");
    group.sample_size(10);
    let planner = CutPlanner::new(2).with_overlap(0.8);
    for cuts in (1..=8usize).chain([10]) {
        let n = cuts + 2;
        let mut circuit = Circuit::new(n, 0);
        circuit.ry(0.4, 0);
        for q in 0..n - 1 {
            circuit.cx(q, q + 1);
        }
        let plan = planner.plan(&circuit);
        assert_eq!(plan.num_cuts(), cuts, "ladder plan shape drifted");
        let observable = PauliString::from_label(&"Z".repeat(n));
        group.bench_with_input(BenchmarkId::new("contracted", cuts), &plan, |b, plan| {
            b.iter(|| CompiledPlan::compile(plan, &observable).spec.len())
        });
        let blocks = FragmentBlocks::build(&plan, &observable);
        group.bench_function(BenchmarkId::new("walk", cuts), |b| {
            b.iter(|| {
                let mut sum = 0.0;
                blocks.walk(|v| sum += v);
                sum
            })
        });
        if cuts > 8 {
            continue;
        }
        if cuts <= 4 {
            group.bench_with_input(BenchmarkId::new("monolithic", cuts), &plan, |b, plan| {
                b.iter(|| {
                    CompiledPlan::compile_monolithic(plan, &observable)
                        .spec
                        .len()
                })
            });
        }
        let lens = blocks.group_lens();
        let total: usize = lens.iter().product();
        let picks: Vec<Vec<usize>> = (0..total)
            .map(|combo| {
                let mut rem = combo;
                let mut pick = vec![0usize; lens.len()];
                for g in (0..lens.len()).rev() {
                    pick[g] = rem % lens[g];
                    rem /= lens[g];
                }
                pick
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("sweep_cached", cuts),
            &picks,
            |b, picks| {
                b.iter(|| {
                    let mut sweep = blocks.sweep();
                    picks.iter().map(|p| sweep.term_value(p)).sum::<f64>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sweep_uncached", cuts),
            &picks,
            |b, picks| b.iter(|| picks.iter().map(|p| blocks.term_value(p)).sum::<f64>()),
        );
    }
    group.finish();
}

/// The full E17 planner sweep per worker count — plan + compile +
/// sample across the (overlap, circuit) grid, byte-identical output at
/// every thread count so the timings are directly comparable.
fn plan_cut_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/e17_sweep");
    group.sample_size(10);
    for &threads in &THREADS {
        let config = PlanCutConfig {
            overlaps: vec![0.52, 0.75, 1.0],
            num_circuits: 4,
            repetitions: 8,
            threads,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &config,
            |b, config| {
                b.iter(|| plan_cut::run(config));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    plan_construction,
    plan_compilation,
    compiled_plan_sampling,
    cut_count_scaling,
    plan_cut_sweep
);
criterion_main!(benches);
