//! Performance microbenches for the QPD sampling stack: per-shot against
//! batched term draws, the estimators, the checkpointed sweep, cut
//! compilation and one batch of a cut plan's term draws.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qpd::{
    estimate_allocated, estimate_stochastic, proportional_sweep, Allocator, BernoulliTerm,
    SequentialAllocator, TermSampler,
};
use qsample::StreamRng;
use qsim::{Circuit, Pauli, PauliString};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wirecut::planner::{CompiledPlan, CutPlanner};
use wirecut::{NmeCut, PreparedCut};

fn prepared_cut() -> PreparedCut {
    let mut rng = StdRng::seed_from_u64(3);
    let w = qsim::haar_unitary(2, &mut rng);
    PreparedCut::new(&NmeCut::new(0.5), &w, Pauli::Z)
}

/// Wrapper hiding a term's batched `sample_observable_sum` override, so
/// the estimator falls back to the per-shot default — the pre-batching
/// baseline the `shot_sampling` group compares against.
struct PerShotOnly(BernoulliTerm);

impl TermSampler for PerShotOnly {
    fn sample_observable(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.0.sample_observable(rng)
    }

    fn exact_expectation(&self) -> f64 {
        self.0.exact_expectation()
    }
}

/// Head-to-head of the two sampling paths on the paper's Figure 6
/// workload (NME cut of a Haar-random single-qubit wire, proportional
/// allocation): identical estimates in distribution, ≥10× throughput for
/// the batched path at 10⁴ shots is this workspace's ROADMAP target.
fn shot_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("shot_sampling");
    let prepared = prepared_cut();
    let per_shot: Vec<PerShotOnly> = prepared.terms.iter().map(|&t| PerShotOnly(t)).collect();
    for &shots in &[1000u64, 10_000, 100_000] {
        group.throughput(Throughput::Elements(shots));
        group.bench_with_input(BenchmarkId::new("per_shot", shots), &shots, |b, &shots| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                estimate_allocated(
                    &prepared.spec,
                    &per_shot,
                    shots,
                    Allocator::Proportional,
                    &mut rng,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", shots), &shots, |b, &shots| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                estimate_allocated(
                    &prepared.spec,
                    &prepared.terms,
                    shots,
                    Allocator::Proportional,
                    &mut rng,
                )
            });
        });
    }
    group.finish();
}

fn estimator_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("qpd/shots");
    let prepared = prepared_cut();
    for &shots in &[1000u64, 10_000] {
        group.throughput(Throughput::Elements(shots));
        group.bench_with_input(
            BenchmarkId::new("proportional", shots),
            &shots,
            |b, &shots| {
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| {
                    estimate_allocated(
                        &prepared.spec,
                        &prepared.terms,
                        shots,
                        Allocator::Proportional,
                        &mut rng,
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("stochastic", shots),
            &shots,
            |b, &shots| {
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| estimate_stochastic(&prepared.spec, &prepared.terms, shots, &mut rng));
            },
        );
    }
    group.finish();
}

fn sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("qpd/sweep");
    let prepared = prepared_cut();
    let checkpoints: Vec<u64> = (1..=20).map(|i| i * 250).collect();
    group.throughput(Throughput::Elements(5000));
    group.bench_function("20_checkpoints_to_5000", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| proportional_sweep(&prepared.spec, &prepared.terms, &checkpoints, &mut rng));
    });
    group.finish();
}

fn cut_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("qpd/compile");
    let mut rng = StdRng::seed_from_u64(13);
    let w = qsim::haar_unitary(2, &mut rng);
    group.bench_function("prepare_nme_cut", |b| {
        b.iter(|| PreparedCut::new(&NmeCut::new(0.5), &w, Pauli::Z));
    });
    group.bench_function("prepare_harada_cut", |b| {
        b.iter(|| PreparedCut::new(&wirecut::HaradaCut, &w, Pauli::Z));
    });
    group.bench_function("prepare_peng_cut", |b| {
        b.iter(|| PreparedCut::new(&wirecut::PengCut, &w, Pauli::Z));
    });
    group.finish();
}

/// A 10-qubit ry/CX ladder planned at width 2 and overlap 0.9: 8 NME
/// cuts and 6561 product terms, the shape of the repository
/// benchmark's cold jobs.
fn ladder_plan() -> CompiledPlan {
    let n = 10;
    let angle = |i: usize| 0.17 + 0.29 * i as f64;
    let mut c = Circuit::new(n, 0);
    c.ry(angle(0), 0);
    for q in 0..n - 1 {
        c.ry(angle(2 * q + 1), q + 1);
        c.cx(q, q + 1);
        c.ry(angle(2 * q + 2), q + 1);
    }
    let plan = CutPlanner::new(2).with_overlap(0.9).plan(&c);
    CompiledPlan::compile(&plan, &PauliString::from_label(&"Z".repeat(n)))
}

/// One batch of a cold job's term draws: the first `Sequential` batch
/// (2¹⁴ shots over all 6561 terms) drawn through the batch kernel
/// (`BernoulliTerm::sample_batch`) and through the per-term
/// `sample_observable_sum` loop on `derive(&[batch, term])` lanes. The
/// two draw the same sums, which the set-up checks.
fn batch_draws(c: &mut Criterion) {
    let mut group = c.benchmark_group("qsample/batch_draws");
    let plan = ladder_plan();
    let terms = plan.plan_terms();
    let shots = SequentialAllocator::new(terms.len()).next_allocation(&plan.spec, 1 << 14);
    let root = StreamRng::new(0x5EED, 0xD1CE);
    let kernel = || {
        let mut total = 0.0;
        BernoulliTerm::sample_batch(terms, &shots, &root.split(0), |_, sum| total += sum);
        total
    };
    let per_term = || {
        let mut total = 0.0;
        for (term, (t, &n)) in terms.iter().zip(&shots).enumerate() {
            if n != 0 {
                total += t.sample_observable_sum(n, &mut root.derive(&[0, term as u64]));
            }
        }
        total
    };
    assert_eq!(kernel().to_bits(), per_term().to_bits());
    group.throughput(Throughput::Elements(terms.len() as u64));
    group.bench_function("kernel", |b| b.iter(kernel));
    group.bench_function("per_term", |b| b.iter(per_term));
    group.finish();
}

criterion_group!(
    benches,
    shot_sampling,
    estimator_modes,
    sweep,
    cut_compilation,
    batch_draws
);
criterion_main!(benches);
