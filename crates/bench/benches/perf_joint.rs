//! Performance benches for the joint multi-wire cutting stack: MUB
//! construction, QPD compilation, the batched estimate path across the
//! κ-crossover grid (n = 1..5, shots 10²..10⁵), sparse-vs-dense channel
//! verification, and the NME joint-cut basis-pursuit solve.
//!
//! The `estimate` group *is* the κ-crossover table in time form: for each
//! wire count it runs the joint cut (κ = 2^{n+1}−1) and the independent
//! product cut (κ = 3ⁿ) on the same GHZ-type workload and shot budgets,
//! all through the batched multinomial sampler path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qpd::{estimate_allocated, Allocator};
use qsim::{Circuit, PauliString};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wirecut::joint::JointWireCut;
use wirecut::joint_nme::explore_joint_nme;
use wirecut::mub::mub_bases_fresh;
use wirecut::multi::ParallelWireCut;
use wirecut::{NmeCut, PreparedCut, WireCut};

fn ghz_prep(w: usize) -> Circuit {
    let mut c = Circuit::new(w, 0);
    c.ry(0.9, 0);
    for q in 0..w.saturating_sub(1) {
        c.cx(q, q + 1);
    }
    c
}

fn all_z(w: usize) -> PauliString {
    PauliString::new(vec![qsim::Pauli::Z; w])
}

/// Batched estimation across the κ-crossover grid: joint vs product cuts,
/// n = 1..5 wires, 10²..10⁵ shots (compilation hoisted out of the loop).
fn estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_joint/estimate");
    for n in 1..=5usize {
        let prep = ghz_prep(n);
        let joint = JointWireCut::new(n);
        let compiled_joint =
            PreparedCut::from_terms(joint.spec(), &joint.terms(), &prep, &all_z(n));
        let product = ParallelWireCut::uniform(NmeCut::new(0.0), n);
        let compiled_product =
            PreparedCut::from_terms(product.spec(), &product.terms(), &prep, &all_z(n));
        for &shots in &[100u64, 1_000, 10_000, 100_000] {
            group.throughput(Throughput::Elements(shots));
            group.bench_with_input(
                BenchmarkId::new(format!("joint/n{n}"), shots),
                &shots,
                |b, &shots| {
                    let mut rng = StdRng::seed_from_u64(13);
                    b.iter(|| {
                        estimate_allocated(
                            &compiled_joint.spec,
                            &compiled_joint.terms,
                            shots,
                            Allocator::Proportional,
                            &mut rng,
                        )
                    });
                },
            );
            // The 3ⁿ-term product decomposition explodes combinatorially;
            // keep the head-to-head to the practical range.
            if n <= 3 {
                group.bench_with_input(
                    BenchmarkId::new(format!("product/n{n}"), shots),
                    &shots,
                    |b, &shots| {
                        let mut rng = StdRng::seed_from_u64(13);
                        b.iter(|| {
                            estimate_allocated(
                                &compiled_product.spec,
                                &compiled_product.terms,
                                shots,
                                Allocator::Proportional,
                                &mut rng,
                            )
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

/// Branch-tree compilation of the full joint-cut QPD.
fn compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_joint/compile");
    for n in 1..=3usize {
        let prep = ghz_prep(n);
        let joint = JointWireCut::new(n);
        let spec = joint.spec();
        let terms = joint.terms();
        group.bench_with_input(BenchmarkId::new("joint", n), &n, |b, _| {
            b.iter(|| PreparedCut::from_terms(spec.clone(), &terms, &prep, &all_z(n)));
        });
    }
    group.finish();
}

/// Galois-field MUB-set construction (uncached path; production calls hit
/// the per-n memo).
fn mub_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_joint/mub_construction");
    for n in 2..=5usize {
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, &n| {
            b.iter(|| mub_bases_fresh(n));
        });
    }
    group.finish();
}

/// Sparse per-term Kraus verification vs the dense superoperator
/// tomography it replaced (dense only runs at n = 2 — it is already
/// ~10³× slower there and grows as 2^{4n}).
fn verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_joint/verify");
    for n in 2..=4usize {
        let cut = JointWireCut::new(n);
        group.bench_with_input(BenchmarkId::new("sparse", n), &n, |b, _| {
            b.iter(|| cut.verify_deviation());
        });
    }
    let cut = JointWireCut::new(2);
    group.bench_with_input(BenchmarkId::new("dense_tomography", 2usize), &2, |b, _| {
        b.iter(|| wirecut::identity_distance(&cut));
    });
    group.finish();
}

/// The NME joint-cut basis-pursuit solve (Pauli-transfer eigenvalues +
/// IRLS + support shrink).
fn nme_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_joint/nme_solve");
    for n in 1..=3usize {
        group.bench_with_input(BenchmarkId::new("explore", n), &n, |b, &n| {
            b.iter(|| explore_joint_nme(n, 0.7));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    estimate,
    compile,
    mub_construction,
    verification,
    nme_solve
);
criterion_main!(benches);
