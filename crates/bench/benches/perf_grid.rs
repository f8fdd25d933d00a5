//! Performance benches for the configuration-grid sharding engine
//! (`qsample::grid::ShardedGrid`): wall-clock scaling of whole
//! experiment grids at 1/2/4/8 worker threads.
//!
//! The headline group runs the **joint_scaling crossover workload** (the
//! finite-shot (wires, state, shots) grid behind
//! `joint_scaling_shots.csv`) at each thread count; because every shard
//! derives its randomness from the configuration identity, all thread
//! counts produce byte-identical tables, so the timings are directly
//! comparable. On hardware with ≥ 8 cores the 8-thread point lands ≥ 3×
//! under the 1-thread point (the shards are compute-bound and
//! embarrassingly parallel); on smaller machines the curve flattens at
//! the core count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use experiments::{joint_scaling, werner_sweep};
use qsample::grid::ShardedGrid;
use rand::RngCore;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The joint_scaling finite-shot crossover grid (E13's expensive table)
/// at each worker count.
fn joint_scaling_shots(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_grid/joint_scaling_shots");
    group.sample_size(10);
    for &threads in &THREADS {
        let config = joint_scaling::JointScalingConfig {
            shot_wires: vec![1, 2, 3],
            shot_grid: vec![100, 1_000, 10_000],
            num_states: 6,
            repetitions: 6,
            threads,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &config,
            |b, config| {
                b.iter(|| joint_scaling::shots_table(config));
            },
        );
    }
    group.finish();
}

/// The NME basis-pursuit sweep — strongly heterogeneous shard costs
/// (n = 1 next to n = 3), the work-stealing stress case.
fn joint_scaling_nme(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_grid/joint_scaling_nme");
    group.sample_size(10);
    for &threads in &THREADS {
        let config = joint_scaling::JointScalingConfig {
            nme_max_wires: 3,
            threads,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &config,
            |b, config| {
                b.iter(|| joint_scaling::nme_sweep_table(config));
            },
        );
    }
    group.finish();
}

/// The full-scale E15 Werner p-sweep per thread count (closed-form
/// batched samplers — cheap shards, so this measures engine overhead
/// at fine granularity).
fn werner_sweep_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_grid/werner_sweep");
    group.sample_size(10);
    for &threads in &THREADS {
        let config = werner_sweep::WernerSweepConfig {
            threads,
            ..Default::default()
        };
        let points = (config.p_steps * config.num_states) as u64;
        group.throughput(Throughput::Elements(points));
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &config,
            |b, config| {
                b.iter(|| werner_sweep::run(config));
            },
        );
    }
    group.finish();
}

/// Raw engine overhead: a synthetic grid whose shards do a fixed amount
/// of PRF work, isolating scheduling + stream-derivation cost from
/// experiment physics.
fn engine_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_grid/engine");
    group.sample_size(10);
    let configs: Vec<u64> = (0..512).collect();
    for &threads in &THREADS {
        group.throughput(Throughput::Elements(configs.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    ShardedGrid::new(configs.clone(), 42)
                        .with_threads(threads)
                        .run(|_, ctx| {
                            let rng = ctx.rng();
                            let mut acc = 0u64;
                            for _ in 0..2_000 {
                                acc = acc.wrapping_add(rng.next_u64());
                            }
                            acc
                        })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    joint_scaling_shots,
    joint_scaling_nme,
    werner_sweep_grid,
    engine_overhead
);
criterion_main!(benches);
