//! Determinism suite for the configuration-grid sharding engine: every
//! migrated experiment must produce **byte-identical** CSV rows for any
//! worker count, the engine must preserve grid order under deliberate
//! completion-order jitter (the regression for the old sort-by-index
//! sink), and the per-shard counter-based RNG streams must be pairwise
//! non-overlapping with statistically sound pooled output.

use nme_wire_cutting::experiments::{
    allocation, distill_cut, fig6, joint_cut, joint_scaling, multicut, noise, overhead, plan_cut,
    service_load, werner, werner_sweep,
};
use nme_wire_cutting::qsample::grid::{GridKey, ShardedGrid};
use nme_wire_cutting::qsample::{stream_block, StreamRng};
use proptest::prelude::*;
use rand::RngCore;

/// The thread counts every experiment is held byte-identical across.
const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 0]; // 0 = default

fn assert_csv_invariant<F: Fn(usize) -> String>(name: &str, run_at: F) {
    let reference = run_at(THREAD_COUNTS[0]);
    assert!(
        reference.lines().count() > 1,
        "{name}: suspiciously empty CSV"
    );
    for &threads in &THREAD_COUNTS[1..] {
        let other = run_at(threads);
        assert_eq!(
            reference, other,
            "{name}: CSV differs between 1 thread and {threads} threads"
        );
    }
}

#[test]
fn fig6_csv_is_thread_count_invariant() {
    assert_csv_invariant("fig6", |threads| {
        fig6::run(&fig6::Fig6Config {
            num_states: 24,
            shot_checkpoints: vec![250, 1000],
            overlaps: vec![0.5, 0.8, 1.0],
            seed: 7,
            threads,
        })
        .to_table()
        .to_csv()
    });
}

#[test]
fn joint_scaling_csvs_are_thread_count_invariant() {
    let cfg = |threads| joint_scaling::JointScalingConfig {
        max_wires: 3,
        nme_max_wires: 2,
        overlaps: vec![0.5, 0.75, 1.0],
        shot_wires: vec![1, 2],
        shot_grid: vec![200, 1600],
        num_states: 4,
        repetitions: 4,
        seed: 11,
        threads,
    };
    assert_csv_invariant("joint_scaling/crossover", |t| {
        joint_scaling::crossover_table(&cfg(t)).to_csv()
    });
    assert_csv_invariant("joint_scaling/nme", |t| {
        joint_scaling::nme_sweep_table(&cfg(t)).to_csv()
    });
    assert_csv_invariant("joint_scaling/shots", |t| {
        joint_scaling::shots_table(&cfg(t)).to_csv()
    });
}

#[test]
fn werner_csv_is_thread_count_invariant() {
    assert_csv_invariant("werner", |threads| {
        werner::run(&werner::WernerConfig {
            p_values: vec![0.5, 0.8, 1.0],
            shots: 600,
            num_states: 5,
            repetitions: 6,
            seed: 2,
            threads,
        })
        .to_csv()
    });
}

#[test]
fn werner_sweep_csv_is_thread_count_invariant() {
    assert_csv_invariant("werner_sweep", |threads| {
        werner_sweep::run(&werner_sweep::WernerSweepConfig {
            p_steps: 6,
            shots: 512,
            num_states: 4,
            repetitions: 10,
            threads,
            ..Default::default()
        })
        .to_csv()
    });
}

#[test]
fn distill_cut_csvs_are_thread_count_invariant() {
    let cfg = |threads| distill_cut::DistillCutConfig {
        p_steps: 4,
        max_rounds: 2,
        shots: 512,
        num_states: 4,
        repetitions: 8,
        threads,
        ..Default::default()
    };
    assert_csv_invariant("distill_cut", |t| distill_cut::run(&cfg(t)).to_csv());
    // The frontier is closed-form, but pin it through the same gate so
    // a future sampling-backed column can't silently regress.
    assert_csv_invariant("distill_cut/frontier", |t| {
        distill_cut::frontier(&cfg(t)).to_csv()
    });
}

#[test]
fn overhead_csv_is_thread_count_invariant() {
    assert_csv_invariant("overhead", |threads| {
        overhead::to_table(&overhead::run(&overhead::OverheadConfig {
            k_values: vec![0.0, 0.5, 1.0],
            shots: 500,
            repetitions: 20,
            num_states: 4,
            seed: 5,
            threads,
        }))
        .to_csv()
    });
}

#[test]
fn allocation_csv_is_thread_count_invariant() {
    assert_csv_invariant("allocation", |threads| {
        allocation::run(&allocation::AllocationConfig {
            overlaps: vec![0.6, 0.9],
            shots: 600,
            num_states: 6,
            repetitions: 6,
            seed: 1,
            threads,
        })
        .to_csv()
    });
}

#[test]
fn multicut_csv_is_thread_count_invariant() {
    assert_csv_invariant("multicut", |threads| {
        multicut::run(&multicut::MultiCutConfig {
            wire_counts: vec![1, 2],
            overlaps: vec![0.5, 1.0],
            shots: 600,
            num_states: 4,
            repetitions: 4,
            seed: 3,
            threads,
        })
        .to_csv()
    });
}

#[test]
fn noise_csv_is_thread_count_invariant() {
    assert_csv_invariant("noise", |threads| {
        noise::run(&noise::NoiseConfig {
            k_values: vec![0.0, 1.0],
            noise_levels: vec![0.0, 0.02],
            shots: 500,
            num_states: 3,
            repetitions: 4,
            seed: 4,
            threads,
        })
        .to_csv()
    });
}

#[test]
fn plan_cut_csv_is_thread_count_invariant() {
    assert_csv_invariant("plan_cut", |threads| {
        plan_cut::run(&plan_cut::PlanCutConfig {
            num_qubits: 3,
            gates: 5,
            width_budget: 2,
            overlaps: vec![0.52, 0.9],
            max_cuts: 2,
            shots: 512,
            num_circuits: 3,
            repetitions: 4,
            seed: 23,
            threads,
            ..Default::default()
        })
        .to_csv()
    });
}

#[test]
fn service_load_csv_is_thread_count_invariant() {
    assert_csv_invariant("service_load", |threads| {
        service_load::run(&service_load::ServiceLoadConfig {
            num_qubits: 3,
            gates: 5,
            width_budget: 2,
            max_cuts: 2,
            num_circuits: 2,
            shots: 512,
            repetitions: 6,
            threads,
            ..Default::default()
        })
        .to_csv()
    });
}

#[test]
fn joint_cut_csv_is_thread_count_invariant() {
    assert_csv_invariant("joint_cut", |threads| {
        joint_cut::run(&joint_cut::JointConfig {
            wire_counts: vec![1, 2],
            shots: 600,
            num_states: 3,
            repetitions: 4,
            seed: 5,
            threads,
        })
        .to_csv()
    });
}

// ---------------------------------------------------------------------
// Ordering-hazard regression: the result sink must be slot-addressed.
// ---------------------------------------------------------------------

/// Deliberate shard jitter: early grid items are slow, late items fast,
/// so *completion* order is roughly the reverse of grid order. An engine
/// that surfaces completion order (the old push-then-sort sink, with the
/// sort removed or keyed wrongly) fails this; the slot-vector sink
/// passes by construction.
#[test]
fn grid_order_survives_reverse_completion_jitter() {
    let n = 40usize;
    let configs: Vec<u64> = (0..n as u64).collect();
    let out = ShardedGrid::new(configs, 0).with_threads(8).run(|&c, _| {
        std::thread::sleep(std::time::Duration::from_micros(300 * (n as u64 - c)));
        c
    });
    assert_eq!(out, (0..n as u64).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------
// Per-shard RNG streams: counter-space disjointness + pooled statistics.
// ---------------------------------------------------------------------

/// The stream ids the engine derives for the real experiment grids must
/// be pairwise distinct: distinct `(seed, stream)` pairs read disjoint
/// counter spaces of the PRF by construction, so pairwise-distinct ids
/// are exactly counter-space disjointness of the shard streams.
#[test]
fn experiment_grid_streams_are_pairwise_disjoint() {
    // The densest grid any experiment builds: the full E15 sweep plus a
    // joint-scaling-shaped (n, f, shots) grid.
    let mut cells: Vec<(f64, u64)> = Vec::new();
    let sweep = werner_sweep::WernerSweepConfig::default();
    for &p in &sweep.p_grid() {
        for s in 0..sweep.num_states as u64 {
            cells.push((p, s));
        }
    }
    let grid = ShardedGrid::new(cells, sweep.seed);
    let ids = grid.stream_ids();
    let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "werner_sweep stream collision");

    // The E16 (p, m, state) grid on top of the same stream space.
    let sweep = distill_cut::DistillCutConfig::default();
    let mut cells: Vec<(f64, u64, u64)> = Vec::new();
    for &p in &sweep.p_grid() {
        for &m in &sweep.m_grid() {
            for s in 0..sweep.num_states as u64 {
                cells.push((p, m as u64, s));
            }
        }
    }
    let ids: Vec<u64> = cells.iter().map(|c| c.grid_key()).collect();
    let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "distill_cut stream collision");

    let joint: Vec<(usize, f64, u64)> = (1..=5usize)
        .flat_map(|n| {
            [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0]
                .into_iter()
                .flat_map(move |f| (0..100u64).map(move |s| (n, f, s)))
        })
        .collect();
    let ids: Vec<u64> = joint.iter().map(|c| c.grid_key()).collect();
    let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "joint grid stream collision");

    // The E17 planner grid: (overlap, circuit) cells plus the shared
    // circuit-lane keys, all in one stream space — no collisions allowed
    // between per-cell streams and the paired circuit streams.
    let sweep = plan_cut::PlanCutConfig::default();
    let mut ids: Vec<u64> = Vec::new();
    for &f in &sweep.overlaps {
        for s in 0..sweep.num_circuits as u64 {
            ids.push((f, s).grid_key());
        }
    }
    for s in 0..sweep.num_circuits as u64 {
        ids.push((0xE17u64, s).grid_key());
    }
    let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "plan_cut stream collision");
}

/// Draws pooled across many shard streams stay uniform: chi-square over
/// 256 top-byte bins at a 5σ threshold.
#[test]
fn pooled_shard_draws_pass_chi_square() {
    let sweep = werner_sweep::WernerSweepConfig::default();
    let mut hist = [0u64; 256];
    let mut total = 0u64;
    for &p in &sweep.p_grid() {
        for s in 0..sweep.num_states as u64 {
            let mut rng = nme_wire_cutting::qsample::grid::keyed_stream(sweep.seed, &(p, s));
            for _ in 0..256 {
                hist[(rng.next_u64() >> 56) as usize] += 1;
                total += 1;
            }
        }
    }
    let expect = total as f64 / 256.0;
    let chi2: f64 = hist
        .iter()
        .map(|&o| (o as f64 - expect) * (o as f64 - expect) / expect)
        .sum();
    let bound = 255.0 + 5.0 * (2.0 * 255.0f64).sqrt();
    assert!(chi2 < bound, "pooled chi2 {chi2} exceeds {bound}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random (seed, stream, stream') with distinct stream ids never
    /// replay each other's sequences, and outputs match the documented
    /// block law.
    #[test]
    fn distinct_streams_never_alias(seed in 0u64..u64::MAX, stream in 0u64..1_000_000) {
        let other = stream.wrapping_add(1);
        let mut a = StreamRng::new(seed, stream);
        let mut b = StreamRng::new(seed, other);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        prop_assert_ne!(&va, &vb);
        for (i, &v) in va.iter().enumerate() {
            prop_assert_eq!(v, stream_block(seed, stream, i as u64));
        }
    }

    /// The engine's output is invariant under any tested thread count
    /// for random synthetic grids (the property behind every CSV test
    /// above, at the engine level).
    #[test]
    fn engine_output_is_thread_invariant(seed in 0u64..u64::MAX, n in 1usize..40) {
        let configs: Vec<u64> = (0..n as u64).collect();
        let reference = ShardedGrid::new(configs.clone(), seed)
            .with_threads(1)
            .run(|&c, ctx| (c, ctx.rng().next_u64()));
        for threads in [2usize, 7] {
            let other = ShardedGrid::new(configs.clone(), seed)
                .with_threads(threads)
                .run(|&c, ctx| (c, ctx.rng().next_u64()));
            prop_assert_eq!(&reference, &other);
        }
    }
}
