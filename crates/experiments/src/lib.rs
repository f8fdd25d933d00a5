//! # experiments — regenerating every table and figure of the paper
//!
//! One module per experiment in the DESIGN.md index:
//!
//! | module | experiment |
//! |---|---|
//! | [`fig6`] | **E1**: Figure 6 — error vs shots for six entanglement levels |
//! | [`overhead`] | **E2**: Theorem 1/Corollary 1 — γ theory vs construction vs measurement |
//! | [`tables`] | **E3/E4/E6/E7**: closed-form verification tables |
//! | [`teleport_channel`] | **E5**: Eq. 22/59 channel tomography |
//! | [`allocation`] | **E8**: shot-allocation ablation |
//! | [`multicut`] | **E9**: multi-wire scaling extension |
//! | [`werner`] | **E10**: mixed (Werner) resource extension |
//! | [`joint_cut`] | **E11**: joint multi-wire cutting (κ = 2^{n+1}−1) |
//! | [`noise`] | **E12**: wire cutting under gate-level depolarising noise |
//! | [`joint_scaling`] | **E13**: joint-vs-independent κ crossover map + NME joint exploration |
//! | [`werner_sweep`] | **E15**: full Werner p-sweep with confidence bands vs the Theorem 1 bound |
//! | [`distill_cut`] | **E16**: distill-then-cut (p, m) map — where recurrence distillation closes the κ-vs-γ gap |
//! | [`plan_cut`] | **E17**: arbitrary-circuit cut-planner sweep — multi-fragment plans vs uncut statevector |
//! | [`service_load`] | **E18**: cutting-as-a-service load — plan-cache reuse + sequential vs static allocation variance |
//!
//! Infrastructure: every sweep runs on [`qsample::grid`] (the
//! configuration-grid sharding engine: work-stealing over whole
//! configurations with per-shard counter-based RNG streams and
//! deterministic grid-order output, and the default worker count);
//! [`stats`] (Welford accumulators, Wilson intervals), [`csvout`]
//! (CSV/pretty tables into `results/`).
//!
//! Each experiment has a matching binary (`cargo run --release -p
//! experiments --bin <name>`) and a criterion bench in the `bench` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod csvout;
pub mod distill_cut;
pub mod fig6;
pub mod joint_cut;
pub mod joint_scaling;
pub mod multicut;
pub mod noise;
pub mod overhead;
pub mod plan_cut;
pub mod service_load;
pub mod stats;
pub mod tables;
pub mod teleport_channel;
pub mod werner;
pub mod werner_sweep;

pub use csvout::{results_dir, Table};
pub use stats::RunningStats;

/// Parses the shared `--threads N` CLI flag used by the experiment
/// binaries (0 or absent = auto), warning on a malformed value instead
/// of silently falling back.
pub fn threads_flag(args: &[String]) -> usize {
    match args.iter().position(|a| a == "--threads") {
        None => 0,
        Some(i) => match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(n)) => n,
            _ => {
                eprintln!("warning: --threads expects a worker count (0 = auto); using auto");
                0
            }
        },
    }
}
