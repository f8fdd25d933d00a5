//! The traced run: per-layer numbers, timed from outside the library.
//!
//! No library code is instrumented. For every traced job the run
//!
//! 1. submits the job untraced through `CutService::run_job` — the
//!    reference latency and outcome (on deep_cut against an empty
//!    cache);
//! 2. replays it from public calls — `plan_key`, `plan` and
//!    `CompiledPlan::compile` when cold, `CutService::compiled` when
//!    warm, then `run_job`'s batch loop over `samplers()`, `Allocator` /
//!    `SequentialAllocator` and `StreamRng` lanes — timing each layer
//!    call, and fails the run unless the replay's estimate, updates and
//!    allocation equal `run_job`'s bit for bit;
//! 3. times the layers inside a compile on their own:
//!    `FragmentBlocks::build`, the prefix-cached sweep, and the qsim
//!    variant compile and readout rebuilt from `fragment_circuit`
//!    (on warm_fleet once per cached plan, since its jobs never compile).
//!
//! Per chunk of jobs (four cold jobs, or one warm fleet) it also times
//! `run_jobs` at one thread and at `nproc` threads.
//!
//! Times are means per job (per plan for the compile probes), in µs.
//! `job.unattributed_frac` is one minus the replay's layer sum over the
//! untraced `run_job` latency; `trace.overhead_frac` is the replay's
//! whole wall time over that latency, minus one.

use crate::gate::Gate;
use crate::workload::Setup;
use crate::{Metric, Report};
use qpd::{Allocator, SequentialAllocator};
use qsample::StreamRng;
use qsim::{fragment_circuit, Circuit, CompiledSampler, Pauli, PauliString, StateVector};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wirecut::contract::FragmentBlocks;
use wirecut::planner::{CompiledPlan, CutPlan, PlanKey};
use wirecut::service::{AllocationMode, BatchUpdate, EstimationJob, JobOutcome};

/// Cold jobs per `run_jobs` probe.
const COLD_FLEET: usize = 4;

/// Six Pauli eigenstate preps per incoming cut wire, as the contracted
/// backend compiles them.
const NUM_PREPS: usize = 6;

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Sums and sample counts per quantity.
#[derive(Default)]
struct Sums(BTreeMap<&'static str, (f64, u64)>);

impl Sums {
    fn add(&mut self, name: &'static str, value: f64) {
        let e = self.0.entry(name).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(sum, n)| sum / n as f64)
    }
}

/// `run_job`'s batch loop rebuilt from public calls, with the qpd
/// allocation and qsample sampling layers timed.
struct Replay {
    estimate: f64,
    updates: Vec<BatchUpdate>,
    allocation: Vec<u64>,
    allocate_us: f64,
    sample_us: f64,
    draws: u64,
}

fn replay(plan: &CompiledPlan, key: PlanKey, job: &EstimationJob) -> Replay {
    let samplers = plan.samplers();
    let num_terms = plan.spec.len();
    let mut seq = SequentialAllocator::new(num_terms);
    let mut updates = Vec::with_capacity(job.batches as usize);
    let (mut allocate_us, mut sample_us, mut draws) = (0.0, 0.0, 0);
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
        let t = Instant::now();
        let allocation = match job.mode {
            AllocationMode::StaticProportional => {
                Allocator::Proportional.allocate(&plan.spec, budget)
            }
            AllocationMode::StaticUniform => Allocator::Uniform.allocate(&plan.spec, budget),
            AllocationMode::Sequential => seq.next_allocation(&plan.spec, budget),
        };
        allocate_us += micros(t);
        let t = Instant::now();
        for (term, &n) in allocation.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let mut lane = StreamRng::new(job.seed, key.0).derive(&[batch, term as u64]);
            seq.record(term, samplers[term].sample_observable_sum(n, &mut lane), n);
            draws += 1;
        }
        sample_us += micros(t);
        updates.push(BatchUpdate {
            batch,
            shots_used: budget,
            estimate: seq.estimate(&plan.spec),
        });
    }
    Replay {
        estimate: updates.last().map_or(0.0, |u| u.estimate),
        updates,
        allocation: (0..num_terms).map(|i| seq.count(i)).collect(),
        allocate_us,
        sample_us,
        draws,
    }
}

/// Whether the replay reproduced `run_job`'s outcome bit for bit.
fn replay_matches(out: &JobOutcome, r: &Replay) -> bool {
    out.estimate.to_bits() == r.estimate.to_bits()
        && out.allocation == r.allocation
        && out.updates.len() == r.updates.len()
        && out.updates.iter().zip(&r.updates).all(|(a, b)| {
            a.batch == b.batch
                && a.shots_used == b.shots_used
                && a.estimate.to_bits() == b.estimate.to_bits()
        })
}

/// Times `FragmentBlocks::build` and the odometer sweep of one plan on
/// their own, records its plan-level counts, and checks the swept term
/// values against the compiled plan's.
fn probe_plan(
    plan: &CutPlan,
    observable: &PauliString,
    compiled: &CompiledPlan,
    s: &mut Sums,
) -> Result<(), String> {
    s.add("planner.cuts", plan.num_cuts() as f64);
    s.add("planner.kappa", plan.kappa());
    let t = Instant::now();
    let blocks = FragmentBlocks::build(plan, observable);
    s.add("contract.block_build_us", micros(t));
    let lens = blocks.group_lens();
    let terms: usize = lens.iter().product();
    let mut values = Vec::with_capacity(terms);
    let mut pick = vec![0usize; lens.len()];
    let t = Instant::now();
    let mut sweep = blocks.sweep();
    for _ in 0..terms {
        values.push(sweep.term_value(&pick));
        // Odometer order, last group fastest (`QpdSpec::product`'s order).
        for g in (0..lens.len()).rev() {
            pick[g] += 1;
            if pick[g] < lens[g] {
                break;
            }
            pick[g] = 0;
        }
    }
    s.add("contract.sweep_us", micros(t));
    let stats = sweep.stats();
    s.add("contract.frontier_ops", stats.frontier_ops as f64);
    let touched = (stats.prefix_hits + stats.prefix_rebuilds).max(1);
    s.add(
        "contract.prefix_hit_rate",
        stats.prefix_hits as f64 / touched as f64,
    );
    let variants: usize = blocks.summaries().iter().map(|f| f.variants).sum();
    s.add("contract.variants", variants as f64);
    s.add(
        "contract.nnz",
        blocks.summaries().iter().map(|f| f.nnz).sum::<usize>() as f64,
    );
    s.add("contract.terms", terms as f64);
    let swept_bits = values.iter().map(|v| v.to_bits());
    if !swept_bits.eq(compiled.exact_terms().iter().map(|v| v.to_bits())) {
        return Err("the timed sweep disagrees with the compiled plan's term values".into());
    }
    let rebuilt = probe_qsim(plan, observable, s);
    let report = blocks.backend_report();
    let built = (
        variants,
        report.total_instructions,
        report.clifford_instructions,
    );
    if rebuilt != built {
        return Err(format!(
            "rebuilt qsim variants (count, instructions, Clifford) {rebuilt:?} differ from \
             FragmentBlocks::build's {built:?}"
        ));
    }
    Ok(())
}

/// Rebuilds every eigenstate-prep variant of every fragment from
/// `fragment_circuit`, as the contracted backend compiles them, timing
/// `CompiledSampler::compile` and the leaf `expval_pauli` readout.
/// Returns (variants, instructions, Clifford-prefix instructions).
fn probe_qsim(plan: &CutPlan, observable: &PauliString, s: &mut Sums) -> (usize, usize, usize) {
    let circuit = plan.circuit();
    let (mut compile_us, mut readout_us) = (0.0, 0.0);
    let (mut variants, mut total, mut clifford) = (0, 0, 0);
    for (fi, frag) in plan.fragments.iter().enumerate() {
        let mut local = vec![usize::MAX; circuit.num_qubits()];
        for (i, &w) in frag.wires.iter().enumerate() {
            local[w] = i;
        }
        let width = frag.wires.len().max(1);
        // Cut slots in ascending (group, slot) order, as local qubits.
        let (mut in_q, mut out_q, mut out_wires) = (Vec::new(), Vec::new(), Vec::new());
        for cut in plan.groups.iter().flat_map(|g| &g.cuts) {
            if cut.dest_fragment == fi {
                in_q.push(local[cut.wire]);
            }
            if cut.source_fragment == fi {
                out_q.push(local[cut.wire]);
                out_wires.push(cut.wire);
            }
        }
        let z_locals: Vec<usize> = frag
            .wires
            .iter()
            .filter(|&&w| observable.op(w) == Pauli::Z && !out_wires.contains(&w))
            .map(|&w| local[w])
            .collect();
        let base = fragment_circuit(circuit, frag);
        for v in 0..NUM_PREPS.pow(in_q.len() as u32) {
            let mut c = Circuit::new(width, base.num_clbits());
            let (mut basis_mask, mut rem) = (0usize, v);
            for &q in &in_q {
                let prep = rem % NUM_PREPS;
                rem /= NUM_PREPS;
                if prep % 2 == 1 {
                    basis_mask |= 1 << q;
                }
                if prep >= 2 {
                    c.h(q);
                }
                if prep >= 4 {
                    c.s(q);
                }
            }
            c.compose(&base);
            let input = (basis_mask != 0).then(|| {
                let mut amps = vec![qlinalg::c64(0.0, 0.0); 1 << width];
                amps[basis_mask] = qlinalg::c64(1.0, 0.0);
                StateVector::from_amplitudes(width, amps)
            });
            let t = Instant::now();
            let sampler = CompiledSampler::compile(&c, input.as_ref());
            compile_us += micros(t);
            let prefix = sampler.clifford_prefix();
            variants += 1;
            total += prefix.total;
            clifford += prefix.prefix_len;
            let t = Instant::now();
            for b in 0..1usize << (2 * out_q.len()) {
                let mut ops = vec![Pauli::I; width];
                for &q in &z_locals {
                    ops[q] = Pauli::Z;
                }
                for (i, &q) in out_q.iter().enumerate() {
                    ops[q] = Pauli::from_index((b >> (2 * i)) & 3);
                }
                let o = PauliString::new(ops);
                let value: f64 = sampler
                    .leaves()
                    .iter()
                    .map(|l| l.probability * l.state.expval_pauli(&o))
                    .sum();
                black_box(value);
            }
            readout_us += micros(t);
        }
    }
    s.add("qsim.sampler_compile_us", compile_us);
    s.add("qsim.readout_us", readout_us);
    s.add(
        "qsim.clifford_fraction",
        clifford as f64 / total.max(1) as f64,
    );
    (variants, total, clifford)
}

/// Traces one chunk of jobs; returns the untraced outcomes for the gate.
fn trace_chunk(
    setup: &Setup,
    chunk: &[EstimationJob],
    threads: usize,
    s: &mut Sums,
) -> Result<Vec<JobOutcome>, String> {
    let service = &setup.service;
    let planner = service.planner();
    let cold = setup.workload.is_cold();
    let mut outcomes = Vec::with_capacity(chunk.len());
    for job in chunk {
        let (h0, m0) = service.cache_stats();
        let t = Instant::now();
        let out = service.run_job(job);
        let untraced = micros(t);
        let (h1, m1) = service.cache_stats();
        s.add("service.hits", (h1 - h0) as f64);
        s.add("service.lookups", (h1 - h0 + m1 - m0) as f64);
        s.add("job.untraced_us", untraced);
        let (replayed, layers_us, whole_us, probe) = if cold {
            // A hit on the plan `run_job` just cached, then a cold replay.
            let t = Instant::now();
            let (_, _, hit) = service.compiled(&job.circuit, &job.observable);
            s.add("service.hit_us", micros(t));
            service.clear_cache();
            if !hit {
                return Err("a just-compiled plan missed the cache".into());
            }
            let start = Instant::now();
            let t = Instant::now();
            let key = planner.plan_key(&job.circuit, &job.observable);
            let key_us = micros(t);
            let t = Instant::now();
            let plan = planner.plan(&job.circuit);
            let plan_us = micros(t);
            let t = Instant::now();
            let compiled = CompiledPlan::compile(&plan, &job.observable);
            let compile_us = micros(t);
            let r = replay(&compiled, key, job);
            let whole_us = micros(start);
            s.add("planner.plan_key_us", key_us);
            s.add("planner.plan_us", plan_us);
            s.add("planner.compile_us", compile_us);
            let layers = key_us + plan_us + compile_us + r.allocate_us + r.sample_us;
            (r, layers, whole_us, Some((plan, compiled)))
        } else {
            let t = Instant::now();
            black_box(planner.plan_key(&job.circuit, &job.observable));
            s.add("planner.plan_key_us", micros(t));
            let start = Instant::now();
            let t = Instant::now();
            let (compiled, key, hit) = service.compiled(&job.circuit, &job.observable);
            let hit_us = micros(t);
            let r = replay(&compiled, key, job);
            let whole_us = micros(start);
            if !hit {
                return Err("a warm job missed the plan cache".into());
            }
            s.add("service.hit_us", hit_us);
            let layers = hit_us + r.allocate_us + r.sample_us;
            (r, layers, whole_us, None)
        };
        if !replay_matches(&out, &replayed) {
            return Err(format!(
                "replay of job seed {} differs from run_job",
                job.seed
            ));
        }
        s.add("qpd.allocate_us", replayed.allocate_us);
        s.add("qsample.sample_us", replayed.sample_us);
        s.add("qsample.draws", replayed.draws as f64);
        let unsampled = replayed.allocation.iter().filter(|&&n| n == 0).count();
        s.add(
            "qpd.unsampled_frac",
            unsampled as f64 / replayed.allocation.len() as f64,
        );
        s.add("job.layers_us", layers_us);
        s.add("job.replay_us", whole_us);
        if let Some((plan, compiled)) = probe {
            probe_plan(&plan, &job.observable, &compiled, s)?;
        }
        outcomes.push(out);
    }
    setup.after_call();
    let t = Instant::now();
    let one = service.run_jobs(chunk, 1);
    s.add("fleet.one_us", micros(t));
    setup.after_call();
    let t = Instant::now();
    let many = service.run_jobs(chunk, threads);
    s.add("fleet.many_us", micros(t));
    s.add("fleet.jobs", chunk.len() as f64);
    let same = |fleet: &[JobOutcome]| {
        fleet
            .iter()
            .zip(&outcomes)
            .all(|(a, b)| a.estimate.to_bits() == b.estimate.to_bits())
    };
    if !(same(&one) && same(&many)) {
        return Err("a run_jobs fleet differs from its jobs run alone".into());
    }
    Ok(outcomes)
}

/// The traced run over `setup`'s stream for `seconds`.
pub fn run(setup: &Setup, threads: usize, seconds: f64) -> Report {
    let mut s = Sums::default();
    let mut gate = Gate::default();
    let mut errors = Vec::new();
    let cold = setup.workload.is_cold();
    if !cold {
        // Warm jobs never compile: time the compile layers once per plan.
        let planner = setup.service.planner();
        let mut seen = HashSet::new();
        for job in setup.stream.jobs() {
            if !seen.insert(planner.plan_key(&job.circuit, &job.observable)) {
                continue;
            }
            let t = Instant::now();
            let plan = planner.plan(&job.circuit);
            s.add("planner.plan_us", micros(t));
            let t = Instant::now();
            let compiled = CompiledPlan::compile(&plan, &job.observable);
            s.add("planner.compile_us", micros(t));
            if let Err(e) = probe_plan(&plan, &job.observable, &compiled, &mut s) {
                errors.push(e);
            }
        }
    }
    let cold_jobs: Vec<EstimationJob> = if cold {
        setup.stream.jobs().cloned().collect()
    } else {
        Vec::new()
    };
    let chunks: Vec<&[EstimationJob]> = if cold {
        cold_jobs.chunks(COLD_FLEET).collect()
    } else {
        setup.stream.calls.iter().map(Vec::as_slice).collect()
    };
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        let index = n % chunks.len();
        let traced = catch_unwind(AssertUnwindSafe(|| {
            trace_chunk(setup, chunks[index], threads, &mut s)
        }));
        let service = &setup.service;
        match traced {
            Ok(Ok(outcomes)) => gate.record(service, index, chunks[index], Some(&outcomes)),
            Ok(Err(e)) => {
                errors.push(e);
                gate.record(service, index, chunks[index], None);
            }
            Err(_) => gate.record(service, index, chunks[index], None),
        }
        setup.after_call();
        n += 1;
    }
    for e in errors.iter().take(5) {
        eprintln!("perfbench: trace check failed: {e}");
    }
    report(&s, &gate, errors.is_empty(), cold)
}

/// Per-job self time of each layer the replay attributes, in µs.
fn self_times(s: &Sums, cold: bool) -> Vec<(&'static str, f64)> {
    let m = |name| s.mean(name);
    if cold {
        vec![
            ("planner.plan_key", m("planner.plan_key_us")),
            ("planner.plan", m("planner.plan_us")),
            (
                "planner.compile",
                m("planner.compile_us") - m("contract.block_build_us") - m("contract.sweep_us"),
            ),
            (
                "contract.block_build",
                m("contract.block_build_us") - m("qsim.sampler_compile_us") - m("qsim.readout_us"),
            ),
            ("contract.sweep", m("contract.sweep_us")),
            ("qsim.sampler_compile", m("qsim.sampler_compile_us")),
            ("qsim.readout", m("qsim.readout_us")),
            ("qpd.allocate", m("qpd.allocate_us")),
            ("qsample.sample", m("qsample.sample_us")),
        ]
    } else {
        vec![
            (
                "service.hit",
                m("service.hit_us") - m("planner.plan_key_us"),
            ),
            ("planner.plan_key", m("planner.plan_key_us")),
            ("qpd.allocate", m("qpd.allocate_us")),
            ("qsample.sample", m("qsample.sample_us")),
        ]
    }
}

fn report(s: &Sums, gate: &Gate, checks_passed: bool, cold: bool) -> Report {
    let untraced = s.sum("job.untraced_us");
    let untraced_mean = s.mean("job.untraced_us");
    println!(
        "# traced jobs={} untraced_us={untraced_mean:.2}",
        gate.attempted
    );
    let layers = self_times(s, cold);
    for (name, us) in &layers {
        println!(
            "# layer {name} self_us={us:.2} share={:.3}",
            us / untraced_mean
        );
    }
    if let Some((name, us)) = layers.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        println!(
            "# dominant layer: {name} ({:.1}% of the untraced job)",
            100.0 * us / untraced_mean
        );
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let jobs = s.sum("fleet.jobs");
    let mut metrics = vec![
        ("service.hit_us", "us", s.mean("service.hit_us")),
        (
            "service.hit_rate",
            "frac",
            ratio(s.sum("service.hits"), s.sum("service.lookups")),
        ),
        (
            "service.fleet_overhead_us",
            "us",
            ratio(s.sum("fleet.one_us") - untraced, jobs),
        ),
        (
            "service.fleet_speedup",
            "x",
            ratio(s.sum("fleet.one_us"), s.sum("fleet.many_us")),
        ),
    ];
    for (name, unit) in [
        ("planner.plan_key_us", "us"),
        ("planner.plan_us", "us"),
        ("planner.compile_us", "us"),
        ("planner.cuts", "count"),
        ("planner.kappa", "x"),
        ("contract.block_build_us", "us"),
        ("contract.sweep_us", "us"),
        ("contract.frontier_ops", "count"),
        ("contract.prefix_hit_rate", "frac"),
        ("contract.variants", "count"),
        ("contract.nnz", "count"),
        ("contract.terms", "count"),
        ("qsim.sampler_compile_us", "us"),
        ("qsim.readout_us", "us"),
        ("qsim.clifford_fraction", "frac"),
        ("qpd.allocate_us", "us"),
        ("qpd.unsampled_frac", "frac"),
        ("qsample.sample_us", "us"),
        ("qsample.draws", "count"),
    ] {
        metrics.push((name, unit, s.mean(name)));
    }
    metrics.push((
        "job.unattributed_frac",
        "frac",
        1.0 - ratio(s.sum("job.layers_us"), untraced),
    ));
    metrics.push((
        "trace.overhead_frac",
        "frac",
        ratio(s.sum("job.replay_us"), untraced) - 1.0,
    ));
    Report {
        correct: checks_passed && gate.passed(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: metrics
            .into_iter()
            .map(|(name, unit, value)| Metric { name, unit, value })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{deep_cut, warm_fleet, Workload};

    #[test]
    fn replay_reproduces_run_job_on_every_workload() {
        let streams = [
            (Workload::DeepCut, deep_cut(5, 2)),
            (Workload::WarmFleet, warm_fleet(5, 1)),
        ];
        for (workload, stream) in streams {
            let setup = Setup::serve(workload, stream);
            let jobs: Vec<EstimationJob> = setup.stream.jobs().cloned().collect();
            let mut s = Sums::default();
            let outcomes = trace_chunk(&setup, &jobs, 2, &mut s)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let mut gate = Gate::default();
            gate.record(&setup.service, 0, &jobs, Some(&outcomes));
            assert!(gate.passed(), "{}", workload.name());
            let expect_hits = if workload.is_cold() {
                0.0
            } else {
                s.sum("service.lookups")
            };
            assert_eq!(s.sum("service.hits"), expect_hits, "{}", workload.name());
            assert_eq!(s.sum("fleet.jobs"), jobs.len() as f64);
        }
    }

    #[test]
    fn replay_notices_a_different_lane() {
        let setup = Setup::serve(Workload::DeepCut, deep_cut(9, 1));
        let job = setup.stream.jobs().next().expect("one job").clone();
        let out = setup.service.run_job(&job);
        let (plan, key, _) = setup.service.compiled(&job.circuit, &job.observable);
        assert!(replay_matches(&out, &replay(&plan, key, &job)));
        let other_seed = EstimationJob {
            seed: job.seed ^ 1,
            ..job
        };
        assert!(!replay_matches(&out, &replay(&plan, key, &other_seed)));
    }
}
