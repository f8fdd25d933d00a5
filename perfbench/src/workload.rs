//! The two workloads: fixed-seed job streams and the service set-up
//! that serves them.
//!
//! Each generator is a pure function of the workload seed: job `i`'s
//! circuit and RNG seed come from a counter-based stream keyed on
//! `(workload tag, i)` under that seed, so any seed is runnable and the
//! same seed always yields the same `PlanKey`s.

use experiments::service_load::{build_jobs, ServiceLoadConfig};
use qsample::{keyed_stream, KeyHasher};
use qsim::{Circuit, PauliString};
use rand::{Rng, RngCore};
use std::collections::HashMap;
use wirecut::planner::CutPlanner;
use wirecut::service::{AllocationMode, CutService, EstimationJob, JobOutcome};

/// Resource overlap every workload plans at: γ = 2/f − 1 ≈ 1.22 per cut.
const OVERLAP: f64 = 0.9;

/// Jobs in one deep_cut stream (distinct circuits, one per call): enough
/// that ten calls lie beyond the 95th percentile, few enough that a run
/// passes over the stream many times.
pub const DEEP_CUT_JOBS: usize = 256;
/// E18 fleets in one warm_fleet stream. One fleet holds only four
/// circuits, so its cost and κ mix swing with the seed; rotating over
/// many fleets keeps each run's figures representative of the workload
/// rather than of four circuits, and puts ten calls beyond the 95th
/// percentile.
pub const WARM_FLEETS: usize = 200;

/// Qubits of a deep_cut ladder: at width 2 it fragments into nine
/// two-qubit fragments joined by eight NME cuts (3⁸ = 6561 terms).
pub const LADDER_QUBITS: usize = 10;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A new 8-cut ry/CX ladder per job: sweep and sampling dominate.
    DeepCut,
    /// Cached E18 fleets through `run_jobs`: only the hit path runs.
    WarmFleet,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "deep_cut" => Some(Workload::DeepCut),
            "warm_fleet" => Some(Workload::WarmFleet),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepCut => "deep_cut",
            Workload::WarmFleet => "warm_fleet",
        }
    }

    /// The cold workload submits one `run_job` per call against an
    /// emptied cache; the warm one submits one `run_jobs` fleet per call.
    pub fn is_cold(self) -> bool {
        self == Workload::DeepCut
    }

    fn tag(self) -> u64 {
        match self {
            Workload::DeepCut => 0xDEE9,
            Workload::WarmFleet => 0xF1EE,
        }
    }
}

/// A generated job stream: the calls a run submits, in order, and the
/// plan overhead κ of every job (aligned with [`Stream::jobs`]).
pub struct Stream {
    /// The planner the service compiles with.
    pub planner: CutPlanner,
    /// One entry per submitted call: a single job on deep_cut, a whole
    /// fleet on warm_fleet.
    pub calls: Vec<Vec<EstimationJob>>,
    /// Plan κ per job, in [`Stream::jobs`] order.
    pub kappas: Vec<f64>,
}

impl Stream {
    /// Every job of the stream, call by call.
    pub fn jobs(&self) -> impl Iterator<Item = &EstimationJob> {
        self.calls.iter().flatten()
    }
}

/// Generates the full stream of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Stream {
    match workload {
        Workload::DeepCut => deep_cut(seed, DEEP_CUT_JOBS),
        Workload::WarmFleet => warm_fleet(seed, WARM_FLEETS),
    }
}

/// Per-job stream: circuit draws first, then the job's RNG seed.
fn job_rng(workload: Workload, seed: u64, index: usize) -> qsample::StreamRng {
    keyed_stream(seed, &(workload.tag(), index as u64))
}

fn all_z(n: usize) -> PauliString {
    PauliString::from_label(&"Z".repeat(n))
}

/// The deep_cut circuit: a CX ladder where each wire gets an `ry` before
/// and after its CX, all angles drawn from `rng`. Rung by rung in
/// program order, so greedy width-2 packing gives one fragment per CX.
pub fn ladder<R: Rng>(rng: &mut R) -> Circuit {
    let mut angle = || std::f64::consts::PI * rng.gen::<f64>();
    let mut c = Circuit::new(LADDER_QUBITS, 0);
    c.ry(angle(), 0);
    for q in 0..LADDER_QUBITS - 1 {
        c.ry(angle(), q + 1);
        c.cx(q, q + 1);
        c.ry(angle(), q + 1);
    }
    c
}

/// deep_cut: 10-qubit ladders planned at width 2 (8 NME cuts, 6561
/// terms, κ ≈ 4.98); 2¹⁶ shots, `Sequential`, 4 batches, Z…Z.
pub fn deep_cut(seed: u64, jobs: usize) -> Stream {
    let planner = CutPlanner::new(2).with_overlap(OVERLAP);
    let observable = all_z(LADDER_QUBITS);
    let mut calls = Vec::with_capacity(jobs);
    let mut kappas = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let mut rng = job_rng(Workload::DeepCut, seed, i);
        let circuit = ladder(&mut rng);
        kappas.push(planner.plan(&circuit).kappa());
        let job = EstimationJob::new(circuit, observable.clone(), 1 << 16, rng.next_u64())
            .with_batches(4)
            .with_mode(AllocationMode::Sequential);
        calls.push(vec![job]);
    }
    Stream {
        planner,
        calls,
        kappas,
    }
}

/// warm_fleet: `fleets` E18 fleets (`build_jobs` on the default
/// `ServiceLoadConfig`, 192 jobs each), fleet `k` seeded from
/// `(seed, k)`.
pub fn warm_fleet(seed: u64, fleets: usize) -> Stream {
    let base = ServiceLoadConfig::default();
    let planner = CutPlanner::new(base.width_budget).with_overlap(base.overlap);
    let calls: Vec<Vec<EstimationJob>> = (0..fleets)
        .map(|k| {
            let mut h = KeyHasher::new();
            h.absorb(Workload::WarmFleet.tag());
            h.absorb(seed);
            h.absorb(k as u64);
            build_jobs(&ServiceLoadConfig {
                seed: h.finish(),
                ..base.clone()
            })
        })
        .collect();
    let mut memo = HashMap::new();
    let kappas = calls
        .iter()
        .flatten()
        .map(|job| {
            *memo
                .entry(planner.plan_key(&job.circuit, &job.observable))
                .or_insert_with(|| planner.plan(&job.circuit).kappa())
        })
        .collect();
    Stream {
        planner,
        calls,
        kappas,
    }
}

/// A workload's stream plus the one long-lived service it is submitted
/// to. Building it is the set-up the `setup_s` metric times.
pub struct Setup {
    pub workload: Workload,
    pub stream: Stream,
    pub service: CutService,
}

impl Setup {
    /// Generates the stream and builds the service; on warm_fleet also
    /// fills the plan cache, so measured calls only ever hit it.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self::serve(workload, generate(workload, seed))
    }

    /// Builds the service for an already generated stream.
    pub fn serve(workload: Workload, stream: Stream) -> Self {
        let service = CutService::new(stream.planner);
        if !workload.is_cold() {
            for job in stream.jobs() {
                service.compiled(&job.circuit, &job.observable);
            }
        }
        Setup {
            workload,
            stream,
            service,
        }
    }

    /// Submits one call: `run_job` per job on deep_cut,
    /// `run_jobs` at `threads` on warm_fleet.
    pub fn submit(&self, call: &[EstimationJob], threads: usize) -> Vec<JobOutcome> {
        if self.workload.is_cold() {
            call.iter().map(|job| self.service.run_job(job)).collect()
        } else {
            self.service.run_jobs(call, threads)
        }
    }

    /// Empties the plan cache after a cold call, so the next one misses
    /// again and the cache never holds more than one cold plan.
    pub fn after_call(&self) {
        if self.workload.is_cold() {
            self.service.clear_cache();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wirecut::contract::contraction_ineligibility;
    use wirecut::planner::PlanKey;

    fn keys(stream: &Stream) -> Vec<PlanKey> {
        stream
            .jobs()
            .map(|j| stream.planner.plan_key(&j.circuit, &j.observable))
            .collect()
    }

    fn seeds(stream: &Stream) -> Vec<u64> {
        stream.jobs().map(|j| j.seed).collect()
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let small = |w: Workload, seed: u64| match w {
            Workload::DeepCut => deep_cut(seed, 8),
            Workload::WarmFleet => warm_fleet(seed, 2),
        };
        for w in [Workload::DeepCut, Workload::WarmFleet] {
            let a = small(w, 11);
            let b = small(w, 11);
            let c = small(w, 12);
            assert_eq!(keys(&a), keys(&b), "{}: same seed, same plans", w.name());
            assert_eq!(
                seeds(&a),
                seeds(&b),
                "{}: same seed, same job seeds",
                w.name()
            );
            assert_eq!(a.kappas, b.kappas);
            assert_ne!(keys(&a), keys(&c), "{}: new seed, new plans", w.name());
            assert_ne!(
                seeds(&a),
                seeds(&c),
                "{}: new seed, new job seeds",
                w.name()
            );
        }
    }

    #[test]
    fn stream_sizes_match_the_workload_definitions() {
        let warm = warm_fleet(3, 2);
        assert_eq!(warm.calls.len(), 2);
        assert!(warm.calls.iter().all(|fleet| fleet.len() == 192));
        assert_eq!(warm.kappas.len(), 384);
        let cold = deep_cut(3, 4);
        assert!(cold.calls.iter().all(|call| call.len() == 1));
    }

    #[test]
    fn every_deep_cut_plan_has_8_cuts_and_6561_terms() {
        for seed in [0, 1, 0xDEAD_BEEF] {
            let stream = deep_cut(seed, 16);
            for job in stream.jobs() {
                let plan = stream.planner.plan(&job.circuit);
                assert_eq!(plan.num_cuts(), 8);
                let terms: usize = plan.groups.iter().map(|g| g.spec().len()).product();
                assert_eq!(terms, 6561);
                assert!((plan.kappa() - (2.0 / OVERLAP - 1.0).powi(8)).abs() < 1e-12);
                assert!(contraction_ineligibility(&plan).is_none());
            }
        }
    }
}
