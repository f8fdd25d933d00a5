//! The correctness gate behind `pass_frac`.
//!
//! * every distinct plan's `exact_value()` must match the uncut
//!   statevector expectation within 1e-8;
//! * every job's estimate must lie within exact ± 5·SE and spend exactly
//!   its shot budget. SE is κ/√shots — the standard error of the paper's
//!   proportional split (Eq. 12–13) — or, when larger, the exact standard
//!   error of the split the job actually drew, √(Σ cᵢ²(1 − eᵢ²)/nᵢ) over
//!   its sampled terms: a sequential split steered by noisy σ̂ can be
//!   noisier than the proportional one, which is a cost, not a bias;
//! * a job submitted again must return a bit-identical estimate (the
//!   service's determinism contract);
//! * across the distinct jobs, Σz/√M must lie within ±5, where
//!   z = (estimate − exact)/SE;
//! * a call that panics fails every job it carried.

use std::collections::HashMap;
use wirecut::planner::{uncut_plan_expectation, CompiledPlan};
use wirecut::service::{CutService, EstimationJob, JobOutcome};

/// Running verdicts over one run's submitted jobs.
#[derive(Default)]
pub struct Gate {
    /// Plan key → whether the plan's exact value matched the uncut one.
    plans: HashMap<u64, bool>,
    /// (call, job) → first estimate's bits and that job's verdict.
    seen: HashMap<(usize, usize), (u64, bool)>,
    z_sum: f64,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that panicked or failed a check.
    pub failed: u64,
}

impl Gate {
    /// Checks one submitted call: `outcomes` is `None` when it panicked.
    /// Reads each new job's compiled plan from `service` (a cache hit
    /// while the call's plans are still cached).
    pub fn record(
        &mut self,
        service: &CutService,
        call: usize,
        jobs: &[EstimationJob],
        outcomes: Option<&[JobOutcome]>,
    ) {
        self.attempted += jobs.len() as u64;
        let Some(outcomes) = outcomes.filter(|o| o.len() == jobs.len()) else {
            self.failed += jobs.len() as u64;
            return;
        };
        for (j, (job, out)) in jobs.iter().zip(outcomes).enumerate() {
            let ok = match self.seen.get(&(call, j)) {
                Some(&(bits, ok)) => ok && bits == out.estimate.to_bits(),
                None => {
                    let (plan, _, _) = service.compiled(&job.circuit, &job.observable);
                    let ok = self.first_check(job, out, &plan);
                    self.seen.insert((call, j), (out.estimate.to_bits(), ok));
                    ok
                }
            };
            self.failed += u64::from(!ok);
        }
    }

    fn first_check(&mut self, job: &EstimationJob, out: &JobOutcome, plan: &CompiledPlan) -> bool {
        let plan_ok = *self.plans.entry(out.plan_key.0).or_insert_with(|| {
            (out.exact - uncut_plan_expectation(&job.circuit, &job.observable)).abs() <= 1e-8
        });
        let se = (out.kappa / (job.shots as f64).sqrt()).max(allocation_se(plan, &out.allocation));
        let z = (out.estimate - out.exact) / se;
        self.z_sum += z;
        let ok = plan_ok
            && z.abs() <= 5.0
            && out.shots == job.shots
            && out.allocation.iter().sum::<u64>() == job.shots;
        if !ok {
            eprintln!(
                "perfbench: job seed {} failed: plan_ok={plan_ok} z={z:.3} se={se} estimate={} \
                 exact={} shots={}/{}",
                job.seed,
                out.estimate,
                out.exact,
                out.allocation.iter().sum::<u64>(),
                job.shots
            );
        }
        ok
    }

    /// Distinct jobs checked so far.
    pub fn distinct(&self) -> usize {
        self.seen.len()
    }

    /// Pooled Σz/√M over the distinct jobs (0 before any).
    pub fn pooled_z(&self) -> f64 {
        if self.seen.is_empty() {
            0.0
        } else {
            self.z_sum / (self.seen.len() as f64).sqrt()
        }
    }

    /// Whether the whole run passed: no failed job and |Σz/√M| ≤ 5.
    pub fn passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.pooled_z().abs() <= 5.0
    }
}

/// Exact standard error of an estimate drawn with per-term shot counts
/// `allocation`: √(Σ cᵢ²(1 − eᵢ²)/nᵢ) over the terms that got shots.
fn allocation_se(plan: &CompiledPlan, allocation: &[u64]) -> f64 {
    plan.spec
        .terms()
        .iter()
        .zip(plan.exact_terms())
        .zip(allocation)
        .filter(|(_, &n)| n > 0)
        .map(|((term, e), &n)| term.coefficient.powi(2) * (1.0 - e * e) / n as f64)
        .sum::<f64>()
        .sqrt()
}
