//! The repository benchmark: fixed-seed estimation-job streams submitted
//! to one long-lived `CutService`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <deep_cut|warm_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics:
//!
//! * `setup_s` — median over several set-ups ([`MIN_SETUPS`] or more) of
//!   generating the job stream and building the service (on warm_fleet,
//!   filling the cache);
//! * `latency_ms_p50`, `latency_ms_p95` — wall time of one submitted call
//!   (`run_job` on deep_cut, a `run_jobs` fleet on warm_fleet),
//!   each call at its best over the run's passes, quantiles over calls;
//! * `jobs_per_s` — the stream's jobs per second of those best latencies;
//! * `shots_for_1pct` — mean over the stream's jobs of (κ/0.01)², the
//!   shots a ±0.01 standard error costs (paper Eq. 12–13);
//! * `pass_frac` — share of submitted jobs that passed the correctness
//!   gate ([`gate`]), i.e. 1 − the failure fraction;
//! * `peak_rss_mb` — the process's peak resident set (VmHWM).
//!
//! `--trace 1` runs the layer-attributed replica instead ([`trace`]).
//! Both feed every submitted job through the gate. Informational `#`
//! lines (the stamp, the layer breakdown) come first; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! deep_cut runs one closed-loop client (one `run_job` at a time);
//! warm_fleet submits each fleet with `run_jobs` on `nproc` threads.

mod gate;
mod trace;
mod workload;

use gate::Gate;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{Setup, Workload};

/// Set-ups per run: at least [`MIN_SETUPS`], then more until
/// [`SETUP_SECONDS`] have gone into set-up, at most [`MAX_SETUPS`].
/// `setup_s` is their median; the last one is measured.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 100;
/// Least number of passes over the stream in an untraced run, so every
/// call's best latency is a minimum over at least this many tries.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <deep_cut|warm_fleet> \
                     --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A run's result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(
                    m.value.is_finite(),
                    "metric {} is not finite: {}",
                    m.name,
                    m.value
                );
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The untraced run: submits the stream's calls in order, pass after
/// pass, in a closed loop for `seconds` and at least [`MIN_PASSES`]
/// passes. Every call is kept at its best latency over the passes, and
/// the latency quantiles and throughput are taken over those best
/// latencies. Load from other tenants of a shared host comes in phases
/// of seconds that slow every call by up to about 2×; a call submitted
/// in many passes, seconds apart, almost always meets a quiet phase
/// once, so its best latency is what the code costs rather than what
/// the host did meanwhile.
fn measure(setup: &Setup, threads: usize, seconds: f64, setup_s: f64) -> Report {
    let calls = &setup.stream.calls;
    let mut gate = Gate::default();
    let mut best = vec![f64::INFINITY; calls.len()];
    let mut observed = Vec::new();
    let mut i = 0;
    let run = Instant::now();
    while i < MIN_PASSES * calls.len() || run.elapsed().as_secs_f64() < seconds {
        let index = i % calls.len();
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| setup.submit(&calls[index], threads)));
        let elapsed = t.elapsed().as_secs_f64();
        // A panicked call is a failure, not a latency sample.
        if result.is_ok() {
            best[index] = best[index].min(elapsed);
            observed.push(elapsed);
        }
        gate.record(&setup.service, index, &calls[index], result.as_deref().ok());
        setup.after_call();
        i += 1;
    }
    // Calls that panicked on every pass have no latency.
    let jobs: usize = calls
        .iter()
        .zip(&best)
        .filter(|(_, b)| b.is_finite())
        .map(|(call, _)| call.len())
        .sum();
    best.retain(|b| b.is_finite());
    best.sort_by(f64::total_cmp);
    observed.sort_by(f64::total_cmp);
    let q_or_zero = |v: &[f64], q| if v.is_empty() { 0.0 } else { quantile(v, q) };
    println!(
        "# calls={} passes={:.2} observed_p50_ms={:.4} observed_p95_ms={:.4} \
         distinct_jobs={} pooled_z={:.3}",
        i,
        i as f64 / calls.len() as f64,
        1e3 * q_or_zero(&observed, 0.5),
        1e3 * q_or_zero(&observed, 0.95),
        gate.distinct(),
        gate.pooled_z()
    );
    let kappas = &setup.stream.kappas;
    let shots_for_1pct =
        kappas.iter().map(|k| (k / 0.01).powi(2)).sum::<f64>() / kappas.len() as f64;
    let busy: f64 = best.iter().sum();
    let metric = |name, unit, value| Metric { name, unit, value };
    Report {
        correct: gate.passed(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: vec![
            metric("setup_s", "s", setup_s),
            metric("latency_ms_p50", "ms", q_or_zero(&best, 0.5) * 1e3),
            metric("latency_ms_p95", "ms", q_or_zero(&best, 0.95) * 1e3),
            metric(
                "jobs_per_s",
                "1/s",
                if busy > 0.0 { jobs as f64 / busy } else { 0.0 },
            ),
            metric("shots_for_1pct", "shots", shots_for_1pct),
            metric(
                "pass_frac",
                "frac",
                (gate.attempted - gate.failed) as f64 / gate.attempted as f64,
            ),
            metric("peak_rss_mb", "MB", peak_rss_mb()),
        ],
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# stamp workload={} seed={} trace={} nproc={} rustc=\"{}\" git_rev={} src_digest={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        nproc,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_SRC_DIGEST"),
    );
    let mut setup_times = Vec::new();
    let mut setup = None;
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && setup_times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let t = Instant::now();
        let fresh = Setup::new(args.workload, args.seed);
        setup_times.push(t.elapsed().as_secs_f64());
        // The previous set-up is dropped here, outside the timed span.
        setup = Some(fresh);
    }
    let setup = setup.expect("MIN_SETUPS > 0");
    let report = if args.trace {
        trace::run(&setup, nproc, args.seconds)
    } else {
        measure(&setup, nproc, args.seconds, median(&setup_times))
    };
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a =
            args("--workload deep_cut --seed 18446744073709551615 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::DeepCut);
        assert_eq!(a.seed, u64::MAX);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for line in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload deep_cut --seed -1 --seconds 1 --trace 0",
            "--workload deep_cut --seed 1 --seconds 0 --trace 0",
            "--workload deep_cut --seed 1 --seconds 1 --trace 2",
            "--workload deep_cut --seed 1 --seconds 1",
            "--workload deep_cut --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(args(line).is_err(), "{line}");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.95), 4.8);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
