//! Differential suite for the **contracted fragment blocks**
//! (`wirecut::contract`, the one path `CompiledPlan::compile` runs)
//! against the stitching oracle (`CompiledPlan::compile_monolithic`):
//!
//! * on 20+ randomized circuits (n = 3..6, 1–4 cuts, both NME and
//!   joint-MUB groups) the two agree **per term** to 1e−8 and the
//!   contracted decomposition equals the uncut statevector to 1e−8;
//! * on seeded random circuits with mid-circuit measurements, resets
//!   and clbit-conditioned gates — classical bits crossing fragments and
//!   multi-fragment plans with no cut included — `compile` matches the
//!   uncut value to 1e−10 and the oracle per term to 1e−8;
//! * sampled estimates through the contracted path land inside the 5σ
//!   Wilson band;
//! * a 6-cut plan from `random_unitary_circuit` compiles and estimates
//!   through contraction (where monolithic stitching blows up);
//! * service results on contracted plans stay byte-identical across
//!   thread counts {1, 2, 7};
//! * the `fragments_by_width` merge post-pass eliminates the avoidable
//!   repeated cut (κ reduction pinned on the regression circuit);
//! * plans over the `MAX_INCOMING` and `MAX_JOINT_WIRES` caps fail to
//!   compile at once, naming the cap.

use nme_wire_cutting::experiments::plan_cut::tractable_random_circuit;
use nme_wire_cutting::experiments::stats::qpd_wilson_band;
use nme_wire_cutting::qpd::{estimate_allocated, Allocator};
use nme_wire_cutting::qsim::dag::instruction_clbits;
use nme_wire_cutting::qsim::{
    greedy_fragments, random_unitary_circuit, Circuit, Gate, Pauli, PauliString,
};
use nme_wire_cutting::wirecut::service::{CutService, EstimationJob};
use nme_wire_cutting::wirecut::{
    contraction_ineligibility, uncut_plan_expectation, CompiledPlan, CutPlanner, FragmentBlocks,
    Protocol, SweepStats, MAX_INCOMING, MAX_JOINT_WIRES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The randomized workload grid: ≥ 20 circuits spanning widths 3–6,
/// budgets strictly below the width, and overlaps on both sides of the
/// κ crossover (so both NME and joint-MUB groups are exercised), with
/// 1–4 cuts per plan.
fn workloads() -> Vec<(usize, usize, f64, u64)> {
    // (num_qubits, width_budget, overlap, seed)
    let mut w = Vec::new();
    for (i, &(n, budget)) in [(3, 2), (4, 3), (4, 2), (5, 4), (6, 5)].iter().enumerate() {
        for (j, &f) in [0.52, 0.7, 0.85, 1.0].iter().enumerate() {
            w.push((n, budget, f, 3000 + (i * 4 + j) as u64));
        }
    }
    assert!(w.len() >= 20);
    w
}

#[test]
fn contracted_terms_match_monolithic_and_uncut_on_randomized_circuits() {
    let shots = 2048u64;
    let mut saw_joint = false;
    let mut saw_multi_cut = false;
    for (n, budget, f, seed) in workloads() {
        let planner = CutPlanner::new(budget).with_overlap(f);
        let mut rng = StdRng::seed_from_u64(seed);
        let (circuit, plan) = tractable_random_circuit(n, 5, &planner, 4, &mut rng);
        assert!(
            contraction_ineligibility(&plan).is_none(),
            "n={n} f={f} seed={seed}: unitary plan must contract"
        );
        saw_joint |= plan.groups.iter().any(|g| g.protocol == Protocol::JointMub);
        saw_multi_cut |= plan.num_cuts() >= 2;

        let observable = PauliString::from_label(&"Z".repeat(n));
        let uncut = uncut_plan_expectation(&circuit, &observable);
        let contracted = CompiledPlan::compile(&plan, &observable);
        let monolithic = CompiledPlan::compile_monolithic(&plan, &observable);

        // Per-term differential: the tensor contraction reproduces every
        // stitched term expectation, in the same odometer order.
        let ct = contracted.exact_terms();
        let mt = monolithic.exact_terms();
        assert_eq!(ct.len(), mt.len(), "n={n} f={f} seed={seed}");
        for (i, (c, m)) in ct.iter().zip(mt.iter()).enumerate() {
            assert!(
                (c - m).abs() < 1e-8,
                "n={n} f={f} seed={seed} term {i}: contracted {c} vs monolithic {m}"
            );
        }

        // The decomposition is an identity, not an approximation.
        assert!(
            (contracted.exact_value() - uncut).abs() < 1e-8,
            "n={n} f={f} seed={seed}: exact {} vs uncut {uncut}",
            contracted.exact_value()
        );
        contracted.verify(1e-8).unwrap();

        // A sampled estimate through the contracted path lands inside
        // the 5σ Wilson band.
        let band = qpd_wilson_band(&contracted.spec, &contracted.exact_terms(), shots, 5.0);
        let est = estimate_allocated(
            &contracted.spec,
            contracted.plan_terms(),
            shots,
            Allocator::Proportional,
            &mut rng,
        );
        assert!(
            (est - uncut).abs() <= band,
            "n={n} f={f} seed={seed}: estimate {est} outside 5σ band {band} of {uncut}"
        );
    }
    assert!(saw_joint, "grid never produced a joint-MUB group");
    assert!(saw_multi_cut, "grid never produced a multi-cut plan");
}

/// A random circuit on `n` qubits and `clbits` bits: Ry/Rz rotations,
/// CX/CZ, mid-circuit measurements, resets, and X or Ry gates
/// conditioned on a bit. With `paired`, two-qubit gates stay inside the
/// pairs `{0, 1}`, `{2, 3}`, … so that narrow budgets split the circuit
/// into fragments with no cut, which only classical bits connect.
fn random_feedforward_circuit(n: usize, clbits: usize, paired: bool, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n, clbits);
    for _ in 0..8 + rng.gen_range(0..6) {
        let q = rng.gen_range(0..n);
        let bit = rng.gen_range(0..clbits);
        let angle = std::f64::consts::PI * (2.0 * rng.gen::<f64>() - 1.0);
        let partner = if paired {
            (q ^ 1).min(n - 1)
        } else {
            (q + 1 + rng.gen_range(0..n - 1)) % n
        };
        match rng.gen_range(0..9) {
            0 => c.ry(angle, q),
            1 => c.rz(angle, q),
            2 if partner != q => c.cx(q, partner),
            3 if partner != q => c.cz(q, partner),
            4 | 5 => c.measure(q, bit),
            6 => c.reset(q),
            7 => c.x_if(q, bit),
            _ => c.gate_if(Gate::Ry(angle), &[q], bit, rng.gen_bool(0.5)),
        };
    }
    c
}

/// `true` when two fragments of `plan` touch one classical bit.
fn clbit_crosses_fragments(plan: &nme_wire_cutting::wirecut::CutPlan) -> bool {
    let instructions = plan.circuit().instructions();
    let mut owner = vec![None; plan.circuit().num_clbits()];
    for (fi, frag) in plan.fragments.iter().enumerate() {
        for &i in &frag.instructions {
            for bit in instruction_clbits(&instructions[i]) {
                if *owner[bit].get_or_insert(fi) != fi {
                    return true;
                }
            }
        }
    }
    false
}

#[test]
fn every_plan_shape_contracts_exactly_on_random_feedforward_circuits() {
    let (mut plans, mut crossing, mut uncut_multi) = (0, 0, 0);
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0xC1A5 + seed);
        let n = 3 + rng.gen_range(0..3);
        let clbits = 1 + rng.gen_range(0..3);
        let budget = 2 + rng.gen_range(0..n - 2);
        let overlap = [0.52, 0.8, 1.0][rng.gen_range(0..3)];
        let circuit = random_feedforward_circuit(n, clbits, rng.gen_bool(0.5), &mut rng);
        let plan = CutPlanner::new(budget).with_overlap(overlap).plan(&circuit);
        if plan.num_cuts() > 3 {
            continue;
        }
        let mut letters: Vec<Pauli> = (0..n)
            .map(|_| [Pauli::I, Pauli::Z][rng.gen_range(0..2)])
            .collect();
        letters[rng.gen_range(0..n)] = Pauli::Z;
        let observable = PauliString::new(letters);
        let what = format!("seed {seed}: n={n} clbits={clbits} budget={budget} f={overlap}");
        assert_eq!(contraction_ineligibility(&plan), None, "{what}");
        let compiled = CompiledPlan::compile(&plan, &observable);
        let uncut = uncut_plan_expectation(&circuit, &observable);
        assert!(
            (compiled.exact_value() - uncut).abs() < 1e-10,
            "{what}: contracted {} vs uncut {uncut}",
            compiled.exact_value()
        );
        let oracle = CompiledPlan::compile_monolithic(&plan, &observable);
        let (ct, mt) = (compiled.exact_terms(), oracle.exact_terms());
        assert_eq!(ct.len(), mt.len(), "{what}");
        for (i, (c, m)) in ct.iter().zip(&mt).enumerate() {
            assert!(
                (c - m).abs() < 1e-8,
                "{what} term {i}: contracted {c} vs oracle {m}"
            );
        }
        plans += 1;
        crossing += usize::from(clbit_crosses_fragments(&plan));
        uncut_multi += usize::from(plan.num_cuts() == 0 && plan.fragments.len() > 1);
    }
    // The differential must reach the shapes it exists for.
    assert!(
        crossing >= 20,
        "{crossing} of {plans} plans had a crossing clbit"
    );
    assert!(
        uncut_multi >= 3,
        "{uncut_multi} of {plans} plans were multi-fragment and uncut"
    );
}

#[test]
fn six_cut_plan_compiles_and_estimates_through_contraction() {
    // The acceptance bar: a ≥6-cut plan from `random_unitary_circuit`
    // compiles through the contracted path (Σ 6^incoming fragment
    // variants) where the monolithic path would stitch Π terms ≥ 3^6
    // monolithic circuits, and its estimate is 5σ-correct. The cut
    // count is banded to 6..=8 — spec evaluation is Θ(Π terms) even
    // contracted (one frontier contraction per term), and the first
    // unbanded draw is a 12-cut/531441-term monster that alone costs
    // minutes in debug builds.
    let planner = CutPlanner::new(3).with_overlap(0.9);
    let mut found = None;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_unitary_circuit(7, 14, &mut rng);
        let plan = planner.plan(&circuit);
        if (6..=8).contains(&plan.num_cuts()) && contraction_ineligibility(&plan).is_none() {
            found = Some((circuit, plan, rng));
            break;
        }
    }
    let (circuit, plan, mut rng) = found.expect("no ≥6-cut tractable plan in 200 draws");
    let observable = PauliString::from_label(&"Z".repeat(7));
    let uncut = uncut_plan_expectation(&circuit, &observable);
    let compiled = CompiledPlan::compile(&plan, &observable);
    assert!(compiled.spec.len() >= 3usize.pow(6));
    // Compilation cost is Σ variants, far below the Π terms of the spec.
    let variants: usize = compiled
        .fragment_summaries()
        .iter()
        .map(|s| s.variants)
        .sum();
    assert!(
        variants < compiled.spec.len(),
        "contracted compiled {variants} circuits ≥ {} product terms",
        compiled.spec.len()
    );
    assert!(
        (compiled.exact_value() - uncut).abs() < 1e-8,
        "6-cut exact {} vs uncut {uncut}",
        compiled.exact_value()
    );
    // The prefix-cached sweep must have saved frontier work over a
    // cache-disabled evaluation (the ≥5× bar is pinned on the
    // deterministic ladder shape below; random plans with fat groups
    // resume shallower).
    let backend = compiled.backend_report();
    assert!(
        backend.prefix_hits > 0,
        "sweep never resumed from the cache"
    );
    assert!(
        backend.frontier_ops < backend.frontier_ops_uncached,
        "prefix cache saved nothing: {} vs {}",
        backend.frontier_ops,
        backend.frontier_ops_uncached
    );
    let shots = 1 << 16;
    let band = qpd_wilson_band(&compiled.spec, &compiled.exact_terms(), shots, 5.0);
    let est = estimate_allocated(
        &compiled.spec,
        compiled.plan_terms(),
        shots,
        Allocator::Proportional,
        &mut rng,
    );
    assert!(
        (est - uncut).abs() <= band,
        "6-cut estimate {est} outside 5σ band {band} of {uncut} (κ = {:.2})",
        compiled.report().kappa
    );
}

#[test]
fn contracted_service_results_are_byte_identical_across_threads() {
    // Unitary circuits ⇒ every job rides the contracted backend; the
    // service determinism contract (content-addressed RNG lanes) must
    // hold bit-for-bit at any thread count, cold or warm.
    let mk_jobs = || -> Vec<EstimationJob> {
        let mut jobs = Vec::new();
        for seed in 0..3u64 {
            let mut ladder = Circuit::new(4, 0);
            ladder.ry(0.4, 0).cx(0, 1).cx(1, 2).cx(2, 3);
            jobs.push(
                EstimationJob::new(ladder, PauliString::from_label("ZZZZ"), 1200, seed)
                    .with_batches(3),
            );
            let mut rng = StdRng::seed_from_u64(40 + seed);
            let planner = CutPlanner::new(2).with_overlap(0.8);
            let (random, _) = tractable_random_circuit(4, 5, &planner, 3, &mut rng);
            jobs.push(
                EstimationJob::new(random, PauliString::from_label("ZZZZ"), 1200, seed)
                    .with_batches(3),
            );
        }
        jobs
    };
    let jobs = mk_jobs();
    let service = || CutService::new(CutPlanner::new(2).with_overlap(0.8));
    let reference: Vec<_> = jobs.iter().map(|j| service().run_job(j)).collect();
    let shared = service();
    for threads in [1usize, 2, 7] {
        let fleet = shared.run_jobs(&jobs, threads);
        for (r, f) in reference.iter().zip(fleet.iter()) {
            assert_eq!(
                r.estimate.to_bits(),
                f.estimate.to_bits(),
                "estimate differs at {threads} threads"
            );
            assert_eq!(r.updates, f.updates, "partials differ at {threads} threads");
            assert_eq!(r.allocation, f.allocation);
            assert_eq!(r.plan_key, f.plan_key);
        }
    }
    // Every job's plan, as the shared service cached it, compiled its
    // fragment variants.
    for (j, r) in jobs.iter().zip(&reference) {
        let (plan, key, hit) = shared.compiled(&j.circuit, &j.observable);
        assert!(hit);
        assert_eq!(key, r.plan_key);
        assert!(plan.backend_report().terms > 0);
    }
}

#[test]
fn merge_pass_reduces_cut_overhead_on_the_regression_circuit() {
    // Greedy fragmentation alone splits wires 0/1 across fragments
    // {0,1} | {2,3} | {0,1}: two avoidable cuts, κ = γ² = 2.25 at
    // f = 0.8. The merge post-pass reunites the disjoint outer
    // fragments, so the planner sees two fragments and **zero** cuts.
    let mut c = Circuit::new(4, 0);
    c.ry(0.3, 0);
    c.cx(0, 1);
    c.cx(2, 3);
    c.cx(0, 1);
    assert_eq!(
        greedy_fragments(&c, 2).len(),
        3,
        "greedy baseline regressed; the merge pin below is vacuous"
    );
    let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
    assert_eq!(plan.fragments.len(), 2);
    assert_eq!(plan.num_cuts(), 0, "merge pass left avoidable cuts");
    assert!((plan.kappa() - 1.0).abs() < 1e-12);
    // The merged plan still evaluates correctly end to end.
    let obs = PauliString::from_label("ZZZZ");
    let compiled = CompiledPlan::compile(&plan, &obs);
    assert!((compiled.exact_value() - uncut_plan_expectation(&c, &obs)).abs() < 1e-10);
}

/// The CX ladder on `cuts + 2` qubits at width budget 2: exactly `cuts`
/// single-wire NME cuts in a chain of two-wire fragments — the
/// deterministic shape the prefix-cache payoff is pinned on.
fn cx_ladder(cuts: usize) -> Circuit {
    let n = cuts + 2;
    let mut c = Circuit::new(n, 0);
    c.ry(0.4, 0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c
}

#[test]
fn six_cut_ladder_prefix_cache_saves_5x_frontier_ops() {
    // ISSUE 10's acceptance bar: on a 6-cut plan's full odometer sweep
    // (3^6 = 729 product terms), the prefix cache must perform ≥ 5×
    // fewer frontier matrix multiplications than cache-disabled
    // evaluation, as reported by the BackendReport counters. On the
    // ladder the resumes are maximally deep (single-wire groups), so
    // the amortized cost per term approaches a single fused dot.
    let circuit = cx_ladder(6);
    let plan = CutPlanner::new(2).with_overlap(0.8).plan(&circuit);
    assert_eq!(plan.num_cuts(), 6, "ladder plan shape drifted");
    let observable = PauliString::from_label(&"Z".repeat(8));
    let compiled = CompiledPlan::compile(&plan, &observable);
    let backend = compiled.backend_report();
    assert!(backend.frontier_ops > 0);
    assert!(
        backend.frontier_ops_uncached >= 5 * backend.frontier_ops,
        "prefix cache payoff below 5×: {} cached vs {} uncached",
        backend.frontier_ops,
        backend.frontier_ops_uncached
    );
    // And the cached sweep is still the exact decomposition.
    let uncut = uncut_plan_expectation(&circuit, &observable);
    assert!((compiled.exact_value() - uncut).abs() < 1e-8);
}

/// Every pick of a plan's product odometer, in `QpdSpec::product` order
/// (last group fastest).
fn odometer_picks(lens: &[usize]) -> Vec<Vec<usize>> {
    let total: usize = lens.iter().product();
    let mut pick = vec![0usize; lens.len()];
    let mut picks = Vec::with_capacity(total);
    for _ in 0..total {
        picks.push(pick.clone());
        for g in (0..lens.len()).rev() {
            pick[g] += 1;
            if pick[g] < lens[g] {
                break;
            }
            pick[g] = 0;
        }
    }
    picks
}

/// One sweep over every pick in odometer order and a fresh sweep over
/// the same picks shuffled must agree bit for bit.
fn assert_sweep_depends_only_on_the_pick(blocks: &FragmentBlocks, what: &str) {
    let picks = odometer_picks(&blocks.group_lens());
    let mut sweep = blocks.sweep();
    let in_order: Vec<u64> = picks
        .iter()
        .map(|p| sweep.term_value(p).to_bits())
        .collect();
    let mut order: Vec<usize> = (0..picks.len()).collect();
    let mut rng = StdRng::seed_from_u64(0x5EEB);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut shuffled = blocks.sweep();
    for &i in &order {
        assert_eq!(
            shuffled.term_value(&picks[i]).to_bits(),
            in_order[i],
            "{what}: pick {:?} changed value with the evaluation order",
            picks[i]
        );
    }
}

#[test]
fn sweep_values_depend_only_on_the_pick() {
    // The sweep's contract: a term's value is a function of its pick
    // alone, never of the order picks arrive in, of which snapshot a
    // term resumes from, or of what the reused frontier buffers held
    // before.
    let circuit = cx_ladder(6);
    let plan = CutPlanner::new(2).with_overlap(0.8).plan(&circuit);
    assert_eq!(plan.num_cuts(), 6, "ladder plan shape drifted");
    let blocks = FragmentBlocks::build(&plan, &PauliString::from_label(&"Z".repeat(8)));
    assert_eq!(blocks.group_lens().iter().product::<usize>(), 729);
    assert_sweep_depends_only_on_the_pick(&blocks, "6-cut ladder");
    // A re-entrant chain at width 4: a 3-wire group skips a fragment
    // while single-wire groups thread through it, so the frontier
    // widens and narrows between absorbs and the sweep's buffers change
    // size. The 3-wire group plans as joint MUB at low overlap and as
    // per-wire NME at high overlap.
    let circuit = reentrant_chain(4);
    let observable = PauliString::from_label(&"Z".repeat(7));
    for (overlap, joint) in [(0.52, true), (0.9, false)] {
        let plan = CutPlanner::new(4).with_overlap(overlap).plan(&circuit);
        assert!(
            plan.groups
                .iter()
                .any(|g| g.num_wires() == 3 && (g.protocol == Protocol::JointMub) == joint),
            "f = {overlap}: no 3-wire group with joint = {joint}"
        );
        let blocks = FragmentBlocks::build(&plan, &observable);
        let widths: Vec<usize> = blocks.summaries().iter().map(|f| f.outgoing).collect();
        assert!(
            widths.iter().any(|&w| w > 1) && widths.contains(&0),
            "f = {overlap}: frontier never widens and narrows ({widths:?})"
        );
        assert_sweep_depends_only_on_the_pick(&blocks, &format!("re-entrant chain, f = {overlap}"));
    }
}

#[test]
fn eight_cut_ladder_sweep_counters_are_pinned() {
    // The 8-cut width-2 ladder's full odometer sweep (3⁸ = 6561 terms):
    // the op and prefix-cache counters are exact functions of the plan
    // shape, pinned here so an evaluation speed-up cannot move them.
    let circuit = cx_ladder(8);
    let plan = CutPlanner::new(2).with_overlap(0.9).plan(&circuit);
    assert_eq!(plan.num_cuts(), 8, "ladder plan shape drifted");
    let observable = PauliString::from_label(&"Z".repeat(10));
    let blocks = FragmentBlocks::build(&plan, &observable);
    let mut sweep = blocks.sweep();
    for pick in odometer_picks(&blocks.group_lens()) {
        sweep.term_value(&pick);
    }
    // One from-scratch term, then 6560 resumes: 4374 of them move only
    // the fastest digit (one fused dot each), the rest rebuild from
    // their first changed digit.
    let stats = sweep.stats();
    assert_eq!(
        stats,
        SweepStats {
            terms: 6561,
            frontier_ops: 13120,
            frontier_ops_uncached: 111_537,
            prefix_hits: 42_648,
            prefix_rebuilds: 9840,
        }
    );
    // The compile path reports the same counters.
    let report = CompiledPlan::compile(&plan, &observable).backend_report();
    assert_eq!(report.frontier_ops, stats.frontier_ops);
    assert_eq!(report.frontier_ops_uncached, stats.frontier_ops_uncached);
    assert_eq!(report.prefix_hits, stats.prefix_hits);
    assert_eq!(report.prefix_rebuilds, stats.prefix_rebuilds);
}

#[test]
fn prefix_cached_sweep_matches_uncached_evaluation_per_term() {
    // Differential fence for the cache itself: over full odometer
    // sweeps of mixed NME/joint plans, every prefix-cached term value
    // must match the cache-disabled from-scratch contraction to 1e−12.
    let mut saw_multi_group = false;
    for (n, budget, f, seed) in [
        (4usize, 2usize, 0.52f64, 3100u64),
        (5, 3, 0.7, 3101),
        (6, 4, 0.52, 3102),
    ] {
        let planner = CutPlanner::new(budget).with_overlap(f);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, plan) = tractable_random_circuit(n, 6, &planner, 4, &mut rng);
        let observable = PauliString::from_label(&"Z".repeat(n));
        let blocks = FragmentBlocks::build(&plan, &observable);
        let lens = blocks.group_lens();
        let total: usize = lens.iter().product();
        let mut sweep = blocks.sweep();
        for combo in 0..total {
            let mut rem = combo;
            let mut pick = vec![0usize; lens.len()];
            for g in (0..lens.len()).rev() {
                pick[g] = rem % lens[g];
                rem /= lens[g];
            }
            let cached = sweep.term_value(&pick);
            let fresh = blocks.term_value(&pick);
            assert!(
                (cached - fresh).abs() < 1e-12,
                "n={n} f={f} seed={seed} combo {combo}: cached {cached} vs fresh {fresh}"
            );
        }
        let stats = sweep.stats();
        assert_eq!(stats.terms, total);
        // A single-group plan has no prefix to share (every term is a
        // fresh fastest-digit evaluation); only multi-group odometers
        // must resume from the cache.
        if lens.len() > 1 {
            saw_multi_group = true;
            assert!(stats.prefix_hits > 0, "n={n}: sweep never hit the cache");
        }
    }
    assert!(
        saw_multi_group,
        "workloads never produced a multi-group plan"
    );
}

/// Builds a three-fragment chain on `2·budget − 1` qubits whose final
/// fragment has exactly `budget` incoming cut wires and whose widest
/// multi-wire group has `budget − 1` wires. Fragment 0 fills the budget
/// on wires `0..budget`; fragment 1 carries wire `budget − 1` through
/// the fresh wires up to `2·budget − 2`; fragment 2 re-enters wires
/// `0..budget − 1` plus fragment 1's last wire. The shared wires block
/// the merge pass (fragment 1 is not independent of fragment 2, and
/// `frag0 ∪ frag2` exceeds the budget), so the plan keeps one
/// `(budget − 1)`-wire group (0 → 2) and two single-wire groups.
fn reentrant_chain(budget: usize) -> Circuit {
    let n = 2 * budget - 1;
    let mut c = Circuit::new(n, 0);
    c.ry(0.4, 0);
    for q in 0..budget - 1 {
        c.cx(q, q + 1);
    }
    for q in budget - 1..2 * budget - 2 {
        c.cx(q, q + 1);
    }
    c.cx(2 * budget - 2, 0);
    for q in 0..budget - 2 {
        c.cx(q, q + 1);
    }
    c
}

#[test]
fn incoming_cap_boundary_pins_eligibility() {
    // Exactly MAX_INCOMING incoming wires on the final fragment ⇒
    // eligible; one more ⇒ rejected with a named reason. The chain
    // re-enters `budget - 1` of fragment 0's wires plus one of
    // fragment 1's, so budget = MAX_INCOMING lands exactly on the cap.
    let at_cap = reentrant_chain(MAX_INCOMING);
    let plan = CutPlanner::new(MAX_INCOMING)
        .with_overlap(0.8)
        .plan(&at_cap);
    let incoming = max_incoming(&plan);
    assert_eq!(incoming, MAX_INCOMING, "construction drifted off the cap");
    assert_eq!(contraction_ineligibility(&plan), None);

    let over_cap = reentrant_chain(MAX_INCOMING + 1);
    let plan = CutPlanner::new(MAX_INCOMING + 1)
        .with_overlap(0.8)
        .plan(&over_cap);
    assert_eq!(max_incoming(&plan), MAX_INCOMING + 1);
    let reason = contraction_ineligibility(&plan).expect("over-cap plan must be rejected");
    assert!(reason.contains("MAX_INCOMING"), "unnamed reason: {reason}");
    assert_compile_panics_naming(&plan, "MAX_INCOMING");
}

#[test]
fn joint_width_boundary_pins_eligibility() {
    // Exactly MAX_JOINT_WIRES wires in one joint-MUB group ⇒ eligible;
    // one more ⇒ rejected with a named reason. Low overlap keeps every
    // multi-wire group below the κ crossover, so the re-entrant group
    // of `budget - 1` wires plans as a joint-MUB cut.
    let at_cap = reentrant_chain(MAX_JOINT_WIRES + 1);
    let plan = CutPlanner::new(MAX_JOINT_WIRES + 1)
        .with_overlap(0.52)
        .plan(&at_cap);
    let widest = widest_joint(&plan);
    assert_eq!(widest, MAX_JOINT_WIRES, "construction drifted off the cap");
    assert_eq!(contraction_ineligibility(&plan), None);

    let over_cap = reentrant_chain(MAX_JOINT_WIRES + 2);
    let plan = CutPlanner::new(MAX_JOINT_WIRES + 2)
        .with_overlap(0.52)
        .plan(&over_cap);
    assert_eq!(widest_joint(&plan), MAX_JOINT_WIRES + 1);
    let reason = contraction_ineligibility(&plan).expect("over-cap plan must be rejected");
    assert!(reason.contains("jointly"), "unnamed reason: {reason}");
    assert_compile_panics_naming(&plan, "jointly");
}

/// `CompiledPlan::compile` on an over-cap `plan` fails at once, with a
/// panic message naming the cap.
fn assert_compile_panics_naming(plan: &nme_wire_cutting::wirecut::CutPlan, cap: &str) {
    let observable = PauliString::from_label(&"Z".repeat(plan.circuit().num_qubits()));
    let panic = std::panic::catch_unwind(|| CompiledPlan::compile(plan, &observable))
        .err()
        .expect("an over-cap plan must not compile");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains(cap),
        "panic does not name {cap}: {message}"
    );
}

fn max_incoming(plan: &nme_wire_cutting::wirecut::CutPlan) -> usize {
    let mut incoming = vec![0usize; plan.fragments.len()];
    for g in &plan.groups {
        incoming[g.cuts[0].dest_fragment] += g.num_wires();
    }
    incoming.into_iter().max().unwrap_or(0)
}

fn widest_joint(plan: &nme_wire_cutting::wirecut::CutPlan) -> usize {
    plan.groups
        .iter()
        .filter(|g| g.protocol == Protocol::JointMub)
        .map(|g| g.num_wires())
        .max()
        .unwrap_or(0)
}

#[test]
fn measurement_fragment_plan_contracts_and_matches_monolithic() {
    // A measurement/feed-forward plan whose classical bits stay
    // fragment-local contracts (the block sums over outcome branches),
    // and its per-term values must match the monolithic reference to
    // 1e−8.
    let mut measured = Circuit::new(3, 1);
    measured.ry(0.4, 0).cx(0, 1).cx(1, 2).measure(2, 0);
    // Measure and the conditioned gate both live in the final {2, 3}
    // fragment, so the classical bit never crosses a fragment boundary.
    let mut feedforward = Circuit::new(4, 1);
    feedforward
        .ry(0.7, 0)
        .cx(0, 1)
        .cx(1, 2)
        .cx(2, 3)
        .measure(3, 0)
        .x_if(2, 0);
    for (circuit, label) in [(measured, "ZZI"), (feedforward, "ZZZZ")] {
        let plan = CutPlanner::new(2).plan(&circuit);
        assert!(!plan.groups.is_empty());
        assert_eq!(contraction_ineligibility(&plan), None);
        let observable = PauliString::from_label(label);
        let compiled = CompiledPlan::compile(&plan, &observable);
        let mono = CompiledPlan::compile_monolithic(&plan, &observable);
        let ct = compiled.exact_terms();
        let mt = mono.exact_terms();
        assert_eq!(ct.len(), mt.len());
        for (i, (c, m)) in ct.iter().zip(mt.iter()).enumerate() {
            assert!(
                (c - m).abs() < 1e-8,
                "{label} term {i}: contracted {c} vs monolithic {m}"
            );
        }
        // Outcome branching is visible in the fragment summaries.
        assert!(compiled
            .fragment_summaries()
            .iter()
            .any(|s| s.outcome_branches > 1));
    }
}
