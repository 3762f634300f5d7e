//! Emits `BENCH_formal.json` — the formal equivalence oracle's perf
//! profile (DESIGN.md §16).
//!
//! Three measurements:
//!
//! 1. **AIG build** — `check_equiv` on self-equivalent pairs (every
//!    spec builder's correct emission against itself). Structural
//!    hashing makes both cones literally the same nodes, so no SAT and
//!    no simulation runs: the wall time is bitblasting + miter
//!    construction, and the node count is the hashed miter size.
//! 2. **refutation matrix** — every builder spec crossed with the
//!    emission-level hallucination channels, pushed through the cached
//!    [`FormalOracle`] (cold cache). Tallies verdicts, SAT decisions /
//!    conflicts / propagations, and end-to-end equivalence checks/sec.
//! 3. **counterexample replay** — every `Counterexample` verdict from
//!    the matrix must carry `replay_confirmed` (the oracle re-runs the
//!    decoded stimulus on the scalar compiled simulator and demands a
//!    bit-identical mismatch). The run asserts a 100% confirmation
//!    rate — an unconfirmed counterexample would mean the AIG semantics
//!    drifted from the executor's.
//!
//! ```sh
//! cargo run --release -p haven-bench --bin bench_formal [-- --quick] [-- --out path.json]
//! ```
//!
//! `--quick` trims seeds and timing iterations for CI smoke runs (the
//! JSON then carries `"quick": true` so dashboards don't mix the two).

use std::time::Instant;

use haven_bench::{bench_args, median};
use haven_engine::{Engine, EngineOptions, FormalOracle};
use haven_formal::{check_equiv, EquivOptions, EquivVerdict};
use haven_hash::rng::StdRng;
use haven_lm::hallucinate::{self, ConventionVariant, GenPlan};
use haven_spec::codegen::{emit, EmitStyle};
use haven_spec::formal::{equiv_options_for, formal_check};
use haven_spec::ir::ShiftDirection;
use haven_spec::{builders, Spec};
use haven_verilog::{compile, CompiledDesign, PassConfig};

fn builder_specs() -> Vec<Spec> {
    use haven_verilog::ast::BinaryOp;
    vec![
        builders::gate("f_gate", BinaryOp::BitXor),
        builders::adder("f_adder", 8),
        builders::mux2("f_mux", 4),
        builders::comparator("f_cmp", 4),
        builders::decoder("f_dec", 3),
        builders::fsm_ab("f_fsm"),
        builders::counter("f_cnt", 6, None),
        builders::counter("f_cntm", 4, Some(10)),
        builders::down_counter("f_down", 4, None),
        builders::shift_register("f_shl", 8, ShiftDirection::Left),
        builders::clock_divider("f_div", 5),
        builders::pipeline("f_pipe", 8, 3),
        builders::register("f_reg", 8),
    ]
}

type Corruptor = fn(&mut GenPlan, &mut StdRng);

fn corruption_channels() -> Vec<(&'static str, Corruptor)> {
    vec![
        ("attributes", |p, r| hallucinate::corrupt_attributes(p, r)),
        ("expression", |p, r| hallucinate::corrupt_expression(p, r)),
        ("corner_case", |p, r| hallucinate::corrupt_corner_case(p, r)),
        ("wrong_edge", |p, _| {
            p.style.edge_override = Some(haven_verilog::ast::Edge::Neg);
        }),
        ("blocking_in_seq", |p, _| {
            p.style.nonblocking_in_seq = false;
        }),
        ("missing_reset", |p, _| p.style.ignore_reset = true),
        ("registered_fsm_output", |p, _| {
            p.variant = ConventionVariant::RegisteredFsmOutput;
        }),
    ]
}

fn main() {
    let (quick, out_path) = bench_args("BENCH_formal.json");
    let iters = if quick { 5 } else { 31 };
    let seeds = if quick { 2u64 } else { 6 };

    // Phase 1: AIG build time — self-equivalence, structural by
    // construction (median of `iters` runs per design).
    let specs = builder_specs();
    eprintln!(
        "timing self-equivalence AIG builds over {} designs ({iters} iters)...",
        specs.len()
    );
    let base = EquivOptions::default();
    let mut build_us = Vec::new();
    let mut miter_nodes = Vec::new();
    for spec in &specs {
        let src = emit(spec, &EmitStyle::correct());
        let design = compile(&src).expect("correct emission compiles");
        let cd = CompiledDesign::new(design);
        let opts = equiv_options_for(spec, &base);
        let mut nodes = 0usize;
        build_us.push(median(
            (0..iters)
                .map(|_| {
                    let t = Instant::now();
                    let report = check_equiv(&cd, &cd, &opts);
                    let us = t.elapsed().as_nanos() as f64 / 1e3;
                    assert_eq!(
                        report.verdict,
                        EquivVerdict::Equivalent,
                        "{} self-check",
                        spec.name
                    );
                    assert!(report.structural, "{} self-check ran SAT", spec.name);
                    nodes = report.aig_nodes;
                    us
                })
                .collect(),
        ));
        miter_nodes.push(nodes as f64);
    }
    let build_median_us = median(build_us.clone());
    let build_total_us: f64 = build_us.iter().sum();
    let nodes_median = median(miter_nodes);

    // Phase 1b: pass-pipeline effect on AIG size (DESIGN.md §17). Each
    // design is bitblasted from the unoptimized and the fully optimized
    // netlist; the self-miter node counts isolate cone size. A cross
    // miter (unopt vs opt) is also discharged — the pipeline must never
    // be refutable against its own input.
    eprintln!("bitblasting pre/post-optimization netlists...");
    let (mut pre_total, mut post_total) = (0usize, 0usize);
    let (mut pre_nodes, mut post_nodes) = (Vec::new(), Vec::new());
    let (mut cross_equivalent, mut cross_unknown) = (0usize, 0usize);
    for spec in &specs {
        let src = emit(spec, &EmitStyle::correct());
        let design = compile(&src).expect("correct emission compiles");
        let unopt = CompiledDesign::with_passes(design.clone(), PassConfig::none());
        let opt = CompiledDesign::with_passes(design, PassConfig::full());
        let opts = equiv_options_for(spec, &base);
        let pre = check_equiv(&unopt, &unopt, &opts);
        let post = check_equiv(&opt, &opt, &opts);
        pre_total += pre.aig_nodes;
        post_total += post.aig_nodes;
        pre_nodes.push(pre.aig_nodes as f64);
        post_nodes.push(post.aig_nodes as f64);
        let cross = check_equiv(&unopt, &opt, &opts);
        match cross.verdict {
            EquivVerdict::Equivalent => cross_equivalent += 1,
            EquivVerdict::Unknown(_) => cross_unknown += 1,
            EquivVerdict::Counterexample(_) => {
                panic!(
                    "{}: optimized netlist refuted against unoptimized",
                    spec.name
                )
            }
        }
    }
    let pre_median = median(pre_nodes);
    let post_median = median(post_nodes);

    // Phase 2: refutation matrix through the cached oracle (cold).
    eprintln!(
        "running refutation matrix ({seeds} seeds x {} channels)...",
        7
    );
    let engine = Engine::new(EngineOptions::default());
    let oracle = FormalOracle::new(base.clone());
    let (mut equivalent, mut cex, mut unknown, mut unprepared) = (0usize, 0usize, 0usize, 0usize);
    let (mut decisions, mut conflicts, mut propagations) = (0u64, 0u64, 0u64);
    let mut cex_confirmed = 0usize;
    let mut checks = 0usize;
    // Channels that don't bite a spec class render byte-identical
    // sources; dedupe so checks/sec measures cold proofs, not LRU hits.
    let mut seen = std::collections::HashSet::new();
    let t = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        for (_, corrupt) in &corruption_channels() {
            for seed in 0..seeds {
                let mut rng = StdRng::seed_from_u64(seed * 131 + i as u64);
                let mut plan = GenPlan::faithful(spec.clone());
                corrupt(&mut plan, &mut rng);
                let src = haven_lm::generate::render(&plan);
                if !seen.insert((i, src.clone())) {
                    continue;
                }
                checks += 1;
                match formal_check(&engine, &oracle, spec, &src) {
                    Some(outcome) => {
                        decisions += outcome.report.sat_stats.decisions;
                        conflicts += outcome.report.sat_stats.conflicts;
                        propagations += outcome.report.sat_stats.propagations;
                        match &outcome.report.verdict {
                            EquivVerdict::Equivalent => equivalent += 1,
                            EquivVerdict::Counterexample(_) => {
                                cex += 1;
                                if outcome.replay_confirmed {
                                    cex_confirmed += 1;
                                }
                            }
                            EquivVerdict::Unknown(_) => unknown += 1,
                        }
                    }
                    None => unprepared += 1,
                }
            }
        }
    }
    let matrix_s = t.elapsed().as_secs_f64();
    let checks_per_sec = checks as f64 / matrix_s.max(1e-9);
    let replay_rate = if cex == 0 {
        1.0
    } else {
        cex_confirmed as f64 / cex as f64
    };
    assert!(cex >= 1, "acceptance: the matrix must refute something");
    assert_eq!(
        cex_confirmed, cex,
        "acceptance: every counterexample must be confirmed by bit-identical replay"
    );

    let json = format!(
        "{{\n  \"bench\": \"formal\",\n  \"quick\": {quick},\n  \"designs\": {},\n  \"aig_build\": {{\"median_us\": {build_median_us:.1}, \"total_us\": {build_total_us:.1}, \"median_miter_nodes\": {nodes_median:.0}}},\n  \"pass_pipeline\": {{\"median_pre_nodes\": {pre_median:.0}, \"median_post_nodes\": {post_median:.0}, \"total_pre_nodes\": {pre_total}, \"total_post_nodes\": {post_total}, \"cross_equivalent\": {cross_equivalent}, \"cross_unknown\": {cross_unknown}, \"cross_counterexample\": 0}},\n  \"matrix\": {{\"checks\": {checks}, \"seconds\": {matrix_s:.3}, \"checks_per_sec\": {checks_per_sec:.1}, \"equivalent\": {equivalent}, \"counterexample\": {cex}, \"unknown\": {unknown}, \"unprepared\": {unprepared}}},\n  \"sat\": {{\"decisions\": {decisions}, \"conflicts\": {conflicts}, \"propagations\": {propagations}}},\n  \"cex_replay\": {{\"total\": {cex}, \"confirmed\": {cex_confirmed}, \"rate\": {replay_rate:.3}}}\n}}\n",
        specs.len(),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_formal.json");

    println!(
        "AIG build (self-equiv, structural): median {build_median_us:.1} us/design, median miter {nodes_median:.0} nodes"
    );
    println!(
        "pass pipeline: miter nodes {pre_total} -> {post_total} (median {pre_median:.0} -> {post_median:.0}), cross-miters {cross_equivalent} equivalent / {cross_unknown} unknown"
    );
    println!(
        "refutation matrix: {checks} checks in {matrix_s:.2} s ({checks_per_sec:.1} checks/s) — {equivalent} equivalent / {cex} counterexample / {unknown} unknown / {unprepared} unprepared"
    );
    println!("SAT core: {decisions} decisions, {conflicts} conflicts, {propagations} propagations");
    println!(
        "counterexample replay confirmation: {cex_confirmed}/{cex} ({:.1}%)",
        100.0 * replay_rate
    );
    println!("wrote {out_path}");
}
