//! Differential property tests for the netlist pass pipeline: across the
//! full builder population, every emission style (correct plus each
//! hallucination class) and randomized stimulus programs, bytecode
//! emitted from the *optimized* word-level netlist must produce
//! [`CosimReport`]s bit-identical to the reference interpreter — under
//! every individual pass and under the full pipeline. A second family of
//! properties pins that the pipeline is invisible to *budget* accounting:
//! two compiled engines that differ only in [`PassConfig`] report
//! bit-identically under arbitrary (including starved) budgets, because
//! work is charged per process activation and loop iteration, never per
//! bytecode op.
//!
//! Generation is hand-rolled and seeded (xorshift) like
//! `prop_backends.rs`, so every case executes in the offline build and
//! failures replay deterministically.

use haven_engine::{Engine, EngineOptions};
use haven_spec::builders;
use haven_spec::codegen::{emit, EmitStyle};
use haven_spec::cosim::{
    cosimulate_artifact, cosimulate_with, CosimOptions, CosimReport, SimBackend, SimBudget,
};
use haven_spec::ir::{AluOp, ShiftDirection};
use haven_spec::stimuli::{stimuli_for, Stimuli};
use haven_spec::Spec;
use haven_verilog::analyze::ResetKind;
use haven_verilog::ast::Edge;
use haven_verilog::PassConfig;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The full builder population — every design family the oracle sees.
fn population() -> Vec<Spec> {
    vec![
        builders::gate("d_gate", haven_verilog::ast::BinaryOp::BitXor),
        builders::adder("d_add", 8),
        builders::mux2("d_mux", 4),
        builders::comparator("d_cmp", 5),
        builders::decoder("d_dec", 3),
        builders::truth_table_spec(
            "d_tt",
            vec!["a".into(), "b".into(), "c".into()],
            vec!["y".into(), "z".into()],
            (0..8).map(|i| (i, i * 3 % 4)).collect(),
        ),
        builders::fsm_ab("d_fsm"),
        builders::fsm(
            "d_fsm4",
            vec!["S0".into(), "S1".into(), "S2".into(), "S3".into()],
            0,
            vec![(1, 0), (2, 1), (3, 0), (3, 3)],
            vec![0, 0, 1, 1],
        ),
        builders::counter("d_cnt", 4, Some(10)),
        builders::counter("d_cnt2", 6, None),
        builders::down_counter("d_dcnt", 4, Some(9)),
        builders::shift_register("d_sr", 8, ShiftDirection::Right),
        builders::shift_register("d_sl", 5, ShiftDirection::Left),
        builders::clock_divider("d_cd", 3),
        builders::pipeline("d_pipe", 8, 3),
        builders::register("d_reg", 16),
        builders::alu(
            "d_alu",
            8,
            vec![AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Xor],
        ),
    ]
}

/// Emission styles covering pass verdicts and every hallucination class
/// the oracle distinguishes.
fn styles() -> Vec<EmitStyle> {
    vec![
        EmitStyle::correct(),
        EmitStyle {
            edge_override: Some(Edge::Neg),
            ..EmitStyle::correct()
        },
        EmitStyle {
            reset_kind_override: Some(ResetKind::Sync),
            ..EmitStyle::correct()
        },
        EmitStyle {
            flip_enable_polarity: true,
            ..EmitStyle::correct()
        },
        EmitStyle {
            nonblocking_in_seq: false,
            ..EmitStyle::correct()
        },
    ]
}

/// Each pass in isolation, the empty pipeline, and the full pipeline.
fn configs() -> Vec<(&'static str, PassConfig)> {
    let only = |f: fn(&mut PassConfig)| {
        let mut p = PassConfig::none();
        f(&mut p);
        p
    };
    vec![
        ("none", PassConfig::none()),
        ("normalize", only(|p| p.normalize = true)),
        ("constfold", only(|p| p.constfold = true)),
        ("lower", only(|p| p.lower = true)),
        ("rebalance", only(|p| p.rebalance = true)),
        ("full", PassConfig::full()),
    ]
}

fn compiled_with(
    passes: PassConfig,
    spec: &Spec,
    source: &str,
    stim: &Stimuli,
    budget: SimBudget,
) -> CosimReport {
    let engine = Engine::new(EngineOptions {
        backend: SimBackend::Compiled,
        budget,
        cache_capacity: 4,
        passes,
    });
    let options = CosimOptions {
        mid_tick_checks: true,
        budget,
        backend: SimBackend::Compiled,
    };
    match engine.prepare(source) {
        Ok(artifact) => cosimulate_artifact(spec, &engine, &artifact, stim, &options),
        // Syntax failures never reach the pipeline; mirror the one-shot
        // path's classification so reports stay comparable.
        Err(_) => cosimulate_with(spec, source, stim, &options),
    }
}

fn interpreter(spec: &Spec, source: &str, stim: &Stimuli, budget: SimBudget) -> CosimReport {
    let options = CosimOptions {
        mid_tick_checks: true,
        budget,
        backend: SimBackend::Interpreter,
    };
    cosimulate_with(spec, source, stim, &options)
}

/// The tentpole property: for every design family × hallucination style,
/// the interpreter and the optimized-netlist compiled backend report
/// bit-identically — per individual pass and under the full pipeline.
/// A rewrite that is unsound for any four-state corner (x-poisoning
/// arithmetic, z-coercion in logic ops, width-changing identities) shows
/// up here as a verdict or checkpoint divergence.
#[test]
fn optimized_netlist_is_verdict_identical_with_interpreter() {
    let mut rng = Rng(0x6e7115_u64 ^ 0x9a55e5_u64);
    for spec in population() {
        for style in styles() {
            let source = emit(&spec, &style);
            let stim = stimuli_for(&spec, rng.next());
            let base = interpreter(&spec, &source, &stim, SimBudget::default());
            for (name, passes) in configs() {
                let opt = compiled_with(passes, &spec, &source, &stim, SimBudget::default());
                assert_eq!(
                    base, opt,
                    "{} (pass config `{name}`): optimized backend diverged\nsource:\n{source}",
                    spec.name
                );
            }
        }
    }
}

/// Budget invisibility: under arbitrary budgets — including ones starved
/// enough to exhaust mid-run — the unoptimized and fully-optimized
/// compiled engines must report bit-identically, because budget charges
/// count process activations and loop iterations, not bytecode ops. This
/// is what lets the pipeline shrink bytecode without perturbing any
/// `ResourceExhausted` verdict a consumer has cached.
#[test]
fn pass_pipeline_is_invisible_to_budget_accounting() {
    let mut rng = Rng(0xb06e7_u64);
    let pop = population();
    for case in 0..120 {
        let spec = &pop[rng.below(pop.len() as u64) as usize];
        let source = emit(spec, &EmitStyle::correct());
        let budget = SimBudget {
            max_settle_per_step: 1 + rng.below(64) as usize,
            max_loop_iterations: 1 + rng.below(16) as usize,
            max_ticks: 1 + rng.below(8) as usize,
            max_total_work: 1 + rng.below(256) as usize,
        };
        let stim = stimuli_for(spec, rng.next());
        let unopt = compiled_with(PassConfig::none(), spec, &source, &stim, budget);
        let opt = compiled_with(PassConfig::full(), spec, &source, &stim, budget);
        assert_eq!(
            unopt, opt,
            "case {case} ({}): pass pipeline perturbed budget accounting",
            spec.name
        );
    }
}

/// The pipeline only ever removes or shares work: across the population,
/// optimized artifacts carry bytecode no larger than the unoptimized
/// ones, and the netlist rung plus its pass stats are always present on
/// the compiled backend.
#[test]
fn optimized_artifacts_shrink_and_carry_the_netlist_rung() {
    let total_ops = |cd: &haven_verilog::CompiledDesign| -> usize {
        (0..cd.chunk_count() as u32).map(|i| cd.expr(i).len()).sum()
    };
    for spec in population() {
        let source = emit(&spec, &EmitStyle::correct());
        let opt_engine = Engine::new(EngineOptions::default());
        let unopt_engine = Engine::new(EngineOptions {
            passes: PassConfig::none(),
            ..EngineOptions::default()
        });
        let opt = opt_engine.prepare(&source).expect("population compiles");
        let unopt = unopt_engine.prepare(&source).expect("population compiles");
        let (ocd, ucd) = (
            opt.bytecode().expect("compiled backend"),
            unopt.bytecode().expect("compiled backend"),
        );
        assert!(
            total_ops(ocd) <= total_ops(ucd),
            "{}: optimization grew bytecode ({} > {})",
            spec.name,
            total_ops(ocd),
            total_ops(ucd)
        );
        assert!(
            opt.netlist().is_some(),
            "{}: netlist rung missing",
            spec.name
        );
        let stats = opt.pass_stats().expect("compiled backend has pass stats");
        assert!(stats.rounds >= 1, "{}: pipeline never ran", spec.name);
    }
}
