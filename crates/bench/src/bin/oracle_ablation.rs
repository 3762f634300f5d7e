//! Ablation of the functional-oracle design decisions (DESIGN.md §5):
//! which corruption families would slip through a weaker testbench?
//!
//! Compares detection rates of each hallucination corruption under:
//!
//! * **full** — the shipped oracle (discriminating stimulus episodes +
//!   mid-tick checkpoints);
//! * **no-midtick** — post-edge sampling only (wrong-clock-edge bugs
//!   become invisible);
//! * **naive** — a plain reset-then-run-random-cycles testbench with no
//!   edge-free async-reset probe and no enable hold window.
//!
//! A second table quantifies the **stimulus-miss rate**: every corrupted
//! candidate the naive testbench false-passes is handed to the formal
//! equivalence oracle, which decides all input assignments at once and
//! (being stimulus-free) catches exactly the misses a weakened
//! testbench is blind to. The run asserts at least one such recovery —
//! the formal rung must demonstrably add discrimination power, not just
//! agree with cosim.
//!
//! ```sh
//! cargo run --release -p haven-bench --bin oracle_ablation [-- --quick]
//! ```

use haven_engine::{Engine, EngineOptions, FormalOracle};
use haven_eval::report::Table;
use haven_formal::{EquivOptions, EquivVerdict};
use haven_hash::rng::StdRng;
use haven_lm::hallucinate::{self, ConventionVariant, GenPlan};
use haven_spec::cosim::{cosimulate_with, CosimOptions, Verdict};
use haven_spec::formal::formal_check;
use haven_spec::ir::{EnableSpec, ShiftDirection, Spec};
use haven_spec::stimuli::{stimuli_for, Stimuli, StimulusStep};
use haven_spec::{builders, codegen::EmitStyle};

/// A naive testbench: assert reset across one tick, release, then run
/// random data for the same cycle count — no discriminating episodes.
fn naive_stimuli(spec: &Spec, seed: u64) -> Stimuli {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::new();
    for p in &spec.inputs {
        steps.push(StimulusStep::Set(p.name.clone(), 0));
    }
    if let Some(en) = &spec.attrs.enable {
        steps.push(StimulusStep::Set(
            en.name.clone(),
            u64::from(en.active_high),
        ));
    }
    if let Some(r) = &spec.attrs.reset {
        let assert_level = u64::from(r.asserted_by(true));
        steps.push(StimulusStep::Set(r.name.clone(), assert_level));
        steps.push(StimulusStep::Tick);
        steps.push(StimulusStep::Set(r.name.clone(), 1 - assert_level));
    }
    for _ in 0..48 {
        for p in &spec.inputs {
            steps.push(StimulusStep::Set(p.name.clone(), rng.gen()));
        }
        steps.push(StimulusStep::Tick);
        steps.push(StimulusStep::Check);
    }
    Stimuli { steps }
}

fn specimens() -> Vec<Spec> {
    let mut specs = vec![
        builders::counter("s_cnt", 4, Some(10)),
        builders::shift_register("s_sr", 8, ShiftDirection::Left),
        builders::clock_divider("s_div", 3),
        builders::pipeline("s_pipe", 8, 2),
        builders::fsm_ab("s_fsm"),
    ];
    for s in &mut specs {
        s.attrs.enable = Some(EnableSpec {
            name: "en".into(),
            active_high: true,
        });
    }
    specs
}

type Corruptor = fn(&mut GenPlan, &mut StdRng);

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds = if quick { 3u64 } else { 8 };
    let corruptions: Vec<(&str, Corruptor)> = vec![
        ("wrong reset kind / polarity", |p, r| {
            hallucinate::corrupt_attributes(p, r)
        }),
        ("wrong clock edge", |p, _| {
            p.style.edge_override = Some(haven_verilog::ast::Edge::Neg);
        }),
        ("flipped enable polarity", |p, _| {
            p.style.flip_enable_polarity = true;
        }),
        ("blocking in sequential", |p, _| {
            p.style.nonblocking_in_seq = false;
        }),
        ("missing reset branch", |p, _| p.style.ignore_reset = true),
        ("registered FSM output", |p, _| {
            p.variant = ConventionVariant::RegisteredFsmOutput;
        }),
    ];

    let engine = Engine::new(EngineOptions::default());
    let oracle = FormalOracle::new(EquivOptions::default());

    let mut table = Table::new(vec![
        "Corruption",
        "full oracle",
        "no mid-tick",
        "naive testbench",
    ]);
    let mut miss_table = Table::new(vec![
        "Corruption",
        "naive false-passes",
        "formally refuted",
        "formal unknown",
    ]);
    let mut total_misses = 0usize;
    let mut total_recovered = 0usize;
    for (label, corrupt) in &corruptions {
        let mut caught = [0usize; 3];
        let mut total = 0usize;
        let (mut misses, mut refuted, mut unknown) = (0usize, 0usize, 0usize);
        for (i, spec) in specimens().iter().enumerate() {
            for seed in 0..seeds {
                let mut rng = StdRng::seed_from_u64(seed * 31 + i as u64);
                let mut plan = GenPlan::faithful(spec.clone());
                corrupt(&mut plan, &mut rng);
                let src = haven_lm::generate::render(&plan);
                // Skip corruption/spec combos that are identical to the
                // correct code (e.g. FSM-only variants on a counter).
                if src == haven_spec::codegen::emit(spec, &EmitStyle::correct())
                    && plan.variant == ConventionVariant::Standard
                {
                    continue;
                }
                total += 1;
                let full = stimuli_for(spec, seed);
                let naive = naive_stimuli(spec, seed);
                let on = CosimOptions {
                    mid_tick_checks: true,
                    ..CosimOptions::default()
                };
                let off = CosimOptions {
                    mid_tick_checks: false,
                    ..CosimOptions::default()
                };
                let runs = [
                    cosimulate_with(spec, &src, &full, &on),
                    cosimulate_with(spec, &src, &full, &off),
                    cosimulate_with(spec, &src, &naive, &off),
                ];
                for (k, rep) in runs.iter().enumerate() {
                    if !matches!(rep.verdict, Verdict::Pass) {
                        caught[k] += 1;
                    }
                }
                // Stimulus-miss: the naive testbench passed a corrupted
                // candidate. The formal oracle sees every assignment —
                // if it produces a replay-confirmed counterexample, the
                // miss is recovered without any stimulus authoring.
                if matches!(runs[2].verdict, Verdict::Pass) {
                    misses += 1;
                    match formal_check(&engine, &oracle, spec, &src)
                        .map(|o| o.report.verdict.clone())
                    {
                        Some(EquivVerdict::Counterexample(_)) => refuted += 1,
                        Some(EquivVerdict::Equivalent) => {}
                        Some(EquivVerdict::Unknown(_)) | None => unknown += 1,
                    }
                }
            }
        }
        total_misses += misses;
        total_recovered += refuted;
        miss_table.row(vec![
            label.to_string(),
            misses.to_string(),
            refuted.to_string(),
            unknown.to_string(),
        ]);
        let pct = |c: usize| {
            if total == 0 {
                "n/a".to_string()
            } else {
                format!("{:.0}% ({c}/{total})", 100.0 * c as f64 / total as f64)
            }
        };
        table.row(vec![
            label.to_string(),
            pct(caught[0]),
            pct(caught[1]),
            pct(caught[2]),
        ]);
    }
    println!("\nOracle ablation — corruption detection rate by testbench strength\n");
    println!("{}", table.render());
    println!("Reading: the discriminating episodes (async probe without a clock edge, enable hold window, mid-tick checkpoint) are what make attribute-level hallucinations *observable*; a naive testbench would silently pass much of the taxonomy.");
    println!("Note: each corruption is applied to all five specimen designs; corruptions that only bite one design class (blocking → multi-stage pipelines, registered output → FSMs) correctly cap at the share of applicable specimens.");

    println!(
        "\nStimulus-miss recovery — naive-testbench false-passes re-judged by the formal oracle\n"
    );
    println!("{}", miss_table.render());
    println!(
        "Reading: of {total_misses} corrupted candidates the naive testbench false-passed, the formal oracle refuted {total_recovered} with replay-confirmed counterexamples — discrimination a finite stimulus program cannot buy without authoring exactly the right episode."
    );
    assert!(
        total_recovered >= 1,
        "acceptance: the formal oracle must recover at least one stimulus miss"
    );
}
