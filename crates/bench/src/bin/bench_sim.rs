//! Emits `BENCH_sim.json` — the simulator perf trajectory (DESIGN.md §10).
//!
//! Measures steady-state cost per stimulus step (median ns/tick over many
//! batches, simulator constructed once outside the timed region) for the
//! reference interpreter and the compiled bytecode backend on the same
//! hand-written design shapes, the
//! eval-harness memoization hit-rate on a small representative suite,
//! verdicts/sec of the scalar vs bit-parallel batched co-simulation on
//! the eval screening workload (DESIGN.md §15), and the netlist pass
//! pipeline's effect — ns/tick and total bytecode ops with
//! `PassConfig::none` vs `PassConfig::full` (DESIGN.md §17).
//!
//! ```sh
//! cargo run --release -p haven-bench --bin bench_sim [-- --out path.json] [-- --quick]
//! ```
//!
//! `--quick` shrinks every timed region for CI smoke runs; the JSON
//! layout is identical.

use std::time::Instant;

use haven_bench::{bench_args, median};
use haven_engine::{DutSession, Engine, EngineOptions, SimBackend};
use haven_eval::harness::{evaluate, EvalConfig};
use haven_eval::suites;
use haven_lm::profiles::ModelProfile;
use haven_spec::codegen::{emit, EmitStyle};
use haven_spec::cosim::{cosimulate_artifact, cosimulate_batch_planned, BatchPlan, CosimOptions};
use haven_spec::stimuli::stimuli_for;
use haven_spec::{builders, Spec};
use haven_verilog::sim::SimBudget;
use haven_verilog::{CompiledDesign, PassConfig};

/// Sizes of every timed region, selected by `--quick`.
struct BenchScale {
    ticks_per_batch: usize,
    batches: usize,
    /// Verdicts per (design, backend) point in the screening section.
    screen_repeats: usize,
}

const FULL: BenchScale = BenchScale {
    ticks_per_batch: 2_000,
    batches: 31,
    screen_repeats: 300,
};

const QUICK: BenchScale = BenchScale {
    ticks_per_batch: 400,
    batches: 7,
    screen_repeats: 40,
};

const COUNTER_SRC: &str = "module cnt(input clk, input rst_n, input en, output reg [31:0] q);
    always @(posedge clk or negedge rst_n)
        if (!rst_n) q <= 32'd0;
        else if (en) q <= q + 32'd1;
endmodule";

const ADDER_SRC: &str = "module addtree(input [15:0] a, input [15:0] b, input [15:0] c, input [15:0] d, output [17:0] s);
    wire [16:0] ab;
    wire [16:0] cd;
    assign ab = {1'b0, a} + {1'b0, b};
    assign cd = {1'b0, c} + {1'b0, d};
    assign s = {1'b0, ab} + {1'b0, cd};
endmodule";

const FSM_SRC: &str = "module fsm(input clk, input rst_n, input x, output reg out);
    localparam S_A = 1'd0, S_B = 1'd1;
    reg state, next_state;
    always @(posedge clk or negedge rst_n)
        if (!rst_n) state <= S_A;
        else state <= next_state;
    always @(*)
        case (state)
            S_A: next_state = x ? S_A : S_B;
            S_B: next_state = x ? S_B : S_A;
            default: next_state = S_A;
        endcase
    always @(*)
        case (state)
            S_A: out = 1'd0;
            S_B: out = 1'd1;
            default: out = 1'd0;
        endcase
endmodule";

const PIPE_SRC: &str = "module pipe(input clk, input rst_n, input [15:0] d, output reg [15:0] q);
    reg [15:0] s0, s1, s2;
    always @(posedge clk or negedge rst_n)
        if (!rst_n) s0 <= 16'd0; else s0 <= d + 16'd1;
    always @(posedge clk or negedge rst_n)
        if (!rst_n) s1 <= 16'd0; else s1 <= s0 ^ 16'h5a5a;
    always @(posedge clk or negedge rst_n)
        if (!rst_n) s2 <= 16'd0; else s2 <= s1 + s0;
    always @(posedge clk or negedge rst_n)
        if (!rst_n) q <= 16'd0; else q <= s2;
endmodule";

/// Steady-state median ns per step: warm up one full batch, then time
/// `scale.batches` batches of `scale.ticks_per_batch` steps and take the
/// median batch average. Construction and time-zero settle stay outside
/// the clock.
fn time_steps(scale: &BenchScale, mut step: impl FnMut(usize)) -> f64 {
    for i in 0..scale.ticks_per_batch {
        step(i);
    }
    let mut per_tick = Vec::with_capacity(scale.batches);
    for b in 0..scale.batches {
        let t0 = Instant::now();
        for i in 0..scale.ticks_per_batch {
            step(b * scale.ticks_per_batch + i);
        }
        per_tick.push(t0.elapsed().as_nanos() as f64 / scale.ticks_per_batch as f64);
    }
    median(per_tick)
}

/// One step of a clocked design: alternate the data input, then tick.
/// Handles resolve once up front through the session's cache, so the
/// timed region drives pre-resolved ids on either backend.
fn seq_steps(scale: &BenchScale, dut: &mut DutSession, data: Option<&str>) -> f64 {
    let rst = dut.resolve("rst_n").expect("bench signal exists");
    dut.poke_id_u64(rst, 0).expect("bench poke is valid");
    dut.poke_id_u64(rst, 1).expect("bench poke is valid");
    let clk = dut.resolve("clk").expect("bench signal exists");
    let data = data.map(|name| dut.resolve(name).expect("bench signal exists"));
    time_steps(scale, |i| {
        if let Some(d) = data {
            dut.poke_id_u64(d, (i as u64) & 0xffff)
                .expect("bench poke is valid");
        }
        dut.tick_id(clk).expect("bench tick is valid");
    })
}

/// One step of a pure-comb design: poke two inputs with fresh values.
fn comb_steps(scale: &BenchScale, dut: &mut DutSession) -> f64 {
    let a = dut.resolve("a").expect("bench signal exists");
    let b = dut.resolve("b").expect("bench signal exists");
    time_steps(scale, |i| {
        dut.poke_id_u64(a, (i as u64) & 0xffff)
            .expect("bench poke is valid");
        dut.poke_id_u64(b, ((i as u64) * 7 + 3) & 0xffff)
            .expect("bench poke is valid");
    })
}

struct Row {
    name: &'static str,
    kind: &'static str,
    levelized: bool,
    interp_ns: f64,
    compiled_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.interp_ns / self.compiled_ns
    }
}

fn bench_design(
    scale: &BenchScale,
    name: &'static str,
    kind: &'static str,
    src: &str,
    data: Option<&str>,
) -> Row {
    let interp_engine = Engine::uncached(SimBackend::Interpreter, SimBudget::default());
    let compiled_engine = Engine::uncached(SimBackend::Compiled, SimBudget::default());
    let interp_art = interp_engine.prepare(src).expect("bench design compiles");
    let compiled_art = compiled_engine.prepare(src).expect("bench design compiles");
    let levelized = compiled_art
        .bytecode()
        .expect("compiled artifact carries bytecode")
        .is_levelized();

    let mut interp = interp_engine
        .session(&interp_art)
        .expect("bench design simulates");
    let interp_ns = match kind {
        "combinational" => comb_steps(scale, &mut interp),
        _ => seq_steps(scale, &mut interp, data),
    };

    let mut fast = compiled_engine
        .session(&compiled_art)
        .expect("bench design executes");
    let compiled_ns = match kind {
        "combinational" => comb_steps(scale, &mut fast),
        _ => seq_steps(scale, &mut fast, data),
    };

    Row {
        name,
        kind,
        levelized,
        interp_ns,
        compiled_ns,
    }
}

/// One design's cost with the netlist pass pipeline off vs on
/// (DESIGN.md §17): same compiled backend, same stimulus loop, only
/// `PassConfig` differs. `ops_*` count total bytecode ops across every
/// expression chunk, the quantity the pipeline exists to shrink.
struct PassRow {
    name: &'static str,
    kind: &'static str,
    unopt_ns: f64,
    opt_ns: f64,
    ops_pre: usize,
    ops_post: usize,
}

impl PassRow {
    fn tick_ratio(&self) -> f64 {
        self.unopt_ns / self.opt_ns
    }

    fn op_shrink(&self) -> f64 {
        1.0 - self.ops_post as f64 / self.ops_pre.max(1) as f64
    }
}

fn total_ops(cd: &CompiledDesign) -> usize {
    (0..cd.chunk_count() as u32).map(|i| cd.expr(i).len()).sum()
}

fn bench_passes(
    scale: &BenchScale,
    name: &'static str,
    kind: &'static str,
    src: &str,
    data: Option<&str>,
) -> PassRow {
    let engine_with = |passes| {
        Engine::new(EngineOptions {
            backend: SimBackend::Compiled,
            budget: SimBudget::default(),
            cache_capacity: 4,
            passes,
        })
    };
    let unopt_engine = engine_with(PassConfig::none());
    let opt_engine = engine_with(PassConfig::full());
    let unopt_art = unopt_engine.prepare(src).expect("bench design compiles");
    let opt_art = opt_engine.prepare(src).expect("bench design compiles");
    let ops_pre = total_ops(unopt_art.bytecode().expect("compiled backend"));
    let ops_post = total_ops(opt_art.bytecode().expect("compiled backend"));

    let mut unopt = unopt_engine
        .session(&unopt_art)
        .expect("bench design executes");
    let unopt_ns = match kind {
        "combinational" => comb_steps(scale, &mut unopt),
        _ => seq_steps(scale, &mut unopt, data),
    };
    let mut opt = opt_engine.session(&opt_art).expect("bench design executes");
    let opt_ns = match kind {
        "combinational" => comb_steps(scale, &mut opt),
        _ => seq_steps(scale, &mut opt, data),
    };

    PassRow {
        name,
        kind,
        unopt_ns,
        opt_ns,
        ops_pre,
        ops_post,
    }
}

fn dedup_rate() -> (usize, usize) {
    let suite: Vec<_> = suites::verilog_eval_machine(1)
        .into_iter()
        .take(12)
        .collect();
    let cfg = EvalConfig::quick(5);
    let result = evaluate(&ModelProfile::uniform("mid", 0.6), &suite, &cfg)
        .expect("bench eval config is valid by construction");
    (result.dedup_hits(), suite.len() * cfg.n)
}

/// One design's scalar-vs-batched screening throughput.
struct ScreenRow {
    name: String,
    scalar_vps: f64,
    batched_vps: f64,
    /// All three reports (interpreter, scalar compiled, batched) equal.
    bit_identical: bool,
}

impl ScreenRow {
    fn speedup(&self) -> f64 {
        self.batched_vps / self.scalar_vps
    }
}

/// The screening workload: combinational candidate sweeps, the shape the
/// eval harness spends its simulation time on (one verdict = one full
/// co-simulation of one candidate against its stimulus program). Widths
/// track the top of the ranges `suites::verilog_eval_machine` draws from,
/// so the numbers transfer to real eval runs.
fn screening_specs() -> Vec<Spec> {
    vec![
        builders::adder("screen_add8", 8),
        builders::mux2("screen_mux8", 8),
        builders::comparator("screen_cmp6", 6),
        builders::decoder("screen_dec3", 3),
    ]
}

/// Scalar vs bit-parallel verdict throughput on the screening workload,
/// with every batched report checked bit-identical against both the
/// scalar compiled run and the reference-interpreter oracle.
fn verdicts_per_second(scale: &BenchScale) -> (Vec<ScreenRow>, f64, f64) {
    let compiled = |cache| {
        Engine::new(EngineOptions {
            backend: SimBackend::Compiled,
            budget: SimBudget::default(),
            cache_capacity: cache,
            ..EngineOptions::default()
        })
    };
    let scalar_engine = compiled(64);
    let batched_engine = compiled(64);
    let interp_engine = Engine::new(EngineOptions {
        backend: SimBackend::Interpreter,
        budget: SimBudget::default(),
        cache_capacity: 64,
        ..EngineOptions::default()
    });

    let mut rows = Vec::new();
    let (mut scalar_total, mut batched_total) = (0.0f64, 0.0f64);
    for spec in screening_specs() {
        let source = emit(&spec, &EmitStyle::correct());
        let stim = stimuli_for(&spec, 0xb1697);
        let options = CosimOptions {
            mid_tick_checks: true,
            budget: SimBudget::default(),
            backend: SimBackend::Compiled,
        };
        let interp_options = CosimOptions {
            backend: SimBackend::Interpreter,
            ..options
        };
        let scalar_art = scalar_engine
            .prepare(&source)
            .expect("screening design compiles");
        let batched_art = batched_engine
            .prepare(&source)
            .expect("screening design compiles");
        let interp_art = interp_engine
            .prepare(&source)
            .expect("screening design compiles");

        // Differential oracle check (untimed): the batched verdict must
        // be bit-identical to both scalar runs.
        let interp_report =
            cosimulate_artifact(&spec, &interp_engine, &interp_art, &stim, &interp_options);
        let scalar_report =
            cosimulate_artifact(&spec, &scalar_engine, &scalar_art, &stim, &options);
        // One plan per design, exactly like the eval harness: the task's
        // stimulus program is shared by every candidate, so the golden
        // sweep is amortized and the timed loop measures per-candidate
        // cost only (pokes + settles + divergence masks).
        let plan = BatchPlan::new(&spec, &stim);
        let batched_report =
            cosimulate_batch_planned(&spec, &batched_engine, &batched_art, &stim, &options, &plan);
        let bit_identical = interp_report == scalar_report && scalar_report == batched_report;

        let t0 = Instant::now();
        for _ in 0..scale.screen_repeats {
            let _ = cosimulate_artifact(&spec, &scalar_engine, &scalar_art, &stim, &options);
        }
        let scalar_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..scale.screen_repeats {
            let _ = cosimulate_batch_planned(
                &spec,
                &batched_engine,
                &batched_art,
                &stim,
                &options,
                &plan,
            );
        }
        let batched_s = t0.elapsed().as_secs_f64();

        scalar_total += scalar_s;
        batched_total += batched_s;
        rows.push(ScreenRow {
            name: spec.name.clone(),
            scalar_vps: scale.screen_repeats as f64 / scalar_s,
            batched_vps: scale.screen_repeats as f64 / batched_s,
            bit_identical,
        });
    }
    let verdicts = (rows.len() * scale.screen_repeats) as f64;
    (rows, verdicts / scalar_total, verdicts / batched_total)
}

fn main() {
    let (quick, out_path) = bench_args("BENCH_sim.json");
    let scale = if quick { QUICK } else { FULL };

    eprintln!(
        "timing backends ({} ticks x {} batches per point{})...",
        scale.ticks_per_batch,
        scale.batches,
        if quick { ", quick" } else { "" }
    );
    let rows = vec![
        bench_design(&scale, "counter32", "sequential", COUNTER_SRC, None),
        bench_design(&scale, "addtree16", "combinational", ADDER_SRC, None),
        bench_design(&scale, "fsm2", "mixed", FSM_SRC, Some("x")),
        bench_design(&scale, "pipe4x16", "sequential", PIPE_SRC, Some("d")),
    ];

    eprintln!("timing pass pipeline off vs on...");
    let pass_rows = vec![
        bench_passes(&scale, "counter32", "sequential", COUNTER_SRC, None),
        bench_passes(&scale, "addtree16", "combinational", ADDER_SRC, None),
        bench_passes(&scale, "fsm2", "mixed", FSM_SRC, Some("x")),
        bench_passes(&scale, "pipe4x16", "sequential", PIPE_SRC, Some("d")),
    ];

    eprintln!("measuring batched screening throughput...");
    let (screen_rows, scalar_vps, batched_vps) = verdicts_per_second(&scale);
    let screen_speedup = batched_vps / scalar_vps;
    let all_identical = screen_rows.iter().all(|r| r.bit_identical);

    eprintln!("measuring memoization hit-rate...");
    let (dedup_hits, total_samples) = dedup_rate();

    let median_speedup = median(rows.iter().map(Row::speedup).collect());

    let mut design_json = Vec::new();
    for r in &rows {
        design_json.push(format!(
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"levelized\": {}, \"interp_ns_per_tick\": {:.1}, \"compiled_ns_per_tick\": {:.1}, \"speedup\": {:.2}}}",
            r.name,
            r.kind,
            r.levelized,
            r.interp_ns,
            r.compiled_ns,
            r.speedup()
        ));
    }
    let mut pass_json = Vec::new();
    for r in &pass_rows {
        pass_json.push(format!(
            "      {{\"name\": \"{}\", \"kind\": \"{}\", \"unopt_ns_per_tick\": {:.1}, \"opt_ns_per_tick\": {:.1}, \"tick_ratio\": {:.2}, \"ops_pre\": {}, \"ops_post\": {}, \"op_shrink\": {:.3}}}",
            r.name,
            r.kind,
            r.unopt_ns,
            r.opt_ns,
            r.tick_ratio(),
            r.ops_pre,
            r.ops_post,
            r.op_shrink()
        ));
    }
    let median_tick_ratio = median(pass_rows.iter().map(PassRow::tick_ratio).collect());
    let (ops_pre_total, ops_post_total) = pass_rows.iter().fold((0usize, 0usize), |(p, q), r| {
        (p + r.ops_pre, q + r.ops_post)
    });
    let mut screen_json = Vec::new();
    for r in &screen_rows {
        screen_json.push(format!(
            "      {{\"name\": \"{}\", \"scalar_verdicts_per_sec\": {:.0}, \"batched_verdicts_per_sec\": {:.0}, \"speedup\": {:.2}, \"bit_identical\": {}}}",
            r.name,
            r.scalar_vps,
            r.batched_vps,
            r.speedup(),
            r.bit_identical
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"sim_backends\",\n  \"ticks_per_batch\": {},\n  \"batches\": {},\n  \"designs\": [\n{}\n  ],\n  \"median_speedup\": {:.2},\n  \"pass_pipeline\": {{\n    \"workload\": \"compiled backend, PassConfig::none vs PassConfig::full (DESIGN.md \\u00a717)\",\n    \"designs\": [\n{}\n    ],\n    \"median_tick_ratio\": {:.2},\n    \"ops_pre_total\": {},\n    \"ops_post_total\": {}\n  }},\n  \"verdicts_per_second\": {{\n    \"workload\": \"eval screening (combinational candidate sweeps)\",\n    \"repeats_per_design\": {},\n    \"designs\": [\n{}\n    ],\n    \"scalar_verdicts_per_sec\": {:.0},\n    \"batched_verdicts_per_sec\": {:.0},\n    \"speedup\": {:.2},\n    \"bit_identical\": {}\n  }},\n  \"memoization\": {{\"dedup_hits\": {dedup_hits}, \"total_samples\": {total_samples}, \"hit_rate\": {:.3}}}\n}}\n",
        scale.ticks_per_batch,
        scale.batches,
        design_json.join(",\n"),
        median_speedup,
        pass_json.join(",\n"),
        median_tick_ratio,
        ops_pre_total,
        ops_post_total,
        scale.screen_repeats,
        screen_json.join(",\n"),
        scalar_vps,
        batched_vps,
        screen_speedup,
        all_identical,
        dedup_hits as f64 / total_samples.max(1) as f64,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");

    println!("sim backend steady-state cost (median ns/tick):");
    for r in &rows {
        println!(
            "  {:<10} {:<14} interp {:>8.1}  compiled {:>8.1}  speedup {:>5.2}x{}",
            r.name,
            r.kind,
            r.interp_ns,
            r.compiled_ns,
            r.speedup(),
            if r.levelized { "" } else { "  (event-queue)" },
        );
    }
    println!("  median speedup: {median_speedup:.2}x");
    println!("netlist pass pipeline (off vs on, compiled backend):");
    for r in &pass_rows {
        println!(
            "  {:<10} {:<14} unopt {:>8.1}  opt {:>8.1}  ratio {:>5.2}x  ops {:>4} -> {:<4} (-{:.1}%)",
            r.name,
            r.kind,
            r.unopt_ns,
            r.opt_ns,
            r.tick_ratio(),
            r.ops_pre,
            r.ops_post,
            r.op_shrink() * 100.0,
        );
    }
    println!(
        "  median tick ratio: {median_tick_ratio:.2}x, total ops {ops_pre_total} -> {ops_post_total}"
    );
    println!("screening verdicts/sec (scalar vs 64-lane batched):");
    for r in &screen_rows {
        println!(
            "  {:<14} scalar {:>8.0}/s  batched {:>9.0}/s  speedup {:>5.2}x  identical: {}",
            r.name,
            r.scalar_vps,
            r.batched_vps,
            r.speedup(),
            r.bit_identical
        );
    }
    println!("  overall: {scalar_vps:.0}/s -> {batched_vps:.0}/s ({screen_speedup:.2}x, bit_identical: {all_identical})");
    println!("  memoization: {dedup_hits}/{total_samples} sample verdicts replayed");
    println!("wrote {out_path}");
}
