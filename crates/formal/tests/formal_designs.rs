//! End-to-end checks of the formal oracle on real Verilog designs:
//! the bitblaster is differentially tested against the scalar simulator
//! (same compiled bytecode, two interpreters), and `check_equiv`
//! verdicts are exercised across the structural, simulation and SAT
//! stages — every counterexample is replayed on the simulator before
//! the test believes it.

use std::sync::Arc;

use haven_formal::equiv::PreambleOp;
use haven_formal::{check_equiv, replay_cex, Aig, Blaster, EquivOptions, EquivVerdict, Lit};
use haven_verilog::compile::CompiledDesign;
use haven_verilog::exec::CompiledSim;

fn compiled(src: &str) -> Arc<CompiledDesign> {
    let design = haven_verilog::elab::compile(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    Arc::new(CompiledDesign::new(design))
}

fn sig(cd: &CompiledDesign, name: &str) -> u32 {
    cd.design()
        .signal(name)
        .unwrap_or_else(|| panic!("no signal {name}"))
        .0
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Drives the blaster and the scalar simulator with the same constant
/// stimulus and asserts bit-level agreement on every output: an
/// untainted blaster bit must be constant and equal to the simulator's
/// bit; a tainted bit makes no claim and is skipped.
fn assert_outputs_agree(g: &Aig, b: &Blaster, sim: &CompiledSim, cd: &CompiledDesign, ctx: &str) {
    for (name, width) in cd.design().output_ports() {
        let sv = b.value(sig(cd, &name));
        let lv = sim.peek(&name).unwrap();
        for i in 0..width {
            // Under all-constant stimulus the taint literal folds to a
            // constant; a (conditionally or certainly) tainted bit makes
            // no claim and is skipped.
            let xl = sv.x[i];
            assert!(
                xl.is_const(),
                "{ctx}: {name}[{i}] taint literal symbolic under constant stimulus"
            );
            if g.eval(&[], xl) {
                continue;
            }
            let lit = sv.bits[i];
            assert!(
                lit.is_const(),
                "{ctx}: {name}[{i}] untainted but symbolic under constant stimulus"
            );
            let formal = g.eval(&[], lit);
            let scalar = lv.bit(i);
            assert!(
                scalar.is_known(),
                "{ctx}: {name}[{i}] formal={formal} but simulator has x/z — unsound claim"
            );
            assert_eq!(
                formal,
                scalar.to_bool().unwrap(),
                "{ctx}: {name}[{i}] disagrees"
            );
        }
    }
}

/// Random constant-stimulus differential sweep over a combinational
/// design: poke all inputs with random constants, compare all outputs.
fn diff_sweep_comb(src: &str, rounds: usize, seed: u64) {
    let cd = compiled(src);
    let mut g = Aig::new();
    let mut b = Blaster::new(&mut g, &cd).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let mut sim = CompiledSim::new(Arc::clone(&cd)).unwrap();
    let mut rng = Xorshift(seed | 1);
    for round in 0..rounds {
        for (name, width) in cd.design().input_ports() {
            let mask = if width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let v = rng.next() & mask;
            b.poke_const(&mut g, sig(&cd, &name), v).unwrap();
            sim.poke_u64(&name, v).unwrap();
        }
        assert_outputs_agree(&g, &b, &sim, &cd, &format!("round {round}"));
    }
}

#[test]
fn diff_alu_ops() {
    // One design touching most of the expression grammar: arithmetic,
    // shifts, comparisons, bitwise/logical ops, ternary, case.
    let src = "module alu(input [2:0] op, input [7:0] a, input [7:0] b, output reg [7:0] y,
                          output lt, output eq, output any);
    assign lt = a < b;
    assign eq = a == b;
    assign any = |a || &b;
    always @(*) begin
        case (op)
            3'd0: y = a + b;
            3'd1: y = a - b;
            3'd2: y = a & b;
            3'd3: y = a | b;
            3'd4: y = a ^ b;
            3'd5: y = a << b[2:0];
            3'd6: y = a >> b[2:0];
            default: y = (a > b) ? a : b;
        endcase
    end
endmodule";
    diff_sweep_comb(src, 64, 0xA1);
}

#[test]
fn diff_mul_div_and_wide() {
    let src = "module arith(input [6:0] a, input [6:0] b, output [6:0] p, output [6:0] q,
                            output [6:0] r);
    assign p = a * b;
    assign q = b == 0 ? 7'd0 : a / b;
    assign r = b == 0 ? 7'd0 : a % b;
endmodule";
    diff_sweep_comb(src, 64, 0xB2);
}

#[test]
fn diff_concat_replicate_slices() {
    let src = "module bits(input [7:0] a, input [3:0] s, output [15:0] y, output [7:0] z,
                           output [2:0] w);
    assign y = {a[3:0], {2{a[7:6]}}, a ^ 8'h5a};
    assign z = {8{a[0]}} & a;
    assign w = a[s +: 1] ? 3'b101 : {a[6], a[4], a[2]};
endmodule";
    // Dynamic base part-select may be unsupported; fall back to a
    // simpler body if the frontend rejects it.
    if haven_verilog::elab::compile(src).is_ok() {
        diff_sweep_comb(src, 64, 0xC3);
    }
    let src2 = "module bits2(input [7:0] a, input [2:0] s, output [15:0] y, output z);
    assign y = {a[3:0], {2{a[7:6]}}, a ^ 8'h5a};
    assign z = a[s];
endmodule";
    diff_sweep_comb(src2, 64, 0xC4);
}

#[test]
fn diff_priority_casez() {
    let src = "module penc(input [3:0] req, output reg [1:0] idx, output reg valid);
    always @(*) begin
        valid = 1'b1;
        casez (req)
            4'b1???: idx = 2'd3;
            4'b01??: idx = 2'd2;
            4'b001?: idx = 2'd1;
            4'b0001: idx = 2'd0;
            default: begin idx = 2'd0; valid = 1'b0; end
        endcase
    end
endmodule";
    diff_sweep_comb(src, 32, 0xD4);
}

#[test]
fn diff_for_loop_popcount() {
    let src = "module pop(input [7:0] a, output reg [3:0] n);
    integer i;
    always @(*) begin
        n = 4'd0;
        for (i = 0; i < 8; i = i + 1)
            n = n + {3'b000, a[i]};
    end
endmodule";
    if haven_verilog::elab::compile(src).is_ok() {
        diff_sweep_comb(src, 32, 0xE5);
    }
}

#[test]
fn diff_sequential_gray_counter() {
    let src = "module gray(input clk, input rst, input en, output [3:0] g);
    reg [3:0] bin;
    always @(posedge clk)
        if (rst) bin <= 4'd0;
        else if (en) bin <= bin + 4'd1;
    assign g = bin ^ (bin >> 1);
endmodule";
    let cd = compiled(src);
    let mut g = Aig::new();
    let mut b = Blaster::new(&mut g, &cd).unwrap();
    let mut sim = CompiledSim::new(Arc::clone(&cd)).unwrap();
    let (clk, rst, en) = (sig(&cd, "clk"), sig(&cd, "rst"), sig(&cd, "en"));
    let mut rng = Xorshift(0xF6);
    // Reset, then a random enable pattern.
    for (s, v) in [(rst, 1), (en, 0)] {
        b.poke_const(&mut g, s, v).unwrap();
        sim.poke_u64(if s == rst { "rst" } else { "en" }, v)
            .unwrap();
    }
    b.tick(&mut g, clk).unwrap();
    sim.tick("clk").unwrap();
    b.poke_const(&mut g, rst, 0).unwrap();
    sim.poke_u64("rst", 0).unwrap();
    for step in 0..24 {
        let e = rng.next() & 1;
        b.poke_const(&mut g, en, e).unwrap();
        sim.poke_u64("en", e).unwrap();
        b.tick(&mut g, clk).unwrap();
        sim.tick("clk").unwrap();
        assert_outputs_agree(&g, &b, &sim, &cd, &format!("step {step}"));
    }
}

#[test]
fn diff_uninitialized_register_stays_tainted() {
    let src = "module m(input [1:0] a, output [1:0] y);
    reg [1:0] r;
    assign y = r & a;
endmodule";
    let cd = compiled(src);
    let mut g = Aig::new();
    let mut b = Blaster::new(&mut g, &cd).unwrap();
    let mut sim = CompiledSim::new(Arc::clone(&cd)).unwrap();
    // a = 0 forces known zeros through the absorption rule; a = 3 leaves
    // the x from `r` in charge.
    for v in [0u64, 3, 1] {
        b.poke_const(&mut g, sig(&cd, "a"), v).unwrap();
        sim.poke_u64("a", v).unwrap();
        assert_outputs_agree(&g, &b, &sim, &cd, &format!("a={v}"));
    }
    b.poke_const(&mut g, sig(&cd, "a"), 3).unwrap();
    let sv = b.value(sig(&cd, "y"));
    assert!(
        sv.x.iter().all(|&x| x == Lit::TRUE),
        "r is never written: y must stay tainted"
    );
}

/// Exhaustive symbolic cross-check: every assignment of a symbolic
/// 3-bit adder evaluated through the AIG matches a freshly poked
/// simulator.
#[test]
fn symbolic_adder_matches_simulator_exhaustively() {
    let src = "module add3(input [2:0] a, input [2:0] b, output [3:0] s);
    assign s = {1'b0, a} + {1'b0, b};
endmodule";
    let cd = compiled(src);
    let mut g = Aig::new();
    let mut b = Blaster::new(&mut g, &cd).unwrap();
    let la: Vec<_> = (0..3).map(|_| g.input()).collect();
    let lb: Vec<_> = (0..3).map(|_| g.input()).collect();
    b.poke_sym(&mut g, sig(&cd, "a"), la).unwrap();
    b.poke_sym(&mut g, sig(&cd, "b"), lb).unwrap();
    let sv = b.value(sig(&cd, "s")).clone();
    assert!(
        sv.x.iter().all(|&x| x == Lit::FALSE),
        "adder output must be taint-free"
    );
    for av in 0u64..8 {
        for bv in 0u64..8 {
            let mut assignment = vec![false; 6];
            for i in 0..3 {
                assignment[i] = av >> i & 1 == 1;
                assignment[3 + i] = bv >> i & 1 == 1;
            }
            let formal: u64 = (0..4)
                .map(|i| u64::from(g.eval(&assignment, sv.bits[i])) << i)
                .sum();
            let mut sim = CompiledSim::new(Arc::clone(&cd)).unwrap();
            sim.poke_u64("a", av).unwrap();
            sim.poke_u64("b", bv).unwrap();
            assert_eq!(
                formal,
                sim.peek("s").unwrap().to_u64().unwrap(),
                "a={av} b={bv}"
            );
        }
    }
}

#[test]
fn identical_designs_fold_structurally() {
    let src = "module add(input [7:0] a, input [7:0] b, output [7:0] y);
    assign y = a + b;
endmodule";
    let report = check_equiv(&compiled(src), &compiled(src), &EquivOptions::default());
    assert_eq!(report.verdict, EquivVerdict::Equivalent);
    assert!(
        report.structural,
        "shared strash must fold identical designs"
    );
}

#[test]
fn distributivity_proved_by_sat() {
    let g = "module f(input a, input b, input c, output y);
    assign y = (a & b) | (a & c);
endmodule";
    let c = "module f(input a, input b, input c, output y);
    assign y = a & (b | c);
endmodule";
    let report = check_equiv(&compiled(g), &compiled(c), &EquivOptions::default());
    assert_eq!(report.verdict, EquivVerdict::Equivalent);
}

#[test]
fn broken_adder_yields_confirmed_counterexample() {
    let golden = compiled(
        "module add(input [7:0] a, input [7:0] b, output [7:0] y);
    assign y = a + b;
endmodule",
    );
    let cand = compiled(
        "module add(input [7:0] a, input [7:0] b, output [7:0] y);
    assign y = a + b + 8'd1;
endmodule",
    );
    let report = check_equiv(&golden, &cand, &EquivOptions::default());
    let EquivVerdict::Counterexample(trace) = &report.verdict else {
        panic!("expected a counterexample, got {:?}", report.verdict);
    };
    assert_eq!(trace.mismatch_output, "y");
    let m = replay_cex(&golden, &cand, trace, None).expect("counterexample must replay");
    assert_eq!(m.output, "y");
    assert_eq!(m.step, trace.mismatch_step);
}

#[test]
fn subtle_comparator_bug_found_and_replayed() {
    // `<=` vs `<`: differs only when a == b.
    let golden = compiled(
        "module cmp(input [7:0] a, input [7:0] b, output y);
    assign y = a <= b;
endmodule",
    );
    let cand = compiled(
        "module cmp(input [7:0] a, input [7:0] b, output y);
    assign y = a < b;
endmodule",
    );
    let report = check_equiv(&golden, &cand, &EquivOptions::default());
    let EquivVerdict::Counterexample(trace) = &report.verdict else {
        panic!("expected a counterexample, got {:?}", report.verdict);
    };
    let sets = &trace.steps[0].sets;
    let get = |n: &str| sets.iter().find(|(s, _)| s == n).unwrap().1;
    assert_eq!(get("a"), get("b"), "only a == b distinguishes <= from <");
    assert!(replay_cex(&golden, &cand, trace, None).is_some());
}

fn counter_src(body: &str) -> String {
    format!(
        "module ctr(input clk, input rst, input en, output reg [3:0] q);
    always @(posedge clk)
        if (rst) q <= 4'd0;
        else if (en) q <= {body};
endmodule"
    )
}

fn seq_opts() -> EquivOptions {
    EquivOptions {
        clock: Some("clk".into()),
        preamble: vec![
            PreambleOp::Set("rst".into(), 1),
            PreambleOp::Set("en".into(), 0),
            PreambleOp::Tick,
            PreambleOp::Set("rst".into(), 0),
        ],
        seq_steps: 4,
        ..EquivOptions::default()
    }
}

#[test]
fn equivalent_counters_after_reset() {
    let golden = compiled(&counter_src("q + 4'd1"));
    let cand = compiled(&counter_src("q + 4'd2 - 4'd1"));
    let report = check_equiv(&golden, &cand, &seq_opts());
    assert_eq!(report.verdict, EquivVerdict::Equivalent);
}

#[test]
fn buggy_counter_caught_by_unrolling_and_replayed() {
    let golden = compiled(&counter_src("q + 4'd1"));
    let cand = compiled(&counter_src("q + 4'd1 + (q == 4'd2 ? 4'd1 : 4'd0)"));
    let report = check_equiv(&golden, &cand, &seq_opts());
    let EquivVerdict::Counterexample(trace) = &report.verdict else {
        panic!("expected a counterexample, got {:?}", report.verdict);
    };
    // Reaching q == 2 needs three enabled cycles: a real multi-step cex.
    assert!(
        trace.mismatch_step >= 2,
        "mismatch at step {}",
        trace.mismatch_step
    );
    let m = replay_cex(&golden, &cand, trace, Some("clk")).expect("must replay");
    assert_eq!(m.output, "q");
    assert_eq!(m.step, trace.mismatch_step);
}

#[test]
fn unreset_state_reports_x_abstraction_unknown() {
    // No reset preamble: the registers start x, so nothing can be proved.
    let golden = compiled(&counter_src("q + 4'd1"));
    let cand = compiled(&counter_src("q + 4'd2"));
    let opts = EquivOptions {
        clock: Some("clk".into()),
        seq_steps: 3,
        ..EquivOptions::default()
    };
    let report = check_equiv(&golden, &cand, &opts);
    match &report.verdict {
        EquivVerdict::Unknown(_) | EquivVerdict::Counterexample(_) => {}
        v => panic!("x state must not prove equivalence: {v:?}"),
    }
}

#[test]
fn interface_mismatch_is_typed_unknown() {
    let a = compiled("module m(input x, output y); assign y = x; endmodule");
    let b = compiled("module m(input x, input z, output y); assign y = x & z; endmodule");
    let report = check_equiv(&a, &b, &EquivOptions::default());
    assert!(
        matches!(
            report.verdict,
            EquivVerdict::Unknown(haven_formal::UnknownReason::InterfaceMismatch(_))
        ),
        "got {:?}",
        report.verdict
    );
}

#[test]
fn sequential_without_clock_is_unsupported() {
    let cd = compiled(&counter_src("q + 4'd1"));
    let report = check_equiv(&cd, &cd, &EquivOptions::default());
    assert!(
        matches!(
            report.verdict,
            EquivVerdict::Unknown(haven_formal::UnknownReason::Unsupported(_))
        ),
        "got {:?}",
        report.verdict
    );
}
