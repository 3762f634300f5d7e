//! The compilation pass of the compiled simulation backend.
//!
//! [`CompiledDesign::new`] lowers an elaborated [`Design`] into a form the
//! executor ([`crate::exec::CompiledSim`]) can run without any per-event
//! name resolution or tree walking:
//!
//! * every signal keeps its dense [`SignalId`] index into a value arena —
//!   no `HashMap<String, _>` lookups after compile;
//! * every expression tree is flattened into a linear stack-machine
//!   bytecode ([`Op`]) over a shared literal pool;
//! * statement bodies become a compact [`CStmt`] tree whose leaves are
//!   bytecode chunk ids instead of `Expr` boxes;
//! * per-signal sensitivity lists (`comb_woken`, `edge_woken`) are
//!   precomputed as sorted vectors, replacing the interpreter's per-change
//!   `wakers_for_change` map probing and `Vec` allocation;
//! * pure combinational designs are **levelized**: if the design passes
//!   the qualification rules (see
//!   [`crate::netlist::level::levelize_processes`]) the combinational
//!   processes get a topological order, and the executor settles each
//!   delta cycle in one ordered sweep over a dirty bitset instead of
//!   fixpoint-iterating an event queue;
//! * between the front-end and the final bytecode sits the word-level
//!   netlist ([`crate::netlist`]): chunks are decoded into a hash-consed
//!   cell DAG, rewritten by the optimizing pass pipeline, and re-emitted
//!   with literal-pool and whole-chunk deduplication.
//!
//! The pass is semantics-preserving by construction: all four-state
//! operator semantics are the same functions the interpreter uses
//! (`crate::eval`), and designs that do not qualify for levelization run
//! on an event-queue engine that mirrors [`crate::sim::Simulator`]
//! scheduling exactly (same FIFO order, same self-wake suppression, same
//! budget accounting).

use std::sync::Arc;

use crate::ast::BinaryOp;
use crate::ast::{CaseKind, Edge, Expr, LValue, Stmt, UnaryOp};
use crate::elab::{Design, Trigger};
use crate::logic::LogicVec;
use crate::netlist::level::levelize_processes;
use crate::netlist::{self, CellId, Netlist, PassConfig, PassStats};

/// Index of a compiled expression chunk in [`CompiledDesign`].
pub type ExprId = u32;

/// Sentinel signal index for identifiers that did not resolve at compile
/// time (cannot happen for elaborated designs; kept for robustness on
/// hand-built ones). Loads through it produce 1-bit `x`, matching the
/// interpreter's unresolved-identifier behaviour.
pub const NO_SIGNAL: u32 = u32::MAX;

/// One stack-machine instruction of the expression bytecode.
///
/// Operands are pushed left-to-right, so binary operators pop `rhs` then
/// `lhs`. The evaluation semantics of every opcode are exactly those of
/// [`crate::eval::eval_expr`] on the corresponding `Expr` node.
#[derive(Debug, Clone)]
pub enum Op {
    /// Push literal `lits[n]`.
    Lit(u32),
    /// Push the current value of signal `n` (or 1-bit `x` for
    /// [`NO_SIGNAL`]).
    Load(u32),
    /// Pop one operand, push the unary result.
    Unary(UnaryOp),
    /// Pop `rhs` then `lhs`, push the binary result.
    Binary(BinaryOp),
    /// Pop `else`, `then`, `cond`; push the selected (or x-merged) arm.
    /// Both arms are always evaluated, as the interpreter does.
    Ternary,
    /// Pop `n` operands (most significant pushed first), push their
    /// concatenation. `n == 0` pushes 1-bit `x`.
    Concat(u32),
    /// Pop the inner value then the count; push the replication (counts
    /// outside `1..=64` produce all-`x` of the inner width).
    Replicate,
    /// Pop the bit index; push `signal[index]` honouring the declared LSB.
    Index(u32),
    /// Pop `lo` then `hi`; push `signal[hi:lo]` honouring the declared LSB.
    Slice(u32),
}

/// A compiled lvalue. Bounds are expression chunks evaluated at write
/// time, mirroring the interpreter's dynamic index/slice resolution
/// (unknown or out-of-range bounds drop the write).
#[derive(Debug, Clone)]
pub enum CLval {
    /// Whole-signal target.
    Whole(u32),
    /// Single-bit target `sig[ix]`.
    Bit {
        /// Target signal.
        sig: u32,
        /// Bit index expression.
        ix: ExprId,
    },
    /// Part-select target `sig[hi:lo]`.
    Part {
        /// Target signal.
        sig: u32,
        /// High bound expression.
        hi: ExprId,
        /// Low bound expression.
        lo: ExprId,
    },
    /// Concatenated target; first part receives the most significant bits.
    Concat(Vec<CLval>),
}

/// A compiled statement. Mirrors [`Stmt`] with expressions flattened to
/// bytecode chunk ids.
#[derive(Debug, Clone)]
pub enum CStmt {
    /// `begin ... end`
    Block(Vec<CStmt>),
    /// `lhs = rhs;`
    Blocking {
        /// Target.
        lhs: CLval,
        /// Value chunk.
        rhs: ExprId,
    },
    /// `lhs <= rhs;`
    NonBlocking {
        /// Target.
        lhs: CLval,
        /// Value chunk.
        rhs: ExprId,
    },
    /// `if (cond) then [else alt]`
    If {
        /// Condition chunk.
        cond: ExprId,
        /// Taken when the condition is true.
        then_branch: Box<CStmt>,
        /// Taken otherwise.
        else_branch: Option<Box<CStmt>>,
    },
    /// `case/casez/casex`
    Case {
        /// Flavour.
        kind: CaseKind,
        /// Selector chunk.
        expr: ExprId,
        /// `(label chunks, body)` arms in order.
        arms: Vec<(Vec<ExprId>, CStmt)>,
        /// `default:` body if present.
        default: Option<Box<CStmt>>,
    },
    /// `for (var = init; cond; var = step) body`
    For {
        /// Loop variable (whole-signal assignment, as the interpreter).
        var: u32,
        /// Initializer chunk.
        init: ExprId,
        /// Condition chunk.
        cond: ExprId,
        /// Step target variable.
        step_var: u32,
        /// Step value chunk.
        step: ExprId,
        /// Loop body.
        body: Box<CStmt>,
    },
    /// `;`
    Empty,
    /// A statement whose target name did not resolve at compile time.
    /// Executing it raises the same runtime error the interpreter raises
    /// (elaboration normally rules this out entirely).
    Error(String),
}

/// A design lowered for the compiled executor. Cheap to share (wrap in an
/// `Arc`) across many [`crate::exec::CompiledSim`] instances — the eval
/// harness compiles a candidate once and simulates it against a whole
/// stimulus program, and benchmarks re-instantiate it per run.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    pub(crate) design: Design,
    /// Literal pool referenced by [`Op::Lit`].
    pub(crate) lits: Vec<LogicVec>,
    /// Expression bytecode chunks, indexed by [`ExprId`].
    pub(crate) exprs: Vec<Vec<Op>>,
    /// Compiled process bodies, indexed like `design.processes`.
    pub(crate) bodies: Vec<CStmt>,
    /// Per-signal combinational wakers, ascending process id — the same
    /// wake order the interpreter's registration pass produces.
    pub(crate) comb_woken: Vec<Vec<u32>>,
    /// Per-signal edge watchers in registration (process) order.
    pub(crate) edge_woken: Vec<Vec<(Edge, u32)>>,
    /// Time-zero seed: `initial` and combinational processes in process
    /// order, exactly the interpreter's startup activation list.
    pub(crate) init_order: Vec<u32>,
    /// Topological order of combinational processes when the design
    /// qualifies for levelized settling; empty otherwise.
    pub(crate) level_order: Vec<u32>,
    /// Per-process position in `level_order` (`NO_SIGNAL` for processes
    /// that are not levelized). Present only when `level_order` is.
    pub(crate) level_pos: Vec<u32>,
    /// Whether the levelized settle engine may be used after time zero.
    pub(crate) levelized: bool,
    /// The optimized word-level netlist the bytecode was emitted from.
    /// Consumers that want structure instead of a stack program (the
    /// formal bitblaster, `haven-lint --dump-netlist`) read this.
    pub(crate) netlist: Option<Arc<Netlist>>,
    /// Per-chunk root cell in `netlist` (`None` for chunks carried
    /// through verbatim).
    pub(crate) expr_roots: Vec<Option<CellId>>,
    /// Rewrite counters from the pass pipeline.
    pub(crate) pass_stats: PassStats,
}

impl CompiledDesign {
    /// Lowers an elaborated design through the full pass pipeline
    /// ([`PassConfig::full`]). Infallible: unresolved names (possible
    /// only in hand-built designs) are lowered to constructs that
    /// reproduce the interpreter's runtime behaviour for them.
    pub fn new(design: Design) -> CompiledDesign {
        CompiledDesign::with_passes(design, PassConfig::full())
    }

    /// Lowers without running any netlist passes. The netlist round-trip
    /// (and its chunk/literal dedup) still applies; the graph is simply
    /// not rewritten. This is the pre-optimization baseline benches
    /// compare against.
    pub fn new_unoptimized(design: Design) -> CompiledDesign {
        CompiledDesign::with_passes(design, PassConfig::none())
    }

    /// Lowers under an explicit pass configuration: AST → elaborated
    /// design (already done by the caller) → bytecode front-end →
    /// netlist import → pass pipeline → bytecode codegen.
    pub fn with_passes(design: Design, passes: PassConfig) -> CompiledDesign {
        let mut cx = Compiler {
            design: &design,
            lits: Vec::new(),
            exprs: Vec::new(),
        };
        let bodies: Vec<CStmt> = design
            .processes
            .iter()
            .map(|p| cx.compile_stmt(&p.body))
            .collect();
        let Compiler { lits, exprs, .. } = cx;

        // Netlist rung: decode the chunks into cells, rewrite, re-emit.
        let imported = netlist::build::import(&design, &lits, &exprs);
        let (nl, pass_stats) = netlist::passes::run(imported, passes);
        let emitted = netlist::codegen::emit(&nl, &lits, &exprs);
        let bodies: Vec<CStmt> = bodies
            .into_iter()
            .map(|b| remap_stmt(b, &emitted.chunk_map))
            .collect();
        let (lits, exprs) = (emitted.lits, emitted.exprs);

        let nsig = design.signals.len();
        let mut comb_woken: Vec<Vec<u32>> = vec![Vec::new(); nsig];
        let mut edge_woken: Vec<Vec<(Edge, u32)>> = vec![Vec::new(); nsig];
        for p in &design.processes {
            match &p.trigger {
                Trigger::Comb(reads) => {
                    for &r in reads {
                        comb_woken[r.0 as usize].push(p.id as u32);
                    }
                }
                Trigger::Edge(edges) => {
                    for &(edge, sig) in edges {
                        edge_woken[sig.0 as usize].push((edge, p.id as u32));
                    }
                }
                Trigger::Once => {}
            }
        }
        let init_order: Vec<u32> = design
            .processes
            .iter()
            .filter(|p| matches!(p.trigger, Trigger::Once | Trigger::Comb(_)))
            .map(|p| p.id as u32)
            .collect();

        let level = levelize_processes(&design, &comb_woken);
        let (level_order, level_pos, levelized) = match level {
            Some(order) => {
                let mut pos = vec![NO_SIGNAL; design.processes.len()];
                for (i, &p) in order.iter().enumerate() {
                    pos[p as usize] = i as u32;
                }
                (order, pos, true)
            }
            None => (Vec::new(), Vec::new(), false),
        };

        CompiledDesign {
            design,
            lits,
            exprs,
            bodies,
            comb_woken,
            edge_woken,
            init_order,
            level_order,
            level_pos,
            levelized,
            netlist: Some(Arc::new(nl)),
            expr_roots: emitted.expr_roots,
            pass_stats,
        }
    }

    /// The design this was compiled from.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Whether the quiescence loop runs as a single topological sweep
    /// (`true`) or on the interpreter-mirroring event queue (`false`).
    pub fn is_levelized(&self) -> bool {
        self.levelized
    }

    /// Number of expression bytecode chunks.
    pub fn chunk_count(&self) -> usize {
        self.exprs.len()
    }

    /// The deduplicated literal pool referenced by [`Op::Lit`].
    pub fn literals(&self) -> &[LogicVec] {
        &self.lits
    }

    /// The bytecode chunk behind an [`ExprId`].
    pub fn expr(&self, id: ExprId) -> &[Op] {
        &self.exprs[id as usize]
    }

    /// Compiled process bodies, indexed by process id.
    pub fn bodies(&self) -> &[CStmt] {
        &self.bodies
    }

    /// Per-signal combinational wake lists (process ids sensitive to the
    /// signal), indexed by signal id.
    pub fn comb_woken(&self) -> &[Vec<u32>] {
        &self.comb_woken
    }

    /// Per-signal edge watch lists, indexed by signal id.
    pub fn edge_woken(&self) -> &[Vec<(Edge, u32)>] {
        &self.edge_woken
    }

    /// Process ids activated at time zero (`initial` blocks and
    /// combinational processes), in interpreter activation order.
    pub fn init_order(&self) -> &[u32] {
        &self.init_order
    }

    /// Topological order of combinational processes; empty unless
    /// [`CompiledDesign::is_levelized`].
    pub fn level_order(&self) -> &[u32] {
        &self.level_order
    }

    /// The optimized word-level netlist the bytecode was emitted from.
    pub fn netlist(&self) -> Option<&Arc<Netlist>> {
        self.netlist.as_ref()
    }

    /// The netlist cell computing chunk `id`, when the chunk was lowered
    /// through the netlist (always, for compiler-produced designs).
    pub fn expr_root(&self, id: ExprId) -> Option<CellId> {
        self.expr_roots.get(id as usize).copied().flatten()
    }

    /// Rewrite counters from the pass pipeline this design was lowered
    /// under.
    pub fn pass_stats(&self) -> &PassStats {
        &self.pass_stats
    }
}

/// Rewrites a compiled statement's chunk references through the codegen
/// chunk map (identity except for deduplicated chunks).
fn remap_stmt(s: CStmt, map: &[ExprId]) -> CStmt {
    let m = |id: ExprId| map[id as usize];
    match s {
        CStmt::Block(stmts) => {
            CStmt::Block(stmts.into_iter().map(|s| remap_stmt(s, map)).collect())
        }
        CStmt::Blocking { lhs, rhs } => CStmt::Blocking {
            lhs: remap_lval(lhs, map),
            rhs: m(rhs),
        },
        CStmt::NonBlocking { lhs, rhs } => CStmt::NonBlocking {
            lhs: remap_lval(lhs, map),
            rhs: m(rhs),
        },
        CStmt::If {
            cond,
            then_branch,
            else_branch,
        } => CStmt::If {
            cond: m(cond),
            then_branch: Box::new(remap_stmt(*then_branch, map)),
            else_branch: else_branch.map(|e| Box::new(remap_stmt(*e, map))),
        },
        CStmt::Case {
            kind,
            expr,
            arms,
            default,
        } => CStmt::Case {
            kind,
            expr: m(expr),
            arms: arms
                .into_iter()
                .map(|(labels, body)| (labels.into_iter().map(m).collect(), remap_stmt(body, map)))
                .collect(),
            default: default.map(|d| Box::new(remap_stmt(*d, map))),
        },
        CStmt::For {
            var,
            init,
            cond,
            step_var,
            step,
            body,
        } => CStmt::For {
            var,
            init: m(init),
            cond: m(cond),
            step_var,
            step: m(step),
            body: Box::new(remap_stmt(*body, map)),
        },
        CStmt::Empty => CStmt::Empty,
        CStmt::Error(e) => CStmt::Error(e),
    }
}

fn remap_lval(lv: CLval, map: &[ExprId]) -> CLval {
    let m = |id: ExprId| map[id as usize];
    match lv {
        CLval::Whole(s) => CLval::Whole(s),
        CLval::Bit { sig, ix } => CLval::Bit { sig, ix: m(ix) },
        CLval::Part { sig, hi, lo } => CLval::Part {
            sig,
            hi: m(hi),
            lo: m(lo),
        },
        CLval::Concat(parts) => {
            CLval::Concat(parts.into_iter().map(|p| remap_lval(p, map)).collect())
        }
    }
}

struct Compiler<'a> {
    design: &'a Design,
    lits: Vec<LogicVec>,
    exprs: Vec<Vec<Op>>,
}

impl Compiler<'_> {
    fn sig(&self, name: &str) -> u32 {
        self.design.signal(name).map(|id| id.0).unwrap_or(NO_SIGNAL)
    }

    fn lit(&mut self, v: LogicVec) -> u32 {
        // The pool is small (per-design); linear dedup keeps it compact.
        if let Some(i) = self.lits.iter().position(|l| *l == v) {
            return i as u32;
        }
        self.lits.push(v);
        (self.lits.len() - 1) as u32
    }

    fn chunk(&mut self, e: &Expr) -> ExprId {
        let mut ops = Vec::new();
        self.emit(e, &mut ops);
        self.exprs.push(ops);
        (self.exprs.len() - 1) as ExprId
    }

    fn emit(&mut self, e: &Expr, ops: &mut Vec<Op>) {
        match e {
            Expr::Literal(v) => {
                let i = self.lit(v.clone());
                ops.push(Op::Lit(i));
            }
            Expr::Ident(n) => ops.push(Op::Load(self.sig(n))),
            Expr::Unary(op, a) => {
                self.emit(a, ops);
                ops.push(Op::Unary(*op));
            }
            Expr::Binary(op, a, b) => {
                self.emit(a, ops);
                self.emit(b, ops);
                ops.push(Op::Binary(*op));
            }
            Expr::Ternary(c, t, f) => {
                self.emit(c, ops);
                self.emit(t, ops);
                self.emit(f, ops);
                ops.push(Op::Ternary);
            }
            Expr::Concat(parts) => {
                for p in parts {
                    self.emit(p, ops);
                }
                ops.push(Op::Concat(parts.len() as u32));
            }
            Expr::Replicate(n, inner) => {
                self.emit(n, ops);
                self.emit(inner, ops);
                ops.push(Op::Replicate);
            }
            Expr::Index(name, i) => {
                self.emit(i, ops);
                ops.push(Op::Index(self.sig(name)));
            }
            Expr::Slice(name, a, b) => {
                self.emit(a, ops);
                self.emit(b, ops);
                ops.push(Op::Slice(self.sig(name)));
            }
        }
    }

    /// First unresolvable signal name of an lvalue, in the interpreter's
    /// error-discovery order: the width pre-pass only looks up whole-signal
    /// (`Ident`) parts, then write resolution looks up every part MSB-first.
    fn lvalue_missing(&self, lv: &LValue) -> Option<String> {
        fn idents<'a>(lv: &'a LValue, out: &mut Vec<&'a str>) {
            match lv {
                LValue::Ident(n) => out.push(n),
                LValue::Index(_, _) | LValue::Slice(_, _, _) => {}
                LValue::Concat(parts) => parts.iter().for_each(|p| idents(p, out)),
            }
        }
        fn all<'a>(lv: &'a LValue, out: &mut Vec<&'a str>) {
            match lv {
                LValue::Ident(n) | LValue::Index(n, _) | LValue::Slice(n, _, _) => out.push(n),
                LValue::Concat(parts) => parts.iter().for_each(|p| all(p, out)),
            }
        }
        let mut names = Vec::new();
        idents(lv, &mut names);
        let width_pass = names
            .iter()
            .find(|n| self.design.signal(n).is_none())
            .map(|n| n.to_string());
        if width_pass.is_some() {
            return width_pass;
        }
        names.clear();
        all(lv, &mut names);
        names
            .iter()
            .find(|n| self.design.signal(n).is_none())
            .map(|n| n.to_string())
    }

    fn compile_lvalue(&mut self, lv: &LValue) -> CLval {
        match lv {
            LValue::Ident(n) => CLval::Whole(self.sig(n)),
            LValue::Index(n, i) => CLval::Bit {
                sig: self.sig(n),
                ix: self.chunk(i),
            },
            LValue::Slice(n, a, b) => CLval::Part {
                sig: self.sig(n),
                hi: self.chunk(a),
                lo: self.chunk(b),
            },
            LValue::Concat(parts) => {
                CLval::Concat(parts.iter().map(|p| self.compile_lvalue(p)).collect())
            }
        }
    }

    fn assign(&mut self, lhs: &LValue, rhs: &Expr, nonblocking: bool) -> CStmt {
        if let Some(name) = self.lvalue_missing(lhs) {
            // The interpreter evaluates the rhs (side-effect free), then
            // errors while resolving the target; the compiled executor
            // raises the identical error on execution.
            return CStmt::Error(format!("no signal named `{name}`"));
        }
        let rhs = self.chunk(rhs);
        let lhs = self.compile_lvalue(lhs);
        if nonblocking {
            CStmt::NonBlocking { lhs, rhs }
        } else {
            CStmt::Blocking { lhs, rhs }
        }
    }

    fn compile_stmt(&mut self, s: &Stmt) -> CStmt {
        match s {
            Stmt::Block(stmts) => {
                CStmt::Block(stmts.iter().map(|s| self.compile_stmt(s)).collect())
            }
            Stmt::Blocking { lhs, rhs, .. } => self.assign(lhs, rhs, false),
            Stmt::NonBlocking { lhs, rhs, .. } => self.assign(lhs, rhs, true),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => CStmt::If {
                cond: self.chunk(cond),
                then_branch: Box::new(self.compile_stmt(then_branch)),
                else_branch: else_branch.as_ref().map(|e| Box::new(self.compile_stmt(e))),
            },
            Stmt::Case {
                kind,
                expr,
                arms,
                default,
            } => CStmt::Case {
                kind: *kind,
                expr: self.chunk(expr),
                arms: arms
                    .iter()
                    .map(|(labels, body)| {
                        (
                            labels.iter().map(|l| self.chunk(l)).collect(),
                            self.compile_stmt(body),
                        )
                    })
                    .collect(),
                default: default.as_ref().map(|d| Box::new(self.compile_stmt(d))),
            },
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // The interpreter's `assign_name` raises "no signal named"
                // when a loop variable is unresolved; reproduce that.
                for var in [&init.0, &step.0] {
                    if self.design.signal(var).is_none() {
                        return CStmt::Error(format!("no signal named `{var}`"));
                    }
                }
                CStmt::For {
                    var: self.sig(&init.0),
                    init: self.chunk(&init.1),
                    cond: self.chunk(cond),
                    step_var: self.sig(&step.0),
                    step: self.chunk(&step.1),
                    body: Box::new(self.compile_stmt(body)),
                }
            }
            Stmt::Empty => CStmt::Empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::compile;

    #[test]
    fn pure_comb_design_levelizes() {
        let d = compile(
            "module m(input a, input b, output y);\n wire n;\n assign n = a & b;\n assign y = ~n;\nendmodule",
        )
        .unwrap();
        let cd = CompiledDesign::new(d);
        assert!(cd.is_levelized());
        // The n-producer must sweep before the y-producer.
        let n_writer = cd
            .design
            .processes
            .iter()
            .position(|p| p.writes.contains(&cd.design.signal("n").unwrap()))
            .unwrap() as u32;
        let y_writer = cd
            .design
            .processes
            .iter()
            .position(|p| p.writes.contains(&cd.design.signal("y").unwrap()))
            .unwrap() as u32;
        let pos = |p: u32| cd.level_order.iter().position(|&q| q == p).unwrap();
        assert!(pos(n_writer) < pos(y_writer));
    }

    #[test]
    fn sequential_design_with_clean_clock_levelizes() {
        let d = compile(
            "module c(input clk, input rst, output reg [3:0] q);\n always @(posedge clk)\n  if (rst) q <= 4'd0; else q <= q + 4'd1;\nendmodule",
        )
        .unwrap();
        assert!(CompiledDesign::new(d).is_levelized());
    }

    #[test]
    fn incomplete_sensitivity_disqualifies() {
        let d = compile(
            "module m(input a, input b, output reg y);\n always @(a) y = a & b;\nendmodule",
        )
        .unwrap();
        assert!(!CompiledDesign::new(d).is_levelized());
    }

    #[test]
    fn comb_loop_disqualifies() {
        let d = compile(
            "module m(input sel, output y);\n wire p;\n assign p = ~y;\n assign y = sel ? p : 1'b0;\nendmodule",
        )
        .unwrap();
        assert!(!CompiledDesign::new(d).is_levelized());
    }

    #[test]
    fn derived_clock_disqualifies() {
        // The edge-watched signal is driven by a comb process: glitch
        // ordering could matter, so the event queue must be used.
        let d = compile(
            "module m(input clk, input en, output reg q);\n wire gclk;\n assign gclk = clk & en;\n always @(posedge gclk) q <= ~q;\nendmodule",
        )
        .unwrap();
        assert!(!CompiledDesign::new(d).is_levelized());
    }

    #[test]
    fn nba_in_comb_process_disqualifies() {
        let d =
            compile("module m(input a, output reg y);\n always @(*) y <= ~a;\nendmodule").unwrap();
        assert!(!CompiledDesign::new(d).is_levelized());
    }

    #[test]
    fn literal_pool_dedupes() {
        let d = compile(
            "module m(input [3:0] a, output [3:0] y, output [3:0] z);\n assign y = a + 4'd1;\n assign z = a - 4'd1;\nendmodule",
        )
        .unwrap();
        let cd = CompiledDesign::new(d);
        let one = LogicVec::from_u64(1, 4);
        assert_eq!(cd.lits.iter().filter(|l| **l == one).count(), 1);
    }

    fn total_ops(cd: &CompiledDesign) -> usize {
        cd.exprs.iter().map(|c| c.len()).sum()
    }

    #[test]
    fn identical_rhs_chunks_dedupe_and_shrink_bytecode() {
        // Two assigns with the same right-hand side must share one chunk
        // after the netlist round-trip, shrinking total bytecode size.
        let src = "module m(input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] z);\n assign y = (a & b) ^ 4'd5;\n assign z = (a & b) ^ 4'd5;\nendmodule";
        let d = compile(src).unwrap();
        let opt = CompiledDesign::new(d);
        let rhs_ids: Vec<u32> = opt
            .bodies()
            .iter()
            .filter_map(|b| match b {
                CStmt::Blocking { rhs, .. } => Some(*rhs),
                _ => None,
            })
            .collect();
        assert_eq!(rhs_ids.len(), 2);
        assert_eq!(rhs_ids[0], rhs_ids[1], "identical chunks must share an id");
        // The shared chunk halves the expression bytecode.
        assert_eq!(opt.exprs.len(), 1);
    }

    #[test]
    fn optimized_bytecode_is_never_larger() {
        for src in [
            "module m(input [7:0] a, output y);\n assign y = (a == 8'd0);\nendmodule",
            "module m(input [3:0] a, output [3:0] y);\n assign y = (a & 4'hf) + 4'd1;\nendmodule",
            "module m(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d, output [7:0] y);\n assign y = a ^ b ^ c ^ d;\nendmodule",
        ] {
            let d = compile(src).unwrap();
            let unopt = CompiledDesign::new_unoptimized(d.clone());
            let opt = CompiledDesign::new(d);
            assert!(
                total_ops(&opt) <= total_ops(&unopt),
                "optimized bytecode grew for {src}: {} > {}",
                total_ops(&opt),
                total_ops(&unopt)
            );
            assert!(opt.lits.len() <= unopt.lits.len());
        }
    }

    #[test]
    fn netlist_rung_is_always_present() {
        let d = compile("module m(input a, output y);\n assign y = ~a;\nendmodule").unwrap();
        let cd = CompiledDesign::new(d);
        let nl = cd.netlist().expect("netlist rung");
        assert!(nl.cell_count() > 0);
        for id in 0..cd.chunk_count() as ExprId {
            assert!(cd.expr_root(id).is_some());
        }
        assert!(cd.pass_stats().cells_out <= cd.pass_stats().cells_in);
    }
}
