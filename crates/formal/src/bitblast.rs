//! Bitblasting: symbolic execution of compiled bytecode into an AIG.
//!
//! The blaster mirrors [`haven_verilog::exec::CompiledSim`] instruction
//! by instruction, but carries a [`Lit`] per bit instead of a packed
//! four-state word. Free inputs become AIG primary inputs, so after a
//! poke/tick schedule every signal holds a vector of literals that *is*
//! the design's next-state/output function of those inputs.
//!
//! # The two-valued abstraction
//!
//! The executor is four-state; the AIG is two-valued. Each symbolic
//! value pairs its literals with per-bit **symbolic taint planes**
//! ([`SVal::x`]): the taint is itself an AIG literal, evaluated under
//! the same free-input assignment as the value bits, and maintains one
//! per-valuation invariant:
//!
//! > under any assignment of the free inputs, if `x[i]` evaluates to
//! > false, the executor's bit is **known** (0/1) and equals the
//! > literal `bits[i]` under that assignment; where `x[i]` evaluates
//! > true, no claim is made about that bit at all.
//!
//! `Lit::FALSE` taint means "known everywhere" (the old untainted
//! case), `Lit::TRUE` means "no claim anywhere", and any other literal
//! is a *conditional* taint — exactly what an uninitialized `reg`
//! assigned through a guarded chain needs. When a `case` with a
//! `default` covers every path, the residual taint literal is
//! unsatisfiable, and the SAT stage downstream can discharge it instead
//! of giving up with `Unknown`.
//!
//! Taint is introduced exactly where the executor introduces `x`/`z`
//! (uninitialized state, division by a possibly-zero divisor, …) or
//! where the two-valued domain cannot track the executor (an `if` whose
//! condition is tainted guards its writes with the taint). Every
//! transfer function below either reproduces the executor's `cval`
//! semantics exactly on taint-free valuations or widens to taint;
//! width-decision points (loop bounds, replication counts, part-select
//! bounds) still require *definitely* untainted operands: constructs
//! whose *width* would become data-dependent (dynamic part-selects,
//! dynamic replication) abort with [`BlastError`] instead, because a
//! wrong width cannot be expressed as per-bit taint once a concat shifts
//! bit positions. The equivalence checker downstream treats taint on a
//! compared output as "unknown", never as "equal" — see DESIGN.md §16
//! for the soundness argument.
//!
//! # Scheduling
//!
//! Only levelized designs are blasted (the qualification rules of
//! DESIGN.md §10). Those rules buy confluence: combinational processes
//! are pure functions of their (completely declared) read sets, so the
//! blaster replaces the executor's dirty-set bookkeeping — which is
//! undecidable under symbolic values — with full sweeps of
//! `level_order`. One extra restriction applies: a signal written by
//! both a combinational and a sequential/`initial` process would make
//! the executor's value depend on *which* writes the dirty set skipped,
//! so such designs are rejected.

use std::collections::HashMap;

use haven_verilog::ast::{BinaryOp, CaseKind, UnaryOp};
use haven_verilog::compile::{CLval, CStmt, CompiledDesign, ExprId, Op, NO_SIGNAL};
use haven_verilog::elab::{SignalKind, Trigger};
use haven_verilog::logic::{Logic, LogicVec};
use haven_verilog::netlist::{CellId, CellKind, Netlist};
use haven_verilog::sim::edge_fired;

use crate::aig::{Aig, Lit};

/// Loop-iteration cap per `for` statement (termination guard; the
/// executor enforces its own budget, and exceeding ours is an
/// [`BlastError`], never a wrong answer).
const MAX_LOOP_ITERATIONS: usize = 4096;

/// Widest symbolic index a dynamic bit-select mux tree will expand.
const MAX_DYN_INDEX_BITS: usize = 12;

/// A construct the two-valued abstraction cannot blast soundly.
///
/// Errors are *incompleteness*, not unsoundness: the equivalence layer
/// maps them to an `Unknown` verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlastError {
    /// Human-readable reason, surfaced in `EquivVerdict::Unknown`.
    pub reason: String,
}

impl BlastError {
    fn new(reason: impl Into<String>) -> BlastError {
        BlastError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for BlastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitblast: {}", self.reason)
    }
}

impl std::error::Error for BlastError {}

type Result<T> = std::result::Result<T, BlastError>;

/// A symbolic logic vector: one AIG literal and one taint *literal* per
/// bit, LSB first. See the module docs for the per-valuation invariant
/// tying the two planes together.
#[derive(Debug, Clone, PartialEq)]
pub struct SVal {
    /// Per-bit literals; meaningless under valuations where the
    /// corresponding taint literal evaluates true.
    pub bits: Vec<Lit>,
    /// Per-bit symbolic taint: `Lit::FALSE` means "known everywhere",
    /// `Lit::TRUE` means "no claim anywhere", anything else is a
    /// conditional claim.
    pub x: Vec<Lit>,
}

impl SVal {
    /// An untainted constant of the given width (bits ≥ 64 read zero).
    pub fn constant(value: u64, width: usize) -> SVal {
        let bits = (0..width)
            .map(|i| {
                if i < 64 && value >> i & 1 == 1 {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            })
            .collect();
        SVal {
            bits,
            x: vec![Lit::FALSE; width],
        }
    }

    /// A fully tainted value.
    pub fn all_x(width: usize) -> SVal {
        SVal {
            bits: vec![Lit::FALSE; width],
            x: vec![Lit::TRUE; width],
        }
    }

    /// Lowers a four-state constant: known bits become constant literals,
    /// `x`/`z` bits become taint.
    pub fn from_lv(v: &LogicVec) -> SVal {
        let mut out = SVal::all_x(v.width());
        for (i, b) in v.iter().enumerate() {
            match b {
                Logic::Zero => {
                    out.bits[i] = Lit::FALSE;
                    out.x[i] = Lit::FALSE;
                }
                Logic::One => {
                    out.bits[i] = Lit::TRUE;
                    out.x[i] = Lit::FALSE;
                }
                Logic::X | Logic::Z => {}
            }
        }
        out
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Whether any bit is *possibly* tainted (its taint literal is not
    /// the constant false). Widening transfer functions branch on this;
    /// a conditional taint widens exactly like a certain one, which is
    /// conservative and sound.
    pub fn any_x(&self) -> bool {
        self.x.iter().any(|&l| l != Lit::FALSE)
    }

    /// The untainted constant value, mirroring `to_u64` of the executor:
    /// `None` when any bit is possibly tainted or non-constant, **or
    /// when the width exceeds 64** (the executor's wide representation
    /// always answers `None`, and several opcodes branch on exactly
    /// that).
    pub fn to_u64_mirror(&self) -> Option<u64> {
        if self.width() > 64 {
            return None;
        }
        let mut out = 0u64;
        for (i, (&b, &xf)) in self.bits.iter().zip(&self.x).enumerate() {
            if xf != Lit::FALSE {
                return None;
            }
            match b.const_value() {
                Some(true) => out |= 1 << i,
                Some(false) => {}
                None => return None,
            }
        }
        Some(out)
    }

    /// Zero-extends or truncates (mirrors the executor's `resized`).
    pub fn resized(&self, width: usize) -> SVal {
        let mut bits = self.bits.clone();
        let mut x = self.x.clone();
        bits.resize(width, Lit::FALSE);
        x.resize(width, Lit::FALSE);
        bits.truncate(width);
        x.truncate(width);
        SVal { bits, x }
    }

    /// `(literal, taint)` at position `i`, zero-extended beyond the
    /// width (the executor's planes read known-zero there).
    fn at(&self, i: usize) -> (Lit, Lit) {
        if i < self.width() {
            (self.bits[i], self.x[i])
        } else {
            (Lit::FALSE, Lit::FALSE)
        }
    }
}

/// One resolved bit-range write (the mirror of the executor's `CWrite`).
struct RWrite {
    sig: u32,
    lo: usize,
    value: SVal,
}

/// A pending non-blocking assignment with its control-flow guard.
struct GuardedWrite {
    sig: u32,
    lo: usize,
    value: SVal,
    guard: Lit,
    guard_x: Lit,
}

/// Symbolic executor over a compiled design. All mutating methods take
/// the shared [`Aig`] explicitly so two blasters (golden and candidate)
/// can interleave on one graph and hash-cons across designs.
pub struct Blaster<'a> {
    cd: &'a CompiledDesign,
    values: Vec<SVal>,
    nba: Vec<GuardedWrite>,
    /// Exact four-state bit 0 per signal, maintained only for undriven
    /// inputs (the only signals edge decisions ever consult — rule 4).
    edge0: Vec<Logic>,
    stack: Vec<SVal>,
}

impl<'a> Blaster<'a> {
    /// Blasts the time-zero settled state of `cd` into `g`.
    ///
    /// # Errors
    ///
    /// Fails for non-levelized designs and for signals driven by both a
    /// combinational and a sequential/`initial` process (see the module
    /// docs for why full sweeps need that exclusion).
    pub fn new(g: &mut Aig, cd: &'a CompiledDesign) -> Result<Blaster<'a>> {
        if !cd.is_levelized() {
            return Err(BlastError::new(
                "design does not qualify for levelized settling",
            ));
        }
        let design = cd.design();
        let mut comb_written = vec![false; design.signals.len()];
        for p in &design.processes {
            if matches!(p.trigger, Trigger::Comb(_)) {
                for &w in &p.writes {
                    comb_written[w.0 as usize] = true;
                }
            }
        }
        for p in &design.processes {
            if matches!(p.trigger, Trigger::Edge(_) | Trigger::Once) {
                for &w in &p.writes {
                    if comb_written[w.0 as usize] {
                        return Err(BlastError::new(format!(
                            "signal `{}` has both combinational and procedural drivers",
                            design.info(w).name
                        )));
                    }
                }
            }
        }
        let values: Vec<SVal> = design
            .signals
            .iter()
            .map(|s| match &s.init {
                Some(v) => SVal::from_lv(&v.resized(s.width)),
                None => SVal::all_x(s.width),
            })
            .collect();
        let edge0: Vec<Logic> = design
            .signals
            .iter()
            .map(|s| match &s.init {
                Some(v) => v.resized(s.width).bit(0),
                None => Logic::X,
            })
            .collect();
        let mut b = Blaster {
            cd,
            values,
            nba: Vec::new(),
            edge0,
            stack: Vec::new(),
        };
        // Time zero: the executor runs `init_order` through its event
        // queue. The initial batch executes in process-id order with
        // wakes appended *behind* it, so running the batch in order and
        // then settling combinationally reproduces the schedule exactly
        // (woken comb re-runs are confluent with the full sweep).
        for pid in cd.init_order().to_vec() {
            b.exec_proc(g, pid)?;
        }
        b.sweep(g)?;
        while !b.nba.is_empty() {
            b.commit_nba(g);
            b.sweep(g)?;
        }
        Ok(b)
    }

    /// The settled symbolic value of a signal.
    pub fn value(&self, sig: u32) -> &SVal {
        &self.values[sig as usize]
    }

    /// Drives an input with a constant and settles, mirroring the
    /// executor's `poke` (skip-if-equal, comb wakes, edge fires).
    pub fn poke_const(&mut self, g: &mut Aig, sig: u32, value: u64) -> Result<()> {
        let info = self.cd.design().info(haven_verilog::elab::SignalId(sig));
        if info.kind != SignalKind::Input {
            return Err(BlastError::new(format!(
                "cannot poke non-input signal `{}`",
                info.name
            )));
        }
        let width = info.width;
        let new = SVal::constant(value, width);
        if self.values[sig as usize] == new {
            // Exact skip: an input's symbolic value is either a poked
            // constant or its four-state initial value, so literal
            // equality here is executor equality (and inequality,
            // including taint, is executor inequality).
            return Ok(());
        }
        let old0 = self.edge0[sig as usize];
        let new0 = if value & 1 == 1 {
            Logic::One
        } else {
            Logic::Zero
        };
        self.values[sig as usize] = new;
        self.edge0[sig as usize] = new0;
        let fired: Vec<u32> = self.cd.edge_woken()[sig as usize]
            .iter()
            .filter(|&&(edge, _)| edge_fired(edge, old0, new0))
            .map(|&(_, q)| q)
            .collect();
        self.settle(g, &fired)
    }

    /// Drives an input with fresh/derived literals and settles.
    ///
    /// # Errors
    ///
    /// Rejects edge-watched inputs: a symbolic old/new pair makes the
    /// edge decision data-dependent, which the scheduler cannot mirror.
    pub fn poke_sym(&mut self, g: &mut Aig, sig: u32, bits: Vec<Lit>) -> Result<()> {
        let info = self.cd.design().info(haven_verilog::elab::SignalId(sig));
        if info.kind != SignalKind::Input {
            return Err(BlastError::new(format!(
                "cannot poke non-input signal `{}`",
                info.name
            )));
        }
        if !self.cd.edge_woken()[sig as usize].is_empty() {
            return Err(BlastError::new(format!(
                "symbolic poke of edge-watched input `{}`",
                info.name
            )));
        }
        let x = vec![Lit::FALSE; bits.len()];
        let new = SVal { bits, x }.resized(info.width);
        if self.values[sig as usize] == new {
            return Ok(());
        }
        // The executor may skip this poke on valuations where old == new;
        // skipping only suppresses comb wakes, and the full sweep is
        // confluent with them, so always settling is exact.
        self.values[sig as usize] = new;
        self.settle(g, &[])
    }

    /// One full clock cycle on `clk`: poke 0, then poke 1 (the
    /// executor's `tick`).
    pub fn tick(&mut self, g: &mut Aig, clk: u32) -> Result<()> {
        self.poke_const(g, clk, 0)?;
        self.poke_const(g, clk, 1)
    }

    /// Post-poke settling: fired edge processes first (they read
    /// pre-sweep combinational values, exactly as `run_step_level`
    /// drains its active queue before the dirty sweep), then a full
    /// combinational sweep, then non-blocking commits until quiescent.
    fn settle(&mut self, g: &mut Aig, fired: &[u32]) -> Result<()> {
        for &pid in fired {
            self.exec_proc(g, pid)?;
        }
        self.sweep(g)?;
        while !self.nba.is_empty() {
            self.commit_nba(g);
            self.sweep(g)?;
        }
        Ok(())
    }

    /// Executes every levelized combinational process in topological
    /// order. Confluent with the executor's dirty-set sweep: each comb
    /// process is a pure function of its completely-declared reads.
    fn sweep(&mut self, g: &mut Aig) -> Result<()> {
        for pid in self.cd.level_order().to_vec() {
            self.exec_proc(g, pid)?;
        }
        Ok(())
    }

    fn exec_proc(&mut self, g: &mut Aig, pid: u32) -> Result<()> {
        let body = &self.cd.bodies()[pid as usize];
        self.exec_stmt(g, body, Lit::TRUE, Lit::FALSE)
    }

    /// Commits the non-blocking batch in queue order against the
    /// *current* values, guard-muxing each write.
    fn commit_nba(&mut self, g: &mut Aig) {
        let batch = std::mem::take(&mut self.nba);
        for w in batch {
            debug_assert!(
                self.cd.edge_woken()[w.sig as usize].is_empty(),
                "rule 4: non-blocking writes cannot target edge-watched signals"
            );
            let old = &self.values[w.sig as usize];
            let new = guarded_overlay(g, old, w.lo, &w.value, w.guard, w.guard_x);
            self.values[w.sig as usize] = new;
        }
    }

    fn exec_stmt(&mut self, g: &mut Aig, s: &CStmt, guard: Lit, gx: Lit) -> Result<()> {
        match s {
            CStmt::Block(stmts) => {
                for s in stmts {
                    self.exec_stmt(g, s, guard, gx)?;
                }
                Ok(())
            }
            CStmt::Blocking { lhs, rhs } => {
                let value = self.run_expr(g, *rhs)?;
                let mut writes = Vec::new();
                self.resolve(g, lhs, value, &mut writes)?;
                for w in &writes {
                    let old = &self.values[w.sig as usize];
                    let new = guarded_overlay(g, old, w.lo, &w.value, guard, gx);
                    self.values[w.sig as usize] = new;
                }
                Ok(())
            }
            CStmt::NonBlocking { lhs, rhs } => {
                let value = self.run_expr(g, *rhs)?;
                let mut writes = Vec::new();
                self.resolve(g, lhs, value, &mut writes)?;
                for w in writes {
                    self.nba.push(GuardedWrite {
                        sig: w.sig,
                        lo: w.lo,
                        value: w.value,
                        guard,
                        guard_x: gx,
                    });
                }
                Ok(())
            }
            CStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.run_expr(g, *cond)?;
                let (t, tx) = truthiness_pair(g, &c);
                if tx == Lit::FALSE {
                    if t == Lit::TRUE {
                        return self.exec_stmt(g, then_branch, guard, gx);
                    }
                    if t == Lit::FALSE {
                        return match else_branch {
                            Some(e) => self.exec_stmt(g, e, guard, gx),
                            None => Ok(()),
                        };
                    }
                }
                let ngx = g.or(gx, tx);
                let then_guard = g.and(guard, t);
                self.exec_branch(g, then_branch, then_guard, ngx)?;
                if let Some(e) = else_branch {
                    let else_guard = g.and(guard, t.not());
                    self.exec_branch(g, e, else_guard, ngx)?;
                }
                Ok(())
            }
            CStmt::Case {
                kind,
                expr,
                arms,
                default,
            } => {
                let sel = self.run_expr(g, *expr)?;
                // Priority chain: arm k runs when it matches and no
                // earlier arm did. Taint on any match condition taints
                // every later decision in the chain — symbolically, so
                // an exhaustive chain's residual taint stays refutable.
                let mut prior = Lit::FALSE;
                let mut chain_x = Lit::FALSE;
                for (labels, body) in arms {
                    let mut arm = Lit::FALSE;
                    let mut arm_x = Lit::FALSE;
                    for &label in labels {
                        let (m, mx) = self.match_cond(g, &sel, *kind, label)?;
                        arm = g.or(arm, m);
                        arm_x = g.or(arm_x, mx);
                    }
                    let up_x = g.or(gx, chain_x);
                    let taken_x = g.or(up_x, arm_x);
                    let not_prior = prior.not();
                    let taken = g.and(guard, arm);
                    let taken = g.and(taken, not_prior);
                    self.exec_branch(g, body, taken, taken_x)?;
                    prior = g.or(prior, arm);
                    chain_x = g.or(chain_x, arm_x);
                }
                if let Some(d) = default {
                    let taken = g.and(guard, prior.not());
                    let dx = g.or(gx, chain_x);
                    self.exec_branch(g, d, taken, dx)?;
                }
                Ok(())
            }
            CStmt::For {
                var,
                init,
                cond,
                step_var,
                step,
                body,
            } => {
                let iv = self.run_expr(g, *init)?;
                self.assign_whole(g, *var, iv, guard, gx);
                let mut iterations = 0usize;
                loop {
                    let c = self.run_expr(g, *cond)?;
                    if c.any_x() {
                        return Err(BlastError::new("tainted for-loop condition"));
                    }
                    let (t, _) = truthiness_pair(g, &c);
                    if t == Lit::FALSE {
                        return Ok(());
                    }
                    if t != Lit::TRUE {
                        return Err(BlastError::new("symbolic for-loop bound"));
                    }
                    iterations += 1;
                    if iterations > MAX_LOOP_ITERATIONS {
                        return Err(BlastError::new("for-loop iteration cap exceeded"));
                    }
                    self.exec_stmt(g, body, guard, gx)?;
                    let sv = self.run_expr(g, *step)?;
                    self.assign_whole(g, *step_var, sv, guard, gx);
                }
            }
            CStmt::Empty => Ok(()),
            CStmt::Error(msg) => Err(BlastError::new(format!("unresolved statement: {msg}"))),
        }
    }

    /// Executes a guarded branch body, skipping it entirely when the
    /// guard is constant-false *and* untainted (the executor provably
    /// never entered it).
    fn exec_branch(&mut self, g: &mut Aig, body: &CStmt, guard: Lit, gx: Lit) -> Result<()> {
        if guard == Lit::FALSE && gx == Lit::FALSE {
            return Ok(());
        }
        self.exec_stmt(g, body, guard, gx)
    }

    /// Whole-signal guarded assignment (the executor's `assign_var`).
    fn assign_whole(&mut self, g: &mut Aig, sig: u32, value: SVal, guard: Lit, gx: Lit) {
        let width = self.cd.design().signals[sig as usize].width;
        let value = value.resized(width);
        let old = &self.values[sig as usize];
        let new = guarded_overlay(g, old, 0, &value, guard, gx);
        self.values[sig as usize] = new;
    }

    /// Match condition of one case label against the selector. Returns
    /// `(condition, taint)`. Literal labels get exact four-state
    /// wildcard handling from their stored planes; computed labels fall
    /// back to two-valued equality plus taint.
    fn match_cond(
        &mut self,
        g: &mut Aig,
        sel: &SVal,
        kind: CaseKind,
        label: ExprId,
    ) -> Result<(Lit, Lit)> {
        let cd: &'a CompiledDesign = self.cd;
        if let [Op::Lit(i)] = cd.expr(label) {
            let lv = &cd.literals()[*i as usize];
            let w = sel.width().max(lv.width());
            let mut conj = Lit::TRUE;
            let mut taint = Lit::FALSE;
            for i in 0..w {
                let lb = if i < lv.width() {
                    lv.bit(i)
                } else {
                    Logic::Zero
                };
                match (kind, lb) {
                    (CaseKind::Z, Logic::Z) => continue,
                    (CaseKind::X, Logic::X | Logic::Z) => continue,
                    _ => {}
                }
                let (sb, sx) = sel.at(i);
                match lb {
                    // Where the selector bit may be unknown, a definite
                    // match claim needs the bit known; the taint literal
                    // records exactly the valuations where it is not.
                    Logic::One => {
                        let m = if sx == Lit::FALSE { sb } else { g.or(sb, sx) };
                        conj = g.and(conj, m);
                        taint = g.or(taint, sx);
                    }
                    Logic::Zero => {
                        let m = if sx == Lit::FALSE {
                            sb.not()
                        } else {
                            g.or(sb.not(), sx)
                        };
                        conj = g.and(conj, m);
                        taint = g.or(taint, sx);
                    }
                    // A known 0/1 selector bit can never satisfy an
                    // x/z label bit that survived the wildcard filter;
                    // a possibly-unknown one might (exact match on x).
                    Logic::X | Logic::Z => {
                        if sx == Lit::FALSE {
                            return Ok((Lit::FALSE, Lit::FALSE));
                        }
                        conj = g.and(conj, sx);
                        taint = g.or(taint, sx);
                    }
                }
            }
            return Ok((conj, taint));
        }
        let l = self.run_expr(g, label)?;
        let mut taint = Lit::FALSE;
        for &xf in sel.x.iter().chain(&l.x) {
            taint = g.or(taint, xf);
        }
        let lit = eq_lit(g, sel, &l);
        Ok((lit, taint))
    }

    /// Mirrors the executor's `resolve_writes`: lvalue bounds are
    /// evaluated now; constant bounds resolve exactly (including the
    /// silent drop of out-of-range writes), tainted bounds widen to a
    /// whole-signal taint, and genuinely symbolic bounds abort.
    fn resolve(
        &mut self,
        g: &mut Aig,
        lhs: &CLval,
        value: SVal,
        out: &mut Vec<RWrite>,
    ) -> Result<()> {
        let design = self.cd.design();
        match lhs {
            CLval::Whole(sig) => {
                let width = design.signals[*sig as usize].width;
                out.push(RWrite {
                    sig: *sig,
                    lo: 0,
                    value: value.resized(width),
                });
                Ok(())
            }
            CLval::Bit { sig, ix } => {
                let info = &design.signals[*sig as usize];
                let (lsb, width) = (info.lsb, info.width);
                let iv = self.run_expr(g, *ix)?;
                match iv.to_u64_mirror() {
                    Some(i) => {
                        let i = i as usize;
                        if i >= lsb && i - lsb < width {
                            out.push(RWrite {
                                sig: *sig,
                                lo: i - lsb,
                                value: value.resized(1),
                            });
                        }
                        Ok(())
                    }
                    None if iv.any_x() => {
                        // The executor either dropped the write or hit
                        // one unknown bit; taint the whole signal.
                        out.push(RWrite {
                            sig: *sig,
                            lo: 0,
                            value: SVal::all_x(width),
                        });
                        Ok(())
                    }
                    None => Err(BlastError::new("dynamic bit-select assignment target")),
                }
            }
            CLval::Part { sig, hi, lo } => {
                let info = &design.signals[*sig as usize];
                let (lsb, width) = (info.lsb, info.width);
                let hv = self.run_expr(g, *hi)?;
                let lv = self.run_expr(g, *lo)?;
                match (hv.to_u64_mirror(), lv.to_u64_mirror()) {
                    (Some(h), Some(l)) => {
                        let (h, l) = (h as usize, l as usize);
                        if h >= l && l >= lsb && h - lsb < width {
                            out.push(RWrite {
                                sig: *sig,
                                lo: l - lsb,
                                value: value.resized(h - l + 1),
                            });
                        }
                        Ok(())
                    }
                    _ if hv.any_x() || lv.any_x() => {
                        out.push(RWrite {
                            sig: *sig,
                            lo: 0,
                            value: SVal::all_x(width),
                        });
                        Ok(())
                    }
                    _ => Err(BlastError::new("dynamic part-select assignment target")),
                }
            }
            CLval::Concat(parts) => {
                let mut widths = Vec::with_capacity(parts.len());
                for p in parts {
                    match self.clval_width(g, p)? {
                        Some(w) => widths.push(w),
                        None => {
                            // A tainted bound makes every split point
                            // uncertain: taint every target signal.
                            for sig in lval_sigs(lhs) {
                                let w = design.signals[sig as usize].width;
                                out.push(RWrite {
                                    sig,
                                    lo: 0,
                                    value: SVal::all_x(w),
                                });
                            }
                            return Ok(());
                        }
                    }
                }
                let total: usize = widths.iter().sum();
                let value = value.resized(total);
                let mut hi = total;
                for (part, w) in parts.iter().zip(widths) {
                    let lo = hi - w;
                    let mut slice = SVal::all_x(w);
                    for i in 0..w {
                        slice.bits[i] = value.bits[lo + i];
                        slice.x[i] = value.x[lo + i];
                    }
                    self.resolve(g, part, slice, out)?;
                    hi = lo;
                }
                Ok(())
            }
        }
    }

    /// Mirror of the executor's `clval_width`; `Ok(None)` marks a
    /// tainted (unknowable) width, symbolic widths abort.
    fn clval_width(&mut self, g: &mut Aig, lv: &CLval) -> Result<Option<usize>> {
        match lv {
            CLval::Whole(sig) => Ok(Some(self.cd.design().signals[*sig as usize].width)),
            CLval::Bit { .. } => Ok(Some(1)),
            CLval::Part { hi, lo, .. } => {
                let hv = self.run_expr(g, *hi)?;
                let lv = self.run_expr(g, *lo)?;
                match (hv.to_u64_mirror(), lv.to_u64_mirror()) {
                    (Some(h), Some(l)) if h >= l => Ok(Some((h - l + 1) as usize)),
                    (Some(_), Some(_)) => Ok(Some(1)),
                    _ if hv.any_x() || lv.any_x() => Ok(None),
                    _ => Err(BlastError::new("dynamic part-select width")),
                }
            }
            CLval::Concat(parts) => {
                let mut total = 0usize;
                for p in parts {
                    match self.clval_width(g, p)? {
                        Some(w) => total += w,
                        None => return Ok(None),
                    }
                }
                Ok(Some(total))
            }
        }
    }

    /// Executes one expression chunk symbolically.
    ///
    /// When the compile pipeline kept the word-level netlist rung (it
    /// always does now), the chunk is blasted from its root *cell*
    /// instead of the flat bytecode: the cell graph is a DAG, so a
    /// subexpression the stack machine had to duplicate — `(a & b)` in
    /// `(a & b) ^ (a & b + 1)`, every leaf a rebalanced reduction tree
    /// shares — blasts exactly once per chunk via the memo, giving
    /// shallower and smaller AIGs for the SAT stage. Chunks that failed
    /// netlist import (`expr_root` is `None`) fall back to the bytecode
    /// walk, which remains semantically identical.
    fn run_expr(&mut self, g: &mut Aig, id: ExprId) -> Result<SVal> {
        let cd: &'a CompiledDesign = self.cd;
        if let Some(nl) = cd.netlist() {
            if let Some(root) = cd.expr_root(id) {
                let nl: &'a Netlist = nl.as_ref();
                let mut memo: HashMap<CellId, SVal> = HashMap::new();
                return self.blast_cell(g, nl, root, &mut memo);
            }
        }
        let base = self.stack.len();
        // Copy the design reference out so the op slice borrows `'a`,
        // not `&mut self`.
        for op in cd.expr(id) {
            let v = match op {
                Op::Lit(i) => SVal::from_lv(&cd.literals()[*i as usize]),
                Op::Load(sig) => {
                    if *sig == NO_SIGNAL {
                        SVal::all_x(1)
                    } else {
                        self.values[*sig as usize].clone()
                    }
                }
                Op::Unary(uop) => {
                    let a = self.stack.pop().expect("unary operand");
                    unary(g, *uop, &a)
                }
                Op::Binary(bop) => {
                    let b = self.stack.pop().expect("binary rhs");
                    let a = self.stack.pop().expect("binary lhs");
                    binary(g, *bop, &a, &b)?
                }
                Op::Ternary => {
                    let f = self.stack.pop().expect("ternary else");
                    let t = self.stack.pop().expect("ternary then");
                    let c = self.stack.pop().expect("ternary cond");
                    ternary(g, &c, &t, &f)?
                }
                Op::Concat(n) => {
                    if *n == 0 {
                        SVal::all_x(1)
                    } else {
                        let mut acc = self.stack.pop().expect("concat part");
                        for _ in 1..*n {
                            let hi = self.stack.pop().expect("concat part");
                            let mut bits = acc.bits;
                            let mut x = acc.x;
                            bits.extend_from_slice(&hi.bits);
                            x.extend_from_slice(&hi.x);
                            acc = SVal { bits, x };
                        }
                        acc
                    }
                }
                Op::Replicate => {
                    let v = self.stack.pop().expect("replicate inner");
                    let n = self.stack.pop().expect("replicate count");
                    match n.to_u64_mirror() {
                        Some(c) if (1..=64).contains(&c) => {
                            let mut bits = Vec::with_capacity(v.width() * c as usize);
                            let mut x = Vec::with_capacity(v.width() * c as usize);
                            for _ in 0..c {
                                bits.extend_from_slice(&v.bits);
                                x.extend_from_slice(&v.x);
                            }
                            SVal { bits, x }
                        }
                        Some(_) => SVal::all_x(v.width()),
                        // A non-constant count makes the result width
                        // data-dependent (the executor folds only
                        // executor-constant counts).
                        None => {
                            return Err(BlastError::new("dynamic replication count"));
                        }
                    }
                }
                Op::Index(sig) => {
                    let ix = self.stack.pop().expect("index operand");
                    self.index_op(g, *sig, &ix)?
                }
                Op::Slice(sig) => {
                    let lo = self.stack.pop().expect("slice lo");
                    let hi = self.stack.pop().expect("slice hi");
                    self.slice_op(*sig, &hi, &lo)?
                }
            };
            self.stack.push(v);
        }
        debug_assert_eq!(self.stack.len(), base + 1, "chunk must net one value");
        Ok(self.stack.pop().expect("bytecode result"))
    }

    /// Blasts one netlist cell, memoized per `run_expr` call (the memo
    /// is only valid for the current signal state, so it never outlives
    /// the chunk evaluation). Each transfer function is the same one the
    /// bytecode walk uses — only the traversal changed from a tree to a
    /// DAG.
    fn blast_cell(
        &mut self,
        g: &mut Aig,
        nl: &'a Netlist,
        id: CellId,
        memo: &mut HashMap<CellId, SVal>,
    ) -> Result<SVal> {
        if let Some(v) = memo.get(&id) {
            return Ok(v.clone());
        }
        let v = match nl.kind(id) {
            CellKind::Const(c) => SVal::from_lv(c),
            CellKind::Load(sig) => {
                if *sig == NO_SIGNAL {
                    SVal::all_x(1)
                } else {
                    self.values[*sig as usize].clone()
                }
            }
            CellKind::Unary(uop, a) => {
                let a = self.blast_cell(g, nl, *a, memo)?;
                unary(g, *uop, &a)
            }
            CellKind::Binary(bop, a, b) => {
                let a = self.blast_cell(g, nl, *a, memo)?;
                let b = self.blast_cell(g, nl, *b, memo)?;
                binary(g, *bop, &a, &b)?
            }
            CellKind::Mux {
                cond,
                then_arm,
                else_arm,
            } => {
                let c = self.blast_cell(g, nl, *cond, memo)?;
                let t = self.blast_cell(g, nl, *then_arm, memo)?;
                let f = self.blast_cell(g, nl, *else_arm, memo)?;
                ternary(g, &c, &t, &f)?
            }
            CellKind::Concat(parts) => {
                if parts.is_empty() {
                    SVal::all_x(1)
                } else {
                    // Parts are MSB-first; SVal bits are LSB-first, so
                    // append from the last (least significant) part up.
                    let mut bits = Vec::new();
                    let mut x = Vec::new();
                    for &p in parts.iter().rev() {
                        let v = self.blast_cell(g, nl, p, memo)?;
                        bits.extend_from_slice(&v.bits);
                        x.extend_from_slice(&v.x);
                    }
                    SVal { bits, x }
                }
            }
            CellKind::Replicate { count, value } => {
                let n = self.blast_cell(g, nl, *count, memo)?;
                let v = self.blast_cell(g, nl, *value, memo)?;
                match n.to_u64_mirror() {
                    Some(c) if (1..=64).contains(&c) => {
                        let mut bits = Vec::with_capacity(v.width() * c as usize);
                        let mut x = Vec::with_capacity(v.width() * c as usize);
                        for _ in 0..c {
                            bits.extend_from_slice(&v.bits);
                            x.extend_from_slice(&v.x);
                        }
                        SVal { bits, x }
                    }
                    Some(_) => SVal::all_x(v.width()),
                    None => {
                        return Err(BlastError::new("dynamic replication count"));
                    }
                }
            }
            CellKind::BitSelect { sig, index } => {
                let ix = self.blast_cell(g, nl, *index, memo)?;
                self.index_op(g, *sig, &ix)?
            }
            CellKind::PartSelect { sig, hi, lo } => {
                let hi = self.blast_cell(g, nl, *hi, memo)?;
                let lo = self.blast_cell(g, nl, *lo, memo)?;
                self.slice_op(*sig, &hi, &lo)?
            }
        };
        memo.insert(id, v.clone());
        Ok(v)
    }

    /// `sig[ix]` — constant indices resolve exactly (out-of-range and
    /// below-LSB reads are executor `x`, hence taint); symbolic indices
    /// expand to a mux tree over every reachable position.
    fn index_op(&mut self, g: &mut Aig, sig: u32, ix: &SVal) -> Result<SVal> {
        if sig == NO_SIGNAL {
            return Ok(SVal::all_x(1));
        }
        let info = &self.cd.design().signals[sig as usize];
        let (lsb, width) = (info.lsb, info.width);
        match ix.to_u64_mirror() {
            Some(i) => {
                let i = i as usize;
                if i < lsb || i - lsb >= width {
                    return Ok(SVal::all_x(1));
                }
                let base = &self.values[sig as usize];
                Ok(SVal {
                    bits: vec![base.bits[i - lsb]],
                    x: vec![base.x[i - lsb]],
                })
            }
            None if ix.any_x() => Ok(SVal::all_x(1)),
            None => {
                let iw = ix.width();
                if iw > MAX_DYN_INDEX_BITS {
                    return Ok(SVal::all_x(1));
                }
                let span = 1usize << iw;
                let base = self.values[sig as usize].clone();
                let mut acc = Lit::FALSE;
                let mut taint = Lit::FALSE;
                for j in 0..span {
                    let sel = eq_const(g, ix, j as u64);
                    if j < lsb || j - lsb >= width {
                        // An out-of-range selection reads x.
                        taint = g.or(taint, sel);
                        continue;
                    }
                    let hit = g.and(sel, base.bits[j - lsb]);
                    acc = g.or(acc, hit);
                    let tx = g.and(sel, base.x[j - lsb]);
                    taint = g.or(taint, tx);
                }
                Ok(SVal {
                    bits: vec![acc],
                    x: vec![taint],
                })
            }
        }
    }

    /// `sig[hi:lo]` — only constant bounds keep the width decidable.
    fn slice_op(&mut self, sig: u32, hi: &SVal, lo: &SVal) -> Result<SVal> {
        let (base, lsb) = if sig == NO_SIGNAL {
            (SVal::all_x(1), 0usize)
        } else {
            let info = &self.cd.design().signals[sig as usize];
            (self.values[sig as usize].clone(), info.lsb)
        };
        match (hi.to_u64_mirror(), lo.to_u64_mirror()) {
            (Some(h), Some(l)) if h >= l => {
                let (h, l) = (h as usize, l as usize);
                let w = h - l + 1;
                if l < lsb {
                    return Ok(SVal::all_x(w));
                }
                let mut out = SVal::all_x(w);
                for i in 0..w {
                    let j = l - lsb + i;
                    if j < base.width() {
                        out.bits[i] = base.bits[j];
                        out.x[i] = base.x[j];
                    }
                }
                Ok(out)
            }
            (Some(h), Some(l)) => Ok(SVal::all_x((l - h) as usize + 1)),
            _ => Err(BlastError::new("dynamic part-select bounds")),
        }
    }
}

/// Signals written (at any depth) by an lvalue.
fn lval_sigs(lv: &CLval) -> Vec<u32> {
    match lv {
        CLval::Whole(sig) | CLval::Bit { sig, .. } | CLval::Part { sig, .. } => vec![*sig],
        CLval::Concat(parts) => parts.iter().flat_map(lval_sigs).collect(),
    }
}

/// Overlays `value` at `lo` onto `old` under a control-flow guard.
///
/// With a constant-true untainted guard the overlay is the executor's
/// `write_bits` exactly; a constant-false untainted guard is a no-op; in
/// between, each written bit muxes on the guard — and so does its
/// **taint**: under valuations where the guard is exact and true the
/// written taint applies, where exact and false the old taint survives.
/// This guard-mux on the taint plane is what lets an exhaustive
/// `if`/`case` chain fully discharge an uninitialized register's
/// initial X: the residual taint literal becomes unsatisfiable.
fn guarded_overlay(g: &mut Aig, old: &SVal, lo: usize, value: &SVal, guard: Lit, gx: Lit) -> SVal {
    if guard == Lit::FALSE && gx == Lit::FALSE {
        return old.clone();
    }
    let w = old.width();
    if lo >= w {
        return old.clone();
    }
    let n = value.width().min(w - lo);
    let mut out = old.clone();
    for i in 0..n {
        let (ob, ox) = (old.bits[lo + i], old.x[lo + i]);
        let (mb, mx) = (value.bits[i], value.x[i]);
        if guard == Lit::TRUE && gx == Lit::FALSE {
            out.bits[lo + i] = mb;
            out.x[lo + i] = mx;
        } else {
            out.bits[lo + i] = g.mux(guard, mb, ob);
            let sel_x = g.mux(guard, mx, ox);
            out.x[lo + i] = g.or(gx, sel_x);
        }
    }
    out
}

/// `(truthiness literal, taint literal)`: the executor's reduction-OR.
/// A known constant-one bit decides `One` regardless of unknowns (the
/// static fast path); symbolically, any *defined* one bit does the same,
/// so the taint literal is "some bit unknown ∧ no defined one".
fn truthiness_pair(g: &mut Aig, v: &SVal) -> (Lit, Lit) {
    for (b, &xf) in v.bits.iter().zip(&v.x) {
        if xf == Lit::FALSE && *b == Lit::TRUE {
            return (Lit::TRUE, Lit::FALSE);
        }
    }
    if v.x.iter().all(|&xf| xf == Lit::FALSE) {
        let mut t = Lit::FALSE;
        for &b in &v.bits {
            t = g.or(t, b);
        }
        return (t, Lit::FALSE);
    }
    let mut t = Lit::FALSE;
    let mut anyx = Lit::FALSE;
    for (&b, &xf) in v.bits.iter().zip(&v.x) {
        let defined_one = g.and(b, xf.not());
        t = g.or(t, defined_one);
        anyx = g.or(anyx, xf);
    }
    let taint = g.and(anyx, t.not());
    (t, taint)
}

/// Two-valued equality over the zero-extended max width.
fn eq_lit(g: &mut Aig, a: &SVal, b: &SVal) -> Lit {
    let w = a.width().max(b.width());
    let mut conj = Lit::TRUE;
    for i in 0..w {
        let (ab, _) = a.at(i);
        let (bb, _) = b.at(i);
        let same = g.xnor(ab, bb);
        conj = g.and(conj, same);
    }
    conj
}

/// Equality of an (untainted) vector with a constant.
fn eq_const(g: &mut Aig, v: &SVal, c: u64) -> Lit {
    let mut conj = Lit::TRUE;
    for (i, &b) in v.bits.iter().enumerate() {
        let want = i < 64 && c >> i & 1 == 1;
        conj = g.and(conj, if want { b } else { b.not() });
    }
    conj
}

/// Unsigned `a < b` over the zero-extended max width (MSB-down ripple).
fn lt_lit(g: &mut Aig, a: &SVal, b: &SVal) -> Lit {
    let w = a.width().max(b.width());
    let mut lt = Lit::FALSE;
    let mut eq = Lit::TRUE;
    for i in (0..w).rev() {
        let (ab, _) = a.at(i);
        let (bb, _) = b.at(i);
        let here = g.and(ab.not(), bb);
        let here = g.and(eq, here);
        lt = g.or(lt, here);
        let same = g.xnor(ab, bb);
        eq = g.and(eq, same);
    }
    lt
}

/// Ripple-carry `a + b (+ carry_in)` at width `w` (operands pre-extended
/// via [`SVal::at`]).
fn add_bits(g: &mut Aig, a: &SVal, b: &SVal, w: usize, negate_b: bool, carry_in: bool) -> Vec<Lit> {
    let mut carry = if carry_in { Lit::TRUE } else { Lit::FALSE };
    let mut out = Vec::with_capacity(w);
    for i in 0..w {
        let (ab, _) = a.at(i);
        let (bb0, _) = b.at(i);
        let bb = if negate_b { bb0.not() } else { bb0 };
        let axb = g.xor(ab, bb);
        out.push(g.xor(axb, carry));
        let gen = g.and(ab, bb);
        let prop = g.and(axb, carry);
        carry = g.or(gen, prop);
    }
    out
}

/// Disjunction of every taint literal in `v` (true where *some* bit is
/// unknown under the valuation).
fn or_taint(g: &mut Aig, v: &SVal) -> Lit {
    let mut acc = Lit::FALSE;
    for &xf in &v.x {
        acc = g.or(acc, xf);
    }
    acc
}

fn unary(g: &mut Aig, op: UnaryOp, a: &SVal) -> SVal {
    let w = a.width();
    let ax = a.any_x();
    let single = |l: Lit, t: Lit| SVal {
        bits: vec![l],
        x: vec![t],
    };
    match op {
        UnaryOp::LogicNot => {
            let (t, tx) = truthiness_pair(g, a);
            single(t.not(), tx)
        }
        UnaryOp::BitNot => SVal {
            bits: a.bits.iter().map(|b| b.not()).collect(),
            x: a.x.clone(),
        },
        UnaryOp::ReduceAnd | UnaryOp::ReduceNand => {
            // A known-zero bit decides the reduction under any taint;
            // symbolically, a *defined* zero does the same, so the
            // taint literal is "some bit unknown ∧ no defined zero".
            let exact_zero = a
                .bits
                .iter()
                .zip(&a.x)
                .any(|(&b, &xf)| xf == Lit::FALSE && b == Lit::FALSE);
            let (v, t) = if exact_zero {
                (Lit::FALSE, Lit::FALSE)
            } else if !ax {
                let mut conj = Lit::TRUE;
                for &b in &a.bits {
                    conj = g.and(conj, b);
                }
                (conj, Lit::FALSE)
            } else {
                let mut conj = Lit::TRUE;
                let mut defined_zero = Lit::FALSE;
                let mut anyx = Lit::FALSE;
                for (&b, &xf) in a.bits.iter().zip(&a.x) {
                    // Unknown bits cannot pull the conjunction down.
                    let masked = g.or(b, xf);
                    conj = g.and(conj, masked);
                    let dz = g.and(b.not(), xf.not());
                    defined_zero = g.or(defined_zero, dz);
                    anyx = g.or(anyx, xf);
                }
                (conj, g.and(anyx, defined_zero.not()))
            };
            single(
                if op == UnaryOp::ReduceNand {
                    v.not()
                } else {
                    v
                },
                t,
            )
        }
        UnaryOp::ReduceOr | UnaryOp::ReduceNor => {
            let (t, tx) = truthiness_pair(g, a);
            single(if op == UnaryOp::ReduceNor { t.not() } else { t }, tx)
        }
        UnaryOp::ReduceXor | UnaryOp::ReduceXnor => {
            let mut acc = Lit::FALSE;
            for &b in &a.bits {
                acc = g.xor(acc, b);
            }
            let t = or_taint(g, a);
            single(
                if op == UnaryOp::ReduceXnor {
                    acc.not()
                } else {
                    acc
                },
                t,
            )
        }
        UnaryOp::Negate => {
            // The executor answers all-x on any unknown bit or width > 64.
            if ax || w > 64 {
                return SVal::all_x(w);
            }
            let not_a = SVal {
                bits: a.bits.iter().map(|b| b.not()).collect(),
                x: vec![Lit::FALSE; w],
            };
            let zero = SVal::constant(0, w);
            SVal {
                bits: add_bits(g, &not_a, &zero, w, false, true),
                x: vec![Lit::FALSE; w],
            }
        }
        UnaryOp::Plus => a.clone(),
    }
}

fn binary(g: &mut Aig, op: BinaryOp, a: &SVal, b: &SVal) -> Result<SVal> {
    let w = a.width().max(b.width());
    let ax = a.any_x();
    let bx = b.any_x();
    let single = |l: Lit, t: Lit| SVal {
        bits: vec![l],
        x: vec![t],
    };
    match op {
        BinaryOp::LogicOr => {
            let (at, atx) = truthiness_pair(g, a);
            let (bt, btx) = truthiness_pair(g, b);
            if (atx == Lit::FALSE && at == Lit::TRUE) || (btx == Lit::FALSE && bt == Lit::TRUE) {
                return Ok(single(Lit::TRUE, Lit::FALSE));
            }
            // A defined-true side absorbs the other side's unknown.
            let da = g.and(at, atx.not());
            let db = g.and(bt, btx.not());
            let decided = g.or(da, db);
            let anyx = g.or(atx, btx);
            let taint = g.and(anyx, decided.not());
            Ok(single(g.or(at, bt), taint))
        }
        BinaryOp::LogicAnd => {
            let (at, atx) = truthiness_pair(g, a);
            let (bt, btx) = truthiness_pair(g, b);
            if (atx == Lit::FALSE && at == Lit::FALSE) || (btx == Lit::FALSE && bt == Lit::FALSE) {
                return Ok(single(Lit::FALSE, Lit::FALSE));
            }
            // A defined-false side absorbs the other side's unknown.
            let da = g.and(at.not(), atx.not());
            let db = g.and(bt.not(), btx.not());
            let decided = g.or(da, db);
            let anyx = g.or(atx, btx);
            let taint = g.and(anyx, decided.not());
            Ok(single(g.and(at, bt), taint))
        }
        BinaryOp::BitOr => {
            let mut out = SVal::all_x(w);
            for i in 0..w {
                let (ab, axi) = a.at(i);
                let (bb, bxi) = b.at(i);
                // A known-one operand bit absorbs any unknown.
                if (axi == Lit::FALSE && ab == Lit::TRUE) || (bxi == Lit::FALSE && bb == Lit::TRUE)
                {
                    out.bits[i] = Lit::TRUE;
                    out.x[i] = Lit::FALSE;
                } else {
                    out.bits[i] = g.or(ab, bb);
                    out.x[i] = if axi == Lit::FALSE && bxi == Lit::FALSE {
                        Lit::FALSE
                    } else {
                        // Symbolic absorption: a defined one decides.
                        let da = g.and(ab, axi.not());
                        let db = g.and(bb, bxi.not());
                        let decided = g.or(da, db);
                        let anyx = g.or(axi, bxi);
                        g.and(anyx, decided.not())
                    };
                }
            }
            Ok(out)
        }
        BinaryOp::BitAnd => {
            let mut out = SVal::all_x(w);
            for i in 0..w {
                let (ab, axi) = a.at(i);
                let (bb, bxi) = b.at(i);
                // A known-zero operand bit absorbs any unknown.
                if (axi == Lit::FALSE && ab == Lit::FALSE)
                    || (bxi == Lit::FALSE && bb == Lit::FALSE)
                {
                    out.bits[i] = Lit::FALSE;
                    out.x[i] = Lit::FALSE;
                } else {
                    out.bits[i] = g.and(ab, bb);
                    out.x[i] = if axi == Lit::FALSE && bxi == Lit::FALSE {
                        Lit::FALSE
                    } else {
                        // Symbolic absorption: a defined zero decides.
                        let da = g.and(ab.not(), axi.not());
                        let db = g.and(bb.not(), bxi.not());
                        let decided = g.or(da, db);
                        let anyx = g.or(axi, bxi);
                        g.and(anyx, decided.not())
                    };
                }
            }
            Ok(out)
        }
        BinaryOp::BitXor | BinaryOp::BitXnor => {
            let mut out = SVal::all_x(w);
            for i in 0..w {
                let (ab, axi) = a.at(i);
                let (bb, bxi) = b.at(i);
                let v = g.xor(ab, bb);
                out.bits[i] = if op == BinaryOp::BitXnor { v.not() } else { v };
                out.x[i] = g.or(axi, bxi);
            }
            Ok(out)
        }
        BinaryOp::Eq | BinaryOp::Neq => {
            // Definite mismatch on a doubly-known bit decides 0 even
            // with unknowns elsewhere (the executor's eq_logic).
            for i in 0..w {
                let (ab, axi) = a.at(i);
                let (bb, bxi) = b.at(i);
                // Complementary literals differ under every valuation.
                if axi == Lit::FALSE && bxi == Lit::FALSE && ab == bb.not() {
                    let v = if op == BinaryOp::Neq {
                        Lit::TRUE
                    } else {
                        Lit::FALSE
                    };
                    return Ok(single(v, Lit::FALSE));
                }
            }
            let e = eq_lit(g, a, b);
            let ta = or_taint(g, a);
            let tb = or_taint(g, b);
            let taint = g.or(ta, tb);
            Ok(single(if op == BinaryOp::Neq { e.not() } else { e }, taint))
        }
        BinaryOp::CaseEq | BinaryOp::CaseNeq => {
            // With no unknowns on either side, `===` is plain equality;
            // otherwise the four-state planes are out of reach.
            let e = eq_lit(g, a, b);
            let ta = or_taint(g, a);
            let tb = or_taint(g, b);
            let taint = g.or(ta, tb);
            Ok(single(
                if op == BinaryOp::CaseNeq { e.not() } else { e },
                taint,
            ))
        }
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            if ax || bx || w > 64 {
                return Ok(single(Lit::FALSE, Lit::TRUE));
            }
            let v = match op {
                BinaryOp::Lt => lt_lit(g, a, b),
                BinaryOp::Gt => lt_lit(g, b, a),
                BinaryOp::Le => lt_lit(g, b, a).not(),
                _ => lt_lit(g, a, b).not(),
            };
            Ok(single(v, Lit::FALSE))
        }
        BinaryOp::Shl | BinaryOp::Shr => shift(g, a, b, op == BinaryOp::Shl, false),
        BinaryOp::AShr => shift(g, a, b, false, true),
        BinaryOp::Add | BinaryOp::Sub => {
            if ax || bx || w > 64 {
                return Ok(SVal::all_x(w));
            }
            let sub = op == BinaryOp::Sub;
            Ok(SVal {
                bits: add_bits(g, a, b, w, sub, sub),
                x: vec![Lit::FALSE; w],
            })
        }
        BinaryOp::Mul => {
            if ax || bx || w > 64 {
                return Ok(SVal::all_x(w));
            }
            // Shift-and-add over b's bits (wrapping at width w).
            let mut acc = SVal::constant(0, w);
            for (k, &bb) in b.bits.iter().enumerate() {
                if k >= w {
                    break;
                }
                let mut partial = SVal::constant(0, w);
                for i in k..w {
                    let (abit, _) = a.at(i - k);
                    partial.bits[i] = g.and(abit, bb);
                }
                acc = SVal {
                    bits: add_bits(g, &acc, &partial, w, false, false),
                    x: vec![Lit::FALSE; w],
                };
            }
            Ok(acc)
        }
        BinaryOp::Div | BinaryOp::Rem | BinaryOp::Pow => {
            match (a.to_u64_mirror(), b.to_u64_mirror()) {
                (Some(av), Some(bv)) => {
                    let r = match op {
                        BinaryOp::Div if bv != 0 => Some(av / bv),
                        BinaryOp::Rem if bv != 0 => Some(av % bv),
                        BinaryOp::Pow => {
                            let mut acc: u64 = 1;
                            for _ in 0..bv.min(64) {
                                acc = acc.wrapping_mul(av);
                            }
                            Some(acc)
                        }
                        _ => None, // division by a literal zero is all-x
                    };
                    Ok(match r {
                        Some(v) => SVal::constant(v, w),
                        None => SVal::all_x(w),
                    })
                }
                _ => Ok(SVal::all_x(w)),
            }
        }
    }
}

/// Shifts. The result width is always the **left** operand's width (the
/// executor's self-determined rule), which keeps every case — constant,
/// tainted or symbolic amount — width-safe.
fn shift(g: &mut Aig, a: &SVal, b: &SVal, left: bool, arith: bool) -> Result<SVal> {
    let aw = a.width();
    if let Some(n) = b.to_u64_mirror() {
        // Constant amount: exact per-bit shift of values *and* taint,
        // matching the executor's plane shifts (zero fill, or the
        // four-state MSB fill for arithmetic right shifts).
        let n = n.min(u32::MAX as u64) as usize;
        let mut out = SVal::constant(0, aw);
        let (fill_b, fill_x) = if arith {
            (a.bits[aw - 1], a.x[aw - 1])
        } else {
            (Lit::FALSE, Lit::FALSE)
        };
        for i in 0..aw {
            if left {
                if i >= n {
                    out.bits[i] = a.bits[i - n];
                    out.x[i] = a.x[i - n];
                }
            } else if i + n < aw {
                out.bits[i] = a.bits[i + n];
                out.x[i] = a.x[i + n];
            } else if arith {
                out.bits[i] = fill_b;
                out.x[i] = fill_x;
            }
        }
        return Ok(out);
    }
    if b.width() > 64 {
        // The executor's wide amount always reads as "unknown" — even
        // when it is a constant — and poisons the whole result.
        return Ok(SVal::all_x(aw));
    }
    if a.any_x() || b.any_x() {
        return Ok(SVal::all_x(aw));
    }
    // Symbolic amount: barrel shifter over b's low bits, with one
    // "overflow" clause for any high amount bit that already shifts
    // everything out.
    let mut cur: Vec<Lit> = a.bits.clone();
    let mut overflow = Lit::FALSE;
    let fill = if arith { a.bits[aw - 1] } else { Lit::FALSE };
    for (k, &bb) in b.bits.iter().enumerate() {
        let amount = 1u128 << k.min(64);
        if amount >= aw as u128 {
            overflow = g.or(overflow, bb);
            continue;
        }
        let amount = amount as usize;
        let mut next = Vec::with_capacity(aw);
        for i in 0..aw {
            let shifted = if left {
                if i >= amount {
                    cur[i - amount]
                } else {
                    Lit::FALSE
                }
            } else if i + amount < aw {
                cur[i + amount]
            } else {
                fill
            };
            next.push(g.mux(bb, shifted, cur[i]));
        }
        cur = next;
    }
    let out_bits: Vec<Lit> = cur.into_iter().map(|b| g.mux(overflow, fill, b)).collect();
    Ok(SVal {
        bits: out_bits,
        x: vec![Lit::FALSE; aw],
    })
}

/// `cond ? t : f` with the executor's x-merge on unknowable conditions.
fn ternary(g: &mut Aig, c: &SVal, t: &SVal, f: &SVal) -> Result<SVal> {
    let (cl, cx) = truthiness_pair(g, c);
    if cx == Lit::FALSE {
        if cl == Lit::TRUE {
            return Ok(t.clone());
        }
        if cl == Lit::FALSE {
            return Ok(f.clone());
        }
    }
    if t.width() != f.width() {
        // A data-dependent selection between different widths cannot be
        // expressed as per-bit taint (the merge width is the max, but a
        // definite selection keeps the arm's own width).
        return Err(BlastError::new("ternary arms of different widths"));
    }
    let w = t.width();
    let mut out = SVal::all_x(w);
    for i in 0..w {
        // Where the condition may be unknown the executor may select
        // either arm or x-merge them; the bit is only claimable when
        // both arms agree exactly (then the merge is that value too).
        if t.bits[i] == f.bits[i] && t.x[i] == Lit::FALSE && f.x[i] == Lit::FALSE {
            out.bits[i] = t.bits[i];
            out.x[i] = Lit::FALSE;
            continue;
        }
        out.bits[i] = g.mux(cl, t.bits[i], f.bits[i]);
        let branch_x = g.mux(cl, t.x[i], f.x[i]);
        out.x[i] = g.or(cx, branch_x);
    }
    Ok(out)
}
