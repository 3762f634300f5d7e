//! Equivalence checking: miter construction, sweeping, SAT, verdicts.
//!
//! Both designs are blasted into **one** AIG with the *same* fresh input
//! literals driving their free inputs, so structurally identical logic
//! hash-conses across the two designs and the per-output difference
//! literals frequently fold to constant false without any search. What
//! survives is attacked in escalating stages:
//!
//! 1. constant folding (already done inside the AIG),
//! 2. bit-parallel random simulation — 64 stimulus vectors per round
//!    fishing for a cheap counterexample,
//! 3. the CDCL core on a cone-scoped Tseitin encoding of the disjunction
//!    of all surviving difference literals.
//!
//! Sequential designs are checked by bounded unrolling: a constant reset
//! preamble (supplied by the caller, derived from the spec's reset
//! protocol) followed by `seq_steps` clock cycles with fresh symbolic
//! data inputs each cycle. Edge-watched inputs other than the clock hold
//! their final preamble value — a documented restriction, since a
//! symbolic edge decision cannot be scheduled.
//!
//! Verdict semantics (the soundness contract the property suite checks):
//!
//! * `Equivalent` is only reported when every difference literal is
//!   unsatisfiable **and** every compared output bit's taint literal is
//!   unsatisfiable too (taint is symbolic — see the bitblast module —
//!   so "the uninitialized register is overwritten on every path" is a
//!   provable fact, not an automatic `Unknown`);
//! * `Counterexample` carries a concrete stimulus, and callers are
//!   expected to replay it on the scalar simulator before trusting it;
//! * everything else — taint, budget exhaustion, unsupported constructs,
//!   interface mismatches — is `Unknown`, never a silent pass.

use std::collections::BTreeMap;

use haven_verilog::compile::CompiledDesign;
use haven_verilog::elab::Trigger;
use haven_verilog::exec::CompiledSim;
use haven_verilog::logic::LogicVec;

use crate::aig::{Aig, Lit};
use crate::bitblast::Blaster;
use crate::cnf::encode;
use crate::sat::{SatResult, SatStats};

/// One constant stimulus operation of the reset preamble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreambleOp {
    /// Drive an input to a constant.
    Set(String, u64),
    /// One full clock cycle.
    Tick,
}

/// Tuning knobs for one equivalence query.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivOptions {
    /// Clock cycles of bounded unrolling for sequential designs.
    pub seq_steps: usize,
    /// SAT conflict budget; exhausted budgets yield `Unknown`.
    pub sat_conflicts: u64,
    /// Rounds of 64-pattern random simulation before SAT.
    pub sim_rounds: usize,
    /// Clock input name; required when either design is sequential.
    pub clock: Option<String>,
    /// Constant reset protocol applied before the free steps.
    pub preamble: Vec<PreambleOp>,
    /// Constant probe applied *after* the free steps, with outputs
    /// compared after every operation. This is how edge-watched inputs
    /// (held constant during the free steps) still get exercised: a
    /// `Set(reset, asserted)` here distinguishes async from sync reset
    /// styles, because the comparison right after the poke happens
    /// before any clock edge.
    pub postamble: Vec<PreambleOp>,
    /// Seed for the counterexample-fishing simulation.
    pub seed: u64,
}

impl Default for EquivOptions {
    fn default() -> EquivOptions {
        EquivOptions {
            seq_steps: 6,
            sat_conflicts: 200_000,
            sim_rounds: 8,
            clock: None,
            preamble: Vec::new(),
            postamble: Vec::new(),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Why a query could not be decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnknownReason {
    /// The two designs do not expose the same ports.
    InterfaceMismatch(String),
    /// A construct the bitblaster cannot lower soundly.
    Unsupported(String),
    /// Output bits tainted by the two-valued x-abstraction; listed
    /// outputs carry taint, so "no difference found" proves nothing.
    XAbstraction(String),
    /// The SAT core exhausted its conflict budget.
    SatBudget,
    /// A counterexample failed scalar replay (reported by callers that
    /// confirm; never produced by [`check_equiv`] itself).
    ReplayUnconfirmed,
}

impl std::fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnknownReason::InterfaceMismatch(d) => write!(f, "interface mismatch: {d}"),
            UnknownReason::Unsupported(d) => write!(f, "unsupported: {d}"),
            UnknownReason::XAbstraction(d) => write!(f, "x-abstraction taint on {d}"),
            UnknownReason::SatBudget => write!(f, "SAT conflict budget exhausted"),
            UnknownReason::ReplayUnconfirmed => write!(f, "counterexample failed replay"),
        }
    }
}

/// One unrolled step of a counterexample: the constants to drive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CexStep {
    /// `(input, value)` pokes, in poke order.
    pub sets: Vec<(String, u64)>,
}

/// A concrete distinguishing stimulus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CexTrace {
    /// Reset protocol to replay first.
    pub preamble: Vec<PreambleOp>,
    /// Free steps; sequential traces tick after each step's pokes.
    pub steps: Vec<CexStep>,
    /// Constant probe replayed after the free steps, outputs checked
    /// after every operation.
    pub postamble: Vec<PreambleOp>,
    /// Step index where the first mismatch appears: an index into
    /// `steps`, or `steps.len() + i` for the check after `postamble[i]`.
    pub mismatch_step: usize,
    /// Output port that differs there.
    pub mismatch_output: String,
}

/// The three-valued outcome of an equivalence query.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivVerdict {
    /// Outputs agree for **all** input assignments (within the unroll
    /// bound for sequential designs).
    Equivalent,
    /// A concrete stimulus distinguishing the designs.
    Counterexample(CexTrace),
    /// Not decided; the reason says why.
    Unknown(UnknownReason),
}

impl EquivVerdict {
    /// Whether this verdict proves equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivVerdict::Equivalent)
    }
}

/// Outcome plus the cost counters the bench and telemetry layers emit.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivReport {
    /// The verdict.
    pub verdict: EquivVerdict,
    /// Total AIG nodes after blasting both designs.
    pub aig_nodes: usize,
    /// Free symbolic input bits.
    pub aig_inputs: usize,
    /// Whether the verdict was reached without running SAT.
    pub structural: bool,
    /// Random-simulation rounds actually run.
    pub sim_rounds_run: usize,
    /// SAT core counters (zeroed when SAT never ran).
    pub sat_stats: SatStats,
}

impl EquivReport {
    fn undecided(reason: UnknownReason) -> EquivReport {
        EquivReport {
            verdict: EquivVerdict::Unknown(reason),
            aig_nodes: 0,
            aig_inputs: 0,
            structural: true,
            sim_rounds_run: 0,
            sat_stats: SatStats::default(),
        }
    }
}

/// One per-(step, output) proof obligation.
struct Obligation {
    step: usize,
    output: String,
    /// OR over bits of `golden XOR candidate`, each conjoined with
    /// "neither side tainted here" — a satisfying assignment is always
    /// a genuine two-valued mismatch.
    diff: Lit,
    /// OR over bits of "either side tainted here". `Equivalent` needs
    /// this unsatisfiable as well as `diff`.
    taint: Lit,
}

/// A free symbolic input poked at one step.
struct SymInput {
    step: usize,
    name: String,
    lits: Vec<Lit>,
}

fn is_sequential(cd: &CompiledDesign) -> bool {
    cd.design()
        .processes
        .iter()
        .any(|p| matches!(p.trigger, Trigger::Edge(_)))
}

/// Checks `candidate ≡ golden` and reports the verdict with cost
/// counters. Never panics on malformed candidates — every failure mode
/// maps to `Unknown`.
pub fn check_equiv(
    golden: &CompiledDesign,
    candidate: &CompiledDesign,
    opts: &EquivOptions,
) -> EquivReport {
    // Interface: same input and output port sets (name and width).
    let ports = |cd: &CompiledDesign| -> (BTreeMap<String, usize>, BTreeMap<String, usize>) {
        (
            cd.design().input_ports().into_iter().collect(),
            cd.design().output_ports().into_iter().collect(),
        )
    };
    let (gi, go) = ports(golden);
    let (ci, co) = ports(candidate);
    if gi != ci || go != co {
        return EquivReport::undecided(UnknownReason::InterfaceMismatch(format!(
            "golden {}in/{}out vs candidate {}in/{}out",
            gi.len(),
            go.len(),
            ci.len(),
            co.len()
        )));
    }

    let sequential = is_sequential(golden) || is_sequential(candidate);
    let clock = match (&opts.clock, sequential) {
        (Some(c), true) => Some(c.clone()),
        (None, true) => {
            return EquivReport::undecided(UnknownReason::Unsupported(
                "sequential design without a configured clock".into(),
            ))
        }
        (_, false) => None,
    };
    if let Some(c) = &clock {
        if !gi.contains_key(c) {
            return EquivReport::undecided(UnknownReason::Unsupported(format!(
                "clock `{c}` is not an input port"
            )));
        }
    }

    let mut g = Aig::new();
    let mut bg = match Blaster::new(&mut g, golden) {
        Ok(b) => b,
        Err(e) => return EquivReport::undecided(UnknownReason::Unsupported(e.reason)),
    };
    let mut bc = match Blaster::new(&mut g, candidate) {
        Ok(b) => b,
        Err(e) => return EquivReport::undecided(UnknownReason::Unsupported(e.reason)),
    };

    let sig_of = |cd: &CompiledDesign, name: &str| cd.design().signal(name).map(|s| s.0);

    // Reset preamble: constant pokes mirrored into both designs.
    for op in &opts.preamble {
        let r = match op {
            PreambleOp::Set(name, v) => {
                let (Some(sg), Some(sc)) = (sig_of(golden, name), sig_of(candidate, name)) else {
                    return EquivReport::undecided(UnknownReason::Unsupported(format!(
                        "preamble drives unknown input `{name}`"
                    )));
                };
                bg.poke_const(&mut g, sg, *v)
                    .and_then(|()| bc.poke_const(&mut g, sc, *v))
            }
            PreambleOp::Tick => {
                let c = clock.as_deref().unwrap_or_default();
                let (Some(sg), Some(sc)) = (sig_of(golden, c), sig_of(candidate, c)) else {
                    return EquivReport::undecided(UnknownReason::Unsupported(
                        "preamble tick without a clock".into(),
                    ));
                };
                bg.tick(&mut g, sg).and_then(|()| bc.tick(&mut g, sc))
            }
        };
        if let Err(e) = r {
            return EquivReport::undecided(UnknownReason::Unsupported(e.reason));
        }
    }

    // Free inputs: every input except the clock and edge-watched signals
    // (those hold their final preamble constant). Edge-watched status can
    // differ between designs; an input is held if *either* side watches
    // it, so both sides always see identical stimuli.
    let mut free_inputs: Vec<String> = Vec::new();
    for name in gi.keys() {
        if Some(name) == clock.as_ref() {
            continue;
        }
        let watched = |cd: &CompiledDesign| {
            sig_of(cd, name).is_some_and(|s| !cd.edge_woken()[s as usize].is_empty())
        };
        if watched(golden) || watched(candidate) {
            continue;
        }
        free_inputs.push(name.clone());
    }

    let steps = if sequential { opts.seq_steps.max(1) } else { 1 };
    let mut sym_inputs: Vec<SymInput> = Vec::new();
    let mut obligations: Vec<Obligation> = Vec::new();

    for step in 0..steps {
        for name in &free_inputs {
            let width = gi[name];
            let lits: Vec<Lit> = (0..width).map(|_| g.input()).collect();
            let (Some(sg), Some(sc)) = (sig_of(golden, name), sig_of(candidate, name)) else {
                return EquivReport::undecided(UnknownReason::Unsupported(format!(
                    "input `{name}` not found"
                )));
            };
            let r = bg
                .poke_sym(&mut g, sg, lits.clone())
                .and_then(|()| bc.poke_sym(&mut g, sc, lits.clone()));
            if let Err(e) = r {
                return EquivReport::undecided(UnknownReason::Unsupported(e.reason));
            }
            sym_inputs.push(SymInput {
                step,
                name: name.clone(),
                lits,
            });
        }
        if sequential {
            let c = clock.as_deref().unwrap_or_default();
            let (Some(sg), Some(sc)) = (sig_of(golden, c), sig_of(candidate, c)) else {
                return EquivReport::undecided(UnknownReason::Unsupported(
                    "clock not found".into(),
                ));
            };
            let r = bg.tick(&mut g, sg).and_then(|()| bc.tick(&mut g, sc));
            if let Err(e) = r {
                return EquivReport::undecided(UnknownReason::Unsupported(e.reason));
            }
        }
        if let Err(r) = observe_outputs(
            &mut g,
            &bg,
            &bc,
            golden,
            candidate,
            &go,
            step,
            &mut obligations,
        ) {
            return r;
        }
    }

    // Postamble probe: constant pokes after the free steps, outputs
    // compared after every operation. This is the only way edge-watched
    // inputs (held constant above) get exercised, and the only bounded
    // query that separates async from sync reset styles.
    for (i, op) in opts.postamble.iter().enumerate() {
        let r = match op {
            PreambleOp::Set(name, v) => {
                let (Some(sg), Some(sc)) = (sig_of(golden, name), sig_of(candidate, name)) else {
                    return EquivReport::undecided(UnknownReason::Unsupported(format!(
                        "postamble drives unknown input `{name}`"
                    )));
                };
                bg.poke_const(&mut g, sg, *v)
                    .and_then(|()| bc.poke_const(&mut g, sc, *v))
            }
            PreambleOp::Tick => {
                let c = clock.as_deref().unwrap_or_default();
                let (Some(sg), Some(sc)) = (sig_of(golden, c), sig_of(candidate, c)) else {
                    return EquivReport::undecided(UnknownReason::Unsupported(
                        "postamble tick without a clock".into(),
                    ));
                };
                bg.tick(&mut g, sg).and_then(|()| bc.tick(&mut g, sc))
            }
        };
        if let Err(e) = r {
            return EquivReport::undecided(UnknownReason::Unsupported(e.reason));
        }
        if let Err(r) = observe_outputs(
            &mut g,
            &bg,
            &bc,
            golden,
            candidate,
            &go,
            steps + i,
            &mut obligations,
        ) {
            return r;
        }
    }

    decide(g, opts, sym_inputs, obligations, steps)
}

/// Records one per-output proof obligation at `step`: the OR over bit
/// pairs of `golden XOR candidate` masked by "both sides known", plus
/// the OR of the per-bit taint literals.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::result_large_err)] // Err is the final report; built once on a cold path
fn observe_outputs(
    g: &mut Aig,
    bg: &Blaster<'_>,
    bc: &Blaster<'_>,
    golden: &CompiledDesign,
    candidate: &CompiledDesign,
    go: &BTreeMap<String, usize>,
    step: usize,
    obligations: &mut Vec<Obligation>,
) -> Result<(), EquivReport> {
    let sig_of = |cd: &CompiledDesign, name: &str| cd.design().signal(name).map(|s| s.0);
    for (name, &width) in go {
        let (Some(sg), Some(sc)) = (sig_of(golden, name), sig_of(candidate, name)) else {
            return Err(EquivReport::undecided(UnknownReason::Unsupported(format!(
                "output `{name}` not found"
            ))));
        };
        let gv = bg.value(sg).clone();
        let cv = bc.value(sc).clone();
        let mut diff = Lit::FALSE;
        let mut taint = Lit::FALSE;
        for i in 0..width {
            let (gb, gx) = (gv.bits[i], gv.x[i]);
            let (cb, cx) = (cv.bits[i], cv.x[i]);
            let bit_taint = g.or(gx, cx);
            taint = g.or(taint, bit_taint);
            let d = g.xor(gb, cb);
            let defined = g.and(d, bit_taint.not());
            diff = g.or(diff, defined);
        }
        obligations.push(Obligation {
            step,
            output: name.clone(),
            diff,
            taint,
        });
    }
    Ok(())
}

/// Stages 2–3 of the pipeline: fold, fish, then SAT.
fn decide(
    g: Aig,
    opts: &EquivOptions,
    sym_inputs: Vec<SymInput>,
    obligations: Vec<Obligation>,
    nsteps: usize,
) -> EquivReport {
    let mut report = EquivReport {
        verdict: EquivVerdict::Equivalent,
        aig_nodes: g.len(),
        aig_inputs: g.input_count(),
        structural: true,
        sim_rounds_run: 0,
        sat_stats: SatStats::default(),
    };
    // Constant-true difference: the designs differ under *every*
    // assignment; all-zero inputs are as good a witness as any.
    if let Some(o) = obligations.iter().find(|o| o.diff == Lit::TRUE) {
        let zeros = vec![0u64; g.input_count()];
        report.verdict = EquivVerdict::Counterexample(build_trace(
            &g,
            opts,
            &sym_inputs,
            &obligations,
            &zeros,
            0,
            (o.step, &o.output),
            nsteps,
        ));
        return report;
    }

    let live: Vec<&Obligation> = obligations
        .iter()
        .filter(|o| o.diff != Lit::FALSE)
        .collect();
    if live.is_empty() {
        resolve_taint(&g, opts, &obligations, &mut report);
        return report;
    }
    report.structural = false;

    // Stage 2: random bit-parallel simulation, 64 vectors a round.
    let mut rng = opts.seed | 1;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for _ in 0..opts.sim_rounds {
        report.sim_rounds_run += 1;
        let words: Vec<u64> = (0..g.input_count()).map(|_| next()).collect();
        let vals = g.sim64(&words);
        if let Some((o, lane)) = live.iter().find_map(|o| {
            let w = Aig::read64(&vals, o.diff);
            (w != 0).then(|| (*o, w.trailing_zeros() as usize))
        }) {
            report.verdict = EquivVerdict::Counterexample(build_trace(
                &g,
                opts,
                &sym_inputs,
                &obligations,
                &words,
                lane,
                (o.step, &o.output),
                nsteps,
            ));
            return report;
        }
    }

    // Stage 3: SAT on the disjunction of surviving differences.
    let roots: Vec<Lit> = live.iter().map(|o| o.diff).collect();
    let (mut solver, map) = encode(&g, &roots);
    let outcome = solver.solve(opts.sat_conflicts);
    report.sat_stats = *solver.stats();
    match outcome {
        SatResult::Unsat => {
            // No two-valued mismatch exists; equivalence now hinges on
            // whether any compared bit's taint can actually materialize.
            resolve_taint(&g, opts, &obligations, &mut report);
        }
        SatResult::Unknown => {
            report.verdict = EquivVerdict::Unknown(UnknownReason::SatBudget);
        }
        SatResult::Sat => {
            // Decode the model into one 64-wide lane, then locate the
            // first obligation the assignment actually triggers.
            let mut words = vec![0u64; g.input_count()];
            for (pos, word) in words.iter_mut().enumerate() {
                let lit = g.input_lit(pos);
                let v = map
                    .lit(lit)
                    .map(|dv| solver.value(dv.abs()) == (dv > 0))
                    .unwrap_or(false);
                *word = if v { 1 } else { 0 };
            }
            let vals = g.sim64(&words);
            let hit = obligations
                .iter()
                .find(|o| Aig::read64(&vals, o.diff) & 1 == 1);
            match hit {
                Some(o) => {
                    report.verdict = EquivVerdict::Counterexample(build_trace(
                        &g,
                        opts,
                        &sym_inputs,
                        &obligations,
                        &words,
                        0,
                        (o.step, &o.output),
                        nsteps,
                    ));
                }
                None => {
                    // A model that triggers nothing would be a solver
                    // bug; refuse to guess rather than report wrongly.
                    report.verdict = EquivVerdict::Unknown(UnknownReason::Unsupported(
                        "SAT model triggers no obligation".into(),
                    ));
                }
            }
        }
    }
    report
}

/// Settles the taint side of the proof once no two-valued mismatch
/// exists: `Equivalent` requires every obligation's taint literal to be
/// unsatisfiable. Constant taints decide structurally; conditional
/// taints (an uninitialized register behind a guard chain) go to the
/// SAT core, which proves either that every path overwrites the X
/// (taint UNSAT → `Equivalent`) or that some reachable input leaves it
/// live (taint SAT → `Unknown`, because the executor's value there is
/// outside the two-valued abstraction).
fn resolve_taint(
    g: &Aig,
    opts: &EquivOptions,
    obligations: &[Obligation],
    report: &mut EquivReport,
) {
    let possibly: Vec<&Obligation> = obligations
        .iter()
        .filter(|o| o.taint != Lit::FALSE)
        .collect();
    if possibly.is_empty() {
        report.verdict = EquivVerdict::Equivalent;
        return;
    }
    let reason = || {
        let mut names: Vec<&str> = possibly.iter().map(|o| o.output.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        UnknownReason::XAbstraction(names.join(","))
    };
    if possibly.iter().any(|o| o.taint == Lit::TRUE) {
        report.verdict = EquivVerdict::Unknown(reason());
        return;
    }
    report.structural = false;
    let roots: Vec<Lit> = possibly.iter().map(|o| o.taint).collect();
    let (mut solver, _map) = encode(g, &roots);
    let outcome = solver.solve(opts.sat_conflicts);
    let s = solver.stats();
    report.sat_stats.decisions += s.decisions;
    report.sat_stats.conflicts += s.conflicts;
    report.sat_stats.propagations += s.propagations;
    report.sat_stats.restarts += s.restarts;
    report.sat_stats.learned += s.learned;
    report.verdict = match outcome {
        SatResult::Unsat => EquivVerdict::Equivalent,
        SatResult::Sat => EquivVerdict::Unknown(reason()),
        SatResult::Unknown => EquivVerdict::Unknown(UnknownReason::SatBudget),
    };
}

/// Materializes a counterexample trace from one simulation lane.
#[allow(clippy::too_many_arguments)]
fn build_trace(
    g: &Aig,
    opts: &EquivOptions,
    sym_inputs: &[SymInput],
    obligations: &[Obligation],
    words: &[u64],
    lane: usize,
    fallback_mismatch: (usize, &str),
    nsteps: usize,
) -> CexTrace {
    let mut steps: Vec<CexStep> = (0..nsteps).map(|_| CexStep { sets: Vec::new() }).collect();
    for si in sym_inputs {
        let mut value = 0u64;
        for (bit, &lit) in si.lits.iter().enumerate() {
            let pos = g.input_index(lit).expect("symbolic input literal");
            if words.get(pos).copied().unwrap_or(0) >> lane & 1 == 1 && bit < 64 {
                value |= 1 << bit;
            }
        }
        steps[si.step].sets.push((si.name.clone(), value));
    }
    // Re-simulate the lane to pin the earliest triggered mismatch.
    let vals = g.sim64(words);
    let (mismatch_step, mismatch_output) = obligations
        .iter()
        .filter(|o| Aig::read64(&vals, o.diff) >> lane & 1 == 1)
        .map(|o| (o.step, o.output.clone()))
        .next()
        .unwrap_or((fallback_mismatch.0, fallback_mismatch.1.to_string()));
    CexTrace {
        preamble: opts.preamble.clone(),
        steps,
        postamble: opts.postamble.clone(),
        mismatch_step,
        mismatch_output,
    }
}

/// A hard scalar mismatch found during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// Step index where the outputs first diverge.
    pub step: usize,
    /// Output port name.
    pub output: String,
    /// Golden value at the mismatch.
    pub golden: LogicVec,
    /// Candidate value at the mismatch.
    pub candidate: LogicVec,
}

/// Whether two four-state values disagree on some bit both sides know.
/// This is the only mismatch a sound counterexample may claim: taint
/// never reaches a compared diff literal, so the predicted bit must be
/// known (and different) on both sides.
pub fn hard_mismatch(a: &LogicVec, b: &LogicVec) -> bool {
    let w = a.width().max(b.width());
    let a = a.resized(w);
    let b = b.resized(w);
    (0..w).any(|i| {
        let (x, y) = (a.bit(i), b.bit(i));
        x.is_known() && y.is_known() && x != y
    })
}

/// Replays a counterexample on two scalar simulators and returns the
/// first hard mismatch, if the trace really distinguishes the designs.
///
/// Any simulator error (budget, oscillation) yields `None` — an
/// unconfirmed counterexample, which callers must degrade to `Unknown`.
pub fn replay_cex(
    golden: &std::sync::Arc<CompiledDesign>,
    candidate: &std::sync::Arc<CompiledDesign>,
    trace: &CexTrace,
    clock: Option<&str>,
) -> Option<ReplayMismatch> {
    let mut sg = CompiledSim::new(std::sync::Arc::clone(golden)).ok()?;
    let mut sc = CompiledSim::new(std::sync::Arc::clone(candidate)).ok()?;
    for op in &trace.preamble {
        match op {
            PreambleOp::Set(name, v) => {
                sg.poke_u64(name, *v).ok()?;
                sc.poke_u64(name, *v).ok()?;
            }
            PreambleOp::Tick => {
                let c = clock?;
                sg.tick(c).ok()?;
                sc.tick(c).ok()?;
            }
        }
    }
    let outputs: Vec<String> = golden
        .design()
        .output_ports()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for (step, s) in trace.steps.iter().enumerate() {
        for (name, v) in &s.sets {
            sg.poke_u64(name, *v).ok()?;
            sc.poke_u64(name, *v).ok()?;
        }
        if let Some(c) = clock {
            sg.tick(c).ok()?;
            sc.tick(c).ok()?;
        }
        for name in &outputs {
            let gv = sg.peek(name).ok()?;
            let cv = sc.peek(name).ok()?;
            if hard_mismatch(&gv, &cv) {
                return Some(ReplayMismatch {
                    step,
                    output: name.clone(),
                    golden: gv,
                    candidate: cv,
                });
            }
        }
    }
    for (i, op) in trace.postamble.iter().enumerate() {
        match op {
            PreambleOp::Set(name, v) => {
                sg.poke_u64(name, *v).ok()?;
                sc.poke_u64(name, *v).ok()?;
            }
            PreambleOp::Tick => {
                let c = clock?;
                sg.tick(c).ok()?;
                sc.tick(c).ok()?;
            }
        }
        let step = trace.steps.len() + i;
        for name in &outputs {
            let gv = sg.peek(name).ok()?;
            let cv = sc.peek(name).ok()?;
            if hard_mismatch(&gv, &cv) {
                return Some(ReplayMismatch {
                    step,
                    output: name.clone(),
                    golden: gv,
                    candidate: cv,
                });
            }
        }
    }
    None
}
