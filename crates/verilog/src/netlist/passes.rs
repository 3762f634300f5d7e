//! The optimizing pass pipeline over the word-level netlist.
//!
//! Four passes, each a consing rebuild of the graph (operands are remapped
//! through the running old→new id map, so every rewrite is congruent by
//! construction and structurally identical results merge automatically):
//!
//! * **normalize** — canonical operand order for commutative operators,
//!   `>`/`>=` flipped to `<`/`<=` (exactly how the evaluator computes
//!   them), double-`~` elimination, nested-concat flattening, singleton
//!   concat/replicate elimination;
//! * **constfold** — x-aware constant folding. All-constant cells fold by
//!   calling the interpreter's own `eval_unary`/`eval_binary`/
//!   `merge_unknown`, so a fold *cannot* disagree with the oracle.
//!   Identity/absorption rules use the four-state value lattice: rules
//!   that coerce `z` bits to `x` (`a & 1 → a`, `a | 0 → a`,
//!   `c ? a : a → a`) only fire when the kept operand provably never
//!   carries `z` ([`may_z`]); arithmetic identities (`a + 0 → a`) are
//!   rejected outright because x-poisoning arithmetic makes them unsound;
//! * **lower** — AIG-friendly lowering: compares against all-0/all-1
//!   constants become reduction gates, constant 1-bit muxes become
//!   `|`/`!`, shifts by known constants become identity or zero;
//! * **rebalance** — left-leaning chains of associative operators
//!   (`&`, `|`, `^` at any widths; `+`, `*` only at uniform widths, where
//!   wrap-around and x-poisoning are shape-independent) rebuilt as
//!   balanced trees, halving AIG depth for wide reductions.
//!
//! The pipeline iterates the enabled passes to a fixpoint (bounded rounds);
//! `prop_netlist` pins bit-identical `CosimReport`s against the interpreter
//! for every pass individually and for the full pipeline.

use crate::ast::{BinaryOp, UnaryOp};
use crate::eval::{eval_binary, eval_unary, merge_unknown};
use crate::logic::{Logic, LogicVec};

use super::{CellId, CellKind, Netlist};

/// Which passes run. Folded (as [`PassConfig::mask`]) into engine cache
/// keys next to [`super::NETLIST_PASS_VERSION`], so artifacts lowered
/// under different configurations never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassConfig {
    /// Canonicalization (operand order, compare flips, concat flattening).
    pub normalize: bool,
    /// X-aware constant folding.
    pub constfold: bool,
    /// Compare/mux/shift lowering.
    pub lower: bool,
    /// Associative chain rebalancing.
    pub rebalance: bool,
}

impl PassConfig {
    /// Every pass enabled — the default production pipeline.
    pub fn full() -> PassConfig {
        PassConfig {
            normalize: true,
            constfold: true,
            lower: true,
            rebalance: true,
        }
    }

    /// No passes: the netlist round-trips to bytecode unrewritten (chunk
    /// and literal deduplication still apply — they are codegen
    /// properties, not rewrites).
    pub fn none() -> PassConfig {
        PassConfig {
            normalize: false,
            constfold: false,
            lower: false,
            rebalance: false,
        }
    }

    /// A 4-bit mask for cache-key folding; bit order is fixed forever.
    pub fn mask(&self) -> u64 {
        u64::from(self.normalize)
            | u64::from(self.constfold) << 1
            | u64::from(self.lower) << 2
            | u64::from(self.rebalance) << 3
    }
}

impl Default for PassConfig {
    fn default() -> PassConfig {
        PassConfig::full()
    }
}

/// Rewrite counters reported by [`run`], surfaced through
/// `CompiledDesign::pass_stats` into benches and `haven-lint`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Fixpoint rounds executed.
    pub rounds: u32,
    /// Rewrites applied by the normalize pass.
    pub normalized: u64,
    /// Rewrites applied by the constfold pass.
    pub folded: u64,
    /// Rewrites applied by the lower pass.
    pub lowered: u64,
    /// Chains rebuilt by the rebalance pass.
    pub rebalanced: u64,
    /// Live cells before the pipeline.
    pub cells_in: u64,
    /// Live cells after the pipeline.
    pub cells_out: u64,
}

impl PassStats {
    /// Total rewrites across all passes.
    pub fn total_rewrites(&self) -> u64 {
        self.normalized + self.folded + self.lowered + self.rebalanced
    }
}

/// Maximum fixpoint rounds. Each pass is monotone (cells only fold or
/// flatten), so convergence is fast; the bound is a safety net.
const MAX_ROUNDS: u32 = 4;

/// Runs the enabled passes to a fixpoint and returns the rewritten
/// netlist with counters.
pub fn run(mut nl: Netlist, config: PassConfig) -> (Netlist, PassStats) {
    let mut stats = PassStats {
        cells_in: live_cells(&nl),
        ..PassStats::default()
    };
    for _ in 0..MAX_ROUNDS {
        let mut fired = 0u64;
        if config.normalize {
            let (next, n) = normalize(&nl);
            nl = next;
            stats.normalized += n;
            fired += n;
        }
        if config.constfold {
            let (next, n) = constfold(&nl);
            nl = next;
            stats.folded += n;
            fired += n;
        }
        if config.lower {
            let (next, n) = lower(&nl);
            nl = next;
            stats.lowered += n;
            fired += n;
        }
        if config.rebalance {
            let (next, n) = rebalance(&nl);
            nl = next;
            stats.rebalanced += n;
            fired += n;
        }
        stats.rounds += 1;
        if fired == 0 {
            break;
        }
    }
    stats.cells_out = live_cells(&nl);
    (nl, stats)
}

/// Cells reachable from a root — what codegen will actually emit.
fn live_cells(nl: &Netlist) -> u64 {
    let mut live = vec![false; nl.cell_count()];
    let mut work: Vec<CellId> = nl.roots().iter().flatten().copied().collect();
    while let Some(id) = work.pop() {
        if std::mem::replace(&mut live[id as usize], true) {
            continue;
        }
        nl.kind(id).for_each_operand(|o| work.push(o));
    }
    live.iter().filter(|&&l| l).count() as u64
}

/// One consing rebuild in flight: old cells are visited in ascending id
/// order (operands before users), each old id maps to its rewritten cell
/// in `out`, and `may_z` tracks, per *new* cell, whether its value can
/// ever carry a `z` bit — the guard for identity rewrites, since every
/// logical operator coerces `z` to `x` while a kept operand would not.
struct Rebuilder {
    out: Netlist,
    map: Vec<CellId>,
    may_z: Vec<bool>,
}

impl Rebuilder {
    fn new(src: &Netlist) -> Rebuilder {
        Rebuilder {
            out: Netlist::with_sig_widths(src.sig_widths().to_vec()),
            map: Vec::with_capacity(src.cell_count()),
            may_z: Vec::new(),
        }
    }

    /// The source kind with operands remapped into the new graph.
    fn mapped(&self, kind: &CellKind) -> CellKind {
        kind.map_operands(|o| self.map[o as usize])
    }

    /// Adds a cell to the new graph, keeping the z-analysis current.
    fn add(&mut self, kind: CellKind) -> CellId {
        let id = self.out.add(kind);
        while self.may_z.len() < self.out.cell_count() {
            let next = self.may_z.len();
            let z = cell_may_z(&self.out, next as CellId, &self.may_z);
            self.may_z.push(z);
        }
        id
    }

    fn may_z(&self, id: CellId) -> bool {
        self.may_z[id as usize]
    }

    /// Records the rewrite target for the current source cell.
    fn push_map(&mut self, id: CellId) {
        self.map.push(id);
    }

    /// Maps root slots across and returns the finished netlist.
    fn finish(mut self, src: &Netlist) -> Netlist {
        for root in src.roots() {
            let mapped = root.map(|r| self.map[r as usize]);
            self.out.push_root(mapped);
        }
        self.out
    }
}

/// Whether the value of `id` (in `nl`, with `may_z` filled for all
/// operands) can carry a `z` bit. Conservative: `true` when unsure.
/// Sources of `z` are literals containing `z` digits and signal reads
/// (a signal can be assigned a `z` literal); logical/arithmetic operators
/// never *produce* `z`, but shifts, concats, replication, muxes with a
/// known condition, and `+a` pass operand bits through untouched.
fn cell_may_z(nl: &Netlist, id: CellId, may_z: &[bool]) -> bool {
    let z = |o: CellId| may_z[o as usize];
    match nl.kind(id) {
        CellKind::Const(v) => v.iter().any(|&b| b == Logic::Z),
        CellKind::Load(_) | CellKind::BitSelect { .. } | CellKind::PartSelect { .. } => true,
        CellKind::Unary(op, a) => match op {
            UnaryOp::Plus => z(*a),
            _ => false,
        },
        CellKind::Binary(op, a, _) => match op {
            BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => z(*a),
            _ => false,
        },
        CellKind::Mux {
            then_arm, else_arm, ..
        } => z(*then_arm) || z(*else_arm),
        CellKind::Concat(parts) => parts.iter().any(|&p| z(p)),
        CellKind::Replicate { value, .. } => z(*value),
    }
}

/// Operators that commute exactly under four-state evaluation (symmetric
/// truth tables / symmetric `to_u64` arithmetic / symmetric equality).
fn is_commutative(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::BitOr
            | BinaryOp::BitXor
            | BinaryOp::BitXnor
            | BinaryOp::BitAnd
            | BinaryOp::Add
            | BinaryOp::Mul
            | BinaryOp::Eq
            | BinaryOp::Neq
            | BinaryOp::CaseEq
            | BinaryOp::CaseNeq
            | BinaryOp::LogicOr
            | BinaryOp::LogicAnd
    )
}

fn normalize(src: &Netlist) -> (Netlist, u64) {
    let mut rb = Rebuilder::new(src);
    let mut fired = 0u64;
    for id in 0..src.cell_count() as CellId {
        let kind = rb.mapped(src.kind(id));
        let new = match kind {
            // ~~a → a, sound only when `a` never carries z (the double
            // negation would coerce z to x).
            CellKind::Unary(UnaryOp::BitNot, a) => {
                if let CellKind::Unary(UnaryOp::BitNot, inner) = rb.out.kind(a) {
                    let inner = *inner;
                    if !rb.may_z(inner) {
                        fired += 1;
                        rb.push_map(inner);
                        continue;
                    }
                }
                rb.add(CellKind::Unary(UnaryOp::BitNot, a))
            }
            // `a > b` is evaluated as `b < a` (and `>=` as `<=`); encode
            // that orientation structurally so both spellings cons.
            CellKind::Binary(BinaryOp::Gt, a, b) => {
                fired += 1;
                rb.add(CellKind::Binary(BinaryOp::Lt, b, a))
            }
            CellKind::Binary(BinaryOp::Ge, a, b) => {
                fired += 1;
                rb.add(CellKind::Binary(BinaryOp::Le, b, a))
            }
            // Canonical operand order for commutative operators: smaller
            // cell id first. Purely structural, so `a & b` and `b & a`
            // share one cell.
            CellKind::Binary(op, a, b) if is_commutative(op) && a > b => {
                fired += 1;
                rb.add(CellKind::Binary(op, b, a))
            }
            // {{a,b},c} → {a,b,c} and {a} → a. Concatenation is bit
            // juxtaposition, so flattening is exact at any widths.
            CellKind::Concat(parts) => {
                if parts.len() == 1 {
                    fired += 1;
                    rb.push_map(parts[0]);
                    continue;
                }
                if parts
                    .iter()
                    .any(|&p| matches!(rb.out.kind(p), CellKind::Concat(_)))
                {
                    fired += 1;
                    let mut flat = Vec::with_capacity(parts.len());
                    for p in parts {
                        match rb.out.kind(p) {
                            CellKind::Concat(inner) => flat.extend(inner.iter().copied()),
                            _ => flat.push(p),
                        }
                    }
                    rb.add(CellKind::Concat(flat))
                } else {
                    rb.add(CellKind::Concat(parts))
                }
            }
            // {1{a}} → a (replicate(1) is the identity, bits untouched).
            CellKind::Replicate { count, value }
                if rb.out.const_of(count).and_then(|c| c.to_u64()) == Some(1) =>
            {
                fired += 1;
                rb.push_map(value);
                continue;
            }
            other => rb.add(other),
        };
        rb.push_map(new);
    }
    (rb.finish(src), fired)
}

/// All-zero / all-one tests for identity and absorption rules.
fn is_all(v: &LogicVec, bit: Logic) -> bool {
    v.iter().all(|&b| b == bit)
}

fn constfold(src: &Netlist) -> (Netlist, u64) {
    let mut rb = Rebuilder::new(src);
    let mut fired = 0u64;
    for id in 0..src.cell_count() as CellId {
        let kind = rb.mapped(src.kind(id));
        if let Some(target) = fold_cell(&mut rb, &kind) {
            fired += 1;
            rb.push_map(target);
        } else {
            let new = rb.add(kind);
            rb.push_map(new);
        }
    }
    (rb.finish(src), fired)
}

/// One constant-folding step on a remapped kind. Returns the replacement
/// cell id, or `None` when no rule applies. Every exact fold calls the
/// interpreter's own evaluation functions.
fn fold_cell(rb: &mut Rebuilder, kind: &CellKind) -> Option<CellId> {
    match kind {
        CellKind::Unary(op, a) => {
            let va = rb.out.const_of(*a)?.clone();
            Some(rb.add(CellKind::Const(eval_unary(*op, &va))))
        }
        CellKind::Binary(op, a, b) => {
            if let (Some(va), Some(vb)) = (rb.out.const_of(*a), rb.out.const_of(*b)) {
                let v = eval_binary(*op, &va.clone(), &vb.clone());
                return Some(rb.add(CellKind::Const(v)));
            }
            fold_binary_identity(rb, *op, *a, *b)
        }
        CellKind::Mux {
            cond,
            then_arm,
            else_arm,
        } => {
            if let Some(c) = rb.out.const_of(*cond) {
                match c.truthiness() {
                    Logic::One => return Some(*then_arm),
                    Logic::Zero => return Some(*else_arm),
                    _ => {
                        if let (Some(t), Some(f)) =
                            (rb.out.const_of(*then_arm), rb.out.const_of(*else_arm))
                        {
                            let v = merge_unknown(&t.clone(), &f.clone());
                            return Some(rb.add(CellKind::Const(v)));
                        }
                    }
                }
            }
            // c ? a : a → a needs the z-guard: an unknown condition
            // merges the arms, coercing z to x.
            if then_arm == else_arm && !rb.may_z(*then_arm) {
                return Some(*then_arm);
            }
            None
        }
        CellKind::Concat(parts) => {
            let consts: Option<Vec<LogicVec>> =
                parts.iter().map(|&p| rb.out.const_of(p).cloned()).collect();
            let vals = consts?;
            // Mirror the evaluator: fold from the least significant
            // (last) part outward.
            let mut it = vals.into_iter().rev();
            let mut acc = it.next()?;
            for hi in it {
                acc = hi.concat(&acc);
            }
            Some(rb.add(CellKind::Const(acc)))
        }
        CellKind::Replicate { count, value } => {
            let c = rb.out.const_of(*count)?.clone();
            let vconst = rb.out.const_of(*value).cloned();
            match (c.to_u64(), vconst) {
                (Some(n), Some(v)) if (1..=64).contains(&n) => {
                    let folded = v.replicate(n as usize);
                    Some(rb.add(CellKind::Const(folded)))
                }
                (Some(n), _) if !(1..=64).contains(&n) => {
                    // Out-of-range constant count: all-x of the inner
                    // width, regardless of the inner value.
                    let w = rb.out.width(*value)?;
                    Some(rb.add(CellKind::Const(LogicVec::unknown(w))))
                }
                (None, _) => {
                    // x/z bits in the count poison the same way.
                    let w = rb.out.width(*value)?;
                    Some(rb.add(CellKind::Const(LogicVec::unknown(w))))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Identity/absorption rules for a binary cell with at least one constant
/// operand. Soundness notes inline — every accepted rule is exact over
/// all four-state inputs, including width effects of zero-extension.
fn fold_binary_identity(rb: &mut Rebuilder, op: BinaryOp, a: CellId, b: CellId) -> Option<CellId> {
    // Orient so `c` is the constant side (commutative ops may carry it on
    // either side even after normalization, since order is by cell id).
    let (x, c, cv) = match (rb.out.const_of(a), rb.out.const_of(b)) {
        (None, Some(v)) => (a, b, v.clone()),
        (Some(v), None) => (b, a, v.clone()),
        _ => return None,
    };
    let commutes = is_commutative(op);
    // Shift-type ops are not commutative: only a constant rhs counts.
    if !commutes && c != b {
        return None;
    }
    let wc = cv.width();
    let wx = rb.out.width(x);
    match op {
        BinaryOp::BitAnd => {
            // a & 0…0 → 0…0 at the result width: AND against zero (and
            // against the zero-extension) is 0 for every four-state bit.
            if is_all(&cv, Logic::Zero) {
                let w = wx?.max(wc);
                return Some(rb.add(CellKind::Const(LogicVec::zero(w))));
            }
            // a & 1…1 → a, only at exactly a's width (narrower masks the
            // top, wider widens the result) and only z-free `a` (AND
            // coerces z to x).
            if is_all(&cv, Logic::One) && wx == Some(wc) && !rb.may_z(x) {
                return Some(x);
            }
            None
        }
        BinaryOp::BitOr => {
            // a | 1…1 → 1…1 when the mask covers a: OR against one is 1
            // for every four-state bit.
            if is_all(&cv, Logic::One) && wx.is_some_and(|w| wc >= w) {
                return Some(rb.add(CellKind::Const(LogicVec::filled(Logic::One, wc))));
            }
            // a | 0…0 → a when the zeros don't widen the result; z-guard
            // as for AND.
            if is_all(&cv, Logic::Zero) && wx.is_some_and(|w| wc <= w) && !rb.may_z(x) {
                return Some(x);
            }
            None
        }
        BinaryOp::BitXor => {
            if is_all(&cv, Logic::Zero) && wx.is_some_and(|w| wc <= w) && !rb.may_z(x) {
                return Some(x);
            }
            None
        }
        BinaryOp::LogicAnd => {
            // Truthiness of the constant decides: `a && 0` is 0 for any
            // `a` (0 ∧ anything = 0), `a && truthy` is `|a`.
            match cv.truthiness() {
                Logic::Zero => Some(rb.add(CellKind::Const(LogicVec::zero(1)))),
                Logic::One => Some(rb.add(CellKind::Unary(UnaryOp::ReduceOr, x))),
                _ => None,
            }
        }
        BinaryOp::LogicOr => match cv.truthiness() {
            Logic::One => Some(rb.add(CellKind::Const(LogicVec::from_u64(1, 1)))),
            Logic::Zero => Some(rb.add(CellKind::Unary(UnaryOp::ReduceOr, x))),
            _ => None,
        },
        // No arithmetic identities: `a + 0` all-x-poisons when `a` has
        // any unknown bit, while bare `a` keeps its known bits — folding
        // would *reduce* x-propagation and diverge from the oracle.
        _ => None,
    }
}

fn lower(src: &Netlist) -> (Netlist, u64) {
    let mut rb = Rebuilder::new(src);
    let mut fired = 0u64;
    for id in 0..src.cell_count() as CellId {
        let kind = rb.mapped(src.kind(id));
        if let Some(target) = lower_cell(&mut rb, &kind) {
            fired += 1;
            rb.push_map(target);
        } else {
            let new = rb.add(kind);
            rb.push_map(new);
        }
    }
    (rb.finish(src), fired)
}

/// AIG-style lowering of compares, constant muxes, and constant shifts.
fn lower_cell(rb: &mut Rebuilder, kind: &CellKind) -> Option<CellId> {
    match kind {
        CellKind::Binary(op @ (BinaryOp::Eq | BinaryOp::Neq), a, b) => {
            let (x, cv) = match (rb.out.const_of(*a), rb.out.const_of(*b)) {
                (None, Some(v)) => (*a, v.clone()),
                (Some(v), None) => (*b, v.clone()),
                _ => return None,
            };
            let eq = *op == BinaryOp::Eq;
            let wx = rb.out.width(x);
            if is_all(&cv, Logic::Zero) {
                // a == 0 ≡ ~|a and a != 0 ≡ |a at any constant width:
                // logical equality zero-extends both sides, and the
                // reduction treats x and z as unknown exactly like the
                // per-bit compare does.
                let red = if eq {
                    UnaryOp::ReduceNor
                } else {
                    UnaryOp::ReduceOr
                };
                return Some(rb.add(CellKind::Unary(red, x)));
            }
            if is_all(&cv, Logic::One) {
                match wx {
                    Some(w) if w == cv.width() => {
                        let red = if eq {
                            UnaryOp::ReduceAnd
                        } else {
                            UnaryOp::ReduceNand
                        };
                        return Some(rb.add(CellKind::Unary(red, x)));
                    }
                    Some(w) if w < cv.width() => {
                        // The zero-extended high bits of `a` can never
                        // match the constant's ones: statically decided.
                        let v = LogicVec::from_u64(u64::from(!eq), 1);
                        return Some(rb.add(CellKind::Const(v)));
                    }
                    _ => return None,
                }
            }
            None
        }
        CellKind::Mux {
            cond,
            then_arm,
            else_arm,
        } => {
            let t = rb.out.const_of(*then_arm)?;
            let f = rb.out.const_of(*else_arm)?;
            if t.width() != 1 || f.width() != 1 {
                return None;
            }
            match (t.get(0)?, f.get(0)?) {
                // c ? 1 : 0 ≡ |c (truthiness), c ? 0 : 1 ≡ !c: the
                // x-merge of {1,0} is x, matching the reduction on an
                // unknown condition.
                (Logic::One, Logic::Zero) => {
                    Some(rb.add(CellKind::Unary(UnaryOp::ReduceOr, *cond)))
                }
                (Logic::Zero, Logic::One) => {
                    Some(rb.add(CellKind::Unary(UnaryOp::LogicNot, *cond)))
                }
                _ => None,
            }
        }
        CellKind::Binary(op @ (BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr), a, b) => {
            let c = rb.out.const_of(*b)?.clone();
            let wa = rb.out.width(*a);
            match c.to_u64() {
                // Shifting by zero copies every bit (including z)
                // verbatim: unconditional identity.
                Some(0) => Some(*a),
                // Logical shifts by ≥ width flush to zero; arithmetic
                // right shift fills with the sign bit instead, so it is
                // excluded.
                Some(n) if *op != BinaryOp::AShr && wa.is_some_and(|w| n as usize >= w) => {
                    Some(rb.add(CellKind::Const(LogicVec::zero(wa?))))
                }
                // Unknown constant amounts poison to all-x of the left
                // operand's width.
                None => {
                    let w = wa?;
                    Some(rb.add(CellKind::Const(LogicVec::unknown(w))))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Associative operators eligible for rebalancing, and whether they
/// require uniform operand widths. Bitwise ops are per-bit Kleene
/// operators — associative and commutative at any widths under
/// zero-extension. `+`/`*` wrap at the max operand width and all-x-poison
/// on any unknown, both shape-independent only when every leaf shares one
/// width (mixed widths truncate intermediates differently per shape).
fn rebalance_op(op: BinaryOp) -> Option<bool> {
    match op {
        BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::BitXor => Some(false),
        BinaryOp::Add | BinaryOp::Mul => Some(true),
        _ => None,
    }
}

fn rebalance(src: &Netlist) -> (Netlist, u64) {
    let uses = src.use_counts();
    let mut rb = Rebuilder::new(src);
    let mut fired = 0u64;
    for id in 0..src.cell_count() as CellId {
        let kind = src.kind(id);
        let new = match kind {
            CellKind::Binary(op, _, _) if rebalance_op(*op).is_some() => {
                let uniform = rebalance_op(*op).unwrap();
                let mut leaves = Vec::new();
                collect_chain(src, &uses, id, *op, &mut leaves);
                let widths_ok = !uniform || {
                    let w0 = src.width(leaves[0]);
                    w0.is_some() && leaves.iter().all(|&l| src.width(l) == w0)
                };
                if leaves.len() >= 4 && widths_ok {
                    fired += 1;
                    let mapped: Vec<CellId> = leaves.iter().map(|&l| rb.map[l as usize]).collect();
                    balanced(&mut rb, *op, &mapped)
                } else {
                    let mapped = rb.mapped(kind);
                    rb.add(mapped)
                }
            }
            _ => {
                let mapped = rb.mapped(kind);
                rb.add(mapped)
            }
        };
        rb.push_map(new);
    }
    (rb.finish(src), fired)
}

/// Expands a left/right-leaning chain of `op` into its leaves, stopping at
/// operands that are shared (other users would lose the interior value)
/// or roots. Leaves come out in left-to-right evaluation order.
fn collect_chain(nl: &Netlist, uses: &[u32], id: CellId, op: BinaryOp, out: &mut Vec<CellId>) {
    match nl.kind(id) {
        CellKind::Binary(o, a, b) if *o == op => {
            for &side in [*a, *b].iter() {
                let expandable = matches!(nl.kind(side), CellKind::Binary(o2, _, _) if *o2 == op)
                    && uses[side as usize] == 1;
                if expandable {
                    collect_chain(nl, uses, side, op, out);
                } else {
                    out.push(side);
                }
            }
        }
        _ => out.push(id),
    }
}

/// Builds a balanced tree over `leaves` (already mapped into `rb.out`).
fn balanced(rb: &mut Rebuilder, op: BinaryOp, leaves: &[CellId]) -> CellId {
    match leaves {
        [one] => *one,
        _ => {
            let mid = leaves.len() / 2;
            let l = balanced(rb, op, &leaves[..mid]);
            let r = balanced(rb, op, &leaves[mid..]);
            rb.add(CellKind::Binary(op, l, r))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledDesign;
    use crate::elab::compile;
    use crate::netlist::build;

    fn optimized(src: &str, config: PassConfig) -> (Netlist, PassStats) {
        let d = compile(src).unwrap();
        let cd = CompiledDesign::with_passes(d, PassConfig::none());
        // Rebuild the unoptimized netlist directly so the test sees the
        // pre-pipeline graph.
        let nl = build::import(cd.design(), cd.literals(), &raw_chunks(&cd));
        run(nl, config)
    }

    fn raw_chunks(cd: &CompiledDesign) -> Vec<Vec<crate::compile::Op>> {
        (0..cd.chunk_count() as u32)
            .map(|i| cd.expr(i).to_vec())
            .collect()
    }

    fn root_kind(nl: &Netlist, i: usize) -> &CellKind {
        nl.kind(nl.roots()[i].unwrap())
    }

    #[test]
    fn constfold_uses_interpreter_semantics_for_x() {
        // 4'bxx00 + 1 must fold to all-x (arithmetic poisons), not 1.
        let (nl, stats) = optimized(
            "module m(output [3:0] y);\n assign y = 4'bxx00 + 4'd1;\nendmodule",
            PassConfig::full(),
        );
        assert!(stats.folded > 0);
        match root_kind(&nl, 0) {
            CellKind::Const(v) => assert!(!v.is_fully_known()),
            other => panic!("expected folded const, got {other:?}"),
        }
    }

    #[test]
    fn and_with_full_mask_is_identity_and_with_zero_absorbs() {
        // The identity side needs a provably z-free operand: a bare input
        // load may carry `z` (pokes are four-state), and `z & 1` is `x`,
        // not `z` — so `a & 1111` must survive. `~a` coerces z to x, so
        // `~a & 1111` folds to `~a`.
        let (nl, _) = optimized(
            "module m(input [3:0] a, output [3:0] y, output [3:0] z);\n assign y = ~a & 4'b1111;\n assign z = a & 4'b0000;\nendmodule",
            PassConfig::full(),
        );
        assert!(matches!(
            root_kind(&nl, 0),
            CellKind::Unary(UnaryOp::BitNot, _)
        ));
        match root_kind(&nl, 1) {
            CellKind::Const(v) => assert_eq!(v.to_u64(), Some(0)),
            other => panic!("expected absorbed const, got {other:?}"),
        }
    }

    #[test]
    fn narrow_mask_is_not_treated_as_identity() {
        // a is 4 bits, the mask 2 bits: `a & 2'b11` truncates nothing but
        // zero-extends the mask, clearing a[3:2] — must NOT fold to `a`.
        let (nl, _) = optimized(
            "module m(input [3:0] a, output [3:0] y);\n assign y = a & 2'b11;\nendmodule",
            PassConfig::full(),
        );
        assert!(matches!(
            root_kind(&nl, 0),
            CellKind::Binary(BinaryOp::BitAnd, _, _)
        ));
    }

    #[test]
    fn compare_to_zero_lowers_to_reduction() {
        let (nl, stats) = optimized(
            "module m(input [7:0] a, output y, output z);\n assign y = (a == 8'd0);\n assign z = (a != 8'd0);\nendmodule",
            PassConfig::full(),
        );
        assert!(stats.lowered >= 2);
        assert!(matches!(
            root_kind(&nl, 0),
            CellKind::Unary(UnaryOp::ReduceNor, _)
        ));
        assert!(matches!(
            root_kind(&nl, 1),
            CellKind::Unary(UnaryOp::ReduceOr, _)
        ));
    }

    #[test]
    fn reduction_chain_rebalances_to_log_depth() {
        let (nl, stats) = optimized(
            "module m(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d, input [7:0] e, input [7:0] f, input [7:0] g, input [7:0] h, output [7:0] y);\n assign y = a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;\nendmodule",
            PassConfig::full(),
        );
        assert!(stats.rebalanced >= 1);
        let levels = crate::netlist::level::cell_levels(&nl);
        let root = nl.roots()[0].unwrap();
        // 8 leaves balanced → depth 3, versus 7 for the left-leaning chain.
        assert_eq!(levels[root as usize], 3);
    }

    #[test]
    fn gt_normalizes_to_lt_and_commutative_operands_cons() {
        let (nl, _) = optimized(
            "module m(input [3:0] a, input [3:0] b, output y, output z, output [3:0] s, output [3:0] t);\n assign y = a > b;\n assign z = b < a;\n assign s = a + b;\n assign t = b + a;\nendmodule",
            PassConfig::full(),
        );
        // `a > b` and `b < a` must be the same cell after normalization,
        // as must `a + b` and `b + a`.
        assert_eq!(nl.roots()[0], nl.roots()[1]);
        assert_eq!(nl.roots()[2], nl.roots()[3]);
    }

    #[test]
    fn z_carrying_operand_blocks_identity_folds() {
        // y = 1'bz | 1'b0 would become plain `z` under a naive identity,
        // but the OR coerces z→x; the fold must fire only via the full
        // constant path (both sides const ⇒ evaluator), which is exact.
        let (nl, _) = optimized(
            "module m(output y);\n assign y = 1'bz | 1'b0;\nendmodule",
            PassConfig::full(),
        );
        match root_kind(&nl, 0) {
            CellKind::Const(v) => assert_eq!(v.get(0), Some(Logic::X)),
            other => panic!("expected const x, got {other:?}"),
        }
    }

    #[test]
    fn pipeline_reaches_fixpoint_within_round_budget() {
        let (_, stats) = optimized(
            "module m(input [7:0] a, output [7:0] y);\n assign y = ((a & 8'hff) + 8'd0) ^ 8'h00;\nendmodule",
            PassConfig::full(),
        );
        assert!(stats.rounds <= MAX_ROUNDS);
        assert!(stats.cells_out <= stats.cells_in);
    }

    #[test]
    fn pass_config_mask_is_stable() {
        assert_eq!(PassConfig::none().mask(), 0);
        assert_eq!(PassConfig::full().mask(), 0b1111);
        let only_norm = PassConfig {
            normalize: true,
            ..PassConfig::none()
        };
        assert_eq!(only_norm.mask(), 0b0001);
    }
}
