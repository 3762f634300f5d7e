//! A small CDCL SAT solver — the fallback engine of the formal oracle.
//!
//! The workspace carries no external solver, so this is a compact,
//! self-contained implementation of the standard conflict-driven clause
//! learning loop: two-watched-literal propagation, first-UIP conflict
//! analysis with non-chronological backjumping, VSIDS-style variable
//! activity with phase saving, and geometric restarts. It is budgeted:
//! [`Solver::solve`] gives up after a conflict limit and reports
//! [`SatResult::Unknown`], which the equivalence layer surfaces as a
//! typed `Unknown` verdict rather than a wrong answer.
//!
//! Correctness posture: SAT answers ("a counterexample exists") are
//! always re-validated downstream by concrete replay, so a model here is
//! never trusted blindly. UNSAT answers participate in `Equivalent`
//! verdicts, so the propagation/analysis core keeps to the textbook
//! algorithm with no speculative optimizations, and the property suite
//! cross-checks verdicts against brute-force enumeration and cosim.

/// Assignment states.
const UNASSIGNED: u8 = 2;

/// Outcome of a (budgeted) solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found; read it via [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget ran out before a decision was reached.
    Unknown,
}

/// Search counters, for benchmarking and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
}

/// Internal literal encoding: `var * 2 + sign` (sign 1 = negated).
type ILit = u32;

#[inline]
fn ilit(var: usize, neg: bool) -> ILit {
    (var as u32) << 1 | u32::from(neg)
}

#[inline]
fn ivar(l: ILit) -> usize {
    (l >> 1) as usize
}

#[inline]
fn ineg(l: ILit) -> ILit {
    l ^ 1
}

/// Converts a DIMACS-style literal (±(var+1), 1-based) to internal form.
#[inline]
fn from_dimacs(l: i32) -> ILit {
    debug_assert!(l != 0);
    ilit(l.unsigned_abs() as usize - 1, l < 0)
}

/// A budgeted CDCL solver over variables `1..=n` (DIMACS numbering).
///
/// # Examples
///
/// ```
/// use haven_formal::sat::{SatResult, Solver};
/// let mut s = Solver::new(2);
/// s.add_clause(&[1, 2]);
/// s.add_clause(&[-1, 2]);
/// s.add_clause(&[1, -2]);
/// assert_eq!(s.solve(1_000), SatResult::Sat);
/// assert!(s.value(1) && s.value(2));
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    /// Clause database; watched literals are positions 0 and 1.
    clauses: Vec<Vec<ILit>>,
    /// Per-literal watch lists of clause indexes.
    watches: Vec<Vec<u32>>,
    /// Per-variable assignment: 0 = false, 1 = true, 2 = unassigned.
    assign: Vec<u8>,
    /// Per-variable decision level.
    level: Vec<u32>,
    /// Per-variable implying clause (`u32::MAX` for decisions).
    reason: Vec<u32>,
    /// Assigned literals in chronological order.
    trail: Vec<ILit>,
    /// Trail length at each decision level.
    trail_lim: Vec<usize>,
    /// Propagation queue head (index into `trail`).
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    act_inc: f64,
    /// Saved phase per variable.
    phase: Vec<bool>,
    /// Set when an empty clause was added or derived at level 0.
    unsat: bool,
    stats: SatStats,
    /// Conflict-analysis scratch.
    seen: Vec<bool>,
}

const NO_REASON: u32 = u32::MAX;

impl Solver {
    /// A solver over `nvars` variables and no clauses.
    pub fn new(nvars: usize) -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: vec![Vec::new(); nvars * 2],
            assign: vec![UNASSIGNED; nvars],
            level: vec![0; nvars],
            reason: vec![NO_REASON; nvars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; nvars],
            act_inc: 1.0,
            phase: vec![false; nvars],
            unsat: false,
            stats: SatStats::default(),
            seen: vec![false; nvars],
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Search counters so far.
    pub fn stats(&self) -> &SatStats {
        &self.stats
    }

    /// Adds a clause of DIMACS-style literals (±var, 1-based). Tautologies
    /// are dropped, duplicates removed; the empty clause marks the
    /// formula unsatisfiable.
    pub fn add_clause(&mut self, dimacs: &[i32]) {
        if self.unsat {
            return;
        }
        let mut lits: Vec<ILit> = dimacs.iter().map(|&l| from_dimacs(l)).collect();
        lits.sort_unstable();
        lits.dedup();
        for w in lits.windows(2) {
            if w[0] == ineg(w[1]) {
                return; // tautology
            }
        }
        // Drop literals already false at level 0; stop early on a literal
        // already true at level 0.
        debug_assert!(
            self.trail_lim.is_empty(),
            "clauses are added before solving"
        );
        let mut reduced = Vec::with_capacity(lits.len());
        for &l in &lits {
            match self.lit_value(l) {
                Some(true) => return,
                Some(false) => {}
                None => reduced.push(l),
            }
        }
        match reduced.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(reduced[0], NO_REASON) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                let ci = self.clauses.len() as u32;
                self.watches[reduced[0] as usize].push(ci);
                self.watches[reduced[1] as usize].push(ci);
                self.clauses.push(reduced);
            }
        }
    }

    /// The model value of a DIMACS variable after [`SatResult::Sat`].
    /// Unassigned variables (outside every clause) read `false`.
    pub fn value(&self, var: i32) -> bool {
        debug_assert!(var > 0);
        self.assign
            .get(var as usize - 1)
            .map(|&a| a == 1)
            .unwrap_or(false)
    }

    #[inline]
    fn lit_value(&self, l: ILit) -> Option<bool> {
        match self.assign[ivar(l)] {
            UNASSIGNED => None,
            v => Some((v == 1) != (l & 1 == 1)),
        }
    }

    /// Assigns `l` true; returns false if it is already false.
    fn enqueue(&mut self, l: ILit, reason: u32) -> bool {
        match self.lit_value(l) {
            Some(v) => v,
            None => {
                let v = ivar(l);
                self.assign[v] = u8::from(l & 1 == 0);
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns the conflicting clause index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = ineg(p);
            let mut ws = std::mem::take(&mut self.watches[false_lit as usize]);
            let mut keep = 0usize;
            let mut conflict = None;
            'clauses: for wi in 0..ws.len() {
                let ci = ws[wi];
                {
                    let lits = &mut self.clauses[ci as usize];
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.clauses[ci as usize][0];
                if self.lit_value(first) == Some(true) {
                    ws[keep] = ci;
                    keep += 1;
                    continue;
                }
                for k in 2..self.clauses[ci as usize].len() {
                    let cand = self.clauses[ci as usize][k];
                    if self.lit_value(cand) != Some(false) {
                        self.clauses[ci as usize].swap(1, k);
                        self.watches[cand as usize].push(ci);
                        continue 'clauses;
                    }
                }
                // No replacement watch: clause is unit or conflicting.
                ws[keep] = ci;
                keep += 1;
                if !self.enqueue(first, ci) {
                    conflict = Some(ci);
                    // Retain the rest of the watch list untouched; the
                    // kept prefix never outruns the scan cursor, so this
                    // forward copy is in bounds.
                    ws.copy_within(wi + 1.., keep);
                    keep += ws.len() - wi - 1;
                    break;
                }
            }
            ws.truncate(keep);
            debug_assert!(self.watches[false_lit as usize].is_empty());
            self.watches[false_lit as usize] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.act_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<ILit>, u32) {
        let current = self.trail_lim.len() as u32;
        let mut learnt: Vec<ILit> = Vec::new();
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut p: Option<ILit> = None;
        loop {
            // Clone the reason clause: activity bumps below need `&mut self`.
            let lits = self.clauses[confl as usize].clone();
            for &q in &lits {
                if Some(q) == p.map(ineg) {
                    continue;
                }
                let v = ivar(q);
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[ivar(self.trail[idx])] {
                    break;
                }
            }
            let pl = self.trail[idx];
            let v = ivar(pl);
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(ineg(pl));
                break;
            }
            confl = self.reason[v];
            debug_assert_ne!(confl, NO_REASON, "implied literal has a reason");
            p = Some(ineg(pl));
        }
        let asserting = p.expect("conflict at a positive level has a UIP");
        for &q in &learnt {
            self.seen[ivar(q)] = false;
        }
        let back = learnt
            .iter()
            .map(|&q| self.level[ivar(q)])
            .max()
            .unwrap_or(0);
        let mut clause = Vec::with_capacity(learnt.len() + 1);
        clause.push(asserting);
        // Position a literal of the backjump level second, so the watch
        // invariant holds immediately after backjumping.
        learnt.sort_by_key(|&q| std::cmp::Reverse(self.level[ivar(q)]));
        clause.extend(learnt);
        (clause, back)
    }

    fn backtrack(&mut self, to_level: u32) {
        while self.trail_lim.len() as u32 > to_level {
            let lim = self.trail_lim.pop().expect("level to unwind");
            for &l in &self.trail[lim..] {
                let v = ivar(l);
                self.phase[v] = self.assign[v] == 1;
                self.assign[v] = UNASSIGNED;
                self.reason[v] = NO_REASON;
            }
            self.trail.truncate(lim);
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> Option<ILit> {
        let mut best: Option<usize> = None;
        for v in 0..self.assign.len() {
            if self.assign[v] == UNASSIGNED
                && best
                    .map(|b| self.activity[v] > self.activity[b])
                    .unwrap_or(true)
            {
                best = Some(v);
            }
        }
        best.map(|v| ilit(v, !self.phase[v]))
    }

    /// Runs the CDCL loop until a verdict or `max_conflicts` conflicts.
    pub fn solve(&mut self, max_conflicts: u64) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        let budget_end = self.stats.conflicts.saturating_add(max_conflicts);
        let mut restart_limit = 100u64;
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                let (clause, back) = self.analyze(confl);
                self.backtrack(back);
                self.act_inc /= 0.95;
                let asserting = clause[0];
                if clause.len() == 1 {
                    debug_assert_eq!(back, 0);
                    if !self.enqueue(asserting, NO_REASON) {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                } else {
                    let ci = self.clauses.len() as u32;
                    self.watches[clause[0] as usize].push(ci);
                    self.watches[clause[1] as usize].push(ci);
                    self.clauses.push(clause);
                    self.stats.learned += 1;
                    let ok = self.enqueue(asserting, ci);
                    debug_assert!(ok, "asserting literal is unassigned after backjump");
                }
                if self.stats.conflicts >= budget_end {
                    self.backtrack(0);
                    return SatResult::Unknown;
                }
                if conflicts_here >= restart_limit {
                    conflicts_here = 0;
                    restart_limit += restart_limit / 2;
                    self.stats.restarts += 1;
                    self.backtrack(0);
                }
            } else {
                match self.decide() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(l, NO_REASON);
                        debug_assert!(ok, "decision variable was unassigned");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force satisfiability over up to 20 variables.
    fn brute(nvars: usize, clauses: &[Vec<i32>]) -> bool {
        (0..1u64 << nvars).any(|m| {
            clauses.iter().all(|c| {
                c.iter().any(|&l| {
                    let v = l.unsigned_abs() as usize - 1;
                    (m >> v & 1 == 1) != (l < 0)
                })
            })
        })
    }

    fn check(nvars: usize, clauses: &[Vec<i32>]) {
        let mut s = Solver::new(nvars);
        for c in clauses {
            s.add_clause(c);
        }
        let got = s.solve(100_000);
        let want = brute(nvars, clauses);
        match got {
            SatResult::Sat => {
                assert!(want, "solver said SAT on an UNSAT formula {clauses:?}");
                for c in clauses {
                    assert!(
                        c.iter().any(|&l| s.value(l.abs()) == (l > 0)),
                        "model violates clause {c:?}"
                    );
                }
            }
            SatResult::Unsat => assert!(!want, "solver said UNSAT on a SAT formula {clauses:?}"),
            SatResult::Unknown => panic!("budget exhausted on a tiny formula"),
        }
    }

    #[test]
    fn trivial_formulas() {
        check(1, &[vec![1]]);
        check(1, &[vec![1], vec![-1]]);
        check(2, &[vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]]);
        check(3, &[vec![1, 2, 3], vec![-1], vec![-2]]);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p(i,j): pigeon i in hole j. Vars: 1 + i*2 + j.
        let v = |i: i32, j: i32| 1 + i * 2 + j;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-v(a, j), -v(b, j)]);
                }
            }
        }
        let mut s = Solver::new(6);
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(100_000), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn randomized_3sat_agrees_with_brute_force() {
        // Deterministic xorshift so the sweep is reproducible.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..300 {
            let nvars = 3 + (next() % 8) as usize;
            let nclauses = 2 + (next() % (nvars as u64 * 5)) as usize;
            let clauses: Vec<Vec<i32>> = (0..nclauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = (next() % nvars as u64) as i32 + 1;
                            if next() & 1 == 1 {
                                -v
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
            check(nvars, &clauses);
            let _ = round;
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // Pigeonhole 5-into-4 needs real search; a 1-conflict budget must
        // give Unknown, never a wrong verdict.
        let v = |i: i32, j: i32| 1 + i * 4 + j;
        let mut s = Solver::new(20);
        for i in 0..5 {
            s.add_clause(&[v(i, 0), v(i, 1), v(i, 2), v(i, 3)]);
        }
        for j in 0..4 {
            for a in 0..5 {
                for b in (a + 1)..5 {
                    s.add_clause(&[-v(a, j), -v(b, j)]);
                }
            }
        }
        assert_eq!(s.solve(1), SatResult::Unknown);
        // The same solver can resume with a bigger budget.
        assert_eq!(s.solve(1_000_000), SatResult::Unsat);
    }
}
