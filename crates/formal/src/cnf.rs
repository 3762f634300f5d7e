//! Tseitin encoding: AIG cones → CNF for the SAT core.
//!
//! Only the cone of influence of the requested roots is encoded — the
//! shared miter AIG holds both designs across every unrolled step, but a
//! query about one obligation pays only for the nodes it can reach.
//! Each AND node `v = a ∧ b` contributes the three standard clauses
//! `(¬v ∨ a)`, `(¬v ∨ b)`, `(v ∨ ¬a ∨ ¬b)`; inputs get a free variable.

use std::collections::{HashMap, HashSet};

use crate::aig::{Aig, Lit};
use crate::sat::Solver;

/// The variable map produced by an encoding: AIG node id → DIMACS var.
pub struct CnfMap {
    vars: HashMap<u32, i32>,
}

impl CnfMap {
    /// The DIMACS variable of `node`, if it is inside the encoded cone.
    pub fn var(&self, node: u32) -> Option<i32> {
        self.vars.get(&node).copied()
    }

    /// The DIMACS literal of an AIG literal inside the cone.
    pub fn lit(&self, l: Lit) -> Option<i32> {
        self.var(l.node()).map(|v| if l.negated() { -v } else { v })
    }

    /// Number of encoded variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the cone was empty (all roots constant).
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

/// Topological order of the cone of `roots` (fanins before fanouts),
/// constants excluded.
fn cone(aig: &Aig, roots: &[Lit]) -> Vec<u32> {
    let mut order: Vec<u32> = Vec::new();
    let mut visited: HashSet<u32> = HashSet::new();
    let mut stack: Vec<(u32, bool)> = roots
        .iter()
        .filter(|l| !l.is_const())
        .map(|l| (l.node(), false))
        .collect();
    while let Some((node, expanded)) = stack.pop() {
        if expanded {
            order.push(node);
            continue;
        }
        if !visited.insert(node) {
            continue;
        }
        stack.push((node, true));
        if let Some((a, b)) = aig.and_fanin(node) {
            debug_assert!(
                !a.is_const() && !b.is_const(),
                "const-prop left no constant fanins"
            );
            stack.push((a.node(), false));
            stack.push((b.node(), false));
        }
    }
    order
}

/// Builds a solver holding the Tseitin encoding of `roots`' cone with the
/// disjunction of the roots asserted true (the standard miter query:
/// "some root can be 1"). Constant-false roots drop out of the
/// disjunction; callers must fold constant-true roots before encoding.
pub fn encode(aig: &Aig, roots: &[Lit]) -> (Solver, CnfMap) {
    debug_assert!(
        roots.iter().all(|r| *r != Lit::TRUE),
        "constant-true roots are decided without SAT"
    );
    let order = cone(aig, roots);
    let vars: HashMap<u32, i32> = order
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i as i32 + 1))
        .collect();
    let map = CnfMap { vars };
    let mut solver = Solver::new(order.len());
    for node in &order {
        if let Some((a, b)) = aig.and_fanin(*node) {
            let v = map.var(*node).expect("cone node has a var");
            let la = map.lit(a).expect("fanin inside cone");
            let lb = map.lit(b).expect("fanin inside cone");
            solver.add_clause(&[-v, la]);
            solver.add_clause(&[-v, lb]);
            solver.add_clause(&[v, -la, -lb]);
        }
    }
    let assertion: Vec<i32> = roots.iter().filter_map(|&r| map.lit(r)).collect();
    solver.add_clause(&assertion);
    (solver, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;

    #[test]
    fn inverter_chain_miter_is_unsat() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let f = g.and(a, b.not());
        // ¬(¬a ∨ b) is the same function built a different way; strash
        // folds it back to `f`, so perturb with a double negation through
        // a mux to get a structurally distinct but equivalent cone.
        let h = g.mux(a, b.not(), Lit::FALSE);
        let miter = g.xor(f, h);
        if miter == Lit::FALSE {
            return; // folded structurally — nothing left to solve
        }
        let (mut s, _) = encode(&g, &[miter]);
        assert_eq!(s.solve(10_000), SatResult::Unsat);
    }

    #[test]
    fn satisfiable_miter_yields_a_real_witness() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let f = g.and(a, b);
        let h = g.or(a, b);
        let miter = g.xor(f, h);
        let (mut s, map) = encode(&g, &[miter]);
        assert_eq!(s.solve(10_000), SatResult::Sat);
        // Decode the model back to AIG inputs and re-simulate.
        let read = |l: Lit, s: &Solver| {
            map.lit(l)
                .map(|v| s.value(v.abs()) == (v > 0))
                .unwrap_or(false)
        };
        let av = read(a, &s);
        let bv = read(b, &s);
        assert!(g.eval(&[av, bv], miter), "model must drive the miter to 1");
        assert_ne!(av && bv, av || bv);
    }

    #[test]
    fn cone_is_scoped_to_the_roots() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let small = g.and(a, b);
        let _big = g.and(small, c);
        let order = cone(&g, &[small]);
        assert_eq!(order.len(), 3, "a, b and the AND — never c or big");
    }
}
