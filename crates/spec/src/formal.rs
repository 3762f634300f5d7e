//! Spec-aware entry points to the formal equivalence oracle.
//!
//! The oracle itself ([`haven_engine::FormalOracle`]) is spec-agnostic:
//! it compares two compiled designs under an explicit clock and reset
//! preamble. This module derives those from a [`Spec`] — the clock from
//! the sequential attributes and a constant reset protocol mirroring
//! episode 1 of [`crate::stimuli::stimuli_for`] (data inputs parked at
//! zero, enable active, reset asserted across one cycle then released) —
//! and runs `candidate ≡ correct-emission` for any candidate source.
//!
//! The formal verdict complements co-simulation rather than replacing
//! it: cosim drives a finite stimulus program and can false-pass a
//! candidate that only misbehaves off-program, while the oracle decides
//! all input assignments at once (within the unroll bound for
//! sequential designs). `prop_formal.rs` pins the agreement direction:
//! formal never calls a pair equivalent where cosim exhibits a real
//! mismatch.

use std::sync::Arc;

use haven_engine::{Engine, FormalOracle, FormalOutcome};
use haven_formal::{EquivOptions, PreambleOp};

use crate::codegen::{emit, EmitStyle};
use crate::ir::Spec;

/// Specializes `base` options to `spec`: clock and reset preamble for
/// sequential behaviours, pure combinational query otherwise.
pub fn equiv_options_for(spec: &Spec, base: &EquivOptions) -> EquivOptions {
    if !spec.behavior.is_sequential() {
        return EquivOptions {
            clock: None,
            preamble: Vec::new(),
            postamble: Vec::new(),
            ..base.clone()
        };
    }
    let mut preamble = Vec::new();
    // Park data inputs and activate the enable, exactly like the
    // stimulus generator's reset episode, so the two oracles agree on
    // what "after reset" means.
    for p in &spec.inputs {
        preamble.push(PreambleOp::Set(p.name.clone(), 0));
    }
    if let Some(en) = &spec.attrs.enable {
        preamble.push(PreambleOp::Set(en.name.clone(), u64::from(en.active_high)));
    }
    let mut postamble = Vec::new();
    if let Some(r) = &spec.attrs.reset {
        let assert = u64::from(r.asserted_by(true));
        preamble.push(PreambleOp::Set(r.name.clone(), assert));
        preamble.push(PreambleOp::Tick);
        preamble.push(PreambleOp::Set(r.name.clone(), 1 - assert));
        // Mid-run reset probe, mirroring the stimulus generator's reset
        // episode 4. The reset pin is edge-watched for async styles and
        // therefore held constant during the free steps; re-asserting it
        // here — with an output comparison *before* the next clock edge —
        // is what separates async from sync reset implementations.
        postamble.push(PreambleOp::Set(r.name.clone(), assert));
        postamble.push(PreambleOp::Tick);
    }
    EquivOptions {
        clock: Some(spec.attrs.clock.clone()),
        preamble,
        postamble,
        ..base.clone()
    }
}

/// Checks `candidate_source` against the spec's correct emission.
///
/// Returns `None` when either side fails to prepare (candidate syntax
/// errors are already the cosim `SyntaxError` bucket; the formal rung
/// only speaks about compilable designs).
pub fn formal_check(
    engine: &Engine,
    oracle: &FormalOracle,
    spec: &Spec,
    candidate_source: &str,
) -> Option<Arc<FormalOutcome>> {
    let golden = engine.prepare(&emit(spec, &EmitStyle::correct())).ok()?;
    let candidate = engine.prepare(candidate_source).ok()?;
    let opts = equiv_options_for(spec, oracle.options());
    Some(oracle.check_with(&golden, &candidate, &opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use haven_engine::EngineOptions;
    use haven_formal::EquivVerdict;
    use haven_verilog::analyze::ResetKind;

    fn rig() -> (Engine, FormalOracle) {
        (
            Engine::new(EngineOptions::default()),
            FormalOracle::new(EquivOptions::default()),
        )
    }

    #[test]
    fn correct_emission_is_self_equivalent() {
        let (engine, oracle) = rig();
        for spec in [
            builders::adder("add", 8),
            builders::mux2("mux", 4),
            builders::counter("ctr", 4, None),
            builders::shift_register("shr", 4, crate::ir::ShiftDirection::Left),
        ] {
            let source = emit(&spec, &EmitStyle::correct());
            let outcome = formal_check(&engine, &oracle, &spec, &source)
                .expect("correct emission must prepare");
            assert_eq!(
                outcome.report.verdict,
                EquivVerdict::Equivalent,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn blocking_assignment_hallucination_is_refuted() {
        // `=` instead of `<=` in a pipeline collapses the stages; the
        // formal oracle must find a distinguishing stimulus and confirm
        // it by replay.
        let (engine, oracle) = rig();
        let spec = builders::pipeline("pipe", 4, 2);
        let sabotaged = emit(
            &spec,
            &EmitStyle {
                nonblocking_in_seq: false,
                ..EmitStyle::correct()
            },
        );
        let outcome =
            formal_check(&engine, &oracle, &spec, &sabotaged).expect("sabotage still compiles");
        assert!(
            matches!(outcome.report.verdict, EquivVerdict::Counterexample(_)),
            "got {:?}",
            outcome.report.verdict
        );
        assert!(outcome.replay_confirmed);
    }

    #[test]
    fn reset_style_confusion_is_not_called_equivalent() {
        let (engine, oracle) = rig();
        let spec = builders::counter("ctr", 4, None);
        let sabotaged = emit(
            &spec,
            &EmitStyle {
                reset_kind_override: Some(ResetKind::Sync),
                ..EmitStyle::correct()
            },
        );
        let outcome =
            formal_check(&engine, &oracle, &spec, &sabotaged).expect("sabotage still compiles");
        // The reset pin is edge-watched on the async side and therefore
        // held constant during the free steps; only the postamble probe
        // separates the two styles, and it must do so with a confirmed
        // concrete trace, not merely a refusal to prove equivalence.
        assert!(
            matches!(outcome.report.verdict, EquivVerdict::Counterexample(_)),
            "got {:?}",
            outcome.report.verdict
        );
        assert!(outcome.replay_confirmed);
    }

    #[test]
    fn syntax_error_candidates_are_out_of_scope() {
        let (engine, oracle) = rig();
        let spec = builders::adder("add", 4);
        assert!(formal_check(&engine, &oracle, &spec, "not verilog").is_none());
    }
}
