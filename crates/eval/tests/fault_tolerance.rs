//! Fault-injection and resumability tests for the evaluation harness —
//! the acceptance suite of the failure model in DESIGN.md:
//!
//! * **transient faults are invisible**: a seeded [`FaultPlan`] whose
//!   faults clear on retry leaves gated pass@k and syntax pass@k
//!   bit-identical to the fault-free run;
//! * **permanent faults degrade gracefully**: the run completes, faulted
//!   samples are counted and attributed per task, and no panic escapes;
//! * **killed runs resume**: a journal truncated mid-sweep (torn tail
//!   included) resumes into the same `SuiteResult` an uninterrupted run
//!   produces.

use std::io::Write;
use std::path::PathBuf;

use haven_eval::fault::FaultPlan;
use haven_eval::harness::{
    evaluate, evaluate_resumable, EvalConfig, EvalError, RetryPolicy, SicotMode,
};
use haven_eval::suites;
use haven_lm::profiles::ModelProfile;

fn small_suite() -> Vec<haven_eval::BenchTask> {
    suites::verilog_eval_machine(1)
        .into_iter()
        .take(10)
        .collect()
}

fn base_cfg() -> EvalConfig {
    EvalConfig {
        n: 4,
        temperatures: vec![0.2, 0.8],
        sicot: SicotMode::Off,
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0,
        },
        ..EvalConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("haven-fault-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}.journal", std::process::id()))
}

#[test]
fn transient_faults_leave_passk_invariant() {
    let suite = small_suite();
    let profile = ModelProfile::uniform("mid", 0.6);
    let clean = evaluate(&profile, &suite, &base_cfg()).unwrap();
    let cfg = EvalConfig {
        fault_plan: Some(FaultPlan::transient(0xF00D, 0.5)),
        ..base_cfg()
    };
    let faulted = evaluate(&profile, &suite, &cfg).unwrap();

    // The plan really fired — retries were spent recovering — yet not a
    // single sample was quarantined and every metric is bit-identical.
    assert!(faulted.retries() > 0, "fault plan never fired");
    assert_eq!(faulted.faults(), 0, "transient faults must all recover");
    assert_eq!(clean.best_temperature, faulted.best_temperature);
    assert_eq!(clean.pass_at(1), faulted.pass_at(1));
    assert_eq!(clean.pass_at(4), faulted.pass_at(4));
    assert_eq!(clean.syntax_pass_at(1), faulted.syntax_pass_at(1));
    assert_eq!(clean.skipped_sims(), faulted.skipped_sims());
    for (c, f) in clean.tasks.iter().zip(&faulted.tasks) {
        assert_eq!(c.task_id, f.task_id);
        assert_eq!(c.c_syntax, f.c_syntax, "{}", c.task_id);
        assert_eq!(c.c_func, f.c_func, "{}", c.task_id);
        assert_eq!(c.skipped_sims, f.skipped_sims, "{}", c.task_id);
        assert_eq!(c.exhausted, f.exhausted, "{}", c.task_id);
    }
}

#[test]
fn transient_fault_runs_are_reproducible() {
    let suite = small_suite();
    let profile = ModelProfile::uniform("mid", 0.6);
    let cfg = EvalConfig {
        fault_plan: Some(FaultPlan::transient(0xBEEF, 0.4)),
        ..base_cfg()
    };
    let a = evaluate(&profile, &suite, &cfg).unwrap();
    let b = evaluate(&profile, &suite, &cfg).unwrap();
    assert_eq!(a, b, "same seed, same faults, same result — bit for bit");
}

#[test]
fn permanent_faults_degrade_gracefully() {
    let suite = small_suite();
    let profile = ModelProfile::uniform("mid", 0.6);
    let clean = evaluate(&profile, &suite, &base_cfg()).unwrap();
    let cfg = EvalConfig {
        fault_plan: Some(FaultPlan::permanent(0xF00D, 0.5)),
        ..base_cfg()
    };
    // No panic escapes; the suite completes with every task present.
    let r = evaluate(&profile, &suite, &cfg).unwrap();
    assert_eq!(r.tasks.len(), suite.len());

    // Permanent faults are quarantined and *counted*, per task.
    let quarantined = r.faults() + r.exhausted();
    assert!(quarantined > 0, "permanent plan never fired");
    for t in &r.tasks {
        assert_eq!(t.n, 4);
        assert!(
            t.c_func + t.faults <= t.n && t.c_syntax + t.faults <= t.n,
            "{t:?}"
        );
    }
    // Quarantined samples count as failures, never as passes: the score
    // can only degrade, and the retry budget is bounded (2 retries per
    // faulted sample at 3 attempts).
    assert!(r.pass_at(1) <= clean.pass_at(1));
    assert!(r.retries() <= 2 * 4 * suite.len());
}

#[test]
fn worker_panics_never_abort_the_suite() {
    // Rate 1.0: every sample of every task faults on every attempt, a
    // third of them as raw worker panics. The harness must still return
    // a complete, fully-attributed result.
    let suite = small_suite();
    let cfg = EvalConfig {
        fault_plan: Some(FaultPlan::permanent(7, 1.0)),
        ..base_cfg()
    };
    let r = evaluate(&ModelProfile::uniform("perfect", 1.0), &suite, &cfg).unwrap();
    assert_eq!(r.tasks.len(), suite.len());
    assert_eq!(r.pass_at(1), 0.0);
    for t in &r.tasks {
        assert_eq!(
            t.faults + t.exhausted,
            t.n,
            "every sample must be quarantined: {t:?}"
        );
    }
}

#[test]
fn resumable_run_matches_uninterrupted_run() {
    let suite = small_suite();
    let profile = ModelProfile::uniform("mid", 0.6);
    let cfg = base_cfg();
    let uninterrupted = evaluate(&profile, &suite, &cfg).unwrap();

    // A full resumable run from scratch agrees with plain evaluate.
    let path = tmp("full");
    let _ = std::fs::remove_file(&path);
    let full = evaluate_resumable(&profile, &suite, &cfg, &path).unwrap();
    assert_eq!(full, uninterrupted);

    // Simulate a kill mid-sweep: keep the header and the first three
    // completed entries, then tear the last line mid-write.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let mut truncated: Vec<&str> = Vec::new();
    truncated.push(lines.next().unwrap());
    truncated.extend(lines.take(3));
    std::fs::write(&path, format!("{}\n", truncated.join("\n"))).unwrap();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    write!(f, "t=3fc999999999999a\tid=torn").unwrap();
    drop(f);

    let resumed = evaluate_resumable(&profile, &suite, &cfg, &path).unwrap();
    assert_eq!(
        resumed, uninterrupted,
        "resume from a torn partial journal must reproduce the run"
    );

    // And resuming the now-complete journal is also stable.
    let again = evaluate_resumable(&profile, &suite, &cfg, &path).unwrap();
    assert_eq!(again, uninterrupted);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_from_a_task_held_at_only_some_temperatures() {
    // Workers run a task at every temperature back to back, so a kill
    // can leave a task journaled at some temperatures but not others.
    let suite = small_suite();
    let profile = ModelProfile::uniform("mid", 0.6);
    let cfg = EvalConfig {
        temperatures: vec![0.2, 0.5, 0.8],
        ..base_cfg()
    };
    let uninterrupted = evaluate(&profile, &suite, &cfg).unwrap();
    let path = tmp("partial-task");
    let _ = std::fs::remove_file(&path);
    evaluate_resumable(&profile, &suite, &cfg, &path).unwrap();

    // Keep the first three tasks whole, the fourth at 0.2 and 0.8 only,
    // and nothing of the rest.
    let kept: Vec<&str> = suite.iter().take(4).map(|t| t.id.as_str()).collect();
    let middle = format!("t={:016x}", 0.5f64.to_bits());
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let mut partial = vec![lines.next().unwrap()];
    partial.extend(lines.filter(|line| {
        let mut fields = line.split('\t');
        let (t, id) = (fields.next().unwrap(), fields.next().unwrap());
        match kept.iter().position(|k| id == format!("id={k}")) {
            Some(3) => t != middle,
            Some(_) => true,
            None => false,
        }
    }));
    assert_eq!(partial.len(), 1 + 3 * 3 + 2);
    std::fs::write(&path, format!("{}\n", partial.join("\n"))).unwrap();

    let resumed = evaluate_resumable(&profile, &suite, &cfg, &path).unwrap();
    assert_eq!(resumed, uninterrupted);
    // Only the missing (task, temperature) pairs ran and were journaled.
    let total = std::fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(total, 1 + suite.len() * 3);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_under_transient_faults_still_matches() {
    let suite = small_suite();
    let profile = ModelProfile::uniform("mid", 0.6);
    let cfg = EvalConfig {
        fault_plan: Some(FaultPlan::transient(0xABCD, 0.5)),
        ..base_cfg()
    };
    let clean = evaluate(&profile, &suite, &base_cfg()).unwrap();
    let path = tmp("faulted-resume");
    let _ = std::fs::remove_file(&path);
    let r = evaluate_resumable(&profile, &suite, &cfg, &path).unwrap();
    assert_eq!(r.pass_at(1), clean.pass_at(1));
    assert_eq!(r.syntax_pass_at(1), clean.syntax_pass_at(1));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mismatched_journal_is_refused() {
    let suite = small_suite();
    let profile = ModelProfile::uniform("mid", 0.6);
    let path = tmp("mismatch");
    let _ = std::fs::remove_file(&path);
    evaluate_resumable(&profile, &suite, &base_cfg(), &path).unwrap();

    // Same journal, different sample count: refuse, don't mix.
    let other = EvalConfig { n: 7, ..base_cfg() };
    let err = evaluate_resumable(&profile, &suite, &other, &path).unwrap_err();
    assert!(
        matches!(err, EvalError::JournalMismatch { .. }),
        "expected a journal mismatch, got {err:?}"
    );

    // Different task suite (order matters for the fingerprint): refuse.
    let mut reordered = suite.clone();
    reordered.reverse();
    let err = evaluate_resumable(&profile, &reordered, &base_cfg(), &path).unwrap_err();
    assert!(matches!(err, EvalError::JournalMismatch { .. }));
    let _ = std::fs::remove_file(&path);
}
